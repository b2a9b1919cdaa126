//! Hostile input for the pgt, CSV and JSONL parsers.
//!
//! pgt: strings over the grammar's metacharacters, control characters,
//! non-ASCII whitespace and multibyte letters, and lines of raw bytes or of
//! records with arbitrary bytes planted in them (invalid UTF-8 included),
//! go into `load_text` and into a `PgtSource` drained through
//! `ChunkedTextReader`. Each must return `Ok` or a named error and never
//! panic. Both run the same line parser, so on valid UTF-8 they must also
//! agree on what they accept and on the first parse error, message
//! included; a line that is not UTF-8 is a parse error at that line.
//!
//! CSV and JSONL: valid rows and lines with quotes, separators, escapes,
//! brackets, line breaks or arbitrary bytes planted in them, truncated, or
//! replaced by junk, are drained record by record through `read_record`
//! and through a `ChunkedTextReader` at chunk size 3.
//!
//! Every pgt, CSV and JSONL input is also drained through `ReadAheadChunks`
//! (the same chunking on its parse and chunk threads). No drain may panic,
//! and all of them must stop at the same first `StreamError` or agree on
//! the records read.
//!
//! Snapshots: a real snapshot with every section present has bytes
//! flipped, inserted (invalid UTF-8 included) or cut off, and goes into
//! `ResumeContext::load`, which must refuse it with a named `snapshot:`
//! error or load it losslessly (the header sits outside the checksum).
//! Section lines are also duplicated, dropped, cut or given huge numbers
//! and re-checksummed, so the mutation reaches the section parsers:
//! `ResumeContext::from_snapshot` must return `Ok` or a named error.
//!
//! HTTP: a `serve::bind` server gets duplicate or conflicting
//! `Content-Length`, `Transfer-Encoding` beside `Content-Length`, a bare
//! CR or LF in the head, a request line that is not UTF-8, and valid
//! requests split across several writes. Every connection gets
//! well-formed replies (status line, `Content-Length` equal to the body,
//! an error name docs/SERVE.md lists) and then a clean close, and the
//! server keeps answering `GET /healthz`.

use pg_hive_core::pipeline::UnitSource;
use pg_hive_core::serve::{bind, RunningServer, ServeCore, ServeOptions};
use pg_hive_core::snapshot::{
    context_snapshot_cached, FileCheckpoint, ResumeContext, Snapshot, SnapshotConfig,
    WatchCheckpoint,
};
use pg_hive_core::{Discoverer, Ingest, PipelineConfig, SignatureCache};
use pg_hive_graph::loader::{load_text, LoadError};
use pg_hive_graph::stream::csv::CsvSource;
use pg_hive_graph::stream::jsonl::JsonlSource;
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::stream::read_all;
use pg_hive_graph::{
    ChunkedTextReader, RawGraphSource, ReadAheadChunks, RecordBuf, RecordRef, StreamError,
};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::io::{Cursor, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One line of a mutated input: a template index, an edit (1 inserts a
/// byte, 2 overwrites one, 3 replaces the line with junk, 4 truncates it,
/// anything else keeps it), where to edit, an arbitrary byte and a plant
/// index (past the plant list the arbitrary byte is used), the line ending
/// (CRLF or LF) and the junk.
type LineEdit = (usize, u8, usize, u8, usize, (bool, Vec<u8>));

/// Lines drawn from `templates` templates with edits below `edits`.
fn line_edits(
    templates: usize,
    edits: u8,
    plants: usize,
    lines: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<LineEdit>> {
    proptest::collection::vec(
        (
            0..templates,
            0..edits,
            0usize..64,
            any::<u8>(),
            0..plants * 2,
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..16)),
        ),
        lines,
    )
}

/// Apply `edits` to `templates` and join the lines.
fn edited(templates: &[&[u8]], plants: &[u8], edits: Vec<LineEdit>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (template, edit, at, raw, plant, (crlf, junk)) in edits {
        let mut line = templates[template].to_vec();
        let byte = plants.get(plant).copied().unwrap_or(raw);
        match edit {
            1 => line.insert(at % (line.len() + 1), byte),
            2 if !line.is_empty() => {
                let i = at % line.len();
                line[i] = byte;
            }
            3 => line = junk,
            4 => line.truncate(at % (line.len() + 1)),
            _ => {}
        }
        line.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
        bytes.extend_from_slice(&line);
    }
    bytes
}

/// Valid lines the byte-level property mutates or replaces: records with
/// labels, escapes (including multibyte and truncated ones), a comment and
/// a blank line.
const RECORDS: &[&[u8]] = &[
    b"N a P k=v",
    b"N b - -",
    b"N c A;B x=%C3%A9,y=%E3%80%80,z=%2",
    b"E a b X w=1",
    b"E b zz - -",
    b"E c a - t=%0A%",
    b"# note",
    b"",
];

/// Bytes worth planting: separators of every kind, the grammar's
/// metacharacters, and UTF-8 lead and continuation bytes that a
/// byte-indexing splitter must never cut a `&str` at.
const PLANTS: &[u8] = &[
    0x00, b' ', b'\t', 0x0b, b'\r', b'\n', b'%', b'=', b',', b';', b'-', b'#', b'N', b'E', 0x85,
    0xa0, 0xc2, 0xc3, 0xa9, 0xe3, 0x80, 0xff,
];

/// 1-based number and byte offset of the first line (up to and including
/// its `\n`) that is not UTF-8.
fn first_invalid_line(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut offset = 0;
    for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        if std::str::from_utf8(line).is_err() {
            return Some((i as u64 + 1, offset));
        }
        offset += line.len();
    }
    None
}

/// Feed `bytes` to both consumers, and drain it record by record, chunked,
/// and chunked on the read-ahead threads (all three must agree). Invalid
/// UTF-8 stops the stream with a parse error at its line, unless a valid
/// line before it fails first. On valid UTF-8: whatever `load_text` accepts
/// the stream accepts with the same element counts, and a parse error
/// `load_text` reports is the stream's first error, at the same line, with
/// the same message.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    let resident = load_text(&text);
    let chunked = drain_chunks(PgtSource::new(bytes));
    check_drains(
        &drain_records(PgtSource::new(bytes)),
        &chunked,
        &drain_ahead(PgtSource::new(Cursor::new(bytes.to_vec()))),
    )?;
    if let Some((bad, offset)) = first_invalid_line(bytes) {
        match &chunked {
            Err(StreamError::Parse { line, msg }) if *line == bad => {
                prop_assert!(msg.contains("UTF-8"), "{}", msg);
            }
            Err(e @ StreamError::Parse { line, .. }) if *line < bad => {
                let prefix = drain_chunks(PgtSource::new(&bytes[..offset]));
                prop_assert_eq!(shown(&prefix), Err(e.to_string()));
            }
            other => prop_assert!(false, "line {} is not UTF-8: {:?}", bad, other),
        }
        return Ok(());
    }
    match resident {
        Ok(g) => {
            prop_assert!(chunked.is_ok(), "{:?}", chunked);
            let (h, w) = read_all(PgtSource::new(bytes)).unwrap();
            prop_assert_eq!(h.node_count(), g.node_count());
            prop_assert_eq!(h.edge_count(), g.edge_count());
            prop_assert_eq!(w.duplicate_nodes, 0);
            prop_assert_eq!(w.unresolved_edges, 0);
        }
        Err(
            e @ (LoadError::UnknownRecord { line }
            | LoadError::Malformed { line, .. }
            | LoadError::BadProperty { line, .. }),
        ) => match &chunked {
            Err(err @ StreamError::Parse { line: at, .. }) => {
                prop_assert_eq!(*at, line as u64);
                prop_assert_eq!(err.to_string(), e.to_string());
            }
            other => prop_assert!(false, "loader {:?}, stream {:?}", e, other),
        },
        // Undeclared endpoints and repeated ids are warnings to the stream.
        Err(LoadError::UnknownNode { .. }) => prop_assert!(chunked.is_ok(), "{:?}", chunked),
        Err(LoadError::DuplicateNode { .. }) => {}
    }
    Ok(())
}

/// Line openers that carry a hostile tail past the record-kind check and,
/// for the longer ones, into the properties field.
const OPENERS: &[&str] = &[
    "N a - ",
    "N b P;Q ",
    "N c - ",
    "E a b X ",
    "E b c - ",
    "E c zz Y ",
    "N ",
    "E ",
    "",
    "#",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pgt_survives_hostile_strings(
        lines in proptest::collection::vec((
            0usize..OPENERS.len(),
            "[-NE;,=%#ab01\t\r\u{0}\u{1}\u{b}\u{7f}\u{85}\u{a0}\u{2028}\u{3000}éß日]{0,12}",
        ), 0..8)
    ) {
        let text: String = lines
            .iter()
            .map(|(opener, tail)| format!("{}{tail}\n", OPENERS[*opener]))
            .collect();
        check(text.as_bytes())?;
    }

    #[test]
    fn pgt_survives_hostile_bytes(lines in line_edits(RECORDS.len(), 4, PLANTS.len(), 0..10)) {
        check(&edited(RECORDS, PLANTS, lines))?;
    }

    #[test]
    fn csv_survives_hostile_rows(
        node_header in line_edits(1, 24, CSV_PLANTS.len(), 1..2),
        node_rows in line_edits(CSV_NODES.len(), 16, CSV_PLANTS.len(), 0..8),
        edge_header in line_edits(1, 24, CSV_PLANTS.len(), 1..2),
        edge_rows in line_edits(CSV_EDGES.len(), 16, CSV_PLANTS.len(), 0..8),
    ) {
        let mut nodes = edited(&[b"id,labels,name,age,note"], CSV_PLANTS, node_header);
        nodes.extend(edited(CSV_NODES, CSV_PLANTS, node_rows));
        let mut edges = edited(&[b"src,tgt,labels,w"], CSV_PLANTS, edge_header);
        edges.extend(edited(CSV_EDGES, CSV_PLANTS, edge_rows));
        let source = || CsvSource::new(&nodes[..], Some(&edges[..]));
        let owned = CsvSource::new(Cursor::new(nodes.clone()), Some(Cursor::new(edges.clone())));
        check_drains(&drain_records(source()), &drain_chunks(source()), &drain_ahead(owned))?;
    }

    #[test]
    fn snapshot_load_survives_byte_mutations(
        edits in proptest::collection::vec(
            (0u8..3, any::<bool>(), any::<usize>(), 0..SNAPSHOT_PLANTS.len()),
            1..4,
        )
    ) {
        let original = full_snapshot();
        let mut bytes = original.as_bytes().to_vec();
        for (kind, in_header, at, plant) in edits {
            // Half the edits land in the two header lines, which the
            // checksum does not cover.
            let span = if in_header { HEADER_SPAN.min(bytes.len()) } else { bytes.len() };
            let byte = SNAPSHOT_PLANTS[plant];
            match kind {
                0 if span > 0 => bytes[at % span] = byte,
                1 => bytes.insert(at % (span + 1), byte),
                _ => bytes.truncate(at % (bytes.len() + 1)),
            }
        }
        let path = temp_snapshot("bytes");
        std::fs::write(&path, &bytes).expect("write mutated snapshot");
        match ResumeContext::load(&path) {
            Err(e) => prop_assert!(e.to_string().starts_with("snapshot:"), "{}", e),
            Ok(ctx) => {
                ctx.save(&path).expect("save reloaded snapshot");
                let again = std::fs::read_to_string(&path).expect("read reloaded snapshot");
                prop_assert_eq!(payload(&again), payload(original), "lossy load");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_sections_survive_line_mutations(
        edits in proptest::collection::vec(
            (0..SECTIONS.len(), any::<usize>(), 0u8..6, any::<usize>()),
            1..6,
        )
    ) {
        let parsed = Snapshot::parse(full_snapshot()).expect("fresh snapshot parses");
        let mut sections: Vec<Vec<String>> = SECTIONS
            .iter()
            .map(|name| parsed.section(name).expect("every section present").to_vec())
            .collect();
        for (section, line, kind, at) in edits {
            let lines = &mut sections[section];
            if lines.is_empty() {
                continue;
            }
            let i = line % lines.len();
            match kind {
                0 => lines.insert(i, lines[i].clone()),
                1 => {
                    lines.remove(i);
                }
                2 => {
                    let mut tokens: Vec<&str> = lines[i].split(' ').collect();
                    tokens.remove(at % tokens.len());
                    lines[i] = tokens.join(" ");
                }
                3 => lines[i] = huge_number(&lines[i], at),
                4 => {
                    let cut = floor_char_boundary(&lines[i], at % (lines[i].len() + 1));
                    lines[i].truncate(cut);
                }
                _ => lines.insert(i, SNAPSHOT_JUNK[at % SNAPSHOT_JUNK.len()].to_string()),
            }
        }
        let mut mutated = Snapshot::new();
        for (name, lines) in SECTIONS.iter().zip(sections) {
            mutated.push_section(name, lines);
        }
        let reparsed = Snapshot::parse(&mutated.to_text()).expect("re-checksummed text parses");
        match ResumeContext::from_snapshot(&reparsed) {
            Err(e) => prop_assert!(e.to_string().starts_with("snapshot:"), "{}", e),
            Ok(ctx) => {
                ctx.ingest.state.finalize();
            }
        }
    }

    #[test]
    fn jsonl_survives_hostile_lines(
        lines in line_edits(JSONL_LINES.len(), 12, JSONL_PLANTS.len(), 0..10)
    ) {
        let bytes = edited(JSONL_LINES, JSONL_PLANTS, lines);
        let source = || JsonlSource::new(&bytes[..]);
        let owned = JsonlSource::new(Cursor::new(bytes.clone()));
        check_drains(&drain_records(source()), &drain_chunks(source()), &drain_ahead(owned))?;
    }
}

/// Valid `nodes.csv` rows (after the header `id,labels,name,age,note`):
/// quoted separators, doubled quotes, a CRLF inside quotes, multiple and
/// empty labels, absent and quoted-empty cells, a backslash, a short row.
const CSV_NODES: &[&[u8]] = &[
    b"a,Person,Ann,30,\"x, \"\"y\"\"\"",
    b"b,P;Q,\"two\r\nlines\",,",
    b"c,,\"\",7.5,\"a\\b\"",
    b"d,Person,Bob",
    b"",
];

/// Valid `edges.csv` rows (after the header `src,tgt,labels,w`), one with
/// an undeclared endpoint and one holding JSON-looking text.
const CSV_EDGES: &[&[u8]] = &[
    b"a,b,KNOWS,1",
    b"b,zz,,\"\"",
    b"c,a,X;Y,\"{\"\"k\"\":[1]}\"",
    b"d,d,SELF,1999-12-19",
];

/// CSV metacharacters, line breaks, brackets, a NUL and UTF-8 lead,
/// continuation and invalid bytes.
const CSV_PLANTS: &[u8] = &[
    b'"', b',', b';', b'\r', b'\n', b'\\', b'{', b'}', b' ', 0x00, 0xc3, 0xa9, 0xe3, 0x80, 0xff,
];

/// Valid JSON-Lines records: escapes (a surrogate pair included), `null`,
/// numbers, booleans, an unknown field holding nested values, fields out
/// of order, and a blank line.
const JSONL_LINES: &[&[u8]] = &[
    br#"{"type":"node","id":"a","labels":["P"],"props":{"name":"Ann","age":30}}"#,
    br#"{"type":"node","id":"b","labels":["P","Q"],"props":{"s":"\u00e9\ud83d\ude00","q":"a\"b\\c","z":null}}"#,
    br#"{"type":"edge","src":"a","tgt":"b","labels":["X"],"props":{"w":-2.5e1,"t":true}}"#,
    br#"{"type":"edge","src":"b","tgt":"zz","extra":[1,{"k":[]}]}"#,
    br#"{"id":"c","type":"node"}"#,
    b"",
];

/// JSON metacharacters, escape letters, number characters, line breaks, a
/// NUL, and UTF-8 lead, continuation and invalid (surrogate) bytes.
const JSONL_PLANTS: &[u8] = &[
    b'"', b'\\', b'{', b'}', b'[', b']', b':', b',', b'u', b'n', b'0', b'-', b'.', b'e', b' ',
    b'\r', b'\n', 0x00, 0xc3, 0xa9, 0xed, 0xa0, 0xff,
];

/// Nodes and edges a drain read, or its first error.
type Drained = Result<(usize, usize), StreamError>;

/// Drain `source` record by record: nodes and edges read, or the first
/// error.
fn drain_records<S: RawGraphSource>(mut source: S) -> Drained {
    let mut buf = RecordBuf::new();
    let (mut nodes, mut edges) = (0, 0);
    while source.read_record(&mut buf)? {
        match buf.view() {
            RecordRef::Node { .. } => nodes += 1,
            RecordRef::Edge { .. } => edges += 1,
        }
    }
    Ok((nodes, edges))
}

/// Drain `source` through a `ChunkedTextReader` at chunk size 3, so stubs
/// and parked forward edges are exercised too: declared nodes and edges
/// (emitted, or dropped as unresolved), or the first error.
fn drain_chunks<S: RawGraphSource>(source: S) -> Drained {
    let mut reader = ChunkedTextReader::new(source, 3);
    let (mut nodes, mut edges) = (0, 0);
    while let Some(chunk) = reader.next_chunk()? {
        nodes += chunk.node_count() - chunk.stub_count();
        edges += chunk.edge_count();
    }
    Ok((nodes, edges + reader.warnings().unresolved_edges as usize))
}

/// [`drain_chunks`] through `ReadAheadChunks`, whose reader runs on its
/// chunk thread over records parsed on its parse thread.
fn drain_ahead<S: RawGraphSource + Send + 'static>(source: S) -> Drained {
    let mut ahead = ReadAheadChunks::spawn(source, 3, 2);
    let (mut nodes, mut edges) = (0, 0);
    while let Some(chunk) = ahead.next_chunk()? {
        nodes += chunk.node_count() - chunk.stub_count();
        edges += chunk.edge_count();
    }
    let end = ahead.take_end().expect("a drained read-ahead has an end");
    Ok((nodes, edges + end.warnings.unresolved_edges as usize))
}

/// A drain's counts, or its error's message.
fn shown(d: &Drained) -> Result<(usize, usize), String> {
    d.as_ref().copied().map_err(|e| e.to_string())
}

/// Three drains of one input agree on the records read or on the first
/// error.
fn check_drains(records: &Drained, chunks: &Drained, ahead: &Drained) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        shown(records),
        shown(chunks),
        "record drain vs chunked drain"
    );
    prop_assert_eq!(
        shown(ahead),
        shown(chunks),
        "read-ahead drain vs chunked drain"
    );
    Ok(())
}

/// Bytes of the two header lines (`pg-hive-snapshot 1`, `checksum <hex>`).
const HEADER_SPAN: usize = 45;

/// Header digits and hex letters in both cases, the header's separators,
/// section brackets, and UTF-8 lead, continuation and invalid bytes.
const SNAPSHOT_PLANTS: &[u8] = &[
    b'0', b'1', b'2', b'9', b'a', b'A', b'f', b'F', b'g', b' ', b'\n', b'\r', b'[', b']', b'%',
    0x00, 0xc3, 0xa9, 0xff,
];

/// Section order of [`full_snapshot`].
const SECTIONS: &[&str] = &[
    "config",
    "state",
    "registry",
    "watch",
    "files",
    "pending",
    "sigcache2",
];

/// Lines planted into a section: well-formed lines of other sections,
/// half-formed ones, and bad escapes.
const SNAPSHOT_JUNK: &[&str] = &[
    "node Person 18446744073709551615 name:18446744073709551615:string",
    "edge KNOWS 18446744073709551615 18446744073709551615:0 Person>Person",
    "node - 1 k:1:float",
    "edge - 0 - -",
    "set",
    "id x 18446744073709551615",
    "seed 18446744073709551615",
    "pass 18446744073709551615",
    "file %zz 1 0x 0x 1",
    "edge a b - k:%e",
    "0 1: 0:",
    "ffffffffffffffffffffffffffffffff 18446744073709551615:0 0:",
    "",
];

/// A snapshot written by the product writer with every section present: a
/// labeled and an unlabeled node type, edges with cardinality, a registry,
/// watch progress with a CSV header, carried edges and signature-cache
/// entries.
fn full_snapshot() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let mut acc = Ingest::new(d.new_state());
        let cache = SignatureCache::default();
        let text = "N a Person name=Ann,age=30\nN b - note=x%20y\nN o Org url=x.com\n\
                    E a o WORKS_AT from=2001\nE b o WORKS_AT -\nE a ghost KNOWS since=2020-01-01\n";
        let source = UnitSource::Inline(Box::new(PgtSource::new(text.as_bytes())));
        d.absorb_unit(&mut acc, source, 2, 1, Some(&cache), &mut |_| {})
            .expect("valid pgt");
        let watch = WatchCheckpoint {
            input: "in dir".into(),
            format: "csv".into(),
            pass: 3,
            warnings: acc.warnings,
            files: vec![FileCheckpoint {
                path: "in dir/nodes.csv".into(),
                offset: 42,
                tail: b"o,Org\n".to_vec(),
                header: Some(b"id,labels\n".to_vec()),
                required: true,
            }],
        };
        let config = SnapshotConfig::new(d.config(), 2);
        let snap = context_snapshot_cached(
            &config,
            &acc.state,
            &acc.registry,
            Some(&watch),
            &acc.pending,
            Some(&cache),
        );
        let text = snap.to_text();
        for name in SECTIONS {
            assert!(
                snap.section(name).is_some_and(|l| !l.is_empty()),
                "[{name}]"
            );
        }
        text
    })
}

/// Everything after the two header lines.
fn payload(text: &str) -> &str {
    text.splitn(3, '\n').nth(2).unwrap_or_default()
}

/// `line` with its `at`-th digit run replaced by `u64::MAX`.
fn huge_number(line: &str, at: usize) -> String {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, b) in line.bytes().chain(std::iter::once(b' ')).enumerate() {
        match (b.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                runs.push(s..i);
                start = None;
            }
            _ => {}
        }
    }
    match runs.get(at % runs.len().max(1)) {
        Some(run) => format!(
            "{}18446744073709551615{}",
            &line[..run.start],
            &line[run.end..]
        ),
        None => line.to_string(),
    }
}

/// The largest char boundary of `s` at or below `i`.
fn floor_char_boundary(s: &str, mut i: usize) -> usize {
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// A fresh temp path per case, so parallel tests never share a file.
fn temp_snapshot(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pg-hive-hostile-snapshot-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A pgt body every hostile HTTP case carries.
const HTTP_BODY: &str = "N h Host name=x\n";

/// One hostile HTTP exchange: the writes a client makes on one connection
/// and, where the answer is fixed, the `(status, error name)` replies.
type HttpCase = (Vec<Vec<u8>>, Option<Vec<(u16, Option<String>)>>);

/// A POST of [`HTTP_BODY`] to the ingest route with `headers`.
fn ingest_request(headers: &[String]) -> Vec<u8> {
    let mut head = String::from("POST /v1/hostile/ingest HTTP/1.1\r\nHost: x\r\n");
    for h in headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    format!("{head}\r\n{HTTP_BODY}").into_bytes()
}

/// The hostile request of kind `kind % 5` (see
/// `serve_survives_hostile_http`), drawn from the other arguments.
fn hostile_case(kind: usize, picks: &[u8], flag: bool, at: usize, cuts: &[usize]) -> HttpCase {
    let len = HTTP_BODY.len();
    let valid = ingest_request(&[format!("Content-Length: {len}")]);
    match kind % 5 {
        // Duplicate or conflicting Content-Length headers.
        0 => {
            let headers: Vec<String> = picks
                .iter()
                .map(|p| match p % 7 {
                    0 => len.to_string(),
                    1 => (len + 1).to_string(),
                    2 => (len - 1).to_string(),
                    3 => format!("+{len}"),
                    4 => format!(" 0{len} "),
                    5 => format!("{len},{len}"),
                    _ => String::new(),
                })
                .map(|value| format!("Content-Length: {value}"))
                .collect();
            (vec![ingest_request(&headers)], None)
        }
        // Transfer-Encoding together with Content-Length, either first.
        1 => {
            let te = ["chunked", "identity", "gzip, chunked"][at % 3];
            let mut headers = vec![
                format!("Content-Length: {len}"),
                format!("Transfer-Encoding: {te}"),
            ];
            if flag {
                headers.reverse();
            }
            let expected = vec![(501, Some("chunked-not-supported".to_string()))];
            (vec![ingest_request(&headers)], Some(expected))
        }
        // A bare CR or LF planted anywhere in the head. A bare LF ends a
        // line, so what follows varies; a bare CR is refused outright.
        2 => {
            let mut bytes = valid;
            let line_len = bytes
                .iter()
                .position(|&b| b == b'\r')
                .expect("a request line");
            let at = at % (bytes.len() - len - 2);
            bytes.insert(at, if flag { b'\r' } else { b'\n' });
            let refused = if at <= line_len + 1 {
                "bad-request-line"
            } else {
                "bad-header"
            };
            let expected = flag.then(|| vec![(400, Some(refused.to_string()))]);
            (vec![bytes], expected)
        }
        // A request line that is not UTF-8.
        3 => {
            let mut bytes = valid;
            let line_len = bytes
                .iter()
                .position(|&b| b == b'\r')
                .expect("a request line");
            bytes.insert(at % (line_len + 1), 0x80 | picks[0]);
            let expected = vec![(400, Some("bad-request-line".to_string()))];
            (vec![bytes], Some(expected))
        }
        // A valid request split across several writes.
        _ => {
            let request = if flag {
                valid
            } else {
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec()
            };
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % request.len()).collect();
            cuts.push(request.len());
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut start = 0;
            for cut in cuts {
                pieces.push(request[start..cut].to_vec());
                start = cut;
            }
            (pieces, Some(vec![(200, None)]))
        }
    }
}

/// A fresh server with one connection worker, so a hostile request that
/// killed or wedged the worker leaves nothing to answer `GET /healthz`.
fn hostile_server() -> RunningServer {
    let opts = ServeOptions {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        ..ServeOptions::default()
    };
    let core = ServeCore::new(Discoverer::new(PipelineConfig::elsh_adaptive()), opts)
        .expect("server core");
    bind("127.0.0.1:0", Arc::new(core)).expect("bind")
}

/// Make `writes` on a fresh connection, close the writing half and read
/// until the server closes. A reset or a stall is an error.
fn http_exchange(addr: SocketAddr, writes: &[Vec<u8>]) -> Result<Vec<u8>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    for (i, piece) in writes.iter().enumerate() {
        if i > 0 {
            // Let the server read the previous piece on its own.
            std::thread::sleep(Duration::from_millis(2));
        }
        stream.write_all(piece).map_err(|e| format!("write: {e}"))?;
    }
    stream
        .shutdown(Shutdown::Write)
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .map_err(|e| format!("no clean close after {} byte(s): {e}", reply.len()))?;
    Ok(reply)
}

/// Split a server's byte stream into replies, checking that each has a
/// status line and a `Content-Length` equal to its body's length, and that
/// an error reply (status >= 400) names an error docs/SERVE.md lists.
fn parse_replies(mut bytes: &[u8]) -> Result<Vec<(u16, Option<String>)>, String> {
    let documented = include_str!("../../docs/SERVE.md");
    let mut replies = Vec::new();
    while !bytes.is_empty() {
        let head_end = bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or("a reply head never ends")?;
        let head = std::str::from_utf8(&bytes[..head_end]).map_err(|_| "reply head not UTF-8")?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = None;
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("bad reply header {line:?}"))?;
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
        let length = length.ok_or("a reply without a Content-Length")?;
        let body_start = head_end + 4;
        let body = bytes
            .get(body_start..body_start + length)
            .ok_or("a reply body shorter than its Content-Length")?;
        bytes = &bytes[body_start + length..];
        let error = if status >= 400 {
            let body = std::str::from_utf8(body).map_err(|_| "error body not UTF-8")?;
            let name = body
                .strip_prefix("{\"error\":\"")
                .and_then(|rest| rest.split_once('"'))
                .map(|(name, _)| name.to_string())
                .ok_or_else(|| format!("error reply without a name: {body}"))?;
            if !documented.contains(&format!("`{name}`")) {
                return Err(format!("error name {name:?} is not in docs/SERVE.md"));
            }
            Some(name)
        } else {
            None
        };
        replies.push((status, error));
    }
    Ok(replies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile HTTP: duplicate or conflicting `Content-Length`,
    /// `Transfer-Encoding` beside `Content-Length`, a bare CR or LF in the
    /// head, a request line that is not UTF-8, and valid requests split
    /// across several writes. Every connection gets well-formed replies
    /// (or none) and then a clean close, and the server still answers a
    /// new connection's `GET /healthz` with 200.
    #[test]
    fn serve_survives_hostile_http(
        kind in 0usize..5,
        picks in proptest::collection::vec(any::<u8>(), 2..4),
        flag in any::<bool>(),
        at in any::<usize>(),
        cuts in proptest::collection::vec(any::<usize>(), 1..5),
    ) {
        let (writes, expected) = hostile_case(kind, &picks, flag, at, &cuts);
        let server = hostile_server();
        let bytes = http_exchange(server.addr(), &writes).map_err(TestCaseError::fail)?;
        let replies = parse_replies(&bytes).map_err(TestCaseError::fail)?;
        if let Some(expected) = expected {
            prop_assert_eq!(replies, expected);
        }
        let health = http_exchange(server.addr(), &[b"GET /healthz HTTP/1.1\r\n\r\n".to_vec()])
            .and_then(|bytes| parse_replies(&bytes))
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(health, vec![(200, None)]);
        server.shutdown();
    }
}
