//! Hostile input for the pgt, CSV and JSONL parsers.
//!
//! pgt: strings over the grammar's metacharacters, control characters,
//! non-ASCII whitespace and multibyte letters, and lines of raw bytes or of
//! records with arbitrary bytes planted in them (invalid UTF-8 included),
//! go into `load_text` and into a `PgtSource` drained through
//! `ChunkedTextReader`. Each must return `Ok` or a named error and never
//! panic. Both run the same line parser, so on valid UTF-8 they must also
//! agree on what they accept and on the first parse error.
//!
//! CSV and JSONL: valid rows and lines with quotes, separators, escapes,
//! brackets, line breaks or arbitrary bytes planted in them, truncated, or
//! replaced by junk, are drained record by record through `read_record`
//! and through a `ChunkedTextReader` at chunk size 3. Neither drain may
//! panic, and both must stop at the same first `StreamError` or agree on
//! the records read.

use pg_hive_graph::loader::{load_text, LoadError};
use pg_hive_graph::stream::csv::CsvSource;
use pg_hive_graph::stream::jsonl::JsonlSource;
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::stream::read_all;
use pg_hive_graph::{ChunkedTextReader, RawGraphSource, RecordBuf, RecordRef, StreamError};
use proptest::prelude::*;
use proptest::TestCaseError;

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

/// Drain `bytes` through a chunked `PgtSource` with small chunks, so stubs
/// and parked forward edges are exercised too.
fn drain_chunked(bytes: &[u8]) -> Result<(), StreamError> {
    let mut reader = ChunkedTextReader::new(PgtSource::new(bytes), 3);
    while reader.next_chunk()?.is_some() {}
    Ok(())
}

/// Feed `bytes` to both consumers. On valid UTF-8: whatever `load_text`
/// accepts the stream accepts with the same element counts, and a parse
/// error `load_text` reports is the stream's first error, at the same line.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    let resident = load_text(&text);
    let chunked = drain_chunked(bytes);
    if std::str::from_utf8(bytes).is_err() {
        // Invalid UTF-8 stops the stream with a named error once reached.
        prop_assert!(
            matches!(chunked, Err(StreamError::Io(_) | StreamError::Parse { .. })),
            "{:?}",
            chunked
        );
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
        ) => match chunked {
            Err(StreamError::Parse { line: at, msg }) => {
                prop_assert_eq!(at, line as u64);
                prop_assert_eq!(msg, e.to_string());
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
        check_drains(drain_records(source()), drain_chunks(source()))?;
    }

    #[test]
    fn jsonl_survives_hostile_lines(
        lines in line_edits(JSONL_LINES.len(), 12, JSONL_PLANTS.len(), 0..10)
    ) {
        let bytes = edited(JSONL_LINES, JSONL_PLANTS, lines);
        let source = || JsonlSource::new(&bytes[..]);
        check_drains(drain_records(source()), drain_chunks(source()))?;
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

/// Drain `source` record by record: nodes and edges read, or the first
/// error.
fn drain_records<S: RawGraphSource>(mut source: S) -> Result<(usize, usize), StreamError> {
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

/// Drain `source` through a `ChunkedTextReader` at chunk size 3: declared
/// nodes and edges (emitted, or dropped as unresolved), or the first error.
fn drain_chunks<S: RawGraphSource>(source: S) -> Result<(usize, usize), StreamError> {
    let mut reader = ChunkedTextReader::new(source, 3);
    let (mut nodes, mut edges) = (0, 0);
    while let Some(chunk) = reader.next_chunk()? {
        nodes += chunk.node_count() - chunk.stub_count();
        edges += chunk.edge_count();
    }
    Ok((nodes, edges + reader.warnings().unresolved_edges as usize))
}

/// Two drains of one input agree on the records read or on the first error.
fn check_drains(
    records: Result<(usize, usize), StreamError>,
    chunks: Result<(usize, usize), StreamError>,
) -> Result<(), TestCaseError> {
    match (records, chunks) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
        (a, b) => prop_assert!(false, "record drain {:?}, chunked drain {:?}", a, b),
    }
    Ok(())
}
