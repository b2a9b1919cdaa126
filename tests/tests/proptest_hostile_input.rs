//! Hostile input for the pgt parser. Strings over the grammar's
//! metacharacters, control characters, non-ASCII whitespace and multibyte
//! letters, and lines of raw bytes or of records with arbitrary bytes
//! planted in them (invalid UTF-8 included), go into `load_text` and into
//! a `PgtSource` drained through `ChunkedTextReader`. Each must return `Ok`
//! or a named error and never panic. Both run the same line parser, so on
//! valid UTF-8 they must also agree on what they accept and on the first
//! parse error.

use pg_hive_graph::loader::{load_text, LoadError};
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::stream::read_all;
use pg_hive_graph::{ChunkedTextReader, StreamError};
use proptest::prelude::*;
use proptest::TestCaseError;

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
    fn pgt_survives_hostile_bytes(
        lines in proptest::collection::vec((
            0usize..RECORDS.len(),
            0u8..4,
            0usize..64,
            any::<u8>(),
            0usize..PLANTS.len() * 2,
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..16)),
        ), 0..10)
    ) {
        let mut bytes = Vec::new();
        for (record, edit, at, raw, plant, (crlf, junk)) in lines {
            let mut line = RECORDS[record].to_vec();
            // Half the planted bytes are arbitrary, half come from PLANTS.
            let byte = PLANTS.get(plant).copied().unwrap_or(raw);
            match edit {
                1 => line.insert(at % (line.len() + 1), byte),
                2 if !line.is_empty() => {
                    let i = at % line.len();
                    line[i] = byte;
                }
                3 => line = junk,
                _ => {}
            }
            line.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
            bytes.extend_from_slice(&line);
        }
        check(&bytes)?;
    }
}
