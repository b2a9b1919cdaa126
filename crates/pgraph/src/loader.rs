//! A small line-oriented text loader.
//!
//! The paper loads from Neo4j with a single Cypher query; examples in this
//! repository instead read a simple text format so they stay self-contained:
//!
//! ```text
//! # comment / blank lines ignored
//! N <id> <label;label|-> <key=value,key=value|->
//! E <srcId> <tgtId> <label;label|-> <key=value,...|->
//! ```
//!
//! `-` stands for "no labels" / "no properties". Values are parsed with
//! [`Value::parse_lexical`], so `age=42` becomes an integer and
//! `bday=1999-12-19` a date. Inside values, whitespace, comma, equals and
//! percent are written by [`save_text`] as the `%XX` escapes of their UTF-8
//! bytes and decoded on load. A string value therefore reloads with the
//! same characters, except that `parse_lexical` trims leading and trailing
//! whitespace (and a string that reads as another kind, such as `"42"`,
//! reloads as that kind). Label names must not contain `;` (the label-set
//! separator here and in the CSV exporter) or whitespace.
//!
//! One line parser serves [`load_text`] and the streaming
//! [`crate::stream::pgt::PgtSource`]: it records field spans over a reused
//! [`RecordBuf`] instead of allocating per field.

use crate::builder::GraphBuilder;
use crate::element::NodeId;
use crate::graph::PropertyGraph;
use crate::interner::Interner;
use crate::stream::raw::{span_str, RecordKind, Span};
use crate::stream::RecordBuf;
use crate::value::Value;
use std::fmt;

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// A line did not start with `N` or `E`.
    UnknownRecord {
        /// 1-based line number.
        line: usize,
    },
    /// Wrong number of fields for the record type.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Fields the record type requires.
        expected: usize,
    },
    /// An edge referenced an id never declared by an `N` line.
    UnknownNode {
        /// 1-based line number.
        line: usize,
        /// The undeclared node id.
        id: String,
    },
    /// A `key=value` pair had no `=`.
    BadProperty {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// The same node id was declared twice.
    DuplicateNode {
        /// 1-based line number.
        line: usize,
        /// The duplicated node id.
        id: String,
    },
}

impl LoadError {
    /// What is wrong with the line, without its number (which `Display`
    /// and [`crate::StreamError::Parse`] put in front).
    pub(crate) fn reason(&self) -> String {
        match self {
            LoadError::UnknownRecord { .. } => "record must start with 'N' or 'E'".into(),
            LoadError::Malformed { expected, .. } => format!("expected {expected} fields"),
            LoadError::UnknownNode { id, .. } => format!("unknown node id '{id}'"),
            LoadError::BadProperty { token, .. } => format!("bad property token '{token}'"),
            LoadError::DuplicateNode { id, .. } => format!("duplicate node id '{id}'"),
        }
    }
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (LoadError::UnknownRecord { line }
        | LoadError::Malformed { line, .. }
        | LoadError::UnknownNode { line, .. }
        | LoadError::BadProperty { line, .. }
        | LoadError::DuplicateNode { line, .. }) = self;
        write!(f, "line {line}: {}", self.reason())
    }
}

impl std::error::Error for LoadError {}

/// `N` needs 4 fields and `E` 5; a sixth makes either record malformed, so
/// the splitter never records more than six.
const MAX_FIELDS: usize = 6;

/// `char::is_whitespace` restricted to ASCII: 0x09–0x0D and 0x20. Unlike
/// `u8::is_ascii_whitespace` this includes VT (0x0B), so the byte split
/// agrees with `str::split_whitespace` on every ASCII line.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Record the whitespace-separated fields of `text` as spans, exactly as
/// `str::split_whitespace` splits it, stopping once `spans` is full.
/// Returns the number of fields recorded. An ASCII line splits over bytes;
/// a line with any non-ASCII byte keeps `split_whitespace`, so Unicode
/// whitespace such as U+00A0 or U+3000 still separates fields.
fn split_fields(text: &str, spans: &mut [Span; MAX_FIELDS]) -> usize {
    let base = text.as_ptr() as usize;
    let mut n = 0;
    let mut record = |field: &[u8]| {
        spans[n] = ((field.as_ptr() as usize - base) as u32, field.len() as u32);
        n += 1;
        n < MAX_FIELDS
    };
    if text.is_ascii() {
        for field in text.as_bytes().split(|&b| is_ascii_space(b)) {
            if !field.is_empty() && !record(field) {
                break;
            }
        }
    } else {
        for field in text.split_whitespace() {
            if !record(field.as_bytes()) {
                break;
            }
        }
    }
    n
}

/// Parse the `.pgt` line held in `buf.text` **in place**, recording field
/// spans instead of allocating owned strings. Returns `Ok(false)` for blank
/// lines and `#` comments. Every pgt consumer parses through here: the
/// resident [`load_text`] and the streaming
/// [`crate::stream::pgt::PgtSource`].
pub(crate) fn parse_line_into(line: usize, buf: &mut RecordBuf) -> Result<bool, LoadError> {
    let mut spans = [(0u32, 0u32); MAX_FIELDS];
    let n = split_fields(&buf.text, &mut spans);
    if n == 0 || buf.text.as_bytes()[spans[0].0 as usize] == b'#' {
        return Ok(false);
    }
    match (buf.str(spans[0]), n) {
        ("N", 4) => {
            buf.kind = RecordKind::Node;
            buf.id = spans[1];
            parse_labels_into(buf, spans[2]);
            parse_props_into(buf, spans[3], line)?;
            Ok(true)
        }
        ("E", 5) => {
            buf.kind = RecordKind::Edge;
            buf.id = spans[1];
            buf.tgt = spans[2];
            parse_labels_into(buf, spans[3]);
            parse_props_into(buf, spans[4], line)?;
            Ok(true)
        }
        ("N", _) => Err(LoadError::Malformed { line, expected: 4 }),
        ("E", _) => Err(LoadError::Malformed { line, expected: 5 }),
        _ => Err(LoadError::UnknownRecord { line }),
    }
}

fn parse_labels_into(buf: &mut RecordBuf, span: Span) {
    if buf.str(span) == "-" {
        return;
    }
    let text = &buf.text;
    let base = text.as_ptr() as usize;
    for part in span_str(text, span).split(';') {
        if part.is_empty() {
            continue;
        }
        buf.labels
            .push(((part.as_ptr() as usize - base) as u32, part.len() as u32));
    }
}

fn parse_props_into(buf: &mut RecordBuf, span: Span, line: usize) -> Result<(), LoadError> {
    if buf.str(span) == "-" {
        return Ok(());
    }
    let text = &buf.text;
    let base = text.as_ptr() as usize;
    for token in span_str(text, span).split(',') {
        if token.is_empty() {
            continue;
        }
        let Some((k, v)) = token.split_once('=') else {
            return Err(LoadError::BadProperty {
                line,
                token: token.to_string(),
            });
        };
        let key = ((k.as_ptr() as usize - base) as u32, k.len() as u32);
        let value = Value::parse_lexical(percent_decode(v, &mut buf.decoded));
        buf.props.push((key, value));
    }
    Ok(())
}

/// An `E` record parked until every `N` line has been read. Its text stays
/// in the input: `start..end` locates the line, and the spans are the ones
/// [`parse_line_into`] recorded relative to it. Its label spans and
/// moved property values are the next `labels` / `props` entries of the
/// loader's flat tables, which hold every parked edge in E-line order.
struct ParkedEdge {
    line: usize,
    start: usize,
    end: usize,
    src: Span,
    tgt: Span,
    labels: u32,
    props: u32,
}

/// Parse the text format into a [`PropertyGraph`].
///
/// `E` lines may reference node ids declared *later* in the file —
/// concatenated or re-ordered exports are common — so edges are parked
/// and added after the full pass. Node ids follow `N`-line order and edge
/// ids `E`-line order; labels and keys are interned nodes first, then
/// edges. Any parse error comes before any [`LoadError::UnknownNode`],
/// which is reserved for ids never declared by any `N` line: the first
/// such edge in `E`-line order is reported, its source before its target.
pub fn load_text(input: &str) -> Result<PropertyGraph, LoadError> {
    let mut b = GraphBuilder::new();
    let mut buf = RecordBuf::new();
    // Every `N` line interns a fresh id (a repeat is an error), so the
    // symbol of a node id is also its `NodeId`.
    let mut ids = Interner::new();
    let mut parked: Vec<ParkedEdge> = Vec::new();
    let mut parked_labels: Vec<Span> = Vec::new();
    let mut parked_props: Vec<(Span, Value)> = Vec::new();

    for (lineno, raw) in input.lines().enumerate() {
        let line = lineno + 1;
        buf.clear();
        buf.text.push_str(raw);
        if !parse_line_into(line, &mut buf)? {
            continue;
        }
        match buf.kind {
            RecordKind::Node => {
                let id = buf.str(buf.id);
                if ids.intern(id).index() < b.node_count() {
                    return Err(LoadError::DuplicateNode {
                        line,
                        id: id.to_string(),
                    });
                }
                b.add_node_from_buf(&mut buf);
            }
            RecordKind::Edge => {
                let start = raw.as_ptr() as usize - input.as_ptr() as usize;
                parked.push(ParkedEdge {
                    line,
                    start,
                    end: start + raw.len(),
                    src: buf.id,
                    tgt: buf.tgt,
                    labels: buf.labels.len() as u32,
                    props: buf.props.len() as u32,
                });
                parked_labels.extend_from_slice(&buf.labels);
                parked_props.append(&mut buf.props);
            }
        }
    }

    let mut labels = parked_labels.into_iter();
    let mut props = parked_props.into_iter();
    for e in parked {
        let text = &input[e.start..e.end];
        let node = |span: Span| {
            let id = span_str(text, span);
            ids.get(id)
                .map(|sym| NodeId(sym.0))
                .ok_or_else(|| LoadError::UnknownNode {
                    line: e.line,
                    id: id.to_string(),
                })
        };
        let (src, tgt) = (node(e.src)?, node(e.tgt)?);
        buf.clear();
        buf.text.push_str(text);
        buf.kind = RecordKind::Edge;
        buf.id = e.src;
        buf.tgt = e.tgt;
        buf.labels.extend(labels.by_ref().take(e.labels as usize));
        buf.props.extend(props.by_ref().take(e.props as usize));
        b.add_edge_from_buf(src, tgt, &mut buf);
    }
    Ok(b.finish())
}

/// Serialize a graph back to the text format, the inverse of [`load_text`]:
/// `load_text(&save_text(&g))` reproduces `g` up to node-id naming.
pub fn save_text(g: &PropertyGraph) -> String {
    let mut out = String::new();
    for (id, n) in g.nodes() {
        out.push_str(&format!(
            "N n{} {} {}\n",
            id.0,
            labels_field(g, &n.labels),
            props_field(g, &n.props)
        ));
    }
    for (_, e) in g.edges() {
        out.push_str(&format!(
            "E n{} n{} {} {}\n",
            e.src.0,
            e.tgt.0,
            labels_field(g, &e.labels),
            props_field(g, &e.props)
        ));
    }
    out
}

fn labels_field(g: &PropertyGraph, labels: &[crate::Symbol]) -> String {
    if labels.is_empty() {
        "-".to_string()
    } else {
        labels
            .iter()
            .map(|&l| g.label_str(l))
            .collect::<Vec<_>>()
            .join(";")
    }
}

fn props_field(g: &PropertyGraph, props: &[(crate::Symbol, Value)]) -> String {
    if props.is_empty() {
        "-".to_string()
    } else {
        props
            .iter()
            .map(|(k, v)| format!("{}={}", g.key_str(*k), percent_encode(&v.to_string())))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Encode the characters the line format reserves inside a value — any
/// whitespace (it splits fields and lines), comma (splits properties),
/// equals (splits key from value) and percent (the escape itself) — as the
/// `%XX` escapes of their UTF-8 bytes.
fn percent_encode(s: &str) -> String {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_whitespace() || matches!(c, ',' | '=' | '%') {
            for byte in c.encode_utf8(&mut [0; 4]).bytes() {
                out.push('%');
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xF)]));
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Decode `%XX` escapes. Consecutive escapes that spell a valid UTF-8
/// sequence decode to its char; any other escaped byte decodes to the char
/// of the same code point (`char::from(byte)`), as every escape did before
/// multibyte escapes were understood. A `%` not followed by two hex digits
/// is kept as is. Returns `s` itself when it has no `%` (the common case
/// for property values), else the decoded text, written into `out`.
pub(crate) fn percent_decode<'a>(s: &'a str, out: &'a mut String) -> &'a str {
    if !s.contains('%') {
        return s;
    }
    out.clear();
    let bytes = s.as_bytes();
    let escape_at = |i: usize| -> Option<u8> {
        if bytes.get(i) != Some(&b'%') {
            return None;
        }
        Some(hex_val(*bytes.get(i + 1)?)? * 16 + hex_val(*bytes.get(i + 2)?)?)
    };
    // `copied` is where the text not yet written to `out` begins; both it
    // and `i` only ever sit on ASCII bytes or the end, so slicing is safe.
    let (mut copied, mut i) = (0, 0);
    while let Some(off) = s[i..].find('%') {
        i += off;
        let Some(lead) = escape_at(i) else {
            i += 1;
            continue;
        };
        out.push_str(&s[copied..i]);
        let width = match lead {
            0xC2..=0xDF => 2,
            0xE0..=0xEF => 3,
            0xF0..=0xF4 => 4,
            _ => 1,
        };
        let mut seq = [lead, 0, 0, 0];
        let mut n = 1;
        while n < width {
            match escape_at(i + 3 * n) {
                Some(byte) => seq[n] = byte,
                None => break,
            }
            n += 1;
        }
        match std::str::from_utf8(&seq[..n]) {
            Ok(c) if n == width && width > 1 => {
                out.push_str(c);
                i += 3 * n;
            }
            _ => {
                out.push(char::from(lead));
                i += 3;
            }
        }
        copied = i;
    }
    out.push_str(&s[copied..]);
    out
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'A'..=b'F' => Some(b - b'A' + 10),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueKind;

    #[test]
    fn loads_small_graph() {
        let g = load_text(
            "# fig-1 fragment\n\
             N bob Person name=Bob,gender=male,bday=1980-05-02\n\
             N alice - name=Alice,gender=female,bday=1999-12-19\n\
             N org Org url=example.com,name=Example\n\
             E bob org WORKS_AT from=2000\n\
             E alice bob KNOWS -\n",
        )
        .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let (_, alice) = g.nodes().nth(1).unwrap();
        assert!(alice.is_unlabeled());
        let bday = g.keys().get("bday").unwrap();
        assert_eq!(alice.get(bday).unwrap().kind(), ValueKind::Date);
    }

    #[test]
    fn rejects_unknown_node() {
        // The first bad edge in E-line order wins, its source checked
        // before its target; line numbers count blank and comment lines.
        for (input, line, id) in [
            ("E a b KNOWS -", 1, "a"),
            ("E a ghost1 X -\nE ghost2 a X -\nN a - -\n", 1, "ghost1"),
            ("N a - -\nE a a X -\nE src tgt X -\n", 3, "src"),
            ("\r\n# c\r\nN a - -\r\n\r\nE a b X -\r\n", 5, "b"),
        ] {
            let want = LoadError::UnknownNode {
                line,
                id: id.into(),
            };
            assert_eq!(load_text(input).unwrap_err(), want, "{input:?}");
        }
    }

    #[test]
    fn forward_edge_references_resolve() {
        // Regression: an `E` line may reference a node declared later (a
        // concatenated or re-ordered export); the single-pass loader used
        // to fail this with UnknownNode.
        let g = load_text(
            "E a b KNOWS since=2020\n\
             N a Person name=Ann\n\
             E b a KNOWS -\n\
             N b Person name=Bob\n",
        )
        .unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
        let (_, e0) = g.edges().next().unwrap();
        // Edge ids follow E-line order: first edge is a -> b.
        assert_eq!((e0.src.0, e0.tgt.0), (0, 1));
        // Labels and keys are interned nodes first, then edges, even though
        // an edge line comes first; the parked edge keeps its value.
        let labels: Vec<&str> = g.labels().iter().map(|(_, s)| s).collect();
        assert_eq!(labels, ["Person", "KNOWS"]);
        let keys: Vec<&str> = g.keys().iter().map(|(_, s)| s).collect();
        assert_eq!(keys, ["name", "since"]);
        let since = g.keys().get("since").unwrap();
        assert_eq!(e0.get(since), Some(&Value::Int(2020)));
        // The error is kept for ids never declared anywhere.
        let err = load_text("N a - -\nE a ghost KNOWS -").unwrap_err();
        assert!(
            matches!(err, LoadError::UnknownNode { line: 2, ref id } if id == "ghost"),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            load_text("N onlyid").unwrap_err(),
            LoadError::Malformed { expected: 4, .. }
        ));
        assert!(matches!(
            load_text("X what is this").unwrap_err(),
            LoadError::UnknownRecord { line: 1 }
        ));
    }

    #[test]
    fn malformed_arity_reports_expected_field_counts() {
        // Regression for the allocation-free line parser: too few
        // AND too many fields must still report the record type's arity —
        // 4 for `N`, 5 for `E` — exactly as the Vec-collecting parser did.
        for (input, want) in [
            ("N onlyid", 4),
            ("N a -", 4),
            ("N a - - extra", 4),
            ("E a b", 5),
            ("E a b KNOWS", 5),
            ("E a b KNOWS - extra", 5),
        ] {
            match load_text(input).unwrap_err() {
                LoadError::Malformed { line: 1, expected } => {
                    assert_eq!(expected, want, "{input:?}")
                }
                other => panic!("{input:?}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_bad_property_token() {
        let err = load_text("N a Person nameBob").unwrap_err();
        assert!(matches!(err, LoadError::BadProperty { .. }));
    }

    #[test]
    fn rejects_duplicate_node_ids() {
        // Reported at the repeat's own line, counting blank and comment
        // lines, and in line order against parse errors.
        let dup = |line| LoadError::DuplicateNode {
            line,
            id: "a".into(),
        };
        for (input, want) in [
            ("N a - -\nN a - -", dup(2)),
            ("# c\n\nN a - -\n\n# x\nN a - -\n", dup(6)),
            ("N a - -\nN a - -\nX bad\n", dup(2)),
            (
                "N a - -\nX bad\nN a - -\n",
                LoadError::UnknownRecord { line: 2 },
            ),
        ] {
            assert_eq!(load_text(input).unwrap_err(), want, "{input:?}");
        }
    }

    #[test]
    fn multi_labels_split_on_semicolon() {
        let g = load_text("N a Person;Student -").unwrap();
        let (_, n) = g.nodes().next().unwrap();
        assert_eq!(g.label_set_str(&n.labels), "{Person, Student}");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g = load_text("\n# hi\n  \nN a - -\n").unwrap();
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn save_load_round_trip() {
        let original = load_text(
            "N bob Person;Human name=Bob,age=45,bday=1980-05-02\n\
             N anon - score=2.5\n\
             N org Org url=example.com\n\
             E bob org WORKS_AT from=2000,active=true\n\
             E anon bob KNOWS -\n",
        )
        .unwrap();
        let text = save_text(&original);
        let reloaded = load_text(&text).unwrap();
        assert_eq!(reloaded.node_count(), original.node_count());
        assert_eq!(reloaded.edge_count(), original.edge_count());
        for ((_, a), (_, b)) in original.nodes().zip(reloaded.nodes()) {
            let la: Vec<&str> = a.labels.iter().map(|&l| original.label_str(l)).collect();
            let lb: Vec<&str> = b.labels.iter().map(|&l| reloaded.label_str(l)).collect();
            assert_eq!(la, lb);
            assert_eq!(a.props.len(), b.props.len());
            for ((ka, va), (kb, vb)) in a.props.iter().zip(&b.props) {
                assert_eq!(original.key_str(*ka), reloaded.key_str(*kb));
                assert_eq!(va.kind(), vb.kind(), "value kind preserved");
                assert_eq!(va.lexical(), vb.lexical());
            }
        }
        for ((_, a), (_, b)) in original.edges().zip(reloaded.edges()) {
            assert_eq!(a.src.0, b.src.0);
            assert_eq!(a.tgt.0, b.tgt.0);
        }
    }

    #[test]
    fn save_empty_graph() {
        assert_eq!(save_text(&PropertyGraph::new()), "");
    }

    #[test]
    fn values_with_reserved_characters_round_trip() {
        for text in [
            "graph schema, node=edge 100%",
            "tab\there",
            "cr\rhere",
            "nbsp\u{a0}here",
            "ideo\u{3000}space",
            "line one\nline two",
        ] {
            let mut b = GraphBuilder::new();
            b.add_node(
                &["Doc"],
                &[("text", Value::from(text)), ("clean", Value::Int(7))],
            );
            let original = b.finish();
            let reloaded = load_text(&save_text(&original)).unwrap();
            let (_, n) = reloaded.nodes().next().unwrap();
            let key = reloaded.keys().get("text").unwrap();
            assert_eq!(n.get(key), Some(&Value::from(text)), "{text:?}");
        }
    }

    #[test]
    fn percent_encoding_escapes_utf8_bytes_and_stays_compatible() {
        assert_eq!(percent_encode("a b,c=d%"), "a%20b%2Cc%3Dd%25");
        assert_eq!(percent_encode("x\u{a0}y"), "x%C2%A0y");
        assert_eq!(percent_encode("é"), "é", "only reserved chars are escaped");
        let mut out = String::new();
        assert_eq!(percent_decode("%C3%A9", &mut out), "é");
        assert_eq!(percent_decode("%E3%80%80", &mut out), "\u{3000}");
        // Bytes outside a valid sequence keep their one-byte decoding.
        assert_eq!(percent_decode("%C3", &mut out), "\u{c3}");
        assert_eq!(percent_decode("%C3%41", &mut out), "\u{c3}A");
        assert_eq!(percent_decode("%E3%80x", &mut out), "\u{e3}\u{80}x");
        assert_eq!(percent_decode("%FF%A9", &mut out), "\u{ff}\u{a9}");
        assert_eq!(percent_decode("%ED%A0%80", &mut out), "\u{ed}\u{a0}\u{80}");
    }

    #[test]
    fn percent_decode_tolerates_bare_percent() {
        let mut out = String::new();
        assert_eq!(percent_decode("50%", &mut out), "50%");
        assert_eq!(
            percent_decode("a%2Gb", &mut out),
            "a%2Gb",
            "invalid hex left as-is"
        );
        assert_eq!(percent_decode("%20", &mut out), " ");
        assert_eq!(percent_decode("a%2", &mut out), "a%2", "truncated escape");
        assert_eq!(percent_decode("%%41", &mut out), "%A");
        assert_eq!(percent_decode("é%20é", &mut out), "é é");
    }

    /// The fields `split_fields` records for `line`, as strings.
    fn fields(line: &str) -> Vec<String> {
        let mut spans = [(0u32, 0u32); MAX_FIELDS];
        let n = split_fields(line, &mut spans);
        spans[..n]
            .iter()
            .map(|&s| span_str(line, s).to_string())
            .collect()
    }

    #[test]
    fn field_split_matches_split_whitespace() {
        for line in [
            "N a Person -",
            "N\x0Ba\x0BPerson\x0B-",
            "N\x0Ca\tPerson\r-\n",
            "N\u{a0}a\u{a0}Person\u{a0}-",
            "N\u{3000}a\u{3000}Person\u{3000}-",
            "E a\u{85}b X -",
            "  N é  Person;Ünï name=日本 ",
            "N a b c d e f g h",
            "",
            " \t\x0B ",
        ] {
            let want: Vec<String> = line
                .split_whitespace()
                .take(MAX_FIELDS)
                .map(str::to_string)
                .collect();
            assert_eq!(fields(line), want, "{line:?}");
        }
        // The splits above are what the loader sees: VT, U+00A0 and U+3000
        // all separate fields.
        for sep in ["\x0B", "\u{a0}", "\u{3000}"] {
            let g = load_text(&["N", "a", "Person", "k=v"].join(sep)).unwrap();
            assert_eq!(g.node_count(), 1, "{sep:?}");
            assert_eq!(g.label_str(g.node(NodeId(0)).labels[0]), "Person");
        }
    }

    #[test]
    fn parse_errors_come_before_unknown_nodes() {
        // The dangling edge on line 1 is never reported: a parse error
        // anywhere in the file wins.
        let err = load_text("E a ghost X -\nN a - -\nN b - - extra\n").unwrap_err();
        assert_eq!(
            err,
            LoadError::Malformed {
                line: 3,
                expected: 4
            }
        );
        let err = load_text("E a ghost X -\nN a - k=v,oops\n").unwrap_err();
        assert!(
            matches!(err, LoadError::BadProperty { line: 2, ref token } if token == "oops"),
            "{err:?}"
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = LoadError::UnknownNode {
            line: 3,
            id: "z".into(),
        };
        assert_eq!(e.to_string(), "line 3: unknown node id 'z'");
    }
}
