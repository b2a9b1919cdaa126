//! Zero-copy ingestion: borrowed record views over a reused line buffer.
//!
//! The streaming hot path parses millions of records whose bytes are
//! immediately interned and never needed again, so no parser allocates a
//! `String` per field. Through [`RawGraphSource`] the caller owns one
//! [`RecordBuf`] and the source parses each record **into** it, storing
//! field *spans* (byte ranges) over the buffer's backing text instead of
//! owned strings. Spans are index pairs, not pointers, so the backing
//! `String` may grow (reallocate) mid-record without invalidating earlier
//! fields. [`RecordRef`] is the borrowed view handed to consumers.

use super::StreamError;
use crate::value::Value;

/// Byte range `(offset, len)` into [`RecordBuf`]'s backing text.
pub(crate) type Span = (u32, u32);

/// Whether the buffered record is a node or an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum RecordKind {
    #[default]
    Node,
    Edge,
}

/// A reusable record buffer: one backing `String` plus span tables for the
/// fields of the most recently parsed record. Allocations amortize to zero
/// once the buffer has grown to the largest record in the stream.
#[derive(Debug, Default)]
pub struct RecordBuf {
    /// Backing bytes: the raw input line, plus any decoded/copied field
    /// bytes appended behind it.
    pub(crate) text: String,
    pub(crate) kind: RecordKind,
    /// Node id, or edge source id.
    pub(crate) id: Span,
    /// Edge target id (unused for nodes).
    pub(crate) tgt: Span,
    pub(crate) labels: Vec<Span>,
    /// Property key spans with already-parsed values. Values are *owned*
    /// (parsing `age=42` yields `Value::Int` — only string values allocate,
    /// inside [`Value`] itself) and are moved out by the consumer.
    pub(crate) props: Vec<(Span, Value)>,
    /// Scratch the pgt parser percent-decodes a value into before parsing
    /// it; reused across values and records.
    pub(crate) decoded: String,
}

impl RecordBuf {
    /// Fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset for the next record, keeping every allocation.
    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.labels.clear();
        self.props.clear();
        self.id = (0, 0);
        self.tgt = (0, 0);
    }

    /// Resolve a span against the backing text.
    pub(crate) fn str(&self, span: Span) -> &str {
        &self.text[span.0 as usize..(span.0 + span.1) as usize]
    }

    /// Append `s` to the backing text, returning its span.
    pub(crate) fn push_str(&mut self, s: &str) -> Span {
        let start = self.text.len() as u32;
        self.text.push_str(s);
        (start, s.len() as u32)
    }

    /// Borrowed view of the buffered record.
    pub fn view(&self) -> RecordRef<'_> {
        match self.kind {
            RecordKind::Node => RecordRef::Node {
                id: self.str(self.id),
                labels: LabelsRef {
                    text: &self.text,
                    spans: &self.labels,
                },
                props: PropsRef {
                    text: &self.text,
                    spans: &self.props,
                },
            },
            RecordKind::Edge => RecordRef::Edge {
                src: self.str(self.id),
                tgt: self.str(self.tgt),
                labels: LabelsRef {
                    text: &self.text,
                    spans: &self.labels,
                },
                props: PropsRef {
                    text: &self.text,
                    spans: &self.props,
                },
            },
        }
    }
}

pub(crate) fn span_str(text: &str, span: Span) -> &str {
    &text[span.0 as usize..(span.0 + span.1) as usize]
}

/// Borrowed label list of a [`RecordBuf`] record.
#[derive(Debug, Clone, Copy)]
pub struct LabelsRef<'a> {
    text: &'a str,
    spans: &'a [Span],
}

impl<'a> LabelsRef<'a> {
    /// Number of labels.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the record has no labels.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterate the labels as `&str`.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> + Clone + '_ {
        self.spans.iter().map(|&s| span_str(self.text, s))
    }
}

/// Borrowed property list of a [`RecordBuf`] record.
#[derive(Debug)]
pub struct PropsRef<'a> {
    text: &'a str,
    spans: &'a [(Span, Value)],
}

impl<'a> PropsRef<'a> {
    /// Number of properties.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the record has no properties.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterate the properties as `(&str, &Value)`.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a Value)> + '_ {
        self.spans.iter().map(|(k, v)| (span_str(self.text, *k), v))
    }
}

/// Borrowed view of one parsed record: `&str` fields pointing into the
/// [`RecordBuf`] that parsed it.
#[derive(Debug)]
pub enum RecordRef<'a> {
    /// A node declaration.
    Node {
        /// Dataset-scoped node id.
        id: &'a str,
        /// The node's labels.
        labels: LabelsRef<'a>,
        /// The node's properties.
        props: PropsRef<'a>,
    },
    /// An edge between two node ids.
    Edge {
        /// Source node id.
        src: &'a str,
        /// Target node id.
        tgt: &'a str,
        /// The edge's labels.
        labels: LabelsRef<'a>,
        /// The edge's properties.
        props: PropsRef<'a>,
    },
}

/// Allocation-free record parser: fills a caller-owned [`RecordBuf`]
/// instead of returning owned records. The one record trait every consumer
/// programs against: the [`ChunkedTextReader`](super::ChunkedTextReader),
/// the read-ahead pipeline, the statistics fold, the schema validator and
/// the CLI.
///
/// ```
/// use pg_hive_graph::stream::pgt::PgtSource;
/// use pg_hive_graph::stream::raw::{RawGraphSource, RecordBuf, RecordRef};
///
/// let mut src = PgtSource::new("N a Person name=Ann\n".as_bytes());
/// let mut buf = RecordBuf::new();
/// assert!(src.read_record(&mut buf).unwrap());
/// match buf.view() {
///     RecordRef::Node { id, labels, props } => {
///         assert_eq!(id, "a");
///         assert_eq!(labels.iter().collect::<Vec<_>>(), ["Person"]);
///         assert_eq!(props.len(), 1);
///     }
///     _ => panic!("expected a node"),
/// }
/// assert!(!src.read_record(&mut buf).unwrap()); // end of stream
/// ```
pub trait RawGraphSource {
    /// Parse the next record into `buf`. Returns `Ok(false)` at end of
    /// stream (leaving `buf` cleared), `Ok(true)` when `buf` holds a
    /// record.
    fn read_record(&mut self, buf: &mut RecordBuf) -> Result<bool, StreamError>;

    /// Short format name for diagnostics (`"pgt"`, `"csv"`, `"jsonl"`).
    fn format_name(&self) -> &'static str;
}

impl<S: RawGraphSource + ?Sized> RawGraphSource for Box<S> {
    fn read_record(&mut self, buf: &mut RecordBuf) -> Result<bool, StreamError> {
        (**self).read_record(buf)
    }
    fn format_name(&self) -> &'static str {
        (**self).format_name()
    }
}

#[cfg(test)]
mod tests {
    use super::super::csv::CsvSource;
    use super::*;
    use std::io::Cursor;

    /// Drain a CSV input through the span parser, as `(id, props)` pairs.
    fn csv_nodes(nodes: &str) -> Vec<(String, Vec<(String, Value)>)> {
        let mut src = CsvSource::new(Cursor::new(nodes.to_string()), None);
        let mut buf = RecordBuf::new();
        let mut out = Vec::new();
        while src.read_record(&mut buf).unwrap() {
            let RecordRef::Node { id, props, .. } = buf.view() else {
                panic!("nodes.csv yields nodes only");
            };
            let props = props.iter().map(|(k, v)| (k.to_string(), v.clone()));
            out.push((id.to_string(), props.collect()));
        }
        out
    }

    #[test]
    fn csv_quoted_embedded_crlf_is_preserved_and_span_equal() {
        // RFC 4180: a quoted field may span lines; the line break belongs
        // to the cell verbatim, including the `\r` of a CRLF terminator.
        let nodes = "id,labels,bio\r\na,Person,\"line one\r\nline two\"\r\n";
        let rows = csv_nodes(nodes);
        assert_eq!(
            rows,
            vec![(
                "a".to_string(),
                vec![("bio".to_string(), Value::from("line one\r\nline two"))]
            )],
            "embedded CRLF inside quotes is part of the value"
        );
    }

    #[test]
    fn csv_trailing_empty_field_absent_unless_quoted() {
        // A row ending in a bare comma has an *absent* trailing cell;
        // a quoted-empty trailing cell is *present* with value "".
        let nodes = "id,labels,age,nick\na,Person,41,\nb,Person,42,\"\"\n";
        let rows = csv_nodes(nodes);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].1,
            vec![("age".to_string(), Value::Int(41))],
            "unquoted trailing empty cell is an absent property"
        );
        assert_eq!(
            rows[1].1,
            vec![
                ("age".to_string(), Value::Int(42)),
                ("nick".to_string(), Value::from("")),
            ],
            "quoted empty trailing cell is a present empty string"
        );
    }
}
