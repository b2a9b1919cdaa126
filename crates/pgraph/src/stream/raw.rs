//! Zero-copy ingestion: borrowed record views over a reused line buffer.
//!
//! The owned [`Record`] allocates a `String` per field —
//! fine for tests and small inputs, but the streaming hot path parses
//! millions of records whose bytes are immediately interned and never
//! needed again. [`RawGraphSource`] is the allocation-free counterpart of
//! [`GraphSource`](super::GraphSource): the caller owns one [`RecordBuf`]
//! and the source parses each record **into** it, storing field *spans*
//! (byte ranges) over the buffer's backing text instead of owned strings.
//! Spans are index pairs, not pointers, so the backing `String` may grow
//! (reallocate) mid-record without invalidating earlier fields.
//!
//! [`RecordRef`] is the borrowed view handed to consumers; its
//! [`RecordRef::to_owned`] shim rebuilds the old owned `Record`, which is
//! how the compatibility [`GraphSource`](super::GraphSource) impls of the
//! pgt/CSV/JSONL sources keep every existing caller compiling. Conversely
//! [`OwnedSource`] adapts any owned-record source to the raw trait, so the
//! two paths stay interchangeable (and testable against each other).

use super::{Record, StreamError};
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

    /// Move the buffered record out as an owned [`Record`], draining the
    /// property values (strings are copied, values are moved).
    pub(crate) fn take_record(&mut self) -> Record {
        let text = &self.text;
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|&s| span_str(text, s).to_string())
            .collect();
        let props: Vec<(String, Value)> = self
            .props
            .drain(..)
            .map(|(k, v)| (span_str(text, k).to_string(), v))
            .collect();
        match self.kind {
            RecordKind::Node => Record::Node {
                id: self.str(self.id).to_string(),
                labels,
                props,
            },
            RecordKind::Edge => Record::Edge {
                src: self.str(self.id).to_string(),
                tgt: self.str(self.tgt).to_string(),
                labels,
                props,
            },
        }
    }

    /// Load an owned [`Record`] into the buffer (the [`OwnedSource`]
    /// adapter and the pending-edge replay path).
    pub(crate) fn load_owned(&mut self, rec: Record) {
        self.clear();
        match rec {
            Record::Node { id, labels, props } => {
                self.kind = RecordKind::Node;
                self.id = self.push_str(&id);
                for l in &labels {
                    let span = self.push_str(l);
                    self.labels.push(span);
                }
                for (k, v) in props {
                    let span = self.push_str(&k);
                    self.props.push((span, v));
                }
            }
            Record::Edge {
                src,
                tgt,
                labels,
                props,
            } => {
                self.kind = RecordKind::Edge;
                self.id = self.push_str(&src);
                self.tgt = self.push_str(&tgt);
                for l in &labels {
                    let span = self.push_str(l);
                    self.labels.push(span);
                }
                for (k, v) in props {
                    let span = self.push_str(&k);
                    self.props.push((span, v));
                }
            }
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

impl RecordRef<'_> {
    /// Rebuild the owned [`Record`] — the compatibility shim the existing
    /// `GraphSource` callers go through.
    pub fn to_owned(&self) -> Record {
        match self {
            RecordRef::Node { id, labels, props } => Record::Node {
                id: (*id).to_string(),
                labels: labels.iter().map(str::to_string).collect(),
                props: props
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            },
            RecordRef::Edge {
                src,
                tgt,
                labels,
                props,
            } => Record::Edge {
                src: (*src).to_string(),
                tgt: (*tgt).to_string(),
                labels: labels.iter().map(str::to_string).collect(),
                props: props
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            },
        }
    }
}

/// Allocation-free record parser: fills a caller-owned [`RecordBuf`]
/// instead of returning owned records. This is the trait the streaming hot
/// path ([`ChunkedTextReader`](super::ChunkedTextReader), the read-ahead
/// pipeline, the CLI) programs against; the owned
/// [`GraphSource`](super::GraphSource) remains as a compatibility shim.
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

/// Adapt any owned-record [`GraphSource`](super::GraphSource) to
/// [`RawGraphSource`] by loading each record into the buffer. Used by
/// consumers that accept custom sources, and by the equivalence tests that
/// pit the zero-copy parsers against the owned path.
pub struct OwnedSource<S>(pub S);

impl<S: super::GraphSource> RawGraphSource for OwnedSource<S> {
    fn read_record(&mut self, buf: &mut RecordBuf) -> Result<bool, StreamError> {
        match self.0.next_record()? {
            None => {
                buf.clear();
                Ok(false)
            }
            Some(rec) => {
                buf.load_owned(rec);
                Ok(true)
            }
        }
    }
    fn format_name(&self) -> &'static str {
        self.0.format_name()
    }
}

#[cfg(test)]
mod tests {
    use super::super::GraphSource;
    use super::*;

    struct TwoRecords(u8);
    impl GraphSource for TwoRecords {
        fn next_record(&mut self) -> Result<Option<Record>, StreamError> {
            self.0 += 1;
            Ok(match self.0 {
                1 => Some(Record::Node {
                    id: "a".into(),
                    labels: vec!["Person".into(), "Student".into()],
                    props: vec![("age".into(), Value::Int(30))],
                }),
                2 => Some(Record::Edge {
                    src: "a".into(),
                    tgt: "a".into(),
                    labels: vec!["SELF".into()],
                    props: vec![],
                }),
                _ => None,
            })
        }
        fn format_name(&self) -> &'static str {
            "test"
        }
    }

    #[test]
    fn owned_adapter_round_trips_records() {
        let mut src = OwnedSource(TwoRecords(0));
        let mut buf = RecordBuf::new();
        assert!(src.read_record(&mut buf).unwrap());
        match buf.view() {
            RecordRef::Node { id, labels, props } => {
                assert_eq!(id, "a");
                assert_eq!(labels.iter().collect::<Vec<_>>(), ["Person", "Student"]);
                let props: Vec<(&str, &Value)> = props.iter().collect();
                assert_eq!(props, vec![("age", &Value::Int(30))]);
            }
            other => panic!("expected node, got {other:?}"),
        }
        // to_owned rebuilds the original record exactly.
        assert_eq!(
            buf.view().to_owned(),
            Record::Node {
                id: "a".into(),
                labels: vec!["Person".into(), "Student".into()],
                props: vec![("age".into(), Value::Int(30))],
            }
        );
        assert!(src.read_record(&mut buf).unwrap());
        assert!(matches!(
            buf.view(),
            RecordRef::Edge {
                src: "a",
                tgt: "a",
                ..
            }
        ));
        assert!(!src.read_record(&mut buf).unwrap());
        assert_eq!(src.format_name(), "test");
    }

    /// Drain a CSV input through both parse paths: the zero-copy span
    /// parser (`RawGraphSource`) and the owned compatibility shim. The two
    /// must agree record-for-record — this is the span-level equality the
    /// quoting corner-case tests below assert.
    fn csv_both_paths(nodes: &str, edges: Option<&str>) -> (Vec<Record>, Vec<Record>) {
        use super::super::csv::CsvSource;
        use std::io::Cursor;
        let mut raw = CsvSource::new(
            Cursor::new(nodes.to_string()),
            edges.map(|e| Cursor::new(e.to_string())),
        );
        let mut buf = RecordBuf::new();
        let mut via_spans = Vec::new();
        while raw.read_record(&mut buf).unwrap() {
            via_spans.push(buf.view().to_owned());
        }
        let mut owned = OwnedSource(CsvSource::new(
            Cursor::new(nodes.to_string()),
            edges.map(|e| Cursor::new(e.to_string())),
        ));
        let mut via_owned = Vec::new();
        while owned.read_record(&mut buf).unwrap() {
            via_owned.push(buf.view().to_owned());
        }
        (via_spans, via_owned)
    }

    #[test]
    fn csv_quoted_embedded_crlf_is_preserved_and_span_equal() {
        // RFC 4180: a quoted field may span lines; the line break belongs
        // to the cell verbatim, including the `\r` of a CRLF terminator.
        let nodes = "id,labels,bio\r\na,Person,\"line one\r\nline two\"\r\n";
        let (spans, owned) = csv_both_paths(nodes, None);
        assert_eq!(spans, owned, "raw span path must match the owned path");
        assert_eq!(spans.len(), 1);
        match &spans[0] {
            Record::Node { id, props, .. } => {
                assert_eq!(id, "a");
                assert_eq!(
                    props,
                    &vec![("bio".to_string(), Value::from("line one\r\nline two"))],
                    "embedded CRLF inside quotes is part of the value"
                );
            }
            other => panic!("expected node, got {other:?}"),
        }
    }

    #[test]
    fn csv_trailing_empty_field_absent_unless_quoted() {
        // A row ending in a bare comma has an *absent* trailing cell;
        // a quoted-empty trailing cell is *present* with value "".
        let nodes = "id,labels,age,nick\na,Person,41,\nb,Person,42,\"\"\n";
        let (spans, owned) = csv_both_paths(nodes, None);
        assert_eq!(spans, owned, "raw span path must match the owned path");
        assert_eq!(spans.len(), 2);
        match &spans[0] {
            Record::Node { props, .. } => {
                assert_eq!(
                    props,
                    &vec![("age".to_string(), Value::Int(41))],
                    "unquoted trailing empty cell is an absent property"
                );
            }
            other => panic!("expected node, got {other:?}"),
        }
        match &spans[1] {
            Record::Node { props, .. } => {
                assert_eq!(
                    props,
                    &vec![
                        ("age".to_string(), Value::Int(42)),
                        ("nick".to_string(), Value::from("")),
                    ],
                    "quoted empty trailing cell is a present empty string"
                );
            }
            other => panic!("expected node, got {other:?}"),
        }
    }

    #[test]
    fn take_record_moves_values_and_resets_props() {
        let mut buf = RecordBuf::new();
        buf.load_owned(Record::Node {
            id: "n1".into(),
            labels: vec![],
            props: vec![("k".into(), Value::from("v"))],
        });
        let rec = buf.take_record();
        assert!(matches!(rec, Record::Node { ref id, ref props, .. }
            if id == "n1" && props.len() == 1));
        assert!(buf.props.is_empty(), "values drained out of the buffer");
    }
}
