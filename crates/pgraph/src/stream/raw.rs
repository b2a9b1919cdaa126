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
//!
//! # Parsed values or text values
//!
//! The buffer decides what becomes of a property value. A buffer from
//! [`RecordBuf::new`] parses each value inside the parse pass
//! (percent-decode, then [`Value::parse_lexical`]): the consumers that
//! store values take it, the graph builders (`load_text`, the chunked
//! reader, the read-ahead parse stage, carried edges). A buffer from
//! [`RecordBuf::text_values`] keeps each value as its text: the
//! consumers that only check values take it, the validator and the
//! statistics fold, and pay for a value only when they ask for its kind
//! or its [`Value`] ([`PropRef`]).

use super::StreamError;
use crate::loader::percent_decode;
use crate::value::{value_kind_via_lexical, Value, ValueKind};
use std::borrow::Cow;

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
///
/// [`RecordBuf::new`] parses property values as it reads them, for the
/// consumers that store them; [`RecordBuf::text_values`] keeps them as
/// text for the ones that only inspect some (see the
/// [module docs](self#parsed-values-or-text-values)).
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
    /// Property key spans with already-parsed values, filled by a buffer
    /// from [`Self::new`]. Values are *owned* (parsing `age=42` yields
    /// `Value::Int` — only string values allocate, inside [`Value`]
    /// itself) and are moved out by the consumer.
    pub(crate) props: Vec<(Span, Value)>,
    /// Property key spans with value-text spans, filled by a buffer from
    /// [`Self::text_values`].
    pub(crate) prop_texts: Vec<(Span, Span)>,
    /// Whether this buffer keeps values as text; fixed at construction.
    keep_text: bool,
    /// Whether the record's value texts are `%XX`-encoded (a pgt line);
    /// set by the parser, per record.
    pub(crate) percent_encoded: bool,
    /// Scratch a pgt value is percent-decoded into before it is parsed;
    /// reused across values and records.
    decoded: String,
}

impl RecordBuf {
    /// Fresh, empty buffer that parses every property value as it reads
    /// it: the buffer of every consumer that stores values.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh, empty buffer that keeps property values as text (pgt: still
    /// percent-encoded; CSV: the unescaped cell; JSONL: the unescaped
    /// string, number or literal). A value is decoded and parsed only when
    /// a consumer asks [`PropRef::kind`] or [`PropRef::value`].
    pub fn text_values() -> Self {
        Self {
            keep_text: true,
            ..Self::default()
        }
    }

    /// Reset for the next record, keeping every allocation.
    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.labels.clear();
        self.props.clear();
        self.prop_texts.clear();
        self.percent_encoded = false;
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

    /// Add the property `key` whose value text sits at `value`, both spans
    /// into the backing text. A parsing buffer parses the value now
    /// (percent-decoding it first when [`Self::percent_encoded`] is set);
    /// a text-values buffer keeps the span.
    pub(crate) fn push_prop(&mut self, key: Span, value: Span) {
        if self.keep_text {
            self.prop_texts.push((key, value));
            return;
        }
        let text = decode(
            span_str(&self.text, value),
            self.percent_encoded,
            &mut self.decoded,
        );
        self.props.push((key, Value::parse_lexical(text)));
    }

    /// Borrowed view of the buffered record.
    pub fn view(&self) -> RecordRef<'_> {
        let labels = LabelsRef {
            text: &self.text,
            spans: &self.labels,
        };
        let props = PropsRef {
            text: &self.text,
            parsed: &self.props,
            texts: &self.prop_texts,
            percent_encoded: self.percent_encoded,
        };
        match self.kind {
            RecordKind::Node => RecordRef::Node {
                id: self.str(self.id),
                labels,
                props,
            },
            RecordKind::Edge => RecordRef::Edge {
                src: self.str(self.id),
                tgt: self.str(self.tgt),
                labels,
                props,
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

/// Borrowed property list of a [`RecordBuf`] record: per property its
/// key, its [`ValueKind`] and, on demand, its [`Value`] ([`PropRef`]).
/// The values are parsed ones from a [`RecordBuf::new`] buffer, or text
/// from a [`RecordBuf::text_values`] one.
#[derive(Debug, Clone, Copy)]
pub struct PropsRef<'a> {
    text: &'a str,
    /// One of `parsed` and `texts` is empty, as the buffer's mode says.
    parsed: &'a [(Span, Value)],
    texts: &'a [(Span, Span)],
    percent_encoded: bool,
}

impl<'a> PropsRef<'a> {
    /// Number of properties.
    pub fn len(&self) -> usize {
        self.parsed.len() + self.texts.len()
    }

    /// True when the record has no properties.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the properties in record order.
    pub fn iter(&self) -> impl Iterator<Item = PropRef<'a>> + 'a {
        let (text, percent_encoded) = (self.text, self.percent_encoded);
        let parsed = self.parsed.iter().map(move |(k, v)| PropRef {
            key: span_str(text, *k),
            value: ValueRef::Parsed(v),
        });
        let texts = self.texts.iter().map(move |&(k, v)| PropRef {
            key: span_str(text, k),
            value: ValueRef::Text {
                text: span_str(text, v),
                percent_encoded,
            },
        });
        parsed.chain(texts)
    }
}

/// One property of a buffered record: its key, and its value as the
/// buffer holds it, parsed or as text.
#[derive(Debug, Clone, Copy)]
pub struct PropRef<'a> {
    key: &'a str,
    value: ValueRef<'a>,
}

#[derive(Debug, Clone, Copy)]
enum ValueRef<'a> {
    Parsed(&'a Value),
    /// The value's text, `%XX`-encoded when the record is a pgt line.
    Text {
        text: &'a str,
        percent_encoded: bool,
    },
}

impl<'a> PropRef<'a> {
    /// The property key.
    pub fn key(&self) -> &'a str {
        self.key
    }

    /// The value's kind through its lexical form (§4.4), exactly
    /// [`value_kind_via_lexical`] of [`Self::value`]. A text value is
    /// decoded into `scratch`, which is reused, and never built: its kind
    /// is the kind of its decoded text, because a value `parse_lexical`
    /// reads as non-string prints as a form of its own kind (a finite
    /// float keeps a fraction and no exponent, a date a four-digit year)
    /// and a string re-infers as STRING.
    pub fn kind(&self, scratch: &mut String) -> ValueKind {
        match self.value {
            ValueRef::Parsed(v) => value_kind_via_lexical(v, scratch),
            ValueRef::Text {
                text,
                percent_encoded,
            } => Value::lexical_kind(decode(text, percent_encoded, scratch)),
        }
    }

    /// The value: borrowed when the buffer parsed it, else parsed now from
    /// its text (percent-decoded, then [`Value::parse_lexical`]).
    pub fn value(&self) -> Cow<'a, Value> {
        match self.value {
            ValueRef::Parsed(v) => Cow::Borrowed(v),
            ValueRef::Text {
                text,
                percent_encoded,
            } => {
                let mut scratch = String::new();
                Cow::Owned(Value::parse_lexical(decode(
                    text,
                    percent_encoded,
                    &mut scratch,
                )))
            }
        }
    }
}

/// A value's text as `parse_lexical` reads it: `%XX` escapes decoded into
/// `scratch` when it is `percent_encoded`, else the text itself.
fn decode<'s>(text: &'s str, percent_encoded: bool, scratch: &'s mut String) -> &'s str {
    if percent_encoded {
        percent_decode(text, scratch)
    } else {
        text
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
/// The buffer, not the source, says whether values are parsed. The graph
/// builders (`load_text`, the chunked reader, the read-ahead parse stage,
/// carried edges) pass a [`RecordBuf::new`] buffer and get parsed values,
/// on the thread that reads the record. The validator and `stream_stats`
/// pass a [`RecordBuf::text_values`] buffer and read text: a value they
/// do not inspect is never decoded or parsed.
///
/// ```
/// use pg_hive_graph::stream::pgt::PgtSource;
/// use pg_hive_graph::stream::raw::{RawGraphSource, RecordBuf, RecordRef};
/// use pg_hive_graph::{Value, ValueKind};
///
/// let text = "N a Person name=Ann,age=%34%32\n";
/// let mut src = PgtSource::new(text.as_bytes());
/// let mut buf = RecordBuf::text_values();
/// assert!(src.read_record(&mut buf).unwrap());
/// match buf.view() {
///     RecordRef::Node { id, labels, props } => {
///         assert_eq!(id, "a");
///         assert_eq!(labels.iter().collect::<Vec<_>>(), ["Person"]);
///         let age = props.iter().nth(1).unwrap();
///         assert_eq!(age.key(), "age");
///         assert_eq!(age.kind(&mut String::new()), ValueKind::Integer);
///         assert_eq!(*age.value(), Value::Int(42));
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
            let props = props
                .iter()
                .map(|p| (p.key().to_string(), p.value().into_owned()));
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
