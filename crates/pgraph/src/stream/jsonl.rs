//! JSON-Lines ingestion and export: one node or edge object per line, the
//! shape of `neo4j-admin` / APOC style JSON dumps.
//!
//! # Format
//!
//! ```text
//! {"type":"node","id":"n0","labels":["Person"],"props":{"name":"Ann","age":30}}
//! {"type":"edge","src":"n0","tgt":"n1","labels":["KNOWS"],"props":{"since":2020}}
//! ```
//!
//! `labels` and `props` are optional (default empty). Property values may
//! be JSON numbers, booleans or strings; strings (and the raw text of
//! numbers) are re-parsed with [`Value::parse_lexical`], so `"1999-12-19"`
//! becomes a date and `"42"` an integer — identical typing semantics to the
//! `.pgt` and CSV loaders. `null` values mean *absent*; nested arrays or
//! objects are rejected.
//!
//! The vendored `serde` subset has no JSON support (this workspace builds
//! offline), so a minimal recursive-descent parser lives here.

use super::raw::{RawGraphSource, RecordBuf, RecordKind, Span};
use super::{GraphSource, Record, StreamError};
use crate::graph::PropertyGraph;
use crate::value::Value;
use std::io::BufRead;

/// Streaming source over a JSON-Lines dump.
///
/// Parses **zero-copy** through [`RawGraphSource`]: instead of building a
/// JSON value tree per line, the record fields pg-hive cares about are
/// decoded straight into the caller's [`RecordBuf`] and everything else is
/// skipped (syntax-checked but never materialized). The owned
/// [`GraphSource`] impl remains as a compatibility shim.
pub struct JsonlSource<R> {
    reader: R,
    line: u64,
    /// Reused physical-line scratch.
    linebuf: String,
    /// Reused object-key decode scratch.
    keybuf: String,
    /// Reused string-value decode scratch.
    valbuf: String,
    /// Scratch buffer backing the owned [`GraphSource`] shim only.
    shim: RecordBuf,
}

impl<R: BufRead> JsonlSource<R> {
    /// Source over any buffered reader.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            line: 0,
            linebuf: String::new(),
            keybuf: String::new(),
            valbuf: String::new(),
            shim: RecordBuf::new(),
        }
    }
}

impl<R: BufRead> RawGraphSource for JsonlSource<R> {
    fn read_record(&mut self, buf: &mut RecordBuf) -> Result<bool, StreamError> {
        loop {
            buf.clear();
            self.linebuf.clear();
            if self.reader.read_line(&mut self.linebuf)? == 0 {
                return Ok(false);
            }
            self.line += 1;
            let trimmed = self.linebuf.trim();
            if trimmed.is_empty() {
                continue;
            }
            return match parse_record_into(trimmed, buf, &mut self.keybuf, &mut self.valbuf) {
                Ok(()) => Ok(true),
                Err(msg) => Err(StreamError::Parse {
                    line: self.line,
                    msg,
                }),
            };
        }
    }

    fn format_name(&self) -> &'static str {
        "jsonl"
    }
}

impl<R: BufRead> GraphSource for JsonlSource<R> {
    fn next_record(&mut self) -> Result<Option<Record>, StreamError> {
        let mut buf = std::mem::take(&mut self.shim);
        let result = self.read_record(&mut buf);
        let rec = match result {
            Ok(true) => Some(buf.take_record()),
            Ok(false) => None,
            Err(e) => {
                self.shim = buf;
                return Err(e);
            }
        };
        self.shim = buf;
        Ok(rec)
    }

    fn format_name(&self) -> &'static str {
        "jsonl"
    }
}

/// Serialize a graph as JSON-Lines, the inverse of [`JsonlSource`] (node
/// ids are `n<index>` as in [`crate::loader::save_text`]).
pub fn save_jsonl(g: &PropertyGraph) -> String {
    let mut out = String::new();
    for (id, n) in g.nodes() {
        out.push_str(&format!("{{\"type\":\"node\",\"id\":\"n{}\"", id.0));
        push_labels(g, &mut out, &n.labels);
        push_props(g, &mut out, &n.props);
        out.push_str("}\n");
    }
    for (_, e) in g.edges() {
        out.push_str(&format!(
            "{{\"type\":\"edge\",\"src\":\"n{}\",\"tgt\":\"n{}\"",
            e.src.0, e.tgt.0
        ));
        push_labels(g, &mut out, &e.labels);
        push_props(g, &mut out, &e.props);
        out.push_str("}\n");
    }
    out
}

fn push_labels(g: &PropertyGraph, out: &mut String, labels: &[crate::Symbol]) {
    out.push_str(",\"labels\":[");
    for (i, &l) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(g.label_str(l)));
    }
    out.push(']');
}

fn push_props(g: &PropertyGraph, out: &mut String, props: &[(crate::Symbol, Value)]) {
    out.push_str(",\"props\":{");
    for (i, (k, v)) in props.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(g.key_str(*k)));
        out.push(':');
        match v {
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) if x.is_finite() => out.push_str(&v.lexical()),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Dates, timestamps, strings — and non-finite floats, which
            // JSON cannot represent as numbers — go through their lexical
            // form, which `parse_lexical` maps back to the same kind.
            _ => out.push_str(&json_string(&v.lexical())),
        }
    }
    out.push('}');
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Escape `s` for embedding in a JSON double-quoted string literal: quote,
/// backslash and control characters become escapes, everything else passes
/// through. The one escaper behind every hand-rolled JSON document in the
/// workspace (JSON-Lines export, drift and violation events, HTTP bodies).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `"type"` field of the line being parsed.
enum TypeField {
    Missing,
    NonString,
    Node,
    Edge,
    Other(String),
}

/// Known top-level record fields (anything else is skipped).
enum Field {
    Type,
    Id,
    Src,
    Tgt,
    Labels,
    Props,
    Other,
}

/// Parse one JSON-Lines record from `src` into `buf`.
///
/// Single streaming pass, no value tree: `id`/`src`/`tgt`, label strings
/// and property keys are decoded straight into `buf`'s backing text;
/// unknown fields (and later duplicates of known ones — first wins, as
/// before) are syntax-checked and discarded. Semantic errors (bad `labels`
/// shape, nested property values, unknown type) are *deferred* to the end
/// of the line and reported in the same precedence order as the old
/// tree-building parser: syntax > trailing text > `type` > `labels` >
/// `props` > missing id fields.
fn parse_record_into(
    src: &str,
    buf: &mut RecordBuf,
    key: &mut String,
    scratch: &mut String,
) -> Result<(), String> {
    let mut p = RawParser {
        chars: src.char_indices().peekable(),
        src,
    };
    p.skip_ws();
    if !matches!(p.chars.peek(), Some((_, '{'))) {
        // Not an object. Still run the syntax and trailing-text checks so
        // malformed lines keep their parser-level errors.
        p.skip_value(scratch)?;
        p.skip_ws();
        if let Some(&(i, c)) = p.chars.peek() {
            return Err(format!("trailing '{c}' at byte {i}"));
        }
        return Err("expected a JSON object per line".into());
    }

    let mut ty = TypeField::Missing;
    let mut id: Option<Span> = None;
    let mut src_span: Option<Span> = None;
    let mut tgt_span: Option<Span> = None;
    let (mut seen_type, mut seen_id, mut seen_src) = (false, false, false);
    let (mut seen_tgt, mut seen_labels, mut seen_props) = (false, false, false);
    let mut labels_err: Option<String> = None;
    let mut props_err: Option<String> = None;

    p.expect('{')?;
    p.skip_ws();
    if matches!(p.chars.peek(), Some((_, '}'))) {
        p.chars.next();
    } else {
        loop {
            p.skip_ws();
            key.clear();
            p.string_into(key)?;
            p.skip_ws();
            p.expect(':')?;
            p.skip_ws();
            let field = match key.as_str() {
                "type" if !seen_type => Field::Type,
                "id" if !seen_id => Field::Id,
                "src" if !seen_src => Field::Src,
                "tgt" if !seen_tgt => Field::Tgt,
                "labels" if !seen_labels => Field::Labels,
                "props" if !seen_props => Field::Props,
                _ => Field::Other,
            };
            match field {
                Field::Type => {
                    seen_type = true;
                    if matches!(p.chars.peek(), Some((_, '"'))) {
                        scratch.clear();
                        p.string_into(scratch)?;
                        ty = match scratch.as_str() {
                            "node" => TypeField::Node,
                            "edge" => TypeField::Edge,
                            other => TypeField::Other(other.to_string()),
                        };
                    } else {
                        p.skip_value(scratch)?;
                        ty = TypeField::NonString;
                    }
                }
                Field::Id => {
                    seen_id = true;
                    id = p.id_string(buf, scratch)?;
                }
                Field::Src => {
                    seen_src = true;
                    src_span = p.id_string(buf, scratch)?;
                }
                Field::Tgt => {
                    seen_tgt = true;
                    tgt_span = p.id_string(buf, scratch)?;
                }
                Field::Labels => {
                    seen_labels = true;
                    labels_err = p.labels_into(buf, scratch)?;
                }
                Field::Props => {
                    seen_props = true;
                    props_err = p.props_into(buf, key, scratch)?;
                }
                Field::Other => p.skip_value(scratch)?,
            }
            p.skip_ws();
            match p.chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                Some((i, c)) => return Err(format!("expected ',' or '}}', got '{c}' at byte {i}")),
                None => return Err("unterminated object".into()),
            }
        }
    }
    p.skip_ws();
    if let Some(&(i, c)) = p.chars.peek() {
        return Err(format!("trailing '{c}' at byte {i}"));
    }

    if matches!(ty, TypeField::Missing | TypeField::NonString) {
        return Err("missing string field \"type\"".into());
    }
    if let Some(m) = labels_err {
        return Err(m);
    }
    if let Some(m) = props_err {
        return Err(m);
    }
    match ty {
        TypeField::Node => {
            buf.kind = RecordKind::Node;
            buf.id = id.ok_or_else(|| "missing string field \"id\"".to_string())?;
        }
        TypeField::Edge => {
            buf.kind = RecordKind::Edge;
            buf.id = src_span.ok_or_else(|| "missing string field \"src\"".to_string())?;
            buf.tgt = tgt_span.ok_or_else(|| "missing string field \"tgt\"".to_string())?;
        }
        TypeField::Other(other) => return Err(format!("unknown record type \"{other}\"")),
        TypeField::Missing | TypeField::NonString => unreachable!(),
    }
    Ok(())
}

/// Streaming JSON scanner over one line. Same grammar and error messages
/// as the old tree parser, but strings decode into caller-provided buffers
/// and skipped values are never materialized.
struct RawParser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
}

enum Kw {
    True,
    False,
    Null,
}

impl<'a> RawParser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, ' ' | '\t' | '\n' | '\r'))) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected '{want}', got '{c}' at byte {i}")),
            None => Err(format!("expected '{want}', got end of input")),
        }
    }

    /// An id-position value: a non-empty string decodes into `buf`'s text
    /// and yields a span; anything else is skipped and yields `None` (the
    /// "missing string field" diagnosis happens at end of line).
    fn id_string(
        &mut self,
        buf: &mut RecordBuf,
        scratch: &mut String,
    ) -> Result<Option<Span>, String> {
        if matches!(self.chars.peek(), Some((_, '"'))) {
            let start = buf.text.len() as u32;
            self.string_into(&mut buf.text)?;
            let len = buf.text.len() as u32 - start;
            Ok((len > 0).then_some((start, len)))
        } else {
            self.skip_value(scratch)?;
            Ok(None)
        }
    }

    /// The `labels` value. Returns the deferred semantic error, if any.
    fn labels_into(
        &mut self,
        buf: &mut RecordBuf,
        scratch: &mut String,
    ) -> Result<Option<String>, String> {
        match self.chars.peek().copied() {
            Some((_, '[')) => {
                let mut err = None;
                self.chars.next();
                self.skip_ws();
                if matches!(self.chars.peek(), Some((_, ']'))) {
                    self.chars.next();
                    return Ok(err);
                }
                loop {
                    self.skip_ws();
                    if matches!(self.chars.peek(), Some((_, '"'))) {
                        let start = buf.text.len() as u32;
                        self.string_into(&mut buf.text)?;
                        buf.labels.push((start, buf.text.len() as u32 - start));
                    } else {
                        self.skip_value(scratch)?;
                        err.get_or_insert_with(|| "\"labels\" must hold strings".to_string());
                    }
                    self.skip_ws();
                    match self.chars.next() {
                        Some((_, ',')) => continue,
                        Some((_, ']')) => return Ok(err),
                        Some((i, c)) => {
                            return Err(format!("expected ',' or ']', got '{c}' at byte {i}"))
                        }
                        None => return Err("unterminated array".into()),
                    }
                }
            }
            Some((_, 'n')) => match self.keyword()? {
                Kw::Null => Ok(None),
                _ => Ok(Some("\"labels\" must be an array".into())),
            },
            _ => {
                self.skip_value(scratch)?;
                Ok(Some("\"labels\" must be an array".into()))
            }
        }
    }

    /// The `props` value: each pair's key decodes into `buf`'s text and
    /// its value parses to a [`Value`] (duplicate keys push both pairs,
    /// `null` means absent — both as before). Returns the deferred
    /// semantic error, if any.
    fn props_into(
        &mut self,
        buf: &mut RecordBuf,
        key: &mut String,
        scratch: &mut String,
    ) -> Result<Option<String>, String> {
        match self.chars.peek().copied() {
            Some((_, '{')) => {
                let mut err = None;
                self.chars.next();
                self.skip_ws();
                if matches!(self.chars.peek(), Some((_, '}'))) {
                    self.chars.next();
                    return Ok(err);
                }
                loop {
                    self.skip_ws();
                    key.clear();
                    self.string_into(key)?;
                    self.skip_ws();
                    self.expect(':')?;
                    self.skip_ws();
                    match self.chars.peek().copied() {
                        Some((_, '"')) => {
                            scratch.clear();
                            self.string_into(scratch)?;
                            let v = Value::parse_lexical(scratch);
                            let k = buf.push_str(key);
                            buf.props.push((k, v));
                        }
                        Some((_, c)) if c == '-' || c.is_ascii_digit() => {
                            let v = Value::parse_lexical(self.number_raw()?);
                            let k = buf.push_str(key);
                            buf.props.push((k, v));
                        }
                        Some((_, 't' | 'f' | 'n')) => match self.keyword()? {
                            Kw::True => {
                                let k = buf.push_str(key);
                                buf.props.push((k, Value::Bool(true)));
                            }
                            Kw::False => {
                                let k = buf.push_str(key);
                                buf.props.push((k, Value::Bool(false)));
                            }
                            Kw::Null => {}
                        },
                        Some((_, '{' | '[')) => {
                            self.skip_value(scratch)?;
                            err.get_or_insert_with(|| {
                                format!("property \"{key}\": nested arrays/objects unsupported")
                            });
                        }
                        Some((i, c)) => return Err(format!("unexpected '{c}' at byte {i}")),
                        None => return Err("unexpected end of input".into()),
                    }
                    self.skip_ws();
                    match self.chars.next() {
                        Some((_, ',')) => continue,
                        Some((_, '}')) => return Ok(err),
                        Some((i, c)) => {
                            return Err(format!("expected ',' or '}}', got '{c}' at byte {i}"))
                        }
                        None => return Err("unterminated object".into()),
                    }
                }
            }
            Some((_, 'n')) => match self.keyword()? {
                Kw::Null => Ok(None),
                _ => Ok(Some("\"props\" must be an object".into())),
            },
            _ => {
                self.skip_value(scratch)?;
                Ok(Some("\"props\" must be an object".into()))
            }
        }
    }

    /// Consume any JSON value, validating syntax without materializing it.
    fn skip_value(&mut self, scratch: &mut String) -> Result<(), String> {
        match self.chars.peek().copied() {
            Some((_, '{')) => {
                self.chars.next();
                self.skip_ws();
                if matches!(self.chars.peek(), Some((_, '}'))) {
                    self.chars.next();
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    scratch.clear();
                    self.string_into(scratch)?;
                    self.skip_ws();
                    self.expect(':')?;
                    self.skip_ws();
                    self.skip_value(scratch)?;
                    self.skip_ws();
                    match self.chars.next() {
                        Some((_, ',')) => continue,
                        Some((_, '}')) => return Ok(()),
                        Some((i, c)) => {
                            return Err(format!("expected ',' or '}}', got '{c}' at byte {i}"))
                        }
                        None => return Err("unterminated object".into()),
                    }
                }
            }
            Some((_, '[')) => {
                self.chars.next();
                self.skip_ws();
                if matches!(self.chars.peek(), Some((_, ']'))) {
                    self.chars.next();
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.skip_value(scratch)?;
                    self.skip_ws();
                    match self.chars.next() {
                        Some((_, ',')) => continue,
                        Some((_, ']')) => return Ok(()),
                        Some((i, c)) => {
                            return Err(format!("expected ',' or ']', got '{c}' at byte {i}"))
                        }
                        None => return Err("unterminated array".into()),
                    }
                }
            }
            Some((_, '"')) => {
                scratch.clear();
                self.string_into(scratch)
            }
            Some((_, 't' | 'f' | 'n')) => self.keyword().map(|_| ()),
            Some((_, c)) if c == '-' || c.is_ascii_digit() => self.number_raw().map(|_| ()),
            Some((i, c)) => Err(format!("unexpected '{c}' at byte {i}")),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Decode a JSON string (escapes, surrogate pairs) appending to `out`.
    fn string_into(&mut self, out: &mut String) -> Result<(), String> {
        self.expect('"')?;
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".into()),
                Some((_, '"')) => return Ok(()),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'b')) => out.push('\u{0008}'),
                    Some((_, 'f')) => out.push('\u{000C}'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'u')) => {
                        let hi = self.hex4()?;
                        let cp = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require \uXXXX low half.
                            if self.chars.next().map(|(_, c)| c) == Some('\\')
                                && self.chars.next().map(|(_, c)| c) == Some('u')
                            {
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00))
                            } else {
                                return Err("lone high surrogate".into());
                            }
                        } else {
                            hi
                        };
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                    }
                    Some((i, c)) => return Err(format!("bad escape '\\{c}' at byte {i}")),
                    None => return Err("unterminated escape".into()),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some((i, c)) = self.chars.next() else {
                return Err("unterminated \\u escape".into());
            };
            let d = c
                .to_digit(16)
                .ok_or_else(|| format!("bad hex digit '{c}' at byte {i}"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// Scan a number, returning its raw text (value typing is delegated to
    /// [`Value::parse_lexical`]).
    fn number_raw(&mut self) -> Result<&'a str, String> {
        let start = match self.chars.peek() {
            Some(&(i, _)) => i,
            None => return Err("unexpected end of input".into()),
        };
        let mut end = start;
        while let Some(&(i, c)) = self.chars.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        let raw = &self.src[start..end];
        // Validate through the float parser; the raw text is kept.
        raw.parse::<f64>()
            .map_err(|_| format!("bad number '{raw}'"))?;
        Ok(raw)
    }

    fn keyword(&mut self) -> Result<Kw, String> {
        let start = match self.chars.peek() {
            Some(&(i, _)) => i,
            None => return Err("unexpected end of input".into()),
        };
        let mut end = start;
        while let Some(&(i, c)) = self.chars.peek() {
            if c.is_ascii_alphabetic() {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        match &self.src[start..end] {
            "true" => Ok(Kw::True),
            "false" => Ok(Kw::False),
            "null" => Ok(Kw::Null),
            other => Err(format!("unknown keyword '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::read_all;
    use crate::{GraphBuilder, ValueKind};

    #[test]
    fn parses_node_and_edge_lines() {
        let text = r#"
{"type":"node","id":"a","labels":["Person"],"props":{"name":"Ann","age":30}}
{"type":"node","id":"b","labels":[],"props":{"bday":"1999-12-19","score":2.5}}
{"type":"edge","src":"a","tgt":"b","labels":["KNOWS"],"props":{"close":true,"gone":null}}
"#;
        let (g, warnings) = read_all(JsonlSource::new(text.as_bytes())).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let age = g.keys().get("age").unwrap();
        assert_eq!(g.nodes().next().unwrap().1.get(age), Some(&Value::Int(30)));
        let bday = g.keys().get("bday").unwrap();
        assert_eq!(
            g.nodes().nth(1).unwrap().1.get(bday).unwrap().kind(),
            ValueKind::Date
        );
        let (_, e) = g.edges().next().unwrap();
        let close = g.keys().get("close").unwrap();
        assert_eq!(e.get(close), Some(&Value::Bool(true)));
        assert!(g.keys().get("gone").is_none(), "null means absent");
    }

    #[test]
    fn jsonl_round_trip() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(
            &["Person"],
            &[
                ("name", Value::from("A \"quoted\" na\\me\nnewline")),
                ("age", Value::Int(30)),
                ("score", Value::Float(2.0)),
            ],
        );
        let o = b.add_node(&["Org"], &[("url", Value::from("x.com"))]);
        b.add_edge(a, o, &["WORKS_AT"], &[("from", Value::Int(2001))]);
        let g = b.finish();
        let text = save_jsonl(&g);
        let (back, warnings) = read_all(JsonlSource::new(text.as_bytes())).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(back.node_count(), 2);
        assert_eq!(back.edge_count(), 1);
        let name = back.keys().get("name").unwrap();
        assert_eq!(
            back.nodes().next().unwrap().1.get(name),
            Some(&Value::from("A \"quoted\" na\\me\nnewline"))
        );
        let score = back.keys().get("score").unwrap();
        assert_eq!(
            back.nodes().next().unwrap().1.get(score),
            Some(&Value::Float(2.0)),
            "the .0 marker keeps integral floats floats"
        );
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "not json",
            "[1,2]",
            "{\"type\":\"node\"}",
            "{\"type\":\"what\",\"id\":\"a\"}",
            "{\"type\":\"node\",\"id\":\"a\",\"props\":{\"x\":[1]}}",
            "{\"type\":\"node\",\"id\":\"a\"} trailing",
        ] {
            let err = read_all(JsonlSource::new(bad.as_bytes()));
            assert!(err.is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let text = "{\"type\":\"node\",\"id\":\"a\",\"props\":{\"s\":\"\\u00e9\\ud83d\\ude00\"}}\n";
        let (g, _) = read_all(JsonlSource::new(text.as_bytes())).unwrap();
        let s = g.keys().get("s").unwrap();
        assert_eq!(
            g.nodes().next().unwrap().1.get(s),
            Some(&Value::from("é😀"))
        );
    }
}
