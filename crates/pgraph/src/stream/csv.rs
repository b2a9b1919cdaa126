//! CSV ingestion and export: `nodes.csv` + `edges.csv`, the flat-export
//! shape most schema-profiling systems assume (DiScala/Abadi-style
//! relational extraction works from exactly such dumps).
//!
//! # Format
//!
//! `nodes.csv` header: `id,labels,<key>,<key>,...` — `id` and `labels`
//! are required leading columns; every further column names a property
//! key. `edges.csv` header: `src,tgt,labels,<key>,...`.
//!
//! - the `labels` cell holds `;`-separated labels (empty = unlabeled);
//!   label *names* therefore must not contain `;` — the same restriction
//!   the `.pgt` format imposes;
//! - an *unquoted* empty property cell means *absent* (this is what
//!   creates multiple patterns per type, Def. 3.5); a quoted empty cell
//!   (`""`) is a present empty-string value;
//! - values are parsed with [`Value::parse_lexical`], so `42` becomes an
//!   integer and `1999-12-19` a date, exactly like the `.pgt` loader;
//! - RFC 4180 quoting: cells containing `,`, `"`, or newlines are wrapped
//!   in double quotes with inner quotes doubled (quoted cells may span
//!   physical lines).

use super::raw::{RawGraphSource, RecordBuf, RecordKind, Span};
use super::{read_line, StreamError};
use crate::graph::PropertyGraph;
use crate::value::Value;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Name of the node file inside a CSV dataset directory.
pub const NODES_FILE: &str = "nodes.csv";
/// Name of the (optional) edge file inside a CSV dataset directory.
pub const EDGES_FILE: &str = "edges.csv";

/// Streaming source over a `nodes.csv` + `edges.csv` pair. Nodes are
/// yielded first, then edges; the edge half is optional.
pub struct CsvSource<R> {
    nodes: CsvHalf<R>,
    edges: Option<CsvHalf<R>>,
    in_edges: bool,
}

struct CsvHalf<R> {
    reader: R,
    line: u64,
    /// Property-key columns after the fixed leading columns.
    keys: Option<Vec<String>>,
    fixed: usize,
    /// Reused physical-line scratch for the zero-copy row reader.
    linebuf: String,
    /// Cell spans of the current row (into the caller's `RecordBuf` text),
    /// with the RFC 4180 `quoted` flag distinguishing `""` from absent.
    cells: Vec<(Span, bool)>,
}

impl CsvSource<BufReader<File>> {
    /// Open `<dir>/nodes.csv` (required) and `<dir>/edges.csv` (optional).
    pub fn open_dir(dir: &Path) -> Result<Self, StreamError> {
        let nodes = BufReader::with_capacity(1 << 20, File::open(dir.join(NODES_FILE))?);
        let edges_path = dir.join(EDGES_FILE);
        let edges = if edges_path.exists() {
            Some(BufReader::with_capacity(1 << 20, File::open(edges_path)?))
        } else {
            None
        };
        Ok(Self::new(nodes, edges))
    }
}

impl<R: BufRead> CsvSource<R> {
    /// Source over in-memory or file readers; `edges` may be `None`.
    pub fn new(nodes: R, edges: Option<R>) -> Self {
        Self {
            nodes: CsvHalf {
                reader: nodes,
                line: 0,
                keys: None,
                fixed: 2,
                linebuf: String::new(),
                cells: Vec::new(),
            },
            edges: edges.map(|reader| CsvHalf {
                reader,
                line: 0,
                keys: None,
                fixed: 3,
                linebuf: String::new(),
                cells: Vec::new(),
            }),
            in_edges: false,
        }
    }
}

impl<R: BufRead> CsvHalf<R> {
    /// Read the header once, checking the fixed leading columns.
    fn ensure_header(&mut self, expect: &[&str]) -> Result<bool, StreamError> {
        if self.keys.is_some() {
            return Ok(true);
        }
        let Some(header) = read_csv_record(&mut self.reader, &mut self.line)? else {
            return Ok(false); // empty file: no records
        };
        if header.len() < expect.len()
            || header[..expect.len()]
                .iter()
                .zip(expect)
                .any(|(got, want)| got != want)
        {
            return Err(StreamError::Parse {
                line: self.line,
                msg: format!(
                    "csv header must start with {}, got {:?}",
                    expect.join(","),
                    header
                ),
            });
        }
        self.keys = Some(header[expect.len()..].to_vec());
        Ok(true)
    }

    /// Next data row, decoded **into** `buf.text` with cell spans recorded
    /// in `self.cells`. Returns `Ok(false)` at end of file.
    fn next_row_raw(&mut self, buf: &mut RecordBuf) -> Result<bool, StreamError> {
        let keys_len = self.keys.as_ref().expect("header read first").len();
        loop {
            self.cells.clear();
            let mark = buf.text.len();
            if !read_csv_record_raw(
                &mut self.reader,
                &mut self.line,
                &mut self.linebuf,
                &mut buf.text,
                &mut self.cells,
            )? {
                return Ok(false);
            }
            // Skip blank rows.
            if self
                .cells
                .iter()
                .all(|&((_, len), quoted)| len == 0 && !quoted)
            {
                buf.text.truncate(mark);
                continue;
            }
            if self.cells.len() > self.fixed + keys_len {
                return Err(StreamError::Parse {
                    line: self.line,
                    msg: format!(
                        "row has {} cells, header declared {}",
                        self.cells.len(),
                        self.fixed + keys_len
                    ),
                });
            }
            return Ok(true);
        }
    }

    /// Span of the `i`-th cell; missing trailing cells read as empty
    /// (short rows are tolerated, matching the owned path's `resize`).
    fn cell(&self, i: usize) -> Span {
        self.cells.get(i).map_or((0, 0), |&(span, _)| span)
    }

    /// Fill `buf.labels` and `buf.props` from the current row's cells.
    fn fill_buf(&self, buf: &mut RecordBuf, labels_cell: usize) {
        let text = &buf.text;
        let base = text.as_ptr() as usize;
        let (off, len) = self.cell(labels_cell);
        for part in text[off as usize..(off + len) as usize].split(';') {
            if part.is_empty() {
                continue;
            }
            buf.labels
                .push(((part.as_ptr() as usize - base) as u32, part.len() as u32));
        }
        let keys = self.keys.as_ref().expect("header read first");
        for (k, &((off, len), quoted)) in keys.iter().zip(self.cells.iter().skip(self.fixed)) {
            // An unquoted empty cell is an absent property; a quoted
            // empty cell ("") is a present empty string.
            if len == 0 && !quoted {
                continue;
            }
            let value = Value::parse_lexical(&buf.text[off as usize..(off + len) as usize]);
            let key = buf.push_str(k);
            buf.props.push((key, value));
        }
    }
}

impl<R: BufRead> RawGraphSource for CsvSource<R> {
    fn read_record(&mut self, buf: &mut RecordBuf) -> Result<bool, StreamError> {
        buf.clear();
        if !self.in_edges {
            if self.nodes.ensure_header(&["id", "labels"])? && self.nodes.next_row_raw(buf)? {
                let id = self.nodes.cell(0);
                if id.1 == 0 {
                    return Err(StreamError::Parse {
                        line: self.nodes.line,
                        msg: "node row with empty id".into(),
                    });
                }
                buf.kind = RecordKind::Node;
                buf.id = id;
                self.nodes.fill_buf(buf, 1);
                return Ok(true);
            }
            self.in_edges = true;
        }
        let Some(edges) = self.edges.as_mut() else {
            return Ok(false);
        };
        if !edges.ensure_header(&["src", "tgt", "labels"])? {
            return Ok(false);
        }
        if !edges.next_row_raw(buf)? {
            return Ok(false);
        }
        let (src, tgt) = (edges.cell(0), edges.cell(1));
        if src.1 == 0 || tgt.1 == 0 {
            return Err(StreamError::Parse {
                line: edges.line,
                msg: "edge row with empty src/tgt".into(),
            });
        }
        buf.kind = RecordKind::Edge;
        buf.id = src;
        buf.tgt = tgt;
        edges.fill_buf(buf, 2);
        Ok(true)
    }

    fn format_name(&self) -> &'static str {
        "csv"
    }
}

/// Read one owned (possibly multi-line, RFC 4180 quoted) CSV record — used
/// only for the once-per-file header row; data rows go through the
/// zero-copy [`read_csv_record_raw`].
fn read_csv_record<R: BufRead>(
    r: &mut R,
    line: &mut u64,
) -> Result<Option<Vec<String>>, StreamError> {
    let mut text = String::new();
    let mut cells: Vec<(Span, bool)> = Vec::new();
    let mut linebuf = String::new();
    if !read_csv_record_raw(r, line, &mut linebuf, &mut text, &mut cells)? {
        return Ok(None);
    }
    Ok(Some(
        cells
            .into_iter()
            .map(|((off, len), _)| text[off as usize..(off + len) as usize].to_string())
            .collect(),
    ))
}

/// Zero-copy counterpart of [`read_csv_record`]: decodes cell text straight
/// into `text` (a [`RecordBuf`]'s backing string) and records `(span,
/// quoted)` pairs in `cells`. Only `linebuf` is refilled per physical line;
/// steady-state reading performs no allocations.
fn read_csv_record_raw<R: BufRead>(
    r: &mut R,
    line: &mut u64,
    linebuf: &mut String,
    text: &mut String,
    cells: &mut Vec<(Span, bool)>,
) -> Result<bool, StreamError> {
    let mut start = text.len() as u32;
    let mut cur_quoted = false;
    let mut in_quotes = false;
    let mut started = false;
    loop {
        linebuf.clear();
        if read_line(r, linebuf, *line + 1)? == 0 {
            if !started {
                return Ok(false);
            }
            if in_quotes {
                return Err(StreamError::Parse {
                    line: *line,
                    msg: "unterminated quoted csv field".into(),
                });
            }
            cells.push(((start, text.len() as u32 - start), cur_quoted));
            return Ok(true);
        }
        *line += 1;
        started = true;
        let mut chars = linebuf.chars().peekable();
        while let Some(c) = chars.next() {
            if in_quotes {
                if c == '"' {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        text.push('"');
                    } else {
                        in_quotes = false;
                    }
                } else {
                    text.push(c);
                }
            } else {
                match c {
                    ',' => {
                        cells.push(((start, text.len() as u32 - start), cur_quoted));
                        start = text.len() as u32;
                        cur_quoted = false;
                    }
                    '"' => {
                        in_quotes = true;
                        cur_quoted = true;
                    }
                    '\r' | '\n' => {}
                    other => text.push(other),
                }
            }
        }
        if !in_quotes {
            cells.push(((start, text.len() as u32 - start), cur_quoted));
            return Ok(true);
        }
        // Quoted field spans the line break; keep reading physical lines.
    }
}

/// Quote a cell per RFC 4180 when it contains a reserved character.
fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        s.to_string()
    }
}

/// Serialize the node side of a graph as `nodes.csv` (inverse of the node
/// half of [`CsvSource`]; node ids are `n<index>` as in
/// [`crate::loader::save_text`]).
pub fn save_nodes_csv(g: &PropertyGraph) -> String {
    let keys = sorted_keys(g, true);
    let mut out = String::from("id,labels");
    for k in &keys {
        out.push(',');
        out.push_str(&csv_escape(k));
    }
    out.push('\n');
    for (id, n) in g.nodes() {
        out.push_str(&format!("n{}", id.0));
        out.push(',');
        out.push_str(&csv_escape(&labels_cell(g, &n.labels)));
        push_prop_cells(g, &mut out, &keys, &n.props);
        out.push('\n');
    }
    out
}

/// Serialize the edge side of a graph as `edges.csv`.
pub fn save_edges_csv(g: &PropertyGraph) -> String {
    let keys = sorted_keys(g, false);
    let mut out = String::from("src,tgt,labels");
    for k in &keys {
        out.push(',');
        out.push_str(&csv_escape(k));
    }
    out.push('\n');
    for (_, e) in g.edges() {
        out.push_str(&format!("n{},n{}", e.src.0, e.tgt.0));
        out.push(',');
        out.push_str(&csv_escape(&labels_cell(g, &e.labels)));
        push_prop_cells(g, &mut out, &keys, &e.props);
        out.push('\n');
    }
    out
}

fn sorted_keys(g: &PropertyGraph, nodes: bool) -> Vec<String> {
    let mut keys: std::collections::BTreeSet<String> = Default::default();
    if nodes {
        for (_, n) in g.nodes() {
            for k in n.keys() {
                keys.insert(g.key_str(k).to_string());
            }
        }
    } else {
        for (_, e) in g.edges() {
            for k in e.keys() {
                keys.insert(g.key_str(k).to_string());
            }
        }
    }
    keys.into_iter().collect()
}

fn labels_cell(g: &PropertyGraph, labels: &[crate::Symbol]) -> String {
    labels
        .iter()
        .map(|&l| g.label_str(l))
        .collect::<Vec<_>>()
        .join(";")
}

fn push_prop_cells(
    g: &PropertyGraph,
    out: &mut String,
    keys: &[String],
    props: &[(crate::Symbol, Value)],
) {
    for k in keys {
        out.push(',');
        if let Some(sym) = g.keys().get(k) {
            if let Some((_, v)) = props.iter().find(|(ks, _)| *ks == sym) {
                let lex = v.lexical();
                if lex.is_empty() {
                    // Quoted empty = present empty string; a bare empty
                    // cell would read back as absent.
                    out.push_str("\"\"");
                } else {
                    out.push_str(&csv_escape(&lex));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::read_all;
    use crate::{GraphBuilder, ValueKind};

    fn demo_graph() -> PropertyGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(
            &["Person"],
            &[
                ("name", Value::from("Ann, \"the\" 1st")),
                ("age", Value::Int(30)),
            ],
        );
        let c = b.add_node(&[], &[("bday", Value::from("1999-12-19"))]);
        let o = b.add_node(&["Org", "Corp"], &[("url", Value::from("x.com"))]);
        b.add_edge(a, o, &["WORKS_AT"], &[("from", Value::Int(2001))]);
        b.add_edge(c, a, &["KNOWS"], &[]);
        b.finish()
    }

    #[test]
    fn csv_round_trip_preserves_structure() {
        let g = demo_graph();
        let nodes = save_nodes_csv(&g);
        let edges = save_edges_csv(&g);
        let (back, warnings) =
            read_all(CsvSource::new(nodes.as_bytes(), Some(edges.as_bytes()))).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(back.node_count(), 3);
        assert_eq!(back.edge_count(), 2);
        let (_, ann) = back.nodes().next().unwrap();
        let name = back.keys().get("name").unwrap();
        assert_eq!(ann.get(name), Some(&Value::from("Ann, \"the\" 1st")));
        let bday = back.keys().get("bday").unwrap();
        let (_, anon) = back.nodes().nth(1).unwrap();
        assert_eq!(anon.get(bday).unwrap().kind(), ValueKind::Date);
        let (_, org) = back.nodes().nth(2).unwrap();
        assert_eq!(back.label_set_str(&org.labels), "{Corp, Org}");
    }

    #[test]
    fn quoted_cells_may_span_lines() {
        let nodes = "id,labels,note\na,Doc,\"line one\nline two\"\n";
        let (g, _) = read_all(CsvSource::new(nodes.as_bytes(), None)).unwrap();
        let (_, n) = g.nodes().next().unwrap();
        let note = g.keys().get("note").unwrap();
        assert_eq!(n.get(note), Some(&Value::from("line one\nline two")));
    }

    #[test]
    fn empty_cells_mean_absent_properties() {
        let nodes = "id,labels,name,age\na,Person,Ann,30\nb,Person,Bob,\n";
        let (g, _) = read_all(CsvSource::new(nodes.as_bytes(), None)).unwrap();
        let age = g.keys().get("age").unwrap();
        assert!(g.nodes().nth(1).unwrap().1.get(age).is_none());
        assert!(g.nodes().next().unwrap().1.get(age).is_some());
    }

    #[test]
    fn quoted_empty_cells_are_present_empty_strings() {
        // Regression: a present empty-string value used to export as a
        // bare empty cell, which reads back as *absent* and silently
        // changes the node's pattern.
        let mut b = GraphBuilder::new();
        b.add_node(&["Doc"], &[("note", Value::from("")), ("n", Value::Int(1))]);
        b.add_node(&["Doc"], &[("n", Value::Int(2))]);
        let g = b.finish();
        let csv = save_nodes_csv(&g);
        let (back, _) = read_all(CsvSource::new(csv.as_bytes(), None)).unwrap();
        let note = back.keys().get("note").unwrap();
        assert_eq!(
            back.nodes().next().unwrap().1.get(note),
            Some(&Value::from("")),
            "{csv}"
        );
        assert!(back.nodes().nth(1).unwrap().1.get(note).is_none());
    }

    #[test]
    fn bad_header_is_an_error() {
        let nodes = "identifier,labels\na,Person\n";
        let err = read_all(CsvSource::new(nodes.as_bytes(), None)).unwrap_err();
        assert!(matches!(err, StreamError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn short_rows_tolerated_long_rows_rejected() {
        let ok = "id,labels,name\na,Person\n";
        let (g, _) = read_all(CsvSource::new(ok.as_bytes(), None)).unwrap();
        assert_eq!(g.node_count(), 1);
        let bad = "id,labels\na,Person,extra\n";
        assert!(read_all(CsvSource::new(bad.as_bytes(), None)).is_err());
    }

    #[test]
    fn missing_edges_file_means_no_edges() {
        let nodes = "id,labels\na,Person\n";
        let (g, _) = read_all(CsvSource::new(nodes.as_bytes(), None)).unwrap();
        assert_eq!(g.edge_count(), 0);
    }
}
