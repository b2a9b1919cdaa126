//! Streaming source for the line-oriented `.pgt` text format of
//! [`crate::loader`] — same grammar, same percent-encoding, but reads one
//! record at a time from any [`BufRead`] instead of a full in-memory string.

use super::raw::{RawGraphSource, RecordBuf};
use super::{read_line, StreamError};
use crate::loader::parse_line_into;
use std::io::BufRead;

/// Record-at-a-time reader of the `.pgt` format.
///
/// Parses **zero-copy** through [`RawGraphSource`]: each line is read into
/// the caller's [`RecordBuf`] and fields are recorded as spans, so steady-
/// state parsing performs no per-record allocations.
pub struct PgtSource<R> {
    reader: R,
    line: u64,
}

impl<R: BufRead> PgtSource<R> {
    /// Source over any buffered reader.
    pub fn new(reader: R) -> Self {
        Self { reader, line: 0 }
    }
}

impl<R: BufRead> RawGraphSource for PgtSource<R> {
    fn read_record(&mut self, buf: &mut RecordBuf) -> Result<bool, StreamError> {
        loop {
            buf.clear();
            if read_line(&mut self.reader, &mut buf.text, self.line + 1)? == 0 {
                return Ok(false);
            }
            self.line += 1;
            match parse_line_into(self.line as usize, buf) {
                Ok(true) => return Ok(true),
                Ok(false) => continue,
                Err(e) => {
                    return Err(StreamError::Parse {
                        line: self.line,
                        msg: e.reason(),
                    })
                }
            }
        }
    }

    fn format_name(&self) -> &'static str {
        "pgt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{load_text, save_text};
    use crate::stream::{read_all, RecordRef};
    use crate::GraphBuilder;
    use crate::Value;

    #[test]
    fn streams_same_records_as_loader() {
        let text = "# comment\n\
                    N a Person name=Ann,age=30\n\
                    N b - -\n\
                    E a b KNOWS since=2020\n";
        let mut src = PgtSource::new(text.as_bytes());
        let mut buf = RecordBuf::new();
        let mut records = Vec::new();
        while src.read_record(&mut buf).unwrap() {
            records.push(match buf.view() {
                RecordRef::Node { id, .. } => format!("N {id}"),
                RecordRef::Edge { src, tgt, .. } => format!("E {src} {tgt}"),
            });
        }
        assert_eq!(records, ["N a", "N b", "E a b"]);
    }

    #[test]
    fn read_all_matches_load_text() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(&["Person"], &[("name", Value::from("Ann, esq."))]);
        let y = b.add_node(&[], &[("score", Value::Float(2.5))]);
        b.add_edge(x, y, &["KNOWS"], &[("since", Value::Int(2020))]);
        let text = save_text(&b.finish());

        let via_loader = load_text(&text).unwrap();
        let (via_stream, warnings) = read_all(PgtSource::new(text.as_bytes())).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(via_stream.node_count(), via_loader.node_count());
        assert_eq!(via_stream.edge_count(), via_loader.edge_count());
        for ((_, a), (_, b)) in via_loader.nodes().zip(via_stream.nodes()) {
            assert_eq!(a.props.len(), b.props.len());
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "N a - -\nX bogus\n";
        let mut src = PgtSource::new(text.as_bytes());
        let mut buf = RecordBuf::new();
        assert!(src.read_record(&mut buf).unwrap());
        let err = src.read_record(&mut buf).unwrap_err();
        assert!(matches!(err, StreamError::Parse { line: 2, .. }), "{err}");
    }
}
