//! Read-ahead: overlap parsing/chunking with downstream consumption.
//!
//! [`ChunkedTextReader`] is a pull API — the discovery pipeline parses chunk
//! N+1 only after it finished processing chunk N, so the CPU idles during
//! I/O and the disk idles during clustering. The types here move the
//! producer side onto a dedicated thread and hand results over through a
//! *bounded* channel, so at most `depth` chunks (or record batches) are ever
//! in flight and resident memory stays O(depth × chunk):
//!
//! - [`ReadAheadChunks`] — drives any [`GraphSource`] through a
//!   [`ChunkedTextReader`] on a background thread; the consumer pulls
//!   ready-made [`PropertyGraph`] chunks. This is the producer stage of
//!   `pg_hive_core::Discoverer::absorb_unit`'s read-ahead units, which is
//!   how `discover --stream` reads a file. At the end of such a unit it
//!   hands back the drained reader's registry, carried edges and warnings
//!   ([`ReadAheadChunks::take_end`]).
//! - [`ReadAheadRecords`] — the record-level equivalent: parses
//!   [`Record`]s ahead of a single-pass consumer (e.g. streaming stats
//!   folding) and re-exposes them as a [`GraphSource`].
//!
//! Both propagate the first [`StreamError`] to the consumer, deliver the
//! final [`StreamSummary`] (warnings, peak residency, chunk count) after the
//! last item, and shut the producer down promptly when the consumer is
//! dropped early — the producer's blocked `send` fails as soon as the
//! receiving half disappears, so no thread leaks and no deadlock occurs.
//!
//! ```
//! use pg_hive_graph::stream::pgt::PgtSource;
//! use pg_hive_graph::stream::ReadAheadChunks;
//!
//! let text = "N a Person name=Ann\nN b Org url=x.com\nE a b WORKS_AT -\n";
//! let mut chunks = ReadAheadChunks::spawn(PgtSource::new(text.as_bytes()), 2, 4);
//! let mut elements = 0;
//! while let Some(chunk) = chunks.next_chunk().unwrap() {
//!     elements += chunk.node_count() + chunk.edge_count(); // parsed ahead
//! }
//! // 3 declared elements + 2 label-carrying stubs for the edge whose
//! // endpoints landed in the previous chunk.
//! assert_eq!(elements, 5);
//! assert!(chunks.summary().unwrap().warnings.cross_chunk_edges > 0);
//! ```

use super::raw::{RawGraphSource, RecordBuf};
use super::{
    ChunkedTextReader, GraphSource, LabelSetRegistry, Record, StreamError, StreamWarnings, UnitEnd,
};
use crate::graph::PropertyGraph;
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;

/// Records handed over per channel message by [`ReadAheadRecords`] — large
/// enough to amortize channel synchronization, small enough to keep the
/// pipeline responsive.
const RECORD_BATCH: usize = 1024;

/// Final accounting of a finished read-ahead producer: what
/// [`ChunkedTextReader::warnings`], [`ChunkedTextReader::max_resident_elements`]
/// and [`ChunkedTextReader::chunks_emitted`] would have reported, carried
/// across the thread boundary once the stream is exhausted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Counted non-fatal ingestion conditions (final values).
    pub warnings: StreamWarnings,
    /// Largest `node_count + edge_count` of any emitted chunk.
    pub max_resident_elements: usize,
    /// Number of chunks emitted.
    pub chunks: usize,
}

enum ChunkMsg {
    Chunk(PropertyGraph),
    Done(StreamSummary, Option<Box<UnitEnd>>),
    Failed(StreamError),
}

/// A [`ChunkedTextReader`] running on a dedicated producer thread, feeding a
/// bounded channel of ready chunks (see the [module docs](self)).
pub struct ReadAheadChunks {
    rx: Option<Receiver<ChunkMsg>>,
    handle: Option<JoinHandle<()>>,
    summary: Option<StreamSummary>,
    end: Option<UnitEnd>,
    format: &'static str,
}

impl ReadAheadChunks {
    /// Spawn a producer thread chunking `source` into ~`chunk_size`-element
    /// graphs, buffering up to `depth` parsed chunks ahead of the consumer
    /// (`depth` is clamped to ≥ 1). Edges whose endpoints never appear are
    /// dropped and counted in the summary's warnings.
    pub fn spawn<S>(source: S, chunk_size: usize, depth: usize) -> Self
    where
        S: RawGraphSource + Send + 'static,
    {
        Self::start(source, chunk_size, depth, None)
    }

    /// [`Self::spawn`] for one unit of the ingest fold: the producer's
    /// reader is seeded with `registry` (see
    /// [`ChunkedTextReader::with_registry`]) and carries end-of-stream
    /// unresolved edges instead of counting them; the registry, grown by
    /// this stream's bindings, comes back with those edges in
    /// [`Self::take_end`].
    pub fn spawn_with_registry<S>(
        source: S,
        chunk_size: usize,
        depth: usize,
        registry: LabelSetRegistry,
    ) -> Self
    where
        S: RawGraphSource + Send + 'static,
    {
        Self::start(source, chunk_size, depth, Some(registry))
    }

    fn start<S>(source: S, chunk_size: usize, depth: usize, unit: Option<LabelSetRegistry>) -> Self
    where
        S: RawGraphSource + Send + 'static,
    {
        let format = source.format_name();
        let (tx, rx) = sync_channel(depth.max(1));
        let handle = std::thread::Builder::new()
            .name("pg-hive-read-ahead".into())
            .spawn(move || {
                let hand_back = unit.is_some();
                let registry = unit.unwrap_or_default();
                let mut reader = ChunkedTextReader::with_registry(source, chunk_size, registry);
                reader.set_carry_unresolved(hand_back);
                loop {
                    match reader.next_chunk() {
                        Ok(Some(g)) => {
                            if tx.send(ChunkMsg::Chunk(g)).is_err() {
                                // Consumer dropped early: stop reading.
                                return;
                            }
                        }
                        Ok(None) => {
                            let summary = StreamSummary {
                                warnings: reader.warnings(),
                                max_resident_elements: reader.max_resident_elements(),
                                chunks: reader.chunks_emitted(),
                            };
                            let end = hand_back.then(|| {
                                Box::new(UnitEnd {
                                    pending: reader.take_pending(),
                                    warnings: reader.warnings(),
                                    registry: reader.into_registry(),
                                })
                            });
                            let _ = tx.send(ChunkMsg::Done(summary, end));
                            return;
                        }
                        Err(e) => {
                            let _ = tx.send(ChunkMsg::Failed(e));
                            return;
                        }
                    }
                }
            })
            .expect("spawn read-ahead producer thread");
        Self {
            rx: Some(rx),
            handle: Some(handle),
            summary: None,
            end: None,
            format,
        }
    }

    /// Next parsed chunk, or `Ok(None)` once the stream is exhausted —
    /// blocking only when the producer has not read ahead far enough yet.
    /// After `Ok(None)`, [`Self::summary`] and [`Self::take_end`] are
    /// available.
    pub fn next_chunk(&mut self) -> Result<Option<PropertyGraph>, StreamError> {
        let Some(rx) = self.rx.as_ref() else {
            return Ok(None);
        };
        match rx.recv() {
            Ok(ChunkMsg::Chunk(g)) => Ok(Some(g)),
            Ok(ChunkMsg::Done(summary, end)) => {
                self.summary = Some(summary);
                self.end = end.map(|e| *e);
                self.shutdown();
                Ok(None)
            }
            Ok(ChunkMsg::Failed(e)) => {
                self.shutdown();
                Err(e)
            }
            // The producer thread died without a final message (panic).
            Err(_) => {
                self.shutdown();
                Err(StreamError::Io(std::io::Error::other(
                    "read-ahead producer terminated unexpectedly",
                )))
            }
        }
    }

    /// Final accounting, available once [`Self::next_chunk`] returned
    /// `Ok(None)`.
    pub fn summary(&self) -> Option<&StreamSummary> {
        self.summary.as_ref()
    }

    /// The drained reader's registry, carried edges and warnings, once
    /// [`Self::next_chunk`] returned `Ok(None)` on a producer started with
    /// [`Self::spawn_with_registry`]; `None` before that, after an error,
    /// for [`Self::spawn`], or when already taken.
    pub fn take_end(&mut self) -> Option<UnitEnd> {
        self.end.take()
    }

    /// Underlying source's format name (`"pgt"`, `"csv"`, `"jsonl"`).
    pub fn format_name(&self) -> &'static str {
        self.format
    }

    fn shutdown(&mut self) {
        // Drop the receiver first: a producer blocked on a full channel
        // fails its `send` and exits instead of deadlocking the join.
        self.rx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReadAheadChunks {
    fn drop(&mut self) {
        self.shutdown();
    }
}

enum RecordMsg {
    Batch(Vec<Record>),
    Done,
    Failed(StreamError),
}

/// A [`GraphSource`] adaptor that parses records on a dedicated producer
/// thread, buffering up to `depth` batches of records (1024 per batch) ahead
/// of the consumer — the record-level sibling of [`ReadAheadChunks`], used
/// by single-pass consumers such as `pg_hive_graph::stats::stream_stats`.
pub struct ReadAheadRecords {
    rx: Option<Receiver<RecordMsg>>,
    handle: Option<JoinHandle<()>>,
    buf: VecDeque<Record>,
    format: &'static str,
}

impl ReadAheadRecords {
    /// Spawn a producer thread draining `source`, with at most `depth`
    /// record batches in flight (`depth` is clamped to ≥ 1).
    pub fn spawn<S>(source: S, depth: usize) -> Self
    where
        S: RawGraphSource + Send + 'static,
    {
        let format = source.format_name();
        let (tx, rx) = sync_channel(depth.max(1));
        let handle = std::thread::Builder::new()
            .name("pg-hive-read-ahead-records".into())
            .spawn(move || {
                let mut source = source;
                let mut buf = RecordBuf::new();
                let mut batch = Vec::with_capacity(RECORD_BATCH);
                loop {
                    match source.read_record(&mut buf) {
                        Ok(true) => {
                            batch.push(buf.take_record());
                            if batch.len() == RECORD_BATCH
                                && tx
                                    .send(RecordMsg::Batch(std::mem::take(&mut batch)))
                                    .is_err()
                            {
                                return;
                            }
                        }
                        Ok(false) => {
                            if !batch.is_empty() {
                                let _ = tx.send(RecordMsg::Batch(batch));
                            }
                            let _ = tx.send(RecordMsg::Done);
                            return;
                        }
                        Err(e) => {
                            if !batch.is_empty() {
                                let _ = tx.send(RecordMsg::Batch(batch));
                            }
                            let _ = tx.send(RecordMsg::Failed(e));
                            return;
                        }
                    }
                }
            })
            .expect("spawn read-ahead record producer thread");
        Self {
            rx: Some(rx),
            handle: Some(handle),
            buf: VecDeque::new(),
            format,
        }
    }

    fn shutdown(&mut self) {
        self.rx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl GraphSource for ReadAheadRecords {
    fn next_record(&mut self) -> Result<Option<Record>, StreamError> {
        loop {
            if let Some(rec) = self.buf.pop_front() {
                return Ok(Some(rec));
            }
            let Some(rx) = self.rx.as_ref() else {
                return Ok(None);
            };
            match rx.recv() {
                Ok(RecordMsg::Batch(batch)) => {
                    self.buf = batch.into();
                }
                Ok(RecordMsg::Done) => {
                    self.shutdown();
                    return Ok(None);
                }
                Ok(RecordMsg::Failed(e)) => {
                    self.shutdown();
                    return Err(e);
                }
                Err(_) => {
                    self.shutdown();
                    return Err(StreamError::Io(std::io::Error::other(
                        "read-ahead record producer terminated unexpectedly",
                    )));
                }
            }
        }
    }

    fn format_name(&self) -> &'static str {
        self.format
    }
}

impl Drop for ReadAheadRecords {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::super::pgt::PgtSource;
    use super::*;

    fn dataset(nodes: usize) -> String {
        let mut text = String::new();
        for i in 0..nodes {
            text.push_str(&format!("N n{i} Person name=p{i}\n"));
        }
        for i in 1..nodes {
            text.push_str(&format!("E n{i} n0 KNOWS -\n"));
        }
        text
    }

    #[test]
    fn read_ahead_yields_the_same_chunks_as_direct_reading() {
        let text = dataset(100);
        let mut direct = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), 16);
        let mut ahead = ReadAheadChunks::spawn(
            PgtSource::new(std::io::Cursor::new(text.clone().into_bytes())),
            16,
            3,
        );
        loop {
            let a = direct.next_chunk().unwrap();
            let b = ahead.next_chunk().unwrap();
            match (a, b) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.node_count(), y.node_count());
                    assert_eq!(x.edge_count(), y.edge_count());
                }
                (a, b) => panic!(
                    "chunk sequences diverged: direct={:?} ahead={:?}",
                    a.map(|g| g.node_count()),
                    b.map(|g| g.node_count())
                ),
            }
        }
        let s = *ahead.summary().expect("summary after exhaustion");
        assert_eq!(s.warnings, direct.warnings());
        assert_eq!(s.max_resident_elements, direct.max_resident_elements());
        assert_eq!(s.chunks, direct.chunks_emitted());
        assert_eq!(ahead.format_name(), "pgt");
    }

    #[test]
    fn parse_errors_propagate_to_the_consumer() {
        let text = "N a Person -\nBOGUS line\n";
        let mut ahead = ReadAheadChunks::spawn(PgtSource::new(text.as_bytes()), 10, 2);
        let err = loop {
            match ahead.next_chunk() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected a parse error"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, StreamError::Parse { line: 2, .. }), "{err}");
        // After an error the reader is terminal.
        assert!(ahead.next_chunk().unwrap().is_none());
        assert!(ahead.take_end().is_none());
    }

    #[test]
    fn drained_producer_hands_back_registry_and_carried_edges() {
        let mut seed = LabelSetRegistry::default();
        seed.insert("o", &["Org".into()]);
        let text = "N a Person -\nE a o WORKS_AT -\nE a ghost KNOWS -\n";
        let mut ahead =
            ReadAheadChunks::spawn_with_registry(PgtSource::new(text.as_bytes()), 10, 2, seed);
        let mut edges = 0;
        while let Some(c) = ahead.next_chunk().unwrap() {
            edges += c.edge_count();
        }
        // The seeded endpoint resolves through a stub; the undeclared one
        // is carried, not counted.
        assert_eq!(edges, 1);
        let end = ahead.take_end().expect("end state after exhaustion");
        assert_eq!(end.pending.len(), 1);
        assert_eq!(end.warnings.unresolved_edges, 0);
        assert_eq!(end.warnings.cross_chunk_edges, 1);
        assert_eq!(end.registry.len(), 2);
        assert!(ahead.take_end().is_none(), "taken once");
    }

    #[test]
    fn dropping_the_consumer_early_does_not_hang() {
        // Plenty of chunks, tiny channel: the producer will block on send;
        // dropping the consumer must unblock and join it.
        let text = dataset(2_000);
        let mut ahead = ReadAheadChunks::spawn(
            PgtSource::new(std::io::Cursor::new(text.into_bytes())),
            8,
            1,
        );
        let first = ahead.next_chunk().unwrap();
        assert!(first.is_some());
        drop(ahead); // must not deadlock
    }

    #[test]
    fn record_read_ahead_preserves_the_record_sequence() {
        let text = dataset(RECORD_BATCH + 37); // force multiple batches
        let mut direct = PgtSource::new(text.as_bytes());
        let mut ahead = ReadAheadRecords::spawn(
            PgtSource::new(std::io::Cursor::new(text.clone().into_bytes())),
            2,
        );
        assert_eq!(ahead.format_name(), "pgt");
        loop {
            let a = direct.next_record().unwrap();
            let b = ahead.next_record().unwrap();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn record_read_ahead_delivers_prefix_then_error() {
        let text = "N a Person -\nN b Person -\n???\n";
        let mut ahead = ReadAheadRecords::spawn(PgtSource::new(text.as_bytes()), 2);
        assert!(ahead.next_record().unwrap().is_some());
        assert!(ahead.next_record().unwrap().is_some());
        assert!(ahead.next_record().is_err());
        // Terminal after the error.
        assert!(ahead.next_record().unwrap().is_none());
    }

    #[test]
    fn summary_defaults_are_zero() {
        let s = StreamSummary::default();
        assert_eq!(s.chunks, 0);
        assert!(s.warnings.is_empty());
    }
}
