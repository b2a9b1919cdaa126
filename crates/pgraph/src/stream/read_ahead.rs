//! Read-ahead: overlap parsing/chunking with downstream consumption.
//!
//! [`ChunkedTextReader`] is a pull API — the discovery pipeline parses chunk
//! N+1 only after it finished processing chunk N, so the CPU idles during
//! I/O and the disk idles during clustering. [`ReadAheadChunks`] moves the
//! producer side onto a dedicated thread: it drives any [`RawGraphSource`]
//! through a [`ChunkedTextReader`] and hands ready-made [`PropertyGraph`]
//! chunks over a *bounded* channel, so at most `depth` chunks are ever in
//! flight and resident memory stays O(depth × chunk). This is the producer
//! stage of `pg_hive_core::Discoverer::absorb_unit`'s read-ahead units,
//! which is how `discover --stream` reads a file. At the end of such a unit
//! it hands back the drained reader's registry, carried edges and warnings
//! ([`ReadAheadChunks::take_end`]).
//!
//! The producer propagates the first [`StreamError`] to the consumer,
//! hands back the drained reader's [`UnitEnd`] (registry, carried edges,
//! final warnings) after the last chunk, and shuts down promptly when the
//! consumer is dropped early — its blocked `send` fails as soon as the
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
//! assert!(chunks.take_end().unwrap().warnings.cross_chunk_edges > 0);
//! ```

use super::raw::RawGraphSource;
use super::{ChunkedTextReader, LabelSetRegistry, StreamError, UnitEnd};
use crate::graph::PropertyGraph;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;

enum ChunkMsg {
    Chunk(PropertyGraph),
    Done(Box<UnitEnd>),
    Failed(StreamError),
}

/// A [`ChunkedTextReader`] running on a dedicated producer thread, feeding a
/// bounded channel of ready chunks (see the [module docs](self)).
pub struct ReadAheadChunks {
    rx: Option<Receiver<ChunkMsg>>,
    handle: Option<JoinHandle<()>>,
    end: Option<UnitEnd>,
}

impl ReadAheadChunks {
    /// Spawn a producer thread chunking `source` into ~`chunk_size`-element
    /// graphs, buffering up to `depth` parsed chunks ahead of the consumer
    /// (`depth` is clamped to ≥ 1). Edges whose endpoints never appear are
    /// dropped and counted in the end's warnings ([`Self::take_end`]).
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
                            let end = UnitEnd {
                                pending: reader.take_pending(),
                                warnings: reader.warnings(),
                                registry: reader.into_registry(),
                            };
                            let _ = tx.send(ChunkMsg::Done(Box::new(end)));
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
            end: None,
        }
    }

    /// Next parsed chunk, or `Ok(None)` once the stream is exhausted —
    /// blocking only when the producer has not read ahead far enough yet.
    /// After `Ok(None)`, [`Self::take_end`] is available.
    pub fn next_chunk(&mut self) -> Result<Option<PropertyGraph>, StreamError> {
        let Some(rx) = self.rx.as_ref() else {
            return Ok(None);
        };
        match rx.recv() {
            Ok(ChunkMsg::Chunk(g)) => Ok(Some(g)),
            Ok(ChunkMsg::Done(end)) => {
                self.end = Some(*end);
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

    /// The drained reader's registry, carried edges and final warnings,
    /// once [`Self::next_chunk`] returned `Ok(None)`; `None` before that,
    /// after an error, or when already taken. A producer started with
    /// [`Self::spawn`] carries no edges: it counts them as unresolved.
    pub fn take_end(&mut self) -> Option<UnitEnd> {
        self.end.take()
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
        let (mut chunks, mut max_resident) = (0, 0);
        loop {
            let a = direct.next_chunk().unwrap();
            let b = ahead.next_chunk().unwrap();
            match (a, b) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.node_count(), y.node_count());
                    assert_eq!(x.edge_count(), y.edge_count());
                    chunks += 1;
                    max_resident = max_resident.max(y.node_count() + y.edge_count());
                }
                (a, b) => panic!(
                    "chunk sequences diverged: direct={:?} ahead={:?}",
                    a.map(|g| g.node_count()),
                    b.map(|g| g.node_count())
                ),
            }
        }
        let end = ahead.take_end().expect("end after exhaustion");
        assert_eq!(end.warnings, direct.warnings());
        assert!(end.pending.is_empty(), "spawn counts, never carries");
        assert_eq!(max_resident, direct.max_resident_elements());
        assert_eq!(chunks, direct.chunks_emitted());
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
}
