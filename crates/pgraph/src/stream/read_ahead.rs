//! Read-ahead: parse and chunk on two threads, ahead of the consumer.
//!
//! [`ChunkedTextReader`] is a pull API — the discovery pipeline parses chunk
//! N+1 only after it finished processing chunk N, so the CPU idles during
//! I/O and the disk idles during clustering. [`ReadAheadChunks`] moves the
//! producer side onto two pipelined threads:
//!
//! ```text
//!  parse thread                   chunk thread                     consumer
//!  RawGraphSource::read_record    ChunkedTextReader over the
//!  into batches of BATCH_RECORDS  batches' records: registry,
//!  records ──────────────────────▶ deferral, stubs ───────────────▶ next_chunk
//!          at most BATCH_QUEUE                     at most `depth`
//!          full batches waiting                    chunks waiting
//! ```
//!
//! - The **parse** stage drives any [`RawGraphSource`] through
//!   `read_record` into batches of [`BATCH_RECORDS`] records: one text
//!   arena, per-record spans, and the parsed [`Value`]s moved, not copied.
//! - The **chunk** stage runs an unchanged [`ChunkedTextReader`] over those
//!   records and hands ready-made [`PropertyGraph`] chunks to the consumer.
//!
//! The chunk stage's reader sees exactly the records the source yields, in
//! order, followed by the source's end or first error, so every chunk,
//! warning, carried edge and registry binding is the one direct reading
//! produces. At most `depth` chunks wait for the consumer, one more is being
//! built, and at most [`BATCHES_IN_FLIGHT`] batches exist (one being filled,
//! the queued ones, one being replayed), so resident memory stays
//! O(depth × chunk + batches × batch). This is the producer of
//! `pg_hive_core::Discoverer::absorb_unit`'s read-ahead units, which is how
//! `discover --stream` reads a file. At the end of such a unit it hands back
//! the drained reader's registry, carried edges and warnings
//! ([`ReadAheadChunks::take_end`]).
//!
//! Both stages run on one bounded-producer helper, so shutdown and failure
//! are handled in one place: the first [`StreamError`] reaches the consumer
//! after every chunk built before it, a stage thread that dies (a panic)
//! reaches it as a [`StreamError`] too, and dropping the consumer early
//! fails the blocked sends stage after stage, so both threads are joined
//! and no deadlock occurs.
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

use super::raw::{RawGraphSource, RecordBuf, RecordKind, Span};
use super::{ChunkedTextReader, LabelSetRegistry, StreamError, UnitEnd};
use crate::graph::PropertyGraph;
use crate::value::Value;
use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Records in one batch the parse stage hands to the chunk stage (a fixed
/// constant, not a setting).
pub const BATCH_RECORDS: usize = 1024;

/// Full batches that may wait for the chunk stage.
const BATCH_QUEUE: usize = 4;

/// Most record batches alive at once: one being filled, a full queue of
/// them waiting, and one being replayed into chunks.
pub const BATCHES_IN_FLIGHT: usize = BATCH_QUEUE + 2;

/// A [`ChunkedTextReader`] fed by a parse thread and running on a chunk
/// thread, feeding a bounded channel of ready chunks (see the
/// [module docs](self)).
pub struct ReadAheadChunks {
    chunks: Stage<PropertyGraph, UnitEnd>,
}

impl ReadAheadChunks {
    /// Spawn the parse and chunk threads, chunking `source` into
    /// ~`chunk_size`-element graphs and buffering up to `depth` chunks ahead
    /// of the consumer (`depth` is clamped to ≥ 1). Edges whose endpoints
    /// never appear are dropped and counted in the end's warnings
    /// ([`Self::take_end`]).
    pub fn spawn<S>(source: S, chunk_size: usize, depth: usize) -> Self
    where
        S: RawGraphSource + Send + 'static,
    {
        Self::start(source, chunk_size, depth, None)
    }

    /// [`Self::spawn`] for one unit of the ingest fold: the chunk stage's
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
        let parsed = Stage::spawn("pg-hive-parse", BATCH_QUEUE, move |out| parse(source, out));
        let chunks = Stage::spawn("pg-hive-chunk", depth, move |out| {
            let hand_back = unit.is_some();
            let source = Parsed {
                stage: parsed,
                format,
                text: String::new(),
                labels: Vec::new(),
                props: Vec::new().into_iter(),
                records: Vec::new().into_iter(),
            };
            let registry = unit.unwrap_or_default();
            let mut reader = ChunkedTextReader::with_registry(source, chunk_size, registry);
            reader.set_carry_unresolved(hand_back);
            while let Some(g) = reader.next_chunk()? {
                out.send(g)?;
            }
            Ok(UnitEnd {
                pending: reader.take_pending(),
                warnings: reader.warnings(),
                registry: reader.into_registry(),
            })
        });
        Self { chunks }
    }

    /// Next parsed chunk, or `Ok(None)` once the stream is exhausted —
    /// blocking only when the producer has not read ahead far enough yet.
    /// After `Ok(None)`, [`Self::take_end`] is available; after an error,
    /// every later call returns `Ok(None)`.
    pub fn next_chunk(&mut self) -> Result<Option<PropertyGraph>, StreamError> {
        self.chunks.next()
    }

    /// The drained reader's registry, carried edges and final warnings,
    /// once [`Self::next_chunk`] returned `Ok(None)`; `None` before that,
    /// after an error, or when already taken. A producer started with
    /// [`Self::spawn`] carries no edges: it counts them as unresolved.
    pub fn take_end(&mut self) -> Option<UnitEnd> {
        self.chunks.end.take()
    }
}

/// The parse stage: drain `source` into batches of [`BATCH_RECORDS`]. The
/// records read before an error are sent before it.
fn parse<S: RawGraphSource>(mut source: S, out: &Out<RecordBatch, ()>) -> Result<(), StreamError> {
    let mut buf = RecordBuf::new();
    let mut batch = RecordBatch::default();
    let last = loop {
        match source.read_record(&mut buf) {
            Ok(true) => {
                batch.push(&mut buf);
                if batch.records.len() == BATCH_RECORDS {
                    out.send(std::mem::take(&mut batch))?;
                }
            }
            end => break end,
        }
    };
    if !batch.records.is_empty() {
        out.send(batch)?;
    }
    last.map(drop)
}

/// Records moved from the parse stage to the chunk stage in one piece:
/// every record's backing text back to back in one arena, and its label
/// spans and property values in two flat tables. Spans stay relative to
/// the record's own text, as [`RecordBuf`] holds them.
#[derive(Default)]
struct RecordBatch {
    text: String,
    labels: Vec<Span>,
    props: Vec<(Span, Value)>,
    records: Vec<BatchedRecord>,
}

/// Where one record of a [`RecordBatch`] lies in the batch's tables.
struct BatchedRecord {
    kind: RecordKind,
    id: Span,
    tgt: Span,
    text: Range<usize>,
    labels: Range<usize>,
    props: usize,
}

impl RecordBatch {
    /// Append the record held in `buf`, moving its property values out.
    fn push(&mut self, buf: &mut RecordBuf) {
        let (text, labels) = (self.text.len(), self.labels.len());
        self.text.push_str(&buf.text);
        self.labels.extend_from_slice(&buf.labels);
        self.records.push(BatchedRecord {
            kind: buf.kind,
            id: buf.id,
            tgt: buf.tgt,
            text: text..self.text.len(),
            labels: labels..self.labels.len(),
            props: buf.props.len(),
        });
        self.props.append(&mut buf.props);
    }
}

/// The chunk stage's source: replays the parse stage's batches record by
/// record into the reader's buffer, then ends or fails as the parse stage
/// did.
struct Parsed {
    stage: Stage<RecordBatch, ()>,
    format: &'static str,
    /// The batch being replayed.
    text: String,
    labels: Vec<Span>,
    props: std::vec::IntoIter<(Span, Value)>,
    records: std::vec::IntoIter<BatchedRecord>,
}

impl RawGraphSource for Parsed {
    fn read_record(&mut self, buf: &mut RecordBuf) -> Result<bool, StreamError> {
        buf.clear();
        loop {
            if let Some(r) = self.records.next() {
                buf.kind = r.kind;
                buf.id = r.id;
                buf.tgt = r.tgt;
                buf.text.push_str(&self.text[r.text]);
                buf.labels.extend_from_slice(&self.labels[r.labels]);
                buf.props.extend(self.props.by_ref().take(r.props));
                return Ok(true);
            }
            let Some(batch) = self.stage.next()? else {
                return Ok(false);
            };
            self.text = batch.text;
            self.labels = batch.labels;
            self.props = batch.props.into_iter();
            self.records = batch.records.into_iter();
        }
    }

    fn format_name(&self) -> &'static str {
        self.format
    }
}

/// What a [`Stage`] sends: items, then one `Done` or `Failed`.
enum Msg<T, End> {
    Item(T),
    Done(End),
    Failed(StreamError),
}

/// The sending end a stage's producer writes its items to.
struct Out<T, End>(SyncSender<Msg<T, End>>);

impl<T, End> Out<T, End> {
    /// Hand `item` on, blocking while the channel is full. Fails once the
    /// receiving [`Stage`] is gone, which ends the producer.
    fn send(&self, item: T) -> Result<(), StreamError> {
        self.0
            .send(Msg::Item(item))
            .map_err(|_| StreamError::Io(std::io::Error::other("read-ahead consumer is gone")))
    }
}

/// A bounded producer on its own thread, as its consumer sees it: the
/// producer sends items into a channel of at most `depth` and ends with its
/// result, which the consumer receives after the last item. Dropping the
/// stage drops the receiver first, so a producer blocked on a full channel
/// fails its send and exits, and then joins the thread.
struct Stage<T, End> {
    thread: &'static str,
    rx: Option<Receiver<Msg<T, End>>>,
    handle: Option<JoinHandle<()>>,
    /// The producer's result, once it ended without an error.
    end: Option<End>,
}

impl<T: Send + 'static, End: Send + 'static> Stage<T, End> {
    /// Run `produce` on a new thread named `thread`.
    fn spawn(
        thread: &'static str,
        depth: usize,
        produce: impl FnOnce(&Out<T, End>) -> Result<End, StreamError> + Send + 'static,
    ) -> Self {
        let (tx, rx) = sync_channel(depth.max(1));
        let handle = std::thread::Builder::new()
            .name(thread.into())
            .spawn(move || {
                let out = Out(tx);
                let last = match produce(&out) {
                    Ok(end) => Msg::Done(end),
                    Err(e) => Msg::Failed(e),
                };
                // Fails only when the consumer is gone and wants nothing.
                let _ = out.0.send(last);
            })
            .expect("spawn read-ahead thread");
        Self {
            thread,
            rx: Some(rx),
            handle: Some(handle),
            end: None,
        }
    }
}

impl<T, End> Stage<T, End> {
    /// The next item, or `Ok(None)` once the producer ended (its result is
    /// then in `end`) or after it failed.
    fn next(&mut self) -> Result<Option<T>, StreamError> {
        let Some(rx) = &self.rx else {
            return Ok(None);
        };
        let msg = rx.recv();
        if !matches!(msg, Ok(Msg::Item(_))) {
            self.shutdown();
        }
        match msg {
            Ok(Msg::Item(item)) => Ok(Some(item)),
            Ok(Msg::Done(end)) => {
                self.end = Some(end);
                Ok(None)
            }
            Ok(Msg::Failed(e)) => Err(e),
            // The thread died before its last message: it panicked.
            Err(_) => Err(StreamError::Io(std::io::Error::other(format!(
                "read-ahead thread {} terminated unexpectedly",
                self.thread
            )))),
        }
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

impl<T, End> Drop for Stage<T, End> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::super::csv::CsvSource;
    use super::super::jsonl::JsonlSource;
    use super::super::pgt::PgtSource;
    use super::*;
    use crate::interner::Symbol;
    use std::io::Cursor;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

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

    /// A chunk as comparable lines: every node with its stub flag, labels
    /// and properties, then every edge with its endpoints, labels and
    /// properties, in chunk order.
    fn render(g: &PropertyGraph) -> Vec<String> {
        let props = |ps: &[(Symbol, Value)]| {
            let ps: Vec<String> = ps
                .iter()
                .map(|(k, v)| format!("{}={v:?}", g.key_str(*k)))
                .collect();
            ps.join(",")
        };
        let nodes = g.nodes().map(|(id, n)| {
            let (stub, labels) = (g.is_stub(id), g.label_set_str(&n.labels));
            format!("N {} stub={stub} {labels} {}", id.0, props(&n.props))
        });
        let edges = g.edges().map(|(_, e)| {
            let labels = g.label_set_str(&e.labels);
            format!("E {}->{} {labels} {}", e.src.0, e.tgt.0, props(&e.props))
        });
        nodes.chain(edges).collect()
    }

    /// A registry's bindings in binding order.
    fn bindings(r: &LabelSetRegistry) -> Vec<(String, Vec<String>)> {
        let ids = r.id_syms.iter();
        ids.map(|(sym, id)| (id.to_string(), r.set(r.ls_of(sym)).to_vec()))
            .collect()
    }

    /// A drain's chunks, rendered, then its end state or its first error.
    type Drain = (Vec<Vec<String>>, Result<UnitEnd, String>);

    fn drain_direct<S: RawGraphSource>(source: S, chunk: usize, seed: LabelSetRegistry) -> Drain {
        let mut reader = ChunkedTextReader::with_registry(source, chunk, seed);
        reader.set_carry_unresolved(true);
        let mut chunks = Vec::new();
        loop {
            match reader.next_chunk() {
                Ok(Some(g)) => chunks.push(render(&g)),
                Ok(None) => break,
                Err(e) => return (chunks, Err(e.to_string())),
            }
        }
        let end = UnitEnd {
            pending: reader.take_pending(),
            warnings: reader.warnings(),
            registry: reader.into_registry(),
        };
        (chunks, Ok(end))
    }

    fn drain_ahead<S>(source: S, chunk: usize, seed: LabelSetRegistry) -> Drain
    where
        S: RawGraphSource + Send + 'static,
    {
        let mut ahead = ReadAheadChunks::spawn_with_registry(source, chunk, 2, seed);
        let mut chunks = Vec::new();
        loop {
            match ahead.next_chunk() {
                Ok(Some(g)) => chunks.push(render(&g)),
                Ok(None) => break,
                Err(e) => {
                    assert!(ahead.next_chunk().unwrap().is_none(), "terminal");
                    return (chunks, Err(e.to_string()));
                }
            }
        }
        (chunks, Ok(ahead.take_end().expect("end after exhaustion")))
    }

    fn assert_same(what: &str, direct: Drain, ahead: Drain) {
        assert_eq!(direct.0.len(), ahead.0.len(), "{what}: chunk count");
        for (i, (d, a)) in direct.0.iter().zip(&ahead.0).enumerate() {
            assert_eq!(d, a, "{what}: chunk {i}");
        }
        match (direct.1, ahead.1) {
            (Ok(d), Ok(a)) => {
                assert_eq!(d.warnings, a.warnings, "{what}: warnings");
                assert_eq!(d.pending, a.pending, "{what}: carried edges");
                assert_eq!(bindings(&d.registry), bindings(&a.registry), "{what}");
            }
            (d, a) => assert_eq!(d.err(), a.err(), "{what}: first error"),
        }
    }

    /// `(id or source, target, label, number)` records, nodes with an
    /// empty target: `nodes` nodes, each followed by an edge whose target
    /// is declared later (a forward reference), earlier, only in the seed
    /// registry (`s*`), or nowhere (`ghost*`); every 97th node re-declares
    /// an earlier id under another label.
    fn records(nodes: usize) -> Vec<(String, String, String, usize)> {
        let mut out = Vec::new();
        for i in 0..nodes {
            out.push((format!("n{i}"), String::new(), format!("T{}", i % 5), i));
            if i % 97 == 96 {
                out.push((format!("n{}", i - 50), String::new(), "Dup".into(), i));
            }
            let tgt = match i % 4 {
                0 => format!("n{}", (i + 30) % nodes),
                1 => format!("n{}", i / 2),
                2 => format!("s{}", i % 7),
                _ if i % 20 == 3 => format!("ghost{i}"),
                _ => format!("n{i}"),
            };
            out.push((format!("n{i}"), tgt, format!("R{}", i % 3), i));
        }
        out
    }

    fn seed() -> LabelSetRegistry {
        let mut seed = LabelSetRegistry::default();
        for j in 0..7 {
            seed.insert(&format!("s{j}"), &["Seed".into()]);
        }
        seed
    }

    #[test]
    fn read_ahead_yields_the_same_chunks_as_direct_reading() {
        let recs = records(7_000);
        assert!(recs.len() > 3 * BATCH_RECORDS, "several batches long");
        let (mut pgt, mut jsonl) = (String::new(), String::new());
        let mut nodes_csv = String::from("id,labels,name,age\n");
        let mut edges_csv = String::from("src,tgt,labels,w\n");
        for (a, b, label, n) in &recs {
            if b.is_empty() {
                pgt.push_str(&format!("N {a} {label} name=p{n},age={n}\n"));
                jsonl.push_str(&format!(
                    "{{\"type\":\"node\",\"id\":\"{a}\",\"labels\":[\"{label}\"],\
                     \"props\":{{\"name\":\"p{n}\",\"age\":{n}}}}}\n"
                ));
                nodes_csv.push_str(&format!("{a},{label},p{n},{n}\n"));
            } else {
                pgt.push_str(&format!("E {a} {b} {label} w={n}\n"));
                jsonl.push_str(&format!(
                    "{{\"type\":\"edge\",\"src\":\"{a}\",\"tgt\":\"{b}\",\
                     \"labels\":[\"{label}\"],\"props\":{{\"w\":{n}}}}}\n"
                ));
                edges_csv.push_str(&format!("{a},{b},{label},{n}\n"));
            }
        }
        let chunk = 1_000;
        let direct = drain_direct(PgtSource::new(pgt.as_bytes()), chunk, seed());
        let ahead = drain_ahead(PgtSource::new(Cursor::new(pgt)), chunk, seed());
        let end = direct.1.as_ref().expect("valid pgt");
        assert!(direct.0.len() > 10);
        assert!(end.warnings.deferred_edges > 0 && end.warnings.duplicate_nodes > 0);
        assert!(end.warnings.cross_chunk_edges > 0 && !end.pending.is_empty());
        assert_same("pgt", direct, ahead);

        let direct = drain_direct(JsonlSource::new(jsonl.as_bytes()), chunk, seed());
        let ahead = drain_ahead(JsonlSource::new(Cursor::new(jsonl)), chunk, seed());
        assert_same("jsonl", direct, ahead);

        let csv = |n: &str, e: &str| {
            CsvSource::new(Cursor::new(n.to_string()), Some(Cursor::new(e.to_string())))
        };
        let direct = drain_direct(csv(&nodes_csv, &edges_csv), chunk, seed());
        let ahead = drain_ahead(csv(&nodes_csv, &edges_csv), chunk, seed());
        assert!(direct.1.as_ref().is_ok_and(|end| !end.pending.is_empty()));
        assert_same("csv", direct, ahead);
    }

    /// Yields `inner`'s records until `left` runs out, then fails: with an
    /// error, or with a panic.
    struct FailAfter<S> {
        inner: S,
        left: usize,
        panic: bool,
    }

    impl<S: RawGraphSource> RawGraphSource for FailAfter<S> {
        fn read_record(&mut self, buf: &mut RecordBuf) -> Result<bool, StreamError> {
            if self.left == 0 {
                if self.panic {
                    panic!("source panics mid-stream");
                }
                return Err(StreamError::Parse {
                    line: 0,
                    msg: "source fails mid-stream".into(),
                });
            }
            self.left -= 1;
            self.inner.read_record(buf)
        }

        fn format_name(&self) -> &'static str {
            self.inner.format_name()
        }
    }

    #[test]
    fn a_failing_or_panicking_source_ends_the_stream_after_its_earlier_chunks() {
        let text = dataset(3 * BATCH_RECORDS);
        // Two full batches, then part of a third.
        let left = 2 * BATCH_RECORDS + 60;
        let source = |panic| FailAfter {
            inner: PgtSource::new(Cursor::new(text.clone())),
            left,
            panic,
        };
        let direct = drain_direct(source(false), 100, LabelSetRegistry::default());
        assert_eq!(direct.0.len(), left / 100, "chunks before the error");
        let failed = drain_ahead(source(false), 100, LabelSetRegistry::default());
        assert_eq!(failed.1.as_ref().err(), direct.1.as_ref().err());
        assert_eq!(failed.0, direct.0);
        // A parse thread that dies loses the batch it was filling: the
        // chunks built from the two full batches arrive, then a named error
        // instead of a hang.
        let (chunks, end) = drain_ahead(source(true), 100, LabelSetRegistry::default());
        assert_eq!(chunks, direct.0[..2 * BATCH_RECORDS / 100]);
        let err = end.expect_err("a dead parse thread is an error");
        assert!(
            err.contains("pg-hive-parse terminated unexpectedly"),
            "{err}"
        );
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

    /// A source that raises `dropped` when it is dropped, which happens on
    /// the parse thread as that thread ends.
    struct Watched<S> {
        inner: S,
        dropped: Arc<AtomicBool>,
    }

    impl<S: RawGraphSource> RawGraphSource for Watched<S> {
        fn read_record(&mut self, buf: &mut RecordBuf) -> Result<bool, StreamError> {
            self.inner.read_record(buf)
        }

        fn format_name(&self) -> &'static str {
            self.inner.format_name()
        }
    }

    impl<S> Drop for Watched<S> {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn dropping_the_consumer_early_does_not_hang() {
        // Many batches and chunks, tiny channel: both stages block on a
        // full channel; dropping the consumer must unblock and join them.
        let text = dataset(4 * BATCH_RECORDS);
        let dropped = Arc::new(AtomicBool::new(false));
        let source = Watched {
            inner: PgtSource::new(Cursor::new(text.into_bytes())),
            dropped: Arc::clone(&dropped),
        };
        let mut ahead = ReadAheadChunks::spawn(source, 8, 1);
        let first = ahead.next_chunk().unwrap();
        assert!(first.is_some());
        drop(ahead); // must not deadlock
                     // The chunk thread owns the parse stage and joins it as it ends, and
                     // dropping the consumer joins the chunk thread: so the parse thread
                     // has finished, and dropped its source, by now.
        assert!(dropped.load(Ordering::SeqCst), "both threads joined");
    }
}
