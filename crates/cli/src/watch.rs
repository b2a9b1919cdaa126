//! `pg-hive watch` — long-running schema-drift monitoring.
//!
//! The watcher keeps one resident canonical [`SchemaState`] and, on every
//! pass, re-ingests only the bytes **appended** to the input since the
//! previous pass (per-file byte offsets; a shrunken file is treated as a
//! rotation and re-ingested from scratch). Appended records are chunked and
//! absorbed into the resident state — incremental and associative, not
//! repeated full re-discovery — and the pass's finalized schema is diffed
//! against the previous one. Drift events are printed with the same
//! monotonicity verdict as `pg-hive diff`; with `--once` the process
//! performs exactly one re-check after the baseline and exits 1 when drift
//! was detected (0 otherwise), which is the CI-friendly mode.
//!
//! The input may also be a **directory tree** of mixed-format files
//! ([`pg_hive_graph::MultiSource`] enumeration: `*.pgt`, `*.jsonl`,
//! sub-directories holding `nodes.csv`). Every enumerated input is tracked
//! with its own per-file offsets and absorbed in stable sorted order; the
//! file set is fixed at watch start (restart the watcher to pick up new
//! files).
//!
//! Edges appended in a later pass usually reference nodes ingested in an
//! earlier one; each pass is one accumulator of the ingest fold
//! ([`Ingest`]) through which the id → label-set registry moves from pass
//! to pass, so such edges resolve through labeled stubs and are counted as
//! cross-chunk warnings instead of being dropped. Warnings are aggregated
//! **per category** across passes — whenever the totals change, one
//! breakdown line with the running counts is printed, never the same
//! warning repeated pass after pass.
//!
//! Partially written trailing lines are left unconsumed (the delta is cut
//! at the last newline), so appending concurrently with a pass never
//! corrupts a record — it is simply picked up by the next pass.
//!
//! # Durability (`--state-dir`)
//!
//! With `--state-dir <dir>`, the watcher checkpoints its **full resumable
//! context** — the [`SchemaState`] pools, the id → label-set registry, the
//! per-file offsets/fingerprints, and the discovery-config guard — to
//! `<dir>/watch.snapshot` after every pass, atomically (temp file +
//! rename; see [`pg_hive_core::snapshot`]). On start, an existing
//! checkpoint is loaded and the run continues exactly where the killed
//! process stopped: the next pass ingests only bytes appended since the
//! last checkpoint, pass numbering continues, and a restart with no new
//! bytes never fires a spurious drift event. A corrupt, truncated,
//! future-version, or configuration-incompatible checkpoint is refused
//! with a named `snapshot:` error — never silently re-ingested.
//!
//! # Snapshot lifecycle (`--keep`, `--partition`)
//!
//! `--keep K` retains the last K rotated snapshots as
//! `<dir>/watch.snapshot.1` (most recent) through `.K`, pruning older
//! slots; the live `watch.snapshot` itself is always promoted atomically.
//! Without `--partition`, the previous checkpoint rotates into the chain on
//! every pass, so the retained files are the last K pass checkpoints.
//! With `--partition passes:<n>` the resident state is **rolled** into a
//! retained snapshot every n passes and a fresh child state takes over;
//! the reported schema is then the merge of the current partition and the
//! retained window — "the schema of the last K partitions". Dropping an
//! expired partition can therefore produce *non-monotone* drift: types
//! only old data supported disappear, which is exactly the point. When a
//! partition falls out of the window, registry bindings older than the
//! window are compacted away ([`LabelSetRegistry::compact_before`]),
//! bounding the otherwise append-only registry under rotation. An input
//! rotation resets the resident partition but leaves the retained window
//! intact — history already rolled is history. Retained snapshots are
//! ordinary engine states: `pg-hive merge-state` can fold any subset of
//! them back together offline.
//!
//! # Alerting (`--on-drift`)
//!
//! Each `--on-drift exec:<cmd>` / `--on-drift jsonl:<path>` flag attaches
//! a [`crate::sink::DriftSink`]; every drift pass delivers one structured
//! [`crate::sink::DriftEvent`] (pass number, timestamp, diff summary,
//! monotonicity verdict) to every sink.

use crate::args::StreamOpts;
use crate::sink::{emit_all, unix_timestamp, DriftEvent, DriftSink};
use crate::{enumerate_tree, is_multi_input};
use pg_hive_core::schema::SchemaGraph;
use pg_hive_core::serialize::pg_schema_strict;
use pg_hive_core::snapshot::{
    context_snapshot_cached, FileCheckpoint, ResumeContext, Snapshot, SnapshotConfig,
    WatchCheckpoint,
};
use pg_hive_core::{diff_schemas, Discoverer, Ingest, SchemaState, SignatureCache, UnitSource};
use pg_hive_graph::stream::{csv::CsvSource, jsonl::JsonlSource, pgt::PgtSource};
use pg_hive_graph::{LabelSetRegistry, RawGraphSource, SourceKind, StreamWarnings};
use std::collections::VecDeque;
use std::io::{Cursor, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// File name of the checkpoint inside `--state-dir`. Rotated snapshots
/// live next to it as `watch.snapshot.1` (most recent) … `.K`.
const SNAPSHOT_FILE: &str = "watch.snapshot";

/// How many trailing consumed bytes are remembered to recognize a file
/// that was truncated and rewritten *past* the old offset between passes
/// (logrotate `copytruncate` + a fast writer): the length check alone
/// cannot see that.
const ROTATION_TAIL: usize = 64;

/// One watched file: consumed byte offset, the last consumed bytes (a
/// rotation fingerprint), plus, for CSV, the retained header line
/// (appended records do not repeat it).
struct TrackedFile {
    path: PathBuf,
    offset: u64,
    tail: Vec<u8>,
    header: Option<Vec<u8>>,
    required: bool,
}

enum FileDelta {
    Unchanged,
    Rotated,
    Appended(Vec<u8>),
}

impl TrackedFile {
    fn new(path: PathBuf, required: bool) -> Self {
        Self {
            path,
            offset: 0,
            tail: Vec::new(),
            header: None,
            required,
        }
    }

    fn reset(&mut self) {
        self.offset = 0;
        self.tail.clear();
        self.header = None;
    }

    /// Read the bytes appended since the last pass, cut at the last
    /// newline. `keep_header` retains the first-ever line separately and
    /// prepends it to every later delta (CSV headers).
    fn read_delta(&mut self, keep_header: bool) -> Result<FileDelta, String> {
        let len = match std::fs::metadata(&self.path) {
            Ok(m) => m.len(),
            Err(e) if self.required => {
                return Err(format!("cannot read {}: {e}", self.path.display()))
            }
            Err(_) => return Ok(FileDelta::Unchanged),
        };
        if len < self.offset {
            return Ok(FileDelta::Rotated);
        }
        let mut f = std::fs::File::open(&self.path)
            .map_err(|e| format!("cannot read {}: {e}", self.path.display()))?;
        // Same-or-larger length does not prove the same file: verify the
        // bytes we already consumed still end the way we remember before
        // trusting the offset.
        if !self.tail.is_empty() {
            let tail_start = self.offset - self.tail.len() as u64;
            f.seek(SeekFrom::Start(tail_start))
                .map_err(|e| format!("cannot seek {}: {e}", self.path.display()))?;
            let mut probe = vec![0u8; self.tail.len()];
            if f.read_exact(&mut probe).is_err() || probe != self.tail {
                return Ok(FileDelta::Rotated);
            }
        }
        if len == self.offset {
            return Ok(FileDelta::Unchanged);
        }
        f.seek(SeekFrom::Start(self.offset))
            .map_err(|e| format!("cannot seek {}: {e}", self.path.display()))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)
            .map_err(|e| format!("cannot read {}: {e}", self.path.display()))?;
        // A writer may be mid-append: consume only whole lines.
        let cut = buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        buf.truncate(cut);
        if buf.is_empty() {
            return Ok(FileDelta::Unchanged);
        }
        self.offset += buf.len() as u64;
        let keep = buf.len().min(ROTATION_TAIL);
        self.tail.extend_from_slice(&buf[buf.len() - keep..]);
        let excess = self.tail.len().saturating_sub(ROTATION_TAIL);
        self.tail.drain(..excess);
        if keep_header {
            match &self.header {
                None => {
                    let nl = buf
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(buf.len(), |i| i + 1);
                    self.header = Some(buf[..nl].to_vec());
                    // This first delta already starts with the header.
                }
                Some(h) => {
                    let mut with_header = h.clone();
                    with_header.extend_from_slice(&buf);
                    buf = with_header;
                }
            }
        }
        Ok(FileDelta::Appended(buf))
    }
}

/// What one pass found on disk.
struct PassRead {
    /// Some input shrank (log rotation / truncation): the resident state
    /// and registry were invalidated and the sources below hold the full
    /// re-read content.
    rotated: bool,
    /// One parser per input that had appended (or, after rotation, any)
    /// records, in stable enumeration order; empty when nothing changed.
    sources: Vec<Box<dyn RawGraphSource>>,
}

/// One watched input: one file for pgt/jsonl, the `nodes.csv` (+ optional
/// `edges.csv`) pair for CSV.
struct WatchUnit {
    format: SourceKind,
    files: Vec<TrackedFile>,
}

impl WatchUnit {
    fn single(path: PathBuf, format: SourceKind) -> Self {
        let files = match format {
            SourceKind::Pgt | SourceKind::Jsonl => vec![TrackedFile::new(path, true)],
            SourceKind::Csv => vec![
                TrackedFile::new(path.join("nodes.csv"), true),
                TrackedFile::new(path.join("edges.csv"), false),
            ],
        };
        Self { format, files }
    }
}

/// The watched input set: one [`WatchUnit`] for a single-file (or CSV
/// dataset) input, one per enumerated entry for a directory tree.
struct WatchedInput {
    units: Vec<WatchUnit>,
}

impl WatchedInput {
    fn open(path: &str, format: SourceKind) -> Result<Self, String> {
        if is_multi_input(path, format) {
            let units = enumerate_tree(path)?
                .entries()
                .iter()
                .map(|e| WatchUnit::single(e.path.clone(), e.kind))
                .collect();
            return Ok(Self { units });
        }
        Ok(Self {
            units: vec![WatchUnit::single(PathBuf::from(path), format)],
        })
    }

    /// Every tracked file across units, in enumeration order — the flat
    /// list a checkpoint persists.
    fn tracked_files(&self) -> impl Iterator<Item = &TrackedFile> {
        self.units.iter().flat_map(|u| u.files.iter())
    }

    fn read_pass(&mut self) -> Result<PassRead, String> {
        let mut deltas: Vec<Vec<FileDelta>> = Vec::with_capacity(self.units.len());
        let mut rotated = false;
        'scan: for u in &mut self.units {
            let keep_header = u.format == SourceKind::Csv;
            let mut ds = Vec::with_capacity(u.files.len());
            for f in &mut u.files {
                match f.read_delta(keep_header)? {
                    FileDelta::Rotated => {
                        rotated = true;
                        break 'scan;
                    }
                    d => ds.push(d),
                }
            }
            deltas.push(ds);
        }
        if rotated {
            // One shrunken file invalidates the whole resident state:
            // restart every offset and re-read every input's full content.
            deltas.clear();
            for u in &mut self.units {
                let keep_header = u.format == SourceKind::Csv;
                let mut ds = Vec::with_capacity(u.files.len());
                for f in &mut u.files {
                    f.reset();
                    ds.push(match f.read_delta(keep_header)? {
                        FileDelta::Rotated => FileDelta::Unchanged, // racing writer; next pass
                        d => d,
                    });
                }
                deltas.push(ds);
            }
        }
        let mut sources: Vec<Box<dyn RawGraphSource>> = Vec::new();
        for (u, ds) in self.units.iter().zip(deltas) {
            let mut bufs: Vec<Option<Vec<u8>>> = ds
                .into_iter()
                .map(|d| match d {
                    FileDelta::Appended(b) => Some(b),
                    _ => None,
                })
                .collect();
            if bufs.iter().all(Option::is_none) {
                continue;
            }
            let source: Box<dyn RawGraphSource> = match u.format {
                SourceKind::Pgt => Box::new(PgtSource::new(Cursor::new(
                    bufs[0].take().unwrap_or_default(),
                ))),
                SourceKind::Jsonl => Box::new(JsonlSource::new(Cursor::new(
                    bufs[0].take().unwrap_or_default(),
                ))),
                SourceKind::Csv => {
                    // An untouched nodes.csv still contributes its header so
                    // the source can parse appended edge records.
                    let nodes = bufs[0]
                        .take()
                        .or_else(|| u.files[0].header.clone())
                        .unwrap_or_default();
                    let edges = bufs[1].take();
                    Box::new(CsvSource::new(Cursor::new(nodes), edges.map(Cursor::new)))
                }
            };
            sources.push(source);
        }
        Ok(PassRead { rotated, sources })
    }
}

/// One aggregated per-category warning line: only categories that occurred,
/// each with its running total.
fn warning_breakdown(w: &StreamWarnings) -> String {
    let mut parts = Vec::new();
    for (count, what) in [
        (
            w.cross_chunk_edges,
            "cross-chunk edge(s) resolved through stubs",
        ),
        (
            w.unresolved_edges,
            "edge(s) dropped (endpoint never declared)",
        ),
        (w.evicted_edges, "edge(s) evicted from the pending buffer"),
        (w.deferred_edges, "edge(s) arrived before an endpoint"),
        (w.duplicate_nodes, "duplicate node id(s)"),
    ] {
        if count > 0 {
            parts.push(format!("{count} {what}"));
        }
    }
    parts.join(", ")
}

/// Absorb one pass — every source's appended records — into the run as one
/// pass accumulator, returning `(elements, chunks)`. The resident registry
/// is moved through each source's unit in turn and moved back by
/// assignment, so edges that cross passes or inputs become in-chunk stubs
/// and bindings keep their generation stamps (the `--partition` GC depends
/// on them; [`Ingest::merge`] would restamp every binding). Chunks go
/// through the cross-pass signature cache. A directory tree is enumerated
/// alphabetically, so an input can reference nodes a *later* input of the
/// same pass declares: carried edges resolve once every source is in, and
/// what still does not resolve is counted as unresolved and dropped (its
/// endpoint may yet arrive in a later pass, but the resident state cannot
/// hold unembedded records indefinitely). The pass's state is a delta
/// merged into the resident state — associativity makes this
/// byte-identical to folding chunk states straight into it.
fn absorb_pass(
    run: &mut WatchRun,
    sources: Vec<Box<dyn RawGraphSource>>,
    opts: &StreamOpts,
    threads: usize,
    discoverer: &Discoverer,
) -> Result<(u64, usize), String> {
    let mut pass = Ingest::new(discoverer.new_state());
    pass.registry = std::mem::take(&mut run.ingest.registry);
    let mut chunks = 0;
    for source in sources {
        let report = discoverer
            .absorb_unit(
                &mut pass,
                UnitSource::Inline(source),
                opts.chunk_size,
                threads,
                Some(&run.cache),
                &mut |_| {},
            )
            .map_err(|e| format!("parse error while watching: {e}"))?;
        chunks += report.chunk_times.len();
    }
    pass.resolve(discoverer);
    run.ingest.warnings.absorb(&pass.warnings);
    run.ingest.warnings.unresolved_edges += pass.pending.len() as u64;
    run.ingest.registry = pass.registry;
    run.ingest.state.merge(pass.state);
    Ok((pass.elements, chunks))
}

impl TrackedFile {
    fn to_checkpoint(&self) -> FileCheckpoint {
        FileCheckpoint {
            path: self.path.display().to_string(),
            offset: self.offset,
            tail: self.tail.clone(),
            header: self.header.clone(),
            required: self.required,
        }
    }

    fn restore(&mut self, cp: &FileCheckpoint) {
        self.offset = cp.offset;
        self.tail = cp.tail.clone();
        self.header = cp.header.clone();
    }
}

/// The mutable engine context the watch loop threads through passes —
/// exactly what a `--state-dir` checkpoint persists, plus the retained
/// partition window (`--partition`), whose states live in the rotated
/// snapshot files rather than the checkpoint itself.
struct WatchRun {
    /// The resident (current-partition) fold: its state, the id →
    /// label-set registry, and the warning totals across passes. Edges
    /// still pending after a pass are dropped, so `pending` stays empty.
    ingest: Ingest,
    pass: u64,
    /// Completed partition states, most recent first, capped at `--keep`.
    retained: VecDeque<SchemaState>,
    /// Cross-pass signature cache: chunks whose structure repeats an
    /// earlier pass (or an earlier chunk) skip embedding + LSH entirely.
    /// Persisted in the checkpoint so a restart resumes warm.
    cache: SignatureCache,
}

impl WatchRun {
    /// A run over the resident fold `ingest` at pass `pass`, with an empty
    /// retained window.
    fn new(ingest: Ingest, pass: u64, cache: SignatureCache) -> Self {
        Self {
            ingest,
            pass,
            retained: VecDeque::new(),
            cache,
        }
    }

    /// The schema this watch reports: the resident partition merged with
    /// every retained one ("the schema of the last K partitions"),
    /// finalized. Folded on demand each pass: a window holds at most
    /// `--keep` partitions, and merge is associative and commutative.
    fn merged_schema(&self) -> SchemaGraph {
        let mut acc = self.ingest.state.clone();
        for s in &self.retained {
            acc.merge(s.clone());
        }
        acc.finalize()
    }

    /// Roll the resident partition into the retained window: the resident
    /// state becomes the most recent retained snapshot, `fresh` takes over,
    /// and the registry starts a new generation. Once the window overflows
    /// `keep`, the oldest partition is dropped and every registry binding
    /// older than the window is compacted away — this is what bounds the
    /// otherwise append-only id → label-set registry under rotation.
    fn roll_partition(&mut self, keep: usize, fresh: SchemaState) {
        let done = std::mem::replace(&mut self.ingest.state, fresh);
        self.retained.push_front(done);
        self.ingest.registry.advance_generation();
        if self.retained.len() > keep {
            self.retained.truncate(keep);
            let min_gen = self
                .ingest
                .registry
                .generation()
                .saturating_sub(keep as u32);
            self.ingest.registry.compact_before(min_gen);
        }
    }
}

/// Write the full resumable context to `<dir>/watch.snapshot` atomically
/// (temp file + rename — the promote step). With `rotate_keep` set
/// (`--keep` without `--partition`), the previous checkpoint is first
/// rotated into the `.1..K` chain instead of being overwritten; a rotation
/// that fails is a `snapshot:` error and nothing is written.
fn save_checkpoint(
    dir: &Path,
    config: &SnapshotConfig,
    path: &str,
    format: SourceKind,
    input: &WatchedInput,
    run: &WatchRun,
    rotate_keep: Option<usize>,
) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create state dir {}: {e}", dir.display()))?;
    if let Some(keep) = rotate_keep {
        Snapshot::rotate(&dir.join(SNAPSHOT_FILE), keep, true).map_err(|e| e.to_string())?;
    }
    let watch = WatchCheckpoint {
        input: path.to_string(),
        format: format.name().to_string(),
        pass: run.pass,
        warnings: run.ingest.warnings,
        files: input
            .tracked_files()
            .map(TrackedFile::to_checkpoint)
            .collect(),
    };
    // Serialize from borrowed parts: the state pools and the registry (one
    // entry per node id ever seen) are the large pieces, and this runs
    // after *every* pass — cloning them into an owned ResumeContext first
    // would double the checkpoint's memory cost for nothing. The signature
    // cache rides along in its optional section so a restart resumes warm.
    context_snapshot_cached(
        config,
        &run.ingest.state,
        &run.ingest.registry,
        Some(&watch),
        &[],
        Some(&run.cache),
    )
    .write_atomic(&dir.join(SNAPSHOT_FILE))
    .map_err(|e| e.to_string())
}

/// Persist a just-completed partition as rotated snapshot `.1` (shifting
/// the chain first). The file is an ordinary engine state with no watch
/// progress — `pg-hive merge-state` can fold any subset of retained
/// partitions back together offline.
fn save_partition(
    dir: &Path,
    config: &SnapshotConfig,
    run: &WatchRun,
    keep: usize,
) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create state dir {}: {e}", dir.display()))?;
    Snapshot::rotate(&dir.join(SNAPSHOT_FILE), keep, false).map_err(|e| e.to_string())?;
    context_snapshot_cached(
        config,
        &run.ingest.state,
        &run.ingest.registry,
        None,
        &[],
        None,
    )
    .write_atomic(&dir.join(format!("{SNAPSHOT_FILE}.1")))
    .map_err(|e| e.to_string())
}

/// Load the retained partition states `.1..K` (most recent first), stopping
/// at the first missing slot.
fn load_retained(
    dir: &Path,
    keep: usize,
    config: &SnapshotConfig,
) -> Result<VecDeque<SchemaState>, String> {
    let mut retained = VecDeque::new();
    for i in 1..=keep {
        let p = dir.join(format!("{SNAPSHOT_FILE}.{i}"));
        if !p.exists() {
            break;
        }
        let ctx =
            ResumeContext::load(&p).map_err(|e| format!("{e} (while loading {})", p.display()))?;
        ctx.config
            .ensure_matches(config)
            .map_err(|e| e.to_string())?;
        retained.push_back(ctx.ingest.state);
    }
    Ok(retained)
}

/// Load `<dir>/watch.snapshot` if present, validate it against this run's
/// input and configuration, and restore the per-file read positions.
/// Returns `None` when no checkpoint exists (a fresh start); any *invalid*
/// checkpoint — corrupt, truncated, future-version, wrong input, or
/// incompatible configuration — is a named `snapshot:` error, never a
/// silent re-ingest.
fn try_resume(
    dir: &Path,
    config: &SnapshotConfig,
    path: &str,
    format: SourceKind,
    input: &mut WatchedInput,
) -> Result<Option<WatchRun>, String> {
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    if !snapshot_path.exists() {
        return Ok(None);
    }
    let load_err =
        |e: pg_hive_core::SnapshotError| format!("{e} (while loading {})", snapshot_path.display());
    let ctx = ResumeContext::load(&snapshot_path).map_err(load_err)?;
    ctx.config
        .ensure_matches(config)
        .map_err(|e| e.to_string())?;
    let watch = ctx.watch.ok_or_else(|| {
        format!(
            "snapshot: {} has no watch progress — it was written by `discover --save-state`, \
             not `watch --state-dir`",
            snapshot_path.display()
        )
    })?;
    if watch.input != path {
        return Err(format!(
            "snapshot: the checkpoint was saved for input '{}', this run watches '{path}' — \
             point watch at the same input or use a different --state-dir",
            watch.input
        ));
    }
    if watch.format != format.name() {
        return Err(format!(
            "snapshot: the checkpoint was saved for --input-format {}, this run uses {}",
            watch.format,
            format.name()
        ));
    }
    let tracked = input.tracked_files().count();
    if watch.files.len() != tracked {
        return Err(format!(
            "snapshot: the checkpoint tracks {} file(s), this input has {} — the watched \
             file set is fixed at watch start; use a fresh --state-dir after changing it",
            watch.files.len(),
            tracked
        ));
    }
    let mut idx = 0;
    for unit in &mut input.units {
        for tracked in &mut unit.files {
            tracked.restore(&watch.files[idx]);
            idx += 1;
        }
    }
    let ingest = Ingest {
        warnings: watch.warnings,
        ..ctx.ingest
    };
    Ok(Some(WatchRun::new(ingest, watch.pass, ctx.cache)))
}

/// Run the watch loop. `--once` performs the baseline pass plus exactly one
/// re-check and exits with the `diff` exit-code semantics (1 = drift);
/// without it the loop runs until the process is killed or the input
/// becomes unreadable. With `state_dir` set, the loop checkpoints after
/// every pass and auto-resumes from an existing checkpoint on start; each
/// drift event is also delivered to every `sink`. `keep` retains rotated
/// snapshots, and `partition_passes` rolls the resident state into the
/// retained window every n passes (see the module docs).
#[allow(clippy::too_many_arguments)] // mirrors the CLI surface one-to-one
pub fn run_watch(
    path: &str,
    opts: &StreamOpts,
    discoverer: &Discoverer,
    interval: Duration,
    once: bool,
    state_dir: Option<&str>,
    keep: Option<usize>,
    partition_passes: Option<u64>,
    sinks: &[DriftSink],
) -> Result<ExitCode, String> {
    let mut input = WatchedInput::open(path, opts.input_format)?;
    let threads = crate::resolve_threads(opts);
    let config = SnapshotConfig::new(discoverer.config(), opts.chunk_size);
    let state_dir = state_dir.map(Path::new);
    // --keep without --partition rotates the previous checkpoint on every
    // pass; with --partition the rotated slots hold completed partitions.
    let rotate_keep = if partition_passes.is_none() {
        keep
    } else {
        None
    };
    let resumed = match state_dir {
        Some(dir) => try_resume(dir, &config, path, opts.input_format, &mut input)?,
        None => None,
    };

    let mut run;
    let mut schema;
    match resumed {
        Some(mut r) => {
            // Resume: the baseline is the checkpointed state (plus, with
            // --partition, the retained window reloaded from the rotated
            // snapshots), finalized — byte-identical to what the killed
            // process last saw, so a restart with no new bytes can never
            // fire a spurious drift event.
            if let (Some(dir), Some(k), Some(_)) = (state_dir, keep, partition_passes) {
                r.retained = load_retained(dir, k, &config)?;
            }
            run = r;
            schema = run.merged_schema();
            eprintln!(
                "watch {path}: resumed from checkpoint (pass {}, {} node type(s), {} edge \
                 type(s), {} registered id(s), {} retained partition(s)); re-checking every \
                 {}s{}",
                run.pass,
                schema.node_types.len(),
                schema.edge_types.len(),
                run.ingest.registry.len(),
                run.retained.len(),
                interval.as_secs(),
                if once { " (once)" } else { "" }
            );
        }
        None => {
            run = WatchRun::new(
                Ingest::new(discoverer.new_state()),
                1,
                SignatureCache::default(),
            );
            // Baseline pass.
            let read = input.read_pass()?;
            let (elements, chunks) =
                absorb_pass(&mut run, read.sources, opts, threads, discoverer)?;
            if elements == 0 {
                // The named empty-input error: an empty (or CSV header-only)
                // input would otherwise masquerade as a stable empty schema
                // and every future pass would report drift against nothing.
                return Err(format!(
                    "empty input: {path} contains no graph elements (nodes or edges) — \
                     nothing to watch"
                ));
            }
            schema = run.merged_schema();
            eprintln!(
                "watch {path}: baseline {} element(s) in {} chunk(s) -> {} node type(s), \
                 {} edge type(s); re-checking every {}s{}",
                elements,
                chunks,
                schema.node_types.len(),
                schema.edge_types.len(),
                interval.as_secs(),
                if once { " (once)" } else { "" }
            );
            if let Some(dir) = state_dir {
                if let (Some(n), Some(k)) = (partition_passes, keep) {
                    if run.pass % n == 0 {
                        save_partition(dir, &config, &run, k)?;
                        run.roll_partition(k, discoverer.new_state());
                    }
                }
                save_checkpoint(
                    dir,
                    &config,
                    path,
                    opts.input_format,
                    &input,
                    &run,
                    rotate_keep,
                )?;
            }
        }
    }

    let mut drifted = false;
    loop {
        std::thread::sleep(interval);
        run.pass += 1;
        let pass = run.pass;
        let read = input.read_pass()?;
        if read.rotated {
            eprintln!("pass {pass}: input rotated/truncated — re-ingesting from scratch");
            run.ingest.state = discoverer.new_state();
            // Preserve the generation counter across the reset so any
            // retained partitions keep their place in the compaction
            // arithmetic.
            let generation = run.ingest.registry.generation();
            run.ingest.registry = LabelSetRegistry::default();
            for _ in 0..generation {
                run.ingest.registry.advance_generation();
            }
        }
        let warnings_before = run.ingest.warnings;
        let (elements, _) = absorb_pass(&mut run, read.sources, opts, threads, discoverer)?;
        if run.ingest.warnings != warnings_before {
            eprintln!(
                "pass {pass}: warnings so far: {}",
                warning_breakdown(&run.ingest.warnings)
            );
        }
        let new_schema = run.merged_schema();
        let diff = diff_schemas(&schema, &new_schema);
        if diff.is_empty() {
            println!("pass {pass}: +{elements} element(s), no schema drift");
        } else {
            drifted = true;
            println!(
                "pass {pass}: +{elements} element(s), schema drift detected ({}):",
                if diff.is_monotone() {
                    "monotone: additions/relaxations only"
                } else {
                    "NON-monotone: contains removals or tightenings"
                }
            );
            print!("{diff}");
            emit_all(
                sinks,
                &DriftEvent {
                    tenant: None,
                    pass,
                    timestamp: unix_timestamp(),
                    elements_added: elements,
                    diff: &diff,
                },
            );
        }
        schema = new_schema;
        if let Some(dir) = state_dir {
            if let (Some(n), Some(k)) = (partition_passes, keep) {
                if run.pass % n == 0 {
                    save_partition(dir, &config, &run, k)?;
                    run.roll_partition(k, discoverer.new_state());
                }
            }
            save_checkpoint(
                dir,
                &config,
                path,
                opts.input_format,
                &input,
                &run,
                rotate_keep,
            )?;
        }
        if once {
            crate::report_warnings(&run.ingest.warnings);
            // Emit the final schema so CI (and the e2e suite) can assert it
            // is byte-identical to `discover --stream --format strict`.
            print!("{}", pg_schema_strict(&schema, "Discovered"));
            return Ok(if drifted {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_hive_core::PipelineConfig;

    fn temp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pg-hive-watch-unit-{}-{name}", std::process::id()));
        p
    }

    fn appended(d: FileDelta) -> Vec<u8> {
        match d {
            FileDelta::Appended(b) => b,
            FileDelta::Unchanged => panic!("expected Appended, got Unchanged"),
            FileDelta::Rotated => panic!("expected Appended, got Rotated"),
        }
    }

    #[test]
    fn appended_bytes_are_consumed_once() {
        let p = temp("append");
        std::fs::write(&p, "N a Person -\n").unwrap();
        let mut t = TrackedFile::new(p.clone(), true);
        assert_eq!(appended(t.read_delta(false).unwrap()), b"N a Person -\n");
        assert!(matches!(t.read_delta(false).unwrap(), FileDelta::Unchanged));
        let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        std::io::Write::write_all(&mut f, b"N b Org -\n").unwrap();
        assert_eq!(appended(t.read_delta(false).unwrap()), b"N b Org -\n");
    }

    #[test]
    fn partial_trailing_line_waits_for_the_next_pass() {
        let p = temp("partial");
        std::fs::write(&p, "N a Person -\nN b Org").unwrap(); // no trailing \n
        let mut t = TrackedFile::new(p.clone(), true);
        assert_eq!(appended(t.read_delta(false).unwrap()), b"N a Person -\n");
        // The half-written line is not consumed...
        assert!(matches!(t.read_delta(false).unwrap(), FileDelta::Unchanged));
        // ...until its newline lands.
        let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        std::io::Write::write_all(&mut f, b" url=x\n").unwrap();
        assert_eq!(appended(t.read_delta(false).unwrap()), b"N b Org url=x\n");
    }

    #[test]
    fn shrunken_file_is_a_rotation() {
        let p = temp("shrink");
        std::fs::write(&p, "N a Person -\nN b Person -\n").unwrap();
        let mut t = TrackedFile::new(p.clone(), true);
        appended(t.read_delta(false).unwrap());
        std::fs::write(&p, "N z Other -\n").unwrap();
        assert!(matches!(t.read_delta(false).unwrap(), FileDelta::Rotated));
    }

    #[test]
    fn truncate_and_regrow_past_the_offset_is_a_rotation() {
        // Regression: the length check alone (len < offset) misses
        // logrotate copytruncate followed by a fast writer refilling the
        // file beyond the old offset; the consumed-tail fingerprint
        // catches it.
        let p = temp("regrow");
        std::fs::write(&p, "N a Person -\n").unwrap();
        let mut t = TrackedFile::new(p.clone(), true);
        appended(t.read_delta(false).unwrap());
        std::fs::write(&p, "N zz Other -\nN yy Other -\nN xx Other -\n").unwrap();
        assert!(matches!(t.read_delta(false).unwrap(), FileDelta::Rotated));
    }

    #[test]
    fn csv_header_is_retained_and_prepended_to_later_deltas() {
        let p = temp("header");
        std::fs::write(&p, "id,labels,name\na,Person,Ann\n").unwrap();
        let mut t = TrackedFile::new(p.clone(), true);
        // First delta starts with the header itself.
        assert_eq!(
            appended(t.read_delta(true).unwrap()),
            b"id,labels,name\na,Person,Ann\n"
        );
        let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        std::io::Write::write_all(&mut f, b"b,Person,Bob\n").unwrap();
        // Later deltas get the retained header prepended.
        assert_eq!(
            appended(t.read_delta(true).unwrap()),
            b"id,labels,name\nb,Person,Bob\n"
        );
    }

    #[test]
    fn directory_input_enumerates_units_and_reads_mixed_deltas() {
        let root = temp("tree");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("a.pgt"), "N p1 Person -\n").unwrap();
        let csvdir = root.join("orgs");
        std::fs::create_dir_all(&csvdir).unwrap();
        std::fs::write(csvdir.join("nodes.csv"), "id,labels\no1,Org\n").unwrap();

        let mut input = WatchedInput::open(root.to_str().unwrap(), SourceKind::Pgt).unwrap();
        assert_eq!(input.units.len(), 2);
        // Sorted enumeration: a.pgt before orgs/.
        assert_eq!(input.units[0].format, SourceKind::Pgt);
        assert_eq!(input.units[1].format, SourceKind::Csv);
        assert_eq!(input.tracked_files().count(), 3); // a.pgt + nodes.csv + edges.csv

        let read = input.read_pass().unwrap();
        assert!(!read.rotated);
        assert_eq!(read.sources.len(), 2);

        // Appending to just one file yields just that unit's source.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(root.join("a.pgt"))
            .unwrap();
        std::io::Write::write_all(&mut f, b"N p2 Person -\n").unwrap();
        let read = input.read_pass().unwrap();
        assert_eq!(read.sources.len(), 1);
        assert_eq!(read.sources[0].format_name(), "pgt");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn three_pass_warning_counts_aggregate_per_category() {
        // Satellite: warnings aggregate per category across passes with
        // running counts, instead of repeating one line per occurrence.
        let mut total = StreamWarnings::default();
        for _ in 0..3 {
            let pass = StreamWarnings {
                cross_chunk_edges: 2,
                duplicate_nodes: 1,
                ..StreamWarnings::default()
            };
            total.absorb(&pass);
        }
        assert_eq!(total.cross_chunk_edges, 6);
        assert_eq!(total.duplicate_nodes, 3);
        let line = warning_breakdown(&total);
        assert!(line.contains("6 cross-chunk edge(s)"), "{line}");
        assert!(line.contains("3 duplicate node id(s)"), "{line}");
        // Zero categories are deduped out of the breakdown entirely.
        assert!(!line.contains("dropped"), "{line}");
        assert!(!line.contains("evicted"), "{line}");
        assert_eq!(warning_breakdown(&StreamWarnings::default()), "");
    }

    #[test]
    fn partition_roll_retains_k_states_and_compacts_registry() {
        let discoverer = Discoverer::new(PipelineConfig::default());
        let opts = StreamOpts::default();
        let mut run = WatchRun::new(
            Ingest::new(discoverer.new_state()),
            1,
            SignatureCache::default(),
        );
        let absorb = |run: &mut WatchRun, text: &'static str| {
            let source = PgtSource::new(Cursor::new(text.as_bytes().to_vec()));
            absorb_pass(run, vec![Box::new(source)], &opts, 1, &discoverer).unwrap();
            assert_eq!(
                run.ingest.warnings.unresolved_edges, 0,
                "node-only input carries no edges"
            );
        };

        absorb(&mut run, "N a1 Person -\nN a2 Person -\n");
        assert_eq!(run.ingest.registry.len(), 2);
        run.roll_partition(1, discoverer.new_state());
        // Window: retained p1 + resident p2 — nothing compacted yet.
        assert_eq!(run.retained.len(), 1);
        assert_eq!(run.ingest.registry.len(), 2);

        absorb(&mut run, "N b1 Org -\n");
        assert_eq!(run.ingest.registry.len(), 3);
        run.roll_partition(1, discoverer.new_state());
        // p1 fell out of the window: its bindings are compacted away —
        // the registry stays bounded under rotation.
        assert_eq!(run.retained.len(), 1);
        assert_eq!(run.ingest.registry.len(), 1);

        absorb(&mut run, "N c1 Org -\n");
        run.roll_partition(1, discoverer.new_state());
        assert_eq!(run.ingest.registry.len(), 1);

        // The reported schema covers only the retained window: the last
        // partition's Org, not the long-expired Person partition.
        let schema = run.merged_schema();
        assert_eq!(schema.node_types.len(), 1);
        assert!(schema.node_types[0].labels.contains("Org"));
    }

    #[test]
    fn first_roll_generation_and_gc_accounting_start_correct_from_pass_one() {
        // Regression (satellite): with `--partition passes:1` the baseline
        // pass itself rolls. The very first roll must advance the registry
        // generation to 1 *without* compacting anything — pass-1 bindings
        // belong to the just-retained partition, which is still inside the
        // window — and the GC arithmetic must expire exactly that
        // partition's bindings when (and only when) it leaves the window
        // one roll later.
        let discoverer = Discoverer::new(PipelineConfig::default());
        let opts = StreamOpts::default();
        let mut run = WatchRun::new(
            Ingest::new(discoverer.new_state()),
            1,
            SignatureCache::default(),
        );
        let source = PgtSource::new(Cursor::new(b"N a1 Person -\nN a2 Person -\n".to_vec()));
        absorb_pass(&mut run, vec![Box::new(source)], &opts, 1, &discoverer).unwrap();
        assert_eq!(
            run.ingest.registry.generation(),
            0,
            "bindings land in gen 0"
        );

        // Pass 1 rolls (passes:1 → 1 % 1 == 0).
        run.roll_partition(1, discoverer.new_state());
        assert_eq!(
            run.ingest.registry.generation(),
            1,
            "first roll advances to 1"
        );
        assert_eq!(
            run.ingest.registry.len(),
            2,
            "first roll must not GC the just-retained partition's bindings"
        );
        assert_eq!(run.retained.len(), 1);
        // The reported schema still sees partition 1.
        assert_eq!(run.merged_schema().node_types.len(), 1);

        // Pass 2 absorbs into generation 1, then rolls: partition 1 (and
        // exactly its generation-0 bindings) leaves the window.
        let source = PgtSource::new(Cursor::new(b"N b1 Org -\n".to_vec()));
        absorb_pass(&mut run, vec![Box::new(source)], &opts, 1, &discoverer).unwrap();
        assert_eq!(run.ingest.registry.len(), 3);
        run.roll_partition(1, discoverer.new_state());
        assert_eq!(run.ingest.registry.generation(), 2);
        assert_eq!(
            run.ingest.registry.len(),
            1,
            "second roll GCs exactly the expired partition's gen-0 bindings"
        );
        let schema = run.merged_schema();
        assert_eq!(schema.node_types.len(), 1, "Person partition expired");
        assert!(schema.node_types[0].labels.contains("Org"));
    }
}
