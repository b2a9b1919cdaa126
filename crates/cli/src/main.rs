//! `pg-hive` — command-line schema discovery for property graphs.
//!
//! ```text
//! pg-hive discover <input> [--method elsh|minhash] [--theta T]
//!                  [--batches N] [--format strict|loose|xsd|summary]
//!                  [--sample] [--seed S]
//!                  [--input-format pgt|csv|jsonl] [--stream]
//!                  [--chunk-size N] [--threads N] [--read-ahead N]
//!                  [--shards N]
//! pg-hive diff     <old> <new> [--method M] [--theta T] [--seed S]
//!                  [--input-format F] [--stream] [--chunk-size N]
//!                  [--threads N] [--read-ahead N]
//! pg-hive watch    <input> [--interval SECS] [--once] [--method M]
//!                  [--theta T] [--seed S] [--input-format F]
//!                  [--chunk-size N] [--threads N] [--read-ahead N]
//!                  [--keep K] [--partition passes:N]
//! pg-hive merge-state <out> <in>... [--format strict|loose|xsd|summary]
//! pg-hive validate <schema> <input> [--method M] [--theta T] [--seed S]
//!                  [--input-format F] [--stream] [--chunk-size N]
//!                  [--threads N] [--max-violations N]
//!                  [--report jsonl:<path>]
//! pg-hive stats    <input> [--input-format pgt|csv|jsonl] [--stream]
//!                  [--read-ahead N]
//! ```
//!
//! Inputs are read in one of three formats (see [`pg_hive_graph::stream`]):
//! the line-oriented `.pgt` text format of [`pg_hive_graph::loader`], CSV
//! (`<input>` is a directory with `nodes.csv` + optional `edges.csv`), or
//! JSON-Lines (one node/edge object per line).
//!
//! With `--stream`, `discover` runs the pipeline-parallel streaming engine:
//! the input is one unit of the ingest fold (`Discoverer::absorb_unit`),
//! parsed `--read-ahead` chunks ahead by a dedicated producer thread
//! ([`pg_hive_graph::stream::ReadAheadChunks`]) while a pool of
//! `--threads` workers discovers chunks concurrently — so resident memory
//! stays O(chunk × in-flight), the output is byte-identical for every
//! thread count, and wall-clock tracks the slower of I/O and compute
//! instead of their sum. Per-chunk progress (with the in-flight bound) goes
//! to stderr; the report includes the peak-resident element count plus
//! counted ingestion warnings (cross-chunk edges, dangling refs).
//!
//! `diff` discovers the schema of two snapshots of a dataset and reports
//! added/removed/changed types — the operational counterpart of the
//! incremental monotone chain (§4.6). `watch` turns that into a
//! long-running drift monitor: a resident canonical
//! [`pg_hive_core::SchemaState`] absorbs only the records appended between
//! passes and each pass's finalized schema is diffed against the previous
//! one (see [`watch`]). With `--state-dir` the monitor is **durable**: the
//! full resumable context is checkpointed atomically after every pass and
//! auto-resumed on restart, and `--on-drift exec:<cmd>` /
//! `--on-drift jsonl:<path>` deliver structured drift events to external
//! sinks (see [`sink`]). `discover --stream` can persist and resume the
//! same engine state with `--save-state` / `--load-state`.
//!
//! With `--stream`, `discover` and `watch` also accept a **directory tree**
//! of mixed-format inputs (`*.pgt`, `*.jsonl`, sub-directories holding
//! `nodes.csv`), enumerated in stable sorted order
//! ([`pg_hive_graph::stream::multi::MultiSource`]). `discover --shards N`
//! partitions the enumerated inputs round-robin across N shard threads and
//! folds their states up a merge tree — byte-identical to the serial run
//! for every shard count (`Discoverer::discover_sharded`). `merge-state`
//! folds independently saved engine states (split `--save-state` runs,
//! rotated watch partitions) into one snapshot, resolving carried
//! cross-input edges against the merged registry. See `docs/CLI.md` for
//! the full flag reference and `docs/PERSISTENCE.md` for the snapshot
//! format, lifecycle, and operations runbook.

#![warn(missing_docs)]

use pg_hive_core::schema::SchemaGraph;
use pg_hive_core::serialize::{pg_schema_loose, pg_schema_strict, to_xsd};
use pg_hive_core::sigcache::DEFAULT_CACHE_CAP;
use pg_hive_core::snapshot::{
    context_snapshot, context_snapshot_cached, sigcache_from_snapshot, ResumeContext, Snapshot,
    SnapshotConfig,
};
use pg_hive_core::{
    diff_schemas, AbsorbReport, CompiledSchema, Discoverer, Ingest, PipelineConfig, SamplingConfig,
    SignatureCache, UnitSource, Validator, DEFAULT_MAX_EXAMPLES,
};
use pg_hive_graph::loader::load_text;
use pg_hive_graph::stream::{csv::CsvSource, jsonl::JsonlSource, pgt::PgtSource};
use pg_hive_graph::{
    GraphStats, MultiSource, PropertyGraph, RawGraphSource, ReadAheadRecords, StreamWarnings,
};
use std::io::{BufReader, Write};
use std::path::Path;
use std::process::ExitCode;

mod args;
mod serve;
mod sink;
mod watch;
use args::{Args, Command, InputFormat, OutputFormat, StreamOpts};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };

    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Open a streaming record source for `path` in the given wire format. The
/// source is `Send` so it can be driven by a read-ahead producer thread.
fn open_source(path: &str, format: InputFormat) -> Result<Box<dyn RawGraphSource + Send>, String> {
    match format {
        InputFormat::Pgt => {
            let f = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            // A large buffer keeps the line-at-a-time hot loop out of
            // syscalls; 1 MiB is noise next to the resident chunk graphs.
            Ok(Box::new(PgtSource::new(BufReader::with_capacity(
                1 << 20,
                f,
            ))))
        }
        InputFormat::Csv => CsvSource::open_dir(Path::new(path))
            .map(|s| Box::new(s) as Box<dyn RawGraphSource + Send>)
            .map_err(|e| format!("cannot open csv dataset {path}: {e}")),
        InputFormat::Jsonl => {
            let f = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Ok(Box::new(JsonlSource::new(BufReader::with_capacity(
                1 << 20,
                f,
            ))))
        }
    }
}

/// Load a whole graph into memory (the non-streaming path).
fn load_graph(path: &str, format: InputFormat) -> Result<PropertyGraph, String> {
    match format {
        InputFormat::Pgt => {
            // Keep the strict loader here: it reports duplicate-id and
            // unknown-node errors with line numbers.
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            load_text(&text).map_err(|e| format!("parse {path}: {e}"))
        }
        _ => {
            let source = open_source(path, format)?;
            let (g, warnings) = pg_hive_graph::stream::read_all(source)
                .map_err(|e| format!("parse {path}: {e}"))?;
            report_warnings(&warnings);
            Ok(g)
        }
    }
}

fn report_warnings(w: &StreamWarnings) {
    if w.is_empty() {
        return;
    }
    eprintln!(
        "warning: {} cross-chunk edge(s) resolved through stubs, {} edge(s) dropped \
         (endpoint never declared; {} evicted from the pending buffer), {} edge(s) \
         arrived before an endpoint, {} duplicate node id(s)",
        w.cross_chunk_edges,
        w.unresolved_edges,
        w.evicted_edges,
        w.deferred_edges,
        w.duplicate_nodes
    );
}

/// Print `schema` in `format`; `--format summary` heads the per-type lines
/// with `summary`.
fn print_schema(schema: &SchemaGraph, format: OutputFormat, summary: &str) {
    match format {
        OutputFormat::Strict => print!("{}", pg_schema_strict(schema, "Discovered")),
        OutputFormat::Loose => print!("{}", pg_schema_loose(schema, "Discovered")),
        OutputFormat::Xsd => print!("{}", to_xsd(schema)),
        OutputFormat::Summary => {
            println!("{summary}");
            print_type_lines(schema);
        }
    }
}

/// "N node types, M edge types (K abstract)" — the summary line's middle.
fn type_counts(schema: &SchemaGraph) -> String {
    format!(
        "{} node types, {} edge types ({} abstract)",
        schema.node_types.len(),
        schema.edge_types.len(),
        schema.node_types.iter().filter(|t| t.is_abstract()).count()
    )
}

fn print_type_lines(schema: &SchemaGraph) {
    for t in &schema.node_types {
        let labels: Vec<&str> = t.labels.iter().map(String::as_str).collect();
        println!(
            "  node {{{}}} x{} ({} props)",
            labels.join(","),
            t.instance_count,
            t.props.len()
        );
    }
    for t in &schema.edge_types {
        let labels: Vec<&str> = t.labels.iter().map(String::as_str).collect();
        println!(
            "  edge {{{}}} x{} ({} endpoint pairs)",
            labels.join(","),
            t.instance_count,
            t.endpoints.len()
        );
    }
}

/// The named error `diff` and `watch` raise instead of treating an empty
/// (or CSV header-only) input as a legitimate empty schema.
fn empty_input_error(path: &str) -> String {
    format!("empty input: {path} contains no graph elements (nodes or edges)")
}

/// The error for a directory tree with nothing [`MultiSource`] recognizes.
fn no_inputs_error(path: &str) -> String {
    format!(
        "no recognized inputs under {path}: expected *.pgt / *.jsonl files or directories \
         holding nodes.csv"
    )
}

/// Effective worker count: the `--threads` value, or every available core.
fn resolve_threads(opts: &StreamOpts) -> usize {
    opts.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn run(args: Args) -> Result<ExitCode, String> {
    match args.command {
        Command::Discover {
            path,
            method,
            theta,
            batches,
            format,
            sample,
            seed,
            stream,
            shards,
            save_state,
            load_state,
        } => {
            let config = PipelineConfig {
                method,
                theta,
                seed,
                datatype_sampling: sample.then(SamplingConfig::default),
                ..PipelineConfig::default()
            };
            let discoverer = Discoverer::new(config);

            if stream.stream {
                return discover_stream(
                    &path,
                    &stream,
                    &discoverer,
                    format,
                    shards,
                    save_state.as_deref(),
                    load_state.as_deref(),
                );
            }
            if is_multi_input(&path, stream.input_format) {
                return Err(format!(
                    "{path} is a directory of inputs — multi-source discovery requires \
                     --stream (add --shards N to parallelize across inputs)"
                ));
            }

            let graph = load_graph(&path, stream.input_format)?;
            let result = if batches > 1 {
                discoverer.discover_incremental(&graph, batches)
            } else {
                discoverer.discover(&graph)
            };
            let summary = format!(
                "{} nodes, {} edges -> {}, discovery {:.3}s",
                graph.node_count(),
                graph.edge_count(),
                type_counts(&result.schema),
                result.stats.timings.discovery().as_secs_f64()
            );
            print_schema(&result.schema, format, &summary);
            Ok(ExitCode::SUCCESS)
        }
        Command::Diff {
            old_path,
            new_path,
            method,
            theta,
            seed,
            stream,
        } => {
            let config = PipelineConfig {
                method,
                theta,
                seed,
                ..PipelineConfig::default()
            };
            let discoverer = Discoverer::new(config);
            let schema_of = |p: &str| -> Result<SchemaGraph, String> {
                if stream.stream {
                    let acc = stream_fold(p, &stream, &discoverer, 1, None, false, false)?.acc;
                    // Streamed ingestion tolerates conditions the strict
                    // loader rejects (dangling refs become stubs) — the
                    // diff is only trustworthy if the user sees them.
                    if !acc.warnings.is_empty() {
                        eprintln!("warning: while streaming {p}:");
                        report_warnings(&acc.warnings);
                    }
                    if acc.elements == 0 {
                        return Err(empty_input_error(p));
                    }
                    Ok(acc.state.finalize())
                } else {
                    let g = load_graph(p, stream.input_format)?;
                    if g.node_count() + g.edge_count() == 0 {
                        return Err(empty_input_error(p));
                    }
                    Ok(discoverer.discover(&g).schema)
                }
            };
            let old = schema_of(&old_path)?;
            let new = schema_of(&new_path)?;
            let diff = diff_schemas(&old, &new);
            if diff.is_empty() {
                println!(
                    "no schema changes: {} node type(s), {} edge type(s)",
                    new.node_types.len(),
                    new.edge_types.len()
                );
                Ok(ExitCode::SUCCESS)
            } else {
                print!("{diff}");
                println!(
                    "schema changed ({}): {} -> {} node type(s), {} -> {} edge type(s)",
                    if diff.is_monotone() {
                        "monotone: additions/relaxations only"
                    } else {
                        "NON-monotone: contains removals or tightenings"
                    },
                    old.node_types.len(),
                    new.node_types.len(),
                    old.edge_types.len(),
                    new.edge_types.len()
                );
                Ok(ExitCode::FAILURE)
            }
        }
        Command::Watch {
            path,
            method,
            theta,
            seed,
            interval_secs,
            once,
            stream,
            state_dir,
            keep,
            partition_passes,
            on_drift,
        } => {
            let config = PipelineConfig {
                method,
                theta,
                seed,
                ..PipelineConfig::default()
            };
            let discoverer = Discoverer::new(config);
            let sinks: Vec<sink::DriftSink> =
                on_drift.iter().map(sink::DriftSink::from_spec).collect();
            watch::run_watch(
                &path,
                &stream,
                &discoverer,
                std::time::Duration::from_secs(interval_secs),
                once,
                state_dir.as_deref(),
                keep,
                partition_passes,
                &sinks,
            )
        }
        Command::MergeState {
            out,
            inputs,
            format,
        } => merge_state(&out, &inputs, format),
        Command::Validate {
            schema_path,
            input_path,
            method,
            theta,
            seed,
            stream,
            max_violations,
            report,
        } => {
            let config = PipelineConfig {
                method,
                theta,
                seed,
                ..PipelineConfig::default()
            };
            let discoverer = Discoverer::new(config);
            let schema = load_validation_schema(&schema_path, &stream, &discoverer)?;
            let compiled = CompiledSchema::compile(&schema);
            eprintln!(
                "validating {input_path} against {} node type(s) / {} edge type(s)",
                compiled.node_type_count(),
                compiled.edge_type_count()
            );
            run_validation(
                &compiled,
                &input_path,
                &stream,
                max_violations,
                report.as_deref(),
            )
        }
        Command::Stats { path, stream } => {
            let s = if stream.stream {
                // Fold records directly — no resident graph at all, so
                // --chunk-size is accepted for flag symmetry but unused.
                // The producer thread parses --read-ahead batches ahead of
                // the fold; --threads has no effect on the single-pass fold.
                if stream.threads.is_some_and(|t| t > 1) {
                    eprintln!(
                        "note: stats folds a single record stream; --threads has no effect \
                         (--read-ahead still overlaps parsing with folding)"
                    );
                }
                let source = open_source(&path, stream.input_format)?;
                let source = ReadAheadRecords::spawn(source, stream.read_ahead);
                let (s, dangling) = pg_hive_graph::stats::stream_stats(source)
                    .map_err(|e| format!("parse {path}: {e}"))?;
                if dangling > 0 {
                    eprintln!(
                        "warning: {dangling} edge(s) reference node ids never declared; \
                         their patterns count unlabeled endpoints"
                    );
                }
                s
            } else {
                GraphStats::compute(&load_graph(&path, stream.input_format)?)
            };
            println!("nodes:          {}", s.nodes);
            println!("edges:          {}", s.edges);
            println!("node labels:    {}", s.node_labels);
            println!("edge labels:    {}", s.edge_labels);
            println!("node label sets:{}", s.node_label_sets);
            println!("node patterns:  {}", s.node_patterns);
            println!("edge patterns:  {}", s.edge_patterns);
            Ok(ExitCode::SUCCESS)
        }
        Command::Serve {
            addr,
            method,
            theta,
            seed,
            chunk_size,
            workers,
            read_timeout_secs,
            max_body_mb,
            state_dir,
            keep,
            on_drift,
        } => {
            let config = PipelineConfig {
                method,
                theta,
                seed,
                ..PipelineConfig::default()
            };
            serve::run_serve(
                Discoverer::new(config),
                serve::ServeParams {
                    addr,
                    chunk_size,
                    workers,
                    read_timeout_secs,
                    max_body_mb,
                    state_dir,
                    keep,
                    on_drift,
                },
            )
        }
        Command::Help => {
            println!("{}", args::USAGE);
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// What `stream_fold` folded one input into.
struct Streamed {
    acc: Ingest,
    /// The run's signature cache (loaded with `--load-state`, persisted
    /// with `--save-state`).
    cache: SignatureCache,
    /// The unit's accounting for a single input; `None` for a tree.
    report: Option<AbsorbReport>,
}

/// The one `--stream` path behind `discover` and `diff`: fold `path` on
/// top of `resumed` (a `--load-state` context and its cache). A directory
/// tree folds through the sharded merge tree
/// (`Discoverer::discover_sharded`); any other input is one unit parsed by
/// the read-ahead producer while `--threads` workers discover its chunks.
/// Carried edges are then resolved against the accumulated registry; a
/// single input's leftovers count as unresolved unless `keep_pending`
/// (`--save-state` persists them instead), a tree's always do.
fn stream_fold(
    path: &str,
    opts: &StreamOpts,
    discoverer: &Discoverer,
    shards: usize,
    resumed: Option<(ResumeContext, SignatureCache)>,
    keep_pending: bool,
    progress: bool,
) -> Result<Streamed, String> {
    let threads = resolve_threads(opts);
    let (resumed, cache) = match resumed {
        Some((ctx, cache)) => (Some(Ingest::from(ctx)), cache),
        None => (None, SignatureCache::default()),
    };
    if shards > 1 || is_multi_input(path, opts.input_format) {
        let source = MultiSource::enumerate(Path::new(path))
            .map_err(|e| format!("cannot enumerate {path}: {e}"))?;
        if source.is_empty() {
            return Err(no_inputs_error(path));
        }
        if progress {
            eprintln!(
                "discovering {} input(s) under {path}: {} shard(s) x {threads} worker thread(s)",
                source.len(),
                shards.max(1)
            );
        }
        let mut acc = discoverer
            .discover_sharded(&source, shards, opts.chunk_size, threads)
            .map_err(|e| format!("parse {path}: {e}"))?;
        if let Some(loaded) = resumed {
            // Re-resolve: edges unresolvable on either side alone may
            // resolve against the union registry.
            acc.warnings.unresolved_edges -= acc.pending.len() as u64;
            acc.merge(loaded);
            acc.resolve(discoverer);
            acc.warnings.unresolved_edges += acc.pending.len() as u64;
        }
        // The merge tree absorbs per-file states; a loaded cache has no
        // absorb site there.
        let cache = SignatureCache::default();
        return Ok(Streamed {
            acc,
            cache,
            report: None,
        });
    }

    let mut acc = resumed.unwrap_or_else(|| Ingest::new(discoverer.new_state()));
    let source = UnitSource::ReadAhead(open_source(path, opts.input_format)?, opts.read_ahead);
    if progress {
        // Upper bound on simultaneously resident chunks: the producer's
        // buffer, one chunk per worker (being processed), one per
        // dispatch-channel slot, plus the one being parsed.
        let in_flight_cap = opts.read_ahead + 2 * threads + 1;
        eprintln!(
            "streaming {path}: {threads} worker thread(s), read-ahead {} \
             (<= {in_flight_cap} chunks in flight)",
            opts.read_ahead
        );
    }
    let mut chunk_no = 0usize;
    // Structurally repeated chunks (steady-shape logs) skip embedding + LSH
    // and broadcast the memoized clustering — byte-identical to the
    // uncached run (proptested in `tests/tests/incremental_equivalence.rs`).
    let report = discoverer
        .absorb_unit(
            &mut acc,
            source,
            opts.chunk_size,
            threads,
            Some(&cache),
            &mut |g| {
                chunk_no += 1;
                if progress {
                    eprintln!(
                        "chunk {chunk_no}: {} nodes, {} edges dispatched",
                        g.node_count(),
                        g.edge_count()
                    );
                    let _ = std::io::stderr().flush();
                }
            },
        )
        .map_err(|e| format!("parse {path}: {e}"))?;
    let stats = cache.stats();
    if progress && stats.hits > 0 {
        eprintln!(
            "signature cache: {} of {} chunk(s) re-used a memoized clustering",
            stats.hits,
            stats.hits + stats.misses
        );
    }
    // Edges carried in from a loaded snapshot may resolve against node ids
    // this input declared.
    acc.resolve(discoverer);
    if !keep_pending {
        acc.warnings.unresolved_edges += acc.pending.len() as u64;
    }
    Ok(Streamed {
        acc,
        cache,
        report: Some(report),
    })
}

/// Whether `path` names a *tree* of inputs for [`MultiSource`] enumeration
/// rather than one input: any directory, except a CSV dataset directory
/// explicitly requested with `--input-format csv` (that directory IS the
/// single input).
fn is_multi_input(path: &str, format: InputFormat) -> bool {
    let p = Path::new(path);
    p.is_dir() && !(format == InputFormat::Csv && p.join("nodes.csv").is_file())
}

/// Does the file start with the snapshot magic line? Cheap sniff that
/// lets `validate <schema>` accept either a saved snapshot or a reference
/// graph in the same positional argument.
fn file_is_snapshot(p: &Path) -> bool {
    use std::io::BufRead;
    let Ok(f) = std::fs::File::open(p) else {
        return false;
    };
    let mut line = String::new();
    let _ = BufReader::new(f).read_line(&mut line);
    line.starts_with(pg_hive_core::snapshot::MAGIC)
}

/// Obtain the schema `validate` checks against: a saved snapshot
/// (`discover --save-state` or a `watch --state-dir` checkpoint — unlike
/// resuming, validation only needs the accumulated schema, so both kinds
/// are accepted), or any reference input to discover one from
/// (schema-by-example).
fn load_validation_schema(
    path: &str,
    opts: &StreamOpts,
    discoverer: &Discoverer,
) -> Result<SchemaGraph, String> {
    let p = Path::new(path);
    if p.is_file() && file_is_snapshot(p) {
        let ctx = ResumeContext::load(p).map_err(|e| format!("{e} (while loading {path})"))?;
        eprintln!(
            "schema from snapshot {path}: {} pooled type(s){}",
            ctx.state.pooled_types(),
            if ctx.watch.is_some() {
                " (watch checkpoint)"
            } else {
                ""
            }
        );
        return Ok(ctx.state.finalize());
    }
    if is_multi_input(path, opts.input_format) {
        let acc = stream_fold(path, opts, discoverer, 1, None, false, false)?.acc;
        report_warnings(&acc.warnings);
        return Ok(acc.state.finalize());
    }
    let g = load_graph(path, opts.input_format)?;
    if g.node_count() + g.edge_count() == 0 {
        return Err(empty_input_error(path));
    }
    Ok(discoverer.discover(&g).schema)
}

/// A fresh shard validator: unbounded examples when a jsonl report needs
/// every violation, and the early-exit cap when one was requested.
fn fresh_validator<'a>(
    compiled: &'a CompiledSchema,
    keep_all: bool,
    max_violations: Option<u64>,
) -> Validator<'a> {
    let mut v = Validator::new(compiled);
    if keep_all {
        v = v.with_max_examples(usize::MAX);
    }
    if let Some(m) = max_violations {
        v = v.with_max_violations(m);
    }
    v
}

/// Drive the streaming validator over `input_path` — a single file, a CSV
/// dataset directory, or a directory tree of mixed inputs (validated
/// shard-parallel across `--threads`, then merged like sharded discovery).
/// Exit-code symmetry with `diff`: 0 clean, 1 violations.
fn run_validation(
    compiled: &CompiledSchema,
    input_path: &str,
    opts: &StreamOpts,
    max_violations: Option<u64>,
    report_path: Option<&str>,
) -> Result<ExitCode, String> {
    let keep_all = report_path.is_some();
    let report = if is_multi_input(input_path, opts.input_format) {
        let source = MultiSource::enumerate(Path::new(input_path))
            .map_err(|e| format!("cannot enumerate {input_path}: {e}"))?;
        if source.is_empty() {
            return Err(no_inputs_error(input_path));
        }
        let shards = resolve_threads(opts).min(source.len()).max(1);
        eprintln!(
            "validating {} input(s) under {input_path} across {} shard(s)",
            source.len(),
            shards
        );
        let parts = source.partition(shards);
        let shard_results: Vec<Result<Validator<'_>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|part| {
                    scope.spawn(move || -> Result<Validator<'_>, String> {
                        let mut v = fresh_validator(compiled, keep_all, max_violations);
                        for entry in part {
                            let mut src = entry.open().map_err(|e| {
                                format!("cannot open {}: {e}", entry.path.display())
                            })?;
                            let completed = v
                                .validate_source(&mut *src, opts.chunk_size, |_, _| {})
                                .map_err(|e| format!("parse {}: {e}", entry.path.display()))?;
                            if !completed {
                                break; // per-shard early exit on the cap
                            }
                        }
                        Ok(v)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("validator shard thread panicked"))
                .collect()
        });
        let mut merged: Option<Validator<'_>> = None;
        for r in shard_results {
            let v = r?;
            match &mut merged {
                None => merged = Some(v),
                Some(m) => m.merge(v),
            }
        }
        merged.expect("at least one shard").finish()
    } else {
        let progress = opts.stream;
        let mut v = fresh_validator(compiled, keep_all, max_violations);
        let mut src = open_source(input_path, opts.input_format)?;
        let completed = v
            .validate_source(&mut *src, opts.chunk_size, |chunk, elems| {
                if progress {
                    eprintln!("chunk {chunk}: {elems} element(s) validated");
                }
            })
            .map_err(|e| format!("parse {input_path}: {e}"))?;
        if !completed {
            eprintln!("stopped early: --max-violations reached");
        }
        v.finish()
    };

    if let Some(path) = report_path {
        let path = Path::new(path);
        for v in &report.examples {
            sink::append_jsonl(path, &sink::violation_event_json(v))
                .map_err(|e| format!("--report {e}"))?;
        }
        eprintln!(
            "{} violation event(s) appended to {}",
            report.examples.len(),
            path.display()
        );
    }

    if report.is_valid() {
        println!(
            "valid: {} node(s) / {} edge(s) conform",
            report.nodes_checked, report.edges_checked
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "{} violation(s) across {} node(s) / {} edge(s){}:",
            report.total(),
            report.nodes_checked,
            report.edges_checked,
            if report.stopped_early {
                " (stopped early: --max-violations)"
            } else {
                ""
            }
        );
        for (kind, n) in report.by_category() {
            println!("  {n} x {kind}");
        }
        let shown = report.examples.len().min(DEFAULT_MAX_EXAMPLES);
        for v in report.examples.iter().take(DEFAULT_MAX_EXAMPLES) {
            println!("  {v}");
        }
        if report.total() > shown as u64 {
            println!("  ... and {} more", report.total() - shown as u64);
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Load a `discover --save-state` snapshot for resuming, with the config
/// guard and the named refusal of watch checkpoints. Also rebuilds the
/// snapshot's persisted [`SignatureCache`] (cold when the optional
/// `[sigcache]` section is absent) so a resumed stream starts warm.
fn load_discover_state(
    p: &str,
    config: &SnapshotConfig,
) -> Result<(ResumeContext, SignatureCache), String> {
    let load_err = |e: pg_hive_core::snapshot::SnapshotError| format!("{e} (while loading {p})");
    let snap = Snapshot::read(Path::new(p)).map_err(load_err)?;
    let ctx = ResumeContext::from_snapshot(&snap).map_err(load_err)?;
    let cache = sigcache_from_snapshot(&snap, DEFAULT_CACHE_CAP).map_err(load_err)?;
    ctx.config
        .ensure_matches(config)
        .map_err(|e| e.to_string())?;
    // Symmetric to watch refusing discover save-states: a watch
    // checkpoint carries per-file read positions that discover
    // would silently ignore, re-ingesting input the state already
    // contains and double-counting every instance.
    if ctx.watch.is_some() {
        return Err(format!(
            "snapshot: {p} is a `watch --state-dir` checkpoint — its per-file \
             offsets only make sense to `watch`; resume it with `pg-hive watch \
             --state-dir`, or create a discover state with --save-state"
        ));
    }
    eprintln!(
        "resuming from {p}: {} pooled type(s), {} registered id(s), {} carried edge(s)",
        ctx.state.pooled_types(),
        ctx.registry.len(),
        ctx.pending.len()
    );
    Ok((ctx, cache))
}

/// `discover --stream`: fold the input through the one `--stream` path
/// (`stream_fold`), optionally on top of a `--load-state` snapshot and
/// optionally persisting the result with `--save-state`. Chained
/// invocations — part 1 with `--save-state`, part 2 with `--load-state` —
/// finalize byte-identically to a single uninterrupted run over the
/// concatenated input (proptested in `tests/tests/snapshot_resume.rs`).
/// With `--save-state`, edges whose endpoints the input never declared are
/// carried into the snapshot's `[pending]` section, so a later
/// `--load-state` run or `merge-state` can resolve them against inputs
/// that do.
fn discover_stream(
    path: &str,
    opts: &StreamOpts,
    discoverer: &Discoverer,
    format: OutputFormat,
    shards: usize,
    save_state: Option<&str>,
    load_state: Option<&str>,
) -> Result<ExitCode, String> {
    let config = SnapshotConfig::new(discoverer.config(), opts.chunk_size);
    let resumed = load_state
        .map(|p| load_discover_state(p, &config))
        .transpose()?;
    let Streamed { acc, cache, report } = stream_fold(
        path,
        opts,
        discoverer,
        shards,
        resumed,
        save_state.is_some(),
        true,
    )?;
    report_warnings(&acc.warnings);
    let schema = acc.state.finalize();
    if let Some(p) = save_state {
        // The signature cache rides along (the optional `[sigcache]`
        // section) so a chained `--load-state` run over same-shaped input
        // resumes warm.
        context_snapshot_cached(
            &config,
            &acc.state,
            &acc.registry,
            None,
            &acc.pending,
            Some(&cache),
        )
        .write_atomic(Path::new(p))
        .map_err(|e| e.to_string())?;
        match acc.pending.len() {
            0 => eprintln!("state saved to {p}"),
            carried => eprintln!("state saved to {p} ({carried} cross-input edge(s) carried)"),
        }
    }
    let types = type_counts(&schema);
    let summary = match report {
        Some(r) => format!(
            "{} elements in {} chunk(s) (peak resident {} elements) -> {types}, {:.3}s compute \
             across {} thread(s)",
            acc.elements,
            r.chunk_times.len(),
            r.max_chunk_elements,
            r.chunk_times.iter().map(|t| t.as_secs_f64()).sum::<f64>(),
            resolve_threads(opts)
        ),
        None => format!(
            "{} elements from {} input(s) across {} shard(s) -> {types}",
            acc.elements,
            acc.inputs,
            shards.max(1)
        ),
    };
    print_schema(&schema, format, &summary);
    Ok(ExitCode::SUCCESS)
}

/// `pg-hive merge-state <out> <in>...` — fold saved engine states into one
/// snapshot ([`Snapshot::merge_files`]: snapshots written under different
/// method/theta/seed/chunk-size are refused with a named `snapshot:`
/// error), then resolve carried cross-input edges against the merged
/// registry; the rest stay pending in the output, ready for the next
/// merge. The fold is streaming — each further snapshot is loaded, merged
/// and dropped before the next is opened — and byte-identical to folding
/// all at once (asserted e2e in `tests/tests/cli_merge_state.rs`).
fn merge_state(out: &str, inputs: &[String], format: OutputFormat) -> Result<ExitCode, String> {
    let (ctx, collisions) = Snapshot::merge_files(inputs).map_err(|e| e.to_string())?;
    let config = ctx.config.clone();
    // Rebuild the discoverer the snapshots were produced under (the merge
    // proved they all agree) so pending-edge resolution embeds with the
    // same clustering parameters.
    let discoverer = Discoverer::new(PipelineConfig {
        method: config.method,
        theta: config.theta,
        seed: config.seed,
        ..PipelineConfig::default()
    });
    let mut acc = Ingest::from(ctx);
    let resolved = acc.resolve(&discoverer);
    context_snapshot(&config, &acc.state, &acc.registry, None, &acc.pending)
        .write_atomic(Path::new(out))
        .map_err(|e| e.to_string())?;
    eprintln!(
        "merged {} snapshot(s) into {out}: {} pooled type(s), {} registered id(s), \
         {} duplicate id(s) across inputs, {} carried edge(s) resolved, {} still pending",
        inputs.len(),
        acc.state.pooled_types(),
        acc.registry.len(),
        collisions,
        resolved,
        acc.pending.len()
    );
    let schema = acc.state.finalize();
    print_schema(
        &schema,
        format,
        &format!("merged schema: {}", type_counts(&schema)),
    );
    Ok(ExitCode::SUCCESS)
}
