//! `pg-hive` — command-line schema discovery for property graphs.
//!
//! ```text
//! pg-hive discover <input> [--method elsh|minhash] [--theta T]
//!                  [--batches N] [--format strict|loose|xsd|summary]
//!                  [--sample] [--seed S]
//!                  [--input-format pgt|csv|jsonl] [--stream]
//!                  [--chunk-size N] [--threads N]
//! pg-hive diff     <old> <new> [--method M] [--theta T] [--seed S]
//!                  [--input-format F] [--stream] [--chunk-size N]
//!                  [--threads N]
//! pg-hive watch    <input> [--interval SECS] [--once] [--method M]
//!                  [--theta T] [--seed S] [--input-format F]
//!                  [--chunk-size N] [--threads N]
//!                  [--keep K] [--partition passes:N]
//! pg-hive merge-state <out> <in>... [--format strict|loose|xsd|summary]
//! pg-hive validate <schema> <input> [--method M] [--theta T] [--seed S]
//!                  [--input-format F] [--stream] [--chunk-size N]
//!                  [--threads N] [--max-violations N]
//!                  [--report jsonl:<path>]
//! pg-hive stats    <input> [--input-format pgt|csv|jsonl] [--stream]
//! ```
//!
//! Inputs are read in one of three formats (see [`pg_hive_graph::stream`]):
//! the line-oriented `.pgt` text format of [`pg_hive_graph::loader`], CSV
//! (`<input>` is a directory with `nodes.csv` + optional `edges.csv`), or
//! JSON-Lines (one node/edge object per line).
//!
//! With `--stream`, `discover` runs the pipeline-parallel streaming engine:
//! the input is one unit of the ingest fold (`Discoverer::absorb_unit`),
//! parsed on one thread and built into chunks a few chunks ahead on another
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
//! ([`pg_hive_graph::stream::multi::MultiSource`]). `discover` reads up to
//! `--threads` files at once and merges them in path order
//! (`Discoverer::discover_tree`), so the output is the serial run's for
//! every thread count; `validate` folds one validator per file the same
//! way. `merge-state` folds independently saved engine states (split
//! `--save-state` runs, rotated watch partitions) into one snapshot,
//! resolving carried cross-input edges against the merged registry. See
//! `docs/CLI.md` for the full flag reference and `docs/PERSISTENCE.md` for
//! the snapshot format, lifecycle, and operations runbook.

#![warn(missing_docs)]

use pg_hive_core::pipeline::READ_AHEAD;
use pg_hive_core::schema::SchemaGraph;
use pg_hive_core::serialize::{pg_schema_loose, pg_schema_strict, to_xsd};
use pg_hive_core::snapshot::{context_snapshot_cached, ResumeContext, SnapshotConfig};
use pg_hive_core::{
    diff_schemas, AbsorbReport, CompiledSchema, Discoverer, Ingest, PipelineConfig, SamplingConfig,
    SignatureCache, UnitSource, Validator, DEFAULT_MAX_EXAMPLES,
};
use pg_hive_graph::loader::load_text;
use pg_hive_graph::stream::read_ahead::{BATCHES_IN_FLIGHT, BATCH_RECORDS};
use pg_hive_graph::{
    GraphStats, MultiSource, PropertyGraph, RawGraphSource, SourceEntry, SourceKind, StreamError,
    StreamWarnings,
};
use std::io::{BufReader, Write};
use std::path::Path;
use std::process::ExitCode;

mod args;
mod serve;
mod sink;
mod watch;
use args::{Args, Command, DiscoveryOpts, OutputFormat, StreamOpts};

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
fn open_source(path: &str, kind: SourceKind) -> Result<Box<dyn RawGraphSource + Send>, String> {
    let entry = SourceEntry {
        path: path.into(),
        kind,
    };
    entry.open().map_err(|e| match e {
        // A pgt or jsonl file fails only on open.
        StreamError::Io(e) if kind != SourceKind::Csv => format!("cannot read {path}: {e}"),
        e => format!("cannot open csv dataset {path}: {e}"),
    })
}

/// Load a whole graph into memory (the non-streaming path).
fn load_graph(path: &str, format: SourceKind) -> Result<PropertyGraph, String> {
    match format {
        SourceKind::Pgt => {
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
            discovery,
            batches,
            format,
            sample,
            stream,
            save_state,
            load_state,
        } => {
            let config = PipelineConfig {
                datatype_sampling: sample.then(SamplingConfig::default),
                ..discovery.config()
            };
            let discoverer = Discoverer::new(config);

            if stream.stream {
                return discover_stream(
                    &path,
                    &stream,
                    &discoverer,
                    format,
                    save_state.as_deref(),
                    load_state.as_deref(),
                );
            }
            if is_multi_input(&path, stream.input_format) {
                return Err(format!(
                    "{path} is a directory of inputs — multi-source discovery requires --stream"
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
            discovery,
            stream,
        } => {
            let discoverer = Discoverer::new(discovery.config());
            let schema_of = |p: &str| -> Result<SchemaGraph, String> {
                if stream.stream {
                    let acc = stream_fold(p, &stream, &discoverer, None, false, false)?.acc;
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
            discovery,
            interval_secs,
            once,
            stream,
            state_dir,
            keep,
            partition_passes,
            on_drift,
        } => {
            let discoverer = Discoverer::new(discovery.config());
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
            discovery,
            stream,
            max_violations,
            report,
        } => {
            let discoverer = Discoverer::new(discovery.config());
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
                // Fold records on this thread with no resident graph at
                // all, so --chunk-size is accepted for flag symmetry but
                // unused, and --threads has no effect.
                if stream.threads.is_some_and(|t| t > 1) {
                    eprintln!("note: stats folds a single record stream; --threads has no effect");
                }
                let source = open_source(&path, stream.input_format)?;
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
            discovery,
            options,
            on_drift,
        } => serve::run_serve(
            Discoverer::new(discovery.config()),
            options,
            &addr,
            on_drift,
        ),
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
/// top of `resumed` (a `--load-state` context). A directory tree folds
/// file by file on the `--threads` pool (`Discoverer::discover_tree`); any
/// other input is one unit parsed by the read-ahead producer while
/// `--threads` workers discover its chunks. Carried edges are then resolved
/// against the accumulated registry; the leftovers count as unresolved
/// unless `keep_pending` (`--save-state` persists them instead).
fn stream_fold(
    path: &str,
    opts: &StreamOpts,
    discoverer: &Discoverer,
    resumed: Option<ResumeContext>,
    keep_pending: bool,
    progress: bool,
) -> Result<Streamed, String> {
    let threads = resolve_threads(opts);
    let (resumed, cache) = match resumed {
        Some(ctx) => (Some(ctx.ingest), ctx.cache),
        None => (None, SignatureCache::default()),
    };
    let mut streamed = if is_multi_input(path, opts.input_format) {
        let source = enumerate_tree(path)?;
        if progress {
            eprintln!(
                "discovering {} input(s) under {path} on {threads} worker thread(s)",
                source.len()
            );
        }
        let mut acc = discoverer
            .discover_tree(&source, opts.chunk_size, threads)
            .map_err(|e| format!("parse {path}: {e}"))?;
        if let Some(loaded) = resumed {
            acc.merge(loaded);
        }
        // Tree files absorb without the signature cache; a loaded cache
        // has no absorb site there.
        Streamed {
            acc,
            cache: SignatureCache::default(),
            report: None,
        }
    } else {
        let mut acc = resumed.unwrap_or_else(|| Ingest::new(discoverer.new_state()));
        let source = UnitSource::ReadAhead(open_source(path, opts.input_format)?);
        if progress {
            // Upper bound on simultaneously resident chunks: the producer's
            // buffer, one chunk per worker (being processed), one per
            // queue slot, plus the one being built; and on the record
            // batches parsed ahead of the chunk thread.
            let in_flight_cap = READ_AHEAD + 2 * threads + 1;
            eprintln!(
                "streaming {path}: {threads} worker thread(s), read-ahead {READ_AHEAD} \
                 (<= {in_flight_cap} chunks and {BATCHES_IN_FLIGHT} batches of \
                 {BATCH_RECORDS} parsed records in flight)"
            );
        }
        let mut chunk_no = 0usize;
        // Structurally repeated chunks (steady-shape logs) skip embedding +
        // LSH and broadcast the memoized clustering — byte-identical to the
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
        Streamed {
            acc,
            cache,
            report: Some(report),
        }
    };
    // Edges carried in from a loaded snapshot may resolve against node ids
    // this input declared.
    let acc = &mut streamed.acc;
    acc.resolve(discoverer);
    if !keep_pending {
        acc.warnings.unresolved_edges += acc.pending.len() as u64;
    }
    Ok(streamed)
}

/// Whether `path` names a *tree* of inputs for [`MultiSource`] enumeration
/// rather than one input: any directory, except a CSV dataset directory
/// explicitly requested with `--input-format csv` (that directory IS the
/// single input).
fn is_multi_input(path: &str, format: SourceKind) -> bool {
    let p = Path::new(path);
    p.is_dir() && !(format == SourceKind::Csv && p.join("nodes.csv").is_file())
}

/// Enumerate the tree under `path`, refusing one with no recognized input.
fn enumerate_tree(path: &str) -> Result<MultiSource, String> {
    let source = MultiSource::enumerate(Path::new(path))
        .map_err(|e| format!("cannot enumerate {path}: {e}"))?;
    if source.is_empty() {
        return Err(no_inputs_error(path));
    }
    Ok(source)
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
            ctx.ingest.state.pooled_types(),
            if ctx.watch.is_some() {
                " (watch checkpoint)"
            } else {
                ""
            }
        );
        return Ok(ctx.ingest.state.finalize());
    }
    if is_multi_input(path, opts.input_format) {
        let acc = stream_fold(path, opts, discoverer, None, false, false)?.acc;
        report_warnings(&acc.warnings);
        return Ok(acc.state.finalize());
    }
    let g = load_graph(path, opts.input_format)?;
    if g.node_count() + g.edge_count() == 0 {
        return Err(empty_input_error(path));
    }
    Ok(discoverer.discover(&g).schema)
}

/// A fresh validator: unbounded examples when a jsonl report needs every
/// violation, and the early-exit cap when one was requested.
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
/// dataset directory, or a directory tree of mixed inputs. A tree gets one
/// validator per file on the `--threads` pool, merged in path order; with
/// `--max-violations N` each file stops at N on its own, and the run stops
/// at the first path-order prefix of files whose violations reach N.
/// Exit-code symmetry with `diff`: 0 clean, 1 violations.
fn run_validation(
    compiled: &CompiledSchema,
    input_path: &str,
    opts: &StreamOpts,
    max_violations: Option<u64>,
    report_path: Option<&str>,
) -> Result<ExitCode, String> {
    let keep_all = report_path.is_some();
    let mut v = fresh_validator(compiled, keep_all, max_violations);
    let capped = |v: &Validator<'_>| max_violations.is_some_and(|m| v.violation_count() >= m);
    if is_multi_input(input_path, opts.input_format) {
        let source = enumerate_tree(input_path)?;
        let threads = resolve_threads(opts);
        eprintln!(
            "validating {} input(s) under {input_path} on {threads} worker thread(s)",
            source.len()
        );
        source.fold_ordered(
            threads,
            |entry| -> Result<Validator<'_>, String> {
                let mut file = fresh_validator(compiled, keep_all, max_violations);
                let mut src = entry
                    .open()
                    .map_err(|e| format!("cannot open {}: {e}", entry.path.display()))?;
                file.validate_source(&mut *src, opts.chunk_size, |_, _| {})
                    .map_err(|e| format!("parse {}: {e}", entry.path.display()))?;
                Ok(file)
            },
            |file| {
                v.merge(file);
                !capped(&v)
            },
        )?;
    } else {
        let progress = opts.stream;
        let mut src = open_source(input_path, opts.input_format)?;
        v.validate_source(&mut *src, opts.chunk_size, |chunk, elems| {
            if progress {
                eprintln!("chunk {chunk}: {elems} element(s) validated");
            }
        })
        .map_err(|e| format!("parse {input_path}: {e}"))?;
    }
    let stopped_early = capped(&v);
    let mut report = v.finish();
    report.stopped_early |= stopped_early;
    if report.stopped_early {
        eprintln!("stopped early: --max-violations reached");
    }

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
/// guard and the named refusal of watch checkpoints. The snapshot's
/// persisted [`SignatureCache`] comes along, so a resumed stream starts
/// warm.
fn load_discover_state(p: &str, config: &SnapshotConfig) -> Result<ResumeContext, String> {
    let ctx = ResumeContext::load(Path::new(p)).map_err(|e| format!("{e} (while loading {p})"))?;
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
        ctx.ingest.state.pooled_types(),
        ctx.ingest.registry.len(),
        ctx.ingest.pending.len()
    );
    Ok(ctx)
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
    save_state: Option<&str>,
    load_state: Option<&str>,
) -> Result<ExitCode, String> {
    let config = SnapshotConfig::new(discoverer.config(), opts.chunk_size);
    let resumed = load_state
        .map(|p| load_discover_state(p, &config))
        .transpose()?;
    let Streamed { acc, cache, report } =
        stream_fold(path, opts, discoverer, resumed, save_state.is_some(), true)?;
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
            "{} elements from {} input(s) -> {types}",
            acc.elements, acc.inputs
        ),
    };
    print_schema(&schema, format, &summary);
    Ok(ExitCode::SUCCESS)
}

/// `pg-hive merge-state <out> <in>...` — fold saved engine states into one
/// snapshot with [`Ingest::merge`] (snapshots written under a different
/// method/theta/seed/chunk-size than the first are refused with a named
/// `snapshot:` error), then resolve carried cross-input edges against the
/// merged registry; the rest stay pending in the output, ready for the
/// next merge. The fold is streaming — each further snapshot is loaded,
/// merged and dropped before the next is opened — and byte-identical to
/// folding all at once (asserted in `tests/tests/cli_merge_state.rs`).
fn merge_state(out: &str, inputs: &[String], format: OutputFormat) -> Result<ExitCode, String> {
    let load = |p: &String| ResumeContext::load(Path::new(p)).map_err(|e| e.to_string());
    let (first, rest) = inputs
        .split_first()
        .expect("the argument parser requires an input snapshot");
    let ResumeContext {
        config,
        ingest: mut acc,
        ..
    } = load(first)?;
    for p in rest {
        let next = load(p)?;
        config
            .ensure_matches(&next.config)
            .map_err(|e| e.to_string())?;
        acc.merge(next.ingest);
    }
    // Loaded accumulators carry no warnings, so every duplicate counted is
    // a node id bound by two inputs.
    let collisions = acc.warnings.duplicate_nodes;
    // Rebuild the discoverer the snapshots were produced under (the merge
    // proved they all agree) so pending-edge resolution embeds with the
    // same clustering parameters.
    let discovery = DiscoveryOpts {
        method: config.method,
        theta: config.theta,
        seed: config.seed,
    };
    let discoverer = Discoverer::new(discovery.config());
    let resolved = acc.resolve(&discoverer);
    context_snapshot_cached(&config, &acc.state, &acc.registry, None, &acc.pending, None)
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
