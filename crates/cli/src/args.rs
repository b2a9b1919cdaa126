//! Hand-rolled argument parsing — keeps the CLI dependency-free.

use pg_hive_core::ClusterMethod;

/// The `pg-hive help` text — the single source of truth for the flag
/// surface (CI checks that every subcommand and flag named here also
/// appears in `docs/CLI.md`).
pub const USAGE: &str = "\
pg-hive — hybrid incremental schema discovery for property graphs

USAGE:
  pg-hive discover <input> [OPTIONS]       infer the schema of a graph
  pg-hive diff     <old> <new> [OPTIONS]   discover both schemas and report
                                           what changed (exit 1 on changes)
  pg-hive watch    <input> [OPTIONS]       monitor a growing/rotating input
                                           for schema drift (long-running;
                                           --once = one re-check, exit 1 on
                                           drift)
  pg-hive merge-state <out> <in>...        merge saved engine states (from
                                           --save-state / watch rotation)
                                           into one snapshot; refuses
                                           incompatible method/theta/seed/
                                           chunk-size with a snapshot: error
  pg-hive validate <schema> <input> [OPTIONS]
                                           stream instance data against a
                                           schema — <schema> is a saved
                                           snapshot (--save-state / watch)
                                           or a reference graph to discover
                                           one from; exit 1 on violations
  pg-hive stats    <input> [OPTIONS]       structural statistics (Table 2)
  pg-hive serve    [OPTIONS]               long-running multi-tenant schema
                                           service over HTTP/1.1: POST
                                           /v1/<tenant>/ingest absorbs
                                           records, GET /v1/<tenant>/schema
                                           returns the canonical schema
                                           (see docs/SERVE.md)
  pg-hive help                             this message

INPUT FORMATS (discover, diff, watch, validate, stats):
  --input-format pgt|csv|jsonl  (default: pgt)
     pgt    line-oriented text graph (<input> is a .pgt file)
     csv    <input> is a directory holding nodes.csv (+ optional edges.csv):
            headers `id,labels,<key>,...` / `src,tgt,labels,<key>,...`,
            `;`-separated labels, empty cell = absent property
     jsonl  one JSON object per line: {\"type\":\"node\",\"id\":...,
            \"labels\":[...],\"props\":{...}} / {\"type\":\"edge\",\"src\":...}
  With --stream, discover and watch also accept a *directory tree* of
  mixed-format inputs: every *.pgt / *.jsonl file and every sub-directory
  holding nodes.csv is one input, enumerated in sorted order. validate
  accepts directory trees directly (validation always streams)
  (--input-format is then ignored for recognition)

STREAMING (discover, diff, validate, stats):
  --stream                 process the input in independent chunks with
                           O(chunk) resident memory (discovery merges
                           per-chunk schemas, §4.6); cross-chunk edges are
                           resolved through a compact id→labels registry
                           and reported as warnings
  --chunk-size <N>         elements per chunk (default: 100000; N >= 1).
                           stats folds records one at a time and ignores it
  --threads <N>            worker threads discovering chunks concurrently
                           (default: all available cores; N >= 1; results
                           are byte-identical for every thread count).
                           stats folds a single record stream, so --threads
                           has no effect there
  --read-ahead <N>         chunks parsed ahead of the workers by the
                           producer thread (default: 2; N >= 1).
                           stats folds on one thread and ignores it

DISCOVER / DIFF / WATCH OPTIONS:
  --method elsh|minhash    LSH family (default: elsh)
  --theta <0..1>           Jaccard merge threshold (default: 0.9)
  --seed <N>               RNG seed (default: 42)

DISCOVER OPTIONS:
  --batches <N>            incremental batches (default: 1 = static;
                           incompatible with --stream)
  --format strict|loose|xsd|summary   output (default: summary)
  --sample                 sample-based datatype inference
  --shards <N>             with --stream over a directory tree: partition
                           the enumerated inputs round-robin across N
                           shards, each folding its files on its own
                           worker pool; the merged schema is byte-identical
                           to the serial run for every N (default: 1)
  --save-state <FILE>      after a --stream run, persist the resumable
                           engine state (schema pools + id->labels
                           registry + carried cross-input edges + config
                           guard) as an atomic snapshot
  --load-state <FILE>      seed a --stream run from a saved snapshot and
                           absorb this input on top; refuses snapshots
                           written under different method/theta/seed/
                           chunk-size with a named snapshot: error

MERGE-STATE OPTIONS:
  --format strict|loose|xsd|summary   after merging, print the merged
                           schema in this format (default: summary).
                           Carried cross-input edges resolve against the
                           merged registry; the rest stay pending in <out>

VALIDATE OPTIONS:
  --max-violations <N>     stop reading input after N violations (early
                           exit; exit code is still 1)
  --report jsonl:<FILE>    append one structured JSON violation event per
                           line to <FILE> (same event codec as the drift
                           sinks: {\"event\":\"schema-violation\",
                           \"category\":...,\"element\":...,\"detail\":...})

WATCH OPTIONS:
  --interval <SECS>        seconds between drift-check passes (default: 30;
                           >= 1). Each pass ingests only newly appended
                           records into the resident schema state
  --once                   baseline + exactly one re-check, then exit
                           (0 = no drift, 1 = drift) — the CI mode
  --state-dir <DIR>        durable watch: checkpoint the full resumable
                           state to <DIR>/watch.snapshot after every pass
                           (atomic temp-file + rename) and auto-resume
                           from it on start, so a restart re-ingests only
                           bytes appended since the last checkpoint and
                           never fires a spurious drift event
  --keep <K>               retain the last K rotated snapshots as
                           <DIR>/watch.snapshot.1..K (1 = most recent;
                           older ones are pruned). Requires --state-dir
  --partition passes:<N>   roll the resident state into a retained
                           snapshot every N passes; the reported schema
                           is then the merge of the current partition and
                           the last K retained ones, and registry entries
                           older than the retention window are compacted
                           away. Requires --state-dir and --keep
  --on-drift exec:<CMD>    run <CMD> via `sh -c` on every drift event
                           (event JSON in $PGHIVE_DRIFT_EVENT plus
                           PGHIVE_DRIFT_PASS/_TIMESTAMP/_MONOTONE/_SUMMARY)
  --on-drift jsonl:<FILE>  append one structured JSON drift event per line
                           to <FILE>; repeatable (all sinks fire)

SERVE OPTIONS (plus --method/--theta/--seed/--chunk-size as above):
  --addr <HOST:PORT>       listen address (default: 127.0.0.1:7171; port 0
                           picks an ephemeral port; the bound address is
                           printed on stdout as 'serving on http://...')
  --workers <N>            connection worker threads (default: 4; >= 1)
  --read-timeout <SECS>    socket read timeout bounding slow clients
                           (default: 10; >= 1)
  --max-body <MB>          largest accepted request body in MiB
                           (default: 64; >= 1)
  --state-dir <DIR>        durable tenants: POST /v1/<tenant>/checkpoint
                           writes <DIR>/<tenant>.snapshot (atomic temp-file
                           + rename) and startup warm-resumes every tenant
                           snapshot found in <DIR>
  --keep <K>               retain the last K rotated snapshots per tenant
                           as <DIR>/<tenant>.snapshot.1..K; chains are
                           keyed by tenant name and never mix. Requires
                           --state-dir
  --on-drift exec:<CMD> | jsonl:<FILE>
                           as for watch, fired on every ingest pass that
                           changed a tenant's schema; events carry a
                           \"tenant\" field, exec sinks additionally get
                           $PGHIVE_DRIFT_TENANT, and a '{tenant}'
                           placeholder in a jsonl path expands to the
                           tenant name; repeatable";

/// Output format of `discover`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// PG-Schema STRICT text.
    Strict,
    /// PG-Schema LOOSE text.
    Loose,
    /// XML Schema (XSD).
    Xsd,
    /// Human-readable one-line summary plus the type inventory.
    Summary,
}

/// Wire format of the graph input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputFormat {
    /// Line-oriented `.pgt` text (the default).
    #[default]
    Pgt,
    /// A directory holding `nodes.csv` + optional `edges.csv`.
    Csv,
    /// JSON-Lines: one node/edge object per line.
    Jsonl,
}

impl InputFormat {
    fn parse(s: Option<&str>) -> Result<Self, String> {
        match s {
            Some("pgt") => Ok(InputFormat::Pgt),
            Some("csv") => Ok(InputFormat::Csv),
            Some("jsonl") => Ok(InputFormat::Jsonl),
            other => Err(format!(
                "--input-format expects pgt|csv|jsonl, got {other:?}"
            )),
        }
    }

    /// Stable wire-format name, as recorded in snapshot files.
    pub fn name(self) -> &'static str {
        match self {
            InputFormat::Pgt => "pgt",
            InputFormat::Csv => "csv",
            InputFormat::Jsonl => "jsonl",
        }
    }
}

/// One parsed `--on-drift` sink specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriftSinkSpec {
    /// `exec:<cmd>` — run a shell command per drift event.
    Exec(String),
    /// `jsonl:<path>` — append one JSON event per line to a file.
    Jsonl(String),
}

impl DriftSinkSpec {
    fn parse(arg: Option<String>) -> Result<Self, String> {
        let arg = arg.ok_or("--on-drift needs a value")?;
        match arg.split_once(':') {
            Some(("exec", cmd)) if !cmd.is_empty() => Ok(DriftSinkSpec::Exec(cmd.to_string())),
            Some(("jsonl", path)) if !path.is_empty() => Ok(DriftSinkSpec::Jsonl(path.to_string())),
            _ => Err(format!(
                "--on-drift expects exec:<command> or jsonl:<path>, got '{arg}'"
            )),
        }
    }
}

/// Parse the `validate --report` destination. Only the jsonl sink makes
/// sense for a batch verb (there is no long-running loop to exec from),
/// so the grammar is the drift-sink `jsonl:` arm alone.
fn parse_report(arg: Option<String>) -> Result<String, String> {
    let arg = arg.ok_or("--report needs a value")?;
    match arg.split_once(':') {
        Some(("jsonl", path)) if !path.is_empty() => Ok(path.to_string()),
        _ => Err(format!("--report expects jsonl:<path>, got '{arg}'")),
    }
}

/// Default `--chunk-size`.
pub const DEFAULT_CHUNK_SIZE: usize = 100_000;

/// Default `--read-ahead` depth (parsed chunks buffered ahead of the
/// workers).
pub const DEFAULT_READ_AHEAD: usize = 2;

/// Ingestion options shared by `discover`, `diff`, `watch` and `stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOpts {
    /// Wire format of the input (`--input-format`).
    pub input_format: InputFormat,
    /// Whether `--stream` chunked ingestion was requested.
    pub stream: bool,
    /// Elements per chunk (`--chunk-size`, ≥ 1).
    pub chunk_size: usize,
    /// Worker threads for per-chunk discovery; `None` = all available
    /// cores. Always ≥ 1 when set (0 is rejected at parse time).
    pub threads: Option<usize>,
    /// Chunks the producer thread parses ahead (`--read-ahead`, ≥ 1).
    pub read_ahead: usize,
}

impl Default for StreamOpts {
    fn default() -> Self {
        Self {
            input_format: InputFormat::Pgt,
            stream: false,
            chunk_size: DEFAULT_CHUNK_SIZE,
            threads: None,
            read_ahead: DEFAULT_READ_AHEAD,
        }
    }
}

impl StreamOpts {
    /// Try to consume `flag` (and its value from `it`) as one of the shared
    /// ingestion flags. `Ok(true)` when consumed, `Ok(false)` when the flag
    /// is not an ingestion flag.
    fn consume<I: Iterator<Item = String>>(
        &mut self,
        flag: &str,
        it: &mut I,
    ) -> Result<bool, String> {
        match flag {
            "--input-format" => {
                self.input_format = InputFormat::parse(it.next().as_deref())?;
            }
            "--stream" => self.stream = true,
            "--chunk-size" => {
                self.chunk_size = parse_positive("--chunk-size", it.next())?;
            }
            "--threads" => {
                self.threads = Some(parse_positive("--threads", it.next())?);
            }
            "--read-ahead" => {
                self.read_ahead = parse_positive("--read-ahead", it.next())?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Parsed sub-command.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // field meanings are given by USAGE and docs/CLI.md
pub enum Command {
    /// `pg-hive discover` — infer the schema of a graph.
    Discover {
        path: String,
        method: ClusterMethod,
        theta: f64,
        batches: usize,
        format: OutputFormat,
        sample: bool,
        seed: u64,
        stream: StreamOpts,
        shards: usize,
        save_state: Option<String>,
        load_state: Option<String>,
    },
    /// `pg-hive diff` — discover two snapshots and report what changed.
    Diff {
        old_path: String,
        new_path: String,
        method: ClusterMethod,
        theta: f64,
        seed: u64,
        stream: StreamOpts,
    },
    /// `pg-hive watch` — long-running (optionally durable) drift monitor.
    Watch {
        path: String,
        method: ClusterMethod,
        theta: f64,
        seed: u64,
        interval_secs: u64,
        once: bool,
        stream: StreamOpts,
        state_dir: Option<String>,
        keep: Option<usize>,
        partition_passes: Option<u64>,
        on_drift: Vec<DriftSinkSpec>,
    },
    /// `pg-hive merge-state` — fold saved engine states into one snapshot.
    MergeState {
        out: String,
        inputs: Vec<String>,
        format: OutputFormat,
    },
    /// `pg-hive validate` — stream instance data against a schema.
    Validate {
        /// Saved snapshot, or a reference input to discover a schema from.
        schema_path: String,
        /// The instance data to check (file or directory tree).
        input_path: String,
        method: ClusterMethod,
        theta: f64,
        seed: u64,
        stream: StreamOpts,
        /// Early-exit violation cap (`--max-violations`).
        max_violations: Option<u64>,
        /// `--report jsonl:<path>` destination.
        report: Option<String>,
    },
    /// `pg-hive stats` — structural statistics.
    Stats { path: String, stream: StreamOpts },
    /// `pg-hive serve` — long-running multi-tenant schema service.
    Serve {
        addr: String,
        method: ClusterMethod,
        theta: f64,
        seed: u64,
        chunk_size: usize,
        workers: usize,
        read_timeout_secs: u64,
        max_body_mb: usize,
        state_dir: Option<String>,
        keep: Option<usize>,
        on_drift: Vec<DriftSinkSpec>,
    },
    /// `pg-hive help`.
    Help,
}

/// Top-level parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The sub-command to run.
    pub command: Command,
}

impl Args {
    /// Parse from an iterator of argument strings (without `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut it = args.into_iter();
        let Some(cmd) = it.next() else {
            return Ok(Args {
                command: Command::Help,
            });
        };
        match cmd.as_str() {
            "help" | "--help" | "-h" => Ok(Args {
                command: Command::Help,
            }),
            "stats" => {
                let path = it.next().ok_or("stats needs a graph file")?;
                let mut stream = StreamOpts::default();
                while let Some(flag) = it.next() {
                    if !stream.consume(&flag, &mut it)? {
                        return Err(format!("unknown flag '{flag}'"));
                    }
                }
                Ok(Args {
                    command: Command::Stats { path, stream },
                })
            }
            "validate" => {
                let schema_path = it
                    .next()
                    .ok_or("validate needs a schema (snapshot or reference input)")?;
                let input_path = it.next().ok_or("validate needs an input to check")?;
                let mut method = ClusterMethod::Elsh;
                let mut theta = 0.9;
                let mut seed = 42u64;
                let mut stream = StreamOpts::default();
                let mut max_violations = None;
                let mut report = None;
                while let Some(flag) = it.next() {
                    if stream.consume(&flag, &mut it)? {
                        continue;
                    }
                    match flag.as_str() {
                        "--method" => method = parse_method(it.next())?,
                        "--theta" => theta = parse_theta(it.next())?,
                        "--seed" => seed = parse_seed(it.next())?,
                        "--max-violations" => {
                            max_violations =
                                Some(parse_positive("--max-violations", it.next())? as u64)
                        }
                        "--report" => report = Some(parse_report(it.next())?),
                        other => return Err(format!("unknown flag '{other}'")),
                    }
                }
                Ok(Args {
                    command: Command::Validate {
                        schema_path,
                        input_path,
                        method,
                        theta,
                        seed,
                        stream,
                        max_violations,
                        report,
                    },
                })
            }
            "diff" => {
                let old_path = it.next().ok_or("diff needs an old graph file")?;
                let new_path = it.next().ok_or("diff needs a new graph file")?;
                let mut method = ClusterMethod::Elsh;
                let mut theta = 0.9;
                let mut seed = 42u64;
                let mut stream = StreamOpts::default();
                while let Some(flag) = it.next() {
                    if stream.consume(&flag, &mut it)? {
                        continue;
                    }
                    match flag.as_str() {
                        "--method" => method = parse_method(it.next())?,
                        "--theta" => theta = parse_theta(it.next())?,
                        "--seed" => seed = parse_seed(it.next())?,
                        other => return Err(format!("unknown flag '{other}'")),
                    }
                }
                Ok(Args {
                    command: Command::Diff {
                        old_path,
                        new_path,
                        method,
                        theta,
                        seed,
                        stream,
                    },
                })
            }
            "watch" => {
                let path = it.next().ok_or("watch needs a graph input")?;
                let mut method = ClusterMethod::Elsh;
                let mut theta = 0.9;
                let mut seed = 42u64;
                let mut interval_secs = 30u64;
                let mut once = false;
                let mut stream = StreamOpts::default();
                let mut state_dir = None;
                let mut keep = None;
                let mut partition_passes = None;
                let mut on_drift = Vec::new();
                while let Some(flag) = it.next() {
                    if stream.consume(&flag, &mut it)? {
                        continue;
                    }
                    match flag.as_str() {
                        "--method" => method = parse_method(it.next())?,
                        "--theta" => theta = parse_theta(it.next())?,
                        "--seed" => seed = parse_seed(it.next())?,
                        "--interval" => {
                            interval_secs = parse_positive("--interval", it.next())? as u64;
                        }
                        "--once" => once = true,
                        "--state-dir" => {
                            state_dir = Some(it.next().ok_or("--state-dir needs a directory")?);
                        }
                        "--keep" => keep = Some(parse_positive("--keep", it.next())?),
                        "--partition" => partition_passes = Some(parse_partition(it.next())?),
                        "--on-drift" => on_drift.push(DriftSinkSpec::parse(it.next())?),
                        other => return Err(format!("unknown flag '{other}'")),
                    }
                }
                if keep.is_some() && state_dir.is_none() {
                    return Err(
                        "--keep requires --state-dir (retained snapshots live in the state dir)"
                            .into(),
                    );
                }
                if partition_passes.is_some() && keep.is_none() {
                    return Err("--partition requires --state-dir and --keep (each rolled \
                         partition becomes a retained snapshot)"
                        .into());
                }
                Ok(Args {
                    command: Command::Watch {
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
                    },
                })
            }
            "discover" => {
                let path = it.next().ok_or("discover needs a graph file")?;
                let mut method = ClusterMethod::Elsh;
                let mut theta = 0.9;
                let mut batches = 1usize;
                let mut format = OutputFormat::Summary;
                let mut sample = false;
                let mut seed = 42u64;
                let mut stream = StreamOpts::default();
                let mut shards = None;
                let mut save_state = None;
                let mut load_state = None;
                while let Some(flag) = it.next() {
                    if stream.consume(&flag, &mut it)? {
                        continue;
                    }
                    match flag.as_str() {
                        "--method" => method = parse_method(it.next())?,
                        "--theta" => theta = parse_theta(it.next())?,
                        "--shards" => shards = Some(parse_positive("--shards", it.next())?),
                        "--save-state" => {
                            save_state = Some(it.next().ok_or("--save-state needs a file path")?);
                        }
                        "--load-state" => {
                            load_state = Some(it.next().ok_or("--load-state needs a file path")?);
                        }
                        "--batches" => {
                            batches = it
                                .next()
                                .ok_or("--batches needs a value")?
                                .parse()
                                .map_err(|e| format!("--batches: {e}"))?;
                            if batches == 0 {
                                return Err("--batches must be >= 1".into());
                            }
                        }
                        "--format" => format = parse_format(it.next())?,
                        "--sample" => sample = true,
                        "--seed" => seed = parse_seed(it.next())?,
                        other => return Err(format!("unknown flag '{other}'")),
                    }
                }
                if stream.stream && batches > 1 {
                    return Err("--stream and --batches are incompatible: streaming chunks \
                         are the batches"
                        .into());
                }
                if (save_state.is_some() || load_state.is_some()) && !stream.stream {
                    return Err(
                        "--save-state/--load-state require --stream (they checkpoint \
                         the streaming engine's resident state)"
                            .into(),
                    );
                }
                if shards.is_some() && !stream.stream {
                    return Err("--shards requires --stream (shards partition the streamed \
                         multi-source enumeration)"
                        .into());
                }
                Ok(Args {
                    command: Command::Discover {
                        path,
                        method,
                        theta,
                        batches,
                        format,
                        sample,
                        seed,
                        stream,
                        shards: shards.unwrap_or(1),
                        save_state,
                        load_state,
                    },
                })
            }
            "serve" => {
                let mut addr = "127.0.0.1:7171".to_string();
                let mut method = ClusterMethod::Elsh;
                let mut theta = 0.9;
                let mut seed = 42u64;
                let mut chunk_size = DEFAULT_CHUNK_SIZE;
                let mut workers = 4usize;
                let mut read_timeout_secs = 10u64;
                let mut max_body_mb = 64usize;
                let mut state_dir = None;
                let mut keep = None;
                let mut on_drift = Vec::new();
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--addr" => addr = it.next().ok_or("--addr needs host:port")?,
                        "--method" => method = parse_method(it.next())?,
                        "--theta" => theta = parse_theta(it.next())?,
                        "--seed" => seed = parse_seed(it.next())?,
                        "--chunk-size" => {
                            chunk_size = parse_positive("--chunk-size", it.next())?;
                        }
                        "--workers" => workers = parse_positive("--workers", it.next())?,
                        "--read-timeout" => {
                            read_timeout_secs = parse_positive("--read-timeout", it.next())? as u64;
                        }
                        "--max-body" => max_body_mb = parse_positive("--max-body", it.next())?,
                        "--state-dir" => {
                            state_dir = Some(it.next().ok_or("--state-dir needs a directory")?);
                        }
                        "--keep" => keep = Some(parse_positive("--keep", it.next())?),
                        "--on-drift" => on_drift.push(DriftSinkSpec::parse(it.next())?),
                        other => return Err(format!("unknown flag '{other}'")),
                    }
                }
                if keep.is_some() && state_dir.is_none() {
                    return Err(
                        "--keep requires --state-dir (retained snapshots live in the state dir)"
                            .into(),
                    );
                }
                Ok(Args {
                    command: Command::Serve {
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
                    },
                })
            }
            "merge-state" => {
                let out = it
                    .next()
                    .ok_or("merge-state needs an output snapshot path")?;
                let mut inputs = Vec::new();
                let mut format = OutputFormat::Summary;
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--format" => format = parse_format(it.next())?,
                        flag if flag.starts_with("--") => {
                            return Err(format!("unknown flag '{flag}'"))
                        }
                        _ => inputs.push(arg),
                    }
                }
                if inputs.is_empty() {
                    return Err(
                        "usage: merge-state <out> <in>... needs at least one input snapshot".into(),
                    );
                }
                Ok(Args {
                    command: Command::MergeState {
                        out,
                        inputs,
                        format,
                    },
                })
            }
            other => Err(format!("unknown command '{other}'")),
        }
    }
}

fn parse_method(arg: Option<String>) -> Result<ClusterMethod, String> {
    match arg.as_deref() {
        Some("elsh") => Ok(ClusterMethod::Elsh),
        Some("minhash") => Ok(ClusterMethod::MinHash),
        other => Err(format!("--method expects elsh|minhash, got {other:?}")),
    }
}

fn parse_theta(arg: Option<String>) -> Result<f64, String> {
    let theta: f64 = arg
        .ok_or("--theta needs a value")?
        .parse()
        .map_err(|e| format!("--theta: {e}"))?;
    if !(0.0..=1.0).contains(&theta) {
        return Err("--theta must be in [0, 1]".into());
    }
    Ok(theta)
}

fn parse_seed(arg: Option<String>) -> Result<u64, String> {
    arg.ok_or("--seed needs a value")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))
}

fn parse_format(arg: Option<String>) -> Result<OutputFormat, String> {
    match arg.as_deref() {
        Some("strict") => Ok(OutputFormat::Strict),
        Some("loose") => Ok(OutputFormat::Loose),
        Some("xsd") => Ok(OutputFormat::Xsd),
        Some("summary") => Ok(OutputFormat::Summary),
        other => Err(format!(
            "--format expects strict|loose|xsd|summary, got {other:?}"
        )),
    }
}

/// Parse `--partition passes:<n>` — the only partitioning dimension today,
/// but the `key:value` grammar leaves room for size- or time-based ones.
fn parse_partition(arg: Option<String>) -> Result<u64, String> {
    let arg = arg.ok_or("--partition needs a value")?;
    match arg.split_once(':') {
        Some(("passes", n)) => {
            let n: u64 = n.parse().map_err(|e| format!("--partition passes: {e}"))?;
            if n == 0 {
                return Err("--partition passes must be >= 1".into());
            }
            Ok(n)
        }
        _ => Err(format!("--partition expects passes:<n>, got '{arg}'")),
    }
}

/// Parse a flag value that must be a positive integer — `0` would mean "no
/// chunks" / "no workers" / "no buffer" and silently degenerate, so it is
/// rejected with the flag's name in the error.
fn parse_positive(flag: &str, arg: Option<String>) -> Result<usize, String> {
    let n: usize = arg
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))?;
    if n == 0 {
        return Err(format!("{flag} must be >= 1"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn no_args_is_help() {
        assert!(matches!(parse(&[]).unwrap().command, Command::Help));
    }

    #[test]
    fn discover_defaults() {
        let a = parse(&["discover", "g.pgt"]).unwrap();
        let Command::Discover {
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
        } = a.command
        else {
            panic!()
        };
        assert_eq!(shards, 1);
        assert_eq!(save_state, None);
        assert_eq!(load_state, None);
        assert_eq!(path, "g.pgt");
        assert_eq!(method, ClusterMethod::Elsh);
        assert_eq!(theta, 0.9);
        assert_eq!(batches, 1);
        assert_eq!(format, OutputFormat::Summary);
        assert!(!sample);
        assert_eq!(seed, 42);
        assert_eq!(stream, StreamOpts::default());
        assert_eq!(stream.input_format, InputFormat::Pgt);
        assert!(!stream.stream);
        assert_eq!(stream.chunk_size, DEFAULT_CHUNK_SIZE);
        assert_eq!(stream.threads, None);
        assert_eq!(stream.read_ahead, DEFAULT_READ_AHEAD);
    }

    #[test]
    fn discover_full_flags() {
        let a = parse(&[
            "discover",
            "g.pgt",
            "--method",
            "minhash",
            "--theta",
            "0.8",
            "--batches",
            "10",
            "--format",
            "strict",
            "--sample",
            "--seed",
            "7",
        ])
        .unwrap();
        let Command::Discover {
            method,
            theta,
            batches,
            format,
            sample,
            seed,
            ..
        } = a.command
        else {
            panic!()
        };
        assert_eq!(method, ClusterMethod::MinHash);
        assert_eq!(theta, 0.8);
        assert_eq!(batches, 10);
        assert_eq!(format, OutputFormat::Strict);
        assert!(sample);
        assert_eq!(seed, 7);
    }

    #[test]
    fn discover_streaming_flags() {
        let a = parse(&[
            "discover",
            "dump",
            "--stream",
            "--chunk-size",
            "5000",
            "--input-format",
            "csv",
            "--threads",
            "3",
            "--read-ahead",
            "5",
        ])
        .unwrap();
        let Command::Discover { stream, .. } = a.command else {
            panic!()
        };
        assert!(stream.stream);
        assert_eq!(stream.chunk_size, 5000);
        assert_eq!(stream.input_format, InputFormat::Csv);
        assert_eq!(stream.threads, Some(3));
        assert_eq!(stream.read_ahead, 5);
    }

    #[test]
    fn stream_excludes_batches() {
        assert!(parse(&["discover", "g", "--stream", "--batches", "4"]).is_err());
        assert!(parse(&["discover", "g", "--stream", "--batches", "1"]).is_ok());
    }

    #[test]
    fn chunk_size_validated() {
        assert!(parse(&["discover", "g", "--chunk-size", "0"]).is_err());
        assert!(parse(&["discover", "g", "--chunk-size", "nope"]).is_err());
        assert!(parse(&["stats", "g", "--chunk-size", "0"]).is_err());
        assert!(parse(&["diff", "a", "b", "--chunk-size", "0"]).is_err());
    }

    #[test]
    fn zero_threads_and_read_ahead_rejected_everywhere() {
        // Regression: 0 would mean "no workers" / "no buffer" and must be a
        // parse error with the flag name, not degenerate behavior.
        for cmd in [&["discover", "g"][..], &["stats", "g"], &["diff", "a", "b"]] {
            let mut with_threads = cmd.to_vec();
            with_threads.extend(["--threads", "0"]);
            let err = parse(&with_threads).unwrap_err();
            assert!(err.contains("--threads must be >= 1"), "{err}");
            let mut with_ra = cmd.to_vec();
            with_ra.extend(["--read-ahead", "0"]);
            let err = parse(&with_ra).unwrap_err();
            assert!(err.contains("--read-ahead must be >= 1"), "{err}");
        }
        assert!(parse(&["discover", "g", "--threads", "4"]).is_ok());
        assert!(parse(&["discover", "g", "--threads", "-2"]).is_err());
        assert!(parse(&["discover", "g", "--read-ahead", "nope"]).is_err());
    }

    #[test]
    fn input_format_validated() {
        assert!(parse(&["discover", "g", "--input-format", "xml"]).is_err());
        assert!(parse(&["stats", "g", "--input-format", "jsonl"]).is_ok());
    }

    #[test]
    fn invalid_theta_rejected() {
        assert!(parse(&["discover", "g", "--theta", "1.5"]).is_err());
        assert!(parse(&["discover", "g", "--theta", "nope"]).is_err());
    }

    #[test]
    fn zero_batches_rejected() {
        assert!(parse(&["discover", "g", "--batches", "0"]).is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        assert!(parse(&["discover", "g", "--frobnicate"]).is_err());
        assert!(parse(&["stats", "g", "--batches", "2"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
    }

    #[test]
    fn validate_parses() {
        let a = parse(&[
            "validate",
            "schema.snap",
            "data.pgt",
            "--input-format",
            "jsonl",
            "--stream",
            "--chunk-size",
            "7",
            "--threads",
            "2",
            "--max-violations",
            "5",
            "--report",
            "jsonl:viol.jsonl",
        ])
        .unwrap();
        let Command::Validate {
            schema_path,
            input_path,
            stream,
            max_violations,
            report,
            ..
        } = a.command
        else {
            panic!()
        };
        assert_eq!(schema_path, "schema.snap");
        assert_eq!(input_path, "data.pgt");
        assert!(stream.stream);
        assert_eq!(stream.chunk_size, 7);
        assert_eq!(stream.threads, Some(2));
        assert_eq!(max_violations, Some(5));
        assert_eq!(report.as_deref(), Some("viol.jsonl"));
    }

    #[test]
    fn validate_rejects_bad_flags() {
        let err = parse(&["validate", "s", "d", "--report", "exec:echo"]).unwrap_err();
        assert!(err.contains("--report expects jsonl:<path>"), "{err}");
        let err = parse(&["validate", "s", "d", "--max-violations", "0"]).unwrap_err();
        assert!(err.contains("--max-violations must be >= 1"), "{err}");
        let err = parse(&["validate", "s"]).unwrap_err();
        assert!(err.contains("validate needs an input"), "{err}");
    }

    #[test]
    fn stats_parses() {
        let a = parse(&["stats", "g.pgt", "--stream"]).unwrap();
        let Command::Stats { stream, .. } = a.command else {
            panic!()
        };
        assert!(stream.stream);
    }

    #[test]
    fn watch_parses_with_defaults_and_flags() {
        let a = parse(&["watch", "g.pgt"]).unwrap();
        let Command::Watch {
            path,
            interval_secs,
            once,
            stream,
            state_dir,
            on_drift,
            ..
        } = a.command
        else {
            panic!()
        };
        assert_eq!(path, "g.pgt");
        assert_eq!(interval_secs, 30);
        assert!(!once);
        assert_eq!(stream, StreamOpts::default());
        assert_eq!(state_dir, None);
        assert!(on_drift.is_empty());

        let a = parse(&[
            "watch",
            "dir",
            "--input-format",
            "csv",
            "--interval",
            "5",
            "--once",
            "--threads",
            "2",
            "--read-ahead",
            "4",
            "--chunk-size",
            "100",
            "--theta",
            "0.8",
        ])
        .unwrap();
        let Command::Watch {
            interval_secs,
            once,
            theta,
            stream,
            ..
        } = a.command
        else {
            panic!()
        };
        assert_eq!(interval_secs, 5);
        assert!(once);
        assert_eq!(theta, 0.8);
        assert_eq!(stream.input_format, InputFormat::Csv);
        assert_eq!(stream.threads, Some(2));
        assert_eq!(stream.chunk_size, 100);
    }

    #[test]
    fn watch_state_dir_and_drift_sinks_parse() {
        let a = parse(&[
            "watch",
            "g.pgt",
            "--state-dir",
            "statedir",
            "--on-drift",
            "jsonl:events.jsonl",
            "--on-drift",
            "exec:notify-send drift",
        ])
        .unwrap();
        let Command::Watch {
            state_dir,
            on_drift,
            ..
        } = a.command
        else {
            panic!()
        };
        assert_eq!(state_dir.as_deref(), Some("statedir"));
        assert_eq!(
            on_drift,
            vec![
                DriftSinkSpec::Jsonl("events.jsonl".into()),
                DriftSinkSpec::Exec("notify-send drift".into()),
            ]
        );

        // Malformed sink specs are parse errors with the flag's grammar.
        for bad in ["frob:x", "exec:", "jsonl:", "no-colon"] {
            let err = parse(&["watch", "g", "--on-drift", bad]).unwrap_err();
            assert!(err.contains("exec:<command> or jsonl:<path>"), "{err}");
        }
        assert!(parse(&["watch", "g", "--state-dir"]).is_err());
        assert!(parse(&["watch", "g", "--on-drift"]).is_err());
    }

    #[test]
    fn discover_state_flags_require_stream() {
        let a = parse(&[
            "discover",
            "g.pgt",
            "--stream",
            "--save-state",
            "s.snap",
            "--load-state",
            "old.snap",
        ])
        .unwrap();
        let Command::Discover {
            save_state,
            load_state,
            ..
        } = a.command
        else {
            panic!()
        };
        assert_eq!(save_state.as_deref(), Some("s.snap"));
        assert_eq!(load_state.as_deref(), Some("old.snap"));

        for flags in [
            &["discover", "g", "--save-state", "s.snap"][..],
            &["discover", "g", "--load-state", "s.snap"],
        ] {
            let err = parse(flags).unwrap_err();
            assert!(err.contains("require --stream"), "{err}");
        }
        assert!(parse(&["discover", "g", "--stream", "--save-state"]).is_err());
    }

    #[test]
    fn input_format_names_round_trip() {
        for (fmt, name) in [
            (InputFormat::Pgt, "pgt"),
            (InputFormat::Csv, "csv"),
            (InputFormat::Jsonl, "jsonl"),
        ] {
            assert_eq!(fmt.name(), name);
            assert_eq!(InputFormat::parse(Some(name)).unwrap(), fmt);
        }
    }

    #[test]
    fn shards_parse_and_require_stream() {
        let a = parse(&["discover", "tree", "--stream", "--shards", "4"]).unwrap();
        let Command::Discover { shards, .. } = a.command else {
            panic!()
        };
        assert_eq!(shards, 4);

        let err = parse(&["discover", "tree", "--shards", "4"]).unwrap_err();
        assert!(err.contains("--shards requires --stream"), "{err}");
        let err = parse(&["discover", "tree", "--stream", "--shards", "0"]).unwrap_err();
        assert!(err.contains("--shards must be >= 1"), "{err}");
        assert!(parse(&["discover", "tree", "--stream", "--shards", "nope"]).is_err());
    }

    #[test]
    fn merge_state_parses_out_inputs_and_format() {
        let a = parse(&["merge-state", "out.snap", "a.snap", "b.snap", "c.snap"]).unwrap();
        let Command::MergeState {
            out,
            inputs,
            format,
        } = a.command
        else {
            panic!()
        };
        assert_eq!(out, "out.snap");
        assert_eq!(inputs, vec!["a.snap", "b.snap", "c.snap"]);
        assert_eq!(format, OutputFormat::Summary);

        let a = parse(&["merge-state", "o", "a", "--format", "strict"]).unwrap();
        let Command::MergeState { format, .. } = a.command else {
            panic!()
        };
        assert_eq!(format, OutputFormat::Strict);

        assert!(parse(&["merge-state"]).is_err());
        let err = parse(&["merge-state", "out.snap"]).unwrap_err();
        assert!(err.contains("at least one input snapshot"), "{err}");
        assert!(parse(&["merge-state", "o", "a", "--frobnicate"]).is_err());
        assert!(parse(&["merge-state", "o", "a", "--format", "nope"]).is_err());
    }

    #[test]
    fn watch_keep_and_partition_parse_with_guards() {
        let a = parse(&[
            "watch",
            "tree",
            "--state-dir",
            "sd",
            "--keep",
            "3",
            "--partition",
            "passes:5",
        ])
        .unwrap();
        let Command::Watch {
            keep,
            partition_passes,
            ..
        } = a.command
        else {
            panic!()
        };
        assert_eq!(keep, Some(3));
        assert_eq!(partition_passes, Some(5));

        let err = parse(&["watch", "g", "--keep", "3"]).unwrap_err();
        assert!(err.contains("--keep requires --state-dir"), "{err}");
        let err =
            parse(&["watch", "g", "--state-dir", "sd", "--partition", "passes:5"]).unwrap_err();
        assert!(
            err.contains("--partition requires --state-dir and --keep"),
            "{err}"
        );
        let err = parse(&[
            "watch",
            "g",
            "--state-dir",
            "sd",
            "--keep",
            "2",
            "--partition",
            "rows:5",
        ])
        .unwrap_err();
        assert!(err.contains("--partition expects passes:<n>"), "{err}");
        let err = parse(&[
            "watch",
            "g",
            "--state-dir",
            "sd",
            "--keep",
            "2",
            "--partition",
            "passes:0",
        ])
        .unwrap_err();
        assert!(err.contains("--partition passes must be >= 1"), "{err}");
        let err = parse(&["watch", "g", "--state-dir", "sd", "--keep", "0"]).unwrap_err();
        assert!(err.contains("--keep must be >= 1"), "{err}");
    }

    #[test]
    fn watch_rejects_zero_interval_and_unknown_flags() {
        let err = parse(&["watch", "g", "--interval", "0"]).unwrap_err();
        assert!(err.contains("--interval must be >= 1"), "{err}");
        assert!(parse(&["watch", "g", "--batches", "2"]).is_err());
        assert!(parse(&["watch"]).is_err());
    }

    #[test]
    fn diff_parses() {
        let a = parse(&[
            "diff",
            "old.pgt",
            "new.pgt",
            "--theta",
            "0.8",
            "--stream",
            "--threads",
            "2",
        ])
        .unwrap();
        let Command::Diff {
            old_path,
            new_path,
            theta,
            stream,
            ..
        } = a.command
        else {
            panic!()
        };
        assert_eq!(old_path, "old.pgt");
        assert_eq!(new_path, "new.pgt");
        assert_eq!(theta, 0.8);
        assert!(stream.stream);
        assert_eq!(stream.threads, Some(2));
        assert!(parse(&["diff", "only-one"]).is_err());
    }

    #[test]
    fn serve_defaults() {
        let a = parse(&["serve"]).unwrap();
        let Command::Serve {
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
        } = a.command
        else {
            panic!()
        };
        assert_eq!(addr, "127.0.0.1:7171");
        assert_eq!(method, ClusterMethod::Elsh);
        assert_eq!(theta, 0.9);
        assert_eq!(seed, 42);
        assert_eq!(chunk_size, DEFAULT_CHUNK_SIZE);
        assert_eq!(workers, 4);
        assert_eq!(read_timeout_secs, 10);
        assert_eq!(max_body_mb, 64);
        assert_eq!(state_dir, None);
        assert_eq!(keep, None);
        assert!(on_drift.is_empty());
    }

    #[test]
    fn serve_full_flags() {
        let a = parse(&[
            "serve",
            "--addr",
            "0.0.0.0:0",
            "--method",
            "minhash",
            "--theta",
            "0.8",
            "--seed",
            "7",
            "--chunk-size",
            "500",
            "--workers",
            "2",
            "--read-timeout",
            "3",
            "--max-body",
            "8",
            "--state-dir",
            "/tmp/hive",
            "--keep",
            "2",
            "--on-drift",
            "jsonl:/tmp/{tenant}.jsonl",
            "--on-drift",
            "exec:echo hi",
        ])
        .unwrap();
        let Command::Serve {
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
        } = a.command
        else {
            panic!()
        };
        assert_eq!(addr, "0.0.0.0:0");
        assert_eq!(method, ClusterMethod::MinHash);
        assert_eq!(theta, 0.8);
        assert_eq!(seed, 7);
        assert_eq!(chunk_size, 500);
        assert_eq!(workers, 2);
        assert_eq!(read_timeout_secs, 3);
        assert_eq!(max_body_mb, 8);
        assert_eq!(state_dir.as_deref(), Some("/tmp/hive"));
        assert_eq!(keep, Some(2));
        assert_eq!(
            on_drift,
            vec![
                DriftSinkSpec::Jsonl("/tmp/{tenant}.jsonl".into()),
                DriftSinkSpec::Exec("echo hi".into()),
            ]
        );
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(
            parse(&["serve", "--keep", "2"]).is_err(),
            "--keep without --state-dir"
        );
        assert!(parse(&["serve", "--workers", "0"]).is_err());
        assert!(parse(&["serve", "--read-timeout", "0"]).is_err());
        assert!(
            parse(&["serve", "--stream"]).is_err(),
            "serve has no --stream"
        );
        assert!(parse(&["serve", "--on-drift", "bogus:x"]).is_err());
    }
}
