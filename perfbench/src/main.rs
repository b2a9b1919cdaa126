//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! The library is driven from outside through its public API, composed
//! exactly as the `pg-hive` CLI verbs compose it, with the product
//! defaults (chunk 100k, read-ahead 2, `threads` = nproc). Two
//! subcommands, each run in a fresh process so set-up never shows in the
//! measured process's peak RSS:
//!
//! ```text
//! perfbench prepare --workload W --seed N --dir D
//! perfbench measure --workload W --seed N --dir D --seconds S --trace 0|1
//! ```
//!
//! `prepare` generates the workload's inputs from the seed and builds its
//! references under `D`, and prints one JSON line with its wall time, a
//! digest of everything it wrote and the input properties. `measure` runs
//! the workload for `S` seconds, checks every output, and prints one JSON
//! line with its own set-up time, the checks and the metrics: end-to-end
//! with `--trace 0`, per-layer from the traced decomposition with
//! `--trace 1`. `run.py` drives both and prints the benchmark's result.

mod http;
mod resident;
mod serve;
mod social;
mod stages;
mod stream;
mod trace;
mod util;
mod validate;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use util::{Digest, JsonObj};

/// The pipeline configuration every workload uses: the CLI's defaults
/// (ELSH, θ = 0.9, seed 42). The benchmark seed only shapes the inputs.
pub fn discoverer() -> pg_hive_core::Discoverer {
    pg_hive_core::Discoverer::new(pg_hive_core::PipelineConfig {
        seed: 42,
        ..pg_hive_core::PipelineConfig::default()
    })
}

/// What `prepare` hands back: a digest of the files it wrote and the
/// properties of the inputs.
#[derive(Default)]
pub struct Prepared {
    pub digest: Digest,
    pub inputs: JsonObj,
}

impl Prepared {
    /// Write `bytes` to `dir/name` and fold them into the digest.
    pub fn write(&mut self, dir: &Path, name: &str, bytes: &[u8]) -> Result<(), String> {
        self.digest.update(name.as_bytes());
        self.digest.update(bytes);
        std::fs::write(dir.join(name), bytes).map_err(|e| format!("write {name}: {e}"))
    }
}

/// One output check.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What `measure` hands back.
#[derive(Default)]
pub struct Outcome {
    /// Set-up done inside the measuring process (loading references,
    /// compiling the schema, starting the server).
    pub setup_s: f64,
    pub checks: Vec<Check>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The traced run's spans as JSON lines, written out at the end.
    pub spans: Option<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: if ok { String::new() } else { detail() },
        });
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The end-to-end metrics of an untraced run (`setup_s` is added by
    /// `run.py`): throughput, and the peak RSS of the first unit.
    pub fn end_to_end(&mut self, elems_per_s: f64, peak_mb: f64) {
        self.metric("elems_per_s", elems_per_s, "1/s");
        self.metric("peak_rss_mb", peak_mb, "MB");
    }

    /// Median per-unit self time of every traced layer (`<layer>.busy_s`),
    /// plus `trace.coverage`.
    pub fn layers(&mut self, tr: &Tracer) {
        for (layer, per_unit) in trace::layer_self_secs(tr.spans()) {
            self.metric(
                &format!("{layer}.busy_s"),
                util::median(&per_unit).unwrap_or(0.0),
                "s",
            );
        }
        self.metric("trace.coverage", trace::coverage(tr.spans()), "ratio");
    }

    /// `trace.overhead`: traced over untraced wall time of the same
    /// decomposition, medians over the units.
    pub fn overhead(&mut self, run: &trace::TracedRun) {
        let (traced, untraced) = run.walls();
        let ratio = util::median(traced)
            .zip(util::median(untraced))
            .map(|(t, u)| t / u);
        self.check("trace.overhead measured", ratio.is_some(), || {
            "no traced/untraced pair completed".into()
        });
        self.metric("trace.overhead", ratio.unwrap_or(f64::NAN), "ratio");
    }

    /// Signature-cache and dedup counters of the traced decomposition.
    pub fn cache_counters(&mut self, tr: &Tracer) {
        let lookups = tr.counter_total("core.sigcache.lookups");
        let hits = tr.counter_total("core.sigcache.hits");
        let per_unit = util::median(&tr.counter_per_unit("core.sigcache.lookups")).unwrap_or(0.0);
        self.metric("core.sigcache.lookups", per_unit, "count");
        self.metric(
            "core.sigcache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        );
        let distinct = tr.counter_total("core.preprocess.distinct");
        let elements = tr.counter_total("core.preprocess.elements");
        self.metric(
            "core.preprocess.dedup_ratio",
            if distinct > 0.0 {
                elements / distinct
            } else {
                0.0
            },
            "ratio",
        );
        for name in ["core.cluster.hashed_points", "core.state.pooled_types"] {
            let v = util::median(&tr.counter_per_unit(name)).unwrap_or(0.0);
            self.metric(name, v, "count");
        }
    }

    fn render(&self) -> String {
        let mut metrics = JsonObj::default();
        for (name, value, unit) in &self.metrics {
            let mut m = JsonObj::default();
            m.num("value", *value).str("unit", unit);
            metrics.raw(name, &m.render());
        }
        let failed: Vec<String> = self
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| {
                let mut o = JsonObj::default();
                o.str("check", &c.name).str("detail", &c.detail);
                o.render()
            })
            .collect();
        let mut o = JsonObj::default();
        o.num("setup_s", self.setup_s)
            .int("attempted", self.checks.len() as u64)
            .int("failed", failed.len() as u64)
            .raw("metrics", &metrics.render())
            .raw("failures", &format!("[{}]", failed.join(",")));
        o.render()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    StreamLabeled,
    ResidentNoisy,
    ServeMixed,
    ValidateStream,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "stream_labeled" => Workload::StreamLabeled,
            "resident_noisy" => Workload::ResidentNoisy,
            "serve_mixed" => Workload::ServeMixed,
            "validate_stream" => Workload::ValidateStream,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::StreamLabeled => "stream_labeled",
            Workload::ResidentNoisy => "resident_noisy",
            Workload::ServeMixed => "serve_mixed",
            Workload::ValidateStream => "validate_stream",
        }
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut dir = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?)
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        dir: dir.ok_or("--dir is required")?,
        seconds,
        trace,
    })
}

fn prepare(o: &Opts) -> Result<String, String> {
    std::fs::create_dir_all(&o.dir).map_err(|e| format!("create {}: {e}", o.dir.display()))?;
    let t = Instant::now();
    let p = match o.workload {
        Workload::StreamLabeled => stream::prepare(o.seed, &o.dir)?,
        Workload::ResidentNoisy => resident::prepare(o.seed, &o.dir)?,
        Workload::ServeMixed => serve::prepare(o.seed, &o.dir)?,
        Workload::ValidateStream => validate::prepare(o.seed, &o.dir)?,
    };
    let setup_s = util::secs(t);
    let mut out = JsonObj::default();
    out.num("setup_s", setup_s)
        .str("digest", &p.digest.hex())
        .raw("inputs", &p.inputs.render());
    Ok(out.render())
}

fn measure(o: &Opts) -> Result<String, String> {
    let mut out = match o.workload {
        Workload::StreamLabeled => stream::measure(&o.dir, o.seconds, o.trace)?,
        Workload::ResidentNoisy => resident::measure(&o.dir, o.seconds, o.trace)?,
        Workload::ServeMixed => serve::measure(&o.dir, o.seconds, o.trace)?,
        Workload::ValidateStream => validate::measure(&o.dir, o.seconds, o.trace)?,
    };
    if let Some(spans) = out.spans.take() {
        // Beside the per-run directory, which run.py removes.
        let name = format!("spans-{}.jsonl", o.workload.name());
        let path = o.dir.parent().unwrap_or(&o.dir).join(name);
        std::fs::write(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let bad: Vec<&str> = out
        .metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(n, _, _)| n.as_str())
        .collect();
    let detail = bad.join(", ");
    out.check("metrics are finite", bad.is_empty(), || detail);
    Ok(out.render())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => parse_opts(rest).and_then(|o| match cmd.as_str() {
            "prepare" => prepare(&o),
            "measure" => measure(&o),
            other => Err(format!(
                "unknown subcommand {other} (want prepare or measure)"
            )),
        }),
        None => Err(
            "usage: perfbench prepare|measure --workload W --seed N --dir D \
                     [--seconds S] [--trace 0|1]"
                .into(),
        ),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
