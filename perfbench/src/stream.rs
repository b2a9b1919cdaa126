//! `stream_labeled`: `pg-hive discover --stream` over one large labeled
//! pgt file — `ReadAheadChunks` → `absorb_stream_cached` → `finalize` →
//! `pg_schema_strict`, as the CLI composes it. Bound by ingestion; the
//! signature cache gets almost no hits.

use crate::stages::Stages;
use crate::trace::{TracedRun, Tracer};
use crate::{social, util, Outcome, Prepared};
use pg_hive_core::preprocess::signature_scan;
use pg_hive_core::schema::SchemaGraph;
use pg_hive_core::serialize::pg_schema_strict;
use pg_hive_core::{Discoverer, SignatureCache};
use pg_hive_graph::loader::save_text;
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{ChunkedTextReader, GraphBatch, RawGraphSource, ReadAheadChunks, RecordBuf};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

/// The CLI's `--chunk-size` default.
pub const CHUNK: usize = pg_hive_core::serve::DEFAULT_CHUNK_SIZE;
/// The CLI's `--read-ahead` default.
pub const READ_AHEAD: usize = 2;

const INPUT: &str = "input.pgt";
const REFERENCE: &str = "reference.strict";

/// A buffered pgt source over `path`, boxed, as the CLI's `open_source`
/// opens it.
pub fn open_pgt(path: &Path) -> Result<Box<dyn RawGraphSource + Send>, String> {
    let f = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    Ok(Box::new(PgtSource::new(BufReader::with_capacity(
        1 << 20,
        f,
    ))))
}

/// The serial, uncached reference: `discover_stream` over a
/// `ChunkedTextReader`. Returns the schema and the reader's cross-chunk
/// edge and chunk counts.
pub fn serial_reference(d: &Discoverer, path: &Path) -> Result<(SchemaGraph, u64, usize), String> {
    let mut reader = ChunkedTextReader::new(open_pgt(path)?, CHUNK);
    let mut err = None;
    let result = d.discover_stream(std::iter::from_fn(|| match reader.next_chunk() {
        Ok(c) => c,
        Err(e) => {
            err = Some(e.to_string());
            None
        }
    }));
    match err {
        Some(e) => Err(format!("parse {}: {e}", path.display())),
        None => Ok((
            result.schema,
            reader.warnings().cross_chunk_edges,
            reader.chunks_emitted(),
        )),
    }
}

pub fn prepare(seed: u64, dir: &Path) -> Result<Prepared, String> {
    let ds = social::generate(seed);
    let g = &ds.graph;
    let text = save_text(g);
    let mut p = Prepared::default();
    p.write(dir, INPUT, text.as_bytes())?;
    let all = GraphBatch {
        nodes: g.nodes().map(|(id, _)| id).collect(),
        edges: g.edges().map(|(id, _)| id).collect(),
    };
    let scan = signature_scan(g, &all);
    let labeled = g.nodes().filter(|(_, n)| !n.labels.is_empty()).count()
        + g.edges().filter(|(_, e)| !e.labels.is_empty()).count();
    drop(ds);
    let (schema, cross, chunks) = serial_reference(&crate::discoverer(), &dir.join(INPUT))?;
    p.write(
        dir,
        REFERENCE,
        pg_schema_strict(&schema, "Discovered").as_bytes(),
    )?;
    let elements = social::ELEMENTS as u64;
    p.inputs
        .int("elements", elements)
        .int("bytes", text.len() as u64)
        .int(
            "distinct_signatures",
            (scan.nodes.distinct + scan.edges.distinct) as u64,
        )
        .num("labeled_share", labeled as f64 / elements as f64)
        .int("cross_chunk_edges", cross)
        .int("chunks", chunks as u64);
    Ok(p)
}

/// One `discover --stream` pass; with `wait`, also the time the consumer
/// spent blocked on the read-ahead producer.
fn product_pass(
    d: &Discoverer,
    path: &Path,
    wait: Option<&mut f64>,
) -> Result<(String, SchemaGraph), String> {
    let mut ahead = ReadAheadChunks::spawn(open_pgt(path)?, CHUNK, READ_AHEAD);
    let cache = SignatureCache::default();
    let mut state = d.new_state();
    let mut err = None;
    let mut waited = 0.0;
    let timed = wait.is_some();
    d.absorb_stream_cached(
        std::iter::from_fn(|| {
            let t = timed.then(Instant::now);
            let next = ahead.next_chunk();
            if let Some(t) = t {
                waited += util::secs(t);
            }
            match next {
                Ok(c) => c,
                Err(e) => {
                    err = Some(e.to_string());
                    None
                }
            }
        }),
        &mut state,
        util::nproc(),
        &cache,
    );
    if let Some(e) = err {
        return Err(format!("parse {}: {e}", path.display()));
    }
    if let Some(w) = wait {
        *w = waited;
    }
    let schema = state.finalize();
    Ok((pg_schema_strict(&schema, "Discovered"), schema))
}

/// The same discovery as a serial decomposition into public calls, one
/// span per layer.
fn traced_pass(stages: &Stages, path: &Path, tr: &mut Tracer) -> Result<String, String> {
    let mut reader = ChunkedTextReader::new(open_pgt(path)?, CHUNK);
    let cache = SignatureCache::default();
    let mut state = stages.d.new_state();
    while let Some(chunk) = tr
        .span("pgraph.stream.chunk", |_| reader.next_chunk())
        .map_err(|e| e.to_string())?
    {
        let cs = stages.chunk_state(&chunk, Some(&cache), tr);
        tr.span("core.state.merge", |_| state.merge(cs));
    }
    tr.count(
        "pgraph.stream.cross_chunk_edges",
        reader.warnings().cross_chunk_edges as f64,
    );
    tr.count("core.state.pooled_types", state.pooled_types() as f64);
    let schema = tr.span("core.state.finalize", |_| state.finalize());
    Ok(tr.span("core.serialize", |_| {
        pg_schema_strict(&schema, "Discovered")
    }))
}

/// Parse-only drain through `RawGraphSource::read_record`: seconds and
/// records.
pub fn parse_drain<S: RawGraphSource>(mut src: S) -> Result<(f64, u64), String> {
    let mut buf = RecordBuf::new();
    let mut records = 0u64;
    let t = Instant::now();
    while src.read_record(&mut buf).map_err(|e| e.to_string())? {
        records += 1;
    }
    Ok((util::secs(t), records))
}

pub fn measure(dir: &Path, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let t = Instant::now();
    let mut out = Outcome::default();
    let path = dir.join(INPUT);
    let reference =
        std::fs::read_to_string(dir.join(REFERENCE)).map_err(|e| format!("read reference: {e}"))?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let truth = social::truth_inventory();
    let d = crate::discoverer();
    out.setup_s = util::secs(t);

    let start = Instant::now();
    if !trace {
        let (mut rss, mut peak) = (Some(util::RssPeak::start()?), 0.0);
        let mut passes = Vec::new();
        while passes.is_empty() || util::secs(start) < seconds {
            let t = Instant::now();
            let (strict, schema) = product_pass(&d, &path, None)?;
            passes.push(util::secs(t));
            if let Some(r) = rss.take() {
                peak = r.take();
            }
            out.check(
                "strict bytes equal the serial uncached reference",
                strict == reference,
                || format!("pass {} differs from the reference", passes.len()),
            );
            out.check(
                "labeled inventory equals the generator's 12/8 types",
                social::inventory(&schema) == truth,
                || format!("{:?}", social::inventory(&schema)),
            );
            out.check(
                "instance counts cover every element once",
                social::counts_match(&schema),
                || {
                    format!(
                        "{} nodes, {} edges",
                        schema.node_instances(),
                        schema.edge_instances()
                    )
                },
            );
        }
        out.end_to_end(
            (passes.len() * social::ELEMENTS) as f64 / passes.iter().sum::<f64>(),
            peak,
        );
        return Ok(out);
    }

    // Traced run: cycles of (parse drain, instrumented product pass,
    // traced and untraced decomposition) until the time is up.
    let stages = Stages::new(&d);
    let mut run = TracedRun::new();
    let (mut parse, mut waits) = (vec![], vec![]);
    let mut unit = 0;
    while unit == 0 || util::secs(start) < seconds {
        let (s, _) = parse_drain(open_pgt(&path)?)?;
        parse.push(s);
        let mut w = 0.0;
        product_pass(&d, &path, Some(&mut w))?;
        waits.push(w);
        let strict = run.unit(unit, |tr| traced_pass(&stages, &path, tr))?;
        out.check(
            "traced decomposition equals the untraced bytes",
            strict == reference,
            || format!("traced pass {unit} differs"),
        );
        unit += 1;
    }
    let parse_s = util::median(&parse).unwrap_or(f64::NAN);
    out.metric("pgraph.stream.parse.busy_s", parse_s, "s");
    out.metric(
        "pgraph.stream.parse.mb_per_s",
        bytes as f64 / 1e6 / parse_s,
        "MB/s",
    );
    out.metric(
        "pgraph.read_ahead.wait_s",
        util::median(&waits).unwrap_or(f64::NAN),
        "s",
    );
    out.metric(
        "pgraph.stream.cross_chunk_edges",
        util::median(&run.tr.counter_per_unit("pgraph.stream.cross_chunk_edges")).unwrap_or(0.0),
        "count",
    );
    out.layers(&run.tr);
    out.cache_counters(&run.tr);
    out.overhead(&run);
    out.spans = Some(run.tr.to_jsonl());
    Ok(out)
}
