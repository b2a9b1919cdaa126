//! `validate_stream`: `pg-hive validate` with a compiled schema — the
//! control workload. `CompiledSchema::compile` builds the validator from
//! `stream_labeled`'s schema during set-up; the timed part is
//! `Validator::validate_source` over a copy of that file with a fixed set
//! of planted violations. Same parser as `stream_labeled`, no discovery.

use crate::stream::{open_pgt, CHUNK};
use crate::trace::{TracedRun, Tracer};
use crate::util::Rng;
use crate::{social, util, Outcome, Prepared};
use pg_hive_core::snapshot::{state_from_lines, state_to_lines};
use pg_hive_core::{CompiledSchema, StreamValidationReport, Validator, ViolationKind};
use pg_hive_graph::loader::save_text;
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{ChunkedTextReader, RawGraphSource, RecordBuf};
use std::path::Path;
use std::time::Instant;

/// Violations planted per category: 7 × 7 = 49 stay under the CLI's
/// default example bound (50), so every planted element is reported.
const PER_KIND: usize = 7;
/// Records the traced decomposition parses per batch before checking them.
const BATCH: usize = 4096;

const INPUT: &str = "input.pgt";
const SCHEMA: &str = "schema.state";
const EXPECTED: &str = "expected.txt";

fn field(line: &str, i: usize) -> &str {
    line.split(' ').nth(i).unwrap_or_default()
}

fn set_field(line: &mut String, i: usize, v: &str) {
    let mut f: Vec<&str> = line.split(' ').collect();
    f[i] = v;
    *line = f.join(" ");
}

/// A random unused index in `lo..hi` satisfying `ok`, marked used.
fn pick(
    rng: &mut Rng,
    used: &mut [bool],
    lo: usize,
    hi: usize,
    ok: impl Fn(usize) -> bool,
) -> usize {
    loop {
        let i = lo + rng.below((hi - lo) as u64) as usize;
        if !used[i] && ok(i) {
            used[i] = true;
            return i;
        }
    }
}

/// Plant `PER_KIND` violations of every category into the pgt lines of
/// `graph` (nodes first, then edges, as `save_text` writes them). Each
/// mutation touches a distinct element and yields exactly one violation.
/// Returns the expected `(kind, element)` pairs, sorted.
fn plant(
    lines: &mut [String],
    graph: &pg_hive_graph::PropertyGraph,
    seed: u64,
) -> Vec<(ViolationKind, String)> {
    let n_nodes = graph.node_count();
    let mut degree = vec![0u32; n_nodes];
    for (_, e) in graph.edges() {
        degree[e.src.index()] += 1;
        degree[e.tgt.index()] += 1;
    }
    let ids: Vec<String> = lines.iter().map(|l| field(l, 1).to_string()).collect();
    let types: Vec<String> = lines[..n_nodes]
        .iter()
        .map(|l| field(l, 2).to_string())
        .collect();
    let edge_id = |l: &str| format!("{}->{}", field(l, 1), field(l, 2));
    let mut rng = Rng::new(seed ^ 0x5EED_1A7E);
    let mut used = vec![false; lines.len()];
    let mut expected = Vec::new();
    for k in 0..PER_KIND {
        // Node relabel: an isolated node, so no edge sees a changed endpoint.
        let i = pick(&mut rng, &mut used, 0, n_nodes, |i| degree[i] == 0);
        set_field(&mut lines[i], 2, "Ghost");
        expected.push((ViolationKind::UnknownNodeLabels, ids[i].clone()));
        // Drop the mandatory id key.
        let i = pick(&mut rng, &mut used, 0, n_nodes, |_| true);
        let id_key = format!("{}_id=", types[i].to_lowercase());
        let props: Vec<&str> = field(&lines[i], 3)
            .split(',')
            .filter(|kv| !kv.starts_with(&id_key))
            .collect();
        let props = props.join(",");
        set_field(&mut lines[i], 3, &props);
        expected.push((ViolationKind::MissingKey, ids[i].clone()));
        // Add an undeclared key.
        let i = pick(&mut rng, &mut used, 0, n_nodes, |_| true);
        let props = format!("{},bogus_key=1", field(&lines[i], 3));
        set_field(&mut lines[i], 3, &props);
        expected.push((ViolationKind::ExtraKey, ids[i].clone()));
        // Edge relabel.
        let i = pick(&mut rng, &mut used, n_nodes, lines.len(), |_| true);
        set_field(&mut lines[i], 3, "GHOST_REL");
        expected.push((ViolationKind::UnknownEdgeLabels, edge_id(&lines[i])));
        // Retype an INT `since` value.
        let i = pick(&mut rng, &mut used, n_nodes, lines.len(), |i| {
            field(&lines[i], 4).starts_with("since=")
        });
        set_field(&mut lines[i], 4, "since=notanumber");
        expected.push((ViolationKind::TypeMismatch, edge_id(&lines[i])));
        // Point an edge at an id no node declares.
        let i = pick(&mut rng, &mut used, n_nodes, lines.len(), |_| true);
        set_field(&mut lines[i], 2, &format!("ghost{k}"));
        expected.push((ViolationKind::DanglingEndpoint, edge_id(&lines[i])));
        // Point an edge at a node of a type its label never connects to
        // (every edge type of the spec has one endpoint pair).
        let i = pick(&mut rng, &mut used, n_nodes, lines.len(), |_| true);
        let tgt: usize = field(&lines[i], 2)[1..]
            .parse()
            .expect("node ids are n<index>");
        let other = (0..n_nodes)
            .find(|&j| !used[j] && types[j] != types[tgt])
            .expect("the spec has more than one node type");
        set_field(&mut lines[i], 2, &ids[other]);
        expected.push((ViolationKind::IllTypedEndpoint, edge_id(&lines[i])));
    }
    expected.sort();
    expected
}

pub fn prepare(seed: u64, dir: &Path) -> Result<Prepared, String> {
    let ds = social::generate(seed);
    let text = save_text(&ds.graph);
    // The schema of the clean file, as `stream_labeled` discovers it.
    let d = crate::discoverer();
    let mut state = d.new_state();
    let mut reader = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), CHUNK);
    let mut err = None;
    d.absorb_stream(
        std::iter::from_fn(|| {
            reader.next_chunk().unwrap_or_else(|e| {
                err = Some(e.to_string());
                None
            })
        }),
        &mut state,
        1,
    );
    if let Some(e) = err {
        return Err(format!("parse the generated file: {e}"));
    }
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let expected = plant(&mut lines, &ds.graph, seed);
    let mut input = lines.join("\n");
    input.push('\n');
    let mut p = Prepared::default();
    p.write(dir, INPUT, input.as_bytes())?;
    p.write(dir, SCHEMA, state_to_lines(&state).join("\n").as_bytes())?;
    let listing: Vec<String> = expected
        .iter()
        .map(|(k, e)| format!("{} {e}", k.name()))
        .collect();
    p.write(dir, EXPECTED, listing.join("\n").as_bytes())?;
    p.inputs
        .int("elements", social::ELEMENTS as u64)
        .int("bytes", input.len() as u64)
        .int("planted_violations", expected.len() as u64)
        .int("planted_per_category", PER_KIND as u64)
        .num("labeled_share", 1.0);
    Ok(p)
}

fn kind_of(name: &str) -> Option<ViolationKind> {
    ViolationKind::ALL.into_iter().find(|k| k.name() == name)
}

/// The report's `(kind, element)` pairs, sorted.
fn found(report: &StreamValidationReport) -> Vec<(ViolationKind, String)> {
    let mut v: Vec<_> = report
        .examples
        .iter()
        .map(|x| (x.kind, x.element.clone()))
        .collect();
    v.sort();
    v
}

/// One `pg-hive validate` pass with the CLI's default validator.
fn product_pass(compiled: &CompiledSchema, path: &Path) -> Result<StreamValidationReport, String> {
    let mut src = open_pgt(path)?;
    let mut v = Validator::new(compiled);
    v.validate_source(&mut *src, CHUNK, |_, _| {})
        .map_err(|e| format!("parse {}: {e}", path.display()))?;
    Ok(v.finish())
}

/// The same pass decomposed: batches of records parsed, then checked.
fn traced_pass(
    compiled: &CompiledSchema,
    path: &Path,
    tr: &mut Tracer,
) -> Result<StreamValidationReport, String> {
    let mut src = open_pgt(path)?;
    let mut v = Validator::new(compiled);
    let mut bufs: Vec<RecordBuf> = (0..BATCH).map(|_| RecordBuf::new()).collect();
    loop {
        let n = tr.span("pgraph.stream.parse", |_| {
            let mut n = 0;
            while n < BATCH && src.read_record(&mut bufs[n]).map_err(|e| e.to_string())? {
                n += 1;
            }
            Ok::<usize, String>(n)
        })?;
        tr.span("core.validate", |_| {
            bufs[..n].iter().for_each(|b| v.check_buf(b))
        });
        if n < BATCH {
            break;
        }
    }
    Ok(tr.span("core.validate", |_| v.finish()))
}

pub fn measure(dir: &Path, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let t = Instant::now();
    let mut out = Outcome::default();
    let path = dir.join(INPUT);
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("read {name}: {e}"))
    };
    let lines: Vec<String> = read(SCHEMA)?.lines().map(str::to_string).collect();
    let schema = state_from_lines(&lines)
        .map_err(|e| e.to_string())?
        .finalize();
    let compiled = CompiledSchema::compile(&schema);
    let mut expected = Vec::new();
    for l in read(EXPECTED)?.lines() {
        let (k, e) = l.split_once(' ').ok_or("bad expected line")?;
        expected.push((kind_of(k).ok_or("unknown violation kind")?, e.to_string()));
    }
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    out.setup_s = util::secs(t);
    let check = |out: &mut Outcome, what: &str, r: &StreamValidationReport| {
        for kind in ViolationKind::ALL {
            let want = expected.iter().filter(|(k, _)| *k == kind).count() as u64;
            out.check(
                &format!("{what}: planted {} recovered exactly", kind.name()),
                r.count(kind) == want,
                || format!("found {} of {want}", r.count(kind)),
            );
        }
        out.check(
            &format!("{what}: violating elements are the planted ones"),
            found(r) == expected,
            || format!("{:?}", found(r)),
        );
        let checked = r.nodes_checked + r.edges_checked;
        out.check(
            &format!("{what}: every element checked"),
            checked == social::ELEMENTS as u64,
            || format!("{checked} elements checked"),
        );
    };

    let start = Instant::now();
    if !trace {
        let (mut rss, mut peak) = (Some(util::RssPeak::start()?), 0.0);
        let (mut passes, mut elements) = (Vec::new(), 0u64);
        while passes.is_empty() || util::secs(start) < seconds {
            let t = Instant::now();
            let r = product_pass(&compiled, &path)?;
            passes.push(util::secs(t));
            if let Some(r) = rss.take() {
                peak = r.take();
            }
            elements += r.nodes_checked + r.edges_checked;
            check(&mut out, "validate", &r);
        }
        out.end_to_end(elements as f64 / passes.iter().sum::<f64>(), peak);
        return Ok(out);
    }

    let mut run = TracedRun::new();
    let mut violations = 0;
    let mut unit = 0;
    while unit == 0 || util::secs(start) < seconds {
        let r = run.unit(unit, |tr| traced_pass(&compiled, &path, tr))?;
        check(&mut out, "traced decomposition", &r);
        violations = r.total();
        unit += 1;
    }
    let layers = crate::trace::layer_self_secs(run.tr.spans());
    let parse = layers
        .get("pgraph.stream.parse")
        .and_then(|v| util::median(v))
        .unwrap_or(f64::NAN);
    out.metric(
        "pgraph.stream.parse.mb_per_s",
        bytes as f64 / 1e6 / parse,
        "MB/s",
    );
    out.metric("core.validate.violations", violations as f64, "count");
    out.layers(&run.tr);
    out.overhead(&run);
    out.spans = Some(run.tr.to_jsonl());
    Ok(out)
}
