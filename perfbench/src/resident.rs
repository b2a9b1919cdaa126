//! `resident_noisy`: the default `pg-hive discover` verb —
//! `read_to_string` + `load_text` + `Discoverer::discover` + strict
//! serialization — over the IYP-shaped dataset at about 0.5M elements,
//! degraded to the paper's noise point (20% of properties removed, labels
//! kept on 50% of nodes). The schema-less case, and the only workload that
//! yields F1*.

use crate::stages::Stages;
use crate::trace::{TracedRun, Tracer};
use crate::{util, Outcome, Prepared};
use pg_hive_core::preprocess::signature_scan;
use pg_hive_core::serialize::pg_schema_strict;
use pg_hive_datasets::{inject_noise, DatasetId, NoiseSpec};
use pg_hive_eval::f1::majority_f1;
use pg_hive_graph::loader::{load_text, save_text};
use pg_hive_graph::{GraphBatch, PropertyGraph};
use std::path::Path;
use std::time::Instant;

/// Target element count (nodes + edges).
const ELEMENTS: usize = 500_000;
/// The paper's noise point: property-removal and label-availability
/// percentages.
const NOISE_PCT: u32 = 20;
const LABEL_PCT: u32 = 50;

const INPUT: &str = "input.pgt";
const TRUTH_NODES: &str = "truth_nodes.u32";
const TRUTH_EDGES: &str = "truth_edges.u32";

fn all_of(g: &PropertyGraph) -> GraphBatch {
    GraphBatch {
        nodes: g.nodes().map(|(id, _)| id).collect(),
        edges: g.edges().map(|(id, _)| id).collect(),
    }
}

fn u32s_to_bytes(xs: &[u32]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn read_u32s(path: &Path) -> Result<Vec<u32>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

pub fn prepare(seed: u64, dir: &Path) -> Result<Prepared, String> {
    let (n, e) = DatasetId::Iyp.default_size();
    let mut ds = DatasetId::Iyp.generate(ELEMENTS as f64 / (n + e) as f64, seed);
    inject_noise(&mut ds.graph, &NoiseSpec::grid(NOISE_PCT, LABEL_PCT, seed));
    let g = &ds.graph;
    let text = save_text(g);
    let mut p = Prepared::default();
    p.write(dir, INPUT, text.as_bytes())?;
    p.write(dir, TRUTH_NODES, &u32s_to_bytes(&ds.truth.node_types))?;
    p.write(dir, TRUTH_EDGES, &u32s_to_bytes(&ds.truth.edge_types))?;
    let scan = signature_scan(g, &all_of(g));
    let elements = g.node_count() + g.edge_count();
    let labeled = g.nodes().filter(|(_, n)| !n.labels.is_empty()).count()
        + g.edges().filter(|(_, e)| !e.labels.is_empty()).count();
    p.inputs
        .int("elements", elements as u64)
        .int("nodes", g.node_count() as u64)
        .int("edges", g.edge_count() as u64)
        .int("bytes", text.len() as u64)
        .int(
            "distinct_signatures",
            (scan.nodes.distinct + scan.edges.distinct) as u64,
        )
        .num("labeled_share", labeled as f64 / elements as f64)
        .int("node_types", ds.truth.node_type_names.len() as u64)
        .int("edge_types", ds.truth.edge_type_names.len() as u64)
        .int("property_removal_pct", u64::from(NOISE_PCT))
        .int("node_label_pct", u64::from(LABEL_PCT));
    Ok(p)
}

/// What one discovery pass yields: the strict schema and the raw cluster
/// id of every node and edge.
#[derive(Clone, PartialEq)]
struct Discovery {
    strict: String,
    nodes: Vec<u32>,
    edges: Vec<u32>,
}

/// One `pg-hive discover` pass, plus whether its instance counts cover
/// every element once, and the element count.
fn product_pass(
    d: &pg_hive_core::Discoverer,
    path: &Path,
) -> Result<(Discovery, bool, usize), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let g = load_text(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    drop(text);
    let r = d.discover(&g);
    let counted = r.schema.node_instances() == g.node_count() as u64
        && r.schema.edge_instances() == g.edge_count() as u64;
    let out = Discovery {
        strict: pg_schema_strict(&r.schema, "Discovered"),
        nodes: r.node_cluster_assignment,
        edges: r.edge_cluster_assignment,
    };
    Ok((out, counted, g.node_count() + g.edge_count()))
}

/// The same pass decomposed into public calls, one span per layer.
fn traced_pass(stages: &Stages, path: &Path, tr: &mut Tracer) -> Result<Discovery, String> {
    let text = tr
        .span("io.read", |_| std::fs::read_to_string(path))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let g = tr
        .span("pgraph.loader", |_| load_text(&text))
        .map_err(|e| format!("parse {}: {e}", path.display()))?;
    drop(text);
    let batch = all_of(&g);
    let mut state = stages.d.new_state();
    let c = stages.cluster(&g, &batch, tr);
    let (nodes, edges) = (c.nodes.clustering, c.edges.clustering);
    stages.extract(&g, &batch, &nodes, &edges, &mut state, tr);
    stages.postprocess(&g, &mut state, tr);
    tr.count("core.state.pooled_types", state.pooled_types() as f64);
    let schema = tr.span("core.state.finalize", |_| state.finalize());
    Ok(Discovery {
        strict: tr.span("core.serialize", |_| {
            pg_schema_strict(&schema, "Discovered")
        }),
        nodes: nodes.assignment,
        edges: edges.assignment,
    })
}

pub fn measure(dir: &Path, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let t = Instant::now();
    let mut out = Outcome::default();
    let path = dir.join(INPUT);
    let truth_nodes = read_u32s(&dir.join(TRUTH_NODES))?;
    let truth_edges = read_u32s(&dir.join(TRUTH_EDGES))?;
    let d = crate::discoverer();
    out.setup_s = util::secs(t);
    let f1 = |nodes: &[u32], edges: &[u32]| -> Result<(f64, f64), String> {
        if nodes.len() != truth_nodes.len() || edges.len() != truth_edges.len() {
            return Err("cluster assignment does not cover the ground truth".into());
        }
        Ok((
            majority_f1(nodes, &truth_nodes).macro_f1,
            majority_f1(edges, &truth_edges).macro_f1,
        ))
    };

    let start = Instant::now();
    if !trace {
        let (mut rss, mut peak) = (Some(util::RssPeak::start()?), 0.0);
        let (mut passes, mut elements) = (Vec::new(), 0usize);
        let mut first: Option<Discovery> = None;
        while passes.is_empty() || util::secs(start) < seconds {
            let t = Instant::now();
            let (pass, counted, n) = product_pass(&d, &path)?;
            passes.push(util::secs(t));
            out.check("instance counts cover every element once", counted, || {
                format!("pass {}", passes.len())
            });
            if let Some(r) = rss.take() {
                peak = r.take();
            }
            elements += n;
            let same = *first.get_or_insert_with(|| pass.clone()) == pass;
            out.check(
                "strict bytes and cluster assignment stable across passes",
                same,
                || format!("pass {} differs from pass 1", passes.len()),
            );
        }
        out.end_to_end(elements as f64 / passes.iter().sum::<f64>(), peak);
        return Ok(out);
    }

    let (untraced_pass, _, _) = product_pass(&d, &path)?;
    let (node_f1, edge_f1) = f1(&untraced_pass.nodes, &untraced_pass.edges)?;
    let stages = Stages::new(&d);
    let mut run = TracedRun::new();
    let mut unit = 0;
    while unit == 0 || util::secs(start) < seconds {
        let pass = run.unit(unit, |tr| traced_pass(&stages, &path, tr))?;
        let same = pass == untraced_pass;
        out.check(
            "traced decomposition equals the untraced bytes and clustering",
            same,
            || format!("traced pass {unit} differs"),
        );
        unit += 1;
    }
    out.metric("core.cluster.node_f1", node_f1, "ratio");
    out.metric("core.cluster.edge_f1", edge_f1, "ratio");
    out.layers(&run.tr);
    out.cache_counters(&run.tr);
    out.overhead(&run);
    out.spans = Some(run.tr.to_jsonl());
    Ok(out)
}
