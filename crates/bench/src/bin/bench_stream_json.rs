//! Perf + memory tracker for the streaming ingestion subsystem: writes a
//! ≥500k-element synthetic graph to a temp `.pgt` file, then discovers its
//! schema three ways —
//!
//! 1. **baseline**: `read_to_string` + `load_text` + `discover` (resident
//!    memory O(dataset), the CLI's non-streaming path),
//! 2. **stream**: `PgtSource` → `ChunkedTextReader` → `discover_stream`
//!    (resident memory O(chunk)), and
//! 3. **parallel**: `PgtSource` → `ReadAheadChunks` (parse and chunk
//!    threads) → `absorb_stream` on the worker pool (input-order merge) →
//!    finalize — the pipeline-parallel engine, recording thread count,
//!    read-ahead depth and its speed-up over the serial path
//!    (`parallel_speedup`) —
//!
//! plus a **raw per-chunk** run (`discover_chunk_state` per chunk, results
//! dropped) that isolates what the canonical `SchemaState` machinery —
//! cross-chunk absorb + finalize — costs on top of pure chunk compute,
//! a **sharded** pair of runs (`discover_tree` over the dataset split
//! into a two-file directory tree, at 1 thread and at `PGHIVE_THREADS`)
//! gating the tree engine: the parallel run's finalized schema must
//! byte-equal the 1-thread run's strict text (`sharded_schema_match`), its
//! labeled-type inventory must match the serial stream, and its throughput
//! (`sharded_elements_per_sec`) must reach ≥ 1.0× the 1-thread run on
//! multi-core hosts (0.9× on a 1-core host, where file threads can only
//! time-slice), and an **incremental steady-state** pair on a
//! repeated-signature workload: a warm `absorb_stream_cached` pass with a
//! primed [`SignatureCache`] must hit on ≥ 95% of repeated chunks
//! (`cache_hit_ratio`), finalize byte-identically, and pay off. A hit
//! skips the chunk's representations and LSH and runs a signature scan,
//! a lookup and a broadcast instead; timed stage by stage on the same
//! chunks, the replacement must cost at most a third of what it skips
//! (`incremental_hit_speedup`), and the engine, run on each chunk uncached
//! and then cached, must save at least half of that difference
//! (`incremental_saved_share`).
//!
//! Verifies all runs discover the same labeled-type inventory, checks the
//! peak chunk-resident element count stays ≤ 2× the chunk size, that the
//! parallel path is not slower than the serial streaming path, and that
//! canonicalization keeps ≥ 0.9× the raw per-chunk throughput
//! (`canonical_elements_per_sec` vs `raw_chunk_elements_per_sec` in the
//! JSON) — the refactor cannot silently regress the hot path. Writes
//! `BENCH_stream.json` so the streaming trajectory is tracked PR over PR.
//!
//! Usage: `cargo run --release -p pg-hive-bench --bin bench_stream_json`
//! (honors `PGHIVE_SCALE` — element count is `500_000 × scale` — plus
//! `PGHIVE_SEED`, `PGHIVE_CHUNK` (default 50000), `PGHIVE_THREADS`
//! (default: all cores, min 2 so the pool is exercised even on 1-core CI)
//! and `PGHIVE_READ_AHEAD` (default 4)).
//!
//! Every gate compares runs made in the same process: absolute throughput
//! depends on the host, and end-to-end regressions are judged by
//! `perfbench` (see `BENCHMARK.json`).
//!
//! Set `PGHIVE_BENCH_MATRIX=1` to also sweep a threads × chunk-size matrix
//! through the pipeline-parallel path and record every cell under a
//! `"matrix"` key in `BENCH_stream.json`. The matrix is diagnostic only —
//! the default single-cell run above it remains the CI regression gate.

use pg_hive_core::cluster::cluster_elements;
use pg_hive_core::preprocess::{edge_representations, node_representations, signature_scan};
use pg_hive_core::schema::SchemaGraph;
use pg_hive_core::serialize::pg_schema_strict;
use pg_hive_core::{Discoverer, PipelineConfig, SignatureCache};
use pg_hive_datasets::{DatasetSpec, EdgeDef, NodeDef, PropDef, ValueGen};
use pg_hive_embed::HashEmbedder;
use pg_hive_graph::loader::{load_text, save_text};
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{
    ChunkedTextReader, GraphBatch, GraphBuilder, MultiSource, PropertyGraph, ReadAheadChunks,
};
use pg_hive_lsh::ElementClass;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

/// A 12-node-type / 8-edge-type social-network-shaped spec: enough label
/// and pattern variety to exercise clustering and merging, all types
/// labeled so the inventory comparison is exact.
fn spec() -> DatasetSpec {
    let node = |name: &str, keys: &[(&str, f64)], weight: f64| NodeDef {
        name: name.to_string(),
        labels: vec![name.to_string()],
        props: keys
            .iter()
            .map(|(k, presence)| {
                PropDef::opt(
                    &format!("{}_{k}", name.to_lowercase()),
                    ValueGen::Text,
                    *presence,
                )
            })
            .collect(),
        weight,
    };
    let nodes: Vec<NodeDef> = (0..12)
        .map(|i| {
            node(
                &format!("Type{i}"),
                &[("id", 1.0), ("name", 1.0), ("opt_a", 0.7), ("opt_b", 0.4)],
                1.0 + (i % 3) as f64,
            )
        })
        .collect();
    let edge = |name: &str, src: usize, tgt: usize, weight: f64| EdgeDef {
        name: name.to_string(),
        label: name.to_string(),
        props: vec![PropDef::opt("since", ValueGen::Int(1990, 2025), 0.5)],
        src,
        tgt,
        weight,
    };
    let edges: Vec<EdgeDef> = (0..8)
        .map(|i| edge(&format!("REL{i}"), i % 12, (i * 5 + 3) % 12, 1.0))
        .collect();
    DatasetSpec {
        name: "stream-bench".to_string(),
        nodes,
        edges,
    }
}

/// On a cache hit, the stages the chunk skips (representations and LSH of
/// both element classes) must take at least this many times as long as
/// what it runs instead (signature scan, lookup, broadcast).
const HIT_REQUIRED_SPEEDUP: f64 = 3.0;
/// The engine's saving on a hit (a chunk's pipeline time uncached minus
/// cached, median over the chunks) must be at least this share of what the
/// stage timings say a hit saves (skipped minus replacement).
const SAVED_SHARE_FLOOR: f64 = 0.5;
/// The warm pass must actually hit: minimum fraction of chunk lookups the
/// primed cache answers.
const CACHE_HIT_RATIO_FLOOR: f64 = 0.95;

/// One signature-diverse chunk for the steady-state workload: node label
/// drawn from `types` type names, property keys a random mask over `keys`
/// candidates, values varying freely — hundreds-to-thousands of distinct
/// (label, key-set) signatures per chunk, so embedding + LSH are a large
/// share of the cold per-chunk cost (the opposite extreme from the 12-type
/// spec above, whose ~dozens of signatures amortize those stages away). The
/// deterministic per-`shape` xorshift stream makes repeated shapes
/// byte-identical — the cross-pass repetition a steady-state `watch` loop
/// (rotating logs, re-fed chunks) hands the engine.
fn signature_diverse_chunk(shape: u64, n: usize, types: u64, keys: usize) -> PropertyGraph {
    let mut b = GraphBuilder::new();
    let mut s = shape.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let all_keys: Vec<String> = (0..keys).map(|i| format!("k{i}")).collect();
    let mut ids = Vec::new();
    for _ in 0..n {
        let label = format!("T{}", next() % types);
        let mask = next();
        let props: Vec<(&str, pg_hive_graph::Value)> = all_keys
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, k)| {
                (
                    k.as_str(),
                    pg_hive_graph::Value::Int((next() % 1000) as i64),
                )
            })
            .collect();
        ids.push(b.add_node(&[&label], &props));
    }
    for i in 0..n / 2 {
        let src = ids[(next() as usize) % ids.len()];
        let tgt = ids[(next() as usize) % ids.len()];
        let label = format!("E{}", next() % (types / 2).max(1));
        b.add_edge(
            src,
            tgt,
            &[&label],
            &[("w", pg_hive_graph::Value::Int(i as i64))],
        );
    }
    b.finish()
}

fn labeled_inventory(s: &SchemaGraph) -> (BTreeSet<Vec<String>>, BTreeSet<Vec<String>>) {
    let nodes = s
        .node_types
        .iter()
        .map(|t| t.labels.iter().cloned().collect())
        .collect();
    let edges = s
        .edge_types
        .iter()
        .map(|t| t.labels.iter().cloned().collect())
        .collect();
    (nodes, edges)
}

fn main() {
    let scale = pg_hive_bench::scale(1.0);
    let seed = pg_hive_bench::seed();
    let chunk_size: usize = std::env::var("PGHIVE_CHUNK")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);
    let elements = ((500_000.0 * scale) as usize).max(5_000);
    let n_nodes = elements * 13 / 20; // 65% nodes, 35% edges
    let n_edges = elements - n_nodes;
    pg_hive_bench::banner(
        "BENCH_stream — chunked streaming ingestion vs load-everything baseline",
        scale,
        seed,
    );

    let d = spec().generate(n_nodes, n_edges, seed);
    let path =
        std::env::temp_dir().join(format!("pg-hive-bench-stream-{}.pgt", std::process::id()));
    std::fs::write(&path, save_text(&d.graph)).expect("write temp dataset");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "   dataset: {n_nodes} nodes + {n_edges} edges = {elements} elements \
         ({:.1} MiB on disk), chunk size {chunk_size}",
        bytes as f64 / (1024.0 * 1024.0)
    );

    let discoverer = Discoverer::new(PipelineConfig {
        seed,
        ..PipelineConfig::default()
    });

    // Baseline: everything resident. Best-of-2 like the streaming paths —
    // a single-shot measurement is the odd one out on a host whose
    // throughput wobbles between runs (and the first pass additionally
    // pays the cold page cache for the freshly written file).
    let run_baseline = || {
        let t0 = Instant::now();
        let text = std::fs::read_to_string(&path).expect("read temp dataset");
        let baseline_graph = load_text(&text).expect("parse temp dataset");
        drop(text);
        let result = discoverer.discover(&baseline_graph);
        (result, t0.elapsed().as_secs_f64())
    };
    let (baseline_result, baseline_a) = run_baseline();
    let (_, baseline_b) = run_baseline();
    let baseline_secs = baseline_a.min(baseline_b);
    let baseline_eps = elements as f64 / baseline_secs;

    // Pipeline-parallel configuration (read-ahead producer + worker pool +
    // in-order merge).
    let threads: usize = std::env::var("PGHIVE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2)
        })
        .max(1);
    let read_ahead: usize = std::env::var("PGHIVE_READ_AHEAD")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
        .max(1);

    // Both streaming paths are measured best-of-2, *interleaved*
    // (serial, parallel, serial, parallel): the runs are deterministic, so
    // repeating filters scheduler noise, and interleaving keeps a slow
    // monotonic drift of the host (thermal/steal time) from systematically
    // penalizing whichever path happens to run last.
    let run_serial = || {
        let t = Instant::now();
        let file = BufReader::with_capacity(1 << 20, File::open(&path).expect("open temp dataset"));
        let mut reader = ChunkedTextReader::new(PgtSource::new(file), chunk_size);
        let result = discoverer.discover_stream(std::iter::from_fn(|| {
            reader.next_chunk().expect("stream temp dataset")
        }));
        let secs = t.elapsed().as_secs_f64();
        (
            result,
            secs,
            reader.max_resident_elements(),
            reader.warnings(),
        )
    };
    let run_parallel = || {
        let t = Instant::now();
        let file = BufReader::with_capacity(1 << 20, File::open(&path).expect("open temp dataset"));
        let mut ahead = ReadAheadChunks::spawn(PgtSource::new(file), chunk_size, read_ahead);
        let mut state = discoverer.new_state();
        let report = discoverer.absorb_stream(
            std::iter::from_fn(|| ahead.next_chunk().expect("stream temp dataset")),
            &mut state,
            threads,
        );
        let schema = state.finalize();
        let secs = t.elapsed().as_secs_f64();
        (schema, secs, report.max_chunk_elements)
    };
    // Raw per-chunk compute: the same chunk pipeline but with results
    // dropped instead of absorbed — no cross-chunk merge, no finalize.
    // `canonical / raw` is the price of the order-invariant schema core.
    let run_raw = || {
        let t = Instant::now();
        let file = BufReader::with_capacity(1 << 20, File::open(&path).expect("open temp dataset"));
        let mut reader = ChunkedTextReader::new(PgtSource::new(file), chunk_size);
        while let Some(chunk) = reader.next_chunk().expect("stream temp dataset") {
            std::hint::black_box(discoverer.discover_chunk_state(&chunk));
        }
        t.elapsed().as_secs_f64()
    };
    // Sharded: the same dataset split into a two-file directory tree and
    // run through the tree engine (`discover_tree`: at `threads` both
    // files are read at once, each with its share of the chunk workers;
    // the root merges them in path order and resolves cross-file edges).
    // The second half's edges reference first-half nodes, so the
    // pending-edge carry is on the measured path.
    let shard_dir =
        std::env::temp_dir().join(format!("pg-hive-bench-shards-{}", std::process::id()));
    std::fs::create_dir_all(&shard_dir).expect("create shard dir");
    {
        let text = std::fs::read_to_string(&path).expect("read temp dataset");
        let lines: Vec<&str> = text.lines().collect();
        let mid = lines.len() / 2;
        let half = |name: &str, ls: &[&str]| {
            let mut out = ls.join("\n");
            out.push('\n');
            std::fs::write(shard_dir.join(name), out).expect("write shard file");
        };
        half("a.pgt", &lines[..mid]);
        half("b.pgt", &lines[mid..]);
    }
    // Files read at once and chunk workers per file at `threads` — the
    // layout `discover_tree` picks for a two-file tree.
    let shards = threads.min(2);
    let shard_threads = (threads / shards).max(1);
    let run_tree = |n: usize| {
        let t = Instant::now();
        let source = MultiSource::enumerate(&shard_dir).expect("enumerate shard dir");
        let result = discoverer
            .discover_tree(&source, chunk_size, n)
            .expect("shard temp dataset");
        (result, t.elapsed().as_secs_f64())
    };
    let (stream_result, serial_a, max_resident, warnings) = run_serial();
    let (parallel_schema, parallel_a, parallel_max_resident) = run_parallel();
    let (sharded_serial_result, sharded_serial_a) = run_tree(1);
    let (sharded_result, sharded_a) = run_tree(threads);
    let raw_a = run_raw();
    let (_, serial_b, _, _) = run_serial();
    let (_, parallel_b, _) = run_parallel();
    let (_, sharded_serial_b) = run_tree(1);
    let (_, sharded_b) = run_tree(threads);
    let raw_b = run_raw();
    let stream_secs = serial_a.min(serial_b);
    let stream_eps = elements as f64 / stream_secs;
    let parallel_secs = parallel_a.min(parallel_b);
    let parallel_eps = elements as f64 / parallel_secs;
    let sharded_serial_secs = sharded_serial_a.min(sharded_serial_b);
    let sharded_serial_eps = elements as f64 / sharded_serial_secs;
    let sharded_secs = sharded_a.min(sharded_b);
    let sharded_eps = elements as f64 / sharded_secs;
    let raw_secs = raw_a.min(raw_b);
    let raw_eps = elements as f64 / raw_secs;

    // Incremental steady state: the repeated-signature workload. 10
    // distinct signature-diverse chunk shapes, streamed 3x each per pass —
    // a watch loop in its steady state keeps handing the engine chunks
    // whose structural fingerprints it has already clustered. Cold pass =
    // the uncached engine; warm pass = `absorb_stream_cached` with the
    // cache primed by one prior pass. Both best-of-2, byte-identity
    // asserted on the finalized strict text.
    let incr_chunk_n = ((10_000.0 * scale) as usize).max(1_000);
    let incr_shapes: Vec<PropertyGraph> = (0..10)
        .map(|i| signature_diverse_chunk(i, incr_chunk_n, 50, 8))
        .collect();
    let incr_chunks: Vec<PropertyGraph> = (0..30).map(|i| incr_shapes[i % 10].clone()).collect();
    let incr_elements: usize = incr_chunks
        .iter()
        .map(|c| c.node_count() + c.edge_count())
        .sum();
    let run_incr_cold = || {
        let mut state = discoverer.new_state();
        let t = Instant::now();
        discoverer.absorb_stream(incr_chunks.iter().cloned(), &mut state, 1);
        (state, t.elapsed().as_secs_f64())
    };
    let cache = SignatureCache::default();
    {
        // Prime: the pass that first sees each shape (counts excluded from
        // the warm measurement below).
        let mut state = discoverer.new_state();
        discoverer.absorb_stream_cached(incr_chunks.iter().cloned(), &mut state, 1, &cache);
    }
    let primed_stats = cache.stats();
    let run_incr_warm = || {
        let mut state = discoverer.new_state();
        let t = Instant::now();
        discoverer.absorb_stream_cached(incr_chunks.iter().cloned(), &mut state, 1, &cache);
        (state, t.elapsed().as_secs_f64())
    };
    let (incr_cold_state, incr_cold_a) = run_incr_cold();
    let (incr_warm_state, incr_warm_a) = run_incr_warm();
    let (_, incr_cold_b) = run_incr_cold();
    let (_, incr_warm_b) = run_incr_warm();
    let incr_cold_secs = incr_cold_a.min(incr_cold_b);
    let incr_warm_secs = incr_warm_a.min(incr_warm_b);
    let incr_cold_eps = incr_elements as f64 / incr_cold_secs;
    let incr_warm_eps = incr_elements as f64 / incr_warm_secs;
    let incr_speedup = incr_warm_eps / incr_cold_eps;
    let warm_stats = cache.stats();
    // Hit ratio over the two measured warm passes only (the priming pass
    // that populated the cache is excluded).
    let warm_lookups =
        (warm_stats.hits - primed_stats.hits) + (warm_stats.misses - primed_stats.misses);
    let cache_hit_ratio = if warm_lookups == 0 {
        0.0
    } else {
        (warm_stats.hits - primed_stats.hits) as f64 / warm_lookups as f64
    };
    let incremental_schema_match = pg_schema_strict(&incr_warm_state.finalize(), "G")
        == pg_schema_strict(&incr_cold_state.finalize(), "G");
    // What a hit skips and what it runs instead, timed on the same chunks
    // (which hold no stubs) through the pipeline's public stage calls, best
    // of 2, after the hit ratio above is taken.
    let config = discoverer.config();
    let embedder = HashEmbedder::new(config.embedding_dim, config.seed);
    let incr_batches: Vec<GraphBatch> = incr_chunks
        .iter()
        .map(|g| GraphBatch {
            nodes: g.nodes().map(|(id, _)| id).collect(),
            edges: g.edges().map(|(id, _)| id).collect(),
        })
        .collect();
    let best_of_2 = |stage: &dyn Fn(&PropertyGraph, &GraphBatch)| {
        let pass = || {
            let t = Instant::now();
            for (g, batch) in incr_chunks.iter().zip(&incr_batches) {
                stage(g, batch);
            }
            t.elapsed().as_secs_f64()
        };
        pass().min(pass())
    };
    let incr_skipped_secs = best_of_2(&|g, batch| {
        let nodes = node_representations(g, &batch.nodes, &embedder, config.label_weight);
        let edges = edge_representations(g, &batch.edges, &embedder, config.label_weight);
        std::hint::black_box((
            cluster_elements(&nodes.repr, ElementClass::Nodes, config),
            cluster_elements(&edges.repr, ElementClass::Edges, config),
        ));
    });
    let incr_hit_secs = best_of_2(&|g, batch| {
        let scan = signature_scan(g, batch);
        let hit = cache
            .lookup(scan.fingerprint, scan.nodes.distinct, scan.edges.distinct)
            .expect("the primed cache holds every chunk");
        std::hint::black_box((
            hit.nodes.broadcast(&scan.nodes.rep_of),
            hit.edges.broadcast(&scan.edges.rep_of),
        ));
    });
    let incr_hit_speedup = incr_skipped_secs / incr_hit_secs;
    // What the engine saves on a hit: each chunk's pipeline time uncached
    // minus cached, measured back to back so both sides see the same host
    // load; the median over the chunks.
    let chunk_time = |cached: bool, g: &PropertyGraph| {
        let chunk = std::iter::once(g.clone());
        let mut state = discoverer.new_state();
        let report = if cached {
            discoverer.absorb_stream_cached(chunk, &mut state, 1, &cache)
        } else {
            discoverer.absorb_stream(chunk, &mut state, 1)
        };
        report.chunk_times[0].as_secs_f64()
    };
    let mut saved: Vec<f64> = incr_chunks
        .iter()
        .map(|g| chunk_time(false, g) - chunk_time(true, g))
        .collect();
    saved.sort_unstable_by(f64::total_cmp);
    let incr_saved_share =
        saved[saved.len() / 2] * incr_chunks.len() as f64 / (incr_skipped_secs - incr_hit_secs);

    // Optional threads × chunk-size sweep of the pipeline-parallel path.
    // Diagnostic only: every cell is recorded, none is gated on — the
    // single-cell run above remains the CI regression signal.
    let matrix_enabled = std::env::var("PGHIVE_BENCH_MATRIX").as_deref() == Ok("1");
    let mut matrix_cells: Vec<(usize, usize, f64)> = Vec::new();
    if matrix_enabled {
        println!("   matrix: threads x chunk-size sweep (PGHIVE_BENCH_MATRIX=1)");
        for &mt in &[1usize, 2, 4] {
            for &mc in &[25_000usize, 50_000, 100_000] {
                let t = Instant::now();
                let file = BufReader::with_capacity(
                    1 << 20,
                    File::open(&path).expect("open temp dataset"),
                );
                let mut ahead = ReadAheadChunks::spawn(PgtSource::new(file), mc, read_ahead);
                let mut state = discoverer.new_state();
                discoverer.absorb_stream(
                    std::iter::from_fn(|| ahead.next_chunk().expect("stream temp dataset")),
                    &mut state,
                    mt,
                );
                let schema = state.finalize();
                let secs = t.elapsed().as_secs_f64();
                let eps = elements as f64 / secs;
                let ok = labeled_inventory(&schema) == labeled_inventory(&stream_result.schema);
                assert!(ok, "matrix cell threads={mt} chunk={mc} changed the schema");
                println!("     threads={mt} chunk={mc}: {secs:.3}s ({eps:.0} elem/s)");
                matrix_cells.push((mt, mc, eps));
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&shard_dir);

    let schema_match =
        labeled_inventory(&baseline_result.schema) == labeled_inventory(&stream_result.schema);
    let parallel_match =
        labeled_inventory(&stream_result.schema) == labeled_inventory(&parallel_schema);
    // The tree run must be *byte*-identical across thread counts — not
    // just the same inventory — and close enough in throughput to its own
    // serial (1-thread) run that parallelism is never a correctness/perf
    // trade. The comparison is `threads` vs 1 thread over the same tree: both
    // sides use per-file fresh readers and root pending resolution, which
    // is the grouping the byte-identity guarantee quantifies over (a
    // single-file `discover_stream` groups chunks differently, so only its
    // labeled-type inventory is required to agree).
    let sharded_match = pg_schema_strict(&sharded_result.state.finalize(), "G")
        == pg_schema_strict(&sharded_serial_result.state.finalize(), "G");
    let sharded_inventory_match = labeled_inventory(&sharded_result.state.finalize())
        == labeled_inventory(&stream_result.schema);
    // Reading files in parallel must *earn its keep*: ≥ 1.0x the 1-thread
    // tree run wherever there are cores for the file threads to run on.
    // On a 1-core host two CPU-bound file threads can only time-slice one
    // core, so the gate degrades to "parallel files cost at most 10%
    // coordination overhead" — the same
    // cores-aware shape as the parallel gate below, and a large step up
    // from the 0.8x tolerance this gate started at.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sharded_required_ratio = if cores > 1 { 1.0 } else { 0.9 };
    let sharded_ratio = sharded_eps / sharded_serial_eps;
    let sharded_not_slower = sharded_ratio >= sharded_required_ratio;
    // Steady-state gates: a hit must cost at most a third of the stages it
    // skips, and the engine must save at least half of that difference per
    // chunk; the warm (cache-primed) pass must hit on nearly every repeated
    // chunk and finalize byte-identically.
    let incremental_ok =
        incr_hit_speedup >= HIT_REQUIRED_SPEEDUP && incr_saved_share >= SAVED_SHARE_FLOOR;
    let cache_hit_ratio_ok = cache_hit_ratio >= CACHE_HIT_RATIO_FLOOR;
    let resident_ok = max_resident <= 2 * chunk_size && parallel_max_resident <= 2 * chunk_size;
    // The overlap must at least pay for its own coordination: require the
    // parallel path to reach the serial streaming throughput. Both sides are
    // best-of-2, plus a tolerance for shared-runner noise. On a 1-core
    // machine there is no real parallelism to win — the pool pays its
    // coordination out of the same core, and every ingestion optimization
    // (zero-copy parsing, stub fast path) widens serial's structural edge
    // because serial skips the cross-thread chunk handoff entirely — so the
    // margin is wider there (the gate's real intent, "parallelism pays for
    // itself", is only testable with actual cores); on multi-core it should
    // beat serial outright.
    let parallel_tolerance = if cores > 1 { 0.95 } else { 0.80 };
    // Parallel over serial elements/s, both from this run: what the
    // read-ahead threads and the worker pool buy on this host.
    let parallel_speedup = parallel_eps / stream_eps;
    let parallel_not_slower = parallel_eps >= parallel_tolerance * stream_eps;
    // Canonicalization (cross-chunk absorb + finalize) must keep at least
    // 0.9x the raw per-chunk throughput.
    let canonical_overhead_ok = stream_eps >= 0.9 * raw_eps;

    println!(
        "   baseline: {baseline_secs:.3}s ({baseline_eps:.0} elem/s), resident {elements} elements"
    );
    println!(
        "   raw:      {raw_secs:.3}s ({raw_eps:.0} elem/s) per-chunk compute only \
         (no absorb/finalize)"
    );
    println!(
        "   stream:   {stream_secs:.3}s ({stream_eps:.0} elem/s), peak resident {max_resident} \
         elements over {} chunks ({} cross-chunk edges)",
        stream_result.chunk_times.len(),
        warnings.cross_chunk_edges
    );
    let ts = &baseline_result.stats.timings;
    println!(
        "   baseline stages: preprocess {:.3}s, clustering {:.3}s, \
         extraction {:.3}s, postprocess {:.3}s (rest = read+parse+finalize)",
        ts.preprocess.as_secs_f64(),
        ts.clustering.as_secs_f64(),
        ts.extraction.as_secs_f64(),
        ts.postprocess.as_secs_f64()
    );
    println!(
        "   parallel: {parallel_secs:.3}s ({parallel_eps:.0} elem/s, {parallel_speedup:.2}x \
         serial), {threads} thread(s), read-ahead {read_ahead}, peak resident {} elements",
        parallel_max_resident
    );
    println!(
        "   sharded:  {sharded_secs:.3}s ({sharded_eps:.0} elem/s) at {shards} file(s) at \
         once x {shard_threads} thread(s) vs {sharded_serial_secs:.3}s \
         ({sharded_serial_eps:.0} elem/s) at 1 thread, {} pending edge(s) left at root",
        sharded_result.pending.len()
    );
    println!(
        "   incremental: cold {incr_cold_secs:.3}s ({incr_cold_eps:.0} elem/s) vs warm \
         {incr_warm_secs:.3}s ({incr_warm_eps:.0} elem/s) over {incr_elements} \
         repeated-signature elements — {incr_speedup:.2}x, cache hit ratio \
         {cache_hit_ratio:.3}, byte-identical: {incremental_schema_match}"
    );
    println!(
        "   cache hit: skips {incr_skipped_secs:.3}s of representations + LSH for \
         {incr_hit_secs:.3}s of scan + lookup + broadcast ({incr_hit_speedup:.2}x); the engine \
         saves {incr_saved_share:.2} of the difference per chunk"
    );
    println!(
        "   labeled-type inventory match: baseline=={schema_match} parallel=={parallel_match} \
         sharded=={sharded_inventory_match}; sharded strict bytes == 1-thread: {sharded_match}; \
         peak resident <= 2x chunk: {resident_ok}; parallel not slower: {parallel_not_slower}; \
         sharded >= {sharded_required_ratio}x 1-thread: {sharded_not_slower} \
         ({sharded_ratio:.3}); canonical >= 0.9x raw: {canonical_overhead_ok}; \
         hit >= {HIT_REQUIRED_SPEEDUP}x cheaper than what it skips and the engine \
         saves >= {SAVED_SHARE_FLOOR} of it: {incremental_ok}"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"stream\",");
    let _ = writeln!(json, "  \"elements\": {elements},");
    let _ = writeln!(json, "  \"nodes\": {n_nodes},");
    let _ = writeln!(json, "  \"edges\": {n_edges},");
    let _ = writeln!(json, "  \"chunk_size\": {chunk_size},");
    let _ = writeln!(json, "  \"chunks\": {},", stream_result.chunk_times.len());
    let _ = writeln!(json, "  \"baseline_secs\": {baseline_secs:.6},");
    let _ = writeln!(json, "  \"baseline_elements_per_sec\": {baseline_eps:.1},");
    let _ = writeln!(json, "  \"stream_secs\": {stream_secs:.6},");
    let _ = writeln!(json, "  \"stream_elements_per_sec\": {stream_eps:.1},");
    let _ = writeln!(json, "  \"canonical_elements_per_sec\": {stream_eps:.1},");
    let _ = writeln!(json, "  \"raw_chunk_elements_per_sec\": {raw_eps:.1},");
    let _ = writeln!(
        json,
        "  \"canonical_overhead_ratio\": {:.4},",
        stream_eps / raw_eps
    );
    let _ = writeln!(
        json,
        "  \"canonical_overhead_ok\": {canonical_overhead_ok},"
    );
    let _ = writeln!(
        json,
        "  \"embedder_hoist_note\": \"the embedder is built once per \
         discover_stream*/discover_batches run and shared across chunks/workers (ISSUE 4; \
         before: once per chunk). Before/after on the same 1-core dev container, serial \
         streaming stayed within run-to-run noise of the PR 3 engine (240.1k elem/s \
         recorded then; this host wobbles roughly +/-15% between identical runs) — the \
         durable regression signal is canonical_overhead_ratio, measured within a single \
         run. Word2Vec is unaffected: it still trains per chunk\","
    );
    let _ = writeln!(json, "  \"parallel_secs\": {parallel_secs:.6},");
    let _ = writeln!(json, "  \"parallel_elements_per_sec\": {parallel_eps:.1},");
    let _ = writeln!(json, "  \"parallel_threads\": {threads},");
    let _ = writeln!(json, "  \"parallel_read_ahead\": {read_ahead},");
    let _ = writeln!(json, "  \"parallel_speedup\": {parallel_speedup:.4},");
    let _ = writeln!(
        json,
        "  \"parallel_max_chunk_resident_elements\": {},",
        parallel_max_resident
    );
    let _ = writeln!(json, "  \"parallel_schema_match\": {parallel_match},");
    let _ = writeln!(json, "  \"parallel_not_slower\": {parallel_not_slower},");
    let _ = writeln!(json, "  \"sharded_secs\": {sharded_secs:.6},");
    let _ = writeln!(json, "  \"sharded_elements_per_sec\": {sharded_eps:.1},");
    let _ = writeln!(
        json,
        "  \"sharded_serial_elements_per_sec\": {sharded_serial_eps:.1},"
    );
    let _ = writeln!(json, "  \"sharded_shards\": {shards},");
    let _ = writeln!(json, "  \"sharded_threads_per_shard\": {shard_threads},");
    let _ = writeln!(json, "  \"sharded_schema_match\": {sharded_match},");
    let _ = writeln!(
        json,
        "  \"sharded_inventory_match\": {sharded_inventory_match},"
    );
    let _ = writeln!(json, "  \"sharded_ratio\": {sharded_ratio:.4},");
    let _ = writeln!(
        json,
        "  \"sharded_required_ratio\": {sharded_required_ratio:.2},"
    );
    let _ = writeln!(json, "  \"sharded_not_slower\": {sharded_not_slower},");
    let _ = writeln!(json, "  \"incremental_elements\": {incr_elements},");
    let _ = writeln!(
        json,
        "  \"incremental_cold_elements_per_sec\": {incr_cold_eps:.1},"
    );
    let _ = writeln!(
        json,
        "  \"incremental_pass_elements_per_sec\": {incr_warm_eps:.1},"
    );
    let _ = writeln!(json, "  \"incremental_speedup\": {incr_speedup:.4},");
    let _ = writeln!(
        json,
        "  \"incremental_hit_speedup\": {incr_hit_speedup:.4},"
    );
    let _ = writeln!(
        json,
        "  \"incremental_saved_share\": {incr_saved_share:.4},"
    );
    let _ = writeln!(json, "  \"cache_hit_ratio\": {cache_hit_ratio:.4},");
    let _ = writeln!(
        json,
        "  \"cache_hit_ratio_floor\": {CACHE_HIT_RATIO_FLOOR:.2},"
    );
    let _ = writeln!(
        json,
        "  \"incremental_schema_match\": {incremental_schema_match},"
    );
    let _ = writeln!(json, "  \"incremental_ok\": {incremental_ok},");
    let _ = writeln!(json, "  \"cache_hit_ratio_ok\": {cache_hit_ratio_ok},");
    let _ = writeln!(json, "  \"baseline_resident_elements\": {elements},");
    let _ = writeln!(json, "  \"max_chunk_resident_elements\": {max_resident},");
    let _ = writeln!(
        json,
        "  \"resident_ratio\": {:.6},",
        max_resident as f64 / elements as f64
    );
    let _ = writeln!(
        json,
        "  \"cross_chunk_edges\": {},",
        warnings.cross_chunk_edges
    );
    let _ = writeln!(
        json,
        "  \"unresolved_edges\": {},",
        warnings.unresolved_edges
    );
    let _ = writeln!(
        json,
        "  \"node_types\": {},",
        stream_result.schema.node_types.len()
    );
    let _ = writeln!(
        json,
        "  \"edge_types\": {},",
        stream_result.schema.edge_types.len()
    );
    let _ = writeln!(json, "  \"schema_match\": {schema_match},");
    if matrix_cells.is_empty() {
        let _ = writeln!(json, "  \"resident_within_2x_chunk\": {resident_ok}");
    } else {
        let _ = writeln!(json, "  \"resident_within_2x_chunk\": {resident_ok},");
        let _ = writeln!(json, "  \"matrix\": [");
        for (i, (mt, mc, eps)) in matrix_cells.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{ \"threads\": {mt}, \"chunk_size\": {mc}, \
                 \"elements_per_sec\": {eps:.1} }}{}",
                if i + 1 == matrix_cells.len() { "" } else { "," }
            );
        }
        let _ = writeln!(json, "  ]");
    }
    json.push_str("}\n");
    std::fs::write("BENCH_stream.json", &json).expect("write BENCH_stream.json");
    println!("   wrote BENCH_stream.json");

    if !schema_match
        || !parallel_match
        || !sharded_match
        || !sharded_inventory_match
        || !resident_ok
        || !parallel_not_slower
        || !sharded_not_slower
        || !canonical_overhead_ok
        || !incremental_ok
        || !cache_hit_ratio_ok
        || !incremental_schema_match
    {
        if !sharded_match {
            eprintln!("FAIL: parallel tree schema diverged from the 1-thread run");
        }
        if !sharded_inventory_match {
            eprintln!("FAIL: sharded labeled-type inventory diverged from the serial stream");
        }
        if !sharded_not_slower {
            eprintln!(
                "FAIL: sharded at {sharded_eps:.0} elem/s, below \
                 {sharded_required_ratio}x the 1-thread tree run \
                 ({sharded_serial_eps:.0} elem/s)"
            );
        }
        if !incremental_ok {
            eprintln!(
                "FAIL: a cache hit is {incr_hit_speedup:.2}x cheaper than the stages it skips \
                 (need {HIT_REQUIRED_SPEEDUP}x), and the engine saves {incr_saved_share:.2} of \
                 the difference per chunk (need {SAVED_SHARE_FLOOR})"
            );
        }
        if !cache_hit_ratio_ok {
            eprintln!(
                "FAIL: warm-pass cache hit ratio {cache_hit_ratio:.3} below \
                 {CACHE_HIT_RATIO_FLOOR}"
            );
        }
        if !incremental_schema_match {
            eprintln!("FAIL: cached steady-state pass diverged from the uncached engine");
        }
        eprintln!("FAIL: streaming acceptance criteria not met");
        std::process::exit(1);
    }
}
