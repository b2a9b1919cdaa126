//! `serve_mixed`: an in-process `serve::bind` on `127.0.0.1:0` with a
//! state dir, driven by a closed loop of `nproc` keep-alive clients that
//! share two tenants. Each client repeats: `POST ingest` of a ~2k-record
//! pgt body, then `GET schema`, `GET stats` and `GET diff`, plus a
//! `checkpoint` on every 16th ingest. Bodies repeat a pool of four
//! structural shapes with fresh ids and values, so the signature cache
//! hits, and later bodies carry edges into nodes of earlier ones, so
//! `resolve_pending` has work.
//!
//! The run is a series of rounds of fixed work (`LOOPS` iterations per
//! client), each on a fresh server and state dir, so tenant state, memory
//! and snapshot size stay bounded however fast the host is. Because every
//! round sends the same bodies to the same tenants, one serial replay
//! through `ServeCore::dispatch` (built during set-up) is the reference
//! every round's final `GET schema` must equal, whatever the interleaving.

use crate::http::Client;
use crate::stages::Stages;
use crate::stream::{parse_drain, CHUNK};
use crate::trace::{TracedRun, Tracer};
use crate::util::{self, Rng};
use crate::{Outcome, Prepared};
use pg_hive_core::schema::SchemaGraph;
use pg_hive_core::serialize::pg_schema_strict;
use pg_hive_core::serve::{self, Request, ServeCore, ServeOptions};
use pg_hive_core::snapshot::{context_snapshot_cached, SnapshotConfig, WatchCheckpoint};
use pg_hive_core::{diff_schemas, SchemaState, SignatureCache};
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{ChunkedTextReader, LabelSetRegistry, RawGraphSource, Record, StreamWarnings};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Cursor;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Loop iterations per client per round.
const LOOPS: usize = 48;
/// Every this many ingests a client also checkpoints.
const CHECKPOINT_EVERY: usize = 16;
/// Structural shapes the bodies cycle through.
const SHAPES: usize = 4;
const BODY_NODES: usize = 1300;
const BODY_EDGES: usize = 600;
/// Edges per body into nodes of the same client's body two loops earlier
/// (same tenant, already ingested).
const CROSS_EDGES: usize = 100;
const TENANTS: [&str; 2] = ["t0", "t1"];

const NODE_TYPES: [&str; 6] = ["AS", "Prefix", "Org", "Country", "IXP", "Tag"];
/// Edge label with its (source, target) node types.
const EDGE_TYPES: [(&str, usize, usize); 4] = [
    ("ORIGINATE", 0, 1),
    ("MANAGED_BY", 0, 2),
    ("COUNTRY", 2, 3),
    ("MEMBER_OF", 0, 4),
];

const BODIES: &str = "bodies.bin";

fn reference_file(t: usize) -> String {
    format!("reference-{}.strict", TENANTS[t])
}

/// Which tenant body `g` goes to, and which body its cross edges target.
fn tenant_of(g: usize, clients: usize) -> usize {
    (g % clients + g / clients) % TENANTS.len()
}

/// A structural shape: node types, optional-key masks and in-body edges.
struct Shape {
    node_type: Vec<usize>,
    mask: Vec<u8>,
    by_type: Vec<Vec<usize>>,
    edges: Vec<(usize, usize, usize, bool)>,
}

fn shape(seed: u64, s: usize) -> Shape {
    let mut rng = Rng::new(seed ^ 0x5A4E_0000 ^ s as u64);
    let node_type: Vec<usize> = (0..BODY_NODES)
        .map(|_| rng.below(NODE_TYPES.len() as u64) as usize)
        .collect();
    let mask = (0..BODY_NODES).map(|_| rng.below(8) as u8).collect();
    let mut by_type = vec![Vec::new(); NODE_TYPES.len()];
    for (j, &t) in node_type.iter().enumerate() {
        by_type[t].push(j);
    }
    let any = |rng: &mut Rng, t: usize| by_type[t][rng.below(by_type[t].len() as u64) as usize];
    let edges = (0..BODY_EDGES)
        .map(|_| {
            let e = rng.below(EDGE_TYPES.len() as u64) as usize;
            let (_, a, b) = EDGE_TYPES[e];
            (e, any(&mut rng, a), any(&mut rng, b), rng.chance(0.5))
        })
        .collect();
    Shape {
        node_type,
        mask,
        by_type,
        edges,
    }
}

fn word(rng: &mut Rng) -> String {
    (0..6)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

/// Body `g` as pgt text: its shape with fresh ids and values.
fn body(seed: u64, g: usize, clients: usize, shapes: &[Shape]) -> String {
    let sh = &shapes[g % SHAPES];
    let mut rng = Rng::new(seed ^ 0xB0D1_0000_0000 ^ g as u64);
    let mut out = String::new();
    for (j, &t) in sh.node_type.iter().enumerate() {
        let ty = NODE_TYPES[t].to_lowercase();
        let _ = write!(
            out,
            "N g{g}n{j} {} {ty}_id={},name={}",
            NODE_TYPES[t],
            rng.next_u64() % 1_000_000,
            word(&mut rng)
        );
        let m = sh.mask[j];
        if m & 1 != 0 {
            let _ = write!(out, ",{ty}_rank={}", rng.below(1000));
        }
        if m & 2 != 0 {
            let _ = write!(out, ",note={}", word(&mut rng));
        }
        if m & 4 != 0 {
            let _ = write!(out, ",{ty}_seen={}", 2000 + rng.below(25));
        }
        out.push('\n');
    }
    for &(e, a, b, weighted) in &sh.edges {
        let _ = write!(out, "E g{g}n{a} g{g}n{b} {}", EDGE_TYPES[e].0);
        if weighted {
            let _ = writeln!(out, " weight={}", rng.below(100));
        } else {
            out.push_str(" -\n");
        }
    }
    if let Some(earlier) = g.checked_sub(2 * clients) {
        let before = &shapes[earlier % SHAPES];
        for _ in 0..CROSS_EDGES {
            let e = rng.below(EDGE_TYPES.len() as u64) as usize;
            let (label, a, b) = EDGE_TYPES[e];
            let src = sh.by_type[a][rng.below(sh.by_type[a].len() as u64) as usize];
            let tgt = before.by_type[b][rng.below(before.by_type[b].len() as u64) as usize];
            let _ = writeln!(out, "E g{g}n{src} g{earlier}n{tgt} {label} -");
        }
    }
    out
}

fn ingest_target(t: usize) -> String {
    format!("/v1/{}/ingest", TENANTS[t])
}

pub fn prepare(seed: u64, dir: &Path) -> Result<Prepared, String> {
    let clients = util::nproc();
    let shapes: Vec<Shape> = (0..SHAPES).map(|s| shape(seed, s)).collect();
    let bodies: Vec<String> = (0..clients * LOOPS)
        .map(|g| body(seed, g, clients, &shapes))
        .collect();
    // The reference: every body ingested serially, in body order.
    let core = ServeCore::new(crate::discoverer(), ServeOptions::default())?;
    for (g, b) in bodies.iter().enumerate() {
        let req = Request::new(
            "POST",
            &ingest_target(tenant_of(g, clients)),
            b.clone().into_bytes(),
        );
        let (resp, _) = core.dispatch(&req);
        if resp.status != 200 {
            return Err(format!(
                "reference ingest of body {g}: status {}",
                resp.status
            ));
        }
    }
    let mut p = Prepared::default();
    let mut packed = Vec::new();
    for b in &bodies {
        packed.extend_from_slice(&(b.len() as u64).to_le_bytes());
        packed.extend_from_slice(b.as_bytes());
    }
    p.write(dir, BODIES, &packed)?;
    for (t, name) in TENANTS.iter().enumerate() {
        let (resp, _) = core.dispatch(&Request::new(
            "GET",
            &format!("/v1/{name}/schema"),
            Vec::new(),
        ));
        p.write(dir, &reference_file(t), &resp.body)?;
    }
    let records: usize = bodies.iter().map(|b| b.lines().count()).sum();
    let cross = bodies.len().saturating_sub(2 * clients) * CROSS_EDGES;
    let node_sigs: std::collections::BTreeSet<(usize, u8)> = shapes
        .iter()
        .flat_map(|s| s.node_type.iter().copied().zip(s.mask.iter().copied()))
        .collect();
    p.inputs
        .int("clients", clients as u64)
        .int("tenants", TENANTS.len() as u64)
        .int("bodies_per_round", bodies.len() as u64)
        .int("elements_per_round", records as u64)
        .int("bytes_per_round", (packed.len() - 8 * bodies.len()) as u64)
        .int(
            "records_per_body",
            (BODY_NODES + BODY_EDGES + CROSS_EDGES) as u64,
        )
        .int("shapes", SHAPES as u64)
        .int(
            "distinct_signatures",
            (node_sigs.len() + 2 * EDGE_TYPES.len()) as u64,
        )
        .num("labeled_share", 1.0)
        .int("cross_body_edges_per_round", cross as u64)
        .int("checkpoint_every", CHECKPOINT_EVERY as u64);
    Ok(p)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Route {
    Ingest,
    Schema,
    Stats,
    Diff,
    Checkpoint,
}

const ROUTES: [Route; 5] = [
    Route::Ingest,
    Route::Schema,
    Route::Stats,
    Route::Diff,
    Route::Checkpoint,
];

impl Route {
    fn name(self) -> &'static str {
        match self {
            Route::Ingest => "ingest",
            Route::Schema => "schema",
            Route::Stats => "stats",
            Route::Diff => "diff",
            Route::Checkpoint => "checkpoint",
        }
    }
}

/// One request as a client sent and saw it.
#[derive(Clone)]
struct Sample {
    route: Route,
    tenant: usize,
    /// Body index (ingest) — or the `since` pass (diff).
    arg: usize,
    /// Completion time since the round started, for the serial replay order.
    end_s: f64,
    latency_s: f64,
    status: u16,
    /// Pass number an ingest reply reported.
    pass: u64,
}

impl Sample {
    fn method(&self) -> &'static str {
        match self.route {
            Route::Ingest | Route::Checkpoint => "POST",
            _ => "GET",
        }
    }

    fn target(&self) -> String {
        let t = TENANTS[self.tenant];
        match self.route {
            Route::Diff => format!("/v1/{t}/diff?since={}", self.arg),
            route => format!("/v1/{t}/{}", route.name()),
        }
    }

    fn body<'a>(&self, bodies: &'a [Vec<u8>]) -> &'a [u8] {
        match self.route {
            Route::Ingest => &bodies[self.arg],
            _ => &[],
        }
    }
}

struct Round {
    samples: Vec<Sample>,
    wall_s: f64,
    finals: Vec<String>,
}

fn parse_pass(body: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(body);
    text.split("\"pass\":")
        .nth(1)
        .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn client_loop(
    addr: SocketAddr,
    c: usize,
    clients: usize,
    bodies: &[Vec<u8>],
    t0: Instant,
) -> Result<Vec<Sample>, String> {
    let mut http = Client::connect(addr)?;
    let mut last_pass = [0u64; TENANTS.len()];
    let mut samples = Vec::new();
    for k in 0..LOOPS {
        let g = k * clients + c;
        let tenant = tenant_of(g, clients);
        let mut plan = vec![
            (Route::Ingest, g),
            (Route::Schema, 0),
            (Route::Stats, 0),
            (Route::Diff, last_pass[tenant] as usize),
        ];
        if (k + 1) % CHECKPOINT_EVERY == 0 {
            plan.push((Route::Checkpoint, 0));
        }
        for (route, arg) in plan {
            let mut s = Sample {
                route,
                tenant,
                arg,
                end_s: 0.0,
                latency_s: 0.0,
                status: 0,
                pass: 0,
            };
            let target = s.target();
            let t = Instant::now();
            let reply = http.request(s.method(), &target, s.body(bodies))?;
            s.latency_s = util::secs(t);
            s.end_s = util::secs(t0);
            s.status = reply.status;
            if route == Route::Ingest {
                s.pass = parse_pass(&reply.body);
                last_pass[tenant] = s.pass;
            }
            samples.push(s);
        }
    }
    Ok(samples)
}

fn start_server(state_dir: &Path) -> Result<serve::RunningServer, String> {
    let core = ServeCore::new(
        crate::discoverer(),
        ServeOptions {
            state_dir: Some(state_dir.to_path_buf()),
            ..ServeOptions::default()
        },
    )?;
    serve::bind("127.0.0.1:0", Arc::new(core))
}

/// One round against a started server, which it shuts down.
fn run_round(
    server: serve::RunningServer,
    clients: usize,
    bodies: &[Vec<u8>],
) -> Result<Round, String> {
    let addr = server.addr();
    let t0 = Instant::now();
    let logs: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || client_loop(addr, c, clients, bodies, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = util::secs(t0);
    let mut http = Client::connect(addr)?;
    let mut finals = Vec::new();
    for t in TENANTS {
        let reply = http.request("GET", &format!("/v1/{t}/schema"), b"")?;
        finals.push(String::from_utf8_lossy(&reply.body).into_owned());
    }
    drop(http);
    server.shutdown();
    let mut samples = Vec::new();
    for log in logs {
        samples.extend(log?);
    }
    samples.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    Ok(Round {
        samples,
        wall_s,
        finals,
    })
}

struct Inputs {
    bodies: Vec<Vec<u8>>,
    references: Vec<String>,
    clients: usize,
}

fn load(dir: &Path) -> Result<Inputs, String> {
    let packed = std::fs::read(dir.join(BODIES)).map_err(|e| format!("read bodies: {e}"))?;
    let mut bodies = Vec::new();
    let mut rest = &packed[..];
    while rest.len() >= 8 {
        let (len, tail) = rest.split_at(8);
        let n = u64::from_le_bytes(len.try_into().expect("8 bytes")) as usize;
        let (b, tail) = tail.split_at(n.min(tail.len()));
        bodies.push(b.to_vec());
        rest = tail;
    }
    let references = (0..TENANTS.len())
        .map(|t| {
            std::fs::read_to_string(dir.join(reference_file(t)))
                .map_err(|e| format!("read reference: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let clients = util::nproc();
    if bodies.len() != clients * LOOPS {
        return Err(format!(
            "{} bodies prepared for a different client count",
            bodies.len()
        ));
    }
    Ok(Inputs {
        bodies,
        references,
        clients,
    })
}

fn check_round(out: &mut Outcome, what: &str, finals: &[String], refs: &[String]) {
    for (t, (got, want)) in finals.iter().zip(refs).enumerate() {
        out.check(
            &format!(
                "{what}: tenant {} schema equals the serial replay",
                TENANTS[t]
            ),
            got == want,
            || format!("{} bytes vs {}", got.len(), want.len()),
        );
    }
}

fn check_http_round(out: &mut Outcome, r: &Round, refs: &[String]) {
    let bad = r.samples.iter().filter(|s| s.status != 200).count();
    out.check("every response is 200", bad == 0, || {
        format!("{bad} non-200 responses")
    });
    check_round(out, "http", &r.finals, refs);
    for (t, name) in TENANTS.iter().enumerate() {
        let mut passes: Vec<u64> = r
            .samples
            .iter()
            .filter(|s| s.route == Route::Ingest && s.tenant == t)
            .map(|s| s.pass)
            .collect();
        passes.sort_unstable();
        let ok = passes.iter().enumerate().all(|(i, &p)| p == i as u64 + 1);
        out.check(
            &format!("tenant {name} ingests saw passes 1..n exactly once"),
            ok,
            || format!("{passes:?}"),
        );
    }
}

pub fn measure(dir: &Path, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let t = Instant::now();
    let mut out = Outcome::default();
    let inputs = load(dir)?;
    let records: Vec<f64> = inputs
        .bodies
        .iter()
        .map(|b| b.iter().filter(|&&c| c == b'\n').count() as f64)
        .collect();
    let state_dir = |r: usize| dir.join(format!("state-{r}"));
    let mut server = Some(start_server(&state_dir(0))?);
    out.setup_s = util::secs(t);

    // The closed loop: whole rounds until the time is up.
    let (mut rss, mut peak) = (Some(util::RssPeak::start()?), 0.0);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || util::secs(start) < seconds {
        let srv = match server.take() {
            Some(s) => s,
            None => start_server(&state_dir(rounds.len()))?,
        };
        let r = run_round(srv, inputs.clients, &inputs.bodies)?;
        if let Some(r) = rss.take() {
            peak = r.take();
        }
        check_http_round(&mut out, &r, &inputs.references);
        let _ = std::fs::remove_dir_all(state_dir(rounds.len()));
        rounds.push(r);
    }
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let ingested: f64 = rounds
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.route == Route::Ingest)
        .map(|s| records[s.arg])
        .sum();
    let latencies = |routes: &[Route]| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| &r.samples)
            .filter(|s| routes.contains(&s.route))
            .map(|s| s.latency_s * 1e3)
            .collect()
    };
    if !trace {
        out.end_to_end(ingested / wall, peak);
        return Ok(out);
    }

    // Client-side figures of the closed loop.
    let requests = rounds.iter().map(|r| r.samples.len()).sum::<usize>() as f64;
    out.metric("serve.req_per_s", requests / wall, "1/s");
    let reads = [Route::Schema, Route::Stats, Route::Diff];
    for (name, routes) in [
        ("ingest", &[Route::Ingest][..]),
        ("read", &reads),
        ("checkpoint", &[Route::Checkpoint]),
    ] {
        let xs = latencies(routes);
        out.metric(&format!("serve.{name}_samples"), xs.len() as f64, "count");
        out.metric(
            &format!("serve.{name}_p50_ms"),
            util::median(&xs).unwrap_or(f64::NAN),
            "ms",
        );
        if name != "checkpoint" {
            // 0 when fewer than ten samples lie beyond p99 (see the count).
            let p99 = util::tail_percentile(&xs, 99.0).unwrap_or(0.0);
            out.metric(&format!("serve.{name}_p99_ms"), p99, "ms");
        }
    }

    // Traced replays of the last round's requests, in completion order:
    // at least two, for a quarter of the measured time.
    let start = Instant::now();
    let round = rounds.last().expect("at least one round");
    let d = crate::discoverer();
    let stages = Stages::new(&d);
    let mut run = TracedRun::new();
    let mut dispatch: Vec<Vec<f64>> = vec![Vec::new(); ROUTES.len()];
    let mut dispatch_per_round: Vec<Vec<f64>> = vec![Vec::new(); ROUTES.len()];
    let (mut parse, mut parse_bytes) = (Vec::new(), 0usize);
    let mut unit = 0;
    while unit < 2 || util::secs(start) < seconds / 4.0 {
        let sd = state_dir(1000 + unit as usize);
        let finals = replay_dispatch(
            &inputs.bodies,
            &round.samples,
            &sd,
            &mut dispatch,
            &mut dispatch_per_round,
        )?;
        check_round(&mut out, "dispatch replay", &finals, &inputs.references);
        let finals = run.unit(unit, |tr| {
            replay_traced(&stages, &inputs.bodies, &round.samples, &sd, tr)
        })?;
        check_round(
            &mut out,
            "traced decomposition",
            &finals,
            &inputs.references,
        );
        let _ = std::fs::remove_dir_all(&sd);
        let mut p = 0.0;
        parse_bytes = 0;
        for s in round.samples.iter().filter(|s| s.route == Route::Ingest) {
            let b = &inputs.bodies[s.arg];
            p += parse_drain(PgtSource::new(Cursor::new(b.as_slice())))?.0;
            parse_bytes += b.len();
        }
        parse.push(p);
        unit += 1;
    }
    for (i, route) in ROUTES.iter().enumerate() {
        let client = latencies(&[*route]);
        let per_req = util::median(&dispatch[i]).unwrap_or(f64::NAN);
        out.metric(
            &format!("core.serve.dispatch.{}.busy_s", route.name()),
            util::median(&dispatch_per_round[i]).unwrap_or(f64::NAN),
            "s",
        );
        out.metric(
            &format!("core.serve.transport.{}_ms", route.name()),
            util::median(&client).unwrap_or(f64::NAN) - per_req * 1e3,
            "ms",
        );
    }
    let parse_s = util::median(&parse).unwrap_or(f64::NAN);
    out.metric("pgraph.stream.parse.busy_s", parse_s, "s");
    out.metric(
        "pgraph.stream.parse.mb_per_s",
        parse_bytes as f64 / 1e6 / parse_s,
        "MB/s",
    );
    for name in [
        "core.pipeline.resolved_edges",
        "pgraph.stream.cross_chunk_edges",
    ] {
        out.metric(
            name,
            util::median(&run.tr.counter_per_unit(name)).unwrap_or(0.0),
            "count",
        );
    }
    let saves = run.tr.counter_total("core.snapshot.saves");
    let bytes = run.tr.counter_total("core.snapshot.bytes");
    out.metric(
        "core.snapshot.bytes",
        if saves > 0.0 { bytes / saves } else { 0.0 },
        "bytes",
    );
    out.layers(&run.tr);
    out.cache_counters(&run.tr);
    out.overhead(&run);
    out.spans = Some(run.tr.to_jsonl());
    Ok(out)
}

/// Replay `samples` through a fresh `ServeCore::dispatch`, timing each
/// route; returns every tenant's final strict schema.
fn replay_dispatch(
    bodies: &[Vec<u8>],
    samples: &[Sample],
    state_dir: &Path,
    per_request: &mut [Vec<f64>],
    per_round: &mut [Vec<f64>],
) -> Result<Vec<String>, String> {
    let core = ServeCore::new(
        crate::discoverer(),
        ServeOptions {
            state_dir: Some(state_dir.to_path_buf()),
            ..ServeOptions::default()
        },
    )?;
    let mut totals = vec![0.0; ROUTES.len()];
    for s in samples {
        let req = Request::new(s.method(), &s.target(), s.body(bodies).to_vec());
        let t = Instant::now();
        let (resp, _) = core.dispatch(&req);
        let dt = util::secs(t);
        if resp.status != 200 {
            return Err(format!(
                "replayed {} returned {}",
                s.route.name(),
                resp.status
            ));
        }
        let i = ROUTES
            .iter()
            .position(|r| *r == s.route)
            .expect("known route");
        per_request[i].push(dt);
        totals[i] += dt;
    }
    for (i, t) in totals.into_iter().enumerate() {
        per_round[i].push(t);
    }
    Ok(TENANTS
        .iter()
        .map(|t| {
            let (resp, _) =
                core.dispatch(&Request::new("GET", &format!("/v1/{t}/schema"), Vec::new()));
            String::from_utf8_lossy(&resp.body).into_owned()
        })
        .collect())
}

/// A tenant as the decomposition keeps it: the fields `ServeCore` guards
/// with the tenant mutex.
struct Tenant {
    state: SchemaState,
    registry: LabelSetRegistry,
    pending: Vec<Record>,
    cache: SignatureCache,
    pass: u64,
    warnings: StreamWarnings,
    history: VecDeque<(u64, SchemaGraph)>,
    last_schema: SchemaGraph,
}

/// Replay `samples` through the server's handlers decomposed into public
/// calls, one span per layer; returns every tenant's final strict schema.
fn replay_traced(
    stages: &Stages,
    bodies: &[Vec<u8>],
    samples: &[Sample],
    state_dir: &Path,
    tr: &mut Tracer,
) -> Result<Vec<String>, String> {
    let d = stages.d;
    let opts = ServeOptions::default();
    let config = SnapshotConfig::new(d.config(), opts.chunk_size);
    std::fs::create_dir_all(state_dir).map_err(|e| format!("create state dir: {e}"))?;
    let mut tenants: Vec<Tenant> = TENANTS
        .iter()
        .map(|_| Tenant {
            state: d.new_state(),
            registry: LabelSetRegistry::default(),
            pending: Vec::new(),
            cache: SignatureCache::default(),
            pass: 0,
            warnings: StreamWarnings::default(),
            history: VecDeque::from([(0, SchemaGraph::default())]),
            last_schema: SchemaGraph::default(),
        })
        .collect();
    for s in samples {
        let t = &mut tenants[s.tenant];
        match s.route {
            Route::Ingest => {
                let source: Box<dyn RawGraphSource + Send> =
                    Box::new(PgtSource::new(Cursor::new(bodies[s.arg].clone())));
                let mut reader =
                    ChunkedTextReader::with_registry(source, CHUNK, LabelSetRegistry::default());
                reader.set_carry_unresolved(true);
                let mut chunks = Vec::new();
                while let Some(c) = tr
                    .span("pgraph.stream.chunk", |_| reader.next_chunk())
                    .map_err(|e| e.to_string())?
                {
                    chunks.push(c);
                }
                for chunk in chunks {
                    let cs = stages.chunk_state(&chunk, Some(&t.cache), tr);
                    tr.span("core.state.merge", |_| t.state.merge(cs));
                }
                tr.count(
                    "pgraph.stream.cross_chunk_edges",
                    reader.warnings().cross_chunk_edges as f64,
                );
                tr.span("pgraph.stream.registry", |_| {
                    t.pending.extend(reader.take_pending());
                    t.warnings.absorb(&reader.warnings());
                    t.warnings.duplicate_nodes += t.registry.merge(&reader.into_registry());
                });
                let carried = std::mem::take(&mut t.pending);
                let (left, resolved) = tr.span("core.pipeline.resolve_pending", |_| {
                    d.resolve_pending(&mut t.state, &t.registry, carried)
                });
                tr.count("core.pipeline.resolved_edges", resolved as f64);
                t.pending = left;
                t.pass += 1;
                let schema = tr.span("core.state.finalize", |_| t.state.finalize_cached());
                std::hint::black_box(
                    tr.span("core.diff", |_| diff_schemas(&t.last_schema, &schema)),
                );
                t.last_schema = schema.clone();
                t.history.push_back((t.pass, schema));
                while t.history.len() > opts.history.max(1) {
                    t.history.pop_front();
                }
            }
            Route::Schema => {
                let schema = tr.span("core.state.finalize", |_| t.state.finalize_cached());
                std::hint::black_box(tr.span("core.serialize", |_| {
                    pg_schema_strict(&schema, "Discovered")
                }));
            }
            Route::Stats => {
                std::hint::black_box(tr.span("core.state.finalize", |_| t.state.finalize_cached()));
                std::hint::black_box(t.cache.stats());
            }
            Route::Diff => {
                let old = t
                    .history
                    .iter()
                    .find(|(p, _)| *p == s.arg as u64)
                    .map(|(_, s)| s.clone())
                    .ok_or("diff: pass left the history window")?;
                let current = tr.span("core.state.finalize", |_| t.state.finalize_cached());
                std::hint::black_box(tr.span("core.diff", |_| diff_schemas(&old, &current)));
            }
            Route::Checkpoint => {
                let watch = WatchCheckpoint {
                    input: TENANTS[s.tenant].to_string(),
                    format: "serve".to_string(),
                    pass: t.pass,
                    warnings: t.warnings,
                    files: Vec::new(),
                };
                let path: PathBuf = state_dir.join(format!("{}.snapshot", TENANTS[s.tenant]));
                tr.span("core.snapshot.save", |_| {
                    context_snapshot_cached(
                        &config,
                        &t.state,
                        &t.registry,
                        Some(&watch),
                        &t.pending,
                        Some(&t.cache),
                    )
                    .write_atomic(&path)
                })
                .map_err(|e| e.to_string())?;
                let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                tr.count("core.snapshot.bytes", bytes as f64);
                tr.count("core.snapshot.saves", 1.0);
            }
        }
    }
    for t in &mut tenants {
        tr.count("core.state.pooled_types", t.state.pooled_types() as f64);
    }
    Ok(tenants
        .iter_mut()
        .map(|t| pg_schema_strict(&t.state.finalize_cached(), "Discovered"))
        .collect())
}
