//! `pg-hive serve` — a long-running multi-tenant schema service.
//!
//! Everything the engine can do in one-shot CLI invocations (streaming
//! discovery, canonical [`SchemaState`](crate::state::SchemaState) folding,
//! durable snapshots, drift diffs, the signature cache) is served here over
//! a minimal in-tree HTTP/1.1 server built directly on
//! [`std::net::TcpListener`] — no crates.io dependency, the same playbook
//! as the vendored JSON parser in `pg_hive_graph`.
//!
//! ## Correctness model
//!
//! The server interleaves many clients' ingests into shared per-tenant
//! state. This is safe to do — and black-box testable — because each
//! request body contributes a **fixed observation** and the canonical
//! [`SchemaState`](crate::state::SchemaState) fold over observations is
//! **associative and commutative** with a deterministic `finalize()`: any
//! interleaving of ingest requests finalizes byte-identically to a serial
//! replay of the same batches in any order. `tests/serve_concurrent.rs`
//! enforces exactly that property over raw `TcpStream`s.
//!
//! "Fixed observation" is load-bearing and mirrors the offline
//! directory-tree path's per-file rule (see "The ingest fold" in `docs/ARCHITECTURE.md`):
//! every request body is absorbed as one unit into a **fresh
//! [`Ingest`] with a fresh registry**, so its contribution — label sets,
//! property types, and the per-chunk distinct endpoint counts that bound
//! cardinality — depends only on the body and the chunk size, never on
//! arrival order. Cross-request edges (endpoint declared by some *other*
//! request) always travel the carried-pending path: the body's unit is
//! merged into the tenant's accumulator and [`Ingest::resolve`] gives each
//! resolved edge its own stub pair, in one mini-graph per edge signature —
//! a per-edge observation identical no matter *when* the endpoint finally
//! shows up. Request bodies are the unit of observation exactly as tree
//! files are offline, so the tree equivalence proof carries over
//! verbatim.
//!
//! Each ingest request is **atomic**: the body folds into its own unit,
//! which is merged into the tenant only once the whole body parsed, so a
//! malformed body returns `400 bad-body` and leaves the tenant's schema,
//! registry and counters exactly as they were.
//!
//! ## Lock ordering
//!
//! Two lock levels exist and must only ever be taken top-down:
//!
//! 1. the **tenant map** (`RwLock` over name → `Arc<Mutex<TenantState>>`),
//!    held only long enough to look up or insert the `Arc` — never while a
//!    tenant mutex is held;
//! 2. a **tenant mutex**, guarding that tenant's entire mutable state
//!    (schema state, registry, pending edges, pass counter, history).
//!
//! Handlers clone the `Arc` out of the map, drop the map guard, and only
//! then lock the tenant. The [`SignatureCache`]'s internal mutex is a leaf
//! lock taken by the absorb pipeline below both levels. Following this
//! order makes deadlock impossible; the two-thread interleaving exerciser
//! in this module's tests drives map-inserts against hot-tenant ingests to
//! demonstrate it.
//!
//! ## Durability
//!
//! `POST /v1/{tenant}/checkpoint` writes a standard versioned, checksummed
//! snapshot (`<state-dir>/<tenant>.snapshot`, atomic temp-file + rename)
//! carrying the schema state, registry, pending edges, signature cache and
//! a watch section whose `pass` field lets a restarted server continue the
//! pass numbering without spurious drift. On startup the server scans
//! `--state-dir` and warm-resumes every tenant it finds.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pg_hive_graph::json_escape;
use pg_hive_graph::stream::{csv::CsvSource, jsonl::JsonlSource, pgt::PgtSource};
use pg_hive_graph::RawGraphSource;

use crate::diff::{diff_schemas, SchemaDiff};
use crate::pipeline::{Discoverer, Ingest, UnitSource};
use crate::schema::SchemaGraph;
use crate::serialize::pg_schema_strict;
use crate::sigcache::SignatureCache;
use crate::snapshot::{
    context_snapshot_cached, ResumeContext, Snapshot, SnapshotConfig, WatchCheckpoint,
};

/// Default number of worker threads handling connections.
pub const DEFAULT_WORKERS: usize = 4;
/// Default per-connection read timeout.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Default maximum request body size (64 MiB).
pub const DEFAULT_MAX_BODY: usize = 64 << 20;
/// Default number of `(pass, schema)` entries kept per tenant for
/// `GET /v1/{tenant}/diff?since=N`.
pub const DEFAULT_HISTORY: usize = 64;
/// Default streaming chunk size (elements per chunk) for ingest bodies
/// and the CLI's `--chunk-size`.
pub const DEFAULT_CHUNK_SIZE: usize = 100_000;

const MAX_REQUEST_LINE: usize = 8 << 10;
const MAX_HEADER_LINE: usize = 8 << 10;
const MAX_HEADERS: usize = 64;
const MAX_HEADER_BYTES: usize = 32 << 10;

/// Server tuning knobs. All fields have working defaults.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads in the connection pool.
    pub workers: usize,
    /// Elements per streaming chunk when absorbing ingest bodies.
    pub chunk_size: usize,
    /// Directory for per-tenant snapshots; `None` disables checkpointing
    /// and warm restarts.
    pub state_dir: Option<PathBuf>,
    /// Keep a rotation chain of this many previous snapshots per tenant
    /// (`<tenant>.snapshot.1..K`). `None` keeps only the current one.
    pub keep: Option<usize>,
    /// Socket read timeout: bounds how long a slow or stalled client can
    /// hold a worker.
    pub read_timeout: Duration,
    /// Maximum accepted request body size in bytes.
    pub max_body: usize,
    /// `(pass, schema)` history entries retained per tenant for `diff`.
    pub history: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: DEFAULT_WORKERS,
            chunk_size: DEFAULT_CHUNK_SIZE,
            state_dir: None,
            keep: None,
            read_timeout: DEFAULT_READ_TIMEOUT,
            max_body: DEFAULT_MAX_BODY,
            history: DEFAULT_HISTORY,
        }
    }
}

/// A drift notification produced when an ingest pass changed a tenant's
/// finalized schema. Fired *after* the tenant lock is released, so sinks
/// can be arbitrarily slow without stalling other requests for the
/// tenant's lock holder.
#[derive(Debug, Clone)]
pub struct DriftNotice {
    /// The tenant whose schema drifted.
    pub tenant: String,
    /// The pass number that produced the drift.
    pub pass: u64,
    /// Elements absorbed by that pass (including resolved pending edges).
    pub elements_added: u64,
    /// The schema delta.
    pub diff: SchemaDiff,
}

/// Callback invoked for every drift notice. The CLI wires the
/// `--on-drift exec:/jsonl:` sink codec through this.
pub type DriftHook = Box<dyn Fn(&DriftNotice) + Send + Sync>;

/// Everything mutable about one tenant, guarded by one mutex (level 2 of
/// the lock order documented at module level).
struct TenantState {
    /// Schema state, registry, pending edges, warnings and element count.
    ingest: Ingest,
    cache: SignatureCache,
    pass: u64,
    /// Finalized schemas by pass, oldest first. Never empty: the state
    /// changes only at resume and in `ingest`, and both push its schema,
    /// so the back entry is always the current schema.
    history: VecDeque<(u64, SchemaGraph)>,
}

impl TenantState {
    fn new(ingest: Ingest, cache: SignatureCache, pass: u64, schema: SchemaGraph) -> Self {
        TenantState {
            ingest,
            cache,
            pass,
            history: VecDeque::from([(pass, schema)]),
        }
    }

    /// The finalized schema of the current pass.
    fn current(&self) -> &SchemaGraph {
        &self.history.back().expect("history is never empty").1
    }

    fn push_history(&mut self, pass: u64, schema: SchemaGraph, cap: usize) {
        self.history.push_back((pass, schema));
        while self.history.len() > cap.max(1) {
            self.history.pop_front();
        }
    }
}

type TenantMap = RwLock<BTreeMap<String, Arc<Mutex<TenantState>>>>;

/// The transport-independent server core: tenant states, routing and all
/// endpoint handlers. [`bind`] wraps it in the TCP accept loop; tests can
/// drive [`ServeCore::dispatch`] directly without sockets.
pub struct ServeCore {
    discoverer: Discoverer,
    opts: ServeOptions,
    snapshot_config: SnapshotConfig,
    tenants: TenantMap,
    drift_hook: Option<DriftHook>,
    started: Instant,
}

/// Ingest body wire formats accepted by `POST /v1/{tenant}/ingest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyFormat {
    Pgt,
    Jsonl,
    CsvNodes,
    CsvEdges,
}

impl BodyFormat {
    fn parse(s: &str) -> Option<BodyFormat> {
        match s {
            "pgt" => Some(BodyFormat::Pgt),
            "jsonl" => Some(BodyFormat::Jsonl),
            "csv" => Some(BodyFormat::CsvNodes),
            "csv-edges" => Some(BodyFormat::CsvEdges),
            _ => None,
        }
    }
}

/// A parsed HTTP request, ready for [`ServeCore::dispatch`].
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with the query string stripped.
    pub path: String,
    /// Decoded `key=value` query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// True when the client asked for `Connection: close` (or spoke
    /// HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

impl Request {
    /// Build a request for direct [`ServeCore::dispatch`] testing.
    pub fn new(method: &str, target: &str, body: Vec<u8>) -> Request {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), parse_query(q)),
            None => (target.to_string(), Vec::new()),
        };
        Request {
            method: method.to_string(),
            path,
            query,
            body,
            close: false,
        }
    }

    fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response produced by [`ServeCore::dispatch`] or the protocol
/// layer.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// True when the connection must close after this response (the
    /// request broke framing, so the byte stream can't be trusted).
    pub close: bool,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
        }
    }

    fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            close: false,
        }
    }

    /// A named error with a JSON body: `{"error":"<name>","detail":"..."}`.
    fn error(status: u16, name: &str, detail: &str) -> Response {
        Response::json(
            status,
            format!(
                "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
                json_escape(name),
                json_escape(detail)
            ),
        )
    }

    fn closing(mut self) -> Response {
        self.close = true;
        self
    }
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// Tenant names become snapshot file stems, so they are restricted to a
/// filesystem- and URL-safe alphabet: ASCII alphanumerics, `-`, `_` and
/// non-leading `.`, at most 64 bytes.
pub fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

fn diff_json(diff: &SchemaDiff) -> String {
    format!(
        "{{\"empty\":{},\"monotone\":{},\"added_node_types\":{},\"removed_node_types\":{},\
         \"changed_node_types\":{},\"added_edge_types\":{},\"removed_edge_types\":{},\
         \"changed_edge_types\":{},\"summary\":\"{}\"}}",
        diff.is_empty(),
        diff.is_monotone(),
        diff.added_node_types.len(),
        diff.removed_node_types.len(),
        diff.changed_node_types.len(),
        diff.added_edge_types.len(),
        diff.removed_edge_types.len(),
        diff.changed_edge_types.len(),
        json_escape(&diff.to_string())
    )
}

impl ServeCore {
    /// Build a server core. When `opts.state_dir` is set, every
    /// `<tenant>.snapshot` found there is warm-resumed (rotated
    /// `.snapshot.N` files are ignored); a snapshot that fails to load or
    /// was written under an incompatible configuration is a startup error
    /// — refusing loudly beats silently dropping a tenant's state.
    pub fn new(discoverer: Discoverer, opts: ServeOptions) -> Result<ServeCore, String> {
        let snapshot_config = SnapshotConfig::new(discoverer.config(), opts.chunk_size);
        let mut tenants = BTreeMap::new();
        if let Some(dir) = &opts.state_dir {
            for (name, tenant) in resume_tenants(dir, &snapshot_config)? {
                tenants.insert(name, Arc::new(Mutex::new(tenant)));
            }
        }
        Ok(ServeCore {
            discoverer,
            opts,
            snapshot_config,
            tenants: RwLock::new(tenants),
            drift_hook: None,
            started: Instant::now(),
        })
    }

    /// Install the drift callback. Must be called before the core is
    /// shared ([`bind`] takes an `Arc`).
    pub fn set_drift_hook(&mut self, hook: DriftHook) {
        self.drift_hook = Some(hook);
    }

    /// Names of all currently resident tenants, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants
            .read()
            .expect("tenant map poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Look up a tenant. Lock order: take the map read guard, clone the
    /// `Arc`, drop the guard — the caller locks the tenant mutex only
    /// after this returns.
    fn tenant(&self, name: &str) -> Option<Arc<Mutex<TenantState>>> {
        self.tenants
            .read()
            .expect("tenant map poisoned")
            .get(name)
            .cloned()
    }

    /// Look up a tenant, creating it if absent. Same lock discipline as
    /// [`ServeCore::tenant`]: the map write guard is released before the
    /// returned tenant mutex is ever locked.
    fn tenant_or_create(&self, name: &str) -> Arc<Mutex<TenantState>> {
        if let Some(t) = self.tenant(name) {
            return t;
        }
        let mut map = self.tenants.write().expect("tenant map poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| {
                let ingest = Ingest::new(self.discoverer.new_state());
                let fresh =
                    TenantState::new(ingest, SignatureCache::default(), 0, SchemaGraph::default());
                Arc::new(Mutex::new(fresh))
            })
            .clone()
    }

    /// Route one request. Returns the response plus an optional drift
    /// notice the transport layer fires **after** writing the response —
    /// and, crucially, after every tenant lock has been released.
    pub fn dispatch(&self, req: &Request) -> (Response, Option<DriftNotice>) {
        if req.path == "/healthz" {
            if req.method != "GET" {
                return (method_not_allowed("GET"), None);
            }
            return (self.healthz(), None);
        }
        let Some(rest) = req.path.strip_prefix("/v1/") else {
            return (
                Response::error(404, "unknown-route", &format!("no route for {}", req.path)),
                None,
            );
        };
        let Some((tenant, verb)) = rest.split_once('/') else {
            return (
                Response::error(404, "unknown-route", &format!("no route for {}", req.path)),
                None,
            );
        };
        if !valid_tenant(tenant) {
            return (
                Response::error(
                    400,
                    "invalid-tenant",
                    "tenant names are 1-64 ASCII alphanumerics, '-', '_' or non-leading '.'",
                ),
                None,
            );
        }
        match verb {
            "ingest" => {
                if req.method != "POST" {
                    return (method_not_allowed("POST"), None);
                }
                self.ingest(tenant, req)
            }
            "schema" => {
                if req.method != "GET" {
                    return (method_not_allowed("GET"), None);
                }
                (self.schema(tenant, req), None)
            }
            "stats" => {
                if req.method != "GET" {
                    return (method_not_allowed("GET"), None);
                }
                (self.stats(tenant), None)
            }
            "diff" => {
                if req.method != "GET" {
                    return (method_not_allowed("GET"), None);
                }
                (self.diff(tenant, req), None)
            }
            "checkpoint" => {
                if req.method != "POST" {
                    return (method_not_allowed("POST"), None);
                }
                (self.checkpoint(tenant), None)
            }
            other => (
                Response::error(
                    404,
                    "unknown-route",
                    &format!("unknown verb '{other}' (want ingest/schema/stats/diff/checkpoint)"),
                ),
                None,
            ),
        }
    }

    /// Fire the drift hook for a notice, if one is installed.
    pub fn fire_drift(&self, notice: &DriftNotice) {
        if let Some(hook) = &self.drift_hook {
            hook(notice);
        }
    }

    fn healthz(&self) -> Response {
        let names = self.tenant_names();
        let list = names
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect::<Vec<_>>()
            .join(",");
        Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"tenants\":[{list}],\"uptime_ms\":{}}}",
                self.started.elapsed().as_millis()
            ),
        )
    }

    fn ingest(&self, tenant: &str, req: &Request) -> (Response, Option<DriftNotice>) {
        let format = match req.param("format") {
            None => BodyFormat::Pgt,
            Some(f) => match BodyFormat::parse(f) {
                Some(f) => f,
                None => {
                    return (
                        Response::error(
                            400,
                            "bad-query",
                            &format!("unknown format '{f}' (want pgt, jsonl, csv or csv-edges)"),
                        ),
                        None,
                    )
                }
            },
        };
        let handle = self.tenant_or_create(tenant);
        let mut guard = handle.lock().expect("tenant state poisoned");
        let t = &mut *guard;
        // The body is one unit with a *fresh* registry, exactly like one
        // file in the offline directory-tree path: its contribution
        // (including its per-chunk cardinality observations) depends only
        // on the body and the chunk size, never on what other clients
        // ingested first. It is read in place, inline (threads = 1): the
        // tenant mutex is the only coarse lock held and the signature
        // cache's internal mutex is a leaf below it.
        let body = req.body.as_slice();
        let source: Box<dyn RawGraphSource + '_> = match format {
            BodyFormat::Pgt => Box::new(PgtSource::new(body)),
            BodyFormat::Jsonl => Box::new(JsonlSource::new(body)),
            BodyFormat::CsvNodes => Box::new(CsvSource::new(body, None)),
            BodyFormat::CsvEdges => Box::new(CsvSource::new(&[][..], Some(body))),
        };
        let mut unit = Ingest::new(self.discoverer.new_state());
        let read = self.discoverer.absorb_unit(
            &mut unit,
            UnitSource::Inline(source),
            self.opts.chunk_size,
            1,
            Some(&t.cache),
            &mut |_| {},
        );
        if let Err(e) = read {
            // Nothing was committed: ingest is all-or-nothing.
            return (
                Response::error(400, "bad-body", &format!("parse error: {e}")),
                None,
            );
        }
        // Commit. Cross-batch edges (endpoint declared by some other
        // request, past or future) always travel the carried-pending path
        // and resolve on stub pairs of their own — a fixed per-edge
        // observation, so resolution *timing* can never change the schema
        // bytes.
        let before = t.ingest.elements;
        t.ingest.merge(unit);
        let resolved = t.ingest.resolve(&self.discoverer);
        t.pass += 1;
        let absorbed = t.ingest.elements - before;
        let schema = t.ingest.state.finalize();
        let diff = diff_schemas(t.current(), &schema);
        let pass = t.pass;
        let body = format!(
            "{{\"tenant\":\"{}\",\"pass\":{pass},\"elements_absorbed\":{absorbed},\
             \"elements_resolved\":{resolved},\"elements_total\":{},\"pending_edges\":{},\
             \"node_types\":{},\"edge_types\":{},\"drift\":{},\"monotone\":{}}}",
            json_escape(tenant),
            t.ingest.elements,
            t.ingest.pending.len(),
            schema.node_types.len(),
            schema.edge_types.len(),
            !diff.is_empty(),
            diff.is_monotone()
        );
        let notice = if diff.is_empty() {
            None
        } else {
            Some(DriftNotice {
                tenant: tenant.to_string(),
                pass,
                elements_added: absorbed,
                diff: diff.clone(),
            })
        };
        let cap = self.opts.history;
        t.push_history(pass, schema, cap);
        (Response::json(200, body), notice)
    }

    fn schema(&self, tenant: &str, req: &Request) -> Response {
        let Some(handle) = self.tenant(tenant) else {
            return unknown_tenant(tenant);
        };
        let format = req.param("format").unwrap_or("strict");
        if format != "strict" && format != "json" {
            return Response::error(
                400,
                "bad-query",
                &format!("unknown format '{format}' (want strict or json)"),
            );
        }
        let t = handle.lock().expect("tenant state poisoned");
        let schema = t.current();
        let strict = pg_schema_strict(schema, "Discovered");
        if format == "json" {
            Response::json(
                200,
                format!(
                    "{{\"tenant\":\"{}\",\"pass\":{},\"node_types\":{},\"edge_types\":{},\
                     \"schema\":\"{}\"}}",
                    json_escape(tenant),
                    t.pass,
                    schema.node_types.len(),
                    schema.edge_types.len(),
                    json_escape(&strict)
                ),
            )
        } else {
            Response::text(200, strict)
        }
    }

    fn stats(&self, tenant: &str) -> Response {
        let Some(handle) = self.tenant(tenant) else {
            return unknown_tenant(tenant);
        };
        let t = handle.lock().expect("tenant state poisoned");
        let schema = t.current();
        let cache = t.cache.stats();
        let w = &t.ingest.warnings;
        Response::json(
            200,
            format!(
                "{{\"tenant\":\"{}\",\"pass\":{},\"elements_ingested\":{},\"pooled_types\":{},\
                 \"node_types\":{},\"edge_types\":{},\"pending_edges\":{},\"history\":{},\
                 \"cache\":{{\"entries\":{},\"hits\":{},\"misses\":{}}},\
                 \"warnings\":{{\"cross_chunk_edges\":{},\"unresolved_edges\":{},\
                 \"deferred_edges\":{},\"evicted_edges\":{},\"duplicate_nodes\":{}}}}}",
                json_escape(tenant),
                t.pass,
                t.ingest.elements,
                t.ingest.state.pooled_types(),
                schema.node_types.len(),
                schema.edge_types.len(),
                t.ingest.pending.len(),
                t.history.len(),
                t.cache.len(),
                cache.hits,
                cache.misses,
                w.cross_chunk_edges,
                w.unresolved_edges,
                w.deferred_edges,
                w.evicted_edges,
                w.duplicate_nodes
            ),
        )
    }

    fn diff(&self, tenant: &str, req: &Request) -> Response {
        let Some(handle) = self.tenant(tenant) else {
            return unknown_tenant(tenant);
        };
        let since: u64 = match req.param("since") {
            None => 0,
            Some(v) => match v.parse() {
                Ok(n) => n,
                Err(_) => {
                    return Response::error(
                        400,
                        "bad-query",
                        &format!("since must be a pass number, got '{v}'"),
                    )
                }
            },
        };
        let t = handle.lock().expect("tenant state poisoned");
        if since > t.pass {
            return Response::error(
                400,
                "bad-query",
                &format!("since={since} is ahead of the current pass {}", t.pass),
            );
        }
        let Some((_, old)) = t.history.iter().find(|(p, _)| *p == since) else {
            return Response::error(
                404,
                "unknown-pass",
                &format!(
                    "pass {since} is no longer in the history window (oldest retained: {})",
                    t.history.front().map(|(p, _)| *p).unwrap_or(0)
                ),
            );
        };
        let diff = diff_schemas(old, t.current());
        Response::json(
            200,
            format!(
                "{{\"tenant\":\"{}\",\"since\":{since},\"pass\":{},\"drift\":{},\
                 \"monotone\":{},\"diff\":{}}}",
                json_escape(tenant),
                t.pass,
                !diff.is_empty(),
                diff.is_monotone(),
                diff_json(&diff)
            ),
        )
    }

    fn checkpoint(&self, tenant: &str) -> Response {
        let Some(dir) = self.opts.state_dir.clone() else {
            return Response::error(
                400,
                "no-state-dir",
                "the server was started without --state-dir; checkpointing is disabled",
            );
        };
        let Some(handle) = self.tenant(tenant) else {
            return unknown_tenant(tenant);
        };
        if let Err(e) = fs::create_dir_all(&dir) {
            return Response::error(
                500,
                "checkpoint-failed",
                &format!("cannot create {}: {e}", dir.display()),
            );
        }
        let t = handle.lock().expect("tenant state poisoned");
        let watch = WatchCheckpoint {
            input: tenant.to_string(),
            format: "serve".to_string(),
            pass: t.pass,
            warnings: t.ingest.warnings,
            files: Vec::new(),
        };
        let snap = context_snapshot_cached(
            &self.snapshot_config,
            &t.ingest.state,
            &t.ingest.registry,
            Some(&watch),
            &t.ingest.pending,
            Some(&t.cache),
        );
        // Chains are keyed by the full tenant name, so two tenants' chains
        // can never cross-contaminate.
        let path = dir.join(format!("{tenant}.snapshot"));
        let rotated = match self
            .opts
            .keep
            .map(|keep| Snapshot::rotate(&path, keep, true))
        {
            None => 0,
            Some(Ok(n)) => n,
            Some(Err(e)) => return Response::error(500, "checkpoint-failed", &e.to_string()),
        };
        match snap.write_atomic(&path) {
            Ok(()) => Response::json(
                200,
                format!(
                    "{{\"tenant\":\"{}\",\"pass\":{},\"path\":\"{}\",\"rotated\":{rotated}}}",
                    json_escape(tenant),
                    t.pass,
                    json_escape(&path.display().to_string())
                ),
            ),
            Err(e) => Response::error(500, "checkpoint-failed", &e.to_string()),
        }
    }
}

fn unknown_tenant(tenant: &str) -> Response {
    Response::error(
        404,
        "unknown-tenant",
        &format!("no tenant '{tenant}' — POST /v1/{tenant}/ingest creates it"),
    )
}

fn method_not_allowed(allow: &str) -> Response {
    Response::error(
        405,
        "method-not-allowed",
        &format!("this route accepts {allow} only"),
    )
}

/// Scan `dir` for `<tenant>.snapshot` files and rebuild each tenant's
/// state. Rotated chain links (`.snapshot.N`) and files whose stem is not
/// a valid tenant name are skipped.
fn resume_tenants(
    dir: &Path,
    config: &SnapshotConfig,
) -> Result<Vec<(String, TenantState)>, String> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(fname) = name.to_str() else { continue };
        let Some(tenant) = fname.strip_suffix(".snapshot") else {
            continue;
        };
        if !valid_tenant(tenant) {
            continue;
        }
        let path = entry.path();
        let load = |e: &dyn std::fmt::Display| format!("{e} (while resuming {})", path.display());
        let ctx = ResumeContext::load(&path).map_err(|e| load(&e))?;
        ctx.config.ensure_matches(config).map_err(|e| load(&e))?;
        let pass = ctx.watch.as_ref().map(|w| w.pass).unwrap_or(0);
        let mut ingest = ctx.ingest;
        ingest.warnings = ctx.watch.map(|w| w.warnings).unwrap_or_default();
        let schema = ingest.state.finalize();
        out.push((
            tenant.to_string(),
            TenantState::new(ingest, ctx.cache, pass, schema),
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// HTTP/1.1 protocol layer
// ---------------------------------------------------------------------------

enum LineErr {
    /// Clean EOF before any byte of the line.
    Eof,
    /// EOF mid-line.
    Truncated,
    /// Read timeout; `partial` is true when some bytes had arrived.
    Timeout {
        partial: bool,
    },
    TooLong,
    Io,
}

/// Read one CRLF- (or LF-) terminated line, never buffering more than
/// `max` bytes — the bound that keeps a hostile client from ballooning
/// memory with an unterminated request line.
fn read_line_bounded<R: BufRead>(r: &mut R, max: usize) -> Result<Vec<u8>, LineErr> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(LineErr::Timeout {
                    partial: !line.is_empty(),
                })
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(LineErr::Io),
        };
        if buf.is_empty() {
            return Err(if line.is_empty() {
                LineErr::Eof
            } else {
                LineErr::Truncated
            });
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            r.consume(pos + 1);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if line.len() > max {
                return Err(LineErr::TooLong);
            }
            return Ok(line);
        }
        let taken = buf.len();
        line.extend_from_slice(buf);
        r.consume(taken);
        if line.len() > max {
            return Err(LineErr::TooLong);
        }
    }
}

enum ReadOutcome {
    /// A complete, well-framed request.
    Ok(Request),
    /// Protocol violation: answer with this response, then close.
    Bad(Response),
    /// Clean EOF or idle keep-alive timeout: close silently.
    Hangup,
}

fn read_request<R: BufRead>(r: &mut R, max_body: usize) -> ReadOutcome {
    let line = match read_line_bounded(r, MAX_REQUEST_LINE) {
        Ok(l) => l,
        Err(LineErr::Eof) | Err(LineErr::Io) => return ReadOutcome::Hangup,
        Err(LineErr::Timeout { partial: false }) => return ReadOutcome::Hangup,
        Err(LineErr::Timeout { partial: true }) => {
            return ReadOutcome::Bad(
                Response::error(408, "timeout", "request arrived too slowly").closing(),
            )
        }
        Err(LineErr::Truncated) => {
            return ReadOutcome::Bad(
                Response::error(400, "bad-request-line", "connection closed mid-request").closing(),
            )
        }
        Err(LineErr::TooLong) => {
            return ReadOutcome::Bad(
                Response::error(
                    414,
                    "request-line-too-long",
                    &format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                )
                .closing(),
            )
        }
    };
    // RFC 9112 §2.2: an element holding a bare CR is invalid. Read as a
    // character, it could hide a header such as `Content-Length`.
    if line.contains(&b'\r') {
        return ReadOutcome::Bad(
            Response::error(400, "bad-request-line", "bare CR in the request line").closing(),
        );
    }
    let Ok(line) = String::from_utf8(line) else {
        return ReadOutcome::Bad(
            Response::error(400, "bad-request-line", "request line is not UTF-8").closing(),
        );
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return ReadOutcome::Bad(
                Response::error(
                    400,
                    "bad-request-line",
                    "expected 'METHOD SP TARGET SP HTTP/1.1'",
                )
                .closing(),
            )
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return ReadOutcome::Bad(
            Response::error(
                505,
                "unsupported-version",
                &format!("'{version}' is not HTTP/1.0 or HTTP/1.1"),
            )
            .closing(),
        );
    }
    if !target.starts_with('/') {
        return ReadOutcome::Bad(
            Response::error(400, "bad-request-line", "target must be an absolute path").closing(),
        );
    }

    let mut content_length: Option<u64> = None;
    let mut connection_close = version == "HTTP/1.0";
    let mut chunked = false;
    let mut header_count = 0usize;
    let mut header_bytes = 0usize;
    loop {
        let hline = match read_line_bounded(r, MAX_HEADER_LINE) {
            Ok(l) => l,
            Err(LineErr::TooLong) => {
                return ReadOutcome::Bad(
                    Response::error(
                        431,
                        "headers-too-large",
                        &format!("a header line exceeds {MAX_HEADER_LINE} bytes"),
                    )
                    .closing(),
                )
            }
            Err(LineErr::Timeout { .. }) => {
                return ReadOutcome::Bad(
                    Response::error(408, "timeout", "headers arrived too slowly").closing(),
                )
            }
            _ => return ReadOutcome::Hangup,
        };
        if hline.is_empty() {
            break;
        }
        if hline.contains(&b'\r') {
            return ReadOutcome::Bad(
                Response::error(400, "bad-header", "bare CR in a header line").closing(),
            );
        }
        header_count += 1;
        header_bytes += hline.len();
        if header_count > MAX_HEADERS || header_bytes > MAX_HEADER_BYTES {
            return ReadOutcome::Bad(
                Response::error(
                    431,
                    "headers-too-large",
                    &format!("more than {MAX_HEADERS} headers or {MAX_HEADER_BYTES} header bytes"),
                )
                .closing(),
            );
        }
        let Ok(hline) = String::from_utf8(hline) else {
            return ReadOutcome::Bad(
                Response::error(400, "bad-header", "header line is not UTF-8").closing(),
            );
        };
        let Some((name, value)) = hline.split_once(':') else {
            return ReadOutcome::Bad(
                Response::error(400, "bad-header", &format!("header without ':': '{hline}'"))
                    .closing(),
            );
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                // RFC 7230 §3.3.2: `1*DIGIT`, and differing duplicates
                // must be refused (`parse` alone would accept "+3").
                let n = Some(value)
                    .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                    .and_then(|v| v.parse::<u64>().ok());
                let detail = match (n, content_length) {
                    (None, _) => format!("'{value}' is not a byte count"),
                    (Some(n), Some(prev)) if n != prev => {
                        format!("conflicting Content-Length values {prev} and {n}")
                    }
                    (Some(n), _) => {
                        content_length = Some(n);
                        continue;
                    }
                };
                return ReadOutcome::Bad(
                    Response::error(400, "bad-content-length", &detail).closing(),
                );
            }
            "transfer-encoding" => chunked = true,
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    connection_close = true;
                } else if v.contains("keep-alive") {
                    connection_close = false;
                }
            }
            _ => {}
        }
    }
    if chunked {
        return ReadOutcome::Bad(
            Response::error(
                501,
                "chunked-not-supported",
                "send a Content-Length body instead of Transfer-Encoding",
            )
            .closing(),
        );
    }
    // RFC 7230 §3.3.3: a request with neither Content-Length nor
    // Transfer-Encoding has an empty body — `curl -X POST url` sends
    // exactly that for body-less verbs like checkpoint.
    let length = content_length.unwrap_or(0);
    if length > max_body as u64 {
        return ReadOutcome::Bad(
            Response::error(
                413,
                "body-too-large",
                &format!("body of {length} bytes exceeds the {max_body}-byte limit"),
            )
            .closing(),
        );
    }
    let mut body = vec![0u8; length as usize];
    if length > 0 {
        let mut read = 0usize;
        while read < body.len() {
            match r.read(&mut body[read..]) {
                Ok(0) => {
                    return ReadOutcome::Bad(
                        Response::error(400, "bad-body", "connection closed mid-body").closing(),
                    )
                }
                Ok(n) => read += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return ReadOutcome::Bad(
                        Response::error(408, "timeout", "body arrived too slowly").closing(),
                    )
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Hangup,
            }
        }
    }
    let mut req = Request::new(method, target, body);
    req.close = connection_close;
    ReadOutcome::Ok(req)
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Send `resp` as one `write_all`: head and body go out together, not as a
/// dozen small writes on a `TCP_NODELAY` socket.
fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    let mut out = Vec::with_capacity(resp.body.len() + 128);
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        resp.status,
        reason_phrase(resp.status),
        resp.content_type,
        resp.body.len(),
        if resp.close { "close" } else { "keep-alive" }
    )?;
    out.extend_from_slice(&resp.body);
    w.write_all(&out)?;
    w.flush()
}

fn handle_connection(core: &ServeCore, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(core.opts.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let (resp, notice, keep) = match read_request(&mut reader, core.opts.max_body) {
            ReadOutcome::Ok(req) => {
                let client_keep = !req.close;
                let (resp, notice) = core.dispatch(&req);
                let keep = client_keep && !resp.close;
                (resp, notice, keep)
            }
            ReadOutcome::Bad(resp) => (resp, None, false),
            ReadOutcome::Hangup => return,
        };
        if write_response(&mut writer, &resp).is_err() {
            return;
        }
        if let Some(notice) = notice {
            core.fire_drift(&notice);
        }
        if !keep {
            return;
        }
    }
}

/// A running server: the accept loop plus its worker pool.
///
/// Dropped without [`RunningServer::shutdown`], the background threads are
/// detached and die with the process — call `shutdown` for a clean join
/// (tests do, so worker panics surface).
pub struct RunningServer {
    addr: SocketAddr,
    core: Arc<ServeCore>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl RunningServer {
    /// The bound socket address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server core.
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }

    /// Stop accepting, drain the worker pool and join every thread.
    /// In-flight requests finish; queued-but-unserved connections are
    /// dropped.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:7171`; port 0 picks an ephemeral port) and
/// serve `core` until [`RunningServer::shutdown`].
pub fn bind(addr: &str, core: Arc<ServeCore>) -> Result<RunningServer, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let workers = core.opts.workers.max(1);
    let accept = {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("pg-hive-accept".into())
            .spawn(move || accept_loop(listener, core, stop, workers))
            .map_err(|e| format!("cannot spawn accept thread: {e}"))?
    };
    Ok(RunningServer {
        addr: local,
        core,
        stop,
        accept: Some(accept),
    })
}

fn accept_loop(listener: TcpListener, core: Arc<ServeCore>, stop: Arc<AtomicBool>, workers: usize) {
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let pool: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let rx = Arc::clone(&rx);
            let core = Arc::clone(&core);
            thread::Builder::new()
                .name(format!("pg-hive-worker-{i}"))
                .spawn(move || loop {
                    let conn = rx.lock().expect("worker queue poisoned").recv();
                    match conn {
                        Ok(stream) => handle_connection(&core, stream),
                        Err(_) => return,
                    }
                })
                .expect("cannot spawn worker thread")
        })
        .collect();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(stream) = conn {
            let _ = tx.send(stream);
        }
    }
    drop(tx);
    for handle in pool {
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use pg_hive_graph::{ChunkedTextReader, LabelSetRegistry};
    use std::io::Cursor;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn test_core(opts: ServeOptions) -> ServeCore {
        ServeCore::new(Discoverer::new(PipelineConfig::elsh_adaptive()), opts).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pg-hive-serve-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    const BATCH_A: &str = "\
N 1 Person name=Ada,born=1815\n\
N 2 Person name=Grace,born=1906\n\
E 1 2 KNOWS since=1940\n";

    const BATCH_B: &str = "\
N 3 Org name=RoyalSociety,founded=1660\n\
E 1 3 MEMBER_OF from=1835\n";

    fn ingest(core: &ServeCore, tenant: &str, body: &str) -> Response {
        let req = Request::new("POST", &format!("/v1/{tenant}/ingest"), body.into());
        let (resp, notice) = core.dispatch(&req);
        if let Some(n) = notice {
            core.fire_drift(&n);
        }
        resp
    }

    fn schema_bytes(core: &ServeCore, tenant: &str) -> String {
        let req = Request::new("GET", &format!("/v1/{tenant}/schema"), Vec::new());
        let (resp, _) = core.dispatch(&req);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        String::from_utf8(resp.body).unwrap()
    }

    /// Serial oracle: replay the batches in the given order through the
    /// offline tree mechanics — fresh reader per batch, registry merge,
    /// stub resolution of carried edges — one batch at a time, no server.
    fn oracle(batches: &[&str]) -> String {
        let discoverer = Discoverer::new(PipelineConfig::elsh_adaptive());
        let cache = SignatureCache::default();
        let mut state = discoverer.new_state();
        let mut registry = LabelSetRegistry::default();
        let mut pending = Vec::new();
        for batch in batches {
            let source: Box<dyn RawGraphSource + Send> =
                Box::new(PgtSource::new(Cursor::new(batch.as_bytes().to_vec())));
            let mut reader = ChunkedTextReader::with_registry(
                source,
                DEFAULT_CHUNK_SIZE,
                LabelSetRegistry::default(),
            );
            reader.set_carry_unresolved(true);
            let mut chunks = Vec::new();
            while let Some(chunk) = reader.next_chunk().unwrap() {
                chunks.push(chunk);
            }
            discoverer.absorb_stream_cached(chunks, &mut state, 1, &cache);
            pending.extend(reader.take_pending());
            registry.merge(&reader.into_registry());
            let (left, _) = discoverer.resolve_pending(&mut state, &registry, pending);
            pending = left;
        }
        pg_schema_strict(&state.finalize(), "Discovered")
    }

    #[test]
    fn ingest_matches_serial_oracle() {
        let core = test_core(ServeOptions::default());
        assert_eq!(ingest(&core, "t1", BATCH_A).status, 200);
        assert_eq!(ingest(&core, "t1", BATCH_B).status, 200);
        assert_eq!(schema_bytes(&core, "t1"), oracle(&[BATCH_A, BATCH_B]));
    }

    #[test]
    fn ingest_order_is_irrelevant() {
        let ab = test_core(ServeOptions::default());
        ingest(&ab, "t", BATCH_A);
        ingest(&ab, "t", BATCH_B);
        let ba = test_core(ServeOptions::default());
        ingest(&ba, "t", BATCH_B);
        ingest(&ba, "t", BATCH_A);
        assert_eq!(schema_bytes(&ab, "t"), schema_bytes(&ba, "t"));
    }

    #[test]
    fn cross_request_edges_resolve_later() {
        // The edge's endpoint 3 is only declared by the second request.
        let core = test_core(ServeOptions::default());
        let first = "N 1 Person name=Ada\nE 1 3 MEMBER_OF from=1835\n";
        let second = "N 3 Org name=RoyalSociety\n";
        assert_eq!(ingest(&core, "t", first).status, 200);
        let resp = ingest(&core, "t", second);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"elements_resolved\":1"), "{body}");
        assert_eq!(
            schema_bytes(&core, "t"),
            oracle(&[
                "N 1 Person name=Ada\nN 3 Org name=RoyalSociety\nE 1 3 MEMBER_OF from=1835\n"
            ])
        );
    }

    #[test]
    fn bad_body_leaves_tenant_untouched() {
        let core = test_core(ServeOptions::default());
        ingest(&core, "t", BATCH_A);
        let before = schema_bytes(&core, "t");
        let resp = ingest(&core, "t", "N 9 Broken\nnot a record at all\n");
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"error\":\"bad-body\""), "{body}");
        assert_eq!(
            schema_bytes(&core, "t"),
            before,
            "failed ingest must be atomic"
        );

        // Again with one-element chunks and valid records first: the error
        // lands after chunks were already folded into the body's unit.
        let core = test_core(ServeOptions {
            chunk_size: 1,
            ..ServeOptions::default()
        });
        let counters = || {
            let (resp, _) = core.dispatch(&Request::new("GET", "/v1/t/stats", Vec::new()));
            let body = String::from_utf8(resp.body).unwrap();
            let field = |name: &str| {
                let start = body.find(&format!("\"{name}\":")).expect(name) + name.len() + 3;
                body[start..]
                    .split(|c: char| !c.is_ascii_digit())
                    .next()
                    .unwrap()
                    .parse::<u64>()
                    .unwrap()
            };
            (field("pass"), field("elements_ingested"))
        };
        ingest(&core, "t", BATCH_A);
        let before = (schema_bytes(&core, "t"), counters());
        let bad = format!("{BATCH_B}N 4 Person name=Ada\nN 5 Org name=X\nnot a record at all\n");
        let resp = ingest(&core, "t", &bad);
        assert_eq!(resp.status, 400);
        assert_eq!((schema_bytes(&core, "t"), counters()), before);
        assert_eq!(before.1 .0, 1, "one committed pass");
    }

    #[test]
    fn failed_rotation_is_a_named_error_and_keeps_the_checkpoint() {
        let dir = temp_dir("rotate-fail");
        let core = test_core(ServeOptions {
            state_dir: Some(dir.clone()),
            keep: Some(1),
            ..ServeOptions::default()
        });
        let checkpoint = || {
            let (resp, _) = core.dispatch(&Request::new("POST", "/v1/t/checkpoint", Vec::new()));
            (resp.status, String::from_utf8(resp.body).unwrap())
        };
        ingest(&core, "t", BATCH_A);
        assert_eq!(checkpoint().0, 200);
        let current = dir.join("t.snapshot");
        let saved = fs::read(&current).unwrap();
        // The rotation slot cannot be replaced: neither unlinked nor
        // renamed onto.
        fs::create_dir(dir.join("t.snapshot.1")).unwrap();
        ingest(&core, "t", BATCH_B);
        let (status, body) = checkpoint();
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("\"error\":\"checkpoint-failed\""), "{body}");
        assert_eq!(fs::read(&current).unwrap(), saved, "not overwritten");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenants_are_isolated() {
        let core = test_core(ServeOptions::default());
        ingest(&core, "a", BATCH_A);
        ingest(&core, "b", BATCH_B);
        assert_eq!(schema_bytes(&core, "a"), oracle(&[BATCH_A]));
        assert_eq!(schema_bytes(&core, "b"), oracle(&[BATCH_B]));
        assert_eq!(core.tenant_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn named_errors_cover_the_route_space() {
        let core = test_core(ServeOptions::default());
        let check = |method: &str, target: &str, status: u16, name: &str| {
            let (resp, _) = core.dispatch(&Request::new(method, target, Vec::new()));
            assert_eq!(resp.status, status, "{method} {target}");
            let body = String::from_utf8(resp.body).unwrap();
            assert!(
                body.contains(&format!("\"error\":\"{name}\"")),
                "{method} {target}: {body}"
            );
        };
        check("GET", "/nope", 404, "unknown-route");
        check("GET", "/v1/solo", 404, "unknown-route");
        check("GET", "/v1/t/frobnicate", 404, "unknown-route");
        check("GET", "/v1/ghost/schema", 404, "unknown-tenant");
        check("GET", "/v1/ghost/stats", 404, "unknown-tenant");
        check("GET", "/v1/ghost/diff", 404, "unknown-tenant");
        check("GET", "/v1/bad..%2f/schema", 400, "invalid-tenant");
        check("GET", "/v1/.hidden/schema", 400, "invalid-tenant");
        check("POST", "/v1/t/schema", 405, "method-not-allowed");
        check("GET", "/v1/t/ingest", 405, "method-not-allowed");
        check("POST", "/healthz", 405, "method-not-allowed");
        check("POST", "/v1/t/checkpoint", 400, "no-state-dir");
        let (resp, _) = core.dispatch(&Request::new("POST", "/v1/t/ingest?format=xml", Vec::new()));
        assert_eq!(resp.status, 400);
        ingest(&core, "t", BATCH_A);
        check("GET", "/v1/t/diff?since=99", 400, "bad-query");
        check("GET", "/v1/t/diff?since=nope", 400, "bad-query");
    }

    #[test]
    fn diff_since_tracks_history() {
        let core = test_core(ServeOptions::default());
        ingest(&core, "t", BATCH_A);
        ingest(&core, "t", BATCH_B);
        let (resp, _) = core.dispatch(&Request::new("GET", "/v1/t/diff?since=1", Vec::new()));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"drift\":true"), "{body}");
        assert!(body.contains("\"monotone\":true"), "{body}");
        // since == current pass: no drift.
        let (resp, _) = core.dispatch(&Request::new("GET", "/v1/t/diff?since=2", Vec::new()));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"drift\":false"), "{body}");
        // since=0 diffs against the empty schema.
        let (resp, _) = core.dispatch(&Request::new("GET", "/v1/t/diff", Vec::new()));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"since\":0"), "{body}");
        assert!(body.contains("\"drift\":true"), "{body}");
    }

    #[test]
    fn checkpoint_restart_resumes_warm() {
        let dir = temp_dir("warm");
        let opts = ServeOptions {
            state_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let core = test_core(opts.clone());
        ingest(&core, "t", BATCH_A);
        let (resp, _) = core.dispatch(&Request::new("POST", "/v1/t/checkpoint", Vec::new()));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let before = schema_bytes(&core, "t");
        drop(core);

        // "Restart": a fresh core over the same state dir.
        let core = test_core(opts);
        assert_eq!(core.tenant_names(), vec!["t".to_string()]);
        assert_eq!(schema_bytes(&core, "t"), before);
        // Pass numbering continues and the resumed baseline produces no
        // spurious drift on an identical re-ingest.
        let resp = ingest(&core, "t", BATCH_A);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"pass\":2"), "{body}");
        assert!(body.contains("\"drift\":false"), "{body}");
        // And the rest of the data still lands correctly post-restart.
        ingest(&core, "t", BATCH_B);
        assert_eq!(
            schema_bytes(&core, "t"),
            oracle(&[BATCH_A, BATCH_A, BATCH_B])
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_chains_stay_per_tenant() {
        let dir = temp_dir("rotate");
        let opts = ServeOptions {
            state_dir: Some(dir.clone()),
            keep: Some(2),
            ..ServeOptions::default()
        };
        let core = test_core(opts);
        for round in 0..3 {
            ingest(&core, "alpha", BATCH_A);
            ingest(&core, "beta", BATCH_B);
            for t in ["alpha", "beta"] {
                let (resp, _) = core.dispatch(&Request::new(
                    "POST",
                    &format!("/v1/{t}/checkpoint"),
                    Vec::new(),
                ));
                assert_eq!(resp.status, 200, "round {round}");
            }
        }
        for t in ["alpha", "beta"] {
            for name in [
                format!("{t}.snapshot"),
                format!("{t}.snapshot.1"),
                format!("{t}.snapshot.2"),
            ] {
                assert!(dir.join(&name).exists(), "missing {name}");
            }
            assert!(!dir.join(format!("{t}.snapshot.3")).exists());
        }
        // Every link of alpha's chain resumes to an alpha schema, never
        // beta's (no cross-contamination).
        for link in ["alpha.snapshot", "alpha.snapshot.1", "alpha.snapshot.2"] {
            let ctx = ResumeContext::load(&dir.join(link)).unwrap();
            assert_eq!(ctx.watch.as_ref().unwrap().input, "alpha", "{link}");
            let strict = pg_schema_strict(&ctx.ingest.state.finalize(), "Discovered");
            assert!(strict.contains("Person"), "{link}: {strict}");
            assert!(!strict.contains("RoyalSociety"), "{link}: {strict}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drift_hook_fires_outside_the_tenant_lock() {
        let mut core = test_core(ServeOptions::default());
        let seen: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        core.set_drift_hook(Box::new(move |n| {
            sink.lock().unwrap().push((n.tenant.clone(), n.pass));
        }));
        ingest(&core, "t", BATCH_A);
        ingest(&core, "t", BATCH_A); // identical → no drift
        ingest(&core, "t", BATCH_B);
        let events = seen.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![("t".to_string(), 1), ("t".to_string(), 3)],
            "drift fires only on schema change"
        );
    }

    /// Hand-rolled two-thread interleaving exerciser (loom is not
    /// vendored): thread A hammers the tenant map with fresh inserts
    /// (map write lock) while thread B ingests into one hot tenant
    /// (map read lock, then tenant mutex). Any violation of the
    /// documented lock order would deadlock here; the element count
    /// proves no ingest was lost or doubled.
    #[test]
    fn interleaved_map_insert_vs_ingest() {
        const ROUNDS: usize = 24;
        let core = Arc::new(test_core(ServeOptions::default()));
        let barrier = Arc::new(Barrier::new(2));

        let inserter = {
            let core = Arc::clone(&core);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    let resp = ingest(&core, &format!("fresh-{round}"), BATCH_B);
                    assert_eq!(resp.status, 200);
                }
            })
        };
        let ingester = {
            let core = Arc::clone(&core);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    let resp = ingest(&core, "hot", BATCH_A);
                    assert_eq!(resp.status, 200);
                }
            })
        };
        inserter.join().unwrap();
        ingester.join().unwrap();

        // ROUNDS fresh tenants + the hot one all exist.
        assert_eq!(core.tenant_names().len(), ROUNDS + 1);
        // The hot tenant absorbed exactly ROUNDS copies of BATCH_A
        // (3 elements each) — nothing lost, nothing doubled.
        let (resp, _) = core.dispatch(&Request::new("GET", "/v1/hot/stats", Vec::new()));
        let body = String::from_utf8(resp.body).unwrap();
        let want = format!("\"elements_ingested\":{}", ROUNDS * 3);
        assert!(body.contains(&want), "{body}");
        assert_eq!(schema_bytes(&core, "hot"), oracle(&[BATCH_A]));
    }

    #[test]
    fn a_response_leaves_in_one_write() {
        /// Counts `write` calls and keeps what they wrote.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let resp = Response::json(200, "{\"ok\":true}".to_string());
        let mut w = Counting::default();
        write_response(&mut w, &resp).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            String::from_utf8(w.bytes).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}"
        );
    }

    #[test]
    fn http_request_parser_rejects_malformed_input() {
        let parse = |raw: &str| {
            let mut cursor = Cursor::new(raw.as_bytes().to_vec());
            read_request(&mut cursor, DEFAULT_MAX_BODY)
        };
        let bad = |raw: &str, status: u16, name: &str| match parse(raw) {
            ReadOutcome::Bad(resp) => {
                assert_eq!(resp.status, status, "{raw:?}");
                assert!(resp.close, "{raw:?} must close the connection");
                let body = String::from_utf8(resp.body).unwrap();
                assert!(body.contains(name), "{raw:?}: {body}");
            }
            _ => panic!("{raw:?} should be rejected"),
        };
        bad("GARBAGE\r\n\r\n", 400, "bad-request-line");
        bad("GET /x HTTP/2.0\r\n\r\n", 505, "unsupported-version");
        bad("GET x HTTP/1.1\r\n\r\n", 400, "bad-request-line");
        bad(
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            400,
            "bad-header",
        );
        bad(
            "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            400,
            "bad-content-length",
        );
        bad(
            "POST /x HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
            400,
            "bad-content-length",
        );
        bad(
            "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
            400,
            "bad-content-length",
        );
        bad(
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            501,
            "chunked-not-supported",
        );
        bad(
            &format!(
                "GET /{} HTTP/1.1\r\n\r\n",
                "a".repeat(MAX_REQUEST_LINE + 10)
            ),
            414,
            "request-line-too-long",
        );
        bad(
            &format!(
                "GET /x HTTP/1.1\r\nx: {}\r\n\r\n",
                "v".repeat(MAX_HEADER_LINE + 10)
            ),
            431,
            "headers-too-large",
        );
        bad(
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab",
            400,
            "bad-body",
        );
        match parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n") {
            ReadOutcome::Ok(req) => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/healthz");
                assert!(!req.close);
            }
            _ => panic!("well-formed request should parse"),
        }
        match parse("POST /x HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc") {
            // Identical repeats are one length, not a conflict.
            ReadOutcome::Ok(req) => assert_eq!(req.body, b"abc"),
            _ => panic!("identical Content-Length repeats should parse"),
        }
        match parse("POST /v1/t/checkpoint HTTP/1.1\r\n\r\n") {
            ReadOutcome::Ok(req) => {
                // RFC 7230 §3.3.3: no Content-Length and no
                // Transfer-Encoding means an empty body — this is what
                // `curl -X POST` sends for body-less verbs.
                assert_eq!(req.method, "POST");
                assert!(req.body.is_empty());
            }
            _ => panic!("length-less POST should parse as an empty body"),
        }
        match parse("GET /x?a=1&b=2 HTTP/1.0\r\n\r\n") {
            ReadOutcome::Ok(req) => {
                assert_eq!(req.param("a"), Some("1"));
                assert_eq!(req.param("b"), Some("2"));
                assert!(req.close, "HTTP/1.0 defaults to close");
            }
            _ => panic!("query parse failed"),
        }
        match parse("") {
            ReadOutcome::Hangup => {}
            _ => panic!("clean EOF should hang up silently"),
        }
    }

    #[test]
    fn body_too_large_is_refused_without_reading() {
        let raw = format!(
            "POST /v1/t/ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            DEFAULT_MAX_BODY + 1
        );
        let mut cursor = Cursor::new(raw.into_bytes());
        match read_request(&mut cursor, DEFAULT_MAX_BODY) {
            ReadOutcome::Bad(resp) => {
                assert_eq!(resp.status, 413);
                assert!(String::from_utf8(resp.body)
                    .unwrap()
                    .contains("body-too-large"));
            }
            _ => panic!("oversized body should be refused"),
        }
    }

    #[test]
    fn tenant_name_validation() {
        assert!(valid_tenant("prod"));
        assert!(valid_tenant("team-a_v2.schema"));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant(".hidden"));
        assert!(!valid_tenant("a/b"));
        assert!(!valid_tenant("a b"));
        assert!(!valid_tenant(&"x".repeat(65)));
    }
}
