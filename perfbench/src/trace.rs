//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each public call into a
//! layer (never inside the library), nest through a stack, and carry the
//! index of the traced unit (a pass, or a serve round) they belong to, so
//! every span of one unit shares an identifier. A layer's self time is its
//! span's duration minus the part its child spans cover. With tracing off
//! the recorder runs the closure and records nothing, which is what the
//! `trace.overhead` baseline measures.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: a layer call within a traced unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub unit: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Name of the root span wrapping one traced unit; its self time is the
/// benchmark's own glue, not a layer.
pub const UNIT: &str = "unit";

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    unit: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<(u32, &'static str), f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            unit: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` as traced unit `unit`, wrapped in a [`UNIT`] root span.
    pub fn unit<T>(&mut self, unit: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.unit = unit;
        self.span(UNIT, f)
    }

    /// Run `f` inside a span named `name` (a layer name).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Add `v` to counter `name` of the current unit.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry((self.unit, name)).or_default() += v;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Counter `name` summed over every unit.
    pub fn counter_total(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Counter `name` per unit, for every unit that recorded a span.
    pub fn counter_per_unit(&self, name: &str) -> Vec<f64> {
        units(&self.spans)
            .into_iter()
            .map(|u| self.counters.get(&(u, name)).copied().unwrap_or(0.0))
            .collect()
    }

    /// The spans as JSON lines (`name`, `unit`, `parent`, `start_ns`,
    /// `end_ns`), for writing out once the run is over.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"unit\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.unit, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The traced run: every unit runs the same decomposition twice, once
/// recording spans and once with an untraced twin, alternating which goes
/// first, so `trace.overhead` compares like with like.
pub struct TracedRun {
    pub tr: Tracer,
    quiet: Tracer,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
}

impl TracedRun {
    pub fn new() -> Self {
        TracedRun {
            tr: Tracer::new(true),
            quiet: Tracer::new(false),
            traced_s: Vec::new(),
            untraced_s: Vec::new(),
        }
    }

    /// Run unit `unit` both ways; returns the traced run's result.
    pub fn unit<T>(
        &mut self,
        unit: u32,
        mut f: impl FnMut(&mut Tracer) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut traced = None;
        let even = unit.is_multiple_of(2);
        for with_spans in [even, !even] {
            let t = Instant::now();
            if with_spans {
                traced = Some(self.tr.unit(unit, &mut f)?);
                self.traced_s.push(t.elapsed().as_secs_f64());
            } else {
                self.quiet.unit(unit, &mut f)?;
                self.untraced_s.push(t.elapsed().as_secs_f64());
            }
        }
        Ok(traced.expect("one of the two runs records spans"))
    }

    /// Wall time per unit with spans and without.
    pub fn walls(&self) -> (&[f64], &[f64]) {
        (&self.traced_s, &self.untraced_s)
    }
}

fn units(spans: &[Span]) -> Vec<u32> {
    let mut u: Vec<u32> = spans.iter().map(|s| s.unit).collect();
    u.sort_unstable();
    u.dedup();
    u
}

/// Self time of every span, in nanoseconds: its duration minus the
/// durations of its direct children. Spans are recorded by one thread, so
/// siblings never overlap and children lie within their parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-layer self time in seconds, one entry per traced unit (0 where the
/// unit never entered the layer), keyed by layer name. The [`UNIT`] root is
/// excluded.
pub fn layer_self_secs(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let us = units(spans);
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        if s.name == UNIT {
            continue;
        }
        let pos = us.binary_search(&s.unit).expect("unit listed");
        out.entry(s.name).or_insert_with(|| vec![0.0; us.len()])[pos] += ns as f64 / 1e9;
    }
    out
}

/// Wall time of each traced unit (its [`UNIT`] root span), in seconds.
fn unit_secs(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == UNIT)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

/// Share of the traced wall time covered by layer spans: the summed layer
/// self times over the summed unit durations (1.0 = no untraced glue).
pub fn coverage(spans: &[Span]) -> f64 {
    let wall: f64 = unit_secs(spans).iter().sum();
    let layers: f64 = layer_self_secs(spans).values().flatten().sum();
    if wall > 0.0 {
        layers / wall
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, unit: u32, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            name,
            unit,
            parent,
            start_ns: s,
            end_ns: e,
        }
    }

    /// unit 0: root [0,100) with a [10,40) ⊃ b [15,25), and c [50,90).
    /// unit 1: root [100,160) with a [110,150).
    fn sample() -> Vec<Span> {
        vec![
            span(UNIT, 0, None, 0, 100),
            span("a", 0, Some(0), 10, 40),
            span("b", 0, Some(1), 15, 25),
            span("c", 0, Some(0), 50, 90),
            span(UNIT, 1, None, 100, 160),
            span("a", 1, Some(4), 110, 150),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times_ns(&sample()), vec![30, 20, 10, 40, 20, 40]);
    }

    #[test]
    fn layer_self_time_is_per_unit_with_zero_fill() {
        let layers = layer_self_secs(&sample());
        assert_eq!(layers["a"], vec![20e-9, 40e-9]);
        assert_eq!(layers["b"], vec![10e-9, 0.0]);
        assert_eq!(layers["c"], vec![40e-9, 0.0]);
        assert!(!layers.contains_key(UNIT));
        assert_eq!(unit_secs(&sample()), vec![100e-9, 60e-9]);
    }

    #[test]
    fn coverage_is_layer_self_time_over_unit_wall() {
        // Layers cover 70 + 40 of 160 ns of unit wall time.
        let c = coverage(&sample());
        assert!((c - 110.0 / 160.0).abs() < 1e-12, "{c}");
    }

    #[test]
    fn recorder_nests_spans_and_counts_per_unit() {
        let mut t = Tracer::new(true);
        t.unit(3, |t| {
            t.span("outer", |t| {
                t.span("inner", |_| ());
                t.count("n", 2.0);
            });
            t.count("n", 1.0);
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![(UNIT, None), ("outer", Some(0)), ("inner", Some(1))]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.unit == 3 && s.end_ns >= s.start_ns));
        assert_eq!(t.counter_total("n"), 3.0);
        assert_eq!(t.counter_per_unit("n"), vec![3.0]);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn traced_run_times_both_twins_and_records_one() {
        let mut run = TracedRun::new();
        let mut calls = 0;
        for unit in 0..2 {
            let v = run
                .unit(unit, |t| {
                    calls += 1;
                    Ok::<_, String>(t.span("x", |_| unit))
                })
                .unwrap();
            assert_eq!(v, unit);
        }
        assert_eq!(calls, 4);
        let (traced, untraced) = run.walls();
        assert_eq!((traced.len(), untraced.len()), (2, 2));
        // Only the traced twin recorded: a unit root and one span per unit.
        assert_eq!(run.tr.spans().len(), 4);
    }

    #[test]
    fn disabled_recorder_runs_closures_and_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.unit(0, |t| t.span("x", |_| 7));
        t.count("n", 1.0);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter_total("n"), 0.0);
    }
}
