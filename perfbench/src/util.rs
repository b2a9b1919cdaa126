//! Small helpers shared by every workload: sample statistics with the
//! tail-percentile rule, the peak-RSS reader, a JSON object writer, a
//! content digest and a seeded generator for inputs.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported: fewer than this and the percentile is an extrapolation.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-th percentile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    // Samples beyond the percentile: every sample after its rank.
    (n - 1 - idx >= MIN_BEYOND).then_some(s[idx])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A `<field>:  <n> kB` line of a `/proc/<pid>/status` text, in MiB.
pub fn parse_status_mb(status: &str, field: &str) -> Option<f64> {
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let mut fields = line[field.len() + 1..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// This process's resident set now, in MiB.
pub fn rss_mb() -> Option<f64> {
    parse_status_mb(&std::fs::read_to_string("/proc/self/status").ok()?, "VmRSS")
}

/// Peak resident set over a window: a sampling thread reads `VmRSS` every
/// millisecond and keeps the maximum since the last [`RssPeak::take`].
///
/// The workloads report the peak of their first unit — one pass, as one
/// `pg-hive` invocation runs it, or a fresh server's first round. Later
/// units run in a process whose allocator still holds the arenas earlier
/// units grew, so the process-lifetime `VmHWM` drifts with the run's
/// length and thread timing; the first unit's peak does not.
pub struct RssPeak {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    sampler: Option<JoinHandle<()>>,
}

impl RssPeak {
    pub fn start() -> Result<RssPeak, String> {
        rss_mb().ok_or("no VmRSS in /proc/self/status")?;
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(0));
        let sampler = {
            let (stop, peak_kb) = (Arc::clone(&stop), Arc::clone(&peak_kb));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(mb) = rss_mb() {
                        peak_kb.fetch_max((mb * 1024.0) as u64, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let p = RssPeak {
            stop,
            peak_kb,
            sampler: Some(sampler),
        };
        p.take();
        Ok(p)
    }

    /// Peak since the previous call (or the start), in MiB; restarts the
    /// window at the current resident set.
    pub fn take(&self) -> f64 {
        let now = rss_mb().map_or(0, |mb| (mb * 1024.0) as u64);
        let peak = self.peak_kb.swap(now, Ordering::Relaxed).max(now);
        peak as f64 / 1024.0
    }
}

impl Drop for RssPeak {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
    }
}

/// Worker and client count: the product default `threads = nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 64-bit FNV-1a over a byte stream: the digest the three set-ups of a run
/// compare to prove the inputs are a function of the seed alone.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: the seeded generator every input is drawn from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64) < p
    }
}

/// A flat JSON object written field by field (the benchmark has no serde).
#[derive(Default)]
pub struct JsonObj {
    body: String,
}

impl JsonObj {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":", escape(k));
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.body, "{v}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(self.body, "\"{}\"", escape(v));
        self
    }

    /// Embed already-rendered JSON.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.body.push_str(json);
        self
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly ten lie beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        // One sample fewer leaves only nine beyond: not reported.
        assert_eq!(tail_percentile(&xs[..999], 99.0), None);
        // p90 of 100 samples: rank 90, ten beyond.
        let ys: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&ys, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&ys, 91.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_percentile(&xs, 95.0), Some(190.0));
    }

    #[test]
    fn status_fields_are_read_in_mib() {
        let status = "Name:\tperfbench\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\nRssAnon:\t 512 kB\n";
        assert_eq!(parse_status_mb(status, "VmRSS"), Some(1.0));
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(200.0));
        assert_eq!(parse_status_mb(status, "Vm"), None);
        assert_eq!(parse_status_mb("VmRSS:\t 12 MB\n", "VmRSS"), None);
        assert_eq!(parse_status_mb("VmHWM:\t 1 kB\n", "VmRSS"), None);
    }

    #[test]
    fn peak_sampler_sees_a_transient_allocation() {
        let p = RssPeak::start().expect("/proc/self/status has VmRSS");
        let before = p.take();
        // Touch 64 MiB, hold it past a few sampling periods, free it.
        let block = vec![1u8; 64 << 20];
        std::thread::sleep(Duration::from_millis(30));
        drop(std::hint::black_box(block));
        let peak = p.take();
        assert!(
            peak >= before + 48.0,
            "peak {peak} MiB, before {before} MiB"
        );
        // The window restarted: the freed block is no longer in the peak.
        std::thread::sleep(Duration::from_millis(10));
        assert!(p.take() < peak - 32.0);
    }

    #[test]
    fn json_object_renders_numbers_with_all_digits() {
        let mut o = JsonObj::default();
        o.num("x", 0.1234567891234).int("n", 3).str("s", "a\"b");
        o.num("bad", f64::NAN);
        assert_eq!(
            o.render(),
            "{\"x\":0.1234567891234,\"n\":3,\"s\":\"a\\\"b\",\"bad\":null}"
        );
    }

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        let b: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
