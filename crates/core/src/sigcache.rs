//! Cross-chunk / cross-pass signature cache (the "incremental steady
//! state" memoization layer).
//!
//! On chunks with many distinct signatures, embedding + LSH are a large
//! share of streaming discovery's per-chunk time, yet steady-state
//! workloads (a `watch` loop re-reading a slowly-growing file, a log whose
//! chunks repeat the same element shapes) keep handing the pipeline
//! *structurally identical* chunks. [`SignatureCache`] memoizes the
//! expensive stages at chunk granularity:
//!
//! - the key is the 128-bit structural fingerprint from
//!   [`crate::preprocess::signature_scan`] — a string-level hash of
//!   everything that determines the chunk's clusterings (key universe,
//!   per-element label/key streams);
//! - the value is the pair of **distinct-level** clusterings (nodes,
//!   edges) the dedup pipeline produced for that fingerprint — dozens of
//!   entries, not per-element vectors, so the cache stays small and cheap
//!   to persist.
//!
//! On a hit the caller re-runs only the cheap signature scan (dedup +
//! `rep_of`), broadcasts the cached distinct clustering, and skips
//! embedding, matrix construction and LSH entirely. Soundness is argued at
//! [`crate::preprocess::signature_scan`]; as a belt-and-braces guard
//! against fingerprint collisions, a hit is only honoured when the cached
//! assignment lengths equal the scan's distinct counts — any mismatch is
//! treated as a miss.
//!
//! The cache is `Sync` (a mutex around a FIFO-bounded map) so the
//! parallel streaming workers share one instance, and it serializes to a
//! snapshot section (see `docs/PERSISTENCE.md`) so `watch` resumes warm.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use pg_hive_lsh::Clustering;

/// Default maximum number of cached chunk fingerprints.
pub const DEFAULT_CACHE_CAP: usize = 4096;

/// The cached result for one chunk fingerprint: both element classes'
/// distinct-level clusterings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedChunk {
    /// Distinct-level node clustering.
    pub nodes: Clustering,
    /// Distinct-level edge clustering.
    pub edges: Clustering,
}

/// Hit/miss counters observed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached clustering.
    pub hits: u64,
    /// Lookups that fell through to the full pipeline.
    pub misses: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u128, CachedChunk>,
    order: VecDeque<u128>,
    stats: CacheStats,
}

/// Shared, bounded memoization of chunk-fingerprint → distinct-level
/// clusterings. See the module docs for the design and soundness story.
#[derive(Debug)]
pub struct SignatureCache {
    inner: Mutex<Inner>,
    cap: usize,
}

impl Default for SignatureCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAP)
    }
}

impl SignatureCache {
    /// Create an empty cache holding at most `cap` fingerprints (FIFO
    /// eviction). A zero cap disables storage but still counts lookups.
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up `fingerprint`, honouring the hit only when the cached
    /// assignment lengths match the scan's distinct counts (collision
    /// guard). Updates the hit/miss counters.
    pub fn lookup(
        &self,
        fingerprint: u128,
        node_distinct: usize,
        edge_distinct: usize,
    ) -> Option<CachedChunk> {
        let mut inner = self.lock();
        let hit = inner.map.get(&fingerprint).filter(|c| {
            c.nodes.assignment.len() == node_distinct && c.edges.assignment.len() == edge_distinct
        });
        match hit {
            Some(c) => {
                let c = c.clone();
                inner.stats.hits += 1;
                Some(c)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Store the distinct-level clusterings for `fingerprint`, evicting
    /// the oldest entry when full.
    pub fn insert(&self, fingerprint: u128, chunk: CachedChunk) {
        if self.cap == 0 {
            return;
        }
        let mut inner = self.lock();
        if inner.map.insert(fingerprint, chunk).is_none() {
            inner.order.push_back(fingerprint);
            while inner.order.len() > self.cap {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                }
            }
        }
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Number of cached fingerprints.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no fingerprints are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize the cached entries (insertion order preserved, counters
    /// excluded) as snapshot-section lines:
    /// `<fingerprint-hex> <nodes-compact> <edges-compact>`.
    pub fn snapshot_lines(&self) -> Vec<String> {
        let inner = self.lock();
        inner
            .order
            .iter()
            .filter_map(|fp| {
                inner.map.get(fp).map(|c| {
                    format!(
                        "{:032x} {} {}",
                        fp,
                        c.nodes.encode_compact(),
                        c.edges.encode_compact()
                    )
                })
            })
            .collect()
    }

    /// Rebuild a cache from [`SignatureCache::snapshot_lines`] output.
    /// Counters start at zero; entries beyond `cap` are dropped FIFO.
    pub fn from_snapshot_lines(lines: &[String], cap: usize) -> Result<Self, String> {
        let cache = Self::new(cap);
        for line in lines {
            let mut parts = line.splitn(3, ' ');
            let (fp, nodes, edges) = match (parts.next(), parts.next(), parts.next()) {
                (Some(f), Some(n), Some(e)) => (f, n, e),
                _ => return Err(format!("malformed sigcache line '{line}'")),
            };
            let fingerprint = u128::from_str_radix(fp, 16)
                .map_err(|_| format!("bad sigcache fingerprint '{fp}'"))?;
            cache.insert(
                fingerprint,
                CachedChunk {
                    nodes: Clustering::decode_compact(nodes)?,
                    edges: Clustering::decode_compact(edges)?,
                },
            );
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(n: usize) -> CachedChunk {
        CachedChunk {
            nodes: Clustering {
                assignment: vec![0; n],
                num_clusters: usize::from(n > 0),
            },
            edges: Clustering {
                assignment: Vec::new(),
                num_clusters: 0,
            },
        }
    }

    #[test]
    fn lookup_counts_and_guards_distinct_mismatch() {
        let cache = SignatureCache::new(8);
        cache.insert(42, chunk(3));
        assert_eq!(cache.lookup(42, 3, 0), Some(chunk(3)));
        assert_eq!(cache.lookup(42, 2, 0), None, "distinct mismatch is a miss");
        assert_eq!(cache.lookup(7, 3, 0), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert!((stats.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fifo_eviction_respects_cap() {
        let cache = SignatureCache::new(2);
        for fp in 0..3u128 {
            cache.insert(fp, chunk(1));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(0, 1, 0).is_none(), "oldest entry evicted");
        assert!(cache.lookup(2, 1, 0).is_some());
    }

    #[test]
    fn snapshot_round_trips() {
        let cache = SignatureCache::new(8);
        cache.insert(u128::MAX, chunk(2));
        cache.insert(5, chunk(0));
        let lines = cache.snapshot_lines();
        let back = SignatureCache::from_snapshot_lines(&lines, 8).unwrap();
        assert_eq!(back.snapshot_lines(), lines);
        assert_eq!(back.lookup(u128::MAX, 2, 0), Some(chunk(2)));
        assert!(SignatureCache::from_snapshot_lines(&["zz".into()], 8).is_err());
        assert!(SignatureCache::from_snapshot_lines(&["1 0: bad".into()], 8).is_err());
    }
}
