//! The discovery pipeline decomposed into its public calls, one span per
//! layer: the traced mirror of `Discoverer`'s per-chunk pass (signature
//! scan and cache lookup, representations, LSH, type extraction,
//! post-processing). The traced runs check that this decomposition yields
//! the same strict schema bytes as the product composition.

use crate::trace::Tracer;
use pg_hive_core::cluster::{cluster_elements, ClusterOutcome};
use pg_hive_core::extract::{candidate_edge_types, candidate_node_types};
use pg_hive_core::preprocess::{edge_representations, node_representations, signature_scan};
use pg_hive_core::{CachedChunk, Discoverer, EmbeddingStrategy, SchemaState, SignatureCache};
use pg_hive_embed::HashEmbedder;
use pg_hive_graph::{GraphBatch, PropertyGraph};
use pg_hive_lsh::{Clustering, ElementClass};

pub struct Stages<'a> {
    pub d: &'a Discoverer,
    embedder: HashEmbedder,
}

/// Both element classes' clusterings of one batch.
pub struct Clusterings {
    pub nodes: ClusterOutcome,
    pub edges: ClusterOutcome,
}

impl<'a> Stages<'a> {
    pub fn new(d: &'a Discoverer) -> Self {
        let c = d.config();
        assert!(
            matches!(c.embedding, EmbeddingStrategy::Hash) && c.dedup,
            "the decomposition mirrors the default (hash-embedding, dedup) pipeline"
        );
        Stages {
            d,
            embedder: HashEmbedder::new(c.embedding_dim, c.seed),
        }
    }

    /// A chunk's batch: every node but the cross-chunk endpoint stubs, and
    /// every edge.
    pub fn chunk_batch(g: &PropertyGraph) -> GraphBatch {
        GraphBatch {
            nodes: g
                .nodes()
                .filter(|&(id, _)| !g.is_stub(id))
                .map(|(id, _)| id)
                .collect(),
            edges: g.edges().map(|(id, _)| id).collect(),
        }
    }

    /// Stages (b) and (c): representations, then LSH over distinct rows.
    pub fn cluster(&self, g: &PropertyGraph, batch: &GraphBatch, tr: &mut Tracer) -> Clusterings {
        let w = self.d.config().label_weight;
        let (nodes, edges) = tr.span("core.preprocess.repr", |_| {
            (
                node_representations(g, &batch.nodes, &self.embedder, w),
                edge_representations(g, &batch.edges, &self.embedder, w),
            )
        });
        tr.count(
            "core.preprocess.elements",
            (nodes.repr.len() + edges.repr.len()) as f64,
        );
        tr.count(
            "core.preprocess.distinct",
            (nodes.repr.distinct() + edges.repr.distinct()) as f64,
        );
        let config = self.d.config();
        let out = tr.span("core.cluster", |_| Clusterings {
            nodes: cluster_elements(&nodes.repr, ElementClass::Nodes, config),
            edges: cluster_elements(&edges.repr, ElementClass::Edges, config),
        });
        tr.count(
            "core.cluster.hashed_points",
            (out.nodes.hashed_points + out.edges.hashed_points) as f64,
        );
        out
    }

    /// Stage (d): candidate types pooled into `state`.
    pub fn extract(
        &self,
        g: &PropertyGraph,
        batch: &GraphBatch,
        nodes: &Clustering,
        edges: &Clustering,
        state: &mut SchemaState,
        tr: &mut Tracer,
    ) {
        tr.span("core.extract", |_| {
            state.absorb_node_candidates(candidate_node_types(g, &batch.nodes, nodes));
            state.absorb_edge_candidates(candidate_edge_types(g, &batch.edges, edges));
        });
    }

    /// Stages (e)-(g) over `g`'s values.
    pub fn postprocess(&self, g: &PropertyGraph, state: &mut SchemaState, tr: &mut Tracer) {
        let sampling = self.d.config().datatype_sampling.as_ref();
        tr.span("core.state.postprocess", |_| state.postprocess(g, sampling));
    }

    /// One streamed chunk's full pass into a chunk-local state, memoized
    /// through `cache` when given (the `absorb_stream_cached` path).
    pub fn chunk_state(
        &self,
        g: &PropertyGraph,
        cache: Option<&SignatureCache>,
        tr: &mut Tracer,
    ) -> SchemaState {
        let batch = Self::chunk_batch(g);
        let mut hit = None;
        let mut scan = None;
        if let Some(cache) = cache {
            let s = tr.span("core.preprocess.scan", |_| signature_scan(g, &batch));
            hit = tr.span("core.sigcache", |_| {
                cache
                    .lookup(s.fingerprint, s.nodes.distinct, s.edges.distinct)
                    .map(|c| {
                        (
                            c.nodes.broadcast(&s.nodes.rep_of),
                            c.edges.broadcast(&s.edges.rep_of),
                        )
                    })
            });
            tr.count("core.sigcache.lookups", 1.0);
            tr.count("core.sigcache.hits", f64::from(u8::from(hit.is_some())));
            if hit.is_some() {
                // A miss counts its dedup in `cluster`.
                tr.count(
                    "core.preprocess.elements",
                    (s.nodes.rep_of.len() + s.edges.rep_of.len()) as f64,
                );
                tr.count(
                    "core.preprocess.distinct",
                    (s.nodes.distinct + s.edges.distinct) as f64,
                );
            }
            scan = Some(s);
        }
        let (nodes, edges) = match hit {
            Some(pair) => pair,
            None => {
                let out = self.cluster(g, &batch, tr);
                if let (Some(cache), Some(s), Some(n), Some(e)) =
                    (cache, &scan, &out.nodes.distinct, &out.edges.distinct)
                {
                    tr.span("core.sigcache", |_| {
                        cache.insert(
                            s.fingerprint,
                            CachedChunk {
                                nodes: n.clone(),
                                edges: e.clone(),
                            },
                        )
                    });
                }
                (out.nodes.clustering, out.edges.clustering)
            }
        };
        let mut state = self.d.new_state();
        self.extract(g, &batch, &nodes, &edges, &mut state, tr);
        self.postprocess(g, &mut state, tr);
        tr.span("core.state.postprocess", |_| state.clear_members());
        state
    }
}
