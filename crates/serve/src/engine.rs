//! The tape-free forward engine.
//!
//! [`Engine`] evaluates an exported [`lasagne_autograd::Program`] through
//! the shared interpreter ([`RowPlan::eval_all`], all rows), which calls
//! the exact same `lasagne-tensor` / `lasagne-sparse` kernels the autograd
//! tape constructors call, in the same topological order — which is what
//! makes a frozen forward bitwise-identical to the training-path eval
//! forward, at any `lasagne-par` thread count (the parallel runtime's
//! determinism contract says threads change wall-clock, never bits).
//!
//! It adds the **propagation cache**: for a transductive model the graph,
//! features, and weights are all frozen, so the full-graph program is
//! evaluated exactly once at load time and every node query after that is a
//! row lookup plus a softmax — no per-request linear algebra at all. That is
//! also why the engine is `Send` (plain tensors, no `Rc`): the program is
//! consumed at construction; what survives is the cache — plus, for models
//! frozen with a graph binding, the streaming state that can patch it.
//! Planning validates the program first, so a malformed artifact fails
//! typed at load instead of panicking inside a kernel.

use lasagne_autograd::RowPlan;
use lasagne_sparse::Csr;
use lasagne_tensor::Tensor;

use crate::error::{ServeError, ServeResult};
use crate::frozen::{FrozenMeta, FrozenModel, FrozenRec};
use crate::streaming::StreamingState;

/// Refuse a program whose output shape contradicts the metadata.
pub(crate) fn check_output(shape: (usize, usize), meta: &FrozenMeta) -> ServeResult<()> {
    if shape != (meta.num_nodes, meta.num_classes) {
        return Err(ServeError::Mismatch(format!(
            "program output is {shape:?} but metadata says {} nodes × {} classes",
            meta.num_nodes, meta.num_classes
        )));
    }
    Ok(())
}

/// One node's answer: the argmax class and the full softmax distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Queried node id.
    pub node: usize,
    /// Argmax class.
    pub class: usize,
    /// Softmax probabilities, one per class.
    pub probs: Vec<f32>,
}

/// A loaded model ready to answer node queries out of its propagation
/// cache. Construction runs the frozen program once; queries are O(classes).
/// Models frozen with a graph binding also accept mutations
/// ([`Engine::apply_mutation`]), which patch the cache incrementally.
pub struct Engine {
    pub(crate) meta: FrozenMeta,
    /// Full-graph logits — the propagation cache.
    pub(crate) logits: Tensor,
    /// Full-graph softmax rows, cached alongside (clients overwhelmingly
    /// want probabilities).
    pub(crate) probs: Tensor,
    /// Streaming-mutation state; `None` for pre-streaming frozen files,
    /// which answer mutations with a typed `mismatch` error.
    pub(crate) streaming: Option<StreamingState>,
    /// Recommendation binding (bipartite layout + interaction mask);
    /// `None` for node-classification artifacts, which answer `recommend`
    /// with a typed `not_a_recommender` error.
    pub(crate) rec: Option<FrozenRec>,
}

impl Engine {
    /// Evaluate `frozen`'s program over the whole graph and cache the
    /// result. Fails typed if the program is malformed, references a weight
    /// the file does not carry, or has an output shape that contradicts the
    /// metadata.
    pub fn new(frozen: FrozenModel) -> ServeResult<Engine> {
        lasagne_obs::span!("serve.engine.load");
        let FrozenModel { meta, weights, program, graph, rec } = frozen;
        let values = {
            let sparse: Vec<&Csr> = program.sparse.iter().map(|m| &**m).collect();
            let plan = RowPlan::resident(&program.ops, sparse, &weights, program.output)?;
            check_output(plan.output_shape(), &meta)?;
            lasagne_obs::span!("serve.evaluate");
            plan.eval_all()
        };
        let logits = values[program.output].clone().expect("output evaluated");
        let probs = logits.softmax_rows();
        let streaming = match graph {
            Some(g) => Some(StreamingState::new(program, g, weights, values)?),
            None => None,
        };
        Ok(Engine { meta, logits, probs, streaming, rec })
    }

    /// Load + checksum the frozen file at `path` and build its engine —
    /// `Engine::new(FrozenModel::load(path)?)` as one call. This is the
    /// hot-swap loading path: it runs on the swapping thread so the
    /// batcher keeps serving the old model while the new one propagates.
    pub fn load_path(path: &std::path::Path) -> ServeResult<Engine> {
        Engine::new(FrozenModel::load(path)?)
    }

    /// Provenance/shape metadata of the loaded model.
    pub fn meta(&self) -> &FrozenMeta {
        &self.meta
    }

    /// Nodes in the frozen graph (valid query ids are `0..num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.meta.num_nodes
    }

    /// Output classes.
    pub fn num_classes(&self) -> usize {
        self.meta.num_classes
    }

    fn check_node(&self, node: usize) -> ServeResult<()> {
        if node >= self.meta.num_nodes {
            return Err(ServeError::UnknownNode { node, num_nodes: self.meta.num_nodes });
        }
        Ok(())
    }

    /// Raw logits row for a node (bitwise-comparable against the training
    /// path's eval forward).
    pub fn logits_row(&self, node: usize) -> ServeResult<&[f32]> {
        self.check_node(node)?;
        Ok(self.logits.row(node))
    }

    /// Argmax class + softmax distribution for a node.
    pub fn predict(&self, node: usize) -> ServeResult<Prediction> {
        self.check_node(node)?;
        let probs = self.probs.row(node);
        let class = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Ok(Prediction { node, class, probs: probs.to_vec() })
    }

    /// The `k` most probable classes for a node, most probable first
    /// (ties broken by lower class id; `k` is clamped to the class count).
    pub fn top_k(&self, node: usize, k: usize) -> ServeResult<Vec<(usize, f32)>> {
        self.check_node(node)?;
        let probs = self.probs.row(node);
        let mut ranked: Vec<(usize, f32)> = probs.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        ranked.truncate(k.min(self.meta.num_classes));
        Ok(ranked)
    }

    /// Whether the loaded file carried a recommendation binding (bipartite
    /// layout + interaction mask), i.e. whether `recommend` will answer.
    pub fn is_recommender(&self) -> bool {
        self.rec.is_some()
    }

    /// Top-`k` item recommendations for user node `node`, best first.
    ///
    /// Scores every item the user has *not* interacted with (the frozen
    /// interaction mask hides training items) as the dot product of the
    /// user's and the item's embedding rows from the propagation cache.
    /// The accumulation order (ascending index) and the ranking order
    /// (score descending via `total_cmp`, ties to the lower item id) are
    /// the exact contract of `lasagne_datasets::{dot_score, sort_ranked}`,
    /// so serving-side rankings are bitwise-reproducible against the
    /// training-side evaluator.
    pub fn recommend(&self, node: usize, k: usize) -> ServeResult<Vec<(usize, f32)>> {
        let rec = self.rec.as_ref().ok_or_else(|| ServeError::NotARecommender {
            reason: format!(
                "model '{}' was frozen without a recommendation binding \
                 (predict/top_k remain available)",
                self.meta.model
            ),
        })?;
        if node < rec.items || node >= rec.items + rec.users {
            return Err(ServeError::UnknownUser { node, items: rec.items, users: rec.users });
        }
        let mask = rec.interacted.row_indices(node - rec.items);
        let user_row = self.logits.row(node);
        let mut scored: Vec<(usize, f32)> = Vec::with_capacity(rec.items - mask.len());
        for item in 0..rec.items {
            // `interacted` rows are sorted (CSR invariant), so masking is a
            // binary search, not a set lookup.
            if mask.binary_search(&(item as u32)).is_ok() {
                continue;
            }
            let mut acc = 0.0f32;
            for (x, y) in user_row.iter().zip(self.logits.row(item)) {
                acc += x * y;
            }
            scored.push((item, acc));
        }
        if scored.is_empty() {
            return Err(ServeError::NoCandidates { node });
        }
        lasagne_obs::counter_add("serve.recommend", 1);
        lasagne_obs::counter_add("rec.candidates", scored.len() as u64);
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        Ok(scored)
    }
}
