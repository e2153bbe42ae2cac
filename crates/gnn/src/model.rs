//! Multi-layer GNN models.
//!
//! A [`Model`] is an ordered stack of [`LayerDef`]s — convolution, optional
//! GraphNorm, activation — plus constructors for the paper's three benchmark
//! models (2-layer GCN, 2-layer GraphSAGE, 5-layer GIN). Outside its batched
//! transform, the incremental engine evaluates a node through
//! [`Model::next_hidden_into`] — exactly the per-node pipeline
//! `act(norm(T(α_u, m_u)))` the paper's expressiveness condition allows —
//! and [`Model::message`].

use crate::{Aggregator, Conv, GcnConv, GinConv, GraphNorm, GraphNormMode, LightGcnConv, SageConv};
use ink_tensor::Activation;
use rand::rngs::StdRng;

/// One model layer: convolution + optional normalisation + activation.
pub struct LayerDef {
    /// The convolution (combination + aggregation).
    pub conv: Box<dyn Conv>,
    /// Optional GraphNorm after the convolution.
    pub norm: Option<GraphNormMode>,
    /// Activation applied last.
    pub act: Activation,
}

/// A stack of GNN layers.
pub struct Model {
    layers: Vec<LayerDef>,
}

impl Model {
    /// Builds a model from explicit layers, validating the dimension chain.
    pub fn new(layers: Vec<LayerDef>) -> Self {
        assert!(!layers.is_empty(), "a model needs at least one layer");
        for w in layers.windows(2) {
            assert_eq!(
                w[0].conv.out_dim(),
                w[1].conv.in_dim(),
                "layer output dim must match next layer input dim"
            );
        }
        for l in &layers {
            if let Some(norm) = &l.norm {
                assert_eq!(norm.norm().dim(), l.conv.out_dim(), "norm dim must match layer output");
            }
        }
        Self { layers }
    }

    /// The paper's GCN benchmark: one [`GcnConv`] per dim window, ReLU
    /// between layers, identity after the last.
    pub fn gcn(rng: &mut StdRng, dims: &[usize], agg: Aggregator) -> Self {
        assert!(dims.len() >= 2);
        let k = dims.len() - 1;
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(l, w)| LayerDef {
                conv: Box::new(GcnConv::new(rng, w[0], w[1], agg)) as Box<dyn Conv>,
                norm: None,
                act: if l + 1 == k { Activation::Identity } else { Activation::Relu },
            })
            .collect();
        Self::new(layers)
    }

    /// The paper's GraphSAGE benchmark.
    pub fn sage(rng: &mut StdRng, dims: &[usize], agg: Aggregator) -> Self {
        assert!(dims.len() >= 2);
        let k = dims.len() - 1;
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(l, w)| LayerDef {
                conv: Box::new(SageConv::new(rng, w[0], w[1], agg)) as Box<dyn Conv>,
                norm: None,
                act: if l + 1 == k { Activation::Identity } else { Activation::Relu },
            })
            .collect();
        Self::new(layers)
    }

    /// The paper's 5-layer GIN benchmark (constant hidden width).
    pub fn gin(
        rng: &mut StdRng,
        feat_dim: usize,
        hidden: usize,
        num_layers: usize,
        eps: f32,
        agg: Aggregator,
    ) -> Self {
        assert!(num_layers >= 1);
        let layers = (0..num_layers)
            .map(|l| {
                let in_dim = if l == 0 { feat_dim } else { hidden };
                LayerDef {
                    conv: Box::new(GinConv::new(rng, in_dim, hidden, eps, agg)) as Box<dyn Conv>,
                    norm: None,
                    act: if l + 1 == num_layers { Activation::Identity } else { Activation::Relu },
                }
            })
            .collect();
        Self::new(layers)
    }

    /// A parameter-free LightGCN propagation stack: `layers` rounds of
    /// symmetrically degree-normalised sum over `dim`-channel embeddings
    /// (the topology-only weighted sum of the paper's §II).
    pub fn lightgcn(dim: usize, layers: usize) -> Self {
        assert!(layers >= 1);
        Self::new(
            (0..layers)
                .map(|_| LayerDef {
                    conv: Box::new(LightGcnConv::new(dim)) as Box<dyn Conv>,
                    norm: None,
                    act: Activation::Identity,
                })
                .collect(),
        )
    }

    /// Attaches an exact GraphNorm (unit γ/β) after every layer except the
    /// last — the Fig. 9 configuration.
    pub fn with_exact_graphnorm(mut self) -> Self {
        let k = self.layers.len();
        for (l, layer) in self.layers.iter_mut().enumerate() {
            if l + 1 < k {
                layer.norm = Some(GraphNormMode::Exact(GraphNorm::unit(layer.conv.out_dim())));
            }
        }
        self
    }

    /// Replaces every exact GraphNorm with the cached-statistics form.
    /// `stats[l]` must be `Some((mean, var))` for each normalised layer —
    /// the values captured by a previous full inference.
    pub fn freeze_graphnorm_stats(mut self, stats: &[Option<(Vec<f32>, Vec<f32>)>]) -> Self {
        assert_eq!(stats.len(), self.layers.len());
        for (layer, stat) in self.layers.iter_mut().zip(stats) {
            if let Some(GraphNormMode::Exact(norm)) = layer.norm.take() {
                let (mean, var) = stat
                    .clone()
                    .expect("captured statistics required for every GraphNorm layer");
                layer.norm = Some(GraphNormMode::Cached { norm, mean, var });
            }
        }
        self
    }

    /// Number of layers `k`.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The layer definitions.
    pub fn layers(&self) -> &[LayerDef] {
        &self.layers
    }

    /// Layer `l`.
    pub fn layer(&self, l: usize) -> &LayerDef {
        &self.layers[l]
    }

    /// Input feature dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].conv.in_dim()
    }

    /// Output embedding dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().conv.out_dim()
    }

    /// Message dimensionality entering layer `l`'s aggregation.
    pub fn msg_dim(&self, l: usize) -> usize {
        self.layers[l].conv.msg_dim()
    }

    /// True when every GraphNorm (if any) is in cached form — the condition
    /// for the incremental engine to run.
    pub fn supports_incremental(&self) -> bool {
        self.layers.iter().all(|l| l.norm.as_ref().is_none_or(GraphNormMode::is_cached))
    }

    /// Evaluates `h_{l+1,u} = act(norm(T(α_{l,u}, m_{l,u})))` for one node;
    /// `degree` is the node's in-degree, consumed only by degree-scaled
    /// layers (LightGCN-style target-side normalisation). Requires cached
    /// GraphNorm statistics (see [`Model::supports_incremental`]); full-graph
    /// inference handles the exact form itself.
    pub fn next_hidden_into(
        &self,
        l: usize,
        alpha: &[f32],
        self_msg: &[f32],
        degree: usize,
        out: &mut [f32],
    ) {
        let layer = &self.layers[l];
        if layer.conv.degree_scaled() {
            let mut scaled = alpha.to_vec();
            ink_tensor::ops::scale(&mut scaled, layer.conv.update_scale(degree));
            layer.conv.update_into(&scaled, self_msg, out);
        } else {
            layer.conv.update_into(alpha, self_msg, out);
        }
        if let Some(norm) = &layer.norm {
            norm.apply_cached(out);
        }
        layer.act.apply(out);
    }

    /// Allocating wrapper around [`Model::next_hidden_into`].
    pub fn next_hidden(&self, l: usize, alpha: &[f32], self_msg: &[f32], degree: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.layers[l].conv.out_dim()];
        self.next_hidden_into(l, alpha, self_msg, degree, &mut out);
        out
    }

    /// Layer `l`'s message `m_{l,u}` for one node with hidden row `h` and
    /// in-degree `degree`, times the source-side degree weight of
    /// degree-scaled layers — one row of [`crate::full::batch_message_into`].
    pub fn message(&self, l: usize, h: &[f32], degree: usize) -> Vec<f32> {
        let conv = &self.layers[l].conv;
        let mut msg = conv.message(h);
        if conv.degree_scaled() {
            ink_tensor::ops::scale(&mut msg, conv.degree_scale(degree));
        }
        msg
    }

    /// Total parameter count across layers.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.conv.param_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ink_tensor::init::seeded_rng;

    #[test]
    fn gcn_constructor_shapes() {
        let mut rng = seeded_rng(1);
        let m = Model::gcn(&mut rng, &[10, 8, 4], Aggregator::Max);
        assert_eq!(m.num_layers(), 2);
        assert_eq!((m.in_dim(), m.out_dim()), (10, 4));
        assert_eq!(m.msg_dim(0), 8, "GCN transforms before aggregating");
        assert_eq!(m.layer(0).act, Activation::Relu);
        assert_eq!(m.layer(1).act, Activation::Identity);
    }

    #[test]
    fn sage_msg_dim_is_input_dim() {
        let mut rng = seeded_rng(2);
        let m = Model::sage(&mut rng, &[10, 8, 4], Aggregator::Mean);
        assert_eq!(m.msg_dim(0), 10);
        assert_eq!(m.msg_dim(1), 8);
    }

    #[test]
    fn gin_depth_and_dims() {
        let mut rng = seeded_rng(3);
        let m = Model::gin(&mut rng, 16, 8, 5, 0.0, Aggregator::Sum);
        assert_eq!(m.num_layers(), 5);
        assert_eq!((m.in_dim(), m.out_dim()), (16, 8));
    }

    #[test]
    #[should_panic(expected = "must match next layer")]
    fn dim_chain_is_validated() {
        let mut rng = seeded_rng(4);
        let l1 = LayerDef {
            conv: Box::new(GcnConv::new(&mut rng, 4, 3, Aggregator::Max)),
            norm: None,
            act: Activation::Relu,
        };
        let l2 = LayerDef {
            conv: Box::new(GcnConv::new(&mut rng, 5, 2, Aggregator::Max)),
            norm: None,
            act: Activation::Identity,
        };
        let _ = Model::new(vec![l1, l2]);
    }

    #[test]
    fn exact_graphnorm_blocks_incremental_until_frozen() {
        let mut rng = seeded_rng(5);
        let m = Model::gcn(&mut rng, &[6, 4, 2], Aggregator::Mean).with_exact_graphnorm();
        assert!(!m.supports_incremental());
        let dims = m.layer(0).conv.out_dim();
        let stats = vec![Some((vec![0.0; dims], vec![1.0; dims])), None];
        let frozen = m.freeze_graphnorm_stats(&stats);
        assert!(frozen.supports_incremental());
    }

    #[test]
    fn next_hidden_applies_activation() {
        let mut rng = seeded_rng(6);
        let m = Model::gcn(&mut rng, &[4, 3, 3], Aggregator::Max);
        // Layer 0 uses ReLU: a strongly negative alpha must clamp to zero.
        let h = m.next_hidden(0, &[-100.0, -100.0, -100.0], &[0.0; 3], 2);
        assert!(h.iter().all(|&x| x >= 0.0));
    }
}
