//! Per-tenant LoRA adapters applied per slot over one frozen base.
//!
//! Multi-tenant serving splits the model exactly the way Edge-LLM's
//! adaptation scheme does: the compressed base weights are packed once
//! and shared by every request, and each tenant carries only small
//! low-rank deltas for a subset of `(layer, projection)` sites. A
//! [`TenantAdapter`] is the portable description (factors `A`/`B` plus a
//! scale per site); [`TenantAdapter::resolve`] validates it against a
//! concrete model and produces a [`ResolvedAdapter`] the decode paths can
//! index in O(1) per projection.
//!
//! # Bit-identity
//!
//! The serving oracle demands that a tenant's tokens under mixed-tenant
//! batching are bit-identical to a solo run with the same adapter. Floats
//! make `x·(W + s·A·B)` differ in low bits from `x·W + s·(x·A)·B`, so
//! "merged into the base" is defined *computationally*, not by folding
//! weights: every path — batched, chunked speculative, solo — applies the
//! delta through the one [`ResolvedAdapter::apply_row`] primitive, row by
//! row, after the shared base matmul. Identical scalar operations per row
//! give bitwise identity by construction, and the base matmul stays a
//! single shared multi-row kernel call regardless of how many tenants are
//! in flight.

use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::model::EdgeModel;
use edge_llm_tensor::{Tensor, TensorRng};

/// Which projection inside a block a delta attaches to.
///
/// Exit heads and the unembedding are deliberately not adaptable: they
/// are shared across tenants by design (the per-tenant state must stay
/// small), and the voting combiner already owns per-exit calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdapterTarget {
    /// The fused query/key/value projection, `(d_model, 3·d_model)`.
    Qkv,
    /// The attention output projection, `(d_model, d_model)`.
    Proj,
    /// The MLP up-projection, `(d_model, d_ff)`.
    Fc1,
    /// The MLP down-projection, `(d_ff, d_model)`.
    Fc2,
}

impl AdapterTarget {
    /// Every target, in block order.
    pub const ALL: [AdapterTarget; 4] = [
        AdapterTarget::Qkv,
        AdapterTarget::Proj,
        AdapterTarget::Fc1,
        AdapterTarget::Fc2,
    ];

    /// The `(d_in, d_out)` shape of this projection under `cfg`.
    pub fn shape(self, cfg: &ModelConfig) -> (usize, usize) {
        let c = cfg.d_model;
        match self {
            AdapterTarget::Qkv => (c, 3 * c),
            AdapterTarget::Proj => (c, c),
            AdapterTarget::Fc1 => (c, cfg.d_ff),
            AdapterTarget::Fc2 => (cfg.d_ff, c),
        }
    }

    /// Stable display name.
    pub fn label(self) -> &'static str {
        match self {
            AdapterTarget::Qkv => "qkv",
            AdapterTarget::Proj => "proj",
            AdapterTarget::Fc1 => "fc1",
            AdapterTarget::Fc2 => "fc2",
        }
    }

    fn slot(self) -> usize {
        match self {
            AdapterTarget::Qkv => 0,
            AdapterTarget::Proj => 1,
            AdapterTarget::Fc1 => 2,
            AdapterTarget::Fc2 => 3,
        }
    }
}

/// One low-rank delta: at `(layer, target)`, add `scale · (x·A)·B` to the
/// projection output.
#[derive(Debug, Clone, PartialEq)]
pub struct AdapterDelta {
    /// Block index the delta attaches to.
    pub layer: usize,
    /// Projection inside the block.
    pub target: AdapterTarget,
    /// Down-projection factor, `(d_in, rank)`.
    pub a: Tensor,
    /// Up-projection factor, `(rank, d_out)`.
    pub b: Tensor,
    /// Multiplier on the low-rank product (LoRA's `alpha / rank`).
    pub scale: f32,
}

/// A tenant's complete adapter: a set of low-rank deltas, kept as
/// factors (never densified — the factors *are* the per-tenant weight
/// state, and their size is what the multi-tenant bench gates).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantAdapter {
    deltas: Vec<AdapterDelta>,
}

impl TenantAdapter {
    /// Wraps a delta list. Validation happens at [`Self::resolve`] time,
    /// against a concrete model.
    pub fn new(deltas: Vec<AdapterDelta>) -> Self {
        TenantAdapter { deltas }
    }

    /// A deterministic random adapter of rank `rank` at the given
    /// `(layer, target)` sites — the test/bench stand-in for a trained
    /// per-tenant adapter. Both factors are non-zero so the delta
    /// actually moves logits (a zero `B` would make every tenant
    /// identical and the differential oracle vacuous).
    pub fn seeded(
        cfg: &ModelConfig,
        seed: u64,
        rank: usize,
        sites: &[(usize, AdapterTarget)],
    ) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let deltas = sites
            .iter()
            .map(|&(layer, target)| {
                let (d_in, d_out) = target.shape(cfg);
                AdapterDelta {
                    layer,
                    target,
                    a: Tensor::randn(d_in, rank.max(1), 0.05, &mut rng),
                    b: Tensor::randn(rank.max(1), d_out, 0.05, &mut rng),
                    scale: 0.5,
                }
            })
            .collect();
        TenantAdapter { deltas }
    }

    /// The deltas, in insertion order.
    pub fn deltas(&self) -> &[AdapterDelta] {
        &self.deltas
    }

    /// Bytes of per-tenant weight state: the `A`/`B` factors only.
    pub fn bytes(&self) -> usize {
        self.deltas
            .iter()
            .map(|d| (d.a.len() + d.b.len()) * 4)
            .sum()
    }

    /// Validates every delta against `model` (layer in range, factor
    /// shapes matching the target projection, matching ranks, finite
    /// scale and factors, at most one delta per site) and returns the
    /// resolved form.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LayerOutOfRange`] or
    /// [`ModelError::BadConfig`] describing the first offending delta.
    pub fn resolve(&self, model: &EdgeModel) -> Result<ResolvedAdapter, ModelError> {
        let cfg = model.config();
        let n_layers = model.n_layers();
        let mut index = vec![None; n_layers * 4];
        for (i, d) in self.deltas.iter().enumerate() {
            if d.layer >= n_layers {
                return Err(ModelError::LayerOutOfRange {
                    layer: d.layer,
                    depth: n_layers,
                });
            }
            let (d_in, d_out) = d.target.shape(cfg);
            let (a_rows, a_cols) = d.a.shape();
            let (b_rows, b_cols) = d.b.shape();
            if a_rows != d_in || b_cols != d_out || a_cols != b_rows {
                return Err(ModelError::BadConfig {
                    reason: format!(
                        "adapter delta at layer {} {}: factors ({a_rows}x{a_cols})·\
                         ({b_rows}x{b_cols}) do not form a {d_in}x{d_out} delta",
                        d.layer,
                        d.target.label()
                    ),
                });
            }
            let finite = |t: &Tensor| t.as_slice().iter().all(|v| v.is_finite());
            if !d.scale.is_finite() || !finite(&d.a) || !finite(&d.b) {
                return Err(ModelError::BadConfig {
                    reason: format!(
                        "adapter delta at layer {} {}: non-finite scale or factor",
                        d.layer,
                        d.target.label()
                    ),
                });
            }
            let slot = d.layer * 4 + d.target.slot();
            if index[slot].is_some() {
                return Err(ModelError::BadConfig {
                    reason: format!(
                        "duplicate adapter delta at layer {} {}",
                        d.layer,
                        d.target.label()
                    ),
                });
            }
            index[slot] = Some(i);
        }
        Ok(ResolvedAdapter {
            deltas: self.deltas.clone(),
            index,
            bytes: self.bytes(),
        })
    }
}

/// A [`TenantAdapter`] validated against a model, indexed for O(1)
/// lookup per `(layer, target)` during decode.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedAdapter {
    deltas: Vec<AdapterDelta>,
    /// `layer * 4 + target.slot()` → index into `deltas`.
    index: Vec<Option<usize>>,
    bytes: usize,
}

impl ResolvedAdapter {
    /// Bytes of per-tenant weight state (the resident-size unit the
    /// adapter cache budgets).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The delta at `(layer, target)`, if any.
    pub fn delta(&self, layer: usize, target: AdapterTarget) -> Option<&AdapterDelta> {
        let slot = layer * 4 + target.slot();
        self.index
            .get(slot)
            .copied()
            .flatten()
            .map(|i| &self.deltas[i])
    }

    /// Adds this adapter's delta at `(layer, target)` to one output row:
    /// `y += scale · (x·A)·B` with `x` the projection's input row.
    ///
    /// This is the *single* delta-application primitive — every decode
    /// path (batched, chunked, solo) routes each row through this exact
    /// sequence of scalar operations, which is what makes mixed-tenant
    /// batching bit-identical to a solo run per tenant. No-op when the
    /// adapter has no delta at this site.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (impossible once resolved against
    /// the model the rows came from).
    pub fn apply_row(
        &self,
        layer: usize,
        target: AdapterTarget,
        x_row: &[f32],
        y_row: &mut [f32],
    ) -> Result<(), ModelError> {
        let Some(d) = self.delta(layer, target) else {
            return Ok(());
        };
        let x = Tensor::from_vec(1, x_row.len(), x_row.to_vec()).map_err(ModelError::Tensor)?;
        let xa = x.matmul(&d.a)?;
        let dy = xa.matmul(&d.b)?;
        for (y, &v) in y_row.iter_mut().zip(dy.row(0).iter()) {
            *y += d.scale * v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seed: u64) -> EdgeModel {
        let mut rng = TensorRng::seed_from(seed);
        EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap()
    }

    #[test]
    fn seeded_adapter_resolves_and_reports_bytes() {
        let m = model(1);
        let cfg = m.config();
        let sites: Vec<(usize, AdapterTarget)> = (0..m.n_layers())
            .flat_map(|l| AdapterTarget::ALL.into_iter().map(move |t| (l, t)))
            .collect();
        let ad = TenantAdapter::seeded(cfg, 7, 2, &sites);
        let resolved = ad.resolve(&m).unwrap();
        assert_eq!(resolved.bytes(), ad.bytes());
        let expected: usize = sites
            .iter()
            .map(|&(_, t)| {
                let (d_in, d_out) = t.shape(cfg);
                (d_in * 2 + 2 * d_out) * 4
            })
            .sum();
        assert_eq!(ad.bytes(), expected);
        for &(l, t) in &sites {
            assert!(resolved.delta(l, t).is_some());
        }
    }

    #[test]
    fn resolve_rejects_bad_layer_shape_and_duplicates() {
        let m = model(2);
        let cfg = m.config().clone();
        let ok = TenantAdapter::seeded(&cfg, 1, 1, &[(0, AdapterTarget::Qkv)]);
        assert!(ok.resolve(&m).is_ok());
        let bad_layer = TenantAdapter::seeded(&cfg, 1, 1, &[(99, AdapterTarget::Qkv)]);
        assert!(matches!(
            bad_layer.resolve(&m),
            Err(ModelError::LayerOutOfRange { .. })
        ));
        let mut wrong = ok.deltas()[0].clone();
        wrong.a = Tensor::zeros(cfg.d_model + 1, 1);
        assert!(matches!(
            TenantAdapter::new(vec![wrong]).resolve(&m),
            Err(ModelError::BadConfig { .. })
        ));
        let dup = TenantAdapter::new(vec![ok.deltas()[0].clone(), ok.deltas()[0].clone()]);
        assert!(matches!(dup.resolve(&m), Err(ModelError::BadConfig { .. })));
        let mut nan = ok.deltas()[0].clone();
        nan.scale = f32::NAN;
        let mut nan_a = ok.deltas()[0].clone();
        nan_a.a.set(3, 0, f32::NAN);
        let mut inf_b = ok.deltas()[0].clone();
        inf_b.b.set(0, 5, f32::NEG_INFINITY);
        for bad in [nan, nan_a, inf_b] {
            assert!(matches!(
                TenantAdapter::new(vec![bad]).resolve(&m),
                Err(ModelError::BadConfig { .. })
            ));
        }
    }

    #[test]
    fn apply_row_matches_manual_low_rank_product() {
        let m = model(3);
        let cfg = m.config().clone();
        let ad = TenantAdapter::seeded(&cfg, 11, 2, &[(1, AdapterTarget::Proj)]);
        let resolved = ad.resolve(&m).unwrap();
        let mut rng = TensorRng::seed_from(5);
        let x = Tensor::randn(1, cfg.d_model, 1.0, &mut rng);
        let mut y = vec![0.0f32; cfg.d_model];
        resolved
            .apply_row(1, AdapterTarget::Proj, x.row(0), &mut y)
            .unwrap();
        let d = &ad.deltas()[0];
        let expect = x.matmul(&d.a).unwrap().matmul(&d.b).unwrap();
        for (k, &got) in y.iter().enumerate() {
            let want = d.scale * expect.get(0, k);
            assert_eq!(got.to_bits(), want.to_bits(), "col {k}");
        }
        // sites without a delta are untouched
        let before = y.clone();
        resolved
            .apply_row(0, AdapterTarget::Fc1, x.row(0), &mut y[..cfg.d_model])
            .unwrap();
        assert_eq!(before, y);
    }
}
