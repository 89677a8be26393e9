//! Per-tenant adapters, resolved once at registration.
//!
//! One frozen base serves every tenant; the only per-tenant weight state
//! is each tenant's low-rank adapter. The engine resolves an adapter
//! against its model when the tenant registers — a misfit adapter is
//! refused there — and keeps the result here, one entry per tenant.
//!
//! [`AdapterCache::acquire`] is the only way decode paths get an
//! adapter. The first admission after a tenant (re)registers makes its
//! adapter resident and counts a miss; every later admission counts a
//! hit. Re-registering a resident tenant counts
//! [`ShedCause::AdapterReplaced`] and makes the new version's next
//! admission a miss again. Slots hold their own `Arc`, so a session
//! already decoding with the old version finishes on it. Counters:
//! `serve.adapter.hit` / `serve.adapter.miss` /
//! `serve.adapter.evict.replaced`.

use crate::shed::ShedCause;
use edge_llm_model::ResolvedAdapter;
use edge_llm_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Every registered tenant's resolved adapter (see module docs).
#[derive(Debug, Clone, Default)]
pub struct AdapterCache {
    /// Tenant → its adapter and whether an admission has used this
    /// version yet (resident).
    tenants: BTreeMap<String, (Arc<ResolvedAdapter>, bool)>,
    hits: u64,
    misses: u64,
    evictions_replaced: u64,
}

impl AdapterCache {
    /// Registers (or replaces) `tenant`'s adapter. Replacing a resident
    /// version counts [`ShedCause::AdapterReplaced`]; sessions already
    /// holding the old `Arc` finish on it, exactly like a retired KV slot
    /// draining.
    pub fn register(&mut self, tenant: &str, adapter: ResolvedAdapter) {
        let replaced = self
            .tenants
            .insert(tenant.to_string(), (Arc::new(adapter), false));
        if replaced.is_some_and(|(_, resident)| resident) {
            self.evictions_replaced += 1;
            telemetry::counter(ShedCause::AdapterReplaced.counter_name(), 1);
        }
    }

    /// Whether `tenant` has a registered adapter.
    pub fn knows(&self, tenant: &str) -> bool {
        self.tenants.contains_key(tenant)
    }

    /// `tenant`'s adapter for a slot, counting a hit when it is resident
    /// and a miss (which makes it resident) when not. Returns `None` for
    /// an unknown tenant, counting nothing.
    pub fn acquire(&mut self, tenant: &str) -> Option<Arc<ResolvedAdapter>> {
        let (adapter, resident) = self.tenants.get_mut(tenant)?;
        if *resident {
            self.hits += 1;
            telemetry::counter("serve.adapter.hit", 1);
        } else {
            *resident = true;
            self.misses += 1;
            telemetry::counter("serve.adapter.miss", 1);
        }
        Some(Arc::clone(adapter))
    }

    /// Total factor bytes of resident adapters.
    pub fn resident_bytes(&self) -> usize {
        self.tenants
            .values()
            .filter(|(_, resident)| *resident)
            .map(|(a, _)| a.bytes())
            .sum()
    }

    /// `(tenant, resident factor bytes)` for every resident adapter, in
    /// tenant order — the `EngineReport` per-tenant breakdown.
    pub fn resident_by_tenant(&self) -> Vec<(String, usize)> {
        self.tenants
            .iter()
            .filter(|(_, (_, resident))| *resident)
            .map(|(name, (a, _))| (name.clone(), a.bytes()))
            .collect()
    }

    /// Resident-hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction: first admissions after a
    /// (re)registration.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Replacement evictions since construction.
    pub fn evictions_replaced(&self) -> u64 {
        self.evictions_replaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_model::{AdapterTarget, EdgeModel, ModelConfig, TenantAdapter};
    use edge_llm_tensor::TensorRng;

    fn resolved(seed: u64) -> ResolvedAdapter {
        let mut rng = TensorRng::seed_from(1);
        let model = EdgeModel::new(ModelConfig::tiny(), &mut rng).unwrap();
        TenantAdapter::seeded(model.config(), seed, 1, &[(0, AdapterTarget::Proj)])
            .resolve(&model)
            .unwrap()
    }

    #[test]
    fn unknown_tenant_is_none_and_uncounted() {
        let mut cache = AdapterCache::default();
        assert!(cache.acquire("ghost").is_none());
        assert_eq!(cache.hits() + cache.misses(), 0);
    }

    #[test]
    fn first_admission_misses_then_hits() {
        let mut cache = AdapterCache::default();
        for t in ["a", "b"] {
            cache.register(t, resolved(t.len() as u64));
        }
        assert_eq!(cache.resident_bytes(), 0, "registering loads nothing");
        let a = cache.acquire("a").unwrap(); // miss
        assert!(cache.acquire("b").is_some()); // miss
        let again = cache.acquire("a").unwrap(); // hit
        assert!(Arc::ptr_eq(&a, &again), "a hit hands out the same adapter");
        assert_eq!((cache.misses(), cache.hits()), (2, 1));
        assert_eq!(cache.resident_bytes(), 2 * a.bytes());
        let tenants: Vec<String> = cache
            .resident_by_tenant()
            .into_iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(tenants, ["a", "b"]);
    }

    #[test]
    fn re_register_drops_resident_copy() {
        let mut cache = AdapterCache::default();
        cache.register("t", resolved(1));
        let old = cache.acquire("t").unwrap();
        assert_eq!(cache.resident_bytes(), old.bytes());
        cache.register("t", resolved(2));
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.evictions_replaced(), 1);
        // the next admission loads the new version
        let new = cache.acquire("t").unwrap();
        assert_eq!(cache.misses(), 2);
        assert_ne!(*old, *new);
        // replacing a version no admission used, or registering a
        // brand-new tenant, counts nothing
        cache.register("u", resolved(3));
        cache.register("u", resolved(4));
        assert_eq!(cache.evictions_replaced(), 1);
    }
}
