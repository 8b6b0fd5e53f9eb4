//! Per-tenant serving state: token bucket, stream-group concurrency
//! slots, kernel ownership, quota, and statistics.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::admission::{CapacityGate, TokenBucket};
use crate::protocol::TenantStats;
use crate::ServerConfig;

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One tenant's serving state. Created lazily on first use with the
/// server's per-tenant defaults.
pub struct TenantState {
    /// Rate limiter: one token per launch request.
    pub bucket: Mutex<TokenBucket>,
    /// The tenant's stream group: at most this many of the tenant's
    /// launches run on the device concurrently, bounding how much of the
    /// shared pool one tenant can occupy.
    pub slots: Arc<CapacityGate>,
    /// Kernels this tenant registered (ownership check on launch).
    pub kernels: Mutex<HashSet<String>>,
    /// Cumulative device execution wall time (all attempts), for the
    /// quota check.
    pub exec_ns: AtomicU64,
    stats: Mutex<TenantStats>,
}

impl TenantState {
    fn new(config: &ServerConfig) -> Arc<TenantState> {
        Arc::new(TenantState {
            bucket: Mutex::new(TokenBucket::new(config.tenant_rate_per_sec, config.tenant_burst)),
            slots: CapacityGate::new(config.tenant_parallelism),
            kernels: Mutex::new(HashSet::new()),
            exec_ns: AtomicU64::new(0),
            stats: Mutex::new(TenantStats::default()),
        })
    }

    /// Take one rate-limit token, or get a retry-after hint in ms.
    pub fn try_take_token(&self) -> Result<(), u32> {
        lock(&self.bucket).try_take(Instant::now())
    }

    /// Whether the tenant owns `kernel`.
    pub fn owns(&self, kernel: &str) -> bool {
        lock(&self.kernels).contains(kernel)
    }

    /// Charge `ns` of device execution time and return the new total.
    pub fn charge_exec_ns(&self, ns: u64) -> u64 {
        self.exec_ns.fetch_add(ns, Ordering::Relaxed) + ns
    }

    /// Mutate the tenant's statistics under its lock.
    pub fn update_stats(&self, f: impl FnOnce(&mut TenantStats)) {
        f(&mut lock(&self.stats));
    }

    /// Snapshot the tenant's statistics.
    pub fn stats(&self) -> TenantStats {
        *lock(&self.stats)
    }
}

/// All tenants, plus the global kernel-name ownership map (kernel names
/// share one device-wide namespace; the first tenant to register a name
/// owns it).
#[derive(Default)]
pub struct TenantRegistry {
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    kernel_owner: Mutex<HashMap<String, String>>,
}

impl TenantRegistry {
    /// Look up `name`, creating it with `config`'s defaults on first
    /// use.
    pub fn get_or_create(&self, name: &str, config: &ServerConfig) -> Arc<TenantState> {
        let mut tenants = lock(&self.tenants);
        if let Some(t) = tenants.get(name) {
            return Arc::clone(t);
        }
        let t = TenantState::new(config);
        tenants.insert(name.to_string(), Arc::clone(&t));
        t
    }

    /// Look up `name` without creating it.
    pub fn get(&self, name: &str) -> Option<Arc<TenantState>> {
        lock(&self.tenants).get(name).cloned()
    }

    /// The tenant owning `kernel`, if any tenant registered it.
    pub fn owner_of(&self, kernel: &str) -> Option<String> {
        lock(&self.kernel_owner).get(kernel).cloned()
    }

    /// Claim `kernel` for `tenant`. Idempotent for the owner; another
    /// tenant's claim is refused with the owner's name.
    pub fn claim_kernel(&self, kernel: &str, tenant: &str) -> Result<(), String> {
        let mut owners = lock(&self.kernel_owner);
        match owners.get(kernel) {
            Some(owner) if owner != tenant => Err(owner.clone()),
            Some(_) => Ok(()),
            None => {
                owners.insert(kernel.to_string(), tenant.to_string());
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_creates_once_and_claims_exclusively() {
        let reg = TenantRegistry::default();
        let config = ServerConfig::default();
        let a = reg.get_or_create("alpha", &config);
        let a2 = reg.get_or_create("alpha", &config);
        assert!(Arc::ptr_eq(&a, &a2), "same tenant state on repeat lookups");
        assert!(reg.get("missing").is_none());

        assert_eq!(reg.claim_kernel("k", "alpha"), Ok(()));
        assert_eq!(reg.claim_kernel("k", "alpha"), Ok(()), "re-register by owner is idempotent");
        assert_eq!(reg.claim_kernel("k", "beta"), Err("alpha".to_string()));
    }

    #[test]
    fn tenant_tracks_kernels_quota_and_stats() {
        let t = TenantState::new(&ServerConfig::default());
        assert!(!t.owns("k"));
        t.kernels.lock().unwrap().insert("k".to_string());
        assert!(t.owns("k"));
        assert_eq!(t.charge_exec_ns(100), 100);
        assert_eq!(t.charge_exec_ns(50), 150);
        t.update_stats(|s| s.completed += 1);
        assert_eq!(t.stats().completed, 1);
    }
}
