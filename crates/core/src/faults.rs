//! Deterministic fault injection for the hardened execution manager.
//!
//! Compiled only with the `fault-inject` feature; the default build pays
//! nothing. Tests install a [`FaultPlan`] describing which failures to
//! trip — a forced worker panic at a chosen CTA, a forced verify failure
//! for a chosen specialization width, an injected out-of-bounds fault, or
//! artificial slow warps for deadline testing — and the execution
//! pipeline consults the plan at the matching points. Slow-warp selection
//! is seeded SplitMix64, so a plan reproduces the same schedule of delays
//! on every run.

use std::sync::Mutex;
use std::time::Duration;

use dpvk_ir::{Space, VerifyError};
use dpvk_vm::VmError;

use crate::cache::Variant;
use crate::error::CoreError;

/// Artificially delay a deterministic subset of warps (for deadline and
/// cancellation tests that need a "slow" kernel without a spin loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowWarps {
    /// SplitMix64 seed; the same seed always delays the same CTAs.
    pub seed: u64,
    /// Fraction of CTAs delayed, in `[0, 1]`.
    pub fraction: f64,
    /// Sleep applied to each selected warp execution.
    pub delay: Duration,
}

/// What to break, and where. `None` fields inject nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// Panic (worker-thread panic, not an error return) when the manager
    /// starts executing this flat CTA index.
    pub panic_at_cta: Option<u32>,
    /// Budget for [`panic_at_cta`](Self::panic_at_cta): `Some(n)` trips
    /// the panic at most `n` times and then lets execution through, so a
    /// retrying caller deterministically recovers; `None` panics on every
    /// matching execution (the original behavior).
    pub panic_budget: Option<u32>,
    /// Fail specialization with a synthetic [`VerifyError`] for any
    /// non-baseline variant requested at this warp width.
    pub fail_specialize_width: Option<u32>,
    /// Raise a synthetic out-of-bounds [`VmError`] from the first warp of
    /// this flat CTA index.
    pub oob_at_cta: Option<u32>,
    /// Artificially slow a seeded-random subset of warp executions.
    pub slow_warps: Option<SlowWarps>,
}

/// The installed plan. Reads are cheap (Copy under a short lock);
/// writes go through [`install`].
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Serializes tests that inject faults: the guard returned by
/// [`install`] holds this lock, so concurrently running tests take turns
/// with the process-wide plan instead of trampling each other's.
static GATE: Mutex<()> = Mutex::new(());

/// Clears the installed [`FaultPlan`] on drop and releases the injection
/// gate for the next test.
#[must_use = "the plan is cleared when the guard drops"]
pub struct PlanGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl PlanGuard {
    /// Uninstall the plan but keep the injection gate, so the rest of
    /// the test runs clean without the next test's plan slipping in.
    pub fn clear(&self) {
        *PLAN.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Install `plan` as the process-wide injection plan, blocking until any
/// other holder of a [`PlanGuard`] drops theirs. The plan is cleared
/// when the returned guard drops, so hold it for the whole test body.
pub fn install(plan: FaultPlan) -> PlanGuard {
    let gate = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *PLAN.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(plan);
    PlanGuard(gate)
}

fn plan() -> Option<FaultPlan> {
    *PLAN.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// SplitMix64: the repo's standard seedable generator (also used by the
/// workload harnesses; re-implemented here because `dpvk-workloads`
/// depends on this crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Panic if the plan demands a worker panic at `cta`. A finite
/// [`FaultPlan::panic_budget`] is decremented under the plan lock, so
/// concurrent workers racing on the same CTA consume it exactly once
/// per trip.
pub(crate) fn maybe_panic(cta: u32) {
    let mut slot = PLAN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(p) = slot.as_mut() else { return };
    if p.panic_at_cta != Some(cta) {
        return;
    }
    if let Some(remaining) = p.panic_budget.as_mut() {
        if *remaining == 0 {
            return;
        }
        *remaining -= 1;
    }
    drop(slot);
    panic!("injected fault: forced panic at CTA {cta}");
}

/// Synthetic specialization failure for `(kernel, warp_size, variant)`,
/// if the plan demands one. Baseline requests never fail, so the
/// downgrade path always has somewhere to land.
pub(crate) fn injected_specialize_failure(
    kernel: &str,
    warp_size: u32,
    variant: Variant,
) -> Option<CoreError> {
    let p = plan()?;
    if variant != Variant::Baseline && p.fail_specialize_width == Some(warp_size) {
        return Some(CoreError::Verify(VerifyError {
            function: kernel.to_string(),
            block: "entry".into(),
            message: format!("injected fault: forced verify failure at width {warp_size}"),
        }));
    }
    None
}

/// Synthetic VM fault for the first warp of `cta`, if the plan demands
/// one.
pub(crate) fn injected_warp_fault(cta: u32) -> Option<VmError> {
    let p = plan()?;
    if p.oob_at_cta == Some(cta) {
        return Some(VmError::OutOfBounds {
            space: Space::Global,
            addr: u64::MAX,
            size: 4,
            space_size: 0,
        });
    }
    None
}

/// Sleep if the plan's seeded selection picks `cta` as a slow warp.
pub(crate) fn maybe_slow_warp(cta: u32) {
    let Some(SlowWarps { seed, fraction, delay }) = plan().and_then(|p| p.slow_warps) else {
        return;
    };
    let mut state = seed ^ (u64::from(cta).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let draw = splitmix64(&mut state) as f64 / u64::MAX as f64;
    if draw < fraction {
        std::thread::sleep(delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A CTA index no launch reaches and a warp width no launch asks
    /// for: the plan is process-wide, and the crate's other unit tests
    /// launch kernels without taking the gate.
    const NO_SUCH_CTA: u32 = u32::MAX;
    const NO_SUCH_WIDTH: u32 = 1 << 20;

    #[test]
    fn install_round_trip_and_specialize_failure() {
        let guard = install(FaultPlan {
            panic_at_cta: Some(NO_SUCH_CTA),
            fail_specialize_width: Some(NO_SUCH_WIDTH),
            ..Default::default()
        });
        assert_eq!(plan().unwrap().panic_at_cta, Some(NO_SUCH_CTA));
        assert!(injected_specialize_failure("k", NO_SUCH_WIDTH, Variant::Dynamic).is_some());
        assert!(injected_specialize_failure("k", NO_SUCH_WIDTH, Variant::StaticTie).is_some());
        assert!(injected_specialize_failure("k", NO_SUCH_WIDTH, Variant::Baseline).is_none());
        assert!(injected_specialize_failure("k", 2, Variant::Dynamic).is_none());
        drop(guard);
    }

    #[test]
    fn panic_budget_is_consumed_then_execution_passes() {
        let _guard = install(FaultPlan {
            panic_at_cta: Some(NO_SUCH_CTA),
            panic_budget: Some(2),
            ..Default::default()
        });
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(|| maybe_panic(NO_SUCH_CTA));
            assert!(caught.is_err(), "budgeted panic should trip");
        }
        // Budget exhausted: the same CTA now runs clean.
        maybe_panic(NO_SUCH_CTA);
        maybe_panic(NO_SUCH_CTA);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_ne!(splitmix64(&mut a), splitmix64(&mut b).wrapping_add(1));
    }
}
