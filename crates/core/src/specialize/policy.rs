//! The width-selection policy: per-kernel launch profiles and the
//! explore/commit state machine behind `DPVK_ADAPT=on`.
//!
//! Lifecycle of one kernel under adaptation:
//!
//! 1. **Warm-up** — launches run at the caller's requested width while
//!    the policy accumulates modeled cycles. Nothing changes until the
//!    width has been measured for `hotness_threshold` launches.
//! 2. **Explore** — once hot, the policy picks the next unmeasured
//!    candidate width and schedules a *background* respecialization on
//!    the worker pool: the candidate's specialization is compiled off
//!    the launch path, and only once it is resident does
//!    [`PolicyTable::decide`] switch to it — at a launch boundary,
//!    never stalling an in-flight job. Each candidate then gets its own
//!    `hotness_threshold` launches of measurement.
//! 3. **Commit** — when every candidate has been measured, the width
//!    with the fewest modeled cycles per launch wins (ties go to the
//!    narrower width) and the kernel stops adapting.
//!
//! A candidate whose specialization fails to compile at full width
//! (the background task walks the same halving fallback ladder as the
//! launch path) is marked failed and never scheduled again, so a
//! refusing width cannot wedge the state machine.
//!
//! Correctness invariant: width only changes *what is profitable*,
//! never *what is computed* — results are bit-identical across widths
//! (enforced by the width × engine differential suite), so the policy
//! is free to switch widths between launches without synchronizing
//! with callers.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use dpvk_trace::timeline::SpanKind;

use crate::cache::{TranslationCache, Variant};
use crate::exec::stats::LaunchStats;
use crate::exec::worker;
use crate::exec::{AdaptConfig, AdaptMode};
use crate::flight;
use crate::sync::Mutex;

/// Cumulative modeled cost of launches observed at one width.
#[derive(Debug, Default, Clone, Copy)]
struct WidthScore {
    launches: u64,
    cycles: u64,
    threads: u64,
}

impl WidthScore {
    /// `self` is strictly cheaper per launch than `other`
    /// (cross-multiplied in `u128` so huge cycle counts cannot wrap).
    fn cheaper_than(&self, other: &WidthScore) -> bool {
        u128::from(self.cycles) * u128::from(other.launches)
            < u128::from(other.cycles) * u128::from(self.launches)
    }
}

/// A background respecialization in flight on the worker pool.
struct PendingRespec {
    /// Candidate width the task was asked to compile.
    width: u32,
    /// Set by the task when it finishes (success or failure).
    ready: Arc<AtomicBool>,
    /// Width the fallback ladder actually landed on; 0 = nothing
    /// compiled. Only meaningful once `ready` is set.
    achieved: Arc<AtomicU32>,
}

/// Per-kernel adaptation state.
#[derive(Default)]
struct KernelPolicy {
    /// Launches observed (any width, any mode ≠ off).
    launches: u64,
    /// Width launches are currently steered to, if the policy has
    /// switched away from the caller's request.
    active: Option<u32>,
    /// Final committed width; set once, ends exploration.
    chosen: Option<u32>,
    pending: Option<PendingRespec>,
    scores: HashMap<u32, WidthScore>,
    /// Candidate widths whose specialization refused to compile.
    failed: HashSet<u32>,
    /// Background respecializations scheduled for this kernel.
    respec_events: u64,
}

/// A device's adaptive width-policy table: one [`KernelPolicy`] per
/// kernel, fed by retiring launches and consulted at submission.
///
/// All methods take one short-held mutex; the policy never blocks a
/// launch on compilation — candidate specializations are built by a
/// pool task and adopted only after they are resident in the
/// translation cache.
#[derive(Default)]
pub struct PolicyTable {
    kernels: Mutex<HashMap<String, KernelPolicy>>,
}

/// Externally visible adaptation state for one kernel
/// (see [`Device::width_policy`](crate::Device::width_policy)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicySnapshot {
    /// Launches observed for the kernel.
    pub launches: u64,
    /// Final committed width, once exploration has converged.
    pub chosen_width: Option<u32>,
    /// Width launches are currently steered to (equals `chosen_width`
    /// after commit; a candidate under measurement during explore).
    pub active_width: Option<u32>,
    /// Background respecializations scheduled so far.
    pub respec_events: u64,
}

impl PolicyTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The width the next launch of `kernel` should run at, given the
    /// caller requested `requested`. Identity unless the mode is
    /// [`AdaptMode::On`]. This is also where a finished background
    /// respecialization is promoted — the width switch is atomic at the
    /// launch boundary; in-flight launches keep their width.
    pub(crate) fn decide(&self, kernel: &str, requested: u32, adapt: &AdaptConfig) -> u32 {
        if adapt.mode != AdaptMode::On {
            return requested;
        }
        let mut map = self.kernels.lock();
        let kp = map.entry(kernel.to_string()).or_default();
        if let Some(p) = &kp.pending {
            if p.ready.load(Ordering::Acquire) {
                let want = p.width;
                let achieved = p.achieved.load(Ordering::Acquire);
                kp.pending = None;
                if achieved == want {
                    kp.active = Some(want);
                    dpvk_trace::add(dpvk_trace::Counter::WidthSwitches, 1);
                } else {
                    // The ladder fell back (or compiled nothing): the
                    // candidate width itself is unusable.
                    kp.failed.insert(want);
                }
            }
        }
        kp.chosen.or(kp.active).unwrap_or(requested)
    }

    /// Fold one retired launch into the profile and, when the current
    /// width has become hot, advance the explore/commit state machine.
    /// Called from the worker that retires the launch's last chunk.
    pub(crate) fn observe(
        &self,
        kernel: &str,
        width: u32,
        stats: &LaunchStats,
        adapt: &AdaptConfig,
        cache: &TranslationCache,
    ) {
        if adapt.mode == AdaptMode::Off {
            return;
        }
        let mut map = self.kernels.lock();
        let kp = map.entry(kernel.to_string()).or_default();
        kp.launches += 1;
        let score = kp.scores.entry(width).or_default();
        score.launches += 1;
        score.cycles += stats.exec.total_cycles();
        score.threads += stats.exec.thread_entries;
        if adapt.mode != AdaptMode::On || kp.chosen.is_some() || kp.pending.is_some() {
            return;
        }
        let threshold = u64::from(adapt.hotness_threshold);
        let current = kp.active.unwrap_or(width);
        if kp.scores.get(&current).map_or(0, |s| s.launches) < threshold {
            return;
        }
        let next = adapt.candidate_widths().into_iter().find(|w| {
            *w != current
                && !kp.failed.contains(w)
                && kp.scores.get(w).map_or(0, |s| s.launches) < threshold
        });
        match next {
            Some(cand) => Self::schedule_respec(kp, kernel, current, cand, cache),
            None => {
                // Every candidate measured (or failed): commit the
                // cheapest per launch, ties to the narrower width.
                let mut widths: Vec<u32> = kp.scores.keys().copied().collect();
                widths.sort_unstable();
                let mut best: Option<(u32, WidthScore)> = None;
                for w in widths {
                    let s = kp.scores[&w];
                    if s.launches == 0 {
                        continue;
                    }
                    if best.is_none_or(|(_, b)| s.cheaper_than(&b)) {
                        best = Some((w, s));
                    }
                }
                if let Some((w, _)) = best {
                    kp.chosen = Some(w);
                    kp.active = Some(w);
                    dpvk_trace::record_width_choice(kernel, w);
                }
            }
        }
    }

    /// Queue a background task that compiles the candidate width's
    /// specialization off the launch path. The task walks the same
    /// halving fallback ladder as the launch path, reports the width it
    /// landed on, and emits a [`SpanKind::Respecialize`] span on the
    /// worker track it ran on.
    fn schedule_respec(
        kp: &mut KernelPolicy,
        kernel: &str,
        from: u32,
        cand: u32,
        cache: &TranslationCache,
    ) {
        let ready = Arc::new(AtomicBool::new(false));
        let achieved = Arc::new(AtomicU32::new(0));
        kp.pending = Some(PendingRespec {
            width: cand,
            ready: Arc::clone(&ready),
            achieved: Arc::clone(&achieved),
        });
        kp.respec_events += 1;
        dpvk_trace::add(dpvk_trace::Counter::RespecEvents, 1);
        dpvk_trace::record_respec(kernel, from, cand, kp.launches);
        let cache = cache.clone();
        let name = kernel.to_string();
        worker::pool().submit_task(Box::new(move || {
            let start = flight::span_start();
            let mut w = cand;
            let landed = loop {
                match cache.get(&name, w, Variant::Dynamic) {
                    Ok(_) => break w,
                    Err(_) if w > 1 => w /= 2,
                    Err(_) => break 0,
                }
            };
            achieved.store(landed, Ordering::Release);
            if let Some(t0) = start {
                flight::emit_span(SpanKind::Respecialize, &name, t0, u64::from(cand));
            }
            ready.store(true, Ordering::Release);
        }));
    }

    /// Snapshot the adaptation state of `kernel` (zeroed defaults for a
    /// kernel the table has never seen).
    pub fn snapshot(&self, kernel: &str) -> PolicySnapshot {
        let map = self.kernels.lock();
        map.get(kernel).map_or_else(PolicySnapshot::default, |kp| PolicySnapshot {
            launches: kp.launches,
            chosen_width: kp.chosen,
            active_width: kp.active,
            respec_events: kp.respec_events,
        })
    }
}

impl std::fmt::Debug for PolicyTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.kernels.lock();
        f.debug_struct("PolicyTable").field("kernels", &map.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with_cycles(cycles: u64) -> LaunchStats {
        let mut s = LaunchStats::default();
        s.exec.cycles_body = cycles;
        s.exec.thread_entries = 4;
        s
    }

    #[test]
    fn off_and_observe_modes_never_steer() {
        let table = PolicyTable::new();
        let off = AdaptConfig::off();
        let observe = AdaptConfig::observe();
        assert_eq!(table.decide("k", 4, &off), 4);
        assert_eq!(table.decide("k", 4, &observe), 4);
        // Observe mode still accumulates a profile.
        let cache = TranslationCache::with_persist(dpvk_vm::MachineModel::sandybridge_sse(), None);
        for _ in 0..3 {
            table.observe("k", 4, &stats_with_cycles(10), &observe, &cache);
        }
        let snap = table.snapshot("k");
        assert_eq!(snap.launches, 3);
        assert_eq!(snap.chosen_width, None);
        assert_eq!(snap.respec_events, 0);
    }

    #[test]
    fn cheaper_than_is_per_launch_and_overflow_safe() {
        let a = WidthScore { launches: 2, cycles: 10, threads: 0 };
        let b = WidthScore { launches: 1, cycles: 6, threads: 0 };
        // 5/launch vs 6/launch.
        assert!(a.cheaper_than(&b));
        assert!(!b.cheaper_than(&a));
        let huge = WidthScore { launches: u64::MAX, cycles: u64::MAX, threads: 0 };
        let one = WidthScore { launches: 1, cycles: 1, threads: 0 };
        // ~1/launch each way; strict comparison, no panic.
        assert!(!huge.cheaper_than(&one) || !one.cheaper_than(&huge));
    }

    #[test]
    fn snapshot_of_unknown_kernel_is_zeroed() {
        let table = PolicyTable::new();
        assert_eq!(table.snapshot("nope"), PolicySnapshot::default());
    }
}
