//! # dpvk-trace
//!
//! Lightweight, dependency-free observability for the dynamic
//! compilation pipeline. It keeps two kinds of record: atomic counters
//! and the warp-occupancy histogram (this module), and timed spans on
//! the flight-recorder [`timeline`], the only place the crate stores
//! events and timings. A [`TraceReport`] snapshots both, serializes to
//! JSON and renders a human-readable summary.
//!
//! The paper's evaluation (Figures 7–9) is built from exactly the signals
//! collected here: warp-occupancy mix, spill/restore volume at yields,
//! and the split of work between the execution manager, yield handlers
//! and the vectorized subkernel — plus the compile-side costs (per-phase
//! spans, vector-promotion effectiveness) that Table 1's dynamic
//! compilation story depends on.
//!
//! ## Cost model
//!
//! Tracing is **disabled by default** and every recording entry point
//! starts with a single relaxed atomic load ([`enabled`]); the disabled
//! path does no allocation, locking, or timestamping. Enable it with
//! `DPVK_TRACE=1` in the environment (read once by `dpvk-core`'s
//! configuration, which calls [`enable_into`]) or programmatically with
//! [`enable`]. Counters are lock-free when on too; only closing a span
//! takes the timeline's lock.
//!
//! ## Usage
//!
//! ```
//! use dpvk_trace::timeline::{self, SpanKind};
//!
//! dpvk_trace::enable();
//! dpvk_trace::add(dpvk_trace::Counter::CacheHit, 1);
//! {
//!     let _span = timeline::span(SpanKind::Translate, "my_kernel");
//!     // ... timed work ...
//! }
//! let report = dpvk_trace::TraceReport::capture();
//! assert_eq!(report.counter("cache_hit"), 1);
//! let translate = report.span_totals.iter().find(|t| t.kind == SpanKind::Translate);
//! assert_eq!(translate.map(|t| t.calls), Some(1));
//! dpvk_trace::disable();
//! dpvk_trace::reset();
//! ```

#![warn(missing_docs)]

mod json;
pub mod profile;
mod report;
pub mod timeline;

pub use report::{write_if_enabled, TraceReport};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static OUT_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Whether tracing is currently enabled. This is the only check on the
/// disabled fast path: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn tracing off (already-recorded data is kept until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Turn tracing on for the rest of the process and write its files —
/// `dpvk-trace.json`, `dpvk-timeline.json` and `dpvk-profile.folded` —
/// under `dir` (`target` when `None`; the first call's `dir` holds).
/// `dpvk-core` calls it when `DPVK_TRACE` asks for tracing; it never
/// turns tracing off.
pub fn enable_into(dir: Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = OUT_DIR.set(dir);
    }
    enable();
}

/// Where [`write_if_enabled`] puts its file `name`.
pub(crate) fn out_path(name: &str) -> PathBuf {
    OUT_DIR.get().map_or_else(|| Path::new("target").join(name), |dir| dir.join(name))
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Monotonic event counters, enum-indexed into a fixed atomic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Translation-cache requests served from the cache.
    CacheHit,
    /// Translation-cache requests that triggered compilation.
    CacheMiss,
    /// Nanoseconds spent compiling on cache misses.
    CacheCompileNs,
    /// Scalar (per-lane replicated) instructions in specialized bodies.
    SpecReplicated,
    /// Vector-promoted instructions in specialized bodies.
    SpecPromoted,
    /// `insertelement` pack glue emitted by the vectorizer.
    SpecPackGlue,
    /// `extractelement` unpack glue emitted by the vectorizer.
    SpecUnpackGlue,
    /// Instructions removed by dead-code elimination.
    SpecDceRemoved,
    /// Warp yields whose resume status was a divergent branch.
    YieldBranch,
    /// Warp yields whose resume status was a barrier arrival.
    YieldBarrier,
    /// Warp yields whose resume status was thread termination.
    YieldExit,
    /// Warp executions launched by the execution manager.
    WarpEntries,
    /// Sum of warp widths over all warp entries.
    ThreadEntries,
    /// Ready-queue slots inspected while gathering warps (formation scan
    /// cost).
    ScanSteps,
    /// Bytes of live state spilled by exit handlers.
    SpillBytes,
    /// Bytes of live state restored by entry handlers.
    RestoreBytes,
    /// Warp entries downgraded to the scalar baseline because the
    /// requested specialization failed to compile.
    DowngradedWarps,
    /// Warp executions aborted by cancellation or a launch deadline.
    CancelledWarps,
    /// Specializations that failed to compile (verify error, unsupported
    /// construct).
    SpecFailures,
    /// Execution faults surfaced from launches (panics, VM errors,
    /// deadline/cancellation).
    Faults,
    /// Wall-clock nanoseconds spent pre-decoding compiled functions into
    /// linear bytecode (part of each cache-miss fill).
    GuestDecodeNs,
    /// Warp executions dispatched to the pre-decoded bytecode engine.
    WarpsBytecode,
    /// Warp executions dispatched to native x86-64 code emitted by the
    /// copy-and-patch JIT tier.
    WarpsJit,
    /// Bytes of executable x86-64 emitted by the JIT tier.
    JitCodeBytes,
    /// µops lowered through an inline machine-code template at JIT emit.
    JitTemplateUops,
    /// µops lowered to a call into the shared interpreter helper at JIT
    /// emit (no inline template for the op shape).
    JitHelperUops,
    /// Warp executions requested under `Engine::Jit` that fell back to
    /// the bytecode interpreter (unsupported host or emit failure).
    JitFallbackWarps,
    /// Launches accepted by a worker pool (async or blocking).
    LaunchesSubmitted,
    /// Launches whose every chunk completed (result observable).
    LaunchesRetired,
    /// High-water mark of launches queued behind a stream's active job
    /// (peak, not a sum — see [`record_peak`]).
    StreamQueuePeak,
    /// High-water mark of pool workers simultaneously executing chunks
    /// (peak occupancy, not a sum — see [`record_peak`]).
    PoolBusyPeak,
    /// Launch requests received by the serving layer (before admission).
    ServerRequests,
    /// Launch requests admitted past the token bucket and capacity gate.
    ServerAdmitted,
    /// Launch requests shed with an `Overloaded` response (bucket empty
    /// or device pool saturated).
    ServerShed,
    /// Server-side retries of transient launch failures (worker panics,
    /// deadline-adjacent timeouts).
    ServerRetries,
    /// Admitted requests that fell back to the scalar baseline after the
    /// vectorized retry budget was exhausted.
    ServerDegraded,
    /// Admitted requests that completed successfully (including after
    /// retries or degradation).
    ServerCompleted,
    /// Admitted requests that exhausted the retry ladder and surfaced a
    /// typed error to the client.
    ServerFailed,
    /// Persistent-cache artifacts loaded successfully from disk (a
    /// specialization skipped).
    PersistHits,
    /// Persistent-cache lookups that found no usable artifact (absent,
    /// corrupt, or version-mismatched) and fell back to compilation.
    PersistMisses,
    /// Artifacts written to the persistent cache after a compile.
    PersistWrites,
    /// Artifacts evicted from the persistent cache directory to stay
    /// under its size cap (oldest first).
    PersistEvictions,
    /// Bytes served by the device allocator from recycled blocks
    /// (free-list or eviction-reserve hits).
    AllocReuseBytes,
    /// Bytes served by the device allocator from previously untouched
    /// heap (bump carving).
    AllocFreshBytes,
    /// Bytes of idle free-list blocks evicted (coalesced into the
    /// reserve) to satisfy an allocation under pressure.
    AllocEvictedBytes,
    /// The subset of `JitHelperUops` that fell back solely because the
    /// µop's vector width exceeds the JIT's inline lane cap — the
    /// width-aware rung of the engine fallback ladder.
    JitWideHelperUops,
    /// Operand reads JIT emit served from a register an earlier template
    /// of the same block left the value in (static count).
    JitResidentReads,
    /// Registers JIT emit reloads from the frame at template slow
    /// sites, after the call there (static count).
    JitRefills,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 48] = [
        Counter::CacheHit,
        Counter::CacheMiss,
        Counter::CacheCompileNs,
        Counter::SpecReplicated,
        Counter::SpecPromoted,
        Counter::SpecPackGlue,
        Counter::SpecUnpackGlue,
        Counter::SpecDceRemoved,
        Counter::YieldBranch,
        Counter::YieldBarrier,
        Counter::YieldExit,
        Counter::WarpEntries,
        Counter::ThreadEntries,
        Counter::ScanSteps,
        Counter::SpillBytes,
        Counter::RestoreBytes,
        Counter::DowngradedWarps,
        Counter::CancelledWarps,
        Counter::SpecFailures,
        Counter::Faults,
        Counter::GuestDecodeNs,
        Counter::WarpsBytecode,
        Counter::WarpsJit,
        Counter::JitCodeBytes,
        Counter::JitTemplateUops,
        Counter::JitHelperUops,
        Counter::JitFallbackWarps,
        Counter::LaunchesSubmitted,
        Counter::LaunchesRetired,
        Counter::StreamQueuePeak,
        Counter::PoolBusyPeak,
        Counter::ServerRequests,
        Counter::ServerAdmitted,
        Counter::ServerShed,
        Counter::ServerRetries,
        Counter::ServerDegraded,
        Counter::ServerCompleted,
        Counter::ServerFailed,
        Counter::PersistHits,
        Counter::PersistMisses,
        Counter::PersistWrites,
        Counter::PersistEvictions,
        Counter::AllocReuseBytes,
        Counter::AllocFreshBytes,
        Counter::AllocEvictedBytes,
        Counter::JitWideHelperUops,
        Counter::JitResidentReads,
        Counter::JitRefills,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CacheHit => "cache_hit",
            Counter::CacheMiss => "cache_miss",
            Counter::CacheCompileNs => "cache_compile_ns",
            Counter::SpecReplicated => "spec_replicated",
            Counter::SpecPromoted => "spec_promoted",
            Counter::SpecPackGlue => "spec_pack_glue",
            Counter::SpecUnpackGlue => "spec_unpack_glue",
            Counter::SpecDceRemoved => "spec_dce_removed",
            Counter::YieldBranch => "yield_branch",
            Counter::YieldBarrier => "yield_barrier",
            Counter::YieldExit => "yield_exit",
            Counter::WarpEntries => "warp_entries",
            Counter::ThreadEntries => "thread_entries",
            Counter::ScanSteps => "scan_steps",
            Counter::SpillBytes => "spill_bytes",
            Counter::RestoreBytes => "restore_bytes",
            Counter::DowngradedWarps => "downgraded_warps",
            Counter::CancelledWarps => "cancelled_warps",
            Counter::SpecFailures => "spec_failures",
            Counter::Faults => "faults",
            Counter::GuestDecodeNs => "guest_decode_ns",
            Counter::WarpsBytecode => "warps_bytecode",
            Counter::WarpsJit => "warps_jit",
            Counter::JitCodeBytes => "jit_code_bytes",
            Counter::JitTemplateUops => "jit_template_uops",
            Counter::JitHelperUops => "jit_helper_uops",
            Counter::JitFallbackWarps => "jit_fallback_warps",
            Counter::LaunchesSubmitted => "launches_submitted",
            Counter::LaunchesRetired => "launches_retired",
            Counter::StreamQueuePeak => "stream_queue_peak",
            Counter::PoolBusyPeak => "pool_busy_peak",
            Counter::ServerRequests => "server_requests",
            Counter::ServerAdmitted => "server_admitted",
            Counter::ServerShed => "server_shed",
            Counter::ServerRetries => "server_retries",
            Counter::ServerDegraded => "server_degraded",
            Counter::ServerCompleted => "server_completed",
            Counter::ServerFailed => "server_failed",
            Counter::PersistHits => "persist_hits",
            Counter::PersistMisses => "persist_misses",
            Counter::PersistWrites => "persist_writes",
            Counter::PersistEvictions => "persist_evictions",
            Counter::AllocReuseBytes => "alloc_reuse_bytes",
            Counter::AllocFreshBytes => "alloc_fresh_bytes",
            Counter::AllocEvictedBytes => "alloc_evicted_bytes",
            Counter::JitWideHelperUops => "jit_wide_helper_uops",
            Counter::JitResidentReads => "jit_resident_reads",
            Counter::JitRefills => "jit_refills",
        }
    }
}

const NUM_COUNTERS: usize = Counter::ALL.len();

static COUNTERS: [AtomicU64; NUM_COUNTERS] = [const { AtomicU64::new(0) }; NUM_COUNTERS];

/// Add `n` to a counter. No-op (one atomic load) when tracing is off.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Raise a high-water-mark counter to `value` if it is below it. Used
/// for peak gauges ([`Counter::StreamQueuePeak`],
/// [`Counter::PoolBusyPeak`]) where adding samples would be meaningless.
/// No-op when tracing is off.
#[inline]
pub fn record_peak(counter: Counter, value: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_max(value, Ordering::Relaxed);
    }
}

/// Current value of a counter.
pub fn counter(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Warp-occupancy histogram (Figure 7 raw data)
// ---------------------------------------------------------------------------

/// Largest warp width tracked individually by the occupancy histogram;
/// wider entries are clamped into the last bucket.
pub const MAX_TRACKED_WIDTH: usize = 64;

static OCCUPANCY: [AtomicU64; MAX_TRACKED_WIDTH + 1] =
    [const { AtomicU64::new(0) }; MAX_TRACKED_WIDTH + 1];

/// Record one warp entry of `width` threads that cost `scanned`
/// ready-queue inspections to form.
#[inline]
pub fn record_warp_entry(width: u32, scanned: u64) {
    if !enabled() {
        return;
    }
    let bucket = (width as usize).min(MAX_TRACKED_WIDTH);
    OCCUPANCY[bucket].fetch_add(1, Ordering::Relaxed);
    COUNTERS[Counter::WarpEntries as usize].fetch_add(1, Ordering::Relaxed);
    COUNTERS[Counter::ThreadEntries as usize].fetch_add(u64::from(width), Ordering::Relaxed);
    COUNTERS[Counter::ScanSteps as usize].fetch_add(scanned, Ordering::Relaxed);
}

/// The warp-occupancy histogram: `hist[w]` = warp entries at width `w`.
/// Trailing zero buckets are trimmed.
pub fn occupancy_histogram() -> Vec<u64> {
    let mut hist: Vec<u64> = OCCUPANCY.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    while hist.last() == Some(&0) {
        hist.pop();
    }
    hist
}

// ---------------------------------------------------------------------------
// Yields
// ---------------------------------------------------------------------------

/// Why a warp yielded back to the execution manager (mirrors the
/// interpreter's `ResumeStatus` without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldReason {
    /// Divergent conditional branch.
    Branch,
    /// Barrier arrival.
    Barrier,
    /// Thread termination.
    Exit,
}

/// Count one warp yield under its reason's counter: one relaxed atomic
/// add, no lock, so it is cheap enough for the warp path.
#[inline]
pub fn record_yield(reason: YieldReason) {
    add(
        match reason {
            YieldReason::Branch => Counter::YieldBranch,
            YieldReason::Barrier => Counter::YieldBarrier,
            YieldReason::Exit => Counter::YieldExit,
        },
        1,
    );
}

// ---------------------------------------------------------------------------
// Specialization records
// ---------------------------------------------------------------------------

/// Per-`(kernel, warp_size, variant)` vectorizer effectiveness record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecRecord {
    /// Kernel name.
    pub kernel: String,
    /// Warp width of the specialization.
    pub warp_size: u32,
    /// Variant label (`"baseline"`, `"dynamic"`, `"static_tie"`).
    pub variant: &'static str,
    /// Static instructions before the optimization pipeline.
    pub pre_opt_instructions: u64,
    /// Static instructions after the optimization pipeline.
    pub post_opt_instructions: u64,
    /// Scalar instructions replicated per lane in the final body.
    pub replicated: u64,
    /// Instructions promoted to vector form.
    pub promoted: u64,
    /// `insertelement` pack glue instructions.
    pub pack_glue: u64,
    /// `extractelement` unpack glue instructions.
    pub unpack_glue: u64,
    /// Instructions the optimizer's DCE removed.
    pub dce_removed: u64,
}

fn lock_specs() -> std::sync::MutexGuard<'static, Vec<SpecRecord>> {
    static SPECS: Mutex<Vec<SpecRecord>> = Mutex::new(Vec::new());
    SPECS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Record a vectorizer effectiveness record and bump the aggregate
/// counters.
pub fn record_specialization(rec: SpecRecord) {
    if !enabled() {
        return;
    }
    COUNTERS[Counter::SpecReplicated as usize].fetch_add(rec.replicated, Ordering::Relaxed);
    COUNTERS[Counter::SpecPromoted as usize].fetch_add(rec.promoted, Ordering::Relaxed);
    COUNTERS[Counter::SpecPackGlue as usize].fetch_add(rec.pack_glue, Ordering::Relaxed);
    COUNTERS[Counter::SpecUnpackGlue as usize].fetch_add(rec.unpack_glue, Ordering::Relaxed);
    COUNTERS[Counter::SpecDceRemoved as usize].fetch_add(rec.dce_removed, Ordering::Relaxed);
    lock_specs().push(rec);
}

/// The specialization records so far, sorted by kernel, width and
/// variant.
pub(crate) fn spec_records() -> Vec<SpecRecord> {
    let mut specs = lock_specs().clone();
    specs.sort_by(|a, b| {
        (a.kernel.as_str(), a.warp_size, a.variant).cmp(&(
            b.kernel.as_str(),
            b.warp_size,
            b.variant,
        ))
    });
    specs
}

// ---------------------------------------------------------------------------
// Reset
// ---------------------------------------------------------------------------

/// Clear all recorded data (counters, histograms, specialization
/// records, timeline spans, µop profiles). The enabled flag is left
/// as-is.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for c in &OCCUPANCY {
        c.store(0, Ordering::Relaxed);
    }
    timeline::reset_timeline();
    profile::reset_profile();
    lock_specs().clear();
}

// ---------------------------------------------------------------------------
// Live metrics snapshots
// ---------------------------------------------------------------------------

/// A point-in-time view of the metrics registry (counters + the warp
/// occupancy histogram), cheap to capture (no locks — two fixed atomic
/// arrays) and delta-capable: subtracting an earlier snapshot yields
/// exactly the work done in between. This is the polling interface a
/// `/metrics` endpoint or a benchmark harness uses instead of the
/// export-once-at-exit report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; NUM_COUNTERS],
    occupancy: [u64; MAX_TRACKED_WIDTH + 1],
}

/// Capture a [`MetricsSnapshot`] of the current counter and occupancy
/// values. Works whether or not tracing is enabled (disabled tracing
/// simply yields all-zero deltas).
pub fn snapshot() -> MetricsSnapshot {
    let mut counters = [0u64; NUM_COUNTERS];
    for (slot, c) in counters.iter_mut().zip(&COUNTERS) {
        *slot = c.load(Ordering::Relaxed);
    }
    let mut occupancy = [0u64; MAX_TRACKED_WIDTH + 1];
    for (slot, c) in occupancy.iter_mut().zip(&OCCUPANCY) {
        *slot = c.load(Ordering::Relaxed);
    }
    MetricsSnapshot { counters, occupancy }
}

impl Counter {
    /// Whether this counter is a high-water mark (recorded with
    /// [`record_peak`]) rather than a monotonic sum. Peaks cannot be
    /// meaningfully subtracted; snapshot deltas carry the later
    /// snapshot's value through unchanged.
    pub fn is_peak(self) -> bool {
        matches!(self, Counter::StreamQueuePeak | Counter::PoolBusyPeak)
    }
}

impl MetricsSnapshot {
    /// Value of one counter at capture time.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Iterate `(name, value)` over every counter, in declaration order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c.name(), self.counters[c as usize]))
    }

    /// The warp-occupancy histogram at capture time, trailing zero
    /// buckets trimmed.
    pub fn occupancy(&self) -> Vec<u64> {
        let mut hist = self.occupancy.to_vec();
        while hist.last() == Some(&0) {
            hist.pop();
        }
        hist
    }

    /// The work recorded between `baseline` and `self`: monotonic
    /// counters and occupancy buckets are subtracted (saturating, so a
    /// `reset` between snapshots cannot underflow); peak counters
    /// ([`Counter::is_peak`]) keep `self`'s value.
    pub fn delta(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for c in Counter::ALL {
            if !c.is_peak() {
                let i = c as usize;
                out.counters[i] = self.counters[i].saturating_sub(baseline.counters[i]);
            }
        }
        for i in 0..out.occupancy.len() {
            out.occupancy[i] = self.occupancy[i].saturating_sub(baseline.occupancy[i]);
        }
        out
    }
}

impl std::ops::Sub for MetricsSnapshot {
    type Output = MetricsSnapshot;

    /// `later - earlier` = the work done in between (see
    /// [`MetricsSnapshot::delta`]).
    fn sub(self, baseline: MetricsSnapshot) -> MetricsSnapshot {
        self.delta(&baseline)
    }
}

impl std::ops::Sub for &MetricsSnapshot {
    type Output = MetricsSnapshot;

    fn sub(self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        self.delta(baseline)
    }
}

// Trace state is process-global; tests (including the timeline and
// profile submodules') serialize on this lock and reset around
// themselves.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        test_serial()
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        disable();
        reset();
        add(Counter::CacheHit, 3);
        record_yield(YieldReason::Branch);
        record_warp_entry(4, 2);
        assert_eq!(counter(Counter::CacheHit), 0);
        assert_eq!(counter(Counter::YieldBranch), 0);
        assert!(occupancy_histogram().is_empty());
    }

    #[test]
    fn enabled_records_counters_yields_and_histogram() {
        let _g = serial();
        enable();
        reset();
        add(Counter::CacheHit, 2);
        record_yield(YieldReason::Barrier);
        record_warp_entry(2, 5);
        record_warp_entry(4, 1);
        assert_eq!(counter(Counter::CacheHit), 2);
        assert_eq!(counter(Counter::YieldBarrier), 1);
        assert_eq!(counter(Counter::WarpEntries), 2);
        assert_eq!(counter(Counter::ThreadEntries), 6);
        assert_eq!(counter(Counter::ScanSteps), 6);
        let hist = occupancy_histogram();
        assert_eq!(hist[2], 1);
        assert_eq!(hist[4], 1);
        disable();
        reset();
    }

    #[test]
    fn snapshot_delta_is_the_work_in_between() {
        let _g = serial();
        enable();
        reset();
        add(Counter::CacheHit, 5);
        record_peak(Counter::PoolBusyPeak, 3);
        let before = snapshot();
        add(Counter::CacheHit, 2);
        add(Counter::LaunchesSubmitted, 1);
        record_warp_entry(4, 1);
        record_peak(Counter::PoolBusyPeak, 7);
        let after = snapshot();
        let delta = &after - &before;
        assert_eq!(delta.counter(Counter::CacheHit), 2);
        assert_eq!(delta.counter(Counter::LaunchesSubmitted), 1);
        assert_eq!(delta.counter(Counter::WarpEntries), 1);
        assert_eq!(delta.counter(Counter::ThreadEntries), 4);
        // Peaks carry the later snapshot's value, not a difference.
        assert_eq!(delta.counter(Counter::PoolBusyPeak), 7);
        // Occupancy deltas too.
        assert_eq!(delta.occupancy()[4], 1);
        // The owned Sub form agrees.
        assert_eq!(after.clone() - before.clone(), delta);
        // An empty interval deltas to zero everywhere (peaks aside).
        let idle = snapshot().delta(&after);
        assert!(idle.counters().all(|(n, v)| v == 0 || n.ends_with("_peak")));
        disable();
        reset();
    }
}
