//! # dpvk-trace
//!
//! Lightweight, dependency-free observability for the dynamic
//! compilation pipeline: counters, histograms, scoped phase timers and a
//! bounded structured event ring, feeding a [`TraceReport`] that
//! serializes to JSON and renders a human-readable summary.
//!
//! The paper's evaluation (Figures 7–9) is built from exactly the signals
//! collected here: warp-occupancy mix, spill/restore volume at yields,
//! and the split of work between the execution manager, yield handlers
//! and the vectorized subkernel — plus the compile-side costs (per-phase
//! wall time, vector-promotion effectiveness) that Table 1's dynamic
//! compilation story depends on.
//!
//! ## Cost model
//!
//! Tracing is **disabled by default** and every recording entry point
//! starts with a single relaxed atomic load ([`enabled`]); the disabled
//! path does no allocation, locking, or timestamping. Enable it with
//! `DPVK_TRACE=1` in the environment (checked once by [`init_from_env`],
//! which `dpvk-core`'s `Device` calls) or programmatically with
//! [`enable`].
//!
//! ## Usage
//!
//! ```
//! dpvk_trace::enable();
//! dpvk_trace::add(dpvk_trace::Counter::CacheHit, 1);
//! {
//!     let _t = dpvk_trace::phase("my_kernel", "translate");
//!     // ... timed work ...
//! }
//! let report = dpvk_trace::TraceReport::capture();
//! assert_eq!(report.counter("cache_hit"), 1);
//! dpvk_trace::disable();
//! dpvk_trace::reset();
//! ```

#![warn(missing_docs)]

mod json;
pub mod profile;
mod report;
pub mod timeline;

pub use report::{write_if_enabled, EventReport, PhaseReport, TraceReport};

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

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

/// Enable tracing if the `DPVK_TRACE` environment variable is truthy
/// (`1`, `true`, `on`, `yes`). Idempotent; the variable is read once per
/// process so repeated calls cost one `Once` check. Also applies the
/// `DPVK_TRACE_UOPS` opt-out for the µop profiler (see
/// [`profile::set_uop_profiling`]) and reads [`event_capacity`].
///
/// # Panics
///
/// Panics when either variable is set to anything but a truthy value or
/// a falsy one (`0`, `false`, `off`, `no`), or `DPVK_TRACE_EVENTS` to
/// anything but an unsigned integer: a mistyped knob is a configuration
/// bug, not a request for the default.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        // Here rather than at the first event, which a worker records.
        event_capacity();
        let flag = |var, default| {
            parse_flag(var, std::env::var(var).ok().as_deref(), default)
                .unwrap_or_else(|e| panic!("{e}"))
        };
        if flag("DPVK_TRACE", false) {
            enable();
        }
        if !flag("DPVK_TRACE_UOPS", true) {
            profile::set_uop_profiling(false);
        }
    });
}

/// The message of a knob set to a value it does not take, in the format
/// of `dpvk_core::InvalidEnvValue` (this crate sits below `dpvk-core`).
fn invalid_env(var: &str, value: &str, expected: &str) -> String {
    format!("{var}: invalid value `{value}`: expected {expected}")
}

/// An on/off knob `var` set to `v`: `default` when unset.
fn parse_flag(var: &str, v: Option<&str>, default: bool) -> Result<bool, String> {
    match v {
        None => Ok(default),
        Some("1" | "true" | "on" | "yes") => Ok(true),
        Some("0" | "false" | "off" | "no") => Ok(false),
        Some(v) => Err(invalid_env(var, v, "1/true/on/yes or 0/false/off/no")),
    }
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
    /// Events discarded because the bounded event ring was full.
    EventsDropped,
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
    /// Wall-clock nanoseconds the host spent resolving warp dispatches
    /// (specialization lookup) in the steady state.
    HostDispatchNs,
    /// Wall-clock nanoseconds the host spent forming warps from the
    /// ready queue.
    HostFormationNs,
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
    /// Warp executions requested under `DPVK_ENGINE=jit` that fell back
    /// to the bytecode interpreter (unsupported host, emit failure, or
    /// µop-profiling active).
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
    pub const ALL: [Counter; 51] = [
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
        Counter::EventsDropped,
        Counter::DowngradedWarps,
        Counter::CancelledWarps,
        Counter::SpecFailures,
        Counter::Faults,
        Counter::HostDispatchNs,
        Counter::HostFormationNs,
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
            Counter::EventsDropped => "events_dropped",
            Counter::DowngradedWarps => "downgraded_warps",
            Counter::CancelledWarps => "cancelled_warps",
            Counter::SpecFailures => "spec_failures",
            Counter::Faults => "faults",
            Counter::HostDispatchNs => "host_dispatch_ns",
            Counter::HostFormationNs => "host_formation_ns",
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
// Structured events (bounded ring)
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

impl YieldReason {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            YieldReason::Branch => "branch",
            YieldReason::Barrier => "barrier",
            YieldReason::Exit => "exit",
        }
    }

    fn counter(self) -> Counter {
        match self {
            YieldReason::Branch => Counter::YieldBranch,
            YieldReason::Barrier => Counter::YieldBarrier,
            YieldReason::Exit => Counter::YieldExit,
        }
    }
}

/// One structured trace event. Kernel names are interned; resolve them
/// through a captured [`TraceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A warp returned to the execution manager.
    Yield {
        /// Interned kernel name.
        kernel: u32,
        /// Entry point the warp will resume at (0 = kernel entry).
        entry_point: u32,
        /// Why the warp yielded.
        reason: YieldReason,
        /// Number of threads in the warp.
        width: u32,
    },
    /// A translation-cache lookup.
    CacheQuery {
        /// Interned kernel name.
        kernel: u32,
        /// Requested warp size.
        warp_size: u32,
        /// Requested variant (`"baseline"`, `"dynamic"`, `"static_tie"`).
        variant: &'static str,
        /// Whether the specialization was already cached.
        hit: bool,
    },
    /// A cache miss finished compiling a specialization.
    Compile {
        /// Interned kernel name.
        kernel: u32,
        /// Compiled warp size.
        warp_size: u32,
        /// Compiled variant.
        variant: &'static str,
        /// Wall time of the compilation.
        ns: u64,
    },
    /// A specialization request was downgraded to the scalar baseline
    /// because the requested variant failed to compile.
    Downgrade {
        /// Interned kernel name.
        kernel: u32,
        /// Warp size that was requested (and refused).
        warp_size: u32,
        /// Variant that was requested.
        variant: &'static str,
        /// Interned failure message that caused the downgrade.
        detail: u32,
    },
    /// An execution fault escaped a launch (worker panic, VM error,
    /// deadline expiry or cancellation).
    Fault {
        /// Interned kernel name.
        kernel: u32,
        /// Interned rendered error (with provenance).
        detail: u32,
    },
    /// A launch entered (`submit = true`) or left (`submit = false`) a
    /// stream's ordered queue.
    Stream {
        /// Interned kernel name.
        kernel: u32,
        /// Stream identifier.
        stream: u64,
        /// Launches queued behind the stream's active job at the moment
        /// of the event.
        depth: u32,
        /// `true` on submit, `false` on retire.
        submit: bool,
    },
}

/// Default capacity of the bounded event ring; past it, events are
/// counted in [`Counter::EventsDropped`] instead of stored. Override
/// with the `DPVK_TRACE_EVENTS` environment variable (clamped to
/// [16, 4Mi]; read once per process — see [`event_capacity`]).
pub const EVENT_CAPACITY: usize = 4096;

/// `DPVK_TRACE_EVENTS` set to `v`: [`EVENT_CAPACITY`] when unset, a
/// size clamped to [16, 4Mi] when it parses, an error otherwise.
fn parse_event_capacity(v: Option<&str>) -> Result<usize, String> {
    let Some(v) = v else { return Ok(EVENT_CAPACITY) };
    match v.trim().parse::<usize>() {
        Ok(n) => Ok(n.clamp(16, 1 << 22)),
        Err(_) => Err(invalid_env("DPVK_TRACE_EVENTS", v, "an event count")),
    }
}

/// Effective event-ring capacity: `DPVK_TRACE_EVENTS` if set (clamped to
/// [16, 4Mi]), else [`EVENT_CAPACITY`]. Long stream-stress runs that
/// used to silently overflow the default ring can raise it without a
/// rebuild.
///
/// # Panics
///
/// Panics at the first call when `DPVK_TRACE_EVENTS` is set to anything
/// but an unsigned integer.
pub fn event_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        parse_event_capacity(std::env::var("DPVK_TRACE_EVENTS").ok().as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
    })
}

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

/// Per-tenant serving-layer totals, accumulated by [`record_server`] and
/// reported as the report's `tenants` section.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TenantRecord {
    /// Tenant name (empty in the accumulator; filled in snapshots).
    pub tenant: String,
    /// Launch requests received (before admission).
    pub requests: u64,
    /// Requests admitted past the token bucket and capacity gate.
    pub admitted: u64,
    /// Requests shed with an `Overloaded` response.
    pub shed: u64,
    /// Server-side retries of transient failures.
    pub retries: u64,
    /// Requests that fell back to the scalar baseline.
    pub degraded: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that surfaced a typed error after the retry ladder.
    pub failed: u64,
    /// Device wall-clock nanoseconds spent executing this tenant's
    /// admitted launches (all attempts included).
    pub exec_ns: u64,
}

/// One serving-layer lifecycle transition of a tenant's launch request,
/// recorded via [`record_server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerOutcome {
    /// A launch request arrived (counted before any admission decision).
    Request,
    /// The request passed admission control.
    Admitted,
    /// The request was shed with an `Overloaded` response.
    Shed,
    /// One transient failure was retried server-side.
    Retried,
    /// The request fell back to the scalar baseline.
    Degraded,
    /// The request completed successfully after `exec_ns` nanoseconds of
    /// cumulative device execution (all attempts).
    Completed {
        /// Cumulative execution wall time across attempts.
        exec_ns: u64,
    },
    /// The request exhausted the retry ladder and failed.
    Failed,
}

#[derive(Default)]
struct State {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
    events: Vec<Event>,
    phases: HashMap<(String, &'static str, usize), PhaseTotals>,
    specs: Vec<SpecRecord>,
    tenants: HashMap<String, TenantRecord>,
}

#[derive(Default, Clone, Copy)]
struct PhaseTotals {
    calls: u64,
    total_ns: u64,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

fn lock_state() -> std::sync::MutexGuard<'static, State> {
    state().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl State {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    fn push_event(&mut self, event: Event) {
        if self.events.len() < event_capacity() {
            self.events.push(event);
        } else {
            COUNTERS[Counter::EventsDropped as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Record a warp yield event (reason counter + structured event).
#[inline]
pub fn record_yield(kernel: &str, entry_point: u32, reason: YieldReason, width: u32) {
    if !enabled() {
        return;
    }
    COUNTERS[reason.counter() as usize].fetch_add(1, Ordering::Relaxed);
    let mut s = lock_state();
    let kernel = s.intern(kernel);
    s.push_event(Event::Yield { kernel, entry_point, reason, width });
}

/// Record a translation-cache lookup.
#[inline]
pub fn record_cache_query(kernel: &str, warp_size: u32, variant: &'static str, hit: bool) {
    if !enabled() {
        return;
    }
    let c = if hit { Counter::CacheHit } else { Counter::CacheMiss };
    COUNTERS[c as usize].fetch_add(1, Ordering::Relaxed);
    let mut s = lock_state();
    let kernel = s.intern(kernel);
    s.push_event(Event::CacheQuery { kernel, warp_size, variant, hit });
}

/// Record a finished compilation (cache-miss fill).
#[inline]
pub fn record_compile(kernel: &str, warp_size: u32, variant: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    COUNTERS[Counter::CacheCompileNs as usize].fetch_add(ns, Ordering::Relaxed);
    let mut s = lock_state();
    let kernel = s.intern(kernel);
    s.push_event(Event::Compile { kernel, warp_size, variant, ns });
}

/// Record a downgrade-to-scalar: `kernel`'s `(warp_size, variant)`
/// specialization failed to compile (`detail`) and launches now fall
/// back to the baseline. Emitted once per failed specialization key; the
/// per-warp volume is in [`Counter::DowngradedWarps`].
#[inline]
pub fn record_downgrade(kernel: &str, warp_size: u32, variant: &'static str, detail: &str) {
    if !enabled() {
        return;
    }
    let mut s = lock_state();
    let kernel = s.intern(kernel);
    let detail = s.intern(detail);
    s.push_event(Event::Downgrade { kernel, warp_size, variant, detail });
}

/// Record an execution fault that escaped a launch of `kernel`; `detail`
/// is the rendered error, provenance included.
#[inline]
pub fn record_fault(kernel: &str, detail: &str) {
    if !enabled() {
        return;
    }
    COUNTERS[Counter::Faults as usize].fetch_add(1, Ordering::Relaxed);
    let mut s = lock_state();
    let kernel = s.intern(kernel);
    let detail = s.intern(detail);
    s.push_event(Event::Fault { kernel, detail });
}

/// Record a stream queue transition: a launch of `kernel` was submitted
/// to (`submit = true`) or retired from (`submit = false`) stream
/// `stream`, leaving `depth` launches queued behind its active job.
#[inline]
pub fn record_stream_event(kernel: &str, stream: u64, depth: u32, submit: bool) {
    if !enabled() {
        return;
    }
    let mut s = lock_state();
    let kernel = s.intern(kernel);
    s.push_event(Event::Stream { kernel, stream, depth, submit });
}

/// Record one serving-layer transition for `tenant`: bumps the matching
/// global `server_*` counter and the tenant's [`TenantRecord`] totals.
#[inline]
pub fn record_server(tenant: &str, outcome: ServerOutcome) {
    if !enabled() {
        return;
    }
    let (counter, exec_ns) = match outcome {
        ServerOutcome::Request => (Counter::ServerRequests, 0),
        ServerOutcome::Admitted => (Counter::ServerAdmitted, 0),
        ServerOutcome::Shed => (Counter::ServerShed, 0),
        ServerOutcome::Retried => (Counter::ServerRetries, 0),
        ServerOutcome::Degraded => (Counter::ServerDegraded, 0),
        ServerOutcome::Completed { exec_ns } => (Counter::ServerCompleted, exec_ns),
        ServerOutcome::Failed => (Counter::ServerFailed, 0),
    };
    COUNTERS[counter as usize].fetch_add(1, Ordering::Relaxed);
    let mut s = lock_state();
    let rec = s.tenants.entry(tenant.to_string()).or_default();
    match outcome {
        ServerOutcome::Request => rec.requests += 1,
        ServerOutcome::Admitted => rec.admitted += 1,
        ServerOutcome::Shed => rec.shed += 1,
        ServerOutcome::Retried => rec.retries += 1,
        ServerOutcome::Degraded => rec.degraded += 1,
        ServerOutcome::Completed { .. } => {
            rec.completed += 1;
            rec.exec_ns += exec_ns;
        }
        ServerOutcome::Failed => rec.failed += 1,
    }
}

/// Per-tenant serving-layer totals so far, sorted by tenant name. Empty
/// unless a server recorded [`ServerOutcome`]s while tracing was on.
pub fn tenant_records() -> Vec<TenantRecord> {
    let s = lock_state();
    let mut out: Vec<TenantRecord> = s
        .tenants
        .iter()
        .map(|(name, rec)| TenantRecord { tenant: name.clone(), ..rec.clone() })
        .collect();
    out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    out
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
    lock_state().specs.push(rec);
}

// ---------------------------------------------------------------------------
// Scoped phase timers
// ---------------------------------------------------------------------------

thread_local! {
    static PHASE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// RAII timer for a compile phase; records accumulated wall time (keyed
/// by kernel, phase name and nesting depth) when dropped.
#[must_use = "the phase is timed until the guard is dropped"]
pub struct PhaseGuard {
    active: Option<(String, &'static str, Instant, usize)>,
}

/// Start timing `phase` of `kernel`. Nested phases (e.g. individual
/// optimization passes inside `specialize`) record their depth so
/// reports can reconstruct the hierarchy. Returns an inert guard when
/// tracing is disabled.
pub fn phase(kernel: &str, phase: &'static str) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard { active: None };
    }
    let depth = PHASE_DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    PhaseGuard { active: Some((kernel.to_string(), phase, Instant::now(), depth)) }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((kernel, phase, start, depth)) = self.active.take() {
            let ns = start.elapsed().as_nanos() as u64;
            PHASE_DEPTH.with(|d| d.set(depth));
            let mut s = lock_state();
            let totals = s.phases.entry((kernel, phase, depth)).or_default();
            totals.calls += 1;
            totals.total_ns += ns;
        }
    }
}

// ---------------------------------------------------------------------------
// Reset + snapshot plumbing (used by report.rs)
// ---------------------------------------------------------------------------

/// Clear all recorded data (counters, histograms, events, timers,
/// timeline spans, µop profiles). The enabled flag is left as-is.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for c in &OCCUPANCY {
        c.store(0, Ordering::Relaxed);
    }
    timeline::reset_timeline();
    profile::reset_profile();
    let mut s = lock_state();
    s.names.clear();
    s.by_name.clear();
    s.events.clear();
    s.phases.clear();
    s.specs.clear();
    s.tenants.clear();
}

pub(crate) struct FullSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub occupancy: Vec<u64>,
    pub names: Vec<String>,
    pub events: Vec<Event>,
    pub phases: Vec<(String, &'static str, usize, u64, u64)>,
    pub specs: Vec<SpecRecord>,
    pub tenants: Vec<TenantRecord>,
}

pub(crate) fn full_snapshot() -> FullSnapshot {
    let s = lock_state();
    let mut phases: Vec<_> = s
        .phases
        .iter()
        .map(|((kernel, phase, depth), t)| (kernel.clone(), *phase, *depth, t.calls, t.total_ns))
        .collect();
    phases.sort();
    let mut specs = s.specs.clone();
    specs.sort_by(|a, b| {
        (a.kernel.as_str(), a.warp_size, a.variant).cmp(&(
            b.kernel.as_str(),
            b.warp_size,
            b.variant,
        ))
    });
    let mut tenants: Vec<TenantRecord> = s
        .tenants
        .iter()
        .map(|(name, rec)| TenantRecord { tenant: name.clone(), ..rec.clone() })
        .collect();
    tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    FullSnapshot {
        counters: Counter::ALL.iter().map(|&c| (c.name(), counter(c))).collect(),
        occupancy: occupancy_histogram(),
        names: s.names.clone(),
        events: s.events.clone(),
        phases,
        specs,
        tenants,
    }
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
        record_yield("k", 1, YieldReason::Branch, 4);
        record_warp_entry(4, 2);
        let _t = phase("k", "translate");
        drop(_t);
        assert_eq!(counter(Counter::CacheHit), 0);
        assert_eq!(counter(Counter::YieldBranch), 0);
        assert!(occupancy_histogram().is_empty());
        assert!(full_snapshot().events.is_empty());
        assert!(full_snapshot().phases.is_empty());
    }

    #[test]
    fn enabled_records_counters_events_and_histogram() {
        let _g = serial();
        enable();
        reset();
        add(Counter::CacheHit, 2);
        record_yield("k", 3, YieldReason::Barrier, 2);
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
        let snap = full_snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.names, vec!["k".to_string()]);
        disable();
        reset();
    }

    #[test]
    fn phase_guards_nest_and_accumulate() {
        let _g = serial();
        enable();
        reset();
        {
            let _outer = phase("k", "specialize");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = phase("k", "opt:dce");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let snap = full_snapshot();
        let outer = snap.phases.iter().find(|(_, p, ..)| *p == "specialize").unwrap();
        let inner = snap.phases.iter().find(|(_, p, ..)| *p == "opt:dce").unwrap();
        assert_eq!(outer.2, 0, "outer phase at depth 0");
        assert_eq!(inner.2, 1, "inner phase nested at depth 1");
        assert!(inner.4 <= outer.4, "inner time contained in outer");
        disable();
        reset();
    }

    #[test]
    fn event_capacity_parses_and_clamps() {
        assert_eq!(parse_event_capacity(None), Ok(EVENT_CAPACITY));
        assert_eq!(
            parse_event_capacity(Some("not a number")),
            Err("DPVK_TRACE_EVENTS: invalid value `not a number`: expected an event count".into())
        );
        assert!(parse_event_capacity(Some("-5")).is_err());
        assert_eq!(parse_event_capacity(Some("65536")), Ok(65536));
        assert_eq!(parse_event_capacity(Some(" 8192 ")), Ok(8192));
        assert_eq!(parse_event_capacity(Some("1")), Ok(16), "clamped to the floor");
        assert_eq!(parse_event_capacity(Some("999999999999")), Ok(1 << 22), "clamped to the cap");
    }

    #[test]
    fn trace_flags_take_on_or_off_and_refuse_anything_else() {
        for (v, want) in [("1", true), ("true", true), ("yes", true), ("0", false), ("off", false)]
        {
            assert_eq!(parse_flag("DPVK_TRACE", Some(v), !want), Ok(want), "{v}");
        }
        assert_eq!(parse_flag("DPVK_TRACE", None, false), Ok(false));
        assert_eq!(parse_flag("DPVK_TRACE_UOPS", None, true), Ok(true));
        assert_eq!(
            parse_flag("DPVK_TRACE", Some("2"), false),
            Err("DPVK_TRACE: invalid value `2`: expected 1/true/on/yes or 0/false/off/no".into())
        );
        assert!(parse_flag("DPVK_TRACE_UOPS", Some("nope"), true).is_err());
        assert!(parse_flag("DPVK_TRACE", Some(""), false).is_err());
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

    #[test]
    fn server_outcomes_accumulate_per_tenant_and_globally() {
        let _g = serial();
        enable();
        reset();
        for _ in 0..3 {
            record_server("alpha", ServerOutcome::Request);
        }
        record_server("alpha", ServerOutcome::Admitted);
        record_server("alpha", ServerOutcome::Retried);
        record_server("alpha", ServerOutcome::Completed { exec_ns: 1_000 });
        record_server("beta", ServerOutcome::Request);
        record_server("beta", ServerOutcome::Shed);
        record_server("beta", ServerOutcome::Degraded);
        record_server("beta", ServerOutcome::Failed);
        assert_eq!(counter(Counter::ServerRequests), 4);
        assert_eq!(counter(Counter::ServerAdmitted), 1);
        assert_eq!(counter(Counter::ServerShed), 1);
        assert_eq!(counter(Counter::ServerRetries), 1);
        assert_eq!(counter(Counter::ServerDegraded), 1);
        assert_eq!(counter(Counter::ServerCompleted), 1);
        assert_eq!(counter(Counter::ServerFailed), 1);
        let tenants = tenant_records();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].tenant, "alpha", "sorted by name");
        assert_eq!(tenants[0].requests, 3);
        assert_eq!(tenants[0].completed, 1);
        assert_eq!(tenants[0].exec_ns, 1_000);
        assert_eq!(tenants[1].tenant, "beta");
        assert_eq!(tenants[1].shed, 1);
        assert_eq!(tenants[1].degraded, 1);
        assert_eq!(tenants[1].failed, 1);
        disable();
        reset();
    }

    #[test]
    fn server_records_are_dark_when_disabled() {
        let _g = serial();
        disable();
        reset();
        record_server("ghost", ServerOutcome::Request);
        assert_eq!(counter(Counter::ServerRequests), 0);
        assert!(tenant_records().is_empty());
    }

    #[test]
    fn event_ring_is_bounded() {
        let _g = serial();
        enable();
        reset();
        for i in 0..(EVENT_CAPACITY as u32 + 10) {
            record_yield("k", i, YieldReason::Exit, 1);
        }
        assert_eq!(full_snapshot().events.len(), EVENT_CAPACITY);
        assert_eq!(counter(Counter::EventsDropped), 10);
        // Aggregate counters still see every yield.
        assert_eq!(counter(Counter::YieldExit), EVENT_CAPACITY as u64 + 10);
        disable();
        reset();
    }
}
