//! The dynamic execution manager (paper, Sections 3 and 5.2).
//!
//! The paper's execution managers are *resident* services: worker threads
//! park when idle and have kernels dispatched into them — they are not
//! spawned per launch. This module tree implements that shape:
//!
//! * [`worker`] — the process-wide [`worker::WorkerPool`] that every
//!   [`Device`](crate::runtime::Device) shares: threads spawned as
//!   launches first need them and never joined, parked on a condition
//!   variable when idle, each owning a long-lived dispatch memo and
//!   warp-formation scratch;
//! * [`job`] — one launch as a [`job::LaunchJob`]: an owned, immutable
//!   description plus shared completion state, exposed to callers as a
//!   [`LaunchHandle`] that can be waited on, polled, or cancelled
//!   individually;
//! * [`gather`] — single-pass warp formation over a CTA's ready queue;
//! * [`stats`] — per-launch statistics ([`LaunchStats`]).
//!
//! Within a CTA the manager keeps a pool of ready thread contexts, forms
//! warps of threads waiting at the same entry point (round-robin pick,
//! then greedy gather), executes the matching specialization from the
//! translation cache, and routes yields: diverged threads re-enter the
//! ready pool at their recorded resume points, barrier arrivals wait in a
//! per-CTA pool until every live thread has arrived, and terminated
//! threads are discarded.
//!
//! A launch is split into `min(workers, cta_count)` *chunks*; chunk `i`
//! runs CTAs `i, i + chunks, i + 2·chunks, …` — exactly the striding the
//! spawn-per-launch implementation used per worker, so statistics and
//! modeled outputs are bit-identical. Chunks of one launch run on
//! whichever pool workers are free, so independent launches (and
//! different streams and devices) overlap while launches queued on one
//! [`Stream`](crate::runtime::Stream) retain in-order semantics. Every
//! chunk's CTA loop runs under `catch_unwind`: a panic in one CTA becomes
//! [`CoreError::WorkerPanic`] on that launch, and the launch's token is
//! tripped so sibling chunks stop at their next poll.

pub(crate) mod gather;
pub(crate) mod job;
pub(crate) mod stats;
pub(crate) mod worker;

use dpvk_vm::{ExecLimits, ThreadContext, VmError};

use crate::error::{CoreError, FaultContext};

pub use job::LaunchHandle;
pub use stats::LaunchStats;

/// How warps are formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormationPolicy {
    /// No warps: every thread runs the serialized scalar baseline
    /// (the comparison baseline of the paper's Figure 6).
    ScalarBaseline,
    /// Dynamic warp formation: any ready threads waiting at the same
    /// entry point may form a warp.
    Dynamic,
    /// Static warp formation: only the predetermined group of
    /// consecutively indexed threads may form a warp, enabling
    /// thread-invariant expression elimination (Section 6.2).
    Static,
}

/// Which guest engine runs warp bodies. Both execute the same compiled
/// specialization and charge modeled cycles identically; they differ
/// only in host-side speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The pre-decoded linear-bytecode engine (default): operands
    /// resolved to frame slots at compile time, per-lane glue runs
    /// fused, inner loop a flat `match` over µops. The one executable
    /// definition of modeled cycles.
    #[default]
    Bytecode,
    /// The native tier: the µop stream copy-and-patch compiled to
    /// x86-64 in-process, cached per specialization in the translation
    /// cache. Falls back to the bytecode engine per warp when the host
    /// cannot emit native code.
    Jit,
}

impl Engine {
    /// Stable lowercase label used in benchmark output and reports.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Bytecode => "bytecode",
            Engine::Jit => "jit",
        }
    }

    /// Parse an engine name as accepted by `DPVK_ENGINE` and the
    /// benchmark `--engine` flags.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownEngineError`] (listing the valid names) for
    /// anything other than `bytecode` or `jit`.
    pub fn parse(name: &str) -> Result<Self, UnknownEngineError> {
        match name {
            "bytecode" => Ok(Engine::Bytecode),
            "jit" => Ok(Engine::Jit),
            other => Err(UnknownEngineError { value: other.to_string() }),
        }
    }

    /// The session default: `Engine::default()` unless overridden by
    /// `DPVK_ENGINE={bytecode,jit}`. The env hook lets CI rerun a
    /// whole reproduction binary on another engine and diff its output
    /// against the bytecode engine without per-binary flags. Read once;
    /// explicit `with_engine` calls are unaffected.
    ///
    /// # Panics
    ///
    /// Panics (fail-fast, with the [`UnknownEngineError`] message) when
    /// `DPVK_ENGINE` is set to an unrecognized name: a typo must surface
    /// at startup, not silently select the default engine.
    pub fn from_env() -> Self {
        static CHOICE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
        *CHOICE.get_or_init(|| match std::env::var("DPVK_ENGINE") {
            Err(_) => Engine::default(),
            Ok(value) => match Engine::parse(&value) {
                Ok(engine) => engine,
                Err(e) => panic!("DPVK_ENGINE: {e}"),
            },
        })
    }
}

/// An engine name that is not one of the recognized engines; see
/// [`Engine::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownEngineError {
    value: String,
}

impl std::fmt::Display for UnknownEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown engine `{}`: expected `bytecode` or `jit`", self.value)
    }
}

impl std::error::Error for UnknownEngineError {}

/// How the adaptive width policy treats a launch; see
/// [`AdaptConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdaptMode {
    /// Adaptation disabled: launches run at their requested width.
    #[default]
    Off,
    /// Record per-width profiles (visible in trace reports and
    /// [`Device::width_policy`](crate::Device::width_policy) snapshots)
    /// but never change a launch's width.
    Observe,
    /// Full adaptation: past the hotness threshold, candidate widths are
    /// compiled in the background and hot kernels are re-specialized to
    /// the best-measuring width.
    On,
}

impl AdaptMode {
    /// Stable lowercase label used in reports and benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            AdaptMode::Off => "off",
            AdaptMode::Observe => "observe",
            AdaptMode::On => "on",
        }
    }

    /// Parse a mode name as accepted by `DPVK_ADAPT`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownAdaptModeError`] (listing the valid names) for
    /// anything other than `off`, `observe`, or `on`.
    pub fn parse(name: &str) -> Result<Self, UnknownAdaptModeError> {
        match name {
            "off" | "0" => Ok(AdaptMode::Off),
            "observe" => Ok(AdaptMode::Observe),
            "on" | "1" => Ok(AdaptMode::On),
            other => Err(UnknownAdaptModeError { value: other.to_string() }),
        }
    }
}

/// An adaptation mode name that is not one of the recognized modes; see
/// [`AdaptMode::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAdaptModeError {
    value: String,
}

impl std::fmt::Display for UnknownAdaptModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown adaptation mode `{}`: expected `off`, `observe`, or `on`", self.value)
    }
}

impl std::error::Error for UnknownAdaptModeError {}

/// Default launches a kernel must accumulate at a width before the
/// policy trusts its measurement and moves on.
pub const DEFAULT_HOTNESS_THRESHOLD: u32 = 8;

/// Widest candidate width the policy can represent (candidate sets are
/// a 64-bit width bitmask).
pub const MAX_ADAPT_WIDTH: u32 = 63;

/// The adaptive warp-width policy knobs, carried per launch inside
/// [`ExecConfig`] and read from the environment by
/// [`AdaptConfig::from_env`]: `DPVK_ADAPT=off|observe|on`,
/// `DPVK_ADAPT_THRESHOLD=<launches>`, `DPVK_ADAPT_WIDTHS=<w,w,…>`.
///
/// Adaptation only ever changes *which width* a dynamic-formation launch
/// specializes for — never the kernel's semantics — so modeled outputs
/// stay bit-identical across every mode and width (proven by the width ×
/// engine differential matrix in the test suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptConfig {
    /// Whether the policy observes and/or steers launches.
    pub mode: AdaptMode,
    /// Launches a kernel must accumulate at a width before the policy
    /// trusts its measurement.
    pub hotness_threshold: u32,
    /// Candidate widths as a bitmask (bit `w` set → width `w` is a
    /// candidate). Built with [`AdaptConfig::with_candidates`].
    candidates: u64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig::off()
    }
}

impl AdaptConfig {
    const DEFAULT_CANDIDATES: [u32; 4] = [1, 2, 4, 8];

    /// Adaptation disabled (the default for explicitly built configs).
    pub fn off() -> Self {
        AdaptConfig {
            mode: AdaptMode::Off,
            hotness_threshold: DEFAULT_HOTNESS_THRESHOLD,
            candidates: 0,
        }
        .with_candidates(&Self::DEFAULT_CANDIDATES)
    }

    /// Observe-only: profile per-width behavior, never steer.
    pub fn observe() -> Self {
        AdaptConfig { mode: AdaptMode::Observe, ..Self::off() }
    }

    /// Full adaptation with the default threshold and candidate set.
    pub fn on() -> Self {
        AdaptConfig { mode: AdaptMode::On, ..Self::off() }
    }

    /// Override the hotness threshold (launches per width measurement;
    /// clamped to at least 1).
    #[must_use]
    pub fn with_threshold(mut self, launches: u32) -> Self {
        self.hotness_threshold = launches.max(1);
        self
    }

    /// Replace the candidate width set. Widths outside
    /// `1..=`[`MAX_ADAPT_WIDTH`] are ignored.
    #[must_use]
    pub fn with_candidates(mut self, widths: &[u32]) -> Self {
        self.candidates = 0;
        for &w in widths {
            if (1..=MAX_ADAPT_WIDTH).contains(&w) {
                self.candidates |= 1u64 << w;
            }
        }
        self
    }

    /// Whether `width` is in the candidate set.
    pub fn is_candidate(&self, width: u32) -> bool {
        width <= MAX_ADAPT_WIDTH && self.candidates & (1u64 << width) != 0
    }

    /// The candidate widths, ascending.
    pub fn candidate_widths(&self) -> Vec<u32> {
        (1..=MAX_ADAPT_WIDTH).filter(|&w| self.is_candidate(w)).collect()
    }

    /// The session default, read once from the environment (the same
    /// contract as [`Engine::from_env`]): `DPVK_ADAPT` selects the mode,
    /// `DPVK_ADAPT_THRESHOLD` the hotness threshold, and
    /// `DPVK_ADAPT_WIDTHS` a comma-separated candidate set.
    ///
    /// # Panics
    ///
    /// Panics at startup when any of the three variables is set to an
    /// unparsable value — a typo must surface immediately, not silently
    /// disable adaptation.
    pub fn from_env() -> Self {
        static CHOICE: std::sync::OnceLock<AdaptConfig> = std::sync::OnceLock::new();
        *CHOICE.get_or_init(|| {
            let mut cfg = AdaptConfig::off();
            if let Ok(value) = std::env::var("DPVK_ADAPT") {
                match AdaptMode::parse(&value) {
                    Ok(mode) => cfg.mode = mode,
                    Err(e) => panic!("DPVK_ADAPT: {e}"),
                }
            }
            if let Some(t) = crate::error::env_u64("DPVK_ADAPT_THRESHOLD", "a launch count", ..) {
                cfg = cfg.with_threshold(u32::try_from(t).unwrap_or(u32::MAX));
            }
            if let Ok(value) = std::env::var("DPVK_ADAPT_WIDTHS") {
                let widths: Vec<u32> = value
                    .split(',')
                    .map(|s| match s.trim().parse::<u32>() {
                        Ok(w) if (1..=MAX_ADAPT_WIDTH).contains(&w) => w,
                        _ => panic!(
                            "DPVK_ADAPT_WIDTHS: invalid width `{s}`: expected integers in \
                             1..={MAX_ADAPT_WIDTH}, comma-separated"
                        ),
                    })
                    .collect();
                cfg = cfg.with_candidates(&widths);
            }
            cfg
        })
    }
}

/// Modeled cycle charges for execution-manager work (the "EM" bars of the
/// paper's Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmCostModel {
    /// Base cost of forming one warp.
    pub formation_base: u64,
    /// Cost per ready-pool entry examined while gathering.
    pub per_thread_scanned: u64,
    /// Cost per thread of processing a yield (status dispatch, re-queue).
    pub per_yield_thread: u64,
    /// Cost per thread of barrier bookkeeping.
    pub per_barrier_thread: u64,
    /// Cost of one translation-cache query.
    pub per_cache_query: u64,
}

impl Default for EmCostModel {
    fn default() -> Self {
        EmCostModel {
            formation_base: 20,
            per_thread_scanned: 2,
            per_yield_thread: 6,
            per_barrier_thread: 4,
            per_cache_query: 25,
        }
    }
}

/// Execution configuration for one launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Warp-formation policy.
    pub policy: FormationPolicy,
    /// Maximum warp width (the machine vector width in the paper's
    /// evaluation: 4).
    pub max_warp: u32,
    /// Chunks the launch is split into for parallel execution; 0 means
    /// one per modeled core. (Before the persistent pool this was the
    /// number of threads spawned per launch; the CTA striding is
    /// unchanged.)
    pub workers: usize,
    /// Interpreter limits.
    pub limits: ExecLimits,
    /// Execution-manager cycle charges.
    pub em_cost: EmCostModel,
    /// Which guest interpreter runs warp bodies.
    pub engine: Engine,
    /// Adaptive width-policy knobs. Constructed configs inherit the
    /// environment (`DPVK_ADAPT`, off unless set); adaptation applies
    /// only to [`FormationPolicy::Dynamic`] launches through a
    /// [`Device`](crate::Device).
    pub adapt: AdaptConfig,
}

impl ExecConfig {
    /// Dynamic warp formation at the given maximum width.
    pub fn dynamic(max_warp: u32) -> Self {
        ExecConfig {
            policy: FormationPolicy::Dynamic,
            max_warp,
            workers: 0,
            limits: ExecLimits::default(),
            em_cost: EmCostModel::default(),
            engine: Engine::from_env(),
            adapt: AdaptConfig::from_env(),
        }
    }

    /// The serialized scalar baseline.
    pub fn baseline() -> Self {
        ExecConfig { policy: FormationPolicy::ScalarBaseline, max_warp: 1, ..Self::dynamic(1) }
    }

    /// Static warp formation with thread-invariant elimination.
    pub fn static_tie(max_warp: u32) -> Self {
        ExecConfig { policy: FormationPolicy::Static, ..Self::dynamic(max_warp) }
    }

    /// Use exactly `n` worker threads.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Run warp bodies on the given guest engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Override the adaptive width-policy knobs for this launch.
    pub fn with_adapt(mut self, adapt: AdaptConfig) -> Self {
        self.adapt = adapt;
        self
    }
}

/// Provenance for a fault detected between warps (no warp was formed, so
/// the thread list is empty and the entry point is the kernel start).
pub(crate) fn boundary_fault(kernel: &str, cta: u32, source: VmError) -> CoreError {
    CoreError::Fault {
        context: FaultContext {
            kernel: kernel.to_string(),
            cta,
            warp_entry: 0,
            thread_ids: Vec::new(),
        },
        source,
    }
}

/// Provenance for a fault raised while a formed warp was executing.
pub(crate) fn warp_fault(
    kernel: &str,
    cta: u32,
    warp_entry: i64,
    warp: &[ThreadContext],
    source: VmError,
) -> CoreError {
    CoreError::Fault {
        context: FaultContext {
            kernel: kernel.to_string(),
            cta,
            warp_entry,
            thread_ids: warp.iter().map(|c| c.flat_tid()).collect(),
        },
        source,
    }
}

/// Best-effort stringification of a panic payload.
pub(crate) fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Device, DevicePtr, ParamValue};
    use dpvk_vm::MachineModel;

    const VECADD: &str = r#"
.kernel vecadd (.param .u64 a, .param .u64 b, .param .u64 c, .param .u32 n) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  mad.lo.u32 %r3, %ctaid.x, %ntid.x, %r1;
  ld.param.u32 %r4, [n];
  setp.ge.u32 %p1, %r3, %r4;
  @%p1 bra done;
  cvt.u64.u32 %rd1, %r3;
  shl.u64 %rd1, %rd1, 2;
  ld.param.u64 %rd2, [a];
  add.u64 %rd2, %rd2, %rd1;
  ld.global.f32 %f1, [%rd2];
  ld.param.u64 %rd3, [b];
  add.u64 %rd3, %rd3, %rd1;
  ld.global.f32 %f2, [%rd3];
  add.f32 %f3, %f1, %f2;
  ld.param.u64 %rd4, [c];
  add.u64 %rd4, %rd4, %rd1;
  st.global.f32 [%rd4], %f3;
done:
  ret;
}
"#;

    fn device(src: &str) -> Device {
        let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 16);
        dev.register_source(src).unwrap();
        dev
    }

    fn run_vecadd(config: &ExecConfig) -> (Vec<f32>, LaunchStats) {
        let dev = device(VECADD);
        let n: u32 = 100; // not a multiple of the CTA size: tests divergence
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        let [pa, pb, pc] = [(); 3].map(|()| dev.malloc(4 * n as usize).unwrap());
        dev.copy_f32_htod(pa, &a).unwrap();
        dev.copy_f32_htod(pb, &b).unwrap();
        let args =
            [ParamValue::Ptr(pa), ParamValue::Ptr(pb), ParamValue::Ptr(pc), ParamValue::U32(n)];
        let stats = dev.launch("vecadd", [4, 1, 1], [32, 1, 1], &args, config).unwrap();
        (dev.copy_f32_dtoh(pc, n as usize).unwrap(), stats)
    }

    #[test]
    fn vecadd_baseline_is_correct() {
        let (out, stats) = run_vecadd(&ExecConfig::baseline().with_workers(1));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f32, "element {i}");
        }
        assert!(stats.exec.cycles_body > 0);
    }

    #[test]
    fn vecadd_dynamic_matches_baseline_and_forms_warps() {
        let (out, stats) = run_vecadd(&ExecConfig::dynamic(4).with_workers(2));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f32, "element {i}");
        }
        // Most entries are full 4-wide warps.
        assert!(stats.warp_hist[4] > 0, "{:?}", stats.warp_hist);
        assert!(stats.exec.average_warp_size() > 2.0);
    }

    #[test]
    fn vecadd_static_matches() {
        let (out, stats) = run_vecadd(&ExecConfig::static_tie(4).with_workers(1));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f32, "element {i}");
        }
        assert!(stats.warp_hist[4] > 0);
    }

    #[test]
    fn vectorization_speeds_up_vecadd() {
        let (_, scalar) = run_vecadd(&ExecConfig::baseline().with_workers(1));
        let (_, vec4) = run_vecadd(&ExecConfig::dynamic(4).with_workers(1));
        let s = scalar.exec.total_cycles() as f64 / vec4.exec.total_cycles() as f64;
        // Memory-bound kernel: modest speedup, but not a slowdown.
        assert!(s > 0.9, "speedup {s}");
    }

    const REDUCTION: &str = r#"
.kernel reduce_sum (.param .u64 data, .param .u64 out) {
  .shared .f32 tile[32];
  .reg .u32 %r<8>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  cvt.u64.u32 %rd1, %r1;
  shl.u64 %rd2, %rd1, 2;
  ld.param.u64 %rd3, [data];
  add.u64 %rd3, %rd3, %rd2;
  ld.global.f32 %f1, [%rd3];
  mov.u64 %rd4, tile;
  add.u64 %rd4, %rd4, %rd2;
  st.shared.f32 [%rd4], %f1;
  mov.u32 %r2, 16;
loop:
  bar.sync 0;
  setp.ge.u32 %p1, %r1, %r2;
  @%p1 bra skip;
  add.u32 %r3, %r1, %r2;
  cvt.u64.u32 %rd5, %r3;
  shl.u64 %rd5, %rd5, 2;
  mov.u64 %rd6, tile;
  add.u64 %rd6, %rd6, %rd5;
  ld.shared.f32 %f2, [%rd6];
  ld.shared.f32 %f3, [%rd4];
  add.f32 %f3, %f3, %f2;
  st.shared.f32 [%rd4], %f3;
skip:
  shr.u32 %r2, %r2, 1;
  setp.gt.u32 %p1, %r2, 0;
  @%p1 bra loop;
  setp.ne.u32 %p1, %r1, 0;
  @%p1 bra done;
  ld.shared.f32 %f3, [tile];
  ld.param.u64 %rd7, [out];
  st.global.f32 [%rd7], %f3;
done:
  ret;
}
"#;

    fn run_reduction(config: &ExecConfig) -> f32 {
        let dev = device(REDUCTION);
        let data = dev.malloc(32 * 4).unwrap();
        let out = dev.malloc(4).unwrap();
        dev.copy_f32_htod(data, &(1..=32).map(|i| i as f32).collect::<Vec<_>>()).unwrap();
        let args = [ParamValue::Ptr(data), ParamValue::Ptr(out)];
        dev.launch("reduce_sum", [1, 1, 1], [32, 1, 1], &args, config).unwrap();
        dev.copy_f32_dtoh(out, 1).unwrap()[0]
    }

    #[test]
    fn barrier_reduction_all_policies() {
        // sum(1..=32) = 528.
        assert_eq!(run_reduction(&ExecConfig::baseline().with_workers(1)), 528.0);
        assert_eq!(run_reduction(&ExecConfig::dynamic(4).with_workers(1)), 528.0);
        assert_eq!(run_reduction(&ExecConfig::static_tie(4).with_workers(1)), 528.0);
        assert_eq!(run_reduction(&ExecConfig::dynamic(2).with_workers(1)), 528.0);
    }

    #[test]
    fn zero_grid_is_rejected() {
        let dev = device(VECADD);
        let null = ParamValue::Ptr(DevicePtr(0));
        let args = [null, null, null, ParamValue::U32(0)];
        let err = dev
            .launch("vecadd", [0, 1, 1], [32, 1, 1], &args, &ExecConfig::baseline())
            .unwrap_err();
        assert!(matches!(err, CoreError::BadLaunch(_)));
    }

    #[test]
    fn eager_translation_failure_is_counted_per_submission() {
        // Guarded stores parse and validate but are outside the
        // translatable subset, so registration succeeds and the failure
        // surfaces at launch submission (eager pre-translation).
        const GUARDED: &str = r#"
.kernel guarded (.param .u32 n) {
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
entry:
  ld.param.u32 %r1, [n];
  setp.lt.u32 %p1, %r1, 10;
  @%p1 st.global.u32 [0], %r1;
  ret;
}
"#;
        let dev = device(GUARDED);
        for attempt in 1..=2u64 {
            let err = dev
                .launch(
                    "guarded",
                    [1, 1, 1],
                    [1, 1, 1],
                    &[ParamValue::U32(0)],
                    &ExecConfig::baseline(),
                )
                .unwrap_err();
            assert!(matches!(err, CoreError::Unsupported { .. }), "{err:?}");
            assert_eq!(
                dev.cache_stats().spec_failures,
                attempt,
                "each failed submission must be counted"
            );
        }
    }

    #[test]
    fn adapt_config_candidates_and_mode_parse() {
        let c = AdaptConfig::on().with_candidates(&[4, 8, 16, 99]);
        assert_eq!(c.mode, AdaptMode::On);
        assert!(c.is_candidate(4) && c.is_candidate(16));
        assert!(!c.is_candidate(99) && !c.is_candidate(2));
        assert_eq!(c.candidate_widths(), vec![4, 8, 16]);
        assert_eq!(AdaptMode::parse("observe"), Ok(AdaptMode::Observe));
        assert_eq!(AdaptMode::parse("on"), Ok(AdaptMode::On));
        let err = AdaptMode::parse("sometimes").unwrap_err();
        assert!(err.to_string().contains("sometimes"), "{err}");
        assert_eq!(AdaptConfig::default().mode, AdaptMode::Off);
        assert_eq!(AdaptConfig::off().with_threshold(0).hotness_threshold, 1);
    }

    #[test]
    fn warp_fractions_sum_to_one() {
        let (_, stats) = run_vecadd(&ExecConfig::dynamic(4).with_workers(1));
        let total: f64 = stats.warp_size_fractions().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
