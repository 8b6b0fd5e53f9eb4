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
//! whichever pool workers are free — a blocking launch runs chunk 0 on
//! its calling thread — so independent launches (and different streams
//! and devices) overlap while launches queued on one
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

/// Configures nothing: a dynamic launch runs at the width it asks for.
/// Kept only because `dpvk-bench` calls it; the next `benchmark` PR
/// removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptConfig;

impl AdaptConfig {
    /// The only value. Kept only because `dpvk-bench` calls it; the next
    /// `benchmark` PR removes it.
    pub fn off() -> Self {
        AdaptConfig
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
    /// Which guest interpreter runs warp bodies.
    pub engine: Engine,
}

impl ExecConfig {
    /// Dynamic warp formation at the given maximum width, on the
    /// session's engine (`DPVK_ENGINE`, else [`Engine::default`]).
    pub fn dynamic(max_warp: u32) -> Self {
        ExecConfig {
            policy: FormationPolicy::Dynamic,
            max_warp,
            workers: 0,
            limits: ExecLimits::default(),
            engine: crate::config::get().engine,
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

    /// Split the launch into `n` chunks: for a blocking
    /// [`Device::launch`](crate::runtime::Device::launch), the calling
    /// thread plus up to `n − 1` pool workers; for an asynchronous or
    /// stream launch, up to `n` pool workers.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Run warp bodies on the given guest engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Does nothing. Kept only because `dpvk-bench` calls it; the next
    /// `benchmark` PR removes it.
    #[must_use]
    pub fn with_adapt(self, _adapt: AdaptConfig) -> Self {
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
    fn warp_fractions_sum_to_one() {
        let (_, stats) = run_vecadd(&ExecConfig::dynamic(4).with_workers(1));
        let total: f64 = stats.warp_size_fractions().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
