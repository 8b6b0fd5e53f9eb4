//! Integration tests of adaptive width specialization (`DPVK_ADAPT=on`
//! semantics driven through [`AdaptConfig`]): a kernel launched at a
//! deliberately bad warp width must converge to the best static width
//! by the policy's own metric (modeled cycles per launch), adaptation
//! must never change computed results across engines or starting
//! widths, and re-specialization events must surface in the trace
//! report and the flight-recorder timeline.

use std::sync::{Mutex, MutexGuard};

use dpvk::core::{AdaptConfig, Device, Engine, ExecConfig, ParamValue};
use dpvk::trace::{self, timeline, TraceReport};
use dpvk::vm::MachineModel;

/// The tracer — and with it the `respec_events` counter — is
/// process-global: every test in this binary that respecializes or reads
/// the trace serializes on this lock.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn trace_lock() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Uniform compute kernel: a fixed-trip-count loop of integer mixing,
/// no divergence, so every width vectorizes fully and the modeled
/// cycle ranking across widths is strict.
const UNIFORM: &str = r#"
.kernel adapt (.param .u64 out) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<3>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  mov.u32 %r1, %r0;
  mov.u32 %r2, 16;
loop:
  mul.lo.u32 %r1, %r1, 2654435761;
  xor.b32 %r1, %r1, %r0;
  add.u32 %r1, %r1, 97;
  sub.u32 %r2, %r2, 1;
  setp.gt.u32 %p0, %r2, 0;
  @%p0 bra loop;
  shl.u32 %r3, %r0, 2;
  cvt.u64.u32 %rd0, %r3;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %r1;
  ret;
}
"#;

/// Divergent kernel: data-dependent trip counts, so warps fragment and
/// the width switch crosses re-formation paths too.
const DIVERGENT: &str = r#"
.kernel adapt (.param .u64 out) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<3>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  and.b32 %r2, %r0, 7;
  add.u32 %r2, %r2, 1;
  mov.u32 %r1, %r0;
loop:
  mul.lo.u32 %r1, %r1, 1103515245;
  add.u32 %r1, %r1, 12345;
  sub.u32 %r2, %r2, 1;
  setp.gt.u32 %p0, %r2, 0;
  @%p0 bra loop;
  shl.u32 %r3, %r0, 2;
  cvt.u64.u32 %rd0, %r3;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %r1;
  ret;
}
"#;

const N: u32 = 128;
const GRID: [u32; 3] = [2, 1, 1];
const BLOCK: [u32; 3] = [64, 1, 1];
const CANDIDATES: [u32; 3] = [2, 4, 8];

fn fresh(src: &str) -> (Device, dpvk::core::DevicePtr) {
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    dev.register_source(src).unwrap();
    let out = dev.malloc(N as usize * 4).unwrap();
    (dev, out)
}

/// Modeled cycles of one launch at a fixed static width, adaptation off.
fn static_cycles(src: &str, width: u32, engine: Engine) -> u64 {
    let (dev, out) = fresh(src);
    let config = ExecConfig::dynamic(width)
        .with_workers(1)
        .with_engine(engine)
        .with_adapt(AdaptConfig::off());
    let stats = dev.launch("adapt", GRID, BLOCK, &[ParamValue::Ptr(out)], &config).unwrap();
    stats.exec.total_cycles()
}

/// Best candidate width by the policy's own metric: fewest modeled
/// cycles per launch, ties to the narrower width (the commit rule).
fn best_static_width(src: &str, engine: Engine) -> (u32, u32) {
    let mut best: Option<(u32, u64)> = None;
    let mut worst: Option<(u32, u64)> = None;
    for &w in &CANDIDATES {
        let c = static_cycles(src, w, engine);
        if best.is_none_or(|(_, bc)| c < bc) {
            best = Some((w, c));
        }
        if worst.is_none_or(|(_, wc)| c > wc) {
            worst = Some((w, c));
        }
    }
    (best.unwrap().0, worst.unwrap().0)
}

/// Drive launches until the policy commits (or the bound is hit);
/// returns the number of launches used.
fn run_until_converged(
    dev: &Device,
    out: dpvk::core::DevicePtr,
    config: &ExecConfig,
    bound: usize,
) -> usize {
    for i in 1..=bound {
        dev.launch("adapt", GRID, BLOCK, &[ParamValue::Ptr(out)], config).unwrap();
        if dev.width_policy("adapt").chosen_width.is_some() {
            return i;
        }
        // Background respecializations compile on the same pool; give
        // the queue a beat so readiness isn't starved by the launch loop.
        dev.synchronize();
    }
    bound
}

/// A kernel launched at the deliberately worst static width converges,
/// within a bounded number of launches, to exactly the width a static
/// sweep of modeled cycles would pick — and stays there.
#[test]
fn converges_to_best_static_width_from_worst_start() {
    let _guard = trace_lock();
    let threshold = 2u32;
    for src in [UNIFORM, DIVERGENT] {
        let (best, worst) = best_static_width(src, Engine::Bytecode);
        let (dev, out) = fresh(src);
        let adapt = AdaptConfig::on().with_threshold(threshold).with_candidates(&CANDIDATES);
        let config = ExecConfig::dynamic(worst).with_workers(1).with_adapt(adapt);

        // Warm-up + one threshold of measurement per candidate, plus
        // slack for background-compile latency: well under this bound.
        let bound = 64;
        let used = run_until_converged(&dev, out, &config, bound);
        let snap = dev.width_policy("adapt");
        assert_eq!(
            snap.chosen_width,
            Some(best),
            "started at w{worst}, expected convergence to static-best w{best}, got {snap:?}"
        );
        assert!(used < bound, "policy did not commit within {bound} launches");
        assert_eq!(snap.active_width, Some(best), "launches not steered to the chosen width");
        // Started inside the candidate set, so every *other* candidate
        // needed one background respecialization.
        assert_eq!(snap.respec_events, (CANDIDATES.len() - 1) as u64);

        // The commitment is sticky: more launches change nothing.
        for _ in 0..4 {
            dev.launch("adapt", GRID, BLOCK, &[ParamValue::Ptr(out)], &config).unwrap();
        }
        assert_eq!(dev.width_policy("adapt").chosen_width, Some(best));
    }
}

/// Observe mode profiles launches but never steers or respecializes.
#[test]
fn observe_mode_counts_without_steering() {
    let (dev, out) = fresh(UNIFORM);
    let config = ExecConfig::dynamic(2).with_workers(1).with_adapt(AdaptConfig::observe());
    for _ in 0..6 {
        dev.launch("adapt", GRID, BLOCK, &[ParamValue::Ptr(out)], &config).unwrap();
    }
    let snap = dev.width_policy("adapt");
    assert_eq!(snap.launches, 6);
    assert_eq!(snap.chosen_width, None);
    assert_eq!(snap.active_width, None);
    assert_eq!(snap.respec_events, 0);
}

/// Width adaptation never changes what is computed: for every engine
/// and every starting width, every launch of an adapting device —
/// including the ones that straddle a width switch — produces the same
/// memory image as a non-adapting reference.
#[test]
fn adaptation_is_bit_identical_across_widths_and_engines() {
    let _guard = trace_lock();
    for src in [UNIFORM, DIVERGENT] {
        for engine in [Engine::Bytecode, Engine::Tree, Engine::Jit] {
            // Reference image from the scalar-equivalent static config.
            let (ref_dev, ref_out) = fresh(src);
            let ref_config = ExecConfig::dynamic(4)
                .with_workers(1)
                .with_engine(engine)
                .with_adapt(AdaptConfig::off());
            ref_dev.launch("adapt", GRID, BLOCK, &[ParamValue::Ptr(ref_out)], &ref_config).unwrap();
            let reference = ref_dev.copy_u32_dtoh(ref_out, N as usize).unwrap();

            for start in CANDIDATES {
                let (dev, out) = fresh(src);
                let adapt = AdaptConfig::on().with_threshold(1).with_candidates(&CANDIDATES);
                let config = ExecConfig::dynamic(start)
                    .with_workers(1)
                    .with_engine(engine)
                    .with_adapt(adapt);
                for launch in 0..12 {
                    dev.launch("adapt", GRID, BLOCK, &[ParamValue::Ptr(out)], &config).unwrap();
                    let got = dev.copy_u32_dtoh(out, N as usize).unwrap();
                    assert_eq!(
                        got,
                        reference,
                        "{} start=w{start} launch {launch}: adaptation changed the output",
                        engine.label()
                    );
                    dev.synchronize();
                }
            }
        }
    }
}

/// Re-specialization is observable: the trace report counts respec
/// events and records the committed width, the JSON export carries
/// both, and the flight recorder emits a `Respecialize` span on the
/// worker track that ran the background compile.
#[test]
fn respec_events_surface_in_trace_and_timeline() {
    let _guard = trace_lock();
    trace::reset();
    trace::enable();

    let (dev, out) = fresh(UNIFORM);
    let adapt = AdaptConfig::on().with_threshold(2).with_candidates(&CANDIDATES);
    let config = ExecConfig::dynamic(CANDIDATES[0]).with_workers(1).with_adapt(adapt);
    run_until_converged(&dev, out, &config, 64);
    let snap = dev.width_policy("adapt");
    assert!(snap.chosen_width.is_some(), "policy did not converge under tracing: {snap:?}");

    let report = TraceReport::capture();
    let spans = timeline::spans();
    trace::disable();
    trace::reset();

    assert_eq!(report.counter("respec_events"), snap.respec_events);
    assert!(
        report.width_chosen.iter().any(|(k, w)| k == "adapt" && Some(*w) == snap.chosen_width),
        "committed width missing from report: {:?}",
        report.width_chosen
    );
    assert!(
        report.width_occupancy.iter().any(|(k, _, warps)| k == "adapt" && *warps > 0),
        "per-width occupancy missing from report"
    );
    let json = report.to_json();
    assert!(json.contains("\"respec_events\""), "respec counter missing from JSON");
    assert!(json.contains("\"width_chosen\""), "width_chosen missing from JSON");
    let respec_spans =
        spans.iter().filter(|s| s.kind == timeline::SpanKind::Respecialize).count() as u64;
    assert_eq!(
        respec_spans, snap.respec_events,
        "timeline Respecialize spans do not match scheduled respecializations"
    );
}
