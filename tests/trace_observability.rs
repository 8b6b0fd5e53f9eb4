//! Integration tests of the dpvk-trace observability layer: a
//! known-divergent kernel must produce the expected yield-reason counts,
//! a non-trivial warp-occupancy histogram, a timeline span for every
//! compile phase nested in its parent, and one fault marker per failed
//! launch — and with tracing disabled, nothing at all and bit-identical
//! execution statistics.

use std::sync::Mutex;

use dpvk::core::{CoreError, Device, Engine, ExecConfig, LaunchStats, ParamValue};
use dpvk::trace::timeline::{self, Span, SpanKind};
use dpvk::trace::{self, TraceReport};
use dpvk::vm::MachineModel;

/// The tracer is process-global; tests in this binary serialize on this
/// lock and reset state around themselves.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Collatz step counts: threads iterate data-dependent trip counts, so
/// warps diverge heavily (branch yields) and drain at different times
/// (partial-width warps in the occupancy histogram).
const DIVERGENT: &str = r#"
.kernel collatz_steps (.param .u64 seeds, .param .u64 out, .param .u32 n) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<4>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  shl.u32 %r2, %r0, 2;
  cvt.u64.u32 %rd0, %r2;
  ld.param.u64 %rd1, [seeds];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r3, [%rd1];
  mov.u32 %r4, 0;
loop:
  setp.le.u32 %p1, %r3, 1;
  @%p1 bra store;
  and.b32 %r5, %r3, 1;
  setp.eq.u32 %p2, %r5, 0;
  @%p2 bra even;
  mad.lo.u32 %r3, %r3, 3, 1;
  bra next;
even:
  shr.u32 %r3, %r3, 1;
next:
  add.u32 %r4, %r4, 1;
  bra loop;
store:
  ld.param.u64 %rd2, [out];
  add.u64 %rd2, %rd2, %rd0;
  st.global.u32 [%rd2], %r4;
done:
  ret;
}
"#;

/// A barrier kernel so barrier yields show up too.
const BARRIER: &str = r#"
.kernel twophase (.param .u64 out) {
  .shared .u32 tile[32];
  .reg .u32 %r<4>;
  .reg .u64 %rd<4>;
entry:
  mov.u32 %r0, %tid.x;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  mov.u64 %rd1, tile;
  add.u64 %rd1, %rd1, %rd0;
  st.shared.u32 [%rd1], %r0;
  bar.sync 0;
  xor.b32 %r1, %r0, 31;
  cvt.u64.u32 %rd2, %r1;
  shl.u64 %rd2, %rd2, 2;
  mov.u64 %rd3, tile;
  add.u64 %rd3, %rd3, %rd2;
  ld.shared.u32 %r2, [%rd3];
  ld.param.u64 %rd3, [out];
  add.u64 %rd3, %rd3, %rd0;
  st.global.u32 [%rd3], %r2;
  ret;
}
"#;

fn run_divergent(config: &ExecConfig) -> LaunchStats {
    let n = 128usize;
    // No persistent cache: these tests assert cold-compile phase spans,
    // which a warm disk cache legitimately skips.
    let dev = Device::with_persist(MachineModel::sandybridge_sse(), 4 << 20, None);
    dev.register_source(DIVERGENT).unwrap();
    let seeds: Vec<u32> = (0..n as u32).map(|i| i * 7 + 1).collect();
    let ps = dev.malloc(n * 4).unwrap();
    let po = dev.malloc(n * 4).unwrap();
    dev.copy_u32_htod(ps, &seeds).unwrap();
    dev.launch(
        "collatz_steps",
        [(n as u32).div_ceil(32), 1, 1],
        [32, 1, 1],
        &[ParamValue::Ptr(ps), ParamValue::Ptr(po), ParamValue::U32(n as u32)],
        config,
    )
    .unwrap()
}

fn run_barrier(config: &ExecConfig) -> LaunchStats {
    let dev = Device::with_persist(MachineModel::sandybridge_sse(), 1 << 20, None);
    dev.register_source(BARRIER).unwrap();
    let po = dev.malloc(32 * 4).unwrap();
    dev.launch("twophase", [1, 1, 1], [32, 1, 1], &[ParamValue::Ptr(po)], config).unwrap()
}

#[test]
fn divergent_kernel_yields_and_occupancy() {
    let _guard = TRACE_LOCK.lock().unwrap();
    trace::reset();
    trace::enable();

    run_divergent(&ExecConfig::dynamic(4).with_workers(1));
    run_barrier(&ExecConfig::dynamic(4).with_workers(1));
    let report = TraceReport::capture();
    let records = timeline::launch_records();
    trace::disable();
    trace::reset();

    // Collatz trip counts are data-dependent: warps must yield at
    // divergent branches many times before draining via exit.
    assert!(report.counter("yield_branch") > 0, "no branch yields recorded");
    assert!(report.counter("yield_exit") > 0, "no exit yields recorded");
    assert!(report.counter("yield_barrier") > 0, "no barrier yields recorded");

    // Occupancy: full warps while the pool is deep, partial-width warps
    // as stragglers drain — the histogram must not be single-bucket.
    let nonzero = report.occupancy.iter().filter(|&&c| c > 0).count();
    assert!(nonzero >= 2, "expected a non-trivial occupancy histogram, got {:?}", report.occupancy);
    assert!(report.occupancy.len() > 4 && report.occupancy[4] > 0, "no full warps formed");
    let entries: u64 = report.occupancy.iter().sum();
    assert_eq!(entries, report.counter("warp_entries"));

    // The timeline tells the same story, tagged with the kernel: the
    // execute spans of the two launches count every warp entry.
    let kernels: Vec<&str> = records.iter().map(|r| r.kernel.as_str()).collect();
    assert_eq!(kernels, ["collatz_steps", "twophase"]);
    let warps: u64 = records
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.kind == SpanKind::Execute)
        .map(|s| s.detail)
        .sum();
    assert_eq!(warps, report.counter("warp_entries"));

    // Cache traffic: every (warp size, variant) specialization compiled
    // once; re-entries at the same width hit.
    assert!(report.counter("cache_miss") > 0);
    assert!(report.counter("cache_hit") > 0);

    // The vectorizer promoted something at width 4.
    assert!(report.counter("spec_promoted") > 0, "nothing was vector-promoted");
}

/// Whether `inner` lies within `outer` on the same track.
fn nests_in(inner: &Span, outer: &Span) -> bool {
    (inner.seq, inner.stream, inner.worker) == (outer.seq, outer.stream, outer.worker)
        && inner.start_ns >= outer.start_ns
        && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
}

#[test]
fn compile_phase_timers_nest() {
    let _guard = TRACE_LOCK.lock().unwrap();
    trace::reset();
    trace::enable();

    run_divergent(&ExecConfig::dynamic(4).with_workers(1).with_engine(Engine::Jit));
    let report = TraceReport::capture();
    let spans = timeline::spans();
    trace::disable();
    trace::reset();

    let of = |kind: SpanKind| spans.iter().filter(|s| s.kind == kind).collect::<Vec<_>>();

    // Every compile phase ran and has its span: parse, translate with
    // its two sub-phases, specialize with the four optimizer passes,
    // decode and JIT emit.
    let passes = [SpanKind::ConstFold, SpanKind::Cse, SpanKind::Dce, SpanKind::Fusion];
    for kind in [
        SpanKind::Parse,
        SpanKind::Translate,
        SpanKind::Lower,
        SpanKind::Analyze,
        SpanKind::Specialize,
        SpanKind::Decode,
        SpanKind::JitEmit,
    ]
    .into_iter()
    .chain(passes)
    {
        assert!(!of(kind).is_empty(), "no `{}` span in {spans:?}", kind.name());
    }

    // Translation sub-phases nest in a translate span of their kernel,
    // on the same track.
    for kind in [SpanKind::Lower, SpanKind::Analyze] {
        for s in of(kind) {
            assert!(
                of(SpanKind::Translate).iter().any(|t| t.kernel == s.kernel && nests_in(s, t)),
                "{s:?} outside every translate span"
            );
        }
    }

    // Optimizer passes nest in their specialize span, on the same track.
    for kind in passes {
        for s in of(kind) {
            assert_eq!(&*s.kernel, "collatz_steps", "{s:?}");
            assert!(
                of(SpanKind::Specialize).iter().any(|t| nests_in(s, t)),
                "{s:?} outside every specialize span"
            );
        }
    }

    // Specialize ran once per compiled (warp size, variant) pairing.
    assert_eq!(of(SpanKind::Specialize).len() as u64, report.counter("cache_miss"));
    let total = report.span_totals.iter().find(|t| t.kind == SpanKind::Specialize).unwrap();
    assert_eq!(total.calls, report.counter("cache_miss"));
}

/// `out[tid] = tid` through a caller-supplied pointer: a pointer far
/// outside the heap makes every CTA fault.
const STORE: &str = r#"
.kernel store_tid (.param .u64 out) {
  .reg .u32 %r<1>;
  .reg .u64 %rd<3>;
entry:
  mov.u32 %r0, %tid.x;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %r0;
  ret;
}
"#;

#[test]
fn a_launch_fault_leaves_one_marker_on_its_launch() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let dev = Device::with_persist(MachineModel::sandybridge_sse(), 1 << 20, None);
    dev.register_source(STORE).unwrap();
    let good = dev.malloc(4 * 32).unwrap();
    trace::reset();
    trace::enable();

    let config = ExecConfig::dynamic(4).with_workers(2);
    let launch =
        |ptr: u64| dev.launch("store_tid", [4, 1, 1], [32, 1, 1], &[ParamValue::U64(ptr)], &config);
    launch(good.0).expect("an in-bounds launch succeeds");
    let err = launch(1 << 40).expect_err("an out-of-bounds store faults");
    let records = timeline::launch_records();
    let faults = trace::counter(trace::Counter::Faults);
    trace::disable();
    trace::reset();

    assert!(matches!(err, CoreError::Fault { .. }), "{err:?}");
    assert_eq!(faults, 1);
    let markers = |seq: u64| -> Vec<Span> {
        let rec = records.iter().find(|r| r.seq == seq).expect("launch recorded");
        rec.spans.iter().filter(|s| s.kind == SpanKind::Fault).cloned().collect()
    };
    assert_eq!(records.len(), 2, "{records:?}");
    assert!(markers(records[0].seq).is_empty(), "the good launch has a fault marker");
    let marks = markers(records[1].seq);
    assert_eq!(marks.len(), 1, "every chunk faulted, but the launch failed once: {marks:?}");
    assert_eq!((marks[0].dur_ns, &*marks[0].kernel), (0, "store_tid"));
}

#[test]
fn disabled_tracing_records_nothing_and_preserves_stats() {
    let _guard = TRACE_LOCK.lock().unwrap();
    trace::reset();
    trace::disable();

    let disabled_stats = run_divergent(&ExecConfig::dynamic(4).with_workers(1));
    let report = TraceReport::capture();

    for (name, value) in &report.counters {
        assert_eq!(*value, 0, "counter `{name}` advanced while disabled");
    }
    assert!(timeline::spans().is_empty(), "spans recorded while disabled");
    assert!(report.span_totals.iter().all(|t| t.calls == 0), "{:?}", report.span_totals);
    assert!(report.specializations.is_empty());
    assert!(report.occupancy.iter().all(|&c| c == 0), "{:?}", report.occupancy);

    // Tracing must not perturb execution: identical launch, identical
    // deterministic statistics with tracing on.
    trace::enable();
    let enabled_stats = run_divergent(&ExecConfig::dynamic(4).with_workers(1));
    trace::disable();
    trace::reset();
    assert_eq!(disabled_stats, enabled_stats);
}

#[test]
fn report_round_trips_to_json() {
    let _guard = TRACE_LOCK.lock().unwrap();
    trace::reset();
    trace::enable();

    run_divergent(&ExecConfig::dynamic(4).with_workers(1));
    let report = TraceReport::capture();
    trace::disable();
    trace::reset();

    let json = report.to_json();
    // Structural sanity without a JSON parser dependency: balanced
    // braces, the expected top-level sections, and no raw control bytes.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    for section in [
        "\"counters\"",
        "\"warp_occupancy\"",
        "\"yield_reasons\"",
        "\"specializations\"",
        "\"span_totals\"",
        "\"dropped_spans\":0",
    ] {
        assert!(json.contains(section), "missing {section}");
    }
    assert!(json.contains("\"collatz_steps\""));
    assert!(!json.bytes().any(|b| b < 0x20 && b != b'\n'), "unescaped control bytes");

    let summary = report.summary();
    assert!(summary.contains("warp occupancy"), "{summary}");
}
