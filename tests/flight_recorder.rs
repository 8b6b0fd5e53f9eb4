//! Integration tests of the flight recorder: per-launch span timelines
//! with Chrome-trace export, the µop-level bytecode profiler, and the
//! delta-capable metrics snapshot — plus the dark-by-default guarantee
//! that none of it records anything while tracing is off.

use std::sync::Mutex;

use dpvk::core::{Device, Engine, ExecConfig, LaunchStats, ParamValue};
use dpvk::trace::timeline::SpanKind;
use dpvk::trace::{self, profile, timeline, Counter};
use dpvk::vm::MachineModel;

/// The tracer is process-global; tests in this binary serialize on this
/// lock and reset state around themselves.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Collatz step counts: data-dependent trip counts, so warps diverge,
/// re-form at several widths, and exercise every µop path the profiler
/// attributes (loads, stores, compares, terminators).
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

fn run_divergent(config: &ExecConfig) -> LaunchStats {
    run_collatz(config).0
}

/// [`run_divergent`], also returning the step counts it wrote.
fn run_collatz(config: &ExecConfig) -> (LaunchStats, Vec<u32>) {
    let n = 128usize;
    // No persistent cache: these tests assert on cold-compile spans
    // (Specialize/Decode), which a warm disk cache legitimately skips.
    let dev = Device::with_persist(MachineModel::sandybridge_sse(), 4 << 20, None);
    dev.register_source(DIVERGENT).unwrap();
    let seeds: Vec<u32> = (0..n as u32).map(|i| i * 7 + 1).collect();
    let ps = dev.malloc(n * 4).unwrap();
    let po = dev.malloc(n * 4).unwrap();
    dev.copy_u32_htod(ps, &seeds).unwrap();
    let stats = dev
        .launch(
            "collatz_steps",
            [(n as u32).div_ceil(32), 1, 1],
            [32, 1, 1],
            &[ParamValue::Ptr(ps), ParamValue::Ptr(po), ParamValue::U32(n as u32)],
            config,
        )
        .unwrap();
    (stats, dev.copy_u32_dtoh(po, n).unwrap())
}

#[test]
fn timeline_records_nested_launch_spans_and_exports_chrome_json() {
    let _guard = TRACE_LOCK.lock().unwrap();

    // Chunk pickup is a shared-queue race: a fast worker can drain both
    // chunks before its peer wakes, so retry until a launch lands on two
    // distinct worker tracks (overwhelmingly the first attempt).
    let mut picked = None;
    for _ in 0..32 {
        trace::reset();
        trace::enable();
        run_divergent(&ExecConfig::dynamic(4).with_workers(2));
        let records = timeline::launch_records();
        let totals = timeline::span_totals();
        let chrome = timeline::chrome_trace();
        trace::disable();

        // Exactly one launch drew a sequence number each attempt.
        assert_eq!(records.len(), 1, "{records:?}");
        let rec = records.into_iter().next().unwrap();
        let workers: Vec<_> =
            rec.spans.iter().filter(|s| s.kind == SpanKind::Execute).map(|s| s.worker).collect();
        if workers.len() == 2 && workers[0] != workers[1] {
            picked = Some((rec, totals, chrome));
            break;
        }
    }
    trace::reset();
    let (rec, totals, chrome) = picked.expect("chunks never landed on two distinct worker tracks");
    let rec = &rec;
    assert!(rec.seq >= 1);
    assert_eq!(rec.kernel, "collatz_steps");
    assert!(!rec.spans.is_empty());
    assert!(rec.spans.iter().all(|s| s.seq == rec.seq && *s.kernel == *rec.kernel));

    let of = |kind: SpanKind| rec.spans.iter().filter(|s| s.kind == kind).collect::<Vec<_>>();

    // Lifecycle spans: one queue-wait, one retire, both on the stream
    // track (no worker).
    assert_eq!(of(SpanKind::QueueWait).len(), 1);
    let retire = of(SpanKind::Retire);
    assert_eq!(retire.len(), 1);
    assert!(retire[0].worker.is_none());

    // Two workers → two chunks → two execute spans, each on a distinct
    // worker track, each with its coalesced gather child nested inside.
    let execs = of(SpanKind::Execute);
    assert_eq!(execs.len(), 2, "{execs:?}");
    assert!(execs.iter().all(|e| e.worker.is_some()));
    assert_ne!(execs[0].worker, execs[1].worker, "chunks ran on the same track");
    for g in of(SpanKind::Gather) {
        assert!(g.worker.is_some());
        let parent = execs.iter().find(|e| e.worker == g.worker).expect("gather without execute");
        assert!(
            g.start_ns >= parent.start_ns
                && g.start_ns + g.dur_ns <= parent.start_ns + parent.dur_ns,
            "gather span does not nest in its execute span"
        );
    }

    // Compile spans for the cold cache fill, attributed to this launch.
    assert!(!of(SpanKind::Specialize).is_empty());
    assert!(!of(SpanKind::Decode).is_empty());

    // Per-kind totals index the same data: the execute total counts both
    // chunks, and every recorded kind shows up with nonzero calls.
    let total_of = |kind: SpanKind| totals.iter().find(|t| t.kind == kind).unwrap().calls;
    assert_eq!(total_of(SpanKind::Execute), 2);
    assert_eq!(total_of(SpanKind::Retire), 1);

    // Chrome trace-event export: structurally sound JSON with complete
    // events on the worker (pid 1) and stream (pid 2) tracks plus track
    // metadata, without pulling in a JSON parser.
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    assert_eq!(chrome.matches('[').count(), chrome.matches(']').count());
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"ph\":\"X\"") && chrome.contains("\"ph\":\"M\""));
    assert!(chrome.contains("\"pid\":1") && chrome.contains("\"pid\":2"));
    assert!(chrome.contains("\"execute\"") && chrome.contains("\"queue_wait\""));
}

/// The queue wait is the time a translated launch waits for its first
/// chunk: on a cold launch it starts after the eager `translate` span
/// ends instead of containing it.
#[test]
fn queue_wait_starts_after_the_cold_translation() {
    let _guard = TRACE_LOCK.lock().unwrap();
    trace::reset();
    trace::enable();
    run_divergent(&ExecConfig::dynamic(4).with_workers(2));
    let records = timeline::launch_records();
    trace::disable();
    trace::reset();
    assert_eq!(records.len(), 1, "{records:?}");
    let spans = &records[0].spans;
    let one = |kind: SpanKind| {
        let of: Vec<_> = spans.iter().filter(|s| s.kind == kind).collect();
        assert_eq!(of.len(), 1, "{kind:?}: {spans:?}");
        of[0]
    };
    let translate = one(SpanKind::Translate);
    let wait = one(SpanKind::QueueWait);
    assert!(
        wait.start_ns >= translate.start_ns + translate.dur_ns,
        "queue wait {wait:?} starts inside translate {translate:?}"
    );
}

/// Retirement is work — merging the chunks' stats, finalizing, waking
/// the waiter, promoting the stream — and its span measures it: over a
/// batch of launches the summed retire time is not zero.
#[test]
fn retire_spans_measure_the_retirement() {
    let _guard = TRACE_LOCK.lock().unwrap();
    trace::reset();
    trace::enable();
    for _ in 0..8 {
        run_divergent(&ExecConfig::dynamic(4).with_workers(2));
    }
    let spans = timeline::spans();
    trace::disable();
    trace::reset();
    let retire: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Retire).collect();
    assert_eq!(retire.len(), 8);
    let total: u64 = retire.iter().map(|s| s.dur_ns).sum();
    assert!(total > 0, "eight retirements took no time: {retire:?}");
}

#[test]
fn uop_profiler_attributes_every_modeled_cycle_deterministically() {
    let _guard = TRACE_LOCK.lock().unwrap();
    // The profiler sees the bytecode engine's warps only: native code
    // has no per-µop hook.
    let config = ExecConfig::dynamic(4).with_workers(1).with_engine(Engine::Bytecode);

    trace::reset();
    trace::enable();
    let stats_a = run_divergent(&config);
    let total = profile::total_cycles();
    let folded_a = profile::folded();
    let profiles = profile::profiles();
    let hotspots = profile::hotspots(5);
    trace::reset();

    // Exact attribution: every modeled cycle the bytecode engine charged
    // (body + yield; manager cycles are charged by the host, not by
    // µops) appears in the profile. This is the ≥95% acceptance bar met
    // exactly, not approximately.
    assert_eq!(total, stats_a.exec.cycles_body + stats_a.exec.cycles_yield);

    // Aggregation is per kernel × specialization × engine path, rows in
    // opcode order with zero rows omitted.
    assert!(!profiles.is_empty());
    for p in &profiles {
        assert_eq!(p.kernel, "collatz_steps");
        assert!(p.path == "avx2" || p.path == "portable");
        assert!(!p.rows.is_empty());
        // Every row earns its place: dynamic dispatches, or a static
        // µop-mix entry for a compiled-but-undispatched opcode.
        assert!(p.rows.iter().all(|r| r.hits > 0 || r.static_ops > 0));
        // Cycles only ever come with dispatches.
        assert!(p.rows.iter().all(|r| r.hits > 0 || r.cycles == 0));
    }
    // Divergence re-forms warps at full and partial widths; each width
    // is its own specialization entry.
    assert!(profiles.iter().any(|p| p.warp_size == 4));

    // Hotspots rank by attributed cycles.
    assert!(!hotspots.is_empty());
    assert!(hotspots.windows(2).all(|w| w[0].cycles >= w[1].cycles));
    assert!(folded_a.lines().all(|l| l.contains("collatz_steps;w")));

    // Determinism: an identical launch on a fresh device produces the
    // identical profile, line for line.
    trace::enable();
    let stats_b = run_divergent(&config);
    let folded_b = profile::folded();
    trace::disable();
    trace::reset();
    assert_eq!(stats_a, stats_b);
    assert_eq!(folded_a, folded_b);
}

/// Tracing does not change the engine it measures: with the µop
/// profiler on, a JIT launch still runs every warp natively, and its
/// stats and output are those of the same launch untraced.
#[test]
fn traced_jit_launches_run_natively_and_match_untraced_ones() {
    if !dpvk::vm::jit_supported() {
        return;
    }
    let _guard = TRACE_LOCK.lock().unwrap();
    let config = ExecConfig::dynamic(4).with_workers(1).with_engine(Engine::Jit);

    trace::reset();
    trace::disable();
    let untraced = run_collatz(&config);
    trace::enable();
    assert!(profile::uop_enabled(), "the µop profiler is on whenever tracing is");
    let traced = run_collatz(&config);
    let native = trace::counter(Counter::WarpsJit);
    let fallback = trace::counter(Counter::JitFallbackWarps);
    trace::disable();
    trace::reset();

    assert!(native > 0, "no warp ran natively under tracing");
    assert_eq!(fallback, 0, "tracing rerouted {fallback} JIT warps to the interpreter");
    assert_eq!(traced, untraced);
}

#[test]
fn metrics_snapshot_delta_isolates_the_work_in_between() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let config = ExecConfig::dynamic(4).with_workers(1);

    trace::reset();
    trace::enable();
    run_divergent(&config);
    let before = trace::snapshot();
    run_divergent(&config);
    let after = trace::snapshot();
    trace::disable();
    trace::reset();

    // The delta covers exactly the second launch.
    let delta = after.delta(&before);
    assert_eq!(delta.counter(Counter::LaunchesSubmitted), 1);
    assert_eq!(delta.counter(Counter::LaunchesRetired), 1);
    // Identical launches do identical guest work, so the second launch's
    // warp entries are exactly what the first snapshot already held.
    assert_eq!(delta.counter(Counter::WarpEntries), before.counter(Counter::WarpEntries));
    assert_eq!(delta.occupancy(), before.occupancy());
    // `-` is delta with the operands swapped.
    assert_eq!(&after - &before, delta);
    // Deltas never go negative even for monotonic counters observed
    // out of order (saturating semantics).
    let reverse = before.delta(&after);
    assert_eq!(reverse.counter(Counter::LaunchesSubmitted), 0);
}

#[test]
fn disabled_recorder_stays_dark() {
    let _guard = TRACE_LOCK.lock().unwrap();
    trace::reset();
    trace::disable();

    run_divergent(&ExecConfig::dynamic(4).with_workers(2));

    assert!(timeline::spans().is_empty(), "spans recorded while disabled");
    assert!(timeline::launch_records().is_empty());
    assert!(profile::profiles().is_empty(), "µop profile recorded while disabled");
    assert_eq!(profile::total_cycles(), 0);
    let snap = trace::snapshot();
    assert!(snap.counters().all(|(_, v)| v == 0), "counters advanced while disabled");
    trace::reset();
}
