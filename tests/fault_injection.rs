//! Fault-injection acceptance suite for the hardened execution manager.
//!
//! Runs only with `--features fault-inject`; each test installs a
//! [`dpvk::core::faults::FaultPlan`] (which also serializes the tests
//! against each other through a process-wide gate) and drives one
//! recovery path: panic containment, deadline kill, scalar downgrade,
//! fault provenance, and host cancellation.

#![cfg(feature = "fault-inject")]

mod common;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dpvk::core::faults::{install, FaultPlan, SlowWarps};
use dpvk::core::{CancelToken, CoreError, Device, Engine, ExecConfig, ParamValue, Variant};
use dpvk::trace::timeline::{self, SpanKind};
use dpvk::vm::{MachineModel, VmError};

/// Both guest engines must survive every recovery path identically.
const ENGINES: [Engine; 2] = [Engine::Bytecode, Engine::Jit];

/// In-place `data[i] *= 3` over `n` u32 elements.
const TRIPLE: &str = r#"
.kernel triple (.param .u64 data, .param .u32 n) {
  .reg .u32 %r<3>;
  .reg .u64 %rd<2>;
  .reg .pred %p<1>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [data];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r2, [%rd1];
  mul.lo.u32 %r2, %r2, 3;
  st.global.u32 [%rd1], %r2;
done:
  ret;
}
"#;

/// A kernel that never terminates: the only block branches to itself.
const SPIN: &str = r#"
.kernel spin (.param .u32 n) {
  .reg .u32 %r<1>;
entry:
  bra entry;
}
"#;

fn device(src: &str) -> Device {
    // No persistent cache: fault plans target the compile path (e.g.
    // `fail_specialize_width`), which a warm disk artifact would bypass.
    let dev = Device::with_persist(MachineModel::sandybridge_sse(), 4 << 20, None);
    dev.register_source(src).unwrap();
    dev
}

/// Upload `0..n`, run `triple` with `config`, return the buffer.
fn launch_triple(
    dev: &Device,
    grid: u32,
    block: u32,
    n: u32,
    config: &ExecConfig,
) -> (Result<dpvk::core::LaunchStats, CoreError>, Vec<u32>) {
    let ptr = dev.malloc(n as usize * 4).unwrap();
    let input: Vec<u32> = (0..n).collect();
    dev.copy_u32_htod(ptr, &input).unwrap();
    let result = dev.launch(
        "triple",
        [grid, 1, 1],
        [block, 1, 1],
        &[ParamValue::Ptr(ptr), ParamValue::U32(n)],
        config,
    );
    let out = dev.copy_u32_dtoh(ptr, n as usize).unwrap();
    (result, out)
}

#[test]
fn injected_panic_is_contained_and_prior_ctas_complete() {
    // One worker walks CTAs in order, so a panic at the LAST CTA means
    // every earlier CTA has already finished: containment is observable
    // as correct output for CTAs 0..3 and untouched output for CTA 3.
    let guard = install(FaultPlan { panic_at_cta: Some(3), ..Default::default() });
    let dev = device(TRIPLE);

    // The injected panic would otherwise spam the test log through the
    // default panic hook; silence it just for the faulting launch. The
    // injection gate serializes this suite, so no other test's panic
    // message can be swallowed by the no-op hook.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (result, out) = launch_triple(&dev, 4, 8, 32, &ExecConfig::dynamic(4).with_workers(1));
    std::panic::set_hook(prev_hook);

    match result {
        Err(CoreError::WorkerPanic { worker, cta, payload }) => {
            assert_eq!(worker, 0);
            assert_eq!(cta, 3);
            assert!(payload.contains("injected fault"), "payload: {payload}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    for (i, &v) in out.iter().enumerate() {
        if i < 24 {
            assert_eq!(v, (i as u32) * 3, "CTA {} output clobbered", i / 8);
        } else {
            assert_eq!(v, i as u32, "panicked CTA should not have written");
        }
    }

    // The device (cache, heap, global memory) survives the contained
    // panic: a clean relaunch on the same device succeeds.
    guard.clear();
    let (result, out) = launch_triple(&dev, 4, 8, 32, &ExecConfig::dynamic(4).with_workers(1));
    result.unwrap();
    assert!(out.iter().enumerate().all(|(i, &v)| v == (i as u32) * 3));
}

#[test]
fn panic_in_one_async_launch_fails_only_its_handle() {
    // The fault plan keys on the flat CTA index: the victim's 4-CTA grid
    // reaches CTA 3 and panics; the sibling's 3-CTA grid (flat CTAs
    // 0..=2) never does. Both run concurrently on the device's
    // persistent pool — the panic must fail exactly one handle, leave
    // the sibling's results intact, and leave the pool serviceable.
    let guard = install(FaultPlan { panic_at_cta: Some(3), ..Default::default() });
    let dev = device(TRIPLE);
    let config = ExecConfig::dynamic(4).with_workers(1);

    let n_victim = 32u32;
    let n_sib = 24u32;
    let pv = dev.malloc(n_victim as usize * 4).unwrap();
    let ps = dev.malloc(n_sib as usize * 4).unwrap();
    dev.copy_u32_htod(pv, &(0..n_victim).collect::<Vec<_>>()).unwrap();
    dev.copy_u32_htod(ps, &(0..n_sib).collect::<Vec<_>>()).unwrap();

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let victim = dev
        .launch_async(
            "triple",
            [4, 1, 1],
            [8, 1, 1],
            &[ParamValue::Ptr(pv), ParamValue::U32(n_victim)],
            &config,
        )
        .unwrap();
    let sibling = dev
        .launch_async(
            "triple",
            [3, 1, 1],
            [8, 1, 1],
            &[ParamValue::Ptr(ps), ParamValue::U32(n_sib)],
            &config,
        )
        .unwrap();
    let victim_result = victim.wait();
    std::panic::set_hook(prev_hook);

    match victim_result {
        Err(CoreError::WorkerPanic { cta, payload, .. }) => {
            assert_eq!(cta, 3);
            assert!(payload.contains("injected fault"), "payload: {payload}");
        }
        other => panic!("expected WorkerPanic on the victim handle, got {other:?}"),
    }

    // Only the victim's handle failed; the sibling completed correctly.
    sibling.wait().expect("sibling launch must be unaffected by the panic");
    let out = dev.copy_u32_dtoh(ps, n_sib as usize).unwrap();
    assert!(
        out.iter().enumerate().all(|(i, &v)| v == (i as u32) * 3),
        "sibling clobbered: {out:?}"
    );

    // The pool's worker threads survived the contained panic: with the
    // plan uninstalled, the same device runs the victim grid cleanly.
    guard.clear();
    dev.copy_u32_htod(pv, &(0..n_victim).collect::<Vec<_>>()).unwrap();
    dev.launch(
        "triple",
        [4, 1, 1],
        [8, 1, 1],
        &[ParamValue::Ptr(pv), ParamValue::U32(n_victim)],
        &config,
    )
    .unwrap();
    let out = dev.copy_u32_dtoh(pv, n_victim as usize).unwrap();
    assert!(out.iter().enumerate().all(|(i, &v)| v == (i as u32) * 3));
    dev.synchronize();
}

#[test]
fn a_panic_in_chunk_zero_is_contained_on_the_launching_thread() {
    // A blocking launch runs its chunk 0 (CTAs 0 and 2 of four, two
    // chunks) on the calling thread, so the panic at CTA 0 unwinds
    // there: it must become the launch's `WorkerPanic`, and the thread
    // must go on to launch again on the same device.
    let guard = install(FaultPlan { panic_at_cta: Some(0), ..Default::default() });
    let dev = device(TRIPLE);
    let config = ExecConfig::dynamic(4).with_workers(2);

    let panicked_on = Arc::new(Mutex::new(Vec::new()));
    let prev_hook = std::panic::take_hook();
    {
        let panicked_on = Arc::clone(&panicked_on);
        std::panic::set_hook(Box::new(move |_| {
            panicked_on.lock().unwrap().push(std::thread::current().id());
        }));
    }
    let (result, _) = launch_triple(&dev, 4, 8, 32, &config);
    std::panic::set_hook(prev_hook);

    match result {
        Err(CoreError::WorkerPanic { worker, cta, payload }) => {
            assert_eq!((worker, cta), (0, 0));
            assert!(payload.contains("injected fault"), "payload: {payload}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    let panicked_on = panicked_on.lock().unwrap().clone();
    assert_eq!(
        panicked_on,
        [std::thread::current().id()],
        "chunk 0 must panic on the launching thread, once"
    );

    guard.clear();
    let (result, out) = launch_triple(&dev, 4, 8, 32, &config);
    result.expect("the launching thread's next launch must succeed");
    assert!(out.iter().enumerate().all(|(i, &v)| v == (i as u32) * 3));
}

#[test]
fn a_blocking_launch_run_by_its_caller_stops_when_cancelled_from_another_thread() {
    // One chunk: the whole launch runs on the calling thread, 64 CTAs
    // of one 15 ms warp each (~960 ms). Another thread cancels the
    // token after 60 ms.
    let _guard = install(FaultPlan {
        slow_warps: Some(SlowWarps {
            seed: 0xCA11,
            fraction: 1.0,
            delay: Duration::from_millis(15),
        }),
        ..Default::default()
    });
    let dev = device(TRIPLE);
    let n = 64u32 * 4;
    let ptr = dev.malloc(n as usize * 4).unwrap();
    dev.copy_u32_htod(ptr, &(0..n).collect::<Vec<_>>()).unwrap();

    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            token.cancel();
        })
    };
    let start = Instant::now();
    let err = dev
        .launch_cancellable(
            "triple",
            [64, 1, 1],
            [4, 1, 1],
            &[ParamValue::Ptr(ptr), ParamValue::U32(n)],
            &ExecConfig::dynamic(4).with_workers(1),
            &token,
        )
        .unwrap_err();
    let elapsed = start.elapsed();
    canceller.join().unwrap();

    assert!(err.is_cancelled(), "expected cancellation, got {err:?}");
    assert!(
        elapsed < Duration::from_millis(600),
        "cancellation should beat the ~960ms uncancelled runtime: {elapsed:?}"
    );
}

#[test]
fn deadline_kills_a_runaway_kernel_within_twice_the_budget() {
    // Hold the gate: this test reads global trace counters.
    let _guard = install(FaultPlan::default());
    dpvk::trace::enable();
    dpvk::trace::reset();

    let dev = device(SPIN);
    let budget = Duration::from_millis(250);
    for engine in ENGINES {
        let start = Instant::now();
        let err = dev
            .launch_with_deadline(
                "spin",
                [2, 1, 1],
                [8, 1, 1],
                &[ParamValue::U32(0)],
                &ExecConfig::dynamic(4).with_workers(2).with_engine(engine),
                budget,
            )
            .unwrap_err();
        let elapsed = start.elapsed();

        assert!(err.is_deadline(), "[{engine:?}] expected deadline fault, got {err:?}");
        let msg = err.to_string();
        assert!(msg.contains("spin") && msg.contains("CTA"), "missing provenance: {msg}");
        assert!(
            elapsed < budget * 2,
            "[{engine:?}] runaway kernel outlived 2x budget: {elapsed:?} vs {budget:?}"
        );
    }

    // The warps that were interrupted mid-interpretation are visible in
    // the trace as cancelled warps, and each engine's dispatch counter
    // saw its launch.
    let report = dpvk::trace::TraceReport::capture();
    dpvk::trace::disable();
    assert!(report.counter("cancelled_warps") >= 1, "counters: {:?}", report.counters);
    assert!(report.counter("faults") >= 2);
    assert!(report.counter("warps_bytecode") >= 1, "counters: {:?}", report.counters);
    let jit = report.counter("warps_jit") + report.counter("jit_fallback_warps");
    assert!(jit >= 1, "counters: {:?}", report.counters);
}

#[test]
fn failed_specialization_downgrades_to_scalar_and_is_counted() {
    let _guard = install(FaultPlan { fail_specialize_width: Some(4), ..Default::default() });
    dpvk::trace::enable();
    dpvk::trace::reset();

    let dev = device(TRIPLE);
    let (result, out) = launch_triple(&dev, 4, 16, 64, &ExecConfig::dynamic(4).with_workers(1));
    let stats = result.expect("downgrade must rescue the launch, not fail it");

    // Degraded, not wrong: every element is still tripled.
    assert!(out.iter().enumerate().all(|(i, &v)| v == (i as u32) * 3));

    // The downgrade is visible at every level: cache stats, launch
    // stats, trace counters, and one marker on the launch's timeline.
    let cache = dev.cache_stats();
    assert!(cache.spec_failures >= 1, "cache stats: {cache:?}");
    assert!(cache.downgrades >= 1, "cache stats: {cache:?}");
    assert!(stats.exec.downgraded_warps >= 1, "exec stats: {:?}", stats.exec);

    let report = dpvk::trace::TraceReport::capture();
    let records = timeline::launch_records();
    dpvk::trace::disable();
    dpvk::trace::reset();
    assert!(report.counter("spec_failures") >= 1);
    assert!(report.counter("downgraded_warps") >= 1);
    assert_eq!(records.len(), 1, "{records:?}");
    let markers: Vec<_> =
        records[0].spans.iter().filter(|s| s.kind == SpanKind::Downgrade).collect();
    assert_eq!(markers.len(), 1, "{markers:?}");
    assert_eq!((markers[0].dur_ns, markers[0].detail), (0, 4), "a marker at the refused width");

    // The failure text is the memoized error the cache answers with.
    let err = dev.cache().get("triple", 4, Variant::Dynamic).expect_err("memoized failure");
    assert!(err.to_string().contains("injected fault: forced verify failure"), "{err}");
}

#[test]
fn injected_vm_fault_carries_full_provenance() {
    let _guard = install(FaultPlan { oob_at_cta: Some(1), ..Default::default() });
    let dev = device(TRIPLE);
    for engine in ENGINES {
        let config = ExecConfig::dynamic(4).with_workers(1).with_engine(engine);
        let (result, _) = launch_triple(&dev, 2, 4, 8, &config);

        match result {
            Err(CoreError::Fault { context, source }) => {
                assert_eq!(context.kernel, "triple");
                assert_eq!(context.cta, 1);
                assert!(!context.thread_ids.is_empty(), "warp thread ids missing");
                assert!(matches!(source, VmError::OutOfBounds { .. }), "source: {source:?}");
                let msg = CoreError::Fault { context, source }.to_string();
                assert!(
                    msg.contains("kernel `triple`") && msg.contains("CTA 1"),
                    "display lacks provenance: {msg}"
                );
            }
            other => panic!("[{engine:?}] expected Fault with provenance, got {other:?}"),
        }
    }
}

#[test]
fn host_cancellation_stops_slow_warps_early() {
    // 64 CTAs, every warp sleeps 15ms: a full run on 2 workers needs
    // ~480ms. Cancel after 60ms and require the launch to return well
    // before the uncancelled finish line.
    let _guard = install(FaultPlan {
        slow_warps: Some(SlowWarps {
            seed: 0x5eed,
            fraction: 1.0,
            delay: Duration::from_millis(15),
        }),
        ..Default::default()
    });
    let dev = device(TRIPLE);
    let n = 64u32 * 4;
    let ptr = dev.malloc(n as usize * 4).unwrap();
    dev.copy_u32_htod(ptr, &(0..n).collect::<Vec<_>>()).unwrap();

    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            token.cancel();
        })
    };
    let start = Instant::now();
    let err = dev
        .launch_cancellable(
            "triple",
            [64, 1, 1],
            [4, 1, 1],
            &[ParamValue::Ptr(ptr), ParamValue::U32(n)],
            &ExecConfig::dynamic(4).with_workers(2),
            &token,
        )
        .unwrap_err();
    let elapsed = start.elapsed();
    canceller.join().unwrap();

    assert!(err.is_cancelled(), "expected cancellation, got {err:?}");
    assert!(err.to_string().contains("triple"), "missing provenance: {err}");
    assert!(
        elapsed < Duration::from_millis(400),
        "cancellation should beat the ~480ms uncancelled runtime: {elapsed:?}"
    );
}

#[test]
fn eviction_under_pressure_never_touches_a_buffer_in_flight() {
    // Slow every warp so the launch holds its buffer in flight for
    // hundreds of milliseconds while the host thread drives the heap
    // through exhaustion and forced eviction. Eviction only consumes
    // *freed* idle blocks, so the launch's live buffer must come out
    // bit-exact no matter how much churn coalesces around it.
    let _guard = install(FaultPlan {
        slow_warps: Some(SlowWarps {
            seed: 0xE51C,
            fraction: 1.0,
            delay: Duration::from_millis(10),
        }),
        ..Default::default()
    });
    let dev = Device::with_persist(MachineModel::sandybridge_sse(), 1 << 18, None);
    dev.register_source(TRIPLE).unwrap();

    let n = 16u32 * 8;
    let ptr = dev.malloc(n as usize * 4).unwrap();
    dev.copy_u32_htod(ptr, &(0..n).collect::<Vec<_>>()).unwrap();
    let handle = dev
        .launch_async(
            "triple",
            [16, 1, 1],
            [8, 1, 1],
            &[ParamValue::Ptr(ptr), ParamValue::U32(n)],
            &ExecConfig::dynamic(4).with_workers(1),
        )
        .unwrap();

    // While the kernel runs: fill the heap, free everything, then
    // demand blocks of a class no free list holds — each round forces
    // the allocator to evict and coalesce idle corpses.
    for _round in 0..3 {
        let mut hog = Vec::new();
        while let Ok(p) = dev.malloc(8 << 10) {
            hog.push(p);
        }
        assert!(!hog.is_empty(), "pressure loop never allocated");
        for p in hog {
            dev.free(p).unwrap();
        }
        let big = dev.malloc(16 << 10).expect("eviction must rescue the large request");
        dev.free(big).unwrap();
    }
    let stats = dev.memory_stats();
    assert!(stats.evicted_bytes > 0, "pressure loop never forced eviction: {stats:?}");

    handle.wait().expect("launch must survive concurrent eviction");
    let out = dev.copy_u32_dtoh(ptr, n as usize).unwrap();
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, 3 * i as u32, "element {i}: in-flight buffer corrupted by eviction");
    }
    dev.free(ptr).unwrap();
    assert_eq!(dev.heap_used(), 0);
}

/// `data[i] *= 2` — a second kernel so the serving test's bystander
/// tenant owns its own entry point.
const DOUBLE: &str = r#"
.kernel dbl (.param .u64 data, .param .u32 n) {
  .reg .u32 %r<3>;
  .reg .u64 %rd<2>;
  .reg .pred %p<1>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [data];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r2, [%rd1];
  mul.lo.u32 %r2, %r2, 2;
  st.global.u32 [%rd1], %r2;
done:
  ret;
}
"#;

#[test]
fn server_retries_injected_panic_and_leaves_other_tenants_bit_identical() {
    use dpvk::server::{Client, LaunchSpec, Response, Server, ServerConfig, WireBuffer, WireParam};

    // The plan keys on the flat CTA index: tenant `faulty` launches an
    // 8-CTA grid whose CTA 7 panics exactly once (the budget), while
    // tenant `bystander`'s 4-CTA grid can never reach CTA 7. The server
    // must retry the panicked launch transparently and the bystander's
    // outputs must be bit-identical to its fault-free runs.
    let _guard =
        install(FaultPlan { panic_at_cta: Some(7), panic_budget: Some(1), ..Default::default() });
    dpvk::trace::enable();
    dpvk::trace::reset();

    let server =
        Server::bind(MachineModel::sandybridge_sse(), 8 << 20, ServerConfig::default()).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    let mut faulty = Client::connect(addr).unwrap();
    let mut bystander = Client::connect(addr).unwrap();
    assert_eq!(faulty.register("faulty", TRIPLE).unwrap(), Response::Registered);
    assert_eq!(bystander.register("bystander", DOUBLE).unwrap(), Response::Registered);

    let bystander_spec = || LaunchSpec {
        tenant: "bystander".into(),
        kernel: "dbl".into(),
        grid: [4, 1, 1],
        block: [8, 1, 1],
        deadline_ms: 0,
        buffers: vec![WireBuffer {
            bytes: (0u32..32).flat_map(u32::to_le_bytes).collect(),
            read_back: true,
        }],
        params: vec![WireParam::Buffer(0), WireParam::U32(32)],
    };

    // Reference digest: the plan cannot trip on a 4-CTA grid, so this
    // run *is* the fault-free behavior.
    let reference = match bystander.launch(bystander_spec()).unwrap() {
        Response::Launched { outputs, .. } => {
            let out = &outputs[0];
            assert_eq!(u32::from_le_bytes(out[12..16].try_into().unwrap()), 6);
            common::digest_bytes(out)
        }
        other => panic!("reference launch failed: {other:?}"),
    };

    // The injected panic inside the server's launch would spam the
    // log through the default hook; silence it for the serving window.
    // The injection gate serializes this suite, so no other test's
    // panic message is swallowed.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let bystander_thread = std::thread::spawn(move || {
        let mut digests = Vec::new();
        for _ in 0..5 {
            match bystander.launch(bystander_spec()).unwrap() {
                Response::Launched { attempts, degraded, outputs } => {
                    assert_eq!(attempts, 1, "bystander must never need retries");
                    assert!(!degraded);
                    digests.push(common::digest_bytes(&outputs[0]));
                }
                other => panic!("bystander shed or failed: {other:?}"),
            }
        }
        digests
    });

    let faulty_resp = faulty
        .launch(LaunchSpec {
            tenant: "faulty".into(),
            kernel: "triple".into(),
            grid: [8, 1, 1],
            block: [8, 1, 1],
            deadline_ms: 0,
            buffers: vec![WireBuffer {
                bytes: (0u32..64).flat_map(u32::to_le_bytes).collect(),
                read_back: true,
            }],
            params: vec![WireParam::Buffer(0), WireParam::U32(64)],
        })
        .unwrap();
    let digests = bystander_thread.join().unwrap();
    std::panic::set_hook(prev_hook);

    // The panicked first attempt was retried with re-uploaded inputs:
    // one retry, correct (not double-applied) output, no degradation.
    match faulty_resp {
        Response::Launched { attempts, degraded, outputs } => {
            assert_eq!(attempts, 2, "exactly one retry after the budgeted panic");
            assert!(!degraded, "retry succeeded before the scalar rung");
            let out: Vec<u32> = outputs[0]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, 3 * i as u32, "element {i} after retry");
            }
        }
        other => panic!("expected retried Launched, got {other:?}"),
    }

    // Bit-identical bystander runs while the fault was tripping next door.
    for (i, &d) in digests.iter().enumerate() {
        assert_eq!(d, reference, "bystander run {i} diverged from fault-free digest");
    }

    // The retry is visible end-to-end: per-tenant wire stats and the
    // global trace counters.
    let stats = faulty.stats("faulty").unwrap();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    let bystats = faulty.stats("bystander").unwrap();
    assert_eq!(bystats.retries, 0);
    assert_eq!(bystats.completed, 6);

    let report = dpvk::trace::TraceReport::capture();
    dpvk::trace::disable();
    assert!(report.counter("server_retries") >= 1, "counters: {:?}", report.counters);
    assert!(report.counter("server_completed") >= 7, "counters: {:?}", report.counters);
    assert!(report.counter("faults") >= 1, "the panicked attempt must be traced as a fault");

    handle.shutdown();
}
