//! Stream semantics of the persistent executor: launches on one stream
//! run in submission order, launches on different streams overlap when
//! the pool has the workers for it, and cancelling one stream's
//! launch leaves its siblings' results bit-identical. A blocking launch
//! runs on its calling thread, so it completes while every pool worker
//! is busy.

use std::time::{Duration, Instant};

use dpvk::core::{Device, ExecConfig, ParamValue};
use dpvk::vm::MachineModel;

/// `triple`: in-place `data[i] *= 3` (dependent across launches — a
/// chain of k launches yields `*3^k` only if they run in order).
/// `burn`: `iters` loop iterations per thread, then `out[tid] =
/// tid * iters` — pure compute to occupy a worker for a measurable time.
const MODULE: &str = r#"
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

.kernel burn (.param .u64 out, .param .u32 iters) {
  .reg .u32 %r<4>;
  .reg .u64 %rd<2>;
  .reg .pred %p<1>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [iters];
  mov.u32 %r2, 0;
  mov.u32 %r3, 0;
loop:
  add.u32 %r3, %r3, %r0;
  add.u32 %r2, %r2, 1;
  setp.lt.u32 %p0, %r2, %r1;
  @%p0 bra loop;
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %r3;
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

fn device() -> Device {
    let dev = Device::new(MachineModel::sandybridge_sse(), 16 << 20);
    dev.register_source(MODULE).unwrap();
    dev
}

/// The overlap and metrics tests read global trace counters; serialize
/// the whole binary so tests don't perturb each other.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn launches_on_one_stream_run_in_submission_order() {
    let _g = serial();
    let dev = device();
    let n = 256u32;
    let ptr = dev.malloc(n as usize * 4).unwrap();
    let input: Vec<u32> = (1..=n).collect();
    dev.copy_u32_htod(ptr, &input).unwrap();

    let stream = dev.stream();
    let config = ExecConfig::dynamic(4).with_workers(2);
    let args = [ParamValue::Ptr(ptr), ParamValue::U32(n)];
    let handles: Vec<_> = (0..4)
        .map(|_| stream.launch("triple", [n / 64, 1, 1], [64, 1, 1], &args, &config).unwrap())
        .collect();

    // Waiting on the LAST handle implies every earlier launch of the
    // stream has retired: in-order means no successor starts (let alone
    // finishes) before its predecessor completes.
    handles.last().unwrap().wait().unwrap();
    for (i, h) in handles.iter().enumerate() {
        assert!(h.is_finished(), "launch {i} not finished although its successor completed");
        h.try_wait().expect("finished handle must yield a result").unwrap();
    }
    stream.synchronize();
    dev.synchronize();

    // Four dependent in-place triplings compose only when ordered:
    // data[i] = input[i] * 3^4.
    let out = dev.copy_u32_dtoh(ptr, n as usize).unwrap();
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, input[i].wrapping_mul(81), "element {i}");
    }
}

/// Pick a `burn` iteration count that keeps one launch busy for roughly
/// `target` on this machine, so the timing comparison below measures
/// overlap rather than noise.
fn calibrate_burn(dev: &Device, out: dpvk::core::DevicePtr, target: Duration) -> u32 {
    let config = ExecConfig::dynamic(4).with_workers(1);
    let probe = 20_000u32;
    let start = Instant::now();
    dev.launch(
        "burn",
        [1, 1, 1],
        [32, 1, 1],
        &[ParamValue::Ptr(out), ParamValue::U32(probe)],
        &config,
    )
    .unwrap();
    let elapsed = start.elapsed().max(Duration::from_micros(100));
    let scale = target.as_secs_f64() / elapsed.as_secs_f64();
    ((probe as f64 * scale) as u32).clamp(probe, 50_000_000)
}

#[test]
fn two_streams_overlap_on_a_parallel_host() {
    let _g = serial();
    let dev = device();
    let threads = 32u32;
    let pa = dev.malloc(threads as usize * 4).unwrap();
    let pb = dev.malloc(threads as usize * 4).unwrap();
    let config = ExecConfig::dynamic(4).with_workers(1);
    let iters = calibrate_burn(&dev, pa, Duration::from_millis(80));

    // One launch per stream, submitted before either waits.
    dpvk::trace::reset();
    dpvk::trace::enable();
    let (sa, sb) = (dev.stream(), dev.stream());
    assert_ne!(sa.id(), sb.id(), "streams must be distinct");
    let handles = [(&sa, pa), (&sb, pb)].map(|(stream, ptr)| {
        stream
            .launch(
                "burn",
                [1, 1, 1],
                [threads, 1, 1],
                &[ParamValue::Ptr(ptr), ParamValue::U32(iters)],
                &config,
            )
            .unwrap()
    });
    for h in &handles {
        h.wait().unwrap();
    }
    let busy_peak = dpvk::trace::TraceReport::capture().counter("pool_busy_peak");
    dpvk::trace::disable();
    dpvk::trace::reset();

    for ptr in [pa, pb] {
        let out = dev.copy_u32_dtoh(ptr, threads as usize).unwrap();
        for (tid, &v) in out.iter().enumerate() {
            assert_eq!(v, (tid as u32).wrapping_mul(iters), "thread {tid}");
        }
    }

    // Structural, not wall-clock: both one-worker launches were held by
    // pool workers at the same moment. A host too loaded to finish two
    // 80 ms burns in 0.85x the serial time still shows this.
    if dev.pool_workers() >= 2 {
        assert!(
            busy_peak >= 2,
            "two one-worker launches on distinct streams should be in the pool at once: \
             pool_busy_peak {busy_peak}"
        );
    }
}

/// A worker that retires a stream's launch runs the stream's next one
/// itself only while no other work waits: every worker busy with a long
/// chain, a launch of another stream still gets the first worker free.
#[test]
fn a_stream_launch_is_not_starved_by_busy_chains() {
    let _g = serial();
    let dev = device();
    let config = ExecConfig::dynamic(4).with_workers(1);
    let scratch = dev.malloc(32 * 4).unwrap();
    let iters = calibrate_burn(&dev, scratch, Duration::from_millis(2));
    let burn = |stream: &dpvk::core::Stream<'_>, out| {
        let args = [ParamValue::Ptr(out), ParamValue::U32(iters)];
        stream.launch("burn", [1, 1, 1], [32, 1, 1], &args, &config).unwrap()
    };

    // One chain of 32 queued launches per pool worker, then one launch
    // on a stream of its own.
    let chains: Vec<_> = (0..dev.pool_workers())
        .map(|_| {
            let (stream, out) = (dev.stream(), dev.malloc(32 * 4).unwrap());
            let handles: Vec<_> = (0..32).map(|_| burn(&stream, out)).collect();
            (stream, out, handles)
        })
        .collect();
    let lone = dev.malloc(32 * 4).unwrap();
    burn(&dev.stream(), lone).wait().unwrap();
    for (i, (_, _, handles)) in chains.iter().enumerate() {
        assert!(
            !handles.last().unwrap().is_finished(),
            "chain {i} ran all its launches before the one launch submitted after them ran"
        );
    }

    dev.synchronize();
    for out in chains.iter().map(|(_, out, _)| *out).chain([lone]) {
        let got = dev.copy_u32_dtoh(out, 32).unwrap();
        for (tid, &v) in got.iter().enumerate() {
            assert_eq!(v, (tid as u32).wrapping_mul(iters), "thread {tid}");
        }
    }
}

#[test]
fn cancelling_one_stream_leaves_the_sibling_bit_identical() {
    let _g = serial();
    let dev = device();
    let n = 256u32;
    let config = ExecConfig::dynamic(4).with_workers(1);
    let input: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();

    // Reference: the sibling workload alone, serially.
    let pref = dev.malloc(n as usize * 4).unwrap();
    dev.copy_u32_htod(pref, &input).unwrap();
    for _ in 0..4 {
        dev.launch(
            "triple",
            [n / 64, 1, 1],
            [64, 1, 1],
            &[ParamValue::Ptr(pref), ParamValue::U32(n)],
            &config,
        )
        .unwrap();
    }
    let reference = dev.copy_u32_dtoh(pref, n as usize).unwrap();

    // Victim on stream A: a long burn, cancelled mid-flight. Sibling on
    // stream B: the same four-launch triple chain as the reference.
    let pa = dev.malloc(32 * 4).unwrap();
    let pb = dev.malloc(n as usize * 4).unwrap();
    dev.copy_u32_htod(pb, &input).unwrap();
    let (sa, sb) = (dev.stream(), dev.stream());
    let victim = sa
        .launch(
            "burn",
            [1, 1, 1],
            [8, 1, 1],
            &[ParamValue::Ptr(pa), ParamValue::U32(100_000_000)],
            &config,
        )
        .unwrap();
    let siblings: Vec<_> = (0..4)
        .map(|_| {
            sb.launch(
                "triple",
                [n / 64, 1, 1],
                [64, 1, 1],
                &[ParamValue::Ptr(pb), ParamValue::U32(n)],
                &config,
            )
            .unwrap()
        })
        .collect();

    victim.cancel();
    let err = victim.wait().unwrap_err();
    assert!(err.is_cancelled(), "expected cancellation, got {err:?}");
    for h in &siblings {
        h.wait().unwrap();
    }

    // The cancelled stream cannot have perturbed the sibling stream.
    let out = dev.copy_u32_dtoh(pb, n as usize).unwrap();
    assert_eq!(out, reference, "sibling results must be bit-identical");

    // Neither the pool nor stream A is poisoned: a fresh launch on the
    // cancelled stream runs to completion.
    let h = sa
        .launch("burn", [1, 1, 1], [8, 1, 1], &[ParamValue::Ptr(pa), ParamValue::U32(64)], &config)
        .unwrap();
    h.wait().unwrap();
    assert_eq!(dev.copy_u32_dtoh(pa, 8).unwrap()[3], 3 * 64);
    dev.synchronize();
}

#[test]
fn four_streams_of_dependent_chains_stay_isolated() {
    // The CI stress configuration: four streams, each carrying a chain
    // of dependent in-place launches over its own buffer. Whatever the
    // pool interleaving, every chain must compose in order and no chain
    // may touch another's buffer.
    let _g = serial();
    let dev = device();
    let n = 256u32;
    let config = ExecConfig::dynamic(4).with_workers(1);
    let input: Vec<u32> = (1..=n).collect();

    let streams: Vec<_> = (0..4).map(|_| dev.stream()).collect();
    let bufs: Vec<_> = streams
        .iter()
        .map(|_| {
            let p = dev.malloc(n as usize * 4).unwrap();
            dev.copy_u32_htod(p, &input).unwrap();
            p
        })
        .collect();

    // Stream s gets a chain of s+2 triplings; interleave submissions
    // across streams so the queues fill while earlier launches run.
    let mut handles: Vec<Vec<_>> = streams.iter().map(|_| Vec::new()).collect();
    for round in 0..5 {
        for (s, stream) in streams.iter().enumerate() {
            if round < s + 2 {
                let args = [ParamValue::Ptr(bufs[s]), ParamValue::U32(n)];
                handles[s].push(
                    stream.launch("triple", [n / 64, 1, 1], [64, 1, 1], &args, &config).unwrap(),
                );
            }
        }
    }
    dev.synchronize();

    for (s, chain) in handles.iter().enumerate() {
        let mut want = 1u32;
        for h in chain {
            assert!(h.is_finished(), "stream {s}: launch unfinished after synchronize");
            h.try_wait().unwrap().unwrap();
            want = want.wrapping_mul(3);
        }
        let out = dev.copy_u32_dtoh(bufs[s], n as usize).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, input[i].wrapping_mul(want), "stream {s} element {i}");
        }
    }
}

#[test]
fn stream_metrics_reach_the_trace_report() {
    let _g = serial();
    dpvk::trace::enable();

    let dev = device();
    let ptr = dev.malloc(32 * 4).unwrap();
    let config = ExecConfig::dynamic(4).with_workers(1);
    let iters = calibrate_burn(&dev, ptr, Duration::from_millis(20));

    let stream = dev.stream();
    let handles: Vec<_> = (0..6)
        .map(|_| {
            stream
                .launch(
                    "burn",
                    [1, 1, 1],
                    [32, 1, 1],
                    &[ParamValue::Ptr(ptr), ParamValue::U32(iters)],
                    &config,
                )
                .unwrap()
        })
        .collect();
    for h in &handles {
        h.wait().unwrap();
    }

    let report = dpvk::trace::TraceReport::capture();
    // Submission outruns ~20ms launches, so later submissions must have
    // queued behind the stream's active launch.
    assert!(report.counter("launches_submitted") >= 6, "counters: {:?}", report.counters);
    assert!(report.counter("launches_retired") >= 6, "counters: {:?}", report.counters);
    assert!(report.counter("stream_queue_peak") >= 1, "counters: {:?}", report.counters);
    assert!(report.counter("pool_busy_peak") >= 1, "counters: {:?}", report.counters);
    // Each launch is on the timeline under its stream, queue wait and
    // retirement included: a retire span closes after the waiters wake,
    // and before the device's `synchronize` returns.
    dev.synchronize();
    let on_stream: Vec<_> = dpvk::trace::timeline::launch_records()
        .into_iter()
        .filter(|r| r.stream == stream.id())
        .collect();
    assert_eq!(on_stream.len(), 6, "{on_stream:?}");
    for rec in &on_stream {
        let kinds: Vec<_> = rec.spans.iter().map(|s| s.kind.name()).collect();
        assert!(kinds.contains(&"queue_wait") && kinds.contains(&"retire"), "{kinds:?}");
    }
    dpvk::trace::disable();
    dpvk::trace::reset();
}

#[test]
fn a_blocking_launch_needs_no_pool_worker() {
    let _g = serial();
    // Every pool worker spins in a chunk of one launch that only its
    // cancellation (or, should that fail, its 10 s deadline) ends.
    let busy = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    busy.register_source(SPIN).unwrap();
    let workers = busy.pool_workers();
    let mut spin_config = ExecConfig::dynamic(4).with_workers(workers);
    spin_config.limits.deadline = Some(Instant::now() + Duration::from_secs(10));
    spin_config.limits.max_instructions = u64::MAX;
    let spinner = busy
        .launch_async(
            "spin",
            [workers as u32, 1, 1],
            [8, 1, 1],
            &[ParamValue::U32(0)],
            &spin_config,
        )
        .unwrap();

    // A one-chunk blocking launch on another device runs on this thread.
    let dev = device();
    let n = 64u32;
    let input: Vec<u32> = (0..n).collect();
    let ptr = dev.malloc(n as usize * 4).unwrap();
    dev.copy_u32_htod(ptr, &input).unwrap();
    dev.launch(
        "triple",
        [1, 1, 1],
        [n, 1, 1],
        &[ParamValue::Ptr(ptr), ParamValue::U32(n)],
        &ExecConfig::dynamic(4).with_workers(1),
    )
    .unwrap();
    assert!(!spinner.is_finished(), "the blocking launch waited for a pool worker");
    let out = dev.copy_u32_dtoh(ptr, n as usize).unwrap();
    assert!(out.iter().zip(&input).all(|(o, i)| *o == i * 3), "{out:?}");

    spinner.cancel();
    let err = spinner.wait().unwrap_err();
    assert!(err.is_cancelled(), "expected cancellation, got {err:?}");
}
