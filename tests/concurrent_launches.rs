//! Two host threads sharing one `Device`, launching different kernels
//! concurrently: results, per-launch stats and the shared translation
//! cache must all stay coherent.

use dpvk::core::{Device, ExecConfig, ParamValue};
use dpvk::vm::MachineModel;

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

.kernel xorshift (.param .u64 data, .param .u32 n) {
  .reg .u32 %r<4>;
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
  shl.u32 %r3, %r2, 1;
  xor.b32 %r2, %r2, %r3;
  st.global.u32 [%rd1], %r2;
done:
  ret;
}
"#;

#[test]
fn concurrent_launches_of_different_kernels_share_one_device() {
    let dev = Device::new(MachineModel::sandybridge_sse(), 16 << 20);
    dev.register_source(MODULE).unwrap();
    let n = 1024u32;

    let triple_in: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
    let xs_in: Vec<u32> = (0..n).map(|i| i.wrapping_add(17)).collect();
    let pt = dev.malloc(n as usize * 4).unwrap();
    let px = dev.malloc(n as usize * 4).unwrap();
    dev.copy_u32_htod(pt, &triple_in).unwrap();
    dev.copy_u32_htod(px, &xs_in).unwrap();

    let (triple_stats, xs_stats) = std::thread::scope(|s| {
        let t = s.spawn(|| {
            let mut last = None;
            for _ in 0..4 {
                last = Some(
                    dev.launch(
                        "triple",
                        [n / 64, 1, 1],
                        [64, 1, 1],
                        &[ParamValue::Ptr(pt), ParamValue::U32(n)],
                        &ExecConfig::dynamic(4).with_workers(2),
                    )
                    .unwrap(),
                );
            }
            last.unwrap()
        });
        let x = s.spawn(|| {
            let mut last = None;
            for _ in 0..4 {
                last = Some(
                    dev.launch(
                        "xorshift",
                        [n / 32, 1, 1],
                        [32, 1, 1],
                        &[ParamValue::Ptr(px), ParamValue::U32(n)],
                        &ExecConfig::static_tie(4).with_workers(2),
                    )
                    .unwrap(),
                );
            }
            last.unwrap()
        });
        (t.join().unwrap(), x.join().unwrap())
    });

    // Each buffer saw exactly its own kernel, four times.
    let triple_out = dev.copy_u32_dtoh(pt, n as usize).unwrap();
    let xs_out = dev.copy_u32_dtoh(px, n as usize).unwrap();
    for i in 0..n as usize {
        let mut t = triple_in[i];
        let mut x = xs_in[i];
        for _ in 0..4 {
            t = t.wrapping_mul(3);
            x ^= x << 1;
        }
        assert_eq!(triple_out[i], t, "triple[{i}]");
        assert_eq!(xs_out[i], x, "xorshift[{i}]");
    }

    // Per-launch stats are independent: each reflects its own grid's
    // retired instruction count, not a blend of both launches.
    assert_ne!(triple_stats.exec.instructions, 0);
    assert_ne!(xs_stats.exec.instructions, 0);
    assert_eq!(triple_stats.exec.downgraded_warps, 0);
    assert_eq!(xs_stats.exec.downgraded_warps, 0);

    // The shared cache compiled each (kernel, width, variant) once
    // despite eight launches racing over it.
    let cache = dev.cache_stats();
    assert_eq!(cache.spec_failures, 0);
    assert!(cache.hits >= cache.misses, "cache stats: {cache:?}");
}

#[test]
fn async_launches_from_one_thread_overlap_on_the_pool() {
    // The spawn-per-launch design needed one host thread per concurrent
    // launch; the persistent pool lets a single thread keep several
    // launches in flight through handles. Unordered launches may overlap
    // arbitrarily, so each gets its own buffer.
    let dev = Device::new(MachineModel::sandybridge_sse(), 16 << 20);
    dev.register_source(MODULE).unwrap();
    let n = 1024u32;

    let triple_in: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
    let xs_in: Vec<u32> = (0..n).map(|i| i.wrapping_add(17)).collect();

    // Submit everything before waiting on anything.
    let mut launches = Vec::new();
    for _ in 0..4 {
        let pt = dev.malloc(n as usize * 4).unwrap();
        dev.copy_u32_htod(pt, &triple_in).unwrap();
        let ht = dev
            .launch_async(
                "triple",
                [n / 64, 1, 1],
                [64, 1, 1],
                &[ParamValue::Ptr(pt), ParamValue::U32(n)],
                &ExecConfig::dynamic(4).with_workers(2),
            )
            .unwrap();
        launches.push(("triple", pt, ht));

        let px = dev.malloc(n as usize * 4).unwrap();
        dev.copy_u32_htod(px, &xs_in).unwrap();
        let hx = dev
            .launch_async(
                "xorshift",
                [n / 32, 1, 1],
                [32, 1, 1],
                &[ParamValue::Ptr(px), ParamValue::U32(n)],
                &ExecConfig::static_tie(4).with_workers(2),
            )
            .unwrap();
        launches.push(("xorshift", px, hx));
    }

    for (kernel, ptr, handle) in &launches {
        let stats = handle.wait().unwrap();
        assert!(handle.is_finished());
        assert_eq!(handle.kernel(), *kernel);
        assert_ne!(stats.exec.instructions, 0, "{kernel} stats empty");
        assert_eq!(stats.exec.downgraded_warps, 0);

        // Each buffer saw exactly one application of exactly its kernel,
        // however the eight launches interleaved on the pool.
        let out = dev.copy_u32_dtoh(*ptr, n as usize).unwrap();
        for i in 0..n as usize {
            let want = match *kernel {
                "triple" => triple_in[i].wrapping_mul(3),
                _ => xs_in[i] ^ (xs_in[i] << 1),
            };
            assert_eq!(out[i], want, "{kernel}[{i}]");
        }
    }
    dev.synchronize();

    let cache = dev.cache_stats();
    assert_eq!(cache.spec_failures, 0);
    assert!(cache.hits >= cache.misses, "cache stats: {cache:?}");
}

#[test]
fn dropped_handles_detach_without_cancelling_or_wedging_the_pool() {
    // Regression guard for the serving layer: a client that fires
    // launches and walks away (its handles dropped un-waited) must not
    // cancel the work, lose its memory effects, or wedge the pool for
    // the next client.
    let dev = Device::new(MachineModel::sandybridge_sse(), 16 << 20);
    dev.register_source(MODULE).unwrap();
    let n = 1024u32;

    let input: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
    let mut buffers = Vec::new();
    for _ in 0..8 {
        let ptr = dev.malloc(n as usize * 4).unwrap();
        dev.copy_u32_htod(ptr, &input).unwrap();
        let handle = dev
            .launch_async(
                "triple",
                [n / 64, 1, 1],
                [64, 1, 1],
                &[ParamValue::Ptr(ptr), ParamValue::U32(n)],
                &ExecConfig::dynamic(4).with_workers(2),
            )
            .unwrap();
        buffers.push(ptr);
        drop(handle); // Detach: the launch must keep running.
    }

    // Every detached launch still completes and its memory effects land.
    dev.synchronize();
    for (b, &ptr) in buffers.iter().enumerate() {
        let out = dev.copy_u32_dtoh(ptr, n as usize).unwrap();
        for i in 0..n as usize {
            assert_eq!(out[i], input[i].wrapping_mul(3), "buffer {b}, element {i}");
        }
    }

    // The pool is not wedged: a fresh blocking launch on the same device
    // runs to completion with clean stats.
    let ptr = dev.malloc(n as usize * 4).unwrap();
    dev.copy_u32_htod(ptr, &input).unwrap();
    let stats = dev
        .launch(
            "triple",
            [n / 64, 1, 1],
            [64, 1, 1],
            &[ParamValue::Ptr(ptr), ParamValue::U32(n)],
            &ExecConfig::dynamic(4),
        )
        .unwrap();
    assert_ne!(stats.exec.instructions, 0);
    assert_eq!(stats.exec.cancelled_warps, 0, "detached handles must not cancel work");
    let out = dev.copy_u32_dtoh(ptr, n as usize).unwrap();
    assert_eq!(out[1], input[1].wrapping_mul(3));
}

/// `spin`: thread `i` runs `data[i] & 15` loop iterations and stores the
/// count, so a launch's retired instruction count is a function of the
/// data it read — its `LaunchStats` witness its input.
const SPIN: &str = r#"
.kernel spin (.param .u64 data, .param .u32 n) {
  .reg .u32 %r<5>;
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
  and.b32 %r2, %r2, 15;
  mov.u32 %r3, 0;
loop:
  setp.ge.u32 %p0, %r3, %r2;
  @%p0 bra store;
  add.u32 %r3, %r3, 1;
  bra loop;
store:
  st.global.u32 [%rd1], %r3;
done:
  ret;
}
"#;

fn spin_device() -> Device {
    let dev = Device::new(MachineModel::sandybridge_sse(), 16 << 20);
    dev.register_source(MODULE).unwrap();
    dev.register_source(SPIN).unwrap();
    dev
}

#[test]
fn every_device_shares_one_set_of_pool_workers() {
    let mut after_first = None;
    for d in 0..32 {
        let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
        dev.register_source(MODULE).unwrap();
        // One chunk per pool worker: the first launch grows the pool to
        // its full size, so no later launch needs another thread.
        let chunks = dev.pool_workers();
        let n = 64 * chunks as u32;
        let input: Vec<u32> = (0..n).collect();
        let ptr = dev.malloc(n as usize * 4).unwrap();
        dev.copy_u32_htod(ptr, &input).unwrap();
        dev.launch(
            "triple",
            [n / 64, 1, 1],
            [64, 1, 1],
            &[ParamValue::Ptr(ptr), ParamValue::U32(n)],
            &ExecConfig::dynamic(4).with_workers(chunks),
        )
        .unwrap();
        let out = dev.copy_u32_dtoh(ptr, n as usize).unwrap();
        assert!(out.iter().zip(&input).all(|(o, i)| *o == i * 3), "device {d}");
        let workers = dpvk::trace::timeline::worker_count();
        let first = *after_first.get_or_insert(workers);
        assert_eq!(workers, first, "device {d} registered new worker threads");
    }
}

#[test]
fn dropping_a_device_completes_its_async_and_stream_launches() {
    // The same launches on a device that stays alive give the expected
    // stats and memory image.
    let n = 8192u32;
    let input: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
    let spin_args = |ptr| [ParamValue::Ptr(ptr), ParamValue::U32(n)];
    let geometry = ([n / 64, 1, 1], [64, 1, 1]);
    let config = ExecConfig::dynamic(4).with_workers(1);
    let run = |dev: &Device| {
        // A stream chain `triple, triple, spin`: the spin's count
        // depends on both triples having run first, in order.
        let ps = dev.malloc(n as usize * 4).unwrap();
        dev.copy_u32_htod(ps, &input).unwrap();
        let stream = dev.stream();
        let mut handles = Vec::new();
        for kernel in ["triple", "triple", "spin"] {
            let h = stream.launch(kernel, geometry.0, geometry.1, &spin_args(ps), &config);
            handles.push(h.unwrap());
        }
        // Unordered launches, each on its own buffer.
        let mut buffers = vec![ps];
        for _ in 0..4 {
            let pa = dev.malloc(n as usize * 4).unwrap();
            dev.copy_u32_htod(pa, &input).unwrap();
            let h = dev.launch_async("spin", geometry.0, geometry.1, &spin_args(pa), &config);
            handles.push(h.unwrap());
            buffers.push(pa);
        }
        (handles, buffers)
    };

    let live = spin_device();
    let (want_handles, buffers) = run(&live);
    let want: Vec<_> = want_handles.iter().map(|h| h.wait().unwrap()).collect();
    let spun = |x: u32| x & 15;
    let image = live.copy_u32_dtoh(buffers[0], n as usize).unwrap();
    assert!(image.iter().zip(&input).all(|(o, i)| *o == spun(i.wrapping_mul(9))));
    for &p in &buffers[1..] {
        let image = live.copy_u32_dtoh(p, n as usize).unwrap();
        assert!(image.iter().zip(&input).all(|(o, i)| *o == spun(*i)));
    }

    let dev = spin_device();
    let (handles, _) = run(&dev);
    drop(dev);
    for (i, (h, want)) in handles.iter().zip(&want).enumerate() {
        let got = h.try_wait().unwrap_or_else(|| panic!("launch {i} outlived its device"));
        assert_eq!(&got.unwrap(), want, "launch {i} ({})", h.kernel());
    }
}

#[test]
fn two_devices_with_one_kernel_name_alternate_on_shared_workers() {
    // Same name, different bodies: a worker memo that kept the other
    // device's specialization would compute the wrong function.
    let body = |op: &str| {
        MODULE.split(".kernel xorshift").next().unwrap().replace("mul.lo.u32 %r2, %r2, 3", op)
    };
    let a = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    let b = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    a.register_source(&body("mul.lo.u32 %r2, %r2, 3")).unwrap();
    b.register_source(&body("add.u32 %r2, %r2, 7")).unwrap();
    let n = 256u32;
    let input: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
    let pa = a.malloc(n as usize * 4).unwrap();
    let pb = b.malloc(n as usize * 4).unwrap();
    a.copy_u32_htod(pa, &input).unwrap();
    b.copy_u32_htod(pb, &input).unwrap();
    let config = ExecConfig::dynamic(4).with_workers(1);
    for _ in 0..3 {
        for (dev, ptr) in [(&a, pa), (&b, pb)] {
            let args = [ParamValue::Ptr(ptr), ParamValue::U32(n)];
            dev.launch("triple", [n / 64, 1, 1], [64, 1, 1], &args, &config).unwrap();
        }
    }
    let out_a = a.copy_u32_dtoh(pa, n as usize).unwrap();
    let out_b = b.copy_u32_dtoh(pb, n as usize).unwrap();
    for i in 0..n as usize {
        assert_eq!(out_a[i], input[i].wrapping_mul(27), "device a, element {i}");
        assert_eq!(out_b[i], input[i].wrapping_add(21), "device b, element {i}");
    }
}
