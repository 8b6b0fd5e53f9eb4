//! Integration tests targeting the paper's core mechanisms: yield-on-
//! diverge, warp re-formation, barrier pools and termination handling.

use dpvk::core::{Device, ExecConfig, ParamValue};
use dpvk::vm::MachineModel;

fn device(src: &str) -> Device {
    let dev = Device::new(MachineModel::sandybridge_sse(), 8 << 20);
    dev.register_source(src).unwrap();
    dev
}

#[test]
fn nested_divergence_reconverges() {
    // Two nested data-dependent branches: 4 distinct paths per warp.
    let src = r#"
.kernel nested (.param .u64 out, .param .u32 n) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<3>;
  .reg .pred %p<3>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  and.b32 %r2, %r0, 1;
  setp.eq.u32 %p1, %r2, 0;
  @%p1 bra outer_even;
  and.b32 %r3, %r0, 2;
  setp.eq.u32 %p2, %r3, 0;
  @%p2 bra odd_a;
  mul.lo.u32 %r4, %r0, 3;
  bra join;
odd_a:
  mul.lo.u32 %r4, %r0, 5;
  bra join;
outer_even:
  and.b32 %r3, %r0, 2;
  setp.eq.u32 %p2, %r3, 0;
  @%p2 bra even_a;
  mul.lo.u32 %r4, %r0, 7;
  bra join;
even_a:
  mul.lo.u32 %r4, %r0, 11;
join:
  add.u32 %r4, %r4, 1;
  shl.u32 %r5, %r0, 2;
  cvt.u64.u32 %rd0, %r5;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %r4;
done:
  ret;
}
"#;
    let expected = |i: u32| -> u32 {
        let m = match (i & 1, i & 2) {
            (1, 2) => 3,
            (1, _) => 5,
            (0, 2) => 7,
            _ => 11,
        };
        i * m + 1
    };
    for config in [ExecConfig::baseline(), ExecConfig::dynamic(4), ExecConfig::static_tie(4)] {
        let dev = device(src);
        let po = dev.malloc(64 * 4).unwrap();
        dev.launch(
            "nested",
            [1, 1, 1],
            [64, 1, 1],
            &[ParamValue::Ptr(po), ParamValue::U32(64)],
            &config,
        )
        .unwrap();
        let got = dev.copy_u32_dtoh(po, 64).unwrap();
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, expected(i as u32), "thread {i}, config {config:?}");
        }
    }
}

#[test]
fn divergent_termination_is_handled() {
    // Half the threads exit early via a guarded ret; the rest continue.
    let src = r#"
.kernel early_exit (.param .u64 out) {
  .reg .u32 %r<6>;
  .reg .u64 %rd<3>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  shl.u32 %r1, %r0, 2;
  cvt.u64.u32 %rd0, %r1;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  mov.u32 %r2, 111;
  st.global.u32 [%rd1], %r2;
  and.b32 %r3, %r0, 1;
  setp.eq.u32 %p0, %r3, 1;
  @%p0 ret;
  mov.u32 %r2, 222;
  st.global.u32 [%rd1], %r2;
  ret;
}
"#;
    for config in [ExecConfig::baseline(), ExecConfig::dynamic(4)] {
        let dev = device(src);
        let po = dev.malloc(32 * 4).unwrap();
        dev.launch("early_exit", [1, 1, 1], [32, 1, 1], &[ParamValue::Ptr(po)], &config).unwrap();
        let got = dev.copy_u32_dtoh(po, 32).unwrap();
        for (i, &v) in got.iter().enumerate() {
            let want = if i % 2 == 1 { 111 } else { 222 };
            assert_eq!(v, want, "thread {i}, config {config:?}");
        }
    }
}

#[test]
fn barrier_after_divergence_reforms_full_warps() {
    // Threads diverge, then all meet at a barrier and exchange data via
    // shared memory: correctness requires barrier semantics across the
    // divergent region.
    let src = r#"
.kernel diverge_then_share (.param .u64 out) {
  .shared .u32 vals[32];
  .reg .u32 %r<8>;
  .reg .u64 %rd<6>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  and.b32 %r1, %r0, 3;
  setp.eq.u32 %p0, %r1, 0;
  @%p0 bra special;
  mul.lo.u32 %r2, %r0, 2;
  bra fill;
special:
  mul.lo.u32 %r2, %r0, 100;
fill:
  shl.u32 %r3, %r0, 2;
  cvt.u64.u32 %rd0, %r3;
  mov.u64 %rd1, vals;
  add.u64 %rd1, %rd1, %rd0;
  st.shared.u32 [%rd1], %r2;
  bar.sync 0;
  // read the neighbour's value (tid+1 mod 32)
  add.u32 %r4, %r0, 1;
  and.b32 %r4, %r4, 31;
  shl.u32 %r5, %r4, 2;
  cvt.u64.u32 %rd2, %r5;
  mov.u64 %rd3, vals;
  add.u64 %rd3, %rd3, %rd2;
  ld.shared.u32 %r6, [%rd3];
  ld.param.u64 %rd4, [out];
  add.u64 %rd4, %rd4, %rd0;
  st.global.u32 [%rd4], %r6;
  ret;
}
"#;
    let value = |i: u32| if i.is_multiple_of(4) { i * 100 } else { i * 2 };
    for config in [ExecConfig::baseline(), ExecConfig::dynamic(4), ExecConfig::dynamic(2)] {
        let dev = device(src);
        let po = dev.malloc(32 * 4).unwrap();
        dev.launch("diverge_then_share", [1, 1, 1], [32, 1, 1], &[ParamValue::Ptr(po)], &config)
            .unwrap();
        let got = dev.copy_u32_dtoh(po, 32).unwrap();
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, value((i as u32 + 1) % 32), "thread {i}, config {config:?}");
        }
    }
}

#[test]
fn loop_carried_state_survives_yields() {
    // A loop with a divergent body: live loop state must round-trip
    // through spill slots at every yield.
    let src = r#"
.kernel weighted_count (.param .u64 out, .param .u32 iters) {
  .reg .u32 %r<10>;
  .reg .u64 %rd<3>;
  .reg .pred %p<3>;
entry:
  mov.u32 %r0, %tid.x;
  mov.u32 %r1, 0;               // acc
  mov.u32 %r2, %r0;             // x
  mov.u32 %r3, 0;               // i
  ld.param.u32 %r4, [iters];
loop:
  and.b32 %r5, %r2, 1;
  setp.eq.u32 %p0, %r5, 0;
  @%p0 bra even;
  mad.lo.u32 %r1, %r2, 3, %r1;
  bra next;
even:
  add.u32 %r1, %r1, 1;
next:
  mov.u32 %r6, 1103515245;
  mad.lo.u32 %r2, %r2, %r6, %r3;
  add.u32 %r3, %r3, 1;
  setp.lt.u32 %p1, %r3, %r4;
  @%p1 bra loop;
  shl.u32 %r7, %r0, 2;
  cvt.u64.u32 %rd0, %r7;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %r1;
  ret;
}
"#;
    let reference = |tid: u32, iters: u32| -> u32 {
        let (mut acc, mut x) = (0u32, tid);
        for i in 0..iters {
            if x & 1 == 1 {
                acc = x.wrapping_mul(3).wrapping_add(acc);
            } else {
                acc = acc.wrapping_add(1);
            }
            x = x.wrapping_mul(1103515245).wrapping_add(i);
        }
        acc
    };
    for config in [ExecConfig::baseline(), ExecConfig::dynamic(4), ExecConfig::static_tie(4)] {
        let dev = device(src);
        let po = dev.malloc(64 * 4).unwrap();
        dev.launch(
            "weighted_count",
            [1, 1, 1],
            [64, 1, 1],
            &[ParamValue::Ptr(po), ParamValue::U32(20)],
            &config,
        )
        .unwrap();
        let got = dev.copy_u32_dtoh(po, 64).unwrap();
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, reference(i as u32, 20), "thread {i}, config {config:?}");
        }
    }
}

#[test]
fn multiple_kernels_share_one_module() {
    let src = r#"
.kernel write_one (.param .u64 out) {
  .reg .u32 %r<3>;
  .reg .u64 %rd<3>;
entry:
  mov.u32 %r0, %tid.x;
  shl.u32 %r1, %r0, 2;
  cvt.u64.u32 %rd0, %r1;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  mov.u32 %r2, 1;
  st.global.u32 [%rd1], %r2;
  ret;
}
.kernel double_it (.param .u64 out) {
  .reg .u32 %r<3>;
  .reg .u64 %rd<3>;
entry:
  mov.u32 %r0, %tid.x;
  shl.u32 %r1, %r0, 2;
  cvt.u64.u32 %rd0, %r1;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r2, [%rd1];
  shl.u32 %r2, %r2, 1;
  st.global.u32 [%rd1], %r2;
  ret;
}
"#;
    let dev = device(src);
    let po = dev.malloc(16 * 4).unwrap();
    let cfg = ExecConfig::dynamic(4);
    dev.launch("write_one", [1, 1, 1], [16, 1, 1], &[ParamValue::Ptr(po)], &cfg).unwrap();
    for _ in 0..3 {
        dev.launch("double_it", [1, 1, 1], [16, 1, 1], &[ParamValue::Ptr(po)], &cfg).unwrap();
    }
    let got = dev.copy_u32_dtoh(po, 16).unwrap();
    assert!(got.iter().all(|&v| v == 8), "{got:?}");
    // The cache compiled each kernel's specializations exactly once.
    let stats = dev.cache_stats();
    assert!(stats.hits > 0);
}

// ---------------------------------------------------------------------------
// The slot plan: which live-ins a yield stores, loads or recomputes
// ---------------------------------------------------------------------------

use dpvk::core::{specialize, translate, SpecializeOptions, TranslatedKernel};
use dpvk::ir::{BlockId, BlockKind, Inst, Space, VReg};

fn translated(src: &str) -> TranslatedKernel {
    translate(&dpvk::ptx::parse_kernel(src).unwrap()).unwrap()
}

/// The continuation of the kernel's one barrier.
fn barrier_cont(tk: &TranslatedKernel) -> BlockId {
    assert_eq!(tk.barrier_edges.len(), 1);
    *tk.barrier_edges.values().next().unwrap()
}

/// Spill-slot stores in the barrier exit handler of `tk` at `opts`.
fn barrier_exit_stores(tk: &TranslatedKernel, opts: &SpecializeOptions) -> usize {
    let f = specialize(tk, opts).unwrap().function;
    let exit = f
        .blocks
        .iter()
        .find(|b| b.kind == BlockKind::ExitHandler && b.label.contains("bar_exit"))
        .expect("a barrier exit handler");
    exit.insts.iter().filter(|i| matches!(i, Inst::Store { space: Space::Spill, .. })).count()
}

/// Launch one CTA of `threads` with `(in, out)` buffers of `u32` and
/// return `out` and the launch's spill-store count.
fn run_in_out(src: &str, name: &str, input: &[u32], config: &ExecConfig) -> (Vec<u32>, u64) {
    let dev = device(src);
    let n = input.len();
    let (pi, po) = (dev.malloc(n * 4).unwrap(), dev.malloc(n * 4).unwrap());
    dev.copy_u32_htod(pi, input).unwrap();
    let stats = dev
        .launch(
            name,
            [1, 1, 1],
            [n as u32, 1, 1],
            &[ParamValue::Ptr(pi), ParamValue::Ptr(po)],
            config,
        )
        .unwrap();
    (dev.copy_u32_dtoh(po, n).unwrap(), stats.exec.spill_stores)
}

const CONFIGS: [fn() -> ExecConfig; 4] = [
    ExecConfig::baseline,
    || ExecConfig::dynamic(4),
    || ExecConfig::dynamic(2),
    || ExecConfig::static_tie(4),
];

#[test]
fn barrier_loop_stores_only_what_the_loop_changes() {
    // binomial's shape: a parameter-derived pointer and a global load
    // defined before a barrier-stepped loop. Both are home-slot
    // registers, stored once where they are defined; the barrier exit
    // stores only the loop counter.
    let src = r#"
.kernel steps (.param .u64 in, .param .u64 out) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  shl.u32 %r1, %r0, 2;
  cvt.u64.u32 %rd0, %r1;
  ld.param.u64 %rd1, [in];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r4, [%rd1];
  ld.param.u64 %rd2, [out];
  add.u64 %rd2, %rd2, %rd0;
  mov.u32 %r3, 0;
loop:
  bar.sync 0;
  add.u32 %r5, %r4, %r3;
  st.global.u32 [%rd2], %r5;
  add.u32 %r3, %r3, 1;
  setp.lt.u32 %p0, %r3, 4;
  @%p0 bra loop;
  ret;
}
"#;
    let tk = translated(src);
    let (counter, global, out_ptr) = (VReg(3), VReg(4), VReg(10));
    assert!(tk.slots.home[global.index()] && tk.slots.home[out_ptr.index()]);
    assert!(!tk.slots.home[counter.index()]);
    assert_eq!(tk.slots.exit_stores(&[barrier_cont(&tk)]), vec![counter]);
    for w in [1, 2, 4] {
        assert_eq!(barrier_exit_stores(&tk, &SpecializeOptions::dynamic(w)), w as usize, "w{w}");
    }
    const THREADS: u64 = 16;
    let input: Vec<u32> = (0..THREADS as u32).map(|i| i * 7 + 1).collect();
    for config in CONFIGS.map(|c| c()) {
        let (out, spills) = run_in_out(src, "steps", &input, &config);
        for (i, (&got, &x)) in out.iter().zip(&input).enumerate() {
            assert_eq!(got, x + 3, "thread {i}, config {config:?}");
        }
        // Two at-definition stores per thread, once; one counter store
        // per thread at each of the four barrier exits.
        assert_eq!(spills, 2 * THREADS + 4 * THREADS, "config {config:?}");
    }
}

#[test]
fn a_clobbered_intermediate_keeps_the_restore() {
    // %r2 = 2·tid + 3 is thread-invariant, but recomputing it writes the
    // intermediate %r1, which the loop redefines before the barrier and
    // reads after it. At the barrier continuation rematerialization is
    // refused and %r2 is restored; at the loop header, where %r1 is dead,
    // it is recomputed.
    let src = r#"
.kernel clobber (.param .u64 in, .param .u64 out) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  shl.u32 %r1, %r0, 1;
  add.u32 %r2, %r1, 3;
  mov.u32 %r3, 0;
  mov.u32 %r5, 0;
loop:
  mul.lo.u32 %r1, %r3, 5;
  bar.sync 0;
  add.u32 %r4, %r2, %r1;
  add.u32 %r5, %r5, %r4;
  add.u32 %r3, %r3, 1;
  setp.lt.u32 %p0, %r3, 4;
  @%p0 bra loop;
  shl.u32 %r6, %r0, 2;
  cvt.u64.u32 %rd0, %r6;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %r5;
  ret;
}
"#;
    let tk = translated(src);
    let (r1, r2) = (VReg(1), VReg(2));
    let cont = barrier_cont(&tk);
    let head = tk.scalar.block_by_label("loop").unwrap();
    assert!(tk.slots.loads[cont.index()].contains(&r1));
    assert!(tk.slots.loads[cont.index()].contains(&r2), "restore kept at the continuation");
    assert!(!tk.slots.loads[head.index()].contains(&r2), "recomputed at the loop header");
    assert!(!tk.slots.remat[head.index()].is_empty());
    let input = vec![0u32; 16];
    for config in CONFIGS.map(|c| c()) {
        let (out, _) = run_in_out(src, "clobber", &input, &config);
        for (tid, &got) in out.iter().enumerate() {
            let want: u32 = (0..4).map(|k| 2 * tid as u32 + 3 + 5 * k).sum();
            assert_eq!(got, want, "thread {tid}, config {config:?}");
        }
    }
}

#[test]
fn a_value_redefined_in_the_loop_is_stored_at_every_exit() {
    // %r1 is defined before the loop and inside it: no home slot, so
    // every exit toward a block that reads it stores it.
    let src = r#"
.kernel redef (.param .u64 in, .param .u64 out) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  mov.u32 %r1, 7;
  mov.u32 %r3, 0;
loop:
  bar.sync 0;
  add.u32 %r1, %r1, %r0;
  add.u32 %r3, %r3, 1;
  setp.lt.u32 %p0, %r3, 4;
  @%p0 bra loop;
  shl.u32 %r6, %r0, 2;
  cvt.u64.u32 %rd0, %r6;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %r1;
  ret;
}
"#;
    let tk = translated(src);
    let r1 = VReg(1);
    assert!(!tk.slots.home[r1.index()]);
    let head = tk.scalar.block_by_label("loop").unwrap();
    assert!(tk.slots.exit_stores(&[barrier_cont(&tk)]).contains(&r1));
    assert!(tk.slots.exit_stores(&[head]).contains(&r1));
    // %r1 and the counter, per lane; %tid.x is recomputed at entry.
    assert_eq!(barrier_exit_stores(&tk, &SpecializeOptions::dynamic(4)), 2 * 4);
    let input = vec![0u32; 16];
    for config in CONFIGS.map(|c| c()) {
        let (out, spills) = run_in_out(src, "redef", &input, &config);
        for (tid, &got) in out.iter().enumerate() {
            assert_eq!(got, 7 + 4 * tid as u32, "thread {tid}, config {config:?}");
        }
        assert_eq!(spills, 4 * 16 * 2, "config {config:?}");
    }
}
