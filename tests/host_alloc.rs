//! Steady-state dispatch must be allocation-free.
//!
//! The host-side hot path — warp formation, specialization dispatch, and
//! the interpreter register file — is designed to reuse per-worker
//! scratch state, so once a launch shape is warm the number of heap
//! allocations must not scale with the number of warps executed. This
//! test measures that directly with a counting global allocator: two
//! launches identical in every way except a param-controlled loop
//! trip count (so one executes ~16x the warps of the other) must perform
//! essentially the same number of allocations.
//!
//! A warm launch's own cost does not scale with the kernel either: a
//! kernel padded with ~200 instructions launches with exactly as many
//! allocations as the 13-instruction one, within a fixed budget.
//!
//! A large CTA memory is not kept: a worker frees the shared or local
//! memory of a kernel that needs megabytes of it when the chunk ends.
//!
//! The compile tail has a budget of the same kind: allocations per
//! instruction compiled, so per-instruction heap traffic (operand lists,
//! string keys, hash sets) cannot creep back into the optimizer and the
//! analyses.
//!
//! The tests live alone in their own integration-test binary and take
//! turns on one lock, so the counting allocator sees no interference from
//! concurrently running tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use dpvk::core::{
    specialize, translate, Device, Engine, ExecConfig, ParamValue, SpecializeOptions,
};
use dpvk::vm::{BytecodeProgram, CostInfo, FrameLayout, MachineModel};

/// System allocator wrapper that counts allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static BYTES_FREED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES_ALLOCATED.fetch_add(layout.size() as u64, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Relaxed) {
            BYTES_FREED.fetch_add(layout.size() as u64, Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES_ALLOCATED.fetch_add(new_size as u64, Relaxed);
            BYTES_FREED.fetch_add(layout.size() as u64, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by each test for its whole body: the counter is process-wide.
static TURN: Mutex<()> = Mutex::new(());

/// Count allocations performed by `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Relaxed);
    BYTES_ALLOCATED.store(0, Relaxed);
    BYTES_FREED.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let r = f();
    ARMED.store(false, Relaxed);
    (ALLOCS.load(Relaxed), r)
}

/// One CTA of 32 threads spinning a barrier loop `n` times: every
/// iteration yields each warp at the barrier and re-forms it, so warps
/// executed scale linearly with `n` while the launch shape (CTA count,
/// thread count, memory footprint) stays fixed.
const SPIN: &str = r#"
.kernel spin (.param .u32 n) {
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, 0;
  ld.param.u32 %r2, [n];
loop:
  bar.sync 0;
  add.u32 %r1, %r1, 1;
  setp.lt.u32 %p1, %r1, %r2;
  @%p1 bra loop;
  ret;
}
"#;

/// One test body covering both guest engines.
#[test]
fn warm_dispatch_does_not_allocate_per_warp() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    dev.register_source(SPIN).unwrap();
    for engine in [Engine::Bytecode, Engine::Jit] {
        let config = ExecConfig::dynamic(4).with_workers(1).with_engine(engine);
        let launch = |iters: u32| {
            dev.launch("spin", [1, 1, 1], [32, 1, 1], &[ParamValue::U32(iters)], &config).unwrap()
        };

        // Warm: compile the specializations and grow every reusable
        // buffer to its steady-state capacity.
        launch(64);

        let (small_allocs, small_stats) = count_allocs(|| launch(4));
        let (big_allocs, big_stats) = count_allocs(|| launch(64));

        // Sanity: the big launch really did form many more warps.
        let warps = |s: &dpvk::core::LaunchStats| s.warp_hist.iter().sum::<u64>();
        let (small_warps, big_warps) = (warps(&small_stats), warps(&big_stats));
        assert!(
            big_warps >= small_warps + 400,
            "[{engine:?}] expected a much larger warp count: {small_warps} vs {big_warps}"
        );

        // Per-launch allocations (thread spawn, CTA arenas, stats) are
        // identical between the two launches; anything that scales with
        // the ~480 extra warps would show up here. Allow a little slack
        // for allocator-internal or platform noise, but nothing near
        // per-warp.
        let delta = big_allocs.saturating_sub(small_allocs);
        assert!(
            delta < (big_warps - small_warps) / 8,
            "[{engine:?}] warm dispatch allocated per warp: {small_allocs} allocs for \
             {small_warps} warps vs {big_allocs} allocs for {big_warps} warps"
        );
    }
}

/// `dispatch_tiny`'s kernel: one CTA of 64 threads computing
/// `dst[i] = src[i] * 3 + k`, named `name`, with `pad` straight-line
/// `add`s on a register nothing else reads (never written, so it reads
/// zero).
fn tiny_source(name: &str, pad: usize) -> String {
    let padding = "  add.u32 %r3, %r3, 1;\n".repeat(pad);
    format!(
        r#"
.kernel {name} (.param .u64 src, .param .u64 dst, .param .u32 k) {{
  .reg .u32 %r<4>;
  .reg .u64 %rd<4>;
entry:
  mov.u32 %r0, %tid.x;
{padding}  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [src];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r1, [%rd1];
  mul.lo.u32 %r1, %r1, 3;
  ld.param.u32 %r2, [k];
  add.u32 %r1, %r1, %r2;
  ld.param.u64 %rd2, [dst];
  add.u64 %rd2, %rd2, %rd0;
  st.global.u32 [%rd2], %r1;
  ret;
}}
"#
    )
}

/// Heap allocations of one warm launch of the 13-instruction tiny
/// kernel, submit to retire, on either engine: measured, so the budget
/// is tight on purpose. It was 48 (248 for the padded kernel) while
/// packing the parameters deep-copied the registered kernel, 13 while
/// the finished stats were cloned into the outcome and again out of it,
/// and 11 while the launch copied the kernel's name, kept per-chunk
/// error and stop slots in two vectors, and every chunk built its
/// statistics and every CTA its ready queue, shared and local memory.
/// The five left: the cancellation token, the parameter buffer, the job,
/// the launch's warp histogram and its chunk slots.
const TINY_LAUNCH_ALLOCS: u64 = 5;

/// A warm launch costs the same whatever the kernel's length: nothing on
/// the launch path copies the kernel. Two kernels that differ only in
/// ~200 dead straight-line instructions must allocate exactly as often.
#[test]
fn warm_launch_allocations_do_not_scale_with_kernel_length() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    dev.register_source(&tiny_source("tiny", 0)).unwrap();
    dev.register_source(&tiny_source("tiny_padded", 200)).unwrap();
    let src = dev.malloc(64 * 4).unwrap();
    let dst = dev.malloc(64 * 4).unwrap();
    let input: Vec<u32> = (0..64).collect();
    dev.copy_u32_htod(src, &input).unwrap();
    let args = [ParamValue::Ptr(src), ParamValue::Ptr(dst), ParamValue::U32(7)];
    for engine in [Engine::Bytecode, Engine::Jit] {
        let config = ExecConfig::dynamic(4).with_workers(1).with_engine(engine);
        let launch = |kernel: &str| {
            dev.launch(kernel, [1, 1, 1], [64, 1, 1], &args, &config).unwrap();
        };
        // Warm both: compile, and grow every reusable buffer.
        for _ in 0..4 {
            launch("tiny");
            launch("tiny_padded");
        }
        // The fewest of a few launches: a stray allocation elsewhere in
        // the process can only add.
        let allocs =
            |kernel: &str| (0..5).map(|_| count_allocs(|| launch(kernel)).0).min().unwrap();
        let (short, padded) = (allocs("tiny"), allocs("tiny_padded"));
        let want: Vec<u32> = input.iter().map(|v| v * 3 + 7).collect();
        assert_eq!(dev.copy_u32_dtoh(dst, 64).unwrap(), want, "[{engine:?}] wrong output");
        assert_eq!(
            short, padded,
            "[{engine:?}] a warm launch allocated {short} times for the 13-instruction kernel \
             but {padded} times for the padded one"
        );
        assert!(
            short <= TINY_LAUNCH_ALLOCS,
            "[{engine:?}] a warm tiny launch allocated {short} times (budget {TINY_LAUNCH_ALLOCS})"
        );
    }
}

/// Heap allocations of one warm launch of the tiny kernel on a warm
/// stream, submit, wait and drop of the handle, on either engine: a
/// blocking launch's five, and the copy of the result `wait` returns
/// (the handle keeps its own, for repeat waits). Counted over two
/// launches submitted back to back, so the second is usually queued
/// behind the first and handed to the worker that retires it: that
/// hand-off must not add any.
const TINY_STREAM_LAUNCH_ALLOCS: u64 = 6;

#[test]
fn a_warm_stream_launch_allocates_within_budget() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    dev.register_source(&tiny_source("tiny", 0)).unwrap();
    let src = dev.malloc(64 * 4).unwrap();
    let dst = dev.malloc(64 * 4).unwrap();
    let input: Vec<u32> = (0..64).collect();
    dev.copy_u32_htod(src, &input).unwrap();
    let args = [ParamValue::Ptr(src), ParamValue::Ptr(dst), ParamValue::U32(7)];
    let stream = dev.stream();
    for engine in [Engine::Bytecode, Engine::Jit] {
        let config = ExecConfig::dynamic(4).with_workers(1).with_engine(engine);
        let launch = || stream.launch("tiny", [1, 1, 1], [64, 1, 1], &args, &config).unwrap();
        let pair = || {
            let (first, second) = (launch(), launch());
            first.wait().unwrap();
            second.wait().unwrap();
        };
        // Warm: compile, and grow every reusable buffer.
        for _ in 0..4 {
            pair();
        }
        let allocs = (0..5).map(|_| count_allocs(pair).0).min().unwrap();
        let want: Vec<u32> = input.iter().map(|v| v * 3 + 7).collect();
        assert_eq!(dev.copy_u32_dtoh(dst, 64).unwrap(), want, "[{engine:?}] wrong output");
        assert!(
            allocs <= 2 * TINY_STREAM_LAUNCH_ALLOCS,
            "[{engine:?}] two warm stream launches allocated {allocs} times \
             (budget {TINY_STREAM_LAUNCH_ALLOCS} each)"
        );
    }
}

/// One CTA of 256 threads, each with 4 KiB of `.local` memory: the CTA
/// needs 1 MiB of it.
const BIG_LOCAL: &str = r#"
.kernel big_local (.param .u64 dst) {
  .local .u32 scratch[1024];
  .reg .u32 %r<4>;
  .reg .u64 %rd<4>;
entry:
  mov.u32 %r0, %tid.x;
  st.local.u32 [scratch], %r0;
  ld.local.u32 %r1, [scratch];
  cvt.u64.u32 %rd0, %r0;
  shl.u64 %rd0, %rd0, 2;
  ld.param.u64 %rd1, [dst];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %r1;
  ret;
}
"#;

/// A warm launch of [`BIG_LOCAL`] allocates the CTA's megabyte of local
/// memory and frees it before the launch returns, whether the launch
/// runs on its caller (blocking) or on a pool worker (stream): neither
/// thread keeps it after the launch.
#[test]
fn a_large_local_memory_is_not_kept_after_its_launch() {
    const LOCAL_BYTES: u64 = 256 * 4096;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    dev.register_source(BIG_LOCAL).unwrap();
    let dst = dev.malloc(256 * 4).unwrap();
    let args = [ParamValue::Ptr(dst)];
    let config = ExecConfig::dynamic(4).with_workers(1);
    let stream = dev.stream();
    let blocking = || {
        dev.launch("big_local", [1, 1, 1], [256, 1, 1], &args, &config).unwrap();
    };
    let streamed = || {
        stream.launch("big_local", [1, 1, 1], [256, 1, 1], &args, &config).unwrap().wait().unwrap();
    };
    for (how, launch) in [("blocking", &blocking as &dyn Fn()), ("stream", &streamed)] {
        // Warm: compile, and run once more on the same thread.
        launch();
        launch();
        count_allocs(launch);
        let (allocated, freed) = (BYTES_ALLOCATED.load(Relaxed), BYTES_FREED.load(Relaxed));
        assert!(
            allocated >= LOCAL_BYTES && freed >= LOCAL_BYTES,
            "[{how}] a warm launch allocated {allocated} and freed {freed} bytes: the CTA's \
             {LOCAL_BYTES}-byte local memory was kept from an earlier launch or after this one"
        );
        let want: Vec<u32> = (0..256).collect();
        assert_eq!(dev.copy_u32_dtoh(dst, 256).unwrap(), want, "[{how}] wrong output");
    }
}

/// Over the suite at `dynamic(4)`: `specialize` makes at most one
/// allocation per pre-optimization instruction, and `CostInfo::analyze`
/// plus `BytecodeProgram::decode` together at most a quarter of one.
/// Before the optimizer keyed expressions structurally, liveness went
/// dense and `uses()` went inline the figures were 8.86 and 3.9; they are
/// deterministic, so the budget is tight on purpose.
#[test]
fn the_compile_tail_does_not_allocate_per_instruction() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let model = MachineModel::sandybridge_sse();
    let options = SpecializeOptions::dynamic(4);
    let (mut instructions, mut specialize_allocs, mut tail_allocs) = (0u64, 0u64, 0u64);
    for w in dpvk::workloads::all_workloads() {
        for kernel in &dpvk::ptx::parse_module(&w.source()).unwrap().kernels {
            let translated = translate(kernel).unwrap();
            let (n, s) = count_allocs(|| specialize(&translated, &options).unwrap());
            specialize_allocs += n;
            instructions += s.pre_opt_instructions as u64;
            let frame = FrameLayout::of(&s.function);
            let (n, _) = count_allocs(|| {
                let cost = CostInfo::analyze(&s.function, &model);
                BytecodeProgram::decode(&s.function, &frame, &model, &cost)
            });
            tail_allocs += n;
        }
    }
    let per_inst = |allocs: u64| allocs as f64 / instructions as f64;
    assert!(
        per_inst(specialize_allocs) <= 1.0,
        "specialize: {specialize_allocs} allocations for {instructions} instructions ({:.2} each)",
        per_inst(specialize_allocs)
    );
    assert!(
        per_inst(tail_allocs) <= 0.25,
        "analyze + decode: {tail_allocs} allocations for {instructions} instructions ({:.2} each)",
        per_inst(tail_allocs)
    );
}
