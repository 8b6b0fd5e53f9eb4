//! Steady-state dispatch must be allocation-free.
//!
//! The host-side hot path — warp formation, specialization dispatch, and
//! the interpreter register file — is designed to reuse per-worker
//! scratch state, so once a launch shape is warm the number of heap
//! allocations must not scale with the number of warps executed. This
//! test measures that directly with a counting global allocator: two
//! launches identical in every respect except a param-controlled loop
//! trip count (so one executes ~16x the warps of the other) must perform
//! essentially the same number of allocations.
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

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
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
