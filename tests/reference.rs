//! The reference matrix: generated kernels must compute, on every engine
//! under every formation policy and width, exactly what the PTX-level
//! reference evaluator computes — and both engines must charge the same
//! `LaunchStats`.
//!
//! Kernels come from a seeded structured generator (`reference/gen.rs`);
//! the reference (`reference/eval.rs`) interprets their PTX one thread
//! at a time and shares no code with the translator, the vectorizer or
//! either engine. A mismatch is shrunk (`reference/shrink.rs`) to the
//! smallest kernel that still fails in the same cell the same way, and
//! the test fails printing that kernel. The tier-1 slice runs a fixed
//! set of seeds; `cargo test --release --test reference -- --ignored`
//! runs the long sweep.
//!
//! Every launch runs under limits derived from the case ([`watchdog`]),
//! so a kernel that no longer exits fails its cell — as a `Watchdog`
//! error, or a `Deadline` one when its loop yields every iteration —
//! shrunk and printed, instead of hanging the suite.

use std::time::Duration;

use dpvk::core::{CoreError, Device, DevicePtr, Engine, ExecConfig, LaunchStats, ParamValue};
use dpvk::ptx;
use dpvk::vm::{jit_inline_width_cap, jit_supported, ExecLimits, MachineModel};

mod reference {
    pub mod eval;
    pub mod gen;
    pub mod shrink;
}

use reference::eval::{self, Launch};
use reference::gen::{self, Case, Kernel, BYTES};

/// The formation policies and widths of the matrix. The widest is
/// above the JIT's inline cap, so its vector µops run through the
/// interpreter helper (`jit_step`) rather than templates.
fn configs() -> Vec<(String, ExecConfig)> {
    let wide = 2 * jit_inline_width_cap();
    let mut v = vec![("baseline".to_string(), ExecConfig::baseline())];
    v.extend([1, 2, 4, 8, wide].map(|w| (format!("dynamic w{w}"), ExecConfig::dynamic(w))));
    v.extend([2, 4, 8].map(|w| (format!("static w{w}"), ExecConfig::static_tie(w))));
    v
}

/// The limits of a launch, starting now, whose longest thread runs
/// `steps` PTX instructions on the reference, at warps of up to
/// `max_warp` lanes. The watchdog bounds one warp call: its µops, lane
/// glue and yield handlers included, a warp call stays under
/// `(steps + 16) · (max_warp + 1)` on every generated kernel (measured
/// over seeds 0–400: at most 1.4× for the scalar baseline and 12.8× at
/// width 16), and the limit is four times that bound. A loop that no
/// longer exits but diverges at its back edge yields every iteration,
/// so no one call reaches any such limit; the deadline
/// ([`LAUNCH_BUDGET`]) stops that one.
fn watchdog(steps: u64, max_warp: u32) -> ExecLimits {
    let max_instructions = 4 * (steps + 16) * (u64::from(max_warp) + 2);
    ExecLimits { max_instructions, ..ExecLimits::with_deadline(LAUNCH_BUDGET) }
}

/// The wall-clock budget of one launch. A tier-1 launch, compile
/// included, takes well under 0.2 s in a debug build.
const LAUNCH_BUDGET: Duration = Duration::from_secs(5);

/// `exec` on `engine` under the watchdog of `steps`.
fn bounded(exec: &ExecConfig, engine: Engine, steps: u64) -> ExecConfig {
    ExecConfig { limits: watchdog(steps, exec.max_warp), ..exec.with_engine(engine) }
}

/// The watchdog cells: dynamic width 4 on one chunk (so the launch
/// stops at the same warp every time) under a limit of a multiple of
/// the reference's longest thread, which lands inside some warp call's
/// block: the JIT's block header then sends that block to
/// `jit_block_slow`, which steps its µops through the bytecode engine's
/// `step` up to the instruction that trips. `(name, numerator,
/// denominator)`: the limit is `steps · numerator / denominator + 1`.
/// On the tier-1 seeds the first trips in all 48 launches, the second
/// in 36.
const WATCHDOG_CELLS: [(&str, u64, u64); 2] =
    [("watchdog steps/2", 1, 2), ("watchdog 2·steps", 2, 1)];

fn engines() -> Vec<Engine> {
    let mut v = vec![Engine::Bytecode];
    if jit_supported() {
        v.push(Engine::Jit);
    }
    v
}

/// How a cell disagrees.
#[derive(Debug, Clone, PartialEq)]
enum Failure {
    /// The launch failed; the reference ran.
    Launch(String),
    /// The memory image differs from the reference's, first at this
    /// 8-byte word.
    Image(usize),
    /// `LaunchStats` differ from the bytecode engine's.
    Stats,
}

/// A failing cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
struct Mismatch {
    config: String,
    engine: Engine,
    failure: Failure,
}

/// The memory image the reference leaves and its longest thread's
/// instruction count, `None` if the kernel is outside the model.
fn reference_image(case: &Case, kernel: &ptx::Kernel, base: u64) -> Option<(Vec<u8>, u64)> {
    let mut image = gen::input(case.seed);
    let params = base.to_le_bytes();
    let (grid, block) = ([case.ctas, 1, 1], [case.threads, 1, 1]);
    let launch = Launch { grid, block, params: &params, base };
    let run = || eval::run(kernel, &launch, &mut image);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).ok().map(|steps| (image, steps))
}

/// Run `case` through the reference and every cell of the matrix (or
/// only `only`'s cell, and the bytecode cell its stats are held to),
/// returning the first disagreement.
///
/// # Panics
///
/// If the source does not parse, or the reference rejects it: the
/// generator broke its own contract.
fn check(case: &Case, only: Option<&Mismatch>) -> Result<(), Mismatch> {
    let src = &case.source;
    let kernel = ptx::parse_kernel(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 16);
    let buf = dev.malloc(BYTES).expect("buffer");
    let (want, steps) = match reference_image(case, &kernel, buf.0) {
        Some(found) => found,
        None if only.is_some() => return Ok(()),
        None => panic!("the reference rejects seed {}:\n{src}", case.seed),
    };
    let registered = dev.register_source(src);
    for (config, exec) in configs().into_iter().filter(|(c, _)| only.is_none_or(|m| m.config == *c))
    {
        let mut bytecode_stats: Option<LaunchStats> = None;
        for engine in engines() {
            let fail = |failure| Mismatch { config: config.clone(), engine, failure };
            let needed = |m: &Mismatch| m.engine == engine || m.failure == Failure::Stats;
            if only.is_some_and(|m| !needed(m)) {
                continue;
            }
            if let Err(e) = &registered {
                return Err(fail(Failure::Launch(e.to_string())));
            }
            let (got, stats) = run_case(&dev, buf, case, &bounded(&exec, engine, steps))
                .map_err(|e| fail(Failure::Launch(e.to_string())))?;
            if let Some(word) =
                (0..BYTES / 8).find(|w| got[8 * w..8 * w + 8] != want[8 * w..8 * w + 8])
            {
                return Err(fail(Failure::Image(word)));
            }
            match &bytecode_stats {
                None => bytecode_stats = Some(stats),
                Some(s) if *s != stats => return Err(fail(Failure::Stats)),
                Some(_) => {}
            }
        }
    }
    if !jit_supported() || registered.is_err() {
        return Ok(());
    }
    for (config, num, den) in
        WATCHDOG_CELLS.iter().filter(|(c, ..)| only.is_none_or(|m| m.config == *c))
    {
        let exec = |engine| ExecConfig {
            limits: ExecLimits { max_instructions: steps * num / den + 1, ..watchdog(steps, 4) },
            ..ExecConfig::dynamic(4).with_workers(1).with_engine(engine)
        };
        let fail = |failure| Mismatch { config: config.to_string(), engine: Engine::Jit, failure };
        let (want, bytecode) = launch_image(&dev, buf, case, &exec(Engine::Bytecode));
        let (got, jit) = launch_image(&dev, buf, case, &exec(Engine::Jit));
        match (bytecode, jit) {
            (Ok(b), Ok(j)) if b != j => return Err(fail(Failure::Stats)),
            (Ok(_), Ok(_)) => {}
            (b, j) => {
                let (b, j) = (b.map_err(|e| e.to_string()), j.map_err(|e| e.to_string()));
                if b.is_err() != j.is_err() || b.as_ref().err() != j.as_ref().err() {
                    return Err(fail(Failure::Launch(format!("{j:?}, bytecode {b:?}"))));
                }
            }
        }
        if let Some(word) = (0..BYTES / 8).find(|w| got[8 * w..8 * w + 8] != want[8 * w..8 * w + 8])
        {
            return Err(fail(Failure::Image(word)));
        }
    }
    Ok(())
}

/// Check every seed; shrink the first failure and report it.
fn sweep(seeds: impl Iterator<Item = u64>) {
    for seed in seeds {
        let k = Kernel::generate(seed);
        let Err(found) = check(&k.case(), None) else { continue };
        let same = |c: &Kernel| match check(&c.case(), Some(&found)) {
            Err(m) => {
                m.engine == found.engine
                    && std::mem::discriminant(&m.failure) == std::mem::discriminant(&found.failure)
            }
            Ok(()) => false,
        };
        let small = reference::shrink::shrink(k, same).case();
        let again = check(&small, Some(&found)).expect_err("the shrunk kernel fails");
        panic!(
            "seed {seed}: {} on {} ({:?}); shrunk to {} threads x {} CTAs:\n{}",
            again.config,
            again.engine.label(),
            again.failure,
            small.threads,
            small.ctas,
            small.source
        );
    }
}

#[test]
fn generated_kernels_match_the_reference_on_every_engine_and_width() {
    sweep(0..48);
}

#[test]
#[ignore = "the long sweep; CI runs it in release"]
fn generated_kernels_match_the_reference_long() {
    sweep(48..4000);
}

/// Upload `case`'s input to `buf`, launch it, and read the image back.
fn run_case(
    dev: &Device,
    buf: DevicePtr,
    case: &Case,
    exec: &ExecConfig,
) -> Result<(Vec<u8>, LaunchStats), CoreError> {
    let (image, stats) = launch_image(dev, buf, case, exec);
    Ok((image, stats?))
}

/// [`run_case`], reading the image back whether or not the launch
/// failed.
fn launch_image(
    dev: &Device,
    buf: DevicePtr,
    case: &Case,
    exec: &ExecConfig,
) -> (Vec<u8>, Result<LaunchStats, CoreError>) {
    dev.memcpy_htod(buf, &gen::input(case.seed)).expect("upload");
    let (grid, block) = ([case.ctas, 1, 1], [case.threads, 1, 1]);
    let stats = dev.launch("refk", grid, block, &[ParamValue::Ptr(buf)], exec);
    let mut image = vec![0u8; BYTES];
    dev.memcpy_dtoh(&mut image, buf).expect("read back");
    (image, stats)
}

/// The reference's longest thread on `case`, for its watchdog.
fn reference_steps(case: &Case) -> u64 {
    let kernel = ptx::parse_kernel(&case.source).unwrap_or_else(|e| panic!("{e}\n{}", case.source));
    reference_image(case, &kernel, 0)
        .map_or_else(|| panic!("the reference rejects seed {}", case.seed), |(_, steps)| steps)
}

/// A fresh device holding `case`'s kernel and a buffer for its image.
/// Persistence is off, so the device starts with nothing compiled.
fn fresh_device(case: &Case) -> (Device, DevicePtr) {
    let dev = Device::with_persist(MachineModel::sandybridge_sse(), 1 << 16, None);
    dev.register_source(&case.source).unwrap_or_else(|e| panic!("{e}\n{}", case.source));
    let buf = dev.malloc(BYTES).expect("buffer");
    (dev, buf)
}

/// Cache state changes nothing: a kernel leaves the same image and
/// charges the same stats on a fresh device (cold), again on that device
/// (warm: translation, specializations and worker memos filled), and on
/// a second fresh device whose pool workers just served the first.
#[test]
fn cold_warm_and_reused_worker_runs_agree() {
    for seed in 0..48 {
        let case = Kernel::generate(seed).case();
        let steps = reference_steps(&case);
        for engine in engines() {
            let run = |dev: &Device, buf| {
                run_case(dev, buf, &case, &bounded(&ExecConfig::dynamic(4), engine, steps))
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", case.source))
            };
            let (first, buf) = fresh_device(&case);
            let cold = run(&first, buf);
            let warm = run(&first, buf);
            let (second, buf) = fresh_device(&case);
            let reused = run(&second, buf);
            for (state, got) in [("warm", &warm), ("second device", &reused)] {
                assert!(cold.0 == got.0, "seed {seed}, {}: {state} image differs", engine.label());
                assert_eq!(cold.1, got.1, "seed {seed}, {}: {state} stats differ", engine.label());
            }
        }
    }
}

/// The matrix's engines are all there are: any other name, `tree`
/// included, is a typed error.
#[test]
fn tree_names_no_engine() {
    assert_eq!(Engine::parse("bytecode"), Ok(Engine::Bytecode));
    assert_eq!(Engine::parse("jit"), Ok(Engine::Jit));
    let err = Engine::parse("tree").unwrap_err();
    assert_eq!(err.to_string(), "unknown engine `tree`: expected `bytecode` or `jit`");
}

/// Kernels the matrix failed on, as it shrank them: the seed of their
/// input table, their threads (one CTA), their source.
const REGRESSIONS: [(u64, u32, &str); 2] = [
    // A float converted to a signed integer went through u64, so every
    // negative value came out 0.
    (
        19,
        4,
        ".kernel refk (.param .u64 buf) {
  .reg .u32 %s<5>;
  .reg .u64 %a<3>;
  .reg .u64 %q<2>;
  .reg .f64 %d<2>;
entry:
  ld.param.u64 %a0, [buf];
  mov.u32 %s0, %tid.x;
  mad.lo.u32 %s1, %ctaid.x, %ntid.x, %s0;
  mul.lo.u32 %s2, %s1, 160;
  cvt.u64.u32 %a1, %s2;
  add.u64 %a1, %a1, %a0;
  mov.u64 %q0, 0;
  mov.f64 %d0, 0;
  mov.f64 %d1, 0;
  add.u32 %s2, %s0, 0;
  rem.u32 %s2, %s2, 32;
  cvt.u64.u32 %a2, %s2;
  shl.b64 %a2, %a2, 3;
  add.u64 %a2, %a2, %a0;
  ld.global.f64 %d1, [%a2+10496];
  fma.rn.f64 %d0, %d1, %d0, %d1;
  cvt.s64.f64 %q0, %d0;
  st.global.u64 [%a1+32], %q0;
  ret;
}",
    ),
    // The bytecode engine's w > 1 chunk kernel for f32 `min` let an sNaN
    // operand through unquieted: the compiler folded the widen–narrow
    // pair around the operand it returned.
    (
        319,
        16,
        ".kernel refk (.param .u64 buf) {
  .reg .u32 %s<5>;
  .reg .u64 %a<3>;
  .reg .f32 %f<4>;
entry:
  ld.param.u64 %a0, [buf];
  mov.u32 %s0, %tid.x;
  mad.lo.u32 %s1, %ctaid.x, %ntid.x, %s0;
  mul.lo.u32 %s2, %s1, 160;
  cvt.u64.u32 %a1, %s2;
  add.u64 %a1, %a1, %a0;
  mov.f32 %f0, 0;
  mov.f32 %f1, 0;
  add.u32 %s2, %s1, 0;
  rem.u32 %s2, %s2, 32;
  cvt.u64.u32 %a2, %s2;
  shl.b64 %a2, %a2, 3;
  add.u64 %a2, %a2, %a0;
  ld.global.f32 %f0, [%a2+10240];
  min.f32 %f1, %f0, %f0;
  st.global.f32 [%a1+56], %f1;
  ret;
}",
    ),
];

/// `fma.rn.f32` rounds once: `a = b = 1 + 2^-12` make
/// `a·b = 1 + 2^-11 + 2^-24`, an f32 tie that `c = 2^-80` breaks
/// upward. Rounded once that is `0x3f801001`; rounded to f64 first, the
/// `c` is lost and the tie goes to even, `0x3f801000`. The reference and
/// every engine at every width must store the first.
#[test]
fn f32_fma_rounds_once() {
    let source = ".kernel refk (.param .u64 buf) {
  .reg .u32 %s<3>;
  .reg .u64 %a<3>;
  .reg .f32 %f<4>;
entry:
  ld.param.u64 %a0, [buf];
  mov.u32 %s0, %tid.x;
  mad.lo.u32 %s1, %ctaid.x, %ntid.x, %s0;
  mul.lo.u32 %s2, %s1, 4;
  cvt.u64.u32 %a1, %s2;
  add.u64 %a1, %a1, %a0;
  mov.f32 %f0, 0f3F800800;
  mov.f32 %f1, 0f3F800800;
  mov.f32 %f2, 0f17800000;
  fma.rn.f32 %f3, %f0, %f1, %f2;
  st.global.f32 [%a1], %f3;
  ret;
}";
    let case = Case { source: source.to_string(), threads: 8, ctas: 2, seed: 0 };
    let kernel = ptx::parse_kernel(source).unwrap();
    let (want, _) = reference_image(&case, &kernel, 0).expect("the reference runs it");
    for t in 0..16 {
        let bits = u32::from_le_bytes(want[4 * t..4 * t + 4].try_into().unwrap());
        assert_eq!(bits, 0x3F80_1001, "thread {t}: the reference rounded twice");
    }
    if let Err(m) = check(&case, None) {
        panic!("{m:?}");
    }
}

#[test]
fn kernels_the_matrix_once_failed_on_pass() {
    for (seed, threads, source) in REGRESSIONS {
        let case = Case { source: source.to_string(), threads, ctas: 1, seed };
        if let Err(m) = check(&case, None) {
            panic!("seed {seed}: {m:?}\n{source}");
        }
    }
}

/// The tier-1 seeds cover the unstructured loops and exercise the slot
/// plan: every kernel has a live-in some entry handler recomputes and a
/// register stored where it is defined (the generator's prologue makes
/// both: `%s0` is `%tid.x`, `%a1` is an address built from it, and
/// every kernel ends with a barrier).
#[test]
fn generated_kernels_exercise_the_slot_plan() {
    fn shapes(stmts: &[gen::Stmt], seen: &mut [u32; 3]) {
        for s in stmts {
            match s {
                gen::Stmt::TwoEntry { first, second, .. } => {
                    seen[0] += 1;
                    shapes(first, seen);
                    shapes(second, seen);
                }
                gen::Stmt::Leave { first, second, .. } => {
                    seen[1] += 1;
                    shapes(first, seen);
                    shapes(second, seen);
                }
                gen::Stmt::Carry { body, .. } => {
                    seen[2] += 1;
                    shapes(body, seen);
                }
                gen::Stmt::If { then, els, .. } => {
                    shapes(then, seen);
                    shapes(els, seen);
                }
                gen::Stmt::Loop { body, .. } => shapes(body, seen),
                _ => {}
            }
        }
    }
    let (mut planned, mut seen) = (0, [0; 3]);
    for seed in 0..48 {
        let k = Kernel::generate(seed);
        shapes(&k.body, &mut seen);
        let tk = dpvk::core::translate(&ptx::parse_kernel(&k.source()).unwrap()).unwrap();
        let remat = tk.slots.remat.iter().any(|v| !v.is_empty());
        planned += u32::from(remat && tk.slots.home.contains(&true));
    }
    assert_eq!(planned, 48, "seeds with a rematerialized live-in and a home-slot register");
    assert!(seen.iter().all(|&n| n > 0), "two-entry, early-exit, carry loops: {seen:?}");
}

/// Run `source` (kernel `refk`, first parameter a buffer holding `input`
/// and then `want.len()` zeroed words, further parameters `args`) over
/// one CTA of `threads`, on the reference and on both engines × every
/// policy and width of the matrix, and assert each leaves `want` after
/// the input.
fn known_answers(source: &str, threads: u32, input: &[u8], args: &[ParamValue], want: &[u64]) {
    let kernel = ptx::parse_kernel(source).unwrap_or_else(|e| panic!("{e}\n{source}"));
    let dev = Device::with_persist(MachineModel::sandybridge_sse(), 1 << 16, None);
    dev.register_source(source).unwrap_or_else(|e| panic!("{e}\n{source}"));
    let buf = dev.malloc(input.len() + 8 * want.len()).expect("buffer");
    let mut image = input.to_vec();
    image.resize(input.len() + 8 * want.len(), 0);
    let params: Vec<ParamValue> =
        std::iter::once(ParamValue::Ptr(buf)).chain(args.iter().copied()).collect();
    let check = |cell: &str, image: &[u8]| {
        for (w, &want) in want.iter().enumerate() {
            let at = input.len() + 8 * w;
            let got = u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
            assert_eq!(got, want, "{cell}: word {w} is {got:#x}, want {want:#x}\n{source}");
        }
    };

    let mut bytes = vec![0u8; kernel.params.iter().map(|p| p.offset + 8).max().unwrap_or(0)];
    for (p, arg) in kernel.params.iter().zip(&params) {
        let v = match *arg {
            ParamValue::U32(v) => u64::from(v),
            ParamValue::U64(v) => v,
            ParamValue::Ptr(p) => p.0,
            ParamValue::F32(v) => u64::from(v.to_bits()),
            ParamValue::F64(v) => v.to_bits(),
        };
        let n = p.ty.size_bytes();
        bytes[p.offset..p.offset + n].copy_from_slice(&v.to_le_bytes()[..n]);
    }
    let mut reference = image.clone();
    let launch = Launch { grid: [1, 1, 1], block: [threads, 1, 1], params: &bytes, base: buf.0 };
    let steps = eval::run(&kernel, &launch, &mut reference);
    check("reference", &reference);

    for (config, exec) in configs() {
        for engine in engines() {
            dev.memcpy_htod(buf, &image).expect("upload");
            dev.launch("refk", [1, 1, 1], [threads, 1, 1], &params, &bounded(&exec, engine, steps))
                .unwrap_or_else(|e| panic!("{config}, {}: {e}", engine.label()));
            let mut got = vec![0u8; image.len()];
            dev.memcpy_dtoh(&mut got, buf).expect("read back");
            check(&format!("{config}, {}", engine.label()), &got);
        }
    }
}

/// PTX clamps a shift amount to the operand width N: a shift by N or
/// more leaves 0 for `shl` and `shr.u` and the sign fill for `shr.s`.
/// Each of eight threads shifts `x = 0x80…01` by N − 1, N, N + 1 and
/// `0xffffffff`, taken from a parameter, as an immediate, and as an
/// immediate applied to an immediate `x` (which the optimizer folds).
#[test]
fn shift_amounts_clamp_to_the_operand_width() {
    const THREADS: u32 = 8;
    for n in [32u32, 64] {
        let x: u64 = (1 << (n - 1)) | 1;
        let ones = u64::MAX >> (64 - n);
        // (op, result at N − 1, result at N and past it)
        let ops = [("shl.b", 1 << (n - 1), 0), ("shr.u", 1, 0), ("shr.s", ones, ones)];
        let (mut body, mut row) = (String::new(), Vec::new());
        for (k, s) in [n - 1, n, n + 1, u32::MAX].into_iter().enumerate() {
            body.push_str(&format!("  ld.param.u32 %s{k}, [s{k}];\n  mov.b{n} %v2, {x:#x};\n"));
            for (value, amount) in
                [("%v0", format!("%s{k}")), ("%v0", s.to_string()), ("%v2", s.to_string())]
            {
                for (op, below, past) in ops {
                    body.push_str(&format!(
                        "  {op}{n} %v1, {value}, {amount};\n  st.global.b{n} [%a1+{}], %v1;\n",
                        8 * row.len()
                    ));
                    row.push(if s < n { below } else { past });
                }
            }
        }
        let source = format!(
            ".kernel refk (.param .u64 buf, .param .u{n} x, .param .u32 s0, .param .u32 s1,
  .param .u32 s2, .param .u32 s3) {{
  .reg .u32 %r<2>;
  .reg .u32 %s<4>;
  .reg .u64 %a<2>;
  .reg .b{n} %v<3>;
entry:
  ld.param.u64 %a0, [buf];
  mov.u32 %r0, %tid.x;
  mul.lo.u32 %r1, %r0, {};
  cvt.u64.u32 %a1, %r1;
  add.u64 %a1, %a1, %a0;
  ld.param.u{n} %v0, [x];
{body}  ret;
}}",
            8 * row.len()
        );
        let x = if n == 32 { ParamValue::U32(x as u32) } else { ParamValue::U64(x) };
        let args = [
            x,
            ParamValue::U32(n - 1),
            ParamValue::U32(n),
            ParamValue::U32(n + 1),
            ParamValue::U32(u32::MAX),
        ];
        known_answers(&source, THREADS, &[], &args, &row.repeat(THREADS as usize));
    }
}

/// PTX's float → integer `cvt` truncates toward zero and saturates to the
/// destination's range; NaN gives 0. Thread `t` converts the `t`-th
/// input, held as f32 and as f64, to s32, u32, s64 and u64 (32-bit
/// results in the low half of their word).
#[test]
fn float_to_integer_cvt_saturates_to_the_destination() {
    let inputs = [3e9, -3e9, 5e9, 2f64.powi(63), f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.5];
    // s32, u32, s64, u64 of each input.
    let want: [[u64; 4]; 8] = [
        [0x7fff_ffff, 3_000_000_000, 3_000_000_000, 3_000_000_000],
        [0x8000_0000, 0, (-3_000_000_000i64) as u64, 0],
        [0x7fff_ffff, 0xffff_ffff, 5_000_000_000, 5_000_000_000],
        [0x7fff_ffff, 0xffff_ffff, 0x7fff_ffff_ffff_ffff, 0x8000_0000_0000_0000],
        [0x7fff_ffff, 0xffff_ffff, 0x7fff_ffff_ffff_ffff, u64::MAX],
        [0x8000_0000, 0, 0x8000_0000_0000_0000, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ];
    let mut input: Vec<u8> = inputs.iter().flat_map(|&v| (v as f32).to_le_bytes()).collect();
    input.extend(inputs.iter().flat_map(|&v| v.to_le_bytes()));
    let mut body = String::new();
    for (i, (src, reg)) in [("f32", "%f0"), ("f64", "%d0")].into_iter().enumerate() {
        for (j, (to, dst)) in
            [("s32", "%i0"), ("u32", "%r2"), ("s64", "%j0"), ("u64", "%q0")].into_iter().enumerate()
        {
            let off = input.len() + 8 * (4 * i + j);
            body.push_str(&format!(
                "  cvt.{to}.{src} {dst}, {reg};\n  st.global.{to} [%a3+{off}], {dst};\n"
            ));
        }
    }
    let source = format!(
        ".kernel refk (.param .u64 buf) {{
  .reg .u32 %r<3>;
  .reg .s32 %i<1>;
  .reg .s64 %j<1>;
  .reg .u64 %q<1>;
  .reg .u64 %a<4>;
  .reg .f32 %f<1>;
  .reg .f64 %d<1>;
entry:
  ld.param.u64 %a0, [buf];
  mov.u32 %r0, %tid.x;
  mul.lo.u32 %r1, %r0, 4;
  cvt.u64.u32 %a1, %r1;
  add.u64 %a1, %a1, %a0;
  ld.global.f32 %f0, [%a1];
  mul.lo.u32 %r1, %r0, 8;
  cvt.u64.u32 %a2, %r1;
  add.u64 %a2, %a2, %a0;
  ld.global.f64 %d0, [%a2+32];
  mul.lo.u32 %r1, %r0, 64;
  cvt.u64.u32 %a3, %r1;
  add.u64 %a3, %a3, %a0;
{body}  ret;
}}"
    );
    let want: Vec<u64> = want.iter().flat_map(|row| row.repeat(2)).collect();
    known_answers(&source, 8, &input, &[], &want);
}

/// An integer converts to f32 rounding once. `x = 2⁶¹ + 2³⁷ + 1` lies
/// just above the midpoint between the f32s `2⁶¹` and `2⁶¹ + 2³⁸`, so
/// it rounds up, to `0x5e000001`; rounded to f64 first, the `+ 1` is
/// lost and the tie goes to even, `0x5e000000`. Its negation rounds to
/// `0xde000001`, and as u64 it is the same positive value.
#[test]
fn integer_to_f32_cvt_rounds_once() {
    let x: i64 = (1 << 61) + (1 << 37) + 1;
    let source = ".kernel refk (.param .u64 buf, .param .s64 x, .param .s64 y) {
  .reg .u64 %a<1>;
  .reg .s64 %q<2>;
  .reg .f32 %f<3>;
entry:
  ld.param.u64 %a0, [buf];
  ld.param.s64 %q0, [x];
  ld.param.s64 %q1, [y];
  cvt.rn.f32.s64 %f0, %q0;
  cvt.rn.f32.s64 %f1, %q1;
  cvt.rn.f32.u64 %f2, %q0;
  st.global.f32 [%a0], %f0;
  st.global.f32 [%a0+8], %f1;
  st.global.f32 [%a0+16], %f2;
  ret;
}";
    let args = [ParamValue::U64(x as u64), ParamValue::U64(x.wrapping_neg() as u64)];
    known_answers(source, 1, &[], &args, &[0x5e00_0001, 0xde00_0001, 0x5e00_0001]);
}

/// Float `min`/`max` return the first operand of two that compare equal
/// (`±0`) and ignore a NaN operand, in either operand order. Each of
/// eight threads computes every row at f32 and f64 twice: from
/// parameters, and from immediates the constant folder folds.
#[test]
fn float_min_max_of_signed_zeros_and_nan() {
    const THREADS: u32 = 8;
    let mut body = String::new();
    let mut row: Vec<u64> = Vec::new();
    for (t, r, bits, nz, pz, nan, one) in [
        ("f32", "%f", 32, 0x8000_0000u64, 0, 0x7fc0_0000, 0x3f80_0000),
        ("f64", "%d", 64, 0x8000_0000_0000_0000, 0, 0x7ff8_0000_0000_0000, 0x3ff0_0000_0000_0000),
    ] {
        body.push_str(&format!(
            "  ld.param.{t} {r}0, [{t}_nz];\n  ld.param.{t} {r}1, [{t}_pz];\n  \
             ld.param.{t} {r}2, [{t}_nan];\n  ld.param.{t} {r}3, [{t}_one];\n"
        ));
        let imm = |v: u64| {
            if bits == 32 {
                format!("0f{v:08x}")
            } else {
                format!("0d{v:016x}")
            }
        };
        // (op, x, y, result): x and y index [nz, pz, nan, one].
        let values = [nz, pz, nan, one];
        for (op, x, y, want) in [
            ("min", 0, 1, nz),
            ("min", 1, 0, pz),
            ("max", 0, 1, nz),
            ("max", 1, 0, pz),
            ("min", 2, 3, one),
            ("min", 3, 2, one),
            ("max", 2, 3, one),
            ("max", 3, 2, one),
        ] {
            for (a, b) in [(format!("{r}{x}"), format!("{r}{y}")), (imm(values[x]), imm(values[y]))]
            {
                body.push_str(&format!(
                    "  {op}.{t} {r}4, {a}, {b};\n  st.global.{t} [%a1+{}], {r}4;\n",
                    8 * row.len()
                ));
                row.push(want);
            }
        }
    }
    let source = format!(
        ".kernel refk (.param .u64 buf, .param .f32 f32_nz, .param .f32 f32_pz,
  .param .f32 f32_nan, .param .f32 f32_one, .param .f64 f64_nz, .param .f64 f64_pz,
  .param .f64 f64_nan, .param .f64 f64_one) {{
  .reg .u32 %r<2>;
  .reg .u64 %a<2>;
  .reg .f32 %f<5>;
  .reg .f64 %d<5>;
entry:
  ld.param.u64 %a0, [buf];
  mov.u32 %r0, %tid.x;
  mul.lo.u32 %r1, %r0, {};
  cvt.u64.u32 %a1, %r1;
  add.u64 %a1, %a1, %a0;
{body}  ret;
}}",
        8 * row.len()
    );
    let args = [
        ParamValue::F32(-0.0),
        ParamValue::F32(0.0),
        ParamValue::F32(f32::from_bits(0x7fc0_0000)),
        ParamValue::F32(1.0),
        ParamValue::F64(-0.0),
        ParamValue::F64(0.0),
        ParamValue::F64(f64::from_bits(0x7ff8_0000_0000_0000)),
        ParamValue::F64(1.0),
    ];
    known_answers(&source, THREADS, &[], &args, &row.repeat(THREADS as usize));
}

/// Signed `div` of the most negative value by −1 wraps to that value,
/// and `rem` gives 0, at s32 and s64: from parameters, and from
/// immediates the constant folder folds.
#[test]
fn signed_division_of_min_by_minus_one_wraps() {
    let mut body = String::new();
    let mut want: Vec<u64> = Vec::new();
    for (n, min) in [(32u32, 0x8000_0000u64), (64, 0x8000_0000_0000_0000)] {
        let imm_min = if n == 32 { i64::from(i32::MIN) } else { i64::MIN };
        body.push_str(&format!(
            "  ld.param.s{n} %x{n}, [min{n}];\n  ld.param.s{n} %y{n}, [neg{n}];\n"
        ));
        for (op, result) in [("div", min), ("rem", 0)] {
            for (a, b) in [(format!("%x{n}"), format!("%y{n}")), (imm_min.to_string(), "-1".into())]
            {
                body.push_str(&format!(
                    "  {op}.s{n} %z{n}, {a}, {b};\n  st.global.s{n} [%a0+{}], %z{n};\n",
                    8 * want.len()
                ));
                want.push(result);
            }
        }
    }
    let source = format!(
        ".kernel refk (.param .u64 buf, .param .s32 min32, .param .s32 neg32,
  .param .s64 min64, .param .s64 neg64) {{
  .reg .u64 %a<1>;
  .reg .s32 %x32, %y32, %z32;
  .reg .s64 %x64, %y64, %z64;
entry:
  ld.param.u64 %a0, [buf];
{body}  ret;
}}"
    );
    let args = [
        ParamValue::U32(i32::MIN as u32),
        ParamValue::U32(u32::MAX),
        ParamValue::U64(i64::MIN as u64),
        ParamValue::U64(u64::MAX),
    ];
    known_answers(&source, 1, &[], &args, &want);
}
