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

use dpvk::core::{Device, Engine, ExecConfig, LaunchStats, ParamValue};
use dpvk::ptx;
use dpvk::vm::{jit_supported, MachineModel};

mod reference {
    pub mod eval;
    pub mod gen;
    pub mod shrink;
}

use reference::eval::{self, Launch};
use reference::gen::{self, Case, Kernel, BYTES};

/// The formation policies and widths of the matrix.
fn configs() -> Vec<(String, ExecConfig)> {
    let mut v = vec![("baseline".to_string(), ExecConfig::baseline())];
    v.extend([1, 2, 4, 8].map(|w| (format!("dynamic w{w}"), ExecConfig::dynamic(w))));
    v.extend([2, 4, 8].map(|w| (format!("static w{w}"), ExecConfig::static_tie(w))));
    v
}

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

/// The memory image the reference leaves, `None` if the kernel is
/// outside the model.
fn reference_image(case: &Case, kernel: &ptx::Kernel, base: u64) -> Option<Vec<u8>> {
    let mut image = gen::input(case.seed);
    let params = base.to_le_bytes();
    let (grid, block) = ([case.ctas, 1, 1], [case.threads, 1, 1]);
    let launch = Launch { grid, block, params: &params, base };
    let run = || eval::run(kernel, &launch, &mut image);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).ok().map(|()| image)
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
    let want = match reference_image(case, &kernel, buf.0) {
        Some(image) => image,
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
            dev.memcpy_htod(buf, &gen::input(case.seed)).expect("upload");
            let (grid, block) = ([case.ctas, 1, 1], [case.threads, 1, 1]);
            let exec = exec.with_engine(engine);
            let stats = dev
                .launch("refk", grid, block, &[ParamValue::Ptr(buf)], &exec)
                .map_err(|e| fail(Failure::Launch(e.to_string())))?;
            let mut got = vec![0u8; BYTES];
            dev.memcpy_dtoh(&mut got, buf).expect("read back");
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

#[test]
fn kernels_the_matrix_once_failed_on_pass() {
    for (seed, threads, source) in REGRESSIONS {
        let case = Case { source: source.to_string(), threads, ctas: 1, seed };
        if let Err(m) = check(&case, None) {
            panic!("seed {seed}: {m:?}\n{source}");
        }
    }
}
