//! Property-style tests: randomly generated kernels must compute the same
//! results under every execution policy, and the front end must
//! round-trip. Inputs come from a seeded deterministic generator (no
//! external property-testing dependency), so every failure reproduces
//! exactly.

use dpvk::core::{Device, ExecConfig, ParamValue};
use dpvk::ptx;
use dpvk::vm::MachineModel;
use dpvk::workloads::Prng;

mod common;

/// One random straight-line integer instruction over registers
/// `%v0..%v{NREGS}`.
#[derive(Debug, Clone)]
enum Op {
    Bin { mnemonic: &'static str, dst: usize, a: usize, b: usize },
    BinImm { mnemonic: &'static str, dst: usize, a: usize, imm: u32 },
    Shift { mnemonic: &'static str, dst: usize, a: usize, amount: u32 },
    SelpGe { dst: usize, a: usize, b: usize, x: usize, y: usize },
}

const NREGS: usize = 6;

fn random_op(rng: &mut Prng) -> Op {
    fn reg(rng: &mut Prng) -> usize {
        rng.gen_range_u32(NREGS as u32) as usize
    }
    // Weights mirror the original distribution: 4 binary : 2 immediate :
    // 2 shift : 1 select.
    match rng.gen_range_u32(9) {
        0..=3 => {
            const MNEMONICS: [&str; 10] = [
                "add.u32",
                "sub.u32",
                "mul.lo.u32",
                "and.b32",
                "or.b32",
                "xor.b32",
                "min.u32",
                "max.u32",
                "min.s32",
                "max.s32",
            ];
            let m = MNEMONICS[rng.gen_range_u32(MNEMONICS.len() as u32) as usize];
            Op::Bin { mnemonic: m, dst: reg(rng), a: reg(rng), b: reg(rng) }
        }
        4 | 5 => {
            const MNEMONICS: [&str; 3] = ["add.u32", "mul.lo.u32", "xor.b32"];
            let m = MNEMONICS[rng.gen_range_u32(MNEMONICS.len() as u32) as usize];
            Op::BinImm { mnemonic: m, dst: reg(rng), a: reg(rng), imm: rng.next_u32() }
        }
        6 | 7 => {
            const MNEMONICS: [&str; 3] = ["shl.u32", "shr.u32", "shr.s32"];
            let m = MNEMONICS[rng.gen_range_u32(MNEMONICS.len() as u32) as usize];
            Op::Shift { mnemonic: m, dst: reg(rng), a: reg(rng), amount: rng.gen_range_u32(32) }
        }
        _ => Op::SelpGe { dst: reg(rng), a: reg(rng), b: reg(rng), x: reg(rng), y: reg(rng) },
    }
}

fn random_ops(rng: &mut Prng, min: usize, max: usize) -> Vec<Op> {
    let n = min + rng.gen_range_u32((max - min) as u32) as usize;
    (0..n).map(|_| random_op(rng)).collect()
}

fn kernel_body_fragment(ops: &[Op]) -> String {
    let mut body = String::new();
    for op in ops {
        match op {
            Op::Bin { mnemonic, dst, a, b } => {
                body.push_str(&format!("  {mnemonic} %v{dst}, %v{a}, %v{b};\n"));
            }
            Op::BinImm { mnemonic, dst, a, imm } => {
                body.push_str(&format!("  {mnemonic} %v{dst}, %v{a}, {imm};\n"));
            }
            Op::Shift { mnemonic, dst, a, amount } => {
                body.push_str(&format!("  {mnemonic} %v{dst}, %v{a}, {amount};\n"));
            }
            Op::SelpGe { dst, a, b, x, y } => {
                body.push_str(&format!("  setp.ge.u32 %p0, %v{a}, %v{b};\n"));
                body.push_str(&format!("  selp.u32 %v{dst}, %v{x}, %v{y}, %p0;\n"));
            }
        }
    }
    body
}

/// Render the ops as a kernel: seed registers from tid, apply ops, store
/// the xor of all registers.
fn kernel_source(ops: &[Op]) -> String {
    let body = kernel_body_fragment(ops);
    let mut seed = String::new();
    for i in 0..NREGS {
        seed.push_str(&format!("  mad.lo.u32 %v{i}, %r0, {}, {};\n", 2 * i + 1, 7 * i + 3));
    }
    let mut fold = String::new();
    for i in 1..NREGS {
        fold.push_str(&format!("  xor.b32 %v0, %v0, %v{i};\n"));
    }
    format!(
        r#"
.kernel prop (.param .u64 out) {{
  .reg .u32 %r<4>;
  .reg .u32 %v<{NREGS}>;
  .reg .u64 %rd<3>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
{seed}{body}{fold}  shl.u32 %r1, %r0, 2;
  cvt.u64.u32 %rd0, %r1;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %v0;
  ret;
}}
"#
    )
}

fn run(src: &str, config: &ExecConfig, n: u32) -> Vec<u32> {
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    dev.register_source(src).unwrap();
    let po = dev.malloc(n as usize * 4).unwrap();
    dev.launch("prop", [n.div_ceil(16), 1, 1], [16, 1, 1], &[ParamValue::Ptr(po)], config).unwrap();
    dev.copy_u32_dtoh(po, n as usize).unwrap()
}

/// Vectorized execution of random straight-line kernels matches the
/// scalar baseline exactly.
#[test]
fn vectorization_preserves_straightline_semantics() {
    let mut rng = Prng::new(0x5717_a117);
    for case in 0..24 {
        let ops = random_ops(&mut rng, 1, 24);
        let src = kernel_source(&ops);
        let scalar = run(&src, &ExecConfig::baseline(), 32);
        let vec4 = run(&src, &ExecConfig::dynamic(4), 32);
        let tie = run(&src, &ExecConfig::static_tie(4), 32);
        assert_eq!(scalar, vec4, "case {case}: dynamic w4 diverged\n{src}");
        assert_eq!(scalar, tie, "case {case}: static_tie w4 diverged\n{src}");
    }
}

/// Render random ops as a kernel with a data-dependent branch over the
/// second half (`if (tid >> bit) & 1`), exercising yield-on-diverge.
fn divergent_kernel_source(rng: &mut Prng) -> String {
    let ops = random_ops(rng, 2, 16);
    let bit = rng.gen_range_u32(4);
    let half = ops.len() / 2;
    let prefix = kernel_body_fragment(&ops[..half]);
    let suffix = kernel_body_fragment(&ops[half..]);
    let mut seed = String::new();
    for i in 0..NREGS {
        seed.push_str(&format!("  mad.lo.u32 %v{i}, %r0, {}, {};\n", 2 * i + 1, 7 * i + 3));
    }
    let mut fold = String::new();
    for i in 1..NREGS {
        fold.push_str(&format!("  xor.b32 %v0, %v0, %v{i};\n"));
    }
    format!(
        r#"
.kernel prop (.param .u64 out) {{
  .reg .u32 %r<4>;
  .reg .u32 %v<{NREGS}>;
  .reg .u64 %rd<3>;
  .reg .pred %p<3>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
{seed}{prefix}  shr.u32 %r2, %r0, {bit};
  and.b32 %r2, %r2, 1;
  setp.eq.u32 %p1, %r2, 0;
  @%p1 bra merge;
{suffix}merge:
{fold}  shl.u32 %r1, %r0, 2;
  cvt.u64.u32 %rd0, %r1;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %v0;
  ret;
}}
"#
    )
}

/// Adding a data-dependent branch over half the ops preserves semantics
/// under yield-on-diverge.
#[test]
fn vectorization_preserves_divergent_semantics() {
    let mut rng = Prng::new(0xd1ae_05e7);
    for case in 0..24 {
        let src = divergent_kernel_source(&mut rng);
        let scalar = run(&src, &ExecConfig::baseline(), 32);
        let vec4 = run(&src, &ExecConfig::dynamic(4), 32);
        let vec2 = run(&src, &ExecConfig::dynamic(2), 32);
        assert_eq!(scalar, vec4, "case {case}: dynamic w4 diverged\n{src}");
        assert_eq!(scalar, vec2, "case {case}: dynamic w2 diverged\n{src}");
    }
}

// ---------------------------------------------------------------------------
// Golden launch statistics
// ---------------------------------------------------------------------------
//
// The host-side fast path (flat register frames, per-worker dispatch
// tables, single-pass warp gathering) must not move a single modeled
// counter: `LaunchStats` — cycles split by phase, instruction/flop/memory
// counts, warp histogram, scan-driven manager charges — is folded into a
// digest per configuration and compared against values recorded before
// the fast path landed. Any change to modeled results shows up as a
// digest mismatch. Re-record with `DPVK_BLESS=1 cargo test -q
// golden_launch_stats -- --nocapture` only when a modeled-semantics
// change is intended.

use dpvk::core::LaunchStats;

use crate::common::digest_stats;

fn run_stats(src: &str, config: &ExecConfig, n: u32) -> LaunchStats {
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    dev.register_source(src).unwrap();
    let po = dev.malloc(n as usize * 4).unwrap();
    dev.launch("prop", [n.div_ceil(16), 1, 1], [16, 1, 1], &[ParamValue::Ptr(po)], config).unwrap()
}

/// A fixed barrier-heavy kernel so the sweep also covers barrier pools
/// and warp re-formation after a release (renamed `prop` to share the
/// launch helper; output ignored, only the stats digest matters).
const BARRIER_PROP: &str = r#"
.kernel prop (.param .u64 out) {
  .shared .u32 tile[16];
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  cvt.u64.u32 %rd1, %r1;
  shl.u64 %rd2, %rd1, 2;
  mov.u64 %rd3, tile;
  add.u64 %rd3, %rd3, %rd2;
  st.shared.u32 [%rd3], %r1;
  mov.u32 %r2, 8;
loop:
  bar.sync 0;
  setp.ge.u32 %p1, %r1, %r2;
  @%p1 bra skip;
  add.u32 %r3, %r1, %r2;
  cvt.u64.u32 %rd1, %r3;
  shl.u64 %rd1, %rd1, 2;
  mov.u64 %rd2, tile;
  add.u64 %rd2, %rd2, %rd1;
  ld.shared.u32 %r4, [%rd2];
  ld.shared.u32 %r5, [%rd3];
  add.u32 %r5, %r5, %r4;
  st.shared.u32 [%rd3], %r5;
skip:
  shr.u32 %r2, %r2, 1;
  setp.gt.u32 %p1, %r2, 0;
  @%p1 bra loop;
  mad.lo.u32 %r6, %ctaid.x, %ntid.x, %r1;
  cvt.u64.u32 %rd1, %r6;
  shl.u64 %rd1, %rd1, 2;
  ld.param.u64 %rd2, [out];
  add.u64 %rd2, %rd2, %rd1;
  ld.shared.u32 %r7, [%rd3];
  st.global.u32 [%rd2], %r7;
  ret;
}
"#;

/// Modeled results are bit-identical across the host fast path: every
/// `LaunchStats` counter (and the warp histogram) matches the values
/// recorded before the flat-frame/lock-free-dispatch overhaul, across
/// formation policies, warp widths 1/2/4/8 and worker counts 1/2/4.
#[test]
fn golden_launch_stats() {
    let mut rng = Prng::new(0x90_1de5);
    let mut sources: Vec<String> =
        (0..2).map(|_| kernel_source(&random_ops(&mut rng, 4, 20))).collect();
    sources.push(BARRIER_PROP.to_string());

    let configs: Vec<(String, ExecConfig)> = {
        let mut v = vec![("baseline".to_string(), ExecConfig::baseline())];
        for w in [1u32, 2, 4, 8] {
            v.push((format!("dynamic_w{w}"), ExecConfig::dynamic(w)));
        }
        for w in [2u32, 4, 8] {
            v.push((format!("static_w{w}"), ExecConfig::static_tie(w)));
        }
        v
    };

    // (config label, workers) -> digest over all kernels. Recorded before
    // the host fast path landed (DPVK_BLESS output, seed 0x901de5).
    const GOLDEN: [(&str, usize, u64); 24] = [
        ("baseline", 1, 0x77369bb26790127f),
        ("baseline", 2, 0x77369bb26790127f),
        ("baseline", 4, 0x77369bb26790127f),
        ("dynamic_w1", 1, 0x154209b860f0789b),
        ("dynamic_w1", 2, 0x154209b860f0789b),
        ("dynamic_w1", 4, 0x154209b860f0789b),
        ("dynamic_w2", 1, 0x7938d8dfd05330f2),
        ("dynamic_w2", 2, 0x7938d8dfd05330f2),
        ("dynamic_w2", 4, 0x7938d8dfd05330f2),
        ("dynamic_w4", 1, 0x2fa4a38a69ee7488),
        ("dynamic_w4", 2, 0x2fa4a38a69ee7488),
        ("dynamic_w4", 4, 0x2fa4a38a69ee7488),
        ("dynamic_w8", 1, 0x539e9fdfe5645764),
        ("dynamic_w8", 2, 0x539e9fdfe5645764),
        ("dynamic_w8", 4, 0x539e9fdfe5645764),
        ("static_w2", 1, 0xeecc63d870cffed6),
        ("static_w2", 2, 0xeecc63d870cffed6),
        ("static_w2", 4, 0xeecc63d870cffed6),
        ("static_w4", 1, 0x093cf51be6782528),
        ("static_w4", 2, 0x093cf51be6782528),
        ("static_w4", 4, 0x093cf51be6782528),
        ("static_w8", 1, 0xc33c9f166144c0a0),
        ("static_w8", 2, 0xc33c9f166144c0a0),
        ("static_w8", 4, 0xc33c9f166144c0a0),
    ];

    let bless = std::env::var("DPVK_BLESS").is_ok();
    let mut failures = Vec::new();
    let mut blessed = Vec::new();
    for (label, config) in &configs {
        for workers in [1usize, 2, 4] {
            // Modeled results are also engine-invariant: every guest
            // engine (tree-walk, bytecode, native JIT) must hit the same
            // golden digest, so the whole sweep runs on all three.
            for engine in [Engine::Bytecode, Engine::Tree, Engine::Jit] {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for src in &sources {
                    let stats =
                        run_stats(src, &config.with_workers(workers).with_engine(engine), 64);
                    digest_stats(&mut h, &stats);
                }
                if bless {
                    if engine == Engine::Bytecode {
                        blessed.push(format!("(\"{label}\", {workers}, {h:#018x}),"));
                    }
                    continue;
                }
                let expected = GOLDEN
                    .iter()
                    .find(|(l, w, _)| *l == label && *w == workers)
                    .map(|(_, _, d)| *d)
                    .unwrap_or_else(|| panic!("no golden entry for ({label}, {workers})"));
                if h != expected {
                    failures.push(format!(
                        "({label}, workers={workers}, {}): digest {h:#018x} != golden {expected:#018x}",
                        engine.label(),
                    ));
                }
            }
        }
    }
    if bless {
        println!("    const GOLDEN: [(&str, usize, u64); 24] = [");
        for line in &blessed {
            println!("        {line}");
        }
        println!("    ];");
        return;
    }
    assert!(failures.is_empty(), "modeled results moved:\n{}", failures.join("\n"));
}

// ---------------------------------------------------------------------------
// Pinned specialization digest
// ---------------------------------------------------------------------------

use dpvk::core::{specialize, translate, SpecializeOptions};
use dpvk::vm::CostInfo;

use crate::common::{digest_bytes, fold};

/// The compile tail must keep producing the same program: the serialized
/// specialized function, its register-pressure figure and its
/// post-optimization instruction count, over every suite kernel under
/// every option set the cache can ask for, fold into one digest recorded
/// before the optimizer and the analyses were rewritten for speed. A
/// moved digest means an optimization changed what is compiled, not just
/// how fast.
#[test]
fn specialization_digest_is_pinned() {
    const PINNED: u64 = 0x3970_1366_78a2_b64e;
    let mut options = vec![SpecializeOptions::baseline()];
    options.extend([1, 2, 4, 8].map(SpecializeOptions::dynamic));
    options.extend([2, 4, 8].map(SpecializeOptions::static_tie));
    options.push(SpecializeOptions::dynamic(4).without_uniform_analysis());
    let model = MachineModel::sandybridge_sse();

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in dpvk::workloads::all_workloads() {
        for kernel in &ptx::parse_module(&w.source()).unwrap().kernels {
            let translated = translate(kernel).unwrap();
            for opts in &options {
                let s = specialize(&translated, opts).unwrap();
                fold(&mut h, digest_bytes(&dpvk::ir::serial::function_to_bytes(&s.function)));
                fold(&mut h, CostInfo::analyze(&s.function, &model).max_live_machine_vregs);
                fold(&mut h, s.post_opt_instructions as u64);
            }
        }
    }
    assert_eq!(h, PINNED, "the specialized programs moved: digest {h:#018x}");
}

// ---------------------------------------------------------------------------
// Differential engine fuzzing
// ---------------------------------------------------------------------------

use dpvk::core::Engine;

/// All three guest engines must be pairwise observationally identical
/// at every warp width: random kernels — straight-line, divergent, and
/// the fixed barrier-heavy one — produce the same memory image and
/// bit-identical `LaunchStats` (modeled cycles included) under the
/// tree-walk oracle, the pre-decoded bytecode engine, and the native
/// JIT tier, across formation policies and widths 1/2/4/8. Every
/// engine is diffed against bytecode, which gives all three pairings
/// by transitivity — and every config's memory image is diffed against
/// the scalar baseline's, so width itself is proven not to change what
/// is computed (the invariant the adaptive width policy relies on to
/// switch widths between launches). Seeded SplitMix64 generator, so
/// every failure reproduces exactly.
#[test]
fn engines_are_pairwise_identical() {
    let mut rng = Prng::new(0x00b1_7ec0_de0a_c1e5_u64);
    let mut sources: Vec<String> = Vec::new();
    for _ in 0..8 {
        sources.push(kernel_source(&random_ops(&mut rng, 1, 24)));
        sources.push(divergent_kernel_source(&mut rng));
    }
    sources.push(BARRIER_PROP.to_string());

    let configs = [
        ExecConfig::baseline(),
        ExecConfig::dynamic(1),
        ExecConfig::dynamic(2),
        ExecConfig::dynamic(4),
        ExecConfig::dynamic(8),
        ExecConfig::static_tie(2),
        ExecConfig::static_tie(4),
        ExecConfig::static_tie(8),
    ];
    for (case, src) in sources.iter().enumerate() {
        // Memory image of the first (scalar baseline) config: the
        // cross-width/cross-policy reference.
        let mut reference: Option<Vec<u32>> = None;
        for config in &configs {
            let byte = config.with_engine(Engine::Bytecode);
            let out_byte = run(src, &byte, 32);
            let stats_byte = run_stats(src, &byte, 64);
            match &reference {
                Some(r) => assert_eq!(
                    &out_byte, r,
                    "case {case}: width/policy changed the memory image\n{src}"
                ),
                None => reference = Some(out_byte.clone()),
            }
            for engine in [Engine::Tree, Engine::Jit] {
                let other = config.with_engine(engine);
                let out = run(src, &other, 32);
                assert_eq!(
                    out,
                    out_byte,
                    "case {case}: {} memory image diverged from bytecode\n{src}",
                    engine.label()
                );
                let stats = run_stats(src, &other, 64);
                assert_eq!(
                    stats,
                    stats_byte,
                    "case {case}: {} launch stats diverged from bytecode\n{src}",
                    engine.label()
                );
            }
        }
    }
}

/// The printer's output parses back to an equivalent kernel.
#[test]
fn printer_round_trips() {
    let mut rng = Prng::new(0x0707_1e55);
    for case in 0..24 {
        let ops = random_ops(&mut rng, 1, 16);
        let src = kernel_source(&ops);
        let k1 = ptx::parse_kernel(&src).unwrap();
        let text = ptx::print_kernel(&k1);
        let k2 = ptx::parse_kernel(&text).unwrap();
        assert_eq!(k1.blocks.len(), k2.blocks.len(), "case {case}");
        for (b1, b2) in k1.blocks.iter().zip(&k2.blocks) {
            assert_eq!(b1.instructions, b2.instructions, "case {case}");
        }
    }
}
