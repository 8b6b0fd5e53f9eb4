//! Pinned modeled semantics and front-end round-trips: the 24 golden
//! `LaunchStats` digests, the pinned specialization digest, the two
//! engines against each other on the pinned kernels, and printer
//! round-trips over the reference generator's kernels. What kernels
//! compute is held to the PTX-level reference in `tests/reference.rs`.

use dpvk::core::{Device, Engine, ExecConfig, LaunchStats, ParamValue};
use dpvk::ptx;
use dpvk::vm::MachineModel;

mod common;

#[allow(dead_code)]
mod reference {
    pub mod gen;
}

use crate::common::digest_stats;

/// Threads per launch of a pinned kernel: four CTAs of 16.
const THREADS: u32 = 64;

/// One launch of a pinned kernel (`prop`, one output word per thread):
/// the output and the launch's stats.
fn launch(src: &str, config: &ExecConfig) -> (Vec<u32>, LaunchStats) {
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
    dev.register_source(src).unwrap();
    let po = dev.malloc(THREADS as usize * 4).unwrap();
    let grid = [THREADS / 16, 1, 1];
    let stats = dev.launch("prop", grid, [16, 1, 1], &[ParamValue::Ptr(po)], config).unwrap();
    (dev.copy_u32_dtoh(po, THREADS as usize).unwrap(), stats)
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

/// Two straight-line u32 kernels (seed 0x901de5 of the random generator
/// this suite once carried), frozen as text: the golden digests were
/// recorded over them.
const GOLDEN_A: &str = r#"
.kernel prop (.param .u64 out) {
  .reg .u32 %r<4>;
  .reg .u32 %v<6>;
  .reg .u64 %rd<3>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  mad.lo.u32 %v0, %r0, 1, 3;
  mad.lo.u32 %v1, %r0, 3, 10;
  mad.lo.u32 %v2, %r0, 5, 17;
  mad.lo.u32 %v3, %r0, 7, 24;
  mad.lo.u32 %v4, %r0, 9, 31;
  mad.lo.u32 %v5, %r0, 11, 38;
  and.b32 %v0, %v1, %v2;
  xor.b32 %v1, %v1, 1040887274;
  xor.b32 %v2, %v5, 1876731952;
  or.b32 %v4, %v1, %v4;
  setp.ge.u32 %p0, %v5, %v5;
  selp.u32 %v0, %v1, %v0, %p0;
  and.b32 %v3, %v5, %v4;
  max.u32 %v4, %v2, %v0;
  shl.u32 %v1, %v4, 11;
  setp.ge.u32 %p0, %v2, %v5;
  selp.u32 %v4, %v5, %v4, %p0;
  xor.b32 %v4, %v4, 2073422068;
  add.u32 %v4, %v0, %v4;
  add.u32 %v0, %v0, 892970976;
  shr.u32 %v5, %v1, 24;
  sub.u32 %v3, %v4, %v5;
  shl.u32 %v1, %v3, 5;
  mul.lo.u32 %v4, %v3, 792228981;
  shr.s32 %v3, %v5, 24;
  min.u32 %v3, %v5, %v3;
  shl.u32 %v1, %v4, 5;
  xor.b32 %v0, %v0, %v1;
  xor.b32 %v0, %v0, %v2;
  xor.b32 %v0, %v0, %v3;
  xor.b32 %v0, %v0, %v4;
  xor.b32 %v0, %v0, %v5;
  shl.u32 %r1, %r0, 2;
  cvt.u64.u32 %rd0, %r1;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %v0;
  ret;
}
"#;

const GOLDEN_B: &str = r#"
.kernel prop (.param .u64 out) {
  .reg .u32 %r<4>;
  .reg .u32 %v<6>;
  .reg .u64 %rd<3>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  mad.lo.u32 %v0, %r0, 1, 3;
  mad.lo.u32 %v1, %r0, 3, 10;
  mad.lo.u32 %v2, %r0, 5, 17;
  mad.lo.u32 %v3, %r0, 7, 24;
  mad.lo.u32 %v4, %r0, 9, 31;
  mad.lo.u32 %v5, %r0, 11, 38;
  add.u32 %v5, %v4, %v2;
  min.s32 %v0, %v2, %v3;
  min.s32 %v5, %v5, %v4;
  shr.u32 %v0, %v4, 15;
  shl.u32 %v2, %v1, 29;
  xor.b32 %v2, %v5, %v1;
  xor.b32 %v1, %v3, 3882438755;
  shr.u32 %v4, %v2, 2;
  min.s32 %v2, %v4, %v1;
  setp.ge.u32 %p0, %v3, %v5;
  selp.u32 %v3, %v3, %v0, %p0;
  max.u32 %v2, %v4, %v4;
  add.u32 %v3, %v2, %v0;
  or.b32 %v1, %v3, %v4;
  mul.lo.u32 %v0, %v3, %v3;
  add.u32 %v5, %v5, 3949568555;
  xor.b32 %v1, %v5, 1346274814;
  sub.u32 %v2, %v0, %v5;
  max.s32 %v0, %v1, %v5;
  add.u32 %v3, %v0, 2013861433;
  xor.b32 %v0, %v0, %v1;
  xor.b32 %v0, %v0, %v2;
  xor.b32 %v0, %v0, %v3;
  xor.b32 %v0, %v0, %v4;
  xor.b32 %v0, %v0, %v5;
  shl.u32 %r1, %r0, 2;
  cvt.u64.u32 %rd0, %r1;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %v0;
  ret;
}
"#;

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
    let sources = [GOLDEN_A, GOLDEN_B, BARRIER_PROP];

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
    // the host fast path landed (DPVK_BLESS output).
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
            // Modeled results are also engine-invariant: the bytecode
            // engine and the native JIT must hit the same golden digest.
            for engine in [Engine::Bytecode, Engine::Jit] {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for src in sources {
                    let (_, stats) = launch(src, &config.with_workers(workers).with_engine(engine));
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
// Engine equivalence
// ---------------------------------------------------------------------------

/// The two engines are observationally identical on the pinned kernels
/// at every formation policy and width: the same output and
/// bit-identical `LaunchStats`, modeled cycles included. Every
/// configuration's output also equals the scalar baseline's, so width
/// itself does not change what is computed (the invariant the adaptive
/// width policy relies on to switch widths between launches). The
/// reference matrix (`tests/reference.rs`) holds the same over
/// generated kernels.
#[test]
fn engines_are_pairwise_identical() {
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
    for (case, src) in [GOLDEN_A, GOLDEN_B, BARRIER_PROP].into_iter().enumerate() {
        let (baseline, _) = launch(src, &ExecConfig::baseline().with_engine(Engine::Bytecode));
        for config in &configs {
            let (out, stats) = launch(src, &config.with_engine(Engine::Bytecode));
            assert_eq!(out, baseline, "case {case}: width/policy changed the output");
            let (jit_out, jit_stats) = launch(src, &config.with_engine(Engine::Jit));
            assert_eq!(jit_out, out, "case {case}: jit output diverged from bytecode");
            assert_eq!(jit_stats, stats, "case {case}: jit launch stats diverged from bytecode");
        }
    }
}

/// The printer's output parses back to an equivalent kernel, over the
/// reference generator's kernels: floats, guards, loops, shared and
/// local memory, atomics and votes.
#[test]
fn printer_round_trips() {
    for seed in 0..24 {
        let k1 = ptx::parse_kernel(&reference::gen::Kernel::generate(seed).source()).unwrap();
        let text = ptx::print_kernel(&k1);
        let k2 = ptx::parse_kernel(&text).unwrap();
        assert_eq!(k1.blocks.len(), k2.blocks.len(), "seed {seed}");
        for (b1, b2) in k1.blocks.iter().zip(&k2.blocks) {
            assert_eq!(b1.instructions, b2.instructions, "seed {seed}");
        }
    }
}
