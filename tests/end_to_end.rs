//! Cross-crate integration tests: every execution policy must compute the
//! same results, across CTA shapes, worker counts and machine models.

use dpvk::core::{CoreError, Device, ExecConfig, ParamValue};
use dpvk::ptx::PtxError;
use dpvk::vm::MachineModel;

const STENCIL: &str = r#"
.kernel shift_add (.param .u64 a, .param .u64 b, .param .u32 n) {
  .reg .u32 %r<6>;
  .reg .u64 %rd<6>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
  ld.param.u32 %r1, [n];
  setp.ge.u32 %p0, %r0, %r1;
  @%p0 bra done;
  shl.u32 %r2, %r0, 2;
  cvt.u64.u32 %rd0, %r2;
  ld.param.u64 %rd1, [a];
  add.u64 %rd1, %rd1, %rd0;
  ld.global.u32 %r3, [%rd1];
  shl.u32 %r4, %r3, 1;
  xor.b32 %r4, %r4, %r0;
  ld.param.u64 %rd2, [b];
  add.u64 %rd2, %rd2, %rd0;
  st.global.u32 [%rd2], %r4;
done:
  ret;
}
"#;

fn run_shift_add(config: &ExecConfig, model: MachineModel, block: u32, n: u32) -> Vec<u32> {
    let dev = Device::new(model, 4 << 20);
    dev.register_source(STENCIL).unwrap();
    let pa = dev.malloc(n as usize * 4).unwrap();
    let pb = dev.malloc(n as usize * 4).unwrap();
    let input: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
    dev.copy_u32_htod(pa, &input).unwrap();
    dev.launch(
        "shift_add",
        [n.div_ceil(block), 1, 1],
        [block, 1, 1],
        &[ParamValue::Ptr(pa), ParamValue::Ptr(pb), ParamValue::U32(n)],
        config,
    )
    .unwrap();
    dev.copy_u32_dtoh(pb, n as usize).unwrap()
}

fn expected(n: u32) -> Vec<u32> {
    (0..n).map(|i| (i.wrapping_mul(2654435761) << 1) ^ i).collect()
}

#[test]
fn all_policies_agree_across_block_shapes() {
    let n = 333; // awkward size: partial CTAs diverge at the bound check
    let want = expected(n);
    for block in [1u32, 7, 32, 64, 256] {
        for config in [
            ExecConfig::baseline(),
            ExecConfig::dynamic(2),
            ExecConfig::dynamic(4),
            ExecConfig::static_tie(4),
        ] {
            let got = run_shift_add(&config, MachineModel::sandybridge_sse(), block, n);
            assert_eq!(got, want, "block={block}, config={config:?}");
        }
    }
}

#[test]
fn machine_models_do_not_change_results() {
    let n = 128;
    let want = expected(n);
    for model in
        [MachineModel::sandybridge_sse(), MachineModel::sandybridge_avx(), MachineModel::wide16()]
    {
        let got = run_shift_add(&ExecConfig::dynamic(4), model, 64, n);
        assert_eq!(got, want);
    }
}

#[test]
fn worker_count_does_not_change_results() {
    let n = 512;
    let want = expected(n);
    for workers in [1usize, 2, 4, 8] {
        let got = run_shift_add(
            &ExecConfig::dynamic(4).with_workers(workers),
            MachineModel::sandybridge_sse(),
            64,
            n,
        );
        assert_eq!(got, want, "workers={workers}");
    }
}

#[test]
fn modeled_cycles_are_deterministic_per_worker_partition() {
    let dev = || {
        let d = Device::new(MachineModel::sandybridge_sse(), 4 << 20);
        d.register_source(STENCIL).unwrap();
        d
    };
    let run = |d: &Device| {
        let pa = d.malloc(256 * 4).unwrap();
        let pb = d.malloc(256 * 4).unwrap();
        d.copy_u32_htod(pa, &vec![3u32; 256]).unwrap();
        d.launch(
            "shift_add",
            [4, 1, 1],
            [64, 1, 1],
            &[ParamValue::Ptr(pa), ParamValue::Ptr(pb), ParamValue::U32(256)],
            &ExecConfig::dynamic(4).with_workers(1),
        )
        .unwrap()
    };
    let (d1, d2) = (dev(), dev());
    assert_eq!(run(&d1).exec, run(&d2).exec);
}

#[test]
fn wider_machines_speed_up_wide_warps() {
    // The paper's scalability claim: the transformation is width-agnostic;
    // an 8-wide machine executes width-8 warps in fewer modeled cycles
    // than a 4-wide machine does.
    let dev = |model: MachineModel| {
        let d = Device::new(model, 4 << 20);
        d.register_source(STENCIL).unwrap();
        d
    };
    let cycles = |d: &Device| {
        let pa = d.malloc(1024 * 4).unwrap();
        let pb = d.malloc(1024 * 4).unwrap();
        d.copy_u32_htod(pa, &vec![1u32; 1024]).unwrap();
        d.launch(
            "shift_add",
            [16, 1, 1],
            [64, 1, 1],
            &[ParamValue::Ptr(pa), ParamValue::Ptr(pb), ParamValue::U32(1024)],
            &ExecConfig::dynamic(8).with_workers(1),
        )
        .unwrap()
        .exec
        .total_cycles()
    };
    let sse = cycles(&dev(MachineModel::sandybridge_sse()));
    let avx = cycles(&dev(MachineModel::sandybridge_avx()));
    assert!(avx < sse, "avx {avx} should beat sse {sse} on width-8 warps");
}

/// An f32 operation on u32 registers is a typed error when the kernel is
/// registered, not an IR verification failure at its first launch.
#[test]
fn ill_typed_ptx_fails_at_registration() {
    let src = ".kernel bad () { .reg .u32 %r<3>; entry: add.f32 %r0, %r1, %r2; ret; }";
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 16);
    match dev.register_source(src) {
        Err(CoreError::Ptx(PtxError::Validation { kernel, message })) => {
            assert_eq!(kernel, "bad");
            assert!(message.contains("incompatible"), "{message}");
        }
        other => panic!("expected a validation error, got {other:?}"),
    }
}

/// A modifier dpvk does not implement as PTX defines it is refused by
/// name when the kernel is registered, never silently dropped; the ones
/// it implements still register.
#[test]
fn unimplemented_modifiers_fail_at_registration() {
    let source = |i: usize, inst: &str| {
        format!(
            ".kernel k{i} () {{ .reg .u32 %r<4>; .reg .s32 %i<2>; .reg .u64 %rd<2>;
               .reg .f32 %f<2>; .reg .pred %p<2>; entry: {inst} ret; }}"
        )
    };
    let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 16);
    let refused = [
        ("cvt.rni.s32.f32 %i0, %f0;", "rni"),
        ("cvt.rmi.s32.f32 %i0, %f0;", "rmi"),
        ("cvt.rpi.s32.f32 %i0, %f0;", "rpi"),
        ("cvt.rn.s32.f32 %i0, %f0;", "rn"),
        ("cvt.rz.f32.s32 %f0, %i0;", "rz"),
        ("cvt.rm.f32.f32 %f0, %f1;", "rm"),
        ("cvt.rzi.f32.f32 %f0, %f1;", "rzi"),
        ("cvt.sat.u32.f32 %r0, %f0;", "sat"),
        ("add.sat.s32 %i0, %i0, %i1;", "sat"),
        ("add.rp.f32 %f0, %f0, %f1;", "rp"),
        ("mul.ftz.f32 %f0, %f0, %f1;", "ftz"),
        ("mul.wide.u32 %rd0, %r0, %r1;", "wide"),
        ("mul.lo.hi.u32 %r0, %r1, %r2;", "hi"),
        ("mad.hi.u32 %r0, %r1, %r2, %r3;", "hi"),
        ("add.cc.u32 %r0, %r1, %r2;", "cc"),
        ("ex2.approx.ftz.f32 %f0, %f1;", "ftz"),
        ("setp.lt.ftz.f32 %p0, %f0, %f1;", "ftz"),
        ("ld.global.nc.u32 %r0, [%rd0];", "nc"),
        ("bar.arrive 0;", "arrive"),
    ];
    for (i, (inst, modifier)) in refused.into_iter().enumerate() {
        let err = dev.register_source(&source(i, inst)).expect_err(inst);
        let CoreError::Ptx(PtxError::UnsupportedModifier { instruction, modifier: m, .. }) = &err
        else {
            panic!("{inst}: expected an unsupported-modifier error, got {err:?}");
        };
        assert_eq!(m, modifier, "{inst}");
        assert!(inst.starts_with(instruction.as_str()), "{inst}: {instruction}");
        assert!(err.to_string().contains(&format!("`.{modifier}`")), "{err}");
    }
    let accepted = [
        "cvt.rzi.s32.f32 %i0, %f0;",
        "cvt.rn.f32.s32 %f0, %i0;",
        "fma.rn.f32 %f0, %f0, %f1, %f1;",
        "div.rn.f32 %f0, %f0, %f1;",
        "sqrt.approx.f32 %f0, %f1;",
        "sin.approx.f32 %f0, %f1;",
        "mul.hi.u32 %r0, %r1, %r2;",
        "mad.lo.s32 %i0, %i0, %i1, %i1;",
        "vote.uni.pred %p0, %p1;",
        "bar.sync 0;",
    ];
    for (i, inst) in accepted.into_iter().enumerate() {
        dev.register_source(&source(refused.len() + i, inst))
            .unwrap_or_else(|e| panic!("{inst}: {e}"));
    }
}

/// Every suite kernel still registers under the register type rules.
#[test]
fn every_suite_kernel_registers() {
    for w in dpvk::workloads::all_workloads() {
        let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 16);
        dev.register_source(&w.source()).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
}

/// The decoder lowers every source instruction to a µop of its own,
/// except the per-lane glue it collapses into lane runs: over every
/// suite kernel and specialization the µops cover the source exactly
/// once, and only runs cover more than one instruction.
#[test]
fn each_source_instruction_decodes_to_one_uop_outside_lane_runs() {
    use dpvk::core::{specialize, translate, SpecializeOptions};
    use dpvk::vm::{BytecodeProgram, CostInfo, FrameLayout};

    let model = MachineModel::sandybridge_sse();
    let mut configs = vec![SpecializeOptions::baseline()];
    configs.extend([1, 2, 4, 8].map(SpecializeOptions::dynamic));
    configs.extend([2, 4, 8].map(SpecializeOptions::static_tie));
    for w in dpvk::workloads::all_workloads() {
        for kernel in &dpvk::ptx::parse_module(&w.source()).expect("suite source parses").kernels {
            let translated = translate(kernel).expect("suite kernel translates");
            for options in &configs {
                let f =
                    specialize(&translated, options).expect("suite kernel specializes").function;
                let info = CostInfo::analyze(&f, &model);
                let program = BytecodeProgram::decode(&f, &FrameLayout::of(&f), &model, &info);
                let covered: Vec<u64> = program.insts_per_uop().collect();
                let what = format!("{} {options:?}: {:?}", kernel.name, program.stats);
                assert_eq!(covered.iter().sum::<u64>(), program.stats.source_insts, "{what}");
                let multi = covered.iter().filter(|&&c| c > 1).count() as u64;
                assert_eq!(multi, program.stats.fused_runs, "{what}");
            }
        }
    }
}
