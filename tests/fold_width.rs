//! Constant folding must compute what the VM computes.
//!
//! Integer immediates are raw `i64`s that mean their low `ty` bits;
//! folding on the raw values (as `ir::opt::const_fold` once did) gives a
//! different answer from the machine for anything narrower than 64 bits
//! that wraps, compares across the sign bit or divides a wrapped value.
//! `dpvk-ir` cannot see the VM, so the differential lives here: every
//! foldable integer operation at every width and signedness over the edge
//! values, folded by the optimizer versus executed unfolded.

use dpvk::core::{Device, Engine, ExecConfig, ParamValue};
use dpvk::ir::{
    self, BinOp, Block, CmpPred, Function, Inst, STy, Space, Term, Type, UnOp, VReg, Value,
};
use dpvk::vm::{
    execute_warp_bytecode, BytecodeProgram, CostInfo, ExecLimits, ExecStats, FrameLayout,
    GlobalMem, MachineModel, MemAccess, RegFrame, ThreadContext,
};

const EDGES: [i64; 12] = [
    0,
    1,
    -1,
    i64::MIN,
    i64::MAX,
    0x80,
    0xFFFF,
    0x8000_0000,
    0xFFFF_FFFF,
    1 << 32,
    i32::MIN as i64,
    0x7F,
];

const BIN_OPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::MulHi,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
];

const CMP_PREDS: [CmpPred; 6] =
    [CmpPred::Eq, CmpPred::Ne, CmpPred::Lt, CmpPred::Le, CmpPred::Gt, CmpPred::Ge];

/// One block computing every operation over every pair of edge values at
/// `sty`/`signed`, each result stored to its own 8-byte cell of global
/// memory. Returns the function and the number of cells.
fn every_operation(sty: STy, signed: bool) -> (Function, usize) {
    let ty = Type::scalar(sty);
    let mut f = Function::new(format!("fold_{sty}_{signed}"), 1);
    let mut blk = Block::new("entry");
    let mut cells = 0;
    let mut emit = |f: &mut Function, result: Type, make: &dyn Fn(VReg) -> Inst| {
        let dst = f.new_reg(result);
        blk.insts.push(make(dst));
        blk.insts.push(Inst::Store {
            ty: result.scalar,
            space: Space::Global,
            addr: Value::ImmI(8 * cells as i64),
            value: Value::Reg(dst),
        });
        cells += 1;
    };
    for a in EDGES.map(Value::ImmI) {
        for op in [UnOp::Neg, UnOp::Not, UnOp::Abs] {
            emit(&mut f, ty, &|dst| Inst::Un { op, ty, dst, a });
        }
        for (y, b) in EDGES.iter().map(|&y| (y, Value::ImmI(y))) {
            let zero_at_width = (y as u64) << (64 - sty.bits()) == 0;
            for op in BIN_OPS {
                // The machine faults on these; the folder leaves them.
                if matches!(op, BinOp::Div | BinOp::Rem) && zero_at_width {
                    continue;
                }
                emit(&mut f, ty, &|dst| Inst::Bin { op, ty, signed, dst, a, b });
            }
            for pred in CMP_PREDS {
                emit(&mut f, Type::scalar(STy::I1), &|dst| Inst::Cmp {
                    pred,
                    ty,
                    signed,
                    dst,
                    a,
                    b,
                });
            }
        }
    }
    blk.term = Term::Ret;
    f.add_block(blk);
    (f, cells)
}

/// Run `f` as one width-1 warp on the bytecode engine and return the
/// global memory image.
fn execute(f: &Function, cells: usize) -> Vec<u8> {
    ir::verify(f).unwrap();
    let model = MachineModel::sandybridge_sse();
    let cost = CostInfo::analyze(f, &model);
    let program = BytecodeProgram::decode(f, &FrameLayout::of(f), &model, &cost);
    let global = GlobalMem::new(8 * cells);
    let mut ctxs = vec![ThreadContext::new([0; 3], [1, 1, 1], [0; 3], [1, 1, 1])];
    let (mut shared, mut local) = (Vec::new(), Vec::new());
    let mut mem = MemAccess {
        global: &global,
        shared: &mut shared,
        local: &mut local,
        param: &[],
        cbank: &[],
    };
    execute_warp_bytecode(
        &program,
        &mut RegFrame::new(),
        &mut ctxs,
        0,
        &mut mem,
        &mut ExecStats::default(),
        &ExecLimits::default(),
        None,
    )
    .unwrap();
    (0..cells).flat_map(|c| global.read::<8>(8 * c as u64).unwrap()).collect()
}

#[test]
fn folding_agrees_with_the_machine_at_every_width_and_signedness() {
    for sty in [STy::I8, STy::I16, STy::I32, STy::I64] {
        for signed in [false, true] {
            let (unfolded, cells) = every_operation(sty, signed);
            let mut folded = unfolded.clone();
            ir::opt::standard_pipeline(&mut folded);
            // Everything but `MulHi` (never folded) is gone, so the two
            // images really compare the folder with the machine.
            let survivors = folded.blocks[0]
                .insts
                .iter()
                .filter(|i| !matches!(i, Inst::Store { .. } | Inst::Bin { op: BinOp::MulHi, .. }))
                .count();
            assert_eq!(survivors, 0, "{sty} signed={signed}: something was not folded");

            let (expected, got) = (execute(&unfolded, cells), execute(&folded, cells));
            if let Some(cell) = (0..cells).find(|c| expected[8 * c..][..8] != got[8 * c..][..8]) {
                panic!(
                    "{sty} signed={signed}: {:?} folds to {:?}, the machine computes {:?}",
                    unfolded.blocks[0].insts[2 * cell],
                    &got[8 * cell..][..8],
                    &expected[8 * cell..][..8],
                );
            }
        }
    }
}

/// Four constant expressions that used to fold wrongly: a 32-bit add that
/// wraps to zero, a signed compare of `0xFFFFFFFF` with zero, an unsigned
/// divide of a wrapped `0 - 1`, and a signed max against `0xFFFFFFFF`.
const WRAPS: &str = r#"
.kernel wraps (.param .u64 out) {
  .reg .u32 %r<9>;
  .reg .u64 %rd<2>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, 0xFFFFFFFF;
  add.u32 %r1, %r1, 1;
  setp.eq.u32 %p0, %r1, 0;
  selp.u32 %r2, 1, 2, %p0;
  mov.u32 %r3, 0xFFFFFFFF;
  setp.lt.s32 %p1, %r3, 0;
  selp.u32 %r4, 1, 2, %p1;
  mov.u32 %r5, 0;
  sub.u32 %r5, %r5, 1;
  div.u32 %r6, %r5, 2;
  max.s32 %r7, %r3, 2147483647;
  ld.param.u64 %rd1, [out];
  st.global.u32 [%rd1], %r2;
  st.global.u32 [%rd1+4], %r4;
  st.global.u32 [%rd1+8], %r6;
  st.global.u32 [%rd1+12], %r7;
  ret;
}
"#;

#[test]
fn wrapped_constants_compute_the_same_on_every_engine() {
    for engine in [Engine::Bytecode, Engine::Jit] {
        for config in [ExecConfig::baseline(), ExecConfig::dynamic(4)] {
            let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
            dev.register_source(WRAPS).unwrap();
            let out = dev.malloc(16).unwrap();
            let config = config.with_engine(engine);
            dev.launch("wraps", [1, 1, 1], [1, 1, 1], &[ParamValue::Ptr(out)], &config).unwrap();
            assert_eq!(
                dev.copy_u32_dtoh(out, 4).unwrap(),
                [1, 1, 2147483647, 2147483647],
                "{engine:?}"
            );
        }
    }
}
