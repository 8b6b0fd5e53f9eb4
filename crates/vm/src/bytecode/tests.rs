//! The bytecode engine over hand-built IR, through [`run`]: decode a
//! function and run one warp of it (the decoder's tests use the same
//! helper).

use std::time::Instant;

use dpvk_ir::{
    AtomKind, BinOp, Block, BlockId, BlockKind, Function, Inst, ReduceOp, ResumeStatus, STy, Space,
    Term, Type, UnOp, VReg, Value,
};

use super::{execute_warp_bytecode, BytecodeProgram};
use crate::cancel::CancelToken;
use crate::context::ThreadContext;
use crate::cost::CostInfo;
use crate::error::VmError;
use crate::frame::{FrameLayout, RegFrame};
use crate::machine::MachineModel;
use crate::memory::{GlobalMem, MemAccess};
use crate::semantics::{ExecLimits, WarpOutcome};
use crate::stats::ExecStats;

/// Bytes of global memory every run starts with, zeroed.
const GLOBAL_BYTES: usize = 256;
/// Bytes of shared memory, and of each thread's local memory.
const SPACE_BYTES: usize = 1024;

/// What one warp call leaves behind.
pub(crate) struct Ran {
    pub result: Result<WarpOutcome, VmError>,
    pub stats: ExecStats,
    pub ctxs: Vec<ThreadContext>,
    pub global: Vec<u8>,
}

impl Ran {
    /// The little-endian u32 at byte `at` of global memory.
    pub fn word(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.global[at..at + 4].try_into().expect("four bytes"))
    }

    /// The little-endian u64 at byte `at` of global memory.
    fn dword(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.global[at..at + 8].try_into().expect("eight bytes"))
    }
}

/// Decode `f` and run one warp of it from entry `entry`: thread `i` has
/// `tid.x = i` in a one-CTA grid of `f.warp_size` threads and its local
/// memory at `i * SPACE_BYTES`; global, shared and local memory start
/// zeroed.
pub(crate) fn run_with(
    f: &Function,
    entry: i64,
    param: &[u8],
    limits: &ExecLimits,
    cancel: Option<&CancelToken>,
) -> Ran {
    let model = MachineModel::sandybridge_sse();
    let info = CostInfo::analyze(f, &model);
    let program = BytecodeProgram::decode(f, &FrameLayout::of(f), &model, &info);
    let global = GlobalMem::new(GLOBAL_BYTES);
    let mut ctxs: Vec<ThreadContext> = (0..f.warp_size)
        .map(|i| {
            let mut c = ThreadContext::new([i, 0, 0], [f.warp_size, 1, 1], [0; 3], [1, 1, 1]);
            c.local_base = (i as usize * SPACE_BYTES) as u64;
            c
        })
        .collect();
    let mut shared = vec![0u8; SPACE_BYTES];
    let mut local = vec![0u8; SPACE_BYTES * ctxs.len()];
    let mut mem =
        MemAccess { global: &global, shared: &mut shared, local: &mut local, param, cbank: &[] };
    let mut stats = ExecStats::default();
    let mut frame = RegFrame::new();
    let result = execute_warp_bytecode(
        &program, &mut frame, &mut ctxs, entry, &mut mem, &mut stats, limits, cancel,
    );
    let mut image = vec![0u8; GLOBAL_BYTES];
    global.copy_out(0, &mut image).expect("in bounds");
    Ran { result, stats, ctxs, global: image }
}

/// [`run_with`] from the kernel entry with no parameters or limits.
pub(crate) fn run(f: &Function) -> Ran {
    run_with(f, 0, &[], &ExecLimits::default(), None)
}

/// A width-`w` function of one block: the instructions `body` makes over
/// the registers of `types`, then `Ret`.
fn function(w: u32, types: &[Type], body: impl FnOnce(&[VReg]) -> Vec<Inst>) -> Function {
    let mut f = Function::new("t", w);
    let regs: Vec<VReg> = types.iter().map(|&t| f.new_reg(t)).collect();
    let mut b = Block::new("entry");
    b.insts = body(&regs);
    b.term = Term::Ret;
    f.add_block(b);
    f
}

fn store(ty: STy, addr: i64, value: VReg) -> Inst {
    Inst::Store { ty, space: Space::Global, addr: Value::ImmI(addr), value: Value::Reg(value) }
}

fn bin(op: BinOp, ty: Type, signed: bool, dst: VReg, a: i64, b: i64) -> Inst {
    Inst::Bin { op, ty, signed, dst, a: Value::ImmI(a), b: Value::ImmI(b) }
}

fn scalar(sty: STy) -> Type {
    Type::scalar(sty)
}

fn spin() -> Function {
    let mut f = Function::new("spin", 1);
    let mut b = Block::new("spin");
    b.term = Term::Br(BlockId(0));
    f.add_block(b);
    f
}

#[test]
fn scalar_arith_and_store() {
    // global[0] = 6 * 7 + 4.
    let f = function(1, &[scalar(STy::I32)], |r| {
        let (six, seven, four) = (Value::ImmI(6), Value::ImmI(7), Value::ImmI(4));
        let fma = Inst::Fma { ty: scalar(STy::I32), dst: r[0], a: six, b: seven, c: four };
        vec![fma, store(STy::I32, 0, r[0])]
    });
    let ran = run(&f);
    assert_eq!(ran.result, Ok(WarpOutcome { status: ResumeStatus::Exit }));
    assert_eq!(ran.word(0), 46);
    assert!(ran.stats.cycles_body > 0);
    assert!(ran.ctxs[0].is_terminated());
}

#[test]
fn vector_fma_f32() {
    let vt = Type::vector(STy::F32, 4);
    let f = function(4, &[vt, scalar(STy::F32)], |r| {
        let v = Value::Reg(r[0]);
        vec![
            Inst::Splat { ty: vt, dst: r[0], a: Value::ImmF(2.0) },
            Inst::Fma { ty: vt, dst: r[0], a: v, b: v, c: v },
            Inst::Extract { ty: vt, dst: r[1], vec: v, lane: 3 },
            store(STy::F32, 0, r[1]),
        ]
    });
    let ran = run(&f);
    assert_eq!(f32::from_bits(ran.word(0)), 6.0);
    assert_eq!(ran.stats.flops, 8); // one 4-wide FMA
}

#[test]
fn resume_points_and_status() {
    let mut f = Function::new("t", 2);
    let mut b = Block::new("exit");
    b.kind = BlockKind::ExitHandler;
    b.insts.push(Inst::SetResumePoint { lane: 0, value: Value::ImmI(3) });
    b.insts.push(Inst::SetResumePoint { lane: 1, value: Value::ImmI(7) });
    b.insts.push(Inst::SetResumeStatus { status: ResumeStatus::Branch });
    b.term = Term::Ret;
    f.add_block(b);
    let ran = run(&f);
    assert_eq!(ran.result, Ok(WarpOutcome { status: ResumeStatus::Branch }));
    assert_eq!((ran.ctxs[0].resume_point, ran.ctxs[1].resume_point), (3, 7));
    // Cycles landed in the yield bucket.
    assert!(ran.stats.cycles_yield > 0);
    assert_eq!(ran.stats.cycles_body, 0);
}

#[test]
fn division_by_zero_traps() {
    let f = function(1, &[scalar(STy::I32)], |r| {
        vec![bin(BinOp::Div, scalar(STy::I32), true, r[0], 1, 0)]
    });
    assert_eq!(run(&f).result, Err(VmError::DivisionByZero));
}

#[test]
fn limits_stop_an_infinite_loop() {
    let watchdog = ExecLimits { max_instructions: 1000, ..Default::default() };
    assert_eq!(
        run_with(&spin(), 0, &[], &watchdog, None).result,
        Err(VmError::Watchdog { limit: 1000 })
    );
    let polled = ExecLimits { check_interval: 16, ..Default::default() };
    let token = CancelToken::new();
    token.cancel();
    assert_eq!(run_with(&spin(), 0, &[], &polled, Some(&token)).result, Err(VmError::Cancelled));
    let expired = ExecLimits { deadline: Some(Instant::now()), ..polled };
    assert_eq!(run_with(&spin(), 0, &[], &expired, None).result, Err(VmError::Deadline));
}

#[test]
fn uncancelled_token_and_future_deadline_do_not_interfere() {
    let f = function(1, &[scalar(STy::I32)], |r| {
        vec![
            Inst::Mov { ty: scalar(STy::I32), dst: r[0], a: Value::ImmI(7) },
            store(STy::I32, 0, r[0]),
        ]
    });
    let mut limits = ExecLimits::with_deadline(std::time::Duration::from_secs(60));
    limits.check_interval = 1;
    let ran = run_with(&f, 0, &[], &limits, Some(&CancelToken::new()));
    assert_eq!(ran.result, Ok(WarpOutcome { status: ResumeStatus::Exit }));
    assert_eq!(ran.word(0), 7);
}

#[test]
fn reduce_and_vote() {
    let vt = Type::vector(STy::I1, 4);
    let types = [vt, scalar(STy::I32), scalar(STy::I1), scalar(STy::I1), scalar(STy::I32)];
    let f = function(1, &types, |r| {
        let (v, sum, all, any, out) = (Value::Reg(r[0]), r[1], r[2], r[3], r[4]);
        let widen = |a| Inst::Cvt {
            to: STy::I32,
            from: STy::I1,
            signed: false,
            width: 1,
            dst: out,
            a: Value::Reg(a),
        };
        vec![
            Inst::Splat { ty: vt, dst: r[0], a: Value::ImmI(1) },
            Inst::Insert { ty: vt, dst: r[0], vec: v, elem: Value::ImmI(0), lane: 2 },
            Inst::Reduce { op: ReduceOp::Add, ty: vt, dst: sum, vec: v },
            Inst::Reduce { op: ReduceOp::All, ty: vt, dst: all, vec: v },
            Inst::Reduce { op: ReduceOp::Any, ty: vt, dst: any, vec: v },
            store(STy::I32, 0, sum),
            widen(all),
            store(STy::I32, 4, out),
            widen(any),
            store(STy::I32, 8, out),
        ]
    });
    let ran = run(&f);
    assert_eq!((ran.word(0), ran.word(4), ran.word(8)), (3, 0, 1));
}

#[test]
fn atomics_in_global_and_shared() {
    let f = function(1, &[scalar(STy::I32)], |r| {
        let atom = |space, op, signed, a| Inst::Atom {
            ty: STy::I32,
            space,
            op,
            signed,
            dst: r[0],
            addr: Value::ImmI(0),
            a: Value::ImmI(a),
            b: None,
        };
        vec![
            atom(Space::Global, AtomKind::Add, false, 5),
            atom(Space::Shared, AtomKind::Max, true, 9),
            atom(Space::Shared, AtomKind::Max, true, -3),
            store(STy::I32, 4, r[0]),
        ]
    });
    let ran = run(&f);
    // The second shared max returns the first one's result.
    assert_eq!((ran.word(0), ran.word(4)), (5, 9));
}

#[test]
fn param_loads() {
    let f = function(1, &[scalar(STy::I32)], |r| {
        let addr = Value::ImmI(4);
        vec![
            Inst::Load { ty: STy::I32, space: Space::Param, dst: r[0], addr },
            store(STy::I32, 0, r[0]),
        ]
    });
    let param = [0, 0, 0, 0, 99, 0, 0, 0];
    assert_eq!(run_with(&f, 0, &param, &ExecLimits::default(), None).word(0), 99);
}

#[test]
fn wide_and_high_half_arithmetic() {
    let (i32t, i64t, f64t) = (scalar(STy::I32), scalar(STy::I64), scalar(STy::F64));
    let f = function(1, &[i32t, i32t, i64t, f64t], |r| {
        let (one, three) = (Value::ImmF(1.0), Value::ImmF(3.0));
        vec![
            // unsigned: 0xFFFFFFFF * 2 = 0x1_FFFF_FFFE -> hi = 1
            bin(BinOp::MulHi, i32t, false, r[0], 0xFFFF_FFFF, 2),
            // signed: -1 * 2 = -2 -> hi = -1 (0xFFFFFFFF)
            bin(BinOp::MulHi, i32t, true, r[1], -1, 2),
            bin(BinOp::Mul, i64t, false, r[2], 0x1_0000_0001, 0x10),
            Inst::Bin { op: BinOp::Div, ty: f64t, signed: false, dst: r[3], a: one, b: three },
            store(STy::I32, 0, r[0]),
            store(STy::I32, 4, r[1]),
            store(STy::I64, 8, r[2]),
            store(STy::F64, 16, r[3]),
        ]
    });
    let ran = run(&f);
    assert_eq!((ran.word(0), ran.word(4), ran.dword(8)), (1, 0xFFFF_FFFF, 0x10_0000_0010));
    assert_eq!(f64::from_bits(ran.dword(16)), 1.0 / 3.0);
}

#[test]
fn vector_cvt_round_trips_lanes() {
    let (iv, fv) = (Type::vector(STy::I32, 4), Type::vector(STy::F32, 4));
    let f = function(4, &[iv, fv, scalar(STy::F32)], |r| {
        let (src, dst) = (Value::Reg(r[0]), r[1]);
        vec![
            Inst::Splat { ty: iv, dst: r[0], a: Value::ImmI(3) },
            Inst::Insert { ty: iv, dst: r[0], vec: src, elem: Value::ImmI(-7), lane: 2 },
            Inst::Cvt { to: STy::F32, from: STy::I32, signed: true, width: 4, dst, a: src },
            Inst::Extract { ty: fv, dst: r[2], vec: Value::Reg(dst), lane: 2 },
            store(STy::F32, 0, r[2]),
        ]
    });
    assert_eq!(f32::from_bits(run(&f).word(0)), -7.0);
}

#[test]
fn narrow_memory_ops_mask_correctly() {
    let f = function(1, &[scalar(STy::I32)], |r| {
        vec![
            Inst::Mov { ty: scalar(STy::I32), dst: r[0], a: Value::ImmI(0x1234_5678) },
            store(STy::I8, 0, r[0]),
            store(STy::I16, 2, r[0]),
        ]
    });
    // The byte store touched one byte, the half-word store two.
    assert_eq!(run(&f).global[..4], [0x78, 0, 0x78, 0x56]);
}

#[test]
fn out_of_bounds_shared_access_reports_space() {
    let f = function(1, &[scalar(STy::I32)], |r| {
        let addr = Value::ImmI(10_000);
        vec![Inst::Load { ty: STy::I32, space: Space::Shared, dst: r[0], addr }]
    });
    match run(&f).result {
        Err(VmError::OutOfBounds { space, space_size, .. }) => {
            assert_eq!((space, space_size), (Space::Shared, SPACE_BYTES));
        }
        other => panic!("expected OOB, got {other:?}"),
    }
}

/// Every lane of a `w`-wide `make(srcs)` whose sources hold `bits` in
/// each lane: what the scalar path computes at `w == 1` every chunk
/// kernel must compute at `w > 1`.
fn lanes(w: u32, sty: STy, bits: &[u64], make: impl Fn(Type, VReg, &[Value]) -> Inst) -> Vec<u64> {
    let ty = if w == 1 { scalar(sty) } else { Type::vector(sty, w) };
    let mut types = vec![ty; bits.len() + 1];
    types.push(scalar(sty));
    let f = function(w, &types, |r| {
        let srcs: Vec<Value> = r[..bits.len()].iter().map(|&v| Value::Reg(v)).collect();
        let (dst, lane) = (r[bits.len()], r[bits.len() + 1]);
        let mut insts: Vec<Inst> = (0..bits.len())
            .map(|k| Inst::Mov { ty, dst: r[k], a: Value::ImmI(bits[k] as i64) })
            .collect();
        insts.push(make(ty, dst, &srcs));
        for k in 0..w {
            insts.push(match w {
                1 => Inst::Mov { ty, dst: lane, a: Value::Reg(dst) },
                _ => Inst::Extract { ty, dst: lane, vec: Value::Reg(dst), lane: k },
            });
            insts.push(store(STy::I64, 8 * k as i64, lane));
        }
        insts
    });
    let ran = run(&f);
    assert!(ran.result.is_ok(), "{:?}", ran.result);
    (0..w as usize).map(|k| ran.dword(8 * k)).collect()
}

#[test]
fn f32_negate_and_abs_quiet_an_snan_at_every_width() {
    for (op, bits, want) in
        [(UnOp::Neg, 0x7F81_2345, 0xFFC1_2345), (UnOp::Abs, 0xFFA0_0001, 0x7FE0_0001)]
    {
        for w in [1, 2, 4, 8] {
            let got = lanes(w, STy::F32, &[bits], |ty, dst, s| Inst::Un { op, ty, dst, a: s[0] });
            assert!(got.iter().all(|&g| g == want), "{op:?} {bits:#x} at w{w}: {got:x?}");
        }
    }
}

#[test]
fn fma_propagates_the_first_nan_operand_quieted() {
    let (a, b, c) = (0x7FF0_0000_0000_0001, 0xFFF8_0000_0000_0002, 0x7FF8_0000_0000_0003);
    let one = 1.0f64.to_bits();
    for (ops, want) in [([a, b, c], a | 1 << 51), ([b, a, c], b), ([one, one, c], c)] {
        for w in [1, 2, 4, 8] {
            let got = lanes(w, STy::F64, &ops, |ty, dst, s| Inst::Fma {
                ty,
                dst,
                a: s[0],
                b: s[1],
                c: s[2],
            });
            assert!(got.iter().all(|&g| g == want), "fma {ops:x?} at w{w}: {got:x?}");
        }
    }
}
