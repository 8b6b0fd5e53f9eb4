//! The JIT charges per basic block, the bytecode engine per µop. These
//! tests put the difference where it could show — a fault mid-block, a
//! watchdog limit or a poll landing inside a block, a frame the last
//! warp left dirty — and require the two engines to agree on the error,
//! on every `ExecStats` field, on memory and on resume points. The JIT
//! leg is skipped where `jit_supported()` is false.

use std::time::{Duration, Instant};

use dpvk::ir::{
    BinOp, Block, BlockKind, CmpPred, Function, Inst, STy, Space, Term, Type, VReg, Value,
};
use dpvk::vm::{
    execute_warp_bytecode, jit_compile, jit_supported, BytecodeProgram, CancelToken, CostInfo,
    ExecLimits, ExecStats, FrameLayout, GlobalMem, JitCta, MachineModel, MemAccess, RegFrame,
    ThreadContext, VmError, WarpOutcome,
};

const GLOBAL_BYTES: usize = 256;
const ENGINES: [&str; 2] = ["bytecode", "jit"];

/// Everything one warp call leaves behind that a caller can see.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<WarpOutcome, VmError>,
    stats: ExecStats,
    global: Vec<u8>,
    shared: Vec<u8>,
    resume_points: Vec<i64>,
}

/// Run `f` once on `engine` against fresh memories, with the caller's
/// register frame (so a test can hand over a dirty one).
fn run_on(
    engine: &str,
    f: &Function,
    limits: &ExecLimits,
    cancel: Option<&CancelToken>,
    frame: &mut RegFrame,
) -> Observed {
    let model = MachineModel::sandybridge_sse();
    let info = CostInfo::analyze(f, &model);
    let layout = FrameLayout::of(f);
    let program = BytecodeProgram::decode(f, &layout, &model, &info);

    let global = GlobalMem::new(GLOBAL_BYTES);
    let (mut shared, mut local) = (vec![0u8; 64], vec![0u8; 64]);
    let param = [7u8; 16];
    let mut ctxs: Vec<ThreadContext> = (0..f.warp_size)
        .map(|i| ThreadContext::new([i, 0, 0], [f.warp_size, 1, 1], [0; 3], [1, 1, 1]))
        .collect();
    let mut stats = ExecStats::default();
    let mut mem = MemAccess {
        global: &global,
        shared: &mut shared,
        local: &mut local,
        param: &param,
        cbank: &[],
    };
    let result = match engine {
        "bytecode" => execute_warp_bytecode(
            &program, frame, &mut ctxs, 0, &mut mem, &mut stats, limits, cancel,
        ),
        "jit" => {
            let jit = jit_compile(&program).expect("jit_supported() host compiles the program");
            JitCta::new(mem, limits, cancel).execute_warp(
                Some(&jit),
                &program,
                frame,
                &mut ctxs,
                0,
                &mut stats,
            )
        }
        other => panic!("unknown engine {other}"),
    };
    let mut image = vec![0u8; GLOBAL_BYTES];
    global.copy_out(0, &mut image).unwrap();
    Observed {
        result,
        stats,
        global: image,
        shared,
        resume_points: ctxs.iter().map(|c| c.resume_point).collect(),
    }
}

/// Run `f` on every available engine and require identical observations;
/// returns the common one.
fn agree(what: &str, f: &Function, limits: &ExecLimits, cancel: Option<&CancelToken>) -> Observed {
    let mut seen: Vec<(&str, Observed)> = Vec::new();
    for engine in ENGINES {
        if engine == "jit" && !jit_supported() {
            continue;
        }
        seen.push((engine, run_on(engine, f, limits, cancel, &mut RegFrame::new())));
    }
    for pair in seen.windows(2) {
        assert_eq!(pair[0].1, pair[1].1, "{what}: {} vs {}", pair[0].0, pair[1].0);
    }
    seen.pop().expect("at least the bytecode engine ran").1
}

fn i32t() -> Type {
    Type::scalar(STy::I32)
}

fn store(addr: i64, value: Value) -> Inst {
    Inst::Store { ty: STy::I32, space: Space::Global, addr: Value::ImmI(addr), value }
}

fn add(dst: VReg, a: Value, b: Value) -> Inst {
    Inst::Bin { op: BinOp::Add, ty: i32t(), signed: false, dst, a, b }
}

/// The three ways a µop fails, each through a different JIT path: an
/// out-of-bounds store is a template whose inline bounds check sends it
/// to the helper; a division by zero and a store to a read-only space
/// have no template and fail inside the helper outright.
fn faulting_inst(kind: &str, scratch: VReg) -> Inst {
    match kind {
        "oob_store" => store(1 << 20, Value::ImmI(1)),
        "div_zero" => Inst::Bin {
            op: BinOp::Div,
            ty: i32t(),
            signed: true,
            dst: scratch,
            a: Value::ImmI(9),
            b: Value::ImmI(0),
        },
        "readonly_store" => Inst::Store {
            ty: STy::I32,
            space: Space::Param,
            addr: Value::ImmI(0),
            value: Value::ImmI(1),
        },
        other => panic!("unknown fault {other}"),
    }
}

/// A block of µops that between them move every counter a block header
/// pre-charges — flops, loads, stores, and (through a spill-slot load
/// and store, in a block of any kind) restore and spill traffic — plus
/// one helper-only µop (`min.f32`), with `fault`
/// spliced in at `at`. A clean block precedes it so the stats also hold
/// a retired block's worth of cycles and instructions.
fn faulting_function(fault: &str, at: usize, kind: BlockKind, width: u32) -> Function {
    let mut f = Function::new("fault", width);
    let (x, y, z, s) = (f.new_reg(i32t()), f.new_reg(i32t()), f.new_reg(i32t()), f.new_reg(i32t()));
    let vt = if width == 1 { Type::scalar(STy::F32) } else { Type::vector(STy::F32, width) };
    let (v, t) = (f.new_reg(vt), f.new_reg(vt));

    let mut head = Block::new("head");
    head.insts.push(Inst::Mov { ty: i32t(), dst: x, a: Value::ImmI(3) });
    head.insts.push(store(0, Value::Reg(x)));

    let mut body = vec![
        Inst::Load { ty: STy::I32, space: Space::Global, dst: y, addr: Value::ImmI(0) },
        add(z, Value::Reg(y), Value::Reg(x)),
        Inst::Splat { ty: vt, dst: v, a: Value::ImmF(0.5) },
        Inst::Fma { ty: vt, dst: v, a: Value::Reg(v), b: Value::Reg(v), c: Value::Reg(v) },
        Inst::Bin {
            op: BinOp::Min,
            ty: vt,
            signed: false,
            dst: t,
            a: Value::Reg(v),
            b: Value::Reg(v),
        },
        store(8, Value::Reg(z)),
        Inst::Load { ty: STy::I32, space: Space::Spill, dst: y, addr: Value::ImmI(4) },
        Inst::Store {
            ty: STy::I32,
            space: Space::Spill,
            addr: Value::ImmI(12),
            value: Value::Reg(y),
        },
    ];
    body.insert(at.min(body.len()), faulting_inst(fault, s));
    let mut block = Block::new("faulting");
    block.kind = kind;
    block.insts = body;

    let h = f.add_block(head);
    let b = f.add_block(block);
    f.block_mut(h).term = Term::Br(b);
    f
}

#[test]
fn a_fault_anywhere_in_a_block_leaves_the_interpreters_stats() {
    for fault in ["oob_store", "div_zero", "readonly_store"] {
        for (place, at) in [("first", 0), ("middle", 4), ("last", usize::MAX)] {
            for kind in [BlockKind::Body, BlockKind::EntryHandler, BlockKind::ExitHandler] {
                for width in [1, 4] {
                    let what = format!("{fault} {place} in a {kind:?} block at width {width}");
                    let f = faulting_function(fault, at, kind, width);
                    let seen = agree(&what, &f, &ExecLimits::default(), None);
                    match (fault, &seen.result) {
                        ("oob_store", Err(VmError::OutOfBounds { space: Space::Global, .. }))
                        | ("div_zero", Err(VmError::DivisionByZero))
                        | ("readonly_store", Err(VmError::Unsupported(_))) => {}
                        (_, other) => panic!("{what}: unexpected result {other:?}"),
                    }
                    // The head block retired; the faulting one did not.
                    assert_eq!(seen.stats.instructions, 3, "{what}");
                    // What ran before the fault is counted, what comes
                    // after it is not: a late fault has seen more stores.
                    let stores_before = match place {
                        "first" => 1,
                        "middle" => 1,
                        _ => 3,
                    };
                    let own = u64::from(fault != "div_zero");
                    assert_eq!(seen.stats.stores, stores_before + own, "{what}");
                    // Spill-slot traffic counts as restore and spill in a
                    // block of any kind.
                    let spilled = u64::from(place == "last");
                    assert_eq!(
                        (seen.stats.restore_loads, seen.stats.spill_stores),
                        (spilled, spilled),
                        "{what}"
                    );
                }
            }
        }
    }
}

/// A scatter and a gather over four lanes, one lane's address out of
/// bounds: the decoder fuses each into a run µop, the JIT's template
/// runs the lanes before the bad one natively and hands the rest to the
/// helper, which has to take back exactly the components the block
/// header charged and it now charges itself.
fn faulting_run(scatter: bool, bad_lane: usize, kind: BlockKind) -> Function {
    let mut f = Function::new("run", 4);
    let at = Type::vector(STy::I64, 4);
    let addrs = f.new_reg(at);
    let lanes: Vec<VReg> = (0..4).map(|_| f.new_reg(Type::scalar(STy::I64))).collect();
    let vals: Vec<VReg> = (0..4).map(|_| f.new_reg(i32t())).collect();
    let mut b = Block::new("run");
    b.kind = kind;
    for l in 0..4 {
        let addr = if l == bad_lane { 1 << 20 } else { 16 + 4 * l as i64 };
        let vec = if l == 0 { Value::ImmI(0) } else { Value::Reg(addrs) };
        b.insts.push(Inst::Insert {
            ty: at,
            dst: addrs,
            vec,
            elem: Value::ImmI(addr),
            lane: l as u32,
        });
    }
    let extract =
        |l: usize| Inst::Extract { ty: at, dst: lanes[l], vec: Value::Reg(addrs), lane: l as u32 };
    if scatter {
        b.insts.push(Inst::Mov { ty: i32t(), dst: vals[0], a: Value::ImmI(5) });
        for (l, lane) in lanes.iter().enumerate() {
            b.insts.push(extract(l));
            b.insts.push(Inst::Store {
                ty: STy::I32,
                space: Space::Global,
                addr: Value::Reg(*lane),
                value: Value::Reg(vals[0]),
            });
        }
    } else {
        b.insts.extend((0..4).map(extract));
        for (lane, val) in lanes.iter().zip(&vals) {
            b.insts.push(Inst::Load {
                ty: STy::I32,
                space: Space::Global,
                dst: *val,
                addr: Value::Reg(*lane),
            });
        }
    }
    b.insts.push(store(0, Value::ImmI(1)));
    f.add_block(b);
    f
}

#[test]
fn a_faulting_lane_of_a_run_charges_the_lanes_before_it() {
    for scatter in [true, false] {
        for bad_lane in 0..4 {
            for kind in [BlockKind::Body, BlockKind::EntryHandler, BlockKind::ExitHandler] {
                let what = format!("scatter={scatter} lane {bad_lane} in a {kind:?} block");
                let f = faulting_run(scatter, bad_lane, kind);
                let model = MachineModel::sandybridge_sse();
                let decoded = BytecodeProgram::decode(
                    &f,
                    &FrameLayout::of(&f),
                    &model,
                    &CostInfo::analyze(&f, &model),
                );
                assert!(decoded.stats.fused_runs >= 1, "{what}: {:?}", decoded.stats);
                let seen = agree(&what, &f, &ExecLimits::default(), None);
                assert!(
                    matches!(seen.result, Err(VmError::OutOfBounds { .. })),
                    "{what}: {:?}",
                    seen.result
                );
                // The faulting lane's access is charged, the lanes after
                // it and the block's last store are not.
                let accesses = bad_lane as u64 + 1;
                let (loads, stores) = if scatter { (0, accesses) } else { (accesses, 0) };
                assert_eq!((seen.stats.loads, seen.stats.stores), (loads, stores), "{what}");
            }
        }
    }
}

/// `acc += i; i += 1; global[4] = acc` ten times, then a store — the
/// decoder's compare-branch fusion applies, and a store late in every
/// block makes the instruction a poll or the watchdog stops at visible
/// in `stats.stores` and in memory. 4 + 10·5 + 2 = 56 dynamic
/// instructions, terminators included.
fn loop_function() -> Function {
    let mut f = Function::new("loop", 1);
    let (i, acc) = (f.new_reg(i32t()), f.new_reg(i32t()));
    let p = f.new_reg(Type::scalar(STy::I1));
    let mut entry = Block::new("entry");
    entry.insts.push(Inst::Mov { ty: i32t(), dst: i, a: Value::ImmI(0) });
    entry.insts.push(Inst::Mov { ty: i32t(), dst: acc, a: Value::ImmI(0) });
    entry.insts.push(store(8, Value::ImmI(7)));
    let mut head = Block::new("head");
    head.insts.push(add(acc, Value::Reg(acc), Value::Reg(i)));
    head.insts.push(add(i, Value::Reg(i), Value::ImmI(1)));
    head.insts.push(store(4, Value::Reg(acc)));
    head.insts.push(Inst::Cmp {
        pred: CmpPred::Lt,
        ty: i32t(),
        signed: true,
        dst: p,
        a: Value::Reg(i),
        b: Value::ImmI(10),
    });
    let mut tail = Block::new("tail");
    tail.insts.push(store(0, Value::Reg(acc)));
    let e = f.add_block(entry);
    let h = f.add_block(Block::new("placeholder"));
    let t = f.add_block(tail);
    head.term = Term::CondBr { cond: Value::Reg(p), taken: h, fall: t };
    f.blocks[h.index()] = head;
    f.block_mut(e).term = Term::Br(h);
    f
}

const LOOP_DYNAMIC_LENGTH: u64 = 4 + 10 * 5 + 2;

#[test]
fn every_watchdog_limit_trips_on_the_same_instruction() {
    let f = loop_function();
    let clean = agree("no limit", &f, &ExecLimits::default(), None);
    assert_eq!(clean.stats.instructions, LOOP_DYNAMIC_LENGTH);
    assert_eq!(u32::from_le_bytes(clean.global[..4].try_into().unwrap()), 45);
    for limit in 1..=LOOP_DYNAMIC_LENGTH + 1 {
        let limits = ExecLimits { max_instructions: limit, ..ExecLimits::default() };
        let seen = agree(&format!("max_instructions {limit}"), &f, &limits, None);
        if limit < LOOP_DYNAMIC_LENGTH {
            assert_eq!(seen.result, Err(VmError::Watchdog { limit }), "limit {limit}");
        } else {
            assert_eq!(seen, clean, "limit {limit} is not reached");
        }
    }
}

#[test]
fn polls_fire_on_the_same_instruction_at_every_stride() {
    let f = loop_function();
    let clean = agree("no poll", &f, &ExecLimits::default(), None);
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let live = CancelToken::new();
    for check_interval in [1, 3, 16, 1024] {
        let limits = ExecLimits { check_interval, ..ExecLimits::default() };
        let what = format!("check_interval {check_interval}");

        // A token nobody cancels: polls land inside blocks, find
        // nothing, and the warp finishes with the unpolled stats.
        let seen = agree(&format!("live token, {what}"), &f, &limits, Some(&live));
        assert_eq!(seen, clean, "{what}");

        let seen = agree(&format!("cancelled token, {what}"), &f, &limits, Some(&cancelled));
        let expired =
            ExecLimits { deadline: Some(Instant::now() - Duration::from_secs(1)), ..limits };
        let late = agree(&format!("expired deadline, {what}"), &f, &expired, None);
        if check_interval <= LOOP_DYNAMIC_LENGTH {
            assert_eq!(seen.result, Err(VmError::Cancelled), "{what}");
            assert_eq!(late.result, Err(VmError::Deadline), "{what}");
            assert_eq!(seen.stats, late.stats, "{what}: both stop at the first poll");
        } else {
            assert_eq!(seen, clean, "{what}: the warp retires before the first poll");
            assert_eq!(late, clean, "{what}: the warp retires before the first poll");
        }
    }
}

#[test]
fn a_register_never_written_reads_zero_from_a_dirty_frame() {
    // The reader stores a scalar and a vector lane it never wrote.
    let mut reader = Function::new("reader", 4);
    let filler: Vec<VReg> = (0..5).map(|_| reader.new_reg(i32t())).collect();
    let vt = Type::vector(STy::I32, 4);
    let (unwritten, unwritten_vec) = (reader.new_reg(i32t()), reader.new_reg(vt));
    let lane = reader.new_reg(i32t());
    let mut b = Block::new("entry");
    for (k, r) in filler.iter().enumerate() {
        b.insts.push(Inst::Mov { ty: i32t(), dst: *r, a: Value::ImmI(k as i64 + 1) });
    }
    b.insts.push(store(0, Value::Reg(unwritten)));
    b.insts.push(Inst::Extract { ty: vt, dst: lane, vec: Value::Reg(unwritten_vec), lane: 2 });
    b.insts.push(store(4, Value::Reg(lane)));
    b.insts.push(store(8, Value::Reg(filler[4])));
    reader.add_block(b);

    // The previous warp on this worker: fills a larger frame with ones.
    let mut dirtier = Function::new("dirtier", 4);
    let mut d = Block::new("entry");
    for _ in 0..8 {
        let r = dirtier.new_reg(vt);
        d.insts.push(Inst::Splat { ty: vt, dst: r, a: Value::ImmI(-1) });
    }
    dirtier.add_block(d);

    let limits = ExecLimits::default();
    for engine in ENGINES {
        if engine == "jit" && !jit_supported() {
            continue;
        }
        let mut frame = RegFrame::new();
        let before = run_on(engine, &dirtier, &limits, None, &mut frame);
        assert!(before.result.is_ok(), "{engine}: {:?}", before.result);
        let seen = run_on(engine, &reader, &limits, None, &mut frame);
        assert!(seen.result.is_ok(), "{engine}: {:?}", seen.result);
        let word = |at: usize| u32::from_le_bytes(seen.global[at..at + 4].try_into().unwrap());
        assert_eq!((word(0), word(4), word(8)), (0, 0, 5), "{engine} read a stale slot");
    }
}
