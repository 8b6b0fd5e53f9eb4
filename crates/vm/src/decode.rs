//! The bytecode decoder: lowers a [`Function`] into a [`BytecodeProgram`].
//!
//! Decoding runs once per compiled specialization, right after the
//! [`FrameLayout`] is computed, and moves every cost that would otherwise
//! recur per dynamic instruction to compile time:
//!
//! * operands resolve through the layout to [`BSrc`] slot offsets
//!   (`Slot` for width-1 registers, which broadcast; `Lanes` for vector
//!   bases) and immediates pre-encode to their masked bit patterns;
//! * modeled cycles ([`inst_cost`]), flops ([`inst_flops`]) and
//!   stat-attribution flags (load/store, spill/restore by memory space)
//!   bake into each µop's [`OpMeta`], so the engine charges a constant
//!   instead of re-walking the cost model;
//! * blocks concatenate into one linear stream with branch and switch
//!   targets patched to µop indices, so block dispatch is a `pc` move;
//! * every source instruction and terminator lowers to one µop, except
//!   that per-lane glue runs collapse into run superinstructions
//!   ([`Decoder::fuse_runs`]): the specializer lowers vector memory
//!   access and lane packing to long runs of width-1 `Extract`/`Load`/
//!   `Insert`/`Store`/`Mov`/`CtxRead` µops whose operands advance by a
//!   fixed stride. One run µop replays the whole sequence — same charge
//!   and poll per original component, same write order — from a single
//!   dispatch.
//!
//! [`inst_cost`]: crate::cost::inst_cost
//! [`inst_flops`]: crate::cost::inst_flops

use dpvk_ir::{BlockId, BlockKind, Function, Inst, Liveness, STy, Space, Term, Type, VReg, Value};

use crate::bytecode::{
    BDst, BSrc, BytecodeProgram, DecodeStats, Op, OpKind, OpMeta, SwitchVal, TermInfo, F_LOAD,
    F_RESTORE, F_SPILL, F_STORE,
};
use crate::cost::{inst_cost, inst_flops, term_cost, CostInfo};
use crate::frame::FrameLayout;
use crate::machine::MachineModel;
use crate::semantics::encode_imm;

impl BytecodeProgram {
    /// Lower `f` to linear bytecode.
    ///
    /// `layout` must be the [`FrameLayout`] of `f` and `info` its
    /// [`CostInfo`] under `model`: the pre-baked charges are
    /// [`inst_cost`]/[`inst_flops`] under exactly that pair.
    pub fn decode(
        f: &Function,
        layout: &FrameLayout,
        model: &MachineModel,
        info: &CostInfo,
    ) -> BytecodeProgram {
        Self::decode_with(f, layout, model, info, &Liveness::compute(f))
    }

    /// [`Self::decode`] with the liveness of `f` already computed — the
    /// one [`CostInfo::analyze_with`] read.
    pub fn decode_with(
        f: &Function,
        layout: &FrameLayout,
        model: &MachineModel,
        info: &CostInfo,
        lv: &Liveness,
    ) -> BytecodeProgram {
        let mut d = Decoder {
            f,
            layout,
            model,
            info,
            code: Vec::new(),
            cases: Vec::new(),
            stats: DecodeStats::default(),
        };
        let mut block_start = Vec::with_capacity(f.blocks.len());
        for block in &f.blocks {
            let start = d.code.len();
            block_start.push(start as u32);
            d.lower_block(block);
            d.fuse_runs(start);
        }
        d.patch_targets(&block_start);
        d.stats.ops = d.code.len() as u64;
        d.stats.vector_ops = crate::bytecode::count_vector_ops(&d.code);
        let prog = BytecodeProgram {
            code: d.code,
            cases: d.cases,
            slots: layout.slots(),
            warp_size: f.warp_size,
            entry_live: entry_live_slots(lv, layout),
            stats: d.stats,
            profile: None,
        };
        // Every slot index and branch target is checked once here; the
        // execution loop relies on this to elide per-access bounds
        // checks in its register-file accessors.
        prog.validate();
        prog
    }
}

/// Slot ranges of the registers live into block 0, adjacent ranges
/// merged: what a warp entry may read before writing it. The
/// specializer's scheduler block restores everything a resumed thread
/// needs from its spill slots, so this is empty unless the source
/// itself reads a register it never wrote.
fn entry_live_slots(lv: &Liveness, layout: &FrameLayout) -> Vec<(u32, u32)> {
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    for r in Liveness::regs_of(lv.live_in(BlockId(0))) {
        let (first, len) = (layout.offset(r) as u32, layout.width(r) as u32);
        match ranges.last_mut() {
            Some((f0, l0)) if *f0 + *l0 == first => *l0 += len,
            _ => ranges.push((first, len)),
        }
    }
    ranges
}

struct Decoder<'a> {
    f: &'a Function,
    layout: &'a FrameLayout,
    model: &'a MachineModel,
    info: &'a CostInfo,
    code: Vec<Op>,
    cases: Vec<(i64, u32)>,
    stats: DecodeStats,
}

impl<'a> Decoder<'a> {
    /// Operand in a lane-indexed position: width-1 registers broadcast
    /// via `Slot`, vectors read per lane.
    fn bsrc(&self, v: Value, sty: STy) -> BSrc {
        match v {
            Value::Reg(r) => {
                let off = self.layout.offset(r) as u32;
                if self.layout.width(r) == 1 {
                    BSrc::Slot(off)
                } else {
                    BSrc::Lanes(off)
                }
            }
            imm => BSrc::Imm(encode_imm(imm, sty)),
        }
    }

    /// Operand in a scalar position: registers always read their first
    /// slot.
    fn bsrc_scalar(&self, v: Value, sty: STy) -> BSrc {
        match v {
            Value::Reg(r) => BSrc::Slot(self.layout.offset(r) as u32),
            imm => BSrc::Imm(encode_imm(imm, sty)),
        }
    }

    fn bdst(&self, r: VReg) -> BDst {
        BDst { off: self.layout.offset(r) as u32, w: self.layout.width(r) as u32 }
    }

    /// Pre-baked charges for one source instruction. Spill and restore
    /// traffic is what touches [`Space::Spill`], in whatever block it
    /// sits: a store right after a definition is a spill too.
    fn meta_of(&self, inst: &Inst) -> OpMeta {
        let cost = inst_cost(inst, self.model, self.info);
        debug_assert!(cost <= u32::MAX as u64, "instruction cost overflows the µop encoding");
        let (mut flags, mut bytes) = (0u8, 0u8);
        match inst {
            Inst::Load { ty, space, .. } => {
                flags |= F_LOAD;
                if *space == Space::Spill {
                    flags |= F_RESTORE;
                    bytes = ty.size_bytes() as u8;
                }
            }
            Inst::Store { ty, space, .. } => {
                flags |= F_STORE;
                if *space == Space::Spill {
                    flags |= F_SPILL;
                    bytes = ty.size_bytes() as u8;
                }
            }
            _ => {}
        }
        OpMeta { cost: cost as u32, flops: inst_flops(inst) as u32, flags, bytes }
    }

    fn lower_block(&mut self, block: &dpvk_ir::Block) {
        let bk = block.kind;
        let term = TermInfo {
            cost: term_cost(&block.term) as u32,
            insts: block.insts.len() as u32 + 1,
            overhead: bk != BlockKind::Body,
        };
        self.stats.source_insts += block.insts.len() as u64 + 1;

        for inst in &block.insts {
            let meta = self.meta_of(inst);
            let kind = self.lower_inst(inst);
            self.code.push(Op { meta, kind });
        }
        let kind = self.lower_term(&block.term, term);
        self.code.push(Op { meta: OpMeta::default(), kind });
    }

    /// Collapse per-lane glue runs in the block lowered at
    /// `code[start..]` into run superinstructions.
    ///
    /// The specializer scalarizes vector memory access and lane shuffles
    /// into per-lane µop sequences — `Extract` spreads, `Insert` packs,
    /// `Load`/`Store` fan-outs, `Mov` copies and `CtxRead` reads — whose
    /// slots and lane indices advance by a fixed stride. Each matched run
    /// becomes one µop that replays the components in original order
    /// (one charge/tick/poll per component, identical writes), so a
    /// width-4 gather costs one dispatch instead of eight.
    ///
    /// Runs never span blocks and a block's first µop can only *start* a
    /// run, so block-start indices recorded before this pass stay valid.
    fn fuse_runs(&mut self, start: usize) {
        if self.code.len() - start < 2 {
            return;
        }
        let mut out: Vec<Op> = Vec::with_capacity(self.code.len() - start);
        let mut i = start;
        while i < self.code.len() {
            if let Some((op, consumed)) = try_run(&self.code[i..]) {
                self.stats.fused_runs += 1;
                out.push(op);
                i += consumed;
            } else {
                out.push(self.code[i]);
                i += 1;
            }
        }
        self.code.truncate(start);
        self.code.append(&mut out);
    }

    fn lower_inst(&self, inst: &Inst) -> OpKind {
        let wid = |ty: &Type| if ty.is_vector() { ty.width } else { 1 };
        match inst {
            Inst::Bin { op, ty, signed, dst, a, b } => OpKind::Bin {
                op: *op,
                sty: ty.scalar,
                signed: *signed,
                w: wid(ty),
                dst: self.bdst(*dst),
                a: self.bsrc(*a, ty.scalar),
                b: self.bsrc(*b, ty.scalar),
            },
            Inst::Un { op, ty, dst, a } => OpKind::Un {
                op: *op,
                sty: ty.scalar,
                w: wid(ty),
                dst: self.bdst(*dst),
                a: self.bsrc(*a, ty.scalar),
            },
            Inst::Fma { ty, dst, a, b, c } => OpKind::Fma {
                sty: ty.scalar,
                w: wid(ty),
                dst: self.bdst(*dst),
                a: self.bsrc(*a, ty.scalar),
                b: self.bsrc(*b, ty.scalar),
                c: self.bsrc(*c, ty.scalar),
            },
            Inst::Cmp { pred, ty, signed, dst, a, b } => OpKind::Cmp {
                pred: *pred,
                sty: ty.scalar,
                signed: *signed,
                w: wid(ty),
                dst: self.bdst(*dst),
                a: self.bsrc(*a, ty.scalar),
                b: self.bsrc(*b, ty.scalar),
            },
            Inst::Select { ty, dst, cond, a, b } => OpKind::Select {
                w: wid(ty),
                dst: self.bdst(*dst),
                cond: self.bsrc(*cond, STy::I1),
                a: self.bsrc(*a, ty.scalar),
                b: self.bsrc(*b, ty.scalar),
            },
            Inst::Cvt { to, from, signed, width, dst, a } => OpKind::Cvt {
                to: *to,
                from: *from,
                signed: *signed,
                w: *width,
                dst: self.bdst(*dst),
                a: self.bsrc(*a, *from),
            },
            Inst::Load { ty, space, dst, addr } => OpKind::Load {
                sty: *ty,
                space: *space,
                dst: self.bdst(*dst),
                addr: self.bsrc_scalar(*addr, STy::I64),
            },
            Inst::Store { ty, space, addr, value } => OpKind::Store {
                sty: *ty,
                space: *space,
                addr: self.bsrc_scalar(*addr, STy::I64),
                value: self.bsrc_scalar(*value, *ty),
            },
            Inst::Atom { ty, space, op, signed, dst, addr, a, b } => OpKind::Atom {
                sty: *ty,
                space: *space,
                op: *op,
                signed: *signed,
                dst: self.bdst(*dst),
                addr: self.bsrc_scalar(*addr, STy::I64),
                a: self.bsrc_scalar(*a, *ty),
                b: b.map(|v| self.bsrc_scalar(v, *ty)),
            },
            Inst::Insert { ty, dst, vec, elem, lane } => OpKind::Insert {
                w: ty.width,
                dst: self.bdst(*dst),
                vec: match vec {
                    // In-place insert: the other lanes are already there.
                    Value::Reg(r) if r.index() == dst.index() => None,
                    v => Some(self.bsrc(*v, ty.scalar)),
                },
                elem: self.bsrc_scalar(*elem, ty.scalar),
                lane: *lane,
            },
            Inst::Extract { ty, dst, vec, lane } => OpKind::Extract {
                dst: self.bdst(*dst),
                vec: self.bsrc(*vec, ty.scalar),
                lane: *lane,
            },
            Inst::Splat { ty, dst, a } => {
                OpKind::Splat { dst: self.bdst(*dst), a: self.bsrc_scalar(*a, ty.scalar) }
            }
            Inst::Reduce { op, ty, dst, vec } => OpKind::Reduce {
                op: *op,
                sty: ty.scalar,
                w: ty.width,
                dst: self.bdst(*dst),
                vec: self.bsrc(*vec, ty.scalar),
            },
            Inst::CtxRead { field, lane, dst } => {
                OpKind::CtxRead { field: *field, lane: *lane, dst: self.bdst(*dst) }
            }
            Inst::SetResumePoint { lane, value } => match value {
                Value::Reg(r) => OpKind::SetRpReg {
                    lane: *lane,
                    slot: self.layout.offset(*r) as u32,
                    sty: self.f.reg_type(*r).scalar,
                },
                Value::ImmI(i) => OpKind::SetRpImm { lane: *lane, id: *i },
                Value::ImmF(_) => OpKind::Unsupported { what: "float resume point" },
            },
            Inst::SetResumeStatus { status } => OpKind::SetStatus { status: *status },
            Inst::Vote { dst, a, .. } => {
                OpKind::Vote { dst: self.bdst(*dst), a: self.bsrc_scalar(*a, STy::I1) }
            }
            Inst::Mov { ty, dst, a } => {
                if ty.is_vector() {
                    OpKind::MovVec {
                        w: ty.width,
                        off: self.layout.offset(*dst) as u32,
                        a: self.bsrc(*a, ty.scalar),
                    }
                } else {
                    OpKind::MovScalar { dst: self.bdst(*dst), a: self.bsrc_scalar(*a, ty.scalar) }
                }
            }
        }
    }

    /// Lower a terminator; branch targets hold *block ids* until
    /// [`Decoder::patch_targets`] rewrites them to µop indices.
    fn lower_term(&mut self, t: &Term, term: TermInfo) -> OpKind {
        match t {
            Term::Br(b) => OpKind::Br { target: b.0, term },
            Term::CondBr { cond, taken, fall } => OpKind::CondBr {
                cond: self.bsrc_scalar(*cond, STy::I1),
                taken: taken.0,
                fall: fall.0,
                term,
            },
            Term::Switch { value, cases, default } => {
                let start = self.cases.len() as u32;
                self.cases.extend(cases.iter().map(|(case, b)| (*case, b.0)));
                let val = match value {
                    Value::Reg(r) => SwitchVal::Reg {
                        slot: self.layout.offset(*r) as u32,
                        sty: self.f.reg_type(*r).scalar,
                    },
                    Value::ImmI(i) => SwitchVal::Imm(*i),
                    Value::ImmF(_) => SwitchVal::BadFloat,
                };
                OpKind::Switch { val, cases: (start, cases.len() as u32), default: default.0, term }
            }
            Term::Ret => OpKind::Ret { term },
        }
    }

    /// Rewrite every branch/switch target from a block id to the µop
    /// index where that block starts.
    fn patch_targets(&mut self, block_start: &[u32]) {
        let at = |b: &mut u32| *b = block_start[*b as usize];
        for op in &mut self.code {
            match &mut op.kind {
                OpKind::Br { target, .. } => at(target),
                OpKind::CondBr { taken, fall, .. } => {
                    at(taken);
                    at(fall);
                }
                OpKind::Switch { default, .. } => at(default),
                _ => {}
            }
        }
        for (_, target) in &mut self.cases {
            at(target);
        }
    }
}

/// Match one glue run starting at `ops[0]`; returns the fused run µop
/// and how many source µops it covers, or `None`. All components of a
/// run must carry identical [`OpMeta`] charges so the run can replay one
/// shared meta per component.
fn try_run(ops: &[Op]) -> Option<(Op, usize)> {
    match ops[0].kind {
        // An address-lane `Extract` may open either a store fan-out
        // (interleaved with `Store`) or a plain lane spread.
        OpKind::Extract { .. } => try_store_run(ops).or_else(|| try_extract_run(ops)),
        OpKind::Insert { .. } => try_insert_run(ops),
        OpKind::MovScalar { .. } => try_mov_run(ops),
        OpKind::Load { .. } => try_load_run(ops),
        OpKind::CtxRead { .. } => try_ctx_run(ops),
        _ => None,
    }
}

/// `Extract` spread: lanes `l0..l0+n` of one vector into consecutive
/// width-1 slots.
fn try_extract_run(ops: &[Op]) -> Option<(Op, usize)> {
    let OpKind::Extract { dst: BDst { off: d0, w: 1 }, vec: BSrc::Lanes(v), lane: l0 } =
        ops[0].kind
    else {
        return None;
    };
    let meta = ops[0].meta;
    let mut n = 1;
    while n < ops.len() {
        match ops[n].kind {
            OpKind::Extract { dst: BDst { off, w: 1 }, vec: BSrc::Lanes(v2), lane }
                if v2 == v
                    && off == d0 + n as u32
                    && lane == l0 + n as u32
                    && ops[n].meta == meta =>
            {
                n += 1;
            }
            _ => break,
        }
    }
    (n >= 2).then(|| {
        let kind = OpKind::CopyRun { n: n as u32, src: v + l0, sstride: 1, dst: d0, prefill: None };
        (Op { meta, kind }, n)
    })
}

/// `Insert` pack: lanes `0..n` of one vector register filled from slots
/// advancing by stride 0 (a broadcast) or 1 (a gather of temporaries).
fn try_insert_run(ops: &[Op]) -> Option<(Op, usize)> {
    let OpKind::Insert { w, dst, vec, elem: BSrc::Slot(e0), lane: 0 } = ops[0].kind else {
        return None;
    };
    let meta = ops[0].meta;
    let follows = |op: &Op, i: u32, e: u32| {
        matches!(op.kind,
            OpKind::Insert { w: w2, dst: d2, vec: None, elem: BSrc::Slot(e2), lane }
                if w2 == w && d2.off == dst.off && d2.w == dst.w && lane == i && e2 == e)
            && op.meta == meta
    };
    let second = ops.get(1)?;
    let sstride = if follows(second, 1, e0) {
        0
    } else if follows(second, 1, e0 + 1) {
        1
    } else {
        return None;
    };
    let mut n = 2;
    while n < ops.len() && follows(&ops[n], n as u32, e0 + n as u32 * sstride) {
        n += 1;
    }
    let prefill = vec.map(|v| (v, w));
    let kind = OpKind::CopyRun { n: n as u32, src: e0, sstride, dst: dst.off, prefill };
    Some((Op { meta, kind }, n))
}

/// Scalar `Mov` fan-out: consecutive width-1 destinations from one
/// source slot (stride 0) or a consecutive slot range (stride 1).
fn try_mov_run(ops: &[Op]) -> Option<(Op, usize)> {
    let OpKind::MovScalar { dst: BDst { off: d0, w: 1 }, a: BSrc::Slot(s0) } = ops[0].kind else {
        return None;
    };
    let meta = ops[0].meta;
    let follows = |op: &Op, i: u32, s: u32| {
        matches!(op.kind,
            OpKind::MovScalar { dst: BDst { off, w: 1 }, a: BSrc::Slot(s2) }
                if off == d0 + i && s2 == s)
            && op.meta == meta
    };
    let second = ops.get(1)?;
    let sstride = if follows(second, 1, s0) {
        0
    } else if follows(second, 1, s0 + 1) {
        1
    } else {
        return None;
    };
    let mut n = 2;
    while n < ops.len() && follows(&ops[n], n as u32, s0 + n as u32 * sstride) {
        n += 1;
    }
    let kind = OpKind::CopyRun { n: n as u32, src: s0, sstride, dst: d0, prefill: None };
    Some((Op { meta, kind }, n))
}

/// Scalar `Load` fan-out: consecutive address slots into consecutive
/// width-1 destinations, one memory space and type.
fn try_load_run(ops: &[Op]) -> Option<(Op, usize)> {
    let OpKind::Load { sty, space, dst: BDst { off: d0, w: 1 }, addr: BSrc::Slot(a0) } =
        ops[0].kind
    else {
        return None;
    };
    let meta = ops[0].meta;
    let mut n = 1;
    while n < ops.len() {
        match ops[n].kind {
            OpKind::Load {
                sty: sty2,
                space: sp2,
                dst: BDst { off, w: 1 },
                addr: BSrc::Slot(a),
            } if sty2 == sty
                && sp2 == space
                && off == d0 + n as u32
                && a == a0 + n as u32
                && ops[n].meta == meta =>
            {
                n += 1;
            }
            _ => break,
        }
    }
    (n >= 2).then_some((
        Op { meta, kind: OpKind::LoadRun { n: n as u32, sty, space, addr: a0, dst: d0 } },
        n,
    ))
}

/// Store fan-out: interleaved `(Extract addr-lane, Store)` pairs over
/// the lanes of one address vector, values advancing by stride 0 or 1.
fn try_store_run(ops: &[Op]) -> Option<(Op, usize)> {
    type Pair = (u32, u32, STy, dpvk_ir::Space, u32, OpMeta, OpMeta);
    let pair = |i: usize| -> Option<Pair> {
        let x = ops.get(2 * i)?;
        let s = ops.get(2 * i + 1)?;
        let OpKind::Extract { dst: BDst { off: t, w: 1 }, vec: BSrc::Lanes(v), lane } = x.kind
        else {
            return None;
        };
        let OpKind::Store { sty, space, addr: BSrc::Slot(a), value: BSrc::Slot(val) } = s.kind
        else {
            return None;
        };
        (lane == i as u32 && a == t).then_some((t, v, sty, space, val, x.meta, s.meta))
    };
    let (t0, v, sty, space, v0, xmeta, smeta) = pair(0)?;
    let matches_at = |p: &Pair, i: u32, vstride: u32| {
        let &(t, v2, sty2, space2, val, xm, sm) = p;
        v2 == v
            && t == t0 + i
            && sty2 == sty
            && space2 == space
            && val == v0 + i * vstride
            && xm == xmeta
            && sm == smeta
    };
    let second = pair(1)?;
    let vstride = if matches_at(&second, 1, 0) {
        0
    } else if matches_at(&second, 1, 1) {
        1
    } else {
        return None;
    };
    let mut n = 2;
    while let Some(p) = pair(n) {
        if !matches_at(&p, n as u32, vstride) {
            break;
        }
        n += 1;
    }
    let kind =
        OpKind::StoreRun { n: n as u32, sty, space, avec: v, atmp: t0, val: v0, vstride, smeta };
    Some((Op { meta: xmeta, kind }, 2 * n))
}

/// Per-lane `CtxRead` fan-out: one field over lanes `0..n` into
/// consecutive width-1 slots.
fn try_ctx_run(ops: &[Op]) -> Option<(Op, usize)> {
    let OpKind::CtxRead { field, lane: 0, dst: BDst { off: d0, w: 1 } } = ops[0].kind else {
        return None;
    };
    let meta = ops[0].meta;
    let mut n = 1;
    while n < ops.len() {
        match ops[n].kind {
            OpKind::CtxRead { field: f2, lane, dst: BDst { off, w: 1 } }
                if f2 == field
                    && lane == n as u32
                    && off == d0 + n as u32
                    && ops[n].meta == meta =>
            {
                n += 1;
            }
            _ => break,
        }
    }
    (n >= 2).then_some((Op { meta, kind: OpKind::CtxReadRun { field, n: n as u32, dst: d0 } }, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::tests::{run, run_with, Ran};
    use crate::semantics::{ExecLimits, WarpOutcome};
    use crate::stats::ExecStats;
    use dpvk_ir::{BinOp, Block, BlockId, CmpPred, ResumeStatus, Space};

    /// `ran` exited cleanly with `stats`, and global memory starts with
    /// `words` (little-endian u32s).
    fn assert_ran(ran: &Ran, words: &[u32], stats: ExecStats) {
        assert_eq!(ran.result, Ok(WarpOutcome { status: ResumeStatus::Exit }));
        let got: Vec<u32> = (0..words.len()).map(|k| ran.word(4 * k)).collect();
        assert_eq!(got, words, "memory image");
        assert_eq!(ran.stats, stats);
    }

    /// Sum 0..10 into global[0]: a block-final `Cmp` feeding the
    /// `CondBr` of the loop back-edge.
    fn sum_loop() -> Function {
        let mut f = Function::new("t", 1);
        let t = Type::scalar(STy::I32);
        let i = f.new_reg(t);
        let acc = f.new_reg(t);
        let p = f.new_reg(Type::scalar(STy::I1));
        let mut entry = Block::new("entry");
        entry.insts.push(Inst::Mov { ty: t, dst: i, a: Value::ImmI(0) });
        entry.insts.push(Inst::Mov { ty: t, dst: acc, a: Value::ImmI(0) });
        let mut head = Block::new("head");
        head.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: t,
            signed: false,
            dst: acc,
            a: Value::Reg(acc),
            b: Value::Reg(i),
        });
        head.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: t,
            signed: false,
            dst: i,
            a: Value::Reg(i),
            b: Value::ImmI(1),
        });
        head.insts.push(Inst::Cmp {
            pred: CmpPred::Lt,
            ty: t,
            signed: true,
            dst: p,
            a: Value::Reg(i),
            b: Value::ImmI(10),
        });
        let mut tail = Block::new("tail");
        tail.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(0),
            value: Value::Reg(acc),
        });
        tail.term = Term::Ret;
        let e = f.add_block(entry);
        let h = f.add_block(Block::new("p"));
        let tl = f.add_block(tail);
        head.term = Term::CondBr { cond: Value::Reg(p), taken: h, fall: tl };
        f.blocks[h.index()] = head;
        f.block_mut(e).term = Term::Br(h);
        f
    }

    #[test]
    fn loop_kernel_runs_to_its_pinned_image_and_stats() {
        let stats = ExecStats {
            cycles_body: 56,
            instructions: 45,
            stores: 1,
            warp_entries: 1,
            thread_entries: 1,
            ..ExecStats::default()
        };
        assert_ran(&run(&sum_loop()), &[45], stats);
    }

    #[test]
    fn chained_arithmetic_keeps_its_pinned_image_and_stats() {
        // global[4] = (global[0] + 5) * 3 + 7, all through single-use
        // temporaries.
        let mut f = Function::new("t", 1);
        let t = Type::scalar(STy::I32);
        let x = f.new_reg(t);
        let y = f.new_reg(t);
        let a = f.new_reg(t);
        let out = f.new_reg(t);
        let mut b = Block::new("entry");
        b.insts.push(Inst::Load {
            ty: STy::I32,
            space: Space::Global,
            dst: x,
            addr: Value::ImmI(0),
        });
        b.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: t,
            signed: false,
            dst: y,
            a: Value::Reg(x),
            b: Value::ImmI(5),
        });
        b.insts.push(Inst::Bin {
            op: BinOp::Mul,
            ty: t,
            signed: false,
            dst: a,
            a: Value::Reg(y),
            b: Value::ImmI(3),
        });
        b.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: t,
            signed: false,
            dst: out,
            a: Value::Reg(a),
            b: Value::ImmI(7),
        });
        b.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(4),
            value: Value::Reg(out),
        });
        b.term = Term::Ret;
        f.add_block(b);
        let stats = ExecStats {
            cycles_body: 8,
            instructions: 6,
            loads: 1,
            stores: 1,
            warp_entries: 1,
            thread_entries: 1,
            ..ExecStats::default()
        };
        assert_ran(&run(&f), &[0, 22], stats);
    }

    #[test]
    fn a_predicate_read_after_its_branch_keeps_its_value() {
        let mut f = Function::new("t", 1);
        let t = Type::scalar(STy::I32);
        let p = f.new_reg(Type::scalar(STy::I1));
        let out = f.new_reg(t);
        let mut entry = Block::new("entry");
        entry.insts.push(Inst::Cmp {
            pred: CmpPred::Lt,
            ty: t,
            signed: true,
            dst: p,
            a: Value::ImmI(1),
            b: Value::ImmI(2),
        });
        let mut join = Block::new("join");
        join.insts.push(Inst::Cvt {
            to: STy::I32,
            from: STy::I1,
            signed: false,
            width: 1,
            dst: out,
            a: Value::Reg(p),
        });
        join.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(0),
            value: Value::Reg(out),
        });
        join.term = Term::Ret;
        let e = f.add_block(entry);
        let j = f.add_block(join);
        f.block_mut(e).term = Term::CondBr { cond: Value::Reg(p), taken: j, fall: j };
        assert_eq!(run(&f).word(0), 1);
    }

    #[test]
    fn switch_targets_resolve_to_uop_indices() {
        let mut f = Function::new("t", 1);
        let t = Type::scalar(STy::I32);
        let id = f.new_reg(t);
        let mut entry = Block::new("sched");
        entry.insts.push(Inst::CtxRead { field: dpvk_ir::CtxField::EntryId, lane: 0, dst: id });
        entry.term = Term::Switch {
            value: Value::Reg(id),
            cases: vec![(0, BlockId(1)), (5, BlockId(2))],
            default: BlockId(1),
        };
        f.add_block(entry);
        for (name, v) in [("zero", 111i64), ("five", 222)] {
            let mut b = Block::new(name);
            b.insts.push(Inst::Store {
                ty: STy::I32,
                space: Space::Global,
                addr: Value::ImmI(0),
                value: Value::ImmI(v),
            });
            b.term = Term::Ret;
            f.add_block(b);
        }
        for (entry, want) in [(0, 111), (5, 222), (9, 111)] {
            assert_eq!(run_with(&f, entry, &[], &ExecLimits::default(), None).word(0), want);
        }
    }

    #[test]
    fn vector_kernel_runs_to_its_pinned_image_and_stats() {
        let mut f = Function::new("t", 4);
        let vt = Type::vector(STy::F32, 4);
        let v = f.new_reg(vt);
        let e = f.new_reg(Type::scalar(STy::F32));
        let mut b = Block::new("entry");
        b.insts.push(Inst::Splat { ty: vt, dst: v, a: Value::ImmF(2.0) });
        b.insts.push(Inst::Fma {
            ty: vt,
            dst: v,
            a: Value::Reg(v),
            b: Value::Reg(v),
            c: Value::Reg(v),
        });
        b.insts.push(Inst::Extract { ty: vt, dst: e, vec: Value::Reg(v), lane: 3 });
        b.insts.push(Inst::Store {
            ty: STy::F32,
            space: Space::Global,
            addr: Value::ImmI(0),
            value: Value::Reg(e),
        });
        b.term = Term::Ret;
        f.add_block(b);
        let stats = ExecStats {
            cycles_body: 6,
            instructions: 5,
            flops: 8,
            stores: 1,
            warp_entries: 1,
            thread_entries: 4,
            ..ExecStats::default()
        };
        assert_ran(&run(&f), &[6.0f32.to_bits()], stats);
    }
}
