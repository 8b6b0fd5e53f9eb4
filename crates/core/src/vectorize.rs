//! Kernel specialization: vectorization (Algorithm 1), divergence handling
//! (Algorithm 2), scheduler construction (Algorithm 3) and exit handlers
//! (Algorithm 4) from the paper.
//!
//! A [`TranslatedKernel`] is specialized for one warp width:
//!
//! * every scalar instruction is replicated once per warp lane and, where
//!   the machine supports it, the replicated bundle is *promoted* to a
//!   single vector-typed instruction — loads, stores, atomics, context
//!   reads and votes stay scalar and are packed/unpacked with
//!   `insertelement`/`extractelement`;
//! * conditional branches become `switch(sum of per-lane predicates)` —
//!   0 and warp-size jump to the uniform successors, anything else enters
//!   an *exit handler* that spills live values per thread, records
//!   per-thread resume points with a `select`, sets the warp resume status
//!   and returns to the execution manager (*yield on diverge*);
//! * barrier edges always yield with `Barrier` status;
//! * a *scheduler block* at function entry switches on the warp's entry id
//!   and dispatches to *entry handlers* that reload live values from
//!   thread-local spill slots.
//!
//! Which live values those handlers move is the kernel's
//! [`SlotPlan`](crate::slots::SlotPlan), shared by every specialization:
//! home-slot registers are stored right after their definition and never
//! at an exit, rematerialized live-ins are recomputed by the entry handler
//! instead of loaded, and the rest is spilled and reloaded.
//!
//! The width-1 specialization comes in two flavours: the *baseline*
//! (branches jump directly; yields only at barriers — the serialized
//! scalar execution of the paper's comparison baseline) and the
//! *cooperative* scalar used by dynamic warp formation, which yields at
//! every entry-point edge so threads can re-merge into warps
//! (`yield_at_branches`, the scalar flow of the paper's Figure 4b).

use dpvk_ir as ir;
use dpvk_ir::{
    BinOp, Block, BlockId, BlockKind, CtxField, Function, Inst, ReduceOp, ResumeStatus, STy, Term,
    Type, VReg, Value,
};

use crate::error::CoreError;
use crate::translate::TranslatedKernel;

/// Options controlling one specialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecializeOptions {
    /// Warp width of this specialization (1, 2, 4, ...).
    pub warp_size: u32,
    /// In width-1 specializations, yield at every entry-point edge so the
    /// execution manager can re-form warps (ignored for widths > 1).
    pub yield_at_branches: bool,
    /// Assume warps are formed of consecutively indexed threads of one CTA
    /// and rewrite lane-k context reads of CTA-uniform fields to lane 0
    /// (thread IDs become `lane0 + k`), enabling thread-invariant
    /// expression elimination by CSE (paper, Section 6.2).
    pub static_warp: bool,
    /// Run the standard optimization pipeline after specialization.
    pub optimize: bool,
    /// Detect warp-uniform values with a control-dependence-aware
    /// divergence analysis and compute them once per warp instead of per
    /// lane (single scalar op / single load). This is the optimization the
    /// paper plans via divergence analysis [11] and affine analysis [12]
    /// ("arbitrary loads may be replaced with vector loads ... remains for
    /// future work") — implemented here for scalar uniform loads.
    pub uniform_analysis: bool,
}

impl SpecializeOptions {
    /// Options for the dynamic-warp-formation specialization of width `w`.
    pub fn dynamic(w: u32) -> Self {
        SpecializeOptions {
            warp_size: w,
            yield_at_branches: true,
            static_warp: false,
            optimize: true,
            uniform_analysis: true,
        }
    }

    /// Options for the scalar baseline (serialized threads, yields only at
    /// barriers).
    pub fn baseline() -> Self {
        SpecializeOptions {
            warp_size: 1,
            yield_at_branches: false,
            static_warp: false,
            optimize: true,
            uniform_analysis: false,
        }
    }

    /// Options for static warp formation with thread-invariant elimination.
    pub fn static_tie(w: u32) -> Self {
        SpecializeOptions {
            warp_size: w,
            yield_at_branches: false,
            static_warp: true,
            optimize: true,
            uniform_analysis: true,
        }
    }

    /// Disable the uniform-value analysis (ablation).
    pub fn without_uniform_analysis(mut self) -> Self {
        self.uniform_analysis = false;
        self
    }
}

/// Result of one specialization.
#[derive(Debug, Clone)]
pub struct Specialized {
    /// The specialized function (entry block is the scheduler).
    pub function: Function,
    /// Static instruction count before optimization.
    pub pre_opt_instructions: usize,
    /// Static instruction count after optimization.
    pub post_opt_instructions: usize,
    /// Pipeline statistics.
    pub opt_stats: ir::opt::OptStats,
}

/// Where a scalar register's value lives in the specialized function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// Promoted to one vector register.
    Vector,
    /// Replicated into one scalar register per lane.
    PerLane,
    /// Warp-uniform: computed once into a single scalar register.
    Uniform,
}

struct Specializer<'a> {
    tk: &'a TranslatedKernel,
    opts: &'a SpecializeOptions,
    w: u32,
    out: Function,
    home: Vec<Home>,
    /// Scalar reg -> vector home register.
    vec_reg: Vec<Option<VReg>>,
    /// (scalar reg, lane) -> per-lane register, at `reg * w + lane`.
    lane_reg: Vec<Option<VReg>>,
    /// Scalar reg -> single uniform register.
    uni_reg: Vec<Option<VReg>>,
    /// Scalar block -> specialized body block.
    body_block: Vec<BlockId>,
}

impl<'a> Specializer<'a> {
    fn sty(&self, r: VReg) -> STy {
        self.tk.scalar.reg_type(r).scalar
    }

    fn vec_home(&mut self, r: VReg) -> VReg {
        if let Some(v) = self.vec_reg[r.index()] {
            return v;
        }
        let ty = Type::vector(self.sty(r), self.w);
        let v = self.out.new_reg(ty);
        self.vec_reg[r.index()] = Some(v);
        v
    }

    fn uni_home(&mut self, r: VReg) -> VReg {
        if let Some(v) = self.uni_reg[r.index()] {
            return v;
        }
        let v = self.out.new_reg(Type::scalar(self.sty(r)));
        self.uni_reg[r.index()] = Some(v);
        v
    }

    /// Value of an operand of a uniform (once-per-warp) instruction. The
    /// divergence analysis guarantees every register operand is uniform.
    fn uniform_value(&mut self, v: Value) -> Value {
        match v {
            Value::ImmI(_) | Value::ImmF(_) => v,
            Value::Reg(r) => {
                debug_assert_eq!(self.home[r.index()], Home::Uniform);
                Value::Reg(self.uni_home(r))
            }
        }
    }

    fn lane_home(&mut self, r: VReg, lane: u32) -> VReg {
        let slot = r.index() * self.w as usize + lane as usize;
        if let Some(v) = self.lane_reg[slot] {
            return v;
        }
        let v = self.out.new_reg(Type::scalar(self.sty(r)));
        self.lane_reg[slot] = Some(v);
        v
    }

    fn zero_of(sty: STy) -> Value {
        if sty.is_float() {
            Value::ImmF(0.0)
        } else {
            Value::ImmI(0)
        }
    }

    /// Vector-typed value of a scalar-function operand (packing per-lane
    /// homes with an insertelement chain).
    fn vector_value(&mut self, block: BlockId, v: Value) -> Value {
        match v {
            Value::ImmI(_) | Value::ImmF(_) => v, // immediates broadcast
            Value::Reg(r) => {
                if self.home[r.index()] == Home::Vector {
                    Value::Reg(self.vec_home(r))
                } else if self.home[r.index()] == Home::Uniform {
                    let sty = self.sty(r);
                    let ty = Type::vector(sty, self.w);
                    let u = self.uni_home(r);
                    let splat = self.out.new_reg(ty);
                    self.out.block_mut(block).insts.push(Inst::Splat {
                        ty,
                        dst: splat,
                        a: Value::Reg(u),
                    });
                    Value::Reg(splat)
                } else {
                    let sty = self.sty(r);
                    let ty = Type::vector(sty, self.w);
                    let packed = self.out.new_reg(ty);
                    let mut vecv = Self::zero_of(sty);
                    for lane in 0..self.w {
                        let lr = self.lane_home(r, lane);
                        self.out.block_mut(block).insts.push(Inst::Insert {
                            ty,
                            dst: packed,
                            vec: vecv,
                            elem: Value::Reg(lr),
                            lane,
                        });
                        vecv = Value::Reg(packed);
                    }
                    Value::Reg(packed)
                }
            }
        }
    }

    /// Scalar value of operand `v` for warp member `lane` (unpacking
    /// vector homes with extractelement).
    fn lane_value(&mut self, block: BlockId, v: Value, lane: u32) -> Value {
        match v {
            Value::ImmI(_) | Value::ImmF(_) => v,
            Value::Reg(r) => {
                if self.home[r.index()] == Home::Uniform {
                    Value::Reg(self.uni_home(r))
                } else if self.home[r.index()] == Home::PerLane {
                    Value::Reg(self.lane_home(r, lane))
                } else {
                    let sty = self.sty(r);
                    let src = self.vec_home(r);
                    let t = self.out.new_reg(Type::scalar(sty));
                    self.out.block_mut(block).insts.push(Inst::Extract {
                        ty: Type::vector(sty, self.w),
                        dst: t,
                        vec: Value::Reg(src),
                        lane,
                    });
                    Value::Reg(t)
                }
            }
        }
    }

    /// Store a vector-instruction result into the scalar register's home.
    /// Returns the register the vector instruction should define.
    fn vector_dst(
        &mut self,
        block: BlockId,
        dst: VReg,
        after: impl FnOnce(&mut Self, BlockId, VReg),
    ) {
        if self.home[dst.index()] == Home::Vector {
            let v = self.vec_home(dst);
            after(self, block, v);
        } else {
            // Compute into a temp vector, then unpack into the lanes.
            let sty = self.sty(dst);
            let ty = Type::vector(sty, self.w);
            let t = self.out.new_reg(ty);
            after(self, block, t);
            for lane in 0..self.w {
                let lr = self.lane_home(dst, lane);
                self.out.block_mut(block).insts.push(Inst::Extract {
                    ty,
                    dst: lr,
                    vec: Value::Reg(t),
                    lane,
                });
            }
        }
    }

    /// Whether this instruction's destination is warp-uniform (computed
    /// once per warp).
    fn dst_is_uniform(&self, inst: &Inst) -> bool {
        inst.dst().map(|d| self.home[d.index()] == Home::Uniform).unwrap_or(false)
    }

    /// Emit a uniform (once-per-warp) clone of a scalar instruction.
    fn emit_uniform_inst(&mut self, block: BlockId, inst: &Inst) {
        match inst {
            Inst::CtxRead { field: CtxField::WarpSize, dst, .. } => {
                let d = self.uni_home(*dst);
                self.out.block_mut(block).insts.push(Inst::Mov {
                    ty: Type::scalar(STy::I32),
                    dst: d,
                    a: Value::ImmI(self.w as i64),
                });
            }
            Inst::CtxRead { field, dst, .. } => {
                let d = self.uni_home(*dst);
                self.out.block_mut(block).insts.push(Inst::CtxRead {
                    field: *field,
                    lane: 0,
                    dst: d,
                });
            }
            _ => {
                // Pre-create uniform homes for all operands (the analysis
                // guarantees they are uniform), then clone with renaming.
                for v in inst.uses() {
                    if let Some(r) = v.as_reg() {
                        self.uni_home(r);
                    }
                }
                let mut cloned = inst.clone();
                let uni = &self.uni_reg;
                cloned.map_uses(|v| {
                    if let Value::Reg(r) = v {
                        *v = Value::Reg(uni[r.index()].expect("home created above"));
                    }
                });
                if let Some(d) = cloned.dst() {
                    let mapped = self.uni_home(d);
                    *cloned.dst_mut().expect("dst checked above") = mapped;
                }
                self.out.block_mut(block).insts.push(cloned);
            }
        }
    }

    /// Vectorize one scalar instruction into `block` (Algorithm 1).
    fn vectorize_inst(&mut self, block: BlockId, inst: &Inst) {
        // Warp-uniform results are computed once (divergence analysis).
        if self.dst_is_uniform(inst) {
            self.emit_uniform_inst(block, inst);
            return;
        }
        // Fully-uniform stores collapse to a single store.
        if let Inst::Store { addr, value, .. } = inst {
            let is_uni = |v: &Value| match v {
                Value::Reg(r) => self.home[r.index()] == Home::Uniform,
                _ => true,
            };
            if is_uni(addr) && is_uni(value) {
                for v in inst.uses() {
                    if let Some(r) = v.as_reg() {
                        self.uni_home(r);
                    }
                }
                let mut cloned = inst.clone();
                let uni = &self.uni_reg;
                cloned.map_uses(|v| {
                    if let Value::Reg(r) = v {
                        *v = Value::Reg(uni[r.index()].expect("home created above"));
                    }
                });
                self.out.block_mut(block).insts.push(cloned);
                return;
            }
        }
        let w = self.w;
        match inst {
            // ---- Promotable instructions: one vector op. ----
            Inst::Bin { op, ty, signed, dst, a, b } => {
                let vty = Type::vector(ty.scalar, w);
                let av = self.vector_value(block, *a);
                let bv = self.vector_value(block, *b);
                let (op, signed) = (*op, *signed);
                self.vector_dst(block, *dst, |s, blk, d| {
                    s.out.block_mut(blk).insts.push(Inst::Bin {
                        op,
                        ty: vty,
                        signed,
                        dst: d,
                        a: av,
                        b: bv,
                    });
                });
            }
            Inst::Un { op, ty, dst, a } => {
                let vty = Type::vector(ty.scalar, w);
                let av = self.vector_value(block, *a);
                let op = *op;
                self.vector_dst(block, *dst, |s, blk, d| {
                    s.out.block_mut(blk).insts.push(Inst::Un { op, ty: vty, dst: d, a: av });
                });
            }
            Inst::Fma { ty, dst, a, b, c } => {
                let vty = Type::vector(ty.scalar, w);
                let av = self.vector_value(block, *a);
                let bv = self.vector_value(block, *b);
                let cv = self.vector_value(block, *c);
                self.vector_dst(block, *dst, |s, blk, d| {
                    s.out.block_mut(blk).insts.push(Inst::Fma {
                        ty: vty,
                        dst: d,
                        a: av,
                        b: bv,
                        c: cv,
                    });
                });
            }
            Inst::Cmp { pred, ty, signed, dst, a, b } => {
                let vty = Type::vector(ty.scalar, w);
                let av = self.vector_value(block, *a);
                let bv = self.vector_value(block, *b);
                let (pred, signed) = (*pred, *signed);
                self.vector_dst(block, *dst, |s, blk, d| {
                    s.out.block_mut(blk).insts.push(Inst::Cmp {
                        pred,
                        ty: vty,
                        signed,
                        dst: d,
                        a: av,
                        b: bv,
                    });
                });
            }
            Inst::Select { ty, dst, cond, a, b } => {
                let vty = Type::vector(ty.scalar, w);
                let cv = self.vector_value(block, *cond);
                let av = self.vector_value(block, *a);
                let bv = self.vector_value(block, *b);
                self.vector_dst(block, *dst, |s, blk, d| {
                    s.out.block_mut(blk).insts.push(Inst::Select {
                        ty: vty,
                        dst: d,
                        cond: cv,
                        a: av,
                        b: bv,
                    });
                });
            }
            Inst::Cvt { to, from, signed, dst, a, .. } => {
                let av = self.vector_value(block, *a);
                let (to, from, signed) = (*to, *from, *signed);
                self.vector_dst(block, *dst, |s, blk, d| {
                    s.out.block_mut(blk).insts.push(Inst::Cvt {
                        to,
                        from,
                        signed,
                        width: w,
                        dst: d,
                        a: av,
                    });
                });
            }
            Inst::Mov { ty, dst, a } => {
                let vty = Type::vector(ty.scalar, w);
                let av = self.vector_value(block, *a);
                self.vector_dst(block, *dst, |s, blk, d| {
                    s.out.block_mut(blk).insts.push(Inst::Mov { ty: vty, dst: d, a: av });
                });
            }
            // ---- Replicated instructions: one scalar op per lane. ----
            Inst::Load { ty, space, dst, addr } => {
                for lane in 0..w {
                    let a = self.lane_value(block, *addr, lane);
                    let d = self.lane_home(*dst, lane);
                    self.out.block_mut(block).insts.push(Inst::Load {
                        ty: *ty,
                        space: *space,
                        dst: d,
                        addr: a,
                    });
                }
            }
            Inst::Store { ty, space, addr, value } => {
                for lane in 0..w {
                    let a = self.lane_value(block, *addr, lane);
                    let v = self.lane_value(block, *value, lane);
                    self.out.block_mut(block).insts.push(Inst::Store {
                        ty: *ty,
                        space: *space,
                        addr: a,
                        value: v,
                    });
                }
            }
            Inst::Atom { ty, space, op, signed, dst, addr, a, b } => {
                for lane in 0..w {
                    let addr_v = self.lane_value(block, *addr, lane);
                    let av = self.lane_value(block, *a, lane);
                    let bv = b.map(|b| self.lane_value(block, b, lane));
                    let d = self.lane_home(*dst, lane);
                    self.out.block_mut(block).insts.push(Inst::Atom {
                        ty: *ty,
                        space: *space,
                        op: *op,
                        signed: *signed,
                        dst: d,
                        addr: addr_v,
                        a: av,
                        b: bv,
                    });
                }
            }
            Inst::CtxRead { field, dst, .. } => {
                self.vectorize_ctx_read(block, *field, *dst);
            }
            Inst::Vote { op, dst, a } => {
                // Pack the per-lane predicates, reduce warp-wide, broadcast.
                let packed = self.vector_value(block, *a);
                let i1v = Type::vector(STy::I1, w);
                let s = self.out.new_reg(Type::scalar(STy::I1));
                self.out.block_mut(block).insts.push(Inst::Reduce {
                    op: *op,
                    ty: i1v,
                    dst: s,
                    vec: packed,
                });
                for lane in 0..w {
                    let d = self.lane_home(*dst, lane);
                    self.out.block_mut(block).insts.push(Inst::Mov {
                        ty: Type::scalar(STy::I1),
                        dst: d,
                        a: Value::Reg(s),
                    });
                }
            }
            other => {
                unreachable!("instruction not produced by the translator: {other:?}")
            }
        }
    }

    fn vectorize_ctx_read(&mut self, block: BlockId, field: CtxField, dst: VReg) {
        let w = self.w;
        for lane in 0..w {
            let d = self.lane_home(dst, lane);
            match field {
                CtxField::LaneId => {
                    self.out.block_mut(block).insts.push(Inst::Mov {
                        ty: Type::scalar(STy::I32),
                        dst: d,
                        a: Value::ImmI(lane as i64),
                    });
                }
                CtxField::WarpSize => {
                    self.out.block_mut(block).insts.push(Inst::Mov {
                        ty: Type::scalar(STy::I32),
                        dst: d,
                        a: Value::ImmI(w as i64),
                    });
                }
                CtxField::Tid(0) if self.opts.static_warp && lane > 0 => {
                    // Consecutive threads: tid.x of lane k is lane0 + k.
                    let base = self.out.new_reg(Type::scalar(STy::I32));
                    self.out.block_mut(block).insts.push(Inst::CtxRead {
                        field: CtxField::Tid(0),
                        lane: 0,
                        dst: base,
                    });
                    self.out.block_mut(block).insts.push(Inst::Bin {
                        op: BinOp::Add,
                        ty: Type::scalar(STy::I32),
                        signed: false,
                        dst: d,
                        a: Value::Reg(base),
                        b: Value::ImmI(lane as i64),
                    });
                }
                CtxField::Tid(_) | CtxField::Ntid(_) | CtxField::Ctaid(_) | CtxField::Nctaid(_)
                    if self.opts.static_warp && lane > 0 && !matches!(field, CtxField::Tid(0)) =>
                {
                    // CTA-uniform fields: read lane 0's context so CSE can
                    // merge the replicas (thread-invariant elimination).
                    self.out.block_mut(block).insts.push(Inst::CtxRead { field, lane: 0, dst: d });
                }
                _ => {
                    self.out.block_mut(block).insts.push(Inst::CtxRead { field, lane, dst: d });
                }
            }
        }
    }

    /// Emit spill code for `regs` (all lanes) into `block` (Algorithm 4's
    /// "store live state"; also the store right after a home-slot
    /// register's definition).
    fn emit_spills(&mut self, block: BlockId, regs: &[VReg]) {
        for lane in 0..self.w {
            let base = self.out.new_reg(Type::scalar(STy::I64));
            self.out.block_mut(block).insts.push(Inst::CtxRead {
                field: CtxField::LocalBase,
                lane,
                dst: base,
            });
            for &r in regs {
                let slot = self.tk.spill_slots[&r];
                let addr = self.out.new_reg(Type::scalar(STy::I64));
                self.out.block_mut(block).insts.push(Inst::Bin {
                    op: BinOp::Add,
                    ty: Type::scalar(STy::I64),
                    signed: false,
                    dst: addr,
                    a: Value::Reg(base),
                    b: Value::ImmI(slot as i64),
                });
                let sty = self.sty(r);
                let v = self.lane_value(block, Value::Reg(r), lane);
                self.out.block_mut(block).insts.push(Inst::Store {
                    ty: sty,
                    space: ir::Space::Spill,
                    addr: Value::Reg(addr),
                    value: v,
                });
            }
        }
    }

    /// Emit restore code for `regs` (all lanes) into `block` (Algorithm 3's
    /// "load live-in values").
    fn emit_restores(&mut self, block: BlockId, regs: &[VReg]) {
        for lane in 0..self.w {
            let base = self.out.new_reg(Type::scalar(STy::I64));
            self.out.block_mut(block).insts.push(Inst::CtxRead {
                field: CtxField::LocalBase,
                lane,
                dst: base,
            });
            for &r in regs {
                let slot = self.tk.spill_slots[&r];
                let addr = self.out.new_reg(Type::scalar(STy::I64));
                self.out.block_mut(block).insts.push(Inst::Bin {
                    op: BinOp::Add,
                    ty: Type::scalar(STy::I64),
                    signed: false,
                    dst: addr,
                    a: Value::Reg(base),
                    b: Value::ImmI(slot as i64),
                });
                let sty = self.sty(r);
                if self.w > 1 && self.home[r.index()] == Home::Uniform {
                    // All lanes spilled the same value; restore once.
                    if lane == 0 {
                        let d = self.uni_home(r);
                        self.out.block_mut(block).insts.push(Inst::Load {
                            ty: sty,
                            space: ir::Space::Spill,
                            dst: d,
                            addr: Value::Reg(addr),
                        });
                    }
                } else if self.w > 1 && self.home[r.index()] == Home::Vector {
                    let tmp = self.out.new_reg(Type::scalar(sty));
                    self.out.block_mut(block).insts.push(Inst::Load {
                        ty: sty,
                        space: ir::Space::Spill,
                        dst: tmp,
                        addr: Value::Reg(addr),
                    });
                    let vr = self.vec_home(r);
                    let ty = Type::vector(sty, self.w);
                    let base_val = if lane == 0 { Self::zero_of(sty) } else { Value::Reg(vr) };
                    self.out.block_mut(block).insts.push(Inst::Insert {
                        ty,
                        dst: vr,
                        vec: base_val,
                        elem: Value::Reg(tmp),
                        lane,
                    });
                } else {
                    let d = self.lane_home(r, lane);
                    self.out.block_mut(block).insts.push(Inst::Load {
                        ty: sty,
                        space: ir::Space::Spill,
                        dst: d,
                        addr: Value::Reg(addr),
                    });
                }
            }
        }
    }

    /// Build a yield block: spill `spill`, set per-lane resume points from
    /// `resume` (a closure producing the per-lane entry-id value), set the
    /// status and return. Returns the new block's id.
    fn build_exit_handler(
        &mut self,
        label: String,
        spill: &[VReg],
        status: ResumeStatus,
        resume: impl FnOnce(&mut Self, BlockId) -> Vec<Value>,
    ) -> BlockId {
        let mut b = Block::new(label);
        b.kind = BlockKind::ExitHandler;
        b.term = Term::Ret;
        let id = self.out.add_block(b);
        self.emit_spills(id, spill);
        let ids = resume(self, id);
        debug_assert_eq!(ids.len(), self.w as usize);
        for (lane, v) in ids.into_iter().enumerate() {
            self.out.block_mut(id).insts.push(Inst::SetResumePoint { lane: lane as u32, value: v });
        }
        self.out.block_mut(id).insts.push(Inst::SetResumeStatus { status });
        id
    }

    /// Vectorize (or, at width 1, clone) one scalar instruction into
    /// `block`.
    fn emit_inst(&mut self, block: BlockId, inst: &Inst) {
        if self.w == 1 {
            clone_scalar_inst(self, block, inst);
        } else {
            self.vectorize_inst(block, inst);
        }
    }
}

/// Control-dependence-aware divergence analysis on the scalar function.
///
/// Returns, per register, whether its value is provably identical across
/// all threads of a CTA at every program point. A register is uniform when
/// *every* definition (a) is a promotable op, a load, or a context read of
/// a CTA-uniform field, (b) has only uniform operands, and (c) sits in a
/// *uniformly reached* block — one that no divergent branch decision can
/// steer threads around. The block condition is what makes the analysis
/// sound under warp re-formation: threads that executed different paths
/// may hold different values even when each definition reads uniform
/// inputs.
fn compute_uniform(scalar: &Function) -> Vec<bool> {
    let n = scalar.regs.len();
    let mut uni = vec![true; n];
    let nb = scalar.blocks.len();
    let mut block_uniform = vec![true; nb];
    loop {
        let mut changed = false;
        // Demote blocks reached through divergent branches.
        for (i, b) in scalar.blocks.iter().enumerate() {
            let term_uniform = match &b.term {
                Term::CondBr { cond: Value::Reg(r), .. } => uni[r.index()],
                _ => true,
            };
            for succ in b.term.successors() {
                if block_uniform[succ.index()] && (!block_uniform[i] || !term_uniform) {
                    block_uniform[succ.index()] = false;
                    changed = true;
                }
            }
        }
        // Demote registers with non-uniform definitions.
        for (bi, b) in scalar.blocks.iter().enumerate() {
            for inst in &b.insts {
                let Some(d) = inst.dst() else { continue };
                if !uni[d.index()] {
                    continue;
                }
                let operands_uniform = inst.uses().iter().all(|v| match v {
                    Value::Reg(r) => uni[r.index()],
                    _ => true,
                });
                let def_uniform = block_uniform[bi]
                    && operands_uniform
                    && match inst {
                        Inst::Bin { .. }
                        | Inst::Un { .. }
                        | Inst::Fma { .. }
                        | Inst::Cmp { .. }
                        | Inst::Select { .. }
                        | Inst::Cvt { .. }
                        | Inst::Mov { .. }
                        | Inst::Load { .. } => true,
                        Inst::CtxRead { field, .. } => matches!(
                            field,
                            CtxField::Ntid(_)
                                | CtxField::Ctaid(_)
                                | CtxField::Nctaid(_)
                                | CtxField::WarpSize
                        ),
                        _ => false,
                    };
                if !def_uniform {
                    uni[d.index()] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    uni
}

/// Specialize `tk` for the given options (the paper's Algorithms 1–4).
///
/// # Errors
///
/// Returns [`CoreError::Verify`] if the produced function fails IR
/// verification (an internal invariant violation).
pub fn specialize(
    tk: &TranslatedKernel,
    opts: &SpecializeOptions,
) -> Result<Specialized, CoreError> {
    let w = opts.warp_size;
    assert!(w >= 1, "warp size must be at least 1");
    let scalar = &tk.scalar;

    // Compute each scalar register's home. A register is promoted to a
    // vector only when every definition is promotable AND at least one use
    // sits in a promotable instruction (or a branch condition) — values
    // that exist solely to feed scalar memory operations (address chains)
    // replicate per lane, avoiding a pack/unpack detour, as the paper's
    // memoization also does.
    let promotable = |inst: &Inst| {
        matches!(
            inst,
            Inst::Bin { .. }
                | Inst::Un { .. }
                | Inst::Fma { .. }
                | Inst::Cmp { .. }
                | Inst::Select { .. }
                | Inst::Cvt { .. }
                | Inst::Mov { .. }
        )
    };
    let mut home = vec![Home::PerLane; scalar.regs.len()];
    let mut def_ok = vec![true; scalar.regs.len()];
    let mut use_in_vec = vec![false; scalar.regs.len()];
    for b in &scalar.blocks {
        for inst in &b.insts {
            let p = promotable(inst);
            if let Some(d) = inst.dst() {
                if !p {
                    def_ok[d.index()] = false;
                }
            }
            if p {
                for v in inst.uses() {
                    if let Some(r) = v.as_reg() {
                        use_in_vec[r.index()] = true;
                    }
                }
            }
        }
        // Divergence handling reduces branch conditions as vectors.
        for v in b.term.uses() {
            if let Some(r) = v.as_reg() {
                use_in_vec[r.index()] = true;
            }
        }
    }
    for i in 0..home.len() {
        if def_ok[i] && use_in_vec[i] {
            home[i] = Home::Vector;
        }
    }
    if opts.uniform_analysis && w > 1 {
        for (i, &u) in compute_uniform(scalar).iter().enumerate() {
            if u {
                home[i] = Home::Uniform;
            }
        }
    }
    // Width-1 functions keep everything per-lane.
    if w == 1 {
        home.iter_mut().for_each(|h| *h = Home::PerLane);
    }

    let variant = match (w, opts.yield_at_branches, opts.static_warp) {
        (1, false, _) => "baseline".to_string(),
        (1, true, _) => "scalar".to_string(),
        (_, _, true) => format!("static{w}"),
        (_, _, false) => format!("vec{w}"),
    };
    let mut out = Function::new(format!("{}::{}", tk.name, variant), w);

    let mut sp = Specializer {
        tk,
        opts,
        w,
        out: Function::new("placeholder", w),
        home,
        vec_reg: vec![None; scalar.regs.len()],
        lane_reg: vec![None; scalar.regs.len() * w as usize],
        uni_reg: vec![None; scalar.regs.len()],
        body_block: Vec::new(),
    };
    std::mem::swap(&mut sp.out, &mut out);

    // Block layout: scheduler, entry handlers, body blocks, exit handlers.
    let mut sched = Block::new("$scheduler");
    sched.kind = BlockKind::Scheduler;
    sched.term = Term::Ret; // replaced below
    let sched_id = sp.out.add_block(sched);

    let mut entry_handlers = Vec::with_capacity(tk.entry_points.len());
    for (i, _) in tk.entry_points.iter().enumerate() {
        let mut b = Block::new(format!("$entry{i}"));
        b.kind = BlockKind::EntryHandler;
        b.term = Term::Ret; // replaced below
        entry_handlers.push(sp.out.add_block(b));
    }

    for (i, b) in scalar.blocks.iter().enumerate() {
        let _ = i;
        let nb = Block::new(format!("{}$v", b.label));
        sp.body_block.push(sp.out.add_block(nb));
    }

    // Scheduler: switch on the warp's entry id (Algorithm 3).
    {
        let id_reg = sp.out.new_reg(Type::scalar(STy::I32));
        sp.out.block_mut(sched_id).insts.push(Inst::CtxRead {
            field: CtxField::EntryId,
            lane: 0,
            dst: id_reg,
        });
        let cases: Vec<(i64, BlockId)> =
            entry_handlers.iter().enumerate().skip(1).map(|(i, &h)| (i as i64, h)).collect();
        sp.out.block_mut(sched_id).term =
            Term::Switch { value: Value::Reg(id_reg), cases, default: entry_handlers[0] };
    }

    // Entry handlers: restore the live-ins the slot plan loads,
    // recompute the ones it rematerializes, jump into the body.
    for (i, &scalar_block) in tk.entry_points.iter().enumerate() {
        let handler = entry_handlers[i];
        sp.emit_restores(handler, &tk.slots.loads[scalar_block.index()]);
        for inst in &tk.slots.remat[scalar_block.index()] {
            sp.emit_inst(handler, inst);
        }
        let target = sp.body_block[scalar_block.index()];
        sp.out.block_mut(handler).term = Term::Br(target);
    }

    // Body blocks; a home-slot register is stored where the slot plan
    // says, right after its definition.
    for (i, sb) in scalar.blocks.iter().enumerate() {
        let body = sp.body_block[i];
        let mut def_stores = tk.slots.def_stores[i].iter().peekable();
        for (k, inst) in sb.insts.iter().enumerate() {
            sp.emit_inst(body, inst);
            if def_stores.next_if(|&&at| at as usize == k).is_some() {
                sp.emit_spills(body, &[inst.dst().expect("home slots store definitions")]);
            }
        }
        // Terminator.
        let this = BlockId(i as u32);
        match &sb.term {
            Term::Br(t) => {
                if tk.barrier_edges.get(&this) == Some(t) {
                    // Barrier yield.
                    let spill = tk.slots.exit_stores(&[*t]);
                    let id = tk.entry_id(*t);
                    let exit = sp.build_exit_handler(
                        format!("{}$bar_exit", sb.label),
                        &spill,
                        ResumeStatus::Barrier,
                        |s, _| vec![Value::ImmI(id); s.w as usize],
                    );
                    sp.out.block_mut(body).term = Term::Br(exit);
                } else if w == 1
                    && opts.yield_at_branches
                    && tk.entry_id_of.contains_key(t)
                    && *t != this
                {
                    // Cooperative scalar: yield at entry-point edges so the
                    // execution manager can re-merge threads (Figure 4b).
                    let spill = tk.slots.exit_stores(&[*t]);
                    let id = tk.entry_id(*t);
                    let exit = sp.build_exit_handler(
                        format!("{}$merge_exit", sb.label),
                        &spill,
                        ResumeStatus::Branch,
                        |_, _| vec![Value::ImmI(id)],
                    );
                    sp.out.block_mut(body).term = Term::Br(exit);
                } else {
                    sp.out.block_mut(body).term = Term::Br(sp.body_block[t.index()]);
                }
            }
            Term::CondBr { cond, taken, fall } => {
                let taken_id = tk.entry_id(*taken);
                let fall_id = tk.entry_id(*fall);
                if w == 1 {
                    if opts.yield_at_branches {
                        // Yield unconditionally; the resume point selects
                        // the successor.
                        let spill = tk.slots.exit_stores(&[*taken, *fall]);
                        let cond = *cond;
                        let exit = sp.build_exit_handler(
                            format!("{}$br_exit", sb.label),
                            &spill,
                            ResumeStatus::Branch,
                            |s, blk| {
                                let c = s.lane_value(blk, cond, 0);
                                let idr = s.out.new_reg(Type::scalar(STy::I32));
                                s.out.block_mut(blk).insts.push(Inst::Select {
                                    ty: Type::scalar(STy::I32),
                                    dst: idr,
                                    cond: c,
                                    a: Value::ImmI(taken_id),
                                    b: Value::ImmI(fall_id),
                                });
                                vec![Value::Reg(idr)]
                            },
                        );
                        sp.out.block_mut(body).term = Term::Br(exit);
                    } else {
                        // Baseline: direct conditional branch.
                        let c = sp.lane_value(body, *cond, 0);
                        sp.out.block_mut(body).term = Term::CondBr {
                            cond: c,
                            taken: sp.body_block[taken.index()],
                            fall: sp.body_block[fall.index()],
                        };
                    }
                } else if matches!(cond, Value::Reg(r) if sp.home[r.index()] == Home::Uniform) {
                    // Provably convergent branch ("some kernels may be
                    // statically proven to be entirely convergent"): no
                    // divergence machinery needed.
                    let c = sp.uniform_value(*cond);
                    sp.out.block_mut(body).term = Term::CondBr {
                        cond: c,
                        taken: sp.body_block[taken.index()],
                        fall: sp.body_block[fall.index()],
                    };
                } else {
                    // Algorithm 2: switch on the sum of the predicates.
                    let cv = sp.vector_value(body, *cond);
                    let sum = sp.out.new_reg(Type::scalar(STy::I32));
                    sp.out.block_mut(body).insts.push(Inst::Reduce {
                        op: ReduceOp::Add,
                        ty: Type::vector(STy::I1, w),
                        dst: sum,
                        vec: cv,
                    });
                    let spill = tk.slots.exit_stores(&[*taken, *fall]);
                    let cond = *cond;
                    let exit = sp.build_exit_handler(
                        format!("{}$div_exit", sb.label),
                        &spill,
                        ResumeStatus::Branch,
                        |s, blk| {
                            (0..s.w)
                                .map(|lane| {
                                    let c = s.lane_value(blk, cond, lane);
                                    let idr = s.out.new_reg(Type::scalar(STy::I32));
                                    s.out.block_mut(blk).insts.push(Inst::Select {
                                        ty: Type::scalar(STy::I32),
                                        dst: idr,
                                        cond: c,
                                        a: Value::ImmI(taken_id),
                                        b: Value::ImmI(fall_id),
                                    });
                                    Value::Reg(idr)
                                })
                                .collect()
                        },
                    );
                    sp.out.block_mut(body).term = Term::Switch {
                        value: Value::Reg(sum),
                        cases: vec![
                            (0, sp.body_block[fall.index()]),
                            (w as i64, sp.body_block[taken.index()]),
                        ],
                        default: exit,
                    };
                }
            }
            Term::Ret => {
                sp.out.block_mut(body).term = Term::Ret;
            }
            Term::Switch { .. } => {
                unreachable!("the translator does not produce switches")
            }
        }
    }

    let mut out = sp.out;
    let pre_opt_instructions = out.instruction_count();
    ir::verify(&out)?;
    let opt_stats = if opts.optimize {
        let stats = ir::opt::standard_pipeline(&mut out);
        ir::verify(&out)?;
        stats
    } else {
        ir::opt::OptStats::default()
    };
    let post_opt_instructions = out.instruction_count();

    if dpvk_trace::enabled() {
        // Vectorizer-effectiveness accounting: classify each surviving
        // instruction as vector-promoted, per-lane replicated, or
        // pack/unpack glue between the two worlds.
        let mut replicated = 0u64;
        let mut promoted = 0u64;
        let mut pack_glue = 0u64;
        let mut unpack_glue = 0u64;
        for b in &out.blocks {
            for inst in &b.insts {
                match inst {
                    Inst::Insert { .. } | Inst::Splat { .. } => pack_glue += 1,
                    Inst::Extract { .. } | Inst::Reduce { .. } => unpack_glue += 1,
                    _ => match inst.dst() {
                        Some(d) if out.regs[d.index()].is_vector() => promoted += 1,
                        _ => replicated += 1,
                    },
                }
            }
        }
        let label = if opts.static_warp {
            "static_tie"
        } else if w == 1 && !opts.yield_at_branches {
            "baseline"
        } else {
            "dynamic"
        };
        dpvk_trace::record_specialization(dpvk_trace::SpecRecord {
            kernel: tk.name.clone(),
            warp_size: w,
            variant: label,
            pre_opt_instructions: pre_opt_instructions as u64,
            post_opt_instructions: post_opt_instructions as u64,
            replicated,
            promoted,
            pack_glue,
            unpack_glue,
            dce_removed: opt_stats.dce_removed as u64,
        });
    }

    Ok(Specialized { function: out, pre_opt_instructions, post_opt_instructions, opt_stats })
}

/// Width-1 clone of a scalar instruction with register renaming.
fn clone_scalar_inst(sp: &mut Specializer<'_>, block: BlockId, inst: &Inst) {
    // Rewrite LaneId/WarpSize reads to constants; everything else is a
    // rename to the lane-0 home registers.
    match inst {
        Inst::CtxRead { field: CtxField::LaneId, dst, .. } => {
            let d = sp.lane_home(*dst, 0);
            sp.out.block_mut(block).insts.push(Inst::Mov {
                ty: Type::scalar(STy::I32),
                dst: d,
                a: Value::ImmI(0),
            });
            return;
        }
        Inst::CtxRead { field: CtxField::WarpSize, dst, .. } => {
            let d = sp.lane_home(*dst, 0);
            sp.out.block_mut(block).insts.push(Inst::Mov {
                ty: Type::scalar(STy::I32),
                dst: d,
                a: Value::ImmI(1),
            });
            return;
        }
        _ => {}
    }
    let mut cloned = inst.clone();
    cloned.map_uses(|v| {
        if let Value::Reg(r) = v {
            *v = Value::Reg(sp.lane_home(*r, 0));
        }
    });
    if let Some(d) = cloned.dst_mut() {
        *d = sp.lane_home(*d, 0);
    }
    sp.out.block_mut(block).insts.push(cloned);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate;
    use dpvk_ptx::parse_kernel;

    const DIVERGE: &str = r#"
.kernel diverge (.param .u64 out) {
  .reg .u32 %r<6>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  and.u32 %r2, %r1, 1;
  setp.eq.u32 %p1, %r2, 0;
  @%p1 bra even;
  mul.lo.u32 %r3, %r1, 3;
  bra join;
even:
  mul.lo.u32 %r3, %r1, 2;
join:
  cvt.u64.u32 %rd1, %r1;
  shl.u64 %rd1, %rd1, 2;
  ld.param.u64 %rd2, [out];
  add.u64 %rd2, %rd2, %rd1;
  st.global.u32 [%rd2], %r3;
  ret;
}
"#;

    fn translated() -> TranslatedKernel {
        translate(&parse_kernel(DIVERGE).unwrap()).unwrap()
    }

    #[test]
    fn all_specializations_verify() {
        let tk = translated();
        for opts in [
            SpecializeOptions::baseline(),
            SpecializeOptions::dynamic(1),
            SpecializeOptions::dynamic(2),
            SpecializeOptions::dynamic(4),
            SpecializeOptions::static_tie(2),
            SpecializeOptions::static_tie(4),
        ] {
            let s = specialize(&tk, &opts).unwrap();
            ir::verify(&s.function).unwrap();
            assert_eq!(s.function.warp_size, opts.warp_size);
        }
    }

    #[test]
    fn scheduler_is_block_zero_with_switch() {
        let tk = translated();
        let s = specialize(&tk, &SpecializeOptions::dynamic(4)).unwrap();
        let b0 = &s.function.blocks[0];
        assert_eq!(b0.kind, BlockKind::Scheduler);
        assert!(matches!(b0.term, Term::Switch { .. }));
    }

    #[test]
    fn divergent_branch_becomes_predicate_sum_switch() {
        let tk = translated();
        let s = specialize(
            &tk,
            &SpecializeOptions { optimize: false, ..SpecializeOptions::dynamic(4) },
        )
        .unwrap();
        // Find a switch with cases 0 and 4 whose default is an exit handler.
        let found = s.function.blocks.iter().any(|b| match &b.term {
            Term::Switch { cases, default, .. } => {
                cases.iter().any(|(v, _)| *v == 0)
                    && cases.iter().any(|(v, _)| *v == 4)
                    && s.function.blocks[default.index()].kind == BlockKind::ExitHandler
            }
            _ => false,
        });
        assert!(found, "{}", ir::print_function(&s.function));
    }

    #[test]
    fn vector_instructions_are_promoted() {
        let tk = translated();
        let s = specialize(
            &tk,
            &SpecializeOptions { optimize: false, ..SpecializeOptions::dynamic(4) },
        )
        .unwrap();
        let has_vec_mul = s
            .function
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Bin { op: BinOp::Mul, ty, .. } if ty.width == 4));
        assert!(has_vec_mul, "{}", ir::print_function(&s.function));
        // Loads stay scalar.
        let vector_loads = s
            .function
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        assert!(vector_loads > 0);
    }

    #[test]
    fn exit_handlers_spill_and_select_resume_points() {
        let tk = translated();
        let s = specialize(
            &tk,
            &SpecializeOptions { optimize: false, ..SpecializeOptions::dynamic(2) },
        )
        .unwrap();
        let handler = s
            .function
            .blocks
            .iter()
            .find(|b| b.kind == BlockKind::ExitHandler && b.label.contains("div_exit"))
            .expect("divergent exit handler exists");
        let stores = handler
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Store { space: ir::Space::Spill, .. }))
            .count();
        let selects = handler.insts.iter().filter(|i| matches!(i, Inst::Select { .. })).count();
        let resume_points =
            handler.insts.iter().filter(|i| matches!(i, Inst::SetResumePoint { .. })).count();
        // The one value live across the branch is `%tid.x`: both
        // successors' entry handlers recompute it, so the exit stores
        // nothing and the handlers load nothing.
        assert_eq!(stores, 0, "{}", ir::print_function(&s.function));
        for b in s.function.blocks.iter().filter(|b| b.kind == BlockKind::EntryHandler).skip(1) {
            assert!(!b
                .insts
                .iter()
                .any(|i| matches!(i, Inst::Load { space: ir::Space::Spill, .. })));
            assert!(b
                .insts
                .iter()
                .any(|i| matches!(i, Inst::CtxRead { field: CtxField::Tid(0), .. })));
        }
        assert_eq!(selects, 2);
        assert_eq!(resume_points, 2);
        assert!(handler
            .insts
            .iter()
            .any(|i| matches!(i, Inst::SetResumeStatus { status: ResumeStatus::Branch })));
    }

    #[test]
    fn baseline_has_direct_branches_and_no_branch_yields() {
        let tk = translated();
        let s = specialize(&tk, &SpecializeOptions::baseline()).unwrap();
        let has_condbr = s.function.blocks.iter().any(|b| matches!(b.term, Term::CondBr { .. }));
        assert!(has_condbr);
        let branch_exits = s
            .function
            .blocks
            .iter()
            .filter(|b| b.kind == BlockKind::ExitHandler)
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::SetResumeStatus { status: ResumeStatus::Branch }))
            .count();
        assert_eq!(branch_exits, 0);
    }

    #[test]
    fn cooperative_scalar_yields_at_branches() {
        let tk = translated();
        let s = specialize(&tk, &SpecializeOptions::dynamic(1)).unwrap();
        let branch_exits = s
            .function
            .blocks
            .iter()
            .filter(|b| b.kind == BlockKind::ExitHandler)
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::SetResumeStatus { status: ResumeStatus::Branch }))
            .count();
        assert!(branch_exits >= 1);
    }

    #[test]
    fn static_tie_reduces_instruction_count() {
        let tk = translated();
        let dynamic = specialize(&tk, &SpecializeOptions::dynamic(4)).unwrap();
        let tie = specialize(&tk, &SpecializeOptions::static_tie(4)).unwrap();
        // TIE merges the replicated CTA-uniform context reads, so the
        // optimized static function is smaller.
        assert!(
            tie.post_opt_instructions <= dynamic.post_opt_instructions,
            "tie {} vs dynamic {}",
            tie.post_opt_instructions,
            dynamic.post_opt_instructions
        );
    }

    #[test]
    fn barrier_kernels_yield_with_barrier_status() {
        let src = r#"
.kernel b (.param .u64 p) {
  .reg .u32 %r<4>;
entry:
  mov.u32 %r1, %tid.x;
  bar.sync 0;
  add.u32 %r1, %r1, 1;
  ret;
}
"#;
        let tk = translate(&parse_kernel(src).unwrap()).unwrap();
        for w in [1u32, 2, 4] {
            let s = specialize(&tk, &SpecializeOptions::dynamic(w)).unwrap();
            let has_barrier_yield = s
                .function
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .any(|i| matches!(i, Inst::SetResumeStatus { status: ResumeStatus::Barrier }));
            assert!(has_barrier_yield, "w={w}");
        }
    }
}

#[cfg(test)]
mod uniform_tests {
    use super::*;
    use crate::translate::translate;
    use dpvk_ptx::parse_kernel;

    /// A cp-style kernel: uniform loop over warp-invariant data plus a
    /// per-thread store.
    const UNIFORM_LOOP: &str = r#"
.kernel uloop (.param .u64 table, .param .u64 out, .param .u32 n) {
  .reg .u32 %r<6>;
  .reg .u64 %rd<6>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  mov.f32 %f0, 0.0;
  ld.param.u64 %rd0, [table];
  ld.param.u32 %r1, [n];
  mov.u32 %r2, 0;
loop:
  ld.global.f32 %f1, [%rd0];
  add.f32 %f0, %f0, %f1;
  add.u64 %rd0, %rd0, 4;
  add.u32 %r2, %r2, 1;
  setp.lt.u32 %p0, %r2, %r1;
  @%p0 bra loop;
  shl.u32 %r3, %r0, 2;
  cvt.u64.u32 %rd1, %r3;
  ld.param.u64 %rd2, [out];
  add.u64 %rd2, %rd2, %rd1;
  st.global.f32 [%rd2], %f0;
  ret;
}
"#;

    #[test]
    fn uniform_loads_issue_once_per_warp() {
        let tk = translate(&parse_kernel(UNIFORM_LOOP).unwrap()).unwrap();
        let on = specialize(&tk, &SpecializeOptions::dynamic(4)).unwrap();
        let off =
            specialize(&tk, &SpecializeOptions::dynamic(4).without_uniform_analysis()).unwrap();
        let count_loop_loads = |f: &Function| -> usize {
            f.blocks
                .iter()
                .filter(|b| b.label.starts_with("loop"))
                .flat_map(|b| &b.insts)
                .filter(|i| matches!(i, Inst::Load { space: ir::Space::Global, .. }))
                .count()
        };
        // With the analysis the table load issues once; without it, once
        // per lane.
        assert_eq!(count_loop_loads(&on.function), 1, "{}", ir::print_function(&on.function));
        assert_eq!(count_loop_loads(&off.function), 4);
    }

    #[test]
    fn uniform_loop_branch_needs_no_divergence_machinery() {
        let tk = translate(&parse_kernel(UNIFORM_LOOP).unwrap()).unwrap();
        let on = specialize(&tk, &SpecializeOptions::dynamic(4)).unwrap();
        // The loop back-edge is a direct CondBr, not a predicate-sum
        // switch.
        let body_switches = on
            .function
            .blocks
            .iter()
            .filter(|b| b.kind == BlockKind::Body)
            .filter(|b| matches!(b.term, Term::Switch { .. }))
            .count();
        assert_eq!(body_switches, 0, "{}", ir::print_function(&on.function));
        let has_condbr = on.function.blocks.iter().any(|b| matches!(b.term, Term::CondBr { .. }));
        assert!(has_condbr);
    }

    #[test]
    fn control_dependence_demotes_uniform_values() {
        // `x` is assigned constants on both arms of a tid-dependent
        // branch: data-flow-only analysis would call it uniform, but the
        // value differs per thread. The specialized kernel must keep it
        // per-thread (validated end-to-end by running it).
        let src = r#"
.kernel cdep (.param .u64 out) {
  .reg .u32 %r<6>;
  .reg .u64 %rd<3>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r0, %tid.x;
  and.b32 %r1, %r0, 1;
  setp.eq.u32 %p0, %r1, 0;
  @%p0 bra even;
  mov.u32 %r2, 111;
  bra join;
even:
  mov.u32 %r2, 222;
join:
  shl.u32 %r3, %r0, 2;
  cvt.u64.u32 %rd0, %r3;
  ld.param.u64 %rd1, [out];
  add.u64 %rd1, %rd1, %rd0;
  st.global.u32 [%rd1], %r2;
  ret;
}
"#;
        use crate::exec::ExecConfig;
        use crate::runtime::{Device, ParamValue};
        let dev = Device::new(dpvk_vm::MachineModel::sandybridge_sse(), 1 << 20);
        dev.register_source(src).unwrap();
        let po = dev.malloc(32 * 4).unwrap();
        dev.launch("cdep", [1, 1, 1], [32, 1, 1], &[ParamValue::Ptr(po)], &ExecConfig::dynamic(4))
            .unwrap();
        let got = dev.copy_u32_dtoh(po, 32).unwrap();
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, if i % 2 == 1 { 111 } else { 222 }, "thread {i}");
        }
    }

    #[test]
    fn uniform_stores_collapse() {
        // All threads store the same uniform value to the same address:
        // with the analysis this is one store per warp.
        let src = r#"
.kernel ustore (.param .u64 out, .param .u32 v) {
  .reg .u32 %r<3>;
  .reg .u64 %rd<3>;
entry:
  ld.param.u32 %r0, [v];
  ld.param.u64 %rd0, [out];
  st.global.u32 [%rd0], %r0;
  ret;
}
"#;
        let tk = translate(&parse_kernel(src).unwrap()).unwrap();
        let on = specialize(&tk, &SpecializeOptions::dynamic(4)).unwrap();
        let stores = on
            .function
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Store { space: ir::Space::Global, .. }))
            .count();
        assert_eq!(stores, 1, "{}", ir::print_function(&on.function));
    }
}
