//! The JIT's chunked templates must compute what the bytecode engine
//! computes, bit for bit.
//!
//! The bytecode engine funnels every lane through `scalar_bin` and its
//! siblings; generated code runs the same µop as xmm chunks of two
//! lanes, at native f32 width where the definition allows it. What could
//! differ is exactly what this file feeds it: NaN payloads and signs,
//! which operand's NaN wins, sNaN quieting, ±0, denormals, integer wrap
//! and sign at every width — for every templated `Bin`/`Un`/`Fma`/`Cmp`/
//! `Select` shape, each width in {1, 2, 4, 8}, and each operand as an
//! immediate, a scalar register (`Slot`) and a vector register
//! (`Lanes`). IR is built by hand (unverified: a scalar register in a
//! vector operation is something the decoder accepts and the verifier
//! does not), run as one warp on both engines, and the memory image and
//! every `ExecStats` field must be equal. Skipped where
//! `!jit_supported()`.
//!
//! The same holds for the templates that replaced helper calls: the f32
//! transcendentals (`dpvk::vm::approx`'s definition, over its edges and
//! the template's range limits) and the integer atomics (each operation,
//! type and space, lanes on one cell or on their own, and a lane that
//! faults).

use dpvk::ir::{
    AtomKind, BinOp, Block, BlockId, CmpPred, Function, Inst, STy, Space, Term, Type, UnOp, VReg,
    Value,
};
use dpvk::vm::{
    approx, execute_warp_bytecode, jit_compile, jit_supported, BytecodeProgram, CostInfo,
    ExecLimits, ExecStats, FrameLayout, GlobalMem, JitCta, MachineModel, MemAccess, RegFrame,
    ThreadContext, VmError, WarpOutcome, JIT_HOST_FEATURES,
};

const F32_EDGES: [u32; 18] = [
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x3F80_0000, // 1
    0xBF80_0000, // -1
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0x7FC0_1234, // +qNaN
    0xFFC0_0042, // -qNaN
    0x7F81_2345, // +sNaN
    0xFFA0_0001, // -sNaN
    0x0000_0001, // smallest denormal
    0x007F_FFFF, // largest denormal
    0x7F7F_FFFF, // f32::MAX
    0x0080_0000, // f32::MIN_POSITIVE
    0x3F80_0347, // 1.0001
    0x4040_0000, // 3
    0xC020_0000, // -2.5
    0x7FFF_FFFF, // +qNaN, every payload bit
];

const F64_EDGES: [u64; 18] = [
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x3FF0_0000_0000_0000,
    0xBFF0_0000_0000_0000,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    0x7FF8_0000_0000_1234, // +qNaN
    0xFFF8_0000_0004_2000, // -qNaN
    0x7FF0_0000_0001_2345, // +sNaN
    0xFFF4_0000_0000_0001, // -sNaN
    0x0000_0000_0000_0001, // smallest denormal
    0x000F_FFFF_FFFF_FFFF, // largest denormal
    0x47EF_FFFF_E000_0000, // f32::MAX
    0x3810_0000_0000_0000, // f32::MIN_POSITIVE
    0x3FF0_0068_DB8B_AC71, // 1.0001
    0x4008_0000_0000_0000, // 3
    0xC004_0000_0000_0000, // -2.5
    0x7FEF_FFFF_FFFF_FFFF, // f64::MAX
];

const INT_EDGES: [u64; 14] = [
    0,
    1,
    u64::MAX, // -1
    i32::MIN as u32 as u64,
    i32::MAX as u64,
    0xFFFF_FFFF,
    1 << 32,
    i64::MIN as u64,
    0x80,
    0x7F,
    0xFFFF,
    0x8000,
    31,
    i64::MAX as u64,
];

fn edges(sty: STy) -> Vec<u64> {
    match sty {
        STy::F32 => F32_EDGES.iter().map(|&b| b as u64).collect(),
        STy::F64 => F64_EDGES.to_vec(),
        _ => INT_EDGES.to_vec(),
    }
}

/// How an operand reaches the µop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Imm,
    Slot,
    Lanes,
}

const CMP_PREDS: [CmpPred; 6] =
    [CmpPred::Eq, CmpPred::Ne, CmpPred::Lt, CmpPred::Le, CmpPred::Gt, CmpPred::Ge];

/// One straight-line function over one element type and width. Edge
/// values are loaded from the head of global memory into scalar
/// registers and, rotated, into vector registers; every result lane is
/// stored to its own 8-byte cell after them.
struct Case {
    f: Function,
    blk: Block,
    sty: STy,
    w: u32,
    edges: Vec<u64>,
    /// Scalar register holding edge `k`.
    scalars: Vec<VReg>,
    /// Vector register whose lane `k` holds edge `r + k`.
    vectors: Vec<VReg>,
    /// First cell and description of every observed operation.
    ops: Vec<(usize, String)>,
    cells: usize,
    /// Whether µops without a template were added on purpose.
    helpers: bool,
    /// Cells whose value is known in advance: (cell, bits).
    pinned: Vec<(usize, u64)>,
}

impl Case {
    fn new(sty: STy, w: u32) -> Case {
        Case::with_edges(sty, w, edges(sty))
    }

    fn with_edges(sty: STy, w: u32, edges: Vec<u64>) -> Case {
        let mut c = Case {
            f: Function::new(format!("lanes_{sty}_w{w}"), w),
            blk: Block::new("entry"),
            sty,
            w,
            scalars: Vec::new(),
            vectors: Vec::new(),
            ops: Vec::new(),
            cells: edges.len(),
            edges,
            helpers: false,
            pinned: Vec::new(),
        };
        for k in 0..c.edges.len() {
            let dst = c.f.new_reg(Type::scalar(sty));
            c.blk.insts.push(Inst::Load {
                ty: sty,
                space: Space::Global,
                dst,
                addr: Value::ImmI(8 * k as i64),
            });
            c.scalars.push(dst);
        }
        if w > 1 {
            for r in 0..c.edges.len() {
                let v = c.f.new_reg(c.ty());
                c.insert_lanes(v, r);
                c.vectors.push(v);
            }
        }
        c
    }

    fn ty(&self) -> Type {
        self.ty_of(self.sty)
    }

    fn ty_of(&self, sty: STy) -> Type {
        if self.w == 1 {
            Type::scalar(sty)
        } else {
            Type::vector(sty, self.w)
        }
    }

    fn edge(&self, r: usize) -> u64 {
        self.edges[r % self.edges.len()]
    }

    /// Fill `v` lane by lane with edges `r..`, one scalar `Insert` per
    /// lane: the first copies a zero vector in, the rest are in place.
    fn insert_lanes(&mut self, v: VReg, r: usize) {
        let zero = if self.sty.is_float() { Value::ImmF(0.0) } else { Value::ImmI(0) };
        for k in 0..self.w {
            self.blk.insts.push(Inst::Insert {
                ty: self.ty(),
                dst: v,
                vec: if k == 0 { zero } else { Value::Reg(v) },
                elem: Value::Reg(self.scalars[(r + k as usize) % self.edges.len()]),
                lane: k,
            });
        }
    }

    /// Edge `r` (and, in a vector register, its successors) as an
    /// operand of the given kind.
    fn operand(&self, kind: Kind, r: usize) -> Value {
        let r = r % self.edges.len();
        match kind {
            Kind::Lanes => Value::Reg(self.vectors[r]),
            Kind::Slot => Value::Reg(self.scalars[r]),
            Kind::Imm => match self.sty {
                STy::F32 => Value::ImmF(f32::from_bits(self.edge(r) as u32) as f64),
                STy::F64 => Value::ImmF(f64::from_bits(self.edge(r))),
                _ => Value::ImmI(self.edge(r) as i64),
            },
        }
    }

    /// Store every lane's slot of `reg` (of element type `sty`, `lanes`
    /// wide) to fresh cells.
    fn observe(&mut self, what: String, reg: VReg, sty: STy, lanes: u32) {
        self.ops.push((self.cells, what));
        for k in 0..lanes {
            let value = if lanes == 1 {
                reg
            } else {
                let dst = self.f.new_reg(Type::scalar(sty));
                self.blk.insts.push(Inst::Extract {
                    ty: Type::vector(sty, lanes),
                    dst,
                    vec: Value::Reg(reg),
                    lane: k,
                });
                dst
            };
            // All 64 bits of the slot, not `sty`'s: what a template left
            // above a narrow lane is the next template's input.
            self.blk.insts.push(Inst::Store {
                ty: STy::I64,
                space: Space::Global,
                addr: Value::ImmI(8 * self.cells as i64),
                value: Value::Reg(value),
            });
            self.cells += 1;
        }
    }

    /// Emit `make(dst)` into a fresh register of element type `result`
    /// and observe it.
    fn emit(&mut self, what: String, result: STy, make: impl FnOnce(VReg) -> Inst) {
        let dst = self.f.new_reg(self.ty_of(result));
        self.blk.insts.push(make(dst));
        self.observe(what, dst, result, self.w);
    }

    fn kinds(&self) -> &'static [Kind] {
        if self.w == 1 {
            &[Kind::Imm, Kind::Slot]
        } else {
            &[Kind::Imm, Kind::Slot, Kind::Lanes]
        }
    }

    /// Operand index pairs for a two-operand shape: every ordered pair
    /// of edges when both operands are vector registers (both NaN-vs-NaN
    /// orders included), one sweep otherwise — the kind only changes how
    /// a lane is loaded, not what is computed on it.
    fn pairs(&self, ka: Kind, kb: Kind) -> Vec<(usize, usize)> {
        let n = self.edges.len();
        if (ka, kb) == (Kind::Lanes, Kind::Lanes) {
            let step = self.w as usize;
            (0..n).flat_map(|d| (0..n).step_by(step).map(move |ra| (ra, ra + d))).collect()
        } else if self.w == 1 {
            (0..n).flat_map(|ra| (0..n).map(move |rb| (ra, rb))).collect()
        } else {
            (0..n).map(|ra| (ra, ra * 5 + 3)).collect()
        }
    }

    /// One two-operand shape over every operand-kind pair and
    /// [`Self::pairs`] of each.
    fn pairwise(&mut self, tag: String, result: STy, make: impl Fn(VReg, Value, Value) -> Inst) {
        for &ka in self.kinds() {
            for &kb in self.kinds() {
                for (ra, rb) in self.pairs(ka, kb) {
                    let (a, b) = (self.operand(ka, ra), self.operand(kb, rb));
                    let what = format!("{tag} {ka:?}[{ra}] {kb:?}[{rb}]");
                    self.emit(what, result, |dst| make(dst, a, b));
                }
            }
        }
    }

    fn bins(&mut self, op: BinOp, signed: bool) {
        let ty = self.ty();
        self.pairwise(format!("{op:?} s={signed}"), self.sty, |dst, a, b| Inst::Bin {
            op,
            ty,
            signed,
            dst,
            a,
            b,
        });
    }

    fn cmps(&mut self, pred: CmpPred, signed: bool) {
        let ty = self.ty();
        self.pairwise(format!("{pred:?} s={signed}"), STy::I1, |dst, a, b| Inst::Cmp {
            pred,
            ty,
            signed,
            dst,
            a,
            b,
        });
    }

    fn uns(&mut self, op: UnOp) {
        let ty = self.ty();
        for &ka in self.kinds() {
            for ra in 0..self.edges.len() {
                let a = self.operand(ka, ra);
                self.emit(format!("{op:?} {ka:?}[{ra}]"), self.sty, |dst| Inst::Un {
                    op,
                    ty,
                    dst,
                    a,
                });
            }
        }
    }

    /// One observed `a * b + c`, `a` holding what `operand(ka, ra)` does.
    fn fma(&mut self, a: Value, (ka, ra): (Kind, usize), (kb, rb): (Kind, usize), c: Value) {
        let (ty, b) = (self.ty(), self.operand(kb, rb));
        let what = format!("Fma {a:?}={ka:?}[{ra}] {kb:?}[{rb}] {c:?}");
        self.emit(what, self.sty, |dst| Inst::Fma { ty, dst, a, b, c });
    }

    fn fmas(&mut self) {
        let n = self.edges.len();
        for &ka in self.kinds() {
            for &kb in self.kinds() {
                for &kc in self.kinds() {
                    // All-register triples sweep every (a, b) pair — a
                    // NaN in either multiplicand against a NaN addend
                    // included.
                    let all = [ka, kb, kc].iter().all(|&k| k != Kind::Imm);
                    let triples: Vec<_> = if all {
                        self.pairs(Kind::Lanes, Kind::Lanes)
                            .into_iter()
                            .map(|(ra, rb)| (ra, rb, ra * 3 + rb + 1))
                            .collect()
                    } else {
                        (0..n).map(|ra| (ra, ra * 5 + 3, ra * 7 + 6)).collect()
                    };
                    for (ra, rb, rc) in triples {
                        let (a, c) = (self.operand(ka, ra), self.operand(kc, rc));
                        self.fma(a, (ka, ra), (kb, rb), c);
                    }
                }
            }
        }
    }

    /// `Select` over a condition computed right before it, so the
    /// condition is an I1 vector of both values.
    fn selects(&mut self) {
        let ty = self.ty();
        for &ka in self.kinds() {
            for &kb in self.kinds() {
                for ra in 0..self.edges.len() {
                    let (a, b) = (self.operand(ka, ra), self.operand(kb, ra + 1));
                    let cond = self.f.new_reg(self.ty_of(STy::I1));
                    self.blk.insts.push(Inst::Cmp {
                        pred: CmpPred::Lt,
                        ty,
                        signed: true,
                        dst: cond,
                        a: self.operand(self.kinds()[self.kinds().len() - 1], ra),
                        b: self.operand(Kind::Slot, 2),
                    });
                    for cond in [Value::Reg(cond), Value::ImmI(1), Value::ImmI(0)] {
                        let what = format!("Select {cond:?} {ka:?}[{ra}] {kb:?}[{}]", ra + 1);
                        self.emit(what, self.sty, |dst| Inst::Select { ty, dst, cond, a, b });
                    }
                }
            }
        }
    }

    /// `dst` aliasing each source, and both: the operands are copies a
    /// `Mov` made, overwritten by the operation.
    fn aliased(&mut self, op: BinOp) {
        let ty = self.ty();
        let kind = *self.kinds().last().expect("kinds");
        for ra in 0..self.edges.len() {
            let rb = ra * 5 + 3;
            for alias in 0..3 {
                let (a, b) = (self.operand(kind, ra), self.operand(kind, rb));
                let t = self.f.new_reg(ty);
                let from = if alias == 1 { b } else { a };
                self.blk.insts.push(Inst::Mov { ty, dst: t, a: from });
                let t_val = Value::Reg(t);
                let (a, b) = match alias {
                    0 => (t_val, b),
                    1 => (a, t_val),
                    _ => (t_val, t_val),
                };
                self.blk.insts.push(Inst::Bin { op, ty, signed: true, dst: t, a, b });
                self.observe(format!("{op:?} alias {alias} [{ra}] [{rb}]"), t, self.sty, self.w);
            }
        }
    }

    /// The store-forwarding shape: a vector operand whose lanes were
    /// written by scalar `Insert`s immediately before the operation
    /// that loads it — correct, not just fast.
    fn fresh_inserts(&mut self, op: BinOp) {
        if self.w == 1 {
            return;
        }
        let ty = self.ty();
        let v = self.f.new_reg(ty);
        for ra in 0..self.edges.len() {
            self.insert_lanes(v, ra);
            let (a, b) = (Value::Reg(v), self.operand(Kind::Lanes, ra * 5 + 3));
            self.fma(a, (Kind::Lanes, ra), (Kind::Lanes, ra * 5 + 3), a);
            self.insert_lanes(v, ra);
            self.emit(format!("{op:?} after inserts [{ra}]"), self.sty, |dst| Inst::Bin {
                op,
                ty,
                signed: false,
                dst,
                a,
                b,
            });
        }
    }

    /// A scalar operation whose destination register is declared as a
    /// vector: the result broadcast-fills all its slots.
    fn scalar_into_vector(&mut self, op: BinOp) {
        let (sty, n) = (self.sty, self.edges.len());
        for lanes in [2, 3, 4, 8] {
            for ra in 0..n {
                let dst = self.f.new_reg(Type::vector(sty, lanes));
                self.blk.insts.push(Inst::Bin {
                    op,
                    ty: Type::scalar(sty),
                    signed: false,
                    dst,
                    a: self.operand(Kind::Slot, ra),
                    b: self.operand(Kind::Slot, ra + 1),
                });
                self.observe(format!("scalar {op:?} [{ra}] into v{lanes}"), dst, sty, lanes);
            }
        }
    }

    /// `dst = a op b` at the case's type into a fresh register.
    fn bin(&mut self, op: BinOp, a: Value, b: Value) -> VReg {
        let (ty, dst) = (self.ty(), self.f.new_reg(self.ty()));
        self.blk.insts.push(Inst::Bin { op, ty, signed: true, dst, a, b });
        dst
    }

    /// Chains that lean on a value staying in a register from one µop
    /// to a later one of the same block: each reads a value that an
    /// earlier µop left resident, after whatever must have invalidated
    /// or reloaded it. The last one reads it again in the next block.
    fn residency(&mut self) {
        let (ty, sty, w) = (self.ty(), self.sty, self.w);
        let float = sty.is_float();
        let op = if float { BinOp::Add } else { BinOp::Xor };
        let kind = *self.kinds().last().expect("kinds");
        let reg = |v: VReg| Value::Reg(v);
        for r in 0..self.edges.len() {
            let (x, y) = (self.operand(kind, r), self.operand(kind, r * 5 + 3));
            let (s, s2) = (self.operand(Kind::Slot, r + 1), self.operand(Kind::Slot, r + 2));

            // A result consumed by the next µop; for floats, then read
            // as f64 (an f32 lane widens from its slot-layout register),
            // with `x` and the scalar `s` read in slot form first.
            let t = self.bin(op, x, s);
            let u = self.bin(BinOp::Mul, reg(t), x);
            self.observe(format!("chain [{r}]"), u, sty, w);
            if float {
                let v = self.f.new_reg(ty);
                self.blk.insts.push(Inst::Fma { ty, dst: v, a: x, b: s, c: reg(t) });
                self.observe(format!("chain fma [{r}]"), v, sty, w);
            }

            // `dst` aliasing a resident operand: a copy (resident), then
            // an operation overwriting it, then a read of the new value.
            let t = self.f.new_reg(ty);
            self.blk.insts.push(Inst::Mov { ty, dst: t, a: x });
            self.blk.insts.push(Inst::Bin { op, ty, signed: true, dst: t, a: reg(t), b: y });
            if float {
                self.blk.insts.push(Inst::Fma { ty, dst: t, a: reg(t), b: s, c: reg(t) });
            }
            let u = self.bin(BinOp::Mul, reg(t), y);
            self.observe(format!("alias [{r}]"), u, sty, w);

            // `Insert` overwriting one lane of a resident vector.
            if w > 1 {
                let t = self.bin(op, x, y);
                let elem = Value::Reg(self.scalars[(r + 4) % self.edges.len()]);
                let lane = r as u32 % w;
                self.blk.insts.push(Inst::Insert { ty, dst: t, vec: reg(t), elem, lane });
                let u = self.bin(op, reg(t), x);
                self.observe(format!("insert lane {lane} [{r}]"), u, sty, w);
            }

            // A broadcast fill over a resident range: a four-slot
            // register copied from a scalar (resident chunks), then a
            // scalar result broadcast over it, then a vector read.
            let v4 = Type::vector(sty, 4);
            let (t, u) = (self.f.new_reg(v4), self.f.new_reg(v4));
            self.blk.insts.push(Inst::Mov { ty: v4, dst: t, a: s });
            let scalar = Type::scalar(sty);
            self.blk.insts.push(Inst::Bin { op, ty: scalar, signed: true, dst: t, a: s, b: s2 });
            self.blk.insts.push(Inst::Bin { op, ty: v4, signed: true, dst: u, a: reg(t), b: s });
            self.observe(format!("broadcast fill [{r}]"), u, sty, 4);

            // A helper-only µop writing a resident slot: the call
            // clobbers every xmm register and writes the frame.
            let t = self.f.new_reg(ty);
            self.blk.insts.push(Inst::Mov { ty, dst: t, a: x });
            let what = if float {
                let (a, b) = (reg(t), y);
                self.blk.insts.push(Inst::Bin { op: BinOp::Min, ty, signed: true, dst: t, a, b });
                self.blk.insts.push(Inst::Un { op: UnOp::Sin, ty, dst: t, a: reg(t) });
                "min, sin"
            } else {
                let (a, b) = (reg(t), Value::ImmI(3));
                self.blk.insts.push(Inst::Bin { op: BinOp::Div, ty, signed: true, dst: t, a, b });
                "div"
            };
            self.helpers = true;
            let u = self.f.new_reg(ty);
            self.blk.insts.push(Inst::Mov { ty, dst: u, a: reg(t) });
            let v = self.bin(op, reg(u), x);
            self.observe(format!("after {what} [{r}]"), v, sty, w);

            // A float → integer convert whose NaN/overflow lanes take
            // the out-of-line helper, which clobbers every xmm register:
            // the registers it reloads are read right after it.
            if float {
                let t = self.bin(op, x, s);
                let c = self.f.new_reg(self.ty_of(STy::I32));
                let cvt =
                    Inst::Cvt { to: STy::I32, from: sty, signed: true, width: w, dst: c, a: y };
                self.blk.insts.push(cvt);
                let u = self.bin(BinOp::Mul, reg(t), x);
                self.observe(format!("cvt [{r}]"), c, STy::I32, w);
                self.observe(format!("after cvt [{r}]"), u, sty, w);
            }
        }

        // A resident value read again after a `CmpBr` into another
        // block, where nothing is resident any more. The branch is
        // always taken, past a block that is emitted in between and
        // leaves values in registers the taken path never set.
        let (x, y) = (self.operand(kind, 1), self.operand(kind, 2));
        let t = self.bin(op, x, y);
        let cond = self.f.new_reg(Type::scalar(STy::I1));
        let zero = self.operand(Kind::Slot, 0);
        let cmp = Inst::Cmp {
            pred: CmpPred::Eq,
            ty: Type::scalar(sty),
            signed: true,
            dst: cond,
            a: zero,
            b: zero,
        };
        self.blk.insts.push(cmp);
        let skipped = BlockId(self.f.blocks.len() as u32 + 1);
        let join = BlockId(skipped.0 + 1);
        self.blk.term = Term::CondBr { cond: reg(cond), taken: join, fall: skipped };
        let done = std::mem::replace(&mut self.blk, Block::new("skipped"));
        self.f.add_block(done);
        let v = self.bin(op, x, y);
        self.blk.term = Term::Br(join);
        let done = std::mem::replace(&mut self.blk, Block::new("join"));
        self.f.add_block(done);
        let u = self.bin(BinOp::Mul, reg(t), x);
        self.observe("after CmpBr".into(), u, sty, w);
        let u = self.bin(BinOp::Mul, reg(v), y);
        self.observe("unset on the taken path".into(), u, sty, w);
    }

    /// Run the finished function as one warp on both engines.
    fn check(mut self) {
        self.blk.term = Term::Ret;
        self.f.add_block(self.blk);
        let model = MachineModel::sandybridge_sse();
        let info = CostInfo::analyze(&self.f, &model);
        let program = BytecodeProgram::decode(&self.f, &FrameLayout::of(&self.f), &model, &info);
        let run = |jit: bool| {
            let global = GlobalMem::new(8 * self.cells);
            for (k, &e) in self.edges.iter().enumerate() {
                global.write::<8>(8 * k as u64, e.to_le_bytes()).unwrap();
            }
            let mut ctxs: Vec<ThreadContext> = (0..self.w)
                .map(|i| ThreadContext::new([i, 0, 0], [self.w, 1, 1], [0; 3], [1, 1, 1]))
                .collect();
            let (mut shared, mut local) = (Vec::new(), Vec::new());
            let mem = MemAccess {
                global: &global,
                shared: &mut shared,
                local: &mut local,
                param: &[],
                cbank: &[],
            };
            let (mut stats, mut frame) = (ExecStats::default(), RegFrame::new());
            let limits = ExecLimits::default();
            if jit {
                let native = jit_compile(&program).expect("a jit_supported() host compiles");
                let emitted = native.emit_stats();
                if !self.helpers {
                    assert_eq!(
                        emitted.helper_uops, 0,
                        "{}: a shape left its template",
                        self.f.name
                    );
                }
                JitCta::new(mem, &limits, None)
                    .execute_warp(Some(&native), &program, &mut frame, &mut ctxs, 0, &mut stats)
                    .unwrap();
            } else {
                let mut mem = mem;
                execute_warp_bytecode(
                    &program, &mut frame, &mut ctxs, 0, &mut mem, &mut stats, &limits, None,
                )
                .unwrap();
            }
            let mut image = vec![0u8; 8 * self.cells];
            global.copy_out(0, &mut image).unwrap();
            (image, stats)
        };
        let (expected, expected_stats) = run(false);
        let (got, got_stats) = run(true);
        for (i, (first, what)) in self.ops.iter().enumerate() {
            let end = self.ops.get(i + 1).map_or(self.cells, |next| next.0);
            let cells = 8 * first..8 * end;
            assert_eq!(
                got[cells.clone()],
                expected[cells],
                "{}: {what}: jit (left) vs bytecode (right), edges {:x?}",
                self.f.name,
                self.edges
            );
        }
        assert_eq!(got_stats, expected_stats, "{}", self.f.name);
        for (cell, want) in self.pinned {
            let bits = u64::from_le_bytes(expected[8 * cell..8 * cell + 8].try_into().unwrap());
            assert_eq!(bits, want, "{}: cell {cell}: got {bits:#x}, want {want:#x}", self.f.name);
        }
    }
}

const WIDTHS: [u32; 4] = [1, 2, 4, 8];

fn skip() -> bool {
    if !jit_supported() {
        eprintln!("skipped: the JIT needs {JIT_HOST_FEATURES:?} and executable memory");
    }
    !jit_supported()
}

#[test]
fn float_shapes_match_the_bytecode_engine_bit_for_bit() {
    if skip() {
        return;
    }
    for sty in [STy::F32, STy::F64] {
        for w in WIDTHS {
            let mut c = Case::new(sty, w);
            let arith = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];
            for op in arith.into_iter().chain([BinOp::And, BinOp::Or, BinOp::Xor]) {
                c.bins(op, false);
            }
            for op in [UnOp::Neg, UnOp::Abs, UnOp::Sqrt, UnOp::Rsqrt, UnOp::Rcp] {
                c.uns(op);
            }
            for pred in CMP_PREDS {
                c.cmps(pred, false);
            }
            c.fmas();
            c.selects();
            for op in arith {
                c.aliased(op);
                c.fresh_inserts(op);
                c.scalar_into_vector(op);
            }
            c.check();
        }
    }
}

/// Values that stay in registers within a block — read again by a later
/// µop, overwritten in place, partially overwritten, broadcast over,
/// written by a helper, reloaded after a slow site, read across a block
/// boundary — must still read what the frame holds.
#[test]
fn resident_values_match_the_bytecode_engine_bit_for_bit() {
    if skip() {
        return;
    }
    for sty in [STy::F32, STy::F64, STy::I32, STy::I64, STy::I8] {
        for w in WIDTHS {
            let mut c = Case::new(sty, w);
            c.residency();
            c.check();
        }
    }
}

#[test]
fn integer_shapes_match_the_bytecode_engine_bit_for_bit() {
    if skip() {
        return;
    }
    let ops = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Min,
        BinOp::Max,
    ];
    for sty in [STy::I1, STy::I8, STy::I16, STy::I32, STy::I64] {
        for w in WIDTHS {
            let mut c = Case::new(sty, w);
            for signed in [false, true] {
                for op in ops {
                    c.bins(op, signed);
                }
                for pred in CMP_PREDS {
                    c.cmps(pred, signed);
                }
            }
            for op in [UnOp::Neg, UnOp::Not, UnOp::Abs] {
                c.uns(op);
            }
            c.fmas();
            c.selects();
            for op in [BinOp::Add, BinOp::Mul, BinOp::Min] {
                c.aliased(op);
                c.fresh_inserts(op);
                c.scalar_into_vector(op);
            }
            c.check();
        }
    }
}

/// Inputs of the f32 transcendentals: the float edges, then where the
/// definition or the template changes course — f32 subnormals, the
/// `sin`/`cos` template's bound `2^16` and its neighbours, `ex2`'s
/// overflow and underflow, `lg2` of zeros, negatives and powers of two,
/// and `mriq`'s phase range.
const TRANSCENDENTAL_EDGES: [u32; 30] = [
    0x0000_0001, // smallest subnormal
    0x8040_0000, // -subnormal
    0x4780_0000, // 65536 = 2^16, the template's bound
    0x4780_0001, // 2^16 + 1 ulp: the slow site
    0x477F_FFFF, // 2^16 - 1 ulp
    0xC780_0001, // -(2^16 + 1 ulp)
    0x42FF_FFFF, // 127.99999
    0x4300_0000, // 128: ex2 overflows
    0xC2FC_0000, // -126: ex2's last normal
    0xC315_0000, // -149: ex2's last subnormal
    0xC315_8000, // -149.5
    0xC316_0000, // -150: ex2 underflows to 0
    0x4348_8000, // 200.5: past ex2's clamp
    0xC348_8000, // -200.5
    0x3F00_0000, // 0.5
    0x4B00_0000, // 2^23
    0x0080_0000, // 2^-126
    0x4198_0000, // 19
    0xC196_0000, // -18.75
    0x3FC9_0FDB, // π/2
    0x4049_0FDB, // π
    0x3F35_04F3, // √½
    0x3FB5_04F3, // √2
    0x3F80_0001, // 1 + 1 ulp
    0x3F7F_FFFF, // 1 - 1 ulp
    0x4CBE_BC20, // 1e8
    0x7149_F2CA, // 1e30
    0xD0CE_6B28, // -2.77e10
    0x3456_BF95, // 2e-7
    0xBF80_0000, // -1
];

/// Inputs whose f64 result lies within a few f64 ulps of an f32
/// rounding midpoint, found by searching every f32 input of each
/// template's domain (`sin`, `cos`, `ex2`, `lg2` in turn): their f32
/// result turns on the last bits of the evaluation, so a template that
/// computes anything but `approx`'s operations in `approx`'s order
/// shows here.
const NEAR_TIES: [u32; 26] = [
    0xC619_9998,
    0x4371_ADE3,
    0x3EF3_830F,
    0x45A8_ABB3,
    0x3DCF_5597,
    0xC2D4_4528,
    0x3D06_50EA,
    0x3A12_85FF,
    0x3980_0000,
    0x3C10_7FE6,
    0x4247_90CE,
    0x3A54_4395,
    0x3A0F_1BBD,
    0x3E5F_A70E,
    0xB52D_1F9A,
    0x3B42_9D37,
    0xBCF3_A937,
    0x3A07_857C,
    0xB8D3_D026,
    0xBAEC_2B40,
    0x3C02_A9AD,
    0xBE1F_29DE,
    0x4020_7AB9,
    0x5F91_4A90,
    0x6491_4A90,
    0x3FED_DFFD,
];

/// Every f32 transcendental at every width over the float edges,
/// [`TRANSCENDENTAL_EDGES`] and [`NEAR_TIES`]: the templates within
/// their domain, the slow site beyond it, on every operand kind.
#[test]
fn transcendentals_match_the_bytecode_engine_bit_for_bit() {
    if skip() {
        return;
    }
    let inputs: Vec<u64> = F32_EDGES
        .iter()
        .chain(&TRANSCENDENTAL_EDGES)
        .chain(&NEAR_TIES)
        .map(|&b| b as u64)
        .collect();
    for w in WIDTHS {
        let mut c = Case::with_edges(STy::F32, w, inputs.clone());
        for op in [UnOp::Sin, UnOp::Cos, UnOp::Ex2, UnOp::Lg2] {
            c.uns(op);
        }
        c.check();
    }
}

/// What the definition promises exactly, as every engine computes it.
#[test]
fn transcendental_known_answers() {
    let pow2 =
        |k: i32| f32::from_bits(if k < -126 { 1 << (k + 149) } else { ((k + 127) as u32) << 23 });
    let table: [(F32Op, f32, u32); 16] = [
        (approx::sin, 0.0, 0x0000_0000),
        (approx::sin, -0.0, 0x8000_0000),
        (approx::cos, 0.0, 0x3F80_0000),
        (approx::cos, -0.0, 0x3F80_0000),
        (approx::ex2, 0.0, 0x3F80_0000),
        (approx::ex2, 10.0, 0x4480_0000),
        (approx::ex2, -149.0, 0x0000_0001),
        (approx::ex2, -150.0, 0x0000_0000),
        (approx::ex2, 128.0, 0x7F80_0000),
        (approx::ex2, f32::NEG_INFINITY, 0x0000_0000),
        (approx::lg2, 1.0, 0x0000_0000),
        (approx::lg2, 0.0, 0xFF80_0000),
        (approx::lg2, -0.0, 0xFF80_0000),
        (approx::lg2, f32::INFINITY, 0x7F80_0000),
        (approx::lg2, 1024.0, 0x4120_0000),
        (approx::lg2, f32::from_bits(1), 0xC315_0000),
    ];
    for (f, x, want) in table {
        assert_eq!(f(x).to_bits(), want, "{x:e}");
    }
    for k in -149..128 {
        assert_eq!(approx::ex2(k as f32), pow2(k), "ex2({k})");
        assert_eq!(approx::lg2(pow2(k)), k as f32, "lg2(2^{k})");
    }
    for x in [f32::NAN, -1.0, f32::NEG_INFINITY] {
        assert!(approx::lg2(x).is_nan(), "lg2({x})");
    }
    for x in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        assert!(approx::sin(x).is_nan() && approx::cos(x).is_nan(), "sin/cos({x})");
    }
    // A NaN input comes back quieted with its sign and payload.
    for f in [approx::sin, approx::cos, approx::ex2, approx::lg2] {
        assert_eq!(f(f32::from_bits(0xFF81_2345)).to_bits(), 0xFFC1_2345);
    }
}

/// One of `approx`'s f32 functions, and the host library's f64 twin.
type F32Op = fn(f32) -> f32;
type HostOp = fn(f64) -> f64;

/// Units in the last place between two f32 of one sign.
fn ulps(a: f32, b: f32) -> u32 {
    (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs() as u32
}

/// A stride sweep over f32 bit patterns: the JIT template, the bytecode
/// engine and `approx` agree exactly on every input, and `approx` agrees
/// with the host library (f64, narrowed) — the definition it replaced —
/// on at least 99.9 % of them and within one ulp on all (for `sin` and
/// `cos`, within the template's bound). Prints the agreement.
#[test]
#[ignore = "a sweep of 2^32 / 509 inputs per function; CI runs it in release"]
fn transcendental_sweep_matches_the_definition_and_the_host_library() {
    const STRIDE: u32 = 509;
    let inputs: Vec<u32> = (0..=u32::MAX / STRIDE).map(|k| k * STRIDE).collect();
    let ops: [(UnOp, F32Op, HostOp); 4] = [
        (UnOp::Sin, approx::sin, f64::sin),
        (UnOp::Cos, approx::cos, f64::cos),
        (UnOp::Ex2, approx::ex2, f64::exp2),
        (UnOp::Lg2, approx::lg2, f64::log2),
    ];
    for (op, def, host) in ops {
        let want: Vec<u32> = inputs.iter().map(|&b| def(f32::from_bits(b)).to_bits()).collect();
        if jit_supported() {
            for jit in [false, true] {
                let got = sweep_engine(op, &inputs, jit);
                if let Some(k) = (0..inputs.len()).find(|&k| got[k] != want[k]) {
                    let x = f32::from_bits(inputs[k]);
                    panic!(
                        "{op:?}({x:e}): engine (jit {jit}) {:#x}, approx {:#x}",
                        got[k], want[k]
                    );
                }
            }
        }
        let (mut equal, mut worst) = (0usize, 0u32);
        for (&bits, &got) in inputs.iter().zip(&want) {
            let (x, got) = (f32::from_bits(bits), f32::from_bits(got));
            let host = host(x as f64) as f32;
            if got.to_bits() == host.to_bits() || (got.is_nan() && host.is_nan()) {
                equal += 1;
            } else if op == UnOp::Ex2 || op == UnOp::Lg2 || x.abs() <= 65536.0 {
                worst = worst.max(ulps(got, host));
            }
        }
        let share = equal as f64 / inputs.len() as f64;
        println!(
            "{op:?}: {equal} of {} inputs equal to the host library ({:.5} %), worst {worst} ulp",
            inputs.len(),
            100.0 * share
        );
        assert!(share >= 0.999, "{op:?}: {share}");
        assert!(worst <= 1, "{op:?}: {worst} ulp");
    }
}

/// The result bits of `op` over `inputs` on one engine, eight at a time
/// as one `w8` vector µop.
fn sweep_engine(op: UnOp, inputs: &[u32], jit: bool) -> Vec<u32> {
    const LANES: u32 = 8;
    let ty = Type::vector(STy::F32, LANES);
    let mut f = Function::new("sweep", LANES);
    let mut b = Block::new("entry");
    let (x, y) = (f.new_reg(ty), f.new_reg(ty));
    // Lane k reads global word k and writes word LANES + k.
    for k in 0..LANES {
        let s = f.new_reg(Type::scalar(STy::F32));
        let addr = Value::ImmI(4 * k as i64);
        b.insts.push(Inst::Load { ty: STy::F32, space: Space::Global, dst: s, addr });
        let vec = if k == 0 { Value::ImmF(0.0) } else { Value::Reg(x) };
        b.insts.push(Inst::Insert { ty, dst: x, vec, elem: Value::Reg(s), lane: k });
    }
    b.insts.push(Inst::Un { op, ty, dst: y, a: Value::Reg(x) });
    for k in 0..LANES {
        let s = f.new_reg(Type::scalar(STy::F32));
        b.insts.push(Inst::Extract { ty, dst: s, vec: Value::Reg(y), lane: k });
        let addr = Value::ImmI(4 * (LANES + k) as i64);
        b.insts.push(Inst::Store {
            ty: STy::F32,
            space: Space::Global,
            addr,
            value: Value::Reg(s),
        });
    }
    f.add_block(b);
    let model = MachineModel::sandybridge_sse();
    let info = CostInfo::analyze(&f, &model);
    let program = BytecodeProgram::decode(&f, &FrameLayout::of(&f), &model, &info);
    let native = jit_compile(&program).expect("a jit_supported() host compiles");
    assert_eq!(native.emit_stats().helper_uops, 0, "{op:?} left its template");
    let limits = ExecLimits::default();
    let global = GlobalMem::new(8 * LANES as usize);
    let mut out = Vec::with_capacity(inputs.len());
    for chunk in inputs.chunks(LANES as usize) {
        for k in 0..LANES as usize {
            let v = chunk.get(k).copied().unwrap_or(0);
            global.write::<4>(4 * k as u64, v.to_le_bytes()).unwrap();
        }
        let mut ctxs: Vec<ThreadContext> = (0..LANES)
            .map(|i| ThreadContext::new([i, 0, 0], [LANES, 1, 1], [0; 3], [1, 1, 1]))
            .collect();
        let (mut shared, mut local) = (Vec::new(), Vec::new());
        let mut mem = MemAccess {
            global: &global,
            shared: &mut shared,
            local: &mut local,
            param: &[],
            cbank: &[],
        };
        let (mut stats, mut frame) = (ExecStats::default(), RegFrame::new());
        if jit {
            JitCta::new(mem, &limits, None)
                .execute_warp(Some(&native), &program, &mut frame, &mut ctxs, 0, &mut stats)
                .unwrap();
        } else {
            execute_warp_bytecode(
                &program, &mut frame, &mut ctxs, 0, &mut mem, &mut stats, &limits, None,
            )
            .unwrap();
        }
        for k in 0..chunk.len() as u64 {
            out.push(u32::from_le_bytes(global.read::<4>(4 * (LANES as u64 + k)).unwrap()));
        }
    }
    out
}

/// The `fma` known answer: `a·b = 1 + 2^-11 + 2^-24`
/// lies on an f32 tie, and `c = 2^-80` breaks it upward. Rounded once,
/// `0x3f801001`; through f64 the `c` is lost and the tie goes to even,
/// `0x3f801000`. And which NaN wins: `a`'s, then `b`'s, then `c`'s,
/// quieted.
#[test]
fn fma_rounds_once_and_prefers_the_first_nan() {
    if skip() {
        return;
    }
    let cases: [([u32; 3], u32); 6] = [
        ([0x3F80_0800, 0x3F80_0800, 0x1780_0000], 0x3F80_1001),
        ([0x7F81_2345, 0xFFC0_0042, 0x7FC0_1234], 0x7FC1_2345),
        ([0x3F80_0000, 0xFFA0_0001, 0x7FC0_1234], 0xFFE0_0001),
        ([0x3F80_0000, 0x4040_0000, 0x7F81_2345], 0x7FC1_2345),
        ([0xFFC0_0042, 0x7F81_2345, 0x3F80_0000], 0xFFC0_0042),
        ([0x4040_0000, 0x7FC0_0007, 0xFF81_0000], 0x7FC0_0007),
    ];
    for w in WIDTHS {
        let inputs: Vec<u64> = cases.iter().flat_map(|(abc, _)| abc.map(|v| v as u64)).collect();
        let mut c = Case::with_edges(STy::F32, w, inputs);
        let ty = c.ty();
        for (k, (_, want)) in cases.iter().enumerate() {
            let kinds: &[Kind] = if w == 1 { &[Kind::Slot] } else { &[Kind::Slot, Kind::Lanes] };
            for &kind in kinds {
                // `Lanes` operands rotate: lane 0 holds the case, the
                // others the cases after it.
                let [a, b, cc] = [0, 1, 2].map(|i| c.operand(kind, 3 * k + i));
                let dst = c.f.new_reg(ty);
                c.blk.insts.push(Inst::Fma { ty, dst, a, b, c: cc });
                let cell = c.cells;
                c.observe(format!("fma case {k} {kind:?}"), dst, STy::F32, w);
                c.ops.last_mut().unwrap().1 += &format!(" want {want:#x}");
                c.pinned.push((cell, *want as u64));
            }
        }
        c.check();
    }
}

/// Global memory of an atomics case: the operand table, then the cells
/// the atomics update, then one output cell per lane.
const ATOM_TABLE: usize = 16;
const ATOM_CELLS: u64 = 8 * ATOM_TABLE as u64;
const ATOM_OUT: u64 = ATOM_CELLS + 64;
const ATOM_GLOBAL: usize = ATOM_OUT as usize + 64;
const ATOM_SHARED: usize = 64;

/// Operand values: signs, width boundaries and a run of small numbers,
/// so `min`/`max` move both ways and `cas` both hits and misses.
const ATOM_VALUES: [u64; ATOM_TABLE] = [
    5,
    u64::MAX,
    0x8000_0000,
    0x7FFF_FFFF,
    3,
    0xFFFF_FFFF,
    1 << 32,
    9,
    i64::MIN as u64,
    4,
    0xFFFF_FFFE,
    7,
    5,
    1,
    0x1_0000_0005,
    2,
];

/// How a lane's atomic goes wrong, if it does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AtomFault {
    None,
    /// Past the end of its space.
    OutOfBounds,
    /// Not aligned to its size (only global memory checks).
    Misaligned,
}

/// A width-`w` warp's worth of one atomic, as the vectorizer leaves it:
/// one scalar `Atom` per lane, lane `l` at cell `l` (`shared_cell`: all
/// at cell 0) with operand `ATOM_VALUES[l]` (and, for `cas`, the value
/// after it), the cells first filled from the table, every old value
/// stored to an output cell. Lane `w / 2` may fault.
fn atom_function(
    (op, sty, signed, space): (AtomKind, STy, bool, Space),
    w: u32,
    shared_cell: bool,
    fault: AtomFault,
) -> Function {
    let mut f = Function::new(format!("atom_{op:?}_{sty}_{signed}_{space:?}_w{w}"), w);
    let mut b = Block::new("entry");
    let size = sty.size_bytes() as i64;
    let base = if space == Space::Global { ATOM_CELLS as i64 } else { 0 };
    let regs: Vec<VReg> = (0..ATOM_TABLE)
        .map(|k| {
            let dst = f.new_reg(Type::scalar(sty));
            let addr = Value::ImmI(8 * k as i64);
            b.insts.push(Inst::Load { ty: sty, space: Space::Global, dst, addr });
            dst
        })
        .collect();
    for l in 0..8 {
        // Even cells start equal to their lane's operand (a `cas` hit),
        // odd ones at the operand after it.
        let value = Value::Reg(regs[(l + l % 2) % ATOM_TABLE]);
        b.insts.push(Inst::Store { ty: sty, space, addr: Value::ImmI(base + 8 * l as i64), value });
    }
    for l in 0..w as usize {
        let mut addr = base + if shared_cell { 0 } else { 8 * l as i64 };
        if l == w as usize / 2 {
            match fault {
                AtomFault::None => {}
                AtomFault::OutOfBounds => addr = 1 << 20,
                AtomFault::Misaligned => addr += size / 2,
            }
        }
        let dst = f.new_reg(Type::scalar(sty));
        // Alternate immediate and register operands.
        let a = if l % 2 == 0 { Value::Reg(regs[l]) } else { Value::ImmI(ATOM_VALUES[l] as i64) };
        let b_op = (op == AtomKind::Cas).then(|| Value::Reg(regs[(l + 1) % ATOM_TABLE]));
        b.insts.push(Inst::Atom {
            ty: sty,
            space,
            op,
            signed,
            dst,
            addr: Value::ImmI(addr),
            a,
            b: b_op,
        });
        let out = Value::ImmI((ATOM_OUT + 8 * l as u64) as i64);
        b.insts.push(Inst::Store {
            ty: STy::I64,
            space: Space::Global,
            addr: out,
            value: Value::Reg(dst),
        });
    }
    if space != Space::Global {
        // The shared cells after the atomics, to global memory.
        for l in 0..8 {
            let v = f.new_reg(Type::scalar(STy::I64));
            let addr = Value::ImmI(8 * l as i64);
            b.insts.push(Inst::Load { ty: STy::I64, space, dst: v, addr });
            let out = Value::ImmI((ATOM_CELLS + 8 * l as u64) as i64);
            b.insts.push(Inst::Store {
                ty: STy::I64,
                space: Space::Global,
                addr: out,
                value: Value::Reg(v),
            });
        }
    }
    f.add_block(b);
    f
}

/// Everything a warp call leaves that a caller can see.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<WarpOutcome, VmError>,
    stats: ExecStats,
    global: Vec<u8>,
    shared: Vec<u8>,
}

/// Run `f` as one warp on the JIT (`jit`) or the bytecode engine.
fn run_atoms(f: &Function, jit: bool) -> Observed {
    let model = MachineModel::sandybridge_sse();
    let info = CostInfo::analyze(f, &model);
    let program = BytecodeProgram::decode(f, &FrameLayout::of(f), &model, &info);
    let global = GlobalMem::new(ATOM_GLOBAL);
    for (k, v) in ATOM_VALUES.iter().enumerate() {
        global.write::<8>(8 * k as u64, v.to_le_bytes()).unwrap();
    }
    let (mut shared, mut local) = (vec![0u8; ATOM_SHARED], vec![0u8; ATOM_SHARED]);
    let mut ctxs: Vec<ThreadContext> = (0..f.warp_size)
        .map(|i| ThreadContext::new([i, 0, 0], [f.warp_size, 1, 1], [0; 3], [1, 1, 1]))
        .collect();
    let mut mem = MemAccess {
        global: &global,
        shared: &mut shared,
        local: &mut local,
        param: &[],
        cbank: &[],
    };
    let (mut stats, mut frame) = (ExecStats::default(), RegFrame::new());
    let limits = ExecLimits::default();
    let result = if jit {
        let native = jit_compile(&program).expect("a jit_supported() host compiles");
        assert_eq!(native.emit_stats().helper_uops, 0, "{}: an atomic left its template", f.name);
        JitCta::new(mem, &limits, None).execute_warp(
            Some(&native),
            &program,
            &mut frame,
            &mut ctxs,
            0,
            &mut stats,
        )
    } else {
        execute_warp_bytecode(
            &program, &mut frame, &mut ctxs, 0, &mut mem, &mut stats, &limits, None,
        )
    };
    let mut image = vec![0u8; ATOM_GLOBAL];
    global.copy_out(0, &mut image).unwrap();
    Observed { result, stats, global: image, shared }
}

const ATOM_OPS: [AtomKind; 5] =
    [AtomKind::Add, AtomKind::Min, AtomKind::Max, AtomKind::Exch, AtomKind::Cas];
/// u32, s32, u64 and s64.
const ATOM_TYPES: [(STy, bool); 4] =
    [(STy::I32, false), (STy::I32, true), (STy::I64, false), (STy::I64, true)];

/// Every integer atomic the JIT templates — each operation × u32/s32/u64
/// × global/shared, lanes on one cell and on their own cells, at every
/// width — leaves the bytecode engine's old values, cells and stats.
#[test]
fn atomics_match_the_bytecode_engine_bit_for_bit() {
    if skip() {
        return;
    }
    for op in ATOM_OPS {
        for (sty, signed) in ATOM_TYPES {
            for space in [Space::Global, Space::Shared] {
                for w in WIDTHS {
                    for one_cell in [false, true] {
                        let f =
                            atom_function((op, sty, signed, space), w, one_cell, AtomFault::None);
                        let (want, got) = (run_atoms(&f, false), run_atoms(&f, true));
                        assert!(want.result.is_ok(), "{}: {:?}", f.name, want.result);
                        assert_eq!(got, want, "{} (one cell: {one_cell}): jit (left)", f.name);
                    }
                }
            }
        }
    }
}

/// A lane whose atomic is out of bounds, or misaligned in global
/// memory, fails on the JIT as on the bytecode engine: the same error,
/// the same stats, and memory holding exactly the lanes before it.
#[test]
fn a_faulting_atomic_lane_fails_like_the_bytecode_engine() {
    if skip() {
        return;
    }
    for op in ATOM_OPS {
        for (sty, signed) in ATOM_TYPES {
            for (space, fault) in [
                (Space::Global, AtomFault::OutOfBounds),
                (Space::Global, AtomFault::Misaligned),
                (Space::Shared, AtomFault::OutOfBounds),
            ] {
                for w in WIDTHS {
                    let f = atom_function((op, sty, signed, space), w, false, fault);
                    let (want, got) = (run_atoms(&f, false), run_atoms(&f, true));
                    assert!(want.result.is_err(), "{}: {fault:?} did not fault", f.name);
                    assert_eq!(got, want, "{} ({fault:?}): jit (left)", f.name);
                }
            }
        }
    }
}
