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

use dpvk::ir::{BinOp, Block, CmpPred, Function, Inst, STy, Space, Term, Type, UnOp, VReg, Value};
use dpvk::vm::{
    execute_warp_bytecode, jit_compile, jit_supported, BytecodeProgram, CostInfo, ExecLimits,
    ExecStats, FrameLayout, GlobalMem, JitCta, MachineModel, MemAccess, RegFrame, ThreadContext,
    JIT_HOST_FEATURES,
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
}

impl Case {
    fn new(sty: STy, w: u32) -> Case {
        let edges = edges(sty);
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
                assert_eq!(emitted.helper_uops, 0, "{}: a shape left its template", self.f.name);
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
