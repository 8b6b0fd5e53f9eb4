//! Translation from the PTX-like virtual ISA to scalar IR.
//!
//! This mirrors the paper's PTX→LLVM translator (Section 5.1): the output
//! is the *canonical scalar function* — one logical thread's code with all
//! context accesses reading warp lane 0 — plus the metadata the vectorizer
//! and execution manager need:
//!
//! * blocks are split at barriers, and each barrier becomes a recorded
//!   *barrier edge* to its continuation block;
//! * non-branch predicated instructions are rewritten into `select` form;
//! * guarded `ret`/`exit` become conditional branches to a synthetic exit
//!   block;
//! * every conditional-branch successor and barrier continuation becomes an
//!   *entry point* with a stable id, and each scalar virtual register that
//!   is live into any entry point receives a *spill slot* in thread-local
//!   memory (the slot map is shared by all specializations so that warps of
//!   different widths can exchange suspended threads).

use std::collections::{HashMap, HashSet};

use dpvk_ir as ir;
use dpvk_ir::{
    BinOp, Block, BlockId, CmpPred, CtxField, Function, Inst, Term, Type, UnOp, VReg, Value,
};
use dpvk_ptx as ptx;
use dpvk_ptx::{AddressBase, Operand, ScalarType, SpecialReg};

use crate::error::CoreError;

/// A kernel translated to canonical scalar IR with yield metadata.
#[derive(Debug, Clone)]
pub struct TranslatedKernel {
    /// Kernel name.
    pub name: String,
    /// The canonical scalar function (no yield machinery yet; conditional
    /// branches are ordinary `CondBr`s and barrier edges are plain `Br`s
    /// recorded in [`TranslatedKernel::barrier_edges`]).
    pub scalar: Function,
    /// Entry-point blocks; the index is the entry id (0 = kernel entry).
    pub entry_points: Vec<BlockId>,
    /// Inverse of `entry_points`.
    pub entry_id_of: HashMap<BlockId, i64>,
    /// Blocks whose terminating `Br` is a CTA-wide barrier, mapped to the
    /// continuation block.
    pub barrier_edges: HashMap<BlockId, BlockId>,
    /// Blocks that consist of nothing but `Ret` — divergence to these is
    /// encoded directly as [`ir::EXIT_ENTRY_ID`].
    pub pure_exit_blocks: HashSet<BlockId>,
    /// Spill-slot byte offset (within a thread's local memory) of every
    /// scalar register live into some entry point.
    pub spill_slots: HashMap<VReg, u64>,
    /// Bytes of user-declared `.local` variables.
    pub user_local_bytes: usize,
    /// Total per-thread local bytes (user variables + spill area).
    pub local_bytes: usize,
    /// Bytes of `.shared` memory per CTA.
    pub shared_bytes: usize,
    /// Bytes of the parameter buffer.
    pub param_bytes: usize,
    /// Sorted live-in register sets per scalar block.
    pub live_in: Vec<Vec<VReg>>,
}

impl TranslatedKernel {
    /// The entry id of `block`, or [`ir::EXIT_ENTRY_ID`] for pure-exit
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block` is neither an entry point nor a pure-exit block —
    /// callers only ask about yield targets.
    pub fn entry_id(&self, block: BlockId) -> i64 {
        if self.pure_exit_blocks.contains(&block) {
            return ir::EXIT_ENTRY_ID;
        }
        *self
            .entry_id_of
            .get(&block)
            .unwrap_or_else(|| panic!("block {block} is not an entry point"))
    }
}

fn sty_of(t: ScalarType) -> ir::STy {
    use ir::STy;
    match t {
        ScalarType::Pred => STy::I1,
        ScalarType::U8 | ScalarType::S8 | ScalarType::B8 => STy::I8,
        ScalarType::U16 | ScalarType::S16 => STy::I16,
        ScalarType::U32 | ScalarType::S32 | ScalarType::B32 => STy::I32,
        ScalarType::U64 | ScalarType::S64 | ScalarType::B64 => STy::I64,
        ScalarType::F32 => STy::F32,
        ScalarType::F64 => STy::F64,
    }
}

fn space_of(s: ptx::AddressSpace) -> ir::Space {
    match s {
        ptx::AddressSpace::Global => ir::Space::Global,
        ptx::AddressSpace::Shared => ir::Space::Shared,
        ptx::AddressSpace::Local => ir::Space::Local,
        ptx::AddressSpace::Param => ir::Space::Param,
        ptx::AddressSpace::Const => ir::Space::Const,
    }
}

fn ctx_field_of(sr: SpecialReg) -> CtxField {
    let d = |dim: ptx::Dim| -> u8 {
        match dim {
            ptx::Dim::X => 0,
            ptx::Dim::Y => 1,
            ptx::Dim::Z => 2,
        }
    };
    match sr {
        SpecialReg::Tid(x) => CtxField::Tid(d(x)),
        SpecialReg::Ntid(x) => CtxField::Ntid(d(x)),
        SpecialReg::Ctaid(x) => CtxField::Ctaid(d(x)),
        SpecialReg::Nctaid(x) => CtxField::Nctaid(d(x)),
        SpecialReg::LaneId => CtxField::LaneId,
        SpecialReg::WarpSize => CtxField::WarpSize,
    }
}

struct Translator<'k> {
    kernel: &'k ptx::Kernel,
    f: Function,
    /// PTX register -> IR register.
    reg_map: Vec<VReg>,
    /// First IR block of each PTX block.
    block_start: Vec<BlockId>,
    barrier_edges: HashMap<BlockId, BlockId>,
    /// The synthetic exit block (created on demand for guarded ret).
    exit_block: Option<BlockId>,
}

impl<'k> Translator<'k> {
    fn err(&self, message: impl Into<String>) -> CoreError {
        CoreError::Unsupported { kernel: self.kernel.name.clone(), message: message.into() }
    }

    fn ir_ty(&self, r: ptx::RegId) -> Type {
        Type::scalar(sty_of(self.kernel.reg_type(r)))
    }

    fn vreg(&self, r: ptx::RegId) -> VReg {
        self.reg_map[r.index()]
    }

    /// Emit `inst` into `block`.
    fn push(&mut self, block: BlockId, inst: Inst) {
        self.f.block_mut(block).insts.push(inst);
    }

    /// Materialize an operand as an IR value, emitting helper instructions
    /// into `block` as needed.
    fn value_of(&mut self, block: BlockId, op: &Operand, at: ir::STy) -> Result<Value, CoreError> {
        Ok(match op {
            Operand::Reg(r) => Value::Reg(self.vreg(*r)),
            Operand::Imm(v) => Value::ImmI(*v),
            Operand::ImmF(v) => Value::ImmF(*v),
            Operand::Special(sr) => {
                let t = self.f.new_reg(Type::scalar(ir::STy::I32));
                self.push(block, Inst::CtxRead { field: ctx_field_of(*sr), lane: 0, dst: t });
                if at != ir::STy::I32 && at.is_int() && at != ir::STy::I1 {
                    let c = self.f.new_reg(Type::scalar(at));
                    self.push(
                        block,
                        Inst::Cvt {
                            to: at,
                            from: ir::STy::I32,
                            signed: false,
                            width: 1,
                            dst: c,
                            a: Value::Reg(t),
                        },
                    );
                    Value::Reg(c)
                } else {
                    Value::Reg(t)
                }
            }
            Operand::Addr(_) => return Err(self.err("address operand in value position")),
            Operand::Sym(_) => return Err(self.err("symbol operand outside mov")),
        })
    }

    /// Compute the byte address of a memory operand within its space.
    fn addr_of(
        &mut self,
        block: BlockId,
        op: &Operand,
        space: ptx::AddressSpace,
    ) -> Result<Value, CoreError> {
        let Operand::Addr(addr) = op else {
            return Err(self.err("memory instruction without address operand"));
        };
        Ok(match &addr.base {
            AddressBase::Reg(r) => {
                let base = self.vreg(*r);
                if addr.offset == 0 {
                    Value::Reg(base)
                } else {
                    let ty = self.ir_ty(*r);
                    let t = self.f.new_reg(ty);
                    self.push(
                        block,
                        Inst::Bin {
                            op: BinOp::Add,
                            ty,
                            signed: false,
                            dst: t,
                            a: Value::Reg(base),
                            b: Value::ImmI(addr.offset),
                        },
                    );
                    Value::Reg(t)
                }
            }
            AddressBase::Param(name) => {
                let p = self
                    .kernel
                    .param(name)
                    .ok_or_else(|| self.err(format!("unknown parameter `{name}`")))?;
                Value::ImmI(p.offset as i64 + addr.offset)
            }
            AddressBase::Var(name) => {
                let var = self
                    .kernel
                    .var(name)
                    .ok_or_else(|| self.err(format!("unknown variable `{name}`")))?;
                let flat = var.offset as i64 + addr.offset;
                match space {
                    ptx::AddressSpace::Shared => Value::ImmI(flat),
                    ptx::AddressSpace::Local => {
                        // Local addresses are arena-wide: thread base + offset.
                        let base = self.f.new_reg(Type::scalar(ir::STy::I64));
                        self.push(
                            block,
                            Inst::CtxRead { field: CtxField::LocalBase, lane: 0, dst: base },
                        );
                        let t = self.f.new_reg(Type::scalar(ir::STy::I64));
                        self.push(
                            block,
                            Inst::Bin {
                                op: BinOp::Add,
                                ty: Type::scalar(ir::STy::I64),
                                signed: false,
                                dst: t,
                                a: Value::Reg(base),
                                b: Value::ImmI(flat),
                            },
                        );
                        Value::Reg(t)
                    }
                    other => {
                        return Err(
                            self.err(format!("variable `{name}` addressed in .{other} space"))
                        )
                    }
                }
            }
            AddressBase::Absolute => Value::ImmI(addr.offset),
        })
    }

    /// The guard condition as a scalar `i1` value (emitting a `not` for
    /// negated guards).
    fn guard_value(&mut self, block: BlockId, g: ptx::Guard) -> Value {
        let p = self.vreg(g.pred);
        if g.negated {
            let t = self.f.new_reg(Type::scalar(ir::STy::I1));
            self.push(
                block,
                Inst::Un { op: UnOp::Not, ty: Type::scalar(ir::STy::I1), dst: t, a: Value::Reg(p) },
            );
            Value::Reg(t)
        } else {
            Value::Reg(p)
        }
    }

    /// Translate one non-control PTX instruction into `block`. Guarded
    /// instructions are rewritten into select form (paper, Section 5.1).
    fn translate_inst(&mut self, block: BlockId, inst: &ptx::Instruction) -> Result<(), CoreError> {
        use ptx::Opcode as P;
        let vty = sty_of(inst.ty);
        let ty = Type::scalar(vty);
        let signed = inst.ty.is_signed();

        // For guarded value-producing instructions: compute into a fresh
        // temp, then select against the old destination.
        let guarded = inst.guard;
        let real_dst = inst.dst.map(|d| self.vreg(d));
        let dst = match (guarded, real_dst) {
            (Some(_), Some(d)) => {
                let t = self.f.new_reg(self.f.reg_type(d));
                Some((t, d))
            }
            (None, Some(d)) => Some((d, d)),
            (_, None) => {
                if guarded.is_some() {
                    return Err(self.err(format!(
                        "guarded `{}` is not supported; use an explicit branch",
                        inst.opcode.mnemonic()
                    )));
                }
                None
            }
        };
        let d = dst.map(|(t, _)| t);

        let values = |me: &mut Self, at: ir::STy| -> Result<Vec<Value>, CoreError> {
            inst.srcs.iter().map(|s| me.value_of(block, s, at)).collect()
        };

        match &inst.opcode {
            P::Add
            | P::Sub
            | P::Mul(_)
            | P::Div
            | P::Rem
            | P::Min
            | P::Max
            | P::And
            | P::Or
            | P::Xor
            | P::Shl
            | P::Shr => {
                let vs = values(self, vty)?;
                let op = match &inst.opcode {
                    P::Add => BinOp::Add,
                    P::Sub => BinOp::Sub,
                    P::Mul(ptx::MulHalf::Lo) => BinOp::Mul,
                    P::Mul(ptx::MulHalf::Hi) => BinOp::MulHi,
                    P::Div => BinOp::Div,
                    P::Rem => BinOp::Rem,
                    P::Min => BinOp::Min,
                    P::Max => BinOp::Max,
                    P::And => BinOp::And,
                    P::Or => BinOp::Or,
                    P::Xor => BinOp::Xor,
                    P::Shl => BinOp::Shl,
                    P::Shr => BinOp::Shr,
                    _ => unreachable!(),
                };
                self.push(
                    block,
                    Inst::Bin {
                        op,
                        ty,
                        signed,
                        dst: d.expect("binary ops have destinations"),
                        a: vs[0],
                        b: vs[1],
                    },
                );
            }
            P::Mad | P::Fma => {
                let vs = values(self, vty)?;
                self.push(
                    block,
                    Inst::Fma {
                        ty,
                        dst: d.expect("mad/fma has a destination"),
                        a: vs[0],
                        b: vs[1],
                        c: vs[2],
                    },
                );
            }
            P::Abs
            | P::Neg
            | P::Not
            | P::Sqrt
            | P::Rsqrt
            | P::Rcp
            | P::Sin
            | P::Cos
            | P::Ex2
            | P::Lg2 => {
                let vs = values(self, vty)?;
                let op = match &inst.opcode {
                    P::Abs => UnOp::Abs,
                    P::Neg => UnOp::Neg,
                    P::Not => UnOp::Not,
                    P::Sqrt => UnOp::Sqrt,
                    P::Rsqrt => UnOp::Rsqrt,
                    P::Rcp => UnOp::Rcp,
                    P::Sin => UnOp::Sin,
                    P::Cos => UnOp::Cos,
                    P::Ex2 => UnOp::Ex2,
                    P::Lg2 => UnOp::Lg2,
                    _ => unreachable!(),
                };
                self.push(
                    block,
                    Inst::Un { op, ty, dst: d.expect("unary ops have destinations"), a: vs[0] },
                );
            }
            P::Setp(cmp) => {
                let vs = values(self, vty)?;
                let pred = match cmp {
                    ptx::CmpOp::Eq => CmpPred::Eq,
                    ptx::CmpOp::Ne => CmpPred::Ne,
                    ptx::CmpOp::Lt => CmpPred::Lt,
                    ptx::CmpOp::Le => CmpPred::Le,
                    ptx::CmpOp::Gt => CmpPred::Gt,
                    ptx::CmpOp::Ge => CmpPred::Ge,
                };
                self.push(
                    block,
                    Inst::Cmp {
                        pred,
                        ty,
                        signed,
                        dst: d.expect("setp has a destination"),
                        a: vs[0],
                        b: vs[1],
                    },
                );
            }
            P::Selp => {
                let a = self.value_of(block, &inst.srcs[0], vty)?;
                let b = self.value_of(block, &inst.srcs[1], vty)?;
                let c = self.value_of(block, &inst.srcs[2], ir::STy::I1)?;
                self.push(
                    block,
                    Inst::Select { ty, dst: d.expect("selp has a destination"), cond: c, a, b },
                );
            }
            P::Mov => {
                let dst = d.expect("mov has a destination");
                match &inst.srcs[0] {
                    Operand::Sym(name) => {
                        let var = self
                            .kernel
                            .var(name)
                            .ok_or_else(|| self.err(format!("unknown variable `{name}`")))?
                            .clone();
                        match var.space {
                            ptx::AddressSpace::Shared => {
                                self.push(
                                    block,
                                    Inst::Mov { ty, dst, a: Value::ImmI(var.offset as i64) },
                                );
                            }
                            ptx::AddressSpace::Local => {
                                if vty != ir::STy::I64 {
                                    return Err(self.err(
                                        "address-of a .local variable requires a 64-bit mov",
                                    ));
                                }
                                let base = self.f.new_reg(Type::scalar(ir::STy::I64));
                                self.push(
                                    block,
                                    Inst::CtxRead {
                                        field: CtxField::LocalBase,
                                        lane: 0,
                                        dst: base,
                                    },
                                );
                                self.push(
                                    block,
                                    Inst::Bin {
                                        op: BinOp::Add,
                                        ty: Type::scalar(ir::STy::I64),
                                        signed: false,
                                        dst,
                                        a: Value::Reg(base),
                                        b: Value::ImmI(var.offset as i64),
                                    },
                                );
                            }
                            _ => return Err(self.err("address-of non-shared/local variable")),
                        }
                    }
                    src => {
                        let v = self.value_of(block, src, vty)?;
                        self.push(block, Inst::Mov { ty, dst, a: v });
                    }
                }
            }
            P::Cvt(from) => {
                let from_sty = sty_of(*from);
                let v = self.value_of(block, &inst.srcs[0], from_sty)?;
                // The integer side decides: a float converts to a signed
                // destination through i64, not u64.
                let signed = if from.is_float() { inst.ty.is_signed() } else { from.is_signed() };
                self.push(
                    block,
                    Inst::Cvt {
                        to: vty,
                        from: from_sty,
                        signed,
                        width: 1,
                        dst: d.expect("cvt has a destination"),
                        a: v,
                    },
                );
            }
            P::Ld(space) => {
                let addr = self.addr_of(block, &inst.srcs[0], *space)?;
                self.push(
                    block,
                    Inst::Load {
                        ty: vty,
                        space: space_of(*space),
                        dst: d.expect("ld has a destination"),
                        addr,
                    },
                );
            }
            P::St(space) => {
                if guarded.is_some() {
                    return Err(self.err("guarded store is not supported; use an explicit branch"));
                }
                let addr = self.addr_of(block, &inst.srcs[0], *space)?;
                let v = self.value_of(block, &inst.srcs[1], vty)?;
                self.push(block, Inst::Store { ty: vty, space: space_of(*space), addr, value: v });
            }
            P::Atom(space, op) => {
                if guarded.is_some() {
                    return Err(self.err("guarded atomic is not supported; use an explicit branch"));
                }
                let addr = self.addr_of(block, &inst.srcs[0], *space)?;
                let a = self.value_of(block, &inst.srcs[1], vty)?;
                let b = if inst.srcs.len() > 2 {
                    Some(self.value_of(block, &inst.srcs[2], vty)?)
                } else {
                    None
                };
                let kind = match op {
                    ptx::AtomOp::Add => ir::AtomKind::Add,
                    ptx::AtomOp::Min => ir::AtomKind::Min,
                    ptx::AtomOp::Max => ir::AtomKind::Max,
                    ptx::AtomOp::Exch => ir::AtomKind::Exch,
                    ptx::AtomOp::Cas => ir::AtomKind::Cas,
                };
                self.push(
                    block,
                    Inst::Atom {
                        ty: vty,
                        space: space_of(*space),
                        op: kind,
                        signed,
                        dst: d.expect("atom has a destination"),
                        addr,
                        a,
                        b,
                    },
                );
            }
            P::Vote(mode) => {
                let a = self.value_of(block, &inst.srcs[0], ir::STy::I1)?;
                let dst = d.expect("vote has a destination");
                match mode {
                    ptx::VoteMode::All => {
                        self.push(block, Inst::Vote { op: ir::ReduceOp::All, dst, a });
                    }
                    ptx::VoteMode::Any => {
                        self.push(block, Inst::Vote { op: ir::ReduceOp::Any, dst, a });
                    }
                    ptx::VoteMode::Uni => {
                        // uni = all(p) | all(!p).
                        let i1 = Type::scalar(ir::STy::I1);
                        let np = self.f.new_reg(i1);
                        self.push(block, Inst::Un { op: UnOp::Not, ty: i1, dst: np, a });
                        let t1 = self.f.new_reg(i1);
                        let t2 = self.f.new_reg(i1);
                        self.push(block, Inst::Vote { op: ir::ReduceOp::All, dst: t1, a });
                        self.push(
                            block,
                            Inst::Vote { op: ir::ReduceOp::All, dst: t2, a: Value::Reg(np) },
                        );
                        self.push(
                            block,
                            Inst::Bin {
                                op: BinOp::Or,
                                ty: i1,
                                signed: false,
                                dst,
                                a: Value::Reg(t1),
                                b: Value::Reg(t2),
                            },
                        );
                    }
                }
            }
            P::Bra(_) | P::Bar | P::Ret | P::Exit => {
                unreachable!("control instructions handled by the block walker")
            }
        }

        // Guard resolution: dst = select(guard, computed, old).
        if let (Some(g), Some((t, real))) = (guarded, dst) {
            if t != real {
                let cond = self.guard_value(block, g);
                let ty = self.f.reg_type(real);
                self.push(
                    block,
                    Inst::Select { ty, dst: real, cond, a: Value::Reg(t), b: Value::Reg(real) },
                );
            }
        }
        Ok(())
    }
}

/// Translate a validated kernel into canonical scalar IR.
///
/// # Errors
///
/// Returns [`CoreError::Ptx`] for validation failures and
/// [`CoreError::Unsupported`] for constructs outside the supported subset
/// (guarded stores/atomics, address-of in narrow registers, ...).
pub fn translate(kernel: &ptx::Kernel) -> Result<TranslatedKernel, CoreError> {
    // Nested sub-phases of the cache's "translate" phase, so cold-start
    // time splits into lowering vs. entry-point/liveness analysis in the
    // trace report. Free when tracing is off.
    let lower_phase = dpvk_trace::phase(&kernel.name, "translate:lower");
    ptx::validate_kernel(kernel)?;

    let mut f = Function::new(format!("{}::scalar", kernel.name), 1);
    // One IR register per PTX register.
    let reg_map: Vec<VReg> =
        kernel.registers.iter().map(|ri| f.new_reg(Type::scalar(sty_of(ri.ty)))).collect();

    // Pre-create IR blocks: each PTX block contributes 1 + (number of
    // barriers) blocks, in order.
    let mut block_start = Vec::with_capacity(kernel.blocks.len());
    {
        for pb in &kernel.blocks {
            let first = f.add_block(Block::new(pb.label.clone()));
            block_start.push(first);
            let barriers =
                pb.instructions.iter().filter(|i| matches!(i.opcode, ptx::Opcode::Bar)).count();
            for k in 0..barriers {
                f.add_block(Block::new(format!("{}$post_bar{}", pb.label, k)));
            }
        }
    }

    let mut tr = Translator {
        kernel,
        f,
        reg_map,
        block_start,
        barrier_edges: HashMap::new(),
        exit_block: None,
    };

    // Translate each PTX block.
    for (pi, pb) in kernel.blocks.iter().enumerate() {
        let mut cur = tr.block_start[pi];
        let next_ptx_block = tr.block_start.get(pi + 1).copied();
        let mut terminated = false;
        for inst in &pb.instructions {
            match &inst.opcode {
                ptx::Opcode::Bar => {
                    // Seal the segment with a barrier edge to the next one.
                    let cont = BlockId(cur.0 + 1);
                    tr.f.block_mut(cur).term = Term::Br(cont);
                    tr.barrier_edges.insert(cur, cont);
                    cur = cont;
                }
                ptx::Opcode::Bra(label) => {
                    let target_ptx = kernel
                        .block_by_label(label)
                        .expect("validated kernels have resolved labels");
                    let target = tr.block_start[target_ptx.index()];
                    match inst.guard {
                        Some(g) => {
                            let cond = tr.guard_value(cur, g);
                            let fall = next_ptx_block.ok_or_else(|| {
                                tr.err("guarded branch at the end of the final block")
                            })?;
                            tr.f.block_mut(cur).term = Term::CondBr { cond, taken: target, fall };
                        }
                        None => {
                            tr.f.block_mut(cur).term = Term::Br(target);
                        }
                    }
                    terminated = true;
                }
                ptx::Opcode::Ret | ptx::Opcode::Exit => {
                    match inst.guard {
                        Some(g) => {
                            let cond = tr.guard_value(cur, g);
                            let exit = match tr.exit_block {
                                Some(e) => e,
                                None => {
                                    let mut b = Block::new("$exit");
                                    b.term = Term::Ret;
                                    let e = tr.f.add_block(b);
                                    tr.exit_block = Some(e);
                                    e
                                }
                            };
                            let fall = next_ptx_block.ok_or_else(|| {
                                tr.err("guarded ret at the end of the final block")
                            })?;
                            tr.f.block_mut(cur).term = Term::CondBr { cond, taken: exit, fall };
                        }
                        None => {
                            tr.f.block_mut(cur).term = Term::Ret;
                        }
                    }
                    terminated = true;
                }
                _ => {
                    tr.translate_inst(cur, inst)?;
                }
            }
        }
        if !terminated {
            match next_ptx_block {
                Some(next) => tr.f.block_mut(cur).term = Term::Br(next),
                None => tr.f.block_mut(cur).term = Term::Ret,
            }
        }
    }

    let Translator { f, barrier_edges, .. } = tr;
    drop(lower_phase);
    let _analyze_phase = dpvk_trace::phase(&kernel.name, "translate:analyze");
    ir::verify(&f)?;

    // Entry points: kernel entry + barrier continuations + conditional
    // branch successors (pure-exit blocks excluded).
    let pure_exit_blocks: HashSet<BlockId> = f
        .blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| b.insts.is_empty() && b.term == Term::Ret)
        .map(|(i, _)| BlockId(i as u32))
        .collect();
    let mut entry_points = vec![BlockId(0)];
    let mut seen: HashSet<BlockId> = entry_points.iter().copied().collect();
    let mut add_entry = |b: BlockId, entry_points: &mut Vec<BlockId>| {
        if !pure_exit_blocks.contains(&b) && seen.insert(b) {
            entry_points.push(b);
        }
    };
    for b in &f.blocks {
        match &b.term {
            Term::CondBr { taken, fall, .. } => {
                add_entry(*taken, &mut entry_points);
                add_entry(*fall, &mut entry_points);
            }
            Term::Br(t) => {
                // Barrier continuations.
                if let Some(from) =
                    barrier_edges.iter().find(|(_, &cont)| cont == *t).map(|(from, _)| *from)
                {
                    let _ = from;
                    add_entry(*t, &mut entry_points);
                }
            }
            _ => {}
        }
    }
    let entry_id_of: HashMap<BlockId, i64> =
        entry_points.iter().enumerate().map(|(i, &b)| (b, i as i64)).collect();

    // Spill slots for registers live into any entry point, numbered in
    // register order.
    let lv = ir::Liveness::compute(&f);
    let user_local_bytes = kernel.local_size();
    let mut spilled = vec![0u64; f.regs.len().div_ceil(64)];
    for &e in &entry_points {
        spilled.iter_mut().zip(lv.live_in(e)).for_each(|(acc, row)| *acc |= row);
    }
    let spill_slots: HashMap<VReg, u64> = ir::Liveness::regs_of(&spilled)
        .enumerate()
        .map(|(i, r)| (r, (user_local_bytes + i * 8) as u64))
        .collect();
    let local_bytes = user_local_bytes + spill_slots.len() * 8;

    let live_in: Vec<Vec<VReg>> =
        (0..f.blocks.len()).map(|i| lv.live_in_sorted(BlockId(i as u32))).collect();

    Ok(TranslatedKernel {
        name: kernel.name.clone(),
        scalar: f,
        entry_points,
        entry_id_of,
        barrier_edges,
        pure_exit_blocks,
        spill_slots,
        user_local_bytes,
        local_bytes,
        shared_bytes: kernel.shared_size(),
        param_bytes: kernel.param_buffer_size(),
        live_in,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpvk_ptx::parse_kernel;

    const VECADD: &str = r#"
.kernel vecadd (.param .u64 a, .param .u64 b, .param .u64 c, .param .u32 n) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  mad.lo.u32 %r3, %ctaid.x, %ntid.x, %r1;
  ld.param.u32 %r4, [n];
  setp.ge.u32 %p1, %r3, %r4;
  @%p1 bra done;
  cvt.u64.u32 %rd1, %r3;
  shl.u64 %rd1, %rd1, 2;
  ld.param.u64 %rd2, [a];
  add.u64 %rd2, %rd2, %rd1;
  ld.global.f32 %f1, [%rd2];
  ld.param.u64 %rd3, [b];
  add.u64 %rd3, %rd3, %rd1;
  ld.global.f32 %f2, [%rd3];
  add.f32 %f3, %f1, %f2;
  ld.param.u64 %rd4, [c];
  add.u64 %rd4, %rd4, %rd1;
  st.global.f32 [%rd4], %f3;
done:
  ret;
}
"#;

    #[test]
    fn vecadd_translates_and_verifies() {
        let k = parse_kernel(VECADD).unwrap();
        let t = translate(&k).unwrap();
        ir::verify(&t.scalar).unwrap();
        assert_eq!(t.param_bytes, 28);
        assert_eq!(t.shared_bytes, 0);
        // Entry points: kernel entry, plus both successors of the guarded
        // branch. `done` is a pure-exit block so only the fallthrough body
        // counts.
        assert!(t.entry_points.len() >= 2);
        assert_eq!(t.entry_points[0], BlockId(0));
        assert!(t.pure_exit_blocks.contains(&t.scalar.block_by_label("done").unwrap()));
        assert_eq!(t.entry_id(t.scalar.block_by_label("done").unwrap()), ir::EXIT_ENTRY_ID);
    }

    #[test]
    fn barrier_splits_blocks() {
        let src = r#"
.kernel bar_test (.param .u64 p) {
  .reg .u32 %r<4>;
  .reg .u64 %rd<2>;
entry:
  mov.u32 %r1, %tid.x;
  bar.sync 0;
  add.u32 %r1, %r1, 1;
  ret;
}
"#;
        let k = parse_kernel(src).unwrap();
        let t = translate(&k).unwrap();
        assert_eq!(t.barrier_edges.len(), 1);
        let (&from, &cont) = t.barrier_edges.iter().next().unwrap();
        assert_eq!(t.scalar.block(from).term, Term::Br(cont));
        // The continuation is an entry point with live state (%r1).
        assert!(t.entry_id_of.contains_key(&cont));
        assert!(!t.live_in[cont.index()].is_empty());
        // %r1's value crosses the barrier, so it has a spill slot.
        assert!(!t.spill_slots.is_empty());
    }

    #[test]
    fn guarded_instruction_becomes_select() {
        let src = r#"
.kernel g (.param .u32 n) {
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
entry:
  ld.param.u32 %r1, [n];
  setp.lt.u32 %p1, %r1, 10;
  @%p1 add.u32 %r2, %r1, 5;
  st.global.u32 [0], %r2;
  ret;
}
"#;
        let k = parse_kernel(src).unwrap();
        let t = translate(&k).unwrap();
        let has_select =
            t.scalar.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i, Inst::Select { .. }));
        assert!(has_select, "{}", ir::print_function(&t.scalar));
    }

    #[test]
    fn guarded_ret_branches_to_exit_block() {
        let src = r#"
.kernel g (.param .u32 n) {
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
entry:
  ld.param.u32 %r1, [n];
  setp.lt.u32 %p1, %r1, 10;
  @%p1 ret;
  st.global.u32 [0], %r1;
  ret;
}
"#;
        let k = parse_kernel(src).unwrap();
        let t = translate(&k).unwrap();
        // Entry block ends in CondBr to the synthetic exit.
        match &t.scalar.blocks[0].term {
            Term::CondBr { taken, .. } => {
                assert!(t.pure_exit_blocks.contains(taken));
            }
            other => panic!("expected CondBr, got {other:?}"),
        }
    }

    #[test]
    fn guarded_store_is_rejected() {
        let src = r#"
.kernel g (.param .u32 n) {
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
entry:
  ld.param.u32 %r1, [n];
  setp.lt.u32 %p1, %r1, 10;
  @%p1 st.global.u32 [0], %r1;
  ret;
}
"#;
        let k = parse_kernel(src).unwrap();
        let err = translate(&k).unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn shared_address_of_is_offset() {
        let src = r#"
.kernel s () {
  .shared .f32 tile[16];
  .reg .u64 %rd<3>;
  .reg .f32 %f<2>;
entry:
  mov.u64 %rd1, tile;
  add.u64 %rd1, %rd1, 8;
  ld.shared.f32 %f1, [%rd1];
  st.shared.f32 [tile+4], %f1;
  ret;
}
"#;
        let k = parse_kernel(src).unwrap();
        let t = translate(&k).unwrap();
        ir::verify(&t.scalar).unwrap();
        assert_eq!(t.shared_bytes, 64);
    }

    #[test]
    fn special_registers_become_ctx_reads() {
        let k = parse_kernel(VECADD).unwrap();
        let t = translate(&k).unwrap();
        let reads: Vec<&Inst> = t
            .scalar
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::CtxRead { .. }))
            .collect();
        // tid.x, ctaid.x, ntid.x.
        assert!(reads.len() >= 3);
        assert!(reads.iter().all(|i| matches!(i, Inst::CtxRead { lane: 0, .. })));
    }

    #[test]
    fn loop_kernel_entry_points() {
        let src = r#"
.kernel l (.param .u32 n) {
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, 0;
  ld.param.u32 %r2, [n];
head:
  add.u32 %r1, %r1, 1;
  setp.lt.u32 %p1, %r1, %r2;
  @%p1 bra head;
  ret;
}
"#;
        let k = parse_kernel(src).unwrap();
        let t = translate(&k).unwrap();
        let head = t.scalar.block_by_label("head").unwrap();
        // `head` is a conditional-branch successor: it must be an entry
        // point and its live-ins (%r1, %r2) must have spill slots.
        assert!(t.entry_id_of.contains_key(&head));
        assert_eq!(t.live_in[head.index()].len(), 2);
        assert_eq!(t.spill_slots.len(), 2);
        assert_eq!(t.local_bytes, 16);
    }
}
