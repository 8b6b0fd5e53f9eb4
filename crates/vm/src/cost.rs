//! The instruction cost model.
//!
//! Costs are issue-slot counts on the modeled core. The two mechanisms
//! that shape the paper's results are reproduced directly:
//!
//! 1. A vector operation of `w` lanes costs `ceil(w / machine_width)`
//!    issues — warps up to the machine width amortize perfectly, wider
//!    warps serialize into multiple machine ops.
//! 2. When the live vector state of a function (in machine-register units)
//!    exceeds the architectural vector register file, every vector
//!    instruction pays a spill penalty — this is the Table 1 collapse at
//!    warp size 8 on a 4-wide machine.

use dpvk_ir::{BinOp, BlockId, Function, Inst, Liveness, Space, Term, Type, UnOp, VReg};

use crate::machine::MachineModel;

/// Per-function cost information computed once at translation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostInfo {
    /// Maximum machine vector registers simultaneously live.
    pub max_live_machine_vregs: u64,
    /// Extra cycles added to each vector-instruction chunk when the live
    /// set exceeds the register file (0 when it fits).
    pub spill_extra_per_chunk: u64,
}

impl CostInfo {
    /// Analyze `f` under `model`.
    pub fn analyze(f: &Function, model: &MachineModel) -> Self {
        Self::analyze_with(f, model, &Liveness::compute(f))
    }

    /// [`Self::analyze`] with the liveness of `f` already computed: a
    /// compile shares one [`Liveness`] between this and
    /// [`BytecodeProgram::decode_with`](crate::BytecodeProgram::decode_with).
    pub fn analyze_with(f: &Function, model: &MachineModel, lv: &Liveness) -> Self {
        let max_live = max_live_machine_vregs(f, model, lv);
        let spill_extra_per_chunk =
            if max_live > model.vector_registers as u64 { model.spill_penalty as u64 } else { 0 };
        CostInfo { max_live_machine_vregs: max_live, spill_extra_per_chunk }
    }

    /// Cost info with no pressure (useful for tests).
    pub fn zero() -> Self {
        CostInfo { max_live_machine_vregs: 0, spill_extra_per_chunk: 0 }
    }
}

/// Maximum, over all program points, of the number of *machine* vector
/// registers needed to hold the live vector values (each IR vector
/// register of width `w` needs `chunks(w)` machine registers).
fn max_live_machine_vregs(f: &Function, model: &MachineModel, lv: &Liveness) -> u64 {
    // Machine registers per IR register; scalars weigh nothing, so they
    // may sit in the live row without being counted.
    let weight: Vec<u64> = f
        .regs
        .iter()
        .map(|t| if t.is_vector() { model.chunks(t.width, t.scalar.size_bytes()) } else { 0 })
        .collect();
    if weight.iter().all(|&w| w == 0) {
        return 0;
    }
    let bit = |r: VReg| (r.index() / 64, 1u64 << (r.index() % 64));
    let mut live: Vec<u64> = Vec::new();
    let mut max = 0u64;
    for (i, b) in f.blocks.iter().enumerate() {
        live.clear();
        live.extend_from_slice(lv.live_out(BlockId(i as u32)));
        let mut cur: u64 = Liveness::regs_of(&live).map(|r| weight[r.index()]).sum();
        max = max.max(cur);
        for inst in b.insts.iter().rev() {
            if let Some(d) = inst.dst() {
                let (w, m) = bit(d);
                if live[w] & m != 0 {
                    live[w] &= !m;
                    cur -= weight[d.index()];
                }
            }
            for r in inst.uses().iter().filter_map(|v| v.as_reg()) {
                let (w, m) = bit(r);
                if live[w] & m == 0 {
                    live[w] |= m;
                    cur += weight[r.index()];
                }
            }
            max = max.max(cur);
        }
    }
    max
}

fn chunks_of(ty: Type, model: &MachineModel) -> u64 {
    model.chunks(ty.width, ty.scalar.size_bytes())
}

/// Modeled issue cost of one instruction.
pub fn inst_cost(inst: &Inst, model: &MachineModel, info: &CostInfo) -> u64 {
    use Inst::*;
    let vec_cost = |ty: Type, base: u64| -> u64 {
        let c = chunks_of(ty, model);
        let spill = if ty.is_vector() { info.spill_extra_per_chunk * c } else { 0 };
        base * c + spill
    };
    match inst {
        Bin { op, ty, .. } => {
            let base = match op {
                BinOp::Div => {
                    if ty.scalar.is_float() {
                        14
                    } else {
                        20
                    }
                }
                BinOp::Rem => 20,
                BinOp::MulHi => 3,
                _ => 1,
            };
            vec_cost(*ty, base)
        }
        Un { op, ty, .. } => {
            let base = match op {
                UnOp::Sqrt => 14,
                UnOp::Rsqrt | UnOp::Rcp => 5,
                UnOp::Sin | UnOp::Cos => 16,
                UnOp::Ex2 | UnOp::Lg2 => 12,
                UnOp::Neg | UnOp::Not | UnOp::Abs => 1,
            };
            vec_cost(*ty, base)
        }
        Fma { ty, .. } => vec_cost(*ty, 1),
        Cmp { ty, .. } => vec_cost(*ty, 1),
        Select { ty, .. } => vec_cost(*ty, 1),
        Cvt { to, from, width, .. } => {
            let ty = Type {
                scalar: if to.size_bytes() > from.size_bytes() { *to } else { *from },
                width: *width,
            };
            vec_cost(ty, 2)
        }
        // Loads model L1-resident latency-hidden accesses (Sandybridge
        // sustains two loads per cycle; in this 1-IPC model a hot load is
        // one issue). Global memory pays an extra cycle for the cache
        // hierarchy.
        Load { space, .. } => match space {
            Space::Global => 2,
            _ => 1,
        },
        Store { .. } => 1,
        Atom { .. } => 20,
        // Pack/unpack touch a single machine register regardless of the
        // IR vector width.
        Insert { .. } | Extract { .. } => 1 + info.spill_extra_per_chunk,
        Splat { ty, .. } => vec_cost(*ty, 1),
        Reduce { ty, .. } => vec_cost(*ty, 1) + 1,
        CtxRead { .. } => 2,
        SetResumePoint { .. } => 2,
        SetResumeStatus { .. } => 1,
        Vote { .. } => 1,
        Mov { ty, .. } => vec_cost(*ty, 1),
    }
}

/// Modeled issue cost of a terminator.
pub fn term_cost(term: &Term) -> u64 {
    match term {
        Term::Br(_) => 1,
        Term::CondBr { .. } => 2,
        Term::Switch { .. } => 3,
        Term::Ret => 2,
    }
}

/// Single-precision-equivalent FLOPs performed by one instruction.
pub fn inst_flops(inst: &Inst) -> u64 {
    use Inst::*;
    match inst {
        Bin {
            op: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max,
            ty,
            ..
        } if ty.scalar.is_float() => ty.width as u64,
        Fma { ty, .. } if ty.scalar.is_float() => 2 * ty.width as u64,
        Un { op, ty, .. } if ty.scalar.is_float() && op.is_transcendental() => ty.width as u64,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpvk_ir::{STy, Value};

    fn fma(ty: Type) -> Inst {
        Inst::Fma {
            ty,
            dst: VReg(0),
            a: Value::Reg(VReg(0)),
            b: Value::Reg(VReg(0)),
            c: Value::Reg(VReg(0)),
        }
    }

    #[test]
    fn vector_fma_amortizes_up_to_machine_width() {
        let m = MachineModel::sandybridge_sse();
        let z = CostInfo::zero();
        assert_eq!(inst_cost(&fma(Type::scalar(STy::F32)), &m, &z), 1);
        assert_eq!(inst_cost(&fma(Type::vector(STy::F32, 4)), &m, &z), 1);
        assert_eq!(inst_cost(&fma(Type::vector(STy::F32, 8)), &m, &z), 2);
    }

    #[test]
    fn spill_pressure_adds_cost() {
        let m = MachineModel::sandybridge_sse();
        let info = CostInfo { max_live_machine_vregs: 20, spill_extra_per_chunk: 2 };
        // width 8 = 2 chunks, each paying 2 extra: 2*1 + 2*2 = 6.
        assert_eq!(inst_cost(&fma(Type::vector(STy::F32, 8)), &m, &info), 6);
        // scalar ops never pay the penalty.
        assert_eq!(inst_cost(&fma(Type::scalar(STy::F32)), &m, &info), 1);
    }

    #[test]
    fn flops_counting() {
        assert_eq!(inst_flops(&fma(Type::vector(STy::F32, 4))), 8);
        assert_eq!(inst_flops(&fma(Type::scalar(STy::F32))), 2);
        let add = Inst::Bin {
            op: BinOp::Add,
            ty: Type::vector(STy::F32, 2),
            signed: false,
            dst: VReg(0),
            a: Value::Reg(VReg(0)),
            b: Value::Reg(VReg(0)),
        };
        assert_eq!(inst_flops(&add), 2);
        let iadd = Inst::Bin {
            op: BinOp::Add,
            ty: Type::scalar(STy::I32),
            signed: false,
            dst: VReg(0),
            a: Value::Reg(VReg(0)),
            b: Value::Reg(VReg(0)),
        };
        assert_eq!(inst_flops(&iadd), 0);
    }

    #[test]
    fn pressure_analysis_detects_overflow() {
        // Build a function with 20 live 8-wide vectors on a 4-wide machine:
        // 40 machine registers, far over the 16 available.
        let m = MachineModel::sandybridge_sse();
        let mut f = Function::new("hot", 8);
        let ty = Type::vector(STy::F32, 8);
        let regs: Vec<VReg> = (0..20).map(|_| f.new_reg(ty)).collect();
        let acc = f.new_reg(ty);
        let mut b = dpvk_ir::Block::new("entry");
        for &r in &regs {
            b.insts.push(Inst::Splat { ty, dst: r, a: Value::ImmF(1.0) });
        }
        // Use them all at once so they are simultaneously live.
        for &r in &regs {
            b.insts.push(Inst::Bin {
                op: BinOp::Add,
                ty,
                signed: false,
                dst: acc,
                a: Value::Reg(acc),
                b: Value::Reg(r),
            });
        }
        b.term = Term::Ret;
        f.add_block(b);
        // `acc` must be kept live: store it.
        let info = CostInfo::analyze(&f, &m);
        assert!(info.max_live_machine_vregs >= 40, "{info:?}");
        assert_eq!(info.spill_extra_per_chunk, m.spill_penalty as u64);
    }

    #[test]
    fn narrow_function_has_no_penalty() {
        let m = MachineModel::sandybridge_sse();
        let mut f = Function::new("cold", 4);
        let ty = Type::vector(STy::F32, 4);
        let a = f.new_reg(ty);
        let mut b = dpvk_ir::Block::new("entry");
        b.insts.push(Inst::Splat { ty, dst: a, a: Value::ImmF(0.0) });
        b.term = Term::Ret;
        f.add_block(b);
        let info = CostInfo::analyze(&f, &m);
        assert_eq!(info.spill_extra_per_chunk, 0);
    }
}
