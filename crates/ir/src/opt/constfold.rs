//! Block-local constant propagation and folding.

use crate::function::Function;
use crate::inst::{BinOp, CmpPred, Inst, UnOp};
use crate::types::{STy, Type};
use crate::value::{VReg, Value};

/// Propagate constants within each block and fold instructions whose
/// operands are all constants into `Mov` of an immediate. Returns the
/// number of instructions folded or operands substituted.
///
/// The analysis is block-local, which is sound without SSA form: a
/// register's constant binding is invalidated by any redefinition.
pub fn const_fold(f: &mut Function) -> usize {
    let mut changed = 0;
    // Known-constant registers of the block being walked; reset at the
    // end of each block from the list of registers it bound.
    let mut env: Vec<Option<Value>> = vec![None; f.regs.len()];
    let mut bound: Vec<VReg> = Vec::new();
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            inst.map_uses(|v| changed += substitute(v, &env));
            // Try to fold.
            if let Some((dst, folded)) = fold(inst) {
                let ty = match inst {
                    Inst::Bin { ty, .. }
                    | Inst::Un { ty, .. }
                    | Inst::Select { ty, .. }
                    | Inst::Mov { ty, .. } => *ty,
                    Inst::Cmp { ty, .. } => Type { scalar: STy::I1, width: ty.width },
                    Inst::Cvt { to, width, .. } => Type { scalar: *to, width: *width },
                    _ => Type::scalar(STy::I64),
                };
                if !ty.is_vector() {
                    *inst = Inst::Mov { ty, dst, a: folded };
                    changed += 1;
                }
            }
            // Update the environment.
            if let Some(d) = inst.dst() {
                env[d.index()] = match inst {
                    Inst::Mov { a, .. } if a.is_const() => {
                        bound.push(d);
                        Some(*a)
                    }
                    _ => None,
                };
            }
        }
        if let crate::Term::CondBr { cond: v, .. } | crate::Term::Switch { value: v, .. } =
            &mut b.term
        {
            changed += substitute(v, &env);
        }
        for r in bound.drain(..) {
            env[r.index()] = None;
        }
    }
    changed
}

/// Replace a register operand bound to a constant; returns how many
/// substitutions that made (0 or 1).
fn substitute(v: &mut Value, env: &[Option<Value>]) -> usize {
    if let Value::Reg(r) = v {
        if let Some(c) = env[r.index()] {
            *v = c;
            return 1;
        }
    }
    0
}

fn as_i64(v: Value) -> Option<i64> {
    match v {
        Value::ImmI(x) => Some(x),
        _ => None,
    }
}

fn as_f64(v: Value) -> Option<f64> {
    match v {
        Value::ImmF(x) => Some(x),
        _ => None,
    }
}

/// The low `sty` bits of `x`, zero-extended: the VM's encoding of an
/// integer immediate (`vm::semantics::mask_to`).
fn zext(x: i64, sty: STy) -> u64 {
    let bits = sty.bits();
    if bits >= 64 {
        x as u64
    } else {
        x as u64 & ((1u64 << bits) - 1)
    }
}

/// The low `sty` bits of `x`, sign-extended (`vm::semantics::sext`).
fn sext(x: i64, sty: STy) -> i64 {
    let unused = 64 - sty.bits();
    (x << unused) >> unused
}

/// Fold a single instruction with constant operands into `(dst, value)`.
///
/// Integer immediates are raw `i64`s that mean their low `ty` bits, so
/// both operands are brought to the operation's width first (sign- or
/// zero-extended, as the operation reads them) and the result is
/// truncated to it: exactly what the VM computes for the unfolded
/// instruction, shift-amount masking included.
fn fold(inst: &Inst) -> Option<(VReg, Value)> {
    match inst {
        Inst::Bin { op, ty, signed, dst, a, b } if ty.width == 1 => {
            if ty.scalar.is_float() {
                let (x, y) = (as_f64(*a)?, as_f64(*b)?);
                let r = match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    _ => return None,
                };
                let r = if ty.scalar == STy::F32 { (r as f32) as f64 } else { r };
                Some((*dst, Value::ImmF(r)))
            } else {
                let sty = ty.scalar;
                let (x, y) = (as_i64(*a)?, as_i64(*b)?);
                let (ux, uy) = (zext(x, sty), zext(y, sty));
                let (sx, sy) = (sext(x, sty), sext(y, sty));
                let shift = uy & (sty.bits() - 1).max(1) as u64;
                let r: u64 = match (op, *signed) {
                    (BinOp::Add, _) => sx.wrapping_add(sy) as u64,
                    (BinOp::Sub, _) => sx.wrapping_sub(sy) as u64,
                    (BinOp::Mul, _) => sx.wrapping_mul(sy) as u64,
                    (BinOp::And, _) => ux & uy,
                    (BinOp::Or, _) => ux | uy,
                    (BinOp::Xor, _) => ux ^ uy,
                    (BinOp::Shl, _) => ux << shift,
                    (BinOp::Shr, true) => (sx >> shift) as u64,
                    (BinOp::Shr, false) => ux >> shift,
                    (BinOp::Div | BinOp::Rem, _) if uy == 0 => return None,
                    (BinOp::Div, true) => sx.wrapping_div(sy) as u64,
                    (BinOp::Div, false) => ux / uy,
                    (BinOp::Rem, true) => sx.wrapping_rem(sy) as u64,
                    (BinOp::Rem, false) => ux % uy,
                    (BinOp::Min, true) => sx.min(sy) as u64,
                    (BinOp::Min, false) => ux.min(uy),
                    (BinOp::Max, true) => sx.max(sy) as u64,
                    (BinOp::Max, false) => ux.max(uy),
                    (BinOp::MulHi, _) => return None,
                };
                Some((*dst, Value::ImmI(zext(r as i64, sty) as i64)))
            }
        }
        Inst::Un { op, ty, dst, a } if ty.width == 1 => {
            if ty.scalar.is_float() {
                let x = as_f64(*a)?;
                let r = match op {
                    UnOp::Neg => -x,
                    UnOp::Abs => x.abs(),
                    UnOp::Sqrt => x.sqrt(),
                    _ => return None,
                };
                Some((*dst, Value::ImmF(r)))
            } else {
                let sty = ty.scalar;
                let x = as_i64(*a)?;
                let r = match op {
                    UnOp::Neg => sext(x, sty).wrapping_neg(),
                    UnOp::Not if sty == STy::I1 => (x & 1) ^ 1,
                    UnOp::Not => !x,
                    UnOp::Abs => sext(x, sty).wrapping_abs(),
                    _ => return None,
                };
                Some((*dst, Value::ImmI(zext(r, sty) as i64)))
            }
        }
        Inst::Cmp { pred, ty, signed, dst, a, b } if ty.width == 1 => {
            let sty = ty.scalar;
            let r = if sty.is_float() {
                eval_cmp(*pred, as_f64(*a)?, as_f64(*b)?)
            } else if *signed {
                eval_cmp(*pred, sext(as_i64(*a)?, sty), sext(as_i64(*b)?, sty))
            } else {
                eval_cmp(*pred, zext(as_i64(*a)?, sty), zext(as_i64(*b)?, sty))
            };
            Some((*dst, Value::ImmI(r as i64)))
        }
        Inst::Select { ty, dst, cond, a, b } if ty.width == 1 => {
            let c = as_i64(*cond)?;
            if !a.is_const() || !b.is_const() {
                return None;
            }
            Some((*dst, if c & 1 != 0 { *a } else { *b }))
        }
        _ => None,
    }
}

fn eval_cmp<T: PartialOrd>(p: CmpPred, a: T, b: T) -> bool {
    match p {
        CmpPred::Eq => a == b,
        CmpPred::Ne => a != b,
        CmpPred::Lt => a < b,
        CmpPred::Le => a <= b,
        CmpPred::Gt => a > b,
        CmpPred::Ge => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Block;
    use crate::inst::Term;

    #[test]
    fn folds_constant_chain() {
        let mut f = Function::new("t", 1);
        let a = f.new_reg(Type::scalar(STy::I32));
        let b = f.new_reg(Type::scalar(STy::I32));
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Mov { ty: Type::scalar(STy::I32), dst: a, a: Value::ImmI(6) });
        blk.insts.push(Inst::Bin {
            op: BinOp::Mul,
            ty: Type::scalar(STy::I32),
            signed: false,
            dst: b,
            a: Value::Reg(a),
            b: Value::ImmI(7),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        const_fold(&mut f);
        match &f.blocks[0].insts[1] {
            Inst::Mov { a: Value::ImmI(42), .. } => {}
            other => panic!("expected folded mov 42, got {other:?}"),
        }
    }

    #[test]
    fn redefinition_invalidates_binding() {
        let mut f = Function::new("t", 1);
        let a = f.new_reg(Type::scalar(STy::I32));
        let b = f.new_reg(Type::scalar(STy::I32));
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Mov { ty: Type::scalar(STy::I32), dst: a, a: Value::ImmI(1) });
        // Redefine `a` from a non-constant source.
        blk.insts.push(Inst::Load {
            ty: STy::I32,
            space: crate::Space::Global,
            dst: a,
            addr: Value::ImmI(0),
        });
        blk.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: Type::scalar(STy::I32),
            signed: false,
            dst: b,
            a: Value::Reg(a),
            b: Value::ImmI(1),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        const_fold(&mut f);
        // The add must not be folded.
        assert!(matches!(&f.blocks[0].insts[2], Inst::Bin { .. }));
    }

    #[test]
    fn folds_unsigned_comparison() {
        let mut f = Function::new("t", 1);
        let p = f.new_reg(Type::scalar(STy::I1));
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Cmp {
            pred: CmpPred::Lt,
            ty: Type::scalar(STy::I32),
            signed: false,
            dst: p,
            a: Value::ImmI(-1), // 0xFFFF_FFFF unsigned
            b: Value::ImmI(0),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        const_fold(&mut f);
        match &f.blocks[0].insts[0] {
            Inst::Mov { a: Value::ImmI(0), .. } => {}
            other => panic!("unsigned -1 < 0 must be false, got {other:?}"),
        }
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let mut f = Function::new("t", 1);
        let a = f.new_reg(Type::scalar(STy::I32));
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Bin {
            op: BinOp::Div,
            ty: Type::scalar(STy::I32),
            signed: true,
            dst: a,
            a: Value::ImmI(1),
            b: Value::ImmI(0),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        const_fold(&mut f);
        assert!(matches!(&f.blocks[0].insts[0], Inst::Bin { .. }));
    }

    #[test]
    fn f32_rounding_is_applied() {
        let mut f = Function::new("t", 1);
        let a = f.new_reg(Type::scalar(STy::F32));
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: Type::scalar(STy::F32),
            signed: false,
            dst: a,
            a: Value::ImmF(0.1),
            b: Value::ImmF(0.2),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        const_fold(&mut f);
        match &f.blocks[0].insts[0] {
            Inst::Mov { a: Value::ImmF(v), .. } => {
                assert_eq!(*v, ((0.1f64 + 0.2f64) as f32) as f64);
            }
            other => panic!("expected folded mov, got {other:?}"),
        }
    }

    #[test]
    fn integers_fold_at_the_operation_width() {
        let i32s = Type::scalar(STy::I32);
        let d = VReg(0);
        let bin = |op, signed, a, b| Inst::Bin {
            op,
            ty: i32s,
            signed,
            dst: d,
            a: Value::ImmI(a),
            b: Value::ImmI(b),
        };
        let cmp = |pred, signed, a, b| Inst::Cmp {
            pred,
            ty: i32s,
            signed,
            dst: d,
            a: Value::ImmI(a),
            b: Value::ImmI(b),
        };
        let folded = |inst: Inst| fold(&inst).map(|(_, v)| v);
        // 0xFFFFFFFF + 1 wraps to 0 and 0 - 1 to 0xFFFFFFFF: results are
        // truncated, never left as 33-bit or negative raw values.
        assert_eq!(folded(bin(BinOp::Add, false, 0xFFFF_FFFF, 1)), Some(Value::ImmI(0)));
        assert_eq!(folded(bin(BinOp::Sub, false, 0, 1)), Some(Value::ImmI(0xFFFF_FFFF)));
        // Operands are read at 32 bits: -1 is 0xFFFFFFFF unsigned, and
        // 0xFFFFFFFF is -1 signed.
        assert_eq!(folded(bin(BinOp::Div, false, -1, 2)), Some(Value::ImmI(0x7FFF_FFFF)));
        assert_eq!(folded(cmp(CmpPred::Lt, true, 0xFFFF_FFFF, 0)), Some(Value::ImmI(1)));
        assert_eq!(folded(cmp(CmpPred::Eq, false, 1 << 32, 0)), Some(Value::ImmI(1)));
        assert_eq!(folded(bin(BinOp::Max, true, 0xFFFF_FFFF, 5)), Some(Value::ImmI(5)));
        // Shift amounts wrap at the width, as the machine's do.
        assert_eq!(folded(bin(BinOp::Shl, false, 1, 33)), Some(Value::ImmI(2)));
        assert_eq!(folded(bin(BinOp::Shr, true, -8, 1)), Some(Value::ImmI(0xFFFF_FFFC)));
        // Zero at the width is zero, whatever the upper bits say.
        assert_eq!(folded(bin(BinOp::Rem, false, 7, 1 << 32)), None);
    }
}
