//! The one definition of each scalar operation, and the warp-call
//! contract.
//!
//! The bytecode engine's scalar µops call the functions below and its
//! chunked vector kernels transcribe them; every µop the JIT does not
//! template runs through them too. Values live in `u64` slots in their
//! zero-extension representation ([`mask_to`]); f32 operations are
//! defined through f64 ([`f_of`] widens, [`f_enc`] narrows).

use dpvk_ir::{AtomKind, BinOp, CmpPred, ResumeStatus, STy, UnOp, Value};

use std::time::Instant;

use crate::error::VmError;
use crate::memory::MemAccess;

/// Execution limits guarding against runaway kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum dynamic instructions per warp call.
    pub max_instructions: u64,
    /// Wall-clock instant after which execution fails with
    /// [`VmError::Deadline`]. `None` disables the deadline.
    pub deadline: Option<Instant>,
    /// How many interpreted instructions run between deadline and
    /// cancellation polls. Smaller values kill runaway kernels faster at
    /// slightly higher interpreter overhead.
    pub check_interval: u64,
}

impl ExecLimits {
    /// Limits with a wall-clock deadline `budget` from now.
    pub fn with_deadline(budget: std::time::Duration) -> Self {
        ExecLimits { deadline: Some(Instant::now() + budget), ..Self::default() }
    }
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits { max_instructions: 1 << 32, deadline: None, check_interval: 1024 }
    }
}

/// Outcome of one warp execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpOutcome {
    /// Why the warp yielded. Per-thread resume points have been written to
    /// the thread contexts.
    pub status: ResumeStatus,
}

/// Mask `bits` to the width of `sty` (zero-extension representation).
#[inline]
pub(crate) fn mask_to(bits: u64, sty: STy) -> u64 {
    match sty.bits() {
        1 => bits & 1,
        8 => bits & 0xFF,
        16 => bits & 0xFFFF,
        32 => bits & 0xFFFF_FFFF,
        _ => bits,
    }
}

/// Sign-extend the `sty`-width value in `bits` to i64.
#[inline]
pub(crate) fn sext(bits: u64, sty: STy) -> i64 {
    match sty.bits() {
        1 => {
            if bits & 1 != 0 {
                -1
            } else {
                0
            }
        }
        8 => bits as u8 as i8 as i64,
        16 => bits as u16 as i16 as i64,
        32 => bits as u32 as i32 as i64,
        _ => bits as i64,
    }
}

#[inline]
pub(crate) fn encode_imm(v: Value, sty: STy) -> u64 {
    match v {
        Value::ImmI(i) => mask_to(i as u64, sty),
        Value::ImmF(x) => match sty {
            STy::F32 => (x as f32).to_bits() as u64,
            STy::F64 => x.to_bits(),
            _ => mask_to(x as i64 as u64, sty),
        },
        Value::Reg(_) => unreachable!("encode_imm called on a register"),
    }
}

#[inline]
pub(crate) fn f_of(bits: u64, sty: STy) -> f64 {
    match sty {
        STy::F32 => f32::from_bits(bits as u32) as f64,
        STy::F64 => f64::from_bits(bits),
        _ => unreachable!("f_of on integer type"),
    }
}

/// Narrow `v` to `sty`'s encoding. An f32 NaN always comes out quiet, as
/// the hardware's narrowing leaves it; spelled out because a compiler may
/// fold a widen–narrow pair around an operation that only moves a value
/// (`-x`, `|x|`, a `min` returning an operand) into nothing at all, which
/// would let an sNaN through.
#[inline]
pub(crate) fn f_enc(v: f64, sty: STy) -> u64 {
    match sty {
        STy::F32 => {
            let bits = (v as f32).to_bits();
            (if v.is_nan() { bits | 0x0040_0000 } else { bits }) as u64
        }
        STy::F64 => v.to_bits(),
        _ => unreachable!("f_enc on integer type"),
    }
}

/// `x * y + z` rounded once, with NaN propagation pinned: the first NaN
/// of `x`, `y`, `z`, quieted. `mul_add` alone leaves which of two NaN
/// multiplicands wins to the compiler, which commutes them freely (a
/// debug and a release build disagreed); generated code's `vfmadd213`
/// with `x` as its second operand already follows this order.
#[inline]
pub(crate) fn fused_mul_add(x: f64, y: f64, z: f64) -> f64 {
    let r = x.mul_add(y, z);
    if !r.is_nan() {
        return r;
    }
    [x, y, z].into_iter().find(|v| v.is_nan()).map_or(r, |v| f64::from_bits(v.to_bits() | 1 << 51))
}

/// `x.min(y)`, or `x.max(y)` when `max`, with the two cases `f64::min`
/// leaves to the compiler's lowering pinned: a NaN operand is ignored (of
/// two NaNs the second is returned, unchanged), and of two operands that
/// compare equal (±0) the first is returned.
#[inline]
pub(crate) fn f_min_max(x: f64, y: f64, max: bool) -> f64 {
    if x.is_nan() {
        y
    } else if y.is_nan() || x == y || (x < y) != max {
        x
    } else {
        y
    }
}

pub(crate) fn scalar_bin(
    op: BinOp,
    sty: STy,
    signed: bool,
    a: u64,
    b: u64,
) -> Result<u64, VmError> {
    if sty.is_float() {
        let (x, y) = (f_of(a, sty), f_of(b, sty));
        let r = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Min => f_min_max(x, y, false),
            BinOp::Max => f_min_max(x, y, true),
            BinOp::And | BinOp::Or | BinOp::Xor => {
                let r = match op {
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    _ => a ^ b,
                };
                return Ok(mask_to(r, sty));
            }
            other => {
                return Err(VmError::Unsupported(format!("{other:?} on float type")));
            }
        };
        return Ok(f_enc(r, sty));
    }
    let bits = sty.bits().max(1);
    let shift_mask = (bits - 1).max(1) as u64;
    let r: u64 = match op {
        BinOp::Add => (sext(a, sty).wrapping_add(sext(b, sty))) as u64,
        BinOp::Sub => (sext(a, sty).wrapping_sub(sext(b, sty))) as u64,
        BinOp::Mul => (sext(a, sty).wrapping_mul(sext(b, sty))) as u64,
        BinOp::MulHi => {
            if signed {
                let p = (sext(a, sty) as i128) * (sext(b, sty) as i128);
                (p >> bits) as u64
            } else {
                let p = (mask_to(a, sty) as u128) * (mask_to(b, sty) as u128);
                (p >> bits) as u64
            }
        }
        BinOp::Div => {
            if mask_to(b, sty) == 0 {
                return Err(VmError::DivisionByZero);
            }
            if signed {
                sext(a, sty).wrapping_div(sext(b, sty)) as u64
            } else {
                mask_to(a, sty) / mask_to(b, sty)
            }
        }
        BinOp::Rem => {
            if mask_to(b, sty) == 0 {
                return Err(VmError::DivisionByZero);
            }
            if signed {
                sext(a, sty).wrapping_rem(sext(b, sty)) as u64
            } else {
                mask_to(a, sty) % mask_to(b, sty)
            }
        }
        BinOp::Min => {
            if signed {
                sext(a, sty).min(sext(b, sty)) as u64
            } else {
                mask_to(a, sty).min(mask_to(b, sty))
            }
        }
        BinOp::Max => {
            if signed {
                sext(a, sty).max(sext(b, sty)) as u64
            } else {
                mask_to(a, sty).max(mask_to(b, sty))
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => mask_to(a, sty) << (b & shift_mask),
        BinOp::Shr => {
            if signed {
                (sext(a, sty) >> (b & shift_mask)) as u64
            } else {
                mask_to(a, sty) >> (b & shift_mask)
            }
        }
    };
    Ok(mask_to(r, sty))
}

pub(crate) fn scalar_un(op: UnOp, sty: STy, a: u64) -> Result<u64, VmError> {
    if sty.is_float() {
        let x = f_of(a, sty);
        let r = match op {
            UnOp::Neg => -x,
            UnOp::Abs => x.abs(),
            UnOp::Sqrt => x.sqrt(),
            UnOp::Rsqrt => 1.0 / x.sqrt(),
            UnOp::Rcp => 1.0 / x,
            UnOp::Sin => x.sin(),
            UnOp::Cos => x.cos(),
            UnOp::Ex2 => x.exp2(),
            UnOp::Lg2 => x.log2(),
            UnOp::Not => return Err(VmError::Unsupported("not on float".into())),
        };
        return Ok(f_enc(r, sty));
    }
    let r = match op {
        UnOp::Neg => sext(a, sty).wrapping_neg() as u64,
        UnOp::Not => {
            if sty == STy::I1 {
                (a & 1) ^ 1
            } else {
                !a
            }
        }
        UnOp::Abs => sext(a, sty).wrapping_abs() as u64,
        other => return Err(VmError::Unsupported(format!("{other:?} on integer type"))),
    };
    Ok(mask_to(r, sty))
}

pub(crate) fn scalar_cmp(pred: CmpPred, sty: STy, signed: bool, a: u64, b: u64) -> u64 {
    let r = if sty.is_float() {
        let (x, y) = (f_of(a, sty), f_of(b, sty));
        match pred {
            CmpPred::Eq => x == y,
            CmpPred::Ne => x != y,
            CmpPred::Lt => x < y,
            CmpPred::Le => x <= y,
            CmpPred::Gt => x > y,
            CmpPred::Ge => x >= y,
        }
    } else if signed {
        let (x, y) = (sext(a, sty), sext(b, sty));
        match pred {
            CmpPred::Eq => x == y,
            CmpPred::Ne => x != y,
            CmpPred::Lt => x < y,
            CmpPred::Le => x <= y,
            CmpPred::Gt => x > y,
            CmpPred::Ge => x >= y,
        }
    } else {
        let (x, y) = (mask_to(a, sty), mask_to(b, sty));
        match pred {
            CmpPred::Eq => x == y,
            CmpPred::Ne => x != y,
            CmpPred::Lt => x < y,
            CmpPred::Le => x <= y,
            CmpPred::Gt => x > y,
            CmpPred::Ge => x >= y,
        }
    };
    r as u64
}

pub(crate) fn scalar_cvt(to: STy, from: STy, signed: bool, a: u64) -> u64 {
    if from.is_float() {
        let x = f_of(a, from);
        if to.is_float() {
            f_enc(x, to)
        } else if signed {
            mask_to((x as i64) as u64, to)
        } else {
            mask_to(x as u64, to)
        }
    } else {
        let v: i64 = if signed { sext(a, from) } else { mask_to(a, from) as i64 };
        if to.is_float() {
            if signed {
                f_enc(v as f64, to)
            } else {
                f_enc((v as u64) as f64, to)
            }
        } else {
            mask_to(v as u64, to)
        }
    }
}

/// Atomic read-modify-write. Within one execution manager the CTA's
/// threads are serialized, so shared and local RMWs are plain
/// read/modify/write; global ones go through the lock-free cells of
/// [`crate::GlobalMem`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn atom_rmw(
    mem: &mut MemAccess<'_>,
    ty: STy,
    space: dpvk_ir::Space,
    op: AtomKind,
    signed: bool,
    addr: u64,
    a: u64,
    b: Option<u64>,
) -> Result<u64, VmError> {
    let apply = move |old: u64| -> u64 {
        match op {
            AtomKind::Add => {
                if ty.is_float() {
                    f_enc(f_of(old, ty) + f_of(a, ty), ty)
                } else {
                    mask_to(old.wrapping_add(a), ty)
                }
            }
            AtomKind::Min => {
                if ty.is_float() {
                    f_enc(f_min_max(f_of(old, ty), f_of(a, ty), false), ty)
                } else if signed {
                    mask_to(sext(old, ty).min(sext(a, ty)) as u64, ty)
                } else {
                    mask_to(mask_to(old, ty).min(mask_to(a, ty)), ty)
                }
            }
            AtomKind::Max => {
                if ty.is_float() {
                    f_enc(f_min_max(f_of(old, ty), f_of(a, ty), true), ty)
                } else if signed {
                    mask_to(sext(old, ty).max(sext(a, ty)) as u64, ty)
                } else {
                    mask_to(mask_to(old, ty).max(mask_to(a, ty)), ty)
                }
            }
            AtomKind::Exch => mask_to(a, ty),
            AtomKind::Cas => {
                if mask_to(old, ty) == mask_to(a, ty) {
                    mask_to(b.unwrap_or(0), ty)
                } else {
                    old
                }
            }
        }
    };
    match space {
        dpvk_ir::Space::Global => match ty.size_bytes() {
            4 => Ok(mem.global.atomic_rmw_u32(addr, |v| apply(v as u64) as u32)? as u64),
            8 => mem.global.atomic_rmw_u64(addr, apply),
            n => Err(VmError::Unsupported(format!("{n}-byte atomic"))),
        },
        dpvk_ir::Space::Shared | dpvk_ir::Space::Local => {
            // Within one execution manager the CTA's threads are
            // serialized, so a plain read-modify-write is atomic.
            let old = mem.read(space, addr, ty.size_bytes())?;
            let new = apply(old);
            mem.write(space, addr, ty.size_bytes(), new)?;
            Ok(old)
        }
        other => Err(VmError::Unsupported(format!("atomic in {other:?} space"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_and_unsigned_semantics() {
        assert_eq!(scalar_bin(BinOp::Shr, STy::I32, true, 0xFFFF_FFF0, 4).unwrap(), 0xFFFF_FFFF);
        assert_eq!(scalar_bin(BinOp::Shr, STy::I32, false, 0xFFFF_FFF0, 4).unwrap(), 0x0FFF_FFFF);
        assert_eq!(scalar_cmp(CmpPred::Lt, STy::I32, true, (-1i32) as u32 as u64, 0), 1);
        assert_eq!(scalar_cmp(CmpPred::Lt, STy::I32, false, (-1i32) as u32 as u64, 0), 0);
        assert_eq!(
            scalar_bin(BinOp::Min, STy::I32, true, (-5i32) as u32 as u64, 3).unwrap(),
            (-5i32) as u32 as u64
        );
    }

    #[test]
    fn conversions() {
        // f32 -> i32 truncation.
        let bits = (3.7f32).to_bits() as u64;
        assert_eq!(scalar_cvt(STy::I32, STy::F32, true, bits), 3);
        // negative float to signed int.
        let bits = (-2.5f32).to_bits() as u64;
        assert_eq!(scalar_cvt(STy::I32, STy::F32, true, bits) as u32 as i32, -2);
        // u32 -> f32.
        let r = scalar_cvt(STy::F32, STy::I32, false, 0xFFFF_FFFF);
        assert_eq!(f32::from_bits(r as u32), 4294967295.0f32);
        // sign extension i16 -> i32.
        assert_eq!(scalar_cvt(STy::I32, STy::I16, true, 0x8000) as u32, 0xFFFF_8000);
    }
}
