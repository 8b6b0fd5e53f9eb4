//! The one definition of the f32 transcendentals `sin`, `cos`, `ex2` and
//! `lg2`.
//!
//! Each is evaluated in f64 with plain IEEE multiplies and adds — no
//! fused multiply-add, no host math library — and narrowed to f32 once,
//! so the result is the same bits on every host. The bytecode engine
//! ([`crate::semantics`]), the JIT's slow sites and the reference
//! evaluator call the functions below; the JIT's templates
//! (`jit/emit.rs`) compute the same operations in the same order on two
//! lanes per xmm register, over the part of the domain that
//! [`template_domain`] describes. f64 `sin`/`cos`/`ex2`/`lg2` are not
//! defined here: they stay the host's `f64` methods.
//!
//! * `sin`/`cos`: `n = round_ties_even(x · 2/π)`; Cody–Waite reduction
//!   `r = ((x − n·P1) − n·P2) − n·P3` with π/2 split into 33 + 33 + 53
//!   bits, exact for `|x| ≤` [`SIN_COS_RANGE`]; then `sin r = r·(1 +
//!   s·S(s))` and `cos r = 1 + s·C(s)` with `s = r²`, selected and
//!   negated by the quadrant `n mod 4`. Beyond the range a Payne–Hanek
//!   reduction against 224 bits of 2/π does the reduction instead.
//! * `ex2`: `x` clamped to ±[`EX2_CLAMP`] (past which every f32 result
//!   is 0 or +Inf anyway), split into `n + f` with `|f| ≤ ½`, `2^f` by a
//!   polynomial, times `2^n` built from exponent bits.
//! * `lg2`: `x = 2^e · m` with `m ∈ [√½, √2)`, `s = (m − 1)/(m + 1)`,
//!   `log2 m = (s · A(s²)) · 2/ln 2` with `A` the atanh series.
//!
//! The polynomials are Taylor (and atanh) series cut where the next term
//! falls below an f64 ulp of the result; the coefficients are computed
//! below from their closed forms, in f64.

use dpvk_ir::{STy, UnOp};

use crate::semantics::f_enc;

/// The `|x|` up to which `sin`/`cos` reduce by Cody–Waite, and the JIT
/// templates them: `n · P1` and `n · P2` are exact while `|n| < 2^20`.
pub(crate) const SIN_COS_RANGE: f64 = 65536.0;

/// `ex2` clamps its argument to `±EX2_CLAMP`: 2^200 narrows to +Inf and
/// 2^-200 to +0, as the unclamped value would.
pub(crate) const EX2_CLAMP: f64 = 200.0;

/// π/2 · 2^124, truncated: the bits Cody–Waite's three parts come from.
const FRAC_PI_2_BITS: u128 = 0x1921_FB54_442D_1846_9898_CC51_701B_839A;

/// 2/π · 2^224, truncated, most significant word first: the bits the
/// Payne–Hanek reduction multiplies large arguments by.
const FRAC_2_PI_WORDS: [u32; 7] =
    [0xA2F9_836E, 0x4E44_1529, 0xFC27_57D1, 0xF534_DDC0, 0xDB62_9599, 0x3C43_9041, 0xFE51_63AB];

/// π/2 = P1 + P2 + P3: the leading 33 significant bits, the next 33 and
/// the rest rounded to f64.
pub(crate) const P1: f64 = (FRAC_PI_2_BITS >> 92) as f64 / (1u64 << 32) as f64;
pub(crate) const P2: f64 = ((FRAC_PI_2_BITS >> 59) & ((1 << 33) - 1)) as f64 / (1u128 << 65) as f64;
pub(crate) const P3: f64 = (FRAC_PI_2_BITS & ((1 << 59) - 1)) as f64 / (1u128 << 124) as f64;

pub(crate) const FRAC_2_PI: f64 = std::f64::consts::FRAC_2_PI;

/// `sin r = r · (1 + s · S(s))`, `S(s) = Σ_{k=1..8} (−1)^k s^{k−1} /
/// (2k+1)!`, lowest degree first. The first term left out, r¹⁹/19!, is
/// 2⁻⁶² at r = π/4.
pub(crate) const SIN: [f64; 8] = series(3, 2, -1.0, false);

/// `cos r = 1 + s · C(s)`, `C(s) = Σ_{k=1..8} (−1)^k s^{k−1} / (2k)!`.
/// The first term left out, r¹⁸/18!, is 2⁻⁵⁸ at r = π/4.
pub(crate) const COS: [f64; 8] = series(2, 2, -1.0, false);

/// `2^f = Σ_{k=0..13} (f ln 2)^k / k!`; the term left out is 2⁻⁵⁷ at
/// |f| = ½.
pub(crate) const EX2: [f64; 14] = series(0, 1, 1.0, true);

/// `atanh s = s · Σ_{k=0..10} s^{2k} / (2k+1)`; the term left out is
/// 2⁻⁶⁰ at s = (√2 − 1)/(√2 + 1).
pub(crate) const LG2: [f64; 11] = {
    let mut c = [0.0; 11];
    let mut k = 0;
    while k < 11 {
        c[k] = 1.0 / (2 * k + 1) as f64;
        k += 1;
    }
    c
};

/// 2 / ln 2: `log2 m = 2 atanh(s) / ln 2`.
pub(crate) const LG2_SCALE: f64 = 2.0 * std::f64::consts::LOG2_E;

/// √2 rounded: `lg2` halves a mantissa at or above it.
pub(crate) const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// `N` Taylor coefficients `±c^j / j!` for `j = first, first + step, …`,
/// `c = ln 2` when `ln2` and 1 otherwise; alternating from `−` when
/// `sign < 0`: the series of `sin`, `cos` and `exp` in the forms above.
const fn series<const N: usize>(first: u64, step: u64, sign: f64, ln2: bool) -> [f64; N] {
    let mut c = [0.0; N];
    let mut k = 0;
    while k < N {
        let j = first + step * k as u64;
        let mut v = 1.0;
        let mut i = 1;
        while i <= j {
            v = v * (if ln2 { std::f64::consts::LN_2 } else { 1.0 }) / i as f64;
            i += 1;
        }
        let negative = sign < 0.0 && k % 2 == 0;
        c[k] = if negative { -v } else { v };
        k += 1;
    }
    c
}

/// `Σ c[k] · x^k` by Horner's rule from the top: `(c[n]·x + c[n−1])·x
/// + …`. The JIT evaluates it in this order.
#[inline(always)]
pub(crate) fn horner(x: f64, c: &[f64]) -> f64 {
    let (last, rest) = c.split_last().expect("a polynomial has a coefficient");
    rest.iter().rev().fold(*last, |p, &k| p * x + k)
}

/// Which inputs a JIT template computes itself; the rest take its slow
/// site, which calls the functions below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Domain {
    /// `|x| ≤ bound`.
    Abs(f64),
    /// Every x but NaN.
    Ordered,
    /// `0 < x ≤ f64::MAX`.
    PositiveFinite,
}

/// The domain of `op`'s template.
pub(crate) fn template_domain(op: UnOp) -> Domain {
    match op {
        UnOp::Sin | UnOp::Cos => Domain::Abs(SIN_COS_RANGE),
        UnOp::Ex2 => Domain::Ordered,
        _ => Domain::PositiveFinite,
    }
}

/// Whether `op` is one of the four defined here.
pub(crate) fn is_transcendental(op: UnOp) -> bool {
    matches!(op, UnOp::Sin | UnOp::Cos | UnOp::Ex2 | UnOp::Lg2)
}

/// `op` of the f32 value `x` (widened), before the narrowing. Total:
/// every input, NaN and ±Inf included, has one result.
pub(crate) fn eval(op: UnOp, x: f64) -> f64 {
    match op {
        UnOp::Sin => sin_cos(x, 0),
        UnOp::Cos => sin_cos(x, 1),
        UnOp::Ex2 => ex2_wide(x),
        UnOp::Lg2 => lg2_wide(x),
        other => unreachable!("{other:?} is not an f32 transcendental"),
    }
}

/// `sin` (`quarter = 0`) or `cos` (`quarter = 1`, a quarter turn on).
fn sin_cos(x: f64, quarter: i64) -> f64 {
    if !x.is_finite() {
        return if x.is_nan() { x } else { f64::NAN };
    }
    let (n, r) = if x.abs() <= SIN_COS_RANGE {
        // `+ 0.0` turns a `-0` quadrant into `+0`, so `x - n·P1` keeps
        // the sign of a zero `x`.
        let n = (x * FRAC_2_PI).round_ties_even() + 0.0;
        (n as i64, x - n * P1 - n * P2 - n * P3)
    } else {
        payne_hanek(x)
    };
    let s = r * r;
    let sin = r * (1.0 + s * horner(s, &SIN));
    let cos = 1.0 + s * horner(s, &COS);
    let q = n + quarter;
    let v = if q & 1 == 0 { sin } else { cos };
    if q & 2 == 0 {
        v
    } else {
        -v
    }
}

/// `(n, r)` with `x = n·π/2 + r`, `|r| ≤ π/4`, for a finite f32 value
/// `x`: `x = M · 2^E` with `M < 2^24`, so the product of `M` with the 96
/// bits of 2/π from weight `2^{1−E}` on holds the last two bits of the
/// quadrant and 94 fraction bits (the bits before it add multiples of 4
/// quarter turns; the ones after, under 2^−70).
fn payne_hanek(x: f64) -> (i64, f64) {
    let bits = x.abs().to_bits();
    let exp = (bits >> 52) as i32 - 1075;
    let mant = (bits & ((1 << 52) - 1)) | 1 << 52;
    let (m, e) = ((mant >> 29) as u128, exp + 29);
    let mut w: u128 = 0;
    for i in e - 1..e + 95 {
        let bit = if i < 1 {
            0
        } else {
            let i = i as usize - 1;
            (FRAC_2_PI_WORDS[i / 32] >> (31 - i % 32)) & 1
        };
        w = w << 1 | bit as u128;
    }
    let p = m * w;
    let mut q = (p >> 94) as i64 & 3;
    let mut frac = (p & ((1 << 94) - 1)) as i128;
    if frac >= 1 << 93 {
        frac -= 1 << 94;
        q += 1;
    }
    let r = frac as f64 / (1u128 << 94) as f64 * std::f64::consts::FRAC_PI_2;
    if x < 0.0 {
        (-q, -r)
    } else {
        (q, r)
    }
}

fn ex2_wide(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let x = x.clamp(-EX2_CLAMP, EX2_CLAMP);
    let n = x.round_ties_even();
    let f = x - n;
    horner(f, &EX2) * f64::from_bits(((n as i64 + 1023) as u64) << 52)
}

fn lg2_wide(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x < 0.0 {
        return f64::NAN;
    }
    if x == f64::INFINITY {
        return x;
    }
    // Positive and finite: an f32 subnormal is a normal f64.
    let bits = x.to_bits();
    let m = f64::from_bits(bits & ((1 << 52) - 1) | 1.0f64.to_bits());
    let big = m >= SQRT_2;
    let m = if big { m * 0.5 } else { m };
    let e = ((bits >> 52) as i64 - 1023 + big as i64) as f64;
    let s = (m - 1.0) / (m + 1.0);
    e + (s * horner(s * s, &LG2)) * LG2_SCALE
}

fn narrow(op: UnOp, x: f32) -> f32 {
    f32::from_bits(f_enc(eval(op, x as f64), STy::F32) as u32)
}

/// `sin x` as every engine computes `sin.f32`.
pub fn sin(x: f32) -> f32 {
    narrow(UnOp::Sin, x)
}

/// `cos x` as every engine computes `cos.f32`.
pub fn cos(x: f32) -> f32 {
    narrow(UnOp::Cos, x)
}

/// `2^x` as every engine computes `ex2.f32`.
pub fn ex2(x: f32) -> f32 {
    narrow(UnOp::Ex2, x)
}

/// `log2 x` as every engine computes `lg2.f32`.
pub fn lg2(x: f32) -> f32 {
    narrow(UnOp::Lg2, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two bit tables come from one computation of π; their top 64
    /// bits must multiply to 1 within the truncation of both.
    #[test]
    fn the_pi_tables_agree() {
        let half_pi = (FRAC_PI_2_BITS >> 61) as u64; // π/2 · 2^63
        let two_over_pi = (FRAC_2_PI_WORDS[0] as u64) << 32 | FRAC_2_PI_WORDS[1] as u64; // · 2^64
        let one = 1u128 << 127;
        let p = half_pi as u128 * two_over_pi as u128;
        assert!(one - p < 1 << 66, "{:#x}", one - p);
        assert_eq!(P1 + P2 + P3, std::f64::consts::FRAC_PI_2);
        assert_eq!(P1.to_bits(), 0x3FF9_21FB_5440_0000);
        assert_eq!(P2.to_bits() & ((1 << 19) - 1), 0, "P2 has at most 33 bits");
    }

    #[test]
    fn coefficients_are_the_series() {
        assert_eq!(SIN[0], -1.0 / 6.0);
        assert_eq!(SIN[1], 1.0 / 120.0);
        assert_eq!(COS[0], -0.5);
        assert_eq!(COS[1], 1.0 / 24.0);
        assert_eq!(EX2[0], 1.0);
        assert_eq!(EX2[1], std::f64::consts::LN_2);
        assert_eq!(LG2[1], 1.0 / 3.0);
    }

    /// Within one f32 ulp of the host's f64 functions, bounded, and on
    /// both sides of the reduction switch.
    #[test]
    fn close_to_the_host_library() {
        let ulps = |a: f32, b: f32| (a.to_bits() as i64 - b.to_bits() as i64).abs();
        let mut x = 1.0e-6f32;
        while x < 3.0e38 {
            for v in [x, -x] {
                let w = v as f64;
                assert!(ulps(sin(v), w.sin() as f32) <= 1, "sin({v:e})");
                assert!(ulps(cos(v), w.cos() as f32) <= 1, "cos({v:e})");
                assert!(sin(v).abs() <= 1.0 && cos(v).abs() <= 1.0);
                if v > 0.0 {
                    assert!(ulps(lg2(v), w.log2() as f32) <= 1, "lg2({v:e})");
                }
                if v.abs() < 300.0 {
                    assert!(ulps(ex2(v), w.exp2() as f32) <= 1, "ex2({v:e})");
                }
            }
            x *= 1.0137;
        }
        let b = SIN_COS_RANGE as f32;
        for v in [b, f32::from_bits(b.to_bits() + 1), f32::from_bits(b.to_bits() - 1)] {
            assert!(ulps(sin(v), (v as f64).sin() as f32) <= 1, "sin({v})");
        }
    }
}
