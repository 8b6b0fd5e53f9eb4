//! Shrinks a generated kernel while a failure persists: delete a
//! statement, unwrap a region (an `if`'s arm or a loop's body in place
//! of the statement), narrow a constant or the launch, one step at a
//! time, biggest steps first, until no step keeps the failure.
//!
//! Every step keeps the generator's guarantees: a barrier only ever
//! moves out of CTA-uniform control into the enclosing CTA-uniform
//! context, an exchange stays whole, and no divisor narrows to zero.

use super::gen::{Cond, Kernel, Src, Stmt, Trips};

/// The smallest kernel reachable from `k` through steps on which `fails`
/// holds. After a step succeeds the search resumes at the same position
/// of the new kernel's candidates, and stops once a whole round of them
/// has failed.
pub fn shrink(mut k: Kernel, fails: impl Fn(&Kernel) -> bool) -> Kernel {
    let (mut at, mut since) = (0, 0);
    loop {
        let candidates = candidates(&k);
        if since >= candidates.len() {
            return k;
        }
        at %= candidates.len();
        if fails(&candidates[at]) {
            k = candidates[at].clone();
            since = 0;
        } else {
            at += 1;
            since += 1;
        }
    }
}

/// Every kernel one step smaller than `k`.
fn candidates(k: &Kernel) -> Vec<Kernel> {
    let mut out: Vec<Kernel> =
        variants(&k.body).into_iter().map(|body| Kernel { body, ..k.clone() }).collect();
    if k.ctas > 1 {
        out.push(Kernel { ctas: 1, ..k.clone() });
    }
    for threads in [1, 2, 4, 8].into_iter().filter(|&t| t < k.threads) {
        out.push(Kernel { threads, ..k.clone() });
    }
    out
}

/// One step applied somewhere in `stmts`: deletions of halves, quarters
/// … down to single statements and unwraps at this level first, then
/// steps inside each statement.
fn variants(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    let splice = |at: std::ops::Range<usize>, middle: Vec<Stmt>| {
        let mut v = stmts[..at.start].to_vec();
        v.extend(middle);
        v.extend_from_slice(&stmts[at.end..]);
        v
    };
    let with = |i: usize, middle: Vec<Stmt>| splice(i..i + 1, middle);
    let mut chunk = stmts.len() / 2;
    while chunk > 1 {
        for start in (0..stmts.len()).step_by(chunk) {
            out.push(splice(start..(start + chunk).min(stmts.len()), Vec::new()));
        }
        chunk /= 2;
    }
    for (i, s) in stmts.iter().enumerate() {
        out.push(with(i, Vec::new()));
        match s {
            Stmt::If { then, els, .. } => {
                out.push(with(i, then.clone()));
                out.push(with(i, els.clone()));
            }
            Stmt::Loop { body, .. } => out.push(with(i, body.clone())),
            _ => {}
        }
    }
    for (i, s) in stmts.iter().enumerate() {
        for smaller in inner(s) {
            out.push(with(i, vec![smaller]));
        }
    }
    out
}

/// `s` one step smaller inside: a step in a nested block, or a narrower
/// constant.
fn inner(s: &Stmt) -> Vec<Stmt> {
    let mut out = Vec::new();
    match s {
        Stmt::If { cond, then, els } => {
            for then in variants(then) {
                out.push(Stmt::If { cond: cond.clone(), then, els: els.clone() });
            }
            for els in variants(els) {
                out.push(Stmt::If { cond: cond.clone(), then: then.clone(), els });
            }
            for cond in narrow_cond(cond) {
                out.push(Stmt::If { cond, then: then.clone(), els: els.clone() });
            }
        }
        Stmt::Loop { trips, body } => {
            for body in variants(body) {
                out.push(Stmt::Loop { trips: trips.clone(), body });
            }
            if let Trips::Uniform(k @ 1..) = trips {
                out.push(Stmt::Loop { trips: Trips::Uniform(k - 1), body: body.clone() });
            }
        }
        Stmt::Op { guard, mnemonic, dst, srcs } => {
            if guard.is_some() {
                out.push(Stmt::Op {
                    guard: None,
                    mnemonic: mnemonic.clone(),
                    dst: *dst,
                    srcs: srcs.clone(),
                });
            }
            let divisor =
                |i: usize| i == 1 && (mnemonic.starts_with("div") || mnemonic.starts_with("rem"));
            for (i, src) in srcs.iter().enumerate() {
                for narrow in
                    narrow_src(src).into_iter().filter(|n| !divisor(i) || *n != Src::Int(0))
                {
                    let mut srcs = srcs.clone();
                    srcs[i] = narrow;
                    out.push(Stmt::Op {
                        guard: *guard,
                        mnemonic: mnemonic.clone(),
                        dst: *dst,
                        srcs,
                    });
                }
            }
        }
        Stmt::Load { dst, index, offset } if *offset != 0 => {
            out.push(Stmt::Load { dst: *dst, index: index.clone(), offset: 0 });
        }
        Stmt::Exchange { src, dst, offset } if *offset != 1 => {
            out.push(Stmt::Exchange { src: *src, dst: *dst, offset: 1 });
        }
        Stmt::Exit(cond) => out.extend(narrow_cond(cond).into_iter().map(Stmt::Exit)),
        _ => {}
    }
    out
}

fn narrow_cond(cond: &Cond) -> Vec<Cond> {
    match cond {
        Cond::Setp { cmp, ty, a, b } => {
            narrow_src(b).into_iter().map(|b| Cond::Setp { cmp, ty, a: a.clone(), b }).collect()
        }
        Cond::Pred(..) => Vec::new(),
    }
}

/// Narrower immediates: 0, and 1 unless already 0 or 1 (so narrowing
/// never goes round in a circle).
fn narrow_src(src: &Src) -> Vec<Src> {
    match *src {
        Src::Int(i) => [0, 1]
            .into_iter()
            .filter(|&n| n < i.unsigned_abs())
            .map(|n| Src::Int(n as i64))
            .collect(),
        Src::Float(x) => [0.0, 1.0].into_iter().filter(|&n| n < x.abs()).map(Src::Float).collect(),
        _ => Vec::new(),
    }
}
