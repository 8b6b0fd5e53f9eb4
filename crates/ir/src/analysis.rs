//! Data-flow analyses over IR functions: liveness and def-use counts.

use std::collections::HashSet;

use crate::function::Function;
use crate::inst::BlockId;
use crate::value::{VReg, Value};

/// Per-block register liveness for an IR function.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live on entry to each block.
    pub live_in: Vec<HashSet<VReg>>,
    /// Registers live on exit from each block.
    pub live_out: Vec<HashSet<VReg>>,
}

impl Liveness {
    /// Compute liveness with the standard backward iteration.
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        let mut gen_set: Vec<HashSet<VReg>> = Vec::with_capacity(n);
        let mut kill: Vec<HashSet<VReg>> = Vec::with_capacity(n);
        for b in &f.blocks {
            let mut g = HashSet::new();
            let mut k = HashSet::new();
            for inst in &b.insts {
                for v in inst.uses() {
                    if let Some(r) = v.as_reg() {
                        if !k.contains(&r) {
                            g.insert(r);
                        }
                    }
                }
                if let Some(d) = inst.dst() {
                    k.insert(d);
                }
            }
            for v in b.term.uses() {
                if let Some(r) = v.as_reg() {
                    if !k.contains(&r) {
                        g.insert(r);
                    }
                }
            }
            gen_set.push(g);
            kill.push(k);
        }
        let mut live_in: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
        let mut live_out: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let mut out = HashSet::new();
                for s in f.blocks[i].term.successors() {
                    out.extend(live_in[s.index()].iter().copied());
                }
                let mut inn: HashSet<VReg> = gen_set[i].clone();
                for &r in &out {
                    if !kill[i].contains(&r) {
                        inn.insert(r);
                    }
                }
                if out != live_out[i] || inn != live_in[i] {
                    live_out[i] = out;
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live on entry to `b`, sorted for deterministic iteration.
    pub fn live_in_sorted(&self, b: BlockId) -> Vec<VReg> {
        let mut v: Vec<VReg> = self.live_in[b.index()].iter().copied().collect();
        v.sort();
        v
    }
}

/// Registers live on entry to block 0, in index order: those some path
/// reads before any write. The same answer as
/// `Liveness::compute(f).live_in_sorted(BlockId(0))`, computed over
/// dense bit sets and for that one block only — cheap enough to run on
/// every specialization at decode time, where the full per-block hash
/// sets are not.
pub fn live_into_entry(f: &Function) -> Vec<VReg> {
    let words = f.regs.len().div_ceil(64);
    let n = f.blocks.len();
    if n == 0 || words == 0 {
        return Vec::new();
    }
    let bit = |r: VReg| (r.index() / 64, 1u64 << (r.index() % 64));
    // Per block, `words` words each: `killed` = written in the block;
    // `live` = live on entry, seeded with what the block reads before
    // writing it.
    let mut killed = vec![0u64; n * words];
    let mut live = vec![0u64; n * words];
    for (i, b) in f.blocks.iter().enumerate() {
        let (kill, exposed) = (&mut killed[i * words..][..words], &mut live[i * words..][..words]);
        let mut read = |v: &Value, kill: &[u64]| {
            if let Some(r) = v.as_reg() {
                let (w, m) = bit(r);
                if kill[w] & m == 0 {
                    exposed[w] |= m;
                }
            }
        };
        for inst in &b.insts {
            for v in inst.uses() {
                read(&v, kill);
            }
            if let Some(d) = inst.dst() {
                let (w, m) = bit(d);
                kill[w] |= m;
            }
        }
        for v in b.term.uses() {
            read(&v, kill);
        }
    }
    let succs: Vec<Vec<BlockId>> = f.blocks.iter().map(|b| b.term.successors()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            for s in &succs[i] {
                for w in 0..words {
                    let add = live[s.index() * words + w] & !killed[i * words + w];
                    let slot = &mut live[i * words + w];
                    changed |= add & !*slot != 0;
                    *slot |= add;
                }
            }
        }
    }
    (0..f.regs.len())
        .filter(|r| live[r / 64] & (1 << (r % 64)) != 0)
        .map(|r| VReg(r as u32))
        .collect()
}

/// Number of uses of each register across the whole function (including
/// terminators).
pub fn use_counts(f: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; f.regs.len()];
    for b in &f.blocks {
        for inst in &b.insts {
            for v in inst.uses() {
                if let Some(r) = v.as_reg() {
                    counts[r.index()] += 1;
                }
            }
        }
        for v in b.term.uses() {
            if let Some(r) = v.as_reg() {
                counts[r.index()] += 1;
            }
        }
    }
    counts
}

/// Maximum number of simultaneously live *vector* registers anywhere in
/// the function, computed per instruction point. The machine model uses
/// this to estimate register pressure (the paper's Table 1 shows the
/// width-8 collapse caused by exceeding the architectural register file).
pub fn max_live_vector_regs(f: &Function) -> usize {
    let lv = Liveness::compute(f);
    let is_vec = |r: VReg| f.reg_type(r).is_vector();
    let mut max = 0usize;
    for (i, b) in f.blocks.iter().enumerate() {
        // Walk backwards from live-out.
        let mut live: HashSet<VReg> =
            lv.live_out[i].iter().copied().filter(|&r| is_vec(r)).collect();
        max = max.max(live.len());
        for inst in b.insts.iter().rev() {
            if let Some(d) = inst.dst() {
                live.remove(&d);
            }
            for v in inst.uses() {
                if let Some(r) = v.as_reg() {
                    if is_vec(r) {
                        live.insert(r);
                    }
                }
            }
            max = max.max(live.len());
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Block;
    use crate::inst::{BinOp, Inst, Term};
    use crate::types::{STy, Type};
    use crate::value::Value;

    fn straightline() -> Function {
        let mut f = Function::new("t", 1);
        let a = f.new_reg(Type::scalar(STy::I32));
        let b = f.new_reg(Type::scalar(STy::I32));
        let c = f.new_reg(Type::scalar(STy::I32));
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Mov { ty: Type::scalar(STy::I32), dst: a, a: Value::ImmI(1) });
        blk.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: Type::scalar(STy::I32),
            signed: false,
            dst: b,
            a: Value::Reg(a),
            b: Value::ImmI(2),
        });
        blk.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: Type::scalar(STy::I32),
            signed: false,
            dst: c,
            a: Value::Reg(b),
            b: Value::Reg(a),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        f
    }

    #[test]
    fn straightline_has_empty_boundary_liveness() {
        let f = straightline();
        let lv = Liveness::compute(&f);
        assert!(lv.live_in[0].is_empty());
        assert!(lv.live_out[0].is_empty());
    }

    #[test]
    fn use_counts_count_all_uses() {
        let f = straightline();
        let counts = use_counts(&f);
        assert_eq!(counts[0], 2); // a used twice
        assert_eq!(counts[1], 1); // b used once
        assert_eq!(counts[2], 0); // c never used
    }

    #[test]
    fn loop_keeps_carried_register_live() {
        let mut f = Function::new("t", 1);
        let i = f.new_reg(Type::scalar(STy::I32));
        let p = f.new_reg(Type::scalar(STy::I1));
        let mut entry = Block::new("entry");
        entry.insts.push(Inst::Mov { ty: Type::scalar(STy::I32), dst: i, a: Value::ImmI(0) });
        let mut head = Block::new("head");
        head.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: Type::scalar(STy::I32),
            signed: false,
            dst: i,
            a: Value::Reg(i),
            b: Value::ImmI(1),
        });
        head.insts.push(Inst::Cmp {
            pred: crate::CmpPred::Lt,
            ty: Type::scalar(STy::I32),
            signed: true,
            dst: p,
            a: Value::Reg(i),
            b: Value::ImmI(10),
        });
        let e = f.add_block(entry);
        let h_placeholder = Block::new("placeholder");
        let h = f.add_block(h_placeholder);
        let mut done = Block::new("done");
        done.term = Term::Ret;
        let d = f.add_block(done);
        head.term = Term::CondBr { cond: Value::Reg(p), taken: h, fall: d };
        f.blocks[h.index()] = head;
        f.block_mut(e).term = Term::Br(h);

        let lv = Liveness::compute(&f);
        assert!(lv.live_in[h.index()].contains(&i));
        assert!(!lv.live_in[e.index()].contains(&i));
    }

    #[test]
    fn live_into_entry_matches_the_full_analysis() {
        // `x` is written on one arm only and read at the join, `never`
        // is read and written nowhere else, `i` is loop-carried but
        // initialised: only the first two are live into the entry.
        let t = Type::scalar(STy::I32);
        let mut f = Function::new("t", 1);
        let (i, x, never, out) = (f.new_reg(t), f.new_reg(t), f.new_reg(t), f.new_reg(t));
        let p = f.new_reg(Type::scalar(STy::I1));
        let add = |dst, a, b| Inst::Bin { op: BinOp::Add, ty: t, signed: false, dst, a, b };
        let mut entry = Block::new("entry");
        entry.insts.push(Inst::Mov { ty: t, dst: i, a: Value::ImmI(0) });
        entry.insts.push(Inst::Cmp {
            pred: crate::CmpPred::Lt,
            ty: t,
            signed: true,
            dst: p,
            a: Value::Reg(never),
            b: Value::ImmI(3),
        });
        let mut arm = Block::new("arm");
        arm.insts.push(Inst::Mov { ty: t, dst: x, a: Value::ImmI(7) });
        let mut join = Block::new("join");
        join.insts.push(add(out, Value::Reg(x), Value::Reg(i)));
        join.insts.push(add(i, Value::Reg(i), Value::ImmI(1)));
        let e = f.add_block(entry);
        let a = f.add_block(arm);
        let j = f.add_block(join);
        f.block_mut(e).term = Term::CondBr { cond: Value::Reg(p), taken: a, fall: j };
        f.block_mut(a).term = Term::Br(j);
        f.block_mut(j).term = Term::CondBr { cond: Value::Reg(p), taken: j, fall: a };

        assert_eq!(live_into_entry(&f), vec![x, never]);
        assert_eq!(live_into_entry(&f), Liveness::compute(&f).live_in_sorted(e));
        assert!(live_into_entry(&straightline()).is_empty());
        assert!(live_into_entry(&Function::new("empty", 1)).is_empty());
    }

    #[test]
    fn max_live_vectors_counts_only_vectors() {
        let mut f = Function::new("t", 4);
        let v1 = f.new_reg(Type::vector(STy::F32, 4));
        let v2 = f.new_reg(Type::vector(STy::F32, 4));
        let s = f.new_reg(Type::scalar(STy::F32));
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Splat { ty: Type::vector(STy::F32, 4), dst: v1, a: Value::ImmF(1.0) });
        blk.insts.push(Inst::Splat { ty: Type::vector(STy::F32, 4), dst: v2, a: Value::ImmF(2.0) });
        blk.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: Type::vector(STy::F32, 4),
            signed: false,
            dst: v1,
            a: Value::Reg(v1),
            b: Value::Reg(v2),
        });
        blk.insts.push(Inst::Extract {
            ty: Type::vector(STy::F32, 4),
            dst: s,
            vec: Value::Reg(v1),
            lane: 0,
        });
        blk.insts.push(Inst::Store {
            ty: STy::F32,
            space: crate::Space::Global,
            addr: Value::ImmI(0),
            value: Value::Reg(s),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        assert_eq!(max_live_vector_regs(&f), 2);
    }
}
