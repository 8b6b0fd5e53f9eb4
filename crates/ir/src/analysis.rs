//! Data-flow analyses over IR functions: liveness and def-use counts.

use crate::function::Function;
use crate::inst::BlockId;
use crate::value::VReg;

/// Per-block register liveness for an IR function, as dense bit rows:
/// one row of `ceil(registers / 64)` words per block, bit `r` set when
/// register `r` is live. The one liveness analysis of the tree — the
/// translator's spill slots, the cost model's register pressure and the
/// decoder's entry-live ranges all read it.
#[derive(Debug, Clone)]
pub struct Liveness {
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Liveness {
    /// Compute liveness with the standard backward iteration.
    pub fn compute(f: &Function) -> Self {
        let words = f.regs.len().div_ceil(64);
        let n = f.blocks.len();
        let bit = |r: VReg| (r.index() / 64, 1u64 << (r.index() % 64));
        // Per block: `killed` = written in the block; `live_in` is seeded
        // with what the block reads before writing it.
        let mut killed = vec![0u64; n * words];
        let mut live_in = vec![0u64; n * words];
        for (i, b) in f.blocks.iter().enumerate() {
            let (kill, exposed) =
                (&mut killed[i * words..][..words], &mut live_in[i * words..][..words]);
            for inst in &b.insts {
                for r in inst.uses().iter().filter_map(|v| v.as_reg()) {
                    let (w, m) = bit(r);
                    exposed[w] |= m & !kill[w];
                }
                if let Some(d) = inst.dst() {
                    let (w, m) = bit(d);
                    kill[w] |= m;
                }
            }
            for r in b.term.uses().iter().filter_map(|v| v.as_reg()) {
                let (w, m) = bit(r);
                exposed[w] |= m & !kill[w];
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (i, b) in f.blocks.iter().enumerate().rev() {
                b.term.for_each_successor(|s| {
                    for w in 0..words {
                        let add = live_in[s.index() * words + w] & !killed[i * words + w];
                        let slot = &mut live_in[i * words + w];
                        changed |= add & !*slot != 0;
                        *slot |= add;
                    }
                });
            }
        }
        // Live out of a block is what its successors need on entry.
        let mut live_out = killed;
        live_out.fill(0);
        for (i, b) in f.blocks.iter().enumerate() {
            b.term.for_each_successor(|s| {
                for w in 0..words {
                    live_out[i * words + w] |= live_in[s.index() * words + w];
                }
            });
        }
        Liveness { words, live_in, live_out }
    }

    /// Bit row of the registers live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> &[u64] {
        &self.live_in[b.index() * self.words..][..self.words]
    }

    /// Bit row of the registers live on exit from `b`.
    pub fn live_out(&self, b: BlockId) -> &[u64] {
        &self.live_out[b.index() * self.words..][..self.words]
    }

    /// The registers whose bits are set in `row`, in index order.
    pub fn regs_of(row: &[u64]) -> impl Iterator<Item = VReg> + '_ {
        row.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let r = VReg((w * 64) as u32 + rest.trailing_zeros());
                    rest &= rest - 1;
                    r
                })
            })
        })
    }
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

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::function::Block;
    use crate::inst::{BinOp, Inst, Term};
    use crate::types::{STy, Type};
    use crate::value::Value;

    impl Liveness {
        /// Registers live on entry to `b`, in index order.
        fn live_in_sorted(&self, b: BlockId) -> Vec<VReg> {
            Self::regs_of(self.live_in(b)).collect()
        }
    }

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
        assert!(lv.live_in_sorted(BlockId(0)).is_empty());
        assert!(lv.live_out(BlockId(0)).iter().all(|&w| w == 0));
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
        assert!(lv.live_in_sorted(h).contains(&i));
        assert!(!lv.live_in_sorted(e).contains(&i));
        assert_eq!(Liveness::regs_of(lv.live_out(h)).collect::<Vec<_>>(), vec![i]);
    }

    #[test]
    fn entry_liveness_is_what_some_path_reads_before_writing() {
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

        assert_eq!(Liveness::compute(&f).live_in_sorted(e), vec![x, never]);
    }

    /// The textbook formulation over hash sets, kept here as the oracle
    /// for the dense rows.
    fn reference(f: &Function) -> (Vec<HashSet<VReg>>, Vec<HashSet<VReg>>) {
        let n = f.blocks.len();
        let (mut live_in, mut live_out) = (vec![HashSet::new(); n], vec![HashSet::new(); n]);
        let mut changed = true;
        while changed {
            changed = false;
            for (i, b) in f.blocks.iter().enumerate().rev() {
                let out: HashSet<VReg> =
                    b.term.successors().iter().flat_map(|s| live_in[s.index()].clone()).collect();
                let mut live = out.clone();
                live.extend(b.term.uses().iter().filter_map(|v| v.as_reg()));
                for inst in b.insts.iter().rev() {
                    if let Some(d) = inst.dst() {
                        live.remove(&d);
                    }
                    live.extend(inst.uses().iter().filter_map(|v| v.as_reg()));
                }
                changed |= live != live_in[i] || out != live_out[i];
                (live_in[i], live_out[i]) = (live, out);
            }
        }
        (live_in, live_out)
    }

    #[test]
    fn dense_rows_equal_the_hash_set_reference_on_random_cfgs() {
        // Seeded: loops, switches, redefinitions, and more registers than
        // one word holds.
        let mut state = 0x11fe_5eed_u64;
        let mut next = move |bound: u64| crate::testing::draw(&mut state, bound);
        let t = Type::scalar(STy::I32);
        for case in 0..200 {
            let mut f = Function::new("random", 1);
            let nregs = 1 + next(150);
            let regs: Vec<VReg> = (0..nregs).map(|_| f.new_reg(t)).collect();
            let nblocks = 1 + next(9);
            for b in 0..nblocks {
                let mut blk = Block::new(format!("b{b}"));
                for _ in 0..next(8) {
                    let mut pick = || Value::Reg(regs[next(nregs) as usize]);
                    let (a, b) = (pick(), pick());
                    let dst = pick().as_reg().unwrap();
                    blk.insts.push(Inst::Bin { op: BinOp::Add, ty: t, signed: false, dst, a, b });
                }
                let mut target = || BlockId(next(nblocks) as u32);
                let (x, y, z) = (target(), target(), target());
                let value = Value::Reg(regs[next(nregs) as usize]);
                blk.term = match next(4) {
                    0 => Term::Ret,
                    1 => Term::Br(x),
                    2 => Term::CondBr { cond: value, taken: x, fall: y },
                    _ => Term::Switch { value, cases: vec![(0, x), (1, y)], default: z },
                };
                f.add_block(blk);
            }
            let lv = Liveness::compute(&f);
            let (live_in, live_out) = reference(&f);
            for b in 0..nblocks as usize {
                let id = BlockId(b as u32);
                let sorted = |set: &HashSet<VReg>| {
                    let mut v: Vec<VReg> = set.iter().copied().collect();
                    v.sort();
                    v
                };
                assert_eq!(lv.live_in_sorted(id), sorted(&live_in[b]), "case {case} block {b}");
                assert_eq!(
                    Liveness::regs_of(lv.live_out(id)).collect::<Vec<_>>(),
                    sorted(&live_out[b]),
                    "case {case} block {b}"
                );
            }
        }
    }
}
