//! Dead-code elimination.

use crate::analysis::use_counts;
use crate::function::Function;

/// Remove instructions that define a register with no uses anywhere in the
/// function and have no side effects, to a fixpoint (removing one dead
/// instruction can make its operands dead). Returns the number of
/// instructions removed.
///
/// Uses are counted once; each block is then swept backwards and a
/// removed instruction gives its operands' counts back, so a dead chain
/// dies in the sweep that reaches its tail. Only a definition that sits
/// after its last reader in sweep order (a loop-carried value, say) needs
/// another sweep.
///
/// The pass is conservative in the presence of register redefinition: a
/// definition is only removed when *no* use of the register exists
/// anywhere, which is sound without SSA form.
pub fn dead_code_elimination(f: &mut Function) -> usize {
    let mut counts = use_counts(f);
    let mut removed_total = 0;
    loop {
        let mut removed = 0;
        for b in f.blocks.iter_mut().rev() {
            // Survivors compact towards the end in order; the dead pile
            // up in front of `kept` and are dropped together.
            let mut kept = b.insts.len();
            for i in (0..b.insts.len()).rev() {
                let inst = &b.insts[i];
                let dead = !inst.has_side_effects()
                    && !inst.reads_memory()
                    && matches!(inst.dst(), Some(d) if counts[d.index()] == 0);
                if dead {
                    for r in inst.uses().iter().filter_map(|v| v.as_reg()) {
                        counts[r.index()] -= 1;
                    }
                    removed += 1;
                } else {
                    kept -= 1;
                    b.insts.swap(i, kept);
                }
            }
            b.insts.drain(..kept);
        }
        removed_total += removed;
        if removed == 0 {
            break;
        }
    }
    removed_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Block;
    use crate::inst::{BinOp, Inst, Space, Term};
    use crate::types::{STy, Type};
    use crate::value::Value;

    #[test]
    fn removes_transitively_dead_chain() {
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
            b: Value::ImmI(1),
        });
        blk.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: Type::scalar(STy::I32),
            signed: false,
            dst: c,
            a: Value::Reg(b),
            b: Value::ImmI(1),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        let removed = dead_code_elimination(&mut f);
        assert_eq!(removed, 3);
        assert_eq!(f.instruction_count(), 0);
    }

    #[test]
    fn keeps_stores_and_their_operands() {
        let mut f = Function::new("t", 1);
        let a = f.new_reg(Type::scalar(STy::F32));
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Mov { ty: Type::scalar(STy::F32), dst: a, a: Value::ImmF(1.0) });
        blk.insts.push(Inst::Store {
            ty: STy::F32,
            space: Space::Global,
            addr: Value::ImmI(0),
            value: Value::Reg(a),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        assert_eq!(dead_code_elimination(&mut f), 0);
        assert_eq!(f.instruction_count(), 2);
    }

    #[test]
    fn keeps_loads_with_unused_results() {
        // A load may fault or have timing effects in the model; keep it.
        let mut f = Function::new("t", 1);
        let a = f.new_reg(Type::scalar(STy::F32));
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Load {
            ty: STy::F32,
            space: Space::Global,
            dst: a,
            addr: Value::ImmI(0),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        assert_eq!(dead_code_elimination(&mut f), 0);
    }

    /// The definition this pass replaced: recount every use after every
    /// sweep until a sweep removes nothing.
    fn recount_to_fixpoint(f: &mut Function) -> usize {
        let mut removed_total = 0;
        loop {
            let counts = use_counts(f);
            let before = f.instruction_count();
            for b in &mut f.blocks {
                b.insts.retain(|inst| {
                    inst.has_side_effects()
                        || inst.reads_memory()
                        || !matches!(inst.dst(), Some(d) if counts[d.index()] == 0)
                });
            }
            let removed = before - f.instruction_count();
            removed_total += removed;
            if removed == 0 {
                return removed_total;
            }
        }
    }

    #[test]
    fn removes_what_the_recounting_reference_removes_in_order() {
        // Random blocks of adds, loads and stores over few registers, so
        // chains, redefinitions, self-uses and cross-block uses all occur;
        // instructions stay distinguishable by their immediate.
        let mut state = 0xdce_5eed_u64;
        let mut next = move |bound: u64| crate::testing::draw(&mut state, bound);
        let t = Type::scalar(STy::I32);
        let mut removed_anything = false;
        for case in 0..300 {
            let mut f = Function::new("random", 1);
            let nregs = 2 + next(12);
            let regs: Vec<_> = (0..nregs).map(|_| f.new_reg(t)).collect();
            let nblocks = 1 + next(4);
            let mut serial = 0;
            for b in 0..nblocks {
                let mut blk = Block::new(format!("b{b}"));
                for _ in 0..next(12) {
                    serial += 1;
                    let kind = next(8);
                    let mut reg = || regs[next(nregs) as usize];
                    blk.insts.push(match kind {
                        0 => Inst::Store {
                            ty: STy::I32,
                            space: Space::Global,
                            addr: Value::ImmI(serial),
                            value: Value::Reg(reg()),
                        },
                        1 => Inst::Load {
                            ty: STy::I32,
                            space: Space::Global,
                            dst: reg(),
                            addr: Value::Reg(reg()),
                        },
                        _ => Inst::Bin {
                            op: BinOp::Add,
                            ty: t,
                            signed: false,
                            dst: reg(),
                            a: Value::Reg(reg()),
                            b: Value::ImmI(serial),
                        },
                    });
                }
                blk.term = if b + 1 < nblocks {
                    Term::CondBr {
                        cond: Value::Reg(regs[next(nregs) as usize]),
                        taken: crate::BlockId(next(nblocks) as u32),
                        fall: crate::BlockId(b as u32 + 1),
                    }
                } else {
                    Term::Ret
                };
                f.add_block(blk);
            }
            let mut expected = f.clone();
            let expected_removed = recount_to_fixpoint(&mut expected);
            assert_eq!(dead_code_elimination(&mut f), expected_removed, "case {case}");
            assert_eq!(f, expected, "case {case}");
            removed_anything |= expected_removed > 0;
        }
        assert!(removed_anything);
    }
}
