//! Block-local common-subexpression elimination with copy propagation.
//!
//! This is the pass that implements the paper's *thread-invariant
//! expression elimination* payoff (Section 6.2): after static warp
//! formation rewrites lane-k context reads of CTA-uniform fields to lane-0
//! reads, the replicated per-lane expressions become textually identical
//! and are removed here.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::function::Function;
use crate::inst::{BinOp, CmpPred, CtxField, Inst, ReduceOp, Space, UnOp};
use crate::types::{STy, Type};
use crate::value::{VReg, Value};

/// One operand of a keyed expression: registers resolve to
/// `(register, version)` pairs so redefinitions invalidate entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OperandKey {
    None,
    Reg(VReg, u32),
    ImmI(i64),
    ImmF(u64),
}

impl OperandKey {
    /// The operand as one word for the hasher. Two kinds may share a
    /// word; equality, not the hash, decides a match.
    fn word(self) -> u64 {
        match self {
            OperandKey::None => 0,
            OperandKey::Reg(r, version) => (u64::from(r.0) << 32 | u64::from(version)) ^ 1 << 63,
            OperandKey::ImmI(i) => i as u64,
            OperandKey::ImmF(bits) => bits.rotate_left(29),
        }
    }
}

/// Everything about a pure instruction except its operands and its
/// destination: two instructions compute the same value exactly when
/// their shapes and their operand keys are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    Bin(BinOp, Type, bool),
    Un(UnOp, Type),
    Fma(Type),
    Cmp(CmpPred, Type, bool),
    Select(Type),
    Cvt {
        to: STy,
        from: STy,
        signed: bool,
        width: u32,
    },
    Insert(Type, u32),
    Extract(Type, u32),
    Splat(Type),
    Reduce(ReduceOp, Type),
    CtxRead(CtxField, u32),
    /// Loads from the read-only spaces only (`Param`, `Const`): those are
    /// pure and safe to CSE.
    Load(STy, Space),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExprKey {
    shape: Shape,
    operands: [OperandKey; 3],
}

/// The shape's fields, then one word per operand: a derived `Hash`
/// would hash every operand's tag and fields separately.
impl Hash for ExprKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.shape.hash(state);
        for o in self.operands {
            state.write_u64(o.word());
        }
    }
}

/// Folded-multiply hasher for [`ExprKey`]: a handful of small integers
/// per key, hashed once per pure instruction per pipeline round, where
/// the default SipHash costs more than the rest of the pass. Each word
/// is multiplied into a 128-bit product whose halves are xored together:
/// the table indexes with the low bits of the hash, and the low bits of
/// a plain 64-bit product would not see the high bits of the word —
/// which is where two float immediates differ.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(x as u64);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        let product = (self.0.rotate_left(5) ^ x) as u128 * 0x9e37_79b9_7f4a_7c15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// Run local CSE and copy propagation on every block. Returns the number
/// of instructions replaced by copies (candidates for later DCE).
pub fn local_cse(f: &mut Function) -> usize {
    let nregs = f.regs.len();
    let mut replaced = 0;
    // Block-local state, allocated once and reset at the end of each
    // block from the list of registers the block wrote.
    let mut version = vec![0u32; nregs];
    // Copy bindings: dst -> (src, version-of-src-at-copy).
    let mut copies: Vec<Option<(VReg, u32)>> = vec![None; nregs];
    let mut written: Vec<VReg> = Vec::new();
    // Sized for the longest block, so it never grows mid-block.
    let longest = f.blocks.iter().map(|b| b.insts.len()).max().unwrap_or(0);
    let mut avail: HashMap<ExprKey, (VReg, u32), BuildHasherDefault<KeyHasher>> =
        HashMap::with_capacity_and_hasher(longest, Default::default());
    let propagate = |v: &mut Value, version: &[u32], copies: &[Option<(VReg, u32)>]| {
        if let Value::Reg(r) = v {
            if let Some((src, ver)) = copies[r.index()] {
                if version[src.index()] == ver {
                    *v = Value::Reg(src);
                }
            }
        }
    };
    for block in &mut f.blocks {
        for inst in &mut block.insts {
            inst.map_uses(|v| propagate(v, &version, &copies));
            let key = expr_key(inst, &version);
            let mut was_replaced = false;
            if let Some(key) = &key {
                if let Some(&(prev, ver)) = avail.get(key) {
                    if version[prev.index()] == ver {
                        let dst = inst.dst().expect("keyed instructions define a register");
                        if prev != dst {
                            let ty = f.regs[dst.index()];
                            *inst = Inst::Mov { ty, dst, a: Value::Reg(prev) };
                            replaced += 1;
                        }
                        was_replaced = true;
                    }
                }
            }
            if let Some(d) = inst.dst() {
                version[d.index()] += 1;
                written.push(d);
                // Copies whose source was overwritten are invalidated by
                // the version check; record or drop this one's binding.
                copies[d.index()] = match inst {
                    Inst::Mov { a: Value::Reg(src), .. } if *src != d => {
                        Some((*src, version[src.index()]))
                    }
                    _ => None,
                };
                if let (Some(key), false) = (key, was_replaced) {
                    avail.insert(key, (d, version[d.index()]));
                }
            }
        }
        match &mut block.term {
            crate::Term::CondBr { cond: v, .. } | crate::Term::Switch { value: v, .. } => {
                propagate(v, &version, &copies)
            }
            _ => {}
        }
        for r in written.drain(..) {
            version[r.index()] = 0;
            copies[r.index()] = None;
        }
        avail.clear();
    }
    replaced
}

fn operand_key(v: Value, version: &[u32]) -> OperandKey {
    match v {
        Value::Reg(r) => OperandKey::Reg(r, version[r.index()]),
        Value::ImmI(i) => OperandKey::ImmI(i),
        Value::ImmF(x) => OperandKey::ImmF(x.to_bits()),
    }
}

/// Expression key for CSE-able instructions, `None` for the rest.
fn expr_key(inst: &Inst, version: &[u32]) -> Option<ExprKey> {
    use Inst::*;
    let shape = match *inst {
        Bin { op, ty, signed, .. } => Shape::Bin(op, ty, signed),
        Un { op, ty, .. } => Shape::Un(op, ty),
        Fma { ty, .. } => Shape::Fma(ty),
        Cmp { pred, ty, signed, .. } => Shape::Cmp(pred, ty, signed),
        Select { ty, .. } => Shape::Select(ty),
        Cvt { to, from, signed, width, .. } => Shape::Cvt { to, from, signed, width },
        Insert { ty, lane, .. } => Shape::Insert(ty, lane),
        Extract { ty, lane, .. } => Shape::Extract(ty, lane),
        Splat { ty, .. } => Shape::Splat(ty),
        Reduce { op, ty, .. } => Shape::Reduce(op, ty),
        CtxRead { field, lane, .. } => Shape::CtxRead(field, lane),
        Load { ty, space: space @ (Space::Param | Space::Const), .. } => Shape::Load(ty, space),
        _ => return None,
    };
    let mut operands = [OperandKey::None; 3];
    for (slot, v) in operands.iter_mut().zip(inst.uses()) {
        *slot = operand_key(v, version);
    }
    Some(ExprKey { shape, operands })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Block;
    use crate::inst::Term;
    use crate::opt::dead_code_elimination;

    #[test]
    fn merges_identical_expressions() {
        let mut f = Function::new("t", 1);
        let t = Type::scalar(STy::I32);
        let a = f.new_reg(t);
        let b = f.new_reg(t);
        let c = f.new_reg(t);
        let d = f.new_reg(t);
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::CtxRead { field: CtxField::Tid(0), lane: 0, dst: a });
        blk.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: t,
            signed: false,
            dst: b,
            a: Value::Reg(a),
            b: Value::ImmI(1),
        });
        blk.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: t,
            signed: false,
            dst: c,
            a: Value::Reg(a),
            b: Value::ImmI(1),
        });
        blk.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: t,
            signed: false,
            dst: d,
            a: Value::Reg(b),
            b: Value::Reg(c),
        });
        blk.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(0),
            value: Value::Reg(d),
        });
        blk.term = Term::Ret;
        f.add_block(blk);

        let replaced = local_cse(&mut f);
        assert_eq!(replaced, 1);
        // After copy propagation the final add reads %b twice.
        match &f.blocks[0].insts[3] {
            Inst::Bin { a: Value::Reg(x), b: Value::Reg(y), .. } => {
                assert_eq!(x, y);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The replacement mov is now dead.
        assert!(dead_code_elimination(&mut f) >= 1);
    }

    #[test]
    fn redefinition_blocks_reuse() {
        let mut f = Function::new("t", 1);
        let t = Type::scalar(STy::I32);
        let a = f.new_reg(t);
        let b = f.new_reg(t);
        let c = f.new_reg(t);
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: t,
            signed: false,
            dst: b,
            a: Value::Reg(a),
            b: Value::ImmI(1),
        });
        // Redefine the operand.
        blk.insts.push(Inst::Load {
            ty: STy::I32,
            space: Space::Global,
            dst: a,
            addr: Value::ImmI(0),
        });
        blk.insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: t,
            signed: false,
            dst: c,
            a: Value::Reg(a),
            b: Value::ImmI(1),
        });
        blk.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(4),
            value: Value::Reg(c),
        });
        blk.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(8),
            value: Value::Reg(b),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        assert_eq!(local_cse(&mut f), 0);
    }

    #[test]
    fn global_loads_are_not_cse_candidates() {
        let mut f = Function::new("t", 1);
        let t = Type::scalar(STy::I32);
        let a = f.new_reg(t);
        let b = f.new_reg(t);
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Load {
            ty: STy::I32,
            space: Space::Global,
            dst: a,
            addr: Value::ImmI(0),
        });
        blk.insts.push(Inst::Load {
            ty: STy::I32,
            space: Space::Global,
            dst: b,
            addr: Value::ImmI(0),
        });
        blk.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(4),
            value: Value::Reg(a),
        });
        blk.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(8),
            value: Value::Reg(b),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        assert_eq!(local_cse(&mut f), 0);
    }

    #[test]
    fn param_loads_are_merged() {
        let mut f = Function::new("t", 1);
        let t = Type::scalar(STy::I32);
        let a = f.new_reg(t);
        let b = f.new_reg(t);
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::Load {
            ty: STy::I32,
            space: Space::Param,
            dst: a,
            addr: Value::ImmI(0),
        });
        blk.insts.push(Inst::Load {
            ty: STy::I32,
            space: Space::Param,
            dst: b,
            addr: Value::ImmI(0),
        });
        blk.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(0),
            value: Value::Reg(a),
        });
        blk.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(4),
            value: Value::Reg(b),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        assert_eq!(local_cse(&mut f), 1);
    }

    #[test]
    fn ctx_reads_of_different_lanes_stay() {
        let mut f = Function::new("t", 2);
        let t = Type::scalar(STy::I32);
        let a = f.new_reg(t);
        let b = f.new_reg(t);
        let mut blk = Block::new("entry");
        blk.insts.push(Inst::CtxRead { field: CtxField::Tid(0), lane: 0, dst: a });
        blk.insts.push(Inst::CtxRead { field: CtxField::Tid(0), lane: 1, dst: b });
        blk.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(0),
            value: Value::Reg(a),
        });
        blk.insts.push(Inst::Store {
            ty: STy::I32,
            space: Space::Global,
            addr: Value::ImmI(4),
            value: Value::Reg(b),
        });
        blk.term = Term::Ret;
        f.add_block(blk);
        assert_eq!(local_cse(&mut f), 0);
    }

    /// Whether `local_cse` merges `second` into `first` when they sit
    /// next to each other in one block. Destinations are set here (two
    /// distinct registers); operands may name `%0..%5`.
    fn merges(mut first: Inst, mut second: Inst) -> bool {
        let mut f = Function::new("t", 4);
        let regs: Vec<VReg> = (0..8).map(|_| f.new_reg(Type::scalar(STy::I32))).collect();
        *first.dst_mut().unwrap() = regs[6];
        *second.dst_mut().unwrap() = regs[7];
        let mut blk = Block::new("entry");
        blk.insts.extend([first, second]);
        blk.term = Term::Ret;
        f.add_block(blk);
        local_cse(&mut f) == 1
    }

    #[test]
    fn one_differing_key_field_keeps_two_expressions_apart() {
        let (i32s, i64s) = (Type::scalar(STy::I32), Type::scalar(STy::I64));
        let v4 = Type::vector(STy::I32, 4);
        let (d, x, y) = (VReg(0), Value::Reg(VReg(1)), Value::Reg(VReg(2)));
        let bin = |op, ty, signed, b| Inst::Bin { op, ty, signed, dst: d, a: x, b };
        let cmp = |pred, ty, signed| Inst::Cmp { pred, ty, signed, dst: d, a: x, b: y };
        let cvt = |to, from, signed, width| Inst::Cvt { to, from, signed, width, dst: d, a: x };
        let ctx = |field, lane| Inst::CtxRead { field, lane, dst: d };
        let load = |ty, space| Inst::Load { ty, space, dst: d, addr: x };
        // Each row: a base instruction and variants that differ from it in
        // exactly one field of the key.
        let rows: Vec<(Inst, Vec<Inst>)> = vec![
            (
                bin(BinOp::Add, i32s, false, y),
                vec![
                    bin(BinOp::Sub, i32s, false, y),
                    bin(BinOp::Add, i64s, false, y),
                    bin(BinOp::Add, v4, false, y),
                    bin(BinOp::Add, i32s, true, y),
                    bin(BinOp::Add, i32s, false, x),
                    bin(BinOp::Add, i32s, false, Value::ImmI(2)),
                    cmp(CmpPred::Eq, i32s, false),
                ],
            ),
            (
                bin(BinOp::Add, i32s, false, Value::ImmI(1)),
                vec![
                    bin(BinOp::Add, i32s, false, Value::ImmI(2)),
                    bin(BinOp::Add, i32s, false, Value::ImmF(1.0)),
                ],
            ),
            (
                cmp(CmpPred::Lt, i32s, false),
                vec![
                    cmp(CmpPred::Le, i32s, false),
                    cmp(CmpPred::Lt, i64s, false),
                    cmp(CmpPred::Lt, i32s, true),
                ],
            ),
            (
                Inst::Un { op: UnOp::Neg, ty: i32s, dst: d, a: x },
                vec![
                    Inst::Un { op: UnOp::Not, ty: i32s, dst: d, a: x },
                    Inst::Un { op: UnOp::Neg, ty: i64s, dst: d, a: x },
                    Inst::Splat { ty: i32s, dst: d, a: x },
                ],
            ),
            (
                cvt(STy::F32, STy::I32, false, 1),
                vec![
                    cvt(STy::F64, STy::I32, false, 1),
                    cvt(STy::F32, STy::I16, false, 1),
                    cvt(STy::F32, STy::I32, true, 1),
                    cvt(STy::F32, STy::I32, false, 4),
                ],
            ),
            (
                Inst::Extract { ty: v4, dst: d, vec: x, lane: 0 },
                vec![
                    Inst::Extract { ty: v4, dst: d, vec: x, lane: 1 },
                    Inst::Extract { ty: Type::vector(STy::I32, 8), dst: d, vec: x, lane: 0 },
                    Inst::Reduce { op: ReduceOp::Add, ty: v4, dst: d, vec: x },
                ],
            ),
            (
                Inst::Insert { ty: v4, dst: d, vec: x, elem: y, lane: 2 },
                vec![
                    Inst::Insert { ty: v4, dst: d, vec: x, elem: y, lane: 3 },
                    Inst::Insert { ty: v4, dst: d, vec: y, elem: y, lane: 2 },
                ],
            ),
            (
                Inst::Reduce { op: ReduceOp::All, ty: v4, dst: d, vec: x },
                vec![Inst::Reduce { op: ReduceOp::Any, ty: v4, dst: d, vec: x }],
            ),
            (
                Inst::Fma { ty: i32s, dst: d, a: x, b: y, c: x },
                vec![
                    Inst::Fma { ty: i32s, dst: d, a: x, b: y, c: y },
                    Inst::Select { ty: i32s, dst: d, cond: x, a: y, b: x },
                ],
            ),
            (
                ctx(CtxField::Tid(0), 0),
                vec![
                    ctx(CtxField::Tid(1), 0),
                    ctx(CtxField::Ntid(0), 0),
                    ctx(CtxField::LaneId, 0),
                    ctx(CtxField::Tid(0), 1),
                ],
            ),
            (
                load(STy::I32, Space::Param),
                vec![load(STy::I32, Space::Const), load(STy::I64, Space::Param)],
            ),
        ];
        for (base, variants) in rows {
            assert!(merges(base.clone(), base.clone()), "identical {base:?} must merge");
            for other in variants {
                assert!(!merges(base.clone(), other.clone()), "{base:?} merged with {other:?}");
                assert!(merges(other.clone(), other.clone()), "identical {other:?} must merge");
            }
        }
    }

    #[test]
    fn keys_that_differ_in_a_float_immediate_spread_over_the_table() {
        // 1.0, 2.0, 3.0, ... differ in the top bits of the last word
        // hashed only; the table's index comes from the bottom bits.
        use std::hash::{BuildHasher, BuildHasherDefault};
        let ty = Type::scalar(STy::F32);
        let (x, version) = (Value::Reg(VReg(1)), [0u32; 2]);
        let buckets: std::collections::HashSet<u64> = (1..=256)
            .map(|k| {
                let fma = Inst::Fma { ty, dst: VReg(0), a: x, b: x, c: Value::ImmF(k as f64) };
                let key = expr_key(&fma, &version).unwrap();
                BuildHasherDefault::<KeyHasher>::default().hash_one(key) & 0xFF
            })
            .collect();
        assert!(buckets.len() > 128, "256 keys fell into {} of 256 buckets", buckets.len());
    }
}
