//! IR instructions and block terminators.

use std::fmt;

use crate::types::{STy, Type};
use crate::value::{VReg, Value};

/// Binary arithmetic/logic operators. Signedness, where it matters, is
/// carried by the instruction's `signed` flag; float-ness by its type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (low half for integers).
    Mul,
    /// High half of the widened integer product.
    MulHi,
    /// Division.
    Div,
    /// Remainder (integers only).
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Shift right (arithmetic when `signed`, logical otherwise).
    Shr,
}

/// Float `min(x, y)`, or `max(x, y)` when `max`: the one definition the
/// constant folder and the VM share. It pins the two cases `f64::min`
/// leaves to the compiler's lowering: a NaN operand is ignored (of two
/// NaNs the second is returned, unchanged), and of two operands that
/// compare equal (±0) the first is returned.
#[inline]
pub fn f_min_max(x: f64, y: f64, max: bool) -> f64 {
    if x.is_nan() {
        y
    } else if y.is_nan() || x == y || (x < y) != max {
        x
    } else {
        y
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise not (logical not on `i1`).
    Not,
    /// Absolute value.
    Abs,
    /// Square root (floats).
    Sqrt,
    /// Reciprocal square root (floats).
    Rsqrt,
    /// Reciprocal (floats).
    Rcp,
    /// Sine (floats, radians).
    Sin,
    /// Cosine (floats, radians).
    Cos,
    /// Base-2 exponential (floats).
    Ex2,
    /// Base-2 logarithm (floats).
    Lg2,
}

impl UnOp {
    /// Whether the operator is one of the transcendental/special functions
    /// (costed differently by the machine model).
    pub fn is_transcendental(self) -> bool {
        matches!(
            self,
            UnOp::Sqrt | UnOp::Rsqrt | UnOp::Rcp | UnOp::Sin | UnOp::Cos | UnOp::Ex2 | UnOp::Lg2
        )
    }
}

/// Comparison predicates (signedness from the instruction's flag,
/// orderedness from the type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Memory spaces, mirroring the virtual ISA's state spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Grid-wide weakly consistent memory.
    Global,
    /// Per-CTA scratchpad.
    Shared,
    /// Per-thread private memory: the kernel's `.local` variables.
    Local,
    /// Read-only parameter buffer.
    Param,
    /// Read-only constant bank.
    Const,
    /// A thread's spill slots: the same local arena as [`Space::Local`],
    /// marked so the counters tell a yield's data movement (spills and
    /// restores) from the kernel's own `.local` traffic.
    Spill,
}

/// Atomic read-modify-write kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomKind {
    /// Fetch-add.
    Add,
    /// Fetch-min.
    Min,
    /// Fetch-max.
    Max,
    /// Exchange.
    Exch,
    /// Compare-and-swap.
    Cas,
}

/// Horizontal reduction kinds over vector lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Integer sum of lanes (predicates count as 0/1). This is the
    /// `sum(predicates)` of the paper's Algorithm 2.
    Add,
    /// True when all lanes are non-zero.
    All,
    /// True when any lane is non-zero.
    Any,
}

/// Per-thread context fields readable by kernels.
///
/// The execution manager materializes one context object per thread; the
/// `lane` index on [`Inst::CtxRead`] selects which warp member's context is
/// read. Scalar (pre-vectorization) functions always use lane 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtxField {
    /// Thread index within the CTA, dimension 0..=2.
    Tid(u8),
    /// CTA dimensions, dimension 0..=2.
    Ntid(u8),
    /// CTA index within the grid, dimension 0..=2.
    Ctaid(u8),
    /// Grid dimensions in CTAs, dimension 0..=2.
    Nctaid(u8),
    /// Byte offset of this thread's private memory within the local arena.
    LocalBase,
    /// Lane index of the thread within the executing warp.
    LaneId,
    /// Width of the executing warp.
    WarpSize,
    /// The warp's current entry-point id (used by the scheduler block).
    EntryId,
}

/// Why a vectorized kernel returned to the execution manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResumeStatus {
    /// Threads diverged (or branched to a yield point); per-thread resume
    /// points say where each continues.
    Branch,
    /// Threads reached a CTA-wide barrier.
    Barrier,
    /// Threads terminated.
    Exit,
}

/// Entry id recorded for a terminated thread. Chosen to fit in `i32`
/// because resume points flow through `i32`-typed `select` instructions in
/// exit handlers.
pub const EXIT_ENTRY_ID: i64 = i32::MAX as i64;

/// The operands of one instruction or terminator, held inline: no
/// instruction has more than three, and every pass asks every
/// instruction for them, so they must not cost a heap allocation. Reads
/// as a `[Value]` slice and iterates by value.
#[derive(Clone, Copy)]
pub struct Uses {
    vals: [Value; 3],
    len: u8,
}

impl Uses {
    #[inline]
    fn of<const N: usize>(operands: [Value; N]) -> Self {
        let mut vals = [Value::ImmI(0); 3];
        vals[..N].copy_from_slice(&operands);
        Uses { vals, len: N as u8 }
    }
}

impl std::ops::Deref for Uses {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        &self.vals[..self.len as usize]
    }
}

impl IntoIterator for Uses {
    type Item = Value;
    type IntoIter = std::iter::Take<std::array::IntoIter<Value, 3>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.vals.into_iter().take(self.len as usize)
    }
}

impl fmt::Debug for Uses {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

/// One (non-terminator) IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = a <op> b` at type `ty` (element-wise for vectors).
    Bin {
        /// Operator.
        op: BinOp,
        /// Operation type.
        ty: Type,
        /// Signed interpretation for Div/Rem/Shr/Min/Max/MulHi.
        signed: bool,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: Value,
        /// Right operand.
        b: Value,
    },
    /// `dst = <op> a` at type `ty`.
    Un {
        /// Operator.
        op: UnOp,
        /// Operation type.
        ty: Type,
        /// Destination.
        dst: VReg,
        /// Operand.
        a: Value,
    },
    /// Fused multiply-add `dst = a*b + c` (floats) or integer
    /// multiply-add (low half).
    Fma {
        /// Operation type.
        ty: Type,
        /// Destination.
        dst: VReg,
        /// Multiplicand.
        a: Value,
        /// Multiplier.
        b: Value,
        /// Addend.
        c: Value,
    },
    /// `dst = a <pred> b`, producing `i1` (or `<w x i1>`).
    Cmp {
        /// Predicate.
        pred: CmpPred,
        /// Operand type.
        ty: Type,
        /// Signed integer comparison when true.
        signed: bool,
        /// Destination (`i1` at the operand's width).
        dst: VReg,
        /// Left operand.
        a: Value,
        /// Right operand.
        b: Value,
    },
    /// `dst = cond ? a : b`, lane-wise for vectors.
    Select {
        /// Result type.
        ty: Type,
        /// Destination.
        dst: VReg,
        /// Condition (`i1` at the result width).
        cond: Value,
        /// Value when true.
        a: Value,
        /// Value when false.
        b: Value,
    },
    /// Element-kind conversion, lane-wise.
    Cvt {
        /// Destination element kind.
        to: STy,
        /// Source element kind.
        from: STy,
        /// Signed source interpretation.
        signed: bool,
        /// Lane count (shared by source and destination).
        width: u32,
        /// Destination.
        dst: VReg,
        /// Operand.
        a: Value,
    },
    /// Scalar load `dst = [addr]` from `space`. Loads are never vector:
    /// the machine model has no gather (paper, Section 4,
    /// "Non-vectorizable Instructions").
    Load {
        /// Element kind.
        ty: STy,
        /// Address space.
        space: Space,
        /// Destination.
        dst: VReg,
        /// Byte address within the space.
        addr: Value,
    },
    /// Scalar store `[addr] = value` to `space`.
    Store {
        /// Element kind.
        ty: STy,
        /// Address space.
        space: Space,
        /// Byte address within the space.
        addr: Value,
        /// Stored value.
        value: Value,
    },
    /// Atomic read-modify-write; `dst` receives the old value. `b` is only
    /// used by `Cas` (the swap value; `a` is the compare value).
    Atom {
        /// Element kind.
        ty: STy,
        /// Address space.
        space: Space,
        /// Operation.
        op: AtomKind,
        /// Signed interpretation for Min/Max.
        signed: bool,
        /// Destination (old value).
        dst: VReg,
        /// Byte address within the space.
        addr: Value,
        /// First operand.
        a: Value,
        /// Second operand (CAS swap value only).
        b: Option<Value>,
    },
    /// `dst = insertelement(vec, elem, lane)`.
    Insert {
        /// Vector type of the destination.
        ty: Type,
        /// Destination.
        dst: VReg,
        /// Source vector (may be a register or an immediate splat base).
        vec: Value,
        /// Inserted element.
        elem: Value,
        /// Lane index.
        lane: u32,
    },
    /// `dst = extractelement(vec, lane)`.
    Extract {
        /// Vector type of the source.
        ty: Type,
        /// Destination (scalar).
        dst: VReg,
        /// Source vector.
        vec: Value,
        /// Lane index.
        lane: u32,
    },
    /// `dst = splat(a)` broadcasting a scalar to all lanes.
    Splat {
        /// Vector type of the destination.
        ty: Type,
        /// Destination.
        dst: VReg,
        /// Broadcast scalar.
        a: Value,
    },
    /// Horizontal reduction of a vector to a scalar.
    Reduce {
        /// Reduction kind.
        op: ReduceOp,
        /// Source vector type.
        ty: Type,
        /// Destination (scalar `i32` for Add, `i1` for All/Any).
        dst: VReg,
        /// Source vector.
        vec: Value,
    },
    /// Read a per-thread context field of warp member `lane`.
    CtxRead {
        /// Field to read.
        field: CtxField,
        /// Warp member whose context is read.
        lane: u32,
        /// Destination (scalar; `i32` except `LocalBase` which is `i64`).
        dst: VReg,
    },
    /// Record the resume entry-point id of warp member `lane`.
    SetResumePoint {
        /// Warp member whose resume point is set.
        lane: u32,
        /// Entry id value ([`EXIT_ENTRY_ID`] marks termination).
        value: Value,
    },
    /// Record why the warp is returning to the execution manager.
    SetResumeStatus {
        /// The status.
        status: ResumeStatus,
    },
    /// Warp-wide vote over a per-thread predicate. In scalar (width-1)
    /// functions this is the identity; the vectorizer rewrites it into
    /// pack + [`Inst::Reduce`] + broadcast.
    Vote {
        /// Reduction kind (All/Any/Uni encoded as All over agreement).
        op: ReduceOp,
        /// Destination predicate.
        dst: VReg,
        /// Source predicate.
        a: Value,
    },
    /// Register copy.
    Mov {
        /// Value type.
        ty: Type,
        /// Destination.
        dst: VReg,
        /// Source.
        a: Value,
    },
}

impl Inst {
    /// The register this instruction defines, if any.
    #[inline]
    pub fn dst(&self) -> Option<VReg> {
        use Inst::*;
        match self {
            Bin { dst, .. }
            | Un { dst, .. }
            | Fma { dst, .. }
            | Cmp { dst, .. }
            | Select { dst, .. }
            | Cvt { dst, .. }
            | Load { dst, .. }
            | Atom { dst, .. }
            | Insert { dst, .. }
            | Extract { dst, .. }
            | Splat { dst, .. }
            | Reduce { dst, .. }
            | CtxRead { dst, .. }
            | Vote { dst, .. }
            | Mov { dst, .. } => Some(*dst),
            Store { .. } | SetResumePoint { .. } | SetResumeStatus { .. } => None,
        }
    }

    /// Mutable access to the defined register, if any.
    pub fn dst_mut(&mut self) -> Option<&mut VReg> {
        use Inst::*;
        match self {
            Bin { dst, .. }
            | Un { dst, .. }
            | Fma { dst, .. }
            | Cmp { dst, .. }
            | Select { dst, .. }
            | Cvt { dst, .. }
            | Load { dst, .. }
            | Atom { dst, .. }
            | Insert { dst, .. }
            | Extract { dst, .. }
            | Splat { dst, .. }
            | Reduce { dst, .. }
            | CtxRead { dst, .. }
            | Vote { dst, .. }
            | Mov { dst, .. } => Some(dst),
            Store { .. } | SetResumePoint { .. } | SetResumeStatus { .. } => None,
        }
    }

    /// The values this instruction uses, in operand order.
    #[inline]
    pub fn uses(&self) -> Uses {
        use Inst::*;
        match self {
            Bin { a, b, .. } | Cmp { a, b, .. } => Uses::of([*a, *b]),
            Un { a, .. } | Cvt { a, .. } | Splat { a, .. } | Vote { a, .. } | Mov { a, .. } => {
                Uses::of([*a])
            }
            Fma { a, b, c, .. } => Uses::of([*a, *b, *c]),
            Select { cond, a, b, .. } => Uses::of([*cond, *a, *b]),
            Load { addr, .. } => Uses::of([*addr]),
            Store { addr, value, .. } => Uses::of([*addr, *value]),
            Atom { addr, a, b: Some(b), .. } => Uses::of([*addr, *a, *b]),
            Atom { addr, a, b: None, .. } => Uses::of([*addr, *a]),
            Insert { vec, elem, .. } => Uses::of([*vec, *elem]),
            Extract { vec, .. } | Reduce { vec, .. } => Uses::of([*vec]),
            CtxRead { .. } | SetResumeStatus { .. } => Uses::of([]),
            SetResumePoint { value, .. } => Uses::of([*value]),
        }
    }

    /// Apply `f` to every used value in place.
    pub fn map_uses(&mut self, mut f: impl FnMut(&mut Value)) {
        use Inst::*;
        match self {
            Bin { a, b, .. } | Cmp { a, b, .. } => {
                f(a);
                f(b);
            }
            Un { a, .. } | Cvt { a, .. } | Splat { a, .. } | Vote { a, .. } | Mov { a, .. } => f(a),
            Fma { a, b, c, .. } => {
                f(a);
                f(b);
                f(c);
            }
            Select { cond, a, b, .. } => {
                f(cond);
                f(a);
                f(b);
            }
            Load { addr, .. } => f(addr),
            Store { addr, value, .. } => {
                f(addr);
                f(value);
            }
            Atom { addr, a, b, .. } => {
                f(addr);
                f(a);
                if let Some(b) = b {
                    f(b);
                }
            }
            Insert { vec, elem, .. } => {
                f(vec);
                f(elem);
            }
            Extract { vec, .. } | Reduce { vec, .. } => f(vec),
            CtxRead { .. } | SetResumeStatus { .. } => {}
            SetResumePoint { value, .. } => f(value),
        }
    }

    /// Whether this instruction has side effects beyond defining `dst`
    /// (memory writes, context writes, atomics).
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. }
                | Inst::Atom { .. }
                | Inst::SetResumePoint { .. }
                | Inst::SetResumeStatus { .. }
        )
    }

    /// Whether this instruction reads memory (loads and atomics).
    pub fn reads_memory(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Atom { .. })
    }
}

/// Index of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional jump.
    Br(BlockId),
    /// Two-way conditional jump on a scalar `i1`.
    CondBr {
        /// Condition.
        cond: Value,
        /// Target when true.
        taken: BlockId,
        /// Target when false.
        fall: BlockId,
    },
    /// Multi-way jump on a scalar integer.
    Switch {
        /// Discriminant.
        value: Value,
        /// `(case value, target)` pairs.
        cases: Vec<(i64, BlockId)>,
        /// Default target.
        default: BlockId,
    },
    /// Return to the execution manager.
    Ret,
}

impl Term {
    /// Successor blocks in order.
    pub fn successors(&self) -> Vec<BlockId> {
        let mut v = Vec::new();
        self.for_each_successor(|b| v.push(b));
        v
    }

    /// Call `f` on every successor block in order, without collecting
    /// them.
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match self {
            Term::Br(b) => f(*b),
            Term::CondBr { taken, fall, .. } => {
                f(*taken);
                f(*fall);
            }
            Term::Switch { cases, default, .. } => {
                cases.iter().for_each(|(_, b)| f(*b));
                f(*default);
            }
            Term::Ret => {}
        }
    }

    /// The values this terminator uses.
    #[inline]
    pub fn uses(&self) -> Uses {
        match self {
            Term::CondBr { cond, .. } => Uses::of([*cond]),
            Term::Switch { value, .. } => Uses::of([*value]),
            Term::Br(_) | Term::Ret => Uses::of([]),
        }
    }

    /// Rewrite every successor block id with `f`.
    pub fn map_targets(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Term::Br(b) => *b = f(*b),
            Term::CondBr { taken, fall, .. } => {
                *taken = f(*taken);
                *fall = f(*fall);
            }
            Term::Switch { cases, default, .. } => {
                for (_, b) in cases.iter_mut() {
                    *b = f(*b);
                }
                *default = f(*default);
            }
            Term::Ret => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dst_and_uses() {
        let i = Inst::Bin {
            op: BinOp::Add,
            ty: Type::scalar(STy::I32),
            signed: false,
            dst: VReg(2),
            a: Value::Reg(VReg(0)),
            b: Value::ImmI(4),
        };
        assert_eq!(i.dst(), Some(VReg(2)));
        assert_eq!(*i.uses(), [Value::Reg(VReg(0)), Value::ImmI(4)]);
        assert!(!i.has_side_effects());
    }

    #[test]
    fn store_has_no_dst_and_side_effects() {
        let s = Inst::Store {
            ty: STy::F32,
            space: Space::Global,
            addr: Value::Reg(VReg(1)),
            value: Value::Reg(VReg(2)),
        };
        assert_eq!(s.dst(), None);
        assert!(s.has_side_effects());
        assert_eq!(s.uses().len(), 2);
    }

    #[test]
    fn map_uses_rewrites_all() {
        let mut i = Inst::Select {
            ty: Type::scalar(STy::F32),
            dst: VReg(5),
            cond: Value::Reg(VReg(1)),
            a: Value::Reg(VReg(2)),
            b: Value::Reg(VReg(3)),
        };
        i.map_uses(|v| {
            if let Value::Reg(r) = v {
                *v = Value::Reg(VReg(r.0 + 10));
            }
        });
        assert_eq!(*i.uses(), [Value::Reg(VReg(11)), Value::Reg(VReg(12)), Value::Reg(VReg(13))]);
        assert_eq!(i.uses().into_iter().count(), 3);
    }

    #[test]
    fn term_successors() {
        let t = Term::Switch {
            value: Value::Reg(VReg(0)),
            cases: vec![(0, BlockId(1)), (4, BlockId(2))],
            default: BlockId(3),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(Term::Ret.successors(), vec![]);
    }

    #[test]
    fn term_map_targets() {
        let mut t = Term::CondBr { cond: Value::Reg(VReg(0)), taken: BlockId(1), fall: BlockId(2) };
        t.map_targets(|b| BlockId(b.0 + 1));
        assert_eq!(t.successors(), vec![BlockId(2), BlockId(3)]);
    }

    #[test]
    fn atom_cas_uses_three() {
        let i = Inst::Atom {
            ty: STy::I32,
            space: Space::Global,
            op: AtomKind::Cas,
            signed: false,
            dst: VReg(0),
            addr: Value::Reg(VReg(1)),
            a: Value::ImmI(0),
            b: Some(Value::ImmI(1)),
        };
        assert_eq!(i.uses().len(), 3);
        assert!(i.reads_memory());
    }
}
