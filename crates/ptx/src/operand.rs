//! Instruction operands: registers, immediates, special registers, addresses.

use std::fmt;

/// Index of a virtual register within one kernel.
///
/// Register names (`%r1`, `%f2`, ...) are interned by the parser; analyses
/// and transformations work with dense indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

impl RegId {
    /// The dense index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// One of the three grid dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// x dimension.
    X,
    /// y dimension.
    Y,
    /// z dimension.
    Z,
}

impl Dim {
    /// Suffix character used in the textual form.
    pub fn suffix(self) -> char {
        match self {
            Dim::X => 'x',
            Dim::Y => 'y',
            Dim::Z => 'z',
        }
    }
}

/// Read-only special registers exposing a thread's position in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// Thread index within its CTA (`%tid.{x,y,z}`).
    Tid(Dim),
    /// CTA dimensions (`%ntid.{x,y,z}`).
    Ntid(Dim),
    /// CTA index within the grid (`%ctaid.{x,y,z}`).
    Ctaid(Dim),
    /// Grid dimensions in CTAs (`%nctaid.{x,y,z}`).
    Nctaid(Dim),
    /// Lane index within the executing warp (`%laneid`).
    LaneId,
    /// Width of the executing warp (`%warpsize`). Note this is the
    /// *dynamic* warp size chosen by the execution manager.
    WarpSize,
}

impl SpecialReg {
    /// The special register a register token names (without its `%`),
    /// or `None` for any other name.
    pub fn parse(s: &str) -> Option<Self> {
        let dim = |suffix: &str| -> Option<Dim> {
            match suffix {
                "x" => Some(Dim::X),
                "y" => Some(Dim::Y),
                "z" => Some(Dim::Z),
                _ => None,
            }
        };
        if let Some((base, suf)) = s.split_once('.') {
            let d = dim(suf)?;
            return match base {
                "tid" => Some(SpecialReg::Tid(d)),
                "ntid" => Some(SpecialReg::Ntid(d)),
                "ctaid" => Some(SpecialReg::Ctaid(d)),
                "nctaid" => Some(SpecialReg::Nctaid(d)),
                _ => None,
            };
        }
        match s {
            "laneid" => Some(SpecialReg::LaneId),
            "warpsize" => Some(SpecialReg::WarpSize),
            _ => None,
        }
    }
}

impl fmt::Display for SpecialReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecialReg::Tid(d) => write!(f, "%tid.{}", d.suffix()),
            SpecialReg::Ntid(d) => write!(f, "%ntid.{}", d.suffix()),
            SpecialReg::Ctaid(d) => write!(f, "%ctaid.{}", d.suffix()),
            SpecialReg::Nctaid(d) => write!(f, "%nctaid.{}", d.suffix()),
            SpecialReg::LaneId => write!(f, "%laneid"),
            SpecialReg::WarpSize => write!(f, "%warpsize"),
        }
    }
}

/// Base of a memory address expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AddressBase {
    /// Address held in a register.
    Reg(RegId),
    /// Named kernel parameter (valid in the `.param` space).
    Param(String),
    /// Named `.shared` or `.local` variable declared in the kernel.
    Var(String),
    /// Absolute offset within the space.
    Absolute,
}

/// A memory address expression `[base + offset]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Address {
    /// Base of the address.
    pub base: AddressBase,
    /// Constant byte offset added to the base.
    pub offset: i64,
}

impl Address {
    /// Address held entirely in a register.
    pub fn reg(r: RegId) -> Self {
        Address { base: AddressBase::Reg(r), offset: 0 }
    }

    /// Address of a named parameter.
    pub fn param(name: impl Into<String>) -> Self {
        Address { base: AddressBase::Param(name.into()), offset: 0 }
    }

    /// Address of a named `.shared`/`.local` variable.
    pub fn var(name: impl Into<String>) -> Self {
        Address { base: AddressBase::Var(name.into()), offset: 0 }
    }

    /// Add a constant byte offset.
    pub fn with_offset(mut self, offset: i64) -> Self {
        self.offset = offset;
        self
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        match &self.base {
            AddressBase::Reg(r) => write!(f, "{r}")?,
            AddressBase::Param(p) => write!(f, "{p}")?,
            AddressBase::Var(v) => write!(f, "{v}")?,
            AddressBase::Absolute => {}
        }
        if self.offset != 0 || matches!(self.base, AddressBase::Absolute) {
            if matches!(self.base, AddressBase::Absolute) {
                write!(f, "{}", self.offset)?;
            } else {
                write!(f, "+{}", self.offset)?;
            }
        }
        write!(f, "]")
    }
}

/// A source operand of an instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Virtual register.
    Reg(RegId),
    /// Integer immediate (bit pattern; interpretation depends on the
    /// instruction type).
    Imm(i64),
    /// Floating-point immediate.
    ImmF(f64),
    /// Special register.
    Special(SpecialReg),
    /// Memory address (loads, stores, atomics only).
    Addr(Address),
    /// Address-of a declared `.shared`/`.local` variable (valid in `mov`
    /// only), e.g. `mov.u64 %rd, tile;`.
    Sym(String),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn as_reg(&self) -> Option<RegId> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// All registers read by this operand (including address bases).
    pub fn regs_read(&self) -> impl Iterator<Item = RegId> + '_ {
        let reg = match self {
            Operand::Reg(r) => Some(*r),
            Operand::Addr(Address { base: AddressBase::Reg(r), .. }) => Some(*r),
            _ => None,
        };
        reg.into_iter()
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
            Operand::ImmF(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Operand::Special(s) => write!(f, "{s}"),
            Operand::Addr(a) => write!(f, "{a}"),
            Operand::Sym(name) => write!(f, "{name}"),
        }
    }
}

impl From<RegId> for Operand {
    fn from(r: RegId) -> Self {
        Operand::Reg(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_reg_parsing() {
        assert_eq!(SpecialReg::parse("tid.x").unwrap(), SpecialReg::Tid(Dim::X));
        assert_eq!(SpecialReg::parse("nctaid.z").unwrap(), SpecialReg::Nctaid(Dim::Z));
        assert_eq!(SpecialReg::parse("laneid").unwrap(), SpecialReg::LaneId);
        assert!(SpecialReg::parse("tid.w").is_none());
        assert!(SpecialReg::parse("pc").is_none());
    }

    #[test]
    fn special_reg_display_round_trip() {
        for s in [SpecialReg::Tid(Dim::Y), SpecialReg::Ctaid(Dim::X), SpecialReg::WarpSize] {
            let text = s.to_string();
            assert_eq!(SpecialReg::parse(&text[1..]).unwrap(), s);
        }
    }

    #[test]
    fn address_display() {
        let a = Address::reg(RegId(3)).with_offset(8);
        assert_eq!(a.to_string(), "[%3+8]");
        assert_eq!(Address::param("n").to_string(), "[n]");
    }

    #[test]
    fn operand_regs_read_includes_address_base() {
        let op = Operand::Addr(Address::reg(RegId(7)));
        assert_eq!(op.regs_read().collect::<Vec<_>>(), vec![RegId(7)]);
        assert_eq!(Operand::Imm(4).regs_read().count(), 0);
    }
}
