//! Kernels, basic blocks and modules of the virtual ISA.

use std::collections::HashMap;
use std::fmt;

use crate::instruction::{Instruction, Opcode};
use crate::operand::RegId;
use crate::types::{AddressSpace, ScalarType};

/// Index of a basic block within one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The dense index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A kernel parameter (`.param .u32 n`).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name as written in the kernel signature.
    pub name: String,
    /// Scalar type of the parameter (pointers are `.u64`).
    pub ty: ScalarType,
    /// Byte offset within the parameter buffer, assigned on construction.
    pub offset: usize,
}

/// Declared register metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RegInfo {
    /// Name as written in the kernel (`%r1`).
    pub name: String,
    /// Declared type.
    pub ty: ScalarType,
}

/// A statically declared `.shared` or `.local` array variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Element type.
    pub ty: ScalarType,
    /// Element count.
    pub len: usize,
    /// Address space (`Shared` or `Local`).
    pub space: AddressSpace,
    /// Byte offset within the space, assigned on construction.
    pub offset: usize,
}

impl VarDecl {
    /// Total size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.ty.size_bytes() * self.len
    }
}

/// A straight-line sequence of instructions ending in (at most) one
/// terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Label of the block (unique within the kernel).
    pub label: String,
    /// Instructions, in order. If the last instruction is not a terminator
    /// the block falls through to the next block in kernel order.
    pub instructions: Vec<Instruction>,
}

impl BasicBlock {
    /// Create an empty block with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        BasicBlock { label: label.into(), instructions: Vec::new() }
    }

    /// The terminator instruction, when the block ends in one.
    pub fn terminator(&self) -> Option<&Instruction> {
        self.instructions.last().filter(|i| i.opcode.is_terminator())
    }
}

/// A data-parallel kernel: signature, register file, declared variables and
/// a list of basic blocks (the first is the entry).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Parameters in declaration order, with assigned buffer offsets.
    pub params: Vec<Param>,
    /// Declared registers; `RegId(i)` indexes this table.
    pub registers: Vec<RegInfo>,
    /// `.shared` variables with assigned offsets.
    pub shared_vars: Vec<VarDecl>,
    /// `.local` variables with assigned offsets.
    pub local_vars: Vec<VarDecl>,
    /// Basic blocks; index 0 is the entry block.
    pub blocks: Vec<BasicBlock>,
}

impl Kernel {
    /// Create an empty kernel.
    pub fn new(name: impl Into<String>) -> Self {
        Kernel {
            name: name.into(),
            params: Vec::new(),
            registers: Vec::new(),
            shared_vars: Vec::new(),
            local_vars: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Append a parameter, assigning its naturally aligned buffer offset.
    /// Returns the assigned offset.
    pub fn add_param(&mut self, name: impl Into<String>, ty: ScalarType) -> usize {
        let size = ty.size_bytes();
        let end = self.params.last().map(|p| p.offset + p.ty.size_bytes()).unwrap_or(0);
        let offset = end.div_ceil(size) * size;
        self.params.push(Param { name: name.into(), ty, offset });
        offset
    }

    /// Total parameter buffer size in bytes.
    pub fn param_buffer_size(&self) -> usize {
        self.params.last().map(|p| p.offset + p.ty.size_bytes()).unwrap_or(0)
    }

    /// Look up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Append a register declaration, returning its id.
    pub fn add_register(&mut self, name: impl Into<String>, ty: ScalarType) -> RegId {
        let id = RegId(self.registers.len() as u32);
        self.registers.push(RegInfo { name: name.into(), ty });
        id
    }

    /// Type of a register.
    ///
    /// # Panics
    ///
    /// Panics if the register id is out of range.
    pub fn reg_type(&self, r: RegId) -> ScalarType {
        self.registers[r.index()].ty
    }

    /// Append a `.shared` or `.local` variable, assigning an 8-byte-aligned
    /// offset within its space. Returns the assigned offset.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        ty: ScalarType,
        len: usize,
        space: AddressSpace,
    ) -> usize {
        let vars = match space {
            AddressSpace::Shared => &mut self.shared_vars,
            AddressSpace::Local => &mut self.local_vars,
            _ => panic!("add_var: only shared/local variables may be declared"),
        };
        let end = vars.last().map(|v| v.offset + v.size_bytes()).unwrap_or(0);
        let offset = end.div_ceil(8) * 8;
        vars.push(VarDecl { name: name.into(), ty, len, space, offset });
        offset
    }

    /// Look up a declared variable by name in either space.
    pub fn var(&self, name: &str) -> Option<&VarDecl> {
        self.shared_vars.iter().chain(self.local_vars.iter()).find(|v| v.name == name)
    }

    /// Total declared shared memory in bytes.
    pub fn shared_size(&self) -> usize {
        self.shared_vars.last().map(|v| v.offset + v.size_bytes()).unwrap_or(0)
    }

    /// Total declared (user) local memory in bytes, before spill slots.
    pub fn local_size(&self) -> usize {
        self.local_vars.last().map(|v| v.offset + v.size_bytes()).unwrap_or(0)
    }

    /// Append a block, returning its id.
    pub fn add_block(&mut self, block: BasicBlock) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(block);
        id
    }

    /// Find a block id by label.
    pub fn block_by_label(&self, label: &str) -> Option<BlockId> {
        self.blocks.iter().position(|b| b.label == label).map(|i| BlockId(i as u32))
    }

    /// Successor block ids of `b` in control-flow order
    /// `[taken..., fallthrough...]`.
    ///
    /// An unguarded `bra` yields one successor; a guarded `bra` yields the
    /// target and the fallthrough; `ret`/`exit` yield none; any other ending
    /// falls through to the next block in kernel order.
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        let block = &self.blocks[b.index()];
        let next = if b.index() + 1 < self.blocks.len() { Some(BlockId(b.0 + 1)) } else { None };
        match block.terminator() {
            Some(term) => match &term.opcode {
                Opcode::Bra(label) => {
                    let target = self
                        .block_by_label(label)
                        .unwrap_or_else(|| panic!("undefined label `{label}`"));
                    if term.guard.is_some() {
                        let mut v = vec![target];
                        v.extend(next);
                        v
                    } else {
                        vec![target]
                    }
                }
                Opcode::Ret | Opcode::Exit => {
                    // A guarded `ret`/`exit` falls through when the guard
                    // is false.
                    if term.guard.is_some() {
                        next.into_iter().collect()
                    } else {
                        vec![]
                    }
                }
                _ => unreachable!("terminator() only returns bra/ret/exit"),
            },
            None => next.into_iter().collect(),
        }
    }

    /// Total static instruction count across all blocks.
    pub fn instruction_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instructions.len()).sum()
    }

    /// Whether any block contains a barrier.
    pub fn has_barrier(&self) -> bool {
        self.blocks.iter().any(|b| b.instructions.iter().any(|i| matches!(i.opcode, Opcode::Bar)))
    }
}

/// A module: a named collection of kernels, as registered with the runtime.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Kernels by declaration order.
    pub kernels: Vec<Kernel>,
    index: HashMap<String, usize>,
}

impl Module {
    /// Create an empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Add a kernel. Later kernels shadow earlier ones with the same name.
    pub fn add_kernel(&mut self, kernel: Kernel) {
        self.index.insert(kernel.name.clone(), self.kernels.len());
        self.kernels.push(kernel);
    }

    /// Look up a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.index.get(name).map(|&i| &self.kernels[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{Instruction, Opcode};
    use crate::types::ScalarType;

    fn branchy_kernel() -> Kernel {
        let mut k = Kernel::new("k");
        let p = k.add_register("%p1", ScalarType::Pred);
        let mut b0 = BasicBlock::new("entry");
        b0.instructions.push(
            Instruction::new(Opcode::Bra("exit".into()), ScalarType::Pred, None, vec![])
                .with_guard(p, false),
        );
        let b1 = BasicBlock::new("body");
        let mut b2 = BasicBlock::new("exit");
        b2.instructions.push(Instruction::new(Opcode::Ret, ScalarType::Pred, None, vec![]));
        k.add_block(b0);
        k.add_block(b1);
        k.add_block(b2);
        k
    }

    #[test]
    fn param_offsets_are_aligned() {
        let mut k = Kernel::new("k");
        assert_eq!(k.add_param("a", ScalarType::U32), 0);
        assert_eq!(k.add_param("b", ScalarType::U64), 8);
        assert_eq!(k.add_param("c", ScalarType::U8), 16);
        assert_eq!(k.add_param("d", ScalarType::U32), 20);
        assert_eq!(k.param_buffer_size(), 24);
    }

    #[test]
    fn successors_of_guarded_branch() {
        let k = branchy_kernel();
        assert_eq!(k.successors(BlockId(0)), vec![BlockId(2), BlockId(1)]);
        assert_eq!(k.successors(BlockId(1)), vec![BlockId(2)]);
        assert_eq!(k.successors(BlockId(2)), vec![]);
    }

    #[test]
    fn var_declaration_offsets() {
        let mut k = Kernel::new("k");
        assert_eq!(k.add_var("tile", ScalarType::F32, 3, AddressSpace::Shared), 0);
        assert_eq!(k.add_var("tile2", ScalarType::F32, 4, AddressSpace::Shared), 16);
        assert_eq!(k.shared_size(), 32);
        assert!(k.var("tile").is_some());
        assert!(k.var("absent").is_none());
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        m.add_kernel(Kernel::new("a"));
        m.add_kernel(Kernel::new("b"));
        assert_eq!(m.kernel("b").unwrap().name, "b");
        assert!(m.kernel("c").is_none());
    }
}
