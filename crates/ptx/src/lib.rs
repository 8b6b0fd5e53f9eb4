//! # dpvk-ptx
//!
//! A PTX-like data-parallel virtual ISA: in-memory representation, textual
//! parser and printer, programmatic builder, and the control-flow and
//! data-flow analyses the dynamic compiler needs.
//!
//! This crate is the front half of the CGO 2012 reproduction
//! ("Dynamic Compilation of Data-Parallel Kernels for Vector Processors"):
//! kernels are written against the SIMT execution model — thousands of
//! scalar threads grouped into cooperative thread arrays (CTAs) with
//! barrier synchronization — and handed to `dpvk-core` for translation and
//! vectorization.
//!
//! ## Quick example
//!
//! ```
//! let src = r#"
//! .kernel add_one (.param .u64 data, .param .u32 n) {
//!   .reg .u32 %r<4>;
//!   .reg .u64 %rd<3>;
//!   .reg .f32 %f<2>;
//!   .reg .pred %p<2>;
//! entry:
//!   mov.u32 %r1, %tid.x;
//!   mad.lo.u32 %r2, %ctaid.x, %ntid.x, %r1;
//!   ld.param.u32 %r3, [n];
//!   setp.ge.u32 %p1, %r2, %r3;
//!   @%p1 bra done;
//!   cvt.u64.u32 %rd1, %r2;
//!   shl.u64 %rd1, %rd1, 2;
//!   ld.param.u64 %rd2, [data];
//!   add.u64 %rd2, %rd2, %rd1;
//!   ld.global.f32 %f1, [%rd2];
//!   add.f32 %f1, %f1, 1.0;
//!   st.global.f32 [%rd2], %f1;
//! done:
//!   ret;
//! }
//! "#;
//! let module = dpvk_ptx::parse_module(src)?;
//! let kernel = module.kernel("add_one").expect("declared above");
//! dpvk_ptx::validate_kernel(kernel)?;
//! assert!(kernel.blocks.len() >= 2);
//! # Ok::<(), dpvk_ptx::PtxError>(())
//! ```

#![warn(missing_docs)]

mod analysis;
mod builder;
mod error;
mod instruction;
mod kernel;
mod lexer;
mod operand;
mod parser;
mod printer;
mod types;
mod validate;

pub use analysis::{reverse_postorder, DominatorTree};
pub use builder::KernelBuilder;
pub use error::PtxError;
pub use instruction::{AtomOp, CmpOp, Guard, Instruction, MulHalf, Opcode, VoteMode};
pub use kernel::{BasicBlock, BlockId, Kernel, Module, Param, RegInfo, VarDecl};
pub use lexer::{tokenize, Spanned, Token};
pub use operand::{Address, AddressBase, Dim, Operand, RegId, SpecialReg};
pub use parser::{parse_kernel, parse_module};
pub use printer::{print_kernel, print_module};
pub use types::{AddressSpace, ScalarType};
pub use validate::validate_kernel;
