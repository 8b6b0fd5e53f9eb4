//! # dpvk-ir
//!
//! A typed, register-machine intermediate representation with first-class
//! vector types — the compilation substrate of the CGO 2012 reproduction
//! ("Dynamic Compilation of Data-Parallel Kernels for Vector Processors").
//! It plays the role LLVM IR plays in the paper: scalar kernels are lowered
//! into it, the vectorization transform rewrites it, and a verifier plus a
//! pipeline of classical optimizations (constant folding, local CSE with
//! copy propagation, dead-code elimination, basic-block fusion) clean up
//! the result before execution.
//!
//! Key design points:
//!
//! * **Register machine, not SSA.** Registers are typed
//!   ([`Type`] = scalar kind × lane count) and may be redefined; the
//!   optimization passes use block-local versioning to stay sound.
//! * **Scalar memory ops.** Loads and stores are always scalar — the
//!   modeled machines (SSE-class) have no gather/scatter, so vectorization
//!   replicates memory operations per lane and packs/unpacks with
//!   [`Inst::Insert`]/[`Inst::Extract`] (paper, Section 4).
//! * **Yield support.** [`Inst::SetResumePoint`], [`Inst::SetResumeStatus`]
//!   and the [`CtxField::EntryId`] context read give the vectorizer the
//!   vocabulary for *yield-on-diverge* exit/entry handlers.
//!
//! ## Example
//!
//! ```
//! use dpvk_ir::{Block, Function, Inst, Term, Type, STy, Value, BinOp};
//!
//! let mut f = Function::new("axpy_body", 1);
//! let x = f.new_reg(Type::scalar(STy::F32));
//! let y = f.new_reg(Type::scalar(STy::F32));
//! let mut b = Block::new("entry");
//! b.insts.push(Inst::Bin {
//!     op: BinOp::Add,
//!     ty: Type::scalar(STy::F32),
//!     signed: false,
//!     dst: y,
//!     a: Value::Reg(x),
//!     b: Value::ImmF(1.0),
//! });
//! b.term = Term::Ret;
//! f.add_block(b);
//! dpvk_ir::verify(&f)?;
//! # Ok::<(), dpvk_ir::VerifyError>(())
//! ```

#![warn(missing_docs)]

mod analysis;
mod function;
mod inst;
mod printer;
#[cfg(test)]
mod testing;
mod types;
mod value;
mod verify;

pub mod opt;
pub mod serial;

pub use analysis::Liveness;
pub use function::{Block, BlockKind, Function};
pub use inst::{
    AtomKind, BinOp, BlockId, CmpPred, CtxField, Inst, ReduceOp, ResumeStatus, Space, Term, UnOp,
    Uses, EXIT_ENTRY_ID,
};
pub use printer::print_function;
pub use types::{STy, Type};
pub use value::{VReg, Value};
pub use verify::{verify, VerifyError};
