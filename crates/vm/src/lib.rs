//! # dpvk-vm
//!
//! The simulated vector machine of the CGO 2012 reproduction: an
//! interpreter for `dpvk-ir` functions with a Sandybridge-like cost model.
//!
//! In the paper, vectorized kernels are JIT-compiled by LLVM and run on a
//! real i7-2600. This crate substitutes a cycle-accurate-*enough*
//! interpreter: every instruction charges issue slots under a
//! [`MachineModel`], vector operations amortize lanes up to the machine
//! width, register pressure beyond the architectural vector file charges
//! spill penalties, and cycles are attributed to subkernel vs. yield
//! buckets per block kind. The resulting *shapes* — vector speedup, the
//! width-8 collapse of Table 1, the overhead split of Figure 9 — are the
//! quantities the paper's evaluation measures.
//!
//! ## Example: running a warp by hand
//!
//! ```
//! use dpvk_ir::{Block, Function, Inst, Space, STy, Term, Type, Value};
//! use dpvk_vm::{
//!     execute_warp_bytecode, BytecodeProgram, CostInfo, ExecLimits, ExecStats, FrameLayout,
//!     GlobalMem, MachineModel, MemAccess, RegFrame, ThreadContext,
//! };
//!
//! // A one-instruction kernel: global[0] = 42.
//! let mut f = Function::new("store42", 1);
//! let mut b = Block::new("entry");
//! b.insts.push(Inst::Store {
//!     ty: STy::I32,
//!     space: Space::Global,
//!     addr: Value::ImmI(0),
//!     value: Value::ImmI(42),
//! });
//! b.term = Term::Ret;
//! f.add_block(b);
//!
//! let model = MachineModel::sandybridge_sse();
//! let info = CostInfo::analyze(&f, &model);
//! let program = BytecodeProgram::decode(&f, &FrameLayout::of(&f), &model, &info);
//! let global = GlobalMem::new(64);
//! let mut ctxs = vec![ThreadContext::new([0; 3], [1, 1, 1], [0; 3], [1, 1, 1])];
//! let (mut shared, mut local) = (vec![0u8; 0], vec![0u8; 0]);
//! let mut mem = MemAccess {
//!     global: &global,
//!     shared: &mut shared,
//!     local: &mut local,
//!     param: &[],
//!     cbank: &[],
//! };
//! let (mut stats, mut frame) = (ExecStats::default(), RegFrame::new());
//! let limits = ExecLimits::default();
//! execute_warp_bytecode(&program, &mut frame, &mut ctxs, 0, &mut mem, &mut stats, &limits, None)?;
//! assert_eq!(u32::from_le_bytes(global.read::<4>(0)?), 42);
//! # Ok::<(), dpvk_vm::VmError>(())
//! ```

#![warn(missing_docs)]

pub mod approx;
mod bytecode;
mod cancel;
mod context;
mod cost;
mod decode;
mod error;
mod frame;
mod jit;
mod machine;
mod memory;
mod semantics;
pub mod serial;
mod stats;

pub use bytecode::{execute_warp_bytecode, BytecodeProgram, DecodeStats};
pub use cancel::CancelToken;
pub use context::ThreadContext;
pub use cost::{inst_cost, inst_flops, term_cost, CostInfo};
pub use error::VmError;
pub use frame::{FrameLayout, RegFrame};
pub use jit::{
    compile as jit_compile, jit_inline_width_cap, jit_supported, JitCta, JitEmitStats, JitProgram,
    JIT_HOST_FEATURES,
};
pub use machine::MachineModel;
pub use memory::{GlobalMem, MemAccess};
pub use semantics::{ExecLimits, WarpOutcome};
pub use stats::ExecStats;
