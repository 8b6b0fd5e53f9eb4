//! # dpvk — Dynamic compilation of data-parallel kernels for vector processors
//!
//! A Rust reproduction of Kerr, Diamos & Yalamanchili, *"Dynamic
//! Compilation of Data-Parallel Kernels for Vector Processors"* (CGO
//! 2012): a dynamic compiler that maps bulk-synchronous SPMD kernels onto
//! CPU SIMD units by statically interleaving scalar threads
//! (*vectorization*), tolerating control-flow divergence with a
//! software-only context switch (*yield-on-diverge*), and re-forming warps
//! at runtime in a dynamic execution manager.
//!
//! This façade crate re-exports the workspace's public API:
//!
//! * [`ptx`] — the PTX-like virtual ISA: parser, printer, validation.
//! * [`ir`] — the typed vector IR and its optimization pipeline.
//! * [`vm`] — the simulated vector machine (bytecode engine, native JIT,
//!   cost model).
//! * [`core`] — translation, vectorization, translation cache, execution
//!   manager, and the CUDA-runtime-like [`Device`](core::Device) API.
//! * [`workloads`] — the 22-kernel benchmark suite of the evaluation.
//! * [`trace`] — structured tracing, metrics and profiling hooks across
//!   the compile + execute pipeline (set `DPVK_TRACE=1` to enable).
//! * [`server`] — the hardened multi-tenant kernel service: wire
//!   protocol, admission control, load shedding and
//!   retry-with-degradation on top of the device pool.
//!
//! ## Quickstart
//!
//! ```
//! use dpvk::core::{Device, ExecConfig, ParamValue};
//! use dpvk::vm::MachineModel;
//!
//! let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
//! dev.register_source(
//!     r#"
//! .kernel axpy (.param .u64 xs, .param .u64 ys, .param .f32 a, .param .u32 n) {
//!   .reg .u32 %r<4>;
//!   .reg .u64 %rd<4>;
//!   .reg .f32 %f<4>;
//!   .reg .pred %p<2>;
//! entry:
//!   mov.u32 %r0, %tid.x;
//!   mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
//!   ld.param.u32 %r1, [n];
//!   setp.ge.u32 %p0, %r0, %r1;
//!   @%p0 bra done;
//!   cvt.u64.u32 %rd0, %r0;
//!   shl.u64 %rd0, %rd0, 2;
//!   ld.param.u64 %rd1, [xs];
//!   add.u64 %rd1, %rd1, %rd0;
//!   ld.global.f32 %f0, [%rd1];
//!   ld.param.u64 %rd2, [ys];
//!   add.u64 %rd2, %rd2, %rd0;
//!   ld.global.f32 %f1, [%rd2];
//!   ld.param.f32 %f2, [a];
//!   fma.rn.f32 %f1, %f0, %f2, %f1;
//!   st.global.f32 [%rd2], %f1;
//! done:
//!   ret;
//! }
//! "#,
//! )?;
//! let n = 100u32;
//! // RAII buffers: freed back to the device heap's size-classed free
//! // lists when they go out of scope.
//! let xs = dev.alloc(n as usize * 4)?;
//! let ys = dev.alloc(n as usize * 4)?;
//! dev.copy_f32_htod(xs.ptr(), &vec![1.0; n as usize])?;
//! dev.copy_f32_htod(ys.ptr(), &vec![2.0; n as usize])?;
//! dev.launch(
//!     "axpy",
//!     [2, 1, 1],
//!     [64, 1, 1],
//!     &[
//!         ParamValue::Ptr(xs.ptr()),
//!         ParamValue::Ptr(ys.ptr()),
//!         ParamValue::F32(3.0),
//!         ParamValue::U32(n),
//!     ],
//!     &ExecConfig::dynamic(4),
//! )?;
//! let out = dev.copy_f32_dtoh(ys.ptr(), n as usize)?;
//! assert!(out.iter().all(|&v| v == 5.0));
//! # Ok::<(), dpvk::core::CoreError>(())
//! ```

#![warn(missing_docs)]

pub use dpvk_core as core;
pub use dpvk_ir as ir;
pub use dpvk_ptx as ptx;
pub use dpvk_server as server;
pub use dpvk_trace as trace;
pub use dpvk_vm as vm;
pub use dpvk_workloads as workloads;
