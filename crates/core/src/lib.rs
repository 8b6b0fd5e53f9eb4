//! # dpvk-core
//!
//! The primary contribution of the CGO 2012 paper "Dynamic Compilation of
//! Data-Parallel Kernels for Vector Processors" (Kerr, Diamos,
//! Yalamanchili), reproduced in Rust:
//!
//! * [`translate`](crate::translate::translate) — PTX-like kernels to
//!   canonical scalar IR, with barrier splitting, predication-to-select
//!   rewriting and entry-point/spill-slot assignment;
//! * [`specialize`](crate::vectorize::specialize) — *vectorization*
//!   (Algorithm 1) plus *yield-on-diverge* (Algorithms 2–4): replicated
//!   and promoted instructions, predicate-sum switches at conditional
//!   branches, exit handlers that spill live state and record per-thread
//!   resume points, and a scheduler trampoline that restores state on
//!   re-entry;
//! * [`TranslationCache`](crate::cache::TranslationCache) — lazy,
//!   lock-guarded specialization per `(kernel, warp size, variant)`;
//! * [`Device`](crate::runtime::Device) — a CUDA-runtime-like host API,
//!   and behind it the execution manager ([`exec`]): dynamic/static warp
//!   formation, barrier pools, per-thread resume bookkeeping across the
//!   one process-wide pool of worker threads.
//!
//! ## Quickstart
//!
//! ```
//! use dpvk_core::{Device, ExecConfig, ParamValue};
//! use dpvk_vm::MachineModel;
//!
//! let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
//! dev.register_source(
//!     r#"
//! .kernel fill (.param .u64 out, .param .f32 value) {
//!   .reg .u32 %r<3>;
//!   .reg .u64 %rd<3>;
//!   .reg .f32 %f<2>;
//! entry:
//!   mov.u32 %r1, %tid.x;
//!   mad.lo.u32 %r1, %ctaid.x, %ntid.x, %r1;
//!   cvt.u64.u32 %rd1, %r1;
//!   shl.u64 %rd1, %rd1, 2;
//!   ld.param.u64 %rd2, [out];
//!   add.u64 %rd2, %rd2, %rd1;
//!   ld.param.f32 %f1, [value];
//!   st.global.f32 [%rd2], %f1;
//!   ret;
//! }
//! "#,
//! )?;
//! let buf = dev.malloc(64 * 4)?;
//! dev.launch(
//!     "fill",
//!     [2, 1, 1],
//!     [32, 1, 1],
//!     &[ParamValue::Ptr(buf), ParamValue::F32(7.0)],
//!     &ExecConfig::dynamic(4),
//! )?;
//! let out = dev.copy_f32_dtoh(buf, 64)?;
//! assert!(out.iter().all(|&v| v == 7.0));
//! # Ok::<(), dpvk_core::CoreError>(())
//! ```

#![warn(missing_docs)]

mod config;
mod devmem;
mod error;

pub mod cache;
pub mod exec;
#[cfg(feature = "fault-inject")]
pub mod faults;
pub mod persist;
pub mod runtime;
pub mod slots;
pub mod sync;
pub mod translate;
pub mod vectorize;

pub use cache::{CacheStats, CompiledKernel, TranslationCache, Variant};
pub use config::InvalidEnvValue;
pub use devmem::MemoryStats;
pub use dpvk_vm::CancelToken;
pub use error::{CoreError, FaultContext};
pub use exec::{
    AdaptConfig, Engine, ExecConfig, FormationPolicy, LaunchHandle, LaunchStats, UnknownEngineError,
};
pub use persist::PersistConfig;
pub use runtime::{Device, DeviceBuffer, DevicePtr, ParamValue, Stream};
pub use translate::{translate, TranslatedKernel};
pub use vectorize::{specialize, SpecializeOptions, Specialized};
