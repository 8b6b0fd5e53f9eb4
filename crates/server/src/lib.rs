//! # dpvk-server
//!
//! A hardened multi-tenant kernel service on top of the dpvk device
//! pool: clients submit kernel source and launch requests over a simple
//! length-prefixed TCP protocol ([`protocol`]), and the server executes
//! them on a shared [`Device`](dpvk_core::Device) — the "millions of
//! users" serving layer the paper's dynamic compiler exists for.
//!
//! Robustness is the headline, not throughput:
//!
//! * **Admission control** — each tenant has a token bucket (rate +
//!   burst) and a stream group bounding its concurrent launches; a
//!   global capacity gate bounds total in-flight work against the
//!   device pool. An admitted launch executes on its connection
//!   thread (the thread runs the launch's first chunk itself), so the
//!   gate bounds concurrently executing launches directly.
//! * **Load shedding** — requests that do not pass admission are
//!   answered immediately with [`Response::Overloaded`] and a
//!   retry-after hint instead of queueing unboundedly, so overload
//!   degrades into fast refusals with bounded latency for the admitted.
//! * **Retry with degradation** — transient failures (contained worker
//!   panics, deadline-adjacent timeouts) are retried server-side with
//!   capped exponential backoff; when the vectorized retry budget is
//!   exhausted the launch falls back to the scalar baseline
//!   specialization before a typed error
//!   ([`CoreError::code`](dpvk_core::CoreError::code)) is surfaced.
//! * **Tenant isolation** — kernels are owned by the registering
//!   tenant; inputs are re-uploaded per attempt so retries cannot see
//!   another attempt's partial writes; per-tenant admission keeps one
//!   tenant's traffic from starving the rest. Per-tenant outcomes are
//!   visible in the trace report's `tenants` section and via
//!   [`Request::Stats`].
//!
//! ## Quickstart
//!
//! ```
//! use dpvk_server::{Client, LaunchSpec, Response, Server, ServerConfig, WireBuffer, WireParam};
//! use dpvk_vm::MachineModel;
//!
//! let server = Server::bind(
//!     MachineModel::sandybridge_sse(),
//!     1 << 20,
//!     ServerConfig::default(),
//! )?;
//! let handle = server.start()?;
//! let mut client = Client::connect(handle.addr())?;
//! client.register(
//!     "tenant-a",
//!     r#"
//! .kernel triple (.param .u64 data, .param .u32 n) {
//!   .reg .u32 %r<4>;
//!   .reg .u64 %rd<3>;
//!   .reg .pred %p<2>;
//! entry:
//!   mov.u32 %r0, %tid.x;
//!   mad.lo.u32 %r0, %ctaid.x, %ntid.x, %r0;
//!   ld.param.u32 %r1, [n];
//!   setp.ge.u32 %p0, %r0, %r1;
//!   @%p0 bra done;
//!   cvt.u64.u32 %rd0, %r0;
//!   shl.u64 %rd0, %rd0, 2;
//!   ld.param.u64 %rd1, [data];
//!   add.u64 %rd1, %rd1, %rd0;
//!   ld.global.u32 %r2, [%rd1];
//!   mul.lo.u32 %r2, %r2, 3;
//!   st.global.u32 [%rd1], %r2;
//! done:
//!   ret;
//! }
//! "#,
//! )?;
//! let input: Vec<u8> = (0u32..64).flat_map(|v| v.to_le_bytes()).collect();
//! let resp = client.launch(LaunchSpec {
//!     tenant: "tenant-a".into(),
//!     kernel: "triple".into(),
//!     grid: [1, 1, 1],
//!     block: [64, 1, 1],
//!     deadline_ms: 0,
//!     buffers: vec![WireBuffer { bytes: input, read_back: true }],
//!     params: vec![WireParam::Buffer(0), WireParam::U32(64)],
//! })?;
//! match resp {
//!     Response::Launched { outputs, .. } => {
//!         let v = u32::from_le_bytes(outputs[0][4..8].try_into().unwrap());
//!         assert_eq!(v, 3);
//!     }
//!     other => panic!("unexpected response: {other:?}"),
//! }
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod admission;
mod client;
pub mod protocol;
mod service;
mod tenant;

pub use client::Client;
pub use protocol::{LaunchSpec, ProtoError, Request, Response, TenantStats, WireBuffer, WireParam};
pub use service::{Server, ServerHandle};

/// Tunables of the serving layer. The defaults favor robustness for a
/// small pool: a generous per-tenant rate, a global in-flight cap of
/// twice the pool (`None` → `2 × pool_workers`), three retries, and
/// degradation to scalar enabled. The deadlines and the retry backoff
/// are fixed (see `service.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Transient-failure retries after the first attempt (the scalar
    /// degradation rung is in addition to these).
    pub max_retries: u32,
    /// Global in-flight launch cap; `None` derives `2 × pool_workers`
    /// at bind time. Each admitted launch executes on its connection
    /// thread, so this bounds concurrently executing launches.
    pub admission_capacity: Option<usize>,
    /// Retry-after hint handed out when capacity (not the token bucket)
    /// sheds the request.
    pub shed_retry_ms: u32,
    /// Token-bucket refill rate per tenant.
    pub tenant_rate_per_sec: f64,
    /// Token-bucket burst per tenant.
    pub tenant_burst: f64,
    /// Stream-group size: concurrent launches allowed per tenant.
    pub tenant_parallelism: usize,
    /// Lifetime device-execution budget per tenant, nanoseconds;
    /// exceeded → typed `quota` errors. `None` = unlimited.
    pub tenant_quota_exec_ns: Option<u64>,
    /// Whether the retry ladder's last rung re-runs the launch on the
    /// scalar baseline specialization.
    pub degrade_to_scalar: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_retries: 3,
            admission_capacity: None,
            shed_retry_ms: 25,
            tenant_rate_per_sec: 1_000.0,
            tenant_burst: 64.0,
            tenant_parallelism: 4,
            tenant_quota_exec_ns: None,
            degrade_to_scalar: true,
        }
    }
}
