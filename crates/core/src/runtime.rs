//! A CUDA-runtime-like host API: device memory, module registration,
//! parameter packing and kernel launch.
//!
//! This is the front-end the paper wraps around its compilation model
//! ("the proposed compilation model is wrapped by an API front-end for
//! heterogeneous computing", Section 3).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpvk_ptx as ptx;
use dpvk_trace::timeline::{self, SpanKind};
use dpvk_vm::{CancelToken, GlobalMem, MachineModel};

use crate::cache::{CacheStats, TranslationCache};
use crate::devmem::{DevHeap, MemoryStats};
use crate::error::CoreError;
use crate::exec::job::{self, InflightGauge, LaunchRequest, StreamShared};
use crate::exec::worker;
use crate::exec::{ExecConfig, LaunchHandle, LaunchStats};

/// A kernel launch parameter value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// 32-bit unsigned (also used for `.s32`/`.b32` parameters).
    U32(u32),
    /// 64-bit unsigned (also used for `.s64`/`.b64` parameters).
    U64(u64),
    /// Single-precision float.
    F32(f32),
    /// Double-precision float.
    F64(f64),
    /// Device pointer (an offset into global memory).
    Ptr(DevicePtr),
}

/// A device global-memory pointer (byte offset into the global arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// Pointer `bytes` past this one.
    pub fn offset(self, bytes: u64) -> DevicePtr {
        DevicePtr(self.0 + bytes)
    }
}

/// The simulated device: global memory, a translation cache, and launch
/// facilities.
///
/// [Asynchronous](Device::launch_async) and stream launches are enqueued
/// on the one process-wide pool of execution-manager workers, which
/// every device shares; a [blocking](Device::launch) launch runs its
/// first chunk on the calling thread and gives the pool the rest.
/// Building or dropping a device spawns or joins no thread. Launches on
/// one [`Stream`] run in submission order; launches on different streams
/// (or plain `launch_async` calls) may overlap. Dropping the device is
/// [`Device::synchronize`]: every outstanding [`LaunchHandle`] and
/// stream-held launch completes first.
pub struct Device {
    model: MachineModel,
    global: Arc<GlobalMem>,
    cache: TranslationCache,
    heap: DevHeap,
    heap_size: u64,
    inflight: Arc<InflightGauge>,
    next_stream: std::sync::atomic::AtomicU64,
}

impl Device {
    /// Create a device with the given machine model and global-memory heap
    /// size in bytes.
    pub fn new(model: MachineModel, heap_size: usize) -> Self {
        Self::with_persist(model, heap_size, crate::config::get().persist.clone())
    }

    /// [`Device::new`] with explicit control of the persistent
    /// specialization cache: `None` keeps compilation artifacts in
    /// memory only, `Some` loads specialized functions from (and stores
    /// them to) the configured directory. [`Device::new`] itself
    /// persists only when `DPVK_CACHE_DIR` names a directory
    /// (`DPVK_CACHE_CAP` bounds it).
    pub fn with_persist(
        model: MachineModel,
        heap_size: usize,
        persist: Option<crate::persist::PersistConfig>,
    ) -> Self {
        // Read (and validate) the configuration here, not at the first
        // launch: a mistyped knob fails where the device is made, and
        // `DPVK_TRACE` is on before the first kernel is registered.
        crate::config::get();
        let global = GlobalMem::new(heap_size);
        Device {
            cache: TranslationCache::with_persist(model.clone(), persist),
            model,
            // The heap starts at offset 64 so null stays distinct.
            heap: DevHeap::new(Arc::clone(&global), heap_size as u64),
            global,
            heap_size: heap_size as u64,
            inflight: Arc::new(InflightGauge::new()),
            next_stream: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// The machine model.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Direct access to global memory (for tests and host-side setup).
    pub fn global(&self) -> &GlobalMem {
        &self.global
    }

    /// The translation cache.
    pub fn cache(&self) -> &TranslationCache {
        &self.cache
    }

    /// Register all kernels in `module`.
    pub fn register_module(&self, module: &ptx::Module) {
        self.cache.register_module(module);
    }

    /// Parse and register kernels from source text.
    ///
    /// # Errors
    ///
    /// Returns parse/validation errors.
    pub fn register_source(&self, src: &str) -> Result<(), CoreError> {
        let _span = timeline::span(SpanKind::Parse, "module");
        let module = ptx::parse_module(src)?;
        for k in &module.kernels {
            ptx::validate_kernel(k)?;
        }
        self.register_module(&module);
        Ok(())
    }

    /// Allocate `size` bytes of global memory (64-byte aligned,
    /// zero-initialized). The block is owned by the caller until
    /// [`Device::free`]; prefer [`Device::alloc`] for scope-tied
    /// buffers that free themselves.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Memory`] when the rounded size overflows,
    /// or [`CoreError::MemoryExhausted`] when the heap cannot satisfy
    /// the request even after evicting idle blocks.
    pub fn malloc(&self, size: usize) -> Result<DevicePtr, CoreError> {
        self.heap.alloc(size).map(DevicePtr)
    }

    /// Release a block previously returned by [`Device::malloc`] back
    /// to the heap's free lists, making it eligible for reuse.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Memory`] on a pointer that is not a live
    /// allocation (never allocated, already freed, or interior).
    pub fn free(&self, ptr: DevicePtr) -> Result<(), CoreError> {
        self.heap.free(ptr.0)
    }

    /// Allocate `size` bytes as an RAII [`DeviceBuffer`] that frees
    /// itself when dropped. The CUDA-style manual pair is still
    /// available as [`Device::malloc`]/[`Device::free`].
    ///
    /// # Errors
    ///
    /// See [`Device::malloc`].
    pub fn alloc(&self, size: usize) -> Result<DeviceBuffer<'_>, CoreError> {
        let ptr = self.malloc(size)?;
        Ok(DeviceBuffer { dev: self, ptr, len: size })
    }

    /// A snapshot of heap occupancy and allocator activity: live/free/
    /// reserve bytes, the high-water mark, and cumulative reuse, fresh
    /// and eviction byte counts.
    pub fn memory_stats(&self) -> MemoryStats {
        self.heap.stats()
    }

    /// Copy host bytes to device memory.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Vm`] on out-of-range copies.
    pub fn memcpy_htod(&self, dst: DevicePtr, data: &[u8]) -> Result<(), CoreError> {
        self.global.copy_in(dst.0, data)?;
        Ok(())
    }

    /// Copy device memory to host bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Vm`] on out-of-range copies.
    pub fn memcpy_dtoh(&self, dst: &mut [u8], src: DevicePtr) -> Result<(), CoreError> {
        self.global.copy_out(src.0, dst)?;
        Ok(())
    }

    /// Copy a slice of `f32` to the device.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Vm`] on out-of-range copies.
    pub fn copy_f32_htod(&self, dst: DevicePtr, data: &[f32]) -> Result<(), CoreError> {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.memcpy_htod(dst, &bytes)
    }

    /// Read a slice of `f32` back from the device.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Vm`] on out-of-range copies.
    pub fn copy_f32_dtoh(&self, src: DevicePtr, len: usize) -> Result<Vec<f32>, CoreError> {
        let mut bytes = vec![0u8; len * 4];
        self.memcpy_dtoh(&mut bytes, src)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Copy a slice of `u32` to the device.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Vm`] on out-of-range copies.
    pub fn copy_u32_htod(&self, dst: DevicePtr, data: &[u32]) -> Result<(), CoreError> {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.memcpy_htod(dst, &bytes)
    }

    /// Read a slice of `u32` back from the device.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Vm`] on out-of-range copies.
    pub fn copy_u32_dtoh(&self, src: DevicePtr, len: usize) -> Result<Vec<u32>, CoreError> {
        let mut bytes = vec![0u8; len * 4];
        self.memcpy_dtoh(&mut bytes, src)?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Pack launch parameters according to the kernel's signature.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadLaunch`] when the argument count or types
    /// do not match the declaration.
    pub fn pack_params(&self, kernel: &str, args: &[ParamValue]) -> Result<Vec<u8>, CoreError> {
        pack(&*self.cache.kernel_declaration(kernel)?, args)
    }

    /// Package a launch for submission to the pool.
    fn request(
        &self,
        kernel: &str,
        grid: [u32; 3],
        block: [u32; 3],
        args: &[ParamValue],
        config: &ExecConfig,
        token: CancelToken,
    ) -> Result<LaunchRequest, CoreError> {
        let (kernel, decl) = self.cache.registered(kernel)?;
        Ok(LaunchRequest {
            cache: self.cache.clone(),
            param: pack(&decl, args)?,
            kernel,
            grid,
            block,
            global: Arc::clone(&self.global),
            config: *config,
            token,
        })
    }

    /// Launch `kernel` over `grid` CTAs of `block` threads and block
    /// until it completes. The calling thread is the launch's first
    /// execution manager: of the launch's `n` chunks
    /// ([`ExecConfig::with_workers`]) it runs chunk 0 itself, pool
    /// workers take up to `n − 1` others, and it also runs any chunk no
    /// worker has picked up by the time it is done. A one-chunk launch
    /// therefore wakes no worker, and a launch completes even while
    /// every pool worker is busy.
    ///
    /// # Errors
    ///
    /// Returns compilation, configuration or execution errors.
    pub fn launch(
        &self,
        kernel: &str,
        grid: [u32; 3],
        block: [u32; 3],
        args: &[ParamValue],
        config: &ExecConfig,
    ) -> Result<LaunchStats, CoreError> {
        self.launch_cancellable(kernel, grid, block, args, config, &CancelToken::new())
    }

    /// Launch `kernel` asynchronously: the launch is enqueued on the
    /// worker pool and this call returns immediately with a
    /// [`LaunchHandle`] to wait on, poll, or cancel. Launches submitted
    /// this way are unordered relative to each other; use a
    /// [`Stream`](Device::stream) for in-order submission.
    ///
    /// # Errors
    ///
    /// Launch-geometry and compilation errors surface here,
    /// synchronously; execution errors surface from
    /// [`LaunchHandle::wait`].
    pub fn launch_async(
        &self,
        kernel: &str,
        grid: [u32; 3],
        block: [u32; 3],
        args: &[ParamValue],
        config: &ExecConfig,
    ) -> Result<LaunchHandle, CoreError> {
        let req = self.request(kernel, grid, block, args, config, CancelToken::new())?;
        job::submit(req, None, Arc::clone(&self.inflight))
    }

    /// Create a new stream on this device. Launches submitted to the
    /// stream run in submission order (at most one in the pool at a
    /// time); launches on different streams may overlap. Streams are
    /// independent and cheap; dropping one does not affect its in-flight
    /// launches.
    pub fn stream(&self) -> Stream<'_> {
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        Stream { dev: self, shared: Arc::new(StreamShared::new(id)) }
    }

    /// Block until every launch submitted to this device — blocking,
    /// async, or via any stream — has completed.
    pub fn synchronize(&self) {
        self.inflight.wait_idle();
    }

    /// Size of the process-wide worker pool every device shares: the
    /// most launch chunks the pool runs at once. Blocking launches also
    /// run chunks on their calling threads.
    pub fn pool_workers(&self) -> usize {
        worker::pool().size()
    }

    /// Bytes of device heap currently live (allocated and not yet
    /// freed), at block granularity. Freed and reused blocks are
    /// reflected: long-running services watch this for admission
    /// decisions, and it falls when buffers are released.
    pub fn heap_used(&self) -> u64 {
        self.heap.live_bytes()
    }

    /// Total device heap capacity in bytes.
    pub fn heap_capacity(&self) -> u64 {
        self.heap_size
    }

    /// [`Device::launch`] with a wall-clock budget: the launch fails with
    /// a [`dpvk_vm::VmError::Deadline`] fault (wrapped in
    /// [`CoreError::Fault`] with provenance) if it is still running when
    /// `budget` elapses. The kill is cooperative — workers poll every
    /// [`dpvk_vm::ExecLimits::check_interval`] interpreted instructions
    /// and at warp/CTA boundaries — so a runaway kernel dies within a
    /// small multiple of the poll interval, not instantly.
    ///
    /// # Errors
    ///
    /// Returns compilation, configuration or execution errors; deadline
    /// expiry satisfies [`CoreError::is_deadline`].
    pub fn launch_with_deadline(
        &self,
        kernel: &str,
        grid: [u32; 3],
        block: [u32; 3],
        args: &[ParamValue],
        config: &ExecConfig,
        budget: Duration,
    ) -> Result<LaunchStats, CoreError> {
        let mut config = *config;
        config.limits.deadline = Some(Instant::now() + budget);
        self.launch(kernel, grid, block, args, &config)
    }

    /// [`Device::launch`] with a host-held cancellation token. Cancelling
    /// `cancel` from any thread stops the launch cooperatively; the
    /// runtime also cancels the token itself when a worker faults, so
    /// the token is good for this one launch only.
    ///
    /// # Errors
    ///
    /// Returns compilation, configuration or execution errors; host
    /// cancellation satisfies [`CoreError::is_cancelled`].
    pub fn launch_cancellable(
        &self,
        kernel: &str,
        grid: [u32; 3],
        block: [u32; 3],
        args: &[ParamValue],
        config: &ExecConfig,
        cancel: &CancelToken,
    ) -> Result<LaunchStats, CoreError> {
        let req = self.request(kernel, grid, block, args, config, cancel.clone())?;
        job::run(req, Arc::clone(&self.inflight))
    }

    /// Translation-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

impl Drop for Device {
    fn drop(&mut self) {
        self.synchronize();
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("model", &self.model.name)
            .field("heap_size", &self.heap_size)
            .field("pool_workers", &self.pool_workers())
            .field("cache", &self.cache)
            .finish()
    }
}

/// Pack launch parameters according to the kernel's declaration.
fn pack(decl: &ptx::Kernel, args: &[ParamValue]) -> Result<Vec<u8>, CoreError> {
    if decl.params.len() != args.len() {
        return Err(CoreError::BadLaunch(format!(
            "kernel `{}` expects {} parameters, got {}",
            decl.name,
            decl.params.len(),
            args.len()
        )));
    }
    let mut buf = vec![0u8; decl.param_buffer_size()];
    for (p, a) in decl.params.iter().zip(args) {
        // Little-endian, so a 4-byte value is the low half of its u64.
        let (bits, size) = match (p.ty.size_bytes(), a) {
            (4, ParamValue::U32(v)) => (u64::from(*v), 4),
            (4, ParamValue::F32(v)) => (u64::from(v.to_bits()), 4),
            (8, ParamValue::U64(v)) => (*v, 8),
            (8, ParamValue::F64(v)) => (v.to_bits(), 8),
            (8, ParamValue::Ptr(v)) => (v.0, 8),
            (size, other) => {
                return Err(CoreError::BadLaunch(format!(
                    "parameter `{}` is {size} bytes but argument is {other:?}",
                    p.name
                )))
            }
        };
        buf[p.offset..p.offset + size].copy_from_slice(&bits.to_le_bytes()[..size]);
    }
    Ok(buf)
}

/// An RAII device allocation from [`Device::alloc`]: frees itself back
/// to the heap when dropped, so per-iteration scratch buffers in
/// workloads and examples recycle instead of leaking bump space.
///
/// The buffer dereferences to its [`DevicePtr`] via [`DeviceBuffer::ptr`];
/// pass that to launches and copies. Dropping the buffer while a launch
/// that references it is still in flight is a caller bug (like freeing
/// a CUDA buffer mid-kernel): the memory may be recycled under the
/// kernel. Synchronize first.
#[derive(Debug)]
pub struct DeviceBuffer<'d> {
    dev: &'d Device,
    ptr: DevicePtr,
    len: usize,
}

impl DeviceBuffer<'_> {
    /// The device pointer to the start of the buffer.
    pub fn ptr(&self) -> DevicePtr {
        self.ptr
    }

    /// Requested length in bytes (the underlying block may be larger).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the requested length was zero (the underlying block is
    /// still at least one 64-byte class).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Release the buffer explicitly, surfacing any free error (drop
    /// ignores it).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Memory`] if the block was already freed
    /// out from under the buffer via [`Device::free`].
    pub fn release(self) -> Result<(), CoreError> {
        let ptr = self.ptr;
        let dev = self.dev;
        std::mem::forget(self);
        dev.free(ptr)
    }
}

impl Drop for DeviceBuffer<'_> {
    fn drop(&mut self) {
        // Double-free via a manual `Device::free` on our pointer is a
        // caller bug; the heap reports it, drop cannot.
        let _ = self.dev.free(self.ptr);
    }
}

/// An in-order launch queue on a [`Device`] — the CUDA stream of the
/// front-end. Launches submitted to one stream execute in submission
/// order (at most one of the stream's launches occupies the pool at a
/// time; the worker that retires it promotes the next). Launches on
/// different streams, and plain [`Device::launch_async`] calls, may
/// overlap freely.
pub struct Stream<'d> {
    dev: &'d Device,
    shared: Arc<StreamShared>,
}

impl Stream<'_> {
    /// This stream's device-unique identifier (as reported in dpvk-trace
    /// stream events).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Enqueue a launch on this stream, after every launch previously
    /// submitted to it, and return its handle immediately.
    ///
    /// # Errors
    ///
    /// Launch-geometry and compilation errors surface here,
    /// synchronously (nothing is enqueued); execution errors surface
    /// from [`LaunchHandle::wait`]. A failed launch does *not* block the
    /// stream: later submissions still run.
    pub fn launch(
        &self,
        kernel: &str,
        grid: [u32; 3],
        block: [u32; 3],
        args: &[ParamValue],
        config: &ExecConfig,
    ) -> Result<LaunchHandle, CoreError> {
        self.launch_cancellable(kernel, grid, block, args, config, &CancelToken::new())
    }

    /// [`Stream::launch`] with a host-held cancellation token (in
    /// addition to [`LaunchHandle::cancel`]). Cancelling one launch does
    /// not cancel or reorder the stream's other launches.
    ///
    /// # Errors
    ///
    /// See [`Stream::launch`].
    pub fn launch_cancellable(
        &self,
        kernel: &str,
        grid: [u32; 3],
        block: [u32; 3],
        args: &[ParamValue],
        config: &ExecConfig,
        cancel: &CancelToken,
    ) -> Result<LaunchHandle, CoreError> {
        let req = self.dev.request(kernel, grid, block, args, config, cancel.clone())?;
        job::submit(req, Some(Arc::clone(&self.shared)), Arc::clone(&self.dev.inflight))
    }

    /// Launches accepted by this stream but not yet released to the pool
    /// (queued behind the stream's active launch).
    pub fn pending(&self) -> usize {
        self.shared.held()
    }

    /// Block until every launch submitted to this stream has completed.
    pub fn synchronize(&self) {
        self.shared.wait_idle();
    }
}

impl std::fmt::Debug for Stream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream")
            .field("id", &self.shared.id)
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: &str = r#"
.kernel scale (.param .u64 data, .param .f32 alpha, .param .u32 n) {
  .reg .u32 %r<4>;
  .reg .u64 %rd<4>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  mad.lo.u32 %r1, %ctaid.x, %ntid.x, %r1;
  ld.param.u32 %r2, [n];
  setp.ge.u32 %p1, %r1, %r2;
  @%p1 bra done;
  cvt.u64.u32 %rd1, %r1;
  shl.u64 %rd1, %rd1, 2;
  ld.param.u64 %rd2, [data];
  add.u64 %rd2, %rd2, %rd1;
  ld.global.f32 %f1, [%rd2];
  ld.param.f32 %f2, [alpha];
  mul.f32 %f1, %f1, %f2;
  st.global.f32 [%rd2], %f1;
done:
  ret;
}
"#;

    #[test]
    fn end_to_end_scale() {
        let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
        dev.register_source(SCALE).unwrap();
        let n = 70usize;
        let buf = dev.malloc(n * 4).unwrap();
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        dev.copy_f32_htod(buf, &data).unwrap();
        let stats = dev
            .launch(
                "scale",
                [3, 1, 1],
                [32, 1, 1],
                &[ParamValue::Ptr(buf), ParamValue::F32(2.5), ParamValue::U32(n as u32)],
                &ExecConfig::dynamic(4),
            )
            .unwrap();
        let out = dev.copy_f32_dtoh(buf, n).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.5 * i as f32);
        }
        assert!(stats.exec.total_cycles() > 0);
        assert!(dev.cache_stats().misses > 0);
    }

    #[test]
    fn param_count_mismatch_is_rejected() {
        let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 16);
        dev.register_source(SCALE).unwrap();
        let err = dev
            .launch("scale", [1, 1, 1], [1, 1, 1], &[ParamValue::U32(1)], &ExecConfig::baseline())
            .unwrap_err();
        assert!(matches!(err, CoreError::BadLaunch(_)));
    }

    #[test]
    fn param_type_mismatch_is_rejected() {
        let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 16);
        dev.register_source(SCALE).unwrap();
        let err = dev
            .launch(
                "scale",
                [1, 1, 1],
                [1, 1, 1],
                &[ParamValue::U32(0), ParamValue::F32(1.0), ParamValue::U32(0)],
                &ExecConfig::baseline(),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::BadLaunch(_)), "{err:?}");
    }

    #[test]
    fn malloc_is_aligned_and_bounded() {
        let dev = Device::new(MachineModel::sandybridge_sse(), 4096);
        let a = dev.malloc(10).unwrap();
        let b = dev.malloc(10).unwrap();
        assert_eq!(a.0 % 64, 0);
        assert_eq!(b.0 % 64, 0);
        assert!(b.0 >= a.0 + 64);
        assert!(dev.malloc(1 << 20).is_err());
    }

    #[test]
    fn malloc_overflow_is_reported_not_wrapped() {
        let dev = Device::new(MachineModel::sandybridge_sse(), 4096);
        assert!(matches!(dev.malloc(usize::MAX), Err(CoreError::Memory(_))));
        assert!(matches!(dev.malloc(usize::MAX - 62), Err(CoreError::Memory(_))));
        // A failed allocation must not consume heap: the next small one
        // still fits.
        assert!(dev.malloc(64).is_ok());
    }

    #[test]
    fn launch_with_deadline_passes_when_budget_is_generous() {
        let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
        dev.register_source(SCALE).unwrap();
        let n = 16usize;
        let buf = dev.malloc(n * 4).unwrap();
        dev.copy_f32_htod(buf, &vec![1.0; n]).unwrap();
        dev.launch_with_deadline(
            "scale",
            [1, 1, 1],
            [16, 1, 1],
            &[ParamValue::Ptr(buf), ParamValue::F32(3.0), ParamValue::U32(n as u32)],
            &ExecConfig::dynamic(4),
            Duration::from_secs(60),
        )
        .unwrap();
        assert!(dev.copy_f32_dtoh(buf, n).unwrap().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn pre_cancelled_launch_fails_and_device_stays_usable() {
        let dev = Device::new(MachineModel::sandybridge_sse(), 1 << 20);
        dev.register_source(SCALE).unwrap();
        let n = 16usize;
        let buf = dev.malloc(n * 4).unwrap();
        dev.copy_f32_htod(buf, &vec![1.0; n]).unwrap();
        let args = [ParamValue::Ptr(buf), ParamValue::F32(2.0), ParamValue::U32(n as u32)];
        let token = CancelToken::new();
        token.cancel();
        let err = dev
            .launch_cancellable(
                "scale",
                [1, 1, 1],
                [16, 1, 1],
                &args,
                &ExecConfig::dynamic(4),
                &token,
            )
            .unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert!(err.to_string().contains("scale"), "{err}");
        // The device is not poisoned: a fresh launch succeeds.
        dev.launch("scale", [1, 1, 1], [16, 1, 1], &args, &ExecConfig::dynamic(4)).unwrap();
        assert!(dev.copy_f32_dtoh(buf, n).unwrap().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn memcpy_round_trip() {
        let dev = Device::new(MachineModel::sandybridge_sse(), 4096);
        let p = dev.malloc(16).unwrap();
        dev.memcpy_htod(p, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        dev.memcpy_dtoh(&mut out, p).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }
}
