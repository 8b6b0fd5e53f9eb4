//! The process-wide worker pool: the paper's resident execution managers.
//!
//! One pool serves every [`Device`](crate::runtime::Device) in the
//! process. It grows a worker whenever more work is queued than workers
//! are idle, up to its size, and never shrinks or shuts down; idle
//! workers park on a condition variable, so a warm launch performs no
//! thread spawn or join, and building or dropping a device spawns and
//! joins nothing. Each worker owns a [`WorkerScratch`]: warp-formation
//! buffers, an interpreter register frame, and a [`DispatchMemo`] of
//! resolved specializations that lives as long as the worker does
//! (flushing its statistics tallies at every chunk boundary, so cache
//! stats stay exact and fault-safe, and rebinding when a job arrives
//! from a different device's cache).
//!
//! Fault isolation: each CTA runs under `catch_unwind` (plus a
//! chunk-level net around the glue), so a panic becomes
//! [`CoreError::WorkerPanic`] on that launch's handle, the launch's own
//! token is tripped, and the worker thread survives to serve the next
//! job — one launch's failure cannot poison its siblings or the pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dpvk_ir::ResumeStatus;
use dpvk_trace::timeline::{self, SpanKind};
use dpvk_vm::{
    execute_warp_bytecode, GlobalMem, JitCta, MemAccess, RegFrame, ThreadContext, VmError,
};

use crate::cache::{CompiledKernel, TranslationCache, Variant};
use crate::error::CoreError;
use crate::flight;
use crate::sync::Monitor;
use crate::translate::TranslatedKernel;

use super::gather::{gather_timed, GatherTally};
use super::job::LaunchJob;
use super::stats::LaunchStats;
use super::{boundary_fault, panic_payload, warp_fault, Engine, FormationPolicy};

/// One unit of pool work: the `index`-th chunk of `job` (CTAs
/// `index, index + chunks, …`).
struct Chunk {
    job: Arc<LaunchJob>,
    index: usize,
}

/// A queued unit of pool work: a launch chunk, or a detached background
/// task (the adaptive width policy compiles candidate specializations
/// this way, so re-specialization never runs on a launch's critical
/// path).
enum PoolItem {
    Chunk(Chunk),
    Task(Box<dyn FnOnce() + Send>),
}

#[derive(Default)]
struct PoolQueue {
    items: VecDeque<PoolItem>,
    /// Workers currently executing an item (pool occupancy).
    busy: usize,
    /// Workers spawned so far: the pool grows on demand, never past its
    /// size, and never shrinks.
    spawned: usize,
}

/// The pool of execution-manager threads; [`pool`] is the one instance.
pub(crate) struct WorkerPool {
    queue: Monitor<PoolQueue>,
    size: usize,
}

impl WorkerPool {
    /// Enqueue every chunk of `job` and wake workers. Called at submit
    /// for unordered jobs, and by the retiring worker for the next job
    /// of a stream.
    pub(crate) fn enqueue(&self, job: Arc<LaunchJob>) {
        let chunks = (0..job.chunks).map(|index| Chunk { job: Arc::clone(&job), index });
        self.push(chunks.map(PoolItem::Chunk));
    }

    /// Enqueue a detached background task; it runs on a pool worker when
    /// one frees up, behind any queued chunks.
    pub(crate) fn submit_task(&self, task: Box<dyn FnOnce() + Send>) {
        self.push(std::iter::once(PoolItem::Task(task)));
    }

    /// Queue `items`, spawn workers while more items wait than workers
    /// are idle (up to the pool size), and wake one parked worker; a
    /// worker that takes an item and leaves more behind wakes the next.
    /// Waking one at a time keeps the woken workers from all contending
    /// for the queue lock at once, which on a two-core host left the
    /// second chunk of a launch waiting for the first.
    fn push(&self, items: impl Iterator<Item = PoolItem>) {
        let spawn = {
            let mut q = self.queue.lock();
            q.items.extend(items);
            let idle = q.spawned - q.busy;
            let spawn = q.spawned..(q.spawned + q.items.len().saturating_sub(idle)).min(self.size);
            q.spawned = spawn.end;
            spawn
        };
        for i in spawn {
            std::thread::Builder::new()
                .name(format!("dpvk-worker-{i}"))
                .spawn(|| worker_loop(pool()))
                .expect("spawn pool worker");
        }
        self.queue.notify_one();
    }

    /// Most worker threads the pool runs.
    pub(crate) fn size(&self) -> usize {
        self.size
    }
}

/// The process-wide pool: created on first use, shared by every device,
/// and never torn down. Its workers are spawned as launches first need
/// them, up to [`pool_size`].
pub(crate) fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool { queue: Monitor::new(PoolQueue::default()), size: pool_size() })
}

/// Size of the pool: `DPVK_POOL_WORKERS` when set, otherwise the host's
/// available parallelism but at least 4, so a default-config launch on
/// either 4-core model has a worker per chunk.
fn pool_size() -> usize {
    // A value that does not parse or lies outside 1..=256 is a startup
    // configuration bug and panics (same contract as `DPVK_ENGINE`); it
    // is never silently clamped or ignored.
    match crate::error::env_u64("DPVK_POOL_WORKERS", "a worker count (1..=256)", 1..=256) {
        Some(n) => n as usize,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()).max(4),
    }
}

/// One worker thread: park until a chunk is available, run it, flush
/// memo tallies, report completion, repeat for the life of the process.
fn worker_loop(pool: &WorkerPool) {
    // Claim a timeline track up front (one atomic increment per worker
    // thread lifetime) so spans emitted on this thread — including
    // compile spans from deep inside the cache — carry its identity.
    timeline::register_worker();
    let mut scratch = WorkerScratch::new();
    loop {
        let item = {
            let mut q = pool.queue.lock();
            loop {
                if let Some(item) = q.items.pop_front() {
                    if !q.items.is_empty() {
                        pool.queue.notify_one();
                    }
                    q.busy += 1;
                    if dpvk_trace::enabled() {
                        dpvk_trace::record_peak(dpvk_trace::Counter::PoolBusyPeak, q.busy as u64);
                    }
                    break item;
                }
                q = pool.queue.wait(q);
            }
        };
        let Chunk { job, index } = match item {
            PoolItem::Chunk(c) => c,
            PoolItem::Task(task) => {
                // Background work is panic-contained like a chunk: a bad
                // candidate compile must not kill the worker thread.
                let _ = catch_unwind(AssertUnwindSafe(task));
                let mut q = pool.queue.lock();
                q.busy -= 1;
                continue;
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_chunk(&job, index, &mut scratch)));
        let (stats, error, stopped_at) = outcome.unwrap_or_else(|payload| {
            // A panic that escaped the per-CTA net (inter-CTA glue).
            // Contain it exactly like a CTA panic; this chunk's partial
            // stats are lost, as they were under spawn-per-launch.
            job.req.token.cancel();
            (
                LaunchStats::new(job.req.config.max_warp),
                Some(CoreError::WorkerPanic {
                    worker: index,
                    cta: 0,
                    payload: panic_payload(payload.as_ref()),
                }),
                Some(0),
            )
        });
        // Flush memo tallies *before* completion is observable, so cache
        // stats are exact the moment a waiter wakes — and flushed even
        // when the chunk panicked or faulted.
        scratch.dispatch.flush();
        {
            let mut q = pool.queue.lock();
            q.busy -= 1;
        }
        job.complete_chunk(index, stats, error, stopped_at);
    }
}

/// Run one chunk of a launch: CTAs `index, index + chunks, …` — the same
/// striding the spawn-per-launch workers used, so statistics and modeled
/// outputs are unchanged.
fn run_chunk(
    job: &Arc<LaunchJob>,
    index: usize,
    scratch: &mut WorkerScratch,
) -> (LaunchStats, Option<CoreError>, Option<u32>) {
    let req = &job.req;
    scratch.dispatch.rebind(&req.cache);
    job.note_chunk_start();
    // Flight recorder: only launches that drew a sequence number at
    // submission are recorded, and only while tracing is still on.
    let recording = job.seq != 0 && dpvk_trace::enabled();
    let _scope = recording.then(|| timeline::launch_scope(job.seq, job.stream_id()));
    let exec_start = recording.then(timeline::now_ns);
    scratch.gather = GatherTally::default();
    let mut stats = LaunchStats::new(req.config.max_warp);
    let mut error = None;
    let mut stopped_at = None;
    let mut cta = index as u64;
    while cta < job.cta_count {
        let flat = cta as u32;
        if req.token.is_cancelled() {
            stopped_at = Some(flat);
            break;
        }
        if let Some(deadline) = req.config.limits.deadline {
            if Instant::now() >= deadline {
                error = Some(boundary_fault(&req.kernel, flat, VmError::Deadline));
                stopped_at = Some(flat);
                req.token.cancel();
                break;
            }
        }
        let run = catch_unwind(AssertUnwindSafe(|| run_cta(job, flat, &mut stats, scratch)));
        match run {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                // Secondary cancellations are not faults: the first
                // failure already tripped the token.
                if !e.is_cancelled() {
                    req.token.cancel();
                }
                error = Some(e);
                stopped_at = Some(flat);
                break;
            }
            Err(payload) => {
                req.token.cancel();
                error = Some(CoreError::WorkerPanic {
                    worker: index,
                    cta: flat,
                    payload: panic_payload(payload.as_ref()),
                });
                stopped_at = Some(flat);
                break;
            }
        }
        cta += job.chunks as u64;
    }
    if let Some(start) = exec_start {
        // The chunk's gather work as one coalesced child span at the
        // head of the execute span (its duration is the sum of the
        // chunk's gather calls, so it always nests).
        if scratch.gather.calls != 0 {
            flight::emit_span_at(
                SpanKind::Gather,
                &req.kernel,
                start,
                scratch.gather.ns,
                scratch.gather.calls,
            );
        }
        flight::emit_span(SpanKind::Execute, &req.kernel, start, stats.exec.warp_entries);
    }
    (stats, error, stopped_at)
}

/// Worker-local memo of resolved specializations. A launch requests the
/// same few `(width, variant)` pairs for every warp, so after the first
/// shared-cache query per pair the steady state is answered from this
/// table: a linear scan over a handful of entries, no lock, no
/// allocation. With the persistent pool the memo is long-lived — entries
/// survive across launches (keyed by the translated kernel's identity,
/// so back-to-back launches of the same kernel skip the shared cache
/// entirely) and are invalidated only when a job arrives from a
/// different cache. The bound cache and its entries therefore outlive a
/// dropped device until this worker serves another one: at most one
/// device's cache per worker is kept alive this way. Hit and downgrade
/// tallies accumulate locally and flush to the cache's atomic counters
/// at every chunk boundary — which runs even when a CTA panics or
/// faults, because the flush sits outside `catch_unwind` in the worker
/// loop — so [`TranslationCache::stats`] totals are identical to
/// per-query counting by the time any waiter observes the launch
/// complete.
pub(crate) struct DispatchMemo {
    cache: Option<TranslationCache>,
    entries: Vec<MemoEntry>,
    hits: u64,
    downgrades: u64,
}

struct MemoEntry {
    /// Identity key: the translated kernel this entry resolves for. The
    /// held `Arc` keeps the allocation alive, so pointer equality cannot
    /// alias a recycled address.
    tk: Arc<TranslatedKernel>,
    width: u32,
    variant: Variant,
    compiled: Arc<CompiledKernel>,
    downgraded: bool,
    /// Memo hits since the last flush, folded into the cache entry's
    /// per-width hit counter at chunk boundaries.
    pending_hits: u64,
    /// Warps resolved through this entry since the last flush (memo hits
    /// plus the initial shared-cache resolution), folded into the cache
    /// entry's per-width dispatched-warp counter.
    pending_warps: u64,
}

/// Memo entries are a linear scan; past this the scan (and the held
/// kernels) would outweigh the saved cache query, so start over.
const MEMO_CAPACITY: usize = 64;

impl DispatchMemo {
    fn new() -> Self {
        DispatchMemo { cache: None, entries: Vec::new(), hits: 0, downgrades: 0 }
    }

    /// Point the memo at `cache`, flushing tallies and dropping entries
    /// when it differs from the currently bound cache.
    fn rebind(&mut self, cache: &TranslationCache) {
        if self.cache.as_ref().is_some_and(|c| c.same_cache(cache)) {
            return;
        }
        self.flush();
        self.entries.clear();
        self.cache = Some(cache.clone());
    }

    /// Resolve a specialization plus its downgrade flag, consulting the
    /// shared cache only on the first request per `(kernel, width,
    /// variant)` this worker has seen since binding to the cache. The
    /// kernel is lent out of the memo entry, which holds it alive: a
    /// warp entry touches no reference count, so the workers of a launch
    /// do not bounce its cache line between them.
    fn resolve(
        &mut self,
        kernel: &str,
        tk: &Arc<TranslatedKernel>,
        w: u32,
        variant: Variant,
    ) -> Result<(&CompiledKernel, bool), CoreError> {
        let found = self
            .entries
            .iter()
            .position(|e| e.width == w && e.variant == variant && Arc::ptr_eq(&e.tk, tk));
        let at = if let Some(at) = found {
            // Tally what the shared cache would have counted: one hit per
            // resolution, and for a downgraded entry a hit on the width-1
            // baseline plus one downgrade.
            let e = &mut self.entries[at];
            self.hits += 1;
            e.pending_hits += 1;
            e.pending_warps += 1;
            if e.downgraded {
                self.downgrades += 1;
            }
            if dpvk_trace::enabled() {
                let (rw, rv) = if e.downgraded { (1, Variant::Baseline) } else { (w, variant) };
                dpvk_trace::record_cache_query(kernel, rw, rv.label(), true);
            }
            at
        } else {
            let cache = self.cache.as_ref().expect("memo bound to a cache before resolving");
            let (compiled, downgraded) = cache.get_or_downgrade(kernel, w, variant)?;
            if self.entries.len() >= MEMO_CAPACITY {
                // Flush before discarding so no per-width tallies are lost.
                self.flush();
                self.entries.clear();
            }
            self.entries.push(MemoEntry {
                tk: Arc::clone(tk),
                width: w,
                variant,
                compiled,
                downgraded,
                pending_hits: 0,
                pending_warps: 1,
            });
            self.entries.len() - 1
        };
        let e = &self.entries[at];
        Ok((&e.compiled, e.downgraded))
    }

    /// Flush accumulated hit/downgrade and per-width tallies to the
    /// bound cache. A downgraded entry's usage is attributed to the
    /// width-1 baseline it actually dispatched.
    pub(crate) fn flush(&mut self) {
        if self.hits != 0 || self.downgrades != 0 {
            if let Some(cache) = &self.cache {
                cache.add_resolved(self.hits, self.downgrades);
            }
            self.hits = 0;
            self.downgrades = 0;
        }
        if let Some(cache) = &self.cache {
            let tracing = dpvk_trace::enabled();
            for e in &mut self.entries {
                if e.pending_hits == 0 && e.pending_warps == 0 {
                    continue;
                }
                let hits = std::mem::take(&mut e.pending_hits);
                let warps = std::mem::take(&mut e.pending_warps);
                let (w, v) =
                    if e.downgraded { (1, Variant::Baseline) } else { (e.width, e.variant) };
                cache.note_width_use(&e.tk.name, w, v, hits, warps);
                if tracing {
                    dpvk_trace::record_width_use(&e.tk.name, w, warps);
                }
            }
        }
    }
}

/// Reusable per-worker execution state: the dispatch memo plus scratch
/// buffers for warp formation and the interpreter register frame, so the
/// steady-state CTA loop performs no heap allocation. Lives as long as
/// the worker thread.
pub(crate) struct WorkerScratch {
    pub(crate) dispatch: DispatchMemo,
    warp: Vec<ThreadContext>,
    kept: Vec<ThreadContext>,
    frame: RegFrame,
    /// Host gather time accumulated over the current chunk, flushed into
    /// one coalesced timeline span per chunk.
    gather: GatherTally,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            dispatch: DispatchMemo::new(),
            warp: Vec::new(),
            kept: Vec::new(),
            frame: RegFrame::new(),
            gather: GatherTally::default(),
        }
    }
}

/// A CTA's memory spaces, held the way its engine takes them: the JIT
/// binds them into its environment block once per CTA, the bytecode
/// engine borrows them per warp call. One lives on `run_cta`'s stack per CTA, so
/// the size gap between the variants costs nothing a `Box` would save.
#[allow(clippy::large_enum_variant)]
enum CtaMem<'a> {
    Jit(JitCta<'a>),
    Bytecode(MemAccess<'a>),
}

/// Execute all threads of one CTA to completion.
fn run_cta(
    job: &LaunchJob,
    cta_flat: u32,
    stats: &mut LaunchStats,
    scratch: &mut WorkerScratch,
) -> Result<(), CoreError> {
    #[cfg(feature = "fault-inject")]
    crate::faults::maybe_panic(cta_flat);

    let req = &job.req;
    let kernel = req.kernel.as_str();
    let tk = &job.tk;
    let config = &req.config;
    let cancel = &req.token;
    let grid = req.grid;
    let block = req.block;
    let global: &GlobalMem = &req.global;

    let cta_size = (block[0] * block[1] * block[2]) as usize;
    let ctaid =
        [cta_flat % grid[0], (cta_flat / grid[0]) % grid[1], cta_flat / (grid[0] * grid[1])];

    // Build thread contexts.
    let mut ready: VecDeque<ThreadContext> = VecDeque::with_capacity(cta_size);
    for tz in 0..block[2] {
        for ty in 0..block[1] {
            for tx in 0..block[0] {
                let mut ctx = ThreadContext::new([tx, ty, tz], block, ctaid, grid);
                let flat = ctx.flat_tid() as usize;
                ctx.local_base = (flat * tk.local_bytes) as u64;
                ready.push_back(ctx);
            }
        }
    }

    let mut shared = vec![0u8; tk.shared_bytes.max(1)];
    let mut local = vec![0u8; (tk.local_bytes * cta_size).max(1)];
    let mut barrier_pool: Vec<ThreadContext> = Vec::new();
    let mut exited: usize = 0;
    let mut scan_total: u64 = 0;
    let tracing = dpvk_trace::enabled();
    // The interpreter polls on an instruction stride; this boundary check
    // covers short warp calls that retire before the first poll.
    let polling = config.limits.deadline.is_some();

    #[cfg(feature = "fault-inject")]
    let mut injected_fault_pending = crate::faults::injected_warp_fault(cta_flat);

    let mem =
        MemAccess { global, shared: &mut shared, local: &mut local, param: &req.param, cbank: &[] };
    let mut mem = match config.engine {
        Engine::Jit => CtaMem::Jit(JitCta::new(mem, &config.limits, Some(cancel))),
        Engine::Bytecode => CtaMem::Bytecode(mem),
    };

    while let Some(front) = ready.front() {
        let rp = front.resume_point;
        if cancel.is_cancelled() {
            return Err(boundary_fault(kernel, cta_flat, VmError::Cancelled));
        }
        if polling {
            if let Some(deadline) = config.limits.deadline {
                if Instant::now() >= deadline {
                    return Err(boundary_fault(kernel, cta_flat, VmError::Deadline));
                }
            }
        }
        // Gather a warp (round-robin from the queue head, greedy collect of
        // matching resume points).
        let scanned = gather_timed(
            &mut ready,
            rp,
            config,
            &mut scratch.warp,
            &mut scratch.kept,
            &mut scratch.gather,
        );
        stats.exec.cycles_manager +=
            config.em_cost.formation_base + config.em_cost.per_thread_scanned * scanned as u64;
        scan_total += scanned as u64;

        // Pick the widest available specialization.
        let (w, variant) = match config.policy {
            FormationPolicy::ScalarBaseline => (1u32, Variant::Baseline),
            FormationPolicy::Dynamic => {
                let mut w = config.max_warp;
                while w as usize > scratch.warp.len() {
                    w /= 2;
                }
                (w.max(1), Variant::Dynamic)
            }
            FormationPolicy::Static => {
                if scratch.warp.len() == config.max_warp as usize && config.max_warp > 1 {
                    (config.max_warp, Variant::StaticTie)
                } else {
                    (1, Variant::StaticTie)
                }
            }
        };
        stats.exec.cycles_manager += config.em_cost.per_cache_query;
        // Degrade instead of failing: a specialization that cannot
        // compile falls back to the width-1 scalar baseline. Entry-point
        // numbering is shared across variants (assigned in `translate`),
        // so baseline warps resume mid-grid safely.
        let host_t = tracing.then(Instant::now);
        let (compiled, downgraded) = scratch.dispatch.resolve(kernel, tk, w, variant)?;
        if let Some(t) = host_t {
            dpvk_trace::add(dpvk_trace::Counter::HostDispatchNs, t.elapsed().as_nanos() as u64);
        }
        let w = if downgraded {
            stats.exec.downgraded_warps += 1;
            1
        } else {
            w
        };
        // Return surplus threads to the queue head (they keep priority).
        while scratch.warp.len() > w as usize {
            let ctx = scratch.warp.pop().expect("warp longer than w");
            ready.push_front(ctx);
        }

        #[cfg(feature = "fault-inject")]
        if let Some(vm_err) = injected_fault_pending.take() {
            return Err(warp_fault(kernel, cta_flat, rp, &scratch.warp, vm_err));
        }
        #[cfg(feature = "fault-inject")]
        crate::faults::maybe_slow_warp(cta_flat);

        // Resolve the native code for this specialization up front (the
        // first warp pays the emit; the rest hit the per-kernel cache).
        // `None` — unsupported host or no native lowering — degrades the
        // warp to the bytecode engine.
        let jit = match config.engine {
            Engine::Jit => compiled.jit(kernel),
            Engine::Bytecode => None,
        };
        // Count the dispatch before executing: a warp that faults or is
        // cancelled mid-body was still dispatched to its engine.
        if tracing {
            let engine_counter = match config.engine {
                Engine::Bytecode => dpvk_trace::Counter::WarpsBytecode,
                Engine::Jit if jit.is_some() => dpvk_trace::Counter::WarpsJit,
                Engine::Jit => {
                    dpvk_trace::add(dpvk_trace::Counter::JitFallbackWarps, 1);
                    dpvk_trace::Counter::WarpsBytecode
                }
            };
            dpvk_trace::add(engine_counter, 1);
        }
        let outcome = match &mut mem {
            CtaMem::Jit(cta) => cta.execute_warp(
                jit.map(Arc::as_ref),
                &compiled.bytecode,
                &mut scratch.frame,
                &mut scratch.warp,
                rp,
                &mut stats.exec,
            ),
            CtaMem::Bytecode(mem) => execute_warp_bytecode(
                &compiled.bytecode,
                &mut scratch.frame,
                &mut scratch.warp,
                rp,
                mem,
                &mut stats.exec,
                &config.limits,
                Some(cancel),
            ),
        }
        .map_err(|e| {
            if matches!(e, VmError::Cancelled | VmError::Deadline) {
                stats.exec.cancelled_warps += 1;
            }
            warp_fault(kernel, cta_flat, rp, &scratch.warp, e)
        })?;
        if (w as usize) < stats.warp_hist.len() {
            stats.warp_hist[w as usize] += 1;
        }
        if tracing {
            dpvk_trace::record_warp_entry(w, std::mem::take(&mut scan_total));
            let reason = match outcome.status {
                ResumeStatus::Exit => dpvk_trace::YieldReason::Exit,
                ResumeStatus::Branch => dpvk_trace::YieldReason::Branch,
                ResumeStatus::Barrier => dpvk_trace::YieldReason::Barrier,
            };
            dpvk_trace::record_yield(kernel, rp.max(0) as u32, reason, w);
        }

        stats.exec.cycles_manager += config.em_cost.per_yield_thread * w as u64;
        match outcome.status {
            ResumeStatus::Exit => {
                exited += scratch.warp.len();
                scratch.warp.clear();
            }
            ResumeStatus::Branch => {
                for ctx in scratch.warp.drain(..) {
                    if ctx.is_terminated() {
                        exited += 1;
                    } else {
                        ready.push_back(ctx);
                    }
                }
            }
            ResumeStatus::Barrier => {
                stats.exec.cycles_manager += config.em_cost.per_barrier_thread * w as u64;
                barrier_pool.append(&mut scratch.warp);
            }
        }

        // Barrier release: when every live thread has arrived, everyone
        // resumes at the continuation entry point.
        let alive = cta_size - exited;
        if !barrier_pool.is_empty() && barrier_pool.len() == alive {
            stats.exec.cycles_manager +=
                config.em_cost.per_barrier_thread * barrier_pool.len() as u64;
            ready.extend(barrier_pool.drain(..));
        }
    }

    if !barrier_pool.is_empty() {
        return Err(CoreError::BadLaunch(format!(
            "barrier deadlock in kernel `{kernel}`: {} thread(s) waiting, {} exited",
            barrier_pool.len(),
            exited
        )));
    }
    Ok(())
}
