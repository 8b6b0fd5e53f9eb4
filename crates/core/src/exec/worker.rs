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
//! A worker that finishes a chunk takes its next one under the same
//! queue lock ([`WorkerPool::finish_chunk`]): when nothing else waits,
//! that is the stream launch its completion released, so a stream's
//! launches run back to back on one thread, as the paper's resident
//! managers run what is dispatched to them.
//!
//! The thread that issues a synchronous launch is that launch's first
//! execution manager ([`run_on_caller`]): it runs chunk 0 and any chunk
//! no worker has taken, with a thread-local [`WorkerScratch`], through
//! the same [`execute_chunk`] the workers use.
//!
//! Fault isolation: each CTA runs under `catch_unwind` (plus a
//! chunk-level net around the glue), so a panic becomes
//! [`CoreError::WorkerPanic`] on that launch's handle, the launch's own
//! token is tripped, and the thread — worker or caller — survives to
//! serve the next job: one launch's failure cannot poison its siblings
//! or the pool.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, MutexGuard, OnceLock};
use std::time::Instant;

use dpvk_ir::ResumeStatus;
use dpvk_trace::timeline::{self, SpanKind};
use dpvk_vm::{GlobalMem, JitCta, MemAccess, RegFrame, ThreadContext, VmError};

use crate::cache::{CompiledKernel, TranslationCache, Variant};
use crate::error::CoreError;
use crate::sync::Monitor;
use crate::translate::TranslatedKernel;

use super::gather::{gather_timed, GatherTally};
use super::job::LaunchJob;
use super::stats::LaunchStats;
use super::{boundary_fault, panic_payload, warp_fault, Engine, FormationPolicy};

/// One unit of pool work: the `index`-th chunk of `job` (CTAs
/// `index, index + chunks, …`).
pub(crate) struct Chunk {
    job: Arc<LaunchJob>,
    index: usize,
}

/// Chunks `first..` of `job`, as queue items.
fn chunks(job: &Arc<LaunchJob>, first: usize) -> impl Iterator<Item = Chunk> + '_ {
    (first..job.chunks).map(|index| Chunk { job: Arc::clone(job), index })
}

#[derive(Default)]
struct PoolQueue {
    items: VecDeque<Chunk>,
    /// Workers currently executing a chunk (pool occupancy).
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
    /// Enqueue chunks `first..job.chunks` of `job`, spawn workers while
    /// more chunks wait than workers are idle (up to the pool size), and
    /// wake one parked worker; a worker that takes a chunk and leaves
    /// more behind wakes the next. Waking one at a time keeps the woken
    /// workers from all contending for the queue lock at once, which on a
    /// two-core host left the second chunk of a launch waiting for the
    /// first. Called at submit with `first == 0` for unordered jobs and
    /// the first job of an idle stream, and with `first == 1` by a
    /// synchronous launch, whose caller runs chunk 0 itself (a one-chunk
    /// launch enqueues, spawns and wakes nothing).
    pub(crate) fn enqueue(&self, job: &Arc<LaunchJob>, first: usize) {
        if first < job.chunks {
            let mut q = self.queue.lock();
            q.items.extend(chunks(job, first));
            self.staff(q);
        }
    }

    /// The calling worker finished a chunk, and `next` is the stream job
    /// its completion released, if any: queue `next` at the back and
    /// take the chunk at the front, staying counted busy. With the queue
    /// empty, that is `next`'s chunk 0, and the worker continues the
    /// stream on the thread, and the core, that ran its predecessor.
    /// Otherwise chunks already waiting, of other streams or launches, go
    /// first, as FIFO order has it. Only with nothing to take does the
    /// worker count itself idle. One lock, and no wake for work the
    /// thread takes itself. Chunks it adds beyond the one it takes are
    /// staffed as [`WorkerPool::enqueue`] staffs them. A take that adds
    /// nothing and leaves chunks behind wakes the next parked worker, as
    /// a worker's pop from the queue does. A swap of one chunk for
    /// another wakes no one: the chunk left behind was already owed a
    /// worker, woken or busy, when the taken one was queued.
    pub(crate) fn finish_chunk(&self, next: Option<Arc<LaunchJob>>) -> Option<Chunk> {
        let mut q = self.queue.lock();
        let waiting = q.items.len();
        if let Some(next) = &next {
            q.items.extend(chunks(next, 0));
        }
        let Some(chunk) = q.items.pop_front() else {
            q.busy -= 1;
            return None;
        };
        if q.items.len() > waiting {
            self.staff(q);
        } else if next.is_none() && !q.items.is_empty() {
            drop(q);
            self.queue.notify_one();
        }
        Some(chunk)
    }

    /// Spawn workers while more chunks wait than workers are idle (up to
    /// the pool size) and wake one parked worker, releasing the queue
    /// lock `q` first.
    fn staff(&self, mut q: MutexGuard<'_, PoolQueue>) {
        let idle = q.spawned - q.busy;
        let spawn = q.spawned..(q.spawned + q.items.len().saturating_sub(idle)).min(self.size);
        q.spawned = spawn.end;
        drop(q);
        for i in spawn {
            std::thread::Builder::new()
                .name(format!("dpvk-worker-{i}"))
                .spawn(|| worker_loop(pool()))
                .expect("spawn pool worker");
        }
        self.queue.notify_one();
    }

    /// Take back a chunk of `job` that no worker has picked up yet.
    fn reclaim(&self, job: &Arc<LaunchJob>) -> Option<Chunk> {
        let mut q = self.queue.lock();
        let at = q.items.iter().position(|c| Arc::ptr_eq(&c.job, job))?;
        q.items.remove(at)
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
    crate::config::get()
        .pool_workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()).max(4))
}

/// One worker thread: park until a chunk is available, run it, repeat
/// for the life of the process.
fn worker_loop(pool: &WorkerPool) {
    // Claim a timeline track up front (one atomic increment per worker
    // thread lifetime) so spans emitted on this thread — including
    // compile spans from deep inside the cache — carry its identity.
    timeline::register_worker();
    let mut scratch = WorkerScratch::new();
    loop {
        let mut chunk = {
            let mut q = pool.queue.lock();
            loop {
                if let Some(chunk) = q.items.pop_front() {
                    if !q.items.is_empty() {
                        pool.queue.notify_one();
                    }
                    q.busy += 1;
                    if dpvk_trace::enabled() {
                        dpvk_trace::record_peak(dpvk_trace::Counter::PoolBusyPeak, q.busy as u64);
                    }
                    break Some(chunk);
                }
                q = pool.queue.wait(q);
            }
        };
        while let Some(Chunk { job, index }) = chunk {
            chunk = execute_chunk(job, index, &mut scratch, Some(pool));
        }
    }
}

thread_local! {
    /// Execution scratch of a thread that runs chunks of its own
    /// synchronous launches: built on its first launch and reused, so a
    /// warm launch allocates nothing for it.
    static CALLER_SCRATCH: RefCell<WorkerScratch> = RefCell::new(WorkerScratch::new());
}

/// Run a synchronous launch on the calling thread, the launch's first
/// execution manager: chunk 0, then every chunk of `job` no worker has
/// picked up yet (chunks `1..` were enqueued for the pool). Returns when
/// none is left to take; chunks a worker already holds may still be
/// running. The thread's dispatch memo is unbound afterwards, so a user
/// thread never keeps a dropped device's cache alive.
pub(crate) fn run_on_caller(job: &Arc<LaunchJob>) {
    // A timeline track for this thread, claimed on its first traced
    // chunk only: untraced launches register nothing.
    if job.seq != 0 && dpvk_trace::enabled() && timeline::worker_track().is_none() {
        timeline::register_worker();
    }
    CALLER_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        // Not a pool worker: `execute_chunk` queues any stream job this
        // completion releases and returns no chunk to continue with.
        execute_chunk(Arc::clone(job), 0, scratch, None);
        if job.chunks > 1 {
            while let Some(Chunk { job, index }) = pool().reclaim(job) {
                execute_chunk(job, index, scratch, None);
            }
        }
        scratch.dispatch.unbind();
    });
}

/// Run chunk `index` of `job` on the calling thread — a pool worker
/// (`worker` is its pool) or the thread of a synchronous launch — and
/// report it. The one path every chunk takes: a panic that escapes the
/// per-CTA net is contained here, memo tallies are flushed, and the
/// completion is recorded (by the last chunk, the launch retired).
/// Returns the chunk a pool worker runs next, as
/// [`LaunchJob::complete_chunk`] does.
fn execute_chunk(
    job: Arc<LaunchJob>,
    index: usize,
    scratch: &mut WorkerScratch,
    worker: Option<&WorkerPool>,
) -> Option<Chunk> {
    let max_warp = job.req.config.max_warp;
    let mut stats = std::mem::take(&mut scratch.stats);
    stats.reset(max_warp);
    let outcome = catch_unwind(AssertUnwindSafe(|| run_chunk(&job, index, &mut stats, scratch)));
    let (error, stopped_at) = outcome.unwrap_or_else(|payload| {
        // A panic that escaped the per-CTA net (inter-CTA glue).
        // Contain it exactly like a CTA panic; this chunk's partial
        // stats are lost, as they were under spawn-per-launch.
        job.req.token.cancel();
        stats.reset(max_warp);
        (
            Some(CoreError::WorkerPanic {
                worker: index,
                cta: 0,
                payload: panic_payload(payload.as_ref()),
            }),
            Some(0),
        )
    });
    scratch.trim();
    // Flush memo tallies *before* completion is observable, so cache
    // stats are exact the moment a waiter wakes — and flushed even when
    // the chunk panicked or faulted.
    scratch.dispatch.flush();
    let next = job.complete_chunk(index, &stats, error, stopped_at, worker);
    scratch.stats = stats;
    next
}

/// Run one chunk of a launch: CTAs `index, index + chunks, …` — the same
/// striding the spawn-per-launch workers used, so statistics and modeled
/// outputs are unchanged. Counts into `stats`, zeroed by the caller;
/// returns the chunk's error and its first unfinished CTA.
fn run_chunk(
    job: &Arc<LaunchJob>,
    index: usize,
    stats: &mut LaunchStats,
    scratch: &mut WorkerScratch,
) -> (Option<CoreError>, Option<u32>) {
    let req = &job.req;
    scratch.dispatch.rebind(&req.cache);
    job.note_chunk_start();
    // Flight recorder: only launches that drew a sequence number at
    // submission are recorded, and only while tracing is still on.
    let recording = job.seq != 0 && dpvk_trace::enabled();
    let _scope = recording.then(|| timeline::launch_scope(job.seq, job.stream_id()));
    let exec_start = recording.then(timeline::now_ns);
    scratch.gather = GatherTally::default();
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
        let run = catch_unwind(AssertUnwindSafe(|| run_cta(job, flat, stats, scratch)));
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
            let (ns, calls) = (scratch.gather.ns, scratch.gather.calls);
            timeline::record(SpanKind::Gather, &req.kernel, start, ns, calls);
        }
        let dur_ns = timeline::now_ns().saturating_sub(start);
        timeline::record(SpanKind::Execute, &req.kernel, start, dur_ns, stats.exec.warp_entries);
    }
    (error, stopped_at)
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
/// device's cache per worker is kept alive this way. A thread that runs
/// chunks of its own synchronous launches unbinds its memo after each
/// launch, so it keeps none alive. Hit and downgrade tallies accumulate
/// locally and flush to the cache's atomic counters at every chunk
/// boundary — which runs even when a CTA panics or faults, because the
/// flush sits outside `catch_unwind` in `execute_chunk` — so
/// [`TranslationCache::stats`] totals are identical to per-query
/// counting by the time any waiter observes the launch complete.
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
}

/// Memo entries are a linear scan; past this the scan (and the held
/// kernels) would outweigh the saved cache query, so start over.
const MEMO_CAPACITY: usize = 64;

// The execution manager's tariff in modeled cycles (the "EM" bars of
// the paper's Figure 9): a fixed charge per event.
/// Forming one warp.
const EM_FORMATION: u64 = 20;
/// Each ready-queue entry examined while gathering.
const EM_PER_THREAD_SCANNED: u64 = 2;
/// Each thread of a yield (status dispatch, re-queue).
const EM_PER_YIELD_THREAD: u64 = 6;
/// Each thread of barrier bookkeeping.
const EM_PER_BARRIER_THREAD: u64 = 4;
/// One translation-cache query.
const EM_CACHE_QUERY: u64 = 25;

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
        self.unbind();
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
            let e = &self.entries[at];
            self.hits += 1;
            if e.downgraded {
                self.downgrades += 1;
            }
            dpvk_trace::add(dpvk_trace::Counter::CacheHit, 1);
            at
        } else {
            let cache = self.cache.as_ref().expect("memo bound to a cache before resolving");
            let (compiled, downgraded) = cache.get_or_downgrade(kernel, w, variant)?;
            if self.entries.len() >= MEMO_CAPACITY {
                self.entries.clear();
            }
            self.entries.push(MemoEntry {
                tk: Arc::clone(tk),
                width: w,
                variant,
                compiled,
                downgraded,
            });
            self.entries.len() - 1
        };
        let e = &self.entries[at];
        Ok((&e.compiled, e.downgraded))
    }

    /// Flush tallies, drop every entry and let go of the bound cache.
    fn unbind(&mut self) {
        self.flush();
        self.entries.clear();
        self.cache = None;
    }

    /// Flush accumulated hit/downgrade tallies to the bound cache.
    fn flush(&mut self) {
        if self.hits != 0 || self.downgrades != 0 {
            if let Some(cache) = &self.cache {
                cache.add_resolved(self.hits, self.downgrades);
            }
            self.hits = 0;
            self.downgrades = 0;
        }
    }
}

/// Reusable per-worker execution state: the dispatch memo, a chunk's
/// statistics, a CTA's thread pools and memories, and the buffers of
/// warp formation and the interpreter register frame, so a warm chunk
/// allocates nothing. Lives as long as the worker thread; a buffer keeps
/// the largest size any CTA it served needed, except a CTA memory above
/// [`RETAINED_MEMORY_BYTES`], freed when its chunk ends.
pub(crate) struct WorkerScratch {
    pub(crate) dispatch: DispatchMemo,
    /// The running chunk's statistics, merged into its launch at
    /// completion.
    stats: LaunchStats,
    /// A CTA's threads ready to run, its threads waiting at a barrier,
    /// and its shared and local memories, zeroed per CTA.
    ready: VecDeque<ThreadContext>,
    barrier: Vec<ThreadContext>,
    shared: Vec<u8>,
    local: Vec<u8>,
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
            stats: LaunchStats::default(),
            ready: VecDeque::new(),
            barrier: Vec::new(),
            shared: Vec::new(),
            local: Vec::new(),
            warp: Vec::new(),
            kept: Vec::new(),
            frame: RegFrame::new(),
            gather: GatherTally::default(),
        }
    }

    /// Free a shared or local memory larger than
    /// [`RETAINED_MEMORY_BYTES`], before the chunk's completion is
    /// observable.
    fn trim(&mut self) {
        for buf in [&mut self.shared, &mut self.local] {
            if buf.capacity() > RETAINED_MEMORY_BYTES {
                *buf = Vec::new();
            }
        }
    }
}

/// The largest CTA shared or local memory a [`WorkerScratch`] keeps
/// from one chunk to the next. A kernel with much `.local` memory, or
/// many spill slots, in a large CTA needs megabytes; held by every pool
/// worker and by every thread that ever made a blocking launch, such a
/// buffer would stay pinned for the life of the process.
const RETAINED_MEMORY_BYTES: usize = 64 << 10;

/// Resize `buf` to `len` zero bytes, reusing its allocation.
fn zeroed(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    buf.clear();
    buf.resize(len, 0);
    buf
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
    let kernel: &str = &req.kernel;
    let tk = &job.tk;
    let config = &req.config;
    let cancel = &req.token;
    let grid = req.grid;
    let block = req.block;
    let global: &GlobalMem = &req.global;

    let cta_size = (block[0] * block[1] * block[2]) as usize;
    let ctaid =
        [cta_flat % grid[0], (cta_flat / grid[0]) % grid[1], cta_flat / (grid[0] * grid[1])];

    let WorkerScratch {
        dispatch, ready, barrier, shared, local, warp, kept, frame, gather, ..
    } = scratch;

    // Build thread contexts.
    ready.clear();
    barrier.clear();
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

    let mut exited: usize = 0;
    let mut scan_total: u64 = 0;
    let tracing = dpvk_trace::enabled();
    // The interpreter polls on an instruction stride; this boundary check
    // covers short warp calls that retire before the first poll.
    let polling = config.limits.deadline.is_some();

    #[cfg(feature = "fault-inject")]
    let mut injected_fault_pending = crate::faults::injected_warp_fault(cta_flat);

    let mem = MemAccess {
        global,
        shared: zeroed(shared, tk.shared_bytes.max(1)),
        local: zeroed(local, (tk.local_bytes * cta_size).max(1)),
        param: &req.param,
        cbank: &[],
    };
    let mut cta = JitCta::new(mem, &config.limits, Some(cancel));

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
        let scanned = gather_timed(ready, rp, config, warp, kept, gather);
        stats.exec.cycles_manager += EM_FORMATION + EM_PER_THREAD_SCANNED * scanned as u64;
        scan_total += scanned as u64;

        // Pick the widest available specialization.
        let (w, variant) = match config.policy {
            FormationPolicy::ScalarBaseline => (1u32, Variant::Baseline),
            FormationPolicy::Dynamic => {
                let mut w = config.max_warp;
                while w as usize > warp.len() {
                    w /= 2;
                }
                (w.max(1), Variant::Dynamic)
            }
            FormationPolicy::Static => {
                if warp.len() == config.max_warp as usize && config.max_warp > 1 {
                    (config.max_warp, Variant::StaticTie)
                } else {
                    (1, Variant::StaticTie)
                }
            }
        };
        stats.exec.cycles_manager += EM_CACHE_QUERY;
        // Degrade instead of failing: a specialization that cannot
        // compile falls back to the width-1 scalar baseline. Entry-point
        // numbering is shared across variants (assigned in `translate`),
        // so baseline warps resume mid-grid safely.
        let (compiled, downgraded) = dispatch.resolve(kernel, tk, w, variant)?;
        let w = if downgraded {
            stats.exec.downgraded_warps += 1;
            1
        } else {
            w
        };
        // Return surplus threads to the queue head (they keep priority).
        while warp.len() > w as usize {
            let ctx = warp.pop().expect("warp longer than w");
            ready.push_front(ctx);
        }

        #[cfg(feature = "fault-inject")]
        if let Some(vm_err) = injected_fault_pending.take() {
            return Err(warp_fault(kernel, cta_flat, rp, warp, vm_err));
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
        let outcome = cta
            .execute_warp(
                jit.map(Arc::as_ref),
                &compiled.bytecode,
                frame,
                warp,
                rp,
                &mut stats.exec,
            )
            .map_err(|e| {
                if matches!(e, VmError::Cancelled | VmError::Deadline) {
                    stats.exec.cancelled_warps += 1;
                }
                warp_fault(kernel, cta_flat, rp, warp, e)
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
            dpvk_trace::record_yield(reason);
        }

        stats.exec.cycles_manager += EM_PER_YIELD_THREAD * w as u64;
        match outcome.status {
            ResumeStatus::Exit => {
                exited += warp.len();
                warp.clear();
            }
            ResumeStatus::Branch => {
                for ctx in warp.drain(..) {
                    if ctx.is_terminated() {
                        exited += 1;
                    } else {
                        ready.push_back(ctx);
                    }
                }
            }
            ResumeStatus::Barrier => {
                stats.exec.cycles_manager += EM_PER_BARRIER_THREAD * w as u64;
                barrier.append(warp);
            }
        }

        // Barrier release: when every live thread has arrived, everyone
        // resumes at the continuation entry point.
        let alive = cta_size - exited;
        if !barrier.is_empty() && barrier.len() == alive {
            stats.exec.cycles_manager += EM_PER_BARRIER_THREAD * barrier.len() as u64;
            ready.extend(barrier.drain(..));
        }
    }

    if !barrier.is_empty() {
        return Err(CoreError::BadLaunch(format!(
            "barrier deadlock in kernel `{kernel}`: {} thread(s) waiting, {} exited",
            barrier.len(),
            exited
        )));
    }
    Ok(())
}
