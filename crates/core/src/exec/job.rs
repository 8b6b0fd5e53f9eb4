//! Launch jobs, handles and stream state.
//!
//! A launch is validated and translated eagerly on the calling thread
//! (so compile errors surface synchronously, with the same statistics
//! and trace events on every path) and packaged as an owned
//! [`LaunchJob`] of one chunk per worker share. An asynchronous or
//! stream launch is *submitted*: every chunk goes to the process-wide
//! [`WorkerPool`](super::worker::WorkerPool) and the caller gets a
//! [`LaunchHandle`] — the stream-ordered, individually
//! waitable/cancellable "event" of the CUDA model. A synchronous launch
//! is *run*: the pool gets chunks `1..`, and the calling thread executes
//! chunk 0 and any chunk still queued, then parks only for chunks a
//! worker holds.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use dpvk_trace::timeline::{self, Span, SpanKind};
use dpvk_vm::{CancelToken, GlobalMem, VmError};

use crate::cache::TranslationCache;
use crate::error::CoreError;
use crate::sync::Monitor;
use crate::translate::TranslatedKernel;

use super::stats::LaunchStats;
use super::worker::{self, Chunk, WorkerPool};
use super::{boundary_fault, ExecConfig};

/// Everything a launch needs, owned: pool workers are `'static` and may
/// outlive any one caller's borrow, so the job carries cloned cache and
/// memory handles and copied parameter bytes instead of references.
pub(crate) struct LaunchRequest {
    pub cache: TranslationCache,
    /// The registered kernel's name, shared with the registry: every
    /// span of the launch records it by reference count.
    pub kernel: Arc<str>,
    pub grid: [u32; 3],
    pub block: [u32; 3],
    pub param: Vec<u8>,
    pub global: Arc<GlobalMem>,
    pub config: ExecConfig,
    /// The launch token: the caller's token when given, a private one
    /// otherwise. Chunks trip it on any fault so siblings of *this*
    /// launch stop early; other launches' tokens are untouched.
    pub token: CancelToken,
}

/// Mutable completion state of one launch, updated by pool workers as
/// chunks finish.
struct JobInner {
    /// Chunks still running or queued.
    remaining: usize,
    /// Stats merged from finished chunks (merging is commutative, so
    /// completion order does not matter).
    stats: LaunchStats,
    /// How each chunk ended, indexed by chunk: its error and its first
    /// unfinished CTA. The final merge walks them in chunk order,
    /// replicating the spawn-per-launch error priority exactly.
    ends: Vec<(Option<CoreError>, Option<u32>)>,
    /// The finalized outcome; present exactly when `remaining == 0`.
    outcome: Option<Result<LaunchStats, CoreError>>,
}

/// One launch in flight on the pool.
pub(crate) struct LaunchJob {
    pub req: LaunchRequest,
    /// The eagerly translated kernel, shared by every chunk (and used as
    /// the identity key of worker dispatch memos).
    pub tk: Arc<TranslatedKernel>,
    pub cta_count: u64,
    /// Number of chunks the grid is striped across; chunk `i` runs CTAs
    /// `i, i + chunks, …` (the old per-worker partition).
    pub chunks: usize,
    /// Stream this job is ordered on, if any.
    stream: Option<Arc<StreamShared>>,
    /// Device in-flight gauge, decremented at completion.
    gauge: Arc<InflightGauge>,
    state: Monitor<JobInner>,
    /// Flight-recorder launch sequence number; 0 when tracing was off at
    /// submission, which disables all timeline work for this job.
    pub(crate) seq: u64,
    /// Timeline timestamp of submission, origin of the queue-wait span.
    submit_ns: u64,
    /// Set by the first chunk to start executing; that chunk closes the
    /// queue-wait span (submission → first dispatch).
    queue_wait_done: AtomicBool,
}

impl LaunchJob {
    /// Stream id for timeline attribution (0 for the default stream).
    pub(crate) fn stream_id(&self) -> u64 {
        self.stream.as_ref().map_or(0, |s| s.id)
    }

    /// Record a span of this launch on its stream's track, from
    /// `start_ns` until now (`None`: a marker, now). Callers check
    /// `seq != 0` first.
    fn stream_span(&self, kind: SpanKind, start_ns: Option<u64>, detail: u64) {
        let now = timeline::now_ns();
        let start_ns = start_ns.unwrap_or(now);
        timeline::record_span(Span {
            kind,
            kernel: Arc::clone(&self.req.kernel),
            seq: self.seq,
            stream: self.stream_id(),
            worker: None,
            start_ns,
            dur_ns: now.saturating_sub(start_ns),
            detail,
        });
    }

    /// Called immediately before a chunk of this job runs (on a pool
    /// worker or the launching thread); the first call closes the
    /// launch's queue-wait span (submission → first dispatch) on the
    /// stream track. One untaken branch per chunk when the flight
    /// recorder is off.
    pub(crate) fn note_chunk_start(&self) {
        if self.seq == 0 || self.queue_wait_done.swap(true, Relaxed) {
            return;
        }
        self.stream_span(SpanKind::QueueWait, Some(self.submit_ns), self.chunks as u64);
    }

    /// Record one finished chunk, consuming the reference its thread ran
    /// it under. The thread that retires the last chunk finalizes the
    /// outcome, hands the stream's next job on, wakes waiters and
    /// releases the launch from the device's gauge. On a traced launch
    /// that retirement is the `Retire` span: from the last chunk's taking
    /// the state lock to after the hand-off.
    ///
    /// A pool worker passes its pool as `worker` and gets the chunk it
    /// runs next, or `None` once it counts as idle (see
    /// [`WorkerPool::finish_chunk`]). Any other thread gets `None`, the
    /// next job having gone to the pool queue.
    pub(crate) fn complete_chunk(
        self: Arc<Self>,
        index: usize,
        stats: &LaunchStats,
        error: Option<CoreError>,
        stopped_at: Option<u32>,
        worker: Option<&WorkerPool>,
    ) -> Option<Chunk> {
        let start = if self.seq != 0 { timeline::now_ns() } else { 0 };
        let finished = {
            let mut st = self.state.lock();
            st.stats.merge(stats);
            st.ends[index] = (error, stopped_at);
            st.remaining -= 1;
            if st.remaining == 0 {
                let outcome = finalize(&self.req.kernel, &mut st);
                // Before the waiters wake, so they see the fault traced.
                if outcome.is_err() {
                    dpvk_trace::add(dpvk_trace::Counter::Faults, 1);
                    if self.seq != 0 {
                        self.stream_span(SpanKind::Fault, None, 0);
                    }
                }
                st.outcome = Some(outcome);
                true
            } else {
                false
            }
        };
        let next = finished.then(|| self.stream.as_ref()?.on_job_retired()).flatten();
        // The pool learns of this worker's next move before any waiter
        // wakes, so a waiter that submits again finds the worker counted
        // as busy only if it is.
        let continuation = match worker {
            Some(pool) => pool.finish_chunk(next),
            None => {
                if let Some(next) = next {
                    worker::pool().enqueue(&next, 0);
                }
                None
            }
        };
        if finished {
            self.state.notify_all();
            dpvk_trace::add(dpvk_trace::Counter::LaunchesRetired, 1);
            if self.seq != 0 {
                self.stream_span(SpanKind::Retire, Some(start), self.cta_count);
            }
            // Last, and with this chunk's reference let go, so a
            // device's `synchronize` (and its drop) returns only once
            // retirement is done and a retiring worker no longer keeps
            // the launch's memory alive.
            let gauge = Arc::clone(&self.gauge);
            drop(self);
            gauge.dec();
        }
        continuation
    }

    fn wait_outcome(&self) -> Result<LaunchStats, CoreError> {
        let guard = self.state.lock();
        let guard = self.state.wait_while(guard, |st| st.outcome.is_none());
        guard.outcome.clone().expect("job finalized before wakeup")
    }

    /// Wait for the outcome and move it out of the job: for a launch no
    /// handle can wait on again.
    fn take_outcome(&self) -> Result<LaunchStats, CoreError> {
        let guard = self.state.lock();
        let mut guard = self.state.wait_while(guard, |st| st.outcome.is_none());
        guard.outcome.take().expect("job finalized before wakeup")
    }

    fn try_outcome(&self) -> Option<Result<LaunchStats, CoreError>> {
        self.state.lock().outcome.clone()
    }

    fn is_finished(&self) -> bool {
        self.state.lock().outcome.is_some()
    }
}

/// Merge per-chunk outcomes into the launch result, replicating the
/// spawn-per-launch semantics: stats from every chunk count (even failed
/// ones, so Figure-9-style breakdowns stay honest under degradation),
/// and the winning error is the first in chunk order, with genuine
/// faults preferred over the secondary cancellations they caused.
fn finalize(kernel: &str, st: &mut JobInner) -> Result<LaunchStats, CoreError> {
    let mut first_error: Option<CoreError> = None;
    let mut interrupted = false;
    for (error, stopped) in &st.ends {
        interrupted |= stopped.is_some();
        match (&first_error, error) {
            (None, Some(e)) => first_error = Some(e.clone()),
            (Some(prev), Some(e)) if prev.is_cancelled() && !e.is_cancelled() => {
                first_error = Some(e.clone());
            }
            _ => {}
        }
    }
    let total = &st.stats;
    dpvk_trace::add(dpvk_trace::Counter::SpillBytes, total.exec.spill_bytes);
    dpvk_trace::add(dpvk_trace::Counter::RestoreBytes, total.exec.restore_bytes);
    if total.exec.downgraded_warps > 0 {
        dpvk_trace::add(dpvk_trace::Counter::DowngradedWarps, total.exec.downgraded_warps);
    }
    if total.exec.cancelled_warps > 0 {
        dpvk_trace::add(dpvk_trace::Counter::CancelledWarps, total.exec.cancelled_warps);
    }
    if first_error.is_none() && interrupted {
        // The host cancelled the token and no chunk faulted: surface the
        // cancellation with the first interrupted CTA as provenance.
        let cta = st.ends.iter().filter_map(|&(_, stopped)| stopped).min().unwrap_or(0);
        first_error = Some(boundary_fault(kernel, cta, VmError::Cancelled));
    }
    first_error.map_or_else(|| Ok(std::mem::take(&mut st.stats)), Err)
}

/// A handle to one asynchronous launch: wait on it, poll it, or cancel
/// it — each launch independently, so cancelling one in-flight launch
/// (or a worker panic inside it) cannot poison its siblings.
///
/// Dropping the handle does *not* cancel the launch; it keeps running to
/// completion (its memory effects land either way).
#[derive(Clone)]
pub struct LaunchHandle {
    pub(crate) job: Arc<LaunchJob>,
}

impl LaunchHandle {
    /// Block until the launch completes and return its result. Repeat
    /// waits return the same result.
    ///
    /// # Errors
    ///
    /// The first error raised by any worker chunk, with genuine faults
    /// preferred over secondary cancellations — identical to the
    /// blocking launch path.
    pub fn wait(&self) -> Result<LaunchStats, CoreError> {
        self.job.wait_outcome()
    }

    /// The result if the launch has completed, `None` while it is still
    /// queued or running. Never blocks.
    pub fn try_wait(&self) -> Option<Result<LaunchStats, CoreError>> {
        self.job.try_outcome()
    }

    /// Whether the launch has completed (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.job.is_finished()
    }

    /// Trip this launch's cancellation token. Cooperative: chunks stop
    /// at their next poll (warp boundaries and every
    /// [`dpvk_vm::ExecLimits::check_interval`] guest instructions), and
    /// [`LaunchHandle::wait`] then reports a cancellation fault. Other
    /// launches — including later launches on the same stream — are
    /// unaffected.
    pub fn cancel(&self) {
        self.job.req.token.cancel();
    }

    /// The kernel this launch runs.
    pub fn kernel(&self) -> &str {
        &self.job.req.kernel
    }
}

impl std::fmt::Debug for LaunchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaunchHandle")
            .field("kernel", &self.job.req.kernel)
            .field("finished", &self.is_finished())
            .finish()
    }
}

/// Shared state of one stream: a FIFO of jobs not yet released to the
/// pool, plus the in-order gate. At most one job of a stream is ever in
/// the pool ("active"); the worker that retires it promotes the next —
/// workers never *block* on another job, so stream ordering cannot
/// deadlock the pool however many streams share however few workers.
pub(crate) struct StreamShared {
    pub id: u64,
    queue: Monitor<StreamQueue>,
}

#[derive(Default)]
struct StreamQueue {
    pending: VecDeque<Arc<LaunchJob>>,
    /// Whether a job of this stream is currently released to the pool.
    active: bool,
}

impl StreamShared {
    pub(crate) fn new(id: u64) -> Self {
        StreamShared { id, queue: Monitor::new(StreamQueue::default()) }
    }

    /// Enqueue `job` in stream order: release it to the pool immediately
    /// if the stream is idle, otherwise hold it until its predecessor
    /// retires.
    fn submit_ordered(&self, job: Arc<LaunchJob>) {
        let release = {
            let mut q = self.queue.lock();
            if q.active {
                q.pending.push_back(Arc::clone(&job));
                dpvk_trace::record_peak(
                    dpvk_trace::Counter::StreamQueuePeak,
                    q.pending.len() as u64,
                );
                false
            } else {
                q.active = true;
                true
            }
        };
        if release {
            worker::pool().enqueue(&job, 0);
        }
    }

    /// Called by the thread that retired this stream's active job: take
    /// the next held job, now the stream's active one, for the caller to
    /// run or enqueue, or mark the stream idle.
    fn on_job_retired(&self) -> Option<Arc<LaunchJob>> {
        let next = {
            let mut q = self.queue.lock();
            let next = q.pending.pop_front();
            if next.is_none() {
                q.active = false;
            }
            next
        };
        self.queue.notify_all();
        next
    }

    /// Launches accepted but not yet released to the pool.
    pub(crate) fn held(&self) -> usize {
        self.queue.lock().pending.len()
    }

    /// Block until every launch submitted to this stream has retired.
    pub(crate) fn wait_idle(&self) {
        let guard = self.queue.lock();
        drop(self.queue.wait_while(guard, |q| q.active || !q.pending.is_empty()));
    }
}

/// Count of launches in flight on one device, so
/// [`Device::synchronize`](crate::runtime::Device::synchronize) can park
/// until the device drains without polling.
pub(crate) struct InflightGauge {
    count: Monitor<usize>,
}

impl InflightGauge {
    pub(crate) fn new() -> Self {
        InflightGauge { count: Monitor::new(0) }
    }

    fn inc(&self) {
        *self.count.lock() += 1;
    }

    fn dec(&self) {
        let mut n = self.count.lock();
        *n -= 1;
        if *n == 0 {
            drop(n);
            self.count.notify_all();
        }
    }

    /// Block until no launches are in flight.
    pub(crate) fn wait_idle(&self) {
        let guard = self.count.lock();
        drop(self.count.wait_while(guard, |n| *n != 0));
    }
}

/// Validate, translate, and enqueue one launch on the process-wide pool,
/// returning its handle: the path of `Device::launch_async` and
/// `Stream::launch`.
///
/// # Errors
///
/// As [`prepare`]; nothing is enqueued.
pub(crate) fn submit(
    req: LaunchRequest,
    stream: Option<Arc<StreamShared>>,
    gauge: Arc<InflightGauge>,
) -> Result<LaunchHandle, CoreError> {
    let job = prepare(req, stream, gauge)?;
    match &job.stream {
        Some(stream) => stream.submit_ordered(Arc::clone(&job)),
        None => worker::pool().enqueue(&job, 0),
    }
    Ok(LaunchHandle { job })
}

/// Validate, translate and run one launch to completion, the calling
/// thread its first execution manager: the pool gets chunks `1..` (a
/// one-chunk launch wakes no worker), the caller runs chunk 0 and takes
/// back every chunk still queued, and parks only for chunks a worker
/// already holds. The path of `Device::launch` and its deadline and
/// cancellable forms.
///
/// # Errors
///
/// As [`prepare`], then the launch's execution error, exactly as
/// [`LaunchHandle::wait`] reports it.
pub(crate) fn run(req: LaunchRequest, gauge: Arc<InflightGauge>) -> Result<LaunchStats, CoreError> {
    let job = prepare(req, None, gauge)?;
    worker::pool().enqueue(&job, 1);
    worker::run_on_caller(&job);
    job.take_outcome()
}

/// Validate and translate one launch and package it as a job counted in
/// the device's in-flight gauge, ready for its chunks to run.
///
/// # Errors
///
/// Launch-geometry and translation errors are reported synchronously
/// (no job is made). Eager pre-translation failures are recorded in
/// [`CacheStats::spec_failures`](crate::cache::CacheStats) and marked as
/// a fault on the launch's timeline, exactly like worker-side
/// translation failures, so every launch path reports compile errors
/// consistently.
fn prepare(
    req: LaunchRequest,
    stream: Option<Arc<StreamShared>>,
    gauge: Arc<InflightGauge>,
) -> Result<Arc<LaunchJob>, CoreError> {
    let cta_count = (req.grid[0] as u64) * (req.grid[1] as u64) * (req.grid[2] as u64);
    let cta_size = (req.block[0] as u64) * (req.block[1] as u64) * (req.block[2] as u64);
    if cta_count == 0 || cta_size == 0 {
        return Err(CoreError::BadLaunch("grid and block dimensions must be positive".into()));
    }
    if cta_size > 4096 {
        return Err(CoreError::BadLaunch(format!("CTA size {cta_size} exceeds the 4096 limit")));
    }
    // Flight-recorder identity: a nonzero sequence number marks this
    // launch as recorded; everything downstream keys off it, so a
    // launch submitted with tracing off stays off the timeline even if
    // tracing turns on mid-flight.
    let tracing = dpvk_trace::enabled();
    let seq = if tracing { timeline::next_launch_seq() } else { 0 };
    let stream_id = stream.as_ref().map_or(0, |s| s.id);
    // Force translation at submission so errors surface eagerly (and
    // chunks skip the per-CTA cache lookup). The launch scope attributes
    // any cold translate span to this launch.
    let tk = {
        let _scope = tracing.then(|| timeline::launch_scope(seq, stream_id));
        match req.cache.translated(&req.kernel) {
            Ok(tk) => tk,
            Err(e) => {
                req.cache.note_spec_failure(&req.kernel, &e);
                return Err(e);
            }
        }
    };
    // The queue wait starts once the launch is translated, so a cold
    // launch's `queue_wait` span does not contain its `translate` span.
    let submit_ns = if tracing { timeline::now_ns() } else { 0 };

    let chunks =
        if req.config.workers == 0 { req.cache.model().cores as usize } else { req.config.workers }
            .min(cta_count as usize)
            .max(1);

    // The first launch creates the pool, which panics on a bad
    // `DPVK_POOL_WORKERS`: do that before the gauge counts this launch,
    // or the unwinding device's drop waits for it forever.
    worker::pool();
    let max_warp = req.config.max_warp;
    let job = Arc::new(LaunchJob {
        tk,
        cta_count,
        chunks,
        stream,
        gauge,
        state: Monitor::new(JobInner {
            remaining: chunks,
            stats: LaunchStats::new(max_warp),
            ends: vec![(None, None); chunks],
            outcome: None,
        }),
        req,
        seq,
        submit_ns,
        queue_wait_done: AtomicBool::new(false),
    });
    job.gauge.inc();
    dpvk_trace::add(dpvk_trace::Counter::LaunchesSubmitted, 1);
    Ok(job)
}
