//! Launch jobs, handles and stream state.
//!
//! A launch is *submitted*: validated and translated eagerly on the
//! calling thread (so compile errors surface synchronously, with the
//! same statistics and trace events on every path), packaged as an
//! owned [`LaunchJob`], and enqueued on the process-wide
//! [`WorkerPool`](super::worker::WorkerPool) as one chunk per worker
//! share. The caller gets a [`LaunchHandle`] — the stream-ordered,
//! individually waitable/cancellable "event" of the CUDA model.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use dpvk_trace::timeline::{self, SpanKind};
use dpvk_vm::{CancelToken, GlobalMem, VmError};

use crate::cache::TranslationCache;
use crate::error::CoreError;
use crate::flight;
use crate::sync::Monitor;
use crate::translate::TranslatedKernel;

use super::stats::LaunchStats;
use super::worker;
use super::{boundary_fault, ExecConfig};

/// Everything a launch needs, owned: pool workers are `'static` and may
/// outlive any one caller's borrow, so the job carries cloned cache and
/// memory handles and copied parameter bytes instead of references.
pub(crate) struct LaunchRequest {
    pub cache: TranslationCache,
    pub kernel: String,
    pub grid: [u32; 3],
    pub block: [u32; 3],
    pub param: Vec<u8>,
    pub global: Arc<GlobalMem>,
    pub config: ExecConfig,
    /// The launch token: the caller's token when given, a private one
    /// otherwise. Chunks trip it on any fault so siblings of *this*
    /// launch stop early; other launches' tokens are untouched.
    pub token: CancelToken,
    /// The device's adaptive width-policy table; the retiring worker
    /// feeds the launch's `ExecStats` back into it (a no-op unless
    /// adaptation is enabled).
    pub policy: Arc<crate::specialize::policy::PolicyTable>,
}

/// Mutable completion state of one launch, updated by pool workers as
/// chunks finish.
struct JobInner {
    /// Chunks still running or queued.
    remaining: usize,
    /// Stats merged from finished chunks (merging is commutative, so
    /// completion order does not matter).
    stats: LaunchStats,
    /// Per-chunk error slot, indexed by chunk — the final merge walks
    /// them in chunk order, replicating the spawn-per-launch error
    /// priority exactly.
    errors: Vec<Option<CoreError>>,
    /// Per-chunk first-unfinished-CTA slot.
    stopped: Vec<Option<u32>>,
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

    /// Called by a worker immediately before it runs a chunk of this
    /// job; the first caller closes the launch's queue-wait span
    /// (submission → first dispatch) on the stream track. One untaken
    /// branch per chunk when the flight recorder is off.
    pub(crate) fn note_chunk_start(&self) {
        if self.seq == 0 || self.queue_wait_done.swap(true, Relaxed) {
            return;
        }
        flight::emit_stream_span(
            SpanKind::QueueWait,
            &self.req.kernel,
            self.seq,
            self.stream_id(),
            self.submit_ns,
            timeline::now_ns().saturating_sub(self.submit_ns),
            self.chunks as u64,
        );
    }

    /// Record one finished chunk, consuming the worker's reference; the
    /// worker that retires the last chunk finalizes the outcome, wakes
    /// waiters, and releases the stream's next job into the pool. On a
    /// traced launch that retirement is the `Retire` span: from the last
    /// chunk's taking the state lock to after the stream promotion.
    pub(crate) fn complete_chunk(
        self: Arc<Self>,
        index: usize,
        stats: LaunchStats,
        error: Option<CoreError>,
        stopped_at: Option<u32>,
    ) {
        let start = if self.seq != 0 { timeline::now_ns() } else { 0 };
        let finished = {
            let mut st = self.state.lock();
            st.stats.merge(&stats);
            st.errors[index] = error;
            st.stopped[index] = stopped_at;
            st.remaining -= 1;
            if st.remaining == 0 {
                let outcome = finalize(&self.req.kernel, &mut st);
                if let Ok(stats) = &outcome {
                    // Feed the launch's modeled cost back into the
                    // adaptive width policy before the outcome becomes
                    // visible to waiters, so a caller that immediately
                    // relaunches observes every prior launch's score.
                    self.req.policy.observe(
                        &self.req.kernel,
                        self.req.config.max_warp,
                        stats,
                        &self.req.config.adapt,
                        &self.req.cache,
                    );
                }
                st.outcome = Some(outcome);
                true
            } else {
                false
            }
        };
        if finished {
            self.state.notify_all();
            dpvk_trace::add(dpvk_trace::Counter::LaunchesRetired, 1);
            if let Some(stream) = &self.stream {
                stream.on_job_retired(&self.req.kernel);
            }
            if self.seq != 0 {
                flight::emit_stream_span(
                    SpanKind::Retire,
                    &self.req.kernel,
                    self.seq,
                    self.stream_id(),
                    start,
                    timeline::now_ns().saturating_sub(start),
                    self.cta_count,
                );
            }
            // Last, and with this worker's reference let go, so a
            // device's `synchronize` (and its drop) returns only once
            // retirement is done and the retiring worker no longer keeps
            // the launch's memory alive.
            let gauge = Arc::clone(&self.gauge);
            drop(self);
            gauge.dec();
        }
    }

    fn wait_outcome(&self) -> Result<LaunchStats, CoreError> {
        let guard = self.state.lock();
        let guard = self.state.wait_while(guard, |st| st.outcome.is_none());
        guard.outcome.clone().expect("job finalized before wakeup")
    }

    fn try_outcome(&self) -> Option<Result<LaunchStats, CoreError>> {
        self.state.lock().outcome.clone()
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
    for i in 0..st.errors.len() {
        interrupted |= st.stopped[i].is_some();
        match (&first_error, &st.errors[i]) {
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
        let cta = st.stopped.iter().flatten().copied().min().unwrap_or(0);
        first_error = Some(boundary_fault(kernel, cta, VmError::Cancelled));
    }
    match first_error {
        Some(e) => {
            // Lead with the stable error code so trace consumers classify
            // faults without parsing the human-readable rendering.
            dpvk_trace::record_fault(kernel, &format!("[{}] {e}", e.code()));
            Err(e)
        }
        None => Ok(st.stats.clone()),
    }
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
        self.job.try_outcome().is_some()
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
                if dpvk_trace::enabled() {
                    dpvk_trace::record_peak(
                        dpvk_trace::Counter::StreamQueuePeak,
                        q.pending.len() as u64,
                    );
                    dpvk_trace::record_stream_event(
                        &job.req.kernel,
                        self.id,
                        q.pending.len() as u32,
                        true,
                    );
                }
                false
            } else {
                q.active = true;
                if dpvk_trace::enabled() {
                    dpvk_trace::record_stream_event(&job.req.kernel, self.id, 0, true);
                }
                true
            }
        };
        if release {
            worker::pool().enqueue(job);
        }
    }

    /// Called by the pool worker that retired this stream's active job:
    /// release the next held job, or mark the stream idle.
    fn on_job_retired(&self, kernel: &str) {
        let next = {
            let mut q = self.queue.lock();
            let next = q.pending.pop_front();
            if next.is_none() {
                q.active = false;
            }
            if dpvk_trace::enabled() {
                dpvk_trace::record_stream_event(kernel, self.id, q.pending.len() as u32, false);
            }
            next
        };
        self.queue.notify_all();
        if let Some(job) = next {
            worker::pool().enqueue(job);
        }
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
/// returning its handle. This is the single submission path:
/// `Device::launch`, `Device::launch_async` and `Stream::launch` all come
/// through here.
///
/// # Errors
///
/// Launch-geometry and translation errors are reported synchronously
/// (nothing is enqueued). Eager pre-translation failures are recorded in
/// [`CacheStats::spec_failures`](crate::cache::CacheStats) and emitted
/// as a dpvk-trace fault event, exactly like worker-side translation
/// failures, so the async path reports compile errors consistently.
pub(crate) fn submit(
    req: LaunchRequest,
    stream: Option<Arc<StreamShared>>,
    gauge: Arc<InflightGauge>,
) -> Result<LaunchHandle, CoreError> {
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
    let submit_ns = if tracing { timeline::now_ns() } else { 0 };
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

    let chunks =
        if req.config.workers == 0 { req.cache.model().cores as usize } else { req.config.workers }
            .min(cta_count as usize)
            .max(1);

    // The first launch creates the pool, which panics on a bad
    // `DPVK_POOL_WORKERS`: do that before the gauge counts this launch,
    // or the unwinding device's drop waits for it forever.
    let pool = worker::pool();
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
            errors: vec![None; chunks],
            stopped: vec![None; chunks],
            outcome: None,
        }),
        req,
        seq,
        submit_ns,
        queue_wait_done: AtomicBool::new(false),
    });
    job.gauge.inc();
    dpvk_trace::add(dpvk_trace::Counter::LaunchesSubmitted, 1);
    match &job.stream {
        Some(stream) => stream.submit_ordered(Arc::clone(&job)),
        None => pool.enqueue(Arc::clone(&job)),
    }
    Ok(LaunchHandle { job })
}
