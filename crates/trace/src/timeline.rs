//! Span-based per-launch timeline — the "flight recorder", and the only
//! store of events and timings in `dpvk-trace`.
//!
//! Every launch is assigned a monotonically increasing sequence number at
//! submission and accumulates nested spans as it moves through the
//! pipeline: queue-wait (submission to first worker pickup), translate /
//! specialize / decode (compile phases, attributed to the launch that
//! triggered them, with their sub-phases nested inside), per-chunk
//! execute with a coalesced gather child, and retire. A downgrade or a
//! fault is a zero-length marker span on its launch. Spans are tagged
//! with the stream id (0 = direct, unstreamed) and — when they were
//! produced on a thread that runs launch chunks (a pool worker, or the
//! launching thread of a traced blocking launch) — that thread's track
//! id, so the Chrome-trace export renders one track per such thread and
//! one per stream.
//!
//! Like the rest of `dpvk-trace`, the recorder is disabled by default:
//! every entry point is gated on [`crate::enabled`], one relaxed atomic
//! load on the fast path.

use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

// ---------------------------------------------------------------------------
// Clock + identifiers
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's process-wide epoch (first use).
/// Span start timestamps are expressed on this clock.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static LAUNCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Allocate the next launch sequence number (1-based; 0 means "no
/// launch"). Called once per traced launch at submission.
pub fn next_launch_seq() -> u64 {
    LAUNCH_SEQ.fetch_add(1, Ordering::Relaxed) + 1
}

static WORKER_IDS: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static WORKER_TRACK: Cell<u32> = const { Cell::new(u32::MAX) };
    static CURRENT_LAUNCH: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Register the calling thread — a pool worker, or a thread that runs
/// chunks of its own blocking launches — and return its track id.
/// Worker ids are process-unique and stable for the thread's lifetime;
/// spans recorded on this thread (including compile phases that happen to
/// run on it) are attributed to its track.
pub fn register_worker() -> u32 {
    let id = WORKER_IDS.fetch_add(1, Ordering::Relaxed);
    WORKER_TRACK.with(|t| t.set(id));
    id
}

/// The calling thread's worker track, if [`register_worker`] ran on it.
pub fn worker_track() -> Option<u32> {
    WORKER_TRACK.with(|t| {
        let v = t.get();
        (v != u32::MAX).then_some(v)
    })
}

/// Number of worker tracks registered so far.
pub fn worker_count() -> u32 {
    WORKER_IDS.load(Ordering::Relaxed)
}

/// RAII scope marking the calling thread as working on behalf of a
/// launch, so spans recorded deeper in the call stack (e.g. a cache miss
/// compiling inside a chunk) inherit the launch's seq and stream.
#[must_use = "the launch context lasts until the scope is dropped"]
pub struct LaunchScope {
    prev: (u64, u64),
}

/// Enter a launch context (see [`LaunchScope`]). The previous context is
/// restored when the returned scope drops, even on unwind.
pub fn launch_scope(seq: u64, stream: u64) -> LaunchScope {
    let prev = CURRENT_LAUNCH.with(|c| c.replace((seq, stream)));
    LaunchScope { prev }
}

impl Drop for LaunchScope {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT_LAUNCH.with(|c| c.set(prev));
    }
}

/// The `(seq, stream)` of the launch the calling thread is currently
/// working for, or `(0, 0)` outside any [`launch_scope`].
pub fn current_launch() -> (u64, u64) {
    CURRENT_LAUNCH.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// The launch phases the flight recorder distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Submission until the first chunk started (on a worker, or on the
    /// launching thread of a blocking launch).
    QueueWait,
    /// Parsing and validating a module's source at registration (not
    /// attributed to a launch).
    Parse,
    /// PTX → IR translation (cold; cached afterwards).
    Translate,
    /// Lowering PTX instructions to scalar IR, inside `Translate`.
    Lower,
    /// Verifying the scalar IR and finding its entry points and live
    /// sets, inside `Translate`.
    Analyze,
    /// Warp-width specialization of the IR (cache-miss fill).
    Specialize,
    /// One constant-folding pass of the optimizer, inside `Specialize`.
    ConstFold,
    /// One local common-subexpression pass, inside `Specialize`.
    Cse,
    /// One dead-code-elimination pass, inside `Specialize`.
    Dce,
    /// Block fusion and unreachable-block removal, inside `Specialize`.
    Fusion,
    /// Pre-decoding a specialization into linear bytecode.
    Decode,
    /// Lowering a decoded specialization to native x86-64 (JIT emit,
    /// cache-miss fill under `DPVK_ENGINE=jit`).
    JitEmit,
    /// One worker executing one chunk of the launch's CTAs.
    Execute,
    /// Warp formation inside one chunk, coalesced into a single span.
    Gather,
    /// Retiring the launch: from its last chunk's taking the job's
    /// state lock (merge, finalize, waking waiters) to
    /// after the stream's next job was released.
    Retire,
    /// Loading a specialized function from the persistent on-disk
    /// cache (replaces Specialize on a warm restart).
    PersistLoad,
    /// Writing a freshly compiled artifact to the persistent cache.
    PersistStore,
    /// Marker: a specialization failed to compile and its launches fall
    /// back to the scalar baseline. The failure itself is the memoized
    /// error the translation cache returns for that specialization.
    Downgrade,
    /// Marker: a fault escaped the launch. The fault itself is the
    /// launch's error.
    Fault,
}

impl SpanKind {
    /// Every kind, in declaration (pipeline) order, so `kind as usize`
    /// indexes it.
    pub const ALL: [SpanKind; 19] = [
        SpanKind::QueueWait,
        SpanKind::Parse,
        SpanKind::Translate,
        SpanKind::Lower,
        SpanKind::Analyze,
        SpanKind::Specialize,
        SpanKind::ConstFold,
        SpanKind::Cse,
        SpanKind::Dce,
        SpanKind::Fusion,
        SpanKind::Decode,
        SpanKind::JitEmit,
        SpanKind::Execute,
        SpanKind::Gather,
        SpanKind::Retire,
        SpanKind::PersistLoad,
        SpanKind::PersistStore,
        SpanKind::Downgrade,
        SpanKind::Fault,
    ];

    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Parse => "parse",
            SpanKind::Translate => "translate",
            SpanKind::Lower => "lower",
            SpanKind::Analyze => "analyze",
            SpanKind::Specialize => "specialize",
            SpanKind::ConstFold => "const_fold",
            SpanKind::Cse => "cse",
            SpanKind::Dce => "dce",
            SpanKind::Fusion => "fusion",
            SpanKind::Decode => "decode",
            SpanKind::JitEmit => "jit_emit",
            SpanKind::Execute => "execute",
            SpanKind::Gather => "gather",
            SpanKind::Retire => "retire",
            SpanKind::PersistLoad => "persist_load",
            SpanKind::PersistStore => "persist_store",
            SpanKind::Downgrade => "downgrade",
            SpanKind::Fault => "fault",
        }
    }
}

/// One recorded span on the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which phase this span covers.
    pub kind: SpanKind,
    /// Kernel the span belongs to: a launch's spans share its name, so
    /// recording one copies a reference count, not the name.
    pub kernel: Arc<str>,
    /// Launch sequence number (0 = not attributed to a launch).
    pub seq: u64,
    /// Stream id (0 = direct, unstreamed launch).
    pub stream: u64,
    /// Worker track the span ran on, if it ran on a pool worker.
    pub worker: Option<u32>,
    /// Start, nanoseconds on the [`now_ns`] clock.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for markers).
    pub dur_ns: u64,
    /// Kind-specific detail: warps executed (execute), gather calls
    /// coalesced (gather), chunk count (queue-wait), CTAs (retire),
    /// blocks (translate, persist), warp width (specialize, downgrade),
    /// µops (decode), code bytes (JIT emit); 0 otherwise.
    pub detail: u64,
}

/// Capacity of the bounded span store; past it, spans are counted in
/// [`dropped_spans`] instead of stored.
pub const SPAN_CAPACITY: usize = 1 << 16;

#[derive(Default)]
struct TimelineState {
    spans: Vec<Span>,
    dropped: u64,
}

fn state() -> &'static Mutex<TimelineState> {
    static STATE: OnceLock<Mutex<TimelineState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(TimelineState::default()))
}

fn lock_state() -> std::sync::MutexGuard<'static, TimelineState> {
    state().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Record one span. No-op (one relaxed atomic load) when tracing is off.
pub fn record_span(span: Span) {
    if !crate::enabled() {
        return;
    }
    let mut s = lock_state();
    if s.spans.len() < SPAN_CAPACITY {
        s.spans.push(span);
    } else {
        s.dropped += 1;
    }
}

/// Record a span of `kernel` that began at `start_ns` and lasted
/// `dur_ns`, attributed to the calling thread's [`launch_scope`] (seq and
/// stream 0 outside one) and, on a registered thread, to its track (without
/// one the span lands on its stream's track).
pub fn record(kind: SpanKind, kernel: &Arc<str>, start_ns: u64, dur_ns: u64, detail: u64) {
    if crate::enabled() {
        record_ambient(kind, Arc::clone(kernel), start_ns, dur_ns, detail);
    }
}

fn record_ambient(kind: SpanKind, kernel: Arc<str>, start_ns: u64, dur_ns: u64, detail: u64) {
    let (seq, stream) = current_launch();
    record_span(Span {
        kind,
        kernel,
        seq,
        stream,
        worker: worker_track(),
        start_ns,
        dur_ns,
        detail,
    });
}

/// Record a zero-length marker span of `kernel` now, attributed like
/// [`record`]. The name is copied: a marker is rare (a downgrade or a
/// fault).
pub fn marker(kind: SpanKind, kernel: &str, detail: u64) {
    if crate::enabled() {
        record_ambient(kind, kernel.into(), now_ns(), 0, detail);
    }
}

/// RAII span: opened by [`span`], recorded (attributed like [`record`])
/// when dropped. Inert when tracing was off at the open.
#[must_use = "the span is timed until the guard is dropped"]
pub struct SpanGuard {
    open: Option<(SpanKind, Arc<str>, u64)>,
    detail: u64,
}

/// Open a span of `kind` for `kernel`, closed when the returned guard
/// drops. A span opened inside another on the same thread nests inside
/// it on the same track. Costs one relaxed atomic load when tracing is
/// off; when it is on, the name is copied once, at the open (guards time
/// compile phases, which run once per kernel, not once per launch).
pub fn span(kind: SpanKind, kernel: &str) -> SpanGuard {
    let open = crate::enabled().then(|| (kind, kernel.into(), now_ns()));
    SpanGuard { open, detail: 0 }
}

impl SpanGuard {
    /// Set the span's [`Span::detail`].
    pub fn set_detail(&mut self, detail: u64) {
        self.detail = detail;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((kind, kernel, start_ns)) = self.open.take() {
            let dur_ns = now_ns().saturating_sub(start_ns);
            record_ambient(kind, kernel, start_ns, dur_ns, self.detail);
        }
    }
}

/// Spans discarded because the bounded store was full.
pub fn dropped_spans() -> u64 {
    lock_state().dropped
}

/// All recorded spans, sorted by start time (then seq) so exports are
/// deterministic for a deterministic workload.
pub fn spans() -> Vec<Span> {
    let mut spans = lock_state().spans.clone();
    spans.sort_by_key(|s| (s.start_ns, s.seq, s.kind));
    spans
}

/// Clear all recorded spans (used by `trace::reset`). Worker track ids
/// and the launch-sequence counter keep running: they identify live
/// threads and launches, not recorded data.
pub(crate) fn reset_timeline() {
    let mut s = lock_state();
    s.spans.clear();
    s.dropped = 0;
}

// ---------------------------------------------------------------------------
// Launch records + aggregates
// ---------------------------------------------------------------------------

/// All spans of one launch, grouped by sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchRecord {
    /// Launch sequence number.
    pub seq: u64,
    /// Kernel name.
    pub kernel: String,
    /// Stream id (0 = direct).
    pub stream: u64,
    /// The launch's spans, in start order.
    pub spans: Vec<Span>,
}

/// Group recorded spans into per-launch records, sorted by sequence
/// number. Spans not attributed to a launch (seq 0) are omitted.
pub fn launch_records() -> Vec<LaunchRecord> {
    let mut records: Vec<LaunchRecord> = Vec::new();
    for span in spans() {
        if span.seq == 0 {
            continue;
        }
        match records.iter_mut().find(|r| r.seq == span.seq) {
            Some(r) => r.spans.push(span),
            None => records.push(LaunchRecord {
                seq: span.seq,
                kernel: span.kernel.to_string(),
                stream: span.stream,
                spans: vec![span],
            }),
        }
    }
    records.sort_by_key(|r| r.seq);
    records
}

/// Aggregate time per span kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotal {
    /// The span kind being totalled.
    pub kind: SpanKind,
    /// Number of spans of this kind.
    pub calls: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
}

/// Per-kind span totals in pipeline order (kinds with no spans included
/// with zero counts, so the shape is stable).
pub fn span_totals() -> Vec<SpanTotal> {
    let mut totals: Vec<SpanTotal> =
        SpanKind::ALL.iter().map(|&kind| SpanTotal { kind, calls: 0, total_ns: 0 }).collect();
    for span in lock_state().spans.iter() {
        let t = &mut totals[span.kind as usize];
        t.calls += 1;
        t.total_ns += span.dur_ns;
    }
    totals
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Synthetic pid of the per-worker track group in the Chrome export.
const WORKERS_PID: u64 = 1;
/// Synthetic pid of the per-stream track group in the Chrome export.
const STREAMS_PID: u64 = 2;

fn meta_event(j: &mut Json, name: &str, pid: u64, tid: u64, value: &str) {
    j.open_obj(None);
    j.field_str("name", name);
    j.field_str("ph", "M");
    j.field_u64("pid", pid);
    j.field_u64("tid", tid);
    j.open_obj(Some("args"));
    j.field_str("name", value);
    j.close_obj();
    j.close_obj();
}

/// Render the recorded timeline as Chrome trace-event JSON (the format
/// Perfetto and `chrome://tracing` load): complete (`ph:"X"`) events with
/// microsecond timestamps, one track per worker (pid 1) and one per
/// stream (pid 2).
pub fn chrome_trace() -> String {
    let spans = spans();
    let mut j = Json::new();
    j.open_obj(None);
    j.field_str("displayTimeUnit", "ms");
    j.open_arr(Some("traceEvents"));

    meta_event(&mut j, "process_name", WORKERS_PID, 0, "workers");
    meta_event(&mut j, "process_name", STREAMS_PID, 0, "streams");
    let mut workers: Vec<u32> = spans.iter().filter_map(|s| s.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in workers {
        meta_event(&mut j, "thread_name", WORKERS_PID, u64::from(w), &format!("worker {w}"));
    }
    let mut streams: Vec<u64> =
        spans.iter().filter(|s| s.worker.is_none()).map(|s| s.stream).collect();
    streams.sort_unstable();
    streams.dedup();
    for s in streams {
        let name = if s == 0 { "direct".to_string() } else { format!("stream {s}") };
        meta_event(&mut j, "thread_name", STREAMS_PID, s, &name);
    }

    for span in &spans {
        let (pid, tid) = match span.worker {
            Some(w) => (WORKERS_PID, u64::from(w)),
            None => (STREAMS_PID, span.stream),
        };
        j.open_obj(None);
        j.field_str("name", span.kind.name());
        j.field_str("cat", "dpvk");
        j.field_str("ph", "X");
        j.field_f64("ts", span.start_ns as f64 / 1000.0);
        j.field_f64("dur", span.dur_ns as f64 / 1000.0);
        j.field_u64("pid", pid);
        j.field_u64("tid", tid);
        j.open_obj(Some("args"));
        j.field_str("kernel", &span.kernel);
        j.field_u64("seq", span.seq);
        j.field_u64("stream", span.stream);
        j.field_u64("detail", span.detail);
        j.close_obj();
        j.close_obj();
    }

    j.close_arr();
    j.close_obj();
    j.finish()
}

/// Write the Chrome trace to `path`, creating parent directories.
pub fn write_chrome_trace(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(kind: SpanKind, seq: u64, start: u64, dur: u64, worker: Option<u32>) -> Span {
        Span {
            kind,
            kernel: "k".into(),
            seq,
            stream: 0,
            worker,
            start_ns: start,
            dur_ns: dur,
            detail: 0,
        }
    }

    #[test]
    fn records_group_by_seq_and_totals_aggregate() {
        let _g = crate::test_serial();
        crate::enable();
        crate::reset();
        record_span(fixed(SpanKind::QueueWait, 1, 0, 10, None));
        record_span(fixed(SpanKind::Execute, 1, 10, 100, Some(0)));
        record_span(fixed(SpanKind::Execute, 2, 20, 50, Some(1)));
        record_span(fixed(SpanKind::Gather, 1, 10, 30, Some(0)));
        let records = launch_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[0].spans.len(), 3);
        assert_eq!(records[1].spans.len(), 1);
        let totals = span_totals();
        let exec = totals.iter().find(|t| t.kind == SpanKind::Execute).unwrap();
        assert_eq!(exec.calls, 2);
        assert_eq!(exec.total_ns, 150);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn chrome_trace_has_tracks_and_events() {
        let _g = crate::test_serial();
        crate::enable();
        crate::reset();
        record_span(fixed(SpanKind::Execute, 1, 1500, 2500, Some(3)));
        record_span(fixed(SpanKind::QueueWait, 1, 0, 1500, None));
        let json = chrome_trace();
        assert!(json.contains("\"traceEvents\":["), "{json}");
        assert!(json.contains("\"name\":\"worker 3\""), "{json}");
        assert!(json.contains("\"name\":\"direct\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        crate::disable();
        crate::reset();
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let _g = crate::test_serial();
        crate::disable();
        crate::reset();
        record_span(fixed(SpanKind::Execute, 1, 0, 1, Some(0)));
        drop(span(SpanKind::Translate, "k"));
        marker(SpanKind::Fault, "k", 0);
        assert!(spans().is_empty());
        assert_eq!(dropped_spans(), 0);
    }

    #[test]
    fn span_guards_nest_and_markers_have_no_length() {
        let _g = crate::test_serial();
        crate::enable();
        crate::reset();
        {
            let _scope = launch_scope(5, 3);
            let mut outer = span(SpanKind::Specialize, "k");
            outer.set_detail(4);
            {
                let _inner = span(SpanKind::Dce, "k");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            marker(SpanKind::Downgrade, "k", 4);
        }
        let spans = spans();
        crate::disable();
        crate::reset();
        let of = |kind| spans.iter().find(|s| s.kind == kind).unwrap();
        let (outer, inner, mark) =
            (of(SpanKind::Specialize), of(SpanKind::Dce), of(SpanKind::Downgrade));
        assert_eq!((outer.seq, outer.stream, outer.detail), (5, 3, 4));
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert!(inner.dur_ns >= 1_000_000);
        assert_eq!((mark.seq, mark.dur_ns, mark.detail), (5, 0, 4));
    }

    #[test]
    fn launch_scope_nests_and_restores() {
        assert_eq!(current_launch(), (0, 0));
        {
            let _outer = launch_scope(7, 2);
            assert_eq!(current_launch(), (7, 2));
            {
                let _inner = launch_scope(8, 0);
                assert_eq!(current_launch(), (8, 0));
            }
            assert_eq!(current_launch(), (7, 2));
        }
        assert_eq!(current_launch(), (0, 0));
    }
}
