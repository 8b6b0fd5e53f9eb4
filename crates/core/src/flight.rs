//! Flight-recorder glue: emit per-launch timeline spans with the
//! current launch and worker attribution attached.
//!
//! The helpers here are the only place the core crate constructs
//! [`Span`]s, so the attribution rules live in one spot: `seq`/`stream`
//! come from the ambient [`timeline::launch_scope`] (zero outside one),
//! `worker` from the pool thread's registered track (absent on
//! submitter threads, which lands the span on the stream track
//! instead). Every call site first obtains a start timestamp via
//! [`span_start`], which is `None` when tracing is off — so the
//! disabled fast path costs one relaxed atomic load and nothing else.

use dpvk_trace::timeline::{self, Span, SpanKind};

/// Start timestamp for a prospective span, or `None` when the trace
/// layer is off (one relaxed atomic load).
#[inline]
pub(crate) fn span_start() -> Option<u64> {
    dpvk_trace::enabled().then(timeline::now_ns)
}

/// Record a span that began at `start_ns` (from [`span_start`]) and
/// ends now, attributed to the ambient launch scope and — when called
/// from a pool worker — that worker's timeline track.
pub(crate) fn emit_span(kind: SpanKind, kernel: &str, start_ns: u64, detail: u64) {
    let dur_ns = timeline::now_ns().saturating_sub(start_ns);
    emit_span_at(kind, kernel, start_ns, dur_ns, detail);
}

/// Record a span with an explicit duration (used for coalesced spans —
/// e.g. the sum of a chunk's gather calls nested at the head of its
/// execute span), attributed like [`emit_span`].
pub(crate) fn emit_span_at(kind: SpanKind, kernel: &str, start_ns: u64, dur_ns: u64, detail: u64) {
    let (seq, stream) = timeline::current_launch();
    timeline::record_span(Span {
        kind,
        kernel: kernel.to_string(),
        seq,
        stream,
        worker: timeline::worker_track(),
        start_ns,
        dur_ns,
        detail,
    });
}

/// Record a span with explicit launch attribution and duration on the
/// stream track (no worker), for events observed outside a launch scope
/// — e.g. the retirement, which runs on whichever thread completes the
/// last chunk.
pub(crate) fn emit_stream_span(
    kind: SpanKind,
    kernel: &str,
    seq: u64,
    stream: u64,
    start_ns: u64,
    dur_ns: u64,
    detail: u64,
) {
    timeline::record_span(Span {
        kind,
        kernel: kernel.to_string(),
        seq,
        stream,
        worker: None,
        start_ns,
        dur_ns,
        detail,
    });
}
