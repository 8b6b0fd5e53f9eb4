//! Errors of the dynamic compilation pipeline and runtime.

use std::fmt;

use dpvk_ir::VerifyError;
use dpvk_ptx::PtxError;
use dpvk_vm::VmError;

/// Where inside a launch a fault happened: which kernel, CTA, entry
/// point, and threads were running when the VM raised an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultContext {
    /// Kernel name.
    pub kernel: String,
    /// Flat CTA index within the grid.
    pub cta: u32,
    /// Resume entry point the faulting warp was executing (0 = kernel
    /// start).
    pub warp_entry: i64,
    /// Flat thread indices (within the CTA) that formed the warp.
    pub thread_ids: Vec<u32>,
}

impl fmt::Display for FaultContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel `{}`, CTA {}, entry {}, threads {:?}",
            self.kernel, self.cta, self.warp_entry, self.thread_ids
        )
    }
}

/// Error from translation, vectorization, caching or kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Front-end (parse/validate) failure.
    Ptx(PtxError),
    /// IR verification failure after a transformation.
    Verify(VerifyError),
    /// Runtime failure inside the vector machine.
    Vm(VmError),
    /// Runtime failure inside the vector machine, with full provenance:
    /// the execution manager wraps every [`VmError`] it sees in the
    /// context of the warp that raised it.
    Fault {
        /// Where the fault happened.
        context: FaultContext,
        /// The underlying VM error.
        source: VmError,
    },
    /// A worker thread panicked while executing a CTA; the panic was
    /// contained by the execution manager and sibling workers were
    /// cancelled.
    WorkerPanic {
        /// Index of the panicking worker thread.
        worker: usize,
        /// Flat CTA index the worker was executing.
        cta: u32,
        /// Stringified panic payload.
        payload: String,
    },
    /// A construct the translator does not support.
    Unsupported {
        /// Kernel name.
        kernel: String,
        /// Explanation.
        message: String,
    },
    /// Kernel or specialization not found.
    NotFound(String),
    /// Launch configuration problem (zero-sized grid, oversized CTA, ...).
    BadLaunch(String),
    /// Device memory exhausted or bad pointer.
    Memory(String),
    /// Device heap genuinely out of space: the request could not be
    /// satisfied even after evicting every idle block. Distinct from
    /// [`CoreError::Memory`] (which covers arithmetic overflow and bad
    /// pointers) so serving layers can shed load on pool exhaustion
    /// without misclassifying caller bugs.
    MemoryExhausted {
        /// Bytes the caller asked for.
        requested: usize,
        /// Bytes currently live on the heap.
        live: u64,
        /// Total heap capacity in bytes.
        capacity: u64,
    },
}

impl CoreError {
    /// Whether this error is (or wraps) a cooperative cancellation, as
    /// opposed to a genuine fault.
    pub fn is_cancelled(&self) -> bool {
        matches!(
            self,
            CoreError::Vm(VmError::Cancelled) | CoreError::Fault { source: VmError::Cancelled, .. }
        )
    }

    /// Whether this error is (or wraps) a launch-deadline expiry.
    pub fn is_deadline(&self) -> bool {
        matches!(
            self,
            CoreError::Vm(VmError::Deadline) | CoreError::Fault { source: VmError::Deadline, .. }
        )
    }

    /// Stable machine-readable error code.
    ///
    /// Wire protocols and trace events classify failures by this string
    /// instead of matching [`Display`](fmt::Display) output, so the
    /// human-readable messages can evolve freely. Codes are part of the
    /// serving API: never rename one, only add.
    pub fn code(&self) -> &'static str {
        match self {
            CoreError::Ptx(_) => "ptx",
            CoreError::Verify(_) => "verify",
            CoreError::Vm(e) | CoreError::Fault { source: e, .. } => match e {
                VmError::Cancelled => "cancelled",
                VmError::Deadline => "deadline",
                _ => "vm_fault",
            },
            CoreError::WorkerPanic { .. } => "worker_panic",
            CoreError::Unsupported { .. } => "unsupported",
            CoreError::NotFound(_) => "not_found",
            CoreError::BadLaunch(_) => "bad_launch",
            CoreError::Memory(_) => "memory",
            CoreError::MemoryExhausted { .. } => "memory_exhausted",
        }
    }

    /// Whether a retry of the same launch may plausibly succeed.
    ///
    /// Transient failures — a contained worker panic, or a deadline
    /// expiry that may have been caused by momentary contention — are
    /// retryable; everything else (parse/verify errors, genuine VM
    /// faults, cancellation by the caller) is deterministic or
    /// caller-initiated and retrying would only repeat it.
    pub fn is_retryable(&self) -> bool {
        matches!(self, CoreError::WorkerPanic { .. }) || self.is_deadline()
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Ptx(e) => write!(f, "front-end error: {e}"),
            CoreError::Verify(e) => write!(f, "IR verification failed: {e}"),
            CoreError::Vm(e) => write!(f, "execution error: {e}"),
            CoreError::Fault { context, source } => {
                write!(f, "execution fault at {context}: {source}")
            }
            CoreError::WorkerPanic { worker, cta, payload } => {
                write!(f, "worker {worker} panicked while executing CTA {cta}: {payload}")
            }
            CoreError::Unsupported { kernel, message } => {
                write!(f, "unsupported construct in `{kernel}`: {message}")
            }
            CoreError::NotFound(what) => write!(f, "not found: {what}"),
            CoreError::BadLaunch(m) => write!(f, "bad launch configuration: {m}"),
            CoreError::Memory(m) => write!(f, "device memory error: {m}"),
            CoreError::MemoryExhausted { requested, live, capacity } => write!(
                f,
                "device heap exhausted: {requested} bytes requested, \
                 {live} of {capacity} live after eviction"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Ptx(e) => Some(e),
            CoreError::Verify(e) => Some(e),
            CoreError::Vm(e) => Some(e),
            CoreError::Fault { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<PtxError> for CoreError {
    fn from(e: PtxError) -> Self {
        CoreError::Ptx(e)
    }
}

impl From<VerifyError> for CoreError {
    fn from(e: VerifyError) -> Self {
        CoreError::Verify(e)
    }
}

impl From<VmError> for CoreError {
    fn from(e: VmError) -> Self {
        CoreError::Vm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = PtxError::UndefinedLabel("x".into()).into();
        assert!(e.to_string().contains("front-end"));
        let e: CoreError = VmError::DivisionByZero.into();
        assert!(e.to_string().contains("division"));
        let e = CoreError::Unsupported { kernel: "k".into(), message: "guarded store".into() };
        assert!(e.to_string().contains("k"));
    }

    #[test]
    fn fault_display_carries_full_provenance() {
        let e = CoreError::Fault {
            context: FaultContext {
                kernel: "vecadd".into(),
                cta: 3,
                warp_entry: 2,
                thread_ids: vec![4, 5, 6, 7],
            },
            source: VmError::DivisionByZero,
        };
        let s = e.to_string();
        for needle in ["vecadd", "CTA 3", "entry 2", "[4, 5, 6, 7]", "division"] {
            assert!(s.contains(needle), "missing `{needle}` in `{s}`");
        }
    }

    #[test]
    fn worker_panic_display_names_worker_and_cta() {
        let e = CoreError::WorkerPanic { worker: 1, cta: 9, payload: "boom".into() };
        let s = e.to_string();
        assert!(s.contains("worker 1") && s.contains("CTA 9") && s.contains("boom"), "{s}");
    }

    #[test]
    fn cancellation_predicates() {
        let ctx = FaultContext { kernel: "k".into(), cta: 0, warp_entry: 0, thread_ids: vec![] };
        assert!(CoreError::Vm(VmError::Cancelled).is_cancelled());
        assert!(
            CoreError::Fault { context: ctx.clone(), source: VmError::Cancelled }.is_cancelled()
        );
        assert!(!CoreError::Vm(VmError::DivisionByZero).is_cancelled());
        assert!(CoreError::Vm(VmError::Deadline).is_deadline());
        assert!(CoreError::Fault { context: ctx, source: VmError::Deadline }.is_deadline());
        assert!(!CoreError::Vm(VmError::Cancelled).is_deadline());
    }

    #[test]
    fn codes_are_stable_and_classify_retryability() {
        let ctx = FaultContext { kernel: "k".into(), cta: 0, warp_entry: 0, thread_ids: vec![] };
        let cases: Vec<(CoreError, &str, bool)> = vec![
            (PtxError::UndefinedLabel("x".into()).into(), "ptx", false),
            (
                CoreError::Verify(VerifyError {
                    function: "f".into(),
                    block: "b".into(),
                    message: "m".into(),
                }),
                "verify",
                false,
            ),
            (CoreError::Vm(VmError::DivisionByZero), "vm_fault", false),
            (CoreError::Vm(VmError::Cancelled), "cancelled", false),
            (CoreError::Vm(VmError::Deadline), "deadline", true),
            (
                CoreError::Fault { context: ctx.clone(), source: VmError::Deadline },
                "deadline",
                true,
            ),
            (CoreError::Fault { context: ctx, source: VmError::DivisionByZero }, "vm_fault", false),
            (
                CoreError::WorkerPanic { worker: 0, cta: 0, payload: "p".into() },
                "worker_panic",
                true,
            ),
            (
                CoreError::Unsupported { kernel: "k".into(), message: "m".into() },
                "unsupported",
                false,
            ),
            (CoreError::NotFound("k".into()), "not_found", false),
            (CoreError::BadLaunch("m".into()), "bad_launch", false),
            (CoreError::Memory("m".into()), "memory", false),
            (
                CoreError::MemoryExhausted { requested: 64, live: 0, capacity: 32 },
                "memory_exhausted",
                false,
            ),
        ];
        for (err, code, retryable) in cases {
            assert_eq!(err.code(), code, "{err}");
            assert_eq!(err.is_retryable(), retryable, "{err}");
        }
    }
}
