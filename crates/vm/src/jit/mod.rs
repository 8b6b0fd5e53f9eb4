//! The native JIT tier: copy-and-patch x86-64 code generation over the
//! decoded µop stream.
//!
//! [`compile`] lowers a validated [`BytecodeProgram`] to straight-line
//! machine code — one template per µop, operands patched to
//! register-frame displacements, branches fixed up to block entry
//! offsets, accounting hoisted into one header per basic block — and
//! seals it into a W^X executable mapping. A [`JitCta`] then runs a
//! CTA's warps through that code with the same contract as
//! [`execute_warp_bytecode`]: bit-identical lane values, modeled cycles,
//! [`crate::ExecStats`] deltas, memory effects, errors and
//! watchdog/deadline/cancellation polling.
//!
//! µop shapes without an inline template (float atomics, division, f64
//! transcendentals, vectors wider than the inline cap) call back into
//! the interpreter's own helpers at run time, so coverage gaps cost
//! speed, never correctness. Hosts where native emission is unavailable
//! (non-x86-64, one of [`JIT_HOST_FEATURES`] missing, or a locked-down
//! address space) simply get `None` from [`compile`] and the caller
//! stays on the bytecode engine.

mod asm;
mod code;
mod emit;
mod resident;
mod rt;

pub use asm::HOST_FEATURES as JIT_HOST_FEATURES;
pub use emit::JitEmitStats;

use dpvk_ir::STy;

use crate::bytecode::{
    execute_warp_bytecode, resume_status, BytecodeProgram, Meter, Poll, STATUS_NONE,
};
use crate::cancel::CancelToken;
use crate::context::ThreadContext;
use crate::error::VmError;
use crate::frame::RegFrame;
use crate::memory::MemAccess;
use crate::semantics::{mask_to, ExecLimits, WarpOutcome};
use crate::stats::ExecStats;

/// A program compiled to native x86-64 by the JIT tier.
///
/// Immutable once built; share it across worker threads with an `Arc`
/// and run warps through [`JitCta::execute_warp`]. The executable mapping
/// is unmapped on drop.
#[derive(Debug)]
pub struct JitProgram {
    mem: code::ExecMem,
    stats: JitEmitStats,
}

impl JitProgram {
    /// Emission counters for this compilation (code bytes, template vs.
    /// helper µops).
    pub fn emit_stats(&self) -> JitEmitStats {
        self.stats
    }

    /// The emitted machine code, without the mapping's page padding.
    /// Helper calls load absolute addresses of this process's helpers
    /// (`mov r11, imm64`), so the bytes differ between processes there
    /// and only there.
    pub fn code(&self) -> &[u8] {
        self.mem.code()
    }
}

// SAFETY: the mapping is written once at construction and only read
// (executed) afterwards; all mutable state lives in the per-call
// `JitEnv`.
unsafe impl Send for JitProgram {}
unsafe impl Sync for JitProgram {}

/// Widest vector µop the JIT lowers inline (float shapes as chunks of
/// two lanes in one xmm register, integer shapes lane by lane); wider
/// vector µops stay correct but call back into the interpreter helper per
/// dynamic dispatch (counted in [`JitEmitStats::wide_helper_uops`]).
/// Width-selection policies use this to anticipate the JIT efficiency
/// cliff when ranking candidate warp widths.
pub fn jit_inline_width_cap() -> u32 {
    emit::VEC_INLINE_MAX
}

/// Whether this host can emit and run native code at all: executable
/// memory, and every extension the emitter has a form from
/// ([`JIT_HOST_FEATURES`]). When false, [`compile`] always returns
/// `None`.
pub fn jit_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        code::ExecMem::supported() && asm::host_has_features()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compile `program` to native code. Returns `None` when the host
/// cannot run JIT code (see [`jit_supported`]) or a structural limit
/// rules out emission (register frame too large for disp32 addressing);
/// the caller should fall back to the bytecode engine.
pub fn compile(program: &BytecodeProgram) -> Option<JitProgram> {
    if !jit_supported() {
        return None;
    }
    let (bytes, mut stats) = emit::emit_program(program)?;
    let mem = code::ExecMem::with_code(&bytes)?;
    stats.code_bytes = mem.len() as u64;
    Some(JitProgram { mem, stats })
}

/// The JIT engine's view of one CTA: the memory spaces its warps run
/// against, the launch's limits, and the native environment block built
/// from them once — memory bases and lengths, watchdog limit, poll
/// stride — so that a warp entry resets only the counters and the
/// per-entry pointers instead of rebuilding every field.
pub struct JitCta<'a> {
    env: rt::JitEnv,
    host: rt::HostCtx<'a>,
    /// Owned so the base pointers in `env` cannot outlive or be
    /// re-pointed away from the slices they were taken from.
    mem: MemAccess<'a>,
    limits: ExecLimits,
}

impl<'a> JitCta<'a> {
    /// Bind the engine to a CTA's memory, limits and cancellation token.
    pub fn new(mem: MemAccess<'a>, limits: &ExecLimits, cancel: Option<&'a CancelToken>) -> Self {
        let poll = Poll::new(limits, cancel);
        let (global_base, global_len) = mem.global.raw_parts();
        let env = rt::JitEnv {
            regs: std::ptr::null_mut(),
            meter: Meter::new(limits, &poll),
            status: STATUS_NONE,
            entry_id_masked: 0,
            ctxs: std::ptr::null_mut(),
            nctx: 0,
            slots: 0,
            global_base,
            global_len: global_len as u64,
            shared_base: mem.shared.as_mut_ptr(),
            shared_len: mem.shared.len() as u64,
            local_base: mem.local.as_mut_ptr(),
            local_len: mem.local.len() as u64,
            param_base: mem.param.as_ptr(),
            param_len: mem.param.len() as u64,
            const_base: mem.cbank.as_ptr(),
            const_len: mem.cbank.len() as u64,
            host: std::ptr::null_mut(),
        };
        let host =
            rt::HostCtx { program: std::ptr::null(), mem: std::ptr::null_mut(), poll, err: None };
        JitCta { env, host, mem, limits: *limits }
    }

    /// Execute one warp, starting at µop 0, through `jit` — or through
    /// the bytecode engine when this specialization has no native code
    /// (`None`).
    ///
    /// The native twin of [`execute_warp_bytecode`]: same contract, same
    /// errors, bit-identical modeled cycles, [`ExecStats`] and memory
    /// effects. `jit` must have been produced by [`compile`] from this
    /// exact `program`.
    ///
    /// # Errors
    ///
    /// Identical to `execute_warp_bytecode`: memory faults, division by
    /// zero, watchdog, deadline, cancellation.
    ///
    /// # Panics
    ///
    /// Panics if `ctxs.len() != program.warp_size()`.
    pub fn execute_warp(
        &mut self,
        jit: Option<&JitProgram>,
        program: &BytecodeProgram,
        scratch: &mut RegFrame,
        ctxs: &mut [ThreadContext],
        entry_id: i64,
        stats: &mut ExecStats,
    ) -> Result<WarpOutcome, VmError> {
        let Some(jit) = jit else {
            return execute_warp_bytecode(
                program,
                scratch,
                ctxs,
                entry_id,
                &mut self.mem,
                stats,
                &self.limits,
                self.host.poll.cancel,
            );
        };

        assert_eq!(
            ctxs.len(),
            program.warp_size as usize,
            "warp size mismatch: {} contexts for a width-{} program",
            ctxs.len(),
            program.warp_size
        );
        let regs = scratch.prepare_slots(program.slots, &program.entry_live);
        stats.warp_entries += 1;
        stats.thread_entries += program.warp_size as u64;

        // The per-entry half of the environment. `host` and `host.mem`
        // point into `self`, which cannot move while this call borrows
        // it; the memory lifetime is erased and only dereferenced inside
        // this call.
        let host = &mut self.host;
        host.program = program;
        host.mem = (&mut self.mem as *mut MemAccess<'a>).cast::<MemAccess<'static>>();
        let env = &mut self.env;
        env.host = (host as *mut rt::HostCtx<'a>).cast::<rt::HostCtx<'static>>();
        env.regs = regs.as_mut_ptr();
        env.slots = program.slots as u64;
        env.ctxs = ctxs.as_mut_ptr();
        env.nctx = ctxs.len() as u64;
        env.entry_id_masked = mask_to(entry_id as u64, STy::I32);
        env.status = STATUS_NONE;
        env.meter = Meter::new(&self.limits, &host.poll);

        // SAFETY: `jit.mem` holds code emitted for this program's µop
        // stream by `emit_program`, entry at offset 0, with the extern "C"
        // signature the prologue/epilogue implement; `env` outlives the
        // call and every pointer in it is valid for its stated length.
        let rc = unsafe {
            let entry: unsafe extern "C" fn(*mut rt::JitEnv) -> u32 =
                std::mem::transmute(jit.mem.base());
            entry(env)
        };

        // Merge on success and error alike, as the bytecode loop does.
        env.meter.merge_into(stats);

        if rc != 0 {
            return Err(self
                .host
                .err
                .take()
                .expect("jit helper signalled an error without recording one"));
        }
        Ok(WarpOutcome { status: resume_status(env.status) })
    }
}
