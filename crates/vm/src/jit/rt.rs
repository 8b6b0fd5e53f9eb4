//! The JIT runtime contract: the `#[repr(C)]` environment block that
//! generated code addresses with fixed offsets, and the `extern "C"`
//! helpers it calls for polling, errors, and µops without an inline
//! template.
//!
//! The helpers run µops through the bytecode engine's own [`step`] —
//! the one definition of each µop's effect — against a [`Warp`] built
//! from the environment block, whose [`Meter`] is the one generated
//! code charges. So a µop a helper runs charges, errs and writes
//! registers and memory exactly as the interpreter would: there is
//! nothing here to keep in step with it.
//!
//! Generated code charges per basic block (see `emit.rs`); [`step`]
//! charges per µop. The seam between the two is three rules, all in
//! terms of [`Charge`]: a helper called for a templated µop first takes
//! back what the block header charged for it ([`jit_step`],
//! [`jit_run_from`]); a helper that fails takes back the header's
//! charge for every µop after it ([`settle`]); and a header that finds
//! the watchdog limit or a poll inside its block asks
//! [`jit_block_slow`], which either shows that nothing would happen or
//! steps the block µop by µop to the instruction where something does.

use dpvk_ir::STy;

use crate::bytecode::{step, BytecodeProgram, Charge, Meter, NoProfile, Op, Poll, Warp};
use crate::context::ThreadContext;
use crate::error::VmError;
use crate::jit::emit::has_inline_template;
use crate::memory::MemAccess;
use crate::semantics::f2i;

/// Failure kinds for [`jit_fail`].
pub(crate) const FAIL_WATCHDOG: u32 = 0;
pub(crate) const FAIL_FLOAT_SWITCH: u32 = 1;

/// The environment block of a warp call. Generated code keeps a pointer
/// to it in `r15` and reads/writes fields at `offset_of!` displacements;
/// the layout is `repr(C)` so those offsets are stable within a build.
///
/// The [`Meter`] starts each warp call fresh and the Rust wrapper
/// merges it into the caller's [`crate::stats::ExecStats`] after the
/// generated code returns, on success and on error alike. The memory
/// fields are fixed for a CTA and set once by [`super::JitCta::new`].
#[repr(C)]
pub(crate) struct JitEnv {
    /// Base of the register frame (`slots` u64s).
    pub regs: *mut u64,
    /// The warp call's accounting: what the block headers and
    /// [`step`] charge.
    pub meter: Meter,
    /// Last `SetStatus` value (a `STATUS_*` code).
    pub status: u64,
    /// Pre-masked `EntryId` context value (`mask_to(entry_id, I32)`).
    pub entry_id_masked: u64,
    /// Thread contexts of this warp.
    pub ctxs: *mut ThreadContext,
    /// Number of contexts (= warp size).
    pub nctx: u64,
    /// Register frame slot count (for helper-side slice reconstruction).
    pub slots: u64,
    /// Global arena base/len.
    pub global_base: *mut u8,
    /// Global arena length.
    pub global_len: u64,
    /// Shared memory base.
    pub shared_base: *mut u8,
    /// Shared memory length.
    pub shared_len: u64,
    /// Local arena base.
    pub local_base: *mut u8,
    /// Local arena length.
    pub local_len: u64,
    /// Parameter buffer base (read-only).
    pub param_base: *const u8,
    /// Parameter buffer length.
    pub param_len: u64,
    /// Constant bank base (read-only).
    pub const_base: *const u8,
    /// Constant bank length.
    pub const_len: u64,
    /// Type-erased pointer to the [`HostCtx`] for this call.
    pub host: *mut HostCtx<'static>,
}

/// Host-side call state the generated code never touches directly; the
/// helpers reach it through [`JitEnv::host`].
pub(crate) struct HostCtx<'a> {
    /// The program being executed (for helper-side µop decode).
    pub program: *const BytecodeProgram,
    /// Type-erased `*mut MemAccess<'_>` (lifetime erased; only
    /// dereferenced during the warp call it was built for).
    pub mem: *mut MemAccess<'static>,
    /// What a due poll looks at.
    pub poll: Poll<'a>,
    /// The error produced by a failing helper, picked up by the wrapper
    /// when generated code returns nonzero.
    pub err: Option<VmError>,
}

impl JitEnv {
    /// The host half of the call. The lifetime is the caller's to
    /// choose: the `HostCtx` outlives the warp call every helper runs
    /// inside, and lives apart from this block.
    ///
    /// # Safety
    ///
    /// Only during the warp call `JitCta::execute_warp` set this block
    /// up for, while no other reference to the `HostCtx` is live.
    #[inline(always)]
    unsafe fn host<'h>(&self) -> &'h mut HostCtx<'static> {
        &mut *self.host
    }

    /// The µop stream of the running program (lifetime as for
    /// [`Self::host`]; nothing here mutates it).
    ///
    /// # Safety
    ///
    /// As for [`Self::host`].
    #[inline(always)]
    unsafe fn code<'p>(&self) -> &'p [Op] {
        &(*self.host().program).code
    }

    /// Run µop `idx` from run component `from` through [`step`], on the
    /// frame, contexts and memory this block points to.
    ///
    /// # Safety
    ///
    /// As for [`Self::host`]; `regs` then points to `slots` frame slots
    /// and `ctxs` to `nctx` contexts, which nothing else touches while
    /// the helper runs.
    unsafe fn step(&mut self, idx: u32, from: u32) -> Result<(), VmError> {
        let host = self.host();
        let op = &self.code()[idx as usize];
        let mut w = Warp {
            regs: std::slice::from_raw_parts_mut(self.regs, self.slots as usize),
            ctxs: std::slice::from_raw_parts_mut(self.ctxs, self.nctx as usize),
            mem: &mut *host.mem,
            entry_id: self.entry_id_masked,
            status: &mut self.status,
            meter: &mut self.meter,
            poll: &host.poll,
        };
        step(op, from, &mut w, &mut NoProfile)
    }
}

/// What a block header checks and charges for the µops from `from` to
/// the end of its basic block: the ticks of all of them (the bound it
/// holds against the watchdog limit and the next poll) and the summed
/// charges of those `templated` admits — µop `i` has an inline template
/// when `templated(i)`; the rest charge themselves in [`step`].
/// Recomputed from the µops' metas wherever it is needed — once per
/// block at emission, and on the cold paths below — rather than stored.
pub(crate) fn block_charges(
    code: &[Op],
    from: usize,
    templated: impl Fn(usize) -> bool,
) -> (u64, Charge) {
    let (mut pre, mut rest) = (Charge::default(), Charge::default());
    for (i, op) in code.iter().enumerate().skip(from) {
        op.charge_into(0, if templated(i) { &mut pre } else { &mut rest });
        if op.is_terminator() {
            break;
        }
    }
    (pre.ticks + rest.ticks, pre)
}

#[inline(always)]
unsafe fn fail(env: &mut JitEnv, e: VmError) -> u32 {
    env.host().err = Some(e);
    1
}

/// Poll helper: generated code calls this when `executed` crosses
/// `next_poll` (the poll of [`Meter::tick`]). Returns 0
/// to continue, 1 on cancellation/deadline (error stored in the host).
pub(crate) unsafe extern "C" fn jit_poll(env: *mut JitEnv) -> u32 {
    let env = &mut *env;
    match env.meter.poll(&env.host().poll) {
        Ok(()) => 0,
        Err(e) => fail(env, e),
    }
}

/// Terminal-failure helper for inline templates (watchdog trip, float
/// switch). Always returns 1.
pub(crate) unsafe extern "C" fn jit_fail(env: *mut JitEnv, kind: u32) -> u32 {
    let env = &mut *env;
    let err = match kind {
        FAIL_WATCHDOG => VmError::Watchdog { limit: env.meter.max_instructions },
        _ => VmError::Unsupported("float switch".into()),
    };
    fail(env, err)
}

/// Slow-path float→int conversion lane ([`f2i`]; the inline template
/// branches here only when the truncated value is out of the
/// destination's range, or NaN). Pure: no env access.
pub(crate) unsafe extern "C" fn jit_f2i(bits: u64, to_bits: u32, signed: u32) -> u64 {
    let to = match to_bits {
        1 => STy::I1,
        8 => STy::I8,
        16 => STy::I16,
        32 => STy::I32,
        _ => STy::I64,
    };
    f2i(f64::from_bits(bits), to, signed != 0)
}

/// Execute µop `idx` — charge included — through [`step`]. The
/// universal fallback for op shapes without an inline template; also
/// the whole-op slow path behind inline fast-path guards (memory
/// bounds), re-running the op from its start — the block header's
/// charge for it taken back first — so charges and partial effects
/// land exactly as interpreted.
///
/// Returns 0 on success, 1 with the error stored in the host.
///
/// # Safety
///
/// Must only be called from generated code during a warp call whose
/// `JitEnv`/`HostCtx` pointers are all live.
pub(crate) unsafe extern "C" fn jit_step(env: *mut JitEnv, idx: u32) -> u32 {
    let env = &mut *env;
    let op = &env.code()[idx as usize];
    if has_inline_template(&op.kind) {
        // A template's slow site: the header charged this µop, and
        // `step` is about to charge it again.
        env.meter.take_back(op.charge_from(0));
    }
    let r = env.step(idx, 0);
    settle(env, idx, r)
}

/// Turn a helper's result into its return code. On failure the block
/// header's charge for the µops after `idx` comes back off — they never
/// run — so the stats the wrapper merges are the interpreter's.
unsafe fn settle(env: &mut JitEnv, idx: u32, r: Result<(), VmError>) -> u32 {
    match r {
        Ok(()) => 0,
        Err(e) => {
            let code = env.code();
            let (_, rest) =
                block_charges(code, idx as usize + 1, |i| has_inline_template(&code[i].kind));
            env.meter.take_back(rest);
            fail(env, e)
        }
    }
}

/// The block header's slow path: `end`, which is `executed` plus the
/// tick bound of the block starting at µop `first`, reaches the
/// watchdog limit or the next poll, so charging the block up front could
/// step over one of them.
///
/// When only polls lie inside the block and neither the token nor the
/// deadline would stop the warp, the polls change nothing but
/// `next_poll`: advance it exactly as each of them would have and
/// return 0 — the header then charges the block and native code runs it
/// as usual. (The token and the clock are read here rather than at the
/// polls' own ticks, a block's run time earlier; both are asynchronous
/// to the instruction count, so no caller can tell.) Otherwise the
/// watchdog trips or a poll fires at some instruction of this block:
/// step the block through [`step`] — per-µop accounting, the
/// interpreter's — until it does, and return 1 with that error stored
/// and the stats exactly as the interpreter leaves them.
pub(crate) unsafe extern "C" fn jit_block_slow(env: *mut JitEnv, first: u32, end: u64) -> u32 {
    let env = &mut *env;
    let poll = &env.host().poll;
    if end <= env.meter.max_instructions && poll.check().is_ok() {
        while env.meter.next_poll <= end {
            env.meter.next_poll += poll.stride;
        }
        return 0;
    }
    for (pc, op) in env.code().iter().enumerate().skip(first as usize) {
        assert!(!op.is_terminator(), "block {first} ran out before its watchdog or poll");
        if let Err(e) = env.step(pc as u32, 0) {
            return fail(env, e);
        }
    }
    unreachable!("µop stream ends without a terminator")
}

/// Resume a `LoadRun`/`StoreRun` at component `comp` and run it to the
/// end of the µop. The inline template branches here when a
/// component's bounds check fails — the helper takes back the block
/// header's charge for components `comp..` and re-runs them from
/// *that* component's first charge, so a faulting run leaves the same
/// stats and register prefix as the interpreter.
pub(crate) unsafe extern "C" fn jit_run_from(env: *mut JitEnv, idx: u32, comp: u32) -> u32 {
    let env = &mut *env;
    env.meter.take_back(env.code()[idx as usize].charge_from(comp));
    let r = env.step(idx, comp);
    settle(env, idx, r)
}
