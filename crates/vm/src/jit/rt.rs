//! The JIT runtime contract: the `#[repr(C)]` environment block that
//! generated code addresses with fixed offsets, and the `extern "C"`
//! helpers it calls for polling, errors, and µops without an inline
//! template.
//!
//! Every helper reproduces the bytecode interpreter's accounting and
//! semantics exactly — same tick/charge order, same error values, same
//! register and memory effects — by reusing the same `pub(crate)`
//! execution helpers (`exec_bin`, `scalar_cvt`, `atom_rmw`, …) the
//! interpreter itself funnels through.
//!
//! Generated code charges per basic block (see `emit.rs`); the helpers
//! here charge per µop, like the interpreter. The seam between the two
//! is three rules, all in terms of [`Charge`]: a helper called for a
//! templated µop first takes back what the block header charged for it
//! ([`jit_step`], [`jit_run_from`]); a helper that fails takes back the
//! header's charge for every µop after it ([`settle`]); and a header
//! that finds the watchdog limit or a poll inside its block asks
//! [`jit_block_slow`], which either shows that nothing would happen or
//! steps the block µop by µop to the instruction where something does.

use std::time::Instant;

use dpvk_ir::{CtxField, ResumeStatus, STy};

use crate::bytecode::{
    exec_bin, exec_fma, exec_un, lane, set_bcast, vec1, vec2, vec3, BytecodeProgram, Charge, Op,
    OpKind, OpMeta, F_LOAD, F_RESTORE, F_SPILL, F_STORE,
};
use crate::cancel::CancelToken;
use crate::context::ThreadContext;
use crate::error::VmError;
use crate::jit::emit::has_inline_template;
use crate::memory::MemAccess;
use crate::semantics::{atom_rmw, f2i, mask_to, scalar_cmp, scalar_cvt, sext};

/// Status codes written to [`JitEnv::status`]; 0 means "no SetStatus
/// executed yet" (`None` in the interpreter).
pub(crate) const STATUS_NONE: u64 = 0;
pub(crate) const STATUS_BRANCH: u64 = 1;
pub(crate) const STATUS_BARRIER: u64 = 2;
pub(crate) const STATUS_EXIT: u64 = 3;

/// Failure kinds for [`jit_fail`].
pub(crate) const FAIL_WATCHDOG: u32 = 0;
pub(crate) const FAIL_FLOAT_SWITCH: u32 = 1;

/// The environment block of a warp call. Generated code keeps a pointer
/// to it in `r15` and reads/writes fields at `offset_of!` displacements;
/// the layout is `repr(C)` so those offsets are stable within a build.
///
/// Counter fields (`executed` … `cycles_yield`) start each warp call at
/// zero and hold *deltas* for it; the Rust wrapper merges them into the
/// caller's [`crate::stats::ExecStats`] after the generated code
/// returns (on success and on error alike, matching the interpreter,
/// which mutates the caller's stats in place). The limits and memory
/// fields are fixed for a CTA and set once by [`super::JitCta::new`].
#[repr(C)]
pub(crate) struct JitEnv {
    /// Base of the register frame (`slots` u64s).
    pub regs: *mut u64,
    /// Dynamic instructions executed (the watchdog/poll clock).
    pub executed: u64,
    /// Watchdog limit (`ExecLimits::max_instructions`).
    pub max_instructions: u64,
    /// Next `executed` value at which to poll cancel/deadline;
    /// `u64::MAX` when polling is disabled.
    pub next_poll: u64,
    /// Modeled cycles accumulated since the last block retire.
    pub cycles: u64,
    /// `ExecStats::instructions` delta.
    pub instructions: u64,
    /// `ExecStats::flops` delta.
    pub flops: u64,
    /// `ExecStats::loads` delta.
    pub loads: u64,
    /// `ExecStats::stores` delta.
    pub stores: u64,
    /// `ExecStats::restore_loads` delta.
    pub restore_loads: u64,
    /// `ExecStats::restore_bytes` delta.
    pub restore_bytes: u64,
    /// `ExecStats::spill_stores` delta.
    pub spill_stores: u64,
    /// `ExecStats::spill_bytes` delta.
    pub spill_bytes: u64,
    /// `ExecStats::cycles_body` delta.
    pub cycles_body: u64,
    /// `ExecStats::cycles_yield` delta.
    pub cycles_yield: u64,
    /// Last `SetStatus` value (STATUS_*).
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
    pub host: *mut HostCtx,
}

/// Host-side call state the generated code never touches directly; the
/// helpers reach it through [`JitEnv::host`].
pub(crate) struct HostCtx {
    /// The program being executed (for helper-side µop decode).
    pub program: *const BytecodeProgram,
    /// Type-erased `*mut MemAccess<'_>` (lifetime erased; only
    /// dereferenced during the warp call it was built for).
    pub mem: *mut MemAccess<'static>,
    /// Cancellation token, null when absent.
    pub cancel: *const CancelToken,
    /// Wall-clock deadline, `None` when absent.
    pub deadline: Option<Instant>,
    /// Instructions between polls (`ExecLimits::check_interval.max(1)`).
    pub poll_stride: u64,
    /// The error produced by a failing helper, picked up by the wrapper
    /// when generated code returns nonzero.
    pub err: Option<VmError>,
}

impl JitEnv {
    #[inline(always)]
    unsafe fn host(&mut self) -> &mut HostCtx {
        &mut *self.host
    }

    #[inline(always)]
    unsafe fn regs_mut(&mut self) -> &mut [u64] {
        std::slice::from_raw_parts_mut(self.regs, self.slots as usize)
    }

    #[inline(always)]
    unsafe fn ctxs_mut(&mut self) -> &mut [ThreadContext] {
        std::slice::from_raw_parts_mut(self.ctxs, self.nctx as usize)
    }

    /// The µop stream of the running program. The lifetime is the
    /// caller's to choose: the program outlives the warp call every
    /// helper runs inside, and nothing here mutates it.
    #[inline(always)]
    unsafe fn code<'p>(&mut self) -> &'p [Op] {
        &(*self.host().program).code
    }

    /// Undo a block header's charge of `c`, for µops that will charge
    /// themselves or never run.
    fn take_back(&mut self, c: &Charge) {
        self.executed -= c.ticks;
        self.cycles -= c.cost;
        self.flops -= c.flops;
        self.loads -= c.loads;
        self.stores -= c.stores;
        self.restore_loads -= c.restore_loads;
        self.restore_bytes -= c.restore_bytes;
        self.spill_stores -= c.spill_stores;
        self.spill_bytes -= c.spill_bytes;
    }
}

/// What a block header checks and charges for the µops from `from` to
/// the end of its basic block: the ticks of all of them (the bound it
/// holds against the watchdog limit and the next poll) and the summed
/// charges of those with an inline template (the rest charge themselves
/// in [`step_op`]). Recomputed from the µops' metas wherever it is
/// needed — once per block at emission, and on the cold paths below —
/// rather than stored.
pub(crate) fn block_charges(code: &[Op], from: usize) -> (u64, Charge) {
    let mut bound = 0;
    let mut pre = Charge::default();
    for op in &code[from..] {
        let c = op.charge_from(0);
        bound += c.ticks;
        if has_inline_template(&op.kind) {
            pre = pre.plus(c);
        }
        if op.is_terminator() {
            break;
        }
    }
    (bound, pre)
}

/// The `tick!` macro of the interpreter loop, field-for-field.
#[inline(always)]
unsafe fn tick(env: &mut JitEnv) -> Result<(), VmError> {
    env.executed += 1;
    if env.executed > env.max_instructions {
        return Err(VmError::Watchdog { limit: env.max_instructions });
    }
    if env.executed >= env.next_poll {
        let stride = env.host().poll_stride;
        env.next_poll = env.executed + stride;
        poll(env)?;
    }
    Ok(())
}

/// What a due poll looks at: the cancellation token, then the deadline.
#[inline(always)]
unsafe fn poll(env: &mut JitEnv) -> Result<(), VmError> {
    let cancel = env.host().cancel;
    if !cancel.is_null() && (*cancel).is_cancelled() {
        return Err(VmError::Cancelled);
    }
    if let Some(deadline) = env.host().deadline {
        if Instant::now() >= deadline {
            return Err(VmError::Deadline);
        }
    }
    Ok(())
}

/// The `charge!` macro of the interpreter loop.
#[inline(always)]
unsafe fn charge(env: &mut JitEnv, meta: OpMeta) -> Result<(), VmError> {
    tick(env)?;
    env.cycles += meta.cost as u64;
    env.flops += meta.flops as u64;
    if meta.flags != 0 {
        if meta.flags & F_LOAD != 0 {
            env.loads += 1;
            if meta.flags & F_RESTORE != 0 {
                env.restore_loads += 1;
                env.restore_bytes += meta.bytes as u64;
            }
        }
        if meta.flags & F_STORE != 0 {
            env.stores += 1;
            if meta.flags & F_SPILL != 0 {
                env.spill_stores += 1;
                env.spill_bytes += meta.bytes as u64;
            }
        }
    }
    Ok(())
}

#[inline(always)]
unsafe fn fail(env: &mut JitEnv, e: VmError) -> u32 {
    env.host().err = Some(e);
    1
}

/// Poll helper: generated code calls this when `executed` crosses
/// `next_poll` (the poll body of the interpreter's `tick!`). Returns 0
/// to continue, 1 on cancellation/deadline (error stored in the host).
pub(crate) unsafe extern "C" fn jit_poll(env: *mut JitEnv) -> u32 {
    let env = &mut *env;
    let stride = env.host().poll_stride;
    env.next_poll = env.executed + stride;
    match poll(env) {
        Ok(()) => 0,
        Err(e) => fail(env, e),
    }
}

/// Terminal-failure helper for inline templates (watchdog trip, float
/// switch). Always returns 1.
pub(crate) unsafe extern "C" fn jit_fail(env: *mut JitEnv, kind: u32) -> u32 {
    let env = &mut *env;
    let err = match kind {
        FAIL_WATCHDOG => VmError::Watchdog { limit: env.max_instructions },
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

/// Execute µop `idx` — charge included — through the interpreter's own
/// execution helpers. The universal fallback for op shapes without an
/// inline template; also the whole-op slow path behind inline
/// fast-path guards (memory bounds), re-running the op from its start
/// — the block header's charge for it taken back first — so charges
/// and partial effects land exactly as interpreted.
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
        // `step_op` is about to charge it again.
        env.take_back(&op.charge_from(0));
    }
    let r = step_op(env, idx);
    settle(env, idx, r)
}

/// Turn a helper's result into its return code. On failure the block
/// header's charge for the µops after `idx` comes back off — they never
/// run — so the stats the wrapper merges are the interpreter's.
unsafe fn settle(env: &mut JitEnv, idx: u32, r: Result<(), VmError>) -> u32 {
    match r {
        Ok(()) => 0,
        Err(e) => {
            let (_, rest) = block_charges(env.code(), idx as usize + 1);
            env.take_back(&rest);
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
/// step the block through [`step_op`] — per-µop accounting, the
/// interpreter's — until it does, and return 1 with that error stored
/// and the stats exactly as the interpreter leaves them.
pub(crate) unsafe extern "C" fn jit_block_slow(env: *mut JitEnv, first: u32, end: u64) -> u32 {
    let env = &mut *env;
    let code = env.code();
    if end <= env.max_instructions && poll(env).is_ok() {
        let stride = env.host().poll_stride;
        while env.next_poll <= end {
            env.next_poll += stride;
        }
        return 0;
    }
    for (pc, op) in code.iter().enumerate().skip(first as usize) {
        assert!(!op.is_terminator(), "block {first} ran out before its watchdog or poll");
        if let Err(e) = step_op(env, pc as u32) {
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
    let op = &env.code()[idx as usize];
    env.take_back(&op.charge_from(comp));
    let r = run_from(env, idx, comp as usize);
    settle(env, idx, r)
}

unsafe fn run_from(env: &mut JitEnv, idx: u32, comp: usize) -> Result<(), VmError> {
    let program = &*env.host().program;
    let op = program.code[idx as usize];
    let mem = &mut *env.host().mem;
    match op.kind {
        OpKind::LoadRun { n, sty, space, addr, dst } => {
            let size = sty.size_bytes();
            for i in comp..n as usize {
                charge(env, op.meta)?;
                let regs = env.regs_mut();
                let a = regs[addr as usize + i];
                let bits = mem.read(space, a, size)?;
                env.regs_mut()[dst as usize + i] = mask_to(bits, sty);
            }
            Ok(())
        }
        OpKind::StoreRun { n, sty, space, avec, atmp, val, vstride, smeta } => {
            let size = sty.size_bytes();
            for i in comp..n as usize {
                charge(env, op.meta)?;
                let regs = env.regs_mut();
                let a = regs[avec as usize + i];
                regs[atmp as usize + i] = a;
                charge(env, smeta)?;
                let v = env.regs_mut()[val as usize + i * vstride as usize];
                mem.write(space, a, size, v)?;
            }
            Ok(())
        }
        _ => unreachable!("jit_run_from on a non-run µop"),
    }
}

/// One full µop through the shared interpreter helpers. Mirrors the
/// corresponding arms of the interpreter's `exec_loop`; terminators
/// never reach here (they always have inline templates).
unsafe fn step_op(env: &mut JitEnv, idx: u32) -> Result<(), VmError> {
    let program = &*env.host().program;
    let op = program.code[idx as usize];
    match op.kind {
        OpKind::Bin { op: bop, sty, signed, w, dst, a, b } => {
            charge(env, op.meta)?;
            exec_bin(env.regs_mut(), bop, sty, signed, w, dst, a, b)?;
        }
        OpKind::Un { op: uop, sty, w, dst, a } => {
            charge(env, op.meta)?;
            exec_un(env.regs_mut(), uop, sty, w, dst, a)?;
        }
        OpKind::Fma { sty, w, dst, a, b, c } => {
            charge(env, op.meta)?;
            exec_fma(env.regs_mut(), sty, w, dst, a, b, c);
        }
        OpKind::Cmp { pred, sty, signed, w, dst, a, b } => {
            charge(env, op.meta)?;
            let regs = env.regs_mut();
            if w == 1 {
                let r = scalar_cmp(pred, sty, signed, lane(regs, a, 0), lane(regs, b, 0));
                set_bcast(regs, dst, r);
            } else {
                vec2(regs, w as usize, dst.off as usize, a, b, |x, y| {
                    scalar_cmp(pred, sty, signed, x, y)
                });
            }
        }
        OpKind::Select { w, dst, cond, a, b } => {
            charge(env, op.meta)?;
            let regs = env.regs_mut();
            if w == 1 {
                let r =
                    if lane(regs, cond, 0) & 1 != 0 { lane(regs, a, 0) } else { lane(regs, b, 0) };
                set_bcast(regs, dst, r);
            } else {
                vec3(regs, w as usize, dst.off as usize, cond, a, b, |c, x, y| {
                    if c & 1 != 0 {
                        x
                    } else {
                        y
                    }
                });
            }
        }
        OpKind::Cvt { to, from, signed, w, dst, a } => {
            charge(env, op.meta)?;
            let regs = env.regs_mut();
            if w == 1 {
                let r = scalar_cvt(to, from, signed, lane(regs, a, 0));
                set_bcast(regs, dst, r);
            } else {
                vec1(regs, w as usize, dst.off as usize, a, |x| scalar_cvt(to, from, signed, x));
            }
        }
        OpKind::Load { sty, space, dst, addr } => {
            charge(env, op.meta)?;
            let a = lane(env.regs_mut(), addr, 0);
            let mem = &mut *env.host().mem;
            let bits = mem.read(space, a, sty.size_bytes())?;
            set_bcast(env.regs_mut(), dst, mask_to(bits, sty));
        }
        OpKind::Store { sty, space, addr, value } => {
            charge(env, op.meta)?;
            let regs = env.regs_mut();
            let a = lane(regs, addr, 0);
            let v = lane(regs, value, 0);
            let mem = &mut *env.host().mem;
            mem.write(space, a, sty.size_bytes(), v)?;
        }
        OpKind::Atom { sty, space, op: akind, signed, dst, addr, a, b } => {
            charge(env, op.meta)?;
            let regs = env.regs_mut();
            let addr_v = lane(regs, addr, 0);
            let av = lane(regs, a, 0);
            let bv = b.map(|b| lane(regs, b, 0));
            let mem = &mut *env.host().mem;
            let old = atom_rmw(mem, sty, space, akind, signed, addr_v, av, bv)?;
            set_bcast(env.regs_mut(), dst, mask_to(old, sty));
        }
        OpKind::Insert { w, dst, vec, elem, lane: l } => {
            charge(env, op.meta)?;
            let regs = env.regs_mut();
            let e = lane(regs, elem, 0);
            let doff = dst.off as usize;
            if let Some(v) = vec {
                for i in 0..w as usize {
                    regs[doff + i] = lane(regs, v, i);
                }
            }
            regs[doff + l as usize] = e;
        }
        OpKind::Extract { dst, vec, lane: l } => {
            charge(env, op.meta)?;
            let regs = env.regs_mut();
            let v = lane(regs, vec, l as usize);
            set_bcast(regs, dst, v);
        }
        OpKind::Splat { dst, a } => {
            charge(env, op.meta)?;
            let regs = env.regs_mut();
            let v = lane(regs, a, 0);
            set_bcast(regs, dst, v);
        }
        OpKind::Reduce { op: rop, sty, w, dst, vec } => {
            charge(env, op.meta)?;
            let regs = env.regs_mut();
            let w = w as usize;
            let r = match rop {
                dpvk_ir::ReduceOp::Add => {
                    let mut sum: u64 = 0;
                    for i in 0..w {
                        sum = sum.wrapping_add(mask_to(lane(regs, vec, i), sty));
                    }
                    mask_to(sum, STy::I32)
                }
                dpvk_ir::ReduceOp::All => (0..w).all(|i| lane(regs, vec, i) & 1 != 0) as u64,
                dpvk_ir::ReduceOp::Any => (0..w).any(|i| lane(regs, vec, i) & 1 != 0) as u64,
            };
            set_bcast(regs, dst, r);
        }
        OpKind::CtxRead { field, lane: l, dst } => {
            charge(env, op.meta)?;
            let v = ctx_field(env, field, l as usize, program.warp_size);
            set_bcast(env.regs_mut(), dst, v);
        }
        OpKind::SetRpImm { lane: l, id } => {
            charge(env, op.meta)?;
            env.ctxs_mut()[l as usize].resume_point = id;
        }
        OpKind::SetRpReg { lane: l, slot, sty } => {
            charge(env, op.meta)?;
            let v = sext(env.regs_mut()[slot as usize], sty);
            env.ctxs_mut()[l as usize].resume_point = v;
        }
        OpKind::SetStatus { status } => {
            charge(env, op.meta)?;
            env.status = match status {
                ResumeStatus::Branch => STATUS_BRANCH,
                ResumeStatus::Barrier => STATUS_BARRIER,
                ResumeStatus::Exit => STATUS_EXIT,
            };
        }
        OpKind::Vote { dst, a } => {
            charge(env, op.meta)?;
            let regs = env.regs_mut();
            let v = lane(regs, a, 0);
            set_bcast(regs, dst, v & 1);
        }
        OpKind::MovVec { w, off, a } => {
            charge(env, op.meta)?;
            vec1(env.regs_mut(), w as usize, off as usize, a, |x| x);
        }
        OpKind::MovScalar { dst, a } => {
            charge(env, op.meta)?;
            let regs = env.regs_mut();
            let v = lane(regs, a, 0);
            set_bcast(regs, dst, v);
        }
        OpKind::CopyRun { n, src, sstride, dst, prefill } => {
            for i in 0..n as usize {
                charge(env, op.meta)?;
                let regs = env.regs_mut();
                let e = regs[src as usize + i * sstride as usize];
                if i == 0 {
                    if let Some((v, w)) = prefill {
                        for j in 0..w as usize {
                            regs[dst as usize + j] = lane(regs, v, j);
                        }
                    }
                }
                env.regs_mut()[dst as usize + i] = e;
            }
        }
        OpKind::LoadRun { .. } | OpKind::StoreRun { .. } => {
            return run_from(env, idx, 0);
        }
        OpKind::CtxReadRun { field, n, dst } => {
            for i in 0..n as usize {
                charge(env, op.meta)?;
                let v = ctx_field(env, field, i, program.warp_size);
                env.regs_mut()[dst as usize + i] = v;
            }
        }
        OpKind::Unsupported { what } => {
            charge(env, op.meta)?;
            return Err(VmError::Unsupported(what.to_string()));
        }
        OpKind::Br { .. } | OpKind::CondBr { .. } | OpKind::Switch { .. } | OpKind::Ret { .. } => {
            unreachable!("terminator µop routed to jit_step")
        }
    }
    Ok(())
}

#[inline(always)]
unsafe fn ctx_field(env: &mut JitEnv, field: CtxField, l: usize, warp_size: u32) -> u64 {
    let entry_masked = env.entry_id_masked;
    let ctxs = env.ctxs_mut();
    let ctx = &ctxs[l.min(ctxs.len() - 1)];
    match field {
        CtxField::Tid(d) => ctx.tid[d as usize] as u64,
        CtxField::Ntid(d) => ctx.ntid[d as usize] as u64,
        CtxField::Ctaid(d) => ctx.ctaid[d as usize] as u64,
        CtxField::Nctaid(d) => ctx.nctaid[d as usize] as u64,
        CtxField::LocalBase => ctx.local_base,
        CtxField::LaneId => l as u64,
        CtxField::WarpSize => warp_size as u64,
        CtxField::EntryId => entry_masked,
    }
}
