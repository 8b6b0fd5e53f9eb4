//! The pre-decoded linear bytecode engine: µop format and execution loop.
//!
//! A [`BytecodeProgram`] is a flat `Vec<Op>` of fixed-size µops produced
//! once per compiled specialization (see [`crate::decode`]), with operands
//! already resolved to frame-slot offsets through the [`FrameLayout`],
//! immediates pre-encoded to their masked bit patterns, modeled
//! cycle/flop charges pre-baked per µop, and branch/switch targets
//! resolved to µop indices so the inner loop is one dense
//! `match code[pc]` dispatch.
//!
//! Vector-typed µops run through chunked `[u64; 4]` lanewise kernels with
//! the per-op dispatch hoisted out of the lane loop, giving the host
//! autovectorizer straight-line, branch-free bodies to widen — no SIMD
//! intrinsics or new dependencies involved.
//!
//! [`step`] is the one executable definition of each non-terminator
//! µop — its effect and its charge — and the loop runs terminators
//! itself and every other µop through it; the JIT's slow paths call the
//! same `step`. Each µop charges its cycles/flops in source order into a
//! [`Meter`], and [`ExecStats`] fields and watchdog/deadline/cancellation
//! polls tick once per source instruction (terminators included, so
//! pure-branch spin loops still poll). Lane values are the functions of
//! [`crate::semantics`]. The JIT is held to this engine; the results of
//! both are held to a PTX-level reference evaluator in the test suite
//! (`tests/reference.rs`).
//!
//! [`FrameLayout`]: crate::frame::FrameLayout

use std::sync::Arc;
use std::time::Instant;

use dpvk_ir::{AtomKind, BinOp, CmpPred, CtxField, ReduceOp, ResumeStatus, STy, Space, UnOp};

use crate::cancel::CancelToken;
use crate::context::ThreadContext;
use crate::error::VmError;
use crate::frame::RegFrame;
use crate::memory::MemAccess;
use crate::semantics::{
    atom_rmw, f_arith, f_enc, f_min_max, f_of, fused_mul_add, fused_mul_add_f32, mask_to,
    scalar_bin, scalar_cmp, scalar_cvt, scalar_un, sext, shift, ExecLimits, WarpOutcome,
};
use crate::stats::ExecStats;

/// µop counts [`ExecStats::loads`].
pub(crate) const F_LOAD: u8 = 1 << 0;
/// µop also counts restore traffic (a load from a spill slot).
pub(crate) const F_RESTORE: u8 = 1 << 1;
/// µop counts [`ExecStats::stores`].
pub(crate) const F_STORE: u8 = 1 << 2;
/// µop also counts spill traffic (a store to a spill slot).
pub(crate) const F_SPILL: u8 = 1 << 3;

/// Pre-baked per-µop charges: modeled cycles, flops, and stat flags.
///
/// `inst_cost` is a pure function of the instruction, the machine model,
/// and the (per-function) cost analysis — all fixed at compile time — so
/// the decoder evaluates it once per static instruction instead of once
/// per dynamic one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OpMeta {
    /// Modeled cycles charged when the µop issues.
    pub cost: u32,
    /// Modeled flops counted when the µop issues.
    pub flops: u32,
    /// `F_*` stat-attribution flags.
    pub flags: u8,
    /// Memory transfer size for spill/restore byte accounting.
    pub bytes: u8,
}

/// Block-retire charges carried by every terminator µop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TermInfo {
    /// Modeled cycles of the terminator.
    pub cost: u32,
    /// Dynamic instructions retired per block visit (`insts.len() + 1`).
    pub insts: u32,
    /// Charge the block's cycles to `cycles_yield` (non-`Body` block)
    /// instead of `cycles_body`.
    pub overhead: bool,
}

/// What a run of [`Meter::charge`] calls adds up to: the poll-clock
/// ticks and every counter it touches. The interpreter charges µop by
/// µop, but the JIT pre-charges whole basic blocks (and takes charges
/// back on its slow paths) in these units, so the arithmetic has one
/// definition next to [`OpMeta`]. It is also the counter part of the
/// [`Meter`] both engines charge into.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Charge {
    /// Ticks: dynamic instructions, the watchdog/poll clock.
    pub ticks: u64,
    /// Modeled cycles.
    pub cost: u64,
    /// [`ExecStats::flops`].
    pub flops: u64,
    /// [`ExecStats::loads`].
    pub loads: u64,
    /// [`ExecStats::stores`].
    pub stores: u64,
    /// [`ExecStats::restore_loads`].
    pub restore_loads: u64,
    /// [`ExecStats::restore_bytes`].
    pub restore_bytes: u64,
    /// [`ExecStats::spill_stores`].
    pub spill_stores: u64,
    /// [`ExecStats::spill_bytes`].
    pub spill_bytes: u64,
}

impl Charge {
    /// Add what `times` back-to-back `charge(meta)` calls accumulate.
    fn add(&mut self, meta: OpMeta, times: u32) {
        let n = times as u64;
        self.ticks += n;
        self.cost += n * meta.cost as u64;
        self.flops += n * meta.flops as u64;
        if meta.flags & F_LOAD != 0 {
            self.loads += n;
            if meta.flags & F_RESTORE != 0 {
                self.restore_loads += n;
                self.restore_bytes += n * meta.bytes as u64;
            }
        }
        if meta.flags & F_STORE != 0 {
            self.stores += n;
            if meta.flags & F_SPILL != 0 {
                self.spill_stores += n;
                self.spill_bytes += n * meta.bytes as u64;
            }
        }
    }

    /// Field-wise `f`.
    fn zip(self, o: Charge, f: impl Fn(u64, u64) -> u64) -> Charge {
        Charge {
            ticks: f(self.ticks, o.ticks),
            cost: f(self.cost, o.cost),
            flops: f(self.flops, o.flops),
            loads: f(self.loads, o.loads),
            stores: f(self.stores, o.stores),
            restore_loads: f(self.restore_loads, o.restore_loads),
            restore_bytes: f(self.restore_bytes, o.restore_bytes),
            spill_stores: f(self.spill_stores, o.spill_stores),
            spill_bytes: f(self.spill_bytes, o.spill_bytes),
        }
    }
}

impl std::ops::SubAssign for Charge {
    fn sub_assign(&mut self, o: Charge) {
        *self = self.zip(o, |a, b| a - b);
    }
}

/// What a due poll looks at, and how often one comes due.
pub(crate) struct Poll<'a> {
    /// Cancellation token, looked at first.
    pub cancel: Option<&'a CancelToken>,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Instructions between polls (`ExecLimits::check_interval.max(1)`).
    pub stride: u64,
}

impl<'a> Poll<'a> {
    /// The polls of a warp call under `limits` and `cancel`.
    pub(crate) fn new(limits: &ExecLimits, cancel: Option<&'a CancelToken>) -> Self {
        Poll { cancel, deadline: limits.deadline, stride: limits.check_interval.max(1) }
    }

    /// Whether the token or the deadline stops the warp now.
    pub(crate) fn check(&self) -> Result<(), VmError> {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(VmError::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(VmError::Deadline);
        }
        Ok(())
    }
}

/// The accounting of one warp call, in both engines: the watchdog/poll
/// clock, the modeled cycles of the running block and the
/// [`ExecStats`] deltas. The bytecode loop keeps one as a local; the
/// JIT's environment block embeds one, which generated code addresses
/// at `offset_of!` displacements (hence `repr(C)`). Either way it is
/// merged into the caller's stats when the call returns, on success
/// and on error alike.
#[repr(C)]
pub(crate) struct Meter {
    /// What the µops charged: `ticks` is the watchdog/poll clock,
    /// `cost` the modeled cycles since the last block retire (dropped
    /// if the call ends inside a block), the rest `ExecStats` deltas.
    pub charged: Charge,
    /// Watchdog limit (`ExecLimits::max_instructions`).
    pub max_instructions: u64,
    /// Next `charged.ticks` at which to poll; `u64::MAX` when nothing
    /// can interrupt the warp.
    pub next_poll: u64,
    /// [`ExecStats::instructions`] delta.
    pub instructions: u64,
    /// [`ExecStats::cycles_body`] delta.
    pub cycles_body: u64,
    /// [`ExecStats::cycles_yield`] delta.
    pub cycles_yield: u64,
}

impl Meter {
    /// A fresh meter for one warp call.
    #[inline(always)]
    pub(crate) fn new(limits: &ExecLimits, poll: &Poll<'_>) -> Meter {
        let polling = poll.cancel.is_some() || poll.deadline.is_some();
        Meter {
            charged: Charge::default(),
            max_instructions: limits.max_instructions,
            next_poll: if polling { poll.stride } else { u64::MAX },
            instructions: 0,
            cycles_body: 0,
            cycles_yield: 0,
        }
    }

    /// One source instruction: trip the watchdog, poll when due.
    #[inline(always)]
    pub(crate) fn tick(&mut self, poll: &Poll<'_>) -> Result<(), VmError> {
        self.charged.ticks += 1;
        if self.charged.ticks > self.max_instructions {
            return Err(VmError::Watchdog { limit: self.max_instructions });
        }
        if self.charged.ticks >= self.next_poll {
            return self.poll(poll);
        }
        Ok(())
    }

    /// A due poll: schedule the next one, then look. Inlined so the
    /// bytecode loop's meter never escapes and stays in registers.
    #[inline(always)]
    pub(crate) fn poll(&mut self, poll: &Poll<'_>) -> Result<(), VmError> {
        self.next_poll = self.charged.ticks + poll.stride;
        poll.check()
    }

    /// Tick, then charge `meta`. The µop profiler sees the cycles here,
    /// so its per-opcode sum is the modeled cycles.
    #[inline(always)]
    pub(crate) fn charge(
        &mut self,
        meta: OpMeta,
        poll: &Poll<'_>,
        prof: &mut impl UopSink,
    ) -> Result<(), VmError> {
        self.tick(poll)?;
        let c = &mut self.charged;
        c.cost += meta.cost as u64;
        prof.charge(meta.cost);
        c.flops += meta.flops as u64;
        if meta.flags != 0 {
            if meta.flags & F_LOAD != 0 {
                c.loads += 1;
                if meta.flags & F_RESTORE != 0 {
                    c.restore_loads += 1;
                    c.restore_bytes += meta.bytes as u64;
                }
            }
            if meta.flags & F_STORE != 0 {
                c.stores += 1;
                if meta.flags & F_SPILL != 0 {
                    c.spill_stores += 1;
                    c.spill_bytes += meta.bytes as u64;
                }
            }
        }
        Ok(())
    }

    /// Retire a block at its terminator: the terminator's cost joins
    /// the block's cycles *before* its tick, so a watchdog trip drops
    /// them, then the block's cycles flush to the body or yield bucket.
    #[inline(always)]
    fn retire(
        &mut self,
        term: TermInfo,
        poll: &Poll<'_>,
        prof: &mut impl UopSink,
    ) -> Result<(), VmError> {
        self.charged.cost += term.cost as u64;
        prof.charge(term.cost);
        self.tick(poll)?;
        self.instructions += term.insts as u64;
        let bucket = if term.overhead { &mut self.cycles_yield } else { &mut self.cycles_body };
        *bucket += std::mem::take(&mut self.charged.cost);
        Ok(())
    }

    /// Undo a charge of `c`, for µops that will charge themselves or
    /// never run (the JIT's block headers charge ahead).
    pub(crate) fn take_back(&mut self, c: Charge) {
        self.charged -= c;
    }

    /// Add this call's deltas to the caller's stats.
    #[inline(always)]
    pub(crate) fn merge_into(&self, stats: &mut ExecStats) {
        let c = &self.charged;
        stats.instructions += self.instructions;
        stats.flops += c.flops;
        stats.loads += c.loads;
        stats.stores += c.stores;
        stats.restore_loads += c.restore_loads;
        stats.restore_bytes += c.restore_bytes;
        stats.spill_stores += c.spill_stores;
        stats.spill_bytes += c.spill_bytes;
        stats.cycles_body += self.cycles_body;
        stats.cycles_yield += self.cycles_yield;
    }
}

/// `SetStatus` codes as [`step`] records them (the JIT's generated code
/// reads and writes the same word); 0 means no `SetStatus` ran yet.
pub(crate) const STATUS_NONE: u64 = 0;
pub(crate) const STATUS_BRANCH: u64 = 1;
pub(crate) const STATUS_BARRIER: u64 = 2;
pub(crate) const STATUS_EXIT: u64 = 3;

/// The code `SetStatus` records for `s`.
pub(crate) fn status_code(s: ResumeStatus) -> u64 {
    match s {
        ResumeStatus::Branch => STATUS_BRANCH,
        ResumeStatus::Barrier => STATUS_BARRIER,
        ResumeStatus::Exit => STATUS_EXIT,
    }
}

/// How a warp call that recorded `code` yields: `Exit` unless a
/// `SetStatus` said otherwise.
pub(crate) fn resume_status(code: u64) -> ResumeStatus {
    match code {
        STATUS_BRANCH => ResumeStatus::Branch,
        STATUS_BARRIER => ResumeStatus::Barrier,
        _ => ResumeStatus::Exit,
    }
}

/// A resolved operand source. Reads are a single indexed load.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BSrc {
    /// Immediate, pre-encoded to its masked bit pattern.
    Imm(u64),
    /// Width-1 register slot; broadcasts across vector lanes.
    Slot(u32),
    /// Vector register: lane `i` reads slot `base + i`.
    Lanes(u32),
}

/// A resolved destination: scalar results broadcast-fill all `w` declared
/// slots (mirroring `Machine::set_scalar`); vector results write the
/// operation width starting at `off`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BDst {
    /// First slot of the register.
    pub off: u32,
    /// Declared lane width of the register.
    pub w: u32,
}

/// Switch scrutinee, resolved at decode time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SwitchVal {
    /// Register slot, sign-extended by the register's scalar type.
    Reg {
        /// Slot holding the value.
        slot: u32,
        /// Scalar type governing sign extension.
        sty: STy,
    },
    /// Integer immediate (used as-is).
    Imm(i64),
    /// A float immediate: an `Unsupported` error at execution time.
    BadFloat,
}

/// One fixed-size µop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    /// Charges applied when the µop (or each component of a run) issues.
    pub meta: OpMeta,
    /// Operation payload.
    pub kind: OpKind,
}

impl Op {
    /// Add to `c` everything this µop's `charge!` calls add up to when
    /// it runs to completion, from component `from` on: one `meta` per
    /// component, plus a `StoreRun`'s store meta. A terminator's retire
    /// (its own tick and cost) is not a `charge!` and is not counted.
    pub(crate) fn charge_into(&self, from: u32, c: &mut Charge) {
        match self.kind {
            OpKind::CopyRun { n, .. }
            | OpKind::LoadRun { n, .. }
            | OpKind::CtxReadRun { n, .. } => c.add(self.meta, n - from),
            OpKind::StoreRun { n, smeta, .. } => {
                c.add(self.meta, n - from);
                c.add(smeta, n - from);
            }
            OpKind::Br { .. }
            | OpKind::CondBr { .. }
            | OpKind::Switch { .. }
            | OpKind::Ret { .. } => {}
            _ => c.add(self.meta, 1),
        }
    }

    /// [`Self::charge_into`] an empty [`Charge`].
    pub(crate) fn charge_from(&self, from: u32) -> Charge {
        let mut c = Charge::default();
        self.charge_into(from, &mut c);
        c
    }

    /// Whether the µop ends its basic block.
    pub(crate) fn is_terminator(&self) -> bool {
        matches!(
            self.kind,
            OpKind::Br { .. } | OpKind::CondBr { .. } | OpKind::Switch { .. } | OpKind::Ret { .. }
        )
    }
}

/// µop payloads. Straight-line µops advance `pc` by one; terminator µops
/// retire the block and jump.
#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)]
pub(crate) enum OpKind {
    /// Element-wise binary operation.
    Bin { op: BinOp, sty: STy, signed: bool, w: u32, dst: BDst, a: BSrc, b: BSrc },
    /// Element-wise unary operation.
    Un { op: UnOp, sty: STy, w: u32, dst: BDst, a: BSrc },
    /// Fused multiply-add.
    Fma { sty: STy, w: u32, dst: BDst, a: BSrc, b: BSrc, c: BSrc },
    /// Comparison producing 0/1 lanes.
    Cmp { pred: CmpPred, sty: STy, signed: bool, w: u32, dst: BDst, a: BSrc, b: BSrc },
    /// Lane-wise select.
    Select { w: u32, dst: BDst, cond: BSrc, a: BSrc, b: BSrc },
    /// Type conversion.
    Cvt { to: STy, from: STy, signed: bool, w: u32, dst: BDst, a: BSrc },
    /// Scalar memory load.
    Load { sty: STy, space: Space, dst: BDst, addr: BSrc },
    /// Scalar memory store.
    Store { sty: STy, space: Space, addr: BSrc, value: BSrc },
    /// Atomic read-modify-write.
    Atom {
        sty: STy,
        space: Space,
        op: AtomKind,
        signed: bool,
        dst: BDst,
        addr: BSrc,
        a: BSrc,
        b: Option<BSrc>,
    },
    /// Lane insert; `vec: None` is the in-place form.
    Insert { w: u32, dst: BDst, vec: Option<BSrc>, elem: BSrc, lane: u32 },
    /// Lane extract.
    Extract { dst: BDst, vec: BSrc, lane: u32 },
    /// Broadcast a scalar into a vector register.
    Splat { dst: BDst, a: BSrc },
    /// Horizontal reduction.
    Reduce { op: ReduceOp, sty: STy, w: u32, dst: BDst, vec: BSrc },
    /// Thread-context field read.
    CtxRead { field: CtxField, lane: u32, dst: BDst },
    /// `SetResumePoint` with an immediate id.
    SetRpImm { lane: u32, id: i64 },
    /// `SetResumePoint` from a register, sign-extended by its type.
    SetRpReg { lane: u32, slot: u32, sty: STy },
    /// Record the warp's yield status.
    SetStatus { status: ResumeStatus },
    /// Width-1 vote (identity of the predicate).
    Vote { dst: BDst, a: BSrc },
    /// Vector register copy.
    MovVec { w: u32, off: u32, a: BSrc },
    /// Scalar register copy (broadcast write).
    MovScalar { dst: BDst, a: BSrc },
    /// A construct rejected at execution time; charged like the original
    /// instruction, then errors.
    Unsupported { what: &'static str },

    /// Fused register-copy run (superinstruction): component `i` copies
    /// slot `src + i*sstride` to slot `dst + i`. Covers `Extract` lane
    /// spreads, `Insert` packs (via `prefill`, replayed after the first
    /// element read and before its write, exactly like the first
    /// `Insert`'s initializer copy), and `MovScalar` fan-outs. One
    /// shared meta is charged per component, in original order.
    CopyRun { n: u32, src: u32, sstride: u32, dst: u32, prefill: Option<(BSrc, u32)> },
    /// Fused scalar-load run: `n` loads from consecutive address slots
    /// into consecutive destination slots. A faulting component leaves
    /// exactly the same register prefix written as the unfused form.
    LoadRun { n: u32, sty: STy, space: Space, addr: u32, dst: u32 },
    /// Fused `(Extract addr-lane, Store)` interleave — a vector
    /// scatter: per component, charge the extract (the run's own meta),
    /// materialize address lane `avec + i` into its temporary slot
    /// `atmp + i`, charge the store (`smeta`), write `val + i*vstride`
    /// to memory.
    StoreRun {
        n: u32,
        sty: STy,
        space: Space,
        avec: u32,
        atmp: u32,
        val: u32,
        vstride: u32,
        smeta: OpMeta,
    },
    /// Fused per-lane `CtxRead` run over lanes `0..n` of one field.
    CtxReadRun { field: CtxField, n: u32, dst: u32 },

    /// Unconditional branch to a µop index.
    Br { target: u32, term: TermInfo },
    /// Conditional branch on bit 0 of `cond`.
    CondBr { cond: BSrc, taken: u32, fall: u32, term: TermInfo },
    /// Multi-way branch; cases live in the program's side table.
    Switch { val: SwitchVal, cases: (u32, u32), default: u32, term: TermInfo },
    /// Return/yield out of the warp call.
    Ret { term: TermInfo },
}

/// Number of distinct µop opcodes ([`OpKind`] variants).
pub(crate) const N_UOPS: usize = 29;

/// Stable snake_case µop names, indexed by [`OpKind::opcode`]. The
/// profiler's reports and collapsed-stack output use these.
pub(crate) static UOP_NAMES: [&str; N_UOPS] = [
    "bin",
    "un",
    "fma",
    "cmp",
    "select",
    "cvt",
    "load",
    "store",
    "atom",
    "insert",
    "extract",
    "splat",
    "reduce",
    "ctx_read",
    "set_rp_imm",
    "set_rp_reg",
    "set_status",
    "vote",
    "mov_vec",
    "mov_scalar",
    "unsupported",
    "copy_run",
    "load_run",
    "store_run",
    "ctx_read_run",
    "br",
    "cond_br",
    "switch",
    "ret",
];

/// Which opcodes are decode-time superinstructions (fused µops), indexed
/// like [`UOP_NAMES`].
pub(crate) static UOP_FUSED: [bool; N_UOPS] = {
    let mut fused = [false; N_UOPS];
    // CopyRun, LoadRun, StoreRun, CtxReadRun.
    let mut i = 21;
    while i <= 24 {
        fused[i] = true;
        i += 1;
    }
    fused
};

impl OpKind {
    /// Dense opcode index (declaration order), used to key the µop
    /// profiler's count arrays.
    #[inline(always)]
    pub(crate) fn opcode(&self) -> usize {
        match self {
            OpKind::Bin { .. } => 0,
            OpKind::Un { .. } => 1,
            OpKind::Fma { .. } => 2,
            OpKind::Cmp { .. } => 3,
            OpKind::Select { .. } => 4,
            OpKind::Cvt { .. } => 5,
            OpKind::Load { .. } => 6,
            OpKind::Store { .. } => 7,
            OpKind::Atom { .. } => 8,
            OpKind::Insert { .. } => 9,
            OpKind::Extract { .. } => 10,
            OpKind::Splat { .. } => 11,
            OpKind::Reduce { .. } => 12,
            OpKind::CtxRead { .. } => 13,
            OpKind::SetRpImm { .. } => 14,
            OpKind::SetRpReg { .. } => 15,
            OpKind::SetStatus { .. } => 16,
            OpKind::Vote { .. } => 17,
            OpKind::MovVec { .. } => 18,
            OpKind::MovScalar { .. } => 19,
            OpKind::Unsupported { .. } => 20,
            OpKind::CopyRun { .. } => 21,
            OpKind::LoadRun { .. } => 22,
            OpKind::StoreRun { .. } => 23,
            OpKind::CtxReadRun { .. } => 24,
            OpKind::Br { .. } => 25,
            OpKind::CondBr { .. } => 26,
            OpKind::Switch { .. } => 27,
            OpKind::Ret { .. } => 28,
        }
    }

    /// Vector lanes the µop operates over: the `w` of element-wise µops,
    /// 1 for scalar, memory, glue, and control µops. This is the decoded
    /// form of the chosen warp width — element-wise µops of a width-`w`
    /// specialization carry `w` (or 1 when the specializer proved the
    /// value uniform), so the per-program tally
    /// ([`DecodeStats::vector_ops`]) measures how much of the stream
    /// actually vectorized at that width.
    #[inline(always)]
    pub(crate) fn lanes(&self) -> u32 {
        match *self {
            OpKind::Bin { w, .. }
            | OpKind::Un { w, .. }
            | OpKind::Fma { w, .. }
            | OpKind::Cmp { w, .. }
            | OpKind::Select { w, .. }
            | OpKind::Cvt { w, .. }
            | OpKind::Insert { w, .. }
            | OpKind::Reduce { w, .. }
            | OpKind::MovVec { w, .. } => w,
            _ => 1,
        }
    }
}

/// Count the µops of `code` that operate on more than one lane. Derived
/// from the stream (never serialized): decode fills it for fresh
/// programs and `serial` recomputes it on rehydration, so persisted
/// artifacts from older builds stay readable.
pub(crate) fn count_vector_ops(code: &[Op]) -> u64 {
    code.iter().filter(|op| op.kind.lanes() > 1).count() as u64
}

/// Compile-time sink for the µop profiler. The execution loop is
/// monomorphized over this, so the unprofiled instantiation (the
/// [`NoProfile`] impl, all no-ops) carries zero per-µop overhead — the
/// hot path stays byte-for-byte what it was before profiling existed.
pub(crate) trait UopSink {
    /// Called once per µop dispatch; the following
    /// [`charge`](Self::charge) calls attribute to this µop's opcode.
    fn note_op(&mut self, kind: &OpKind);
    /// Attribute `cycles` modeled cycles to the µop last noted (called
    /// by the meter's charge and retire, including per run component).
    fn charge(&mut self, cycles: u32);
}

/// The disabled sink: everything inlines to nothing.
pub(crate) struct NoProfile;

impl UopSink for NoProfile {
    #[inline(always)]
    fn note_op(&mut self, _kind: &OpKind) {}

    #[inline(always)]
    fn charge(&mut self, _cycles: u32) {}
}

/// Stack-allocated per-warp-call µop histogram, flushed to
/// `dpvk_trace::profile` after the warp returns.
pub(crate) struct UopCounts {
    /// Dispatch count per opcode.
    pub hits: [u64; N_UOPS],
    /// Modeled cycles attributed per opcode (charge + retire costs, so
    /// the per-warp sum equals exactly `cycles_body + cycles_yield`).
    pub cycles: [u64; N_UOPS],
    /// Opcode of the µop dispatching now.
    current: usize,
}

impl UopCounts {
    fn new() -> UopCounts {
        UopCounts { hits: [0; N_UOPS], cycles: [0; N_UOPS], current: 0 }
    }
}

impl UopSink for UopCounts {
    #[inline(always)]
    fn note_op(&mut self, kind: &OpKind) {
        self.current = kind.opcode();
        self.hits[self.current] += 1;
    }

    #[inline(always)]
    fn charge(&mut self, cycles: u32) {
        self.cycles[self.current] += u64::from(cycles);
    }
}

/// Profiler identity of a decoded program: which kernel ×
/// specialization its samples aggregate under.
#[derive(Debug, Clone)]
pub(crate) struct ProfileTag {
    /// Kernel name.
    pub kernel: Arc<str>,
    /// Specialization variant label (`"baseline"`, `"dynamic"`, ...).
    pub variant: &'static str,
}

/// Decode-time tallies: µop counts and run fusion hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// µops emitted.
    pub ops: u64,
    /// Source instructions plus terminators covered by those µops.
    pub source_insts: u64,
    /// Always 0: the decoder fuses no compare-branch. Kept only because
    /// the benchmark's layer pass still reads it; the next benchmark
    /// change removes it together with `vm.decode.fused_uops`.
    pub fused_cmp_br: u64,
    /// Always 0: the decoder fuses no `Bin`+`Bin` chain. Removed with
    /// [`fused_cmp_br`](Self::fused_cmp_br).
    pub fused_bin_bin: u64,
    /// Always 0: the decoder fuses no `Load`+`Bin` pair. Removed with
    /// [`fused_cmp_br`](Self::fused_cmp_br).
    pub fused_load_bin: u64,
    /// Per-lane glue runs (`Extract`/`Insert`/`Load`/`Store`/`Mov`/
    /// `CtxRead` sequences) collapsed into run superinstructions.
    pub fused_runs: u64,
    /// µops operating on more than one lane — the share of the stream
    /// that actually vectorized at the specialization's warp width.
    /// Derived from the µop stream, not serialized: decode fills it for
    /// fresh programs and `serial` recomputes it on rehydration.
    pub vector_ops: u64,
}

/// A function lowered to linear bytecode, ready for
/// [`execute_warp_bytecode`]. Built once per compiled specialization by
/// [`BytecodeProgram::decode`](crate::decode) and cached next to the
/// [`FrameLayout`](crate::FrameLayout).
#[derive(Debug, Clone)]
pub struct BytecodeProgram {
    /// Linearized µops; block 0 starts at index 0.
    pub(crate) code: Vec<Op>,
    /// Switch case table: `(match value, target µop index)`.
    pub(crate) cases: Vec<(i64, u32)>,
    /// Frame slots the program executes against.
    pub(crate) slots: usize,
    /// Warp width of the source function.
    pub(crate) warp_size: u32,
    /// Slot ranges `(first, len)` of the registers live into block 0 —
    /// the only slots a warp entry can read before writing, so the only
    /// ones [`RegFrame::prepare_slots`] has to zero. Empty unless the
    /// source reads a register it never wrote.
    pub(crate) entry_live: Vec<(u32, u32)>,
    /// Decode statistics (µop count, fusion tallies).
    pub stats: DecodeStats,
    /// Profiler identity (kernel × specialization). `None` until
    /// [`BytecodeProgram::attach_profile`] runs; without it the µop
    /// profiler has nothing to aggregate under and skips this program.
    pub(crate) profile: Option<ProfileTag>,
}

impl BytecodeProgram {
    /// Tag this program with its kernel name and specialization variant
    /// so the µop profiler can attribute its samples, and (when tracing
    /// is live) record the static µop mix for the profile report.
    pub fn attach_profile(&mut self, kernel: &str, variant: &'static str) {
        self.profile = Some(ProfileTag { kernel: Arc::from(kernel), variant });
        if dpvk_trace::profile::uop_enabled() {
            let mut counts = [0u64; N_UOPS];
            for op in &self.code {
                counts[op.kind.opcode()] += 1;
            }
            dpvk_trace::profile::record_static_mix(kernel, self.warp_size, variant, &counts);
        }
    }

    /// Profiler key `(kernel, variant)` if [`attach_profile`]
    /// (`Self::attach_profile`) has run.
    pub fn profile_key(&self) -> Option<(&str, &'static str)> {
        self.profile.as_ref().map(|t| (&*t.kernel, t.variant))
    }
    /// Check every register-slot index, branch target and case-table
    /// range the engine can touch at runtime against the program's
    /// bounds, panicking on any violation.
    ///
    /// Runs once per decode. The execution loop's register-file
    /// accessors ([`lane`], [`read4`], [`set_bcast`] and the chunk
    /// kernels) skip per-access bounds checks on the strength of this
    /// pass — validate once, trust thereafter — so every `OpKind`
    /// variant MUST be covered by the exhaustive match below. A
    /// violation here is a decoder bug; panicking at decode time is
    /// strictly better than risking out-of-bounds register access on
    /// every dynamic instruction later.
    pub(crate) fn validate(&self) {
        let slots = self.slots;
        let code_len = self.code.len();
        // Reads of lanes `0..w` from a source; scalar positions pass w=1.
        let src = |s: BSrc, w: u32| match s {
            BSrc::Slot(o) => assert!((o as usize) < slots, "slot {o} out of {slots}"),
            BSrc::Lanes(o) => {
                assert!(o as usize + w.max(1) as usize <= slots, "lanes {o}+{w} out of {slots}")
            }
            BSrc::Imm(_) => {}
        };
        let dst = |d: BDst| {
            assert!(d.off as usize + d.w.max(1) as usize <= slots, "dst {d:?} out of {slots}")
        };
        let run = |base: u32, n: u32, stride: u32| {
            let last = base as u64 + (n.max(1) as u64 - 1) * stride as u64;
            assert!(last < slots as u64, "run {base}+{n}*{stride} out of {slots}");
        };
        let target = |t: u32| assert!((t as usize) < code_len, "target {t} out of {code_len}");
        for op in &self.code {
            match op.kind {
                OpKind::Bin { w, dst: d, a, b, .. } | OpKind::Cmp { w, dst: d, a, b, .. } => {
                    src(a, w);
                    src(b, w);
                    dst(d);
                }
                OpKind::Un { w, dst: d, a, .. } | OpKind::Cvt { w, dst: d, a, .. } => {
                    src(a, w);
                    dst(d);
                }
                OpKind::Fma { w, dst: d, a, b, c, .. } => {
                    src(a, w);
                    src(b, w);
                    src(c, w);
                    dst(d);
                }
                OpKind::Select { w, dst: d, cond, a, b } => {
                    src(cond, w);
                    src(a, w);
                    src(b, w);
                    dst(d);
                }
                OpKind::Load { dst: d, addr, .. } => {
                    src(addr, 1);
                    dst(d);
                }
                OpKind::Store { addr, value, .. } => {
                    src(addr, 1);
                    src(value, 1);
                }
                OpKind::Atom { dst: d, addr, a, b, .. } => {
                    src(addr, 1);
                    src(a, 1);
                    if let Some(b) = b {
                        src(b, 1);
                    }
                    dst(d);
                }
                OpKind::Insert { w, dst: d, vec, elem, lane } => {
                    assert!(lane < w, "insert lane {lane} out of width {w}");
                    if let Some(v) = vec {
                        src(v, w);
                    }
                    src(elem, 1);
                    dst(d);
                    run(d.off, w, 1);
                }
                OpKind::Extract { dst: d, vec, lane } => {
                    src(vec, lane + 1);
                    dst(d);
                }
                OpKind::Splat { dst: d, a }
                | OpKind::Vote { dst: d, a }
                | OpKind::MovScalar { dst: d, a } => {
                    src(a, 1);
                    dst(d);
                }
                OpKind::Reduce { w, dst: d, vec, .. } => {
                    src(vec, w);
                    dst(d);
                }
                OpKind::MovVec { w, off, a } => {
                    src(a, w);
                    run(off, w, 1);
                }
                OpKind::CtxRead { dst: d, .. } => dst(d),
                OpKind::SetRpImm { lane, .. } => {
                    assert!(lane < self.warp_size, "resume lane {lane}");
                }
                OpKind::SetRpReg { lane, slot, .. } => {
                    assert!(lane < self.warp_size, "resume lane {lane}");
                    src(BSrc::Slot(slot), 1);
                }
                OpKind::SetStatus { .. } | OpKind::Unsupported { .. } => {}
                OpKind::CopyRun { n, src: s, sstride, dst: d, prefill } => {
                    run(s, n, sstride);
                    run(d, n, 1);
                    if let Some((v, w)) = prefill {
                        src(v, w);
                        run(d, w, 1);
                    }
                }
                OpKind::LoadRun { n, addr, dst: d, .. } => {
                    run(addr, n, 1);
                    run(d, n, 1);
                }
                OpKind::StoreRun { n, avec, atmp, val, vstride, .. } => {
                    run(avec, n, 1);
                    run(atmp, n, 1);
                    run(val, n, vstride);
                }
                OpKind::CtxReadRun { n, dst: d, .. } => run(d, n, 1),
                OpKind::Br { target: t, .. } => target(t),
                OpKind::CondBr { cond, taken, fall, .. } => {
                    src(cond, 1);
                    target(taken);
                    target(fall);
                }
                OpKind::Switch { val, cases: (start, len), default, .. } => {
                    if let SwitchVal::Reg { slot, .. } = val {
                        src(BSrc::Slot(slot), 1);
                    }
                    assert!(
                        start as usize + len as usize <= self.cases.len(),
                        "case range {start}+{len} out of {}",
                        self.cases.len()
                    );
                    target(default);
                }
                OpKind::Ret { .. } => {}
            }
        }
        for &(_, t) in &self.cases {
            target(t);
        }
        for &(first, len) in &self.entry_live {
            assert!(first as usize + len as usize <= slots, "live range {first}+{len}");
        }
    }

    /// Warp width of the source function.
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// Number of register-frame slots the program was validated against.
    /// Callers rehydrating a persisted program cross-check this against
    /// the [`FrameLayout`](crate::FrameLayout) they recompute.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of µops in the decoded stream.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no µops (an empty function).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Source instructions, terminators included, that each µop covers,
    /// in stream order: the watchdog ticks it takes when it runs to
    /// completion. A lane run covers its components (two per lane for a
    /// `StoreRun`: the address extract and the store); every other µop
    /// covers one.
    pub fn insts_per_uop(&self) -> impl Iterator<Item = u64> + '_ {
        self.code.iter().map(|op| op.charge_from(0).ticks + op.is_terminator() as u64)
    }
}

// The accessors below skip slice bounds checks: every `BSrc`/`BDst`
// offset was range-checked against the frame's slot count by
// `BytecodeProgram::validate` at decode time, and callers only pass
// lane indices below the op's validated width. The checks cost 1–3 ns
// per guest instruction on the hot paths, which is why they are elided
// rather than left to the optimizer.

/// Lane `i` of a resolved operand; width-1 slots broadcast.
#[inline(always)]
pub(crate) fn lane(regs: &[u64], s: BSrc, i: usize) -> u64 {
    match s {
        BSrc::Imm(v) => v,
        // SAFETY: slot/lane offsets were validated at decode time and
        // `i` is below the op's validated width.
        BSrc::Slot(o) => unsafe { *regs.get_unchecked(o as usize) },
        BSrc::Lanes(o) => unsafe { *regs.get_unchecked(o as usize + i) },
    }
}

/// Four consecutive lanes starting at `base`, as one chunk.
#[inline(always)]
pub(crate) fn read4(regs: &[u64], s: BSrc, base: usize) -> [u64; 4] {
    match s {
        BSrc::Imm(v) => [v; 4],
        BSrc::Slot(o) => [regs[o as usize]; 4],
        BSrc::Lanes(o) => {
            let o = o as usize + base;
            // SAFETY: decode-time validation bounds `o + w`, and callers
            // only take this path while `base + 4 <= w`.
            unsafe {
                [
                    *regs.get_unchecked(o),
                    *regs.get_unchecked(o + 1),
                    *regs.get_unchecked(o + 2),
                    *regs.get_unchecked(o + 3),
                ]
            }
        }
    }
}

/// Broadcast-write a scalar result across the register's declared width.
#[inline(always)]
pub(crate) fn set_bcast(regs: &mut [u64], dst: BDst, v: u64) {
    let off = dst.off as usize;
    // SAFETY: `dst.off + dst.w` was validated at decode time.
    unsafe { regs.get_unchecked_mut(off..off + dst.w as usize) }.fill(v);
}

/// Lane-wise unary kernel over `[u64; 4]` chunks. The per-op dispatch is
/// hoisted into `f`'s monomorphized body, leaving the chunk loop
/// branch-free for the autovectorizer.
#[inline(always)]
pub(crate) fn vec1(regs: &mut [u64], w: usize, doff: usize, a: BSrc, f: impl Fn(u64) -> u64) {
    let mut i = 0;
    while i + 4 <= w {
        let x = read4(regs, a, i);
        let d = [f(x[0]), f(x[1]), f(x[2]), f(x[3])];
        // SAFETY: the destination range was validated at decode time and
        // `i + 4 <= w`.
        unsafe { regs.get_unchecked_mut(doff + i..doff + i + 4) }.copy_from_slice(&d);
        i += 4;
    }
    while i < w {
        regs[doff + i] = f(lane(regs, a, i));
        i += 1;
    }
}

/// Lane-wise binary kernel over `[u64; 4]` chunks.
#[inline(always)]
pub(crate) fn vec2(
    regs: &mut [u64],
    w: usize,
    doff: usize,
    a: BSrc,
    b: BSrc,
    f: impl Fn(u64, u64) -> u64,
) {
    let mut i = 0;
    while i + 4 <= w {
        let x = read4(regs, a, i);
        let y = read4(regs, b, i);
        let d = [f(x[0], y[0]), f(x[1], y[1]), f(x[2], y[2]), f(x[3], y[3])];
        // SAFETY: the destination range was validated at decode time and
        // `i + 4 <= w`.
        unsafe { regs.get_unchecked_mut(doff + i..doff + i + 4) }.copy_from_slice(&d);
        i += 4;
    }
    while i < w {
        regs[doff + i] = f(lane(regs, a, i), lane(regs, b, i));
        i += 1;
    }
}

/// Lane-wise ternary kernel over `[u64; 4]` chunks.
#[inline(always)]
pub(crate) fn vec3(
    regs: &mut [u64],
    w: usize,
    doff: usize,
    a: BSrc,
    b: BSrc,
    c: BSrc,
    f: impl Fn(u64, u64, u64) -> u64,
) {
    let mut i = 0;
    while i + 4 <= w {
        let x = read4(regs, a, i);
        let y = read4(regs, b, i);
        let z = read4(regs, c, i);
        let d =
            [f(x[0], y[0], z[0]), f(x[1], y[1], z[1]), f(x[2], y[2], z[2]), f(x[3], y[3], z[3])];
        // SAFETY: the destination range was validated at decode time and
        // `i + 4 <= w`.
        unsafe { regs.get_unchecked_mut(doff + i..doff + i + 4) }.copy_from_slice(&d);
        i += 4;
    }
    while i < w {
        regs[doff + i] = f(lane(regs, a, i), lane(regs, b, i), lane(regs, c, i));
        i += 1;
    }
}

/// One lane of a float `Add`/`Sub`/`Mul`/`Div` on encoded operands.
#[inline(always)]
fn f_bin(x: u64, y: u64, sty: STy, op: impl Fn(f64, f64) -> f64) -> u64 {
    f_enc(f_arith(f_of(x, sty), f_of(y, sty), op), sty)
}

/// Element-wise binary op.
///
/// The arithmetic in each lane closure replicates `scalar_bin` exactly
/// (guarded by `tests/jit_lanes.rs` and the reference matrix); infallible
/// ops get chunked kernels, fallible ones (integer Div/Rem) fall back to
/// the sequential per-lane loop so a lane's error leaves the lanes before
/// it written and the ones after it not.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn exec_bin(
    regs: &mut [u64],
    op: BinOp,
    sty: STy,
    signed: bool,
    w: u32,
    dst: BDst,
    a: BSrc,
    b: BSrc,
) -> Result<(), VmError> {
    if w == 1 {
        let r = scalar_bin(op, sty, signed, lane(regs, a, 0), lane(regs, b, 0))?;
        set_bcast(regs, dst, r);
        return Ok(());
    }
    let w = w as usize;
    let doff = dst.off as usize;
    if sty.is_float() {
        match op {
            // One closure per operator, so each chunk loop is its own
            // monomorphized body.
            BinOp::Add => vec2(regs, w, doff, a, b, |x, y| f_bin(x, y, sty, |x, y| x + y)),
            BinOp::Sub => vec2(regs, w, doff, a, b, |x, y| f_bin(x, y, sty, |x, y| x - y)),
            BinOp::Mul => vec2(regs, w, doff, a, b, |x, y| f_bin(x, y, sty, |x, y| x * y)),
            BinOp::Div => vec2(regs, w, doff, a, b, |x, y| f_bin(x, y, sty, |x, y| x / y)),
            BinOp::Min => vec2(regs, w, doff, a, b, |x, y| {
                f_enc(f_min_max(f_of(x, sty), f_of(y, sty), false), sty)
            }),
            BinOp::Max => vec2(regs, w, doff, a, b, |x, y| {
                f_enc(f_min_max(f_of(x, sty), f_of(y, sty), true), sty)
            }),
            BinOp::And => vec2(regs, w, doff, a, b, |x, y| mask_to(x & y, sty)),
            BinOp::Or => vec2(regs, w, doff, a, b, |x, y| mask_to(x | y, sty)),
            BinOp::Xor => vec2(regs, w, doff, a, b, |x, y| mask_to(x ^ y, sty)),
            _ => {
                for i in 0..w {
                    regs[doff + i] =
                        scalar_bin(op, sty, signed, lane(regs, a, i), lane(regs, b, i))?;
                }
            }
        }
        return Ok(());
    }
    match op {
        BinOp::Add => vec2(regs, w, doff, a, b, |x, y| {
            mask_to(sext(x, sty).wrapping_add(sext(y, sty)) as u64, sty)
        }),
        BinOp::Sub => vec2(regs, w, doff, a, b, |x, y| {
            mask_to(sext(x, sty).wrapping_sub(sext(y, sty)) as u64, sty)
        }),
        BinOp::Mul => vec2(regs, w, doff, a, b, |x, y| {
            mask_to(sext(x, sty).wrapping_mul(sext(y, sty)) as u64, sty)
        }),
        BinOp::Min if signed => {
            vec2(regs, w, doff, a, b, |x, y| mask_to(sext(x, sty).min(sext(y, sty)) as u64, sty))
        }
        BinOp::Min => {
            vec2(regs, w, doff, a, b, |x, y| mask_to(mask_to(x, sty).min(mask_to(y, sty)), sty))
        }
        BinOp::Max if signed => {
            vec2(regs, w, doff, a, b, |x, y| mask_to(sext(x, sty).max(sext(y, sty)) as u64, sty))
        }
        BinOp::Max => {
            vec2(regs, w, doff, a, b, |x, y| mask_to(mask_to(x, sty).max(mask_to(y, sty)), sty))
        }
        BinOp::And => vec2(regs, w, doff, a, b, |x, y| mask_to(x & y, sty)),
        BinOp::Or => vec2(regs, w, doff, a, b, |x, y| mask_to(x | y, sty)),
        BinOp::Xor => vec2(regs, w, doff, a, b, |x, y| mask_to(x ^ y, sty)),
        BinOp::Shl => vec2(regs, w, doff, a, b, |x, y| shift(BinOp::Shl, sty, false, x, y)),
        BinOp::Shr if signed => {
            vec2(regs, w, doff, a, b, |x, y| shift(BinOp::Shr, sty, true, x, y))
        }
        BinOp::Shr => vec2(regs, w, doff, a, b, |x, y| shift(BinOp::Shr, sty, false, x, y)),
        _ => {
            // MulHi (i128 product) and the fallible Div/Rem: sequential,
            // via the shared scalar helper.
            for i in 0..w {
                regs[doff + i] = scalar_bin(op, sty, signed, lane(regs, a, i), lane(regs, b, i))?;
            }
        }
    }
    Ok(())
}

/// Element-wise unary op.
#[inline(always)]
pub(crate) fn exec_un(
    regs: &mut [u64],
    op: UnOp,
    sty: STy,
    w: u32,
    dst: BDst,
    a: BSrc,
) -> Result<(), VmError> {
    if w == 1 {
        let r = scalar_un(op, sty, lane(regs, a, 0))?;
        set_bcast(regs, dst, r);
        return Ok(());
    }
    let w = w as usize;
    let doff = dst.off as usize;
    if sty.is_float() {
        match op {
            UnOp::Neg => vec1(regs, w, doff, a, |x| f_enc(-f_of(x, sty), sty)),
            UnOp::Abs => vec1(regs, w, doff, a, |x| f_enc(f_of(x, sty).abs(), sty)),
            UnOp::Sqrt => vec1(regs, w, doff, a, |x| f_enc(f_of(x, sty).sqrt(), sty)),
            UnOp::Rsqrt => vec1(regs, w, doff, a, |x| f_enc(1.0 / f_of(x, sty).sqrt(), sty)),
            UnOp::Rcp => vec1(regs, w, doff, a, |x| f_enc(1.0 / f_of(x, sty), sty)),
            _ => {
                // Transcendentals and the erroring Not.
                for i in 0..w {
                    regs[doff + i] = scalar_un(op, sty, lane(regs, a, i))?;
                }
            }
        }
        return Ok(());
    }
    match op {
        UnOp::Neg => vec1(regs, w, doff, a, |x| mask_to(sext(x, sty).wrapping_neg() as u64, sty)),
        UnOp::Abs => vec1(regs, w, doff, a, |x| mask_to(sext(x, sty).wrapping_abs() as u64, sty)),
        UnOp::Not if sty == STy::I1 => vec1(regs, w, doff, a, |x| (x & 1) ^ 1),
        UnOp::Not => vec1(regs, w, doff, a, |x| mask_to(!x, sty)),
        _ => {
            for i in 0..w {
                regs[doff + i] = scalar_un(op, sty, lane(regs, a, i))?;
            }
        }
    }
    Ok(())
}

/// Execute one warp through a decoded program, starting at µop 0.
///
/// `ctxs` must hold exactly `program.warp_size()` contexts, all waiting at
/// entry `entry_id`. On return the kernel's exit handlers have written
/// their `resume_point`s (a `Ret` without an explicit status terminates
/// the warp). `scratch` is reused across calls and allocates nothing once
/// grown (the program caches its slot count).
///
/// # Errors
///
/// Memory faults, division by zero, the instruction watchdog, the
/// wall-clock deadline and cancellation — the last two polled every
/// [`ExecLimits::check_interval`] instructions, terminators included.
///
/// # Panics
///
/// Panics if `ctxs.len() != program.warp_size()`.
#[allow(clippy::too_many_arguments)]
pub fn execute_warp_bytecode(
    program: &BytecodeProgram,
    scratch: &mut RegFrame,
    ctxs: &mut [ThreadContext],
    entry_id: i64,
    mem: &mut MemAccess<'_>,
    stats: &mut ExecStats,
    limits: &ExecLimits,
    cancel: Option<&CancelToken>,
) -> Result<WarpOutcome, VmError> {
    // The loop body is compiled twice: once generic, once with AVX2+FMA
    // enabled so `mul_add` lowers to a single `vfmadd` (instead of a
    // libm call) and the `[u64; 4]` chunk kernels widen to 256-bit
    // vectors. Both produce bit-identical results — hardware FMA and
    // libm `fma` are the same correctly-rounded IEEE operation — so the
    // pick is purely a host-speed decision, made per warp call from the
    // (cached) CPUID probe. Non-x86 hosts (e.g. aarch64, whose baseline
    // already includes fused multiply-add) always take the generic twin.
    #[cfg(target_arch = "x86_64")]
    let simd =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let simd = false;

    // Profiled warps run the same loop monomorphized over `UopCounts`;
    // the per-warp histogram lives on the stack and flushes to the
    // global profile in one call after the warp returns, so the loop
    // body itself touches no shared state.
    if dpvk_trace::profile::uop_enabled() {
        if let Some((kernel, variant)) = program.profile_key() {
            let mut counts = UopCounts::new();
            let result = dispatch(
                simd,
                program,
                scratch,
                ctxs,
                entry_id,
                mem,
                stats,
                limits,
                cancel,
                &mut counts,
            );
            dpvk_trace::profile::record_uops(&dpvk_trace::profile::UopSample {
                kernel,
                warp_size: program.warp_size,
                variant,
                path: if simd { "avx2" } else { "portable" },
                names: &UOP_NAMES,
                fused: &UOP_FUSED,
                hits: &counts.hits,
                cycles: &counts.cycles,
            });
            return result;
        }
    }
    dispatch(simd, program, scratch, ctxs, entry_id, mem, stats, limits, cancel, &mut NoProfile)
}

/// Route one warp call to the SIMD or portable twin of the loop.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn dispatch<P: UopSink>(
    simd: bool,
    program: &BytecodeProgram,
    scratch: &mut RegFrame,
    ctxs: &mut [ThreadContext],
    entry_id: i64,
    mem: &mut MemAccess<'_>,
    stats: &mut ExecStats,
    limits: &ExecLimits,
    cancel: Option<&CancelToken>,
    prof: &mut P,
) -> Result<WarpOutcome, VmError> {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: the caller verified AVX2 and FMA support at runtime.
        return unsafe {
            exec_loop_simd(program, scratch, ctxs, entry_id, mem, stats, limits, cancel, prof)
        };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    exec_loop(program, scratch, ctxs, entry_id, mem, stats, limits, cancel, prof)
}

/// The AVX2+FMA twin of [`exec_loop`]; see [`execute_warp_bytecode`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn exec_loop_simd<P: UopSink>(
    program: &BytecodeProgram,
    scratch: &mut RegFrame,
    ctxs: &mut [ThreadContext],
    entry_id: i64,
    mem: &mut MemAccess<'_>,
    stats: &mut ExecStats,
    limits: &ExecLimits,
    cancel: Option<&CancelToken>,
    prof: &mut P,
) -> Result<WarpOutcome, VmError> {
    exec_loop(program, scratch, ctxs, entry_id, mem, stats, limits, cancel, prof)
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn exec_loop<P: UopSink>(
    program: &BytecodeProgram,
    scratch: &mut RegFrame,
    ctxs: &mut [ThreadContext],
    entry_id: i64,
    mem: &mut MemAccess<'_>,
    stats: &mut ExecStats,
    limits: &ExecLimits,
    cancel: Option<&CancelToken>,
    prof: &mut P,
) -> Result<WarpOutcome, VmError> {
    assert_eq!(
        ctxs.len(),
        program.warp_size as usize,
        "warp size mismatch: {} contexts for a width-{} program",
        ctxs.len(),
        program.warp_size
    );
    stats.warp_entries += 1;
    stats.thread_entries += program.warp_size as u64;
    let poll = Poll::new(limits, cancel);
    let mut meter = Meter::new(limits, &poll);
    let mut status = STATUS_NONE;
    let mut w = Warp {
        regs: scratch.prepare_slots(program.slots, &program.entry_live),
        ctxs,
        mem,
        entry_id: mask_to(entry_id as u64, STy::I32),
        status: &mut status,
        meter: &mut meter,
        poll: &poll,
    };
    let result = run_blocks(program, &mut w, prof);
    meter.merge_into(stats);
    result
}

/// The bytecode engine proper: terminators here, every other µop
/// through [`step`].
#[inline(always)]
fn run_blocks<P: UopSink>(
    program: &BytecodeProgram,
    w: &mut Warp<'_, '_>,
    prof: &mut P,
) -> Result<WarpOutcome, VmError> {
    let code = program.code.as_slice();
    let mut pc: usize = 0;
    loop {
        let op = &code[pc];
        prof.note_op(&op.kind);
        match op.kind {
            OpKind::Br { target, term } => {
                w.meter.retire(term, w.poll, prof)?;
                pc = target as usize;
            }
            OpKind::CondBr { cond, taken, fall, term } => {
                w.meter.retire(term, w.poll, prof)?;
                let c = lane(w.regs, cond, 0);
                pc = if c & 1 != 0 { taken as usize } else { fall as usize };
            }
            OpKind::Switch { val, cases, default, term } => {
                w.meter.retire(term, w.poll, prof)?;
                let v = match val {
                    SwitchVal::Reg { slot, sty } => sext(w.regs[slot as usize], sty),
                    SwitchVal::Imm(i) => i,
                    SwitchVal::BadFloat => return Err(VmError::Unsupported("float switch".into())),
                };
                let (start, len) = cases;
                let tbl = &program.cases[start as usize..(start + len) as usize];
                pc = tbl
                    .iter()
                    .find(|(case, _)| *case == v)
                    .map(|&(_, t)| t as usize)
                    .unwrap_or(default as usize);
            }
            OpKind::Ret { term } => {
                w.meter.retire(term, w.poll, prof)?;
                let status = resume_status(*w.status);
                if status == ResumeStatus::Exit {
                    for c in w.ctxs.iter_mut() {
                        c.resume_point = dpvk_ir::EXIT_ENTRY_ID;
                    }
                }
                return Ok(WarpOutcome { status });
            }
            _ => {
                step(op, 0, w, prof)?;
                pc += 1;
            }
        }
    }
}

/// What [`step`] runs a µop against: the warp's registers, contexts and
/// memory, and the meter it charges — borrowed from the bytecode loop's
/// locals or from the JIT's environment block.
pub(crate) struct Warp<'a, 'm> {
    /// The register frame.
    pub regs: &'a mut [u64],
    /// The warp's thread contexts, one per lane.
    pub ctxs: &'a mut [ThreadContext],
    /// The CTA's memory spaces.
    pub mem: &'a mut MemAccess<'m>,
    /// The `EntryId` context value, `mask_to(entry_id, I32)`.
    pub entry_id: u64,
    /// The last `SetStatus` (a `STATUS_*` code).
    pub status: &'a mut u64,
    /// The accounting every µop charges.
    pub meter: &'a mut Meter,
    /// What the meter's due polls look at.
    pub poll: &'a Poll<'a>,
}

/// Thread-context field `field` as lane `l` reads it.
#[inline(always)]
fn ctx_field(w: &Warp<'_, '_>, field: CtxField, l: usize) -> u64 {
    let ctx = &w.ctxs[l.min(w.ctxs.len() - 1)];
    match field {
        CtxField::Tid(d) => ctx.tid[d as usize] as u64,
        CtxField::Ntid(d) => ctx.ntid[d as usize] as u64,
        CtxField::Ctaid(d) => ctx.ctaid[d as usize] as u64,
        CtxField::Nctaid(d) => ctx.nctaid[d as usize] as u64,
        CtxField::LocalBase => ctx.local_base,
        CtxField::LaneId => l as u64,
        CtxField::WarpSize => w.ctxs.len() as u64,
        CtxField::EntryId => w.entry_id,
    }
}

/// Run one non-terminator µop, charges included: the one definition of
/// each µop's effect, which the bytecode loop dispatches to and the
/// JIT's slow paths call. A lane run starts at component `from` (the
/// JIT resumes a run whose component failed its inline bounds check);
/// every other µop takes `from == 0`. An error leaves the registers,
/// memory and meter exactly as far as the µop got.
#[inline(always)]
pub(crate) fn step<P: UopSink>(
    op: &Op,
    from: u32,
    w: &mut Warp<'_, '_>,
    prof: &mut P,
) -> Result<(), VmError> {
    let regs = &mut *w.regs;
    match op.kind {
        OpKind::Bin { op: bop, sty, signed, w: n, dst, a, b } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            exec_bin(regs, bop, sty, signed, n, dst, a, b)?;
        }
        OpKind::Un { op: uop, sty, w: n, dst, a } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            exec_un(regs, uop, sty, n, dst, a)?;
        }
        OpKind::Fma { sty, w: n, dst, a, b, c } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            exec_fma(regs, sty, n, dst, a, b, c);
        }
        OpKind::Cmp { pred, sty, signed, w: n, dst, a, b } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            if n == 1 {
                let r = scalar_cmp(pred, sty, signed, lane(regs, a, 0), lane(regs, b, 0));
                set_bcast(regs, dst, r);
            } else {
                vec2(regs, n as usize, dst.off as usize, a, b, |x, y| {
                    scalar_cmp(pred, sty, signed, x, y)
                });
            }
        }
        OpKind::Select { w: n, dst, cond, a, b } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            if n == 1 {
                let r =
                    if lane(regs, cond, 0) & 1 != 0 { lane(regs, a, 0) } else { lane(regs, b, 0) };
                set_bcast(regs, dst, r);
            } else {
                vec3(regs, n as usize, dst.off as usize, cond, a, b, |c, x, y| {
                    if c & 1 != 0 {
                        x
                    } else {
                        y
                    }
                });
            }
        }
        OpKind::Cvt { to, from: src, signed, w: n, dst, a } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            if n == 1 {
                let r = scalar_cvt(to, src, signed, lane(regs, a, 0));
                set_bcast(regs, dst, r);
            } else {
                vec1(regs, n as usize, dst.off as usize, a, |x| scalar_cvt(to, src, signed, x));
            }
        }
        OpKind::Load { sty, space, dst, addr } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            let bits = w.mem.read(space, lane(regs, addr, 0), sty.size_bytes())?;
            set_bcast(regs, dst, mask_to(bits, sty));
        }
        OpKind::Store { sty, space, addr, value } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            let a = lane(regs, addr, 0);
            w.mem.write(space, a, sty.size_bytes(), lane(regs, value, 0))?;
        }
        OpKind::Atom { sty, space, op: akind, signed, dst, addr, a, b } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            let addr_v = lane(regs, addr, 0);
            let av = lane(regs, a, 0);
            let bv = b.map(|b| lane(regs, b, 0));
            let old = atom_rmw(w.mem, sty, space, akind, signed, addr_v, av, bv)?;
            set_bcast(regs, dst, mask_to(old, sty));
        }
        OpKind::Insert { w: n, dst, vec, elem, lane: l } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            let e = lane(regs, elem, 0);
            let doff = dst.off as usize;
            if let Some(v) = vec {
                for i in 0..n as usize {
                    regs[doff + i] = lane(regs, v, i);
                }
            }
            regs[doff + l as usize] = e;
        }
        OpKind::Extract { dst, vec, lane: l } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            let v = lane(regs, vec, l as usize);
            set_bcast(regs, dst, v);
        }
        OpKind::Splat { dst, a } | OpKind::MovScalar { dst, a } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            let v = lane(regs, a, 0);
            set_bcast(regs, dst, v);
        }
        OpKind::Reduce { op: rop, sty, w: n, dst, vec } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            let n = n as usize;
            let r = match rop {
                ReduceOp::Add => {
                    let mut sum: u64 = 0;
                    for i in 0..n {
                        sum = sum.wrapping_add(mask_to(lane(regs, vec, i), sty));
                    }
                    mask_to(sum, STy::I32)
                }
                ReduceOp::All => (0..n).all(|i| lane(regs, vec, i) & 1 != 0) as u64,
                ReduceOp::Any => (0..n).any(|i| lane(regs, vec, i) & 1 != 0) as u64,
            };
            set_bcast(regs, dst, r);
        }
        OpKind::CtxRead { field, lane: l, dst } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            let v = ctx_field(w, field, l as usize);
            set_bcast(w.regs, dst, v);
        }
        OpKind::SetRpImm { lane: l, id } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            w.ctxs[l as usize].resume_point = id;
        }
        OpKind::SetRpReg { lane: l, slot, sty } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            w.ctxs[l as usize].resume_point = sext(regs[slot as usize], sty);
        }
        OpKind::SetStatus { status } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            *w.status = status_code(status);
        }
        OpKind::Vote { dst, a } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            let v = lane(regs, a, 0);
            set_bcast(regs, dst, v & 1);
        }
        OpKind::MovVec { w: n, off, a } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            vec1(regs, n as usize, off as usize, a, |x| x);
        }
        OpKind::CopyRun { n, src, sstride, dst, prefill } => {
            for i in from as usize..n as usize {
                w.meter.charge(op.meta, w.poll, prof)?;
                let e = regs[src as usize + i * sstride as usize];
                if i == 0 {
                    // The first Insert of a pack copies its
                    // initializer vector before writing lane 0; the
                    // element is read first, exactly as unfused.
                    if let Some((v, vw)) = prefill {
                        for j in 0..vw as usize {
                            regs[dst as usize + j] = lane(regs, v, j);
                        }
                    }
                }
                regs[dst as usize + i] = e;
            }
        }
        OpKind::LoadRun { n, sty, space, addr, dst } => {
            let size = sty.size_bytes();
            for i in from as usize..n as usize {
                w.meter.charge(op.meta, w.poll, prof)?;
                let bits = w.mem.read(space, regs[addr as usize + i], size)?;
                regs[dst as usize + i] = mask_to(bits, sty);
            }
        }
        OpKind::StoreRun { n, sty, space, avec, atmp, val, vstride, smeta } => {
            let size = sty.size_bytes();
            for i in from as usize..n as usize {
                w.meter.charge(op.meta, w.poll, prof)?;
                let a = regs[avec as usize + i];
                regs[atmp as usize + i] = a;
                w.meter.charge(smeta, w.poll, prof)?;
                w.mem.write(space, a, size, regs[val as usize + i * vstride as usize])?;
            }
        }
        OpKind::CtxReadRun { field, n, dst } => {
            for i in from as usize..n as usize {
                w.meter.charge(op.meta, w.poll, prof)?;
                let v = ctx_field(w, field, i);
                w.regs[dst as usize + i] = v;
            }
        }
        OpKind::Unsupported { what } => {
            w.meter.charge(op.meta, w.poll, prof)?;
            return Err(VmError::Unsupported(what.to_string()));
        }
        OpKind::Br { .. } | OpKind::CondBr { .. } | OpKind::Switch { .. } | OpKind::Ret { .. } => {
            unreachable!("terminator µop routed to step")
        }
    }
    Ok(())
}

/// Element-wise FMA with the `sty` dispatch hoisted out of the lane
/// loop: the common types get monomorphized chunk kernels whose bodies
/// are exact transcriptions of [`fma_one`] for that type (f32 through
/// [`fused_mul_add_f32`], rounded once to f32).
#[inline(always)]
pub(crate) fn exec_fma(regs: &mut [u64], sty: STy, w: u32, dst: BDst, a: BSrc, b: BSrc, c: BSrc) {
    if w == 1 {
        let r = fma_one(sty, lane(regs, a, 0), lane(regs, b, 0), lane(regs, c, 0));
        set_bcast(regs, dst, r);
        return;
    }
    let w = w as usize;
    let doff = dst.off as usize;
    match sty {
        STy::F32 => vec3(regs, w, doff, a, b, c, |x, y, z| {
            let f = |v: u64| f32::from_bits(v as u32);
            fused_mul_add_f32(f(x), f(y), f(z)).to_bits() as u64
        }),
        STy::F64 => vec3(regs, w, doff, a, b, c, |x, y, z| {
            fused_mul_add(f64::from_bits(x), f64::from_bits(y), f64::from_bits(z)).to_bits()
        }),
        STy::I32 => vec3(regs, w, doff, a, b, c, |x, y, z| {
            let r = (x as i32 as i64).wrapping_mul(y as i32 as i64).wrapping_add(z as i32 as i64);
            r as u64 & 0xFFFF_FFFF
        }),
        STy::I64 => vec3(regs, w, doff, a, b, c, |x, y, z| {
            (x as i64).wrapping_mul(y as i64).wrapping_add(z as i64) as u64
        }),
        _ => vec3(regs, w, doff, a, b, c, |x, y, z| fma_one(sty, x, y, z)),
    }
}

/// One FMA lane: floats through [`fused_mul_add_f32`] or
/// [`fused_mul_add`], integers wrap.
#[inline(always)]
pub(crate) fn fma_one(sty: STy, x: u64, y: u64, z: u64) -> u64 {
    if sty == STy::F32 {
        let f = |v: u64| f32::from_bits(v as u32);
        fused_mul_add_f32(f(x), f(y), f(z)).to_bits() as u64
    } else if sty.is_float() {
        f_enc(fused_mul_add(f_of(x, sty), f_of(y, sty), f_of(z, sty)), sty)
    } else {
        let r = sext(x, sty).wrapping_mul(sext(y, sty)).wrapping_add(sext(z, sty));
        mask_to(r as u64, sty)
    }
}

#[cfg(test)]
pub(crate) mod tests;
