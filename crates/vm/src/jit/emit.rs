//! The copy-and-patch template emitter: lowers a validated
//! [`BytecodeProgram`] to straight-line x86-64, one template per µop,
//! with operands patched to register-frame displacements and branch
//! targets fixed up to block entry offsets.
//!
//! Fidelity contract: a warp call through generated code is
//! indistinguishable from one through the bytecode interpreter — lane
//! values funnel through the same masking/sign-extension rules, every
//! [`ExecStats`](crate::ExecStats) field ends up the same on success
//! and on error, and the watchdog trips and the deadline/cancellation
//! poll fires on the same dynamic instruction counts. The interpreter's
//! per-µop `tick!`/`charge!` is the definition of that accounting;
//! generated code reaches the same totals per *basic block*:
//!
//! * Each block opens with one header. It compares `executed` plus the
//!   ticks of all the block's µops against the watchdog limit and the
//!   next poll; when neither lies inside the block no tick in it can
//!   have an effect, so the header adds the block's summed charges
//!   (ticks, cycles, flops, load/store/spill/restore counters — one
//!   `add` per non-zero sum, computed by [`block_charges`]) and the
//!   templates that follow carry no accounting at all. Terminators keep
//!   their own tick and retire, so pure-branch loops still poll.
//! * When the limit or a poll does lie inside the block, the header
//!   calls [`jit_block_slow`]. Polls that would find neither a
//!   cancelled token nor a passed deadline only move `next_poll`; the
//!   helper moves it and native code carries on with the header's
//!   charge. Otherwise something stops the warp at an instruction of
//!   this block, and the helper steps the block µop by µop, with the
//!   interpreter's accounting, to exactly that instruction.
//! * µop shapes without a template (float atomics, division, f64
//!   transcendentals, wide vectors; [`has_inline_template`] is the one
//!   predicate) call
//!   [`jit_step`], which runs the whole µop through the interpreter's
//!   own helpers, charge included — the header leaves them out of its
//!   sums. Memory templates bounds-check inline and take the same
//!   helper when the access would fault; the helper first takes back
//!   the header's charge for that µop, then charges and errors exactly
//!   as interpreted. A helper that fails also takes back the header's
//!   charge for the µops after it, which never run.
//!
//! Float µops run as **chunks**: a µop of width `w` is `⌈w/2⌉` chunks
//! of at most two of the frame's `u64` slots, each held in one xmm
//! register, and a scalar float µop is a one-lane chunk of the same
//! code; vector copies and broadcast fills move chunks too. Integer
//! µops compute in GPRs, lane by lane (DESIGN.md, "Native JIT tier",
//! has the measurement that left them there). Three rules, each
//! measured there and each enforced by what [`Asm`] offers:
//!
//! * **R1** — an operand load from the frame is never wider than a
//!   lane. Vector registers are assembled with 8-byte stores (`Insert`,
//!   the runs, every restore); a 16-byte load spanning several of them
//!   cannot store-forward and waits for them to retire.
//! * **R2** — a result is stored with one 16-byte store per chunk,
//!   broadcast fills of scalar results included.
//! * **R3** — no 256-bit instruction: upper halves are never dirtied,
//!   so nothing needs a `vzeroupper` and the Rust runtime around
//!   generated code never pays a transition.
//!
//! Inside a basic block, values stay in registers (`jit/resident.rs`):
//! an operand an earlier template of the block loaded or computed is
//! read from the pool register that still holds it, keyed by the slots
//! it came from, the chunk, and its form — the slot layout, the f64
//! widening of f32 lanes, a broadcast scalar slot, an immediate. Every
//! result is still stored to the frame (write-through), so the frame
//! always holds what the interpreter's would, and nothing is ever
//! flushed. What that costs is invalidation:
//!
//! * the table is empty at every block header (several predecessors);
//! * every frame store (`Emitter::put`, `Emitter::put_chunk`) drops
//!   the values read from the slots it writes;
//! * a call on the main path (a helper-only µop's [`jit_step`]) empties
//!   the table: it clobbers every xmm register and may write the frame;
//! * a template's slow site — out of line, after the blocks — makes its
//!   call and then reloads from the frame every register the table holds
//!   where it rejoins the fast path (a refill), so the fast path keeps
//!   its residency.
//!
//! Register conventions inside generated code:
//!   r15 = &JitEnv      rbx = register-frame base
//!   rbp = unused; saved only to keep rsp 16-aligned at helper calls
//!   rax/rcx/rdx/rsi/rdi/r11 = scratch
//!   xmm0 = scratch of one template (a GPR result's chunk); xmm1 unused
//!   xmm2-15 = the residency pool: operands and float results, LRU-evicted

use std::mem::offset_of;

use dpvk_ir::{AtomKind, BinOp, CmpPred, CtxField, ReduceOp, ResumeStatus, STy, Space, UnOp};

use crate::approx::{self, Domain};
use crate::bytecode::{BDst, BSrc, BytecodeProgram, OpKind, SwitchVal, TermInfo};
use crate::context::ThreadContext;
use crate::jit::asm::*;
use crate::jit::resident::{Held, Residency, Word};
use crate::jit::rt::{
    block_charges, jit_block_slow, jit_f2i, jit_fail, jit_poll, jit_run_from, jit_step, JitEnv,
    FAIL_FLOAT_SWITCH, FAIL_WATCHDOG, STATUS_BARRIER, STATUS_BRANCH, STATUS_EXIT,
};
use crate::semantics::f_of;

/// Widest vector µop lowered inline — four chunks for a float shape,
/// eight lanes for an integer one; wider ops fall back to the
/// [`jit_step`] helper. Benchmarks run dynamic-width warps of at most 4
/// lanes, so 8 covers everything hot with bounded code size.
pub(crate) const VEC_INLINE_MAX: u32 = 8;

/// Emission counters surfaced through the trace layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct JitEmitStats {
    /// Bytes of executable code emitted.
    pub code_bytes: u64,
    /// Static µops lowered to inline templates.
    pub template_uops: u64,
    /// Static µops routed to the interpreter-helper fallback.
    pub helper_uops: u64,
    /// The subset of `helper_uops` that fell back *solely* because the
    /// µop's vector width exceeds [`VEC_INLINE_MAX`] — the shape itself
    /// has an inline template. A specialization with a high wide share
    /// pays helper-call overhead per dynamic µop, which the adaptive
    /// width policy observes as inflated cycles at that width.
    pub wide_helper_uops: u64,
    /// Operand reads served by a register an earlier template of the
    /// same block left the value in, instead of by frame loads.
    pub resident_reads: u64,
    /// Registers reloaded from the frame at slow sites, after a call
    /// that clobbered them, so the fast path keeps its residency.
    pub refills: u64,
}

// JitEnv field displacements, resolved at compile time from the
// `repr(C)` layout.
const ENV_REGS: i32 = offset_of!(JitEnv, regs) as i32;
const ENV_EXECUTED: i32 = offset_of!(JitEnv, executed) as i32;
const ENV_MAX_INSTRUCTIONS: i32 = offset_of!(JitEnv, max_instructions) as i32;
const ENV_NEXT_POLL: i32 = offset_of!(JitEnv, next_poll) as i32;
const ENV_CYCLES: i32 = offset_of!(JitEnv, cycles) as i32;
const ENV_INSTRUCTIONS: i32 = offset_of!(JitEnv, instructions) as i32;
const ENV_FLOPS: i32 = offset_of!(JitEnv, flops) as i32;
const ENV_LOADS: i32 = offset_of!(JitEnv, loads) as i32;
const ENV_STORES: i32 = offset_of!(JitEnv, stores) as i32;
const ENV_RESTORE_LOADS: i32 = offset_of!(JitEnv, restore_loads) as i32;
const ENV_RESTORE_BYTES: i32 = offset_of!(JitEnv, restore_bytes) as i32;
const ENV_SPILL_STORES: i32 = offset_of!(JitEnv, spill_stores) as i32;
const ENV_SPILL_BYTES: i32 = offset_of!(JitEnv, spill_bytes) as i32;
const ENV_CYCLES_BODY: i32 = offset_of!(JitEnv, cycles_body) as i32;
const ENV_CYCLES_YIELD: i32 = offset_of!(JitEnv, cycles_yield) as i32;
const ENV_STATUS: i32 = offset_of!(JitEnv, status) as i32;
const ENV_ENTRY_ID_MASKED: i32 = offset_of!(JitEnv, entry_id_masked) as i32;
const ENV_CTXS: i32 = offset_of!(JitEnv, ctxs) as i32;
const ENV_GLOBAL_BASE: i32 = offset_of!(JitEnv, global_base) as i32;
const ENV_GLOBAL_LEN: i32 = offset_of!(JitEnv, global_len) as i32;
const ENV_SHARED_BASE: i32 = offset_of!(JitEnv, shared_base) as i32;
const ENV_SHARED_LEN: i32 = offset_of!(JitEnv, shared_len) as i32;
const ENV_LOCAL_BASE: i32 = offset_of!(JitEnv, local_base) as i32;
const ENV_LOCAL_LEN: i32 = offset_of!(JitEnv, local_len) as i32;
const ENV_PARAM_BASE: i32 = offset_of!(JitEnv, param_base) as i32;
const ENV_PARAM_LEN: i32 = offset_of!(JitEnv, param_len) as i32;
const ENV_CONST_BASE: i32 = offset_of!(JitEnv, const_base) as i32;
const ENV_CONST_LEN: i32 = offset_of!(JitEnv, const_len) as i32;

// ThreadContext field displacements (also `repr(C)`).
const CTX_SIZE: i32 = std::mem::size_of::<ThreadContext>() as i32;
const CTX_TID: i32 = offset_of!(ThreadContext, tid) as i32;
const CTX_NTID: i32 = offset_of!(ThreadContext, ntid) as i32;
const CTX_CTAID: i32 = offset_of!(ThreadContext, ctaid) as i32;
const CTX_NCTAID: i32 = offset_of!(ThreadContext, nctaid) as i32;
const CTX_LOCAL_BASE: i32 = offset_of!(ThreadContext, local_base) as i32;
const CTX_RESUME_POINT: i32 = offset_of!(ThreadContext, resume_point) as i32;

const SIGN_BIT: u64 = 0x8000_0000_0000_0000;

fn addr_poll() -> u64 {
    jit_poll as unsafe extern "C" fn(*mut JitEnv) -> u32 as usize as u64
}
fn addr_fail() -> u64 {
    jit_fail as unsafe extern "C" fn(*mut JitEnv, u32) -> u32 as usize as u64
}
fn addr_step() -> u64 {
    jit_step as unsafe extern "C" fn(*mut JitEnv, u32) -> u32 as usize as u64
}
fn addr_run_from() -> u64 {
    jit_run_from as unsafe extern "C" fn(*mut JitEnv, u32, u32) -> u32 as usize as u64
}
fn addr_block_slow() -> u64 {
    jit_block_slow as unsafe extern "C" fn(*mut JitEnv, u32) -> u32 as usize as u64
}
fn addr_f2i() -> u64 {
    jit_f2i as unsafe extern "C" fn(u64, u32, u32) -> u64 as usize as u64
}

/// Emit the whole program. Returns `None` when a structural limit rules
/// out code generation (frame too large for disp32 addressing, or a
/// block whose summed charges overflow an imm32).
pub(crate) fn emit_program(program: &BytecodeProgram) -> Option<(Vec<u8>, JitEmitStats)> {
    // Frame-slot and context displacements must fit disp32.
    let max_slot_disp = (program.slots as u64 + 64) * 8;
    let max_ctx_disp = program.warp_size as u64 * CTX_SIZE as u64 + 64;
    if max_slot_disp > i32::MAX as u64 || max_ctx_disp > i32::MAX as u64 {
        return None;
    }
    let mut e = Emitter {
        asm: Asm::new(),
        program,
        uop_start: Vec::with_capacity(program.code.len()),
        branch_fixups: Vec::new(),
        slow_blocks: Vec::new(),
        watchdog_fixups: Vec::new(),
        badfloat_fixups: Vec::new(),
        err_fixups: Vec::new(),
        ok_fixups: Vec::new(),
        slow_sites: Vec::new(),
        refills: Vec::new(),
        consts: Vec::new(),
        const_fixups: Vec::new(),
        res: Residency::default(),
        stats: JitEmitStats::default(),
    };
    e.prologue();
    let mut block_start = true;
    for (idx, op) in program.code.iter().enumerate() {
        e.uop_start.push(e.asm.here());
        if block_start {
            // Entered from several predecessors: nothing is resident.
            e.res.clear();
            e.block_header(idx as u32)?;
        }
        e.emit_op(idx as u32);
        block_start = op.is_terminator();
    }
    e.finish();
    let mut stats = e.stats;
    let code = e.asm.into_code();
    stats.code_bytes = code.len() as u64;
    Some((code, stats))
}

/// Space-specific env fields: (base offset, len offset, writable).
fn space_offsets(space: Space) -> (i32, i32, bool) {
    match space {
        Space::Global => (ENV_GLOBAL_BASE, ENV_GLOBAL_LEN, true),
        Space::Shared => (ENV_SHARED_BASE, ENV_SHARED_LEN, true),
        Space::Local | Space::Spill => (ENV_LOCAL_BASE, ENV_LOCAL_LEN, true),
        Space::Param => (ENV_PARAM_BASE, ENV_PARAM_LEN, false),
        Space::Const => (ENV_CONST_BASE, ENV_CONST_LEN, false),
    }
}

/// Whether an integer `Bin` op has an inline template.
fn int_bin_ok(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add
            | BinOp::Sub
            | BinOp::Mul
            | BinOp::And
            | BinOp::Or
            | BinOp::Xor
            | BinOp::Shl
            | BinOp::Shr
            | BinOp::Min
            | BinOp::Max
    )
}

/// Whether a float `Bin` op has an inline template. `Min`/`Max` stay on
/// the helper: Rust `f64::min` prefers the non-NaN operand, `minsd`
/// does not.
fn float_bin_ok(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

fn bin_ok(op: BinOp, sty: STy) -> bool {
    if sty.is_float() {
        float_bin_ok(op)
    } else {
        int_bin_ok(op)
    }
}

fn un_ok(op: UnOp, sty: STy) -> bool {
    if sty.is_float() {
        matches!(op, UnOp::Neg | UnOp::Abs | UnOp::Sqrt | UnOp::Rsqrt | UnOp::Rcp)
            || (sty == STy::F32 && approx::is_transcendental(op))
    } else {
        matches!(op, UnOp::Neg | UnOp::Not | UnOp::Abs)
    }
}

/// Whether a `Cvt` has an inline template. The one exclusion is
/// unsigned i64 → float, whose u64 rounding `cvtsi2sd` cannot express.
fn cvt_ok(to: STy, from: STy, signed: bool) -> bool {
    !(to.is_float() && from == STy::I64 && !signed)
}

/// Whether a `bin_ok` shape is float arithmetic, which runs as chunks;
/// bitwise operations on a float type compute in GPRs like the
/// integers'.
fn float_arith(op: BinOp, sty: STy) -> bool {
    sty.is_float() && !matches!(op, BinOp::And | BinOp::Or | BinOp::Xor)
}

/// `(first lane, lanes)` of each chunk of a width-`w` µop.
fn chunks(w: u32) -> impl Iterator<Item = (u32, u32)> {
    (0..w).step_by(2).map(move |i| (i, (w - i).min(2)))
}

/// Whether an atomic has a template: 32- and 64-bit integers in a
/// writable data space. Float atomics, narrow integers (which global
/// memory rejects) and the read-only spaces (which only fault) do not.
fn atom_ok(sty: STy, space: Space) -> bool {
    matches!(sty, STy::I32 | STy::I64) && space_offsets(space).2
}

/// Whether the µop's shape has an inline template at some width:
/// float and narrow atomics, integer division, f64 transcendentals,
/// float min/max, unsigned i64 → float and stores to read-only spaces
/// (which only ever fault) do not.
fn shape_has_template(kind: &OpKind) -> bool {
    match *kind {
        OpKind::Bin { op, sty, .. } => bin_ok(op, sty),
        OpKind::Un { op, sty, .. } => un_ok(op, sty),
        OpKind::Cvt { to, from, signed, .. } => cvt_ok(to, from, signed),
        OpKind::Store { space, .. } | OpKind::StoreRun { space, .. } => space_offsets(space).2,
        OpKind::Atom { sty, space, .. } => atom_ok(sty, space),
        OpKind::Unsupported { .. } => false,
        _ => true,
    }
}

/// Whether generated code runs the µop from an inline template (true)
/// or through the [`jit_step`] helper (false). A pure function of the
/// µop: the emitter picks the lowering by it, the block header sums the
/// charges of exactly the µops it admits ([`block_charges`]), and the
/// helpers tell a template's slow site from a helper-only µop by it.
pub(crate) fn has_inline_template(kind: &OpKind) -> bool {
    shape_has_template(kind) && kind.lanes() <= VEC_INLINE_MAX
}

/// Frame displacement of lane `i` of the register starting at `slot`.
fn disp(slot: u32, i: u32) -> i32 {
    ((slot + i) * 8) as i32
}

struct Emitter<'p> {
    asm: Asm,
    program: &'p BytecodeProgram,
    /// Code offset of each µop (branch-fixup targets); for a block's
    /// first µop, its header.
    uop_start: Vec<usize>,
    /// (fixup, target µop index) pairs patched once all µops are placed.
    branch_fixups: Vec<(Fixup, u32)>,
    /// Headers' exits to [`jit_block_slow`]: the two branches, the
    /// block's first µop, and where the header's charge begins.
    slow_blocks: Vec<([Fixup; 2], u32, usize)>,
    watchdog_fixups: Vec<Fixup>,
    badfloat_fixups: Vec<Fixup>,
    err_fixups: Vec<Fixup>,
    ok_fixups: Vec<Fixup>,
    /// Templates' out-of-line slow sites, emitted by `finish`.
    slow_sites: Vec<SlowSite>,
    /// What the slow sites reload, each site a range of it.
    refills: Vec<(Held, u8)>,
    /// The constant pool emitted after the code, one 16-byte entry
    /// (the value in both qwords) per distinct value, and the operands
    /// that read it.
    consts: Vec<u64>,
    const_fixups: Vec<(RipFixup, usize)>,
    /// Which pool register holds which frame value in the current block.
    res: Residency,
    stats: JitEmitStats,
}

/// What a template's slow site calls before it rejoins the fast path.
enum SlowCall {
    /// Re-run µop `idx` in [`jit_step`] (a failed bounds check).
    Step(u32),
    /// Finish run µop `idx` from a component in [`jit_run_from`].
    RunFrom(u32, u32),
    /// Convert the f64 lane in xmm `x` in [`jit_f2i`] (overflow or NaN).
    F2i { x: u8, to: STy, signed: bool },
}

/// An out-of-line slow site: the fast path's branches to it, the call,
/// the registers to reload after it (a range of `Emitter::refills`),
/// and where it rejoins.
struct SlowSite {
    from: Vec<Fixup>,
    call: SlowCall,
    refill: std::ops::Range<usize>,
    back: usize,
}

impl Emitter<'_> {
    fn prologue(&mut self) {
        let a = &mut self.asm;
        a.push(RBP);
        a.push(RBX);
        a.push(R15);
        // Three pushes after the call's return address leave rsp
        // 16-aligned at every helper call site below.
        a.mov_rr(R15, RDI);
        a.load(RBX, R15, ENV_REGS);
    }

    /// Open the basic block starting at µop `first`: unless the
    /// watchdog limit or the next poll lies within the block's ticks —
    /// then [`jit_block_slow`] decides first — charge all its templated
    /// µops at once. `None` when a sum does not fit an imm32.
    fn block_header(&mut self, first: u32) -> Option<()> {
        let (bound, pre) = block_charges(&self.program.code, first as usize);
        if bound == 0 {
            // A bare terminator: nothing to check, nothing to charge.
            return Some(());
        }
        let imm = |v: u64| i32::try_from(v).ok();
        let a = &mut self.asm;
        a.load(RAX, R15, ENV_EXECUTED);
        a.alu_ri(Alu::Add, RAX, imm(bound)?);
        a.alu_rm(Alu::Cmp, RAX, R15, ENV_MAX_INSTRUCTIONS);
        let watchdog = a.jcc_fwd(Cc::A);
        a.alu_rm(Alu::Cmp, RAX, R15, ENV_NEXT_POLL);
        let poll = a.jcc_fwd(Cc::Ae);
        self.slow_blocks.push(([watchdog, poll], first, a.here()));
        for (field, sum) in [
            (ENV_EXECUTED, pre.ticks),
            (ENV_CYCLES, pre.cost),
            (ENV_FLOPS, pre.flops),
            (ENV_LOADS, pre.loads),
            (ENV_STORES, pre.stores),
            (ENV_RESTORE_LOADS, pre.restore_loads),
            (ENV_RESTORE_BYTES, pre.restore_bytes),
            (ENV_SPILL_STORES, pre.spill_stores),
            (ENV_SPILL_BYTES, pre.spill_bytes),
        ] {
            if sum != 0 {
                a.alu_mi(Alu::Add, R15, field, imm(sum)?);
            }
        }
        Some(())
    }

    /// The interpreter's `tick!`, kept by terminators: bump `executed`,
    /// trip the watchdog, poll cancel/deadline when the counter crosses
    /// `next_poll`.
    fn tick(&mut self) {
        let a = &mut self.asm;
        a.load(RAX, R15, ENV_EXECUTED);
        a.alu_ri(Alu::Add, RAX, 1);
        a.store(R15, ENV_EXECUTED, RAX);
        a.alu_rm(Alu::Cmp, RAX, R15, ENV_MAX_INSTRUCTIONS);
        let wd = a.jcc_fwd(Cc::A);
        self.watchdog_fixups.push(wd);
        let a = &mut self.asm;
        a.alu_rm(Alu::Cmp, RAX, R15, ENV_NEXT_POLL);
        let skip = a.jcc_fwd(Cc::B);
        a.mov_rr(RDI, R15);
        a.mov_ri(R11, addr_poll());
        a.call_reg(R11);
        a.test_rr32(RAX, RAX);
        let err = a.jcc_fwd(Cc::Ne);
        self.err_fixups.push(err);
        self.asm.bind(skip);
    }

    /// The interpreter's `retire_block!`: terminator cost joins the
    /// running block cycles *before* the tick so a watchdog trip
    /// discards them exactly as the interpreter does, then the block's
    /// cycles flush to the body/yield bucket.
    fn retire(&mut self, term: TermInfo) {
        if term.cost != 0 {
            self.asm.alu_mi(Alu::Add, R15, ENV_CYCLES, term.cost as i32);
        }
        self.tick();
        let a = &mut self.asm;
        if term.insts != 0 {
            a.alu_mi(Alu::Add, R15, ENV_INSTRUCTIONS, term.insts as i32);
        }
        a.load(RAX, R15, ENV_CYCLES);
        let bucket = if term.overhead { ENV_CYCLES_YIELD } else { ENV_CYCLES_BODY };
        a.alu_mr(Alu::Add, R15, bucket, RAX);
        a.store_imm(R15, ENV_CYCLES, 0);
    }

    /// Call `helper(env, idx)` and leave through the error exit when it
    /// returns nonzero.
    fn call_helper(&mut self, helper: u64, idx: u32) {
        let a = &mut self.asm;
        a.mov_rr(RDI, R15);
        a.mov_ri(RSI, idx as u64);
        a.mov_ri(R11, helper);
        a.call_reg(R11);
        a.test_rr32(RAX, RAX);
        let err = a.jcc_fwd(Cc::Ne);
        self.err_fixups.push(err);
    }

    /// Call `jit_step(env, idx)`: the full-µop interpreter fallback.
    fn call_step(&mut self, idx: u32) {
        self.call_helper(addr_step(), idx);
    }

    /// Call `jit_run_from(env, idx, comp)`: resume a run µop at a
    /// component whose inline bounds check failed.
    fn call_run_from(&mut self, idx: u32, comp: u32) {
        let a = &mut self.asm;
        a.mov_rr(RDI, R15);
        a.mov_ri(RSI, idx as u64);
        a.mov_ri(RDX, comp as u64);
        a.mov_ri(R11, addr_run_from());
        a.call_reg(R11);
        a.test_rr32(RAX, RAX);
        let err = a.jcc_fwd(Cc::Ne);
        self.err_fixups.push(err);
    }

    /// Load operand lane `i` into GPR `r` (`lane()` of the interpreter:
    /// `Slot` broadcasts, `Lanes` indexes).
    fn load_src(&mut self, r: u8, src: BSrc, i: u32) {
        match src {
            BSrc::Imm(v) => self.asm.mov_ri(r, v),
            BSrc::Slot(s) => self.asm.load(r, RBX, disp(s, 0)),
            BSrc::Lanes(s) => self.asm.load(r, RBX, disp(s, i)),
        }
    }

    /// Store GPR `r` to frame slot `slot`. Every frame write of a
    /// template goes through here or [`Self::put_chunk`], which drop
    /// what the write makes stale from the residency table.
    fn put(&mut self, slot: u32, r: u8) {
        self.asm.store(RBX, disp(slot, 0), r);
        self.res.clobber(slot, slot + 1);
    }

    /// Store the `n`-lane chunk in `x` to the slots from `slot` (R2).
    fn put_chunk(&mut self, slot: u32, x: u8, n: u32) {
        self.asm.vstore(RBX, disp(slot, 0), x, n);
        self.res.clobber(slot, slot + n);
    }

    /// Broadcast-fill all `w` declared slots of `dst` from `r`
    /// (`set_bcast`); clobbers XMM0 when the register is a vector.
    fn store_bcast(&mut self, dst: BDst, r: u8) {
        if dst.w == 1 {
            return self.put(dst.off, r);
        }
        self.asm.vop(VMOVQ_XR, XMM0, 0, r);
        self.write_chunk(dst, 1, 0, 1, XMM0);
    }

    /// Write the `n`-lane chunk in `x`, one store per chunk (R2): a
    /// vector µop writes lanes `i..` only, a scalar µop broadcast-fills
    /// every declared slot. Returns what `x` then holds.
    fn write_chunk(&mut self, dst: BDst, w: u32, i: u32, n: u32, x: u8) -> Held {
        if w > 1 {
            self.put_chunk(dst.off + i, x, n);
            return Held::chunk(dst.off + i, n);
        }
        if dst.w > 1 {
            self.asm.vop(VMOVDDUP, x, 0, x);
        }
        for (j, m) in chunks(dst.w) {
            self.put_chunk(dst.off + j, x, m);
        }
        let lo = Word::Slot(dst.off);
        Held { lo, hi: (dst.w > 1).then_some(lo), wide: false }
    }

    /// Run `body` over every chunk of a width-`w` µop; it returns the
    /// pool register it left the result in, which stays resident.
    fn each_chunk(&mut self, dst: BDst, w: u32, body: impl Fn(&mut Self, u32, u32) -> u8) {
        for (i, n) in chunks(w) {
            self.res.unpin();
            let x = body(self, i, n);
            let held = self.write_chunk(dst, w, i, n, x);
            self.res.record(held, x);
        }
    }

    /// Copy `w` lanes of `src` — a scalar broadcasts — to the slots
    /// from `off`, chunk by chunk; the copies stay resident.
    fn copy_vec(&mut self, off: u32, src: BSrc, w: u32) {
        for (i, n) in chunks(w) {
            self.res.unpin();
            let x = self.operand(src, i, n, false);
            self.put_chunk(off + i, x, n);
            self.res.record(Held::chunk(off + i, n), x);
        }
    }

    /// A register holding lanes `i..i + n` of an operand on the slot
    /// layout — scalar operands broadcast — or, with `wide`, the f64
    /// widening of those f32 lanes (`f_of`). Read from the residency
    /// table when an earlier template of the block left it in a
    /// register; otherwise loaded into a pool register, lane-wide (R1),
    /// and entered in the table.
    fn operand(&mut self, src: BSrc, i: u32, n: u32, wide: bool) -> u8 {
        self.fetch(src, i, n, wide).0
    }

    /// [`Self::operand`], and whether the value was resident (`false`:
    /// this call loaded or widened it into a register of its own).
    fn fetch(&mut self, src: BSrc, i: u32, n: u32, wide: bool) -> (u8, bool) {
        let (lo, hi) = match src {
            BSrc::Imm(v) => (Word::Imm(v), Word::Imm(v)),
            BSrc::Slot(s) => (Word::Slot(s), Word::Slot(s)),
            BSrc::Lanes(s) => (Word::Slot(s + i), Word::Slot(s + i + 1)),
        };
        let want = Held { lo, hi: (n == 2).then_some(hi), wide };
        if let Some(x) = self.res.find(want) {
            self.stats.resident_reads += 1;
            return (x, true);
        }
        if wide {
            // The f32 lanes themselves may be resident: widen them in
            // registers instead of reloading them.
            let dup = want.hi == Some(lo);
            let slots = Held { hi: if dup { None } else { want.hi }, wide: false, ..want };
            if let Some(r) = self.res.find(slots) {
                self.stats.resident_reads += 1;
                let x = self.res.alloc();
                if dup || want.hi.is_none() {
                    self.asm.vop(VCVTPS2PD, x, 0, r);
                    if dup {
                        self.asm.vop(VMOVDDUP, x, 0, x);
                    }
                } else {
                    // Slot layout [a, 0, b, 0] → [a, b, …].
                    self.asm.vop_i(VPSHUFD, x, 0, r, 0b1000);
                    self.asm.vop(VCVTPS2PD, x, 0, x);
                }
                self.res.record(want, x);
                return (x, false);
            }
        }
        let x = self.res.alloc();
        self.load_held(x, want, RAX);
        self.res.record(want, x);
        (x, false)
    }

    /// [`Self::operand`] as f64 (`f_of`): f32 lanes widen, f32
    /// immediates widen here.
    fn operand_f64(&mut self, src: BSrc, i: u32, n: u32, sty: STy) -> u8 {
        self.fetch_f64(src, i, n, sty).0
    }

    /// [`Self::fetch`] as f64.
    fn fetch_f64(&mut self, src: BSrc, i: u32, n: u32, sty: STy) -> (u8, bool) {
        match src {
            BSrc::Imm(v) => self.fetch(BSrc::Imm(f_of(v, sty).to_bits()), i, n, false),
            _ => self.fetch(src, i, n, sty == STy::F32),
        }
    }

    /// Load `h` from the frame (or `tmp` for an immediate) into `x`,
    /// each load no wider than a lane (R1). f32 lanes pack through
    /// `vmovd`/`vpinsrd` and widen in `vcvtps2pd`, which quiets an sNaN
    /// exactly like Rust `as f64`.
    fn load_held(&mut self, x: u8, h: Held, tmp: u8) {
        let a = &mut self.asm;
        match (h.lo, h.hi) {
            (Word::Imm(v), hi) => {
                a.mov_ri(tmp, v);
                a.vop(VMOVQ_XR, x, 0, tmp);
                if hi.is_some() {
                    a.vop(VMOVDDUP, x, 0, x);
                }
            }
            (Word::Slot(s), Some(Word::Slot(t))) if t != s => {
                a.vload_lane(x, RBX, disp(s, 0), h.wide);
                a.vinsert_lane(x, RBX, disp(t, 0), h.wide);
                if h.wide {
                    a.vop(VCVTPS2PD, x, 0, x);
                }
            }
            (Word::Slot(s), hi) if h.wide => {
                // The slot's zero upper dword widens to a 0.0 nobody reads.
                a.vload_lane(x, RBX, disp(s, 0), false);
                a.vop(VCVTPS2PD, x, 0, x);
                if hi.is_some() {
                    a.vop(VMOVDDUP, x, 0, x);
                }
            }
            (Word::Slot(s), Some(_)) => a.vload_dup(x, RBX, disp(s, 0)),
            (Word::Slot(s), None) => a.vload_lane(x, RBX, disp(s, 0), false),
        }
    }

    /// Encode the f64 chunk in `src` back to `sty` on the slot layout
    /// (`f_enc`) — narrow into `x`, then spread the two f32 over their
    /// slots — and return the register holding it.
    fn narrow_chunk(&mut self, x: u8, src: u8, sty: STy) -> u8 {
        if sty != STy::F32 {
            return src;
        }
        self.asm.vop(VCVTPD2PS, x, 0, src);
        self.asm.vop(VPMOVZXDQ, x, 0, x);
        x
    }

    /// Sign-extend the `sty`-masked value in `r` to 64 bits (`sext`).
    fn sext_reg(&mut self, r: u8, sty: STy) {
        match sty.bits() {
            1 => {
                self.asm.alu_ri(Alu::And, r, 1);
                self.asm.neg(r);
            }
            8 => self.asm.movsx_rr(r, r, 1),
            16 => self.asm.movsx_rr(r, r, 2),
            32 => self.asm.movsx_rr(r, r, 4),
            _ => {}
        }
    }

    /// Re-establish the masked-storage invariant on `r` (`mask_to`).
    fn mask_reg(&mut self, r: u8, sty: STy) {
        match sty.bits() {
            1 => self.asm.alu_ri(Alu::And, r, 1),
            8 => self.asm.movzx_rr(r, r, 1),
            16 => self.asm.movzx_rr(r, r, 2),
            32 => self.asm.mov_rr32(r, r),
            _ => {}
        }
    }

    /// Write a computed lane: scalar µops broadcast-fill, vector µops
    /// write lane `i` only.
    fn write_lane(&mut self, dst: BDst, w: u32, i: u32, r: u8) {
        if w == 1 {
            self.store_bcast(dst, r);
        } else {
            self.put(dst.off + i, r);
        }
    }

    /// Run `body` over every lane of a width-`w` µop that computes in
    /// GPRs; it leaves each result in RAX.
    fn each_lane(&mut self, dst: BDst, w: u32, body: impl Fn(&mut Self, u32)) {
        for i in 0..w {
            self.res.unpin();
            body(self, i);
            self.write_lane(dst, w, i, RAX);
        }
    }

    /// Jump to µop `target` unless it is the fall-through successor.
    fn emit_jump(&mut self, target: u32, idx: u32) {
        if target == idx + 1 {
            return;
        }
        let f = self.asm.jmp_fwd();
        self.branch_fixups.push((f, target));
    }

    /// `setcc` + zero-extend (setcc writes only the low byte).
    fn setcc_zx(&mut self, cc: Cc, r: u8) {
        self.asm.setcc(cc, r);
        self.asm.movzx_rr(r, r, 1);
    }

    /// Inline bounds check `addr + size <= len`: loads the address into
    /// RAX (left there for the access) and branches to the pushed
    /// fixups when the access would fault (`len < size` underflow, or
    /// `addr > len - size`); the slow path re-runs the µop through a
    /// helper that charges and errors exactly as interpreted.
    fn emit_bounds(&mut self, src: BSrc, i: u32, len_off: i32, size: usize, slow: &mut Vec<Fixup>) {
        self.load_src(RAX, src, i);
        self.asm.load(RCX, R15, len_off);
        self.asm.alu_ri(Alu::Sub, RCX, size as i32);
        slow.push(self.asm.jcc_fwd(Cc::B));
        self.asm.alu_rr(Alu::Cmp, RAX, RCX);
        slow.push(self.asm.jcc_fwd(Cc::A));
    }

    /// RAX ← context field for lane `l`. The context dereference clamps
    /// to the last lane exactly like the interpreter; `LaneId` reports
    /// the unclamped lane.
    fn emit_ctx_field(&mut self, field: CtxField, l: u32) {
        let warp = self.program.warp_size;
        let base = l.min(warp - 1) as i32 * CTX_SIZE;
        match field {
            CtxField::Tid(d) => self.ctx_load32(base + CTX_TID + d as i32 * 4),
            CtxField::Ntid(d) => self.ctx_load32(base + CTX_NTID + d as i32 * 4),
            CtxField::Ctaid(d) => self.ctx_load32(base + CTX_CTAID + d as i32 * 4),
            CtxField::Nctaid(d) => self.ctx_load32(base + CTX_NCTAID + d as i32 * 4),
            CtxField::LocalBase => {
                self.asm.load(RCX, R15, ENV_CTXS);
                self.asm.load(RAX, RCX, base + CTX_LOCAL_BASE);
            }
            CtxField::LaneId => self.asm.mov_ri(RAX, l as u64),
            CtxField::WarpSize => self.asm.mov_ri(RAX, warp as u64),
            CtxField::EntryId => self.asm.load(RAX, R15, ENV_ENTRY_ID_MASKED),
        }
    }

    fn ctx_load32(&mut self, disp: i32) {
        self.asm.load(RCX, R15, ENV_CTXS);
        self.asm.load32(RAX, RCX, disp);
    }

    /// Chunk `i..i + n` of `a` and of `b` on the slot layout.
    fn operand_pair(&mut self, a: BSrc, b: BSrc, i: u32, n: u32) -> (u8, u8) {
        (self.operand(a, i, n, false), self.operand(b, i, n, false))
    }

    /// `x` ← `a` `op` `b` over `n` lanes of a [`float_arith`] shape,
    /// f32 at native width on the slot layout: over `[x, 0, y, 0]` the
    /// zero upper dwords stay zero (0 op 0 = 0) except under the
    /// divide. The first source wins a NaN-vs-NaN operation, as in
    /// `a op b`; a one-lane form takes the rest of the register — an
    /// f32 slot's zero upper dword — from it too.
    fn bin_chunk(&mut self, op: BinOp, sty: STy, n: u32, x: u8, (a, b): (u8, u8)) {
        let opc = match op {
            BinOp::Add => F_ADD,
            BinOp::Sub => F_SUB,
            BinOp::Mul => F_MUL,
            _ => F_DIV,
        };
        self.asm.vop(Vop::float(opc, sty == STy::F32, n), x, a, b);
        if (op, sty, n) == (BinOp::Div, STy::F32, 2) {
            // `vdivps` left 0/0 in the slots' upper dwords.
            self.asm.vshift_q(Sh::Shl, x, x, 32);
            self.asm.vshift_q(Sh::Shr, x, x, 32);
        }
    }

    /// `x` ← √`a` over `n` lanes. The packed form takes no first source
    /// (`vvvv = 1111`, which `0` encodes); the one-lane form takes the
    /// rest of the register from `a`.
    fn sqrt_chunk(&mut self, f32: bool, n: u32, x: u8, a: u8) {
        let first = if n == 2 { 0 } else { a };
        self.asm.vop(Vop::float(F_SQRT, f32, n), x, first, a);
    }

    /// Compute lanes `i..i + n` of a float `un_ok` shape into a fresh
    /// pool register.
    /// `Sqrt` is correctly rounded at native width (√0 keeps an f32
    /// slot's upper dword zero); the others are defined through f64 —
    /// `Neg`/`Abs` so an f32 sNaN quiets like `f_enc(f_of(x))`,
    /// `Rsqrt`/`Rcp` for their two f64 roundings.
    fn un_chunk(&mut self, op: UnOp, sty: STy, a: BSrc, i: u32, n: u32) -> u8 {
        if op == UnOp::Sqrt {
            let a = self.operand(a, i, n, false);
            let x = self.res.alloc();
            self.sqrt_chunk(sty == STy::F32, n, x, a);
            return x;
        }
        let a = self.operand_f64(a, i, n, sty);
        match op {
            UnOp::Neg | UnOp::Abs => {
                let (mask, vop) =
                    if op == UnOp::Neg { (SIGN_BIT, VPXOR) } else { (!SIGN_BIT, VPAND) };
                let m = self.operand(BSrc::Imm(mask), 0, n, false);
                let x = self.res.alloc();
                self.asm.vop(vop, x, a, m);
                self.narrow_chunk(x, x, sty)
            }
            UnOp::Rsqrt | UnOp::Rcp => {
                let one = self.operand(BSrc::Imm(1.0f64.to_bits()), 0, n, false);
                let x = self.res.alloc();
                let div = Vop::float(F_DIV, false, n);
                if op == UnOp::Rsqrt {
                    self.sqrt_chunk(false, n, x, a);
                    self.asm.vop(div, x, one, x);
                } else {
                    self.asm.vop(div, x, one, a);
                }
                self.narrow_chunk(x, x, sty)
            }
            _ => unreachable!("µop without an inline template reached un_chunk"),
        }
    }

    /// `x` ← 0/1 per slot: the float compare of `a` with `b`. Ordered
    /// and quiet, except `Ne`: a NaN compares false, and unequal.
    /// Comparing f32 lanes as f32 is comparing their exact f64 widenings.
    fn cmp_chunk(&mut self, pred: CmpPred, sty: STy, x: u8, (a, b): (u8, u8)) {
        self.asm.vop_i(Vop::float(F_CMP, sty == STy::F32, 2), x, a, b, cmp_imm(pred));
        // Bit 0 of a slot is the answer, whether the mask is 32 or 64 wide.
        self.asm.vshift_q(Sh::Shl, x, x, 63);
        self.asm.vshift_q(Sh::Shr, x, x, 63);
    }

    /// Compute one `scalar_bin` lane into RAX (clobbers RCX, and XMM0/1
    /// for float arithmetic, whose operands come through the residency
    /// table). Only called for `bin_ok` shapes, which
    /// never error. Exploits the masked-storage invariant: inputs are
    /// already `mask_to`-normalized, so wrap-then-mask replaces
    /// sext-op-mask wherever the low bits are independent of the high
    /// bits (add/sub/mul/shl), and masked inputs make bitwise results
    /// and unsigned shifts/compares pre-masked.
    fn emit_bin_lane(&mut self, op: BinOp, sty: STy, signed: bool, a: BSrc, b: BSrc, i: u32) {
        if float_arith(op, sty) {
            let ab = self.operand_pair(a, b, i, 1);
            self.bin_chunk(op, sty, 1, XMM0, ab);
            return self.asm.vop(VMOVQ_RX, XMM0, 0, RAX);
        }
        self.load_src(RAX, a, i);
        self.load_src(RCX, b, i);
        match op {
            BinOp::Add => {
                self.asm.alu_rr(Alu::Add, RAX, RCX);
                self.mask_reg(RAX, sty);
            }
            BinOp::Sub => {
                self.asm.alu_rr(Alu::Sub, RAX, RCX);
                self.mask_reg(RAX, sty);
            }
            BinOp::Mul => {
                self.asm.imul_rr(RAX, RCX);
                self.mask_reg(RAX, sty);
            }
            BinOp::And => self.asm.alu_rr(Alu::And, RAX, RCX),
            BinOp::Or => self.asm.alu_rr(Alu::Or, RAX, RCX),
            BinOp::Xor => self.asm.alu_rr(Alu::Xor, RAX, RCX),
            BinOp::Shl => {
                self.asm.alu_ri(Alu::And, RCX, shift_mask(sty));
                self.asm.shift_cl(Sh::Shl, RAX);
                self.mask_reg(RAX, sty);
            }
            BinOp::Shr => {
                if signed {
                    self.sext_reg(RAX, sty);
                }
                self.asm.alu_ri(Alu::And, RCX, shift_mask(sty));
                self.asm.shift_cl(if signed { Sh::Sar } else { Sh::Shr }, RAX);
                if signed {
                    self.mask_reg(RAX, sty);
                }
            }
            BinOp::Min | BinOp::Max => {
                if signed {
                    self.sext_reg(RAX, sty);
                    self.sext_reg(RCX, sty);
                }
                self.asm.alu_rr(Alu::Cmp, RAX, RCX);
                let cc = match (op, signed) {
                    (BinOp::Min, true) => Cc::G,
                    (BinOp::Min, false) => Cc::A,
                    (BinOp::Max, true) => Cc::L,
                    _ => Cc::B,
                };
                self.asm.cmov(cc, RAX, RCX);
                if signed {
                    self.mask_reg(RAX, sty);
                }
            }
            _ => unreachable!("µop without an inline template reached emit_bin_lane"),
        }
    }

    /// Compute one integer `scalar_un` lane into RAX. Only `un_ok`
    /// shapes.
    fn emit_un_lane(&mut self, op: UnOp, sty: STy, a: BSrc, i: u32) {
        self.load_src(RAX, a, i);
        match op {
            UnOp::Neg => {
                self.asm.neg(RAX);
                self.mask_reg(RAX, sty);
            }
            UnOp::Not => {
                if sty == STy::I1 {
                    self.asm.alu_ri(Alu::And, RAX, 1);
                    self.asm.alu_ri(Alu::Xor, RAX, 1);
                } else {
                    self.asm.not(RAX);
                    self.mask_reg(RAX, sty);
                }
            }
            UnOp::Abs => {
                // wrapping_abs via the sar/xor/sub identity.
                self.sext_reg(RAX, sty);
                self.asm.mov_rr(RCX, RAX);
                self.asm.shift_ri(Sh::Sar, RCX, 63);
                self.asm.alu_rr(Alu::Xor, RAX, RCX);
                self.asm.alu_rr(Alu::Sub, RAX, RCX);
                self.mask_reg(RAX, sty);
            }
            _ => unreachable!("µop without an inline template reached emit_un_lane"),
        }
    }

    /// Compute one `scalar_cmp` lane (0/1) into RAX; clobbers RCX, and
    /// XMM0 for floats, whose operands come through the residency table.
    fn emit_cmp_lane(&mut self, pred: CmpPred, sty: STy, signed: bool, a: BSrc, b: BSrc, i: u32) {
        if sty.is_float() {
            let ab = self.operand_pair(a, b, i, 1);
            self.cmp_chunk(pred, sty, XMM0, ab);
            return self.asm.vop(VMOVQ_RX, XMM0, 0, RAX);
        }
        self.load_src(RAX, a, i);
        self.load_src(RCX, b, i);
        if signed {
            self.sext_reg(RAX, sty);
            self.sext_reg(RCX, sty);
        }
        self.asm.alu_rr(Alu::Cmp, RAX, RCX);
        let cc = match (pred, signed) {
            (CmpPred::Eq, _) => Cc::E,
            (CmpPred::Ne, _) => Cc::Ne,
            (CmpPred::Lt, true) => Cc::L,
            (CmpPred::Le, true) => Cc::Le,
            (CmpPred::Gt, true) => Cc::G,
            (CmpPred::Ge, true) => Cc::Ge,
            (CmpPred::Lt, false) => Cc::B,
            (CmpPred::Le, false) => Cc::Be,
            (CmpPred::Gt, false) => Cc::A,
            (CmpPred::Ge, false) => Cc::Ae,
        };
        self.setcc_zx(cc, RAX);
    }

    /// Compute one `scalar_cvt` lane into RAX.
    fn emit_cvt_lane(&mut self, to: STy, from: STy, signed: bool, a: BSrc, i: u32) {
        if from.is_float() {
            if to.is_float() {
                if from == STy::F64 && to == STy::F64 {
                    // f64 → f64 is the identity.
                    self.load_src(RAX, a, i);
                } else {
                    // Widen/narrow dance; f32 → f32 keeps it so sNaN
                    // quietizes exactly like the interpreter's
                    // `f_enc(f_of(x))` round trip.
                    let x = self.operand_f64(a, i, 1, from);
                    let x = self.narrow_chunk(XMM0, x, to);
                    self.asm.vop(VMOVQ_RX, x, 0, RAX);
                }
                return;
            }
            // float → int: `cvttsd2si` fast path; the i64::MIN sentinel
            // (overflow/NaN) — or any negative result for unsigned —
            // takes the saturating `jit_f2i` helper, out of line, which
            // returns the Rust `as`-cast value already masked.
            let x = self.operand_f64(a, i, 1, from);
            self.asm.vop(VCVTTSD2SI, RAX, 0, x);
            let slow = if signed {
                self.asm.mov_ri(RCX, i64::MIN as u64);
                self.asm.alu_rr(Alu::Cmp, RAX, RCX);
                self.asm.jcc_fwd(Cc::E)
            } else {
                self.asm.test_rr(RAX, RAX);
                self.asm.jcc_fwd(Cc::S)
            };
            self.mask_reg(RAX, to);
            self.slow_site(vec![slow], SlowCall::F2i { x, to, signed });
            return;
        }
        self.load_src(RAX, a, i);
        if to.is_float() {
            if signed {
                self.sext_reg(RAX, from);
            }
            // Unsigned sources below i64 are masked, hence
            // non-negative, so the signed convert is exact; unsigned
            // i64 is excluded by `cvt_ok`. The f32 narrow reproduces
            // the interpreter's double rounding through f64.
            // Zeroed first: the convert merges XMM0's upper lane.
            self.asm.vop(VPXOR, XMM0, XMM0, XMM0);
            self.asm.vop(VCVTSI2SD, XMM0, XMM0, RAX);
            self.narrow_chunk(XMM0, XMM0, to);
            self.asm.vop(VMOVQ_RX, XMM0, 0, RAX);
        } else {
            if signed {
                self.sext_reg(RAX, from);
            }
            self.mask_reg(RAX, to);
        }
    }
}

/// `f64` bits of `1.5 · 2^52`: an integral f64 `n` with `|n| < 2^51`
/// added to it leaves `n` in two's complement in the low bits — `n as
/// i64` on the bits, for the quadrant and exponent arithmetic below.
const INT_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `vcmppd`'s "both ordered" predicate: true unless a lane is NaN.
const CMP_ORD: u8 = 0x07;

/// The f64 arithmetic forms on two lanes.
const MULPD: Vop = Vop::float(F_MUL, false, 2);
const ADDPD: Vop = Vop::float(F_ADD, false, 2);
const SUBPD: Vop = Vop::float(F_SUB, false, 2);
const DIVPD: Vop = Vop::float(F_DIV, false, 2);
const CMPPD: Vop = Vop::float(F_CMP, false, 2);

impl Emitter<'_> {
    /// `o dst, src1, [constant v, v]` from the pool.
    fn cop(&mut self, o: Vop, dst: u8, src1: u8, v: u64) {
        self.cop_i(o, dst, src1, v, None);
    }

    fn cop_i(&mut self, o: Vop, dst: u8, src1: u8, v: u64, imm: Option<u8>) {
        let k = match self.consts.iter().position(|&c| c == v) {
            Some(k) => k,
            None => {
                self.consts.push(v);
                self.consts.len() - 1
            }
        };
        let f = self.asm.vop_rip(o, dst, src1, imm);
        self.const_fixups.push((f, k));
    }

    /// `cop` with an f64 constant.
    fn fop(&mut self, o: Vop, dst: u8, src1: u8, v: f64) {
        self.cop(o, dst, src1, v.to_bits());
    }

    /// A fresh pool register holding `Σ c[k] · x^k`, by Horner's rule in
    /// [`approx::horner`]'s order.
    fn horner(&mut self, x: u8, c: &[f64]) -> u8 {
        let p = self.res.alloc();
        let n = c.len() - 1;
        self.fop(MULPD, p, x, c[n]);
        self.fop(ADDPD, p, p, c[n - 1]);
        for &k in c[..n - 1].iter().rev() {
            self.asm.vop(MULPD, p, p, x);
            self.fop(ADDPD, p, p, k);
        }
        p
    }

    /// An f32 `sin`/`cos`/`ex2`/`lg2` µop, [`approx`]'s definition on two
    /// lanes per register. Every lane's domain is checked before any
    /// chunk is written, so a lane outside it sends the whole µop — none
    /// of it done yet, whatever `dst` aliases — to the slow site, whose
    /// helper computes the same definition in Rust.
    fn emit_transcendental(&mut self, idx: u32, op: UnOp, w: u32, dst: BDst, a: BSrc) {
        let mut slow = Vec::new();
        for (i, n) in chunks(w) {
            self.res.unpin();
            let x = self.operand_f64(a, i, n, STy::F32);
            let m = self.res.alloc();
            match approx::template_domain(op) {
                Domain::Abs(bound) => {
                    self.cop(VPAND, m, x, !SIGN_BIT);
                    self.cop_i(CMPPD, m, m, bound.to_bits(), Some(cmp_imm(CmpPred::Le)));
                }
                Domain::Ordered => self.asm.vop_i(CMPPD, m, x, x, CMP_ORD),
                Domain::PositiveFinite => {
                    let t = self.res.alloc();
                    self.cop_i(CMPPD, m, x, 0.0f64.to_bits(), Some(cmp_imm(CmpPred::Gt)));
                    self.cop_i(CMPPD, t, x, f64::MAX.to_bits(), Some(cmp_imm(CmpPred::Le)));
                    self.asm.vop(VPAND, m, m, t);
                }
            }
            self.asm.vop(VMOVMSKPD, RAX, 0, m);
            self.asm.not(RAX);
            self.asm.test_ri(RAX, (1 << n) - 1);
            slow.push(self.asm.jcc_fwd(Cc::Ne));
        }
        self.each_chunk(dst, w, |e, i, n| {
            let x = e.operand_f64(a, i, n, STy::F32);
            let r = match op {
                UnOp::Sin | UnOp::Cos => e.sin_cos_chunk(x, op == UnOp::Cos),
                UnOp::Ex2 => e.ex2_chunk(x),
                _ => e.lg2_chunk(x),
            };
            e.narrow_chunk(r, r, STy::F32)
        });
        self.slow_site(slow, SlowCall::Step(idx));
    }

    /// `approx::sin_cos` over `x` (f64, `|x| ≤ SIN_COS_RANGE`): both
    /// polynomials, then each lane's by its quadrant.
    fn sin_cos_chunk(&mut self, x: u8, cos: bool) -> u8 {
        let (q, t, r, s) = (self.res.alloc(), self.res.alloc(), self.res.alloc(), self.res.alloc());
        self.fop(MULPD, q, x, approx::FRAC_2_PI);
        self.asm.vop_i(VROUNDPD, q, 0, q, 8);
        self.fop(ADDPD, q, q, 0.0);
        self.fop(MULPD, t, q, approx::P1);
        self.asm.vop(SUBPD, r, x, t);
        self.fop(MULPD, t, q, approx::P2);
        self.asm.vop(SUBPD, r, r, t);
        self.fop(MULPD, t, q, approx::P3);
        self.asm.vop(SUBPD, r, r, t);
        self.asm.vop(MULPD, s, r, r);
        let sin = self.horner(s, &approx::SIN);
        self.asm.vop(MULPD, sin, sin, s);
        self.fop(ADDPD, sin, sin, 1.0);
        self.asm.vop(MULPD, sin, sin, r);
        let cos_p = self.horner(s, &approx::COS);
        self.asm.vop(MULPD, cos_p, cos_p, s);
        self.fop(ADDPD, cos_p, cos_p, 1.0);
        // The quadrant's bits: bit 0 picks the cosine, bit 1 negates.
        self.fop(ADDPD, q, q, INT_MAGIC);
        if cos {
            self.cop(VPADDQ, q, q, 1);
        }
        self.asm.vshift_q(Sh::Shl, t, q, 63);
        self.asm.vblendv(sin, sin, cos_p, t);
        self.asm.vshift_q(Sh::Shl, q, q, 62);
        self.cop(VPAND, q, q, SIGN_BIT);
        self.asm.vop(VPXOR, sin, sin, q);
        sin
    }

    /// `approx::ex2_wide` over non-NaN `x`.
    fn ex2_chunk(&mut self, x: u8) -> u8 {
        let (c, n) = (self.res.alloc(), self.res.alloc());
        self.fop(VMAXPD, c, x, -approx::EX2_CLAMP);
        self.fop(VMINPD, c, c, approx::EX2_CLAMP);
        self.asm.vop_i(VROUNDPD, n, 0, c, 8);
        self.asm.vop(SUBPD, c, c, n);
        let p = self.horner(c, &approx::EX2);
        // 2^n: `n + 1023` in the exponent field.
        self.fop(ADDPD, n, n, INT_MAGIC);
        self.cop(VPADDQ, n, n, 1023);
        self.asm.vshift_q(Sh::Shl, n, n, 52);
        self.asm.vop(MULPD, p, p, n);
        p
    }

    /// `approx::lg2_wide` over positive finite `x`.
    fn lg2_chunk(&mut self, x: u8) -> u8 {
        let (m, big, h, e) =
            (self.res.alloc(), self.res.alloc(), self.res.alloc(), self.res.alloc());
        self.cop(VPAND, m, x, (1 << 52) - 1);
        self.cop(VPOR, m, m, 1.0f64.to_bits());
        self.cop_i(CMPPD, big, m, approx::SQRT_2.to_bits(), Some(cmp_imm(CmpPred::Ge)));
        self.fop(MULPD, h, m, 0.5);
        self.asm.vblendv(m, m, h, big);
        // e = (bits >> 52) − 1023 + big, converted through 2^52 + e.
        self.asm.vshift_q(Sh::Shr, e, x, 52);
        self.asm.vop(VPSUBQ, e, e, big);
        self.cop(VPOR, e, e, 4_503_599_627_370_496.0f64.to_bits());
        self.fop(SUBPD, e, e, 4_503_599_627_371_519.0);
        self.fop(SUBPD, h, m, 1.0);
        self.fop(ADDPD, m, m, 1.0);
        self.asm.vop(DIVPD, h, h, m);
        self.asm.vop(MULPD, big, h, h);
        let p = self.horner(big, &approx::LG2);
        self.asm.vop(MULPD, p, h, p);
        self.fop(MULPD, p, p, approx::LG2_SCALE);
        self.asm.vop(ADDPD, p, e, p);
        p
    }

    /// An integer atomic ([`atom_ok`]). The lane's bounds — and, in
    /// global memory, alignment — are checked before memory is touched;
    /// a failure sends the µop to the slow site, whose helper faults
    /// exactly as interpreted. Global memory is shared with other
    /// workers: `lock xadd`, `xchg`, and a `lock cmpxchg` loop. The other
    /// spaces belong to a CTA whose threads run serialized
    /// (`semantics::atom_rmw`): a plain load, operation and store. The
    /// old value lands in `dst`.
    fn emit_atom(
        &mut self,
        idx: u32,
        (sty, space, op, signed): (STy, Space, AtomKind, bool),
        dst: BDst,
        addr: BSrc,
        a: BSrc,
        b: Option<BSrc>,
    ) {
        let (base_off, len_off, _) = space_offsets(space);
        let size = sty.size_bytes();
        let wide = size == 8;
        let mut slow = Vec::new();
        self.emit_bounds(addr, 0, len_off, size, &mut slow);
        let global = space == Space::Global;
        if global {
            self.asm.test_ri(RAX, size as i32 - 1);
            slow.push(self.asm.jcc_fwd(Cc::Ne));
        }
        self.asm.load(RSI, R15, base_off);
        self.asm.alu_rr(Alu::Add, RSI, RAX);
        self.load_src(RCX, a, 0);
        let load_old = |e: &mut Self| {
            if wide {
                e.asm.load(RAX, RSI, 0);
            } else {
                e.asm.load32(RAX, RSI, 0);
            }
        };
        match (global, op) {
            (true, AtomKind::Add) => {
                self.asm.lock_xadd(RSI, RCX, wide);
                self.asm.mov_rr(RAX, RCX);
            }
            (true, AtomKind::Exch) => {
                self.asm.xchg_mem(RSI, RCX, wide);
                self.asm.mov_rr(RAX, RCX);
            }
            (true, AtomKind::Cas) => {
                // Equal: the cell takes `b` and `rax` keeps `a`, the old
                // value; unequal: `rax` takes the cell.
                self.asm.mov_rr(RAX, RCX);
                self.load_src(RDX, b.unwrap_or(BSrc::Imm(0)), 0);
                self.asm.lock_cmpxchg(RSI, RDX, wide);
            }
            (true, _) => {
                load_old(self);
                let retry = self.asm.here();
                self.atom_new(sty, op, signed, b);
                self.asm.lock_cmpxchg(RSI, RDX, wide);
                self.asm.jcc_back(Cc::Ne, retry);
            }
            (false, _) => {
                load_old(self);
                self.atom_new(sty, op, signed, b);
                if wide {
                    self.asm.store(RSI, 0, RDX);
                } else {
                    self.asm.store32(RSI, 0, RDX);
                }
            }
        }
        self.store_bcast(dst, RAX);
        self.slow_site(slow, SlowCall::Step(idx));
    }

    /// RDX ← what the atomic stores, from the old value in RAX and the
    /// operand in RCX (`semantics::atom_rmw`'s `apply`); only the low
    /// `sty` bytes of it are stored. A signed 32-bit min/max compares
    /// sign-extended copies and leaves RCX extended, for a retry.
    fn atom_new(&mut self, sty: STy, op: AtomKind, signed: bool, b: Option<BSrc>) {
        match op {
            AtomKind::Add => {
                self.asm.mov_rr(RDX, RAX);
                self.asm.alu_rr(Alu::Add, RDX, RCX);
            }
            AtomKind::Exch => self.asm.mov_rr(RDX, RCX),
            AtomKind::Cas => {
                self.load_src(RDX, b.unwrap_or(BSrc::Imm(0)), 0);
                self.asm.alu_rr(Alu::Cmp, RAX, RCX);
                self.asm.cmov(Cc::Ne, RDX, RAX);
            }
            AtomKind::Min | AtomKind::Max => {
                self.asm.mov_rr(RDX, RAX);
                if signed {
                    self.sext_reg(RDX, sty);
                    self.sext_reg(RCX, sty);
                }
                self.asm.alu_rr(Alu::Cmp, RDX, RCX);
                let cc = match (op, signed) {
                    (AtomKind::Min, true) => Cc::G,
                    (AtomKind::Min, false) => Cc::A,
                    (_, true) => Cc::L,
                    _ => Cc::B,
                };
                self.asm.cmov(cc, RDX, RCX);
            }
        }
    }
}

/// The `vcmpps/pd` predicate of `pred`: ordered and quiet, except `Ne`
/// (unordered), so a NaN compares false, and unequal.
fn cmp_imm(pred: CmpPred) -> u8 {
    match pred {
        CmpPred::Eq => 0x00,
        CmpPred::Ne => 0x04,
        CmpPred::Lt => 0x11,
        CmpPred::Le => 0x12,
        CmpPred::Ge => 0x1D,
        CmpPred::Gt => 0x1E,
    }
}

/// `scalar_bin`'s shift-amount mask for `sty`.
fn shift_mask(sty: STy) -> i32 {
    (sty.bits() - 1).max(1) as i32
}

impl Emitter<'_> {
    /// Lower µop `idx`: its inline template when it has one, otherwise
    /// a call to the whole-µop interpreter helper.
    fn emit_op(&mut self, idx: u32) {
        let kind = self.program.code[idx as usize].kind;
        self.res.unpin();
        if has_inline_template(&kind) {
            self.stats.template_uops += 1;
            self.emit_template(idx, kind);
        } else {
            self.stats.helper_uops += 1;
            // Missed its template *solely* by width: the same shape at
            // a narrower width would have inlined.
            if shape_has_template(&kind) {
                self.stats.wide_helper_uops += 1;
            }
            self.call_step(idx);
            // The call clobbered every xmm register and wrote the frame.
            self.res.clear();
        }
    }

    /// The fast path of a scalar load whose address [`Self::emit_bounds`]
    /// left in RAX: the masked value lands in `r`.
    fn emit_load_value(&mut self, r: u8, sty: STy, base_off: i32) {
        self.asm.load(RDX, R15, base_off);
        self.asm.load_index(r, RDX, RAX, sty.size_bytes() as u8);
        if sty == STy::I1 {
            self.asm.alu_ri(Alu::And, r, 1);
        }
    }

    /// Close a template whose fast path branches out to `from` when it
    /// cannot finish: the slow site, emitted out of line by
    /// [`Self::finish`], makes `call` and rejoins the fast path here
    /// with the residency table as the fast path leaves it.
    fn slow_site(&mut self, from: Vec<Fixup>, call: SlowCall) {
        let start = self.refills.len();
        self.res.snapshot(&mut self.refills);
        let refill = start..self.refills.len();
        self.slow_sites.push(SlowSite { from, call, refill, back: self.asm.here() });
    }

    /// Emit the inline template of a µop [`has_inline_template`]
    /// admits. No accounting here: the block header charged the µop.
    fn emit_template(&mut self, idx: u32, kind: OpKind) {
        match kind {
            // Float shapes are chunks at every width; integer shapes go
            // lane by lane through the scalar templates.
            OpKind::Bin { op, sty, w, dst, a, b, .. } if float_arith(op, sty) => {
                self.each_chunk(dst, w, |e, i, n| {
                    let ab = e.operand_pair(a, b, i, n);
                    let x = e.res.alloc();
                    e.bin_chunk(op, sty, n, x, ab);
                    x
                })
            }
            OpKind::Bin { op, sty, signed, w, dst, a, b } => {
                self.each_lane(dst, w, |e, i| e.emit_bin_lane(op, sty, signed, a, b, i))
            }
            OpKind::Un { op, sty: STy::F32, w, dst, a } if approx::is_transcendental(op) => {
                self.emit_transcendental(idx, op, w, dst, a)
            }
            OpKind::Un { op, sty, w, dst, a } if sty.is_float() => {
                self.each_chunk(dst, w, |e, i, n| e.un_chunk(op, sty, a, i, n))
            }
            OpKind::Un { op, sty, w, dst, a } => {
                self.each_lane(dst, w, |e, i| e.emit_un_lane(op, sty, a, i))
            }
            // One rounding, at the type's own width: f32 as packed
            // dwords on the slot layout (the zero upper dwords stay
            // 0·0 + 0 = 0), f64 as qwords. The 213 form multiplies its
            // second operand by its first and prefers their NaNs in that
            // order: `a` goes second, so `a`'s NaN beats `b`'s beats
            // `c`'s as in `fused_mul_add`. The 132 form computes `a·b +
            // c` in `a`'s register with the same preference, so an `a`
            // this chunk loaded becomes the result; a resident one
            // stays, and `b` is copied instead.
            OpKind::Fma { sty, w, dst, a, b, c } if sty.is_float() => {
                let (f213, f132) = if sty == STy::F32 {
                    (VFMADD213PS, VFMADD132PS)
                } else {
                    (VFMADD213PD, VFMADD132PD)
                };
                self.each_chunk(dst, w, |e, i, n| {
                    let (a, resident) = e.fetch(a, i, n, false);
                    let b = e.operand(b, i, n, false);
                    let c = e.operand(c, i, n, false);
                    if resident || a == b || a == c {
                        let x = e.res.alloc();
                        e.asm.vmov(x, b);
                        e.asm.vop(f213, x, a, c);
                        x
                    } else {
                        e.res.forget(a);
                        e.asm.vop(f132, a, c, b);
                        a
                    }
                })
            }
            // Low bits of mul/add are independent of the high bits, so
            // the interpreter's sext·sext+sext reduces to wrap-and-mask.
            OpKind::Fma { sty, w, dst, a, b, c } => self.each_lane(dst, w, |e, i| {
                e.load_src(RAX, a, i);
                e.load_src(RCX, b, i);
                e.asm.imul_rr(RAX, RCX);
                e.load_src(RCX, c, i);
                e.asm.alu_rr(Alu::Add, RAX, RCX);
                e.mask_reg(RAX, sty);
            }),
            OpKind::Cmp { pred, sty, w, dst, a, b, .. } if sty.is_float() => {
                self.each_chunk(dst, w, |e, i, n| {
                    let ab = e.operand_pair(a, b, i, n);
                    let x = e.res.alloc();
                    e.cmp_chunk(pred, sty, x, ab);
                    x
                })
            }
            OpKind::Cmp { pred, sty, signed, w, dst, a, b } => {
                self.each_lane(dst, w, |e, i| e.emit_cmp_lane(pred, sty, signed, a, b, i))
            }
            OpKind::Select { w, dst, cond, a, b } => self.each_lane(dst, w, |e, i| {
                e.load_src(RDX, cond, i);
                e.load_src(RAX, a, i);
                e.load_src(RCX, b, i);
                e.asm.test_ri(RDX, 1);
                e.asm.cmov(Cc::E, RAX, RCX);
            }),
            OpKind::Cvt { to, from, signed, w, dst, a } => {
                self.each_lane(dst, w, |e, i| e.emit_cvt_lane(to, from, signed, a, i))
            }
            OpKind::Load { sty, space, dst, addr } => {
                let (base_off, len_off, _) = space_offsets(space);
                let mut slow = Vec::new();
                self.emit_bounds(addr, 0, len_off, sty.size_bytes(), &mut slow);
                self.emit_load_value(RCX, sty, base_off);
                self.store_bcast(dst, RCX);
                self.slow_site(slow, SlowCall::Step(idx));
            }
            OpKind::Store { sty, space, addr, value } => {
                let (base_off, len_off, _) = space_offsets(space);
                let size = sty.size_bytes();
                let mut slow = Vec::new();
                self.emit_bounds(addr, 0, len_off, size, &mut slow);
                self.load_src(RCX, value, 0);
                self.asm.load(RDX, R15, base_off);
                self.asm.store_index(RDX, RAX, RCX, size as u8);
                self.slow_site(slow, SlowCall::Step(idx));
            }
            OpKind::Insert { w, dst, vec, elem, lane: l } => {
                // Element first, then the initializer copy, then the
                // lane write — the interpreter's exact order.
                self.load_src(RCX, elem, 0);
                if let Some(v) = vec {
                    self.copy_vec(dst.off, v, w);
                }
                self.put(dst.off + l, RCX);
            }
            OpKind::Extract { dst, vec, lane: l } => {
                self.load_src(RAX, vec, l);
                self.store_bcast(dst, RAX);
            }
            OpKind::Splat { dst, a } | OpKind::MovScalar { dst, a } if dst.w > 1 => {
                self.copy_vec(dst.off, a, dst.w)
            }
            OpKind::Splat { dst, a } | OpKind::MovScalar { dst, a } | OpKind::Vote { dst, a } => {
                self.load_src(RAX, a, 0);
                if matches!(kind, OpKind::Vote { .. }) {
                    self.asm.alu_ri(Alu::And, RAX, 1);
                }
                self.store_bcast(dst, RAX);
            }
            OpKind::Reduce { op: rop, sty, w, dst, vec } => {
                match rop {
                    ReduceOp::Add => {
                        self.asm.mov_ri(RAX, 0);
                        for i in 0..w {
                            self.load_src(RCX, vec, i);
                            self.mask_reg(RCX, sty);
                            self.asm.alu_rr(Alu::Add, RAX, RCX);
                        }
                        self.mask_reg(RAX, STy::I32);
                    }
                    // Bit 0 of the AND/OR fold is the all/any of the
                    // lanes' bit 0.
                    ReduceOp::All | ReduceOp::Any => {
                        let fold = if matches!(rop, ReduceOp::All) { Alu::And } else { Alu::Or };
                        self.load_src(RAX, vec, 0);
                        for i in 1..w {
                            self.load_src(RCX, vec, i);
                            self.asm.alu_rr(fold, RAX, RCX);
                        }
                        self.asm.alu_ri(Alu::And, RAX, 1);
                    }
                }
                self.store_bcast(dst, RAX);
            }
            OpKind::CtxRead { field, lane: l, dst } => {
                self.emit_ctx_field(field, l);
                self.store_bcast(dst, RAX);
            }
            OpKind::SetRpImm { lane: l, id } => {
                self.asm.load(RCX, R15, ENV_CTXS);
                self.asm.mov_ri(RAX, id as u64);
                self.asm.store(RCX, l as i32 * CTX_SIZE + CTX_RESUME_POINT, RAX);
            }
            OpKind::SetRpReg { lane: l, slot, sty } => {
                self.asm.load(RAX, RBX, disp(slot, 0));
                self.sext_reg(RAX, sty);
                self.asm.load(RCX, R15, ENV_CTXS);
                self.asm.store(RCX, l as i32 * CTX_SIZE + CTX_RESUME_POINT, RAX);
            }
            OpKind::SetStatus { status } => {
                let code = match status {
                    ResumeStatus::Branch => STATUS_BRANCH,
                    ResumeStatus::Barrier => STATUS_BARRIER,
                    ResumeStatus::Exit => STATUS_EXIT,
                };
                self.asm.store_imm(R15, ENV_STATUS, code as i32);
            }
            OpKind::MovVec { w, off, a } => self.copy_vec(off, a, w),
            OpKind::CopyRun { n, src, sstride, dst, prefill } => {
                for i in 0..n {
                    self.asm.load(RAX, RBX, disp(src, i * sstride));
                    if i == 0 {
                        if let Some((v, w)) = prefill {
                            for j in 0..w {
                                self.load_src(RCX, v, j);
                                self.put(dst + j, RCX);
                            }
                        }
                    }
                    self.put(dst + i, RAX);
                }
            }
            OpKind::LoadRun { n, sty, space, addr, dst } => {
                let (base_off, len_off, _) = space_offsets(space);
                let mut slow: Vec<(Vec<Fixup>, u32)> = Vec::new();
                for i in 0..n {
                    let mut s = Vec::new();
                    self.emit_bounds(BSrc::Lanes(addr), i, len_off, sty.size_bytes(), &mut s);
                    slow.push((s, i));
                    self.emit_load_value(RCX, sty, base_off);
                    self.put(dst + i, RCX);
                }
                self.run_slow_sites(idx, slow);
            }
            OpKind::StoreRun { n, sty, space, avec, atmp, val, vstride, .. } => {
                let (base_off, len_off, _) = space_offsets(space);
                let size = sty.size_bytes();
                let mut slow: Vec<(Vec<Fixup>, u32)> = Vec::new();
                for i in 0..n {
                    let mut s = Vec::new();
                    self.emit_bounds(BSrc::Lanes(avec), i, len_off, size, &mut s);
                    slow.push((s, i));
                    self.put(atmp + i, RAX);
                    self.asm.load(RCX, RBX, disp(val, i * vstride));
                    self.asm.load(RDX, R15, base_off);
                    self.asm.store_index(RDX, RAX, RCX, size as u8);
                }
                self.run_slow_sites(idx, slow);
            }
            OpKind::CtxReadRun { field, n, dst } => {
                for i in 0..n {
                    self.emit_ctx_field(field, i);
                    self.put(dst + i, RAX);
                }
            }
            OpKind::Br { target, term } => {
                self.retire(term);
                self.emit_jump(target, idx);
            }
            OpKind::CondBr { cond, taken, fall, term } => {
                self.retire(term);
                self.load_src(RAX, cond, 0);
                self.asm.test_ri(RAX, 1);
                let f = self.asm.jcc_fwd(Cc::Ne);
                self.branch_fixups.push((f, taken));
                self.emit_jump(fall, idx);
            }
            OpKind::Switch { val, cases, default, term } => {
                self.retire(term);
                match val {
                    SwitchVal::BadFloat => {
                        // Errors after the retire, like the interpreter.
                        let f = self.asm.jmp_fwd();
                        self.badfloat_fixups.push(f);
                    }
                    SwitchVal::Reg { .. } | SwitchVal::Imm(_) => {
                        match val {
                            SwitchVal::Reg { slot, sty } => {
                                self.asm.load(RAX, RBX, disp(slot, 0));
                                self.sext_reg(RAX, sty);
                            }
                            SwitchVal::Imm(v) => self.asm.mov_ri(RAX, v as u64),
                            SwitchVal::BadFloat => unreachable!(),
                        }
                        // Linear compare chain in the side table's
                        // order, preserving the interpreter's
                        // first-match scan.
                        let (start, len) = cases;
                        for ci in start..start + len {
                            let (case, target) = self.program.cases[ci as usize];
                            self.asm.mov_ri(RCX, case as u64);
                            self.asm.alu_rr(Alu::Cmp, RAX, RCX);
                            let f = self.asm.jcc_fwd(Cc::E);
                            self.branch_fixups.push((f, target));
                        }
                        self.emit_jump(default, idx);
                    }
                }
            }
            OpKind::Ret { term } => {
                self.retire(term);
                // `status.unwrap_or(Exit)`: fill resume points unless a
                // SetStatus recorded Branch or Barrier.
                self.asm.load(RAX, R15, ENV_STATUS);
                self.asm.alu_ri(Alu::Cmp, RAX, STATUS_BRANCH as i32);
                let s1 = self.asm.jcc_fwd(Cc::E);
                self.asm.alu_ri(Alu::Cmp, RAX, STATUS_BARRIER as i32);
                let s2 = self.asm.jcc_fwd(Cc::E);
                self.asm.load(RCX, R15, ENV_CTXS);
                for l in 0..self.program.warp_size {
                    let d = l as i32 * CTX_SIZE + CTX_RESUME_POINT;
                    self.asm.store_imm(RCX, d, dpvk_ir::EXIT_ENTRY_ID as i32);
                }
                self.asm.bind(s1);
                self.asm.bind(s2);
                let f = self.asm.jmp_fwd();
                self.ok_fixups.push(f);
            }
            OpKind::Atom { sty, space, op, signed, dst, addr, a, b } => {
                self.emit_atom(idx, (sty, space, op, signed), dst, addr, a, b)
            }
            OpKind::Unsupported { .. } => {
                unreachable!("has_inline_template admitted a µop without a template")
            }
        }
    }

    /// Per-component slow sites of a run µop: each bounds-check failure
    /// re-enters the run at its component through `jit_run_from`, then
    /// rejoins after the run.
    fn run_slow_sites(&mut self, idx: u32, slow: Vec<(Vec<Fixup>, u32)>) {
        for (from, comp) in slow {
            self.slow_site(from, SlowCall::RunFrom(idx, comp));
        }
    }

    /// Emit a slow site: the call, then — the call clobbered every xmm
    /// register — a reload from the frame of each register the table
    /// holds at the rejoin, so the fast path after it keeps its
    /// residency. The helpers leave the frame as the fast path would.
    fn emit_slow_site(&mut self, site: SlowSite) {
        for f in site.from {
            self.asm.bind(f);
        }
        match site.call {
            SlowCall::Step(idx) => self.call_step(idx),
            SlowCall::RunFrom(idx, comp) => self.call_run_from(idx, comp),
            SlowCall::F2i { x, to, signed } => {
                self.asm.vop(VMOVQ_RX, x, 0, RDI);
                self.asm.mov_ri(RSI, to.bits() as u64);
                self.asm.mov_ri(RDX, signed as u64);
                self.asm.mov_ri(R11, addr_f2i());
                self.asm.call_reg(R11);
            }
        }
        // R11, not RAX: `jit_f2i` returns its value there.
        for k in site.refill {
            let (h, x) = self.refills[k];
            self.load_held(x, h, R11);
            self.stats.refills += 1;
        }
        let back = self.asm.jmp_fwd();
        self.asm.patch(back, site.back);
    }

    /// Shared stubs and the epilogue; patches all pending fixups.
    fn finish(&mut self) {
        let fixups = std::mem::take(&mut self.branch_fixups);
        for (f, target) in fixups {
            let t = self.uop_start[target as usize];
            self.asm.patch(f, t);
        }
        // Block headers' slow exits, out of line: ask the helper, then
        // rejoin the header at its charge.
        for (fixups, first, charge) in std::mem::take(&mut self.slow_blocks) {
            for f in fixups {
                self.asm.bind(f);
            }
            self.call_helper(addr_block_slow(), first);
            let back = self.asm.jmp_fwd();
            self.asm.patch(back, charge);
        }
        for site in std::mem::take(&mut self.slow_sites) {
            self.emit_slow_site(site);
        }
        // Watchdog and float-switch failures funnel into jit_fail.
        for f in std::mem::take(&mut self.watchdog_fixups) {
            self.asm.bind(f);
        }
        self.asm.mov_ri(RSI, FAIL_WATCHDOG as u64);
        let to_fail = self.asm.jmp_fwd();
        for f in std::mem::take(&mut self.badfloat_fixups) {
            self.asm.bind(f);
        }
        self.asm.mov_ri(RSI, FAIL_FLOAT_SWITCH as u64);
        self.asm.bind(to_fail);
        self.asm.mov_rr(RDI, R15);
        self.asm.mov_ri(R11, addr_fail());
        self.asm.call_reg(R11);
        // jit_fail returned 1 in eax; fall through to the error exit,
        // where failed helper calls also land with eax nonzero.
        for f in std::mem::take(&mut self.err_fixups) {
            self.asm.bind(f);
        }
        let to_exit = self.asm.jmp_fwd();
        for f in std::mem::take(&mut self.ok_fixups) {
            self.asm.bind(f);
        }
        self.asm.alu_rr32(Alu::Xor, RAX, RAX);
        self.asm.bind(to_exit);
        self.asm.pop(R15);
        self.asm.pop(RBX);
        self.asm.pop(RBP);
        self.asm.ret();
        // The constant pool: read-only data past the last instruction.
        self.asm.align(16);
        let pool = self.asm.here();
        for &v in &self.consts {
            self.asm.data_u64(v);
            self.asm.data_u64(v);
        }
        for (f, k) in std::mem::take(&mut self.const_fixups) {
            self.asm.patch_rip(f, pool + 16 * k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostInfo;
    use crate::frame::FrameLayout;
    use crate::machine::MachineModel;
    use dpvk_ir::{Block, Function, Inst, Type, VReg, Value};

    /// `n` µops of type `t` in one block, µop `k` built by
    /// `make(dst, own, shared)`: a fresh destination, an input register
    /// of its own and two registers every µop shares. All distinct — so
    /// the decoder fuses no pair — and all templated, with the `Ret`.
    /// Returns the bytes emitted for them, with the prologue, the one
    /// header and its slow exit, the `Ret`'s retire and the shared
    /// exits, and the emission counters.
    fn emit_block(
        t: Type,
        n: usize,
        make: impl Fn(VReg, Value, [Value; 2]) -> Inst,
    ) -> (usize, JitEmitStats) {
        let mut f = Function::new("block", t.width);
        let regs: Vec<_> = (0..2 * n + 2).map(|_| f.new_reg(t)).collect();
        let mut b = Block::new("entry");
        let shared = [Value::Reg(regs[0]), Value::Reg(regs[1])];
        for k in 0..n {
            b.insts.push(make(regs[2 + n + k], Value::Reg(regs[2 + k]), shared));
        }
        f.add_block(b);
        let model = MachineModel::sandybridge_sse();
        let info = CostInfo::analyze(&f, &model);
        let program = BytecodeProgram::decode(&f, &FrameLayout::of(&f), &model, &info);
        assert_eq!(program.code.len(), n + 1, "{:?}", program.stats);

        let (code, stats) = emit_program(&program).expect("a small program emits");
        assert_eq!(stats.template_uops, n as u64 + 1);
        (code.len(), stats)
    }

    fn emit_adds(t: Type) -> usize {
        let add = |dst, _: Value, [a, b]: [Value; 2]| Inst::Bin {
            op: BinOp::Add,
            ty: t,
            signed: false,
            dst,
            a,
            b,
        };
        emit_block(t, ADDS, add).0
    }

    const ADDS: usize = 32;

    /// Accounting belongs to the block, not the µop: a straight-line
    /// block of 32 scalar adds must stay well under the ≈80 B each µop
    /// took when every template opened with its own tick and charge.
    #[test]
    fn straight_line_adds_carry_no_per_uop_accounting() {
        let bytes = emit_adds(Type::scalar(STy::I32));
        assert!(bytes < ADDS * 48, "{bytes} B for {ADDS} scalar adds: per-µop accounting is back");
    }

    /// A vector µop is two-lane chunks, not a lane loop: 32 `w4` f32
    /// adds took 6 017 B lane by lane (≈ 188 B per µop) and take 2 573 B
    /// (≈ 80 B per µop) as two chunks each; the budget sits midway, so a
    /// silent fall-back to the lane loop fails here and not in a
    /// benchmark.
    #[test]
    fn vector_adds_are_chunks_not_a_lane_loop() {
        let bytes = emit_adds(Type::vector(STy::F32, 4));
        assert!(bytes < ADDS * 130, "{bytes} B for {ADDS} w4 f32 adds: the lane loop is back");
    }

    /// Neither an f32 transcendental nor an integer atomic calls a
    /// helper any more; float atomics and f64 transcendentals still do.
    #[test]
    fn transcendentals_and_integer_atomics_have_templates() {
        use dpvk_ir::AtomKind;
        let t = Type::vector(STy::F32, 4);
        for op in [UnOp::Sin, UnOp::Cos, UnOp::Ex2, UnOp::Lg2] {
            let un = |dst, a, _: [Value; 2]| Inst::Un { op, ty: t, dst, a };
            let (_, stats) = emit_block(t, 2, un);
            assert_eq!(stats.helper_uops, 0, "{op:?}");
        }
        for (sty, space) in [(STy::I32, Space::Global), (STy::I64, Space::Shared)] {
            let atom = |op| {
                move |dst, a, _: [Value; 2]| Inst::Atom {
                    ty: sty,
                    space,
                    op,
                    signed: true,
                    dst,
                    addr: Value::ImmI(0),
                    a,
                    b: (op == AtomKind::Cas).then_some(a),
                }
            };
            for op in [AtomKind::Add, AtomKind::Min, AtomKind::Max, AtomKind::Exch, AtomKind::Cas] {
                let (_, stats) = emit_block(Type::scalar(sty), 2, atom(op));
                assert_eq!(stats.helper_uops, 0, "{op:?} {sty} {space:?}");
            }
        }
        let kinds = [
            OpKind::Un {
                op: UnOp::Sin,
                sty: STy::F64,
                w: 1,
                dst: BDst { off: 0, w: 1 },
                a: BSrc::Slot(0),
            },
            OpKind::Atom {
                sty: STy::F32,
                space: Space::Global,
                op: AtomKind::Add,
                signed: false,
                dst: BDst { off: 0, w: 1 },
                addr: BSrc::Slot(0),
                a: BSrc::Slot(0),
                b: None,
            },
        ];
        for kind in kinds {
            assert!(!has_inline_template(&kind), "{kind:?}");
        }
    }

    /// Operands stay in registers within a block: 64 `w4` f32 `fma`s
    /// sharing their multiplier and addend — the shape of `throughput`'s
    /// loop body — took 9 953 B (≈ 152 B per µop) rebuilding both from
    /// the frame in every chunk, and take 6 188 B (≈ 93 B per µop) with
    /// them resident after the first µop. The budget is two thirds of
    /// the old size.
    #[test]
    fn shared_operands_stay_resident_across_a_block() {
        const FMAS: usize = 64;
        let t = Type::vector(STy::F32, 4);
        let fma = |dst, a, [b, c]: [Value; 2]| Inst::Fma { ty: t, dst, a, b, c };
        let (bytes, stats) = emit_block(t, FMAS, fma);
        assert!(
            bytes < 9_953 * 2 / 3,
            "{bytes} B for {FMAS} w4 f32 fmas: shared operands are reloaded"
        );
        // Two chunks per µop, two shared operands per chunk, all but
        // the first µop's from a register.
        assert_eq!(stats.resident_reads, 2 * 2 * (FMAS as u64 - 1));
        assert_eq!(stats.refills, 0);
    }
}
