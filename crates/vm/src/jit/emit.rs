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
//! * µop shapes without a template (atomics, division, transcendentals,
//!   wide vectors; [`has_inline_template`] is the one predicate) call
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
//! Register conventions inside generated code:
//!   r15 = &JitEnv      rbx = register-frame base
//!   rbp = value kept live within a fused µop (helper calls clobber the rest)
//!   rax/rcx/rdx/rsi/rdi/r11 = scratch
//!   xmm0 = the chunk being computed, xmm1-2 = its other operands

use std::mem::offset_of;

use dpvk_ir::{BinOp, CmpPred, CtxField, ReduceOp, ResumeStatus, STy, Space, UnOp};

use crate::bytecode::{BDst, BSrc, BytecodeProgram, OpKind, SwitchVal, TermInfo};
use crate::context::ThreadContext;
use crate::jit::asm::*;
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
        stats: JitEmitStats::default(),
    };
    e.prologue();
    let mut block_start = true;
    for (idx, op) in program.code.iter().enumerate() {
        e.uop_start.push(e.asm.here());
        if block_start {
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
        Space::Local => (ENV_LOCAL_BASE, ENV_LOCAL_LEN, true),
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

/// Whether the µop's shape has an inline template at some width:
/// atomics, integer division, transcendentals, float min/max, unsigned
/// i64 → float and stores to read-only spaces (which only ever fault)
/// do not.
fn shape_has_template(kind: &OpKind) -> bool {
    match *kind {
        OpKind::Bin { op, sty, .. } => bin_ok(op, sty),
        OpKind::Un { op, sty, .. } => un_ok(op, sty),
        OpKind::Cvt { to, from, signed, .. } => cvt_ok(to, from, signed),
        OpKind::Store { space, .. } | OpKind::StoreRun { space, .. } => space_offsets(space).2,
        OpKind::BinBin { op1, sty1, op2, sty2, .. } => bin_ok(op1, sty1) && bin_ok(op2, sty2),
        OpKind::LoadBin { op2, sty2, .. } => bin_ok(op2, sty2),
        OpKind::Atom { .. } | OpKind::Unsupported { .. } => false,
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
    stats: JitEmitStats,
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
    /// `Slot` broadcasts, `Lanes` indexes, `Prev` reads the fused
    /// predecessor from its register).
    fn load_src(&mut self, r: u8, src: BSrc, i: u32, prev: Option<u8>) {
        match src {
            BSrc::Imm(v) => self.asm.mov_ri(r, v),
            BSrc::Slot(s) => self.asm.load(r, RBX, disp(s, 0)),
            BSrc::Lanes(s) => self.asm.load(r, RBX, disp(s, i)),
            BSrc::Prev => {
                let p = prev.expect("Prev operand outside a fused µop");
                if p != r {
                    self.asm.mov_rr(r, p);
                }
            }
        }
    }

    /// Broadcast-fill all `w` declared slots of `dst` from `r`
    /// (`set_bcast`); clobbers XMM0 when the register is a vector.
    fn store_bcast(&mut self, dst: BDst, r: u8) {
        if dst.w == 1 {
            return self.asm.store(RBX, disp(dst.off, 0), r);
        }
        self.asm.vop(VMOVQ_XR, XMM0, 0, r);
        self.write_chunk(dst, 1, 0, 1, XMM0);
    }

    /// Write the `n`-lane chunk in `x`, one store per chunk (R2): a
    /// vector µop writes lanes `i..` only, a scalar µop broadcast-fills
    /// every declared slot.
    fn write_chunk(&mut self, dst: BDst, w: u32, i: u32, n: u32, x: u8) {
        if w > 1 {
            return self.asm.vstore(RBX, disp(dst.off, i), x, n);
        }
        if dst.w > 1 {
            self.asm.vop(VMOVDDUP, x, 0, x);
        }
        for (j, m) in chunks(dst.w) {
            self.asm.vstore(RBX, disp(dst.off, j), x, m);
        }
    }

    /// Run `body` over every chunk of a width-`w` µop; it leaves each
    /// result in XMM0.
    fn each_chunk(&mut self, dst: BDst, w: u32, body: impl Fn(&mut Self, u32, u32)) {
        for (i, n) in chunks(w) {
            body(self, i, n);
            self.write_chunk(dst, w, i, n, XMM0);
        }
    }

    /// Copy `w` lanes of `src` — a scalar broadcasts — to the slots
    /// from `off`, chunk by chunk; clobbers RAX for an immediate.
    fn copy_vec(&mut self, off: u32, src: BSrc, w: u32) {
        for (i, n) in chunks(w) {
            self.load_chunk(XMM0, src, i, n, None);
            self.asm.vstore(RBX, disp(off, i), XMM0, n);
        }
    }

    /// Lanes `i..i + n` of the vector register at `s`, one lane load per
    /// lane (R1): whole slots, or their low `dword`s packed low.
    fn load_lanes(&mut self, x: u8, s: u32, i: u32, n: u32, dword: bool) {
        self.asm.vload_lane(x, RBX, disp(s, i), dword);
        if n == 2 {
            self.asm.vinsert_lane(x, RBX, disp(s, i + 1), dword);
        }
    }

    /// Load lanes `i..i + n` of an operand into `x` on the slot layout;
    /// scalar operands broadcast. `Imm` and `Prev` go through RAX.
    fn load_chunk(&mut self, x: u8, src: BSrc, i: u32, n: u32, prev: Option<u8>) {
        match src {
            BSrc::Lanes(s) => self.load_lanes(x, s, i, n, false),
            BSrc::Slot(s) if n == 2 => self.asm.vload_dup(x, RBX, disp(s, 0)),
            BSrc::Slot(s) => self.asm.vload_lane(x, RBX, disp(s, 0), false),
            BSrc::Imm(_) | BSrc::Prev => {
                self.load_src(RAX, src, 0, prev);
                self.asm.vop(VMOVQ_XR, x, 0, RAX);
                if n == 2 {
                    self.asm.vop(VMOVDDUP, x, 0, x);
                }
            }
        }
    }

    /// Load a float chunk into `x` as f64 (`f_of`): f32 lanes pack
    /// through `vmovd`/`vpinsrd` and widen in `vcvtps2pd`, which quiets
    /// an sNaN exactly like Rust `as f64`; f32 immediates widen here.
    fn load_chunk_f64(&mut self, x: u8, src: BSrc, i: u32, n: u32, sty: STy, prev: Option<u8>) {
        match (sty, src) {
            (STy::F64, _) => return self.load_chunk(x, src, i, n, prev),
            (_, BSrc::Imm(v)) => {
                return self.load_chunk(x, BSrc::Imm(f_of(v, sty).to_bits()), i, n, prev)
            }
            (_, BSrc::Lanes(s)) => self.load_lanes(x, s, i, n, true),
            // The slot's zero upper dword widens to a 0.0 nobody reads.
            _ => self.load_chunk(x, src, i, 1, prev),
        }
        self.asm.vop(VCVTPS2PD, x, 0, x);
        if n == 2 && !matches!(src, BSrc::Lanes(_)) {
            self.asm.vop(VMOVDDUP, x, 0, x);
        }
    }

    /// Encode the f64 chunk in `x` back to `sty` on the slot layout
    /// (`f_enc`): narrow, then spread the two f32 over their slots.
    fn narrow_chunk(&mut self, x: u8, sty: STy) {
        if sty == STy::F32 {
            self.asm.vop(VCVTPD2PS, x, 0, x);
            self.asm.vop(VPMOVZXDQ, x, 0, x);
        }
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
            self.asm.store(RBX, disp(dst.off, i), r);
        }
    }

    /// Run `body` over every lane of a width-`w` µop that computes in
    /// GPRs; it leaves each result in RAX.
    fn each_lane(&mut self, dst: BDst, w: u32, body: impl Fn(&mut Self, u32)) {
        for i in 0..w {
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
        self.load_src(RAX, src, i, None);
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

    /// Chunk `i..i + n` of `a` into XMM0 and of `b` into XMM1.
    fn load_pair(&mut self, a: BSrc, b: BSrc, i: u32, n: u32, prev: Option<u8>) {
        self.load_chunk(XMM0, a, i, n, prev);
        self.load_chunk(XMM1, b, i, n, prev);
    }

    /// XMM0 ← XMM0 `op` XMM1 over `n` lanes of a [`float_arith`] shape,
    /// f32 at native width on the slot layout: over `[x, 0, y, 0]` the
    /// zero upper dwords stay zero (0 op 0 = 0) except under the
    /// divide. The first source wins a NaN-vs-NaN operation, as in
    /// `a op b`.
    fn bin_chunk(&mut self, op: BinOp, sty: STy, n: u32) {
        let opc = match op {
            BinOp::Add => F_ADD,
            BinOp::Sub => F_SUB,
            BinOp::Mul => F_MUL,
            _ => F_DIV,
        };
        self.asm.vop(Vop::float(opc, sty == STy::F32, n), XMM0, XMM0, XMM1);
        if (op, sty, n) == (BinOp::Div, STy::F32, 2) {
            // `vdivps` left 0/0 in the slots' upper dwords.
            self.asm.vshift_q(Sh::Shl, XMM0, 32);
            self.asm.vshift_q(Sh::Shr, XMM0, 32);
        }
    }

    /// Compute lanes `i..i + n` of a float `un_ok` shape into XMM0.
    /// `Sqrt` is correctly rounded at native width (√0 keeps an f32
    /// slot's upper dword zero); the others are defined through f64 —
    /// `Neg`/`Abs` so an f32 sNaN quiets like `f_enc(f_of(x))`,
    /// `Rsqrt`/`Rcp` for their two f64 roundings.
    fn un_chunk(&mut self, op: UnOp, sty: STy, a: BSrc, i: u32, n: u32) {
        if op == UnOp::Sqrt {
            self.load_chunk(XMM0, a, i, n, None);
            // XMM0 as first source is also the `vvvv = 1111` the packed
            // form requires.
            return self.asm.vop(Vop::float(F_SQRT, sty == STy::F32, n), XMM0, XMM0, XMM0);
        }
        let f64_op = |opc| Vop::float(opc, false, n);
        self.load_chunk_f64(XMM0, a, i, n, sty, None);
        match op {
            UnOp::Neg | UnOp::Abs => {
                let (mask, vop) =
                    if op == UnOp::Neg { (SIGN_BIT, VPXOR) } else { (!SIGN_BIT, VPAND) };
                self.load_chunk(XMM1, BSrc::Imm(mask), 0, n, None);
                self.asm.vop(vop, XMM0, XMM0, XMM1);
            }
            UnOp::Rsqrt | UnOp::Rcp => {
                if op == UnOp::Rsqrt {
                    self.asm.vop(f64_op(F_SQRT), XMM0, XMM0, XMM0);
                }
                self.load_chunk(XMM1, BSrc::Imm(1.0f64.to_bits()), 0, n, None);
                self.asm.vop(f64_op(F_DIV), XMM0, XMM1, XMM0);
            }
            _ => unreachable!("µop without an inline template reached un_chunk"),
        }
        self.narrow_chunk(XMM0, sty);
    }

    /// XMM0 ← 0/1 per slot: the float compare of XMM0 with XMM1. Ordered
    /// and quiet, except `Ne`: a NaN compares false, and unequal.
    /// Comparing f32 lanes as f32 is comparing their exact f64 widenings.
    fn cmp_chunk(&mut self, pred: CmpPred, sty: STy) {
        let imm = match pred {
            CmpPred::Eq => 0x00,
            CmpPred::Ne => 0x04,
            CmpPred::Lt => 0x11,
            CmpPred::Le => 0x12,
            CmpPred::Ge => 0x1D,
            CmpPred::Gt => 0x1E,
        };
        self.asm.vop_i(Vop::float(F_CMP, sty == STy::F32, 2), XMM0, XMM0, XMM1, imm);
        // Bit 0 of a slot is the answer, whether the mask is 32 or 64 wide.
        self.asm.vshift_q(Sh::Shl, XMM0, 63);
        self.asm.vshift_q(Sh::Shr, XMM0, 63);
    }

    /// Compute one `scalar_bin` lane into RAX (clobbers RCX, and XMM0/1
    /// for float arithmetic). Only called for `bin_ok` shapes, which
    /// never error. Exploits the masked-storage invariant: inputs are
    /// already `mask_to`-normalized, so wrap-then-mask replaces
    /// sext-op-mask wherever the low bits are independent of the high
    /// bits (add/sub/mul/shl), and masked inputs make bitwise results
    /// and unsigned shifts/compares pre-masked.
    #[allow(clippy::too_many_arguments)]
    fn emit_bin_lane(
        &mut self,
        op: BinOp,
        sty: STy,
        signed: bool,
        a: BSrc,
        b: BSrc,
        i: u32,
        prev: Option<u8>,
    ) {
        if float_arith(op, sty) {
            self.load_pair(a, b, i, 1, prev);
            self.bin_chunk(op, sty, 1);
            return self.asm.vop(VMOVQ_RX, XMM0, 0, RAX);
        }
        self.load_src(RAX, a, i, prev);
        self.load_src(RCX, b, i, prev);
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
        self.load_src(RAX, a, i, None);
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
    /// XMM0/1 for floats.
    fn emit_cmp_lane(&mut self, pred: CmpPred, sty: STy, signed: bool, a: BSrc, b: BSrc, i: u32) {
        if sty.is_float() {
            self.load_pair(a, b, i, 1, None);
            self.cmp_chunk(pred, sty);
            return self.asm.vop(VMOVQ_RX, XMM0, 0, RAX);
        }
        self.load_src(RAX, a, i, None);
        self.load_src(RCX, b, i, None);
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
                    self.load_src(RAX, a, i, None);
                } else {
                    // Widen/narrow dance; f32 → f32 keeps it so sNaN
                    // quietizes exactly like the interpreter's
                    // `f_enc(f_of(x))` round trip.
                    self.load_chunk_f64(XMM0, a, i, 1, from, None);
                    self.narrow_chunk(XMM0, to);
                    self.asm.vop(VMOVQ_RX, XMM0, 0, RAX);
                }
                return;
            }
            // float → int: `cvttsd2si` fast path; the i64::MIN sentinel
            // (overflow/NaN) — or any negative result for unsigned —
            // takes the saturating `jit_f2i` helper, which returns the
            // Rust `as`-cast value already masked.
            self.load_chunk_f64(XMM0, a, i, 1, from, None);
            self.asm.vop(VCVTTSD2SI, RAX, 0, XMM0);
            let slow = if signed {
                self.asm.mov_ri(RCX, i64::MIN as u64);
                self.asm.alu_rr(Alu::Cmp, RAX, RCX);
                self.asm.jcc_fwd(Cc::E)
            } else {
                self.asm.test_rr(RAX, RAX);
                self.asm.jcc_fwd(Cc::S)
            };
            self.mask_reg(RAX, to);
            let done = self.asm.jmp_fwd();
            self.asm.bind(slow);
            self.asm.vop(VMOVQ_RX, XMM0, 0, RDI);
            self.asm.mov_ri(RSI, to.bits() as u64);
            self.asm.mov_ri(RDX, signed as u64);
            self.asm.mov_ri(R11, addr_f2i());
            self.asm.call_reg(R11);
            self.asm.bind(done);
            return;
        }
        self.load_src(RAX, a, i, None);
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
            self.narrow_chunk(XMM0, to);
            self.asm.vop(VMOVQ_RX, XMM0, 0, RAX);
        } else {
            if signed {
                self.sext_reg(RAX, from);
            }
            self.mask_reg(RAX, to);
        }
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

    /// Close a memory template: the fast path jumps over the slow site,
    /// where every failed bounds check re-runs the µop in [`jit_step`].
    fn emit_step_slow_path(&mut self, idx: u32, slow: Vec<Fixup>) {
        let done = self.asm.jmp_fwd();
        for f in slow {
            self.asm.bind(f);
        }
        self.call_step(idx);
        self.asm.bind(done);
    }

    /// Emit the inline template of a µop [`has_inline_template`]
    /// admits. No accounting here: the block header charged the µop.
    fn emit_template(&mut self, idx: u32, kind: OpKind) {
        match kind {
            // Float shapes are chunks at every width; integer shapes go
            // lane by lane through the scalar templates.
            OpKind::Bin { op, sty, w, dst, a, b, .. } if float_arith(op, sty) => {
                self.each_chunk(dst, w, |e, i, n| {
                    e.load_pair(a, b, i, n, None);
                    e.bin_chunk(op, sty, n);
                })
            }
            OpKind::Bin { op, sty, signed, w, dst, a, b } => {
                self.each_lane(dst, w, |e, i| e.emit_bin_lane(op, sty, signed, a, b, i, None))
            }
            OpKind::Un { op, sty, w, dst, a } if sty.is_float() => {
                self.each_chunk(dst, w, |e, i, n| e.un_chunk(op, sty, a, i, n))
            }
            OpKind::Un { op, sty, w, dst, a } => {
                self.each_lane(dst, w, |e, i| e.emit_un_lane(op, sty, a, i))
            }
            // f32 is *defined* as f64 `mul_add`, then narrowed. The 213
            // form multiplies its second operand by its first and
            // prefers their NaNs in that order: `a` goes second, so
            // `a`'s NaN beats `b`'s beats `c`'s as in `mul_add`.
            OpKind::Fma { sty, w, dst, a, b, c } if sty.is_float() => {
                self.each_chunk(dst, w, |e, i, n| {
                    e.load_chunk_f64(XMM1, a, i, n, sty, None);
                    e.load_chunk_f64(XMM0, b, i, n, sty, None);
                    e.load_chunk_f64(XMM2, c, i, n, sty, None);
                    e.asm.vop(VFMADD213PD, XMM0, XMM1, XMM2);
                    e.narrow_chunk(XMM0, sty);
                })
            }
            // Low bits of mul/add are independent of the high bits, so
            // the interpreter's sext·sext+sext reduces to wrap-and-mask.
            OpKind::Fma { sty, w, dst, a, b, c } => self.each_lane(dst, w, |e, i| {
                e.load_src(RAX, a, i, None);
                e.load_src(RCX, b, i, None);
                e.asm.imul_rr(RAX, RCX);
                e.load_src(RCX, c, i, None);
                e.asm.alu_rr(Alu::Add, RAX, RCX);
                e.mask_reg(RAX, sty);
            }),
            OpKind::Cmp { pred, sty, w, dst, a, b, .. } if sty.is_float() => {
                self.each_chunk(dst, w, |e, i, n| {
                    e.load_pair(a, b, i, n, None);
                    e.cmp_chunk(pred, sty);
                })
            }
            OpKind::Cmp { pred, sty, signed, w, dst, a, b } => {
                self.each_lane(dst, w, |e, i| e.emit_cmp_lane(pred, sty, signed, a, b, i))
            }
            OpKind::Select { w, dst, cond, a, b } => self.each_lane(dst, w, |e, i| {
                e.load_src(RDX, cond, i, None);
                e.load_src(RAX, a, i, None);
                e.load_src(RCX, b, i, None);
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
                self.emit_step_slow_path(idx, slow);
            }
            OpKind::Store { sty, space, addr, value } => {
                let (base_off, len_off, _) = space_offsets(space);
                let size = sty.size_bytes();
                let mut slow = Vec::new();
                self.emit_bounds(addr, 0, len_off, size, &mut slow);
                self.load_src(RCX, value, 0, None);
                self.asm.load(RDX, R15, base_off);
                self.asm.store_index(RDX, RAX, RCX, size as u8);
                self.emit_step_slow_path(idx, slow);
            }
            OpKind::Insert { w, dst, vec, elem, lane: l } => {
                // Element first, then the initializer copy, then the
                // lane write — the interpreter's exact order.
                self.load_src(RCX, elem, 0, None);
                if let Some(v) = vec {
                    self.copy_vec(dst.off, v, w);
                }
                self.asm.store(RBX, disp(dst.off, l), RCX);
            }
            OpKind::Extract { dst, vec, lane: l } => {
                self.load_src(RAX, vec, l, None);
                self.store_bcast(dst, RAX);
            }
            OpKind::Splat { dst, a } | OpKind::MovScalar { dst, a } if dst.w > 1 => {
                self.copy_vec(dst.off, a, dst.w)
            }
            OpKind::Splat { dst, a } | OpKind::MovScalar { dst, a } | OpKind::Vote { dst, a } => {
                self.load_src(RAX, a, 0, None);
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
                            self.load_src(RCX, vec, i, None);
                            self.mask_reg(RCX, sty);
                            self.asm.alu_rr(Alu::Add, RAX, RCX);
                        }
                        self.mask_reg(RAX, STy::I32);
                    }
                    // Bit 0 of the AND/OR fold is the all/any of the
                    // lanes' bit 0.
                    ReduceOp::All | ReduceOp::Any => {
                        let fold = if matches!(rop, ReduceOp::All) { Alu::And } else { Alu::Or };
                        self.load_src(RAX, vec, 0, None);
                        for i in 1..w {
                            self.load_src(RCX, vec, i, None);
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
                                self.load_src(RCX, v, j, None);
                                self.asm.store(RBX, disp(dst, j), RCX);
                            }
                        }
                    }
                    self.asm.store(RBX, disp(dst, i), RAX);
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
                    self.asm.store(RBX, disp(dst, i), RCX);
                }
                self.emit_run_slow_paths(idx, slow);
            }
            OpKind::StoreRun { n, sty, space, avec, atmp, val, vstride, .. } => {
                let (base_off, len_off, _) = space_offsets(space);
                let size = sty.size_bytes();
                let mut slow: Vec<(Vec<Fixup>, u32)> = Vec::new();
                for i in 0..n {
                    let mut s = Vec::new();
                    self.emit_bounds(BSrc::Lanes(avec), i, len_off, size, &mut s);
                    slow.push((s, i));
                    self.asm.store(RBX, disp(atmp, i), RAX);
                    self.asm.load(RCX, RBX, disp(val, i * vstride));
                    self.asm.load(RDX, R15, base_off);
                    self.asm.store_index(RDX, RAX, RCX, size as u8);
                }
                self.emit_run_slow_paths(idx, slow);
            }
            OpKind::CtxReadRun { field, n, dst } => {
                for i in 0..n {
                    self.emit_ctx_field(field, i);
                    self.asm.store(RBX, disp(dst, i), RAX);
                }
            }
            OpKind::BinBin {
                op1, sty1, sg1, a1, b1, dst1, op2, sty2, sg2, a2, b2, dst2, ..
            } => {
                self.emit_bin_lane(op1, sty1, sg1, a1, b1, 0, None);
                // v1 moves out of the second lane's scratch registers.
                self.asm.mov_rr(RBP, RAX);
                if let Some(d) = dst1 {
                    self.store_bcast(d, RBP);
                }
                self.emit_bin_lane(op2, sty2, sg2, a2, b2, 0, Some(RBP));
                self.store_bcast(dst2, RAX);
            }
            OpKind::LoadBin { sty1, space, addr, dst1, op2, sty2, sg2, a2, b2, dst2, .. } => {
                let (base_off, len_off, _) = space_offsets(space);
                let mut slow = Vec::new();
                self.emit_bounds(addr, 0, len_off, sty1.size_bytes(), &mut slow);
                self.emit_load_value(RBP, sty1, base_off);
                if let Some(d) = dst1 {
                    self.store_bcast(d, RBP);
                }
                self.emit_bin_lane(op2, sty2, sg2, a2, b2, 0, Some(RBP));
                self.store_bcast(dst2, RAX);
                self.emit_step_slow_path(idx, slow);
            }
            OpKind::CmpBr { pred, sty, signed, a, b, dst, taken, fall, term } => {
                self.emit_cmp_lane(pred, sty, signed, a, b, 0);
                // The 0/1 result must survive the retire's poll call.
                self.asm.mov_rr(RBP, RAX);
                if let Some(d) = dst {
                    self.store_bcast(d, RBP);
                }
                self.retire(term);
                self.asm.test_ri(RBP, 1);
                let f = self.asm.jcc_fwd(Cc::Ne);
                self.branch_fixups.push((f, taken));
                self.emit_jump(fall, idx);
            }
            OpKind::Br { target, term } => {
                self.retire(term);
                self.emit_jump(target, idx);
            }
            OpKind::CondBr { cond, taken, fall, term } => {
                self.retire(term);
                self.load_src(RAX, cond, 0, None);
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
            OpKind::Atom { .. } | OpKind::Unsupported { .. } => {
                unreachable!("has_inline_template admitted a µop without a template")
            }
        }
    }

    /// Per-component slow paths of a run µop: each bounds-check failure
    /// re-enters the run at its component through `jit_run_from`, then
    /// rejoins after the run.
    fn emit_run_slow_paths(&mut self, idx: u32, slow: Vec<(Vec<Fixup>, u32)>) {
        let mut dones = vec![self.asm.jmp_fwd()];
        for (fs, comp) in slow {
            for f in fs {
                self.asm.bind(f);
            }
            self.call_run_from(idx, comp);
            dones.push(self.asm.jmp_fwd());
        }
        for f in dones {
            self.asm.bind(f);
        }
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostInfo;
    use crate::frame::FrameLayout;
    use crate::machine::MachineModel;
    use dpvk_ir::{Block, Function, Inst, Type, Value};

    /// `ADDS` adds of type `t` over distinct registers — so the decoder
    /// fuses no pair — in one block: exactly `ADDS` `Bin` µops and the
    /// `Ret`, all templated. Returns the bytes emitted for them, with
    /// the prologue, the one header and its slow exit, the `Ret`'s
    /// retire and the shared exits.
    fn emit_adds(t: Type) -> usize {
        let mut f = Function::new("adds", t.width);
        let regs: Vec<_> = (0..ADDS + 2).map(|_| f.new_reg(t)).collect();
        let mut b = Block::new("entry");
        let (x, y) = (Value::Reg(regs[0]), Value::Reg(regs[1]));
        for &dst in &regs[2..] {
            b.insts.push(Inst::Bin { op: BinOp::Add, ty: t, signed: false, dst, a: x, b: y });
        }
        f.add_block(b);
        let model = MachineModel::sandybridge_sse();
        let info = CostInfo::analyze(&f, &model);
        let program = BytecodeProgram::decode(&f, &FrameLayout::of(&f), &model, &info);
        assert_eq!(program.code.len(), ADDS + 1, "{:?}", program.stats);

        let (code, stats) = emit_program(&program).expect("a small program emits");
        assert_eq!(stats.template_uops, ADDS as u64 + 1);
        code.len()
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
}
