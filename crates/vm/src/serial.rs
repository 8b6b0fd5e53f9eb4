//! Byte-level serialization of decoded [`BytecodeProgram`]s.
//!
//! The persistent translation cache in `dpvk-core` stores the validated
//! µop stream of each compiled specialization on disk, so a cold process
//! rehydrates warm kernels without re-running translate/specialize/decode.
//! This module is the µop-level codec: every [`OpKind`] variant, operand
//! source/destination, pre-baked [`OpMeta`] charge, and terminator retire
//! record round-trips bit-exactly.
//!
//! Decoding untrusted bytes is safe: all reads are bounds-checked (via
//! [`dpvk_ir::serial::Reader`]), every tag validated, and the decoded
//! program is re-run through [`BytecodeProgram::validate`] — the same
//! slot/target bounds pass a freshly decoded program gets — before it is
//! returned. The execution loop elides per-access bounds checks on the
//! strength of that pass, so a program that skips it must never escape
//! this module.
//!
//! The profiler identity ([`BytecodeProgram::attach_profile`]) is *not*
//! serialized; callers re-attach it after loading, exactly as the
//! in-memory compile path does after decode.

use std::panic::{self, AssertUnwindSafe};

use dpvk_ir::serial::{
    put_atom_kind, put_bin_op, put_bool, put_cmp_pred, put_ctx_field, put_i64, put_reduce_op,
    put_resume_status, put_space, put_sty, put_u32, put_u64, put_u8, put_un_op, take_atom_kind,
    take_bin_op, take_cmp_pred, take_ctx_field, take_reduce_op, take_resume_status, take_space,
    take_sty, take_un_op, Reader, SerialError, SerialResult,
};

use crate::bytecode::{
    BDst, BSrc, BytecodeProgram, DecodeStats, Op, OpKind, OpMeta, SwitchVal, TermInfo,
};

/// The one `&'static str` payload the decoder ever emits for
/// [`OpKind::Unsupported`]; decoding maps the serialized string back to
/// it. Unknown strings are treated as corruption.
const UNSUPPORTED_WHATS: &[&str] = &["float resume point"];

fn put_meta(buf: &mut Vec<u8>, m: OpMeta) {
    put_u32(buf, m.cost);
    put_u32(buf, m.flops);
    put_u8(buf, m.flags);
    put_u8(buf, m.bytes);
}

fn take_meta(r: &mut Reader<'_>) -> SerialResult<OpMeta> {
    Ok(OpMeta {
        cost: r.take_u32()?,
        flops: r.take_u32()?,
        flags: r.take_u8()?,
        bytes: r.take_u8()?,
    })
}

fn put_term_info(buf: &mut Vec<u8>, t: TermInfo) {
    put_u32(buf, t.cost);
    put_u32(buf, t.insts);
    put_bool(buf, t.overhead);
}

fn take_term_info(r: &mut Reader<'_>) -> SerialResult<TermInfo> {
    Ok(TermInfo { cost: r.take_u32()?, insts: r.take_u32()?, overhead: r.take_bool()? })
}

fn put_bsrc(buf: &mut Vec<u8>, s: BSrc) {
    match s {
        BSrc::Imm(v) => {
            put_u8(buf, 0);
            put_u64(buf, v);
        }
        BSrc::Slot(o) => {
            put_u8(buf, 1);
            put_u32(buf, o);
        }
        BSrc::Lanes(o) => {
            put_u8(buf, 2);
            put_u32(buf, o);
        }
        BSrc::Prev => put_u8(buf, 3),
    }
}

fn take_bsrc(r: &mut Reader<'_>) -> SerialResult<BSrc> {
    Ok(match r.take_u8()? {
        0 => BSrc::Imm(r.take_u64()?),
        1 => BSrc::Slot(r.take_u32()?),
        2 => BSrc::Lanes(r.take_u32()?),
        3 => BSrc::Prev,
        t => return Err(SerialError::new(format!("invalid BSrc tag {t}"))),
    })
}

fn put_opt_bsrc(buf: &mut Vec<u8>, s: Option<BSrc>) {
    match s {
        Some(s) => {
            put_bool(buf, true);
            put_bsrc(buf, s);
        }
        None => put_bool(buf, false),
    }
}

fn take_opt_bsrc(r: &mut Reader<'_>) -> SerialResult<Option<BSrc>> {
    Ok(if r.take_bool()? { Some(take_bsrc(r)?) } else { None })
}

fn put_bdst(buf: &mut Vec<u8>, d: BDst) {
    put_u32(buf, d.off);
    put_u32(buf, d.w);
}

fn take_bdst(r: &mut Reader<'_>) -> SerialResult<BDst> {
    Ok(BDst { off: r.take_u32()?, w: r.take_u32()? })
}

fn put_opt_bdst(buf: &mut Vec<u8>, d: Option<BDst>) {
    match d {
        Some(d) => {
            put_bool(buf, true);
            put_bdst(buf, d);
        }
        None => put_bool(buf, false),
    }
}

fn take_opt_bdst(r: &mut Reader<'_>) -> SerialResult<Option<BDst>> {
    Ok(if r.take_bool()? { Some(take_bdst(r)?) } else { None })
}

fn put_switch_val(buf: &mut Vec<u8>, v: SwitchVal) {
    match v {
        SwitchVal::Reg { slot, sty } => {
            put_u8(buf, 0);
            put_u32(buf, slot);
            put_sty(buf, sty);
        }
        SwitchVal::Imm(i) => {
            put_u8(buf, 1);
            put_i64(buf, i);
        }
        SwitchVal::BadFloat => put_u8(buf, 2),
    }
}

fn take_switch_val(r: &mut Reader<'_>) -> SerialResult<SwitchVal> {
    Ok(match r.take_u8()? {
        0 => SwitchVal::Reg { slot: r.take_u32()?, sty: take_sty(r)? },
        1 => SwitchVal::Imm(r.take_i64()?),
        2 => SwitchVal::BadFloat,
        t => return Err(SerialError::new(format!("invalid SwitchVal tag {t}"))),
    })
}

fn put_op_kind(buf: &mut Vec<u8>, k: &OpKind) {
    put_u8(buf, k.opcode() as u8);
    match *k {
        OpKind::Bin { op, sty, signed, w, dst, a, b } => {
            put_bin_op(buf, op);
            put_sty(buf, sty);
            put_bool(buf, signed);
            put_u32(buf, w);
            put_bdst(buf, dst);
            put_bsrc(buf, a);
            put_bsrc(buf, b);
        }
        OpKind::Un { op, sty, w, dst, a } => {
            put_un_op(buf, op);
            put_sty(buf, sty);
            put_u32(buf, w);
            put_bdst(buf, dst);
            put_bsrc(buf, a);
        }
        OpKind::Fma { sty, w, dst, a, b, c } => {
            put_sty(buf, sty);
            put_u32(buf, w);
            put_bdst(buf, dst);
            put_bsrc(buf, a);
            put_bsrc(buf, b);
            put_bsrc(buf, c);
        }
        OpKind::Cmp { pred, sty, signed, w, dst, a, b } => {
            put_cmp_pred(buf, pred);
            put_sty(buf, sty);
            put_bool(buf, signed);
            put_u32(buf, w);
            put_bdst(buf, dst);
            put_bsrc(buf, a);
            put_bsrc(buf, b);
        }
        OpKind::Select { w, dst, cond, a, b } => {
            put_u32(buf, w);
            put_bdst(buf, dst);
            put_bsrc(buf, cond);
            put_bsrc(buf, a);
            put_bsrc(buf, b);
        }
        OpKind::Cvt { to, from, signed, w, dst, a } => {
            put_sty(buf, to);
            put_sty(buf, from);
            put_bool(buf, signed);
            put_u32(buf, w);
            put_bdst(buf, dst);
            put_bsrc(buf, a);
        }
        OpKind::Load { sty, space, dst, addr } => {
            put_sty(buf, sty);
            put_space(buf, space);
            put_bdst(buf, dst);
            put_bsrc(buf, addr);
        }
        OpKind::Store { sty, space, addr, value } => {
            put_sty(buf, sty);
            put_space(buf, space);
            put_bsrc(buf, addr);
            put_bsrc(buf, value);
        }
        OpKind::Atom { sty, space, op, signed, dst, addr, a, b } => {
            put_sty(buf, sty);
            put_space(buf, space);
            put_atom_kind(buf, op);
            put_bool(buf, signed);
            put_bdst(buf, dst);
            put_bsrc(buf, addr);
            put_bsrc(buf, a);
            put_opt_bsrc(buf, b);
        }
        OpKind::Insert { w, dst, vec, elem, lane } => {
            put_u32(buf, w);
            put_bdst(buf, dst);
            put_opt_bsrc(buf, vec);
            put_bsrc(buf, elem);
            put_u32(buf, lane);
        }
        OpKind::Extract { dst, vec, lane } => {
            put_bdst(buf, dst);
            put_bsrc(buf, vec);
            put_u32(buf, lane);
        }
        OpKind::Splat { dst, a } | OpKind::Vote { dst, a } | OpKind::MovScalar { dst, a } => {
            put_bdst(buf, dst);
            put_bsrc(buf, a);
        }
        OpKind::Reduce { op, sty, w, dst, vec } => {
            put_reduce_op(buf, op);
            put_sty(buf, sty);
            put_u32(buf, w);
            put_bdst(buf, dst);
            put_bsrc(buf, vec);
        }
        OpKind::CtxRead { field, lane, dst } => {
            put_ctx_field(buf, field);
            put_u32(buf, lane);
            put_bdst(buf, dst);
        }
        OpKind::SetRpImm { lane, id } => {
            put_u32(buf, lane);
            put_i64(buf, id);
        }
        OpKind::SetRpReg { lane, slot, sty } => {
            put_u32(buf, lane);
            put_u32(buf, slot);
            put_sty(buf, sty);
        }
        OpKind::SetStatus { status } => put_resume_status(buf, status),
        OpKind::MovVec { w, off, a } => {
            put_u32(buf, w);
            put_u32(buf, off);
            put_bsrc(buf, a);
        }
        OpKind::Unsupported { what } => {
            let idx = UNSUPPORTED_WHATS.iter().position(|w| *w == what).expect("known what string");
            put_u32(buf, idx as u32);
        }
        OpKind::CmpBr { pred, sty, signed, a, b, dst, taken, fall, term } => {
            put_cmp_pred(buf, pred);
            put_sty(buf, sty);
            put_bool(buf, signed);
            put_bsrc(buf, a);
            put_bsrc(buf, b);
            put_opt_bdst(buf, dst);
            put_u32(buf, taken);
            put_u32(buf, fall);
            put_term_info(buf, term);
        }
        OpKind::BinBin { op1, sty1, sg1, a1, b1, dst1, op2, sty2, sg2, a2, b2, dst2, meta2 } => {
            put_bin_op(buf, op1);
            put_sty(buf, sty1);
            put_bool(buf, sg1);
            put_bsrc(buf, a1);
            put_bsrc(buf, b1);
            put_opt_bdst(buf, dst1);
            put_bin_op(buf, op2);
            put_sty(buf, sty2);
            put_bool(buf, sg2);
            put_bsrc(buf, a2);
            put_bsrc(buf, b2);
            put_bdst(buf, dst2);
            put_meta(buf, meta2);
        }
        OpKind::LoadBin { sty1, space, addr, dst1, op2, sty2, sg2, a2, b2, dst2, meta2 } => {
            put_sty(buf, sty1);
            put_space(buf, space);
            put_bsrc(buf, addr);
            put_opt_bdst(buf, dst1);
            put_bin_op(buf, op2);
            put_sty(buf, sty2);
            put_bool(buf, sg2);
            put_bsrc(buf, a2);
            put_bsrc(buf, b2);
            put_bdst(buf, dst2);
            put_meta(buf, meta2);
        }
        OpKind::CopyRun { n, src, sstride, dst, prefill } => {
            put_u32(buf, n);
            put_u32(buf, src);
            put_u32(buf, sstride);
            put_u32(buf, dst);
            match prefill {
                Some((v, w)) => {
                    put_bool(buf, true);
                    put_bsrc(buf, v);
                    put_u32(buf, w);
                }
                None => put_bool(buf, false),
            }
        }
        OpKind::LoadRun { n, sty, space, addr, dst } => {
            put_u32(buf, n);
            put_sty(buf, sty);
            put_space(buf, space);
            put_u32(buf, addr);
            put_u32(buf, dst);
        }
        OpKind::StoreRun { n, sty, space, avec, atmp, val, vstride, smeta } => {
            put_u32(buf, n);
            put_sty(buf, sty);
            put_space(buf, space);
            put_u32(buf, avec);
            put_u32(buf, atmp);
            put_u32(buf, val);
            put_u32(buf, vstride);
            put_meta(buf, smeta);
        }
        OpKind::CtxReadRun { field, n, dst } => {
            put_ctx_field(buf, field);
            put_u32(buf, n);
            put_u32(buf, dst);
        }
        OpKind::Br { target, term } => {
            put_u32(buf, target);
            put_term_info(buf, term);
        }
        OpKind::CondBr { cond, taken, fall, term } => {
            put_bsrc(buf, cond);
            put_u32(buf, taken);
            put_u32(buf, fall);
            put_term_info(buf, term);
        }
        OpKind::Switch { val, cases, default, term } => {
            put_switch_val(buf, val);
            put_u32(buf, cases.0);
            put_u32(buf, cases.1);
            put_u32(buf, default);
            put_term_info(buf, term);
        }
        OpKind::Ret { term } => put_term_info(buf, term),
    }
}

fn take_op_kind(r: &mut Reader<'_>) -> SerialResult<OpKind> {
    Ok(match r.take_u8()? {
        0 => OpKind::Bin {
            op: take_bin_op(r)?,
            sty: take_sty(r)?,
            signed: r.take_bool()?,
            w: r.take_u32()?,
            dst: take_bdst(r)?,
            a: take_bsrc(r)?,
            b: take_bsrc(r)?,
        },
        1 => OpKind::Un {
            op: take_un_op(r)?,
            sty: take_sty(r)?,
            w: r.take_u32()?,
            dst: take_bdst(r)?,
            a: take_bsrc(r)?,
        },
        2 => OpKind::Fma {
            sty: take_sty(r)?,
            w: r.take_u32()?,
            dst: take_bdst(r)?,
            a: take_bsrc(r)?,
            b: take_bsrc(r)?,
            c: take_bsrc(r)?,
        },
        3 => OpKind::Cmp {
            pred: take_cmp_pred(r)?,
            sty: take_sty(r)?,
            signed: r.take_bool()?,
            w: r.take_u32()?,
            dst: take_bdst(r)?,
            a: take_bsrc(r)?,
            b: take_bsrc(r)?,
        },
        4 => OpKind::Select {
            w: r.take_u32()?,
            dst: take_bdst(r)?,
            cond: take_bsrc(r)?,
            a: take_bsrc(r)?,
            b: take_bsrc(r)?,
        },
        5 => OpKind::Cvt {
            to: take_sty(r)?,
            from: take_sty(r)?,
            signed: r.take_bool()?,
            w: r.take_u32()?,
            dst: take_bdst(r)?,
            a: take_bsrc(r)?,
        },
        6 => OpKind::Load {
            sty: take_sty(r)?,
            space: take_space(r)?,
            dst: take_bdst(r)?,
            addr: take_bsrc(r)?,
        },
        7 => OpKind::Store {
            sty: take_sty(r)?,
            space: take_space(r)?,
            addr: take_bsrc(r)?,
            value: take_bsrc(r)?,
        },
        8 => OpKind::Atom {
            sty: take_sty(r)?,
            space: take_space(r)?,
            op: take_atom_kind(r)?,
            signed: r.take_bool()?,
            dst: take_bdst(r)?,
            addr: take_bsrc(r)?,
            a: take_bsrc(r)?,
            b: take_opt_bsrc(r)?,
        },
        9 => OpKind::Insert {
            w: r.take_u32()?,
            dst: take_bdst(r)?,
            vec: take_opt_bsrc(r)?,
            elem: take_bsrc(r)?,
            lane: r.take_u32()?,
        },
        10 => OpKind::Extract { dst: take_bdst(r)?, vec: take_bsrc(r)?, lane: r.take_u32()? },
        11 => OpKind::Splat { dst: take_bdst(r)?, a: take_bsrc(r)? },
        12 => OpKind::Reduce {
            op: take_reduce_op(r)?,
            sty: take_sty(r)?,
            w: r.take_u32()?,
            dst: take_bdst(r)?,
            vec: take_bsrc(r)?,
        },
        13 => {
            OpKind::CtxRead { field: take_ctx_field(r)?, lane: r.take_u32()?, dst: take_bdst(r)? }
        }
        14 => OpKind::SetRpImm { lane: r.take_u32()?, id: r.take_i64()? },
        15 => OpKind::SetRpReg { lane: r.take_u32()?, slot: r.take_u32()?, sty: take_sty(r)? },
        16 => OpKind::SetStatus { status: take_resume_status(r)? },
        17 => OpKind::Vote { dst: take_bdst(r)?, a: take_bsrc(r)? },
        18 => OpKind::MovVec { w: r.take_u32()?, off: r.take_u32()?, a: take_bsrc(r)? },
        19 => OpKind::MovScalar { dst: take_bdst(r)?, a: take_bsrc(r)? },
        20 => {
            let idx = r.take_u32()? as usize;
            let what = UNSUPPORTED_WHATS
                .get(idx)
                .copied()
                .ok_or_else(|| SerialError::new(format!("unknown Unsupported index {idx}")))?;
            OpKind::Unsupported { what }
        }
        21 => OpKind::CmpBr {
            pred: take_cmp_pred(r)?,
            sty: take_sty(r)?,
            signed: r.take_bool()?,
            a: take_bsrc(r)?,
            b: take_bsrc(r)?,
            dst: take_opt_bdst(r)?,
            taken: r.take_u32()?,
            fall: r.take_u32()?,
            term: take_term_info(r)?,
        },
        22 => OpKind::BinBin {
            op1: take_bin_op(r)?,
            sty1: take_sty(r)?,
            sg1: r.take_bool()?,
            a1: take_bsrc(r)?,
            b1: take_bsrc(r)?,
            dst1: take_opt_bdst(r)?,
            op2: take_bin_op(r)?,
            sty2: take_sty(r)?,
            sg2: r.take_bool()?,
            a2: take_bsrc(r)?,
            b2: take_bsrc(r)?,
            dst2: take_bdst(r)?,
            meta2: take_meta(r)?,
        },
        23 => OpKind::LoadBin {
            sty1: take_sty(r)?,
            space: take_space(r)?,
            addr: take_bsrc(r)?,
            dst1: take_opt_bdst(r)?,
            op2: take_bin_op(r)?,
            sty2: take_sty(r)?,
            sg2: r.take_bool()?,
            a2: take_bsrc(r)?,
            b2: take_bsrc(r)?,
            dst2: take_bdst(r)?,
            meta2: take_meta(r)?,
        },
        24 => OpKind::CopyRun {
            n: r.take_u32()?,
            src: r.take_u32()?,
            sstride: r.take_u32()?,
            dst: r.take_u32()?,
            prefill: if r.take_bool()? { Some((take_bsrc(r)?, r.take_u32()?)) } else { None },
        },
        25 => OpKind::LoadRun {
            n: r.take_u32()?,
            sty: take_sty(r)?,
            space: take_space(r)?,
            addr: r.take_u32()?,
            dst: r.take_u32()?,
        },
        26 => OpKind::StoreRun {
            n: r.take_u32()?,
            sty: take_sty(r)?,
            space: take_space(r)?,
            avec: r.take_u32()?,
            atmp: r.take_u32()?,
            val: r.take_u32()?,
            vstride: r.take_u32()?,
            smeta: take_meta(r)?,
        },
        27 => {
            OpKind::CtxReadRun { field: take_ctx_field(r)?, n: r.take_u32()?, dst: r.take_u32()? }
        }
        28 => OpKind::Br { target: r.take_u32()?, term: take_term_info(r)? },
        29 => OpKind::CondBr {
            cond: take_bsrc(r)?,
            taken: r.take_u32()?,
            fall: r.take_u32()?,
            term: take_term_info(r)?,
        },
        30 => OpKind::Switch {
            val: take_switch_val(r)?,
            cases: (r.take_u32()?, r.take_u32()?),
            default: r.take_u32()?,
            term: take_term_info(r)?,
        },
        31 => OpKind::Ret { term: take_term_info(r)? },
        t => return Err(SerialError::new(format!("invalid OpKind tag {t}"))),
    })
}

/// Encode a program to bytes.
///
/// The profiler tag is intentionally not serialized (it holds a
/// `&'static str`); [`program_from_bytes`] returns a program with no
/// profile attached and callers re-run
/// [`BytecodeProgram::attach_profile`].
pub fn program_to_bytes(p: &BytecodeProgram) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + p.code.len() * 32 + p.cases.len() * 12);
    put_u32(&mut buf, p.warp_size);
    put_u64(&mut buf, p.slots as u64);
    for v in [
        p.stats.ops,
        p.stats.source_insts,
        p.stats.fused_cmp_br,
        p.stats.fused_bin_bin,
        p.stats.fused_load_bin,
        p.stats.fused_runs,
    ] {
        put_u64(&mut buf, v);
    }
    put_u32(&mut buf, p.cases.len() as u32);
    for &(v, t) in &p.cases {
        put_i64(&mut buf, v);
        put_u32(&mut buf, t);
    }
    put_u32(&mut buf, p.code.len() as u32);
    for op in &p.code {
        put_meta(&mut buf, op.meta);
        put_op_kind(&mut buf, &op.kind);
    }
    buf
}

/// Decode a program from bytes and re-validate it.
///
/// Any structural problem — truncation, a bad tag, trailing bytes, or a
/// slot/target bound the validator rejects — is a [`SerialError`];
/// callers treat it as a cache miss.
pub fn program_from_bytes(bytes: &[u8]) -> SerialResult<BytecodeProgram> {
    let mut r = Reader::new(bytes);
    let warp_size = r.take_u32()?;
    if warp_size == 0 {
        return Err(SerialError::new("zero warp size"));
    }
    let slots = r.take_u64()?;
    if slots > u32::MAX as u64 {
        return Err(SerialError::new(format!("implausible slot count {slots}")));
    }
    let mut stats = DecodeStats {
        ops: r.take_u64()?,
        source_insts: r.take_u64()?,
        fused_cmp_br: r.take_u64()?,
        fused_bin_bin: r.take_u64()?,
        fused_load_bin: r.take_u64()?,
        fused_runs: r.take_u64()?,
        vector_ops: 0,
    };
    let ncases = r.take_len(12)?;
    let mut cases = Vec::with_capacity(ncases);
    for _ in 0..ncases {
        let v = r.take_i64()?;
        let t = r.take_u32()?;
        cases.push((v, t));
    }
    let ncode = r.take_len(11)?;
    let mut code = Vec::with_capacity(ncode);
    for _ in 0..ncode {
        let meta = take_meta(&mut r)?;
        let kind = take_op_kind(&mut r)?;
        code.push(Op { meta, kind });
    }
    if !r.is_done() {
        return Err(SerialError::new(format!("{} trailing bytes after program", r.remaining())));
    }
    // Derived, not on the wire: recompute so rehydrated programs carry
    // the same tally as a fresh decode.
    stats.vector_ops = crate::bytecode::count_vector_ops(&code);
    // No source function to run liveness over: every slot counts as
    // live into the entry, so warp entries clear the whole frame.
    let program = BytecodeProgram {
        code,
        cases,
        slots: slots as usize,
        warp_size,
        entry_live: vec![(0, slots as u32)],
        stats,
        profile: None,
    };
    // The execution loop elides register-file bounds checks because
    // `validate` ran at decode time; re-run it on the decoded program so
    // a corrupted artifact can never reach the unchecked accessors. The
    // validator panics on violation (it guards an internal invariant);
    // here a violation just means bad bytes, so catch it and report an
    // ordinary decode error.
    let ok = panic::catch_unwind(AssertUnwindSafe(|| program.validate())).is_ok();
    if !ok {
        return Err(SerialError::new("decoded program failed validation"));
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostInfo;
    use crate::frame::FrameLayout;
    use crate::machine::MachineModel;
    use dpvk_ir::{
        Block, BlockId, CmpPred, CtxField, Function, Inst, STy, Space, Term, Type, Value,
    };

    /// Build a real program through the production decoder so the sample
    /// exercises fused superinstructions, branches, and the case table.
    fn sample_program() -> BytecodeProgram {
        let mut f = Function::new("serial_sample", 1);
        let tid = f.new_reg(Type::scalar(STy::I32));
        let addr = f.new_reg(Type::scalar(STy::I64));
        let x = f.new_reg(Type::scalar(STy::F32));
        let p = f.new_reg(Type::scalar(STy::I1));

        let mut entry = Block::new("entry");
        entry.insts.push(Inst::CtxRead { field: CtxField::Tid(0), lane: 0, dst: tid });
        entry.insts.push(Inst::Cvt {
            to: STy::I64,
            from: STy::I32,
            signed: false,
            width: 1,
            dst: addr,
            a: Value::Reg(tid),
        });
        entry.insts.push(Inst::Bin {
            op: dpvk_ir::BinOp::Mul,
            ty: Type::scalar(STy::I64),
            signed: false,
            dst: addr,
            a: Value::Reg(addr),
            b: Value::ImmI(4),
        });
        entry.insts.push(Inst::Load {
            ty: STy::F32,
            space: Space::Global,
            dst: x,
            addr: Value::Reg(addr),
        });
        entry.insts.push(Inst::Cmp {
            pred: CmpPred::Lt,
            ty: Type::scalar(STy::F32),
            signed: false,
            dst: p,
            a: Value::Reg(x),
            b: Value::ImmF(0.5),
        });
        entry.term = Term::CondBr { cond: Value::Reg(p), taken: BlockId(1), fall: BlockId(2) };
        f.add_block(entry);

        let mut sw = Block::new("switchy");
        sw.term = Term::Switch {
            value: Value::Reg(tid),
            cases: vec![(0, BlockId(2)), (3, BlockId(2))],
            default: BlockId(2),
        };
        f.add_block(sw);

        let mut exit = Block::new("exit");
        exit.insts.push(Inst::Store {
            ty: STy::F32,
            space: Space::Global,
            addr: Value::Reg(addr),
            value: Value::Reg(x),
        });
        exit.term = Term::Ret;
        f.add_block(exit);

        let model = MachineModel::sandybridge_sse();
        let info = CostInfo::analyze(&f, &model);
        let layout = FrameLayout::of(&f);
        BytecodeProgram::decode(&f, &layout, &model, &info)
    }

    fn assert_programs_equal(a: &BytecodeProgram, b: &BytecodeProgram) {
        assert_eq!(a.warp_size, b.warp_size);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.code.len(), b.code.len());
        // Op/OpKind do not implement PartialEq (they hold f64-free payloads
        // but were never compared before); compare via Debug formatting,
        // which prints every field.
        for (x, y) in a.code.iter().zip(&b.code) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn program_round_trip() {
        let p = sample_program();
        let bytes = program_to_bytes(&p);
        let q = program_from_bytes(&bytes).expect("decode");
        assert_programs_equal(&p, &q);
        assert!(q.profile.is_none());
    }

    #[test]
    fn encoding_is_deterministic() {
        let p = sample_program();
        assert_eq!(program_to_bytes(&p), program_to_bytes(&p));
    }

    #[test]
    fn truncation_is_an_error() {
        let bytes = program_to_bytes(&sample_program());
        for cut in [0, 1, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(program_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = program_to_bytes(&sample_program());
        bytes.push(7);
        assert!(program_from_bytes(&bytes).is_err());
    }

    #[test]
    fn out_of_range_slot_fails_validation() {
        let mut p = sample_program();
        // Corrupt a destination offset past the slot count, then encode:
        // decode must reject it via the re-validation pass.
        for op in &mut p.code {
            if let OpKind::Bin { ref mut dst, .. } = op.kind {
                dst.off = p.slots as u32 + 100;
                break;
            }
        }
        let bytes = program_to_bytes(&p);
        assert!(program_from_bytes(&bytes).is_err());
    }
}
