//! Byte-level serialization of IR functions.
//!
//! The persistent translation cache (`dpvk-core`) stores fully translated
//! and specialized kernels on disk so a restarted process skips the
//! translate/specialize pipeline on warm kernels. This module provides the
//! codec substrate: little-endian primitive readers/writers plus a
//! round-trip codec for [`Function`].
//!
//! Design constraints:
//!
//! * **No external dependencies.** The format is hand-rolled little-endian
//!   with length-prefixed strings and sequences.
//! * **Corruption is an error, never UB or a panic.** Every read is
//!   bounds-checked and every enum tag validated; decoding truncated or
//!   bit-flipped input returns [`SerialError`]. Callers treat any error as
//!   a cache miss and recompile.
//! * **Deterministic bytes.** Encoding the same function twice yields
//!   identical bytes, so content hashes of encoded artifacts are stable.
//!
//! The format carries no version field of its own: versioning and
//! checksumming belong to the enclosing artifact container (see
//! `dpvk-core`'s persistent cache), which bumps its format version whenever
//! any layer of the encoding changes.

use std::error::Error;
use std::fmt;

use crate::function::{Block, BlockKind, Function};
use crate::inst::{
    AtomKind, BinOp, BlockId, CmpPred, CtxField, Inst, ReduceOp, ResumeStatus, Space, Term, UnOp,
};
use crate::types::{STy, Type};
use crate::value::{VReg, Value};

/// Decoding failure: truncated input, an invalid enum tag, or a
/// length field that exceeds the remaining input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl SerialError {
    /// Build an error from anything displayable.
    pub fn new(message: impl Into<String>) -> Self {
        SerialError { message: message.into() }
    }
}

impl fmt::Display for SerialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serial decode error: {}", self.message)
    }
}

impl Error for SerialError {}

/// Shorthand result type for decoding.
pub type SerialResult<T> = Result<T, SerialError>;

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

/// Append one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a bool as one byte (0/1).
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its little-endian bit pattern (NaN payloads and
/// signed zeros survive the round trip).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a length-prefixed UTF-8 string (u32 length).
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Bounds-checked reader
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all input has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> SerialResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SerialError::new(format!(
                "truncated input: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> SerialResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool byte, rejecting values other than 0/1.
    pub fn take_bool(&mut self) -> SerialResult<bool> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SerialError::new(format!("invalid bool byte {v}"))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> SerialResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> SerialResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a little-endian `i64`.
    pub fn take_i64(&mut self) -> SerialResult<i64> {
        Ok(self.take_u64()? as i64)
    }

    /// Read an `f64` bit pattern.
    pub fn take_f64(&mut self) -> SerialResult<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a sequence length, rejecting lengths that cannot possibly fit
    /// in the remaining input (each element needs at least `min_elem_bytes`
    /// bytes). This keeps corrupted length fields from causing huge
    /// allocations before the inevitable truncation error.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> SerialResult<usize> {
        let n = self.take_u32()? as usize;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(SerialError::new(format!(
                "implausible sequence length {n} with {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> SerialResult<String> {
        let n = self.take_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SerialError::new("string payload is not UTF-8"))
    }
}

// ---------------------------------------------------------------------------
// Enum codecs
// ---------------------------------------------------------------------------

macro_rules! enum_codec {
    ($put:ident, $take:ident, $ty:ident, [$($variant:ident),+ $(,)?]) => {
        #[doc = concat!("Append a [`", stringify!($ty), "`] tag byte.")]
        pub fn $put(buf: &mut Vec<u8>, v: $ty) {
            const VARIANTS: &[$ty] = &[$($ty::$variant),+];
            let tag = VARIANTS.iter().position(|x| *x == v).expect("variant listed") as u8;
            put_u8(buf, tag);
        }

        #[doc = concat!("Read a [`", stringify!($ty), "`] tag byte.")]
        pub fn $take(r: &mut Reader<'_>) -> SerialResult<$ty> {
            const VARIANTS: &[$ty] = &[$($ty::$variant),+];
            let tag = r.take_u8()? as usize;
            VARIANTS.get(tag).copied().ok_or_else(|| {
                SerialError::new(format!("invalid {} tag {tag}", stringify!($ty)))
            })
        }
    };
}

enum_codec!(
    put_bin_op,
    take_bin_op,
    BinOp,
    [Add, Sub, Mul, MulHi, Div, Rem, Min, Max, And, Or, Xor, Shl, Shr]
);
enum_codec!(put_un_op, take_un_op, UnOp, [Neg, Not, Abs, Sqrt, Rsqrt, Rcp, Sin, Cos, Ex2, Lg2]);
enum_codec!(put_cmp_pred, take_cmp_pred, CmpPred, [Eq, Ne, Lt, Le, Gt, Ge]);
enum_codec!(put_space, take_space, Space, [Global, Shared, Local, Param, Const, Spill]);
enum_codec!(put_atom_kind, take_atom_kind, AtomKind, [Add, Min, Max, Exch, Cas]);
enum_codec!(put_reduce_op, take_reduce_op, ReduceOp, [Add, All, Any]);
enum_codec!(put_resume_status, take_resume_status, ResumeStatus, [Branch, Barrier, Exit]);
enum_codec!(put_sty, take_sty, STy, [I1, I8, I16, I32, I64, F32, F64]);
enum_codec!(
    put_block_kind,
    take_block_kind,
    BlockKind,
    [Body, Scheduler, EntryHandler, ExitHandler]
);

/// Encode a scalar type tag followed by a lane width.
fn put_type(buf: &mut Vec<u8>, ty: Type) {
    put_sty(buf, ty.scalar);
    put_u32(buf, ty.width);
}

fn take_type(r: &mut Reader<'_>) -> SerialResult<Type> {
    let scalar = take_sty(r)?;
    let width = r.take_u32()?;
    if width == 0 {
        return Err(SerialError::new("zero-width type"));
    }
    Ok(Type { scalar, width })
}

fn put_vreg(buf: &mut Vec<u8>, r: VReg) {
    put_u32(buf, r.0);
}

fn take_vreg(r: &mut Reader<'_>) -> SerialResult<VReg> {
    Ok(VReg(r.take_u32()?))
}

fn put_value(buf: &mut Vec<u8>, v: Value) {
    match v {
        Value::Reg(r) => {
            put_u8(buf, 0);
            put_vreg(buf, r);
        }
        Value::ImmI(i) => {
            put_u8(buf, 1);
            put_i64(buf, i);
        }
        Value::ImmF(f) => {
            put_u8(buf, 2);
            put_f64(buf, f);
        }
    }
}

fn take_value(r: &mut Reader<'_>) -> SerialResult<Value> {
    match r.take_u8()? {
        0 => Ok(Value::Reg(take_vreg(r)?)),
        1 => Ok(Value::ImmI(r.take_i64()?)),
        2 => Ok(Value::ImmF(r.take_f64()?)),
        t => Err(SerialError::new(format!("invalid Value tag {t}"))),
    }
}

/// Append a [`CtxField`] as a tag byte plus a dimension byte.
pub fn put_ctx_field(buf: &mut Vec<u8>, f: CtxField) {
    let (tag, dim) = match f {
        CtxField::Tid(d) => (0u8, d),
        CtxField::Ntid(d) => (1, d),
        CtxField::Ctaid(d) => (2, d),
        CtxField::Nctaid(d) => (3, d),
        CtxField::LocalBase => (4, 0),
        CtxField::LaneId => (5, 0),
        CtxField::WarpSize => (6, 0),
        CtxField::EntryId => (7, 0),
    };
    put_u8(buf, tag);
    put_u8(buf, dim);
}

/// Read a [`CtxField`] written by [`put_ctx_field`].
pub fn take_ctx_field(r: &mut Reader<'_>) -> SerialResult<CtxField> {
    let tag = r.take_u8()?;
    let dim = r.take_u8()?;
    if tag <= 3 && dim > 2 {
        return Err(SerialError::new(format!("ctx field dimension {dim} out of range")));
    }
    Ok(match tag {
        0 => CtxField::Tid(dim),
        1 => CtxField::Ntid(dim),
        2 => CtxField::Ctaid(dim),
        3 => CtxField::Nctaid(dim),
        4 => CtxField::LocalBase,
        5 => CtxField::LaneId,
        6 => CtxField::WarpSize,
        7 => CtxField::EntryId,
        t => return Err(SerialError::new(format!("invalid CtxField tag {t}"))),
    })
}

fn put_block_id(buf: &mut Vec<u8>, b: BlockId) {
    put_u32(buf, b.0);
}

fn take_block_id(r: &mut Reader<'_>) -> SerialResult<BlockId> {
    Ok(BlockId(r.take_u32()?))
}

// ---------------------------------------------------------------------------
// Instructions and terminators
// ---------------------------------------------------------------------------

fn put_inst(buf: &mut Vec<u8>, inst: &Inst) {
    match inst {
        Inst::Bin { op, ty, signed, dst, a, b } => {
            put_u8(buf, 0);
            put_bin_op(buf, *op);
            put_type(buf, *ty);
            put_bool(buf, *signed);
            put_vreg(buf, *dst);
            put_value(buf, *a);
            put_value(buf, *b);
        }
        Inst::Un { op, ty, dst, a } => {
            put_u8(buf, 1);
            put_un_op(buf, *op);
            put_type(buf, *ty);
            put_vreg(buf, *dst);
            put_value(buf, *a);
        }
        Inst::Fma { ty, dst, a, b, c } => {
            put_u8(buf, 2);
            put_type(buf, *ty);
            put_vreg(buf, *dst);
            put_value(buf, *a);
            put_value(buf, *b);
            put_value(buf, *c);
        }
        Inst::Cmp { pred, ty, signed, dst, a, b } => {
            put_u8(buf, 3);
            put_cmp_pred(buf, *pred);
            put_type(buf, *ty);
            put_bool(buf, *signed);
            put_vreg(buf, *dst);
            put_value(buf, *a);
            put_value(buf, *b);
        }
        Inst::Select { ty, dst, cond, a, b } => {
            put_u8(buf, 4);
            put_type(buf, *ty);
            put_vreg(buf, *dst);
            put_value(buf, *cond);
            put_value(buf, *a);
            put_value(buf, *b);
        }
        Inst::Cvt { to, from, signed, width, dst, a } => {
            put_u8(buf, 5);
            put_sty(buf, *to);
            put_sty(buf, *from);
            put_bool(buf, *signed);
            put_u32(buf, *width);
            put_vreg(buf, *dst);
            put_value(buf, *a);
        }
        Inst::Load { ty, space, dst, addr } => {
            put_u8(buf, 6);
            put_sty(buf, *ty);
            put_space(buf, *space);
            put_vreg(buf, *dst);
            put_value(buf, *addr);
        }
        Inst::Store { ty, space, addr, value } => {
            put_u8(buf, 7);
            put_sty(buf, *ty);
            put_space(buf, *space);
            put_value(buf, *addr);
            put_value(buf, *value);
        }
        Inst::Atom { ty, space, op, signed, dst, addr, a, b } => {
            put_u8(buf, 8);
            put_sty(buf, *ty);
            put_space(buf, *space);
            put_atom_kind(buf, *op);
            put_bool(buf, *signed);
            put_vreg(buf, *dst);
            put_value(buf, *addr);
            put_value(buf, *a);
            match b {
                Some(b) => {
                    put_bool(buf, true);
                    put_value(buf, *b);
                }
                None => put_bool(buf, false),
            }
        }
        Inst::Insert { ty, dst, vec, elem, lane } => {
            put_u8(buf, 9);
            put_type(buf, *ty);
            put_vreg(buf, *dst);
            put_value(buf, *vec);
            put_value(buf, *elem);
            put_u32(buf, *lane);
        }
        Inst::Extract { ty, dst, vec, lane } => {
            put_u8(buf, 10);
            put_type(buf, *ty);
            put_vreg(buf, *dst);
            put_value(buf, *vec);
            put_u32(buf, *lane);
        }
        Inst::Splat { ty, dst, a } => {
            put_u8(buf, 11);
            put_type(buf, *ty);
            put_vreg(buf, *dst);
            put_value(buf, *a);
        }
        Inst::Reduce { op, ty, dst, vec } => {
            put_u8(buf, 12);
            put_reduce_op(buf, *op);
            put_type(buf, *ty);
            put_vreg(buf, *dst);
            put_value(buf, *vec);
        }
        Inst::CtxRead { field, lane, dst } => {
            put_u8(buf, 13);
            put_ctx_field(buf, *field);
            put_u32(buf, *lane);
            put_vreg(buf, *dst);
        }
        Inst::SetResumePoint { lane, value } => {
            put_u8(buf, 14);
            put_u32(buf, *lane);
            put_value(buf, *value);
        }
        Inst::SetResumeStatus { status } => {
            put_u8(buf, 15);
            put_resume_status(buf, *status);
        }
        Inst::Vote { op, dst, a } => {
            put_u8(buf, 16);
            put_reduce_op(buf, *op);
            put_vreg(buf, *dst);
            put_value(buf, *a);
        }
        Inst::Mov { ty, dst, a } => {
            put_u8(buf, 17);
            put_type(buf, *ty);
            put_vreg(buf, *dst);
            put_value(buf, *a);
        }
    }
}

fn take_inst(r: &mut Reader<'_>) -> SerialResult<Inst> {
    Ok(match r.take_u8()? {
        0 => Inst::Bin {
            op: take_bin_op(r)?,
            ty: take_type(r)?,
            signed: r.take_bool()?,
            dst: take_vreg(r)?,
            a: take_value(r)?,
            b: take_value(r)?,
        },
        1 => Inst::Un {
            op: take_un_op(r)?,
            ty: take_type(r)?,
            dst: take_vreg(r)?,
            a: take_value(r)?,
        },
        2 => Inst::Fma {
            ty: take_type(r)?,
            dst: take_vreg(r)?,
            a: take_value(r)?,
            b: take_value(r)?,
            c: take_value(r)?,
        },
        3 => Inst::Cmp {
            pred: take_cmp_pred(r)?,
            ty: take_type(r)?,
            signed: r.take_bool()?,
            dst: take_vreg(r)?,
            a: take_value(r)?,
            b: take_value(r)?,
        },
        4 => Inst::Select {
            ty: take_type(r)?,
            dst: take_vreg(r)?,
            cond: take_value(r)?,
            a: take_value(r)?,
            b: take_value(r)?,
        },
        5 => Inst::Cvt {
            to: take_sty(r)?,
            from: take_sty(r)?,
            signed: r.take_bool()?,
            width: r.take_u32()?,
            dst: take_vreg(r)?,
            a: take_value(r)?,
        },
        6 => Inst::Load {
            ty: take_sty(r)?,
            space: take_space(r)?,
            dst: take_vreg(r)?,
            addr: take_value(r)?,
        },
        7 => Inst::Store {
            ty: take_sty(r)?,
            space: take_space(r)?,
            addr: take_value(r)?,
            value: take_value(r)?,
        },
        8 => {
            let ty = take_sty(r)?;
            let space = take_space(r)?;
            let op = take_atom_kind(r)?;
            let signed = r.take_bool()?;
            let dst = take_vreg(r)?;
            let addr = take_value(r)?;
            let a = take_value(r)?;
            let b = if r.take_bool()? { Some(take_value(r)?) } else { None };
            Inst::Atom { ty, space, op, signed, dst, addr, a, b }
        }
        9 => Inst::Insert {
            ty: take_type(r)?,
            dst: take_vreg(r)?,
            vec: take_value(r)?,
            elem: take_value(r)?,
            lane: r.take_u32()?,
        },
        10 => Inst::Extract {
            ty: take_type(r)?,
            dst: take_vreg(r)?,
            vec: take_value(r)?,
            lane: r.take_u32()?,
        },
        11 => Inst::Splat { ty: take_type(r)?, dst: take_vreg(r)?, a: take_value(r)? },
        12 => Inst::Reduce {
            op: take_reduce_op(r)?,
            ty: take_type(r)?,
            dst: take_vreg(r)?,
            vec: take_value(r)?,
        },
        13 => Inst::CtxRead { field: take_ctx_field(r)?, lane: r.take_u32()?, dst: take_vreg(r)? },
        14 => Inst::SetResumePoint { lane: r.take_u32()?, value: take_value(r)? },
        15 => Inst::SetResumeStatus { status: take_resume_status(r)? },
        16 => Inst::Vote { op: take_reduce_op(r)?, dst: take_vreg(r)?, a: take_value(r)? },
        17 => Inst::Mov { ty: take_type(r)?, dst: take_vreg(r)?, a: take_value(r)? },
        t => return Err(SerialError::new(format!("invalid Inst tag {t}"))),
    })
}

fn put_term(buf: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Br(b) => {
            put_u8(buf, 0);
            put_block_id(buf, *b);
        }
        Term::CondBr { cond, taken, fall } => {
            put_u8(buf, 1);
            put_value(buf, *cond);
            put_block_id(buf, *taken);
            put_block_id(buf, *fall);
        }
        Term::Switch { value, cases, default } => {
            put_u8(buf, 2);
            put_value(buf, *value);
            put_u32(buf, cases.len() as u32);
            for (v, b) in cases {
                put_i64(buf, *v);
                put_block_id(buf, *b);
            }
            put_block_id(buf, *default);
        }
        Term::Ret => put_u8(buf, 3),
    }
}

fn take_term(r: &mut Reader<'_>) -> SerialResult<Term> {
    Ok(match r.take_u8()? {
        0 => Term::Br(take_block_id(r)?),
        1 => {
            Term::CondBr { cond: take_value(r)?, taken: take_block_id(r)?, fall: take_block_id(r)? }
        }
        2 => {
            let value = take_value(r)?;
            let n = r.take_len(12)?;
            let mut cases = Vec::with_capacity(n);
            for _ in 0..n {
                let v = r.take_i64()?;
                let b = take_block_id(r)?;
                cases.push((v, b));
            }
            Term::Switch { value, cases, default: take_block_id(r)? }
        }
        3 => Term::Ret,
        t => return Err(SerialError::new(format!("invalid Term tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Functions
// ---------------------------------------------------------------------------

/// Append the encoding of `f` to `buf`.
pub fn encode_function(f: &Function, buf: &mut Vec<u8>) {
    put_str(buf, &f.name);
    put_u32(buf, f.warp_size);
    put_u32(buf, f.regs.len() as u32);
    for ty in &f.regs {
        put_type(buf, *ty);
    }
    put_u32(buf, f.blocks.len() as u32);
    for b in &f.blocks {
        put_str(buf, &b.label);
        put_block_kind(buf, b.kind);
        put_u32(buf, b.insts.len() as u32);
        for i in &b.insts {
            put_inst(buf, i);
        }
        put_term(buf, &b.term);
    }
}

/// Decode one function from the reader.
///
/// Structural well-formedness beyond what the codec enforces (register
/// types matching uses, branch targets in range) is the caller's job —
/// run [`crate::verify`] on the result before trusting it.
pub fn decode_function(r: &mut Reader<'_>) -> SerialResult<Function> {
    let name = r.take_str()?;
    let warp_size = r.take_u32()?;
    if warp_size == 0 {
        return Err(SerialError::new("zero warp size"));
    }
    let nregs = r.take_len(5)?;
    let mut regs = Vec::with_capacity(nregs);
    for _ in 0..nregs {
        regs.push(take_type(r)?);
    }
    let nblocks = r.take_len(6)?;
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let label = r.take_str()?;
        let kind = take_block_kind(r)?;
        let ninsts = r.take_len(1)?;
        let mut insts = Vec::with_capacity(ninsts);
        for _ in 0..ninsts {
            insts.push(take_inst(r)?);
        }
        let term = take_term(r)?;
        blocks.push(Block { label, kind, insts, term });
    }
    Ok(Function { name, warp_size, regs, blocks })
}

/// Encode a function to a fresh byte vector.
pub fn function_to_bytes(f: &Function) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256 + f.instruction_count() * 24);
    encode_function(f, &mut buf);
    buf
}

/// Decode a function from a byte slice, requiring all input be consumed.
pub fn function_from_bytes(bytes: &[u8]) -> SerialResult<Function> {
    let mut r = Reader::new(bytes);
    let f = decode_function(&mut r)?;
    if !r.is_done() {
        return Err(SerialError::new(format!("{} trailing bytes after function", r.remaining())));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_function() -> Function {
        let mut f = Function::new("k_sample", 4);
        let r0 = f.new_reg(Type::scalar(STy::I64));
        let r1 = f.new_reg(Type::vector(STy::F32, 4));
        let r2 = f.new_reg(Type::vector(STy::I1, 4));
        let r3 = f.new_reg(Type::scalar(STy::I32));

        let mut entry = Block::new("entry");
        entry.kind = BlockKind::Scheduler;
        entry.insts.push(Inst::CtxRead { field: CtxField::Tid(0), lane: 2, dst: r3 });
        entry.insts.push(Inst::Load {
            ty: STy::F32,
            space: Space::Global,
            dst: r3,
            addr: Value::Reg(r0),
        });
        entry.term = Term::Switch {
            value: Value::Reg(r3),
            cases: vec![(0, BlockId(1)), (7, BlockId(1))],
            default: BlockId(1),
        };
        f.add_block(entry);

        let mut body = Block::new("body");
        body.insts.push(Inst::Fma {
            ty: Type::vector(STy::F32, 4),
            dst: r1,
            a: Value::Reg(r1),
            b: Value::ImmF(2.5),
            c: Value::ImmF(-0.0),
        });
        body.insts.push(Inst::Cmp {
            pred: CmpPred::Lt,
            ty: Type::vector(STy::F32, 4),
            signed: false,
            dst: r2,
            a: Value::Reg(r1),
            b: Value::ImmF(1.0e-30),
        });
        body.insts.push(Inst::Atom {
            ty: STy::I32,
            space: Space::Global,
            op: AtomKind::Cas,
            signed: false,
            dst: r3,
            addr: Value::Reg(r0),
            a: Value::ImmI(0),
            b: Some(Value::ImmI(1)),
        });
        body.insts.push(Inst::SetResumePoint { lane: 1, value: Value::ImmI(3) });
        body.insts.push(Inst::SetResumeStatus { status: ResumeStatus::Barrier });
        body.term = Term::CondBr { cond: Value::Reg(r2), taken: BlockId(2), fall: BlockId(2) };
        f.add_block(body);

        let mut exit = Block::new("exit");
        exit.kind = BlockKind::ExitHandler;
        exit.insts.push(Inst::Vote { op: ReduceOp::Any, dst: r2, a: Value::Reg(r2) });
        exit.term = Term::Ret;
        f.add_block(exit);
        f
    }

    #[test]
    fn function_round_trip() {
        let f = sample_function();
        let bytes = function_to_bytes(&f);
        let g = function_from_bytes(&bytes).expect("decode");
        assert_eq!(f, g);
    }

    #[test]
    fn encoding_is_deterministic() {
        let f = sample_function();
        assert_eq!(function_to_bytes(&f), function_to_bytes(&f));
    }

    #[test]
    fn nan_and_negative_zero_survive() {
        let mut f = Function::new("f", 1);
        let r = f.new_reg(Type::scalar(STy::F64));
        let mut b = Block::new("e");
        b.insts.push(Inst::Mov {
            ty: Type::scalar(STy::F64),
            dst: r,
            a: Value::ImmF(f64::from_bits(0x7ff8_dead_beef_0001)),
        });
        b.insts.push(Inst::Mov { ty: Type::scalar(STy::F64), dst: r, a: Value::ImmF(-0.0) });
        b.term = Term::Ret;
        f.add_block(b);
        let g = function_from_bytes(&function_to_bytes(&f)).expect("decode");
        match g.blocks[0].insts[0] {
            Inst::Mov { a: Value::ImmF(v), .. } => {
                assert_eq!(v.to_bits(), 0x7ff8_dead_beef_0001);
            }
            ref other => panic!("unexpected inst {other:?}"),
        }
        match g.blocks[0].insts[1] {
            Inst::Mov { a: Value::ImmF(v), .. } => assert!(v.to_bits() == (-0.0f64).to_bits()),
            ref other => panic!("unexpected inst {other:?}"),
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = function_to_bytes(&sample_function());
        for cut in 0..bytes.len() {
            assert!(
                function_from_bytes(&bytes[..cut]).is_err(),
                "decoding a {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let bytes = function_to_bytes(&sample_function());
        // Flip each byte in turn; decoding must either fail cleanly or
        // produce some (possibly different) function — never panic.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xff;
            let _ = function_from_bytes(&corrupt);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = function_to_bytes(&sample_function());
        bytes.push(0);
        assert!(function_from_bytes(&bytes).is_err());
    }

    #[test]
    fn implausible_length_rejected_quickly() {
        let mut bytes = Vec::new();
        put_str(&mut bytes, "f");
        put_u32(&mut bytes, 1); // warp_size
        put_u32(&mut bytes, u32::MAX); // claimed register count
        assert!(function_from_bytes(&bytes).is_err());
    }
}
