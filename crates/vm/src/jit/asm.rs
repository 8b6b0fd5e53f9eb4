//! A minimal x86-64 instruction emitter for the copy-and-patch JIT.
//!
//! Just enough of the ISA for the µop templates: 64/32-bit ALU forms,
//! loads/stores with `[base + disp32]` and `[base + index]` addressing,
//! the locked read-modify-write forms of the atomics, one VEX.128
//! encoder with the vector forms as [`Vop`] constants (register,
//! frame and RIP-relative constant operands), and rel32 branches with
//! back-patching. Registers are raw encodings
//! (`RAX`…) rather than an enum — the emitter is an internal tool, not
//! an API.

/// General-purpose register encodings.
pub const RAX: u8 = 0;
pub const RCX: u8 = 1;
pub const RDX: u8 = 2;
pub const RBX: u8 = 3;
pub const RBP: u8 = 5;
pub const RSI: u8 = 6;
pub const RDI: u8 = 7;
pub const R11: u8 = 11;
pub const R15: u8 = 15;

/// XMM register encodings: the scratch register by name; the residency
/// pool (`jit/resident.rs`) is `2..=15`.
pub const XMM0: u8 = 0;

/// Declares the host features generated code needs, once: the list
/// and the probe [`super::jit_supported`] gates compilation on.
macro_rules! host_features {
    ($($f:tt),*) => {
        /// Every instruction-set extension a form in this file belongs
        /// to: `fma` for `vfmadd213pd/ps`, `avx` for the VEX encoding
        /// of everything else, `sse4.1` for the instructions born there
        /// (`vpinsrq/d`, `vpmovzxdq`, `vroundpd`, `vblendvpd`). No
        /// `avx2`: there is no 256-bit form and no `vpbroadcast`.
        pub const HOST_FEATURES: &[&str] = &[$($f),*];

        /// Whether the host has every one of [`HOST_FEATURES`].
        #[cfg(target_arch = "x86_64")]
        pub fn host_has_features() -> bool {
            $(std::arch::is_x86_feature_detected!($f))&&*
        }
    };
}
host_features!("fma", "avx", "sse4.1");

/// Condition codes (the low nibble of `Jcc`/`SETcc`/`CMOVcc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cc {
    /// Below (unsigned <, or carry set).
    B = 0x2,
    /// Above or equal (unsigned >=).
    Ae = 0x3,
    /// Equal.
    E = 0x4,
    /// Not equal.
    Ne = 0x5,
    /// Below or equal (unsigned <=).
    Be = 0x6,
    /// Above (unsigned >).
    A = 0x7,
    /// Sign set (negative).
    S = 0x8,
    /// Less (signed <).
    L = 0xC,
    /// Greater or equal (signed >=).
    Ge = 0xD,
    /// Less or equal (signed <=).
    Le = 0xE,
    /// Greater (signed >).
    G = 0xF,
}

/// Two-operand ALU ops sharing the standard group-1 encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alu {
    Add = 0,
    Or = 1,
    And = 4,
    Sub = 5,
    Xor = 6,
    Cmp = 7,
}

/// Shift ops (group-2 `/n` extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sh {
    Shl = 4,
    Shr = 5,
    Sar = 7,
}

/// A forward-branch placeholder returned by the `*_fwd` emitters; the
/// rel32 at `pos` is patched by [`Asm::patch`] / [`Asm::bind`].
#[derive(Debug, Clone, Copy)]
pub struct Fixup {
    pos: usize,
}

/// A RIP-relative constant operand awaiting its address: the disp32 at
/// `pos`, relative to the end of its instruction at `end`; patched by
/// [`Asm::patch_rip`].
#[derive(Debug, Clone, Copy)]
pub struct RipFixup {
    pos: usize,
    end: usize,
}

/// The append-only code buffer.
#[derive(Debug, Default)]
pub struct Asm {
    buf: Vec<u8>,
}

impl Asm {
    /// An empty buffer with room for `bytes` of code.
    pub fn with_capacity(bytes: usize) -> Asm {
        Asm { buf: Vec::with_capacity(bytes) }
    }

    pub fn here(&self) -> usize {
        self.buf.len()
    }

    pub fn into_code(self) -> Vec<u8> {
        self.buf
    }

    /// Append the encoded instruction: one copy of all sixteen bytes
    /// of its word, cut back to the instruction's length.
    fn put(&mut self, i: Ins) {
        let end = self.buf.len() + i.len;
        self.buf.extend_from_slice(&i.bytes.to_le_bytes());
        self.buf.truncate(end);
    }

    /// Append `i` with a zero rel32 after it, to be patched; its fixup.
    fn put_rel32(&mut self, mut i: Ins) -> Fixup {
        let pos = self.here() + i.len;
        i.u32(0);
        self.put(i);
        Fixup { pos }
    }

    // -- moves --------------------------------------------------------

    /// `mov r64, imm` — movabs for wide values, the `imm32` forms when
    /// they round-trip.
    pub fn mov_ri(&mut self, r: u8, imm: u64) {
        let mut i = Ins::default();
        if imm <= u32::MAX as u64 {
            // mov r32, imm32 zero-extends.
            i.rex(false, 0, r);
            i.u8(0xB8 | (r & 7));
            i.u32(imm as u32);
        } else if imm as i64 >= i32::MIN as i64 && (imm as i64) <= i32::MAX as i64 {
            // mov r/m64, imm32 (sign-extended).
            i.rex(true, 0, r);
            i.u8(0xC7);
            i.modrm_reg(0, r);
            i.u32(imm as u32);
        } else {
            i.rex(true, 0, r);
            i.u8(0xB8 | (r & 7));
            i.u64(imm);
        }
        self.put(i);
    }

    /// `mov r64, r64`.
    pub fn mov_rr(&mut self, dst: u8, src: u8) {
        let mut i = Ins::default();
        i.rex(true, src, dst);
        i.u8(0x89);
        i.modrm_reg(src, dst);
        self.put(i);
    }

    /// `mov r32, r32` (zero-extends to 64 bits).
    pub fn mov_rr32(&mut self, dst: u8, src: u8) {
        let mut i = Ins::default();
        i.rex(false, src, dst);
        i.u8(0x89);
        i.modrm_reg(src, dst);
        self.put(i);
    }

    /// `mov r64, [base + disp]`.
    pub fn load(&mut self, r: u8, base: u8, disp: i32) {
        let mut i = Ins::default();
        i.rex(true, r, base);
        i.u8(0x8B);
        i.modrm_mem(r, base, disp);
        self.put(i);
    }

    /// `mov [base + disp], r64`.
    pub fn store(&mut self, base: u8, disp: i32, r: u8) {
        let mut i = Ins::default();
        i.rex(true, r, base);
        i.u8(0x89);
        i.modrm_mem(r, base, disp);
        self.put(i);
    }

    /// `mov r32, [base + disp]` (zero-extends).
    pub fn load32(&mut self, r: u8, base: u8, disp: i32) {
        let mut i = Ins::default();
        i.rex(false, r, base);
        i.u8(0x8B);
        i.modrm_mem(r, base, disp);
        self.put(i);
    }

    /// `mov [base + disp], r32`.
    pub fn store32(&mut self, base: u8, disp: i32, r: u8) {
        let mut i = Ins::default();
        i.rex(false, r, base);
        i.u8(0x89);
        i.modrm_mem(r, base, disp);
        self.put(i);
    }

    // -- atomics --------------------------------------------------------

    /// `lock xadd [base], r` (32- or 64-bit): `r` gets the old value.
    pub fn lock_xadd(&mut self, base: u8, r: u8, wide: bool) {
        let mut i = Ins::default();
        i.u8(0xF0);
        i.rex(wide, r, base);
        i.u8(0x0F);
        i.u8(0xC1);
        i.modrm_mem(r, base, 0);
        self.put(i);
    }

    /// `xchg [base], r` (32- or 64-bit; locked by definition): `r` gets
    /// the old value.
    pub fn xchg_mem(&mut self, base: u8, r: u8, wide: bool) {
        let mut i = Ins::default();
        i.rex(wide, r, base);
        i.u8(0x87);
        i.modrm_mem(r, base, 0);
        self.put(i);
    }

    /// `lock cmpxchg [base], r` (32- or 64-bit): stores `r` if the cell
    /// equals `rax`/`eax` (ZF set), else loads the cell into it.
    pub fn lock_cmpxchg(&mut self, base: u8, r: u8, wide: bool) {
        let mut i = Ins::default();
        i.u8(0xF0);
        i.rex(wide, r, base);
        i.u8(0x0F);
        i.u8(0xB1);
        i.modrm_mem(r, base, 0);
        self.put(i);
    }

    /// Zero-extending load of `sz` (1/2/4/8) bytes from `[base + index]`.
    pub fn load_index(&mut self, r: u8, base: u8, index: u8, sz: u8) {
        let mut i = Ins::default();
        match sz {
            1 => {
                i.rex_x(true, r, index, base);
                i.u8(0x0F);
                i.u8(0xB6);
            }
            2 => {
                i.rex_x(true, r, index, base);
                i.u8(0x0F);
                i.u8(0xB7);
            }
            4 => {
                i.rex_x(false, r, index, base);
                i.u8(0x8B);
            }
            _ => {
                i.rex_x(true, r, index, base);
                i.u8(0x8B);
            }
        }
        i.modrm_mem_index(r, base, index);
        self.put(i);
    }

    /// Store the low `sz` (1/2/4/8) bytes of `r` to `[base + index]`.
    pub fn store_index(&mut self, base: u8, index: u8, r: u8, sz: u8) {
        let mut i = Ins::default();
        match sz {
            1 => {
                // `r` is rax/rcx/rdx/rbx in practice; REX is still
                // emitted when any register is extended.
                i.rex_x(false, r, index, base);
                i.u8(0x88);
            }
            2 => {
                i.u8(0x66);
                i.rex_x(false, r, index, base);
                i.u8(0x89);
            }
            4 => {
                i.rex_x(false, r, index, base);
                i.u8(0x89);
            }
            _ => {
                i.rex_x(true, r, index, base);
                i.u8(0x89);
            }
        }
        i.modrm_mem_index(r, base, index);
        self.put(i);
    }

    /// `movzx r64, r8` / `movzx r64, r16` (register form).
    pub fn movzx_rr(&mut self, dst: u8, src: u8, sz: u8) {
        let mut i = Ins::default();
        i.rex(true, dst, src);
        i.u8(0x0F);
        i.u8(if sz == 1 { 0xB6 } else { 0xB7 });
        i.modrm_reg(dst, src);
        self.put(i);
    }

    /// `movsx r64, r8` / `movsx r64, r16` / `movsxd r64, r32`.
    pub fn movsx_rr(&mut self, dst: u8, src: u8, sz: u8) {
        let mut i = Ins::default();
        i.rex(true, dst, src);
        match sz {
            1 => {
                i.u8(0x0F);
                i.u8(0xBE);
            }
            2 => {
                i.u8(0x0F);
                i.u8(0xBF);
            }
            _ => i.u8(0x63),
        }
        i.modrm_reg(dst, src);
        self.put(i);
    }

    // -- ALU ----------------------------------------------------------

    /// `op r64, r64`.
    pub fn alu_rr(&mut self, op: Alu, dst: u8, src: u8) {
        let mut i = Ins::default();
        i.rex(true, src, dst);
        i.u8((op as u8) * 8 + 1);
        i.modrm_reg(src, dst);
        self.put(i);
    }

    /// `op r32, r32`.
    pub fn alu_rr32(&mut self, op: Alu, dst: u8, src: u8) {
        let mut i = Ins::default();
        i.rex(false, src, dst);
        i.u8((op as u8) * 8 + 1);
        i.modrm_reg(src, dst);
        self.put(i);
    }

    /// `op r64, imm32` (sign-extended).
    pub fn alu_ri(&mut self, op: Alu, dst: u8, imm: i32) {
        let mut i = Ins::default();
        i.rex(true, 0, dst);
        i.u8(0x81);
        i.modrm_reg(op as u8, dst);
        i.u32(imm as u32);
        self.put(i);
    }

    /// `op r64, [base + disp]`.
    pub fn alu_rm(&mut self, op: Alu, dst: u8, base: u8, disp: i32) {
        let mut i = Ins::default();
        i.rex(true, dst, base);
        i.u8((op as u8) * 8 + 3);
        i.modrm_mem(dst, base, disp);
        self.put(i);
    }

    /// `op qword [base + disp], imm32` (sign-extended).
    pub fn alu_mi(&mut self, op: Alu, base: u8, disp: i32, imm: i32) {
        let mut i = Ins::default();
        i.rex(true, 0, base);
        i.u8(0x81);
        i.modrm_mem(op as u8, base, disp);
        i.u32(imm as u32);
        self.put(i);
    }

    /// `op qword [base + disp], r64`.
    pub fn alu_mr(&mut self, op: Alu, base: u8, disp: i32, src: u8) {
        let mut i = Ins::default();
        i.rex(true, src, base);
        i.u8((op as u8) * 8 + 1);
        i.modrm_mem(src, base, disp);
        self.put(i);
    }

    /// `mov qword [base + disp], imm32` (sign-extended).
    pub fn store_imm(&mut self, base: u8, disp: i32, imm: i32) {
        let mut i = Ins::default();
        i.rex(true, 0, base);
        i.u8(0xC7);
        i.modrm_mem(0, base, disp);
        i.u32(imm as u32);
        self.put(i);
    }

    /// `imul r64, r64`.
    pub fn imul_rr(&mut self, dst: u8, src: u8) {
        let mut i = Ins::default();
        i.rex(true, dst, src);
        i.u8(0x0F);
        i.u8(0xAF);
        i.modrm_reg(dst, src);
        self.put(i);
    }

    /// `neg r64`.
    pub fn neg(&mut self, r: u8) {
        let mut i = Ins::default();
        i.rex(true, 0, r);
        i.u8(0xF7);
        i.modrm_reg(3, r);
        self.put(i);
    }

    /// `not r64`.
    pub fn not(&mut self, r: u8) {
        let mut i = Ins::default();
        i.rex(true, 0, r);
        i.u8(0xF7);
        i.modrm_reg(2, r);
        self.put(i);
    }

    /// `shl/shr/sar r64, cl`.
    pub fn shift_cl(&mut self, op: Sh, r: u8) {
        let mut i = Ins::default();
        i.rex(true, 0, r);
        i.u8(0xD3);
        i.modrm_reg(op as u8, r);
        self.put(i);
    }

    /// `shl/shr/sar r64, imm8`.
    pub fn shift_ri(&mut self, op: Sh, r: u8, imm: u8) {
        let mut i = Ins::default();
        i.rex(true, 0, r);
        i.u8(0xC1);
        i.modrm_reg(op as u8, r);
        i.u8(imm);
        self.put(i);
    }

    /// `test r64, r64`.
    pub fn test_rr(&mut self, a: u8, b: u8) {
        let mut i = Ins::default();
        i.rex(true, b, a);
        i.u8(0x85);
        i.modrm_reg(b, a);
        self.put(i);
    }

    /// `test r32, r32` (for helper return codes in `eax`; the upper
    /// half of `rax` is undefined under the ABI).
    pub fn test_rr32(&mut self, a: u8, b: u8) {
        let mut i = Ins::default();
        i.rex(false, b, a);
        i.u8(0x85);
        i.modrm_reg(b, a);
        self.put(i);
    }

    /// `test r64, imm32`.
    pub fn test_ri(&mut self, r: u8, imm: i32) {
        let mut i = Ins::default();
        i.rex(true, 0, r);
        i.u8(0xF7);
        i.modrm_reg(0, r);
        i.u32(imm as u32);
        self.put(i);
    }

    /// `setcc r8` (low byte; REX is always emitted so rsi/rdi encode
    /// their low byte, not ah-family).
    pub fn setcc(&mut self, cc: Cc, r: u8) {
        let mut i = Ins::default();
        i.u8(0x40 | u8::from(r >= 8));
        i.u8(0x0F);
        i.u8(0x90 | cc as u8);
        i.modrm_reg(0, r);
        self.put(i);
    }

    /// `cmovcc r64, r64`.
    pub fn cmov(&mut self, cc: Cc, dst: u8, src: u8) {
        let mut i = Ins::default();
        i.rex(true, dst, src);
        i.u8(0x0F);
        i.u8(0x40 | cc as u8);
        i.modrm_reg(dst, src);
        self.put(i);
    }

    /// `jmp rel32` forward; patch later.
    pub fn jmp_fwd(&mut self) -> Fixup {
        let mut i = Ins::default();
        i.u8(0xE9);
        self.put_rel32(i)
    }

    /// `jcc rel32` forward; patch later.
    pub fn jcc_fwd(&mut self, cc: Cc) -> Fixup {
        let mut i = Ins::default();
        i.u8(0x0F);
        i.u8(0x80 | cc as u8);
        self.put_rel32(i)
    }

    /// `jcc rel32` back to the already-emitted `target`.
    pub fn jcc_back(&mut self, cc: Cc, target: usize) {
        let f = self.jcc_fwd(cc);
        self.patch(f, target);
    }

    /// Resolve a forward fixup to `target`.
    pub fn patch(&mut self, f: Fixup, target: usize) {
        let rel = (target as i64 - (f.pos as i64 + 4)) as i32;
        self.buf[f.pos..f.pos + 4].copy_from_slice(&rel.to_le_bytes());
    }

    /// Bind a fixup to the current position.
    pub fn bind(&mut self, f: Fixup) {
        let here = self.here();
        self.patch(f, here);
    }

    /// `call r64`.
    pub fn call_reg(&mut self, r: u8) {
        let mut i = Ins::default();
        i.rex(false, 0, r);
        i.u8(0xFF);
        i.modrm_reg(2, r);
        self.put(i);
    }

    /// `push r64`.
    pub fn push(&mut self, r: u8) {
        let mut i = Ins::default();
        i.rex(false, 0, r);
        i.u8(0x50 | (r & 7));
        self.put(i);
    }

    /// `pop r64`.
    pub fn pop(&mut self, r: u8) {
        let mut i = Ins::default();
        i.rex(false, 0, r);
        i.u8(0x58 | (r & 7));
        self.put(i);
    }

    /// `ret`.
    pub fn ret(&mut self) {
        let mut i = Ins::default();
        i.u8(0xC3);
        self.put(i);
    }

    /// Pad with `int3` to a multiple of `align` bytes.
    pub fn align(&mut self, align: usize) {
        while !self.here().is_multiple_of(align) {
            self.buf.push(0xCC);
        }
    }

    /// Append a data qword (the constant pool after the code).
    pub fn data_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Point a RIP-relative operand at `target`.
    pub fn patch_rip(&mut self, f: RipFixup, target: usize) {
        let rel = (target as i64 - f.end as i64) as i32;
        self.buf[f.pos..f.pos + 4].copy_from_slice(&rel.to_le_bytes());
    }

    /// `op dst, src1, src2` over registers (xmm, or a GPR where the form
    /// takes one). Forms without a first source pass `src1 = 0`, which
    /// encodes the `vvvv = 1111` they require.
    pub fn vop(&mut self, o: Vop, dst: u8, src1: u8, src2: u8) {
        self.put(Ins::vop(o, dst, src1, src2));
    }

    /// `vmovaps dst, src`: a register copy, in the store form when that
    /// spares the three-byte prefix (only `src` extended).
    pub fn vmov(&mut self, dst: u8, src: u8) {
        if src >= 8 && dst < 8 {
            let mut i = Ins::default();
            i.vex(VMOVAPS_STORE, src, 0, false);
            i.modrm_reg(src, dst);
            self.put(i);
        } else {
            self.vop(VMOVAPS, dst, 0, src);
        }
    }

    /// [`Self::vop`] with a trailing `imm8`.
    pub fn vop_i(&mut self, o: Vop, dst: u8, src1: u8, src2: u8, imm: u8) {
        let mut i = Ins::vop(o, dst, src1, src2);
        i.u8(imm);
        self.put(i);
    }

    /// `vpsllq`/`vpsrlq dst, src, imm8`.
    pub fn vshift_q(&mut self, op: Sh, dst: u8, src: u8, imm: u8) {
        let ext = if op == Sh::Shl { 6 } else { 2 };
        self.vop_i(VPSHIFTQ, ext, dst, src, imm);
    }

    /// `vblendvpd dst, src1, src2, mask`: each qword from `src2` where
    /// `mask`'s sign bit is set, else from `src1`.
    pub fn vblendv(&mut self, dst: u8, src1: u8, src2: u8, mask: u8) {
        self.vop_i(VBLENDVPD, dst, src1, src2, mask << 4);
    }

    /// `op dst, src1, [rip + disp32]` (with `imm8` when given): a
    /// constant-pool operand, at an address patched later.
    pub fn vop_rip(&mut self, o: Vop, dst: u8, src1: u8, imm: Option<u8>) -> RipFixup {
        let mut i = Ins::default();
        i.vex(o, dst, src1, false);
        i.u8((dst & 7) << 3 | 5);
        let pos = self.here() + i.len;
        i.u32(0);
        if let Some(imm) = imm {
            i.u8(imm);
        }
        let end = self.here() + i.len;
        self.put(i);
        RipFixup { pos, end }
    }

    /// Load one lane into the low qword of `x` and zero the rest:
    /// `vmovq`, or `vmovd` when only the lane's low `dword` is wanted.
    pub fn vload_lane(&mut self, x: u8, base: u8, disp: i32, dword: bool) {
        self.put(Ins::vop_m(if dword { VMOVD_LOAD } else { VMOVQ_LOAD }, x, 0, base, disp));
    }

    /// Load a second lane beside the first: `vpinsrq x, x, [m], 1`, or
    /// `vpinsrd` into dword 1, which packs two f32 for `vcvtps2pd`.
    pub fn vinsert_lane(&mut self, x: u8, base: u8, disp: i32, dword: bool) {
        let mut i = Ins::vop_m(if dword { VPINSRD } else { VPINSRQ }, x, x, base, disp);
        i.u8(1);
        self.put(i);
    }

    /// `vmovddup x, [m]`: one lane load, broadcast to both qwords.
    pub fn vload_dup(&mut self, x: u8, base: u8, disp: i32) {
        self.put(Ins::vop_m(VMOVDDUP, x, 0, base, disp));
    }

    /// Store the chunk in `x`: `vmovdqu` for two lanes, `vmovq` for one.
    pub fn vstore(&mut self, base: u8, disp: i32, x: u8, lanes: u32) {
        let o = if lanes == 2 { VMOVDQU_STORE } else { VMOVQ_STORE };
        self.put(Ins::vop_m(o, x, 0, base, disp));
    }
}

/// One instruction being encoded. x86-64 caps an instruction at 15
/// bytes, so it is built in the little-endian bytes of one `u128` —
/// in registers, not in memory — and appended in one copy
/// ([`Asm::put`]) instead of byte by byte.
#[derive(Default)]
struct Ins {
    bytes: u128,
    len: usize,
}

impl Ins {
    fn u8(&mut self, b: u8) {
        self.bytes |= (b as u128) << (8 * self.len);
        self.len += 1;
    }

    fn u32(&mut self, v: u32) {
        self.bytes |= (v as u128) << (8 * self.len);
        self.len += 4;
    }

    fn u64(&mut self, v: u64) {
        self.bytes |= (v as u128) << (8 * self.len);
        self.len += 8;
    }

    /// REX prefix; emitted only when needed unless `w` forces it.
    fn rex(&mut self, w: bool, reg: u8, base: u8) {
        let r = (reg >= 8) as u8;
        let b = (base >= 8) as u8;
        if w || r != 0 || b != 0 {
            self.u8(0x40 | (w as u8) << 3 | r << 2 | b);
        }
    }

    /// REX for forms with an index register (`[base + index]`).
    fn rex_x(&mut self, w: bool, reg: u8, index: u8, base: u8) {
        let r = (reg >= 8) as u8;
        let x = (index >= 8) as u8;
        let b = (base >= 8) as u8;
        if w || r != 0 || x != 0 || b != 0 {
            self.u8(0x40 | (w as u8) << 3 | r << 2 | x << 1 | b);
        }
    }

    /// ModRM `mod=11` register-direct form.
    fn modrm_reg(&mut self, reg: u8, rm: u8) {
        self.u8(0xC0 | (reg & 7) << 3 | (rm & 7));
    }

    /// ModRM (+SIB) for `[base + disp]`.
    fn modrm_mem(&mut self, reg: u8, base: u8, disp: i32) {
        let reg7 = reg & 7;
        let base7 = base & 7;
        let need_sib = base7 == 4; // rsp/r12 need a SIB byte
        let md: u8 = if disp == 0 && base7 != 5 {
            0
        } else if (-128..=127).contains(&disp) {
            1
        } else {
            2
        };
        self.u8(md << 6 | reg7 << 3 | if need_sib { 4 } else { base7 });
        if need_sib {
            self.u8(0x24); // scale=0, no index, base=rsp/r12
        }
        match md {
            1 => self.u8(disp as u8),
            2 => self.u32(disp as u32),
            _ => {}
        }
    }

    /// ModRM + SIB for `[base + index]` (scale 1, no displacement).
    fn modrm_mem_index(&mut self, reg: u8, base: u8, index: u8) {
        debug_assert!(index & 7 != 4, "rsp cannot be an index");
        let base7 = base & 7;
        if base7 == 5 {
            // rbp/r13 base needs an explicit disp8 of 0.
            self.u8(0x40 | (reg & 7) << 3 | 4);
            self.u8((index & 7) << 3 | base7);
            self.u8(0);
        } else {
            self.u8((reg & 7) << 3 | 4);
            self.u8((index & 7) << 3 | base7);
        }
    }

    /// The one VEX encoder: prefix and opcode of `o` with `reg` in
    /// ModRM.reg and `vvvv` as the second source. VEX.L is always 0 —
    /// no 256-bit form exists here (R3) — and the two-byte prefix is
    /// used whenever the form allows it.
    fn vex(&mut self, o: Vop, reg: u8, vvvv: u8, rm_ext: bool) {
        let r = u8::from(reg < 8) << 7;
        let tail = (!vvvv & 0xF) << 3 | o.pp;
        if o.map == 1 && !o.w && !rm_ext {
            self.u8(0xC5);
            self.u8(r | tail);
        } else {
            self.u8(0xC4);
            self.u8(r | 0x40 | u8::from(!rm_ext) << 5 | o.map);
            self.u8(u8::from(o.w) << 7 | tail);
        }
        self.u8(o.op);
    }

    /// `op dst, src1, src2` over registers.
    fn vop(o: Vop, dst: u8, src1: u8, src2: u8) -> Ins {
        let mut i = Ins::default();
        i.vex(o, dst, src1, src2 >= 8);
        i.modrm_reg(dst, src2);
        i
    }

    /// Memory-operand form. What generated code may do to the frame is
    /// the four [`Asm`] methods built on it — loads no wider than a lane
    /// (R1), stores of a whole chunk (R2).
    fn vop_m(o: Vop, reg: u8, vvvv: u8, base: u8, disp: i32) -> Ins {
        let mut i = Ins::default();
        i.vex(o, reg, vvvv, base >= 8);
        i.modrm_mem(reg, base, disp);
        i
    }
}

/// A VEX.128-encoded operation: opcode map (1 = `0F`, 2 = `0F38`,
/// 3 = `0F3A`), mandatory prefix (0 none, 1 = `66`, 2 = `F3`, 3 = `F2`),
/// VEX.W and the opcode byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vop {
    map: u8,
    pp: u8,
    w: bool,
    op: u8,
}

const fn v(map: u8, pp: u8, w: bool, op: u8) -> Vop {
    Vop { map, pp, w, op }
}

impl Vop {
    /// The float form of `0F op` for a chunk of `lanes` f32 or f64:
    /// `ps`/`pd` (prefix 0/1), and `ss`/`sd` (2/3) for one lane, so no
    /// lane that is not there is computed (a packed divide would raise
    /// 0/0 in it).
    pub const fn float(op: u8, f32: bool, lanes: u32) -> Vop {
        v(1, 2 * (lanes == 1) as u8 + !f32 as u8, false, op)
    }
}

/// Float opcodes for [`Vop::float`].
pub const F_ADD: u8 = 0x58;
pub const F_MUL: u8 = 0x59;
pub const F_SUB: u8 = 0x5C;
pub const F_DIV: u8 = 0x5E;
pub const F_SQRT: u8 = 0x51;
/// `vcmpps`/`vcmppd`; takes the predicate as `imm8`.
pub const F_CMP: u8 = 0xC2;

const VMOVQ_LOAD: Vop = v(1, 2, false, 0x7E);
const VMOVD_LOAD: Vop = v(1, 1, false, 0x6E);
const VPINSRQ: Vop = v(3, 1, true, 0x22);
const VPINSRD: Vop = v(3, 1, false, 0x22);
const VMOVDQU_STORE: Vop = v(1, 2, false, 0x7F);
const VMOVQ_STORE: Vop = v(1, 1, false, 0xD6);
const VPSHIFTQ: Vop = v(1, 1, false, 0x73);
/// `vmovq xmm, r64` / `vmovq r64, xmm` (the xmm is `dst` in both).
pub const VMOVQ_XR: Vop = v(1, 1, true, 0x6E);
pub const VMOVQ_RX: Vop = v(1, 1, true, 0x7E);
pub const VMOVDDUP: Vop = v(1, 3, false, 0x12);
/// `vcvtsi2sd xmm, xmm, r64`: exact for |v| < 2^53, and the i64 → f64
/// rounding of Rust `as f64` beyond.
pub const VCVTSI2SD: Vop = v(1, 3, true, 0x2A);
/// `vcvttsd2si r64, xmm`: overflow and NaN give the `i64::MIN`
/// sentinel the `Cvt` template tests before its saturating slow path.
pub const VCVTTSD2SI: Vop = v(1, 3, true, 0x2C);
/// f32 ↔ f64 over the two low lanes; the widening quiets an sNaN
/// exactly like Rust `as f64`.
pub const VCVTPS2PD: Vop = v(1, 0, false, 0x5A);
pub const VCVTPD2PS: Vop = v(1, 1, false, 0x5A);
/// Two packed dwords → two zero-extended qwords: packed f32 back onto
/// the slot layout.
pub const VPMOVZXDQ: Vop = v(2, 1, false, 0x35);
/// `dst = dst * src1 + src2`, one rounding per lane — the hardware
/// twin of `f64::mul_add`.
pub const VFMADD213PD: Vop = v(2, 1, true, 0xA8);
/// `dst = dst * src2 + src1`.
pub const VFMADD132PD: Vop = v(2, 1, true, 0x98);
/// The f32 twins of the two above: `f32::mul_add` on four dwords.
pub const VFMADD213PS: Vop = v(2, 1, false, 0xA8);
pub const VFMADD132PS: Vop = v(2, 1, false, 0x98);
pub const VPAND: Vop = v(1, 1, false, 0xDB);
pub const VPOR: Vop = v(1, 1, false, 0xEB);
pub const VPXOR: Vop = v(1, 1, false, 0xEF);
pub const VPADDQ: Vop = v(1, 1, false, 0xD4);
pub const VPSUBQ: Vop = v(1, 1, false, 0xFB);
/// `vminpd`/`vmaxpd`: of two unequal non-NaN lanes the smaller/larger,
/// as `f64::min`/`f64::max` on them.
pub const VMINPD: Vop = v(1, 1, false, 0x5D);
pub const VMAXPD: Vop = v(1, 1, false, 0x5F);
/// `vroundpd dst, src, imm8` (`src1 = 0`); imm8 8 rounds to nearest,
/// ties to even, exception-free: `f64::round_ties_even`.
pub const VROUNDPD: Vop = v(3, 1, false, 0x09);
/// `vmovmskpd r32, xmm` (`src1 = 0`): the two sign bits.
pub const VMOVMSKPD: Vop = v(1, 1, false, 0x50);
const VBLENDVPD: Vop = v(3, 1, false, 0x4B);
const VMOVAPS: Vop = v(1, 0, false, 0x28);
const VMOVAPS_STORE: Vop = v(1, 0, false, 0x29);
/// `vpshufd xmm, xmm, imm8` (`src1 = 0`): dword shuffle; packs the two
/// f32 of a slot-layout chunk for `vcvtps2pd`.
pub const VPSHUFD: Vop = v(1, 1, false, 0x70);

#[cfg(test)]
mod tests {
    use super::*;

    const XMM1: u8 = 1;

    /// Spot-check encodings against hand-assembled bytes (GNU as
    /// output).
    #[test]
    fn encodings_match_reference() {
        let mut a = Asm::with_capacity(64);
        a.mov_rr(RAX, RBX); // 48 89 d8
        a.load(RAX, RBX, 8); // 48 8b 43 08
        a.store(RBX, 256, RCX); // 48 89 8b 00 01 00 00
        a.alu_rr32(Alu::Add, RAX, RCX); // 01 c8
        a.alu_mi(Alu::Add, R15, 0x10, 5); // 49 81 47 10 05 00 00 00
        a.setcc(Cc::E, RCX); // 40 0f 94 c1
        a.vop(Vop::float(F_ADD, true, 2), XMM0, XMM0, XMM1); // vaddps: c5 f8 58 c1
        a.vop(Vop::float(F_ADD, false, 1), XMM0, XMM0, XMM1); // vaddsd: c5 fb 58 c1
        a.vop(VFMADD213PD, XMM0, XMM1, 2); // W1: c4 e2 f1 a8 c2
        a.vop(VPMOVZXDQ, XMM0, 0, XMM0); // 0F38: c4 e2 79 35 c0
        a.vop(VMOVQ_XR, XMM1, 0, R11); // VEX.B: c4 c1 f9 6e cb
        a.vop(VCVTTSD2SI, RAX, 0, XMM0); // c4 e1 fb 2c c0
        a.vload_lane(XMM0, RBX, 8, false); // vmovq, disp8: c5 fa 7e 43 08
        a.vload_lane(2, RBX, 0, true); // vmovd: c5 f9 6e 13
        a.vinsert_lane(XMM0, RBX, 0x100, false); // vpinsrq, disp32, imm8
        a.vinsert_lane(XMM1, RBX, 12, true); // vpinsrd: c4 e3 71 22 4b 0c 01
        a.vload_dup(XMM1, RBX, 0x80); // vmovddup: c5 fb 12 8b 80 00 00 00
        a.vstore(RBX, 16, XMM0, 2); // vmovdqu: c5 fa 7f 43 10
        a.vstore(RBX, 0x200, XMM0, 1); // vmovq: c5 f9 d6 83 00 02 00 00
        a.vshift_q(Sh::Shl, XMM0, XMM0, 63); // vpsllq: c5 f9 73 f0 3f
        a.vshift_q(Sh::Shr, XMM0, XMM0, 63); // vpsrlq: c5 f9 73 d0 3f
        a.vop_i(Vop::float(F_CMP, false, 2), XMM0, XMM0, XMM1, 0x1E); // vcmppd

        // The residency pool's forms: register copies, and xmm8–15 in
        // every operand position (VEX.R, VEX.B, a four-bit `vvvv`).
        a.vmov(3, 9); // vmovaps xmm3, xmm9 (store form): c5 78 29 cb
        a.vmov(12, XMM0); // vmovaps xmm12, xmm0: c5 78 28 e0
        a.vmov(15, 8); // vmovaps xmm15, xmm8: c4 41 78 28 f8
        a.vop(VFMADD213PD, 10, 11, 13); // c4 42 a1 a8 d5
        a.vop_i(VPSHUFD, 4, 0, 14, 8); // vpshufd xmm4, xmm14, 8: c4 c1 79 70 e6 08
        a.vop_i(VPSHUFD, 3, 0, 3, 8); // c5 f9 70 db 08
        a.vload_lane(9, RBX, 8, false); // vmovq xmm9, [rbx+8]: c5 7a 7e 4b 08
        a.vstore(RBX, 16, 15, 2); // vmovdqu [rbx+16], xmm15: c5 7a 7f 7b 10
        a.vop(VCVTPS2PD, 5, 0, 8); // c4 c1 78 5a e8
        a.vinsert_lane(11, RBX, 12, true); // vpinsrd: c4 63 21 22 5b 0c 01
        a.vshift_q(Sh::Shl, 13, 13, 63); // vpsllq xmm13, xmm13, 63: c4 c1 11 73 f5 3f
        a.vop(VMOVQ_XR, 9, 0, R11); // vmovq xmm9, r11: c4 41 f9 6e cb
        a.vop(VMOVQ_RX, 12, 0, RDI); // vmovq rdi, xmm12: c4 61 f9 7e e7
        a.vload_dup(14, RBX, 0x80); // vmovddup: c5 7b 12 b3 80 00 00 00
        a.vop(Vop::float(F_ADD, true, 2), 8, 15, 3); // vaddps: c5 00 58 c3
        a.vop_i(Vop::float(F_CMP, false, 2), 10, 4, 12, 0x1E); // c4 41 59 c2 d4 1e
        a.vop(VPXOR, 6, 9, 10); // c4 c1 31 ef f2
        a.vop(Vop::float(F_SQRT, true, 1), 7, 12, 12); // vsqrtss: c4 c1 1a 51 fc
        a.vop(VCVTTSD2SI, RAX, 0, 11); // c4 c1 fb 2c c3
        a.vop(VFMADD132PD, 4, 9, 3); // vfmadd132pd xmm4, xmm9, xmm3: c4 e2 b1 98 e3
        let code = a.into_code();
        assert_eq!(
            code,
            [
                0x48, 0x89, 0xD8, //
                0x48, 0x8B, 0x43, 0x08, //
                0x48, 0x89, 0x8B, 0x00, 0x01, 0x00, 0x00, //
                0x01, 0xC8, //
                0x49, 0x81, 0x47, 0x10, 0x05, 0x00, 0x00, 0x00, //
                0x40, 0x0F, 0x94, 0xC1, //
                0xC5, 0xF8, 0x58, 0xC1, //
                0xC5, 0xFB, 0x58, 0xC1, //
                0xC4, 0xE2, 0xF1, 0xA8, 0xC2, //
                0xC4, 0xE2, 0x79, 0x35, 0xC0, //
                0xC4, 0xC1, 0xF9, 0x6E, 0xCB, //
                0xC4, 0xE1, 0xFB, 0x2C, 0xC0, //
                0xC5, 0xFA, 0x7E, 0x43, 0x08, //
                0xC5, 0xF9, 0x6E, 0x13, //
                0xC4, 0xE3, 0xF9, 0x22, 0x83, 0x00, 0x01, 0x00, 0x00, 0x01, //
                0xC4, 0xE3, 0x71, 0x22, 0x4B, 0x0C, 0x01, //
                0xC5, 0xFB, 0x12, 0x8B, 0x80, 0x00, 0x00, 0x00, //
                0xC5, 0xFA, 0x7F, 0x43, 0x10, //
                0xC5, 0xF9, 0xD6, 0x83, 0x00, 0x02, 0x00, 0x00, //
                0xC5, 0xF9, 0x73, 0xF0, 0x3F, //
                0xC5, 0xF9, 0x73, 0xD0, 0x3F, //
                0xC5, 0xF9, 0xC2, 0xC1, 0x1E, //
                0xC5, 0x78, 0x29, 0xCB, //
                0xC5, 0x78, 0x28, 0xE0, //
                0xC4, 0x41, 0x78, 0x28, 0xF8, //
                0xC4, 0x42, 0xA1, 0xA8, 0xD5, //
                0xC4, 0xC1, 0x79, 0x70, 0xE6, 0x08, //
                0xC5, 0xF9, 0x70, 0xDB, 0x08, //
                0xC5, 0x7A, 0x7E, 0x4B, 0x08, //
                0xC5, 0x7A, 0x7F, 0x7B, 0x10, //
                0xC4, 0xC1, 0x78, 0x5A, 0xE8, //
                0xC4, 0x63, 0x21, 0x22, 0x5B, 0x0C, 0x01, //
                0xC4, 0xC1, 0x11, 0x73, 0xF5, 0x3F, //
                0xC4, 0x41, 0xF9, 0x6E, 0xCB, //
                0xC4, 0x61, 0xF9, 0x7E, 0xE7, //
                0xC5, 0x7B, 0x12, 0xB3, 0x80, 0x00, 0x00, 0x00, //
                0xC5, 0x00, 0x58, 0xC3, //
                0xC4, 0x41, 0x59, 0xC2, 0xD4, 0x1E, //
                0xC4, 0xC1, 0x31, 0xEF, 0xF2, //
                0xC4, 0xC1, 0x1A, 0x51, 0xFC, //
                0xC4, 0xC1, 0xFB, 0x2C, 0xC3, //
                0xC4, 0xE2, 0xB1, 0x98, 0xE3,
            ]
        );
    }

    /// The forms the atomic and transcendental templates added.
    #[test]
    fn atomic_and_constant_pool_encodings_match_reference() {
        let mut a = Asm::with_capacity(64);
        a.lock_xadd(RSI, RCX, false); // lock xadd [rsi], ecx: f0 0f c1 0e
        a.lock_xadd(RSI, RCX, true); // lock xadd [rsi], rcx: f0 48 0f c1 0e
        a.xchg_mem(RSI, RCX, false); // xchg [rsi], ecx: 87 0e
        a.lock_cmpxchg(RSI, RDX, true); // lock cmpxchg [rsi], rdx: f0 48 0f b1 16
        a.store32(RSI, 0, RDX); // mov [rsi], edx: 89 16
        a.vop_i(VROUNDPD, 2, 0, 3, 8); // vroundpd xmm2, xmm3, 8: c4 e3 79 09 d3 08
        a.vblendv(2, 3, 4, 5); // vblendvpd xmm2, xmm3, xmm4, xmm5: c4 e3 61 4b d4 50
        a.vop(VMOVMSKPD, RAX, 0, 2); // vmovmskpd eax, xmm2: c5 f9 50 c2
        a.vshift_q(Sh::Shl, 2, 3, 63); // vpsllq xmm2, xmm3, 63: c5 e9 73 f3 3f
        a.vop(VFMADD213PS, 2, 3, 4); // vfmadd213ps xmm2, xmm3, xmm4: c4 e2 61 a8 d4
        a.vop(VPADDQ, 2, 3, 4); // vpaddq xmm2, xmm3, xmm4: c5 e1 d4 d4
        let f = a.vop_rip(Vop::float(F_MUL, false, 2), 2, 3, None); // vmulpd xmm2, xmm3, [rip+d]
        let g = a.vop_rip(Vop::float(F_CMP, false, 2), 2, 3, Some(0x12)); // vcmplepd, imm after disp
        let pool = a.here();
        a.patch_rip(f, pool);
        a.patch_rip(g, pool);
        let code = a.into_code();
        assert_eq!(
            code,
            [
                0xF0, 0x0F, 0xC1, 0x0E, //
                0xF0, 0x48, 0x0F, 0xC1, 0x0E, //
                0x87, 0x0E, //
                0xF0, 0x48, 0x0F, 0xB1, 0x16, //
                0x89, 0x16, //
                0xC4, 0xE3, 0x79, 0x09, 0xD3, 0x08, //
                0xC4, 0xE3, 0x61, 0x4B, 0xD4, 0x50, //
                0xC5, 0xF9, 0x50, 0xC2, //
                0xC5, 0xE9, 0x73, 0xF3, 0x3F, //
                0xC4, 0xE2, 0x61, 0xA8, 0xD4, //
                0xC5, 0xE1, 0xD4, 0xD4, //
                0xC5, 0xE1, 0x59, 0x15, 0x09, 0x00, 0x00, 0x00, //
                0xC5, 0xE1, 0xC2, 0x15, 0x00, 0x00, 0x00, 0x00, 0x12,
            ]
        );
    }

    #[test]
    fn rel32_patching() {
        let mut a = Asm::with_capacity(64);
        let f = a.jmp_fwd(); // 5 bytes
        a.mov_rr(RAX, RBX); // 3 bytes
        a.bind(f); // target = 8
        assert_eq!(&a.into_code()[1..5], &3i32.to_le_bytes());
    }
}
