//! The programming model, written down once: a reference evaluator that
//! interprets a `dpvk-ptx` kernel directly. No IR, no vectorizer, no
//! engine: each thread of a CTA runs alone up to its next `bar.sync` or
//! `ret`, then the next thread runs, until every thread has exited; CTAs
//! run one after another. This is the serialized execution that warps,
//! yield-on-diverge and dynamic warp formation must not be told apart
//! from. It produces memory images only, no modeled cycles.
//!
//! The numeric leaf rules are re-implemented here rather than imported:
//! registers hold values zero-extended to their width; f32 operations
//! widen to f64, compute once and narrow (so an f32 sNaN comes back
//! quieted, `neg`/`abs` included); an arithmetic NaN result propagates
//! the first NaN operand, quieted; `fma` rounds once; float → integer
//! conversions truncate, saturate at 64 bits and wrap to the width; shift
//! amounts wrap at the width.
//!
//! Outside the model (the evaluator panics): `%laneid`, `%warpsize`,
//! `.const`, address-of a `.local` variable, out-of-bounds accesses,
//! zero divisors, and `vote` on a predicate that is not CTA-uniform (it
//! is evaluated as if it were).

use dpvk::ptx::{
    Address, AddressBase, AddressSpace, AtomOp, CmpOp, Dim, Instruction, Kernel, MulHalf, Opcode,
    Operand, ScalarType, SpecialReg, VoteMode,
};

/// One launch of a kernel: its geometry and parameter buffer. `global`
/// memory is the byte range `[base, base + len)` of the caller's image.
pub struct Launch<'a> {
    pub grid: [u32; 3],
    pub block: [u32; 3],
    pub params: &'a [u8],
    pub base: u64,
}

/// Run `k` to completion over `global`, in place.
pub fn run(k: &Kernel, launch: &Launch, global: &mut [u8]) {
    let labels: Vec<(&str, usize)> =
        k.blocks.iter().enumerate().map(|(i, b)| (b.label.as_str(), i)).collect();
    let [gx, gy, gz] = launch.grid;
    for ctaid in (0..gz).flat_map(|z| (0..gy).flat_map(move |y| (0..gx).map(move |x| [x, y, z]))) {
        let mut cta = Cta {
            k,
            launch,
            labels: &labels,
            ctaid,
            shared: vec![0; k.shared_size()],
            global: &mut *global,
        };
        let [bx, by, bz] = launch.block;
        let mut threads: Vec<Thread> = (0..bz)
            .flat_map(|z| (0..by).flat_map(move |y| (0..bx).map(move |x| [x, y, z])))
            .map(|tid| Thread {
                tid,
                regs: vec![0; k.registers.len()],
                local: vec![0; k.local_size()],
                at: (0, 0),
                done: false,
                steps: 0,
            })
            .collect();
        // One round runs every live thread to its next barrier or exit;
        // the barrier completes when the round does.
        while threads.iter().any(|t| !t.done) {
            for t in threads.iter_mut().filter(|t| !t.done) {
                cta.run_to_barrier(t);
            }
        }
    }
}

struct Thread {
    tid: [u32; 3],
    regs: Vec<u64>,
    local: Vec<u8>,
    /// (block, instruction) of the next instruction.
    at: (usize, usize),
    done: bool,
    steps: u64,
}

struct Cta<'a, 'g> {
    k: &'a Kernel,
    launch: &'a Launch<'a>,
    labels: &'a [(&'a str, usize)],
    ctaid: [u32; 3],
    shared: Vec<u8>,
    global: &'g mut [u8],
}

fn bits(t: ScalarType) -> u32 {
    if t == ScalarType::Pred {
        1
    } else {
        8 * t.size_bytes() as u32
    }
}

fn mask(v: u64, t: ScalarType) -> u64 {
    match bits(t) {
        64 => v,
        n => v & ((1 << n) - 1),
    }
}

fn sext(v: u64, t: ScalarType) -> i64 {
    let n = 64 - bits(t);
    ((v << n) as i64) >> n
}

fn f_of(v: u64, t: ScalarType) -> f64 {
    match t {
        ScalarType::F32 => f32::from_bits(v as u32) as f64,
        _ => f64::from_bits(v),
    }
}

/// Narrowing to f32 quiets a NaN; set the bit by hand, since a compiler
/// may drop a widen–narrow pair around a value that is only moved.
fn f_enc(x: f64, t: ScalarType) -> u64 {
    match t {
        ScalarType::F32 => ((x as f32).to_bits() | if x.is_nan() { 1 << 22 } else { 0 }) as u64,
        _ => x.to_bits(),
    }
}

fn quiet(x: f64) -> f64 {
    f64::from_bits(x.to_bits() | 1 << 51)
}

/// `f(x, y)` unless an operand is NaN: then the first NaN, quieted.
fn arith(t: ScalarType, a: u64, b: u64, f: impl Fn(f64, f64) -> f64) -> u64 {
    let (x, y) = (f_of(a, t), f_of(b, t));
    let r = if x.is_nan() {
        quiet(x)
    } else if y.is_nan() {
        quiet(y)
    } else {
        f(x, y)
    };
    f_enc(r, t)
}

fn compare(op: CmpOp, t: ScalarType, a: u64, b: u64) -> u64 {
    let r = if t.is_float() {
        op.eval_f64(f_of(a, t), f_of(b, t))
    } else if t.is_signed() {
        op.eval_i64(sext(a, t), sext(b, t))
    } else {
        op.eval_u64(mask(a, t), mask(b, t))
    };
    r as u64
}

fn cvt(to: ScalarType, from: ScalarType, a: u64) -> u64 {
    if from.is_float() {
        let x = f_of(a, from);
        return match () {
            _ if to.is_float() => f_enc(x, to),
            _ if to.is_signed() => mask(x as i64 as u64, to),
            _ => mask(x as u64, to),
        };
    }
    let v = if from.is_signed() { sext(a, from) as u64 } else { mask(a, from) };
    match () {
        _ if to.is_float() && from.is_signed() => f_enc(v as i64 as f64, to),
        _ if to.is_float() => f_enc(v as f64, to),
        _ => mask(v, to),
    }
}

impl Cta<'_, '_> {
    fn special(&self, t: &Thread, s: SpecialReg) -> u64 {
        let d = |d: Dim| match d {
            Dim::X => 0,
            Dim::Y => 1,
            Dim::Z => 2,
        };
        (match s {
            SpecialReg::Tid(x) => t.tid[d(x)],
            SpecialReg::Ntid(x) => self.launch.block[d(x)],
            SpecialReg::Ctaid(x) => self.ctaid[d(x)],
            SpecialReg::Nctaid(x) => self.launch.grid[d(x)],
            other => panic!("{other} depends on warp formation; the model has no warps"),
        }) as u64
    }

    /// Operand `op` read at type `at`.
    fn value(&self, t: &Thread, op: &Operand, at: ScalarType) -> u64 {
        match op {
            Operand::Reg(r) => t.regs[r.index()],
            Operand::Imm(i) => mask(*i as u64, at),
            Operand::ImmF(x) if at.is_float() => f_enc(*x, at),
            Operand::ImmF(x) => mask(*x as i64 as u64, at),
            Operand::Special(s) if at.is_integer() => mask(self.special(t, *s), at),
            Operand::Special(s) => self.special(t, *s),
            Operand::Sym(name) => {
                let var = self.k.var(name).expect("validated");
                assert_eq!(var.space, AddressSpace::Shared, "address-of a .local variable");
                var.offset as u64
            }
            Operand::Addr(_) => panic!("address in value position"),
        }
    }

    fn address(&self, t: &Thread, op: &Operand) -> u64 {
        let Operand::Addr(Address { base, offset }) = op else { panic!("not an address: {op}") };
        let (base, ty) = match base {
            AddressBase::Reg(r) => (t.regs[r.index()], self.k.reg_type(*r)),
            AddressBase::Param(p) => {
                (self.k.param(p).expect("validated").offset as u64, ScalarType::U64)
            }
            AddressBase::Var(v) => {
                (self.k.var(v).expect("validated").offset as u64, ScalarType::U64)
            }
            AddressBase::Absolute => (0, ScalarType::U64),
        };
        mask(base.wrapping_add(*offset as u64), ty)
    }

    fn bytes<'m>(
        &'m mut self,
        t: &'m mut Thread,
        space: AddressSpace,
        addr: u64,
        n: usize,
    ) -> &'m mut [u8] {
        let (mem, at): (&mut [u8], u64) = match space {
            AddressSpace::Global => (&mut *self.global, addr.wrapping_sub(self.launch.base)),
            AddressSpace::Shared => (&mut self.shared, addr),
            AddressSpace::Local => (&mut t.local, addr),
            other => panic!("no writable .{other} memory"),
        };
        let len = mem.len();
        mem.get_mut(at as usize..at as usize + n)
            .unwrap_or_else(|| panic!("{n}-byte .{space} access at {at:#x} outside {len} bytes"))
    }

    fn load(&mut self, t: &mut Thread, space: AddressSpace, addr: u64, ty: ScalarType) -> u64 {
        let n = ty.size_bytes();
        let mut word = [0u8; 8];
        if space == AddressSpace::Param {
            word[..n].copy_from_slice(&self.launch.params[addr as usize..addr as usize + n]);
        } else {
            word[..n].copy_from_slice(self.bytes(t, space, addr, n));
        }
        mask(u64::from_le_bytes(word), ty)
    }

    fn store(&mut self, t: &mut Thread, space: AddressSpace, addr: u64, ty: ScalarType, v: u64) {
        let n = ty.size_bytes();
        self.bytes(t, space, addr, n).copy_from_slice(&v.to_le_bytes()[..n]);
    }

    fn run_to_barrier(&mut self, t: &mut Thread) {
        loop {
            let (b, i) = t.at;
            let Some(inst) = self.k.blocks[b].instructions.get(i) else {
                t.at = (b + 1, 0);
                continue;
            };
            t.at = (b, i + 1);
            t.steps += 1;
            assert!(t.steps < 1 << 22, "thread {:?} does not terminate", t.tid);
            if let Some(g) = inst.guard {
                if (t.regs[g.pred.index()] & 1 == 1) == g.negated {
                    continue;
                }
            }
            match &inst.opcode {
                Opcode::Bar => return,
                Opcode::Ret | Opcode::Exit => {
                    t.done = true;
                    return;
                }
                Opcode::Bra(label) => {
                    let to = self.labels.iter().find(|(l, _)| l == label).expect("validated").1;
                    t.at = (to, 0);
                }
                _ => {
                    if let Some(v) = self.execute(t, inst) {
                        let d = inst.dst.expect("a value has a destination");
                        t.regs[d.index()] = mask(v, self.k.reg_type(d));
                    }
                }
            }
        }
    }

    /// The value `inst` writes to its destination, after any memory
    /// effect; `None` for a store.
    fn execute(&mut self, t: &mut Thread, inst: &Instruction) -> Option<u64> {
        let ty = inst.ty;
        let src = |me: &Self, t: &Thread, i: usize| me.value(t, &inst.srcs[i], ty);
        let float = ty.is_float();
        Some(match &inst.opcode {
            Opcode::Ld(space) => {
                let addr = self.address(t, &inst.srcs[0]);
                self.load(t, *space, addr, ty)
            }
            Opcode::St(space) => {
                let (addr, v) = (self.address(t, &inst.srcs[0]), src(self, t, 1));
                self.store(t, *space, addr, ty, v);
                return None;
            }
            Opcode::Atom(space, op) => {
                let (addr, a) = (self.address(t, &inst.srcs[0]), src(self, t, 1));
                let old = self.load(t, *space, addr, ty);
                let new = match op {
                    AtomOp::Add if float => arith(ty, old, a, |x, y| x + y),
                    AtomOp::Add => old.wrapping_add(a),
                    AtomOp::Min | AtomOp::Max => {
                        let less = compare(CmpOp::Lt, ty, a, old) == 1;
                        if less == (*op == AtomOp::Min) {
                            a
                        } else {
                            old
                        }
                    }
                    AtomOp::Exch => a,
                    AtomOp::Cas => {
                        if old == a {
                            src(self, t, 2)
                        } else {
                            old
                        }
                    }
                };
                self.store(t, *space, addr, ty, mask(new, ty));
                old
            }
            Opcode::Cvt(from) => cvt(ty, *from, self.value(t, &inst.srcs[0], *from)),
            Opcode::Setp(op) => compare(*op, ty, src(self, t, 0), src(self, t, 1)),
            Opcode::Selp => {
                let p = self.value(t, &inst.srcs[2], ScalarType::Pred);
                src(self, t, if p & 1 == 1 { 0 } else { 1 })
            }
            Opcode::Mov => src(self, t, 0),
            Opcode::Vote(mode) => {
                let p = self.value(t, &inst.srcs[0], ScalarType::Pred) & 1;
                if *mode == VoteMode::Uni {
                    1
                } else {
                    p
                }
            }
            Opcode::Fma | Opcode::Mad if float => {
                let [x, y, z] = [0, 1, 2].map(|i| f_of(src(self, t, i), ty));
                // Rounded once; a NaN result is the first NaN operand's.
                let r = x.mul_add(y, z);
                let nan = [x, y, z].into_iter().find(|v| v.is_nan());
                f_enc(if r.is_nan() { nan.map_or(r, quiet) } else { r }, ty)
            }
            Opcode::Mad => {
                let [x, y, z] = [0, 1, 2].map(|i| sext(src(self, t, i), ty));
                x.wrapping_mul(y).wrapping_add(z) as u64
            }
            op if inst.srcs.len() == 1 => unary(op, ty, src(self, t, 0)),
            op => binary(op, ty, src(self, t, 0), src(self, t, 1)),
        })
    }
}

fn unary(op: &Opcode, ty: ScalarType, a: u64) -> u64 {
    if ty.is_float() {
        let f = |g: fn(f64) -> f64| f_enc(g(f_of(a, ty)), ty);
        return match op {
            Opcode::Neg => f(|x| -x),
            Opcode::Abs => f(f64::abs),
            Opcode::Sqrt => f(f64::sqrt),
            Opcode::Rsqrt => f(|x| 1.0 / x.sqrt()),
            Opcode::Rcp => f(|x| 1.0 / x),
            Opcode::Sin => f(f64::sin),
            Opcode::Cos => f(f64::cos),
            Opcode::Ex2 => f(f64::exp2),
            Opcode::Lg2 => f(f64::log2),
            other => panic!("{} on a float", other.mnemonic()),
        };
    }
    match op {
        Opcode::Neg => sext(a, ty).wrapping_neg() as u64,
        Opcode::Abs => sext(a, ty).wrapping_abs() as u64,
        Opcode::Not => !a,
        other => panic!("{} on an integer", other.mnemonic()),
    }
}

fn binary(op: &Opcode, ty: ScalarType, a: u64, b: u64) -> u64 {
    if ty.is_float() {
        return match op {
            Opcode::Add => arith(ty, a, b, |x, y| x + y),
            Opcode::Sub => arith(ty, a, b, |x, y| x - y),
            Opcode::Mul(_) => arith(ty, a, b, |x, y| x * y),
            Opcode::Div => arith(ty, a, b, |x, y| x / y),
            // A NaN operand is ignored (of two, the second is kept); of two
            // operands that compare equal (±0), the first.
            Opcode::Min | Opcode::Max => {
                let (x, y) = (f_of(a, ty), f_of(b, ty));
                let first =
                    !x.is_nan() && (y.is_nan() || x == y || (x < y) == (*op == Opcode::Min));
                f_enc(if first { x } else { y }, ty)
            }
            Opcode::And => a & b,
            Opcode::Or => a | b,
            Opcode::Xor => a ^ b,
            other => panic!("{} on a float", other.mnemonic()),
        };
    }
    let (n, signed) = (bits(ty), ty.is_signed());
    let (sa, sb, ua, ub) = (sext(a, ty), sext(b, ty), mask(a, ty), mask(b, ty));
    match op {
        Opcode::Add => ua.wrapping_add(ub),
        Opcode::Sub => ua.wrapping_sub(ub),
        Opcode::Mul(MulHalf::Lo) => ua.wrapping_mul(ub),
        Opcode::Mul(MulHalf::Hi) if signed => ((sa as i128 * sb as i128) >> n) as u64,
        Opcode::Mul(MulHalf::Hi) => ((ua as u128 * ub as u128) >> n) as u64,
        Opcode::Div | Opcode::Rem => {
            assert!(ub != 0, "zero divisor");
            match (op, signed) {
                (Opcode::Div, true) => sa.wrapping_div(sb) as u64,
                (Opcode::Div, false) => ua / ub,
                (_, true) => sa.wrapping_rem(sb) as u64,
                _ => ua % ub,
            }
        }
        Opcode::Min if signed => sa.min(sb) as u64,
        Opcode::Min => ua.min(ub),
        Opcode::Max if signed => sa.max(sb) as u64,
        Opcode::Max => ua.max(ub),
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => ua << (b & (n as u64 - 1)),
        Opcode::Shr if signed => (sa >> (b & (n as u64 - 1))) as u64,
        Opcode::Shr => ua >> (b & (n as u64 - 1)),
        other => panic!("{} on an integer", other.mnemonic()),
    }
}
