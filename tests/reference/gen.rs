//! A seeded generator of structured kernels, and their PTX text.
//!
//! A [`Kernel`] is a tree of [`Stmt`]s — nested `if`/`else`, loops with
//! CTA-uniform or per-thread trip counts, unstructured loops (entered at
//! two blocks, left early by a `break` or a `ret`), barriers and
//! shared-memory exchanges under CTA-uniform control, barrier loops that
//! carry a parameter-derived pointer, divergent exits — over integer,
//! f32, f64 and predicate registers, rendered to PTX by
//! [`Kernel::source`]. Each thread observes itself by storing registers
//! to its own output slots; its inputs are loaded from a table of edge
//! values (NaNs, ±∞, denormals, ±0, integer extremes).
//!
//! By construction a generated kernel means the same thing however its
//! threads are grouped into warps: no `%laneid`/`%warpsize`, no data
//! races (a thread writes only its own output, local and shared slots,
//! and reads another thread's shared slot only between the two barriers
//! of an exchange), no out-of-bounds address, no zero divisor,
//! commutative integer atomics whose result is never read, and `vote`
//! only over CTA-uniform predicates. The shrinker preserves all of it.

use std::fmt::Write as _;

use dpvk::workloads::Prng;

/// Bytes of each thread's output: [`SLOTS`] 8-byte slots at
/// `OUT + 8 * SLOTS * global thread id`.
pub const SLOTS: usize = 20;
/// Most threads a launch has, over all CTAs.
pub const MAX_THREADS: usize = 64;
/// The input table: 32 words read as f32 or u32, then 32 read as f64 or
/// u64, 8 bytes each.
pub const IN: usize = 8 * SLOTS * MAX_THREADS;
/// Four u32 counters the global atomics update.
pub const ATOMS: usize = IN + 8 * 64;
/// Bytes of the one global buffer a kernel gets.
pub const BYTES: usize = ATOMS + 4 * 4;

/// A register class: the register file the generated statements compute
/// in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    R,
    Q,
    F,
    D,
    P,
}

const CLASSES: [Class; 5] = [Class::R, Class::Q, Class::F, Class::D, Class::P];

impl Class {
    fn name(self) -> &'static str {
        ["r", "q", "f", "d", "p"][self as usize]
    }

    fn ty(self) -> &'static str {
        ["u32", "u64", "f32", "f64", "pred"][self as usize]
    }

    fn count(self) -> u8 {
        [4, 2, 4, 2, 2][self as usize]
    }

    fn bytes(self) -> usize {
        [4, 8, 4, 8, 1][self as usize]
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reg {
    pub class: Class,
    pub n: u8,
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "%{}{}", self.class.name(), self.n)
    }
}

/// A source operand: a register, an immediate, or a register the
/// statements only read (`%s0` = `%tid.x`, `%s1` = the global thread id,
/// a loop counter `%cN`, or a special register).
#[derive(Debug, Clone, PartialEq)]
pub enum Src {
    Reg(Reg),
    Int(i64),
    Float(f64),
    Fixed(String),
}

impl std::fmt::Display for Src {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "{r}"),
            Src::Int(i) => write!(f, "{i}"),
            Src::Float(x) if x.fract() == 0.0 => write!(f, "{x:.1}"),
            Src::Float(x) => write!(f, "{x}"),
            Src::Fixed(s) => write!(f, "{s}"),
        }
    }
}

/// What a branch, an exit or a vote tests: a predicate register (or its
/// negation), or `setp.<cmp>.<ty> a, b`.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    Pred(Reg, bool),
    Setp { cmp: &'static str, ty: &'static str, a: Src, b: Src },
}

/// A loop's trip count: the same for every thread, or `reg & 3`.
#[derive(Debug, Clone, PartialEq)]
pub enum Trips {
    Uniform(i64),
    PerThread(Reg),
}

/// A statement:
/// - `Op`: `[@[!]guard] mnemonic dst, srcs;`
/// - `Load`: `dst` ← input word `(index + offset) mod 32` of its class's
///   half of the table;
/// - `Store`: `src` to the thread's output slot; `Local`: `reg` to a local
///   slot (or, unless `store`, back from it);
/// - `DivReg`: `div`/`rem` by `b | 1`;
/// - `Atom`: [`ATOM_OPS`]`[slot]` on a global or shared counter, the old
///   value dropped: one operation per counter, so the final value does
///   not depend on the order threads get there;
/// - `Vote`: `dst` ← `vote.<mode>.pred` of a CTA-uniform condition;
/// - `Exchange`: publish `src` in the thread's shared slot, barrier, read
///   the slot of thread `(tid + offset) mod ntid` into `dst`, barrier;
/// - `Counter`: a barrier, then `dst` ← shared counter `slot`.
/// - `TwoEntry`: a do-while loop over `first` then `second`, entered at
///   two blocks: threads where `enter` holds start at `second`.
/// - `Leave`: a loop over `first` then `second` with a second exit
///   between them where `cond` holds: a `break`, or a `ret` if `ret`.
/// - `Carry`: a do-while loop of `trips` iterations under CTA-uniform
///   control that computes a pointer into the input table from the
///   parameter before the loop, redefines that pointer's intermediate
///   register before a barrier in every iteration and reads it after,
///   then loads input word `counter` into `dst` through the pointer.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Op { guard: Option<(Reg, bool)>, mnemonic: String, dst: Reg, srcs: Vec<Src> },
    Load { dst: Reg, index: Src, offset: i64 },
    Store { src: Reg, slot: usize },
    Local { reg: Reg, slot: usize, store: bool },
    DivReg { mnemonic: String, dst: Reg, a: Src, b: Reg },
    Atom { shared: bool, slot: usize, src: Reg },
    Vote { mnemonic: String, dst: Reg, cond: Cond },
    If { cond: Cond, then: Vec<Stmt>, els: Vec<Stmt> },
    Loop { trips: Trips, body: Vec<Stmt> },
    Barrier,
    Exchange { src: Reg, dst: Reg, offset: i64 },
    Counter { dst: Reg, slot: usize },
    Exit(Cond),
    TwoEntry { enter: Cond, trips: Trips, first: Vec<Stmt>, second: Vec<Stmt> },
    Leave { cond: Cond, ret: bool, trips: Trips, first: Vec<Stmt>, second: Vec<Stmt> },
    Carry { trips: i64, dst: Reg, body: Vec<Stmt> },
}

/// A generated kernel and the launch it is meant for.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Seeds the input table too.
    pub seed: u64,
    pub threads: u32,
    pub ctas: u32,
    pub body: Vec<Stmt>,
}

const F32_EDGES: [u32; 14] = [
    0x00000000, 0x80000000, 0x3F800000, 0xBF800000, 0x7F800000, 0xFF800000, 0x7FC01234, 0xFFC00042,
    0x7F812345, 0xFFA00001, 0x00000001, 0x007FFFFF, 0x7F7FFFFF, 0x4F800000,
];
const F64_EDGES: [u64; 14] = [
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x3FF0_0000_0000_0000,
    0xBFF0_0000_0000_0000,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    0x7FF8_0000_0000_1234,
    0xFFF8_0000_0004_2000,
    0x7FF0_0000_0001_2345,
    0xFFF4_0000_0000_0001,
    0x0000_0000_0000_0001,
    0x000F_FFFF_FFFF_FFFF,
    0x47EF_FFFF_E000_0000,
    0xC3E0_0000_0000_0000,
];
const INTS: [i64; 10] = [0, 1, 2, 3, 7, 31, 255, -1, 0x7FFF_FFFF, 0x8000_0000];
const FLOATS: [f64; 7] = [0.0, -0.0, 0.5, 1.0, 1.5, -2.0, 3.0];
const CMPS: [&str; 6] = ["eq", "ne", "lt", "le", "gt", "ge"];
/// The atomic operation on each counter.
const ATOM_OPS: [&str; 4] = ["add.u32", "min.s32", "max.u32", "max.s32"];
/// The data operations, as mnemonic and operand classes pairs: one letter
/// for the destination's class and one for each source's — `r` u32, `q`
/// u64, `f` f32, `d` f64, `p` predicate; `s` a shift amount, `z` a
/// nonzero divisor, `c` a CTA-uniform condition. `{cmp}` stands for a
/// comparison.
const OPS: &str = "
    add.u32 rrr sub.u32 rrr mul.lo.u32 rrr mul.hi.u32 rrr mul.hi.s32 rrr min.u32 rrr max.u32 rrr
    min.s32 rrr max.s32 rrr and.b32 rrr or.b32 rrr xor.b32 rrr shl.b32 rrs shr.u32 rrs shr.s32 rrs
    mad.lo.u32 rrrr mad.lo.s32 rrrr not.b32 rr neg.s32 rr abs.s32 rr mov.u32 rr selp.u32 rrrp
    div.u32 rrz rem.u32 rrz div.s32 rrz rem.s32 rrz cvt.u32.f32 rf cvt.s32.f32 rf cvt.u32.f64 rd
    cvt.s32.f64 rd cvt.u32.u64 rq add.u64 qqq sub.u64 qqq mul.lo.u64 qqq mul.hi.u64 qqq xor.b64 qqq
    and.b64 qqq min.s64 qqq max.u64 qqq shl.b64 qqs shr.u64 qqs shr.s64 qqs selp.b64 qqqp
    cvt.u64.u32 qr cvt.s64.s32 qr cvt.s64.f64 qd cvt.u64.f32 qf
    add.f32 fff sub.f32 fff mul.f32 fff div.f32 fff min.f32 fff max.f32 fff fma.rn.f32 ffff
    fma.rn.f32 ffff neg.f32 ff abs.f32 ff sqrt.f32 ff rsqrt.f32 ff rcp.f32 ff sin.f32 ff ex2.f32 ff
    lg2.f32 ff selp.f32 fffp cvt.f32.f64 fd cvt.f32.u32 fr cvt.f32.s32 fr cvt.f32.u64 fq
    cvt.f32.s64 fq add.f64 ddd sub.f64 ddd mul.f64 ddd div.f64 ddd min.f64 ddd max.f64 ddd
    fma.rn.f64 dddd fma.rn.f64 dddd neg.f64 dd abs.f64 dd sqrt.f64 dd rsqrt.f64 dd rcp.f64 dd
    sin.f64 dd ex2.f64 dd lg2.f64 dd selp.f64 dddp cvt.f64.f32 df cvt.f64.u32 dr cvt.f64.s32 dr
    cvt.f64.u64 dq setp.{cmp}.u32 prr setp.{cmp}.s32 prr setp.{cmp}.u64 pqq setp.{cmp}.s64 pqq
    setp.{cmp}.f32 pff setp.{cmp}.f32 pff setp.{cmp}.f64 pdd and.pred ppp or.pred ppp
    xor.pred ppp not.pred pp vote.all.pred pc vote.any.pred pc vote.uni.pred pc
";

/// Generation state: the seeded stream and how many statements are left.
struct Gen {
    rng: Prng,
    budget: usize,
}

/// Where a statement is generated.
#[derive(Clone, Copy)]
struct Ctx {
    depth: usize,
    /// Every thread of the CTA reaches this point, through the same
    /// sequence of barriers.
    uniform: bool,
    /// Bit `d`: the enclosing loop at depth `d` has a uniform trip count,
    /// so every thread steps its counter `%c<d>` through the same values
    /// (not necessarily at the same time).
    loops: u8,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range_u32(n as u32) as usize
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn reg(&mut self, class: Class) -> Reg {
        Reg { class, n: self.below(class.count() as usize) as u8 }
    }

    /// A source of `class`: usually a register, sometimes an immediate
    /// or (for u32) a fixed register.
    fn src(&mut self, class: Class, ctx: Ctx) -> Src {
        match (class, self.below(10)) {
            (Class::F | Class::D, 0 | 1) => Src::Float(self.pick(&FLOATS)),
            (Class::R | Class::Q, 0) => Src::Int(self.pick(&INTS)),
            (Class::R | Class::Q, 1) => Src::Int(self.rng.next_u32() as i64),
            (Class::R, 2) => Src::Fixed(self.fixed(ctx)),
            _ => Src::Reg(self.reg(class)),
        }
    }

    /// An enclosing uniform loop's counter, if there is one.
    fn counter(&mut self, ctx: Ctx) -> Option<String> {
        let depths: Vec<usize> = (0..8).filter(|d| ctx.loops & 1 << d != 0).collect();
        (!depths.is_empty()).then(|| format!("%c{}", self.pick(&depths)))
    }

    fn fixed(&mut self, ctx: Ctx) -> String {
        match self.below(4) {
            0 => "%s0".into(),
            1 => "%s1".into(),
            2 => "%ctaid.x".into(),
            _ => self.counter(ctx).unwrap_or_else(|| "%s0".into()),
        }
    }

    /// `a <cmp> k` for a small constant `k`.
    fn against(&mut self, a: String) -> Cond {
        Cond::Setp {
            cmp: self.pick(&CMPS),
            ty: "u32",
            a: Src::Fixed(a),
            b: Src::Int(self.below(3) as i64),
        }
    }

    /// A condition every thread of the CTA evaluates the same way at the
    /// same point of its path: on the CTA id or a uniform loop counter.
    fn uniform_cond(&mut self, ctx: Ctx) -> Cond {
        let a = match self.counter(ctx) {
            Some(c) if self.chance(50) => c,
            _ => "%ctaid.x".into(),
        };
        self.against(a)
    }

    fn cond(&mut self, ctx: Ctx) -> Cond {
        match self.below(4) {
            0 => Cond::Pred(self.reg(Class::P), self.chance(50)),
            1 => Cond::Setp {
                cmp: self.pick(&CMPS),
                ty: "u32",
                a: Src::Fixed("%s0".into()),
                b: Src::Int(self.below(24) as i64),
            },
            _ => {
                let class = self.pick(&[Class::R, Class::Q, Class::F, Class::D]);
                let ty = match class {
                    Class::R => self.pick(&["u32", "s32"]),
                    Class::Q => self.pick(&["u64", "s64"]),
                    c => c.ty(),
                };
                let a = Src::Reg(self.reg(class));
                Cond::Setp { cmp: self.pick(&CMPS), ty, a, b: self.src(class, ctx) }
            }
        }
    }

    /// One entry of [`OPS`], with its operands.
    fn op(&mut self, ctx: Ctx) -> Stmt {
        let ops: Vec<&str> = OPS.split_whitespace().collect();
        let k = self.below(ops.len() / 2);
        let (mnemonic, classes) = (ops[2 * k].replace("{cmp}", self.pick(&CMPS)), ops[2 * k + 1]);
        let class = |c: char| CLASSES["rqfdp".find(c).expect("a register class")];
        let mut letters = classes.chars();
        let dst = self.reg(class(letters.next().expect("a destination")));
        let mut srcs = Vec::new();
        for c in letters {
            srcs.push(match c {
                's' if self.chance(50) => Src::Int(self.below(8 * dst.class.bytes()) as i64),
                's' => Src::Reg(self.reg(Class::R)),
                'z' if self.chance(50) => {
                    let b = self.reg(Class::R);
                    return Stmt::DivReg { mnemonic, dst, a: srcs.pop().expect("a dividend"), b };
                }
                'z' => Src::Int(self.pick(&[1, 2, 3, 7, -3, 0x7FFF_FFFF])),
                'c' => {
                    // Threads of one warp may stand at different iterations
                    // of a loop: only the CTA id is uniform across a warp.
                    return Stmt::Vote { mnemonic, dst, cond: self.against("%ctaid.x".into()) };
                }
                'p' => Src::Reg(self.reg(Class::P)),
                c => self.src(class(c), ctx),
            });
        }
        let guard = self.chance(20).then(|| (self.reg(Class::P), self.chance(50)));
        Stmt::Op { guard, mnemonic, dst, srcs }
    }

    fn load(&mut self, class: Class, ctx: Ctx) -> Stmt {
        let index = match self.below(3) {
            0 => Src::Fixed("%s1".into()),
            1 => Src::Fixed(self.fixed(ctx)),
            _ => Src::Reg(self.reg(Class::R)),
        };
        Stmt::Load { dst: self.reg(class), index, offset: self.below(32) as i64 }
    }

    /// A loop's trip count, and the context of its body.
    fn trips(&mut self, ctx: Ctx) -> (Trips, Ctx) {
        let uniform = self.chance(50);
        let trips = if uniform {
            Trips::Uniform(self.below(4) as i64)
        } else {
            Trips::PerThread(self.reg(Class::R))
        };
        let loops = if uniform { ctx.loops | 1 << ctx.depth } else { ctx.loops };
        (trips, Ctx { depth: ctx.depth + 1, uniform: ctx.uniform && uniform, loops })
    }

    /// A condition that is CTA-uniform (and says so) some of the time
    /// when `ctx` is.
    fn maybe_uniform_cond(&mut self, ctx: Ctx) -> (Cond, bool) {
        if ctx.uniform && self.chance(30) {
            (self.uniform_cond(ctx), true)
        } else {
            (self.cond(ctx), false)
        }
    }

    fn stmt(&mut self, ctx: Ctx) -> Stmt {
        self.budget = self.budget.saturating_sub(1);
        let nest = ctx.depth < 3 && self.budget > 2;
        match self.below(100) {
            0..=9 if nest => {
                let inner = Ctx { depth: ctx.depth + 1, ..ctx };
                let (cond, uniform) = if ctx.uniform && self.chance(30) {
                    (self.uniform_cond(ctx), true)
                } else {
                    (self.cond(ctx), false)
                };
                let inner = Ctx { uniform, ..inner };
                let then = self.block(inner);
                let els = if self.chance(50) { self.block(inner) } else { Vec::new() };
                Stmt::If { cond, then, els }
            }
            10..=17 if nest => {
                let (trips, inner) = self.trips(ctx);
                Stmt::Loop { trips, body: self.block(inner) }
            }
            51..=54 if nest => {
                let (enter, uniform) = self.maybe_uniform_cond(ctx);
                let (trips, inner) = self.trips(ctx);
                let inner = Ctx { uniform: inner.uniform && uniform, ..inner };
                let (first, second) = (self.block(inner), self.block(inner));
                Stmt::TwoEntry { enter, trips, first, second }
            }
            55..=58 if nest => {
                let (cond, uniform) = self.maybe_uniform_cond(ctx);
                let (trips, inner) = self.trips(ctx);
                let inner = Ctx { uniform: inner.uniform && uniform, ..inner };
                let ret = self.chance(30);
                let (first, second) = (self.block(inner), self.block(inner));
                Stmt::Leave { cond, ret, trips, first, second }
            }
            59..=61 if nest && ctx.uniform => {
                let trips = 1 + self.below(3) as i64;
                let inner = Ctx { depth: ctx.depth + 1, loops: ctx.loops | 1 << ctx.depth, ..ctx };
                Stmt::Carry { trips, dst: self.reg(Class::R), body: self.block(inner) }
            }
            18..=20 if ctx.uniform => Stmt::Barrier,
            21..=25 if ctx.uniform => {
                let class = self.pick(&[Class::R, Class::Q, Class::F, Class::D]);
                let offset = 1 + self.below(7) as i64;
                Stmt::Exchange { src: self.reg(class), dst: self.reg(class), offset }
            }
            26 | 27 => Stmt::Exit(self.cond(ctx)),
            28..=37 => {
                let class = self.pick(&[Class::R, Class::Q, Class::F, Class::D]);
                self.load(class, ctx)
            }
            38..=42 => {
                let class = self.pick(&CLASSES);
                Stmt::Store { src: self.reg(class), slot: 14 + self.below(SLOTS - 14) }
            }
            43..=45 => {
                let class = self.pick(&[Class::R, Class::Q, Class::F, Class::D]);
                Stmt::Local { reg: self.reg(class), slot: self.below(4), store: self.chance(50) }
            }
            46..=50 => {
                Stmt::Atom { shared: self.chance(40), slot: self.below(4), src: self.reg(Class::R) }
            }
            _ => self.op(ctx),
        }
    }

    fn block(&mut self, ctx: Ctx) -> Vec<Stmt> {
        let n = 1 + self.below(5);
        let mut v = Vec::new();
        while v.len() < n && self.budget > 0 {
            v.push(self.stmt(ctx));
        }
        v
    }
}

impl Kernel {
    /// The kernel of `seed`: input loads, then random statements, then a
    /// read of a shared counter and a store of every data register.
    pub fn generate(seed: u64) -> Kernel {
        let mut g = Gen { rng: Prng::new(seed), budget: 0 };
        let threads = g.pick(&[5, 8, 12, 16, 23, 32]);
        let ctas = 1 + g.below(2) as u32;
        g.budget = 8 + g.below(40);
        let top = Ctx { depth: 0, uniform: true, loops: 0 };
        let mut body = Vec::new();
        for class in [Class::R, Class::R, Class::Q, Class::F, Class::F, Class::D] {
            body.push(g.load(class, top));
        }
        while g.budget > 0 {
            let s = g.stmt(top);
            body.push(s);
        }
        body.push(Stmt::Counter { dst: Reg { class: Class::R, n: 3 }, slot: g.below(4) });
        for (slot, reg) in CLASSES
            .iter()
            .flat_map(|&class| (0..class.count()).map(move |n| Reg { class, n }))
            .enumerate()
        {
            body.push(Stmt::Store { src: reg, slot });
        }
        Kernel { seed, threads, ctas, body }
    }

    /// The kernel as a case of the matrix.
    pub fn case(&self) -> Case {
        Case { source: self.source(), threads: self.threads, ctas: self.ctas, seed: self.seed }
    }

    /// The kernel as PTX, named `refk`, over one parameter: the global
    /// buffer.
    pub fn source(&self) -> String {
        let mut r = Render { out: String::new(), labels: 0 };
        r.stmts(&self.body, 0);
        let body = std::mem::take(&mut r.out);
        let uses = |needle: &str| body.contains(needle);
        let mut s = String::from(".kernel refk (.param .u64 buf) {\n");
        s.push_str("  .reg .u32 %s<5>;\n  .reg .u64 %a<3>;\n");
        let declared = |name: &str, ty: &str, count: u8, s: &mut String| {
            if (0..count).any(|n| uses(&format!("%{name}{n}"))) {
                let _ = writeln!(s, "  .reg .{ty} %{name}<{count}>;");
            }
        };
        for class in CLASSES {
            declared(class.name(), class.ty(), class.count(), &mut s);
        }
        for (name, ty) in [("i", "pred"), ("c", "u32"), ("n", "u32"), ("l", "pred"), ("t", "u64")] {
            declared(name, ty, 4, &mut s);
        }
        if uses("shared") {
            s.push_str("  .shared .b64 sh[32];\n  .shared .u32 shc[4];\n");
        }
        if uses("loc") {
            s.push_str("  .local .b64 loc[4];\n");
        }
        s.push_str("entry:\n  ld.param.u64 %a0, [buf];\n  mov.u32 %s0, %tid.x;\n");
        s.push_str("  mad.lo.u32 %s1, %ctaid.x, %ntid.x, %s0;\n");
        let _ = writeln!(s, "  mul.lo.u32 %s2, %s1, {};", 8 * SLOTS);
        s.push_str("  cvt.u64.u32 %a1, %s2;\n  add.u64 %a1, %a1, %a0;\n");
        // Every data register a statement names starts defined, and
        // different in every thread.
        for class in CLASSES {
            for n in 0..class.count() {
                let reg = Reg { class, n };
                if uses(&reg.to_string()) {
                    let _ = match class {
                        Class::R => writeln!(s, "  add.u32 {reg}, %s1, {n};"),
                        Class::P => writeln!(s, "  setp.lt.u32 {reg}, %s0, {};", n + 2),
                        _ => writeln!(s, "  cvt.{}.u32 {reg}, %s1;", class.ty()),
                    };
                }
            }
        }
        s.push_str(&body);
        s.push_str("  ret;\n}\n");
        s
    }
}

/// A kernel source and the launch the matrix runs it with: one CTA row
/// of `threads` threads, `ctas` CTAs, one parameter (the buffer), and
/// the input table of `seed`.
#[derive(Debug, Clone)]
pub struct Case {
    pub source: String,
    pub threads: u32,
    pub ctas: u32,
    pub seed: u64,
}

/// Global memory before a launch: zeroed outputs and counters, and the
/// input table of `seed`.
pub fn input(seed: u64) -> Vec<u8> {
    let mut rng = Prng::new(seed ^ 0x1A9B);
    let mut image = vec![0u8; BYTES];
    for k in 0..64 {
        let word = match k {
            0..=13 => F32_EDGES[k] as u64 | (rng.next_u32() as u64) << 32,
            14..=31 => rng.gen_range_f32(-4.0, 4.0).to_bits() as u64 | (k as u64) << 40,
            32..=45 => F64_EDGES[k - 32],
            _ => (rng.gen_range_f32(-1e3, 1e3) as f64 / 7.0).to_bits(),
        };
        image[IN + 8 * k..IN + 8 * k + 8].copy_from_slice(&word.to_le_bytes());
    }
    image
}

struct Render {
    out: String,
    labels: usize,
}

impl Render {
    /// The trip-count operand of a loop at `depth`, computing a
    /// per-thread one into `%n<depth>`.
    fn bound(&mut self, trips: &Trips, depth: usize) -> String {
        match trips {
            Trips::Uniform(k) => k.to_string(),
            Trips::PerThread(r) => {
                self.line(format_args!("and.b32 %n{depth}, {r}, 3;"));
                format!("%n{depth}")
            }
        }
    }

    /// Step the counter of the loop at `depth` and go back to `head`
    /// while it is below `bound`.
    fn next_trip(&mut self, bound: &str, head: &str, depth: usize) {
        let (c, l) = (format!("%c{depth}"), format!("%l{depth}"));
        self.line(format_args!(
            "add.u32 {c}, {c}, 1;\nsetp.lt.u32 {l}, {c}, {bound};\n@{l} bra {head};"
        ));
    }

    /// Append `text`'s lines, indented.
    fn line(&mut self, text: impl std::fmt::Display) {
        for line in text.to_string().lines() {
            let _ = writeln!(self.out, "  {line}");
        }
    }

    fn label(&mut self) -> String {
        self.labels += 1;
        format!("L{}", self.labels)
    }

    /// Compute `cond` into `%i<depth>` unless it is already a register;
    /// returns the guard that is true when `cond` holds.
    fn cond(&mut self, cond: &Cond, depth: usize) -> String {
        match cond {
            Cond::Pred(p, negated) => format!("@{}{p}", if *negated { "!" } else { "" }),
            Cond::Setp { cmp, ty, a, b } => {
                self.line(format_args!("setp.{cmp}.{ty} %i{depth}, {a}, {b};"));
                format!("@%i{depth}")
            }
        }
    }

    fn negated(guard: &str) -> String {
        match guard.strip_prefix("@!") {
            Some(p) => format!("@{p}"),
            None => format!("@!{}", &guard[1..]),
        }
    }

    fn stmts(&mut self, stmts: &[Stmt], depth: usize) {
        for s in stmts {
            self.stmt(s, depth);
        }
    }

    fn stmt(&mut self, s: &Stmt, depth: usize) {
        match s {
            Stmt::Op { guard, mnemonic, dst, srcs } => {
                let g = guard.map_or(String::new(), |(p, neg)| {
                    format!("@{}{p} ", if neg { "!" } else { "" })
                });
                let srcs: Vec<String> = srcs.iter().map(Src::to_string).collect();
                self.line(format_args!("{g}{mnemonic} {dst}, {};", srcs.join(", ")));
            }
            Stmt::Load { dst, index, offset } => {
                let (ty, half) = (dst.class.ty(), if dst.class.bytes() == 8 { 256 } else { 0 });
                self.line(format_args!(
                    "add.u32 %s2, {index}, {offset};\nrem.u32 %s2, %s2, 32;\n\
                     cvt.u64.u32 %a2, %s2;\nshl.b64 %a2, %a2, 3;\nadd.u64 %a2, %a2, %a0;\n\
                     ld.global.{ty} {dst}, [%a2+{}];",
                    IN + half
                ));
            }
            Stmt::Store { src, slot } if src.class == Class::P => {
                self.line(format_args!(
                    "selp.u32 %s2, 1, 0, {src};\nst.global.u32 [%a1+{}], %s2;",
                    8 * slot
                ));
            }
            Stmt::Store { src, slot } => {
                self.line(format_args!("st.global.{} [%a1+{}], {src};", src.class.ty(), 8 * slot));
            }
            Stmt::Local { reg, slot, store: true } => {
                self.line(format_args!("st.local.{} [loc+{}], {reg};", reg.class.ty(), 8 * slot));
            }
            Stmt::Local { reg, slot, store: false } => {
                self.line(format_args!("ld.local.{} {reg}, [loc+{}];", reg.class.ty(), 8 * slot));
            }
            Stmt::DivReg { mnemonic, dst, a, b } => {
                self.line(format_args!("or.b32 %s3, {b}, 1;\n{mnemonic} {dst}, {a}, %s3;"));
            }
            Stmt::Atom { shared: true, slot, src } => {
                let op = ATOM_OPS[*slot];
                self.line(format_args!("atom.shared.{op} %s4, [shc+{}], {src};", 4 * slot));
            }
            Stmt::Atom { shared: false, slot, src } => {
                let (op, at) = (ATOM_OPS[*slot], ATOMS + 4 * slot);
                self.line(format_args!("atom.global.{op} %s4, [%a0+{at}], {src};"));
            }
            Stmt::Vote { mnemonic, dst, cond } => {
                let guard = self.cond(cond, depth);
                self.line(format_args!("{mnemonic} {dst}, {};", &guard[1..]));
            }
            Stmt::If { cond, then, els } => {
                let guard = self.cond(cond, depth);
                let (skip, end) = (self.label(), self.label());
                self.line(format_args!("{} bra {skip};", Self::negated(&guard)));
                self.stmts(then, depth + 1);
                if !els.is_empty() {
                    self.line(format_args!("bra {end};"));
                }
                let _ = writeln!(self.out, "{skip}:");
                if !els.is_empty() {
                    self.stmts(els, depth + 1);
                    let _ = writeln!(self.out, "{end}:");
                }
            }
            Stmt::Loop { trips, body } => {
                let (head, done) = (self.label(), self.label());
                let bound = self.bound(trips, depth);
                let (c, l) = (format!("%c{depth}"), format!("%l{depth}"));
                self.line(format_args!(
                    "mov.u32 {c}, 0;\nsetp.ge.u32 {l}, {c}, {bound};\n@{l} bra {done};"
                ));
                let _ = writeln!(self.out, "{head}:");
                self.stmts(body, depth + 1);
                self.next_trip(&bound, &head, depth);
                let _ = writeln!(self.out, "{done}:");
            }
            Stmt::TwoEntry { enter, trips, first, second } => {
                let (head, mid) = (self.label(), self.label());
                let bound = self.bound(trips, depth);
                self.line(format_args!("mov.u32 %c{depth}, 0;"));
                let guard = self.cond(enter, depth);
                self.line(format_args!("{guard} bra {mid};"));
                let _ = writeln!(self.out, "{head}:");
                self.stmts(first, depth + 1);
                let _ = writeln!(self.out, "{mid}:");
                self.stmts(second, depth + 1);
                self.next_trip(&bound, &head, depth);
            }
            Stmt::Leave { cond, ret, trips, first, second } => {
                let (head, done) = (self.label(), self.label());
                let bound = self.bound(trips, depth);
                let (c, l) = (format!("%c{depth}"), format!("%l{depth}"));
                self.line(format_args!(
                    "mov.u32 {c}, 0;\nsetp.ge.u32 {l}, {c}, {bound};\n@{l} bra {done};"
                ));
                let _ = writeln!(self.out, "{head}:");
                self.stmts(first, depth + 1);
                let guard = self.cond(cond, depth);
                if *ret {
                    self.line(format_args!("{guard} ret;"));
                } else {
                    self.line(format_args!("{guard} bra {done};"));
                }
                self.stmts(second, depth + 1);
                self.next_trip(&bound, &head, depth);
                let _ = writeln!(self.out, "{done}:");
            }
            Stmt::Carry { trips, dst, body } => {
                let head = self.label();
                self.line(format_args!(
                    "ld.param.u64 %t0, [buf];\nadd.u64 %t1, %t0, {IN};\nmov.u32 %c{depth}, 0;"
                ));
                let _ = writeln!(self.out, "{head}:");
                self.line(format_args!(
                    "cvt.u64.u32 %t0, %c{depth};\nshl.b64 %t0, %t0, 3;\nbar.sync 0;\n\
                     add.u64 %t2, %t1, %t0;\nld.global.u32 {dst}, [%t2];"
                ));
                self.stmts(body, depth + 1);
                self.next_trip(&trips.to_string(), &head, depth);
            }
            Stmt::Barrier => self.line(format_args!("bar.sync 0;")),
            Stmt::Exchange { src, dst, offset } => {
                let ty = src.class.ty();
                self.line(format_args!(
                    "cvt.u64.u32 %a2, %s0;\nshl.b64 %a2, %a2, 3;\nst.shared.{ty} [%a2], {src};\n\
                     bar.sync 0;\nadd.u32 %s2, %s0, {offset};\nrem.u32 %s2, %s2, %ntid.x;\n\
                     cvt.u64.u32 %a2, %s2;\nshl.b64 %a2, %a2, 3;\nld.shared.{ty} {dst}, [%a2];\n\
                     bar.sync 0;"
                ));
            }
            Stmt::Counter { dst, slot } => {
                self.line(format_args!("bar.sync 0;\nld.shared.u32 {dst}, [shc+{}];", 4 * slot));
            }
            Stmt::Exit(cond) => {
                let guard = self.cond(cond, depth);
                self.line(format_args!("{guard} ret;"));
            }
        }
    }
}
