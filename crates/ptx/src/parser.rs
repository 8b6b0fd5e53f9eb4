//! Parser for the textual kernel format.
//!
//! The grammar is a compact PTX-like assembly:
//!
//! ```text
//! .kernel vecadd (.param .u64 a, .param .u64 b, .param .u64 c, .param .u32 n) {
//!   .reg .u32 %r<8>;
//!   .reg .f32 %f<4>;
//!   .reg .pred %p<2>;
//! entry:
//!   mov.u32 %r1, %tid.x;
//!   mad.lo.u32 %r3, %ctaid.x, %ntid.x, %r1;
//!   ld.param.u32 %r4, [n];
//!   setp.ge.u32 %p1, %r3, %r4;
//!   @%p1 bra done;
//!   ret;
//! done:
//!   ret;
//! }
//! ```

use std::collections::BTreeMap;
use std::ops::Range;

use crate::error::PtxError;
use crate::instruction::{AtomOp, CmpOp, Instruction, MulHalf, Opcode, VoteMode};
use crate::kernel::{BasicBlock, Kernel, Module};
use crate::lexer::{tokenize, Spanned, Token};
use crate::operand::{Address, AddressBase, Operand, RegId, SpecialReg};
use crate::types::{AddressSpace, ScalarType};

/// Parse a full module (one or more kernels) from source text.
///
/// # Errors
///
/// Returns a [`PtxError`] describing the first lexical, syntactic or
/// reference error encountered.
///
/// ```
/// let src = ".kernel noop () { entry: ret; }";
/// let module = dpvk_ptx::parse_module(src)?;
/// assert_eq!(module.kernels[0].name, "noop");
/// # Ok::<(), dpvk_ptx::PtxError>(())
/// ```
pub fn parse_module(src: &str) -> Result<Module, PtxError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut module = Module::new();
    while !parser.at_end() {
        module.add_kernel(parser.parse_kernel()?);
    }
    Ok(module)
}

/// Parse source text expected to contain exactly one kernel.
///
/// # Errors
///
/// Returns a [`PtxError`] on parse failure or when the module does not
/// contain exactly one kernel.
pub fn parse_kernel(src: &str) -> Result<Kernel, PtxError> {
    let module = parse_module(src)?;
    match module.kernels.len() {
        1 => Ok(module.kernels.into_iter().next().expect("length checked")),
        n => Err(PtxError::Parse {
            line: 1,
            message: format!("expected exactly one kernel, found {n}"),
        }),
    }
}

/// The registers a kernel body has declared so far, by the base name of
/// their declaration, which borrows from the source: `%r<8>` is the
/// range `r` × 8, `%acc` the single register `acc`. An ordered map, not
/// a hash map: the names come from outside the program, and no crafted
/// set of them can make a lookup slow.
#[derive(Default)]
struct Registers<'a> {
    by_base: BTreeMap<&'a str, Declared>,
}

/// What the declarations with one base name declared, in order.
#[derive(Default)]
struct Declared {
    /// The latest `%base`.
    single: Option<RegId>,
    /// Each `%base<count>`: its count and its first register.
    ranges: Vec<(u64, RegId)>,
}

impl<'a> Registers<'a> {
    fn declare_single(&mut self, base: &'a str, id: RegId) {
        self.by_base.entry(base).or_default().single = Some(id);
    }

    fn declare_range(&mut self, base: &'a str, count: u64, first: RegId) {
        self.by_base.entry(base).or_default().ranges.push((count, first));
    }

    /// The register `name` (without its `%`) refers to. A name can
    /// match several declarations — `%r12` is the single `r12`, or
    /// index 2 of a range `r1`, or index 12 of a range `r` — and the
    /// latest wins, as it would in a map from spelled-out names: ids
    /// grow in declaration order.
    fn resolve(&self, name: &str) -> Result<RegId, PtxError> {
        let digits = name.bytes().rev().take_while(u8::is_ascii_digit).count();
        // Every split into a non-empty base and a decimal index the
        // range expansion could have spelled (no leading zeros).
        let ranged = (name.len() - digits.min(name.len() - 1)..name.len())
            .filter(|&at| name.as_bytes()[at] != b'0' || at + 1 == name.len())
            .filter_map(|at| {
                let index: u64 = name[at..].parse().ok()?;
                let declared = self.by_base.get(&name[..at])?;
                let &(_, first) = declared.ranges.iter().rev().find(|&&(n, _)| index < n)?;
                Some(RegId(first.0 + index as u32))
            });
        self.by_base
            .get(name)
            .and_then(|d| d.single)
            .into_iter()
            .chain(ranged)
            .max()
            .ok_or_else(|| PtxError::UndeclaredRegister(format!("%{name}")))
    }
}

/// A dotted mnemonic (`setp.ge.u32`), split once: its part count, its
/// first three parts and its last two, and the rest read in place.
#[derive(Clone, Copy)]
struct Mnemonic<'a> {
    full: &'a str,
    len: usize,
    head: [&'a str; 3],
    tail: [&'a str; 2],
}

impl<'a> Mnemonic<'a> {
    fn new(full: &'a str) -> Self {
        let mut m = Mnemonic { full, len: 0, head: [""; 3], tail: [""; 2] };
        for (i, part) in full.split('.').enumerate() {
            if let Some(h) = m.head.get_mut(i) {
                *h = part;
            }
            m.tail = [m.tail[1], part];
            m.len = i + 1;
        }
        m
    }

    /// Part `i`, which must be one of the first three or last two.
    fn part(self, i: usize) -> &'a str {
        if i + 2 >= self.len {
            self.tail[i + 2 - self.len]
        } else {
            self.head[i]
        }
    }

    fn last(self) -> &'a str {
        self.tail[1]
    }

    fn parts(self, range: Range<usize>) -> impl Iterator<Item = &'a str> {
        self.full.split('.').skip(range.start).take(range.len())
    }
}

/// `%{base}{index}`, the name the range `%base<n>` gives its register
/// `index`, in one allocation of the final size.
fn range_register_name(base: &str, index: u64) -> String {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = index;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let digits = std::str::from_utf8(&digits[at..]).expect("ASCII digits");
    let mut name = String::with_capacity(1 + base.len() + digits.len());
    name.push('%');
    name.push_str(base);
    name.push_str(digits);
    name
}

struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|s| s.line)
            .unwrap_or(0)
    }

    fn err(&self, message: impl Into<String>) -> PtxError {
        PtxError::Parse { line: self.line(), message: message.into() }
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).map(|s| s.token)
    }

    fn peek2(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos + 1).map(|s| s.token)
    }

    fn next(&mut self) -> Result<Token<'a>, PtxError> {
        let t = self.peek().ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_punct(&mut self, c: char) -> Result<(), PtxError> {
        match self.next()? {
            Token::Punct(p) if p == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(Token::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_directive(&mut self, name: &str) -> Result<(), PtxError> {
        match self.next()? {
            Token::Directive(d) if d == name => Ok(()),
            other => Err(self.err(format!("expected `.{name}`, found {other:?}"))),
        }
    }

    fn expect_word(&mut self) -> Result<&'a str, PtxError> {
        match self.next()? {
            Token::Word(w) => Ok(w),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_type_directive(&mut self) -> Result<ScalarType, PtxError> {
        match self.next()? {
            Token::Directive(d) => ScalarType::from_suffix(d),
            other => Err(self.err(format!("expected type directive, found {other:?}"))),
        }
    }

    fn expect_int(&mut self) -> Result<i64, PtxError> {
        match self.next()? {
            Token::Int(v) => Ok(v),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    fn parse_kernel(&mut self) -> Result<Kernel, PtxError> {
        self.expect_directive("kernel")?;
        let name = self.expect_word()?;
        let mut kernel = Kernel::new(name);
        self.expect_punct('(')?;
        if !self.eat_punct(')') {
            loop {
                self.expect_directive("param")?;
                let ty = self.expect_type_directive()?;
                let pname = self.expect_word()?;
                kernel.add_param(pname, ty);
                if self.eat_punct(')') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        self.expect_punct('{')?;
        self.parse_body(&mut kernel)?;
        Ok(kernel)
    }

    fn parse_body(&mut self, kernel: &mut Kernel) -> Result<(), PtxError> {
        let mut regs = Registers::default();
        let mut current = BasicBlock::new("entry");
        let mut anon = 0u32;
        let mut open = true; // whether `current` accepts more instructions

        loop {
            match self.peek() {
                None => return Err(self.err("unexpected end of input inside kernel body")),
                Some(Token::Punct('}')) => {
                    self.pos += 1;
                    break;
                }
                Some(Token::Directive(d)) => match d {
                    "reg" => {
                        self.pos += 1;
                        self.parse_reg_decl(kernel, &mut regs)?;
                    }
                    "shared" | "local" => {
                        let space =
                            if d == "shared" { AddressSpace::Shared } else { AddressSpace::Local };
                        self.pos += 1;
                        self.parse_var_decl(kernel, space)?;
                    }
                    other => return Err(self.err(format!("unexpected directive `.{other}`"))),
                },
                Some(Token::Word(_)) if self.peek2() == Some(Token::Punct(':')) => {
                    // Label: close the current block, open a new one.
                    let label = self.expect_word()?;
                    self.expect_punct(':')?;
                    if !current.instructions.is_empty() || !open {
                        kernel.add_block(current);
                    } else if kernel.blocks.is_empty() && current.label == "entry" {
                        // Leading label renames the implicit entry block
                        // rather than creating an empty one.
                    } else {
                        kernel.add_block(current);
                    }
                    current = BasicBlock::new(label);
                    open = true;
                }
                Some(_) => {
                    if !open {
                        // Instruction after a terminator without a label:
                        // begin an anonymous block.
                        kernel.add_block(current);
                        current = BasicBlock::new(format!("$anon{anon}"));
                        anon += 1;
                        open = true;
                    }
                    let inst = self.parse_instruction(kernel, &regs)?;
                    // Any terminator ends the block, guarded or not (a
                    // guarded `bra`/`ret` falls through to the next block).
                    let ends = inst.opcode.is_terminator();
                    current.instructions.push(inst);
                    if ends {
                        open = false;
                    }
                }
            }
        }
        kernel.add_block(current);
        // Validate branch targets.
        for b in &kernel.blocks {
            for i in &b.instructions {
                if let Opcode::Bra(target) = &i.opcode {
                    if kernel.block_by_label(target).is_none() {
                        return Err(PtxError::UndefinedLabel(target.clone()));
                    }
                }
            }
        }
        Ok(())
    }

    fn parse_reg_decl(
        &mut self,
        kernel: &mut Kernel,
        regs: &mut Registers<'a>,
    ) -> Result<(), PtxError> {
        let ty = self.expect_type_directive()?;
        loop {
            let base = match self.next()? {
                Token::Register(name) => name,
                other => return Err(self.err(format!("expected register name, found {other:?}"))),
            };
            if self.eat_punct('<') {
                let count = self.expect_int()?;
                self.expect_punct('>')?;
                if count <= 0 {
                    return Err(self.err("register range count must be positive"));
                }
                let first = RegId(kernel.registers.len() as u32);
                for i in 0..count as u64 {
                    kernel.add_register(range_register_name(base, i), ty);
                }
                regs.declare_range(base, count as u64, first);
            } else {
                let id = kernel.add_register(format!("%{base}"), ty);
                regs.declare_single(base, id);
            }
            if self.eat_punct(',') {
                continue;
            }
            self.expect_punct(';')?;
            break;
        }
        Ok(())
    }

    fn parse_var_decl(&mut self, kernel: &mut Kernel, space: AddressSpace) -> Result<(), PtxError> {
        let ty = self.expect_type_directive()?;
        let name = self.expect_word()?;
        self.expect_punct('[')?;
        let len = self.expect_int()?;
        self.expect_punct(']')?;
        self.expect_punct(';')?;
        if len <= 0 {
            return Err(self.err("array length must be positive"));
        }
        kernel.add_var(name, ty, len as usize, space);
        Ok(())
    }

    fn parse_instruction(
        &mut self,
        kernel: &Kernel,
        regs: &Registers<'a>,
    ) -> Result<Instruction, PtxError> {
        // Optional guard.
        let mut guard = None;
        if self.eat_punct('@') {
            let negated = self.eat_punct('!');
            let pred = match self.next()? {
                Token::Register(name) => regs.resolve(name)?,
                other => return Err(self.err(format!("expected guard predicate, found {other:?}"))),
            };
            guard = Some((pred, negated));
        }
        let mnemonic = Mnemonic::new(self.expect_word()?);
        if mnemonic.part(0) == "bra" {
            self.check_modifiers(mnemonic, mnemonic.parts(1..mnemonic.len), &["uni"])?;
            let mut inst = self.parse_bra()?;
            if let Some((pred, negated)) = guard {
                inst = inst.with_guard(pred, negated);
            }
            return Ok(inst);
        }
        let (opcode, ty) = self.decode_mnemonic(mnemonic)?;

        let mut inst = match &opcode {
            Opcode::Bar => {
                // Optional barrier id operand (ignored; only barrier 0 with
                // CTA scope is modeled).
                if matches!(self.peek(), Some(Token::Int(_))) {
                    self.pos += 1;
                }
                self.expect_punct(';')?;
                Instruction::new(Opcode::Bar, ScalarType::Pred, None, vec![])
            }
            Opcode::Ret | Opcode::Exit => {
                self.expect_punct(';')?;
                Instruction::new(opcode, ScalarType::Pred, None, vec![])
            }
            _ => {
                let operands = self.parse_operands(kernel, regs)?;
                self.build_instruction(opcode, ty, operands)?
            }
        };
        if let Some((pred, negated)) = guard {
            inst = inst.with_guard(pred, negated);
        }
        Ok(inst)
    }

    /// Refuse the first of `modifiers` that is not in `allowed`, and any
    /// second modifier: dpvk accepts a modifier only where it implements
    /// exactly what PTX defines it to mean, so an unimplemented one (a
    /// rounding mode, `sat`, `ftz`, `wide`, …) is an error, never ignored.
    fn check_modifiers<'m>(
        &self,
        mnemonic: Mnemonic<'_>,
        modifiers: impl Iterator<Item = &'m str>,
        allowed: &[&str],
    ) -> Result<(), PtxError> {
        let bad = modifiers.enumerate().find(|&(i, m)| i > 0 || !allowed.contains(&m));
        match bad {
            None => Ok(()),
            Some((_, m)) => Err(PtxError::UnsupportedModifier {
                line: self.line(),
                instruction: mnemonic.full.to_string(),
                modifier: m.to_string(),
            }),
        }
    }

    fn decode_mnemonic(&self, m: Mnemonic<'_>) -> Result<(Opcode, ScalarType), PtxError> {
        let (full, n, base) = (m.full, m.len, m.part(0));
        let last_ty = || ScalarType::from_suffix(m.last());
        // `base[.modifier].type`: the parts between the base and the type
        // suffix are modifiers.
        let simple = |op: Opcode| -> Result<(Opcode, ScalarType), PtxError> {
            // Fails on a bare base, so `m` has a type part below.
            let ty = last_ty()?;
            let allowed: &[&str] = match (base, ty.is_float()) {
                ("add" | "sub" | "fma", true) => &["rn"],
                ("mul", false) => &["lo", "hi"],
                ("mad", false) => &["lo"],
                ("mul" | "mad", true) => &["rn"],
                ("div" | "sqrt" | "rcp", true) => &["rn", "approx"],
                ("rsqrt" | "sin" | "cos" | "ex2" | "lg2", _) => &["approx"],
                _ => &[],
            };
            self.check_modifiers(m, m.parts(1..n - 1), allowed)?;
            Ok((op, ty))
        };
        match base {
            "add" => simple(Opcode::Add),
            "sub" => simple(Opcode::Sub),
            "mul" => {
                let half = if m.parts(0..n).any(|p| p == "hi") { MulHalf::Hi } else { MulHalf::Lo };
                simple(Opcode::Mul(half))
            }
            "mad" => simple(Opcode::Mad),
            "fma" => simple(Opcode::Fma),
            "div" => simple(Opcode::Div),
            "rem" => simple(Opcode::Rem),
            "min" => simple(Opcode::Min),
            "max" => simple(Opcode::Max),
            "abs" => simple(Opcode::Abs),
            "neg" => simple(Opcode::Neg),
            "and" => simple(Opcode::And),
            "or" => simple(Opcode::Or),
            "xor" => simple(Opcode::Xor),
            "not" => simple(Opcode::Not),
            "shl" => simple(Opcode::Shl),
            "shr" => simple(Opcode::Shr),
            "sqrt" => simple(Opcode::Sqrt),
            "rsqrt" => simple(Opcode::Rsqrt),
            "rcp" => simple(Opcode::Rcp),
            "sin" => simple(Opcode::Sin),
            "cos" => simple(Opcode::Cos),
            "ex2" => simple(Opcode::Ex2),
            "lg2" => simple(Opcode::Lg2),
            "mov" => simple(Opcode::Mov),
            "selp" => simple(Opcode::Selp),
            "setp" => {
                if n < 3 {
                    return Err(self.err(format!("malformed setp `{full}`")));
                }
                let cmp = CmpOp::from_token(m.part(1))?;
                self.check_modifiers(m, m.parts(2..n - 1), &[])?;
                Ok((Opcode::Setp(cmp), last_ty()?))
            }
            "cvt" => {
                // `cvt[.rounding].dtype.stype`. Integer → float and float →
                // float conversions round to nearest (`rn`); float → integer
                // ones truncate toward zero (`rzi`) and saturate.
                if n < 3 {
                    return Err(
                        self.err(format!("cvt `{full}` must name destination and source types"))
                    );
                }
                let to = ScalarType::from_suffix(m.part(n - 2))?;
                let from = ScalarType::from_suffix(m.part(n - 1))?;
                let allowed: &[&str] = if to.is_float() {
                    &["rn"]
                } else if from.is_float() {
                    &["rzi"]
                } else {
                    &[]
                };
                self.check_modifiers(m, m.parts(1..n - 2), allowed)?;
                Ok((Opcode::Cvt(from), to))
            }
            "ld" | "ldu" | "st" => {
                if n < 3 {
                    return Err(self.err(format!("malformed {base} `{full}`")));
                }
                let space = AddressSpace::from_token(m.part(1))?;
                self.check_modifiers(m, m.parts(2..n - 1), &[])?;
                let op = if base == "st" { Opcode::St(space) } else { Opcode::Ld(space) };
                Ok((op, last_ty()?))
            }
            "atom" => {
                if n < 4 {
                    return Err(self.err(format!("malformed atom `{full}`")));
                }
                let space = AddressSpace::from_token(m.part(1))?;
                let op = match m.part(2) {
                    "add" => AtomOp::Add,
                    "min" => AtomOp::Min,
                    "max" => AtomOp::Max,
                    "exch" => AtomOp::Exch,
                    "cas" => AtomOp::Cas,
                    other => return Err(PtxError::UnknownOpcode(format!("atom.{other}"))),
                };
                self.check_modifiers(m, m.parts(3..n - 1), &[])?;
                Ok((Opcode::Atom(space, op), last_ty()?))
            }
            "vote" => {
                if n < 2 {
                    return Err(self.err(format!("malformed vote `{full}`")));
                }
                let mode = match m.part(1) {
                    "all" => VoteMode::All,
                    "any" => VoteMode::Any,
                    "uni" => VoteMode::Uni,
                    other => return Err(PtxError::UnknownOpcode(format!("vote.{other}"))),
                };
                // A trailing `.pred` is the type, not a modifier.
                let end = if n > 2 && m.last() == "pred" { n - 1 } else { n };
                self.check_modifiers(m, m.parts(2..end), &[])?;
                Ok((Opcode::Vote(mode), ScalarType::Pred))
            }
            "bar" => {
                self.check_modifiers(m, m.parts(1..n), &["sync"])?;
                Ok((Opcode::Bar, ScalarType::Pred))
            }
            "ret" | "exit" => {
                self.check_modifiers(m, m.parts(1..n), &[])?;
                Ok((if base == "ret" { Opcode::Ret } else { Opcode::Exit }, ScalarType::Pred))
            }
            other => Err(PtxError::UnknownOpcode(other.to_string())),
        }
    }

    fn parse_operands(
        &mut self,
        kernel: &Kernel,
        regs: &Registers<'a>,
    ) -> Result<Vec<Operand>, PtxError> {
        let mut out = Vec::with_capacity(4);
        loop {
            let op = self.parse_operand(kernel, regs)?;
            out.push(op);
            if self.eat_punct(',') {
                continue;
            }
            self.expect_punct(';')?;
            break;
        }
        Ok(out)
    }

    fn parse_operand(
        &mut self,
        kernel: &Kernel,
        regs: &Registers<'a>,
    ) -> Result<Operand, PtxError> {
        match self.next()? {
            Token::Register(name) => match SpecialReg::parse(name) {
                Some(sr) => Ok(Operand::Special(sr)),
                None => Ok(Operand::Reg(regs.resolve(name)?)),
            },
            Token::Int(v) => Ok(Operand::Imm(v)),
            Token::Float(v) => Ok(Operand::ImmF(v)),
            Token::Word(w) => {
                // Bare identifier: address-of a declared variable.
                if kernel.var(w).is_some() {
                    Ok(Operand::Sym(w.to_string()))
                } else {
                    Err(PtxError::UndeclaredParam(w.to_string()))
                }
            }
            Token::Punct('[') => {
                let base = match self.next()? {
                    Token::Register(name) => AddressBase::Reg(regs.resolve(name)?),
                    Token::Word(w) => {
                        if kernel.param(w).is_some() {
                            AddressBase::Param(w.to_string())
                        } else if kernel.var(w).is_some() {
                            AddressBase::Var(w.to_string())
                        } else {
                            return Err(PtxError::UndeclaredParam(w.to_string()));
                        }
                    }
                    Token::Int(v) => {
                        self.expect_punct(']')?;
                        return Ok(Operand::Addr(Address {
                            base: AddressBase::Absolute,
                            offset: v,
                        }));
                    }
                    other => {
                        return Err(self.err(format!("expected address base, found {other:?}")))
                    }
                };
                let mut offset = 0i64;
                if self.eat_punct('+') {
                    offset = self.expect_int()?;
                } else if self.eat_punct('-') {
                    offset = -self.expect_int()?;
                } else if let Some(Token::Int(v)) = self.peek() {
                    // The lexer folds a leading minus into the literal, so
                    // `[%rd0-4]` arrives as Register, Int(-4).
                    offset = v;
                    self.pos += 1;
                }
                self.expect_punct(']')?;
                Ok(Operand::Addr(Address { base, offset }))
            }
            other => Err(self.err(format!("expected operand, found {other:?}"))),
        }
    }

    fn build_instruction(
        &self,
        opcode: Opcode,
        ty: ScalarType,
        mut operands: Vec<Operand>,
    ) -> Result<Instruction, PtxError> {
        let has_dst = !matches!(opcode, Opcode::St(_));
        let dst = if has_dst {
            if operands.is_empty() {
                return Err(self.err("missing destination operand"));
            }
            match operands.remove(0) {
                Operand::Reg(r) => Some(r),
                other => {
                    return Err(self.err(format!("destination must be a register, found {other}")))
                }
            }
        } else {
            None
        };
        // Integer immediates written in float-typed instructions become
        // float immediates (`mov.f32 %f1, 0;`).
        let value_ty_is_float = match &opcode {
            Opcode::Cvt(from) => from.is_float(),
            _ => ty.is_float(),
        };
        if value_ty_is_float {
            for op in &mut operands {
                if let Operand::Imm(v) = *op {
                    *op = Operand::ImmF(v as f64);
                }
            }
        }
        Ok(Instruction::new(opcode, ty, dst, operands))
    }

    /// Decode + parse for `bra`, which embeds its target label in the opcode.
    fn parse_bra(&mut self) -> Result<Instruction, PtxError> {
        let label = self.expect_word()?;
        self.expect_punct(';')?;
        Ok(Instruction::new(Opcode::Bra(label.to_string()), ScalarType::Pred, None, vec![]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Dim;

    const VECADD: &str = r#"
.kernel vecadd (.param .u64 a, .param .u64 b, .param .u64 c, .param .u32 n) {
  .reg .u32 %r<8>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  mad.lo.u32 %r3, %ctaid.x, %ntid.x, %r1;
  ld.param.u32 %r4, [n];
  setp.ge.u32 %p1, %r3, %r4;
  @%p1 bra done;
  cvt.u64.u32 %rd1, %r3;
  shl.u64 %rd1, %rd1, 2;
  ld.param.u64 %rd2, [a];
  add.u64 %rd2, %rd2, %rd1;
  ld.global.f32 %f1, [%rd2];
  ld.param.u64 %rd3, [b];
  add.u64 %rd3, %rd3, %rd1;
  ld.global.f32 %f2, [%rd3];
  add.f32 %f3, %f1, %f2;
  ld.param.u64 %rd4, [c];
  add.u64 %rd4, %rd4, %rd1;
  st.global.f32 [%rd4], %f3;
done:
  ret;
}
"#;

    #[test]
    fn parses_vecadd() {
        let k = parse_kernel(VECADD).unwrap();
        assert_eq!(k.name, "vecadd");
        assert_eq!(k.params.len(), 4);
        assert_eq!(k.param("n").unwrap().ty, ScalarType::U32);
        assert_eq!(k.blocks.len(), 3); // entry, fallthrough body, done
        assert_eq!(k.blocks[0].label, "entry");
        assert_eq!(k.blocks[2].label, "done");
        // 8 + 8 + 4 + 2 declared registers.
        assert_eq!(k.registers.len(), 22);
    }

    #[test]
    fn guarded_branch_creates_anonymous_fallthrough() {
        let k = parse_kernel(VECADD).unwrap();
        assert!(k.blocks[1].label.starts_with("$anon"));
        let succ0 = k.successors(crate::kernel::BlockId(0));
        assert_eq!(succ0.len(), 2);
    }

    #[test]
    fn special_registers_parse() {
        let k = parse_kernel(VECADD).unwrap();
        let mov = &k.blocks[0].instructions[0];
        assert_eq!(mov.srcs[0], Operand::Special(SpecialReg::Tid(Dim::X)));
    }

    #[test]
    fn float_immediate_coercion() {
        let k = parse_kernel(
            ".kernel k () { .reg .f32 %f<2>; entry: mov.f32 %f0, 0; add.f32 %f1, %f0, 1.5; ret; }",
        )
        .unwrap();
        assert_eq!(k.blocks[0].instructions[0].srcs[0], Operand::ImmF(0.0));
        assert_eq!(k.blocks[0].instructions[1].srcs[1], Operand::ImmF(1.5));
    }

    #[test]
    fn shared_declaration() {
        let k =
            parse_kernel(".kernel k () { .shared .f32 tile[64]; .reg .u64 %rd<2>; entry: ret; }")
                .unwrap();
        assert_eq!(k.shared_size(), 256);
    }

    #[test]
    fn undefined_label_is_rejected() {
        let err = parse_kernel(".kernel k () { entry: bra nowhere; }").unwrap_err();
        assert_eq!(err, PtxError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn register_names_resolve_to_the_latest_declaration() {
        // Ids: `%r<20>` 0..20, `%r1<5>` (`%r10`..`%r14`) 20..25, `%r15` 25.
        let k = parse_kernel(
            ".kernel k () { .reg .u32 %r<20>; .reg .u32 %r1<5>; .reg .u32 %r15; entry: \
             mov.u32 %r12, 0; mov.u32 %r15, 0; mov.u32 %r16, 0; mov.u32 %r10, 0; \
             mov.u32 %r0, 0; ret; }",
        )
        .unwrap();
        let dsts: Vec<u32> =
            k.blocks[0].instructions[..5].iter().map(|i| i.dst.unwrap().0).collect();
        assert_eq!(dsts, [22, 25, 16, 20, 0]);
        for (id, name) in [(22, "%r12"), (25, "%r15"), (20, "%r10")] {
            assert_eq!(k.registers[id].name, name);
        }
        // A range spells its indices without leading zeros.
        let err = parse_kernel(".kernel k () { .reg .u32 %r<20>; entry: mov.u32 %r01, 0; ret; }")
            .unwrap_err();
        assert_eq!(err, PtxError::UndeclaredRegister("%r01".into()));
    }

    #[test]
    fn undeclared_register_is_rejected() {
        let err = parse_kernel(".kernel k () { entry: add.u32 %r1, %r1, 1; ret; }").unwrap_err();
        assert_eq!(err, PtxError::UndeclaredRegister("%r1".into()));
    }

    #[test]
    fn atom_and_vote_decode() {
        let k = parse_kernel(
            ".kernel k (.param .u64 p) { .reg .u32 %r<2>; .reg .u64 %rd<2>; .reg .pred %p<2>; \
             entry: ld.param.u64 %rd0, [p]; atom.global.add.u32 %r0, [%rd0], 1; \
             vote.all.pred %p0, %p1; ret; }",
        )
        .unwrap();
        let atom = &k.blocks[0].instructions[1];
        assert!(matches!(atom.opcode, Opcode::Atom(AddressSpace::Global, AtomOp::Add)));
        let vote = &k.blocks[0].instructions[2];
        assert!(matches!(vote.opcode, Opcode::Vote(VoteMode::All)));
    }

    #[test]
    fn multiple_kernels_in_module() {
        let m = parse_module(".kernel a () { entry: ret; } .kernel b () { entry: ret; }").unwrap();
        assert_eq!(m.kernels.len(), 2);
        assert!(m.kernel("a").is_some());
        assert!(m.kernel("b").is_some());
    }

    #[test]
    fn bar_with_operand() {
        let k = parse_kernel(".kernel k () { entry: bar.sync 0; ret; }").unwrap();
        assert!(matches!(k.blocks[0].instructions[0].opcode, Opcode::Bar));
    }
}
