//! Textual printing of kernels and modules (inverse of the parser).

use std::fmt::Write as _;

use crate::instruction::{Instruction, MulHalf, Opcode};
use crate::kernel::{Kernel, Module};
use crate::operand::{Address, AddressBase, Operand, RegId};

/// Render a kernel back to parseable source text.
///
/// Register operands are printed with their declared names so the output
/// parses back to an equivalent kernel.
pub fn print_kernel(kernel: &Kernel) -> String {
    let mut s = String::new();
    write!(s, ".kernel {} (", kernel.name).expect("string write");
    for (i, p) in kernel.params.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(s, ".param .{} {}", p.ty, p.name).expect("string write");
    }
    s.push_str(") {\n");
    for r in &kernel.registers {
        writeln!(s, "  .reg .{} {};", r.ty, r.name).expect("string write");
    }
    for v in kernel.shared_vars.iter().chain(kernel.local_vars.iter()) {
        writeln!(s, "  .{} .{} {}[{}];", v.space, v.ty, v.name, v.len).expect("string write");
    }
    for b in &kernel.blocks {
        writeln!(s, "{}:", b.label).expect("string write");
        for inst in &b.instructions {
            writeln!(s, "  {}", render_instruction(kernel, inst)).expect("string write");
        }
    }
    s.push_str("}\n");
    s
}

/// Render a module back to parseable source text.
pub fn print_module(module: &Module) -> String {
    module.kernels.iter().map(print_kernel).collect::<Vec<_>>().join("\n")
}

fn reg_name(kernel: &Kernel, r: RegId) -> String {
    kernel
        .registers
        .get(r.index())
        .map(|info| info.name.clone())
        .unwrap_or_else(|| format!("%?{}", r.0))
}

fn render_operand(kernel: &Kernel, op: &Operand) -> String {
    match op {
        Operand::Reg(r) => reg_name(kernel, *r),
        Operand::Addr(Address { base, offset }) => {
            let base_s = match base {
                AddressBase::Reg(r) => reg_name(kernel, *r),
                AddressBase::Param(p) => p.clone(),
                AddressBase::Var(v) => v.clone(),
                AddressBase::Absolute => String::new(),
            };
            if *offset == 0 && !base_s.is_empty() {
                format!("[{base_s}]")
            } else if base_s.is_empty() {
                format!("[{offset}]")
            } else if *offset < 0 {
                format!("[{base_s}-{}]", -offset)
            } else {
                format!("[{base_s}+{offset}]")
            }
        }
        other => other.to_string(),
    }
}

fn render_instruction(kernel: &Kernel, inst: &Instruction) -> String {
    let mut s = String::new();
    if let Some(g) = inst.guard {
        write!(s, "@{}{} ", if g.negated { "!" } else { "" }, reg_name(kernel, g.pred))
            .expect("string write");
    }
    match &inst.opcode {
        Opcode::Bra(label) => {
            write!(s, "bra {label};").expect("string write");
            return s;
        }
        Opcode::Bar => {
            s.push_str("bar.sync 0;");
            return s;
        }
        Opcode::Ret => {
            s.push_str("ret;");
            return s;
        }
        Opcode::Exit => {
            s.push_str("exit;");
            return s;
        }
        Opcode::Cvt(from) => {
            write!(s, "cvt.{}.{}", inst.ty, from).expect("string write");
        }
        Opcode::Vote(m) => {
            write!(s, "vote.{}.pred", m.token()).expect("string write");
        }
        Opcode::Atom(space, op) => {
            write!(s, "atom.{}.{}.{}", space, op.token(), inst.ty).expect("string write");
        }
        // `lo` selects an integer product's low half; float forms take none.
        Opcode::Mul(MulHalf::Lo) | Opcode::Mad if inst.ty.is_float() => {
            let base = if inst.opcode == Opcode::Mad { "mad" } else { "mul" };
            write!(s, "{base}.{}", inst.ty).expect("string write");
        }
        op => {
            write!(s, "{}.{}", op.mnemonic(), inst.ty).expect("string write");
        }
    }
    let mut parts = Vec::new();
    if let Some(d) = inst.dst {
        parts.push(reg_name(kernel, d));
    }
    for src in &inst.srcs {
        parts.push(render_operand(kernel, src));
    }
    if !parts.is_empty() {
        write!(s, " {}", parts.join(", ")).expect("string write");
    }
    s.push(';');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_kernel;

    const SRC: &str = r#"
.kernel saxpy (.param .u64 x, .param .u64 y, .param .f32 alpha, .param .u32 n) {
  .reg .u32 %r<4>;
  .reg .u64 %rd<4>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;
entry:
  mov.u32 %r1, %tid.x;
  mad.lo.u32 %r2, %ctaid.x, %ntid.x, %r1;
  ld.param.u32 %r3, [n];
  setp.ge.u32 %p1, %r2, %r3;
  @%p1 bra done;
  cvt.u64.u32 %rd1, %r2;
  shl.u64 %rd1, %rd1, 2;
  ld.param.u64 %rd2, [x];
  add.u64 %rd2, %rd2, %rd1;
  ld.global.f32 %f1, [%rd2];
  ld.param.f32 %f2, [alpha];
  fma.rn.f32 %f3, %f1, %f2, %f1;
  ld.param.u64 %rd3, [y];
  add.u64 %rd3, %rd3, %rd1;
  st.global.f32 [%rd3], %f3;
done:
  ret;
}
"#;

    #[test]
    fn print_parse_round_trip() {
        let k1 = parse_kernel(SRC).unwrap();
        let text = print_kernel(&k1);
        let k2 = parse_kernel(&text).unwrap();
        assert_eq!(k1.params, k2.params);
        assert_eq!(k1.registers.len(), k2.registers.len());
        assert_eq!(k1.blocks.len(), k2.blocks.len());
        for (b1, b2) in k1.blocks.iter().zip(&k2.blocks) {
            assert_eq!(b1.instructions, b2.instructions, "block {}", b1.label);
        }
    }

    #[test]
    fn renders_negative_offsets() {
        let k = parse_kernel(
            ".kernel k (.param .u64 p) { .reg .u64 %rd<2>; .reg .f32 %f<2>; \
             entry: ld.param.u64 %rd0, [p]; ld.global.f32 %f0, [%rd0-4]; ret; }",
        )
        .unwrap();
        let text = print_kernel(&k);
        assert!(text.contains("[%rd0-4]"), "{text}");
        // And it parses back.
        parse_kernel(&text).unwrap();
    }
}
