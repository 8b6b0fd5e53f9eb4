//! Error types for parsing and validating virtual-ISA kernels.

use std::fmt;

/// Error produced while lexing, parsing or validating a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum PtxError {
    /// A type suffix that the ISA does not define.
    UnknownType(String),
    /// A state-space token that the ISA does not define.
    UnknownAddressSpace(String),
    /// An opcode mnemonic that the ISA does not define.
    UnknownOpcode(String),
    /// An instruction modifier (`.sat`, `.rmi`, `.wide`, ...) that dpvk
    /// does not implement for that instruction.
    UnsupportedModifier {
        /// 1-based line number.
        line: u32,
        /// The full mnemonic, e.g. `add.sat.s32`.
        instruction: String,
        /// The refused modifier, without its dot.
        modifier: String,
    },
    /// Lexical error with line/column position.
    Lex {
        /// 1-based line number.
        line: u32,
        /// 1-based column number.
        col: u32,
        /// Explanation of what went wrong.
        message: String,
    },
    /// Syntactic error with line position.
    Parse {
        /// 1-based line number.
        line: u32,
        /// Explanation of what went wrong.
        message: String,
    },
    /// A register was referenced but never declared.
    UndeclaredRegister(String),
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A kernel parameter was referenced but never declared.
    UndeclaredParam(String),
    /// Semantic validation failure (type mismatch, malformed block, ...).
    Validation {
        /// Kernel in which the problem occurred.
        kernel: String,
        /// Explanation of what went wrong.
        message: String,
    },
}

impl fmt::Display for PtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtxError::UnknownType(t) => write!(f, "unknown type suffix `{t}`"),
            PtxError::UnknownAddressSpace(s) => write!(f, "unknown address space `{s}`"),
            PtxError::UnknownOpcode(o) => write!(f, "unknown opcode `{o}`"),
            PtxError::UnsupportedModifier { line, instruction, modifier } => {
                write!(f, "unsupported modifier `.{modifier}` in `{instruction}` at line {line}")
            }
            PtxError::Lex { line, col, message } => {
                write!(f, "lex error at {line}:{col}: {message}")
            }
            PtxError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            PtxError::UndeclaredRegister(r) => write!(f, "undeclared register `{r}`"),
            PtxError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            PtxError::UndeclaredParam(p) => write!(f, "undeclared parameter `{p}`"),
            PtxError::Validation { kernel, message } => {
                write!(f, "validation error in kernel `{kernel}`: {message}")
            }
        }
    }
}

impl std::error::Error for PtxError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PtxError::Parse { line: 3, message: "expected operand".into() };
        assert_eq!(e.to_string(), "parse error at line 3: expected operand");
        let e = PtxError::Validation { kernel: "k".into(), message: "bad".into() };
        assert!(e.to_string().contains("kernel `k`"));
    }
}
