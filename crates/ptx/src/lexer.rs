//! Tokenizer for the textual kernel format.
//!
//! The lexer walks the source's bytes once and copies nothing: word,
//! directive and register tokens are slices of the source, numbers are
//! parsed from slices of it. Every token the grammar knows is ASCII, so
//! a non-ASCII character is only ever whitespace or an error.

use crate::error::PtxError;

/// One lexical token. Word-like tokens borrow their text from the
/// source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// Bare word, possibly dotted: opcodes (`add.f32`), labels, names.
    Word(&'a str),
    /// Directive starting with `.` (`.kernel`, `.reg`, `.param`, ...),
    /// without the dot.
    Directive(&'a str),
    /// Register reference starting with `%`, possibly dotted (`%tid.x`),
    /// without the `%`.
    Register(&'a str),
    /// Integer literal (decimal or `0x` hexadecimal).
    Int(i64),
    /// Floating-point literal (decimal, `0f`/`0d` raw-bits forms).
    Float(f64),
    /// Single punctuation character: `(){}[],;:@!+<>-`.
    Punct(char),
}

/// A token together with its source line (1-based).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// 1-based source line.
    pub line: u32,
}

fn is_word_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'$'
}

/// Where the lexer stands: the byte offset of the current line's start
/// and that line's number, for error positions.
struct Cursor<'a> {
    src: &'a str,
    line: u32,
    line_start: usize,
}

impl Cursor<'_> {
    /// A lex error at byte `at` of the current line: 1-based line and
    /// 1-based column, counted in characters.
    fn err(&self, at: usize, message: &str) -> PtxError {
        self.err_at(self.line, self.line_start, at, message)
    }

    fn err_at(&self, line: u32, line_start: usize, at: usize, message: &str) -> PtxError {
        let col = self.src[line_start..at].chars().count() as u32 + 1;
        PtxError::Lex { line, col, message: message.to_string() }
    }
}

/// The end of the run of bytes from `from` that satisfy `keep`.
fn scan(bytes: &[u8], from: usize, keep: impl Fn(u8) -> bool) -> usize {
    bytes[from..].iter().position(|&c| !keep(c)).map_or(bytes.len(), |k| from + k)
}

/// Tokenize kernel source text.
///
/// Comments (`// ...` and `/* ... */`) are skipped.
///
/// # Errors
///
/// Returns [`PtxError::Lex`] on malformed numeric literals or unexpected
/// characters, at the 1-based line and column where the offending token
/// (or the unterminated comment) starts.
pub fn tokenize(src: &str) -> Result<Vec<Spanned<'_>>, PtxError> {
    let bytes = src.as_bytes();
    let n = bytes.len();
    // About one token per five bytes of kernel text.
    let mut out = Vec::with_capacity(n / 5);
    let mut cur = Cursor { src, line: 1, line_start: 0 };
    let mut i = 0;

    while i < n {
        let c = bytes[i];
        if c == b'\n' {
            i += 1;
            cur.line += 1;
            cur.line_start = i;
            continue;
        }
        if c.is_ascii() && (c as char).is_whitespace() {
            i += 1;
            continue;
        }
        if !c.is_ascii() {
            let ch = src[i..].chars().next().expect("a character starts at a token boundary");
            if ch.is_whitespace() {
                i += ch.len_utf8();
                continue;
            }
            return Err(cur.err(i, &format!("unexpected character `{ch}`")));
        }
        // Comments.
        if c == b'/' && i + 1 < n {
            if bytes[i + 1] == b'/' {
                i = scan(bytes, i, |c| c != b'\n');
                continue;
            }
            if bytes[i + 1] == b'*' {
                let (open_line, open_start, open) = (cur.line, cur.line_start, i);
                i += 2;
                while i + 1 < n && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        cur.line += 1;
                        cur.line_start = i + 1;
                    }
                    i += 1;
                }
                if i + 1 >= n {
                    return Err(cur.err_at(
                        open_line,
                        open_start,
                        open,
                        "unterminated block comment",
                    ));
                }
                i += 2;
                continue;
            }
        }
        // Registers.
        if c == b'%' {
            let j = scan(bytes, i + 1, is_word_byte);
            if j == i + 1 {
                return Err(cur.err(i, "`%` not followed by a register name"));
            }
            out.push(Spanned { token: Token::Register(&src[i + 1..j]), line: cur.line });
            i = j;
            continue;
        }
        // Directives.
        if c == b'.' {
            let j = scan(bytes, i + 1, |c| c != b'.' && is_word_byte(c));
            if j == i + 1 {
                return Err(cur.err(i, "`.` not followed by a directive name"));
            }
            out.push(Spanned { token: Token::Directive(&src[i + 1..j]), line: cur.line });
            i = j;
            continue;
        }
        // Numbers (optionally negative).
        if c.is_ascii_digit()
            || (c == b'-' && i + 1 < n && (bytes[i + 1].is_ascii_digit() || bytes[i + 1] == b'.'))
        {
            let (token, end) = number(bytes, src, i).map_err(|message| cur.err(i, message))?;
            out.push(Spanned { token, line: cur.line });
            i = end;
            continue;
        }
        // Words.
        if c.is_ascii_alphabetic() || c == b'_' || c == b'$' {
            let j = scan(bytes, i, is_word_byte);
            out.push(Spanned { token: Token::Word(&src[i..j]), line: cur.line });
            i = j;
            continue;
        }
        // Punctuation.
        if b"(){}[],;:@!+<>-".contains(&c) {
            out.push(Spanned { token: Token::Punct(c as char), line: cur.line });
            i += 1;
            continue;
        }
        return Err(cur.err(i, &format!("unexpected character `{}`", c as char)));
    }
    Ok(out)
}

/// The numeric literal starting at `start` (a digit, or a `-` before a
/// digit or `.`), and the offset just past it.
fn number<'a>(
    bytes: &[u8],
    src: &'a str,
    start: usize,
) -> Result<(Token<'a>, usize), &'static str> {
    let n = bytes.len();
    let neg = bytes[start] == b'-';
    let j = start + usize::from(neg);
    // Raw-bits float forms: 0fXXXXXXXX / 0dXXXXXXXXXXXXXXXX. Any other
    // digit count lexes as the integer 0 followed by a word.
    if j + 1 < n && bytes[j] == b'0' && (bytes[j + 1] == b'f' || bytes[j + 1] == b'd') {
        let is_f32 = bytes[j + 1] == b'f';
        let k = scan(bytes, j + 2, |c| c.is_ascii_hexdigit());
        let digits = &src[j + 2..k];
        if digits.len() == if is_f32 { 8 } else { 16 } {
            let value = if is_f32 {
                f32::from_bits(u32::from_str_radix(digits, 16).map_err(|_| "bad 0f literal")?)
                    as f64
            } else {
                f64::from_bits(u64::from_str_radix(digits, 16).map_err(|_| "bad 0d literal")?)
            };
            return Ok((Token::Float(if neg { -value } else { value }), k));
        }
    }
    // Hexadecimal integers.
    if j + 1 < n && bytes[j] == b'0' && (bytes[j + 1] == b'x' || bytes[j + 1] == b'X') {
        let k = scan(bytes, j + 2, |c| c.is_ascii_hexdigit());
        let digits = &src[j + 2..k];
        if digits.is_empty() {
            return Err("empty hex literal");
        }
        let mag = u64::from_str_radix(digits, 16).map_err(|_| "hex literal out of range")? as i64;
        return Ok((Token::Int(if neg { mag.wrapping_neg() } else { mag }), k));
    }
    // Decimal integer or float.
    let mut k = j;
    let mut is_float = false;
    while k < n {
        let ch = bytes[k];
        if ch.is_ascii_digit() {
            k += 1;
        } else if ch == b'.' && !is_float && k + 1 < n && bytes[k + 1].is_ascii_digit() {
            is_float = true;
            k += 1;
        } else if (ch == b'e' || ch == b'E')
            && k + 1 < n
            && (bytes[k + 1].is_ascii_digit()
                || ((bytes[k + 1] == b'+' || bytes[k + 1] == b'-')
                    && k + 2 < n
                    && bytes[k + 2].is_ascii_digit()))
        {
            is_float = true;
            k += 1;
            if bytes[k] == b'+' || bytes[k] == b'-' {
                k += 1;
            }
        } else {
            break;
        }
    }
    let text = &src[start..k];
    let token = if is_float {
        Token::Float(text.parse().map_err(|_| "bad float literal")?)
    } else {
        Token::Int(text.parse().map_err(|_| "integer literal out of range")?)
    };
    Ok((token, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        tokenize(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn words_and_directives() {
        assert_eq!(toks(".kernel foo"), vec![Token::Directive("kernel"), Token::Word("foo")]);
    }

    #[test]
    fn dotted_mnemonics_are_one_word() {
        assert_eq!(toks("setp.ge.u32"), vec![Token::Word("setp.ge.u32")]);
    }

    #[test]
    fn registers_keep_dots() {
        assert_eq!(toks("%tid.x %r1"), vec![Token::Register("tid.x"), Token::Register("r1")]);
    }

    #[test]
    fn numeric_literals() {
        assert_eq!(toks("42"), vec![Token::Int(42)]);
        assert_eq!(toks("-7"), vec![Token::Int(-7)]);
        assert_eq!(toks("0x1F"), vec![Token::Int(31)]);
        assert_eq!(toks("1.5"), vec![Token::Float(1.5)]);
        assert_eq!(toks("2e3"), vec![Token::Float(2000.0)]);
        assert_eq!(toks("0f3F800000"), vec![Token::Float(1.0)]);
        assert_eq!(toks("-0f3F800000"), vec![Token::Float(-1.0)]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(toks("add // comment\nsub"), vec![Token::Word("add"), Token::Word("sub")]);
        assert_eq!(toks("a /* x\ny */ b"), vec![Token::Word("a"), Token::Word("b")]);
    }

    #[test]
    fn line_numbers_advance() {
        let spanned = tokenize("a\nb\n\nc").unwrap();
        let lines: Vec<u32> = spanned.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn punctuation() {
        assert_eq!(
            toks("[%r1+8]"),
            vec![
                Token::Punct('['),
                Token::Register("r1"),
                Token::Punct('+'),
                Token::Int(8),
                Token::Punct(']'),
            ]
        );
    }

    fn position(src: &str) -> (u32, u32) {
        match tokenize(src).unwrap_err() {
            PtxError::Lex { line, col, .. } => (line, col),
            other => panic!("expected lex error, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_position() {
        // 1-based line, and 1-based column within that line.
        assert_eq!(position("a\n  ?"), (2, 3));
        assert_eq!(position("?"), (1, 1));
        // A numeric literal's error points at its first character.
        assert_eq!(position("add\n\n  mov %r1, 99999999999999999999;"), (3, 12));
        assert_eq!(position("x\ny, -0x;"), (2, 4));
        // Columns count characters, not bytes.
        assert_eq!(position("// \u{e9}t\u{e9}\n\u{a0}\u{a0} ?"), (2, 4));
        // An unterminated comment is reported where it opens.
        assert_eq!(position("a\n b /* x\n y"), (2, 4));
    }
}
