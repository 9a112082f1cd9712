//! A small concrete syntax for concepts and axioms.
//!
//! Grammar (ASCII-friendly):
//!
//! ```text
//! concept  := conj ('|' conj)*
//! conj     := unary ('&' unary)*
//! unary    := '~' unary
//!           | 'some' ROLE '.' unary        (∃r.C)
//!           | 'all' ROLE '.' unary         (∀r.C)
//!           | 'atleast' N ROLE '.' unary   (≥n r.C)
//!           | 'atmost' N ROLE '.' unary    (≤n r.C)
//!           | 'exactly' N ROLE '.' unary   (≥n ⊓ ≤n)
//!           | 'top' | 'bottom'
//!           | NAME
//!           | '(' concept ')'
//! axiom    := concept '<' concept          (subsumption)
//!           | concept '=' concept          (equivalence)
//! ```
//!
//! Names are interned into the supplied [`Vocabulary`] on sight.
//!
//! Parsing copies nothing it does not keep. The lexer writes a line's
//! tokens into a buffer, and a name token borrows its text from the
//! line; [`parse_axiom_text`] reads a TBox's text once, lexing each line
//! into the same buffer, and reads a taxonomy line (`A < B`) straight
//! off its three tokens. A name's text is copied once, when the
//! vocabulary first sees it. An error copies the input into its
//! [`DlError::Parse`], and only then. The parser this one replaced is
//! kept in the test suite as its oracle: on every input both give the
//! same value, or the same error text and offset.
//!
//! ```
//! use summa_dl::prelude::*;
//! let mut voc = Vocabulary::new();
//! let c = parse_concept("car & some size.small", &mut voc).unwrap();
//! assert_eq!(c.size(), 4);
//! ```

use crate::concept::{Concept, Vocabulary};
use crate::error::{DlError, Result};
use crate::tbox::{Axiom, TBox};

/// A token. A name borrows its text from the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'t> {
    Name(&'t str),
    Num(u32),
    Amp,
    Pipe,
    Tilde,
    Dot,
    LParen,
    RParen,
    Less,
    Equals,
}

/// A token and the byte offset where it begins.
type Spanned<'t> = (Tok<'t>, usize);

fn parse_error(input: &str, offset: usize, detail: String) -> DlError {
    DlError::Parse {
        input: input.to_string(),
        detail,
        offset,
    }
}

/// Lex `text` from byte `from` into `out`, replacing what it held,
/// each token with its offset from `from`. With `line`, lexing stops at
/// the first `\n`; otherwise `\n` is whitespace. Returns where it
/// stopped: that `\n`, or the end of `text`. The whole input is lexed
/// before any of it is parsed, so a lexical error anywhere wins over a
/// syntax error; it comes back as its offset from `from` and detail.
/// ASCII is read a byte at a time; a character is decoded only where a
/// byte is not ASCII.
fn lex<'t>(
    text: &'t str,
    from: usize,
    line: bool,
    out: &mut Vec<Spanned<'t>>,
) -> std::result::Result<usize, (usize, String)> {
    out.clear();
    let bytes = text.as_bytes();
    let mut at = from;
    while let Some(&b) = bytes.get(at) {
        let (tok, len) = match b {
            b'\n' if line => return Ok(at),
            b' ' | b'\t'..=b'\r' => {
                at += 1;
                continue;
            }
            b'&' => (Tok::Amp, 1),
            b'|' => (Tok::Pipe, 1),
            b'~' => (Tok::Tilde, 1),
            b'.' => (Tok::Dot, 1),
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b'<' => (Tok::Less, 1),
            b'=' => (Tok::Equals, 1),
            b'0'..=b'9' => {
                let len = bytes[at..]
                    .iter()
                    .take_while(|d| d.is_ascii_digit())
                    .count();
                // Overflowing literals are a syntax error, not a panic
                // (found by the corpus fuzzer).
                let n = bytes[at..at + len].iter().try_fold(0u32, |n, &d| {
                    n.checked_mul(10)?.checked_add(u32::from(d - b'0'))
                });
                let Some(n) = n else {
                    return Err((at - from, "number literal too large".into()));
                };
                (Tok::Num(n), len)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => name(text, at),
            _ => {
                let c = text[at..].chars().next().expect("`at` is a char boundary");
                match c {
                    c if c.is_whitespace() => {
                        at += c.len_utf8();
                        continue;
                    }
                    '⊓' => (Tok::Amp, c.len_utf8()),
                    '⊔' => (Tok::Pipe, c.len_utf8()),
                    '¬' => (Tok::Tilde, c.len_utf8()),
                    '⊑' => (Tok::Less, c.len_utf8()),
                    '≡' => (Tok::Equals, c.len_utf8()),
                    c if is_name_char(c) => name(text, at),
                    other => return Err((at - from, format!("unexpected character '{other}'"))),
                }
            }
        };
        out.push((tok, at - from));
        at += len;
    }
    Ok(text.len())
}

/// The name starting at byte `at`, and its length: letters, digits
/// and underscores, Unicode ones included.
fn name(input: &str, at: usize) -> (Tok<'_>, usize) {
    let bytes = input.as_bytes();
    let mut end = at;
    loop {
        end += bytes[end..]
            .iter()
            .take_while(|&&b| b.is_ascii_alphanumeric() || b == b'_')
            .count();
        if bytes.get(end).is_none_or(u8::is_ascii) {
            break;
        }
        let c = input[end..]
            .chars()
            .next()
            .expect("`end` is a char boundary");
        if !is_name_char(c) {
            break;
        }
        end += c.len_utf8();
    }
    (Tok::Name(&input[at..end]), end - at)
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Names the grammar reads as constructors, never as concept names.
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "top" | "bottom" | "some" | "all" | "atleast" | "atmost" | "exactly"
    )
}

/// Maximum nesting depth of the recursive descent before parsing is
/// refused: at most this many `unary` frames may be open at once, so
/// `top` inside 255 parentheses parses and inside 256 it does not. The
/// recursion `unary → concept → conj → unary` otherwise grows the call
/// stack linearly with input nesting, and inputs like
/// `"(".repeat(2000)` overflow it (found by the corpus fuzzer). Deep
/// enough for any concept a human or the generators write; shallow
/// enough to stay far from the 2 MiB test-thread stack.
pub const MAX_NESTING: usize = 256;

struct Parser<'t, 'p> {
    toks: &'p [Spanned<'t>],
    pos: usize,
    voc: &'p mut Vocabulary,
    input: &'t str,
    depth: usize,
}

impl<'t, 'p> Parser<'t, 'p> {
    fn new(input: &'t str, toks: &'p [Spanned<'t>], voc: &'p mut Vocabulary) -> Self {
        Parser {
            toks,
            pos: 0,
            voc,
            input,
            depth: 0,
        }
    }

    /// Byte offset of the token at `pos` (end of input when past the
    /// last token) — what error messages point at.
    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map_or(self.input.len(), |&(_, at)| at)
    }

    fn err_at(&self, offset: usize, detail: impl Into<String>) -> DlError {
        parse_error(self.input, offset, detail.into())
    }

    fn peek(&self) -> Option<Tok<'t>> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    fn next(&mut self) -> Option<Tok<'t>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok<'t>) -> Result<()> {
        let at = self.offset();
        match self.next() {
            Some(got) if got == t => Ok(()),
            got => Err(self.err_at(at, format!("expected {t:?}, got {got:?}"))),
        }
    }

    /// Refuse tokens left over after a complete parse.
    fn finish(&self) -> Result<()> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(self.err_at(self.offset(), "trailing tokens"))
        }
    }

    fn concept(&mut self) -> Result<Concept> {
        let first = self.conj()?;
        if self.peek() != Some(Tok::Pipe) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == Some(Tok::Pipe) {
            self.next();
            parts.push(self.conj()?);
        }
        Ok(Concept::or(parts))
    }

    fn conj(&mut self) -> Result<Concept> {
        let first = self.unary()?;
        if self.peek() != Some(Tok::Amp) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == Some(Tok::Amp) {
            self.next();
            parts.push(self.unary()?);
        }
        Ok(Concept::and(parts))
    }

    fn quantified(&mut self, kw: &str, kw_at: usize) -> Result<Concept> {
        // after 'some'/'all': ROLE '.' unary
        // after 'atleast'/'atmost'/'exactly': N ROLE '.' unary
        let n = if matches!(kw, "atleast" | "atmost" | "exactly") {
            let at = self.offset();
            match self.next() {
                Some(Tok::Num(n)) => Some(n),
                got => {
                    return Err(
                        self.err_at(at, format!("expected number after '{kw}', got {got:?}"))
                    )
                }
            }
        } else {
            None
        };
        let at = self.offset();
        let role = match self.next() {
            Some(Tok::Name(r)) => self.voc.role(r),
            got => return Err(self.err_at(at, format!("expected role after '{kw}', got {got:?}"))),
        };
        self.expect(Tok::Dot)?;
        let inner = self.unary()?;
        let n = || n.ok_or_else(|| self.err_at(kw_at, format!("'{kw}' requires a count")));
        Ok(match kw {
            "some" => Concept::exists(role, inner),
            "all" => Concept::forall(role, inner),
            "atleast" => Concept::at_least(n()?, role, inner),
            "atmost" => Concept::at_most(n()?, role, inner),
            "exactly" => Concept::exactly(n()?, role, inner),
            other => return Err(self.err_at(kw_at, format!("unknown quantifier '{other}'"))),
        })
    }

    fn unary(&mut self) -> Result<Concept> {
        let at = self.offset();
        if self.depth >= MAX_NESTING {
            return Err(self.err_at(at, format!("nesting deeper than {MAX_NESTING}")));
        }
        self.depth += 1;
        let out = self.unary_inner(at);
        self.depth -= 1;
        out
    }

    fn unary_inner(&mut self, at: usize) -> Result<Concept> {
        match self.next() {
            Some(Tok::Tilde) => Ok(Concept::not(self.unary()?)),
            Some(Tok::LParen) => {
                let c = self.concept()?;
                self.expect(Tok::RParen)?;
                Ok(c)
            }
            Some(Tok::Name(name)) if is_keyword(name) => match name {
                "top" => Ok(Concept::Top),
                "bottom" => Ok(Concept::Bottom),
                _ => self.quantified(name, at),
            },
            Some(Tok::Name(name)) => Ok(Concept::atom(self.voc.concept(name))),
            got => Err(self.err_at(at, format!("expected concept, got {got:?}"))),
        }
    }

    /// `C < D` or `C = D`. The operator is checked only once both sides
    /// have parsed, so a malformed side is the error reported first. A
    /// taxonomy line, two names and the operator, is read straight off
    /// its three tokens.
    fn axiom(&mut self) -> Result<Axiom> {
        if let [(Tok::Name(l), _), (op @ (Tok::Less | Tok::Equals), _), (Tok::Name(r), _)] =
            *self.toks
        {
            if !is_keyword(l) && !is_keyword(r) {
                let lhs = Concept::atom(self.voc.concept(l));
                let rhs = Concept::atom(self.voc.concept(r));
                self.pos = 3;
                return Ok(if op == Tok::Less {
                    Axiom::Subsume { lhs, rhs }
                } else {
                    Axiom::Equiv { lhs, rhs }
                });
            }
        }
        let lhs = self.concept()?;
        let op_at = self.offset();
        let op = self.next();
        let rhs = self.concept()?;
        self.finish()?;
        match op {
            Some(Tok::Less) => Ok(Axiom::Subsume { lhs, rhs }),
            Some(Tok::Equals) => Ok(Axiom::Equiv { lhs, rhs }),
            got => Err(self.err_at(op_at, format!("expected '<' or '=', got {got:?}"))),
        }
    }
}

/// Parse a concept expression, interning new names into `voc`.
pub fn parse_concept(input: &str, voc: &mut Vocabulary) -> Result<Concept> {
    let mut toks = Vec::new();
    lex(input, 0, false, &mut toks).map_err(|(at, detail)| parse_error(input, at, detail))?;
    let mut p = Parser::new(input, &toks, voc);
    let c = p.concept()?;
    p.finish()?;
    Ok(c)
}

/// Parse an axiom `C < D` (subsumption) or `C = D` (equivalence).
pub fn parse_axiom(input: &str, voc: &mut Vocabulary) -> Result<Axiom> {
    let mut toks = Vec::new();
    lex(input, 0, false, &mut toks).map_err(|(at, detail)| parse_error(input, at, detail))?;
    Parser::new(input, &toks, voc).axiom()
}

/// Parse axiom text, one axiom per line, into a fresh TBox and the
/// vocabulary of its names, numbered in the order they are first seen.
/// Lines end at `\n`; each is trimmed, and blank lines and lines
/// starting with `#` are skipped. On the first line that does not
/// parse, returns its number (counting from 1) with the error
/// [`parse_axiom`] gives for the trimmed line.
///
/// The text is read once: the lexer runs from a line's first
/// non-blank byte to its `\n`, writing every line's tokens into the
/// same buffer, and the trimmed line is cut out only to parse them.
pub fn parse_axiom_text(text: &str) -> std::result::Result<(TBox, Vocabulary), (usize, DlError)> {
    let mut voc = Vocabulary::new();
    let mut tbox = TBox::new();
    let mut toks = Vec::new();
    let mut at = 0;
    let mut number = 0;
    while at < text.len() {
        number += 1;
        let start = at + blank_len(&text[at..]);
        let line_end = || text[start..].find('\n').map_or(text.len(), |i| start + i);
        match text.as_bytes().get(start) {
            None => break,
            Some(b'\n') => {
                at = start + 1;
                continue;
            }
            Some(b'#') => {
                at = line_end() + 1;
                continue;
            }
            Some(_) => {}
        }
        let end = lex(text, start, true, &mut toks).map_err(|(offset, detail)| {
            let line = text[start..line_end()].trim_end();
            (number, parse_error(line, offset, detail))
        })?;
        let line = text[start..end].trim_end();
        let axiom = Parser::new(line, &toks, &mut voc).axiom();
        tbox.add(axiom.map_err(|e| (number, e))?);
        at = end + 1;
    }
    Ok((tbox, voc))
}

/// Length of the whitespace other than `\n` that `s` starts with.
fn blank_len(s: &str) -> usize {
    s.char_indices()
        .find(|&(_, c)| c == '\n' || !c.is_whitespace())
        .map_or(s.len(), |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tbox::TBox;

    #[test]
    fn parses_atoms_and_constants() {
        let mut v = Vocabulary::new();
        assert_eq!(parse_concept("top", &mut v).unwrap(), Concept::Top);
        assert_eq!(parse_concept("bottom", &mut v).unwrap(), Concept::Bottom);
        let c = parse_concept("car", &mut v).unwrap();
        assert!(matches!(c, Concept::Atom(_)));
    }

    #[test]
    fn precedence_and_over_or() {
        let mut v = Vocabulary::new();
        let c = parse_concept("a & b | c", &mut v).unwrap();
        // (a ⊓ b) ⊔ c
        assert!(matches!(c, Concept::Or(_)));
        let d = parse_concept("a & (b | c)", &mut v).unwrap();
        assert!(matches!(d, Concept::And(_)));
    }

    #[test]
    fn parses_quantifiers() {
        let mut v = Vocabulary::new();
        let c = parse_concept("some size.small", &mut v).unwrap();
        assert!(matches!(c, Concept::Exists(_, _)));
        let d = parse_concept("all has.wheel", &mut v).unwrap();
        assert!(matches!(d, Concept::Forall(_, _)));
        let e = parse_concept("atleast 4 has.wheel", &mut v).unwrap();
        assert!(matches!(e, Concept::AtLeast(4, _, _)));
        let f = parse_concept("atmost 2 has.wheel", &mut v).unwrap();
        assert!(matches!(f, Concept::AtMost(2, _, _)));
        let g = parse_concept("exactly 4 has.wheel", &mut v).unwrap();
        assert!(matches!(g, Concept::And(_)));
    }

    #[test]
    fn parses_negation_and_nesting() {
        let mut v = Vocabulary::new();
        let c = parse_concept("~(a & some r.~b)", &mut v).unwrap();
        assert!(matches!(c, Concept::Not(_)));
        assert_eq!(c.nnf().nnf(), c.nnf());
    }

    #[test]
    fn parses_paper_structure_four() {
        let mut v = Vocabulary::new();
        let ax = parse_axiom("car < motorvehicle & roadvehicle & some size.small", &mut v).unwrap();
        let mut t = TBox::new();
        t.add(ax);
        assert_eq!(t.len(), 1);
        assert!(v.find_concept("car").is_some());
        assert!(v.find_role("size").is_some());
    }

    #[test]
    fn parses_equivalence() {
        let mut v = Vocabulary::new();
        let ax = parse_axiom("a = b & c", &mut v).unwrap();
        assert!(matches!(ax, Axiom::Equiv { .. }));
    }

    #[test]
    fn unicode_operators_accepted() {
        let mut v = Vocabulary::new();
        let ax = parse_axiom("car ⊑ motor ⊓ road", &mut v).unwrap();
        assert!(matches!(ax, Axiom::Subsume { .. }));
        let c = parse_concept("¬a ⊔ b", &mut v).unwrap();
        assert!(matches!(c, Concept::Or(_)));
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let mut v = Vocabulary::new();
        match parse_concept("a @ b", &mut v) {
            Err(DlError::Parse { offset, .. }) => assert_eq!(offset, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        match parse_concept("a &", &mut v) {
            // Unexpected end of input points one past the last byte.
            Err(DlError::Parse { offset, .. }) => assert_eq!(offset, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
        match parse_concept("some .x", &mut v) {
            Err(DlError::Parse { offset, .. }) => assert_eq!(offset, 5),
            other => panic!("expected parse error, got {other:?}"),
        }
        match parse_axiom("a ~ b", &mut v) {
            Err(DlError::Parse { offset, .. }) => assert_eq!(offset, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_inputs_error_instead_of_crashing() {
        let mut v = Vocabulary::new();
        // Lexer: a literal past u32::MAX must not overflow-panic.
        match parse_concept("atleast 99999999999999999999 r.top", &mut v) {
            Err(DlError::Parse { detail, .. }) => assert!(detail.contains("too large")),
            other => panic!("expected parse error, got {other:?}"),
        }
        // Parser: pathological nesting must not overflow the stack.
        let deep = "(".repeat(10_000);
        match parse_concept(&deep, &mut v) {
            Err(DlError::Parse { detail, .. }) => assert!(detail.contains("nesting")),
            other => panic!("expected parse error, got {other:?}"),
        }
        // Reasonable nesting still parses.
        let ok = format!("{}top{}", "(".repeat(200), ")".repeat(200));
        assert!(parse_concept(&ok, &mut v).is_ok());
    }

    #[test]
    fn reports_errors() {
        let mut v = Vocabulary::new();
        assert!(parse_concept("", &mut v).is_err());
        assert!(parse_concept("a &", &mut v).is_err());
        assert!(parse_concept("a b", &mut v).is_err());
        assert!(parse_concept("some .x", &mut v).is_err());
        assert!(parse_concept("atleast has.x", &mut v).is_err());
        assert!(parse_concept("a @ b", &mut v).is_err());
        assert!(parse_axiom("a b", &mut v).is_err());
    }

    #[test]
    fn parses_a_32k_axiom_text() {
        // A TBox the size a `load_snapshot` frame can carry (~860 KiB,
        // 32k distinct names). Interning must look names up in O(1):
        // a scan per lookup makes parsing quadratic in the vocabulary.
        const AXIOMS: usize = 32 * 1024;
        let text: String = (0..AXIOMS)
            .map(|i| {
                let (b, c, r) = ((i * 7 + 1) % AXIOMS, (i * 13 + 5) % AXIOMS, i % 16);
                match i % 3 {
                    0 => format!("c{i} < c{b}\n"),
                    1 => format!("c{i} < some r{r}.(c{b} & c{c})\n"),
                    _ => format!("c{i} = c{b} | all r{r}.c{c}\n"),
                }
            })
            .collect();
        assert!(text.len() > 512 * 1024 && text.len() < 1024 * 1024);
        let mut v = Vocabulary::new();
        let mut tbox = TBox::new();
        for line in text.lines() {
            tbox.add(parse_axiom(line, &mut v).expect("generated axioms parse"));
        }
        assert_eq!(tbox.len(), AXIOMS);
        assert_eq!((v.n_concepts(), v.n_roles()), (AXIOMS, 16));
        // Ids are first-seen positions (line 1 names c0 and c1, line 2
        // the first role), and every name finds its own.
        assert_eq!(v.find_concept("c1"), Some(crate::concept::ConceptId(1)));
        assert_eq!(v.find_role("r1"), Some(crate::concept::RoleId(0)));
        for c in v.concepts() {
            assert_eq!(v.find_concept(v.concept_name(c)), Some(c));
        }
        for r in v.roles() {
            assert_eq!(v.find_role(v.role_name(r)), Some(r));
        }
        assert_eq!(v.find_concept("c32768"), None);
    }
}
