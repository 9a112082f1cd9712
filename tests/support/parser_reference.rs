//! The axiom parser as it stood before the borrowed-token rewrite,
//! kept as the oracle of the differential parser suite: the lexer
//! builds an owned token vector per input, `Name` tokens own their
//! text, the parser clones each token it takes and copies the input
//! for its error messages. Only public `summa_dl` items are used, so
//! it runs against the library exactly as a caller would.

use summa_dl::concept::{Concept, Vocabulary};
use summa_dl::error::{DlError, Result};
use summa_dl::tbox::{Axiom, TBox};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Name(String),
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

/// Tokens paired with the byte offset where each begins.
fn lex(input: &str) -> Result<Vec<(Tok, usize)>> {
    let mut out = vec![];
    let mut chars = input.char_indices().peekable();
    while let Some(&(at, ch)) = chars.peek() {
        match ch {
            c if c.is_whitespace() => {
                chars.next();
            }
            '&' | '⊓' => {
                chars.next();
                out.push((Tok::Amp, at));
            }
            '|' | '⊔' => {
                chars.next();
                out.push((Tok::Pipe, at));
            }
            '~' | '¬' => {
                chars.next();
                out.push((Tok::Tilde, at));
            }
            '.' => {
                chars.next();
                out.push((Tok::Dot, at));
            }
            '(' => {
                chars.next();
                out.push((Tok::LParen, at));
            }
            ')' => {
                chars.next();
                out.push((Tok::RParen, at));
            }
            '<' | '⊑' => {
                chars.next();
                out.push((Tok::Less, at));
            }
            '=' | '≡' => {
                chars.next();
                out.push((Tok::Equals, at));
            }
            c if c.is_ascii_digit() => {
                let mut n: u32 = 0;
                while let Some(&(_, d)) = chars.peek() {
                    if let Some(v) = d.to_digit(10) {
                        // Overflowing literals are a syntax error, not
                        // a panic (found by the corpus fuzzer).
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(v))
                            .ok_or_else(|| DlError::Parse {
                                input: input.to_string(),
                                detail: "number literal too large".to_string(),
                                offset: at,
                            })?;
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Tok::Num(n), at));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut s = String::new();
                while let Some(&(_, d)) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Tok::Name(s), at));
            }
            other => {
                return Err(DlError::Parse {
                    input: input.to_string(),
                    detail: format!("unexpected character '{other}'"),
                    offset: at,
                })
            }
        }
    }
    Ok(out)
}

/// Maximum nesting depth of the recursive descent before parsing is
/// refused. The recursion `unary → concept → conj → unary` otherwise
/// grows the call stack linearly with input nesting, and inputs like
/// `"(".repeat(2000)` overflow it (found by the corpus fuzzer). Deep
/// enough for any concept a human or the generators write; shallow
/// enough to stay far from the 2 MiB test-thread stack.
const MAX_NESTING: usize = 256;

struct Parser<'a> {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    voc: &'a mut Vocabulary,
    input: String,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Byte offset of the token at `pos` (end of input when past the
    /// last token) — what error messages point at.
    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|&(_, at)| at)
            .unwrap_or(self.input.len())
    }

    fn err_at(&self, offset: usize, detail: impl Into<String>) -> DlError {
        DlError::Parse {
            input: self.input.clone(),
            detail: detail.into(),
            offset,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok) -> Result<()> {
        let at = self.offset();
        match self.next() {
            Some(got) if got == *t => Ok(()),
            got => Err(self.err_at(at, format!("expected {t:?}, got {got:?}"))),
        }
    }

    fn concept(&mut self) -> Result<Concept> {
        let first = self.conj()?;
        if self.peek() != Some(&Tok::Pipe) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == Some(&Tok::Pipe) {
            self.next();
            parts.push(self.conj()?);
        }
        Ok(Concept::or(parts))
    }

    fn conj(&mut self) -> Result<Concept> {
        let first = self.unary()?;
        if self.peek() != Some(&Tok::Amp) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == Some(&Tok::Amp) {
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
            Some(Tok::Name(r)) => self.voc.role(&r),
            got => return Err(self.err_at(at, format!("expected role after '{kw}', got {got:?}"))),
        };
        self.expect(&Tok::Dot)?;
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
                self.expect(&Tok::RParen)?;
                Ok(c)
            }
            Some(Tok::Name(name)) => match name.as_str() {
                "top" => Ok(Concept::Top),
                "bottom" => Ok(Concept::Bottom),
                kw @ ("some" | "all" | "atleast" | "atmost" | "exactly") => {
                    let kw = kw.to_string();
                    self.quantified(&kw, at)
                }
                _ => Ok(Concept::atom(self.voc.concept(&name))),
            },
            got => Err(self.err_at(at, format!("expected concept, got {got:?}"))),
        }
    }
}

/// Parse a concept expression, interning new names into `voc`.
pub fn parse_concept(input: &str, voc: &mut Vocabulary) -> Result<Concept> {
    let mut p = Parser {
        toks: lex(input)?,
        pos: 0,
        voc,
        input: input.to_string(),
        depth: 0,
    };
    let c = p.concept()?;
    if p.pos != p.toks.len() {
        return Err(p.err_at(p.offset(), "trailing tokens"));
    }
    Ok(c)
}

/// Parse an axiom `C < D` (subsumption) or `C = D` (equivalence).
pub fn parse_axiom(input: &str, voc: &mut Vocabulary) -> Result<Axiom> {
    let mut p = Parser {
        toks: lex(input)?,
        pos: 0,
        voc,
        input: input.to_string(),
        depth: 0,
    };
    let lhs = p.concept()?;
    let op_at = p.offset();
    let op = p.next();
    let rhs = p.concept()?;
    if p.pos != p.toks.len() {
        return Err(p.err_at(p.offset(), "trailing tokens"));
    }
    match op {
        Some(Tok::Less) => Ok(Axiom::Subsume { lhs, rhs }),
        Some(Tok::Equals) => Ok(Axiom::Equiv { lhs, rhs }),
        got => Err(p.err_at(op_at, format!("expected '<' or '=', got {got:?}"))),
    }
}

/// `parse_tbox` before the rewrite: one fresh lexer and parser per
/// non-blank, non-comment line, numbering lines from 1.
pub fn parse_axiom_text(text: &str) -> std::result::Result<(TBox, Vocabulary), (usize, DlError)> {
    let mut voc = Vocabulary::new();
    let mut tbox = TBox::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_axiom(line, &mut voc) {
            Ok(Axiom::Subsume { lhs, rhs }) => tbox.subsume(lhs, rhs),
            Ok(Axiom::Equiv { lhs, rhs }) => tbox.equiv(lhs, rhs),
            Ok(Axiom::Disjoint { a, b }) => tbox.disjoint(a, b),
            Err(e) => return Err((lineno + 1, e)),
        }
    }
    Ok((tbox, voc))
}
