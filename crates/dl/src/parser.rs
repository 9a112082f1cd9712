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
//! ```
//! use summa_dl::prelude::*;
//! let mut voc = Vocabulary::new();
//! let c = parse_concept("car & some size.small", &mut voc).unwrap();
//! assert_eq!(c.size(), 4);
//! ```

use crate::concept::{Concept, Vocabulary};
use crate::error::{DlError, Result};
use crate::tbox::Axiom;

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
