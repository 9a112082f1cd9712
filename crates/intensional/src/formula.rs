//! A small first-order language `L(V)`.
//!
//! A vocabulary `V` consists of constant symbols and predicate symbols
//! with arities; formulas are built from atomic predications with the
//! usual connectives and quantifiers. Everything is finite, so
//! satisfaction is decidable by enumeration.

use std::collections::BTreeSet;
use std::fmt;

/// Interned constant symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstId(pub u32);

/// Interned predicate symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub u32);

/// The vocabulary of a language.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Language {
    constants: Vec<String>,
    predicates: Vec<(String, usize)>,
}

impl Language {
    /// An empty language.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a constant symbol.
    pub fn constant(&mut self, name: &str) -> ConstId {
        if let Some(i) = self.constants.iter().position(|n| n == name) {
            return ConstId(i as u32);
        }
        self.constants.push(name.to_string());
        ConstId((self.constants.len() - 1) as u32)
    }

    /// Intern a predicate symbol with its arity.
    pub fn predicate(&mut self, name: &str, arity: usize) -> PredId {
        if let Some(i) = self
            .predicates
            .iter()
            .position(|(n, a)| n == name && *a == arity)
        {
            return PredId(i as u32);
        }
        self.predicates.push((name.to_string(), arity));
        PredId((self.predicates.len() - 1) as u32)
    }

    /// Constant name.
    pub fn constant_name(&self, c: ConstId) -> &str {
        &self.constants[c.0 as usize]
    }

    /// Predicate name.
    pub fn predicate_name(&self, p: PredId) -> &str {
        &self.predicates[p.0 as usize].0
    }

    /// Predicate arity.
    pub fn arity(&self, p: PredId) -> usize {
        self.predicates[p.0 as usize].1
    }

    /// Number of constants.
    pub fn n_constants(&self) -> usize {
        self.constants.len()
    }

    /// Number of predicates.
    pub fn n_predicates(&self) -> usize {
        self.predicates.len()
    }

    /// All constants.
    pub fn constants(&self) -> impl Iterator<Item = ConstId> + '_ {
        (0..self.constants.len() as u32).map(ConstId)
    }

    /// All predicates.
    pub fn predicates(&self) -> impl Iterator<Item = PredId> + '_ {
        (0..self.predicates.len() as u32).map(PredId)
    }
}

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TermRef {
    /// A named variable.
    Var(String),
    /// A constant symbol.
    Const(ConstId),
}

impl TermRef {
    /// Shorthand for a variable term.
    pub fn var(name: &str) -> TermRef {
        TermRef::Var(name.to_string())
    }
}

/// A first-order formula over a [`Language`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Formula {
    /// `p(t₁,…,tₙ)`.
    Pred(PredId, Vec<TermRef>),
    /// `t₁ = t₂`.
    Eq(TermRef, TermRef),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Universal quantification.
    Forall(String, Box<Formula>),
    /// Existential quantification.
    Exists(String, Box<Formula>),
}

impl Formula {
    /// `¬f`.
    #[allow(clippy::should_implement_trait)] // `Formula::not` mirrors logical ¬
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// `a → b`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// `∀x. f`.
    pub fn forall(x: &str, f: Formula) -> Formula {
        Formula::Forall(x.to_string(), Box::new(f))
    }

    /// `∃x. f`.
    pub fn exists(x: &str, f: Formula) -> Formula {
        Formula::Exists(x.to_string(), Box::new(f))
    }

    /// A tautology: `∀x. x = x`.
    pub fn tautology() -> Formula {
        Formula::forall("x", Formula::Eq(TermRef::var("x"), TermRef::var("x")))
    }

    /// Free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.free_vars_inner(&mut vec![], &mut out);
        out
    }

    fn free_vars_inner(&self, bound: &mut Vec<String>, out: &mut BTreeSet<String>) {
        match self {
            Formula::Pred(_, ts) => {
                for t in ts {
                    if let TermRef::Var(v) = t {
                        if !bound.contains(v) {
                            out.insert(v.clone());
                        }
                    }
                }
            }
            Formula::Eq(a, b) => {
                for t in [a, b] {
                    if let TermRef::Var(v) = t {
                        if !bound.contains(v) {
                            out.insert(v.clone());
                        }
                    }
                }
            }
            Formula::Not(f) => f.free_vars_inner(bound, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.free_vars_inner(bound, out);
                }
            }
            Formula::Implies(a, b) => {
                a.free_vars_inner(bound, out);
                b.free_vars_inner(bound, out);
            }
            Formula::Forall(x, f) | Formula::Exists(x, f) => {
                bound.push(x.clone());
                f.free_vars_inner(bound, out);
                bound.pop();
            }
        }
    }

    /// True for sentences (no free variables).
    pub fn is_sentence(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// All predicate symbols used.
    pub fn predicates(&self) -> BTreeSet<PredId> {
        let mut out = BTreeSet::new();
        self.collect_preds(&mut out);
        out
    }

    fn collect_preds(&self, out: &mut BTreeSet<PredId>) {
        match self {
            Formula::Pred(p, _) => {
                out.insert(*p);
            }
            Formula::Eq(_, _) => {}
            Formula::Not(f) => f.collect_preds(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_preds(out);
                }
            }
            Formula::Implies(a, b) => {
                a.collect_preds(out);
                b.collect_preds(out);
            }
            Formula::Forall(_, f) | Formula::Exists(_, f) => f.collect_preds(out),
        }
    }

    /// Pretty-print against a language.
    pub fn display<'a>(&'a self, lang: &'a Language) -> FormulaDisplay<'a> {
        FormulaDisplay { f: self, lang }
    }
}

/// Pretty-printer for [`Formula`].
pub struct FormulaDisplay<'a> {
    f: &'a Formula,
    lang: &'a Language,
}

impl fmt::Display for FormulaDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let term = |t: &TermRef| match t {
            TermRef::Var(v) => v.clone(),
            TermRef::Const(c) => self.lang.constant_name(*c).to_string(),
        };
        match self.f {
            Formula::Pred(p, ts) => {
                let args: Vec<String> = ts.iter().map(term).collect();
                write!(f, "{}({})", self.lang.predicate_name(*p), args.join(","))
            }
            Formula::Eq(a, b) => write!(f, "{} = {}", term(a), term(b)),
            Formula::Not(inner) => write!(f, "¬{}", inner.display(self.lang)),
            Formula::And(fs) => {
                let parts: Vec<String> = fs
                    .iter()
                    .map(|x| x.display(self.lang).to_string())
                    .collect();
                write!(f, "({})", parts.join(" ∧ "))
            }
            Formula::Or(fs) => {
                let parts: Vec<String> = fs
                    .iter()
                    .map(|x| x.display(self.lang).to_string())
                    .collect();
                write!(f, "({})", parts.join(" ∨ "))
            }
            Formula::Implies(a, b) => {
                write!(f, "({} → {})", a.display(self.lang), b.display(self.lang))
            }
            Formula::Forall(x, inner) => write!(f, "∀{x}.{}", inner.display(self.lang)),
            Formula::Exists(x, inner) => write!(f, "∃{x}.{}", inner.display(self.lang)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn language_interning() {
        let mut l = Language::new();
        let a = l.constant("a");
        assert_eq!(a, l.constant("a"));
        let p = l.predicate("above", 2);
        assert_eq!(p, l.predicate("above", 2));
        assert_eq!(l.arity(p), 2);
        assert_eq!(l.constant_name(a), "a");
        assert_eq!(l.predicate_name(p), "above");
    }

    #[test]
    fn free_vars_respect_binders() {
        let mut l = Language::new();
        let p = l.predicate("p", 2);
        let f = Formula::forall(
            "x",
            Formula::Pred(p, vec![TermRef::var("x"), TermRef::var("y")]),
        );
        assert_eq!(f.free_vars(), ["y".to_string()].into_iter().collect());
        assert!(!f.is_sentence());
        let g = Formula::forall("y", f);
        assert!(g.is_sentence());
    }

    #[test]
    fn tautology_is_a_sentence() {
        let t = Formula::tautology();
        assert!(t.is_sentence());
        assert!(t.predicates().is_empty());
    }

    #[test]
    fn display_renders_connectives() {
        let mut l = Language::new();
        let p = l.predicate("p", 1);
        let a = l.constant("a");
        let f = Formula::implies(
            Formula::Pred(p, vec![TermRef::Const(a)]),
            Formula::not(Formula::Pred(p, vec![TermRef::Const(a)])),
        );
        let s = format!("{}", f.display(&l));
        assert!(s.contains("p(a)") && s.contains('→') && s.contains('¬'));
    }
}
