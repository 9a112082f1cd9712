//! Finite extensional models and satisfaction.
//!
//! An extensional model for `L(V)` is a pair `(D, R)` — a domain plus
//! interpretations of constants and predicates — exactly as the paper
//! recites the standard definition before Guarino's intensional
//! variant.

use crate::domain::{Domain, Elem};
use crate::error::{IntensionalError, Result};
use crate::formula::{ConstId, Formula, Language, PredId, TermRef};
use crate::relation::Relation;
use std::collections::BTreeMap;

/// A finite extensional model `(D, R)` for a language.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExtModel {
    consts: BTreeMap<ConstId, Elem>,
    preds: BTreeMap<PredId, Relation>,
}

impl ExtModel {
    /// An empty interpretation (fill with the setters).
    pub fn new() -> Self {
        ExtModel {
            consts: BTreeMap::new(),
            preds: BTreeMap::new(),
        }
    }

    /// Interpret a constant.
    pub fn set_const(&mut self, c: ConstId, e: Elem) {
        self.consts.insert(c, e);
    }

    /// Interpret a predicate.
    pub fn set_pred(&mut self, p: PredId, r: Relation) {
        self.preds.insert(p, r);
    }

    /// The interpretation of a constant.
    pub fn const_interp(&self, c: ConstId) -> Option<Elem> {
        self.consts.get(&c).copied()
    }

    /// The interpretation of a predicate.
    pub fn pred_interp(&self, p: PredId) -> Option<&Relation> {
        self.preds.get(&p)
    }

    fn term(&self, t: &TermRef, env: &BTreeMap<String, Elem>) -> Result<Elem> {
        match t {
            TermRef::Var(v) => env
                .get(v)
                .copied()
                .ok_or_else(|| IntensionalError::UnboundVariable(v.clone())),
            TermRef::Const(c) => self
                .const_interp(*c)
                .ok_or_else(|| IntensionalError::UnknownSymbol(format!("const#{}", c.0))),
        }
    }

    /// Satisfaction of a formula under an environment.
    pub fn eval(
        &self,
        domain: &Domain,
        f: &Formula,
        env: &mut BTreeMap<String, Elem>,
    ) -> Result<bool> {
        match f {
            Formula::Pred(p, ts) => {
                let rel = self
                    .pred_interp(*p)
                    .ok_or_else(|| IntensionalError::UnknownSymbol(format!("pred#{}", p.0)))?;
                let mut tuple = Vec::with_capacity(ts.len());
                for t in ts {
                    tuple.push(self.term(t, env)?);
                }
                if tuple.len() != rel.arity() {
                    return Err(IntensionalError::ArityMismatch {
                        expected: rel.arity(),
                        got: tuple.len(),
                    });
                }
                Ok(rel.contains(&tuple))
            }
            Formula::Eq(a, b) => Ok(self.term(a, env)? == self.term(b, env)?),
            Formula::Not(inner) => Ok(!self.eval(domain, inner, env)?),
            Formula::And(fs) => {
                for g in fs {
                    if !self.eval(domain, g, env)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(fs) => {
                for g in fs {
                    if self.eval(domain, g, env)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Implies(a, b) => Ok(!self.eval(domain, a, env)? || self.eval(domain, b, env)?),
            Formula::Forall(x, inner) => {
                for e in domain.elems() {
                    let prev = env.insert(x.clone(), e);
                    let ok = self.eval(domain, inner, env)?;
                    match prev {
                        Some(p) => {
                            env.insert(x.clone(), p);
                        }
                        None => {
                            env.remove(x);
                        }
                    }
                    if !ok {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Exists(x, inner) => {
                for e in domain.elems() {
                    let prev = env.insert(x.clone(), e);
                    let ok = self.eval(domain, inner, env)?;
                    match prev {
                        Some(p) => {
                            env.insert(x.clone(), p);
                        }
                        None => {
                            env.remove(x);
                        }
                    }
                    if ok {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Satisfaction of a sentence.
    pub fn satisfies(&self, domain: &Domain, f: &Formula) -> Result<bool> {
        self.eval(domain, f, &mut BTreeMap::new())
    }

    /// Satisfaction of a set of sentences.
    pub fn satisfies_all(&self, domain: &Domain, fs: &[Formula]) -> Result<bool> {
        for f in fs {
            if !self.satisfies(domain, f)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl Default for ExtModel {
    fn default() -> Self {
        Self::new()
    }
}

/// Enumerate every extensional model of `lang` over `domain`
/// (every constant assignment × every predicate extension), guarded by
/// a budget on the total count.
pub fn enumerate_models(lang: &Language, domain: &Domain, budget: u64) -> Result<Vec<ExtModel>> {
    // Count first.
    let d = domain.len() as u64;
    let mut bound: u64 = 1;
    for _ in lang.constants() {
        bound = bound.saturating_mul(d);
    }
    for p in lang.predicates() {
        let cells = (domain.len() as u64).saturating_pow(lang.arity(p) as u32);
        if cells >= 63 {
            return Err(IntensionalError::EnumerationTooLarge {
                bound: u64::MAX,
                budget,
            });
        }
        bound = bound.saturating_mul(1u64 << cells);
    }
    if bound > budget {
        return Err(IntensionalError::EnumerationTooLarge { bound, budget });
    }

    let mut models = vec![ExtModel::new()];
    for c in lang.constants() {
        let mut next = vec![];
        for m in &models {
            for e in domain.elems() {
                let mut m2 = m.clone();
                m2.set_const(c, e);
                next.push(m2);
            }
        }
        models = next;
    }
    for p in lang.predicates() {
        let tuples = domain.tuples(lang.arity(p));
        let mut next = vec![];
        for m in &models {
            for mask in 0u64..(1u64 << tuples.len()) {
                let mut rel = Relation::new(lang.arity(p));
                for (i, t) in tuples.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        rel.insert(t.clone()).expect("arity by construction");
                    }
                }
                let mut m2 = m.clone();
                m2.set_pred(p, rel);
                next.push(m2);
            }
        }
        models = next;
    }
    Ok(models)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Language, Domain, PredId, ConstId, ConstId) {
        let mut lang = Language::new();
        let p = lang.predicate("above", 2);
        let ca = lang.constant("a");
        let cb = lang.constant("b");
        let mut dom = Domain::new();
        dom.elem("a");
        dom.elem("b");
        (lang, dom, p, ca, cb)
    }

    #[test]
    fn atomic_satisfaction() {
        let (_lang, dom, p, ca, cb) = tiny();
        let a = dom.find("a").unwrap();
        let b = dom.find("b").unwrap();
        let mut m = ExtModel::new();
        m.set_const(ca, a);
        m.set_const(cb, b);
        m.set_pred(p, Relation::from_tuples(2, vec![vec![a, b]]).unwrap());
        let f = Formula::Pred(p, vec![TermRef::Const(ca), TermRef::Const(cb)]);
        assert!(m.satisfies(&dom, &f).unwrap());
        let g = Formula::Pred(p, vec![TermRef::Const(cb), TermRef::Const(ca)]);
        assert!(!m.satisfies(&dom, &g).unwrap());
    }

    #[test]
    fn quantifiers_range_over_domain() {
        let (_lang, dom, p, ca, _cb) = tiny();
        let a = dom.find("a").unwrap();
        let b = dom.find("b").unwrap();
        let mut m = ExtModel::new();
        m.set_const(ca, a);
        m.set_pred(
            p,
            Relation::from_tuples(2, vec![vec![a, a], vec![a, b]]).unwrap(),
        );
        // ∀y. above(a, y) holds.
        let f = Formula::forall(
            "y",
            Formula::Pred(p, vec![TermRef::Const(ca), TermRef::var("y")]),
        );
        assert!(m.satisfies(&dom, &f).unwrap());
        // ∃y. above(y, a) holds (a above a).
        let g = Formula::exists(
            "y",
            Formula::Pred(p, vec![TermRef::var("y"), TermRef::Const(ca)]),
        );
        assert!(m.satisfies(&dom, &g).unwrap());
        // ∀y. above(y, a) fails (b not above a).
        let h = Formula::forall(
            "y",
            Formula::Pred(p, vec![TermRef::var("y"), TermRef::Const(ca)]),
        );
        assert!(!m.satisfies(&dom, &h).unwrap());
    }

    #[test]
    fn tautology_true_in_all_models() {
        let (lang, dom, ..) = tiny();
        let models = enumerate_models(&lang, &dom, 1_000_000).unwrap();
        let t = Formula::tautology();
        for m in &models {
            assert!(m.satisfies(&dom, &t).unwrap());
        }
    }

    #[test]
    fn enumeration_counts() {
        // 2 constants over |D| = 2 and one binary predicate over 4
        // cells: 2 * 2 * 2^4 = 64 models.
        let (lang, dom, ..) = tiny();
        let models = enumerate_models(&lang, &dom, 1_000_000).unwrap();
        assert_eq!(models.len(), 64);
    }

    #[test]
    fn enumeration_budget_enforced() {
        let (lang, dom, ..) = tiny();
        assert!(matches!(
            enumerate_models(&lang, &dom, 10),
            Err(IntensionalError::EnumerationTooLarge { .. })
        ));
    }

    #[test]
    fn unbound_variable_reported() {
        let (_lang, dom, p, ..) = tiny();
        let mut m = ExtModel::new();
        m.set_pred(p, Relation::new(2));
        let f = Formula::Pred(p, vec![TermRef::var("x"), TermRef::var("x")]);
        assert!(matches!(
            m.satisfies(&dom, &f),
            Err(IntensionalError::UnboundVariable(_))
        ));
    }
}
