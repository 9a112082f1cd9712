//! Designation vs signification — the Husserl example.
//!
//! §3 of the paper:
//!
//! > "the general idea in ontology seems to be that A means B if and
//! > only if A designates B. It is important however to keep the
//! > distinction between the two and, for this, I will just consider a
//! > famous example from Husserl: *the winner at Jena* / *the loser at
//! > Waterloo*. We notice that the meaning of these two phrases is
//! > different, although their designatum is the same: Napoleon."
//!
//! We model a *description* as a unary formula (one free variable) and
//! give it two readings over a world space equipped with one
//! extensional model per world:
//!
//! * its **designatum** in a world: the unique element satisfying it
//!   there (if any) — a world-relative referent;
//! * its **signification**: the function from worlds to referents (its
//!   intension).
//!
//! Two descriptions can co-designate in the *actual* world while their
//! significations differ — which is exactly why "A designates B"
//! cannot serve as a theory of meaning, even before the paper's deeper
//! objections.

use crate::domain::{Domain, Elem};
use crate::error::{IntensionalError, Result};
use crate::formula::Formula;
use crate::model::ExtModel;
use std::collections::BTreeMap;

/// A definite description: a formula with exactly one free variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Description {
    /// Display name ("the winner at Jena").
    pub name: String,
    /// The free variable.
    pub var: String,
    /// The describing formula.
    pub body: Formula,
}

impl Description {
    /// Build a description, checking that `var` is the only free
    /// variable of `body`.
    pub fn new(name: &str, var: &str, body: Formula) -> Result<Self> {
        let fv = body.free_vars();
        if fv.len() != 1 || !fv.contains(var) {
            return Err(IntensionalError::UnboundVariable(format!(
                "description '{name}' must have exactly the free variable '{var}'"
            )));
        }
        Ok(Description {
            name: name.to_string(),
            var: var.to_string(),
            body,
        })
    }

    /// The elements satisfying the description in one model.
    pub fn extension(&self, domain: &Domain, model: &ExtModel) -> Result<Vec<Elem>> {
        let mut out = vec![];
        for e in domain.elems() {
            let mut env = BTreeMap::new();
            env.insert(self.var.clone(), e);
            if model.eval(domain, &self.body, &mut env)? {
                out.push(e);
            }
        }
        Ok(out)
    }

    /// The designatum in one model: the unique satisfier, when unique.
    pub fn designatum(&self, domain: &Domain, model: &ExtModel) -> Result<Option<Elem>> {
        let ext = self.extension(domain, model)?;
        Ok(match ext.as_slice() {
            [single] => Some(*single),
            _ => None,
        })
    }

    /// The signification: the designatum in every world of a
    /// commitment (one model per world).
    pub fn signification(&self, domain: &Domain, worlds: &[ExtModel]) -> Result<Vec<Option<Elem>>> {
        worlds.iter().map(|m| self.designatum(domain, m)).collect()
    }
}

/// The comparison of two descriptions over a world space with a
/// designated actual world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignationReport {
    /// The designata in the actual world.
    pub actual_designata: (Option<Elem>, Option<Elem>),
    /// Do the two descriptions co-designate in the actual world?
    pub co_designate: bool,
    /// Are the two significations (world-indexed referents) equal?
    pub same_signification: bool,
}

/// Compare two descriptions: designation in the actual world vs
/// signification across all worlds.
pub fn compare_descriptions(
    domain: &Domain,
    worlds: &[ExtModel],
    actual: usize,
    a: &Description,
    b: &Description,
) -> Result<DesignationReport> {
    if actual >= worlds.len() {
        return Err(IntensionalError::UnknownWorld(actual));
    }
    let sig_a = a.signification(domain, worlds)?;
    let sig_b = b.signification(domain, worlds)?;
    let actual_a = sig_a[actual];
    let actual_b = sig_b[actual];
    Ok(DesignationReport {
        actual_designata: (actual_a, actual_b),
        co_designate: actual_a.is_some() && actual_a == actual_b,
        same_signification: sig_a == sig_b,
    })
}

/// The paper's example, ready-made: a three-man domain (Napoleon,
/// Wellington, Blücher), an actual world where Napoleon both won at
/// Jena and lost at Waterloo, and a counterfactual world where
/// Wellington lost at Waterloo while Napoleon still won at Jena.
pub fn husserl_example() -> (Domain, Vec<ExtModel>, Description, Description) {
    use crate::formula::{Language, TermRef};
    use crate::relation::Relation;

    let mut lang = Language::new();
    let won_jena = lang.predicate("won_at_jena", 1);
    let lost_waterloo = lang.predicate("lost_at_waterloo", 1);

    let mut dom = Domain::new();
    let napoleon = dom.elem("napoleon");
    let wellington = dom.elem("wellington");
    let _bluecher = dom.elem("bluecher");

    // Actual world: Napoleon won at Jena AND lost at Waterloo.
    let mut actual = ExtModel::new();
    actual.set_pred(
        won_jena,
        Relation::from_tuples(1, vec![vec![napoleon]]).expect("arity 1"),
    );
    actual.set_pred(
        lost_waterloo,
        Relation::from_tuples(1, vec![vec![napoleon]]).expect("arity 1"),
    );

    // Counterfactual: Napoleon won at Jena, but Wellington lost at
    // Waterloo (history went the other way in Belgium).
    let mut counterfactual = ExtModel::new();
    counterfactual.set_pred(
        won_jena,
        Relation::from_tuples(1, vec![vec![napoleon]]).expect("arity 1"),
    );
    counterfactual.set_pred(
        lost_waterloo,
        Relation::from_tuples(1, vec![vec![wellington]]).expect("arity 1"),
    );

    let winner = Description::new(
        "the winner at Jena",
        "x",
        Formula::Pred(won_jena, vec![TermRef::var("x")]),
    )
    .expect("one free variable");
    let loser = Description::new(
        "the loser at Waterloo",
        "x",
        Formula::Pred(lost_waterloo, vec![TermRef::var("x")]),
    )
    .expect("one free variable");

    (dom, vec![actual, counterfactual], winner, loser)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{Language, TermRef};
    use crate::relation::Relation;

    #[test]
    fn husserl_co_designation_without_co_signification() {
        let (dom, worlds, winner, loser) = husserl_example();
        let report = compare_descriptions(&dom, &worlds, 0, &winner, &loser).expect("valid worlds");
        // Same designatum in the actual world: Napoleon.
        assert!(report.co_designate);
        let nap = dom.find("napoleon").expect("in domain");
        assert_eq!(report.actual_designata, (Some(nap), Some(nap)));
        // Different significations: in the counterfactual world the
        // loser at Waterloo is Wellington.
        assert!(!report.same_signification);
    }

    #[test]
    fn designatum_requires_uniqueness() {
        let mut lang = Language::new();
        let p = lang.predicate("p", 1);
        let mut dom = Domain::new();
        let a = dom.elem("a");
        let b = dom.elem("b");
        let mut m = ExtModel::new();
        m.set_pred(
            p,
            Relation::from_tuples(1, vec![vec![a], vec![b]]).expect("arity 1"),
        );
        let d = Description::new("a p", "x", Formula::Pred(p, vec![TermRef::var("x")]))
            .expect("one free var");
        // Two satisfiers: no designatum.
        assert_eq!(d.designatum(&dom, &m).expect("evaluates"), None);
        assert_eq!(d.extension(&dom, &m).expect("evaluates").len(), 2);
        // No satisfier: no designatum either.
        let mut empty = ExtModel::new();
        empty.set_pred(p, Relation::new(1));
        assert_eq!(d.designatum(&dom, &empty).expect("evaluates"), None);
    }

    #[test]
    fn descriptions_must_have_one_free_variable() {
        let mut lang = Language::new();
        let q = lang.predicate("q", 2);
        assert!(Description::new(
            "bad",
            "x",
            Formula::Pred(q, vec![TermRef::var("x"), TermRef::var("y")]),
        )
        .is_err());
        assert!(Description::new("closed", "x", Formula::tautology()).is_err());
    }

    #[test]
    fn identical_descriptions_share_signification() {
        let (dom, worlds, winner, _) = husserl_example();
        let report = compare_descriptions(&dom, &worlds, 0, &winner, &winner).expect("valid");
        assert!(report.co_designate);
        assert!(report.same_signification);
    }

    #[test]
    fn actual_world_index_is_validated() {
        let (dom, worlds, winner, loser) = husserl_example();
        assert!(compare_descriptions(&dom, &worlds, 99, &winner, &loser).is_err());
    }
}
