//! Ontological commitments and Guarino's definition of an ontonomy.
//!
//! An ontological commitment `K` for a language `L` is an intensional
//! model: for every possible world, an extensional model of `L`. The
//! *intended models* of `L` according to `K` are exactly the
//! extensional models that `K` assigns to some world.
//!
//! Guarino's definition (as quoted in the paper):
//!
//! > Given a language L, with ontological commitment K, an \[ontonomy\]
//! > for L is a set of axioms designed in a way such that the set of
//! > its models approximates as best as possible the set of intended
//! > models of L according to K.
//!
//! The paper's §2 critique proceeds in three steps, each of which is a
//! checkable [`AdmissionLevel`] here:
//!
//! 1. **Exact** — models(axioms) = intended(K). Almost nothing
//!    qualifies.
//! 2. **Approximate** — models(axioms) ∩ intended(K) ≠ ∅ ("any system
//!    of statements that admits at least one model that is also a
//!    model for L is an ontonomy for L").
//! 3. **AbstractedFromLanguage** — the axioms merely admit *some*
//!    model ("if we abstract from the language, then any set of
//!    statements that admits at least a model is an ontonomy. In
//!    particular, any set of tautologies is an \[ontonomy\]").

use crate::domain::Domain;
use crate::error::Result;
use crate::formula::{Formula, Language};
use crate::model::{enumerate_models, ExtModel};
use crate::world::WorldSpace;

/// An ontological commitment: one extensional model per world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OntologicalCommitment {
    models: Vec<ExtModel>,
}

impl OntologicalCommitment {
    /// Build from a world space and an assignment of one extensional
    /// model per world (in world order).
    pub fn new(space: &WorldSpace, models: Vec<ExtModel>) -> Result<Self> {
        if models.len() != space.len() {
            return Err(crate::error::IntensionalError::UnknownWorld(models.len()));
        }
        Ok(OntologicalCommitment { models })
    }

    /// The intended models (deduplicated, order preserved).
    pub fn intended_models(&self) -> Vec<&ExtModel> {
        let mut out: Vec<&ExtModel> = vec![];
        for m in &self.models {
            if !out.contains(&m) {
                out.push(m);
            }
        }
        out
    }

    /// The model assigned to world `i`.
    pub fn at(&self, i: usize) -> Option<&ExtModel> {
        self.models.get(i)
    }

    /// Number of worlds.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no worlds.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// The three admission levels the paper distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionLevel {
    /// models(axioms) must equal the intended-model set.
    Exact,
    /// models(axioms) must share at least one model with the
    /// intended-model set ("approximates").
    Approximate,
    /// The axioms must merely be satisfiable (the commitment and even
    /// the language are abstracted away).
    AbstractedFromLanguage,
}

/// The result of judging an axiom set against a commitment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OntonomyJudgment {
    /// The level at which the judgment was made.
    pub level: AdmissionLevel,
    /// Whether the axiom set qualifies as an ontonomy at that level.
    pub admitted: bool,
    /// |models(axioms)| over the enumerated model space.
    pub n_models: usize,
    /// |intended(K)| (0 when the level abstracts from the language).
    pub n_intended: usize,
    /// |models(axioms) ∩ intended(K)|.
    pub n_shared: usize,
}

/// Judge whether `axioms` form an ontonomy for `lang` under
/// `commitment` at `level`, enumerating all models over `domain`
/// (bounded by `budget`).
pub fn judge_ontonomy(
    lang: &Language,
    domain: &Domain,
    commitment: &OntologicalCommitment,
    axioms: &[Formula],
    level: AdmissionLevel,
    budget: u64,
) -> Result<OntonomyJudgment> {
    let all = enumerate_models(lang, domain, budget)?;
    judge_ontonomy_over(&all, domain, commitment, axioms, level)
}

/// [`judge_ontonomy`] over models the caller has already enumerated:
/// `all` must be every model of the language over `domain`.
pub fn judge_ontonomy_over(
    all: &[ExtModel],
    domain: &Domain,
    commitment: &OntologicalCommitment,
    axioms: &[Formula],
    level: AdmissionLevel,
) -> Result<OntonomyJudgment> {
    let mut models_of_axioms: Vec<&ExtModel> = vec![];
    for m in all {
        if m.satisfies_all(domain, axioms)? {
            models_of_axioms.push(m);
        }
    }
    let intended = commitment.intended_models();
    let shared = models_of_axioms
        .iter()
        .filter(|m| intended.iter().any(|i| i == *m))
        .count();
    let admitted = match level {
        AdmissionLevel::Exact => {
            models_of_axioms.len() == intended.len() && shared == intended.len()
        }
        AdmissionLevel::Approximate => shared > 0,
        AdmissionLevel::AbstractedFromLanguage => !models_of_axioms.is_empty(),
    };
    Ok(OntonomyJudgment {
        level,
        admitted,
        n_models: models_of_axioms.len(),
        n_intended: intended.len(),
        n_shared: shared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::TermRef;
    use crate::relation::Relation;

    /// One unary predicate `p` and one constant over a 1-element
    /// domain: 2 models (p empty / p full).
    fn tiny() -> (Language, Domain, OntologicalCommitment) {
        let mut lang = Language::new();
        let p = lang.predicate("p", 1);
        let c = lang.constant("c");
        let mut dom = Domain::new();
        let e = dom.elem("e");
        // Commitment: one world, where p = {e}.
        let mut m = ExtModel::new();
        m.set_const(c, e);
        m.set_pred(p, Relation::from_tuples(1, vec![vec![e]]).unwrap());
        let space = WorldSpace::opaque(1);
        let k = OntologicalCommitment::new(&space, vec![m]).unwrap();
        (lang, dom, k)
    }

    fn p_of_c(lang: &mut Language) -> Formula {
        let p = lang.predicate("p", 1);
        let c = lang.constant("c");
        Formula::Pred(p, vec![TermRef::Const(c)])
    }

    #[test]
    fn exact_admission_requires_precise_axioms() {
        let (mut lang, dom, k) = tiny();
        let ax = vec![p_of_c(&mut lang)];
        let j = judge_ontonomy(&lang, &dom, &k, &ax, AdmissionLevel::Exact, 10_000).unwrap();
        // p(c) pins down the single intended model exactly.
        assert!(j.admitted);
        assert_eq!(j.n_models, 1);
        assert_eq!(j.n_intended, 1);
        // The empty axiom set has 2 models ≠ 1 intended: not exact.
        let j2 = judge_ontonomy(&lang, &dom, &k, &[], AdmissionLevel::Exact, 10_000).unwrap();
        assert!(!j2.admitted);
        assert_eq!(j2.n_models, 2);
    }

    #[test]
    fn approximate_admits_weak_axiom_sets() {
        let (lang, dom, k) = tiny();
        // The empty set shares the intended model: admitted.
        let j = judge_ontonomy(&lang, &dom, &k, &[], AdmissionLevel::Approximate, 10_000).unwrap();
        assert!(j.admitted);
        assert_eq!(j.n_shared, 1);
    }

    #[test]
    fn approximate_rejects_contradicting_axioms() {
        let (mut lang, dom, k) = tiny();
        let not_p = Formula::not(p_of_c(&mut lang));
        let j = judge_ontonomy(
            &lang,
            &dom,
            &k,
            &[not_p],
            AdmissionLevel::Approximate,
            10_000,
        )
        .unwrap();
        // ¬p(c) excludes the only intended model.
        assert!(!j.admitted);
        assert_eq!(j.n_shared, 0);
        assert_eq!(j.n_models, 1);
    }

    #[test]
    fn tautologies_admitted_once_language_is_abstracted() {
        let (lang, dom, k) = tiny();
        let taut = vec![Formula::tautology()];
        // The paper: "any set of tautologies is an ontonomy" under the
        // abstracted reading…
        let j = judge_ontonomy(
            &lang,
            &dom,
            &k,
            &taut,
            AdmissionLevel::AbstractedFromLanguage,
            10_000,
        )
        .unwrap();
        assert!(j.admitted);
        assert_eq!(j.n_models, 2); // all models satisfy a tautology
                                   // …and in fact also under Approximate (it shares all intended
                                   // models), which is precisely the over-breadth critique.
        let j2 =
            judge_ontonomy(&lang, &dom, &k, &taut, AdmissionLevel::Approximate, 10_000).unwrap();
        assert!(j2.admitted);
        // But never under Exact.
        let j3 = judge_ontonomy(&lang, &dom, &k, &taut, AdmissionLevel::Exact, 10_000).unwrap();
        assert!(!j3.admitted);
    }

    #[test]
    fn unsatisfiable_axioms_admitted_nowhere() {
        let (mut lang, dom, k) = tiny();
        let p = p_of_c(&mut lang);
        let contradiction = vec![p.clone(), Formula::not(p)];
        for level in [
            AdmissionLevel::Exact,
            AdmissionLevel::Approximate,
            AdmissionLevel::AbstractedFromLanguage,
        ] {
            let j = judge_ontonomy(&lang, &dom, &k, &contradiction, level, 10_000).unwrap();
            assert!(!j.admitted, "contradictions must fail at {level:?}");
        }
    }

    #[test]
    fn commitment_length_checked() {
        let space = WorldSpace::opaque(2);
        assert!(OntologicalCommitment::new(&space, vec![ExtModel::new()]).is_err());
        let k = OntologicalCommitment::new(&space, vec![ExtModel::new(), ExtModel::new()]).unwrap();
        assert_eq!(k.len(), 2);
        assert_eq!(k.intended_models().len(), 1); // identical models dedupe
    }
}
