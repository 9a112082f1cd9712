//! The four candidate definitions of "ontology" analyzed in §2, as
//! machine-checkable admission judges.

use crate::corpus::Artifact;
use summa_intensional::commitment::{judge_ontonomy, AdmissionLevel, OntologicalCommitment};
use summa_intensional::model::{enumerate_models, ExtModel};
use summa_intensional::world::WorldSpace;

/// Budget for finite model enumeration in the Guarino judge.
const MODEL_BUDGET: u64 = 200_000;

/// The verdict of one definition on one artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The artifact qualifies as an ontonomy under the definition.
    Admitted,
    /// It does not.
    Rejected,
    /// The definition cannot decide on structural grounds at all —
    /// the paper's charge against functional definitions.
    Undecidable,
    /// The cell could not be *evaluated*: the judge panicked or ran
    /// out of resources. Unlike [`Verdict::Undecidable`] this says
    /// nothing about the definition — the run degraded, the question
    /// stands.
    Unknown,
}

/// A judgment with its reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Judgment {
    /// The verdict.
    pub verdict: Verdict,
    /// Why.
    pub reason: String,
    /// Resources consumed producing this judgment, when the run was
    /// metered (see [`crate::critique::syntactic_critique_governed`]).
    pub spend: Option<summa_guard::Spend>,
}

impl Judgment {
    fn admitted(reason: impl Into<String>) -> Self {
        Judgment {
            verdict: Verdict::Admitted,
            reason: reason.into(),
            spend: None,
        }
    }
    fn rejected(reason: impl Into<String>) -> Self {
        Judgment {
            verdict: Verdict::Rejected,
            reason: reason.into(),
            spend: None,
        }
    }
    fn undecidable(reason: impl Into<String>) -> Self {
        Judgment {
            verdict: Verdict::Undecidable,
            reason: reason.into(),
            spend: None,
        }
    }

    /// A degraded cell: the judge could not run to completion.
    pub fn unknown(reason: impl Into<String>) -> Self {
        Judgment {
            verdict: Verdict::Unknown,
            reason: reason.into(),
            spend: None,
        }
    }

    /// Attach the resources spent producing this judgment.
    pub fn with_spend(mut self, spend: summa_guard::Spend) -> Self {
        self.spend = Some(spend);
        self
    }
}

/// A declared intended use — what a *functional* definition needs
/// before it can judge anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Telos {
    /// "used for knowledge sharing" (Gruber's setting).
    KnowledgeSharing,
    /// Used as a shopping aid, a program, a form…
    SomethingElse,
}

/// A candidate definition of "ontology".
pub trait Definition {
    /// Display name.
    fn name(&self) -> &'static str;
    /// Judge an artifact. `telos` is the declared intended use, which
    /// only functional definitions consult.
    fn admits(&self, artifact: &Artifact, telos: Option<Telos>) -> Judgment;
}

/// D1 — Gruber: "an ontology is a formalization of a
/// conceptualization." Functional: admission depends on what the
/// artifact is *for*, not on what it *is*. Without a declared telos
/// the definition cannot answer — which is the paper's §2 objection:
/// "given an arbitrary string of symbols, a definition should allow
/// one to determine whether the string is a formal grammar or not."
#[derive(Debug, Default, Clone, Copy)]
pub struct GruberDefinition;

impl Definition for GruberDefinition {
    fn name(&self) -> &'static str {
        "Gruber (functional)"
    }

    fn admits(&self, _artifact: &Artifact, telos: Option<Telos>) -> Judgment {
        match telos {
            Some(Telos::KnowledgeSharing) => Judgment::admitted(
                "declared to formalize a conceptualization for sharing; \
                 the definition consults the use, not the structure",
            ),
            Some(Telos::SomethingElse) => Judgment::rejected(
                "declared for another use; the same symbols would be \
                 admitted under a different declaration",
            ),
            None => Judgment::undecidable(
                "functional definition: with no declared intended use \
                 there is no structural criterion to apply",
            ),
        }
    }
}

/// D2 — the AI definition \[10\]: an ontology is "the collection of all
/// symbols used in a logic system, with the indication of which names
/// are functions, which are predicates, and which are constants."
/// Structural and decidable — but it admits every partitioned
/// vocabulary and "doesn't lay any semantic claim".
#[derive(Debug, Default, Clone, Copy)]
pub struct AiDefinition;

impl Definition for AiDefinition {
    fn name(&self) -> &'static str {
        "AI symbol inventory"
    }

    fn admits(&self, artifact: &Artifact, _telos: Option<Telos>) -> Judgment {
        match artifact.as_inventory() {
            Some((c, f, p)) => Judgment::admitted(format!(
                "a partitioned vocabulary: {} constants, {} functions, {} predicates \
                 (no relations between terms, no semantic claim)",
                c.len(),
                f.len(),
                p.len()
            )),
            None => Judgment::rejected(
                "no indication of which names are functions, predicates or constants",
            ),
        }
    }
}

/// D3 — Guarino's intensional definition, parameterized by the
/// strictness level the paper walks through. At
/// [`AdmissionLevel::Exact`] almost nothing qualifies; at
/// [`AdmissionLevel::Approximate`] anything sharing a model with the
/// intended set does; at [`AdmissionLevel::AbstractedFromLanguage`]
/// "any set of statements that admits at least a model is an
/// ontonomy" — including the grocery list.
#[derive(Debug, Clone, Copy)]
pub struct GuarinoDefinition {
    /// The strictness level.
    pub level: AdmissionLevel,
}

impl GuarinoDefinition {
    /// The definition at the paper's "approximates" reading.
    pub fn approximate() -> Self {
        GuarinoDefinition {
            level: AdmissionLevel::Approximate,
        }
    }

    /// The definition with the language abstracted away.
    pub fn abstracted() -> Self {
        GuarinoDefinition {
            level: AdmissionLevel::AbstractedFromLanguage,
        }
    }

    /// The exact-models reading.
    pub fn exact() -> Self {
        GuarinoDefinition {
            level: AdmissionLevel::Exact,
        }
    }
}

impl Definition for GuarinoDefinition {
    fn name(&self) -> &'static str {
        match self.level {
            AdmissionLevel::Exact => "Guarino (exact)",
            AdmissionLevel::Approximate => "Guarino (approximate)",
            AdmissionLevel::AbstractedFromLanguage => "Guarino (abstracted)",
        }
    }

    fn admits(&self, artifact: &Artifact, _telos: Option<Telos>) -> Judgment {
        let Some((lang, domain, axioms)) = artifact.as_axioms() else {
            return Judgment::rejected("no logical reading: the definition needs a set of axioms");
        };
        // The commitment: a single intended world whose model is the
        // first model of the axioms themselves (the designer's intent
        // made concrete); for the abstracted level the commitment is
        // irrelevant by definition.
        let all = match enumerate_models(&lang, &domain, MODEL_BUDGET) {
            Ok(models) => models,
            Err(e) => return Judgment::undecidable(format!("model space too large: {e}")),
        };
        let intended: Vec<ExtModel> = all
            .iter()
            .filter(|m| m.satisfies_all(&domain, &axioms).unwrap_or(false))
            .take(1)
            .cloned()
            .collect();
        let space = WorldSpace::opaque(intended.len().max(1));
        let commitment = match if intended.is_empty() {
            OntologicalCommitment::new(&WorldSpace::opaque(1), vec![ExtModel::new()])
        } else {
            OntologicalCommitment::new(&space, intended)
        } {
            Ok(k) => k,
            Err(e) => return Judgment::undecidable(format!("commitment construction: {e}")),
        };
        match judge_ontonomy(
            &lang,
            &domain,
            &commitment,
            &axioms,
            self.level,
            MODEL_BUDGET,
        ) {
            Ok(j) if j.admitted => Judgment::admitted(format!(
                "{} of {} models intended-compatible ({} models total)",
                j.n_shared, j.n_intended, j.n_models
            )),
            Ok(j) => Judgment::rejected(format!(
                "model set does not qualify at this level \
                 ({} models, {} intended, {} shared)",
                j.n_models, j.n_intended, j.n_shared
            )),
            Err(e) => Judgment::undecidable(format!("{e}")),
        }
    }
}

/// D4 — Bench-Capon & Malcolm: the structural, order-sorted
/// definition. It admits exactly the artifacts that *are* ontology
/// signatures with well-formed attribute families (plus axioms) — and
/// rejects everything that does not come as a class hierarchy over a
/// data domain, which is the paper's "too weak to cover the uses"
/// observation made visible.
#[derive(Debug, Default, Clone, Copy)]
pub struct BcmDefinition;

impl Definition for BcmDefinition {
    fn name(&self) -> &'static str {
        "Bench-Capon & Malcolm"
    }

    fn admits(&self, artifact: &Artifact, _telos: Option<Telos>) -> Judgment {
        match artifact {
            Artifact::Bcm { ontonomy, .. } => match ontonomy.signature.check_inheritance() {
                Ok(()) => Judgment::admitted(
                    "an ontology signature (D, C, A) with a well-formed \
                     attribute family, plus axioms",
                ),
                Err(e) => Judgment::rejected(format!("signature ill-formed: {e}")),
            },
            _ => Judgment::rejected(
                "not presented as (data domain, class hierarchy, attribute family)",
            ),
        }
    }
}

/// All the definitions the paper examines, in presentation order.
pub fn standard_definitions() -> Vec<Box<dyn Definition>> {
    vec![
        Box::new(GruberDefinition),
        Box::new(AiDefinition),
        Box::new(GuarinoDefinition::exact()),
        Box::new(GuarinoDefinition::approximate()),
        Box::new(GuarinoDefinition::abstracted()),
        Box::new(BcmDefinition),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::standard_corpus;

    fn find(name: &str) -> Artifact {
        standard_corpus()
            .into_iter()
            .find(|a| a.name() == name)
            .expect("corpus entry")
    }

    #[test]
    fn gruber_is_undecidable_without_a_telos() {
        let d = GruberDefinition;
        let a = find("vehicles TBox (4)");
        assert_eq!(d.admits(&a, None).verdict, Verdict::Undecidable);
        assert_eq!(
            d.admits(&a, Some(Telos::KnowledgeSharing)).verdict,
            Verdict::Admitted
        );
        // The same grocery list flips verdict with the declaration —
        // nothing structural is being judged.
        let g = find("grocery list");
        assert_eq!(
            d.admits(&g, Some(Telos::KnowledgeSharing)).verdict,
            Verdict::Admitted
        );
        assert_eq!(
            d.admits(&g, Some(Telos::SomethingElse)).verdict,
            Verdict::Rejected
        );
    }

    #[test]
    fn ai_definition_admits_any_partitioned_vocabulary() {
        let d = AiDefinition;
        assert_eq!(
            d.admits(&find("blocks-world inventory"), None).verdict,
            Verdict::Admitted
        );
        assert_eq!(
            d.admits(&find("vehicles TBox (4)"), None).verdict,
            Verdict::Admitted
        );
        // Raw text has no role partition.
        assert_eq!(
            d.admits(&find("C program"), None).verdict,
            Verdict::Rejected
        );
    }

    #[test]
    fn guarino_abstracted_admits_the_grocery_list() {
        let d = GuarinoDefinition::abstracted();
        assert_eq!(
            d.admits(&find("grocery list"), None).verdict,
            Verdict::Admitted
        );
        assert_eq!(
            d.admits(&find("C program"), None).verdict,
            Verdict::Admitted
        );
        assert_eq!(
            d.admits(&find("tautology set"), None).verdict,
            Verdict::Admitted
        );
        // But never a contradiction.
        assert_eq!(
            d.admits(&find("contradiction"), None).verdict,
            Verdict::Rejected
        );
    }

    #[test]
    fn guarino_approximate_still_admits_tautologies() {
        let d = GuarinoDefinition::approximate();
        assert_eq!(
            d.admits(&find("tautology set"), None).verdict,
            Verdict::Admitted
        );
    }

    #[test]
    fn guarino_needs_a_logical_reading() {
        let d = GuarinoDefinition::approximate();
        assert_eq!(
            d.admits(&find("blocks-world inventory"), None).verdict,
            Verdict::Rejected
        );
    }

    #[test]
    fn bcm_admits_only_real_signatures() {
        let d = BcmDefinition;
        assert_eq!(
            d.admits(&find("vehicles BCM ontonomy"), None).verdict,
            Verdict::Admitted
        );
        for other in [
            "grocery list",
            "C program",
            "tautology set",
            "vehicles TBox (4)",
            "blocks-world inventory",
        ] {
            assert_eq!(
                d.admits(&find(other), None).verdict,
                Verdict::Rejected,
                "{other} must be rejected by the structural definition"
            );
        }
    }

    #[test]
    fn standard_definitions_cover_the_paper() {
        let defs = standard_definitions();
        assert_eq!(defs.len(), 6);
        let names: Vec<&str> = defs.iter().map(|d| d.name()).collect();
        assert!(names.contains(&"Gruber (functional)"));
        assert!(names.contains(&"Bench-Capon & Malcolm"));
    }
}
