//! The paper's three critiques as runnable analyses.

use crate::corpus::{standard_corpus, Artifact};
use crate::definitions::{standard_definitions, Definition, Judgment};
use crate::report::AdmissionMatrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use summa_dl::corpus::{animals_tbox, animals_tbox_repaired, vehicles_tbox, PaperVocab};
use summa_guard::{Budget, Governed, Interrupt, Meter, Spend};
use summa_hermeneutic::prelude::{
    all_contexts, encoding_loss, interpret, trespassers_sign, MeaningVariance,
};
use summa_lexfield::prelude::{age_adjectives_dataset, doorknob_dataset, Alignment};
use summa_structure::prelude::{
    find_isomorphic_pairs_metered, structurally_indistinguishable_metered,
};

/// Neighborhood depth for the semantic critique's structural sweeps.
const COLLAPSE_DEPTH: usize = 8;

/// §2 — run every candidate definition over the whole corpus (no
/// telos declared, which is the honest structural setting).
pub fn syntactic_critique() -> AdmissionMatrix {
    syntactic_critique_governed(&Budget::unlimited())
        .expect_completed("unlimited budget always completes")
}

/// §2 under a resource envelope. Every artifact × definition cell is
/// judged in isolation: a cell whose judge panics degrades to
/// [`crate::definitions::Verdict::Unknown`] with the panic message as
/// its reason — the matrix survives a poisoned cell. Each judged cell
/// records its resource [`Spend`]. On exhaustion or cancellation the
/// partial matrix holds the fully judged artifact rows.
pub fn syntactic_critique_governed(budget: &Budget) -> Governed<AdmissionMatrix> {
    let corpus = standard_corpus();
    let defs = standard_definitions();
    let definitions: Vec<String> = defs.iter().map(|d| d.name().to_string()).collect();
    let mut meter = budget.meter();
    let _span = meter
        .span("core.syntactic")
        .with("artifacts", corpus.len())
        .with("definitions", defs.len());
    let mut artifacts: Vec<String> = vec![];
    let mut cells: Vec<Vec<Judgment>> = vec![];
    for a in &corpus {
        let mut row = vec![];
        for d in &defs {
            match judge_cell(d.as_ref(), a, &mut meter) {
                Ok(j) => row.push(j),
                // Drop the half-judged row: partial matrices only ever
                // contain complete rows.
                Err(i) => {
                    return Governed::from_interrupt(
                        i,
                        Some(AdmissionMatrix {
                            artifacts,
                            definitions,
                            cells,
                        }),
                    )
                }
            }
        }
        artifacts.push(a.name().to_string());
        cells.push(row);
    }
    Governed::Completed(AdmissionMatrix {
        artifacts,
        definitions,
        cells,
    })
}

/// Judge one cell under the shared meter, isolating panics. The
/// deadline/cancellation checkpoint runs *before* the judge so an
/// expired envelope stops the matrix between cells rather than
/// mid-judge.
fn judge_cell(d: &dyn Definition, a: &Artifact, meter: &mut Meter) -> Result<Judgment, Interrupt> {
    meter.charge(1)?;
    meter.checkpoint()?;
    let _span = meter
        .span("core.judge")
        .with("artifact", a.name())
        .with("definition", d.name());
    let started = Instant::now();
    let judged = catch_unwind(AssertUnwindSafe(|| d.admits(a, None)));
    let spend = Spend {
        steps: 1,
        elapsed: started.elapsed(),
        ..Spend::default()
    };
    Ok(match judged {
        Ok(j) => j.with_spend(spend),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Judgment::unknown(format!("judge panicked: {msg}")).with_spend(spend)
        }
    })
}

/// The findings of the §3 semantic critique.
#[derive(Debug, Clone)]
pub struct SemanticReport {
    /// CAR = DOG holds before the repair.
    pub car_equals_dog: bool,
    /// …and fails after axioms (9)–(11).
    pub repair_breaks_collapse: bool,
    /// Number of cross-ontonomy concept pairs that collapse between
    /// structures (4) and (8).
    pub collapsed_pairs: usize,
    /// The doorknob alignment is not a bijection.
    pub doorknob_not_bijective: bool,
    /// Total translation ambiguity across the three age-adjective
    /// pairings (it→es, it→fr, es→fr).
    pub age_total_ambiguity: usize,
    /// No pair of age fields divides the space identically.
    pub age_divisions_all_differ: bool,
}

/// §3 — run the structural collapse and the lexical-field analyses.
pub fn semantic_critique() -> SemanticReport {
    semantic_critique_governed(&Budget::unlimited())
        .expect_completed("unlimited budget always completes")
}

/// §3 under a resource envelope: every isomorphism search in the
/// collapse analysis charges one shared meter, and the lexical-field
/// phases hit a deadline/cancellation checkpoint between analyses. An
/// interrupted run carries no partial report — the individual findings
/// are interdependent claims about one experiment, not separable rows.
pub fn semantic_critique_governed(budget: &Budget) -> Governed<SemanticReport> {
    let mut meter = budget.meter();
    let _span = meter.span("core.semantic");
    match semantic_critique_metered(&mut meter) {
        Ok(r) => Governed::Completed(r),
        Err(i) => Governed::from_interrupt(i, None),
    }
}

fn semantic_critique_metered(meter: &mut Meter) -> Result<SemanticReport, Interrupt> {
    let p = PaperVocab::new();
    let vehicles = vehicles_tbox(&p);
    let animals = animals_tbox(&p);
    let repaired = animals_tbox_repaired(&p);

    let car_equals_dog = structurally_indistinguishable_metered(
        &vehicles,
        p.car,
        &animals,
        p.dog,
        &p.voc,
        COLLAPSE_DEPTH,
        meter,
    )?
    .is_some();
    let repair_breaks_collapse = structurally_indistinguishable_metered(
        &vehicles,
        p.car,
        &repaired,
        p.dog,
        &p.voc,
        COLLAPSE_DEPTH,
        meter,
    )?
    .is_none();
    let mut pairs = vec![];
    find_isomorphic_pairs_metered(
        &vehicles,
        &animals,
        &p.voc,
        COLLAPSE_DEPTH,
        meter,
        &mut pairs,
    )?;
    let collapsed_pairs = pairs.len();

    meter.charge(1)?;
    meter.checkpoint()?;
    let (space, en, it) = doorknob_dataset();
    let doorknob_not_bijective = !Alignment::between(&space, &en, &it).is_bijective();

    meter.charge(1)?;
    meter.checkpoint()?;
    let age = age_adjectives_dataset();
    let pairings = [
        (&age.italian, &age.spanish),
        (&age.italian, &age.french),
        (&age.spanish, &age.french),
    ];
    let age_total_ambiguity = pairings
        .iter()
        .map(|(a, b)| Alignment::between(&age.space, a, b).total_ambiguity())
        .sum();
    let age_divisions_all_differ = pairings
        .iter()
        .all(|(a, b)| !summa_lexfield::field::same_division(&age.space, a, b));

    Ok(SemanticReport {
        car_equals_dog,
        repair_breaks_collapse,
        collapsed_pairs,
        doorknob_not_bijective,
        age_total_ambiguity,
        age_divisions_all_differ,
    })
}

/// The findings of the §3–4 pragmatic critique.
#[derive(Debug, Clone)]
pub struct PragmaticReport {
    /// Number of contexts examined.
    pub n_contexts: usize,
    /// Distinct interpretations of the one text.
    pub n_distinct_meanings: usize,
    /// Mean pairwise Jaccard distance between interpretations.
    pub mean_meaning_distance: f64,
    /// Mean loss when the author's (door) reading is frozen as *the*
    /// encoding — the death of the reader, quantified.
    pub encoding_loss: f64,
}

/// §3–4 — run the situated-interpretation analysis on the paper's
/// "trespassers will be prosecuted" example.
pub fn pragmatic_critique() -> PragmaticReport {
    pragmatic_critique_governed(&Budget::unlimited())
        .expect_completed("unlimited budget always completes")
}

/// §3–4 under a resource envelope, checkpointing between the variance
/// and encoding-loss phases. No partial report on interrupt — the two
/// numbers describe the same experiment.
pub fn pragmatic_critique_governed(budget: &Budget) -> Governed<PragmaticReport> {
    let mut meter = budget.meter();
    let _span = meter.span("core.pragmatic");
    match pragmatic_critique_metered(&mut meter) {
        Ok(r) => Governed::Completed(r),
        Err(i) => Governed::from_interrupt(i, None),
    }
}

fn pragmatic_critique_metered(meter: &mut Meter) -> Result<PragmaticReport, Interrupt> {
    meter.charge(1)?;
    meter.checkpoint()?;
    let text = trespassers_sign();
    let contexts = all_contexts();
    let refs: Vec<&summa_hermeneutic::context::Context> = contexts.iter().collect();
    let variance = MeaningVariance::across(&text, &refs);
    meter.charge(1)?;
    meter.checkpoint()?;
    let frozen = interpret(&text, &contexts[0]); // the door reading
    let loss = encoding_loss(&text, &frozen, &refs);
    Ok(PragmaticReport {
        n_contexts: contexts.len(),
        n_distinct_meanings: variance.n_distinct,
        mean_meaning_distance: variance.mean_jaccard_distance,
        encoding_loss: loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::definitions::Verdict;

    #[test]
    fn syntactic_matrix_reproduces_the_overbreadth_claims() {
        let m = syntactic_critique();
        // The paper: "many things, from a C program to a very well
        // structured grocery list, to a tax return form would qualify."
        for artifact in [
            "grocery list",
            "C program",
            "tax return form",
            "tautology set",
        ] {
            assert!(
                m.admitted(artifact, "Guarino (abstracted)"),
                "{artifact} must qualify once the language is abstracted"
            );
        }
        // The structural definition admits only the real signature.
        assert_eq!(m.admission_count("Bench-Capon & Malcolm"), 1);
        // The functional definition decides nothing without a telos.
        for a in &m.artifacts {
            assert_eq!(
                m.judgment(a, "Gruber (functional)").unwrap().verdict,
                Verdict::Undecidable
            );
        }
        // Strictness is monotone: exact ⊆ approximate ⊆ abstracted.
        let exact = m.admission_count("Guarino (exact)");
        let approx = m.admission_count("Guarino (approximate)");
        let abstracted = m.admission_count("Guarino (abstracted)");
        assert!(exact <= approx && approx <= abstracted);
    }

    #[test]
    fn semantic_report_matches_the_paper() {
        let r = semantic_critique();
        assert!(r.car_equals_dog);
        assert!(r.repair_breaks_collapse);
        assert!(r.collapsed_pairs > 0);
        assert!(r.doorknob_not_bijective);
        assert!(r.age_total_ambiguity > 0);
        assert!(r.age_divisions_all_differ);
    }

    #[test]
    fn pragmatic_report_shows_reader_dependence() {
        let r = pragmatic_critique();
        assert_eq!(r.n_contexts, 4);
        assert_eq!(r.n_distinct_meanings, 4);
        assert!(r.mean_meaning_distance > 0.5);
        assert!(r.encoding_loss > 0.0);
    }

    #[test]
    fn governed_matrix_records_spend_per_cell() {
        let m = syntactic_critique_governed(&Budget::unlimited()).expect_completed("unlimited");
        assert_eq!(m.unknown_count(), 0);
        for row in &m.cells {
            for j in row {
                assert!(j.spend.is_some(), "every metered cell records spend");
            }
        }
        assert!(m.total_spend().steps >= (m.artifacts.len() * m.definitions.len()) as u64);
        assert!(!m.render_spend().is_empty());
    }

    #[test]
    fn governed_matrix_degrades_to_complete_rows() {
        // Six definitions per artifact: a 7-step budget judges at most
        // one full row before tripping.
        let g = syntactic_critique_governed(&Budget::new().with_steps(7));
        match g {
            Governed::Exhausted { partial, .. } => {
                let m = partial.expect("partial matrix available");
                assert!(m.artifacts.len() <= 1);
                assert_eq!(m.definitions.len(), 6);
                for row in &m.cells {
                    assert_eq!(row.len(), m.definitions.len());
                }
            }
            other => panic!("expected exhaustion, got {}", other.status()),
        }
    }

    #[test]
    fn poisoned_cell_degrades_to_unknown() {
        struct PanickingDefinition;
        impl crate::definitions::Definition for PanickingDefinition {
            fn name(&self) -> &'static str {
                "panicking judge"
            }
            fn admits(
                &self,
                _artifact: &crate::corpus::Artifact,
                _telos: Option<crate::definitions::Telos>,
            ) -> crate::definitions::Judgment {
                panic!("deliberately poisoned");
            }
        }
        let corpus = crate::corpus::standard_corpus();
        let mut meter = Budget::unlimited().meter();
        let j = super::judge_cell(&PanickingDefinition, &corpus[0], &mut meter)
            .expect("panic is absorbed, not an interrupt");
        assert_eq!(j.verdict, crate::definitions::Verdict::Unknown);
        assert!(j.reason.contains("deliberately poisoned"));
        assert!(j.spend.is_some());
    }

    #[test]
    fn governed_semantic_and_pragmatic_critiques_degrade() {
        assert!(semantic_critique_governed(&Budget::unlimited()).is_completed());
        assert!(pragmatic_critique_governed(&Budget::unlimited()).is_completed());
        let starved = semantic_critique_governed(&Budget::new().with_steps(3));
        assert!(matches!(starved, Governed::Exhausted { partial: None, .. }));
    }
}
