//! Integration: the §2 syntactic critique across crates — the four
//! candidate definitions, the corpus, and the admission matrix.

use summa_core::prelude::*;
use summa_intensional::commitment::AdmissionLevel;

#[test]
fn the_full_admission_matrix_has_the_papers_shape() {
    let m = syntactic_critique();

    // Every artifact × definition cell is populated.
    assert_eq!(m.cells.len(), m.artifacts.len());
    for row in &m.cells {
        assert_eq!(row.len(), m.definitions.len());
    }

    // The paper's headline: under Guarino-with-approximation (and a
    // fortiori abstracted), the grocery list, the C program and the
    // tax return form all qualify.
    for artifact in ["grocery list", "C program", "tax return form"] {
        assert!(
            m.admitted(artifact, "Guarino (abstracted)"),
            "{artifact} must be admitted under the abstracted reading"
        );
    }

    // Tautologies qualify at both approximate and abstracted levels.
    assert!(m.admitted("tautology set", "Guarino (approximate)"));
    assert!(m.admitted("tautology set", "Guarino (abstracted)"));
    assert!(!m.admitted("tautology set", "Guarino (exact)"));

    // Contradictions qualify nowhere.
    for d in &m.definitions {
        if d.starts_with("Guarino") {
            assert!(!m.admitted("contradiction", d), "contradiction under {d}");
        }
    }

    // The structural definition is the narrowest: exactly one
    // admission (the real BCM signature).
    assert_eq!(m.admission_count("Bench-Capon & Malcolm"), 1);
    assert!(m.admitted("vehicles BCM ontonomy", "Bench-Capon & Malcolm"));
}

#[test]
fn gruber_verdicts_track_the_telos_not_the_artifact() {
    let gruber = GruberDefinition;
    for artifact in standard_corpus() {
        let undeclared = gruber.admits(&artifact, None);
        assert_eq!(undeclared.verdict, Verdict::Undecidable);
        let shared = gruber.admits(&artifact, Some(Telos::KnowledgeSharing));
        assert_eq!(shared.verdict, Verdict::Admitted);
        let other = gruber.admits(&artifact, Some(Telos::SomethingElse));
        assert_eq!(other.verdict, Verdict::Rejected);
    }
}

#[test]
fn guarino_strictness_levels_are_nested_on_the_corpus() {
    let exact = GuarinoDefinition::exact();
    let approx = GuarinoDefinition::approximate();
    let abst = GuarinoDefinition::abstracted();
    for artifact in standard_corpus() {
        let e = exact.admits(&artifact, None).verdict == Verdict::Admitted;
        let ap = approx.admits(&artifact, None).verdict == Verdict::Admitted;
        let ab = abst.admits(&artifact, None).verdict == Verdict::Admitted;
        assert!(!e || ap, "{}: exact ⊆ approximate", artifact.name());
        assert!(!ap || ab, "{}: approximate ⊆ abstracted", artifact.name());
    }
}

#[test]
fn admission_levels_are_exposed_consistently() {
    assert_eq!(GuarinoDefinition::exact().level, AdmissionLevel::Exact);
    assert_eq!(
        GuarinoDefinition::approximate().level,
        AdmissionLevel::Approximate
    );
    assert_eq!(
        GuarinoDefinition::abstracted().level,
        AdmissionLevel::AbstractedFromLanguage
    );
}

#[test]
fn matrix_renders_all_rows_and_columns() {
    let m = syntactic_critique();
    let s = m.render();
    for a in &m.artifacts {
        assert!(s.contains(a.as_str()), "row {a} missing from render");
    }
    for d in &m.definitions {
        assert!(s.contains(d.as_str()), "column {d} missing from render");
    }
}
