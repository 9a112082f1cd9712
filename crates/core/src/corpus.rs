//! The artifact corpus of §2: "many things, from a C program to a
//! very well structured grocery list, to a tax return form would
//! qualify."

use summa_dl::prelude::{vehicles_tbox, PaperVocab, TBox, Vocabulary};
use summa_intensional::formula::{Formula, Language, TermRef};
use summa_intensional::prelude::Domain;
use summa_ontonomy::corpus::vehicles_signature;
use summa_ontonomy::signature::Ontonomy;

/// A partitioned vocabulary: (constants, functions, predicates), the
/// latter two with arities.
pub type Inventory = (Vec<String>, Vec<(String, usize)>, Vec<(String, usize)>);

/// An arbitrary symbolic artifact that a candidate definition of
/// "ontology" may or may not admit.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // corpus entries are few and cold
pub enum Artifact {
    /// A vocabulary partitioned into constants / functions /
    /// predicates (what the AI definition calls an ontology).
    SymbolInventory {
        /// Display name.
        name: String,
        /// Constant symbols.
        constants: Vec<String>,
        /// Function symbols with arity.
        functions: Vec<(String, usize)>,
        /// Predicate symbols with arity.
        predicates: Vec<(String, usize)>,
    },
    /// A finite first-order axiom set over a finite domain.
    AxiomSet {
        /// Display name.
        name: String,
        /// The language.
        lang: Language,
        /// The finite domain.
        domain: Domain,
        /// The axioms.
        axioms: Vec<Formula>,
    },
    /// A description-logic TBox.
    DlTBox {
        /// Display name.
        name: String,
        /// The TBox.
        tbox: TBox,
        /// Its vocabulary.
        voc: Vocabulary,
    },
    /// A Bench-Capon & Malcolm ontonomy.
    Bcm {
        /// Display name.
        name: String,
        /// The ontonomy `(Σ, A)`.
        ontonomy: Ontonomy,
    },
    /// Unstructured symbolic text (lines of it): the grocery list,
    /// the C program, the tax form.
    FreeText {
        /// Display name.
        name: String,
        /// The lines.
        lines: Vec<String>,
    },
}

impl Artifact {
    /// The display name.
    pub fn name(&self) -> &str {
        match self {
            Artifact::SymbolInventory { name, .. }
            | Artifact::AxiomSet { name, .. }
            | Artifact::DlTBox { name, .. }
            | Artifact::Bcm { name, .. }
            | Artifact::FreeText { name, .. } => name,
        }
    }

    /// A logical reading of the artifact, when one exists: a language,
    /// domain and axiom set. Free text is read "as well-structured as
    /// possible": each line becomes an atomic fact `listed(item)` over
    /// a domain with one element per line — exactly the charitable
    /// reading under which the paper notes the grocery list qualifies.
    pub fn as_axioms(&self) -> Option<(Language, Domain, Vec<Formula>)> {
        match self {
            Artifact::AxiomSet {
                lang,
                domain,
                axioms,
                ..
            } => Some((lang.clone(), domain.clone(), axioms.clone())),
            Artifact::FreeText { lines, .. } => {
                let mut lang = Language::new();
                let mut domain = Domain::new();
                let listed = lang.predicate("listed", 1);
                let mut axioms = vec![];
                for line in lines {
                    let c = lang.constant(line);
                    domain.elem(line);
                    axioms.push(Formula::Pred(listed, vec![TermRef::Const(c)]));
                }
                Some((lang, domain, axioms))
            }
            _ => None,
        }
    }

    /// A symbol-inventory reading, when one exists.
    pub fn as_inventory(&self) -> Option<Inventory> {
        match self {
            Artifact::SymbolInventory {
                constants,
                functions,
                predicates,
                ..
            } => Some((constants.clone(), functions.clone(), predicates.clone())),
            Artifact::AxiomSet { lang, .. } => Some((
                lang.constants()
                    .map(|c| lang.constant_name(c).to_string())
                    .collect(),
                vec![],
                lang.predicates()
                    .map(|p| (lang.predicate_name(p).to_string(), lang.arity(p)))
                    .collect(),
            )),
            Artifact::DlTBox { tbox, voc, .. } => Some((
                vec![],
                vec![],
                tbox.atoms()
                    .iter()
                    .map(|&a| (voc.concept_name(a).to_string(), 1))
                    .chain(
                        tbox.roles()
                            .iter()
                            .map(|&r| (voc.role_name(r).to_string(), 2)),
                    )
                    .collect(),
            )),
            _ => None,
        }
    }
}

/// Provenance notes shown alongside corpus entries in reports.
#[derive(Debug, Clone)]
pub struct CorpusNote {
    /// Artifact name.
    pub name: String,
    /// Where in the paper it comes from.
    pub source: String,
}

/// The paper's §2 examples plus the §3 structures, ready to judge.
pub fn standard_corpus() -> Vec<Artifact> {
    let mut out = vec![];

    // "a very well structured grocery list"
    out.push(Artifact::FreeText {
        name: "grocery list".into(),
        lines: vec![
            "olive_oil".into(),
            "wine".into(),
            "bread".into(),
            "parmigiano".into(),
        ],
    });

    // "a C program"
    out.push(Artifact::FreeText {
        name: "C program".into(),
        lines: vec![
            "int main(void) {".into(),
            "  printf(\"hello\\n\");".into(),
            "  return 0;".into(),
            "}".into(),
        ],
    });

    // "a tax return form"
    out.push(Artifact::FreeText {
        name: "tax return form".into(),
        lines: vec![
            "line_1_wages".into(),
            "line_2_interest".into(),
            "line_3_total".into(),
        ],
    });

    // "any set of tautologies" — over a non-trivial language, so the
    // tautology constrains nothing while the model space stays > 1.
    {
        let mut lang = Language::new();
        lang.predicate("p", 1);
        let mut domain = Domain::new();
        domain.elem("something");
        out.push(Artifact::AxiomSet {
            name: "tautology set".into(),
            lang,
            domain,
            axioms: vec![Formula::tautology()],
        });
    }

    // A genuinely contradictory axiom set (admitted nowhere).
    {
        let mut lang = Language::new();
        let p = lang.predicate("p", 1);
        let c = lang.constant("c");
        let mut domain = Domain::new();
        domain.elem("c");
        let pc = Formula::Pred(p, vec![TermRef::Const(c)]);
        out.push(Artifact::AxiomSet {
            name: "contradiction".into(),
            lang,
            domain,
            axioms: vec![pc.clone(), Formula::not(pc)],
        });
    }

    // The AI-style symbol inventory [10].
    out.push(Artifact::SymbolInventory {
        name: "blocks-world inventory".into(),
        constants: vec!["a".into(), "b".into(), "c".into(), "d".into()],
        functions: vec![("top_of".into(), 1)],
        predicates: vec![("above".into(), 2), ("on_table".into(), 1)],
    });

    // The paper's structure (4) as a DL TBox.
    {
        let p = PaperVocab::new();
        out.push(Artifact::DlTBox {
            name: "vehicles TBox (4)".into(),
            tbox: vehicles_tbox(&p),
            voc: p.voc,
        });
    }

    // The same, as a Bench-Capon & Malcolm ontonomy.
    out.push(Artifact::Bcm {
        name: "vehicles BCM ontonomy".into(),
        ontonomy: vehicles_signature()
            .expect("the vehicles signature is well-formed")
            .ontonomy,
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_the_papers_examples() {
        let c = standard_corpus();
        let names: Vec<&str> = c.iter().map(Artifact::name).collect();
        for expected in [
            "grocery list",
            "C program",
            "tax return form",
            "tautology set",
            "vehicles TBox (4)",
            "vehicles BCM ontonomy",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert!(c.len() >= 8);
    }

    #[test]
    fn free_text_reads_as_satisfiable_axioms() {
        let c = standard_corpus();
        let grocery = c.iter().find(|a| a.name() == "grocery list").unwrap();
        let (lang, domain, axioms) = grocery.as_axioms().unwrap();
        assert_eq!(axioms.len(), 4);
        assert_eq!(domain.len(), 4);
        assert_eq!(lang.n_predicates(), 1);
    }

    #[test]
    fn inventory_reading_of_axiom_sets() {
        let c = standard_corpus();
        let taut = c.iter().find(|a| a.name() == "tautology set").unwrap();
        let (consts, funcs, preds) = taut.as_inventory().unwrap();
        assert!(consts.is_empty() && funcs.is_empty());
        assert_eq!(preds, vec![("p".to_string(), 1)]);
        let blocks = c
            .iter()
            .find(|a| a.name() == "blocks-world inventory")
            .unwrap();
        let (consts, funcs, preds) = blocks.as_inventory().unwrap();
        assert_eq!(consts.len(), 4);
        assert_eq!(funcs.len(), 1);
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn dl_tbox_yields_inventory_not_axioms() {
        let c = standard_corpus();
        let tb = c.iter().find(|a| a.name() == "vehicles TBox (4)").unwrap();
        assert!(tb.as_inventory().is_some());
        assert!(tb.as_axioms().is_none());
    }
}
