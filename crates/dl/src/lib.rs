//! # summa-dl — description-logic substrate
//!
//! The concept language in which *Summa Contra Ontologiam* writes its
//! §3 example ontonomies:
//!
//! ```text
//! car           ⊑ motorvehicle ⊓ roadvehicle ⊓ ∃size.small
//! pickup        ⊑ motorvehicle ⊓ roadvehicle ⊓ ∃size.big
//! motorvehicle  ⊑ ∃uses.gasoline
//! roadvehicle   ⊑ ∃₄has.wheels            (structure (4))
//! ```
//!
//! and the isomorphic animal structure (8), together with the repair
//! axioms (9)–(11). This crate provides:
//!
//! * [`concept`] — the ALCQ concept language (⊓, ⊔, ¬, ∃r.C, ∀r.C,
//!   ≥n r.C, ≤n r.C) with interned concept/role names and NNF;
//! * [`tbox`] / [`abox`] — terminological and assertional boxes;
//! * [`tableau`] — a tableau-based satisfiability and subsumption
//!   reasoner with pairwise (double) blocking, handling general TBoxes;
//! * [`el`] — a polynomial completion-rule classifier for the EL
//!   fragment (the baseline reasoner);
//! * [`classify`] — full classification (the induced subsumption
//!   hierarchy over named concepts): one [`Classify`](classify::Classify)
//!   request per run, or the EL saturation classifier;
//! * [`realize`] — ABox realization, one
//!   [`Realize`](realize::Realize) request per run;
//! * [`corpus`] — the paper's structures (4), (8) and (9)–(11) as
//!   ready-made TBoxes;
//! * [`generate`] — synthetic TBox families (chains, diamonds, random
//!   EL TBoxes, hard ALC instances) for benchmarks and property tests;
//! * [`parser`] — a small concrete syntax for concepts and axioms used
//!   by the examples.
//!
//! ## Quick example
//!
//! ```
//! use summa_dl::prelude::*;
//! use summa_guard::{Budget, Governed};
//!
//! let mut voc = Vocabulary::new();
//! let car = Concept::atom(voc.concept("car"));
//! let vehicle = Concept::atom(voc.concept("vehicle"));
//! let mut tbox = TBox::new();
//! tbox.subsume(car.clone(), vehicle.clone());
//!
//! // Every check runs under a budget; a node cap is a memory wall.
//! let budget = Budget::new().with_memory(20_000);
//! let mut reasoner = Tableau::new(&tbox, &voc);
//! assert_eq!(reasoner.subsumes_governed(&vehicle, &car, &budget), Governed::Completed(true));
//! assert_eq!(reasoner.subsumes_governed(&car, &vehicle, &budget), Governed::Completed(false));
//! ```

pub mod abox;
pub mod cache;
pub mod checkpoint;
pub mod classify;
pub mod concept;
pub mod corpus;
pub mod el;
pub mod error;
pub mod fxhash;
pub mod generate;
pub mod index;
mod kernel;
pub mod parser;
pub mod realize;
pub mod tableau;
pub mod tbox;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::abox::{ABox, Individual};
    pub use crate::cache::{tbox_fingerprint, CacheStats, SatCache};
    pub use crate::checkpoint::{
        abox_fingerprint, kb_fingerprint, Checkpoint, CheckpointError, CheckpointState,
        ResumeOutcome,
    };
    pub use crate::classify::{ClassHierarchy, Classifier, Classify, ClassifyRun, ClassifyStats};
    pub use crate::concept::{CNode, Concept, ConceptId, ConceptRef, Interner, RoleId, Vocabulary};
    pub use crate::corpus::{animals_tbox, animals_tbox_repaired, vehicles_tbox, PaperVocab};
    pub use crate::el::ElClassifier;
    pub use crate::error::DlError;
    pub use crate::index::HierarchyIndex;
    pub use crate::parser::{parse_axiom, parse_concept};
    pub use crate::realize::{Realization, Realize, RealizeRun};
    pub use crate::tableau::Tableau;
    pub use crate::tbox::{Axiom, TBox};
}
