//! # summa-core — an executable *Summa Contra Ontologiam*
//!
//! The unifying crate of this reproduction of Santini's *Summa Contra
//! Ontologiam* (EDBT 2006 Workshops). The paper is a critical analysis
//! of the concept of "ontology" in computing; this workspace builds
//! the complete formal apparatus the paper reasons about and turns
//! each of its three arguments into an executable analysis:
//!
//! 1. **The syntactic critique (§2)** — four candidate definitions of
//!    an *ontonomy* (the paper's name for the artifact), each
//!    implemented as a machine-checkable [`definitions::Definition`]:
//!    Gruber's functional definition, the AI symbol-inventory
//!    definition, Guarino's intensional definition (at its three
//!    strictness levels), and Bench-Capon & Malcolm's order-sorted
//!    structural definition. Run them over the [`corpus`] (a C
//!    program, a grocery list, a tax form, a tautology set, the
//!    paper's vehicle ontonomy …) with
//!    [`critique::syntactic_critique`] to regenerate the paper's
//!    over-breadth results.
//! 2. **The semantic critique (§3)** — [`critique::semantic_critique`]
//!    runs the CAR = DOG structural collapse (via `summa-structure`),
//!    the lexical-field misalignments (via `summa-lexfield`), and the
//!    differentiation regress.
//! 3. **The pragmatic critique (§3–4)** —
//!    [`critique::pragmatic_critique`] measures meaning variance
//!    across reading contexts and the loss inflicted by freezing one
//!    encoding (via `summa-hermeneutic`).
//!
//! The substrate crates are re-exported under [`substrates`] so a
//! single dependency suffices:
//!
//! ```
//! use summa_core::prelude::*;
//!
//! let matrix = syntactic_critique();
//! // Guarino's definition, with approximation, admits the grocery
//! // list; Bench-Capon & Malcolm's does not.
//! assert!(matrix.admitted("grocery list", "Guarino (approximate)"));
//! assert!(!matrix.admitted("grocery list", "Bench-Capon & Malcolm"));
//! ```

pub mod corpus;
pub mod critique;
pub mod definitions;
pub mod report;

/// The substrate crates, re-exported.
pub mod substrates {
    pub use summa_dl as dl;
    pub use summa_hermeneutic as hermeneutic;
    pub use summa_intensional as intensional;
    pub use summa_lexfield as lexfield;
    pub use summa_ontonomy as ontonomy;
    pub use summa_osa as osa;
    pub use summa_structure as structure;
}

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::corpus::{standard_corpus, Artifact};
    pub use crate::critique::{
        pragmatic_critique, semantic_critique, syntactic_critique, PragmaticReport, SemanticReport,
    };
    pub use crate::definitions::{
        standard_definitions, AiDefinition, BcmDefinition, Definition, GruberDefinition,
        GuarinoDefinition, Judgment, Telos, Verdict,
    };
    pub use crate::report::AdmissionMatrix;
}
