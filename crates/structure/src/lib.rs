//! # summa-structure — structural meaning and its collapse
//!
//! The executable form of §3's central argument. If the meaning of a
//! term is constituted by its structural relations to other terms —
//! diagram (6) of the paper — then the meaning of "car" *is* the shape
//! of its definitional neighborhood, diagram (7):
//!
//! ```text
//!         ·            ·
//!        ρ1          ρ2(4)
//!         B     C      H
//!          ╲   ╱
//!    F  ←ρ3  D   E  →ρ3  G
//! ```
//!
//! But structure (8) (dog/horse/animal/quadruped) is *isomorphic* to
//! structure (4) (car/pickup/motorvehicle/roadvehicle) — so CAR = DOG
//! under the structural theory of meaning, which is absurd. The paper
//! then "repairs" the animal side with axioms (9)–(11)
//! (`quadruped ⊑ animal`), breaking the isomorphism, and asks: *when
//! can we stop adding structure?* — and answers: never.
//!
//! This crate provides:
//!
//! * [`graph::DefGraph`] — concept-definition graphs extracted from DL
//!   TBoxes, with full or anonymized labels;
//! * [`isomorphism`] — VF2-style graph isomorphism over labeled
//!   directed graphs, plus neighborhood extraction;
//! * [`collapse`] — the CAR=DOG detector: find concept pairs across
//!   (or within) ontonomies whose definitional structures are
//!   indistinguishable;
//! * [`differentiation`] — the regress experiment: how much structure
//!   must be added to separate all indistinguishable pairs, as the
//!   vocabulary grows.
//!
//! ## Quick example — the paper's collapse and repair
//!
//! ```
//! use summa_dl::prelude::*;
//! use summa_structure::prelude::*;
//!
//! let p = PaperVocab::new();
//! let vehicles = vehicles_tbox(&p);
//! let animals = animals_tbox(&p);
//!
//! // CAR and DOG have isomorphic definitional structure …
//! let collapse = structurally_indistinguishable(
//!     &vehicles, p.car, &animals, p.dog, &p.voc,
//! );
//! assert!(collapse.is_some());
//!
//! // … until the paper's repair (9)–(11) breaks the isomorphism.
//! let repaired = animals_tbox_repaired(&p);
//! let after = structurally_indistinguishable(
//!     &vehicles, p.car, &repaired, p.dog, &p.voc,
//! );
//! assert!(after.is_none());
//! ```

pub mod collapse;
pub mod differentiation;
pub mod graph;
pub mod isomorphism;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::collapse::{
        find_isomorphic_pairs, find_isomorphic_pairs_governed, find_isomorphic_pairs_metered,
        structurally_indistinguishable, structurally_indistinguishable_governed,
        structurally_indistinguishable_metered, CollapseReport,
    };
    pub use crate::differentiation::{
        differentiate_greedily, differentiation_radius, DifferentiationOutcome,
    };
    pub use crate::graph::{DefGraph, EdgeKind, LabelMode};
    pub use crate::isomorphism::{
        find_isomorphism, find_isomorphism_governed, find_isomorphism_metered, Mapping,
    };
}
