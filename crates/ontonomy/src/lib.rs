//! # summa-ontonomy — the Bench-Capon & Malcolm structural definition
//!
//! *Summa Contra Ontologiam* §2 singles out exactly one "formally
//! correct, structural definition of ontonomy" in the literature — the
//! order-sorted-algebra definition of Bench-Capon & Malcolm (DEXA
//! 1999), built on Goguen & Meseguer's order-sorted algebras:
//!
//! > **Definition 1.** An ontology signature is a triple `(D, C, A)`,
//! > where `D = (T, D)` is a data domain, `C = (C, ≤)` is a partial
//! > order, called a class hierarchy, and `A` is a family of sets
//! > `A_{c,e}` of attribute symbols for `c ∈ C` and `e ∈ C + S`, where
//! > `S` is the set of sorts in `T`. The family is such that
//! > `A_{c′,e} ⊆ A_{c,e′}` whenever `c ≤ c′` and `e ≤ e′`.
//! >
//! > An ontonomy is then simply a pair `(Σ, A)`, where `Σ` is an
//! > ontology signature and `A` a set of axioms. A model of such an
//! > ontonomy is a model of `Σ` that satisfies the axioms of `A`.
//!
//! This crate implements the definition *exactly*: the data domain
//! comes from [`summa_osa`] (an order-sorted equational theory with a
//! verified model), the class hierarchy is a partial order, attribute
//! families are checked against the inheritance condition of
//! Definition 1, and instance models with attribute valuations can be
//! checked against a small axiom language.
//!
//! The paper's verdict — that the definition is *structural but too
//! weak* ("strongly oriented towards monocriterial taxonomies … all
//! other relations have to be introduced as attributes") — becomes
//! visible in code: every non-subsumption relation in the vehicles
//! example has to be encoded as an attribute (see [`corpus`]).

pub mod axiom;
pub mod corpus;
pub mod error;
pub mod instance;
pub mod isomorphism;
pub mod signature;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::axiom::OntAxiom;
    pub use crate::corpus::vehicles_signature;
    pub use crate::error::OntonomyError;
    pub use crate::instance::{InstanceModel, InstanceModelBuilder, Object};
    pub use crate::isomorphism::{
        signatures_isomorphic, signatures_isomorphic_governed, SignatureMapping,
    };
    pub use crate::signature::{
        AttrTarget, ClassHierarchyBuilder, ClassId, OntologySignature, Ontonomy, SignatureBuilder,
    };
}
