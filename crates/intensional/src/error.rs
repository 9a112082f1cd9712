//! Error types for the intensional-model framework.

use std::fmt;

/// Errors raised while building or evaluating intensional structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntensionalError {
    /// A rule-based intensional relation was requested over a world
    /// with no structure to read — the paper's circularity, surfaced
    /// as an error.
    OpaqueWorld { world: usize, relation: String },
    /// A world index outside the world space.
    UnknownWorld(usize),
    /// An element does not belong to the domain.
    UnknownElem(String),
    /// Tuple arity does not match the relation's arity.
    ArityMismatch { expected: usize, got: usize },
    /// A formula used an unbound variable.
    UnboundVariable(String),
    /// A formula used a symbol not in the language's vocabulary.
    UnknownSymbol(String),
    /// Model enumeration would exceed the given budget.
    EnumerationTooLarge { bound: u64, budget: u64 },
}

impl fmt::Display for IntensionalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntensionalError::OpaqueWorld { world, relation } => write!(
                f,
                "cannot evaluate rule-based relation '{relation}' in opaque world {world}: \
                 worlds have structure only via extensional relations (circularity)"
            ),
            IntensionalError::UnknownWorld(w) => write!(f, "unknown world {w}"),
            IntensionalError::UnknownElem(e) => write!(f, "unknown element '{e}'"),
            IntensionalError::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: expected {expected}, got {got}")
            }
            IntensionalError::UnboundVariable(v) => write!(f, "unbound variable '{v}'"),
            IntensionalError::UnknownSymbol(s) => write!(f, "unknown symbol '{s}'"),
            IntensionalError::EnumerationTooLarge { bound, budget } => {
                write!(
                    f,
                    "model enumeration needs {bound} models, budget is {budget}"
                )
            }
        }
    }
}

impl std::error::Error for IntensionalError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, IntensionalError>;
