//! Error types for the description-logic substrate.

use std::fmt;

/// Errors raised while building or reasoning over DL knowledge bases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DlError {
    /// A concept or role name was used without being interned.
    UnknownName(String),
    /// Concept syntax error (parser). `offset` is the byte offset
    /// into `input` where the problem was detected (`input.len()` for
    /// unexpected end of input).
    Parse {
        input: String,
        detail: String,
        offset: usize,
    },
    /// The TBox is outside the fragment a reasoner supports.
    OutsideFragment {
        reasoner: &'static str,
        detail: String,
    },
}

impl fmt::Display for DlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlError::UnknownName(n) => write!(f, "unknown name '{n}'"),
            DlError::Parse {
                input,
                detail,
                offset,
            } => {
                write!(f, "cannot parse '{input}' at byte {offset}: {detail}")
            }
            DlError::OutsideFragment { reasoner, detail } => {
                write!(f, "input outside the {reasoner} fragment: {detail}")
            }
        }
    }
}

impl std::error::Error for DlError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DlError>;
