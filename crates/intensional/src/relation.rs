//! Extensional n-ary relations over a finite domain.

use crate::domain::{Domain, Elem};
use crate::error::{IntensionalError, Result};
use std::collections::BTreeSet;

/// An extensional relation: a set of `arity`-tuples, e.g. the paper's
/// structure (1): `[above] = {(a,b), (a,d), (b,d)}`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Relation {
    arity: usize,
    tuples: BTreeSet<Vec<Elem>>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            tuples: BTreeSet::new(),
        }
    }

    /// Build from tuples, checking arity.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Vec<Elem>>) -> Result<Self> {
        let mut r = Relation::new(arity);
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Insert a tuple.
    pub fn insert(&mut self, t: Vec<Elem>) -> Result<()> {
        if t.len() != self.arity {
            return Err(IntensionalError::ArityMismatch {
                expected: self.arity,
                got: t.len(),
            });
        }
        self.tuples.insert(t);
        Ok(())
    }

    /// Membership.
    pub fn contains(&self, t: &[Elem]) -> bool {
        self.tuples.contains(t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterate the tuples.
    pub fn tuples(&self) -> impl Iterator<Item = &Vec<Elem>> {
        self.tuples.iter()
    }

    /// The full relation `Dⁿ`.
    pub fn full(domain: &Domain, arity: usize) -> Self {
        Relation {
            arity,
            tuples: domain.tuples(arity).into_iter().collect(),
        }
    }

    /// Render as `{(a,b), …}` using domain names.
    pub fn render(&self, domain: &Domain) -> String {
        let mut parts = vec![];
        for t in &self.tuples {
            let names: Vec<&str> = t.iter().map(|&e| domain.name(e)).collect();
            parts.push(format!("({})", names.join(",")));
        }
        format!("{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_one_from_the_paper() {
        // [above] = {(a,b), (a,d), (b,d)}
        let mut d = Domain::new();
        let a = d.elem("a");
        let b = d.elem("b");
        let _c = d.elem("c");
        let dd = d.elem("d");
        let above = Relation::from_tuples(2, vec![vec![a, b], vec![a, dd], vec![b, dd]]).unwrap();
        assert_eq!(above.len(), 3);
        assert!(above.contains(&[a, b]));
        assert!(!above.contains(&[b, a]));
        let s = above.render(&d);
        assert!(s.contains("(a,b)") && s.contains("(b,d)"));
    }

    #[test]
    fn arity_is_enforced() {
        let mut d = Domain::new();
        let a = d.elem("a");
        let mut r = Relation::new(2);
        assert!(r.insert(vec![a]).is_err());
        assert!(r.insert(vec![a, a]).is_ok());
    }

    #[test]
    fn full_relation_has_all_tuples() {
        let mut d = Domain::new();
        d.elem("a");
        d.elem("b");
        let f = Relation::full(&d, 2);
        assert_eq!(f.len(), 4);
        assert_eq!(Relation::full(&d, 0).len(), 1);
    }
}
