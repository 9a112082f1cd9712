//! Conceptual atomism, made testable.
//!
//! Fodor's informational semantics (as quoted in §3) holds that a
//! word's content is fixed by a nomological lock between mind and
//! property — *not* by the word's relations to other words. If that
//! were right, then for every word of one language there would exist a
//! property (here: a set of denotation points) that the word locks to
//! regardless of the rest of its field, and translation would pair
//! words locking to the same property.
//!
//! [`atomist_translation`] searches for such a pairing: a mapping of
//! source words to target words with *identical* denotation ranges.
//! For the paper's datasets the search fails — "we can't give a
//! sensible explanation of the difference between doorknobs and
//! pomelli unless we consider them differentially and oppositionally
//! in the context of their respective languages" — while the
//! *structural* account ([`crate::align::Alignment`]) describes the
//! situation without trouble.

use crate::field::{Item, LexicalField};

/// The result of attempting an atomist word-for-word translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomismReport {
    /// Source words that found a target with an identical range.
    pub locked_pairs: Vec<(String, String)>,
    /// Source words with no identically-locking target — the residue
    /// atomism cannot explain.
    pub unexplained: Vec<String>,
}

impl AtomismReport {
    /// Does atomism fully explain the translation (no residue, and
    /// every word paired)?
    pub fn explains(&self) -> bool {
        self.unexplained.is_empty()
    }

    /// The fraction of the source lexicon atomism accounts for.
    pub fn coverage(&self) -> f64 {
        let total = self.locked_pairs.len() + self.unexplained.len();
        if total == 0 {
            1.0
        } else {
            self.locked_pairs.len() as f64 / total as f64
        }
    }
}

/// Attempt the atomist pairing from `source` into `target`: each
/// source word must find a target word locking to exactly the same
/// property (identical denotation range).
pub fn atomist_translation(source: &LexicalField, target: &LexicalField) -> AtomismReport {
    let mut locked_pairs = vec![];
    let mut unexplained = vec![];
    let mut used: Vec<Item> = vec![];
    for s in source.items() {
        let found = target
            .items()
            .find(|&t| !used.contains(&t) && target.range(t) == source.range(s));
        match found {
            Some(t) => {
                used.push(t);
                locked_pairs.push((source.name(s).to_string(), target.name(t).to_string()));
            }
            None => unexplained.push(source.name(s).to_string()),
        }
    }
    AtomismReport {
        locked_pairs,
        unexplained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{age_adjectives_dataset, doorknob_dataset};
    use crate::space::SemanticSpace;

    #[test]
    fn atomism_fails_on_the_doorknob_schema() {
        let (_space, en, it) = doorknob_dataset();
        let report = atomist_translation(&en, &it);
        assert!(!report.explains());
        // Neither English word locks to an Italian property.
        assert_eq!(report.unexplained.len(), 2);
        assert_eq!(report.coverage(), 0.0);
    }

    #[test]
    fn atomism_fails_on_the_age_table_in_every_direction() {
        let f = age_adjectives_dataset();
        for (a, b) in [
            (&f.italian, &f.spanish),
            (&f.spanish, &f.italian),
            (&f.italian, &f.french),
            (&f.french, &f.italian),
            (&f.spanish, &f.french),
            (&f.french, &f.spanish),
        ] {
            let report = atomist_translation(a, b);
            assert!(
                !report.explains(),
                "{} → {} should defeat atomism",
                a.language(),
                b.language()
            );
        }
    }

    #[test]
    fn italian_french_share_two_locks_but_not_anziano() {
        // vecchio/vieux and antico/antique have identical ranges in
        // the encoding — the two pairs atomism can lock. anziano has
        // no French counterpart (âgé lacks the seniority use), which
        // is the residue.
        let f = age_adjectives_dataset();
        let report = atomist_translation(&f.italian, &f.french);
        assert_eq!(
            report.locked_pairs,
            vec![
                ("vecchio".to_string(), "vieux".to_string()),
                ("antico".to_string(), "antique".to_string()),
            ]
        );
        assert_eq!(report.unexplained, vec!["anziano".to_string()]);
    }

    #[test]
    fn atomism_succeeds_exactly_on_identically_divided_fields() {
        let mut space = SemanticSpace::new();
        let a = space.point("a");
        let b = space.point("b");
        let mut f1 = LexicalField::new("L1");
        f1.item("x", [a]);
        f1.item("y", [b]);
        let mut f2 = LexicalField::new("L2");
        f2.item("u", [a]);
        f2.item("v", [b]);
        let report = atomist_translation(&f1, &f2);
        assert!(report.explains());
        assert_eq!(report.coverage(), 1.0);
        assert_eq!(report.locked_pairs.len(), 2);
    }

    #[test]
    fn pairing_is_injective() {
        // Two source words with the same range compete for one target:
        // only one can lock.
        let mut space = SemanticSpace::new();
        let a = space.point("a");
        let mut f1 = LexicalField::new("L1");
        f1.item("x", [a]);
        f1.item("x2", [a]);
        let mut f2 = LexicalField::new("L2");
        f2.item("u", [a]);
        let report = atomist_translation(&f1, &f2);
        assert_eq!(report.locked_pairs.len(), 1);
        assert_eq!(report.unexplained, vec!["x2".to_string()]);
    }
}
