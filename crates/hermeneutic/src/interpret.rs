//! The hermeneutic-circle interpreter and the meaning measures.

use crate::context::Context;
use crate::text::Text;
use std::collections::BTreeSet;

/// An interpretation: the set of propositions a situated reader
/// constructs from a text.
pub type Interpretation = BTreeSet<String>;

/// Interpret `text` in `context`: run the conventions to fixpoint.
///
/// Monotone rules over finite proposition sets guarantee termination;
/// the number of rounds (returned by [`interpret_traced`]) measures
/// how many times the circle went around — how often conclusions about
/// the whole re-conditioned the reading of the parts.
pub fn interpret(text: &Text, context: &Context) -> Interpretation {
    interpret_traced(text, context).0
}

/// Like [`interpret`], also returning the number of fixpoint rounds
/// and the names of the conventions that fired, in firing order.
pub fn interpret_traced(text: &Text, context: &Context) -> (Interpretation, usize, Vec<String>) {
    let mut props: Interpretation = BTreeSet::new();
    let mut fired: Vec<String> = vec![];
    let mut rounds = 0;
    loop {
        let mut changed = false;
        for conv in context.conventions() {
            if conv.applicable(text, &props) && props.insert(conv.yields.clone()) {
                fired.push(conv.name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
        rounds += 1;
    }
    (props, rounds, fired)
}

/// Meaning variance of one text across several contexts.
#[derive(Debug, Clone, PartialEq)]
pub struct MeaningVariance {
    /// One interpretation per context, in input order.
    pub interpretations: Vec<Interpretation>,
    /// Number of pairwise-distinct interpretations.
    pub n_distinct: usize,
    /// Mean pairwise Jaccard distance (0 = identical everywhere,
    /// approaching 1 = disjoint meanings).
    pub mean_jaccard_distance: f64,
}

impl MeaningVariance {
    /// Interpret `text` in every context and measure the spread.
    pub fn across(text: &Text, contexts: &[&Context]) -> Self {
        let interpretations: Vec<Interpretation> =
            contexts.iter().map(|c| interpret(text, c)).collect();
        let mut distinct: Vec<&Interpretation> = vec![];
        for i in &interpretations {
            if !distinct.contains(&i) {
                distinct.push(i);
            }
        }
        let mut dist_sum = 0.0;
        let mut pairs = 0usize;
        for (i, a) in interpretations.iter().enumerate() {
            for b in &interpretations[i + 1..] {
                dist_sum += jaccard_distance(a, b);
                pairs += 1;
            }
        }
        MeaningVariance {
            n_distinct: distinct.len(),
            mean_jaccard_distance: if pairs == 0 {
                0.0
            } else {
                dist_sum / pairs as f64
            },
            interpretations,
        }
    }
}

/// Jaccard distance between two interpretations.
pub fn jaccard_distance(a: &Interpretation, b: &Interpretation) -> f64 {
    let union = a.union(b).count();
    if union == 0 {
        return 0.0;
    }
    let inter = a.intersection(b).count();
    1.0 - inter as f64 / union as f64
}

/// The *death of the reader*, quantified. An ontological encoding
/// freezes one interpretation (`frozen`, typically the author's
/// intended reading) and serves it to every reader, in every
/// situation. The loss in context `c` is the Jaccard distance between
/// the frozen meaning and what a situated reader would actually have
/// constructed; the returned value is the mean loss over the contexts.
pub fn encoding_loss(text: &Text, frozen: &Interpretation, contexts: &[&Context]) -> f64 {
    if contexts.is_empty() {
        return 0.0;
    }
    let total: f64 = contexts
        .iter()
        .map(|c| jaccard_distance(&interpret(text, c), frozen))
        .sum();
    total / contexts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Convention;

    fn chain_context() -> Context {
        // a → x, x → y, y → z: three rounds of the circle.
        Context::new("chain")
            .with(Convention::new("r1", ["cue:a"], [], "x"))
            .with(Convention::new("r2", [], ["x"], "y"))
            .with(Convention::new("r3", [], ["y"], "z"))
    }

    #[test]
    fn fixpoint_reaches_all_derivable_props() {
        let mut t = Text::new();
        t.cue("cue:a");
        let (props, rounds, fired) = interpret_traced(&t, &chain_context());
        assert_eq!(props.len(), 3);
        assert!(props.contains("z"));
        assert!(rounds >= 1);
        assert_eq!(fired, vec!["r1", "r2", "r3"]);
    }

    #[test]
    fn interpretation_is_idempotent_and_monotone() {
        let mut t = Text::new();
        t.cue("cue:a");
        let ctx = chain_context();
        let p1 = interpret(&t, &ctx);
        let p2 = interpret(&t, &ctx);
        assert_eq!(p1, p2);
        // Adding cues can only add propositions.
        let mut t2 = t.clone();
        t2.cue("cue:b");
        let p3 = interpret(&t2, &ctx);
        assert!(p3.is_superset(&p1));
    }

    #[test]
    fn empty_text_in_empty_context_means_nothing() {
        let t = Text::new();
        let ctx = Context::new("void");
        assert!(interpret(&t, &ctx).is_empty());
    }

    #[test]
    fn variance_distinguishes_contexts() {
        let mut t = Text::new();
        t.cue("cue:a");
        let c1 = chain_context();
        let c2 = Context::new("other").with(Convention::new("s", ["cue:a"], [], "w"));
        let v = MeaningVariance::across(&t, &[&c1, &c2]);
        assert_eq!(v.n_distinct, 2);
        assert!(v.mean_jaccard_distance > 0.9); // {x,y,z} vs {w}: disjoint
        let v_same = MeaningVariance::across(&t, &[&c1, &c1]);
        assert_eq!(v_same.n_distinct, 1);
        assert_eq!(v_same.mean_jaccard_distance, 0.0);
    }

    #[test]
    fn encoding_loss_positive_when_contexts_diverge() {
        let mut t = Text::new();
        t.cue("cue:a");
        let c1 = chain_context();
        let c2 = Context::new("other").with(Convention::new("s", ["cue:a"], [], "w"));
        // Freeze the c1 reading; readers in c2 lose everything.
        let frozen = interpret(&t, &c1);
        let loss = encoding_loss(&t, &frozen, &[&c1, &c2]);
        assert!(loss > 0.0 && loss < 1.0);
        // Freezing is lossless only in a world with one context.
        assert_eq!(encoding_loss(&t, &frozen, &[&c1]), 0.0);
    }

    #[test]
    fn jaccard_edge_cases() {
        let a: Interpretation = ["x".to_string()].into_iter().collect();
        let empty = Interpretation::new();
        assert_eq!(jaccard_distance(&a, &a), 0.0);
        assert_eq!(jaccard_distance(&a, &empty), 1.0);
        assert_eq!(jaccard_distance(&empty, &empty), 0.0);
    }
}
