//! Graph isomorphism for labeled directed graphs (VF2-style
//! backtracking with degree pruning).

use crate::graph::{DefGraph, EdgeKind};
use std::collections::BTreeMap;
use summa_guard::{Budget, Governed, Interrupt, Meter};

/// A node bijection witnessing an isomorphism (g1 node → g2 node).
pub type Mapping = BTreeMap<usize, usize>;

/// Find an isomorphism between two labeled graphs, if one exists.
///
/// Node labels and edge kinds (including role labels and
/// cardinalities) must be preserved exactly; anonymize the graphs
/// first (see [`crate::graph::LabelMode::Anonymous`]) to compare pure
/// structure.
pub fn find_isomorphism(g1: &DefGraph, g2: &DefGraph) -> Option<Mapping> {
    find_isomorphism_metered(g1, g2, &mut Meter::unlimited())
        .expect("unlimited meter never interrupts")
}

/// Budget-governed isomorphism search. Each candidate assignment tried
/// by the backtracking search charges one step; an exhausted or
/// cancelled search carries no partial witness (`None` = *undecided*,
/// not *non-isomorphic*).
pub fn find_isomorphism_governed(
    g1: &DefGraph,
    g2: &DefGraph,
    budget: &Budget,
) -> Governed<Option<Mapping>> {
    let mut meter = budget.meter();
    match find_isomorphism_metered(g1, g2, &mut meter) {
        Ok(m) => Governed::Completed(m),
        Err(i) => Governed::from_interrupt(i, None),
    }
}

/// Metered isomorphism search over a caller-supplied meter, for
/// composing several searches under one envelope.
pub fn find_isomorphism_metered(
    g1: &DefGraph,
    g2: &DefGraph,
    meter: &mut Meter,
) -> Result<Option<Mapping>, Interrupt> {
    if g1.n_nodes() != g2.n_nodes() || g1.n_edges() != g2.n_edges() {
        // Size-pruned pairs never enter the search; keeping them out of
        // the span stream keeps flamegraphs about actual backtracking.
        return Ok(None);
    }
    let mut span = meter.span("structure.iso").with("nodes", g1.n_nodes());
    let n = g1.n_nodes();
    // Degree signatures for pruning: (label, out-degree, in-degree,
    // multiset of incident edge kinds).
    let sig1 = node_signatures(g1);
    let sig2 = node_signatures(g2);
    // The multisets of signatures must agree.
    {
        let mut a = sig1.clone();
        let mut b = sig2.clone();
        a.sort();
        b.sort();
        if a != b {
            span.record("found", false);
            return Ok(None);
        }
    }

    let mut mapping: Vec<Option<usize>> = vec![None; n];
    let mut used: Vec<bool> = vec![false; n];

    let found = backtrack(g1, g2, &sig1, &sig2, &mut mapping, &mut used, 0, meter)?;
    span.record("found", found);
    if found {
        Ok(Some(complete_mapping(mapping)))
    } else {
        Ok(None)
    }
}

/// Node signature for pruning: (label, sorted out-edge kinds, sorted
/// in-edge kinds).
type NodeSig = (String, Vec<EdgeKind>, Vec<EdgeKind>);

fn node_signatures(g: &DefGraph) -> Vec<NodeSig> {
    (0..g.n_nodes())
        .map(|i| {
            let mut out_kinds: Vec<&EdgeKind> = g.out_edges(i).map(|(_, _, k)| k).collect();
            let mut in_kinds: Vec<&EdgeKind> = g.in_edges(i).map(|(_, _, k)| k).collect();
            out_kinds.sort();
            in_kinds.sort();
            (
                g.node_label(i).to_string(),
                out_kinds.into_iter().cloned().collect::<Vec<_>>(),
                in_kinds.into_iter().cloned().collect::<Vec<_>>(),
            )
        })
        .collect()
}

fn complete_mapping(mapping: Vec<Option<usize>>) -> Mapping {
    mapping
        .into_iter()
        .enumerate()
        .map(|(i, m)| (i, m.expect("complete mapping")))
        .collect()
}

fn consistent(g1: &DefGraph, g2: &DefGraph, mapping: &[Option<usize>]) -> bool {
    // Every g1 edge between mapped nodes must exist in g2 with the
    // same kind, and vice versa (counting multiplicity by exact
    // match of the (from,to,kind) triple).
    for (f, t, k) in g1.edges() {
        if let (Some(mf), Some(mt)) = (mapping[*f], mapping[*t]) {
            if !g2
                .edges()
                .iter()
                .any(|(f2, t2, k2)| *f2 == mf && *t2 == mt && k2 == k)
            {
                return false;
            }
        }
    }
    for (f2, t2, k2) in g2.edges() {
        let pf = mapping.iter().position(|&m| m == Some(*f2));
        let pt = mapping.iter().position(|&m| m == Some(*t2));
        if let (Some(pf), Some(pt)) = (pf, pt) {
            if !g1
                .edges()
                .iter()
                .any(|(f, t, k)| *f == pf && *t == pt && k == k2)
            {
                return false;
            }
        }
    }
    true
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    g1: &DefGraph,
    g2: &DefGraph,
    sig1: &[NodeSig],
    sig2: &[NodeSig],
    mapping: &mut Vec<Option<usize>>,
    used: &mut Vec<bool>,
    next: usize,
    meter: &mut Meter,
) -> Result<bool, Interrupt> {
    if next == mapping.len() {
        return Ok(true);
    }
    for cand in 0..mapping.len() {
        if used[cand] || sig1[next] != sig2[cand] {
            continue;
        }
        // One step per candidate assignment tried: the unit of
        // work for the search tree.
        meter.charge(1)?;
        mapping[next] = Some(cand);
        used[cand] = true;
        if consistent(g1, g2, mapping)
            && backtrack(g1, g2, sig1, sig2, mapping, used, next + 1, meter)?
        {
            return Ok(true);
        }
        mapping[next] = None;
        used[cand] = false;
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LabelMode;
    use summa_dl::concept::Concept;
    use summa_dl::concept::Vocabulary;
    use summa_dl::tbox::TBox;

    fn tiny_tbox(names: [&str; 3], role: &str) -> (Vocabulary, TBox) {
        let mut voc = Vocabulary::new();
        let a = voc.concept(names[0]);
        let b = voc.concept(names[1]);
        let c = voc.concept(names[2]);
        let r = voc.role(role);
        let mut t = TBox::new();
        t.subsume(Concept::atom(a), Concept::atom(b));
        t.subsume(Concept::atom(a), Concept::exists(r, Concept::atom(c)));
        (voc, t)
    }

    #[test]
    fn identical_graphs_are_isomorphic() {
        let (voc, t) = tiny_tbox(["a", "b", "c"], "r");
        let g = crate::graph::DefGraph::from_tbox(&t, &voc, LabelMode::Full);
        let m = find_isomorphism(&g, &g).unwrap();
        assert_eq!(m.len(), g.n_nodes());
        for (k, v) in &m {
            assert_eq!(g.node_label(*k), g.node_label(*v));
        }
    }

    #[test]
    fn renamed_graphs_isomorphic_only_anonymously() {
        let (voc1, t1) = tiny_tbox(["a", "b", "c"], "r");
        let (voc2, t2) = tiny_tbox(["x", "y", "z"], "s");
        let f1 = crate::graph::DefGraph::from_tbox(&t1, &voc1, LabelMode::Full);
        let f2 = crate::graph::DefGraph::from_tbox(&t2, &voc2, LabelMode::Full);
        assert!(find_isomorphism(&f1, &f2).is_none()); // names differ
        let a1 = crate::graph::DefGraph::from_tbox(&t1, &voc1, LabelMode::Anonymous);
        let a2 = crate::graph::DefGraph::from_tbox(&t2, &voc2, LabelMode::Anonymous);
        assert!(find_isomorphism(&a1, &a2).is_some()); // skeletons match
    }

    #[test]
    fn different_structure_not_isomorphic() {
        let (voc1, t1) = tiny_tbox(["a", "b", "c"], "r");
        // Second graph has an extra isa edge.
        let mut voc2 = Vocabulary::new();
        let x = voc2.concept("x");
        let y = voc2.concept("y");
        let z = voc2.concept("z");
        let s = voc2.role("s");
        let mut t2 = TBox::new();
        t2.subsume(Concept::atom(x), Concept::atom(y));
        t2.subsume(Concept::atom(x), Concept::exists(s, Concept::atom(z)));
        t2.subsume(Concept::atom(y), Concept::atom(z));
        let a1 = crate::graph::DefGraph::from_tbox(&t1, &voc1, LabelMode::Anonymous);
        let a2 = crate::graph::DefGraph::from_tbox(&t2, &voc2, LabelMode::Anonymous);
        assert!(find_isomorphism(&a1, &a2).is_none());
    }

    #[test]
    fn cardinalities_must_match() {
        let mut voc1 = Vocabulary::new();
        let a = voc1.concept("a");
        let b = voc1.concept("b");
        let r = voc1.role("r");
        let mut t1 = TBox::new();
        t1.subsume(Concept::atom(a), Concept::at_least(4, r, Concept::atom(b)));
        let mut t2 = TBox::new();
        t2.subsume(Concept::atom(a), Concept::at_least(3, r, Concept::atom(b)));
        let g1 = crate::graph::DefGraph::from_tbox(&t1, &voc1, LabelMode::Anonymous);
        let g2 = crate::graph::DefGraph::from_tbox(&t2, &voc1, LabelMode::Anonymous);
        assert!(find_isomorphism(&g1, &g2).is_none());
        let g3 = crate::graph::DefGraph::from_tbox(&t1, &voc1, LabelMode::Anonymous);
        assert!(find_isomorphism(&g1, &g3).is_some());
    }

    #[test]
    fn governed_search_completes_and_exhausts() {
        let (voc, t) = tiny_tbox(["a", "b", "c"], "r");
        let g = crate::graph::DefGraph::from_tbox(&t, &voc, LabelMode::Full);
        let done = find_isomorphism_governed(&g, &g, &summa_guard::Budget::unlimited());
        assert!(matches!(done, summa_guard::Governed::Completed(Some(_))));
        // Any complete mapping needs one charge per node, so a budget
        // below the node count must exhaust instead of answering.
        assert!(g.n_nodes() > 1);
        let starved = find_isomorphism_governed(&g, &g, &summa_guard::Budget::new().with_steps(1));
        assert!(matches!(
            starved,
            summa_guard::Governed::Exhausted { partial: None, .. }
        ));
    }

    #[test]
    fn size_mismatch_fails_fast() {
        let (voc1, t1) = tiny_tbox(["a", "b", "c"], "r");
        let mut voc2 = Vocabulary::new();
        let x = voc2.concept("x");
        let y = voc2.concept("y");
        let mut t2 = TBox::new();
        t2.subsume(Concept::atom(x), Concept::atom(y));
        let g1 = crate::graph::DefGraph::from_tbox(&t1, &voc1, LabelMode::Anonymous);
        let g2 = crate::graph::DefGraph::from_tbox(&t2, &voc2, LabelMode::Anonymous);
        assert!(find_isomorphism(&g1, &g2).is_none());
    }
}
