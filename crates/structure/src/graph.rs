//! Concept-definition graphs — the paper's diagrams (6) and (7).
//!
//! A [`DefGraph`] is extracted from a TBox: one node per atomic
//! concept, and a labeled directed edge for every definitional
//! relation the axioms assert — `Isa` edges from the defined atom to
//! each atomic conjunct of its definiens, and `Role` edges (with the
//! role and an optional cardinality) to the filler of each existential
//! or number restriction.
//!
//! [`LabelMode`] controls how much identity survives into the graph:
//! `Full` keeps concept and role names (diagram (6)); `Anonymous`
//! erases them (diagram (7)) — keeping only edge *kinds* and
//! cardinalities, which is exactly the "structural skeleton" whose
//! isomorphism class the structural theory of meaning would call the
//! concept's meaning.

use std::collections::BTreeSet;
use summa_dl::concept::{Concept, ConceptId, Vocabulary};
use summa_dl::tbox::TBox;

/// How node/edge identity is rendered into labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelMode {
    /// Keep concept and role names (diagram (6)).
    Full,
    /// Erase all names; keep only edge kinds and cardinalities
    /// (diagram (7), the skeleton).
    Anonymous,
}

/// The kind of a definitional edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// `lhs ⊑ … ⊓ atom ⊓ …` — subsumption by an atomic conjunct.
    Isa,
    /// `lhs ⊑ … ∃r.atom …` or `≥n/≤n r.atom`: a role restriction;
    /// `label` is the role name under [`LabelMode::Full`] and empty
    /// under [`LabelMode::Anonymous`]; `card` is `Some(n)` for number
    /// restrictions (the paper's `ρ2(4)`).
    Role {
        /// Role name ("" when anonymized).
        label: String,
        /// Cardinality annotation for ≥/≤/exactly restrictions.
        card: Option<u32>,
    },
}

/// A labeled directed graph of definitional structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefGraph {
    /// Node labels ("" when anonymized); index = node id.
    nodes: Vec<String>,
    /// The concept each node came from (kept even when anonymized, for
    /// reporting).
    origins: Vec<ConceptId>,
    /// Edges `(from, to, kind)`.
    edges: Vec<(usize, usize, EdgeKind)>,
}

impl DefGraph {
    /// Extract the definition graph of a whole TBox.
    pub fn from_tbox(tbox: &TBox, voc: &Vocabulary, mode: LabelMode) -> Self {
        let atoms = tbox.atoms();
        let nodes: Vec<String> = atoms
            .iter()
            .map(|&a| match mode {
                LabelMode::Full => voc.concept_name(a).to_string(),
                LabelMode::Anonymous => String::new(),
            })
            .collect();
        let index = |a: ConceptId| atoms.iter().position(|&x| x == a).expect("atom interned");
        let mut edges = vec![];
        for (lhs, rhs) in tbox.gcis() {
            let from = match lhs {
                Concept::Atom(a) => index(a),
                _ => continue, // only atomic definienda carry structure here
            };
            collect_edges(&rhs, from, voc, mode, &mut edges, &index);
        }
        edges.sort();
        edges.dedup();
        DefGraph {
            nodes,
            origins: atoms,
            edges,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Node label.
    pub fn node_label(&self, i: usize) -> &str {
        &self.nodes[i]
    }

    /// The concept a node came from.
    pub fn origin(&self, i: usize) -> ConceptId {
        self.origins[i]
    }

    /// Node id of a concept, if present.
    pub fn node_of(&self, c: ConceptId) -> Option<usize> {
        self.origins.iter().position(|&x| x == c)
    }

    /// Edges.
    pub fn edges(&self) -> &[(usize, usize, EdgeKind)] {
        &self.edges
    }

    /// Out-edges of a node.
    pub fn out_edges(&self, i: usize) -> impl Iterator<Item = &(usize, usize, EdgeKind)> {
        self.edges.iter().filter(move |(f, _, _)| *f == i)
    }

    /// In-edges of a node.
    pub fn in_edges(&self, i: usize) -> impl Iterator<Item = &(usize, usize, EdgeKind)> {
        self.edges.iter().filter(move |(_, t, _)| *t == i)
    }

    /// The sub-graph induced by the nodes reachable from `start`
    /// (following edges in either direction up to `depth` hops) — the
    /// concept's *definitional neighborhood*.
    pub fn neighborhood(&self, start: usize, depth: usize) -> DefGraph {
        let mut keep: BTreeSet<usize> = BTreeSet::new();
        keep.insert(start);
        let mut frontier = vec![start];
        for _ in 0..depth {
            let mut next = vec![];
            for &n in &frontier {
                for (f, t, _) in &self.edges {
                    if *f == n && keep.insert(*t) {
                        next.push(*t);
                    }
                    if *t == n && keep.insert(*f) {
                        next.push(*f);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        self.induced(&keep)
    }

    /// The sub-graph induced by a node set.
    pub fn induced(&self, keep: &BTreeSet<usize>) -> DefGraph {
        let remap: Vec<usize> = keep.iter().copied().collect();
        let pos = |i: usize| remap.iter().position(|&x| x == i);
        DefGraph {
            nodes: remap.iter().map(|&i| self.nodes[i].clone()).collect(),
            origins: remap.iter().map(|&i| self.origins[i]).collect(),
            edges: self
                .edges
                .iter()
                .filter_map(|(f, t, k)| Some((pos(*f)?, pos(*t)?, k.clone())))
                .collect(),
        }
    }

    /// A copy of this graph with the node labels replaced (length must
    /// match; used to pin nodes during isomorphism search).
    pub fn with_labels(&self, labels: Vec<String>) -> DefGraph {
        assert_eq!(labels.len(), self.nodes.len(), "label count must match");
        DefGraph {
            nodes: labels,
            origins: self.origins.clone(),
            edges: self.edges.clone(),
        }
    }

    /// Render as one `from -kind-> to` line per edge.
    pub fn render(&self) -> String {
        let name = |i: usize| {
            if self.nodes[i].is_empty() {
                format!("·{i}")
            } else {
                self.nodes[i].clone()
            }
        };
        let mut out = String::new();
        for (f, t, k) in &self.edges {
            let arrow = match k {
                EdgeKind::Isa => "—isa→".to_string(),
                EdgeKind::Role { label, card } => {
                    let c = card.map(|n| format!("({n})")).unwrap_or_default();
                    if label.is_empty() {
                        format!("—ρ{c}→")
                    } else {
                        format!("—{label}{c}→")
                    }
                }
            };
            out.push_str(&format!("{} {arrow} {}\n", name(*f), name(*t)));
        }
        out
    }
}

fn collect_edges(
    rhs: &Concept,
    from: usize,
    voc: &Vocabulary,
    mode: LabelMode,
    edges: &mut Vec<(usize, usize, EdgeKind)>,
    index: &impl Fn(ConceptId) -> usize,
) {
    match rhs {
        Concept::Atom(a) => edges.push((from, index(*a), EdgeKind::Isa)),
        Concept::And(parts) => {
            for p in parts {
                collect_edges(p, from, voc, mode, edges, index);
            }
        }
        Concept::Exists(r, inner) | Concept::Forall(r, inner) => {
            if let Concept::Atom(a) = inner.as_ref() {
                let label = match mode {
                    LabelMode::Full => voc.role_name(*r).to_string(),
                    LabelMode::Anonymous => String::new(),
                };
                edges.push((from, index(*a), EdgeKind::Role { label, card: None }));
            } else {
                collect_edges(inner, from, voc, mode, edges, index);
            }
        }
        Concept::AtLeast(n, r, inner) | Concept::AtMost(n, r, inner) => {
            if let Concept::Atom(a) = inner.as_ref() {
                let label = match mode {
                    LabelMode::Full => voc.role_name(*r).to_string(),
                    LabelMode::Anonymous => String::new(),
                };
                edges.push((
                    from,
                    index(*a),
                    EdgeKind::Role {
                        label,
                        card: Some(*n),
                    },
                ));
            } else {
                collect_edges(inner, from, voc, mode, edges, index);
            }
        }
        // Negations/disjunctions do not contribute definitional edges
        // in the paper's diagrams; other constructors carry no atoms.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summa_dl::corpus::{vehicles_tbox, PaperVocab};

    #[test]
    fn vehicles_graph_matches_diagram_six() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let g = DefGraph::from_tbox(&t, &p.voc, LabelMode::Full);
        // Diagram (6): D=car, E=pickup, B=motorvehicle, C=roadvehicle,
        // A=gasoline, H=wheel, F=small, G=big.
        assert_eq!(g.n_nodes(), t.atoms().len());
        let car = g.node_of(p.car).unwrap();
        let isa_targets: Vec<&str> = g
            .out_edges(car)
            .filter(|(_, _, k)| *k == EdgeKind::Isa)
            .map(|(_, t, _)| g.node_label(*t))
            .collect();
        assert!(isa_targets.contains(&"motorvehicle"));
        assert!(isa_targets.contains(&"roadvehicle"));
        // car —size→ small
        assert!(g.out_edges(car).any(|(_, t, k)| matches!(
            k,
            EdgeKind::Role { label, .. } if label == "size"
        ) && g.node_label(*t) == "small"));
        // roadvehicle —has(4)→ wheel
        let rv = g.node_of(p.roadvehicle).unwrap();
        assert!(g.out_edges(rv).any(
            |(_, t, k)| matches!(k, EdgeKind::Role { card: Some(4), .. })
                && g.node_label(*t) == "wheel"
        ));
    }

    #[test]
    fn anonymous_mode_erases_names() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let g = DefGraph::from_tbox(&t, &p.voc, LabelMode::Anonymous);
        assert!((0..g.n_nodes()).all(|i| g.node_label(i).is_empty()));
        assert!(g.edges().iter().all(|(_, _, k)| match k {
            EdgeKind::Isa => true,
            EdgeKind::Role { label, .. } => label.is_empty(),
        }));
        // But cardinalities survive (the paper's ρ2(4)).
        assert!(g
            .edges()
            .iter()
            .any(|(_, _, k)| matches!(k, EdgeKind::Role { card: Some(4), .. })));
    }

    #[test]
    fn neighborhood_restricts_to_reachable() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let g = DefGraph::from_tbox(&t, &p.voc, LabelMode::Full);
        let car = g.node_of(p.car).unwrap();
        let n1 = g.neighborhood(car, 1);
        // Depth 1: car, motorvehicle, roadvehicle, small.
        assert_eq!(n1.n_nodes(), 4);
        let n2 = g.neighborhood(car, 2);
        // Depth 2 adds gasoline, wheel, and pickup (shares neighbors).
        assert!(n2.n_nodes() > n1.n_nodes());
        // Depth 0 keeps only the start node.
        assert_eq!(g.neighborhood(car, 0).n_nodes(), 1);
    }

    #[test]
    fn render_names_or_dots() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let full = DefGraph::from_tbox(&t, &p.voc, LabelMode::Full).render();
        assert!(full.contains("car —isa→ motorvehicle"));
        assert!(full.contains("—has(4)→ wheel"));
        let anon = DefGraph::from_tbox(&t, &p.voc, LabelMode::Anonymous).render();
        assert!(anon.contains('·'));
        assert!(!anon.contains("car"));
    }
}
