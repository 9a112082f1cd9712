//! The paper's circularity argument as a dependency analysis.
//!
//! §2 of *Summa Contra Ontologiam*:
//!
//! > "…the worlds, that one needs in order to define the intensional
//! > relation, can only have structure by virtue of the extensional
//! > relations that the intensional ones are supposed to define. We
//! > are stuck in the middle of a circular argument."
//!
//! We render the argument as a directed graph of *definitional
//! dependencies* between the formal notions of Guarino's construction
//! and detect cycles. Two graphs are provided ready-made:
//!
//! * [`DependencyGraph::guarino`] — the construction as the paper
//!   reads it (worlds are bare indices): intensional relations depend
//!   on world structure, world structure depends on extensional
//!   relations, extensional relations are produced by applying
//!   intensional relations to worlds → a cycle;
//! * [`DependencyGraph::guarino_with_primitive_worlds`] — the repair
//!   the paper implicitly demands: worlds carry *primitive* (pre-
//!   relational) structure, breaking the cycle — at the price of
//!   making the extensional facts logically prior, which contradicts
//!   the intensional relations' definitional role.

use std::collections::BTreeMap;
use summa_guard::{Budget, Governed, Interrupt, Meter};

/// A formal notion in the dependency analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Notion {
    /// An intensional relation `r : W → 2^{Dⁿ}`.
    IntensionalRelation,
    /// The structure of a possible world.
    WorldStructure,
    /// An extensional relation (a set of tuples).
    ExtensionalRelation,
    /// Primitive, pre-relational world state (e.g. block coordinates).
    PrimitiveState,
}

impl Notion {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Notion::IntensionalRelation => "intensional relation",
            Notion::WorldStructure => "world structure",
            Notion::ExtensionalRelation => "extensional relation",
            Notion::PrimitiveState => "primitive state",
        }
    }
}

/// A directed graph of "X is defined in terms of Y" edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencyGraph {
    edges: Vec<(Notion, Notion, &'static str)>,
}

/// The outcome of cycle detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircularityReport {
    /// A definitional cycle, as a sequence of notions (first = last),
    /// when one exists.
    pub cycle: Option<Vec<Notion>>,
    /// A topological order of the notions when the graph is acyclic.
    pub topological_order: Option<Vec<Notion>>,
}

impl DependencyGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add the edge "`from` is defined in terms of `to`".
    pub fn depends(&mut self, from: Notion, to: Notion, why: &'static str) {
        self.edges.push((from, to, why));
    }

    /// The edges.
    pub fn edges(&self) -> &[(Notion, Notion, &'static str)] {
        &self.edges
    }

    /// Guarino's construction as the paper reads it.
    pub fn guarino() -> Self {
        let mut g = Self::new();
        g.depends(
            Notion::IntensionalRelation,
            Notion::WorldStructure,
            "r : W → 2^{Dⁿ} assigns an extension by inspecting each world",
        );
        g.depends(
            Notion::WorldStructure,
            Notion::ExtensionalRelation,
            "a world's structure is exactly which tuples hold in it",
        );
        g.depends(
            Notion::ExtensionalRelation,
            Notion::IntensionalRelation,
            "extensions are obtained by applying intensional relations to worlds",
        );
        g
    }

    /// The repaired construction: worlds carry primitive state.
    pub fn guarino_with_primitive_worlds() -> Self {
        let mut g = Self::new();
        g.depends(
            Notion::IntensionalRelation,
            Notion::WorldStructure,
            "r : W → 2^{Dⁿ} assigns an extension by inspecting each world",
        );
        g.depends(
            Notion::WorldStructure,
            Notion::PrimitiveState,
            "world structure is read off pre-relational state (e.g. coordinates)",
        );
        g.depends(
            Notion::ExtensionalRelation,
            Notion::IntensionalRelation,
            "extensions are obtained by applying intensional relations to worlds",
        );
        g
    }

    /// Detect a cycle (DFS three-colouring); produce a topological
    /// order when acyclic.
    pub fn analyze(&self) -> CircularityReport {
        self.analyze_metered(&mut Meter::unlimited())
            .expect("unlimited meter never interrupts")
    }

    /// Budget-governed cycle detection. An interrupted analysis
    /// carries no partial report: a half-explored graph supports
    /// neither a cycle claim nor a topological order.
    pub fn analyze_governed(&self, budget: &Budget) -> Governed<CircularityReport> {
        let mut meter = budget.meter();
        match self.analyze_metered(&mut meter) {
            Ok(r) => Governed::Completed(r),
            Err(i) => Governed::from_interrupt(i, None),
        }
    }

    /// The metered DFS, charging one step per edge traversal and per
    /// node retirement.
    pub fn analyze_metered(&self, meter: &mut Meter) -> Result<CircularityReport, Interrupt> {
        let mut nodes: Vec<Notion> = vec![];
        for &(a, b, _) in &self.edges {
            if !nodes.contains(&a) {
                nodes.push(a);
            }
            if !nodes.contains(&b) {
                nodes.push(b);
            }
        }
        let adj: BTreeMap<Notion, Vec<Notion>> = {
            let mut m: BTreeMap<Notion, Vec<Notion>> = BTreeMap::new();
            for &(a, b, _) in &self.edges {
                m.entry(a).or_default().push(b);
            }
            m
        };
        #[derive(PartialEq, Clone, Copy)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color: BTreeMap<Notion, Color> = nodes.iter().map(|&n| (n, Color::White)).collect();
        let mut order: Vec<Notion> = vec![];
        // Iterative DFS with an explicit stack of (node, child cursor).
        for &start in &nodes {
            if color[&start] != Color::White {
                continue;
            }
            let mut stack: Vec<(Notion, usize)> = vec![(start, 0)];
            color.insert(start, Color::Grey);
            while let Some(&mut (n, ref mut cursor)) = stack.last_mut() {
                let children = adj.get(&n).map(Vec::as_slice).unwrap_or(&[]);
                if *cursor < children.len() {
                    meter.charge(1)?;
                    let child = children[*cursor];
                    *cursor += 1;
                    match color[&child] {
                        Color::White => {
                            color.insert(child, Color::Grey);
                            stack.push((child, 0));
                        }
                        Color::Grey => {
                            // Found a cycle: slice the stack from child.
                            let mut cyc: Vec<Notion> = stack
                                .iter()
                                .map(|&(x, _)| x)
                                .skip_while(|&x| x != child)
                                .collect();
                            cyc.push(child);
                            return Ok(CircularityReport {
                                cycle: Some(cyc),
                                topological_order: None,
                            });
                        }
                        Color::Black => {}
                    }
                } else {
                    meter.charge(1)?;
                    color.insert(n, Color::Black);
                    order.push(n);
                    stack.pop();
                }
            }
        }
        order.reverse();
        Ok(CircularityReport {
            cycle: None,
            topological_order: Some(order),
        })
    }

    /// Render the edges as "X ← Y (why)" lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (a, b, why) in &self.edges {
            out.push_str(&format!("{} depends on {}: {}\n", a.name(), b.name(), why));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarino_construction_is_circular() {
        let g = DependencyGraph::guarino();
        let report = g.analyze();
        let cycle = report.cycle.expect("the paper's cycle must be found");
        // The cycle passes through all three notions.
        assert!(cycle.contains(&Notion::IntensionalRelation));
        assert!(cycle.contains(&Notion::WorldStructure));
        assert!(cycle.contains(&Notion::ExtensionalRelation));
        assert_eq!(cycle.first(), cycle.last());
        assert!(report.topological_order.is_none());
    }

    #[test]
    fn primitive_worlds_break_the_cycle() {
        let g = DependencyGraph::guarino_with_primitive_worlds();
        let report = g.analyze();
        assert!(report.cycle.is_none());
        let order = report.topological_order.expect("acyclic graph");
        // In the repaired order, primitive state must come after (i.e.
        // be depended on by) world structure: extensional facts are
        // logically prior — the paper's conclusion.
        let pos = |n: Notion| order.iter().position(|&x| x == n).expect("present");
        assert!(pos(Notion::WorldStructure) < pos(Notion::PrimitiveState));
        assert!(pos(Notion::IntensionalRelation) < pos(Notion::WorldStructure));
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g = DependencyGraph::new();
        let r = g.analyze();
        assert!(r.cycle.is_none());
        assert_eq!(r.topological_order, Some(vec![]));
    }

    #[test]
    fn self_loop_detected() {
        let mut g = DependencyGraph::new();
        g.depends(Notion::WorldStructure, Notion::WorldStructure, "self");
        let r = g.analyze();
        assert_eq!(
            r.cycle,
            Some(vec![Notion::WorldStructure, Notion::WorldStructure])
        );
    }

    #[test]
    fn governed_analysis_completes_and_exhausts() {
        let g = DependencyGraph::guarino();
        let done = g.analyze_governed(&Budget::unlimited());
        assert!(done.is_completed());
        assert_eq!(done.completed(), Some(g.analyze()));
        // The cycle needs three edge traversals; one step cannot reach
        // a verdict.
        let starved = g.analyze_governed(&Budget::new().with_steps(1));
        assert!(matches!(starved, Governed::Exhausted { partial: None, .. }));
    }

    #[test]
    fn render_mentions_reasons() {
        let g = DependencyGraph::guarino();
        let s = g.render();
        assert!(s.contains("intensional relation depends on world structure"));
        assert!(!s.contains("circular")); // render is neutral
        assert_eq!(s.lines().count(), 3);
    }
}
