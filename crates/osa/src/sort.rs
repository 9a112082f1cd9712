//! Partially ordered sets of sort names.
//!
//! The subsort relation `≤` of an order-sorted signature is a partial
//! order on sort names. [`SortPoset`] stores the reflexive–transitive
//! closure of the declared subsort edges as bitsets, so `leq` is O(1)
//! and meet/join queries are linear in the number of sorts.

use crate::error::{OsaError, Result};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a sort inside one [`SortPoset`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SortId(pub u32);

impl SortId {
    /// Index into the poset's dense tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A fixed-size bitset over sort indices.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }
    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }
    #[inline]
    fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }
    fn or_assign(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let new = *w | *o;
            changed |= new != *w;
            *w = new;
        }
        changed
    }
    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if w & (1 << b) != 0 {
                    Some(wi * 64 + b)
                } else {
                    None
                }
            })
        })
    }
}

/// Builder for a [`SortPoset`].
///
/// Sorts are interned by name; subsort edges may be declared in any
/// order. [`SortPosetBuilder::finish`] computes the transitive closure
/// and rejects cyclic declarations.
#[derive(Debug, Default, Clone)]
pub struct SortPosetBuilder {
    names: Vec<String>,
    /// Direct subsort edges `(sub, sup)`.
    edges: Vec<(SortId, SortId)>,
}

impl SortPosetBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a sort by name, returning its id (idempotent).
    pub fn sort(&mut self, name: &str) -> SortId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return SortId(i as u32);
        }
        self.names.push(name.to_string());
        SortId((self.names.len() - 1) as u32)
    }

    /// Declare `sub ≤ sup`.
    pub fn subsort(&mut self, sub: SortId, sup: SortId) {
        self.edges.push((sub, sup));
    }

    /// Number of sorts interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no sorts have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Compute the closure and produce the immutable poset.
    pub fn finish(self) -> Result<SortPoset> {
        let n = self.names.len();
        // leq[a] = set of sorts b with a ≤ b (upward closure).
        let mut leq: Vec<BitSet> = (0..n)
            .map(|i| {
                let mut b = BitSet::new(n);
                b.set(i);
                b
            })
            .collect();
        // Floyd–Warshall-flavoured fixpoint over the declared edges;
        // the edge list is tiny in practice so this is fine.
        let mut changed = true;
        while changed {
            changed = false;
            for &(sub, sup) in &self.edges {
                let sup_set = leq[sup.index()].clone();
                changed |= leq[sub.index()].or_assign(&sup_set);
            }
        }
        // Antisymmetry: a ≤ b and b ≤ a with a ≠ b is a cycle.
        for a in 0..n {
            for b in (a + 1)..n {
                if leq[a].get(b) && leq[b].get(a) {
                    return Err(OsaError::SortCycle {
                        a: self.names[a].clone(),
                        b: self.names[b].clone(),
                    });
                }
            }
        }
        // geq is the transpose.
        let mut geq: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for (a, row) in leq.iter().enumerate() {
            for b in row.iter_ones() {
                geq[b].set(a);
            }
        }
        // Connected components of the comparability graph (treating ≤ as
        // undirected edges): used to decide whether two sorts live "in the
        // same cone", which order-sorted deduction needs for equations.
        let mut comp = vec![usize::MAX; n];
        let mut next_comp = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp[start] = next_comp;
            while let Some(v) = stack.pop() {
                let nbrs: Vec<usize> = leq[v].iter_ones().chain(geq[v].iter_ones()).collect();
                for w in nbrs {
                    if comp[w] == usize::MAX {
                        comp[w] = next_comp;
                        stack.push(w);
                    }
                }
            }
            next_comp += 1;
        }
        Ok(SortPoset {
            names: self.names,
            leq,
            geq,
            component: comp,
            n_components: next_comp,
        })
    }
}

/// An immutable partial order on sort names.
#[derive(Debug, Clone)]
pub struct SortPoset {
    names: Vec<String>,
    leq: Vec<BitSet>,
    geq: Vec<BitSet>,
    component: Vec<usize>,
    n_components: usize,
}

impl PartialEq for SortPoset {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names && self.leq == other.leq
    }
}
impl Eq for SortPoset {}

impl SortPoset {
    /// Number of sorts.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the poset has no sorts.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name of a sort.
    pub fn name(&self, s: SortId) -> &str {
        &self.names[s.index()]
    }

    /// Look a sort up by name.
    pub fn by_name(&self, name: &str) -> Option<SortId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| SortId(i as u32))
    }

    /// All sort ids in declaration order.
    pub fn sorts(&self) -> impl Iterator<Item = SortId> + '_ {
        (0..self.names.len() as u32).map(SortId)
    }

    /// `a ≤ b` in the reflexive–transitive closure.
    #[inline]
    pub fn leq(&self, a: SortId, b: SortId) -> bool {
        self.leq[a.index()].get(b.index())
    }

    /// Strictly below: `a ≤ b` and `a ≠ b`.
    #[inline]
    pub fn lt(&self, a: SortId, b: SortId) -> bool {
        a != b && self.leq(a, b)
    }

    /// `a` and `b` are comparable (`a ≤ b` or `b ≤ a`).
    pub fn comparable(&self, a: SortId, b: SortId) -> bool {
        self.leq(a, b) || self.leq(b, a)
    }

    /// `a` and `b` lie in the same connected component of the
    /// comparability graph.
    pub fn same_component(&self, a: SortId, b: SortId) -> bool {
        self.component[a.index()] == self.component[b.index()]
    }

    /// Number of connected components.
    pub fn n_components(&self) -> usize {
        self.n_components
    }

    /// Componentwise order on equal-length sort strings.
    pub fn leq_seq(&self, w1: &[SortId], w2: &[SortId]) -> bool {
        w1.len() == w2.len() && w1.iter().zip(w2).all(|(&a, &b)| self.leq(a, b))
    }

    /// All upper bounds of `a` (including `a`).
    pub fn upper_bounds(&self, a: SortId) -> Vec<SortId> {
        self.leq[a.index()]
            .iter_ones()
            .map(|i| SortId(i as u32))
            .collect()
    }

    /// All lower bounds of `a` (including `a`).
    pub fn lower_bounds(&self, a: SortId) -> Vec<SortId> {
        self.geq[a.index()]
            .iter_ones()
            .map(|i| SortId(i as u32))
            .collect()
    }

    /// Minimal elements of a non-empty set of sorts.
    pub fn minimal(&self, set: &[SortId]) -> Vec<SortId> {
        set.iter()
            .copied()
            .filter(|&a| !set.iter().any(|&b| self.lt(b, a)))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    /// Least element of a set of sorts, if one exists.
    pub fn least(&self, set: &[SortId]) -> Option<SortId> {
        let mins = self.minimal(set);
        match mins.as_slice() {
            [m] if set.iter().all(|&s| self.leq(*m, s)) => Some(*m),
            _ => None,
        }
    }

    /// Greatest lower bounds (maximal common lower bounds) of `a`, `b`.
    pub fn glbs(&self, a: SortId, b: SortId) -> Vec<SortId> {
        let common: Vec<SortId> = self.geq[a.index()]
            .iter_ones()
            .filter(|&i| self.geq[b.index()].get(i))
            .map(|i| SortId(i as u32))
            .collect();
        // maximal elements of common
        common
            .iter()
            .copied()
            .filter(|&x| !common.iter().any(|&y| self.lt(x, y)))
            .collect()
    }

    /// Least upper bounds (minimal common upper bounds) of `a`, `b`.
    pub fn lubs(&self, a: SortId, b: SortId) -> Vec<SortId> {
        let common: Vec<SortId> = self.leq[a.index()]
            .iter_ones()
            .filter(|&i| self.leq[b.index()].get(i))
            .map(|i| SortId(i as u32))
            .collect();
        self.minimal(&common)
    }

    /// True when every pair of sorts with a common lower bound has a
    /// least upper bound (local filteredness — a coherence condition used
    /// by order-sorted deduction).
    pub fn is_locally_filtered(&self) -> bool {
        for a in self.sorts() {
            for b in self.sorts() {
                if !self.glbs(a, b).is_empty() && self.lubs(a, b).len() > 1 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (SortPoset, SortId, SortId, SortId, SortId) {
        // top ≥ {left, right} ≥ bottom
        let mut b = SortPosetBuilder::new();
        let top = b.sort("Top");
        let left = b.sort("Left");
        let right = b.sort("Right");
        let bot = b.sort("Bot");
        b.subsort(left, top);
        b.subsort(right, top);
        b.subsort(bot, left);
        b.subsort(bot, right);
        (b.finish().unwrap(), top, left, right, bot)
    }

    #[test]
    fn interning_is_idempotent() {
        let mut b = SortPosetBuilder::new();
        let a1 = b.sort("A");
        let a2 = b.sort("A");
        assert_eq!(a1, a2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn leq_is_reflexive_and_transitive() {
        let (p, top, left, _right, bot) = diamond();
        for s in p.sorts() {
            assert!(p.leq(s, s));
        }
        assert!(p.leq(bot, left));
        assert!(p.leq(left, top));
        assert!(p.leq(bot, top)); // transitivity
        assert!(!p.leq(top, bot));
    }

    #[test]
    fn incomparable_branches() {
        let (p, _top, left, right, _bot) = diamond();
        assert!(!p.comparable(left, right));
        assert!(p.same_component(left, right));
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = SortPosetBuilder::new();
        let a = b.sort("A");
        let c = b.sort("B");
        b.subsort(a, c);
        b.subsort(c, a);
        assert!(matches!(b.finish(), Err(OsaError::SortCycle { .. })));
    }

    #[test]
    fn self_loop_is_allowed() {
        // a ≤ a is just reflexivity, not a cycle.
        let mut b = SortPosetBuilder::new();
        let a = b.sort("A");
        b.subsort(a, a);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn lubs_and_glbs_on_diamond() {
        let (p, top, left, right, bot) = diamond();
        assert_eq!(p.lubs(left, right), vec![top]);
        assert_eq!(p.glbs(left, right), vec![bot]);
        assert_eq!(p.lubs(bot, left), vec![left]);
        assert_eq!(p.glbs(top, right), vec![right]);
    }

    #[test]
    fn least_of_sets() {
        let (p, top, left, _right, bot) = diamond();
        assert_eq!(p.least(&[top, left, bot]), Some(bot));
        let (p2, _, l2, r2, _) = diamond();
        assert_eq!(p2.least(&[l2, r2]), None);
        assert_eq!(p.least(&[left]), Some(left));
    }

    #[test]
    fn components_are_detected() {
        let mut b = SortPosetBuilder::new();
        let a = b.sort("A");
        let c = b.sort("B");
        let d = b.sort("C");
        b.subsort(a, c);
        let p = b.finish().unwrap();
        assert_eq!(p.n_components(), 2);
        assert!(p.same_component(a, c));
        assert!(!p.same_component(a, d));
    }

    #[test]
    fn leq_seq_componentwise() {
        let (p, top, left, right, bot) = diamond();
        assert!(p.leq_seq(&[bot, left], &[left, top]));
        assert!(!p.leq_seq(&[left], &[right]));
        assert!(!p.leq_seq(&[left, left], &[top]));
        assert!(p.leq_seq(&[], &[]));
    }

    #[test]
    fn diamond_is_locally_filtered() {
        let (p, ..) = diamond();
        assert!(p.is_locally_filtered());
    }

    #[test]
    fn double_diamond_is_not_locally_filtered() {
        // bot below both left and right; left,right below BOTH t1 and t2:
        // lubs(left,right) = {t1, t2} — not filtered.
        let mut b = SortPosetBuilder::new();
        let t1 = b.sort("T1");
        let t2 = b.sort("T2");
        let l = b.sort("L");
        let r = b.sort("R");
        let bot = b.sort("Bot");
        b.subsort(l, t1);
        b.subsort(l, t2);
        b.subsort(r, t1);
        b.subsort(r, t2);
        b.subsort(bot, l);
        b.subsort(bot, r);
        let p = b.finish().unwrap();
        assert!(!p.is_locally_filtered());
        assert_eq!(p.lubs(l, r).len(), 2);
    }

    #[test]
    fn bounds_include_self() {
        let (p, top, _left, _right, bot) = diamond();
        assert!(p.upper_bounds(bot).contains(&bot));
        assert!(p.upper_bounds(bot).contains(&top));
        assert_eq!(p.upper_bounds(top), vec![top]);
        assert_eq!(p.lower_bounds(bot), vec![bot]);
    }
}
