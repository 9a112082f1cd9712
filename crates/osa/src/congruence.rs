//! Ground congruence closure.
//!
//! Rewriting ([`crate::rewrite::RewriteSystem`]) decides ground
//! equality only when the equations orient into a confluent,
//! terminating system. Congruence closure decides ground equational
//! consequences of *arbitrary* ground equations — commutativity
//! instances, symmetric laws, anything — by the classic union-find
//! algorithm over the subterm DAG (Nelson–Oppen style, without theory
//! combination).
//!
//! This is the workhorse behind
//! [`DataDomain`](crate::theory::DataDomain)-style value reasoning when
//! the value theory is presented by unoriented ground identities.

use crate::signature::Signature;
use crate::term::Term;
use summa_guard::{Budget, Governed, Interrupt, Meter};

/// An incremental ground congruence closure.
#[derive(Debug, Clone)]
pub struct CongruenceClosure {
    signature: Signature,
    /// Interned ground terms; index = node id.
    terms: Vec<Term>,
    /// Union-find parent per node.
    parent: Vec<usize>,
    /// Direct children (as node ids) per node.
    children: Vec<Vec<usize>>,
    /// Pending merges (processed by `propagate`).
    dirty: bool,
}

impl CongruenceClosure {
    /// An empty closure over a signature.
    pub fn new(signature: Signature) -> Self {
        CongruenceClosure {
            signature,
            terms: vec![],
            parent: vec![],
            children: vec![],
            dirty: false,
        }
    }

    /// The signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Number of interned subterms.
    pub fn n_nodes(&self) -> usize {
        self.terms.len()
    }

    /// Intern a ground term and all its subterms.
    fn intern(&mut self, t: &Term) -> usize {
        assert!(t.is_ground(), "congruence closure handles ground terms");
        if let Some(i) = self.terms.iter().position(|x| x == t) {
            return i;
        }
        let child_ids: Vec<usize> = match t {
            Term::App { args, .. } => args.iter().map(|a| self.intern(a)).collect(),
            Term::Var { .. } => unreachable!("ground checked above"),
        };
        self.terms.push(t.clone());
        self.parent.push(self.terms.len() - 1);
        self.children.push(child_ids);
        self.terms.len() - 1
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]]; // path halving
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        self.dirty = true;
        true
    }

    /// Assert `a = b` (both ground) and propagate congruence.
    pub fn assert_equal(&mut self, a: &Term, b: &Term) {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.union(ia, ib);
        self.propagate();
    }

    /// Metered variant of [`CongruenceClosure::assert_equal`]. On
    /// interrupt the asserted equation is recorded but congruence
    /// propagation may be incomplete: every merge performed is a valid
    /// consequence (the closure stays sound), some consequences may be
    /// missing.
    pub fn assert_equal_metered(
        &mut self,
        a: &Term,
        b: &Term,
        meter: &mut Meter,
    ) -> std::result::Result<(), Interrupt> {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.union(ia, ib);
        self.propagate_metered(meter)
    }

    /// Congruence propagation to fixpoint: two applications of the
    /// same operator name with pairwise-equal children are merged.
    fn propagate(&mut self) {
        self.propagate_metered(&mut Meter::unlimited())
            .expect("unlimited meter never interrupts");
    }

    /// The O(n²)-per-round propagation fixpoint, charging the meter one
    /// step per candidate pair examined. Interrupting mid-round leaves
    /// a sound under-approximation of the closure (`dirty` stays set,
    /// so a later call resumes the fixpoint).
    fn propagate_metered(&mut self, meter: &mut Meter) -> std::result::Result<(), Interrupt> {
        while self.dirty {
            self.dirty = false;
            let n = self.terms.len();
            for i in 0..n {
                for j in (i + 1)..n {
                    if let Err(interrupt) = meter.charge(1) {
                        self.dirty = true;
                        return Err(interrupt);
                    }
                    if self.find(i) == self.find(j) {
                        continue;
                    }
                    let (name_i, name_j) = match (&self.terms[i], &self.terms[j]) {
                        (Term::App { op: oi, .. }, Term::App { op: oj, .. }) => (
                            self.signature.op(*oi).name.clone(),
                            self.signature.op(*oj).name.clone(),
                        ),
                        _ => continue,
                    };
                    if name_i != name_j || self.children[i].len() != self.children[j].len() {
                        continue;
                    }
                    let congruent = {
                        let ci = self.children[i].clone();
                        let cj = self.children[j].clone();
                        ci.iter()
                            .zip(cj.iter())
                            .all(|(&x, &y)| self.find(x) == self.find(y))
                    };
                    if congruent {
                        self.union(i, j);
                    }
                }
            }
        }
        Ok(())
    }

    /// Are two ground terms provably equal under the asserted
    /// identities?
    pub fn are_equal(&mut self, a: &Term, b: &Term) -> bool {
        let (ia, ib) = (self.intern(a), self.intern(b));
        // New terms may become congruent to old ones.
        self.dirty = true;
        self.propagate();
        self.find(ia) == self.find(ib)
    }

    /// Metered equality query. A `true` under partial propagation is
    /// already definitive (the closure only ever merges), so the only
    /// interrupt-sensitive answer is `false`.
    pub fn are_equal_metered(
        &mut self,
        a: &Term,
        b: &Term,
        meter: &mut Meter,
    ) -> std::result::Result<bool, Interrupt> {
        let (ia, ib) = (self.intern(a), self.intern(b));
        self.dirty = true;
        let outcome = self.propagate_metered(meter);
        if self.find(ia) == self.find(ib) {
            // Merges are monotone: once equal, always equal, even if
            // propagation was cut short.
            return Ok(true);
        }
        outcome.map(|()| false)
    }

    /// Budget-governed equality query. On exhaustion or cancellation
    /// the partial verdict is `false` meaning *not yet proved equal* —
    /// full propagation could still merge the two classes.
    pub fn are_equal_governed(&mut self, a: &Term, b: &Term, budget: &Budget) -> Governed<bool> {
        let mut meter = budget.meter();
        match self.are_equal_metered(a, b, &mut meter) {
            Ok(eq) => Governed::Completed(eq),
            Err(i) => Governed::from_interrupt(i, Some(false)),
        }
    }

    /// Budget-governed assertion. The partial `()` signals the
    /// equation was recorded but its congruence consequences are only
    /// partially propagated (sound, incomplete).
    pub fn assert_equal_governed(&mut self, a: &Term, b: &Term, budget: &Budget) -> Governed<()> {
        let mut meter = budget.meter();
        match self.assert_equal_metered(a, b, &mut meter) {
            Ok(()) => Governed::Completed(()),
            Err(i) => Governed::from_interrupt(i, Some(())),
        }
    }

    /// The number of equivalence classes among interned terms.
    pub fn n_classes(&mut self) -> usize {
        let n = self.terms.len();
        let mut roots: Vec<usize> = (0..n).map(|i| self.find(i)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    /// A canonical representative term of `t`'s class (the smallest
    /// interned member by size, ties by construction order).
    pub fn canon(&mut self, t: &Term) -> Term {
        let i = self.intern(t);
        self.dirty = true;
        self.propagate();
        let root = self.find(i);
        let mut best: Option<usize> = None;
        for j in 0..self.terms.len() {
            if self.find(j) == root {
                best = match best {
                    None => Some(j),
                    Some(b) if self.terms[j].size() < self.terms[b].size() => Some(j),
                    keep => keep,
                };
            }
        }
        self.terms[best.expect("class non-empty")].clone()
    }
}

/// Build a closure from a set of ground identities.
pub fn from_identities(signature: Signature, identities: &[(Term, Term)]) -> CongruenceClosure {
    let mut cc = CongruenceClosure::new(signature);
    for (a, b) in identities {
        cc.assert_equal(a, b);
    }
    cc
}

/// Budget-governed closure construction: one envelope bounds all
/// propagation. The partial closure on interrupt holds every identity
/// asserted so far with possibly incomplete propagation — sound for
/// `true` answers, incomplete for `false`.
pub fn from_identities_governed(
    signature: Signature,
    identities: &[(Term, Term)],
    budget: &Budget,
) -> Governed<CongruenceClosure> {
    let mut cc = CongruenceClosure::new(signature);
    let mut meter = budget.meter();
    for (a, b) in identities {
        if let Err(i) = cc.assert_equal_metered(a, b, &mut meter) {
            return Governed::from_interrupt(i, Some(cc));
        }
    }
    Governed::Completed(cc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SignatureBuilder;

    fn setup() -> (Signature, Term, Term, Term, crate::signature::OpId) {
        let mut b = SignatureBuilder::new();
        let s = b.sort("S");
        let a = b.op("a", &[], s);
        let b_ = b.op("b", &[], s);
        let c = b.op("c", &[], s);
        let f = b.op("f", &[s], s);
        let sig = b.finish().expect("ok");
        (
            sig,
            Term::constant(a),
            Term::constant(b_),
            Term::constant(c),
            f,
        )
    }

    #[test]
    fn reflexive_symmetric_transitive() {
        let (sig, a, b, c, _f) = setup();
        let mut cc = CongruenceClosure::new(sig);
        assert!(cc.are_equal(&a, &a));
        cc.assert_equal(&a, &b);
        assert!(cc.are_equal(&b, &a)); // symmetry
        cc.assert_equal(&b, &c);
        assert!(cc.are_equal(&a, &c)); // transitivity
    }

    #[test]
    fn congruence_propagates_through_applications() {
        let (sig, a, b, _c, f) = setup();
        let mut cc = CongruenceClosure::new(sig);
        cc.assert_equal(&a, &b);
        // f(a) = f(b) by congruence, without ever asserting it.
        let fa = Term::app(f, vec![a.clone()]);
        let fb = Term::app(f, vec![b.clone()]);
        assert!(cc.are_equal(&fa, &fb));
        // And nested: f(f(a)) = f(f(b)).
        let ffa = Term::app(f, vec![fa]);
        let ffb = Term::app(f, vec![fb]);
        assert!(cc.are_equal(&ffa, &ffb));
    }

    #[test]
    fn upward_merging_from_child_equalities() {
        // Classic: f(a) = a and f(f(a)) queried — equal by two steps.
        let (sig, a, _b, _c, f) = setup();
        let mut cc = CongruenceClosure::new(sig);
        let fa = Term::app(f, vec![a.clone()]);
        cc.assert_equal(&fa, &a);
        let ffa = Term::app(f, vec![fa.clone()]);
        assert!(cc.are_equal(&ffa, &a));
        let fffa = Term::app(f, vec![ffa]);
        assert!(cc.are_equal(&fffa, &a));
    }

    #[test]
    fn distinct_terms_stay_distinct() {
        let (sig, a, b, c, f) = setup();
        let mut cc = CongruenceClosure::new(sig);
        cc.assert_equal(&a, &b);
        assert!(!cc.are_equal(&a, &c));
        let fa = Term::app(f, vec![a]);
        let fc = Term::app(f, vec![c.clone()]);
        assert!(!cc.are_equal(&fa, &fc));
        assert!(cc.n_classes() >= 2);
    }

    #[test]
    fn handles_unorientable_identities() {
        // Commutativity instance: g(a,b) = g(b,a) — unorientable as a
        // rewrite rule family, trivial for congruence closure.
        let mut bld = SignatureBuilder::new();
        let s = bld.sort("S");
        let a = bld.op("a", &[], s);
        let b = bld.op("b", &[], s);
        let g = bld.op("g", &[s, s], s);
        let f = bld.op("f", &[s], s);
        let sig = bld.finish().expect("ok");
        let (ta, tb) = (Term::constant(a), Term::constant(b));
        let gab = Term::app(g, vec![ta.clone(), tb.clone()]);
        let gba = Term::app(g, vec![tb.clone(), ta.clone()]);
        let mut cc = from_identities(sig, &[(gab.clone(), gba.clone())]);
        assert!(cc.are_equal(&gab, &gba));
        // f of equal things is equal.
        let fgab = Term::app(f, vec![gab]);
        let fgba = Term::app(f, vec![gba]);
        assert!(cc.are_equal(&fgab, &fgba));
    }

    #[test]
    fn canon_picks_smallest_representative() {
        let (sig, a, _b, _c, f) = setup();
        let mut cc = CongruenceClosure::new(sig);
        let fa = Term::app(f, vec![a.clone()]);
        cc.assert_equal(&fa, &a);
        assert_eq!(cc.canon(&fa), a);
        let ffa = Term::app(f, vec![fa]);
        assert_eq!(cc.canon(&ffa), a);
    }

    #[test]
    fn governed_queries_complete_under_generous_budget() {
        let (sig, a, b, _c, f) = setup();
        let mut cc = CongruenceClosure::new(sig);
        let g = cc.assert_equal_governed(&a, &b, &summa_guard::Budget::unlimited());
        assert!(g.is_completed());
        let fa = Term::app(f, vec![a.clone()]);
        let fb = Term::app(f, vec![b.clone()]);
        let g = cc.are_equal_governed(&fa, &fb, &summa_guard::Budget::unlimited());
        assert_eq!(g.completed(), Some(true));
    }

    #[test]
    fn governed_propagation_degrades_but_stays_sound() {
        // A deep tower f^8(a) = a forces repeated propagation rounds;
        // a one-step budget must interrupt, never panic, and the
        // partial verdict is `false` (= not yet proved).
        let (sig, a, _b, _c, f) = setup();
        let mut cc = CongruenceClosure::new(sig);
        let mut tower = a.clone();
        for _ in 0..8 {
            tower = Term::app(f, vec![tower]);
        }
        cc.assert_equal(&Term::app(f, vec![a.clone()]), &a);
        let g = cc.are_equal_governed(&tower, &a, &summa_guard::Budget::new().with_steps(1));
        match g {
            summa_guard::Governed::Completed(true) => {} // already merged
            summa_guard::Governed::Exhausted { partial, .. } => {
                assert_eq!(partial, Some(false));
            }
            other => panic!("unexpected outcome: {}", other.status()),
        }
        // An unbudgeted retry finishes the fixpoint and proves equality.
        assert!(cc.are_equal(&tower, &a));
    }

    #[test]
    fn governed_construction_interrupts_mid_identity_list() {
        let (sig, a, b, c, f) = setup();
        let fa = Term::app(f, vec![a.clone()]);
        let identities = vec![(fa.clone(), a.clone()), (b.clone(), c.clone())];
        let g = from_identities_governed(
            sig.clone(),
            &identities,
            &summa_guard::Budget::new().with_steps(1),
        );
        match g {
            summa_guard::Governed::Exhausted { partial, .. } => {
                assert!(partial.is_some());
            }
            summa_guard::Governed::Completed(mut cc) => {
                // Tiny theory might finish in one charge interval; the
                // closure must then be fully correct.
                assert!(cc.are_equal(&fa, &a));
                assert!(cc.are_equal(&b, &c));
            }
            other => panic!("unexpected outcome: {}", other.status()),
        }
    }

    #[test]
    #[should_panic(expected = "ground")]
    fn non_ground_terms_are_rejected() {
        let (sig, ..) = setup();
        let s = sig.poset().by_name("S").expect("sort");
        let mut cc = CongruenceClosure::new(sig.clone());
        let x = Term::var("x", s);
        cc.assert_equal(&x, &x);
    }
}
