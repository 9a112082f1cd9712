//! Tableau-based satisfiability and subsumption for ALCQ with general
//! TBoxes.
//!
//! The calculus is the standard one: completion trees whose nodes carry
//! concept labels, expansion rules for ⊓, ⊔, ∃, ∀, ≥, ≤ (with the
//! *choose* rule and sibling merging for qualified number
//! restrictions), GCIs internalized as universal constraints added to
//! every node, and **equality blocking** (a non-root node is blocked
//! when some ancestor carries exactly the same label — sound for ALCQ
//! without inverse roles).
//!
//! Two engines explore the nondeterminism (⊔, choose, merge) over the
//! *identical* search tree:
//!
//! * the **agenda/trail kernel** (`kernel` module, the default):
//!   dirty-node scheduling for the deterministic rules, incremental
//!   clash detection, and a choice-point trail that undoes label
//!   insertions, node spawns, and merges on backtrack;
//! * the **reference engine** ([`Tableau::expand_reference`], selected
//!   per reasoner with [`Tableau::with_reference_kernel`]): re-scans
//!   every node each round and clones the completion state per
//!   alternative — slower, deliberately simple, and kept as the
//!   differential-testing oracle (mirroring what
//!   `classify_brute_force_governed` is to
//!   [`Classify`](crate::classify::Classify)).
//!
//! Every check runs under one [`Meter`]: a `_metered` core charges the
//! caller's meter, and one `_governed` entry point per check
//! ([`Tableau::is_satisfiable_governed`], [`Tableau::subsumes_governed`],
//! [`Tableau::is_consistent_governed`], [`Tableau::is_instance_governed`])
//! runs it under a [`Budget`]. Each spawned node charges one memory
//! unit and none is ever released, so a node cap is a memory wall:
//! under `Budget::new().with_memory(n)` a search that spawns node
//! `n + 1` ends `Exhausted { reason: Memory }`.
//!
//! ABox consistency treats named individuals as root nodes under the
//! unique-name assumption.

use crate::abox::ABox;
use crate::cache::{tbox_fingerprint, SatCache};
use crate::concept::{CNode, Concept, ConceptRef, Interner, RoleId, Vocabulary};
use crate::fxhash::FxHashMap;
use crate::tbox::TBox;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use summa_guard::{Budget, Governed, Interrupt, Meter};

/// Observational counter: complete single-label traversals (clash
/// scans, deterministic-rule scans, branch scans). Both engines emit
/// it, so the tableau bench can show the agenda kernel doing strictly
/// less scanning for the same search tree. Deliberately *outside* the
/// `dl.rule.*` family: it is not a charged rule application.
pub(crate) const LABEL_SCANS: &str = "dl.tableau.label_scans";

/// Lift a metered result into a [`Governed`] outcome (boolean queries
/// have no partial answer).
fn governed_outcome<T>(r: std::result::Result<T, Interrupt>) -> Governed<T> {
    match r {
        Ok(v) => Governed::Completed(v),
        Err(i) => Governed::from_interrupt(i, None),
    }
}

/// A tableau reasoner bound to one TBox.
///
/// All concept manipulation inside the reasoner runs on hash-consed
/// [`ConceptRef`] handles from a reasoner-local [`Interner`]: node
/// labels are sets of `u32` handles, equality blocking compares word
/// sets, rule dispatch matches on the arena node, and the local
/// satisfiability memo keys on a single handle — no deep-tree hashing
/// or `Box`/`Vec` cloning anywhere in the expansion loop. Trees are
/// rebuilt (`externalize`) only at the shared-cache boundary, because
/// handles are interner-local while the [`SatCache`] is shared across
/// reasoners with different interning histories.
#[derive(Debug, Clone)]
pub struct Tableau {
    /// Hash-consing arena all handles below point into.
    pub(crate) interner: Interner,
    /// Universal constraints: internalized GCIs in NNF (only those not
    /// absorbed below).
    pub(crate) universal: Vec<ConceptRef>,
    /// Absorbed axioms `A ⊑ C`: applied lazily when the atom `A`
    /// appears in a node label (the standard absorption optimization —
    /// sound and complete, and avoids one disjunction per GCI per
    /// node).
    pub(crate) absorbed: BTreeMap<crate::concept::ConceptId, Vec<ConceptRef>>,
    /// Run the pre-overhaul clone-per-disjunct engine
    /// ([`Tableau::expand_reference`]) instead of the agenda/trail
    /// kernel. Both walk the identical search tree with identical
    /// charges, so the switch trades speed, never answers. Off unless
    /// [`Tableau::with_reference_kernel`] turns it on.
    use_reference: bool,
    /// Memoized satisfiability results keyed by the handle of the NNF
    /// input concept.
    cache: FxHashMap<ConceptRef, bool>,
    /// Optional cross-reasoner cache shared with sibling workers; only
    /// completed answers are published, so sharing never changes any
    /// result.
    shared: Option<Arc<SatCache>>,
    /// Normalized-TBox fingerprint keying this reasoner's entries in
    /// the shared cache.
    fingerprint: u64,
    /// Interner hits already flowed into the `dl.intern.hits` counter
    /// (the counter reports deltas at each sat-call boundary).
    intern_hits_reported: u64,
}

/// Sort a label buffer into structural order. This is the single
/// sorting code path in the reasoner: [`State::add_node`] seeds the
/// per-node cache through it, and [`State::insert_label`] maintains
/// the cache by binary insertion against the same comparator — no
/// rule scan re-sorts anything.
pub(crate) fn sort_structural(it: &Interner, buf: &mut [ConceptRef]) {
    buf.sort_by(|&a, &b| it.cmp_structural(a, b));
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Node {
    pub(crate) label: BTreeSet<ConceptRef>,
    /// The label in *structural* order ([`Interner::cmp_structural`]),
    /// maintained incrementally on insert. Rule scans read this cache
    /// instead of re-collecting and re-sorting the set every round.
    pub(crate) sorted: Vec<ConceptRef>,
    /// Outgoing edges: (role, child index). Multiple edges to the same
    /// child are allowed after merges.
    pub(crate) edges: Vec<(RoleId, usize)>,
    /// Parent index; `None` for root/ABox nodes (never blocked).
    pub(crate) parent: Option<usize>,
    /// Merged-away nodes are dead.
    pub(crate) alive: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct State {
    pub(crate) nodes: Vec<Node>,
    /// Pairs of node ids asserted pairwise-distinct (from ≥-rules and
    /// the unique-name assumption on ABox individuals).
    pub(crate) distinct: BTreeSet<(usize, usize)>,
}

/// Everything needed to reverse a [`State::merge`]: the trail kernel
/// undoes merges from this record instead of cloning states (the
/// reference engine drops it).
#[derive(Debug)]
pub(crate) struct MergeUndo {
    pub(crate) a: usize,
    pub(crate) b: usize,
    /// Labels newly added to `a` (present in `b`, absent from `a`).
    pub(crate) added: Vec<ConceptRef>,
    /// `a.edges` length before `b`'s edges were appended.
    pub(crate) a_edges_len: usize,
    /// `b`'s pristine edge list (moved out before rewiring).
    pub(crate) b_edges: Vec<(RoleId, usize)>,
    /// Edge slots rewired `b → a`: (node, edge index).
    pub(crate) rewired: Vec<(usize, usize)>,
    /// Distinct pairs newly inserted by the transfer.
    pub(crate) distinct_added: Vec<(usize, usize)>,
}

impl State {
    pub(crate) fn new() -> Self {
        State {
            nodes: vec![],
            distinct: BTreeSet::new(),
        }
    }

    pub(crate) fn add_node(
        &mut self,
        label: BTreeSet<ConceptRef>,
        parent: Option<usize>,
        it: &Interner,
    ) -> usize {
        let mut sorted: Vec<ConceptRef> = label.iter().copied().collect();
        sort_structural(it, &mut sorted);
        self.nodes.push(Node {
            label,
            sorted,
            edges: vec![],
            parent,
            alive: true,
        });
        self.nodes.len() - 1
    }

    /// Insert `c` into `x`'s label, keeping the sorted cache in sync.
    /// Returns whether the label actually grew.
    pub(crate) fn insert_label(&mut self, x: usize, c: ConceptRef, it: &Interner) -> bool {
        let node = &mut self.nodes[x];
        if !node.label.insert(c) {
            return false;
        }
        let pos = node
            .sorted
            .binary_search_by(|&p| it.cmp_structural(p, c))
            .unwrap_err();
        node.sorted.insert(pos, c);
        true
    }

    /// Remove `c` from `x`'s label (trail undo only — expansion never
    /// shrinks labels).
    pub(crate) fn remove_label(&mut self, x: usize, c: ConceptRef, it: &Interner) {
        let node = &mut self.nodes[x];
        let removed = node.label.remove(&c);
        debug_assert!(removed, "trail undo removed an absent label");
        match node.sorted.binary_search_by(|&p| it.cmp_structural(p, c)) {
            Ok(pos) => {
                node.sorted.remove(pos);
            }
            Err(_) => debug_assert!(false, "sorted cache out of sync with label set"),
        }
    }

    /// Returns whether the pair was newly inserted.
    pub(crate) fn mark_distinct(&mut self, a: usize, b: usize) -> bool {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.distinct.insert((lo, hi))
    }

    pub(crate) fn are_distinct(&self, a: usize, b: usize) -> bool {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.distinct.contains(&(lo, hi))
    }

    /// r-successors (alive) of node `x`.
    pub(crate) fn successors(&self, x: usize, r: RoleId) -> Vec<usize> {
        let mut out: Vec<usize> = self.nodes[x]
            .edges
            .iter()
            .filter(|(er, c)| *er == r && self.nodes[*c].alive)
            .map(|(_, c)| *c)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// ≤n r.C clash at `x` for one restriction: more than n
    /// pairwise-distinct r-successors containing C. Shared by the full
    /// label scan below and the kernel's incremental delta checks.
    pub(crate) fn atmost_clashes(&self, x: usize, n: u32, r: RoleId, cc: ConceptRef) -> bool {
        let with_c: Vec<usize> = self
            .successors(x, r)
            .into_iter()
            .filter(|&y| self.nodes[y].label.contains(&cc))
            .collect();
        if with_c.len() <= n as usize {
            return false;
        }
        // clash only if no two of them are mergeable
        with_c
            .iter()
            .enumerate()
            .all(|(i, &a)| with_c[i + 1..].iter().all(|&b| self.are_distinct(a, b)))
    }

    /// Does the label of `x` directly clash?
    pub(crate) fn has_clash(&self, x: usize, it: &Interner) -> bool {
        let l = &self.nodes[x].label;
        if l.contains(&it.bottom()) {
            return true;
        }
        for &c in l {
            match it.node(c) {
                CNode::Not(inner) if l.contains(inner) => {
                    return true;
                }
                CNode::AtMost(n, r, cc) if self.atmost_clashes(x, *n, *r, *cc) => {
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// Equality blocking: `x` is blocked when some strict ancestor has
    /// an identical label.
    pub(crate) fn is_blocked(&self, x: usize) -> bool {
        let mut cur = self.nodes[x].parent;
        while let Some(a) = cur {
            if self.nodes[a].label == self.nodes[x].label {
                return true;
            }
            cur = self.nodes[a].parent;
        }
        false
    }

    /// Merge node `b` into node `a` (siblings under the ≤-rule): union
    /// labels, move edges, rewire incoming edges, kill `b`. Returns the
    /// record that [`State::undo_merge`] reverses exactly.
    pub(crate) fn merge(&mut self, a: usize, b: usize, it: &Interner) -> MergeUndo {
        let blabel: Vec<ConceptRef> = self.nodes[b].label.iter().copied().collect();
        let mut added = Vec::new();
        for c in blabel {
            if self.insert_label(a, c, it) {
                added.push(c);
            }
        }
        let a_edges_len = self.nodes[a].edges.len();
        let b_edges = std::mem::take(&mut self.nodes[b].edges);
        self.nodes[a].edges.extend(b_edges.iter().copied());
        self.nodes[b].alive = false;
        // Rewire incoming edges from any node to b → a.
        let mut rewired = Vec::new();
        for (i, n) in self.nodes.iter_mut().enumerate() {
            for (j, e) in n.edges.iter_mut().enumerate() {
                if e.1 == b {
                    e.1 = a;
                    rewired.push((i, j));
                }
            }
        }
        // Distinctness constraints transfer.
        let moved: Vec<(usize, usize)> = self
            .distinct
            .iter()
            .filter(|&&(x, y)| x == b || y == b)
            .copied()
            .collect();
        let mut distinct_added = Vec::new();
        for (x, y) in moved {
            let other = if x == b { y } else { x };
            if other != a && self.mark_distinct(a, other) {
                let (lo, hi) = if a < other { (a, other) } else { (other, a) };
                distinct_added.push((lo, hi));
            }
        }
        MergeUndo {
            a,
            b,
            added,
            a_edges_len,
            b_edges,
            rewired,
            distinct_added,
        }
    }

    /// Reverse a [`State::merge`]. Sound only in LIFO trail order:
    /// every operation recorded after the merge must already be
    /// undone, so the recorded edge slots still address what the merge
    /// rewired.
    pub(crate) fn undo_merge(&mut self, u: MergeUndo, it: &Interner) {
        for (i, j) in u.rewired {
            self.nodes[i].edges[j].1 = u.b;
        }
        for pair in u.distinct_added {
            self.distinct.remove(&pair);
        }
        self.nodes[u.a].edges.truncate(u.a_edges_len);
        self.nodes[u.b].edges = u.b_edges;
        self.nodes[u.b].alive = true;
        for c in u.added {
            self.remove_label(u.a, c, it);
        }
    }
}

/// Result of one rule-application search step.
pub(crate) enum Outcome {
    Satisfiable,
    Clash,
}

/// One alternative of the first applicable nondeterministic rule, as
/// data: the reference engine materializes it by cloning the state,
/// the trail kernel applies it in place and undoes it on backtrack.
/// Both consume the same [`Tableau::find_branch`] output, so they
/// cannot disagree on what the alternatives *are*.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Alt {
    Insert { node: usize, c: ConceptRef },
    Merge { a: usize, b: usize },
}

impl Tableau {
    /// A reasoner for `tbox`. The vocabulary is accepted for symmetry
    /// with other constructors (names are already interned into ids).
    pub fn new(tbox: &TBox, _voc: &Vocabulary) -> Self {
        let mut interner = Interner::new();
        let mut universal = vec![];
        let mut absorbed: BTreeMap<crate::concept::ConceptId, Vec<ConceptRef>> = BTreeMap::new();
        for (l, r) in tbox.gcis() {
            match l {
                Concept::Atom(a) => {
                    let h = interner.intern(&r);
                    let n = interner.nnf(h);
                    absorbed.entry(a).or_default().push(n);
                }
                _ => {
                    let g = Concept::or(vec![Concept::not(l), r]);
                    let h = interner.intern(&g);
                    let n = interner.nnf(h);
                    universal.push(n);
                }
            }
        }
        Tableau {
            interner,
            universal,
            absorbed,
            use_reference: false,
            cache: FxHashMap::default(),
            shared: None,
            fingerprint: tbox_fingerprint(tbox),
            intern_hits_reported: 0,
        }
    }

    /// A reasoner with the absorption optimization disabled: every GCI
    /// — atomic-LHS or not — is internalized as a universal disjunction
    /// added to every node. Semantically equivalent to [`Tableau::new`]
    /// but exponentially slower on axiom-rich TBoxes; kept for the
    /// ablation benchmark (`ablation_absorption`).
    pub fn new_without_absorption(tbox: &TBox, _voc: &Vocabulary) -> Self {
        let mut interner = Interner::new();
        let universal = tbox
            .universal_constraints()
            .iter()
            .map(|c| {
                let h = interner.intern(c);
                interner.nnf(h)
            })
            .collect();
        Tableau {
            interner,
            universal,
            absorbed: BTreeMap::new(),
            use_reference: false,
            cache: FxHashMap::default(),
            shared: None,
            fingerprint: tbox_fingerprint(tbox),
            intern_hits_reported: 0,
        }
    }

    /// The reasoner's hash-consing arena (read-only; exposed for
    /// diagnostics and tests).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Pick the expansion engine: `true` pins the reference clone-based
    /// engine, `false` (the default) the agenda/trail kernel. The
    /// differential suite drives both sides through this switch.
    pub fn with_reference_kernel(mut self, reference: bool) -> Self {
        self.use_reference = reference;
        self
    }

    /// Which engine this reasoner dispatches to (`true` = reference).
    pub fn uses_reference_kernel(&self) -> bool {
        self.use_reference
    }

    /// Attach a cross-reasoner [`SatCache`]: completed answers are
    /// published to (and looked up from) the shared map keyed by this
    /// reasoner's TBox fingerprint. See the `cache` module for why
    /// sharing is answer-preserving.
    pub fn with_shared_cache(mut self, cache: Arc<SatCache>) -> Self {
        self.shared = Some(cache);
        self
    }

    /// Is `c` satisfiable w.r.t. the TBox? Runs under `budget` and
    /// reports exhaustion/cancellation instead of erroring or hanging.
    /// A boolean query has no meaningful partial answer, so the
    /// non-completed outcomes carry `partial: None`.
    pub fn is_satisfiable_governed(&mut self, c: &Concept, budget: &Budget) -> Governed<bool> {
        let mut meter = budget.meter();
        let r = self.sat_metered(c, &mut meter);
        governed_outcome(r)
    }

    /// Metered satisfiability for composite services (classification,
    /// realization) that share one [`Meter`] across many inner calls.
    pub fn sat_metered(
        &mut self,
        c: &Concept,
        meter: &mut Meter,
    ) -> std::result::Result<bool, Interrupt> {
        let h = self.interner.intern(c);
        let nnf = self.interner.nnf(h);
        if let Some(&r) = self.cache.get(&nnf) {
            self.note_intern_hits(meter);
            return Ok(r);
        }
        // The shared cache is keyed by the externalized (canonical)
        // tree, not the handle: handles are interner-local, and sibling
        // workers intern in different orders. Externalizing once per
        // *uncached* sat call is noise next to the search it fronts.
        let shared = self.shared.clone();
        let mut ext_key: Option<Concept> = None;
        if let Some(sc) = &shared {
            let key = self.interner.externalize(nnf);
            match sc.get(self.fingerprint, &key) {
                Some(r) => {
                    meter.note_cache_hit();
                    self.cache.insert(nnf, r);
                    self.note_intern_hits(meter);
                    return Ok(r);
                }
                None => {
                    meter.note_cache_miss();
                    ext_key = Some(key);
                }
            }
        }
        // Span covers the actual search only — cached answers return
        // above without opening one, so a flamegraph shows real work.
        let mut span = meter.span("dl.sat");
        let mut st = State::new();
        let mut label: BTreeSet<ConceptRef> = BTreeSet::new();
        label.insert(nnf);
        label.extend(self.universal.iter().copied());
        st.add_node(label, None, &self.interner);
        let sat = matches!(self.expand(st, meter)?, Outcome::Satisfiable);
        span.record("sat", sat);
        // Only completed searches are memoized: a budget-interrupted
        // run has no answer to cache (and never reaches this line).
        if let Some(sc) = &shared {
            let key = ext_key.take().expect("externalized at lookup");
            // Chaos-injection site: a scheduled `poison` fault writes a
            // corrupted entry (flipped answer, stale checksum) so the
            // cache's integrity check can be exercised end to end. The
            // answer *returned* from this call stays correct either
            // way; only the stored copy is damaged.
            if matches!(
                meter.fault_point("dl.cache.insert"),
                Ok(Some(summa_guard::FaultKind::Poison))
            ) {
                sc.insert_poisoned(self.fingerprint, key, sat);
            } else {
                sc.insert(self.fingerprint, key, sat);
            }
        }
        self.cache.insert(nnf, sat);
        self.note_intern_hits(meter);
        Ok(sat)
    }

    /// Interner hits not yet flowed into the `dl.intern.hits` counter;
    /// returns the delta and marks it reported. Composite services
    /// (e.g. the parallel classifier's worker-drain hook) call this to
    /// harvest hits accumulated outside any sat-call boundary.
    pub fn drain_intern_hits(&mut self) -> u64 {
        let now = self.interner.hits();
        let delta = now - self.intern_hits_reported;
        self.intern_hits_reported = now;
        delta
    }

    /// Flow newly accumulated interner hits into the `dl.intern.hits`
    /// counter as a delta (observational only — hash-cons reuse is not
    /// ledger work, so nothing is charged).
    fn note_intern_hits(&mut self, meter: &Meter) {
        let delta = self.drain_intern_hits();
        if delta > 0 {
            meter.count("dl.intern.hits", delta);
        }
    }

    /// Does `sup` subsume `sub` w.r.t. the TBox (`sub ⊑ sup`)?
    pub fn subsumes_governed(
        &mut self,
        sup: &Concept,
        sub: &Concept,
        budget: &Budget,
    ) -> Governed<bool> {
        let query = Concept::and(vec![sub.clone(), Concept::not(sup.clone())]);
        self.is_satisfiable_governed(&query, budget).map(|sat| !sat)
    }

    /// ABox consistency under the unique-name assumption.
    pub fn is_consistent_governed(&mut self, abox: &ABox, budget: &Budget) -> Governed<bool> {
        let mut meter = budget.meter();
        let r = self.consistent_metered_with(abox, None, &mut meter);
        governed_outcome(r)
    }

    /// ABox consistency with an optional *scratch assertion*: one
    /// extra `C(a)` pushed into `a`'s root label after the real
    /// assertions. Labels are sets, so this lands in exactly the state
    /// a cloned-and-extended ABox would produce — minus the clone of
    /// every assertion tree, which instance checks used to pay per
    /// call (realization makes |individuals| × |atoms| of them).
    fn consistent_metered_with(
        &mut self,
        abox: &ABox,
        scratch: Option<(crate::abox::Individual, ConceptRef)>,
        meter: &mut Meter,
    ) -> std::result::Result<bool, Interrupt> {
        let mut st = State::new();
        let mut index: BTreeMap<u32, usize> = BTreeMap::new();
        for ind in abox.individuals() {
            let mut label: BTreeSet<ConceptRef> = BTreeSet::new();
            label.extend(self.universal.iter().copied());
            let id = st.add_node(label, None, &self.interner);
            index.insert(ind.0, id);
        }
        // UNA: all named individuals pairwise distinct.
        let ids: Vec<usize> = index.values().copied().collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                st.mark_distinct(a, b);
            }
        }
        for (ind, c) in abox.concept_assertions() {
            let id = index[&ind.0];
            let h = self.interner.intern(c);
            let n = self.interner.nnf(h);
            st.insert_label(id, n, &self.interner);
        }
        if let Some((ind, n)) = scratch {
            let id = index[&ind.0];
            st.insert_label(id, n, &self.interner);
        }
        for (a, r, b) in abox.role_assertions() {
            let (ia, ib) = (index[&a.0], index[&b.0]);
            st.nodes[ia].edges.push((*r, ib));
        }
        let mut span = meter.span("dl.consistent");
        let consistent = matches!(self.expand(st, meter)?, Outcome::Satisfiable);
        span.record("consistent", consistent);
        Ok(consistent)
    }

    /// The NNF of `¬c`, interned: the scratch assertion an instance
    /// check adds to the tested individual's root label.
    fn scratch_negation(&mut self, c: &Concept) -> ConceptRef {
        let h = self.interner.intern(c);
        self.interner.neg_nnf(h)
    }

    /// Instance check: does the ABox entail `c(a)`?
    pub fn is_instance_governed(
        &mut self,
        abox: &ABox,
        a: crate::abox::Individual,
        c: &Concept,
        budget: &Budget,
    ) -> Governed<bool> {
        let mut meter = budget.meter();
        let r = self.instance_metered(abox, a, c, &mut meter);
        governed_outcome(r)
    }

    /// Metered instance check, for services sharing one [`Meter`]
    /// (realization's inner loop).
    ///
    /// `KB ⊨ C(a)` iff `KB ∪ {¬C(a)}` is inconsistent — decided by a
    /// borrow-based scratch assertion around the consistency check,
    /// not by cloning the whole ABox per call.
    pub fn instance_metered(
        &mut self,
        abox: &ABox,
        a: crate::abox::Individual,
        c: &Concept,
        meter: &mut Meter,
    ) -> std::result::Result<bool, Interrupt> {
        let neg = self.scratch_negation(c);
        self.consistent_metered_with(abox, Some((a, neg)), meter)
            .map(|consistent| !consistent)
    }

    // ------------------------------------------------------------------
    // The expansion loop.
    // ------------------------------------------------------------------

    /// Dispatch one satisfiability search to the configured engine.
    /// Both visit the same search tree in the same order with the same
    /// charges, so everything observable — answers, `Spend`, partial
    /// results under starved budgets — is engine-independent.
    pub(crate) fn expand(
        &mut self,
        st: State,
        meter: &mut Meter,
    ) -> std::result::Result<Outcome, Interrupt> {
        if self.use_reference {
            self.expand_reference(st, meter)
        } else {
            self.expand_kernel(st, meter)
        }
    }

    /// The reference engine: iterative depth-first search over cloned
    /// completion states (explicit stack, so deeply nested
    /// nondeterminism cannot overflow the call stack). Every round
    /// re-scans every node and every pop re-runs clash detection over
    /// the whole state — the agenda/trail kernel exists to shed
    /// exactly that work, and this engine stays as its oracle.
    ///
    /// `meter` is the caller's governance envelope, charged one step
    /// per search state popped, per rule application, and per node
    /// created (plus one memory unit per node).
    pub(crate) fn expand_reference(
        &mut self,
        st: State,
        meter: &mut Meter,
    ) -> std::result::Result<Outcome, Interrupt> {
        let mut stack: Vec<State> = vec![st];
        'states: while let Some(mut st) = stack.pop() {
            // Every `charge` in the expansion machinery has a matching
            // `count` under a `dl.rule.*` name, so the counter totals
            // reconcile exactly with the steps on the ledger (proved by
            // the workspace's integration_obs property test).
            meter.charge(1)?;
            meter.count("dl.rule.search", 1);
            // Deterministic rules to fixpoint, abandoning on clash.
            loop {
                let mut clash = false;
                for x in 0..st.nodes.len() {
                    if !st.nodes[x].alive {
                        continue;
                    }
                    meter.count(LABEL_SCANS, 1);
                    if st.has_clash(x, &self.interner) {
                        clash = true;
                        break;
                    }
                }
                if clash {
                    continue 'states;
                }
                if !self.apply_deterministic(&mut st, meter)? {
                    break;
                }
            }
            // Nondeterministic rules: push every alternative.
            match self.branch_alternatives(&st, meter) {
                Some(alts) => {
                    // All alternatives clash-free so far; explore each.
                    stack.extend(alts);
                }
                // Nothing applicable and clash-free: complete.
                None => return Ok(Outcome::Satisfiable),
            }
        }
        Ok(Outcome::Clash)
    }

    /// Apply one round of deterministic rules. Returns `true` when
    /// anything changed.
    fn apply_deterministic(
        &self,
        st: &mut State,
        meter: &mut Meter,
    ) -> std::result::Result<bool, Interrupt> {
        meter.charge(1)?;
        meter.count("dl.rule.round", 1);
        let n = st.nodes.len();
        for x in 0..n {
            if !st.nodes[x].alive {
                continue;
            }
            // Scan the label in *structural* order, not handle order:
            // rule priority (absorption/⊓ before ⊔ before ∃/∀ before
            // counting rules) falls out of `Concept`'s variant order,
            // and the search tree this induces is what the blocking
            // condition and the node caps were tuned against. The
            // structural order is also interner-independent, so
            // sibling workers with different interning histories walk
            // identical search trees. The node carries its label
            // pre-sorted (`Node::sorted`, maintained by
            // `State::insert_label`); index iteration is safe because
            // every mutating arm returns immediately.
            meter.count(LABEL_SCANS, 1);
            for i in 0..st.nodes[x].sorted.len() {
                let c = st.nodes[x].sorted[i];
                match self.interner.node(c) {
                    // absorption: A ∈ L(x) with A ⊑ C absorbed → add C
                    CNode::Atom(a) => {
                        if let Some(rhss) = self.absorbed.get(a) {
                            let mut changed = false;
                            for &rhs in rhss {
                                changed |= st.insert_label(x, rhs, &self.interner);
                            }
                            if changed {
                                return Ok(true);
                            }
                        }
                    }
                    // ⊓-rule
                    CNode::And(parts) => {
                        let mut changed = false;
                        for &p in parts.iter() {
                            changed |= st.insert_label(x, p, &self.interner);
                        }
                        if changed {
                            return Ok(true);
                        }
                    }
                    // ∀-rule
                    CNode::Forall(r, d) => {
                        let (r, d) = (*r, *d);
                        for y in st.successors(x, r) {
                            if st.insert_label(y, d, &self.interner) {
                                return Ok(true);
                            }
                        }
                    }
                    // ∃-rule (blocked nodes do not generate)
                    CNode::Exists(r, d) => {
                        let (r, d) = (*r, *d);
                        if st.is_blocked(x) {
                            continue;
                        }
                        let has = st
                            .successors(x, r)
                            .into_iter()
                            .any(|y| st.nodes[y].label.contains(&d));
                        if !has {
                            self.spawn_child(st, x, r, [d], meter, "dl.rule.exists")?;
                            return Ok(true);
                        }
                    }
                    // ≥-rule
                    CNode::AtLeast(k, r, d) => {
                        let (k, r, d) = (*k, *r, *d);
                        if st.is_blocked(x) {
                            continue;
                        }
                        let with_d: Vec<usize> = st
                            .successors(x, r)
                            .into_iter()
                            .filter(|&y| st.nodes[y].label.contains(&d))
                            .collect();
                        // Count a maximal pairwise-distinct subset
                        // conservatively: all current ones are candidates.
                        if (with_d.len() as u32) < k {
                            let mut fresh = vec![];
                            for _ in with_d.len() as u32..k {
                                let id =
                                    self.spawn_child(st, x, r, [d], meter, "dl.rule.at_least")?;
                                fresh.push(id);
                            }
                            // New witnesses pairwise distinct, and distinct
                            // from existing D-successors.
                            for (i, &a) in fresh.iter().enumerate() {
                                for &b in &fresh[i + 1..] {
                                    st.mark_distinct(a, b);
                                }
                                for &b in &with_d {
                                    st.mark_distinct(a, b);
                                }
                            }
                            return Ok(true);
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(false)
    }

    /// Spawn an `r`-successor of `x` seeded with `seed`. One step and
    /// one memory unit per node: a node cap is a memory wall.
    pub(crate) fn spawn_child(
        &self,
        st: &mut State,
        x: usize,
        r: RoleId,
        seed: impl IntoIterator<Item = ConceptRef>,
        meter: &mut Meter,
        rule: &'static str,
    ) -> std::result::Result<usize, Interrupt> {
        meter.charge(1)?;
        meter.count(rule, 1);
        meter.charge_memory(1)?;
        let mut label: BTreeSet<ConceptRef> = seed.into_iter().collect();
        label.extend(self.universal.iter().copied());
        // ∀-propagation into the new node.
        let foralls: Vec<ConceptRef> = st.nodes[x]
            .label
            .iter()
            .filter_map(|&c| match self.interner.node(c) {
                CNode::Forall(rr, d) if *rr == r => Some(*d),
                _ => None,
            })
            .collect();
        label.extend(foralls);
        let id = st.add_node(label, Some(x), &self.interner);
        st.nodes[x].edges.push((r, id));
        Ok(id)
    }

    /// Find the first applicable nondeterministic rule and return the
    /// alternatives it generates as [`Alt`] descriptors. `None` means
    /// no rule applies (the state is complete).
    ///
    /// Both engines branch through this one function: the reference
    /// engine materializes each `Alt` into a cloned `State`, the
    /// kernel replays them against a single state via the trail. One
    /// decision procedure, two execution strategies — which is what
    /// makes their search trees identical by construction.
    pub(crate) fn find_branch(&mut self, st: &State, meter: &Meter) -> Option<Vec<Alt>> {
        for x in 0..st.nodes.len() {
            if !st.nodes[x].alive {
                continue;
            }
            // Scan the label in *structural* order, not handle order:
            // rule priority (absorption/⊓ before ⊔ before ∃/∀ before
            // counting rules) falls out of `Concept`'s variant order,
            // and the search tree this induces is what the blocking
            // condition and the node caps were tuned against. The
            // structural order is also interner-independent, so
            // sibling workers with different interning histories walk
            // identical search trees. The node carries its label
            // pre-sorted (`Node::sorted`), so branching no longer
            // re-sorts anything.
            meter.count(LABEL_SCANS, 1);
            for i in 0..st.nodes[x].sorted.len() {
                let c = st.nodes[x].sorted[i];
                // ⊔-rule
                if let CNode::Or(parts) = self.interner.node(c) {
                    if parts.iter().any(|p| st.nodes[x].label.contains(p)) {
                        continue;
                    }
                    return Some(
                        parts
                            .iter()
                            .map(|&p| Alt::Insert { node: x, c: p })
                            .collect(),
                    );
                }
                // choose-rule: for ≤n r.D, every r-successor must
                // decide D vs ¬D. Copy the fields out so the arena
                // borrow ends before the (memoized, possibly
                // allocating) negation lookup below.
                let (r, d) = match self.interner.node(c) {
                    CNode::AtMost(_, r, d) => (*r, *d),
                    _ => continue,
                };
                let neg = self.interner.neg_nnf(d);
                for y in st.successors(x, r) {
                    if !st.nodes[y].label.contains(&d) && !st.nodes[y].label.contains(&neg) {
                        return Some(vec![
                            Alt::Insert { node: y, c: d },
                            Alt::Insert { node: y, c: neg },
                        ]);
                    }
                }
            }
        }
        // merge-rule: an over-full ≤ restriction with mergeable
        // successors.
        for x in 0..st.nodes.len() {
            if !st.nodes[x].alive {
                continue;
            }
            meter.count(LABEL_SCANS, 1);
            for i in 0..st.nodes[x].sorted.len() {
                let c = st.nodes[x].sorted[i];
                if let CNode::AtMost(n, r, d) = self.interner.node(c) {
                    let with_d: Vec<usize> = st
                        .successors(x, *r)
                        .into_iter()
                        .filter(|&y| st.nodes[y].label.contains(d))
                        .collect();
                    if with_d.len() > *n as usize {
                        let mut alts = vec![];
                        for (j, &a) in with_d.iter().enumerate() {
                            for &b in &with_d[j + 1..] {
                                if st.are_distinct(a, b) {
                                    continue;
                                }
                                alts.push(Alt::Merge { a, b });
                            }
                        }
                        if !alts.is_empty() {
                            return Some(alts);
                        }
                        // No mergeable pair: this is a clash, caught by
                        // has_clash in the caller's next pass.
                    }
                }
            }
        }
        None
    }

    /// Reference-engine branching: materialize each [`Alt`] from
    /// [`Tableau::find_branch`] into a full `State` clone.
    fn branch_alternatives(&mut self, st: &State, meter: &Meter) -> Option<Vec<State>> {
        let alts = self.find_branch(st, meter)?;
        let it = &self.interner;
        Some(
            alts.into_iter()
                .map(|alt| {
                    let mut st2 = st.clone();
                    match alt {
                        Alt::Insert { node, c } => {
                            st2.insert_label(node, c, it);
                        }
                        Alt::Merge { a, b } => {
                            let _ = st2.merge(a, b, it);
                        }
                    }
                    st2
                })
                .collect(),
        )
    }
}

#[cfg(test)]
pub(crate) mod capped {
    //! The checks the crate's unit tests assert on. Each runs under a
    //! 20,000-node memory wall and panics past it, so a search that
    //! stops terminating (say, a blocking regression) fails its test
    //! fast instead of expanding forever.
    use super::*;
    use crate::abox::Individual;

    fn node_cap() -> Budget {
        Budget::new().with_memory(20_000)
    }

    pub(crate) fn sat(t: &mut Tableau, c: &Concept) -> bool {
        t.is_satisfiable_governed(c, &node_cap())
            .expect_completed("within the node cap")
    }

    pub(crate) fn subsumes(t: &mut Tableau, sup: &Concept, sub: &Concept) -> bool {
        t.subsumes_governed(sup, sub, &node_cap())
            .expect_completed("within the node cap")
    }

    pub(crate) fn consistent(t: &mut Tableau, abox: &ABox) -> bool {
        t.is_consistent_governed(abox, &node_cap())
            .expect_completed("within the node cap")
    }

    pub(crate) fn instance(t: &mut Tableau, abox: &ABox, a: Individual, c: &Concept) -> bool {
        t.is_instance_governed(abox, a, c, &node_cap())
            .expect_completed("within the node cap")
    }
}

#[cfg(test)]
mod tests {
    use super::capped::{consistent, instance, sat, subsumes};
    use super::*;
    use summa_guard::ExhaustionReason;

    fn setup() -> (Vocabulary, TBox) {
        (Vocabulary::new(), TBox::new())
    }

    #[test]
    fn top_is_satisfiable_bottom_is_not() {
        let (voc, tbox) = setup();
        let mut t = Tableau::new(&tbox, &voc);
        assert!(sat(&mut t, &Concept::Top));
        assert!(!sat(&mut t, &Concept::Bottom));
    }

    #[test]
    fn contradiction_is_unsatisfiable() {
        let (mut voc, tbox) = setup();
        let a = Concept::atom(voc.concept("A"));
        let mut t = Tableau::new(&tbox, &voc);
        assert!(!sat(
            &mut t,
            &Concept::and(vec![a.clone(), Concept::not(a)])
        ));
    }

    #[test]
    fn disjunction_explores_both_branches() {
        let (mut voc, tbox) = setup();
        let a = Concept::atom(voc.concept("A"));
        let b = Concept::atom(voc.concept("B"));
        let mut t = Tableau::new(&tbox, &voc);
        // (A ⊔ B) ⊓ ¬A is satisfiable via B.
        let c = Concept::and(vec![
            Concept::or(vec![a.clone(), b.clone()]),
            Concept::not(a.clone()),
        ]);
        assert!(sat(&mut t, &c));
        // (A ⊔ A) ⊓ ¬A is not.
        let d = Concept::and(vec![
            Concept::or(vec![a.clone(), a.clone()]),
            Concept::not(a),
        ]);
        assert!(!sat(&mut t, &d));
    }

    #[test]
    fn exists_forall_interaction() {
        let (mut voc, tbox) = setup();
        let a = Concept::atom(voc.concept("A"));
        let r = voc.role("r");
        let mut t = Tableau::new(&tbox, &voc);
        // ∃r.A ⊓ ∀r.¬A is unsatisfiable.
        let c = Concept::and(vec![
            Concept::exists(r, a.clone()),
            Concept::forall(r, Concept::not(a.clone())),
        ]);
        assert!(!sat(&mut t, &c));
        // ∃r.A ⊓ ∀r.B is satisfiable.
        let b = Concept::atom(voc.concept("B"));
        let d = Concept::and(vec![Concept::exists(r, a), Concept::forall(r, b)]);
        assert!(sat(&mut t, &d));
    }

    #[test]
    fn gci_propagates_to_successors() {
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let b = Concept::atom(voc.concept("B"));
        let r = voc.role("r");
        let mut tbox = TBox::new();
        tbox.subsume(a.clone(), b.clone());
        let mut t = Tableau::new(&tbox, &voc);
        // ∃r.(A ⊓ ¬B) must be unsatisfiable under A ⊑ B.
        let c = Concept::exists(r, Concept::and(vec![a.clone(), Concept::not(b.clone())]));
        assert!(!sat(&mut t, &c));
    }

    #[test]
    fn subsumption_via_unsatisfiability() {
        let mut voc = Vocabulary::new();
        let car = Concept::atom(voc.concept("car"));
        let vehicle = Concept::atom(voc.concept("vehicle"));
        let mut tbox = TBox::new();
        tbox.subsume(car.clone(), vehicle.clone());
        let mut t = Tableau::new(&tbox, &voc);
        assert!(subsumes(&mut t, &vehicle, &car));
        assert!(!subsumes(&mut t, &car, &vehicle));
        assert!(subsumes(&mut t, &Concept::Top, &car));
        assert!(subsumes(&mut t, &car, &Concept::Bottom));
    }

    #[test]
    fn cyclic_tbox_terminates_via_blocking() {
        // A ⊑ ∃r.A : an infinite model exists; blocking must find it.
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let r = voc.role("r");
        let mut tbox = TBox::new();
        tbox.subsume(a.clone(), Concept::exists(r, a.clone()));
        let mut t = Tableau::new(&tbox, &voc);
        assert!(sat(&mut t, &a));
    }

    #[test]
    fn at_least_at_most_conflict() {
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let r = voc.role("r");
        let (voc2, tbox) = (voc.clone(), TBox::new());
        let mut t = Tableau::new(&tbox, &voc2);
        // ≥3 r.A ⊓ ≤2 r.A is unsatisfiable.
        let c = Concept::and(vec![
            Concept::at_least(3, r, a.clone()),
            Concept::at_most(2, r, a.clone()),
        ]);
        assert!(!sat(&mut t, &c));
        // ≥2 r.A ⊓ ≤2 r.A is satisfiable.
        let d = Concept::exactly(2, r, a.clone());
        assert!(sat(&mut t, &d));
    }

    #[test]
    fn merge_resolves_excess_successors() {
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let b = Concept::atom(voc.concept("B"));
        let r = voc.role("r");
        let tbox = TBox::new();
        let mut t = Tableau::new(&tbox, &voc);
        // ∃r.A ⊓ ∃r.B ⊓ ≤1 r.⊤ is satisfiable by merging the two
        // successors into one node labeled A ⊓ B.
        let c = Concept::and(vec![
            Concept::exists(r, a.clone()),
            Concept::exists(r, b.clone()),
            Concept::at_most(1, r, Concept::Top),
        ]);
        assert!(sat(&mut t, &c));
        // ...but not if A and B clash.
        let d = Concept::and(vec![
            Concept::exists(r, a.clone()),
            Concept::exists(r, Concept::not(a.clone())),
            Concept::at_most(1, r, Concept::Top),
        ]);
        assert!(!sat(&mut t, &d));
    }

    #[test]
    fn choose_rule_counts_qualified() {
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let r = voc.role("r");
        let tbox = TBox::new();
        let mut t = Tableau::new(&tbox, &voc);
        // ≥2 r.⊤ ⊓ ∀r.A ⊓ ≤1 r.A : the two successors both get A, and
        // they must merge — but they are pairwise distinct. Unsat.
        let c = Concept::and(vec![
            Concept::at_least(2, r, Concept::Top),
            Concept::forall(r, a.clone()),
            Concept::at_most(1, r, a.clone()),
        ]);
        assert!(!sat(&mut t, &c));
    }

    #[test]
    fn paper_wheels_example() {
        // roadvehicle ⊑ ∃₄has.wheel (exactly 4): a roadvehicle with 5
        // pairwise-forced wheels is inconsistent.
        let mut voc = Vocabulary::new();
        let rv = Concept::atom(voc.concept("roadvehicle"));
        let wheel = Concept::atom(voc.concept("wheel"));
        let has = voc.role("has");
        let mut tbox = TBox::new();
        tbox.subsume(rv.clone(), Concept::exactly(4, has, wheel.clone()));
        let mut t = Tableau::new(&tbox, &voc);
        assert!(sat(&mut t, &rv));
        let five = Concept::and(vec![rv.clone(), Concept::at_least(5, has, wheel.clone())]);
        assert!(!sat(&mut t, &five));
        let four = Concept::and(vec![rv, Concept::at_least(4, has, wheel)]);
        assert!(sat(&mut t, &four));
    }

    #[test]
    fn abox_consistency_and_instance_check() {
        let mut voc = Vocabulary::new();
        let man = Concept::atom(voc.concept("Man"));
        let mortal = Concept::atom(voc.concept("Mortal"));
        let mut tbox = TBox::new();
        tbox.subsume(man.clone(), mortal.clone());
        let mut t = Tableau::new(&tbox, &voc);
        let mut abox = ABox::new();
        let socrates = abox.individual("socrates");
        abox.assert_concept(socrates, man.clone());
        assert!(consistent(&mut t, &abox));
        assert!(instance(&mut t, &abox, socrates, &mortal));
        assert!(!instance(
            &mut t,
            &abox,
            socrates,
            &Concept::not(mortal.clone())
        ));
        // Assert the contradiction directly: inconsistent.
        abox.assert_concept(socrates, Concept::not(mortal));
        assert!(!consistent(&mut t, &abox));
    }

    #[test]
    fn abox_role_assertions_feed_forall() {
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let r = voc.role("r");
        let tbox = TBox::new();
        let mut t = Tableau::new(&tbox, &voc);
        let mut abox = ABox::new();
        let x = abox.individual("x");
        let y = abox.individual("y");
        abox.assert_role(x, r, y);
        abox.assert_concept(x, Concept::forall(r, a.clone()));
        abox.assert_concept(y, Concept::not(a.clone()));
        assert!(!consistent(&mut t, &abox));
    }

    #[test]
    fn incoherent_tbox_detected() {
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let mut tbox = TBox::new();
        tbox.subsume(Concept::Top, a.clone());
        tbox.subsume(Concept::Top, Concept::not(a));
        let mut t = Tableau::new(&tbox, &voc);
        assert!(!sat(&mut t, &Concept::Top));
        let mut empty = Tableau::new(&TBox::new(), &voc);
        assert!(sat(&mut empty, &Concept::Top));
    }

    #[test]
    fn budget_is_enforced() {
        // A ⊑ ≥2 r.A explodes; under a tiny memory wall (one unit per
        // spawned node) we must get an exhaustion rather than loop
        // forever. (Blocking eventually stops it, but the doubling tree
        // overflows small walls first.) Six nodes is the smallest wall
        // that decides A.
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let b = Concept::atom(voc.concept("B"));
        let r = voc.role("r");
        let mut tbox = TBox::new();
        // Alternate labels so equality blocking bites late.
        tbox.subsume(
            a.clone(),
            Concept::and(vec![
                Concept::at_least(2, r, b.clone()),
                Concept::exists(r, b.clone()),
            ]),
        );
        tbox.subsume(b.clone(), Concept::at_least(2, r, a.clone()));
        let mut t = Tableau::new(&tbox, &voc);
        assert_eq!(
            t.is_satisfiable_governed(&a, &Budget::new().with_memory(5)),
            Governed::Exhausted {
                reason: ExhaustionReason::Memory,
                partial: None
            }
        );
        let mut t = Tableau::new(&tbox, &voc);
        assert_eq!(
            t.is_satisfiable_governed(&a, &Budget::new().with_memory(6)),
            Governed::Completed(true)
        );
    }

    #[test]
    fn consistency_and_instance_checks_are_governed() {
        let mut voc = Vocabulary::new();
        let man = Concept::atom(voc.concept("Man"));
        let mortal = Concept::atom(voc.concept("Mortal"));
        let mut tbox = TBox::new();
        tbox.subsume(man.clone(), mortal.clone());
        let mut abox = ABox::new();
        let socrates = abox.individual("socrates");
        abox.assert_concept(socrates, man);
        let mut t = Tableau::new(&tbox, &voc);
        let starved = Budget::new().with_steps(1);
        let exhausted = Governed::Exhausted {
            reason: ExhaustionReason::Steps,
            partial: None,
        };
        assert_eq!(
            t.is_consistent_governed(&abox, &Budget::new()),
            Governed::Completed(true)
        );
        assert_eq!(t.is_consistent_governed(&abox, &starved), exhausted);
        assert_eq!(
            t.is_instance_governed(&abox, socrates, &mortal, &Budget::new()),
            Governed::Completed(true)
        );
        assert_eq!(
            t.is_instance_governed(&abox, socrates, &mortal, &starved),
            exhausted
        );
    }

    #[test]
    fn absorption_ablation_agrees_with_the_default() {
        // Both configurations must return the same answers; only the
        // cost differs.
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let b = Concept::atom(voc.concept("B"));
        let c = Concept::atom(voc.concept("C"));
        let r = voc.role("r");
        let mut tbox = TBox::new();
        tbox.subsume(a.clone(), b.clone());
        tbox.subsume(b.clone(), Concept::exists(r, c.clone()));
        tbox.subsume(Concept::exists(r, c.clone()), Concept::not(a.clone()));
        let mut with = Tableau::new(&tbox, &voc);
        let mut without = Tableau::new_without_absorption(&tbox, &voc);
        for query in [
            a.clone(),
            b.clone(),
            Concept::and(vec![a.clone(), b.clone()]),
            Concept::and(vec![a.clone(), Concept::not(b.clone())]),
        ] {
            assert_eq!(
                sat(&mut with, &query),
                sat(&mut without, &query),
                "configurations disagree on {query:?}"
            );
        }
    }

    #[test]
    fn cache_returns_consistent_answers() {
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let tbox = TBox::new();
        let mut t = Tableau::new(&tbox, &voc);
        assert!(sat(&mut t, &a));
        assert!(sat(&mut t, &a)); // cached
        assert!(!sat(
            &mut t,
            &Concept::and(vec![a.clone(), Concept::not(a)])
        ));
    }
}
