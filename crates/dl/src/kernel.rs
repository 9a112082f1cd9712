//! The agenda/trail expansion kernel: the default engine behind
//! [`Tableau::expand`].
//!
//! Three incremental structures replace the reference engine's
//! re-scan-the-world loop, without changing what the search *does*:
//!
//! * **Agenda** (`clean` flags): a node whose last full scan found no
//!   applicable deterministic rule is marked clean and skipped in later
//!   rounds, until something that could re-enable a rule at it happens.
//!   Label growth at `y` can only enable rules at `y` itself or —
//!   through equality blocking, which compares a node's label against
//!   its strict ancestors' — at `y`'s descendants, so an insert dirties
//!   exactly that cone (walked over the parent-pointer forest, dead
//!   intermediates included). Spawns are born dirty; merges
//!   conservatively re-dirty everything.
//! * **Incremental clash detection** (`pending` queue): instead of
//!   re-running `has_clash` over every alive node at every scan point,
//!   each mutation enqueues the checks that could newly clash — a
//!   [`ClashCheck::Delta`] for an inserted concept (⊥, complement
//!   pairs via [`Interner::probe_not`], its own ≤-restriction, and the
//!   ≤-restrictions at predecessors that mention it as filler),
//!   [`ClashCheck::AtMosts`] for distinctness marks and new edges, and
//!   a [`ClashCheck::Full`] for fresh or merged nodes. Checks evaluate
//!   against the *current* state at the same points the reference
//!   engine scans, so both see identical clash verdicts.
//! * **Trail** (`trail` + `choices`): nondeterministic alternatives
//!   mutate the single live [`State`] in place, recording inverse
//!   operations; backtracking unwinds the trail in LIFO order instead
//!   of cloning the whole completion tree per disjunct. Merges carry a
//!   [`MergeUndo`] record; everything else undoes from the op alone.
//!
//! Both engines consume the same [`Tableau::find_branch`] alternatives
//! (applied here in reversed order, matching the reference engine's
//! LIFO stack) and issue the identical `charge`/`count` sequence per
//! rule application, so answers, `Spend`, and starved-budget partial
//! results are engine-independent — the differential suite holds them
//! byte-identical.
//!
//! Two counters are purely observational (never charged, so the
//! ledger-reconciliation property subtracts them from the `dl.rule.*`
//! family): `dl.rule.agenda.skip` (clean nodes skipped per round) and
//! `dl.rule.trail.undo` (trail operations reversed per search).

use crate::concept::{CNode, ConceptRef, Interner, RoleId};
use crate::tableau::{Alt, MergeUndo, Outcome, State, Tableau, LABEL_SCANS};
use std::collections::BTreeSet;
use summa_guard::{Interrupt, Meter};

/// Observational: clean nodes the agenda skipped during rounds.
const AGENDA_SKIP: &str = "dl.rule.agenda.skip";
/// Observational: trail operations reversed while backtracking.
const TRAIL_UNDO: &str = "dl.rule.trail.undo";

/// One reversible mutation on the live [`State`].
#[derive(Debug)]
enum TrailOp {
    /// `c` was inserted into `node`'s label (it was absent before).
    Insert { node: usize, c: ConceptRef },
    /// The most recent node was spawned (its parent edge is the
    /// parent's last edge — LIFO unwinding keeps that true).
    Spawn,
    /// The pair `(lo, hi)` was newly marked distinct.
    Distinct { lo: usize, hi: usize },
    /// A sibling merge; boxed because the undo record is large.
    Merge(Box<MergeUndo>),
}

/// A clash check owed before the state may be declared clash-free.
#[derive(Debug, Clone, Copy)]
enum ClashCheck {
    /// Run the complete `has_clash` scan over one node.
    Full(usize),
    /// `c` was just inserted at `node`: check only the clash
    /// conditions that insertion can newly create.
    Delta { node: usize, c: ConceptRef },
    /// Re-evaluate every ≤-restriction in `node`'s label (its
    /// successor set or their distinctness changed).
    AtMosts(usize),
}

/// One open disjunction in the depth-first search.
#[derive(Debug)]
struct ChoicePoint {
    /// Trail length when the choice was made; unwinding to here
    /// restores the pre-branch state.
    trail_len: usize,
    /// Node count at the choice point (spawned nodes past it die on
    /// backtrack, so bookkeeping arrays truncate to this).
    n_nodes: usize,
    /// Alternatives in *exploration* order (already reversed: the
    /// reference engine pushes alternatives on a stack and pops the
    /// last one first).
    alts: Vec<Alt>,
    /// Next alternative to try.
    cursor: usize,
    /// Paranoid mode only: a full clone taken at the choice point,
    /// compared bit-for-bit after every unwind back to it.
    snapshot: Option<Box<State>>,
}

/// The mutable search context threaded through one `expand` call: the
/// live state plus the agenda, pending clash checks, trail, and the
/// derived indexes (predecessors for delta clash checks, the
/// parent-pointer children forest for dirty-cone walks).
pub(crate) struct Search {
    pub(crate) st: State,
    trail: Vec<TrailOp>,
    choices: Vec<ChoicePoint>,
    /// `clean[x]` ⇒ no deterministic rule applies at `x`.
    clean: Vec<bool>,
    pending: Vec<ClashCheck>,
    /// `preds[y]`: nodes with an edge into `y` (duplicates possible —
    /// they only cost a redundant check). Rebuilt wholesale around
    /// merges, which rewire edges arbitrarily.
    preds: Vec<Vec<usize>>,
    /// `children[x]`: nodes whose *parent pointer* is `x` (the
    /// blocking ancestry, not the edge relation).
    children: Vec<Vec<usize>>,
    undone: u64,
    paranoid: bool,
    roundtrips_ok: bool,
}

impl Search {
    pub(crate) fn new(st: State, paranoid: bool) -> Self {
        let n = st.nodes.len();
        let mut preds = vec![Vec::new(); n];
        let mut children = vec![Vec::new(); n];
        for x in 0..n {
            for &(_, y) in &st.nodes[x].edges {
                preds[y].push(x);
            }
            if let Some(p) = st.nodes[x].parent {
                children[p].push(x);
            }
        }
        // The initial state owes a full scan of every alive node —
        // exactly the reference engine's first clash pass.
        let pending = (0..n)
            .filter(|&x| st.nodes[x].alive)
            .map(ClashCheck::Full)
            .collect();
        Search {
            st,
            trail: Vec::new(),
            choices: Vec::new(),
            clean: vec![false; n],
            pending,
            preds,
            children,
            undone: 0,
            paranoid,
            roundtrips_ok: true,
        }
    }

    /// Did every paranoid-mode unwind restore the choice-point state
    /// bit-for-bit (including the sorted-label caches)?
    pub(crate) fn roundtrips_ok(&self) -> bool {
        self.roundtrips_ok
    }

    /// Insert `c` into `x`'s label through the trail. Returns whether
    /// the label grew; a no-op insert leaves no trace.
    fn insert(&mut self, x: usize, c: ConceptRef, it: &Interner) -> bool {
        if !self.st.insert_label(x, c, it) {
            return false;
        }
        self.trail.push(TrailOp::Insert { node: x, c });
        self.dirty_cone(x);
        self.pending.push(ClashCheck::Delta { node: x, c });
        true
    }

    /// Label growth at `x` can enable rules at `x` and — via equality
    /// blocking against ancestor labels — at every descendant, so the
    /// whole parent-pointer cone goes dirty (dead nodes included:
    /// blocking walks through them).
    fn dirty_cone(&mut self, x: usize) {
        let mut stack = vec![x];
        while let Some(y) = stack.pop() {
            self.clean[y] = false;
            stack.extend(self.children[y].iter().copied());
        }
    }

    /// Mark two nodes distinct through the trail. Distinctness can
    /// complete an over-full ≤-restriction at any predecessor of
    /// either endpoint, so those restrictions are re-checked.
    fn mark_distinct(&mut self, a: usize, b: usize) {
        if !self.st.mark_distinct(a, b) {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.trail.push(TrailOp::Distinct { lo, hi });
        for &p in &self.preds[a] {
            self.pending.push(ClashCheck::AtMosts(p));
        }
        for &p in &self.preds[b] {
            self.pending.push(ClashCheck::AtMosts(p));
        }
    }

    /// Record a just-spawned node `id` (child of `x`): extend the
    /// indexes, owe it a full clash scan, re-check `x`'s
    /// ≤-restrictions (it gained a successor), and trail the spawn.
    fn note_spawn(&mut self, x: usize, id: usize) {
        debug_assert_eq!(id, self.st.nodes.len() - 1);
        self.preds.push(vec![x]);
        self.children.push(Vec::new());
        self.children[x].push(id);
        self.clean.push(false);
        self.trail.push(TrailOp::Spawn);
        self.pending.push(ClashCheck::Full(id));
        self.pending.push(ClashCheck::AtMosts(x));
    }

    /// Apply a merge alternative through the trail. Merging rewires
    /// edges arbitrarily, so the predecessor index is rebuilt, every
    /// node goes dirty, and every alive node owes a full clash scan —
    /// the one conservative (clone-free) corner of the kernel.
    fn apply_merge(&mut self, a: usize, b: usize, it: &Interner) {
        let undo = self.st.merge(a, b, it);
        self.trail.push(TrailOp::Merge(Box::new(undo)));
        self.rebuild_preds();
        for f in self.clean.iter_mut() {
            *f = false;
        }
        self.pending.clear();
        for x in 0..self.st.nodes.len() {
            if self.st.nodes[x].alive {
                self.pending.push(ClashCheck::Full(x));
            }
        }
    }

    fn rebuild_preds(&mut self) {
        debug_assert_eq!(self.preds.len(), self.st.nodes.len());
        for row in self.preds.iter_mut() {
            row.clear();
        }
        for x in 0..self.st.nodes.len() {
            for &(_, y) in &self.st.nodes[x].edges {
                self.preds[y].push(x);
            }
        }
    }

    /// Reverse one trail operation. Sound only in LIFO order (merge
    /// undo slots and the parent's-last-edge invariant both rely on
    /// everything recorded later being undone already).
    fn undo_op(&mut self, op: TrailOp, it: &Interner) {
        match op {
            TrailOp::Insert { node, c } => self.st.remove_label(node, c, it),
            TrailOp::Distinct { lo, hi } => {
                let removed = self.st.distinct.remove(&(lo, hi));
                debug_assert!(removed, "trail undo removed an absent distinct pair");
            }
            TrailOp::Spawn => {
                let node = self.st.nodes.pop().expect("spawn undo on empty state");
                let id = self.st.nodes.len();
                let parent = node.parent.expect("spawned nodes have parents");
                let edge = self.st.nodes[parent].edges.pop();
                debug_assert!(
                    matches!(edge, Some((_, y)) if y == id),
                    "spawn undo popped a foreign edge"
                );
                let child = self.children[parent].pop();
                debug_assert_eq!(child, Some(id));
                self.children.pop();
                self.preds.pop();
                self.clean.pop();
            }
            TrailOp::Merge(undo) => {
                self.st.undo_merge(*undo, it);
                self.rebuild_preds();
            }
        }
        self.undone += 1;
    }

    /// Undo the most recent choice and apply its next alternative.
    /// Returns `false` when every choice point is exhausted (the whole
    /// search tree is closed — the query is unsatisfiable).
    fn backtrack(&mut self, it: &Interner) -> bool {
        loop {
            let (trail_len, n_nodes, exhausted) = match self.choices.last() {
                None => return false,
                Some(cp) => (cp.trail_len, cp.n_nodes, cp.cursor >= cp.alts.len()),
            };
            while self.trail.len() > trail_len {
                let op = self.trail.pop().expect("trail shorter than choice point");
                self.undo_op(op, it);
            }
            // The choice point sat at a deterministic fixpoint, so
            // every surviving node is clean; nodes spawned past it
            // were popped by the spawn undos above.
            self.clean.truncate(n_nodes);
            for f in self.clean.iter_mut() {
                *f = true;
            }
            // Pending checks were drained before branching (and
            // cleared when a clash aborted the alternative), so the
            // restored state owes none.
            self.pending.clear();
            if self.paranoid {
                let in_sync = sorted_in_sync(&self.st, it);
                if let Some(snap) = self.choices.last().and_then(|cp| cp.snapshot.as_deref()) {
                    if *snap != self.st || !in_sync {
                        self.roundtrips_ok = false;
                    }
                }
            }
            if exhausted {
                self.choices.pop();
                continue;
            }
            self.apply_next_alt(it);
            return true;
        }
    }

    /// Open a choice point over `alts` and apply the first alternative
    /// in exploration order (reversed — the reference engine stacks
    /// alternatives and pops the last one first).
    fn push_choice(&mut self, mut alts: Vec<Alt>, it: &Interner) {
        alts.reverse();
        let snapshot = self.paranoid.then(|| Box::new(self.st.clone()));
        self.choices.push(ChoicePoint {
            trail_len: self.trail.len(),
            n_nodes: self.st.nodes.len(),
            alts,
            cursor: 0,
            snapshot,
        });
        self.apply_next_alt(it);
    }

    fn apply_next_alt(&mut self, it: &Interner) {
        let cp = self.choices.last_mut().expect("no open choice point");
        let alt = cp.alts[cp.cursor];
        cp.cursor += 1;
        match alt {
            Alt::Insert { node, c } => {
                let grew = self.insert(node, c, it);
                debug_assert!(grew, "branch alternatives insert fresh concepts");
            }
            Alt::Merge { a, b } => self.apply_merge(a, b, it),
        }
    }

    /// Evaluate every owed clash check against the current state.
    /// Returns `true` (and drops the remaining checks — the state is
    /// being abandoned) on the first clash. Called exactly where the
    /// reference engine runs its full scans, so both engines judge the
    /// same states at the same times.
    fn drain_clash(&mut self, it: &Interner, meter: &Meter) -> bool {
        while let Some(chk) = self.pending.pop() {
            let clash = match chk {
                ClashCheck::Full(x) => {
                    self.st.nodes[x].alive && {
                        meter.count(LABEL_SCANS, 1);
                        self.st.has_clash(x, it)
                    }
                }
                ClashCheck::Delta { node, c } => {
                    self.st.nodes[node].alive && self.delta_clash(it, node, c)
                }
                ClashCheck::AtMosts(x) => self.st.nodes[x].alive && self.atmosts_clash(it, x),
            };
            if clash {
                self.pending.clear();
                return true;
            }
        }
        false
    }

    /// Can inserting `c` at `x` have created a clash? Mirrors
    /// `has_clash` restricted to conditions involving `c`: ⊥, a
    /// complement pair in either direction (the reverse direction
    /// probes the interner for `¬c` — a negation never interned cannot
    /// appear in any label), `c`'s own ≤-restriction, and the
    /// ≤-restrictions at predecessors with `c` as filler (the label
    /// growth may have completed an over-full successor set).
    fn delta_clash(&self, it: &Interner, x: usize, c: ConceptRef) -> bool {
        if c == it.bottom() {
            return true;
        }
        match it.node(c) {
            CNode::Not(inner) if self.st.nodes[x].label.contains(inner) => {
                return true;
            }
            CNode::AtMost(n, r, cc) if self.st.atmost_clashes(x, *n, *r, *cc) => {
                return true;
            }
            _ => {}
        }
        if let Some(neg) = it.probe_not(c) {
            if self.st.nodes[x].label.contains(&neg) {
                return true;
            }
        }
        for &p in &self.preds[x] {
            if !self.st.nodes[p].alive {
                continue;
            }
            for (n, r, cc) in atmost_entries(&self.st, it, p) {
                if cc == c && self.st.atmost_clashes(p, n, r, cc) {
                    return true;
                }
            }
        }
        false
    }

    /// Re-evaluate every ≤-restriction in `x`'s label.
    fn atmosts_clash(&self, it: &Interner, x: usize) -> bool {
        atmost_entries(&self.st, it, x)
            .into_iter()
            .any(|(n, r, cc)| self.st.atmost_clashes(x, n, r, cc))
    }

    /// Emit the trail-undo total (observational — backtracking is
    /// bookkeeping, not ledger work).
    fn flush_counters(&self, meter: &Meter) {
        if self.undone > 0 {
            meter.count(TRAIL_UNDO, self.undone);
        }
    }
}

/// The ≤-restrictions in `x`'s label, read off the tail of the sorted
/// cache: `AtMost` has the greatest structural rank, so its entries
/// are exactly the maximal suffix in structural order.
fn atmost_entries(st: &State, it: &Interner, x: usize) -> Vec<(u32, RoleId, ConceptRef)> {
    st.nodes[x]
        .sorted
        .iter()
        .rev()
        .map_while(|&c| match it.node(c) {
            CNode::AtMost(n, r, cc) => Some((*n, *r, *cc)),
            _ => None,
        })
        .collect()
}

/// Is every node's sorted cache a faithful structural ordering of its
/// label set? (Paranoid-mode invariant.)
fn sorted_in_sync(st: &State, it: &Interner) -> bool {
    st.nodes.iter().all(|n| {
        n.sorted.len() == n.label.len()
            && n.sorted.iter().all(|c| n.label.contains(c))
            && n.sorted
                .windows(2)
                .all(|w| it.cmp_structural(w[0], w[1]) == std::cmp::Ordering::Less)
    })
}

fn note_skips(meter: &Meter, skipped: u64) {
    if skipped > 0 {
        meter.count(AGENDA_SKIP, skipped);
    }
}

impl Tableau {
    /// The agenda/trail engine behind [`Tableau::expand`] (see the
    /// module docs for the machinery and the equivalence argument).
    pub(crate) fn expand_kernel(
        &mut self,
        st: State,
        meter: &mut Meter,
    ) -> std::result::Result<Outcome, Interrupt> {
        let mut s = Search::new(st, false);
        let r = self.kernel_search(&mut s, meter);
        s.flush_counters(meter);
        r
    }

    /// Depth-first search over the single live state. Each loop
    /// iteration is one "state entry" — the exact analogue of a
    /// reference-engine stack pop, with the identical charge: one step
    /// on entry, one per deterministic round (the final no-change
    /// round included), spawn charges inside the rounds.
    fn kernel_search(
        &mut self,
        s: &mut Search,
        meter: &mut Meter,
    ) -> std::result::Result<Outcome, Interrupt> {
        loop {
            meter.charge(1)?;
            meter.count("dl.rule.search", 1);
            // Deterministic rules to fixpoint, abandoning on clash —
            // checks run before the first round and after every
            // changed round, never after the no-change round, exactly
            // like the reference loop.
            let mut clashed = s.drain_clash(&self.interner, meter);
            while !clashed {
                if !self.kernel_round(s, meter)? {
                    break;
                }
                clashed = s.drain_clash(&self.interner, meter);
            }
            if clashed {
                if !s.backtrack(&self.interner) {
                    return Ok(Outcome::Clash);
                }
                continue;
            }
            match self.find_branch(&s.st, meter) {
                Some(alts) => s.push_choice(alts, &self.interner),
                // Nothing applicable and clash-free: complete.
                None => return Ok(Outcome::Satisfiable),
            }
        }
    }

    /// One deterministic round over the dirty nodes. Identical rule
    /// logic and scan order to the reference `apply_deterministic`;
    /// the only difference is skipping clean nodes, which is sound
    /// because `clean[x]` is set only by a full empty scan of `x` and
    /// cleared by everything that could re-enable a rule there (own
    /// label growth, ancestor label growth via the dirty cone, merges
    /// re-dirtying wholesale, backtracking restoring a fixpoint).
    fn kernel_round(
        &self,
        s: &mut Search,
        meter: &mut Meter,
    ) -> std::result::Result<bool, Interrupt> {
        meter.charge(1)?;
        meter.count("dl.rule.round", 1);
        let mut skipped = 0u64;
        let n = s.st.nodes.len();
        for x in 0..n {
            if !s.st.nodes[x].alive {
                continue;
            }
            if s.clean[x] {
                skipped += 1;
                continue;
            }
            meter.count(LABEL_SCANS, 1);
            let mut i = 0;
            while i < s.st.nodes[x].sorted.len() {
                let c = s.st.nodes[x].sorted[i];
                i += 1;
                match self.interner.node(c) {
                    // absorption: A ∈ L(x) with A ⊑ C absorbed → add C
                    CNode::Atom(a) => {
                        if let Some(rhss) = self.absorbed.get(a) {
                            let mut changed = false;
                            for &rhs in rhss {
                                changed |= s.insert(x, rhs, &self.interner);
                            }
                            if changed {
                                note_skips(meter, skipped);
                                return Ok(true);
                            }
                        }
                    }
                    // ⊓-rule
                    CNode::And(parts) => {
                        let mut changed = false;
                        for &p in parts.iter() {
                            changed |= s.insert(x, p, &self.interner);
                        }
                        if changed {
                            note_skips(meter, skipped);
                            return Ok(true);
                        }
                    }
                    // ∀-rule
                    CNode::Forall(r, d) => {
                        let (r, d) = (*r, *d);
                        for y in s.st.successors(x, r) {
                            if s.insert(y, d, &self.interner) {
                                note_skips(meter, skipped);
                                return Ok(true);
                            }
                        }
                    }
                    // ∃-rule (blocked nodes do not generate)
                    CNode::Exists(r, d) => {
                        let (r, d) = (*r, *d);
                        if s.st.is_blocked(x) {
                            continue;
                        }
                        let has =
                            s.st.successors(x, r)
                                .into_iter()
                                .any(|y| s.st.nodes[y].label.contains(&d));
                        if !has {
                            self.kernel_spawn(s, x, r, [d], meter, "dl.rule.exists")?;
                            note_skips(meter, skipped);
                            return Ok(true);
                        }
                    }
                    // ≥-rule
                    CNode::AtLeast(k, r, d) => {
                        let (k, r, d) = (*k, *r, *d);
                        if s.st.is_blocked(x) {
                            continue;
                        }
                        let with_d: Vec<usize> =
                            s.st.successors(x, r)
                                .into_iter()
                                .filter(|&y| s.st.nodes[y].label.contains(&d))
                                .collect();
                        // Count a maximal pairwise-distinct subset
                        // conservatively: all current ones are candidates.
                        if (with_d.len() as u32) < k {
                            let mut fresh = vec![];
                            for _ in with_d.len() as u32..k {
                                let id =
                                    self.kernel_spawn(s, x, r, [d], meter, "dl.rule.at_least")?;
                                fresh.push(id);
                            }
                            // New witnesses pairwise distinct, and distinct
                            // from existing D-successors.
                            for (j, &a) in fresh.iter().enumerate() {
                                for &b in &fresh[j + 1..] {
                                    s.mark_distinct(a, b);
                                }
                                for &b in &with_d {
                                    s.mark_distinct(a, b);
                                }
                            }
                            note_skips(meter, skipped);
                            return Ok(true);
                        }
                    }
                    _ => {}
                }
            }
            // A complete scan applied nothing: x is at fixpoint until
            // something dirties it again.
            s.clean[x] = true;
        }
        note_skips(meter, skipped);
        Ok(false)
    }

    /// Spawn through the shared [`Tableau::spawn_child`] (so budget
    /// checks, charges, universal seeding, and ∀-propagation stay
    /// engine-identical), then record the kernel bookkeeping.
    fn kernel_spawn(
        &self,
        s: &mut Search,
        x: usize,
        r: RoleId,
        seed: impl IntoIterator<Item = ConceptRef>,
        meter: &mut Meter,
        rule: &'static str,
    ) -> std::result::Result<usize, Interrupt> {
        let id = self.spawn_child(&mut s.st, x, r, seed, meter, rule)?;
        s.note_spawn(x, id);
        Ok(id)
    }

    /// Test hook: run one satisfiability search in paranoid mode —
    /// every backtrack compares the unwound state bit-for-bit against
    /// a snapshot taken at the choice point (and re-validates the
    /// sorted-label caches). Returns `(satisfiable, roundtrips_ok)`.
    /// Bypasses every cache so the search genuinely runs.
    #[doc(hidden)]
    pub fn kernel_trail_roundtrip(&mut self, c: &crate::concept::Concept) -> (bool, bool) {
        let h = self.interner.intern(c);
        let nnf = self.interner.nnf(h);
        let mut st = State::new();
        let mut label: BTreeSet<ConceptRef> = BTreeSet::new();
        label.insert(nnf);
        label.extend(self.universal.iter().copied());
        st.add_node(label, None, &self.interner);
        let mut s = Search::new(st, true);
        let mut meter = Meter::unlimited();
        let r = self.kernel_search(&mut s, &mut meter);
        let sat = matches!(r, Ok(Outcome::Satisfiable));
        (sat, s.roundtrips_ok())
    }
}
