//! Classification: computing the full subsumption hierarchy over the
//! named concepts of a TBox.
//!
//! [`Classify`] is the one entry point for tableau classification: a
//! request whose setters choose the thread count, the shared cache, a
//! checkpoint to resume and (for the kernel differential suite) the
//! expansion engine, and whose `run` distributes the rows of the
//! enhanced traversal over the executor. Realization runs on the same
//! driver. [`classify_brute_force_governed`] is the O(n²) reference
//! grid the differential suites and the classification bench compare
//! against; the EL saturation classifier implements [`Classifier`].

use crate::cache::{tbox_fingerprint, SatCache};
use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointState, ResumeOutcome};
use crate::concept::{Concept, ConceptId, Vocabulary};
use crate::el::ElClassifier;
use crate::error::Result;
use crate::tableau::Tableau;
use crate::tbox::TBox;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use summa_exec::{par_map_with_drain, ParOutcome};
use summa_guard::{Budget, Governed, Interrupt, Meter, Spend};

/// The computed hierarchy: for every named concept, its full set of
/// named subsumers (reflexive–transitive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassHierarchy {
    pub(crate) subsumers: BTreeMap<ConceptId, BTreeSet<ConceptId>>,
}

impl ClassHierarchy {
    /// Does `sup` subsume `sub`?
    pub fn subsumes(&self, sup: ConceptId, sub: ConceptId) -> bool {
        self.subsumers
            .get(&sub)
            .map(|s| s.contains(&sup))
            .unwrap_or(false)
    }

    /// Equivalent concepts (mutual subsumption).
    pub fn equivalent(&self, a: ConceptId, b: ConceptId) -> bool {
        self.subsumes(a, b) && self.subsumes(b, a)
    }

    /// All subsumers of `c` (including itself), as an owned set.
    /// Prefer [`ClassHierarchy::subsumers_ref`] when a borrow will do —
    /// this clones the whole `BTreeSet` per call.
    pub fn subsumers_of(&self, c: ConceptId) -> BTreeSet<ConceptId> {
        self.subsumers.get(&c).cloned().unwrap_or_default()
    }

    /// Borrowing accessor for the subsumers of `c`: `None` when `c` is
    /// not in the hierarchy (undecided under an interrupted budget, or
    /// simply unknown). The clone-free path for membership tests and
    /// iteration.
    pub fn subsumers_ref(&self, c: ConceptId) -> Option<&BTreeSet<ConceptId>> {
        self.subsumers.get(&c)
    }

    /// Direct (non-transitive, non-reflexive) parents of `c`: subsumers
    /// with no strictly smaller subsumer in between.
    pub fn parents_of(&self, c: ConceptId) -> BTreeSet<ConceptId> {
        static EMPTY: BTreeSet<ConceptId> = BTreeSet::new();
        let subs = self.subsumers_ref(c).unwrap_or(&EMPTY);
        let strict: BTreeSet<ConceptId> = subs
            .iter()
            .copied()
            .filter(|&s| s != c && !self.equivalent(s, c))
            .collect();
        strict
            .iter()
            .copied()
            .filter(|&p| {
                !strict
                    .iter()
                    .any(|&q| q != p && self.subsumes(p, q) && !self.equivalent(p, q))
            })
            .collect()
    }

    /// All concepts in the hierarchy.
    pub fn concepts(&self) -> impl Iterator<Item = ConceptId> + '_ {
        self.subsumers.keys().copied()
    }

    /// Every concept with its subsumers, both ascending.
    pub fn rows(
        &self,
    ) -> impl ExactSizeIterator<Item = (ConceptId, impl ExactSizeIterator<Item = ConceptId> + '_)> + '_
    {
        self.subsumers.iter().map(|(&c, s)| (c, s.iter().copied()))
    }

    /// Number of subsumption pairs (reflexive included).
    pub fn n_pairs(&self) -> usize {
        self.subsumers.values().map(BTreeSet::len).sum()
    }

    /// Render as an indented tree-ish listing of parent links.
    pub fn render(&self, voc: &Vocabulary) -> String {
        let mut out = String::new();
        for c in self.concepts() {
            let parents = self.parents_of(c);
            if parents.is_empty() {
                out.push_str(&format!("{} ⊑ ⊤\n", voc.concept_name(c)));
            }
            for p in parents {
                out.push_str(&format!(
                    "{} ⊑ {}\n",
                    voc.concept_name(c),
                    voc.concept_name(p)
                ));
            }
        }
        out
    }
}

/// A classification strategy.
pub trait Classifier {
    /// Compute the subsumer sets for all named concepts of the TBox.
    fn classify(&mut self, tbox: &TBox, voc: &Vocabulary) -> Result<ClassHierarchy>;

    /// Budget-governed classification. One envelope bounds the whole
    /// run (all inner subsumption tests share a single meter); on
    /// exhaustion or cancellation the partial hierarchy contains the
    /// subsumptions proved so far — a sound under-approximation in
    /// which an absent pair means *not proved*, not *disproved*. (EL
    /// saturation cuts its partial at the budget's step ceiling's
    /// worth of pairs.)
    fn classify_governed(
        &mut self,
        tbox: &TBox,
        voc: &Vocabulary,
        budget: &Budget,
    ) -> Governed<ClassHierarchy>;
}

/// Counters from one classification run: how many satisfiability
/// tests were actually issued to the tableau, and how many of the
/// n² grid cells were decided without one.
///
/// The accounting invariant: `cells = sat_tests − row_checks + pruned`
/// where `row_checks` is one per row whose atom needed an explicit
/// satisfiability probe — every cell is either tested or pruned, and
/// the row probes are the only extra tests on top of the cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifyStats {
    /// Satisfiability calls issued (cell tests + per-row probes).
    pub sat_tests: u64,
    /// Grid cells decided without a satisfiability call.
    pub pruned: u64,
    /// Total grid cells decided (n² on a completed run).
    pub cells: u64,
}

impl ClassifyStats {
    fn absorb(&mut self, other: ClassifyStats) {
        self.sat_tests += other.sat_tests;
        self.pruned += other.pruned;
        self.cells += other.cells;
    }
}

/// The told-subsumer index: subsumption edges that are *syntactically
/// evident* in the TBox and therefore free to seed.
///
/// An axiom `A ⊑ B` (or `A ⊑ B ⊓ C ⊓ …`) with atomic left-hand side
/// states its right-hand atoms as subsumers of `A` outright; `A ⊑ ⊥`
/// marks `A` told-unsatisfiable. The index stores the
/// reflexive–transitive closure of those edges, plus the top-down
/// candidate order (ascending told-closure size) the enhanced
/// traversal tests candidates in — most-general first, so one refuted
/// general candidate prunes its whole told subtree.
///
/// Every told edge is entailed by the TBox, so seeding from the index
/// can never disagree with the tableau — which is what keeps the
/// enhanced hierarchy byte-identical to brute force.
struct ToldIndex {
    /// The named concepts of the TBox, in their canonical order.
    atoms: Vec<ConceptId>,
    /// `closure[i]`: indices of the told subsumers of atom `i`
    /// (reflexive–transitive), sorted ascending.
    closure: Vec<Vec<usize>>,
    /// Atom `i` is told-unsatisfiable (`⊑ ⊥` through told edges).
    told_unsat: Vec<bool>,
    /// Candidate processing order: ascending told-closure size
    /// (most-general first), ties by index.
    order: Vec<usize>,
}

impl ToldIndex {
    fn build(tbox: &TBox) -> Self {
        let atoms = tbox.atoms();
        let n = atoms.len();
        let pos: BTreeMap<ConceptId, usize> =
            atoms.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut bottom = vec![false; n];
        for (l, r) in tbox.gcis() {
            let Concept::Atom(a) = l else { continue };
            let Some(&i) = pos.get(&a) else { continue };
            match &r {
                Concept::Atom(b) => {
                    if let Some(&j) = pos.get(b) {
                        edges[i].insert(j);
                    }
                }
                // A ⊑ B ⊓ C ⊓ …: every atomic conjunct is told.
                Concept::And(parts) => {
                    for p in parts {
                        if let Concept::Atom(b) = p {
                            if let Some(&j) = pos.get(b) {
                                edges[i].insert(j);
                            }
                        }
                    }
                }
                Concept::Bottom => bottom[i] = true,
                _ => {}
            }
        }
        // Reflexive–transitive closure by per-atom BFS (n is the named
        // concept count; the closure is tiny next to one sat call).
        let closure: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut seen: BTreeSet<usize> = BTreeSet::new();
                let mut frontier = vec![i];
                seen.insert(i);
                while let Some(x) = frontier.pop() {
                    for &y in &edges[x] {
                        if seen.insert(y) {
                            frontier.push(y);
                        }
                    }
                }
                seen.into_iter().collect()
            })
            .collect();
        let told_unsat: Vec<bool> = (0..n)
            .map(|i| closure[i].iter().any(|&j| bottom[j]))
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&j| (closure[j].len(), j));
        ToldIndex {
            atoms,
            closure,
            told_unsat,
            order,
        }
    }
}

/// Per-row slice of [`ClassifyStats`].
type RowStats = ClassifyStats;

/// Charge one deterministic ledger step for a cell decided without a
/// satisfiability test. Pruning must stay *visible* to governance:
/// Spend remains a pure function of the input, budgets can interrupt
/// between pruned cells exactly as between tested ones, and the
/// `dl.classify.pruned` counter reconciles with the ledger
/// (steps = Σ dl.rule.* + dl.classify.pruned).
fn charge_pruned(meter: &mut Meter, stats: &mut RowStats) -> std::result::Result<(), Interrupt> {
    meter.charge(1)?;
    meter.count("dl.classify.pruned", 1);
    stats.pruned += 1;
    stats.cells += 1;
    Ok(())
}

/// Decide one row of the subsumption grid (all named subsumers of
/// `told.atoms[i]`) with the enhanced traversal:
///
/// 1. told subsumers are seeded free (every told edge is entailed);
/// 2. one satisfiability probe of the row atom itself decides *whole
///    rows* of incoherent TBoxes at once (`A` unsatisfiable ⟹ `A ⊑ B`
///    for every `B`), skipped when the index already tells `A ⊑ ⊥`;
/// 3. remaining candidates are tested most-general-first; a refuted
///    candidate `S` prunes every untested candidate below it in the
///    told hierarchy (`B ⊑told S` and `A ⋢ S` ⟹ `A ⋢ B`), and a
///    proved `A ⊑ B` propagates positively to `B`'s told subsumers.
///
/// Every skip is licensed by an entailment, so the decided row is
/// *exactly* the brute-force row — which is why enhanced and
/// brute-force hierarchies are byte-identical, including under
/// interrupted budgets (a partial differs only in which rows
/// completed, never in a completed row's content).
fn classify_row(
    reasoner: &mut Tableau,
    meter: &mut Meter,
    told: &ToldIndex,
    i: usize,
) -> std::result::Result<(BTreeSet<ConceptId>, RowStats), Interrupt> {
    let n = told.atoms.len();
    let a = told.atoms[i];
    // Chaos-injection site: a scheduled panic here exercises the
    // executor's supervised retry; cancel/trip exercise the partial
    // row contract.
    meter.fault_point("dl.classify.row")?;
    let mut stats = RowStats::default();
    let mut decided: Vec<Option<bool>> = vec![None; n];

    // 1. Told subsumers (including the reflexive self-edge) are free.
    for &j in &told.closure[i] {
        decided[j] = Some(true);
        charge_pruned(meter, &mut stats)?;
    }

    // 2. Row probe: an unsatisfiable atom subsumes under everything.
    let row_sat = if told.told_unsat[i] {
        false
    } else {
        stats.sat_tests += 1;
        meter.count("dl.classify.sat_tests", 1);
        reasoner.sat_metered(&Concept::atom(a), meter)?
    };
    if !row_sat {
        for slot in decided.iter_mut() {
            if slot.is_none() {
                *slot = Some(true);
                charge_pruned(meter, &mut stats)?;
            }
        }
    } else {
        // 3. Top-down traversal of the remaining candidates.
        for &j in &told.order {
            if decided[j].is_some() {
                continue;
            }
            // Negative pruning: a refuted told-superconcept of the
            // candidate refutes the candidate.
            if told.closure[j].iter().any(|&s| decided[s] == Some(false)) {
                decided[j] = Some(false);
                charge_pruned(meter, &mut stats)?;
                continue;
            }
            stats.sat_tests += 1;
            stats.cells += 1;
            meter.count("dl.classify.sat_tests", 1);
            let query = Concept::and(vec![
                Concept::atom(a),
                Concept::not(Concept::atom(told.atoms[j])),
            ]);
            let subsumed = !reasoner.sat_metered(&query, meter)?;
            decided[j] = Some(subsumed);
            if subsumed {
                // Positive propagation: A ⊑ B and B ⊑told S ⟹ A ⊑ S.
                for &s in &told.closure[j] {
                    if decided[s].is_none() {
                        decided[s] = Some(true);
                        charge_pruned(meter, &mut stats)?;
                    }
                }
            }
        }
    }

    let set: BTreeSet<ConceptId> = (0..n)
        .filter(|&j| decided[j] == Some(true))
        .map(|j| told.atoms[j])
        .collect();
    Ok((set, stats))
}

/// One classification request: the enhanced traversal over the named
/// concepts of `tbox`, with every concern a setter instead of a
/// separate entry point.
///
/// ```
/// use summa_dl::prelude::*;
/// use summa_guard::Budget;
///
/// let (voc, tbox, _) = summa_dl::generate::chain(4);
/// let run = Classify::new(&tbox, &voc).threads(2).run(&Budget::unlimited());
/// let h = run.governed.expect_completed("unlimited");
/// assert_eq!(h.n_pairs(), 10);
/// ```
///
/// The *rows* of the subsumption grid are distributed over `threads`
/// workers by work stealing (see [`summa_exec`]); at one thread the
/// executor runs inline on the caller's thread. Each worker owns a
/// private [`Tableau`] wired to one shared [`SatCache`], and one
/// [`Budget`] envelope bounds the whole grid. A partial hierarchy keeps
/// only fully decided rows, so an absent pair always means *not
/// proved*. Every pruning step is licensed by an entailment and every
/// tested cell is an independent query with a deterministic answer, so
/// the hierarchy is identical at every thread count and byte-identical
/// to [`classify_brute_force_governed`].
#[derive(Debug, Clone)]
pub struct Classify<'a> {
    workers: Workers<'a>,
    resume: Option<&'a [u8]>,
}

impl<'a> Classify<'a> {
    /// A request over `tbox`: one thread, a fresh [`SatCache`] per run,
    /// no checkpoint.
    pub fn new(tbox: &'a TBox, voc: &'a Vocabulary) -> Self {
        Classify {
            workers: Workers::new(tbox, voc),
            resume: None,
        }
    }

    /// Distribute rows over `n` workers.
    pub fn threads(mut self, n: usize) -> Self {
        self.workers.threads = n;
        self
    }

    /// Share `cache` across runs (or services) instead of a fresh one.
    pub fn cache(mut self, cache: Arc<SatCache>) -> Self {
        self.workers.cache = Some(cache);
        self
    }

    /// Resume from the bytes of a [`Checkpoint`] an interrupted run
    /// emitted: its rows are skipped before distribution and charge
    /// nothing. Bytes that fail validation (corruption, wrong TBox,
    /// foreign bytes, future version) degrade to a clean restart,
    /// recorded in [`ClassifyRun::resume`].
    pub fn resume(mut self, bytes: &'a [u8]) -> Self {
        self.resume = Some(bytes);
        self
    }

    /// Pin every worker's expansion engine
    /// ([`Tableau::with_reference_kernel`]); the kernel differential
    /// suite drives both engines through this switch.
    pub fn reference_kernel(mut self, reference: bool) -> Self {
        self.workers.reference_kernel = reference;
        self
    }

    /// Classify under `budget`.
    ///
    /// Resume is sound because checkpoints hold *fully decided* rows
    /// only and every row is computed independently: (restored rows) ∪
    /// (rows decided now) is exactly the hierarchy an uninterrupted run
    /// produces.
    pub fn run(&self, budget: &Budget) -> ClassifyRun {
        // Hashed only when a checkpoint is read or written.
        let fingerprint = || tbox_fingerprint(self.workers.tbox);
        let told = ToldIndex::build(self.workers.tbox);
        let (mut subsumers, resume) = match self.resume {
            None => (BTreeMap::new(), ResumeOutcome::Fresh),
            Some(bytes) => match restore_classification(bytes, fingerprint(), &told) {
                Ok(rows) => {
                    let restored = rows.len();
                    (rows, ResumeOutcome::Resumed { restored })
                }
                Err(why) => (BTreeMap::new(), ResumeOutcome::Restarted { why }),
            },
        };
        // The service span lives on the calling thread; worker task
        // spans (opened by the executor) land in their own lanes.
        let tracer = budget.tracer();
        let mut span = tracer
            .span("dl.classify.parallel")
            .with("atoms", told.atoms.len())
            .with("threads", self.workers.threads)
            .with("strategy", "enhanced");
        if let ResumeOutcome::Resumed { restored } = &resume {
            span.record("resumed_rows", *restored as u64);
            tracer.add("dl.classify.resumed_rows", *restored as u64);
        }
        // Rows restored from the checkpoint are already exact.
        let rows: Vec<usize> = (0..told.atoms.len())
            .filter(|&i| !subsumers.contains_key(&told.atoms[i]))
            .collect();
        let outcome = self.workers.run(&rows, budget, |reasoner, meter, &i| {
            classify_row(reasoner, meter, &told, i)
        });
        // The outcome's spend already carries this run's cache hit/miss
        // counts: each worker meter records them at lookup time.
        let spend = outcome.spend;
        let mut stats = ClassifyStats::default();
        let governed = outcome.into_governed(|slots| {
            // Undecided rows are simply absent.
            for (&i, slot) in rows.iter().zip(slots) {
                if let Some((set, row_stats)) = slot {
                    stats.absorb(row_stats);
                    subsumers.insert(told.atoms[i], set);
                }
            }
            Some(ClassHierarchy { subsumers })
        });
        span.record("sat_tests", stats.sat_tests);
        span.record("pruned", stats.pruned);
        let checkpoint = governed
            .as_partial()
            .filter(|h| !governed.is_completed() && !h.subsumers.is_empty())
            .map(|h| Checkpoint {
                fingerprint: fingerprint(),
                state: CheckpointState::Classification(h.subsumers.clone()),
            });
        ClassifyRun {
            governed,
            stats,
            spend,
            checkpoint,
            resume,
        }
    }
}

/// The outcome of one [`Classify`] run.
#[derive(Debug)]
pub struct ClassifyRun {
    pub governed: Governed<ClassHierarchy>,
    /// Work done by *this* run, summed over the rows it decided — rows
    /// restored from a checkpoint are not re-counted.
    pub stats: ClassifyStats,
    /// The pooled spend of every worker, cache hit/miss counts
    /// included.
    pub spend: Spend,
    /// Emitted when the run did not complete but at least one row is
    /// decided (restored rows included); `None` on completion.
    pub checkpoint: Option<Checkpoint>,
    pub resume: ResumeOutcome,
}

/// The row-distributed driver behind [`Classify`] and
/// [`Realize`](crate::realize::Realize): `threads` workers, each owning
/// a private [`Tableau`] for `tbox` wired to one shared [`SatCache`]
/// (`cache`, or a fresh one per run) and pinned to one expansion
/// engine.
#[derive(Debug, Clone)]
pub(crate) struct Workers<'a> {
    pub(crate) tbox: &'a TBox,
    pub(crate) voc: &'a Vocabulary,
    pub(crate) threads: usize,
    pub(crate) cache: Option<Arc<SatCache>>,
    pub(crate) reference_kernel: bool,
}

impl<'a> Workers<'a> {
    pub(crate) fn new(tbox: &'a TBox, voc: &'a Vocabulary) -> Self {
        Workers {
            tbox,
            voc,
            threads: 1,
            cache: None,
            reference_kernel: false,
        }
    }

    /// Spread `rows` over the workers; `row` decides one of them.
    /// Workers tear down through a drain hook that harvests interner
    /// hits accrued after their last completed sat call — they would
    /// otherwise be dropped on the scope join.
    pub(crate) fn run<T, R, F>(&self, rows: &[T], budget: &Budget, row: F) -> ParOutcome<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&mut Tableau, &mut Meter, &T) -> std::result::Result<R, Interrupt> + Sync,
    {
        let cache = self
            .cache
            .clone()
            .unwrap_or_else(|| Arc::new(SatCache::new()));
        let tracer = budget.tracer();
        par_map_with_drain(
            rows,
            budget,
            self.threads,
            |_| {
                Tableau::new(self.tbox, self.voc)
                    .with_shared_cache(Arc::clone(&cache))
                    .with_reference_kernel(self.reference_kernel)
            },
            |reasoner, meter, _, item| row(reasoner, meter, item),
            |_, mut reasoner: Tableau| {
                let d = reasoner.drain_intern_hits();
                if d > 0 {
                    tracer.add("dl.intern.hits", d);
                }
            },
        )
    }
}

/// Validate checkpoint bytes against this TBox and return the
/// restorable rows: decode, checksum, fingerprint, and a structural
/// check that every mentioned concept is actually a named concept of
/// the TBox (a stale checkpoint of a renamed ontology must not smuggle
/// unknown ids into the hierarchy).
fn restore_classification(
    bytes: &[u8],
    fingerprint: u64,
    told: &ToldIndex,
) -> std::result::Result<BTreeMap<ConceptId, BTreeSet<ConceptId>>, CheckpointError> {
    let ckp = Checkpoint::from_bytes_for(bytes, fingerprint)?;
    let CheckpointState::Classification(rows) = ckp.state else {
        return Err(CheckpointError::Malformed(
            "not a classification checkpoint",
        ));
    };
    let known: BTreeSet<ConceptId> = told.atoms.iter().copied().collect();
    for (c, set) in &rows {
        if !known.contains(c) || !set.iter().all(|s| known.contains(s)) {
            return Err(CheckpointError::Malformed(
                "checkpoint mentions concepts outside the TBox",
            ));
        }
    }
    Ok(rows)
}

/// The classical O(n²) grid: one subsumption test per (sub, sup) pair,
/// no seeding, no pruning. Kept as the reference implementation the
/// differential tests and the classification benchmark compare
/// against.
pub fn classify_brute_force_governed(
    reasoner: &mut Tableau,
    tbox: &TBox,
    budget: &Budget,
) -> (Governed<ClassHierarchy>, ClassifyStats) {
    let atoms = tbox.atoms();
    let mut meter = budget.meter();
    let _span = meter
        .span("dl.classify")
        .with("atoms", atoms.len())
        .with("strategy", "brute_force");
    let mut subsumers = BTreeMap::new();
    let mut stats = ClassifyStats::default();
    for &sub in &atoms {
        let mut set = BTreeSet::new();
        for &sup in &atoms {
            let query = Concept::and(vec![Concept::atom(sub), Concept::not(Concept::atom(sup))]);
            stats.sat_tests += 1;
            stats.cells += 1;
            meter.count("dl.classify.sat_tests", 1);
            match reasoner.sat_metered(&query, &mut meter) {
                Ok(sat) => {
                    if !sat {
                        set.insert(sup);
                    }
                }
                // Keep only fully decided rows: every listed subsumer
                // set is then exact, and absent concepts are simply
                // undecided.
                Err(i) => {
                    return (
                        Governed::from_interrupt(i, Some(ClassHierarchy { subsumers })),
                        stats,
                    )
                }
            }
        }
        subsumers.insert(sub, set);
    }
    (Governed::Completed(ClassHierarchy { subsumers }), stats)
}

/// [`Classify`] at `threads` workers against `cache`, returning the
/// governed hierarchy and the pooled [`Spend`].
pub fn classify_parallel_governed_with(
    tbox: &TBox,
    voc: &Vocabulary,
    budget: &Budget,
    threads: usize,
    cache: Arc<SatCache>,
) -> (Governed<ClassHierarchy>, Spend) {
    let run = Classify::new(tbox, voc)
        .threads(threads)
        .cache(cache)
        .run(budget);
    (run.governed, run.spend)
}

impl Classifier for ElClassifier {
    fn classify(&mut self, tbox: &TBox, _voc: &Vocabulary) -> Result<ClassHierarchy> {
        // One saturation, then read every subsumer set straight off the
        // saturated state — no per-pair `subsumes` probes (each of
        // which would re-check saturation and re-resolve both atoms).
        self.saturate();
        let atoms = tbox.atoms();
        Ok(ClassHierarchy {
            subsumers: self.current_named_subsumers(&atoms),
        })
    }

    fn classify_governed(
        &mut self,
        tbox: &TBox,
        _voc: &Vocabulary,
        budget: &Budget,
    ) -> Governed<ClassHierarchy> {
        let atoms = tbox.atoms();
        let mut meter = budget.meter();
        let _span = meter.span("dl.classify.el").with("atoms", atoms.len());
        // The read-out costs one step per named pair, charged before it
        // is built, as the tableau charges one per grid cell: ⊥ puts
        // every name in a row with a single fact, so saturation steps
        // alone do not bound the hierarchy's size.
        let charged = self
            .saturate_metered(&mut meter)
            .and_then(|()| meter.charge(self.named_pairs()));
        match charged {
            Ok(()) => Governed::Completed(ClassHierarchy {
                subsumers: self.current_named_subsumers(&atoms),
            }),
            // Partial saturation is a sound under-approximation, so
            // the interrupted hierarchy is still truthful. The tripped
            // meter takes no further charge, so the partial is cut at
            // the step ceiling's worth of pairs.
            Err(i) => Governed::from_interrupt(
                i,
                Some(ClassHierarchy {
                    subsumers: self
                        .named_subsumers_upto(&atoms, budget.max_steps().unwrap_or(u64::MAX)),
                }),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_tbox() -> (Vocabulary, TBox, Vec<ConceptId>) {
        let mut voc = Vocabulary::new();
        let ids: Vec<ConceptId> = (0..4).map(|i| voc.concept(&format!("C{i}"))).collect();
        let mut t = TBox::new();
        for w in ids.windows(2) {
            t.subsume(Concept::atom(w[0]), Concept::atom(w[1]));
        }
        (voc, t, ids)
    }

    fn classify(t: &TBox, voc: &Vocabulary) -> ClassHierarchy {
        Classify::new(t, voc)
            .run(&Budget::unlimited())
            .governed
            .expect_completed("unlimited")
    }

    #[test]
    fn tableau_and_el_agree_on_chain() {
        let (voc, t, ids) = chain_tbox();
        let h1 = classify(&t, &voc);
        let h2 = ElClassifier::new(&t, &voc)
            .unwrap()
            .classify(&t, &voc)
            .unwrap();
        assert_eq!(h1, h2);
        assert!(h1.subsumes(ids[3], ids[0]));
        assert!(!h1.subsumes(ids[0], ids[3]));
    }

    #[test]
    fn parents_skip_transitive_links() {
        let (voc, t, ids) = chain_tbox();
        let h = classify(&t, &voc);
        let parents = h.parents_of(ids[0]);
        assert_eq!(parents, [ids[1]].into_iter().collect());
        assert!(h.parents_of(ids[3]).is_empty());
    }

    #[test]
    fn equivalent_concepts_detected() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let mut t = TBox::new();
        t.equiv(Concept::atom(a), Concept::atom(b));
        let h = classify(&t, &voc);
        assert!(h.equivalent(a, b));
        // Each is the other's subsumer but neither is a strict parent.
        assert!(h.parents_of(a).is_empty());
    }

    #[test]
    fn render_mentions_every_edge() {
        let (voc, t, _) = chain_tbox();
        let h = classify(&t, &voc);
        let s = h.render(&voc);
        assert!(s.contains("C0 ⊑ C1"));
        assert!(s.contains("C3 ⊑ ⊤"));
        assert!(!s.contains("C0 ⊑ C2")); // transitive edge elided
    }

    #[test]
    fn n_pairs_counts_reflexive_and_transitive() {
        let (voc, t, _) = chain_tbox();
        let h = classify(&t, &voc);
        // 4 + 3 + 2 + 1 = 10 subsumption pairs on a 4-chain.
        assert_eq!(h.n_pairs(), 10);
    }

    #[test]
    fn enhanced_matches_brute_force_with_fewer_sat_calls() {
        let (voc, t, _) = chain_tbox();
        let budget = Budget::unlimited();
        let (brute, bs) = classify_brute_force_governed(&mut Tableau::new(&t, &voc), &t, &budget);
        let ClassifyRun {
            governed: enhanced,
            stats: es,
            ..
        } = Classify::new(&t, &voc).run(&budget);
        assert_eq!(
            brute.expect_completed("unlimited"),
            enhanced.expect_completed("unlimited")
        );
        // Every told edge of the chain is seeded free; only the
        // downward (refuted) direction plus row probes need calls.
        assert_eq!(bs.sat_tests, 16);
        assert!(
            es.sat_tests < bs.sat_tests,
            "enhanced issued {} sat calls, brute force {}",
            es.sat_tests,
            bs.sat_tests
        );
        // Both decided the full 4×4 grid.
        assert_eq!(bs.cells, 16);
        assert_eq!(es.cells, 16);
        assert_eq!(es.cells, es.cells - es.pruned + es.pruned);
        assert!(es.pruned > 0);
    }

    #[test]
    fn told_unsat_rows_fill_without_probes() {
        // A ⊑ B, B ⊑ ⊥: both rows are told-unsatisfiable, so the whole
        // hierarchy resolves with zero satisfiability calls.
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let mut t = TBox::new();
        t.subsume(Concept::atom(a), Concept::atom(b));
        t.subsume(Concept::atom(b), Concept::Bottom);
        let budget = Budget::unlimited();
        let run = Classify::new(&t, &voc).run(&budget);
        let (h, es) = (run.governed.expect_completed("unlimited"), run.stats);
        assert_eq!(es.sat_tests, 0);
        assert_eq!(es.pruned, 4);
        // Unsatisfiable concepts subsume under everything.
        assert!(h.subsumes(a, b) && h.subsumes(b, a));
        let (brute, _) = classify_brute_force_governed(&mut Tableau::new(&t, &voc), &t, &budget);
        assert_eq!(h, brute.expect_completed("unlimited"));
    }

    #[test]
    fn enhanced_ledger_reconciles_steps_with_pruned_counter() {
        // Pruned cells charge exactly one deterministic ledger step, so
        // steps == Σ dl.rule.* + dl.classify.pruned always holds.
        let (voc, t, _) = chain_tbox();
        let tracer = summa_guard::obs::Tracer::enabled();
        let budget = Budget::unlimited().with_tracer(tracer.clone());
        let mut meter = budget.meter();
        let told = ToldIndex::build(&t);
        let mut reasoner = Tableau::new(&t, &voc);
        let mut stats = ClassifyStats::default();
        for i in 0..told.atoms.len() {
            let (_, row) = classify_row(&mut reasoner, &mut meter, &told, i).unwrap();
            stats.absorb(row);
        }
        let counters = tracer.snapshot().counters;
        // `dl.rule.agenda.skip` / `dl.rule.trail.undo` live in the rule
        // family but are observational (the kernel's bookkeeping, never
        // charged), so the reconciliation subtracts them.
        let rule_steps: u64 = counters
            .iter()
            .filter(|(k, _)| {
                k.starts_with("dl.rule.")
                    && k.as_str() != "dl.rule.agenda.skip"
                    && k.as_str() != "dl.rule.trail.undo"
            })
            .map(|(_, v)| v)
            .sum();
        assert_eq!(tracer.counter_value("dl.classify.pruned"), stats.pruned);
        assert_eq!(
            tracer.counter_value("dl.classify.sat_tests"),
            stats.sat_tests
        );
        assert!(stats.pruned > 0);
        assert_eq!(meter.spend().steps, rule_steps + stats.pruned);
    }
}
