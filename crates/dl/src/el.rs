//! A polynomial completion-rule classifier for the EL fragment
//! (with ⊥ for disjointness).
//!
//! The input TBox must be within EL: concepts built from ⊤, atoms, ⊓
//! and ∃r.C only (⊥ is permitted on either side). The classifier
//! normalizes the TBox into the four EL normal forms and saturates the
//! standard completion rules (CR1–CR5 of the CEL calculus), yielding
//! all atom–atom subsumptions in polynomial time.
//!
//! Saturation runs on packed bitsets. Every internal atom `x` has a
//! row of subsumer bits `S(x)`, and every *role link* `(r, B)` — the
//! right-hand side of some `A ⊑ ∃r.B` — has a row of the atoms `x`
//! with a derived edge `x →r B`. Each matrix has a pending-work twin
//! marking the facts and edges no rule has fired on yet. The rules are
//! indexed by atom (`A ⊑ B`, `A ⊓ A₂ ⊑ B`, `A ⊑ ∃r.B` and `∃r.A ⊑ B`
//! by `A`; links by their target, as reverse role edges), so a step
//! costs only the rules its own fact triggers. One step is charged per
//! fact and per edge, plus one for the final pass that finds no work,
//! so a completed run's step count depends on the TBox alone, not on
//! the order the work was done in.
//!
//! Set-up copies nothing: [`ElClassifier::new`] numbers the TBox's
//! names through a table indexed by id (no sort, no search), checks the
//! fragment and atomizes in one walk over the GCIs the TBox lends it,
//! and keeps each rule index as one packed list per kind. A fresh
//! saturation seeds every row with its *told closure* over the atomic
//! `A ⊑ B` rules, computed in reverse topological order straight into
//! the rows, so the seeded rows are closed under CR1. The seeded facts
//! are then charged a row word at a time, and only those whose atom
//! has a rule besides CR1 fire one: a taxonomy's facts cost a bit
//! test, not a chain of inserts. Facts the rules derive from there on take the
//! pending-work path, as every fact of a resumed run does. The seeding
//! adds no matrix, and the fixpoint, the facts charged on the way to it
//! and so the step count are those of seeding `S(x) = {x, ⊤}` alone.
//!
//! The matrices are quadratic in internal atoms while steps grow with
//! derived facts, so a step budget alone does not bound a saturation's
//! memory. [`ElClassifier::saturate_metered`] charges the matrices to
//! the meter's memory proxy, in `u64` words, before it allocates them:
//! under a memory wall an oversized TBox stops before its first step.
//! Nor do steps bound the named hierarchy read off the rows: ⊥ puts
//! every name in a row with a single fact. So the governed
//! classification charges its read-out one step per named pair before
//! building it, and cuts a partial one at the budget's step ceiling.
//! The serving layer relies on both charges to bound the install-time
//! classification of in-fragment snapshots, which
//! [`ElClassifier::index_metered`] packs straight from the completed
//! rows into a [`HierarchyIndex`] under the same charges.

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointState};
use crate::concept::{Concept, ConceptId, RoleId, Vocabulary};
use crate::error::{DlError, Result};
use crate::index::HierarchyIndex;
use crate::tbox::TBox;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use summa_guard::{Interrupt, Meter};

/// Internal atom index: user atoms first, then the distinguished ⊤
/// and ⊥, then fresh definitional atoms.
type Atom = u32;

/// Index of a role link `(r, B)`: the target side of the edges
/// `x →r B` that CR3 derives from the axioms `A ⊑ ∃r.B`.
type Link = u32;

/// Normal-form axioms.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NfAxiom {
    /// A ⊑ B
    Sub(Atom, Atom),
    /// A₁ ⊓ A₂ ⊑ B
    Conj(Atom, Atom, Atom),
    /// A ⊑ ∃r.B
    ExistsRhs(Atom, RoleId, Atom),
    /// ∃r.A ⊑ B
    ExistsLhs(RoleId, Atom, Atom),
}

/// The normalized TBox, indexed by atom for rule application.
#[derive(Debug, Clone)]
struct Rules {
    /// CR1: `sub` of `a` holds every `b` with `a ⊑ b`.
    sub: Lists<Atom>,
    /// CR2: `conj` of `a` holds every `(a₂, b)` with `a ⊓ a₂ ⊑ b`,
    /// under both conjunct orders.
    conj: Lists<(Atom, Atom)>,
    /// CR3: `exists_rhs` of `a` holds every link `(r, b)` with
    /// `a ⊑ ∃r.b`.
    exists_rhs: Lists<Link>,
    /// CR4: `exists_lhs` of `a` holds every `(r, b)` with `∃r.a ⊑ b`.
    exists_lhs: Lists<(RoleId, Atom)>,
    /// Each link's role and target.
    links: Vec<(RoleId, Atom)>,
    /// Reverse role edges: `into` of `y` holds the links whose target
    /// is `y`.
    into: Lists<Link>,
    /// One bit row of the subsumers an edge target passes back to the
    /// edge's source: every `a` of some `∃r.a ⊑ b` (CR4), and ⊥ (CR5).
    passed_back: Vec<u64>,
    /// One bit row of the atoms with a CR2 or CR3 rule.
    local: Vec<u64>,
}

impl Rules {
    fn build(axioms: &[NfAxiom], n: usize, bottom: Atom) -> Rules {
        let mut sub = Vec::new();
        let mut conj = Vec::new();
        let mut exists_rhs = Vec::new();
        let mut exists_lhs = Vec::new();
        let mut links = Vec::new();
        let mut into = Vec::new();
        let mut passed_back = vec![0; n.div_ceil(64)];
        set_bit(&mut passed_back, bottom);
        let mut local = vec![0; n.div_ceil(64)];
        let mut link_of: BTreeMap<(RoleId, Atom), Link> = BTreeMap::new();
        for ax in axioms {
            match *ax {
                NfAxiom::Sub(a, b) => sub.push((a, b)),
                NfAxiom::Conj(a1, a2, b) => {
                    conj.push((a1, (a2, b)));
                    set_bit(&mut local, a1);
                    if a1 != a2 {
                        conj.push((a2, (a1, b)));
                        set_bit(&mut local, a2);
                    }
                }
                NfAxiom::ExistsRhs(a, r, b) => {
                    let l = *link_of.entry((r, b)).or_insert_with(|| {
                        let l = links.len() as Link;
                        links.push((r, b));
                        into.push((b, l));
                        l
                    });
                    exists_rhs.push((a, l));
                    set_bit(&mut local, a);
                }
                NfAxiom::ExistsLhs(r, a, b) => {
                    exists_lhs.push((a, (r, b)));
                    set_bit(&mut passed_back, a);
                }
            }
        }
        Rules {
            sub: Lists::group(n, sub),
            conj: Lists::group(n, conj),
            exists_rhs: Lists::group(n, exists_rhs),
            exists_lhs: Lists::group(n, exists_lhs),
            links,
            into: Lists::group(n, into),
            passed_back,
            local,
        }
    }
}

/// One list per atom, packed into a single allocation: atom `a`'s
/// items are `items[starts[a]..starts[a + 1]]`.
#[derive(Debug, Clone)]
struct Lists<T> {
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Lists<T> {
    /// Group `(atom, item)` pairs by atom, each atom's items in the
    /// order given.
    fn group(n: usize, mut pairs: Vec<(Atom, T)>) -> Lists<T> {
        pairs.sort_by_key(|&(a, _)| a);
        let mut starts = Vec::with_capacity(n + 1);
        let mut at = 0;
        for a in 0..=n {
            while pairs.get(at).is_some_and(|&(b, _)| (b as usize) < a) {
                at += 1;
            }
            starts.push(at as u32);
        }
        Lists {
            starts,
            items: pairs.into_iter().map(|(_, item)| item).collect(),
        }
    }

    fn of(&self, a: Atom) -> &[T] {
        let a = a as usize;
        &self.items[self.starts[a] as usize..self.starts[a + 1] as usize]
    }
}

/// The EL completion-rule classifier.
#[derive(Debug, Clone)]
pub struct ElClassifier {
    /// Atom count including fresh, ⊤ (`top`) and ⊥ (`bottom`).
    n_atoms: u32,
    top: Atom,
    bottom: Atom,
    /// The TBox's names, ascending: `names[a]` is user atom `a`.
    names: Vec<ConceptId>,
    rules: Rules,
    /// `u64` words per bit row: `⌈n_atoms / 64⌉`.
    words: usize,
    /// Subsumer rows, `words` per atom: bit `a` of row `x` is set once
    /// `a ∈ S(x)` is derived. Empty until a saturation (or a restored
    /// checkpoint) allocates it.
    rows: Vec<u64>,
    /// Edge rows, `words` per link: bit `x` of row `(r, B)` is set once
    /// the edge `x →r B` is derived. Persisted alongside `rows` so an
    /// interrupted saturation can checkpoint and resume without losing
    /// CR3's work.
    edges: Vec<u64>,
    saturated: bool,
}

/// Normalization state: atoms handed out so far and the normal-form
/// axioms produced.
struct Normalizer {
    n_atoms: u32,
    top: Atom,
    bottom: Atom,
    axioms: Vec<NfAxiom>,
    /// `rank[id]` is the user atom of the TBox's name `id`.
    rank: Vec<Atom>,
    /// The TBox's names, ascending: `names[a]` is user atom `a`.
    names: Vec<ConceptId>,
}

impl ElClassifier {
    /// Build the classifier from an EL TBox.
    ///
    /// Returns [`DlError::OutsideFragment`] when any axiom falls
    /// outside EL (⊥ is tolerated anywhere; it simply makes the side
    /// unsatisfiable).
    pub fn new(tbox: &TBox, voc: &Vocabulary) -> Result<Self> {
        // User atoms come first, in `ConceptId` order: user atom `i` is
        // rank `i` of the TBox's names, so `index_metered` packs
        // saturation rows as index rows.
        let (rank, names) = number_names(tbox);
        let mut norm = Normalizer {
            n_atoms: names.len() as u32,
            top: 0,
            bottom: 0,
            axioms: vec![],
            rank,
            names,
        };
        norm.top = norm.fresh();
        norm.bottom = norm.fresh();
        // One walk over the borrowed GCIs checks the fragment and
        // atomizes: the first GCI outside EL is the one reported.
        tbox.try_for_each_gci(|l, r| {
            let (Some(la), Some(ra)) = (norm.atomize(l), norm.atomize(r)) else {
                return Err(DlError::OutsideFragment {
                    reasoner: "EL",
                    detail: format!(
                        "axiom {} ⊑ {} is outside EL",
                        l.display(voc),
                        r.display(voc)
                    ),
                });
            };
            norm.axioms.push(NfAxiom::Sub(la, ra));
            Ok(())
        })?;
        let n = norm.n_atoms as usize;
        Ok(ElClassifier {
            n_atoms: norm.n_atoms,
            top: norm.top,
            bottom: norm.bottom,
            rules: Rules::build(&norm.axioms, n, norm.bottom),
            names: norm.names,
            words: n.div_ceil(64),
            rows: Vec::new(),
            edges: Vec::new(),
            saturated: false,
        })
    }

    /// Run the completion rules to fixpoint.
    pub fn saturate(&mut self) {
        let mut meter = Meter::unlimited();
        self.saturate_metered(&mut meter)
            .expect("unlimited meter interrupted");
    }

    /// Run the completion rules to fixpoint under a [`Meter`],
    /// charging one step per processed fact and per processed edge,
    /// plus one for the final pass that finds no work.
    ///
    /// Before it allocates anything, each run charges the meter's
    /// memory proxy with its bit matrices in `u64` words: subsumer and
    /// edge rows plus their pending twins, `2 × (atoms + links) ×
    /// ⌈atoms / 64⌉`. Under a memory wall that refuses them the run
    /// returns `Exhausted(Memory)` without taking a step. These words
    /// are not the tableau's memory unit (a completion-graph node), so
    /// a memory wall meant for one engine does not fit the other; give
    /// EL work a budget of its own.
    ///
    /// On interrupt the partially saturated subsumer sets are kept:
    /// completion rules only ever add *entailed* subsumptions, so the
    /// partial state is a sound under-approximation of the full
    /// classification (queryable via
    /// [`ElClassifier::current_named_subsumers`]).
    pub fn saturate_metered(&mut self, meter: &mut Meter) -> std::result::Result<(), Interrupt> {
        if self.saturated {
            return Ok(());
        }
        let _span = meter
            .span("dl.el.saturate")
            .with("atoms", self.n_atoms as u64);
        let rows = u64::from(self.n_atoms) + self.rules.links.len() as u64;
        meter.charge_memory(rows.saturating_mul(2 * self.words as u64))?;
        // A fresh start seeds each row with its told closure and fires
        // the other rules on those facts (`fire_told`); what they derive
        // turns pending. A resume starts from the persisted partial state
        // (an earlier interrupted run, or a restored checkpoint), whose
        // rows need not be closed under CR1, with every known fact and
        // edge pending, so the rules replay them; they only ever add
        // entailed consequences. Either way the monotone rules reach the
        // fixpoint an uninterrupted run does, and each fact and edge is
        // charged once.
        let fresh = self.rows.is_empty();
        if fresh {
            self.rows = vec![0; self.n_atoms as usize * self.words];
            self.edges = vec![0; self.rules.links.len() * self.words];
            seed_told_closure(&mut self.rows, self.words, &self.rules.sub, self.top);
        }
        let wrap = if fresh {
            Matrix::settled
        } else {
            Matrix::pending_all
        };
        let mut run = Run {
            rules: &self.rules,
            bottom: self.bottom,
            facts: wrap(std::mem::take(&mut self.rows), self.words),
            edges: wrap(std::mem::take(&mut self.edges), self.words),
        };
        let outcome = if fresh {
            run.fire_told(meter).and_then(|()| run.saturate(meter))
        } else {
            run.saturate(meter)
        };
        // Keep whatever was proved — complete on Ok, a sound partial
        // under-approximation on interrupt. Edges persist alongside so
        // a later resume (or checkpoint) loses none of CR3's work.
        self.rows = run.facts.bits;
        self.edges = run.edges.bits;
        self.saturated = outcome.is_ok();
        outcome
    }

    /// Snapshot the current (possibly partial) saturation state as a
    /// [`Checkpoint`] bound to `fingerprint` (the
    /// [`tbox_fingerprint`](crate::cache::tbox_fingerprint) of the
    /// TBox this classifier was built from). Atom numbering is
    /// deterministic for a given TBox, so a fresh classifier over the
    /// same TBox can [`resume_from`](Self::resume_from) it.
    pub fn checkpoint(&self, fingerprint: u64) -> Checkpoint {
        let mut edges: BTreeMap<(u32, u32), BTreeSet<Atom>> = BTreeMap::new();
        for (&(r, y), row) in self
            .rules
            .links
            .iter()
            .zip(self.edges.chunks_exact(self.words))
        {
            for x in ones(row) {
                edges.entry((x, r.0)).or_default().insert(y);
            }
        }
        Checkpoint {
            fingerprint,
            state: CheckpointState::ElSaturation {
                subsumers: self
                    .rows
                    .chunks_exact(self.words)
                    .map(|row| ones(row).collect())
                    .collect(),
                edges,
            },
        }
    }

    /// Restore a partial saturation from checkpoint bytes. Rejects
    /// corrupt images, wrong fingerprints, and state whose shape does
    /// not match this classifier's atom space or whose edges match no
    /// existential of this TBox; on success the next
    /// [`saturate_metered`](Self::saturate_metered) continues from the
    /// restored facts instead of starting over. Returns the number of
    /// subsumption facts restored.
    pub fn resume_from(
        &mut self,
        bytes: &[u8],
        fingerprint: u64,
    ) -> std::result::Result<usize, CheckpointError> {
        let ckp = Checkpoint::from_bytes_for(bytes, fingerprint)?;
        let CheckpointState::ElSaturation { subsumers, edges } = ckp.state else {
            return Err(CheckpointError::Malformed("not an EL checkpoint"));
        };
        if subsumers.len() != self.n_atoms as usize {
            return Err(CheckpointError::Malformed(
                "checkpoint atom count does not match this TBox",
            ));
        }
        let in_range = |a: &Atom| *a < self.n_atoms;
        if !subsumers.iter().all(|set| set.iter().all(in_range))
            || !edges
                .iter()
                .all(|(&(x, _), ys)| in_range(&x) && ys.iter().all(in_range))
        {
            return Err(CheckpointError::Malformed(
                "checkpoint mentions atoms outside this TBox",
            ));
        }
        let link_of: BTreeMap<(RoleId, Atom), usize> = self
            .rules
            .links
            .iter()
            .enumerate()
            .map(|(l, &link)| (link, l))
            .collect();
        let mut edge_rows = vec![0; self.rules.links.len() * self.words];
        for (&(x, r), ys) in &edges {
            for &y in ys {
                let Some(&l) = link_of.get(&(RoleId(r), y)) else {
                    return Err(CheckpointError::Malformed(
                        "checkpoint edge matches no existential of this TBox",
                    ));
                };
                set_bit(&mut edge_rows[l * self.words..][..self.words], x);
            }
        }
        let mut rows = vec![0; self.n_atoms as usize * self.words];
        for (row, set) in rows.chunks_exact_mut(self.words).zip(&subsumers) {
            for &a in set {
                set_bit(row, a);
            }
        }
        self.rows = rows;
        self.edges = edge_rows;
        self.saturated = false;
        Ok(subsumers.iter().map(BTreeSet::len).sum())
    }

    /// The user atom of one of the TBox's names.
    fn atom_of(&self, c: ConceptId) -> Option<Atom> {
        self.names.binary_search(&c).ok().map(|a| a as Atom)
    }

    /// Row `x` of the subsumer matrix; `None` before any saturation.
    fn row(&self, x: Atom) -> Option<&[u64]> {
        self.rows.get(x as usize * self.words..)?.get(..self.words)
    }

    /// Named-concept subsumer sets read off the *current* saturation
    /// state: complete after [`ElClassifier::saturate`], a sound
    /// under-approximation after an interrupted
    /// [`ElClassifier::saturate_metered`]. Reflexive pairs are always
    /// present. Each row is read once, through the words that hold
    /// user atoms, so the cost is linear in the pairs returned.
    pub fn current_named_subsumers(
        &self,
        atoms: &[ConceptId],
    ) -> BTreeMap<ConceptId, BTreeSet<ConceptId>> {
        self.named_subsumers_upto(atoms, u64::MAX)
    }

    /// [`current_named_subsumers`](Self::current_named_subsumers) cut
    /// to at most `limit` pairs (all reflexive pairs are kept), taking
    /// the non-reflexive ones in the order of `atoms`. A cut read-out
    /// is still a sound under-approximation.
    pub(crate) fn named_subsumers_upto(
        &self,
        atoms: &[ConceptId],
        limit: u64,
    ) -> BTreeMap<ConceptId, BTreeSet<ConceptId>> {
        // Internal atom → requested name, so a row's bits map straight
        // to the names it holds.
        let mut name: Vec<Option<ConceptId>> = vec![None; self.n_atoms as usize];
        for &c in atoms {
            if let Some(a) = self.atom_of(c) {
                name[a as usize] = Some(c);
            }
        }
        let named_words = self.names.len().div_ceil(64);
        let everything: Vec<ConceptId> = name.iter().flatten().copied().collect();
        let mut left =
            usize::try_from(limit.saturating_sub(atoms.len() as u64)).unwrap_or(usize::MAX);
        atoms
            .iter()
            .map(|&sub| {
                let row = self.atom_of(sub).and_then(|a| self.row(a));
                let mut take = |names: &mut dyn Iterator<Item = ConceptId>| {
                    let set: BTreeSet<ConceptId> = names.filter(|&c| c != sub).take(left).collect();
                    left -= set.len();
                    set
                };
                let mut set = match row {
                    // An unsatisfiable concept is subsumed by every name.
                    Some(row) if has_bit(row, self.bottom) => take(&mut everything.iter().copied()),
                    Some(row) => {
                        take(&mut ones(&row[..named_words]).filter_map(|a| name[a as usize]))
                    }
                    None => BTreeSet::new(),
                };
                set.insert(sub);
                (sub, set)
            })
            .collect()
    }

    /// How many pairs [`current_named_subsumers`](Self::current_named_subsumers)
    /// returns for the TBox's names, counted on the rows without
    /// building them: every name for an unsatisfiable row, else the
    /// row's names, plus the reflexive pair where the row lacks it.
    /// User atom `a` is name rank `a`, so the names are each row's
    /// first bits.
    pub(crate) fn named_pairs(&self) -> u64 {
        let n = self.names.len();
        let (full, rest) = (n / 64, n % 64);
        (0..n as Atom)
            .map(|a| {
                let Some(row) = self.row(a) else {
                    return 1;
                };
                if has_bit(row, self.bottom) {
                    return n as u64;
                }
                let mut named: u64 = row[..full].iter().map(|w| u64::from(w.count_ones())).sum();
                if rest > 0 {
                    named += u64::from((row[full] & ((1 << rest) - 1)).count_ones());
                }
                named + u64::from(!has_bit(row, a))
            })
            .sum()
    }

    /// Saturate under `meter`, charge the read-out one step per named
    /// pair, and pack the completed rows straight into a
    /// [`HierarchyIndex`] over the TBox's names, with no
    /// [`ClassHierarchy`](crate::classify::ClassHierarchy) in between.
    /// The charges are
    /// [`classify_governed`](crate::classify::Classifier::classify_governed)'s
    /// on the same TBox, and the index equals
    /// [`HierarchyIndex::build`] of its hierarchy.
    ///
    /// [`new`](Self::new) reserves the user atoms first, in `ConceptId`
    /// order, so user atom `i` is index rank `i`: index row `i` is
    /// saturation row `i` cut to the named words, with every name set
    /// when the row holds ⊥, the bits past the last name masked off and
    /// the reflexive bit set. On interrupt no index is built and the
    /// partial saturation is kept, as by
    /// [`saturate_metered`](Self::saturate_metered).
    pub fn index_metered(
        &mut self,
        meter: &mut Meter,
    ) -> std::result::Result<HierarchyIndex, Interrupt> {
        let n = self.names.len();
        let _span = meter.span("dl.el.index").with("atoms", n);
        self.saturate_metered(meter)?;
        meter.charge(self.named_pairs())?;
        let words = n.div_ceil(64);
        // The bits of a row's last word that stand for names.
        let tail = u64::MAX >> (words * 64 - n);
        let mut ancestors = Vec::with_capacity(n * words);
        for x in 0..n as Atom {
            let row = self.row(x).expect("saturated");
            if has_bit(row, self.bottom) {
                // An unsatisfiable concept is subsumed by every name.
                ancestors.resize(ancestors.len() + words, u64::MAX);
            } else {
                ancestors.extend_from_slice(&row[..words]);
            }
            let packed = &mut ancestors[x as usize * words..];
            packed[words - 1] &= tail;
            set_bit(packed, x);
        }
        Ok(HierarchyIndex::from_rows(self.names.clone(), ancestors))
    }

    /// Does `sup` subsume `sub` (both named concepts) under the TBox?
    pub fn subsumes(&mut self, sup: ConceptId, sub: ConceptId) -> bool {
        self.saturate();
        let (Some(sa), Some(ba)) = (self.atom_of(sub), self.atom_of(sup)) else {
            return false;
        };
        let row = self.row(sa).expect("saturated");
        has_bit(row, ba) || has_bit(row, self.bottom)
    }

    /// Is a named concept unsatisfiable (subsumed by ⊥)?
    pub fn is_unsatisfiable(&mut self, c: ConceptId) -> bool {
        self.saturate();
        match self.atom_of(c) {
            Some(a) => has_bit(self.row(a).expect("saturated"), self.bottom),
            None => false,
        }
    }

    /// All named subsumers of a named concept.
    pub fn subsumers_of(&mut self, c: ConceptId) -> Vec<ConceptId> {
        self.saturate();
        let Some(a) = self.atom_of(c) else {
            return vec![];
        };
        let row = self.row(a).expect("saturated");
        (0..self.names.len() as Atom)
            .filter(|&atom| has_bit(row, atom))
            .map(|atom| self.names[atom as usize])
            .collect()
    }
}

impl Normalizer {
    /// Reduce an EL concept to a single atom, introducing fresh
    /// definitional atoms as needed (the atom is *equivalent* to the
    /// concept because both directions of the definitional axioms are
    /// added where required). `None` when the concept is outside EL.
    fn atomize(&mut self, c: &Concept) -> Option<Atom> {
        Some(match c {
            Concept::Top => self.top,
            Concept::Bottom => self.bottom,
            // `new` numbered every name of the TBox.
            Concept::Atom(id) => self.rank[id.0 as usize],
            Concept::And(parts) => {
                let atoms: Vec<Atom> = parts
                    .iter()
                    .map(|p| self.atomize(p))
                    .collect::<Option<_>>()?;
                // Fold pairwise: fresh ⊑-equivalent conjunction atoms.
                // An empty conjunction is ⊤.
                let mut atoms = atoms.into_iter();
                let mut acc = atoms.next().unwrap_or(self.top);
                for a in atoms {
                    let fresh = self.fresh();
                    // acc ⊓ a ⊑ fresh and fresh ⊑ acc, fresh ⊑ a
                    self.axioms.push(NfAxiom::Conj(acc, a, fresh));
                    self.axioms.push(NfAxiom::Sub(fresh, acc));
                    self.axioms.push(NfAxiom::Sub(fresh, a));
                    acc = fresh;
                }
                acc
            }
            Concept::Exists(r, inner) => {
                let ia = self.atomize(inner)?;
                let fresh = self.fresh();
                // ∃r.ia ⊑ fresh and fresh ⊑ ∃r.ia
                self.axioms.push(NfAxiom::ExistsLhs(*r, ia, fresh));
                self.axioms.push(NfAxiom::ExistsRhs(fresh, *r, ia));
                fresh
            }
            Concept::Not(_)
            | Concept::Or(_)
            | Concept::Forall(..)
            | Concept::AtLeast(..)
            | Concept::AtMost(..) => return None,
        })
    }

    fn fresh(&mut self) -> Atom {
        let a = self.n_atoms;
        self.n_atoms += 1;
        a
    }
}

/// Number the TBox's names in id order, with no sort and no search:
/// mark each id the TBox uses in a table sized by its largest id, then
/// give the marked ids consecutive atoms. Returns the table (`rank[id]`
/// is the user atom of name `id`) and the names in atom order.
fn number_names(tbox: &TBox) -> (Vec<Atom>, Vec<ConceptId>) {
    const UNUSED: Atom = Atom::MAX;
    let mut len = 0;
    tbox.for_each_atom(|c| len = len.max(c.0 as usize + 1));
    let mut rank = vec![UNUSED; len];
    tbox.for_each_atom(|c| rank[c.0 as usize] = 0);
    let mut names = Vec::with_capacity(rank.iter().filter(|&&r| r != UNUSED).count());
    for (id, r) in rank.iter_mut().enumerate() {
        if *r != UNUSED {
            *r = names.len() as Atom;
            names.push(ConceptId(id as u32));
        }
    }
    (rank, names)
}

/// Seed each subsumer row with its told closure: the atom itself, ⊤,
/// and every atom it reaches over the `A ⊑ B` rules (CR1), ⊤'s rules
/// included, so every seeded row is closed under CR1 and holds only
/// facts CR1 derives. Tarjan's algorithm finishes the strongly
/// connected components of that graph in reverse topological order, so
/// when a component finishes, every row it points out of is complete;
/// its members (atoms made equivalent by a cycle of `⊑`, as `≡` makes)
/// share one row. Each edge ORs one finished row into another.
fn seed_told_closure(rows: &mut [u64], words: usize, sub: &Lists<Atom>, top: Atom) {
    /// `order` of an atom not yet reached.
    const UNSEEN: u32 = u32::MAX;
    /// `low` of an atom whose component has finished.
    const DONE: u32 = u32::MAX;
    let n = rows.len() / words;
    // The `k`-th atom `x` points to: its `sub` rules, then ⊤.
    let next = |x: Atom, k: usize| {
        let told = sub.of(x);
        match told.get(k) {
            Some(&b) => Some(b),
            None => (k == told.len() && x != top).then_some(top),
        }
    };
    let mut order = vec![UNSEEN; n];
    let mut low = vec![0; n];
    let mut reached = 0;
    // Atoms reached whose component has not finished, and the walk's
    // path, each atom with the number of edges it has taken.
    let mut open: Vec<Atom> = Vec::new();
    let mut walk: Vec<(Atom, usize)> = Vec::new();
    for root in 0..n as Atom {
        if order[root as usize] != UNSEEN {
            continue;
        }
        walk.push((root, 0));
        order[root as usize] = reached;
        low[root as usize] = reached;
        reached += 1;
        open.push(root);
        while let Some((x, k)) = walk.last_mut() {
            let x = *x;
            if let Some(y) = next(x, *k) {
                *k += 1;
                let y = y as usize;
                if order[y] == UNSEEN {
                    order[y] = reached;
                    low[y] = reached;
                    reached += 1;
                    open.push(y as Atom);
                    walk.push((y as Atom, 0));
                } else if low[y] != DONE {
                    low[x as usize] = low[x as usize].min(order[y]);
                }
                continue;
            }
            walk.pop();
            if let Some(&(parent, _)) = walk.last() {
                low[parent as usize] = low[parent as usize].min(low[x as usize]);
            }
            if low[x as usize] != order[x as usize] {
                continue;
            }
            // `x` roots a component: the open atoms from `x` on. Its row
            // gathers every member and every finished row they reach.
            let from = open.iter().rposition(|&m| m == x).expect("x is open");
            for &m in &open[from..] {
                set_bit(&mut rows[x as usize * words..], m);
                for y in (0..).map_while(|k| next(m, k)) {
                    if low[y as usize] == DONE {
                        or_row(rows, words, x, y);
                    }
                }
            }
            for m in open.drain(from..) {
                low[m as usize] = DONE;
                if m != x {
                    let at = x as usize * words;
                    rows.copy_within(at..at + words, m as usize * words);
                }
            }
        }
    }
}

/// `rows[x] |= rows[y]`, rows of `words` words, `x ≠ y`.
fn or_row(rows: &mut [u64], words: usize, x: Atom, y: Atom) {
    let (x, y) = (x as usize * words, y as usize * words);
    let (dst, src) = if x < y {
        let (head, tail) = rows.split_at_mut(y);
        (&mut head[x..x + words], &tail[..words])
    } else {
        let (head, tail) = rows.split_at_mut(x);
        (&mut tail[..words], &head[y..y + words])
    };
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// A packed bit matrix with a pending-work twin: a newly set bit is
/// also marked pending, and its row queued, until a rule fires on it.
struct Matrix {
    words: usize,
    bits: Vec<u64>,
    pending: Vec<u64>,
    /// Rows with pending bits, first in first out, each at most once.
    queue: VecDeque<u32>,
    queued: Vec<bool>,
}

impl Matrix {
    /// Wrap `bits` with no bit pending.
    fn settled(bits: Vec<u64>, words: usize) -> Matrix {
        Matrix {
            words,
            pending: vec![0; bits.len()],
            queued: vec![false; bits.len() / words],
            bits,
            queue: VecDeque::new(),
        }
    }

    /// Wrap `bits` with every set bit pending.
    fn pending_all(bits: Vec<u64>, words: usize) -> Matrix {
        let queued: Vec<bool> = bits
            .chunks_exact(words)
            .map(|row| row.iter().any(|&w| w != 0))
            .collect();
        Matrix {
            words,
            pending: bits.clone(),
            bits,
            queue: (0..queued.len() as u32)
                .filter(|&i| queued[i as usize])
                .collect(),
            queued,
        }
    }

    fn row(&self, i: u32) -> &[u64] {
        &self.bits[i as usize * self.words..][..self.words]
    }

    /// Set bit `j` of row `i`; a new bit turns pending.
    fn insert(&mut self, i: u32, j: Atom) {
        let at = i as usize * self.words + j as usize / 64;
        let bit = 1u64 << (j % 64);
        if self.bits[at] & bit == 0 {
            self.bits[at] |= bit;
            self.pending[at] |= bit;
            if !self.queued[i as usize] {
                self.queued[i as usize] = true;
                self.queue.push_back(i);
            }
        }
    }

    /// The next queued row. Bits that turn pending in it from here on
    /// queue it again.
    fn next_row(&mut self) -> Option<u32> {
        let i = self.queue.pop_front()?;
        self.queued[i as usize] = false;
        Some(i)
    }

    /// Clear and return row `i`'s next pending bit at or after word
    /// `*from`, advancing `*from` past the words found empty.
    fn take_pending(&mut self, i: u32, from: &mut usize) -> Option<Atom> {
        let row = &mut self.pending[i as usize * self.words..][..self.words];
        while let Some(word) = row.get_mut(*from) {
            if *word != 0 {
                let j = (*from * 64) as Atom + word.trailing_zeros();
                *word &= *word - 1;
                return Some(j);
            }
            *from += 1;
        }
        None
    }
}

/// One saturation: the completion rules over the subsumer matrix
/// (`facts`, row per atom) and the edge matrix (`edges`, row per link).
struct Run<'a> {
    rules: &'a Rules,
    bottom: Atom,
    facts: Matrix,
    edges: Matrix,
}

impl Run<'_> {
    /// Fire the rules on every pending fact, then every pending edge,
    /// until none is left. Facts go first: edges are only worked while
    /// no fact is pending.
    fn saturate(&mut self, meter: &mut Meter) -> std::result::Result<(), Interrupt> {
        loop {
            if let Some(x) = self.facts.next_row() {
                let mut from = 0;
                while let Some(a) = self.facts.take_pending(x, &mut from) {
                    meter.charge(1)?;
                    self.fire_fact(x, a);
                }
            } else if let Some(l) = self.edges.next_row() {
                let passed = self.passed_back(l);
                let mut from = 0;
                while let Some(x) = self.edges.take_pending(l, &mut from) {
                    meter.charge(1)?;
                    for &b in &passed {
                        self.facts.insert(x, b);
                    }
                }
            } else {
                // The pass that finds no work is a step too.
                return meter.charge(1);
            }
        }
    }

    /// Charge and fire every told fact, the bits a fresh start seeded,
    /// row by row. The seeded rows are closed under CR1, so a told fact
    /// fires only the rules its atom has besides CR1, and the told
    /// facts of a word whose atoms have none are charged in one call
    /// and fire nothing. Each row is read once, a word at a time, and a
    /// bit set but not pending there is a told fact: a fact the rules
    /// derive turns pending and is left to [`Run::saturate`].
    fn fire_told(&mut self, meter: &mut Meter) -> std::result::Result<(), Interrupt> {
        let rules = self.rules;
        let words = self.facts.words;
        for x in 0..(self.facts.bits.len() / words) as Atom {
            // CR4 and CR5 reach a fact of `x` only if a link targets `x`.
            let target = !rules.into.of(x).is_empty();
            for w in 0..words {
                let at = x as usize * words + w;
                let told = self.facts.bits[at] & !self.facts.pending[at];
                let mut active = rules.local[w];
                if target {
                    active |= rules.passed_back[w];
                }
                let quiet = (told & !active).count_ones();
                if quiet > 0 {
                    meter.charge(u64::from(quiet))?;
                }
                let mut fire = told & active;
                while fire != 0 {
                    let a = (w * 64) as Atom + fire.trailing_zeros();
                    fire &= fire - 1;
                    meter.charge(1)?;
                    self.fire_rules(x, a);
                }
            }
        }
        Ok(())
    }

    /// The rules triggered by the fact `a ∈ S(x)`.
    fn fire_fact(&mut self, x: Atom, a: Atom) {
        // CR1: a ⊑ b.
        for &b in self.rules.sub.of(a) {
            self.facts.insert(x, b);
        }
        self.fire_rules(x, a);
    }

    /// The rules besides CR1 triggered by the fact `a ∈ S(x)`.
    fn fire_rules(&mut self, x: Atom, a: Atom) {
        let rules = self.rules;
        // CR2: a ⊓ a₂ ⊑ b with a₂ already in S(x).
        for &(a2, b) in rules.conj.of(a) {
            if has_bit(self.facts.row(x), a2) {
                self.facts.insert(x, b);
            }
        }
        // CR3: a ⊑ ∃r.b derives the edge x →r b.
        for &l in rules.exists_rhs.of(a) {
            self.edges.insert(l, x);
        }
        // CR4 and CR5 with x as an edge target: a new subsumer of x
        // reaches the source w of every derived edge w →r x.
        for &l in rules.into.of(x) {
            let role = rules.links[l as usize].0;
            let fires = |&(r, _): &(RoleId, Atom)| r == role;
            if a != self.bottom && !rules.exists_lhs.of(a).iter().any(fires) {
                continue;
            }
            for w in 0..self.edges.words {
                let mut sources = self.edges.row(l)[w];
                while sources != 0 {
                    let src = (w * 64) as Atom + sources.trailing_zeros();
                    sources &= sources - 1;
                    for &(r, b) in rules.exists_lhs.of(a) {
                        if r == role {
                            self.facts.insert(src, b);
                        }
                    }
                    if a == self.bottom {
                        self.facts.insert(src, self.bottom);
                    }
                }
            }
        }
    }

    /// What an edge of link `(r, y)` passes back to its source: each
    /// `b` with `∃r.a ⊑ b` for some `a ∈ S(y)` (CR4), and ⊥ when
    /// `⊥ ∈ S(y)` (CR5). A subsumer `y` gains later reaches the sources
    /// through [`Run::fire_fact`] instead.
    fn passed_back(&self, l: Link) -> Vec<Atom> {
        let (role, y) = self.rules.links[l as usize];
        let mut out = Vec::new();
        let target = self.facts.row(y);
        for (w, (&s, &mask)) in target.iter().zip(&self.rules.passed_back).enumerate() {
            let mut bits = s & mask;
            while bits != 0 {
                let a = (w * 64) as Atom + bits.trailing_zeros();
                bits &= bits - 1;
                if a == self.bottom {
                    out.push(a);
                }
                out.extend(
                    self.rules
                        .exists_lhs
                        .of(a)
                        .iter()
                        .filter(|&&(r, _)| r == role)
                        .map(|&(_, b)| b),
                );
            }
        }
        out
    }
}

fn set_bit(row: &mut [u64], a: Atom) {
    row[a as usize / 64] |= 1u64 << (a % 64);
}

fn has_bit(row: &[u64], a: Atom) -> bool {
    row[a as usize / 64] >> (a % 64) & 1 != 0
}

/// The set bits of a packed row, ascending.
fn ones(row: &[u64]) -> impl Iterator<Item = Atom> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&bits| {
            let rest = bits & (bits - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |bits| (w * 64) as Atom + bits.trailing_zeros())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_chain_subsumption() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let c = voc.concept("C");
        let mut t = TBox::new();
        t.subsume(Concept::atom(a), Concept::atom(b));
        t.subsume(Concept::atom(b), Concept::atom(c));
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.subsumes(b, a));
        assert!(el.subsumes(c, a)); // transitive
        assert!(el.subsumes(c, b));
        assert!(!el.subsumes(a, c));
        assert!(el.subsumes(a, a)); // reflexive
    }

    #[test]
    fn conjunction_on_lhs() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let c = voc.concept("C");
        let d = voc.concept("D");
        let mut t = TBox::new();
        // D ⊑ A ⊓ B ; A ⊓ B ⊑ C  ⟹  D ⊑ C
        t.subsume(
            Concept::atom(d),
            Concept::and(vec![Concept::atom(a), Concept::atom(b)]),
        );
        t.subsume(
            Concept::and(vec![Concept::atom(a), Concept::atom(b)]),
            Concept::atom(c),
        );
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.subsumes(a, d));
        assert!(el.subsumes(b, d));
        assert!(el.subsumes(c, d));
        assert!(!el.subsumes(c, a));
    }

    #[test]
    fn existential_propagation() {
        let mut voc = Vocabulary::new();
        let person = voc.concept("Person");
        let parent = voc.concept("Parent");
        let has_child = voc.role("hasChild");
        let mut t = TBox::new();
        // Person ⊓ ∃hasChild.Person ⊑ Parent — via normal forms.
        t.subsume(
            Concept::and(vec![
                Concept::atom(person),
                Concept::exists(has_child, Concept::atom(person)),
            ]),
            Concept::atom(parent),
        );
        // ProudDad ⊑ Person ⊓ ∃hasChild.Person
        let dad = voc.concept("ProudDad");
        t.subsume(
            Concept::atom(dad),
            Concept::and(vec![
                Concept::atom(person),
                Concept::exists(has_child, Concept::atom(person)),
            ]),
        );
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.subsumes(parent, dad));
        assert!(!el.subsumes(parent, person));
    }

    #[test]
    fn exists_chain_rolls_up() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let c = voc.concept("C");
        let r = voc.role("r");
        let mut t = TBox::new();
        // A ⊑ ∃r.B ; ∃r.B ⊑ C ⟹ A ⊑ C
        t.subsume(Concept::atom(a), Concept::exists(r, Concept::atom(b)));
        t.subsume(Concept::exists(r, Concept::atom(b)), Concept::atom(c));
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.subsumes(c, a));
    }

    #[test]
    fn bottom_propagates_through_exists() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let r = voc.role("r");
        let mut t = TBox::new();
        // B ⊑ ⊥ ; A ⊑ ∃r.B ⟹ A unsatisfiable.
        t.subsume(Concept::atom(b), Concept::Bottom);
        t.subsume(Concept::atom(a), Concept::exists(r, Concept::atom(b)));
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.is_unsatisfiable(b));
        assert!(el.is_unsatisfiable(a));
        // And an unsatisfiable concept is subsumed by everything.
        assert!(el.subsumes(b, a));
    }

    #[test]
    fn disjointness_via_bottom() {
        let mut voc = Vocabulary::new();
        let cat = voc.concept("Cat");
        let dog = voc.concept("Dog");
        let both = voc.concept("CatDog");
        let mut t = TBox::new();
        t.subsume(
            Concept::and(vec![Concept::atom(cat), Concept::atom(dog)]),
            Concept::Bottom,
        );
        t.subsume(
            Concept::atom(both),
            Concept::and(vec![Concept::atom(cat), Concept::atom(dog)]),
        );
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        assert!(el.is_unsatisfiable(both));
        assert!(!el.is_unsatisfiable(cat));
    }

    #[test]
    fn rejects_non_el_tbox() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let mut t = TBox::new();
        t.subsume(Concept::atom(a), Concept::not(Concept::atom(a)));
        assert!(matches!(
            ElClassifier::new(&t, &voc),
            Err(DlError::OutsideFragment { .. })
        ));
    }

    #[test]
    fn subsumers_of_lists_all() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let c = voc.concept("C");
        let mut t = TBox::new();
        t.subsume(Concept::atom(a), Concept::atom(b));
        t.subsume(Concept::atom(b), Concept::atom(c));
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        let subs = el.subsumers_of(a);
        assert!(subs.contains(&a) && subs.contains(&b) && subs.contains(&c));
        assert_eq!(el.subsumers_of(c), vec![c]);
    }

    #[test]
    fn equivalence_axioms_work() {
        let mut voc = Vocabulary::new();
        let a = voc.concept("A");
        let b = voc.concept("B");
        let r = voc.role("r");
        let mut t = TBox::new();
        t.equiv(Concept::atom(a), Concept::exists(r, Concept::atom(b)));
        let c = voc.concept("C");
        t.subsume(Concept::atom(c), Concept::exists(r, Concept::atom(b)));
        let mut el = ElClassifier::new(&t, &voc).unwrap();
        // C ⊑ ∃r.B ≡ A ⟹ C ⊑ A
        assert!(el.subsumes(a, c));
        assert!(!el.subsumes(c, a));
    }

    // -----------------------------------------------------------------
    // Differential: the EL hierarchy and the row-packed index equal
    // tableau classification on every in-fragment TBox family, and
    // completion steps stay pinned.
    // -----------------------------------------------------------------

    use crate::classify::{Classifier, Classify};
    use crate::corpus::{animals_tbox_el, vehicles_tbox_el, PaperVocab};
    use crate::generate;
    use summa_guard::{Budget, ExhaustionReason, Governed};

    /// EL classification equals the tableau's on `t`, and so does the
    /// row-packed index: it verifies, it equals `HierarchyIndex::build`
    /// of the tableau's hierarchy and of `classify_governed`'s, and a
    /// step ceiling affords it exactly when it affords
    /// `classify_governed`, so both charge the same steps.
    fn assert_el_matches_tableau(t: &TBox, voc: &Vocabulary, what: &str) {
        let el = ElClassifier::new(t, voc)
            .expect("in fragment")
            .classify(t, voc)
            .expect("classifies");
        let tableau = Classify::new(t, voc)
            .run(&Budget::unlimited())
            .governed
            .expect_completed("unlimited");
        assert_eq!(el, tableau, "EL and tableau hierarchies differ on {what}");

        let fresh = || ElClassifier::new(t, voc).expect("in fragment");
        let mut meter = Budget::unlimited().meter();
        let index = fresh().index_metered(&mut meter).expect("unlimited");
        assert!(index.is_intact(), "{what}: the packed index verifies");
        assert_eq!(
            Some(&index),
            HierarchyIndex::build(&tableau).as_ref(),
            "{what}: packed index vs the tableau's"
        );
        let steps = meter.steps();
        for max in [steps, steps - 1] {
            let budget = Budget::new().with_steps(max);
            let packed = fresh().index_metered(&mut budget.meter());
            match (packed, fresh().classify_governed(t, voc, &budget)) {
                (Ok(packed), Governed::Completed(h)) if max == steps => assert_eq!(
                    Some(packed),
                    HierarchyIndex::build(&h),
                    "{what}: packed index vs classify_governed's"
                ),
                (
                    Err(Interrupt::Exhausted(ExhaustionReason::Steps)),
                    Governed::Exhausted {
                        reason: ExhaustionReason::Steps,
                        ..
                    },
                ) if max < steps => {}
                (packed, governed) => panic!(
                    "{what} at {max} of {steps} steps: packed {}, governed {}",
                    packed.is_ok(),
                    governed.is_completed()
                ),
            }
        }
    }

    /// Steps of one uninterrupted saturation.
    fn completion_steps(t: &TBox, voc: &Vocabulary) -> u64 {
        let mut el = ElClassifier::new(t, voc).expect("in fragment");
        let mut meter = Budget::unlimited().meter();
        el.saturate_metered(&mut meter).expect("unlimited");
        meter.steps()
    }

    #[test]
    fn el_matches_tableau_on_diamonds() {
        for depth in 1..=8 {
            let (voc, t, _) = generate::diamond(depth);
            assert_el_matches_tableau(&t, &voc, &format!("diamond({depth})"));
        }
    }

    #[test]
    fn el_matches_tableau_on_random_el() {
        for seed in (0..24).chain([1405, 0x5EED]) {
            let (voc, t, _) = generate::random_el(12, 2, 16, seed);
            assert_el_matches_tableau(&t, &voc, &format!("random_el(12, 2, 16, {seed})"));
        }
    }

    #[test]
    fn el_matches_tableau_on_the_el_corpora() {
        let p = PaperVocab::new();
        assert_el_matches_tableau(&vehicles_tbox_el(&p), &p.voc, "vehicles_tbox_el");
        assert_el_matches_tableau(&animals_tbox_el(&p), &p.voc, "animals_tbox_el");
    }

    #[test]
    fn el_matches_tableau_with_bottom_top_and_equivalences() {
        let mut voc = Vocabulary::new();
        let [a, b, c, d, e, f] = ["A", "B", "C", "D", "E", "F"].map(|n| voc.concept(n));
        let r = voc.role("r");
        let at = Concept::atom;

        // A ⊓ B ⊑ ⊥: a concept below both is unsatisfiable.
        let mut t = TBox::new();
        t.subsume(Concept::and(vec![at(a), at(b)]), Concept::Bottom);
        t.subsume(at(c), Concept::and(vec![at(a), at(b)]));
        t.subsume(at(d), at(a));
        assert_el_matches_tableau(&t, &voc, "A ⊓ B ⊑ ⊥");

        // A ⊑ ∃r.B with B ⊑ ⊥: ⊥ propagates back along the edge.
        let mut t = TBox::new();
        t.subsume(at(a), Concept::exists(r, at(b)));
        t.subsume(at(b), Concept::Bottom);
        t.subsume(at(c), at(a));
        t.subsume(at(d), Concept::exists(r, at(e)));
        assert_el_matches_tableau(&t, &voc, "A ⊑ ∃r.B, B ⊑ ⊥");

        // ⊤ ⊑ A: every concept falls under A.
        let mut t = TBox::new();
        t.subsume(Concept::Top, at(a));
        t.subsume(at(b), at(c));
        t.subsume(Concept::exists(r, at(a)), at(d));
        t.subsume(at(e), Concept::exists(r, at(f)));
        assert_el_matches_tableau(&t, &voc, "⊤ ⊑ A");

        // ⊤ ⊑ A with A ⊑ ⊥: an inconsistent TBox, every pair holds.
        let mut t = TBox::new();
        t.subsume(Concept::Top, at(a));
        t.subsume(at(a), Concept::Bottom);
        t.subsume(at(b), at(c));
        assert_el_matches_tableau(&t, &voc, "⊤ ⊑ A ⊑ ⊥");

        // A ⊓ B ⊑ C where the lower-numbered conjunct A reaches D only
        // through a chain, long after B: CR2 must fire on whichever
        // conjunct arrives last.
        let mut t = TBox::new();
        t.subsume(Concept::and(vec![at(a), at(b)]), at(c));
        t.subsume(at(f), at(a));
        t.subsume(at(e), at(f));
        t.subsume(at(d), at(e));
        t.subsume(at(d), at(b));
        assert_el_matches_tableau(&t, &voc, "late conjunct");

        // ∃r.B ⊑ C where B joins S(E) only after D's r-edge to E was
        // worked, through E's own s-edge: CR4 must also fire from the
        // target's side.
        let s = voc.role("s");
        let mut t = TBox::new();
        t.subsume(at(d), Concept::exists(r, at(e)));
        t.subsume(at(e), Concept::exists(s, at(f)));
        t.subsume(Concept::exists(s, at(f)), at(b));
        t.subsume(Concept::exists(r, at(b)), at(c));
        assert_el_matches_tableau(&t, &voc, "nested edges");

        // The same for ⊥ (CR5): E turns unsatisfiable through its
        // s-edge, and D through its r-edge to E.
        let mut t = TBox::new();
        t.subsume(at(d), Concept::exists(r, at(e)));
        t.subsume(at(e), Concept::exists(s, at(f)));
        t.subsume(at(f), Concept::Bottom);
        t.subsume(at(a), at(b));
        assert_el_matches_tableau(&t, &voc, "nested ⊥");

        // Equivalences, including one defined by an existential.
        let mut t = TBox::new();
        t.equiv(at(a), Concept::and(vec![at(b), Concept::exists(r, at(c))]));
        t.subsume(at(d), at(b));
        t.subsume(at(d), Concept::exists(r, at(c)));
        t.equiv(at(e), at(f));
        t.subsume(at(f), at(b));
        assert_el_matches_tableau(&t, &voc, "equivalences");

        // No names at all: an empty index, with and without ⊥.
        assert_el_matches_tableau(&TBox::new(), &voc, "empty");
        let mut t = TBox::new();
        t.subsume(Concept::Top, Concept::Bottom);
        assert_el_matches_tableau(&t, &voc, "⊤ ⊑ ⊥ alone");
    }

    /// Rows of more than one word, with unsatisfiable names: the ⊥ fill
    /// sets every name of a row, and the last word keeps only the bits
    /// of names (⊤, ⊥ and the fresh atoms sit right past them), so the
    /// packed index still equals the tableau's, at and across the word
    /// boundary.
    #[test]
    fn row_packing_fills_bottom_and_masks_the_last_word() {
        let at = Concept::atom;
        for n in [64, 65, 70, 128] {
            let mut voc = Vocabulary::new();
            let ids: Vec<ConceptId> = (0..n).map(|i| voc.concept(&format!("c{i}"))).collect();
            let r = voc.role("r");
            // c0 ⊑ … ⊑ c{n-2} with c5 ⊑ ⊥, so c0..=c5 are unsatisfiable;
            // c{n-1} ⊑ ∃r.c0 is too, through its edge.
            let mut t = TBox::new();
            for w in ids[..n - 1].windows(2) {
                t.subsume(at(w[0]), at(w[1]));
            }
            t.subsume(at(ids[5]), Concept::Bottom);
            t.subsume(at(ids[n - 1]), Concept::exists(r, at(ids[0])));
            assert_el_matches_tableau(&t, &voc, &format!("{n} names"));

            let index = ElClassifier::new(&t, &voc)
                .expect("in fragment")
                .index_metered(&mut Budget::unlimited().meter())
                .expect("unlimited");
            for &sup in &ids {
                for sub in [ids[5], ids[n - 1]] {
                    assert_eq!(index.subsumes(sup, sub), Some(true), "{n} names");
                }
                assert_eq!(
                    index.subsumes(sup, ids[6]),
                    Some(ids[6..n - 1].contains(&sup))
                );
            }
        }
    }

    /// Rows restored from a checkpoint need not hold their reflexive
    /// facts, and saturation never adds them: the packed index sets the
    /// reflexive bit anyway, as `classify_governed`'s read-out keeps the
    /// reflexive pair, and both charge a step for it.
    #[test]
    fn packed_rows_are_reflexive_even_when_restored_rows_are_not() {
        let (voc, t, _) = generate::diamond(3);
        let fresh = || ElClassifier::new(&t, &voc).expect("in fragment");
        let empty = Checkpoint {
            fingerprint: 7,
            state: CheckpointState::ElSaturation {
                subsumers: vec![BTreeSet::new(); fresh().n_atoms as usize],
                edges: BTreeMap::new(),
            },
        }
        .to_bytes();
        let restored = || {
            let mut el = fresh();
            el.resume_from(&empty, 7).expect("well-formed");
            el
        };
        let budget = Budget::unlimited();
        let mut meter = budget.meter();
        let index = restored().index_metered(&mut meter).expect("unlimited");
        let h = restored()
            .classify_governed(&t, &voc, &budget)
            .expect_completed("unlimited");
        assert_eq!(h.n_pairs(), t.atoms().len(), "only the reflexive pairs");
        assert_eq!(Some(index), HierarchyIndex::build(&h));
        // The pass that finds no work, then one step per pair.
        assert_eq!(meter.steps(), 1 + h.n_pairs() as u64);
    }

    /// `new` reserves the user atoms first, in `ConceptId` order, so
    /// user atom `i` is rank `i` of the TBox's names, with ⊤ and ⊥ right
    /// after them: `index_metered` packs saturation row `i` as index
    /// row `i` on this alone. The vehicles corpus shares its vocabulary
    /// with the animals, so its names are not consecutive ids.
    #[test]
    fn user_atom_i_is_rank_i() {
        let p = PaperVocab::new();
        let (dvoc, dt, _) = generate::diamond(5);
        let (rvoc, rt, _) = generate::random_el(12, 2, 16, 7);
        let (vt, at) = (vehicles_tbox_el(&p), animals_tbox_el(&p));
        for (t, voc) in [(&vt, &p.voc), (&at, &p.voc), (&dt, &dvoc), (&rt, &rvoc)] {
            let mut el = ElClassifier::new(t, voc).expect("in fragment");
            let names = t.atoms();
            assert_eq!(el.names, names);
            assert_eq!(
                (el.top, el.bottom),
                (names.len() as Atom, names.len() as Atom + 1)
            );
            let index = el
                .index_metered(&mut Budget::unlimited().meter())
                .expect("unlimited");
            assert_eq!(index.atoms(), names);
        }
    }

    /// Completion steps are fixed by the TBox (one per fact, one per
    /// edge, one for the empty pass), whatever order the rules fire
    /// in; these values were measured on the per-entry queue
    /// saturation the bitset rows replaced.
    #[test]
    fn completion_steps_are_pinned() {
        for (depth, steps) in [(4, 240), (6, 1_600), (8, 9_296)] {
            let (voc, t, _) = generate::diamond(depth);
            assert_eq!(completion_steps(&t, &voc), steps, "diamond({depth})");
        }
        for (seed, steps) in [(7, 158), (1405, 209)] {
            let (voc, t, _) = generate::random_el(12, 2, 16, seed);
            assert_eq!(
                completion_steps(&t, &voc),
                steps,
                "random_el(12, 2, 16, {seed})"
            );
        }
    }

    /// A checkpoint edge whose role and target match no existential
    /// of the TBox is none this TBox's saturation can derive: it is
    /// refused as malformed.
    #[test]
    fn resume_refuses_edges_no_axiom_derives() {
        let mut voc = Vocabulary::new();
        let [a, b, c] = ["A", "B", "C"].map(|n| voc.concept(n));
        let r = voc.role("r");
        let mut t = TBox::new();
        t.subsume(Concept::atom(a), Concept::exists(r, Concept::atom(b)));
        t.subsume(Concept::exists(r, Concept::atom(c)), Concept::atom(b));
        let mut el = ElClassifier::new(&t, &voc).expect("in fragment");
        el.saturate();
        let Checkpoint { state, .. } = el.checkpoint(7);
        let CheckpointState::ElSaturation {
            subsumers,
            mut edges,
        } = state
        else {
            unreachable!("an EL checkpoint");
        };
        // The derived A →r B round-trips; A →r A is forged.
        let forged = |edges| {
            Checkpoint {
                fingerprint: 7,
                state: CheckpointState::ElSaturation {
                    subsumers: subsumers.clone(),
                    edges,
                },
            }
            .to_bytes()
        };
        let mut fresh = ElClassifier::new(&t, &voc).expect("in fragment");
        assert!(fresh.resume_from(&forged(edges.clone()), 7).is_ok());
        edges.entry((0, r.0)).or_default().insert(0);
        assert!(matches!(
            fresh.resume_from(&forged(edges), 7),
            Err(CheckpointError::Malformed(_))
        ));
    }

    /// `⊤ ⊑ ⊥` and `Aᵢ ⊑ U` for `n` atoms: an inconsistent TBox whose
    /// every row holds ⊥ after a few steps per atom, so its hierarchy
    /// has all `(n + 1)²` named pairs.
    fn inconsistent(n: usize) -> (Vocabulary, TBox) {
        let mut voc = Vocabulary::new();
        let u = voc.concept("U");
        let mut t = TBox::new();
        t.subsume(Concept::Top, Concept::Bottom);
        for i in 0..n {
            let a = voc.concept(&format!("A{i}"));
            t.subsume(Concept::atom(a), Concept::atom(u));
        }
        (voc, t)
    }

    /// `named_pairs` counts exactly the pairs the read-out builds, on
    /// completed and interrupted saturations, with and without ⊥.
    #[test]
    fn named_pairs_counts_the_read_out() {
        let mut cases = vec![inconsistent(40)];
        for depth in [3, 5] {
            let (voc, t, _) = generate::diamond(depth);
            cases.push((voc, t));
        }
        let (voc, t, _) = generate::random_el(12, 2, 16, 7);
        cases.push((voc, t));
        for (voc, t) in &cases {
            let atoms = t.atoms();
            for max in [0, 10, 60, u64::MAX] {
                let mut el = ElClassifier::new(t, voc).expect("in fragment");
                let _ = el.saturate_metered(&mut Budget::new().with_steps(max).meter());
                let built: usize = el
                    .current_named_subsumers(&atoms)
                    .values()
                    .map(BTreeSet::len)
                    .sum();
                assert_eq!(el.named_pairs(), built as u64, "at {max} steps");
            }
        }
    }

    /// The read-out is charged one step per named pair before it is
    /// built, and a partial one is cut at the step budget's worth of
    /// pairs, so no hierarchy larger than the budget is built: ⊥ fills
    /// every row in a few steps per atom.
    #[test]
    fn the_read_out_is_charged_one_step_per_pair() {
        let (voc, t) = inconsistent(40);
        let steps = completion_steps(&t, &voc);
        let pairs = 41 * 41;
        assert!(steps < 41 * 5, "saturation is linear here: {steps} steps");
        let governed = |max| {
            ElClassifier::new(&t, &voc)
                .expect("in fragment")
                .classify_governed(&t, &voc, &Budget::new().with_steps(max))
        };
        let full = governed(steps + pairs).expect_completed("read-out affordable");
        assert_eq!(full.n_pairs() as u64, pairs);
        for max in [steps + pairs - 1, steps + 100, steps - 1, 20] {
            let Governed::Exhausted {
                reason: ExhaustionReason::Steps,
                partial: Some(partial),
            } = governed(max)
            else {
                panic!("{max} steps cannot pay for the read-out");
            };
            assert!(partial.n_pairs() as u64 <= max.max(41), "cut at {max}");
            for c in partial.concepts() {
                assert!(partial.subsumes(c, c), "reflexive pairs are kept");
                for &s in partial.subsumers_ref(c).into_iter().flatten() {
                    assert!(full.subsumes(s, c), "the cut partial is sound");
                }
            }
        }
    }

    #[test]
    fn memory_wall_refuses_the_rows_before_any_step() {
        let (voc, t, _) = generate::diamond(4);
        let mut el = ElClassifier::new(&t, &voc).expect("in fragment");
        // 31 atoms + ⊤ + ⊥, no links: 2 × 33 rows of one word.
        let mut meter = Budget::new().with_memory(65).meter();
        assert_eq!(
            el.saturate_metered(&mut meter),
            Err(Interrupt::Exhausted(ExhaustionReason::Memory))
        );
        assert_eq!(meter.steps(), 0);
        let mut meter = Budget::new().with_memory(66).meter();
        assert_eq!(el.saturate_metered(&mut meter), Ok(()));
        assert_eq!(meter.steps(), 240);
    }
}
