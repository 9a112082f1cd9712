//! ABox realization: the most specific named concepts of each
//! individual.
//!
//! Realization is the standard DL service that classification enables:
//! for every individual `a` of an ABox, compute the set of named
//! concepts `C` with `KB ⊨ C(a)`, and among them the most specific
//! ones. It is what an information system would actually run on top of
//! an ontonomy — and therefore where the paper's semantic worries
//! become operational: the system's "understanding" of `a` is exactly
//! this set of names, nothing more.
//!
//! [`Realize`] is the one entry point: a request whose setters choose
//! the thread count, the shared cache, a hierarchy index and a
//! checkpoint to resume, run on the row-distributed driver of
//! [`Classify`](crate::classify::Classify).

use crate::abox::{ABox, Individual};
use crate::cache::SatCache;
use crate::checkpoint::{
    kb_fingerprint, Checkpoint, CheckpointError, CheckpointState, ResumeOutcome,
};
use crate::classify::Workers;
use crate::concept::{Concept, ConceptId, Vocabulary};
use crate::index::HierarchyIndex;
use crate::tableau::Tableau;
use crate::tbox::TBox;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use summa_guard::{Budget, Governed, Interrupt, Meter, Spend};

/// The realization of an ABox: per individual, all entailed named
/// concepts (the *types*) and the most specific ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Realization {
    types: BTreeMap<Individual, BTreeSet<ConceptId>>,
    most_specific: BTreeMap<Individual, BTreeSet<ConceptId>>,
}

impl Realization {
    /// All entailed named concepts of an individual, as an owned set.
    /// Prefer [`Realization::types_ref`] when a borrow will do — this
    /// clones the whole `BTreeSet` per call.
    pub fn types_of(&self, a: Individual) -> BTreeSet<ConceptId> {
        self.types.get(&a).cloned().unwrap_or_default()
    }

    /// Borrowing accessor for an individual's entailed types: `None`
    /// when the individual was not realized (undecided under an
    /// interrupted budget, or simply unknown).
    pub fn types_ref(&self, a: Individual) -> Option<&BTreeSet<ConceptId>> {
        self.types.get(&a)
    }

    /// The most specific entailed named concepts of an individual, as
    /// an owned set. Prefer [`Realization::most_specific_ref`] when a
    /// borrow will do.
    pub fn most_specific_of(&self, a: Individual) -> BTreeSet<ConceptId> {
        self.most_specific.get(&a).cloned().unwrap_or_default()
    }

    /// Borrowing accessor for an individual's most specific types.
    pub fn most_specific_ref(&self, a: Individual) -> Option<&BTreeSet<ConceptId>> {
        self.most_specific.get(&a)
    }

    /// Is `KB ⊨ C(a)` for the named concept `C`? Clone-free membership
    /// test.
    pub fn is_type(&self, a: Individual, c: ConceptId) -> bool {
        self.types_ref(a).is_some_and(|s| s.contains(&c))
    }

    /// Render per-individual listings.
    pub fn render(&self, abox: &ABox, voc: &Vocabulary) -> String {
        let mut out = String::new();
        for (&a, types) in &self.most_specific {
            let names: Vec<&str> = types.iter().map(|&c| voc.concept_name(c)).collect();
            out.push_str(&format!(
                "{}: {}\n",
                abox.individual_name(a),
                names.join(", ")
            ));
        }
        out
    }
}

/// One realization request: the types and most specific types of every
/// individual of `abox`, with every concern a setter instead of a
/// separate entry point.
///
/// Individuals are distributed over `threads` workers (the driver
/// [`Classify`](crate::classify::Classify) uses), each realizing
/// *whole* individuals with a private [`Tableau`] wired to one shared
/// [`SatCache`], under a single envelope. A partial [`Realization`]
/// therefore only holds fully realized individuals — untouched ones
/// are absent, never misreported — and the completed result is
/// identical at every thread count.
#[derive(Debug, Clone)]
pub struct Realize<'a> {
    workers: Workers<'a>,
    abox: &'a ABox,
    index: Option<&'a HierarchyIndex>,
    resume: Option<&'a [u8]>,
}

impl<'a> Realize<'a> {
    /// A request over `abox` against `tbox`: one thread, a fresh
    /// [`SatCache`] per run, no index, no checkpoint. Every named
    /// concept of `voc` is a candidate type (ABox-only names count
    /// too).
    pub fn new(tbox: &'a TBox, abox: &'a ABox, voc: &'a Vocabulary) -> Self {
        Realize {
            workers: Workers::new(tbox, voc),
            abox,
            index: None,
            resume: None,
        }
    }

    /// Distribute individuals over `n` workers.
    pub fn threads(mut self, n: usize) -> Self {
        self.workers.threads = n;
        self
    }

    /// Share `cache` across runs (or services) instead of a fresh one.
    pub fn cache(mut self, cache: Arc<SatCache>) -> Self {
        self.workers.cache = Some(cache);
        self
    }

    /// Answer the most-specific filtering's atom-vs-atom subsumption
    /// pairs from a precomputed [`HierarchyIndex`] when it covers both
    /// atoms (one step charged, zero tableau calls), and prove them
    /// otherwise. An index answer *is* the prover's answer, so the
    /// realization is identical with or without it — only the spend
    /// differs.
    pub fn index(mut self, index: &'a HierarchyIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Resume from the bytes of a [`Checkpoint`] an interrupted run
    /// emitted: its individuals are skipped before distribution and
    /// charge nothing. The checkpoint is bound to the *joint* (TBox,
    /// ABox) fingerprint, so one taken against a different TBox or ABox
    /// — or failing any other validation — degrades to a clean restart,
    /// recorded in [`RealizeRun::resume`].
    pub fn resume(mut self, bytes: &'a [u8]) -> Self {
        self.resume = Some(bytes);
        self
    }

    /// Realize under `budget`. Resume soundness mirrors
    /// classification: checkpoints hold fully realized individuals
    /// only, each realized independently, so restored ∪ fresh rows
    /// equal an uninterrupted run byte-for-byte.
    pub fn run(&self, budget: &Budget) -> RealizeRun {
        // Hashed only when a checkpoint is read or written.
        let fingerprint = || kb_fingerprint(self.workers.tbox, self.abox);
        let (mut types, mut most_specific, resume) = match self.resume {
            None => (BTreeMap::new(), BTreeMap::new(), ResumeOutcome::Fresh),
            Some(bytes) => {
                match restore_realization(bytes, fingerprint(), self.abox, self.workers.voc) {
                    Ok((t, m)) => {
                        let restored = t.len();
                        (t, m, ResumeOutcome::Resumed { restored })
                    }
                    Err(why) => (
                        BTreeMap::new(),
                        BTreeMap::new(),
                        ResumeOutcome::Restarted { why },
                    ),
                }
            }
        };
        let tracer = budget.tracer();
        let mut span = tracer
            .span("dl.realize.parallel")
            .with("individuals", self.abox.n_individuals())
            .with("threads", self.workers.threads);
        if let ResumeOutcome::Resumed { restored } = &resume {
            span.record("resumed_individuals", *restored as u64);
            tracer.add("dl.realize.resumed_individuals", *restored as u64);
        }
        // Individuals restored from the checkpoint are already exact.
        let individuals: Vec<Individual> = self
            .abox
            .individuals()
            .filter(|ind| !types.contains_key(ind))
            .collect();
        let atoms: Vec<ConceptId> = self.workers.voc.concepts().collect();
        let outcome = self
            .workers
            .run(&individuals, budget, |reasoner, meter, &ind| {
                // Chaos-injection site, mirroring `dl.classify.row`.
                meter.fault_point("dl.realize.individual")?;
                let mut set = BTreeSet::new();
                for &c in &atoms {
                    // KB ⊨ C(a) iff KB ∪ {¬C(a)} is inconsistent — via the
                    // scratch-assertion instance check.
                    if reasoner.instance_metered(self.abox, ind, &Concept::atom(c), meter)? {
                        set.insert(c);
                    }
                }
                // Most specific among the entailed types, decided before
                // the row is published so a partial never holds an
                // unfiltered set.
                let specific = most_specific_of_set(reasoner, meter, &set, self.index)?;
                Ok((set, specific))
            });
        let spend = outcome.spend;
        let governed = outcome.into_governed(|slots| {
            for (ind, slot) in individuals.iter().zip(slots) {
                if let Some((set, specific)) = slot {
                    types.insert(*ind, set);
                    most_specific.insert(*ind, specific);
                }
            }
            Some(Realization {
                types,
                most_specific,
            })
        });
        let checkpoint = governed
            .as_partial()
            .filter(|r| !governed.is_completed() && !r.types.is_empty())
            .map(|r| Checkpoint {
                fingerprint: fingerprint(),
                state: CheckpointState::Realization {
                    types: r.types.clone(),
                    most_specific: r.most_specific.clone(),
                },
            });
        RealizeRun {
            governed,
            spend,
            checkpoint,
            resume,
        }
    }
}

/// The outcome of one [`Realize`] run.
#[derive(Debug)]
pub struct RealizeRun {
    pub governed: Governed<Realization>,
    /// The pooled spend of every worker, cache hit/miss counts
    /// included.
    pub spend: Spend,
    /// Emitted when the run did not complete but at least one
    /// individual is realized (restored ones included); `None` on
    /// completion.
    pub checkpoint: Option<Checkpoint>,
    pub resume: ResumeOutcome,
}

/// Validate realization checkpoint bytes: decode, checksum,
/// fingerprint, then require every mentioned individual to exist in the
/// ABox, every concept id to name a concept of the vocabulary, and each
/// individual's most specific types to be a subset of its types — a
/// forged image must not smuggle ids that rendering cannot resolve.
#[allow(clippy::type_complexity)]
fn restore_realization(
    bytes: &[u8],
    fingerprint: u64,
    abox: &ABox,
    voc: &Vocabulary,
) -> std::result::Result<
    (
        BTreeMap<Individual, BTreeSet<ConceptId>>,
        BTreeMap<Individual, BTreeSet<ConceptId>>,
    ),
    CheckpointError,
> {
    let ckp = Checkpoint::from_bytes_for(bytes, fingerprint)?;
    let CheckpointState::Realization {
        types,
        most_specific,
    } = ckp.state
    else {
        return Err(CheckpointError::Malformed("not a realization checkpoint"));
    };
    let known: BTreeSet<Individual> = abox.individuals().collect();
    if !types.keys().all(|i| known.contains(i)) {
        return Err(CheckpointError::Malformed(
            "checkpoint mentions individuals outside the ABox",
        ));
    }
    let n_concepts = voc.n_concepts();
    if !types
        .values()
        .flatten()
        .all(|c| (c.0 as usize) < n_concepts)
    {
        return Err(CheckpointError::Malformed(
            "checkpoint mentions concepts outside the vocabulary",
        ));
    }
    let covered = most_specific.len() == types.len()
        && most_specific
            .iter()
            .all(|(i, specific)| types.get(i).is_some_and(|t| specific.is_subset(t)));
    if !covered {
        return Err(CheckpointError::Malformed(
            "checkpoint's most specific types are not a subset of its types",
        ));
    }
    Ok((types, most_specific))
}

/// [`Realize`] at `threads` workers against `cache`, optionally reading
/// subsumption pairs from `index`; returns the governed realization and
/// the pooled [`Spend`].
#[allow(clippy::too_many_arguments)]
pub fn realize_parallel_governed_indexed(
    tbox: &TBox,
    abox: &ABox,
    voc: &Vocabulary,
    budget: &Budget,
    threads: usize,
    cache: Arc<SatCache>,
    index: Option<&HierarchyIndex>,
) -> (Governed<Realization>, Spend) {
    let run = Realize {
        index,
        ..Realize::new(tbox, abox, voc).threads(threads).cache(cache)
    }
    .run(budget);
    (run.governed, run.spend)
}

/// Filter an individual's entailed types down to the most specific
/// ones (drop any type that strictly subsumes another held type).
/// When an index is supplied and covers both atoms of a pair, the two
/// subsumption directions come from it in O(1) (one step charged, a
/// `dl.index.hit` count); otherwise two tableau sat calls decide them.
fn most_specific_of_set(
    reasoner: &mut Tableau,
    meter: &mut Meter,
    set: &BTreeSet<ConceptId>,
    index: Option<&HierarchyIndex>,
) -> std::result::Result<BTreeSet<ConceptId>, Interrupt> {
    let mut specific = BTreeSet::new();
    for &c in set {
        let mut dominated = false;
        for &d in set {
            if d == c {
                continue;
            }
            let indexed = index.and_then(|idx| Some((idx.subsumes(c, d)?, idx.subsumes(d, c)?)));
            let (c_subsumes_d, d_subsumes_c) = match indexed {
                Some(pair) => {
                    meter.charge(1)?;
                    meter.count("dl.index.hit", 1);
                    pair
                }
                None => {
                    let cd = !reasoner.sat_metered(
                        &Concept::and(vec![Concept::atom(d), Concept::not(Concept::atom(c))]),
                        meter,
                    )?;
                    let dc = !reasoner.sat_metered(
                        &Concept::and(vec![Concept::atom(c), Concept::not(Concept::atom(d))]),
                        meter,
                    )?;
                    (cd, dc)
                }
            };
            if c_subsumes_d && !d_subsumes_c {
                dominated = true;
                break;
            }
        }
        if !dominated {
            specific.insert(c);
        }
    }
    Ok(specific)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{vehicles_tbox, PaperVocab};

    fn realize(t: &TBox, abox: &ABox, voc: &Vocabulary) -> Realization {
        Realize::new(t, abox, voc)
            .run(&Budget::unlimited())
            .governed
            .expect_completed("unlimited")
    }

    #[test]
    fn beetle_realizes_as_a_car() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let mut abox = ABox::new();
        let beetle = abox.individual("beetle");
        abox.assert_concept(beetle, Concept::atom(p.car));
        let r = realize(&t, &abox, &p.voc);
        // Entailed types: car, motorvehicle, roadvehicle.
        assert!(r.is_type(beetle, p.car));
        assert!(r.is_type(beetle, p.motorvehicle));
        assert!(r.is_type(beetle, p.roadvehicle));
        assert!(!r.is_type(beetle, p.pickup));
        // Most specific: just car.
        assert_eq!(
            r.most_specific_of(beetle),
            [p.car].into_iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn role_assertions_contribute_types() {
        let p = PaperVocab::new();
        let mut t = vehicles_tbox(&p);
        // Anything that uses gasoline is a motorvehicle (a definition
        // the base TBox lacks — add the converse for this test).
        t.subsume(
            Concept::exists(p.uses, Concept::atom(p.gasoline)),
            Concept::atom(p.motorvehicle),
        );
        let mut abox = ABox::new();
        let mystery = abox.individual("mystery");
        let fuel = abox.individual("fuel");
        abox.assert_concept(fuel, Concept::atom(p.gasoline));
        abox.assert_role(mystery, p.uses, fuel);
        let r = realize(&t, &abox, &p.voc);
        assert!(r.is_type(mystery, p.motorvehicle));
        assert!(!r.is_type(mystery, p.car));
    }

    #[test]
    fn unasserted_individuals_have_no_named_types() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let mut abox = ABox::new();
        let thing = abox.individual("thing");
        // Must be mentioned somehow; an empty assertion set means no
        // entailed named concepts.
        abox.assert_concept(thing, Concept::Top);
        let r = realize(&t, &abox, &p.voc);
        assert!(r.types_of(thing).is_empty());
        assert!(r.most_specific_of(thing).is_empty());
    }

    #[test]
    fn render_lists_most_specific_names() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let mut abox = ABox::new();
        let beetle = abox.individual("beetle");
        abox.assert_concept(beetle, Concept::atom(p.car));
        let r = realize(&t, &abox, &p.voc);
        let s = r.render(&abox, &p.voc);
        assert!(s.contains("beetle: car"));
    }
}
