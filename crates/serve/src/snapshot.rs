//! Epoch-versioned snapshot store: the interned TBoxes the server
//! answers against, hot-swappable without blocking in-flight queries.
//!
//! A [`Snapshot`] is immutable once installed: a name, the parsed
//! [`TBox`], its [`Vocabulary`], the TBox fingerprint (the batching
//! key), and the store **epoch** at install time. The store maps names
//! to `Arc<Snapshot>`; a reload builds the new snapshot off-lock, then
//! draws its epoch and swaps the `Arc` under a short write lock.
//! Queries that resolved the old `Arc` keep reasoning against it — the
//! old snapshot is freed when its last in-flight batch drops it. The
//! epoch travels in every response header, so a client can tell which
//! generation of an ontology answered.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use summa_dl::cache::{tbox_fingerprint, SatCache};
use summa_dl::classify::Classify;
use summa_dl::concept::Vocabulary;
use summa_dl::corpus::{animals_tbox, animals_tbox_repaired, vehicles_tbox, PaperVocab};
use summa_dl::el::ElClassifier;
use summa_dl::index::HierarchyIndex;
use summa_dl::parser::parse_axiom_text;
use summa_dl::tbox::TBox;
use summa_guard::{Budget, Governed};

/// Step ceiling for the install-time warm classification. A hostile
/// wire-loaded TBox must not be able to wedge `install` — if the
/// governed classifier exhausts this budget the snapshot simply ships
/// without a warm state and every query falls back to the prover.
/// Both engines pay at least one step per pair of the hierarchy they
/// build (the tableau per grid cell, EL saturation per named pair of
/// its read-out), so this also caps a warm hierarchy at 2M pairs.
const WARM_CLASSIFY_STEPS: u64 = 2_000_000;

/// Memory ceiling, in `u64` words (4M words = 32 MiB), for the bit
/// matrices of an EL warm build. The unit is EL saturation's own: a
/// word of bit matrix, not a tableau node, so this ceiling sits on a
/// budget that only EL work draws on. The matrices are quadratic in
/// the TBox's internal atoms while EL steps grow only with derived
/// facts, so the step ceiling alone does not bound them. Saturation
/// charges them before allocating; a TBox over this ceiling ships
/// cold, as on step exhaustion. The [`HierarchyIndex`] built from a
/// completed run is no larger than the charged matrices.
const WARM_EL_WORDS: u64 = 4 << 20;

/// Which classifier built a snapshot's [`WarmState`]: install picks it
/// from the TBox's fragment, never from configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmEngine {
    /// EL saturation, for a TBox [`ElClassifier::new`] accepts.
    El,
    /// The tableau, for every other TBox.
    Tableau,
}

/// The warm-path state precomputed at snapshot install time: the full
/// classification of the snapshot's TBox, held once, as its packed
/// [`HierarchyIndex`] (warm `classify` serializes its verified rows),
/// and the epoch-shared [`SatCache`] that fall-through prover
/// queries share across requests and tenants. Dropped atomically with
/// its snapshot generation on hot-swap — a stale index can never
/// answer, because requests resolve the whole `Arc<Snapshot>` at
/// execute time.
#[derive(Debug)]
pub struct WarmState {
    /// The completed classification, packed into checksummed ancestor
    /// rows over the TBox's atoms.
    pub index: HierarchyIndex,
    /// Shared per-(fingerprint, epoch) sat cache; entries are
    /// checksummed as in the resilience layer. Pre-warmed by a tableau
    /// classification, empty after EL saturation (which asks no
    /// satisfiability questions).
    pub cache: Arc<SatCache>,
    /// The classifier that computed the indexed hierarchy.
    pub engine: WarmEngine,
}

/// One immutable generation of a named ontology.
#[derive(Debug)]
pub struct Snapshot {
    pub name: String,
    /// Store epoch at install time; strictly increases across installs.
    pub epoch: u64,
    /// [`tbox_fingerprint`] of the TBox — requests against the same
    /// fingerprint+epoch are batchable.
    pub fingerprint: u64,
    pub tbox: TBox,
    pub voc: Vocabulary,
    /// `None` when the install-time classification exhausted its step
    /// ceiling (or the partial hierarchy was unclosed) — such
    /// snapshots serve every query cold.
    pub warm: Option<WarmState>,
}

/// The server's snapshot registry.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    by_name: RwLock<BTreeMap<String, Arc<Snapshot>>>,
    next_epoch: AtomicU64,
}

impl SnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store pre-loaded with the paper's corpus ontologies:
    /// `vehicles`, `animals` (incoherent as published), and
    /// `animals-repaired`.
    pub fn with_builtins() -> Self {
        let store = Self::new();
        let p = PaperVocab::new();
        store.install("vehicles", vehicles_tbox(&p), p.voc.clone());
        store.install("animals", animals_tbox(&p), p.voc.clone());
        store.install("animals-repaired", animals_tbox_repaired(&p), p.voc);
        store
    }

    /// Resolve a name to its current generation. The returned `Arc`
    /// stays valid across any later [`install`](Self::install) — hot
    /// swap never invalidates an in-flight query's snapshot.
    pub fn get(&self, name: &str) -> Option<Arc<Snapshot>> {
        self.by_name
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Installed snapshot names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.by_name
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// The epoch of the most recent install (0 when nothing was ever
    /// installed).
    pub fn current_epoch(&self) -> u64 {
        self.next_epoch.load(Ordering::SeqCst)
    }

    /// Install (or replace) a snapshot. Its contents, warm index
    /// included, are built before the write lock; the lock draws the
    /// epoch and swaps one `Arc`, so racing installs of one name publish
    /// in epoch order. The replaced generation is released off-lock.
    pub fn install(&self, name: &str, tbox: TBox, voc: Vocabulary) -> Arc<Snapshot> {
        let fingerprint = tbox_fingerprint(&tbox);
        let warm = build_warm(&tbox, &voc);
        let mut by_name = self.by_name.write().unwrap_or_else(PoisonError::into_inner);
        let snap = Arc::new(Snapshot {
            name: name.to_string(),
            epoch: self.next_epoch.fetch_add(1, Ordering::SeqCst) + 1,
            fingerprint,
            tbox,
            voc,
            warm,
        });
        let replaced = by_name.insert(name.to_string(), Arc::clone(&snap));
        drop(by_name);
        drop(replaced);
        snap
    }

    /// Parse axiom text (one axiom per line, `#` comments and blank
    /// lines ignored, [`summa_dl::parser`] grammar: `C < D` for
    /// subsumption, `C = D` for equivalence) into a fresh TBox and
    /// install it. Returns the parser's deterministic message on the
    /// first bad line.
    pub fn install_axioms(&self, name: &str, text: &str) -> Result<Arc<Snapshot>, String> {
        let (tbox, voc) = parse_tbox(text)?;
        Ok(self.install(name, tbox, voc))
    }
}

/// Classify once at install time and pack the result into a
/// [`WarmState`]. The TBox's fragment picks the engine. A TBox that
/// [`ElClassifier::new`] accepts is saturated under the step ceiling
/// and the [`WARM_EL_WORDS`] memory ceiling, its read-out charged one
/// step per named pair, and its completed rows packed straight into
/// the index ([`ElClassifier::index_metered`]: no hierarchy is built);
/// its shared cache starts empty. Any other TBox is classified by the
/// tableau under the step ceiling, writing into the cache that becomes
/// the snapshot's epoch-shared [`SatCache`], so the warm state ships
/// pre-warmed, and its hierarchy is indexed and dropped. On an EL TBox
/// both engines compute the same subsumption closure, so the index,
/// and every body served from it, is the same either way. Returns
/// `None` when classification did not complete or the hierarchy would
/// not index (partial/unclosed) — the snapshot then serves cold.
fn build_warm(tbox: &TBox, voc: &Vocabulary) -> Option<WarmState> {
    let cache = Arc::new(SatCache::new());
    let budget = Budget::new().with_steps(WARM_CLASSIFY_STEPS);
    let (index, engine) = match ElClassifier::new(tbox, voc) {
        Ok(mut el) => {
            let mut meter = budget.with_memory(WARM_EL_WORDS).meter();
            (el.index_metered(&mut meter).ok()?, WarmEngine::El)
        }
        Err(_) => {
            let run = Classify::new(tbox, voc)
                .cache(Arc::clone(&cache))
                .run(&budget);
            let Governed::Completed(hierarchy) = run.governed else {
                return None;
            };
            (HierarchyIndex::build(&hierarchy)?, WarmEngine::Tableau)
        }
    };
    Some(WarmState {
        index,
        cache,
        engine,
    })
}

/// Parse axiom text into a `(TBox, Vocabulary)` pair without touching
/// any store (used by [`SnapshotStore::install_axioms`] and tests):
/// [`parse_axiom_text`], its error as `line N: <parse error>`.
pub fn parse_tbox(text: &str) -> Result<(TBox, Vocabulary), String> {
    parse_axiom_text(text).map_err(|(line, e)| format!("line {line}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_FRAME;
    use summa_dl::classify::Classifier;
    use summa_dl::corpus::{animals_tbox_el, vehicles_tbox_el};
    use summa_dl::generate;
    use summa_guard::{ExhaustionReason, Interrupt};

    #[test]
    fn builtins_are_resolvable_and_epoch_increases() {
        let store = SnapshotStore::with_builtins();
        let v = store.get("vehicles").expect("vehicles");
        let a = store.get("animals").expect("animals");
        let r = store.get("animals-repaired").expect("repaired");
        assert!(store.get("nope").is_none());
        let mut epochs = [v.epoch, a.epoch, r.epoch];
        epochs.sort_unstable();
        assert_eq!(epochs, [1, 2, 3]);
        assert_eq!(store.current_epoch(), 3);
        assert_eq!(
            store.names(),
            vec!["animals", "animals-repaired", "vehicles"]
        );
    }

    #[test]
    fn install_axioms_parses_and_bumps_epoch() {
        let store = SnapshotStore::with_builtins();
        let before = store.current_epoch();
        let snap = store
            .install_axioms("tiny", "# a toy\ncar < vehicle\nbus < vehicle\n")
            .expect("parses");
        assert_eq!(snap.epoch, before + 1);
        assert_eq!(snap.tbox.len(), 2);
        assert!(snap.voc.find_concept("vehicle").is_some());
        assert!(store.install_axioms("broken", "car < < vehicle").is_err());
    }

    /// A bad line is reported by number, counting blank and comment
    /// lines, with the parser's message for the trimmed line.
    #[test]
    fn parse_errors_name_the_line() {
        assert_eq!(
            parse_tbox("a < b\n\n# c\n  x < < y \r\nz < a\n").unwrap_err(),
            "line 4: cannot parse 'x < < y' at byte 4: expected concept, got Some(Less)"
        );
        let (tbox, voc) = parse_tbox("# only\r\n\r\nb < a\r\n").expect("parses");
        assert_eq!(tbox.len(), 1);
        assert_eq!(voc.find_concept("b").map(|c| c.0), Some(0));
    }

    #[test]
    fn installs_build_an_intact_warm_state_per_generation() {
        let store = SnapshotStore::with_builtins();
        let v = store.get("vehicles").expect("vehicles");
        let warm = v.warm.as_ref().expect("warm built at install");
        assert!(warm.index.is_intact());
        let tableau = Classify::new(&v.tbox, &v.voc)
            .run(&Budget::unlimited())
            .governed
            .expect_completed("vehicles classifies");
        assert_eq!(Some(&warm.index), HierarchyIndex::build(&tableau).as_ref());
        // Outside EL the tableau classifies, pre-warming the shared cache.
        assert_eq!(warm.engine, WarmEngine::Tableau);
        assert!(warm.cache.stats().entries > 0);
        // A hot swap carries its own fresh warm state — distinct
        // cache, same answers for the same axioms.
        let v2 = store.install("vehicles", v.tbox.clone(), v.voc.clone());
        let warm2 = v2.warm.as_ref().expect("rebuilt on swap");
        assert!(!Arc::ptr_eq(&warm.cache, &warm2.cache));
        assert_eq!(warm.index, warm2.index);
    }

    /// An EL TBox warms by saturation: the same hierarchy the tableau
    /// computes, an intact index, and an empty shared cache.
    #[test]
    fn el_tboxes_warm_by_saturation() {
        let store = SnapshotStore::new();
        let (voc, tbox, _) = generate::diamond(8);
        let snap = store.install("told", tbox, voc);
        let warm = snap.warm.as_ref().expect("diamond(8) warms");
        assert_eq!(warm.engine, WarmEngine::El);
        assert!(warm.index.is_intact());
        assert_eq!(warm.cache.stats().entries, 0);
        let tableau = Classify::new(&snap.tbox, &snap.voc)
            .run(&Budget::new().with_steps(WARM_CLASSIFY_STEPS))
            .governed
            .expect_completed("diamond(8) classifies");
        assert_eq!(Some(&warm.index), HierarchyIndex::build(&tableau).as_ref());

        let p = PaperVocab::new();
        for tbox in [vehicles_tbox_el(&p), animals_tbox_el(&p)] {
            let snap = store.install("paper", tbox, p.voc.clone());
            let warm = snap.warm.as_ref().expect("EL corpus warms");
            assert_eq!(warm.engine, WarmEngine::El);
        }
    }

    /// The EL paper structures, `copies` times over under a shared
    /// upper taxonomy: the shape of a wide EL revision served by the
    /// hot-swap benchmark.
    fn paper_el_text(copies: usize) -> String {
        let mut t = String::from("artifact < entity\norganism < entity\n");
        for i in 0..copies {
            let n = |base: &str| format!("{base}_{i}");
            let (car, pickup) = (n("car"), n("pickup"));
            let (motor, road) = (n("motorvehicle"), n("roadvehicle"));
            let (dog, horse) = (n("dog"), n("horse"));
            let (animal, quad) = (n("animal"), n("quadruped"));
            t += &format!("{car} < {motor} & {road} & some size.small\n");
            t += &format!("{pickup} < {motor} & {road} & some size.big\n");
            t += &format!("{motor} < some uses.{}\n", n("gasoline"));
            t += &format!("{road} < some has.{}\n", n("wheel"));
            t += &format!("{motor} < artifact\n{road} < artifact\n");
            t += &format!("{dog} < {animal} & {quad} & some size.small\n");
            t += &format!("{horse} < {animal} & {quad} & some size.big\n");
            t += &format!("{animal} < some ingests.food\n");
            t += &format!("{quad} < some has.{}\n", n("leg"));
            t += &format!("{animal} < organism\n");
        }
        t
    }

    /// The hot-swap benchmark's EL revisions warm by saturation: a
    /// wide one (32 paper copies) and a deep one (`diamond(7)` under
    /// the upper taxonomy, plus 8 copies).
    #[test]
    fn swap_shaped_el_revisions_warm() {
        let mut deep = String::new();
        for k in 1..=7 {
            for i in 0..1usize << k {
                let (p1, p2) = (i / 2, (i / 2 + 1) % (1 << (k - 1)));
                deep += &format!("D{k}_{i} < D{}_{p1}\n", k - 1);
                if p2 != p1 {
                    deep += &format!("D{k}_{i} < D{}_{p2}\n", k - 1);
                }
            }
        }
        deep += "D0_0 < entity\n";
        deep += &paper_el_text(8);
        let store = SnapshotStore::new();
        for text in [paper_el_text(32), deep] {
            let snap = store.install_axioms("swap", &text).expect("parses");
            assert!(snap.tbox.atoms().len() > 300);
            let warm = snap.warm.as_ref().expect("warms");
            assert_eq!(warm.engine, WarmEngine::El);
        }
    }

    /// The memory ceiling: 12,000 `aN < some r.bN` lines are 24,000
    /// named atoms in about 250 KB of text, well under the frame cap,
    /// but saturation's matrices would need far more than
    /// `WARM_EL_WORDS`, so the TBox is refused before any saturation
    /// step and ships cold.
    #[test]
    fn el_tbox_over_the_memory_ceiling_installs_cold() {
        let text: String = (0..12_000)
            .map(|i| format!("a{i} < some r.b{i}\n"))
            .collect();
        assert!(text.len() < MAX_FRAME as usize);
        let store = SnapshotStore::new();
        let snap = store.install_axioms("wide", &text).expect("parses");
        assert_eq!(snap.tbox.atoms().len(), 24_000);
        assert!(snap.warm.is_none(), "over the ceiling ships cold");

        let budget = Budget::new()
            .with_steps(WARM_CLASSIFY_STEPS)
            .with_memory(WARM_EL_WORDS);
        let mut el = ElClassifier::new(&snap.tbox, &snap.voc).expect("in fragment");
        let mut meter = budget.meter();
        assert_eq!(
            el.saturate_metered(&mut meter),
            Err(Interrupt::Exhausted(ExhaustionReason::Memory))
        );
        assert_eq!(meter.steps(), 0, "refused before any saturation step");
        let governed = ElClassifier::new(&snap.tbox, &snap.voc)
            .expect("in fragment")
            .classify_governed(&snap.tbox, &snap.voc, &budget);
        assert!(matches!(
            governed,
            Governed::Exhausted {
                reason: ExhaustionReason::Memory,
                ..
            }
        ));
        let mut el = ElClassifier::new(&snap.tbox, &snap.voc).expect("in fragment");
        assert_eq!(
            el.index_metered(&mut budget.meter()),
            Err(Interrupt::Exhausted(ExhaustionReason::Memory)),
            "the install path refuses the rows the same way"
        );
    }

    /// The step ceiling bounds the hierarchy as well as saturation.
    /// `top < bottom` and 11,200 `aN < u` lines are 11,203 atoms whose
    /// matrices fit `WARM_EL_WORDS` and whose saturation takes a few
    /// steps per atom, but ⊥ puts every name in every row: about 125M
    /// pairs, each charged one step before the read-out is built, so
    /// the TBox ships cold. A small inconsistent TBox still warms.
    #[test]
    fn inconsistent_el_tbox_over_the_step_ceiling_installs_cold() {
        let text = |n: usize| -> String {
            let lines = (0..n).map(|i| format!("a{i} < u\n"));
            std::iter::once("top < bottom\n".to_string())
                .chain(lines)
                .collect()
        };
        let big = text(11_200);
        assert!(big.len() < MAX_FRAME as usize);
        let store = SnapshotStore::new();
        let snap = store.install_axioms("inconsistent", &big).expect("parses");
        assert_eq!(snap.tbox.atoms().len(), 11_201);
        assert!(snap.warm.is_none(), "over the step ceiling ships cold");

        let budget = Budget::new()
            .with_steps(WARM_CLASSIFY_STEPS)
            .with_memory(WARM_EL_WORDS);
        let mut el = ElClassifier::new(&snap.tbox, &snap.voc).expect("in fragment");
        let mut meter = budget.meter();
        assert_eq!(
            el.saturate_metered(&mut meter),
            Ok(()),
            "fits both ceilings"
        );
        assert!(
            meter.steps() < 100_000,
            "{} saturation steps",
            meter.steps()
        );
        let governed = ElClassifier::new(&snap.tbox, &snap.voc)
            .expect("in fragment")
            .classify_governed(&snap.tbox, &snap.voc, &budget);
        let Governed::Exhausted {
            reason: ExhaustionReason::Steps,
            partial: Some(partial),
        } = governed
        else {
            panic!("the read-out exceeds the step ceiling");
        };
        assert!(partial.n_pairs() as u64 <= WARM_CLASSIFY_STEPS);
        let mut el = ElClassifier::new(&snap.tbox, &snap.voc).expect("in fragment");
        assert_eq!(
            el.index_metered(&mut budget.meter()),
            Err(Interrupt::Exhausted(ExhaustionReason::Steps)),
            "the install path charges the pairs before packing them"
        );

        let small = store.install_axioms("small", &text(100)).expect("parses");
        let warm = small.warm.as_ref().expect("101² pairs fit the ceiling");
        assert_eq!(warm.engine, WarmEngine::El);
        let rows = warm.index.verified_rows().expect("intact");
        assert_eq!(rows.map(|(_, up)| up.len()).sum::<usize>(), 101 * 101);
        let tableau = Classify::new(&small.tbox, &small.voc)
            .run(&Budget::new().with_steps(WARM_CLASSIFY_STEPS))
            .governed
            .expect_completed("classifies");
        assert_eq!(Some(&warm.index), HierarchyIndex::build(&tableau).as_ref());
    }

    #[test]
    fn hot_swap_keeps_old_generation_alive() {
        let store = SnapshotStore::new();
        store.install_axioms("t", "a < b").expect("v1");
        let old = store.get("t").expect("v1 resolved");
        store.install_axioms("t", "a < b\nb < c").expect("v2");
        let new = store.get("t").expect("v2 resolved");
        // The in-flight handle still sees generation 1 unchanged.
        assert_eq!(old.tbox.len(), 1);
        assert_eq!(new.tbox.len(), 2);
        assert!(new.epoch > old.epoch);
        assert_ne!(old.fingerprint, new.fingerprint);
    }

    /// Racing installs of one name publish in epoch order: once an
    /// install returns, the name never reads back an older generation.
    #[test]
    fn racing_installs_of_one_name_never_publish_an_older_epoch() {
        let store = SnapshotStore::new();
        let (tbox, voc) = parse_tbox("a < b").expect("parses");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..2_000 {
                        let mine = store.install("t", tbox.clone(), voc.clone()).epoch;
                        let seen = store.get("t").expect("installed").epoch;
                        assert!(seen >= mine, "installed epoch {mine}, read back {seen}");
                    }
                });
            }
        });
        assert_eq!(store.get("t").expect("installed").epoch, 8_000);
        assert_eq!(store.current_epoch(), 8_000);
    }
}
