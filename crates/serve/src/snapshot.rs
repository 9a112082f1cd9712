//! Epoch-versioned snapshot store: the interned TBoxes the server
//! answers against, hot-swappable without blocking in-flight queries.
//!
//! A [`Snapshot`] is immutable once installed: a name, the parsed
//! [`TBox`], its [`Vocabulary`], the TBox fingerprint (the batching
//! key), and the store **epoch** at install time. The store maps names
//! to `Arc<Snapshot>`; a reload builds the new snapshot entirely
//! off-lock, then swaps the `Arc` under a short write lock. Queries
//! that resolved the old `Arc` keep reasoning against it — the old
//! snapshot is freed when its last in-flight batch drops it. The epoch
//! travels in every response header, so a client can tell which
//! generation of an ontology answered.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use summa_dl::cache::{tbox_fingerprint, SatCache};
use summa_dl::classify::{ClassHierarchy, Classify};
use summa_dl::concept::Vocabulary;
use summa_dl::corpus::{animals_tbox, animals_tbox_repaired, vehicles_tbox, PaperVocab};
use summa_dl::index::HierarchyIndex;
use summa_dl::parser::parse_axiom;
use summa_dl::tbox::{Axiom, TBox};
use summa_guard::{Budget, Governed};

/// Step ceiling for the install-time warm classification. A hostile
/// wire-loaded TBox must not be able to wedge `install` — if the
/// governed classifier exhausts this budget the snapshot simply ships
/// without a warm state and every query falls back to the prover.
const WARM_CLASSIFY_STEPS: u64 = 2_000_000;

/// The warm-path state precomputed at snapshot install time: the full
/// classification of the snapshot's TBox, its packed
/// [`HierarchyIndex`], and the epoch-shared [`SatCache`] (pre-warmed
/// by the classification itself) that fall-through prover queries
/// share across requests and tenants. Dropped atomically with its
/// snapshot generation on hot-swap — a stale index can never answer,
/// because requests resolve the whole `Arc<Snapshot>` at execute time.
#[derive(Debug)]
pub struct WarmState {
    /// The completed classification (serialized verbatim for warm
    /// `classify` answers).
    pub hierarchy: ClassHierarchy,
    /// Packed ancestor/descendant bitsets over the hierarchy's atoms.
    pub index: HierarchyIndex,
    /// Shared per-(fingerprint, epoch) sat cache; entries are
    /// checksummed as in the resilience layer.
    pub cache: Arc<SatCache>,
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

    /// Install (or replace) a snapshot. The snapshot — including its
    /// warm classification index — is built entirely before the write
    /// lock is taken; the lock only swaps one `Arc`.
    pub fn install(&self, name: &str, tbox: TBox, voc: Vocabulary) -> Arc<Snapshot> {
        let fingerprint = tbox_fingerprint(&tbox);
        let warm = build_warm(&tbox, &voc);
        let epoch = self.next_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let snap = Arc::new(Snapshot {
            name: name.to_string(),
            epoch,
            fingerprint,
            tbox,
            voc,
            warm,
        });
        self.by_name
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), Arc::clone(&snap));
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
/// [`WarmState`]. The classification runs under a bounded budget and
/// writes into the cache that becomes the snapshot's epoch-shared
/// [`SatCache`], so the warm state ships pre-warmed. Returns `None`
/// when classification did not complete or the hierarchy would not
/// index (partial/unclosed) — the snapshot then serves cold.
fn build_warm(tbox: &TBox, voc: &Vocabulary) -> Option<WarmState> {
    let cache = Arc::new(SatCache::new());
    let budget = Budget::new().with_steps(WARM_CLASSIFY_STEPS);
    let run = Classify::new(tbox, voc)
        .cache(Arc::clone(&cache))
        .run(&budget);
    let Governed::Completed(hierarchy) = run.governed else {
        return None;
    };
    let index = HierarchyIndex::build(&hierarchy)?;
    Some(WarmState {
        hierarchy,
        index,
        cache,
    })
}

/// Parse axiom text into a `(TBox, Vocabulary)` pair without touching
/// any store (used by [`SnapshotStore::install_axioms`] and tests).
pub fn parse_tbox(text: &str) -> Result<(TBox, Vocabulary), String> {
    let mut voc = Vocabulary::new();
    let mut tbox = TBox::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_axiom(line, &mut voc) {
            Ok(Axiom::Subsume { lhs, rhs }) => tbox.subsume(lhs, rhs),
            Ok(Axiom::Equiv { lhs, rhs }) => tbox.equiv(lhs, rhs),
            Ok(Axiom::Disjoint { a, b }) => tbox.disjoint(a, b),
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        }
    }
    Ok((tbox, voc))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(store
            .install_axioms("broken", "car < < vehicle")
            .is_err());
    }

    #[test]
    fn installs_build_an_intact_warm_state_per_generation() {
        let store = SnapshotStore::with_builtins();
        let v = store.get("vehicles").expect("vehicles");
        let warm = v.warm.as_ref().expect("warm built at install");
        assert!(warm.index.is_intact());
        assert_eq!(warm.index.len(), warm.hierarchy.concepts().count());
        // The install-time classification pre-warms the shared cache.
        assert!(warm.cache.stats().entries > 0);
        // A hot swap carries its own fresh warm state — distinct
        // cache, same answers for the same axioms.
        let v2 = store.install("vehicles", v.tbox.clone(), v.voc.clone());
        let warm2 = v2.warm.as_ref().expect("rebuilt on swap");
        assert!(!Arc::ptr_eq(&warm.cache, &warm2.cache));
        assert_eq!(warm.index, warm2.index);
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
}
