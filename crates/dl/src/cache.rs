//! A shared, sharded satisfiability cache.
//!
//! Classification grids ask thousands of subsumption queries against
//! one TBox, and parallel workers each hold their own [`Tableau`]
//! clone — without sharing, every worker re-proves what a sibling just
//! proved. The [`SatCache`] is a sharded `RwLock` hash map keyed by
//! *(normalized-TBox hash, NNF query concept)* so one cache instance
//! can safely serve many reasoners, including reasoners bound to
//! different TBoxes.
//!
//! Only **completed** satisfiability answers are inserted (the tableau
//! never caches an interrupted search), so sharing the cache cannot
//! change any answer — it only changes how fast the answer arrives.
//! That invariant is what makes the differential tests
//! (parallel ≡ sequential) hold bit-for-bit.

use crate::concept::Concept;
use crate::fxhash::{fx_hash, FxBuildHasher, FxHasher};
use crate::tbox::TBox;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Shard maps are keyed with the Fx mixer too: the keys are our own
/// structures, not attacker input, and lookups sit on the hot path of
/// every shared-cache probe. Each entry stores its answer *and* an
/// [`entry_checksum`] over (key, answer): a flipped or poisoned entry
/// no longer matches its checksum and is evicted on read instead of
/// being served — degrading to a recompute, never to a wrong answer.
type ShardMap = HashMap<(u64, Concept), (bool, u64), FxBuildHasher>;

/// One shard: its map plus its own corruption counter. Hits and
/// misses are counted by the prober, on its meter
/// (`Tableau::sat_metered`), and reach the run's `Spend` from there. An
/// eviction happens inside [`SatCache::get`], where no meter sees it,
/// so `corruptions` stays the cache's own count, bumped on the shard at
/// the eviction itself.
#[derive(Debug, Default)]
struct Shard {
    map: RwLock<ShardMap>,
    corruptions: AtomicU64,
}

/// An exact snapshot of the cache's own figures, summed across shards
/// at the moment of the call. It holds no hit or miss tally: the
/// prober counts those on its meter (`Tableau::sat_metered`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Corrupted entries detected and evicted on read.
    pub corruptions: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// Integrity checksum of one cache entry, bound to its full key and
/// value. Any bit of the answer (or a cross-slot mixup of keys)
/// changes the checksum.
fn entry_checksum(tbox: u64, c: &Concept, sat: bool) -> u64 {
    fx_hash(&(0x53A7_CACE_u32, tbox, fx_hash(c), sat))
}

/// Number of independent shards. A power of two so shard selection is
/// a mask; 16 is plenty for the worker counts std::thread::scope will
/// realistically see.
const SHARDS: usize = 16;

/// Hash a TBox into the cache key space: every GCI is normalized to
/// NNF and hashed, and the per-axiom hashes are combined
/// order-independently, so two TBoxes that state the same axioms in a
/// different order share cache entries. The GCIs are borrowed from the
/// axioms, and a side is normalized only when it is not in NNF already
/// (`Concept::is_nnf`), so a TBox of atomic axioms is hashed without
/// building a concept.
pub fn tbox_fingerprint(tbox: &TBox) -> u64 {
    let mut acc: u64 = 0x5361_6e74_696e_6906; // arbitrary nonzero seed
    for (l, r) in tbox.gci_refs() {
        let mut h = DefaultHasher::new();
        hash_nnf(&l, &mut h);
        hash_nnf(r, &mut h);
        acc = acc.wrapping_add(h.finish());
    }
    acc
}

/// Hash `c.nnf()` into `h`, building it only when it differs from `c`.
fn hash_nnf(c: &Concept, h: &mut DefaultHasher) {
    if c.is_nnf() {
        c.hash(h);
    } else {
        c.nnf().hash(h);
    }
}

/// A concurrent satisfiability cache shared across reasoners and
/// threads. Cheap to clone behind an `Arc`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct SatCache {
    shards: Vec<Shard>,
}

impl SatCache {
    pub fn new() -> Self {
        SatCache {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        }
    }

    /// Shard selection uses the dependency-free Fx mixer
    /// ([`crate::fxhash`]) rather than SipHash: it is an order of
    /// magnitude cheaper per probe, and — having no per-process random
    /// key — it is *stable*, so a given `(fingerprint, concept)` pair
    /// always lands in the same shard across runs and processes (a
    /// property the key-stability unit test pins with golden values).
    /// The TBox *fingerprint* itself keeps its original `DefaultHasher`
    /// semantics; only the shard index changed hash functions.
    fn shard(&self, tbox: u64, c: &Concept) -> &Shard {
        let mut h = FxHasher::default();
        tbox.hash(&mut h);
        c.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// Look up a completed answer for `c` (already in NNF) under the
    /// TBox with fingerprint `tbox`. An entry whose checksum no longer
    /// matches (bit rot, injected poisoning) is *evicted, counted as a
    /// corruption and reported as a miss* — the caller recomputes, and
    /// the answer stays correct.
    pub fn get(&self, tbox: u64, c: &Concept) -> Option<bool> {
        let shard = self.shard(tbox, c);
        let key = (tbox, c.clone());
        let found = shard
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied();
        match found {
            Some((sat, sum)) if sum == entry_checksum(tbox, c, sat) => Some(sat),
            Some(_) => {
                // Corrupted entry: evict, count, fall back to recompute.
                shard.corruptions.fetch_add(1, Ordering::Relaxed);
                shard
                    .map
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&key);
                None
            }
            None => None,
        }
    }

    /// Record a **completed** answer. Concurrent inserts of the same
    /// key always carry the same value (the calculus is deterministic),
    /// so last-write-wins is harmless.
    pub fn insert(&self, tbox: u64, c: Concept, sat: bool) {
        let sum = entry_checksum(tbox, &c, sat);
        self.shard(tbox, &c)
            .map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((tbox, c), (sat, sum));
    }

    /// Record a *corrupted* answer: the stored boolean is flipped while
    /// the checksum still covers the true value — exactly the shape a
    /// stray bit-flip or a chaos-injected `poison` fault produces. The
    /// next [`get`](Self::get) detects the mismatch and recomputes.
    /// Used by the fault-injection path and the integrity tests.
    pub fn insert_poisoned(&self, tbox: u64, c: Concept, sat: bool) {
        let sum = entry_checksum(tbox, &c, sat);
        self.shard(tbox, &c)
            .map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((tbox, c), (!sat, sum));
    }

    /// One coherent snapshot of the corruption count plus the entry
    /// count. Each shard counts at the eviction (nothing is buffered
    /// per worker and drained at teardown), so the snapshot is exact
    /// even for a cache whose pool was just dropped.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for s in &self.shards {
            out.corruptions += s.corruptions.load(Ordering::Relaxed);
            out.entries += s.map.read().unwrap_or_else(PoisonError::into_inner).len();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::Vocabulary;

    #[test]
    fn fingerprint_is_order_independent() {
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let b = Concept::atom(voc.concept("B"));
        let c = Concept::atom(voc.concept("C"));
        let mut t1 = TBox::new();
        t1.subsume(a.clone(), b.clone());
        t1.subsume(b.clone(), c.clone());
        let mut t2 = TBox::new();
        t2.subsume(b.clone(), c.clone());
        t2.subsume(a.clone(), b.clone());
        assert_eq!(tbox_fingerprint(&t1), tbox_fingerprint(&t2));
        let mut t3 = TBox::new();
        t3.subsume(a, c);
        assert_ne!(tbox_fingerprint(&t1), tbox_fingerprint(&t3));
    }

    /// The fingerprint as it was computed before the borrowing walk:
    /// a copy of every GCI, each side normalized.
    fn reference_fingerprint(tbox: &TBox) -> u64 {
        let mut acc: u64 = 0x5361_6e74_696e_6906;
        for (l, r) in tbox.gcis() {
            let mut h = DefaultHasher::new();
            l.nnf().hash(&mut h);
            r.nnf().hash(&mut h);
            acc = acc.wrapping_add(h.finish());
        }
        acc
    }

    /// The fingerprint keys the batch queue, the shared cache and
    /// checkpoints, so the borrowing walk must give the reference's
    /// value on every TBox: the paper corpora, the generators, and
    /// axioms with ¬, ∀, ≥, ≤, ⊔, ≡ and disjointness, in and out of
    /// NNF.
    #[test]
    fn fingerprint_equals_the_reference() {
        use crate::corpus::{
            animals_tbox, animals_tbox_el, animals_tbox_repaired, vehicles_tbox, vehicles_tbox_el,
            PaperVocab,
        };
        use crate::generate;
        let p = PaperVocab::new();
        let mut tboxes = vec![
            vehicles_tbox(&p),
            animals_tbox(&p),
            animals_tbox_repaired(&p),
            vehicles_tbox_el(&p),
            animals_tbox_el(&p),
            TBox::new(),
        ];
        for depth in [1, 4, 8] {
            tboxes.push(generate::diamond(depth).1);
        }
        for seed in [0, 7, 1405] {
            tboxes.push(generate::random_el(12, 2, 16, seed).1);
        }
        tboxes.push(generate::pigeonhole_tbox(3, 2).1);
        tboxes.push(generate::chain(40).1);

        let mut voc = Vocabulary::new();
        let [a, b, c] = ["A", "B", "C"].map(|n| Concept::atom(voc.concept(n)));
        let r = voc.role("r");
        let mut t = TBox::new();
        t.subsume(Concept::not(a.clone()), Concept::forall(r, b.clone()));
        t.subsume(
            Concept::at_least(2, r, a.clone()),
            Concept::at_most(1, r, Concept::not(c.clone())),
        );
        t.equiv(a.clone(), Concept::or(vec![b.clone(), c.clone()]));
        t.disjoint(b.clone(), c.clone());
        t.subsume(
            Concept::not(Concept::and(vec![a.clone(), Concept::exists(r, b.clone())])),
            Concept::not(Concept::at_most(3, r, Concept::Top)),
        );
        // Raw constructor shapes that `and`/`or` would normalize.
        t.subsume(
            Concept::And(vec![c.clone(), b.clone(), b.clone()]),
            Concept::Or(vec![Concept::Bottom, a.clone()]),
        );
        t.equiv(Concept::Not(Box::new(Concept::Top)), Concept::And(vec![a]));
        tboxes.push(t);

        for (i, t) in tboxes.iter().enumerate() {
            assert_eq!(tbox_fingerprint(t), reference_fingerprint(t), "TBox {i}");
        }
    }

    #[test]
    fn get_insert_and_counters() {
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let cache = SatCache::new();
        assert_eq!(cache.get(7, &a), None);
        cache.insert(7, a.clone(), true);
        assert_eq!(cache.get(7, &a), Some(true));
        // Different TBox fingerprint: separate entry.
        assert_eq!(cache.get(8, &a), None);
        assert_eq!(
            cache.stats(),
            CacheStats {
                corruptions: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn stats_are_exact_without_any_teardown_drain() {
        // The corruption counter lives on the shards and is bumped at
        // the eviction, so a snapshot taken right after short-lived
        // threads finish is already exact: nothing waits for a
        // teardown drain. Each thread poisons and probes keys of its
        // own while all of them probe the shared healthy entries.
        use std::sync::Arc;
        let mut voc = Vocabulary::new();
        let atoms: Vec<Concept> = (0..32)
            .map(|i| Concept::atom(voc.concept(&format!("S{i}"))))
            .collect();
        let cache = Arc::new(SatCache::new());
        for (i, c) in atoms.iter().enumerate() {
            cache.insert(3, c.clone(), i % 2 == 0);
        }
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let cache = Arc::clone(&cache);
                let atoms = &atoms;
                scope.spawn(move || {
                    for (i, c) in atoms.iter().enumerate() {
                        assert_eq!(cache.get(3, c), Some(i % 2 == 0)); // hit
                        assert_eq!(cache.get(4, c), None); // miss (other fingerprint)
                        cache.insert_poisoned(10 + w, c.clone(), true);
                        assert_eq!(cache.get(10 + w, c), None); // evicted
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.corruptions, 4 * 32);
        assert_eq!(s.entries, 32);
    }

    #[test]
    fn shard_keys_are_stable() {
        use crate::fxhash::fx_hash;
        // The Fx mixer has no per-process random state, so these values
        // are golden: if they ever change, shard assignment changed and
        // any persisted assumptions about key placement break. (SipHash
        // via `DefaultHasher` could never pass this test — its key is
        // randomized per process in principle, and its output is not
        // part of std's stability guarantees.)
        assert_eq!(fx_hash(&42u64), 0x5e77_c80c_6b95_bc72);
        assert_eq!(fx_hash(&(7u64, 9u64)), 0x899b_8573_6757_f606);

        // And the composite (fingerprint, concept) shard key is stable
        // across independently constructed caches: same key, same
        // shard, every time.
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let deep = Concept::not(Concept::and(vec![
            a.clone(),
            Concept::exists(voc.role("r"), a.clone()),
        ]));
        let c1 = SatCache::new();
        let c2 = SatCache::new();
        for (fp, c) in [(0u64, &a), (7, &a), (7, &deep), (u64::MAX, &deep)] {
            let s1 = c1.shard(fp, c) as *const _ as usize - c1.shards.as_ptr() as usize;
            let s2 = c2.shard(fp, c) as *const _ as usize - c2.shards.as_ptr() as usize;
            assert_eq!(s1, s2, "shard index must be process-independent");
        }
    }

    #[test]
    fn poisoned_entries_are_detected_evicted_and_recomputed() {
        let mut voc = Vocabulary::new();
        let a = Concept::atom(voc.concept("A"));
        let cache = SatCache::new();

        // A poisoned entry (flipped answer, stale checksum) is never
        // served: the read detects the mismatch, evicts, and reports a
        // miss so the caller recomputes.
        cache.insert_poisoned(7, a.clone(), true);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.get(7, &a), None, "poisoned answer must not be served");
        assert_eq!(cache.stats().corruptions, 1);
        assert_eq!(cache.stats().entries, 0, "corrupt entry evicted");

        // The recomputed answer re-enters cleanly and is served again.
        cache.insert(7, a.clone(), true);
        assert_eq!(cache.get(7, &a), Some(true));
        assert_eq!(cache.stats().corruptions, 1, "no further corruption seen");

        // A healthy entry under a different key is unaffected.
        let b = Concept::atom(voc.concept("B"));
        cache.insert(7, b.clone(), false);
        assert_eq!(cache.get(7, &b), Some(false));
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let mut voc = Vocabulary::new();
        let atoms: Vec<Concept> = (0..64)
            .map(|i| Concept::atom(voc.concept(&format!("A{i}"))))
            .collect();
        let cache = Arc::new(SatCache::new());
        std::thread::scope(|scope| {
            for w in 0..4 {
                let cache = Arc::clone(&cache);
                let atoms = &atoms;
                scope.spawn(move || {
                    for (i, c) in atoms.iter().enumerate() {
                        cache.insert(0, c.clone(), (i + w) % 2 == 0);
                        assert!(cache.get(0, c).is_some(), "a healthy entry answers");
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 64);
    }
}
