//! A precomputed classification index: the reflexive–transitive
//! subsumption closure over named concepts, packed into u64-word
//! bitsets for O(1) `subsumes` answers with zero tableau calls.
//!
//! A [`HierarchyIndex`] is built once, at snapshot install in the
//! serving layer, from a **completed** classification, and then
//! answers the told fragment of the reasoning services by lookup:
//!
//! * `sup ⊒ sub` between two *indexed* atoms — one bit test;
//! * every row at once, for warm `classify` — one check of every row
//!   ([`HierarchyIndex::verified_rows`]), then one scan.
//!
//! There are two ways in, and one constructor behind both lays out
//! the rows and computes their checksums. The tableau's
//! [`ClassHierarchy`] goes through [`HierarchyIndex::build`]. A
//! saturated EL classifier packs its subsumer rows straight in
//! ([`ElClassifier::index_metered`](crate::el::ElClassifier::index_metered)),
//! with no hierarchy in between: its user atoms are numbered in
//! `ConceptId` order, so saturation row `i` is index row `i` cut to
//! the named words.
//!
//! Queries mentioning complex concepts, or atoms interned after the
//! index was built, are not answerable here ([`HierarchyIndex::subsumes`]
//! returns `None`) and fall through to the prover. Because every bit
//! in the index was itself decided by a governed classifier — the
//! tableau traversal, differential-tested byte-identical against
//! brute-force tableau calls, or on an EL TBox EL saturation,
//! differential-tested against the tableau — an index answer is
//! *exactly* the prover's answer, never an approximation.
//!
//! Like the resilience layer's `SatCache` entries, the index carries
//! checksums — one per row, each covering `words`, the rank, the
//! rank's atom and the rank's row of the ancestor matrix. Every lookup
//! verifies the rows it reads before it answers and returns `None` on
//! a mismatch, so the caller proves instead; no answer is ever built
//! from a word or atom entry that failed its check. A lookup costs two
//! row checks, not a pass over the whole index.
//! [`HierarchyIndex::is_intact`] checks every row.

use crate::classify::ClassHierarchy;
use crate::concept::ConceptId;
use crate::fxhash::FxHasher;
use std::hash::Hasher;

/// Magic seed folded into the row checksums so they cannot collide
/// with the sat-cache entry checksums over the same data.
const INDEX_CHECKSUM_SEED: u64 = 0x1D0_5EED_u64;

/// A reflexive–transitive-closure subsumption index over interned atom
/// handles. Immutable once built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyIndex {
    /// Indexed atoms, sorted ascending; row/bit positions are ranks in
    /// this vector.
    atoms: Vec<ConceptId>,
    /// Words per row: `ceil(atoms.len() / 64)`.
    words: usize,
    /// Row `i`, bit `j`: `atoms[j]` subsumes `atoms[i]` (ancestors,
    /// reflexive).
    ancestors: Vec<u64>,
    /// `row_checksums[i]` covers `words`, rank `i`, `atoms[i]` and row
    /// `i` of `ancestors`.
    row_checksums: Vec<u64>,
}

impl HierarchyIndex {
    /// Build from a classification result. Returns `None` when the
    /// hierarchy is not closed over its own subsumers (a partial
    /// hierarchy from an interrupted run mentions subsumers that have
    /// no row of their own) — an index over an unclosed hierarchy
    /// could answer `Some(false)` for a pair the prover would affirm,
    /// so it must never be built.
    pub fn build(h: &ClassHierarchy) -> Option<HierarchyIndex> {
        let atoms: Vec<ConceptId> = h.concepts().collect(); // BTreeMap keys: sorted
        let n = atoms.len();
        let words = n.div_ceil(64);
        let rank = |c: ConceptId| atoms.binary_search(&c).ok();
        let mut ancestors = vec![0u64; n * words];
        for (i, &c) in atoms.iter().enumerate() {
            for &s in h.subsumers_ref(c)? {
                let j = rank(s)?;
                ancestors[i * words + j / 64] |= 1u64 << (j % 64);
            }
        }
        Some(HierarchyIndex::from_rows(atoms, ancestors))
    }

    /// Seal ancestor rows laid out rank by rank over `atoms` (sorted
    /// ascending), `ceil(atoms.len() / 64)` words per row, by computing
    /// their checksums. The one constructor behind
    /// [`build`](Self::build) and the EL install path, which packs
    /// saturation rows straight in.
    pub(crate) fn from_rows(atoms: Vec<ConceptId>, ancestors: Vec<u64>) -> HierarchyIndex {
        let words = atoms.len().div_ceil(64);
        debug_assert_eq!(ancestors.len(), atoms.len() * words);
        let mut idx = HierarchyIndex {
            atoms,
            words,
            ancestors,
            row_checksums: Vec::new(),
        };
        idx.row_checksums = (0..idx.atoms.len())
            .map(|i| idx.row(i).expect("rows are laid out rank by rank").1)
            .collect();
        idx
    }

    /// Rank `i`'s ancestor row, with the checksum of what rank `i`
    /// holds now. `None` when rank `i` or `words` no longer address a
    /// row inside the matrix.
    fn row(&self, i: usize) -> Option<(&[u64], u64)> {
        let start = i.checked_mul(self.words)?;
        let up = self.ancestors.get(start..start.checked_add(self.words)?)?;
        let mut h = FxHasher::default();
        h.write_u64(INDEX_CHECKSUM_SEED);
        h.write_usize(self.words);
        h.write_usize(i);
        h.write_u32(self.atoms.get(i)?.0);
        for &w in up {
            h.write_u64(w);
        }
        Some((up, h.finish()))
    }

    /// Rank `i`'s ancestor row, provided everything its checksum
    /// covers still matches it.
    fn verified(&self, i: usize) -> Option<&[u64]> {
        let (up, sum) = self.row(i)?;
        (self.row_checksums.get(i) == Some(&sum)).then_some(up)
    }

    /// Does every row still match its checksum? A mismatch means
    /// silent corruption. Lookups verify the rows they read on their
    /// own.
    pub fn is_intact(&self) -> bool {
        self.row_checksums.len() == self.atoms.len()
            && (0..self.atoms.len()).all(|i| self.verified(i).is_some())
    }

    /// Number of indexed atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The indexed atoms, ascending.
    pub fn atoms(&self) -> &[ConceptId] {
        &self.atoms
    }

    /// Is this atom covered by the index? Atoms interned after the
    /// snapshot was classified (query-local names) are not.
    pub fn contains(&self, c: ConceptId) -> bool {
        self.atoms.binary_search(&c).is_ok()
    }

    /// Does `sup` subsume `sub`? `None` when either atom is outside
    /// the index or either atom's row fails its checksum (the caller
    /// falls through to the prover); `Some` is the prover's own
    /// answer, by construction.
    pub fn subsumes(&self, sup: ConceptId, sub: ConceptId) -> Option<bool> {
        let i = self.atoms.binary_search(&sub).ok()?;
        let j = self.atoms.binary_search(&sup).ok()?;
        // Row `j` vouches that `sup` really sits at rank `j`, the bit
        // read from row `i`.
        let up = self.verified(i)?;
        self.verified(j)?;
        Some(up.get(j / 64)? & (1u64 << (j % 64)) != 0)
    }

    /// Every row in rank order, each as its atom and its ancestors,
    /// once all of them have passed their checksums and hold no bit
    /// past the last rank: `None` on any failure, before a row is read,
    /// so warm `classify`, which serves every row at once, classifies
    /// instead. A bit's atom entry is vouched for by its own row, which
    /// this check covers.
    pub fn verified_rows(
        &self,
    ) -> Option<impl ExactSizeIterator<Item = (ConceptId, Ancestors<'_>)> + '_> {
        let n = self.atoms.len();
        let in_range = |up: &[u64]| {
            up.iter().enumerate().all(|(w, &word)| {
                word == 0 || w * 64 + (u64::BITS - word.leading_zeros()) as usize <= n
            })
        };
        if !(0..n).all(|i| self.verified(i).is_some_and(in_range)) {
            return None;
        }
        Some((0..n).map(move |i| {
            let row = &self.ancestors[i * self.words..][..self.words];
            let ancestors = Ancestors {
                atoms: &self.atoms,
                row,
                word: 0,
                bits: row.first().copied().unwrap_or(0),
            };
            (self.atoms[i], ancestors)
        }))
    }
}

/// The atoms of one verified ancestor row, ascending: what
/// [`HierarchyIndex::verified_rows`] yields per row.
#[derive(Debug, Clone)]
pub struct Ancestors<'a> {
    atoms: &'a [ConceptId],
    row: &'a [u64],
    /// The word being read, and its bits not yet yielded.
    word: usize,
    bits: u64,
}

impl Iterator for Ancestors<'_> {
    type Item = ConceptId;

    fn next(&mut self) -> Option<ConceptId> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.row.get(self.word)?;
        }
        let j = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.atoms[j])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let later = self.row.get(self.word + 1..).unwrap_or_default();
        let n = self.bits.count_ones() + later.iter().map(|w| w.count_ones()).sum::<u32>();
        (n as usize, Some(n as usize))
    }
}

impl ExactSizeIterator for Ancestors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{vehicles_tbox, PaperVocab};
    use summa_guard::Budget;

    /// The hierarchy read back from the verified rows, as warm
    /// `classify` serves it.
    fn read_back(idx: &HierarchyIndex) -> Option<ClassHierarchy> {
        let rows = idx.verified_rows()?;
        Some(ClassHierarchy {
            subsumers: rows.map(|(c, up)| (c, up.collect())).collect(),
        })
    }

    fn classified(tbox: &crate::tbox::TBox, voc: &crate::concept::Vocabulary) -> ClassHierarchy {
        crate::classify::Classify::new(tbox, voc)
            .run(&Budget::unlimited())
            .governed
            .expect_completed("classifies")
    }

    #[test]
    fn index_matches_hierarchy_on_vehicles() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let h = classified(&t, &p.voc);
        let idx = HierarchyIndex::build(&h).expect("closed hierarchy");
        assert!(idx.is_intact());
        // Rows are the hierarchy's rows (the TBox atoms) — the shared
        // PaperVocab holds animal names too, which stay unindexed.
        assert_eq!(idx.len(), h.concepts().count());
        let rows: Vec<ConceptId> = h.concepts().collect();
        for &sub in &rows {
            for &sup in &rows {
                assert_eq!(
                    idx.subsumes(sup, sub),
                    Some(h.subsumes(sup, sub)),
                    "pair ({}, {})",
                    p.voc.concept_name(sup),
                    p.voc.concept_name(sub),
                );
            }
        }
        // Every row reads back as the hierarchy's own subsumer set.
        assert_eq!(read_back(&idx), Some(h));
        // A vocabulary atom outside the TBox is not indexed.
        assert!(!idx.contains(p.dog));
    }

    #[test]
    fn unknown_atoms_fall_through() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let h = classified(&t, &p.voc);
        let idx = HierarchyIndex::build(&h).expect("closed hierarchy");
        let ghost = ConceptId(9_999);
        assert!(!idx.contains(ghost));
        assert_eq!(idx.subsumes(ghost, p.car), None);
        assert_eq!(idx.subsumes(p.car, ghost), None);
        let read = read_back(&idx).expect("intact");
        assert_eq!(read.subsumers_ref(ghost), None);
    }

    #[test]
    fn partial_hierarchies_refuse_to_index() {
        // A starved classification yields a partial hierarchy; if it
        // is unclosed (subsumers without rows) the build must refuse.
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let g = crate::classify::Classify::new(&t, &p.voc)
            .run(&Budget::new().with_steps(1))
            .governed;
        if let Some(partial) = g.as_partial() {
            // Either it indexes (closed prefix) or refuses — it must
            // never build an unclosed index. Probe closure directly.
            let closed = partial.concepts().all(|cid| {
                partial
                    .subsumers_ref(cid)
                    .is_some_and(|s| s.iter().all(|&x| partial.subsumers_ref(x).is_some()))
            });
            assert_eq!(HierarchyIndex::build(partial).is_some(), closed);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let h = classified(&t, &p.voc);
        let mut idx = HierarchyIndex::build(&h).expect("closed hierarchy");
        assert!(idx.is_intact());
        idx.ancestors[0] ^= 1;
        assert!(!idx.is_intact());
        // Only lookups that read rank 0's row refuse; the rest still
        // answer from rows that verify.
        let rows: Vec<ConceptId> = h.concepts().collect();
        let bad = rows[0];
        for &sub in &rows {
            for &sup in &rows {
                let want = (sub != bad && sup != bad).then(|| h.subsumes(sup, sub));
                assert_eq!(idx.subsumes(sup, sub), want);
            }
        }
        // The whole read-out refuses rather than serve the bad row.
        assert_eq!(read_back(&idx), None);
    }

    /// Rows sealed with a bit past the last rank verify, since their
    /// checksums cover that bit, but no atom stands behind it: the
    /// read-out refuses them whole instead of reading past the atoms.
    #[test]
    fn a_bit_past_the_last_rank_is_refused() {
        let atoms = vec![ConceptId(3), ConceptId(8)];
        let sound = HierarchyIndex::from_rows(atoms.clone(), vec![0b01, 0b11]);
        assert!(sound.verified_rows().is_some());
        let stray = HierarchyIndex::from_rows(atoms, vec![0b101, 0b11]);
        assert!(stray.is_intact());
        assert!(stray.verified_rows().is_none());
    }

    /// The chain `c0 < c1 < … < c{n-1}`, classified and indexed: `sup`
    /// (rank `j`) subsumes `sub` (rank `i`) iff `j >= i`.
    fn chain_index(n: usize) -> (Vec<ConceptId>, ClassHierarchy, HierarchyIndex) {
        let mut voc = crate::concept::Vocabulary::new();
        let mut tbox = crate::tbox::TBox::new();
        let ids: Vec<ConceptId> = (0..n).map(|i| voc.concept(&format!("c{i}"))).collect();
        for w in ids.windows(2) {
            tbox.subsume(
                crate::concept::Concept::atom(w[0]),
                crate::concept::Concept::atom(w[1]),
            );
        }
        let h = classified(&tbox, &voc);
        let idx = HierarchyIndex::build(&h).expect("closed hierarchy");
        (ids, h, idx)
    }

    #[test]
    fn sixty_five_atoms_cross_the_word_boundary() {
        // >64 atoms forces words == 2; the bit addressing must still
        // agree with the hierarchy on every pair.
        let (ids, _, idx) = chain_index(65);
        assert_eq!(idx.len(), 65);
        for (i, &sub) in ids.iter().enumerate() {
            for (j, &sup) in ids.iter().enumerate() {
                assert_eq!(idx.subsumes(sup, sub), Some(j >= i), "({j}, {i})");
            }
        }
    }

    #[test]
    fn no_single_bit_flip_yields_a_wrong_answer() {
        // Flip every bit of every word the index holds, one flip at a
        // time, on an index whose rows span two words. After each
        // flip no pair may answer anything but the chain's own answer
        // or `None`, and both the whole-index check and the whole
        // read-out must refuse.
        let (ids, h, mut idx) = chain_index(65);
        assert_eq!(idx.words, 2);
        assert_eq!(read_back(&idx).as_ref(), Some(&h));
        let n = ids.len();
        let fields: [(&str, usize, u32); 4] = [
            ("atoms", n, u32::BITS),
            ("ancestors", n * idx.words, u64::BITS),
            ("row_checksums", n, u64::BITS),
            ("words", 1, usize::BITS),
        ];
        let flip = |idx: &mut HierarchyIndex, field: &str, at: usize, bit: u32| match field {
            "atoms" => idx.atoms[at].0 ^= 1 << bit,
            "ancestors" => idx.ancestors[at] ^= 1 << bit,
            "row_checksums" => idx.row_checksums[at] ^= 1 << bit,
            _ => idx.words ^= 1 << bit,
        };
        let mut flips = 0;
        for (field, len, bits) in fields {
            for at in 0..len {
                for bit in 0..bits {
                    flip(&mut idx, field, at, bit);
                    assert!(!idx.is_intact(), "{field}[{at}] bit {bit} went unnoticed");
                    assert_eq!(read_back(&idx), None, "{field}[{at}] bit {bit} read out");
                    for (i, &sub) in ids.iter().enumerate() {
                        for (j, &sup) in ids.iter().enumerate() {
                            let got = idx.subsumes(sup, sub);
                            assert!(
                                got.is_none() || got == Some(j >= i),
                                "{field}[{at}] bit {bit}: ({j}, {i}) answered {got:?}"
                            );
                        }
                    }
                    flip(&mut idx, field, at, bit);
                    flips += 1;
                }
            }
        }
        assert_eq!(flips, 65 * 32 + 130 * 64 + 65 * 64 + 64);
        assert!(idx.is_intact(), "every flip was undone");
        assert_eq!(read_back(&idx), Some(h));
    }
}
