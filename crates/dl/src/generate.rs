//! Synthetic TBox families for benchmarks and property tests.
//!
//! Deterministic generation (a SplitMix64 PRNG seeded explicitly) so
//! benchmark workloads are reproducible run to run.

use crate::concept::{Concept, ConceptId, Vocabulary};
use crate::tbox::TBox;

/// A small deterministic PRNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded construction.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// A linear chain `C0 ⊑ C1 ⊑ … ⊑ Cn−1`.
pub fn chain(n: usize) -> (Vocabulary, TBox, Vec<ConceptId>) {
    let mut voc = Vocabulary::new();
    let ids: Vec<ConceptId> = (0..n).map(|i| voc.concept(&format!("C{i}"))).collect();
    let mut t = TBox::new();
    for w in ids.windows(2) {
        t.subsume(Concept::atom(w[0]), Concept::atom(w[1]));
    }
    (voc, t, ids)
}

/// A balanced binary "diamond lattice" of depth `d`: layer k holds
/// 2^k concepts, each subsumed by two parents in the layer above —
/// dense transitive closure, good for classification benchmarks.
pub fn diamond(depth: usize) -> (Vocabulary, TBox, Vec<ConceptId>) {
    let mut voc = Vocabulary::new();
    let mut t = TBox::new();
    let mut layers: Vec<Vec<ConceptId>> = vec![];
    for k in 0..=depth {
        let layer: Vec<ConceptId> = (0..(1usize << k))
            .map(|i| voc.concept(&format!("D{k}_{i}")))
            .collect();
        if let Some(prev) = layers.last() {
            for (i, &c) in layer.iter().enumerate() {
                let p1 = prev[i / 2];
                let p2 = prev[(i / 2 + 1) % prev.len()];
                t.subsume(Concept::atom(c), Concept::atom(p1));
                if p2 != p1 {
                    t.subsume(Concept::atom(c), Concept::atom(p2));
                }
            }
        }
        layers.push(layer);
    }
    let all = layers.into_iter().flatten().collect();
    (voc, t, all)
}

/// A random EL TBox: `n` named concepts, `n_roles` roles, `m` axioms,
/// each of the form `A ⊑ B`, `A ⊑ B ⊓ C`, or `A ⊑ ∃r.B` with equal
/// probability. Always EL, usually coherent.
pub fn random_el(
    n: usize,
    n_roles: usize,
    m: usize,
    seed: u64,
) -> (Vocabulary, TBox, Vec<ConceptId>) {
    let mut rng = SplitMix64::new(seed);
    let mut voc = Vocabulary::new();
    let ids: Vec<ConceptId> = (0..n).map(|i| voc.concept(&format!("A{i}"))).collect();
    let roles: Vec<_> = (0..n_roles.max(1))
        .map(|i| voc.role(&format!("r{i}")))
        .collect();
    let mut t = TBox::new();
    for _ in 0..m {
        let a = ids[rng.below(n)];
        match rng.below(3) {
            0 => {
                let b = ids[rng.below(n)];
                if a != b {
                    t.subsume(Concept::atom(a), Concept::atom(b));
                }
            }
            1 => {
                let b = ids[rng.below(n)];
                let c = ids[rng.below(n)];
                t.subsume(
                    Concept::atom(a),
                    Concept::and(vec![Concept::atom(b), Concept::atom(c)]),
                );
            }
            _ => {
                let b = ids[rng.below(n)];
                let r = roles[rng.below(roles.len())];
                t.subsume(Concept::atom(a), Concept::exists(r, Concept::atom(b)));
            }
        }
    }
    (voc, t, ids)
}

/// A hard ALC satisfiability instance: a chain of `n` disjunction
/// layers forcing exponential branching in a naive tableau —
/// essentially a pigeonhole-flavoured formula
/// `⊓ᵢ (Aᵢ ⊔ Bᵢ)` with constraints making all but one assignment
/// clash late.
pub fn hard_alc(n: usize) -> (Vocabulary, Concept) {
    let mut voc = Vocabulary::new();
    let mut conj = vec![];
    let goal = voc.concept("GOAL");
    for i in 0..n {
        let a = voc.concept(&format!("A{i}"));
        let b = voc.concept(&format!("B{i}"));
        // (Aᵢ ⊔ Bᵢ)
        conj.push(Concept::or(vec![Concept::atom(a), Concept::atom(b)]));
        // ¬Aᵢ ⊔ ¬Bᵢ — can't have both.
        conj.push(Concept::or(vec![
            Concept::not(Concept::atom(a)),
            Concept::not(Concept::atom(b)),
        ]));
    }
    // Force the last branch to matter: GOAL must hold, and GOAL is
    // incompatible with every Aᵢ — so only the all-B assignment works.
    conj.push(Concept::atom(goal));
    for i in 0..n {
        let a = voc.find_concept(&format!("A{i}")).expect("interned above");
        conj.push(Concept::or(vec![
            Concept::not(Concept::atom(goal)),
            Concept::not(Concept::atom(a)),
        ]));
    }
    (voc, Concept::and(conj))
}

/// The pigeonhole TBox: `holes + 1` pigeons, `holes` holes, every
/// pigeon in some hole (`⊤ ⊑ ⊔ⱼ Pᵢⱼ`) and no two pigeons sharing one
/// (`⊤ ⊑ ¬Pᵢⱼ ⊔ ¬Pₖⱼ`). Incoherent, and refuting it forces the
/// tableau through an exponential branch space — the adversarial
/// classification workload of the governance and parallelism suites.
/// Returns the vocabulary, the TBox, and the `n_probes` probe atoms
/// whose classification rows carry the hard queries.
pub fn pigeonhole_tbox(holes: usize, n_probes: usize) -> (Vocabulary, TBox, Vec<ConceptId>) {
    let pigeons = holes + 1;
    let mut voc = Vocabulary::new();
    let mut t = TBox::new();
    let p: Vec<Vec<ConceptId>> = (0..pigeons)
        .map(|i| {
            (0..holes)
                .map(|j| voc.concept(&format!("P{i}_{j}")))
                .collect()
        })
        .collect();
    for row in &p {
        t.subsume(
            Concept::Top,
            Concept::or(row.iter().map(|&c| Concept::atom(c)).collect()),
        );
    }
    for i in 0..pigeons {
        for k in (i + 1)..pigeons {
            for (&a, &b) in p[i].iter().zip(&p[k]) {
                t.subsume(
                    Concept::Top,
                    Concept::or(vec![
                        Concept::not(Concept::atom(a)),
                        Concept::not(Concept::atom(b)),
                    ]),
                );
            }
        }
    }
    let probes: Vec<ConceptId> = (0..n_probes)
        .map(|i| {
            let probe = voc.concept(&format!("Probe{i}"));
            t.subsume(Concept::atom(probe), Concept::atom(p[0][0]));
            probe
        })
        .collect();
    (voc, t, probes)
}

/// An unsatisfiable variant of [`hard_alc`] (adds `A₀ ⊓ GOAL`
/// requirements that conflict): exercises full branch exploration.
pub fn hard_alc_unsat(n: usize) -> (Vocabulary, Concept) {
    let (mut voc, c) = hard_alc(n);
    let a0 = voc.concept("A0");
    (voc, Concept::and(vec![c, Concept::atom(a0)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Classifier;
    use crate::el::ElClassifier;
    use crate::tableau::capped::sat;
    use crate::tableau::Tableau;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn chain_has_linear_hierarchy() {
        let (voc, t, ids) = chain(6);
        let h = ElClassifier::new(&t, &voc)
            .unwrap()
            .classify(&t, &voc)
            .unwrap();
        assert!(h.subsumes(ids[5], ids[0]));
        assert_eq!(h.n_pairs(), 6 + 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn diamond_layers_subsume_root() {
        let (voc, t, ids) = diamond(3);
        let h = ElClassifier::new(&t, &voc)
            .unwrap()
            .classify(&t, &voc)
            .unwrap();
        let root = ids[0];
        for &c in &ids {
            assert!(h.subsumes(root, c), "root must subsume every node");
        }
    }

    #[test]
    fn random_el_is_el_and_reasoners_agree() {
        let (voc, t, _) = random_el(12, 3, 24, 7);
        assert!(t.is_el());
        let h_el = ElClassifier::new(&t, &voc)
            .unwrap()
            .classify(&t, &voc)
            .unwrap();
        let h_tab = crate::classify::Classify::new(&t, &voc)
            .run(&summa_guard::Budget::unlimited())
            .governed
            .expect_completed("unlimited");
        assert_eq!(h_el, h_tab);
    }

    #[test]
    fn hard_alc_satisfiable_and_unsat_variants() {
        let (voc, c) = hard_alc(4);
        let mut r = Tableau::new(&TBox::new(), &voc);
        assert!(sat(&mut r, &c));
        let (voc2, c2) = hard_alc_unsat(4);
        let mut r2 = Tableau::new(&TBox::new(), &voc2);
        assert!(!sat(&mut r2, &c2));
    }
}
