//! Property-based tests for the description-logic substrate.

use proptest::prelude::*;
use summa_dl::classify::Classifier;
use summa_dl::el::ElClassifier;
use summa_dl::generate;
use summa_dl::prelude::*;
use summa_guard::{Budget, Governed};

// ---------------------------------------------------------------------
// Random concepts over a small fixed vocabulary.
// ---------------------------------------------------------------------

fn fixed_voc() -> Vocabulary {
    let mut v = Vocabulary::new();
    for name in ["A", "B", "C", "D"] {
        v.concept(name);
    }
    v.role("r");
    v.role("s");
    v
}

/// The tableau property tests' node cap: a memory wall of 50,000
/// units, one per spawned node.
fn node_cap() -> Budget {
    Budget::new().with_memory(50_000)
}

fn arb_concept(depth: usize) -> BoxedStrategy<Concept> {
    let leaf = prop_oneof![
        Just(Concept::Top),
        Just(Concept::Bottom),
        (0u32..4).prop_map(|i| Concept::Atom(ConceptId(i))),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
        let inner = arb_concept(depth - 1);
        prop_oneof![
            leaf,
            inner.clone().prop_map(Concept::not),
            proptest::collection::vec(arb_concept(depth - 1), 2..4).prop_map(Concept::and),
            proptest::collection::vec(arb_concept(depth - 1), 2..4).prop_map(Concept::or),
            (0u32..2, inner.clone()).prop_map(|(r, c)| Concept::exists(RoleId(r), c)),
            (0u32..2, inner.clone()).prop_map(|(r, c)| Concept::forall(RoleId(r), c)),
            (0u32..3, 0u32..2, inner.clone()).prop_map(|(n, r, c)| Concept::at_least(
                n,
                RoleId(r),
                c
            )),
            (0u32..3, 0u32..2, inner).prop_map(|(n, r, c)| Concept::at_most(n, RoleId(r), c)),
        ]
        .boxed()
    }
}

/// Does a concept contain a negation of anything but an atom?
fn nnf_clean(c: &Concept) -> bool {
    match c {
        Concept::Top | Concept::Bottom | Concept::Atom(_) => true,
        Concept::Not(inner) => matches!(inner.as_ref(), Concept::Atom(_)),
        Concept::And(cs) | Concept::Or(cs) => cs.iter().all(nnf_clean),
        Concept::Exists(_, c)
        | Concept::Forall(_, c)
        | Concept::AtLeast(_, _, c)
        | Concept::AtMost(_, _, c) => nnf_clean(c),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn nnf_is_negation_normal(c in arb_concept(3)) {
        prop_assert!(nnf_clean(&c.nnf()));
    }

    #[test]
    fn nnf_is_idempotent(c in arb_concept(3)) {
        let once = c.nnf();
        prop_assert_eq!(once.nnf(), once);
    }

    #[test]
    fn double_negation_preserves_nnf(c in arb_concept(3)) {
        let double = Concept::not(Concept::not(c.clone()));
        prop_assert_eq!(double.nnf(), c.nnf());
    }

    #[test]
    fn atoms_and_roles_survive_nnf(c in arb_concept(3)) {
        // NNF may drop subformulas only through ⊤/⊥ simplification in
        // and/or; atoms never appear from nowhere.
        let nnf = c.nnf();
        prop_assert!(nnf.atoms().is_subset(&c.atoms()));
        prop_assert!(nnf.roles().is_subset(&c.roles()));
    }
}

proptest! {
    // Tableau calls are costlier: fewer cases, smaller depth.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn excluded_middle_and_contradiction(c in arb_concept(2)) {
        let voc = fixed_voc();
        let mut t = Tableau::new(&TBox::new(), &voc);
        // c ⊓ ¬c is never satisfiable.
        let contra = Concept::and(vec![c.clone(), Concept::not(c.clone())]);
        if let Governed::Completed(sat) = t.is_satisfiable_governed(&contra, &node_cap()) {
            prop_assert!(!sat, "{contra:?} must be unsatisfiable");
        }
        // c ⊔ ¬c is always satisfiable.
        let lem = Concept::or(vec![c.clone(), Concept::not(c)]);
        if let Governed::Completed(sat) = t.is_satisfiable_governed(&lem, &node_cap()) {
            prop_assert!(sat);
        }
    }

    #[test]
    fn satisfiability_is_invariant_under_nnf(c in arb_concept(2)) {
        let voc = fixed_voc();
        let mut t = Tableau::new(&TBox::new(), &voc);
        let direct = t.is_satisfiable_governed(&c, &node_cap());
        let via_nnf = t.is_satisfiable_governed(&c.nnf(), &node_cap());
        if let (Governed::Completed(a), Governed::Completed(b)) = (direct, via_nnf) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn subsumption_is_reflexive_and_has_top_bottom(c in arb_concept(2)) {
        let voc = fixed_voc();
        let mut t = Tableau::new(&TBox::new(), &voc);
        for (sup, sub) in [(&c, &c), (&Concept::Top, &c), (&c, &Concept::Bottom)] {
            prop_assert!(t
                .subsumes_governed(sup, sub, &node_cap())
                .expect_completed("within the node cap"));
        }
    }
}

// ---------------------------------------------------------------------
// EL vs tableau on random EL TBoxes: the two reasoners must agree.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn el_and_tableau_agree_on_random_el(seed in 0u64..5000) {
        let (voc, tbox, _) = generate::random_el(8, 2, 14, seed);
        let h_el = ElClassifier::new(&tbox, &voc)
            .expect("EL fragment")
            .classify(&tbox, &voc)
            .expect("classification");
        let h_tab = Classify::new(&tbox, &voc)
            .run(&summa_guard::Budget::unlimited())
            .governed
            .expect_completed("classification");
        prop_assert_eq!(h_el, h_tab);
    }

    #[test]
    fn el_subsumption_is_transitive(seed in 0u64..5000) {
        let (voc, tbox, ids) = generate::random_el(8, 2, 14, seed);
        let mut el = ElClassifier::new(&tbox, &voc).expect("EL fragment");
        for &a in &ids {
            for &b in &ids {
                for &c in &ids {
                    if el.subsumes(b, a) && el.subsumes(c, b) {
                        prop_assert!(el.subsumes(c, a));
                    }
                }
            }
        }
    }

    #[test]
    fn chain_hierarchy_counts(n in 2usize..10) {
        let (voc, tbox, _) = generate::chain(n);
        let h = ElClassifier::new(&tbox, &voc)
            .expect("EL")
            .classify(&tbox, &voc)
            .expect("classification");
        prop_assert_eq!(h.n_pairs(), n * (n + 1) / 2);
    }

    #[test]
    fn hard_alc_family_is_satisfiable_and_unsat_variant_is_not(n in 1usize..7) {
        let (voc, c) = generate::hard_alc(n);
        let mut r = Tableau::new(&TBox::new(), &voc);
        // A 20,000-node memory wall: a runaway search fails the case.
        let budget = Budget::new().with_memory(20_000);
        prop_assert!(r.is_satisfiable_governed(&c, &budget).expect_completed("within the node cap"));
        let (voc2, c2) = generate::hard_alc_unsat(n);
        let mut r2 = Tableau::new(&TBox::new(), &voc2);
        prop_assert!(!r2.is_satisfiable_governed(&c2, &budget).expect_completed("within the node cap"));
    }
}

// ---------------------------------------------------------------------
// Parser: rendering a parsed TBox and reparsing preserves reasoning.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parsed_chains_reason_correctly(n in 2usize..8) {
        let mut voc = Vocabulary::new();
        let mut t = TBox::new();
        for i in 0..n - 1 {
            let line = format!("c{i} < c{}", i + 1);
            t.add(parse_axiom(&line, &mut voc).expect("parses"));
        }
        let first = voc.find_concept("c0").expect("interned");
        let last = voc.find_concept(&format!("c{}", n - 1)).expect("interned");
        let mut r = Tableau::new(&t, &voc);
        let (first, last) = (Concept::atom(first), Concept::atom(last));
        // A 20,000-node memory wall: a runaway search fails the case.
        let budget = Budget::new().with_memory(20_000);
        prop_assert!(r.subsumes_governed(&last, &first, &budget).expect_completed("within the node cap"));
        prop_assert!(!r.subsumes_governed(&first, &last, &budget).expect_completed("within the node cap"));
    }
}
