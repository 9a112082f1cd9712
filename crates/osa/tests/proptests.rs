//! Property-based tests for the order-sorted algebra substrate.

use proptest::prelude::*;
use summa_osa::prelude::*;

// ---------------------------------------------------------------------
// Sort posets: random DAGs (edges only from lower to higher index, so
// construction never cycles).
// ---------------------------------------------------------------------

fn arb_poset() -> impl Strategy<Value = SortPoset> {
    (
        2usize..8,
        proptest::collection::vec((0usize..8, 0usize..8), 0..12),
    )
        .prop_map(|(n, raw_edges)| {
            let mut b = SortPosetBuilder::new();
            let sorts: Vec<SortId> = (0..n).map(|i| b.sort(&format!("S{i}"))).collect();
            for (i, j) in raw_edges {
                let (i, j) = (i % n, j % n);
                if i < j {
                    b.subsort(sorts[i], sorts[j]);
                }
            }
            b.finish().expect("index-ordered edges cannot cycle")
        })
}

proptest! {
    #[test]
    fn poset_leq_is_reflexive(poset in arb_poset()) {
        for s in poset.sorts() {
            prop_assert!(poset.leq(s, s));
        }
    }

    #[test]
    fn poset_leq_is_transitive(poset in arb_poset()) {
        let sorts: Vec<SortId> = poset.sorts().collect();
        for &a in &sorts {
            for &b in &sorts {
                for &c in &sorts {
                    if poset.leq(a, b) && poset.leq(b, c) {
                        prop_assert!(poset.leq(a, c));
                    }
                }
            }
        }
    }

    #[test]
    fn poset_leq_is_antisymmetric(poset in arb_poset()) {
        let sorts: Vec<SortId> = poset.sorts().collect();
        for &a in &sorts {
            for &b in &sorts {
                if a != b {
                    prop_assert!(!(poset.leq(a, b) && poset.leq(b, a)));
                }
            }
        }
    }

    #[test]
    fn lubs_are_minimal_upper_bounds(poset in arb_poset()) {
        let sorts: Vec<SortId> = poset.sorts().collect();
        for &a in &sorts {
            for &b in &sorts {
                let lubs = poset.lubs(a, b);
                for &u in &lubs {
                    prop_assert!(poset.leq(a, u) && poset.leq(b, u));
                    // minimality: no other common upper bound strictly below u
                    for &v in &sorts {
                        if poset.leq(a, v) && poset.leq(b, v) {
                            prop_assert!(!poset.lt(v, u));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn least_element_is_a_lower_bound_of_the_set(poset in arb_poset()) {
        let sorts: Vec<SortId> = poset.sorts().collect();
        if sorts.len() >= 3 {
            let set = &sorts[..3];
            if let Some(least) = poset.least(set) {
                for &s in set {
                    prop_assert!(poset.leq(least, s));
                }
                prop_assert!(set.contains(&least));
            }
        }
    }

    #[test]
    fn same_component_is_an_equivalence(poset in arb_poset()) {
        let sorts: Vec<SortId> = poset.sorts().collect();
        for &a in &sorts {
            prop_assert!(poset.same_component(a, a));
            for &b in &sorts {
                prop_assert_eq!(poset.same_component(a, b), poset.same_component(b, a));
                if poset.comparable(a, b) {
                    prop_assert!(poset.same_component(a, b));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Peano rewriting: ground equality is a congruence; normal forms are
// canonical.
// ---------------------------------------------------------------------

struct Peano {
    rs: RewriteSystem,
    zero: OpId,
    succ: OpId,
    plus: OpId,
}

fn peano() -> Peano {
    let mut b = SignatureBuilder::new();
    let nat = b.sort("Nat");
    let zero = b.op("zero", &[], nat);
    let succ = b.op("succ", &[nat], nat);
    let plus = b.op("plus", &[nat, nat], nat);
    let sig = b.finish().expect("ok");
    let mut th = Theory::new(sig);
    let x = Term::var("x", nat);
    let y = Term::var("y", nat);
    th.add_equation(Equation::new(
        Term::app(plus, vec![Term::constant(zero), y.clone()]),
        y.clone(),
    ))
    .expect("valid");
    th.add_equation(Equation::new(
        Term::app(plus, vec![Term::app(succ, vec![x.clone()]), y.clone()]),
        Term::app(succ, vec![Term::app(plus, vec![x, y])]),
    ))
    .expect("valid");
    Peano {
        rs: RewriteSystem::from_theory(&th).expect("orientable"),
        zero,
        succ,
        plus,
    }
}

/// A random ground Peano term together with its numeric value.
fn arb_nat_term() -> impl Strategy<Value = (TermSpec, u32)> {
    arb_term_spec(3)
}

#[derive(Debug, Clone)]
enum TermSpec {
    Num(u32),
    Plus(Box<TermSpec>, Box<TermSpec>),
}

fn arb_term_spec(depth: usize) -> BoxedStrategy<(TermSpec, u32)> {
    if depth == 0 {
        (0u32..5).prop_map(|n| (TermSpec::Num(n), n)).boxed()
    } else {
        prop_oneof![
            (0u32..5).prop_map(|n| (TermSpec::Num(n), n)),
            (arb_term_spec(depth - 1), arb_term_spec(depth - 1)).prop_map(|(a, b)| {
                let v = a.1 + b.1;
                (TermSpec::Plus(Box::new(a.0), Box::new(b.0)), v)
            }),
        ]
        .boxed()
    }
}

impl TermSpec {
    fn build(&self, p: &Peano) -> Term {
        match self {
            TermSpec::Num(n) => {
                let mut t = Term::constant(p.zero);
                for _ in 0..*n {
                    t = Term::app(p.succ, vec![t]);
                }
                t
            }
            TermSpec::Plus(a, b) => Term::app(p.plus, vec![a.build(p), b.build(p)]),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn normal_forms_compute_the_value((spec, value) in arb_nat_term()) {
        let p = peano();
        let t = spec.build(&p);
        let nf = p.rs.normal_form(&t, 100_000).expect("terminates");
        // The normal form is succ^value(zero): depth = value + 1.
        prop_assert_eq!(nf.depth(), value as usize + 1);
        prop_assert!(nf.is_ground());
        // Idempotence.
        prop_assert_eq!(p.rs.normal_form(&nf, 100_000).expect("terminates"), nf);
    }

    #[test]
    fn ground_equality_matches_arithmetic(
        (s1, v1) in arb_nat_term(),
        (s2, v2) in arb_nat_term(),
    ) {
        let p = peano();
        let t1 = s1.build(&p);
        let t2 = s2.build(&p);
        let eq = p.rs.ground_equal(&t1, &t2, 100_000).expect("terminates");
        prop_assert_eq!(eq, v1 == v2);
    }

    #[test]
    fn addition_is_commutative_in_the_initial_algebra(
        (s1, _) in arb_nat_term(),
        (s2, _) in arb_nat_term(),
    ) {
        let p = peano();
        let a = s1.build(&p);
        let b = s2.build(&p);
        let ab = Term::app(p.plus, vec![a.clone(), b.clone()]);
        let ba = Term::app(p.plus, vec![b, a]);
        prop_assert!(p.rs.ground_equal(&ab, &ba, 100_000).expect("terminates"));
    }
}

// ---------------------------------------------------------------------
// Congruence closure: must agree with rewriting on Peano ground
// equalities, and must be a congruence.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn congruence_closure_agrees_with_rewriting(
        (s1, v1) in arb_nat_term(),
        (s2, v2) in arb_nat_term(),
        (s3, v3) in arb_nat_term(),
    ) {
        let p = peano();
        let mut cc = summa_osa::congruence::CongruenceClosure::new(
            p.rs.signature().clone(),
        );
        // Teach the closure the ground instances that rewriting proves.
        let terms = [(s1.build(&p), v1), (s2.build(&p), v2), (s3.build(&p), v3)];
        for (t, _) in &terms {
            let nf = p.rs.normal_form(t, 100_000).expect("terminates");
            cc.assert_equal(t, &nf);
        }
        // Now closure equality must coincide with value equality.
        for (a, va) in &terms {
            for (b, vb) in &terms {
                prop_assert_eq!(cc.are_equal(a, b), va == vb);
            }
        }
    }

    #[test]
    fn congruence_closure_is_a_congruence((spec, _) in arb_nat_term()) {
        let p = peano();
        let mut cc = summa_osa::congruence::CongruenceClosure::new(
            p.rs.signature().clone(),
        );
        let t = spec.build(&p);
        let zero = Term::constant(p.zero);
        cc.assert_equal(&t, &zero);
        // succ(t) = succ(zero) must follow by congruence.
        let st = Term::app(p.succ, vec![t.clone()]);
        let sz = Term::app(p.succ, vec![zero.clone()]);
        prop_assert!(cc.are_equal(&st, &sz));
        // And plus(t, t) = plus(zero, zero).
        let ptt = Term::app(p.plus, vec![t.clone(), t]);
        let pzz = Term::app(p.plus, vec![zero.clone(), zero]);
        prop_assert!(cc.are_equal(&ptt, &pzz));
    }
}

// ---------------------------------------------------------------------
// Matching and unification.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matching_subject_against_itself_yields_empty_or_consistent(
        (spec, _) in arb_nat_term()
    ) {
        let p = peano();
        let t = spec.build(&p);
        // A ground pattern matches only itself, with the empty
        // substitution.
        let m = summa_osa::term::match_term(p.rs.signature(), &t, &t).expect("matches");
        prop_assert!(m.is_empty());
    }

    #[test]
    fn unification_produces_a_unifier((spec, _) in arb_nat_term()) {
        let p = peano();
        let nat = p.rs.signature().poset().by_name("Nat").expect("sort");
        let t = spec.build(&p);
        // x unifies with any ground term of its sort.
        let x = Term::var("x", nat);
        let mgu = summa_osa::term::unify(p.rs.signature(), &x, &t).expect("unifies");
        prop_assert_eq!(x.substitute(&mgu), t);
    }

    #[test]
    fn pattern_with_variable_matches_its_instances(
        (spec, _) in arb_nat_term(),
        (inner, _) in arb_nat_term(),
    ) {
        let p = peano();
        let nat = p.rs.signature().poset().by_name("Nat").expect("sort");
        // pattern plus(x, t2), subject plus(t1, t2): must match with
        // x ↦ t1.
        let t1 = spec.build(&p);
        let t2 = inner.build(&p);
        let pat = Term::app(p.plus, vec![Term::var("x", nat), t2.clone()]);
        let subj = Term::app(p.plus, vec![t1.clone(), t2]);
        let m = summa_osa::term::match_term(p.rs.signature(), &pat, &subj).expect("matches");
        prop_assert_eq!(m.get("x"), Some(&t1));
        prop_assert_eq!(pat.substitute(&m), subj);
    }
}
