//! Property-based tests for ontology signatures (Definition 1).

use proptest::prelude::*;
use summa_ontonomy::prelude::*;
use summa_osa::algebra::AlgebraBuilder;
use summa_osa::signature::SignatureBuilder as OsaSignatureBuilder;
use summa_osa::theory::{DataDomain, Theory};

fn tiny_domain() -> (DataDomain, summa_osa::sort::SortId) {
    let mut b = OsaSignatureBuilder::new();
    let s = b.sort("V");
    let v = b.op("v", &[], s);
    let sig = b.finish().expect("ok");
    let theory = Theory::new(sig.clone());
    let mut ab = AlgebraBuilder::new(sig);
    let e = ab.elem("v", s);
    ab.interpret(v, &[], e);
    (
        DataDomain::new(theory, ab.finish().expect("total")).expect("model"),
        s,
    )
}

/// A random class DAG (edges from lower to higher index) with random
/// attribute declarations, built with inheritance closure.
fn arb_signature() -> impl Strategy<Value = OntologySignature> {
    (
        2usize..7,
        proptest::collection::vec((0usize..7, 0usize..7), 0..10),
        proptest::collection::vec((0usize..7, 0usize..4), 0..6),
    )
        .prop_map(|(n, raw_edges, raw_attrs)| {
            let (dd, sort) = tiny_domain();
            let mut b = SignatureBuilder::new(dd);
            let classes: Vec<ClassId> = (0..n).map(|i| b.class(&format!("C{i}"))).collect();
            for (i, j) in raw_edges {
                let (i, j) = (i % n, j % n);
                if i < j {
                    b.subclass(classes[i], classes[j]);
                }
            }
            for (c, a) in raw_attrs {
                b.attribute(classes[c % n], &format!("attr{a}"), AttrTarget::Sort(sort));
            }
            b.finish()
                .expect("closure makes any declaration well-formed")
        })
}

use summa_ontonomy::signature::OntologySignature;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closed_signatures_always_satisfy_definition_one(sig in arb_signature()) {
        prop_assert!(sig.check_inheritance().is_ok());
    }

    #[test]
    fn subclasses_inherit_every_attribute(sig in arb_signature()) {
        let classes: Vec<ClassId> = sig.class_ids().collect();
        for &sup in &classes {
            for &sub in &classes {
                if sig.subclass_of(sub, sup) {
                    let sup_attrs: Vec<String> = sig
                        .attrs_of_class(sup)
                        .into_iter()
                        .map(|(_, a)| a)
                        .collect();
                    let sub_attrs: Vec<String> = sig
                        .attrs_of_class(sub)
                        .into_iter()
                        .map(|(_, a)| a)
                        .collect();
                    for a in &sup_attrs {
                        prop_assert!(
                            sub_attrs.contains(a),
                            "subclass {} missing inherited '{}'",
                            sig.class_name(sub),
                            a
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn subclass_relation_is_a_partial_order(sig in arb_signature()) {
        let classes: Vec<ClassId> = sig.class_ids().collect();
        for &a in &classes {
            prop_assert!(sig.subclass_of(a, a));
            for &b in &classes {
                if a != b && sig.subclass_of(a, b) {
                    prop_assert!(!sig.subclass_of(b, a));
                }
                for &c in &classes {
                    if sig.subclass_of(a, b) && sig.subclass_of(b, c) {
                        prop_assert!(sig.subclass_of(a, c));
                    }
                }
            }
        }
    }

    #[test]
    fn extents_close_upward_along_the_hierarchy(sig in arb_signature()) {
        // Put one object in the most specific class; every superclass
        // extent must include it.
        let classes: Vec<ClassId> = sig.class_ids().collect();
        let bottom = classes[0];
        let mut mb = InstanceModelBuilder::new();
        let o = mb.object("obj", bottom);
        let m = mb.finish();
        for &c in &classes {
            let expected = sig.subclass_of(bottom, c);
            prop_assert_eq!(m.extent(&sig, c).contains(&o), expected);
        }
    }

    #[test]
    fn disjointness_axiom_agrees_with_extent_intersection(sig in arb_signature()) {
        let classes: Vec<ClassId> = sig.class_ids().collect();
        if classes.len() < 2 {
            return Ok(());
        }
        let (c1, c2) = (classes[0], classes[1]);
        let mut mb = InstanceModelBuilder::new();
        let o = mb.object("obj", c1);
        mb.extend_class(o, c2);
        let m = mb.finish();
        let ax = OntAxiom::Disjoint(c1, c2);
        // The object is in both extents, so the axiom must fail.
        prop_assert!(ax.check(&sig, &m).is_err());
        // And an object in only one class passes (when the classes are
        // unrelated).
        if !sig.subclass_of(c1, c2) && !sig.subclass_of(c2, c1) {
            let mut mb2 = InstanceModelBuilder::new();
            mb2.object("solo", c1);
            let m2 = mb2.finish();
            prop_assert!(ax.check(&sig, &m2).is_ok());
        }
    }
}
