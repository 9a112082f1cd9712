//! Property-based tests for the hermeneutic interpreter.

use proptest::prelude::*;
use summa_hermeneutic::prelude::*;

/// A random context over cue names `c0..c3` and proposition names
/// `p0..p7`: each convention requires a subset of cues and a subset of
/// lower-numbered propositions (acyclic derivations guaranteed; the
/// engine itself never needs acyclicity, but this keeps generated
/// derivations meaningful).
fn arb_context() -> impl Strategy<Value = Context> {
    proptest::collection::vec(
        (0u8..16, 0u8..8, 0u8..8)
            .prop_map(|(cue_mask, prop_idx, yield_idx)| (cue_mask, prop_idx, yield_idx)),
        1..8,
    )
    .prop_map(|rules| {
        let mut ctx = Context::new("random");
        for (i, (cue_mask, prop_idx, yield_idx)) in rules.into_iter().enumerate() {
            let cues: Vec<String> = (0..4)
                .filter(|b| cue_mask & (1 << b) != 0)
                .map(|b| format!("c{b}"))
                .collect();
            let props: Vec<String> = if prop_idx < yield_idx {
                vec![format!("p{prop_idx}")]
            } else {
                vec![]
            };
            ctx.add(Convention::new(
                &format!("r{i}"),
                cues.iter().map(String::as_str),
                props.iter().map(String::as_str),
                &format!("p{yield_idx}"),
            ));
        }
        ctx
    })
}

fn arb_text() -> impl Strategy<Value = Text> {
    (0u8..16).prop_map(|mask| {
        Text::from_cues(
            (0..4)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| match b {
                    0 => "c0",
                    1 => "c1",
                    2 => "c2",
                    _ => "c3",
                })
                .collect::<Vec<_>>(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interpretation_is_deterministic(text in arb_text(), ctx in arb_context()) {
        prop_assert_eq!(interpret(&text, &ctx), interpret(&text, &ctx));
    }

    #[test]
    fn interpretation_is_monotone_in_cues(text in arb_text(), ctx in arb_context()) {
        let base = interpret(&text, &ctx);
        let mut richer = text.clone();
        richer.cue("c0");
        richer.cue("c1");
        let more = interpret(&richer, &ctx);
        prop_assert!(more.is_superset(&base));
    }

    #[test]
    fn every_proposition_is_some_rules_yield(text in arb_text(), ctx in arb_context()) {
        let props = interpret(&text, &ctx);
        for p in &props {
            prop_assert!(
                ctx.conventions().iter().any(|c| &c.yields == p),
                "{p} appeared from nowhere"
            );
        }
    }

    #[test]
    fn fired_rules_really_fired(text in arb_text(), ctx in arb_context()) {
        let (props, _, fired) = interpret_traced(&text, &ctx);
        for name in &fired {
            let conv = ctx
                .conventions()
                .iter()
                .find(|c| &c.name == name)
                .expect("fired rule exists");
            // Its premises hold in the final interpretation.
            prop_assert!(conv.requires_cues.iter().all(|c| text.has(c)));
            prop_assert!(conv.requires_props.iter().all(|p| props.contains(p)));
            prop_assert!(props.contains(&conv.yields));
        }
    }

    #[test]
    fn convention_order_does_not_matter(text in arb_text(), ctx in arb_context()) {
        let forward = interpret(&text, &ctx);
        let mut reversed = Context::new("reversed");
        let mut convs: Vec<Convention> = ctx.conventions().to_vec();
        convs.reverse();
        for c in convs {
            reversed.add(c);
        }
        prop_assert_eq!(forward, interpret(&text, &reversed));
    }

    #[test]
    fn adding_conventions_is_monotone(text in arb_text(), ctx in arb_context()) {
        let base = interpret(&text, &ctx);
        let mut extended = ctx.clone();
        extended.add(Convention::new("extra", [], [], "p_extra"));
        let more = interpret(&text, &extended);
        prop_assert!(more.is_superset(&base));
        prop_assert!(more.contains("p_extra"));
    }

    #[test]
    fn variance_bounds(text in arb_text(), c1 in arb_context(), c2 in arb_context()) {
        let v = MeaningVariance::across(&text, &[&c1, &c2]);
        prop_assert!(v.n_distinct >= 1 && v.n_distinct <= 2);
        prop_assert!((0.0..=1.0).contains(&v.mean_jaccard_distance));
        if v.n_distinct == 1 {
            prop_assert_eq!(v.mean_jaccard_distance, 0.0);
        }
    }

    #[test]
    fn encoding_loss_is_zero_iff_frozen_matches_everywhere(
        text in arb_text(),
        ctx in arb_context(),
    ) {
        let frozen = interpret(&text, &ctx);
        let loss = encoding_loss(&text, &frozen, &[&ctx]);
        prop_assert_eq!(loss, 0.0);
    }
}
