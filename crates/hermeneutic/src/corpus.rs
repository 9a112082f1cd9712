//! The paper's worked example: "trespassers will be prosecuted".
//!
//! The text's cues and each context's conventions transcribe the
//! paper's own analysis: the durable, undated sign on a door is a
//! threat addressed to the reader, backed by the property regime and
//! its authorities — while the same words on a shop shelf are
//! merchandise, in a newspaper a report, in a museum an exhibit.

use crate::context::{Context, Convention};
use crate::text::Text;

/// The sign itself: words plus material features.
pub fn trespassers_sign() -> Text {
    Text::from_cues([
        "word:trespassers",
        "word:will_be",
        "word:prosecuted",
        "material:durable_plastic",
        "material:undated",
    ])
}

/// Reading the sign on the door of a building — the paper's main case.
pub fn door_of_building_context() -> Context {
    Context::new("door_of_building")
        // Durable + undated ⇒ not a news report.
        .with(Convention::new(
            "durable_signage_is_not_news",
            ["material:durable_plastic", "material:undated"],
            [],
            "not_a_news_report",
        ))
        // A non-news prosecution notice posted at a boundary is a threat.
        .with(Convention::new(
            "boundary_notices_threaten",
            ["word:trespassers", "word:prosecuted"],
            ["not_a_news_report", "posted_at_private_boundary"],
            "is_a_threat",
        ))
        // The situation: the door of a building one might enter.
        .with(Convention::new(
            "situation_door",
            [],
            [],
            "posted_at_private_boundary",
        ))
        // The word 'trespassers' refers to the reader, should they enter.
        .with(Convention::new(
            "threat_addresses_reader",
            ["word:trespassers"],
            ["is_a_threat"],
            "threat_addressed_to_reader",
        ))
        // 'Trespassing' here means crossing THIS door.
        .with(Convention::new(
            "indexical_scope",
            [],
            ["threat_addressed_to_reader"],
            "trespassing_means_entering_here",
        ))
        // The private-property discourse: owners may exclude.
        .with(Convention::new(
            "property_regime",
            [],
            ["posted_at_private_boundary"],
            "owner_may_exclude_entrants",
        ))
        // Authorities guarantee the right; prosecution implies punishment.
        .with(Convention::new(
            "authorities_back_threat",
            ["word:prosecuted"],
            ["owner_may_exclude_entrants", "is_a_threat"],
            "authorities_will_punish_violation",
        ))
        // Punishment is intelligible only through (at least
        // psychological) pain — the paper's substratum of practices.
        .with(Convention::new(
            "punishment_presupposes_pain",
            [],
            ["authorities_will_punish_violation"],
            "violation_would_bring_pain",
        ))
}

/// The same sign on the shelf of a shop that sells signs.
pub fn sign_shop_context() -> Context {
    Context::new("sign_shop")
        .with(Convention::new(
            "shelf_items_are_merchandise",
            ["material:durable_plastic"],
            [],
            "merchandise_for_sale",
        ))
        .with(Convention::new(
            "merchandise_text_is_inert",
            ["word:trespassers"],
            ["merchandise_for_sale"],
            "words_quoted_not_asserted",
        ))
}

/// The same words as a newspaper headline.
pub fn newspaper_context() -> Context {
    Context::new("newspaper")
        .with(Convention::new(
            "headlines_report",
            ["word:trespassers", "word:prosecuted"],
            [],
            "report_of_events",
        ))
        .with(Convention::new(
            "reports_concern_third_parties",
            [],
            ["report_of_events"],
            "about_particular_past_trespassers",
        ))
}

/// The same sign as a museum exhibit ("signage of the 20th century").
pub fn museum_context() -> Context {
    Context::new("museum")
        .with(Convention::new(
            "exhibits_are_historical",
            ["material:durable_plastic"],
            [],
            "historical_artifact",
        ))
        .with(Convention::new(
            "exhibit_text_is_mentioned",
            ["word:trespassers"],
            ["historical_artifact"],
            "words_quoted_not_asserted",
        ))
        .with(Convention::new(
            "exhibit_documents_practices",
            [],
            ["historical_artifact"],
            "evidence_of_past_property_practices",
        ))
}

/// All four contexts, for sweep-style experiments.
pub fn all_contexts() -> Vec<Context> {
    vec![
        door_of_building_context(),
        sign_shop_context(),
        newspaper_context(),
        museum_context(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::{encoding_loss, interpret, interpret_traced, MeaningVariance};

    #[test]
    fn at_the_door_the_sign_threatens_the_reader() {
        let props = interpret(&trespassers_sign(), &door_of_building_context());
        for expected in [
            "not_a_news_report",
            "is_a_threat",
            "threat_addressed_to_reader",
            "trespassing_means_entering_here",
            "owner_may_exclude_entrants",
            "authorities_will_punish_violation",
            "violation_would_bring_pain",
        ] {
            assert!(props.contains(expected), "missing {expected}");
        }
    }

    #[test]
    fn the_circle_actually_circles() {
        // The door reading needs multiple rounds: threat status feeds
        // reference, reference feeds scope, property regime feeds the
        // authority inference.
        let (_, rounds, fired) = interpret_traced(&trespassers_sign(), &door_of_building_context());
        assert!(
            rounds >= 2,
            "expected a genuine fixpoint iteration, got {rounds}"
        );
        assert!(fired.len() >= 6);
    }

    #[test]
    fn in_the_shop_nothing_is_asserted() {
        let props = interpret(&trespassers_sign(), &sign_shop_context());
        assert!(props.contains("merchandise_for_sale"));
        assert!(props.contains("words_quoted_not_asserted"));
        assert!(!props.contains("is_a_threat"));
        assert!(!props.contains("threat_addressed_to_reader"));
    }

    #[test]
    fn in_the_newspaper_it_reports_third_parties() {
        let props = interpret(&trespassers_sign(), &newspaper_context());
        assert!(props.contains("report_of_events"));
        assert!(props.contains("about_particular_past_trespassers"));
        assert!(!props.contains("threat_addressed_to_reader"));
    }

    #[test]
    fn four_contexts_four_meanings() {
        let contexts = all_contexts();
        let refs: Vec<&Context> = contexts.iter().collect();
        let v = MeaningVariance::across(&trespassers_sign(), &refs);
        assert_eq!(v.n_distinct, 4, "all four situations read differently");
        assert!(v.mean_jaccard_distance > 0.5);
    }

    #[test]
    fn freezing_the_authors_meaning_loses_the_other_readings() {
        let contexts = all_contexts();
        let refs: Vec<&Context> = contexts.iter().collect();
        // The "author's intention": the door reading.
        let frozen = interpret(&trespassers_sign(), &door_of_building_context());
        let loss = encoding_loss(&trespassers_sign(), &frozen, &refs);
        assert!(
            loss > 0.5,
            "an ontological encoding erases most situated meaning (got {loss})"
        );
    }

    #[test]
    fn museum_and_shop_agree_partially() {
        // Both quote rather than assert — interpretations share a
        // proposition but are not identical.
        let shop = interpret(&trespassers_sign(), &sign_shop_context());
        let museum = interpret(&trespassers_sign(), &museum_context());
        assert!(shop.contains("words_quoted_not_asserted"));
        assert!(museum.contains("words_quoted_not_asserted"));
        assert_ne!(shop, museum);
    }
}
