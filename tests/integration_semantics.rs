//! Integration: the §3 semantic critique end to end — lexical fields,
//! hermeneutic interpretation, and the combined reports of
//! summa-core.

use summa_core::prelude::*;
use summa_core::substrates::hermeneutic::prelude::*;
use summa_core::substrates::lexfield::field::same_division;
use summa_core::substrates::lexfield::prelude::*;

#[test]
fn semantic_report_is_internally_consistent() {
    let r = semantic_critique();
    assert!(r.car_equals_dog);
    assert!(r.repair_breaks_collapse);
    // Every one of the 8 vehicle/animal concepts collapses onto at
    // least one partner, so there are at least 8 pairs.
    assert!(r.collapsed_pairs >= 8, "got {}", r.collapsed_pairs);
    assert!(r.doorknob_not_bijective);
    assert!(r.age_total_ambiguity >= 3);
    assert!(r.age_divisions_all_differ);
}

#[test]
fn doorknob_contested_region_is_where_the_fields_disagree() {
    let (space, en, it) = doorknob_dataset();
    // The thumb-latch knob is the contested point: doorknob in
    // English, maniglia in Italian.
    let contested = space.find("thumb_latch_knob").expect("dataset point");
    let en_words: Vec<&str> = en
        .words_for(contested)
        .iter()
        .map(|&i| en.name(i))
        .collect();
    let it_words: Vec<&str> = it
        .words_for(contested)
        .iter()
        .map(|&i| it.name(i))
        .collect();
    assert_eq!(en_words, vec!["doorknob"]);
    assert_eq!(it_words, vec!["maniglia"]);
    // Remove that point and the two languages would divide the rest
    // identically — the mismatch is localized exactly where the paper
    // draws it.
    let mut en2 = LexicalField::new("English'");
    let mut it2 = LexicalField::new("Italian'");
    for f_src in [(&en, &mut en2), (&it, &mut it2)] {
        let (src, dst) = f_src;
        for item in src.items() {
            let pts: Vec<_> = src
                .range(item)
                .iter()
                .copied()
                .filter(|&p| p != contested)
                .collect();
            dst.item(src.name(item), pts);
        }
    }
    assert!(!same_division(&space, &en, &it));
    assert!(same_division(&space, &en2, &it2));
}

#[test]
fn alignment_fractions_are_valid_distributions() {
    let f = age_adjectives_dataset();
    for (a, b) in [
        (&f.italian, &f.spanish),
        (&f.spanish, &f.italian),
        (&f.french, &f.italian),
    ] {
        let al = Alignment::between(&f.space, a, b);
        for s in a.items() {
            let mut covered = 0.0;
            for t in b.items() {
                let fr = al.fraction(s, t);
                assert!((0.0..=1.0).contains(&fr));
                covered += fr;
            }
            // Ranges may overlap in the target, so the row sum is at
            // least the covered fraction and at least one target must
            // overlap every source word in these datasets.
            assert!(covered > 0.0, "{} has no translation at all", a.name(s));
        }
    }
}

#[test]
fn pragmatic_and_semantic_reports_compose() {
    // The two reports agree on the paper's overall thesis: meaning is
    // neither in the symbols (semantic report) nor fixable once and
    // for all (pragmatic report).
    let sem = semantic_critique();
    let prag = pragmatic_critique();
    assert!(sem.car_equals_dog && prag.encoding_loss > 0.0);
    assert_eq!(prag.n_distinct_meanings, prag.n_contexts);
}

#[test]
fn hermeneutic_interpretations_are_stable_under_context_order() {
    let text = trespassers_sign();
    let contexts = all_contexts();
    let forward: Vec<Interpretation> = contexts.iter().map(|c| interpret(&text, c)).collect();
    let mut reversed = contexts.clone();
    reversed.reverse();
    let backward: Vec<Interpretation> = reversed.iter().map(|c| interpret(&text, c)).collect();
    for (i, f) in forward.iter().enumerate() {
        assert_eq!(*f, backward[contexts.len() - 1 - i]);
    }
}

#[test]
fn stripping_material_cues_changes_the_door_reading() {
    // Without the durable/undated material cues, the door context can
    // no longer rule out the news reading — material features carry
    // interpretive weight.
    let full = trespassers_sign();
    let words_only = Text::from_cues(["word:trespassers", "word:will_be", "word:prosecuted"]);
    let door = door_of_building_context();
    let with_material = interpret(&full, &door);
    let without = interpret(&words_only, &door);
    assert!(with_material.contains("not_a_news_report"));
    assert!(!without.contains("not_a_news_report"));
    assert!(!without.contains("is_a_threat"));
    assert!(with_material.len() > without.len());
}
