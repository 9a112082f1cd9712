//! A deterministic corpus fuzzer for the DL concept/axiom parser.
//!
//! Seeds mirror the paper corpus of `summa_dl::corpus` in the
//! parser's concrete syntax; thousands of mutants (character edits,
//! splices, truncations — always valid UTF-8) are fed to
//! [`parse_concept`] and [`parse_axiom`]. The contract under fuzz:
//! the parser never panics, and every rejection is a
//! `DlError::Parse` whose byte offset lies inside (or exactly at the
//! end of) the mutated input.

use std::panic::{catch_unwind, AssertUnwindSafe};
use summa_dl::error::DlError;
use summa_dl::generate::SplitMix64;
use summa_dl::prelude::{parse_axiom, parse_concept, Vocabulary};

/// The paper corpus (structures (4), (8), (9)–(11)) plus grammar
/// corners: every operator, keyword, unicode alias, and nesting form.
const SEEDS: &[&str] = &[
    // Structure (4) — vehicles.
    "car < motorvehicle & roadvehicle & some size.small",
    "pickup < motorvehicle & roadvehicle & some size.big",
    "motorvehicle < some uses.gasoline",
    "roadvehicle < atleast 4 has.wheel",
    // Structure (8) — animals.
    "dog < animal & quadruped & some size.small",
    "horse < animal & quadruped & some size.big",
    "animal < some ingests.food",
    "quadruped < atleast 4 has.leg",
    // The repair (9)–(11).
    "quadruped < animal",
    "dog = quadruped & some size.small",
    // Grammar corners.
    "~(car & ~dog) | bottom",
    "all has.(wheel | leg) & atmost 2 has.wheel",
    "exactly 4 has.wheel & top",
    "car ⊑ motorvehicle ⊓ ¬pickup",
    "dog ≡ quadruped ⊔ bottom_ish",
    "some r.(some r.(some r.top))",
    "atleast 10 r.atmost 0 r.bottom",
];

/// Characters the mutator may inject: every token-significant symbol,
/// identifier material, whitespace, and some hostile outliers.
const POOL: &[char] = &[
    '&', '|', '~', '.', '(', ')', '<', '=', '⊓', '⊔', '¬', '⊑', '≡', 'a', 'Z', '0', '9', '_', ' ',
    '\t', '\n', 's', 'o', 'm', 'e', 'l', 't', '🦀', '\u{0}', 'é', '£',
];

/// One deterministic mutant of `seed` (always valid UTF-8 — edits are
/// made at char granularity).
fn mutate(rng: &mut SplitMix64, seed: &str, other: &str) -> String {
    let chars: Vec<char> = seed.chars().collect();
    match rng.below(6) {
        // Delete one char.
        0 if !chars.is_empty() => {
            let at = rng.below(chars.len());
            chars
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != at)
                .map(|(_, &c)| c)
                .collect()
        }
        // Insert one char from the pool.
        1 => {
            let at = rng.below(chars.len() + 1);
            let mut out: Vec<char> = chars.clone();
            out.insert(at, POOL[rng.below(POOL.len())]);
            out.into_iter().collect()
        }
        // Replace one char.
        2 if !chars.is_empty() => {
            let mut out = chars.clone();
            let at = rng.below(out.len());
            out[at] = POOL[rng.below(POOL.len())];
            out.into_iter().collect()
        }
        // Duplicate a random span.
        3 if !chars.is_empty() => {
            let a = rng.below(chars.len());
            let b = a + rng.below(chars.len() - a);
            let mut out: Vec<char> = chars[..b].to_vec();
            out.extend_from_slice(&chars[a..b]);
            out.extend_from_slice(&chars[b..]);
            out.into_iter().collect()
        }
        // Splice: our head, another seed's tail.
        4 => {
            let ochars: Vec<char> = other.chars().collect();
            let cut_a = rng.below(chars.len() + 1);
            let cut_b = rng.below(ochars.len() + 1);
            chars[..cut_a].iter().chain(&ochars[cut_b..]).collect()
        }
        // Truncate.
        _ => chars[..rng.below(chars.len() + 1)].iter().collect(),
    }
}

/// Feed one input to both entry points; panic-free and offset-sane.
fn check(input: &str) {
    for axiom_mode in [false, true] {
        let owned = input.to_string();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut voc = Vocabulary::new();
            if axiom_mode {
                parse_axiom(&owned, &mut voc).map(|_| ())
            } else {
                parse_concept(&owned, &mut voc).map(|_| ())
            }
        }));
        let parsed = outcome
            .unwrap_or_else(|_| panic!("parser panicked on {:?} (axiom_mode={axiom_mode})", input));
        if let Err(e) = parsed {
            match e {
                DlError::Parse {
                    offset,
                    input: reported,
                    ..
                } => {
                    assert_eq!(
                        reported, input,
                        "the error must carry the offending input verbatim"
                    );
                    assert!(
                        offset <= input.len(),
                        "offset {offset} exceeds input length {} for {:?}",
                        input.len(),
                        input
                    );
                    assert!(
                        input.is_char_boundary(offset.min(input.len())),
                        "offset {offset} is not a char boundary in {:?}",
                        input
                    );
                }
                other => panic!("non-parse error {other:?} from the parser on {:?}", input),
            }
        }
    }
}

/// Every unmutated seed must parse as a concept or an axiom.
#[test]
fn seeds_are_well_formed() {
    for seed in SEEDS {
        let mut voc = Vocabulary::new();
        let as_axiom = parse_axiom(seed, &mut voc).is_ok();
        let as_concept = parse_concept(seed, &mut voc).is_ok();
        assert!(
            as_axiom || as_concept,
            "seed must be valid in at least one mode: {seed:?}"
        );
    }
}

/// 6 000 deterministic mutants: no panics, only in-bounds parse
/// errors.
#[test]
fn mutated_corpus_never_panics_and_reports_sane_offsets() {
    let mut rng = SplitMix64::new(0x5EED_F00D);
    for round in 0..6_000usize {
        let seed = SEEDS[round % SEEDS.len()];
        let other = SEEDS[rng.below(SEEDS.len())];
        let mut mutant = mutate(&mut rng, seed, other);
        // Occasionally stack a second mutation for deeper damage.
        if rng.chance(1, 3) {
            mutant = mutate(&mut rng, &mutant, other);
        }
        check(&mutant);
    }
}

/// Hostile fixed inputs: empty, operators only, unterminated forms,
/// digits in odd places, deep nesting.
#[test]
fn hostile_inputs_are_rejected_not_crashed() {
    let deep_open = "(".repeat(2_000);
    let deep_ok = format!("{}top{}", "(".repeat(200), ")".repeat(200));
    let hostile = [
        "",
        " ",
        "~",
        "&&&",
        "some",
        "some r.",
        "atleast",
        "atleast r.top",
        "atleast 99999999999999999999 r.top",
        "a <",
        "< a",
        "a < b < c",
        "a = ",
        "(((((",
        ")",
        "4",
        "top bottom",
        "🦀",
        deep_open.as_str(),
        deep_ok.as_str(),
    ];
    for input in hostile {
        check(input);
    }
}
