//! A deterministic corpus fuzzer for the DL concept/axiom parser, and
//! its differential suite.
//!
//! Seeds mirror the paper corpus of `summa_dl::corpus` in the
//! parser's concrete syntax; thousands of mutants (character edits,
//! splices, truncations — always valid UTF-8) are fed to
//! [`parse_concept`] and [`parse_axiom`]. The contract under fuzz:
//! the parser never panics, and every rejection is a
//! `DlError::Parse` whose byte offset lies inside (or exactly at the
//! end of) the mutated input.
//!
//! The differential half holds the borrowed-token parser to the one it
//! replaced (`support/parser_reference.rs`): on every seed and mutant,
//! every corpus and generated TBox rendered to text, and the grammar's
//! corners, both give the same value, or the same error with the same
//! text and offset, and leave the same vocabulary behind.

use std::panic::{catch_unwind, AssertUnwindSafe};
use summa_dl::concept::Concept;
use summa_dl::corpus::{
    animals_tbox, animals_tbox_el, animals_tbox_repaired, vehicles_tbox, vehicles_tbox_el,
};
use summa_dl::error::DlError;
use summa_dl::generate::{self, SplitMix64};
use summa_dl::parser::{parse_axiom_text, MAX_NESTING};
use summa_dl::prelude::{parse_axiom, parse_concept, Axiom, PaperVocab, TBox, Vocabulary};

#[path = "support/parser_reference.rs"]
mod reference;

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

/// Both parsers on one input, in both modes: equal values or equal
/// errors, and equal vocabularies after, since names are interned as
/// they are met.
fn check_differential(input: &str) {
    let (mut new, mut old) = (Vocabulary::new(), Vocabulary::new());
    assert_eq!(
        parse_concept(input, &mut new),
        reference::parse_concept(input, &mut old),
        "parse_concept({input:?})"
    );
    assert_eq!(new, old, "vocabulary after parse_concept({input:?})");
    let (mut new, mut old) = (Vocabulary::new(), Vocabulary::new());
    assert_eq!(
        parse_axiom(input, &mut new),
        reference::parse_axiom(input, &mut old),
        "parse_axiom({input:?})"
    );
    assert_eq!(new, old, "vocabulary after parse_axiom({input:?})");
}

/// Both parsers on one axiom text: the same `(TBox, Vocabulary)`, ids
/// in first-seen order, or the same line number and error.
fn check_text(text: &str) {
    assert_eq!(
        parse_axiom_text(text),
        reference::parse_axiom_text(text),
        "parse_axiom_text({text:?})"
    );
}

/// A concept in the parser grammar, ASCII operators only.
fn render(c: &Concept, voc: &Vocabulary) -> String {
    let join = |parts: &[Concept], sep: &str| {
        let inner: Vec<String> = parts.iter().map(|p| render(p, voc)).collect();
        format!("({})", inner.join(sep))
    };
    match c {
        Concept::Top => "top".into(),
        Concept::Bottom => "bottom".into(),
        Concept::Atom(a) => voc.concept_name(*a).into(),
        Concept::Not(x) => format!("~{}", render(x, voc)),
        Concept::And(xs) => join(xs, " & "),
        Concept::Or(xs) => join(xs, " | "),
        Concept::Exists(r, x) => format!("some {}.{}", voc.role_name(*r), render(x, voc)),
        Concept::Forall(r, x) => format!("all {}.{}", voc.role_name(*r), render(x, voc)),
        Concept::AtLeast(n, r, x) => {
            format!("atleast {n} {}.{}", voc.role_name(*r), render(x, voc))
        }
        Concept::AtMost(n, r, x) => format!("atmost {n} {}.{}", voc.role_name(*r), render(x, voc)),
    }
}

/// A TBox as axiom text, one axiom per line; disjointness as `⊓ ⊑ ⊥`.
fn render_tbox(tbox: &TBox, voc: &Vocabulary) -> String {
    let mut out = String::new();
    for ax in tbox.axioms() {
        let line = match ax {
            Axiom::Subsume { lhs, rhs } => format!("{} < {}", render(lhs, voc), render(rhs, voc)),
            Axiom::Equiv { lhs, rhs } => format!("{} = {}", render(lhs, voc), render(rhs, voc)),
            Axiom::Disjoint { a, b } => {
                format!("({} & {}) < bottom", render(a, voc), render(b, voc))
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The same text with the grammar's Unicode operators.
fn unicode(text: &str) -> String {
    text.replace(" & ", " ⊓ ")
        .replace(" | ", " ⊔ ")
        .replace('~', "¬")
        .replace(" < ", " ⊑ ")
        .replace(" = ", " ≡ ")
}

/// Every corpus and generated TBox as text, each also with Unicode
/// operators, CRLF line ends, and comments, blank lines and stray
/// indentation between its axioms.
fn rendered_texts() -> Vec<String> {
    let p = PaperVocab::new();
    let mut tboxes: Vec<(TBox, Vocabulary)> = [
        vehicles_tbox(&p),
        animals_tbox(&p),
        animals_tbox_repaired(&p),
        vehicles_tbox_el(&p),
        animals_tbox_el(&p),
    ]
    .into_iter()
    .map(|t| (t, p.voc.clone()))
    .collect();
    for depth in [1, 3, 8] {
        let (voc, t, _) = generate::diamond(depth);
        tboxes.push((t, voc));
    }
    for seed in [0, 7, 1405, 0x5EED] {
        let (voc, t, _) = generate::random_el(12, 2, 16, seed);
        tboxes.push((t, voc));
    }
    for (holes, probes) in [(2, 1), (3, 2), (6, 1)] {
        let (voc, t, _) = generate::pigeonhole_tbox(holes, probes);
        tboxes.push((t, voc));
    }
    let (voc, t, _) = generate::chain(50);
    tboxes.push((t, voc));
    let mut texts = Vec::new();
    for (t, voc) in &tboxes {
        let text = render_tbox(t, voc);
        let decorated: String = text
            .lines()
            .enumerate()
            .map(|(i, line)| match i % 4 {
                0 => format!("# axiom {i}\n{line}\n"),
                1 => format!("\n  {line}\t\n"),
                2 => format!("{line}\r\n"),
                _ => format!("\u{3000}{line}\n   # done\n"),
            })
            .collect();
        texts.extend([unicode(&text), text.replace('\n', "\r\n"), decorated, text]);
    }
    texts
}

/// `top` inside `levels - 1` parentheses: a concept whose parse opens
/// `levels` nested frames.
fn nested(levels: usize) -> String {
    format!("{}top{}", "(".repeat(levels - 1), ")".repeat(levels - 1))
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

/// The seeds and 6 000 mutants through both parsers.
#[test]
fn seeds_and_mutants_parse_as_the_reference_parses() {
    for seed in SEEDS {
        check_differential(seed);
    }
    let mut rng = SplitMix64::new(0x5EED_F00D);
    for round in 0..6_000usize {
        let seed = SEEDS[round % SEEDS.len()];
        let other = SEEDS[rng.below(SEEDS.len())];
        let mut mutant = mutate(&mut rng, seed, other);
        if rng.chance(1, 3) {
            mutant = mutate(&mut rng, &mutant, other);
        }
        check_differential(&mutant);
    }
}

/// Every corpus and generated TBox, rendered, parses to the same TBox
/// and vocabulary; so does every mutant of those texts, or it fails on
/// the same line with the same error.
#[test]
fn rendered_tboxes_parse_as_the_reference_parses() {
    let texts = rendered_texts();
    for text in &texts {
        check_text(text);
        let (tbox, _) = parse_axiom_text(text).expect("rendered text parses");
        assert!(!tbox.is_empty());
    }
    let mut rng = SplitMix64::new(0x7E57);
    for round in 0..3_000usize {
        let text = &texts[round % texts.len()];
        let other = &texts[rng.below(texts.len())];
        // Mutate one line at a time, so the text stays large.
        let lines: Vec<&str> = text.lines().collect();
        let at = rng.below(lines.len());
        let mut out = lines.clone();
        let mutant = mutate(&mut rng, lines[at], other);
        out[at] = &mutant;
        check_text(&out.join("\n"));
    }
}

/// Grammar corners: nesting at the ceiling and one past it, literal
/// overflow, every operator in both spellings, `exactly`, line ends and
/// comments, Unicode names and whitespace.
#[test]
fn grammar_corners_parse_as_the_reference_parses() {
    let deepest = nested(MAX_NESTING);
    let too_deep = nested(MAX_NESTING + 1);
    let mut voc = Vocabulary::new();
    assert_eq!(parse_concept(&deepest, &mut voc), Ok(Concept::Top));
    match parse_concept(&too_deep, &mut voc) {
        Err(DlError::Parse { detail, offset, .. }) => {
            assert_eq!(detail, format!("nesting deeper than {MAX_NESTING}"));
            assert_eq!(offset, MAX_NESTING);
        }
        other => panic!("one level past the ceiling must be refused, got {other:?}"),
    }
    let exists_deepest = format!("{}b", "some r.".repeat(MAX_NESTING - 1));
    let exists_too_deep = format!("{}b", "some r.".repeat(MAX_NESTING));
    let tilde_too_deep = format!("{}a", "~".repeat(MAX_NESTING));
    let inputs = [
        deepest.clone(),
        too_deep.clone(),
        format!("a < {deepest}"),
        format!("{too_deep} = a"),
        format!("a < {exists_deepest}"),
        format!("a < {exists_too_deep}"),
        tilde_too_deep,
        "atleast 4294967295 r.top".into(),
        "atleast 4294967296 r.top".into(),
        "atmost 99999999999999999999 r.top < a".into(),
        "a < atleast 0 r.(b | ~c)".into(),
        "x < exactly 3 has.(wheel & ~flat) & all has.(round ⊔ bottom)".into(),
        "exactly 4 has.wheel = car".into(),
        "exactly has.wheel".into(),
        "exactly 4 .wheel".into(),
        "exactly 4 has wheel".into(),
        "¬a ⊓ ¬¬b ⊑ c ⊔ (d ⊓ e)".into(),
        "a ≡ b ⊓ some r.¬c".into(),
        "a ⊑ b ≡ c".into(),
        "äpfel < frucht_β & some hat.schale²".into(),
        "名前 < 概念".into(),
        "a\u{2028}<\u{00A0}b".into(),
        "a < b\r".into(),
        "a < (b".into(),
        "a < b)".into(),
        "(a < b)".into(),
        "top < bottom".into(),
        "bottom = top".into(),
        "some < all".into(),
        "a < some".into(),
        "a < some r".into(),
        "a < some 4.b".into(),
        "a < atleast r.b".into(),
        "4 < a".into(),
        "a # b".into(),
        "a < b @".into(),
        "🦀 < a".into(),
        "_ < __x".into(),
        "a1 < 1a".into(),
        "".into(),
        "<".into(),
        "a <".into(),
        "a".into(),
    ];
    for input in &inputs {
        check_differential(input);
        check_text(input);
    }
    let texts = [
        format!("# header\r\n\r\n{deepest} < a\r\n  # indented comment\n\tb < c  \n"),
        format!("a < b\n{too_deep} < c\n"),
        "a < b\n   \n# x\nc < d\ne f\n".into(),
        "a < b\n\u{3000}\n\u{85}c < d\u{85}\n".into(),
        "a < b\n#\n# é 🦀 @ anything\nb < c".into(),
        "\n\n\n".into(),
        "a ⊑ b\r\nb ⊑ c\r\nc ≡ a ⊓ d\r\n".into(),
        "x < atleast 99999999999999999999 r.top\ny < z\n".into(),
        "a < b\n  c < d # trailing comment\n".into(),
        "a < b\rc < d\n".into(),
    ];
    for text in &texts {
        check_text(text);
    }
}
