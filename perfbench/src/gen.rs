//! Workload inputs, all derived from the seed: snapshot axiom text in
//! the `summa_dl::parser` grammar and the request streams the clients
//! send. The program under test only ever sees the generated text.

use summa_dl::concept::{Concept, Vocabulary};
use summa_dl::generate::{diamond, SplitMix64};
use summa_dl::tbox::{Axiom, TBox};
use summa_serve::wire::Request;

/// Snapshot name every workload reads.
pub const SNAPSHOT: &str = "bench";

/// `diamond(8)`: the deep EL lattice of `told` (511 atoms).
pub const TOLD_DEPTH: usize = 8;
/// Renamed paper copies in the `prove` TBox (16 gives 182 atoms).
pub const PROVE_COPIES: usize = 16;
/// Distinct told pairs the `told` stream draws from.
pub const TOLD_PAIRS: usize = 2048;
/// Hot subsumption queries in `prove`; half the traffic repeats them.
pub const PROVE_HOT: usize = 64;
/// One `prove` request in this many is a `realize`.
pub const PROVE_REALIZE_EVERY: usize = 16;
/// Told ABoxes per workload: `prove` sends them through `realize`, and
/// the traced run of every workload replays them.
pub const ABOX_COUNT: usize = 32;
/// Distinct told pairs the `swap` reader draws from.
pub const SWAP_PAIRS: usize = 512;
/// Paper copies whose atoms form the `swap` read vocabulary.
pub const SWAP_READ_COPIES: usize = 8;
/// Paper copies in the wide EL revision (32 gives 358 atoms).
pub const SWAP_WIDE_COPIES: usize = 32;
/// Depth of the deep lattice part of the deep EL revision.
pub const SWAP_DEEP_DEPTH: usize = 7;

/// Concept names shared by every copy of the paper structures.
const SHARED: [&str; 6] = ["small", "big", "food", "artifact", "organism", "entity"];

/// Render a concept in the parser grammar.
pub fn render(c: &Concept, voc: &Vocabulary) -> String {
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

/// Render a TBox as axiom text, one axiom per line.
pub fn render_tbox(tbox: &TBox, voc: &Vocabulary) -> String {
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

/// The names of one renamed copy of structures (4) and (8)–(11).
#[derive(Debug, Clone)]
pub struct Copy {
    pub car: String,
    pub pickup: String,
    pub motorvehicle: String,
    pub roadvehicle: String,
    pub gasoline: String,
    pub wheel: String,
    pub dog: String,
    pub horse: String,
    pub animal: String,
    pub quadruped: String,
    pub leg: String,
}

impl Copy {
    fn new(tag: &str) -> Copy {
        let n = |base: &str| format!("{base}_{tag}");
        Copy {
            car: n("car"),
            pickup: n("pickup"),
            motorvehicle: n("motorvehicle"),
            roadvehicle: n("roadvehicle"),
            gasoline: n("gasoline"),
            wheel: n("wheel"),
            dog: n("dog"),
            horse: n("horse"),
            animal: n("animal"),
            quadruped: n("quadruped"),
            leg: n("leg"),
        }
    }

    /// Every atom of the copy, in a fixed order.
    pub fn atoms(&self) -> [&str; 11] {
        [
            &self.car,
            &self.pickup,
            &self.motorvehicle,
            &self.roadvehicle,
            &self.gasoline,
            &self.wheel,
            &self.dog,
            &self.horse,
            &self.animal,
            &self.quadruped,
            &self.leg,
        ]
    }
}

/// `n` copies with seed-chosen, pairwise distinct name tags.
pub fn copies(rng: &mut SplitMix64, n: usize) -> Vec<Copy> {
    const ALPHABET: &[u8] = b"abcdefghijkmnpqrstuvwxyz23456789";
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let tag: String = (0..4)
            .map(|_| ALPHABET[rng.below(ALPHABET.len())] as char)
            .collect();
        if seen.insert(tag.clone()) {
            out.push(Copy::new(&tag));
        }
    }
    out
}

/// The paper structures over `copies`, under the shared upper
/// taxonomy. The ALCQ form is structure (4) plus the repaired animals
/// (9)–(11) with `∃₄has` and disjoint siblings (written `a < ~b` so
/// the tableau absorbs them); the EL form weakens
/// `∃₄has` to `∃has`, drops disjointness, and keeps the unrepaired
/// structure (8), so `quadruped ⊑ animal` holds only in the ALCQ form.
pub fn paper_text(copies: &[Copy], alcq: bool) -> String {
    let mut t = String::new();
    let mut line = |s: String| {
        t.push_str(&s);
        t.push('\n');
    };
    line("artifact < entity".into());
    line("organism < entity".into());
    if alcq {
        line("artifact < ~organism".into());
        line("small < ~big".into());
    }
    let has = |n: &str| {
        if alcq {
            format!("exactly 4 has.{n}")
        } else {
            format!("some has.{n}")
        }
    };
    for c in copies {
        line(format!(
            "{} < {} & {} & some size.small",
            c.car, c.motorvehicle, c.roadvehicle
        ));
        line(format!(
            "{} < {} & {} & some size.big",
            c.pickup, c.motorvehicle, c.roadvehicle
        ));
        line(format!("{} < some uses.{}", c.motorvehicle, c.gasoline));
        line(format!("{} < {}", c.roadvehicle, has(&c.wheel)));
        line(format!("{} < artifact", c.motorvehicle));
        line(format!("{} < artifact", c.roadvehicle));
        if alcq {
            line(format!("{} < {}", c.quadruped, c.animal));
            line(format!("{} < {} & some size.small", c.dog, c.quadruped));
            line(format!("{} < {} & some size.big", c.horse, c.quadruped));
            line(format!("{} < ~{}", c.car, c.pickup));
            line(format!("{} < ~{}", c.dog, c.horse));
        } else {
            line(format!(
                "{} < {} & {} & some size.small",
                c.dog, c.animal, c.quadruped
            ));
            line(format!(
                "{} < {} & {} & some size.big",
                c.horse, c.animal, c.quadruped
            ));
        }
        line(format!("{} < some ingests.food", c.animal));
        line(format!("{} < {}", c.quadruped, has(&c.leg)));
        line(format!("{} < organism", c.animal));
    }
    t
}

/// A `diamond(depth)` lattice as axiom text, its root optionally placed
/// under the concept `root_under`.
fn diamond_text(depth: usize, root_under: Option<&str>) -> String {
    let (voc, tbox, ids) = diamond(depth);
    let mut text = render_tbox(&tbox, &voc);
    if let (Some(parent), Some(&root)) = (root_under, ids.first()) {
        text.push_str(&format!("{} < {parent}\n", voc.concept_name(root)));
    }
    text
}

/// One snapshot revision the benchmark installs.
#[derive(Debug, Clone)]
pub struct Revision {
    /// Shape label used in per-layer reports.
    pub shape: &'static str,
    pub text: String,
    /// Whether every axiom is in the EL fragment.
    pub el: bool,
}

/// A workload's complete generated input.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Revisions in install order; `told` and `prove` have one, `swap`
    /// cycles through all of them.
    pub revisions: Vec<Revision>,
    /// Distinct read requests; a stream refers to them by index.
    pub distinct: Vec<Request>,
    /// The read stream, as indices into `distinct`. Connections take
    /// the next entry from one shared cursor, so the requests sent are
    /// always a prefix of this stream.
    pub stream: Vec<usize>,
    /// Told ABoxes over the snapshot, replayed through `realize` by
    /// the traced run (and sent by `prove`).
    pub aboxes: Vec<String>,
}

fn subsumes(sub: &str, sup: &str) -> Request {
    Request::Subsumes {
        snapshot: SNAPSHOT.into(),
        sub: sub.into(),
        sup: sup.into(),
    }
}

fn pick<'a>(rng: &mut SplitMix64, xs: &'a [String]) -> &'a str {
    &xs[rng.below(xs.len())]
}

/// Told pairs drawn uniformly from `atoms × atoms`.
fn told_pairs(rng: &mut SplitMix64, atoms: &[String], n: usize) -> Vec<Request> {
    (0..n)
        .map(|_| {
            let sub = pick(rng, atoms).to_string();
            let sup = pick(rng, atoms).to_string();
            subsumes(&sub, &sup)
        })
        .collect()
}

/// Told ABoxes: a few individuals, each asserted into one atom, plus a
/// role edge between two of them. Only asserted facts, and consistent:
/// one atom per individual cannot meet a disjointness axiom.
fn told_aboxes(rng: &mut SplitMix64, atoms: &[String], roles: &[&str], n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let inds = 2 + rng.below(3);
            let mut text = String::new();
            for i in 0..inds {
                text.push_str(&format!("x{i} : {}\n", pick(rng, atoms)));
            }
            let role = roles[rng.below(roles.len())];
            text.push_str(&format!("x0 {role} x{}\n", inds - 1));
            text
        })
        .collect()
}

/// Stream of `len` uniform draws from `0..n`.
fn uniform_stream(rng: &mut SplitMix64, n: usize, len: usize) -> Vec<usize> {
    (0..len).map(|_| rng.below(n)).collect()
}

fn paper_atoms(copies: &[Copy]) -> Vec<String> {
    let mut atoms: Vec<String> = SHARED.iter().map(|s| s.to_string()).collect();
    for c in copies {
        atoms.extend(c.atoms().iter().map(|s| s.to_string()));
    }
    atoms
}

/// `told`: told-pair `subsumes` over `diamond(8)`.
pub fn told(seed: u64, stream_len: usize) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let (voc, _, ids) = diamond(TOLD_DEPTH);
    let atoms: Vec<String> = ids
        .iter()
        .map(|&c| voc.concept_name(c).to_string())
        .collect();
    let distinct = told_pairs(&mut rng, &atoms, TOLD_PAIRS);
    let stream = uniform_stream(&mut rng, distinct.len(), stream_len);
    let aboxes = told_aboxes(&mut rng, &atoms, &["r"], ABOX_COUNT);
    Inputs {
        revisions: vec![Revision {
            shape: "el_deep",
            text: diamond_text(TOLD_DEPTH, None),
            el: true,
        }],
        distinct,
        stream,
        aboxes,
    }
}

/// Query templates over one copy: `(sub, sup)` with `{atom}` slots
/// naming the copy's atoms. Together they use ∃, ∀, ¬ and ⊔ (and ≥, ⊓, ⊥); some
/// hold and some do not. Every copy is a renaming of every other, so a
/// template costs the same whichever copy fills it.
const TEMPLATES: [(&str, &str); 16] = [
    ("{dog} & some size.small", "{animal}"),
    ("some has.{dog}", "some has.({quadruped} | {car})"),
    ("all has.{leg}", "all has.({leg} | {wheel})"),
    ("{car} | {pickup}", "{motorvehicle} & {roadvehicle}"),
    ("{horse} & ~{dog}", "{quadruped}"),
    ("some ingests.food & {quadruped}", "{animal}"),
    ("{roadvehicle}", "atleast 4 has.{wheel}"),
    ("{car}", "some size.big"),
    ("{car} & {dog}", "bottom"),
    ("some uses.{gasoline}", "{motorvehicle}"),
    ("{dog} | {horse}", "some size.(small | big)"),
    ("all size.~small & {dog}", "bottom"),
    ("{quadruped} & ~{animal}", "{pickup}"),
    ("~({car} | {pickup})", "~{car}"),
    ("some has.({dog} | {horse})", "some has.{animal}"),
    ("{motorvehicle}", "{car} | {pickup}"),
];

fn fill(template: &str, c: &Copy) -> String {
    let mut s = template.to_string();
    for (slot, name) in [
        ("{car}", &c.car),
        ("{pickup}", &c.pickup),
        ("{motorvehicle}", &c.motorvehicle),
        ("{roadvehicle}", &c.roadvehicle),
        ("{gasoline}", &c.gasoline),
        ("{wheel}", &c.wheel),
        ("{dog}", &c.dog),
        ("{horse}", &c.horse),
        ("{animal}", &c.animal),
        ("{quadruped}", &c.quadruped),
        ("{leg}", &c.leg),
    ] {
        s = s.replace(slot, name);
    }
    s
}

/// One complex `subsumes` query: template `t` over copy `a`, with a
/// fixed-shape disjunct over copies `b`, `c`, `d` widening the
/// subsumer. Four distinct copies make the query space large enough
/// that fresh queries do not repeat.
fn prove_query(t: usize, [a, b, c, d]: [&Copy; 4]) -> Request {
    let (sub, sup) = TEMPLATES[t % TEMPLATES.len()];
    let sup = format!(
        "({}) | {} | ({} & some has.{})",
        fill(sup, a),
        b.gasoline,
        c.wheel,
        d.leg
    );
    subsumes(&fill(sub, a), &sup)
}

/// Four distinct copies drawn from the seed.
fn four<'a>(rng: &mut SplitMix64, copies: &'a [Copy]) -> [&'a Copy; 4] {
    let mut idx: Vec<usize> = Vec::with_capacity(4);
    while idx.len() < 4 {
        let i = rng.below(copies.len());
        if !idx.contains(&i) {
            idx.push(i);
        }
    }
    [
        &copies[idx[0]],
        &copies[idx[1]],
        &copies[idx[2]],
        &copies[idx[3]],
    ]
}

/// ABox templates: told facts about a copy's individuals.
const ABOXES: [&str; 4] = [
    "x0 : {dog}\nx1 : {leg}\nx0 has x1\n",
    "x0 : {car}\nx1 : {wheel}\nx0 has x1\nx2 : {horse}\n",
    "x0 : {pickup}\nx1 : big\nx0 size x1\n",
    "x0 : {quadruped}\nx1 : {roadvehicle}\nx2 : food\nx0 ingests x2\n",
];

/// `prove`: complex `subsumes` (half from a hot set) and a fixed share
/// of told-ABox `realize` calls, over k renamed paper copies. The seed
/// picks the names and which copies fill each template; the template
/// sequence is the same for every seed.
pub fn prove(seed: u64, stream_len: usize) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let copies = copies(&mut rng, PROVE_COPIES);
    let aboxes: Vec<String> = (0..ABOX_COUNT)
        .map(|i| fill(ABOXES[i % ABOXES.len()], &copies[rng.below(copies.len())]))
        .collect();
    // distinct = [realize aboxes | hot queries | fresh queries...]
    let mut distinct: Vec<Request> = aboxes
        .iter()
        .map(|a| Request::Realize {
            snapshot: SNAPSHOT.into(),
            abox: a.clone(),
        })
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut fresh = |t: usize, rng: &mut SplitMix64| loop {
        let q = prove_query(t, four(rng, &copies));
        if seen.insert(format!("{q:?}")) {
            return q;
        }
    };
    let hot0 = distinct.len();
    for t in 0..PROVE_HOT {
        distinct.push(fresh(t, &mut rng));
    }
    let mut stream = Vec::with_capacity(stream_len);
    let mut queries = 0usize;
    for i in 0..stream_len {
        let key = if i % PROVE_REALIZE_EVERY == PROVE_REALIZE_EVERY - 1 {
            i / PROVE_REALIZE_EVERY % ABOX_COUNT
        } else {
            queries += 1;
            if queries.is_multiple_of(2) {
                hot0 + queries / 2 % PROVE_HOT
            } else {
                distinct.push(fresh(queries / 2, &mut rng));
                distinct.len() - 1
            }
        };
        stream.push(key);
    }
    Inputs {
        revisions: vec![Revision {
            shape: "alcq",
            text: paper_text(&copies, true),
            el: false,
        }],
        distinct,
        stream,
        aboxes,
    }
}

/// `swap`: revisions alternate EL and ALCQ forms over one read
/// vocabulary (the first copies' atoms); the reader sends told pairs.
pub fn swap(seed: u64, stream_len: usize) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let copies = copies(&mut rng, SWAP_WIDE_COPIES);
    let read = &copies[..SWAP_READ_COPIES];
    let mut deep = diamond_text(SWAP_DEEP_DEPTH, Some("entity"));
    deep.push_str(&paper_text(read, false));
    let revisions = vec![
        Revision {
            shape: "el_deep",
            text: deep,
            el: true,
        },
        Revision {
            shape: "alcq",
            text: paper_text(&copies[..PROVE_COPIES], true),
            el: false,
        },
        Revision {
            shape: "el_wide",
            text: paper_text(&copies, false),
            el: true,
        },
        Revision {
            shape: "alcq_read",
            text: paper_text(read, true),
            el: false,
        },
    ];
    let atoms = paper_atoms(read);
    let distinct = told_pairs(&mut rng, &atoms, SWAP_PAIRS);
    let stream = uniform_stream(&mut rng, distinct.len(), stream_len);
    let aboxes = told_aboxes(&mut rng, &atoms, &["has", "size"], ABOX_COUNT);
    Inputs {
        revisions,
        distinct,
        stream,
        aboxes,
    }
}

/// Generate a workload by name.
pub fn inputs(workload: &str, seed: u64, stream_len: usize) -> Option<Inputs> {
    match workload {
        "told" => Some(told(seed, stream_len)),
        "prove" => Some(prove(seed, stream_len)),
        "swap" => Some(swap(seed, stream_len)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summa_serve::snapshot::parse_tbox;
    use summa_serve::wire::{encode_request, Envelope};

    fn stream_bytes(inp: &Inputs) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, &k) in inp.stream.iter().enumerate() {
            out.extend(encode_request(&Envelope {
                id: i as u64,
                tenant: "t".into(),
                request: inp.distinct[k].clone(),
            }));
        }
        out
    }

    /// A TBox with every name erased: what must not depend on the seed.
    fn shape(text: &str) -> Vec<String> {
        let (tbox, voc) = parse_tbox(text).expect("generated text parses");
        let rendered = render_tbox(&tbox, &voc);
        rendered
            .lines()
            .map(|l| {
                l.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .map(|tok| match tok.split_once('_') {
                        Some((base, _)) if !base.is_empty() => base,
                        _ => tok,
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for w in ["told", "prove", "swap"] {
            let a = inputs(w, 7, 500).expect("known workload");
            let b = inputs(w, 7, 500).expect("known workload");
            assert_eq!(stream_bytes(&a), stream_bytes(&b), "{w}");
            let texts = |i: &Inputs| {
                i.revisions
                    .iter()
                    .map(|r| r.text.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(texts(&a), texts(&b), "{w}");
            assert_eq!(a.aboxes, b.aboxes, "{w}");
        }
    }

    #[test]
    fn another_seed_changes_requests_but_not_tbox_shape() {
        for w in ["told", "prove", "swap"] {
            let a = inputs(w, 7, 500).expect("known workload");
            let b = inputs(w, 8, 500).expect("known workload");
            assert_ne!(stream_bytes(&a), stream_bytes(&b), "{w}");
            assert_eq!(a.revisions.len(), b.revisions.len());
            for (ra, rb) in a.revisions.iter().zip(&b.revisions) {
                let (ta, _) = parse_tbox(&ra.text).expect("parses");
                let (tb, _) = parse_tbox(&rb.text).expect("parses");
                assert_eq!(ta.len(), tb.len(), "{w}/{}: axiom count", ra.shape);
                assert_eq!(ta.is_el(), ra.el, "{w}/{}: fragment", ra.shape);
                assert_eq!(shape(&ra.text), shape(&rb.text), "{w}/{}: shape", ra.shape);
            }
        }
    }

    #[test]
    fn generated_sizes_match_the_documented_ones() {
        let told = told(1, 10);
        let (t, _) = parse_tbox(&told.revisions[0].text).expect("parses");
        assert_eq!(t.atoms().len(), 511);
        let prove = prove(1, 10);
        let (t, _) = parse_tbox(&prove.revisions[0].text).expect("parses");
        assert_eq!(t.atoms().len(), 182);
        let swap = swap(1, 10);
        let wide = swap
            .revisions
            .iter()
            .find(|r| r.shape == "el_wide")
            .expect("wide");
        let (t, _) = parse_tbox(&wide.text).expect("parses");
        assert_eq!(t.atoms().len(), 358);
    }

    #[test]
    fn prove_mixes_hot_fresh_and_realize_at_fixed_shares() {
        let inp = prove(3, 3200);
        let realize = inp
            .stream
            .iter()
            .filter(|&&k| matches!(inp.distinct[k], Request::Realize { .. }))
            .count();
        assert_eq!(realize, 3200 / PROVE_REALIZE_EVERY);
        let hot = inp
            .stream
            .iter()
            .filter(|k| (ABOX_COUNT..ABOX_COUNT + PROVE_HOT).contains(k))
            .count();
        let queries = 3200 - realize;
        assert_eq!(hot * 2, queries, "half the queries are hot");
    }
}
