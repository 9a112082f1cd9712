//! The ALCQ concept language.
//!
//! Concepts are built from interned atomic concept names and role
//! names with the constructors ⊤, ⊥, ¬, ⊓, ⊔, ∃r.C, ∀r.C and the
//! qualified number restrictions ≥n r.C / ≤n r.C (the paper's
//! `∃₄has.wheels` is `≥4 has.wheel ⊓ ≤4 has.wheel`).

use std::collections::hash_map::RandomState;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// Interned atomic concept name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConceptId(pub u32);

/// Interned role name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoleId(pub u32);

/// One namespace of interned names. Ids are positions in the list of
/// names, which alone defines equality and `Debug`: the names are kept
/// back to back in `text`, name `id` ending at `ends[id]`. `slots` is
/// the derived name → id lookup, an open-addressing table that keeps
/// each name's hash beside its id. Names can arrive over the wire, so
/// the lookup keeps std's keyed hasher. A name is hashed once per
/// lookup, hit or miss, and never again: the table grows by moving the
/// kept hashes. Interning a new name copies its bytes into `text` and
/// allocates only when one of the three buffers grows, and a clone
/// copies three buffers whatever the number of names.
#[derive(Clone, Default)]
struct Names {
    text: String,
    ends: Vec<usize>,
    /// `(hash, id)` per slot, [`EMPTY`] ids marking free slots; the
    /// length is zero or a power of two, at least twice the number of
    /// names.
    slots: Vec<(u32, u32)>,
    keys: RandomState,
}

/// The id of a free slot in [`Names::slots`].
const EMPTY: u32 = u32::MAX;

impl Names {
    fn intern(&mut self, name: &str) -> u32 {
        let hash = self.hash(name);
        if let Some(id) = self.lookup(name, hash) {
            return id;
        }
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("fewer than 2^32 - 1 interned names");
        self.text.push_str(name);
        self.ends.push(self.text.len());
        if 2 * self.len() > self.slots.len() {
            let grown = vec![(0, EMPTY); (2 * self.slots.len()).max(16)];
            for (hash, id) in std::mem::replace(&mut self.slots, grown) {
                if id != EMPTY {
                    self.place(hash, id);
                }
            }
        }
        self.place(hash, id);
        id
    }

    fn find(&self, name: &str) -> Option<u32> {
        self.lookup(name, self.hash(name))
    }

    fn hash(&self, name: &str) -> u32 {
        let mut h = self.keys.build_hasher();
        h.write(name.as_bytes());
        // The table indexes by the low bits; 32 of them cover any
        // table a `u32` id space can fill.
        h.finish() as u32
    }

    fn lookup(&self, name: &str, hash: u32) -> Option<u32> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut at = hash as usize & mask;
        loop {
            let (h, id) = self.slots[at];
            if id == EMPTY {
                return None;
            }
            if h == hash && self.name(id) == name {
                return Some(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Put `id` in the first free slot from its hash's home slot on.
    fn place(&mut self, hash: u32, id: u32) {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while self.slots[at].1 != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = (hash, id);
    }

    fn name(&self, id: u32) -> &str {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start..self.ends[id]]
    }

    fn len(&self) -> usize {
        self.ends.len()
    }
}

impl PartialEq for Names {
    fn eq(&self, other: &Names) -> bool {
        self.ends == other.ends && self.text == other.text
    }
}

impl Eq for Names {}

impl fmt::Debug for Names {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len() as u32).map(|id| self.name(id)))
            .finish()
    }
}

/// Interner for concept and role names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Vocabulary {
    concepts: Names,
    roles: Names,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a concept name (idempotent).
    pub fn concept(&mut self, name: &str) -> ConceptId {
        ConceptId(self.concepts.intern(name))
    }

    /// Intern a role name (idempotent).
    pub fn role(&mut self, name: &str) -> RoleId {
        RoleId(self.roles.intern(name))
    }

    /// Look up a concept id by name without interning.
    pub fn find_concept(&self, name: &str) -> Option<ConceptId> {
        self.concepts.find(name).map(ConceptId)
    }

    /// Look up a role id by name without interning.
    pub fn find_role(&self, name: &str) -> Option<RoleId> {
        self.roles.find(name).map(RoleId)
    }

    /// Name of a concept id.
    pub fn concept_name(&self, c: ConceptId) -> &str {
        self.concepts.name(c.0)
    }

    /// Name of a role id.
    pub fn role_name(&self, r: RoleId) -> &str {
        self.roles.name(r.0)
    }

    /// Number of interned concept names.
    pub fn n_concepts(&self) -> usize {
        self.concepts.len()
    }

    /// Number of interned role names.
    pub fn n_roles(&self) -> usize {
        self.roles.len()
    }

    /// All concept ids.
    pub fn concepts(&self) -> impl Iterator<Item = ConceptId> + '_ {
        (0..self.concepts.len() as u32).map(ConceptId)
    }

    /// All role ids.
    pub fn roles(&self) -> impl Iterator<Item = RoleId> + '_ {
        (0..self.roles.len() as u32).map(RoleId)
    }
}

/// An ALCQ concept expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Concept {
    /// ⊤ — everything.
    Top,
    /// ⊥ — nothing.
    Bottom,
    /// An atomic concept name.
    Atom(ConceptId),
    /// ¬C.
    Not(Box<Concept>),
    /// C₁ ⊓ … ⊓ Cₙ (n ≥ 2 after normalization).
    And(Vec<Concept>),
    /// C₁ ⊔ … ⊔ Cₙ.
    Or(Vec<Concept>),
    /// ∃r.C.
    Exists(RoleId, Box<Concept>),
    /// ∀r.C.
    Forall(RoleId, Box<Concept>),
    /// ≥n r.C.
    AtLeast(u32, RoleId, Box<Concept>),
    /// ≤n r.C.
    AtMost(u32, RoleId, Box<Concept>),
}

impl Concept {
    /// Atomic concept.
    pub fn atom(c: ConceptId) -> Concept {
        Concept::Atom(c)
    }

    /// Negation (with double-negation elimination).
    #[allow(clippy::should_implement_trait)] // `Concept::not` mirrors DL syntax ¬C
    pub fn not(c: Concept) -> Concept {
        match c {
            Concept::Not(inner) => *inner,
            Concept::Top => Concept::Bottom,
            Concept::Bottom => Concept::Top,
            other => Concept::Not(Box::new(other)),
        }
    }

    /// n-ary conjunction, flattening nested conjunctions and dropping ⊤.
    pub fn and(cs: Vec<Concept>) -> Concept {
        let mut flat = vec![];
        for c in cs {
            match c {
                Concept::And(inner) => flat.extend(inner),
                Concept::Top => {}
                Concept::Bottom => return Concept::Bottom,
                other => flat.push(other),
            }
        }
        flat.sort();
        flat.dedup();
        match flat.len() {
            0 => Concept::Top,
            1 => flat.pop().expect("len checked"),
            _ => Concept::And(flat),
        }
    }

    /// n-ary disjunction, flattening and dropping ⊥.
    pub fn or(cs: Vec<Concept>) -> Concept {
        let mut flat = vec![];
        for c in cs {
            match c {
                Concept::Or(inner) => flat.extend(inner),
                Concept::Bottom => {}
                Concept::Top => return Concept::Top,
                other => flat.push(other),
            }
        }
        flat.sort();
        flat.dedup();
        match flat.len() {
            0 => Concept::Bottom,
            1 => flat.pop().expect("len checked"),
            _ => Concept::Or(flat),
        }
    }

    /// ∃r.C.
    pub fn exists(r: RoleId, c: Concept) -> Concept {
        Concept::Exists(r, Box::new(c))
    }

    /// ∀r.C.
    pub fn forall(r: RoleId, c: Concept) -> Concept {
        Concept::Forall(r, Box::new(c))
    }

    /// ≥n r.C.
    pub fn at_least(n: u32, r: RoleId, c: Concept) -> Concept {
        Concept::AtLeast(n, r, Box::new(c))
    }

    /// ≤n r.C.
    pub fn at_most(n: u32, r: RoleId, c: Concept) -> Concept {
        Concept::AtMost(n, r, Box::new(c))
    }

    /// "Exactly n r.C" — the paper's `∃ₙr.C` reading: ≥n ⊓ ≤n.
    pub fn exactly(n: u32, r: RoleId, c: Concept) -> Concept {
        Concept::and(vec![
            Concept::at_least(n, r, c.clone()),
            Concept::at_most(n, r, c),
        ])
    }

    /// Negation normal form: negation only on atoms.
    pub fn nnf(&self) -> Concept {
        match self {
            Concept::Top | Concept::Bottom | Concept::Atom(_) => self.clone(),
            Concept::And(cs) => Concept::and(cs.iter().map(Concept::nnf).collect()),
            Concept::Or(cs) => Concept::or(cs.iter().map(Concept::nnf).collect()),
            Concept::Exists(r, c) => Concept::exists(*r, c.nnf()),
            Concept::Forall(r, c) => Concept::forall(*r, c.nnf()),
            Concept::AtLeast(n, r, c) => Concept::at_least(*n, *r, c.nnf()),
            Concept::AtMost(n, r, c) => Concept::at_most(*n, *r, c.nnf()),
            Concept::Not(inner) => match inner.as_ref() {
                Concept::Top => Concept::Bottom,
                Concept::Bottom => Concept::Top,
                Concept::Atom(_) => self.clone(),
                Concept::Not(c) => c.nnf(),
                Concept::And(cs) => {
                    Concept::or(cs.iter().map(|c| Concept::not(c.clone()).nnf()).collect())
                }
                Concept::Or(cs) => {
                    Concept::and(cs.iter().map(|c| Concept::not(c.clone()).nnf()).collect())
                }
                Concept::Exists(r, c) => Concept::forall(*r, Concept::not(*c.clone()).nnf()),
                Concept::Forall(r, c) => Concept::exists(*r, Concept::not(*c.clone()).nnf()),
                // ¬(≥n r.C) = ≤(n−1) r.C ; ¬(≥0 r.C) = ⊥
                Concept::AtLeast(n, r, c) => {
                    if *n == 0 {
                        Concept::Bottom
                    } else {
                        Concept::at_most(n - 1, *r, c.nnf())
                    }
                }
                // ¬(≤n r.C) = ≥(n+1) r.C
                Concept::AtMost(n, r, c) => Concept::at_least(n + 1, *r, c.nnf()),
            },
        }
    }

    /// True when [`nnf`](Self::nnf) would return an equal concept, so a
    /// caller can use `self` in its place without building it: negation
    /// only on atoms, and every ⊓ and ⊔ in the shape [`and`](Self::and)
    /// and [`or`](Self::or) build (at least two parts, sorted, no
    /// repeats, no ⊤ or ⊥, none of its own kind).
    pub(crate) fn is_nnf(&self) -> bool {
        let parts_nnf = |cs: &[Concept], nested: fn(&Concept) -> bool| {
            cs.len() >= 2
                && cs.windows(2).all(|w| w[0] < w[1])
                && cs.iter().all(|c| {
                    !matches!(c, Concept::Top | Concept::Bottom) && !nested(c) && c.is_nnf()
                })
        };
        match self {
            Concept::Top | Concept::Bottom | Concept::Atom(_) => true,
            Concept::Not(c) => matches!(**c, Concept::Atom(_)),
            Concept::And(cs) => parts_nnf(cs, |c| matches!(c, Concept::And(_))),
            Concept::Or(cs) => parts_nnf(cs, |c| matches!(c, Concept::Or(_))),
            Concept::Exists(_, c)
            | Concept::Forall(_, c)
            | Concept::AtLeast(_, _, c)
            | Concept::AtMost(_, _, c) => c.is_nnf(),
        }
    }

    /// Number of constructors in the expression.
    pub fn size(&self) -> usize {
        match self {
            Concept::Top | Concept::Bottom | Concept::Atom(_) => 1,
            Concept::Not(c) => 1 + c.size(),
            Concept::And(cs) | Concept::Or(cs) => 1 + cs.iter().map(Concept::size).sum::<usize>(),
            Concept::Exists(_, c)
            | Concept::Forall(_, c)
            | Concept::AtLeast(_, _, c)
            | Concept::AtMost(_, _, c) => 1 + c.size(),
        }
    }

    /// Maximal nesting depth of role restrictions.
    pub fn role_depth(&self) -> usize {
        match self {
            Concept::Top | Concept::Bottom | Concept::Atom(_) => 0,
            Concept::Not(c) => c.role_depth(),
            Concept::And(cs) | Concept::Or(cs) => {
                cs.iter().map(Concept::role_depth).max().unwrap_or(0)
            }
            Concept::Exists(_, c)
            | Concept::Forall(_, c)
            | Concept::AtLeast(_, _, c)
            | Concept::AtMost(_, _, c) => 1 + c.role_depth(),
        }
    }

    /// All atomic concept ids occurring in the expression.
    pub fn atoms(&self) -> BTreeSet<ConceptId> {
        let mut out = Vec::new();
        self.for_each_atom(&mut |c| out.push(c));
        BTreeSet::from_iter(out)
    }

    /// Visit every atom occurrence, repeats included, for a caller that
    /// gathers the atoms of many expressions.
    pub(crate) fn for_each_atom(&self, f: &mut impl FnMut(ConceptId)) {
        match self {
            Concept::Top | Concept::Bottom => {}
            Concept::Atom(c) => f(*c),
            Concept::Not(c) => c.for_each_atom(f),
            Concept::And(cs) | Concept::Or(cs) => {
                for c in cs {
                    c.for_each_atom(f);
                }
            }
            Concept::Exists(_, c)
            | Concept::Forall(_, c)
            | Concept::AtLeast(_, _, c)
            | Concept::AtMost(_, _, c) => c.for_each_atom(f),
        }
    }

    /// All role ids occurring in the expression.
    pub fn roles(&self) -> BTreeSet<RoleId> {
        let mut out = BTreeSet::new();
        self.collect_roles(&mut out);
        out
    }

    fn collect_roles(&self, out: &mut BTreeSet<RoleId>) {
        match self {
            Concept::Top | Concept::Bottom | Concept::Atom(_) => {}
            Concept::Not(c) => c.collect_roles(out),
            Concept::And(cs) | Concept::Or(cs) => {
                for c in cs {
                    c.collect_roles(out);
                }
            }
            Concept::Exists(r, c)
            | Concept::Forall(r, c)
            | Concept::AtLeast(_, r, c)
            | Concept::AtMost(_, r, c) => {
                out.insert(*r);
                c.collect_roles(out);
            }
        }
    }

    /// True when the expression lies in the EL fragment (⊤, atoms, ⊓,
    /// ∃r.C only).
    pub fn is_el(&self) -> bool {
        match self {
            Concept::Top | Concept::Atom(_) => true,
            Concept::And(cs) => cs.iter().all(Concept::is_el),
            Concept::Exists(_, c) => c.is_el(),
            _ => false,
        }
    }

    /// Pretty-print against a vocabulary.
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> ConceptDisplay<'a> {
        ConceptDisplay { c: self, voc }
    }
}

/// Handle to a hash-consed concept in an [`Interner`].
///
/// Two handles from the *same* interner are equal iff the concepts
/// they denote are structurally equal, so equality and hashing are
/// O(1) — the point of interning. The derived `Ord` is by allocation
/// id (an arbitrary but stable total order, used for set storage
/// inside the tableau); for the *structural* order matching
/// [`Concept`]'s derived `Ord`, use [`Interner::cmp_structural`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConceptRef(u32);

impl ConceptRef {
    /// The raw arena index (exposed for diagnostics only).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// One hash-consed node: a [`Concept`] constructor whose children are
/// handles instead of boxed subtrees. Variant order mirrors `Concept`
/// exactly — [`Interner::cmp_structural`] depends on it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CNode {
    /// ⊤.
    Top,
    /// ⊥.
    Bottom,
    /// An atomic concept name.
    Atom(ConceptId),
    /// ¬C.
    Not(ConceptRef),
    /// C₁ ⊓ … ⊓ Cₙ.
    And(Box<[ConceptRef]>),
    /// C₁ ⊔ … ⊔ Cₙ.
    Or(Box<[ConceptRef]>),
    /// ∃r.C.
    Exists(RoleId, ConceptRef),
    /// ∀r.C.
    Forall(RoleId, ConceptRef),
    /// ≥n r.C.
    AtLeast(u32, RoleId, ConceptRef),
    /// ≤n r.C.
    AtMost(u32, RoleId, ConceptRef),
}

impl CNode {
    /// Variant rank matching `Concept`'s derived discriminant order.
    fn rank(&self) -> u8 {
        match self {
            CNode::Top => 0,
            CNode::Bottom => 1,
            CNode::Atom(_) => 2,
            CNode::Not(_) => 3,
            CNode::And(_) => 4,
            CNode::Or(_) => 5,
            CNode::Exists(_, _) => 6,
            CNode::Forall(_, _) => 7,
            CNode::AtLeast(_, _, _) => 8,
            CNode::AtMost(_, _, _) => 9,
        }
    }
}

/// A hash-consing arena for concepts.
///
/// Every structurally-distinct concept maps to one small
/// [`ConceptRef`] handle, assigned at construction. The tableau's
/// entire expansion loop then runs on `u32` handles: label sets are
/// sets of words, equality blocking compares word sets, and the
/// per-reasoner satisfiability memo keys on a single handle — no
/// deep-tree hashing or `Box`/`Vec` cloning anywhere on the hot path.
///
/// NNF is computed **once per handle** and memoized (`nnf`), as is the
/// NNF of a handle's negation (`neg_nnf`, what the choose-rule needs),
/// so repeated queries against the same TBox never re-normalize.
///
/// Handles are interner-local: two interners assign ids in their own
/// arrival order. Anything that crosses reasoners (the shared
/// [`SatCache`](crate::cache::SatCache)) therefore keys on the
/// externalized structural form, which [`Interner::externalize`]
/// reproduces canonically — the handle-level smart constructors sort
/// with [`Interner::cmp_structural`], which matches `Concept`'s
/// derived `Ord` exactly, so `externalize(nnf(intern(c))) == c.nnf()`
/// (a property the unit tests pin).
#[derive(Debug, Clone, Default)]
pub struct Interner {
    nodes: Vec<CNode>,
    index: crate::fxhash::FxHashMap<CNode, u32>,
    nnf_memo: crate::fxhash::FxHashMap<ConceptRef, ConceptRef>,
    neg_nnf_memo: crate::fxhash::FxHashMap<ConceptRef, ConceptRef>,
    hits: u64,
    misses: u64,
}

impl Interner {
    /// A fresh arena with ⊤ and ⊥ pre-interned.
    pub fn new() -> Self {
        let mut i = Interner::default();
        let top = i.mk(CNode::Top);
        let bottom = i.mk(CNode::Bottom);
        debug_assert_eq!(top, ConceptRef(0));
        debug_assert_eq!(bottom, ConceptRef(1));
        // The constructor probes are bookkeeping, not reuse.
        i.hits = 0;
        i.misses = 0;
        i
    }

    /// Handle for ⊤.
    pub fn top(&self) -> ConceptRef {
        ConceptRef(0)
    }

    /// Handle for ⊥.
    pub fn bottom(&self) -> ConceptRef {
        ConceptRef(1)
    }

    /// The node a handle denotes.
    #[inline]
    pub fn node(&self, c: ConceptRef) -> &CNode {
        &self.nodes[c.0 as usize]
    }

    /// Number of distinct concepts interned.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only ⊤/⊥ are present.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// Hash-cons lookups that found an existing node.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Hash-cons lookups that allocated a new node.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Handle of `¬c` if that exact node is already interned; `None`
    /// otherwise. A pure probe: nothing is allocated and the hit/miss
    /// bookkeeping is untouched, so the incremental clash check can
    /// ask "could any label contain the complement of `c`?" in O(1) —
    /// a negation that was never interned cannot appear in any label.
    pub fn probe_not(&self, c: ConceptRef) -> Option<ConceptRef> {
        self.index.get(&CNode::Not(c)).map(|&id| ConceptRef(id))
    }

    /// Hash-cons one node: reuse the existing handle when the exact
    /// node was seen before, allocate otherwise.
    fn mk(&mut self, node: CNode) -> ConceptRef {
        if let Some(&id) = self.index.get(&node) {
            self.hits += 1;
            return ConceptRef(id);
        }
        self.misses += 1;
        let id = u32::try_from(self.nodes.len()).expect("interner overflow");
        self.nodes.push(node.clone());
        self.index.insert(node, id);
        ConceptRef(id)
    }

    /// Intern an atomic concept.
    pub fn atom(&mut self, a: ConceptId) -> ConceptRef {
        self.mk(CNode::Atom(a))
    }

    /// ¬C with double-negation elimination (mirrors [`Concept::not`]).
    pub fn not(&mut self, c: ConceptRef) -> ConceptRef {
        match *self.node(c) {
            CNode::Not(inner) => inner,
            CNode::Top => self.bottom(),
            CNode::Bottom => self.top(),
            _ => self.mk(CNode::Not(c)),
        }
    }

    /// n-ary conjunction (mirrors [`Concept::and`]: flatten one level,
    /// drop ⊤, collapse on ⊥, sort structurally, dedup).
    pub fn and(&mut self, cs: Vec<ConceptRef>) -> ConceptRef {
        let mut flat: Vec<ConceptRef> = Vec::with_capacity(cs.len());
        for c in cs {
            match self.node(c) {
                CNode::And(inner) => flat.extend(inner.iter().copied()),
                CNode::Top => {}
                CNode::Bottom => return self.bottom(),
                _ => flat.push(c),
            }
        }
        flat.sort_by(|&a, &b| self.cmp_structural(a, b));
        flat.dedup();
        match flat.len() {
            0 => self.top(),
            1 => flat[0],
            _ => self.mk(CNode::And(flat.into_boxed_slice())),
        }
    }

    /// n-ary disjunction (mirrors [`Concept::or`]).
    pub fn or(&mut self, cs: Vec<ConceptRef>) -> ConceptRef {
        let mut flat: Vec<ConceptRef> = Vec::with_capacity(cs.len());
        for c in cs {
            match self.node(c) {
                CNode::Or(inner) => flat.extend(inner.iter().copied()),
                CNode::Bottom => {}
                CNode::Top => return self.top(),
                _ => flat.push(c),
            }
        }
        flat.sort_by(|&a, &b| self.cmp_structural(a, b));
        flat.dedup();
        match flat.len() {
            0 => self.bottom(),
            1 => flat[0],
            _ => self.mk(CNode::Or(flat.into_boxed_slice())),
        }
    }

    /// ∃r.C.
    pub fn exists(&mut self, r: RoleId, c: ConceptRef) -> ConceptRef {
        self.mk(CNode::Exists(r, c))
    }

    /// ∀r.C.
    pub fn forall(&mut self, r: RoleId, c: ConceptRef) -> ConceptRef {
        self.mk(CNode::Forall(r, c))
    }

    /// ≥n r.C.
    pub fn at_least(&mut self, n: u32, r: RoleId, c: ConceptRef) -> ConceptRef {
        self.mk(CNode::AtLeast(n, r, c))
    }

    /// ≤n r.C.
    pub fn at_most(&mut self, n: u32, r: RoleId, c: ConceptRef) -> ConceptRef {
        self.mk(CNode::AtMost(n, r, c))
    }

    /// Intern a concept tree as-is (structure-preserving: no
    /// normalization beyond what the tree already carries, so
    /// `externalize(intern(c)) == c`).
    pub fn intern(&mut self, c: &Concept) -> ConceptRef {
        match c {
            Concept::Top => self.top(),
            Concept::Bottom => self.bottom(),
            Concept::Atom(a) => self.mk(CNode::Atom(*a)),
            Concept::Not(x) => {
                let h = self.intern(x);
                self.mk(CNode::Not(h))
            }
            Concept::And(xs) => {
                let hs: Vec<ConceptRef> = xs.iter().map(|x| self.intern(x)).collect();
                self.mk(CNode::And(hs.into_boxed_slice()))
            }
            Concept::Or(xs) => {
                let hs: Vec<ConceptRef> = xs.iter().map(|x| self.intern(x)).collect();
                self.mk(CNode::Or(hs.into_boxed_slice()))
            }
            Concept::Exists(r, x) => {
                let h = self.intern(x);
                self.mk(CNode::Exists(*r, h))
            }
            Concept::Forall(r, x) => {
                let h = self.intern(x);
                self.mk(CNode::Forall(*r, h))
            }
            Concept::AtLeast(n, r, x) => {
                let h = self.intern(x);
                self.mk(CNode::AtLeast(*n, *r, h))
            }
            Concept::AtMost(n, r, x) => {
                let h = self.intern(x);
                self.mk(CNode::AtMost(*n, *r, h))
            }
        }
    }

    /// Rebuild the concept tree a handle denotes.
    pub fn externalize(&self, c: ConceptRef) -> Concept {
        match self.node(c) {
            CNode::Top => Concept::Top,
            CNode::Bottom => Concept::Bottom,
            CNode::Atom(a) => Concept::Atom(*a),
            CNode::Not(x) => Concept::Not(Box::new(self.externalize(*x))),
            CNode::And(xs) => Concept::And(xs.iter().map(|&x| self.externalize(x)).collect()),
            CNode::Or(xs) => Concept::Or(xs.iter().map(|&x| self.externalize(x)).collect()),
            CNode::Exists(r, x) => Concept::Exists(*r, Box::new(self.externalize(*x))),
            CNode::Forall(r, x) => Concept::Forall(*r, Box::new(self.externalize(*x))),
            CNode::AtLeast(n, r, x) => Concept::AtLeast(*n, *r, Box::new(self.externalize(*x))),
            CNode::AtMost(n, r, x) => Concept::AtMost(*n, *r, Box::new(self.externalize(*x))),
        }
    }

    /// Structural comparison of two handles, identical to the derived
    /// `Ord` on the externalized [`Concept`] trees. Equal handles
    /// short-circuit (hash-consing makes structural equality a word
    /// compare), so the recursion only descends where trees differ.
    pub fn cmp_structural(&self, a: ConceptRef, b: ConceptRef) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if a == b {
            return Ordering::Equal;
        }
        let (na, nb) = (self.node(a), self.node(b));
        let by_rank = na.rank().cmp(&nb.rank());
        if by_rank != Ordering::Equal {
            return by_rank;
        }
        match (na, nb) {
            (CNode::Atom(x), CNode::Atom(y)) => x.cmp(y),
            (CNode::Not(x), CNode::Not(y)) => self.cmp_structural(*x, *y),
            (CNode::And(xs), CNode::And(ys)) | (CNode::Or(xs), CNode::Or(ys)) => {
                for (x, y) in xs.iter().zip(ys.iter()) {
                    let o = self.cmp_structural(*x, *y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                xs.len().cmp(&ys.len())
            }
            (CNode::Exists(r1, x), CNode::Exists(r2, y))
            | (CNode::Forall(r1, x), CNode::Forall(r2, y)) => {
                r1.cmp(r2).then_with(|| self.cmp_structural(*x, *y))
            }
            (CNode::AtLeast(n1, r1, x), CNode::AtLeast(n2, r2, y))
            | (CNode::AtMost(n1, r1, x), CNode::AtMost(n2, r2, y)) => n1
                .cmp(n2)
                .then_with(|| r1.cmp(r2))
                .then_with(|| self.cmp_structural(*x, *y)),
            // Ranks matched above, so the variants match.
            _ => unreachable!("rank-equal nodes must share a variant"),
        }
    }

    /// Negation normal form of a handle, memoized per handle.
    pub fn nnf(&mut self, c: ConceptRef) -> ConceptRef {
        if let Some(&m) = self.nnf_memo.get(&c) {
            return m;
        }
        let node = self.node(c).clone();
        let out = match node {
            CNode::Top | CNode::Bottom | CNode::Atom(_) => c,
            CNode::Not(x) => self.neg_nnf(x),
            CNode::And(xs) => {
                let ys: Vec<ConceptRef> = xs.iter().map(|&x| self.nnf(x)).collect();
                self.and(ys)
            }
            CNode::Or(xs) => {
                let ys: Vec<ConceptRef> = xs.iter().map(|&x| self.nnf(x)).collect();
                self.or(ys)
            }
            CNode::Exists(r, x) => {
                let y = self.nnf(x);
                self.exists(r, y)
            }
            CNode::Forall(r, x) => {
                let y = self.nnf(x);
                self.forall(r, y)
            }
            CNode::AtLeast(n, r, x) => {
                let y = self.nnf(x);
                self.at_least(n, r, y)
            }
            CNode::AtMost(n, r, x) => {
                let y = self.nnf(x);
                self.at_most(n, r, y)
            }
        };
        self.nnf_memo.insert(c, out);
        out
    }

    /// NNF of ¬C, memoized per handle — the choose-rule's query, and
    /// the recursion partner of [`Interner::nnf`] (together they mirror
    /// [`Concept::nnf`] exactly).
    pub fn neg_nnf(&mut self, c: ConceptRef) -> ConceptRef {
        if let Some(&m) = self.neg_nnf_memo.get(&c) {
            return m;
        }
        let node = self.node(c).clone();
        let out = match node {
            CNode::Top => self.bottom(),
            CNode::Bottom => self.top(),
            CNode::Atom(_) => self.mk(CNode::Not(c)),
            CNode::Not(x) => self.nnf(x),
            CNode::And(xs) => {
                let ys: Vec<ConceptRef> = xs.iter().map(|&x| self.neg_nnf(x)).collect();
                self.or(ys)
            }
            CNode::Or(xs) => {
                let ys: Vec<ConceptRef> = xs.iter().map(|&x| self.neg_nnf(x)).collect();
                self.and(ys)
            }
            CNode::Exists(r, x) => {
                let y = self.neg_nnf(x);
                self.forall(r, y)
            }
            CNode::Forall(r, x) => {
                let y = self.neg_nnf(x);
                self.exists(r, y)
            }
            // ¬(≥n r.C) = ≤(n−1) r.C ; ¬(≥0 r.C) = ⊥
            CNode::AtLeast(n, r, x) => {
                if n == 0 {
                    self.bottom()
                } else {
                    let y = self.nnf(x);
                    self.at_most(n - 1, r, y)
                }
            }
            // ¬(≤n r.C) = ≥(n+1) r.C
            CNode::AtMost(n, r, x) => {
                let y = self.nnf(x);
                self.at_least(n + 1, r, y)
            }
        };
        self.neg_nnf_memo.insert(c, out);
        out
    }
}

/// Pretty-printer for [`Concept`].
pub struct ConceptDisplay<'a> {
    c: &'a Concept,
    voc: &'a Vocabulary,
}

impl fmt::Display for ConceptDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.c {
            Concept::Top => write!(f, "⊤"),
            Concept::Bottom => write!(f, "⊥"),
            Concept::Atom(c) => write!(f, "{}", self.voc.concept_name(*c)),
            Concept::Not(c) => write!(f, "¬{}", c.display(self.voc)),
            Concept::And(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ⊓ ")?;
                    }
                    write!(f, "{}", c.display(self.voc))?;
                }
                write!(f, ")")
            }
            Concept::Or(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ⊔ ")?;
                    }
                    write!(f, "{}", c.display(self.voc))?;
                }
                write!(f, ")")
            }
            Concept::Exists(r, c) => {
                write!(f, "∃{}.{}", self.voc.role_name(*r), c.display(self.voc))
            }
            Concept::Forall(r, c) => {
                write!(f, "∀{}.{}", self.voc.role_name(*r), c.display(self.voc))
            }
            Concept::AtLeast(n, r, c) => {
                write!(f, "≥{n} {}.{}", self.voc.role_name(*r), c.display(self.voc))
            }
            Concept::AtMost(n, r, c) => {
                write!(f, "≤{n} {}.{}", self.voc.role_name(*r), c.display(self.voc))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voc() -> (Vocabulary, ConceptId, ConceptId, RoleId) {
        let mut v = Vocabulary::new();
        let a = v.concept("A");
        let b = v.concept("B");
        let r = v.role("r");
        (v, a, b, r)
    }

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocabulary::new();
        assert_eq!(v.concept("A"), v.concept("A"));
        assert_eq!(v.role("r"), v.role("r"));
        assert_eq!(v.n_concepts(), 1);
        assert_eq!(v.n_roles(), 1);
        assert_eq!(v.find_concept("A"), Some(ConceptId(0)));
        assert_eq!(v.find_concept("Z"), None);
    }

    #[test]
    fn and_flattens_and_dedupes() {
        let (_v, a, b, _r) = voc();
        let c = Concept::and(vec![
            Concept::atom(a),
            Concept::and(vec![Concept::atom(b), Concept::atom(a)]),
            Concept::Top,
        ]);
        assert_eq!(c, Concept::And(vec![Concept::atom(a), Concept::atom(b)]));
    }

    #[test]
    fn and_with_bottom_collapses() {
        let (_v, a, _b, _r) = voc();
        assert_eq!(
            Concept::and(vec![Concept::atom(a), Concept::Bottom]),
            Concept::Bottom
        );
        assert_eq!(Concept::and(vec![]), Concept::Top);
        assert_eq!(Concept::or(vec![]), Concept::Bottom);
    }

    #[test]
    fn or_with_top_collapses() {
        let (_v, a, _b, _r) = voc();
        assert_eq!(
            Concept::or(vec![Concept::atom(a), Concept::Top]),
            Concept::Top
        );
    }

    #[test]
    fn double_negation_eliminated() {
        let (_v, a, _b, _r) = voc();
        let c = Concept::not(Concept::not(Concept::atom(a)));
        assert_eq!(c, Concept::atom(a));
    }

    #[test]
    fn nnf_pushes_negation_through_quantifiers() {
        let (_v, a, _b, r) = voc();
        let c = Concept::not(Concept::exists(r, Concept::atom(a)));
        assert_eq!(c.nnf(), Concept::forall(r, Concept::not(Concept::atom(a))));
        let d = Concept::not(Concept::forall(r, Concept::atom(a)));
        assert_eq!(d.nnf(), Concept::exists(r, Concept::not(Concept::atom(a))));
    }

    #[test]
    fn nnf_de_morgan() {
        let (_v, a, b, _r) = voc();
        let c = Concept::not(Concept::and(vec![Concept::atom(a), Concept::atom(b)]));
        assert_eq!(
            c.nnf(),
            Concept::or(vec![
                Concept::not(Concept::atom(a)),
                Concept::not(Concept::atom(b))
            ])
        );
    }

    #[test]
    fn nnf_number_restrictions() {
        let (_v, a, _b, r) = voc();
        let c = Concept::not(Concept::at_least(3, r, Concept::atom(a)));
        assert_eq!(c.nnf(), Concept::at_most(2, r, Concept::atom(a)));
        let d = Concept::not(Concept::at_most(3, r, Concept::atom(a)));
        assert_eq!(d.nnf(), Concept::at_least(4, r, Concept::atom(a)));
        let z = Concept::not(Concept::at_least(0, r, Concept::atom(a)));
        assert_eq!(z.nnf(), Concept::Bottom);
    }

    #[test]
    fn nnf_is_idempotent() {
        let (_v, a, b, r) = voc();
        let c = Concept::not(Concept::and(vec![
            Concept::exists(r, Concept::atom(a)),
            Concept::forall(r, Concept::or(vec![Concept::atom(b), Concept::Top])),
        ]));
        assert_eq!(c.nnf(), c.nnf().nnf());
    }

    #[test]
    fn exactly_expands_to_min_and_max() {
        let (_v, a, _b, r) = voc();
        let c = Concept::exactly(4, r, Concept::atom(a));
        match c {
            Concept::And(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(parts.iter().any(|p| matches!(p, Concept::AtLeast(4, _, _))));
                assert!(parts.iter().any(|p| matches!(p, Concept::AtMost(4, _, _))));
            }
            other => panic!("expected conjunction, got {other:?}"),
        }
    }

    #[test]
    fn size_depth_atoms_roles() {
        let (_v, a, b, r) = voc();
        let c = Concept::exists(r, Concept::and(vec![Concept::atom(a), Concept::atom(b)]));
        assert_eq!(c.size(), 4);
        assert_eq!(c.role_depth(), 1);
        assert_eq!(c.atoms().len(), 2);
        assert_eq!(c.roles().len(), 1);
    }

    #[test]
    fn el_fragment_detection() {
        let (_v, a, b, r) = voc();
        let el = Concept::exists(r, Concept::and(vec![Concept::atom(a), Concept::atom(b)]));
        assert!(el.is_el());
        assert!(!Concept::not(Concept::atom(a)).is_el());
        assert!(!Concept::forall(r, Concept::atom(a)).is_el());
        assert!(!Concept::at_least(2, r, Concept::atom(a)).is_el());
    }

    #[test]
    fn display_round_trip_shape() {
        let (v, a, b, r) = voc();
        let c = Concept::and(vec![Concept::atom(a), Concept::exists(r, Concept::atom(b))]);
        let s = format!("{}", c.display(&v));
        assert!(s.contains('A') && s.contains("∃r.B"));
    }

    /// A small corpus of structurally varied concepts exercising every
    /// constructor, nesting, and normalization edge case.
    fn interner_corpus() -> Vec<Concept> {
        let (_v, a, b, r) = voc();
        vec![
            Concept::Top,
            Concept::Bottom,
            Concept::atom(a),
            Concept::not(Concept::atom(a)),
            Concept::not(Concept::not(Concept::atom(b))),
            Concept::and(vec![Concept::atom(b), Concept::atom(a)]),
            Concept::or(vec![Concept::atom(a), Concept::Bottom]),
            Concept::exists(r, Concept::and(vec![Concept::atom(a), Concept::atom(b)])),
            Concept::forall(r, Concept::or(vec![Concept::atom(a), Concept::atom(b)])),
            Concept::at_least(2, r, Concept::atom(a)),
            Concept::at_most(0, r, Concept::atom(b)),
            Concept::not(Concept::and(vec![
                Concept::exists(r, Concept::atom(a)),
                Concept::forall(r, Concept::not(Concept::atom(b))),
                Concept::at_least(3, r, Concept::atom(a)),
                Concept::at_most(1, r, Concept::atom(b)),
            ])),
            Concept::not(Concept::at_least(0, r, Concept::atom(a))),
            Concept::not(Concept::or(vec![
                Concept::Top,
                Concept::exists(r, Concept::not(Concept::atom(a))),
            ])),
            Concept::exactly(2, r, Concept::not(Concept::atom(a))),
        ]
    }

    #[test]
    fn intern_externalize_round_trips() {
        let mut i = Interner::new();
        for c in interner_corpus() {
            let h = i.intern(&c);
            assert_eq!(i.externalize(h), c, "round trip for {c:?}");
        }
    }

    #[test]
    fn interning_is_hash_consed() {
        let mut i = Interner::new();
        let corpus = interner_corpus();
        let first: Vec<ConceptRef> = corpus.iter().map(|c| i.intern(c)).collect();
        let len = i.len();
        let second: Vec<ConceptRef> = corpus.iter().map(|c| i.intern(c)).collect();
        assert_eq!(first, second, "same structure must yield same handle");
        assert_eq!(i.len(), len, "re-interning must not allocate");
        assert!(i.hits() > 0);
    }

    #[test]
    fn handle_nnf_matches_concept_nnf() {
        let mut i = Interner::new();
        for c in interner_corpus() {
            let h = i.intern(&c);
            let n = i.nnf(h);
            assert_eq!(
                i.externalize(n),
                c.nnf(),
                "externalized handle NNF must equal Concept::nnf for {c:?}"
            );
        }
    }

    #[test]
    fn handle_neg_nnf_matches_negated_concept_nnf() {
        let mut i = Interner::new();
        for c in interner_corpus() {
            let h = i.intern(&c);
            let n = i.neg_nnf(h);
            assert_eq!(
                i.externalize(n),
                Concept::not(c.clone()).nnf(),
                "neg_nnf must equal nnf of the negation for {c:?}"
            );
        }
    }

    #[test]
    fn cmp_structural_matches_derived_ord() {
        let mut i = Interner::new();
        let corpus = interner_corpus();
        let handles: Vec<ConceptRef> = corpus.iter().map(|c| i.intern(c)).collect();
        for (x, hx) in corpus.iter().zip(&handles) {
            for (y, hy) in corpus.iter().zip(&handles) {
                assert_eq!(
                    i.cmp_structural(*hx, *hy),
                    x.cmp(y),
                    "structural order must match Ord for {x:?} vs {y:?}"
                );
            }
        }
    }

    /// `is_nnf` never claims a concept `nnf` would change, and it
    /// recognises the NNF of every corpus concept, raw constructor
    /// shapes included.
    #[test]
    fn is_nnf_holds_only_where_nnf_is_the_identity() {
        let (_v, a, b, r) = voc();
        let (a, b) = (Concept::atom(a), Concept::atom(b));
        let mut corpus = interner_corpus();
        corpus.extend([
            Concept::And(vec![b.clone(), a.clone()]),
            Concept::And(vec![a.clone(), a.clone()]),
            Concept::And(vec![a.clone()]),
            Concept::And(vec![]),
            Concept::And(vec![a.clone(), Concept::And(vec![a.clone(), b.clone()])]),
            Concept::Or(vec![Concept::Bottom, a.clone()]),
            Concept::Or(vec![a.clone(), Concept::Or(vec![a.clone(), b.clone()])]),
            Concept::And(vec![a.clone(), Concept::Or(vec![a.clone(), b.clone()])]),
            Concept::Not(Box::new(Concept::Top)),
            Concept::Not(Box::new(Concept::Not(Box::new(a.clone())))),
            Concept::Exists(r, Box::new(Concept::And(vec![b, a]))),
        ]);
        for c in corpus {
            let n = c.nnf();
            if c.is_nnf() {
                assert_eq!(n, c, "is_nnf claimed {c:?}");
            }
            assert!(n.is_nnf(), "the NNF of {c:?} is {n:?}");
        }
    }

    #[test]
    fn nnf_is_memoized_per_handle() {
        let mut i = Interner::new();
        let (_v, a, _b, r) = voc();
        let c = Concept::not(Concept::exists(r, Concept::atom(a)));
        let h = i.intern(&c);
        let n1 = i.nnf(h);
        let misses = i.misses();
        let n2 = i.nnf(h);
        assert_eq!(n1, n2);
        assert_eq!(i.misses(), misses, "second nnf must not build nodes");
    }
}
