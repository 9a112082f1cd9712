//! Possible worlds and intensional relations.
//!
//! The paper's key observation (§2) is a circularity: Guarino defines
//! intensional relations as functions from worlds to extensional
//! relations, but a world can only *have* structure through
//! extensional relations. We make the distinction executable:
//!
//! * a [`World::Blocks`] world carries primitive structure (block
//!   coordinates), so rules such as "x is above y" can be *evaluated*;
//! * a [`World::Opaque`] world is a bare index — a rule has nothing to
//!   read, and constructing a rule-based intensional relation over it
//!   fails with [`IntensionalError::OpaqueWorld`]. The only way to get
//!   an intensional relation over opaque worlds is to *stipulate* the
//!   extension per world ([`IntensionalRelation::from_table`]) — i.e.
//!   the extensional relation is logically prior, which is the paper's
//!   point.

use crate::domain::{Domain, Elem};
use crate::error::{IntensionalError, Result};
use crate::relation::Relation;
use std::collections::BTreeMap;

/// Primitive structure for the paper's blocks example: each placed
/// block has integer coordinates (column, height).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlocksWorld {
    positions: BTreeMap<Elem, (i32, i32)>,
}

impl BlocksWorld {
    /// An empty blocks world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Place (or move) a block.
    pub fn place(&mut self, block: Elem, column: i32, height: i32) {
        self.positions.insert(block, (column, height));
    }

    /// The position of a block, if placed.
    pub fn position(&self, block: Elem) -> Option<(i32, i32)> {
        self.positions.get(&block).copied()
    }

    /// Blocks placed in this world.
    pub fn blocks(&self) -> impl Iterator<Item = Elem> + '_ {
        self.positions.keys().copied()
    }

    /// Is `a` above `b` (same column, strictly greater height)?
    pub fn above(&self, a: Elem, b: Elem) -> bool {
        match (self.position(a), self.position(b)) {
            (Some((ca, ha)), Some((cb, hb))) => ca == cb && ha > hb,
            _ => false,
        }
    }
}

/// A possible world: structured or opaque.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum World {
    /// A world with primitive structure (readable by rules).
    Blocks(BlocksWorld),
    /// A bare world index with no structure at all.
    Opaque(u32),
}

impl World {
    /// True for opaque worlds.
    pub fn is_opaque(&self) -> bool {
        matches!(self, World::Opaque(_))
    }
}

/// A finite set `W` of possible worlds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldSpace {
    worlds: Vec<World>,
}

impl WorldSpace {
    /// A space of structured worlds.
    pub fn structured(worlds: Vec<BlocksWorld>) -> Self {
        WorldSpace {
            worlds: worlds.into_iter().map(World::Blocks).collect(),
        }
    }

    /// A space of `n` opaque worlds.
    pub fn opaque(n: usize) -> Self {
        WorldSpace {
            worlds: (0..n as u32).map(World::Opaque).collect(),
        }
    }

    /// Mixed construction.
    pub fn from_worlds(worlds: Vec<World>) -> Self {
        WorldSpace { worlds }
    }

    /// Number of worlds.
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// True when there are no worlds.
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Fetch a world.
    pub fn world(&self, i: usize) -> Result<&World> {
        self.worlds.get(i).ok_or(IntensionalError::UnknownWorld(i))
    }

    /// Iterate `(index, world)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &World)> {
        self.worlds.iter().enumerate()
    }

    /// All possible blocks-world configurations of `blocks` over a
    /// `columns × heights` grid — "the set of legal configurations of
    /// the elements of D" from the paper, made finite.
    pub fn enumerate_blocks(blocks: &[Elem], columns: i32, heights: i32) -> Self {
        let cells: Vec<(i32, i32)> = (0..columns)
            .flat_map(|c| (0..heights).map(move |h| (c, h)))
            .collect();
        let mut configs: Vec<BlocksWorld> = vec![BlocksWorld::new()];
        for &b in blocks {
            let mut next = vec![];
            for cfg in &configs {
                for &(c, h) in &cells {
                    // legality: no two blocks in the same cell
                    if cfg.positions.values().any(|&p| p == (c, h)) {
                        continue;
                    }
                    let mut cfg2 = cfg.clone();
                    cfg2.place(b, c, h);
                    next.push(cfg2);
                }
            }
            configs = next;
        }
        WorldSpace::structured(configs)
    }
}

/// An intensional relation `r : W → 2^{Dⁿ}` (the paper's structure
/// (2)): for every world, an extensional relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntensionalRelation {
    name: String,
    arity: usize,
    per_world: Vec<Relation>,
}

impl IntensionalRelation {
    /// Construct by *rule*: evaluate `rule(world)` in every world. This
    /// requires every world to be structured; an opaque world yields
    /// [`IntensionalError::OpaqueWorld`] — the executable form of the
    /// paper's circularity argument.
    pub fn from_rule(
        name: &str,
        arity: usize,
        space: &WorldSpace,
        rule: impl Fn(&BlocksWorld) -> Relation,
    ) -> Result<Self> {
        let mut per_world = Vec::with_capacity(space.len());
        for (i, w) in space.iter() {
            match w {
                World::Blocks(bw) => {
                    let r = rule(bw);
                    if r.arity() != arity {
                        return Err(IntensionalError::ArityMismatch {
                            expected: arity,
                            got: r.arity(),
                        });
                    }
                    per_world.push(r);
                }
                World::Opaque(_) => {
                    return Err(IntensionalError::OpaqueWorld {
                        world: i,
                        relation: name.to_string(),
                    })
                }
            }
        }
        Ok(IntensionalRelation {
            name: name.to_string(),
            arity,
            per_world,
        })
    }

    /// Construct by *stipulation*: one extensional relation per world,
    /// given explicitly. Works over any worlds — but the extensions
    /// are then logically prior to the intensional relation.
    pub fn from_table(
        name: &str,
        arity: usize,
        space: &WorldSpace,
        table: Vec<Relation>,
    ) -> Result<Self> {
        if table.len() != space.len() {
            return Err(IntensionalError::UnknownWorld(table.len()));
        }
        for r in &table {
            if r.arity() != arity {
                return Err(IntensionalError::ArityMismatch {
                    expected: arity,
                    got: r.arity(),
                });
            }
        }
        Ok(IntensionalRelation {
            name: name.to_string(),
            arity,
            per_world: table,
        })
    }

    /// The paper's `[above]` as a rule over blocks worlds.
    pub fn aboveness(name: &str, domain: &Domain, space: &WorldSpace) -> Result<Self> {
        let elems: Vec<Elem> = domain.elems().collect();
        Self::from_rule(name, 2, space, |w| {
            let mut r = Relation::new(2);
            for &a in &elems {
                for &b in &elems {
                    if a != b && w.above(a, b) {
                        r.insert(vec![a, b]).expect("arity 2 by construction");
                    }
                }
            }
            r
        })
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The extension at world `i` — the paper's structure (3):
    /// `[above](w) = {(a,b)}`.
    pub fn at(&self, i: usize) -> Result<&Relation> {
        self.per_world
            .get(i)
            .ok_or(IntensionalError::UnknownWorld(i))
    }

    /// Is the relation *rigid* (same extension in all worlds)?
    pub fn is_rigid(&self) -> bool {
        self.per_world.windows(2).all(|w| w[0] == w[1])
    }

    /// How many distinct extensions occur across worlds?
    pub fn n_distinct_extensions(&self) -> usize {
        let mut seen: Vec<&Relation> = vec![];
        for r in &self.per_world {
            if !seen.contains(&r) {
                seen.push(r);
            }
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks_domain() -> (Domain, Elem, Elem, Elem, Elem) {
        let mut d = Domain::new();
        let a = d.elem("a");
        let b = d.elem("b");
        let c = d.elem("c");
        let dd = d.elem("d");
        (d, a, b, c, dd)
    }

    #[test]
    fn aboveness_reads_world_structure() {
        let (dom, a, b, _c, d) = blocks_domain();
        let mut w = BlocksWorld::new();
        w.place(a, 0, 2);
        w.place(b, 0, 1);
        w.place(d, 0, 0);
        let space = WorldSpace::structured(vec![w]);
        let above = IntensionalRelation::aboveness("above", &dom, &space).unwrap();
        let ext = above.at(0).unwrap();
        assert_eq!(ext.len(), 3); // (a,b), (a,d), (b,d)
        assert!(ext.contains(&[a, b]));
        assert!(ext.contains(&[a, d]));
        assert!(ext.contains(&[b, d]));
    }

    #[test]
    fn different_worlds_different_extensions() {
        let (dom, a, b, ..) = blocks_domain();
        let mut w0 = BlocksWorld::new();
        w0.place(a, 0, 1);
        w0.place(b, 0, 0);
        let mut w1 = BlocksWorld::new();
        w1.place(b, 0, 1);
        w1.place(a, 0, 0);
        let space = WorldSpace::structured(vec![w0, w1]);
        let above = IntensionalRelation::aboveness("above", &dom, &space).unwrap();
        assert!(above.at(0).unwrap().contains(&[a, b]));
        assert!(above.at(1).unwrap().contains(&[b, a]));
        assert!(!above.is_rigid());
        assert_eq!(above.n_distinct_extensions(), 2);
    }

    #[test]
    fn different_columns_are_not_above() {
        let (dom, a, b, ..) = blocks_domain();
        let mut w = BlocksWorld::new();
        w.place(a, 0, 1);
        w.place(b, 1, 0);
        let space = WorldSpace::structured(vec![w]);
        let above = IntensionalRelation::aboveness("above", &dom, &space).unwrap();
        assert!(above.at(0).unwrap().is_empty());
    }

    #[test]
    fn rule_over_opaque_world_fails() {
        let (dom, ..) = blocks_domain();
        let space = WorldSpace::opaque(3);
        let err = IntensionalRelation::aboveness("above", &dom, &space).unwrap_err();
        assert!(matches!(
            err,
            IntensionalError::OpaqueWorld { world: 0, .. }
        ));
    }

    #[test]
    fn stipulated_table_works_over_opaque_worlds() {
        let (_, a, b, ..) = blocks_domain();
        let space = WorldSpace::opaque(2);
        let r0 = Relation::from_tuples(2, vec![vec![a, b]]).unwrap();
        let r1 = Relation::new(2);
        let rel =
            IntensionalRelation::from_table("above", 2, &space, vec![r0.clone(), r1]).unwrap();
        assert_eq!(rel.at(0).unwrap(), &r0);
        assert!(rel.at(1).unwrap().is_empty());
        assert!(rel.at(2).is_err());
    }

    #[test]
    fn table_length_and_arity_checked() {
        let space = WorldSpace::opaque(2);
        assert!(IntensionalRelation::from_table("r", 2, &space, vec![Relation::new(2)]).is_err());
        assert!(IntensionalRelation::from_table(
            "r",
            2,
            &space,
            vec![Relation::new(2), Relation::new(1)]
        )
        .is_err());
    }

    #[test]
    fn enumerate_blocks_respects_legality() {
        let (_, a, b, ..) = blocks_domain();
        // 2 blocks on a 1×2 grid: exactly 2 legal configurations.
        let space = WorldSpace::enumerate_blocks(&[a, b], 1, 2);
        assert_eq!(space.len(), 2);
        // 2 blocks on a 2×2 grid: 4*3 = 12 configurations.
        let space2 = WorldSpace::enumerate_blocks(&[a, b], 2, 2);
        assert_eq!(space2.len(), 12);
    }

    #[test]
    fn mixed_space_fails_only_at_the_opaque_world() {
        let (dom, a, ..) = blocks_domain();
        let mut w = BlocksWorld::new();
        w.place(a, 0, 0);
        let space = WorldSpace::from_worlds(vec![World::Blocks(w), World::Opaque(7)]);
        let err = IntensionalRelation::aboveness("above", &dom, &space).unwrap_err();
        assert!(matches!(
            err,
            IntensionalError::OpaqueWorld { world: 1, .. }
        ));
    }
}
