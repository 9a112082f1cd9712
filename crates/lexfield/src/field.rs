//! Lexical fields: a language's division of a semantic space.

use crate::space::{Point, SemanticSpace};
use std::collections::BTreeSet;

/// A lexical item (word) of a field (dense id within its field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Item(pub u32);

/// A lexical field: named items, each covering a set of points of a
/// shared semantic space. Ranges may overlap (near-synonyms, register
/// variants) and need not exhaust the space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexicalField {
    language: String,
    names: Vec<String>,
    ranges: Vec<BTreeSet<Point>>,
}

impl LexicalField {
    /// An empty field for a named language.
    pub fn new(language: &str) -> Self {
        LexicalField {
            language: language.to_string(),
            names: vec![],
            ranges: vec![],
        }
    }

    /// The language name.
    pub fn language(&self) -> &str {
        &self.language
    }

    /// Add an item with its denotation range.
    pub fn item(&mut self, name: &str, range: impl IntoIterator<Item = Point>) -> Item {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            self.ranges[i].extend(range);
            return Item(i as u32);
        }
        self.names.push(name.to_string());
        self.ranges.push(range.into_iter().collect());
        Item((self.names.len() - 1) as u32)
    }

    /// Item name.
    pub fn name(&self, i: Item) -> &str {
        &self.names[i.0 as usize]
    }

    /// Look up an item by name.
    pub fn item_by_name(&self, name: &str) -> Option<Item> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| Item(i as u32))
    }

    /// An item's denotation range.
    pub fn range(&self, i: Item) -> &BTreeSet<Point> {
        &self.ranges[i.0 as usize]
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no items.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All items.
    pub fn items(&self) -> impl Iterator<Item = Item> + '_ {
        (0..self.names.len() as u32).map(Item)
    }

    /// The items whose range contains a point (a point may be covered
    /// by several items — e.g. Spanish viejo and añejo on aged wine).
    pub fn words_for(&self, p: Point) -> Vec<Item> {
        self.items()
            .filter(|&i| self.range(i).contains(&p))
            .collect()
    }

    /// The set of points covered by at least one item.
    pub fn covered(&self) -> BTreeSet<Point> {
        self.ranges.iter().flatten().copied().collect()
    }

    /// Do two items of this field denote at least one common point?
    pub fn overlap(&self, a: Item, b: Item) -> bool {
        self.range(a).intersection(self.range(b)).next().is_some()
    }

    /// The *division signature* of the field over the whole space: for
    /// each point, the sorted set of items covering it. Two languages
    /// "divide the semantic field in the same way" iff their division
    /// signatures induce the same partition of points.
    pub fn division(&self, space: &SemanticSpace) -> Vec<Vec<Item>> {
        space.points().map(|p| self.words_for(p)).collect()
    }

    /// Render as `word: {point, …}` lines.
    pub fn render(&self, space: &SemanticSpace) -> String {
        let mut out = String::new();
        for i in self.items() {
            let pts: Vec<&str> = self.range(i).iter().map(|&p| space.label(p)).collect();
            out.push_str(&format!(
                "{:>12} ({}): {{{}}}\n",
                self.name(i),
                self.language,
                pts.join(", ")
            ));
        }
        out
    }
}

/// Do two fields induce the same equivalence of points ("same word →
/// same point class")? Formally: for every pair of points, "some item
/// covers both" agrees between the fields. This is the paper's "divide
/// the semantic field in the same way".
pub fn same_division(space: &SemanticSpace, f1: &LexicalField, f2: &LexicalField) -> bool {
    let pts: Vec<Point> = space.points().collect();
    for (i, &a) in pts.iter().enumerate() {
        for &b in &pts[i + 1..] {
            let together1 = f1
                .items()
                .any(|w| f1.range(w).contains(&a) && f1.range(w).contains(&b));
            let together2 = f2
                .items()
                .any(|w| f2.range(w).contains(&a) && f2.range(w).contains(&b));
            if together1 != together2 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space3() -> (SemanticSpace, Point, Point, Point) {
        let mut s = SemanticSpace::new();
        let a = s.point("a");
        let b = s.point("b");
        let c = s.point("c");
        (s, a, b, c)
    }

    #[test]
    fn items_accumulate_ranges() {
        let (_s, a, b, _c) = space3();
        let mut f = LexicalField::new("en");
        let w = f.item("word", [a]);
        let w2 = f.item("word", [b]);
        assert_eq!(w, w2);
        assert_eq!(f.range(w).len(), 2);
        assert_eq!(f.item_by_name("word"), Some(w));
        assert_eq!(f.item_by_name("nope"), None);
    }

    #[test]
    fn words_for_finds_covering_items() {
        let (_s, a, b, c) = space3();
        let mut f = LexicalField::new("en");
        let x = f.item("x", [a, b]);
        let y = f.item("y", [b, c]);
        assert_eq!(f.words_for(a), vec![x]);
        assert_eq!(f.words_for(b), vec![x, y]);
        assert!(f.overlap(x, y));
        assert_eq!(f.covered().len(), 3);
    }

    #[test]
    fn same_division_detects_agreement_and_difference() {
        let (s, a, b, c) = space3();
        let mut f1 = LexicalField::new("L1");
        f1.item("u", [a, b]);
        f1.item("v", [c]);
        let mut f2 = LexicalField::new("L2");
        f2.item("p", [a, b]);
        f2.item("q", [c]);
        assert!(same_division(&s, &f1, &f2));
        let mut f3 = LexicalField::new("L3");
        f3.item("m", [a]);
        f3.item("n", [b, c]);
        assert!(!same_division(&s, &f1, &f3));
    }

    #[test]
    fn render_mentions_words_and_points() {
        let (s, a, ..) = space3();
        let mut f = LexicalField::new("en");
        f.item("knob", [a]);
        let out = f.render(&s);
        assert!(out.contains("knob") && out.contains("a") && out.contains("en"));
    }
}
