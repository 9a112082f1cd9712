//! The paper's example ontonomies as ready-made TBoxes.
//!
//! Structure (4) — vehicles:
//!
//! ```text
//! car           ⊑ motorvehicle ⊓ roadvehicle ⊓ ∃size.small
//! pickup        ⊑ motorvehicle ⊓ roadvehicle ⊓ ∃size.big
//! motorvehicle  ⊑ ∃uses.gasoline
//! roadvehicle   ⊑ ∃₄has.wheel
//! ```
//!
//! Structure (8) — animals (isomorphic to (4); the CAR = DOG argument):
//!
//! ```text
//! dog        ⊑ animal ⊓ quadruped ⊓ ∃size.small
//! horse      ⊑ animal ⊓ quadruped ⊓ ∃size.big
//! animal     ⊑ ∃ingests.food
//! quadruped  ⊑ ∃₄has.leg
//! ```
//!
//! Structures (9)–(11) — the paper's repair, which breaks the
//! isomorphism by asserting `quadruped ⊑ animal` and simplifying the
//! dog/horse definitions:
//!
//! ```text
//! quadruped ⊑ animal
//! dog       ⊑ quadruped ⊓ ∃size.small
//! horse     ⊑ quadruped ⊓ ∃size.big
//! ```

use crate::concept::{Concept, ConceptId, RoleId, Vocabulary};
use crate::tbox::TBox;

/// The shared vocabulary of the paper's §3 examples, with every name
/// pre-interned.
#[derive(Debug, Clone)]
pub struct PaperVocab {
    /// The vocabulary holding all names below.
    pub voc: Vocabulary,
    // vehicles
    pub car: ConceptId,
    pub pickup: ConceptId,
    pub motorvehicle: ConceptId,
    pub roadvehicle: ConceptId,
    pub gasoline: ConceptId,
    pub wheel: ConceptId,
    // animals
    pub dog: ConceptId,
    pub horse: ConceptId,
    pub animal: ConceptId,
    pub quadruped: ConceptId,
    pub food: ConceptId,
    pub leg: ConceptId,
    // shared fillers
    pub small: ConceptId,
    pub big: ConceptId,
    // roles
    pub size: RoleId,
    pub uses: RoleId,
    pub has: RoleId,
    pub ingests: RoleId,
}

impl PaperVocab {
    /// Intern all names of structures (4)–(11).
    pub fn new() -> Self {
        let mut voc = Vocabulary::new();
        PaperVocab {
            car: voc.concept("car"),
            pickup: voc.concept("pickup"),
            motorvehicle: voc.concept("motorvehicle"),
            roadvehicle: voc.concept("roadvehicle"),
            gasoline: voc.concept("gasoline"),
            wheel: voc.concept("wheel"),
            dog: voc.concept("dog"),
            horse: voc.concept("horse"),
            animal: voc.concept("animal"),
            quadruped: voc.concept("quadruped"),
            food: voc.concept("food"),
            leg: voc.concept("leg"),
            small: voc.concept("small"),
            big: voc.concept("big"),
            size: voc.role("size"),
            uses: voc.role("uses"),
            has: voc.role("has"),
            ingests: voc.role("ingests"),
            voc,
        }
    }
}

impl Default for PaperVocab {
    fn default() -> Self {
        Self::new()
    }
}

/// Structure (4): the vehicle ontonomy.
pub fn vehicles_tbox(p: &PaperVocab) -> TBox {
    let mut t = TBox::new();
    t.subsume(
        Concept::atom(p.car),
        Concept::and(vec![
            Concept::atom(p.motorvehicle),
            Concept::atom(p.roadvehicle),
            Concept::exists(p.size, Concept::atom(p.small)),
        ]),
    );
    t.subsume(
        Concept::atom(p.pickup),
        Concept::and(vec![
            Concept::atom(p.motorvehicle),
            Concept::atom(p.roadvehicle),
            Concept::exists(p.size, Concept::atom(p.big)),
        ]),
    );
    t.subsume(
        Concept::atom(p.motorvehicle),
        Concept::exists(p.uses, Concept::atom(p.gasoline)),
    );
    t.subsume(
        Concept::atom(p.roadvehicle),
        Concept::exactly(4, p.has, Concept::atom(p.wheel)),
    );
    t
}

/// Structure (8): the animal ontonomy, isomorphic to (4).
pub fn animals_tbox(p: &PaperVocab) -> TBox {
    let mut t = TBox::new();
    t.subsume(
        Concept::atom(p.dog),
        Concept::and(vec![
            Concept::atom(p.animal),
            Concept::atom(p.quadruped),
            Concept::exists(p.size, Concept::atom(p.small)),
        ]),
    );
    t.subsume(
        Concept::atom(p.horse),
        Concept::and(vec![
            Concept::atom(p.animal),
            Concept::atom(p.quadruped),
            Concept::exists(p.size, Concept::atom(p.big)),
        ]),
    );
    t.subsume(
        Concept::atom(p.animal),
        Concept::exists(p.ingests, Concept::atom(p.food)),
    );
    t.subsume(
        Concept::atom(p.quadruped),
        Concept::exactly(4, p.has, Concept::atom(p.leg)),
    );
    t
}

/// Structures (9)–(11): the repaired animal ontonomy, in which
/// `quadruped ⊑ animal` is asserted (true of animals, false of the
/// vehicle analogue: road vehicles need not be motor vehicles) and the
/// dog/horse definitions are simplified accordingly.
pub fn animals_tbox_repaired(p: &PaperVocab) -> TBox {
    let mut t = TBox::new();
    // (9)
    t.subsume(Concept::atom(p.quadruped), Concept::atom(p.animal));
    // (10)
    t.subsume(
        Concept::atom(p.dog),
        Concept::and(vec![
            Concept::atom(p.quadruped),
            Concept::exists(p.size, Concept::atom(p.small)),
        ]),
    );
    // (11)
    t.subsume(
        Concept::atom(p.horse),
        Concept::and(vec![
            Concept::atom(p.quadruped),
            Concept::exists(p.size, Concept::atom(p.big)),
        ]),
    );
    t.subsume(
        Concept::atom(p.animal),
        Concept::exists(p.ingests, Concept::atom(p.food)),
    );
    t.subsume(
        Concept::atom(p.quadruped),
        Concept::exactly(4, p.has, Concept::atom(p.leg)),
    );
    t
}

/// An EL-safe variant of structure (4) (the `∃₄` qualified number
/// restriction weakened to a plain existential) for use with the EL
/// baseline classifier.
pub fn vehicles_tbox_el(p: &PaperVocab) -> TBox {
    let mut t = TBox::new();
    t.subsume(
        Concept::atom(p.car),
        Concept::and(vec![
            Concept::atom(p.motorvehicle),
            Concept::atom(p.roadvehicle),
            Concept::exists(p.size, Concept::atom(p.small)),
        ]),
    );
    t.subsume(
        Concept::atom(p.pickup),
        Concept::and(vec![
            Concept::atom(p.motorvehicle),
            Concept::atom(p.roadvehicle),
            Concept::exists(p.size, Concept::atom(p.big)),
        ]),
    );
    t.subsume(
        Concept::atom(p.motorvehicle),
        Concept::exists(p.uses, Concept::atom(p.gasoline)),
    );
    t.subsume(
        Concept::atom(p.roadvehicle),
        Concept::exists(p.has, Concept::atom(p.wheel)),
    );
    t
}

/// An EL-safe variant of structure (8).
pub fn animals_tbox_el(p: &PaperVocab) -> TBox {
    let mut t = TBox::new();
    t.subsume(
        Concept::atom(p.dog),
        Concept::and(vec![
            Concept::atom(p.animal),
            Concept::atom(p.quadruped),
            Concept::exists(p.size, Concept::atom(p.small)),
        ]),
    );
    t.subsume(
        Concept::atom(p.horse),
        Concept::and(vec![
            Concept::atom(p.animal),
            Concept::atom(p.quadruped),
            Concept::exists(p.size, Concept::atom(p.big)),
        ]),
    );
    t.subsume(
        Concept::atom(p.animal),
        Concept::exists(p.ingests, Concept::atom(p.food)),
    );
    t.subsume(
        Concept::atom(p.quadruped),
        Concept::exists(p.has, Concept::atom(p.leg)),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tableau::capped::{sat, subsumes};
    use crate::tableau::Tableau;

    #[test]
    fn vehicles_tbox_is_coherent() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let mut r = Tableau::new(&t, &p.voc);
        assert!(sat(&mut r, &Concept::Top));
        assert!(sat(&mut r, &Concept::atom(p.car)));
        assert!(sat(&mut r, &Concept::atom(p.pickup)));
    }

    #[test]
    fn car_is_a_motorvehicle_and_roadvehicle() {
        let p = PaperVocab::new();
        let t = vehicles_tbox(&p);
        let mut r = Tableau::new(&t, &p.voc);
        assert!(subsumes(
            &mut r,
            &Concept::atom(p.motorvehicle),
            &Concept::atom(p.car)
        ));
        assert!(subsumes(
            &mut r,
            &Concept::atom(p.roadvehicle),
            &Concept::atom(p.car)
        ));
        // And through the chain, a car uses gasoline.
        assert!(subsumes(
            &mut r,
            &Concept::exists(p.uses, Concept::atom(p.gasoline)),
            &Concept::atom(p.car)
        ));
    }

    #[test]
    fn animals_mirror_vehicles() {
        let p = PaperVocab::new();
        let t = animals_tbox(&p);
        let mut r = Tableau::new(&t, &p.voc);
        assert!(subsumes(
            &mut r,
            &Concept::atom(p.animal),
            &Concept::atom(p.dog)
        ));
        assert!(subsumes(
            &mut r,
            &Concept::atom(p.quadruped),
            &Concept::atom(p.horse)
        ));
        assert!(subsumes(
            &mut r,
            &Concept::exists(p.ingests, Concept::atom(p.food)),
            &Concept::atom(p.dog)
        ));
    }

    #[test]
    fn repair_adds_quadruped_subsumption() {
        let p = PaperVocab::new();
        // Before the repair, quadruped ⋢ animal.
        let before = animals_tbox(&p);
        let mut r0 = Tableau::new(&before, &p.voc);
        assert!(!subsumes(
            &mut r0,
            &Concept::atom(p.animal),
            &Concept::atom(p.quadruped)
        ));
        // After, it holds, and dogs remain animals through it.
        let after = animals_tbox_repaired(&p);
        let mut r1 = Tableau::new(&after, &p.voc);
        assert!(subsumes(
            &mut r1,
            &Concept::atom(p.animal),
            &Concept::atom(p.quadruped)
        ));
        assert!(subsumes(
            &mut r1,
            &Concept::atom(p.animal),
            &Concept::atom(p.dog)
        ));
    }

    #[test]
    fn el_variants_are_el() {
        let p = PaperVocab::new();
        assert!(vehicles_tbox_el(&p).is_el());
        assert!(animals_tbox_el(&p).is_el());
        assert!(!vehicles_tbox(&p).is_el()); // ∃₄ is not EL
    }
}
