//! Isomorphism of ontology signatures.
//!
//! The paper's CAR = DOG argument (§3) is usually run against
//! description-logic structures, but it bites the Bench-Capon &
//! Malcolm definition too: two ontology signatures that differ only in
//! their class and attribute *names* are indistinguishable as
//! structures. [`signatures_isomorphic`] searches for a class
//! bijection and attribute renaming that identifies the two
//! signatures — a witness that the "rigorous structural definition"
//! also cannot anchor meaning in anything but names.

use crate::signature::{AttrTarget, ClassId, OntologySignature};
use std::collections::BTreeMap;
use summa_guard::{Budget, Governed, Interrupt, Meter};

/// A witnessing mapping: class bijection plus attribute renaming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureMapping {
    /// left class → right class.
    pub classes: BTreeMap<ClassId, ClassId>,
    /// left attribute name → right attribute name.
    pub attributes: BTreeMap<String, String>,
}

/// Are two ontology signatures isomorphic (same class-hierarchy shape,
/// same attribute structure up to renaming)? Sorts of the data domain
/// are matched by name-independent position only when the domains have
/// the same poset shape; for simplicity we require the *same number*
/// of sorts and match sort targets by index order — adequate for the
/// corpus comparisons this crate makes.
pub fn signatures_isomorphic(
    left: &OntologySignature,
    right: &OntologySignature,
) -> Option<SignatureMapping> {
    signatures_isomorphic_metered(left, right, &mut Meter::unlimited())
        .expect("unlimited meter never interrupts")
}

/// Budget-governed signature-isomorphism search. Each candidate class
/// pairing tried charges one step; an interrupted search carries no
/// partial witness (`None` = *undecided*).
pub fn signatures_isomorphic_governed(
    left: &OntologySignature,
    right: &OntologySignature,
    budget: &Budget,
) -> Governed<Option<SignatureMapping>> {
    let mut meter = budget.meter();
    match signatures_isomorphic_metered(left, right, &mut meter) {
        Ok(m) => Governed::Completed(m),
        Err(i) => Governed::from_interrupt(i, None),
    }
}

/// Metered search over a caller-supplied meter.
pub fn signatures_isomorphic_metered(
    left: &OntologySignature,
    right: &OntologySignature,
    meter: &mut Meter,
) -> Result<Option<SignatureMapping>, Interrupt> {
    let lcs: Vec<ClassId> = left.class_ids().collect();
    let rcs: Vec<ClassId> = right.class_ids().collect();
    if lcs.len() != rcs.len() {
        return Ok(None);
    }
    let lposet = left.data_domain().theory().signature().poset();
    let rposet = right.data_domain().theory().signature().poset();
    if lposet.len() != rposet.len() {
        return Ok(None);
    }
    let mut span = meter.span("ontonomy.iso").with("classes", lcs.len());
    // Backtracking over class bijections with order- and
    // attribute-count pruning.
    let mut assignment: Vec<Option<usize>> = vec![None; lcs.len()];
    let mut used = vec![false; rcs.len()];
    if !assign(
        left,
        right,
        &lcs,
        &rcs,
        &mut assignment,
        &mut used,
        0,
        meter,
    )? {
        span.record("found", false);
        return Ok(None);
    }
    span.record("found", true);
    Ok(mapping_from_assignment(
        left,
        right,
        &lcs,
        &rcs,
        &assignment,
    ))
}

/// Turn a complete class assignment into the full witnessing mapping,
/// pairing attribute names positionally within each (class, target)
/// bucket. `None` when the attribute structure refuses to line up.
fn mapping_from_assignment(
    left: &OntologySignature,
    right: &OntologySignature,
    lcs: &[ClassId],
    rcs: &[ClassId],
    assignment: &[Option<usize>],
) -> Option<SignatureMapping> {
    let classes: BTreeMap<ClassId, ClassId> = assignment
        .iter()
        .enumerate()
        .map(|(i, j)| (lcs[i], rcs[j.expect("complete")]))
        .collect();
    let mut attributes = BTreeMap::new();
    for (&lc, &rc) in &classes {
        for (lt, lname) in left.attrs_of_class(lc) {
            let rt = map_target(lt, &classes);
            let rattrs: Vec<String> = right.attrs(rc, rt).into_iter().collect();
            let lattrs: Vec<String> = left.attrs(lc, lt).into_iter().collect();
            let pos = lattrs.iter().position(|a| *a == lname)?;
            attributes.insert(lname, rattrs.get(pos)?.clone());
        }
    }
    Some(SignatureMapping {
        classes,
        attributes,
    })
}

fn map_target(t: AttrTarget, classes: &BTreeMap<ClassId, ClassId>) -> AttrTarget {
    match t {
        AttrTarget::Class(c) => AttrTarget::Class(*classes.get(&c).unwrap_or(&c)),
        AttrTarget::Sort(s) => AttrTarget::Sort(s),
    }
}

#[allow(clippy::too_many_arguments)]
fn assign(
    left: &OntologySignature,
    right: &OntologySignature,
    lcs: &[ClassId],
    rcs: &[ClassId],
    assignment: &mut Vec<Option<usize>>,
    used: &mut Vec<bool>,
    next: usize,
    meter: &mut Meter,
) -> Result<bool, Interrupt> {
    if next == lcs.len() {
        return Ok(true);
    }
    'candidates: for cand in 0..rcs.len() {
        if used[cand] {
            continue;
        }
        meter.charge(1)?;
        // Attribute-count signature must match per target kind.
        let lattrs = left.attrs_of_class(lcs[next]);
        let rattrs = right.attrs_of_class(rcs[cand]);
        if lattrs.len() != rattrs.len() {
            continue;
        }
        assignment[next] = Some(cand);
        used[cand] = true;
        // Order consistency with everything assigned so far.
        for prev in 0..next {
            let p = assignment[prev].expect("assigned");
            let l_le = left.subclass_of(lcs[next], lcs[prev]);
            let r_le = right.subclass_of(rcs[cand], rcs[p]);
            let l_ge = left.subclass_of(lcs[prev], lcs[next]);
            let r_ge = right.subclass_of(rcs[p], rcs[cand]);
            if l_le != r_le || l_ge != r_ge {
                assignment[next] = None;
                used[cand] = false;
                continue 'candidates;
            }
        }
        if assign(left, right, lcs, rcs, assignment, used, next + 1, meter)? {
            return Ok(true);
        }
        assignment[next] = None;
        used[cand] = false;
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{animals_signature, vehicles_signature};

    #[test]
    fn vehicles_and_animals_signatures_collapse() {
        let v = vehicles_signature().expect("well-formed");
        let a = animals_signature().expect("well-formed");
        let m = signatures_isomorphic(&v.ontonomy.signature, &a.ontonomy.signature)
            .expect("the BCM encodings of (4) and (8) are isomorphic too");
        // car must map to dog or horse (the two leaf classes with a
        // size attribute).
        let car_image = m.classes[&v.car];
        assert!(car_image == a.dog || car_image == a.horse);
        assert_eq!(m.classes.len(), 4);
    }

    #[test]
    fn isomorphism_is_reflexive() {
        let v = vehicles_signature().expect("well-formed");
        let m = signatures_isomorphic(&v.ontonomy.signature, &v.ontonomy.signature)
            .expect("every signature is isomorphic to itself");
        assert_eq!(m.classes.len(), 4);
    }

    #[test]
    fn different_shapes_are_distinguished() {
        let v = vehicles_signature().expect("well-formed");
        let a = animals_signature_repaired();
        assert!(
            signatures_isomorphic(&v.ontonomy.signature, &a).is_none(),
            "the repaired hierarchy (quadruped ≤ animal) must not match"
        );
    }

    #[test]
    fn governed_search_completes_and_exhausts() {
        let v = vehicles_signature().expect("well-formed");
        let a = animals_signature().expect("well-formed");
        let done = signatures_isomorphic_governed(
            &v.ontonomy.signature,
            &a.ontonomy.signature,
            &Budget::unlimited(),
        );
        assert!(matches!(done, Governed::Completed(Some(_))));
        // A full bijection over 4 classes needs at least 4 candidate
        // trials; a 1-step budget must exhaust.
        let starved = signatures_isomorphic_governed(
            &v.ontonomy.signature,
            &a.ontonomy.signature,
            &Budget::new().with_steps(1),
        );
        assert!(matches!(starved, Governed::Exhausted { partial: None, .. }));
    }

    /// The repaired animal signature: quadruped ≤ animal added.
    fn animals_signature_repaired() -> OntologySignature {
        crate::corpus::animals_signature_repaired()
            .expect("well-formed")
            .ontonomy
            .signature
    }
}
