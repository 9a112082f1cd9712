//! Instance models of an ontology signature.
//!
//! A model interprets every class as a finite extent of objects
//! (respecting the hierarchy's inclusions) and every attribute of
//! `A_{c,e}` as a total function from the extent of `c` to the extent
//! of `e` (a class) or to the data domain's values of sort `e`.

use crate::error::{OntonomyError, Result};
use crate::signature::{AttrTarget, ClassId, OntologySignature};
use std::collections::{BTreeMap, BTreeSet};
use summa_osa::term::Term;

/// An object of an instance model (dense id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Object(pub u32);

/// The value of an attribute at one object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Another object (for class-targeted attributes).
    Obj(Object),
    /// A ground term of the data domain (for sort-targeted
    /// attributes).
    Data(Term),
}

/// Builder for an [`InstanceModel`].
#[derive(Debug, Clone, Default)]
pub struct InstanceModelBuilder {
    names: Vec<String>,
    extents: BTreeMap<ClassId, BTreeSet<Object>>,
    valuations: BTreeMap<(String, Object), Value>,
}

impl InstanceModelBuilder {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a named object in the extent of `class` (idempotent on
    /// the name; membership accumulates).
    pub fn object(&mut self, name: &str, class: ClassId) -> Object {
        let o = if let Some(i) = self.names.iter().position(|n| n == name) {
            Object(i as u32)
        } else {
            self.names.push(name.to_string());
            Object((self.names.len() - 1) as u32)
        };
        self.extents.entry(class).or_default().insert(o);
        o
    }

    /// Add an existing object to another class's extent.
    pub fn extend_class(&mut self, o: Object, class: ClassId) {
        self.extents.entry(class).or_default().insert(o);
    }

    /// Set an attribute value.
    pub fn set(&mut self, attr: &str, o: Object, v: Value) {
        self.valuations.insert((attr.to_string(), o), v);
    }

    /// Freeze. Extents are closed upward along the signature's
    /// hierarchy at check time, not here — the builder is
    /// signature-agnostic.
    pub fn finish(self) -> InstanceModel {
        InstanceModel {
            names: self.names,
            extents: self.extents,
            valuations: self.valuations,
        }
    }
}

/// A finite instance model.
#[derive(Debug, Clone)]
pub struct InstanceModel {
    names: Vec<String>,
    extents: BTreeMap<ClassId, BTreeSet<Object>>,
    valuations: BTreeMap<(String, Object), Value>,
}

impl InstanceModel {
    /// Object name.
    pub fn object_name(&self, o: Object) -> &str {
        &self.names[o.0 as usize]
    }

    /// The *closed* extent of a class under `sig`: declared members of
    /// the class and of all its subclasses.
    pub fn extent(&self, sig: &OntologySignature, c: ClassId) -> BTreeSet<Object> {
        let mut out = BTreeSet::new();
        for sub in sig.class_ids() {
            if sig.subclass_of(sub, c) {
                if let Some(e) = self.extents.get(&sub) {
                    out.extend(e.iter().copied());
                }
            }
        }
        out
    }

    /// Declared (raw) extent of a class.
    pub fn declared_extent(&self, c: ClassId) -> BTreeSet<Object> {
        self.extents.get(&c).cloned().unwrap_or_default()
    }

    /// The value of an attribute at an object.
    pub fn value(&self, attr: &str, o: Object) -> Option<&Value> {
        self.valuations.get(&(attr.to_string(), o))
    }

    /// Number of objects.
    pub fn n_objects(&self) -> usize {
        self.names.len()
    }

    /// Check modelhood of the signature: every attribute of every
    /// class is total on the class's extent and lands in the right
    /// value space.
    pub fn check_against(&self, sig: &OntologySignature) -> Result<()> {
        for c in sig.class_ids() {
            let ext = self.extent(sig, c);
            for (target, attr) in sig.attrs_of_class(c) {
                for &o in &ext {
                    let v = self
                        .value(&attr, o)
                        .ok_or_else(|| OntonomyError::BadValuation {
                            attr: attr.clone(),
                            detail: format!(
                                "undefined on '{}' (class {})",
                                self.object_name(o),
                                sig.class_name(c)
                            ),
                        })?;
                    match (target, v) {
                        (AttrTarget::Class(cc), Value::Obj(other)) => {
                            if !self.extent(sig, cc).contains(other) {
                                return Err(OntonomyError::BadValuation {
                                    attr: attr.clone(),
                                    detail: format!(
                                        "value '{}' not in extent of '{}'",
                                        self.object_name(*other),
                                        sig.class_name(cc)
                                    ),
                                });
                            }
                        }
                        (AttrTarget::Sort(s), Value::Data(term)) => {
                            let theory_sig = sig.data_domain().theory().signature();
                            let ls = term.well_sorted(theory_sig).map_err(OntonomyError::Osa)?;
                            if !theory_sig.poset().leq(ls, s) {
                                return Err(OntonomyError::BadValuation {
                                    attr: attr.clone(),
                                    detail: format!(
                                        "data value has sort '{}', expected ≤ '{}'",
                                        theory_sig.poset().name(ls),
                                        theory_sig.poset().name(s)
                                    ),
                                });
                            }
                        }
                        (AttrTarget::Class(_), Value::Data(_)) => {
                            return Err(OntonomyError::BadValuation {
                                attr: attr.clone(),
                                detail: "expected object value, got data value".to_string(),
                            })
                        }
                        (AttrTarget::Sort(_), Value::Obj(_)) => {
                            return Err(OntonomyError::BadValuation {
                                attr: attr.clone(),
                                detail: "expected data value, got object value".to_string(),
                            })
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{AttrTarget, SignatureBuilder};
    use summa_osa::algebra::AlgebraBuilder;
    use summa_osa::theory::{DataDomain, Theory};

    fn size_domain() -> (DataDomain, summa_osa::sort::SortId) {
        let mut b = summa_osa::signature::SignatureBuilder::new();
        let size = b.sort("Size");
        let small = b.op("small", &[], size);
        let big = b.op("big", &[], size);
        let sig = b.finish().unwrap();
        let theory = Theory::new(sig.clone());
        let mut ab = AlgebraBuilder::new(sig.clone());
        let e1 = ab.elem("small", size);
        let e2 = ab.elem("big", size);
        ab.interpret(small, &[], e1);
        ab.interpret(big, &[], e2);
        let alg = ab.finish().unwrap();
        (DataDomain::new(theory, alg).unwrap(), size)
    }

    fn small_term(sig: &OntologySignature) -> Term {
        let osig = sig.data_domain().theory().signature();
        Term::constant(osig.resolve("small", &[]).unwrap())
    }

    fn vehicle_sig() -> (OntologySignature, ClassId, ClassId) {
        let (dd, size) = size_domain();
        let mut b = SignatureBuilder::new(dd);
        let vehicle = b.class("vehicle");
        let car = b.class("car");
        b.subclass(car, vehicle);
        b.attribute(vehicle, "size", AttrTarget::Sort(size));
        (b.finish().unwrap(), vehicle, car)
    }

    #[test]
    fn extents_close_upward() {
        let (sig, vehicle, car) = vehicle_sig();
        let mut mb = InstanceModelBuilder::new();
        let beetle = mb.object("beetle", car);
        mb.set("size", beetle, Value::Data(small_term(&sig)));
        let m = mb.finish();
        assert!(m.extent(&sig, vehicle).contains(&beetle));
        assert!(m.extent(&sig, car).contains(&beetle));
        assert_eq!(m.declared_extent(vehicle).len(), 0);
    }

    #[test]
    fn valid_model_checks_out() {
        let (sig, _vehicle, car) = vehicle_sig();
        let mut mb = InstanceModelBuilder::new();
        let beetle = mb.object("beetle", car);
        mb.set("size", beetle, Value::Data(small_term(&sig)));
        let m = mb.finish();
        assert!(m.check_against(&sig).is_ok());
    }

    #[test]
    fn missing_valuation_detected() {
        let (sig, _vehicle, car) = vehicle_sig();
        let mut mb = InstanceModelBuilder::new();
        mb.object("beetle", car);
        let m = mb.finish();
        assert!(matches!(
            m.check_against(&sig),
            Err(OntonomyError::BadValuation { .. })
        ));
    }

    #[test]
    fn object_value_for_sort_attr_rejected() {
        let (sig, _vehicle, car) = vehicle_sig();
        let mut mb = InstanceModelBuilder::new();
        let beetle = mb.object("beetle", car);
        mb.set("size", beetle, Value::Obj(beetle));
        let m = mb.finish();
        assert!(matches!(
            m.check_against(&sig),
            Err(OntonomyError::BadValuation { .. })
        ));
    }

    #[test]
    fn class_targeted_attribute_checked() {
        let (dd, _size) = size_domain();
        let mut b = SignatureBuilder::new(dd);
        let car = b.class("car");
        let wheel = b.class("wheel");
        b.attribute(car, "front_left", AttrTarget::Class(wheel));
        let sig = b.finish().unwrap();
        let mut mb = InstanceModelBuilder::new();
        let beetle = mb.object("beetle", car);
        let w = mb.object("w1", wheel);
        mb.set("front_left", beetle, Value::Obj(w));
        let m = mb.finish();
        assert!(m.check_against(&sig).is_ok());
        // Pointing at a non-wheel fails.
        let mut mb2 = InstanceModelBuilder::new();
        let b2 = mb2.object("beetle", car);
        mb2.set("front_left", b2, Value::Obj(b2));
        assert!(mb2.finish().check_against(&sig).is_err());
    }
}
