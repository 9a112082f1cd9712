//! Ontology signatures per Bench-Capon & Malcolm's Definition 1.

use crate::error::{OntonomyError, Result};
use std::collections::{BTreeMap, BTreeSet};
use summa_osa::sort::{SortId, SortPoset, SortPosetBuilder};
use summa_osa::theory::DataDomain;

/// Identifier of a class in the class hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

impl From<SortId> for ClassId {
    fn from(s: SortId) -> Self {
        ClassId(s.0)
    }
}

impl From<ClassId> for SortId {
    fn from(c: ClassId) -> Self {
        SortId(c.0)
    }
}

/// An attribute's value space: a class or a data-domain sort — the
/// definition's `e ∈ C + S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttrTarget {
    /// A class of the hierarchy.
    Class(ClassId),
    /// A sort of the data domain's theory.
    Sort(SortId),
}

/// Builder for a class hierarchy (a partial order on class names),
/// implemented on the order-sorted poset machinery.
#[derive(Debug, Default, Clone)]
pub struct ClassHierarchyBuilder {
    inner: SortPosetBuilder,
}

impl ClassHierarchyBuilder {
    /// An empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a class by name.
    pub fn class(&mut self, name: &str) -> ClassId {
        self.inner.sort(name).into()
    }

    /// Declare `sub ≤ sup`.
    pub fn subclass(&mut self, sub: ClassId, sup: ClassId) {
        self.inner.subsort(sub.into(), sup.into());
    }

    /// Validate (acyclicity) and freeze.
    pub fn finish(self) -> Result<SortPoset> {
        self.inner.finish().map_err(|e| match e {
            summa_osa::error::OsaError::SortCycle { a, b } => OntonomyError::ClassCycle { a, b },
            other => OntonomyError::Osa(other),
        })
    }
}

/// Builder for an [`OntologySignature`].
#[derive(Debug)]
pub struct SignatureBuilder {
    data_domain: DataDomain,
    classes: ClassHierarchyBuilder,
    attrs: Vec<(ClassId, AttrTarget, String)>,
}

impl SignatureBuilder {
    /// Start from a data domain `(T, D)`.
    pub fn new(data_domain: DataDomain) -> Self {
        SignatureBuilder {
            data_domain,
            classes: ClassHierarchyBuilder::new(),
            attrs: vec![],
        }
    }

    /// Intern a class.
    pub fn class(&mut self, name: &str) -> ClassId {
        self.classes.class(name)
    }

    /// Declare `sub ≤ sup`.
    pub fn subclass(&mut self, sub: ClassId, sup: ClassId) {
        self.classes.subclass(sub, sup);
    }

    /// Declare an attribute symbol in `A_{c,e}`.
    pub fn attribute(&mut self, c: ClassId, name: &str, e: AttrTarget) {
        self.attrs.push((c, e, name.to_string()));
    }

    /// Freeze, *checking* Definition 1's inheritance condition on the
    /// declared family as-is.
    pub fn finish_strict(self) -> Result<OntologySignature> {
        let sig = self.assemble()?;
        sig.check_inheritance()?;
        Ok(sig)
    }

    /// Freeze, first *closing* the declared family under the
    /// inheritance condition (the minimal well-formed family
    /// containing the declarations), then validating.
    pub fn finish(self) -> Result<OntologySignature> {
        let mut sig = self.assemble()?;
        sig.close_inheritance();
        sig.check_inheritance()?;
        Ok(sig)
    }

    fn assemble(self) -> Result<OntologySignature> {
        let classes = self.classes.finish()?;
        let mut attrs: BTreeMap<(ClassId, AttrTarget), BTreeSet<String>> = BTreeMap::new();
        for (c, e, name) in self.attrs {
            if c.0 as usize >= classes.len() {
                return Err(OntonomyError::UnknownClass(format!("{c:?}")));
            }
            match e {
                AttrTarget::Class(cc) if (cc.0 as usize) >= classes.len() => {
                    return Err(OntonomyError::UnknownTarget(format!("{cc:?}")))
                }
                AttrTarget::Sort(s)
                    if s.index() >= self.data_domain.theory().signature().poset().len() =>
                {
                    return Err(OntonomyError::UnknownTarget(format!("{s:?}")))
                }
                _ => {}
            }
            attrs.entry((c, e)).or_default().insert(name);
        }
        Ok(OntologySignature {
            data_domain: self.data_domain,
            classes,
            attrs,
        })
    }
}

/// An ontology signature `(D, C, A)` (Definition 1).
#[derive(Debug, Clone)]
pub struct OntologySignature {
    data_domain: DataDomain,
    classes: SortPoset,
    attrs: BTreeMap<(ClassId, AttrTarget), BTreeSet<String>>,
}

impl OntologySignature {
    /// The data domain `D = (T, D)`.
    pub fn data_domain(&self) -> &DataDomain {
        &self.data_domain
    }

    /// The class hierarchy `C = (C, ≤)`.
    pub fn classes(&self) -> &SortPoset {
        &self.classes
    }

    /// Class name.
    pub fn class_name(&self, c: ClassId) -> &str {
        self.classes.name(c.into())
    }

    /// Look up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes.by_name(name).map(Into::into)
    }

    /// `sub ≤ sup` in the class hierarchy.
    pub fn subclass_of(&self, sub: ClassId, sup: ClassId) -> bool {
        self.classes.leq(sub.into(), sup.into())
    }

    /// The attribute set `A_{c,e}`.
    pub fn attrs(&self, c: ClassId, e: AttrTarget) -> BTreeSet<String> {
        self.attrs.get(&(c, e)).cloned().unwrap_or_default()
    }

    /// All `(target, attribute)` pairs applicable to a class.
    pub fn attrs_of_class(&self, c: ClassId) -> Vec<(AttrTarget, String)> {
        let mut out = vec![];
        for ((cc, e), names) in &self.attrs {
            if *cc == c {
                for n in names {
                    out.push((*e, n.clone()));
                }
            }
        }
        out
    }

    /// All classes.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.classes.sorts().map(Into::into)
    }

    /// Order on targets: classes by the class hierarchy, sorts by the
    /// data domain's sort poset, mixed targets incomparable.
    pub fn target_leq(&self, a: AttrTarget, b: AttrTarget) -> bool {
        match (a, b) {
            (AttrTarget::Class(x), AttrTarget::Class(y)) => self.classes.leq(x.into(), y.into()),
            (AttrTarget::Sort(x), AttrTarget::Sort(y)) => {
                self.data_domain.theory().signature().poset().leq(x, y)
            }
            _ => false,
        }
    }

    fn all_targets(&self) -> Vec<AttrTarget> {
        let mut out: Vec<AttrTarget> = self
            .classes
            .sorts()
            .map(|s| AttrTarget::Class(s.into()))
            .collect();
        out.extend(
            self.data_domain
                .theory()
                .signature()
                .poset()
                .sorts()
                .map(AttrTarget::Sort),
        );
        out
    }

    /// Check Definition 1's condition: `A_{c′,e} ⊆ A_{c,e′}` whenever
    /// `c ≤ c′` and `e ≤ e′`.
    pub fn check_inheritance(&self) -> Result<()> {
        let targets = self.all_targets();
        for sup in self.class_ids() {
            for sub in self.class_ids() {
                if !self.subclass_of(sub, sup) {
                    continue;
                }
                for &e in &targets {
                    let a_sup = self.attrs(sup, e);
                    if a_sup.is_empty() {
                        continue;
                    }
                    for &e2 in &targets {
                        if !self.target_leq(e, e2) {
                            continue;
                        }
                        let a_sub = self.attrs(sub, e2);
                        if let Some(missing) = a_sup.iter().find(|a| !a_sub.contains(*a)) {
                            return Err(OntonomyError::InheritanceViolation {
                                attr: missing.clone(),
                                sub: self.class_name(sub).to_string(),
                                sup: self.class_name(sup).to_string(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Close the family under the inheritance condition (propagate
    /// `A_{c′,e}` into `A_{c,e′}` for all `c ≤ c′`, `e ≤ e′`).
    pub fn close_inheritance(&mut self) {
        let targets = self.all_targets();
        let classes: Vec<ClassId> = self.class_ids().collect();
        loop {
            let mut changed = false;
            for &sup in &classes {
                for &sub in &classes {
                    if !self.subclass_of(sub, sup) {
                        continue;
                    }
                    for &e in &targets {
                        let a_sup = self.attrs(sup, e);
                        if a_sup.is_empty() {
                            continue;
                        }
                        for &e2 in &targets {
                            if !self.target_leq(e, e2) {
                                continue;
                            }
                            let entry = self.attrs.entry((sub, e2)).or_default();
                            for a in &a_sup {
                                changed |= entry.insert(a.clone());
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Render the signature: classes, subsumptions, attributes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in self.class_ids() {
            out.push_str(&format!("class {}\n", self.class_name(c)));
            for sup in self.class_ids() {
                if c != sup && self.subclass_of(c, sup) {
                    out.push_str(&format!(
                        "  {} ≤ {}\n",
                        self.class_name(c),
                        self.class_name(sup)
                    ));
                }
            }
            for (e, a) in self.attrs_of_class(c) {
                let target = match e {
                    AttrTarget::Class(cc) => self.class_name(cc).to_string(),
                    AttrTarget::Sort(s) => self
                        .data_domain
                        .theory()
                        .signature()
                        .poset()
                        .name(s)
                        .to_string(),
                };
                out.push_str(&format!("  attr {a} : {target}\n"));
            }
        }
        out
    }
}

/// An ontonomy `(Σ, A)`: a signature plus axioms.
#[derive(Debug, Clone)]
pub struct Ontonomy {
    /// The ontology signature Σ.
    pub signature: OntologySignature,
    /// The axioms A.
    pub axioms: Vec<crate::axiom::OntAxiom>,
}

impl Ontonomy {
    /// An ontonomy with no axioms.
    pub fn new(signature: OntologySignature) -> Self {
        Ontonomy {
            signature,
            axioms: vec![],
        }
    }

    /// Add an axiom.
    pub fn add_axiom(&mut self, ax: crate::axiom::OntAxiom) {
        self.axioms.push(ax);
    }

    /// Is `m` a model of this ontonomy (a model of Σ satisfying A)?
    pub fn is_model(&self, m: &crate::instance::InstanceModel) -> Result<()> {
        m.check_against(&self.signature)?;
        for ax in &self.axioms {
            ax.check(&self.signature, m)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summa_osa::algebra::AlgebraBuilder;
    use summa_osa::theory::Theory;

    /// A trivial data domain: one sort "String" with two constants.
    pub(crate) fn tiny_domain() -> DataDomain {
        let mut b = summa_osa::signature::SignatureBuilder::new();
        let s = b.sort("Str");
        let hello = b.op("hello", &[], s);
        let _world = b.op("world", &[], s);
        let sig = b.finish().unwrap();
        let theory = Theory::new(sig.clone());
        let mut ab = AlgebraBuilder::new(sig.clone());
        let e1 = ab.elem("hello", s);
        let e2 = ab.elem("world", s);
        ab.interpret(hello, &[], e1);
        ab.interpret(sig.resolve("world", &[]).unwrap(), &[], e2);
        let alg = ab.finish().unwrap();
        DataDomain::new(theory, alg).unwrap()
    }

    #[test]
    fn class_hierarchy_rejects_cycles() {
        let mut b = ClassHierarchyBuilder::new();
        let a = b.class("A");
        let c = b.class("B");
        b.subclass(a, c);
        b.subclass(c, a);
        assert!(matches!(b.finish(), Err(OntonomyError::ClassCycle { .. })));
    }

    #[test]
    fn closed_signature_inherits_attributes() {
        let dd = tiny_domain();
        let str_sort = dd.theory().signature().poset().by_name("Str").unwrap();
        let mut b = SignatureBuilder::new(dd);
        let vehicle = b.class("vehicle");
        let car = b.class("car");
        b.subclass(car, vehicle);
        b.attribute(vehicle, "name", AttrTarget::Sort(str_sort));
        let sig = b.finish().unwrap();
        // car inherits "name".
        assert!(sig.attrs(car, AttrTarget::Sort(str_sort)).contains("name"));
        assert!(sig.check_inheritance().is_ok());
    }

    #[test]
    fn strict_signature_detects_missing_inheritance() {
        let dd = tiny_domain();
        let str_sort = dd.theory().signature().poset().by_name("Str").unwrap();
        let mut b = SignatureBuilder::new(dd);
        let vehicle = b.class("vehicle");
        let car = b.class("car");
        b.subclass(car, vehicle);
        b.attribute(vehicle, "name", AttrTarget::Sort(str_sort));
        // car does NOT declare "name": strict check must fail.
        assert!(matches!(
            b.finish_strict(),
            Err(OntonomyError::InheritanceViolation { .. })
        ));
    }

    #[test]
    fn class_targets_participate_in_the_order() {
        let dd = tiny_domain();
        let mut b = SignatureBuilder::new(dd);
        let vehicle = b.class("vehicle");
        let car = b.class("car");
        let part = b.class("part");
        let wheel = b.class("wheel");
        b.subclass(car, vehicle);
        b.subclass(wheel, part);
        // vehicle has an attribute targeting the *narrow* class wheel;
        // closure must add it to car at wheel AND at the broader part.
        b.attribute(vehicle, "rolls_on", AttrTarget::Class(wheel));
        let sig = b.finish().unwrap();
        assert!(sig
            .attrs(car, AttrTarget::Class(wheel))
            .contains("rolls_on"));
        assert!(sig.attrs(car, AttrTarget::Class(part)).contains("rolls_on"));
        // Mixed class/sort targets are incomparable.
        let str_sort = sig
            .data_domain()
            .theory()
            .signature()
            .poset()
            .by_name("Str")
            .unwrap();
        assert!(!sig.target_leq(AttrTarget::Class(wheel), AttrTarget::Sort(str_sort)));
    }

    #[test]
    fn unknown_targets_rejected() {
        let dd = tiny_domain();
        let mut b = SignatureBuilder::new(dd);
        let c = b.class("c");
        b.attribute(c, "bogus", AttrTarget::Class(ClassId(99)));
        assert!(matches!(b.finish(), Err(OntonomyError::UnknownTarget(_))));
    }

    #[test]
    fn render_lists_classes_and_attrs() {
        let dd = tiny_domain();
        let str_sort = dd.theory().signature().poset().by_name("Str").unwrap();
        let mut b = SignatureBuilder::new(dd);
        let vehicle = b.class("vehicle");
        b.attribute(vehicle, "name", AttrTarget::Sort(str_sort));
        let sig = b.finish().unwrap();
        let s = sig.render();
        assert!(s.contains("class vehicle"));
        assert!(s.contains("attr name : Str"));
    }
}
