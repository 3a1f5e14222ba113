//! Relation schemes: ordered, typed attribute lists.

use std::fmt;
use std::sync::Arc;

use crate::domain::DomainType;
use crate::error::SnapshotError;
use crate::Result;

/// A single named, typed attribute of a relation scheme.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Attribute {
    /// The attribute's name, unique within its scheme.
    pub name: Arc<str>,
    /// The attribute's value domain.
    pub domain: DomainType,
}

impl Attribute {
    /// Creates an attribute.
    pub fn new(name: impl AsRef<str>, domain: DomainType) -> Attribute {
        Attribute {
            name: Arc::from(name.as_ref()),
            domain,
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::encode::encode(f, |e| e.attribute(self))
    }
}

/// A relation scheme: a non-empty ordered sequence of distinct attributes.
///
/// Schemes are immutable and cheaply clonable (the attribute list is
/// reference-counted); every [`crate::SnapshotState`] carries one.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Schema {
    attributes: Arc<[Attribute]>,
}

impl Schema {
    /// Builds a scheme from `(name, domain)` pairs.
    ///
    /// Fails if the list is empty or contains a duplicate name.
    pub fn new<N: AsRef<str>>(attrs: Vec<(N, DomainType)>) -> Result<Schema> {
        Schema::from_attributes(
            attrs
                .into_iter()
                .map(|(n, d)| Attribute::new(n, d))
                .collect(),
        )
    }

    /// Builds a scheme from prepared [`Attribute`]s.
    pub fn from_attributes(attrs: Vec<Attribute>) -> Result<Schema> {
        if attrs.is_empty() {
            return Err(SnapshotError::EmptyScheme);
        }
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(SnapshotError::DuplicateAttribute(a.name.to_string()));
            }
        }
        Ok(Schema {
            attributes: attrs.into(),
        })
    }

    /// The attributes, in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes (the scheme's arity).
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of the named attribute, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| &*a.name == name)
    }

    /// Position of the named attribute, or an `UnknownAttribute` error.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| SnapshotError::UnknownAttribute(name.to_string()))
    }

    /// The attribute at `index`.
    pub fn attribute(&self, index: usize) -> &Attribute {
        &self.attributes[index]
    }

    /// Whether the named attribute exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Union compatibility: identical attribute sequences (names, domains,
    /// and order).
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self == other
    }

    /// Checks union compatibility, producing a descriptive error on
    /// failure.
    pub fn require_union_compatible(&self, other: &Schema) -> Result<()> {
        if self.union_compatible(other) {
            Ok(())
        } else {
            Err(SnapshotError::SchemeMismatch {
                left: self.to_string(),
                right: other.to_string(),
            })
        }
    }

    /// Concatenates two schemes for a cartesian product; attribute names
    /// must be disjoint.
    pub fn product(&self, other: &Schema) -> Result<Schema> {
        for a in other.attributes() {
            if self.contains(&a.name) {
                return Err(SnapshotError::ProductAttributeClash(a.name.to_string()));
            }
        }
        let mut attrs: Vec<Attribute> = self.attributes.to_vec();
        attrs.extend(other.attributes.iter().cloned());
        Schema::from_attributes(attrs)
    }

    /// The sub-scheme obtained by keeping `names`, in the order given.
    ///
    /// Fails on unknown or repeated names.
    pub fn project(&self, names: &[impl AsRef<str>]) -> Result<(Schema, Vec<usize>)> {
        let mut attrs = Vec::with_capacity(names.len());
        let mut indices = Vec::with_capacity(names.len());
        for n in names {
            let n = n.as_ref();
            let idx = self.require(n)?;
            if indices.contains(&idx) {
                return Err(SnapshotError::DuplicateProjection(n.to_string()));
            }
            indices.push(idx);
            attrs.push(self.attributes[idx].clone());
        }
        Ok((Schema::from_attributes(attrs)?, indices))
    }

    /// Renames attribute `from` to `to`, preserving order and domain.
    pub fn rename(&self, from: &str, to: &str) -> Result<Schema> {
        let idx = self.require(from)?;
        if from != to && self.contains(to) {
            return Err(SnapshotError::RenameClash(to.to_string()));
        }
        let mut attrs = self.attributes.to_vec();
        attrs[idx] = Attribute::new(to, attrs[idx].domain);
        Schema::from_attributes(attrs)
    }

    /// Attribute names shared with `other` (used by natural join).
    pub fn common_attributes(&self, other: &Schema) -> Vec<Arc<str>> {
        self.attributes
            .iter()
            .filter(|a| other.contains(&a.name))
            .map(|a| a.name.clone())
            .collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::encode::encode(f, |e| e.schema(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp() -> Schema {
        Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Int)]).unwrap()
    }

    #[test]
    fn rejects_empty_scheme() {
        let attrs: Vec<(&str, DomainType)> = vec![];
        assert_eq!(Schema::new(attrs).unwrap_err(), SnapshotError::EmptyScheme);
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Schema::new(vec![("a", DomainType::Int), ("a", DomainType::Str)]).unwrap_err();
        assert_eq!(err, SnapshotError::DuplicateAttribute("a".into()));
    }

    #[test]
    fn index_lookup() {
        let s = emp();
        assert_eq!(s.index_of("name"), Some(0));
        assert_eq!(s.index_of("sal"), Some(1));
        assert_eq!(s.index_of("dept"), None);
        assert!(s.require("dept").is_err());
    }

    #[test]
    fn union_compatibility_requires_identical_schemes() {
        let a = emp();
        let b = emp();
        assert!(a.union_compatible(&b));
        let c = Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Real)]).unwrap();
        assert!(!a.union_compatible(&c));
        assert!(a.require_union_compatible(&c).is_err());
    }

    #[test]
    fn product_requires_disjoint_names() {
        let a = emp();
        let b = Schema::new(vec![("dept", DomainType::Str)]).unwrap();
        let p = a.product(&b).unwrap();
        assert_eq!(p.arity(), 3);
        assert_eq!(p.index_of("dept"), Some(2));

        let clash = a.product(&emp()).unwrap_err();
        assert_eq!(clash, SnapshotError::ProductAttributeClash("name".into()));
    }

    #[test]
    fn projection_preserves_requested_order() {
        let s = emp();
        let (p, idx) = s.project(&["sal", "name"]).unwrap();
        assert_eq!(idx, vec![1, 0]);
        assert_eq!(&*p.attribute(0).name, "sal");
    }

    #[test]
    fn projection_rejects_duplicates_and_unknowns() {
        let s = emp();
        assert!(matches!(
            s.project(&["sal", "sal"]),
            Err(SnapshotError::DuplicateProjection(_))
        ));
        assert!(matches!(
            s.project(&["wage"]),
            Err(SnapshotError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn rename_behaviour() {
        let s = emp();
        let r = s.rename("sal", "salary").unwrap();
        assert!(r.contains("salary"));
        assert!(!r.contains("sal"));
        assert!(matches!(
            s.rename("sal", "name"),
            Err(SnapshotError::RenameClash(_))
        ));
        // Renaming to itself is a no-op, not a clash.
        assert_eq!(s.rename("sal", "sal").unwrap(), s);
    }

    #[test]
    fn common_attributes_for_join() {
        let a = emp();
        let b = Schema::new(vec![("sal", DomainType::Int), ("grade", DomainType::Int)]).unwrap();
        let common = a.common_attributes(&b);
        assert_eq!(common.len(), 1);
        assert_eq!(&*common[0], "sal");
    }

    #[test]
    fn display_form() {
        assert_eq!(emp().to_string(), "(name: str, sal: int)");
    }
}
