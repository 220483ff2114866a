//! Sort identifiers.

use std::fmt;
use std::sync::Arc;

/// The name of a sort (type) in the many-sorted signature.
///
/// Cheap to clone and compared by name. The built-in sorts are interned:
/// their constructors hand out a `&'static str`, so
/// [`Value::sort`](crate::algebra::Value::sort) on a built-in value never
/// allocates. User extensions make their own with [`SortId::new`] and
/// share the string.
#[derive(Debug, Clone)]
pub struct SortId(Name);

#[derive(Debug, Clone)]
enum Name {
    Builtin(&'static str),
    Custom(Arc<str>),
}

impl SortId {
    /// A sort with the given name.
    pub fn new(name: &str) -> Self {
        SortId(Name::Custom(Arc::from(name)))
    }

    /// The sort's name.
    pub fn name(&self) -> &str {
        match &self.0 {
            Name::Builtin(s) => s,
            Name::Custom(s) => s,
        }
    }

    // Built-in base sorts.
    pub fn bool() -> Self {
        SortId(Name::Builtin("bool"))
    }
    pub fn int() -> Self {
        SortId(Name::Builtin("int"))
    }
    pub fn float() -> Self {
        SortId(Name::Builtin("float"))
    }
    pub fn string() -> Self {
        SortId(Name::Builtin("string"))
    }

    // Genomic sorts.
    pub fn dna() -> Self {
        SortId(Name::Builtin("dna"))
    }
    pub fn rna() -> Self {
        SortId(Name::Builtin("rna"))
    }
    pub fn protein_seq() -> Self {
        SortId(Name::Builtin("protein_seq"))
    }
    pub fn gene() -> Self {
        SortId(Name::Builtin("gene"))
    }
    pub fn primary_transcript() -> Self {
        SortId(Name::Builtin("primary_transcript"))
    }
    pub fn mrna() -> Self {
        SortId(Name::Builtin("mrna"))
    }
    pub fn protein() -> Self {
        SortId(Name::Builtin("protein"))
    }
    pub fn chromosome() -> Self {
        SortId(Name::Builtin("chromosome"))
    }
    pub fn genome() -> Self {
        SortId(Name::Builtin("genome"))
    }

    // Structural sorts.
    pub fn list() -> Self {
        SortId(Name::Builtin("list"))
    }
    pub fn uncertain() -> Self {
        SortId(Name::Builtin("uncertain"))
    }
}

// Identity is the name, whichever way it is held.
impl PartialEq for SortId {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl Eq for SortId {}

impl std::hash::Hash for SortId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name().hash(state);
    }
}

impl PartialOrd for SortId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name().cmp(other.name())
    }
}

impl fmt::Display for SortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_by_name() {
        assert_eq!(SortId::new("gene"), SortId::gene());
        assert_ne!(SortId::dna(), SortId::rna());
        assert_eq!(SortId::gene().to_string(), "gene");
    }

    #[test]
    fn usable_as_map_key() {
        let mut m = std::collections::HashMap::new();
        m.insert(SortId::dna(), 1);
        assert_eq!(m.get(&SortId::new("dna")), Some(&1));
    }
}
