//! Typed columnar buffers and the label dictionary.
//!
//! A [`Column`] is an append-only buffer of one physical type
//! ([`ColumnType`]); dictionary columns pair a `u32` code per row with a
//! per-column [`Interner`] mapping codes to label strings. Codes are
//! assigned in first-appearance order, which is deterministic because
//! ingest order is deterministic and merges happen in a caller-fixed
//! order (see [`TraceStore`](crate::TraceStore)).

use crate::schema::ColumnType;
use crate::store::tier_label;
use scan_sim::FieldValue;

/// A per-column string dictionary: code = first-appearance index.
///
/// Cardinality is tiny (tier names, scaling choices), so lookup is a
/// linear scan — faster than hashing at this size and free of iteration-
/// order nondeterminism.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Interner {
    labels: Vec<String>,
}

impl Interner {
    /// Rebuilds an interner from decoded labels (export reader).
    pub(crate) fn from_labels(labels: Vec<String>) -> Interner {
        Interner { labels }
    }

    /// Returns the code for `label`, interning it on first sight.
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(code) = self.lookup(label) {
            return code;
        }
        self.labels.push(label.to_string());
        (self.labels.len() - 1) as u32
    }

    /// The code for `label`, if already interned.
    pub fn lookup(&self, label: &str) -> Option<u32> {
        self.labels.iter().position(|l| l == label).map(|i| i as u32)
    }

    /// The label behind `code`.
    ///
    /// # Panics
    /// Panics if `code` was never handed out by this interner.
    pub fn label(&self, code: u32) -> &str {
        &self.labels[code as usize]
    }

    /// All labels, in code order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// One typed column buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// `u32` values.
    U32(Vec<u32>),
    /// `u64` values.
    U64(Vec<u64>),
    /// `f64` values (NaN allowed: the unpriced scaling costs).
    F64(Vec<f64>),
    /// Dictionary codes plus the dictionary itself.
    Dict {
        /// One code per row.
        codes: Vec<u32>,
        /// Code → label mapping.
        dict: Interner,
    },
}

impl Column {
    /// An empty column of the given physical type.
    pub fn new(ty: ColumnType) -> Column {
        match ty {
            ColumnType::U32 => Column::U32(Vec::new()),
            ColumnType::U64 => Column::U64(Vec::new()),
            ColumnType::F64 => Column::F64(Vec::new()),
            ColumnType::Dict => Column::Dict { codes: Vec::new(), dict: Interner::default() },
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            Column::U32(v) => v.len(),
            Column::U64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one event field value: a number to the column of its
    /// own type, a `u32` to a dictionary column as its [`tier_label`]
    /// (the one `u32` field stored as a label is a tier), a scaling
    /// choice as its name.
    ///
    /// # Panics
    /// Panics if the value does not fit the column's type.
    #[inline]
    pub fn push(&mut self, value: FieldValue) {
        match (self, value) {
            (Column::U32(v), FieldValue::U32(x)) => v.push(x),
            (Column::U64(v), FieldValue::U64(x)) => v.push(x),
            (Column::F64(v), FieldValue::F64(x)) => v.push(x),
            (Column::Dict { codes, dict }, FieldValue::U32(tier)) => {
                codes.push(dict.intern(tier_label(tier)))
            }
            (Column::Dict { codes, dict }, FieldValue::Choice(choice)) => {
                codes.push(dict.intern(choice.name()))
            }
            // scan-lint: allow(no-panic, panic-path) -- `# Panics` contract: type confusion is a bug.
            _ => panic!("field value does not fit the column type"),
        }
    }

    /// Appends a label row, interning it.
    ///
    /// # Panics
    /// Panics if the column is not [`Column::Dict`].
    pub fn push_label(&mut self, label: &str) {
        match self {
            Column::Dict { codes, dict } => codes.push(dict.intern(label)),
            // scan-lint: allow(no-panic, panic-path) -- `# Panics` contract: type confusion is a bug.
            _ => panic!("push_label on a non-dict column"),
        }
    }

    /// Row `i` as `f64` for aggregation: numeric columns cast, dict
    /// columns yield their code.
    pub fn value_f64(&self, i: usize) -> f64 {
        match self {
            Column::U32(v) => f64::from(v[i]),
            Column::U64(v) => v[i] as f64,
            Column::F64(v) => v[i],
            Column::Dict { codes, .. } => f64::from(codes[i]),
        }
    }

    /// Row `i` as a `u64` group key, if the column is integral or a
    /// dictionary (f64 columns cannot key groups).
    pub fn group_key(&self, i: usize) -> Option<u64> {
        match self {
            Column::U32(v) => Some(u64::from(v[i])),
            Column::U64(v) => Some(v[i]),
            Column::Dict { codes, .. } => Some(u64::from(codes[i])),
            Column::F64(_) => None,
        }
    }

    /// Absorbs `other`'s rows after this column's own (dictionary codes
    /// are remapped through this column's interner).
    ///
    /// # Panics
    /// Panics if the two columns have different physical types.
    pub fn append(&mut self, other: &Column) {
        match (self, other) {
            (Column::U32(a), Column::U32(b)) => a.extend_from_slice(b),
            (Column::U64(a), Column::U64(b)) => a.extend_from_slice(b),
            (Column::F64(a), Column::F64(b)) => a.extend_from_slice(b),
            (
                Column::Dict { codes, dict },
                Column::Dict { codes: other_codes, dict: other_dict },
            ) => {
                // Remap through a small translation table: other code →
                // self code, interning unseen labels in arrival order.
                let remap: Vec<u32> = other_dict.labels().iter().map(|l| dict.intern(l)).collect();
                codes.extend(other_codes.iter().map(|&c| remap[c as usize]));
            }
            // scan-lint: allow(no-panic) -- documented `# Panics` contract: merged stores share one schema.
            _ => panic!("column type mismatch in append"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_sim::ScalingChoice;

    #[test]
    fn interner_assigns_first_appearance_codes() {
        let mut i = Interner::default();
        assert_eq!(i.intern("private"), 0);
        assert_eq!(i.intern("public"), 1);
        assert_eq!(i.intern("private"), 0);
        assert_eq!(i.label(1), "public");
        assert_eq!(i.lookup("spot"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn dict_append_remaps_codes() {
        let mut a = Column::new(ColumnType::Dict);
        a.push_label("x");
        a.push_label("y");
        let mut b = Column::new(ColumnType::Dict);
        b.push_label("y");
        b.push_label("z");
        b.push_label("y");
        a.append(&b);
        match &a {
            Column::Dict { codes, dict } => {
                assert_eq!(codes, &[0, 1, 1, 2, 1]);
                assert_eq!(dict.labels(), ["x", "y", "z"]);
            }
            _ => unreachable!("a was built as a dict column"),
        }
    }

    #[test]
    fn numeric_append_and_values() {
        let mut a = Column::new(ColumnType::F64);
        a.push(FieldValue::F64(1.5));
        let mut b = Column::new(ColumnType::F64);
        b.push(FieldValue::F64(2.5));
        a.append(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.value_f64(1), 2.5);
        assert_eq!(a.group_key(0), None);

        let mut u = Column::new(ColumnType::U32);
        u.push(FieldValue::U32(7));
        assert_eq!(u.group_key(0), Some(7));
        assert_eq!(u.value_f64(0), 7.0);
    }

    #[test]
    fn labels_encode_tiers_and_choices() {
        let mut d = Column::new(ColumnType::Dict);
        d.push(FieldValue::U32(1));
        d.push(FieldValue::Choice(ScalingChoice::Reshape));
        d.push(FieldValue::U32(1));
        match &d {
            Column::Dict { codes, dict } => {
                assert_eq!(codes, &[0, 1, 0]);
                assert_eq!(dict.labels(), ["public", "reshape"]);
            }
            _ => unreachable!("d was built as a dict column"),
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn mistyped_values_are_rejected() {
        Column::new(ColumnType::U32).push(FieldValue::U64(7));
    }
}
