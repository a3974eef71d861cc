//! Tuples and tuple identifiers.

use crate::datum::Datum;
use crate::schema::Schema;

/// A row: one [`Datum`] per schema column.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    values: Vec<Datum>,
}

impl Tuple {
    /// Build a tuple; arity and types are validated against `schema`.
    ///
    /// # Panics
    /// Panics on arity or type mismatch.
    pub fn new(schema: &Schema, values: Vec<Datum>) -> Self {
        let t = Tuple { values };
        t.validate(schema);
        t
    }

    /// Check arity and types against `schema` in place, copying nothing.
    ///
    /// # Panics
    /// Panics on arity or type mismatch.
    pub fn validate(&self, schema: &Schema) {
        assert_eq!(self.values.len(), schema.arity(), "tuple arity mismatch");
        for (i, v) in self.values.iter().enumerate() {
            let (name, ty) = schema.column(i);
            assert!(ty.admits(v), "value {v} does not fit column {name}");
        }
    }

    /// Build without validation (join outputs whose combined schema is known
    /// correct by construction).
    pub fn from_values(values: Vec<Datum>) -> Self {
        Tuple { values }
    }

    /// A row of the paper's `r(a int4, b text)`: key `a` and a `b` of
    /// `blen` bytes, the length that dials tuples per page.
    pub fn paper(a: i32, blen: usize) -> Self {
        Tuple { values: vec![Datum::Int(a), Datum::Text("x".repeat(blen))] }
    }

    /// Field `i`.
    pub fn get(&self, i: usize) -> &Datum {
        &self.values[i]
    }

    /// All fields.
    pub fn values(&self) -> &[Datum] {
        &self.values
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Concatenate two tuples (join output).
    pub fn join(&self, other: &Tuple) -> Tuple {
        let mut values = self.values.clone();
        values.extend(other.values.iter().cloned());
        Tuple { values }
    }

    /// On-page size: per-field payload plus a 4-byte tuple header and a
    /// 2-byte line-pointer share, mirroring a slotted-page layout.
    pub fn stored_size(&self) -> usize {
        4 + 2 + self.values.iter().map(Datum::stored_size).sum::<usize>()
    }
}

/// Physical address of a tuple: `(global block, slot)` — what an unclustered
/// index stores and what Postgres calls a TID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// Global (striped) block number within the relation.
    pub block: u64,
    /// Slot within the page.
    pub slot: u16,
}

impl std::fmt::Display for TupleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.block, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    

    #[test]
    fn construction_validates_against_schema() {
        let s = Schema::paper_rel();
        let t = Tuple::new(&s, vec![Datum::Int(1), Datum::Text("x".into())]);
        assert_eq!(t.get(0), &Datum::Int(1));
        assert_eq!(t.arity(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_rejected() {
        Tuple::new(&Schema::paper_rel(), vec![Datum::Int(1)]);
    }

    #[test]
    #[should_panic(expected = "does not fit column")]
    fn wrong_type_rejected() {
        Tuple::new(&Schema::paper_rel(), vec![Datum::Text("x".into()), Datum::Null]);
    }

    #[test]
    fn stored_size_includes_overheads() {
        let s = Schema::paper_rel();
        // 4 (header) + 2 (line pointer) + 4 (int) + 4+3 (text).
        let t = Tuple::new(&s, vec![Datum::Int(1), Datum::Text("abc".into())]);
        assert_eq!(t.stored_size(), 17);
        // NULL b shrinks the tuple to the minimum — the r_min construction.
        let t = Tuple::new(&s, vec![Datum::Int(1), Datum::Null]);
        assert_eq!(t.stored_size(), 10);
    }

    #[test]
    fn join_concatenates_values() {
        let a = Tuple::from_values(vec![Datum::Int(1)]);
        let b = Tuple::from_values(vec![Datum::Int(2), Datum::Null]);
        let j = a.join(&b);
        assert_eq!(j.arity(), 3);
        assert_eq!(j.get(1), &Datum::Int(2));
    }

    #[test]
    fn tuple_id_orders_by_block_then_slot() {
        let a = TupleId { block: 1, slot: 5 };
        let b = TupleId { block: 2, slot: 0 };
        let c = TupleId { block: 1, slot: 6 };
        assert!(a < b && a < c && c < b);
        assert_eq!(a.to_string(), "(1,5)");
    }
}
