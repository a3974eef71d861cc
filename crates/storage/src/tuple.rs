//! Tuples and tuple identifiers.
//!
//! A row costs one allocation: a pair — the paper's `r(a int4, b text)` —
//! holds its two fields inline, so only the `b` text reaches the heap, and
//! any other arity holds one `Vec` sized to it. `Tuple::paper`, `join` and
//! `clone` build at the final width; `from_values` and `new` keep the `Vec`
//! they are handed rather than trade it for an inline pair.

use crate::datum::Datum;
use crate::schema::Schema;

/// A row: one [`Datum`] per schema column.
pub struct Tuple {
    values: Fields,
}

/// A row's fields: inline for a pair, one `Vec` for any other width.
enum Fields {
    Pair([Datum; 2]),
    Row(Vec<Datum>),
}

impl Tuple {
    /// Build a tuple; arity and types are validated against `schema`.
    ///
    /// # Panics
    /// Panics on arity or type mismatch.
    pub fn new(schema: &Schema, values: Vec<Datum>) -> Self {
        let t = Tuple::from_values(values);
        t.validate(schema);
        t
    }

    /// Check arity and types against `schema` in place, copying nothing.
    ///
    /// # Panics
    /// Panics on arity or type mismatch.
    pub fn validate(&self, schema: &Schema) {
        assert_eq!(self.arity(), schema.arity(), "tuple arity mismatch");
        for (i, v) in self.values().iter().enumerate() {
            let (name, ty) = schema.column(i);
            assert!(ty.admits(v), "value {v} does not fit column {name}");
        }
    }

    /// Build without validation (join outputs whose combined schema is known
    /// correct by construction). The tuple keeps `values` as it is.
    pub fn from_values(values: Vec<Datum>) -> Self {
        Tuple { values: Fields::Row(values) }
    }

    /// A row of the paper's `r(a int4, b text)`: key `a` and a `b` of
    /// `blen` bytes, the length that dials tuples per page.
    pub fn paper(a: i32, blen: usize) -> Self {
        Tuple { values: Fields::Pair([Datum::Int(a), Datum::Text("x".repeat(blen))]) }
    }

    /// The `n` fields `fields` yields, cloned into a tuple at that width.
    fn cloned<'a>(n: usize, mut fields: impl Iterator<Item = &'a Datum>) -> Tuple {
        let mut next = || fields.next().expect("n fields").clone();
        let values = match n {
            2 => Fields::Pair([next(), next()]),
            _ => Fields::Row((0..n).map(|_| next()).collect()),
        };
        Tuple { values }
    }

    /// Field `i`.
    pub fn get(&self, i: usize) -> &Datum {
        &self.values()[i]
    }

    /// All fields.
    pub fn values(&self) -> &[Datum] {
        match &self.values {
            Fields::Pair(pair) => pair,
            Fields::Row(row) => row,
        }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Concatenate two tuples (join output).
    pub fn join(&self, other: &Tuple) -> Tuple {
        let (l, r) = (self.values(), other.values());
        Tuple::cloned(l.len() + r.len(), l.iter().chain(r))
    }

    /// On-page size: per-field payload plus a 4-byte tuple header and a
    /// 2-byte line-pointer share, mirroring a slotted-page layout.
    pub fn stored_size(&self) -> usize {
        4 + 2 + self.values().iter().map(Datum::stored_size).sum::<usize>()
    }
}

impl Clone for Tuple {
    fn clone(&self) -> Self {
        Tuple::cloned(self.arity(), self.values().iter())
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl std::fmt::Debug for Tuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuple").field("values", &self.values()).finish()
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

    /// Every way to build a row — inline pair, schema-checked `Vec`, bare
    /// `Vec`, clone, join — reads the same fields and sizes at every arity.
    #[test]
    fn every_construction_agrees_at_every_arity() {
        use crate::schema::ColumnType;
        let field = |i: usize| if i.is_multiple_of(2) { Datum::Int(i as i32) } else { Datum::Text("x".repeat(i)) };
        for n in [0usize, 1, 2, 4] {
            let values: Vec<Datum> = (0..n).map(field).collect();
            let ty = |i: usize| if i.is_multiple_of(2) { ColumnType::Int4 } else { ColumnType::Text };
            let schema = Schema::new(["a", "b", "c", "d"].into_iter().zip((0..n).map(ty)).collect());
            let bare = Tuple::from_values(values.clone());
            let checked = Tuple::new(&schema, values.clone());
            let joined = Tuple::from_values(vec![]).join(&bare);
            for t in [&checked, &bare.clone(), &joined] {
                assert_eq!(t, &bare, "arity {n}");
                assert_eq!(t.values(), values.as_slice());
                assert_eq!(t.arity(), n);
                assert_eq!(t.stored_size(), bare.stored_size());
            }
        }
        let paper = Tuple::paper(0, 1);
        assert_eq!(paper, Tuple::from_values(vec![field(0), field(1)]));
        assert_eq!(paper.stored_size(), 4 + 2 + 4 + 4 + 1);
        assert_ne!(paper, Tuple::paper(0, 2));
        assert_eq!(format!("{paper:?}"), r#"Tuple { values: [Int(0), Text("x")] }"#);
    }

    #[test]
    fn a_tuple_is_at_most_48_bytes() {
        assert!(std::mem::size_of::<Tuple>() <= 48);
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
