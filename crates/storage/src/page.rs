//! Slotted 8 KB heap pages.
//!
//! XPRS uses an 8 KB disk page. A page stores tuples in slots; the free-space
//! accounting models a slotted layout (fixed header, line-pointer array
//! growing from the front, tuple payloads from the back) without serializing
//! to raw bytes — the *capacity* behaviour is what the experiments depend on
//! (one `r_max` tuple per page, hundreds of `r_min` tuples per page).
//!
//! A page the heap opens reserves its slot array once, for as many rows as
//! fit of the size of the row that opens it, so a relation of equal-sized
//! rows fills each page without the slot array ever growing.

use crate::tuple::Tuple;

/// Page size in bytes, as in XPRS.
pub const PAGE_SIZE: usize = 8192;

/// Fixed page-header bytes (LSN, flags, free-space pointers).
pub const PAGE_HEADER: usize = 24;

/// One slotted heap page.
#[derive(Debug, Clone, Default)]
pub struct Page {
    tuples: Vec<Tuple>,
    used: usize,
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Self {
        Page { tuples: Vec::new(), used: PAGE_HEADER }
    }

    /// A fresh page whose slot array holds as many rows of `size` bytes as
    /// the page does.
    pub(crate) fn for_rows_of(size: usize) -> Self {
        Page { tuples: Vec::with_capacity((PAGE_SIZE - PAGE_HEADER) / size.max(1)), used: PAGE_HEADER }
    }

    /// Bytes available for further tuples.
    pub fn free_space(&self) -> usize {
        PAGE_SIZE - self.used
    }

    /// Would `t` fit?
    pub fn fits(&self, t: &Tuple) -> bool {
        t.stored_size() <= self.free_space()
    }

    /// Insert a tuple, returning its slot, or `None` if it does not fit.
    /// A tuple larger than an entire empty page is rejected with a panic —
    /// this storage layer has no TOAST/overflow mechanism, and silently
    /// dropping it would corrupt scans.
    pub fn insert(&mut self, t: Tuple) -> Option<u16> {
        let size = t.stored_size();
        self.insert_sized(t, size)
    }

    /// [`Page::insert`] for a caller that has sized `t` already.
    pub(crate) fn insert_sized(&mut self, t: Tuple, size: usize) -> Option<u16> {
        assert!(size <= PAGE_SIZE - PAGE_HEADER, "tuple of {size} bytes exceeds page capacity");
        if size > self.free_space() {
            return None;
        }
        self.used += size;
        self.tuples.push(t);
        Some((self.tuples.len() - 1) as u16)
    }

    /// The tuple in `slot`, if any.
    pub fn get(&self, slot: u16) -> Option<&Tuple> {
        self.tuples.get(slot as usize)
    }

    /// Number of tuples stored.
    pub fn n_tuples(&self) -> usize {
        self.tuples.len()
    }

    /// Iterate over `(slot, tuple)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &Tuple)> {
        self.tuples.iter().enumerate().map(|(i, t)| (i as u16, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;

    fn tuple_of_size(total: usize) -> Tuple {
        // stored_size = 4 + 2 + 4 (int) + 4 + len  ⇒ len = total − 14.
        assert!(total >= 14);
        Tuple::from_values(vec![Datum::Int(0), Datum::Text("x".repeat(total - 14))])
    }

    #[test]
    fn empty_page_has_header_overhead_only() {
        let p = Page::new();
        assert_eq!(p.free_space(), PAGE_SIZE - PAGE_HEADER);
        assert_eq!(p.n_tuples(), 0);
    }

    #[test]
    fn insert_until_full() {
        let mut p = Page::new();
        let t = tuple_of_size(100);
        let mut n = 0;
        while p.insert(t.clone()).is_some() {
            n += 1;
        }
        // (8192 − 24) / 100 = 81 tuples of 100 bytes.
        assert_eq!(n, 81);
        assert_eq!(p.n_tuples(), 81);
        assert!(p.free_space() < 100);
    }

    #[test]
    fn one_giant_tuple_fills_the_page() {
        // The r_max construction: one tuple per 8K page.
        let mut p = Page::new();
        let t = tuple_of_size(PAGE_SIZE - PAGE_HEADER);
        assert_eq!(p.insert(t), Some(0));
        assert_eq!(p.free_space(), 0);
        assert!(p.insert(tuple_of_size(14)).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn oversized_tuple_panics() {
        Page::new().insert(tuple_of_size(PAGE_SIZE));
    }

    #[test]
    fn slots_are_stable_and_iterable() {
        let mut p = Page::new();
        for i in 0..5 {
            let t = Tuple::from_values(vec![Datum::Int(i), Datum::Null]);
            assert_eq!(p.insert(t), Some(i as u16));
        }
        let collected: Vec<i32> = p.iter().map(|(_, t)| t.get(0).as_int().unwrap()).collect();
        assert_eq!(collected, vec![0, 1, 2, 3, 4]);
        assert_eq!(p.get(3).unwrap().get(0), &Datum::Int(3));
        assert!(p.get(9).is_none());
    }
}
