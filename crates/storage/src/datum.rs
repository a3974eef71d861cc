//! Field values. The paper's experiments only need `int4` and `text`, which
//! is exactly what Postgres circa 1992 would have put in `r1(a, b)`.

/// A single field value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Datum {
    /// 32-bit signed integer (`int4`).
    Int(i32),
    /// Variable-length string (`text`).
    Text(String),
    /// SQL NULL — used by the experiments to shrink tuples to the minimum.
    Null,
}

impl Datum {
    /// On-page size in bytes: `int4` is 4, `text` is a 4-byte length header
    /// plus the bytes, NULL occupies only its null-bitmap bit (modelled as 0
    /// payload bytes).
    pub fn stored_size(&self) -> usize {
        match self {
            Datum::Int(_) => 4,
            Datum::Text(s) => 4 + s.len(),
            Datum::Null => 0,
        }
    }

    /// The contained integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i32> {
        match self {
            Datum::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained string, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl std::fmt::Display for Datum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Text(s) => write!(f, "'{s}'"),
            Datum::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_sizes() {
        assert_eq!(Datum::Int(7).stored_size(), 4);
        assert_eq!(Datum::Text("abc".into()).stored_size(), 7);
        assert_eq!(Datum::Null.stored_size(), 0);
    }

    #[test]
    fn accessors() {
        assert_eq!(Datum::Int(5).as_int(), Some(5));
        assert_eq!(Datum::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Datum::Null.as_int(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Datum::Int(-3).to_string(), "-3");
        assert_eq!(Datum::Text("hi".into()).to_string(), "'hi'");
        assert_eq!(Datum::Null.to_string(), "NULL");
    }
}
