//! Database values.

use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
///
/// `NULL` compares as the smallest value for ordering purposes (so
/// `ORDER BY` is total) but is never *equal* to anything in filter
/// comparisons, matching SQL three-valued logic closely enough for the
/// workload this crate serves.
///
/// # Examples
///
/// ```
/// use staged_db::DbValue;
///
/// let v = DbValue::from("hello");
/// assert_eq!(v.as_str(), Some("hello"));
/// assert!(DbValue::Int(2).sql_eq(&DbValue::Float(2.0)));
/// assert!(!DbValue::Null.sql_eq(&DbValue::Null));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub enum DbValue {
    /// SQL `NULL`.
    #[default]
    Null,
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A string.
    Text(String),
}

impl DbValue {
    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            DbValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view of `Int` and `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            DbValue::Int(i) => Some(*i as f64),
            DbValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string inside, if this is `Text`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            DbValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, DbValue::Null)
    }

    /// SQL equality: `NULL` equals nothing (including `NULL`); numeric
    /// types compare by value.
    pub fn sql_eq(&self, other: &DbValue) -> bool {
        match (self, other) {
            (DbValue::Null, _) | (_, DbValue::Null) => false,
            (DbValue::Text(a), DbValue::Text(b)) => a == b,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }

    /// SQL ordering comparison; `None` when either side is `NULL` or the
    /// types are incomparable (filters then reject the row).
    pub fn sql_cmp(&self, other: &DbValue) -> Option<Ordering> {
        match (self, other) {
            (DbValue::Null, _) | (_, DbValue::Null) => None,
            (DbValue::Text(a), DbValue::Text(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }

    /// Total ordering for `ORDER BY` and index keys: `NULL` first, then
    /// numerics (by value, every NaN after every number and equal to
    /// every other NaN), then text.
    pub fn total_cmp(&self, other: &DbValue) -> Ordering {
        fn rank(v: &DbValue) -> u8 {
            match v {
                DbValue::Null => 0,
                DbValue::Int(_) | DbValue::Float(_) => 1,
                DbValue::Text(_) => 2,
            }
        }
        match (self, other) {
            (DbValue::Null, DbValue::Null) => Ordering::Equal,
            (DbValue::Text(a), DbValue::Text(b)) => a.cmp(b),
            (a, b) if rank(a) == 1 && rank(b) == 1 => {
                let x = a.as_f64().expect("numeric");
                let y = b.as_f64().expect("numeric");
                // `None` only when a side is NaN.
                x.partial_cmp(&y)
                    .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// An index key that groups equal numerics together and is `Ord`.
    /// Keys are equal exactly when [`DbValue::sql_eq`] holds, or both
    /// sides are `NULL` or NaN (which index probes therefore never look
    /// up), so `-0.0` folds onto `0.0`: an index probe, a scan, a join
    /// and GROUP BY agree on which values are equal. Keys order like
    /// [`DbValue::total_cmp`]: every NaN, of either sign, is one key
    /// above `+∞`.
    pub(crate) fn index_key(&self) -> IndexKey {
        match self {
            DbValue::Null => IndexKey::Null,
            DbValue::Int(i) => IndexKey::Num((*i as f64).to_bits() ^ sign_flip(*i as f64)),
            DbValue::Float(f) if f.is_nan() => IndexKey::Num(u64::MAX),
            DbValue::Float(f) => {
                let f = f + 0.0;
                IndexKey::Num(f.to_bits() ^ sign_flip(f))
            }
            DbValue::Text(s) => IndexKey::Text(s.clone()),
        }
    }
}

/// Maps float bits to an order-preserving unsigned key.
fn sign_flip(f: f64) -> u64 {
    if f.is_sign_negative() {
        u64::MAX
    } else {
        1u64 << 63
    }
}

/// Orderable key form of a [`DbValue`] for B-tree indexes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum IndexKey {
    Null,
    Num(u64),
    Text(String),
}

impl fmt::Display for DbValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbValue::Null => write!(f, "NULL"),
            DbValue::Int(i) => write!(f, "{i}"),
            DbValue::Float(x) => write!(f, "{x}"),
            DbValue::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for DbValue {
    fn from(i: i64) -> Self {
        DbValue::Int(i)
    }
}

impl From<i32> for DbValue {
    fn from(i: i32) -> Self {
        DbValue::Int(i64::from(i))
    }
}

impl From<u64> for DbValue {
    fn from(i: u64) -> Self {
        DbValue::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}

impl From<usize> for DbValue {
    fn from(i: usize) -> Self {
        DbValue::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}

impl From<f64> for DbValue {
    fn from(f: f64) -> Self {
        DbValue::Float(f)
    }
}

impl From<&str> for DbValue {
    fn from(s: &str) -> Self {
        DbValue::Text(s.to_string())
    }
}

impl From<String> for DbValue {
    fn from(s: String) -> Self {
        DbValue::Text(s)
    }
}

impl<T: Into<DbValue>> From<Option<T>> for DbValue {
    fn from(o: Option<T>) -> Self {
        match o {
            Some(v) => v.into(),
            None => DbValue::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(DbValue::Int(3).as_int(), Some(3));
        assert_eq!(DbValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(DbValue::from("x").as_str(), Some("x"));
        assert!(DbValue::Null.is_null());
        assert_eq!(DbValue::from("x").as_int(), None);
    }

    #[test]
    fn sql_equality_semantics() {
        assert!(DbValue::Int(1).sql_eq(&DbValue::Int(1)));
        assert!(DbValue::Int(1).sql_eq(&DbValue::Float(1.0)));
        assert!(!DbValue::Null.sql_eq(&DbValue::Null));
        assert!(!DbValue::Int(1).sql_eq(&DbValue::from("1")));
        assert!(DbValue::from("a").sql_eq(&DbValue::from("a")));
    }

    #[test]
    fn sql_cmp_semantics() {
        assert_eq!(
            DbValue::Int(1).sql_cmp(&DbValue::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            DbValue::from("b").sql_cmp(&DbValue::from("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(DbValue::Null.sql_cmp(&DbValue::Int(1)), None);
        assert_eq!(DbValue::Int(1).sql_cmp(&DbValue::from("a")), None);
    }

    #[test]
    fn total_cmp_is_total() {
        let values = [
            DbValue::Null,
            DbValue::Int(-5),
            DbValue::Int(3),
            DbValue::Float(3.5),
            DbValue::from("a"),
            DbValue::from("b"),
        ];
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(sorted, values.to_vec());
        // Int and equal Float compare equal.
        assert_eq!(
            DbValue::Int(3).total_cmp(&DbValue::Float(3.0)),
            Ordering::Equal
        );
        // The zeros are one value; every NaN sorts after every number
        // and equals every other NaN, whatever its sign.
        let (nan, neg_nan) = (DbValue::Float(f64::NAN), DbValue::Float(-f64::NAN));
        assert!(neg_nan.as_f64().unwrap().is_sign_negative());
        let numbers = [
            DbValue::Float(f64::NEG_INFINITY),
            DbValue::Float(-1.5),
            DbValue::Float(-0.0),
            DbValue::Int(0),
            DbValue::Float(f64::INFINITY),
        ];
        for n in &numbers {
            for x in [&nan, &neg_nan] {
                assert_eq!(n.total_cmp(x), Ordering::Less, "{n:?} vs {x:?}");
                assert_eq!(x.total_cmp(n), Ordering::Greater, "{x:?} vs {n:?}");
            }
        }
        assert_eq!(nan.total_cmp(&neg_nan), Ordering::Equal);
        assert_eq!(
            DbValue::Float(-0.0).total_cmp(&DbValue::Float(0.0)),
            Ordering::Equal
        );
        assert_eq!(DbValue::Null.total_cmp(&nan), Ordering::Less);
        assert_eq!(nan.total_cmp(&DbValue::from("")), Ordering::Less);
        // A sort over them is a sort: numbers in order, NaNs last.
        let mut mixed = [
            nan.clone(),
            DbValue::Int(1),
            neg_nan.clone(),
            DbValue::Float(-0.0),
            DbValue::Float(-1.5),
            DbValue::Float(0.0),
        ];
        mixed.sort_by(|a, b| a.total_cmp(b));
        let shown: Vec<String> = mixed.iter().map(|v| format!("{v:?}")).collect();
        assert_eq!(
            shown[..4],
            ["Float(-1.5)", "Float(-0.0)", "Float(0.0)", "Int(1)"]
        );
        assert!(mixed[4..].iter().all(|v| v.as_f64().unwrap().is_nan()));
    }

    #[test]
    fn index_keys_order_like_values() {
        let a = DbValue::Int(-10).index_key();
        let b = DbValue::Int(0).index_key();
        let c = DbValue::Float(0.5).index_key();
        let d = DbValue::Int(7).index_key();
        assert!(a < b && b < c && c < d);
        assert_eq!(DbValue::Int(2).index_key(), DbValue::Float(2.0).index_key());
        assert!(DbValue::Null.index_key() < a);
        assert!(d < DbValue::from("").index_key());
        // SQL equality equates the zeros, so their keys are one key.
        assert!(DbValue::Float(-0.0).sql_eq(&DbValue::Int(0)));
        assert_eq!(DbValue::Float(-0.0).index_key(), b);
        assert!(DbValue::Float(-0.5).index_key() < b);
        // Every NaN is one key, above +∞ and below text, as in `total_cmp`.
        let nan = DbValue::Float(f64::NAN).index_key();
        assert_eq!(DbValue::Float(-f64::NAN).index_key(), nan);
        assert!(DbValue::Float(f64::INFINITY).index_key() < nan);
        assert!(nan < DbValue::from("").index_key());
    }

    #[test]
    fn display_forms() {
        assert_eq!(DbValue::Null.to_string(), "NULL");
        assert_eq!(DbValue::Int(4).to_string(), "4");
        assert_eq!(DbValue::from("hi").to_string(), "hi");
    }
}
