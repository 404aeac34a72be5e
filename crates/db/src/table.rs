//! Row storage with B-tree indexes and per-row text signatures.

use crate::error::DbError;
use crate::schema::Schema;
use crate::value::{DbValue, IndexKey};
use std::collections::{BTreeMap, HashMap};

/// A table's rows and indexes. Lives behind the table's `RwLock` (the
/// table-level lock the paper's admin-response analysis depends on).
#[derive(Debug)]
pub(crate) struct TableData {
    schema: Schema,
    rows: Vec<Option<Vec<DbValue>>>,
    live: usize,
    /// Secondary (non-unique) indexes by column position.
    indexes: HashMap<usize, BTreeMap<IndexKey, Vec<usize>>>,
    /// Unique primary-key index.
    pk_index: Option<BTreeMap<IndexKey, usize>>,
    /// `(column, one signature per row id)` for each TEXT column a
    /// planned scan kernel tests ([`TableData::ensure_signatures`]).
    signatures: Vec<(usize, Vec<u64>)>,
}

/// A cell's bigram signature: one bit per pair of adjacent bytes, ASCII
/// case folded (`| 0x20`), hashed into 64. Non-ASCII text gets all ones,
/// since Unicode case folding can match it in ways byte pairs do not
/// see (the Kelvin sign lowercases to `k`), and so does every non-text
/// value; all ones passes every prefilter.
pub(crate) fn signature(value: &DbValue) -> u64 {
    match value {
        DbValue::Text(s) if s.is_ascii() => bigrams(s.as_bytes()),
        _ => u64::MAX,
    }
}

/// The bigram bits of ASCII `bytes`: equal bytes under `| 0x20` give
/// equal bits, so a case-folded substring's bits are a subset of its
/// text's.
pub(crate) fn bigrams(bytes: &[u8]) -> u64 {
    bytes.windows(2).fold(0, |sig, pair| {
        let pair = u64::from(pair[0] | 0x20) << 8 | u64::from(pair[1] | 0x20);
        sig | 1 << (pair.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58)
    })
}

impl TableData {
    pub(crate) fn new(schema: Schema) -> Self {
        let pk_index = schema.primary_key().map(|_| BTreeMap::new());
        TableData {
            schema,
            rows: Vec::new(),
            live: 0,
            indexes: HashMap::new(),
            pk_index,
            signatures: Vec::new(),
        }
    }

    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Inserts a row, maintaining all indexes.
    ///
    /// # Errors
    ///
    /// Arity mismatches and duplicate primary keys.
    pub(crate) fn insert(&mut self, values: Vec<DbValue>) -> Result<usize, DbError> {
        if values.len() != self.schema.arity() {
            return Err(DbError::invalid(format!(
                "expected {} values, got {}",
                self.schema.arity(),
                values.len()
            )));
        }
        let row_id = self.rows.len();
        if let (Some(pk_col), Some(pk_index)) = (self.schema.primary_key(), &mut self.pk_index) {
            let key = values[pk_col].index_key();
            if pk_index.contains_key(&key) {
                return Err(DbError::DuplicateKey(format!(
                    "{}={}",
                    self.schema.columns()[pk_col].name,
                    values[pk_col]
                )));
            }
            pk_index.insert(key, row_id);
        }
        for (&col, index) in &mut self.indexes {
            index
                .entry(values[col].index_key())
                .or_default()
                .push(row_id);
        }
        for (col, signatures) in &mut self.signatures {
            signatures.push(signature(&values[*col]));
        }
        self.rows.push(Some(values));
        self.live += 1;
        Ok(row_id)
    }

    /// Replaces a live row's values, maintaining indexes, and hands the
    /// replaced values back.
    ///
    /// # Errors
    ///
    /// Duplicate primary keys (when the PK value changes onto an
    /// existing one).
    pub(crate) fn update_row(
        &mut self,
        row_id: usize,
        new_values: Vec<DbValue>,
    ) -> Result<Vec<DbValue>, DbError> {
        debug_assert_eq!(new_values.len(), self.schema.arity());
        let old = match self.rows.get_mut(row_id) {
            Some(Some(v)) => v,
            _ => return Err(DbError::invalid("update of missing row")),
        };
        if let (Some(pk_col), Some(pk_index)) = (self.schema.primary_key(), &mut self.pk_index) {
            let old_key = old[pk_col].index_key();
            let new_key = new_values[pk_col].index_key();
            if old_key != new_key {
                if pk_index.contains_key(&new_key) {
                    return Err(DbError::DuplicateKey(format!(
                        "{}={}",
                        self.schema.columns()[pk_col].name,
                        new_values[pk_col]
                    )));
                }
                pk_index.remove(&old_key);
                pk_index.insert(new_key, row_id);
            }
        }
        for (&col, index) in &mut self.indexes {
            let old_key = old[col].index_key();
            let new_key = new_values[col].index_key();
            if old_key != new_key {
                if let Some(ids) = index.get_mut(&old_key) {
                    ids.retain(|&id| id != row_id);
                    if ids.is_empty() {
                        index.remove(&old_key);
                    }
                }
                index.entry(new_key).or_default().push(row_id);
            }
        }
        for (col, signatures) in &mut self.signatures {
            staged_sync::mutant!("table_signature_stale_on_update" => {
                // broken: the row keeps the signature of its old text, so
                // a prefilter can skip it after it came to match
            } else {
                signatures[row_id] = signature(&new_values[*col]);
            });
        }
        Ok(std::mem::replace(old, new_values))
    }

    /// Deletes a live row, maintaining indexes, and hands its values
    /// back. `None` (and no change) for a dead or missing row.
    pub(crate) fn delete_row(&mut self, row_id: usize) -> Option<Vec<DbValue>> {
        let old = self.rows.get_mut(row_id)?.take()?;
        self.live -= 1;
        if let (Some(pk_col), Some(pk_index)) = (self.schema.primary_key(), &mut self.pk_index) {
            pk_index.remove(&old[pk_col].index_key());
        }
        for (&col, index) in &mut self.indexes {
            let key = old[col].index_key();
            if let Some(ids) = index.get_mut(&key) {
                ids.retain(|&id| id != row_id);
                if ids.is_empty() {
                    index.remove(&key);
                }
            }
        }
        Some(old)
    }

    /// A live row's values.
    pub(crate) fn row(&self, row_id: usize) -> Option<&[DbValue]> {
        self.rows.get(row_id).and_then(Option::as_deref)
    }

    /// Iterates live rows as `(row_id, values)`.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (usize, &[DbValue])> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(id, r)| r.as_deref().map(|v| (id, v)))
    }

    /// Builds a secondary index over `col` (no-op if present).
    pub(crate) fn create_index(&mut self, col: usize) {
        if self.indexes.contains_key(&col) || self.schema.primary_key() == Some(col) {
            return;
        }
        let mut index: BTreeMap<IndexKey, Vec<usize>> = BTreeMap::new();
        for (id, row) in self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(id, r)| r.as_ref().map(|v| (id, v)))
        {
            index.entry(row[col].index_key()).or_default().push(id);
        }
        self.indexes.insert(col, index);
    }

    /// Builds the [`signature`] of `col` for every row id (no-op if
    /// present); insert and update keep it current from then on. A
    /// deleted row keeps its last signature: scans skip dead rows.
    pub(crate) fn ensure_signatures(&mut self, col: usize) {
        if self.signatures.iter().any(|(c, _)| *c == col) {
            return;
        }
        let signatures = self
            .rows
            .iter()
            .map(|r| r.as_ref().map_or(0, |v| signature(&v[col])))
            .collect();
        self.signatures.push((col, signatures));
    }

    /// The signatures of `col`, indexed by row id, if they were built.
    pub(crate) fn signatures(&self, col: usize) -> Option<&[u64]> {
        let (_, signatures) = self.signatures.iter().find(|(c, _)| *c == col)?;
        Some(signatures)
    }

    /// Whether equality lookups on `col` can use an index.
    pub(crate) fn has_index(&self, col: usize) -> bool {
        self.schema.primary_key() == Some(col) || self.indexes.contains_key(&col)
    }

    /// Distinct keys currently in the index on `col` (PK included), or
    /// `None` when the column is unindexed. A planner cardinality input.
    pub(crate) fn distinct_keys(&self, col: usize) -> Option<usize> {
        if self.schema.primary_key() == Some(col) {
            return self.pk_index.as_ref().map(BTreeMap::len);
        }
        self.indexes.get(&col).map(BTreeMap::len)
    }

    /// Row IDs whose key on `col` falls in `[lo, hi]` bound-wise, sorted
    /// ascending — the same order a full scan visits rows, so a range
    /// scan returns rows in the order a filtered full scan would.
    /// Caller must have checked [`TableData::has_index`].
    pub(crate) fn lookup_range(
        &self,
        col: usize,
        lo: std::ops::Bound<&IndexKey>,
        hi: std::ops::Bound<&IndexKey>,
    ) -> Vec<usize> {
        let mut ids: Vec<usize> = if self.schema.primary_key() == Some(col) {
            self.pk_index
                .as_ref()
                .map(|ix| ix.range((lo, hi)).map(|(_, &id)| id).collect())
                .unwrap_or_default()
        } else {
            self.indexes
                .get(&col)
                .map(|ix| {
                    ix.range((lo, hi))
                        .flat_map(|(_, ids)| ids.iter().copied())
                        .collect()
                })
                .unwrap_or_default()
        };
        ids.sort_unstable();
        ids
    }

    /// The row holding the smallest (or, with `max`, largest) non-NULL
    /// key in the index on `col`: the `MIN`/`MAX` endpoint. Among rows
    /// sharing the endpoint key, the lowest row ID wins — the row a full
    /// fold over [`TableData::iter_live`] would have kept first. `None`
    /// when the column is unindexed or every key is NULL.
    pub(crate) fn index_endpoint(&self, col: usize, max: bool) -> Option<usize> {
        if self.schema.primary_key() == Some(col) {
            let ix = self.pk_index.as_ref()?;
            let mut live = ix.iter().filter(|(k, _)| **k != IndexKey::Null);
            let (_, &id) = if max { live.next_back()? } else { live.next()? };
            return Some(id);
        }
        let ix = self.indexes.get(&col)?;
        let mut live = ix.iter().filter(|(k, _)| **k != IndexKey::Null);
        let (_, ids) = if max { live.next_back()? } else { live.next()? };
        ids.iter().copied().min()
    }

    /// Row IDs with `col = value`, via index: the index's own bucket,
    /// borrowed, in insertion order. Caller must have checked
    /// [`TableData::has_index`].
    pub(crate) fn lookup_eq(&self, col: usize, value: &DbValue) -> &[usize] {
        // `NULL = x` and `NaN = x` are never true (`sql_eq`), though
        // NaNs share an index key.
        if value.is_null() || value.as_f64().is_some_and(f64::is_nan) {
            return &[];
        }
        let key = value.index_key();
        let bucket = if self.schema.primary_key() == Some(col) {
            let pk = self.pk_index.as_ref().and_then(|ix| ix.get(&key));
            pk.map(std::slice::from_ref)
        } else {
            let ix = self.indexes.get(&col);
            ix.and_then(|ix| ix.get(&key)).map(Vec::as_slice)
        };
        bucket.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("score", DataType::Int),
            ],
            Some(0),
        )
        .unwrap()
    }

    fn row(id: i64, name: &str, score: i64) -> Vec<DbValue> {
        vec![DbValue::Int(id), DbValue::from(name), DbValue::Int(score)]
    }

    #[test]
    fn insert_and_pk_lookup() {
        let mut t = TableData::new(schema());
        t.insert(row(1, "a", 10)).unwrap();
        t.insert(row(2, "b", 20)).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.has_index(0));
        assert_eq!(t.lookup_eq(0, &DbValue::Int(2)), vec![1]);
        assert_eq!(t.lookup_eq(0, &DbValue::Int(9)), Vec::<usize>::new());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = TableData::new(schema());
        t.insert(row(1, "a", 10)).unwrap();
        assert!(matches!(
            t.insert(row(1, "b", 20)),
            Err(DbError::DuplicateKey(_))
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = TableData::new(schema());
        assert!(t.insert(vec![DbValue::Int(1)]).is_err());
    }

    #[test]
    fn secondary_index_lookup_and_maintenance() {
        let mut t = TableData::new(schema());
        t.insert(row(1, "x", 5)).unwrap();
        t.insert(row(2, "x", 6)).unwrap();
        t.insert(row(3, "y", 7)).unwrap();
        t.create_index(1);
        assert!(t.has_index(1));
        assert_eq!(t.lookup_eq(1, &DbValue::from("x")), vec![0, 1]);

        // Update moves the row between keys.
        t.update_row(0, row(1, "y", 5)).unwrap();
        assert_eq!(t.lookup_eq(1, &DbValue::from("x")), vec![1]);
        assert_eq!(t.lookup_eq(1, &DbValue::from("y")), vec![2, 0]);

        // Delete removes from the index.
        t.delete_row(2);
        assert_eq!(t.lookup_eq(1, &DbValue::from("y")), vec![0]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn update_pk_collision_rejected() {
        let mut t = TableData::new(schema());
        t.insert(row(1, "a", 1)).unwrap();
        t.insert(row(2, "b", 2)).unwrap();
        assert!(t.update_row(0, row(2, "a", 1)).is_err());
        // Non-colliding PK change works and relocates the index entry.
        t.update_row(0, row(5, "a", 1)).unwrap();
        assert_eq!(t.lookup_eq(0, &DbValue::Int(5)), vec![0]);
        assert_eq!(t.lookup_eq(0, &DbValue::Int(1)), Vec::<usize>::new());
    }

    #[test]
    fn iter_live_skips_deleted() {
        let mut t = TableData::new(schema());
        t.insert(row(1, "a", 1)).unwrap();
        t.insert(row(2, "b", 2)).unwrap();
        t.delete_row(0);
        let ids: Vec<usize> = t.iter_live().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1]);
        assert!(t.row(0).is_none());
        assert!(t.row(1).is_some());
    }

    #[test]
    fn null_equality_lookup_is_empty() {
        let mut t = TableData::new(schema());
        t.insert(vec![DbValue::Int(1), DbValue::Null, DbValue::Int(0)])
            .unwrap();
        t.create_index(1);
        assert_eq!(t.lookup_eq(1, &DbValue::Null), Vec::<usize>::new());
    }

    #[test]
    fn create_index_backfills_existing_rows() {
        let mut t = TableData::new(schema());
        for i in 0..10 {
            t.insert(row(i, if i % 2 == 0 { "even" } else { "odd" }, i))
                .unwrap();
        }
        t.create_index(1);
        assert_eq!(t.lookup_eq(1, &DbValue::from("even")).len(), 5);
    }

    #[test]
    fn signatures_follow_inserts_and_updates() {
        let mut t = TableData::new(schema());
        t.insert(row(1, "River", 1)).unwrap();
        assert!(t.signatures(1).is_none(), "built on demand only");
        t.ensure_signatures(1);
        t.ensure_signatures(1);
        t.insert(row(2, "Stra\u{df}e", 2)).unwrap();
        t.insert(vec![DbValue::Int(3), DbValue::Null, DbValue::Int(3)])
            .unwrap();
        let river = bigrams(b"river");
        assert_eq!(t.signatures(1).unwrap(), [river, u64::MAX, u64::MAX]);
        t.update_row(0, row(1, "x", 1)).unwrap();
        assert_eq!(t.signatures(1).unwrap()[0], 0, "one byte: no bigram");
        // `| 0x20` folds case: a literal's bits are a subset of any text
        // holding it, whatever the case of either.
        let lost = bigrams(b"Lost RIVER Crown");
        assert_eq!(lost & river, river);
    }

    #[test]
    fn delete_is_idempotent() {
        let mut t = TableData::new(schema());
        t.insert(row(1, "a", 1)).unwrap();
        t.delete_row(0);
        t.delete_row(0);
        t.delete_row(99);
        assert_eq!(t.len(), 0);
    }
}
