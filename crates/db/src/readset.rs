//! Read-set and write-set tracking for the dependency-tracked
//! dynamic-page cache (DESIGN.md §14).
//!
//! Every SELECT can report *what it depended on*, per table, as the
//! union of three kinds of dependency: exact primary keys (point probes
//! and primary-key join probes), row filters (the conjuncts a row of the
//! table had to pass to contribute, plus — for a joined table — the
//! join-key values that reached the join), and the whole table (every
//! shape the executor cannot describe). Every committed mutation can
//! report *what it changed*: the table, the primary keys of the affected
//! rows (or "unknown" when no primary key exists to name them), and the
//! rows' before/after images. A cache that tags entries with
//! [`ReadSet`]s and subscribes to [`WriteEvent`]s can then evict exactly
//! the entries a write could have changed — correctness by dependency
//! tracking, with TTLs demoted to a backstop.
//!
//! Why a row filter is sound: a row that fails its table's local
//! conjuncts, or whose join column matches none of the outer rows that
//! reached the join, contributed nothing before the write and contributes
//! nothing after it, so a write whose every image is such a row leaves
//! the result unchanged. Writes to the *other* tables of a join are
//! caught by those tables' own dependencies — by induction along the
//! join chain, the outer rows that reach each join are unchanged too.
//!
//! Why a top-k [`Window`] is sound: when an `ORDER BY … LIMIT` read
//! stopped before its input ran out, every row sorting strictly after
//! the last row of the LIMIT/OFFSET window was outside the result. A
//! write whose every image sorts after that boundary adds or removes
//! only rows that sort after it, so the rows up to the boundary — the
//! window and everything an OFFSET skipped — keep their order, and the
//! result is unchanged.

use crate::exec::BoundExpr;
use crate::value::{DbValue, IndexKey};
use std::cmp::Ordering;
use std::sync::Arc;

/// An opaque row identity within one table: the primary-key value in
/// order-preserving index form. Two `RowKey`s are equal exactly when
/// they name the same row of the same table.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowKey(pub(crate) IndexKey);

impl RowKey {
    pub(crate) fn of(value: &DbValue) -> RowKey {
        RowKey(value.index_key())
    }
}

/// The ORDER BY keys of a statement whose keys all read one table,
/// addressed to a lone row of it (slot 0), each with its `DESC` flag.
/// Planned once per statement and shared by every [`Window`] it records.
pub(crate) type WindowKeys = Arc<[(BoundExpr, bool)]>;

/// A top-k boundary: the sort keys of the last row inside an `ORDER BY
/// … LIMIT` window that ended before its input did. A row whose keys
/// sort strictly after it was in the result neither before nor after a
/// write that only touched such rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Window {
    keys: WindowKeys,
    /// One value per key: the boundary row's.
    boundary: Vec<DbValue>,
}

impl Window {
    pub(crate) fn new(keys: WindowKeys, boundary: Vec<DbValue>) -> Self {
        Window { keys, boundary }
    }

    /// Whether `row` sorts at or before the boundary, in the executor's
    /// own order (`total_cmp`, reversed for `DESC`). A key equal to the
    /// boundary may tie into the window by arrival, and a key that
    /// fails to evaluate cannot be placed, so both are admitted.
    fn admits(&self, row: &[DbValue], params: &[DbValue]) -> bool {
        for ((key, desc), bound) in self.keys.iter().zip(&self.boundary) {
            let Ok(value) = key.eval(&[row], params) else {
                return true;
            };
            let ord = value.total_cmp(bound);
            match if *desc { ord.reverse() } else { ord } {
                Ordering::Less => return true,
                Ordering::Greater => return false,
                Ordering::Equal => {}
            }
        }
        staged_sync::mutant!("readset_window_exclusive_boundary" => {
            // broken: a row tied with the boundary counts as outside the
            // window — but ties are ordered by arrival, so it may be in it
            false
        } else {
            true
        })
    }
}

/// The rows of one table a statement could have read: those passing
/// every conjunct and, for a joined table, whose join column holds one
/// of the join keys that reached the join — and, under a top-k read,
/// sorting no later than its boundary. Built by the plan executor;
/// recording one costs two `Arc` bumps (the plan's conjuncts and the
/// statement's parameters, copied once per execution), plus the
/// boundary values when it carries a window.
#[derive(Debug, Clone, PartialEq)]
pub struct RowFilter {
    /// Conjuncts addressing a lone row of the table (slot 0), in the
    /// order the executor evaluates them.
    conjuncts: Arc<[BoundExpr]>,
    params: Arc<[DbValue]>,
    /// `(join column, sorted join keys)`; `None` when the table was not
    /// reached through a join key set (the base table, or a set that
    /// outgrew its cap).
    join: Option<(usize, Vec<RowKey>)>,
    /// The top-k boundary, when the statement's ORDER BY read only this
    /// table and its LIMIT/OFFSET window ended before its input did.
    window: Option<Window>,
}

impl RowFilter {
    pub(crate) fn new(
        conjuncts: Arc<[BoundExpr]>,
        params: Arc<[DbValue]>,
        join: Option<(usize, Vec<RowKey>)>,
        window: Option<Window>,
    ) -> Self {
        RowFilter {
            conjuncts,
            params,
            join,
            window,
        }
    }

    /// Whether `row` could contribute to the read. Evaluates exactly what
    /// the executor evaluates, in its order, so a row it would have
    /// skipped is rejected and a row it would have failed on (an
    /// evaluation error) is admitted.
    fn admits(&self, row: &[DbValue]) -> bool {
        if let Some((col, keys)) = &self.join {
            // A NULL joins nothing; admitting it only costs precision.
            let v = &row[*col];
            if !v.is_null() && keys.binary_search(&RowKey::of(v)).is_err() {
                return false;
            }
        }
        for conjunct in self.conjuncts.iter() {
            match conjunct.holds(&[row], &self.params) {
                Ok(true) => {}
                Ok(false) => return false,
                Err(_) => return true,
            }
        }
        self.window
            .as_ref()
            .is_none_or(|w| w.admits(row, &self.params))
    }
}

/// One table's contribution to a statement's read set.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRead {
    /// The *real* table name (aliases resolved away).
    pub table: String,
    /// `None` depends on the whole table (and `filters` is empty);
    /// `Some(keys)` depends on exactly those primary keys — including
    /// keys that did not exist at read time, so a later insert of that
    /// key still invalidates a cached "not found" — plus every row one
    /// of `filters` admits.
    pub keys: Option<Vec<RowKey>>,
    /// Row filters, combined with OR.
    pub filters: Vec<RowFilter>,
}

impl TableRead {
    /// Whether a write event could have changed what this read saw.
    fn overlaps(&self, event: &WriteEvent) -> bool {
        if self.table != event.table {
            return false;
        }
        let Some(keys) = &self.keys else {
            return true;
        };
        let by_key = !keys.is_empty()
            && match &event.keys {
                // A write whose row identities are unknown: assume overlap.
                None => true,
                Some(written) => written.iter().any(|k| keys.contains(k)),
            };
        by_key || (!self.filters.is_empty() && event.admitted_by(&self.filters))
    }
}

/// Which tables (and which rows of them) a request's statements read.
///
/// Collected per statement by
/// [`Database::execute_tracked`](crate::Database::execute_tracked) and
/// merged across a request by
/// [`PooledConnection`](crate::PooledConnection)'s tracking mode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadSet {
    reads: Vec<TableRead>,
}

impl ReadSet {
    /// An empty read set.
    pub fn new() -> Self {
        ReadSet::default()
    }

    /// Records a whole-table dependency. Upgrades any existing entry for
    /// the table: whole-table subsumes every key and filter.
    pub fn record_table(&mut self, table: &str) {
        match self.reads.iter_mut().find(|r| r.table == table) {
            Some(r) => {
                r.keys = None;
                r.filters.clear();
            }
            None => self.reads.push(TableRead {
                table: table.to_string(),
                keys: None,
                filters: Vec::new(),
            }),
        }
    }

    /// The table's entry, created depending on nothing yet; `None` when
    /// the table is already depended on wholesale.
    fn refinable(&mut self, table: &str) -> Option<&mut TableRead> {
        let at = match self.reads.iter().position(|r| r.table == table) {
            Some(at) => at,
            None => {
                self.reads.push(TableRead {
                    table: table.to_string(),
                    keys: Some(Vec::new()),
                    filters: Vec::new(),
                });
                self.reads.len() - 1
            }
        };
        let read = &mut self.reads[at];
        read.keys.is_some().then_some(read)
    }

    /// Records an exact primary-key dependency. A no-op refinement when
    /// the table is already depended on wholesale.
    pub(crate) fn record_key(&mut self, table: &str, key: RowKey) {
        if let Some(keys) = self.refinable(table).and_then(|r| r.keys.as_mut()) {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }

    /// Records a row-filter dependency. A no-op refinement when the
    /// table is already depended on wholesale.
    pub(crate) fn record_filter(&mut self, table: &str, filter: RowFilter) {
        if let Some(read) = self.refinable(table) {
            if !read.filters.contains(&filter) {
                read.filters.push(filter);
            }
        }
    }

    /// Merges another read set in (set union per table). A table this
    /// set has not read yet moves over whole, without copying.
    pub fn merge(&mut self, other: ReadSet) {
        for read in other.reads {
            if !self.reads.iter().any(|r| r.table == read.table) {
                self.reads.push(read);
                continue;
            }
            match read.keys {
                None => self.record_table(&read.table),
                Some(keys) => {
                    for key in keys {
                        self.record_key(&read.table, key);
                    }
                    for filter in read.filters {
                        self.record_filter(&read.table, filter);
                    }
                }
            }
        }
    }

    /// Whether nothing was recorded (e.g. a request that never queried).
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// The per-table dependencies.
    pub fn reads(&self) -> &[TableRead] {
        &self.reads
    }

    /// Whether `event` could have changed anything this set read — the
    /// cache-invalidation predicate.
    pub fn depends_on(&self, event: &WriteEvent) -> bool {
        self.reads.iter().any(|r| r.overlaps(event))
    }

    /// This set with every top-k window dropped: what it would depend
    /// on if no read had recorded a boundary. For tests that tell the
    /// writes a window spared from those the rest of a filter spared.
    #[doc(hidden)]
    pub fn without_windows(&self) -> ReadSet {
        let mut set = self.clone();
        for filter in set.reads.iter_mut().flat_map(|r| &mut r.filters) {
            filter.window = None;
        }
        set
    }
}

/// One affected row of a write, as the write saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct RowImage {
    /// The row before the write; `None` for an INSERT.
    pub before: Option<Vec<DbValue>>,
    /// The row after the write; `None` for a DELETE.
    pub after: Option<Vec<DbValue>>,
}

/// A committed mutation, reported to the write observer *after* the
/// WAL commit (when durability is attached) and *before* the writer's
/// `execute` returns — so subscribers evict stale cache entries before
/// the writer can observe its own write as complete.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteEvent {
    /// The mutated table.
    pub table: String,
    /// Primary keys of the affected rows; `None` when the table has no
    /// primary key to name them (subscribers must assume any row).
    pub keys: Option<Vec<RowKey>>,
    /// Rows inserted/updated/deleted (always > 0 when the event fires).
    pub rows_affected: usize,
    /// One image per affected row. Row filters treat a list shorter
    /// than `rows_affected` as touching every row.
    pub images: Vec<RowImage>,
}

impl WriteEvent {
    /// Whether some image of the write passes one of `filters`.
    fn admitted_by(&self, filters: &[RowFilter]) -> bool {
        if self.images.len() < self.rows_affected {
            return true;
        }
        self.images.iter().any(|image| {
            let after = staged_sync::mutant!("readset_skip_after_image" => {
                // broken: judge a write by the rows it replaced only — an
                // INSERT, or an UPDATE moving a row into a filter, slips by
                None
            } else {
                image.after.as_deref()
            });
            image
                .before
                .as_deref()
                .into_iter()
                .chain(after)
                .any(|row| filters.iter().any(|f| f.admits(row)))
        })
    }
}

/// What one mutation changed, collected for the write observer while
/// the table's write lock is held.
#[derive(Debug, Default)]
pub(crate) struct Changes {
    keys: Vec<RowKey>,
    images: Vec<RowImage>,
}

impl Changes {
    /// Records one affected row: its primary key (old and new, when an
    /// UPDATE moves it; `pk` is `None` for a table without one) and its
    /// images.
    pub(crate) fn push(
        &mut self,
        pk: Option<usize>,
        before: Option<Vec<DbValue>>,
        after: Option<Vec<DbValue>>,
    ) {
        if let Some(pk) = pk {
            let old = before.as_ref().map(|row| &row[pk]);
            if let Some(old) = old {
                self.keys.push(RowKey::of(old));
            }
            if let Some(new) = after.as_ref().map(|row| &row[pk]) {
                if !old.is_some_and(|old| old.sql_eq(new)) {
                    self.keys.push(RowKey::of(new));
                }
            }
        }
        self.images.push(RowImage { before, after });
    }

    /// The commit notification for `rows_affected` rows of `table`.
    pub(crate) fn into_event(self, table: &str, keyed: bool, rows_affected: usize) -> WriteEvent {
        WriteEvent {
            table: table.to_string(),
            keys: keyed.then_some(self.keys),
            rows_affected,
            images: self.images,
        }
    }
}

/// A subscriber to committed mutations, installed with
/// [`Database::set_write_observer`](crate::Database::set_write_observer).
/// Called with **zero
/// database locks held**, so observers may take their own locks freely.
pub type WriteObserver = Arc<dyn Fn(&WriteEvent) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: i64) -> RowKey {
        RowKey::of(&DbValue::Int(i))
    }

    fn event(table: &str, keys: Option<Vec<RowKey>>) -> WriteEvent {
        WriteEvent {
            table: table.to_string(),
            keys,
            rows_affected: 1,
            images: Vec::new(),
        }
    }

    #[test]
    fn exact_keys_match_only_their_rows() {
        let mut rs = ReadSet::new();
        rs.record_key("item", key(7));
        assert!(rs.depends_on(&event("item", Some(vec![key(7)]))));
        assert!(!rs.depends_on(&event("item", Some(vec![key(8)]))));
        assert!(!rs.depends_on(&event("author", Some(vec![key(7)]))));
    }

    #[test]
    fn whole_table_read_matches_any_write() {
        let mut rs = ReadSet::new();
        rs.record_table("item");
        assert!(rs.depends_on(&event("item", Some(vec![key(99)]))));
        assert!(rs.depends_on(&event("item", None)));
        assert!(!rs.depends_on(&event("author", None)));
    }

    #[test]
    fn keyless_write_matches_exact_key_read() {
        let mut rs = ReadSet::new();
        rs.record_key("item", key(1));
        assert!(rs.depends_on(&event("item", None)));
    }

    #[test]
    fn whole_table_subsumes_keys() {
        let mut rs = ReadSet::new();
        rs.record_key("item", key(1));
        rs.record_table("item");
        rs.record_key("item", key(2));
        assert_eq!(rs.reads().len(), 1);
        assert!(rs.reads()[0].keys.is_none(), "whole-table wins");
        assert!(rs.depends_on(&event("item", Some(vec![key(3)]))));
    }

    #[test]
    fn merge_unions_per_table() {
        let mut a = ReadSet::new();
        a.record_key("item", key(1));
        let mut b = ReadSet::new();
        b.record_key("item", key(2));
        b.record_table("author");
        a.merge(b);
        assert!(a.depends_on(&event("item", Some(vec![key(2)]))));
        assert!(!a.depends_on(&event("item", Some(vec![key(3)]))));
        assert!(a.depends_on(&event("author", Some(vec![key(9)]))));
    }

    #[test]
    fn empty_set_depends_on_nothing() {
        let rs = ReadSet::new();
        assert!(rs.is_empty());
        assert!(!rs.depends_on(&event("item", None)));
    }

    #[test]
    fn duplicate_keys_dedupe() {
        let mut rs = ReadSet::new();
        rs.record_key("item", key(5));
        rs.record_key("item", key(5));
        assert_eq!(rs.reads()[0].keys.as_ref().map(Vec::len), Some(1));
    }

    /// `item` rows are `[id, subject]`; the filter is `subject = ?1`,
    /// optionally restricted to join keys on `id`.
    fn subject_filter(subject: &str, join: Option<Vec<i64>>) -> RowFilter {
        use crate::sql::ast::{BinOp, Expr};
        let conjunct = BoundExpr::from_bound(Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(Expr::Slot(0, 1)),
            right: Box::new(Expr::Param(0)),
        });
        let join = join.map(|ids| (0, ids.into_iter().map(key).collect()));
        RowFilter::new(Arc::new([conjunct]), Arc::new([subject.into()]), join, None)
    }

    impl RowFilter {
        fn with_window(self, window: Option<Window>) -> Self {
            RowFilter { window, ..self }
        }
    }

    fn row(id: i64, subject: &str) -> Vec<DbValue> {
        vec![DbValue::Int(id), subject.into()]
    }

    fn image(before: Option<Vec<DbValue>>, after: Option<Vec<DbValue>>) -> WriteEvent {
        WriteEvent {
            images: vec![RowImage { before, after }],
            ..event("item", Some(vec![key(1)]))
        }
    }

    #[test]
    fn filters_match_writes_whose_images_pass_them() {
        let mut rs = ReadSet::new();
        rs.record_filter("item", subject_filter("ARTS", None));
        assert!(!rs.depends_on(&image(Some(row(1, "COOKING")), Some(row(1, "HISTORY")))));
        // Into the filter, out of it, inserted into it, deleted from it.
        assert!(rs.depends_on(&image(Some(row(1, "COOKING")), Some(row(1, "ARTS")))));
        assert!(rs.depends_on(&image(Some(row(1, "ARTS")), Some(row(1, "COOKING")))));
        assert!(rs.depends_on(&image(None, Some(row(1, "ARTS")))));
        assert!(rs.depends_on(&image(Some(row(1, "ARTS")), None)));
        // An event that lost its images cannot be judged by them.
        assert!(rs.depends_on(&event("item", Some(vec![key(1)]))));
    }

    #[test]
    fn join_keys_narrow_a_filter_and_nulls_degrade() {
        let mut rs = ReadSet::new();
        rs.record_filter("item", subject_filter("ARTS", Some(vec![1, 2])));
        assert!(rs.depends_on(&image(None, Some(row(2, "ARTS")))));
        assert!(!rs.depends_on(&image(None, Some(row(3, "ARTS")))));
        let null_key = vec![DbValue::Null, "ARTS".into()];
        assert!(rs.depends_on(&image(None, Some(null_key))));
    }

    #[test]
    fn erroring_conjunct_counts_as_overlap() {
        use crate::sql::ast::Expr;
        let mut rs = ReadSet::new();
        // `-subject` errors on text, as the executor would.
        let conjunct = BoundExpr::from_bound(Expr::Neg(Box::new(Expr::Slot(0, 1))));
        rs.record_filter(
            "item",
            RowFilter::new(Arc::new([conjunct]), Arc::new([]), None, None),
        );
        assert!(rs.depends_on(&image(None, Some(row(1, "ARTS")))));
    }

    #[test]
    fn exact_keys_and_filters_coexist_until_whole_table() {
        let mut rs = ReadSet::new();
        rs.record_key("item", key(9));
        rs.record_filter("item", subject_filter("ARTS", None));
        rs.record_filter("item", subject_filter("ARTS", None));
        assert_eq!(rs.reads().len(), 1);
        assert_eq!(rs.reads()[0].filters.len(), 1, "equal filters dedupe");
        let spared = WriteEvent {
            keys: Some(vec![key(3)]),
            ..image(Some(row(3, "COOKING")), Some(row(3, "COOKING")))
        };
        assert!(!rs.depends_on(&spared));
        let by_key = WriteEvent {
            keys: Some(vec![key(9)]),
            ..image(Some(row(9, "COOKING")), Some(row(9, "COOKING")))
        };
        assert!(rs.depends_on(&by_key));
        rs.record_table("item");
        assert!(rs.reads()[0].filters.is_empty());
        assert!(rs.depends_on(&spared));
    }

    /// A window over `id` (`[id, subject]` rows) whose boundary is 5.
    fn id_window(desc: bool) -> ReadSet {
        use crate::sql::ast::Expr;
        let keys = Arc::new([(BoundExpr::from_bound(Expr::Slot(0, 0)), desc)]);
        let window = Window::new(keys, vec![DbValue::Int(5)]);
        let mut rs = ReadSet::new();
        rs.record_filter(
            "item",
            subject_filter("ARTS", None).with_window(Some(window)),
        );
        rs
    }

    #[test]
    fn windows_spare_rows_that_sort_after_the_boundary() {
        let asc = id_window(false);
        assert!(!asc.depends_on(&image(None, Some(row(7, "ARTS")))));
        assert!(asc.depends_on(&image(None, Some(row(5, "ARTS")))), "a tie");
        assert!(asc.depends_on(&image(None, Some(row(3, "ARTS")))));
        // Out of the window through either image.
        assert!(asc.depends_on(&image(Some(row(3, "ARTS")), Some(row(9, "ARTS")))));
        // The conjuncts still decide first.
        assert!(!asc.depends_on(&image(None, Some(row(3, "COOKING")))));
        let desc = id_window(true);
        assert!(desc.depends_on(&image(None, Some(row(7, "ARTS")))));
        assert!(!desc.depends_on(&image(None, Some(row(3, "ARTS")))));
        // Without its window the filter admits every ARTS row.
        assert!(asc
            .without_windows()
            .depends_on(&image(None, Some(row(7, "ARTS")))));
    }

    #[test]
    fn a_window_key_that_errors_admits_the_row() {
        use crate::sql::ast::Expr;
        // `-subject` errors on text, so the row cannot be placed.
        let key = BoundExpr::from_bound(Expr::Neg(Box::new(Expr::Slot(0, 1))));
        let window = Window::new(Arc::new([(key, false)]), vec![DbValue::Int(0)]);
        let mut rs = ReadSet::new();
        rs.record_filter(
            "item",
            RowFilter::new(Arc::new([]), Arc::new([]), None, Some(window)),
        );
        assert!(rs.depends_on(&image(None, Some(row(1, "ARTS")))));
    }

    /// A join key set holds the keys SQL equality matched on, so a
    /// `-0.0` key admits a written `0` and a `0.0` key a written `-0.0`.
    #[test]
    fn join_keys_fold_signed_zero() {
        assert_eq!(
            RowKey::of(&DbValue::Float(-0.0)),
            RowKey::of(&DbValue::Int(0))
        );
        let filter = |k: DbValue| {
            RowFilter::new(
                Arc::new([]),
                Arc::new([]),
                Some((0, vec![RowKey::of(&k)])),
                None,
            )
        };
        assert!(filter(DbValue::Float(-0.0)).admits(&[DbValue::Int(0)]));
        assert!(filter(DbValue::Float(0.0)).admits(&[DbValue::Float(-0.0)]));
        assert!(!filter(DbValue::Float(0.0)).admits(&[DbValue::Float(0.5)]));
    }
}
