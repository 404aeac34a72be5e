//! Plan trees: the data structures the planner produces and the
//! executor that runs them (DESIGN.md §16).
//!
//! A [`SelectPlan`] is built once per statement text (under the table
//! read locks, so schemas and cardinalities are consistent) and cached;
//! every execution then walks the same tree. Row order is
//! deterministic: index buckets come out in insertion order, range and
//! sequential scans in row-id order, and hash buckets are built in
//! row-id order — the order a nested-loop rescan visits — so a join's
//! output order does not depend on the join strategy the cost model
//! picks. Every expression
//! is bound to column addresses at plan time and the scan → filter →
//! join pipeline carries references to the stored rows, so only the
//! rows of the result are ever cloned ([`exec::finish_select`]).
//!
//! Per-node counters ([`PlanNode`]) accumulate measured rows and
//! cumulative execution time across runs; the EXPLAIN surface renders
//! them next to the planner's estimates.

use crate::database::QueryResult;
use crate::error::DbError;
use crate::exec::{self, BoundExpr, BoundTable, ExecStats, Tail};
use crate::readset::{ReadSet, RowFilter, RowKey, Window, WindowKeys};
use crate::sql::ast::*;
use crate::value::{DbValue, IndexKey};
use staged_sync::atomic::{AtomicU64, Ordering};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

/// Above this many distinct join keys per join, the keys are dropped
/// from the joined table's read set, which keeps only its conjuncts (or
/// the whole table, with none) — a dependency list that big no longer
/// buys the cache any eviction precision.
pub(crate) const MAX_EXACT_JOIN_KEYS: usize = 256;

/// Every plan-node kind the planner can emit — the `node` label values
/// of the `db_plan_node_seconds` histogram family. Servers pre-create
/// one histogram per kind so the family is visible before any planned
/// query runs.
pub const PLAN_NODE_KINDS: [&str; 11] = [
    "seq_scan",
    "index_scan",
    "index_range",
    "index_endpoint",
    "filter",
    "index_loop_join",
    "hash_join",
    "nested_loop_join",
    "aggregate",
    "sort",
    "limit",
];

/// Where an index key comes from at run time.
#[derive(Debug, Clone)]
pub(crate) enum KeySource {
    Literal(DbValue),
    Param(usize),
}

impl KeySource {
    pub(crate) fn resolve(&self, params: &[DbValue]) -> Result<DbValue, DbError> {
        match self {
            KeySource::Literal(v) => Ok(v.clone()),
            KeySource::Param(i) => params
                .get(*i)
                .cloned()
                .ok_or_else(|| DbError::invalid(format!("missing parameter #{}", i + 1))),
        }
    }

    pub(crate) fn display(&self) -> String {
        match self {
            KeySource::Literal(v) => v.to_string(),
            KeySource::Param(i) => format!("?{}", i + 1),
        }
    }
}

/// How the base table's candidate rows are produced.
#[derive(Debug, Clone)]
pub(crate) enum BaseAccess {
    /// Visit every live row in row-id order.
    SeqScan,
    /// `col = key` through the PK or a secondary index.
    IndexEq {
        col: usize,
        key: KeySource,
        pk: bool,
    },
    /// A range predicate over an indexed column; candidates come out in
    /// row-id order, so downstream ordering matches a filtered SeqScan.
    /// Bounds are applied *inclusively* against the index regardless of
    /// strictness — the re-applied WHERE predicate drops boundary rows,
    /// and an inclusive prefilter can never wrongly exclude a row.
    IndexRange {
        col: usize,
        lo: Option<(KeySource, bool)>,
        hi: Option<(KeySource, bool)>,
    },
}

/// How a sequential scan tests its base filter, chosen at plan time
/// from the filter's shape. A lone `column = constant` or `column LIKE
/// constant` conjunct is tested in place by a typed kernel; every other
/// shape goes through [`BoundExpr::holds`]. A kernel keeps `holds`'s
/// verdict on every row, so rows, order, `rows_scanned` and read sets
/// do not depend on which test ran.
#[derive(Debug, Clone)]
pub(crate) enum ScanTest {
    /// Every conjunct through `holds`, in WHERE order.
    Holds,
    /// `row[col]` `sql_eq` the key.
    Eq { col: usize, key: KeySource },
    /// `row[col] LIKE pattern`: a case-folded substring search when the
    /// pattern is `%literal%` (decided per execution, since the pattern
    /// is usually a parameter), `holds` otherwise.
    Like { col: usize, pattern: KeySource },
}

/// A [`ScanTest`] resolved against one execution's parameters.
enum Kernel<'p> {
    Eq {
        col: usize,
        key: &'p DbValue,
    },
    Contains {
        col: usize,
        needle: &'p [u8],
        pattern: &'p str,
    },
}

impl Kernel<'_> {
    /// The conjunct's verdict on one stored row: `holds`'s own.
    #[inline]
    fn holds(&self, row: &[DbValue]) -> bool {
        match *self {
            Kernel::Eq { col, key } => row[col].sql_eq(key),
            Kernel::Contains {
                col,
                needle,
                pattern,
            } => match &row[col] {
                DbValue::Text(s) => {
                    exec::contains_ignore_ascii_case(s.as_bytes(), needle)
                        || (!s.is_ascii() && exec::like_match(pattern, s))
                }
                _ => false,
            },
        }
    }
}

impl ScanTest {
    /// The kernel for these parameters; `None` means `holds` — also
    /// when a parameter is missing, so the error is `holds`'s own.
    fn kernel<'p>(&'p self, params: &'p [DbValue]) -> Option<Kernel<'p>> {
        let constant = |k: &'p KeySource| match k {
            KeySource::Literal(v) => Some(v),
            KeySource::Param(i) => params.get(*i),
        };
        match self {
            ScanTest::Holds => None,
            ScanTest::Eq { col, key } => Some(Kernel::Eq {
                col: *col,
                key: constant(key)?,
            }),
            ScanTest::Like { col, pattern } => {
                let pattern = constant(pattern)?.as_str()?;
                let needle = exec::infix_literal(pattern)?.as_bytes();
                Some(Kernel::Contains {
                    col: *col,
                    needle,
                    pattern,
                })
            }
        }
    }
}

/// How one JOIN binds its inner table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinStrategy {
    /// Probe the inner table's index per outer row; each bucket comes
    /// out in insertion order.
    IndexLoop,
    /// Build a hash table over the inner table once, probe per outer
    /// row. Chosen when the inner side is unindexed and the build cost
    /// beats rescanning.
    Hash,
    /// Rescan the inner table per outer row, in row-id order; only
    /// worth it when the outer side is estimated tiny.
    NestedLoop,
}

/// One planned JOIN stage.
#[derive(Debug, Clone)]
pub(crate) struct JoinPlan {
    /// `(table slot, column)` of the outer join key among the tables
    /// bound so far.
    pub outer: (usize, usize),
    /// Join-key column in the inner (newly bound) table.
    pub inner_col: usize,
    /// Whether `inner_col` is the inner table's primary key — the
    /// condition for emitting row-level reads from the probes.
    pub inner_pk: bool,
    pub strategy: JoinStrategy,
    /// Conjuncts that become resolvable once this table binds.
    pub newly: Vec<BoundExpr>,
    /// The leading conjuncts of `newly` that read only the inner table,
    /// addressed to a lone row of it: its row filter in read sets.
    pub local: Arc<[BoundExpr]>,
}

/// A single-row aggregate answered straight from index endpoints
/// without scanning: `COUNT(*)` from the live-row count, `MIN`/`MAX`
/// of an indexed column from the first/last index key.
#[derive(Debug, Clone)]
pub(crate) enum ShortcutItem {
    CountStar,
    Endpoint { col: usize, max: bool },
}

/// One node of the plan tree, with cumulative measured counters.
#[derive(Debug)]
pub(crate) struct PlanNode {
    /// Node kind — also the `node` label of `db_plan_node_seconds`.
    pub kind: &'static str,
    /// Table the node reads (real name, not alias), if any.
    pub table: Option<String>,
    /// Chosen index column, if any.
    pub index: Option<String>,
    /// Free-form detail (probe key, range bounds, predicate count).
    pub detail: Option<String>,
    /// Planner's estimated output rows.
    pub est_rows: u64,
    /// Index of the input node in [`SelectPlan::nodes`], `None` for
    /// leaves. Joins keep the single-input chain; their inner table is
    /// named on the node itself.
    pub input: Option<usize>,
    /// Cumulative measured output rows across executions.
    pub rows: AtomicU64,
    /// Cumulative execution time attributed to this node. Filter time
    /// folds into its scan, projection time into the topmost tail node.
    pub nanos: AtomicU64,
    /// Executions observed.
    pub execs: AtomicU64,
}

impl PlanNode {
    pub(crate) fn new(kind: &'static str, est_rows: u64, input: Option<usize>) -> Self {
        PlanNode {
            kind,
            table: None,
            index: None,
            detail: None,
            est_rows,
            input,
            rows: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            execs: AtomicU64::new(0),
        }
    }

    fn record(&self, rows: u64, nanos: u64) {
        self.rows.fetch_add(rows, Ordering::Relaxed); // lint: allow(relaxed)
        self.nanos.fetch_add(nanos, Ordering::Relaxed); // lint: allow(relaxed)
        self.execs.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed)
    }
}

/// A compiled SELECT: access path, join order/strategies, predicate
/// partition, and the EXPLAIN node tree. Immutable after planning;
/// shared via `Arc` from the statement cache.
#[derive(Debug)]
pub(crate) struct SelectPlan {
    pub(crate) stmt: Arc<Statement>,
    pub(crate) base: BaseAccess,
    /// Conjuncts resolvable against the base table alone, in WHERE
    /// order — applied while scanning (the probe conjunct included, so
    /// index prefilters stay sound). Also the base table's row filter
    /// in read sets.
    pub(crate) base_filter: Arc<[BoundExpr]>,
    /// How a sequential scan tests `base_filter`.
    pub(crate) scan_test: ScanTest,
    pub(crate) joins: Vec<JoinPlan>,
    /// Projection/aggregation, ORDER BY and LIMIT, bound against every
    /// table of the statement.
    pub(crate) tail: Tail,
    /// `(slot, keys)` when the ORDER BY keys all read the table at
    /// `slot` and the statement can leave a top-k window on that table's
    /// row filter ([`Tail::window_keys`]).
    pub(crate) window: Option<(usize, WindowKeys)>,
    /// `Some` when the whole statement is answerable from index
    /// endpoints (single table, no WHERE/JOIN/GROUP/ORDER/LIMIT).
    pub(crate) shortcut: Option<Vec<ShortcutItem>>,
    pub(crate) nodes: Vec<PlanNode>,
    /// Node indices for the executor's attribution.
    pub(crate) scan_node: usize,
    pub(crate) filter_node: Option<usize>,
    pub(crate) join_nodes: Vec<usize>,
    /// Bottom of aggregate/sort/limit — where the projection tail's
    /// time lands.
    pub(crate) tail_node: Option<usize>,
    pub(crate) root: usize,
}

impl SelectPlan {
    pub(crate) fn select(&self) -> &SelectStmt {
        match &*self.stmt {
            Statement::Select(s) => s,
            _ => unreachable!("SelectPlan is only built for SELECT"),
        }
    }

    /// Renders the plan tree as a JSON object (EXPLAIN surface).
    pub(crate) fn explain_json(&self) -> String {
        self.render(self.root)
    }

    fn render(&self, idx: usize) -> String {
        let n = &self.nodes[idx];
        let mut s = String::with_capacity(160);
        s.push('{');
        push_field(&mut s, "node", &json_str(n.kind));
        if let Some(t) = &n.table {
            push_field(&mut s, "table", &json_str(t));
        }
        if let Some(i) = &n.index {
            push_field(&mut s, "index", &json_str(i));
        }
        if let Some(d) = &n.detail {
            push_field(&mut s, "detail", &json_str(d));
        }
        push_field(&mut s, "estimated_rows", &n.est_rows.to_string());
        let execs = n.execs.load(Ordering::Relaxed); // lint: allow(relaxed)
        let rows = n.rows.load(Ordering::Relaxed); // lint: allow(relaxed)
        let nanos = n.nanos.load(Ordering::Relaxed); // lint: allow(relaxed)
        push_field(&mut s, "executions", &execs.to_string());
        push_field(&mut s, "rows_total", &rows.to_string());
        let mean = rows.checked_div(execs).unwrap_or(0);
        push_field(&mut s, "rows_mean", &mean.to_string());
        push_field(
            &mut s,
            "time_seconds_total",
            &format!("{:.9}", nanos as f64 / 1e9),
        );
        if let Some(input) = n.input {
            push_field(&mut s, "input", &self.render(input));
        }
        // push_field leaves a trailing comma; close over it.
        s.pop();
        s.push('}');
        s
    }
}

fn push_field(s: &mut String, key: &str, rendered_value: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
    s.push_str(rendered_value);
    s.push(',');
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_str(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Human-readable bound description for EXPLAIN.
pub(crate) fn range_detail(
    lo: &Option<(KeySource, bool)>,
    hi: &Option<(KeySource, bool)>,
) -> String {
    let side = |b: &Option<(KeySource, bool)>, lo_side: bool| match b {
        None => "unbounded".to_string(),
        Some((ks, strict)) => {
            let op = match (lo_side, *strict) {
                (true, true) => ">",
                (true, false) => ">=",
                (false, true) => "<",
                (false, false) => "<=",
            };
            format!("{op} {}", ks.display())
        }
    };
    format!("{}, {}", side(lo, true), side(hi, false))
}

/// Records one execution's read set. The statement's parameters are
/// copied once, by the first row filter, and shared by the rest.
struct Deps<'r> {
    reads: &'r mut ReadSet,
    params: &'r [DbValue],
    shared: Option<Arc<[DbValue]>>,
}

impl Deps<'_> {
    /// A row-filter dependency on `table`; whole-table when there is
    /// nothing to filter by.
    fn filter(
        &mut self,
        table: &str,
        conjuncts: &Arc<[BoundExpr]>,
        join: Option<(usize, Vec<RowKey>)>,
        window: Option<Window>,
    ) {
        if conjuncts.is_empty() && join.is_none() && window.is_none() {
            return self.reads.record_table(table);
        }
        let params = self.shared.get_or_insert_with(|| self.params.into());
        let filter = RowFilter::new(Arc::clone(conjuncts), Arc::clone(params), join, window);
        self.reads.record_filter(table, filter);
    }
}

/// The row filter of the plan's window table, held back until the tail
/// has found the top-k boundary: its conjuncts and join keys.
type Deferred<'p> = (&'p Arc<[BoundExpr]>, Option<(usize, Vec<RowKey>)>);

/// The distinct outer key values that reached one join, up to
/// [`MAX_EXACT_JOIN_KEYS`]. NULL joins nothing, so it is not a key.
struct JoinKeys {
    keys: Vec<RowKey>,
    /// `RowKey::of` for primary-key probes (exact row identities),
    /// `RowKey::join` for key sets matched against row images.
    key: fn(&DbValue) -> RowKey,
    overflowed: bool,
}

impl JoinKeys {
    fn new(key: fn(&DbValue) -> RowKey) -> Self {
        JoinKeys {
            keys: Vec::new(),
            key,
            overflowed: false,
        }
    }

    fn push(&mut self, value: &DbValue) {
        if self.overflowed || value.is_null() {
            return;
        }
        self.keys.push((self.key)(value));
        if self.keys.len() > 2 * MAX_EXACT_JOIN_KEYS {
            self.dedup();
        }
    }

    fn dedup(&mut self) {
        self.keys.sort_unstable();
        self.keys.dedup();
        if self.keys.len() > MAX_EXACT_JOIN_KEYS {
            self.overflowed = true;
            self.keys = Vec::new();
        }
    }

    /// The sorted distinct keys, or `None` past the cap.
    fn finish(mut self) -> Option<Vec<RowKey>> {
        self.dedup();
        (!self.overflowed).then_some(self.keys)
    }
}

/// Executes a compiled plan against the bound tables (guards already
/// held). `kernels: false` tests every base filter through `holds`,
/// whatever [`ScanTest`] the planner chose. `node_times` receives
/// `(node kind, nanos)` pairs for the metrics observer, which runs
/// after the guards drop.
pub(crate) fn run_planned<'a>(
    plan: &'a SelectPlan,
    params: &'a [DbValue],
    tables: &'a [BoundTable<'a>],
    stats: &mut ExecStats,
    reads: Option<&mut ReadSet>,
    kernels: bool,
    node_times: &mut Vec<(&'static str, u64)>,
) -> Result<QueryResult, DbError> {
    let sel = plan.select();
    let mut deps = reads.map(|reads| Deps {
        reads,
        params,
        shared: None,
    });
    // The slot whose row filter waits for the top-k boundary, when
    // this execution records a read set.
    let window_slot = plan.window.as_ref().filter(|_| deps.is_some()).map(|w| w.0);
    let mut deferred: Option<Deferred<'a>> = None;

    // --- Endpoint shortcut: no scan at all. ---
    if let Some(items) = &plan.shortcut {
        let t0 = Instant::now();
        let base = &tables[0];
        if let Some(deps) = &mut deps {
            // MIN/MAX/COUNT over the whole table depend on every row.
            deps.reads.record_table(&base.table);
        }
        let mut row = Vec::with_capacity(items.len());
        let mut columns = Vec::with_capacity(items.len());
        for (item, sel_item) in items.iter().zip(&sel.items) {
            let SelectItem::Expr { expr, alias } = sel_item else {
                unreachable!("shortcut rejects SELECT *");
            };
            columns.push(exec::item_name(expr, alias));
            let value = match item {
                ShortcutItem::CountStar => DbValue::Int(base.data.len() as i64),
                ShortcutItem::Endpoint { col, max } => base
                    .data
                    .index_endpoint(*col, *max)
                    .and_then(|id| base.data.row(id))
                    .map(|r| r[*col].clone())
                    .unwrap_or(DbValue::Null),
            };
            stats.scanned += 1;
            row.push(value);
        }
        let nanos = t0.elapsed().as_nanos() as u64;
        let scan = &plan.nodes[plan.scan_node];
        scan.record(1, nanos);
        node_times.push((scan.kind, nanos));
        if let Some(tail) = plan.tail_node {
            plan.nodes[tail].record(1, 0);
            node_times.push((plan.nodes[tail].kind, 0));
        }
        return Ok(QueryResult {
            columns,
            rows: vec![row],
            rows_affected: 0,
            rows_scanned: stats.scanned,
        });
    }

    let base = &tables[0];

    // --- Base access. ---
    let t0 = Instant::now();
    let mut visited = 0u64;
    let mut rows: Vec<&'a [DbValue]> = Vec::new();
    // lint: hot_path — once per visited base row, under the table read lock
    let mut visit = |r: &'a [DbValue]| -> Result<(), DbError> {
        stats.scanned += 1;
        visited += 1;
        // Base-table conjuncts, in WHERE order: the first failing or
        // erroring one decides.
        for pred in plan.base_filter.iter() {
            if !pred.holds(&[r], params)? {
                return Ok(());
            }
        }
        rows.push(r);
        Ok(())
    };
    // lint: end_hot_path
    let mut visit_ids = |ids: &[usize]| -> Result<(), DbError> {
        ids.iter()
            .filter_map(|&id| base.data.row(id))
            .try_for_each(&mut visit)
    };
    match &plan.base {
        BaseAccess::SeqScan => match plan.scan_test.kernel(params).filter(|_| kernels) {
            None => {
                for (_, r) in base.data.iter_live() {
                    visit(r)?;
                }
            }
            Some(kernel) => {
                // lint: hot_path — once per row of the table, under its read lock
                for (_, r) in base.data.iter_live() {
                    stats.scanned += 1;
                    visited += 1;
                    if kernel.holds(r) {
                        rows.push(r);
                    }
                }
                // lint: end_hot_path
            }
        },
        BaseAccess::IndexEq { col, key, pk } => {
            let key = key.resolve(params)?;
            if let (Some(deps), true) = (&mut deps, *pk) {
                // Exact even on a miss: a later insert of this key must
                // still invalidate a cached empty result.
                deps.reads.record_key(&base.table, RowKey::of(&key));
            }
            visit_ids(base.data.lookup_eq(*col, &key))?;
        }
        BaseAccess::IndexRange { col, lo, hi } => {
            let resolve = |b: &Option<(KeySource, bool)>| -> Result<Option<DbValue>, DbError> {
                match b {
                    None => Ok(None),
                    Some((ks, _)) => ks.resolve(params).map(Some),
                }
            };
            let lo_v = resolve(lo)?;
            let hi_v = resolve(hi)?;
            // A NULL bound never compares true: the predicate rejects
            // every row, so skip the scan entirely.
            let null_bound = lo_v.as_ref().is_some_and(DbValue::is_null)
                || hi_v.as_ref().is_some_and(DbValue::is_null);
            let lo_k = lo_v.map(|v| v.index_key());
            let hi_k = hi_v.map(|v| v.index_key());
            // An inverted range matches nothing (and would panic
            // `BTreeMap::range`): answer empty, as the filter would.
            let inverted = matches!((&lo_k, &hi_k), (Some(lo), Some(hi)) if lo > hi);
            if !null_bound && !inverted {
                let lo_b = lo_k.as_ref().map_or(Bound::Unbounded, Bound::Included);
                let hi_b = hi_k.as_ref().map_or(Bound::Unbounded, Bound::Included);
                visit_ids(&base.data.lookup_range(*col, lo_b, hi_b))?;
            }
        }
    }
    if let Some(deps) = &mut deps {
        if !matches!(plan.base, BaseAccess::IndexEq { pk: true, .. }) {
            // The base filter holds the access path's own conjunct, so
            // it describes every row that could have been visited.
            if window_slot == Some(0) {
                deferred = Some((&plan.base_filter, None));
            } else {
                deps.filter(&base.table, &plan.base_filter, None, None);
            }
        }
    }
    let scan_nanos = t0.elapsed().as_nanos() as u64;
    let scan = &plan.nodes[plan.scan_node];
    scan.record(visited, scan_nanos);
    node_times.push((scan.kind, scan_nanos));
    if let Some(f) = plan.filter_node {
        plan.nodes[f].record(rows.len() as u64, 0);
        node_times.push((plan.nodes[f].kind, 0));
    }

    // --- Joins: `rows` holds one slot per bound table for every
    // surviving combination, back to back; each stage widens the
    // stride by one. ---
    for (join_idx, jp) in plan.joins.iter().enumerate() {
        let tj = Instant::now();
        let stride = join_idx + 1;
        let new_table = &tables[stride];
        let pk_probes = jp.inner_pk && jp.strategy == JoinStrategy::IndexLoop;
        let mut join_keys = deps
            .is_some()
            .then(|| JoinKeys::new(if pk_probes { RowKey::of } else { RowKey::join }));
        // Hash join: build once over live rows in row-id order — bucket
        // contents come out in the order a nested-loop rescan visits
        // them, so output ordering does not depend on the strategy.
        let mut hash: HashMap<IndexKey, Vec<&'a [DbValue]>> = HashMap::new();
        if jp.strategy == JoinStrategy::Hash {
            for (_, row) in new_table.data.iter_live() {
                stats.scanned += 1;
                let v = &row[jp.inner_col];
                if !v.is_null() {
                    hash.entry(v.index_key()).or_default().push(row);
                }
            }
        }

        let mut next: Vec<&'a [DbValue]> = Vec::new();
        // lint: hot_path — once per outer row × candidate inner row
        let mut emit = |partial: &[&'a [DbValue]], inner: &'a [DbValue]| -> Result<(), DbError> {
            let at = next.len();
            next.extend_from_slice(partial);
            next.push(inner);
            for pred in &jp.newly {
                if !pred.holds(&next[at..], params)? {
                    next.truncate(at);
                    break;
                }
            }
            Ok(())
        };
        for partial in rows.chunks_exact(stride) {
            let key = &partial[jp.outer.0][jp.outer.1];
            if let Some(keys) = &mut join_keys {
                keys.push(key);
            }
            match jp.strategy {
                JoinStrategy::IndexLoop => {
                    for &cid in new_table.data.lookup_eq(jp.inner_col, key) {
                        let Some(inner) = new_table.data.row(cid) else {
                            continue;
                        };
                        stats.scanned += 1;
                        emit(partial, inner)?;
                    }
                }
                JoinStrategy::NestedLoop => {
                    for (_, inner) in new_table.data.iter_live() {
                        stats.scanned += 1;
                        if inner[jp.inner_col].sql_eq(key) {
                            emit(partial, inner)?;
                        }
                    }
                }
                // NULL joins nothing (sql_eq semantics).
                JoinStrategy::Hash if key.is_null() => {}
                JoinStrategy::Hash => {
                    for &inner in hash.get(&key.index_key()).into_iter().flatten() {
                        stats.scanned += 1;
                        // IndexKey groups by f64 value; re-check with
                        // sql_eq so edge cases match a nested-loop rescan.
                        if inner[jp.inner_col].sql_eq(key) {
                            emit(partial, inner)?;
                        }
                    }
                }
            }
        }
        // lint: end_hot_path
        if let (Some(deps), Some(keys)) = (&mut deps, join_keys) {
            match keys.finish() {
                // Primary-key probes name exactly the rows they read.
                Some(keys) if pk_probes => {
                    for key in keys {
                        deps.reads.record_key(&new_table.table, key);
                    }
                }
                keys => {
                    let join = keys.map(|keys| (jp.inner_col, keys));
                    if window_slot == Some(stride) {
                        deferred = Some((&jp.local, join));
                    } else {
                        deps.filter(&new_table.table, &jp.local, join, None);
                    }
                }
            }
        }
        rows = next;
        let nanos = tj.elapsed().as_nanos() as u64;
        let node = &plan.nodes[plan.join_nodes[join_idx]];
        node.record((rows.len() / (stride + 1)) as u64, nanos);
        node_times.push((node.kind, nanos));
    }

    // --- Projection / ORDER BY / LIMIT tail. ---
    let tt = Instant::now();
    let stride = plan.joins.len() + 1;
    let finished = exec::finish_select(
        &plan.tail,
        &rows,
        stride,
        params,
        stats.scanned,
        deferred.is_some(),
    );
    if let (Some(deps), Some((conjuncts, join)), Some((slot, keys))) =
        (&mut deps, deferred, &plan.window)
    {
        // The boundary row's keys, evaluated as the window will evaluate
        // a written row's: one allocation, plus one per text key. A tail
        // that failed records the filter without a window, as it was
        // recorded before the tail ran.
        let boundary = finished.as_ref().ok().and_then(|(_, at)| *at);
        let window = boundary.and_then(|at| {
            let row = rows[at * stride + slot];
            let values = keys.iter().map(|(key, _)| key.eval(&[row], params));
            let values = values.map(|v| v.map(Cow::into_owned));
            let boundary = values.collect::<Result<Vec<DbValue>, DbError>>().ok()?;
            Some(Window::new(Arc::clone(keys), boundary))
        });
        deps.filter(&tables[*slot].table, conjuncts, join, window);
    }
    let (result, _) = finished?;
    if let Some(tail) = plan.tail_node {
        // The tail (aggregate/sort/limit) runs as one fused pass in
        // `finish_select`; its measured time lands on the bottom tail
        // node and the ones above it record the final row count only.
        let nanos = tt.elapsed().as_nanos() as u64;
        for (i, node) in plan.nodes.iter().enumerate().skip(tail) {
            let t = if i == tail { nanos } else { 0 };
            node.record(result.rows.len() as u64, t);
            node_times.push((node.kind, t));
        }
    }
    Ok(result)
}
