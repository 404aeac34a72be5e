//! Plan trees: the data structures the planner produces and the
//! executor that runs them (DESIGN.md §16).
//!
//! A [`SelectPlan`] is built once per statement text (under the table
//! read locks, so schemas and cardinalities are consistent) and cached;
//! every execution then walks the same tree. Row order is
//! deterministic: index buckets come out in insertion order, range and
//! sequential scans (a nested-loop join's inner rescan included) in
//! row-id order. Every expression
//! is bound to column addresses at plan time and the scan → filter →
//! join pipeline carries references to the stored rows, so only the
//! rows of the result are ever cloned ([`exec::finish_select`]). A
//! top-k read ordered by base-table keys orders the base rows first and
//! joins only as many as its window needs ([`SelectPlan::top_k_join`]);
//! a `col = const` or `col LIKE '%lit%'` scan tests each row's text
//! signature before its kernel.
//!
//! Per-node counters ([`PlanNode`]) accumulate measured rows and
//! cumulative execution time across runs; the EXPLAIN surface renders
//! them next to the planner's estimates.

use crate::database::QueryResult;
use crate::error::DbError;
use crate::exec::{self, BoundExpr, BoundTable, ExecStats, Tail};
use crate::readset::{ReadSet, RowFilter, RowKey, Window, WindowKeys};
use crate::sql::ast::*;
use crate::table::{bigrams, signature};
use crate::value::DbValue;
use staged_sync::atomic::{AtomicU64, Ordering};
use std::borrow::Cow;
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
pub const PLAN_NODE_KINDS: [&str; 10] = [
    "seq_scan",
    "index_scan",
    "index_range",
    "index_endpoint",
    "filter",
    "index_loop_join",
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

/// What a row's [`signature`] must be for a kernel to accept the row:
/// one `u64` test, no pointer chased. A necessary condition — every row
/// the kernel accepts passes it — so the kernel still decides each row
/// that does.
#[derive(Clone, Copy)]
enum Prefilter {
    /// `sql_eq` values have equal signatures.
    Equal(u64),
    /// A text holding the literal, ASCII case folded, holds its every
    /// bigram.
    Superset(u64),
}

impl Prefilter {
    #[inline]
    fn admits(self, signature: u64) -> bool {
        match self {
            Prefilter::Equal(key) => signature == key,
            Prefilter::Superset(bits) => signature & bits == bits,
        }
    }
}

impl Kernel<'_> {
    fn col(&self) -> usize {
        match *self {
            Kernel::Eq { col, .. } | Kernel::Contains { col, .. } => col,
        }
    }

    fn prefilter(&self) -> Prefilter {
        match *self {
            Kernel::Eq { key, .. } => Prefilter::Equal(signature(key)),
            Kernel::Contains { needle, .. } => Prefilter::Superset(bigrams(needle)),
        }
    }

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

/// How a sequential scan tests its base filter on one execution: what
/// every statement runs, or one of the references the agreement tests
/// hold it to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanPath {
    /// Every conjunct through `holds`, whatever the planner chose.
    Holds,
    /// The planned kernel on every row; signatures unused.
    Kernel,
    /// The planned kernel behind its signature prefilter, once the
    /// column has signatures.
    Prefiltered,
}

/// How one JOIN binds its inner table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinStrategy {
    /// Probe the inner table's index per outer row; each bucket comes
    /// out in insertion order.
    IndexLoop,
    /// Rescan the inner table per outer row, in row-id order: the one
    /// fallback for a join column without an index.
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

impl JoinPlan {
    /// Whether each probe reads the inner table by primary key, so the
    /// probed keys name exactly the rows read.
    fn probes_pk(&self) -> bool {
        self.inner_pk && self.strategy == JoinStrategy::IndexLoop
    }
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
    /// Whether the base rows are ordered before they are joined: a
    /// window at slot 0, at least one join, and join conjuncts that
    /// cannot fail on a row (given their parameters; checked per run).
    pub(crate) top_k_join: bool,
    /// `(table, column)` of the TEXT column the scan kernel tests, whose
    /// signatures the statement cache builds along with the plan.
    pub(crate) signature_column: Option<(String, usize)>,
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
#[derive(Default)]
struct JoinKeys {
    keys: Vec<RowKey>,
    overflowed: bool,
}

impl JoinKeys {
    fn push(&mut self, value: &DbValue) {
        if self.overflowed || value.is_null() {
            return;
        }
        self.keys.push(RowKey::of(value));
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

/// The joined rows a statement's tail read, its outcome with the top-k
/// boundary (a joined-row number), and the tail's time.
type Finished<'a> = (
    Vec<&'a [DbValue]>,
    Result<(QueryResult, Option<usize>), DbError>,
    u64,
);

/// The join stages of one execution. [`Joins::run`] takes a batch of
/// base rows through every stage in turn; join keys and timings carry
/// over from batch to batch, so a top-k read can join its base rows a
/// few at a time.
struct Joins<'a> {
    plan: &'a SelectPlan,
    tables: &'a [BoundTable<'a>],
    params: &'a [DbValue],
    stages: Vec<Stage>,
}

/// One join stage's state across batches.
struct Stage {
    /// The outer keys that reached the stage, when tracking reads.
    keys: Option<JoinKeys>,
    rows: u64,
    nanos: u64,
}

impl<'a> Joins<'a> {
    fn new(
        plan: &'a SelectPlan,
        tables: &'a [BoundTable<'a>],
        params: &'a [DbValue],
        track: bool,
    ) -> Self {
        let stages = plan.joins.iter().map(|_| Stage {
            keys: track.then(JoinKeys::default),
            rows: 0,
            nanos: 0,
        });
        Joins {
            plan,
            tables,
            params,
            stages: stages.collect(),
        }
    }

    /// Joins `base` rows (one slot each) through every stage, appending
    /// the joined rows to `out`: one slot per bound table for each
    /// surviving combination, back to back, in outer-major order.
    fn run(
        &mut self,
        base: &[&'a [DbValue]],
        out: &mut Vec<&'a [DbValue]>,
        stats: &mut ExecStats,
    ) -> Result<(), DbError> {
        let (params, stages) = (self.params, self.stages.len());
        let mut rows: Vec<&'a [DbValue]> = Vec::new();
        for (join_idx, (jp, stage)) in self.plan.joins.iter().zip(&mut self.stages).enumerate() {
            let tj = Instant::now();
            let stride = join_idx + 1;
            let new_table = &self.tables[stride];
            let staged = std::mem::take(&mut rows);
            let input = if join_idx == 0 { base } else { &staged[..] };
            let last = join_idx + 1 == stages;
            let mut next = if last {
                std::mem::take(out)
            } else {
                Vec::new()
            };
            let before = next.len();
            // lint: hot_path — once per outer row × candidate inner row
            let mut emit =
                |partial: &[&'a [DbValue]], inner: &'a [DbValue]| -> Result<(), DbError> {
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
            for partial in input.chunks_exact(stride) {
                let key = &partial[jp.outer.0][jp.outer.1];
                if let Some(keys) = &mut stage.keys {
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
                }
            }
            // lint: end_hot_path
            stage.rows += ((next.len() - before) / (stride + 1)) as u64;
            if last {
                *out = next;
            } else {
                rows = next;
            }
            stage.nanos += tj.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    /// Records each join's read-set dependency — the join keys that
    /// reached it — and its node's rows and time. The filter of the
    /// plan's window table goes to `deferred`, for the tail to finish.
    fn finish(
        self,
        mut deps: Option<&mut Deps<'_>>,
        window_slot: Option<usize>,
        deferred: &mut Option<Deferred<'a>>,
        node_times: &mut Vec<(&'static str, u64)>,
    ) {
        for (join_idx, (jp, stage)) in self.plan.joins.iter().zip(self.stages).enumerate() {
            let stride = join_idx + 1;
            let new_table = &self.tables[stride];
            if let (Some(deps), Some(keys)) = (deps.as_deref_mut(), stage.keys) {
                match keys.finish() {
                    // Primary-key probes name exactly the rows they read.
                    Some(keys) if jp.probes_pk() => {
                        for key in keys {
                            deps.reads.record_key(&new_table.table, key);
                        }
                    }
                    keys => {
                        let join = keys.map(|keys| (jp.inner_col, keys));
                        if window_slot == Some(stride) {
                            *deferred = Some((&jp.local, join));
                        } else {
                            deps.filter(&new_table.table, &jp.local, join, None);
                        }
                    }
                }
            }
            let node = &self.plan.nodes[self.plan.join_nodes[join_idx]];
            node.record(stage.rows, stage.nanos);
            node_times.push((node.kind, stage.nanos));
        }
    }
}

/// Top-k before the join: orders the filtered base rows by the ORDER BY
/// keys, which read only the base table, and joins them in that order,
/// batch by batch, until `offset + limit` joined rows are out — a batch
/// of what is still missing, at least twice the last one, when a join
/// dropped rows. Both join strategies emit in outer-major order, so the
/// joined rows come out exactly as sorting the whole join orders them,
/// ties included; the base rows left unprobed all sort after them.
/// `None`, with nothing probed, when LIMIT/OFFSET or a key fails to
/// evaluate: the whole join then raises the error where it would.
fn top_k_join<'a>(
    plan: &'a SelectPlan,
    keys: &'a WindowKeys,
    base: &[&'a [DbValue]],
    joins: &mut Joins<'a>,
    stats: &mut ExecStats,
    want_boundary: bool,
) -> Result<Option<Finished<'a>>, DbError> {
    let t0 = Instant::now();
    let params = joins.params;
    let Ok((offset, Some(limit))) = plan.tail.counts(params) else {
        return Ok(None);
    };
    let mut sort_keys = Vec::with_capacity(base.len() * keys.len());
    // lint: hot_path — once per filtered base row; keys borrow from the table
    for &row in base {
        for (key, _) in keys.iter() {
            let Ok(value) = key.eval(&[row], params) else {
                return Ok(None);
            };
            sort_keys.push(value);
        }
    }
    // lint: end_hot_path
    let stride = plan.joins.len() + 1;
    let start = offset.unwrap_or(0);
    let end = start.saturating_add(limit);
    let mut sorted = exec::Sorted::new(base.len(), &sort_keys, keys);
    let mut out: Vec<&'a [DbValue]> = Vec::new();
    let mut batch: Vec<&'a [DbValue]> = Vec::new();
    let mut taken = 0;
    let mut nanos = t0.elapsed().as_nanos() as u64;
    while out.len() / stride < end && taken < base.len() {
        let tb = Instant::now();
        let want = (end - out.len() / stride).max(2 * batch.len());
        batch.clear();
        let next = &sorted.first(taken.saturating_add(want))[taken..];
        batch.extend(next.iter().map(|&i| base[i]));
        taken += batch.len();
        nanos += tb.elapsed().as_nanos() as u64;
        joins.run(&batch, &mut out, stats)?;
        staged_sync::mutant!("plan_top_k_join_stops_short" => {
            // broken: a batch whose rows a join dropped leaves the window
            // short, though base rows remain to fill it
            break;
        } else {});
    }
    let tp = Instant::now();
    let produced = out.len() / stride;
    let end = end.min(produced);
    // Rows remain past the window: joined ones, or base rows unprobed.
    let more = produced > end || taken < base.len();
    let boundary = end.checked_sub(1).filter(|_| want_boundary && more);
    let kept = start.min(end)..end;
    let finished = plan.tail.project(&out, stride, params, kept, stats.scanned);
    nanos += tp.elapsed().as_nanos() as u64;
    Ok(Some((out, finished.map(|r| (r, boundary)), nanos)))
}

/// Executes a compiled plan against the bound tables (guards already
/// held). `path` picks how a sequential scan tests the base filter.
/// `node_times` receives `(node kind, nanos)` pairs for the metrics
/// observer, which runs after the guards drop.
pub(crate) fn run_planned<'a>(
    plan: &'a SelectPlan,
    params: &'a [DbValue],
    tables: &'a [BoundTable<'a>],
    stats: &mut ExecStats,
    reads: Option<&mut ReadSet>,
    path: ScanPath,
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
        BaseAccess::SeqScan => match plan.scan_test.kernel(params) {
            Some(kernel) if path != ScanPath::Holds => {
                // Every live row is visited, whichever rows are tested.
                let live = base.data.len() as u64;
                stats.scanned += live;
                visited += live;
                let signatures = base.data.signatures(kernel.col());
                match signatures.filter(|_| path == ScanPath::Prefiltered) {
                    Some(signatures) => {
                        let prefilter = kernel.prefilter();
                        // lint: hot_path — once per row id of the table, under its read lock
                        for (id, &signature) in signatures.iter().enumerate() {
                            if prefilter.admits(signature) {
                                if let Some(r) = base.data.row(id).filter(|r| kernel.holds(r)) {
                                    rows.push(r);
                                }
                            }
                        }
                        // lint: end_hot_path
                    }
                    None => {
                        // lint: hot_path — once per row of the table, under its read lock
                        for (_, r) in base.data.iter_live() {
                            if kernel.holds(r) {
                                rows.push(r);
                            }
                        }
                        // lint: end_hot_path
                    }
                }
            }
            _ => {
                for (_, r) in base.data.iter_live() {
                    visit(r)?;
                }
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

    // --- Joins and the tail: the whole join, then ORDER BY over it;
    // or, for a top-k read ordered by base keys, ordered base rows
    // joined until the window is full. ---
    let stride = plan.joins.len() + 1;
    let mut joins = Joins::new(plan, tables, params, deps.is_some());
    let top_k = match &plan.window {
        Some((0, keys))
            if plan.top_k_join
                && plan
                    .joins
                    .iter()
                    .all(|jp| jp.newly.iter().all(|p| p.cannot_fail(params.len()))) =>
        {
            top_k_join(plan, keys, &rows, &mut joins, stats, deferred.is_some())?
        }
        _ => None,
    };
    let (rows, finished, tail_nanos) = match top_k {
        Some(finished) => {
            joins.finish(deps.as_mut(), window_slot, &mut deferred, node_times);
            finished
        }
        None => {
            let rows = if plan.joins.is_empty() {
                rows
            } else {
                let mut joined = Vec::new();
                joins.run(&rows, &mut joined, stats)?;
                joined
            };
            joins.finish(deps.as_mut(), window_slot, &mut deferred, node_times);
            let tt = Instant::now();
            let finished = exec::finish_select(
                &plan.tail,
                &rows,
                stride,
                params,
                stats.scanned,
                deferred.is_some(),
            );
            (rows, finished, tt.elapsed().as_nanos() as u64)
        }
    };
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
        // The tail (aggregate/sort/limit) runs as one fused pass; its
        // measured time — a top-k join's ordering included — lands on
        // the bottom tail node and the ones above it record the final
        // row count only.
        for (i, node) in plan.nodes.iter().enumerate().skip(tail) {
            let t = if i == tail { tail_nanos } else { 0 };
            node.record(result.rows.len() as u64, t);
            node_times.push((node.kind, t));
        }
    }
    Ok(result)
}
