//! The planning pass: SELECT AST → [`SelectPlan`] (DESIGN.md §16).
//!
//! Planning runs once per statement text, under the same sorted
//! table read locks execution uses, so schemas and cardinalities are
//! consistent with the first run. Each choice is a rule on the
//! statement's shape and the tables' indexes that keeps the rows
//! visited — what the synthetic [`CostModel`](crate::CostModel) charges
//! for — low; table cardinalities and index distinct-key counts feed
//! only the estimates EXPLAIN shows:
//!
//! * base access: a PK equality probe beats any other access; then the
//!   first equality conjunct on an indexed column; then a range probe
//!   over an indexed column (`< <= > >= BETWEEN`); else a sequential
//!   scan;
//! * joins: an indexed inner side is probed per outer row (index loop);
//!   an unindexed inner side is rescanned per outer row (nested loop) —
//!   every join the TPC-W pages issue probes an index, so the rescan is
//!   the fallback for ad-hoc statements only;
//! * single-row aggregates (`COUNT(*)`, `MIN`/`MAX` of an indexed
//!   column, no WHERE/JOIN/GROUP/ORDER/LIMIT) short-cut to index
//!   endpoints without scanning at all.

use crate::error::DbError;
use crate::exec::{self, Binder, BoundExpr, BoundTable, Tail};
use crate::plan::*;
use crate::schema::DataType;
use crate::sql::ast::*;
use std::sync::Arc;

/// Assumed matches per join key when the inner side has no index to
/// report distinct keys, and rows per group of a GROUP BY.
const UNINDEXED_MATCHES_PER_KEY: u64 = 10;

/// Assumed selectivity denominator for range probes: a range scan is
/// estimated to keep a third of the table.
const RANGE_SELECTIVITY: u64 = 3;

/// Builds the plan for one SELECT. `tables` are bound in FROM/JOIN
/// order with their read guards held by the caller.
pub(crate) fn build_select_plan(
    stmt: &Arc<Statement>,
    tables: &[BoundTable<'_>],
) -> Result<SelectPlan, DbError> {
    let Statement::Select(sel) = &**stmt else {
        return Err(DbError::invalid("only SELECT statements are planned"));
    };
    let base = &tables[0];
    // Plan-time binding addresses columns as `(table slot, column)`:
    // the executor carries one stored-row reference per bound table.
    let binder = |bound: usize| Binder {
        tables: &tables[..bound],
    };
    let base_ctx = binder(1);
    let tail = Tail::bind(sel, &binder(tables.len()));
    let conjs: Vec<&Expr> = sel.where_.as_ref().map(exec::conjuncts).unwrap_or_default();

    // --- Endpoint shortcut. ---
    if let Some(items) = detect_shortcut(sel, base) {
        let mut nodes = Vec::new();
        let detail = items
            .iter()
            .map(|i| match i {
                ShortcutItem::CountStar => "count(*)".to_string(),
                ShortcutItem::Endpoint { col, max } => format!(
                    "{}({})",
                    if *max { "max" } else { "min" },
                    base.data.schema().columns()[*col].name
                ),
            })
            .collect::<Vec<_>>()
            .join(", ");
        let mut scan = PlanNode::new("index_endpoint", 1, None);
        scan.table = Some(base.table.clone());
        scan.detail = Some(detail);
        nodes.push(scan);
        nodes.push(PlanNode::new("aggregate", 1, Some(0)));
        return Ok(SelectPlan {
            stmt: Arc::clone(stmt),
            base: BaseAccess::SeqScan, // unused on the shortcut path
            base_filter: Arc::new([]),
            scan_test: ScanTest::Holds,
            joins: Vec::new(),
            tail,
            window: None,
            top_k_join: false,
            signature_column: None,
            shortcut: Some(items),
            nodes,
            scan_node: 0,
            filter_node: None,
            join_nodes: Vec::new(),
            tail_node: Some(1),
            root: 1,
        });
    }

    // --- Predicate partition: each conjunct applies at the first table
    // that makes all its columns resolvable. ---
    let base_filter: Arc<[BoundExpr]> = conjs
        .iter()
        .filter(|c| exec::is_resolvable(c, &base_ctx))
        .map(|c| base_ctx.bind(c))
        .collect();

    // --- Base access path. ---
    let base_n = base.data.len() as u64;
    let access = choose_base_access(&conjs, base);
    let mut est = match &access {
        BaseAccess::SeqScan => base_n,
        BaseAccess::IndexEq { pk: true, .. } => 1,
        BaseAccess::IndexEq { col, .. } => per_key_estimate(base, *col),
        BaseAccess::IndexRange { .. } => (base_n / RANGE_SELECTIVITY).max(1),
    };

    let scan_test = scan_test(&access, &base_filter);
    let signature_column = match scan_test {
        ScanTest::Eq { col, .. } | ScanTest::Like { col, .. }
            if base.data.schema().columns()[col].dtype == DataType::Text =>
        {
            Some((base.table.clone(), col))
        }
        _ => None,
    };
    let mut nodes: Vec<PlanNode> = Vec::new();
    let (kind, index, detail) = match &access {
        BaseAccess::SeqScan => (
            "seq_scan",
            None,
            signature_column.as_ref().map(|(_, col)| {
                let name = &base.data.schema().columns()[*col].name;
                format!("signature prefilter on {name}")
            }),
        ),
        BaseAccess::IndexEq { col, key, pk } => (
            "index_scan",
            Some(base.data.schema().columns()[*col].name.clone()),
            Some(if *pk {
                format!("pk = {}", key.display())
            } else {
                format!("= {}", key.display())
            }),
        ),
        BaseAccess::IndexRange { col, lo, hi } => (
            "index_range",
            Some(base.data.schema().columns()[*col].name.clone()),
            Some(range_detail(lo, hi)),
        ),
    };
    let mut scan = PlanNode::new(kind, est, None);
    scan.table = Some(base.table.clone());
    scan.index = index;
    scan.detail = detail;
    nodes.push(scan);
    let scan_node = 0;
    let mut prev = scan_node;

    let filter_node = if base_filter.is_empty() {
        None
    } else {
        let mut f = PlanNode::new("filter", est, Some(prev));
        f.detail = Some(format!(
            "{} predicate{}",
            base_filter.len(),
            if base_filter.len() == 1 { "" } else { "s" }
        ));
        nodes.push(f);
        prev = nodes.len() - 1;
        Some(prev)
    };

    // --- Joins: resolve which ON side is the new (inner) table; probe
    // its index, or rescan it without one. ---
    let mut joins: Vec<JoinPlan> = Vec::new();
    let mut join_nodes: Vec<usize> = Vec::new();
    for (join_idx, join) in sel.joins.iter().enumerate() {
        let bound_count = join_idx + 1;
        let new_table = &tables[bound_count];
        let prev_ctx = binder(bound_count);
        let now_ctx = binder(bound_count + 1);
        let (outer_ref, inner_ref) = exec::join_sides(join, new_table, &prev_ctx);
        let outer = prev_ctx.resolve(outer_ref)?;
        let inner_col = new_table
            .data
            .schema()
            .column_index(&inner_ref.column)
            .ok_or_else(|| DbError::NoSuchColumn(inner_ref.column.clone()))?;
        let inner_pk = new_table.data.schema().primary_key() == Some(inner_col);
        let inner_n = new_table.data.len() as u64;

        let strategy = if new_table.data.has_index(inner_col) {
            JoinStrategy::IndexLoop
        } else {
            JoinStrategy::NestedLoop
        };
        let per_key = if inner_pk {
            1
        } else if new_table.data.has_index(inner_col) {
            per_key_estimate(new_table, inner_col)
        } else {
            (inner_n / UNINDEXED_MATCHES_PER_KEY).clamp(1, inner_n.max(1))
        };
        est = est.saturating_mul(per_key);

        let newly: Vec<BoundExpr> = conjs
            .iter()
            .filter(|c| exec::is_resolvable(c, &now_ctx) && !exec::is_resolvable(c, &prev_ctx))
            .map(|c| now_ctx.bind(c))
            .collect();
        // The inner table's own conjuncts, re-addressed to a lone row of
        // it — only those before the first one that reads an earlier
        // table: `newly` runs in order, so a row a later local conjunct
        // rejects could first have made a cross-table one fail.
        let local = newly
            .iter()
            .map_while(|c| c.local_to(bound_count))
            .collect();

        let kind = match strategy {
            JoinStrategy::IndexLoop => "index_loop_join",
            JoinStrategy::NestedLoop => "nested_loop_join",
        };
        let mut node = PlanNode::new(kind, est, Some(prev));
        node.table = Some(new_table.table.clone());
        if strategy == JoinStrategy::IndexLoop {
            node.index = Some(new_table.data.schema().columns()[inner_col].name.clone());
        }
        node.detail = Some(format!(
            "on {}{}",
            new_table.data.schema().columns()[inner_col].name,
            if newly.is_empty() {
                String::new()
            } else {
                format!(" + {} predicate(s)", newly.len())
            }
        ));
        nodes.push(node);
        prev = nodes.len() - 1;
        join_nodes.push(prev);

        joins.push(JoinPlan {
            outer,
            inner_col,
            inner_pk,
            strategy,
            newly,
            local,
        });
    }

    // --- Top-k before the join: a window over the base table's keys. ---
    let window = tail.window_keys(tables.len());
    let top_k_join = matches!(window, Some((0, _)))
        && !joins.is_empty()
        && joins
            .iter()
            .all(|jp| jp.newly.iter().all(|p| p.cannot_fail(usize::MAX)));

    // --- Tail nodes: aggregate, sort, limit. ---
    let mut tail_node = None;
    if exec::select_has_aggregate(sel) {
        let est_groups = if sel.group_by.is_empty() {
            1
        } else {
            (est / UNINDEXED_MATCHES_PER_KEY).max(1)
        };
        est = est_groups;
        nodes.push(PlanNode::new("aggregate", est, Some(prev)));
        prev = nodes.len() - 1;
        tail_node = Some(prev);
    }
    if !sel.order_by.is_empty() {
        let mut sort = PlanNode::new("sort", est, Some(prev));
        sort.detail = tail
            .top_k_detail()
            .map(|k| if top_k_join { k + " before join" } else { k });
        nodes.push(sort);
        prev = nodes.len() - 1;
        tail_node.get_or_insert(prev);
    }
    if sel.limit.is_some() || sel.offset.is_some() {
        if let Some(Expr::Literal(v)) = &sel.limit {
            if let Some(n) = v.as_int() {
                est = est.min(n.max(0) as u64);
            }
        }
        nodes.push(PlanNode::new("limit", est, Some(prev)));
        prev = nodes.len() - 1;
        tail_node.get_or_insert(prev);
    }

    Ok(SelectPlan {
        stmt: Arc::clone(stmt),
        scan_test,
        base: access,
        base_filter,
        joins,
        window,
        top_k_join,
        signature_column,
        tail,
        shortcut: None,
        nodes,
        scan_node,
        filter_node,
        join_nodes,
        tail_node,
        root: prev,
    })
}

/// The scan kernel for a lone `column = constant` or `column LIKE
/// constant` conjunct under a sequential scan; `holds` for anything
/// else (index probes re-apply their own conjunct through `holds`).
fn scan_test(access: &BaseAccess, base_filter: &[BoundExpr]) -> ScanTest {
    let (BaseAccess::SeqScan, [lone]) = (access, base_filter) else {
        return ScanTest::Holds;
    };
    match lone.column_vs_constant() {
        Some((BinOp::Eq, col, c)) => {
            key_source(c).map_or(ScanTest::Holds, |key| ScanTest::Eq { col, key })
        }
        Some((BinOp::Like, col, c)) => {
            key_source(c).map_or(ScanTest::Holds, |pattern| ScanTest::Like { col, pattern })
        }
        _ => ScanTest::Holds,
    }
}

/// Average bucket size of the index on `col`.
fn per_key_estimate(table: &BoundTable<'_>, col: usize) -> u64 {
    let n = table.data.len() as u64;
    let distinct = table.data.distinct_keys(col).unwrap_or(1).max(1) as u64;
    (n / distinct).max(1)
}

/// Detects the single-row aggregate shortcut: every select item is
/// `COUNT(*)` or `MIN`/`MAX` of an indexed base column, and nothing
/// else constrains the query.
fn detect_shortcut(sel: &SelectStmt, base: &BoundTable<'_>) -> Option<Vec<ShortcutItem>> {
    if !sel.joins.is_empty()
        || sel.where_.is_some()
        || !sel.group_by.is_empty()
        || !sel.order_by.is_empty()
        || sel.limit.is_some()
        || sel.offset.is_some()
        || sel.items.is_empty()
    {
        return None;
    }
    let mut items = Vec::with_capacity(sel.items.len());
    for item in &sel.items {
        let SelectItem::Expr { expr, .. } = item else {
            return None;
        };
        match expr {
            Expr::Aggregate {
                func: AggFunc::Count,
                arg: None,
            } => items.push(ShortcutItem::CountStar),
            Expr::Aggregate {
                func: func @ (AggFunc::Min | AggFunc::Max),
                arg: Some(arg),
            } => {
                let Expr::Column(c) = &**arg else { return None };
                if let Some(t) = &c.table {
                    if *t != base.name {
                        return None;
                    }
                }
                let col = base.data.schema().column_index(&c.column)?;
                if !base.data.has_index(col) {
                    return None;
                }
                items.push(ShortcutItem::Endpoint {
                    col,
                    max: *func == AggFunc::Max,
                });
            }
            _ => return None,
        }
    }
    Some(items)
}

/// Picks the base access path from the WHERE conjuncts.
fn choose_base_access(conjs: &[&Expr], base: &BoundTable<'_>) -> BaseAccess {
    let pk = base.data.schema().primary_key();

    // 1. A PK equality probe: at most one row, so it is order-safe to
    // prefer it over an earlier secondary-index conjunct.
    for conj in conjs {
        if let Some((col, key)) = match_eq(conj, base) {
            if pk == Some(col) {
                return BaseAccess::IndexEq { col, key, pk: true };
            }
        }
    }
    // 2. The *first* equality conjunct on any indexed column, in WHERE
    // order: which bucket is walked fixes the un-ORDERed result order.
    for conj in conjs {
        if let Some((col, key)) = match_eq(conj, base) {
            return BaseAccess::IndexEq {
                col,
                key,
                pk: false,
            };
        }
    }
    // 3. A range over one indexed column; later conjuncts on the same
    // column tighten the other side.
    for conj in conjs {
        if let Some((col, lo, hi)) = match_range(conj, base) {
            let (mut lo, mut hi) = (lo, hi);
            for other in conjs {
                if std::ptr::eq(*other as *const Expr, *conj as *const Expr) {
                    continue;
                }
                if let Some((c2, lo2, hi2)) = match_range(other, base) {
                    if c2 == col {
                        if lo.is_none() {
                            lo = lo2;
                        }
                        if hi.is_none() {
                            hi = hi2;
                        }
                    }
                }
            }
            return BaseAccess::IndexRange { col, lo, hi };
        }
    }
    BaseAccess::SeqScan
}

/// Matches `col = constant` against the base table: the column is
/// qualified by the base table's alias or name, or unqualified. Also
/// how UPDATE/DELETE find an index probe for their single table.
pub(crate) fn match_eq(conj: &Expr, base: &BoundTable<'_>) -> Option<(usize, KeySource)> {
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = conj
    else {
        return None;
    };
    for (col_side, const_side) in [(left, right), (right, left)] {
        let Some(col) = base_indexed_column(col_side, base) else {
            continue;
        };
        let Some(key) = key_source(const_side) else {
            continue;
        };
        return Some((col, key));
    }
    None
}

/// Matches a range conjunct (`< <= > >= BETWEEN`) on an indexed base
/// column; returns `(col, lower bound, upper bound)` with the
/// strictness flag preserved for EXPLAIN.
#[allow(clippy::type_complexity)]
fn match_range(
    conj: &Expr,
    base: &BoundTable<'_>,
) -> Option<(usize, Option<(KeySource, bool)>, Option<(KeySource, bool)>)> {
    match conj {
        Expr::Binary { op, left, right }
            if matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) =>
        {
            // Column on the left keeps the operator; column on the
            // right flips it (`5 < col` ⇒ `col > 5`).
            let (col, key, op) = if let Some(col) = base_indexed_column(left, base) {
                (col, key_source(right)?, *op)
            } else if let Some(col) = base_indexed_column(right, base) {
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Le => BinOp::Ge,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Ge => BinOp::Le,
                    _ => unreachable!(),
                };
                (col, key_source(left)?, flipped)
            } else {
                return None;
            };
            Some(match op {
                BinOp::Gt => (col, Some((key, true)), None),
                BinOp::Ge => (col, Some((key, false)), None),
                BinOp::Lt => (col, None, Some((key, true))),
                BinOp::Le => (col, None, Some((key, false))),
                _ => unreachable!(),
            })
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let col = base_indexed_column(expr, base)?;
            let lo = key_source(low)?;
            let hi = key_source(high)?;
            Some((col, Some((lo, false)), Some((hi, false))))
        }
        _ => None,
    }
}

/// Resolves an expression to an indexed column of the base table
/// (alias match, or unqualified name present in the base schema).
fn base_indexed_column(expr: &Expr, base: &BoundTable<'_>) -> Option<usize> {
    let Expr::Column(c) = expr else { return None };
    if let Some(t) = &c.table {
        if *t != base.name {
            return None;
        }
    }
    let col = base.data.schema().column_index(&c.column)?;
    base.data.has_index(col).then_some(col)
}

fn key_source(expr: &Expr) -> Option<KeySource> {
    match expr {
        Expr::Literal(v) => Some(KeySource::Literal(v.clone())),
        Expr::Param(i) => Some(KeySource::Param(*i)),
        _ => None,
    }
}
