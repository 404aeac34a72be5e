//! Statement execution: expression binding and evaluation, the SELECT
//! tail (projection, aggregation, ordering, LIMIT) that the plan
//! executor in `plan.rs` feeds, and INSERT/UPDATE/DELETE.

use crate::database::QueryResult;
use crate::error::DbError;
use crate::planner;
use crate::readset::{Changes, WindowKeys};
use crate::sql::ast::*;
use crate::table::TableData;
use crate::value::DbValue;
use std::borrow::Cow;
use std::collections::HashMap;

/// A table bound into a query, at its slot in FROM/JOIN order.
pub(crate) struct BoundTable<'a> {
    /// Effective name (alias if given) — what column references resolve
    /// against.
    pub name: String,
    /// The real table name — what read-set dependencies are recorded
    /// under (an alias would never match a write event).
    pub table: String,
    pub data: &'a TableData,
}

/// Rows visited during execution — the input to the cost model.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ExecStats {
    pub scanned: u64,
    pub written: u64,
}

/// A row as the evaluator sees it: one stored-row slice per bound
/// table slot, referencing the tables' own rows.
pub(crate) type RowRef<'r, 'a> = &'r [&'a [DbValue]];

/// Resolves column names against the tables bound so far.
pub(crate) struct Binder<'a> {
    pub(crate) tables: &'a [BoundTable<'a>],
}

impl Binder<'_> {
    /// Resolves a column reference to its `(slot, column)` address.
    pub(crate) fn resolve(&self, col: &ColRef) -> Result<(usize, usize), DbError> {
        match &col.table {
            Some(t) => {
                let missing = || DbError::NoSuchColumn(format!("{t}.{}", col.column));
                let slot = self
                    .tables
                    .iter()
                    .position(|b| b.name == *t)
                    .ok_or_else(missing)?;
                let idx = self.tables[slot]
                    .data
                    .schema()
                    .column_index(&col.column)
                    .ok_or_else(missing)?;
                Ok((slot, idx))
            }
            None => {
                let mut found = None;
                for (slot, bound) in self.tables.iter().enumerate() {
                    if let Some(idx) = bound.data.schema().column_index(&col.column) {
                        if found.is_some() {
                            return Err(DbError::NoSuchColumn(format!(
                                "ambiguous column: {}",
                                col.column
                            )));
                        }
                        found = Some((slot, idx));
                    }
                }
                found.ok_or_else(|| DbError::NoSuchColumn(col.column.clone()))
            }
        }
    }

    /// Binds `expr` for evaluation: every column leaf becomes its
    /// resolved address, so rows are never searched by name. A name
    /// that does not resolve binds to a leaf that raises the resolution
    /// error when — and only when — a row is evaluated against it.
    pub(crate) fn bind(&self, expr: &Expr) -> BoundExpr {
        let mut bound = expr.clone();
        all_leaves(&mut bound, &mut |leaf| {
            if let Expr::Column(c) = leaf {
                *leaf = match self.resolve(c) {
                    Ok((slot, col)) => Expr::Slot(slot, col),
                    Err(e) => Expr::Unbound(e),
                }
            }
            true
        });
        BoundExpr(bound)
    }
}

/// Applies `f` to every leaf of `expr` (aggregate arguments included)
/// until it returns `false`; whether it never did.
fn all_leaves(expr: &mut Expr, f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
    match expr {
        Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) | Expr::Slot(..) | Expr::Unbound(_) => {
            f(expr)
        }
        Expr::Not(e) | Expr::Neg(e) | Expr::IsNull { expr: e, .. } => all_leaves(e, f),
        Expr::Binary { left, right, .. } => all_leaves(left, f) && all_leaves(right, f),
        Expr::InList { expr, list, .. } => {
            all_leaves(expr, f) && list.iter_mut().all(|e| all_leaves(e, f))
        }
        Expr::Between {
            expr, low, high, ..
        } => all_leaves(expr, f) && all_leaves(low, f) && all_leaves(high, f),
        Expr::Aggregate { arg, .. } => arg.as_deref_mut().is_none_or(|a| all_leaves(a, f)),
    }
}

/// An expression whose column leaves are resolved addresses
/// ([`Binder::bind`]) — the only form the evaluator accepts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BoundExpr(Expr);

impl BoundExpr {
    /// A test's hand-built expression, taken as already bound.
    #[cfg(test)]
    pub(crate) fn from_bound(expr: Expr) -> Self {
        BoundExpr(expr)
    }

    /// This expression re-addressed to a lone row of table `slot`
    /// (slot 0), or `None` when it reads any other table.
    pub(crate) fn local_to(&self, slot: usize) -> Option<BoundExpr> {
        let mut local = self.0.clone();
        let only_slot = all_leaves(&mut local, &mut |leaf| match leaf {
            Expr::Slot(s, _) if *s == slot => {
                *s = 0;
                true
            }
            Expr::Literal(_) | Expr::Param(_) => true,
            _ => false,
        });
        only_slot.then_some(BoundExpr(local))
    }

    /// Evaluates against one row. Column, literal and parameter leaves
    /// come back borrowed, so comparing them allocates nothing.
    pub(crate) fn eval<'a>(
        &'a self,
        row: RowRef<'_, 'a>,
        params: &'a [DbValue],
    ) -> Result<Cow<'a, DbValue>, DbError> {
        eval(&self.0, row, params)
    }

    /// Evaluates as a predicate.
    pub(crate) fn holds(&self, row: RowRef<'_, '_>, params: &[DbValue]) -> Result<bool, DbError> {
        holds(&self.0, row, params)
    }

    /// Whether evaluating this as a predicate can raise no error with
    /// `params` parameters bound: comparisons, logic, `IS NULL`, `IN`
    /// and `BETWEEN` over column, literal and present-parameter leaves.
    /// Arithmetic and negation can fail on a row's types; `false` for
    /// them.
    pub(crate) fn cannot_fail(&self, params: usize) -> bool {
        cannot_fail(&self.0, params)
    }

    /// `(op, column, constant)` when this is `column op constant` over
    /// slot 0 with a literal or parameter on the right — or, for the
    /// symmetric `=`, on either side. The shapes a scan kernel tests.
    pub(crate) fn column_vs_constant(&self) -> Option<(BinOp, usize, &Expr)> {
        let Expr::Binary { op, left, right } = &self.0 else {
            return None;
        };
        let constant = |e: &Expr| matches!(e, Expr::Literal(_) | Expr::Param(_));
        match (&**left, &**right) {
            (Expr::Slot(0, col), c) if constant(c) => Some((*op, *col, c)),
            (c, Expr::Slot(0, col)) if *op == BinOp::Eq && constant(c) => Some((*op, *col, c)),
            _ => None,
        }
    }
}

fn cannot_fail(expr: &Expr, params: usize) -> bool {
    match expr {
        Expr::Literal(_) | Expr::Slot(..) => true,
        Expr::Param(i) => *i < params,
        Expr::Not(e) | Expr::IsNull { expr: e, .. } => cannot_fail(e, params),
        Expr::Binary { op, left, right } => {
            !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
                && cannot_fail(left, params)
                && cannot_fail(right, params)
        }
        Expr::InList { expr, list, .. } => {
            cannot_fail(expr, params) && list.iter().all(|e| cannot_fail(e, params))
        }
        Expr::Between {
            expr, low, high, ..
        } => cannot_fail(expr, params) && cannot_fail(low, params) && cannot_fail(high, params),
        Expr::Neg(_) | Expr::Column(_) | Expr::Unbound(_) | Expr::Aggregate { .. } => false,
    }
}

fn eval<'a>(
    expr: &'a Expr,
    row: RowRef<'_, 'a>,
    params: &'a [DbValue],
) -> Result<Cow<'a, DbValue>, DbError> {
    let flag = |b: bool| Ok(Cow::Owned(DbValue::Int(i64::from(b))));
    match expr {
        Expr::Literal(v) => Ok(Cow::Borrowed(v)),
        Expr::Slot(slot, col) => Ok(Cow::Borrowed(&row[*slot][*col])),
        Expr::Param(i) => match params.get(*i) {
            Some(v) => Ok(Cow::Borrowed(v)),
            None => Err(DbError::invalid(format!("missing parameter #{}", i + 1))),
        },
        Expr::Unbound(e) => Err(e.clone()),
        // Only a row-less expression (INSERT values, LIMIT/OFFSET) is
        // evaluated unbound, and with no row no name can resolve.
        Expr::Column(c) => Err(DbError::NoSuchColumn(match &c.table {
            Some(t) => format!("{t}.{}", c.column),
            None => c.column.clone(),
        })),
        Expr::Neg(e) => match &*eval(e, row, params)? {
            DbValue::Int(i) => Ok(Cow::Owned(DbValue::Int(-i))),
            DbValue::Float(f) => Ok(Cow::Owned(DbValue::Float(-f))),
            DbValue::Null => Ok(Cow::Owned(DbValue::Null)),
            v => Err(DbError::invalid(format!("cannot negate {v}"))),
        },
        Expr::IsNull { expr, negated } => flag(eval(expr, row, params)?.is_null() != *negated),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row, params)?;
            if v.is_null() {
                return flag(false);
            }
            let mut found = false;
            for item in list {
                if v.sql_eq(&*eval(item, row, params)?) {
                    found = true;
                    break;
                }
            }
            flag(found != *negated)
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            use std::cmp::Ordering;
            let v = eval(expr, row, params)?;
            let lo = eval(low, row, params)?;
            let hi = eval(high, row, params)?;
            let inside = matches!(v.sql_cmp(&lo), Some(Ordering::Greater | Ordering::Equal))
                && matches!(v.sql_cmp(&hi), Some(Ordering::Less | Ordering::Equal));
            flag(inside != *negated)
        }
        Expr::Not(_)
        | Expr::Binary {
            op: BinOp::And | BinOp::Or,
            ..
        } => flag(holds(expr, row, params)?),
        Expr::Binary { op, left, right } => {
            let l = eval(left, row, params)?;
            let r = eval(right, row, params)?;
            eval_binop(*op, &l, &r).map(Cow::Owned)
        }
        Expr::Aggregate { .. } => Err(DbError::invalid(
            "aggregate function used outside of an aggregating SELECT",
        )),
    }
}

/// A leaf's value with no call, no `Cow` and no `Result` — what the
/// per-row `column op constant` predicate is made of. `None` for
/// anything else (and for a missing parameter: `eval` words the error).
#[inline]
fn leaf<'a>(expr: &'a Expr, row: RowRef<'_, 'a>, params: &'a [DbValue]) -> Option<&'a DbValue> {
    match expr {
        Expr::Literal(v) => Some(v),
        Expr::Slot(slot, col) => Some(&row[*slot][*col]),
        Expr::Param(i) => params.get(*i),
        _ => None,
    }
}

/// Evaluates as a predicate, straight to `bool`: the logical operators
/// short-circuit and a comparison never builds its `0`/`1` value.
fn holds(expr: &Expr, row: RowRef<'_, '_>, params: &[DbValue]) -> Result<bool, DbError> {
    match expr {
        Expr::Not(e) => Ok(!holds(e, row, params)?),
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => Ok(holds(left, row, params)? && holds(right, row, params)?),
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => Ok(holds(left, row, params)? || holds(right, row, params)?),
        Expr::Binary { op, left, right } => {
            let leaves = leaf(left, row, params).zip(leaf(right, row, params));
            match leaves.and_then(|(l, r)| compare(*op, l, r)) {
                Some(b) => Ok(b),
                None => Ok(truthy(&*eval(expr, row, params)?)),
            }
        }
        e => Ok(truthy(&*eval(e, row, params)?)),
    }
}

pub(crate) fn truthy(v: &DbValue) -> bool {
    match v {
        DbValue::Null => false,
        DbValue::Int(i) => *i != 0,
        DbValue::Float(f) => *f != 0.0,
        DbValue::Text(s) => !s.is_empty(),
    }
}

/// The comparison operators; `None` for an arithmetic `op`.
fn compare(op: BinOp, l: &DbValue, r: &DbValue) -> Option<bool> {
    use std::cmp::Ordering::{Equal, Greater, Less};
    Some(match op {
        BinOp::Eq => l.sql_eq(r),
        BinOp::Ne => !l.is_null() && !r.is_null() && !l.sql_eq(r),
        BinOp::Lt => l.sql_cmp(r) == Some(Less),
        BinOp::Gt => l.sql_cmp(r) == Some(Greater),
        BinOp::Le => matches!(l.sql_cmp(r), Some(Less | Equal)),
        BinOp::Ge => matches!(l.sql_cmp(r), Some(Greater | Equal)),
        BinOp::Like => match (l, r) {
            (DbValue::Text(s), DbValue::Text(p)) => like_match(p, s),
            _ => false,
        },
        _ => return None,
    })
}

pub(crate) fn eval_binop(op: BinOp, l: &DbValue, r: &DbValue) -> Result<DbValue, DbError> {
    if let Some(b) = compare(op, l, r) {
        return Ok(DbValue::Int(i64::from(b)));
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if l.is_null() || r.is_null() {
                return Ok(DbValue::Null);
            }
            match (l, r) {
                (DbValue::Int(a), DbValue::Int(b)) => Ok(match op {
                    BinOp::Add => DbValue::Int(a.wrapping_add(*b)),
                    BinOp::Sub => DbValue::Int(a.wrapping_sub(*b)),
                    BinOp::Mul => DbValue::Int(a.wrapping_mul(*b)),
                    BinOp::Div => {
                        if *b == 0 {
                            DbValue::Null
                        } else {
                            DbValue::Int(a / b)
                        }
                    }
                    _ => unreachable!(),
                }),
                _ => {
                    let a = l
                        .as_f64()
                        .ok_or_else(|| DbError::invalid(format!("non-numeric operand: {l}")))?;
                    let b = r
                        .as_f64()
                        .ok_or_else(|| DbError::invalid(format!("non-numeric operand: {r}")))?;
                    Ok(match op {
                        BinOp::Add => DbValue::Float(a + b),
                        BinOp::Sub => DbValue::Float(a - b),
                        BinOp::Mul => DbValue::Float(a * b),
                        BinOp::Div => {
                            if b == 0.0 {
                                DbValue::Null
                            } else {
                                DbValue::Float(a / b)
                            }
                        }
                        _ => unreachable!(),
                    })
                }
            }
        }
        // Row evaluation short-circuits these in `holds`; only an
        // aggregate expression (`COUNT(*) > 1 AND …`) lands here.
        BinOp::And => Ok(DbValue::Int(i64::from(truthy(l) && truthy(r)))),
        BinOp::Or => Ok(DbValue::Int(i64::from(truthy(l) || truthy(r)))),
        _ => unreachable!("comparisons returned above"),
    }
}

/// Case-insensitive SQL `LIKE` with `%` (any run) and `_` (any char),
/// matching MySQL's default collation behaviour. ASCII input — every
/// TPC-W title and name — is compared in place; anything else goes
/// through `to_lowercase` first, so `İ`, `ß` and friends fold the way
/// Unicode says (`_` then stands for one lowercased `char`).
pub(crate) fn like_match(pattern: &str, text: &str) -> bool {
    if pattern.is_ascii() && text.is_ascii() {
        return wildcard_match(pattern.as_bytes(), text.as_bytes(), b'%', b'_', |a, b| {
            a.eq_ignore_ascii_case(&b)
        });
    }
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    let t: Vec<char> = text.to_lowercase().chars().collect();
    wildcard_match(&p, &t, '%', '_', |a, b| a.eq_ignore_ascii_case(&b))
}

/// The literal of a `%literal%` pattern whose literal is ASCII and
/// holds no wildcard: the shape where `like_match` is a case-folded
/// substring test ([`contains_ignore_ascii_case`]). `None` otherwise.
pub(crate) fn infix_literal(pattern: &str) -> Option<&str> {
    let lit = pattern.strip_prefix('%')?.strip_suffix('%')?;
    (lit.is_ascii() && !lit.contains(['%', '_'])).then_some(lit)
}

/// Whether `text` contains the ASCII `needle`, ASCII case folded.
/// Agrees with `like_match("%needle%", text)` whenever it says yes; on
/// a non-ASCII `text` a no can still be a Unicode-folded match (`K`,
/// the Kelvin sign, lowercases to `k`), so callers re-check those
/// with `like_match`.
#[inline]
pub(crate) fn contains_ignore_ascii_case(text: &[u8], needle: &[u8]) -> bool {
    let Some(&first) = needle.first() else {
        return true;
    };
    let Some(last_start) = text.len().checked_sub(needle.len()) else {
        return false;
    };
    // `b | 0x20` folds ASCII letters to lower case and leaves every
    // byte that equals `first` equal: a cheap superset test for where a
    // match can start, confirmed by the full comparison.
    let fold = first | 0x20;
    text[..=last_start]
        .iter()
        .enumerate()
        .any(|(i, &b)| b | 0x20 == fold && text[i..i + needle.len()].eq_ignore_ascii_case(needle))
}

/// Iterative two-pointer wildcard match: on a mismatch, resume after
/// the most recent `any` with its run one element longer. An earlier
/// `any` never needs revisiting (whatever it could absorb the later
/// one can too), so the cost is O(pattern × text) however many
/// wildcards the pattern holds — the pattern comes from the client.
fn wildcard_match<T: Copy + PartialEq>(
    p: &[T],
    t: &[T],
    any: T,
    one: T,
    eq: impl Fn(T, T) -> bool,
) -> bool {
    let (mut pi, mut ti) = (0, 0);
    // (pattern position after the last `any`, text position its run ends at)
    let mut resume: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && p[pi] == any {
            pi += 1;
            resume = Some((pi, ti));
        } else if pi < p.len() && (p[pi] == one || eq(p[pi], t[ti])) {
            pi += 1;
            ti += 1;
        } else if let Some((after_any, run_end)) = resume {
            pi = after_any;
            ti = run_end + 1;
            resume = Some((after_any, ti));
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|c| *c == any)
}

/// Splits a WHERE tree into top-level AND conjuncts.
pub(crate) fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = conjuncts(left);
            out.extend(conjuncts(right));
            out
        }
        e => vec![e],
    }
}

/// Whether every column in `expr` resolves against `binder` (used to
/// apply predicates as early as possible during joins).
pub(crate) fn is_resolvable(expr: &Expr, binder: &Binder<'_>) -> bool {
    match expr {
        Expr::Column(c) => binder.resolve(c).is_ok(),
        Expr::Literal(_) | Expr::Param(_) | Expr::Slot(..) => true,
        Expr::Not(e) | Expr::Neg(e) | Expr::IsNull { expr: e, .. } => is_resolvable(e, binder),
        Expr::Binary { left, right, .. } => {
            is_resolvable(left, binder) && is_resolvable(right, binder)
        }
        Expr::InList { expr, list, .. } => {
            is_resolvable(expr, binder) && list.iter().all(|e| is_resolvable(e, binder))
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            is_resolvable(expr, binder) && is_resolvable(low, binder) && is_resolvable(high, binder)
        }
        Expr::Aggregate { .. } | Expr::Unbound(_) => false,
    }
}

/// Which side of a JOIN's `ON a = b` belongs to the already-bound
/// tables and which to the newly bound one: `(outer, inner)`.
pub(crate) fn join_sides<'j>(
    join: &'j Join,
    new_table: &BoundTable<'_>,
    prev: &Binder<'_>,
) -> (&'j ColRef, &'j ColRef) {
    let right_is_new = new_table
        .data
        .schema()
        .column_index(&join.on_right.column)
        .is_some()
        && join
            .on_right
            .table
            .as_deref()
            .map(|t| t == new_table.name)
            .unwrap_or(prev.resolve(&join.on_right).is_err());
    if right_is_new {
        (&join.on_left, &join.on_right)
    } else {
        (&join.on_right, &join.on_left)
    }
}

/// Whether a SELECT needs the aggregating projection.
pub(crate) fn select_has_aggregate(sel: &SelectStmt) -> bool {
    !sel.group_by.is_empty()
        || sel.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.has_aggregate(),
            SelectItem::Star => false,
        })
}

/// Output column name for a select item.
pub(crate) fn item_name(expr: &Expr, alias: &Option<String>) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        Expr::Column(c) => c.column.clone(),
        Expr::Aggregate { func, .. } => func.name().to_string(),
        _ => "expr".to_string(),
    }
}

/// Where an ORDER BY key comes from.
#[derive(Debug)]
enum OrderBy {
    /// An output column, referenced by alias / output name.
    Output(usize),
    Expr(BoundExpr),
}

/// Everything downstream of row production — projection or
/// aggregation, ORDER BY, LIMIT/OFFSET — bound once, at plan time,
/// against the full table list.
#[derive(Debug)]
pub(crate) struct Tail {
    columns: Vec<String>,
    /// One expression per output column (`*` already expanded).
    items: Vec<BoundExpr>,
    /// `Some` for an aggregating SELECT: the GROUP BY column addresses,
    /// or the resolution error to raise when it runs.
    group_by: Option<Result<Vec<(usize, usize)>, DbError>>,
    star: bool,
    order: Vec<(OrderBy, bool)>,
    /// LIMIT/OFFSET see no row, so there is nothing to bind them to.
    limit: Option<Expr>,
    offset: Option<Expr>,
}

impl Tail {
    pub(crate) fn bind(sel: &SelectStmt, binder: &Binder<'_>) -> Tail {
        let aggregate = select_has_aggregate(sel);
        let (mut columns, mut items, mut star) = (Vec::new(), Vec::new(), false);
        for item in &sel.items {
            match item {
                SelectItem::Star => {
                    star = true;
                    for (slot, bound) in binder.tables.iter().enumerate() {
                        for (i, col) in bound.data.schema().columns().iter().enumerate() {
                            columns.push(col.name.clone());
                            items.push(BoundExpr(Expr::Slot(slot, i)));
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    columns.push(item_name(expr, alias));
                    items.push(binder.bind(expr));
                }
            }
        }
        let order = sel
            .order_by
            .iter()
            .map(|(expr, desc)| {
                // A bare name may refer to an output column: always in
                // an aggregating SELECT, otherwise only when it is not
                // also an (unambiguous) input column.
                let output = match expr {
                    Expr::Column(c)
                        if c.table.is_none() && (aggregate || binder.resolve(c).is_err()) =>
                    {
                        columns.iter().position(|n| *n == c.column)
                    }
                    _ => None,
                };
                let by = output.map_or_else(|| OrderBy::Expr(binder.bind(expr)), OrderBy::Output);
                (by, *desc)
            })
            .collect();
        Tail {
            columns,
            items,
            group_by: aggregate.then(|| sel.group_by.iter().map(|c| binder.resolve(c)).collect()),
            star,
            order,
            limit: sel.limit.clone(),
            offset: sel.offset.clone(),
        }
    }

    /// The ORDER BY keys as a top-k window's keys: `(slot, keys)` with
    /// every key addressed to a lone row of table `slot`, when the
    /// SELECT does not aggregate, has a LIMIT, and every key reads that
    /// one table (and at least one reads a column). `None` otherwise.
    pub(crate) fn window_keys(&self, tables: usize) -> Option<(usize, WindowKeys)> {
        if self.group_by.is_some() || self.limit.is_none() {
            return None;
        }
        let exprs: Vec<(&BoundExpr, bool)> = self
            .order
            .iter()
            .map(|(by, desc)| match by {
                OrderBy::Output(i) => (&self.items[*i], *desc),
                OrderBy::Expr(e) => (e, *desc),
            })
            .collect();
        let reads_a_column = |e: &BoundExpr| {
            !all_leaves(&mut e.0.clone(), &mut |leaf| {
                !matches!(leaf, Expr::Slot(..))
            })
        };
        if !exprs.iter().any(|(e, _)| reads_a_column(e)) {
            return None;
        }
        (0..tables).find_map(|slot| {
            let keys = exprs
                .iter()
                .map(|(e, desc)| Some((e.local_to(slot)?, *desc)))
                .collect::<Option<WindowKeys>>()?;
            Some((slot, keys))
        })
    }

    /// EXPLAIN detail for the sort node when ORDER BY meets LIMIT — the
    /// bounded top-k shape: `top-k 50` (limit + offset), or `top-k ?`
    /// when a count is a parameter.
    pub(crate) fn top_k_detail(&self) -> Option<String> {
        let literal = |e: &Expr| match e {
            Expr::Literal(v) => v.as_int(),
            _ => None,
        };
        let limit = self.limit.as_ref().filter(|_| !self.order.is_empty())?;
        let k = literal(limit)
            .zip(self.offset.as_ref().map_or(Some(0), literal))
            .map(|(limit, offset)| limit.saturating_add(offset));
        Some(k.map_or_else(|| "top-k ?".to_string(), |k| format!("top-k {k}")))
    }

    /// OFFSET and LIMIT, evaluated (they see no row): `(offset, limit)`.
    pub(crate) fn counts(
        &self,
        params: &[DbValue],
    ) -> Result<(Option<usize>, Option<usize>), DbError> {
        let count = |e: &Option<Expr>| -> Result<Option<usize>, DbError> {
            let Some(e) = e else { return Ok(None) };
            let n = eval(e, &[], params)?
                .as_int()
                .filter(|n| *n >= 0)
                .ok_or_else(|| DbError::invalid("LIMIT/OFFSET must be a non-negative integer"))?;
            Ok(Some(n as usize))
        };
        Ok((count(&self.offset)?, count(&self.limit)?))
    }

    /// The result holding the projections of joined rows `kept` of
    /// `rows` (`stride` slots each), in that order — the only rows
    /// cloned out of the tables.
    pub(crate) fn project(
        &self,
        rows: &[&[DbValue]],
        stride: usize,
        params: &[DbValue],
        kept: impl IntoIterator<Item = usize>,
        scanned: u64,
    ) -> Result<QueryResult, DbError> {
        let kept = kept.into_iter();
        let mut out = Vec::with_capacity(kept.size_hint().0);
        for i in kept {
            let row = &rows[i * stride..][..stride];
            let cells = self
                .items
                .iter()
                .map(|e| Ok(e.eval(row, params)?.into_owned()));
            out.push(cells.collect::<Result<Vec<DbValue>, DbError>>()?);
        }
        Ok(self.result(out, scanned))
    }

    fn result(&self, rows: Vec<Vec<DbValue>>, scanned: u64) -> QueryResult {
        QueryResult {
            columns: self.columns.clone(),
            rows,
            rows_affected: 0,
            rows_scanned: scanned,
        }
    }
}

/// The tail of SELECT execution: projection/aggregation, ORDER BY,
/// LIMIT/OFFSET. `rows` holds `stride` slots per joined row, back to
/// back. Only the rows inside the LIMIT/OFFSET window are projected
/// (cloned out of the tables). `scanned` is the rows the scan and join
/// nodes visited; the tail visits no stored row of its own.
///
/// With `want_boundary`, also returns the joined-row number of the last
/// row of a non-aggregating ORDER BY window that ended before the input
/// did — the top-k boundary a read set records. `None` when the window
/// reached the end or is empty.
pub(crate) fn finish_select(
    tail: &Tail,
    rows: &[&[DbValue]],
    stride: usize,
    params: &[DbValue],
    scanned: u64,
    want_boundary: bool,
) -> Result<(QueryResult, Option<usize>), DbError> {
    let (offset, limit) = tail.counts(params)?;
    if let Some(group_by) = &tail.group_by {
        let group_by = group_by.as_ref().map_err(Clone::clone)?;
        let (mut out, keys) = aggregate_project(tail, group_by, rows, stride, params)?;
        let (kept, _) = window(out.len(), &keys, &tail.order, offset, limit);
        let out = kept.into_iter().map(|i| std::mem::take(&mut out[i]));
        return Ok((tail.result(out.collect(), scanned), None));
    }
    // ORDER BY keys by reference (from the *input* row, so sorting can
    // use non-projected columns), then project the survivors.
    let n = rows.len() / stride;
    let mut keys = Vec::with_capacity(n * tail.order.len());
    // lint: hot_path — once per joined row; keys borrow from the tables
    for row in rows.chunks_exact(stride) {
        for (by, _) in &tail.order {
            keys.push(match by {
                OrderBy::Output(i) => tail.items[*i].eval(row, params)?,
                OrderBy::Expr(e) => e.eval(row, params)?,
            });
        }
    }
    // lint: end_hot_path
    let (kept, last) = window(n, &keys, &tail.order, offset, limit);
    let boundary = last.filter(|_| want_boundary);
    Ok((tail.project(rows, stride, params, kept, scanned)?, boundary))
}

/// Row numbers in ORDER BY order, sorted only as far as asked. Rows
/// compare by key (`total_cmp`, reversed for `DESC`), then by arrival
/// — a total order, so any prefix holds exactly the rows, in exactly
/// the order, that a stable sort would put there, ties included.
/// `keys` holds `order.len()` keys per row, back to back.
pub(crate) struct Sorted<'s, 'v, T> {
    keys: &'s [Cow<'v, DbValue>],
    order: &'s [(T, bool)],
    /// `idx[..sorted]` is in order and sorts before every row after it.
    idx: Vec<usize>,
    sorted: usize,
}

impl<'s, 'v, T> Sorted<'s, 'v, T> {
    pub(crate) fn new(n: usize, keys: &'s [Cow<'v, DbValue>], order: &'s [(T, bool)]) -> Self {
        Sorted {
            keys,
            order,
            idx: (0..n).collect(),
            sorted: 0,
        }
    }

    /// The first `k` rows in order (all of them when there are fewer):
    /// a `select_nth_unstable_by` and a sort of only the rows that were
    /// not in place yet, O(n + k log k) over the rows left.
    pub(crate) fn first(&mut self, k: usize) -> &[usize] {
        let k = k.min(self.idx.len());
        if k > self.sorted {
            let (keys, order) = (self.keys, self.order);
            // lint: hot_path — the comparator runs O(n + k log k) times per call
            let width = order.len();
            let cmp = |a: &usize, b: &usize| {
                for (i, (_, desc)) in order.iter().enumerate() {
                    let ord = keys[a * width + i].total_cmp(&keys[b * width + i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                a.cmp(b)
            };
            let rest = &mut self.idx[self.sorted..];
            let want = k - self.sorted;
            if want < rest.len() {
                rest.select_nth_unstable_by(want - 1, cmp);
            }
            rest[..want].sort_unstable_by(cmp);
            // lint: end_hot_path
            self.sorted = k;
        }
        &self.idx[..k]
    }
}

/// ORDER BY + OFFSET + LIMIT over `n` rows whose sort keys lie back to
/// back in `keys`: the row numbers of the result window, in output
/// order ([`Sorted`]; unordered rows keep arrival order). Also returns
/// the boundary: under an ORDER BY, the last row up to the window's end
/// when rows remain after it.
fn window(
    n: usize,
    keys: &[Cow<'_, DbValue>],
    order: &[(OrderBy, bool)],
    offset: Option<usize>,
    limit: Option<usize>,
) -> (Vec<usize>, Option<usize>) {
    let start = offset.unwrap_or(0).min(n);
    let end = limit.map_or(n, |l| start.saturating_add(l).min(n));
    if order.is_empty() {
        return ((start..end).collect(), None);
    }
    let mut sorted = Sorted::new(n, keys, order);
    let last = sorted.first(end).last().copied();
    let mut idx = sorted.idx;
    idx.truncate(end);
    idx.drain(..start);
    (idx, last.filter(|_| end < n))
}

/// Projected group rows plus their ORDER BY keys (`order.len()` per row).
type Aggregated<'a> = (Vec<Vec<DbValue>>, Vec<Cow<'a, DbValue>>);

/// GROUP BY / aggregate projection; ORDER BY may reference output
/// columns by (alias) name or repeat an aggregate expression.
fn aggregate_project<'a>(
    tail: &'a Tail,
    group_by: &[(usize, usize)],
    rows: &[&'a [DbValue]],
    stride: usize,
    params: &'a [DbValue],
) -> Result<Aggregated<'a>, DbError> {
    // Group rows, groups in first-seen order.
    let mut groups: Vec<Vec<RowRef<'_, 'a>>> = Vec::new();
    let mut index: HashMap<Vec<crate::value::IndexKey>, usize> = HashMap::new();
    for row in rows.chunks_exact(stride) {
        let key = group_by
            .iter()
            .map(|&(s, c)| row[s][c].index_key())
            .collect();
        match index.get(&key) {
            Some(&g) => groups[g].push(row),
            None => {
                index.insert(key, groups.len());
                groups.push(vec![row]);
            }
        }
    }
    // A global aggregate over zero rows still yields one group.
    if groups.is_empty() && group_by.is_empty() {
        groups.push(Vec::new());
    }
    if tail.star {
        return Err(DbError::invalid("SELECT * is not valid with GROUP BY"));
    }

    let mut out_rows = Vec::with_capacity(groups.len());
    let mut order_keys = Vec::with_capacity(groups.len() * tail.order.len());
    for group in &groups {
        let mut out = Vec::with_capacity(tail.items.len());
        for item in &tail.items {
            out.push(eval_over_group(&item.0, group, params)?.into_owned());
        }
        for (by, _) in &tail.order {
            order_keys.push(match by {
                OrderBy::Output(i) => Cow::Owned(out[*i].clone()),
                OrderBy::Expr(e) => eval_over_group(&e.0, group, params)?,
            });
        }
        out_rows.push(out);
    }
    Ok((out_rows, order_keys))
}

/// Evaluates a select-item expression over one group (aggregates see
/// the whole group; plain columns see the group's first row).
fn eval_over_group<'a>(
    expr: &'a Expr,
    group: &[RowRef<'_, 'a>],
    params: &'a [DbValue],
) -> Result<Cow<'a, DbValue>, DbError> {
    match expr {
        Expr::Aggregate { func, arg } => {
            eval_aggregate(*func, arg.as_deref(), group, params).map(Cow::Owned)
        }
        e if !e.has_aggregate() => match group.first() {
            Some(row) => eval(e, row, params),
            None => Ok(Cow::Owned(DbValue::Null)),
        },
        Expr::Binary { op, left, right } => {
            let l = eval_over_group(left, group, params)?;
            let r = eval_over_group(right, group, params)?;
            eval_binop(*op, &l, &r).map(Cow::Owned)
        }
        Expr::Neg(e) => {
            let v = eval_over_group(e, group, params)?;
            Ok(match *v {
                DbValue::Int(i) => Cow::Owned(DbValue::Int(-i)),
                DbValue::Float(f) => Cow::Owned(DbValue::Float(-f)),
                _ => v,
            })
        }
        e => Err(DbError::invalid(format!(
            "unsupported aggregate expression: {e:?}"
        ))),
    }
}

fn eval_aggregate<'a>(
    func: AggFunc,
    arg: Option<&'a Expr>,
    group: &[RowRef<'_, 'a>],
    params: &'a [DbValue],
) -> Result<DbValue, DbError> {
    match func {
        AggFunc::Count => match arg {
            None => Ok(DbValue::Int(group.len() as i64)),
            Some(a) => {
                let mut n = 0;
                for row in group {
                    if !eval(a, row, params)?.is_null() {
                        n += 1;
                    }
                }
                Ok(DbValue::Int(n))
            }
        },
        AggFunc::Sum | AggFunc::Avg => {
            let a = arg.ok_or_else(|| DbError::invalid("SUM/AVG need an argument"))?;
            let mut sum = 0.0;
            let mut all_int = true;
            let mut n = 0u64;
            for row in group {
                let v = eval(a, row, params)?;
                if v.is_null() {
                    continue;
                }
                if !matches!(*v, DbValue::Int(_)) {
                    all_int = false;
                }
                sum += v
                    .as_f64()
                    .ok_or_else(|| DbError::invalid("SUM/AVG over non-numeric value"))?;
                n += 1;
            }
            if n == 0 {
                return Ok(DbValue::Null);
            }
            if func == AggFunc::Avg {
                Ok(DbValue::Float(sum / n as f64))
            } else if all_int {
                Ok(DbValue::Int(sum as i64))
            } else {
                Ok(DbValue::Float(sum))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let a = arg.ok_or_else(|| DbError::invalid("MIN/MAX need an argument"))?;
            let mut best: Option<Cow<'a, DbValue>> = None;
            for row in group {
                let v = eval(a, row, params)?;
                if v.is_null() {
                    continue;
                }
                let keep_new = match best.as_ref().map(|b| v.total_cmp(b)) {
                    None => true,
                    Some(std::cmp::Ordering::Less) => func == AggFunc::Min,
                    Some(std::cmp::Ordering::Greater) => func == AggFunc::Max,
                    Some(std::cmp::Ordering::Equal) => false,
                };
                if keep_new {
                    best = Some(v);
                }
            }
            Ok(best.map_or(DbValue::Null, Cow::into_owned))
        }
    }
}

/// The single table of a write statement, bound under its own name.
fn bind_target<'a>(table: &'a TableData, name: &str) -> BoundTable<'a> {
    BoundTable {
        name: name.to_string(),
        table: name.to_string(),
        data: table,
    }
}

/// Executes INSERT into a write-locked table. When `changes` is given
/// (a write observer is installed), records the new row for the commit
/// notification.
pub(crate) fn run_insert(
    table: &mut TableData,
    columns: &[String],
    values: &[Expr],
    params: &[DbValue],
    stats: &mut ExecStats,
    changes: Option<&mut Changes>,
) -> Result<usize, DbError> {
    let schema = table.schema().clone();
    let mut row = vec![DbValue::Null; schema.arity()];
    for (name, expr) in columns.iter().zip(values) {
        let idx = schema
            .column_index(name)
            .ok_or_else(|| DbError::NoSuchColumn(name.clone()))?;
        // VALUES see no row.
        let mut v = eval(expr, &[], params)?.into_owned();
        // Coerce integer literals into FLOAT columns.
        if schema.columns()[idx].dtype == crate::schema::DataType::Float {
            if let DbValue::Int(i) = v {
                v = DbValue::Float(i as f64);
            }
        }
        row[idx] = v;
    }
    let after = changes.as_ref().map(|_| row.clone());
    table.insert(row)?;
    if let Some(changes) = changes {
        changes.push(schema.primary_key(), None, after);
    }
    stats.written += 1;
    Ok(1)
}

/// Executes UPDATE against a write-locked table. When `changes` is
/// given, records each affected row: the image the table hands back as
/// replaced and a copy of the new one.
pub(crate) fn run_update(
    table: &mut TableData,
    table_name: &str,
    sets: &[(String, Expr)],
    where_: &Option<Expr>,
    params: &[DbValue],
    stats: &mut ExecStats,
    mut changes: Option<&mut Changes>,
) -> Result<usize, DbError> {
    let set_cols: Vec<usize> = sets
        .iter()
        .map(|(name, _)| {
            table
                .schema()
                .column_index(name)
                .ok_or_else(|| DbError::NoSuchColumn(name.clone()))
        })
        .collect::<Result<_, _>>()?;
    let pk = table.schema().primary_key();
    let (candidates, where_, set_exprs) = {
        let target = [bind_target(table, table_name)];
        let binder = Binder { tables: &target };
        let set_exprs: Vec<BoundExpr> = sets.iter().map(|(_, e)| binder.bind(e)).collect();
        (
            candidate_ids(&target[0], where_, params)?,
            where_.as_ref().map(|w| binder.bind(w)),
            set_exprs,
        )
    };
    let mut affected = 0;
    for id in candidates {
        let Some(row) = table.row(id) else { continue };
        stats.scanned += 1;
        if let Some(w) = &where_ {
            if !w.holds(&[row], params)? {
                continue;
            }
        }
        let mut new_row = row.to_vec();
        for (&col, expr) in set_cols.iter().zip(&set_exprs) {
            new_row[col] = expr.eval(&[row], params)?.into_owned();
        }
        let after = changes.as_ref().map(|_| new_row.clone());
        let before = table.update_row(id, new_row)?;
        if let Some(changes) = changes.as_deref_mut() {
            changes.push(pk, Some(before), after);
        }
        affected += 1;
        stats.written += 1;
    }
    Ok(affected)
}

/// Executes DELETE against a write-locked table. When `changes` is
/// given, records each deleted row as the table hands it back.
pub(crate) fn run_delete(
    table: &mut TableData,
    table_name: &str,
    where_: &Option<Expr>,
    params: &[DbValue],
    stats: &mut ExecStats,
    mut changes: Option<&mut Changes>,
) -> Result<usize, DbError> {
    let pk = table.schema().primary_key();
    let target = [bind_target(table, table_name)];
    let candidates = candidate_ids(&target[0], where_, params)?;
    let where_ = where_.as_ref().map(|w| Binder { tables: &target }.bind(w));
    let mut to_delete = Vec::new();
    for id in candidates {
        let Some(row) = table.row(id) else { continue };
        stats.scanned += 1;
        let keep = match &where_ {
            Some(w) => w.holds(&[row], params)?,
            None => true,
        };
        if keep {
            to_delete.push(id);
        }
    }
    for &id in &to_delete {
        let before = table.delete_row(id);
        if let Some(changes) = changes.as_deref_mut() {
            changes.push(pk, before, None);
        }
        stats.written += 1;
    }
    Ok(to_delete.len())
}

/// Candidate row IDs for UPDATE/DELETE: the bucket of the first
/// `col = constant` conjunct on an indexed column, else every live row.
fn candidate_ids(
    target: &BoundTable<'_>,
    where_: &Option<Expr>,
    params: &[DbValue],
) -> Result<Vec<usize>, DbError> {
    let conjs = where_.as_ref().map(conjuncts).unwrap_or_default();
    match conjs.iter().find_map(|c| planner::match_eq(c, target)) {
        Some((col, key)) => Ok(target.data.lookup_eq(col, &key.resolve(params)?).to_vec()),
        None => Ok(target.data.iter_live().map(|(id, _)| id).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition `like_match` replaced: backtracks on every `%`, so
    /// it is only safe on short inputs — which is all it sees here.
    fn like_match_recursive(pattern: &str, text: &str) -> bool {
        fn rec(p: &[char], t: &[char]) -> bool {
            match p.split_first() {
                None => t.is_empty(),
                Some(('%', rest)) => (0..=t.len()).any(|k| rec(rest, &t[k..])),
                Some(('_', rest)) => !t.is_empty() && rec(rest, &t[1..]),
                Some((c, rest)) => {
                    !t.is_empty() && t[0].eq_ignore_ascii_case(c) && rec(rest, &t[1..])
                }
            }
        }
        let p: Vec<char> = pattern.to_lowercase().chars().collect();
        let t: Vec<char> = text.to_lowercase().chars().collect();
        rec(&p, &t)
    }

    #[test]
    fn like_matching() {
        assert!(like_match("%book%", "The Book of Rust"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%", ""));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(like_match("abc", "ABC"));
        assert!(like_match("%x", "zzzx"));
        assert!(!like_match("x%", "zx"));
        assert!(like_match("%a%b%", "xxaxxbxx"));
        // Non-ASCII folds through `to_lowercase`, one `_` per char.
        assert!(like_match("stra_e", "STRAßE"));
        assert!(like_match("%İ%", "xi\u{307}y"));
        assert!(!like_match("_", "ß!"));
    }

    /// A client-supplied pattern must not buy more than pattern × text
    /// work: ten `%` against 200 characters took the recursive matcher
    /// longer than the universe has.
    #[test]
    fn like_is_not_exponential_in_wildcards() {
        let text = "a".repeat(200);
        let t0 = std::time::Instant::now();
        assert!(!like_match("%a%a%a%a%a%a%a%a%b%", &text));
        assert!(like_match("%a%a%a%a%a%a%a%a%a%", &text));
        assert!(t0.elapsed() < std::time::Duration::from_millis(10));
    }

    proptest::proptest! {
        #[test]
        fn like_agrees_with_the_recursive_definition(
            pattern in "[%_abAİßı\u{301}k\u{212a} ]{0,7}",
            literal in "[%_abAKkİ ]{0,4}",
            text in "[abABİßıi\u{301}\u{307}kK\u{212a} ]{0,10}",
        ) {
            proptest::prop_assert_eq!(
                like_match(&pattern, &text),
                like_match_recursive(&pattern, &text),
                "pattern {:?} text {:?}", pattern, text
            );
            // `%literal%`: the scan kernel's substring test, with its
            // `like_match` re-check on non-ASCII text, where it applies.
            let infix = format!("%{literal}%");
            let wanted = like_match_recursive(&infix, &text);
            proptest::prop_assert_eq!(
                like_match(&infix, &text), wanted,
                "pattern {:?} text {:?}", infix, text
            );
            if let Some(needle) = infix_literal(&infix) {
                let kernel = contains_ignore_ascii_case(text.as_bytes(), needle.as_bytes())
                    || (!text.is_ascii() && like_match(&infix, &text));
                proptest::prop_assert_eq!(
                    kernel, wanted,
                    "kernel: pattern {:?} text {:?}", infix, text
                );
                // Its signature prefilter passes every text it accepts.
                let bits = crate::table::bigrams(needle.as_bytes());
                let sig = crate::table::signature(&DbValue::from(text.as_str()));
                proptest::prop_assert!(
                    !kernel || sig & bits == bits,
                    "prefilter: pattern {:?} text {:?}", infix, text
                );
            }
        }
    }

    #[test]
    fn truthiness() {
        assert!(!truthy(&DbValue::Null));
        assert!(!truthy(&DbValue::Int(0)));
        assert!(truthy(&DbValue::Int(2)));
        assert!(!truthy(&DbValue::Text(String::new())));
        assert!(truthy(&DbValue::Text("x".into())));
    }

    #[test]
    fn binop_arithmetic() {
        assert_eq!(
            eval_binop(BinOp::Add, &DbValue::Int(2), &DbValue::Int(3)).unwrap(),
            DbValue::Int(5)
        );
        assert_eq!(
            eval_binop(BinOp::Mul, &DbValue::Float(1.5), &DbValue::Int(2)).unwrap(),
            DbValue::Float(3.0)
        );
        assert_eq!(
            eval_binop(BinOp::Div, &DbValue::Int(1), &DbValue::Int(0)).unwrap(),
            DbValue::Null
        );
        assert_eq!(
            eval_binop(BinOp::Add, &DbValue::Null, &DbValue::Int(1)).unwrap(),
            DbValue::Null
        );
        assert!(eval_binop(BinOp::Add, &DbValue::Text("a".into()), &DbValue::Int(1)).is_err());
    }

    #[test]
    fn binop_comparisons_with_null() {
        assert_eq!(
            eval_binop(BinOp::Eq, &DbValue::Null, &DbValue::Null).unwrap(),
            DbValue::Int(0)
        );
        assert_eq!(
            eval_binop(BinOp::Ne, &DbValue::Null, &DbValue::Int(1)).unwrap(),
            DbValue::Int(0)
        );
        assert_eq!(
            eval_binop(BinOp::Lt, &DbValue::Int(1), &DbValue::Int(2)).unwrap(),
            DbValue::Int(1)
        );
    }
}
