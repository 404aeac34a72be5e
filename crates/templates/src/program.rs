//! The compiled instruction-stream renderer (the request hot path).
//!
//! [`Program::compile`] flattens the parsed AST into a `Vec<Op>` with
//! pre-resolved jump targets, pre-parsed variable paths (map keys vs.
//! list indices are classified once, at compile time) and interned
//! loop-variable names; the parser has already resolved filter names to
//! [`Filter`]s.
//! [`execute`] renders a program into a caller-supplied `Vec<u8>`
//! without cloning context values: resolution returns borrows into the
//! [`Context`] wherever possible — a query-result [`Table`]'s rows and
//! cells included — and only clones when a value was produced by a
//! filter chain (which already owns it). Per render, each include is
//! looked up in the store once, and each `{{ row.column }}` of a table
//! loop finds its column index once per loop. It is the only template
//! evaluator; the TPC-W page goldens (`crates/tpcw/tests/page_goldens.rs`)
//! pin its output on real pages.

use crate::ast::{FilterExpr, Node, Operand};
use crate::error::TemplateError;
use crate::filters::{self, write_str, Filter, FILTERS};
use crate::parser::TAGS;
use crate::render::Template;
use crate::store::TemplateStore;
use crate::value::{Context, Table, Value};
use std::borrow::Cow;
use std::cell::RefCell;
use std::io::Write as _;
use std::sync::Arc;

/// Maximum `{% include %}` nesting depth.
const MAX_INCLUDE_DEPTH: usize = 16;

/// A pre-parsed path segment: numeric segments index lists, the rest
/// look up map keys — decided once at compile time instead of a
/// `str::parse` per segment per render.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Seg {
    Key(Box<str>),
    Index(usize),
}

/// A compiled dotted path: a name, looked up among the loop variables
/// and then in the context, and the segments below it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CPath {
    root: Arc<str>,
    segs: Box<[Seg]>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum COperand {
    Literal(Value),
    Path(CPath),
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CFilter {
    kind: Filter,
    arg: Option<COperand>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CExpr {
    base: COperand,
    filters: Box<[CFilter]>,
}

/// One instruction of the flat stream. Jump targets are absolute
/// indices into the owning program's op vector.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// Emit literal text.
    Text(Box<str>),
    /// Evaluate and emit an expression, auto-escaped.
    Var(CExpr),
    /// Jump to `target` when the expression is not truthy.
    BranchIfNot { cond: CExpr, target: usize },
    /// Unconditional jump.
    Jump(usize),
    /// Evaluate the iterable; jump to `empty_target` when it has no
    /// items, otherwise push a loop frame and fall through into the
    /// body.
    ForStart {
        var: Arc<str>,
        iterable: CExpr,
        empty_target: usize,
    },
    /// Advance the innermost loop: jump to `back` while items remain,
    /// otherwise pop the frame and jump to `end`.
    ForIter { back: usize, end: usize },
    /// Execute another template's program in the current state.
    Include { name: Box<str> },
}

/// A compiled template body: the flat instruction stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Program {
    ops: Vec<Op>,
}

impl Program {
    pub(crate) fn compile(nodes: &[Node]) -> Self {
        let mut ops = Vec::new();
        compile_nodes(nodes, &mut ops);
        Program { ops }
    }

    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The block tags ([`TAGS`]) this program was compiled from, each
    /// once, in table order. An `else` or `empty` branch shows as a jump
    /// that skips a non-empty stretch of ops.
    pub(crate) fn tags(&self) -> Vec<&'static str> {
        // Indexed as TAGS: if, else, for, empty, include.
        let mut used = [false; TAGS.len()];
        for (at, op) in self.ops.iter().enumerate() {
            match op {
                Op::BranchIfNot { target, .. } => {
                    used[0] = true;
                    // The body ends in a jump to the end of the `if`.
                    used[1] |= matches!(self.ops[target - 1], Op::Jump(end) if end > *target);
                }
                Op::ForStart { .. } => used[2] = true,
                Op::ForIter { end, .. } => used[3] |= *end > at + 1,
                Op::Include { .. } => used[4] = true,
                Op::Text(_) | Op::Var(_) | Op::Jump(_) => {}
            }
        }
        TAGS.into_iter()
            .zip(used)
            .filter_map(|(t, u)| u.then_some(t))
            .collect()
    }

    /// The filters ([`FILTERS`]) this program applies, each once, in
    /// table order.
    pub(crate) fn filters(&self) -> Vec<&'static str> {
        let mut used = [false; FILTERS.len()];
        for op in &self.ops {
            let expr = match op {
                Op::Var(e) | Op::BranchIfNot { cond: e, .. } => e,
                Op::ForStart { iterable, .. } => iterable,
                _ => continue,
            };
            for f in expr.filters.iter() {
                used[f.kind as usize] = true;
            }
        }
        FILTERS
            .into_iter()
            .zip(used)
            .filter_map(|(f, u)| u.then_some(f))
            .collect()
    }
}

fn compile_path(path: &[String]) -> CPath {
    let (root, rest) = match path.split_first() {
        Some((first, rest)) => (Arc::from(first.as_str()), rest),
        None => (Arc::from(""), &[][..]),
    };
    let segs = rest
        .iter()
        .map(|s| match s.parse::<usize>() {
            Ok(i) => Seg::Index(i),
            Err(_) => Seg::Key(s.as_str().into()),
        })
        .collect();
    CPath { root, segs }
}

fn compile_operand(op: &Operand) -> COperand {
    match op {
        Operand::Literal(v) => COperand::Literal(v.clone()),
        Operand::Path(p) => COperand::Path(compile_path(p)),
    }
}

fn compile_expr(expr: &FilterExpr) -> CExpr {
    CExpr {
        base: compile_operand(&expr.base),
        filters: expr
            .filters
            .iter()
            .map(|f| CFilter {
                kind: f.kind,
                arg: f.arg.as_ref().map(compile_operand),
            })
            .collect(),
    }
}

fn compile_nodes(nodes: &[Node], ops: &mut Vec<Op>) {
    for node in nodes {
        match node {
            Node::Text(t) => ops.push(Op::Text(t.as_str().into())),
            Node::Var(expr) => ops.push(Op::Var(compile_expr(expr))),
            Node::If {
                cond,
                body,
                else_body,
            } => {
                let branch_at = ops.len();
                ops.push(Op::BranchIfNot {
                    cond: compile_expr(cond),
                    target: 0,
                });
                compile_nodes(body, ops);
                let jump_at = ops.len();
                ops.push(Op::Jump(0));
                let else_start = ops.len();
                compile_nodes(else_body, ops);
                let end = ops.len();
                if let Op::BranchIfNot { target, .. } = &mut ops[branch_at] {
                    *target = else_start;
                }
                ops[jump_at] = Op::Jump(end);
            }
            Node::For {
                var,
                iterable,
                body,
                empty,
            } => {
                let start_at = ops.len();
                ops.push(Op::ForStart {
                    var: Arc::from(var.as_str()),
                    iterable: compile_expr(iterable),
                    empty_target: 0,
                });
                let body_start = ops.len();
                compile_nodes(body, ops);
                let iter_at = ops.len();
                ops.push(Op::ForIter {
                    back: body_start,
                    end: 0,
                });
                let empty_start = ops.len();
                compile_nodes(empty, ops);
                let end = ops.len();
                if let Op::ForStart { empty_target, .. } = &mut ops[start_at] {
                    *empty_target = empty_start;
                }
                if let Op::ForIter { end: e, .. } = &mut ops[iter_at] {
                    *e = end;
                }
            }
            Node::Include { name } => ops.push(Op::Include {
                name: name.as_str().into(),
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------

/// Where a loop's items come from. Borrowed variants keep the context's
/// allocation; owned variants hold filter-produced data that the frame
/// now owns. String sources iterate as borrowed one-character slices —
/// no per-character `String`s.
#[derive(Debug)]
enum FrameSrc<'a> {
    BorrowedList(&'a [Value]),
    OwnedList(Vec<Value>),
    BorrowedStr(&'a str),
    OwnedStr(String),
    BorrowedKeys(Vec<&'a str>),
    OwnedKeys(Vec<String>),
    SingleBorrowed(&'a Value),
    SingleOwned(Value),
    BorrowedTable(&'a Table),
    OwnedTable(Box<Table>),
}

#[derive(Debug)]
struct Frame<'a> {
    /// The loop variable, which names the current item.
    var: Arc<str>,
    src: FrameSrc<'a>,
    /// Table loops: the column index each `{{ row.key }}` resolved to,
    /// keyed by the address of the compiled key (programs are immutable
    /// and alive for the whole render), so a key is searched among the
    /// column names on the first row only.
    columns: RefCell<Vec<(usize, Option<usize>)>>,
    /// Iteration number (0-based).
    index: usize,
    /// Total iterations (character count for strings).
    len: usize,
    /// Byte offset of the current character (string sources).
    byte_pos: usize,
    /// Byte length of the current character (string sources).
    char_len: usize,
}

impl<'a> Frame<'a> {
    fn new(var: Arc<str>, src: FrameSrc<'a>) -> Option<Self> {
        let (len, char_len) = match &src {
            FrameSrc::BorrowedList(l) => (l.len(), 0),
            FrameSrc::OwnedList(l) => (l.len(), 0),
            FrameSrc::BorrowedStr(s) => (
                s.chars().count(),
                s.chars().next().map_or(0, char::len_utf8),
            ),
            FrameSrc::OwnedStr(s) => (
                s.chars().count(),
                s.chars().next().map_or(0, char::len_utf8),
            ),
            FrameSrc::BorrowedKeys(k) => (k.len(), 0),
            FrameSrc::OwnedKeys(k) => (k.len(), 0),
            FrameSrc::SingleBorrowed(_) | FrameSrc::SingleOwned(_) => (1, 0),
            FrameSrc::BorrowedTable(t) => (t.len(), 0),
            FrameSrc::OwnedTable(t) => (t.len(), 0),
        };
        if len == 0 {
            return None;
        }
        let columns = match &src {
            FrameSrc::BorrowedTable(t) => Vec::with_capacity(t.columns().len()),
            FrameSrc::OwnedTable(t) => Vec::with_capacity(t.columns().len()),
            _ => Vec::new(),
        };
        Some(Frame {
            var,
            src,
            columns: RefCell::new(columns),
            index: 0,
            len,
            byte_pos: 0,
            char_len,
        })
    }

    fn advance(&mut self) {
        self.index += 1;
        match &self.src {
            FrameSrc::BorrowedStr(s) => {
                self.byte_pos += self.char_len;
                self.char_len = s[self.byte_pos..].chars().next().map_or(0, char::len_utf8);
            }
            FrameSrc::OwnedStr(s) => {
                self.byte_pos += self.char_len;
                self.char_len = s[self.byte_pos..].chars().next().map_or(0, char::len_utf8);
            }
            _ => {}
        }
    }

    fn current<'r>(&'r self) -> Res<'a, 'r> {
        match &self.src {
            FrameSrc::BorrowedList(l) => Res::Ctx(&l[self.index]),
            FrameSrc::OwnedList(l) => Res::Rt(&l[self.index]),
            FrameSrc::BorrowedStr(s) => {
                Res::CtxStr(&s[self.byte_pos..self.byte_pos + self.char_len])
            }
            FrameSrc::OwnedStr(s) => Res::RtStr(&s[self.byte_pos..self.byte_pos + self.char_len]),
            FrameSrc::BorrowedKeys(k) => Res::CtxStr(k[self.index]),
            FrameSrc::OwnedKeys(k) => Res::RtStr(&k[self.index]),
            FrameSrc::SingleBorrowed(v) => Res::Ctx(v),
            FrameSrc::SingleOwned(v) => Res::Rt(v),
            FrameSrc::BorrowedTable(t) => Res::CtxRow(t, self.index),
            FrameSrc::OwnedTable(t) => Res::RtRow(t, self.index),
        }
    }

    /// The current row's cell in the column named `key`, for a table
    /// loop; `None` for other loops. A missing column is `Null`.
    fn cell<'r>(&'r self, key: &str) -> Option<Res<'a, 'r>> {
        let table: &Table = match &self.src {
            FrameSrc::BorrowedTable(t) => t,
            FrameSrc::OwnedTable(t) => t,
            _ => return None,
        };
        let id = key.as_ptr() as usize;
        let mut memo = self.columns.borrow_mut();
        let col = match memo.iter().find(|(k, _)| *k == id) {
            Some(&(_, col)) => col,
            None => {
                let col = table.column_index(key);
                memo.push((id, col));
                col
            }
        };
        Some(match (&self.src, col) {
            (_, None) => Res::Null,
            (FrameSrc::BorrowedTable(t), Some(c)) => Res::Ctx(&t.row(self.index)?[c]),
            (_, Some(c)) => Res::Rt(&table.row(self.index)?[c]),
        })
    }
}

/// Render-time state, shared across includes.
struct Rt<'a> {
    ctx: &'a Context,
    store: Option<&'a TemplateStore>,
    /// Open loops, innermost last; each binds its variable.
    frames: Vec<Frame<'a>>,
    include_depth: usize,
    /// Templates included so far, keyed by the address of the include
    /// op's name: one store lookup per include per render, not per row.
    includes: Vec<(usize, Arc<Template>)>,
}

/// A resolved value. `Ctx*` variants borrow from the context and stay
/// valid across frame pushes; `Rt*` variants borrow from render-time
/// state (frames, program literals) and must be consumed (or cloned)
/// before the state is mutated.
#[derive(Debug)]
enum Res<'a, 'r> {
    Ctx(&'a Value),
    Rt(&'r Value),
    CtxStr(&'a str),
    RtStr(&'r str),
    /// Row `usize` of a context table.
    CtxRow(&'a Table, usize),
    /// Row `usize` of a render-time table.
    RtRow(&'r Table, usize),
    Owned(Value),
    Null,
}

impl Res<'_, '_> {
    fn is_truthy(&self) -> bool {
        match self {
            Res::Ctx(v) | Res::Rt(v) => v.is_truthy(),
            Res::CtxStr(s) | Res::RtStr(s) => !s.is_empty(),
            // A row is truthy as the map of its columns would be.
            Res::CtxRow(t, _) | Res::RtRow(t, _) => !t.columns().is_empty(),
            Res::Owned(v) => v.is_truthy(),
            Res::Null => false,
        }
    }

    /// The text of a string value, borrowed.
    fn as_text(&self) -> Option<&str> {
        match self {
            Res::Ctx(Value::Str(s)) | Res::Rt(Value::Str(s)) | Res::Owned(Value::Str(s)) => Some(s),
            Res::CtxStr(s) | Res::RtStr(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view, as [`Value::as_f64`] of the resolved value.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Res::Ctx(v) | Res::Rt(v) => v.as_f64(),
            Res::Owned(v) => v.as_f64(),
            Res::CtxStr(s) | Res::RtStr(s) => s.trim().parse().ok(),
            Res::CtxRow(..) | Res::RtRow(..) | Res::Null => None,
        }
    }

    /// Borrow as a full [`Value`] for the filter path, materializing
    /// only string slices and whole table rows (rare: one-character loop
    /// items, map keys or rows used as values).
    fn as_value(&self) -> Cow<'_, Value> {
        match self {
            Res::Ctx(v) | Res::Rt(v) => Cow::Borrowed(*v),
            Res::Owned(v) => Cow::Borrowed(v),
            Res::CtxStr(s) | Res::RtStr(s) => Cow::Owned(Value::Str((*s).to_string())),
            Res::CtxRow(t, i) | Res::RtRow(t, i) => Cow::Owned(t.row_value(*i)),
            Res::Null => Cow::Owned(Value::Null),
        }
    }

    /// Take ownership (filter input): clones a borrowed value, moves
    /// an owned one.
    fn into_value(self) -> Value {
        match self {
            Res::Ctx(v) | Res::Rt(v) => v.clone(),
            Res::Owned(v) => v,
            Res::CtxStr(s) | Res::RtStr(s) => Value::Str(s.to_string()),
            Res::CtxRow(t, i) | Res::RtRow(t, i) => t.row_value(i),
            Res::Null => Value::Null,
        }
    }
}

/// Walks pre-parsed segments from a cursor. Owned cursors move their
/// sub-values out (`remove`/`swap_remove`) instead of cloning.
fn walk_segs<'a, 'r>(mut cur: Res<'a, 'r>, segs: &[Seg]) -> Res<'a, 'r> {
    for seg in segs {
        cur = match cur {
            Res::Ctx(v) => match (v, seg) {
                (Value::Table(t), Seg::Index(i)) if *i < t.len() => Res::CtxRow(t, *i),
                (_, Seg::Key(k)) => v.get(k).map(Res::Ctx).unwrap_or(Res::Null),
                (_, Seg::Index(i)) => v.index(*i).map(Res::Ctx).unwrap_or(Res::Null),
            },
            Res::Rt(v) => match (v, seg) {
                (Value::Table(t), Seg::Index(i)) if *i < t.len() => Res::RtRow(t, *i),
                (_, Seg::Key(k)) => v.get(k).map(Res::Rt).unwrap_or(Res::Null),
                (_, Seg::Index(i)) => v.index(*i).map(Res::Rt).unwrap_or(Res::Null),
            },
            Res::CtxRow(t, i) => match seg {
                Seg::Key(k) => column(t, i, k).map(Res::Ctx).unwrap_or(Res::Null),
                Seg::Index(_) => Res::Null,
            },
            Res::RtRow(t, i) => match seg {
                Seg::Key(k) => column(t, i, k).map(Res::Rt).unwrap_or(Res::Null),
                Seg::Index(_) => Res::Null,
            },
            Res::Owned(v) => match (v, seg) {
                (Value::Map(mut m), Seg::Key(k)) => {
                    m.remove(&**k).map(Res::Owned).unwrap_or(Res::Null)
                }
                (Value::List(mut l), Seg::Index(i)) if *i < l.len() => {
                    Res::Owned(l.swap_remove(*i))
                }
                (Value::Table(t), Seg::Index(i)) if *i < t.len() => Res::Owned(t.row_value(*i)),
                _ => Res::Null,
            },
            Res::CtxStr(_) | Res::RtStr(_) | Res::Null => Res::Null,
        };
    }
    cur
}

/// The cell of row `row` in the column named `key`.
fn column<'t>(table: &'t Table, row: usize, key: &str) -> Option<&'t Value> {
    Some(&table.row(row)?[table.column_index(key)?])
}

fn resolve<'a, 'r>(rt: &'r Rt<'a>, path: &'r CPath) -> Res<'a, 'r> {
    let cur = match rt.frames.iter().rev().find(|f| f.var == path.root) {
        Some(frame) => {
            if let Some((Seg::Key(k), rest)) = path.segs.split_first() {
                if let Some(cell) = frame.cell(k) {
                    return walk_segs(cell, rest);
                }
            }
            frame.current()
        }
        None => rt.ctx.get(&path.root).map(Res::Ctx).unwrap_or(Res::Null),
    };
    walk_segs(cur, &path.segs)
}

fn operand<'a, 'r>(rt: &'r Rt<'a>, op: &'r COperand) -> Res<'a, 'r> {
    match op {
        COperand::Literal(v) => Res::Rt(v),
        COperand::Path(p) => resolve(rt, p),
    }
}

fn eval<'a, 'r>(rt: &'r Rt<'a>, expr: &'r CExpr) -> Result<Res<'a, 'r>, TemplateError> {
    apply_filters(rt, operand(rt, &expr.base), &expr.filters)
}

/// Runs a filter chain over `base`. The first filter reads `base` in
/// place; each later one takes over its predecessor's output.
fn apply_filters<'a, 'r>(
    rt: &'r Rt<'a>,
    base: Res<'a, 'r>,
    chain: &'r [CFilter],
) -> Result<Res<'a, 'r>, TemplateError> {
    if chain.is_empty() {
        return Ok(base);
    }
    let mut value: Option<Value> = None;
    for filter in chain {
        let arg = filter.arg.as_ref().map(|a| operand(rt, a));
        let arg = arg.as_ref().map(Res::as_value);
        let input = match value.take() {
            Some(v) => Cow::Owned(v),
            None => base.as_value(),
        };
        value = Some(filters::apply(filter.kind, input, arg.as_deref())?);
    }
    Ok(Res::Owned(value.unwrap_or_default()))
}

/// Evaluates `{{ expr }}` into `out`. A chain ending in `default`,
/// `floatformat`, `title` or `urlencode` writes its last step straight
/// into the buffer — the chosen operand as it resolved, the formatted
/// number, the re-cased or encoded text — never an intermediate
/// `Value`.
fn write_var(rt: &Rt<'_>, expr: &CExpr, out: &mut Vec<u8>) -> Result<(), TemplateError> {
    let direct = expr.filters.split_last().filter(|(last, _)| {
        matches!(
            last.kind,
            Filter::Default | Filter::Floatformat | Filter::Title | Filter::Urlencode
        )
    });
    let Some((last, chain)) = direct else {
        write_res(&eval(rt, expr)?, out);
        return Ok(());
    };
    let input = apply_filters(rt, operand(rt, &expr.base), chain)?;
    let arg = last.arg.as_ref().map(|a| operand(rt, a));
    match (&last.kind, input.as_text()) {
        (Filter::Default, _) => {
            let arg =
                arg.ok_or_else(|| TemplateError::render("filter 'default' requires an argument"))?;
            write_res(if input.is_truthy() { &input } else { &arg }, out);
        }
        (Filter::Floatformat, _) => {
            let digits = filters::floatformat_digits(arg.as_ref().map(Res::as_value).as_deref())?;
            let x = input
                .as_f64()
                .ok_or_else(|| TemplateError::render("floatformat input must be numeric"))?;
            // Digits, a sign and a point: nothing to escape.
            filters::write_floatformat(x, digits, out);
        }
        (Filter::Title, Some(text)) => filters::write_title(text, true, out),
        (Filter::Urlencode, Some(text)) => filters::write_urlencoded(text, out),
        // Not text: through the filter's `Value` form.
        _ => {
            let arg = arg.as_ref().map(Res::as_value);
            write_display(
                &filters::apply(last.kind, input.as_value(), arg.as_deref())?,
                out,
            );
        }
    }
    Ok(())
}

/// Builds a loop frame source from an evaluated iterable, preserving
/// context borrows and taking ownership of filter-produced values.
/// Returns `None` for empty/`Null` iterables (the `{% empty %}` path).
fn frame_src<'a>(res: Res<'a, '_>) -> Option<FrameSrc<'a>> {
    match res {
        Res::Ctx(v) => match v {
            Value::List(l) => Some(FrameSrc::BorrowedList(l)),
            Value::Table(t) => Some(FrameSrc::BorrowedTable(t)),
            Value::Str(s) => Some(FrameSrc::BorrowedStr(s)),
            Value::Map(m) => Some(FrameSrc::BorrowedKeys(
                m.keys().map(String::as_str).collect(),
            )),
            Value::Null => None,
            other => Some(FrameSrc::SingleBorrowed(other)),
        },
        Res::Rt(v) => match v {
            Value::List(l) => Some(FrameSrc::OwnedList(l.clone())),
            Value::Table(t) => Some(FrameSrc::OwnedTable(t.clone())),
            Value::Str(s) => Some(FrameSrc::OwnedStr(s.clone())),
            Value::Map(m) => Some(FrameSrc::OwnedKeys(m.keys().cloned().collect())),
            Value::Null => None,
            other => Some(FrameSrc::SingleOwned(other.clone())),
        },
        Res::Owned(v) => match v {
            Value::List(l) => Some(FrameSrc::OwnedList(l)),
            Value::Table(t) => Some(FrameSrc::OwnedTable(t)),
            Value::Str(s) => Some(FrameSrc::OwnedStr(s)),
            Value::Map(m) => Some(FrameSrc::OwnedKeys(m.into_keys().collect())),
            Value::Null => None,
            other => Some(FrameSrc::SingleOwned(other)),
        },
        Res::CtxStr(s) => Some(FrameSrc::BorrowedStr(s)),
        Res::RtStr(s) => Some(FrameSrc::OwnedStr(s.to_string())),
        // A row iterates as the map of its columns: its keys.
        row @ (Res::CtxRow(..) | Res::RtRow(..)) => frame_src(Res::Owned(row.into_value())),
        Res::Null => None,
    }
}

/// Streams a value's display form, byte-identical to
/// `escape_html(value.to_display_string())`, straight into the output
/// buffer. Numbers go through `io::Write` formatting — no intermediate
/// `String`.
fn write_display(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => {}
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::Int(i) => filters::write_int(*i, out),
        Value::Float(f) => {
            if f.fract() == 0.0 && f.abs() < 1e15 {
                let _ = write!(out, "{f:.1}");
            } else {
                let _ = write!(out, "{f}");
            }
        }
        Value::Str(s) => write_str(s, true, out),
        Value::List(l) => {
            out.push(b'[');
            for (i, item) in l.iter().enumerate() {
                if i > 0 {
                    out.extend_from_slice(b", ");
                }
                write_display(item, out);
            }
            out.push(b']');
        }
        Value::Map(m) => {
            out.push(b'{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.extend_from_slice(b", ");
                }
                write_str(k, true, out);
                out.extend_from_slice(b": ");
                write_display(val, out);
            }
            out.push(b'}');
        }
        Value::Table(t) => {
            out.push(b'[');
            for i in 0..t.len() {
                if i > 0 {
                    out.extend_from_slice(b", ");
                }
                write_display(&t.row_value(i), out);
            }
            out.push(b']');
        }
    }
}

fn write_res(res: &Res<'_, '_>, out: &mut Vec<u8>) {
    match res {
        Res::Ctx(v) | Res::Rt(v) => write_display(v, out),
        Res::Owned(v) => write_display(v, out),
        Res::CtxStr(s) | Res::RtStr(s) => write_str(s, true, out),
        Res::CtxRow(t, i) | Res::RtRow(t, i) => write_display(&t.row_value(*i), out),
        Res::Null => {}
    }
}

/// Runs a compiled program, appending output to `out`.
pub(crate) fn render_program(
    program: &Program,
    ctx: &Context,
    store: Option<&TemplateStore>,
    out: &mut Vec<u8>,
) -> Result<(), TemplateError> {
    let mut rt = Rt {
        ctx,
        store,
        frames: Vec::new(),
        include_depth: 0,
        includes: Vec::new(),
    };
    execute(program.ops(), &mut rt, out)
}

fn execute(ops: &[Op], rt: &mut Rt<'_>, out: &mut Vec<u8>) -> Result<(), TemplateError> {
    let mut pc = 0;
    while let Some(op) = ops.get(pc) {
        match op {
            Op::Text(t) => {
                out.extend_from_slice(t.as_bytes());
                pc += 1;
            }
            Op::Var(expr) => {
                write_var(rt, expr, out)?;
                pc += 1;
            }
            Op::BranchIfNot { cond, target } => {
                if eval(rt, cond)?.is_truthy() {
                    pc += 1;
                } else {
                    pc = *target;
                }
            }
            Op::Jump(target) => pc = *target,
            Op::ForStart {
                var,
                iterable,
                empty_target,
                ..
            } => {
                let frame =
                    frame_src(eval(rt, iterable)?).and_then(|src| Frame::new(Arc::clone(var), src));
                match frame {
                    Some(frame) => {
                        rt.frames.push(frame);
                        pc += 1;
                    }
                    None => pc = *empty_target,
                }
            }
            Op::ForIter { back, end } => {
                let frame = rt.frames.last_mut().expect("ForIter without frame");
                if frame.index + 1 < frame.len {
                    frame.advance();
                    pc = *back;
                } else {
                    rt.frames.pop();
                    pc = *end;
                }
            }
            Op::Include { name } => {
                let store = rt.store.ok_or_else(|| {
                    TemplateError::render(format!(
                        "include of '{name}' requires rendering through a TemplateStore"
                    ))
                })?;
                if rt.include_depth >= MAX_INCLUDE_DEPTH {
                    return Err(TemplateError::render(format!(
                        "include depth exceeds {MAX_INCLUDE_DEPTH} (template '{name}')"
                    )));
                }
                let key = name.as_ptr() as usize;
                let template = match rt.includes.iter().find(|(k, _)| *k == key) {
                    Some((_, t)) => Arc::clone(t),
                    None => {
                        let t = store.get(name)?;
                        rt.includes.push((key, Arc::clone(&t)));
                        t
                    }
                };
                rt.include_depth += 1;
                let result = execute(template.program().ops(), rt, out);
                rt.include_depth -= 1;
                result?;
                pc += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::store::TemplateStore;
    use crate::value::{Context, Value};
    use std::collections::BTreeMap;

    fn ctx_with_everything() -> Context {
        let mut book = BTreeMap::new();
        book.insert("title".to_string(), Value::from("Dune & <Co>"));
        book.insert("price".to_string(), Value::Float(7.5));
        let mut ctx = Context::new();
        ctx.insert("title", "A \"quoted\" <title>");
        ctx.insert("n", 7);
        ctx.insert("zero", 0);
        ctx.insert("pi", 3.0);
        ctx.insert("flag", true);
        ctx.insert("s", "héllo");
        ctx.insert("empty_list", Value::List(vec![]));
        ctx.insert(
            "xs",
            Value::from(vec!["a&b".into(), "c".into(), "d".into()]),
        );
        ctx.insert("books", Value::from(vec![Value::from(book.clone())]));
        ctx.insert("book", Value::from(book));
        ctx.insert(
            "rows",
            Value::from(vec![
                Value::from(vec!["x".into(), "y".into()]),
                Value::from(vec!["z".into()]),
            ]),
        );
        ctx
    }

    #[test]
    fn compiled_matches_tree_on_core_constructs() {
        let store = TemplateStore::new();
        // (name, source, rendered bytes).
        let sources = [
            (
                "plain",
                "hello {{ title }} world",
                "hello A &quot;quoted&quot; &lt;title&gt; world",
            ),
            ("missing", "[{{ nothing }}|{{ nothing.deep.er }}]", "[|]"),
            (
                "escape",
                "{{ title }}|{{ title|default:'x' }}|{{ nothing|default:'<b>' }}",
                "A &quot;quoted&quot; &lt;title&gt;|A &quot;quoted&quot; &lt;title&gt;\
                 |&lt;b&gt;",
            ),
            (
                "dotted",
                "{{ books.0.title }}:{{ books.5.title }}:{{ book.price }}",
                "Dune &amp; &lt;Co&gt;::7.5",
            ),
            (
                "branches",
                "{% if n %}N{% else %}no{% endif %}{% if zero %}Z{% else %}z{% endif %}\
                 {% if empty_list %}E{% endif %}{% if xs|length %}L{% endif %}",
                "NzL",
            ),
            (
                "loops",
                "{% for x in xs %}{{ x }};{% endfor %}\
                 {% for x in empty_list %}no{% empty %}EMPTY{% endfor %}\
                 {% for c in s %}({{ c }}){% endfor %}\
                 {% for k in book %}{{ k }},{% endfor %}\
                 {% for one in n %}[{{ one }}]{% endfor %}",
                "a&amp;b;c;d;EMPTY(h)(é)(l)(l)(o)price,title,[7]",
            ),
            (
                "nested",
                "{% for row in rows %}{% for c in row %}{{ c }}{% endfor %}/{% endfor %}",
                "xy/z/",
            ),
            (
                "filters",
                "{{ xs|slice:\":2\"|length }}|{{ s|title }}|{{ pi|floatformat:2 }}\
                 |{{ nothing|default:'dft' }}|{{ s|length }}|{{ n|pluralize }}",
                "2|Héllo|3.00|dft|5|s",
            ),
            (
                "shadow",
                "{% for n in xs %}{{ n }}{% endfor %}{{ n }}",
                "a&amp;bcd7",
            ),
            (
                "display_types",
                "{{ xs }}|{{ book }}|{{ flag }}|{{ pi }}|{{ zero }}",
                "[a&amp;b, c, d]|{price: 7.5, title: Dune &amp; &lt;Co&gt;}|true|3.0|0",
            ),
        ];
        for (name, src, _) in sources {
            store.insert(name, src).unwrap();
        }
        store
            .insert(
                "includer",
                "A{% include \"plain\" %}B{% include \"loops\" %}C",
            )
            .unwrap();
        let ctx = ctx_with_everything();
        for (name, _, expected) in sources {
            assert_eq!(store.render(name, &ctx).unwrap(), expected, "{name}");
        }
        assert_eq!(
            store.render("includer", &ctx).unwrap(),
            "Ahello A &quot;quoted&quot; &lt;title&gt; world\
             Ba&amp;b;c;d;EMPTY(h)(é)(l)(l)(o)price,title,[7]C"
        );
    }

    #[test]
    fn loop_vars_visible_inside_includes() {
        let store = TemplateStore::new();
        store.insert("inner", "{{ x }}:{{ y }};").unwrap();
        store
            .insert(
                "outer",
                "{% for x in xs %}{% include \"inner\" %}{% endfor %}",
            )
            .unwrap();
        let mut ctx = Context::new();
        ctx.insert("xs", Value::from(vec!["p".into(), "q".into()]));
        ctx.insert("y", "ctx");
        let html = store.render("outer", &ctx).unwrap();
        assert_eq!(html, "p:ctx;q:ctx;");
    }

    #[test]
    fn string_iteration_multibyte_chars() {
        let store = TemplateStore::new();
        store
            .insert("t", "{% for c in s %}<{{ c }}>{% endfor %}")
            .unwrap();
        let mut ctx = Context::new();
        ctx.insert("s", "aé日");
        let html = store.render("t", &ctx).unwrap();
        assert_eq!(html, "<a><é><日>");
    }

    #[test]
    fn forloop_outside_loop_is_null() {
        let store = TemplateStore::new();
        store
            .insert("t", "[{{ forloop }}{{ forloop.counter }}]")
            .unwrap();
        let html = store.render("t", &Context::new()).unwrap();
        assert_eq!(html, "[]");
    }

    #[test]
    fn render_into_appends_to_buffer() {
        let store = TemplateStore::new();
        store.insert("t", "{{ x }}").unwrap();
        let mut ctx = Context::new();
        ctx.insert("x", "tail");
        let mut buf = b"head:".to_vec();
        store.render_into("t", &ctx, &mut buf).unwrap();
        assert_eq!(buf, b"head:tail");
    }
}
