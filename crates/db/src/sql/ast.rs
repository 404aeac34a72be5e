//! The SQL abstract syntax tree.

use crate::error::DbError;
use crate::schema::Column;
use crate::value::DbValue;

/// A reference to a column, optionally qualified by table name/alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ColRef {
    pub table: Option<String>,
    pub column: String,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
    Like,
    Add,
    Sub,
    Mul,
    Div,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub(crate) fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// A scalar (or aggregate) expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    Column(ColRef),
    Literal(DbValue),
    /// Positional `?` parameter (0-based).
    Param(usize),
    /// A bound column: `(table slot, column)` in the row the evaluator
    /// is handed. Never parsed — `exec::Binder::bind` rewrites every
    /// `Column` leaf into this (or `Unbound`) before evaluation.
    Slot(usize, usize),
    /// A column name that did not resolve at bind time; evaluating it
    /// raises the error.
    Unbound(DbError),
    Not(Box<Expr>),
    Neg(Box<Expr>),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, …)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `COUNT(*)` is `Aggregate { func: Count, arg: None }`.
    Aggregate {
        func: AggFunc,
        arg: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Whether this expression contains an aggregate call.
    pub(crate) fn has_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Not(e) | Expr::Neg(e) | Expr::IsNull { expr: e, .. } => e.has_aggregate(),
            Expr::Binary { left, right, .. } => left.has_aggregate() || right.has_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.has_aggregate() || list.iter().any(Expr::has_aggregate)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.has_aggregate() || low.has_aggregate() || high.has_aggregate(),
            _ => false,
        }
    }
}

/// One item of a SELECT projection.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SelectItem {
    /// `SELECT *`
    Star,
    /// An expression with an optional `AS alias`.
    Expr { expr: Expr, alias: Option<String> },
}

/// A table in FROM/JOIN with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referenced by in column qualifiers.
    pub(crate) fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// `JOIN table ON left = right` (inner equi-join).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Join {
    pub table: TableRef,
    pub on_left: ColRef,
    pub on_right: ColRef,
}

/// A full SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub from: TableRef,
    pub joins: Vec<Join>,
    pub where_: Option<Expr>,
    pub group_by: Vec<ColRef>,
    /// `(expression, descending)` pairs.
    pub order_by: Vec<(Expr, bool)>,
    pub limit: Option<Expr>,
    pub offset: Option<Expr>,
}

/// Any parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Statement {
    CreateTable {
        name: String,
        columns: Vec<Column>,
        primary_key: Option<usize>,
    },
    CreateIndex {
        table: String,
        column: String,
    },
    Insert {
        table: String,
        columns: Vec<String>,
        values: Vec<Expr>,
    },
    Select(SelectStmt),
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        where_: Option<Expr>,
    },
    Delete {
        table: String,
        where_: Option<Expr>,
    },
}

impl Statement {
    /// Names of all tables the statement touches (for lock acquisition).
    pub(crate) fn table_names(&self) -> Vec<&str> {
        match self {
            Statement::CreateTable { name, .. } => vec![name],
            Statement::CreateIndex { table, .. } => vec![table],
            Statement::Insert { table, .. } => vec![table],
            Statement::Update { table, .. } => vec![table],
            Statement::Delete { table, .. } => vec![table],
            Statement::Select(s) => {
                let mut names = vec![s.from.table.as_str()];
                names.extend(s.joins.iter().map(|j| j.table.table.as_str()));
                names
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_aggregate_detection() {
        let agg = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::Literal(DbValue::Int(1)))),
        };
        assert!(agg.has_aggregate());
        let nested = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::Literal(DbValue::Int(1))),
            right: Box::new(agg),
        };
        assert!(nested.has_aggregate());
        assert!(!Expr::Literal(DbValue::Int(1)).has_aggregate());
    }

    #[test]
    fn effective_name_prefers_alias() {
        let t = TableRef {
            table: "orders".into(),
            alias: Some("o".into()),
        };
        assert_eq!(t.effective_name(), "o");
        let t = TableRef {
            table: "orders".into(),
            alias: None,
        };
        assert_eq!(t.effective_name(), "orders");
    }

    #[test]
    fn table_names_cover_joins() {
        let stmt = Statement::Select(SelectStmt {
            items: vec![SelectItem::Star],
            from: TableRef {
                table: "a".into(),
                alias: None,
            },
            joins: vec![Join {
                table: TableRef {
                    table: "b".into(),
                    alias: None,
                },
                on_left: ColRef {
                    table: None,
                    column: "x".into(),
                },
                on_right: ColRef {
                    table: None,
                    column: "y".into(),
                },
            }],
            where_: None,
            group_by: vec![],
            order_by: vec![],
            limit: None,
            offset: None,
        });
        assert_eq!(stmt.table_names(), vec!["a", "b"]);
    }
}
