//! Template data: [`Value`] and [`Context`].

use std::collections::BTreeMap;
use std::fmt;

/// A value renderable by a template: the dynamic data a handler
/// produces (the `data` dictionary of the paper's Figure 2).
///
/// # Examples
///
/// ```
/// use staged_templates::Value;
///
/// let v = Value::from(vec![Value::from(1), Value::from("two")]);
/// assert_eq!(v.index(1).unwrap().to_display_string(), "two");
/// assert!(v.is_truthy());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// Absent / null.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered list.
    List(Vec<Value>),
    /// A string-keyed map: a record of scalars the handler computed.
    Map(BTreeMap<String, Value>),
    /// A column-named row table: a query result, moved in whole.
    Table(Box<Table>),
}

impl Value {
    /// Django-style truthiness: `Null`, `false`, `0`, `0.0`, `""`, empty
    /// list, empty map and a table without rows are falsy.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Map(m) => !m.is_empty(),
            Value::Table(t) => !t.is_empty(),
        }
    }

    /// Looks up a map key. Table rows are not values; templates reach
    /// them as `table.N` and their cells as `table.N.column`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(m) => m.get(key),
            _ => None,
        }
    }

    /// Looks up a list element.
    pub fn index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::List(l) => l.get(i),
            _ => None,
        }
    }

    /// Number of elements (list), entries (map), rows (table), or
    /// characters (string).
    pub fn len(&self) -> Option<usize> {
        match self {
            Value::List(l) => Some(l.len()),
            Value::Map(m) => Some(m.len()),
            Value::Table(t) => Some(t.len()),
            Value::Str(s) => Some(s.chars().count()),
            _ => None,
        }
    }

    /// Whether the collection/string is empty; `None` for scalars.
    pub fn is_empty(&self) -> Option<bool> {
        self.len().map(|n| n == 0)
    }

    /// Renders the value as display text (what `{{ x }}` emits, before
    /// escaping). `Null` renders as an empty string, like Django's
    /// missing-variable behaviour.
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{f:.1}")
                } else {
                    f.to_string()
                }
            }
            Value::Str(s) => s.clone(),
            Value::List(l) => {
                let items: Vec<String> = l.iter().map(Value::to_display_string).collect();
                format!("[{}]", items.join(", "))
            }
            Value::Map(m) => {
                let items: Vec<String> = m
                    .iter()
                    .map(|(k, v)| format!("{k}: {}", v.to_display_string()))
                    .collect();
                format!("{{{}}}", items.join(", "))
            }
            Value::Table(t) => {
                let rows: Vec<String> = (0..t.len())
                    .map(|i| t.row_value(i).to_display_string())
                    .collect();
                format!("[{}]", rows.join(", "))
            }
        }
    }

    /// Numeric view (ints and parseable strings included), used by
    /// arithmetic filters.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(s) => s.trim().parse().ok(),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u64> for Value {
    fn from(i: u64) -> Self {
        Value::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(l: Vec<Value>) -> Self {
        Value::List(l)
    }
}

impl From<BTreeMap<String, Value>> for Value {
    fn from(m: BTreeMap<String, Value>) -> Self {
        Value::Map(m)
    }
}

impl From<Table> for Value {
    fn from(t: Table) -> Self {
        Value::Table(Box::new(t))
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        match o {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::List(iter.into_iter().collect())
    }
}

impl FromIterator<(String, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Value::Map(iter.into_iter().collect())
    }
}

/// A column-named row table — the shape of a query result. A handler
/// moves its result rows in whole (cells row-major, no per-row maps);
/// `{% for row in table %}` walks the rows, `{{ row.column }}` reads a
/// cell (resolved to a column index once per loop), `table.N` is row
/// `N`. A row reads like a map of its columns: a missing column renders
/// empty, like a missing key.
///
/// # Examples
///
/// ```
/// use staged_templates::{Context, Table, Template, Value};
///
/// let mut books = Table::new(vec!["title".into(), "cost".into()]);
/// books.push_row([Value::from("Dune"), Value::Float(9.5)]);
/// books.push_row([Value::from("Emma"), Value::Float(4.0)]);
/// let mut ctx = Context::new();
/// ctx.insert("books", books);
/// let t = Template::compile(
///     "{% for b in books %}{{ b.title }} ${{ b.cost|floatformat:2 }};{% endfor %}",
/// )
/// .unwrap();
/// assert_eq!(t.render(&ctx).unwrap(), "Dune $9.50;Emma $4.00;");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    columns: Vec<String>,
    /// Row-major, `columns.len()` cells per row.
    cells: Vec<Value>,
    rows: usize,
}

impl Table {
    /// An empty table with these column names.
    pub fn new(columns: Vec<String>) -> Self {
        Self::with_capacity(columns, 0)
    }

    /// An empty table with room for `rows` rows.
    pub fn with_capacity(columns: Vec<String>, rows: usize) -> Self {
        let cells = Vec::with_capacity(columns.len() * rows);
        Table {
            columns,
            cells,
            rows: 0,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// When the row does not have one cell per column.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Value>) {
        let before = self.cells.len();
        self.cells.extend(row);
        assert_eq!(
            self.cells.len() - before,
            self.columns.len(),
            "a table row needs one cell per column"
        );
        self.rows += 1;
    }

    /// The column names, in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Position of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The cells of row `i`, in column order.
    pub fn row(&self, i: usize) -> Option<&[Value]> {
        let width = self.columns.len();
        (i < self.rows).then(|| &self.cells[i * width..(i + 1) * width])
    }

    /// Row `i` as a map of its columns: how a row behaves wherever it
    /// is used as a whole value (printed, filtered, iterated). Empty
    /// past the end.
    pub(crate) fn row_value(&self, i: usize) -> Value {
        let cells = self.row(i).unwrap_or_default();
        self.columns
            .iter()
            .cloned()
            .zip(cells.iter().cloned())
            .collect()
    }
}

/// The rendering context: the top-level name → value bindings a handler
/// passes to a template (Django's `Context(data)`).
///
/// # Examples
///
/// ```
/// use staged_templates::{Context, Value};
///
/// let mut ctx = Context::new();
/// ctx.insert("title", "My Page");
/// ctx.insert("count", 3);
/// assert_eq!(ctx.get("count"), Some(&Value::Int(3)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Context {
    vars: BTreeMap<String, Value>,
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a name; replaces any existing binding.
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        self.vars.insert(name.into(), value.into());
    }

    /// Looks up a top-level binding.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the context has no bindings.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterates bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.vars.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, Value)> for Context {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Context {
            vars: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, Value)> for Context {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        self.vars.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_django() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
        assert!(!Value::Str(String::new()).is_truthy());
        assert!(!Value::List(vec![]).is_truthy());
        assert!(Value::Int(-1).is_truthy());
        assert!(Value::Str("x".into()).is_truthy());
        assert!(Value::from(vec![Value::Null]).is_truthy());
    }

    #[test]
    fn display_strings() {
        assert_eq!(Value::Null.to_display_string(), "");
        assert_eq!(Value::Int(42).to_display_string(), "42");
        assert_eq!(Value::Float(2.5).to_display_string(), "2.5");
        assert_eq!(Value::Float(3.0).to_display_string(), "3.0");
        assert_eq!(Value::from("hi").to_display_string(), "hi");
        assert_eq!(
            Value::from(vec![Value::Int(1), Value::Int(2)]).to_display_string(),
            "[1, 2]"
        );
    }

    #[test]
    fn lookup_helpers() {
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::Int(1));
        let map = Value::from(m);
        assert_eq!(map.get("k"), Some(&Value::Int(1)));
        assert_eq!(map.get("z"), None);
        assert_eq!(map.index(0), None);

        let list = Value::from(vec![Value::Int(9)]);
        assert_eq!(list.index(0), Some(&Value::Int(9)));
        assert_eq!(list.get("k"), None);
    }

    #[test]
    fn len_by_kind() {
        assert_eq!(Value::from("abc").len(), Some(3));
        assert_eq!(Value::from(vec![Value::Null]).len(), Some(1));
        assert_eq!(Value::Int(5).len(), None);
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::from(" 2.5 ").as_f64(), Some(2.5));
        assert_eq!(Value::from("x").as_f64(), None);
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
    }

    #[test]
    fn option_conversion() {
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
    }

    #[test]
    fn table_rows_and_columns() {
        let mut t = Table::with_capacity(vec!["a".into(), "b".into()], 2);
        assert!(!Value::from(t.clone()).is_truthy());
        t.push_row([Value::Int(1), Value::from("x")]);
        t.push_row([Value::Null, Value::from("y")]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.column_index("b"), Some(1));
        assert_eq!(t.row(1), Some(&[Value::Null, Value::from("y")][..]));
        assert_eq!(t.row(2), None);
        let v = Value::from(t);
        assert!(v.is_truthy());
        assert_eq!(v.len(), Some(2));
        assert_eq!(v.to_display_string(), "[{a: 1, b: x}, {a: , b: y}]");
    }

    #[test]
    #[should_panic(expected = "one cell per column")]
    fn table_rejects_a_short_row() {
        Table::new(vec!["a".into(), "b".into()]).push_row([Value::Int(1)]);
    }

    #[test]
    fn u64_saturates() {
        assert_eq!(Value::from(u64::MAX), Value::Int(i64::MAX));
    }

    #[test]
    fn context_bindings() {
        let mut ctx = Context::new();
        assert!(ctx.is_empty());
        ctx.insert("a", 1);
        ctx.insert("a", 2);
        assert_eq!(ctx.len(), 1);
        assert_eq!(ctx.get("a"), Some(&Value::Int(2)));
        let collected: Context = ctx
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        assert_eq!(collected, ctx);
    }
}
