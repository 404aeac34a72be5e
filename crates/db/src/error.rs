//! Database errors.

use std::error::Error;
use std::fmt;

/// Errors from parsing or executing SQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The SQL text failed to parse.
    Syntax(String),
    /// A referenced table does not exist.
    NoSuchTable(String),
    /// A referenced column does not exist or is ambiguous.
    NoSuchColumn(String),
    /// A table with this name already exists.
    TableExists(String),
    /// Inserting a duplicate value into a PRIMARY KEY / UNIQUE column.
    DuplicateKey(String),
    /// Wrong number or type of values/parameters.
    Invalid(String),
    /// A fault-injection plan failed this query (see
    /// [`FaultPlan`](crate::FaultPlan)).
    Injected(String),
    /// The connection died (injected by a fault plan); the holder must
    /// check a fresh connection out of the pool.
    ConnectionLost,
    /// The pool's circuit breaker is open: the backend has been failing
    /// past its threshold and the query was rejected without being
    /// attempted (see [`CircuitBreaker`](crate::CircuitBreaker)).
    CircuitOpen,
    /// The write-ahead log could not make the mutation durable — the
    /// append or fsync failed (or a [`CrashPlan`](crate::CrashPlan)
    /// killed it). The WAL is poisoned afterwards: every further
    /// mutation fails with this variant until the database is reopened,
    /// so the on-disk log can never silently diverge from memory.
    Durability(String),
}

impl DbError {
    /// Convenience constructor for syntax errors.
    pub fn syntax(msg: impl Into<String>) -> Self {
        DbError::Syntax(msg.into())
    }

    /// Convenience constructor for semantic errors.
    pub fn invalid(msg: impl Into<String>) -> Self {
        DbError::Invalid(msg.into())
    }

    /// Whether this error means the connection itself is dead, so
    /// retrying on the *same* connection is pointless — the caller
    /// should return it to the pool and check out a fresh one.
    pub fn is_connection_lost(&self) -> bool {
        matches!(self, DbError::ConnectionLost)
    }

    /// Whether the query was rejected by an open circuit breaker — a
    /// transient condition: the caller should degrade (a `503`) rather
    /// than treat it as a query bug.
    pub fn is_circuit_open(&self) -> bool {
        matches!(self, DbError::CircuitOpen)
    }

    /// Convenience constructor for durability failures.
    pub fn durability(msg: impl Into<String>) -> Self {
        DbError::Durability(msg.into())
    }

    /// Whether this error means durability was lost (WAL append, fsync,
    /// or checkpoint failure). The in-memory state may be ahead of the
    /// log; the database refuses further writes until reopened.
    pub fn is_durability(&self) -> bool {
        matches!(self, DbError::Durability(_))
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Syntax(m) => write!(f, "sql syntax error: {m}"),
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::DuplicateKey(k) => write!(f, "duplicate key: {k}"),
            DbError::Invalid(m) => write!(f, "invalid statement: {m}"),
            DbError::Injected(m) => write!(f, "injected fault: {m}"),
            DbError::ConnectionLost => write!(f, "database connection lost"),
            DbError::CircuitOpen => write!(f, "database circuit breaker open"),
            DbError::Durability(m) => write!(f, "durability lost: {m}"),
        }
    }
}

impl Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(
            DbError::syntax("unexpected EOF").to_string(),
            "sql syntax error: unexpected EOF"
        );
        assert_eq!(
            DbError::NoSuchTable("x".into()).to_string(),
            "no such table: x"
        );
        assert_eq!(
            DbError::DuplicateKey("id=1".into()).to_string(),
            "duplicate key: id=1"
        );
    }
}
