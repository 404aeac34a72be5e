//! Property-based tests for the embedded database: the indexed path
//! must agree with naive scans, and ordering/limits must behave like
//! their mathematical definitions.

use proptest::prelude::*;
use staged_db::{Database, DbValue};

/// Applies a random batch of inserts/updates/deletes to both an indexed
/// table and an in-memory model, then compares query answers.
#[derive(Debug, Clone)]
enum Op {
    Insert { id: i64, k: i64, v: i64 },
    Update { id: i64, k: i64 },
    Delete { id: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..40, 0i64..8, 0i64..100).prop_map(|(id, k, v)| Op::Insert { id, k, v }),
        (0i64..40, 0i64..8).prop_map(|(id, k)| Op::Update { id, k }),
        (0i64..40).prop_map(|id| Op::Delete { id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equality lookups through the secondary index return exactly the
    /// rows a full scan of the model would.
    #[test]
    fn index_agrees_with_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)", &[]).unwrap();
        db.execute("CREATE INDEX ON t (k)", &[]).unwrap();
        let mut model: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
        for op in ops {
            match op {
                Op::Insert { id, k, v } => {
                    let r = db.execute(
                        "INSERT INTO t (id, k, v) VALUES (?, ?, ?)",
                        &[DbValue::Int(id), DbValue::Int(k), DbValue::Int(v)],
                    );
                    match model.entry(id) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            prop_assert!(r.is_err(), "duplicate PK must be rejected");
                        }
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            prop_assert!(r.is_ok());
                            slot.insert((k, v));
                        }
                    }
                }
                Op::Update { id, k } => {
                    let r = db.execute(
                        "UPDATE t SET k = ? WHERE id = ?",
                        &[DbValue::Int(k), DbValue::Int(id)],
                    ).unwrap();
                    if let Some(entry) = model.get_mut(&id) {
                        prop_assert_eq!(r.rows_affected, 1);
                        entry.0 = k;
                    } else {
                        prop_assert_eq!(r.rows_affected, 0);
                    }
                }
                Op::Delete { id } => {
                    let r = db.execute(
                        "DELETE FROM t WHERE id = ?",
                        &[DbValue::Int(id)],
                    ).unwrap();
                    prop_assert_eq!(r.rows_affected, usize::from(model.remove(&id).is_some()));
                }
            }
        }
        // Compare every key's index answer against the model.
        for k in 0..8i64 {
            let got = db.execute(
                "SELECT id FROM t WHERE k = ? ORDER BY id",
                &[DbValue::Int(k)],
            ).unwrap();
            let got_ids: Vec<i64> = got.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
            let want: Vec<i64> = model.iter()
                .filter(|(_, (mk, _))| *mk == k)
                .map(|(id, _)| *id)
                .collect();
            prop_assert_eq!(got_ids, want, "k = {}", k);
        }
        let count = db.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        prop_assert_eq!(count.single_int(), Some(model.len() as i64));
    }

    /// ORDER BY produces a sorted column; LIMIT/OFFSET take the right
    /// window of the full ordering.
    #[test]
    fn order_limit_offset_window(
        values in proptest::collection::vec(-50i64..50, 1..30),
        limit in 0usize..12,
        offset in 0usize..12,
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)", &[]).unwrap();
        for (i, v) in values.iter().enumerate() {
            db.execute(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                &[DbValue::Int(i as i64), DbValue::Int(*v)],
            ).unwrap();
        }
        let all = db.execute("SELECT v FROM t ORDER BY v, id", &[]).unwrap();
        let got: Vec<i64> = all.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut want = values.clone();
        want.sort();
        prop_assert_eq!(&got, &want);

        let window = db.execute(
            "SELECT v FROM t ORDER BY v, id LIMIT ? OFFSET ?",
            &[DbValue::Int(limit as i64), DbValue::Int(offset as i64)],
        ).unwrap();
        let got_window: Vec<i64> = window.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let want_window: Vec<i64> = want.iter().skip(offset).take(limit).copied().collect();
        prop_assert_eq!(got_window, want_window);
    }

    /// ORDER BY over heavily tied keys (NULLs included): rows with equal
    /// keys keep arrival order, whatever the LIMIT/OFFSET window — the
    /// bounded top-k must return exactly what a stable sort followed by
    /// truncation would, including `LIMIT 0` and windows past the end.
    #[test]
    fn top_k_breaks_ties_by_arrival_order(
        keys in proptest::collection::vec((-1i64..4, -1i64..3), 0..40),
        desc in (0usize..2, 0usize..2),
        limit in 0usize..50,
        offset in 0usize..45,
    ) {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT, j INT)", &[]).unwrap();
        let cell = |v: i64| if v < 0 { DbValue::Null } else { DbValue::Int(v) };
        for (id, (k, j)) in keys.iter().enumerate() {
            db.execute(
                "INSERT INTO t (id, k, j) VALUES (?, ?, ?)",
                &[DbValue::Int(id as i64), cell(*k), cell(*j)],
            ).unwrap();
        }
        // The model: arrival order, stably sorted (NULL sorts first, as -1 does).
        let mut want: Vec<usize> = (0..keys.len()).collect();
        want.sort_by(|&a, &b| {
            let by_k = keys[a].0.cmp(&keys[b].0);
            let by_j = keys[a].1.cmp(&keys[b].1);
            let by_k = if desc.0 == 1 { by_k.reverse() } else { by_k };
            by_k.then(if desc.1 == 1 { by_j.reverse() } else { by_j })
        });
        let dir = |d: usize| if d == 1 { " DESC" } else { "" };
        let order = format!("ORDER BY k{}, j{}", dir(desc.0), dir(desc.1));
        let ids = |sql: String, params: &[DbValue]| -> Vec<usize> {
            let r = db.execute(&sql, params).unwrap();
            r.rows.iter().map(|row| row[0].as_int().unwrap() as usize).collect()
        };
        prop_assert_eq!(&ids(format!("SELECT id FROM t {order}"), &[]), &want);
        let window: Vec<usize> = want.iter().skip(offset).take(limit).copied().collect();
        prop_assert_eq!(
            ids(
                format!("SELECT id FROM t {order} LIMIT ? OFFSET ?"),
                &[DbValue::Int(limit as i64), DbValue::Int(offset as i64)],
            ),
            window
        );
        let head: Vec<usize> = want.iter().take(limit).copied().collect();
        prop_assert_eq!(ids(format!("SELECT id FROM t {order} LIMIT {limit}"), &[]), head);
    }

    /// Aggregates match their definitions over arbitrary data.
    #[test]
    fn aggregates_match_definitions(values in proptest::collection::vec(-100i64..100, 1..25)) {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)", &[]).unwrap();
        for (i, v) in values.iter().enumerate() {
            db.execute(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                &[DbValue::Int(i as i64), DbValue::Int(*v)],
            ).unwrap();
        }
        let r = db.execute(
            "SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t",
            &[],
        ).unwrap();
        let row = &r.rows[0];
        prop_assert_eq!(row[0].as_int(), Some(values.len() as i64));
        prop_assert_eq!(row[1].as_int(), Some(values.iter().sum::<i64>()));
        prop_assert_eq!(row[2].as_int(), values.iter().min().copied());
        prop_assert_eq!(row[3].as_int(), values.iter().max().copied());
        let avg = values.iter().sum::<i64>() as f64 / values.len() as f64;
        prop_assert!((row[4].as_f64().unwrap() - avg).abs() < 1e-9);
    }

    /// The SQL front end is total over arbitrary input: parse errors,
    /// never panics.
    #[test]
    fn sql_parser_is_total(sql in ".{0,200}") {
        let db = Database::new();
        let _ = db.execute(&sql, &[]);
    }

    /// A LIKE pattern without wildcards behaves as case-insensitive
    /// substring-equality.
    #[test]
    fn like_without_wildcards_is_equality(s in "[a-zA-Z]{1,12}") {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, s TEXT)", &[]).unwrap();
        db.execute(
            "INSERT INTO t (id, s) VALUES (1, ?)",
            &[DbValue::from(s.as_str())],
        ).unwrap();
        let hit = db.execute(
            "SELECT id FROM t WHERE s LIKE ?",
            &[DbValue::from(s.to_uppercase())],
        ).unwrap();
        prop_assert_eq!(hit.rows.len(), 1, "exact (case-folded) match must hit");
        let miss = db.execute(
            "SELECT id FROM t WHERE s LIKE ?",
            &[DbValue::from(format!("{s}x"))],
        ).unwrap();
        prop_assert_eq!(miss.rows.len(), 0);
    }

    /// GROUP BY partitions: group counts sum to the row count and each
    /// group's COUNT matches the model.
    #[test]
    fn group_by_partitions(keys in proptest::collection::vec(0i64..5, 1..40)) {
        let db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)", &[]).unwrap();
        for (i, k) in keys.iter().enumerate() {
            db.execute(
                "INSERT INTO t (id, k) VALUES (?, ?)",
                &[DbValue::Int(i as i64), DbValue::Int(*k)],
            ).unwrap();
        }
        let r = db.execute("SELECT k, COUNT(*) n FROM t GROUP BY k ORDER BY k", &[]).unwrap();
        let mut model: std::collections::BTreeMap<i64, i64> = Default::default();
        for k in &keys {
            *model.entry(*k).or_insert(0) += 1;
        }
        prop_assert_eq!(r.rows.len(), model.len());
        let mut total = 0;
        for row in &r.rows {
            let k = row[0].as_int().unwrap();
            let n = row[1].as_int().unwrap();
            prop_assert_eq!(model.get(&k), Some(&n));
            total += n;
        }
        prop_assert_eq!(total, keys.len() as i64);
    }
}
