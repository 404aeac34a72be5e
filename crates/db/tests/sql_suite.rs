//! A SQL conformance battery for the embedded engine: each test
//! exercises one corner of the dialect end to end through `execute`.

use staged_db::{Database, DbError, DbValue};

fn db_with(rows: &[(i64, &str, f64, Option<i64>)]) -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE w (id INT PRIMARY KEY, name TEXT, price FLOAT, qty INT)",
        &[],
    )
    .unwrap();
    for (id, name, price, qty) in rows {
        db.execute(
            "INSERT INTO w (id, name, price, qty) VALUES (?, ?, ?, ?)",
            &[
                DbValue::Int(*id),
                DbValue::from(*name),
                DbValue::Float(*price),
                qty.map(DbValue::Int).unwrap_or(DbValue::Null),
            ],
        )
        .unwrap();
    }
    db
}

fn sample() -> Database {
    db_with(&[
        (1, "apple", 1.5, Some(10)),
        (2, "banana", 0.5, Some(20)),
        (3, "cherry", 4.0, None),
        (4, "apple pie", 6.25, Some(3)),
    ])
}

#[test]
fn projection_arithmetic() {
    let db = sample();
    let r = db
        .execute(
            "SELECT id, price * 2 AS doubled, qty + 1 FROM w WHERE id = 2",
            &[],
        )
        .unwrap();
    assert_eq!(r.columns, vec!["id", "doubled", "expr"]);
    assert_eq!(r.rows[0][1], DbValue::Float(1.0));
    assert_eq!(r.rows[0][2], DbValue::Int(21));
}

#[test]
fn null_propagates_through_arithmetic() {
    let db = sample();
    let r = db
        .execute("SELECT qty * 2 FROM w WHERE id = 3", &[])
        .unwrap();
    assert_eq!(r.rows[0][0], DbValue::Null);
}

#[test]
fn where_with_parentheses_and_not() {
    let db = sample();
    let r = db
        .execute(
            "SELECT id FROM w WHERE NOT (price > 1.0 AND qty IS NOT NULL) ORDER BY id",
            &[],
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![2, 3]); // banana (price<=1) and cherry (qty NULL)
}

#[test]
fn order_by_multiple_keys_mixed_direction() {
    let db = db_with(&[
        (1, "a", 2.0, Some(1)),
        (2, "b", 2.0, Some(5)),
        (3, "c", 1.0, Some(9)),
    ]);
    let r = db
        .execute("SELECT id FROM w ORDER BY price DESC, qty DESC", &[])
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![2, 1, 3]);
}

#[test]
fn like_with_underscore_and_percent() {
    let db = sample();
    let r = db
        .execute("SELECT id FROM w WHERE name LIKE 'appl_' ORDER BY id", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 1); // "apple" but not "apple pie"
    let r = db
        .execute("SELECT id FROM w WHERE name LIKE '%pie' ORDER BY id", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], DbValue::Int(4));
}

#[test]
fn string_escaping_round_trip() {
    let db = Database::new();
    db.execute("CREATE TABLE s (id INT PRIMARY KEY, t TEXT)", &[])
        .unwrap();
    db.execute("INSERT INTO s (id, t) VALUES (1, 'it''s a test')", &[])
        .unwrap();
    let r = db.execute("SELECT t FROM s WHERE id = 1", &[]).unwrap();
    assert_eq!(r.rows[0][0], DbValue::from("it's a test"));
    let r = db
        .execute("SELECT id FROM s WHERE t = 'it''s a test'", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn update_multiple_columns_with_where_range() {
    let db = sample();
    let r = db
        .execute(
            "UPDATE w SET price = price + 1.0, qty = 0 WHERE price < 2.0",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows_affected, 2);
    let r = db
        .execute("SELECT SUM(qty) FROM w WHERE id <= 2", &[])
        .unwrap();
    assert_eq!(r.rows[0][0], DbValue::Int(0));
}

#[test]
fn update_without_where_touches_everything() {
    let db = sample();
    let r = db.execute("UPDATE w SET qty = 7", &[]).unwrap();
    assert_eq!(r.rows_affected, 4);
    let r = db
        .execute("SELECT COUNT(*) FROM w WHERE qty = 7", &[])
        .unwrap();
    assert_eq!(r.single_int(), Some(4));
}

#[test]
fn delete_without_where_empties_table() {
    let db = sample();
    let r = db.execute("DELETE FROM w", &[]).unwrap();
    assert_eq!(r.rows_affected, 4);
    assert_eq!(db.table_len("w").unwrap(), 0);
    // Inserting again after a full delete works (ids recycled).
    db.execute(
        "INSERT INTO w (id, name, price, qty) VALUES (1, 'x', 1.0, 1)",
        &[],
    )
    .unwrap();
    assert_eq!(db.table_len("w").unwrap(), 1);
}

#[test]
fn aggregates_skip_nulls() {
    let db = sample();
    let r = db
        .execute(
            "SELECT COUNT(qty), SUM(qty), MIN(qty), AVG(qty) FROM w",
            &[],
        )
        .unwrap();
    let row = &r.rows[0];
    assert_eq!(row[0], DbValue::Int(3)); // cherry's NULL qty not counted
    assert_eq!(row[1], DbValue::Int(33));
    assert_eq!(row[2], DbValue::Int(3));
    assert_eq!(row[3], DbValue::Float(11.0));
}

#[test]
fn aggregate_over_empty_group_is_null() {
    let db = sample();
    let r = db
        .execute(
            "SELECT SUM(qty), MIN(price), MAX(name) FROM w WHERE id > 99",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0], vec![DbValue::Null, DbValue::Null, DbValue::Null]);
}

#[test]
fn group_by_with_having_like_filter_via_where() {
    // The dialect has no HAVING; pre-filtering with WHERE is the
    // documented pattern.
    let db = db_with(&[
        (1, "a", 1.0, Some(1)),
        (2, "a", 2.0, Some(2)),
        (3, "b", 3.0, Some(3)),
    ]);
    let r = db
        .execute(
            "SELECT name, COUNT(*) n, SUM(price) total FROM w \
             WHERE qty >= 1 GROUP BY name ORDER BY n DESC",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], DbValue::from("a"));
    assert_eq!(r.rows[0][1], DbValue::Int(2));
    assert_eq!(r.rows[0][2], DbValue::Float(3.0));
}

#[test]
fn three_way_join_chains() {
    let db = Database::new();
    db.execute("CREATE TABLE a (a_id INT PRIMARY KEY, a_v TEXT)", &[])
        .unwrap();
    db.execute(
        "CREATE TABLE b (b_id INT PRIMARY KEY, b_a INT, b_v TEXT)",
        &[],
    )
    .unwrap();
    db.execute(
        "CREATE TABLE c (c_id INT PRIMARY KEY, c_b INT, c_v TEXT)",
        &[],
    )
    .unwrap();
    db.execute("INSERT INTO a (a_id, a_v) VALUES (1, 'A')", &[])
        .unwrap();
    db.execute("INSERT INTO b (b_id, b_a, b_v) VALUES (10, 1, 'B')", &[])
        .unwrap();
    db.execute("INSERT INTO c (c_id, c_b, c_v) VALUES (100, 10, 'C')", &[])
        .unwrap();
    let r = db
        .execute(
            "SELECT a.a_v, b.b_v, c.c_v FROM a \
             JOIN b ON b.b_a = a.a_id JOIN c ON c.c_b = b.b_id",
            &[],
        )
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![
            DbValue::from("A"),
            DbValue::from("B"),
            DbValue::from("C")
        ]]
    );
}

#[test]
fn join_preserves_multiplicity() {
    let db = Database::new();
    db.execute("CREATE TABLE o (o_id INT PRIMARY KEY)", &[])
        .unwrap();
    db.execute("CREATE TABLE l (l_id INT PRIMARY KEY, l_o INT)", &[])
        .unwrap();
    db.execute("CREATE INDEX ON l (l_o)", &[]).unwrap();
    db.execute("INSERT INTO o (o_id) VALUES (1)", &[]).unwrap();
    for i in 0..3 {
        db.execute(
            "INSERT INTO l (l_id, l_o) VALUES (?, 1)",
            &[DbValue::Int(i)],
        )
        .unwrap();
    }
    let r = db
        .execute("SELECT l.l_id FROM o JOIN l ON l.l_o = o.o_id", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn ambiguous_column_is_an_error() {
    let db = Database::new();
    db.execute("CREATE TABLE x (id INT PRIMARY KEY, v INT)", &[])
        .unwrap();
    db.execute("CREATE TABLE y (id INT PRIMARY KEY, v INT)", &[])
        .unwrap();
    db.execute("INSERT INTO x (id, v) VALUES (1, 1)", &[])
        .unwrap();
    db.execute("INSERT INTO y (id, v) VALUES (1, 1)", &[])
        .unwrap();
    let err = db
        .execute("SELECT v FROM x JOIN y ON x.id = y.id", &[])
        .unwrap_err();
    assert!(matches!(err, DbError::NoSuchColumn(m) if m.contains("ambiguous")));
}

#[test]
fn alias_scopes_resolve() {
    let db = sample();
    let r = db
        .execute("SELECT t.name FROM w t WHERE t.id = 1", &[])
        .unwrap();
    assert_eq!(r.rows[0][0], DbValue::from("apple"));
    // The original name is not visible once aliased.
    assert!(db
        .execute("SELECT w.name FROM w t WHERE t.id = 1", &[])
        .is_err());
}

#[test]
fn comparison_between_int_and_float_columns() {
    let db = sample();
    let r = db
        .execute("SELECT id FROM w WHERE qty > price ORDER BY id", &[])
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![1, 2]); // 10 > 1.5, 20 > 0.5; NULL and 3 < 6.25 excluded
}

#[test]
fn is_null_in_update_and_delete() {
    let db = sample();
    let r = db
        .execute("UPDATE w SET qty = 0 WHERE qty IS NULL", &[])
        .unwrap();
    assert_eq!(r.rows_affected, 1);
    let r = db.execute("DELETE FROM w WHERE qty IS NULL", &[]).unwrap();
    assert_eq!(r.rows_affected, 0);
}

#[test]
fn limit_zero_and_offset_past_end() {
    let db = sample();
    let r = db.execute("SELECT id FROM w LIMIT 0", &[]).unwrap();
    assert!(r.rows.is_empty());
    let r = db
        .execute("SELECT id FROM w ORDER BY id LIMIT 10 OFFSET 100", &[])
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn negative_limit_rejected() {
    let db = sample();
    assert!(matches!(
        db.execute("SELECT id FROM w LIMIT ?", &[DbValue::Int(-1)]),
        Err(DbError::Invalid(_))
    ));
}

#[test]
fn comments_and_case_insensitivity() {
    let db = sample();
    let r = db
        .execute(
            "select ID from W -- trailing comment\n where NAME like 'APPLE%' order by id",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn rows_scanned_reflects_plan() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)", &[])
        .unwrap();
    db.execute("CREATE INDEX ON t (k)", &[]).unwrap();
    for i in 0..100 {
        db.execute(
            "INSERT INTO t (id, k) VALUES (?, ?)",
            &[DbValue::Int(i), DbValue::Int(i % 10)],
        )
        .unwrap();
    }
    // PK probe: exactly one row visited.
    let r = db.execute("SELECT k FROM t WHERE id = 50", &[]).unwrap();
    assert_eq!(r.rows_scanned, 1);
    // Secondary index probe: only the matching ten.
    let r = db.execute("SELECT id FROM t WHERE k = 3", &[]).unwrap();
    assert_eq!(r.rows_scanned, 10);
    // Range predicate: the planner walks the index from the bound's
    // bucket (inclusive — the filter re-checks strictness), so only
    // buckets 3..=9 are visited, not all 100 rows.
    let r = db.execute("SELECT id FROM t WHERE k > 3", &[]).unwrap();
    assert_eq!(r.rows_scanned, 70);
    assert_eq!(r.rows.len(), 60);
    // An unindexed predicate scans the whole table.
    let r = db.execute("SELECT k FROM t WHERE id + 0 > 3", &[]).unwrap();
    assert_eq!(r.rows_scanned, 100);
    assert_eq!(r.rows.len(), 96);
}

#[test]
fn text_ordering_is_lexicographic() {
    let db = sample();
    let r = db.execute("SELECT name FROM w ORDER BY name", &[]).unwrap();
    let names: Vec<String> = r.rows.iter().map(|x| x[0].to_string()).collect();
    assert_eq!(names, vec!["apple", "apple pie", "banana", "cherry"]);
}

#[test]
fn division_semantics() {
    let db = sample();
    let r = db
        .execute("SELECT 7 / 2, 7.0 / 2, qty / 0 FROM w WHERE id = 1", &[])
        .unwrap();
    assert_eq!(r.rows[0][0], DbValue::Int(3)); // integer division
    assert_eq!(r.rows[0][1], DbValue::Float(3.5));
    assert_eq!(r.rows[0][2], DbValue::Null); // division by zero
}

#[test]
fn select_constant_expressions() {
    let db = sample();
    let r = db
        .execute("SELECT 1 + 2, 'lit', NULL FROM w WHERE id = 1", &[])
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![DbValue::Int(3), DbValue::from("lit"), DbValue::Null]
    );
}

#[test]
fn order_by_aggregate_alias_and_group_key() {
    let db = db_with(&[
        (1, "a", 1.0, Some(5)),
        (2, "b", 1.0, Some(2)),
        (3, "a", 1.0, Some(1)),
    ]);
    let r = db
        .execute(
            "SELECT name, SUM(qty) total FROM w GROUP BY name ORDER BY total DESC, name",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], DbValue::from("a"));
    assert_eq!(r.rows[0][1], DbValue::Int(6));
    assert_eq!(r.rows[1][1], DbValue::Int(2));
}

#[test]
fn in_list_operator() {
    let db = sample();
    let r = db
        .execute("SELECT id FROM w WHERE id IN (1, 3, 99) ORDER BY id", &[])
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![1, 3]);
    let r = db
        .execute("SELECT id FROM w WHERE id NOT IN (1, 3) ORDER BY id", &[])
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![2, 4]);
    // Params and text values work inside the list.
    let r = db
        .execute(
            "SELECT id FROM w WHERE name IN (?, 'banana')",
            &[DbValue::from("cherry")],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    // NULL is never IN anything.
    let r = db
        .execute("SELECT id FROM w WHERE qty IN (10, 20) ORDER BY id", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn between_operator() {
    let db = sample();
    let r = db
        .execute(
            "SELECT id FROM w WHERE price BETWEEN 1.0 AND 5.0 ORDER BY id",
            &[],
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![1, 3]); // 1.5 and 4.0; bounds inclusive
    let r = db
        .execute(
            "SELECT id FROM w WHERE price NOT BETWEEN 1.0 AND 5.0 ORDER BY id",
            &[],
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![2, 4]);
    // NULL operand fails both BETWEEN and NOT BETWEEN's range check.
    let r = db
        .execute("SELECT id FROM w WHERE qty BETWEEN 0 AND 100", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn in_and_between_compose_with_boolean_logic() {
    let db = sample();
    let r = db
        .execute(
            "SELECT id FROM w WHERE id IN (1, 2) AND NOT price BETWEEN 1.0 AND 2.0",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], DbValue::Int(2));
}

#[test]
fn dump_is_safe_under_concurrent_writers() {
    use std::sync::Arc;
    let db = Arc::new(sample());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut n = 1000i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                n += 1;
                db.execute(
                    "INSERT INTO w (id, name, price, qty) VALUES (?, 'x', 1.0, 1)",
                    &[DbValue::Int(n)],
                )
                .unwrap();
                db.execute("DELETE FROM w WHERE id = ?", &[DbValue::Int(n)])
                    .unwrap();
            }
        })
    };
    // Snapshots taken concurrently always restore cleanly: per-table
    // consistency means no torn rows and no broken PK indexes.
    for _ in 0..20 {
        let mut buf = Vec::new();
        db.dump(&mut buf).unwrap();
        let restored = Database::restore(buf.as_slice()).unwrap();
        let n = restored.table_len("w").unwrap();
        assert!(n == 4 || n == 5, "live rows {n}");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn connection_pool_try_get_exhaustion() {
    use staged_db::ConnectionPool;
    use std::sync::Arc;
    let pool = ConnectionPool::new(Arc::new(sample()), 2);
    let a = pool.try_get().unwrap();
    let b = pool.try_get().unwrap();
    assert!(pool.try_get().is_none());
    drop(a);
    let c = pool.try_get().unwrap();
    assert!(pool.try_get().is_none());
    drop((b, c));
    assert_eq!(pool.available(), 2);
}
