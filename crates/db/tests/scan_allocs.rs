//! Allocation gate for the SELECT executor (DESIGN.md §16.2): a scan
//! may visit every row of a table, but it allocates for the rows it
//! *returns*. Filters compare stored values in place, the join carries
//! row references, the ORDER BY keys are borrowed and only the LIMIT
//! window is cloned out — so the allocation count of a listing query
//! must not move when the table behind it grows five-fold.

use staged_db::{Database, DbValue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Per-thread, so tests running beside this one do not count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no
// allocator state and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's layout contract passes through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator
        // for the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's layout contract passes through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Rows per table that match either query, whatever the table size.
const MATCHES: usize = 400;

const LISTING: &str = "SELECT i.i_id, i.i_title, i.i_cost, i.i_thumbnail, a.a_fname, a.a_lname \
     FROM item i JOIN author a ON i.i_a_id = a.a_id \
     WHERE i.i_subject = ? ORDER BY i.i_pub_date DESC, i.i_title LIMIT 50";

const SEARCH: &str = "SELECT i.i_id, i.i_title, i.i_cost, i.i_thumbnail, a.a_fname, a.a_lname \
     FROM item i JOIN author a ON i.i_a_id = a.a_id \
     WHERE i.i_title LIKE ? ORDER BY i.i_title LIMIT 50";

/// A TPC-W-shaped `item`/`author` pair: 13-column items, no index on
/// the filtered columns, `MATCHES` items in subject ARTS with "river"
/// in the title, spread evenly through the table.
fn bookstore(items: usize) -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE author (a_id INT PRIMARY KEY, a_fname TEXT, a_lname TEXT)",
        &[],
    )
    .unwrap();
    db.execute(
        "CREATE TABLE item (i_id INT PRIMARY KEY, i_title TEXT, i_a_id INT, i_subject TEXT, \
         i_pub_date INT, i_cost FLOAT, i_srp FLOAT, i_stock INT, i_thumbnail TEXT, \
         i_image TEXT, i_desc TEXT, i_publisher TEXT, i_isbn TEXT)",
        &[],
    )
    .unwrap();
    let authors = items / 4;
    for a in 0..authors {
        db.execute(
            "INSERT INTO author (a_id, a_fname, a_lname) VALUES (?, ?, ?)",
            &[
                DbValue::from(a),
                DbValue::from(format!("First{a}")),
                DbValue::from(format!("Last{a}")),
            ],
        )
        .unwrap();
    }
    let every = items / MATCHES;
    for i in 0..items {
        let hit = i % every == 0;
        db.execute(
            "INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_pub_date, i_cost, i_srp, \
             i_stock, i_thumbnail, i_image, i_desc, i_publisher, i_isbn) \
             VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            &[
                DbValue::from(i),
                DbValue::from(if hit {
                    format!("Lost River Crown {}", i % 97)
                } else {
                    format!("Silent Storm Garden {}", i % 97)
                }),
                DbValue::from(i % authors),
                DbValue::from(if hit { "ARTS" } else { "HISTORY" }),
                // Few distinct dates: the second sort key matters.
                DbValue::from(i % 11),
                DbValue::Float(10.0 + (i % 50) as f64),
                DbValue::Float(20.0 + (i % 50) as f64),
                DbValue::from(i % 30),
                DbValue::from(format!("/img/thumb_{i}.gif")),
                DbValue::from(format!("/img/image_{i}.gif")),
                DbValue::from("A story of a garden in winter."),
                DbValue::from("Hopper & Knuth"),
                DbValue::from(format!("ISBN{i:09}")),
            ],
        )
        .unwrap();
    }
    db
}

/// Allocations on this thread of one warm execution.
fn allocations(db: &Database, sql: &str, param: &str, scanned: u64) -> u64 {
    let params = [DbValue::from(param)];
    for _ in 0..3 {
        db.execute(sql, &params).unwrap(); // parse, plan
    }
    let before = ALLOCS.with(Cell::get);
    let result = db.execute(sql, &params).unwrap();
    let spent = ALLOCS.with(Cell::get) - before;
    assert_eq!(result.rows.len(), 50);
    // Every item visited, one author probed per row of the window: the
    // matches are ordered before the join, which sees only the top 50.
    assert_eq!(result.rows_scanned, scanned + 50);
    spent
}

#[test]
fn select_allocations_scale_with_the_result_not_the_scan() {
    let small = bookstore(2_000);
    let large = bookstore(10_000);
    for (sql, param) in [(LISTING, "ARTS"), (SEARCH, "%river%")] {
        let few = allocations(&small, sql, param, 2_000);
        let many = allocations(&large, sql, param, 10_000);
        // The executor this replaced spent > 20 000 here: two `String`s
        // per visited row, a row clone per survivor and per join match.
        assert!(
            many <= 1_500,
            "{many} allocations for one execution of {sql}"
        );
        assert!(
            many.abs_diff(few) * 10 <= few,
            "allocations follow the rows visited, not the result: {few} at 2 000 rows, \
             {many} at 10 000, both with {MATCHES} matches ({sql})"
        );
    }
}

/// A top-k window costs a statement that records a read set two
/// allocations — the boundary's values and the clone of its one text
/// key — and one that records none nothing. The same statement over a
/// group of six rows (`LIMIT 5` ends before the input: a window) and of
/// five (the window reaches the end: none) returns five rows either way.
#[test]
fn top_k_windows_cost_only_tracked_statements() {
    use staged_db::ReadSet;
    const SQL: &str = "SELECT id FROM t WHERE grp = ? ORDER BY title LIMIT 5";
    let db = Database::new();
    db.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, title TEXT)",
        &[],
    )
    .unwrap();
    for id in 0..11 {
        let grp = if id < 5 { "five" } else { "six" };
        db.execute(
            "INSERT INTO t (id, grp, title) VALUES (?, ?, ?)",
            &[
                DbValue::from(id),
                DbValue::from(grp),
                DbValue::from(format!("title {id}")),
            ],
        )
        .unwrap();
    }
    let spend = |grp: &str, tracked: bool| {
        let params = [DbValue::from(grp)];
        for _ in 0..3 {
            db.execute(SQL, &params).unwrap(); // parse, plan
        }
        let mut reads = ReadSet::new();
        let before = ALLOCS.with(Cell::get);
        let result = db
            .execute_tracked(SQL, &params, tracked.then_some(&mut reads))
            .unwrap();
        let spent = ALLOCS.with(Cell::get) - before;
        assert_eq!(result.rows.len(), 5);
        let windowed = format!("{reads:?}").contains("window: Some");
        assert_eq!(windowed, tracked && grp == "six", "{reads:?}");
        spent
    };
    assert_eq!(spend("six", false), spend("five", false));
    assert_eq!(spend("six", true), spend("five", true) + 2);
}
