//! Freshness property test for the dependency-tracked document cache.
//!
//! Random admin writes interleave with cached browsing reads across
//! threads. The invariant: once a write's HTTP response has returned,
//! every subsequent read of the page whose read-set covers that row
//! reflects the write (or something newer). The cache must never serve
//! a response that predates a committed write to its read-set.
//!
//! Seeded and deterministic in its schedule choices; the thread
//! interleaving itself is free, which is the point — the invariant has
//! to hold under every interleaving.

use staged_core::{App, PageOutcome, ServerConfig, StagedServer};
use staged_db::{Database, DbValue};
use staged_http::{fetch, Method, Response, StatusCode};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

const N_IDS: i64 = 4;
const READERS: usize = 4;
const WRITERS: usize = 2;
const READS_PER_THREAD: usize = 200;
const WRITES_PER_THREAD: usize = 40;
const SEED: u64 = 0x5eed_cafe_f00d_0001;

/// Minimal xorshift so the id schedule is reproducible without pulling
/// a PRNG crate into the test.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn pick_id(&mut self) -> i64 {
        (self.next() % N_IDS as u64) as i64
    }
}

fn app() -> App {
    App::builder()
        .route("/item", "item", |req, db| {
            let id: i64 = req.param("id").unwrap_or("0").parse().unwrap_or(0);
            let result = db.execute("SELECT val FROM items WHERE id = ?", &[DbValue::Int(id)])?;
            let val = match result.rows.first().map(|r| &r[0]) {
                Some(DbValue::Int(v)) => *v,
                _ => -1,
            };
            Ok(PageOutcome::Body(Response::html(format!("val={val}"))))
        })
        .route("/set", "set", |req, db| {
            let id: i64 = req.param("id").unwrap_or("0").parse().unwrap_or(0);
            let val: i64 = req.param("val").unwrap_or("0").parse().unwrap_or(0);
            db.execute(
                "UPDATE items SET val = ? WHERE id = ?",
                &[DbValue::Int(val), DbValue::Int(id)],
            )?;
            Ok(PageOutcome::Body(Response::html("ok")))
        })
        .cacheable("/item")
        .build()
}

fn seeded_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE items (id INT PRIMARY KEY, val INT)", &[])
        .unwrap();
    for id in 0..N_IDS {
        db.execute(
            "INSERT INTO items (id, val) VALUES (?, ?)",
            &[DbValue::Int(id), DbValue::Int(0)],
        )
        .unwrap();
    }
    db
}

fn parse_val(body: &str) -> i64 {
    body.trim_start_matches("val=").trim().parse().unwrap_or(-1)
}

#[test]
fn cached_reads_never_predate_committed_writes() {
    let config = ServerConfig {
        doc_cache: true,
        ..ServerConfig::small()
    };
    let server = StagedServer::start(config, app(), seeded_db()).unwrap();
    let addr = server.addr();

    // Per-id state: the newest value whose write response has returned
    // (the freshness floor a reader may rely on), a monotone counter
    // handing out values, and a lock serializing same-id writes so the
    // floor tracks database commit order.
    let floors: Arc<Vec<AtomicI64>> = Arc::new((0..N_IDS).map(|_| AtomicI64::new(0)).collect());
    let counters: Arc<Vec<AtomicI64>> = Arc::new((0..N_IDS).map(|_| AtomicI64::new(0)).collect());
    let write_locks: Arc<Vec<Mutex<()>>> = Arc::new((0..N_IDS).map(|_| Mutex::new(())).collect());
    let violations = Arc::new(Mutex::new(Vec::<String>::new()));

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let floors = Arc::clone(&floors);
        let counters = Arc::clone(&counters);
        let write_locks = Arc::clone(&write_locks);
        handles.push(std::thread::spawn(move || {
            let mut rng = XorShift(SEED ^ (0x1000 + w as u64));
            for _ in 0..WRITES_PER_THREAD {
                let id = rng.pick_id();
                let guard = write_locks[id as usize].lock().unwrap();
                let val = counters[id as usize].fetch_add(1, Ordering::SeqCst) + 1;
                let resp =
                    fetch(addr, Method::Get, &format!("/set?id={id}&val={val}"), &[]).unwrap();
                assert_eq!(resp.status, StatusCode::OK, "write rejected");
                // The write's response has returned: its commit — and the
                // cache eviction that precedes the commit returning — is
                // done, so readers may rely on seeing at least this value.
                floors[id as usize].fetch_max(val, Ordering::SeqCst);
                drop(guard);
            }
        }));
    }
    for r in 0..READERS {
        let floors = Arc::clone(&floors);
        let violations = Arc::clone(&violations);
        handles.push(std::thread::spawn(move || {
            let mut rng = XorShift(SEED ^ (0x2000 + r as u64));
            for _ in 0..READS_PER_THREAD {
                let id = rng.pick_id();
                // Load the floor BEFORE issuing the read: any write that
                // finished by now must be visible in the response.
                let floor = floors[id as usize].load(Ordering::SeqCst);
                let resp = fetch(addr, Method::Get, &format!("/item?id={id}"), &[]).unwrap();
                assert_eq!(resp.status, StatusCode::OK, "read rejected");
                let got = parse_val(&resp.text());
                if got < floor {
                    violations.lock().unwrap().push(format!(
                        "id={id}: read val={got} but a write of val={floor} had already returned"
                    ));
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let violations = violations.lock().unwrap();
    assert!(
        violations.is_empty(),
        "stale serves detected:\n{}",
        violations.join("\n")
    );

    // The test only exercises the cache if hits actually happened —
    // guard against the cache silently disabling itself.
    let hits = server
        .registry()
        .value("doc_cache_hits_total", &[])
        .expect("doc cache families registered");
    assert!(hits > 0.0, "expected cache hits during the run, got {hits}");

    server.shutdown().expect("clean shutdown");
}

/// Row-level join dependencies: a page whose SQL joins through primary
/// keys records `Exact` row keys for both tables, so an admin write to
/// one row evicts only the pages that actually read it — unrelated
/// pages keep serving from cache.
#[test]
fn row_level_join_deps_spare_unrelated_pages() {
    let app = App::builder()
        .route("/pair", "pair", |req, db| {
            let id: i64 = req.param("id").unwrap_or("0").parse().unwrap_or(0);
            let result = db.execute(
                "SELECT val, name FROM items JOIN labels ON lab = lid WHERE id = ?",
                &[DbValue::Int(id)],
            )?;
            let body = match result.rows.first() {
                Some(row) => format!("val={} label={}", row[0], row[1]),
                None => "missing".to_string(),
            };
            Ok(PageOutcome::Body(Response::html(body)))
        })
        .route("/setlabel", "setlabel", |req, db| {
            let lid: i64 = req.param("lid").unwrap_or("0").parse().unwrap_or(0);
            let name = req.param("name").unwrap_or("x").to_string();
            db.execute(
                "UPDATE labels SET name = ? WHERE lid = ?",
                &[DbValue::from(name), DbValue::Int(lid)],
            )?;
            Ok(PageOutcome::Body(Response::html("ok")))
        })
        .cacheable("/pair")
        .build();

    let db = Arc::new(Database::new());
    db.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, val INT, lab INT)",
        &[],
    )
    .unwrap();
    db.execute("CREATE TABLE labels (lid INT PRIMARY KEY, name TEXT)", &[])
        .unwrap();
    for id in 0..N_IDS {
        db.execute(
            "INSERT INTO labels (lid, name) VALUES (?, ?)",
            &[DbValue::Int(id), DbValue::from(format!("label{id}"))],
        )
        .unwrap();
        db.execute(
            "INSERT INTO items (id, val, lab) VALUES (?, ?, ?)",
            &[DbValue::Int(id), DbValue::Int(id * 10), DbValue::Int(id)],
        )
        .unwrap();
    }

    let config = ServerConfig {
        doc_cache: true,
        ..ServerConfig::small()
    };
    let server = StagedServer::start(config, app, db).unwrap();
    let addr = server.addr();
    let metric = |name: &str| server.registry().value(name, &[]).unwrap_or(0.0);

    // Warm the cache with two pages that share no rows.
    let a0 = fetch(addr, Method::Get, "/pair?id=0", &[]).unwrap().text();
    let b0 = fetch(addr, Method::Get, "/pair?id=1", &[]).unwrap().text();
    assert!(a0.contains("label0"), "{a0}");
    assert!(b0.contains("label1"), "{b0}");
    assert!(
        metric("doc_cache_row_level_deps_total") > 0.0,
        "joined pages should publish row-level dependencies"
    );

    // Write the label only page 0 read.
    let resp = fetch(addr, Method::Get, "/setlabel?lid=0&name=renamed", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK);

    // Page 1 is untouched by the write: served from cache.
    let hits_before = metric("doc_cache_hits_total");
    let b1 = fetch(addr, Method::Get, "/pair?id=1", &[]).unwrap().text();
    assert_eq!(b0, b1, "unrelated page must be unchanged");
    assert_eq!(
        metric("doc_cache_hits_total"),
        hits_before + 1.0,
        "the write to lid=0 must not evict the page that read lid=1"
    );

    // Page 0 was evicted and re-renders with the new label.
    let a1 = fetch(addr, Method::Get, "/pair?id=0", &[]).unwrap().text();
    assert!(a1.contains("renamed"), "{a1}");

    server.shutdown().expect("clean shutdown");
}

/// Row-filter dependencies: a listing page (`WHERE subject = ?`, a
/// scan) depends on the rows its filter admits, not the whole table.
/// Concurrent writes to random rows must never leave a listing showing
/// a value older than a write that already returned; once quiet, a
/// write to a subject-A row keeps the subject-B listing cached, evicts
/// the subject-A one, and a row moving between subjects evicts both.
#[test]
fn filtered_listing_deps_evict_only_admitting_pages() {
    const SUBJECTS: [&str; 2] = ["A", "B"];
    let app = App::builder()
        .route("/list", "list", |req, db| {
            let subject = req.param("subject").unwrap_or("A").to_string();
            let result = db.execute(
                "SELECT id, val FROM books WHERE subject = ? ORDER BY id",
                &[DbValue::from(subject)],
            )?;
            let body: Vec<String> = result
                .rows
                .iter()
                .map(|r| format!("{}:{}", r[0], r[1]))
                .collect();
            Ok(PageOutcome::Body(Response::html(body.join(";"))))
        })
        .route("/set", "set", |req, db| {
            let id: i64 = req.param("id").unwrap_or("0").parse().unwrap_or(0);
            let val: i64 = req.param("val").unwrap_or("0").parse().unwrap_or(0);
            db.execute(
                "UPDATE books SET val = ? WHERE id = ?",
                &[DbValue::Int(val), DbValue::Int(id)],
            )?;
            Ok(PageOutcome::Body(Response::html("ok")))
        })
        .route("/move", "move", |req, db| {
            let id: i64 = req.param("id").unwrap_or("0").parse().unwrap_or(0);
            let subject = req.param("subject").unwrap_or("A").to_string();
            db.execute(
                "UPDATE books SET subject = ? WHERE id = ?",
                &[DbValue::from(subject), DbValue::Int(id)],
            )?;
            Ok(PageOutcome::Body(Response::html("ok")))
        })
        .cacheable("/list")
        .build();
    let db = Arc::new(Database::new());
    db.execute(
        "CREATE TABLE books (id INT PRIMARY KEY, subject TEXT, val INT)",
        &[],
    )
    .unwrap();
    for id in 0..N_IDS {
        db.execute(
            "INSERT INTO books (id, subject, val) VALUES (?, ?, 0)",
            &[DbValue::Int(id), DbValue::from(SUBJECTS[id as usize % 2])],
        )
        .unwrap();
    }
    let config = ServerConfig {
        doc_cache: true,
        ..ServerConfig::small()
    };
    let server = StagedServer::start(config, app, db).unwrap();
    let addr = server.addr();
    let list = |subject: &str| {
        let resp = fetch(addr, Method::Get, &format!("/list?subject={subject}"), &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "listing rejected");
        resp.text()
    };

    // Concurrent phase: every id a listing shows is at least as new as
    // the last write to it that had returned before the read was sent.
    let floors: Arc<Vec<AtomicI64>> = Arc::new((0..N_IDS).map(|_| AtomicI64::new(0)).collect());
    let write_locks: Arc<Vec<Mutex<()>>> = Arc::new((0..N_IDS).map(|_| Mutex::new(())).collect());
    let violations = Arc::new(Mutex::new(Vec::<String>::new()));
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (floors, write_locks) = (Arc::clone(&floors), Arc::clone(&write_locks));
            s.spawn(move || {
                let mut rng = XorShift(SEED ^ (0x3000 + w as u64));
                for _ in 0..WRITES_PER_THREAD {
                    let id = rng.pick_id();
                    let _guard = write_locks[id as usize].lock().unwrap();
                    let val = floors[id as usize].load(Ordering::SeqCst) + 1;
                    let path = format!("/set?id={id}&val={val}");
                    let resp = fetch(addr, Method::Get, &path, &[]).unwrap();
                    assert_eq!(resp.status, StatusCode::OK, "write rejected");
                    floors[id as usize].store(val, Ordering::SeqCst);
                }
            });
        }
        for r in 0..READERS {
            let (floors, violations) = (Arc::clone(&floors), Arc::clone(&violations));
            s.spawn(move || {
                let mut rng = XorShift(SEED ^ (0x4000 + r as u64));
                for _ in 0..READS_PER_THREAD {
                    let subject = SUBJECTS[(rng.next() % 2) as usize];
                    let before: Vec<i64> =
                        floors.iter().map(|f| f.load(Ordering::SeqCst)).collect();
                    for entry in list(subject).split(';').filter(|e| !e.is_empty()) {
                        let (id, val) = entry.split_once(':').expect("id:val");
                        let (id, val): (usize, i64) = (id.parse().unwrap(), val.parse().unwrap());
                        if val < before[id] {
                            violations.lock().unwrap().push(format!(
                                "subject {subject}: id={id} read val={val} after a write of {}",
                                before[id]
                            ));
                        }
                    }
                }
            });
        }
    });
    let violations = violations.lock().unwrap();
    assert!(
        violations.is_empty(),
        "stale serves detected:\n{}",
        violations.join("\n")
    );

    // Quiet phase: ids 0 and 2 are subject A, 1 and 3 subject B.
    let metric = |name: &str| server.registry().value(name, &[]).unwrap_or(0.0);
    let b0 = list("B");
    list("A");
    let set = |id: i64, val: i64| {
        let path = format!("/set?id={id}&val={val}");
        fetch(addr, Method::Get, &path, &[]).unwrap()
    };
    assert_eq!(set(0, 1_000).status, StatusCode::OK);
    let hits = metric("doc_cache_hits_total");
    assert_eq!(list("B"), b0, "a subject-A write must not change listing B");
    assert_eq!(
        metric("doc_cache_hits_total"),
        hits + 1.0,
        "a subject-A write must not evict listing B"
    );
    assert!(list("A").contains("0:1000"), "listing A re-renders");
    assert_eq!(metric("doc_cache_hits_total"), hits + 1.0, "A was a miss");

    // Moving id 0 from A to B changes both listings.
    let path = "/move?id=0&subject=B";
    assert_eq!(
        fetch(addr, Method::Get, path, &[]).unwrap().status,
        StatusCode::OK
    );
    assert!(!list("A").contains("0:"), "moved row left listing A");
    assert!(
        list("B").starts_with("0:1000;"),
        "moved row joined listing B"
    );

    server.shutdown().expect("clean shutdown");
}

/// Top-k dependencies: a listing page (`ORDER BY val LIMIT 3`, and the
/// same window at `OFFSET 2`) depends on the rows that sort no later
/// than its last row, not on every row. Concurrent writes must never
/// leave a listing showing a value older than a write that already
/// returned; once quiet, a write past a window keeps its page a hit
/// with the same bytes, a write inside it evicts it, and a row moved
/// into it evicts it.
#[test]
fn top_k_listing_deps_spare_writes_outside_the_window() {
    const ROWS: i64 = 10;
    let app = App::builder()
        .route("/top", "top", |req, db| {
            let sql = match req.param("offset") {
                Some("2") => "SELECT id, val FROM ranked ORDER BY val LIMIT 3 OFFSET 2",
                _ => "SELECT id, val FROM ranked ORDER BY val LIMIT 3",
            };
            let result = db.execute(sql, &[])?;
            let body: Vec<String> = result
                .rows
                .iter()
                .map(|r| format!("{}:{}", r[0], r[1]))
                .collect();
            Ok(PageOutcome::Body(Response::html(body.join(";"))))
        })
        .route("/set", "set", |req, db| {
            let id: i64 = req.param("id").unwrap_or("0").parse().unwrap_or(0);
            let val: i64 = req.param("val").unwrap_or("0").parse().unwrap_or(0);
            db.execute(
                "UPDATE ranked SET val = ? WHERE id = ?",
                &[DbValue::Int(val), DbValue::Int(id)],
            )?;
            Ok(PageOutcome::Body(Response::html("ok")))
        })
        .cacheable("/top")
        .build();
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE ranked (id INT PRIMARY KEY, val INT)", &[])
        .unwrap();
    for id in 0..ROWS {
        db.execute(
            "INSERT INTO ranked (id, val) VALUES (?, ?)",
            &[DbValue::Int(id), DbValue::Int(id * 10)],
        )
        .unwrap();
    }
    let config = ServerConfig {
        doc_cache: true,
        ..ServerConfig::small()
    };
    let server = StagedServer::start(config, app, db).unwrap();
    let addr = server.addr();
    let top = |offset: u8| {
        let resp = fetch(addr, Method::Get, &format!("/top?offset={offset}"), &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "listing rejected");
        resp.text()
    };
    let set = |id: i64, val: i64| {
        let path = format!("/set?id={id}&val={val}");
        let resp = fetch(addr, Method::Get, &path, &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "write rejected");
    };

    // Concurrent phase: every id a listing shows is at least as new as
    // the last write to it that had returned before the read was sent.
    let floors: Arc<Vec<AtomicI64>> =
        Arc::new((0..ROWS).map(|id| AtomicI64::new(id * 10)).collect());
    let write_locks: Arc<Vec<Mutex<()>>> = Arc::new((0..ROWS).map(|_| Mutex::new(())).collect());
    let violations = Arc::new(Mutex::new(Vec::<String>::new()));
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (floors, write_locks) = (Arc::clone(&floors), Arc::clone(&write_locks));
            s.spawn(move || {
                let mut rng = XorShift(SEED ^ (0x5000 + w as u64));
                for _ in 0..WRITES_PER_THREAD {
                    let id = (rng.next() % ROWS as u64) as i64;
                    let _guard = write_locks[id as usize].lock().unwrap();
                    let val = floors[id as usize].load(Ordering::SeqCst) + 1;
                    set(id, val);
                    floors[id as usize].store(val, Ordering::SeqCst);
                }
            });
        }
        for r in 0..READERS {
            let (floors, violations) = (Arc::clone(&floors), Arc::clone(&violations));
            s.spawn(move || {
                let mut rng = XorShift(SEED ^ (0x6000 + r as u64));
                for _ in 0..READS_PER_THREAD {
                    let offset = if rng.next().is_multiple_of(2) { 0 } else { 2 };
                    let before: Vec<i64> =
                        floors.iter().map(|f| f.load(Ordering::SeqCst)).collect();
                    for entry in top(offset).split(';').filter(|e| !e.is_empty()) {
                        let (id, val) = entry.split_once(':').expect("id:val");
                        let (id, val): (usize, i64) = (id.parse().unwrap(), val.parse().unwrap());
                        if val < before[id] {
                            violations.lock().unwrap().push(format!(
                                "offset {offset}: id={id} read val={val} after a write of {}",
                                before[id]
                            ));
                        }
                    }
                }
            });
        }
    });
    let violations = violations.lock().unwrap();
    assert!(
        violations.is_empty(),
        "stale serves detected:\n{}",
        violations.join("\n")
    );

    // Quiet phase: val = 100 × id, so the first window ends at id 2 and
    // the OFFSET window at id 4.
    for id in 0..ROWS {
        set(id, id * 100);
    }
    let metric = |name: &str| server.registry().value(name, &[]).unwrap_or(0.0);
    let (first, second) = (top(0), top(2));
    assert_eq!(first, "0:0;1:100;2:200");
    assert_eq!(second, "2:200;3:300;4:400");

    // Past both windows: both pages stay hits, byte for byte.
    set(9, 950);
    let hits = metric("doc_cache_hits_total");
    assert_eq!(top(0), first, "a write past the window changes nothing");
    assert_eq!(top(2), second);
    assert_eq!(
        metric("doc_cache_hits_total"),
        hits + 2.0,
        "a write past the window must not evict the page"
    );

    // Inside the OFFSET window only: the first page is still a hit.
    set(3, 350);
    let hits = metric("doc_cache_hits_total");
    assert_eq!(top(0), first);
    assert_eq!(metric("doc_cache_hits_total"), hits + 1.0);
    assert_eq!(top(2), "2:200;3:350;4:400", "a write inside re-renders");
    assert_eq!(metric("doc_cache_hits_total"), hits + 1.0, "it was evicted");

    // A row moved into the first window from past it evicts the page.
    set(8, 50);
    let hits = metric("doc_cache_hits_total");
    assert_eq!(top(0), "0:0;8:50;1:100");
    assert_eq!(metric("doc_cache_hits_total"), hits, "it was evicted");

    server.shutdown().expect("clean shutdown");
}

/// The join variant: a listing ordered by its base table's keys joins
/// only the base rows up to its window, so its read set names only the
/// joined rows those probed. Once quiet, a write past the window keeps
/// the page a hit, a write to a window row's joined row evicts it, and
/// a write to the joined row of a base row outside the window — which
/// the join never probed — keeps it a hit, byte for byte.
#[test]
fn top_k_join_listing_deps_spare_writes_outside_the_window() {
    const ROWS: i64 = 10;
    let app = App::builder()
        .route("/top", "top", |_req, db| {
            let result = db.execute(
                "SELECT r.id, r.val, l.name FROM ranked r JOIN labels l ON r.lab = l.lid \
                 ORDER BY r.val LIMIT 3",
                &[],
            )?;
            let body: Vec<String> = result
                .rows
                .iter()
                .map(|r| format!("{}:{}:{}", r[0], r[1], r[2]))
                .collect();
            Ok(PageOutcome::Body(Response::html(body.join(";"))))
        })
        .route("/set", "set", |req, db| {
            let id: i64 = req.param("id").unwrap_or("0").parse().unwrap_or(0);
            let val: i64 = req.param("val").unwrap_or("0").parse().unwrap_or(0);
            db.execute(
                "UPDATE ranked SET val = ? WHERE id = ?",
                &[DbValue::Int(val), DbValue::Int(id)],
            )?;
            Ok(PageOutcome::Body(Response::html("ok")))
        })
        .route("/label", "label", |req, db| {
            let lid: i64 = req.param("lid").unwrap_or("0").parse().unwrap_or(0);
            let name = req.param("name").unwrap_or("x").to_string();
            db.execute(
                "UPDATE labels SET name = ? WHERE lid = ?",
                &[DbValue::from(name), DbValue::Int(lid)],
            )?;
            Ok(PageOutcome::Body(Response::html("ok")))
        })
        .cacheable("/top")
        .build();
    let db = Arc::new(Database::new());
    db.execute(
        "CREATE TABLE ranked (id INT PRIMARY KEY, val INT, lab INT)",
        &[],
    )
    .unwrap();
    db.execute("CREATE TABLE labels (lid INT PRIMARY KEY, name TEXT)", &[])
        .unwrap();
    // val = 100 × id: the window is ids 0–2, each labelled by its id.
    for id in 0..ROWS {
        db.execute(
            "INSERT INTO ranked (id, val, lab) VALUES (?, ?, ?)",
            &[DbValue::Int(id), DbValue::Int(id * 100), DbValue::Int(id)],
        )
        .unwrap();
        db.execute(
            "INSERT INTO labels (lid, name) VALUES (?, ?)",
            &[DbValue::Int(id), DbValue::from(format!("L{id}"))],
        )
        .unwrap();
    }
    let config = ServerConfig {
        doc_cache: true,
        ..ServerConfig::small()
    };
    let server = StagedServer::start(config, app, db).unwrap();
    let addr = server.addr();
    let get = |path: &str| {
        let resp = fetch(addr, Method::Get, path, &[]).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "{path} rejected");
        resp.text()
    };
    let hits = || {
        server
            .registry()
            .value("doc_cache_hits_total", &[])
            .unwrap_or(0.0)
    };
    let first = get("/top");
    assert_eq!(first, "0:0:L0;1:100:L1;2:200:L2");

    // Past the window: still a hit, byte for byte.
    get("/set?id=9&val=950");
    let before = hits();
    assert_eq!(
        get("/top"),
        first,
        "a write past the window changes nothing"
    );
    assert_eq!(
        hits(),
        before + 1.0,
        "a write past the window must not evict"
    );

    // The joined row of a base row outside the window: never probed.
    get("/label?lid=7&name=renamed");
    let before = hits();
    assert_eq!(get("/top"), first);
    assert_eq!(
        hits(),
        before + 1.0,
        "a write to a joined row no window row reached must not evict"
    );

    // The joined row of a window row: evicted, re-rendered.
    get("/label?lid=1&name=renamed");
    let before = hits();
    assert_eq!(get("/top"), "0:0:L0;1:100:renamed;2:200:L2");
    assert_eq!(hits(), before, "a write inside the window evicts");

    // A base row moved into the window brings its joined row with it.
    get("/set?id=7&val=50");
    let before = hits();
    assert_eq!(get("/top"), "0:0:L0;7:50:renamed;1:100:renamed");
    assert_eq!(hits(), before, "a row moved into the window evicts");

    server.shutdown().expect("clean shutdown");
}
