//! The per-layer replay: the workload's own request stream, walked
//! single-threaded through the layers' public functions with a span
//! around each call. No sockets, no queues, no other threads — what a
//! request costs each layer when nothing waits for anything.

use crate::load;
use crate::run::{metric, Metric};
use crate::spans::{self, Recorder, Span};
use crate::workload::{Model, Page, Spec, Stream};
use staged_core::{write_key, App, DocCache, Lookup, PageOutcome};
use staged_db::{ConnectionPool, Database, DbValue};
use staged_http::{BufferPool, Connection, Response};
use staged_pool::SyncQueue;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replay stops at whichever comes first.
const MAX_REQUESTS: usize = 5_000;
const MAX_TIME: Duration = Duration::from_secs(2);

/// The pages whose handler, query and render times are reported by
/// name.
const EXEC_PAGES: [Page; 6] = [
    Page::Home,
    Page::ProductDetail,
    Page::NewProducts,
    Page::BestSellers,
    Page::ExecuteSearch,
    Page::BuyConfirm,
];
const RENDER_PAGES: [Page; 4] = [
    Page::Home,
    Page::ProductDetail,
    Page::NewProducts,
    Page::ExecuteSearch,
];

/// An in-memory transport: requests are fed in, responses land in a
/// sink that is emptied before each one.
#[derive(Default)]
struct Wire {
    input: Vec<u8>,
    read: usize,
    output: Vec<u8>,
}

impl Read for Wire {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.input.len() - self.read);
        buf[..n].copy_from_slice(&self.input[self.read..self.read + n]);
        self.read += n;
        Ok(n)
    }
}

impl Write for Wire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What the replay produced.
pub struct Replay {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    /// Mean time of one whole replayed request, in microseconds.
    pub request_us: f64,
}

/// Replays the head of `stream` against `db`/`app` (a stopped
/// deployment's, so nothing else touches them).
pub fn replay(spec: &Spec, stream: &Stream, db: &Arc<Database>, app: &App) -> Replay {
    let pool = ConnectionPool::new(Arc::clone(db), 1);
    // Nanoseconds the planner reported for the current handler call.
    let exec_ns = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&exec_ns);
    db.set_plan_observer(move |_, elapsed| {
        // Relaxed: a statistic read back by the same thread.
        sink.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    });
    // The server's own cache settings (`ServerConfig::default()`).
    let cache = spec
        .doc_cache
        .then(|| DocCache::new(Duration::from_secs(60), 1024));

    let mut rec = Recorder::new();
    let mut pages = Vec::new();
    let mut wire = Connection::new(Wire::default());
    let db_conn = pool.get();
    let mut key = String::new();
    let mut patched = Vec::new();
    let mut cart = 0u64;
    let mut bytes_out = 0u64;
    let mut rendered_bytes: u64 = 0;
    let started = Instant::now();

    for (rid, op) in stream.ops.iter().enumerate().take(MAX_REQUESTS) {
        if started.elapsed() > MAX_TIME {
            break;
        }
        let rid = rid as u32;
        pages.push(op.page);
        {
            let w = wire.stream_mut();
            w.input.clear();
            w.read = 0;
            w.output.clear();
            match op.cart_slot {
                None => w.input.extend_from_slice(stream.request(op)),
                Some(slot) => {
                    load::patch_cart(&mut patched, stream.request(op), slot, cart);
                    w.input.extend_from_slice(&patched);
                }
            }
        }
        let root = rec.enter("request", rid);

        let s = rec.enter("http.parse", rid);
        let request = wire.read_request().expect("generated requests parse");
        rec.exit(s);

        let response: Arc<Response> = if request.line.is_static() {
            let s = rec.enter("http.static_lookup", rid);
            let response = app
                .statics()
                .response_for_request(request.path(), &request.headers);
            rec.exit(s);
            Arc::new(response)
        } else {
            let s = rec.enter("core.route", rid);
            let (route, _) = app.route(request.path()).expect("generated paths route");
            rec.exit(s);

            let mut snapshot = None;
            let mut hit = None;
            if route.cacheable {
                let s = rec.enter("core.cache_key", rid);
                write_key(&mut key, &route.name, &request.params);
                rec.exit(s);
                if let Some(cache) = &cache {
                    let s = rec.enter("core.doccache_lookup", rid);
                    match cache.lookup(&key) {
                        Lookup::Hit(response) => hit = Some(response),
                        Lookup::Miss(epoch) => snapshot = Some(epoch),
                    }
                    rec.exit(s);
                }
            }
            match hit {
                Some(response) => response,
                None => {
                    if snapshot.is_some() {
                        db_conn.begin_read_tracking();
                    }
                    db_conn.set_route(Some(&route.name));
                    exec_ns.store(0, Ordering::Relaxed);
                    let s = rec.enter("tpcw.handler", rid);
                    let outcome = (route.handler)(&request, &db_conn);
                    rec.attribute("db.exec", rid, exec_ns.load(Ordering::Relaxed));
                    rec.exit(s);
                    db_conn.set_route(None);
                    let reads = db_conn.take_read_set();

                    let response = match outcome.expect("generated requests succeed") {
                        PageOutcome::Body(response) => response,
                        PageOutcome::Template { name, context } => {
                            let s = rec.enter("templates.render", rid);
                            let mut buf = BufferPool::global().get();
                            app.templates()
                                .render_into(&name, &context, &mut buf)
                                .expect("bundled templates render");
                            rendered_bytes += buf.len() as u64;
                            let response = Response::html(buf.freeze());
                            rec.exit(s);
                            response
                        }
                    };
                    cart = load::cart_after(op, response.body(), cart);
                    let response = Arc::new(response);
                    if let (Some(cache), Some(epoch), Some(reads)) = (&cache, snapshot, reads) {
                        let s = rec.enter("core.doccache_publish", rid);
                        cache.publish(&key, Arc::clone(&response), Arc::new(reads), epoch);
                        rec.exit(s);
                    }
                    response
                }
            }
        };

        let s = rec.enter("http.send", rid);
        wire.send(&response).expect("the sink accepts every byte");
        rec.exit(s);
        bytes_out += wire.stream_mut().output.len() as u64;
        rec.exit(root);
    }
    drop(db_conn);

    let spans = rec.spans;
    let self_ns = spans::self_times(&spans);
    // (span name, page) → (calls, self ns, allocations)
    let mut by_page: BTreeMap<(&str, Page), (u64, u64, u64)> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (span, &own) in spans.iter().zip(&self_ns) {
        for slot in [
            by_page
                .entry((span.name, pages[span.request_id as usize]))
                .or_default(),
            by_name.entry(span.name).or_default(),
        ] {
            slot.0 += 1;
            slot.1 += own;
            slot.2 += span.allocs;
        }
    }
    let mean = |(calls, total, _): (u64, u64, u64)| {
        if calls == 0 {
            0.0
        } else {
            total as f64 / calls as f64
        }
    };
    let us = |name: &str| mean(by_name.get(name).copied().unwrap_or_default()) / 1e3;
    let allocs = |name: &str| {
        let (calls, _, allocs) = by_name.get(name).copied().unwrap_or_default();
        mean((calls, allocs, 0))
    };
    let page_us = |name: &'static str, page: Page| {
        mean(by_page.get(&(name, page)).copied().unwrap_or_default()) / 1e3
    };
    let requests = pages.len().max(1) as f64;
    let total_ns = |name: &str| by_name.get(name).map_or(0, |s| s.1) as f64;
    let replay_ns: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64)
        .sum();

    let mut metrics = vec![
        metric("http.parse_us", us("http.parse"), "us"),
        metric("http.parse_allocs", allocs("http.parse"), "count"),
        metric("http.send_us", us("http.send"), "us"),
        metric("http.send_allocs", allocs("http.send"), "count"),
        metric("http.bytes_out_per_req", bytes_out as f64 / requests, "B"),
        metric("http.static_lookup_us", us("http.static_lookup"), "us"),
        metric("core.route_us", us("core.route"), "us"),
        metric("core.cache_key_us", us("core.cache_key"), "us"),
        metric("core.doccache_lookup_us", us("core.doccache_lookup"), "us"),
        metric(
            "core.doccache_publish_us",
            us("core.doccache_publish"),
            "us",
        ),
        metric(
            "templates.render_allocs",
            allocs("templates.render"),
            "count",
        ),
        metric(
            "templates.bytes_per_us",
            rendered_bytes as f64 / (total_ns("templates.render") / 1e3).max(1e-9),
            "B/us",
        ),
        metric(
            "replay.db_exec_share",
            total_ns("db.exec") / replay_ns.max(1.0),
            "ratio",
        ),
    ];
    for page in EXEC_PAGES {
        let name = page.name();
        metrics.push(metric(
            format!("db.exec_us.{name}"),
            page_us("db.exec", page),
            "us",
        ));
        metrics.push(metric(
            format!("tpcw.handler_us.{name}"),
            page_us("tpcw.handler", page),
            "us",
        ));
    }
    for page in RENDER_PAGES {
        metrics.push(metric(
            format!("templates.render_us.{}", page.name()),
            page_us("templates.render", page),
            "us",
        ));
    }
    metrics.push(metric("db.checkout_us", checkout_us(&pool), "us"));
    metrics.push(metric("db.write_us", write_us(db), "us"));
    metrics.push(metric(
        "pool.handoff_us",
        match spec.model {
            Model::Staged => handoff_us(),
            // Thread per request hands nothing from stage to stage.
            Model::Baseline => 0.0,
        },
        "us",
    ));
    Replay {
        metrics,
        spans,
        request_us: replay_ns / requests / 1e3,
    }
}

/// `ConnectionPool::get` plus the drop that returns the connection.
fn checkout_us(pool: &ConnectionPool) -> f64 {
    const ROUNDS: u32 = 20_000;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        drop(std::hint::black_box(pool.get()));
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS)
}

/// One representative mutation through `Database::execute`: the stock
/// decrement of `buy_confirm` alternating with the cart insert of
/// `shopping_cart` (ids far above any the server hands out).
fn write_us(db: &Database) -> f64 {
    const ROUNDS: i64 = 500;
    let started = Instant::now();
    for k in 0..ROUNDS {
        db.execute(
            "UPDATE stock SET st_qty = st_qty + ? WHERE st_i_id = ?",
            &[DbValue::Int(1), DbValue::Int(1 + k % 50)],
        )
        .expect("stock rows exist");
        db.execute(
            "INSERT INTO shopping_cart (sc_id, sc_date) VALUES (?, ?)",
            &[DbValue::Int(4_000_000_000 + k), DbValue::Int(735_000)],
        )
        .expect("cart ids are fresh");
    }
    let per_statement = started.elapsed().as_secs_f64() * 1e6 / (2 * ROUNDS) as f64;
    db.execute(
        "DELETE FROM shopping_cart WHERE sc_id >= ?",
        &[DbValue::Int(4_000_000_000)],
    )
    .expect("the replay's carts delete");
    per_statement
}

/// One stage-to-stage hand-off: a push to a `SyncQueue` that wakes the
/// thread blocked popping it. Two threads bounce a token between two
/// queues; a round trip is two hand-offs.
fn handoff_us() -> f64 {
    const ROUNDS: u32 = 20_000;
    let ping = SyncQueue::<u32>::bounded(1);
    let pong = SyncQueue::<u32>::bounded(1);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while let Some(token) = ping.pop() {
                if pong.push(token).is_err() {
                    break;
                }
            }
        });
        let started = Instant::now();
        for round in 0..ROUNDS {
            ping.push(round).expect("the echo thread is alive");
            pong.pop().expect("the echo thread answers");
        }
        let took = started.elapsed();
        ping.close();
        took.as_secs_f64() * 1e6 / f64::from(2 * ROUNDS)
    })
}
