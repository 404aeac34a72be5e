//! The one response cache: dependency-tracked rendered pages (DESIGN.md
//! §14), read by two lookups.
//!
//! PAPERS.md "Vcache" insight: a dynamic page is cacheable *if you know
//! what it read*. Each miss renders normally while the connection
//! accumulates a [`ReadSet`]; the finished response is published tagged
//! with that set. Every committed mutation reports a [`WriteEvent`]
//! (table + primary keys), and the cache evicts exactly the entries
//! whose read-sets intersect it — so a cached response is *never*
//! stale. TTL and capacity are backstops against unbounded growth, not
//! the correctness mechanism.
//!
//! Freshness across the publish race: a request snapshots the cache
//! epoch *before* its first query ([`DocCache::lookup`] returns it on a
//! miss). [`DocCache::publish`] discards the render if any table it
//! depends on was written after that snapshot — the worst case is a
//! lost caching opportunity, never a stale entry.
//!
//! The same entries serve two policies, decided at lookup time:
//! [`DocCache::lookup`] answers fresh hits from the parse stage (only
//! when [`ServerConfig::doc_cache`](crate::ServerConfig) is on), and
//! [`DocCache::lookup_stale`] is the degradation ladder's middle rung —
//! the same entry as a `200` with `Warning: 110` / `Age` while fresh
//! generation is unavailable. Both see only entries that passed the
//! publish guard and survived every later write, so the ladder degrades
//! *age*, never correctness.
//!
//! The hit path is allocation-free: one rank-118 read lock, a `HashMap`
//! probe, an `Arc` bump, and relaxed counter increments.

use crate::aged::AgedMap;
use staged_db::{ReadSet, WriteEvent};
use staged_http::Response;
use staged_sync::atomic::{AtomicU64, Ordering};
use staged_sync::{OrderedRwLock, Rank};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Rank of the cache state (DESIGN.md §10).
const STATE_RANK: Rank = Rank::new(118);

/// How long an entry stays servable, fresh or stale: a backstop for
/// pages whose tables never change.
pub(crate) const TTL: Duration = Duration::from_secs(60);

/// Entry bound when the cache serves fresh hits.
pub(crate) const HIT_CAPACITY: usize = 1024;

/// Entry bound when the cache only backs the degradation ladder.
pub(crate) const LADDER_CAPACITY: usize = 256;

/// The RFC 7234 warning attached to every stale response.
pub(crate) const STALE_WARNING: &str = "110 - \"Response is Stale\"";

/// One cached rendered page.
struct CacheEntry {
    /// The complete prebuilt response (headers included — building one
    /// on the hit path would allocate). `Arc`-shared with every hit.
    response: Arc<Response>,
    /// What the render read; the invalidation predicate.
    reads: Arc<ReadSet>,
    /// Body size, for the bytes-served counter.
    bytes: u64,
}

struct CacheState {
    /// Stamped with the publish time (TTL backstop, oldest-first
    /// capacity eviction).
    entries: AgedMap<CacheEntry>,
    /// Per-table last-write epoch; compared against a request's miss
    /// snapshot to reject renders that raced a write.
    table_versions: HashMap<String, u64>,
    /// Bumped once per write event; `table_versions` values are drawn
    /// from it.
    epoch: u64,
}

/// A cache lookup outcome: either a complete response to serve from the
/// front line, or the epoch snapshot a miss must carry to `publish`.
pub enum Lookup {
    /// Serve this; skip the DB and render stages entirely.
    Hit(Arc<Response>),
    /// Render normally; pass this snapshot back to
    /// [`DocCache::publish`].
    Miss(u64),
}

/// The dependency-tracked response cache.
///
/// See the module docs for the model. The staged server always builds
/// one — it backs the degradation ladder — and serves fresh hits from
/// it only when [`ServerConfig::doc_cache`](crate::ServerConfig) is on;
/// the thread-per-request baseline has none, keeping the paper's model
/// comparison valid.
pub struct DocCache {
    state: OrderedRwLock<CacheState>,
    ttl: Duration,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    publishes: AtomicU64,
    /// Entries evicted because a write intersected their read-set.
    invalidations: AtomicU64,
    /// Renders discarded at publish time because a dependent table was
    /// written after the request's epoch snapshot.
    stale_discards: AtomicU64,
    bytes_served: AtomicU64,
    /// Published dependencies that were row-level (exact keys or row
    /// filters) rather than whole-table — the planner's read-set
    /// refinement at work, so writes to unrelated rows leave these
    /// entries cached.
    row_level_deps: AtomicU64,
}

impl DocCache {
    /// Creates an empty cache. Entries older than `ttl` stop being
    /// served (backstop only — invalidation is the correctness
    /// mechanism); `capacity` bounds the entry count, evicting expired
    /// entries and then the oldest first.
    pub fn new(ttl: Duration, capacity: usize) -> Self {
        DocCache {
            state: OrderedRwLock::new(
                STATE_RANK,
                "core.doccache.state",
                CacheState {
                    entries: AgedMap::new(),
                    table_versions: HashMap::new(),
                    epoch: 0,
                },
            ),
            ttl,
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            stale_discards: AtomicU64::new(0),
            bytes_served: AtomicU64::new(0),
            row_level_deps: AtomicU64::new(0),
        }
    }

    // lint: hot_path — the cache-hit serve path: one read lock, one map
    // probe, one Arc bump; no allocation.
    /// Looks `key` up. A fresh entry is a [`Lookup::Hit`]; anything else
    /// is a [`Lookup::Miss`] carrying the epoch snapshot the render must
    /// hand back to [`DocCache::publish`]. Public so the `cache_series`
    /// bench can drive the hit path in-process under a counting
    /// allocator.
    pub fn lookup(&self, key: &str) -> Lookup {
        let state = self.state.read();
        if let Some((entry, age)) = state.entries.get(key) {
            if age <= self.ttl {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_served.fetch_add(entry.bytes, Ordering::Relaxed);
                return Lookup::Hit(Arc::clone(&entry.response));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss(state.epoch)
    }
    // lint: end_hot_path

    /// The epoch snapshot a [`Lookup::Miss`] would carry, taken without
    /// serving or counting anything — for requests the cache only
    /// retains for the ladder, which still need the publish guard.
    pub(crate) fn epoch(&self) -> u64 {
        self.state.read().epoch
    }

    /// The degradation ladder's lookup: the entry under `key`, if still
    /// valid (no write evicted it and it is within the TTL), as a `200`
    /// carrying `Warning: 110` and its `Age`. The cached body is shared
    /// into the response, not copied. Counts nothing — the hit, miss
    /// and bytes-served counters describe the fresh path.
    pub fn lookup_stale(&self, key: &str) -> Option<Response> {
        let (body, age) = {
            let state = self.state.read();
            let (entry, age) = state.entries.get(key)?;
            if age > self.ttl {
                return None;
            }
            (entry.response.body_shared(), age)
        };
        let mut resp = Response::html(body);
        resp.headers_mut().set("Warning", STALE_WARNING);
        resp.headers_mut().set("Age", age.as_secs().to_string());
        Some(resp)
    }

    /// Publishes a rendered page under `key`, tagged with the read set
    /// collected during its render and the epoch `snapshot` its lookup
    /// returned. Returns `false` (and caches nothing) when a dependent
    /// table was written after the snapshot — the render may embed
    /// pre-write data, and correctness beats reuse.
    pub fn publish(
        &self,
        key: &str,
        response: Arc<Response>,
        reads: Arc<ReadSet>,
        snapshot: u64,
    ) -> bool {
        let mut state = self.state.write();
        let raced = staged_sync::mutant!("doccache_skip_epoch_check" => {
            // broken: trust every render, even one that raced a write
            // to a table it read — the classic stale-publish bug
            false
        } else {
            reads
                .reads()
                .iter()
                .any(|r| state.table_versions.get(&r.table).copied().unwrap_or(0) > snapshot)
        });
        if raced {
            self.stale_discards.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let bytes = response.body().len() as u64;
        let keyed = reads.reads().iter().filter(|r| r.keys.is_some()).count() as u64;
        if keyed > 0 {
            self.row_level_deps.fetch_add(keyed, Ordering::Relaxed);
        }
        state.entries.insert(
            key,
            CacheEntry {
                response,
                reads,
                bytes,
            },
            self.capacity,
            self.ttl,
        );
        self.publishes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Applies one committed write: bumps the table's version (so
    /// in-flight renders that read the old data cannot publish) and
    /// evicts every entry whose read-set the write intersects. The
    /// server's database write observer calls this for every mutation.
    pub(crate) fn invalidate(&self, event: &WriteEvent) {
        let mut state = self.state.write();
        state.epoch += 1;
        let epoch = state.epoch;
        match state.table_versions.get_mut(&event.table) {
            Some(v) => *v = epoch,
            None => {
                state.table_versions.insert(event.table.clone(), epoch);
            }
        }
        let evicted = staged_sync::mutant!("doccache_skip_evict" => {
            // broken: bump the epoch but leave intersecting entries in
            // place — hits serve pre-write bodies forever
            0
        } else {
            state.entries.retain(|e| !e.reads.depends_on(event)) as u64
        });
        if evicted > 0 {
            self.invalidations.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.state.read().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Lookups that missed (cold, TTL-expired, or evicted).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Pages published.
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Entries evicted by write invalidation.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Renders discarded at publish time for racing a write.
    pub fn stale_discards(&self) -> u64 {
        self.stale_discards.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Body bytes served from cache hits.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served.load(Ordering::Relaxed) // lint: allow(relaxed)
    }

    /// Row-level (exact-key or row-filter) dependencies published, vs
    /// whole-table.
    pub fn row_level_deps(&self) -> u64 {
        self.row_level_deps.load(Ordering::Relaxed) // lint: allow(relaxed)
    }
}

/// Writes the normalized cache key for one request into `out`: the page
/// name plus its sorted query parameters, so `/product_detail?i_id=7`
/// and `?i_id=8` cache separately while parameter order doesn't split
/// entries.
///
/// Emits in selection order rather than materializing a sorted `Vec`,
/// so a reused `out` (the header stage's per-thread buffer) makes key
/// derivation allocation-free once the buffer has grown to page size.
/// Quadratic in the parameter count, which TPC-W bounds at a handful.
// lint: hot_path — runs per dynamic GET before cache lookup; must not
// allocate beyond the caller's reusable buffer.
pub fn write_key(out: &mut String, page: &str, params: &[(String, String)]) {
    out.clear();
    out.push_str(page);
    let mut last: Option<&(String, String)> = None;
    loop {
        let mut next: Option<&(String, String)> = None;
        for p in params {
            if let Some(done) = last {
                if p <= done {
                    continue;
                }
            }
            match next {
                Some(n) if p >= n => {}
                _ => next = Some(p),
            }
        }
        let Some(n) = next else { break };
        // Duplicated parameters are emitted as many times as they
        // appear, matching a sort-then-emit of the full list.
        for _ in 0..params.iter().filter(|p| *p == n).count() {
            out.push('&');
            out.push_str(&n.0);
            out.push('=');
            out.push_str(&n.1);
        }
        last = Some(n);
    }
}
// lint: end_hot_path

#[cfg(test)]
mod tests {
    use super::*;
    use staged_db::Database;

    /// A read of the whole `item` table and a read of its row 1.
    const SCAN: &str = "SELECT COUNT(*) FROM item";
    const ROW1: &str = "SELECT v FROM item WHERE id = 1";
    const WRITE_ROW1: &str = "UPDATE item SET v = 11 WHERE id = 1";
    const INSERT_ROW2: &str = "INSERT INTO item (id, v) VALUES (2, 20)";

    fn page(body: &str) -> Arc<Response> {
        Arc::new(Response::html(body.to_string()))
    }

    /// Publishes `body` under `key`, tagged with what `sql` reads, with
    /// a current epoch snapshot.
    fn put(cache: &DocCache, key: &str, body: Arc<Response>, sql: &str) {
        assert!(cache.publish(key, body, reads_for(sql), cache.epoch()));
    }

    /// A database holding `item` row 1.
    fn item_db() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE item (id INT PRIMARY KEY, v INT)", &[])
            .unwrap();
        db.execute("INSERT INTO item (id, v) VALUES (1, 10)", &[])
            .unwrap();
        db
    }

    /// Builds a ReadSet through the real executor: `SELECT … WHERE id = ?`
    /// on a PK records an exact key; a scan records the whole table.
    fn reads_for(sql: &str) -> Arc<ReadSet> {
        let mut rs = ReadSet::new();
        item_db().execute_tracked(sql, &[], Some(&mut rs)).unwrap();
        Arc::new(rs)
    }

    fn event_for(db_sql: &str) -> WriteEvent {
        let db = item_db();
        let events = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        db.set_write_observer(move |e| sink.lock().unwrap().push(e.clone()));
        db.execute(db_sql, &[]).unwrap();
        let mut events = events.lock().unwrap();
        events.pop().expect("mutation fired an event")
    }

    #[test]
    fn miss_then_publish_then_hit() {
        let cache = DocCache::new(Duration::from_secs(60), 16);
        let Lookup::Miss(s0) = cache.lookup("item?id=1") else {
            panic!("cold cache should miss");
        };
        assert!(cache.publish("item?id=1", page("<p>10</p>"), reads_for(ROW1), s0));
        match cache.lookup("item?id=1") {
            Lookup::Hit(r) => assert_eq!(r.body(), b"<p>10</p>"),
            Lookup::Miss(_) => panic!("published entry should hit"),
        }
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.bytes_served(), 9);
    }

    #[test]
    fn write_to_read_key_evicts() {
        let cache = DocCache::new(Duration::from_secs(60), 16);
        put(&cache, "k", page("x"), ROW1);
        cache.invalidate(&event_for(WRITE_ROW1));
        assert!(matches!(cache.lookup("k"), Lookup::Miss(_)));
        assert_eq!(cache.invalidations(), 1);
    }

    #[test]
    fn write_to_other_key_spares_exact_read() {
        let cache = DocCache::new(Duration::from_secs(60), 16);
        put(&cache, "k", page("x"), ROW1);
        cache.invalidate(&event_for(INSERT_ROW2));
        assert!(
            matches!(cache.lookup("k"), Lookup::Hit(_)),
            "a write to another row must not evict an exact-key entry"
        );
    }

    #[test]
    fn write_evicts_whole_table_readers() {
        let cache = DocCache::new(Duration::from_secs(60), 16);
        put(&cache, "k", page("x"), SCAN);
        cache.invalidate(&event_for(INSERT_ROW2));
        assert!(
            matches!(cache.lookup("k"), Lookup::Miss(_)),
            "a scan depends on every row, including new ones"
        );
    }

    #[test]
    fn publish_racing_a_write_is_discarded() {
        let cache = DocCache::new(Duration::from_secs(60), 16);
        let Lookup::Miss(s0) = cache.lookup("k") else {
            panic!()
        };
        // A write to the dependent table lands between the lookup and
        // the publish: the render may embed pre-write data.
        cache.invalidate(&event_for(WRITE_ROW1));
        assert!(!cache.publish("k", page("stale"), reads_for(ROW1), s0));
        assert!(matches!(cache.lookup("k"), Lookup::Miss(_)));
        assert_eq!(cache.stale_discards(), 1);
    }

    #[test]
    fn ladder_never_serves_a_render_that_raced_a_write() {
        let cache = DocCache::new(Duration::from_secs(60), 8);
        let Lookup::Miss(s0) = cache.lookup("k") else {
            panic!("cold cache should miss")
        };
        cache.invalidate(&event_for(WRITE_ROW1));
        assert!(!cache.publish("k", page("pre-write"), reads_for(ROW1), s0));
        assert!(
            cache.lookup_stale("k").is_none(),
            "a brownout must not serve a render the write superseded"
        );
    }

    #[test]
    fn ttl_expiry_is_a_miss() {
        let cache = DocCache::new(Duration::ZERO, 16);
        put(&cache, "k", page("x"), SCAN);
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(cache.lookup("k"), Lookup::Miss(_)));
    }

    #[test]
    fn ladder_drops_expired_entries() {
        let cache = DocCache::new(Duration::from_millis(10), 8);
        put(&cache, "home", page("x"), SCAN);
        std::thread::sleep(Duration::from_millis(15));
        assert!(cache.lookup_stale("home").is_none());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let cache = DocCache::new(Duration::from_secs(60), 2);
        for key in ["a", "b", "c"] {
            put(&cache, key, page(key), SCAN);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup("a"), Lookup::Miss(_)), "oldest out");
        assert!(matches!(cache.lookup("c"), Lookup::Hit(_)));
    }

    #[test]
    fn ladder_capacity_evicts_oldest() {
        let cache = DocCache::new(Duration::from_secs(60), 2);
        for key in ["a", "b", "c"] {
            put(&cache, key, page(key), SCAN);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup_stale("a").is_none(), "oldest entry evicted");
        assert!(cache.lookup_stale("b").is_some());
        assert!(cache.lookup_stale("c").is_some());
    }

    #[test]
    fn hits_share_one_response_allocation() {
        let cache = DocCache::new(Duration::from_secs(60), 16);
        let published = page("shared");
        put(&cache, "k", Arc::clone(&published), SCAN);
        let (Lookup::Hit(a), Lookup::Hit(b)) = (cache.lookup("k"), cache.lookup("k")) else {
            panic!("both lookups should hit")
        };
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &published));
    }

    #[test]
    fn ladder_hits_share_the_stored_allocation() {
        let cache = DocCache::new(Duration::from_secs(60), 8);
        let published = page("<h1>page</h1>");
        put(&cache, "home", Arc::clone(&published), SCAN);
        for _ in 0..2 {
            let resp = cache.lookup_stale("home").unwrap();
            assert_eq!(
                resp.body().as_ptr(),
                published.body().as_ptr(),
                "the stale response must not copy the page"
            );
        }
    }

    #[test]
    fn hit_within_ttl_reports_age() {
        let cache = DocCache::new(Duration::from_secs(60), 8);
        assert!(cache.lookup_stale("home").is_none(), "cold cache");
        put(&cache, "home", page("<h1>hi</h1>"), SCAN);
        let resp = cache.lookup_stale("home").expect("valid entry");
        assert_eq!(resp.body(), b"<h1>hi</h1>");
        assert_eq!(resp.headers().get("warning"), Some(STALE_WARNING));
        assert_eq!(resp.headers().get("age"), Some("0"));
        assert_eq!(
            (cache.hits(), cache.misses(), cache.bytes_served()),
            (0, 0, 0),
            "the ladder does not count as fresh traffic"
        );
    }

    #[test]
    fn refresh_updates_in_place_without_eviction() {
        let cache = DocCache::new(Duration::from_secs(60), 2);
        put(&cache, "a", page("1"), SCAN);
        put(&cache, "b", page("2"), SCAN);
        put(&cache, "a", page("1-new"), SCAN);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup_stale("a").unwrap().body(), b"1-new");
        assert!(cache.lookup_stale("b").is_some());
    }

    #[test]
    fn write_evicts_dependent_entries_only() {
        let cache = DocCache::new(Duration::from_secs(60), 8);
        put(&cache, "item?id=1", page("one"), ROW1);
        put(
            &cache,
            "item?id=2",
            page("two"),
            "SELECT v FROM item WHERE id = 2",
        );
        cache.invalidate(&event_for(WRITE_ROW1));
        assert!(cache.lookup_stale("item?id=1").is_none(), "dependent");
        assert!(cache.lookup_stale("item?id=2").is_some(), "independent");
    }

    /// `write_key` of `page` with `params`, over a buffer holding junk
    /// from a previous request.
    fn key(params: &[(&str, &str)]) -> String {
        let params: Vec<_> = params
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut out = String::from("junk from a previous request");
        write_key(&mut out, "page", &params);
        out
    }

    #[test]
    fn write_key_matches_sort_then_emit() {
        let params = [("y", "2"), ("x", "1"), ("y", "2"), ("a", "0")];
        let mut sorted = params.to_vec();
        sorted.sort_unstable();
        let reference: String = sorted.iter().map(|(k, v)| format!("&{k}={v}")).collect();
        assert_eq!(key(&params), format!("page{reference}"));
    }

    #[test]
    fn cache_key_is_order_insensitive() {
        assert_eq!(
            key(&[("x", "1"), ("y", "2")]),
            key(&[("y", "2"), ("x", "1")])
        );
        assert_ne!(key(&[("x", "1")]), key(&[]));
        assert_eq!(key(&[]), "page");
    }
}
