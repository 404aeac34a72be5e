//! The one response cache: dependency-tracked rendered pages (DESIGN.md
//! §14).
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
//! Capacity replacement keeps what is costly: each entry carries the
//! service time its miss took to regenerate it, and a full cache evicts
//! expired entries first, then the entry of lowest GreedyDual priority
//! (`L + refs × cost`; see [`crate::aged`]).
//!
//! Freshness across the publish race: a request snapshots the cache
//! epoch *before* its first query ([`DocCache::lookup`] returns it on a
//! miss). [`DocCache::publish`] discards the render if any table it
//! depends on was written after that snapshot — the worst case is a
//! lost caching opportunity, never a stale entry.
//!
//! The hit path is allocation-free: one rank-118 read lock, a `HashMap`
//! probe, an `Arc` bump, and relaxed counter and priority updates.

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

/// How long an entry stays servable: a backstop for pages whose tables
/// never change.
pub(crate) const TTL: Duration = Duration::from_secs(60);

/// The entry bound.
pub(crate) const CAPACITY: usize = 1024;

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
    /// Stamped with the publish time (TTL backstop) and ranked by
    /// regeneration cost and hits (capacity eviction).
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
/// See the module docs for the model. The staged server builds one
/// only when [`ServerConfig::doc_cache`](crate::ServerConfig) is on;
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
    /// Entries evicted to make room for a publish: expired ones, then
    /// the lowest-priority ones.
    capacity_evictions: AtomicU64,
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
    /// entries and then the ones cheapest to regenerate for their hits.
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
            capacity_evictions: AtomicU64::new(0),
            stale_discards: AtomicU64::new(0),
            bytes_served: AtomicU64::new(0),
            row_level_deps: AtomicU64::new(0),
        }
    }

    // lint: hot_path — the cache-hit serve path: one read lock, one map
    // probe, one Arc bump; no allocation.
    /// Looks `key` up. A fresh entry is a [`Lookup::Hit`]; anything else
    /// is a [`Lookup::Miss`] carrying the epoch snapshot the render must
    /// hand back to [`DocCache::publish`]. Public so the `hit_allocs`
    /// test can drive the hit path in-process under a counting
    /// allocator.
    pub fn lookup(&self, key: &str) -> Lookup {
        let state = self.state.read();
        if let Some(found) = state.entries.get(key) {
            if found.age <= self.ttl {
                found.hit();
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_served
                    .fetch_add(found.value.bytes, Ordering::Relaxed);
                return Lookup::Hit(Arc::clone(&found.value.response));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss(state.epoch)
    }
    // lint: end_hot_path

    /// [`DocCache::publish_with_cost`] for a caller that did not time
    /// the render: every such entry ranks at the least cost.
    pub fn publish(
        &self,
        key: &str,
        response: Arc<Response>,
        reads: Arc<ReadSet>,
        snapshot: u64,
    ) -> bool {
        self.publish_with_cost(key, response, reads, snapshot, Duration::ZERO)
    }

    /// Publishes a rendered page under `key`, tagged with the read set
    /// collected during its render, the epoch `snapshot` its lookup
    /// returned, and what it `cost` to regenerate (the service time of
    /// its miss, which ranks it for capacity eviction). Returns `false`
    /// (and caches nothing) when a dependent table was written after the
    /// snapshot — the render may embed pre-write data, and correctness
    /// beats reuse.
    pub fn publish_with_cost(
        &self,
        key: &str,
        response: Arc<Response>,
        reads: Arc<ReadSet>,
        snapshot: u64,
        cost: Duration,
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
        let entry = CacheEntry {
            response,
            reads,
            bytes,
        };
        let evicted = state
            .entries
            .insert(key, entry, cost, self.capacity, self.ttl);
        if evicted > 0 {
            self.capacity_evictions
                .fetch_add(evicted as u64, Ordering::Relaxed);
        }
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

    /// Entries evicted to make room for a publish.
    pub fn capacity_evictions(&self) -> u64 {
        self.capacity_evictions.load(Ordering::Relaxed) // lint: allow(relaxed)
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

    /// The epoch snapshot a miss carries now, from a lookup of a key no
    /// test publishes.
    fn snapshot(cache: &DocCache) -> u64 {
        let Lookup::Miss(s) = cache.lookup("unpublished") else {
            panic!("nothing is published under this key")
        };
        s
    }

    /// Whether `key` is a hit.
    fn cached(cache: &DocCache, key: &str) -> bool {
        matches!(cache.lookup(key), Lookup::Hit(_))
    }

    /// Publishes `body` under `key`, tagged with what `sql` reads, with
    /// a current epoch snapshot.
    fn put(cache: &DocCache, key: &str, body: Arc<Response>, sql: &str) {
        assert!(cache.publish(key, body, reads_for(sql), snapshot(cache)));
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
    fn ttl_expiry_is_a_miss() {
        let cache = DocCache::new(Duration::ZERO, 16);
        put(&cache, "k", page("x"), SCAN);
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(cache.lookup("k"), Lookup::Miss(_)));
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
    fn refresh_updates_in_place_without_eviction() {
        let cache = DocCache::new(Duration::from_secs(60), 2);
        put(&cache, "a", page("1"), SCAN);
        put(&cache, "b", page("2"), SCAN);
        put(&cache, "a", page("1-new"), SCAN);
        assert_eq!(cache.len(), 2);
        let Lookup::Hit(a) = cache.lookup("a") else {
            panic!("refreshed entry should hit")
        };
        assert_eq!(a.body(), b"1-new");
        assert!(cached(&cache, "b"));
    }

    /// Publishes a page under `key` at an injected regeneration cost.
    fn put_at_cost(cache: &DocCache, key: &str, micros: u64) {
        let cost = Duration::from_micros(micros);
        let reads = Arc::new(ReadSet::new());
        assert!(cache.publish_with_cost(key, page(key), reads, snapshot(cache), cost));
    }

    #[test]
    fn expensive_entry_survives_a_stream_of_cheap_publishes() {
        let cache = DocCache::new(Duration::from_secs(60), 4);
        put_at_cost(&cache, "search", 1_000);
        for i in 0..20 {
            put_at_cost(&cache, &format!("detail{i}"), 15);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.capacity_evictions(), 17);
        assert!(
            cached(&cache, "search"),
            "oldest, but 1 ms to regenerate against 15 µs"
        );
    }

    #[test]
    fn a_hit_ranks_an_entry_above_an_unhit_one_of_equal_cost() {
        let cache = DocCache::new(Duration::from_secs(60), 2);
        put_at_cost(&cache, "a", 100);
        put_at_cost(&cache, "b", 100);
        assert!(matches!(cache.lookup("a"), Lookup::Hit(_)));
        put_at_cost(&cache, "c", 100);
        assert!(cached(&cache, "a"), "hit, though older");
        assert!(!cached(&cache, "b"), "unhit, so evicted");
    }

    #[test]
    fn republish_refreshes_the_cost() {
        let cache = DocCache::new(Duration::from_secs(60), 2);
        put_at_cost(&cache, "a", 1_000);
        put_at_cost(&cache, "b", 100);
        // `a` now regenerates cheaply: it ranks by its new cost.
        put_at_cost(&cache, "a", 10);
        put_at_cost(&cache, "c", 100);
        assert!(!cached(&cache, "a"));
        assert!(cached(&cache, "b"));
        assert_eq!(cache.capacity_evictions(), 1);
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
        assert!(!cached(&cache, "item?id=1"), "dependent");
        assert!(cached(&cache, "item?id=2"), "independent");
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
