//! The dependency-tracked dynamic-page cache (DESIGN.md §14).
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

/// Rank of the cache state (DESIGN.md §10): below the stale ladder's
/// `core.stale.entries` (120) so the invalidation engine may evict from
/// the document cache and then the stale cache under one write event.
const STATE_RANK: Rank = Rank::new(118);

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

/// The dependency-tracked dynamic-page cache.
///
/// See the module docs for the model. Constructed by the staged server
/// when [`ServerConfig::doc_cache`](crate::ServerConfig) is on; the
/// baseline server and the paper-comparison bench legs never build one,
/// keeping Table 2 runs valid.
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
    /// evicts every entry whose read-set the write intersects.
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

#[cfg(test)]
mod tests {
    use super::*;
    use staged_db::{Database, DbValue};

    fn page(body: &str) -> Arc<Response> {
        Arc::new(Response::html(body.to_string()))
    }

    /// Builds a ReadSet through the real executor: `SELECT … WHERE id = ?`
    /// on a PK records an exact key; a scan records the whole table.
    fn reads_for(sql: &str) -> Arc<ReadSet> {
        let db = Database::new();
        db.execute("CREATE TABLE item (id INT PRIMARY KEY, v INT)", &[])
            .unwrap();
        db.execute(
            "INSERT INTO item (id, v) VALUES (?, ?)",
            &[DbValue::Int(1), DbValue::Int(10)],
        )
        .unwrap();
        let mut rs = ReadSet::new();
        db.execute_tracked(sql, &[], Some(&mut rs)).unwrap();
        Arc::new(rs)
    }

    fn event_for(db_sql: &str) -> WriteEvent {
        let db = Database::new();
        db.execute("CREATE TABLE item (id INT PRIMARY KEY, v INT)", &[])
            .unwrap();
        db.execute(
            "INSERT INTO item (id, v) VALUES (?, ?)",
            &[DbValue::Int(1), DbValue::Int(10)],
        )
        .unwrap();
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
        let reads = reads_for("SELECT v FROM item WHERE id = 1");
        assert!(cache.publish("item?id=1", page("<p>10</p>"), reads, s0));
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
        let Lookup::Miss(s0) = cache.lookup("k") else {
            panic!()
        };
        let reads = reads_for("SELECT v FROM item WHERE id = 1");
        cache.publish("k", page("x"), reads, s0);
        cache.invalidate(&event_for("UPDATE item SET v = 11 WHERE id = 1"));
        assert!(matches!(cache.lookup("k"), Lookup::Miss(_)));
        assert_eq!(cache.invalidations(), 1);
    }

    #[test]
    fn write_to_other_key_spares_exact_read() {
        let cache = DocCache::new(Duration::from_secs(60), 16);
        let Lookup::Miss(s0) = cache.lookup("k") else {
            panic!()
        };
        let reads = reads_for("SELECT v FROM item WHERE id = 1");
        cache.publish("k", page("x"), reads, s0);
        cache.invalidate(&event_for("INSERT INTO item (id, v) VALUES (2, 20)"));
        assert!(
            matches!(cache.lookup("k"), Lookup::Hit(_)),
            "a write to another row must not evict an exact-key entry"
        );
    }

    #[test]
    fn write_evicts_whole_table_readers() {
        let cache = DocCache::new(Duration::from_secs(60), 16);
        let Lookup::Miss(s0) = cache.lookup("k") else {
            panic!()
        };
        let reads = reads_for("SELECT COUNT(*) FROM item");
        cache.publish("k", page("x"), reads, s0);
        cache.invalidate(&event_for("INSERT INTO item (id, v) VALUES (2, 20)"));
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
        let reads = reads_for("SELECT v FROM item WHERE id = 1");
        // A write to the dependent table lands between the lookup and
        // the publish: the render may embed pre-write data.
        cache.invalidate(&event_for("UPDATE item SET v = 11 WHERE id = 1"));
        assert!(!cache.publish("k", page("stale"), reads, s0));
        assert!(matches!(cache.lookup("k"), Lookup::Miss(_)));
        assert_eq!(cache.stale_discards(), 1);
    }

    #[test]
    fn ttl_expiry_is_a_miss() {
        let cache = DocCache::new(Duration::ZERO, 16);
        let Lookup::Miss(s0) = cache.lookup("k") else {
            panic!()
        };
        cache.publish("k", page("x"), reads_for("SELECT COUNT(*) FROM item"), s0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(cache.lookup("k"), Lookup::Miss(_)));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let cache = DocCache::new(Duration::from_secs(60), 2);
        let reads = reads_for("SELECT COUNT(*) FROM item");
        for key in ["a", "b", "c"] {
            let Lookup::Miss(s0) = cache.lookup(key) else {
                panic!()
            };
            cache.publish(key, page(key), Arc::clone(&reads), s0);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup("a"), Lookup::Miss(_)), "oldest out");
        assert!(matches!(cache.lookup("c"), Lookup::Hit(_)));
    }

    #[test]
    fn hits_share_one_response_allocation() {
        let cache = DocCache::new(Duration::from_secs(60), 16);
        let Lookup::Miss(s0) = cache.lookup("k") else {
            panic!()
        };
        let published = page("shared");
        cache.publish(
            "k",
            Arc::clone(&published),
            reads_for("SELECT COUNT(*) FROM item"),
            s0,
        );
        let (Lookup::Hit(a), Lookup::Hit(b)) = (cache.lookup("k"), cache.lookup("k")) else {
            panic!("both lookups should hit")
        };
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &published));
    }
}
