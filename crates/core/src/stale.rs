//! The stale-render cache: the middle rung of the degradation ladder.
//!
//! Successful renders of cache-marked pages ([`crate::AppBuilder::
//! stale_cacheable`]) are retained with a TTL. When fresh generation is
//! unavailable — the database circuit breaker is open, the worker's
//! connection pool is starved, or the request's deadline expired while
//! it sat in a queue — the pipeline serves the stale copy with
//! `Warning: 110` / `Age` headers instead of failing outright, and
//! falls to `503` + `Retry-After` only when no stale copy exists
//! (fresh → stale → shed). A cache of capacity zero is off: that is
//! how `BaselineServer` runs the same pipeline without one, preserving
//! the paper's model comparison.

use crate::aged::AgedMap;
use staged_db::{ReadSet, WriteEvent};
use staged_http::{Body, Response};
use staged_sync::{OrderedMutex, Rank};
use std::sync::Arc;
use std::time::Duration;

/// Rank of the stale-render cache map (DESIGN.md §10). Above the
/// document cache's `core.doccache.state` (118): the invalidation
/// engine may touch both under one write event, doc cache first.
const ENTRIES_RANK: Rank = Rank::new(120);

/// The RFC 7234 warning attached to every stale response.
pub(crate) const STALE_WARNING: &str = "110 - \"Response is Stale\"";

struct Entry {
    body: Body,
    /// What the render read — the invalidation predicate. `None` means
    /// the dependencies are unknown, so any write evicts the entry.
    reads: Option<Arc<ReadSet>>,
}

/// A successful lookup: the cached body plus how old it is.
pub(crate) struct StaleHit {
    pub body: Body,
    pub age: Duration,
}

impl StaleHit {
    /// Builds the degraded `200` carrying the staleness headers. The
    /// cached page is shared into the response, not copied.
    pub(crate) fn response(&self) -> Response {
        let mut resp = Response::html(self.body.clone());
        resp.headers_mut().set("Warning", STALE_WARNING);
        resp.headers_mut()
            .set("Age", self.age.as_secs().to_string());
        resp
    }
}

/// A TTL'd `(page, key) → rendered body` cache with a bounded entry
/// count (expired-then-oldest eviction).
pub(crate) struct StaleCache {
    entries: OrderedMutex<AgedMap<Entry>>,
    ttl: Duration,
    capacity: usize,
}

impl StaleCache {
    /// A cache holding at most `capacity` entries, each usable for
    /// `ttl` after insertion. `capacity == 0` disables the cache.
    pub(crate) fn new(ttl: Duration, capacity: usize) -> Self {
        StaleCache {
            entries: OrderedMutex::new(ENTRIES_RANK, "core.stale.entries", AgedMap::new()),
            ttl,
            capacity,
        }
    }

    /// Retains one successful render with unknown read dependencies —
    /// any later write evicts it. Prefer [`StaleCache::put_tagged`].
    #[cfg(test)]
    pub(crate) fn put(&self, key: &str, body: impl Into<Body>) {
        self.put_tagged(key, body, None);
    }

    /// Retains one successful render — a reference-count bump on the
    /// shared body, never a copy. Refreshes the entry's age if the key
    /// is already present. `reads` is the render's collected read set;
    /// entries stored without one are conservatively evicted by *any*
    /// write.
    pub(crate) fn put_tagged(&self, key: &str, body: impl Into<Body>, reads: Option<Arc<ReadSet>>) {
        if self.capacity == 0 {
            return;
        }
        let entry = Entry {
            body: body.into(),
            reads,
        };
        self.entries
            .lock()
            .insert(key, entry, self.capacity, self.ttl);
    }

    /// Applies one committed write: evicts every entry whose read-set
    /// the write intersects, plus every untagged entry (unknown
    /// dependencies must be assumed touched). A brownout fallback then
    /// serves the freshest copy that survived, never one predating the
    /// write — the stale ladder degrades *age*, not *correctness*.
    pub(crate) fn invalidate(&self, event: &WriteEvent) {
        if self.capacity == 0 {
            return;
        }
        self.entries.lock().retain(|e| match &e.reads {
            Some(reads) => !reads.depends_on(event),
            None => false,
        });
    }

    /// Whether the cache retains anything at all.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks a stale copy up; expired entries are dropped on access.
    pub(crate) fn get(&self, key: &str) -> Option<StaleHit> {
        let mut entries = self.entries.lock();
        let (entry, age) = entries.get(key)?;
        if age > self.ttl {
            entries.remove(key);
            return None;
        }
        Some(StaleHit {
            body: entry.body.clone(),
            age,
        })
    }

    /// Live entry count (expired-but-unevicted entries included).
    #[cfg(any(test, model))]
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

/// Writes the normalized cache key for one request into `out`: the page
/// name plus its sorted query parameters, so `/product_detail?i_id=7`
/// and `?i_id=8` cache separately while parameter order doesn't split
/// entries. Shared by the stale ladder and the document cache — one key
/// space, one derivation.
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

/// The allocating convenience form of [`write_key`] for tests.
#[cfg(test)]
pub(crate) fn cache_key(page: &str, params: &[(String, String)]) -> String {
    let mut key = String::with_capacity(page.len() + 16 * params.len());
    write_key(&mut key, page, params);
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_within_ttl_reports_age() {
        let c = StaleCache::new(Duration::from_secs(60), 8);
        c.put("home", "<h1>hi</h1>");
        let hit = c.get("home").expect("fresh entry");
        assert_eq!(&hit.body[..], b"<h1>hi</h1>");
        assert!(hit.age < Duration::from_secs(1));
        let resp = hit.response();
        assert_eq!(resp.headers().get("warning"), Some(STALE_WARNING));
        assert_eq!(resp.headers().get("age"), Some("0"));
    }

    #[test]
    fn expired_entries_are_dropped() {
        let c = StaleCache::new(Duration::from_millis(10), 8);
        c.put("home", "x");
        std::thread::sleep(Duration::from_millis(15));
        assert!(c.get("home").is_none());
        assert_eq!(c.len(), 0, "expired entry removed on access");
    }

    #[test]
    fn capacity_evicts_oldest() {
        let c = StaleCache::new(Duration::from_secs(60), 2);
        c.put("a", "1");
        std::thread::sleep(Duration::from_millis(2));
        c.put("b", "2");
        std::thread::sleep(Duration::from_millis(2));
        c.put("c", "3");
        assert_eq!(c.len(), 2);
        assert!(c.get("a").is_none(), "oldest entry evicted");
        assert!(c.get("b").is_some());
        assert!(c.get("c").is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let c = StaleCache::new(Duration::from_secs(60), 0);
        c.put("a", "1");
        assert!(c.get("a").is_none());
    }

    #[test]
    fn refresh_updates_in_place_without_eviction() {
        let c = StaleCache::new(Duration::from_secs(60), 2);
        c.put("a", "1");
        c.put("b", "2");
        c.put("a", "1-new");
        assert_eq!(c.len(), 2);
        assert_eq!(&c.get("a").unwrap().body[..], b"1-new");
        assert!(c.get("b").is_some());
    }

    #[test]
    fn hits_share_the_stored_allocation() {
        let c = StaleCache::new(Duration::from_secs(60), 8);
        let body = Body::from("<h1>page</h1>");
        c.put("home", body.clone());
        let hit = c.get("home").unwrap();
        assert_eq!(hit.body.as_ptr(), body.as_ptr(), "get must not copy");
        let resp = hit.response();
        assert_eq!(
            resp.body().as_ptr(),
            body.as_ptr(),
            "response must not copy"
        );
    }

    fn reads_for_pk(id: i64) -> Arc<ReadSet> {
        let db = staged_db::Database::new();
        db.execute("CREATE TABLE item (id INT PRIMARY KEY, v INT)", &[])
            .unwrap();
        let mut rs = ReadSet::new();
        db.execute_tracked(
            "SELECT v FROM item WHERE id = ?",
            &[staged_db::DbValue::Int(id)],
            Some(&mut rs),
        )
        .unwrap();
        Arc::new(rs)
    }

    fn item_event(id: i64) -> WriteEvent {
        let db = staged_db::Database::new();
        db.execute("CREATE TABLE item (id INT PRIMARY KEY, v INT)", &[])
            .unwrap();
        let events = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        db.set_write_observer(move |e| sink.lock().unwrap().push(e.clone()));
        db.execute(
            "INSERT INTO item (id, v) VALUES (?, 0)",
            &[staged_db::DbValue::Int(id)],
        )
        .unwrap();
        let e = events.lock().unwrap().pop().unwrap();
        e
    }

    #[test]
    fn write_evicts_dependent_entries_only() {
        let c = StaleCache::new(Duration::from_secs(60), 8);
        c.put_tagged("item?id=1", "one", Some(reads_for_pk(1)));
        c.put_tagged("item?id=2", "two", Some(reads_for_pk(2)));
        c.invalidate(&item_event(1));
        assert!(c.get("item?id=1").is_none(), "dependent entry evicted");
        assert!(c.get("item?id=2").is_some(), "independent entry survives");
    }

    #[test]
    fn untagged_entries_are_evicted_by_any_write() {
        let c = StaleCache::new(Duration::from_secs(60), 8);
        c.put("home", "page");
        c.invalidate(&item_event(7));
        assert!(
            c.get("home").is_none(),
            "unknown dependencies must be assumed touched"
        );
    }

    #[test]
    fn write_key_matches_sort_then_emit() {
        let params = [
            ("y".to_string(), "2".to_string()),
            ("x".to_string(), "1".to_string()),
            ("y".to_string(), "2".to_string()),
            ("a".to_string(), "0".to_string()),
        ];
        let mut sorted = params.to_vec();
        sorted.sort_unstable();
        let mut reference = String::from("page");
        for (k, v) in &sorted {
            reference.push('&');
            reference.push_str(k);
            reference.push('=');
            reference.push_str(v);
        }
        let mut out = String::from("junk from a previous request");
        write_key(&mut out, "page", &params);
        assert_eq!(out, reference);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn doccache_under_stale_lock_is_a_deliberate_inversion() {
        // Documents the rank design: `core.doccache.state` (118) sits
        // below `core.stale.entries` (120), so doc-cache work while
        // holding the stale map is an inversion the detector must catch.
        let dc = crate::doccache::DocCache::new(Duration::from_secs(1), 4);
        let sc = StaleCache::new(Duration::from_secs(1), 4);
        let _guard = sc.entries.lock();
        let _ = dc.len();
    }

    #[test]
    fn cache_key_is_order_insensitive() {
        let a = [
            ("x".to_string(), "1".to_string()),
            ("y".to_string(), "2".to_string()),
        ];
        let b = [
            ("y".to_string(), "2".to_string()),
            ("x".to_string(), "1".to_string()),
        ];
        assert_eq!(cache_key("page", &a), cache_key("page", &b));
        assert_ne!(cache_key("page", &a), cache_key("page", &[]));
        assert_eq!(cache_key("page", &[]), "page");
    }
}
