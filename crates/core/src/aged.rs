//! The entry map both response caches keep ([`crate::DocCache`] and
//! the stale-render cache): entries by key, plus an index of keys by
//! store time, so capacity eviction takes the oldest entry without
//! scanning every entry under the cache lock.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// When an entry was stored; the sequence number orders equal instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Stamp {
    stored: Instant,
    seq: u64,
}

/// Cache entries with oldest-first eviction. `order` holds exactly one
/// key per entry, under the entry's stamp.
pub(crate) struct AgedMap<V> {
    entries: HashMap<String, (Stamp, V)>,
    order: BTreeMap<Stamp, String>,
    next_seq: u64,
}

impl<V> AgedMap<V> {
    pub(crate) fn new() -> Self {
        AgedMap {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// The entry under `key` and how long ago it was stored.
    pub(crate) fn get(&self, key: &str) -> Option<(&V, Duration)> {
        let (stamp, value) = self.entries.get(key)?;
        Some((value, stamp.stored.elapsed()))
    }

    /// Stores `value` under `key`, stamped now. A present key is
    /// refreshed in place. A new key in a map holding `capacity` entries
    /// first evicts every entry older than `ttl` — the oldest ones — and
    /// then, while still full, the oldest survivor.
    pub(crate) fn insert(&mut self, key: &str, value: V, capacity: usize, ttl: Duration) {
        if let Some((stamp, _)) = self.entries.get(key) {
            self.order.remove(stamp);
        } else if self.entries.len() >= capacity {
            loop {
                let full = self.entries.len() >= capacity;
                let Some(oldest) = self.order.first_entry() else {
                    break;
                };
                if !full && oldest.key().stored.elapsed() <= ttl {
                    break;
                }
                self.entries.remove(&oldest.remove());
            }
        }
        let stamp = Stamp {
            stored: Instant::now(),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.order.insert(stamp, key.to_string());
        self.entries.insert(key.to_string(), (stamp, value));
    }

    pub(crate) fn remove(&mut self, key: &str) {
        if let Some((stamp, _)) = self.entries.remove(key) {
            self.order.remove(&stamp);
        }
    }

    /// Keeps the entries `keep` accepts; returns how many it dropped.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) -> usize {
        let before = self.entries.len();
        let order = &mut self.order;
        self.entries.retain(|_, (stamp, value)| {
            let kept = keep(value);
            if !kept {
                order.remove(stamp);
            }
            kept
        });
        before - self.entries.len()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: Duration = Duration::from_secs(3600);

    #[test]
    fn full_map_evicts_expired_entries_then_the_oldest() {
        let mut m = AgedMap::new();
        m.insert("a", 1, 8, HOUR);
        m.insert("b", 2, 8, HOUR);
        std::thread::sleep(Duration::from_millis(40));
        m.insert("c", 3, 8, HOUR);
        // Full at 3 with a TTL only `a` and `b` outlived: both go.
        m.insert("d", 4, 3, Duration::from_millis(20));
        assert_eq!(m.len(), 2);
        assert!(m.get("a").is_none() && m.get("b").is_none());
        // Full again, nothing expired: exactly the oldest goes.
        m.insert("e", 5, 2, HOUR);
        assert_eq!(m.len(), 2);
        assert!(m.get("c").is_none());
        assert_eq!(m.get("e").map(|(v, _)| *v), Some(5));
    }

    #[test]
    fn refresh_moves_an_entry_to_the_back() {
        let mut m = AgedMap::new();
        m.insert("a", 1, 2, HOUR);
        m.insert("b", 2, 2, HOUR);
        m.insert("a", 3, 2, HOUR);
        m.insert("c", 4, 2, HOUR);
        assert!(m.get("b").is_none(), "b is now the oldest");
        assert_eq!(m.get("a").map(|(v, _)| *v), Some(3));
    }

    #[test]
    fn removal_keeps_the_index_in_step() {
        let mut m = AgedMap::new();
        for (i, k) in ["a", "b", "c", "d"].into_iter().enumerate() {
            m.insert(k, i, 8, HOUR);
        }
        assert_eq!(m.retain(|v| v % 2 == 1), 2);
        m.remove("b");
        assert_eq!((m.len(), m.order.len()), (1, 1));
        m.insert("e", 9, 1, HOUR);
        assert_eq!((m.len(), m.order.len()), (1, 1));
        assert!(m.get("e").is_some());
    }
}
