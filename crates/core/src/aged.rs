//! The response cache's entry map ([`crate::DocCache`]): entries by
//! key, ranked for replacement by what they would cost to regenerate.
//!
//! Replacement is GreedyDual-style (Cao & Irani 1997): an entry's
//! priority is `L + refs × cost`, where `cost` is its measured
//! regeneration time, `refs` counts the miss that published it plus
//! every hit since, and `L` is the priority of the last entry evicted
//! for capacity. A full map drops expired entries first, then the entry
//! of lowest priority — the oldest on a tie — and raises `L` to that
//! priority, so entries that stop being hit age out however costly they
//! were. With equal costs and no hits the order is oldest-first.
//!
//! A hit raises its entry's priority with relaxed atomics under the
//! cache's read lock. The ordered index is re-keyed lazily: it files
//! each entry under the priority it had when last indexed — a lower
//! bound, since priorities only rise — and an eviction that pops an
//! entry whose priority has risen files it again instead, so the entry
//! it finally takes is a true minimum without scanning every entry.

use staged_sync::atomic::{AtomicU64, Ordering};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// One cached value and its replacement state.
struct Slot<V> {
    value: V,
    stored: Instant,
    /// Store order: the TTL sweep's order, the tie-break between equal
    /// priorities, and the way from the ordered index back to the key.
    seq: u64,
    /// Regeneration cost in microseconds, at least 1.
    cost: u64,
    /// The publishing miss plus every hit since.
    refs: AtomicU64,
    /// `L + refs × cost` as of the last reference; only rises.
    priority: AtomicU64,
    /// The priority `order` files this entry under: at most `priority`.
    ranked: u64,
}

/// Cache entries with cost-aware replacement. `by_age` and `order`
/// hold exactly one element per entry.
pub(crate) struct AgedMap<V> {
    entries: HashMap<String, Slot<V>>,
    /// Keys by store sequence, oldest first.
    by_age: BTreeMap<u64, String>,
    /// `(ranked priority, seq)` per entry, lowest first.
    order: BTreeSet<(u64, u64)>,
    /// GreedyDual's `L`: the priority of the last entry evicted for
    /// capacity.
    floor: u64,
    next_seq: u64,
}

/// An entry as [`AgedMap::get`] found it.
pub(crate) struct Found<'m, V> {
    pub(crate) value: &'m V,
    /// How long ago the entry was stored.
    pub(crate) age: Duration,
    slot: &'m Slot<V>,
    floor: u64,
}

impl<V> Found<'_, V> {
    /// Counts a hit: the entry's priority rises to `L + refs × cost`.
    /// Relaxed, allocation-free, safe under a shared borrow of the map;
    /// a racing hit may land the lower of two raises, which only costs
    /// that entry one reference of rank.
    pub(crate) fn hit(&self) {
        let refs = self.slot.refs.fetch_add(1, Ordering::Relaxed) + 1;
        let priority = rank(self.floor, refs, self.slot.cost);
        self.slot.priority.fetch_max(priority, Ordering::Relaxed);
    }
}

/// `L + refs × cost`, saturating.
fn rank(floor: u64, refs: u64, cost: u64) -> u64 {
    floor.saturating_add(refs.saturating_mul(cost))
}

impl<V> AgedMap<V> {
    pub(crate) fn new() -> Self {
        AgedMap {
            entries: HashMap::new(),
            by_age: BTreeMap::new(),
            order: BTreeSet::new(),
            floor: 0,
            next_seq: 0,
        }
    }

    /// The entry under `key`.
    pub(crate) fn get(&self, key: &str) -> Option<Found<'_, V>> {
        let slot = self.entries.get(key)?;
        Some(Found {
            value: &slot.value,
            age: slot.stored.elapsed(),
            slot,
            floor: self.floor,
        })
    }

    /// Stores `value` under `key`, stamped now, at regeneration `cost`
    /// and priority `L + cost`. A present key is replaced, cost and
    /// all. A new key in a map holding `capacity` entries first evicts
    /// every entry older than `ttl`, oldest first, and then, while still
    /// full, the entry of lowest priority. Returns how many entries it
    /// evicted.
    pub(crate) fn insert(
        &mut self,
        key: &str,
        value: V,
        cost: Duration,
        capacity: usize,
        ttl: Duration,
    ) -> usize {
        let mut evicted = 0;
        if let Some(old) = self.entries.remove(key) {
            self.by_age.remove(&old.seq);
            self.order.remove(&(old.ranked, old.seq));
        } else if self.entries.len() >= capacity {
            while let Some(oldest) = self.by_age.first_entry() {
                let Some(slot) = self.entries.get(oldest.get()) else {
                    break;
                };
                if slot.stored.elapsed() <= ttl {
                    break;
                }
                let (seq, ranked) = (slot.seq, slot.ranked);
                self.entries.remove(&oldest.remove());
                self.order.remove(&(ranked, seq));
                evicted += 1;
            }
            while self.entries.len() >= capacity {
                let Some((ranked, seq)) = self.order.pop_first() else {
                    break;
                };
                let Some(slot) = self.by_age.get(&seq).and_then(|k| self.entries.get_mut(k)) else {
                    continue;
                };
                let priority = *slot.priority.get_mut();
                if priority > ranked {
                    // Hit since it was filed: file it again, higher.
                    slot.ranked = priority;
                    self.order.insert((priority, seq));
                    continue;
                }
                if let Some(key) = self.by_age.remove(&seq) {
                    self.entries.remove(&key);
                }
                self.floor = ranked;
                evicted += 1;
            }
        }
        let cost = u64::try_from(cost.as_micros()).unwrap_or(u64::MAX).max(1);
        let priority = rank(self.floor, 1, cost);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_age.insert(seq, key.to_string());
        self.order.insert((priority, seq));
        let slot = Slot {
            value,
            stored: Instant::now(),
            seq,
            cost,
            refs: AtomicU64::new(1),
            priority: AtomicU64::new(priority),
            ranked: priority,
        };
        self.entries.insert(key.to_string(), slot);
        evicted
    }

    /// Keeps the entries `keep` accepts; returns how many it dropped.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) -> usize {
        let before = self.entries.len();
        let (by_age, order) = (&mut self.by_age, &mut self.order);
        self.entries.retain(|_, slot| {
            let kept = keep(&slot.value);
            if !kept {
                by_age.remove(&slot.seq);
                order.remove(&(slot.ranked, slot.seq));
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
    const COST: Duration = Duration::from_micros(100);

    #[test]
    fn full_map_evicts_expired_entries_then_the_oldest() {
        let mut m = AgedMap::new();
        m.insert("a", 1, COST, 8, HOUR);
        m.insert("b", 2, COST, 8, HOUR);
        std::thread::sleep(Duration::from_millis(40));
        m.insert("c", 3, COST, 8, HOUR);
        // Full at 3 with a TTL only `a` and `b` outlived: both go.
        m.insert("d", 4, COST, 3, Duration::from_millis(20));
        assert_eq!(m.len(), 2);
        assert!(m.get("a").is_none() && m.get("b").is_none());
        // Full again, nothing expired: exactly the oldest goes.
        m.insert("e", 5, COST, 2, HOUR);
        assert_eq!(m.len(), 2);
        assert!(m.get("c").is_none());
        assert_eq!(m.get("e").map(|f| *f.value), Some(5));
    }

    #[test]
    fn refresh_moves_an_entry_to_the_back() {
        let mut m = AgedMap::new();
        m.insert("a", 1, COST, 2, HOUR);
        m.insert("b", 2, COST, 2, HOUR);
        m.insert("a", 3, COST, 2, HOUR);
        m.insert("c", 4, COST, 2, HOUR);
        assert!(m.get("b").is_none(), "b is now the oldest");
        assert_eq!(m.get("a").map(|f| *f.value), Some(3));
    }

    #[test]
    fn removal_keeps_the_index_in_step() {
        let mut m = AgedMap::new();
        for (i, k) in ["a", "b", "c", "d"].into_iter().enumerate() {
            m.insert(k, i, COST, 8, HOUR);
        }
        assert_eq!(m.retain(|v| v % 2 == 1), 2);
        assert_eq!(m.retain(|v| *v != 1), 1);
        assert_eq!((m.len(), m.order.len()), (1, 1));
        m.insert("e", 9, COST, 1, HOUR);
        assert_eq!((m.len(), m.order.len()), (1, 1));
        assert!(m.get("e").is_some());
    }

    #[test]
    fn a_hit_entry_is_filed_again_instead_of_evicted() {
        let mut m = AgedMap::new();
        m.insert("a", 1, COST, 2, HOUR);
        m.insert("b", 2, COST, 2, HOUR);
        m.get("a").expect("stored").hit();
        // `a` is filed lowest (oldest at equal cost), but its hit raised
        // it to 200 over `b`'s 100: the pop files it again and takes `b`.
        assert_eq!(m.insert("c", 3, COST, 2, HOUR), 1);
        assert!(m.get("a").is_some() && m.get("b").is_none());
        assert_eq!((m.by_age.len(), m.order.len()), (2, 2));
        assert_eq!(m.floor, 100);
        // `c` enters at L + cost = 200, tying `a`'s hit at L = 0; a hit
        // now counts at the risen L (100 + 3 × 100), and `c` goes next.
        m.get("a").expect("stored").hit();
        m.insert("d", 4, COST, 2, HOUR);
        assert!(m.get("a").is_some() && m.get("c").is_none());
    }

    #[test]
    fn evicted_priority_becomes_the_floor() {
        let mut m = AgedMap::new();
        m.insert("slow", 0, Duration::from_millis(5), 2, HOUR);
        // Each cheap publish evicts the previous one and lifts L to its
        // priority: the 50th leaves L at 4 900 and itself at 5 000.
        for i in 1..=50 {
            m.insert(&format!("cheap{i}"), i, COST, 2, HOUR);
        }
        assert_eq!(m.floor, 4_900);
        assert!(m.get("slow").is_some(), "5 000 µs of cost outlasts 49");
        // Tied at 5 000, the older entry goes: L has caught up with the
        // unhit expensive entry, which now ages out like any other.
        m.insert("cheap51", 51, COST, 2, HOUR);
        assert!(m.get("slow").is_none() && m.get("cheap50").is_some());
        assert_eq!(m.floor, 5_000);
    }
}
