use crate::doccache::tests::{event_for, page, put, ROW1, SCAN, WRITE_ROW1};
use crate::doccache::{write_key, DocCache, STALE_WARNING};
use std::sync::Arc;
use std::time::Duration;

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
fn expired_entries_are_dropped() {
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
    assert!(cache.lookup_stale("a").is_none(), "oldest entry evicted");
    assert!(cache.lookup_stale("b").is_some());
    assert!(cache.lookup_stale("c").is_some());
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
fn hits_share_the_stored_allocation() {
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
fn cache_key_is_order_insensitive() {
    let key = |params: &[(String, String)]| {
        let mut out = String::new();
        write_key(&mut out, "page", params);
        out
    };
    let a = [
        ("x".to_string(), "1".to_string()),
        ("y".to_string(), "2".to_string()),
    ];
    let b = [
        ("y".to_string(), "2".to_string()),
        ("x".to_string(), "1".to_string()),
    ];
    assert_eq!(key(&a), key(&b));
    assert_ne!(key(&a), key(&[]));
    assert_eq!(key(&[]), "page");
}
