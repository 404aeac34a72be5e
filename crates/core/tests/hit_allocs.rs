//! Allocation gate for the document cache's hit path (DESIGN.md §14.4):
//! deriving the key into a reused buffer, the lookup, and the vectored
//! write of the shared response over a real loopback socket — the work
//! the header stage does on a hit — allocate nothing.

use staged_core::{write_key, DocCache, Lookup};
use staged_db::ReadSet;
use staged_http::{Connection, Method, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read as _;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Per-thread, so the socket's drain thread and tests running
    /// beside this one do not count.
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

#[test]
fn cache_hit_serves_without_allocating() {
    const HITS: u64 = 1_000;
    let cache = DocCache::new(Duration::from_secs(3600), 64);
    let response = Arc::new(Response::html("x".repeat(2_048)));
    let params = vec![("i_id".to_string(), "7".to_string())];
    let mut key = String::with_capacity(128);
    write_key(&mut key, "product_detail", &params);
    let Lookup::Miss(snapshot) = cache.lookup(&key) else {
        panic!("cache starts empty");
    };
    assert!(cache.publish(&key, response, Arc::new(ReadSet::new()), snapshot));

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let drain = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut buf = [0u8; 16 * 1024];
        let mut received = 0;
        while let Ok(n @ 1..) = sock.read(&mut buf) {
            received += n;
        }
        received
    });
    let mut conn = Connection::new(TcpStream::connect(addr).unwrap());
    let mut serve_one = |key: &mut String| {
        write_key(key, "product_detail", &params);
        match cache.lookup(key) {
            Lookup::Hit(resp) => conn.send_for_method(Method::Get, &resp).unwrap(),
            Lookup::Miss(_) => panic!("the entry was published"),
        }
    };

    // Warm-up grows the connection's head buffer and any lazy state, so
    // the measured window sees the steady state only.
    for _ in 0..32 {
        serve_one(&mut key);
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..HITS {
        serve_one(&mut key);
    }
    let spent = ALLOCS.with(Cell::get) - before;
    drop(conn);
    let received = drain.join().unwrap();
    assert!(
        received > (32 + HITS as usize) * 2_048,
        "every hit reached the peer: {received} bytes"
    );
    assert_eq!(spent, 0, "{spent} allocations over {HITS} cache hits");
}
