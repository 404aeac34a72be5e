//! Allocation gate for rendering a listing page: the handler moves its
//! query result into the context as a row table, and the renderer reads
//! rows and cells in place — so rendering `new_products.html` or
//! `execute_search.html` allocates a fixed handful of times (loop
//! state, include lookups, the few filters that build strings), the
//! same for 10 rows as for 50.

use staged_templates::{Context, Table, TemplateStore, Value};
use staged_tpcw::install_templates;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Per-thread, so tests running beside this one do not count.
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

/// The most allocations one listing render may make.
const MAX_RENDER_ALLOCS: u64 = 60;

/// A listing page's context as its handler builds it: the page scalars
/// plus the result rows under the statement's column aliases.
fn listing_context(page: &str, rows: usize) -> Context {
    let columns = ["id", "title", "cost", "thumbnail", "fname", "lname"];
    let mut items = Table::with_capacity(columns.map(String::from).to_vec(), rows);
    for i in 0..rows {
        items.push_row([
            Value::Int(i as i64 + 1),
            Value::from(format!("The <River> & Crown {i}")),
            Value::Float(10.0 + i as f64 / 4.0),
            Value::from(format!("/img/thumb_{i}.gif")),
            Value::from(format!("First{i}")),
            Value::from(format!("O'Last{i}")),
        ]);
    }
    let mut ctx = Context::new();
    ctx.insert("c_id", 7);
    ctx.insert("items", items);
    if page == "new_products.html" {
        ctx.insert("title", "New Products");
        ctx.insert("subject", "SCIENCE-FICTION");
    } else {
        ctx.insert("title", "Search Results");
        ctx.insert("kind", "title");
        ctx.insert("query", "river");
    }
    ctx
}

/// Allocations on this thread of one warm render, and the page.
fn render_allocations(store: &TemplateStore, page: &str, ctx: &Context) -> (u64, String) {
    // The server renders into a pooled buffer that already has room.
    let mut out = Vec::with_capacity(1 << 16);
    store.render_into(page, ctx, &mut out).unwrap(); // warm
    out.clear();
    let before = ALLOCS.with(Cell::get);
    store.render_into(page, ctx, &mut out).unwrap();
    let spent = ALLOCS.with(Cell::get) - before;
    (spent, String::from_utf8(out).unwrap())
}

#[test]
fn listing_renders_allocate_a_constant_handful() {
    let store = TemplateStore::new();
    install_templates(&store).unwrap();
    for page in ["new_products.html", "execute_search.html"] {
        let (few, html_few) = render_allocations(&store, page, &listing_context(page, 10));
        let (many, html_many) = render_allocations(&store, page, &listing_context(page, 50));
        // The rows really rendered, escaped and formatted.
        assert_eq!(html_few.matches("alt=\"cover\"").count(), 10, "{page}");
        assert_eq!(html_many.matches("alt=\"cover\"").count(), 50, "{page}");
        assert!(
            html_many.contains("The &lt;River&gt; &amp; Crown 49</a>")
                && html_many.contains("<td>First49 O&#x27;Last49</td>")
                && html_many.contains("$22.25"),
            "{page}: {html_many}"
        );
        assert!(
            many <= MAX_RENDER_ALLOCS,
            "{page}: {many} allocations to render 50 rows"
        );
        assert_eq!(
            few, many,
            "{page}: render allocations follow the row count ({few} for 10 rows, {many} for 50)"
        );
    }
}
