//! The 14 TPC-W web interactions as page handlers.
//!
//! Query shapes follow TPC-W's character: ten pages are indexed point
//! lookups or small writes (*quick*), Best Sellers / New Products /
//! Execute Search scan and aggregate large tables (*lengthy*), and
//! Admin Confirm updates the hot `item` table, taking its write lock
//! (the paper's §4.2.1 contention case).

use crate::schema::SUBJECTS;
use staged_core::{AppError, PageOutcome};
use staged_db::{DbValue, PooledConnection, QueryResult};
use staged_http::Request;
use staged_sync::atomic::{AtomicI64, Ordering};
use staged_templates::{Context, Table, Value};

/// Shared mutable identifiers and scale facts the handlers need.
#[derive(Debug)]
pub(crate) struct TpcwState {
    pub items: i64,
    /// Recent-order window for Best Sellers (TPC-W's "3333 most recent
    /// orders", scaled with the database).
    pub bestseller_window: i64,
    pub next_order_id: AtomicI64,
    pub next_order_line_id: AtomicI64,
    pub next_cart_id: AtomicI64,
    pub next_cart_line_id: AtomicI64,
    pub next_customer_id: AtomicI64,
}

impl TpcwState {
    fn take(counter: &AtomicI64) -> i64 {
        counter.fetch_add(1, Ordering::Relaxed)
    }
}

type PageResult = Result<PageOutcome, AppError>;

/// Moves a query result into the template context as a row table: the
/// column names are the statement's (`AS` aliases), the rows and their
/// text cells are moved, not copied, and render reads them in place.
fn table(result: QueryResult) -> Value {
    let mut table = Table::with_capacity(result.columns, result.rows.len());
    for row in result.rows {
        table.push_row(row.into_iter().map(cell));
    }
    Value::from(table)
}

fn cell(v: DbValue) -> Value {
    match v {
        DbValue::Null => Value::Null,
        DbValue::Int(i) => Value::Int(i),
        DbValue::Float(f) => Value::Float(f),
        DbValue::Text(s) => Value::Str(s),
    }
}

fn subjects_value() -> Value {
    Value::List(SUBJECTS.iter().map(|s| Value::from(*s)).collect())
}

fn base_ctx(title: &str, req: &Request) -> Context {
    let mut ctx = Context::new();
    ctx.insert("title", title);
    ctx.insert("c_id", req.param_u64("c_id").unwrap_or(0));
    ctx
}

/// `GET /home?c_id=` — the TPC-W home interaction: customer greeting
/// plus five promotional items, all indexed lookups (quick).
pub(crate) fn home(state: &TpcwState, req: &Request, db: &PooledConnection) -> PageResult {
    let mut ctx = base_ctx("Home", req);
    let c_id = req.param_u64("c_id").unwrap_or(0) as i64;
    if c_id > 0 {
        let r = db.execute(
            "SELECT c_fname AS fname, c_lname AS lname FROM customer WHERE c_id = ?",
            &[DbValue::Int(c_id)],
        )?;
        ctx.insert("customer", table(r));
    }
    // Five single-row lookups, gathered into one table.
    let mut promos: Option<QueryResult> = None;
    for k in 0..5i64 {
        let i_id = (c_id * 17 + k * 31).rem_euclid(state.items) + 1;
        let r = db.execute(
            "SELECT i.i_id AS id, i.i_title AS title, i.i_cost AS cost, \
             i.i_thumbnail AS thumbnail, a.a_fname AS fname, a.a_lname AS lname \
             FROM item i JOIN author a ON i.i_a_id = a.a_id WHERE i.i_id = ?",
            &[DbValue::Int(i_id)],
        )?;
        match &mut promos {
            Some(p) => p.rows.extend(r.rows),
            None => promos = Some(r),
        }
    }
    ctx.insert("promotions", promos.map_or(Value::Null, table));
    ctx.insert("subjects", subjects_value());
    Ok(PageOutcome::template("home.html", ctx))
}

/// `GET /new_products?subject=` — subject listing ordered by
/// publication date: a full scan of `item`, by design — see
/// `schema.rs` — plus a top-50 sort (lengthy at scale).
pub(crate) fn new_products(_state: &TpcwState, req: &Request, db: &PooledConnection) -> PageResult {
    let subject = req.param("subject").unwrap_or("ARTS").to_string();
    let r = db.execute(
        "SELECT i.i_id AS id, i.i_title AS title, i.i_cost AS cost, \
         i.i_thumbnail AS thumbnail, a.a_fname AS fname, a.a_lname AS lname \
         FROM item i JOIN author a ON i.i_a_id = a.a_id \
         WHERE i.i_subject = ? ORDER BY i.i_pub_date DESC, i.i_title LIMIT 50",
        &[DbValue::from(subject.as_str())],
    )?;
    let mut ctx = base_ctx("New Products", req);
    ctx.insert("subject", subject);
    ctx.insert("items", table(r));
    Ok(PageOutcome::template("new_products.html", ctx))
}

/// `GET /best_sellers?subject=` — aggregates the recent-order window of
/// `order_line`: a large scan plus GROUP BY (the heaviest read, lengthy).
pub(crate) fn best_sellers(state: &TpcwState, req: &Request, db: &PooledConnection) -> PageResult {
    let subject = req.param("subject").unwrap_or("ARTS").to_string();
    // TPC-W's "3333 most recent orders" window: MAX over orders is a
    // full scan, like the benchmark's subquery.
    let max_o = db
        .execute("SELECT MAX(o_id) FROM orders", &[])?
        .single_int()
        .unwrap_or(0);
    let window_start = max_o - state.bestseller_window;
    let r = db.execute(
        "SELECT i.i_id AS id, i.i_title AS title, i.i_cost AS cost, \
         i.i_thumbnail AS thumbnail, a.a_fname AS fname, a.a_lname AS lname, \
         SUM(ol.ol_qty) AS total \
         FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id \
         JOIN author a ON i.i_a_id = a.a_id \
         WHERE ol.ol_o_id > ? AND i.i_subject = ? \
         GROUP BY i.i_id, i.i_title, i.i_cost, i.i_thumbnail, a.a_fname, a.a_lname \
         ORDER BY total DESC LIMIT 50",
        &[DbValue::Int(window_start), DbValue::from(subject.as_str())],
    )?;
    let mut ctx = base_ctx("Best Sellers", req);
    ctx.insert("subject", subject);
    ctx.insert("items", table(r));
    Ok(PageOutcome::template("best_sellers.html", ctx))
}

/// `GET /product_detail?i_id=` — a primary-key lookup (quick).
pub(crate) fn product_detail(
    _state: &TpcwState,
    req: &Request,
    db: &PooledConnection,
) -> PageResult {
    let i_id = req.param_u64("i_id").unwrap_or(1) as i64;
    let r = db.execute(
        "SELECT i.i_id AS id, i.i_title AS title, i.i_cost AS cost, \
         i.i_thumbnail AS thumbnail, a.a_fname AS fname, a.a_lname AS lname, \
         i.i_subject AS subject, i.i_srp AS srp \
         FROM item i JOIN author a ON i.i_a_id = a.a_id WHERE i.i_id = ?",
        &[DbValue::Int(i_id)],
    )?;
    if r.rows.is_empty() {
        return Err(AppError::handler(format!("no such item: {i_id}")));
    }
    let stock = db
        .execute(
            "SELECT st_qty FROM stock WHERE st_i_id = ?",
            &[DbValue::Int(i_id)],
        )?
        .single_int()
        .unwrap_or(0);
    let mut ctx = base_ctx("Product Detail", req);
    ctx.insert("item", table(r));
    ctx.insert("stock", stock);
    ctx.insert("in_stock", stock > 0);
    Ok(PageOutcome::template("product_detail.html", ctx))
}

/// `GET /search_request` — renders the search form (no queries, quick).
pub(crate) fn search_request(
    _state: &TpcwState,
    req: &Request,
    _db: &PooledConnection,
) -> PageResult {
    let mut ctx = base_ctx("Search", req);
    ctx.insert("subjects", subjects_value());
    Ok(PageOutcome::template("search_request.html", ctx))
}

/// `GET /execute_search?type=&search=` — `LIKE` scans for title/author
/// searches (lengthy); subject searches are a full scan of `item` too,
/// by design — see `schema.rs`.
pub(crate) fn execute_search(
    _state: &TpcwState,
    req: &Request,
    db: &PooledConnection,
) -> PageResult {
    let kind = req.param("type").unwrap_or("title").to_string();
    let query = req.param("search").unwrap_or("").to_string();
    let pattern = format!("%{query}%");
    let r = match kind.as_str() {
        "author" => db.execute(
            "SELECT i.i_id AS id, i.i_title AS title, i.i_cost AS cost, \
             i.i_thumbnail AS thumbnail, a.a_fname AS fname, a.a_lname AS lname \
             FROM author a JOIN item i ON i.i_a_id = a.a_id \
             WHERE a.a_lname LIKE ? ORDER BY i.i_title LIMIT 50",
            &[DbValue::from(pattern.as_str())],
        )?,
        "subject" => db.execute(
            "SELECT i.i_id AS id, i.i_title AS title, i.i_cost AS cost, \
             i.i_thumbnail AS thumbnail, a.a_fname AS fname, a.a_lname AS lname \
             FROM item i JOIN author a ON i.i_a_id = a.a_id \
             WHERE i.i_subject = ? ORDER BY i.i_title LIMIT 50",
            &[DbValue::from(query.as_str())],
        )?,
        _ => db.execute(
            "SELECT i.i_id AS id, i.i_title AS title, i.i_cost AS cost, \
             i.i_thumbnail AS thumbnail, a.a_fname AS fname, a.a_lname AS lname \
             FROM item i JOIN author a ON i.i_a_id = a.a_id \
             WHERE i.i_title LIKE ? ORDER BY i.i_title LIMIT 50",
            &[DbValue::from(pattern.as_str())],
        )?,
    };
    let mut ctx = base_ctx("Search Results", req);
    ctx.insert("kind", kind);
    ctx.insert("query", query);
    ctx.insert("items", table(r));
    Ok(PageOutcome::template("execute_search.html", ctx))
}

/// Reads a cart's lines joined with item details; returns the template
/// table and the pre-discount total.
fn cart_lines(db: &PooledConnection, sc_id: i64) -> Result<(Value, f64), AppError> {
    let r = db.execute(
        "SELECT i.i_title AS title, scl.scl_qty AS qty, i.i_cost AS cost, \
         i.i_cost * scl.scl_qty AS subtotal \
         FROM shopping_cart_line scl JOIN item i ON scl.scl_i_id = i.i_id \
         WHERE scl.scl_sc_id = ?",
        &[DbValue::Int(sc_id)],
    )?;
    let total = r
        .rows
        .iter()
        .filter_map(|row| row[3].as_f64())
        .fold(0.0, |total, subtotal| total + subtotal);
    Ok((table(r), total))
}

/// `GET /shopping_cart?c_id=&sc_id=&i_id=&qty=` — creates the cart on
/// first visit, adds/updates a line, then lists the cart (indexed
/// lookups plus small writes; quick).
pub(crate) fn shopping_cart(state: &TpcwState, req: &Request, db: &PooledConnection) -> PageResult {
    let mut sc_id = req.param_u64("sc_id").unwrap_or(0) as i64;
    if sc_id == 0 {
        sc_id = TpcwState::take(&state.next_cart_id);
        db.execute(
            "INSERT INTO shopping_cart (sc_id, sc_date) VALUES (?, ?)",
            &[DbValue::Int(sc_id), DbValue::Int(735_000)],
        )?;
    }
    if let Some(i_id) = req.param_u64("i_id") {
        let i_id = i_id as i64;
        let qty = req.param_u64("qty").unwrap_or(1) as i64;
        let existing = db.execute(
            "SELECT scl_id, scl_qty FROM shopping_cart_line \
             WHERE scl_sc_id = ? AND scl_i_id = ?",
            &[DbValue::Int(sc_id), DbValue::Int(i_id)],
        )?;
        match existing.first() {
            Some(row) => {
                let scl_id = row[0].as_int().expect("scl_id is an integer");
                db.execute(
                    "UPDATE shopping_cart_line SET scl_qty = scl_qty + ? WHERE scl_id = ?",
                    &[DbValue::Int(qty), DbValue::Int(scl_id)],
                )?;
            }
            None => {
                let scl_id = TpcwState::take(&state.next_cart_line_id);
                db.execute(
                    "INSERT INTO shopping_cart_line (scl_id, scl_sc_id, scl_i_id, scl_qty) \
                     VALUES (?, ?, ?, ?)",
                    &[
                        DbValue::Int(scl_id),
                        DbValue::Int(sc_id),
                        DbValue::Int(i_id),
                        DbValue::Int(qty),
                    ],
                )?;
            }
        }
    }
    let (lines, total) = cart_lines(db, sc_id)?;
    let mut ctx = base_ctx("Shopping Cart", req);
    ctx.insert("sc_id", sc_id);
    ctx.insert("lines", lines);
    ctx.insert("total", total);
    Ok(PageOutcome::template("shopping_cart.html", ctx))
}

/// `GET /customer_registration?c_id=&sc_id=` — greets a returning
/// customer or renders the registration form (quick).
pub(crate) fn customer_registration(
    _state: &TpcwState,
    req: &Request,
    db: &PooledConnection,
) -> PageResult {
    let c_id = req.param_u64("c_id").unwrap_or(0) as i64;
    let mut ctx = base_ctx("Registration", req);
    ctx.insert("sc_id", req.param_u64("sc_id").unwrap_or(0));
    if c_id > 0 {
        let r = db.execute(
            "SELECT c_fname AS fname FROM customer WHERE c_id = ?",
            &[DbValue::Int(c_id)],
        )?;
        ctx.insert("customer", table(r));
    }
    Ok(PageOutcome::template("customer_registration.html", ctx))
}

/// `GET /buy_request?c_id=&sc_id=` — order confirmation page: customer,
/// address, and cart summary (indexed lookups; quick). Registers a new
/// customer when `c_id` is 0.
pub(crate) fn buy_request(state: &TpcwState, req: &Request, db: &PooledConnection) -> PageResult {
    let mut c_id = req.param_u64("c_id").unwrap_or(0) as i64;
    if c_id == 0 {
        c_id = TpcwState::take(&state.next_customer_id);
        let fname = req.param("fname").unwrap_or("New");
        let lname = req.param("lname").unwrap_or("Customer");
        db.execute(
            "INSERT INTO customer (c_id, c_uname, c_fname, c_lname, c_addr_id, c_phone, \
             c_email, c_since, c_discount) VALUES (?, ?, ?, ?, 1, '555-0000', ?, 735000, 0.0)",
            &[
                DbValue::Int(c_id),
                DbValue::from(format!("user{c_id}")),
                DbValue::from(fname),
                DbValue::from(lname),
                DbValue::from(format!("user{c_id}@example.com")),
            ],
        )?;
    }
    let customer = db.execute(
        "SELECT c_fname AS fname, c_lname AS lname, c_addr_id, c_discount \
         FROM customer WHERE c_id = ?",
        &[DbValue::Int(c_id)],
    )?;
    let row = customer
        .first()
        .ok_or_else(|| AppError::handler(format!("no such customer: {c_id}")))?;
    let discount = row[3].as_f64().unwrap_or(0.0);
    let addr_id = row[2].as_int().unwrap_or(1);
    let mut ctx = base_ctx("Confirm Order", req);
    ctx.insert("c_id", c_id);
    ctx.insert("customer", table(customer));
    let addr = db.execute(
        "SELECT addr_street AS street, addr_city AS city, addr_zip AS zip \
         FROM address WHERE addr_id = ?",
        &[DbValue::Int(addr_id)],
    )?;
    ctx.insert("address", table(addr));
    let sc_id = req.param_u64("sc_id").unwrap_or(0) as i64;
    let (lines, total) = cart_lines(db, sc_id)?;
    ctx.insert("sc_id", sc_id);
    ctx.insert("lines", lines);
    ctx.insert("discount", (discount * 100.0).round() as i64);
    ctx.insert("total", total * (1.0 - discount));
    Ok(PageOutcome::template("buy_request.html", ctx))
}

/// `GET /buy_confirm?c_id=&sc_id=` — places the order: inserts `orders`
/// / `order_line` / `cc_xacts` rows, decrements item stock, and empties
/// the cart (several small writes; quick).
pub(crate) fn buy_confirm(state: &TpcwState, req: &Request, db: &PooledConnection) -> PageResult {
    let c_id = req.param_u64("c_id").unwrap_or(1) as i64;
    let sc_id = req.param_u64("sc_id").unwrap_or(0) as i64;
    let cart = db.execute(
        "SELECT scl.scl_i_id, scl.scl_qty, i.i_cost \
         FROM shopping_cart_line scl JOIN item i ON scl.scl_i_id = i.i_id \
         WHERE scl.scl_sc_id = ?",
        &[DbValue::Int(sc_id)],
    )?;
    let o_id = TpcwState::take(&state.next_order_id);
    let total: f64 = cart
        .rows
        .iter()
        .map(|r| r[2].as_f64().unwrap_or(0.0) * r[1].as_int().unwrap_or(0) as f64)
        .sum();
    db.execute(
        "INSERT INTO orders (o_id, o_c_id, o_date, o_total, o_status) \
         VALUES (?, ?, 735000, ?, 'PENDING')",
        &[
            DbValue::Int(o_id),
            DbValue::Int(c_id),
            DbValue::Float(total),
        ],
    )?;
    for row in &cart.rows {
        let i_id = row[0].as_int().expect("item id is an integer");
        let qty = row[1].as_int().unwrap_or(1);
        let ol_id = TpcwState::take(&state.next_order_line_id);
        db.execute(
            "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount) \
             VALUES (?, ?, ?, ?, 0.0)",
            &[
                DbValue::Int(ol_id),
                DbValue::Int(o_id),
                DbValue::Int(i_id),
                DbValue::Int(qty),
            ],
        )?;
        // TPC-W restocks when stock runs low; keep stock positive. The
        // decrement hits the dedicated stock table, not the hot item
        // table (see schema.rs).
        db.execute(
            "UPDATE stock SET st_qty = st_qty - ? WHERE st_i_id = ? AND st_qty >= ?",
            &[DbValue::Int(qty), DbValue::Int(i_id), DbValue::Int(qty)],
        )?;
    }
    let cc_type = ["VISA", "MASTERCARD", "AMEX"][(o_id % 3) as usize];
    db.execute(
        "INSERT INTO cc_xacts (cx_o_id, cx_type, cx_amount, cx_date) \
         VALUES (?, ?, ?, 735000)",
        &[
            DbValue::Int(o_id),
            DbValue::from(cc_type),
            DbValue::Float(total),
        ],
    )?;
    db.execute(
        "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?",
        &[DbValue::Int(sc_id)],
    )?;
    let mut ctx = base_ctx("Order Placed", req);
    ctx.insert("order_id", o_id);
    ctx.insert("line_count", cart.rows.len());
    ctx.insert("total", total);
    ctx.insert("cc_type", cc_type);
    Ok(PageOutcome::template("buy_confirm.html", ctx))
}

/// `GET /order_inquiry?c_id=` — renders the inquiry form (quick).
pub(crate) fn order_inquiry(
    _state: &TpcwState,
    req: &Request,
    _db: &PooledConnection,
) -> PageResult {
    Ok(PageOutcome::template(
        "order_inquiry.html",
        base_ctx("Order Inquiry", req),
    ))
}

/// `GET /order_display?c_id=` — the customer's most recent order with
/// its lines (indexed lookups; quick).
pub(crate) fn order_display(
    _state: &TpcwState,
    req: &Request,
    db: &PooledConnection,
) -> PageResult {
    let c_id = req.param_u64("c_id").unwrap_or(1) as i64;
    let mut ctx = base_ctx("Order Display", req);
    let last = db.execute(
        "SELECT MAX(o_id) FROM orders WHERE o_c_id = ?",
        &[DbValue::Int(c_id)],
    )?;
    let o_id = last.single_int().unwrap_or(0);
    if o_id > 0 {
        let order = db.execute(
            "SELECT o_id AS id, o_total AS total, o_status AS status FROM orders WHERE o_id = ?",
            &[DbValue::Int(o_id)],
        )?;
        ctx.insert("order", table(order));
        let cust = db.execute(
            "SELECT c_fname AS fname, c_lname AS lname FROM customer WHERE c_id = ?",
            &[DbValue::Int(c_id)],
        )?;
        ctx.insert("customer", table(cust));
        let lines = db.execute(
            "SELECT i.i_title AS title, ol.ol_qty AS qty \
             FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id \
             WHERE ol.ol_o_id = ?",
            &[DbValue::Int(o_id)],
        )?;
        ctx.insert("lines", table(lines));
    }
    Ok(PageOutcome::template("order_display.html", ctx))
}

/// `GET /admin_request?i_id=` — the item-edit form (PK lookup; quick).
pub(crate) fn admin_request(
    _state: &TpcwState,
    req: &Request,
    db: &PooledConnection,
) -> PageResult {
    let i_id = req.param_u64("i_id").unwrap_or(1) as i64;
    let r = db.execute(
        "SELECT i_id AS id, i_title AS title, i_cost AS cost, i_thumbnail AS thumbnail \
         FROM item WHERE i_id = ?",
        &[DbValue::Int(i_id)],
    )?;
    if r.rows.is_empty() {
        return Err(AppError::handler(format!("no such item: {i_id}")));
    }
    let mut ctx = base_ctx("Admin: Edit Item", req);
    ctx.insert("item", table(r));
    Ok(PageOutcome::template("admin_request.html", ctx))
}

/// `GET /admin_confirm?i_id=&cost=&image=` — the TPC-W admin response:
/// recomputes the item's five related items from recent co-purchases
/// (scan + aggregate), then **updates the hot `item` table**, taking
/// its write lock — the page whose response time the paper shows
/// *growing* under the modified server because everyone else got
/// faster (§4.2.1).
pub(crate) fn admin_confirm(state: &TpcwState, req: &Request, db: &PooledConnection) -> PageResult {
    let i_id = req.param_u64("i_id").unwrap_or(1) as i64;
    let cost: f64 = req
        .param("cost")
        .and_then(|c| c.parse().ok())
        .unwrap_or(9.99);
    let image = req.param("image").unwrap_or("/img/thumb_1.gif").to_string();
    // Recent-order window (full scan of orders, like the TPC-W
    // subquery).
    let max_o = db
        .execute("SELECT MAX(o_id) FROM orders", &[])?
        .single_int()
        .unwrap_or(0);
    let window_start = max_o - state.bestseller_window * 3;
    // Items bought together with this one, by co-purchase volume.
    let related = db.execute(
        "SELECT ol2.ol_i_id, SUM(ol2.ol_qty) AS total \
         FROM order_line ol JOIN order_line ol2 ON ol.ol_o_id = ol2.ol_o_id \
         WHERE ol.ol_i_id = ? AND ol2.ol_i_id != ? AND ol.ol_o_id > ? \
         GROUP BY ol2.ol_i_id ORDER BY total DESC LIMIT 5",
        &[
            DbValue::Int(i_id),
            DbValue::Int(i_id),
            DbValue::Int(window_start),
        ],
    )?;
    let mut rel: Vec<i64> = related.rows.iter().filter_map(|r| r[0].as_int()).collect();
    while rel.len() < 5 {
        rel.push((i_id + rel.len() as i64) % state.items + 1);
    }
    db.execute(
        "UPDATE item SET i_cost = ?, i_thumbnail = ?, i_pub_date = 735000, \
         i_related1 = ?, i_related2 = ?, i_related3 = ?, i_related4 = ?, i_related5 = ? \
         WHERE i_id = ?",
        &[
            DbValue::Float(cost),
            DbValue::from(image.as_str()),
            DbValue::Int(rel[0]),
            DbValue::Int(rel[1]),
            DbValue::Int(rel[2]),
            DbValue::Int(rel[3]),
            DbValue::Int(rel[4]),
            DbValue::Int(i_id),
        ],
    )?;
    let r = db.execute(
        "SELECT i_title AS title, i_cost AS cost FROM item WHERE i_id = ?",
        &[DbValue::Int(i_id)],
    )?;
    if r.rows.is_empty() {
        return Err(AppError::handler(format!("no such item: {i_id}")));
    }
    let mut ctx = base_ctx("Admin: Item Updated", req);
    ctx.insert("item", table(r));
    ctx.insert(
        "related",
        Value::List(rel.into_iter().map(Value::Int).collect()),
    );
    Ok(PageOutcome::template("admin_response.html", ctx))
}
