//! Assembles the TPC-W bookstore [`App`].

use crate::pages::{self, TpcwState};
use crate::populate::build_statics;
use crate::scale::ScaleConfig;
use crate::templates::install_templates;
use staged_core::App;
use staged_db::Database;
use staged_sync::atomic::AtomicI64;
use staged_templates::TemplateStore;
use std::sync::Arc;

/// Builds the complete bookstore application against a **populated**
/// database: 14 dynamic routes, all templates, and the static image
/// store. ID counters (orders, carts, customers, …) continue from the
/// populated maxima.
///
/// # Panics
///
/// Panics if the database is missing the TPC-W schema (call
/// [`crate::populate`] first).
pub fn build_app(db: &Database, scale: &ScaleConfig) -> App {
    let max = |sql: &str| -> i64 {
        db.execute(sql, &[])
            .expect("TPC-W schema must be populated before build_app")
            .single_int()
            .unwrap_or(0)
    };
    let state = Arc::new(TpcwState {
        items: scale.items as i64,
        bestseller_window: ((scale.orders / 777).max(1)) as i64,
        next_order_id: AtomicI64::new(max("SELECT MAX(o_id) FROM orders") + 1),
        next_order_line_id: AtomicI64::new(max("SELECT MAX(ol_id) FROM order_line") + 1),
        next_cart_id: AtomicI64::new(max("SELECT MAX(sc_id) FROM shopping_cart") + 1),
        next_cart_line_id: AtomicI64::new(max("SELECT MAX(scl_id) FROM shopping_cart_line") + 1),
        next_customer_id: AtomicI64::new(max("SELECT MAX(c_id) FROM customer") + 1),
    });

    let templates = Arc::new(TemplateStore::new());
    install_templates(&templates).expect("bundled templates compile");

    macro_rules! page {
        ($builder:expr, $path:literal, $name:literal, $handler:path) => {{
            let state = Arc::clone(&state);
            $builder.route($path, $name, move |req, db| $handler(&state, req, db))
        }};
    }

    let builder = App::builder()
        .templates(templates)
        .static_files(build_statics(scale))
        .render_weight_per_kb(scale.render_weight_per_kb)
        .static_weight(scale.static_weight);
    let builder = page!(builder, "/home", "home", pages::home);
    let builder = page!(
        builder,
        "/new_products",
        "new_products",
        pages::new_products
    );
    let builder = page!(
        builder,
        "/best_sellers",
        "best_sellers",
        pages::best_sellers
    );
    let builder = page!(
        builder,
        "/product_detail",
        "product_detail",
        pages::product_detail
    );
    let builder = page!(
        builder,
        "/search_request",
        "search_request",
        pages::search_request
    );
    let builder = page!(
        builder,
        "/execute_search",
        "execute_search",
        pages::execute_search
    );
    let builder = page!(
        builder,
        "/shopping_cart",
        "shopping_cart",
        pages::shopping_cart
    );
    let builder = page!(
        builder,
        "/customer_registration",
        "customer_registration",
        pages::customer_registration
    );
    let builder = page!(builder, "/buy_request", "buy_request", pages::buy_request);
    let builder = page!(builder, "/buy_confirm", "buy_confirm", pages::buy_confirm);
    let builder = page!(
        builder,
        "/order_inquiry",
        "order_inquiry",
        pages::order_inquiry
    );
    let builder = page!(
        builder,
        "/order_display",
        "order_display",
        pages::order_display
    );
    let builder = page!(
        builder,
        "/admin_request",
        "admin_request",
        pages::admin_request
    );
    let builder = page!(
        builder,
        "/admin_confirm",
        "admin_response",
        pages::admin_confirm
    );
    // Read-only browsing pages may be served from the staged server's
    // response cache. Mutating pages (cart, checkout, registration,
    // admin confirm) must never be — a cached "order confirmed" would
    // be a lie.
    builder
        .cacheable("/home")
        .cacheable("/new_products")
        .cacheable("/best_sellers")
        .cacheable("/product_detail")
        .cacheable("/search_request")
        .cacheable("/execute_search")
        .cacheable("/order_inquiry")
        .cacheable("/order_display")
        .cacheable("/admin_request")
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::populate::populate;

    #[test]
    fn builds_all_fourteen_routes() {
        let db = Database::new();
        let scale = ScaleConfig::tiny();
        populate(&db, &scale);
        let app = build_app(&db, &scale);
        let paths = app.route_paths();
        assert_eq!(paths.len(), 14);
        for p in [
            "/home",
            "/new_products",
            "/best_sellers",
            "/product_detail",
            "/search_request",
            "/execute_search",
            "/shopping_cart",
            "/customer_registration",
            "/buy_request",
            "/buy_confirm",
            "/order_inquiry",
            "/order_display",
            "/admin_request",
            "/admin_confirm",
        ] {
            assert!(paths.contains(&p.to_string()), "missing route {p}");
        }
        assert_eq!(app.templates().len(), 17);
        assert!(app.statics().lookup("/img/thumb_0.gif").is_some());
    }
}
