//! A tour of the Django-style template engine: its five tags, its
//! seven filters, auto-escaping and includes.
//!
//! Run with `cargo run --example template_gallery`.

use staged_web::templates::{Context, Template, TemplateStore, Value};
use std::collections::BTreeMap;

fn show(title: &str, source: &str, ctx: &Context) {
    let t = Template::compile(source).expect("example templates compile");
    println!(
        "--- {title}\n  source: {source}\n  output: {}\n",
        t.render(ctx).unwrap()
    );
}

fn main() {
    let mut ctx = Context::new();
    ctx.insert("name", "ada lovelace");
    ctx.insert("evil", "<script>alert('xss')</script>");
    ctx.insert("price", 1234.5);
    ctx.insert("stock", 1);
    ctx.insert(
        "books",
        Value::from(vec![
            Value::from("The Silent Storm"),
            Value::from("Crimson River"),
            Value::from("Endless Night"),
        ]),
    );
    let mut author = BTreeMap::new();
    author.insert("first".to_string(), Value::from("Grace"));
    author.insert("last".to_string(), Value::from("Hopper"));
    ctx.insert("author", Value::Map(author));

    show("variables and filters", "Hello {{ name|title }}!", &ctx);
    show("auto-escaping (always on)", "{{ evil }}", &ctx);
    show(
        "number formatting",
        "price: ${{ price|floatformat:2 }}",
        &ctx,
    );
    show(
        "pluralize",
        "{{ stock }} cop{{ stock|pluralize:\"y,ies\" }} in stock",
        &ctx,
    );
    show(
        "conditionals (truthiness)",
        "{% if stock %}available{% else %}backordered{% endif %}",
        &ctx,
    );
    show(
        "loops",
        "{% for b in books %}[{{ b }}] {% empty %}no books{% endfor %}",
        &ctx,
    );
    show(
        "dotted lookups",
        "{{ author.first }} {{ author.last }}",
        &ctx,
    );
    show(
        "slices and lengths",
        "top {{ books|slice:\":2\"|length }} of {{ books|length }}",
        &ctx,
    );
    show(
        "defaults for missing data",
        "{{ missing|default:\"(unknown)\" }}",
        &ctx,
    );

    // Includes resolve through a TemplateStore.
    let store = TemplateStore::new();
    store
        .insert("header.html", "<header>{{ name|title }}</header>")
        .unwrap();
    store
        .insert(
            "page.html",
            r#"{% include "header.html" %}<main>body</main>"#,
        )
        .unwrap();
    println!(
        "--- includes via TemplateStore\n  output: {}",
        store.render("page.html", &ctx).unwrap()
    );
}
