//! Quickstart: a tiny template-based web application served by the
//! staged (five-pool) server, exercised with a few in-process requests.
//!
//! Run with `cargo run --example quickstart`.

use staged_web::core::{App, PageOutcome, ServerConfig, StagedServer};
use staged_web::db::{Database, DbValue};
use staged_web::http::{fetch, Method};
use staged_web::templates::{Context, TemplateStore, Value};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A database with a little content.
    let db = Arc::new(Database::new());
    db.execute(
        "CREATE TABLE greeting (id INT PRIMARY KEY, lang TEXT, text TEXT)",
        &[],
    )?;
    for (id, lang, text) in [
        (1, "en", "Hello, world"),
        (2, "fr", "Bonjour, monde"),
        (3, "jp", "こんにちは世界"),
    ] {
        db.execute(
            "INSERT INTO greeting (id, lang, text) VALUES (?, ?, ?)",
            &[DbValue::Int(id), DbValue::from(lang), DbValue::from(text)],
        )?;
    }

    // 2. A Django-style template.
    let templates = Arc::new(TemplateStore::new());
    templates.insert(
        "hello.html",
        "<html><body><h1>{{ title }}</h1><ul>\
         {% for g in greetings %}<li>{{ g.lang }}: {{ g.text }}</li>{% endfor %}\
         </ul></body></html>",
    )?;

    // 3. A handler in the paper's modified style: it returns the
    //    *unrendered* template name plus the data — rendering happens in
    //    the server's dedicated render pool, so this thread's database
    //    connection is released sooner.
    let app = App::builder()
        .templates(templates)
        .route("/hello", "hello", |_req, db| {
            let rows = db.execute("SELECT lang, text FROM greeting ORDER BY id", &[])?;
            let greetings: Vec<Value> = rows
                .rows
                .iter()
                .map(|r| {
                    let mut m = std::collections::BTreeMap::new();
                    m.insert("lang".to_string(), Value::from(r[0].to_string()));
                    m.insert("text".to_string(), Value::from(r[1].to_string()));
                    Value::Map(m)
                })
                .collect();
            let mut ctx = Context::new();
            ctx.insert("title", "Greetings");
            ctx.insert("greetings", Value::List(greetings));
            Ok(PageOutcome::template("hello.html", ctx))
        })
        .build();

    // 4. Serve it with the five-pool staged server.
    let server = StagedServer::start(ServerConfig::small(), app, db)?;
    println!("staged server listening on http://{}", server.addr());

    let resp = fetch(server.addr(), Method::Get, "/hello", &[])?;
    println!("GET /hello -> {}", resp.status);
    println!("{}", resp.text());
    assert!(resp.text().contains("Bonjour"));

    println!(
        "pools involved: header -> general-dynamic -> render (stage queues: {:?})",
        server.registry().label_values("stage_queue_depth", "stage")
    );
    server.shutdown().expect("clean shutdown");
    println!("server shut down cleanly");
    Ok(())
}
