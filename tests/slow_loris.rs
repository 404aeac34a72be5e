//! Read-timeout defence: stalled connections must not pin worker
//! threads indefinitely.

use staged_web::core::{App, PageOutcome, ServerConfig, StagedServer};
use staged_web::db::Database;
use staged_web::http::{fetch, Method, Response, StatusCode};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn tiny_app() -> App {
    App::builder()
        .route("/ping", "ping", |_r, _db| {
            Ok(PageOutcome::Body(Response::text("pong")))
        })
        .build()
}

#[test]
fn stalled_connections_are_dropped_and_workers_freed() {
    // Small server: only 2 header workers — without the read timeout,
    // two loris connections would block header parsing entirely.
    let config = ServerConfig::small(); // read_timeout = 500ms
    let server = StagedServer::start(config, tiny_app(), Arc::new(Database::new())).unwrap();
    let addr = server.addr();

    // Occupy BOTH header workers with half-written request lines.
    let mut loris1 = TcpStream::connect(addr).unwrap();
    loris1.write_all(b"GET /pi").unwrap();
    let mut loris2 = TcpStream::connect(addr).unwrap();
    loris2.write_all(b"GET /pi").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Both header workers are blocked right now; the timeout frees them.
    std::thread::sleep(Duration::from_millis(600));
    let resp = fetch(addr, Method::Get, "/ping", &[]).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert!(
        server.registry().value("dropped_connections_total", &[]) >= Some(2.0),
        "stalled connections should be counted as dropped"
    );
    server.shutdown().expect("clean shutdown");
}

#[test]
fn headers_arriving_in_dribbles_still_parse_within_timeout() {
    let server =
        StagedServer::start(ServerConfig::small(), tiny_app(), Arc::new(Database::new())).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    for chunk in [
        "GET /pi",
        "ng HT",
        "TP/1.1\r\n",
        "Connection: close\r\n",
        "\r\n",
    ] {
        stream.write_all(chunk.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let resp = staged_web::http::read_response(&mut stream).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(resp.text(), "pong");
    server.shutdown().expect("clean shutdown");
}
