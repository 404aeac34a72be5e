//! Hostile-client tests driving both servers over real TCP: drip-fed
//! headers must be evicted by the lifecycle deadline (with a real
//! `408`) while well-behaved clients keep getting served, the
//! connection governor's per-IP cap must turn away the (N+1)th socket
//! with a `503` and free the slot on close, the keep-alive request
//! quota must close the connection after its budget, oversized
//! headers/bodies must be answered `431`/`413`, not silently dropped,
//! and clients that vanish mid-exchange must leave nothing behind.

use staged_core::{App, BaselineServer, PageOutcome, ServerConfig, ServerHandle, StagedServer};
use staged_db::Database;
use staged_http::{fetch_with_timeout, read_response, Method, Response, StaticFiles};
use staged_templates::TemplateStore;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ping_app() -> App {
    let mut statics = StaticFiles::in_memory();
    statics.insert("/img/pixel.gif", b"GIF89a-pixel".to_vec());
    App::builder()
        .templates(Arc::new(TemplateStore::new()))
        .static_files(statics)
        .route("/ping", "ping", |_req, _db| {
            Ok(PageOutcome::Body(Response::text("pong")))
        })
        .build()
}

fn base_cfg() -> ServerConfig {
    ServerConfig {
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        ..ServerConfig::small()
    }
}

fn start_staged(cfg: ServerConfig) -> ServerHandle {
    StagedServer::start(cfg, ping_app(), Arc::new(Database::new())).expect("bind staged")
}

fn start_baseline(cfg: ServerConfig) -> ServerHandle {
    BaselineServer::start(cfg, ping_app(), Arc::new(Database::new())).expect("bind baseline")
}

fn counter(server: &ServerHandle, name: &str, labels: &[(&str, &str)]) -> f64 {
    server.registry().value(name, labels).unwrap_or(0.0)
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Opens a connection and writes only a request line, leaving the
/// header block forever unfinished.
fn half_request(server: &ServerHandle) -> TcpStream {
    let mut sock = TcpStream::connect(server.addr()).expect("connect");
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    sock.write_all(b"GET /ping HTTP/1.1\r\n").expect("write");
    sock
}

/// Two drip-feeding clients occupy the whole two-thread header pool;
/// the header deadline must evict both with a real `408` quickly enough
/// that a concurrent well-behaved client still gets its page.
#[test]
fn drip_fed_headers_get_408_while_wellbehaved_client_is_served() {
    for start in [
        start_staged as fn(ServerConfig) -> ServerHandle,
        start_baseline,
    ] {
        let mut cfg = base_cfg();
        cfg.limits.header_deadline = Some(Duration::from_millis(200));
        let server = start(cfg);

        let mut drips = [half_request(&server), half_request(&server)];
        let addr = server.addr();
        let wellbehaved = std::thread::spawn(move || {
            fetch_with_timeout(addr, Method::Get, "/ping", &[], Duration::from_secs(3))
        });
        // Drip one byte every 100 ms — well under the 2 s read timeout,
        // so only the lifecycle deadline can kill these connections.
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(100));
            for sock in &mut drips {
                let _ = sock.write_all(b"a");
            }
        }
        for sock in &mut drips {
            let resp = read_response(sock).expect("drip client gets a real response");
            assert_eq!(resp.status.as_u16(), 408, "drip-fed header block");
            assert_eq!(resp.headers.get("connection"), Some("close"));
        }
        let resp = wellbehaved
            .join()
            .expect("join")
            .expect("well-behaved client served during the attack");
        assert!(resp.status.is_success(), "got {}", resp.status.as_u16());
        wait_for("slowloris kills counted", || {
            counter(&server, "slowloris_kills_total", &[]) >= 2.0
        });
        server.shutdown().expect("clean shutdown");
    }
}

/// With a per-IP cap of 2, the third concurrent socket from the same
/// address is answered `503` + `Retry-After`; closing one of the first
/// two frees the slot.
#[test]
fn per_ip_cap_turns_away_third_socket_and_frees_slot_on_close() {
    for start in [
        start_staged as fn(ServerConfig) -> ServerHandle,
        start_baseline,
    ] {
        let mut cfg = base_cfg();
        cfg.governor.per_ip_max_connections = 2;
        let server = start(cfg);

        let first = half_request(&server);
        let _second = half_request(&server);
        let mut third = TcpStream::connect(server.addr()).expect("connect");
        third
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let resp = read_response(&mut third).expect("turn-away is a real response");
        assert_eq!(resp.status.as_u16(), 503, "over-cap socket");
        assert!(resp.headers.get("retry-after").is_some());
        assert!(
            counter(
                &server,
                "connections_rejected_total",
                &[("reason", "per-ip-cap")],
            ) >= 1.0
        );

        drop(first);
        wait_for("freed slot admits a new connection", || {
            fetch_with_timeout(
                server.addr(),
                Method::Get,
                "/ping",
                &[],
                Duration::from_secs(1),
            )
            .map(|r| r.status.is_success())
            .unwrap_or(false)
        });
        server.shutdown().expect("clean shutdown");
    }
}

/// With a keep-alive quota of 2, a persistent connection is served
/// exactly twice and then closed; the cap is counted.
#[test]
fn keepalive_request_cap_closes_connection_after_budget() {
    for start in [
        start_staged as fn(ServerConfig) -> ServerHandle,
        start_baseline,
    ] {
        let mut cfg = base_cfg();
        cfg.governor.keepalive_max_requests = 2;
        let server = start(cfg);

        let mut sock = TcpStream::connect(server.addr()).expect("connect");
        sock.set_nodelay(true).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        for _ in 0..2 {
            sock.write_all(b"GET /ping HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("write");
            let resp = read_response(&mut sock).expect("served within quota");
            assert!(resp.status.is_success());
        }
        // Budget exhausted: the server hangs up instead of serving a third.
        let _ = sock.write_all(b"GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(
            read_response(&mut sock).is_err(),
            "third keep-alive request must not be served"
        );
        wait_for("keep-alive cap counted", || {
            counter(&server, "keepalive_capped_total", &[]) >= 1.0
        });
        server.shutdown().expect("clean shutdown");
    }
}

/// An over-long header line is answered `431`, an over-long declared
/// body `413` — explicit rejections with `Connection: close`, not
/// silent drops.
#[test]
fn oversized_header_and_body_get_431_and_413() {
    for start in [
        start_staged as fn(ServerConfig) -> ServerHandle,
        start_baseline,
    ] {
        let mut cfg = base_cfg();
        cfg.limits.max_line = 256;
        cfg.limits.max_body = 512;
        let server = start(cfg);

        let mut sock = TcpStream::connect(server.addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut req = b"GET /ping HTTP/1.1\r\nX-big: ".to_vec();
        req.extend(std::iter::repeat_n(b'a', 300));
        req.extend_from_slice(b"\r\n\r\n");
        sock.write_all(&req).expect("write");
        let resp = read_response(&mut sock).expect("431 is a real response");
        assert_eq!(resp.status.as_u16(), 431, "oversized header line");
        assert_eq!(resp.headers.get("connection"), Some("close"));

        let mut sock = TcpStream::connect(server.addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        sock.write_all(b"POST /ping HTTP/1.1\r\nHost: t\r\nContent-Length: 1024\r\n\r\n")
            .expect("write");
        let resp = read_response(&mut sock).expect("413 is a real response");
        assert_eq!(resp.status.as_u16(), 413, "oversized declared body");
        assert_eq!(resp.headers.get("connection"), Some("close"));
        server.shutdown().expect("clean shutdown");
    }
}

/// About a hundred clients that vanish abruptly — right after connect,
/// halfway through the request line, or after a full request without
/// reading the answer — leave no connection counted open, no worker
/// lost to a panic, and a server that still serves.
#[test]
fn abrupt_disconnects_leave_no_open_connection_or_panic() {
    for start in [
        start_staged as fn(ServerConfig) -> ServerHandle,
        start_baseline,
    ] {
        let server = start(base_cfg());
        let addr = server.addr();
        let clients: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for n in 0..25 {
                        let Ok(mut sock) = TcpStream::connect(addr) else {
                            continue;
                        };
                        let sent: &[u8] = match (t + n) % 3 {
                            0 => b"",
                            1 => b"GET /pi",
                            _ => b"GET /ping HTTP/1.1\r\nHost: t\r\n\r\n",
                        };
                        let _ = sock.write_all(sent);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }

        // The listener accepts in order, so once this fetch is served
        // every abandoned socket has been admitted and counted open.
        let resp = fetch_with_timeout(
            addr,
            Method::Get,
            "/img/pixel.gif",
            &[],
            Duration::from_secs(2),
        )
        .expect("static fetch after the disconnects");
        assert!(resp.status.is_success());
        assert_eq!(resp.body, b"GIF89a-pixel");
        wait_for("every abandoned connection closed", || {
            counter(&server, "connections_open", &[]) == 0.0
        });
        for pool in server.pool_snapshots() {
            assert_eq!(pool.panicked, 0, "pool {} counted a panic", pool.name);
        }
        server.shutdown().expect("clean shutdown");
    }
}
