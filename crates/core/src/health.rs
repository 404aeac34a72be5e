//! Health and readiness reporting (`/healthz`, `/readyz`).
//!
//! Both servers answer these two paths ahead of routing and without
//! touching a database connection, so they stay truthful during the
//! exact outages they exist to report. `/healthz` is liveness plus a
//! JSON diagnostic payload (breaker state, queue depths, scheduler
//! gauges, shed/panic counters); `/readyz` carries the same payload but
//! flips to `503` while the server is starting or draining, which is
//! what a load balancer keys on.
//!
//! The payload is rendered from the server's metrics [`Registry`] — the
//! same families `GET /metrics` exports — so the two surfaces cannot
//! disagree. The JSON is assembled by hand: this repo deliberately has
//! no JSON dependency (see DESIGN.md §7), and every value here is a
//! number or a fixed label, so escaping is a non-issue.

use staged_db::{CircuitBreaker, DurabilityStatus};
use staged_http::{Response, StatusCode};
use staged_metrics::Registry;
use staged_sync::atomic::{AtomicU8, Ordering};
use std::fmt::Write as _;
use std::time::Duration;

/// Server lifecycle phase, as `/readyz` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Pools are spawning; not yet accepting work.
    Starting,
    /// Serving normally.
    Ready,
    /// Shutdown began; in-flight requests are finishing.
    Draining,
}

impl Phase {
    /// Label used in the health payloads.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Starting => "starting",
            Phase::Ready => "ready",
            Phase::Draining => "draining",
        }
    }
}

/// Shared readiness state: flipped to [`Phase::Ready`] once the server
/// is accepting, and to [`Phase::Draining`] the moment shutdown begins.
/// Obtainable from a running server via
/// [`ServerHandle::readiness`](crate::ServerHandle::readiness).
#[derive(Debug)]
pub struct Readiness {
    phase: AtomicU8,
}

impl Readiness {
    pub(crate) fn new() -> Self {
        Readiness {
            phase: AtomicU8::new(0),
        }
    }

    /// The current lifecycle phase.
    pub fn phase(&self) -> Phase {
        match self.phase.load(Ordering::Acquire) {
            0 => Phase::Starting,
            1 => Phase::Ready,
            _ => Phase::Draining,
        }
    }

    /// Whether `/readyz` currently answers `200`.
    pub fn is_ready(&self) -> bool {
        self.phase() == Phase::Ready
    }

    pub(crate) fn set_ready(&self) {
        self.phase.store(1, Ordering::Release);
    }

    pub(crate) fn set_draining(&self) {
        self.phase.store(2, Ordering::Release);
    }
}

/// Everything one health payload is rendered from: the lifecycle phase,
/// the breaker (which has richer state than a gauge), and the metrics
/// registry both servers populate at start.
pub(crate) struct HealthView<'a> {
    pub phase: Phase,
    pub breaker: Option<&'a CircuitBreaker>,
    pub registry: &'a Registry,
    /// Point-in-time durability picture, when the server runs with a
    /// WAL ([`crate::ServerConfig::durability`]); `None` keeps the
    /// section out of the payload for in-memory servers.
    pub durability: Option<DurabilityStatus>,
}

impl HealthView<'_> {
    fn counter(&self, name: &str) -> u64 {
        self.registry.value(name, &[]).unwrap_or(0.0).max(0.0) as u64
    }

    /// Writes `,"key":{"v":n,…}`: family `name`'s value per value `v` of
    /// its label `label`.
    fn by_label(&self, s: &mut String, key: &str, name: &str, label: &str) {
        let _ = write!(s, ",\"{key}\":{{");
        for (i, v) in self.registry.label_values(name, label).iter().enumerate() {
            let n = self.registry.value(name, &[(label, v)]).unwrap_or(0.0);
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(s, "{comma}\"{v}\":{}", n.max(0.0) as u64);
        }
        s.push('}');
    }

    fn body(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"status\":\"ok\",\"phase\":\"{}\",\"ready\":{}",
            self.phase.label(),
            self.phase == Phase::Ready
        );
        match self.breaker {
            Some(b) => {
                let _ = write!(
                    s,
                    ",\"breaker\":{{\"state\":\"{}\",\"opened\":{},\"half_opened\":{},\"closed\":{},\"fast_failures\":{}}}",
                    b.state().label(),
                    b.opened_total(),
                    b.half_open_total(),
                    b.closed_total(),
                    b.fast_failures()
                );
            }
            None => s.push_str(",\"breaker\":null"),
        }
        self.by_label(&mut s, "queues", "stage_queue_depth", "stage");
        if let (Some(t_spare), Some(t_reserve)) = (
            self.registry.value("scheduler_t_spare", &[]),
            self.registry.value("scheduler_t_reserve", &[]),
        ) {
            let _ = write!(
                s,
                ",\"scheduler\":{{\"t_spare\":{},\"t_reserve\":{}}}",
                t_spare.max(0.0) as u64,
                t_reserve.max(0.0) as u64
            );
        }
        let _ = write!(
            s,
            ",\"counters\":{{\"completed\":{},\"errors\":{},\"degraded\":{},\"stale_misses\":{},\"deadline_expired\":{},\"pool_starved\":{},\"handler_panics\":{},\"dropped_connections\":{}}}",
            self.registry.family_sum("requests_completed_total") as u64,
            self.counter("errors_total"),
            self.counter("degraded_total"),
            self.counter("stale_misses_total"),
            self.counter("deadline_expired_total"),
            self.counter("pool_starved_total"),
            self.counter("handler_panics_total"),
            self.counter("dropped_connections_total")
        );
        self.by_label(&mut s, "sheds", "sheds_total", "point");
        // Connection-admission picture (only present once a governor has
        // registered — both servers do at start; absent in unit-test
        // registries that predate it).
        if let Some(open) = self.registry.value("connections_open", &[]) {
            let rejected = |reason: &str| {
                self.registry
                    .value("connections_rejected_total", &[("reason", reason)])
                    .unwrap_or(0.0)
                    .max(0.0) as u64
            };
            let _ = write!(
                s,
                ",\"connections\":{{\"open\":{},\"rejected_global\":{},\"rejected_per_ip\":{},\"harvested\":{},\"keepalive_capped\":{},\"slowloris_kills\":{}}}",
                open.max(0.0) as u64,
                rejected("global-cap"),
                rejected("per-ip-cap"),
                self.counter("keepalive_harvested_total"),
                self.counter("keepalive_capped_total"),
                self.counter("slowloris_kills_total")
            );
        }
        // Document-cache picture (only when the staged server runs the
        // dependency-tracked cache and registered its families).
        if let Some(entries) = self.registry.value("doc_cache_entries", &[]) {
            let _ = write!(
                s,
                ",\"doc_cache\":{{\"entries\":{},\"hits\":{},\"misses\":{},\"publishes\":{},\"invalidations\":{},\"stale_discards\":{},\"bytes_served\":{}}}",
                entries.max(0.0) as u64,
                self.counter("doc_cache_hits_total"),
                self.counter("doc_cache_misses_total"),
                self.counter("doc_cache_publishes_total"),
                self.counter("doc_cache_invalidations_total"),
                self.counter("doc_cache_stale_discards_total"),
                self.counter("doc_cache_bytes_served_total")
            );
        }
        // Durability picture (only when the server runs with a WAL).
        // `poisoned` is reported as a boolean: the message is free-form
        // I/O error text and this payload never escapes strings.
        if let Some(d) = &self.durability {
            let _ = write!(
                s,
                ",\"durability\":{{\"mode\":\"{}\",\"last_checkpoint_age_ms\":{},\"replayed\":{},\"checkpoints\":{},\"wal_appends\":{},\"wal_bytes\":{},\"wal_written_seq\":{},\"wal_synced_seq\":{},\"checkpoint_on_shutdown\":{},\"poisoned\":{}}}",
                d.mode,
                d.last_checkpoint_age.as_millis(),
                d.replay_count,
                d.checkpoints,
                d.wal.appends,
                d.wal.bytes,
                d.wal.written_seq,
                d.wal.synced_seq,
                d.checkpoint_on_shutdown,
                d.poisoned.is_some()
            );
        }
        s.push_str(",\"pools\":[");
        for (i, pool) in self
            .registry
            .label_values("pool_completed_total", "pool")
            .iter()
            .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            let labels = [("pool", pool.as_str())];
            let read =
                |metric: &str| self.registry.value(metric, &labels).unwrap_or(0.0).max(0.0) as u64;
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"completed\":{},\"panicked\":{},\"rejected\":{},\"busy\":{}}}",
                pool,
                read("pool_completed_total"),
                read("pool_panics_total"),
                read("pool_rejected_total"),
                read("pool_busy_workers")
            );
        }
        s.push_str("]}");
        s
    }

    /// The `/healthz` response: `200` whenever the process can answer
    /// at all (liveness), carrying the full diagnostic payload.
    pub(crate) fn healthz(&self) -> Response {
        Response::with_content_type("application/json", self.body())
    }

    /// The `/readyz` response: the same payload, but `503` (with a
    /// `Retry-After` hint) outside the [`Phase::Ready`] window.
    pub(crate) fn readyz(&self, retry_after: Duration) -> Response {
        let mut resp = self.healthz();
        if self.phase != Phase::Ready {
            resp.set_status(StatusCode::SERVICE_UNAVAILABLE);
            resp.headers_mut()
                .set("Retry-After", retry_after.as_secs().max(1).to_string());
            resp.set_close();
        }
        resp
    }
}

/// Whether a request path is one of the health endpoints (matched
/// before routing, query string already split off by the parser).
pub(crate) fn is_health_path(path: &str) -> bool {
    path == "/healthz" || path == "/readyz"
}

/// Whether a request path is one of the observability endpoints
/// (`/metrics` Prometheus exposition, `/debug/traces` slow-trace ring,
/// `/debug/explain` query-plan trees), matched alongside the health
/// paths ahead of routing.
pub(crate) fn is_observability_path(path: &str) -> bool {
    path == "/metrics" || path == "/debug/traces" || path == "/debug/explain"
}

/// Renders `GET /debug/explain`: with `?route=<page>`, every statement
/// that page has executed with its query-plan tree (node kind, chosen
/// index, estimated vs measured rows, cumulative per-node time); bare,
/// the list of routes seen so far. A route the server has not served
/// yet answers `404` with that same list.
pub(crate) fn explain_response(db: &staged_db::Database, route: Option<&str>) -> Response {
    let route_list = |routes: &[String]| {
        let mut out = String::from("[");
        for (i, r) in routes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Route names are the servers' own fixed page names: quoting
            // without escape analysis is safe, but stay defensive.
            out.push('"');
            out.extend(r.chars().filter(|c| *c != '"' && *c != '\\'));
            out.push('"');
        }
        out.push(']');
        out
    };
    match route {
        Some(route) => match db.explain_route(route) {
            Some(json) => Response::with_content_type("application/json", json),
            None => {
                let mut resp = Response::with_content_type(
                    "application/json",
                    format!(
                        "{{\"error\":\"unknown route (serve it once first)\",\"routes\":{}}}",
                        route_list(&db.known_routes())
                    ),
                );
                resp.set_status(StatusCode::NOT_FOUND);
                resp
            }
        },
        None => Response::with_content_type(
            "application/json",
            format!("{{\"routes\":{}}}", route_list(&db.known_routes())),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Counters, RequestKind, ShedPoint};
    use std::time::Duration;

    /// Builds a registry shaped like the staged server's: stage depth
    /// gauges, scheduler gauges, the server's counters, and one pool.
    fn populated_registry() -> Registry {
        let r = Registry::new();
        r.gauge_fn("stage_queue_depth", &[("stage", "header")], || 2.0);
        r.gauge_fn("stage_queue_depth", &[("stage", "render")], || 0.0);
        r.gauge_fn("scheduler_t_spare", &[], || 3.0);
        r.gauge_fn("scheduler_t_reserve", &[], || 1.0);
        let c = Counters::register_into(&r);
        c.completed(RequestKind::Static).add(4);
        c.completed(RequestKind::QuickDynamic).add(6);
        c.degraded.increment();
        c.shed(ShedPoint::Listener).add(5);
        let pool = [("pool", "general-dynamic")];
        r.counter("pool_completed_total", &pool).add(9);
        r.counter("pool_panics_total", &pool);
        r.counter("pool_rejected_total", &pool);
        r.gauge_fn("pool_busy_workers", &pool, || 0.0);
        r
    }

    /// A view of `registry` in `phase`, with no breaker and no WAL.
    fn view(registry: &Registry, phase: Phase) -> HealthView<'_> {
        HealthView {
            phase,
            breaker: None,
            registry,
            durability: None,
        }
    }

    fn payload(v: &HealthView<'_>) -> String {
        String::from_utf8(v.healthz().body().to_vec()).unwrap()
    }

    #[test]
    fn healthz_payload_is_wellformed() {
        let registry = populated_registry();
        let v = view(&registry, Phase::Ready);
        let resp = v.healthz();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.headers().get("content-type"), Some("application/json"));
        let body = payload(&v);
        assert!(body.contains("\"phase\":\"ready\""), "{body}");
        assert!(body.contains("\"ready\":true"), "{body}");
        assert!(body.contains("\"breaker\":null"), "{body}");
        assert!(body.contains("\"header\":2"), "{body}");
        assert!(body.contains("\"t_spare\":3"), "{body}");
        assert!(body.contains("\"completed\":10"), "{body}");
        assert!(body.contains("\"degraded\":1"), "{body}");
        assert!(body.contains("\"listener\":5"), "{body}");
        assert!(body.contains("\"name\":\"general-dynamic\""), "{body}");
        assert!(body.contains("\"completed\":9"), "{body}");
    }

    #[test]
    fn readyz_rejects_outside_ready_phase() {
        let registry = Registry::new();
        let v = view(&registry, Phase::Draining);
        let resp = v.readyz(Duration::from_secs(2));
        assert_eq!(resp.status(), StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(resp.headers().get("retry-after"), Some("2"));
        let body = String::from_utf8(resp.body().to_vec()).unwrap();
        assert!(body.contains("\"phase\":\"draining\""), "{body}");

        let v = view(&registry, Phase::Ready);
        assert_eq!(v.readyz(Duration::from_secs(2)).status(), StatusCode::OK);
    }

    #[test]
    fn breaker_state_appears_in_payload() {
        let registry = Registry::new();
        let breaker = CircuitBreaker::new(staged_db::BreakerConfig::default());
        let v = HealthView {
            phase: Phase::Ready,
            breaker: Some(&breaker),
            registry: &registry,
            durability: None,
        };
        let body = payload(&v);
        assert!(body.contains("\"state\":\"closed\""), "{body}");
        // No scheduler gauges registered → no scheduler object at all.
        assert!(!body.contains("scheduler"), "{body}");
    }

    #[test]
    fn connections_section_appears_once_governor_registers() {
        let registry = populated_registry();
        registry.gauge_fn("connections_open", &[], || 7.0);
        registry.counter_fn(
            "connections_rejected_total",
            &[("reason", "global-cap")],
            || 3,
        );
        registry.counter_fn(
            "connections_rejected_total",
            &[("reason", "per-ip-cap")],
            || 2,
        );
        registry.counter_fn("keepalive_harvested_total", &[], || 1);
        registry.counter_fn("keepalive_capped_total", &[], || 4);
        registry.counter("slowloris_kills_total", &[]).add(5);
        let v = view(&registry, Phase::Ready);
        let body = payload(&v);
        assert!(body.contains("\"connections\":{\"open\":7"), "{body}");
        assert!(body.contains("\"rejected_global\":3"), "{body}");
        assert!(body.contains("\"rejected_per_ip\":2"), "{body}");
        assert!(body.contains("\"slowloris_kills\":5"), "{body}");

        // A registry without the governor families omits the section.
        let bare = populated_registry();
        let v = view(&bare, Phase::Ready);
        let body = payload(&v);
        assert!(!body.contains("\"connections\""), "{body}");
    }

    #[test]
    fn doc_cache_section_appears_once_cache_registers() {
        let registry = populated_registry();
        registry.gauge_fn("doc_cache_entries", &[], || 3.0);
        registry.counter_fn("doc_cache_hits_total", &[], || 12);
        registry.counter_fn("doc_cache_misses_total", &[], || 4);
        registry.counter_fn("doc_cache_publishes_total", &[], || 4);
        registry.counter_fn("doc_cache_invalidations_total", &[], || 1);
        registry.counter_fn("doc_cache_stale_discards_total", &[], || 0);
        registry.counter_fn("doc_cache_bytes_served_total", &[], || 4096);
        let v = view(&registry, Phase::Ready);
        let body = payload(&v);
        assert!(body.contains("\"doc_cache\":{\"entries\":3"), "{body}");
        assert!(body.contains("\"hits\":12"), "{body}");
        assert!(body.contains("\"bytes_served\":4096"), "{body}");

        // A registry without the cache families omits the section.
        let bare = populated_registry();
        let v = view(&bare, Phase::Ready);
        let body = payload(&v);
        assert!(!body.contains("\"doc_cache\""), "{body}");
    }

    #[test]
    fn durability_section_appears_when_wal_attached() {
        let registry = populated_registry();
        let status = DurabilityStatus {
            mode: "always",
            last_checkpoint_age: Duration::from_millis(250),
            replay_count: 3,
            checkpoints: 2,
            wal: staged_db::WalStats {
                appends: 10,
                bytes: 640,
                fsyncs: 10,
                written_seq: 10,
                synced_seq: 10,
            },
            checkpoint_on_shutdown: true,
            poisoned: None,
        };
        let v = HealthView {
            phase: Phase::Ready,
            breaker: None,
            registry: &registry,
            durability: Some(status),
        };
        let body = payload(&v);
        assert!(
            body.contains("\"durability\":{\"mode\":\"always\""),
            "{body}"
        );
        assert!(body.contains("\"last_checkpoint_age_ms\":250"), "{body}");
        assert!(body.contains("\"replayed\":3"), "{body}");
        assert!(body.contains("\"wal_appends\":10"), "{body}");
        assert!(body.contains("\"poisoned\":false"), "{body}");

        // In-memory servers omit the section entirely.
        let v = view(&registry, Phase::Ready);
        let body = payload(&v);
        assert!(!body.contains("\"durability\""), "{body}");
    }

    #[test]
    fn readiness_lifecycle() {
        let r = Readiness::new();
        assert_eq!(r.phase(), Phase::Starting);
        assert!(!r.is_ready());
        r.set_ready();
        assert!(r.is_ready());
        r.set_draining();
        assert_eq!(r.phase(), Phase::Draining);
        assert!(!r.is_ready());
    }

    #[test]
    fn health_paths_matched_exactly() {
        assert!(is_health_path("/healthz"));
        assert!(is_health_path("/readyz"));
        assert!(!is_health_path("/health"));
        assert!(!is_health_path("/healthz/x"));
    }

    #[test]
    fn observability_paths_matched_exactly() {
        assert!(is_observability_path("/metrics"));
        assert!(is_observability_path("/debug/traces"));
        assert!(is_observability_path("/debug/explain"));
        assert!(!is_observability_path("/metrics/"));
        assert!(!is_observability_path("/debug"));
        assert!(!is_observability_path("/debug/explain/x"));
        assert!(!is_health_path("/metrics"));
    }
}
