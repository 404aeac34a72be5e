//! Server configuration.
//!
//! Values no caller needs to change are not configuration; each is a
//! constant beside its one reader:
//!
//! - the response cache's TTL (60 s) and entry count (1024):
//!   `doccache.rs`. Only whether the cache exists is a knob
//!   ([`ServerConfig::doc_cache`]);
//! - the floor of the adaptive `Retry-After` (1 s) and the re-checkout
//!   attempts after a worker's database connection dies (2):
//!   `overload.rs`;
//! - the graceful-shutdown drain budget (5 s): `server.rs`.
//!
//! Every stage's queue holds `workers × queue_factor` jobs; there are
//! no per-stage caps, so a test pins a bound through the pool size and
//! [`ServerConfig::queue_factor`]. The bucket width of the Figures 9/10
//! completion series belongs to the bench harness that samples the
//! `requests_completed_total` counters (`staged-bench`).

use crate::governor::GovernorConfig;
use staged_db::{BreakerConfig, DurabilityConfig, FaultPlan};
use staged_http::ParseLimits;
use std::net::SocketAddr;
use std::time::Duration;

/// Configuration of the one request pipeline. Which model runs —
/// which pools exist and which stage runs on which — is chosen by the
/// entry point ([`StagedServer::start`](crate::StagedServer::start) or
/// [`BaselineServer::start`](crate::BaselineServer::start)), not by a
/// field here; the per-pool sizes and queue factor below configure the
/// pools of whichever model is started and the rest applies to both.
///
/// Defaults are library defaults that keep the paper's proportions:
/// the general dynamic pool has **four times** the lengthy pool's
/// threads (§3.3), database connections equal the total dynamic thread
/// count, and the controller ticks at the paper's 1 Hz scaled ×10 to
/// 100 ms. The 5 ms quick/lengthy cutoff is a library default, not the
/// paper's 2 s at any stated scale (×10 would be 200 ms). The paper
/// run's own values are `staged_tpcw::Deployment::paper()`'s.
///
/// # Examples
///
/// ```
/// use staged_core::ServerConfig;
///
/// let cfg = ServerConfig::default();
/// assert_eq!(cfg.general_workers, 4 * cfg.lengthy_workers);
/// assert_eq!(cfg.db_connections, cfg.general_workers + cfg.lengthy_workers);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Header-parsing pool size (five-pool model).
    pub header_workers: usize,
    /// Static-request pool size (five-pool model).
    pub static_workers: usize,
    /// General dynamic pool size (five-pool model).
    pub general_workers: usize,
    /// Lengthy dynamic pool size (five-pool model).
    pub lengthy_workers: usize,
    /// Template-rendering pool size (five-pool model).
    pub render_workers: usize,
    /// Worker pool size of the thread-per-request model. Matches the
    /// five-pool model's dynamic thread count by default so both models
    /// get the same connection budget.
    pub baseline_workers: usize,
    /// Database connections in the shared pool.
    pub db_connections: usize,
    /// Average data-generation time above which a page is *lengthy*
    /// (paper: 2 s; library default: 5 ms, not a scaled 2 s).
    pub lengthy_cutoff: Duration,
    /// How often the reserve controller updates `t_reserve` (paper:
    /// once per second; scaled default: 100 ms).
    pub controller_tick: Duration,
    /// The configured minimum of `t_reserve` (paper's example: 20; the
    /// scaled default reserves a quarter of the general pool).
    pub min_reserve: usize,
    /// Upper clamp on `t_reserve`; must stay below the general pool
    /// size or lengthy requests can be permanently locked out of the
    /// general pool (see `ReserveController::with_max`). Default: half
    /// the general pool.
    pub max_reserve: usize,
    /// HTTP parse limits.
    pub limits: ParseLimits,
    /// Socket read timeout: how long a worker waits for request bytes
    /// before dropping the connection (defends the header pool against
    /// slow-loris clients). `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Multiplier sizing each stage's bounded queue from its pool width
    /// (`bound = workers × queue_factor`). Generous by default so the
    /// paper-reproduction runs never shed; shrink it (with the pool
    /// sizes, to pin one stage's bound) to exercise overload control.
    pub queue_factor: usize,
    /// End-to-end time budget per request, measured from the moment the
    /// request line arrives. Stages check the remaining budget when they
    /// dequeue work and answer `503` instead of serving requests whose
    /// deadline already passed (no point rendering a page the client
    /// gave up on). `None` (the default) disables deadline checking.
    pub request_deadline: Option<Duration>,
    /// Socket write timeout: how long a worker blocks transmitting a
    /// response before the connection is dropped (defends workers
    /// against clients that stop reading). `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// How long a dynamic worker waits to check a replacement database
    /// connection out after its own dies mid-request.
    pub db_acquire_timeout: Duration,
    /// Deterministic database fault plan, installed into the connection
    /// pool at startup. `None` (the default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Circuit breaker wrapped around database checkout and query
    /// execution (see [`staged_db::CircuitBreaker`]). When the breaker
    /// opens, dynamic handlers fail fast with a `503` + `Retry-After`
    /// instead of burning their deadline in acquisition backoff. `None`
    /// (the default) disables it.
    pub breaker: Option<BreakerConfig>,
    /// Whether the [`StagedServer`](crate::StagedServer) keeps a
    /// response cache ([`DocCache`](crate::DocCache)). With it on,
    /// renders of routes marked
    /// [`AppBuilder::cacheable`](crate::AppBuilder::cacheable) are kept
    /// tagged with the tables/keys they read, evicted when a committed
    /// write intersects that read-set, and served straight from the
    /// parse stage until then — zero DB checkouts, zero render work,
    /// zero allocations. **Off by default** so the paper-comparison
    /// benches measure the paper's model, not the cache;
    /// [`BaselineServer`](crate::BaselineServer) has no cache and
    /// ignores it.
    pub doc_cache: bool,
    /// Capacity of the slowest-trace ring served by `GET /debug/traces`
    /// (the N slowest served requests keep their full stage timeline).
    /// `0` disables trace retention; outcome counters still work.
    pub trace_ring: usize,
    /// Connection-admission caps (global / per-IP concurrency, keep-alive
    /// request quota, idle harvesting). All caps default to off — see
    /// [`GovernorConfig`].
    pub governor: GovernorConfig,
    /// Durability for the embedded database: a write-ahead log plus
    /// checkpoints in the configured directory (DESIGN.md §13). `None`
    /// (the default) keeps the database purely in-memory, exactly as
    /// the paper-comparison benches expect. When set, the server
    /// attaches the WAL at startup (replaying whatever the directory
    /// holds) and — if [`DurabilityConfig::checkpoint_on_shutdown`] is
    /// on — writes a final checkpoint during graceful shutdown so the
    /// next open replays nothing.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let general_workers = 32;
        let lengthy_workers = 8;
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("valid literal address"),
            header_workers: 16,
            static_workers: 32,
            general_workers,
            lengthy_workers,
            render_workers: 16,
            baseline_workers: general_workers + lengthy_workers,
            db_connections: general_workers + lengthy_workers,
            lengthy_cutoff: Duration::from_millis(5),
            controller_tick: Duration::from_millis(100),
            min_reserve: 8,
            max_reserve: general_workers / 2,
            limits: ParseLimits::default(),
            read_timeout: Some(Duration::from_secs(10)),
            queue_factor: 64,
            request_deadline: None,
            write_timeout: Some(Duration::from_secs(10)),
            db_acquire_timeout: Duration::from_millis(500),
            fault_plan: None,
            breaker: None,
            doc_cache: false,
            trace_ring: 32,
            governor: GovernorConfig::default(),
            durability: None,
        }
    }
}

impl ServerConfig {
    /// A small configuration for fast unit/integration tests.
    pub fn small() -> Self {
        ServerConfig {
            header_workers: 2,
            static_workers: 2,
            general_workers: 4,
            lengthy_workers: 1,
            render_workers: 2,
            baseline_workers: 5,
            db_connections: 5,
            min_reserve: 1,
            max_reserve: 2,
            controller_tick: Duration::from_millis(20),
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            db_acquire_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        }
    }

    /// The bound of the queue feeding a pool of `workers` threads.
    pub(crate) fn queue_bound(&self, workers: usize) -> usize {
        workers.saturating_mul(self.queue_factor).max(1)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any pool is empty or the dynamic pools outnumber the
    /// database connections (each dynamic worker owns a connection).
    pub fn validate(&self) {
        assert!(self.header_workers > 0, "header pool must not be empty");
        assert!(self.static_workers > 0, "static pool must not be empty");
        assert!(self.general_workers > 0, "general pool must not be empty");
        assert!(self.lengthy_workers > 0, "lengthy pool must not be empty");
        assert!(self.render_workers > 0, "render pool must not be empty");
        assert!(self.baseline_workers > 0, "baseline pool must not be empty");
        assert!(
            self.max_reserve >= self.min_reserve,
            "max_reserve must be at least min_reserve"
        );
        assert!(
            self.max_reserve < self.general_workers,
            "max_reserve must leave the general pool reachable by lengthy requests"
        );
        assert!(
            self.db_connections >= self.general_workers + self.lengthy_workers,
            "each dynamic worker owns a DB connection: need at least {} connections",
            self.general_workers + self.lengthy_workers
        );
        assert!(
            self.db_connections >= self.baseline_workers,
            "each baseline worker owns a DB connection: need at least {} connections",
            self.baseline_workers
        );
        assert!(self.queue_factor >= 1, "queue_factor must be at least 1");
        if let Some(breaker) = &self.breaker {
            breaker.validate();
        }
        if let Some(durability) = &self.durability {
            assert!(
                !durability.dir.as_os_str().is_empty(),
                "durability directory must not be empty"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_proportions() {
        let c = ServerConfig::default();
        assert_eq!(c.general_workers, 4 * c.lengthy_workers);
        assert_eq!(c.db_connections, c.general_workers + c.lengthy_workers);
        assert_eq!(c.baseline_workers, c.db_connections);
        c.validate();
    }

    #[test]
    fn small_config_validates() {
        ServerConfig::small().validate();
    }

    #[test]
    #[should_panic(expected = "each dynamic worker owns a DB connection")]
    fn undersized_connection_pool_rejected() {
        let c = ServerConfig {
            db_connections: 1,
            ..ServerConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "general pool must not be empty")]
    fn empty_pool_rejected() {
        let c = ServerConfig {
            general_workers: 0,
            ..ServerConfig::default()
        };
        c.validate();
    }

    #[test]
    fn queue_bounds_follow_pool_widths() {
        let c = ServerConfig::default();
        assert_eq!(c.queue_bound(c.header_workers), c.header_workers * 64);
        let one_slot = ServerConfig {
            queue_factor: 1,
            ..ServerConfig::default()
        };
        assert_eq!(one_slot.queue_bound(1), 1);
        // Clamped: a bound of zero would shed everything.
        assert_eq!(c.queue_bound(0), 1);
    }

    #[test]
    fn durability_defaults_off_and_validates_when_set() {
        let c = ServerConfig::default();
        assert!(c.durability.is_none(), "in-memory by default");
        let c = ServerConfig {
            durability: Some(DurabilityConfig::new("target/tmp/cfg-durability")),
            ..ServerConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "durability directory")]
    fn empty_durability_dir_rejected() {
        let c = ServerConfig {
            durability: Some(DurabilityConfig::new("")),
            ..ServerConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "queue_factor")]
    fn zero_queue_factor_rejected() {
        let c = ServerConfig {
            queue_factor: 0,
            ..ServerConfig::default()
        };
        c.validate();
    }
}
