//! The connection governor: admission control shared by both servers.
//!
//! The five-pool scheduler protects the *precious* resources (database
//! connections, pool threads) from well-behaved traffic, but nothing in
//! the paper stops one hostile peer from simply holding sockets: accept
//! is free, and a keep-alive connection parks in the header queue
//! forever. The governor closes that gap at the accept boundary:
//!
//! * a **global cap** on concurrently open connections;
//! * a **per-peer-IP cap**, so one client cannot monopolize the global
//!   budget;
//! * a **keep-alive request cap** per connection, bounding how long any
//!   single socket can squat on the pipeline;
//! * **idle harvesting**: once open connections reach a watermark
//!   fraction of the global cap, finished keep-alive connections are
//!   closed instead of requeued, freeing slots for new peers.
//!
//! Rejected connections get the same well-formed `503` + `Retry-After`
//! the shed path sends — a turned-away client is told to come back, not
//! silently reset. Every decision is surfaced through the metrics
//! registry (`connections_open`, `connections_rejected_total{reason}`,
//! `keepalive_harvested_total`, `keepalive_capped_total`) and the
//! `/healthz` payload.
//!
//! All caps default to **off** (`0`), preserving pre-governor behavior;
//! the hostile-traffic suite and production-shaped configs opt in.

use staged_metrics::{Counter, Registry};
use staged_sync::atomic::{AtomicUsize, Ordering};
use staged_sync::{OrderedMutex, Rank};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{IpAddr, TcpStream};
use std::sync::Arc;

/// Rank of the governor's per-IP count map (DESIGN.md §12): between the
/// overload sample window (110) and the response cache state (118).
const PER_IP_RANK: Rank = Rank::new(115);

/// Count-zero per-IP entries are retained (steady-state admits are then
/// allocation-free) until the map grows past this many peers, at which
/// point dead entries are swept.
const PER_IP_SWEEP_LEN: usize = 4096;

/// Fraction of [`GovernorConfig::max_connections`] at or above which
/// finished keep-alive connections are harvested (closed instead of
/// requeued) to free slots for new peers.
const HARVEST_WATERMARK: f64 = 0.9;

/// Connection-admission caps. Every cap defaults to `0` = disabled, so
/// an unconfigured governor changes nothing.
///
/// # Examples
///
/// ```
/// use staged_core::GovernorConfig;
///
/// let g = GovernorConfig::default();
/// assert_eq!(g.max_connections, 0); // off by default
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Maximum concurrently open connections across all peers; the
    /// listener turns excess connections away with `503`. `0` disables.
    pub max_connections: usize,
    /// Maximum concurrently open connections per peer IP. `0` disables.
    pub per_ip_max_connections: usize,
    /// Maximum requests served over one keep-alive connection before the
    /// server closes it (the client may reconnect and re-enter admission
    /// control). `0` disables.
    pub keepalive_max_requests: u32,
}

/// Why an accepted connection was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Turnaway {
    /// The global connection cap is exhausted.
    GlobalCap,
    /// The peer's IP is at its per-IP cap.
    PerIpCap,
}

struct Inner {
    cfg: GovernorConfig,
    /// `open >= harvest_threshold` ⇒ idle keep-alives are harvested.
    harvest_threshold: usize,
    open: AtomicUsize,
    rejected_global: Counter,
    rejected_per_ip: Counter,
    harvested: Counter,
    keepalive_capped: Counter,
    per_ip: OrderedMutex<HashMap<IpAddr, usize>>,
}

/// Shared admission-control state; cheap to clone (one `Arc`).
#[derive(Clone)]
pub(crate) struct ConnectionGovernor {
    inner: Arc<Inner>,
}

impl ConnectionGovernor {
    pub(crate) fn new(cfg: GovernorConfig) -> Self {
        let harvest_threshold = if cfg.max_connections == 0 {
            usize::MAX
        } else {
            (((cfg.max_connections as f64) * HARVEST_WATERMARK).ceil() as usize).max(1)
        };
        ConnectionGovernor {
            inner: Arc::new(Inner {
                cfg,
                harvest_threshold,
                open: AtomicUsize::new(0),
                rejected_global: Counter::new(),
                rejected_per_ip: Counter::new(),
                harvested: Counter::new(),
                keepalive_capped: Counter::new(),
                per_ip: OrderedMutex::new(PER_IP_RANK, "core.governor.per_ip", HashMap::new()),
            }),
        }
    }

    /// Admits or rejects one accepted connection. `None` for the peer IP
    /// (a failed `peer_addr()`) still counts against the global cap but
    /// bypasses the per-IP cap.
    ///
    /// The returned permit releases both counts on drop, wherever the
    /// connection ends its life.
    // lint: hot_path — runs in the accept loop: two atomics, plus one
    // per-IP map update whose entries are retained at count zero, so
    // steady-state admits never allocate.
    pub(crate) fn admit(&self, ip: Option<IpAddr>) -> Result<ConnPermit, Turnaway> {
        let inner = &self.inner;
        let open = inner.open.fetch_add(1, Ordering::AcqRel) + 1;
        if inner.cfg.max_connections > 0 && open > inner.cfg.max_connections {
            inner.open.fetch_sub(1, Ordering::AcqRel);
            inner.rejected_global.increment();
            return Err(Turnaway::GlobalCap);
        }
        let mut tracked = None;
        if inner.cfg.per_ip_max_connections > 0 {
            if let Some(ip) = ip {
                let mut map = inner.per_ip.lock();
                let count = map.entry(ip).or_insert(0);
                if *count >= inner.cfg.per_ip_max_connections {
                    drop(map);
                    inner.open.fetch_sub(1, Ordering::AcqRel);
                    inner.rejected_per_ip.increment();
                    return Err(Turnaway::PerIpCap);
                }
                *count += 1;
                tracked = Some(ip);
            }
        }
        Ok(ConnPermit {
            inner: Arc::clone(&self.inner),
            ip: tracked,
        })
    }

    /// `true` once a keep-alive connection has served its request quota;
    /// the caller closes it instead of requeuing. Counts the close.
    pub(crate) fn keepalive_exhausted(&self, served: u32) -> bool {
        let cap = self.inner.cfg.keepalive_max_requests;
        if cap > 0 && served >= cap {
            self.inner.keepalive_capped.increment();
            return true;
        }
        false
    }

    /// `true` when open connections have reached the harvest watermark;
    /// the caller closes the finished keep-alive connection to free its
    /// slot for a new peer. Counts the harvest.
    pub(crate) fn harvest_idle(&self) -> bool {
        if self.inner.open.load(Ordering::Acquire) >= self.inner.harvest_threshold {
            self.inner.harvested.increment();
            return true;
        }
        false
    }
    // lint: end_hot_path

    /// Currently open (admitted, not yet dropped) connections.
    pub(crate) fn open(&self) -> usize {
        self.inner.open.load(Ordering::Acquire)
    }

    /// Registers the governor's metric families. Both servers call this
    /// once at start, so `/metrics` and `/healthz` always carry the
    /// admission picture.
    pub(crate) fn register_into(&self, registry: &Registry) {
        let i = Arc::clone(&self.inner);
        registry.gauge_fn("connections_open", &[], move || {
            i.open.load(Ordering::Acquire) as f64
        });
        let i = Arc::clone(&self.inner);
        registry.counter_fn(
            "connections_rejected_total",
            &[("reason", "global-cap")],
            move || i.rejected_global.value(),
        );
        let i = Arc::clone(&self.inner);
        registry.counter_fn(
            "connections_rejected_total",
            &[("reason", "per-ip-cap")],
            move || i.rejected_per_ip.value(),
        );
        let i = Arc::clone(&self.inner);
        registry.counter_fn("keepalive_harvested_total", &[], move || {
            i.harvested.value()
        });
        let i = Arc::clone(&self.inner);
        registry.counter_fn("keepalive_capped_total", &[], move || {
            i.keepalive_capped.value()
        });
    }
}

impl fmt::Debug for ConnectionGovernor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnectionGovernor")
            .field("cfg", &self.inner.cfg)
            .field("open", &self.open())
            .finish_non_exhaustive()
    }
}

/// An admitted connection's slot. Dropping the permit — wherever the
/// connection's life ends: a clean close, a shed, a worker panic —
/// releases the global and per-IP counts.
pub(crate) struct ConnPermit {
    inner: Arc<Inner>,
    ip: Option<IpAddr>,
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.inner.open.fetch_sub(1, Ordering::AcqRel);
        if let Some(ip) = self.ip {
            let mut map = self.inner.per_ip.lock();
            staged_sync::mutant!("governor_leak_ip_slot" => {
                // broken: the peer's slot is never released, so a
                // well-behaved reconnecting client eventually pins
                // itself out at the per-IP cap
            } else {
                if let Some(count) = map.get_mut(&ip) {
                    *count = count.saturating_sub(1);
                }
            });
            // Retain count-zero entries (steady-state is alloc-free);
            // sweep only if the peer set grows unreasonably large.
            if map.len() > PER_IP_SWEEP_LEN {
                map.retain(|_, c| *c > 0);
            }
        }
    }
}

impl fmt::Debug for ConnPermit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnPermit").field("ip", &self.ip).finish()
    }
}

/// A `TcpStream` carrying its admission permit and served-request count,
/// so the slot is released exactly when the connection is dropped — no
/// matter which stage, queue, or error path drops it — and the
/// keep-alive cap survives the connection's trips through the pipeline.
pub(crate) struct GovernedStream {
    stream: TcpStream,
    /// `None` for turn-away responses written outside admission.
    permit: Option<ConnPermit>,
    served: u32,
}

impl GovernedStream {
    pub(crate) fn new(stream: TcpStream, permit: Option<ConnPermit>) -> Self {
        GovernedStream {
            stream,
            permit,
            served: 0,
        }
    }

    /// The underlying socket, for socket options and the bounded
    /// pre-close drain.
    pub(crate) fn tcp(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Bumps and returns the served-request count (called once per
    /// completed response on the keep-alive path).
    pub(crate) fn count_served(&mut self) -> u32 {
        self.served += 1;
        self.served
    }
}

impl fmt::Debug for GovernedStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GovernedStream")
            .field("stream", &self.stream)
            .field("served", &self.served)
            .field("governed", &self.permit.is_some())
            .finish()
    }
}

impl Read for GovernedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for GovernedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    // Forwarded so the zero-copy vectored send path still leaves in one
    // syscall (the default impl would degrade to the first slice only).
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.stream.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Option<IpAddr> {
        Some(IpAddr::from([127, 0, 0, last]))
    }

    #[test]
    fn disabled_governor_admits_everything() {
        let g = ConnectionGovernor::new(GovernorConfig::default());
        let permits: Vec<_> = (0..1000)
            .map(|i| g.admit(ip((i % 3) as u8)).expect("no caps configured"))
            .collect();
        assert_eq!(g.open(), 1000);
        assert!(!g.harvest_idle());
        assert!(!g.keepalive_exhausted(u32::MAX));
        drop(permits);
        assert_eq!(g.open(), 0);
    }

    #[test]
    fn global_cap_rejects_and_slot_frees_on_drop() {
        let g = ConnectionGovernor::new(GovernorConfig {
            max_connections: 2,
            ..GovernorConfig::default()
        });
        let a = g.admit(ip(1)).unwrap();
        let _b = g.admit(ip(1)).unwrap();
        assert_eq!(g.admit(ip(2)).unwrap_err(), Turnaway::GlobalCap);
        drop(a);
        assert!(g.admit(ip(2)).is_ok(), "closing a connection frees a slot");
    }

    #[test]
    fn per_ip_cap_is_per_peer() {
        let g = ConnectionGovernor::new(GovernorConfig {
            per_ip_max_connections: 2,
            ..GovernorConfig::default()
        });
        let _a = g.admit(ip(1)).unwrap();
        let b = g.admit(ip(1)).unwrap();
        assert_eq!(g.admit(ip(1)).unwrap_err(), Turnaway::PerIpCap);
        // A different peer is unaffected by the hog.
        let _c = g.admit(ip(2)).unwrap();
        // Closing one of the hog's connections frees its slot.
        drop(b);
        assert!(g.admit(ip(1)).is_ok());
    }

    #[test]
    fn unknown_peer_bypasses_per_ip_cap_only() {
        let g = ConnectionGovernor::new(GovernorConfig {
            max_connections: 1,
            per_ip_max_connections: 1,
            ..GovernorConfig::default()
        });
        let _a = g.admit(None).unwrap();
        assert_eq!(g.admit(None).unwrap_err(), Turnaway::GlobalCap);
    }

    #[test]
    fn keepalive_cap_and_harvest_watermark() {
        let g = ConnectionGovernor::new(GovernorConfig {
            max_connections: 5,
            keepalive_max_requests: 3,
            ..GovernorConfig::default()
        });
        assert!(!g.keepalive_exhausted(2));
        assert!(g.keepalive_exhausted(3));
        let below: Vec<_> = (0..4).map(|_| g.admit(None).unwrap()).collect();
        assert!(!g.harvest_idle(), "below the watermark");
        let _at = g.admit(None).unwrap();
        assert!(
            g.harvest_idle(),
            "at the watermark (5 of 5 at 0.9, rounded up)"
        );
        drop(below);
        assert!(!g.harvest_idle());
    }

    #[test]
    fn rejections_and_harvests_are_counted() {
        let g = ConnectionGovernor::new(GovernorConfig {
            max_connections: 1,
            per_ip_max_connections: 1,
            ..GovernorConfig::default()
        });
        let registry = Registry::new();
        g.register_into(&registry);
        let _held = g.admit(ip(1)).unwrap();
        let _ = g.admit(ip(1)); // global cap hit (checked before per-IP)
        let _ = g.admit(ip(2));
        assert!(g.harvest_idle());
        assert!(!g.keepalive_exhausted(0));
        assert_eq!(registry.value("connections_open", &[]), Some(1.0));
        let rejected: f64 = registry
            .samples("connections_rejected_total")
            .iter()
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(rejected, 2.0);
        assert_eq!(registry.value("keepalive_harvested_total", &[]), Some(1.0));
    }
}
