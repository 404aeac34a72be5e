//! The five workloads and the seeded request streams that drive them.
//!
//! Everything the server sees is generated here, up front, from
//! `--seed`: one stream of pre-built request bytes per connection and
//! one Poisson arrival schedule per connection. Each connection owns
//! its stream (no shared hot queue between generator threads), which
//! also keeps a write and its freshness read, or the steps of an
//! ordering session, in order on one connection.

use crate::rng::Rng;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Generator threads and keep-alive connections: `nproc` on the
/// machine the bounds were calibrated on. Fixed, so that a run means
/// the same thing everywhere.
pub const CONNECTIONS: usize = 2;

/// Requests per connection stream; a phase that needs more wraps
/// around.
pub const STREAM_OPS: usize = 32_768;

/// TPC-W's subject list (the server's copy is private to its crate).
const SUBJECTS: [&str; 23] = [
    "ARTS",
    "BIOGRAPHIES",
    "BUSINESS",
    "CHILDREN",
    "COMPUTERS",
    "COOKING",
    "HEALTH",
    "HISTORY",
    "HOME",
    "HUMOR",
    "LITERATURE",
    "MYSTERY",
    "NON-FICTION",
    "PARENTING",
    "POLITICS",
    "REFERENCE",
    "RELIGION",
    "ROMANCE",
    "SELF-HELP",
    "SCIENCE-NATURE",
    "SCIENCE-FICTION",
    "SPORTS",
    "TRAVEL",
];

/// The search terms the repo's own TPC-W client uses, per search kind.
const SEARCH_KINDS: [(&str, [&str; 5]); 3] = [
    ("title", ["Winter", "Secret", "Star", "River", "Golden"]),
    ("author", ["Hop", "Tur", "Lov", "Knu", "Dij"]),
    (
        "subject",
        ["ARTS", "COMPUTERS", "HISTORY", "MYSTERY", "TRAVEL"],
    ),
];

/// The 14 TPC-W interactions plus the static thumbnails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Page {
    Home,
    NewProducts,
    BestSellers,
    ProductDetail,
    SearchRequest,
    ExecuteSearch,
    ShoppingCart,
    CustomerRegistration,
    BuyRequest,
    BuyConfirm,
    OrderInquiry,
    OrderDisplay,
    AdminRequest,
    AdminConfirm,
    Static,
}

impl Page {
    pub const ALL: [Page; 15] = [
        Page::Home,
        Page::NewProducts,
        Page::BestSellers,
        Page::ProductDetail,
        Page::SearchRequest,
        Page::ExecuteSearch,
        Page::ShoppingCart,
        Page::CustomerRegistration,
        Page::BuyRequest,
        Page::BuyConfirm,
        Page::OrderInquiry,
        Page::OrderDisplay,
        Page::AdminRequest,
        Page::AdminConfirm,
        Page::Static,
    ];

    /// The request path without its slash; also the metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            Page::Home => "home",
            Page::NewProducts => "new_products",
            Page::BestSellers => "best_sellers",
            Page::ProductDetail => "product_detail",
            Page::SearchRequest => "search_request",
            Page::ExecuteSearch => "execute_search",
            Page::ShoppingCart => "shopping_cart",
            Page::CustomerRegistration => "customer_registration",
            Page::BuyRequest => "buy_request",
            Page::BuyConfirm => "buy_confirm",
            Page::OrderInquiry => "order_inquiry",
            Page::OrderDisplay => "order_display",
            Page::AdminRequest => "admin_request",
            Page::AdminConfirm => "admin_confirm",
            Page::Static => "static",
        }
    }

    /// Pages whose handler mutates the database (as the benchmark calls
    /// them: `buy_request` always carries a customer id, so it only
    /// reads). Their bodies embed server-assigned ids, so the oracle
    /// does not compare them.
    pub fn writes(self) -> bool {
        matches!(
            self,
            Page::ShoppingCart | Page::BuyConfirm | Page::AdminConfirm
        )
    }
}

/// Which server runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `StagedServer`: the paper's five pools.
    Staged,
    /// `BaselineServer`: thread per request.
    Baseline,
}

/// How a workload's streams are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Independent requests drawn from a page mix (weights in any unit).
    Mix(&'static [(Page, u32)]),
    /// Zipf(1.0) over [`ZIPF_URLS`] distinct cacheable URLs, with one
    /// `admin_confirm` write and its freshness read per hundred.
    CachedZipf,
    /// One ordering session per connection; cart ids are learned from
    /// response bodies.
    OrderSessions,
}

/// Distinct URLs of the cached workload: twice the document cache's
/// capacity, so the hot set fits and the tail evicts.
pub const ZIPF_URLS: usize = 2_048;
/// How many of the hottest URLs set-up fetches once.
pub const PREFILL_URLS: usize = 512;

/// One workload: its deployment switches and its frozen open-loop
/// operating point.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub model: Model,
    pub doc_cache: bool,
    pub durable: bool,
    pub shape: Shape,
    /// Open-phase arrival rate, all connections together. Calibrated
    /// once (about 45 % of the closed-loop capacity measured on the
    /// commit that added the benchmark, at most 4 000) and then frozen.
    pub rate_rps: f64,
    /// Latency limit for `slo_ok_ratio`: about twice that commit's
    /// `open_p99_ms`, frozen.
    pub slo_ms: f64,
}

/// TPC-W's browsing mix (WIPSb), in hundredths of a percent — the
/// weights of `staged_tpcw`'s private `MIX` table.
const BROWSING_MIX: &[(Page, u32)] = &[
    (Page::Home, 2900),
    (Page::ProductDetail, 2100),
    (Page::SearchRequest, 1200),
    (Page::NewProducts, 1100),
    (Page::BestSellers, 1100),
    (Page::ExecuteSearch, 1100),
    (Page::ShoppingCart, 200),
    (Page::CustomerRegistration, 82),
    (Page::BuyRequest, 75),
    (Page::BuyConfirm, 69),
    (Page::OrderInquiry, 30),
    (Page::OrderDisplay, 25),
    (Page::AdminRequest, 10),
    (Page::AdminConfirm, 9),
];

/// Only cheap requests: point lookups, a form, and thumbnails.
const QUICK_MIX: &[(Page, u32)] = &[
    (Page::Home, 20),
    (Page::ProductDetail, 20),
    (Page::SearchRequest, 20),
    (Page::Static, 40),
];

/// The cacheable read pages of the browsing mix, at its weights.
const CACHEABLE_MIX: &[(Page, u32)] = &[
    (Page::Home, 2900),
    (Page::ProductDetail, 2100),
    (Page::SearchRequest, 1200),
    (Page::NewProducts, 1100),
    (Page::BestSellers, 1100),
    (Page::ExecuteSearch, 1100),
    (Page::OrderInquiry, 30),
    (Page::OrderDisplay, 25),
    (Page::AdminRequest, 10),
];

/// The ordering session, in percent of its draws. Each `admin_confirm`
/// is followed by a `product_detail` freshness read, which brings
/// `product_detail` to 15 per hundred draws.
const ORDER_MIX: &[(Page, u32)] = &[
    (Page::ShoppingCart, 30),
    (Page::BuyRequest, 15),
    (Page::BuyConfirm, 15),
    (Page::CustomerRegistration, 10),
    (Page::AdminConfirm, 5),
    (Page::ProductDetail, 10),
    (Page::OrderDisplay, 10),
];

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "browse_mix",
        model: Model::Staged,
        doc_cache: false,
        durable: false,
        shape: Shape::Mix(BROWSING_MIX),
        rate_rps: 300.0,
        slo_ms: 25.0,
    },
    Spec {
        name: "quick_pages",
        model: Model::Staged,
        doc_cache: false,
        durable: false,
        shape: Shape::Mix(QUICK_MIX),
        rate_rps: 4000.0,
        slo_ms: 1.5,
    },
    Spec {
        name: "quick_pages_baseline",
        model: Model::Baseline,
        doc_cache: false,
        durable: false,
        shape: Shape::Mix(QUICK_MIX),
        rate_rps: 4000.0,
        slo_ms: 1.0,
    },
    Spec {
        name: "cached_mix",
        model: Model::Staged,
        doc_cache: true,
        durable: false,
        shape: Shape::CachedZipf,
        rate_rps: 800.0,
        slo_ms: 30.0,
    },
    Spec {
        name: "order_mix",
        model: Model::Staged,
        doc_cache: true,
        durable: true,
        shape: Shape::OrderSessions,
        rate_rps: 1800.0,
        slo_ms: 10.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The population sizes the streams draw ids from.
#[derive(Debug, Clone, Copy)]
pub struct Population {
    pub items: u64,
    pub customers: u64,
    pub images: u64,
}

/// One pre-built request.
#[derive(Debug, Clone)]
pub struct Op {
    pub page: Page,
    start: u32,
    len: u16,
    /// Offset in the request of a ten-digit `sc_id` field the sending
    /// connection overwrites with its session's current cart id.
    pub cart_slot: Option<u16>,
    /// Text the response body must contain (the freshness read after a
    /// write), as an index into the stream's expectations.
    expect: Option<u32>,
}

/// The requests of one connection, in order.
#[derive(Debug, Default)]
pub struct Stream {
    arena: Vec<u8>,
    pub ops: Vec<Op>,
    expects: Vec<String>,
}

impl Stream {
    pub fn request(&self, op: &Op) -> &[u8] {
        &self.arena[op.start as usize..op.start as usize + op.len as usize]
    }

    /// The request target (`/home?c_id=7`).
    pub fn target(&self, op: &Op) -> &str {
        let request = self.request(op);
        let end = request
            .windows(9)
            .position(|w| w == b" HTTP/1.1")
            .expect("requests are built with an HTTP/1.1 request line");
        std::str::from_utf8(&request[4..end]).expect("targets are ASCII")
    }

    pub fn expect(&self, op: &Op) -> Option<&str> {
        op.expect.map(|i| self.expects[i as usize].as_str())
    }

    fn push(&mut self, page: Page, target: &str, expect: Option<String>) {
        let start = self.arena.len();
        self.arena.extend_from_slice(b"GET ");
        self.arena.extend_from_slice(target.as_bytes());
        self.arena.extend_from_slice(
            b" HTTP/1.1\r\nHost: bench.local\r\nUser-Agent: staged-benchmark/1\r\n\
              Accept: text/html,image/gif\r\nConnection: keep-alive\r\n\r\n",
        );
        let cart_slot = target
            .find(CART_FIELD)
            .map(|p| (4 + p + "sc_id=".len()) as u16);
        let expect = expect.map(|e| {
            self.expects.push(e);
            (self.expects.len() - 1) as u32
        });
        self.ops.push(Op {
            page,
            start: u32::try_from(start).expect("a stream's requests fit in 4 GiB"),
            len: u16::try_from(self.arena.len() - start).expect("a request fits in 64 KiB"),
            cart_slot,
            expect,
        });
    }
}

/// The placeholder a session request carries where its cart id goes.
const CART_FIELD: &str = "sc_id=0000000000";
pub const CART_DIGITS: usize = 10;

/// Everything a run sends, generated from the seed before the server
/// exists.
#[derive(Debug)]
pub struct Plan {
    /// One stream per connection.
    pub streams: Vec<Stream>,
    /// Open-phase due times in nanoseconds from the phase's start, one
    /// ascending list per connection.
    pub schedules: Vec<Vec<u64>>,
    /// Requests set-up sends once to warm the document cache.
    pub prefill: Stream,
}

impl Plan {
    pub fn generate(spec: &Spec, seed: u64, pop: Population, open_seconds: f64) -> Plan {
        let mut streams = Vec::with_capacity(CONNECTIONS);
        let mut prefill = Stream::default();
        match spec.shape {
            Shape::Mix(mix) => {
                for conn in 0..CONNECTIONS {
                    streams.push(mix_stream(mix, seed, conn, pop));
                }
            }
            Shape::CachedZipf => {
                let universe = build_universe(seed, pop);
                for conn in 0..CONNECTIONS {
                    streams.push(zipf_stream(&universe, seed, conn));
                }
                for url in universe.iter().take(PREFILL_URLS) {
                    prefill.push(url.page, &url.target, None);
                }
            }
            Shape::OrderSessions => {
                for conn in 0..CONNECTIONS {
                    streams.push(order_stream(seed, conn, pop));
                }
            }
        }
        let schedules = (0..CONNECTIONS)
            .map(|conn| {
                poisson_schedule(
                    &mut Rng::derive(seed, 0x5c4e_d000 + conn as u64),
                    spec.rate_rps / CONNECTIONS as f64,
                    open_seconds,
                )
            })
            .collect();
        Plan {
            streams,
            schedules,
            prefill,
        }
    }
}

/// Poisson arrivals at `rate` per second over `seconds`, as ascending
/// nanosecond offsets.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = rng.exponential(1.0 / rate);
    while t < seconds {
        due.push((t * 1e9) as u64);
        t += rng.exponential(1.0 / rate);
    }
    due
}

/// A page sequence whose every window of a few hundred requests holds
/// the mix in its exact proportions: blocks of ~100 with each page's
/// quota (fractions carried to the next block), shuffled inside the
/// block. A run is a time-limited prefix of the stream, so this keeps
/// the share of expensive pages it happens to see from depending on
/// the seed; order and parameters still do.
fn stratified_pages(rng: &mut Rng, mix: &[(Page, u32)], n: usize) -> Vec<Page> {
    const BLOCK: f64 = 100.0;
    let total: f64 = mix.iter().map(|&(_, w)| f64::from(w)).sum();
    let mut credit = vec![0.0f64; mix.len()];
    let mut out = Vec::with_capacity(n + BLOCK as usize);
    while out.len() < n {
        let from = out.len();
        for (slot, &(page, weight)) in credit.iter_mut().zip(mix) {
            *slot += f64::from(weight) / total * BLOCK;
            while *slot >= 1.0 {
                out.push(page);
                *slot -= 1.0;
            }
        }
        rng.shuffle(&mut out[from..]);
    }
    out.truncate(n);
    out
}

/// The mix as a fixed, evenly interleaved sequence (smooth weighted
/// round-robin): every page gains its weight each step and the richest
/// page is emitted and pays the total. The Zipf universe takes its ranks
/// from this, so *which kind of page* sits at the few hottest ranks —
/// a cheap form, or a listing that every item write evicts — is the same
/// for every seed; the seed still decides their parameters.
fn interleaved_pages(mix: &[(Page, u32)], n: usize) -> Vec<Page> {
    let total: i64 = mix.iter().map(|&(_, w)| i64::from(w)).sum();
    let mut credit = vec![0i64; mix.len()];
    (0..n)
        .map(|_| {
            for (slot, &(_, weight)) in credit.iter_mut().zip(mix) {
                *slot += i64::from(weight);
            }
            let richest = (0..mix.len())
                .max_by_key(|&i| (credit[i], std::cmp::Reverse(i)))
                .expect("a mix has pages");
            credit[richest] -= total;
            mix[richest].0
        })
        .collect()
}

/// Builds request targets. Ids are drawn; the choices that decide what
/// a request *costs* — a listing's subject, a search's kind and term —
/// are taken in turn from a seeded starting point, so every seed asks
/// for the same amount of work in a different order.
struct Targets {
    rng: Rng,
    pop: Population,
    /// Turn counters: new-products subjects, best-sellers subjects,
    /// searches.
    turns: [u64; 3],
    buf: String,
}

impl Targets {
    fn new(mut rng: Rng, pop: Population) -> Self {
        let turns = [rng.below(23), rng.below(23), rng.below(15)];
        Targets {
            rng,
            pop,
            turns,
            buf: String::with_capacity(128),
        }
    }

    fn turn(&mut self, which: usize) -> usize {
        self.turns[which] += 1;
        self.turns[which] as usize
    }

    fn customer(&mut self) -> u64 {
        self.rng.range(1, self.pop.customers)
    }

    fn item(&mut self) -> u64 {
        self.rng.range(1, self.pop.items)
    }

    /// The target for `page` as customer `c`; `cart` is the literal
    /// value of its `sc_id` parameter where it has one.
    fn build(&mut self, page: Page, c: u64, cart: &str) -> &str {
        self.buf.clear();
        let path = page.name();
        // Writing to a String cannot fail.
        let _ = match page {
            Page::Home | Page::SearchRequest | Page::OrderInquiry | Page::OrderDisplay => {
                write!(self.buf, "/{path}?c_id={c}")
            }
            Page::NewProducts | Page::BestSellers => {
                // A listing costs what its subject holds.
                let turn = self.turn(usize::from(page == Page::BestSellers));
                let subject = SUBJECTS[turn % SUBJECTS.len()];
                write!(self.buf, "/{path}?subject={subject}&c_id={c}")
            }
            Page::ProductDetail | Page::AdminRequest => {
                let item = self.item();
                write!(self.buf, "/{path}?i_id={item}&c_id={c}")
            }
            Page::ExecuteSearch => {
                // Title, author and subject searches cost very
                // different amounts, and a term's matches differ too:
                // all fifteen combinations in turn.
                let turn = self.turn(2);
                let (kind, terms) = SEARCH_KINDS[turn % 3];
                let term = terms[turn / 3 % terms.len()];
                write!(self.buf, "/{path}?type={kind}&search={term}&c_id={c}")
            }
            Page::ShoppingCart => {
                let item = self.item();
                let qty = self.rng.range(1, 3);
                write!(
                    self.buf,
                    "/{path}?c_id={c}&sc_id={cart}&i_id={item}&qty={qty}"
                )
            }
            Page::CustomerRegistration | Page::BuyRequest | Page::BuyConfirm => {
                write!(self.buf, "/{path}?c_id={c}&sc_id={cart}")
            }
            Page::AdminConfirm => {
                let item = self.item();
                let cents = self.rng.range(500, 9_999);
                write!(
                    self.buf,
                    "/{path}?i_id={item}&cost={}&c_id={c}",
                    dollars(cents)
                )
            }
            Page::Static => {
                let n = self.rng.below(self.pop.images);
                write!(self.buf, "/img/thumb_{n}.gif")
            }
        };
        &self.buf
    }
}

fn dollars(cents: u64) -> String {
    format!("{}.{:02}", cents / 100, cents % 100)
}

/// What `product_detail` must show after `admin_confirm` set `cents`.
fn price_marker(cents: u64) -> String {
    format!("Our price: <b>${}</b>", dollars(cents))
}

fn mix_stream(mix: &[(Page, u32)], seed: u64, conn: usize, pop: Population) -> Stream {
    let mut rng = Rng::derive(seed, 0x0a11_0000 + conn as u64);
    let pages = stratified_pages(&mut rng, mix, STREAM_OPS);
    let mut targets = Targets::new(rng, pop);
    let mut stream = Stream::default();
    for page in pages {
        let c = targets.customer();
        // Stateless streams never carry a cart: `sc_id=0` opens a new
        // one each time, as a first visit does.
        let target = targets.build(page, c, "0").to_string();
        stream.push(page, &target, None);
    }
    stream
}

/// One cacheable URL of the Zipf universe; its index is its rank.
struct Url {
    page: Page,
    target: String,
    /// The item a `product_detail` URL shows.
    item: Option<u64>,
}

fn build_universe(seed: u64, pop: Population) -> Vec<Url> {
    let pages = interleaved_pages(CACHEABLE_MIX, ZIPF_URLS);
    let mut targets = Targets::new(Rng::derive(seed, 0x2e1f_0000), pop);
    let mut seen = HashSet::with_capacity(ZIPF_URLS);
    let mut universe = Vec::with_capacity(ZIPF_URLS);
    for page in pages {
        // A small population can exhaust a page's distinct URLs (the
        // smoke scale has 288 customers); a duplicate then stands.
        let mut target = String::new();
        for _ in 0..64 {
            let c = targets.customer();
            target = targets.build(page, c, "0").to_string();
            if !seen.contains(&target) {
                break;
            }
        }
        seen.insert(target.clone());
        let item = (page == Page::ProductDetail).then(|| param(&target, "i_id"));
        universe.push(Url { page, target, item });
    }
    universe
}

/// The numeric value of `key` in a target the benchmark built itself.
fn param(target: &str, key: &str) -> u64 {
    let from = target
        .find(&format!("{key}="))
        .expect("the parameter is present")
        + key.len()
        + 1;
    target[from..]
        .split('&')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("the parameter is numeric")
}

/// Cumulative Zipf(1.0) weights over `n` ranks, normalised to end at 1.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += 1.0 / rank as f64;
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn zipf_stream(universe: &[Url], seed: u64, conn: usize) -> Stream {
    let mut rng = Rng::derive(seed, 0x21bf_0000 + conn as u64);
    let cdf = zipf_cdf(universe.len());
    // A connection writes only items of its own parity, so the other
    // connection can never change a price between a write and its
    // freshness read. Targets come from the hottest matching URLs:
    // those are the entries a write actually has to evict.
    let writable: Vec<&Url> = universe
        .iter()
        .filter(|u| u.item.is_some_and(|i| i as usize % CONNECTIONS == conn))
        .take(128)
        .collect();
    assert!(!writable.is_empty(), "the universe holds product pages");
    let mut stream = Stream::default();
    let mut writes = 0u64;
    while stream.ops.len() < STREAM_OPS {
        if stream.ops.len() % 100 == 50 {
            let url = writable[rng.below(writable.len() as u64) as usize];
            let item = url.item.expect("writable URLs show an item");
            // Distinct from the populated prices and from the previous
            // write to the same item.
            let cents = 100_000 + (writes * CONNECTIONS as u64 + conn as u64) % 800_000;
            writes += 1;
            let c = param(&url.target, "c_id");
            let write = format!(
                "/admin_confirm?i_id={item}&cost={}&c_id={c}",
                dollars(cents)
            );
            stream.push(Page::AdminConfirm, &write, None);
            stream.push(url.page, &url.target, Some(price_marker(cents)));
        } else {
            let u = rng.unit();
            let rank = cdf.partition_point(|&c| c <= u).min(universe.len() - 1);
            stream.push(universe[rank].page, &universe[rank].target, None);
        }
    }
    stream
}

fn order_stream(seed: u64, conn: usize, pop: Population) -> Stream {
    let mut rng = Rng::derive(seed, 0x0bde_0000 + conn as u64);
    // The session's customer: distinct per connection.
    let customer = 1
        + (rng.below(pop.customers / CONNECTIONS as u64) * CONNECTIONS as u64 + conn as u64)
            % pop.customers;
    let pages = stratified_pages(&mut rng, ORDER_MIX, STREAM_OPS);
    let mut targets = Targets::new(rng, pop);
    let mut stream = Stream::default();
    let mut writes = 0u64;
    for page in pages {
        if stream.ops.len() >= STREAM_OPS {
            break;
        }
        if page == Page::AdminConfirm {
            // Own-parity items only, as in the cached workload.
            let item =
                (targets.item() - 1) / CONNECTIONS as u64 * CONNECTIONS as u64 + 1 + conn as u64;
            let cents = 100_000 + (writes * CONNECTIONS as u64 + conn as u64) % 800_000;
            writes += 1;
            let write = format!(
                "/admin_confirm?i_id={item}&cost={}&c_id={customer}",
                dollars(cents)
            );
            stream.push(Page::AdminConfirm, &write, None);
            let read = format!("/product_detail?i_id={item}&c_id={customer}");
            stream.push(Page::ProductDetail, &read, Some(price_marker(cents)));
        } else {
            let target = targets
                .build(page, customer, &CART_FIELD["sc_id=".len()..])
                .to_string();
            stream.push(page, &target, None);
        }
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    const POP: Population = Population {
        items: 10_000,
        customers: 28_800,
        images: 1_000,
    };

    fn fingerprint(plan: &Plan) -> (Vec<Vec<u8>>, Vec<Vec<u64>>) {
        (
            plan.streams.iter().map(|s| s.arena.clone()).collect(),
            plan.schedules.clone(),
        )
    }

    #[test]
    fn same_seed_same_bytes_and_schedule_other_seed_differs() {
        for spec in &SPECS {
            let a = Plan::generate(spec, 11, POP, 2.0);
            let b = Plan::generate(spec, 11, POP, 2.0);
            let c = Plan::generate(spec, 12, POP, 2.0);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", spec.name);
            assert_ne!(fingerprint(&a).0, fingerprint(&c).0, "{}", spec.name);
            assert_ne!(fingerprint(&a).1, fingerprint(&c).1, "{}", spec.name);
            assert_eq!(a.prefill.arena, b.prefill.arena);
        }
    }

    #[test]
    fn baseline_sees_the_identical_bytes_as_staged_quick_pages() {
        let staged = Plan::generate(spec("quick_pages").unwrap(), 5, POP, 1.0);
        let baseline = Plan::generate(spec("quick_pages_baseline").unwrap(), 5, POP, 1.0);
        assert_eq!(fingerprint(&staged), fingerprint(&baseline));
    }

    #[test]
    fn every_window_holds_the_mix() {
        let mut rng = Rng::new(3);
        let pages = stratified_pages(&mut rng, BROWSING_MIX, 20_000);
        for window in pages.chunks(1_000) {
            let searches = window.iter().filter(|&&p| p == Page::ExecuteSearch).count();
            assert!((108..=112).contains(&searches), "{searches}");
        }
        let rare = pages.iter().filter(|&&p| p == Page::AdminConfirm).count();
        assert!((17..=19).contains(&rare), "{rare}");
    }

    #[test]
    fn interleaving_is_fixed_and_spreads_each_page_evenly() {
        let pages = interleaved_pages(CACHEABLE_MIX, 1_000);
        assert_eq!(
            &pages[..4],
            [
                Page::Home,
                Page::ProductDetail,
                Page::SearchRequest,
                Page::NewProducts
            ]
        );
        for window in pages.chunks(100) {
            let homes = window.iter().filter(|&&p| p == Page::Home).count();
            assert!((29..=31).contains(&homes), "{homes}");
        }
        assert_eq!(
            pages.iter().filter(|&&p| p == Page::AdminRequest).count(),
            1
        );
    }

    #[test]
    fn schedule_is_ascending_at_the_asked_rate() {
        let due = poisson_schedule(&mut Rng::new(9), 2_000.0, 5.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 5_000_000_000);
        assert!((9_500..10_500).contains(&due.len()), "{}", due.len());
    }

    #[test]
    fn requests_are_well_formed_and_targets_round_trip() {
        let plan = Plan::generate(spec("browse_mix").unwrap(), 1, POP, 1.0);
        let s = &plan.streams[0];
        assert_eq!(s.ops.len(), STREAM_OPS);
        for op in s.ops.iter().take(500) {
            let req = s.request(op);
            assert!(req.starts_with(b"GET /"));
            assert!(req.ends_with(b"\r\n\r\n"));
            assert!(s.target(op).starts_with(&format!("/{}", path_of(op.page))));
            assert!(op.cart_slot.is_none());
        }
    }

    fn path_of(page: Page) -> &'static str {
        if page == Page::Static {
            "img/"
        } else {
            page.name()
        }
    }

    #[test]
    fn cached_stream_is_zipf_over_the_universe_with_paired_writes() {
        let plan = Plan::generate(spec("cached_mix").unwrap(), 2, POP, 1.0);
        assert_eq!(plan.prefill.ops.len(), PREFILL_URLS);
        for (conn, s) in plan.streams.iter().enumerate() {
            let distinct: HashSet<&str> = s
                .ops
                .iter()
                .filter(|o| !o.page.writes())
                .map(|o| s.target(o))
                .collect();
            assert!(distinct.len() > ZIPF_URLS / 2 && distinct.len() <= ZIPF_URLS);
            let writes: Vec<usize> = (0..s.ops.len())
                .filter(|&i| s.ops[i].page == Page::AdminConfirm)
                .collect();
            assert_eq!(s.ops.len(), STREAM_OPS);
            assert_eq!(writes.len(), (STREAM_OPS + 49) / 100);
            for i in writes {
                let item = param(s.target(&s.ops[i]), "i_id");
                assert_eq!(item as usize % CONNECTIONS, conn);
                let read = &s.ops[i + 1];
                assert_eq!(read.page, Page::ProductDetail);
                assert_eq!(param(s.target(read), "i_id"), item);
                assert!(s.expect(read).unwrap().starts_with("Our price: <b>$1"));
            }
        }
    }

    #[test]
    fn order_sessions_carry_cart_slots_and_own_customers() {
        let plan = Plan::generate(spec("order_mix").unwrap(), 4, POP, 1.0);
        let customers: Vec<u64> = plan
            .streams
            .iter()
            .map(|s| param(s.target(&s.ops[0]), "c_id"))
            .collect();
        assert_ne!(customers[0], customers[1]);
        let s = &plan.streams[0];
        let carts = s.ops.iter().filter(|o| o.page == Page::ShoppingCart);
        for op in carts.take(50) {
            let slot = op.cart_slot.expect("session carts are patched") as usize;
            assert_eq!(&s.request(op)[slot..slot + CART_DIGITS], b"0000000000");
            assert_eq!(&s.request(op)[slot - 6..slot], b"sc_id=");
        }
        let share =
            |p: Page| s.ops.iter().filter(|o| o.page == p).count() as f64 / s.ops.len() as f64;
        assert!((share(Page::ShoppingCart) - 0.30).abs() < 0.01);
        assert!((share(Page::ProductDetail) - 0.15).abs() < 0.01);
    }
}
