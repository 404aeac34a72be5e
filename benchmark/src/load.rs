//! The load generator: one thread per keep-alive connection, each
//! walking its own pre-built stream — back to back in the closed
//! phase, on its own Poisson schedule in the open phase.

use crate::client::{Client, Failure};
use crate::oracle::Check;
use crate::procfs;
use crate::stats::{median, percentile};
use crate::workload::{Op, Page, Stream, CART_DIGITS};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Operations attempted and failed (non-2xx, transport error, framing
/// or body mismatch).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// How many failures are described on stderr before only counting.
const FAILURES_SHOWN: u64 = 5;

/// One connection's generator state: the socket, the position in its
/// stream, and its ordering session's cart.
pub struct Session<'a> {
    client: Client,
    addr: SocketAddr,
    stream: &'a Stream,
    cursor: usize,
    /// The session's current cart id (0: none yet).
    cart: u64,
    patched: Vec<u8>,
    tally: Tally,
}

impl<'a> Session<'a> {
    pub fn connect(addr: SocketAddr, stream: &'a Stream) -> Session<'a> {
        Session {
            client: Client::connect(addr).expect("the server accepts connections"),
            addr,
            stream,
            cursor: 0,
            cart: 0,
            patched: Vec::with_capacity(512),
            tally: Tally::default(),
        }
    }

    /// Sends the next operation of the stream (wrapping around at its
    /// end) and checks its response.
    pub fn step(&mut self) -> (Page, bool) {
        let stream = self.stream;
        let op = &stream.ops[self.cursor % stream.ops.len()];
        self.cursor += 1;
        (op.page, self.send(op, None))
    }

    /// Sends one operation; `true` when the response is a well-framed
    /// 2xx that also meets the operation's own expectation.
    fn send(&mut self, op: &Op, exact_body: Option<&[u8]>) -> bool {
        self.tally.attempted += 1;
        let stream = self.stream;
        let request = match op.cart_slot {
            None => stream.request(op),
            Some(slot) => {
                patch_cart(&mut self.patched, stream.request(op), slot, self.cart);
                &self.patched
            }
        };
        let outcome = self.client.exchange(request).and_then(|()| {
            let body = self.client.body();
            // The prologue compares whole bodies on a pristine database,
            // where a freshness read's write has not happened yet.
            if let Some(exact) = exact_body {
                if body != exact {
                    return Err(Failure::Framing("body differs from the oracle's"));
                }
            } else if let Some(marker) = stream.expect(op) {
                if !contains(body, marker.as_bytes()) {
                    return Err(Failure::Framing("stale body after a write"));
                }
            }
            Ok(())
        });
        match outcome {
            Ok(()) => {
                self.cart = cart_after(op, self.client.body(), self.cart);
                true
            }
            Err(failure) => {
                self.tally.failed += 1;
                if self.tally.failed <= FAILURES_SHOWN {
                    eprintln!("FAILED {}: {failure:?}", stream.target(op));
                }
                // After a transport or framing error the connection is
                // out of step, and the server closes it after a shed;
                // every failure starts over on a fresh one.
                if let Ok(client) = Client::connect(self.addr) {
                    self.client = client;
                }
                false
            }
        }
    }

    /// The operations counted since the last call (every phase ends by
    /// collecting them, so each phase reports its own).
    fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }

    /// Closes the connection and opens a fresh one; the position in the
    /// stream and the session's cart carry over.
    pub fn reconnect(&mut self) {
        self.client = Client::connect(self.addr).expect("the server accepts connections");
    }

    /// Issues `GET target` outside the stream (metrics scrapes); the
    /// body as text, or `None` on any failure. Not tallied: scrapes are
    /// not operations of the workload.
    pub fn get(&mut self, target: &str) -> Option<String> {
        let request =
            format!("GET {target} HTTP/1.1\r\nHost: bench.local\r\nConnection: keep-alive\r\n\r\n");
        self.client
            .exchange(request.as_bytes())
            .ok()
            .map(|()| String::from_utf8_lossy(self.client.body()).into_owned())
    }
}

/// Copies `request` into `out` with the session's cart id written over
/// the ten-digit `sc_id` field at `slot`.
pub fn patch_cart(out: &mut Vec<u8>, request: &[u8], slot: u16, cart: u64) {
    out.clear();
    out.extend_from_slice(request);
    let mut rest = cart;
    for digit in out[usize::from(slot)..][..CART_DIGITS].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
}

/// The session's cart id after `op` was answered with `body`: learned
/// from a shopping-cart page, dropped once the order is placed (the
/// server emptied the cart; the next visit starts a new one).
pub fn cart_after(op: &Op, body: &[u8], cart: u64) -> u64 {
    match (op.cart_slot, op.page) {
        (Some(_), Page::ShoppingCart) => cart_id(body).unwrap_or(cart),
        (Some(_), Page::BuyConfirm) => 0,
        _ => cart,
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// The server-assigned cart id a shopping-cart page carries in its
/// hidden form field.
fn cart_id(body: &[u8]) -> Option<u64> {
    const FIELD: &[u8] = b"name=\"sc_id\" value=\"";
    let at = body.windows(FIELD.len()).position(|w| w == FIELD)? + FIELD.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
        .filter(|&id| id > 0)
}

/// Runs the verification prologue over one connection per stream.
pub fn verify(addr: SocketAddr, streams: &[Stream], checks: &[Check]) -> Tally {
    let mut sessions: Vec<Session> = streams.iter().map(|s| Session::connect(addr, s)).collect();
    for check in checks {
        let op = &streams[check.conn].ops[check.op];
        sessions[check.conn].send(op, check.body.as_deref());
    }
    collect_tallies(&mut sessions)
}

fn collect_tallies(sessions: &mut [Session]) -> Tally {
    let mut tally = Tally::default();
    for session in sessions {
        tally.add(session.take_tally());
    }
    tally
}

/// What the closed phase measured.
#[derive(Debug, Default)]
pub struct Closed {
    pub tally: Tally,
    /// Verified-OK responses per second, one value per segment.
    pub req_per_s: Vec<f64>,
    /// Process CPU milliseconds per verified-OK response, per segment.
    pub cpu_ms_per_req: Vec<f64>,
    /// OK responses over all segments, and the sum of their latencies.
    pub ok: u64,
    pub latency_sum: Duration,
    /// Per page: OK latencies in nanoseconds (only when asked for).
    pub page_latencies: Vec<(Page, Vec<u32>)>,
    /// Requests sent to writing pages.
    pub writes: u64,
}

/// What one generator thread brings back from the closed phase.
struct ClosedPart {
    ok_per_segment: Vec<u64>,
    latency_sum: Duration,
    page_latencies: Vec<Vec<u32>>,
    writes: u64,
}

/// Closed loop: every connection sends its next request as soon as the
/// previous response is verified, for `segments × segment`.
pub fn closed(
    sessions: &mut [Session],
    segments: usize,
    segment: Duration,
    per_page: bool,
) -> Closed {
    let barrier = Barrier::new(sessions.len() + 1);
    let (parts, cpu_marks) = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .map(|session| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut part = ClosedPart {
                        ok_per_segment: vec![0; segments],
                        latency_sum: Duration::ZERO,
                        page_latencies: vec![Vec::new(); Page::ALL.len()],
                        writes: 0,
                    };
                    barrier.wait();
                    let started = Instant::now();
                    let mut sent = started;
                    loop {
                        let (page, ok) = session.step();
                        let done = Instant::now();
                        let at = (done - started).as_nanos() / segment.as_nanos();
                        if at >= segments as u128 {
                            // Finished after the phase ended: counted
                            // as attempted, not in any segment.
                            break;
                        }
                        part.writes += u64::from(page.writes());
                        if ok {
                            let latency = done - sent;
                            part.ok_per_segment[at as usize] += 1;
                            part.latency_sum += latency;
                            if per_page {
                                part.page_latencies[page as usize]
                                    .push(latency.as_nanos().min(u128::from(u32::MAX)) as u32);
                            }
                        }
                        sent = done;
                    }
                    part
                })
            })
            .collect();
        // This thread only wakes at segment boundaries to read the
        // process's CPU clock.
        barrier.wait();
        let started = Instant::now();
        let mut cpu_marks = vec![procfs::cpu_seconds()];
        for k in 1..=segments {
            let boundary = started + segment * k as u32;
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            cpu_marks.push(procfs::cpu_seconds());
        }
        let parts: Vec<ClosedPart> = handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect();
        (parts, cpu_marks)
    });

    let mut result = Closed {
        tally: collect_tallies(sessions),
        ..Closed::default()
    };
    for k in 0..segments {
        let ok: u64 = parts.iter().map(|p| p.ok_per_segment[k]).sum();
        result.ok += ok;
        result.req_per_s.push(ok as f64 / segment.as_secs_f64());
        let cpu_ms = (cpu_marks[k + 1] - cpu_marks[k]) * 1e3;
        result.cpu_ms_per_req.push(cpu_ms / ok.max(1) as f64);
    }
    for page in Page::ALL {
        let mut all: Vec<u32> = parts
            .iter()
            .flat_map(|p| p.page_latencies[page as usize].iter().copied())
            .collect();
        if !all.is_empty() {
            all.sort_unstable();
            result.page_latencies.push((page, all));
        }
    }
    result.latency_sum = parts.iter().map(|p| p.latency_sum).sum();
    result.writes = parts.iter().map(|p| p.writes).sum();
    result
}

/// What the open phase measured.
#[derive(Debug, Default)]
pub struct Open {
    pub tally: Tally,
    /// The phase cut into equal windows by intended send time; in each,
    /// the latency of every OK response from its *intended* send time,
    /// ascending, in nanoseconds.
    pub windows: Vec<Vec<u64>>,
    /// Requests answered correctly within the latency limit.
    pub within_slo: u64,
    /// How late the generator itself sent a request whose connection
    /// was free when it fell due, ascending, in nanoseconds.
    pub lateness: Vec<u64>,
    /// Most requests due but not yet sent on one connection.
    pub backlog_max: usize,
}

impl Open {
    /// Latency samples over all windows.
    pub fn samples(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// The `p`-th latency percentile in milliseconds: the median over
    /// the windows of each window's percentile. A stall of the machine
    /// inflates the tail of the window it falls in, not the reported
    /// figure; a tail the *server* produces shows in every window.
    /// (`slo_ok_ratio` still counts every request, stalls included.)
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, p) as f64 / 1e6)
            .collect();
        if per_window.is_empty() {
            0.0
        } else {
            median(&per_window)
        }
    }

    /// 99th percentile of the generator's own lateness, in milliseconds.
    pub fn late_p99_ms(&self) -> f64 {
        if self.lateness.is_empty() {
            0.0
        } else {
            percentile(&self.lateness, 99.0) as f64 / 1e6
        }
    }
}

/// One connection's share of the open phase.
#[derive(Debug, Default)]
struct OpenPart {
    /// Requests that were never sent.
    unsent: Tally,
    /// `(intended offset, latency)` of every OK response, nanoseconds.
    timed: Vec<(u64, u64)>,
    within_slo: u64,
    lateness: Vec<u64>,
    backlog_max: usize,
}

/// Open loop: each connection sends request `i` of its schedule at
/// `start + due[i]`, or as soon after as its previous response allows,
/// and times it from `start + due[i]` either way — a request that waits
/// behind a stalled one pays for the stall (no coordinated omission).
/// Requests still unsent `grace` after the schedule's end are counted
/// as attempted and failed.
pub fn open(
    sessions: &mut [Session],
    schedules: &[Vec<u64>],
    slo: Duration,
    grace: Duration,
    windows: usize,
) -> Open {
    let barrier = Barrier::new(sessions.len());
    let parts: Vec<OpenPart> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(schedules)
            .map(|(session, due)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    open_connection(session, due, Instant::now(), slo, grace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect()
    });
    let span = schedules
        .iter()
        .filter_map(|due| due.last())
        .max()
        .map_or(1, |last| last + 1);
    let mut result = Open {
        tally: collect_tallies(sessions),
        windows: vec![Vec::new(); windows],
        ..Open::default()
    };
    for part in parts {
        result.tally.add(part.unsent);
        for (offset, latency) in part.timed {
            let window = (u128::from(offset) * windows as u128 / u128::from(span)) as usize;
            result.windows[window].push(latency);
        }
        result.lateness.extend(part.lateness);
        result.within_slo += part.within_slo;
        result.backlog_max = result.backlog_max.max(part.backlog_max);
    }
    for window in &mut result.windows {
        window.sort_unstable();
    }
    result.lateness.sort_unstable();
    result
}

fn open_connection(
    session: &mut Session,
    due: &[u64],
    start: Instant,
    slo: Duration,
    grace: Duration,
) -> OpenPart {
    let mut part = OpenPart {
        timed: Vec::with_capacity(due.len()),
        lateness: Vec::with_capacity(due.len()),
        ..OpenPart::default()
    };
    let give_up = start + Duration::from_nanos(due.last().copied().unwrap_or(0)) + grace;
    let mut next_due = 0;
    for (i, &offset) in due.iter().enumerate() {
        let intended = start + Duration::from_nanos(offset);
        let mut now = Instant::now();
        if now > give_up {
            let unsent = (due.len() - i) as u64;
            part.unsent = Tally {
                attempted: unsent,
                failed: unsent,
            };
            break;
        }
        if now < intended {
            std::thread::sleep(intended - now);
            now = Instant::now();
            part.lateness.push((now - intended).as_nanos() as u64);
        }
        while next_due < due.len() && start + Duration::from_nanos(due[next_due]) <= now {
            next_due += 1;
        }
        part.backlog_max = part.backlog_max.max(next_due - i - 1);
        let (_, ok) = session.step();
        if ok {
            let latency = intended.elapsed();
            part.timed.push((offset, latency.as_nanos() as u64));
            part.within_slo += u64::from(latency <= slo);
        }
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, Plan, Population};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn cart_slot_is_overwritten_with_zero_padded_digits() {
        let mut out = Vec::new();
        patch_cart(&mut out, b"GET /x?sc_id=0000000000&q=1", 13, 4_207);
        assert_eq!(out, b"GET /x?sc_id=0000004207&q=1");
    }

    #[test]
    fn cart_ids_are_learned_from_the_hidden_field() {
        let body = b"<form><input type=\"hidden\" name=\"sc_id\" value=\"1234\"></form>";
        assert_eq!(cart_id(body), Some(1234));
        assert_eq!(cart_id(b"name=\"sc_id\" value=\"0\""), None);
        assert_eq!(cart_id(b"no cart here"), None);
    }

    /// A one-connection HTTP server that answers every request at once,
    /// except that it sleeps `stall` before answering request number
    /// `stall_at`.
    fn stub_server(stall_at: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let mut pending = Vec::new();
            let mut served = 0;
            loop {
                match socket.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => pending.extend_from_slice(&buf[..n]),
                }
                while let Some(end) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                    pending.drain(..end + 4);
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    if socket
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                        .is_err()
                    {
                        return;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn open_loop_latency_counts_from_the_intended_send_time() {
        // 50 requests, one every 10 ms; the server stalls 100 ms on the
        // 10th. A generator that timed from the actual send would see
        // one slow request; timed from the intended send, the requests
        // that fell due during the stall are slow too.
        let pop = Population {
            items: 100,
            customers: 288,
            images: 20,
        };
        let plan = Plan::generate(spec("quick_pages").unwrap(), 1, pop, 0.1);
        let addr = stub_server(10, Duration::from_millis(100));
        let mut session = Session::connect(addr, &plan.streams[0]);
        let due: Vec<u64> = (0..50).map(|i| i * 10_000_000).collect();
        let part = open_connection(
            &mut session,
            &due,
            Instant::now(),
            Duration::from_millis(20),
            Duration::from_secs(5),
        );
        assert_eq!(
            session.take_tally(),
            Tally {
                attempted: 50,
                failed: 0
            }
        );
        assert_eq!(part.timed.len(), 50);
        let slow = part
            .timed
            .iter()
            .filter(|&&(_, ns)| ns > 30_000_000)
            .count();
        assert!(slow >= 6, "only {slow} requests paid for the stall");
        assert!(part.backlog_max >= 5, "backlog {}", part.backlog_max);
        assert!(part.within_slo <= 44);
        // Requests that found the connection busy have no lateness of
        // the generator's own to report.
        assert!(part.lateness.len() <= 44);
    }
}
