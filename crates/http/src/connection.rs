//! A buffered HTTP/1.1 connection supporting staged parsing.

use crate::error::HttpError;
use crate::headers::HeaderMap;
use crate::request::{Request, RequestLine};
use crate::response::Response;
use std::io::{self, IoSlice, Read, Write};
use std::time::{Duration, Instant};

/// Limits applied while parsing incoming requests.
///
/// Beyond the size caps, two *lifecycle budgets* defend against
/// drip-feed (slowloris) clients that a per-read socket timeout cannot
/// catch — one byte every few seconds resets the timeout forever while
/// pinning a parse thread:
///
/// * [`header_deadline`](ParseLimits::header_deadline) bounds the
///   wall-clock time from the first byte of a request to the end of its
///   header block;
/// * [`min_body_rate`](ParseLimits::min_body_rate) (after a
///   [`body_grace`](ParseLimits::body_grace) warm-up) bounds how slowly
///   a body may trickle in.
///
/// Both are off by default so the raw parsing substrate stays
/// timing-free for tests; the servers opt in via their config.
///
/// # Examples
///
/// ```
/// use staged_http::ParseLimits;
///
/// let limits = ParseLimits::default();
/// assert_eq!(limits.max_line, 8192);
/// assert!(limits.header_deadline.is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum length of the request line or any header line, in bytes.
    pub max_line: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum request body size, in bytes.
    pub max_body: usize,
    /// Hard wall-clock deadline for receiving a complete header block,
    /// measured from the first byte of the request (keep-alive think
    /// time between requests does not count). `None` disables.
    pub header_deadline: Option<Duration>,
    /// Minimum sustained body throughput in bytes per second; a body
    /// arriving slower than this (once [`body_grace`](ParseLimits::body_grace)
    /// has elapsed) is treated as a drip-feed attack. `0` disables.
    pub min_body_rate: u64,
    /// Grace period before [`min_body_rate`](ParseLimits::min_body_rate)
    /// is enforced, so a briefly stalled upload is not killed instantly.
    pub body_grace: Duration,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_line: 8192,
            max_headers: 100,
            max_body: 1 << 20,
            header_deadline: None,
            min_body_rate: 0,
            body_grace: Duration::from_millis(500),
        }
    }
}

/// A buffered connection that parses requests **in stages**, so
/// different thread pools can advance the same request:
///
/// 1. [`Connection::read_request_line`] — run by the header-parsing
///    pool to classify the request;
/// 2. [`Connection::read_remaining_headers`] (+
///    [`Connection::read_body`]) — run by the header-parsing pool for
///    dynamic requests, or by a static-pool worker for static ones
///    ("we let the threads which actually serve those static requests
///    parse their headers", paper §3.2);
/// 3. [`Connection::send`] — run by whichever pool finishes the
///    response.
///
/// Works over any `Read + Write` transport; the servers use
/// `TcpStream`, the tests use in-memory streams.
#[derive(Debug)]
pub struct Connection<S> {
    stream: S,
    buf: Vec<u8>,
    pos: usize,
    limits: ParseLimits,
    /// Reusable scratch buffer for serialized response heads, so a
    /// keep-alive connection serializes every response into the same
    /// allocation.
    head_buf: Vec<u8>,
    /// When the first byte of the current request was seen; drives the
    /// header-deadline budget and resets once the header block is
    /// complete.
    header_started: Option<Instant>,
}

impl<S: Read + Write> Connection<S> {
    /// Wraps a transport with default [`ParseLimits`].
    pub fn new(stream: S) -> Self {
        Self::with_limits(stream, ParseLimits::default())
    }

    /// Wraps a transport with explicit limits.
    pub fn with_limits(stream: S, limits: ParseLimits) -> Self {
        Connection {
            stream,
            buf: Vec::with_capacity(4096),
            pos: 0,
            limits,
            head_buf: Vec::new(),
            header_started: None,
        }
    }

    /// Reads and parses the request line (stage 1).
    ///
    /// # Errors
    ///
    /// * [`HttpError::ConnectionClosed`] with `clean: true` if the peer
    ///   closed the connection on a request boundary (normal keep-alive
    ///   termination), `clean: false` mid-line;
    /// * parsing errors from [`RequestLine::parse`];
    /// * [`HttpError::TooLarge`] if the line exceeds `max_line`.
    pub fn read_request_line(&mut self) -> Result<RequestLine, HttpError> {
        let line = self.read_line(true)?;
        RequestLine::parse(&line)
    }

    /// Reads header lines up to the blank line (stage 2).
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] for header lines without `:`,
    /// [`HttpError::TooLarge`] when `max_headers`/`max_line` is
    /// exceeded, or a connection error.
    pub fn read_remaining_headers(&mut self) -> Result<HeaderMap, HttpError> {
        let mut headers = HeaderMap::new();
        loop {
            let line = self.read_line(false)?;
            if line.is_empty() {
                // Header block complete: the deadline budget is settled
                // and the next request starts a fresh clock.
                self.header_started = None;
                return Ok(headers);
            }
            if headers.len() >= self.limits.max_headers {
                return Err(HttpError::TooLarge("header count"));
            }
            let (name, value) = line.split_once(':').ok_or_else(|| {
                HttpError::Malformed(format!("header line without colon: {line}"))
            })?;
            if name.is_empty() || name.contains(' ') {
                return Err(HttpError::Malformed(format!("invalid header name: {name}")));
            }
            headers.insert(name.trim(), value.trim());
        }
    }

    /// Reads a body of exactly `len` bytes (stage 2, POST requests).
    ///
    /// # Errors
    ///
    /// [`HttpError::TooLarge`] if `len` exceeds `max_body`, or
    /// [`HttpError::ConnectionClosed`] if the peer closes early.
    pub fn read_body(&mut self, len: usize) -> Result<Vec<u8>, HttpError> {
        if len > self.limits.max_body {
            return Err(HttpError::TooLarge("request body"));
        }
        let mut body = Vec::with_capacity(len);
        // Drain buffered bytes first.
        let buffered = (self.buf.len() - self.pos).min(len);
        body.extend_from_slice(&self.buf[self.pos..self.pos + buffered]);
        self.pos += buffered;
        self.compact();
        // Then read the remainder directly, holding the peer to the
        // minimum-throughput budget: buffered bytes count as credit, and
        // the grace window keeps briefly stalled uploads alive.
        let started = Instant::now();
        while body.len() < len {
            if self.limits.min_body_rate > 0 {
                let elapsed = started.elapsed();
                if elapsed > self.limits.body_grace {
                    let required = elapsed.as_secs_f64() * self.limits.min_body_rate as f64;
                    if (body.len() as f64) < required {
                        return Err(HttpError::Timeout("request body throughput"));
                    }
                }
            }
            let mut chunk = [0u8; 4096];
            let want = (len - body.len()).min(chunk.len());
            let n = self.stream.read(&mut chunk[..want])?;
            if n == 0 {
                return Err(HttpError::ConnectionClosed { clean: false });
            }
            body.extend_from_slice(&chunk[..n]);
        }
        Ok(body)
    }

    /// Reads one complete request: line, headers, and body (when
    /// `Content-Length` is present). Convenience for the baseline
    /// thread-per-request server and for tests.
    ///
    /// # Errors
    ///
    /// Any staged-parsing error.
    pub fn read_request(&mut self) -> Result<Request, HttpError> {
        let line = self.read_request_line()?;
        let headers = self.read_remaining_headers()?;
        let body = match headers.content_length() {
            Some(len) if len > 0 => self.read_body(len)?,
            _ => Vec::new(),
        };
        Ok(Request::new(line, headers, body))
    }

    /// Serializes and sends a response.
    ///
    /// The head is serialized into a per-connection scratch buffer and
    /// the body is written from its shared slice via one vectored
    /// write, so sending never copies the body and a keep-alive
    /// connection reuses the same head allocation for every response.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    // lint: hot_path — one head serialization + one vectored write per
    // response; the head reuses this connection's scratch buffer.
    pub fn send(&mut self, response: &Response) -> io::Result<()> {
        staged_sync::assert_no_locks_held("Connection::send");
        self.head_buf.clear();
        response.write_head_into(&mut self.head_buf);
        write_all_vectored(&mut self.stream, &self.head_buf, response.body())?;
        self.stream.flush()
    }
    // lint: end_hot_path

    /// Sends a response appropriately for the request method: `HEAD`
    /// gets status and headers (with the true `Content-Length`) but no
    /// body.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send_for_method(
        &mut self,
        method: crate::method::Method,
        response: &Response,
    ) -> io::Result<()> {
        if method.expects_response_body() {
            self.send(response)
        } else {
            staged_sync::assert_no_locks_held("Connection::send_for_method");
            self.head_buf.clear();
            response.write_head_into(&mut self.head_buf);
            self.stream.write_all(&self.head_buf)?;
            self.stream.flush()
        }
    }

    /// Returns the wrapped transport, discarding any buffered input.
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Mutable access to the transport (e.g. to set socket options).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Reads one CRLF- (or LF-) terminated line, without the terminator.
    /// `at_boundary` marks reads that begin a new request, where EOF
    /// before any byte is a *clean* close.
    fn read_line(&mut self, at_boundary: bool) -> Result<String, HttpError> {
        let mut scanned = self.pos;
        if self.header_started.is_none() && self.buf.len() > self.pos {
            // Pipelined bytes of the next request are already buffered;
            // its deadline clock starts now.
            self.header_started = Some(Instant::now());
        }
        loop {
            if let Some(nl) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                let end = scanned + nl;
                let mut line_end = end;
                if line_end > self.pos && self.buf[line_end - 1] == b'\r' {
                    line_end -= 1;
                }
                if line_end - self.pos > self.limits.max_line {
                    return Err(HttpError::TooLarge("request line or header line"));
                }
                let line = String::from_utf8_lossy(&self.buf[self.pos..line_end]).into_owned();
                self.pos = end + 1;
                self.compact();
                return Ok(line);
            }
            scanned = self.buf.len();
            if self.buf.len() - self.pos > self.limits.max_line {
                return Err(HttpError::TooLarge("request line or header line"));
            }
            // About to block for more bytes: a fully buffered line always
            // parses, but a peer that still owes us header bytes is held
            // to the wall-clock deadline.
            if let (Some(deadline), Some(started)) =
                (self.limits.header_deadline, self.header_started)
            {
                if started.elapsed() >= deadline {
                    return Err(HttpError::Timeout("header block"));
                }
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                let clean = at_boundary && self.pos == self.buf.len();
                return Err(HttpError::ConnectionClosed { clean });
            }
            if self.header_started.is_none() {
                self.header_started = Some(Instant::now());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Drops consumed bytes once the buffer gets large, keeping pipelined
    /// request data intact.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 8192 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Writes `head` then `body` completely, using vectored writes while
/// both slices have bytes left so head and body usually leave in one
/// syscall without ever being joined in memory.
// lint: hot_path — the zero-copy send loop: slices only, no buffers.
fn write_all_vectored<W: Write>(writer: &mut W, head: &[u8], body: &[u8]) -> io::Result<()> {
    let mut head_off = 0;
    let mut body_off = 0;
    while head_off < head.len() {
        let slices = [IoSlice::new(&head[head_off..]), IoSlice::new(body)];
        let n = if body.is_empty() {
            writer.write(&head[head_off..])?
        } else {
            writer.write_vectored(&slices)?
        };
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        let from_head = n.min(head.len() - head_off);
        head_off += from_head;
        body_off += n - from_head;
    }
    while body_off < body.len() {
        let n = writer.write(&body[body_off..])?;
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        body_off += n;
    }
    Ok(())
}
// lint: end_hot_path

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use std::io::Cursor;

    /// An in-memory duplex transport for tests.
    #[derive(Debug)]
    struct MockStream {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl MockStream {
        fn new(input: &str) -> Self {
            MockStream {
                input: Cursor::new(input.as_bytes().to_vec()),
                output: Vec::new(),
            }
        }
    }

    impl Read for MockStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for MockStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn staged_parse_of_paper_request() {
        let raw = "GET /homepage?userid=5&popups=no HTTP/1.1\r\n\
                   User-Agent: Mozilla/1.7\r\n\
                   Accept: text/html\r\n\
                   \r\n";
        let mut conn = Connection::new(MockStream::new(raw));
        let line = conn.read_request_line().unwrap();
        assert_eq!(line.method, Method::Get);
        assert!(!line.is_static());
        let headers = conn.read_remaining_headers().unwrap();
        assert_eq!(headers.get("user-agent"), Some("Mozilla/1.7"));
        assert_eq!(headers.get("accept"), Some("text/html"));
    }

    #[test]
    fn full_request_with_body() {
        let raw = "POST /buy HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut conn = Connection::new(MockStream::new(raw));
        let req = conn.read_request().unwrap();
        assert_eq!(req.method(), Method::Post);
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut conn = Connection::new(MockStream::new(raw));
        assert_eq!(conn.read_request().unwrap().path(), "/a");
        assert_eq!(conn.read_request().unwrap().path(), "/b");
        match conn.read_request() {
            Err(HttpError::ConnectionClosed { clean: true }) => {}
            other => panic!("expected clean close, got {other:?}"),
        }
    }

    #[test]
    fn bare_lf_tolerated() {
        let raw = "GET / HTTP/1.1\nHost: x\n\n";
        let mut conn = Connection::new(MockStream::new(raw));
        let req = conn.read_request().unwrap();
        assert_eq!(req.headers.get("host"), Some("x"));
    }

    #[test]
    fn truncated_request_is_unclean_close() {
        let mut conn = Connection::new(MockStream::new("GET / HT"));
        match conn.read_request_line() {
            Err(HttpError::ConnectionClosed { clean: false }) => {}
            other => panic!("expected unclean close, got {other:?}"),
        }
    }

    #[test]
    fn header_without_colon_is_malformed() {
        let raw = "GET / HTTP/1.1\r\nBadHeader\r\n\r\n";
        let mut conn = Connection::new(MockStream::new(raw));
        conn.read_request_line().unwrap();
        assert!(matches!(
            conn.read_remaining_headers(),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_line_rejected() {
        let limits = ParseLimits {
            max_line: 16,
            ..ParseLimits::default()
        };
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        let mut conn = Connection::with_limits(MockStream::new(&raw), limits);
        assert!(matches!(
            conn.read_request_line(),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn too_many_headers_rejected() {
        let limits = ParseLimits {
            max_headers: 2,
            ..ParseLimits::default()
        };
        let raw = "GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n";
        let mut conn = Connection::with_limits(MockStream::new(raw), limits);
        conn.read_request_line().unwrap();
        assert!(matches!(
            conn.read_remaining_headers(),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn oversized_body_rejected() {
        let limits = ParseLimits {
            max_body: 4,
            ..ParseLimits::default()
        };
        let raw = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789";
        let mut conn = Connection::with_limits(MockStream::new(raw), limits);
        assert!(matches!(conn.read_request(), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn truncated_body_is_unclean_close() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let mut conn = Connection::new(MockStream::new(raw));
        assert!(matches!(
            conn.read_request(),
            Err(HttpError::ConnectionClosed { clean: false })
        ));
    }

    #[test]
    fn send_writes_serialized_response() {
        let mut conn = Connection::new(MockStream::new(""));
        conn.send(&Response::text("ok")).unwrap();
        let out = String::from_utf8(conn.into_inner().output).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(out.ends_with("\r\n\r\nok"));
    }

    /// A writer that accepts at most `cap` bytes per call, to exercise
    /// the partial-write advance logic in `write_all_vectored`.
    struct Trickle {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            let mut left = self.cap;
            let mut written = 0;
            for b in bufs {
                let n = b.len().min(left);
                self.out.extend_from_slice(&b[..n]);
                written += n;
                left -= n;
                if left == 0 {
                    break;
                }
            }
            Ok(written)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_send_survives_partial_writes() {
        let response = Response::html("0123456789".repeat(10));
        let expected = response.to_bytes();
        for cap in [1, 3, 7, 64, 4096] {
            let mut w = Trickle {
                out: Vec::new(),
                cap,
            };
            let mut head = Vec::new();
            response.write_head_into(&mut head);
            write_all_vectored(&mut w, &head, response.body()).unwrap();
            assert_eq!(w.out, expected, "cap {cap}");
        }
    }

    #[test]
    fn vectored_send_empty_body() {
        let response = Response::redirect("/next");
        let mut w = Trickle {
            out: Vec::new(),
            cap: 5,
        };
        let mut head = Vec::new();
        response.write_head_into(&mut head);
        write_all_vectored(&mut w, &head, response.body()).unwrap();
        assert_eq!(w.out, response.to_bytes());
    }

    #[test]
    fn body_spanning_buffer_and_stream() {
        // Force the body to arrive partly in the header read's buffer.
        let raw = "POST / HTTP/1.1\r\nContent-Length: 8\r\n\r\nabcdefgh";
        let mut conn = Connection::new(MockStream::new(raw));
        let req = conn.read_request().unwrap();
        assert_eq!(req.body, b"abcdefgh");
    }

    /// A transport that delivers one byte per read after a fixed delay —
    /// the slowloris access pattern: each read succeeds quickly enough
    /// to defeat any per-read socket timeout.
    struct DripStream {
        data: Vec<u8>,
        idx: usize,
        delay: Duration,
    }

    impl DripStream {
        fn new(data: impl Into<Vec<u8>>, delay: Duration) -> Self {
            DripStream {
                data: data.into(),
                idx: 0,
                delay,
            }
        }
    }

    impl Read for DripStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.idx >= self.data.len() {
                return Ok(0);
            }
            std::thread::sleep(self.delay);
            buf[0] = self.data[self.idx];
            self.idx += 1;
            Ok(1)
        }
    }

    impl Write for DripStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn header_deadline_kills_drip_feed() {
        let limits = ParseLimits {
            header_deadline: Some(Duration::from_millis(40)),
            ..ParseLimits::default()
        };
        // A request line that never completes, dripped a byte at a time.
        let raw = format!("GET /{}", "a".repeat(500));
        let mut conn =
            Connection::with_limits(DripStream::new(raw, Duration::from_millis(5)), limits);
        let start = Instant::now();
        match conn.read_request_line() {
            Err(HttpError::Timeout("header block")) => {}
            other => panic!("expected header-block timeout, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "drip client must be evicted near the deadline, not after the full drip"
        );
    }

    #[test]
    fn buffered_headers_parse_despite_expired_deadline() {
        // The deadline is only consulted when the parser must block for
        // more bytes — a fully arrived request always parses, however
        // long it sat queued before a worker picked it up.
        let limits = ParseLimits {
            header_deadline: Some(Duration::ZERO),
            ..ParseLimits::default()
        };
        let raw = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut conn = Connection::with_limits(MockStream::new(raw), limits);
        let req = conn.read_request().unwrap();
        assert_eq!(req.path(), "/");
    }

    #[test]
    fn header_deadline_spans_staged_parsing() {
        // Stage 1 reads the request line; the same budget covers the
        // remaining headers dripped afterwards. The 16-byte request line
        // drips in 32 ms, well inside the budget even on a loaded
        // machine; the 507 header bytes after it need over 1 s.
        let limits = ParseLimits {
            header_deadline: Some(Duration::from_millis(200)),
            ..ParseLimits::default()
        };
        let raw = format!("GET / HTTP/1.1\r\nX-Pad: {}", "b".repeat(500));
        let mut conn =
            Connection::with_limits(DripStream::new(raw, Duration::from_millis(2)), limits);
        conn.read_request_line().unwrap();
        match conn.read_remaining_headers() {
            Err(HttpError::Timeout("header block")) => {}
            other => panic!("expected header-block timeout, got {other:?}"),
        }
    }

    #[test]
    fn deadline_clock_resets_between_requests() {
        let limits = ParseLimits {
            header_deadline: Some(Duration::from_millis(30)),
            ..ParseLimits::default()
        };
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut conn = Connection::with_limits(MockStream::new(raw), limits);
        assert_eq!(conn.read_request().unwrap().path(), "/a");
        std::thread::sleep(Duration::from_millis(40));
        // The first request's elapsed time must not be charged to the
        // second one.
        assert_eq!(conn.read_request().unwrap().path(), "/b");
    }

    #[test]
    fn min_body_rate_kills_trickled_body() {
        let limits = ParseLimits {
            min_body_rate: 10_000,
            body_grace: Duration::from_millis(20),
            ..ParseLimits::default()
        };
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: 500\r\n\r\n{}",
            "c".repeat(500)
        );
        let mut conn =
            Connection::with_limits(DripStream::new(raw, Duration::from_millis(5)), limits);
        match conn.read_request() {
            Err(HttpError::Timeout("request body throughput")) => {}
            other => panic!("expected body-throughput timeout, got {other:?}"),
        }
    }

    #[test]
    fn fast_body_passes_min_rate() {
        let limits = ParseLimits {
            min_body_rate: 1_000,
            ..ParseLimits::default()
        };
        let raw = "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut conn = Connection::with_limits(MockStream::new(raw), limits);
        assert_eq!(conn.read_request().unwrap().body, b"hello");
    }
}
