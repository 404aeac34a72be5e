//! HTTP responses and their serialization.

use crate::body::Body;
use crate::headers::HeaderMap;
use crate::status::StatusCode;
use std::fmt;
use std::io::{self, Write};

/// An HTTP response under construction.
///
/// `Content-Length` is computed from the body at serialization time —
/// the paper highlights that its render pool "measures the size of the
/// output \[and\] is able to set the Content-Length HTTP response header
/// appropriately, which cannot be achieved by most existing methods in
/// dynamic content generation" (§3.2). Serializing only after the body
/// is complete gives the same guarantee.
///
/// The body is a [`Body`] — an `Arc`-shared slice — so building a
/// response from an already-shared page (a cached render, a static
/// file) costs a reference-count bump, not a copy.
///
/// # Examples
///
/// ```
/// use staged_http::{Response, StatusCode};
///
/// let r = Response::html("<html></html>");
/// assert_eq!(r.status(), StatusCode::OK);
/// let bytes = r.to_bytes();
/// let text = String::from_utf8(bytes).unwrap();
/// assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
/// assert!(text.contains("Content-Length: 13\r\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    status: StatusCode,
    headers: HeaderMap,
    body: Body,
}

impl Response {
    /// Creates an empty response with the given status.
    pub fn new(status: StatusCode) -> Self {
        Response {
            status,
            headers: HeaderMap::new(),
            body: Body::empty(),
        }
    }

    /// A `200 OK` response with an HTML body.
    pub fn html(body: impl Into<Body>) -> Self {
        let mut r = Response::new(StatusCode::OK);
        r.headers.set("Content-Type", "text/html; charset=utf-8");
        r.body = body.into();
        r
    }

    /// A `200 OK` response with a plain-text body.
    pub fn text(body: impl Into<Body>) -> Self {
        let mut r = Response::new(StatusCode::OK);
        r.headers.set("Content-Type", "text/plain; charset=utf-8");
        r.body = body.into();
        r
    }

    /// A `200 OK` response with an explicit content type.
    pub fn with_content_type(content_type: &str, body: impl Into<Body>) -> Self {
        let mut r = Response::new(StatusCode::OK);
        r.headers.set("Content-Type", content_type);
        r.body = body.into();
        r
    }

    /// A `200 OK` Prometheus text-exposition response (format version
    /// 0.0.4, the content type scrapers negotiate for plain text).
    pub fn metrics_text(body: impl Into<Body>) -> Self {
        Response::with_content_type("text/plain; version=0.0.4; charset=utf-8", body)
    }

    /// A minimal error-page response for the given status.
    pub fn error(status: StatusCode) -> Self {
        let mut r = Response::new(status);
        r.headers.set("Content-Type", "text/html; charset=utf-8");
        r.body = format!(
            "<html><head><title>{status}</title></head><body><h1>{status}</h1></body></html>"
        )
        .into();
        r
    }

    /// A `302 Found` redirect to `location`.
    pub fn redirect(location: &str) -> Self {
        let mut r = Response::new(StatusCode::FOUND);
        r.headers.set("Location", location);
        r
    }

    /// The response status.
    pub fn status(&self) -> StatusCode {
        self.status
    }

    /// Replaces the status (e.g. a readiness payload flipping between
    /// `200` and `503` with an identical body).
    pub fn set_status(&mut self, status: StatusCode) {
        self.status = status;
    }

    /// Mutable access to the headers.
    pub fn headers_mut(&mut self) -> &mut HeaderMap {
        &mut self.headers
    }

    /// The headers.
    pub fn headers(&self) -> &HeaderMap {
        &self.headers
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Marks the connection to close after this response.
    pub fn set_close(&mut self) {
        self.headers.set("Connection", "close");
    }

    /// Exact size in bytes of the serialized head (status line, headers,
    /// computed `Content-Length`, terminating blank line).
    // lint: hot_path — sizing pass runs per response; pure arithmetic.
    pub fn head_len(&self) -> usize {
        // "HTTP/1.1 {code} {reason}\r\n"
        let mut n = 9 + dec_len(self.status.as_u16() as usize) + 1 + self.status.reason().len() + 2;
        for (name, value) in self.headers.iter() {
            n += name.len() + 2 + value.len() + 2;
        }
        if !self.headers.contains("content-length") {
            n += "Content-Length: ".len() + dec_len(self.body.len()) + 2;
        }
        n + 2
    }

    /// Appends the serialized head to `out`, reserving exactly the bytes
    /// it needs ([`Response::head_len`]) up front.
    pub fn write_head_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.head_len());
        // `write!` to a Vec cannot fail and, with the reserve above,
        // cannot reallocate.
        write!(
            out,
            "HTTP/1.1 {} {}\r\n",
            self.status.as_u16(),
            self.status.reason()
        )
        .expect("writing to a Vec cannot fail");
        for (name, value) in self.headers.iter() {
            write!(out, "{name}: {value}\r\n").expect("writing to a Vec cannot fail");
        }
        if !self.headers.contains("content-length") {
            write!(out, "Content-Length: {}\r\n", self.body.len())
                .expect("writing to a Vec cannot fail");
        }
        out.extend_from_slice(b"\r\n");
    }
    // lint: end_hot_path

    /// Serializes the status line, headers (with computed
    /// `Content-Length`), and body into one exactly-sized buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.head_len() + self.body.len());
        self.write_head_into(&mut out);
        out.extend_from_slice(&self.body);
        out
    }

    /// Streams the serialized response into `writer`. A `&mut W` also
    /// works, since `Write` is implemented for mutable references.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `writer`.
    pub fn write_to<W: Write>(&self, mut writer: W) -> io::Result<()> {
        let mut head = Vec::new();
        self.write_head_into(&mut head);
        writer.write_all(&head)?;
        writer.write_all(&self.body)?;
        writer.flush()
    }

    /// Body length in bytes — the value `Content-Length` will carry.
    pub fn content_length(&self) -> usize {
        self.body.len()
    }
}

/// Number of decimal digits in `n` (1 for 0).
fn dec_len(mut n: usize) -> usize {
    let mut digits = 1;
    while n >= 10 {
        n /= 10;
        digits += 1;
    }
    digits
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} byte body)", self.status, self.body.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(r: &Response) -> String {
        String::from_utf8(r.to_bytes()).unwrap()
    }

    #[test]
    fn html_response_shape() {
        let r = Response::html("<p>hi</p>");
        let s = render(&r);
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Type: text/html; charset=utf-8\r\n"));
        assert!(s.contains("Content-Length: 9\r\n"));
        assert!(s.ends_with("\r\n\r\n<p>hi</p>"));
    }

    #[test]
    fn explicit_content_length_not_duplicated() {
        let mut r = Response::text("abc");
        r.headers_mut().set("Content-Length", "3");
        let s = render(&r);
        assert_eq!(s.matches("Content-Length").count(), 1);
    }

    #[test]
    fn error_page_mentions_status() {
        let r = Response::error(StatusCode::NOT_FOUND);
        assert_eq!(r.status(), StatusCode::NOT_FOUND);
        let s = render(&r);
        assert!(s.contains("404 Not Found"));
    }

    #[test]
    fn redirect_sets_location() {
        let r = Response::redirect("/login");
        assert_eq!(r.status(), StatusCode::FOUND);
        assert_eq!(r.headers().get("location"), Some("/login"));
    }

    #[test]
    fn set_close_header() {
        let mut r = Response::text("x");
        r.set_close();
        assert_eq!(r.headers().get("connection"), Some("close"));
    }

    #[test]
    fn empty_body_has_zero_length() {
        let r = Response::new(StatusCode::OK);
        assert_eq!(r.content_length(), 0);
        assert!(render(&r).contains("Content-Length: 0\r\n"));
    }

    #[test]
    fn write_to_accepts_mut_ref() {
        let r = Response::text("y");
        let mut buf = Vec::new();
        r.write_to(&mut buf).unwrap();
        assert!(!buf.is_empty());
    }

    #[test]
    fn head_len_is_exact() {
        let mut r = Response::html("<p>exact</p>");
        r.headers_mut().set("X-Custom", "value");
        let mut head = Vec::new();
        r.write_head_into(&mut head);
        assert_eq!(head.len(), r.head_len());
        // to_bytes allocates exactly once at the right size.
        let bytes = r.to_bytes();
        assert_eq!(bytes.capacity(), r.head_len() + r.content_length());
        assert_eq!(bytes.len(), bytes.capacity());
    }

    #[test]
    fn head_len_exact_with_explicit_content_length() {
        let mut r = Response::text("abc");
        r.headers_mut().set("Content-Length", "3");
        let mut head = Vec::new();
        r.write_head_into(&mut head);
        assert_eq!(head.len(), r.head_len());
    }

    #[test]
    fn dec_len_digit_counts() {
        assert_eq!(dec_len(0), 1);
        assert_eq!(dec_len(9), 1);
        assert_eq!(dec_len(10), 2);
        assert_eq!(dec_len(999), 3);
        assert_eq!(dec_len(1000), 4);
        assert_eq!(dec_len(usize::MAX), usize::MAX.to_string().len());
    }
}
