//! A minimal blocking HTTP/1.1 client, used by the workload generator
//! (the TPC-W emulated browsers) and by integration tests.

use crate::error::HttpError;
use crate::headers::HeaderMap;
use crate::method::Method;
use crate::status::StatusCode;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response as seen by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// The response status.
    pub status: StatusCode,
    /// Response headers.
    pub headers: HeaderMap,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Performs one HTTP request over a fresh connection (with
/// `Connection: close`, as the TPC-W emulated browsers do), returning
/// the parsed response.
///
/// # Errors
///
/// Connection, I/O, and response-parsing failures.
///
/// # Examples
///
/// ```no_run
/// use staged_http::{fetch, Method};
///
/// let addr = "127.0.0.1:8080".parse().unwrap();
/// let resp = fetch(addr, Method::Get, "/home?userid=5", &[]).unwrap();
/// assert!(resp.status.is_success());
/// ```
pub fn fetch(
    addr: SocketAddr,
    method: Method,
    target: &str,
    body: &[u8],
) -> Result<ClientResponse, HttpError> {
    fetch_with_timeout(addr, method, target, body, Duration::from_secs(60))
}

/// [`fetch`] with an explicit per-read timeout.
///
/// # Errors
///
/// As [`fetch`]; timeouts surface as I/O errors.
pub fn fetch_with_timeout(
    addr: SocketAddr,
    method: Method,
    target: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<ClientResponse, HttpError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let mut request = format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n");
    if !body.is_empty() {
        request.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    request.push_str("\r\n");
    stream.write_all(request.as_bytes())?;
    if !body.is_empty() {
        stream.write_all(body)?;
    }
    read_response(&mut stream)
}

/// Reads and parses one HTTP response from a stream.
///
/// # Errors
///
/// Malformed status lines/headers, truncated bodies, or I/O errors.
pub fn read_response<S: Read>(stream: &mut S) -> Result<ClientResponse, HttpError> {
    let mut raw = Vec::with_capacity(4096);
    let header_end;
    let mut chunk = [0u8; 4096];
    loop {
        match find_header_end(&raw) {
            Some(end) => {
                header_end = end;
                break;
            }
            None => {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(HttpError::ConnectionClosed {
                        clean: raw.is_empty(),
                    });
                }
                raw.extend_from_slice(&chunk[..n]);
            }
        }
    }
    let head = String::from_utf8_lossy(&raw[..header_end]).into_owned();
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let status_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty response".to_string()))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".to_string()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "bad response version: {version}"
        )));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| HttpError::Malformed("bad status code".to_string()))?;
    if !(100..=599).contains(&code) {
        return Err(HttpError::Malformed(format!("status out of range: {code}")));
    }
    let mut headers = HeaderMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line: {line}")))?;
        headers.insert(name.trim(), value.trim());
    }
    let mut body = raw[header_end..].to_vec();
    match headers.content_length() {
        Some(len) => {
            while body.len() < len {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(HttpError::ConnectionClosed { clean: false });
                }
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(len);
        }
        None => {
            // Read to EOF (Connection: close without a length).
            loop {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    break;
                }
                body.extend_from_slice(&chunk[..n]);
            }
        }
    }
    Ok(ClientResponse {
        status: StatusCode::new(code),
        headers,
        body,
    })
}

/// Index just past the `\r\n\r\n` (or `\n\n`) header terminator.
fn find_header_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| raw.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_full_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello";
        let resp = read_response(&mut Cursor::new(raw.to_vec())).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get("content-type"), Some("text/html"));
        assert_eq!(resp.text(), "hello");
    }

    #[test]
    fn parses_body_to_eof_without_length() {
        let raw = b"HTTP/1.1 200 OK\r\n\r\nstream until close";
        let resp = read_response(&mut Cursor::new(raw.to_vec())).unwrap();
        assert_eq!(resp.text(), "stream until close");
    }

    #[test]
    fn truncated_body_errors() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(
            read_response(&mut Cursor::new(raw.to_vec())),
            Err(HttpError::ConnectionClosed { clean: false })
        ));
    }

    #[test]
    fn malformed_status_lines_error() {
        for raw in [
            &b"BOGUS 200 OK\r\n\r\n"[..],
            &b"HTTP/1.1 xyz OK\r\n\r\n"[..],
            &b"HTTP/1.1 999 Bad\r\n\r\n"[..],
        ] {
            assert!(read_response(&mut Cursor::new(raw.to_vec())).is_err());
        }
    }

    #[test]
    fn empty_stream_is_clean_close() {
        assert!(matches!(
            read_response(&mut Cursor::new(Vec::new())),
            Err(HttpError::ConnectionClosed { clean: true })
        ));
    }

    #[test]
    fn body_split_across_reads() {
        // Cursor delivers everything at once, so emulate chunked arrival
        // with a reader that yields one byte at a time.
        struct OneByte(Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let mut b = [0u8; 1];
                let n = self.0.read(&mut b)?;
                if n == 1 {
                    buf[0] = b[0];
                }
                Ok(n)
            }
        }
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody".to_vec();
        let resp = read_response(&mut OneByte(Cursor::new(raw))).unwrap();
        assert_eq!(resp.text(), "body");
    }
}
