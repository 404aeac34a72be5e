//! A lean keep-alive HTTP/1.1 client.
//!
//! The generator shares this machine's cores with the server under
//! test, so the client does the least work that still checks a
//! response: one write, reads into a reused buffer, a status code, a
//! `Content-Length`, and exact framing.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why an exchange did not produce a usable response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Connect, write, read or timeout error; or the peer closed.
    Transport(String),
    /// The head could not be parsed, `Content-Length` was missing, or
    /// bytes arrived beyond the announced body.
    Framing(&'static str),
    /// A well-framed response whose status is not 2xx.
    Status(u16),
}

/// One persistent connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Where the last response's body sits in `buf`.
    body: std::ops::Range<usize>,
}

/// How long a single read may block before the exchange fails: far
/// above any latency the benchmark expects, far below its time cap.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(READ_TIMEOUT))?;
        Ok(Client {
            stream,
            buf: vec![0; 64 * 1024],
            body: 0..0,
        })
    }

    /// Sends `request` and reads exactly one response. `Ok` means a 2xx
    /// status whose body has exactly the announced `Content-Length`;
    /// the body is then available from [`Client::body`].
    pub fn exchange(&mut self, request: &[u8]) -> Result<(), Failure> {
        self.body = 0..0;
        self.stream
            .write_all(request)
            .map_err(|e| Failure::Transport(e.to_string()))?;
        let mut filled = 0;
        let (head_len, status, body_len) = loop {
            filled += self.read_more(filled)?;
            if let Some(head_len) = find_head_end(&self.buf[..filled]) {
                let (status, body_len) = parse_head(&self.buf[..head_len])?;
                break (head_len, status, body_len);
            }
        };
        let total = head_len + body_len;
        while filled < total {
            filled += self.read_more(filled)?;
        }
        if filled > total {
            return Err(Failure::Framing("bytes beyond Content-Length"));
        }
        if !(200..300).contains(&status) {
            return Err(Failure::Status(status));
        }
        self.body = head_len..total;
        Ok(())
    }

    /// The body of the last successful exchange.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.clone()]
    }

    fn read_more(&mut self, filled: usize) -> Result<usize, Failure> {
        if filled == self.buf.len() {
            self.buf.resize(filled * 2, 0);
        }
        match self.stream.read(&mut self.buf[filled..]) {
            Ok(0) => Err(Failure::Transport("connection closed by peer".into())),
            Ok(n) => Ok(n),
            Err(e) => Err(Failure::Transport(e.to_string())),
        }
    }
}

/// Length of the head including its blank line, once complete.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

/// `(status, content_length)` of a complete response head.
fn parse_head(head: &[u8]) -> Result<(u16, usize), Failure> {
    if head.len() < 12 || !head.starts_with(b"HTTP/1.") {
        return Err(Failure::Framing("malformed status line"));
    }
    let status = std::str::from_utf8(&head[9..12])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(Failure::Framing("malformed status code"))?;
    let length = head
        .split(|&b| b == b'\n')
        .skip(1)
        .find_map(|line| {
            let (name, value) = line.split_at(line.iter().position(|&b| b == b':')?);
            name.eq_ignore_ascii_case(b"content-length")
                .then(|| std::str::from_utf8(&value[1..]).ok()?.trim().parse().ok())?
        })
        .ok_or(Failure::Framing("missing Content-Length"))?;
    Ok((status, length))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_reads_status_and_length() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\ncontent-length: 42\r\n\r\n";
        assert_eq!(find_head_end(head), Some(head.len()));
        assert_eq!(parse_head(head), Ok((200, 42)));
        let shed = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_head(shed), Ok((503, 0)));
    }

    #[test]
    fn head_parsing_rejects_what_it_cannot_frame() {
        assert_eq!(find_head_end(b"HTTP/1.1 200 OK\r\nA: b\r\n"), None);
        assert!(matches!(
            parse_head(b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n"),
            Err(Failure::Framing("missing Content-Length"))
        ));
        assert!(matches!(
            parse_head(b"ICY 200 OK\r\n\r\n"),
            Err(Failure::Framing(_))
        ));
    }
}
