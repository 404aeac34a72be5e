//! A compact HTTP/1.1 server substrate.
//!
//! This crate rebuilds, in Rust, the slice of CherryPy's HTTP layer that
//! the paper's request-scheduling method needs:
//!
//! * **staged parsing** — the request *line* can be parsed separately
//!   from the remaining headers ([`Connection::read_request_line`] /
//!   [`Connection::read_remaining_headers`]), because the paper's
//!   header-parsing pool must classify a request (static vs dynamic) from
//!   the first line alone, then either finish parsing (dynamic) or leave
//!   the rest to the static pool (paper §3.2);
//! * **query-string and header parsing into dictionaries**, done *before*
//!   a database-connection-holding thread touches the request;
//! * **responses** with correct `Content-Length` — which the paper notes
//!   the render pool can finally set exactly, because rendering completes
//!   before transmission;
//! * **static file service** with traversal-safe path resolution and a
//!   MIME table, plus an in-memory store for benchmarks.
//!
//! The crate is transport-generic: [`Connection`] works over any
//! `Read + Write` stream, so unit tests drive it with in-memory pipes and
//! the servers use `TcpStream`.
//!
//! # Examples
//!
//! ```
//! use staged_http::{Method, RequestLine};
//!
//! let line = RequestLine::parse("GET /homepage?userid=5&popups=no HTTP/1.1").unwrap();
//! assert_eq!(line.method, Method::Get);
//! assert_eq!(line.target.path(), "/homepage");
//! assert!(!line.target.is_static_resource());
//! assert_eq!(line.target.query_pairs()[0], ("userid".into(), "5".into()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod body;
mod client;
mod connection;
mod error;
mod headers;
mod httpdate;
mod method;
mod mime;
mod request;
mod response;
mod router;
mod statics;
mod status;
mod uri;

pub use body::{Body, BufferPool, PooledBuf};
pub use client::{fetch, fetch_with_timeout, read_response, ClientResponse};
pub use connection::{Connection, ParseLimits};
pub use error::HttpError;
pub use headers::HeaderMap;
pub use httpdate::{format_http_date, parse_http_date};
pub use method::Method;
pub use mime::mime_for_path;
pub use request::{Request, RequestLine};
pub use response::Response;
pub use router::{RouteParams, Router};
pub use statics::StaticFiles;
pub use status::StatusCode;
pub use uri::{percent_decode, percent_encode, RequestTarget};
