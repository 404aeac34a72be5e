//! The correctness oracle: what a read-only request must return,
//! computed in-process through the app's public surface
//! (`App::route` → handler → `TemplateStore::render`) on an identical,
//! independently populated copy of the database.

use crate::workload::{Page, Stream};
use staged_core::{App, PageOutcome};
use staged_db::{ConnectionPool, Database};
use staged_http::Request;
use std::sync::Arc;

/// How many live bodies per read-only page are compared byte for byte.
pub const BODIES_PER_PAGE: usize = 50;
/// How many requests of each writing page settle the classifier before
/// warm-up (their bodies embed server-assigned ids, so only status and
/// framing are checked).
pub const WRITES_PER_PAGE: usize = 20;

/// One request of the verification prologue.
pub struct Check {
    pub conn: usize,
    pub op: usize,
    /// The exact body expected; `None` for writing pages.
    pub body: Option<Vec<u8>>,
}

/// Renders `target` the way either server must.
pub fn render(app: &App, pool: &ConnectionPool, target: &str) -> Vec<u8> {
    let request = Request::get(target);
    if request.line.is_static() {
        let (_, body) = app
            .statics()
            .lookup(request.path())
            .unwrap_or_else(|| panic!("no static file at {target}"));
        return body.as_slice().to_vec();
    }
    let (route, _) = app
        .route(request.path())
        .unwrap_or_else(|| panic!("no route for {target}"));
    let conn = pool.get();
    match (route.handler)(&request, &conn).unwrap_or_else(|e| panic!("{target}: {e}")) {
        PageOutcome::Template { name, context } => app
            .templates()
            .render(&name, &context)
            .unwrap_or_else(|e| panic!("{target}: {e}"))
            .into_bytes(),
        PageOutcome::Body(response) => response.body().to_vec(),
    }
}

/// The verification prologue for these streams: the first
/// [`BODIES_PER_PAGE`] requests of every read-only page with their
/// expected bodies (rendered here, on a pristine database), followed by
/// the first [`WRITES_PER_PAGE`] requests of every writing page.
pub fn prologue(streams: &[Stream], app: &App, db: &Arc<Database>) -> Vec<Check> {
    let pool = ConnectionPool::new(Arc::clone(db), 1);
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for page in Page::ALL {
        let quota = if page.writes() {
            WRITES_PER_PAGE
        } else {
            BODIES_PER_PAGE
        };
        let firsts = streams
            .iter()
            .enumerate()
            .flat_map(|(conn, s)| {
                s.ops
                    .iter()
                    .enumerate()
                    .filter(move |(_, op)| op.page == page)
                    .map(move |(op, _)| (conn, op))
            })
            .take(quota);
        for (conn, op) in firsts {
            if page.writes() {
                writes.push(Check {
                    conn,
                    op,
                    body: None,
                });
            } else {
                let target = streams[conn].target(&streams[conn].ops[op]);
                reads.push(Check {
                    conn,
                    op,
                    body: Some(render(app, &pool, target)),
                });
            }
        }
    }
    reads.extend(writes);
    reads
}
