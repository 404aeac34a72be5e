//! In-memory spans for the single-threaded replay: one per call into a
//! layer, kept in memory and written out when the benchmark ends.

use crate::alloc;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is the span that caused it; spans of one
/// request share `request_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u32,
    /// Allocations the calling thread made inside the span.
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans with stack discipline: a span entered while another is
/// open is its child.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request_id: u32) -> u32 {
        let id = self.spans.len() as u32;
        // Reserve before reading the clocks so the push below cannot
        // allocate inside the span it opens.
        self.spans.reserve(1);
        self.open.reserve(1);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request_id,
            allocs: alloc::thread_allocs(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let allocs = alloc::thread_allocs();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
    }

    /// Adds an already-measured child of the innermost open span: time
    /// a layer reported about itself (the plan observer's node times)
    /// laid at the start of the call that contained it.
    pub fn attribute(&mut self, name: &'static str, request_id: u32, duration_ns: u64) {
        let parent = self.open.last().copied();
        let start_ns = parent.map_or_else(|| self.now_ns(), |p| self.spans[p as usize].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent,
            request_id,
            allocs: 0,
        });
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reached = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reached);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reached = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Writes the spans as one JSON document.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
    )?;
    let mut line = String::new();
    for (id, span) in spans.iter().enumerate() {
        line.clear();
        // Writing to a String cannot fail.
        let _ = write!(
            line,
            "{}\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
             \"request_id\":{},\"allocs\":{}}}",
            if id == 0 { "" } else { "," },
            span.name,
            span.start_ns,
            span.end_ns,
            span.parent
                .map_or_else(|| "null".to_string(), |p| p.to_string()),
            span.request_id,
            span.allocs,
        );
        out.write_all(line.as_bytes())?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(0, 100, None),    // two children and a grandchild
            span(10, 40, Some(0)), // 30, of which 20 is its child's
            span(15, 35, Some(1)), // leaf
            span(50, 70, Some(0)), // leaf
            span(200, 260, None),  // overlapping children count once
            span(200, 230, Some(4)),
            span(220, 250, Some(4)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 20, 20, 10, 30, 30]);
    }

    #[test]
    fn recorder_nests_by_stack_and_attributes_reported_time() {
        let mut rec = Recorder::new();
        let root = rec.enter("request", 7);
        let child = rec.enter("tpcw.handler", 7);
        rec.attribute("db.exec", 7, 5);
        let _noise = std::hint::black_box(Vec::<u8>::with_capacity(32));
        rec.exit(child);
        rec.exit(root);
        let spans = &rec.spans;
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].start_ns, spans[1].start_ns);
        assert_eq!(spans[2].duration_ns(), 5);
        assert!(spans.iter().all(|s| s.request_id == 7));
        assert!(spans[1].allocs >= 1 && spans[0].allocs >= spans[1].allocs);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
