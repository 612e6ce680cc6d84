//! The span recorder: `(id, parent, name, start_ns, end_ns, batch)` records
//! kept in memory per thread and written out when the run ends.
//!
//! Spans are opened by the benchmark's own files, around its calls into the
//! layers' public functions.  Each thread records into its own log (no lock
//! on the recording path); a span's parent is whichever span the same thread
//! had open when it started.  A layer's *self time* is its span's duration
//! minus the durations of its child spans.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span the recording thread had open when this one started.
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Nanoseconds since the process's first span.
    pub start_ns: u64,
    pub end_ns: u64,
    /// What the span worked on: an event, byte or backlog count — each
    /// opening site documents which.
    pub batch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct ThreadLog {
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, innermost last.
    open: Vec<usize>,
}

thread_local! {
    static LOG: RefCell<ThreadLog> = RefCell::new(ThreadLog::default());
}

// Relaxed: the counter only hands out distinct ids; it publishes no data.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Closes its span when dropped.
pub struct Guard {
    index: usize,
}

impl Guard {
    /// Replaces the span's `batch` (for counts known only afterwards).
    pub fn set_batch(&self, batch: u64) {
        LOG.with(|log| log.borrow_mut().spans[self.index].batch = batch);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        LOG.with(|log| {
            let mut log = log.borrow_mut();
            log.spans[self.index].end_ns = end;
            let closed = log.open.pop();
            assert_eq!(closed, Some(self.index), "spans close innermost first");
        });
    }
}

/// Opens a span on the calling thread.
pub fn enter(name: &'static str, batch: u64) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        let parent = log.open.last().map(|&i| log.spans[i].id);
        let index = log.spans.len();
        log.spans.push(Span {
            id,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
            batch,
        });
        log.open.push(index);
        // Read the clock last, so the bookkeeping above is charged to the
        // parent, not to this span.
        log.spans[index].start_ns = now_ns();
        Guard { index }
    })
}

/// Removes and returns the calling thread's closed spans.
pub fn take() -> Vec<Span> {
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        assert!(log.open.is_empty(), "spans still open at take()");
        std::mem::take(&mut log.spans)
    })
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus child spans.
    pub self_ns: u64,
    pub batch: u64,
}

/// Sums count, duration, self time and `batch` per span name.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, Total> {
    let mut children_ns: HashMap<u64, u64> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *children_ns.entry(parent).or_default() += span.duration_ns();
        }
    }
    let mut out: HashMap<&'static str, Total> = HashMap::new();
    for span in spans {
        let total = out.entry(span.name).or_default();
        total.count += 1;
        total.total_ns += span.duration_ns();
        total.self_ns += span
            .duration_ns()
            .saturating_sub(children_ns.get(&span.id).copied().unwrap_or(0));
        total.batch += span.batch;
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"batch\": {}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.batch
        )?;
    }
    out.flush()
}
