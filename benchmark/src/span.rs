//! The benchmark's own span recorder. Spans wrap the benchmark's calls
//! into the engine's public functions — one root per operation, one
//! child per call — and never reach inside the engine: that is
//! `dc-trace`'s job and a later issue's. Spans stay in memory until the
//! run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Shared by every span of one operation.
    pub op: u32,
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One recorder per thread; `off()` makes every call a no-op so the
/// untraced run pays one predictable branch per call site.
pub struct Recorder {
    on: bool,
    thread: u32,
    origin: Instant,
    spans: Vec<Span>,
    next_op: u32,
}

/// Handle to an open span; `None` when recording is off.
pub type Open = Option<u32>;

impl Recorder {
    pub fn off() -> Recorder {
        Recorder::new(false, 0, Instant::now())
    }

    /// Recorders of one run share `origin`, so their clocks agree.
    pub fn on(thread: u32, origin: Instant) -> Recorder {
        Recorder::new(true, thread, origin)
    }

    fn new(on: bool, thread: u32, origin: Instant) -> Recorder {
        Recorder {
            on,
            thread,
            origin,
            spans: Vec::new(),
            next_op: 0,
        }
    }

    /// The same kind of recorder for another thread of this run.
    pub fn sibling(&self, thread: u32) -> Recorder {
        Recorder::new(self.on, thread, self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of a new operation.
    pub fn root(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        self.next_op += 1;
        Some(self.open(None, self.next_op, name))
    }

    fn open(&mut self, parent: Option<u32>, op: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            thread: self.thread,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn close(&mut self, span: Open) {
        if let Some(id) = span {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a child span of `parent`.
    pub fn child<T>(&mut self, parent: Open, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(parent) = parent else {
            return f();
        };
        let op = self.spans[parent as usize].op;
        let id = self.open(Some(parent), op, name);
        let out = f();
        self.close(Some(id));
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: its duration minus the part its children cover.
/// Children of one parent run one after another here, so the covered
/// part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<(u32, u32), usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.thread, s.id), i))
        .collect();
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let pi = index[&(s.thread, p)];
            own[pi] = own[pi].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Total self time and count per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let own = self_times(spans);
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(own) {
        match out.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += own;
                e.2 += 1;
            }
            None => out.push((s.name, own, 1)),
        }
    }
    out
}

/// One JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(own) {
        let line = Json::obj([
            ("thread", Json::count(s.thread.into())),
            ("id", Json::count(s.id.into())),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::count(p.into())),
            ),
            ("op", Json::count(s.op.into())),
            ("name", Json::str(s.name)),
            ("start_ns", Json::count(s.start_ns)),
            ("end_ns", Json::count(s.end_ns)),
            ("self_ns", Json::count(own)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            thread: 0,
            name: ["root", "a", "b", "a.inner"][id as usize],
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_on_a_nested_fixture() {
        // root 0..100 { a 10..40 { a.inner 15..25 }, b 50..90 }
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 90),
            span(3, Some(1), 15, 25),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 20, 40, 10]);
        // Self times of one operation add up to its root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
        assert_eq!(
            self_time_by_name(&spans),
            vec![
                ("root", 30, 1),
                ("a", 20, 1),
                ("b", 40, 1),
                ("a.inner", 10, 1)
            ]
        );
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut rec = Recorder::on(3, Instant::now());
        let root = rec.root("op");
        let got = rec.child(root, "call", || 41 + 1);
        rec.close(root);
        let second = rec.root("op");
        rec.close(second);
        let spans = rec.into_spans();
        assert_eq!(got, 42);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].op, spans[1].op, spans[2].op), (1, 1, 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.thread == 3));

        let mut off = Recorder::off();
        let root = off.root("op");
        assert_eq!(off.child(root, "call", || 7), 7);
        off.close(root);
        assert!(off.into_spans().is_empty());
    }
}
