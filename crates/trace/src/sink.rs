//! Trace sinks: the JSON-lines exporter and the in-memory collector
//! used by tests.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::span::{self, FieldValue, TraceRecord};

/// Destination for finished trace records. Implementations must be
/// cheap per *batch* — per-thread buffers mean `write_batch` is called
/// once per correlated tree or 256 records, not once per span.
pub trait Sink: Send + Sync {
    /// Deliver a batch of finished records (span order is per-thread
    /// completion order, children before parents).
    fn write_batch(&self, records: &[TraceRecord]);
}

enum Target {
    Stderr,
    File(Mutex<File>),
}

/// Exports each record as one JSON object per line — the `DC_TRACE=1`
/// (stderr) and `DC_TRACE=<path>` (file) production sink.
pub struct JsonLinesSink {
    target: Target,
}

impl JsonLinesSink {
    /// Sink writing to stderr.
    pub fn stderr() -> Self {
        JsonLinesSink {
            target: Target::Stderr,
        }
    }

    /// Sink appending to the file at `path`.
    pub fn file(path: &str) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonLinesSink {
            target: Target::File(Mutex::new(file)),
        })
    }
}

fn escape_json(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

// Numbers are formatted straight into the line buffer (`fmt::Write`
// on a `String` cannot fail), never through a `String` of their own.
fn render_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::I64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::Str(v) => {
            out.push('"');
            escape_json(out, v);
            out.push('"');
        }
    }
}

fn render_line(out: &mut String, rec: &TraceRecord) {
    let _ = write!(
        out,
        "{{\"id\":{},\"parent\":{},\"kind\":\"{}\",\"name\":\"",
        rec.id,
        rec.parent,
        rec.kind.label()
    );
    escape_json(out, &rec.name);
    let _ = write!(
        out,
        "\",\"start_us\":{},\"end_us\":{}",
        rec.start_us, rec.end_us
    );
    if rec.is_event {
        out.push_str(",\"event\":true");
    }
    for (key, value) in &rec.fields {
        out.push_str(",\"");
        escape_json(out, key);
        out.push_str("\":");
        render_value(out, value);
    }
    out.push_str("}\n");
}

impl Sink for JsonLinesSink {
    fn write_batch(&self, records: &[TraceRecord]) {
        let mut out = String::with_capacity(records.len() * 128);
        for rec in records {
            render_line(&mut out, rec);
        }
        match &self.target {
            Target::Stderr => {
                let _ = io::stderr().lock().write_all(out.as_bytes());
            }
            Target::File(file) => {
                let mut guard = match file.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                let _ = guard.write_all(out.as_bytes());
            }
        }
    }
}

/// In-memory sink for tests: collects every record and answers
/// structural questions about the span tree.
#[derive(Default)]
pub struct Collector {
    records: Mutex<Vec<TraceRecord>>,
}

/// Serialises scoped collector installation across tests, mirroring
/// the failpoints guard: two concurrent installs would otherwise
/// interleave records from unrelated tests.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

impl Collector {
    /// Install a fresh collector as the process sink, enabling
    /// tracing. The returned guard restores the previous sink and
    /// enablement state on drop; concurrent installs are serialised so
    /// tests using collectors can run under the default parallel test
    /// runner.
    pub fn install() -> CollectorGuard {
        let lock = match INSTALL_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let collector = Arc::new(Collector::default());
        let (prev_sink, prev_state) = span::swap_sink(Some(collector.clone()), span::ENABLED_STATE);
        CollectorGuard {
            collector,
            prev_sink,
            prev_state,
            _lock: lock,
        }
    }

    /// Snapshot of all records collected so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        match self.records.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }

    /// Records of one kind, in collection order.
    pub fn of_kind(&self, kind: crate::SpanKind) -> Vec<TraceRecord> {
        self.records()
            .into_iter()
            .filter(|r| r.kind == kind)
            .collect()
    }

    /// Ids of every record whose transitive parent chain reaches
    /// `root` (including `root` itself).
    pub fn subtree(&self, root: u64) -> Vec<TraceRecord> {
        let records = self.records();
        let mut member: Vec<u64> = vec![root];
        // Records arrive children-first per thread but cross-thread
        // order is arbitrary; iterate to a fixpoint.
        loop {
            let before = member.len();
            for rec in &records {
                if member.contains(&rec.parent) && !member.contains(&rec.id) {
                    member.push(rec.id);
                }
            }
            if member.len() == before {
                break;
            }
        }
        records
            .into_iter()
            .filter(|r| member.contains(&r.id))
            .collect()
    }

    /// Structural checks on the collected tree: every non-root parent
    /// id must belong to a collected span, and every span must nest
    /// inside its parent's time interval. Returns human-readable
    /// violations (empty = well-formed).
    pub fn well_formedness_violations(&self) -> Vec<String> {
        let records = self.records();
        let mut violations = Vec::new();
        for rec in &records {
            if rec.parent == 0 {
                continue;
            }
            let Some(parent) = records.iter().find(|p| p.id == rec.parent && !p.is_event) else {
                violations.push(format!(
                    "{} record {} ({}) has dangling parent {}",
                    rec.kind.label(),
                    rec.id,
                    rec.name,
                    rec.parent
                ));
                continue;
            };
            if rec.start_us < parent.start_us || rec.end_us > parent.end_us {
                violations.push(format!(
                    "{} record {} [{}..{}] escapes parent {} [{}..{}]",
                    rec.kind.label(),
                    rec.id,
                    rec.start_us,
                    rec.end_us,
                    parent.id,
                    parent.start_us,
                    parent.end_us
                ));
            }
        }
        violations
    }
}

impl Sink for Collector {
    fn write_batch(&self, batch: &[TraceRecord]) {
        let mut guard = match self.records.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.extend_from_slice(batch);
    }
}

/// Guard returned by [`Collector::install`]; gives access to the
/// collected records and restores the previous tracer state on drop.
pub struct CollectorGuard {
    collector: Arc<Collector>,
    prev_sink: Option<Arc<dyn Sink>>,
    prev_state: u8,
    _lock: MutexGuard<'static, ()>,
}

impl CollectorGuard {
    /// The installed collector.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }
}

impl std::ops::Deref for CollectorGuard {
    type Target = Collector;

    fn deref(&self) -> &Collector {
        &self.collector
    }
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        // Push any records still buffered on this thread into the
        // collector before tearing it down.
        span::flush();
        span::swap_sink(self.prev_sink.take(), self.prev_state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, span, warn, SpanKind};

    #[test]
    fn collector_captures_a_correlated_tree() {
        let guard = Collector::install();
        {
            let _root = span(SpanKind::Solve).name_with(|| "closure".to_string());
            {
                let mut round = span(SpanKind::Round);
                round.field("round", 1u64);
                round.lap("prep_us");
                event(SpanKind::Plan, || {
                    (
                        "probe chosen".to_string(),
                        vec![("position", 0usize.into())],
                    )
                });
                let task = span(SpanKind::BranchTask);
                assert!(task.recording());
            }
        }
        crate::flush();

        let records = guard.records();
        let solve = records
            .iter()
            .find(|r| r.kind == SpanKind::Solve)
            .expect("solve span");
        assert_eq!(solve.parent, 0);
        assert_eq!(solve.name, "closure");
        let round = records
            .iter()
            .find(|r| r.kind == SpanKind::Round)
            .expect("round span");
        assert_eq!(round.parent, solve.id);
        assert_eq!(round.field("round"), Some(&crate::FieldValue::U64(1)));
        assert!(
            matches!(round.field("prep_us"), Some(crate::FieldValue::U64(us)) if *us <= round.end_us - round.start_us),
            "a lap is a stage of its span"
        );
        let task = records
            .iter()
            .find(|r| r.kind == SpanKind::BranchTask)
            .expect("task span");
        assert_eq!(task.parent, round.id);
        let plan = records
            .iter()
            .find(|r| r.kind == SpanKind::Plan)
            .expect("plan event");
        assert!(plan.is_event);
        assert_eq!(plan.parent, round.id);

        assert_eq!(guard.well_formedness_violations(), Vec::<String>::new());
        // The whole tree hangs off the solve root.
        assert_eq!(guard.subtree(solve.id).len(), records.len());
    }

    #[test]
    fn warnings_are_captured_and_tracing_restores() {
        {
            let guard = Collector::install();
            assert!(crate::enabled());
            assert!(warn("test.key", "something odd"));
            let warnings = guard.of_kind(SpanKind::Warning);
            assert_eq!(warnings.len(), 1);
            assert_eq!(warnings[0].name, "something odd");
        }
        // Outside the guard the previous state is back; spans are inert
        // unless DC_TRACE armed the process.
        if !crate::enabled() {
            let s = span(SpanKind::Solve);
            assert!(!s.recording());
            assert!(!warn("test.key2", "dropped"));
        }
    }

    #[test]
    fn json_lines_render_escapes() {
        let rec = TraceRecord {
            id: 3,
            parent: 0,
            kind: crate::SpanKind::Warning,
            name: "say \"hi\"\n".to_string(),
            start_us: 5,
            end_us: 5,
            is_event: true,
            fields: vec![
                ("note", FieldValue::Str("a\\b\u{1}".to_string())),
                ("tuples", FieldValue::U64(u64::MAX)),
                ("shift", FieldValue::I64(-42)),
                ("ratio", FieldValue::F64(0.25)),
                ("whole", FieldValue::F64(3.0)),
                ("nan", FieldValue::F64(f64::NAN)),
                ("ok", FieldValue::Bool(true)),
            ],
        };
        let mut out = String::new();
        render_line(&mut out, &rec);
        assert_eq!(
            out,
            "{\"id\":3,\"parent\":0,\"kind\":\"warning\",\"name\":\"say \\\"hi\\\"\\n\",\"start_us\":5,\"end_us\":5,\"event\":true,\"note\":\"a\\\\b\\u0001\",\"tuples\":18446744073709551615,\"shift\":-42,\"ratio\":0.25,\"whole\":3,\"nan\":null,\"ok\":true}\n"
        );
    }
}
