//! Span machinery: the global tracer state, per-thread record buffers,
//! and the RAII [`Span`] guard.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::sink::{JsonLinesSink, Sink};

/// Tracer state: 0 = not yet initialised (consult `DC_TRACE`),
/// 1 = disabled, 2 = enabled with a sink installed.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
const STATE_UNINIT: u8 = 0;
const STATE_DISABLED: u8 = 1;
const STATE_ENABLED: u8 = 2;

/// Monotonically increasing span/event id allocator. Id 0 is reserved
/// to mean "no span": the parent of a root span.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The installed sink. Guarded by a mutex only on install/flush paths;
/// the per-record hot path never touches it.
static SINK: Mutex<Option<Arc<dyn Sink>>> = Mutex::new(None);

/// All timestamps are microseconds since the first use of the tracer
/// in this process, giving compact monotone numbers without consulting
/// the wall clock.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// The closed taxonomy of spans and events the engine emits. A closed
/// enum (rather than free-form names) keeps the disabled path free of
/// string handling and lets tests select records precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One fixpoint solve of a constructor (dc-core).
    Solve,
    /// One semi-naive/naive round within a solve — the one record per
    /// round: its stages are fields (`prep_us`, `evaluate_us`,
    /// `commit_us`), not spans of their own.
    Round,
    /// One branch task of a round, evaluated on the solver's thread;
    /// parented under its round.
    BranchTask,
    /// One server commit: validate, apply, publish, refresh (dc-server).
    ServerCommit,
    /// One session query (ad-hoc or prepared) against a snapshot.
    SessionQuery,
    /// Refresh of one standing-query subscription after a publish.
    SubscriptionRefresh,
    /// Point event: a typed planner decision (access path, demotion,
    /// refusal) rendered from a `PlanEvent` — per one-shot evaluation,
    /// or per solve when the decision is new to it.
    Plan,
    /// Point event: a warn-once diagnostic routed from `envcfg` or
    /// other engine warning sites.
    Warning,
}

impl SpanKind {
    /// Stable lowercase label used by the JSON exporter.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Solve => "solve",
            SpanKind::Round => "round",
            SpanKind::BranchTask => "branch_task",
            SpanKind::ServerCommit => "server_commit",
            SpanKind::SessionQuery => "session_query",
            SpanKind::SubscriptionRefresh => "subscription_refresh",
            SpanKind::Plan => "plan",
            SpanKind::Warning => "warning",
        }
    }
}

/// A typed field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

/// One finished span or point event, as delivered to the sink.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Unique id (process-wide, from one atomic counter).
    pub id: u64,
    /// Parent span id, or 0 for roots.
    pub parent: u64,
    /// Which taxonomy entry this record is.
    pub kind: SpanKind,
    /// Human-readable name (e.g. the constructor being solved).
    pub name: String,
    /// Microseconds since process trace epoch at span open.
    pub start_us: u64,
    /// Microseconds since process trace epoch at span close; equal to
    /// `start_us` for point events.
    pub end_us: u64,
    /// True for point events (no duration).
    pub is_event: bool,
    /// Typed key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceRecord {
    /// Convenience: the value of a field by key, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Per-thread buffer of finished records plus the stack of currently
/// open span ids on this thread (implicit parenting).
struct ThreadBuf {
    records: Vec<TraceRecord>,
    stack: Vec<u64>,
}

/// Records buffered per thread before the shared sink is touched.
const FLUSH_AT: usize = 256;

impl ThreadBuf {
    const fn new() -> Self {
        ThreadBuf {
            records: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn drain_to_sink(&mut self) {
        if self.records.is_empty() {
            return;
        }
        let sink = match SINK.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        };
        if let Some(sink) = sink {
            sink.write_batch(&self.records);
        }
        self.records.clear();
    }

    fn push(&mut self, rec: TraceRecord) {
        self.records.push(rec);
        // Drain when a thread finishes its outermost span (the natural
        // end of a correlated tree on this thread) or the buffer fills.
        if self.stack.is_empty() || self.records.len() >= FLUSH_AT {
            self.drain_to_sink();
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.drain_to_sink();
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = const { RefCell::new(ThreadBuf::new()) };
}

/// One relaxed load on the hot path; falls into `DC_TRACE` parsing
/// exactly once per process if nothing installed a sink first.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNINIT => init_from_env(),
        s => s == STATE_ENABLED,
    }
}

/// Parse `DC_TRACE` and install the corresponding sink. Serialised via
/// the sink mutex; the state is published last so concurrent first
/// callers either see UNINIT (and contend here) or a settled state.
#[cold]
fn init_from_env() -> bool {
    let mut guard = match SINK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    // Another thread may have raced us past the UNINIT check.
    let state = STATE.load(Ordering::Relaxed);
    if state != STATE_UNINIT {
        return state == STATE_ENABLED;
    }
    let setting = std::env::var("DC_TRACE").ok();
    let enabled = match setting.as_deref() {
        None | Some("") | Some("0") | Some("false") | Some("off") => false,
        Some("1") | Some("true") | Some("on") | Some("stderr") => {
            *guard = Some(Arc::new(JsonLinesSink::stderr()));
            true
        }
        Some(path) => {
            match JsonLinesSink::file(path) {
                Ok(sink) => *guard = Some(Arc::new(sink)),
                Err(err) => {
                    eprintln!(
                        "warning: DC_TRACE file {path:?} could not be opened ({err}); \
                         tracing to stderr instead"
                    );
                    *guard = Some(Arc::new(JsonLinesSink::stderr()));
                }
            }
            true
        }
    };
    STATE.store(
        if enabled {
            STATE_ENABLED
        } else {
            STATE_DISABLED
        },
        Ordering::Release,
    );
    enabled
}

/// Install a sink programmatically (e.g. the test [`Collector`]
/// (crate::Collector)), enabling tracing. Returns the previously
/// installed sink and state so callers can restore them.
pub(crate) fn swap_sink(sink: Option<Arc<dyn Sink>>, state: u8) -> (Option<Arc<dyn Sink>>, u8) {
    let mut guard = match SINK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    let prev_state = STATE.load(Ordering::Relaxed);
    let prev = std::mem::replace(&mut *guard, sink);
    STATE.store(state, Ordering::Release);
    (prev, prev_state)
}

/// Install a sink and enable tracing for the rest of the process. For
/// scoped installation in tests use
/// [`Collector::install`](crate::Collector::install).
pub fn install(sink: Arc<dyn Sink>) {
    swap_sink(Some(sink), STATE_ENABLED);
}

pub(crate) const ENABLED_STATE: u8 = STATE_ENABLED;

/// Flush the current thread's buffered records to the sink.
pub fn flush() {
    TLS.with(|tls| tls.borrow_mut().drain_to_sink());
}

/// Live data of an open span; boxed so a disabled [`Span`] is just a
/// null-pointer-sized guard.
struct OpenSpan {
    id: u64,
    parent: u64,
    kind: SpanKind,
    name: String,
    start_us: u64,
    /// Where the last [`Span::lap`] ended (`start_us` before the first).
    lap_us: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

/// RAII span guard: records its duration and enqueues the finished
/// record when dropped. When tracing is disabled the guard is inert
/// and every method returns immediately.
pub struct Span {
    open: Option<Box<OpenSpan>>,
}

/// Open a span parented under the innermost span currently open on
/// this thread (or a root span if none). Inert when tracing is off.
pub fn span(kind: SpanKind) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = TLS.with(|tls| {
        let stack = &mut tls.borrow_mut().stack;
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let start_us = now_us();
    Span {
        open: Some(Box::new(OpenSpan {
            id,
            parent,
            kind,
            name: String::new(),
            start_us,
            lap_us: start_us,
            fields: Vec::new(),
        })),
    }
}

impl Span {
    /// Whether this span is actually recording; use to guard expensive
    /// name/field construction at call sites.
    #[inline]
    pub fn recording(&self) -> bool {
        self.open.is_some()
    }

    /// Set the span name, building it lazily only when recording.
    pub fn name_with(mut self, f: impl FnOnce() -> String) -> Self {
        if let Some(open) = self.open.as_mut() {
            open.name = f();
        }
        self
    }

    /// Attach a typed field (no-op when not recording).
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(open) = self.open.as_mut() {
            open.fields.push((key, value.into()));
        }
    }

    /// Attach the microseconds since the span opened or since its last
    /// lap, whichever is later, as field `key` — one stage of the span's
    /// work. Reads the clock only when recording.
    pub fn lap(&mut self, key: &'static str) {
        if let Some(open) = self.open.as_mut() {
            let now = now_us();
            open.fields.push((key, FieldValue::U64(now - open.lap_us)));
            open.lap_us = now;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let end_us = now_us();
        TLS.with(|tls| {
            let mut buf = tls.borrow_mut();
            // Spans close LIFO per thread; tolerate out-of-order drops
            // (e.g. during a panic unwind) by popping through.
            while let Some(top) = buf.stack.pop() {
                if top == open.id {
                    break;
                }
            }
            buf.push(TraceRecord {
                id: open.id,
                parent: open.parent,
                kind: open.kind,
                name: open.name,
                start_us: open.start_us,
                end_us,
                is_event: false,
                fields: open.fields,
            });
        });
    }
}

/// Emit a point event under the innermost open span on this thread.
/// The closure builds the name and fields and runs only when tracing
/// is enabled.
pub fn event(kind: SpanKind, make: impl FnOnce() -> (String, Vec<(&'static str, FieldValue)>)) {
    if !enabled() {
        return;
    }
    let (name, fields) = make();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let at = now_us();
    TLS.with(|tls| {
        let mut buf = tls.borrow_mut();
        let parent = buf.stack.last().copied().unwrap_or(0);
        buf.push(TraceRecord {
            id,
            parent,
            kind,
            name,
            start_us: at,
            end_us: at,
            is_event: true,
            fields,
        });
    });
}

static WARNINGS_EMITTED: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime count of [`warn`] calls. Warn-once state is global
/// (one warning per env knob per process), so the count lives here and
/// [`MetricsRegistry::snapshot`](crate::metrics::MetricsRegistry::snapshot)
/// merges it into every snapshot's `warnings` counter.
pub fn warnings_emitted() -> u64 {
    WARNINGS_EMITTED.load(Ordering::Relaxed)
}

/// Route a warn-once diagnostic through the tracer. Returns `true`
/// when a sink captured it as a `Warning` event; callers fall back to
/// their historical stderr behaviour on `false`.
pub fn warn(key: &str, msg: &str) -> bool {
    WARNINGS_EMITTED.fetch_add(1, Ordering::Relaxed);
    if !enabled() {
        return false;
    }
    event(SpanKind::Warning, || {
        (
            msg.to_string(),
            vec![("key", FieldValue::Str(key.to_string()))],
        )
    });
    // Warnings are rare and load-bearing for tests: deliver immediately
    // rather than waiting for the enclosing tree to finish.
    flush();
    true
}
