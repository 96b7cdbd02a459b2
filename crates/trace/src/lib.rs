//! Observability substrate: correlated spans, structured events, and a
//! typed metrics registry.
//!
//! Every layer of the engine — planner, fixpoint solver, MVCC
//! server, standing queries — reports through this one crate, so a
//! single request (a server commit, a session query) yields a single
//! correlated tree of timed spans instead of scattered counters and
//! stderr lines.
//!
//! * **Spans & events** ([`span`], [`event`]): a lock-cheap,
//!   thread-safe tracer. Span ids come from one atomic counter;
//!   parenting is implicit through a per-thread span stack. Finished
//!   records buffer per thread and drain to the installed [`Sink`] when
//!   the thread's stack empties, when the buffer fills, at [`flush`],
//!   and at thread exit — so the shared sink is touched per *batch*,
//!   never per record.
//! * **Disabled-path cost**: when tracing is off — the default — every
//!   entry point reduces to one relaxed atomic load and an immediate
//!   return. No span names are formatted, no fields are built, nothing
//!   allocates; callers guard any expensive rendering on
//!   [`enabled`]/[`Span::recording`]. What arming costs is measured by
//!   `dcbench`'s `trace.armed_overhead_pct` probe; its gated metrics
//!   run with tracing disabled, on this instrumented build.
//! * **Arming**: the `DC_TRACE` environment variable, parsed on first
//!   use with the same strict-warn-once policy as the engine's other
//!   knobs (`dc-governor`'s `envcfg` routes its warnings *through* this
//!   crate, so the parsing lives here to keep the dependency arrow
//!   one-way): unset/`0` — disabled; `1`/`true`/`stderr` — JSON-lines
//!   to stderr; anything else — treated as a file path (append),
//!   falling back to stderr with a warning if the file cannot be
//!   opened. Tests install an in-memory [`Collector`] instead.
//! * **Metrics** ([`metrics::MetricsRegistry`]): typed counters,
//!   gauges, and fixed-bucket histograms — one relaxed atomic op per
//!   record, no allocation — snapshot-able as a plain
//!   [`metrics::MetricsSnapshot`] struct.
//! * **Warnings** ([`warn`]): the engine's warn-once diagnostics route
//!   here; with a sink installed they become capturable `Warning`
//!   events, otherwise they keep their historical stderr behaviour.
//!
//! The crate is `std`-only and dependency-free, so every workspace
//! crate can report into it without layering concerns.

// The tracer sits inside every hot loop; a panic here would take the
// engine's actual work down with it. Escalate, allowing tests.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod metrics;
mod sink;
mod span;

pub use sink::{Collector, CollectorGuard, JsonLinesSink, Sink};
pub use span::{
    enabled, event, flush, install, span, warn, warnings_emitted, FieldValue, Span, SpanKind,
    TraceRecord,
};
