//! Typed metrics registry: counters, gauges, and fixed-bucket
//! histograms with one relaxed atomic op per record and no allocation.
//!
//! The registry is *not* process-global: `Database` and `Server` each
//! own an `Arc<MetricsRegistry>` and thread it to the layers doing the
//! work, so parallel tests (and parallel servers) never share state.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$meta:meta])* $variant:ident => $field:ident),* $(,)?) => {
        /// Counter taxonomy. Each variant indexes a fixed atomic slot.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$meta])* $variant),*
        }

        impl Counter {
            /// Number of counters in the registry.
            pub const COUNT: usize = [$(Counter::$variant),*].len();
            /// All counters, in declaration order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),*];

            /// Stable snake_case name used in snapshots and JSON.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($field)),*
                }
            }
        }

        /// Plain-struct snapshot of every counter (fields in counter
        /// order) plus the histogram summaries.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct MetricsSnapshot {
            $($(#[$meta])* pub $field: u64,)*
            /// Gauge: currently registered standing-query subscriptions.
            pub live_subscriptions: u64,
            /// Gauge: epoch of the most recently published snapshot.
            pub published_epoch: u64,
            /// Latency of `Server` commits (apply + publish + refresh).
            pub commit_latency_us: HistogramSnapshot,
            /// Lag from snapshot publish to each subscription update.
            pub refresh_lag_us: HistogramSnapshot,
            /// Latency of session queries (ad-hoc and prepared).
            pub query_latency_us: HistogramSnapshot,
            /// Wall time of whole fixpoint solves.
            pub solve_latency_us: HistogramSnapshot,
        }

        impl MetricsSnapshot {
            fn counter_fields(&self) -> [(&'static str, u64); Counter::COUNT] {
                [$((stringify!($field), self.$field)),*]
            }

            fn from_registry(reg: &MetricsRegistry) -> Self {
                MetricsSnapshot {
                    $($field: reg.counters[Counter::$variant as usize]
                        .load(Ordering::Relaxed),)*
                    live_subscriptions: reg.gauge(Gauge::LiveSubscriptions),
                    published_epoch: reg.gauge(Gauge::PublishedEpoch),
                    commit_latency_us: reg.hists[Histogram::CommitLatencyUs as usize].snapshot(),
                    refresh_lag_us: reg.hists[Histogram::RefreshLagUs as usize].snapshot(),
                    query_latency_us: reg.hists[Histogram::QueryLatencyUs as usize].snapshot(),
                    solve_latency_us: reg.hists[Histogram::SolveLatencyUs as usize].snapshot(),
                }
            }
        }
    };
}

counters! {
    /// Fixpoint solves started.
    SolveRuns => solve_runs,
    /// Fixpoint rounds executed across all solves.
    SolveRounds => solve_rounds,
    /// Tuples carried in semi-naive deltas across all rounds.
    DeltaTuples => delta_tuples,
    /// Branch plans that chose at least one index probe.
    ProbePlans => probe_plans,
    /// Branch plans that fell back to scans only.
    ScanPlans => scan_plans,
    /// Quantifier ranges planned as index probes.
    QuantProbes => quant_probes,
    /// Quantifier ranges demoted to scans (see plan events for why).
    QuantScans => quant_scans,
    /// Decorrelated quantifier plans built.
    DecorrBuilds => decorr_builds,
    /// Decorrelation attempts refused (see plan events for why).
    DecorrRefusals => decorr_refusals,
    /// Branches evaluated by parallel workers.
    ParallelBranches => parallel_branches,
    /// Branches evaluated inline on the solver thread.
    SequentialBranches => sequential_branches,
    /// Branches degraded to the sequential path after a worker panic.
    DegradedBranches => degraded_branches,
    /// Warm-map hits: solved constructor results.
    WarmSolvedHits => warm_solved_hits,
    /// Warm-map misses: solved constructor results.
    WarmSolvedMisses => warm_solved_misses,
    /// Access-cache lookups that found a hash index (counted per
    /// lookup, by the cache itself, into its owner's registry).
    WarmIndexHits => warm_index_hits,
    /// Access-cache lookups that had to build a hash index.
    WarmIndexMisses => warm_index_misses,
    /// Access-cache lookups that found relation statistics.
    WarmStatsHits => warm_stats_hits,
    /// Access-cache lookups that had to collect relation statistics.
    WarmStatsMisses => warm_stats_misses,
    /// Access-cache lookups that found a decorrelation decision.
    WarmDecorrHits => warm_decorr_hits,
    /// Access-cache lookups that left the decorrelation analysis (and
    /// build) to the evaluator.
    WarmDecorrMisses => warm_decorr_misses,
    /// Server commits published.
    Commits => commits,
    /// Server commits rejected by conflict validation.
    Conflicts => conflicts,
    /// Sessions opened.
    Sessions => sessions,
    /// Session queries executed (ad-hoc and prepared).
    Queries => queries,
    /// Subscription updates delivered.
    SubscriptionUpdates => subscription_updates,
    /// Subscription refreshes served from the warm (incremental) path.
    RefreshWarm => refresh_warm,
    /// Subscription refreshes that recomputed from scratch.
    RefreshCold => refresh_cold,
    /// Subscription refreshes skipped (commit disjoint from reads).
    RefreshSkipped => refresh_skipped,
    /// Warn-once diagnostics emitted. Warn-once state is
    /// process-global, so snapshots also fold in
    /// [`warnings_emitted`](crate::warnings_emitted).
    Warnings => warnings,
}

/// Gauge taxonomy: last-write-wins values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Currently registered standing-query subscriptions.
    LiveSubscriptions,
    /// Epoch of the most recently published snapshot.
    PublishedEpoch,
}

impl Gauge {
    const COUNT: usize = 2;

    /// Stable snake_case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::LiveSubscriptions => "live_subscriptions",
            Gauge::PublishedEpoch => "published_epoch",
        }
    }
}

/// Histogram taxonomy. All histograms record microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Histogram {
    /// `Server` commit latency (apply + publish + refresh).
    CommitLatencyUs,
    /// Publish-to-delivery lag per subscription update.
    RefreshLagUs,
    /// Session query latency.
    QueryLatencyUs,
    /// Whole-solve wall time.
    SolveLatencyUs,
}

impl Histogram {
    const COUNT: usize = 4;
}

/// Number of histogram buckets. Bucket `i` counts observations with
/// `value < 4^i` µs (the last bucket is unbounded), spanning sub-µs to
/// minutes in 16 steps.
pub const HIST_BUCKETS: usize = 16;

fn bucket_of(us: u64) -> usize {
    // 4^i upper bounds: 1, 4, 16, ... — i.e. two bits per bucket.
    let bits = 64 - us.leading_zeros() as usize;
    (bits / 2 + usize::from(!bits.is_multiple_of(2))).min(HIST_BUCKETS - 1)
}

/// Upper bound (exclusive, µs) of bucket `i`; `u64::MAX` for the last.
pub fn bucket_bound(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << (2 * i)
    }
}

#[derive(Default)]
struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn observe(&self, us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, cell) in buckets.iter_mut().zip(&self.buckets) {
            *out = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Snapshot of one histogram: total count, sum, and per-bucket counts
/// (bucket `i` holds observations `< 4^i` µs; last bucket unbounded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_us: u64,
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum_us: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean observation in µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (µs) of the bucket containing quantile `q` in
    /// `[0, 1]` — a coarse percentile adequate for dashboards.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        u64::MAX
    }
}

/// The registry: fixed atomic slots, shareable via `Arc`, recordable
/// from any thread with no locks and no allocation.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    hists: [HistCell; Histogram::COUNT],
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Owners (solver configs, servers) derive Debug; dumping every
        // atomic slot there would be noise — the snapshot is the
        // readable view.
        f.write_str("MetricsRegistry")
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Read one counter's current value.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Set a gauge to `v` (last write wins).
    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].store(v, Ordering::Relaxed);
    }

    /// Read one gauge's current value.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Record one observation (µs) into a histogram.
    #[inline]
    pub fn observe_us(&self, h: Histogram, us: u64) {
        self.hists[h as usize].observe(us);
    }

    /// Consistent-enough point-in-time copy of every metric (each slot
    /// is read atomically; cross-slot skew is bounded by in-flight
    /// increments).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::from_registry(self);
        // Warn-once diagnostics are counted process-globally (the
        // warn-once registry itself is global); fold them in here so
        // every owner's snapshot reflects them.
        snap.warnings += crate::warnings_emitted();
        snap
    }
}

impl MetricsSnapshot {
    /// Counter values paired with their stable names, in declaration
    /// order — the iteration surface for exporters.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counter_fields().to_vec()
    }

    /// Hit rate in `[0, 1]` across the solved memo and the three
    /// access-cache kinds, or
    /// `None` when nothing was looked up.
    pub fn warm_hit_rate(&self) -> Option<f64> {
        let hits = self.warm_solved_hits
            + self.warm_index_hits
            + self.warm_stats_hits
            + self.warm_decorr_hits;
        let total = hits
            + self.warm_solved_misses
            + self.warm_index_misses
            + self.warm_stats_misses
            + self.warm_decorr_misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }

    /// Compact single-line JSON object. Zero counters are elided to
    /// keep bench rows readable; histograms render as
    /// `{"count":..,"mean_us":..,"p95_us":..}`. Key names never
    /// collide with the bench baseline parser's `workload`/`speedup`
    /// probes and the output contains no `[`, so a snapshot can be
    /// embedded inline in a `BENCH_*.json` row.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        let gauges = [
            ("live_subscriptions", self.live_subscriptions),
            ("published_epoch", self.published_epoch),
        ];
        for (name, value) in self.counter_fields().into_iter().chain(gauges) {
            if value == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{name}\":{value}"));
        }
        for (name, hist) in [
            ("commit_latency_us", &self.commit_latency_us),
            ("refresh_lag_us", &self.refresh_lag_us),
            ("query_latency_us", &self.query_latency_us),
            ("solve_latency_us", &self.solve_latency_us),
        ] {
            if hist.count == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"mean_us\":{},\"p95_us\":{}}}",
                hist.count,
                hist.mean_us(),
                hist.quantile_us(0.95)
            ));
        }
        out.push('}');
        out
    }
}

/// Multi-line human-readable rendering: non-zero counters one per
/// line, then non-empty histograms — the unified snapshot print used
/// by the bench harness.
impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, value) in self.counter_fields() {
            if value != 0 {
                writeln!(f, "  {name}: {value}")?;
            }
        }
        if let Some(rate) = self.warm_hit_rate() {
            writeln!(f, "  warm_hit_rate: {:.3}", rate)?;
        }
        for (name, hist) in [
            ("commit_latency_us", &self.commit_latency_us),
            ("refresh_lag_us", &self.refresh_lag_us),
            ("query_latency_us", &self.query_latency_us),
            ("solve_latency_us", &self.solve_latency_us),
        ] {
            if hist.count != 0 {
                writeln!(
                    f,
                    "  {name}: count={} mean={}us p95<{}us",
                    hist.count,
                    hist.mean_us(),
                    hist.quantile_us(0.95)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(15), 2);
        assert_eq!(bucket_of(16), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Every value lands in the bucket whose bound exceeds it.
        for us in [0u64, 1, 5, 100, 4095, 1 << 20, 1 << 40] {
            let b = bucket_of(us);
            assert!(us < bucket_bound(b), "{us} !< bound of bucket {b}");
            if b > 0 {
                assert!(us >= bucket_bound(b - 1), "{us} misplaced high");
            }
        }
    }

    #[test]
    fn snapshot_reflects_recorded_values() {
        let reg = MetricsRegistry::new();
        reg.inc(Counter::SolveRuns);
        reg.add(Counter::DeltaTuples, 42);
        reg.set_gauge(Gauge::PublishedEpoch, 7);
        reg.observe_us(Histogram::CommitLatencyUs, 100);
        reg.observe_us(Histogram::CommitLatencyUs, 300);
        let snap = reg.snapshot();
        assert_eq!(snap.solve_runs, 1);
        assert_eq!(snap.delta_tuples, 42);
        assert_eq!(snap.published_epoch, 7);
        assert_eq!(snap.commit_latency_us.count, 2);
        assert_eq!(snap.commit_latency_us.mean_us(), 200);
        assert!(snap.commit_latency_us.quantile_us(0.95) >= 300);
    }

    #[test]
    fn warm_hit_rate_and_json() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.snapshot().warm_hit_rate(), None);
        reg.inc(Counter::WarmSolvedHits);
        reg.inc(Counter::WarmSolvedHits);
        reg.inc(Counter::WarmIndexMisses);
        reg.inc(Counter::WarmStatsMisses);
        let snap = reg.snapshot();
        assert_eq!(snap.warm_hit_rate(), Some(0.5));
        let json = snap.to_json();
        assert!(json.contains("\"warm_solved_hits\":2"), "{json}");
        // Safe for inline embedding in bench rows.
        assert!(!json.contains('['), "{json}");
        assert!(!json.contains("workload"), "{json}");
    }

    #[test]
    fn counter_names_are_stable() {
        assert_eq!(Counter::SolveRounds.name(), "solve_rounds");
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
    }
}
