//! Statistics the reports are built from: medians over sub-windows of
//! the measured window, quartile distances, tail selection, and the
//! open-loop writer's lateness.

use crate::json::Json;

/// Median of a non-empty slice (sorts it).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), because that is what the
/// acceptance check computes over repeated runs. Needs two values.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    let at = |k: usize| {
        let pos = (n + 1) as f64 * k as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Quartile distance as a share of the median; 0 for a single value.
pub fn relative_spread(values: &mut [f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// The first quartile, or the third when higher is better; the one
/// value itself when there is only one.
fn better_quartile(values: &mut [f64], higher_is_better: bool) -> f64 {
    if values.len() < 2 {
        return values[0];
    }
    let (q1, q3) = quartiles(values);
    if higher_is_better {
        q3
    } else {
        q1
    }
}

/// The highest of a few fixed percentiles that still has at least ten
/// samples beyond it, and the value there. `None` below 40 samples.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len() as f64;
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| {
            let rank = (p / 100.0 * n).ceil() as usize;
            (p, sorted[rank.clamp(1, sorted.len()) - 1])
        })
}

/// One measured quantity: `(seconds since the window opened, value)`.
#[derive(Debug, Default, Clone)]
pub struct Series {
    samples: Vec<(f64, f64)>,
}

/// What a series reports.
///
/// Every sub-window gives the median of its samples (a rate: its
/// completions over the time they took). `value` is the *better
/// quartile* of those — the first for a latency, the third for a rate:
/// the level the quieter part of the window holds. On a shared box
/// interference comes in bursts of seconds and only ever adds time, so
/// the median over sub-windows moves with it from run to run while the
/// better quartile does not; a real regression slows every sub-window
/// and moves the quartile just as far.
#[derive(Debug, Clone)]
pub struct Summary {
    pub value: f64,
    /// Quartile distance of the sub-window values over their median:
    /// how disturbed the window was.
    pub spread: f64,
    /// Median over all samples (a rate: over the whole window).
    pub overall: f64,
    pub n: usize,
    /// `(percentile, value)` of the highest supported tail.
    pub tail: Option<(f64, f64)>,
    /// The sub-windows' own values, in time order.
    pub windows: Vec<f64>,
}

impl Summary {
    pub fn to_json(&self, unit: &str) -> Json {
        let mut pairs = vec![
            ("value".to_string(), Json::num(self.value)),
            ("unit".to_string(), Json::str(unit)),
            ("n".to_string(), Json::count(self.n as u64)),
            ("spread".to_string(), Json::num(self.spread)),
            ("overall".to_string(), Json::num(self.overall)),
        ];
        if let Some((p, v)) = self.tail {
            pairs.push((
                "tail".to_string(),
                Json::obj([("percentile", Json::num(p)), ("value", Json::num(v))]),
            ));
        }
        pairs.push((
            "windows".to_string(),
            Json::Arr(self.windows.iter().map(|&w| Json::num(w)).collect()),
        ));
        Json::Obj(pairs)
    }
}

pub const SUB_WINDOWS: usize = 20;

impl Series {
    pub fn push(&mut self, at_s: f64, value: f64) {
        self.samples.push((at_s, value));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    fn per_window(&self, window_s: f64) -> Vec<Vec<f64>> {
        let mut parts = vec![Vec::new(); SUB_WINDOWS];
        for &(at, v) in &self.samples {
            let i = ((at / window_s) * SUB_WINDOWS as f64) as usize;
            parts[i.min(SUB_WINDOWS - 1)].push(v);
        }
        parts
    }

    /// Median of the sample values: per sub-window, then across them.
    /// Sub-windows without a sample are left out (a window shorter
    /// than five operations cannot fill all five).
    pub fn latency(&self, window_s: f64) -> Option<Summary> {
        let mut medians: Vec<f64> = self
            .per_window(window_s)
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(|mut p| median(&mut p))
            .collect();
        if medians.is_empty() {
            return None;
        }
        let mut all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        all.sort_unstable_by(f64::total_cmp);
        let windows = medians.clone();
        Some(Summary {
            spread: relative_spread(&mut medians),
            value: better_quartile(&mut medians, false),
            overall: median(&mut all),
            n: all.len(),
            tail: supported_tail(&all),
            windows,
        })
    }

    /// Samples completed per second: per sub-window, then the median.
    /// A sub-window's rate is its completions over the time from the
    /// last completion before it to its own last one, so it does not
    /// move in steps of one operation per sub-window.
    pub fn rate(&self, window_s: f64) -> Option<Summary> {
        let mut at: Vec<f64> = self.samples.iter().map(|s| s.0).collect();
        at.sort_unstable_by(f64::total_cmp);
        let part_s = window_s / SUB_WINDOWS as f64;
        let mut rates = Vec::new();
        let (mut from, mut seen) = (0.0, 0);
        for w in 1..=SUB_WINDOWS {
            let upto = if w == SUB_WINDOWS {
                at.len()
            } else {
                at.partition_point(|&t| t < part_s * w as f64)
            };
            if upto > seen {
                let last = at[upto - 1];
                rates.push((upto - seen) as f64 / (last - from));
                (from, seen) = (last, upto);
            }
        }
        if rates.is_empty() {
            return None;
        }
        let windows = rates.clone();
        Some(Summary {
            spread: relative_spread(&mut rates),
            value: better_quartile(&mut rates, true),
            overall: at.len() as f64 / at[at.len() - 1],
            n: at.len(),
            tail: None,
            windows,
        })
    }
}

/// How late an open-loop generator started its operations.
#[derive(Debug, Default, Clone)]
pub struct Lateness {
    late_ms: Vec<f64>,
}

impl Lateness {
    pub fn push(&mut self, late_ms: f64) {
        self.late_ms.push(late_ms);
    }

    /// Operations that started more than `period_ms` after they were due.
    pub fn missed(&self, period_ms: f64) -> usize {
        self.late_ms.iter().filter(|&&l| l > period_ms).count()
    }

    pub fn to_json(&self, period_ms: f64) -> Json {
        let mut v = self.late_ms.clone();
        if v.is_empty() {
            return Json::Null;
        }
        Json::obj([
            ("sent", Json::count(v.len() as u64)),
            ("period_ms", Json::num(period_ms)),
            ("median_late_ms", Json::num(median(&mut v))),
            ("max_late_ms", Json::num(v[v.len() - 1])),
            (
                "more_than_one_period_late",
                Json::count(self.missed(period_ms) as u64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let mut v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quartiles(&mut v), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut w), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&mut [10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn sub_window_medians_their_better_quartile_and_spread() {
        // Twenty sub-windows of a 20 s window with medians 1..=20,
        // three samples each, the last half a second in.
        let mut s = Series::default();
        for w in 0..SUB_WINDOWS {
            for k in [-0.25, 0.0, 0.25] {
                s.push(w as f64 + 0.25 + k, (w + 1) as f64 + k);
            }
        }
        let sum = s.latency(20.0).unwrap();
        assert_eq!(sum.windows, (1..=20).map(f64::from).collect::<Vec<_>>());
        // statistics.quantiles(range(1, 21), n=4) == [5.25, 10.5, 15.75]
        assert_eq!(sum.value, 5.25);
        assert_eq!(sum.spread, 1.0);
        assert_eq!(sum.overall, 10.5);
        assert_eq!(sum.n, 60);
        // A slow stretch in the worse half moves the spread, not the value.
        let mut disturbed = s.clone();
        for w in 10..SUB_WINDOWS {
            for _ in 0..4 {
                disturbed.push(w as f64 + 0.1, 1000.0);
            }
        }
        let d = disturbed.latency(20.0).unwrap();
        assert_eq!(d.value, 5.25);
        assert_eq!(d.spread, (1000.0 - 5.25) / 505.0);

        // Three completions per second, except that the first second's
        // last one comes half a second in: 6/s there, 3/s after.
        let r = s.rate(20.0).unwrap();
        assert_eq!(r.windows[0], 6.0);
        assert_eq!(r.windows[1..], [3.0; 19]);
        assert_eq!(r.value, 3.0);
        assert_eq!(r.n, 60);
    }

    #[test]
    fn empty_sub_windows_are_left_out() {
        let mut s = Series::default();
        s.push(0.1, 7.0);
        s.push(9.9, 9.0);
        // Two sub-windows: quantiles([7, 9], n=4)[0] == 6.5.
        assert_eq!(s.latency(10.0).unwrap().value, 6.5);
        assert_eq!(s.latency(10.0).unwrap().windows, [7.0, 9.0]);
        s = Series::default();
        s.push(3.0, 7.0);
        assert_eq!(s.latency(10.0).unwrap().value, 7.0);
        assert!(Series::default().latency(10.0).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly ten beyond it, p99.9 one.
        assert_eq!(supported_tail(&sorted), Some((99.0, 990.0)));
        assert_eq!(supported_tail(&sorted[..200]), Some((95.0, 190.0)));
        assert_eq!(supported_tail(&sorted[..40]), Some((75.0, 30.0)));
        assert_eq!(supported_tail(&sorted[..39]), None);
    }

    #[test]
    fn lateness_counts_missed_periods() {
        let mut l = Lateness::default();
        for late in [0.1, 0.2, 49.0, 51.0, 120.0] {
            l.push(late);
        }
        assert_eq!(l.missed(50.0), 2);
        let j = l.to_json(50.0);
        assert_eq!(j.get("median_late_ms").unwrap().as_f64(), Some(49.0));
        assert_eq!(j.get("max_late_ms").unwrap().as_f64(), Some(120.0));
    }
}
