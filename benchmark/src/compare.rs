//! `dcbench compare a.json b.json`: two reports of `dcbench run`, one
//! row per workload and end-to-end metric.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// A spread wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `base` and `new` are medians, the spreads quartile distances as
/// shares of them, `bound` the share by which `new` may be worse.
pub fn verdict(base: f64, new: f64, spread: f64, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => new / base - 1.0,
        Better::Higher => base / new - 1.0,
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn metric(report: &Json, name: &str) -> Option<(f64, f64)> {
    let m = report.get("metrics")?.get(name)?;
    let spread = m.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
    Some((m.get("value")?.as_f64()?, spread))
}

fn workloads(report: &Json) -> Result<&[Json], String> {
    report
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a report of `dcbench run`: no `workloads`".to_string())
}

/// The table, and whether any row regressed or any count differs.
pub fn compare(base: &Json, new: &Json) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<16} {:<12} {:>12} {:>12} {:<4} {:>8} {:>6}  {}\n",
        "workload", "metric", "base", "new", "unit", "new/base", "bound", "verdict"
    );
    let mut bad = false;
    for a in workloads(base)? {
        let name = a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(b) = workloads(new)?
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            table.push_str(&format!("{name:<16} missing from the second report\n"));
            bad = true;
            continue;
        };
        for def in &END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) = (metric(a, def.name), metric(b, def.name))
            else {
                table.push_str(&format!("{name:<16} {:<12} missing\n", def.name));
                bad = true;
                continue;
            };
            let v = verdict(va, vb, sa.max(sb), def.better, def.bound);
            bad |= v == Verdict::Regressed;
            table.push_str(&format!(
                "{name:<16} {:<12} {va:>12.4} {vb:>12.4} {:<4} {:>8.3} {:>6.2}  {}\n",
                def.name,
                def.unit,
                vb / va,
                def.bound,
                v.as_str()
            ));
        }
        let failed = |r: &Json| {
            r.get("failed_ops")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        let counts_repeat = a.get("counts") == b.get("counts");
        bad |= !counts_repeat || failed(a) != 0.0 || failed(b) != 0.0;
        table.push_str(&format!(
            "{name:<16} counts {}; failed ops {} and {}\n",
            if counts_repeat {
                "repeat exactly"
            } else {
                "DIFFER"
            },
            failed(a),
            failed(b)
        ));
    }
    Ok((table, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        use Better::*;
        use Verdict::*;
        assert_eq!(verdict(10.0, 10.9, 0.02, Lower, 0.10), Unchanged);
        assert_eq!(verdict(10.0, 11.1, 0.02, Lower, 0.10), Regressed);
        assert_eq!(verdict(10.0, 8.9, 0.02, Lower, 0.10), Improved);
        // A rate that falls is worse by base/new − 1.
        assert_eq!(verdict(100.0, 90.0, 0.02, Higher, 0.10), Regressed);
        assert_eq!(verdict(100.0, 112.0, 0.02, Higher, 0.10), Improved);
        assert_eq!(verdict(100.0, 95.0, 0.02, Higher, 0.10), Unchanged);
        // Too unsteady to tell, whatever the medians say.
        assert_eq!(verdict(10.0, 20.0, 0.15, Lower, 0.10), Unresolved);
    }

    fn report(op_ms: f64, derived: u64) -> Json {
        let metrics = END_TO_END.iter().map(|m| {
            let value = if m.name == "op_ms" { op_ms } else { 5.0 };
            (
                m.name,
                Json::obj([("value", Json::num(value)), ("spread", Json::num(0.01))]),
            )
        });
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("workload", Json::str("closure_deep")),
                ("failed_ops", Json::count(0)),
                ("metrics", Json::obj(metrics)),
                (
                    "counts",
                    Json::obj([("derived_tuples", Json::count(derived))]),
                ),
            ])]),
        )])
    }

    #[test]
    fn table_rows_and_exit() {
        let (table, bad) = compare(&report(10.0, 7), &report(10.5, 7)).unwrap();
        assert!(!bad, "{table}");
        assert!(table.contains("unchanged") && table.contains("repeat exactly"));
        assert_eq!(table.lines().count(), 1 + END_TO_END.len() + 1);

        let (table, bad) = compare(&report(10.0, 7), &report(13.0, 7)).unwrap();
        assert!(bad && table.contains("regressed"), "{table}");
        let (table, bad) = compare(&report(10.0, 7), &report(10.0, 8)).unwrap();
        assert!(bad && table.contains("DIFFER"), "{table}");
        assert!(compare(&Json::Null, &Json::Null).is_err());
    }
}
