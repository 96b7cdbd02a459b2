//! The built `dcbench` run end to end at smoke sizes: all four
//! workloads with their oracles, the traced pass, the line the driver
//! reads, and proof that the correctness check is live.

// The binary's own JSON module; the tests use only its reading half.
#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Mutex;

use json::Json;

const WORKLOADS: [&str; 4] = [
    "closure_deep",
    "closure_wide",
    "serve_mixed",
    "standing_stream",
];
const END_TO_END: [&str; 5] = ["op_ms", "ops_per_s", "write_ms", "setup_s", "peak_rss_mb"];

/// One benchmark process at a time: `serve_mixed` counts a writer that
/// starts a period late as a failed operation, and three smoke runs
/// racing for two cores can make one late.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn dcbench(out: &str, args: &[&str]) -> Output {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    Command::new(env!("CARGO_BIN_EXE_dcbench"))
        .args(args)
        .arg("--out")
        .arg(&out_dir)
        .env_remove("DC_TRACE")
        .output()
        .expect("dcbench starts")
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number `{key}` in {}", j.render()))
}

fn metric_names(report: &Json) -> Vec<String> {
    match report.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|p| p.0.clone()).collect(),
        other => panic!("no metrics object: {other:?}"),
    }
}

#[test]
fn smoke_run_checks_every_workload_and_traces_are_well_formed() {
    let output = dcbench("smoke", &["run", "--smoke", "--traced", "--seed", "7"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    let report = Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("a JSON report");

    let per_layer: Vec<String> = match Json::parse(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
        .get("per_layer")
    {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect(),
        _ => panic!("BENCHMARK.json has no per_layer list"),
    };

    for (section, names) in [
        ("workloads", END_TO_END.map(String::from).to_vec()),
        ("traced", per_layer),
    ] {
        let runs = report.get(section).and_then(Json::as_arr).unwrap();
        let ran: Vec<&str> = runs
            .iter()
            .map(|r| r.get("workload").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(ran, WORKLOADS);
        for run in runs {
            assert_eq!(num(run, "failed_ops"), 0.0, "{}", run.render());
            assert!(num(run, "attempted_ops") >= 1.0);
            assert_eq!(metric_names(run), names, "{section}");
            for name in &names {
                let value = num(run.get("metrics").unwrap().get(name).unwrap(), "value");
                assert!(value.is_finite(), "{name} = {value}");
            }
        }
    }

    for run in report.get("traced").and_then(Json::as_arr).unwrap() {
        let path = run.get("trace_file").and_then(Json::as_str).unwrap();
        let text = std::fs::read_to_string(path).expect("the trace file exists");
        let spans: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("every line is JSON"))
            .collect();
        assert_eq!(spans.len() as f64, num(run, "spans"));
        assert!(!spans.is_empty());

        let key = |s: &Json, id: &str| (num(s, "thread") as u64, num(s, id) as u64);
        let known: HashSet<(u64, u64)> = spans.iter().map(|s| key(s, "id")).collect();
        // Per operation: the root's duration and the sum of self times.
        let mut roots: HashMap<(u64, u64), f64> = HashMap::new();
        let mut own: HashMap<(u64, u64), f64> = HashMap::new();
        for s in &spans {
            let op = key(s, "op");
            match s.get("parent") {
                Some(Json::Null) => {
                    let duration = num(s, "end_ns") - num(s, "start_ns");
                    assert!(roots.insert(op, duration).is_none(), "two roots for one op");
                }
                Some(_) => assert!(known.contains(&key(s, "parent")), "orphan span"),
                None => panic!("span without a parent field"),
            }
            *own.entry(op).or_default() += num(s, "self_ns");
        }
        assert_eq!(roots.len(), own.len());
        for (op, duration) in roots {
            assert_eq!(own[&op], duration, "self times of op {op:?}");
        }
    }
}

#[test]
fn a_corrupted_oracle_fails_the_run() {
    let output = dcbench(
        "corrupt",
        &["run", "--smoke", "--corrupt-oracle", "--seed", "7"],
    );
    assert_eq!(output.status.code(), Some(1));
    let report = Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("a JSON report");
    for run in report.get("workloads").and_then(Json::as_arr).unwrap() {
        assert!(num(run, "failed_ops") > 0.0, "{}", run.render());
    }
}

#[test]
fn the_last_line_is_what_the_driver_reads() {
    for trace in ["0", "1"] {
        let output = dcbench(
            "driver",
            &[
                "--workload",
                "standing_stream",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ],
        );
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = Json::parse(stdout.lines().last().unwrap()).expect("a JSON line");
        let keys: Vec<&str> = match &line {
            Json::Obj(pairs) => pairs.iter().map(|p| p.0.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(num(&line, "failed"), 0.0);
        if trace == "0" {
            assert_eq!(metric_names(&line), END_TO_END);
        } else {
            assert_eq!(metric_names(&line).len(), 25);
        }
        for (_, m) in match line.get("metrics") {
            Some(Json::Obj(pairs)) => pairs,
            _ => unreachable!(),
        } {
            assert!(m.get("unit").and_then(Json::as_str).is_some());
            assert!(num(m, "value").is_finite());
        }
    }
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "closure_deep",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "closure_deep",
            "--seed",
            "1",
            "--seconds",
            "1",
        ],
    ] {
        let output = dcbench("bad", args);
        assert_eq!(output.status.code(), Some(2));
        assert!(output.stdout.is_empty());
    }
}
