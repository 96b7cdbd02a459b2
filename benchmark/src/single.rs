//! One workload in this process: set up (several times, for a steady
//! `setup_s`), measure, check, report. This is what the driver calls,
//! and what `dcbench run` starts once per workload so that no workload
//! inherits another's heap or caches.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::gen::Size;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::span::{self, Recorder};
use crate::stats::{median, relative_spread, Series};
use crate::workload::{cores, Kind, Outcome, Tally, Workload, ENGINE_THREADS};

#[derive(Debug, Clone)]
pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub corrupt_oracle: bool,
    /// How many times to set up; `setup_s` is the median.
    pub setups: usize,
    pub out_dir: PathBuf,
}

/// What one run hands back: the full report, and the one line the
/// driver reads.
pub struct Report {
    pub full: Json,
    pub line: Json,
    pub ok: bool,
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn value_unit(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))])
}

pub fn run(cfg: &Config, born: Instant) -> Result<Report, String> {
    let kind = cfg.kind;
    let size = if cfg.smoke { Size::Smoke } else { Size::Full };
    // Read by the engine at every solve; set before any thread exists.
    std::env::set_var("DC_THREADS", ENGINE_THREADS.to_string());

    let mut setup_s = Vec::new();
    let mut state: Option<Box<dyn Workload>> = None;
    for i in 0..cfg.setups.max(1) {
        drop(state.take());
        // The first set-up is timed from the start of the process.
        let t0 = if i == 0 { born } else { Instant::now() };
        state = Some(kind.setup(size, cfg.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    state.arm_oracle(cfg.corrupt_oracle);

    let mut head = vec![
        ("workload", Json::str(kind.name())),
        ("seed", Json::count(cfg.seed)),
        ("seconds", Json::num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("engine_threads", Json::count(ENGINE_THREADS as u64)),
        ("clients", Json::count(kind.clients() as u64)),
        ("cores", Json::count(cores() as u64)),
        (
            "dc_trace_armed",
            Json::Bool(std::env::var_os("DC_TRACE").is_some()),
        ),
    ];

    let (tally, metrics, body) = if cfg.trace {
        traced(cfg, state.as_mut())?
    } else {
        let out = state.measure(cfg.seconds, Recorder::off());
        let (metrics, body) = end_to_end(kind, &out, &mut setup_s)?;
        (out.tally, metrics, body)
    };

    head.extend([
        ("attempted_ops", Json::count(tally.attempted)),
        ("failed_ops", Json::count(tally.failed)),
        (
            "failures",
            Json::Arr(tally.reasons.iter().map(Json::str).collect()),
        ),
    ]);
    head.extend(body);
    head.push(("wall_s", Json::num(born.elapsed().as_secs_f64())));

    let ok = tally.failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(ok)),
        ("attempted", Json::count(tally.attempted.max(1))),
        ("failed", Json::count(tally.failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| (name.to_string(), value_unit(value, unit)))
                    .collect(),
            ),
        ),
    ]);
    Ok(Report {
        full: Json::obj(head),
        line,
        ok,
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;
type Body = Vec<(&'static str, Json)>;

/// The untraced run: every end-to-end metric, in `END_TO_END`'s order.
fn end_to_end(kind: Kind, out: &Outcome, setup_s: &mut [f64]) -> Result<(Metrics, Body), String> {
    let too_short = || format!("the window held no {} operation", kind.name());
    let timed = [
        out.op.latency(out.window_s).ok_or_else(too_short)?,
        out.completions.rate(out.window_s).ok_or_else(too_short)?,
        out.write.latency(out.window_s).ok_or_else(too_short)?,
    ];
    let mut rows: Vec<(f64, Json)> = Vec::new();
    for ((summary, def), is) in timed.iter().zip(&END_TO_END).zip(kind.meaning()) {
        let mut json = summary.to_json(def.unit);
        if let Json::Obj(fields) = &mut json {
            fields.push(("is".to_string(), Json::str(is)));
        }
        rows.push((summary.value, json));
    }
    let setup_spread = relative_spread(setup_s);
    let setup = median(setup_s);
    rows.push((
        setup,
        Json::obj([
            ("value", Json::num(setup)),
            ("unit", Json::str("s")),
            ("n", Json::count(setup_s.len() as u64)),
            ("spread", Json::num(setup_spread)),
        ]),
    ));
    let rss = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    rows.push((rss, value_unit(rss, "MiB")));

    assert_eq!(rows.len(), END_TO_END.len());
    let mut metrics = Vec::new();
    let mut rich = Vec::new();
    for (def, (value, json)) in END_TO_END.iter().zip(rows) {
        metrics.push((def.name, value, def.unit));
        rich.push((def.name, json));
    }
    let body = vec![
        ("window_s", Json::num(out.window_s)),
        ("metrics", Json::obj(rich)),
        ("counts", Json::obj(out.counts.clone())),
        ("detail", Json::obj(out.detail.clone())),
    ];
    Ok((metrics, body))
}

fn median_of(series: &Series, window_s: f64) -> Result<f64, String> {
    series
        .latency(window_s)
        .map(|s| s.value)
        .ok_or_else(|| "the window held no operation".to_string())
}

/// The traced run: a plain window, the same window again with the
/// benchmark's spans on, the per-layer probes, and two short child
/// runs with the engine's own tracing off and on.
fn traced(cfg: &Config, state: &mut dyn Workload) -> Result<(Tally, Metrics, Body), String> {
    let kind = cfg.kind;
    let quarter = cfg.seconds / 4.0;
    let plain = state.measure(quarter, Recorder::off());
    let with_spans = state.measure(quarter, Recorder::on(0, Instant::now()));
    let plain_ms = median_of(&plain.op, plain.window_s)?;
    let spans_ms = median_of(&with_spans.op, with_spans.window_s)?;

    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{:?}: {e}", cfg.out_dir))?;
    let trace_file = cfg.out_dir.join(format!("trace-{}.jsonl", kind.name()));
    span::write_jsonl(&trace_file, &with_spans.spans)
        .map_err(|e| format!("{trace_file:?}: {e}"))?;
    let total_ns: u64 = span::self_times(&with_spans.spans).iter().sum();
    let self_time: Vec<Json> = span::self_time_by_name(&with_spans.spans)
        .into_iter()
        .map(|(name, ns, count)| {
            Json::obj([
                ("span", Json::str(name)),
                ("count", Json::count(count)),
                ("self_ms", Json::num(ns as f64 / 1e6)),
                ("share", Json::num(ns as f64 / total_ns.max(1) as f64)),
            ])
        })
        .collect();

    let probe_time = if cfg.smoke {
        probes::PROBE_TIME / 10
    } else {
        probes::PROBE_TIME
    };
    let probed = probes::run(state.inputs(), probe_time)?;

    let engine_trace = cfg
        .out_dir
        .join(format!("engine-trace-{}.jsonl", kind.name()));
    let unarmed = child_op_ms(cfg, quarter / 2.0, None)?;
    let armed = child_op_ms(cfg, quarter / 2.0, Some(&engine_trace))?;
    // The engine's trace grows with the window; nobody reads it here.
    let _ = std::fs::remove_file(&engine_trace);

    let mut values = probed.metrics;
    values.push(("trace.armed_overhead_pct", (armed / unarmed - 1.0) * 100.0));
    values.push((
        "bench.trace_overhead_pct",
        (spans_ms / plain_ms - 1.0) * 100.0,
    ));
    let metrics: Metrics = PER_LAYER
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|v| v.0 == def.name)
                .unwrap_or_else(|| panic!("no probe reports {}", def.name))
                .1;
            (def.name, value, def.unit)
        })
        .collect();

    let mut tally = plain.tally;
    tally.merge(with_spans.tally);
    tally.merge(probed.tally);
    let body = vec![
        ("window_s", Json::num(with_spans.window_s)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| (name.to_string(), value_unit(value, unit)))
                    .collect(),
            ),
        ),
        (
            "threads_compared",
            Json::count(probed.threads_compared as u64),
        ),
        ("op_ms_plain", Json::num(plain_ms)),
        ("op_ms_with_spans", Json::num(spans_ms)),
        ("op_ms_child_unarmed", Json::num(unarmed)),
        ("op_ms_child_dc_trace", Json::num(armed)),
        ("counts", Json::obj(with_spans.counts)),
        ("trace_file", Json::str(trace_file.display().to_string())),
        ("spans", Json::count(with_spans.spans.len() as u64)),
        ("self_time", Json::Arr(self_time)),
    ];
    Ok((tally, metrics, body))
}

/// `op_ms` of a short untraced run of the same workload in a child
/// process, with `DC_TRACE` pointing at `engine_trace` or unset. The
/// engine reads `DC_TRACE` once per process, hence the child.
fn child_op_ms(cfg: &Config, seconds: f64, engine_trace: Option<&Path>) -> Result<f64, String> {
    let mut cmd = child_command(&Config {
        seconds,
        trace: false,
        setups: 1,
        corrupt_oracle: false,
        ..cfg.clone()
    })?;
    match engine_trace {
        Some(path) => cmd.env("DC_TRACE", path),
        None => cmd.env_remove("DC_TRACE"),
    };
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last)
        .ok()
        .as_ref()
        .and_then(|j| j.get("metrics")?.get("op_ms")?.get("value")?.as_f64())
        .ok_or_else(|| {
            format!(
                "child run ended with {} and no op_ms: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            )
        })
}

/// This program again, for the one-workload run `cfg` describes.
pub fn child_command(cfg: &Config) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", cfg.kind.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .args(["--setups", &cfg.setups.to_string()])
        .arg("--out")
        .arg(&cfg.out_dir);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    if cfg.corrupt_oracle {
        cmd.arg("--corrupt-oracle");
    }
    Ok(cmd)
}
