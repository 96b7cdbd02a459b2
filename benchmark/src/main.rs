//! `dcbench`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! dcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! dcbench run [--seed <n>] [--seconds <s>] [--traced] [--smoke]      every workload, one child each
//! dcbench compare <a.json> <b.json>                                  two reports of `run`
//! ```

mod affinity;
mod closure;
mod compare;
mod engine;
mod gen;
mod json;
mod metrics;
mod oracle;
mod probes;
mod rng;
mod serve;
mod single;
mod span;
mod stats;
mod stream;
mod suite;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use workload::Kind;

const USAGE: &str = "usage:
  dcbench --workload <closure_deep|closure_wide|serve_mixed|standing_stream>
          --seed <u64> --seconds <s> --trace <0|1>
          [--smoke] [--corrupt-oracle] [--setups <n>] [--out <dir>]
  dcbench run [--seed <u64>] [--seconds <s>] [--traced] [--smoke]
          [--corrupt-oracle] [--setups <n>] [--out <dir>]
  dcbench compare <a.json> <b.json>";

/// Flags of both running modes; each mode checks what it needs.
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    traced: bool,
    smoke: bool,
    corrupt_oracle: bool,
    setups: Option<usize>,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: None,
        seconds: None,
        trace: None,
        traced: false,
        smoke: false,
        corrupt_oracle: false,
        setups: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.to_string()),
            "--seed" => out.seed = Some(value()?.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be above 0 and at most 3600"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--setups" => {
                let n: usize = value()?.parse().map_err(|_| bad("not a count"))?;
                if !(1..=100).contains(&n) {
                    return Err(bad("must be 1 to 100"));
                }
                out.setups = Some(n);
            }
            "--out" => out.out_dir = PathBuf::from(value()?),
            "--traced" => out.traced = true,
            "--smoke" => out.smoke = true,
            "--corrupt-oracle" => out.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// Full sizes: five set-ups, so `setup_s` is a median. Smoke: one.
fn default_setups(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        5
    }
}

fn one_workload(args: Args, born: Instant) -> Result<bool, String> {
    let name = args.workload.ok_or("--workload is required")?;
    let cfg = single::Config {
        kind: Kind::parse(&name).ok_or_else(|| format!("no workload named {name}"))?,
        seed: args.seed.ok_or("--seed is required")?,
        seconds: args.seconds.ok_or("--seconds is required")?,
        trace: args.trace.ok_or("--trace is required")?,
        smoke: args.smoke,
        corrupt_oracle: args.corrupt_oracle,
        setups: args.setups.unwrap_or(default_setups(args.smoke)),
        out_dir: args.out_dir,
    };
    let report = single::run(&cfg, born)?;
    println!("{}", report.full.render());
    println!("{}", report.line.render());
    Ok(report.ok)
}

fn every_workload(args: Args, command_line: String) -> Result<bool, String> {
    let cfg = suite::Config {
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds.unwrap_or(if args.smoke { 1.5 } else { 30.0 }),
        traced: args.traced,
        smoke: args.smoke,
        corrupt_oracle: args.corrupt_oracle,
        setups: args.setups.unwrap_or(default_setups(args.smoke)),
        out_dir: args.out_dir,
    };
    let (report, ok) = suite::run(&cfg, command_line)?;
    print!("{}", report.pretty());
    Ok(ok)
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two files".to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, bad) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let born = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("run") => parse_args(&args[1..])
            .and_then(|a| every_workload(a, format!("dcbench {}", args.join(" ")))),
        _ => parse_args(&args).and_then(|a| one_workload(a, born)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Something ran and was wrong: a failed operation, a regressed row.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("dcbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
