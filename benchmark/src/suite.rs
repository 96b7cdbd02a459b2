//! `dcbench run`: every workload, each in a child process of its own,
//! gathered into one report.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::single;
use crate::workload::{cores, Kind};

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub corrupt_oracle: bool,
    pub setups: usize,
    pub out_dir: PathBuf,
}

/// Start this program again for one workload and read its full report,
/// the first of the two lines it prints.
fn child(cfg: &Config, kind: Kind, trace: bool) -> Result<(Json, bool), String> {
    let mut cmd = single::child_command(&single::Config {
        kind,
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace,
        smoke: cfg.smoke,
        corrupt_oracle: cfg.corrupt_oracle,
        setups: cfg.setups,
        out_dir: cfg.out_dir.clone(),
    })?;
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("{}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = stdout
        .lines()
        .next()
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| {
            format!(
                "{} ended with {} and no report: {}",
                kind.name(),
                output.status,
                String::from_utf8_lossy(&output.stderr)
            )
        })?;
    Ok((report, output.status.success()))
}

pub fn run(cfg: &Config, command_line: String) -> Result<(Json, bool), String> {
    let began = Instant::now();
    let mut ok = true;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for kind in Kind::ALL {
        eprintln!("dcbench: {} …", kind.name());
        let (report, good) = child(cfg, kind, false)?;
        ok &= good;
        untraced.push(report);
        if cfg.traced {
            let (report, good) = child(cfg, kind, true)?;
            ok &= good;
            traced.push(report);
        }
    }
    let bounds = END_TO_END.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::num(m.bound)),
            ]),
        )
    });
    let layers = PER_LAYER.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ]),
        )
    });
    let report = Json::obj([
        ("command", Json::str(command_line)),
        ("seed", Json::count(cfg.seed)),
        ("seconds", Json::num(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("cores", Json::count(cores() as u64)),
        ("wall_s", Json::num(began.elapsed().as_secs_f64())),
        ("end_to_end", Json::obj(bounds)),
        ("per_layer", Json::obj(layers)),
        ("workloads", Json::Arr(untraced)),
        ("traced", Json::Arr(traced)),
    ]);
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{:?}: {e}", cfg.out_dir))?;
    let path = cfg.out_dir.join(format!("result-{}.json", cfg.seed));
    std::fs::write(&path, report.pretty()).map_err(|e| format!("{path:?}: {e}"))?;
    eprintln!("dcbench: wrote {}", path.display());
    Ok((report, ok))
}
