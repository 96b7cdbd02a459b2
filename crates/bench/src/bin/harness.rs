//! Text-report harness: one section per experiment (E1–E7), printing
//! the measured rows recorded in `EXPERIMENTS.md`.
//!
//! Criterion gives statistically careful timings (`cargo bench`); this
//! binary gives the *shape* report — who wins, by what factor, where
//! the crossovers are — in a form directly comparable to the paper's
//! qualitative claims.
//!
//! Run with: `cargo run --release --bin harness`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dc_bench::*;
use dc_calculus::builder::{cnst, rel};
use dc_core::options::{ahead_step, program_iteration, recursive_function, transitive_closure};
use dc_core::{paper, Database, Strategy};
use dc_governor::{envcfg, Budget};
use dc_optimizer::partition::partition_by_names;
use dc_optimizer::QuantGraph;
use dc_prolog::sld::{self, SldConfig};
use dc_prolog::tabled;
use dc_relation::Relation;
use dc_server::{Server, WriteBatch};
use dc_value::{tuple, Value};

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Splice the owning registry's snapshot into a finished JSON row as a
/// `"metrics"` object, so every `BENCH_*.json` row carries the engine
/// counters behind its timings (rounds, delta tuples, probe/scan
/// decisions, warm-map hits, latencies). The snapshot JSON is
/// single-line and bracket-free, so `baseline::parse_rows` still reads
/// the row's `workload`/`speedup` probes unchanged.
fn row_with_metrics(row: String, snap: &dc_trace::metrics::MetricsSnapshot) -> String {
    let body = row
        .strip_suffix('}')
        .expect("bench rows are one-line JSON objects");
    format!("{body}, \"metrics\": {}}}", snap.to_json())
}

fn eval_ms(db: &mut Database, q: &dc_calculus::RangeExpr) -> (usize, f64) {
    // Optional resource governance for unattended runs: a budget from
    // `DC_DEADLINE_MS` / `DC_MAX_TUPLES` is installed into the fixpoint
    // configuration so every measured solve is governed. A trip aborts
    // the harness with the structured `SolveError` — that is the point:
    // a hung or runaway experiment becomes a diagnosable failure.
    db.set_budget(harness_budget());
    db.clear_solved_cache();
    // `Database::evaluator` honours `set_use_indexes`, so scan-side
    // measurements run the reference path at the query level too.
    let (out, ms) = time(|| db.evaluator().eval(q).unwrap());
    (out.len(), ms)
}

/// Budget assembled from the harness governance flags, parsed once.
///
/// * `DC_DEADLINE_MS` — wall-clock ceiling per measured evaluation.
/// * `DC_MAX_TUPLES` — materialised-tuple ceiling per evaluation.
///
/// Invalid values warn once (via [`dc_governor::envcfg`]) and leave the
/// corresponding limit off, consistent with `DC_THREADS` parsing.
fn harness_budget() -> Option<Budget> {
    static BUDGET: OnceLock<Option<Budget>> = OnceLock::new();
    BUDGET
        .get_or_init(|| {
            let mut budget = Budget::unlimited();
            if let Ok(v) = std::env::var("DC_DEADLINE_MS") {
                match envcfg::parse_positive(&v) {
                    Ok(ms) => budget = budget.with_deadline_ms(ms as u64),
                    Err(why) => envcfg::warn_once(
                        "DC_DEADLINE_MS",
                        &format!("ignoring DC_DEADLINE_MS={v:?}: {why}; no deadline applied"),
                    ),
                }
            }
            if let Ok(v) = std::env::var("DC_MAX_TUPLES") {
                match envcfg::parse_positive(&v) {
                    Ok(n) => budget = budget.with_max_tuples(n as u64),
                    Err(why) => envcfg::warn_once(
                        "DC_MAX_TUPLES",
                        &format!("ignoring DC_MAX_TUPLES={v:?}: {why}; no tuple ceiling applied"),
                    ),
                }
            }
            (!budget.is_unlimited()).then_some(budget)
        })
        .clone()
}

/// `DC_BENCH_ONLY=e1` restricts the run to the E1 family. The CI
/// perf-smoke job uses it for the trace-armed comparison run (E1
/// disabled-vs-enabled within the baseline band) without paying for
/// the full battery twice. Unset runs everything; any other value
/// warns once (via [`dc_governor::envcfg`]) and runs everything,
/// consistent with the other harness flags.
fn bench_only() -> Option<&'static str> {
    static ONLY: OnceLock<Option<String>> = OnceLock::new();
    ONLY.get_or_init(|| match std::env::var("DC_BENCH_ONLY") {
        Ok(v) if v == "e1" => Some(v),
        Ok(v) => {
            envcfg::warn_once(
                "DC_BENCH_ONLY",
                &format!(
                    "ignoring DC_BENCH_ONLY={v:?}: the only supported filter is \
                     \"e1\"; running the full battery"
                ),
            );
            None
        }
        Err(_) => None,
    })
    .as_deref()
}

fn main() {
    println!("Data Constructors (VLDB 1985) — experiment harness");
    println!("===================================================\n");
    if let Some(budget) = harness_budget() {
        println!("  governance: {budget:?} (from DC_DEADLINE_MS / DC_MAX_TUPLES)\n");
    }
    e1();
    let e1b_rows = e1b();
    let (e1c_rows, e1c_best, e1c_largest, cores) = e1c();
    let (e1d_rows, e1d_best) = e1d(cores);
    // Baselines are written before the acceptance asserts, so a perf
    // regression still leaves the measured rows on disk for diagnosis.
    write_bench_e1(&e1b_rows, &e1c_rows, &e1d_rows);
    // The E1c bound scales with what the hardware can express: two
    // workers cannot reach 2×, but the largest scan must still clearly
    // win or sharding one-shot joins has stopped paying for itself.
    if (2..4).contains(&cores) {
        assert!(
            e1c_largest >= 1.3,
            "acceptance: ≥1.3× scan-sharding speedup with {cores} threads on the \
             largest two-hop workload, measured {e1c_largest:.2}x"
        );
    }
    if cores >= 4 {
        assert!(
            e1c_best >= 2.0,
            "acceptance: ≥2× parallel speedup with 4 threads on at least one \
             large-scan workload ({cores} cores available), best measured {e1c_best:.2}x"
        );
        assert!(
            e1d_best >= 2.0,
            "acceptance: ≥2× cross-equation parallel fixpoint speedup with 4 \
             workers on at least one multi-equation workload ({cores} cores \
             available), best measured {e1d_best:.2}x"
        );
    } else {
        println!(
            "  (E1c/E1d ≥2× bounds not asserted: only {cores} core(s) available — \
             a 4-worker pool cannot reach them without the hardware parallelism)\n"
        );
    }
    if bench_only() == Some("e1") {
        println!("  (DC_BENCH_ONLY=e1: skipping E2–E7)\n");
        return;
    }
    e2();
    let (e2b_rows, e2b_speedup) = e2b();
    let (e2c_rows, e2c_speedup) = e2c();
    let (e2d_rows, e2d_speedup) = e2d();
    // Baselines are written before the acceptance asserts, so a perf
    // regression still leaves the measured rows on disk for diagnosis.
    write_bench_e2(&e2b_rows, &e2c_rows, &e2d_rows);
    assert!(
        e2b_speedup >= 3.0,
        "acceptance: ≥3× on the quantifier workload, measured {e2b_speedup:.1}x"
    );
    assert!(
        e2c_speedup >= 3.0,
        "acceptance: ≥3× on the correlated-selector workload, measured {e2c_speedup:.1}x"
    );
    assert!(
        e2d_speedup >= 3.0,
        "acceptance: ≥3× on the multi-binding correlated-join workload, measured {e2d_speedup:.1}x"
    );
    e3();
    let (e3b_rows, e3b_speedup) = e3b(cores);
    // Baseline written before the acceptance assert, same as E1/E2.
    write_bench_e3(&e3b_rows);
    if cores >= 4 {
        assert!(
            e3b_speedup >= 2.0,
            "acceptance: ≥2× read QPS with a 4-reader pool vs one reader under \
             concurrent writes ({cores} cores available), measured {e3b_speedup:.2}x"
        );
    } else {
        println!(
            "  (E3b ≥2× QPS bound not asserted: only {cores} core(s) available — \
             reader sessions cannot overlap without hardware parallelism)\n"
        );
    }
    e4();
    let (e4b_rows, e4b_speedup) = e4b(cores);
    write_bench_e4(&e4b_rows);
    if cores >= 4 {
        assert!(
            e4b_speedup >= 5.0,
            "expected standing-query incremental maintenance to beat from-scratch \
             re-query by ≥5× on at least one workload ({cores} cores available), \
             best measured {e4b_speedup:.2}x"
        );
    } else {
        println!(
            "  (E4b ≥5× bound not asserted: only {cores} core(s) available — \
             timings are too noisy without hardware parallelism)\n"
        );
    }
    e5();
    e6();
    e7();
    println!("\nAll experiment assertions passed.");
}

/// E1b: the index-nested-loop join path against the reference
/// nested-loop evaluator, semi-naive strategy on both sides — the
/// scan→probe speedup this engine's join planner is responsible for.
/// The measured rows join the E1c rows in `BENCH_e1.json` (see
/// [`write_bench_e1`]) so future changes have a perf trajectory to
/// compare against.
fn e1b() -> Vec<String> {
    println!("E1b index-nested-loop joins vs reference nested loops (semi-naive)");
    println!("  workload              nodes  edges  closure  indexed(ms)  nested(ms)  speedup");
    let workloads: Vec<(&str, usize, Relation)> = vec![
        (
            "binary tree d=10",
            1023,
            dc_workload::complete_binary_tree(10),
        ),
        ("chain n=128", 129, dc_workload::chain(128)),
        ("ladder k=24", 50, dc_workload::diamond_ladder(24)),
    ];
    let mut rows = Vec::new();
    for (label, nodes, base) in workloads {
        let q = ahead_query();
        let mut db_idx = ahead_db(&base, Strategy::SemiNaive);
        let (idx_len, idx_ms) = eval_ms(&mut db_idx, &q);
        let mut db_scan = ahead_db(&base, Strategy::SemiNaive);
        db_scan.set_use_indexes(false);
        let (scan_len, scan_ms) = eval_ms(&mut db_scan, &q);
        assert_eq!(
            idx_len, scan_len,
            "index path must agree with reference on {label}"
        );
        let speedup = scan_ms / idx_ms;
        let stats = db_idx.last_fixpoint_stats().expect("fixpoint ran");
        println!(
            "  {label:<20} {nodes:>6} {:>6} {idx_len:>8} {idx_ms:>12.2} {scan_ms:>11.2} {speedup:>7.1}x",
            base.len()
        );
        rows.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"{}\", \"nodes\": {}, \"edges\": {}, \"closure\": {}, ",
                    "\"rounds\": {}, \"maintained_indexes\": {}, ",
                    "\"semi_indexed_ms\": {:.3}, \"semi_nested_loop_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                label,
                nodes,
                base.len(),
                idx_len,
                stats.iterations,
                stats.maintained_indexes,
                idx_ms,
                scan_ms,
                speedup
            ),
            &db_idx.metrics().snapshot(),
        ));
        if label.contains("tree") {
            assert!(
                speedup >= 5.0,
                "acceptance: ≥5× on the 1k-node workload, measured {speedup:.1}x"
            );
        }
    }
    println!();
    rows
}

/// E1c: scan-sharded two-hop joins — the same index-nested-loop plan
/// with its scan side sharded across `min(cores, 4)` pool workers vs
/// pinned to one worker. Both sides run the index path with warm
/// database-level index/statistics caches (one untimed warm-up
/// evaluation), so the measured interval is exactly the scan-shard ×
/// probe × filter work the worker pool divides (the sides alternate
/// and each reports the fastest of its seven evaluations); results are
/// asserted identical. The acceptance bound is asserted in `main`
/// after the baselines are written, scaled to the parallelism the
/// hardware can express (the measured `cores` and the `threads`
/// actually used ride along in each row so a baseline from a small
/// machine is interpretable). Returns the rows, the best speedup, the
/// largest workload's speedup, and the core count.
fn e1c() -> (Vec<String>, f64, f64, usize) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = cores.min(4);
    const RUNS: usize = 7;
    println!(
        "E1c scan-sharded two-hop joins: {threads} workers vs sequential \
         ({cores} core(s), fastest of {RUNS})"
    );
    println!("  workload            edges  matches  seq(ms)   par(ms)  speedup");
    let mut rows_out = Vec::new();
    let mut best = 0.0_f64;
    let mut largest = 0.0_f64;
    for (label, nodes, degree) in [
        ("two-hop n=2k d=8", 2000usize, 8.0),
        ("two-hop n=4k d=8", 4000, 8.0),
        ("two-hop n=8k d=8", 8000, 8.0),
    ] {
        let edges = dc_workload::weighted_random_graph(nodes, degree, 64, 11);
        let q = two_hop_query(19);
        let mut db_seq = weighted_db(&edges);
        db_seq.set_threads(1);
        let seq_rel = db_seq.eval(&q).unwrap();
        let mut db_par = weighted_db(&edges);
        db_par.set_threads(threads);
        assert_eq!(
            db_par.eval(&q).unwrap(),
            seq_rel,
            "parallel execution must agree with sequential on {label}"
        );
        // Both sides are warm now. A two-thread measurement on a small
        // shared machine is at the mercy of whatever else the cores
        // are doing: alternate the sides so a disturbance hits both,
        // and keep each side's fastest (least disturbed) run.
        let (mut seq_ms, mut par_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..RUNS {
            let (rel, ms) = time(|| db_seq.eval(&q).unwrap());
            assert_eq!(rel, seq_rel);
            seq_ms = seq_ms.min(ms);
            let (rel, ms) = time(|| db_par.eval(&q).unwrap());
            assert_eq!(rel, seq_rel);
            par_ms = par_ms.min(ms);
        }
        let speedup = seq_ms / par_ms;
        best = best.max(speedup);
        largest = speedup; // workloads run in increasing size
        println!(
            "  {label:<18} {:>6} {:>8} {seq_ms:>8.2} {par_ms:>9.2} {speedup:>7.2}x",
            edges.len(),
            seq_rel.len(),
        );
        rows_out.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"{}\", \"edges\": {}, \"matches\": {}, ",
                    "\"threads\": {}, \"cores\": {}, \"runs\": {}, ",
                    "\"seq_ms\": {:.3}, \"par_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                label,
                edges.len(),
                seq_rel.len(),
                threads,
                cores,
                RUNS,
                seq_ms,
                par_ms,
                speedup
            ),
            &db_par.metrics().snapshot(),
        ));
    }
    println!();
    (rows_out, best, largest, cores)
}

/// E1d: cross-equation parallel fixpoint rounds — multi-equation
/// systems solved with the round scheduler batch-dispatching branch
/// tasks of *different equations* to a 4-worker pool vs pinned to one
/// worker — task dispatch is the whole difference: a task never shards
/// its own scan. The 4-constructor ring instantiates four simultaneously
/// solved equations whose Linear branches carry equal-sized deltas
/// every round (a balanced 4-task round); the mutual `ahead`/`above`
/// system is the paper's §3.1 workload. Cold solves on both sides
/// (the solved-constructor cache is cleared between warm-up and
/// measurement); results are asserted identical, and the scheduler
/// counters are asserted to prove the dispatched path ran. The ≥2×
/// acceptance bound is asserted in `main` (≥4 cores only), after the
/// baselines are written.
fn e1d(cores: usize) -> (Vec<String>, f64) {
    println!(
        "E1d cross-equation parallel fixpoint rounds: 4 workers vs sequential ({cores} core(s))"
    );
    println!("  workload                eqs  tuples  seq(ms)  par4(ms)  speedup");
    enum Sys {
        Ring(Relation),
        Mutual(dc_workload::Scene),
    }
    let workloads = [
        (
            "ring×4 tree d=12",
            Sys::Ring(dc_workload::complete_binary_tree(12)),
        ),
        (
            "ring×4 tree d=13",
            Sys::Ring(dc_workload::complete_binary_tree(13)),
        ),
        (
            "mutual scene 32×128",
            Sys::Mutual(dc_workload::scene(32, 128, 1, 7)),
        ),
    ];
    let mut rows_out = Vec::new();
    let mut best = 0.0_f64;
    for (label, sys) in workloads {
        let build = |threads: usize| {
            let mut db = match &sys {
                Sys::Ring(base) => ring_db(base),
                Sys::Mutual(scene) => {
                    let mut db = Database::new();
                    db.create_relation("Infront", paper::infrontrel()).unwrap();
                    db.create_relation("Ontop", paper::ontoprel()).unwrap();
                    for t in scene.infront.iter() {
                        db.insert("Infront", t.clone()).unwrap();
                    }
                    for t in scene.ontop.iter() {
                        db.insert("Ontop", t.clone()).unwrap();
                    }
                    db.define_constructors(vec![paper::ahead_mutual(), paper::above()])
                        .unwrap();
                    db
                }
            };
            db.set_budget(harness_budget());
            db.set_threads(threads);
            db
        };
        let q = match &sys {
            Sys::Ring(_) => ring_query(),
            Sys::Mutual(_) => rel("Ontop").construct("above", vec![rel("Infront")]),
        };
        let db_seq = build(1);
        let warm = db_seq.eval(&q).unwrap();
        db_seq.clear_solved_cache();
        let (seq_rel, seq_ms) = time(|| db_seq.eval(&q).unwrap());
        let db_par = build(4);
        let par_warm = db_par.eval(&q).unwrap();
        db_par.clear_solved_cache();
        let (par_rel, par_ms) = time(|| db_par.eval(&q).unwrap());
        assert_eq!(
            seq_rel, par_rel,
            "parallel fixpoint rounds must agree with sequential on {label}"
        );
        assert_eq!(warm, seq_rel);
        assert_eq!(par_warm, par_rel);
        let stats = db_par.last_fixpoint_stats().expect("fixpoint ran");
        // The dispatched path must actually have run: branch tasks
        // batched to workers, spanning more than one equation.
        assert!(
            stats.parallel_branches > 0,
            "E1d {label}: no branch tasks were dispatched ({stats:?})"
        );
        assert!(
            stats.parallel_equations >= 2,
            "E1d {label}: rounds never dispatched across equations ({stats:?})"
        );
        let speedup = seq_ms / par_ms;
        best = best.max(speedup);
        let snap = db_par.metrics().snapshot();
        println!(
            "  {label:<22} {:>4} {:>7} {seq_ms:>8.2} {par_ms:>9.2} {speedup:>7.2}x",
            stats.equations,
            seq_rel.len(),
        );
        // The scheduler's branch counters now live in the unified
        // metrics registry; print the whole snapshot once instead of
        // cherry-picking FixpointStats fields into ad-hoc columns.
        println!("    metrics: {}", snap.to_json());
        rows_out.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"E1d {}\", \"equations\": {}, \"tuples\": {}, ",
                    "\"threads\": 4, \"cores\": {}, ",
                    "\"parallel_branches\": {}, \"sequential_branches\": {}, ",
                    "\"parallel_equations\": {}, ",
                    "\"seq_ms\": {:.3}, \"par_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                label,
                stats.equations,
                seq_rel.len(),
                cores,
                stats.parallel_branches,
                stats.sequential_branches,
                stats.parallel_equations,
                seq_ms,
                par_ms,
                speedup
            ),
            &snap,
        ));
    }
    println!();
    (rows_out, best)
}

/// Emit `BENCH_e1.json`: the E1b scan→probe rows, the E1c
/// parallel-vs-sequential rows, then the E1d cross-equation fixpoint
/// rows, one flat array (the layout `dc_bench::baseline::parse_rows`
/// reads) — so the perf-baseline CI gate covers scan sharding and the
/// round scheduler with the same tolerance band as every
/// other access path.
fn write_bench_e1(e1b_rows: &[String], e1c_rows: &[String], e1d_rows: &[String]) {
    let mut all: Vec<String> = e1b_rows.to_vec();
    all.extend(e1c_rows.iter().cloned());
    all.extend(e1d_rows.iter().cloned());
    let json = format!("[\n{}\n]\n", all.join(",\n"));
    if let Err(e) = std::fs::write("BENCH_e1.json", &json) {
        eprintln!("  (could not write BENCH_e1.json: {e})");
    } else {
        println!("  join + parallel baselines written to BENCH_e1.json\n");
    }
}

fn e1() {
    println!("E1  set-oriented fixpoint vs proof-oriented PROLOG (claim C1)");
    println!("  workload            naive(ms)  semi(ms)  sld(ms)  tabled(ms)  tuples");
    for (label, base) in [
        ("chain n=32", dc_workload::chain(32)),
        ("chain n=64", dc_workload::chain(64)),
        ("chain n=128", dc_workload::chain(128)),
        ("ladder k=6", dc_workload::diamond_ladder(6)),
        ("ladder k=8", dc_workload::diamond_ladder(8)),
        ("ladder k=10", dc_workload::diamond_ladder(10)),
    ] {
        let q = ahead_query();
        let mut db_n = ahead_db(&base, Strategy::Naive);
        let mut db_s = ahead_db(&base, Strategy::SemiNaive);
        let (n_len, n_ms) = eval_ms(&mut db_n, &q);
        let (s_len, s_ms) = eval_ms(&mut db_s, &q);
        assert_eq!(n_len, s_len, "strategies agree");
        let program = ahead_program(&base);
        let (sld_res, sld_ms) =
            time(|| sld::solve(&program, &ahead_goal(), &SldConfig::default()).unwrap());
        let (tab_res, tab_ms) = time(|| tabled::solve(&program, &ahead_goal()).unwrap());
        assert_eq!(sld_res.answers.len(), n_len);
        assert_eq!(tab_res.answers.len(), n_len);
        println!("  {label:<18} {n_ms:>9.2} {s_ms:>9.2} {sld_ms:>8.2} {tab_ms:>10.2} {n_len:>7}");
    }
    println!();
}

/// E2: §4's propagation of a bound argument into a recursive
/// constructor. Both sides are calculus under `Database::eval`: the
/// query as written (full closure, then the filter) and its rewrite
/// into the seeded constructor (`dc_optimizer::capture`). The work
/// columns are the engine's own counters — tuples carried in
/// semi-naive deltas and fixpoint rounds — so the pay-off is asserted
/// on work done, not on a timing: the seeded solve stays within a small
/// multiple of the cone while the full solve derives every chain.
fn e2() {
    const DEPTH: usize = 32;
    println!("E2  constraint propagation into constructors (claim C2)");
    println!(
        "  k chains × {DEPTH}      full+filter(ms)  seeded(ms)  cone  delta_tuples full/seeded  solve_rounds full/seeded"
    );
    for k in [4usize, 16, 64] {
        let mut db = ahead_db(&many_chains(k, DEPTH), Strategy::SemiNaive);
        db.set_budget(harness_budget());
        let q = bound_query(ahead_query(), "head", cnst("c0_0"));
        let seeded = dc_optimizer::rewrite_query(&mut db, &q).expect("ahead is TC-shaped");
        let measure = |q: &dc_calculus::RangeExpr| {
            let before = db.metrics().snapshot();
            let (out, ms) = time(|| db.eval(q).unwrap());
            let after = db.metrics().snapshot();
            (
                out,
                ms,
                after.delta_tuples - before.delta_tuples,
                after.solve_rounds - before.solve_rounds,
            )
        };
        let (full_rel, full_ms, full_delta, full_rounds) = measure(&q);
        let (seeded_rel, seeded_ms, seeded_delta, seeded_rounds) = measure(&seeded);
        assert_eq!(seeded_rel, full_rel, "propagation is sound");
        assert_eq!(seeded_rel.len(), DEPTH, "the cone is one chain");
        assert!(
            seeded_delta <= 4 * DEPTH as u64,
            "seeded solve carried {seeded_delta} delta tuples for a cone of {DEPTH}"
        );
        if k == 64 {
            assert!(
                full_delta > 30_000,
                "full closure carried only {full_delta} delta tuples"
            );
        }
        println!(
            "  k={k:<16} {full_ms:>15.2} {seeded_ms:>11.3} {:>5} {:>24} {:>26}",
            seeded_rel.len(),
            format!("{full_delta}/{seeded_delta}"),
            format!("{full_rounds}/{seeded_rounds}"),
        );
    }
    println!();
}

/// E2b: index-aware quantifier probes vs reference quantifier scans —
/// the selector-style predicates of §2.3 (`SOME t IN Ontop: t.base =
/// r.front`) decided through hash-bucket existence probes instead of
/// per-combination range scans. Asserts the ≥3× acceptance bound on
/// the largest scene (asserted in `main` after the baselines are
/// written); the measured rows become the `"e2b"` section of
/// `BENCH_e2.json` (see [`write_bench_e2`]).
fn e2b() -> (Vec<String>, f64) {
    println!("E2b index-aware quantifier probes vs reference scans (visibility selector)");
    println!(
        "  scene        objects  infront  ontop  visible  front-row  probe(ms)  scan(ms)  speedup"
    );
    let mut rows_out = Vec::new();
    let mut largest_speedup = 0.0_f64;
    let scenes = [(20usize, 20usize), (40, 40), (60, 60)];
    let largest = scenes.len() - 1;
    for (i, (rows, depth)) in scenes.into_iter().enumerate() {
        let scene = dc_workload::scene(rows, depth, 2, 11);
        let vis_q = visibility_query();
        let front_q = front_row_query();
        let mut db = scene_db(&scene);
        let (vis_len, vis_ms) = eval_ms(&mut db, &vis_q);
        let (front_len, front_ms) = eval_ms(&mut db, &front_q);
        let mut db_scan = scene_db(&scene);
        db_scan.set_use_indexes(false);
        let (vis_scan_len, vis_scan_ms) = eval_ms(&mut db_scan, &vis_q);
        let (front_scan_len, front_scan_ms) = eval_ms(&mut db_scan, &front_q);
        assert_eq!(
            vis_len, vis_scan_len,
            "quantifier probes must agree with reference scans ({rows}x{depth})"
        );
        assert_eq!(
            front_len, front_scan_len,
            "negated-quantifier probes must agree with reference scans ({rows}x{depth})"
        );
        let probe_ms = vis_ms + front_ms;
        let scan_ms = vis_scan_ms + front_scan_ms;
        let speedup = scan_ms / probe_ms;
        let label = format!("{rows}x{depth}");
        println!(
            "  {label:<12} {:>7} {:>8} {:>6} {vis_len:>8} {front_len:>10} {probe_ms:>10.2} {scan_ms:>9.2} {speedup:>7.1}x",
            scene.objects.len(),
            scene.infront.len(),
            scene.ontop.len(),
        );
        rows_out.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"scene {}\", \"objects\": {}, \"infront\": {}, ",
                    "\"ontop\": {}, \"visible\": {}, \"front_row\": {}, ",
                    "\"probe_ms\": {:.3}, \"scan_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                label,
                scene.objects.len(),
                scene.infront.len(),
                scene.ontop.len(),
                vis_len,
                front_len,
                probe_ms,
                scan_ms,
                speedup
            ),
            &db.metrics().snapshot(),
        ));
        if i == largest {
            largest_speedup = speedup;
        }
    }
    println!();
    (rows_out, largest_speedup)
}

/// E2c: decorrelated correlated-quantifier probes vs reference
/// per-combination range evaluation — the correlated selector
/// application `Ontop[on_base(r.back)]` (decorrelated into one indexed
/// `Ontop` pass + a probe per edge) and the implication-shaped `ALL`
/// body (`NOT p OR q`, probed through its falsifier after NNF). The
/// ≥3× acceptance bound on the largest scene is asserted in `main`
/// after the baselines are written; the measured rows become the
/// `"e2c"` section of `BENCH_e2.json`.
fn e2c() -> (Vec<String>, f64) {
    println!("E2c decorrelated correlated-quantifier probes vs reference scans");
    println!(
        "  scene        infront  ontop  stacked-back  bare-front  probe(ms)  scan(ms)  speedup"
    );
    let mut rows_out = Vec::new();
    let mut largest_speedup = 0.0_f64;
    let scenes = [(20usize, 20usize), (40, 40), (60, 60)];
    let largest = scenes.len() - 1;
    for (i, (rows, depth)) in scenes.into_iter().enumerate() {
        let scene = dc_workload::scene(rows, depth, 2, 11);
        let sel_q = stacked_back_query();
        let imp_q = unburdened_front_query();
        let mut db = scene_db(&scene);
        let (sel_len, sel_ms) = eval_ms(&mut db, &sel_q);
        let (imp_len, imp_ms) = eval_ms(&mut db, &imp_q);
        let mut db_scan = scene_db(&scene);
        db_scan.set_use_indexes(false);
        let (sel_scan_len, sel_scan_ms) = eval_ms(&mut db_scan, &sel_q);
        let (imp_scan_len, imp_scan_ms) = eval_ms(&mut db_scan, &imp_q);
        assert_eq!(
            sel_len, sel_scan_len,
            "decorrelated probes must agree with reference scans ({rows}x{depth})"
        );
        assert_eq!(
            imp_len, imp_scan_len,
            "implication-body probes must agree with reference scans ({rows}x{depth})"
        );
        let probe_ms = sel_ms + imp_ms;
        let scan_ms = sel_scan_ms + imp_scan_ms;
        let speedup = scan_ms / probe_ms;
        let label = format!("{rows}x{depth}");
        println!(
            "  {label:<12} {:>7} {:>6} {sel_len:>13} {imp_len:>11} {probe_ms:>10.2} {scan_ms:>9.2} {speedup:>7.1}x",
            scene.infront.len(),
            scene.ontop.len(),
        );
        rows_out.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"scene {}\", \"infront\": {}, \"ontop\": {}, ",
                    "\"stacked_back\": {}, \"bare_front\": {}, ",
                    "\"probe_ms\": {:.3}, \"scan_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                label,
                scene.infront.len(),
                scene.ontop.len(),
                sel_len,
                imp_len,
                probe_ms,
                scan_ms,
                speedup
            ),
            &db.metrics().snapshot(),
        ));
        if i == largest {
            largest_speedup = speedup;
        }
    }
    println!();
    (rows_out, largest_speedup)
}

/// E2d: multi-binding correlated-join decorrelation vs reference
/// per-combination join evaluation — the quantified range is a **join
/// view** over two bindings whose joint correlation key spans both
/// (`a.task = r.task AND s.tool = r.tool`), so the reference path pays
/// the full `Assign × Skill` product per request while the decorrelated
/// path materialises `Assign ⋈ Skill` once, buckets it on the joint
/// key, and probes per request. The ≥3× acceptance bound on the
/// largest instance is asserted in `main` after the baselines are
/// written; the measured rows become the `"e2d"` section of
/// `BENCH_e2.json`.
fn e2d() -> (Vec<String>, f64) {
    println!("E2d multi-binding correlated-join decorrelation vs reference scans");
    println!(
        "  instance     assign  skill  requests  servable  avoids-w0  probe(ms)  scan(ms)  speedup"
    );
    let mut rows_out = Vec::new();
    let mut largest_speedup = 0.0_f64;
    // (tasks, workers, tools, per_task, per_worker, requests)
    let instances = [
        (
            "staffing S",
            60usize,
            30usize,
            15usize,
            2usize,
            2usize,
            80usize,
        ),
        ("staffing M", 120, 50, 25, 2, 3, 140),
        ("staffing L", 200, 80, 40, 2, 3, 200),
    ];
    let largest = instances.len() - 1;
    for (i, (label, tasks, workers, tools, per_task, per_worker, requests)) in
        instances.into_iter().enumerate()
    {
        let s = dc_workload::staffing(tasks, workers, tools, per_task, per_worker, requests, 11);
        let some_q = servable_request_query();
        let all_q = avoids_w0_request_query();
        let mut db = staffing_db(&s);
        let (some_len, some_ms) = eval_ms(&mut db, &some_q);
        let (all_len, all_ms) = eval_ms(&mut db, &all_q);
        let mut db_scan = staffing_db(&s);
        db_scan.set_use_indexes(false);
        let (some_scan_len, some_scan_ms) = eval_ms(&mut db_scan, &some_q);
        let (all_scan_len, all_scan_ms) = eval_ms(&mut db_scan, &all_q);
        assert_eq!(
            some_len, some_scan_len,
            "joint-key probes must agree with reference scans ({label})"
        );
        assert_eq!(
            all_len, all_scan_len,
            "universal joint-key probes must agree with reference scans ({label})"
        );
        let probe_ms = some_ms + all_ms;
        let scan_ms = some_scan_ms + all_scan_ms;
        let speedup = scan_ms / probe_ms;
        println!(
            "  {label:<12} {:>6} {:>6} {:>9} {some_len:>9} {all_len:>10} {probe_ms:>10.2} {scan_ms:>9.2} {speedup:>7.1}x",
            s.assign.len(),
            s.skill.len(),
            s.requests.len(),
        );
        rows_out.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"{}\", \"assign\": {}, \"skill\": {}, ",
                    "\"requests\": {}, \"servable\": {}, \"avoids_w0\": {}, ",
                    "\"probe_ms\": {:.3}, \"scan_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                label,
                s.assign.len(),
                s.skill.len(),
                s.requests.len(),
                some_len,
                all_len,
                probe_ms,
                scan_ms,
                speedup
            ),
            &db.metrics().snapshot(),
        ));
        if i == largest {
            largest_speedup = speedup;
        }
    }
    println!();
    (rows_out, largest_speedup)
}

/// Emit `BENCH_e2.json`: one section per quantifier experiment
/// (`"e2b"` — named-range probes, `"e2c"` — decorrelated correlated
/// ranges + implication bodies, `"e2d"` — multi-binding correlated
/// joins on joint keys), next to `BENCH_e1.json` so the perf
/// trajectory covers join, quantifier, and decorrelation access paths.
fn write_bench_e2(e2b_rows: &[String], e2c_rows: &[String], e2d_rows: &[String]) {
    let json = format!(
        "{{\n\"e2b\": [\n{}\n],\n\"e2c\": [\n{}\n],\n\"e2d\": [\n{}\n]\n}}\n",
        e2b_rows.join(",\n"),
        e2c_rows.join(",\n"),
        e2d_rows.join(",\n")
    );
    if let Err(e) = std::fs::write("BENCH_e2.json", &json) {
        eprintln!("  (could not write BENCH_e2.json: {e})");
    } else {
        println!("  quantifier baselines written to BENCH_e2.json\n");
    }
}

fn e3() {
    println!("E3  convergence: iterations vs depth; ahead_n limit (claim C3)");
    println!("  chain depth   naive-iters  semi-iters  closure");
    for depth in [8usize, 32, 128] {
        let base = dc_workload::chain(depth);
        let q = ahead_query();
        let mut db_n = ahead_db(&base, Strategy::Naive);
        let (len, _) = eval_ms(&mut db_n, &q);
        let naive_iters = db_n.last_fixpoint_stats().unwrap().iterations;
        let mut db_s = ahead_db(&base, Strategy::SemiNaive);
        let (_, _) = eval_ms(&mut db_s, &q);
        let semi_iters = db_s.last_fixpoint_stats().unwrap().iterations;
        // The paper's bound: the limit is reached after finitely many
        // steps, ≈ longest path for the right-linear rule.
        assert!(naive_iters >= depth && naive_iters <= depth + 2);
        println!("  {depth:>11} {naive_iters:>12} {semi_iters:>11} {len:>8}");
    }
    // ahead_n limit check.
    let base = dc_workload::chain(40);
    let limit = dc_core::options::iterate_n(
        base.schema().clone(),
        |cur| ahead_step(&base, cur, 0, 1),
        41,
    )
    .unwrap();
    let early = dc_core::options::iterate_n(
        base.schema().clone(),
        |cur| ahead_step(&base, cur, 0, 1),
        20,
    )
    .unwrap();
    assert!(dc_relation::algebra::is_subset(&early, &limit));
    println!("  ahead_n ⊆ ahead and ahead_40 = lim: verified on chain 40\n");
}

/// E3b: mixed read/write serving — snapshot-isolated reader sessions
/// (`dc-server`) against a concurrently committing writer. Each
/// configuration runs a pool of R reader threads, every reader begins a
/// fresh session per query (pinning the then-current epoch) and
/// evaluates the visibility query, while one writer thread keeps
/// publishing insert/delete commits the whole time — so the measured
/// interval includes epoch churn, warm-cache handoff, and index
/// rebuilds for the touched relation. The database itself is pinned to
/// one solver thread so the scaling measured is *reader-session*
/// concurrency, not intra-query parallelism. QPS is total queries over
/// wall time; p99 is the per-query latency tail. The ≥2× 4-reader
/// bound is asserted in `main` (≥4 cores only), after the baseline is
/// written to `BENCH_e3.json`.
fn e3b(cores: usize) -> (Vec<String>, f64) {
    println!("E3b mixed read/write serving: reader-pool QPS vs a live writer ({cores} core(s))");
    println!("  readers  queries  commits  epochs      qps  p99(ms)  speedup");
    const QUERIES_PER_READER: usize = 60;
    let mut rows_out = Vec::new();
    let mut base_qps = 0.0_f64;
    let mut speedup_at_4 = 1.0_f64;
    for readers in [1usize, 2, 4, 8] {
        let mut db = scene_db(&dc_workload::scene(24, 24, 2, 11));
        db.set_budget(harness_budget());
        db.set_threads(1);
        let server = Server::new(db);
        let q = visibility_query();
        // One untimed query warms the epoch-0 shared caches, so every
        // configuration starts from the same serving state.
        server.begin().query(&q).unwrap();
        let done = AtomicBool::new(false);
        let start = Instant::now();
        let latencies: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    let server = &server;
                    let q = &q;
                    scope.spawn(move || {
                        let mut lats = Vec::with_capacity(QUERIES_PER_READER);
                        for _ in 0..QUERIES_PER_READER {
                            let t0 = Instant::now();
                            let session = server.begin();
                            let out = session.query(q).unwrap();
                            lats.push(t0.elapsed().as_secs_f64() * 1e3);
                            assert!(!out.is_empty(), "visibility query served no rows");
                        }
                        lats
                    })
                })
                .collect();
            let writer = scope.spawn(|| {
                let mut k = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let t = tuple![format!("srv{k}"), format!("srv{}", k + 1)];
                    server
                        .commit(&WriteBatch::new().insert("Infront", t.clone()))
                        .unwrap();
                    server
                        .commit(&WriteBatch::new().delete("Infront", t))
                        .unwrap();
                    k += 2;
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            let lats: Vec<f64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("reader thread panicked"))
                .collect();
            done.store(true, Ordering::Relaxed);
            writer.join().expect("writer thread panicked");
            lats
        });
        let wall = start.elapsed().as_secs_f64();
        let total = readers * QUERIES_PER_READER;
        let qps = total as f64 / wall;
        let mut sorted = latencies;
        sorted.sort_by(f64::total_cmp);
        let p99 = sorted[(sorted.len() - 1) * 99 / 100];
        let commits = server.commit_count();
        let epochs = server.current_epoch();
        assert!(commits > 0, "the writer never committed during the window");
        if readers == 1 {
            base_qps = qps;
        }
        let speedup = qps / base_qps;
        if readers == 4 {
            speedup_at_4 = speedup;
        }
        println!(
            "  {readers:>7} {total:>8} {commits:>8} {epochs:>7} {qps:>8.0} {p99:>8.2} {speedup:>7.2}x"
        );
        rows_out.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"mixed rw readers={}\", \"queries\": {}, ",
                    "\"commits\": {}, \"cores\": {}, ",
                    "\"qps\": {:.1}, \"p99_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                readers, total, commits, cores, qps, p99, speedup
            ),
            &server.metrics().snapshot(),
        ));
    }
    println!();
    (rows_out, speedup_at_4)
}

/// Emit `BENCH_e3.json`: the E3b mixed read/write serving rows, one
/// flat array in the `parse_rows` layout, next to `BENCH_e1.json` and
/// `BENCH_e2.json` — so the perf-baseline CI gate also tracks the
/// serving layer's reader-scaling trajectory.
fn write_bench_e3(e3b_rows: &[String]) {
    let json = format!("[\n{}\n]\n", e3b_rows.join(",\n"));
    if let Err(e) = std::fs::write("BENCH_e3.json", &json) {
        eprintln!("  (could not write BENCH_e3.json: {e})");
    } else {
        println!("  serving baselines written to BENCH_e3.json\n");
    }
}

/// E4b: standing-query incremental maintenance against a from-scratch
/// re-query over the same insert-only commit stream. The incremental
/// side registers one subscription and lets every commit's refresh
/// re-enter the semi-naive rounds warm from the previous materialised
/// system; the from-scratch side replays the identical commits on a
/// second server and re-solves cold after each (content-addressed
/// solve keys make every re-solve genuine). Both sides must converge
/// to digest-identical closures; the measured rows are written to
/// `BENCH_e4.json`.
fn e4b(cores: usize) -> (Vec<String>, f64) {
    println!(
        "E4b standing queries: incremental maintenance vs from-scratch re-query ({cores} core(s))"
    );
    println!("  chains×depth  commits  closure  warm  inc(ms)  scratch(ms)  speedup");
    const COMMITS: usize = 12;
    let mut rows_out = Vec::new();
    let mut best = 0.0_f64;
    for (k, depth) in [(4usize, 32usize), (8, 56)] {
        let mk = || {
            let mut db = ahead_db(&many_chains(k, depth), Strategy::SemiNaive);
            db.set_budget(harness_budget());
            db
        };
        // Each commit extends chain 0 by one edge: a small base delta
        // whose closure contribution the warm path derives in
        // delta-sized rounds, while the from-scratch side recomputes
        // every chain's closure from ∅.
        let batches: Vec<WriteBatch> = (0..COMMITS)
            .map(|i| {
                WriteBatch::new().insert(
                    "Infront",
                    tuple![format!("c0_{}", depth + i), format!("c0_{}", depth + i + 1)],
                )
            })
            .collect();

        let server = Server::new(mk());
        let prepared = server
            .prepare_solve("Infront", "ahead", &[], vec![])
            .unwrap();
        let sub = server.subscribe(&prepared).unwrap();
        let mut materialised = sub
            .recv()
            .expect("subscription alive")
            .expect("initial evaluation failed")
            .added;
        let mut warm_updates = 0usize;
        let ((), inc_ms) = time(|| {
            for b in &batches {
                server.commit(b).unwrap();
                let up = sub
                    .recv()
                    .expect("subscription alive")
                    .expect("refresh failed");
                if up.warm {
                    warm_updates += 1;
                }
                assert!(up.removed.is_empty(), "insert-only stream never retracts");
                dc_relation::algebra::union_into(&mut materialised, &up.added).unwrap();
            }
        });

        let scratch = Server::new(mk());
        // One untimed epoch-0 solve for parity with the subscription's
        // untimed initial evaluation.
        scratch
            .begin()
            .solve("Infront", "ahead", &[], vec![])
            .unwrap();
        let mut scratch_out = Relation::new(materialised.schema().clone());
        let ((), scratch_ms) = time(|| {
            for b in &batches {
                scratch.commit(b).unwrap();
                scratch_out = scratch
                    .begin()
                    .solve("Infront", "ahead", &[], vec![])
                    .unwrap();
            }
        });
        assert_eq!(
            materialised.digest(),
            scratch_out.digest(),
            "incremental maintenance diverged from the from-scratch oracle"
        );
        assert_eq!(
            warm_updates, COMMITS,
            "insert-only commits must all refresh warm"
        );
        let speedup = scratch_ms / inc_ms;
        best = best.max(speedup);
        let closure = materialised.len();
        println!(
            "  {k:>5}x{depth:<7} {COMMITS:>7} {closure:>8} {warm_updates:>5} {inc_ms:>8.2} \
             {scratch_ms:>11.2} {speedup:>7.2}x"
        );
        rows_out.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"standing ahead k={} depth={}\", \"commits\": {}, ",
                    "\"closure\": {}, \"warm\": {}, \"cores\": {}, ",
                    "\"incremental_ms\": {:.3}, \"scratch_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                k, depth, COMMITS, closure, warm_updates, cores, inc_ms, scratch_ms, speedup
            ),
            &server.metrics().snapshot(),
        ));
    }
    println!();
    (rows_out, best)
}

/// Emit `BENCH_e4.json`: the E4b standing-query maintenance rows, one
/// flat array in the `parse_rows` layout, next to the E1–E3 baselines
/// — so the perf-baseline CI gate also tracks the incremental-vs-
/// from-scratch trajectory.
fn write_bench_e4(e4b_rows: &[String]) {
    let json = format!("[\n{}\n]\n", e4b_rows.join(",\n"));
    if let Err(e) = std::fs::write("BENCH_e4.json", &json) {
        eprintln!("  (could not write BENCH_e4.json: {e})");
    } else {
        println!("  standing-query baselines written to BENCH_e4.json\n");
    }
}

fn e4() {
    println!("E4  mutual recursion ahead/above (claim C4)");
    println!("  scene (rows×depth)  eqs  iters  above-tuples  ms");
    for (rows, depth) in [(2usize, 8usize), (4, 16), (8, 24)] {
        let scene = dc_workload::scene(rows, depth, 3, 7);
        let mut db = Database::new();
        db.create_relation("Infront", paper::infrontrel()).unwrap();
        db.create_relation("Ontop", paper::ontoprel()).unwrap();
        for t in scene.infront.iter() {
            db.insert("Infront", t.clone()).unwrap();
        }
        for t in scene.ontop.iter() {
            db.insert("Ontop", t.clone()).unwrap();
        }
        db.define_constructors(vec![paper::ahead_mutual(), paper::above()])
            .unwrap();
        let q = rel("Ontop").construct("above", vec![rel("Infront")]);
        let (len, ms) = eval_ms(&mut db, &q);
        let stats = db.last_fixpoint_stats().unwrap();
        assert_eq!(stats.equations, 2);
        println!(
            "  {rows:>2}×{depth:<15} {:>4} {:>6} {len:>13} {ms:>7.2}",
            stats.equations, stats.iterations
        );
    }
    println!();
}

fn e5() {
    println!("E5  fixpoint options ablation (claim C7), chain n=96");
    let base = dc_workload::chain(96);
    let expected = 96 * 97 / 2;
    let (it, it_ms) = time(|| {
        program_iteration(base.schema().clone(), |cur| ahead_step(&base, cur, 0, 1))
            .unwrap()
            .0
    });
    assert_eq!(it.len(), expected);
    let (rf, rf_ms) = time(|| {
        recursive_function(Relation::new(base.schema().clone()), &mut |cur| {
            ahead_step(&base, cur, 0, 1)
        })
        .unwrap()
    });
    assert_eq!(rf.len(), expected);
    let (tc, tc_ms) = time(|| transitive_closure(&base, 0, 1).unwrap());
    assert_eq!(tc.len(), expected);
    let mut db_n = ahead_db(&base, Strategy::Naive);
    let (_, cn_ms) = eval_ms(&mut db_n, &ahead_query());
    let mut db_s = ahead_db(&base, Strategy::SemiNaive);
    let (_, cs_ms) = eval_ms(&mut db_s, &ahead_query());
    println!("  program iteration (§3.1 loop)     {it_ms:>9.2} ms");
    println!("  recursive function (§3.4)         {rf_ms:>9.2} ms");
    println!("  specialised TC operator (§3.4)    {tc_ms:>9.2} ms");
    println!("  constructor, naive                {cn_ms:>9.2} ms");
    println!("  constructor, semi-naive           {cs_ms:>9.2} ms\n");
}

fn e6() {
    println!("E6  static analysis cost (claim C6)");
    println!("  m constructors  positivity(ms)  partition(ms)  sccs(ms)");
    for m in [4usize, 16, 64] {
        let ring = constructor_ring(m);
        let (viols, pos_ms) = time(|| {
            ring.iter()
                .map(|c| {
                    let body = dc_calculus::RangeExpr::SetFormer(c.body.clone());
                    dc_calculus::positivity::check_range(
                        &body,
                        &dc_calculus::positivity::Tracked::AllConstructed,
                    )
                    .len()
                })
                .sum::<usize>()
        });
        assert_eq!(viols, 0, "the ring is positive");
        let (parts, part_ms) = time(|| partition_by_names(&ring));
        assert_eq!(parts.len(), 1, "a ring is one partition");
        let (sccs, scc_ms) = time(|| QuantGraph::system(&ring).sccs());
        assert!(sccs.iter().any(|c| c.len() == m), "the ring is one SCC");
        println!("  {m:>14} {pos_ms:>15.3} {part_ms:>14.3} {scc_ms:>9.3}");
    }
    println!();
}

fn e7() {
    println!("E7  PROLOG equivalence (claim C5, §3.4 lemma)");
    println!("  workload       constructor  sld      tabled   answers equal?");
    for (label, base) in [
        ("chain n=24", dc_workload::chain(24)),
        ("ladder k=6", dc_workload::diamond_ladder(6)),
    ] {
        let db = ahead_db(&base, Strategy::SemiNaive);
        let q = ahead_query();
        let engine = db.eval(&q).unwrap();
        let program = ahead_program(&base);
        let (s, s_ms) =
            time(|| sld::solve(&program, &ahead_goal(), &SldConfig::default()).unwrap());
        let (t, t_ms) = time(|| tabled::solve(&program, &ahead_goal()).unwrap());
        let engine_set: dc_value::FxHashSet<Vec<Value>> =
            engine.iter().map(|tup| tup.fields().to_vec()).collect();
        let equal = engine_set == s.answers && s.answers == t.answers;
        assert!(equal, "the §3.4 lemma holds on {label}");
        db.clear_solved_cache();
        let (_, c_ms) = time(|| {
            let mut ev = dc_calculus::Evaluator::new(&db);
            ev.eval(&q).unwrap()
        });
        println!(
            "  {label:<14} {c_ms:>8.2}ms {s_ms:>8.2}ms {t_ms:>8.2}ms   yes ({} tuples)",
            engine.len()
        );
    }
}
