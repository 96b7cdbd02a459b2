//! Text-report harness: the paper reproduction, one section per
//! experiment (E1–E7).
//!
//! It gives the *shape* report — who wins, by what factor, where the
//! crossovers are — in a form directly comparable to the paper's
//! qualitative claims, and asserts what is algorithmic: cross-engine
//! agreement, round and equation counts, and order-of-magnitude
//! access-path bounds. Timings are single shots, but for E2's
//! `probe_ms` (the median of five per query); the gated, repeated
//! performance measurement is `dcbench` (`benchmark/`).
//!
//! Run with: `cargo run --release --bin harness`

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dc_bench::*;
use dc_calculus::builder::{cnst, rel};
use dc_core::options::{ahead_step, program_iteration, recursive_function, transitive_closure};
use dc_core::paper::{self, partition_by_names, QuantGraph};
use dc_core::{Database, Strategy};
use dc_prolog::sld::{self, SldConfig};
use dc_prolog::tabled;
use dc_relation::Relation;
use dc_server::{Server, WriteBatch};
use dc_trace::metrics::MetricsSnapshot;
use dc_value::{tuple, Value};

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Splice the owning registry's snapshot into a finished JSON row as a
/// `"metrics"` object, so every `BENCH_*.json` row carries the engine
/// counters behind its timings (rounds, delta tuples, probe/scan
/// decisions, warm-map hits, latencies).
fn row_with_metrics(row: String, snap: &MetricsSnapshot) -> String {
    let body = row
        .strip_suffix('}')
        .expect("bench rows are one-line JSON objects");
    format!("{body}, \"metrics\": {}}}", snap.to_json())
}

/// A cold evaluation of `q` (solved memo cleared first): the answer's
/// size, its wall time, and what it recorded into `db`'s registry.
fn eval_ms(db: &Database, q: &dc_calculus::RangeExpr) -> (usize, f64, MetricsSnapshot) {
    db.clear_solved_cache();
    let ((out, ms), counts) = counted(&db.metrics(), || time(|| db.evaluator().eval(q).unwrap()));
    (out.len(), ms, counts)
}

/// The median wall time of five cold evaluations of `q`, `first` being
/// the first's: one shot's time swings by tens of percent on a shared
/// host. E2's `probe_ms` is built from these.
fn median_ms(db: &Database, q: &dc_calculus::RangeExpr, first: f64) -> f64 {
    let mut shots = vec![first];
    shots.extend((1..5).map(|_| eval_ms(db, q).1));
    shots.sort_by(f64::total_cmp);
    shots[2]
}

/// The oracle's answer to `q` over `db` (`dc_bench::oracle`, the query
/// as written): its size, its wall time, and the rounds its solves took
/// — the reference side of every agreement check.
fn oracle_ms(db: &Database, q: &dc_calculus::RangeExpr) -> (usize, f64, u64) {
    let ((out, rounds), ms) = time(|| oracle::eval_counting(db, q));
    (out.unwrap().len(), ms, rounds)
}

fn main() {
    println!("Data Constructors (VLDB 1985) — experiment harness");
    println!("===================================================\n");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    e1();
    write_bench_e1(&e1b());
    e2();
    let e2b_rows = e2b();
    let e2c_rows = e2c();
    let e2d_rows = e2d();
    write_bench_e2(&e2b_rows, &e2c_rows, &e2d_rows);
    e3();
    write_bench_e3(&e3b(cores));
    e4();
    write_bench_e4(&e4b(cores));
    e5();
    e6();
    e7();
    println!("\nAll experiment assertions passed.");
}

/// E1b: the semi-naive, index-nested-loop engine against the oracle's
/// naive nested loops, which must agree on the closure and its round
/// count — the gap this engine's join planner and differential rounds
/// are responsible for. Asserts the ≥5× bound on the 1k-node tree (an
/// access-path class, not a constant). The measured rows go to
/// `BENCH_e1.json` (see [`write_bench_e1`]).
fn e1b() -> Vec<String> {
    println!("E1b semi-naive index-nested-loop joins vs the oracle's naive nested loops");
    println!("  workload              nodes  edges  closure  indexed(ms)  oracle(ms)  speedup");
    let workloads: Vec<(&str, usize, Relation)> = vec![
        ("binary tree d=10", 1023, workload::complete_binary_tree(10)),
        ("chain n=128", 129, workload::chain(128)),
        ("ladder k=24", 50, workload::diamond_ladder(24)),
    ];
    let mut rows = Vec::new();
    for (label, nodes, base) in workloads {
        let q = ahead_query();
        let db_idx = ahead_db(&base, Strategy::SemiNaive);
        let (idx_len, idx_ms, idx) = eval_ms(&db_idx, &q);
        let (oracle_len, oracle_ms, rounds) = oracle_ms(&db_idx, &q);
        assert_eq!(
            idx_len, oracle_len,
            "engine must agree with the oracle on {label}"
        );
        assert_eq!(idx.solve_rounds, rounds, "{label}");
        let speedup = oracle_ms / idx_ms;
        println!(
            "  {label:<20} {nodes:>6} {:>6} {idx_len:>8} {idx_ms:>12.2} {oracle_ms:>11.2} {speedup:>7.1}x",
            base.len()
        );
        rows.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"{}\", \"nodes\": {}, \"edges\": {}, \"closure\": {}, ",
                    "\"rounds\": {}, \"index_builds\": {}, ",
                    "\"semi_indexed_ms\": {:.3}, \"oracle_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                label,
                nodes,
                base.len(),
                idx_len,
                idx.solve_rounds,
                idx.warm_index_misses,
                idx_ms,
                oracle_ms,
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

/// Emit `BENCH_e1.json`: the E1b engine-against-oracle rows, one flat array — a
/// reproduction table, not a gate.
fn write_bench_e1(e1b_rows: &[String]) {
    let json = format!("[\n{}\n]\n", e1b_rows.join(",\n"));
    if let Err(e) = std::fs::write("BENCH_e1.json", &json) {
        eprintln!("  (could not write BENCH_e1.json: {e})");
    } else {
        println!("  join rows written to BENCH_e1.json\n");
    }
}

fn e1() {
    println!("E1  set-oriented fixpoint vs proof-oriented PROLOG (claim C1)");
    println!("  workload            naive(ms)  semi(ms)  sld(ms)  tabled(ms)  tuples");
    for (label, base) in [
        ("chain n=32", workload::chain(32)),
        ("chain n=64", workload::chain(64)),
        ("chain n=128", workload::chain(128)),
        ("ladder k=6", workload::diamond_ladder(6)),
        ("ladder k=8", workload::diamond_ladder(8)),
        ("ladder k=10", workload::diamond_ladder(10)),
    ] {
        let q = ahead_query();
        let (n_len, n_ms, _) = eval_ms(&ahead_db(&base, Strategy::Naive), &q);
        let (s_len, s_ms, _) = eval_ms(&ahead_db(&base, Strategy::SemiNaive), &q);
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
/// constructor. Both sides are the same calculus query: as written
/// through `Database::evaluator` (full closure, then the filter), and
/// served through `Database::eval`, which rewrites it where it enters
/// into the seeded constructor defined beside `ahead`. The work
/// columns are the engine's own counters — tuples carried in
/// semi-naive deltas and fixpoint rounds — so the pay-off is asserted
/// on work done, not on a timing: the served solve stays within a small
/// multiple of the cone while the full solve derives every chain.
fn e2() {
    const DEPTH: usize = 32;
    println!("E2  constraint propagation into constructors (claim C2)");
    println!(
        "  k chains × {DEPTH}      full+filter(ms)  served(ms)  cone  delta_tuples full/served  solve_rounds full/served"
    );
    for k in [4usize, 16, 64] {
        let db = ahead_db(&many_chains(k, DEPTH), Strategy::SemiNaive);
        let q = bound_query(ahead_query(), "head", cnst("c0_0"));
        let measure = |eval: &dyn Fn() -> Relation| {
            let ((out, ms), d) = counted(&db.metrics(), || time(eval));
            (out, ms, d.delta_tuples, d.solve_rounds)
        };
        let (full, full_ms, full_delta, full_rounds) =
            measure(&|| db.evaluator().eval(&q).unwrap());
        let (served, served_ms, served_delta, served_rounds) = measure(&|| db.eval(&q).unwrap());
        assert_eq!(served, full, "propagation is sound");
        assert_eq!(served.len(), DEPTH, "the cone is one chain");
        assert!(
            served_delta <= 4 * DEPTH as u64,
            "served solve carried {served_delta} delta tuples for a cone of {DEPTH}"
        );
        if k == 64 {
            assert!(
                full_delta > 30_000,
                "full closure carried only {full_delta} delta tuples"
            );
        }
        println!(
            "  k={k:<16} {full_ms:>15.2} {served_ms:>11.3} {:>5} {:>24} {:>26}",
            served.len(),
            format!("{full_delta}/{served_delta}"),
            format!("{full_rounds}/{served_rounds}"),
        );
    }
    println!();
}

/// E2b: index-aware quantifier probes vs the oracle's quantifier scans —
/// the selector-style predicates of §2.3 (`SOME t IN Ontop: t.base =
/// r.front`) decided through hash-bucket existence probes instead of
/// per-combination range scans. Asserts the ≥3× bound on the largest
/// scene; the measured rows become the `"e2b"` section of
/// `BENCH_e2.json` (see [`write_bench_e2`]).
fn e2b() -> Vec<String> {
    println!("E2b index-aware quantifier probes vs the oracle's scans (visibility selector)");
    println!(
        "  scene        objects  infront  ontop  visible  front-row  probe(ms)  oracle(ms)  speedup"
    );
    let mut rows_out = Vec::new();
    let scenes = [(20usize, 20usize), (40, 40), (60, 60)];
    let largest = scenes.len() - 1;
    for (i, (rows, depth)) in scenes.into_iter().enumerate() {
        let scene = workload::scene(rows, depth, 2, 11);
        let vis_q = visibility_query();
        let front_q = front_row_query();
        let db = scene_db(&scene);
        let (vis_len, vis_ms, _) = eval_ms(&db, &vis_q);
        let (front_len, front_ms, _) = eval_ms(&db, &front_q);
        // The row's counters are one evaluation's of each query.
        let counters = db.metrics().snapshot();
        let (vis_ms, front_ms) = (
            median_ms(&db, &vis_q, vis_ms),
            median_ms(&db, &front_q, front_ms),
        );
        let (vis_oracle_len, vis_oracle_ms, _) = oracle_ms(&db, &vis_q);
        let (front_oracle_len, front_oracle_ms, _) = oracle_ms(&db, &front_q);
        assert_eq!(
            vis_len, vis_oracle_len,
            "quantifier probes must agree with the oracle ({rows}x{depth})"
        );
        assert_eq!(
            front_len, front_oracle_len,
            "negated-quantifier probes must agree with the oracle ({rows}x{depth})"
        );
        let probe_ms = vis_ms + front_ms;
        let oracle_ms = vis_oracle_ms + front_oracle_ms;
        let speedup = oracle_ms / probe_ms;
        let label = format!("{rows}x{depth}");
        println!(
            "  {label:<12} {:>7} {:>8} {:>6} {vis_len:>8} {front_len:>10} {probe_ms:>10.2} {oracle_ms:>11.2} {speedup:>7.1}x",
            scene.objects.len(),
            scene.infront.len(),
            scene.ontop.len(),
        );
        rows_out.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"scene {}\", \"objects\": {}, \"infront\": {}, ",
                    "\"ontop\": {}, \"visible\": {}, \"front_row\": {}, ",
                    "\"probe_ms\": {:.3}, \"oracle_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                label,
                scene.objects.len(),
                scene.infront.len(),
                scene.ontop.len(),
                vis_len,
                front_len,
                probe_ms,
                oracle_ms,
                speedup
            ),
            &counters,
        ));
        if i == largest {
            assert!(
                speedup >= 3.0,
                "≥3× on the quantifier workload, measured {speedup:.1}x"
            );
        }
    }
    println!();
    rows_out
}

/// E2c: unnested correlated-quantifier probes vs the oracle's
/// per-combination range evaluation — the correlated selector
/// application `Ontop[on_base(r.back)]` (unnested into a quantifier
/// over `Ontop` probed on `base` per edge) and the implication-shaped
/// `ALL` body (`NOT p OR q`, probed through its falsifier after NNF).
/// Asserts the ≥3× bound on the largest scene; the measured rows become
/// the `"e2c"` section of `BENCH_e2.json`.
fn e2c() -> Vec<String> {
    println!("E2c unnested correlated-quantifier probes vs the oracle's scans");
    println!(
        "  scene        infront  ontop  stacked-back  bare-front  probe(ms)  oracle(ms)  speedup"
    );
    let mut rows_out = Vec::new();
    let scenes = [(20usize, 20usize), (40, 40), (60, 60)];
    let largest = scenes.len() - 1;
    for (i, (rows, depth)) in scenes.into_iter().enumerate() {
        let scene = workload::scene(rows, depth, 2, 11);
        let sel_q = stacked_back_query();
        let imp_q = unburdened_front_query();
        let db = scene_db(&scene);
        let (sel_len, sel_ms, _) = eval_ms(&db, &sel_q);
        let (imp_len, imp_ms, _) = eval_ms(&db, &imp_q);
        // The row's counters are one evaluation's of each query.
        let counters = db.metrics().snapshot();
        let (sel_ms, imp_ms) = (
            median_ms(&db, &sel_q, sel_ms),
            median_ms(&db, &imp_q, imp_ms),
        );
        let (sel_oracle_len, sel_oracle_ms, _) = oracle_ms(&db, &sel_q);
        let (imp_oracle_len, imp_oracle_ms, _) = oracle_ms(&db, &imp_q);
        assert_eq!(
            sel_len, sel_oracle_len,
            "unnested probes must agree with the oracle ({rows}x{depth})"
        );
        assert_eq!(
            imp_len, imp_oracle_len,
            "implication-body probes must agree with the oracle ({rows}x{depth})"
        );
        let probe_ms = sel_ms + imp_ms;
        let oracle_ms = sel_oracle_ms + imp_oracle_ms;
        let speedup = oracle_ms / probe_ms;
        let label = format!("{rows}x{depth}");
        println!(
            "  {label:<12} {:>7} {:>6} {sel_len:>13} {imp_len:>11} {probe_ms:>10.2} {oracle_ms:>11.2} {speedup:>7.1}x",
            scene.infront.len(),
            scene.ontop.len(),
        );
        rows_out.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"scene {}\", \"infront\": {}, \"ontop\": {}, ",
                    "\"stacked_back\": {}, \"bare_front\": {}, ",
                    "\"probe_ms\": {:.3}, \"oracle_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                label,
                scene.infront.len(),
                scene.ontop.len(),
                sel_len,
                imp_len,
                probe_ms,
                oracle_ms,
                speedup
            ),
            &counters,
        ));
        if i == largest {
            assert!(
                speedup >= 3.0,
                "≥3× on the correlated-selector workload, measured {speedup:.1}x"
            );
        }
    }
    println!();
    rows_out
}

/// E2d: multi-binding correlated-join unnesting vs the oracle's
/// per-combination join evaluation — the quantified range is a **join
/// view** over two bindings correlated on both (`a.task = r.task AND
/// s.tool = r.tool`), so the oracle pays the full
/// `Assign × Skill` product per request while the unnested path probes
/// `Assign` on `task` per request and `Skill` on `(worker, tool)` per
/// assigned worker. Asserts the ≥3× bound on the largest
/// instance; the measured rows become the `"e2d"` section of
/// `BENCH_e2.json`.
fn e2d() -> Vec<String> {
    println!("E2d multi-binding correlated-join unnesting vs the oracle's scans");
    println!(
        "  instance     assign  skill  requests  servable  avoids-w0  probe(ms)  oracle(ms)  speedup"
    );
    let mut rows_out = Vec::new();
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
        let s = workload::staffing(tasks, workers, tools, per_task, per_worker, requests, 11);
        let some_q = servable_request_query();
        let all_q = avoids_w0_request_query();
        let db = staffing_db(&s);
        let (some_len, some_ms, _) = eval_ms(&db, &some_q);
        let (all_len, all_ms, _) = eval_ms(&db, &all_q);
        // The row's counters are one evaluation's of each query.
        let counters = db.metrics().snapshot();
        let (some_ms, all_ms) = (
            median_ms(&db, &some_q, some_ms),
            median_ms(&db, &all_q, all_ms),
        );
        let (some_oracle_len, some_oracle_ms, _) = oracle_ms(&db, &some_q);
        let (all_oracle_len, all_oracle_ms, _) = oracle_ms(&db, &all_q);
        assert_eq!(
            some_len, some_oracle_len,
            "chained probes must agree with the oracle ({label})"
        );
        assert_eq!(
            all_len, all_oracle_len,
            "universal chained probes must agree with the oracle ({label})"
        );
        let probe_ms = some_ms + all_ms;
        let oracle_ms = some_oracle_ms + all_oracle_ms;
        let speedup = oracle_ms / probe_ms;
        println!(
            "  {label:<12} {:>6} {:>6} {:>9} {some_len:>9} {all_len:>10} {probe_ms:>10.2} {oracle_ms:>11.2} {speedup:>7.1}x",
            s.assign.len(),
            s.skill.len(),
            s.requests.len(),
        );
        rows_out.push(row_with_metrics(
            format!(
                concat!(
                    "  {{\"workload\": \"{}\", \"assign\": {}, \"skill\": {}, ",
                    "\"requests\": {}, \"servable\": {}, \"avoids_w0\": {}, ",
                    "\"probe_ms\": {:.3}, \"oracle_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                label,
                s.assign.len(),
                s.skill.len(),
                s.requests.len(),
                some_len,
                all_len,
                probe_ms,
                oracle_ms,
                speedup
            ),
            &counters,
        ));
        if i == largest {
            assert!(
                speedup >= 3.0,
                "≥3× on the multi-binding correlated-join workload, measured {speedup:.1}x"
            );
        }
    }
    println!();
    rows_out
}

/// Emit `BENCH_e2.json`: one section per quantifier experiment
/// (`"e2b"` — named-range probes, `"e2c"` — unnested correlated ranges
/// and implication bodies, `"e2d"` — unnested multi-binding correlated
/// joins), next to `BENCH_e1.json`.
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
        println!("  quantifier rows written to BENCH_e2.json\n");
    }
}

fn e3() {
    println!("E3  convergence: rounds vs depth; ahead_n limit (claim C3)");
    println!("  chain depth  naive-rounds  semi-rounds  closure");
    for depth in [8usize, 32, 128] {
        let base = workload::chain(depth);
        let q = ahead_query();
        let (len, _, naive) = eval_ms(&ahead_db(&base, Strategy::Naive), &q);
        let (_, _, semi) = eval_ms(&ahead_db(&base, Strategy::SemiNaive), &q);
        let (naive_rounds, semi_rounds) = (naive.solve_rounds, semi.solve_rounds);
        // The paper's bound: the limit is reached after finitely many
        // steps, ≈ longest path for the right-linear rule.
        let depth_u = depth as u64;
        assert!(naive_rounds >= depth_u && naive_rounds <= depth_u + 2);
        assert!(semi_rounds <= depth_u + 2);
        println!("  {depth:>11} {naive_rounds:>13} {semi_rounds:>12} {len:>8}");
    }
    // ahead_n limit check.
    let base = workload::chain(40);
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
/// rebuilds for the touched relation. A solve runs on its caller's
/// thread, so the scaling measured is *reader-session* concurrency.
/// QPS is total queries over
/// wall time; p99 is the per-query latency tail. The rows go to
/// `BENCH_e3.json`; the reader-scaling ratio is recorded, not asserted.
fn e3b(cores: usize) -> Vec<String> {
    println!("E3b mixed read/write serving: reader-pool QPS vs a live writer ({cores} core(s))");
    println!("  readers  queries  commits  epochs      qps  p99(ms)  speedup");
    const QUERIES_PER_READER: usize = 60;
    let mut rows_out = Vec::new();
    let mut base_qps = 0.0_f64;
    for readers in [1usize, 2, 4, 8] {
        let db = scene_db(&workload::scene(24, 24, 2, 11));
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
    rows_out
}

/// Emit `BENCH_e3.json`: the E3b mixed read/write serving rows, one
/// flat array.
fn write_bench_e3(e3b_rows: &[String]) {
    let json = format!("[\n{}\n]\n", e3b_rows.join(",\n"));
    if let Err(e) = std::fs::write("BENCH_e3.json", &json) {
        eprintln!("  (could not write BENCH_e3.json: {e})");
    } else {
        println!("  serving rows written to BENCH_e3.json\n");
    }
}

/// E4b: standing-query incremental maintenance against a from-scratch
/// re-query over the same insert-only commit stream. The incremental
/// side registers one subscription and lets every commit's refresh
/// re-enter the semi-naive rounds warm from the previous materialised
/// system; the from-scratch side replays the identical commits on a
/// second server and re-solves cold after each (content-addressed
/// solve keys make every re-solve genuine). Both sides must converge
/// to digest-identical closures, and every refresh must take the warm
/// path; the measured rows are written to `BENCH_e4.json`.
fn e4b(cores: usize) -> Vec<String> {
    println!(
        "E4b standing queries: incremental maintenance vs from-scratch re-query ({cores} core(s))"
    );
    println!("  chains×depth  commits  closure  warm  inc(ms)  scratch(ms)  speedup");
    const COMMITS: usize = 12;
    let mut rows_out = Vec::new();
    for (k, depth) in [(4usize, 32usize), (8, 56)] {
        let mk = || ahead_db(&many_chains(k, depth), Strategy::SemiNaive);
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
    rows_out
}

/// Emit `BENCH_e4.json`: the E4b standing-query maintenance rows, one
/// flat array.
fn write_bench_e4(e4b_rows: &[String]) {
    let json = format!("[\n{}\n]\n", e4b_rows.join(",\n"));
    if let Err(e) = std::fs::write("BENCH_e4.json", &json) {
        eprintln!("  (could not write BENCH_e4.json: {e})");
    } else {
        println!("  standing-query rows written to BENCH_e4.json\n");
    }
}

fn e4() {
    println!("E4  mutual recursion ahead/above (claim C4)");
    println!("  scene (rows×depth)  eqs  rounds  above-tuples  ms");
    for (rows, depth) in [(2usize, 8usize), (4, 16), (8, 24)] {
        let scene = workload::scene(rows, depth, 3, 7);
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
        let (len, ms, d) = eval_ms(&db, &q);
        assert_eq!(d.solve_equations, 2);
        println!(
            "  {rows:>2}×{depth:<15} {:>4} {:>7} {len:>13} {ms:>7.2}",
            d.solve_equations, d.solve_rounds
        );
    }
    println!();
}

fn e5() {
    println!("E5  fixpoint options ablation (claim C7), chain n=96");
    let base = workload::chain(96);
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
    let (_, cn_ms, _) = eval_ms(&ahead_db(&base, Strategy::Naive), &ahead_query());
    let (_, cs_ms, _) = eval_ms(&ahead_db(&base, Strategy::SemiNaive), &ahead_query());
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
        ("chain n=24", workload::chain(24)),
        ("ladder k=6", workload::diamond_ladder(6)),
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
