//! Per-layer probes: each times one layer through its public functions
//! on the *same inputs* the workload gave the engine. They are
//! attributions from outside — an upper bound on what the layer costs
//! inside a solve or a commit, where its caches are warm and its calls
//! are inlined. Splitting an operation by the engine's own spans is a
//! later issue.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dc_index::{HashIndex, StatsBuilder};
use dc_relation::{algebra, Relation};
use dc_server::Server;
use dc_value::{Tuple, Value};

use crate::engine;
use crate::gen::Inputs;
use crate::oracle;
use crate::span::Recorder;
use crate::stats::median;
use crate::stream::Stream;
use crate::workload::{cores, Outcome, Tally, ENGINE_THREADS};

/// A probe makes calls until it has made a thousand or spent this
/// long (a tenth of it under `--smoke`), and never fewer than three.
pub const PROBE_TIME: Duration = Duration::from_millis(200);
const PROBE_CALLS: usize = 1000;
const MIN_CALLS: usize = 3;

#[derive(Clone, Copy)]
struct Timer {
    probe_time: Duration,
}

impl Timer {
    /// Median nanoseconds of `call`, each on a fresh `prepare()` that
    /// is not timed; neither is dropping what the call returns.
    fn ns<S, R>(self, mut prepare: impl FnMut() -> S, mut call: impl FnMut(S) -> R) -> f64 {
        let began = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < MIN_CALLS
            || (samples.len() < PROBE_CALLS && began.elapsed() < self.probe_time)
        {
            let state = prepare();
            let t0 = Instant::now();
            let result = black_box(call(black_box(state)));
            samples.push(t0.elapsed().as_nanos() as f64);
            drop(result);
        }
        median(&mut samples)
    }
}

pub struct Probed {
    pub metrics: Vec<(&'static str, f64)>,
    /// Probes check what they compute, too.
    pub tally: Tally,
    pub threads_compared: usize,
}

/// Every per-layer metric except the two overheads, which need a
/// traced window and child processes.
pub fn run(inputs: &Inputs, probe_time: Duration) -> Result<Probed, String> {
    let timer = Timer { probe_time };
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut tally = Tally::default();

    // ---- dc-lang -----------------------------------------------------
    let join_text = engine::join_query(inputs);
    let closure_text = engine::closure_query(inputs);
    let program = format!("{}\n{closure_text}\nQUERY {join_text};\n", inputs.script);
    m.push((
        "lang.parse_us",
        timer.ns(|| (), |()| dc_lang::parser::parse_script(&program)) / 1e3,
    ));
    let join = dc_lang::parser::parse_expr(&join_text).map_err(|e| e.to_string())?;
    let whole = dc_lang::parser::parse_expr(inputs.edge_rel).map_err(|e| e.to_string())?;

    // ---- dc-calculus, through Database and Server ---------------------
    let db = engine::define_and_load(inputs)?;
    let edges: Relation = db.eval(&whole).map_err(|e| e.to_string())?;
    let tuples: Vec<Tuple> = inputs.relations[inputs
        .relations
        .iter()
        .position(|r| r.0 == inputs.edge_rel)
        .expect("edge relation")]
    .1
    .clone();
    let n = tuples.len() as f64;
    let schema = edges.schema().clone();
    let fresh_relation = |ts: &[Tuple]| {
        Relation::from_tuples(schema.clone(), ts.iter().cloned()).expect("tuples of the schema")
    };

    {
        // `explain` evaluates the query it explains, so it is given a
        // database with one edge: type check and plan, and next to no run.
        let mut tiny = engine::define(inputs)?;
        tiny.insert_all(inputs.edge_rel, tuples.iter().take(1).cloned())
            .map_err(|e| e.to_string())?;
        m.push((
            "calculus.explain_us",
            timer.ns(|| (), |()| tiny.explain(&join)) / 1e3,
        ));
    }
    let rows = db.eval(&join).map_err(|e| e.to_string())?.len().max(1) as f64;
    m.push((
        "calculus.join_ns_per_row",
        timer.ns(|| (), |()| db.eval(&join)) / rows,
    ));
    m.push((
        "core.load_ns_per_tuple",
        timer.ns(
            || engine::define(inputs).expect("definitions ran before"),
            |mut db| {
                engine::load(&mut db, inputs).expect("tuples loaded before");
                db
            },
        ) / inputs.relations.iter().map(|r| r.1.len()).sum::<usize>() as f64,
    ));

    // ---- dc-core: the fresh solve, at one thread and at several -------
    let expected = oracle::closure(&inputs.edges).len();
    let rounds = (oracle::longest_path(&inputs.edges) + 1) as f64;
    let mut solve_at = |threads: usize| {
        std::env::set_var("DC_THREADS", threads.to_string());
        timer.ns(
            || engine::define_and_load(inputs).expect("loaded before"),
            |mut db| {
                let answer = engine::query(&mut db, &closure_text);
                tally.attempted += 1;
                tally.check(answer.as_ref().is_ok_and(|a| a.len() == expected), || {
                    format!(
                        "solve probe at {threads} threads: {:?}",
                        answer.map(|a| a.len())
                    )
                });
                db
            },
        )
    };
    let several = cores().min(4);
    let solve_1 = solve_at(1);
    let solve_n = if several > 1 {
        solve_at(several)
    } else {
        solve_1
    };
    std::env::set_var("DC_THREADS", ENGINE_THREADS.to_string());
    m.push(("core.us_per_round", solve_1 / 1e3 / rounds));
    m.push(("core.ns_per_derived_tuple", solve_1 / expected as f64));
    m.push(("exec.thread_ratio", solve_1 / solve_n));

    // ---- dc-index -----------------------------------------------------
    let (first_half, second_half) = tuples.split_at(tuples.len() / 2);
    let half = second_half.len() as f64;
    m.push((
        "index.build_ns_per_tuple",
        timer.ns(|| (), |()| HashIndex::build(&edges, vec![0])) / n,
    ));
    let half_index = HashIndex::build(&fresh_relation(first_half), vec![0]);
    m.push((
        "index.add_ns",
        timer.ns(
            || half_index.clone(),
            |mut index| {
                for t in second_half {
                    index.add(t.clone());
                }
                index
            },
        ) / half,
    ));
    let full_index = HashIndex::build(&edges, vec![0]);
    m.push((
        "index.probe_ns",
        timer.ns(
            || (),
            |()| {
                // Probe `front` with every tuple's `back`: the join's probes.
                tuples
                    .iter()
                    .map(|t| {
                        full_index
                            .probe_slice(std::slice::from_ref::<Value>(t.get(1)))
                            .len()
                    })
                    .sum::<usize>()
            },
        ) / n,
    ));
    let half_stats = StatsBuilder::from_relation(&fresh_relation(first_half));
    m.push((
        "index.stats_add_ns",
        timer.ns(
            || half_stats.clone(),
            |mut stats| {
                for t in second_half {
                    stats.add(t);
                }
                stats
            },
        ) / half,
    ));

    // ---- dc-relation --------------------------------------------------
    let right = fresh_relation(second_half);
    m.push((
        "relation.union_into_ns_per_tuple",
        timer.ns(
            || fresh_relation(first_half),
            |mut left| {
                algebra::union_into(&mut left, &right).expect("same schema");
                left
            },
        ) / half,
    ));
    let newcomer = Tuple::new(vec![Value::str("probe-a"), Value::str("probe-b")]);
    m.push((
        "relation.cow_detach_ns_per_tuple",
        timer.ns(
            || {
                let rel = fresh_relation(&tuples);
                let pinned = rel.snapshot_handle();
                (rel, pinned)
            },
            |(mut rel, pinned)| {
                // The first write to shared storage copies all of it.
                rel.insert(newcomer.clone()).expect("a tuple of the schema");
                (rel, pinned)
            },
        ) / n,
    ));
    m.push((
        "relation.digest_ns_per_tuple",
        timer.ns(|| fresh_relation(&tuples), |rel| (rel.digest(), rel)) / n,
    ));
    let older = fresh_relation(&tuples[..tuples.len() - tuples.len().min(8)]);
    m.push((
        "relation.delta_ns_per_tuple",
        timer.ns(
            || fresh_relation(&tuples),
            |newer| algebra::delta(&newer, &older),
        ) / n,
    ));

    // ---- dc-server ----------------------------------------------------
    m.push((
        "server.publish_us",
        timer.ns(
            || engine::define_and_load(inputs).expect("loaded before"),
            Server::new,
        ) / 1e3,
    ));
    let (server, batches) = Stream::without_subscriptions(inputs)?;
    m.push((
        "server.begin_us",
        timer.ns(|| (), |()| server.begin()) / 1e3,
    ));
    m.push((
        "calculus.prepare_us",
        timer.ns(|| (), |()| server.prepare(&join)) / 1e3,
    ));
    let prepared = server.prepare(&join).map_err(|e| e.to_string())?;
    let read_ms = || {
        let t0 = Instant::now();
        let answer = server.begin().query(&prepared);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        (ms, answer.map(|a| a.len()))
    };
    // One commit, then the read that finds the caches cold for what
    // the commit touched, then two reads that find them warm.
    let (mut warm, mut after_commit, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    let began = Instant::now();
    while commit.len() < batches.len() * MIN_CALLS
        || (commit.len() < PROBE_CALLS && began.elapsed() < probe_time * 2)
    {
        for batch in &batches {
            let t0 = Instant::now();
            let committed = server.commit(batch);
            commit.push(t0.elapsed().as_secs_f64() * 1e3);
            let reads = [read_ms(), read_ms(), read_ms()];
            after_commit.push(reads[0].0);
            warm.extend([reads[1].0, reads[2].0]);
            tally.attempted += 1;
            tally.check(
                committed.is_ok()
                    && reads[0].1.is_ok()
                    && reads
                        .iter()
                        .all(|r| r.1.as_ref().ok() == reads[0].1.as_ref().ok()),
                || "server probe: a commit or a read failed, or reads of one epoch differ".into(),
            );
        }
    }
    let commit_nosub_ms = median(&mut commit);
    m.push(("server.warm_query_ms", median(&mut warm)));
    m.push((
        "server.first_query_after_commit_ms",
        median(&mut after_commit),
    ));
    m.push(("server.commit_nosub_ms", commit_nosub_ms));

    // ---- standing queries: the stream's cycle on these inputs ----------
    let mut stream = Stream::setup(inputs.clone())?;
    let mut out = Outcome::default();
    let began = Instant::now();
    let mut cycles = 0;
    while cycles < MIN_CALLS || began.elapsed() < probe_time * 2 {
        stream.cycle(&mut Recorder::off(), began, &mut out);
        cycles += 1;
    }
    let window = began.elapsed().as_secs_f64();
    let delivery_ms = out.op.latency(window).map_or(f64::NAN, |s| s.value);
    m.push(("subscribe.refresh_ms", delivery_ms - commit_nosub_ms));
    m.push((
        "subscribe.warm_ratio",
        out.warm_inserts as f64 / out.op.len().max(1) as f64,
    ));
    tally.merge(out.tally);

    Ok(Probed {
        metrics: m,
        tally,
        threads_compared: several,
    })
}
