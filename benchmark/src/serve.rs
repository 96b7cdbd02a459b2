//! `serve_mixed`: reads beside writes on the same relations of a
//! served CAD scene. One closed-loop reader cycles four prepared
//! queries, each on a fresh session; one open-loop writer commits at a
//! fixed rate whatever the reader does, because independent users do
//! not wait for one another. Quantifier probes, decorrelation and the
//! hand-off of warm caches from epoch to epoch do the work here; the
//! fixpoint does none.

use std::time::{Duration, Instant};

use dc_server::{PreparedQuery, Server, WriteBatch};

use crate::affinity;
use crate::engine;
use crate::gen::{Batch, Inputs, Scene};
use crate::json::Json;
use crate::oracle::{self, Expected};
use crate::span::{Recorder, Span};
use crate::stats::{Lateness, Series};
use crate::workload::{Outcome, Tally, Workload};

/// The reader's queries in DBPL text. `front-row` reads only
/// `Objects` and `Infront`, which no commit touches: it is this
/// workload's bypass for any change to the commit path.
pub const QUERIES: [(&str, &str); 4] = [
    (
        "visibility",
        "{EACH r IN Infront: SOME t IN Ontop (t.base = r.front) \
         AND NOT SOME b IN Ontop (b.base = r.back)}",
    ),
    (
        "front-row",
        "{EACH o IN Objects: NOT SOME r IN Infront (r.back = o.part)}",
    ),
    (
        "stacked-back",
        "{EACH r IN Infront: SOME t IN Ontop[on_base(r.back)] (TRUE)}",
    ),
    (
        "join",
        "{<r.front, t.top> OF EACH r IN Infront, EACH t IN Ontop: r.back = t.base}",
    ),
];

/// The writer's schedule: one commit every 50 ms.
const COMMIT_PERIOD: Duration = Duration::from_millis(50);
const SPIN: Duration = Duration::from_millis(1);
const WARM_UP_ROUNDS: usize = 5;

pub struct Serve {
    inputs: Inputs,
    scene: Scene,
    server: Server,
    prepared: Vec<PreparedQuery>,
    /// `swap[p]` takes `Ontop` from the state of parity `p` to the other.
    swap: [WriteBatch; 2],
    /// `expected[q][p]`: query `q` at an epoch of parity `p`.
    expected: Vec<[Expected; 2]>,
}

impl Serve {
    pub fn setup((inputs, scene): (Inputs, Scene)) -> Result<Serve, String> {
        let server = Server::new(engine::define_and_load(&inputs)?);
        let prepared = QUERIES
            .iter()
            .map(|(name, text)| {
                let ast = dc_lang::parser::parse_expr(text).map_err(|e| format!("{name}: {e}"))?;
                server.prepare(&ast).map_err(|e| format!("{name}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let swap = [0, 1].map(|p| {
            engine::write_batch(
                "Ontop",
                &Batch {
                    delete: scene.toggle[p].clone(),
                    insert: scene.toggle[1 - p].clone(),
                },
            )
        });
        let serve = Serve {
            inputs,
            scene,
            server,
            prepared,
            swap,
            expected: Vec::new(),
        };
        // An even number of commits, so the scene ends where it began.
        for round in 0..WARM_UP_ROUNDS * 2 {
            for q in &serve.prepared {
                serve
                    .server
                    .begin()
                    .query(q)
                    .map_err(|e| format!("warm-up read: {e}"))?;
            }
            serve
                .server
                .commit(&serve.swap[round % 2])
                .map_err(|e| format!("warm-up commit: {e}"))?;
        }
        Ok(serve)
    }
}

#[derive(Default)]
struct Reads {
    tally: Tally,
    /// One sample per turn of the four queries: the mean of its reads.
    /// The four cost between 0.3 and 1.3 ms, and the median of such a
    /// mixture lies in the gap between two of them, where a 2 % change
    /// of either moves it by 15 %.
    latency: Series,
    /// Every read, by query, for the report.
    per_query: [Vec<f64>; QUERIES.len()],
    completions: Series,
    warm: Vec<f64>,
    after_commit: Vec<f64>,
    spans: Vec<Span>,
    pinned: bool,
}

fn reader(serve: &Serve, start: Instant, seconds: f64, mut rec: Recorder) -> Reads {
    let mut out = Reads {
        pinned: affinity::pin_to_allowed_cpu(0),
        ..Reads::default()
    };
    let mut last_epoch = [u64::MAX; QUERIES.len()];
    let mut turn = 0;
    let mut turn_ms = 0.0;
    while start.elapsed().as_secs_f64() < seconds {
        let q = turn % QUERIES.len();
        turn += 1;
        out.tally.attempted += 1;
        let root = rec.root("read");
        let t0 = Instant::now();
        let session = rec.child(root, "server.begin", || serve.server.begin());
        let answer = rec.child(root, "session.query", || session.query(&serve.prepared[q]));
        let t1 = Instant::now();
        rec.close(root);
        let epoch = session.epoch();
        match answer {
            Err(e) => out.tally.fail(|| format!("{}: {e}", QUERIES[q].0)),
            Ok(answer) => {
                let ms = (t1 - t0).as_secs_f64() * 1e3;
                out.per_query[q].push(ms);
                out.completions.push((t1 - start).as_secs_f64(), 1.0);
                turn_ms += ms;
                if q + 1 == QUERIES.len() {
                    out.latency
                        .push((t1 - start).as_secs_f64(), turn_ms / QUERIES.len() as f64);
                    turn_ms = 0.0;
                }
                if epoch == last_epoch[q] {
                    out.warm.push(ms);
                } else {
                    out.after_commit.push(ms);
                }
                last_epoch[q] = epoch;
                // The answer must be the one for the epoch this
                // session pinned, whatever the writer has done since.
                let expected = &serve.expected[q][(epoch % 2) as usize];
                out.tally.check(expected.matches(&answer), || {
                    format!(
                        "{} at epoch {epoch}: {} tuples, the oracle has {}, or they differ",
                        QUERIES[q].0,
                        answer.len(),
                        expected.len
                    )
                });
            }
        }
    }
    out.spans = rec.into_spans();
    out
}

#[derive(Default)]
struct Writes {
    tally: Tally,
    latency: Series,
    lateness: Lateness,
    spans: Vec<Span>,
    pinned: bool,
}

fn writer(serve: &Serve, start: Instant, seconds: f64, mut rec: Recorder) -> Writes {
    let mut out = Writes {
        pinned: affinity::pin_to_allowed_cpu(1),
        ..Writes::default()
    };
    let mut epoch = serve.server.current_epoch();
    for k in 1u32.. {
        let due = start + COMMIT_PERIOD * k;
        if (due - start).as_secs_f64() >= seconds {
            break;
        }
        // Sleep to just short of the due time and spin the rest: a
        // sleeping thread wakes some 50 µs late (timer slack), half of
        // what a commit takes.
        std::thread::sleep(due.saturating_duration_since(Instant::now() + SPIN));
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        out.tally.attempted += 1;
        // How late the generator ran is reported, not failed: on a
        // shared box a thread can lose the processor for a whole
        // period, and that says nothing about the engine. The stall
        // still counts, in the latency of the commit it delayed.
        out.lateness.push(due.elapsed().as_secs_f64() * 1e3);
        let root = rec.root("write");
        let result = rec.child(root, "server.commit", || {
            serve.server.commit(&serve.swap[(epoch % 2) as usize])
        });
        rec.close(root);
        // Timed from when the commit was due: a stall counts against
        // every commit it delays, not only the one that stalled.
        let done = Instant::now();
        match result {
            Err(e) => out.tally.fail(|| format!("commit {k}: {e}")),
            Ok(new_epoch) => {
                out.tally.check(new_epoch == epoch + 1, || {
                    format!("commit {k} published epoch {new_epoch} after {epoch}")
                });
                epoch = new_epoch;
                out.latency.push(
                    (done - start).as_secs_f64(),
                    (done - due).as_secs_f64() * 1e3,
                );
            }
        }
    }
    out.spans = rec.into_spans();
    out
}

fn median_or_null(mut values: Vec<f64>) -> Json {
    if values.is_empty() {
        Json::Null
    } else {
        Json::num(crate::stats::median(&mut values))
    }
}

impl Workload for Serve {
    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn arm_oracle(&mut self, corrupt: bool) {
        let sc = &self.scene;
        let ontop = [0, 1].map(|p| {
            let mut rel = sc.ontop.clone();
            rel.extend(sc.toggle[p].iter().cloned());
            rel
        });
        let per_state = |f: &dyn Fn(&[crate::gen::Pair]) -> Vec<dc_value::Tuple>, bad: bool| {
            [0, 1].map(|p| Expected::new(f(&ontop[p]), bad))
        };
        self.expected = vec![
            per_state(&|o| oracle::visibility(&sc.infront, o), false),
            per_state(&|_| oracle::front_row(&sc.objects, &sc.infront), false),
            per_state(&|o| oracle::stacked_back(&sc.infront, o), false),
            per_state(&|o| oracle::join(&sc.infront, o), corrupt),
        ];
    }

    fn measure(&mut self, seconds: f64, rec: Recorder) -> Outcome {
        assert!(!self.expected.is_empty(), "oracle armed before measuring");
        let this = &*self;
        let start = Instant::now();
        let write_rec = rec.sibling(1);
        let (reads, writes) = std::thread::scope(|scope| {
            let w = scope.spawn(move || writer(this, start, seconds, write_rec));
            let r = scope.spawn(move || reader(this, start, seconds, rec));
            (
                r.join().expect("reader thread panicked"),
                w.join().expect("writer thread panicked"),
            )
        });
        let mut out = Outcome {
            window_s: start.elapsed().as_secs_f64().max(seconds),
            ..Outcome::default()
        };
        out.tally.merge(reads.tally);
        out.tally.merge(writes.tally);
        out.counts = vec![
            (
                "infront_tuples",
                Json::count(self.scene.infront.len() as u64),
            ),
            (
                "ontop_tuples",
                Json::count(self.scene.ontop.len() as u64 + 2),
            ),
            (
                "objects_tuples",
                Json::count(self.scene.objects.len() as u64),
            ),
        ];
        out.detail = vec![
            // Each client on a processor of its own; see `affinity`.
            ("reader_pinned", Json::Bool(reads.pinned)),
            ("writer_pinned", Json::Bool(writes.pinned)),
            (
                "writer",
                writes.lateness.to_json(COMMIT_PERIOD.as_secs_f64() * 1e3),
            ),
            (
                "query_ms",
                Json::obj(
                    QUERIES
                        .iter()
                        .zip(reads.per_query)
                        .map(|(q, ms)| (q.0, median_or_null(ms))),
                ),
            ),
            ("warm_reads", Json::count(reads.warm.len() as u64)),
            ("warm_query_ms", median_or_null(reads.warm)),
            (
                "reads_first_after_commit",
                Json::count(reads.after_commit.len() as u64),
            ),
            (
                "first_query_after_commit_ms",
                median_or_null(reads.after_commit),
            ),
        ];
        out.op = reads.latency;
        out.completions = reads.completions;
        out.write = writes.latency;
        out.spans = reads.spans;
        out.spans.extend(writes.spans);
        out
    }
}
