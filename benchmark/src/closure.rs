//! `closure_deep` and `closure_wide`: the §3.1 `ahead` closure solved
//! from DBPL text on a freshly loaded database, so every engine cache
//! is cold — what the first query of a session costs. Both share this
//! code and differ only in the graph: a long chain makes many rounds
//! of few tuples, a bushy tree few rounds of many.

use std::time::Instant;

use dc_core::Database;

use crate::engine;
use crate::gen::{pair_tuples, Inputs};
use crate::json::Json;
use crate::oracle::{self, Expected};
use crate::span::Recorder;
use crate::workload::{Outcome, Workload};

/// Warm-up is a fixed number of operations, never a duration, so that
/// set-up time grows when an operation gets slower.
const WARM_UP_SOLVES: usize = 2;

pub struct Closure {
    inputs: Inputs,
    query: String,
    expected: Option<Expected>,
    /// Semi-naive rounds, known from the graph's shape.
    rounds: usize,
}

impl Closure {
    pub fn setup(inputs: Inputs) -> Result<Closure, String> {
        let query = engine::closure_query(&inputs);
        for _ in 0..WARM_UP_SOLVES {
            let mut db = engine::define_and_load(&inputs)?;
            engine::query(&mut db, &query)?;
        }
        Ok(Closure {
            inputs,
            query,
            expected: None,
            rounds: 0,
        })
    }
}

/// The engine's own round count for everything `db` has solved, if it
/// still keeps one under this name. A missing counter is not an error.
pub fn rounds_counter(db: &Database) -> Option<u64> {
    db.metrics()
        .snapshot()
        .counters()
        .into_iter()
        .find(|(name, _)| *name == "solve_rounds")
        .map(|(_, n)| n)
}

impl Workload for Closure {
    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn arm_oracle(&mut self, corrupt: bool) {
        let closure = oracle::closure(&self.inputs.edges);
        self.expected = Some(Expected::new(pair_tuples(&closure), corrupt));
        self.rounds = oracle::longest_path(&self.inputs.edges) + 1;
    }

    fn measure(&mut self, seconds: f64, mut rec: Recorder) -> Outcome {
        let expected = self
            .expected
            .as_ref()
            .expect("oracle armed before measuring");
        let mut out = Outcome::default();
        let mut counter = None;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            out.tally.attempted += 1;
            let root = rec.root("solve_fresh");
            let t0 = Instant::now();
            let solved = (|| {
                let mut db = rec.child(root, "lang.define", || engine::define(&self.inputs))?;
                rec.child(root, "core.load", || engine::load(&mut db, &self.inputs))?;
                let t1 = Instant::now();
                let answer =
                    rec.child(root, "core.solve", || engine::query(&mut db, &self.query))?;
                Ok::<_, String>((db, answer, t1))
            })();
            let t2 = Instant::now();
            rec.close(root);
            match solved {
                Err(e) => out.tally.fail(|| e),
                Ok((db, answer, t1)) => {
                    let at = (t2 - start).as_secs_f64();
                    out.write.push(at, (t1 - t0).as_secs_f64() * 1e3);
                    out.op.push(at, (t2 - t1).as_secs_f64() * 1e3);
                    out.completions.push(at, 1.0);
                    // Tuple by tuple once, size and content hash after.
                    let ok = if out.op.len() == 1 {
                        counter = rounds_counter(&db);
                        expected.matches_exactly(&answer)
                    } else {
                        expected.matches(&answer)
                    };
                    out.tally.check(ok, || {
                        format!(
                            "closure has {} tuples, the oracle {}, or they differ",
                            answer.len(),
                            expected.len
                        )
                    });
                }
            }
        }
        out.window_s = start.elapsed().as_secs_f64();
        out.counts = vec![
            ("base_tuples", Json::count(self.inputs.edges.len() as u64)),
            ("derived_tuples", Json::count(expected.len as u64)),
            ("rounds", Json::count(self.rounds as u64)),
            ("rounds_counter", counter.map_or(Json::Null, Json::count)),
        ];
        out.spans = rec.into_spans();
        out
    }
}
