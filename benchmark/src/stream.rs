//! `standing_stream`: one client commits single-edge inserts and, every
//! tenth commit, deletes what the nine before it inserted, while three
//! standing queries receive one update per commit. The three take the
//! three maintenance paths: a solve-kind closure re-enters the
//! fixpoint warm on inserts, a query-kind two-hop join is re-evaluated
//! and diffed on every commit, a query over a relation no commit
//! touches is skipped. The client waits for all three updates before
//! its next commit (closed loop: a subscriber that acts on what it is
//! told).
//!
//! The per-layer probes reuse this code on every workload's inputs.

use std::collections::HashSet;
use std::time::Instant;

use dc_server::{PreparedQuery, Server, Subscription, SubscriptionUpdate, WriteBatch};
use dc_value::Tuple;

use crate::engine;
use crate::gen::{self, Inputs, CYCLE_INSERTS};
use crate::json::Json;
use crate::oracle;
use crate::span::Recorder;
use crate::workload::{Outcome, Workload};

/// Fold against a fresh query on every 97th commit: a prime, so the
/// checks land on every phase of the ten-commit cycle in turn.
const REQUERY_EVERY: u64 = 97;
const WARM_UP_CYCLES: usize = 1;

/// A standing query, what it has delivered so far, and how to ask for
/// the same answer afresh.
struct Standing {
    name: &'static str,
    prepared: PreparedQuery,
    subscription: Subscription,
    folded: HashSet<Tuple>,
}

pub struct Stream {
    inputs: Inputs,
    server: Server,
    standing: Vec<Standing>,
    batches: Vec<WriteBatch>,
    epoch: u64,
    commits: u64,
    /// Closure of the edges as loaded, for the check at a cycle's end.
    base_closure: Option<HashSet<Tuple>>,
    corrupt: bool,
}

impl Stream {
    pub fn setup(inputs: Inputs) -> Result<Stream, String> {
        let server = Server::new(engine::define_and_load(&inputs)?);
        let prepare = |text: &str| {
            let ast = dc_lang::parser::parse_expr(text).map_err(|e| format!("{text}: {e}"))?;
            server.prepare(&ast).map_err(|e| format!("{text}: {e}"))
        };
        let queries = [
            (
                "closure",
                server
                    .prepare_solve(inputs.edge_rel, "ahead", &[], vec![])
                    .map_err(|e| format!("prepare_solve: {e}"))?,
            ),
            ("two-hop", prepare(&engine::join_query(&inputs))?),
            ("untouched", prepare(inputs.idle_rel)?),
        ];
        let mut standing = Vec::new();
        for (name, prepared) in queries {
            let subscription = server
                .subscribe(&prepared)
                .map_err(|e| format!("subscribe {name}: {e}"))?;
            let first = next_update(&subscription).map_err(|e| format!("{name}: {e}"))?;
            standing.push(Standing {
                name,
                prepared,
                subscription,
                folded: first.added.iter().cloned().collect(),
            });
        }
        let batches = cycle_batches(&inputs);
        let mut stream = Stream {
            epoch: server.current_epoch(),
            inputs,
            server,
            standing,
            batches,
            commits: 0,
            base_closure: None,
            corrupt: false,
        };
        let mut unchecked = Outcome::default();
        for _ in 0..WARM_UP_CYCLES {
            stream.cycle(&mut Recorder::off(), Instant::now(), &mut unchecked);
        }
        match unchecked.tally.reasons.first() {
            Some(reason) => Err(format!("warm-up: {reason}")),
            None => Ok(stream),
        }
    }

    /// The server without its subscriptions: same data, same batches.
    /// What a commit costs when nobody is listening.
    pub fn without_subscriptions(inputs: &Inputs) -> Result<(Server, Vec<WriteBatch>), String> {
        let server = Server::new(engine::define_and_load(inputs)?);
        Ok((server, cycle_batches(inputs)))
    }

    /// One pass over the ten commits, each checked.
    pub fn cycle(&mut self, rec: &mut Recorder, start: Instant, out: &mut Outcome) {
        for (i, batch) in self.batches.iter().enumerate() {
            let inserts = i < CYCLE_INSERTS;
            out.tally.attempted += 1;
            self.commits += 1;
            let root = rec.root(if inserts { "insert" } else { "delete" });
            let t0 = Instant::now();
            let committed = rec.child(root, "server.commit", || self.server.commit(batch));
            let updates: Vec<Result<SubscriptionUpdate, String>> = self
                .standing
                .iter()
                .map(|s| rec.child(root, "subscription.recv", || next_update(&s.subscription)))
                .collect();
            let t1 = Instant::now();
            rec.close(root);

            let epoch = match committed {
                Ok(epoch) => epoch,
                Err(e) => {
                    out.tally.fail(|| format!("commit {}: {e}", self.commits));
                    continue;
                }
            };
            let mut ok = epoch == self.epoch + 1;
            let mut why = String::new();
            self.epoch = epoch;
            for (s, update) in self.standing.iter_mut().zip(updates) {
                match update {
                    Err(e) => {
                        ok = false;
                        why = format!("{} at epoch {epoch}: {e}", s.name);
                    }
                    Ok(update) => {
                        ok &= update.epoch == epoch;
                        for t in update.removed.iter() {
                            ok &= s.folded.remove(t);
                        }
                        for t in update.added.iter() {
                            ok &= s.folded.insert(t.clone());
                        }
                        match s.name {
                            // Inserts must take the warm path, and
                            // that is what `warm_ratio` counts.
                            "closure" if inserts => {
                                out.warm_inserts += u64::from(update.warm);
                                ok &= update.warm;
                            }
                            "untouched" => {
                                ok &= update.warm
                                    && update.added.is_empty()
                                    && update.removed.is_empty();
                            }
                            _ => {}
                        }
                    }
                }
            }
            if self.commits.is_multiple_of(REQUERY_EVERY) {
                ok &= self.folds_match_fresh_queries();
            }
            out.tally.check(ok, || {
                if why.is_empty() {
                    why = format!(
                        "commit {} (epoch {epoch}): an update was out of order, cold \
                         where it must be warm, or folded to the wrong answer",
                        self.commits
                    );
                }
                why
            });
            let at = (t1 - start).as_secs_f64();
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            out.completions.push(at, 1.0);
            if inserts {
                out.op.push(at, ms);
            } else {
                out.write.push(at, ms);
            }
        }
    }

    /// Do the folded deltas equal what a new session answers now?
    fn folds_match_fresh_queries(&self) -> bool {
        let session = self.server.begin();
        self.standing
            .iter()
            .all(|s| match session.query(&s.prepared) {
                Err(_) => false,
                Ok(fresh) => {
                    fresh.len() == s.folded.len() && fresh.iter().all(|t| s.folded.contains(t))
                }
            })
    }
}

fn cycle_batches(inputs: &Inputs) -> Vec<WriteBatch> {
    gen::cycle(inputs)
        .iter()
        .map(|b| engine::write_batch(inputs.edge_rel, b))
        .collect()
}

fn next_update(sub: &Subscription) -> Result<SubscriptionUpdate, String> {
    match sub.recv() {
        None => Err("the subscription closed".to_string()),
        Some(Err(e)) => Err(format!("the subscription ended: {e}")),
        Some(Ok(update)) => Ok(update),
    }
}

impl Workload for Stream {
    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn arm_oracle(&mut self, corrupt: bool) {
        let closure = oracle::closure(&self.inputs.edges);
        self.base_closure = Some(gen::pair_tuples(&closure).into_iter().collect());
        self.corrupt = corrupt;
    }

    fn measure(&mut self, seconds: f64, mut rec: Recorder) -> Outcome {
        let mut out = Outcome::default();
        let start = Instant::now();
        // Whole cycles only: the window ends with the edges as loaded.
        while start.elapsed().as_secs_f64() < seconds {
            self.cycle(&mut rec, start, &mut out);
        }
        out.window_s = start.elapsed().as_secs_f64();

        let mut expected = self
            .base_closure
            .clone()
            .expect("oracle armed before measuring");
        if self.corrupt {
            if let Some(one) = expected.iter().next().cloned() {
                expected.remove(&one);
            }
        }
        out.tally.attempted += 1;
        out.tally.check(
            self.standing[0].folded == expected && self.folds_match_fresh_queries(),
            || {
                format!(
                    "after {} commits the folded closure has {} tuples, the oracle {}, or they differ",
                    self.commits,
                    self.standing[0].folded.len(),
                    expected.len()
                )
            },
        );
        out.counts = vec![
            ("base_tuples", Json::count(self.inputs.edges.len() as u64)),
            ("closure_tuples", Json::count(expected.len() as u64)),
            ("subscriptions", Json::count(self.standing.len() as u64)),
        ];
        out.spans = rec.into_spans();
        out
    }
}
