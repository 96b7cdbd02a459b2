//! What the four workloads have in common: their names, how they are
//! set up, and what a measured window hands back.

use crate::gen::{self, Inputs, Size};
use crate::json::Json;
use crate::span::{Recorder, Span};
use crate::stats::Series;
use crate::{closure, serve, stream};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    ClosureDeep,
    ClosureWide,
    ServeMixed,
    StandingStream,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ClosureDeep,
        Kind::ClosureWide,
        Kind::ServeMixed,
        Kind::StandingStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ClosureDeep => "closure_deep",
            Kind::ClosureWide => "closure_wide",
            Kind::ServeMixed => "serve_mixed",
            Kind::StandingStream => "standing_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Threads of the benchmark itself that issue operations.
    pub fn clients(self) -> usize {
        match self {
            Kind::ServeMixed => 2,
            _ => 1,
        }
    }

    /// What `op_ms`, `ops_per_s` and `write_ms` mean here, in that order.
    pub fn meaning(self) -> [&'static str; 3] {
        match self {
            Kind::ClosureDeep | Kind::ClosureWide => [
                "solve_ms: QUERY Edge{ahead()} on a freshly loaded database",
                "fresh define + load + solve passes per second",
                "load_ms: definitions script plus bulk load into a new database",
            ],
            Kind::ServeMixed => [
                "query_ms: Server::begin + Session::query of a prepared query",
                "queries_per_s: reads completed per second",
                "commit_ms: Server::commit, timed from when it was due",
            ],
            Kind::StandingStream => [
                "delivery_ms: insert commit to the last subscription's update",
                "commits_per_s: commits delivered per second",
                "delivery_delete_ms: the same for the commit that deletes",
            ],
        }
    }

    pub fn setup(self, size: Size, seed: u64) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::ClosureDeep => Box::new(closure::Closure::setup(gen::chain(size, seed))?),
            Kind::ClosureWide => Box::new(closure::Closure::setup(gen::tree(size, seed))?),
            Kind::ServeMixed => Box::new(serve::Serve::setup(gen::scene(size, seed))?),
            Kind::StandingStream => Box::new(stream::Stream::setup(gen::chains(size, seed))?),
        })
    }
}

/// `DC_THREADS` for every measured window. ISSUE 11 wanted
/// `min(cores, 4)` on `closure_wide`; measured here, two engine threads
/// take a quarter longer than one on that workload and vary by 8 %
/// from run to run, which no 10 % bound survives. The comparison of
/// one thread with several is `exec.thread_ratio`, in the traced run.
pub const ENGINE_THREADS: usize = 1;

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub trait Workload {
    fn inputs(&self) -> &Inputs;

    /// Compute what the answers must be. Not part of set-up: it is the
    /// benchmark's work, not the program's. `corrupt` drops a tuple.
    fn arm_oracle(&mut self, corrupt: bool);

    /// Run operations for `seconds` and check each.
    fn measure(&mut self, seconds: f64, rec: Recorder) -> Outcome;
}

/// Operations tried and operations that went wrong: an `Err`, a wrong
/// answer, a missing or out-of-order epoch, a late writer.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few reasons, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, reason: impl FnOnce() -> String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason());
        }
    }

    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(reason);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(5);
    }
}

/// One measured window.
#[derive(Debug, Default)]
pub struct Outcome {
    pub window_s: f64,
    pub tally: Tally,
    /// Latency of the primary operation, ms.
    pub op: Series,
    /// Latency of the write-side operation, ms.
    pub write: Series,
    /// When each operation that counts towards `ops_per_s` completed
    /// (the values are not read).
    pub completions: Series,
    /// Insert commits whose solve-kind update came the warm way.
    pub warm_inserts: u64,
    /// Counts that must repeat exactly from run to run.
    pub counts: Vec<(&'static str, Json)>,
    /// Numbers worth reporting that are too unsteady to gate on.
    pub detail: Vec<(&'static str, Json)>,
    pub spans: Vec<Span>,
}
