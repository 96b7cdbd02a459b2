//! Staffing workload: the multi-binding correlated-join shape (E2d).
//!
//! Three relations model "which assigned worker can serve a request":
//!
//! * `Assign(task, worker)` — workers assigned to tasks,
//! * `Skill(worker, tool)` — tools each worker is qualified on,
//! * `Requests(task, tool)` — (task, tool) pairs to check.
//!
//! The interesting query quantifies over a **correlated join view**:
//!
//! ```text
//! EACH r IN Requests:
//!   SOME x IN { <a.worker> OF EACH a IN Assign, s IN Skill:
//!               a.worker = s.worker          -- local inner join
//!               AND a.task = r.task          -- correlation on a
//!               AND s.tool = r.tool } (TRUE) -- correlation on s
//! ```
//!
//! The reference path re-evaluates the inner join per request:
//! O(|Requests| × |Assign| × |Skill|). Unnested into
//! `SOME a IN Assign (a.task = r.task AND SOME s IN Skill (a.worker =
//! s.worker AND s.tool = r.tool))`, it probes `Assign` per request and
//! `Skill` per assigned worker: O(|Requests| × matches).

use super::rng::SplitMix64;

use dc_relation::Relation;
use dc_value::{tuple, Domain, Schema};

/// A generated staffing instance.
#[derive(Debug, Clone)]
pub struct Staffing {
    /// `Assign(task, worker)`.
    pub assign: Relation,
    /// `Skill(worker, tool)`.
    pub skill: Relation,
    /// `Requests(task, tool)`.
    pub requests: Relation,
}

/// Schema of the `Assign` relation.
pub fn assign_schema() -> Schema {
    Schema::of(&[("task", Domain::Str), ("worker", Domain::Str)])
}

/// Schema of the `Skill` relation.
pub fn skill_schema() -> Schema {
    Schema::of(&[("worker", Domain::Str), ("tool", Domain::Str)])
}

/// Schema of the `Requests` relation.
pub fn request_schema() -> Schema {
    Schema::of(&[("task", Domain::Str), ("tool", Domain::Str)])
}

/// Generate a staffing instance: `tasks` tasks each assigned
/// `per_task` distinct workers (of `workers`), each worker qualified on
/// `per_worker` distinct tools (of `tools`), and `requests` random
/// (task, tool) pairs — capped at the `tasks × tools` distinct pairs
/// that exist, so an oversized request count terminates instead of
/// spinning on an unreachable target. Deterministic for a given seed;
/// names are `t{i}` / `w{i}` / `l{i}`.
pub fn staffing(
    tasks: usize,
    workers: usize,
    tools: usize,
    per_task: usize,
    per_worker: usize,
    requests: usize,
    seed: u64,
) -> Staffing {
    let mut rng = SplitMix64::new(seed);
    let mut assign = Relation::new(assign_schema());
    let mut skill = Relation::new(skill_schema());
    let mut reqs = Relation::new(request_schema());
    for t in 0..tasks {
        for _ in 0..per_task {
            // Duplicate picks collapse under set semantics — the shape
            // parameter is an upper bound per task, which is all the
            // workload needs.
            let w = rng.below(workers as u64);
            let _ = assign.insert(tuple![format!("t{t}"), format!("w{w}")]);
        }
        // Worker w0 is the overloaded generalist: assigned to every
        // fifth task, so universal queries quantifying "avoids w0"
        // always have genuine counterexamples.
        if t % 5 == 0 {
            let _ = assign.insert(tuple![format!("t{t}"), "w0".to_string()]);
        }
    }
    for w in 0..workers {
        for _ in 0..per_worker {
            let l = rng.below(tools as u64);
            let _ = skill.insert(tuple![format!("w{w}"), format!("l{l}")]);
        }
    }
    // The generalist is qualified on every other tool.
    for l in (0..tools).step_by(2) {
        let _ = skill.insert(tuple!["w0".to_string(), format!("l{l}")]);
    }
    let requests = requests.min(tasks * tools);
    while reqs.len() < requests {
        let t = rng.below(tasks as u64);
        let l = rng.below(tools as u64);
        let _ = reqs.insert(tuple![format!("t{t}"), format!("l{l}")]);
    }
    Staffing {
        assign,
        skill,
        requests: reqs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staffing_shape() {
        let s = staffing(20, 10, 8, 2, 3, 15, 7);
        assert_eq!(s.requests.len(), 15);
        assert!(s.assign.len() <= 44 && s.assign.len() >= 20);
        assert!(s.skill.len() <= 34 && s.skill.len() >= 10);
        // Every assignment references a known worker shape-wise.
        for t in s.assign.iter() {
            assert!(t.get(1).as_str().unwrap().starts_with('w'));
        }
        // The generalist is present on both sides.
        assert!(s.assign.contains(&tuple!["t0", "w0"]));
        assert!(s.skill.contains(&tuple!["w0", "l0"]));
    }

    #[test]
    fn staffing_oversized_request_count_terminates_at_pair_space() {
        // Only tasks × tools = 4 distinct pairs exist; asking for 10
        // must cap, not hang.
        let s = staffing(2, 5, 2, 1, 1, 10, 1);
        assert_eq!(s.requests.len(), 4);
    }

    #[test]
    fn staffing_reproducible() {
        let a = staffing(12, 6, 5, 2, 2, 10, 42);
        let b = staffing(12, 6, 5, 2, 2, 10, 42);
        assert_eq!(a.assign, b.assign);
        assert_eq!(a.skill, b.skill);
        assert_eq!(a.requests, b.requests);
    }
}
