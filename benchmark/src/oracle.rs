//! Independent oracles: what the engine's answers are checked against.
//! Written here from the definitions, over plain strings; none of them
//! calls the engine, its reference evaluator or its algebra.

use std::collections::{BTreeSet, HashMap, VecDeque};

use dc_relation::Relation;
use dc_value::{Domain, Schema, Tuple, Value};

use crate::gen::Pair;

fn adjacency(edges: &[Pair]) -> HashMap<&str, Vec<&str>> {
    let mut next: HashMap<&str, Vec<&str>> = HashMap::new();
    for (a, b) in edges {
        next.entry(a).or_default().push(b);
    }
    next
}

/// Transitive closure by one breadth-first search per source node:
/// `(a, b)` is in it when a non-empty path leads from `a` to `b`.
pub fn closure(edges: &[Pair]) -> BTreeSet<Pair> {
    let next = adjacency(edges);
    let mut out = BTreeSet::new();
    for &source in next.keys() {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut queue: VecDeque<&str> = VecDeque::from([source]);
        while let Some(node) = queue.pop_front() {
            for &to in next.get(node).into_iter().flatten() {
                if seen.insert(to) {
                    queue.push_back(to);
                }
            }
        }
        out.extend(
            seen.into_iter()
                .map(|to| (source.to_string(), to.to_string())),
        );
    }
    out
}

/// Edges on the longest path of an acyclic graph. Semi-naive
/// evaluation of `ahead` finds paths of length `k` in round `k` and
/// needs one more round to see that nothing is new, so it runs
/// `longest_path + 1` rounds.
pub fn longest_path(edges: &[Pair]) -> usize {
    fn depth<'a>(
        node: &'a str,
        next: &HashMap<&'a str, Vec<&'a str>>,
        memo: &mut HashMap<&'a str, usize>,
    ) -> usize {
        if let Some(&d) = memo.get(node) {
            return d;
        }
        let d = next
            .get(node)
            .into_iter()
            .flatten()
            .map(|&to| 1 + depth(to, next, memo))
            .max()
            .unwrap_or(0);
        memo.insert(node, d);
        d
    }
    let next = adjacency(edges);
    let mut memo = HashMap::new();
    next.keys()
        .map(|&n| depth(n, &next, &mut memo))
        .max()
        .unwrap_or(0)
}

/// `{EACH r IN Infront: SOME t IN Ontop (t.base = r.front)
///    AND NOT SOME b IN Ontop (b.base = r.back)}`
pub fn visibility(infront: &[Pair], ontop: &[Pair]) -> Vec<Tuple> {
    let mut out = Vec::new();
    for r in infront {
        let mut carries = false;
        let mut target_loaded = false;
        for t in ontop {
            carries |= t.1 == r.0;
            target_loaded |= t.1 == r.1;
        }
        if carries && !target_loaded {
            out.push(strings(&[&r.0, &r.1]));
        }
    }
    out
}

/// `{EACH o IN Objects: NOT SOME r IN Infront (r.back = o.part)}`
pub fn front_row(objects: &[String], infront: &[Pair]) -> Vec<Tuple> {
    let mut out = Vec::new();
    for o in objects {
        let mut hidden = false;
        for r in infront {
            hidden |= &r.1 == o;
        }
        if !hidden {
            out.push(strings(&[o]));
        }
    }
    out
}

/// `{EACH r IN Infront: SOME t IN Ontop[on_base(r.back)] (TRUE)}`
pub fn stacked_back(infront: &[Pair], ontop: &[Pair]) -> Vec<Tuple> {
    let mut out = Vec::new();
    for r in infront {
        let mut stacked = false;
        for t in ontop {
            stacked |= t.1 == r.1;
        }
        if stacked {
            out.push(strings(&[&r.0, &r.1]));
        }
    }
    out
}

/// `{<r.front, t.top> OF EACH r IN Infront, EACH t IN Ontop: r.back = t.base}`
pub fn join(infront: &[Pair], ontop: &[Pair]) -> Vec<Tuple> {
    let mut out = BTreeSet::new();
    for r in infront {
        for t in ontop {
            if r.1 == t.1 {
                out.insert((&r.0, &t.0));
            }
        }
    }
    out.into_iter().map(|(a, b)| strings(&[a, b])).collect()
}

fn strings(fields: &[&String]) -> Tuple {
    Tuple::new(fields.iter().map(Value::str).collect::<Vec<_>>())
}

/// What an answer must look like. The digest is the engine's own
/// content hash, but taken over a relation built here from the
/// oracle's tuples — it only stands in for comparing the sets.
#[derive(Debug, Clone)]
pub struct Expected {
    pub len: usize,
    pub digest: u128,
    pub sorted: Vec<Tuple>,
}

impl Expected {
    /// `drop_one` is `--corrupt-oracle`: leave out one tuple, so a run
    /// that still reports no failure has a dead correctness check.
    pub fn new(mut tuples: Vec<Tuple>, drop_one: bool) -> Expected {
        tuples.sort();
        if drop_one {
            tuples.pop();
        }
        let arity = tuples.first().map_or(0, Tuple::arity);
        let names: Vec<String> = (0..arity).map(|i| format!("f{i}")).collect();
        let attrs: Vec<(&str, Domain)> = names.iter().map(|n| (n.as_str(), Domain::Str)).collect();
        let rel = Relation::from_tuples(Schema::of(&attrs), tuples.iter().cloned())
            .expect("oracle tuples are strings of one arity");
        Expected {
            len: rel.len(),
            digest: rel.digest(),
            sorted: tuples,
        }
    }

    /// Size and content hash: the per-sample check.
    pub fn matches(&self, answer: &Relation) -> bool {
        answer.len() == self.len && answer.digest() == self.digest
    }

    /// Tuple by tuple: the once-per-run check.
    pub fn matches_exactly(&self, answer: &Relation) -> bool {
        let mut got: Vec<Tuple> = answer.iter().cloned().collect();
        got.sort();
        got == self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::pair_tuples;

    fn pairs(list: &[(&str, &str)]) -> Vec<Pair> {
        list.iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn closure_of_the_paper_scene() {
        let edges = pairs(&[("vase", "table"), ("table", "chair"), ("chair", "wall")]);
        let c = closure(&edges);
        assert_eq!(c.len(), 6);
        assert!(c.contains(&("vase".into(), "wall".into())));
        assert!(!c.contains(&("wall".into(), "vase".into())));
        assert_eq!(longest_path(&edges), 3);
    }

    #[test]
    fn closure_handles_diamonds_and_cycles() {
        let diamond = pairs(&[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]);
        assert_eq!(closure(&diamond).len(), 5);
        assert_eq!(longest_path(&diamond), 2);
        let cycle = pairs(&[("a", "b"), ("b", "a")]);
        assert_eq!(closure(&cycle).len(), 4);
    }

    #[test]
    fn scene_queries_on_a_hand_made_scene() {
        let infront = pairs(&[("a", "b"), ("b", "c")]);
        let ontop = pairs(&[("hat", "a"), ("cup", "c")]);
        let objects: Vec<String> = ["a", "b", "c", "hat"].map(String::from).to_vec();
        assert_eq!(
            visibility(&infront, &ontop),
            pair_tuples(&pairs(&[("a", "b")]))
        );
        assert_eq!(
            stacked_back(&infront, &ontop),
            pair_tuples(&pairs(&[("b", "c")]))
        );
        assert_eq!(join(&infront, &ontop), pair_tuples(&pairs(&[("b", "cup")])));
        assert_eq!(front_row(&objects, &infront).len(), 2);
    }

    #[test]
    fn a_dropped_tuple_no_longer_matches() {
        let tuples = pair_tuples(&pairs(&[("a", "b"), ("b", "c")]));
        let schema = Schema::of(&[("x", Domain::Str), ("y", Domain::Str)]);
        let answer = Relation::from_tuples(schema, tuples.clone()).unwrap();
        let good = Expected::new(tuples.clone(), false);
        assert!(good.matches(&answer) && good.matches_exactly(&answer));
        let bad = Expected::new(tuples, true);
        assert!(!bad.matches(&answer) && !bad.matches_exactly(&answer));
    }
}
