//! Type-check-level partitioning (§4, level 1 of the three-level
//! strategy).
//!
//! > "In terms of optimization, one major purpose of this is to offer a
//! > preliminary partitioning of the set of constructor definitions in
//! > disconnected graphs. This partitioning can be done by stepwise
//! > refinement. A first version of the graph would just mention
//! > relation and constructor names."
//!
//! [`partition_by_names`] is exactly that first refinement step: two
//! constructors land in the same partition iff they are connected
//! through shared relation names or mutual application. Each partition
//! can then be compiled and optimized independently.

use dc_calculus::rewrite;
use dc_calculus::RangeExpr;
use dc_value::FxHashMap;

use crate::constructor::Constructor;

/// Union-find over constructor indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let r = self.find(self.parent[x]);
            self.parent[x] = r;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Partition constructor definitions into disconnected groups by
/// shared relation/constructor names. Returns the partitions as sorted
/// lists of constructor names, sorted by their first member.
pub fn partition_by_names(ctors: &[Constructor]) -> Vec<Vec<String>> {
    let index: FxHashMap<&str, usize> = ctors
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.as_str(), i))
        .collect();
    let mut dsu = Dsu::new(ctors.len());
    // Relation name → first constructor seen using it.
    let mut rel_owner: FxHashMap<String, usize> = FxHashMap::default();

    for (i, c) in ctors.iter().enumerate() {
        let body = RangeExpr::SetFormer(c.body.clone());
        let mut names = rewrite::relation_names(&body);
        // The relation formals are local names, not shared.
        for formal in c.rel_formals() {
            names.remove(formal);
        }
        for n in names {
            if let Some(&j) = index.get(n.as_str()) {
                // Reference to another constructor by name (unusual but
                // possible through its result relation name).
                dsu.union(i, j);
            }
            match rel_owner.get(&n) {
                Some(&owner) => dsu.union(i, owner),
                None => {
                    rel_owner.insert(n, i);
                }
            }
        }
        // Applications of other constructors.
        for app in rewrite::collect_constructed(&body) {
            if let RangeExpr::Constructed { constructor, .. } = app {
                if let Some(&j) = index.get(constructor.as_str()) {
                    dsu.union(i, j);
                }
            }
        }
    }

    let mut groups: FxHashMap<usize, Vec<String>> = FxHashMap::default();
    for (i, c) in ctors.iter().enumerate() {
        groups.entry(dsu.find(i)).or_default().push(c.name.clone());
    }
    let mut out: Vec<Vec<String>> = groups.into_values().collect();
    for g in &mut out {
        g.sort();
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::ast::{Branch, SetFormer};
    use dc_calculus::builder::*;
    use dc_value::{Domain, Schema};

    fn bin_schema() -> Schema {
        Schema::of(&[("a", Domain::Str), ("b", Domain::Str)])
    }

    fn simple_tc(name: &str) -> Constructor {
        Constructor {
            name: name.into(),
            base_param: ("Rel".into(), bin_schema()),
            rel_params: vec![],
            scalar_params: vec![],
            result: bin_schema(),
            body: SetFormer {
                branches: vec![
                    Branch::each("r", rel("Rel"), tru()),
                    Branch::projecting(
                        vec![attr("f", "a"), attr("g", "b")],
                        vec![
                            ("f".into(), rel("Rel")),
                            ("g".into(), rel("Rel").construct(name, vec![])),
                        ],
                        eq(attr("f", "b"), attr("g", "a")),
                    ),
                ],
            },
        }
    }

    #[test]
    fn independent_constructors_partition_apart() {
        let parts = partition_by_names(&[simple_tc("c1"), simple_tc("c2"), simple_tc("c3")]);
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn mutual_application_joins_partitions() {
        let mut a = simple_tc("a");
        // `a` applies `b`.
        a.body.branches.push(Branch::projecting(
            vec![attr("f", "a"), attr("g", "b")],
            vec![
                ("f".into(), rel("Rel")),
                ("g".into(), rel("Rel").construct("b", vec![])),
            ],
            eq(attr("f", "b"), attr("g", "a")),
        ));
        let b = simple_tc("b");
        let c = simple_tc("c");
        let parts = partition_by_names(&[a, b, c]);
        assert_eq!(parts.len(), 2);
        assert!(parts.contains(&vec!["a".to_string(), "b".to_string()]));
        assert!(parts.contains(&vec!["c".to_string()]));
    }

    #[test]
    fn shared_base_relation_joins_partitions() {
        // Both reference the global relation `Shared` inside their
        // predicates.
        let mk = |name: &str| {
            let mut c = simple_tc(name);
            c.body.branches[0] = Branch::each(
                "r",
                rel("Rel"),
                some("x", rel("Shared"), eq(attr("x", "a"), attr("r", "a"))),
            );
            c
        };
        let parts = partition_by_names(&[mk("p"), mk("q"), simple_tc("z")]);
        assert_eq!(parts.len(), 2);
        assert!(parts.contains(&vec!["p".to_string(), "q".to_string()]));
    }

    #[test]
    fn formal_names_do_not_join() {
        // `Rel` is a formal in both but must not connect them.
        let parts = partition_by_names(&[simple_tc("x"), simple_tc("y")]);
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(partition_by_names(&[]).is_empty());
    }
}
