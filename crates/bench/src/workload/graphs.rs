//! Graph-shaped relation generators.
//!
//! All generators produce binary relations over `STRING` node names
//! with attributes `(front, back)` — the paper's `infrontrel` shape —
//! so they plug directly into the `ahead` constructor and the Horn
//! clause `infront/2`.

use super::rng::SplitMix64;
use dc_relation::Relation;
use dc_value::{tuple, Domain, Schema};

/// The edge schema shared by all generators.
pub fn edge_schema() -> Schema {
    Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
}

fn node(prefix: &str, i: usize) -> String {
    format!("{prefix}{i}")
}

/// A simple chain `o0 → o1 → … → o{n}` (n edges). Worst case for
/// fixpoint depth: the closure needs `n` rounds naive.
pub fn chain(n: usize) -> Relation {
    Relation::from_tuples(
        edge_schema(),
        (0..n).map(|i| tuple![node("o", i), node("o", i + 1)]),
    )
    .expect("chain tuples are schema-valid")
}

/// A cycle of `n` nodes (n edges): termination test — the closure is
/// the complete relation on the cycle's nodes.
pub fn cycle(n: usize) -> Relation {
    Relation::from_tuples(
        edge_schema(),
        (0..n).map(|i| tuple![node("o", i), node("o", (i + 1) % n)]),
    )
    .expect("cycle tuples are schema-valid")
}

/// A diamond ladder of `k` diamonds: `s_i → {a_i, b_i} → s_{i+1}`.
/// Exponentially many proof paths for tuple-at-a-time PROLOG
/// (2^k derivations of `(s_0, s_k)`), linear work set-at-a-time —
/// the sharpest separation workload for experiment E1.
pub fn diamond_ladder(k: usize) -> Relation {
    let mut edges = Vec::with_capacity(4 * k);
    for i in 0..k {
        let s = node("s", i);
        let t = node("s", i + 1);
        let a = node("a", i);
        let b = node("b", i);
        edges.push(tuple![s.clone(), a.clone()]);
        edges.push(tuple![s, b.clone()]);
        edges.push(tuple![a, t.clone()]);
        edges.push(tuple![b, t]);
    }
    Relation::from_tuples(edge_schema(), edges).expect("ladder tuples are schema-valid")
}

/// A `w × h` grid with rightward and downward edges.
pub fn grid(w: usize, h: usize) -> Relation {
    let name = |x: usize, y: usize| format!("g{x}_{y}");
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push(tuple![name(x, y), name(x + 1, y)]);
            }
            if y + 1 < h {
                edges.push(tuple![name(x, y), name(x, y + 1)]);
            }
        }
    }
    Relation::from_tuples(edge_schema(), edges).expect("grid tuples are schema-valid")
}

/// A complete binary tree of the given depth, edges parent → child.
pub fn complete_binary_tree(depth: usize) -> Relation {
    let mut edges = Vec::new();
    let nodes = (1usize << depth) - 1;
    for i in 1..=nodes {
        let left = 2 * i;
        let right = 2 * i + 1;
        if left <= nodes {
            edges.push(tuple![node("t", i), node("t", left)]);
        }
        if right <= nodes {
            edges.push(tuple![node("t", i), node("t", right)]);
        }
    }
    Relation::from_tuples(edge_schema(), edges).expect("tree tuples are schema-valid")
}

/// A seeded random digraph: `n` nodes, ~`n * avg_degree` edges, no
/// self-loops, duplicates deduplicated by set semantics.
pub fn random_graph(n: usize, avg_degree: f64, seed: u64) -> Relation {
    let mut rng = SplitMix64::new(seed);
    let target_edges = (n as f64 * avg_degree) as usize;
    let mut rel = Relation::new(edge_schema());
    let mut attempts = 0;
    while rel.len() < target_edges && attempts < target_edges * 20 {
        attempts += 1;
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        if a == b {
            continue;
        }
        let _ = rel.insert(tuple![node("o", a), node("o", b)]);
    }
    rel
}

/// The weighted-edge schema: `(src, dst, w)` with an integer weight.
pub fn weighted_edge_schema() -> Schema {
    Schema::of(&[
        ("src", Domain::Str),
        ("dst", Domain::Str),
        ("w", Domain::Int),
    ])
}

/// A seeded random digraph over [`weighted_edge_schema`]: `n` nodes,
/// ~`n * avg_degree` distinct edges with weights in `0..max_w`. The
/// two-hop join `x.dst = y.src` over it probes `avg_degree`
/// continuations per scanned edge, and the integer weights give the
/// residual predicate real per-combination arithmetic.
pub fn weighted_random_graph(n: usize, avg_degree: f64, max_w: i64, seed: u64) -> Relation {
    let mut rng = SplitMix64::new(seed);
    let target_edges = (n as f64 * avg_degree) as usize;
    let mut rel = Relation::new(weighted_edge_schema());
    let mut attempts = 0;
    while rel.len() < target_edges && attempts < target_edges * 20 {
        attempts += 1;
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        if a == b {
            continue;
        }
        let w = rng.below(max_w.max(1) as u64) as i64;
        let _ = rel.insert(tuple![node("o", a), node("o", b), w]);
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let c = chain(5);
        assert_eq!(c.len(), 5);
        assert!(c.contains(&tuple!["o0", "o1"]));
        assert!(c.contains(&tuple!["o4", "o5"]));
        assert!(chain(0).is_empty());
    }

    #[test]
    fn cycle_shape() {
        let c = cycle(4);
        assert_eq!(c.len(), 4);
        assert!(c.contains(&tuple!["o3", "o0"]));
    }

    #[test]
    fn diamond_ladder_shape() {
        let d = diamond_ladder(3);
        assert_eq!(d.len(), 12);
        assert!(d.contains(&tuple!["s0", "a0"]));
        assert!(d.contains(&tuple!["b2", "s3"]));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 2);
        // Rightward: 2 per row × 2 rows = 4; downward: 3 per column
        // pair × 1 = 3.
        assert_eq!(g.len(), 7);
        assert!(g.contains(&tuple!["g0_0", "g1_0"]));
        assert!(g.contains(&tuple!["g0_0", "g0_1"]));
    }

    #[test]
    fn tree_shape() {
        let t = complete_binary_tree(3); // 7 nodes, 6 edges
        assert_eq!(t.len(), 6);
        assert!(t.contains(&tuple!["t1", "t2"]));
        assert!(t.contains(&tuple!["t3", "t7"]));
    }

    #[test]
    fn weighted_random_graph_reproducible() {
        let a = weighted_random_graph(50, 3.0, 100, 7);
        assert_eq!(a, weighted_random_graph(50, 3.0, 100, 7));
        assert_ne!(a, weighted_random_graph(50, 3.0, 100, 8));
        assert!(a.len() >= 140 && a.len() <= 150, "{}", a.len());
        for t in a.iter() {
            assert_ne!(t.get(0), t.get(1), "no self-loops");
            let w = t.get(2).as_int().unwrap();
            assert!((0..100).contains(&w));
        }
    }

    #[test]
    fn random_graph_reproducible() {
        let a = random_graph(20, 2.0, 42);
        let b = random_graph(20, 2.0, 42);
        assert_eq!(a, b);
        let c = random_graph(20, 2.0, 43);
        assert_ne!(a, c);
        // No self-loops.
        for t in a.iter() {
            assert_ne!(t.get(0), t.get(1));
        }
        // Roughly the requested size.
        assert!(a.len() >= 30 && a.len() <= 40, "{}", a.len());
    }
}
