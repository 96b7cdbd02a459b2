//! Seeded input generators. The program under test receives only what
//! is made here: DBPL source text, tuples and write batches.
//!
//! The *shape* of every input (which node is joined to which) is fixed;
//! `--seed` decides the node labels and the order tuples are loaded in.
//! So every seed gives relations and closures of the same size — runs
//! with different seeds are comparable — while hash placement and
//! iteration order inside the engine differ from seed to seed.

use dc_value::{Tuple, Value};

use crate::rng::SplitMix64;

pub type Pair = (String, String);

/// Shape-only randomness (the tree's cross edges) must not follow
/// `--seed`, or closure sizes would.
const SHAPE_SEED: u64 = 0x5eed_c0de_0013;

/// How many commits one standing-stream cycle inserts before the
/// commit that deletes them again.
pub const CYCLE_INSERTS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    Full,
    /// A quarter of the full sizes, for `--smoke`.
    Smoke,
}

/// What every workload hands the engine, plus the same data in plain
/// strings for the oracles.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// DBPL definitions: types, relation variables, selectors, `ahead`.
    pub script: String,
    /// Tuples to bulk-load, per relation variable, in load order.
    pub relations: Vec<(&'static str, Vec<Tuple>)>,
    /// The binary relation `ahead` is applied to.
    pub edge_rel: &'static str,
    /// A relation nothing over `edge_rel` reads.
    pub idle_rel: &'static str,
    /// `edge_rel` again, as strings.
    pub edges: Vec<Pair>,
    /// Eight nodes the standing-stream cycle attaches fresh edges to.
    pub anchors: Vec<String>,
    /// Labels of the fresh nodes those edges lead to.
    pub fresh: Vec<String>,
}

pub fn pair_tuple(p: &Pair) -> Tuple {
    Tuple::new(vec![Value::str(&p.0), Value::str(&p.1)])
}

pub fn pair_tuples<'a>(pairs: impl IntoIterator<Item = &'a Pair>) -> Vec<Tuple> {
    pairs.into_iter().map(pair_tuple).collect()
}

/// `n` distinct labels `<prefix>00000…`, dealt out in seeded order.
fn labels(prefix: char, n: usize, rng: &mut SplitMix64) -> Vec<String> {
    let mut ids: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ids);
    ids.into_iter().map(|i| format!("{prefix}{i:05}")).collect()
}

const GRAPH_SCRIPT: &str = r#"
TYPE nodetype = STRING;
TYPE edgerel  = RELATION ... OF RECORD front, back: nodetype END;
TYPE aheadrel = RELATION ... OF RECORD head, tail: nodetype END;
VAR Edge: edgerel;
VAR Other: edgerel;

CONSTRUCTOR ahead FOR Rel: edgerel (): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead()}: f.back = b.head
END ahead;
"#;

const SCENE_SCRIPT: &str = r#"
TYPE parttype   = STRING;
TYPE objectrel  = RELATION part OF RECORD part: parttype END;
TYPE infrontrel = RELATION ... OF RECORD front, back: parttype END;
TYPE ontoprel   = RELATION ... OF RECORD top, base: parttype END;
TYPE aheadrel   = RELATION ... OF RECORD head, tail: parttype END;
VAR Objects: objectrel;
VAR Infront: infrontrel;
VAR Ontop: ontoprel;

SELECTOR on_base (B: parttype) FOR Rel: ontoprel ();
BEGIN EACH o IN Rel: o.base = B END on_base;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead()}: f.back = b.head
END ahead;
"#;

/// Inputs over `Edge` from a shape given as index pairs.
fn graph(nodes: usize, shape: &[(usize, usize)], anchors: &[usize], seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let names = labels('n', nodes, &mut rng);
    let fresh = labels('w', CYCLE_INSERTS, &mut rng);
    let mut edges: Vec<Pair> = shape
        .iter()
        .map(|&(a, b)| (names[a].clone(), names[b].clone()))
        .collect();
    rng.shuffle(&mut edges);
    let idle = vec![("idle-a".to_string(), "idle-b".to_string())];
    Inputs {
        script: GRAPH_SCRIPT.to_string(),
        relations: vec![("Edge", pair_tuples(&edges)), ("Other", pair_tuples(&idle))],
        edge_rel: "Edge",
        idle_rel: "Other",
        edges,
        anchors: anchors.iter().map(|&a| names[a].clone()).collect(),
        fresh,
    }
}

/// `closure_deep`: one chain of `n` edges (192; smoke 48).
pub fn chain(size: Size, seed: u64) -> Inputs {
    let n = if size == Size::Full { 192 } else { 48 };
    let shape: Vec<(usize, usize)> = (0..n).map(|i| (i, i + 1)).collect();
    let anchors: Vec<usize> = (1..=8).map(|k| k * n / 8).collect();
    graph(n + 1, &shape, &anchors, seed)
}

/// `closure_wide`: a complete binary tree of depth `d` (13; smoke 11)
/// plus forward cross edges (64; smoke 16). A cross edge leads to a
/// strictly deeper level, so no path grows beyond the tree's depth.
pub fn tree(size: Size, seed: u64) -> Inputs {
    let (depth, cross) = if size == Size::Full {
        (13, 64)
    } else {
        (11, 16)
    };
    let nodes = (1usize << depth) - 1;
    let level = |i: usize| (i + 1).ilog2();
    let mut shape: Vec<(usize, usize)> = (1..nodes).map(|c| ((c - 1) / 2, c)).collect();
    let mut rng = SplitMix64::new(SHAPE_SEED);
    while shape.len() < nodes - 1 + cross {
        let a = rng.below(nodes as u64) as usize;
        let b = rng.below(nodes as u64) as usize;
        if level(a) < level(b) && !shape.contains(&(a, b)) {
            shape.push((a, b));
        }
    }
    let anchors: Vec<usize> = (nodes - 8..nodes).collect();
    graph(nodes, &shape, &anchors, seed)
}

/// `standing_stream`: `k` chains of `l` edges (8 × 56; smoke 4 × 28).
/// With four chains the eight anchors are the chains' last two nodes.
pub fn chains(size: Size, seed: u64) -> Inputs {
    let (k, l) = if size == Size::Full { (8, 56) } else { (4, 28) };
    let node = |c: usize, j: usize| c * (l + 1) + j;
    let shape: Vec<(usize, usize)> = (0..k)
        .flat_map(|c| (0..l).map(move |j| (node(c, j), node(c, j + 1))))
        .collect();
    let anchors: Vec<usize> = (0..8).map(|i| node(i % k, l - i / k)).collect();
    graph(k * (l + 1), &shape, &anchors, seed)
}

/// The CAD scene of `serve_mixed` in strings.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    pub objects: Vec<String>,
    pub infront: Vec<Pair>,
    /// `Ontop` without the toggled tuples.
    pub ontop: Vec<Pair>,
    /// `toggle[0]` is in `Ontop` at even epochs, `toggle[1]` at odd
    /// ones; every commit swaps them, so `Ontop` keeps its size.
    pub toggle: [Vec<Pair>; 2],
}

/// `serve_mixed`: `rows` rows of `rows` objects standing in front of
/// one another (40 × 40; smoke 20 × 20), an item on every third object.
pub fn scene(size: Size, seed: u64) -> (Inputs, Scene) {
    let rows = if size == Size::Full { 40 } else { 20 };
    let depth = rows;
    let mut rng = SplitMix64::new(seed);
    let objects = labels('o', rows * depth, &mut rng);
    let items = labels('i', rows * depth, &mut rng);
    let fresh = labels('w', CYCLE_INSERTS, &mut rng);
    let obj = |r: usize, d: usize| objects[r * depth + d].clone();

    let mut infront = Vec::new();
    let mut ontop = Vec::new();
    let mut registry = objects.clone();
    for r in 0..rows {
        for d in 0..depth {
            if d + 1 < depth {
                infront.push((obj(r, d), obj(r, d + 1)));
            }
            if d % 3 == 0 {
                let item = items[r * depth + d].clone();
                registry.push(item.clone());
                ontop.push((item, obj(r, d)));
            }
        }
    }
    // Toggled items sit on objects that carry nothing else, so each
    // state changes the answers of the three queries that read `Ontop`.
    let toggle = [
        vec![
            ("t-even-0".into(), obj(0, 1)),
            ("t-even-1".into(), obj(1, 1)),
        ],
        vec![("t-odd-0".into(), obj(0, 2)), ("t-odd-1".into(), obj(1, 2))],
    ];
    rng.shuffle(&mut registry);
    rng.shuffle(&mut infront);
    rng.shuffle(&mut ontop);

    let mut loaded_ontop = ontop.clone();
    loaded_ontop.extend(toggle[0].iter().cloned());
    let inputs = Inputs {
        script: SCENE_SCRIPT.to_string(),
        relations: vec![
            (
                "Objects",
                registry
                    .iter()
                    .map(|o| Tuple::new(vec![Value::str(o)]))
                    .collect(),
            ),
            ("Infront", pair_tuples(&infront)),
            ("Ontop", pair_tuples(&loaded_ontop)),
        ],
        edge_rel: "Infront",
        idle_rel: "Objects",
        edges: infront.clone(),
        anchors: (0..8).map(|r| obj(r, depth - 1)).collect(),
        fresh,
    };
    let scene = Scene {
        objects: registry,
        infront,
        ontop,
        toggle,
    };
    (inputs, scene)
}

/// One commit of the standing-stream cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub insert: Vec<Pair>,
    pub delete: Vec<Pair>,
}

/// The stationary cycle: nine commits inserting one edge each, then one
/// commit deleting the nine. Eight edges hang a fresh node off an
/// anchor; the ninth extends the first of them, so one insert reaches
/// through an edge an earlier commit of the same cycle added.
pub fn cycle(inputs: &Inputs) -> Vec<Batch> {
    let mut added: Vec<Pair> = (0..8)
        .map(|i| (inputs.anchors[i].clone(), inputs.fresh[i].clone()))
        .collect();
    added.push((inputs.fresh[0].clone(), inputs.fresh[8].clone()));
    let mut batches: Vec<Batch> = added
        .iter()
        .map(|e| Batch {
            insert: vec![e.clone()],
            delete: vec![],
        })
        .collect();
    batches.push(Batch {
        insert: vec![],
        delete: added,
    });
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    fn all(size: Size, seed: u64) -> Vec<Inputs> {
        vec![
            chain(size, seed),
            tree(size, seed),
            chains(size, seed),
            scene(size, seed).0,
        ]
    }

    #[test]
    fn same_seed_same_bytes() {
        for size in [Size::Full, Size::Smoke] {
            assert_eq!(all(size, 11), all(size, 11));
            assert_eq!(scene(size, 11).1, scene(size, 11).1);
        }
        let a = chain(Size::Full, 11);
        let b = chain(Size::Full, 11);
        assert_eq!(format!("{a:?}").into_bytes(), format!("{b:?}").into_bytes());
        assert_eq!(cycle(&a), cycle(&b));
    }

    #[test]
    fn another_seed_changes_labels_but_no_size() {
        for (a, b) in all(Size::Full, 1).iter().zip(&all(Size::Full, 2)) {
            assert_ne!(a.edges, b.edges);
            assert_eq!(a.edges.len(), b.edges.len());
            assert_eq!(
                oracle::closure(&a.edges).len(),
                oracle::closure(&b.edges).len()
            );
            assert_eq!(
                oracle::longest_path(&a.edges),
                oracle::longest_path(&b.edges)
            );
            for (ra, rb) in a.relations.iter().zip(&b.relations) {
                assert_eq!(ra.1.len(), rb.1.len());
            }
        }
    }

    #[test]
    fn expected_sizes() {
        let deep = chain(Size::Full, 3);
        assert_eq!(deep.edges.len(), 192);
        assert_eq!(oracle::closure(&deep.edges).len(), 192 * 193 / 2);
        assert_eq!(oracle::longest_path(&deep.edges), 192);

        let wide = tree(Size::Full, 3);
        assert_eq!(wide.edges.len(), 8190 + 64);
        // The bare tree has Σ l·2^l = 90114 ancestor pairs; cross edges add.
        assert!(oracle::closure(&wide.edges).len() >= 90_114);
        assert_eq!(oracle::longest_path(&wide.edges), 12);

        let stream = chains(Size::Full, 3);
        assert_eq!(stream.edges.len(), 8 * 56);
        assert_eq!(oracle::closure(&stream.edges).len(), 8 * 56 * 57 / 2);

        let (inputs, sc) = scene(Size::Full, 3);
        assert_eq!(sc.infront.len(), 40 * 39);
        assert_eq!(sc.ontop.len(), 40 * 14);
        assert_eq!(sc.objects.len(), 1600 + 40 * 14);
        assert_eq!(inputs.relations[2].1.len(), sc.ontop.len() + 2);
    }

    #[test]
    fn the_cycle_returns_to_where_it_began() {
        for inputs in all(Size::Smoke, 5) {
            let batches = cycle(&inputs);
            assert_eq!(batches.len(), CYCLE_INSERTS + 1);
            let inserted: Vec<Pair> = batches.iter().flat_map(|b| b.insert.clone()).collect();
            assert_eq!(inserted, batches[CYCLE_INSERTS].delete);
            assert!(inserted.iter().all(|e| !inputs.edges.contains(e)));
        }
    }
}
