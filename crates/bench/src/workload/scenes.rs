//! CAD-flavoured scenes and bill-of-materials workloads.

use super::rng::SplitMix64;

use dc_relation::Relation;
use dc_value::{tuple, Domain, Schema};

/// A generated scene: objects, `Infront` and `Ontop` facts — the
/// paper's running example data (§2.3, §3.1).
#[derive(Debug, Clone)]
pub struct Scene {
    /// `RELATION part OF …` — the object registry.
    pub objects: Relation,
    /// `infrontrel` facts.
    pub infront: Relation,
    /// `ontoprel` facts.
    pub ontop: Relation,
}

/// Schema of the `Objects` relation (keyed by part).
pub fn objects_schema() -> Schema {
    Schema::with_key(
        vec![dc_value::Attribute::new("part", Domain::Str)],
        &["part"],
    )
    .expect("part attribute exists")
}

/// Schema of `ontoprel`.
pub fn ontop_schema() -> Schema {
    Schema::of(&[("top", Domain::Str), ("base", Domain::Str)])
}

/// Generate a scene with `rows` rows of `depth` objects standing in
/// front of one another, plus one stacked object per `stack_every`
/// positions. Deterministic for a given seed.
pub fn scene(rows: usize, depth: usize, stack_every: usize, seed: u64) -> Scene {
    let mut rng = SplitMix64::new(seed);
    let infront_schema = Schema::of(&[("front", Domain::Str), ("back", Domain::Str)]);
    let mut objects = Relation::new(objects_schema());
    let mut infront = Relation::new(infront_schema);
    let mut ontop = Relation::new(ontop_schema());
    for r in 0..rows {
        for d in 0..depth {
            let name = format!("obj_{r}_{d}");
            objects
                .insert(tuple![name.clone()])
                .expect("unique object names");
            if d + 1 < depth {
                infront
                    .insert(tuple![name.clone(), format!("obj_{r}_{}", d + 1)])
                    .expect("valid edge");
            }
            if stack_every > 0 && d % stack_every == 0 {
                let item = format!("item_{r}_{d}");
                objects
                    .insert(tuple![item.clone()])
                    .expect("unique item names");
                ontop.insert(tuple![item, name]).expect("valid stack");
            }
        }
        // A few random cross-row relations for irregularity.
        if rows > 1 && depth > 1 {
            let d = rng.below((depth - 1) as u64) as usize;
            let r2 = rng.below((rows) as u64) as usize;
            if r2 != r {
                let _ = infront.insert(tuple![
                    format!("obj_{r}_{d}"),
                    format!("obj_{r2}_{}", d + 1)
                ]);
            }
        }
    }
    Scene {
        objects,
        infront,
        ontop,
    }
}

/// A bill-of-materials: assemblies containing sub-parts,
/// `(assembly, component)` edges forming a DAG of the given depth and
/// fan-out. The classic recursive-query workload (parts explosion).
pub fn bill_of_materials(depth: usize, fanout: usize, seed: u64) -> Relation {
    let mut rng = SplitMix64::new(seed);
    let schema = Schema::of(&[("assembly", Domain::Str), ("component", Domain::Str)]);
    let mut rel = Relation::new(schema);
    let mut level = vec!["root".to_string()];
    let mut counter = 0usize;
    for d in 0..depth {
        let mut next: Vec<String> = Vec::new();
        for parent in &level {
            for _ in 0..fanout {
                // Occasionally share a component across assemblies
                // (DAG, not tree).
                let child = if d > 0 && !next.is_empty() && rng.below(5) == 0 {
                    next[rng.below(next.len() as u64) as usize].clone()
                } else {
                    counter += 1;
                    let c = format!("part{counter}");
                    next.push(c.clone());
                    c
                };
                let _ = rel.insert(tuple![parent.clone(), child]);
            }
        }
        level = next;
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_counts() {
        let s = scene(2, 4, 2, 7);
        // 2 rows × 4 objects + 2 items per row = 12 objects.
        assert_eq!(s.objects.len(), 12);
        // 3 chain edges per row + up to 2 cross edges.
        assert!(s.infront.len() >= 6);
        assert_eq!(s.ontop.len(), 4);
    }

    #[test]
    fn scene_reproducible() {
        let a = scene(3, 5, 2, 11);
        let b = scene(3, 5, 2, 11);
        assert_eq!(a.infront, b.infront);
        assert_eq!(a.ontop, b.ontop);
    }

    #[test]
    fn scene_referential_integrity() {
        // Every Infront/Ontop endpoint is a registered object — the
        // §2.3 refint selector would accept this data.
        let s = scene(3, 4, 3, 5);
        for t in s.infront.iter() {
            for v in t.iter() {
                assert!(s.objects.contains(&dc_value::Tuple::new(vec![*v])));
            }
        }
        for t in s.ontop.iter() {
            for v in t.iter() {
                assert!(s.objects.contains(&dc_value::Tuple::new(vec![*v])));
            }
        }
    }

    #[test]
    fn bom_is_dag_of_requested_depth() {
        let bom = bill_of_materials(3, 2, 13);
        assert!(!bom.is_empty());
        // Root has fanout children.
        let root_children = bom
            .iter()
            .filter(|t| t.get(0).as_str() == Some("root"))
            .count();
        assert_eq!(root_children, 2);
        // No part contains itself (acyclicity smoke check via names).
        for t in bom.iter() {
            assert_ne!(t.get(0), t.get(1));
        }
    }

    #[test]
    fn bom_reproducible() {
        assert_eq!(bill_of_materials(4, 3, 9), bill_of_materials(4, 3, 9));
    }
}
