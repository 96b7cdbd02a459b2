//! §3.4: the spectrum of fixpoint-enhancement options for database
//! programming languages.
//!
//! The paper lists six alternatives to its constructor mechanism; this
//! module implements the ones that are executable strategies, so the E5
//! ablation can measure them against constructors:
//!
//! 1. **Program iteration** ([`program_iteration`]) — the raw
//!    `REPEAT … UNTIL Ahead = Oldahead` loop written by the programmer;
//!    "the programmer can write anything into the loop", so nothing is
//!    optimizable.
//! 2. **Recursive relation-valued functions** ([`recursive_function`]) —
//!    the paper's `FUNCTION ahead(Current: aheadrel): aheadrel` example,
//!    literally recursive.
//! 3. **Specialised LFP operators** ([`transitive_closure`]) — the
//!    QBE/QUEL`*`-style transitive-closure operator: fast, but only for
//!    the one shape it hard-codes.
//! 4. **Bounded iteration** ([`iterate_n`]) — the `ahead_n` family of
//!    §3.1, for the convergence experiment E3.
//!
//! Equational relation definitions and views-as-functions are
//! semantically the constructor mechanism under other syntax; logic
//! programming is covered by the `dc-prolog` baseline.

use dc_index::HashIndex;
use dc_relation::{algebra, Relation, RelationError};

/// Iterate `step` from the empty relation until a fixpoint, returning
/// the limit and the number of iterations (the §3.1 REPEAT loop).
pub fn program_iteration<F>(
    schema: dc_value::Schema,
    mut step: F,
) -> Result<(Relation, usize), RelationError>
where
    F: FnMut(&Relation) -> Result<Relation, RelationError>,
{
    let mut current = Relation::new(schema);
    let mut iterations = 0;
    loop {
        iterations += 1;
        let next = step(&current)?;
        if next == current {
            return Ok((current, iterations));
        }
        current = next;
    }
}

/// Iterate `step` exactly `n` times from the empty relation — the
/// paper's `ahead_n` sequence (§3.1), whose limit is `ahead`.
pub fn iterate_n<F>(
    schema: dc_value::Schema,
    mut step: F,
    n: usize,
) -> Result<Relation, RelationError>
where
    F: FnMut(&Relation) -> Result<Relation, RelationError>,
{
    let mut current = Relation::new(schema);
    for _ in 0..n {
        current = step(&current)?;
    }
    Ok(current)
}

/// The paper's recursive relation-valued function (§3.4):
///
/// ```text
/// FUNCTION ahead (Current: aheadrel): aheadrel;
/// BEGIN
///   New := …;
///   IF New = Current THEN RETURN Current ELSE RETURN ahead(New)
/// END ahead
/// ```
///
/// Implemented with genuine recursion to preserve the cost profile the
/// paper criticises ("functions are too general to be optimized
/// efficiently").
pub fn recursive_function<F>(current: Relation, step: &mut F) -> Result<Relation, RelationError>
where
    F: FnMut(&Relation) -> Result<Relation, RelationError>,
{
    let new = step(&current)?;
    if new == current {
        Ok(current)
    } else {
        recursive_function(new, step)
    }
}

/// A specialised transitive-closure operator in the spirit of
/// Query-by-Example's closure operator and QUEL's `*` (§3.4): computes
/// the closure of a binary relation under
/// `(a, b) ∈ R, (b, c) ∈ TC ⇒ (a, c) ∈ TC`, using a hash index and a
/// frontier — the best the procedural special case can do, but *only*
/// for this shape.
pub fn transitive_closure(
    rel: &Relation,
    from_pos: usize,
    to_pos: usize,
) -> Result<Relation, RelationError> {
    let mut closure = rel.clone();
    // Index base edges by their from-attribute.
    let index = HashIndex::build(rel, vec![from_pos]);
    // Frontier of newly added pairs.
    let mut frontier: Vec<dc_value::Tuple> = rel.iter().cloned().collect();
    while let Some(pair) = frontier.pop() {
        // pair = (a, …, b); extend with edges (b, …, c).
        for edge in index.probe_slice(std::slice::from_ref(pair.get(to_pos))) {
            let mut fields: Vec<dc_value::Value> = pair.fields().to_vec();
            fields[to_pos] = *edge.get(to_pos);
            fields[from_pos] = *pair.get(from_pos);
            let new_pair = dc_value::Tuple::new(fields);
            if closure.insert_unchecked(new_pair.clone())? {
                frontier.push(new_pair);
            }
        }
    }
    Ok(closure)
}

/// Convenience step function: one application of the `ahead` rule
/// (base ∪ base ⋈ current) for use with the iteration combinators
/// above. `from_pos`/`to_pos` index the join attributes of `base`;
/// `current` is joined on its own `from_pos`.
pub fn ahead_step(
    base: &Relation,
    current: &Relation,
    from_pos: usize,
    to_pos: usize,
) -> Result<Relation, RelationError> {
    let mut out = base.clone();
    if !current.is_empty() {
        let index = HashIndex::build(current, vec![from_pos]);
        for edge in base.iter() {
            for cont in index.probe_slice(std::slice::from_ref(edge.get(to_pos))) {
                let mut fields: Vec<dc_value::Value> = edge.fields().to_vec();
                fields[to_pos] = *cont.get(to_pos);
                out.insert_unchecked(dc_value::Tuple::new(fields))?;
            }
        }
    }
    algebra::union(&out, current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_value::{tuple, Domain, Schema};

    fn edges_schema() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn chain(n: usize) -> Relation {
        Relation::from_tuples(
            edges_schema(),
            (0..n).map(|i| tuple![format!("o{i}"), format!("o{}", i + 1)]),
        )
        .unwrap()
    }

    fn closure_size_of_chain(n: usize) -> usize {
        n * (n + 1) / 2
    }

    #[test]
    fn program_iteration_computes_closure() {
        let base = chain(6);
        let (out, iters) =
            program_iteration(edges_schema(), |cur| ahead_step(&base, cur, 0, 1)).unwrap();
        assert_eq!(out.len(), closure_size_of_chain(6));
        assert!(iters >= 3);
    }

    #[test]
    fn recursive_function_matches_iteration() {
        let base = chain(6);
        let by_iter = program_iteration(edges_schema(), |cur| ahead_step(&base, cur, 0, 1))
            .unwrap()
            .0;
        let by_rec = recursive_function(Relation::new(edges_schema()), &mut |cur| {
            ahead_step(&base, cur, 0, 1)
        })
        .unwrap();
        assert_eq!(by_iter, by_rec);
    }

    #[test]
    fn tc_operator_matches_iteration() {
        let base = chain(8);
        let by_iter = program_iteration(edges_schema(), |cur| ahead_step(&base, cur, 0, 1))
            .unwrap()
            .0;
        let by_tc = transitive_closure(&base, 0, 1).unwrap();
        assert_eq!(by_iter, by_tc);
    }

    #[test]
    fn tc_operator_on_cycle_terminates() {
        let mut base = chain(4);
        base.insert(tuple!["o4", "o0"]).unwrap();
        let tc = transitive_closure(&base, 0, 1).unwrap();
        assert_eq!(tc.len(), 25); // complete digraph on 5 nodes
    }

    #[test]
    fn tc_operator_on_dag_with_sharing() {
        // Diamond: a→b, a→c, b→d, c→d.
        let base = Relation::from_tuples(
            edges_schema(),
            vec![
                tuple!["a", "b"],
                tuple!["a", "c"],
                tuple!["b", "d"],
                tuple!["c", "d"],
            ],
        )
        .unwrap();
        let tc = transitive_closure(&base, 0, 1).unwrap();
        assert_eq!(tc.len(), 5); // 4 edges + (a,d)
        assert!(tc.contains(&tuple!["a", "d"]));
    }

    #[test]
    fn iterate_n_is_ahead_n() {
        // The §3.1 sequence: ahead_n contains pairs separated by ≤ n
        // steps; on a 6-chain, iterate 1 = base only (step adds joins
        // with the empty current in round one).
        let base = chain(6);
        let a1 = iterate_n(edges_schema(), |cur| ahead_step(&base, cur, 0, 1), 1).unwrap();
        assert_eq!(a1.len(), 6);
        let a2 = iterate_n(edges_schema(), |cur| ahead_step(&base, cur, 0, 1), 2).unwrap();
        // pairs at distance ≤ 2: 6 + 5 = 11
        assert_eq!(a2.len(), 11);
        // The limit is reached at n = longest path.
        let a_lim = iterate_n(edges_schema(), |cur| ahead_step(&base, cur, 0, 1), 7).unwrap();
        assert_eq!(a_lim.len(), closure_size_of_chain(6));
        // Monotone: ahead_n ⊆ ahead_{n+1} (the §3.2 convergence
        // argument).
        assert!(algebra::is_subset(&a1, &a2));
        assert!(algebra::is_subset(&a2, &a_lim));
    }

    #[test]
    fn empty_base_everywhere() {
        let base = Relation::new(edges_schema());
        let (out, iters) =
            program_iteration(edges_schema(), |cur| ahead_step(&base, cur, 0, 1)).unwrap();
        assert!(out.is_empty());
        assert_eq!(iters, 1);
        assert!(transitive_closure(&base, 0, 1).unwrap().is_empty());
    }
}
