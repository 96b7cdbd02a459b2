//! Typed planner-trace events.
//!
//! Each entry of the evaluator's planner trace is a [`PlanEvent`]
//! value carrying the decision and the numbers behind it — the chosen
//! access path per planned branch or quantifier site, and each
//! correlated quantifier range left to be scanned per outer combination
//! — rendered for people by `Display`.
//! Typed events are what `EXPLAIN` renders, what tests assert on, what
//! a governed abort's diagnostics carry, and what flows into `dc-trace`
//! spans.

use std::fmt;
use std::ops::ControlFlow;

use dc_value::Schema;

use crate::ast::Branch;
use crate::joinplan::{self, Access, BranchPlan, EqAtom};
use crate::rewrite::{self, Node};

/// One step of a chosen branch access path, with the System-R numbers
/// that rank it: `estimate = cardinality × selectivity`.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessStep {
    /// Binding position (declaration order) this step enumerates.
    pub position: usize,
    /// The bound variable at that position, as the query names it (an
    /// unnested quantifier's internal variable by the one it replaced).
    pub var: String,
    /// Attributes probed through a hash index; empty means a scan.
    pub probe_attrs: Vec<String>,
    /// Range cardinality; `None` when the planner does not know it (a
    /// static preview's range that is not a catalog relation).
    pub cardinality: Option<usize>,
    /// Product of the probed columns' `1/distinct` selectivities (1.0
    /// for a scan, and for a column whose count is not at hand).
    pub selectivity: f64,
    /// `cardinality × selectivity` — the ordering key; `None` with the
    /// cardinality.
    pub estimate: Option<f64>,
}

impl AccessStep {
    /// True when this step probes an index rather than scanning.
    pub fn is_probe(&self) -> bool {
        !self.probe_attrs.is_empty()
    }
}

/// A structured planner decision, in first-occurrence order.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanEvent {
    /// The access path chosen for one planned branch — a set-former's,
    /// or the one-binding branch a quantifier site scans — recorded
    /// only when the branch had equality atoms to plan with.
    AccessPath {
        /// Steps in execution order with their ordering rationale.
        steps: Vec<AccessStep>,
        /// The conjuncts the executor's leaf re-checks per combination —
        /// every top-level conjunct no realised probe key decides,
        /// rendered in source order and joined by `AND` — or `TRUE`.
        residual: String,
        /// System-R estimate of rows the whole branch emits; `None` when
        /// a range's cardinality is unknown.
        estimated_rows: Option<f64>,
    },
    /// A correlated quantifier range that is neither a single-branch
    /// set-former nor a selector application that unnests: it is
    /// evaluated and scanned per outer combination.
    NotUnnested {
        /// Rendered range syntax.
        range: String,
    },
}

impl PlanEvent {
    /// Build the access-path event for one planned branch from the
    /// planner's output — shared by the evaluator's live trace and the
    /// serving layer's static `EXPLAIN` preview of a prepared solve.
    /// `realised` lists the probe atoms the executor actually keyed on
    /// (the evaluator passes its compiled plan's, so a demoted key shows
    /// up in the residual and a step none of whose keys realised renders
    /// as the scan it runs); `None` takes every planned probe atom as
    /// realised — the static preview's view, which compiles nothing.
    /// `cards` are the ranges' cardinalities (`None`: unknown, and so is
    /// every estimate built on it); `known` answers a
    /// (position, column) distinct count only from counts the plan
    /// already holds — the ones the planner asked for, the indexes of
    /// its probe steps — so rendering never builds an index.
    pub fn access_path_for(
        branch: &Branch,
        plan: &BranchPlan,
        realised: Option<&[&EqAtom]>,
        schemas: &[&Schema],
        cards: &[Option<usize>],
        known: impl Fn(usize, usize) -> Option<usize>,
    ) -> PlanEvent {
        let planned: Vec<&EqAtom>;
        let realised = match realised {
            Some(atoms) => atoms,
            None => {
                planned = plan
                    .steps
                    .iter()
                    .flat_map(|s| match &s.access {
                        Access::Scan => &[][..],
                        Access::Probe(atoms) => atoms,
                    })
                    .collect();
                &planned
            }
        };
        let written = written_names(branch);
        let residual = joinplan::residual_conjuncts(branch, realised);
        let residual = if residual.is_empty() {
            "TRUE".to_string()
        } else {
            residual
                .into_iter()
                .map(|c| {
                    let c =
                        (written.iter()).fold(c.clone(), |c, (d, v)| rewrite::rename_var(&c, d, v));
                    c.to_string()
                })
                .collect::<Vec<_>>()
                .join(" AND ")
        };
        let steps = plan
            .steps
            .iter()
            .map(|step| {
                let p = step.position;
                let probed: Vec<&EqAtom> = match &step.access {
                    Access::Scan => Vec::new(),
                    Access::Probe(atoms) => atoms.iter().filter(|a| realised.contains(a)).collect(),
                };
                let selectivity: f64 = probed
                    .iter()
                    .filter_map(|a| schemas[p].position(&a.attr).ok())
                    .map(|column| joinplan::eq_selectivity(known(p, column)))
                    .product();
                AccessStep {
                    position: p,
                    var: (written.iter())
                        .find(|(made, _)| *made == branch.bindings[p].0)
                        .map_or(&branch.bindings[p].0[..], |(_, v)| v)
                        .to_string(),
                    probe_attrs: probed.iter().map(|a| a.attr.clone()).collect(),
                    cardinality: cards[p],
                    selectivity,
                    estimate: cards[p].map(|card| card as f64 * selectivity),
                }
            })
            .collect();
        let estimated_rows = cards
            .iter()
            .copied()
            .collect::<Option<Vec<usize>>>()
            .map(|cards| joinplan::estimate_branch_rows(branch, schemas, &cards, known));
        PlanEvent::AccessPath {
            steps,
            residual,
            estimated_rows,
        }
    }
}

/// The variables of `branch` EXPLAIN shows by the name the query wrote,
/// paired with that name: a quantifier the unnesting rewrite introduced
/// binds `Δ{n}_v`, shown as `v` — unless the branch also names `v`, or
/// another such variable also stands for it, so the two would read
/// alike.
fn written_names(branch: &Branch) -> Vec<(&str, &str)> {
    let mut names: Vec<&str> = branch.bindings.iter().map(|(v, _)| v.as_str()).collect();
    let _ = rewrite::walk(&branch.predicate, |node, bound| {
        names.extend(bound);
        if let Node::Var(v) = node {
            names.push(v);
        }
        ControlFlow::Continue(())
    });
    names.sort_unstable();
    names.dedup();
    (names.iter())
        .filter_map(|&made| {
            let v = as_written(made);
            let clash = |&n: &&str| n != made && (n == v || as_written(n) == v);
            (v != made && !names.iter().any(clash)).then_some((made, v))
        })
        .collect()
}

/// The variable the query names: a quantifier the unnesting rewrite
/// introduced binds `Δ{n}_v` (`Δ` can be no identifier's first
/// character), and `v` is what the user wrote.
fn as_written(mut var: &str) -> &str {
    while let Some((n, v)) = var.strip_prefix('Δ').and_then(|v| v.split_once('_')) {
        if n.is_empty() || !n.bytes().all(|b| b.is_ascii_digit()) {
            break;
        }
        var = v;
    }
    var
}

impl fmt::Display for PlanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanEvent::AccessPath {
                steps,
                residual,
                estimated_rows,
            } => {
                // An unknown number renders as `?`, never as a guess.
                let num = |n: Option<f64>| n.map_or("?".to_string(), |n| format!("{n:.0}"));
                write!(f, "access path:")?;
                for step in steps {
                    let card = num(step.cardinality.map(|c| c as f64));
                    let est = num(step.estimate);
                    if step.is_probe() {
                        write!(
                            f,
                            " probe {} on [{}] (card={card}, sel={:.3}, est={est});",
                            step.var,
                            step.probe_attrs.join(", "),
                            step.selectivity,
                        )?;
                    } else {
                        write!(f, " scan {} (card={card}, est={est});", step.var)?;
                    }
                }
                write!(
                    f,
                    " residual {residual}; branch est={} rows",
                    num(*estimated_rows)
                )
            }
            PlanEvent::NotUnnested { range } => write!(
                f,
                "quantifier: correlated range not unnested — scanned per outer \
                 combination ({range})"
            ),
        }
    }
}

/// A rendered plan report: the typed events plus a human-readable
/// tree, returned by `Database::explain` and `PreparedQuery::explain`.
#[derive(Debug, Clone)]
pub struct Explanation {
    events: Vec<PlanEvent>,
    text: String,
}

impl Explanation {
    /// Assemble an explanation for `header` (the rendered query) from
    /// the planner events of one evaluation; `rows` is the result
    /// cardinality when the query was actually executed.
    pub fn new(header: &str, rows: Option<usize>, events: Vec<PlanEvent>) -> Explanation {
        let mut text = format!("EXPLAIN {header}\n");
        if let Some(rows) = rows {
            text.push_str(&format!("├─ rows: {rows}\n"));
        }
        if events.is_empty() {
            text.push_str("└─ no planner decisions recorded (no equality keys to plan with)\n");
        } else {
            for (i, ev) in events.iter().enumerate() {
                let branch = if i + 1 == events.len() {
                    "└─"
                } else {
                    "├─"
                };
                text.push_str(&format!("{branch} {ev}\n"));
            }
        }
        Explanation { events, text }
    }

    /// The typed planner decisions, in first-occurrence order.
    pub fn events(&self) -> &[PlanEvent] {
        &self.events
    }

    /// The rendered report (also available via `Display`).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Access-path events only.
    pub fn access_paths(&self) -> impl Iterator<Item = &PlanEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, PlanEvent::AccessPath { .. }))
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_unnested_renders_its_range() {
        let ev = PlanEvent::NotUnnested {
            range: "{EACH x IN R: TRUE, EACH y IN S: TRUE}".to_string(),
        };
        assert_eq!(
            ev.to_string(),
            "quantifier: correlated range not unnested — scanned per outer \
             combination ({EACH x IN R: TRUE, EACH y IN S: TRUE})"
        );
    }

    #[test]
    fn explanation_renders_a_tree() {
        let steps = vec![
            AccessStep {
                position: 0,
                var: "f".to_string(),
                probe_attrs: vec![],
                cardinality: Some(100),
                selectivity: 1.0,
                estimate: Some(100.0),
            },
            AccessStep {
                position: 1,
                var: "b".to_string(),
                probe_attrs: vec!["front".to_string()],
                cardinality: Some(100),
                selectivity: 0.02,
                estimate: Some(2.0),
            },
        ];
        let ex = Explanation::new(
            "q",
            Some(42),
            vec![PlanEvent::AccessPath {
                steps,
                residual: "TRUE".to_string(),
                estimated_rows: Some(200.0),
            }],
        );
        assert!(ex.text().contains("EXPLAIN q"));
        assert!(ex.text().contains("rows: 42"));
        assert!(ex.text().contains("probe b on [front]"));
        assert_eq!(ex.access_paths().count(), 1);
    }
}
