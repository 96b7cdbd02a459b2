//! Typed planner-trace events.
//!
//! Each entry of the evaluator's planner trace is a [`PlanEvent`]
//! value carrying the decision and the numbers behind it — the chosen
//! access path per planned branch, quantifier-probe demotions (a
//! correlated range left on the reference scan among them), and
//! parallel-dispatch degradations — rendered for people by `Display`.
//! Typed events are what `EXPLAIN` renders, what tests assert on, what
//! a governed abort's diagnostics carry, and what flows into `dc-trace`
//! spans.

use std::fmt;

use dc_value::Schema;

use crate::ast::Branch;
use crate::joinplan::{self, Access, BranchPlan, EqAtom};

/// One step of a chosen branch access path, with the System-R numbers
/// that rank it: `estimate = cardinality × selectivity`.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessStep {
    /// Binding position (declaration order) this step enumerates.
    pub position: usize,
    /// The bound variable at that position.
    pub var: String,
    /// Attributes probed through a hash index; empty means a scan.
    pub probe_attrs: Vec<String>,
    /// Range cardinality.
    pub cardinality: usize,
    /// Product of the probed columns' `1/distinct` selectivities (1.0
    /// for a scan, and for a column whose count is not at hand).
    pub selectivity: f64,
    /// `cardinality × selectivity` — the ordering key.
    pub estimate: f64,
}

impl AccessStep {
    /// True when this step probes an index rather than scanning.
    pub fn is_probe(&self) -> bool {
        !self.probe_attrs.is_empty()
    }
}

/// Why a quantifier was left (in part) to the reference scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantDemotionReason {
    /// The probed attribute is not in the range's schema.
    AttrNotInSchema,
    /// The key expression cannot be resolved in the enclosing scope.
    KeyUnresolvable,
    /// The key's base type differs from the probed column's.
    KeyTypeMismatch,
    /// The range is correlated but neither a single-branch set-former
    /// nor a selector application that unnests: it is re-evaluated per
    /// outer combination.
    NotUnnested,
}

/// A structured planner decision, in first-occurrence order.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanEvent {
    /// The access path chosen for one planned branch (only recorded
    /// when the branch had equality atoms to plan with).
    AccessPath {
        /// Steps in execution order with their ordering rationale.
        steps: Vec<AccessStep>,
        /// The conjuncts the executor's leaf re-checks per combination —
        /// every top-level conjunct no realised probe key decides,
        /// rendered in source order and joined by `AND` — or `TRUE`.
        residual: String,
        /// System-R estimate of rows the whole branch emits.
        estimated_rows: f64,
    },
    /// A quantifier-probe atom, or a whole correlated quantifier, fell
    /// back to the residual scan.
    QuantDemotion {
        /// The probed attribute (empty for `NotUnnested`).
        attr: String,
        /// Why it was demoted.
        reason: QuantDemotionReason,
        /// Rendered range syntax (for `AttrNotInSchema` and
        /// `NotUnnested`).
        range: String,
        /// Rendered key expression (for `KeyUnresolvable`).
        key: String,
    },
    /// A parallel branch dispatch degraded to the sequential path
    /// after a worker panic.
    ParallelDegraded {
        /// The worker's panic message.
        message: String,
    },
}

impl PlanEvent {
    /// True for events that record a fallback from a planned access
    /// path: everything except [`PlanEvent::AccessPath`].
    pub fn is_demotion(&self) -> bool {
        !matches!(self, PlanEvent::AccessPath { .. })
    }

    /// Build the access-path event for one planned branch from the
    /// planner's output — shared by the evaluator's live trace and the
    /// serving layer's static `EXPLAIN` preview of a prepared solve.
    /// `realised` lists the probe atoms the executor actually keyed on
    /// (the evaluator passes its compiled plan's, so a demoted key shows
    /// up in the residual); `None` takes every planned probe atom as
    /// realised — the static preview's view, which compiles nothing.
    /// `cards` are the ranges' cardinalities; `known` answers a
    /// (position, column) distinct count only from counts the plan
    /// already holds — the ones the planner asked for, the indexes of
    /// its probe steps — so rendering never builds an index.
    pub fn access_path_for(
        branch: &Branch,
        plan: &BranchPlan,
        realised: Option<&[&EqAtom]>,
        schemas: &[&Schema],
        cards: &[usize],
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
        let residual = joinplan::residual_conjuncts(branch, realised);
        let residual = if residual.is_empty() {
            "TRUE".to_string()
        } else {
            residual
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" AND ")
        };
        let steps = plan
            .steps
            .iter()
            .map(|step| {
                let p = step.position;
                let probed: &[EqAtom] = match &step.access {
                    Access::Scan => &[],
                    Access::Probe(atoms) => atoms,
                };
                let selectivity: f64 = probed
                    .iter()
                    .filter_map(|a| schemas[p].position(&a.attr).ok())
                    .map(|column| joinplan::eq_selectivity(known(p, column)))
                    .product();
                AccessStep {
                    position: p,
                    var: branch.bindings[p].0.clone(),
                    probe_attrs: probed.iter().map(|a| a.attr.clone()).collect(),
                    cardinality: cards[p],
                    selectivity,
                    estimate: cards[p] as f64 * selectivity,
                }
            })
            .collect();
        PlanEvent::AccessPath {
            steps,
            residual,
            estimated_rows: joinplan::estimate_branch_rows(branch, schemas, cards, known),
        }
    }
}

impl fmt::Display for PlanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanEvent::AccessPath {
                steps,
                residual,
                estimated_rows,
            } => {
                write!(f, "access path:")?;
                for step in steps {
                    if step.is_probe() {
                        write!(
                            f,
                            " probe {} on [{}] (card={}, sel={:.3}, est={:.0});",
                            step.var,
                            step.probe_attrs.join(", "),
                            step.cardinality,
                            step.selectivity,
                            step.estimate
                        )?;
                    } else {
                        write!(
                            f,
                            " scan {} (card={}, est={:.0});",
                            step.var, step.cardinality, step.estimate
                        )?;
                    }
                }
                write!(
                    f,
                    " residual {residual}; branch est={estimated_rows:.0} rows"
                )
            }
            PlanEvent::QuantDemotion {
                attr,
                reason,
                range,
                key,
            } => match reason {
                QuantDemotionReason::AttrNotInSchema => write!(
                    f,
                    "quantifier probe: atom on `{attr}` demoted to residual — \
                     attribute not in range schema ({range})"
                ),
                QuantDemotionReason::KeyUnresolvable => write!(
                    f,
                    "quantifier probe: atom on `{attr}` demoted to residual — \
                     key expression `{key}` unresolvable in enclosing scope"
                ),
                QuantDemotionReason::KeyTypeMismatch => write!(
                    f,
                    "quantifier probe: atom on `{attr}` demoted to residual — \
                     key type does not match probed column"
                ),
                QuantDemotionReason::NotUnnested => write!(
                    f,
                    "quantifier probe: correlated range not unnested — \
                     reference scan ({range})"
                ),
            },
            PlanEvent::ParallelDegraded { message } => write!(
                f,
                "parallel dispatch: worker panicked ({message}) — \
                 branch degraded to the sequential path"
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
            text.push_str("└─ no planner decisions recorded (reference scan only)\n");
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

    /// Demotion/refusal events only.
    pub fn demotions(&self) -> impl Iterator<Item = &PlanEvent> {
        self.events.iter().filter(|e| e.is_demotion())
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
    fn demotion_renderings_name_the_reason() {
        let ev = PlanEvent::QuantDemotion {
            attr: String::new(),
            reason: QuantDemotionReason::NotUnnested,
            range: "{EACH x IN R: TRUE, EACH y IN S: TRUE}".to_string(),
            key: String::new(),
        };
        assert_eq!(
            ev.to_string(),
            "quantifier probe: correlated range not unnested — reference scan \
             ({EACH x IN R: TRUE, EACH y IN S: TRUE})"
        );
        let ev = PlanEvent::QuantDemotion {
            attr: "dept".to_string(),
            reason: QuantDemotionReason::KeyTypeMismatch,
            range: String::new(),
            key: String::new(),
        };
        assert_eq!(
            ev.to_string(),
            "quantifier probe: atom on `dept` demoted to residual — key type \
             does not match probed column"
        );
    }

    #[test]
    fn explanation_renders_a_tree() {
        let steps = vec![
            AccessStep {
                position: 0,
                var: "f".to_string(),
                probe_attrs: vec![],
                cardinality: 100,
                selectivity: 1.0,
                estimate: 100.0,
            },
            AccessStep {
                position: 1,
                var: "b".to_string(),
                probe_attrs: vec!["front".to_string()],
                cardinality: 100,
                selectivity: 0.02,
                estimate: 2.0,
            },
        ];
        let ex = Explanation::new(
            "q",
            Some(42),
            vec![PlanEvent::AccessPath {
                steps,
                residual: "TRUE".to_string(),
                estimated_rows: 200.0,
            }],
        );
        assert!(ex.text().contains("EXPLAIN q"));
        assert!(ex.text().contains("rows: 42"));
        assert!(ex.text().contains("probe b on [front]"));
        assert_eq!(ex.access_paths().count(), 1);
        assert_eq!(ex.demotions().count(), 0);
    }
}
