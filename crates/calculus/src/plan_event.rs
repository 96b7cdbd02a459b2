//! Typed planner-trace events.
//!
//! The evaluator's planner trace was historically a list of free-form
//! strings. Each entry is now a [`PlanEvent`] value carrying the
//! decision and the numbers behind it — the chosen access path per
//! planned branch, quantifier-probe demotions, decorrelation refusals,
//! and parallel-dispatch degradations — with the legacy strings kept
//! as the `Display` rendering (byte-for-byte, so note-matching
//! consumers are unaffected). Typed events are what `EXPLAIN` renders,
//! what tests assert on, and what flows into `dc-trace` spans.

use std::fmt;

use dc_index::RelationStats;
use dc_value::Schema;

use crate::ast::Branch;
use crate::joinplan::{self, Access, BranchPlan, EqAtom, StepRationale};

/// One step of a chosen branch access path, with the System-R numbers
/// that ranked it: `estimate = cardinality × selectivity` at the
/// moment the position was picked.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessStep {
    /// Binding position (declaration order) this step enumerates.
    pub position: usize,
    /// The bound variable at that position.
    pub var: String,
    /// Attributes probed through a hash index; empty means a scan.
    pub probe_attrs: Vec<String>,
    /// Range cardinality from statistics.
    pub cardinality: usize,
    /// Product of equality-atom selectivities usable at pick time
    /// (1.0 for a scan).
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

/// Why a quantifier-probe atom was demoted back to the residual scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantDemotionReason {
    /// The probed attribute is not in the range's schema.
    AttrNotInSchema,
    /// The key expression cannot be resolved in the enclosing scope.
    KeyUnresolvable,
    /// The key's base type differs from the probed column's.
    KeyTypeMismatch,
}

/// Why a correlated-range decorrelation was refused or abandoned.
#[derive(Debug, Clone, PartialEq)]
pub enum DecorrRefusalReason {
    /// The range is not a shape decorrelation understands.
    UnsupportedShape,
    /// An inner binding range is itself correlated.
    InnerCorrelated,
    /// The predicate does not split into correlation atoms + local
    /// residual.
    NotSplittable,
    /// A correlation atom references an attribute missing from the
    /// range schema.
    AttrNotInSchema {
        /// The missing attribute.
        attr: String,
    },
    /// The correlation columns are single-valued — the probe would not
    /// narrow the bucket.
    NotSelective,
    /// The estimated inner join blows past the profitability bound.
    JoinTooLarge {
        /// The System-R row estimate that tripped the bound.
        estimated_rows: f64,
    },
    /// Evaluating the decorrelated join errored; the rewrite was
    /// abandoned so the reference scan decides error semantics.
    ResidualError,
    /// Bucketing violated a relation constraint; abandoned likewise.
    BucketConstraint,
    /// A refusal recorded by an earlier evaluator was served from the
    /// catalog cache.
    CachedRefusal,
}

/// A structured planner decision, in first-occurrence order. The
/// `Display` rendering reproduces the historical free-form note for
/// every demotion/refusal variant.
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
    /// A quantifier-probe atom fell back to the residual scan.
    QuantDemotion {
        /// The probed attribute.
        attr: String,
        /// Why it was demoted.
        reason: QuantDemotionReason,
        /// Rendered range syntax (for `AttrNotInSchema`).
        range: String,
        /// Rendered key expression (for `KeyUnresolvable`).
        key: String,
    },
    /// Decorrelation of a correlated quantified range was refused.
    DecorrRefusal {
        /// Why it was refused.
        reason: DecorrRefusalReason,
        /// Rendered range syntax.
        range: String,
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
    /// path (everything except [`PlanEvent::AccessPath`]) — the subset
    /// that also appears in the string `plan_notes` trace.
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
    pub fn access_path_for(
        branch: &Branch,
        plan: &BranchPlan,
        realised: Option<&[&EqAtom]>,
        rationale: &[StepRationale],
        schemas: &[&Schema],
        stats: &[RelationStats],
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
            .zip(rationale)
            .map(|(step, r)| AccessStep {
                position: step.position,
                var: branch.bindings[step.position].0.clone(),
                probe_attrs: match &step.access {
                    Access::Scan => Vec::new(),
                    Access::Probe(atoms) => atoms.iter().map(|a| a.attr.clone()).collect(),
                },
                cardinality: r.cardinality,
                selectivity: r.selectivity,
                estimate: r.estimate,
            })
            .collect();
        PlanEvent::AccessPath {
            steps,
            residual,
            estimated_rows: joinplan::estimate_branch_rows(branch, schemas, stats),
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
            },
            PlanEvent::DecorrRefusal { reason, range } => match reason {
                DecorrRefusalReason::UnsupportedShape => write!(
                    f,
                    "decorrelation: unsupported range shape — residual scan ({range})"
                ),
                DecorrRefusalReason::InnerCorrelated => write!(
                    f,
                    "decorrelation: inner range itself correlated — residual scan ({range})"
                ),
                DecorrRefusalReason::NotSplittable => write!(
                    f,
                    "decorrelation: predicate not splittable into correlation \
                     atoms + local residual — residual scan ({range})"
                ),
                DecorrRefusalReason::AttrNotInSchema { attr } => write!(
                    f,
                    "decorrelation: correlation atom on `{attr}` demoted to \
                     residual — attribute not in range schema ({range})"
                ),
                DecorrRefusalReason::NotSelective => write!(
                    f,
                    "decorrelation: correlation columns not selective \
                     (single-valued) — residual scan ({range})"
                ),
                DecorrRefusalReason::JoinTooLarge { estimated_rows } => write!(
                    f,
                    "decorrelation: estimated inner join too large \
                     ({estimated_rows:.0} rows) — residual scan ({range})"
                ),
                DecorrRefusalReason::ResidualError => write!(
                    f,
                    "decorrelation: residual evaluation errored — \
                     abandoned, residual scan ({range})"
                ),
                DecorrRefusalReason::BucketConstraint => write!(
                    f,
                    "decorrelation: bucket constraint violation — \
                     abandoned, residual scan ({range})"
                ),
                DecorrRefusalReason::CachedRefusal => write!(
                    f,
                    "decorrelation: cached refusal served from catalog \
                     — residual scan ({range})"
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
    fn demotion_renderings_match_legacy_notes() {
        let ev = PlanEvent::DecorrRefusal {
            reason: DecorrRefusalReason::NotSplittable,
            range: "{EACH x IN R: TRUE}".to_string(),
        };
        assert_eq!(
            ev.to_string(),
            "decorrelation: predicate not splittable into correlation atoms + \
             local residual — residual scan ({EACH x IN R: TRUE})"
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
