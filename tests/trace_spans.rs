//! Observability battery: correlated span trees, typed planner events,
//! the `EXPLAIN` surface, and the metrics registry.
//!
//! What must hold, and is asserted here:
//!
//! * **One commit, one tree**: a server commit with a live standing
//!   query yields a single correlated span tree — `server_commit` →
//!   `subscription_refresh` → solve rounds → branch tasks — captured by
//!   the in-memory [`Collector`], well-formed (no dangling parents, no
//!   time-interval escapes), every branch task under its round.
//! * **Typed planner traces**: a quantifier site whose key demotes
//!   shows its scan step with the conjunct in the residual, and a
//!   correlated range left to be scanned per outer combination surfaces
//!   as a structured [`PlanEvent`], not just a rendered string; chosen
//!   access paths carry the System-R numbers that ranked them.
//! * **`EXPLAIN`**: `Database::explain`, `Session::explain` and
//!   `PreparedQuery::explain` render one plan tree (header, cardinality,
//!   events): the trace of an executed query, or the static preview of
//!   a named application.
//! * **Warm/cold refresh observability**: the subscription-refresh
//!   spans and the registry's refresh counters agree with the
//!   warm/cold/skipped routing the standing-query battery proves.
//! * **Warn-once capture**: `envcfg::warn_once` lands in the trace
//!   sink as a `warning` event and in every metrics snapshot.
//!
//! Tests that install a collector serialise on the tracer's install
//! lock, so the suite runs under the default parallel test runner and
//! under CI's `DC_TRACE=1` leg alike.

use dc_calculus::ast::Branch;
use dc_calculus::builder::*;
use dc_calculus::PlanEvent;
use dc_core::{Database, Strategy};
use dc_server::{Server, WriteBatch};
use dc_trace::metrics::Counter;
use dc_trace::{Collector, FieldValue, SpanKind, TraceRecord};
use dc_value::tuple;

/// Chain-closure database under the `ahead` constructor, plus one
/// relation the closure never reads (for the disjoint-skip refresh).
fn graph_db() -> Database {
    let mut db = dc_bench::ahead_db(&dc_bench::many_chains(2, 4), Strategy::SemiNaive);
    db.create_relation("Unrelated", dc_bench::workload::graphs::edge_schema())
        .unwrap();
    db
}

/// CAD-scene database (Objects / Infront / Ontop) for planner tests.
fn scene_db() -> Database {
    dc_bench::scene_db(&dc_bench::workload::scene(4, 6, 2, 11))
}

/// Every branch task in `tree` is a child of a round in `tree`, and
/// carries its two laps: `plan_us` (order, keys, indexes) and `run_us`
/// (the operator loop).
fn assert_tasks_under_rounds(tree: &[TraceRecord]) {
    let rounds: Vec<u64> = tree
        .iter()
        .filter(|r| r.kind == SpanKind::Round)
        .map(|r| r.id)
        .collect();
    for task in tree.iter().filter(|r| r.kind == SpanKind::BranchTask) {
        assert!(rounds.contains(&task.parent), "{task:?}");
        for key in ["plan_us", "run_us"] {
            assert!(
                matches!(task.field(key), Some(FieldValue::U64(_))),
                "branch task without `{key}`: {task:?}"
            );
        }
    }
}

fn str_field<'r>(rec: &'r TraceRecord, key: &str) -> Option<&'r str> {
    match rec.field(key) {
        Some(FieldValue::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// One commit with a live subscription produces a single correlated
/// tree: commit → refresh → solve → rounds → branch tasks.
#[test]
fn commit_with_subscription_yields_one_correlated_tree() {
    let guard = Collector::install();
    let server = Server::new(graph_db());
    let prepared = server
        .prepare_solve("Infront", "ahead", &[], vec![])
        .unwrap();
    let sub = server.subscribe(&prepared).unwrap();
    sub.recv()
        .expect("subscription alive")
        .expect("initial eval");

    let epoch = server
        .commit(&WriteBatch::new().insert("Infront", tuple!["c0_4", "x0"]))
        .unwrap();
    let up = sub.recv().expect("subscription alive").expect("refresh");
    assert_eq!(up.epoch, epoch);
    dc_trace::flush();

    let records = guard.records();
    let commits: Vec<_> = records
        .iter()
        .filter(|r| r.kind == SpanKind::ServerCommit)
        .collect();
    assert_eq!(commits.len(), 1, "one commit, one commit span");
    let commit = commits[0];
    assert_eq!(
        commit.field("epoch"),
        Some(&FieldValue::U64(epoch)),
        "commit span carries the published epoch"
    );

    let tree = guard.subtree(commit.id);
    let kind_count = |k: SpanKind| tree.iter().filter(|r| r.kind == k).count();
    assert_eq!(
        kind_count(SpanKind::SubscriptionRefresh),
        1,
        "the refresh nests under the commit"
    );
    assert!(
        kind_count(SpanKind::Solve) >= 1,
        "the refresh solve nests under the commit"
    );
    assert!(
        kind_count(SpanKind::Round) >= 1,
        "solve rounds nest under the commit"
    );
    assert!(
        kind_count(SpanKind::BranchTask) >= 1,
        "branch tasks nest under the commit"
    );
    assert_tasks_under_rounds(&tree);
    // Structural soundness of everything captured — including the
    // subscribe-time initial evaluation outside the commit tree.
    assert_eq!(
        guard.well_formedness_violations(),
        Vec::<String>::new(),
        "span tree is well-formed"
    );
    drop(sub);
    server.shutdown();
}

/// A solve writes one trace record per round: its tree holds no record
/// but the solve, its rounds, their branch tasks and plan events; every
/// round carries its stage fields; and an access path is emitted when
/// its branch is first planned and when its steps change, not once per
/// round (a 40-edge chain takes 41 rounds).
#[test]
fn a_solve_writes_one_record_per_round() {
    let guard = Collector::install();
    let db = dc_bench::ahead_db(&dc_bench::workload::graphs::chain(40), Strategy::SemiNaive);
    let closure = db.eval(&rel("Infront").construct("ahead", vec![])).unwrap();
    assert_eq!(closure.len(), 40 * 41 / 2);
    dc_trace::flush();

    // Concurrent tests may trace too: select this solve by its size.
    let solve = guard
        .of_kind(SpanKind::Solve)
        .into_iter()
        .find(|r| r.field("tuples") == Some(&FieldValue::U64(820)))
        .expect("the closure's solve span");
    let tree = guard.subtree(solve.id);
    let stray: Vec<_> = tree
        .iter()
        .filter(|r| {
            !matches!(
                r.kind,
                SpanKind::Solve | SpanKind::Round | SpanKind::BranchTask | SpanKind::Plan
            )
        })
        .map(|r| r.kind.label())
        .collect();
    assert_eq!(stray, Vec::<&str>::new(), "no phase or other records");
    assert_tasks_under_rounds(&tree);
    let rounds: Vec<_> = tree.iter().filter(|r| r.kind == SpanKind::Round).collect();
    assert!(rounds.len() > 40, "{} rounds", rounds.len());
    for round in &rounds {
        for key in ["round", "tasks", "prep_us", "evaluate_us", "commit_us"] {
            assert!(
                matches!(round.field(key), Some(FieldValue::U64(_))),
                "round record without `{key}`: {round:?}"
            );
        }
    }
    let paths: Vec<_> = tree
        .iter()
        .filter(|r| r.kind == SpanKind::Plan && r.name.starts_with("access path:"))
        .map(|r| r.name.as_str())
        .collect();
    assert!(paths.len() <= 3, "{paths:#?}");
}

/// A solve compiles each task shape once, not once per round: the cold
/// closure of a 192-edge chain runs 193 rounds, yet counts at most one
/// plan per shape (the `ahead` body's base branch whole, its recursive
/// branch over the delta) — and its tasks emit at least the tuples its
/// deltas carry.
#[test]
fn a_solve_plans_each_task_shape_once() {
    let db = dc_bench::ahead_db(&dc_bench::workload::graphs::chain(192), Strategy::SemiNaive);
    let q = rel("Infront").construct("ahead", vec![]);
    let (closure, grown) = dc_bench::counted(&db.metrics(), || db.eval(&q).unwrap());
    assert_eq!(closure.len(), 192 * 193 / 2);
    assert_eq!(grown.solve_rounds, 193);
    let shapes = 2;
    assert!(
        (1..=shapes).contains(&(grown.probe_plans + grown.scan_plans)),
        "{grown:?}"
    );
    assert!(grown.emitted_tuples >= grown.delta_tuples, "{grown:?}");
    assert_eq!(grown.delta_tuples, closure.len() as u64);
}

/// A solve whose equations register while a round evaluates — a
/// predicate applying a constructor to a scalar read from a tuple
/// variable — still writes a well-formed tree, every branch task under
/// its round.
#[test]
fn mid_round_registration_keeps_the_span_tree_well_formed() {
    let guard = Collector::install();
    let mut db = Database::new();
    let results = dc_lang::run_script(
        &mut db,
        r#"
        TYPE numrel = RELATION ... OF RECORD n: INTEGER END;
        VAR N: numrel;
        CONSTRUCTOR below FOR Rel: numrel (K: INTEGER): numrel;
        BEGIN EACH r IN Rel: r.n < K END below;
        CONSTRUCTOR has_smaller FOR Rel: numrel (): numrel;
        BEGIN EACH r IN Rel: SOME s IN Rel{below(; r.n)} (TRUE) END has_smaller;
        INSERT N <1>; INSERT N <4>; INSERT N <7>;
        QUERY N{has_smaller()};
        "#,
    )
    .unwrap();
    assert_eq!(results[0].relation.len(), 2);
    dc_trace::flush();

    let solve = guard
        .of_kind(SpanKind::Solve)
        .into_iter()
        .find(|r| r.name == "has_smaller")
        .expect("the solve span");
    assert_eq!(solve.field("equations"), Some(&FieldValue::U64(4)));
    assert_tasks_under_rounds(&guard.subtree(solve.id));
    assert_eq!(guard.well_formedness_violations(), Vec::<String>::new());
}

/// Warm, cold, and skipped refreshes are visible both as span fields
/// and as registry counters.
#[test]
fn refresh_outcomes_are_observable() {
    let guard = Collector::install();
    // The closure over `Infront`, plus §3.3's unchecked `strange` under
    // the checked `wrap_strange` over `Card`: a system the solver runs
    // naive, so its refreshes stay cold.
    let mut db = graph_db();
    db.create_relation("Card", dc_core::paper::cardrel())
        .unwrap();
    db.insert_all("Card", (0u64..=6).map(|i| tuple![i]))
        .unwrap();
    db.define_constructor_unchecked(dc_core::paper::strange())
        .unwrap();
    db.define_constructor(dc_core::Constructor {
        name: "wrap_strange".into(),
        body: dc_calculus::ast::SetFormer {
            branches: vec![Branch::each(
                "r",
                rel("Baserel").construct("strange", vec![]),
                tru(),
            )],
        },
        ..dc_core::paper::strange()
    })
    .unwrap();
    let server = Server::new(db);
    let subs: Vec<_> = [("Infront", "ahead"), ("Card", "wrap_strange")]
        .into_iter()
        .map(|(base, ctor)| {
            let prepared = server.prepare_solve(base, ctor, &[], vec![]).unwrap();
            let sub = server.subscribe(&prepared).unwrap();
            sub.recv().expect("alive").expect("initial eval");
            sub
        })
        .collect();

    // Insert into the closure's relation: warm. Disjoint commit:
    // skipped. Deletion from the closure's relation: warm, and it
    // retracts. Insert into `Card`: cold, by the solver's refusal.
    let script = [
        WriteBatch::new().insert("Infront", tuple!["c0_4", "w0"]),
        WriteBatch::new().insert("Unrelated", tuple!["a", "b"]),
        WriteBatch::new().delete("Infront", tuple!["c0_1", "c0_2"]),
        WriteBatch::new().insert("Card", tuple![8u64]),
    ];
    let mut outcomes = Vec::new();
    for batch in &script {
        server.commit(batch).unwrap();
        for sub in &subs {
            let up = sub.recv().expect("alive").expect("refresh");
            outcomes.push((up.warm, up.removed.len()));
        }
    }
    assert_eq!(
        outcomes,
        vec![
            (true, 0),
            (true, 0),
            (true, 0),
            (true, 0),
            (true, 8),
            (true, 0),
            (true, 0),
            (false, 0)
        ]
    );
    dc_trace::flush();

    let spans = guard.of_kind(SpanKind::SubscriptionRefresh);
    let span_outcomes: Vec<_> = spans
        .iter()
        .filter_map(|r| str_field(r, "outcome"))
        .collect();
    assert_eq!(
        span_outcomes,
        vec!["warm", "skipped", "skipped", "skipped", "warm", "skipped", "skipped", "cold"],
        "refresh spans label the maintenance route taken"
    );
    let refusals: Vec<_> = spans
        .iter()
        .filter_map(|r| str_field(r, "refusal"))
        .collect();
    assert_eq!(
        refusals,
        vec!["naive_strategy"],
        "a cold refresh names the refusal that sent it there"
    );

    let m = server.metrics();
    assert_eq!(m.get(Counter::RefreshWarm), 2);
    assert_eq!(m.get(Counter::RefreshSkipped), 5);
    assert_eq!(m.get(Counter::RefreshCold), 1);
    assert_eq!(
        m.get(Counter::SubscriptionUpdates),
        8 + 2,
        "2 subscriptions × 4 commits + 2 subscribe seeds"
    );
    assert_eq!(m.get(Counter::Commits), 4);
    let snap = m.snapshot();
    assert_eq!(snap.refresh_lag_us.count, 8);
    assert!(snap.commit_latency_us.count >= 4);
}

/// `Database::explain` renders the plan tree for an executed query:
/// header, result cardinality, and the chosen access path with its
/// probe/scan steps and System-R estimates.
#[test]
fn database_explain_renders_access_path() {
    let db = scene_db();
    // Two-binding join: t.base = r.front — the planner should probe
    // `Ontop` on `base` rather than scanning the product.
    let q = set_former(vec![Branch::projecting(
        vec![attr("r", "front"), attr("t", "top")],
        vec![("r".into(), rel("Infront")), ("t".into(), rel("Ontop"))],
        eq(attr("t", "base"), attr("r", "front")),
    )]);
    let expl = db.explain(&q).unwrap();
    assert!(expl.text().starts_with("EXPLAIN {"), "{}", expl.text());
    assert!(expl.text().contains("rows:"), "{}", expl.text());

    let paths: Vec<_> = expl.access_paths().collect();
    assert_eq!(paths.len(), 1, "one planned branch: {}", expl.text());
    let PlanEvent::AccessPath {
        steps,
        estimated_rows,
        ..
    } = paths[0]
    else {
        unreachable!("access_paths filters on the variant");
    };
    assert_eq!(steps.len(), 2);
    // One side scans, the other probes the equality key; the planner
    // picks the cheaper orientation from cardinalities.
    assert!(
        steps.iter().any(|s| s.is_probe()),
        "expected one probe step: {steps:?}"
    );
    assert!(
        steps.iter().any(|s| !s.is_probe()),
        "expected one scan step: {steps:?}"
    );
    assert!(estimated_rows.is_some_and(|rows| rows >= 0.0));
    // Cross-check: the registry saw the probe-plan decision.
    assert!(db.metrics().get(Counter::ProbePlans) >= 1);
}

/// `EXPLAIN` of the serving workload's quantifier queries lists each
/// quantifier site's access path: the visibility query probes `Ontop`
/// on `base` for both of its sites, and none of the four reads as a plan
/// with no decisions.
#[test]
fn explain_lists_each_quantifier_sites_access_path() {
    let db = scene_db();
    let visibility = db.explain(&dc_bench::visibility_query()).unwrap();
    for step in ["probe t on [base]", "probe b on [base]"] {
        assert!(visibility.text().contains(step), "{visibility}");
    }
    // An unnested site goes by the variable the query names, not the
    // rewrite's internal `Δ1_o`.
    let stacked = db.explain(&dc_bench::stacked_back_query()).unwrap();
    assert!(stacked.text().contains("probe o on [base]"), "{stacked}");
    assert!(!stacked.text().contains('Δ'), "{stacked}");
    // Where the site's predicate also names an `o` of its own, the site
    // keeps its internal name, so the residual's two `o`s stay apart.
    let shadowed = set_former(vec![Branch::each(
        "r",
        rel("Infront"),
        some(
            "t",
            rel("Ontop").select("on_base", vec![attr("r", "back")]),
            some("o", rel("Objects"), eq(attr("o", "part"), attr("t", "top"))),
        ),
    )]);
    let shadowed = db.explain(&shadowed).unwrap();
    assert!(
        shadowed.text().contains("probe Δ1_o on [base]"),
        "{shadowed}"
    );
    assert!(
        shadowed.text().contains("(o.part = Δ1_o.top)"),
        "{shadowed}"
    );
    for q in [
        dc_bench::visibility_query(),
        dc_bench::front_row_query(),
        dc_bench::stacked_back_query(),
        dc_bench::unburdened_front_query(),
    ] {
        let expl = db.explain(&q).unwrap();
        assert!(expl.access_paths().count() >= 1, "{expl}");
        assert!(
            expl.access_paths()
                .all(|p| matches!(p, PlanEvent::AccessPath { steps, .. } if steps[0].is_probe())),
            "{expl}"
        );
        assert!(
            !expl.text().contains("no planner decisions recorded"),
            "{expl}"
        );
    }
}

/// A known probe demotion surfaces as a typed event: the quantified
/// range is a view projecting `top` away while the body probes it —
/// the site scans, and its access path keeps the conjunct in the
/// residual.
#[test]
fn probe_demotion_is_a_typed_event() {
    let db = scene_db();
    let view = set_former(vec![Branch::projecting(
        vec![attr("o", "base")],
        vec![("o".into(), rel("Ontop"))],
        tru(),
    )]);
    let q = set_former(vec![Branch::each(
        "r",
        rel("Infront"),
        some("t", view, eq(attr("t", "top"), attr("r", "front"))),
    )]);
    // The body genuinely references the projected-away field, so
    // evaluation errors on both paths; the access path is recorded
    // before the scan raises.
    let mut ev = db.evaluator();
    assert!(ev.eval(&q).is_err());
    let events = ev.take_plan_events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            PlanEvent::AccessPath { steps, residual, .. }
                if steps.len() == 1 && !steps[0].is_probe() && residual == "t.top = r.front"
        )),
        "expected the site's scan step with its conjunct in the residual, got {events:?}"
    );
}

/// A correlated range that does not unnest surfaces as a typed event
/// with its reason — a two-branch set-former is a union, which §4's
/// N2/N3 do not take apart — once for the site, however many outer
/// tuples re-evaluate it.
#[test]
fn correlated_range_left_on_the_scan_is_a_typed_event() {
    let db = scene_db();
    let union = set_former(vec![
        Branch::each("o", rel("Ontop"), eq(attr("o", "base"), attr("r", "front"))),
        Branch::each("o", rel("Ontop"), eq(attr("o", "top"), attr("r", "back"))),
    ]);
    let q = set_former(vec![Branch::each(
        "r",
        rel("Infront"),
        some("t", union, tru()),
    )]);
    let expl = db.explain(&q).unwrap();
    let refusals = expl
        .events()
        .iter()
        .filter(|e| matches!(e, PlanEvent::NotUnnested { .. }))
        .count();
    assert_eq!(refusals, 1, "{}", expl.text());
    assert!(
        expl.text().contains("correlated range not unnested"),
        "{}",
        expl.text()
    );
}

/// `PreparedQuery::explain` renders a static per-branch plan preview for
/// a named application (no fixpoint run, planned against the pinned
/// snapshot's stats) and the executed trace for any other query.
#[test]
fn prepared_query_explain_covers_both_kinds() {
    // A fresh database caches no index, and neither does the server's
    // first snapshot: `Database::explain` renders the same preview.
    let fresh = graph_db().explain(&rel("Infront").construct("ahead", vec![]));
    let server = Server::new(graph_db());
    let session = server.begin();

    let solve = server
        .prepare_solve("Infront", "ahead", &[], vec![])
        .unwrap();
    let preview = solve.explain(&session).unwrap();
    assert!(preview.text().starts_with("EXPLAIN"), "{}", preview.text());
    assert!(
        !preview.text().contains("rows:"),
        "the static preview must not claim a result cardinality: {}",
        preview.text()
    );
    assert!(
        preview.access_paths().count() >= 1,
        "every non-empty constructor branch is planned: {}",
        preview.text()
    );
    assert_eq!(fresh.unwrap().text(), preview.text());

    let q = set_former(vec![Branch::each(
        "r",
        rel("Infront"),
        some(
            "t",
            rel("Infront"),
            eq(attr("t", "front"), attr("r", "back")),
        ),
    )]);
    let query = server.prepare(&q).unwrap();
    let executed = query.explain(&session).unwrap();
    assert!(
        executed.text().contains("rows:"),
        "a query that is not an application is evaluated: {}",
        executed.text()
    );
    // The session's explain agrees with the prepared handle's.
    assert_eq!(session.explain(&q).unwrap().text(), executed.text());
}

/// The static preview of the `ahead` solve and the live `EXPLAIN` of its
/// recursive branch report the same residual: the probe decides
/// `f.back = b.head`, so the leaf re-checks nothing.
#[test]
fn solve_preview_and_live_explain_agree_on_the_residual() {
    let residuals = |expl: &dc_calculus::Explanation| -> Vec<String> {
        expl.access_paths()
            .filter_map(|ev| match ev {
                PlanEvent::AccessPath { residual, .. } => Some(residual.clone()),
                _ => None,
            })
            .collect()
    };
    let db = graph_db();
    let live = db
        .explain(&set_former(vec![Branch::projecting(
            vec![attr("f", "front"), attr("b", "back")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            eq(attr("f", "back"), attr("b", "front")),
        )]))
        .unwrap();
    assert_eq!(residuals(&live), vec!["TRUE"], "{}", live.text());
    assert!(live.text().contains("residual TRUE;"), "{}", live.text());

    let server = Server::new(db);
    let preview = server
        .prepare_solve("Infront", "ahead", &[], vec![])
        .unwrap()
        .explain(&server.begin())
        .unwrap();
    // One path per constructor branch: `EACH r IN Rel: TRUE`, then the
    // recursive join.
    assert_eq!(
        residuals(&preview),
        vec!["TRUE", "TRUE"],
        "{}",
        preview.text()
    );
    assert!(preview.text().contains("probe"), "{}", preview.text());
}

/// `envcfg::warn_once` routes through the trace sink when a collector
/// is installed (stderr stays the fallback) and is folded into every
/// metrics snapshot.
#[test]
fn warn_once_lands_in_sink_and_snapshot() {
    let guard = Collector::install();
    dc_governor::envcfg::warn_once("DC_TRACE_SPANS_TEST", "synthetic misconfiguration");
    dc_governor::envcfg::warn_once("DC_TRACE_SPANS_TEST", "suppressed repeat");
    assert!(dc_governor::envcfg::has_warned("DC_TRACE_SPANS_TEST"));

    let warnings = guard.of_kind(SpanKind::Warning);
    assert_eq!(warnings.len(), 1, "warn-once delivers one event per key");
    assert_eq!(warnings[0].name, "synthetic misconfiguration");
    assert_eq!(
        str_field(&warnings[0], "key"),
        Some("DC_TRACE_SPANS_TEST"),
        "the event carries the env-variable key"
    );

    let db = Database::new();
    assert!(
        db.metrics().snapshot().warnings >= 1,
        "snapshots fold in the process-global warn count"
    );
}
