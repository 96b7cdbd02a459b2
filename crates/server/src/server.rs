//! The server: one swappable snapshot, many sessions, one writer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use dc_calculus::ast::Name;
use dc_calculus::{EvalError, RangeExpr};
use dc_core::fixpoint::{BaseDelta, Reach, Refusal, SolvedSystem, WarmOutcome};
use dc_core::{compile, Database, NamedApplication};
use dc_governor::fail::{self, Site};
use dc_governor::{Budget, CancelToken, SolveError};
use dc_relation::{algebra, Relation};
use dc_trace::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use dc_trace::SpanKind;
use dc_value::{FxHashMap, FxHashSet, Tuple, Value};

use crate::batch::{WriteBatch, WriteOp};
use crate::error::ServerError;
use crate::prepare::{Prepared, PreparedQuery};
use crate::session::Session;
use crate::snapshot::Snapshot;
use crate::subscribe::{Subscription, SubscriptionUpdate};

/// Writer-side bookkeeping, serialized under the writer mutex.
struct WriterState {
    /// Per relation: the epoch whose commit last modified it. The
    /// conflict rule compares these against a session's pinned epoch.
    last_modified: FxHashMap<Name, u64>,
}

/// One registered standing query: its compiled form, the delivery
/// channel, and the materialised state the next refresh maintains.
struct SubEntry {
    prepared: Arc<Prepared>,
    tx: mpsc::Sender<Result<SubscriptionUpdate, ServerError>>,
    /// The query's result at the last delivered epoch.
    result: Relation,
    /// The converged fixpoint system behind `result` (named
    /// applications only): per-equation values and the indexes over
    /// them the warm path re-enters semi-naive rounds from.
    system: Option<SolvedSystem>,
}

/// A concurrently served database: an atomically swappable
/// [`Snapshot`] behind a read–write lock, a single serialized writer,
/// and per-session governance.
///
/// # Concurrency contract
///
/// * **Readers**: [`Server::begin`] pins the current snapshot (one
///   brief read-lock acquisition, then an `Arc` bump). From then on the
///   session runs entirely against immutable state — no reader ever
///   waits on another reader or on the writer.
/// * **Writer**: commits are serialized by an internal mutex. A commit
///   applies its [`WriteBatch`] to a private overlay of COW relation
///   handles (copying only the relations it actually writes), builds
///   the successor snapshot — whose access cache keeps every entry
///   over a relation the batch did not change — and publishes it with
///   one pointer
///   swap. Publication is the *last* step: any failure before it
///   (constraint violation, injected fault, panic) leaves the snapshot
///   chain exactly as it was — there is no torn epoch.
/// * **Conflict rule**: [`Server::commit_or_conflict`] additionally
///   validates the committing session's read set — if any relation the
///   session read was modified by a commit after the session's pinned
///   epoch, the batch is rejected with [`ServerError::Conflict`].
///   Accepted transactions are serializable in commit order: each
///   batch applies to the latest state, and read-set validation makes
///   each accepted transaction's reads equivalent to reads at its
///   commit point.
pub struct Server {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<WriterState>,
    /// Live standing queries, refreshed on the writer thread after
    /// every publication. Lock order: writer mutex, then this.
    subs: Mutex<Vec<SubEntry>>,
    shutdown: CancelToken,
    session_budget: Budget,
    /// The serving layer's metrics registry: commit/conflict counters,
    /// refresh outcomes, warm-map hit rates, and latency histograms.
    /// Threaded through every snapshot's `FixpointConfig` so session
    /// evaluators and solver workers record here too.
    metrics: Arc<MetricsRegistry>,
}

impl Server {
    /// Take over a fully defined [`Database`] and publish it as epoch
    /// 0. Definitions (relations declared, selectors, constructors) are
    /// frozen from here on; data evolves through [`Server::commit`].
    pub fn new(db: Database) -> Server {
        let metrics = Arc::new(MetricsRegistry::new());
        let (mut defs, relations) = db.into_parts();
        // The server owns its registry: every session evaluator and
        // solver spawned off a snapshot records here, not into the
        // handed-over database's.
        defs.config.metrics = Some(metrics.clone());
        let snapshot = Snapshot::initial(Arc::new(defs), relations);
        Server {
            current: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(WriterState {
                last_modified: FxHashMap::default(),
            }),
            subs: Mutex::new(Vec::new()),
            shutdown: CancelToken::new(),
            session_budget: Budget::unlimited(),
            metrics,
        }
    }

    /// The server's metrics registry — commit and conflict counts,
    /// refresh outcomes (warm/cold/skipped), warm-map hit/miss rates,
    /// solver counters from every session, and the commit/refresh/query
    /// latency histograms. Snapshot with
    /// [`dc_trace::metrics::MetricsRegistry::snapshot`].
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.metrics.clone()
    }

    /// Set the server-level allowance every session's budget is drawn
    /// from: each [`Server::begin`] re-arms a fresh copy (so a deadline
    /// means *per session*, not since server start) and links it to the
    /// shutdown token.
    pub fn with_session_budget(mut self, budget: Budget) -> Server {
        self.session_budget = budget;
        self
    }

    /// Begin a read session pinned to the current snapshot.
    pub fn begin(&self) -> Session {
        self.metrics.inc(Counter::Sessions);
        self.session(self.current_snapshot())
    }

    /// A session on `snap` under the server's budget and shutdown token.
    fn session(&self, snap: Arc<Snapshot>) -> Session {
        Session::new(snap, &self.session_budget, &self.shutdown)
    }

    /// Compile a range expression into a reusable [`PreparedQuery`]:
    /// type-checked and rewritten once ([`dc_core::compile::rewrite`])
    /// against the frozen catalog definitions, with the read set
    /// standing queries filter commits by. Accepted by
    /// [`Session::query`] on any session (and any epoch — definitions
    /// never change under a running server) and by [`Server::subscribe`].
    pub fn prepare(&self, query: &RangeExpr) -> Result<PreparedQuery, ServerError> {
        let session = self.session(self.current_snapshot());
        let defs = session.snapshot().defs();
        let ast = compile::rewrite(defs, &session, query)?;
        let mut reach = Reach::new(defs);
        reach.add(&ast);
        let reads = reach.reads();
        let inner = Arc::new(Prepared { ast, reads });
        Ok(PreparedQuery { inner })
    }

    /// [`Server::prepare`] of the constructor application
    /// `base{constructor(args…; scalar_args…)}` over named catalog
    /// relations.
    pub fn prepare_solve(
        &self,
        base: &str,
        constructor: &str,
        args: &[&str],
        scalar_args: Vec<Value>,
    ) -> Result<PreparedQuery, ServerError> {
        let app = NamedApplication {
            base,
            constructor,
            args: args.to_vec(),
            scalar_args,
        };
        self.prepare(&app.expr())
    }

    /// Register `query` as a standing query.
    ///
    /// The returned [`Subscription`] first receives the query's current
    /// result (as the `added` side of an update stamped with the
    /// current epoch), then exactly one update per subsequent
    /// successful commit, in commit order with no epoch gaps — commits
    /// disjoint from the query's read set deliver an empty update in
    /// O(1). Updates for a named application are maintained
    /// incrementally from the previous materialised system — inserted
    /// tuples by a semi-naive warm start, deleted ones by
    /// delete-and-rederive — whenever the solver can prove that sound;
    /// everything else is refreshed by a cold re-solve and a two-way
    /// diff. A refresh failure never
    /// affects the commit that triggered it: the subscription receives
    /// one terminal `Err` and is unregistered.
    ///
    /// Dropping the subscription unregisters it at the next commit.
    pub fn subscribe(&self, query: &PreparedQuery) -> Result<Subscription, ServerError> {
        // Registration serialises with commits so the initial result
        // is exactly the current epoch's and no commit can slip into
        // the gap between evaluation and registration.
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if self.shutdown.is_cancelled() {
            return Err(ServerError::ShuttingDown);
        }
        let snap = self.current_snapshot();
        let prepared = query.inner.clone();
        let (result, system) = self.session(snap.clone()).run_tracked(&prepared.ast)?;
        let (tx, rx) = mpsc::channel();
        let initial = SubscriptionUpdate {
            epoch: snap.epoch(),
            added: result.clone(),
            removed: Relation::new(result.schema().clone()),
            warm: false,
        };
        // The receiver is in hand below; this send cannot fail.
        let _ = tx.send(Ok(initial));
        let live = {
            let mut subs = self.subs.lock().unwrap_or_else(PoisonError::into_inner);
            subs.push(SubEntry {
                prepared,
                tx,
                result,
                system,
            });
            subs.len() as u64
        };
        self.metrics.inc(Counter::SubscriptionUpdates);
        self.metrics.set_gauge(Gauge::LiveSubscriptions, live);
        Ok(Subscription { rx })
    }

    /// Live standing queries (diagnostics; dead subscriptions are
    /// pruned at the first commit after their receiver drops).
    pub fn subscription_count(&self) -> usize {
        self.subs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Hash indexes currently cached: the published snapshot's plus
    /// those of every standing query's maintained system (diagnostics —
    /// a long write stream must leave it flat).
    pub fn cached_index_count(&self) -> usize {
        let subs = self.subs.lock().unwrap_or_else(PoisonError::into_inner);
        self.current_snapshot().access().index_count()
            + subs
                .iter()
                .filter_map(|e| e.system.as_ref())
                .map(SolvedSystem::index_count)
                .sum::<usize>()
    }

    /// The currently published snapshot (what the *next* `begin` pins).
    pub fn current_snapshot(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The currently published epoch.
    pub fn current_epoch(&self) -> u64 {
        self.current_snapshot().epoch()
    }

    /// Apply `batch` atomically and publish the successor snapshot.
    /// Returns the new epoch.
    pub fn commit(&self, batch: &WriteBatch) -> Result<u64, ServerError> {
        self.commit_inner(batch, None)
    }

    /// Apply `batch` atomically *if* `session`'s read set is still
    /// current — i.e. no relation the session read has been modified by
    /// a commit after the session's pinned epoch. Returns the new epoch
    /// or [`ServerError::Conflict`] (the batch is then not applied; the
    /// caller re-begins and retries).
    pub fn commit_or_conflict(
        &self,
        session: &Session,
        batch: &WriteBatch,
    ) -> Result<u64, ServerError> {
        self.commit_inner(batch, Some(session))
    }

    fn commit_inner(
        &self,
        batch: &WriteBatch,
        session: Option<&Session>,
    ) -> Result<u64, ServerError> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        // The whole commit body runs behind a panic-isolation boundary
        // (mirroring the solver's): a panic anywhere inside — an armed
        // `panic` failpoint, a bug in a batch op — becomes a structured
        // `SolveError::WorkerPanic` for the writer, and because
        // publication is the body's final step, the reader-visible
        // snapshot chain is left untouched.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.apply_and_publish(&mut writer, batch, session)
        }));
        match result {
            Ok(r) => r,
            Err(payload) => Err(EvalError::Solve(SolveError::from_panic(&*payload)).into()),
        }
    }

    fn apply_and_publish(
        &self,
        writer: &mut WriterState,
        batch: &WriteBatch,
        session: Option<&Session>,
    ) -> Result<u64, ServerError> {
        if self.shutdown.is_cancelled() {
            return Err(ServerError::ShuttingDown);
        }
        let commit_t0 = Instant::now();
        let mut commit_span = dc_trace::span(SpanKind::ServerCommit);
        commit_span.field("ops", batch.ops().len());
        fail::check(Site::SessionCommit)?;
        let cur = self.current_snapshot();
        // Optimistic-concurrency validation: first-committer-wins on
        // the session's reads.
        if let Some(s) = session {
            for name in s.read_set() {
                if let Some(&committed) = writer.last_modified.get(&name) {
                    if committed > s.epoch() {
                        self.metrics.inc(Counter::Conflicts);
                        return Err(ServerError::Conflict {
                            relation: name,
                            read_epoch: s.epoch(),
                            committed_epoch: committed,
                        });
                    }
                }
            }
        }
        // The private overlay: handle bumps for every relation; COW
        // detaches exactly the ones the batch writes. Any failure here
        // drops the overlay — nothing reader-visible has happened yet.
        let mut rels: FxHashMap<Name, Relation> = cur.relations().clone();
        let mut touched: FxHashSet<Name> = FxHashSet::default();
        for (name, op) in batch.ops() {
            let r = rels.get_mut(name).ok_or_else(|| ServerError::Unknown {
                kind: "relation",
                name: name.clone(),
            })?;
            match op {
                WriteOp::Insert(t) => {
                    r.insert(t.clone())?;
                }
                WriteOp::Delete(t) => {
                    r.remove(t);
                }
                WriteOp::Replace(ts) => {
                    *r = Relation::from_tuples(r.schema().clone(), ts.iter().cloned())?;
                }
            }
            touched.insert(name.clone());
        }
        // Everything validated; build the successor and make it
        // visible. The failpoint sits right before the swap — the
        // narrowest window a crash could try to tear — so the fault
        // battery proves even a panic here leaves readers unharmed.
        let next = Arc::new(cur.next(rels, &touched));
        fail::check(Site::SnapshotPublish)?;
        let epoch = next.epoch();
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = next.clone();
        let published_at = Instant::now();
        for name in &touched {
            writer.last_modified.insert(name.clone(), epoch);
        }
        self.metrics.inc(Counter::Commits);
        self.metrics.set_gauge(Gauge::PublishedEpoch, epoch);
        dc_core::record_interned(&self.metrics);
        commit_span.field("epoch", epoch);
        // The commit is complete — the snapshot is published. Standing
        // queries refresh now, still on the writer thread (updates are
        // delivered in commit order, one per epoch, gap-free), but
        // nothing below can affect the commit's outcome: a refresh
        // failure terminates only the subscription it belongs to.
        // Refreshes run inside the commit span — one commit yields one
        // correlated tree: commit → refresh → solve → rounds → tasks.
        self.refresh_subscriptions(&cur, &next, batch, &touched, published_at);
        self.metrics.observe_us(
            Histogram::CommitLatencyUs,
            commit_t0.elapsed().as_micros() as u64,
        );
        Ok(epoch)
    }

    /// Deliver one [`SubscriptionUpdate`] per live standing query for
    /// the just-published snapshot `snap`, the successor of `prev`.
    /// Runs under the writer mutex.
    fn refresh_subscriptions(
        &self,
        prev: &Snapshot,
        snap: &Arc<Snapshot>,
        batch: &WriteBatch,
        touched: &FxHashSet<Name>,
        published_at: Instant,
    ) {
        let mut subs = self.subs.lock().unwrap_or_else(PoisonError::into_inner);
        if subs.is_empty() {
            return;
        }
        let epoch = snap.epoch();
        subs.retain_mut(|entry| {
            let mut span = dc_trace::span(SpanKind::SubscriptionRefresh);
            let delivered = |m: &MetricsRegistry| {
                m.inc(Counter::SubscriptionUpdates);
                m.observe_us(
                    Histogram::RefreshLagUs,
                    published_at.elapsed().as_micros() as u64,
                );
            };
            // O(1) filter: the commit touched nothing the query reads,
            // so the result is unchanged. The empty update keeps the
            // subscriber's epoch sequence gap-free.
            let reads = entry.prepared.reads.as_ref();
            if reads.is_some_and(|reads| touched.iter().all(|t| !reads.contains(t))) {
                let update = SubscriptionUpdate {
                    epoch,
                    added: Relation::new(entry.result.schema().clone()),
                    removed: Relation::new(entry.result.schema().clone()),
                    warm: true,
                };
                self.metrics.inc(Counter::RefreshSkipped);
                delivered(&self.metrics);
                span.field("outcome", "skipped");
                return entry.tx.send(Ok(update)).is_ok();
            }
            match self.refresh_entry(entry, prev, snap, batch, epoch) {
                Ok((update, refusal)) => {
                    self.metrics.inc(if update.warm {
                        Counter::RefreshWarm
                    } else {
                        Counter::RefreshCold
                    });
                    delivered(&self.metrics);
                    if span.recording() {
                        span.field("outcome", if update.warm { "warm" } else { "cold" });
                        span.field("added", update.added.len());
                        span.field("removed", update.removed.len());
                        if let Some(refusal) = &refusal {
                            span.field("refusal", refusal.label());
                        }
                    }
                    entry.tx.send(Ok(update)).is_ok()
                }
                // Terminal: deliver the failure and unregister. The
                // commit itself already succeeded.
                Err(e) => {
                    span.field("outcome", "error");
                    let _ = entry.tx.send(Err(e));
                    false
                }
            }
        });
        self.metrics
            .set_gauge(Gauge::LiveSubscriptions, subs.len() as u64);
    }

    /// Refresh one standing query against the new snapshot: warm
    /// (incremental) when provably sound, else a cold re-solve plus a
    /// two-way diff against the previous result. A cold refresh comes
    /// with the solver's refusal, when that is why it went cold.
    fn refresh_entry(
        &self,
        entry: &mut SubEntry,
        prev: &Snapshot,
        snap: &Arc<Snapshot>,
        batch: &WriteBatch,
        epoch: u64,
    ) -> Result<(SubscriptionUpdate, Option<Refusal>), ServerError> {
        let refusal = match self.try_warm(entry, prev, snap, batch, epoch) {
            Ok(update) => return Ok((update, None)),
            Err(refusal) => refusal,
        };
        // Cold fallback: from-scratch evaluation on the published
        // snapshot. Panic-isolated — a panicking refresh (a solve, or
        // any other query's evaluation) must not unwind into the commit
        // path.
        let session = self.session(snap.clone());
        let cold = catch_unwind(AssertUnwindSafe(|| {
            session.run_tracked(&entry.prepared.ast)
        }));
        let (value, system) = cold.unwrap_or_else(|payload| {
            Err(EvalError::Solve(SolveError::from_panic(&*payload)).into())
        })?;
        let (added, removed) = algebra::delta(&value, &entry.result)?;
        entry.result = value;
        entry.system = system;
        let update = SubscriptionUpdate {
            epoch,
            added,
            removed,
            warm: false,
        };
        Ok((update, refusal))
    }

    /// Attempt warm (incremental) maintenance: the batch's net change
    /// to every relation it touched, from `prev` to `snap`, handed to
    /// the solver's warm re-entry — the only soundness gate. `Err`
    /// means "fall back to the cold path", with the solver's refusal
    /// when it refused; `None` when the query is not a named
    /// application, or the warm solve failed or an injected
    /// `view_refresh` fault fired.
    fn try_warm(
        &self,
        entry: &mut SubEntry,
        prev: &Snapshot,
        snap: &Arc<Snapshot>,
        batch: &WriteBatch,
        epoch: u64,
    ) -> Result<SubscriptionUpdate, Option<Refusal>> {
        let app = NamedApplication::of(&entry.prepared.ast).ok_or(None)?;
        // The warm solve takes the system over (its values and indexes
        // are maintained in place); whatever becomes of the attempt, the
        // entry gets a system back — the warm one, or the cold path's.
        let prev_system = entry.system.take().ok_or(None)?;
        let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<WarmOutcome, ServerError> {
            // The warm-only failpoint: an injected fault or panic here
            // must leave the already-published commit untouched and
            // push this refresh onto the cold path.
            fail::check(Site::ViewRefresh)?;
            // Per touched relation, the tuples its ops name — or `None`
            // once a replace made the whole relation the candidate set.
            let mut named: Vec<(&Name, Option<Vec<&Tuple>>)> = Vec::new();
            for (n, op) in batch.ops() {
                let at = match named.iter().position(|(m, _)| *m == n) {
                    Some(at) => at,
                    None => {
                        named.push((n, Some(Vec::new())));
                        named.len() - 1
                    }
                };
                match (op, &mut named[at].1) {
                    (WriteOp::Replace(_), slot) => *slot = None,
                    (WriteOp::Insert(t) | WriteOp::Delete(t), Some(ts)) => ts.push(t),
                    (_, None) => {}
                }
            }
            // Net base deltas: a candidate counts where the two epochs
            // disagree on it, so an insert undone by a later delete of
            // the same batch (or the reverse) is no change at all.
            let mut deltas = Vec::with_capacity(named.len());
            for (n, candidates) in named {
                let (Some(old), Some(new)) = (prev.relation(n), snap.relation(n)) else {
                    return Ok(WarmOutcome::Refused {
                        reason: Refusal::MissingRelation {
                            relation: n.clone(),
                        },
                    });
                };
                let (inserted, deleted) = match candidates {
                    None => algebra::delta(new, old)?,
                    Some(ts) => {
                        let mut inserted = Relation::new(new.schema().clone());
                        let mut deleted = Relation::new(old.schema().clone());
                        for t in ts {
                            match (old.contains(t), new.contains(t)) {
                                (false, true) => inserted.insert_unchecked(t.clone())?,
                                (true, false) => deleted.insert_unchecked(t.clone())?,
                                _ => false,
                            };
                        }
                        (inserted, deleted)
                    }
                };
                // Kept when the ops cancel out too: the relation is new
                // storage all the same, which the solver matches by
                // identity.
                let (before, after) = (old.storage_id(), new.storage_id());
                deltas.push((
                    n.clone(),
                    BaseDelta {
                        before,
                        after,
                        inserted,
                        deleted,
                    },
                ));
            }
            self.session(snap.clone())
                .solve_warm(&app, prev_system, &deltas)
        }));
        match attempt {
            Ok(Ok(WarmOutcome::Solved {
                value,
                added,
                removed,
                system,
            })) => {
                entry.result = value;
                entry.system = Some(system);
                Ok(SubscriptionUpdate {
                    epoch,
                    added,
                    removed,
                    warm: true,
                })
            }
            Ok(Ok(WarmOutcome::Refused { reason })) => Err(Some(reason)),
            // An error or a panic: cold fallback.
            _ => Err(None),
        }
    }

    /// Request shutdown: every in-flight session's budget trips with
    /// `Cancelled` at its next tick (their tokens are children of the
    /// shutdown token), and new commits are rejected with
    /// [`ServerError::ShuttingDown`]. Sessions already begun may still
    /// *read* pinned data — snapshots are immutable and stay alive as
    /// long as someone pins them. Standing queries are closed: every
    /// subscriber's channel disconnects (no terminal error — the
    /// stream simply ends).
    pub fn shutdown(&self) {
        self.shutdown.cancel();
        self.subs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.metrics.set_gauge(Gauge::LiveSubscriptions, 0);
    }

    /// Has shutdown been requested?
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.is_cancelled()
    }

    /// Successful commits so far.
    pub fn commit_count(&self) -> u64 {
        self.metrics.get(Counter::Commits)
    }

    /// Commits rejected by the conflict rule so far.
    pub fn conflict_count(&self) -> u64 {
        self.metrics.get(Counter::Conflicts)
    }
}
