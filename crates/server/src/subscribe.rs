//! Standing queries: epoch-ordered output deltas over the commit
//! stream.
//!
//! [`Server::subscribe`](crate::Server::subscribe) registers a
//! [`PreparedQuery`](crate::PreparedQuery) as a standing query. The
//! subscriber receives one [`SubscriptionUpdate`] per published epoch —
//! first an initial snapshot of the result (delivered as `added`), then
//! one update per successful commit, in commit order with no gaps:
//! update `n` always carries `initial_epoch + n`. Each update is the
//! exact two-way output delta (`added`, `removed`) between the query's
//! result at the previous and the new epoch — the cumulative
//! application of all deltas to the initial result reproduces a
//! from-scratch evaluation at every epoch.
//!
//! Maintenance runs on the writer thread, after publication: a commit
//! touching nothing in the query's read set costs O(1) (an empty update
//! keeps the epoch sequence gap-free); a named application
//! ([`dc_core::NamedApplication`]) re-enters the semi-naive fixpoint
//! warm from the previous materialised system — inserted tuples seed
//! semi-naive rounds, deleted ones run delete-and-rederive, and
//! `removed` is then exactly the tuples that lost their last
//! derivation. Any other query, whatever the solver refuses (a system
//! it runs naive, a touched relation in a non-monotone position, …) and
//! a failed or faulted warm attempt are re-evaluated cold and diffed
//! two ways. A maintenance failure never affects the commit itself (the
//! snapshot is already published); it terminates only the
//! subscription, with a final `Err` update.

use std::sync::mpsc;

use dc_relation::Relation;

use crate::error::ServerError;

/// One epoch's output delta for a standing query.
#[derive(Debug)]
pub struct SubscriptionUpdate {
    /// The epoch this update brings the subscriber to.
    pub epoch: u64,
    /// Tuples that entered the result at this epoch. The initial update
    /// carries the whole result here.
    pub added: Relation,
    /// Tuples that left the result at this epoch.
    pub removed: Relation,
    /// True when the update was produced without a from-scratch
    /// re-evaluation: either the commit was disjoint from the query's
    /// read set (empty delta, O(1)) or the warm path maintained the
    /// previous materialised system incrementally, deletions included.
    pub warm: bool,
}

/// The receiving half of a standing query.
///
/// Dropping the subscription unregisters it at the next commit (the
/// server notices the closed channel and removes the entry).
pub struct Subscription {
    pub(crate) rx: mpsc::Receiver<Result<SubscriptionUpdate, ServerError>>,
}

impl Subscription {
    /// Block for the next update. `None` once the subscription is
    /// closed: after a terminal `Err` update, or at server drop. A
    /// `Some(Err(_))` is always terminal — the next call returns
    /// `None`.
    pub fn recv(&self) -> Option<Result<SubscriptionUpdate, ServerError>> {
        self.rx.recv().ok()
    }

    /// Non-blocking variant of [`Subscription::recv`]: `None` when no
    /// update is currently queued (or the subscription is closed).
    pub fn try_recv(&self) -> Option<Result<SubscriptionUpdate, ServerError>> {
        self.rx.try_recv().ok()
    }
}
