//! Immutable, epoch-stamped snapshots of the catalog.
//!
//! A [`Snapshot`] is the unit of publication: the writer builds one on
//! a private overlay and swaps it in atomically; every
//! [`Session`](crate::Session) pins exactly one and never observes
//! anything else. Construction is O(relation handles): each relation
//! enters the snapshot through
//! [`Relation::snapshot_handle`], a pointer bump that *keeps* the
//! memoised content digest, so sessions read digests — and build
//! content-addressed solve keys — at O(1).

use std::sync::Arc;

use dc_calculus::ast::Name;
use dc_calculus::AccessCache;
use dc_core::{Defs, SolvedMemo};
use dc_relation::Relation;
use dc_value::{FxHashMap, FxHashSet};

/// One published, immutable state of the catalog.
///
/// Everything a session evaluates against hangs off its pinned
/// snapshot: the relation handles (COW — shared with every other
/// snapshot that didn't touch them), the frozen definitions, the access
/// cache over the relations, and the solved memo. Snapshots are
/// `Send + Sync` and live as long as the last session pinning them.
pub struct Snapshot {
    epoch: u64,
    relations: FxHashMap<Name, Relation>,
    catalog_digest: u128,
    /// Frozen when the server took the database over: one `Arc` is
    /// shared by every snapshot of the server's lifetime.
    defs: Arc<Defs>,
    /// Indexes over this snapshot's relations, shared by every session pinning it: what
    /// one session builds, its siblings hit.
    access: AccessCache,
    /// Applications solved against this snapshot, shared by every
    /// session pinning it and by the subscription refreshes of its
    /// commit. A successor starts empty: a body may read relations its
    /// application's key does not cover.
    solved: SolvedMemo,
}

impl Snapshot {
    /// Epoch 0: the server's takeover of a fully defined database.
    pub(crate) fn initial(defs: Arc<Defs>, relations: FxHashMap<Name, Relation>) -> Snapshot {
        let access = AccessCache::new(defs.config.metrics.clone());
        Snapshot::build(0, relations, defs, access)
    }

    /// The successor snapshot after a commit: `relations` is the
    /// writer's private overlay, `touched` the relations the batch
    /// wrote. The successor's access cache is this one's minus what was
    /// cached about the old values of relations the batch changed —
    /// every entry over an unchanged relation is still keyed by the
    /// storage the successor reads, so it carries; nothing else needs
    /// proving. Its solved memo starts empty.
    pub(crate) fn next(
        &self,
        relations: FxHashMap<Name, Relation>,
        touched: &FxHashSet<Name>,
    ) -> Snapshot {
        let access = self.access.clone();
        for name in touched {
            if let (Some(old), Some(new)) = (self.relations.get(name), relations.get(name)) {
                if old.storage_id() != new.storage_id() {
                    access.forget(old.storage_id());
                }
            }
        }
        Snapshot::build(self.epoch + 1, relations, self.defs.clone(), access)
    }

    fn build(
        epoch: u64,
        relations: FxHashMap<Name, Relation>,
        defs: Arc<Defs>,
        access: AccessCache,
    ) -> Snapshot {
        // Publication forces each relation's digest memo exactly once
        // (O(1) for relations the batch didn't touch — their storage,
        // and with it the populated memo cell, is shared with the
        // previous snapshot), then folds the per-relation digests into
        // an order-independent catalog digest.
        let relations: FxHashMap<Name, Relation> = relations
            .into_iter()
            .map(|(name, r)| (name, r.snapshot_handle()))
            .collect();
        let catalog_digest = relations.iter().fold(0u128, |sum, (name, r)| {
            sum.wrapping_add(combine(name, r.digest()))
        });
        Snapshot {
            epoch,
            relations,
            catalog_digest,
            defs,
            access,
            solved: SolvedMemo::default(),
        }
    }

    /// The snapshot's epoch: 0 for the initial publication, +1 per
    /// commit.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// An order-independent 128-bit digest over every relation's
    /// (name, content digest) pair: the whole-catalog identity the
    /// serializability oracle compares.
    pub fn catalog_digest(&self) -> u128 {
        self.catalog_digest
    }

    /// Borrow a relation pinned in this snapshot.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Names of all relations, sorted (deterministic listing).
    pub fn relation_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.relations.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    pub(crate) fn relations(&self) -> &FxHashMap<Name, Relation> {
        &self.relations
    }

    pub(crate) fn defs(&self) -> &Defs {
        &self.defs
    }

    pub(crate) fn access(&self) -> &AccessCache {
        &self.access
    }

    pub(crate) fn solved(&self) -> &SolvedMemo {
        &self.solved
    }
}

/// Mix one relation's (name, digest) pair into a commutative-sum term.
/// Each half of the 128-bit digest is passed through a splitmix64-style
/// finalizer seeded with the name hash, so permuting digests *between*
/// names cannot cancel in the sum.
fn combine(name: &str, digest: u128) -> u128 {
    let mut nh = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        nh ^= u64::from(*b);
        nh = nh.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let lo = mix64((digest as u64) ^ nh);
    let hi = mix64(((digest >> 64) as u64) ^ nh.rotate_left(32));
    ((hi as u128) << 64) | lo as u128
}

/// The splitmix64 finalizer (bijective, non-linear).
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}
