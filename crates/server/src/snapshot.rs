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

use std::sync::{Arc, PoisonError, RwLock};

use dc_calculus::ast::Name;
use dc_calculus::typeck::ConstructorSig;
use dc_calculus::AccessCache;
use dc_core::database::DatabaseParts;
use dc_core::fixpoint::{AppKey, FixpointConfig};
use dc_core::{Constructor, Selector};
use dc_relation::Relation;
use dc_value::{FxHashMap, FxHashSet};

/// The immutable definition part of the catalog: selectors,
/// constructors, signatures, and the fixpoint configuration. DDL is
/// frozen when the server takes over the database, so one `Arc<Defs>`
/// is shared by every snapshot of the server's lifetime.
pub(crate) struct Defs {
    pub(crate) selectors: FxHashMap<Name, Selector>,
    pub(crate) constructors: FxHashMap<Name, Constructor>,
    pub(crate) signatures: FxHashMap<Name, ConstructorSig>,
    pub(crate) unchecked: FxHashSet<Name>,
    pub(crate) config: FixpointConfig,
}

/// The cross-session memo of solved constructor applications. Its
/// keys are content-addressed ([`AppKey`]: relation digests plus scalar
/// arguments), so it is handed from each snapshot to its successor
/// whole. The lock is held only for the map probe/insert and tolerates
/// poisoning: a panicking session (fault injection is part of the test
/// battery) must not wedge its siblings.
#[derive(Default)]
pub(crate) struct Warm {
    solved: RwLock<FxHashMap<AppKey, Relation>>,
}

impl Warm {
    pub(crate) fn solved(&self, key: &AppKey) -> Option<Relation> {
        self.solved
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
    }

    pub(crate) fn donate_solved(&self, key: AppKey, value: Relation) {
        self.solved
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(value);
    }
}

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
    defs: Arc<Defs>,
    /// Indexes, statistics, and decorrelated ranges over this
    /// snapshot's relations, shared by every session pinning it: what
    /// one session builds, its siblings hit.
    access: AccessCache,
    warm: Warm,
}

impl Snapshot {
    /// Epoch 0: the server's takeover of a fully defined database.
    pub(crate) fn initial(parts: DatabaseParts) -> Snapshot {
        let defs = Arc::new(Defs {
            selectors: parts.selectors,
            constructors: parts.constructors,
            signatures: parts.signatures,
            unchecked: parts.unchecked,
            config: parts.config,
        });
        let access = AccessCache::new(defs.config.metrics.clone());
        Snapshot::build(0, parts.relations, defs, access, Warm::default())
    }

    /// The successor snapshot after a commit: `relations` is the
    /// writer's private overlay, `touched` the relations the batch
    /// wrote. The successor's access cache is this one's minus what was
    /// cached about the old values of relations the batch changed —
    /// every entry over an unchanged relation is still keyed by the
    /// storage the successor reads, so it carries; nothing else needs
    /// proving. The solved memo is handed off whole.
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
        let warm = Warm {
            solved: RwLock::new(
                self.warm
                    .solved
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
        };
        Snapshot::build(self.epoch + 1, relations, self.defs.clone(), access, warm)
    }

    fn build(
        epoch: u64,
        relations: FxHashMap<Name, Relation>,
        defs: Arc<Defs>,
        access: AccessCache,
        warm: Warm,
    ) -> Snapshot {
        // Publication forces each relation's digest memo exactly once
        // (O(1) for relations the batch didn't touch — their storage,
        // and with it the populated memo cell, is shared with the
        // previous snapshot), then folds the per-relation digests into
        // an order-independent catalog digest.
        let relations: FxHashMap<Name, Relation> = relations
            .into_iter()
            .map(|(name, r)| {
                let handle = r.snapshot_handle();
                (name, handle)
            })
            .collect();
        let mut catalog_digest = 0u128;
        for (name, r) in &relations {
            catalog_digest = catalog_digest.wrapping_add(combine(name, r.digest()));
        }
        Snapshot {
            epoch,
            relations,
            catalog_digest,
            defs,
            access,
            warm,
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

    pub(crate) fn defs(&self) -> &Arc<Defs> {
        &self.defs
    }

    pub(crate) fn access(&self) -> &AccessCache {
        &self.access
    }

    pub(crate) fn warm(&self) -> &Warm {
        &self.warm
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
