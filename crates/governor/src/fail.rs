//! The env-gated fault-injection registry.
//!
//! Failure paths that only fire under races, panics, or exhausted
//! resources are exactly the paths that rot untested. This module
//! plants deterministic failpoints at the execution stack's abort
//! sites; each is a named [`Site`] the surrounding code consults via
//! [`check`], and each can be armed with a [`FailAction`]:
//!
//! * `error` — `check` returns an [`InjectedFault`], exercising the
//!   site's ordinary error channel (clean abort, atomic rollback).
//! * `panic` — `check` panics, exercising the panic-isolation
//!   boundaries (`catch_unwind` per pool task, the solve boundary).
//!
//! Arming happens two ways: the `DC_FAILPOINTS` environment variable
//! (`site=action` pairs, comma-separated — e.g.
//! `DC_FAILPOINTS=worker_start=panic,delta_commit=error`), parsed once
//! strictly (invalid specs warn to stderr and arm nothing); or the
//! test-only [`FailpointsGuard`], which also serialises failpoint tests
//! against each other since the registry is process-global.
//!
//! When nothing is armed, a `check` costs one `Once` fast-path load and
//! one relaxed atomic load — cheap enough to leave in release builds,
//! which is the point: CI runs the *production* binary under fault
//! injection.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};

/// The instrumented sites, in the order a solve meets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A task starting on a pool worker (`worker_start`) — checked in
    /// exactly one place, the worker mode of the fixpoint solver's round
    /// dispatch (`dc-core`). Inline (single-worker) runs never consult
    /// it.
    WorkerStart = 0,
    /// A semi-naive/naive round about to commit its deltas
    /// (`delta_commit`).
    DeltaCommit = 1,
    /// A hash index about to be built for a probe (`index_build`):
    /// the access cache's build on a miss, or the evaluator's
    /// throwaway build over a binding-dependent range. Cache hits
    /// never consult it.
    IndexBuild = 2,
    /// The serving layer about to swap in a freshly built snapshot
    /// (`snapshot_publish`). Fires after the overlay is applied but
    /// before the epoch becomes visible, so an injected fault must
    /// leave readers on the old epoch with the chain unbroken.
    SnapshotPublish = 3,
    /// Entry of the serving layer's commit path (`session_commit`).
    /// Fires before any batch op is applied.
    SessionCommit = 4,
    /// A standing-query refresh about to run its warm (incremental)
    /// maintenance (`view_refresh`). Fires after the commit's snapshot
    /// is published, so an injected fault must leave the commit
    /// successful and force the subscription onto its cold re-solve
    /// path without corrupting subscriber state.
    ViewRefresh = 5,
}

/// Number of sites (the registry is a fixed-size table).
const SITE_COUNT: usize = 6;

/// All sites, for iteration in tests and parsers.
pub const SITES: [Site; SITE_COUNT] = [
    Site::WorkerStart,
    Site::DeltaCommit,
    Site::IndexBuild,
    Site::SnapshotPublish,
    Site::SessionCommit,
    Site::ViewRefresh,
];

impl Site {
    /// The spec name used in `DC_FAILPOINTS`.
    pub fn name(self) -> &'static str {
        match self {
            Site::WorkerStart => "worker_start",
            Site::DeltaCommit => "delta_commit",
            Site::IndexBuild => "index_build",
            Site::SnapshotPublish => "snapshot_publish",
            Site::SessionCommit => "session_commit",
            Site::ViewRefresh => "view_refresh",
        }
    }

    fn from_name(s: &str) -> Option<Site> {
        SITES.iter().copied().find(|site| site.name() == s)
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an armed failpoint does when its site is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic — exercises the panic-isolation boundaries.
    Panic,
    /// Return an [`InjectedFault`] — exercises the ordinary error
    /// channel.
    Error,
}

impl FailAction {
    fn from_name(s: &str) -> Option<FailAction> {
        match s {
            "panic" => Some(FailAction::Panic),
            "error" => Some(FailAction::Error),
            _ => None,
        }
    }
}

/// The error an `error`-armed failpoint injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: &'static str,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at failpoint `{}`", self.site)
    }
}

impl std::error::Error for InjectedFault {}

static ENV_INIT: Once = Once::new();
/// Fast path: is *any* failpoint armed? Kept in sync with the table.
static ARMED: AtomicBool = AtomicBool::new(false);
static TABLE: Mutex<[Option<FailAction>; SITE_COUNT]> = Mutex::new([None; SITE_COUNT]);
/// Failpoint tests serialise on this (the registry is process-global).
static SERIAL: Mutex<()> = Mutex::new(());

fn lock_table() -> MutexGuard<'static, [Option<FailAction>; SITE_COUNT]> {
    // A panic-action failpoint can unwind while a *caller* holds other
    // locks, but never while this one is held; tolerate poisoning
    // anyway so one failed test cannot wedge the rest of the binary.
    TABLE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn recompute_armed(table: &[Option<FailAction>; SITE_COUNT]) {
    ARMED.store(table.iter().any(Option::is_some), Ordering::Relaxed);
}

fn init_from_env() {
    let Ok(spec) = std::env::var("DC_FAILPOINTS") else {
        return;
    };
    match parse_failpoints(&spec) {
        Ok(points) => {
            let mut table = lock_table();
            for (site, action) in points {
                table[site as usize] = Some(action);
            }
            recompute_armed(&table);
        }
        Err(reason) => crate::envcfg::warn_once(
            "DC_FAILPOINTS",
            &format!("ignoring DC_FAILPOINTS={spec:?}: {reason}; no failpoints armed"),
        ),
    }
}

/// Parse a `DC_FAILPOINTS` spec: comma-separated `site=action` pairs.
/// Strict — unknown sites, unknown actions, or malformed pairs are
/// errors, never silently dropped. The empty spec arms nothing.
pub fn parse_failpoints(spec: &str) -> Result<Vec<(Site, FailAction)>, String> {
    let mut out = Vec::new();
    for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (site, action) = item
            .split_once('=')
            .ok_or_else(|| format!("`{item}` is not of the form site=action"))?;
        let site = Site::from_name(site.trim()).ok_or_else(|| {
            let known: Vec<&str> = SITES.iter().map(|s| s.name()).collect();
            format!(
                "unknown site `{}` (known: {})",
                site.trim(),
                known.join(", ")
            )
        })?;
        let action = FailAction::from_name(action.trim())
            .ok_or_else(|| format!("unknown action `{}` (known: panic, error)", action.trim()))?;
        out.push((site, action));
    }
    Ok(out)
}

/// Consult the registry at `site`. Disarmed (the overwhelmingly common
/// case): two atomic loads, no lock. Armed with `error`: returns the
/// injected fault. Armed with `panic`: panics, to be caught at the
/// nearest isolation boundary.
pub fn check(site: Site) -> Result<(), InjectedFault> {
    ENV_INIT.call_once(init_from_env);
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    match lock_table()[site as usize] {
        None => Ok(()),
        Some(FailAction::Error) => Err(InjectedFault { site: site.name() }),
        Some(FailAction::Panic) => {
            panic!("failpoint `{}` tripped (panic action)", site.name())
        }
    }
}

/// Test-only arming: replaces the whole table with `spec` for the
/// guard's lifetime and restores the previous arming on drop. Holding
/// the guard also holds the global failpoint-test lock, so concurrent
/// `#[test]`s cannot observe each other's failpoints. Panics on an
/// invalid spec (it is a test API; a typo should fail loudly).
pub struct FailpointsGuard {
    prev: [Option<FailAction>; SITE_COUNT],
    _serial: MutexGuard<'static, ()>,
}

impl FailpointsGuard {
    /// Arm exactly the failpoints in `spec` (e.g. `"delta_commit=error"`;
    /// `""` arms nothing — useful to *suppress* env-armed failpoints
    /// for a test's setup phase).
    pub fn arm(spec: &str) -> FailpointsGuard {
        let points = match parse_failpoints(spec) {
            Ok(p) => p,
            Err(reason) => panic!("invalid failpoint spec {spec:?}: {reason}"),
        };
        // A previous test may have panicked (that is the point of the
        // panic action) while holding the serial lock.
        let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        ENV_INIT.call_once(init_from_env);
        let mut table = lock_table();
        let prev = *table;
        *table = [None; SITE_COUNT];
        for (site, action) in points {
            table[site as usize] = Some(action);
        }
        recompute_armed(&table);
        drop(table);
        FailpointsGuard {
            prev,
            _serial: serial,
        }
    }
}

impl Drop for FailpointsGuard {
    fn drop(&mut self) {
        let mut table = lock_table();
        *table = self.prev;
        recompute_armed(&table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_checks_pass() {
        let _g = FailpointsGuard::arm("");
        for site in SITES {
            assert_eq!(check(site), Ok(()));
        }
    }

    #[test]
    fn error_action_injects_only_at_its_site() {
        let _g = FailpointsGuard::arm("delta_commit=error");
        assert_eq!(check(Site::WorkerStart), Ok(()));
        assert_eq!(
            check(Site::DeltaCommit),
            Err(InjectedFault {
                site: "delta_commit"
            })
        );
    }

    #[test]
    fn panic_action_panics() {
        let _g = FailpointsGuard::arm("index_build=panic");
        let r = std::panic::catch_unwind(|| check(Site::IndexBuild));
        assert!(r.is_err());
    }

    #[test]
    fn guard_restores_previous_arming() {
        {
            let _g = FailpointsGuard::arm("worker_start=error");
            assert!(check(Site::WorkerStart).is_err());
        }
        // The guard restored whatever arming preceded it; re-arm
        // nothing and observe a clean table.
        let _g = FailpointsGuard::arm("");
        assert_eq!(check(Site::WorkerStart), Ok(()));
    }

    #[test]
    fn parser_is_strict() {
        assert!(parse_failpoints("").unwrap().is_empty());
        assert_eq!(
            parse_failpoints(" worker_start=panic , index_build=error ").unwrap(),
            vec![
                (Site::WorkerStart, FailAction::Panic),
                (Site::IndexBuild, FailAction::Error)
            ]
        );
        assert_eq!(
            parse_failpoints("snapshot_publish=panic,session_commit=error").unwrap(),
            vec![
                (Site::SnapshotPublish, FailAction::Panic),
                (Site::SessionCommit, FailAction::Error)
            ]
        );
        assert!(parse_failpoints("worker_start").is_err());
        assert!(parse_failpoints("nope=panic").is_err());
        assert!(parse_failpoints("delta_commit=explode").is_err());
        assert!(parse_failpoints("worker_start=panic,bogus").is_err());
    }
}
