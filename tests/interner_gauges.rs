//! The string interner's growth is visible in the metrics registry.
//!
//! The interner is process-global, so this file holds a single test:
//! its own test binary, with no concurrent test interning strings
//! between the two snapshots it compares.

use dc_core::Database;
use dc_value::{tuple, Domain, Schema};

#[test]
fn a_never_seen_string_raises_interned_strings_by_one() {
    let mut db = Database::new();
    db.create_relation("Names", Schema::of(&[("name", Domain::Str)]))
        .unwrap();
    db.insert("Names", tuple!["interner-gauge-known"]).unwrap();
    let before = db.metrics().snapshot();
    assert!(before.interned_strings >= 1);
    assert!(before.interned_bytes >= "interner-gauge-known".len() as u64);

    let fresh = "interner-gauge-fresh";
    assert!(db.insert("Names", tuple![fresh]).unwrap());
    let after = db.metrics().snapshot();
    assert_eq!(after.interned_strings, before.interned_strings + 1);
    assert_eq!(
        after.interned_bytes,
        before.interned_bytes + fresh.len() as u64
    );

    // The same string again interns nothing: both gauges hold.
    assert!(!db.insert("Names", tuple![fresh]).unwrap());
    let again = db.metrics().snapshot();
    assert_eq!(
        (again.interned_strings, again.interned_bytes),
        (after.interned_strings, after.interned_bytes)
    );
}
