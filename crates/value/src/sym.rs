//! Interned strings.
//!
//! The paper's relations range over scalar domains such as
//! `parttype = STRING` (§2.1), and every join, quantifier and set
//! operation compares those values with `=` only. A [`Sym`] is a dense
//! `u32` id into one process-global, append-only interner, so a string
//! field hashes and compares as one word and a [`Value`](crate::Value)
//! holding it is `Copy`.
//!
//! * **Id equality is string equality.** One mutex-guarded map assigns
//!   ids, so two threads interning the same string get the same `Sym`.
//! * **Order is the strings' order**, never the ids' — interning order
//!   is not lexical order. Equal ids short-circuit to `Equal`.
//! * **Reads take no lock.** [`Sym::as_str`] — the path of `Ord`,
//!   `Display` and string `<` predicates, run by concurrent reader
//!   sessions — reads a segmented table whose segments double
//!   in size and are each published once: two loads. Only interning a
//!   *new* string takes the map's mutex.
//! * **Memory is bounded by the distinct strings the process has ever
//!   seen**: an interned string lives for the process.
//!   [`Sym::interned`] reports that bound; `Database` and `Server`
//!   publish it as the `interned_strings` / `interned_bytes` gauges.
//!
//! Because ids depend on interning order, anything that hashes values
//! (`Relation::digest`, hash-table iteration order) is a content
//! identity *within one process* only.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::fxhash::FxHashMap;

/// An interned string: a copyable id whose equality and hash are the
/// id's, and whose order is the string's.
///
/// The field is private, so every `Sym` came from the interner and
/// [`Sym::as_str`] always finds its string.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// `log2` of the first segment's length.
const FIRST_BITS: u32 = 6;

/// Segment `k` holds ids `2^(FIRST_BITS+k) - 2^FIRST_BITS ..` and has
/// `2^(FIRST_BITS+k)` entries; this many segments cover every `u32`.
const SEGMENTS: usize = (u32::BITS + 1 - FIRST_BITS) as usize;

type Segment = Box<[OnceLock<&'static str>]>;

/// The read side: id → string, append-only, lock-free to read.
static TABLE: [OnceLock<Segment>; SEGMENTS] = [const { OnceLock::new() }; SEGMENTS];

/// The write side: string → id. Held only to intern a string.
static IDS: Mutex<FxHashMap<&'static str, Sym>> =
    Mutex::new(HashMap::with_hasher(BuildHasherDefault::new()));

/// Distinct strings interned, and their total length in bytes.
static STRINGS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// `(segment, offset)` of an id.
#[inline]
fn locate(id: u32) -> (usize, usize) {
    let j = u64::from(id) + (1 << FIRST_BITS);
    let k = 63 - j.leading_zeros() - FIRST_BITS;
    (k as usize, (j - (1 << (FIRST_BITS + k))) as usize)
}

impl Sym {
    /// The id of `s`, interning it on first sight.
    pub fn intern(s: &str) -> Sym {
        // A poisoned map is still consistent: the only panic below comes
        // before any update, and an entry is published before the map
        // learns its id, so the two never disagree.
        let mut ids = IDS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&sym) = ids.get(s) {
            return sym;
        }
        let id = u32::try_from(ids.len())
            .unwrap_or_else(|_| panic!("more than 2^32 distinct strings interned"));
        let s: &'static str = Box::leak(Box::from(s));
        let (k, offset) = locate(id);
        let segment = TABLE[k].get_or_init(|| {
            let len = 1usize << (FIRST_BITS as usize + k);
            (0..len).map(|_| OnceLock::new()).collect()
        });
        // Publish the string before the id escapes the lock.
        let _ = segment[offset].set(s);
        ids.insert(s, Sym(id));
        STRINGS.fetch_add(1, AtomicOrdering::Relaxed);
        BYTES.fetch_add(s.len(), AtomicOrdering::Relaxed);
        Sym(id)
    }

    /// The interned string. Takes no lock.
    #[inline]
    pub fn as_str(self) -> &'static str {
        let (k, offset) = locate(self.0);
        match TABLE[k].get().and_then(|segment| segment[offset].get()) {
            Some(s) => s,
            // `intern` publishes the entry before it returns the `Sym`,
            // and every other holder received the `Sym` after that.
            None => unreachable!("symbol {} was never interned", self.0),
        }
    }

    /// How many distinct strings the process has interned, and their
    /// total length in bytes: the interner's memory bound.
    pub fn interned() -> (usize, usize) {
        (
            STRINGS.load(AtomicOrdering::Relaxed),
            BYTES.load(AtomicOrdering::Relaxed),
        )
    }
}

/// Lexical order of the strings; equal ids are equal strings.
impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> Ordering {
        if self.0 == other.0 {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_tiles_the_id_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        let (k, offset) = locate(u32::MAX);
        assert_eq!(k, SEGMENTS - 1);
        assert!(offset < 1 << (FIRST_BITS as usize + k));
    }

    #[test]
    fn interning_is_idempotent_and_round_trips() {
        let a = Sym::intern("sym-test-idempotent");
        let (count, bytes) = Sym::interned();
        assert_eq!(Sym::intern("sym-test-idempotent"), a);
        assert_eq!(a.as_str(), "sym-test-idempotent");
        // Other tests intern concurrently: only lower bounds hold here.
        assert!(count >= 1 && bytes >= "sym-test-idempotent".len());
        assert_ne!(Sym::intern("sym-test-other"), a);
    }

    #[test]
    fn order_is_lexical_not_interning_order() {
        let z = Sym::intern("sym-order-z");
        let a = Sym::intern("sym-order-a");
        assert!(z.0 < a.0);
        assert_eq!(a.cmp(&z), Ordering::Less);
        assert_eq!(z.cmp(&z), Ordering::Equal);
    }

    #[test]
    fn debug_and_display_print_the_string() {
        let s = Sym::intern("sym \"quoted\"");
        assert_eq!(format!("{s}"), "sym \"quoted\"");
        assert_eq!(format!("{s:?}"), "\"sym \\\"quoted\\\"\"");
    }

    #[test]
    fn concurrent_interning_agrees() {
        use crate::Value;
        // 8 threads, released together, intern overlapping sets of
        // fresh strings, each in its own order; equal strings must come
        // back as equal values everywhere, distinct strings as distinct.
        let words: Vec<String> = (0..300).map(|i| format!("sym-race-{i}")).collect();
        let start = std::sync::Barrier::new(8);
        let per_thread: Vec<Vec<(&str, Value)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let words = &words[t * 25..t * 25 + 125];
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        let n = words.len();
                        (0..n)
                            .map(|i| {
                                let k = (i + 17 * t) % n;
                                let k = if t % 2 == 1 { n - 1 - k } else { k };
                                let w = words[k].as_str();
                                (w, Value::str(w))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen: FxHashMap<&str, Value> = FxHashMap::default();
        for (w, v) in per_thread.iter().flatten() {
            assert_eq!(v.as_str(), Some(*w));
            assert_eq!(*seen.entry(w).or_insert(*v), *v, "{w} interned twice");
        }
        let values: std::collections::HashSet<Value> = seen.values().copied().collect();
        assert_eq!(values.len(), seen.len());
        assert_eq!(seen.len(), words.len());
    }
}
