//! Allocations per emitted row of the operator loop.
//!
//! A warm evaluation — indexes built, quantifier sites planned — may
//! allocate each emitted tuple once, grow its output set, and spend a
//! small constant on the query; nothing more per combination. The
//! counting allocator below counts only on the thread that armed it, so
//! the file's tests may run in parallel; it is a test binary of its own
//! because a `#[global_allocator]` serves the whole binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dc_calculus::ast::Branch;
use dc_calculus::builder::*;
use dc_calculus::RangeExpr;
use dc_core::Database;
use dc_value::{tuple, Domain, Schema};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; `note` touches only two
// const-initialised `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made while it ran.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// What a warm evaluation may allocate for `rows` emitted tuples, of
/// which `fresh` are built by the leaf rather than bound whole: each
/// fresh tuple once, one table per doubling of the output set, and a
/// constant for the query (its rewrite, plan, evaluator and output).
fn allowance(rows: usize, fresh: usize) -> u64 {
    const PER_QUERY: u64 = 300;
    let doublings = u64::from(usize::BITS - rows.leading_zeros());
    fresh as u64 + doublings + PER_QUERY
}

const N: i64 = 2_000;

/// `R(a, b)`, `S(b, c)`, `T(c, d)`: each `R` row meets one `S` row and
/// each `S` row one `T` row; `S` holds only the even `b`s.
fn chain_db() -> Database {
    let mut db = Database::new();
    let rels = [
        ("R", ["a", "b"], (0..N).map(|i| (i, i)).collect::<Vec<_>>()),
        ("S", ["b", "c"], (0..N).step_by(2).map(|i| (i, i)).collect()),
        ("T", ["c", "d"], (0..N).map(|i| (i, i + 1)).collect()),
    ];
    for (name, [x, y], rows) in rels {
        let schema = Schema::of(&[(x, Domain::Int), (y, Domain::Int)]);
        db.create_relation(name, schema).unwrap();
        db.insert_all(name, rows.into_iter().map(|(a, b)| tuple![a, b]))
            .unwrap();
    }
    db
}

/// Evaluate `q` once to warm the caches, then count a second
/// evaluation: its rows, and the allocations it made.
fn warm(db: &Database, q: &RangeExpr) -> (usize, u64) {
    let cold = db.eval(q).unwrap();
    let (out, allocs) = allocations(|| db.eval(q).unwrap());
    assert_eq!(out, cold);
    (out.len(), allocs)
}

#[test]
fn a_warm_chain_join_allocates_only_its_output() {
    let db = chain_db();
    // {<r.a, t.d> OF EACH r IN R, EACH s IN S, EACH t IN T: r.b = s.b AND s.c = t.c}
    let q = set_former(vec![Branch::projecting(
        vec![attr("r", "a"), attr("t", "d")],
        vec![
            ("r".into(), rel("R")),
            ("s".into(), rel("S")),
            ("t".into(), rel("T")),
        ],
        eq(attr("r", "b"), attr("s", "b")).and(eq(attr("s", "c"), attr("t", "c"))),
    )]);
    let (rows, allocs) = warm(&db, &q);
    assert_eq!(rows, N as usize / 2);
    assert!(
        allocs <= allowance(rows, rows),
        "{allocs} allocations for {rows} rows (allowed {})",
        allowance(rows, rows)
    );
}

#[test]
fn warm_quantifier_probes_allocate_only_their_output() {
    let db = chain_db();
    let matched = |existential: bool| {
        let some = some("s", rel("S"), eq(attr("s", "b"), attr("r", "b")));
        let body = if existential { some } else { not(some) };
        set_former(vec![Branch::each("r", rel("R"), body)])
    };
    // ALL s IN S (s.b <> r.b): probed through its falsifier `s.b = r.b`.
    let all = set_former(vec![Branch::each(
        "r",
        rel("R"),
        all("s", rel("S"), ne(attr("s", "b"), attr("r", "b"))),
    )]);
    for q in [matched(true), matched(false), all] {
        let (rows, allocs) = warm(&db, &q);
        assert_eq!(rows, N as usize / 2, "{q}");
        assert!(
            allocs <= allowance(rows, 0),
            "{q}: {allocs} allocations for {rows} rows (allowed {})",
            allowance(rows, 0)
        );
    }
}
