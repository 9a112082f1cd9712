//! Snapshot install from axiom text: the layer a `load_snapshot`
//! request runs before its snapshot can serve.
//!
//! The workload is `diamond(8)` rendered as axiom text (511 names, 1,018
//! `A < B` lines): the TBox the serving benchmark's `told` workload
//! installs. Two lanes are timed: `parse_tbox` alone, and
//! `SnapshotStore::install_axioms`, which parses, fingerprints, builds
//! the EL classifier, saturates and packs the warm index. Beside each
//! wall time the report carries the lane's exact heap allocations for
//! one call (`parse_allocs`, `install_allocs`), counted by this binary's
//! global allocator on the calling thread. Allocations do not depend on
//! the machine, so `bench_diff` gates them; wall times are printed and
//! never gated.
//!
//! `SUMMA_BENCH_SMOKE=1` shrinks each lane to one sample and writes the
//! report under `target/bench-smoke/`, leaving the committed one alone;
//! the allocation counts are exact either way.

use criterion::Criterion;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use summa_bench::smoke;
use summa_dl::concept::Concept;
use summa_dl::generate;
use summa_dl::tbox::Axiom;
use summa_serve::snapshot::{parse_tbox, SnapshotStore, WarmEngine};

/// Counts the allocations (`alloc`, `alloc_zeroed` and `realloc`) made
/// by a thread while it has counting switched on.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator can neither allocate nor outlive the thread.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the bookkeeping only touches an atomic and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // hands out `System` blocks unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` once and return its value with the allocations it made on
/// this thread. The value is dropped after counting stops.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

/// `diamond(depth)` as axiom text: one `A < B` line per axiom.
fn diamond_text(depth: usize) -> String {
    let (voc, tbox, _) = generate::diamond(depth);
    let mut text = String::new();
    for ax in tbox.axioms() {
        let Axiom::Subsume {
            lhs: Concept::Atom(a),
            rhs: Concept::Atom(b),
        } = ax
        else {
            unreachable!("a diamond states atomic subsumptions only");
        };
        text += &format!("{} < {}\n", voc.concept_name(*a), voc.concept_name(*b));
    }
    text
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let text = diamond_text(8);
    let install = || {
        SnapshotStore::new()
            .install_axioms("told", &text)
            .expect("diamond text parses")
    };

    // One untimed install first, so lazily initialised process state is
    // not counted, and a check that it warmed by EL saturation.
    let snap = install();
    let warm = snap.warm.as_ref().expect("diamond(8) warms");
    assert_eq!(warm.engine, WarmEngine::El);
    assert!(warm.index.is_intact());
    let atoms = snap.tbox.atoms().len();
    let lines = snap.tbox.len();
    drop(snap);
    let (parsed, parse_allocs) = allocations(|| parse_tbox(&text));
    let (tbox, _) = parsed.expect("diamond text parses");
    assert_eq!((tbox.len(), tbox.atoms().len()), (lines, atoms));
    let (_, install_allocs) = allocations(install);
    // The counts are exact: a second call makes the same allocations.
    assert_eq!(allocations(|| parse_tbox(&text)).1, parse_allocs);
    assert_eq!(allocations(install).1, install_allocs);

    let mut c = Criterion::default();
    {
        let mut g = c.benchmark_group("snapshot_install");
        g.sample_size(if smoke() { 1 } else { 50 });
        g.bench_function("diamond8/parse_tbox", |b| b.iter(|| parse_tbox(&text)));
        g.bench_function("diamond8/install_axioms", |b| b.iter(install));
        g.finish();
    }
    let ns = |label: &str| {
        c.ns_per_iter("snapshot_install", label)
            .expect("lane timed")
    };
    let (parse_ns, install_ns) = (ns("diamond8/parse_tbox"), ns("diamond8/install_axioms"));
    println!(
        "  diamond8: {lines} lines, {atoms} atoms; parse {parse_ns} ns ({parse_allocs} allocations), \
         install {install_ns} ns ({install_allocs} allocations)"
    );

    let caveat = if smoke() {
        ",\n  \"caveat\": \"smoke mode (SUMMA_BENCH_SMOKE=1): one sample per lane, wall times are format placeholders; allocation counts are exact either way\""
    } else {
        ""
    };
    let json = format!(
        "{{\n  \"bench\": \"snapshot_install\",\n  \"host_cpus\": {host_cpus},\n  \"generated_at\": \"{}\"{caveat},\n  \"workloads\": [\n    {{\"name\": \"diamond8\", \"lines\": {lines}, \"atoms\": {atoms}, \"text_bytes\": {}, \"parse_ns\": {parse_ns}, \"install_ns\": {install_ns}, \"parse_allocs\": {parse_allocs}, \"install_allocs\": {install_allocs}}}\n  ]\n}}\n",
        summa_bench::iso8601_utc_now(),
        text.len(),
    );
    let path = summa_bench::write_report("install", &json);
    println!("\nwrote {}", path.display());
}
