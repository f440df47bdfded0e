//! The allocations of one parsed log line, pinned exactly.
//!
//! A counting global allocator lives in this test binary only, and it
//! counts only the allocations of a thread that armed it, so the harness
//! around the test does not show. An allocation is one call to `alloc`,
//! `alloc_zeroed` or `realloc`; its bytes are the size it asked for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use rtic_history::log::parse_line;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn tally(size: usize) {
    if ARMED.with(Cell::get) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and requested bytes of `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    CALLS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (
        out,
        CALLS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// A line shaped like `serve-mixed`'s: ten relations, each inserted into
/// and then deleted from, 199 tuples in all, of one string or a string and
/// an integer. Every string is new on the first parse, so each run arrives
/// in the parser's intern order.
fn mixed_line() -> String {
    const RELATIONS: [(&str, usize, usize, bool); 10] = [
        ("xfer", 8, 8, true),
        ("online", 8, 10, false),
        ("heartbeat", 37, 40, false),
        ("enqueue", 3, 3, true),
        ("deliver", 2, 3, true),
        ("req", 19, 18, true),
        ("session", 8, 12, true),
        ("login", 8, 8, true),
        ("grant", 1, 1, false),
        ("approve", 1, 1, false),
    ];
    let mut line = String::from("@600");
    for (sign, inserted) in [('+', true), ('-', false)] {
        for (rel, ins, del, keyed) in RELATIONS {
            for k in 0..if inserted { ins } else { del } {
                let _ = write!(line, " {sign}{rel}(\"{}{sign}{k}\"", &rel[..1]);
                if keyed {
                    let _ = write!(line, ", {}", 4_000 + k);
                }
                line.push(')');
            }
        }
    }
    line
}

#[test]
fn a_parsed_line_allocates_a_pinned_count() {
    let line = mixed_line();
    let parse = || parse_line(line.as_bytes(), 1).unwrap().unwrap();
    let warm = parse();
    assert_eq!(warm.update.len(), 199);
    let (again, calls, bytes) = counted(parse);
    assert_eq!(again, warm);
    // Each of the 20 runs allocated once at its size, the buffer a run is
    // read into, each side's index of runs grown by doubling (3 each) and
    // the field buffer. The `BTreeMap<Symbol, BTreeSet<Tuple>>` per side
    // that `Update` held before took 62 allocations and 51 912 bytes here.
    assert_eq!(
        (calls, bytes),
        (28, 22_016),
        "allocations and requested bytes"
    );
}
