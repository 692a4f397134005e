//! A graph whose vertex ids do not fit a row's `u32` is refused before
//! anything is allocated: the refusal is an error value, never a 32 GiB
//! offset table or an allocator abort.

#![expect(
    unsafe_code,
    reason = "counting this thread's allocations needs a GlobalAlloc, which cannot be written \
              without `unsafe impl`; this one forwards verbatim to System"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dft_overlay::{build, Graph, OverlayError};

thread_local! {
    /// Allocations made by this thread (const-initialised and drop-free, so
    /// reading it from inside the allocator allocates nothing itself).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Delegates every call to [`System`], counting the calling thread's
/// allocations.
struct Counting;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter never influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|count| count.set(count.get() + 1));
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|count| count.set(count.get() + 1));
        // SAFETY: `ptr` came from `System`; layout/new_size forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (ALLOCS.with(Cell::get) - before, value)
}

#[test]
fn vertex_counts_past_u32_are_refused_without_allocating() {
    let edges = [(0, 1), (1, 2)];
    for n in [u32::MAX as usize + 1, 1 << 40, usize::MAX] {
        let (allocs, built) = counted(|| Graph::from_edges(n, &edges));
        assert_eq!(built, Err(OverlayError::TooManyVertices { n }));
        assert_eq!(allocs, 0, "from_edges(n = {n}) allocated");
        let (allocs, built) = counted(|| build::random_regular(n, 4, 7));
        assert_eq!(built, Err(OverlayError::TooManyVertices { n }));
        assert_eq!(allocs, 0, "random_regular(n = {n}) allocated");
    }
    // The counter sees a graph that is built.
    let (allocs, built) = counted(|| Graph::from_edges(3, &edges));
    assert!(built.is_ok());
    assert!(allocs > 0);
}
