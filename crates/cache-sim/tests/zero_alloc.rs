//! Steady-state accesses must not allocate.
//!
//! The packed directory layout and the inline per-set metadata exist so
//! the per-access path is pure index arithmetic over preallocated words.
//! This test installs a counting global allocator and drives a million
//! accesses through the plain cache, both tag modes, and the adaptive
//! cache (in the companion crate's hot loop shapes), asserting the
//! allocation counter does not move once the structures are built.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cache_sim::{BlockAddr, Cache, CacheModel, Geometry, PolicyKind, TagArray, TagMode};

struct CountingAlloc;

thread_local! {
    // Counted per thread, not process-wide: the libtest harness thread
    // keeps allocating (event plumbing, progress output) for a short
    // while after it spawns the test thread, and in release the first
    // measurement window opens within a millisecond — on a busy host
    // the harness's stray allocations land inside it and fail the test
    // spuriously. The invariant under test is that *this thread's*
    // access loop never allocates, so only this thread's counter moves.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates directly to the system allocator; the counter is a
// side effect with no influence on the returned memory. `try_with`
// skips counting during TLS teardown, when the key is no longer usable.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Mixed hot/scan block stream, computed without allocation.
#[inline]
fn stream_block(i: u64) -> BlockAddr {
    let group = i / 4;
    if i % 4 < 3 {
        BlockAddr::new(group % 768)
    } else {
        BlockAddr::new(768 + group % 16_384)
    }
}

#[test]
fn million_access_loop_allocates_nothing() {
    let geom = Geometry::new(512 * 1024, 64, 8).unwrap();

    // Plain caches over the headline policies.
    for policy in [PolicyKind::Lru, PolicyKind::LFU5] {
        let mut cache = Cache::new(geom, policy, 7);
        // Warm-up fills every structure (including any lazily grown one).
        for i in 0..50_000 {
            cache.access(stream_block(i), i % 9 == 0);
        }
        let before = allocations();
        let mut hits = 0u64;
        for i in 0..1_000_000u64 {
            hits += u64::from(cache.access(stream_block(i), i % 9 == 0).hit);
        }
        assert!(hits > 0);
        assert_eq!(
            allocations() - before,
            0,
            "{policy:?} access loop must not allocate"
        );
    }

    // Tag arrays across the match paths: full-tag compare and the packed
    // SWAR partial path.
    for mode in [TagMode::Full, TagMode::PartialLow { bits: 8 }] {
        let mut tags = TagArray::new(geom, mode, PolicyKind::Lru, 7);
        for i in 0..50_000 {
            tags.access(stream_block(i));
        }
        let before = allocations();
        for i in 0..1_000_000u64 {
            tags.access(stream_block(i));
        }
        assert_eq!(
            allocations() - before,
            0,
            "{mode:?} tag-array loop must not allocate"
        );
    }
}
