//! Dependency-free shard locks: a parking_lot-style spin mutex and a
//! cacheline pad, the only unsafe code in this crate.
//!
//! The shard engines are coarse objects (a packed directory plus policy
//! metadata), held for a few hundred nanoseconds per access, and the
//! shard count is sized to the core count — so a spin lock with bounded
//! busy-waiting beats a kernel mutex: the fast path is one uncontended
//! `swap` and one `store`, with no syscall anywhere. After a short burst
//! of `spin_loop` hints the waiter yields its timeslice, which keeps the
//! lock live on oversubscribed (or single-core) hosts where the holder
//! needs the CPU to make progress.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::hint::spin_loop;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

/// Pads and aligns `T` to 128 bytes so neighbouring shards never share a
/// cacheline (128, not 64, to also defeat the adjacent-line prefetcher
/// pairing two 64-byte lines on x86).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Spins this many iterations on a contended lock before yielding.
const SPINS_BEFORE_YIELD: u32 = 64;

/// A minimal spin mutex guarding one shard engine.
///
/// Not reentrant, not poisoning: a panic while holding the guard releases
/// the lock on unwind (the guard's `Drop` runs) and the shard's state
/// stays whatever the panicking access left — acceptable here because a
/// panic inside the cache substrate is a bug, not a recoverable event,
/// and the stress tests would surface torn state as a conservation
/// failure.
#[derive(Debug, Default)]
pub struct SpinMutex<T> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the mutex hands out at most one `SpinGuard` at a time (the
// Acquire swap below), so `&SpinMutex<T>` grants exclusive access to the
// inner `T` exactly like `Mutex<T>`; `T: Send` is all that is required.
unsafe impl<T: Send> Sync for SpinMutex<T> {}
unsafe impl<T: Send> Send for SpinMutex<T> {}

impl<T> SpinMutex<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        SpinMutex {
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning (then yielding) until it is free.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        let mut spins = 0u32;
        // Acquire on the winning swap orders every write the previous
        // holder made (published by its Release store) before our reads.
        while self.locked.swap(true, Ordering::Acquire) {
            // Wait on a plain load so contending cores ping-pong the
            // line only when it actually changes hands.
            while self.locked.load(Ordering::Relaxed) {
                spins += 1;
                if spins >= SPINS_BEFORE_YIELD {
                    spins = 0;
                    std::thread::yield_now();
                } else {
                    spin_loop();
                }
            }
        }
        SpinGuard { lock: self }
    }

    /// Acquires the lock only if it is free right now. The metrics
    /// publisher uses this to sample shard occupancy without ever
    /// stalling a worker.
    pub fn try_lock(&self) -> Option<SpinGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(SpinGuard { lock: self })
        } else {
            None
        }
    }

    /// Exclusive access without locking (the borrow checker proves no
    /// guard can exist).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

/// RAII guard: the lock is held until this is dropped.
pub struct SpinGuard<'a, T> {
    lock: &'a SpinMutex<T>,
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: holding the guard means we won the Acquire swap and
        // nobody else can win it until our Drop's Release store.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above, plus `&mut self` forbids aliasing this guard.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        // Release publishes every write made under the lock to the next
        // Acquire winner.
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_gives_exclusive_access() {
        let m = SpinMutex::new(5u64);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = SpinMutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn contended_increments_are_not_lost() {
        let m = SpinMutex::new(0u64);
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 50_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), THREADS * PER_THREAD);
    }

    #[test]
    fn padding_separates_neighbours() {
        assert_eq!(std::mem::align_of::<CachePadded<SpinMutex<u8>>>(), 128);
        assert!(std::mem::size_of::<CachePadded<SpinMutex<u8>>>() >= 128);
    }
}
