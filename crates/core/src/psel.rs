//! The shared atomic policy-selection counter backing [`crate::SbarCache`]
//! and [`crate::DipCache`].
//!
//! SBAR's selector is a single saturating counter trained only by leader
//! sets' exclusive misses. That makes it the one piece of adaptive state
//! worth sharing *across* cache shards: leader accesses are a small,
//! configuration-bounded fraction of traffic (16 leader sets out of 1024
//! in the paper's configuration), so funnelling their votes through one
//! atomic word costs nearly nothing while letting follower sets in every
//! shard imitate a globally trained winner.
//!
//! ## Memory-ordering safety argument
//!
//! All operations are `Relaxed`. The selector is a heuristic: a reader
//! observing a slightly stale value picks the policy the selector
//! favoured a few votes ago, which is exactly the tolerance the paper's
//! hardware PSEL register has (it, too, is read asynchronously by
//! follower sets). No other memory is published through the counter —
//! every structure a vote or a read touches is owned by the shard that
//! holds its lock — so no acquire/release edges are needed for safety,
//! only for freshness, and freshness is explicitly not required.
//! Saturation is enforced inside a `fetch_update` loop, so concurrent
//! votes can never push the counter outside `0..=max`.

use crate::adaptive::Component;
use std::sync::atomic::{AtomicU32, Ordering};

/// A saturating policy-selection counter shareable across threads.
///
/// Midpoint-initialised; above the midpoint the selector favours
/// component B, at or below it component A (ties go to A, matching the
/// single-threaded [`crate::SbarCache`] semantics).
#[derive(Debug)]
pub struct SharedPsel {
    value: AtomicU32,
    max: u32,
}

impl SharedPsel {
    /// A counter of `bits` width, starting at the midpoint.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or wider than 31 (the saturating increment
    /// must not overflow `u32`).
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=31).contains(&bits),
            "psel_bits must be in 1..=31, got {bits}"
        );
        let max = (1u32 << bits) - 1;
        SharedPsel {
            value: AtomicU32::new(max / 2),
            max,
        }
    }

    /// The saturation ceiling (`2^bits - 1`).
    pub fn max(&self) -> u32 {
        self.max
    }

    /// The current counter value (relaxed; may be a few votes stale under
    /// concurrency, which is within the selector's tolerance).
    #[inline]
    pub fn load(&self) -> u32 {
        self.value.load(Ordering::Relaxed)
    }

    /// The component the counter currently favours.
    #[inline]
    pub fn winner(&self) -> Component {
        self.favours(self.load())
    }

    /// The component a counter reading of `value` favours: B above the
    /// midpoint, A at or below it.
    #[inline]
    fn favours(&self, value: u32) -> Component {
        if value > self.max / 2 {
            Component::B
        } else {
            Component::A
        }
    }

    /// One training vote: `toward_b` moves the counter up (component A
    /// missed exclusively), otherwise down. Saturating at both ends.
    /// Returns the post-vote value.
    #[inline]
    pub fn bump(&self, toward_b: bool) -> u32 {
        let step = |v: u32| {
            if toward_b {
                (v + 1).min(self.max)
            } else {
                v.saturating_sub(1)
            }
        };
        // fetch_update with a total function always succeeds; it returns
        // the previous value, so re-apply the step for the new one.
        let prev = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(step(v)))
            .unwrap_or_else(|v| v);
        step(prev)
    }
}

/// One cache's votes into a [`SharedPsel`], and the times the component
/// the counter favours changed after one of them.
#[derive(Debug)]
pub(crate) struct Votes {
    pub(crate) count: u64,
    pub(crate) switches: u64,
    last: Component,
}

impl Votes {
    pub(crate) fn new(psel: &SharedPsel) -> Self {
        Votes {
            count: 0,
            switches: 0,
            last: psel.winner(),
        }
    }

    /// Casts one vote (see [`SharedPsel::bump`]) and returns the counter
    /// value after it with the component that value favours.
    #[inline]
    pub(crate) fn cast(&mut self, psel: &SharedPsel, toward_b: bool) -> (u32, Component) {
        let value = psel.bump(toward_b);
        let now = psel.favours(value);
        self.count += 1;
        if now != self.last {
            self.switches += 1;
            self.last = now;
        }
        (value, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_midpoint_favouring_a() {
        let p = SharedPsel::new(10);
        assert_eq!(p.max(), 1023);
        assert_eq!(p.load(), 511);
        assert_eq!(p.winner(), Component::A);
    }

    #[test]
    fn saturates_at_both_ends() {
        let p = SharedPsel::new(2); // max 3, start 1
        assert_eq!(p.bump(false), 0);
        assert_eq!(p.bump(false), 0, "saturates at zero");
        for _ in 0..10 {
            p.bump(true);
        }
        assert_eq!(p.load(), 3, "saturates at max");
        assert_eq!(p.winner(), Component::B);
    }

    #[test]
    fn ties_go_to_a() {
        let p = SharedPsel::new(4); // max 15, midpoint 7
        assert_eq!(p.load(), 7);
        assert_eq!(p.winner(), Component::A);
        p.bump(true); // 8 > 7
        assert_eq!(p.winner(), Component::B);
    }

    #[test]
    fn concurrent_votes_stay_in_range() {
        let p = std::sync::Arc::new(SharedPsel::new(6)); // max 63
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for i in 0..10_000u32 {
                        p.bump((i + t) % 3 == 0);
                    }
                });
            }
        });
        assert!(p.load() <= p.max());
    }

    #[test]
    #[should_panic(expected = "psel_bits")]
    fn rejects_zero_width() {
        let _ = SharedPsel::new(0);
    }
}
