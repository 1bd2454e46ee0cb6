//! # cache-sim — a set-associative cache simulation framework
//!
//! This crate is the substrate on which the adaptive-cache work
//! (Subramanian, Smaragdakis & Loh, *Adaptive Caches: Effective Shaping of
//! Cache Behavior to Workloads*, MICRO 2006) is built. It provides:
//!
//! * [`Geometry`] — validated cache geometry (size, line size, associativity)
//!   with address → (set, tag) decomposition,
//! * [`ReplacementPolicy`] — an object-safe policy trait plus the five
//!   standard policies the paper studies ([`PolicyKind`]: LRU, LFU, FIFO,
//!   MRU, Random),
//! * [`TagArray`] — a policy-managed tag directory, usable both as the tag
//!   side of a real cache and as the *shadow* ("parallel") tag arrays the
//!   adaptive scheme keeps for its component policies,
//! * [`TagMode`] — full or *partial* tags (Section 3.1 of the paper),
//! * [`Cache`] — a write-back/write-allocate data cache with statistics, and
//! * [`CacheModel`] — the trait through which a memory hierarchy drives any
//!   cache organisation (plain, adaptive, SBAR, ...).
//!
//! # Quick example
//!
//! ```
//! use cache_sim::{Cache, Geometry, PolicyKind, CacheModel, Address};
//!
//! let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
//! let mut l2 = Cache::new(geom, PolicyKind::Lru, 0xC0FFEE);
//! for i in 0..10_000u64 {
//!     let addr = Address::new((i * 64) % (1 << 20));
//!     l2.access(geom.block_of(addr), false);
//! }
//! assert!(l2.stats().misses > 0);
//! ```
//!
//! All randomness (the Random policy, tie-breaking fallbacks) is driven by a
//! seeded [`rand::rngs::SmallRng`], so every simulation is reproducible.

// `deny` rather than `forbid`: the `simd` module — and only it — opts
// back in with a module-level `allow` for the baseline-x86-64 SSE2 pair
// compare and the prefetch hint. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cache;
mod geometry;
mod meta;
mod model;
mod partial;
mod policy;
pub mod simd;
mod stats;
mod tag_array;

pub use addr::{Address, BlockAddr};
pub use cache::{AccessOutcome, Cache, Eviction};
pub use geometry::{Geometry, GeometryError};
pub use meta::{MetaTable, SetMeta};
pub use model::CacheModel;
pub use partial::{StoredTag, TagMode};
pub use policy::{Fifo, Lfu, Lru, Mru, PolicyKind, Rand, ReplacementPolicy};
pub use stats::CacheStats;
pub use tag_array::{fused_pair_masks, Directory, TagAccess, TagArray, TagStats, Way, MAX_ASSOC};
