//! # adaptive-cache — the MICRO 2006 adaptive replacement scheme
//!
//! This crate implements the contribution of Subramanian, Smaragdakis &
//! Loh, *Adaptive Caches: Effective Shaping of Cache Behavior to
//! Workloads* (MICRO 2006): a cache that observes two (or more) component
//! replacement policies via **parallel shadow tag arrays** and a per-set
//! **miss-history buffer**, and on every miss imitates the component policy
//! that has been performing better on that set (Algorithm 1 of the paper).
//!
//! Main types:
//!
//! * [`AdaptiveEngine`] — the one two-policy adaptive engine: real
//!   directory, shadow pair, Algorithm 1 and all the counters; its
//!   [`Selector`] type parameter decides where shadow state lives,
//! * [`AdaptiveCache`] — the engine with [`PerSetHistory`]: the paper's
//!   cache, full or partial shadow tags and a miss history in every set,
//! * [`SbarCache`] — the engine with [`SetSampling`]: the set-sampling
//!   (SBAR-like) variant of Section 4.7, shadow tags on leader sets only
//!   and a [`SharedPsel`] for the followers,
//! * [`MultiAdaptiveCache`] — the generalised N-policy variant
//!   (Section 4.4's five-policy experiment),
//! * [`DipCache`] — DIP set dueling (Qureshi et al., ISCA 2007), the
//!   influential successor, for related-work comparisons,
//! * [`MissHistory`] / [`HistoryKind`] — the per-set history buffers
//!   (bit-vector, full counters, saturating counter),
//! * [`overhead`] — the SRAM storage-overhead model of Section 3.2, and
//! * [`theory`] — instrumentation for the paper's 2x worst-case miss bound.
//!
//! # Example: adaptivity tracks the better policy
//!
//! ```
//! use adaptive_cache::{AdaptiveCache, AdaptiveConfig};
//! use cache_sim::{Address, Cache, CacheModel, Geometry, PolicyKind};
//!
//! let geom = Geometry::new(64 * 1024, 64, 8).unwrap();
//! let mut adaptive = AdaptiveCache::new(geom, AdaptiveConfig::paper_full_tags(), 7);
//! let mut lru = Cache::new(geom, PolicyKind::Lru, 7);
//!
//! // Hot blocks accessed in bursts of three, interleaved with a long
//! // scan: LRU thrashes the hot blocks between bursts while LFU's
//! // frequency counters protect them — so the adaptive cache must end
//! // up well below plain LRU.
//! for i in 0..300_000u64 {
//!     let group = i / 4;
//!     let a = if i % 4 < 3 {
//!         Address::new((group % 768) * 64) // hot set
//!     } else {
//!         Address::new((768 + group % 8192) * 64) // scan
//!     };
//!     adaptive.access(geom.block_of(a), false);
//!     lru.access(geom.block_of(a), false);
//! }
//! assert!(adaptive.stats().misses < lru.stats().misses);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod dip;
mod engine;
mod history;
mod multi;
pub mod overhead;
mod psel;
mod sbar;
pub mod theory;

pub use adaptive::{AdaptiveCache, AdaptiveConfig, Component, ImitationSample, PerSetHistory};
pub use dip::{DipCache, DipConfig};
pub use engine::{AdaptiveEngine, Selector};
pub use history::{HistoryKind, MissHistory};
pub use multi::{MultiAdaptiveCache, MultiConfig};
pub use psel::SharedPsel;
pub use sbar::{default_leader_sets, SbarCache, SbarConfig, SetSampling};
