//! # experiments — regenerating the paper's evaluation
//!
//! One module per table/figure of the paper's Section 4, all built on a
//! shared [`runner`]: a benchmark (from [`workloads`]) is driven through
//! the memory hierarchy with a chosen L2 organisation ([`L2Kind`]), either
//! *functionally* (miss rates only — Figures 3, 5, 8 and the extended-set
//! stability numbers) or through the full timing pipeline (CPI — Figures
//! 4, 6, 9, 10).
//!
//! Every experiment returns [`report::Table`]s that print in the same
//! layout the paper reports, and can be serialised to CSV/JSON artefacts
//! under `results/`.
//!
//! Long sweeps run under the [`resilience`] supervisor: panics are
//! isolated per cell, wedged cells time out, and completed cells are
//! checkpointed to a journal so an interrupted sweep restarted with
//! `AC_RESUME=1` skips finished work. The [`faultinject`] module provides
//! deterministic fault wrappers for testing those degradation paths.
//!
//! [`figures::figures`] lists every table the evaluation writes; the
//! `bench` crate's `cachesim figure {all|<stem>...}` runs their distinct
//! [`cell`]s once each as one [`figures::Plan`]
//! (`cargo run --release -p bench --bin cachesim -- figure fig03_mpki`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cell;
pub mod faultinject;
pub mod figures;
pub mod multicore;
pub mod replay_cache;
pub mod report;
pub mod resilience;
pub mod runner;

pub use faultinject::{FaultSpec, FaultyCache};
pub use report::Table;
pub use resilience::{
    run_sweep, CellOutcome, ExperimentError, SupervisorConfig, SweepReport, EXIT_INVALID_INPUT,
    EXIT_OK, EXIT_PARTIAL,
};
pub use runner::{
    default_insts, run_functional_l2, run_functional_l2_cfg, run_timed, L2Kind, CACHE_SEED,
    PAPER_L2,
};
