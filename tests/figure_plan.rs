//! Pins the figure driver's cell plan against the standalone figures.
//!
//! `cachesim figure` plans every chosen figure at once, runs each
//! distinct cell once and builds every plan figure from the shared
//! replies. Each plan figure must build the same table that way as its
//! registry callable builds alone (the callable `tests/figure_digests.rs`
//! pins), and the plan of the whole evaluation must keep its size. Whole
//! figures run the same function on both paths, so only the plan figures
//! are compared here.

use experiments::figures::{figures, registry, Figure, Plan};
use experiments::SupervisorConfig;

/// Per-benchmark instruction budget, as in `tests/figure_digests.rs`.
const INSTS: u64 = 10_000;

#[test]
fn the_plan_builds_every_figure_as_it_builds_alone() {
    let plan_figures: Vec<_> = figures()
        .into_iter()
        .filter(|(_, f)| matches!(f, Figure::Plan(_)))
        .collect();
    let plan = Plan::new(plan_figures, INSTS).unwrap();
    let produced = plan
        .run(&SupervisorConfig::default(), |_, _| Ok(()))
        .unwrap();
    assert!(
        produced.report.is_complete(),
        "{}",
        produced.report.summary()
    );
    let alone = registry();
    for (stem, table) in produced.tables {
        let table = table.unwrap_or_else(|e| panic!("{stem}: {e}"));
        let (_, figure) = alone.iter().find(|(s, _)| *s == stem).unwrap();
        assert!(
            table.to_csv() == figure(INSTS).to_csv(),
            "{stem}: the plan's table differs from the standalone one"
        );
    }
}

#[test]
fn the_evaluation_plans_each_distinct_cell_once() {
    let whole: Vec<&str> = figures()
        .into_iter()
        .filter(|(_, f)| matches!(f, Figure::Whole(_)))
        .map(|(stem, _)| stem)
        .collect();
    assert_eq!(
        whole,
        [
            "table_storage",
            "fig07_ammp",
            "fig07_mgrid",
            "sec46_l1",
            "sec47_overheads",
            "multicore_shared_l2",
            "prefetch_adaptivity",
        ]
    );
    // The budget shapes no figure's requests, only their values.
    for insts in [1_000, INSTS, 2_000_000] {
        let plan = Plan::new(figures(), insts).unwrap();
        assert_eq!(plan.requested, 3052, "at {insts}");
        assert_eq!(plan.distinct, 2220, "at {insts}");
        assert_eq!(plan.whole, 7, "at {insts}");
    }
}
