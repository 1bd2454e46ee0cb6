//! The replay cache keys a capture by everything the captured stream is
//! a function of — the workload spec, the L1 configuration and the
//! instruction budget — and not by the benchmark's name. Each cell
//! below differs from `mcf` in one part of that key while keeping its
//! name; run through the cache right after `mcf` was captured, it must
//! match a direct run of the front-end (`AC_REPLAY=0`).
//!
//! `AC_REPLAY` is process-global, so this binary holds one `#[test]`.

use cache_sim::PolicyKind;
use cpu_model::CpuConfig;
use experiments::{replay_cache, run_functional_l2_cfg, L2Kind, PAPER_L2};
use workloads::{primary_suite, Benchmark, CodeSpec, MixSpec};

const INSTS: u64 = 60_000;

#[test]
fn a_cell_differing_in_any_part_of_the_key_replays_its_own_stream() {
    let mcf = primary_suite()
        .into_iter()
        .find(|b| b.name == "mcf")
        .expect("mcf is a primary benchmark");
    let paper = CpuConfig::paper_default();
    // mcf's 2 KB loop fits the paper's 16 KB L1I but not a 1 KB one.
    let mut small_l1i = paper;
    small_l1i.l1i.size_bytes /= 16;
    let mut reseeded = mcf.clone();
    reseeded.spec.seed ^= 0x9E37_79B9_7F4A_7C15;
    let mut remixed = mcf.clone();
    remixed.spec.mix = MixSpec::int_default();
    let mut recoded = mcf.clone();
    recoded.spec.code = CodeSpec::large();
    let cells = [
        ("seed", &reseeded, paper, INSTS),
        ("instruction mix", &remixed, paper, INSTS),
        ("code footprint", &recoded, paper, INSTS),
        ("L1 configuration", &mcf, small_l1i, INSTS),
        ("budget", &mcf, paper, INSTS / 2),
    ];

    let lru = L2Kind::Plain(PolicyKind::Lru);
    let run = |b: &Benchmark, cfg: &CpuConfig, insts: u64| {
        run_functional_l2_cfg(b, &lru, PAPER_L2, insts, cfg)
            .expect("paper geometry is valid")
            .stats
    };
    std::env::set_var("AC_REPLAY", "0");
    let original = run(&mcf, &paper, INSTS);
    let direct: Vec<_> = cells
        .iter()
        .map(|(_, b, cfg, insts)| run(b, cfg, *insts))
        .collect();
    std::env::remove_var("AC_REPLAY");

    for ((part, b, cfg, insts), direct) in cells.iter().zip(&direct) {
        assert_ne!(*direct, original, "changing the {part} changes the stream");
        replay_cache::clear();
        assert_eq!(run(&mcf, &paper, INSTS), original, "{part}");
        assert_eq!(
            run(b, cfg, *insts),
            *direct,
            "a cell differing in its {part} replayed another cell's stream"
        );
    }
}
