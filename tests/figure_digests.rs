//! Pins the figure registry end to end.
//!
//! `experiments::figures::registry()` is the one list of the tables the
//! evaluation writes, so it must name exactly the tables committed under
//! `results/`, and every entry's CSV at a reduced instruction budget
//! must keep its FNV-1a digest. The Figure 7 entries raise any budget
//! to 2M instructions, so their phase maps are pinned by calling
//! `fig07_phase_map` directly at a budget long enough for the L2 to
//! start replacing. Run
//! `cargo test --test figure_digests -- --nocapture` to print the
//! current digests when a mismatch needs diagnosing.

use experiments::figures::{fig07_phase_map, registry};
use std::path::Path;

/// Per-benchmark instruction budget of the pinned tables.
const INSTS: u64 = 10_000;
/// Instruction budget of the pinned Figure 7 phase maps.
const FIG07_INSTS: u64 = 400_000;

/// `(stem, FNV-1a of the table's CSV at INSTS)`.
const PINNED: [(&str, u64); 23] = [
    ("ablation_history", 0x1a65_b31d_4409_dc11),
    ("ablation_lfu", 0xc813_217d_27d0_11bc),
    ("ablation_sbar", 0x0c18_3911_2a6c_2b32),
    ("ablation_xor_tags", 0x99b6_b4ec_9904_c92e),
    ("fig03_mpki", 0x05d2_157a_5f2e_6916),
    ("fig04_cpi", 0x4e0b_eafb_4dd1_77c5),
    ("fig05_partial_tags", 0x8b17_3531_8f4a_d27f),
    ("fig06_vs_bigger", 0xee1d_0fce_8600_98f7),
    ("fig07_ammp", 0x2307_fed5_a026_8e0b),
    ("fig07_mgrid", 0x31af_7dba_dfca_2656),
    ("fig08_fifo_mru", 0x3c91_dc09_227e_7616),
    ("fig09_associativity", 0xb7df_fd1e_ab53_133e),
    ("fig10_store_buffer", 0x38fd_354f_69a7_e4d0),
    ("headline", 0x696f_31ae_15a3_9000),
    ("multicore_shared_l2", 0x4848_0c6e_e2ad_c3f4),
    ("prefetch_adaptivity", 0x85f2_21ae_e616_9087),
    ("related_dip", 0xe259_5763_0206_d44d),
    ("sec44_five_policy", 0xb9fd_99c9_e13b_103b),
    ("sec46_l1", 0xdab3_ab7d_fadd_3ba0),
    ("sec47_overheads", 0xca32_48e7_b529_dcef),
    ("sec47_sbar", 0x173e_31f1_a46b_da05),
    ("synthesis", 0x8d12_ab14_ba89_d197),
    ("table_storage", 0x2a17_5456_c9aa_5f8c),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The number of RFC 4180 fields on each line of `csv`: commas outside
/// quotes separate fields, and a doubled quote toggles twice.
fn field_counts(csv: &str) -> Vec<usize> {
    let (mut counts, mut fields, mut quoted) = (Vec::new(), 1, false);
    for c in csv.chars() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => fields += 1,
            '\n' if !quoted => {
                counts.push(fields);
                fields = 1;
            }
            _ => {}
        }
    }
    counts
}

#[test]
fn registry_names_every_committed_table() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut committed: Vec<String> = std::fs::read_dir(&results)
        .expect("results/ is committed")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    committed.sort();
    let mut registered: Vec<&str> = registry().iter().map(|(stem, _)| *stem).collect();
    registered.sort_unstable();
    assert_eq!(registered, committed);
    assert_eq!(registered.len(), 23);
}

#[test]
fn every_table_keeps_its_digest() {
    let mut mismatches = Vec::new();
    for (stem, figure) in registry() {
        let table = match stem.strip_prefix("fig07_") {
            Some(benchmark) => fig07_phase_map(benchmark, FIG07_INSTS, 100_000, 32).to_table(),
            None => figure(INSTS),
        };
        let csv = table.to_csv();
        let fields = field_counts(&csv);
        if fields.iter().any(|&n| n != fields[0]) {
            mismatches.push(format!("{stem}: RFC 4180 fields per line {fields:?}"));
        }
        let digest = fnv1a(csv.as_bytes());
        println!("    (\"{stem}\", {digest:#018x}),");
        match PINNED.iter().find(|(s, _)| *s == stem) {
            Some((_, pinned)) if *pinned == digest => {}
            Some((_, pinned)) => {
                mismatches.push(format!("{stem}: {digest:#018x} != {pinned:#018x}"))
            }
            None => mismatches.push(format!("{stem}: not pinned")),
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
