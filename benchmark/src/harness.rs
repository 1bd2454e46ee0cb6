//! What every workload shares: the run context, the correctness
//! bookkeeping and the timed pass loop.

use crate::meter::Meter;
use crate::trace::Tracer;
use std::time::Instant;

/// Measured passes a run always makes, however short `--seconds` is, so
/// every median has quartiles.
pub const MIN_PASSES: usize = 3;

/// Times each workload at least repeats its set-up; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 3;

/// Wall seconds set-up repetitions continue for, past [`SETUP_REPS`], so
/// a set-up of tens of milliseconds still gets a steady median.
pub const SETUP_SECS: f64 = 1.0;

/// One run's settings.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Wall-clock budget of the measured passes.
    pub seconds: f64,
    pub tracer: Tracer,
}

impl Ctx {
    /// `base` perturbed by the run's seed; seed 0 leaves it unchanged.
    pub fn perturb(&self, base: u64) -> u64 {
        if self.seed == 0 {
            base
        } else {
            base ^ splitmix64(self.seed)
        }
    }
}

/// SplitMix64 finaliser: spreads small seeds over all 64 bits.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counts checked units of work and the ones whose output was wrong.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one checked unit; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("acbench: CHECK FAILED: {}", what());
        }
    }
}

/// What a workload hands back to be reported.
#[derive(Debug, Default)]
pub struct Outcome {
    pub timings: Timings,
    pub checks: Checks,
}

/// A workload's measurements. Times are in reference-host units (see
/// [`crate::meter`]); the `raw_` fields keep the wall-clock values they
/// were scaled from.
#[derive(Debug, Default)]
pub struct Timings {
    /// Reference seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    pub raw_setup_s: Vec<f64>,
    /// Throughput of each untraced measured pass, in items per
    /// reference second.
    pub throughput: Vec<f64>,
    pub raw_throughput: Vec<f64>,
    /// The reference kernel's rate during each untraced pass.
    pub kernel_rate: Vec<f64>,
    /// Tracing's cost on each unit of work of a traced pass (traced runs
    /// only): `1 − traced / untraced` throughput against the same unit
    /// of the untraced pass before it. Pairing a unit with its twin one
    /// pass apart cancels most of the host's drift, which a ratio of pass
    /// medians picked up as overhead.
    pub trace_overhead: Vec<f64>,
}

/// Runs `setup` at least [`SETUP_REPS`] times and until [`SETUP_SECS`]
/// have passed, recording each repetition's reference and wall seconds,
/// and keeps the last result. `setup` times its work through the meter
/// it is given.
pub fn repeat_setup<T>(
    out: &mut Timings,
    mut meter: Meter,
    mut setup: impl FnMut(&mut Meter) -> T,
) -> T {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        meter.reset();
        let last = setup(&mut meter);
        out.setup_s.push(meter.reference_secs());
        out.raw_setup_s.push(meter.busy_secs());
        reps += 1;
        if reps >= SETUP_REPS && start.elapsed().as_secs_f64() >= SETUP_SECS {
            return last;
        }
    }
}

/// Runs one unrecorded warm pass, then measured passes until the
/// budget is spent (at least [`MIN_PASSES`]). `pass(tracer, index,
/// meter)` runs pass `index`, timing its units of work through `meter`,
/// and returns the items it processed. Returns the warm pass's
/// reference and wall seconds.
///
/// Untraced runs spend the whole `--seconds` here. Traced runs spend
/// half, alternating traced and untraced passes so the two throughputs
/// give the tracing overhead; the other half goes to the layer ledger.
pub fn run_passes(
    ctx: &Ctx,
    out: &mut Timings,
    mut meter: Meter,
    mut pass: impl FnMut(&Tracer, usize, &mut Meter) -> f64,
) -> (f64, f64) {
    let off = Tracer::new(false);
    pass(&off, 0, &mut meter);
    let warm = (meter.reference_secs(), meter.busy_secs());
    let traced = ctx.tracer.enabled();
    let budget = if traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    // Traced runs need two passes of each kind for the overhead ratio.
    let min = if traced { 4 } else { MIN_PASSES };
    let start = Instant::now();
    let mut index = 1;
    let mut untraced_units = Vec::new();
    while index <= min || start.elapsed().as_secs_f64() < budget {
        meter.reset();
        if traced && index % 2 == 0 {
            pass(&ctx.tracer, index, &mut meter);
            // A unit's throughput ratio is the inverse of its time ratio.
            let units = untraced_units.iter().zip(meter.unit_secs());
            out.trace_overhead
                .extend(units.map(|(untraced, traced)| 1.0 - untraced / traced));
        } else {
            let items = pass(&off, index, &mut meter);
            out.throughput.push(items / meter.reference_secs());
            out.raw_throughput.push(items / meter.busy_secs());
            out.kernel_rate.push(meter.kernel_rate());
            untraced_units = meter.unit_secs().to_vec();
        }
        index += 1;
    }
    warm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_base_seeds() {
        let ctx = Ctx {
            seed: 0,
            seconds: 1.0,
            tracer: Tracer::new(false),
        };
        assert_eq!(ctx.perturb(42), 42);
        let ctx = Ctx { seed: 1, ..ctx };
        assert_ne!(ctx.perturb(42), 42);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!("not rendered on success"));
        c.check(false, || "tampered".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
    }

    #[test]
    fn passes_meet_the_minimum_and_split_when_traced() {
        let ctx = Ctx {
            seed: 0,
            seconds: 0.0,
            tracer: Tracer::new(false),
        };
        let mut seen = Vec::new();
        let mut out = Timings::default();
        run_passes(&ctx, &mut out, Meter::serial(1.0), |_, i, meter| {
            seen.push(i);
            meter.time(|| 1.0)
        });
        assert_eq!(seen, [0, 1, 2, 3], "warm pass plus MIN_PASSES");
        assert_eq!(out.throughput.len(), MIN_PASSES);
        assert_eq!(out.raw_throughput.len(), MIN_PASSES);
        assert!(out.trace_overhead.is_empty());

        let ctx = Ctx {
            tracer: Tracer::new(true),
            ..ctx
        };
        let mut out = Timings::default();
        run_passes(&ctx, &mut out, Meter::serial(1.0), |_, _, meter| {
            meter.time(|| 1.0)
        });
        assert_eq!(out.trace_overhead.len(), 2, "one unit per traced pass");
        assert_eq!(out.throughput.len(), 2);
    }

    #[test]
    fn trace_overhead_pairs_each_unit_with_its_untraced_twin() {
        let ctx = Ctx {
            seed: 0,
            seconds: 0.0,
            tracer: Tracer::new(true),
        };
        let mut out = Timings::default();
        run_passes(
            &ctx,
            &mut out,
            Meter::serial(1.0),
            |tracer, index, meter| {
                // Two units of different sizes; the host halves its speed
                // from pass 3 on, and tracing costs a tenth of the time.
                let host = if index >= 3 { 2.0 } else { 1.0 };
                let tracing = if tracer.enabled() { 1.1 } else { 1.0 };
                for size in [1.0, 3.0] {
                    meter.time_as(|| ((), 0.01 * size * host * tracing));
                }
                1.0
            },
        );
        assert_eq!(
            out.trace_overhead.len(),
            4,
            "two traced passes of two units"
        );
        for o in out.trace_overhead {
            assert!((o - (1.0 - 1.0 / 1.1)).abs() < 1e-9, "{o}");
        }
    }

    #[test]
    fn setup_is_repeated_and_timed() {
        let mut out = Timings::default();
        let mut calls = 0;
        let last = repeat_setup(&mut out, Meter::serial(1.0), |meter| {
            calls += 1;
            meter.time(|| calls)
        });
        // An instant set-up repeats until SETUP_SECS have passed.
        assert!(calls > SETUP_REPS);
        assert_eq!(last, calls);
        assert_eq!(out.setup_s.len(), calls);
        assert_eq!(out.raw_setup_s.len(), calls);
    }
}
