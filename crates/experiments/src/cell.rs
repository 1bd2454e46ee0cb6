//! One simulation cell: the request a `cachesim` run or sweep takes and
//! a figure declares, its validation, its run and its resume key.
//!
//! A [`RunRequest`] names a workload (a suite benchmark or an inline
//! [`WorkloadSpec`]), an L2 organisation, the mode and the instruction
//! budget on a processor configuration. [`validate`] checks it and
//! resolves its workload to one [`Benchmark`] before anything runs,
//! [`run`] executes it, and [`key`] identifies it in a sweep journal:
//! one cell has one key in every sweep and every figure.

use crate::resilience::ExperimentError;
use crate::runner::{run_functional_l2_cfg, run_timed, L2Kind};
use cache_sim::Geometry;
use cpu_model::{CpuConfig, FunctionalStats, RunStats};
use serde::{Deserialize, Serialize};
use workloads::{extended_suite, Benchmark, Suite, WorkloadSpec};

/// One simulation request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRequest {
    /// Benchmark name from the built-in suite (see
    /// `policy_explorer -- --list`). Mutually exclusive with `spec`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub benchmark: Option<String>,
    /// Inline workload specification.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub spec: Option<WorkloadSpec>,
    /// The L2 organisation under test.
    pub l2: L2Kind,
    /// `"functional"` (miss rates only, fast) or `"timed"` (full CPI).
    pub mode: String,
    /// Instructions to run.
    pub insts: u64,
    /// Processor configuration (defaults to the paper's Table 1).
    #[serde(default = "CpuConfig::paper_default")]
    pub cpu: CpuConfig,
}

impl RunRequest {
    /// A functional run of the suite benchmark `b` on the paper's
    /// processor, its L2 organised as `kind`.
    pub fn functional(b: &Benchmark, kind: &L2Kind, insts: u64) -> Self {
        RunRequest {
            mode: "functional".to_string(),
            ..RunRequest::timed(b, kind, CpuConfig::paper_default(), insts)
        }
    }

    /// A timed run of the suite benchmark `b` on `cpu`, its L2
    /// organised as `kind`.
    pub fn timed(b: &Benchmark, kind: &L2Kind, cpu: CpuConfig, insts: u64) -> Self {
        RunRequest {
            benchmark: Some(b.name.clone()),
            spec: None,
            l2: kind.clone(),
            mode: "timed".to_string(),
            insts,
            cpu,
        }
    }
}

/// The outcome of one request.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReply {
    /// Benchmark name, or `"inline spec"`.
    pub workload: String,
    /// The L2 organisation's label.
    pub l2: String,
    /// The request's mode.
    pub mode: String,
    /// Instructions run.
    pub instructions: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L2 misses per thousand instructions.
    pub l2_mpki: f64,
    /// Cycles, for timed runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cycles: Option<u64>,
    /// Cycles per instruction, for timed runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cpi: Option<f64>,
}

impl RunReply {
    fn functional(workload: String, req: &RunRequest, s: &FunctionalStats) -> Self {
        RunReply {
            workload,
            l2: req.l2.label(),
            mode: req.mode.clone(),
            instructions: s.instructions,
            l2_misses: s.l2_misses,
            l2_mpki: s.l2_mpki(),
            cycles: None,
            cpi: None,
        }
    }

    fn timed(workload: String, req: &RunRequest, s: &RunStats) -> Self {
        RunReply {
            workload,
            l2: req.l2.label(),
            mode: req.mode.clone(),
            instructions: s.instructions,
            l2_misses: s.l2.misses,
            l2_mpki: s.l2_mpki(),
            cycles: Some(s.cycles),
            cpi: Some(s.cpi()),
        }
    }
}

/// Checks a request before anything runs — exactly one workload source,
/// a known mode, a benchmark name the suite has, an inline spec the
/// generator accepts (`WorkloadSpec::check`), cache geometries the model
/// can build and a nonzero bus width — and resolves its workload to the
/// benchmark [`run`] streams. The error names the offending field.
pub fn validate(req: &RunRequest) -> Result<Benchmark, ExperimentError> {
    let invalid = ExperimentError::InvalidInput;
    let bench = match (&req.benchmark, &req.spec) {
        (Some(name), None) => extended_suite()
            .into_iter()
            .find(|b| &b.name == name)
            .ok_or_else(|| {
                invalid(format!(
                    "field `benchmark`: unknown benchmark {name:?} (try policy_explorer -- --list)"
                ))
            })?,
        (None, Some(spec)) => {
            spec.check()
                .map_err(|e| invalid(format!("field `spec.{}`: {}", e.field, e.message)))?;
            // The experiment runner reads only a benchmark's name and spec.
            Benchmark {
                name: "inline spec".to_string(),
                suite: Suite::SpecInt,
                spec: spec.clone(),
            }
        }
        _ => {
            return Err(invalid(
                "set exactly one of the fields `benchmark`, `spec`".into(),
            ))
        }
    };
    if !matches!(req.mode.as_str(), "functional" | "timed") {
        return Err(invalid(format!(
            "field `mode`: unknown mode {:?} (functional|timed)",
            req.mode
        )));
    }
    let cpu = &req.cpu;
    for (field, p) in [("l1i", cpu.l1i), ("l1d", cpu.l1d), ("l2", cpu.l2)] {
        Geometry::new(p.size_bytes, p.line_bytes, p.associativity)
            .map_err(|e| invalid(format!("field `cpu.{field}`: bad geometry: {e}")))?;
    }
    if cpu.bus_bytes == 0 {
        return Err(invalid("field `cpu.bus_bytes`: must be at least 1".into()));
    }
    Ok(bench)
}

/// Executes one validated request end to end through the experiment
/// runner, which streams the benchmark's generator: a functional cell
/// shares the process-wide replay cache, so the front end runs at most
/// once per (workload spec, L1 config, budget) key.
pub fn run(req: &RunRequest, b: &Benchmark) -> Result<RunReply, ExperimentError> {
    if req.mode == "functional" {
        let l2 = &req.cpu.l2;
        let geom = (l2.size_bytes, l2.line_bytes, l2.associativity);
        let r = run_functional_l2_cfg(b, &req.l2, geom, req.insts, &req.cpu)?;
        Ok(RunReply::functional(b.name.clone(), req, &r.stats))
    } else {
        let s = run_timed(b, &req.l2, req.cpu, req.insts)?;
        Ok(RunReply::timed(b.name.clone(), req, &s))
    }
}

/// A cell's resume key: a readable prefix (workload, L2 label, mode,
/// budget) and a digest of the whole request, so editing any field of
/// a cell invalidates that cell's checkpoint and no other, and the same
/// request has the same key wherever it appears.
pub fn key(req: &RunRequest) -> String {
    let workload = req.benchmark.as_deref().unwrap_or("spec");
    // FNV-1a: stable across builds, unlike `DefaultHasher`, so journals
    // written by one build resume under the next.
    let json = serde_json::to_string(req).expect("a request serialises");
    let digest = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    });
    format!(
        "{workload}:{}:{}:{}:{digest:016x}",
        req.l2.label(),
        req.mode,
        req.insts
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::PolicyKind;
    use workloads::primary_suite;

    #[test]
    fn the_key_names_the_cell_and_digests_every_field() {
        let b = &primary_suite()[0];
        let lru = L2Kind::Plain(PolicyKind::Lru);
        let req = RunRequest::functional(b, &lru, 1000);
        let key = key(&req);
        assert!(
            key.starts_with(&format!("{}:LRU:functional:1000:", b.name)),
            "{key}"
        );
        assert_eq!(key, super::key(&req.clone()), "one request, one key");
        let mut edited = req.clone();
        edited.cpu.l2.hit_latency += 1;
        assert_ne!(super::key(&edited), key, "a field the prefix omits");
    }

    #[test]
    fn a_figure_request_validates_and_runs_as_the_runner_does() {
        let b = &primary_suite()[1];
        let lru = L2Kind::Plain(PolicyKind::Lru);
        let req = RunRequest::timed(b, &lru, CpuConfig::paper_default(), 20_000);
        let reply = run(&req, &validate(&req).unwrap()).unwrap();
        let direct = run_timed(b, &lru, CpuConfig::paper_default(), 20_000).unwrap();
        assert_eq!(reply.cycles, Some(direct.cycles));
        assert_eq!(reply.cpi, Some(direct.cpi()));
        assert_eq!(reply.l2_misses, direct.l2.misses);
    }
}
