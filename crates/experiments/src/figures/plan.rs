//! The cell plan: a plan figure states each cell it reads as a
//! [`RunRequest`] through [`Cells`], and a [`Plan`] runs every distinct
//! cell once, however many figures read it.

use super::Figure;
use crate::cell::{self, RunReply, RunRequest, Workload};
use crate::report::Table;
use crate::resilience::{run_sweep, CellOutcome, ExperimentError, SupervisorConfig, SweepReport};
use crate::runner::L2Kind;
use cpu_model::CpuConfig;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use workloads::Benchmark;

/// A plan figure: states its cells through [`Cells`] and builds its
/// table from their replies.
pub type PlanFn = fn(&Cells, u64) -> Table;

/// The cells a plan figure reads. The figure runs twice: against a
/// recording `Cells`, which lists its requests and answers each with an
/// empty reply, then against the replies, keyed by [`cell::key`]. A
/// request the replies lack is listed and answered empty as well, and
/// the table built from it is discarded.
#[derive(Debug, Default)]
pub struct Cells<'a> {
    replies: Option<&'a HashMap<String, RunReply>>,
    /// Every request while recording; afterwards, the unanswered ones.
    unanswered: RefCell<Vec<RunRequest>>,
    empty: RunReply,
}

impl Cells<'_> {
    /// The reply to `req`, or an empty one while recording or when the
    /// cell has not settled ok.
    pub fn reply(&self, req: RunRequest) -> &RunReply {
        match self.replies.and_then(|r| r.get(&cell::key(&req))) {
            Some(reply) => reply,
            None => {
                self.unanswered.borrow_mut().push(req);
                &self.empty
            }
        }
    }

    /// L2 MPKI of `b` run functionally on the paper's processor, its L2
    /// organised as `kind`.
    pub fn mpki(&self, b: &Benchmark, kind: &L2Kind, insts: u64) -> f64 {
        self.reply(RunRequest::functional(b, kind, insts)).l2_mpki
    }

    /// CPI of `b` timed on `cpu`, its L2 organised as `kind`.
    pub fn cpi(&self, b: &Benchmark, kind: &L2Kind, cpu: CpuConfig, insts: u64) -> f64 {
        cpi(self.reply(RunRequest::timed(b, kind, cpu, insts)))
    }
}

/// A timed reply's CPI.
pub(super) fn cpi(reply: &RunReply) -> f64 {
    reply.cpi.unwrap_or(f64::NAN)
}

/// One cell of a plan's sweep.
#[derive(Clone)]
enum Job {
    /// A whole figure: computes and stores its own table.
    Whole(&'static str, fn(u64) -> Table),
    /// A cell that plan figures read.
    Cell(Box<(RunRequest, Workload)>),
}

/// What a cell of a plan's sweep settles with, journalled bare.
#[derive(Debug, Serialize, Deserialize)]
#[serde(untagged)]
pub enum Settled {
    /// A whole figure's table.
    Table(Table),
    /// A plan cell's reply.
    Reply(RunReply),
}

/// One sweep for a set of figures: each whole figure is one cell, keyed
/// `stem@insts`, and each distinct cell the plan figures read is one
/// cell, keyed by [`cell::key`].
pub struct Plan {
    /// Requests the plan figures make, repeats included.
    pub requested: usize,
    /// Distinct cells among them.
    pub distinct: usize,
    /// Whole figures.
    pub whole: usize,
    figures: Vec<(&'static str, Figure)>,
    insts: u64,
    /// Every whole figure, then every distinct cell, first requested
    /// first.
    jobs: Vec<(String, Job)>,
}

impl Plan {
    /// Lists the cells `figures` read at `insts` and keeps one of each
    /// key. Fails, naming the cell, if a request does not validate.
    pub fn new(figures: Vec<(&'static str, Figure)>, insts: u64) -> Result<Plan, ExperimentError> {
        let (mut jobs, mut cells) = (Vec::new(), Vec::new());
        let (mut seen, mut requested) = (HashSet::new(), 0);
        for (stem, figure) in &figures {
            let f = match figure {
                // The budget is in the key: a table journalled at another
                // budget is recomputed, never resumed.
                Figure::Whole(f) => {
                    jobs.push((format!("{stem}@{insts}"), Job::Whole(stem, *f)));
                    continue;
                }
                Figure::Plan(f) => f,
            };
            let recorder = Cells::default();
            f(&recorder, insts);
            let requests = recorder.unanswered.into_inner();
            requested += requests.len();
            for req in requests {
                let key = cell::key(&req);
                if seen.insert(key.clone()) {
                    let workload = cell::validate(&req)
                        .map_err(|e| ExperimentError::InvalidInput(format!("cell {key}: {e}")))?;
                    cells.push((key, Job::Cell(Box::new((req, workload)))));
                }
            }
        }
        let (whole, distinct) = (jobs.len(), cells.len());
        jobs.extend(cells);
        Ok(Plan {
            requested,
            distinct,
            whole,
            figures,
            insts,
            jobs,
        })
    }

    /// Runs the whole figures, then the distinct cells, as one
    /// [`run_sweep`] under `cfg`, and builds each plan figure from the
    /// replies. A figure counts as produced only once every cell it
    /// reads settled ok and `write` stored its table: a whole figure's
    /// inside its cell (and again when resumed), a plan figure's after
    /// the sweep.
    pub fn run(
        self,
        cfg: &SupervisorConfig,
        write: fn(&Table, &str) -> Result<(), ExperimentError>,
    ) -> Result<Produced, ExperimentError> {
        let insts = self.insts;
        let report = run_sweep(
            &self.jobs,
            cfg,
            |(key, _)| key.clone(),
            move |(_, job)| match job {
                Job::Whole(stem, f) => {
                    let table = f(insts);
                    write(&table, stem)?;
                    Ok(Settled::Table(table))
                }
                Job::Cell(c) => cell::run(&c.0, &c.1).map(Settled::Reply),
            },
        )?;

        let (whole, settled) = report.cells.split_at(self.whole);
        let mut replies = HashMap::new();
        for c in settled {
            if let Some(Settled::Reply(r)) = c.outcome.value() {
                replies.insert(c.key.clone(), r.clone());
            }
        }
        let mut whole = whole.iter();
        let mut build = |stem: &str, figure: &Figure| match figure {
            Figure::Whole(_) => match &whole.next().expect("a cell per whole figure").outcome {
                CellOutcome::Done(Settled::Table(t)) => Ok(t.clone()),
                CellOutcome::Resumed(Settled::Table(t)) => write(t, stem)
                    .map(|()| t.clone())
                    .map_err(|e| e.to_string()),
                other => Err(other.error().unwrap_or_default()),
            },
            Figure::Plan(f) => {
                let cells = Cells {
                    replies: Some(&replies),
                    ..Cells::default()
                };
                let table = f(&cells, insts);
                if let Some(req) = cells.unanswered.into_inner().first() {
                    let key = cell::key(req);
                    let c = settled
                        .iter()
                        .find(|c| c.key == key)
                        .expect("a planned cell");
                    return Err(format!(
                        "cell {key}: {}",
                        c.outcome.error().unwrap_or_default()
                    ));
                }
                write(&table, stem)
                    .map(|()| table)
                    .map_err(|e| e.to_string())
            }
        };
        let tables = self
            .figures
            .iter()
            .map(|(stem, figure)| (*stem, build(stem, figure)))
            .collect();
        Ok(Produced { tables, report })
    }
}

/// What [`Plan::run`] produced.
pub struct Produced {
    /// Each figure in plan order: its table, or why it was not produced.
    pub tables: Vec<(&'static str, Result<Table, String>)>,
    /// The sweep: one report per cell, whole figures first.
    pub report: SweepReport<Settled>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultinject::FaultSpec;
    use cache_sim::PolicyKind;
    use workloads::primary_suite;

    const INSTS: u64 = 2_000;

    fn lru() -> L2Kind {
        L2Kind::Plain(PolicyKind::Lru)
    }

    fn poisoned() -> L2Kind {
        L2Kind::Faulty {
            fault: FaultSpec::panic_at(1),
            inner: Box::new(lru()),
        }
    }

    fn one_row(cells: &Cells, kinds: &[L2Kind], insts: u64) -> Table {
        let b = &primary_suite()[0];
        let mut t = Table::new("t", "benchmark", kinds.iter().map(L2Kind::label).collect());
        t.push_row(
            &b.name,
            kinds.iter().map(|k| cells.mpki(b, k, insts)).collect(),
        );
        t
    }

    fn reads_poison(cells: &Cells, insts: u64) -> Table {
        one_row(cells, &[poisoned()], insts)
    }

    fn reads_lru_and_poison(cells: &Cells, insts: u64) -> Table {
        one_row(cells, &[lru(), poisoned()], insts)
    }

    fn reads_lru(cells: &Cells, insts: u64) -> Table {
        one_row(cells, &[lru()], insts)
    }

    #[test]
    fn a_failed_cell_fails_every_figure_that_reads_it_and_no_other() {
        let figures = vec![
            ("a", Figure::Plan(reads_poison)),
            ("b", Figure::Plan(reads_lru_and_poison)),
            ("c", Figure::Plan(reads_lru)),
        ];
        let plan = Plan::new(figures, INSTS).unwrap();
        assert_eq!((plan.requested, plan.distinct, plan.whole), (4, 2, 0));
        let cfg = SupervisorConfig {
            retries: 0,
            ..SupervisorConfig::default()
        };
        let produced = plan.run(&cfg, |_, _| Ok(())).unwrap();

        let poison_key = cell::key(&RunRequest::functional(
            &primary_suite()[0],
            &poisoned(),
            INSTS,
        ));
        let runs: Vec<_> = produced
            .report
            .cells
            .iter()
            .filter(|c| c.key == poison_key)
            .collect();
        assert_eq!(runs.len(), 1, "the poisoned cell is one cell of the sweep");
        assert_eq!(runs[0].attempts, 1, "and it ran once");
        assert_eq!(produced.report.failed(), 1);

        for (stem, table) in &produced.tables[..2] {
            let e = table.as_ref().expect_err(stem);
            assert!(e.contains(&poison_key), "{stem}: {e}");
            assert!(e.contains("injected fault"), "{stem}: {e}");
        }
        let (stem, table) = &produced.tables[2];
        assert_eq!(*stem, "c");
        let table = table.as_ref().expect("c reads no poisoned cell");
        assert!(table.rows[0].1[0] > 0.0);
    }

    #[test]
    fn a_figure_that_cannot_be_stored_is_not_produced() {
        let plan = Plan::new(vec![("c", Figure::Plan(reads_lru))], INSTS).unwrap();
        let produced = plan
            .run(&SupervisorConfig::default(), |_, stem| {
                Err(ExperimentError::Io(format!("cannot store {stem}")))
            })
            .unwrap();
        assert!(produced.report.is_complete());
        let e = produced.tables[0].1.as_ref().unwrap_err();
        assert!(e.contains("cannot store c"), "{e}");
    }
}
