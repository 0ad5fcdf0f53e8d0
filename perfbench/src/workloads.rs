//! The four workloads. Each runs closed loop on [`workers`] threads: a
//! fixed batch of independent jobs per round, the next job starting when
//! a worker frees, rounds repeating until the measuring time is spent.
//! Whole rounds only, so the job mix is the same whatever the speed.

use crate::checks::{self, Tally};
use crate::claims::{self, Covered, Role};
use crate::util::{closed_loop, mix, time_s, Pass, Spans};
use dufp::{Engine, JournalOptions, RunResult, SweepGrid, SweepJob, SweepRow};
use dufp_net::chaos::{run_scenario, ChaosConfig, ChaosFleet, SCENARIOS};
use dufp_net::ScenarioScore;
use dufp_scenario::{PolicyChoice, ScenarioSpec, ScorecardRow, EXAMPLE_TOML};
use dufp_sim::SimConfig;
use dufp_types::Watts;
use dufp_workloads::{cache, MaterializeCtx};
use std::path::{Path, PathBuf};

/// Worker threads of every closed loop and batch call: two, or fewer on
/// a host with fewer cores, so the load never exceeds `nproc` threads.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// The paper's ten modelled applications, in figure order.
pub const APPS: [&str; 10] = [
    "BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS",
];

/// Fleet size of fleet-chaos, and its budget scaled from the default
/// 8-agent 700 W shape so every 65 W floor stays fundable.
pub const CHAOS_AGENTS: usize = 256;

/// Shared state of one benchmark run.
pub struct Ctx {
    pub seed: u64,
    pub tally: Tally,
    pub spans: Spans,
    /// Scratch directory inside the checkout (journals).
    pub scratch: PathBuf,
}

/// What one round's closed-loop pass measured.
#[derive(Default)]
pub struct Round {
    /// Jobs completed.
    pub jobs: u64,
    /// Wall time of the pass.
    pub wall_s: f64,
    /// CPU time of the whole process during the pass.
    pub cpu_s: f64,
    /// Simulated (virtual) seconds the jobs covered.
    pub sim_s: f64,
    /// FleetCore allocator epochs the jobs ran.
    pub epochs: u64,
    /// Per-job wall latencies.
    pub latencies_ms: Vec<f64>,
    /// Per-job CPU time of the thread that ran the job.
    pub cpu_latencies_ms: Vec<f64>,
    /// Σ job busy ÷ (workers × wall).
    pub pool_efficiency: f64,
    /// Wall time of the same jobs through the crate's own parallel batch
    /// API (`run_sweep`, `run_rows`), where the workload has one.
    pub batch_wall_s: Option<f64>,
}

impl Round {
    fn of<R>(pass: &Pass<R>, jobs: u64, sim_s: f64, epochs: u64) -> Round {
        Round {
            jobs,
            wall_s: pass.wall_s,
            cpu_s: pass.cpu_s,
            sim_s,
            epochs,
            latencies_ms: pass.jobs.iter().map(|t| t.ms).collect(),
            cpu_latencies_ms: pass.jobs.iter().map(|t| t.cpu_ms).collect(),
            pool_efficiency: pass.efficiency(workers()),
            batch_wall_s: None,
        }
    }
}

/// A named workload.
pub trait Workload {
    /// Work done before the first job: grid expansion or spec parsing,
    /// phase-table materialisation, fleet construction. Timed.
    fn setup(&mut self, ctx: &Ctx);
    /// Runs round `r` (its inputs derive from the seed and `r`).
    fn round(&mut self, ctx: &Ctx, r: u64) -> Round;
    /// Modelled metrics of round 0: deterministic per seed.
    fn modelled(&self) -> Vec<(&'static str, f64, &'static str)>;
    /// Paper claims round 0 determines.
    fn claims(&self) -> Vec<Covered> {
        Vec::new()
    }
    /// Output checks that run outside the timed section.
    fn post_checks(&mut self, _ctx: &Ctx) {}
}

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper-grid" => Box::new(PaperGrid::default()),
        "phase-churn" => Box::new(PhaseChurn::default()),
        "fleet-day" => Box::new(FleetDay::default()),
        "fleet-chaos" => Box::new(FleetChaos::default()),
        _ => return None,
    })
}

fn sweep_row(job: &SweepJob, r: &RunResult) -> SweepRow {
    SweepRow {
        index: job.index,
        app: job.app.clone(),
        policy: job.policy.clone(),
        label: job.spec.controller.label(),
        slowdown_pct: job.slowdown_pct,
        seed: job.seed,
        exec_time_s: r.exec_time.value(),
        avg_pkg_power_w: r.avg_pkg_power.value(),
        avg_dram_power_w: r.avg_dram_power.value(),
        pkg_energy_j: r.pkg_energy.value(),
        dram_energy_j: r.dram_energy.value(),
    }
}

fn jsonl(rows: &[SweepRow]) -> Vec<u8> {
    dufp::to_jsonl_bytes(rows).expect("sweep rows serialize")
}

fn check_rows(ctx: &Ctx, rows: &[SweepRow]) {
    for r in rows {
        ctx.tally.check(checks::plausible_run(
            &r.label,
            r.exec_time_s,
            r.avg_pkg_power_w,
            r.avg_dram_power_w,
        ));
    }
}

/// Runs `job` under the per-tick oracle and checks its row is
/// byte-identical to the event engine's `row`.
fn check_against_tick(ctx: &Ctx, job: &SweepJob, row: &SweepRow) {
    let mut spec = job.spec.clone();
    spec.engine = Engine::Tick;
    spec.telemetry = false;
    ctx.tally.attempt(1);
    if let Some(r) = ctx.tally.ok("tick oracle", dufp::run_once(&spec, job.seed)) {
        let tick = sweep_row(job, &r);
        ctx.tally.check(checks::same_bytes(
            "event vs tick row",
            &jsonl(std::slice::from_ref(row)),
            &jsonl(&[tick]),
        ));
    }
}

fn modelled_grid(rows: &[SweepRow]) -> Vec<(&'static str, f64, &'static str)> {
    let covered = claims::covered(rows);
    vec![
        ("dufp_pkg_saved_pct", claims::dufp_pkg_saved_pct(rows), "%"),
        ("slowdown_excess_pp", claims::slowdown_excess_pp(rows), "pp"),
        (
            "paper_err_pp",
            claims::error_pp(&covered, Role::Calibration),
            "pp",
        ),
        (
            "paper_err_pp_heldout",
            claims::error_pp(&covered, Role::HeldOut),
            "pp",
        ),
    ]
}

// ---------------------------------------------------------------- paper-grid

/// CG × {default, duf, dufp, dufpf, dnpc} × {0, 5, 10, 15, 20} % × seeds on
/// one socket, event engine: `run_once` per job on the closed loop, after
/// the same grid through `run_sweep` with two workers, whose rows must match.
#[derive(Default)]
pub struct PaperGrid {
    round0: Vec<SweepRow>,
    round0_jobs: Vec<SweepJob>,
}

/// Seeds per paper-grid round (25 jobs each).
const GRID_SEEDS: u64 = 4;

impl PaperGrid {
    pub fn grid(seed: u64, r: u64) -> SweepGrid {
        SweepGrid {
            apps: vec!["CG".into()],
            policies: ["default", "duf", "dufp", "dufpf", "dnpc"]
                .map(String::from)
                .to_vec(),
            slowdowns_pct: vec![0.0, 5.0, 10.0, 15.0, 20.0],
            seeds: (0..GRID_SEEDS)
                .map(|k| mix(seed, r * GRID_SEEDS + k) >> 16)
                .collect(),
            sockets: 1,
            interval_ms: None,
            fault_plan: None,
            machine: None,
            engine: Engine::Event,
        }
    }
}

impl Workload for PaperGrid {
    fn setup(&mut self, ctx: &Ctx) {
        cache::clear();
        let grid = Self::grid(ctx.seed, 0);
        let jobs = ctx.tally.ok("expand", grid.expand()).unwrap_or_default();
        let arch = SimConfig::yeti_single_socket(0).arch;
        ctx.tally.ok(
            "materialize",
            cache::shared_by_name("CG", &MaterializeCtx::from_arch(&arch)),
        );
        self.round0_jobs = jobs;
    }

    fn round(&mut self, ctx: &Ctx, r: u64) -> Round {
        let grid = Self::grid(ctx.seed, r);
        let (out, batch_s) = time_s(|| {
            ctx.spans
                .span("core.run_sweep", r, || dufp::run_sweep(&grid, workers()))
        });
        let jobs = grid.expand().expect("grid expanded in setup");
        ctx.tally.attempt(2 * jobs.len() as u64);
        let Some(out) = ctx.tally.ok("run_sweep", out) else {
            return Round::default();
        };
        let traced = ctx.spans.is_on();
        let pass = closed_loop(&jobs, workers(), |i, job| {
            let mut spec = job.spec.clone();
            spec.telemetry = traced;
            ctx.spans.span("core.run_once", i as u64, || {
                dufp::run_once(&spec, job.seed)
            })
        });
        let mut rows = Vec::with_capacity(jobs.len());
        for (job, t) in jobs.iter().zip(&pass.jobs) {
            if let Some(res) = ctx.tally.ok("run_once", t.out.as_ref()) {
                rows.push(sweep_row(job, res));
            }
        }
        check_rows(ctx, &out.rows);
        ctx.tally.check(checks::same_bytes(
            "run_sweep vs closed-loop rows",
            &jsonl(&out.rows),
            &jsonl(&rows),
        ));
        if r == 0 {
            self.round0 = out.rows.clone();
        }
        let sim_s = rows.iter().map(|r| r.exec_time_s).sum();
        Round {
            batch_wall_s: Some(batch_s),
            ..Round::of(&pass, rows.len() as u64, sim_s, 0)
        }
    }

    fn modelled(&self) -> Vec<(&'static str, f64, &'static str)> {
        modelled_grid(&self.round0)
    }

    fn claims(&self) -> Vec<Covered> {
        claims::covered(&self.round0)
    }

    fn post_checks(&mut self, ctx: &Ctx) {
        // A seeded sample of three round-0 jobs against the oracle.
        let n = self.round0.len() as u64;
        for k in 0..3.min(n) {
            let i = (mix(ctx.seed, 0x7109 + k) % n) as usize;
            check_against_tick(ctx, &self.round0_jobs[i], &self.round0[i]);
        }
    }
}

// --------------------------------------------------------------- phase-churn

/// All ten apps × {default, duf, dufp} × {10, 20} % on four sockets, every
/// job journaled under a transient cap-write fault plan; a seeded share
/// is crashed mid-run and finished by `resume`.
#[derive(Default)]
pub struct PhaseChurn {
    round0: Vec<SweepRow>,
    round0_jobs: Vec<ChurnJob>,
    round0_results: Vec<Option<RunResult>>,
}

#[derive(Clone)]
pub struct ChurnJob {
    pub job: SweepJob,
    /// Fault plan without the crash rule (the uninterrupted twin).
    pub plan: String,
    /// Tick at which the job is killed, for the crashed share.
    pub crash_at: Option<u64>,
}

impl PhaseChurn {
    pub fn plan(seed: u64, r: u64) -> String {
        format!("seed={};write,reg=cap,p=0.02", mix(seed, 0xFA17 + r) >> 32)
    }

    pub fn jobs(seed: u64, r: u64) -> dufp_types::Result<Vec<ChurnJob>> {
        let plan = Self::plan(seed, r);
        let grid = SweepGrid {
            apps: APPS.map(String::from).to_vec(),
            policies: ["default", "duf", "dufp"].map(String::from).to_vec(),
            slowdowns_pct: vec![10.0, 20.0],
            seeds: vec![mix(seed, 0xC4A2 + r) >> 16],
            sockets: 4,
            interval_ms: None,
            fault_plan: Some(plan.clone()),
            machine: None,
            engine: Engine::Event,
        };
        let mut jobs = grid.expand()?;
        // A seeded sixth of the jobs is killed 30-80 % of the way through
        // its nominal run; the share is fixed so every round does the same
        // work.
        let m = MaterializeCtx::from_arch(&SimConfig::yeti(0).arch);
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| mix(seed ^ r, i as u64));
        let mut crash_at = vec![None; jobs.len()];
        for &i in &order[..jobs.len() / 6] {
            let nominal_ms = cache::shared_by_name(&jobs[i].app, &m)?
                .nominal_duration(&m)
                .value()
                * 1e3;
            let at = (nominal_ms
                * (0.3 + 0.5 * (mix(seed ^ r, 0xC2A5 + i as u64) % 1000) as f64 / 1000.0))
                as u64;
            jobs[i].spec.fault_plan = Some(
                dufp_msr::FaultPlan::parse(&format!("{plan};crash,at={at}")).expect("valid plan"),
            );
            crash_at[i] = Some(at);
        }
        Ok(jobs
            .into_iter()
            .zip(crash_at)
            .map(|(job, crash_at)| ChurnJob {
                job,
                plan: plan.clone(),
                crash_at,
            })
            .collect())
    }

    /// Runs one journaled job, resuming it after its crash if it has one.
    fn run(ctx: &Ctx, cj: &ChurnJob, dir: &Path, traced: bool) -> Result<RunResult, String> {
        let _ = std::fs::remove_dir_all(dir);
        let mut spec = cj.job.spec.clone();
        spec.telemetry = traced;
        let id = cj.job.index as u64;
        let first = ctx.spans.span("core.run_journaled", id, || {
            dufp::run_journaled(&spec, cj.job.seed, &journal_options(dir))
        });
        match (first, cj.crash_at) {
            (Ok(r), None) => Ok(r),
            (Err(e), Some(_)) if e.to_string().contains("fault plan crash") => ctx
                .spans
                .span("core.resume", id, || dufp::resume(dir))
                .map_err(|e| format!("resume: {e}")),
            (Ok(_), Some(at)) => Err(format!("job {id} finished before its crash at tick {at}")),
            (Err(e), _) => Err(format!("run_journaled: {e}")),
        }
    }
}

/// Journal options of the timed loop: every interval is appended and a
/// crashed job replays the journal, but nothing is synced to the device
/// (no per-append fsync, no checkpoints). Device sync latency on a shared
/// host swings run to run by more than any code change would; the
/// per-layer `journal.append_ns.*` and `core.journal.resume_ms` probes
/// measure the synced paths with the default options instead.
pub fn journal_options(dir: &Path) -> JournalOptions {
    JournalOptions {
        fsync: dufp_journal::FsyncPolicy::Never,
        checkpoint_every: u64::MAX,
        ..JournalOptions::new(dir)
    }
}

impl Workload for PhaseChurn {
    fn setup(&mut self, ctx: &Ctx) {
        cache::clear();
        self.round0_jobs = ctx
            .tally
            .ok("expand", Self::jobs(ctx.seed, 0))
            .unwrap_or_default();
        let ctx_m = MaterializeCtx::from_arch(&SimConfig::yeti(0).arch);
        for app in APPS {
            ctx.tally
                .ok("materialize", cache::shared_by_name(app, &ctx_m));
        }
    }

    fn round(&mut self, ctx: &Ctx, r: u64) -> Round {
        let jobs = if r == 0 {
            self.round0_jobs.clone()
        } else {
            Self::jobs(ctx.seed, r).expect("grid expanded in setup")
        };
        ctx.tally.attempt(jobs.len() as u64);
        let traced = ctx.spans.is_on();
        let pass = closed_loop(&jobs, workers(), |i, cj| {
            let dir = ctx.scratch.join(format!("churn-{i}"));
            let out = Self::run(ctx, cj, &dir, traced);
            let _ = std::fs::remove_dir_all(&dir);
            out
        });
        let mut rows = Vec::with_capacity(jobs.len());
        let mut results = Vec::with_capacity(jobs.len());
        for (cj, t) in jobs.iter().zip(&pass.jobs) {
            let res = ctx
                .tally
                .ok("phase-churn job", t.out.as_ref().map_err(String::as_str));
            if let Some(res) = res {
                rows.push(sweep_row(&cj.job, res));
            }
            results.push(res.cloned());
        }
        check_rows(ctx, &rows);
        let sim_s = rows.iter().map(|r| r.exec_time_s).sum();
        let round = Round::of(&pass, rows.len() as u64, sim_s, 0);
        if r == 0 {
            self.round0 = rows;
            self.round0_results = results;
        }
        round
    }

    fn modelled(&self) -> Vec<(&'static str, f64, &'static str)> {
        modelled_grid(&self.round0)
    }

    fn claims(&self) -> Vec<Covered> {
        claims::covered(&self.round0)
    }

    fn post_checks(&mut self, ctx: &Ctx) {
        let strip = |r: &RunResult| {
            let mut r = r.clone();
            r.telemetry = None;
            serde_json::to_vec(&r).expect("run result serializes")
        };
        // Crashed-then-resumed results equal their uninterrupted twins.
        for (cj, res) in self.round0_jobs.iter().zip(&self.round0_results) {
            let (Some(_), Some(res)) = (cj.crash_at, res) else {
                continue;
            };
            let mut spec = cj.job.spec.clone();
            spec.fault_plan = Some(dufp_msr::FaultPlan::parse(&cj.plan).expect("valid plan"));
            ctx.tally.attempt(1);
            if let Some(twin) = ctx
                .tally
                .ok("uninterrupted twin", dufp::run_once(&spec, cj.job.seed))
            {
                ctx.tally.check(checks::same_bytes(
                    "resumed vs uninterrupted result",
                    &strip(res),
                    &strip(&twin),
                ));
            }
        }
        // A seeded sample of two uncrashed jobs against the oracle.
        let plain: Vec<usize> = (0..self.round0_jobs.len())
            .filter(|&i| self.round0_jobs[i].crash_at.is_none())
            .collect();
        for k in 0..2u64.min(plain.len() as u64) {
            let i = plain[(mix(ctx.seed, 0x71C4 + k) % plain.len() as u64) as usize];
            if let Some(row) = self.round0.iter().find(|r| r.index == i) {
                check_against_tick(ctx, &self.round0_jobs[i].job, row);
            }
        }
    }
}

// ----------------------------------------------------------------- fleet-day

/// The built-in heterogeneous diurnal day × {uncapped, static-split,
/// demand-based}, seeds batched per round: `run_one` per (seed, policy) on
/// the closed loop, after the same seeds through `run_rows` with two
/// workers, whose scorecards must match.
#[derive(Default)]
pub struct FleetDay {
    spec: Option<ScenarioSpec>,
    round0: Vec<ScorecardRow>,
}

pub const FLEET_POLICIES: [PolicyChoice; 3] = [
    PolicyChoice::Uncapped,
    PolicyChoice::StaticSplit,
    PolicyChoice::DemandBased,
];

/// Seeds per fleet-day round.
pub const DAY_SEEDS: u64 = 8;

impl FleetDay {
    fn seeds(seed: u64, r: u64) -> Vec<u64> {
        (0..DAY_SEEDS)
            .map(|k| mix(seed, 0xDA7 + r * DAY_SEEDS + k) >> 16)
            .collect()
    }
}

impl Workload for FleetDay {
    fn setup(&mut self, ctx: &Ctx) {
        cache::clear();
        let Some(spec) = ctx.tally.ok("spec", ScenarioSpec::from_toml(EXAMPLE_TOML)) else {
            return;
        };
        for node in &spec.nodes {
            let class = spec
                .class_of(node)
                .expect("validated spec resolves machines");
            for app in &node.tenants {
                ctx.tally.ok(
                    "materialize",
                    cache::shared_by_name(app, &class.materialize_ctx()),
                );
            }
        }
        self.spec = Some(spec);
    }

    fn round(&mut self, ctx: &Ctx, r: u64) -> Round {
        let spec = self.spec.as_ref().expect("set up");
        let seeds = Self::seeds(ctx.seed, r);
        ctx.tally
            .attempt(2 * (seeds.len() * FLEET_POLICIES.len()) as u64);
        let (rows, batch_s) = time_s(|| {
            seeds
                .iter()
                .map(|&s| {
                    ctx.spans.span("scenario.run_rows", s, || {
                        dufp_scenario::run_rows(spec, s, &FLEET_POLICIES, workers())
                    })
                })
                .collect::<Vec<_>>()
        });
        let rows: Vec<ScorecardRow> = rows
            .into_iter()
            .filter_map(|r| ctx.tally.ok("run_rows", r))
            .flatten()
            .collect();
        // The same (seed, policy) runs once more, one job per run_one call.
        let pairs: Vec<(u64, PolicyChoice)> = seeds
            .iter()
            .flat_map(|&s| FLEET_POLICIES.map(|p| (s, p)))
            .collect();
        let pass = closed_loop(&pairs, workers(), |i, &(s, p)| {
            ctx.spans.span("scenario.run_one", i as u64, || {
                dufp_scenario::run_one(spec, s, p).map(|r| r.row)
            })
        });
        let mut again = Vec::with_capacity(pairs.len());
        for t in &pass.jobs {
            if let Some(row) = ctx.tally.ok("run_one", t.out.as_ref()) {
                again.push(row.clone());
            }
        }
        // Score the single runs against their baselines as run_rows does.
        for chunk in again.chunks_mut(FLEET_POLICIES.len()) {
            let (base_e, base_v) = (chunk[0].fleet_energy_j, chunk[0].slo_violations);
            for row in chunk.iter_mut() {
                row.baseline_energy_j = base_e;
                row.baseline_slo_violations = base_v;
                row.energy_saved_pct = 100.0 * (base_e - row.fleet_energy_j) / base_e;
            }
        }
        ctx.tally.check(checks::scorecard(&rows));
        let bytes = |rows: &[ScorecardRow]| {
            dufp_scenario::to_jsonl_bytes(rows).expect("scorecard serializes")
        };
        ctx.tally.check(checks::same_bytes(
            "run_rows vs run_one scorecards",
            &bytes(&rows),
            &bytes(&again),
        ));
        let epochs = rows
            .iter()
            .filter(|r| r.policy != PolicyChoice::Uncapped.label())
            .map(|r| r.intervals / u64::from(spec.epoch_intervals))
            .sum();
        if r == 0 {
            self.round0 = rows.clone();
        }
        let sim_s = again.iter().map(|r| r.duration_s).sum();
        Round {
            batch_wall_s: Some(batch_s),
            ..Round::of(&pass, again.len() as u64, sim_s, epochs)
        }
    }

    fn modelled(&self) -> Vec<(&'static str, f64, &'static str)> {
        // The best capped policy, by mean energy saved over the round-0 seeds.
        let mean = |p: PolicyChoice, f: fn(&ScorecardRow) -> f64| {
            let v: Vec<f64> = self
                .round0
                .iter()
                .filter(|r| r.policy == p.label())
                .map(f)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let best = [PolicyChoice::StaticSplit, PolicyChoice::DemandBased]
            .into_iter()
            .max_by(|a, b| {
                mean(*a, |r| r.energy_saved_pct).total_cmp(&mean(*b, |r| r.energy_saved_pct))
            })
            .expect("two policies");
        vec![
            (
                "fleet_energy_saved_pct",
                mean(best, |r| r.energy_saved_pct),
                "%",
            ),
            (
                "slo_violation_pct",
                mean(best, |r| r.slo_violation_pct),
                "%",
            ),
        ]
    }
}

// --------------------------------------------------------------- fleet-chaos

/// The built-in 10-scenario chaos matrix at a 256-agent fleet, one
/// scenario run per job, each single-threaded on the virtual clock.
#[derive(Default)]
pub struct FleetChaos {
    round0: Vec<ScenarioScore>,
}

/// The HA scenarios `takeover_epochs` averages over.
pub const HA_SCENARIOS: [&str; 3] = [
    "coordinator-kill",
    "takeover-partition",
    "stale-primary-return",
];

impl FleetChaos {
    pub fn config(seed: u64) -> ChaosConfig {
        let mut cfg = ChaosConfig::new(seed);
        let scale = CHAOS_AGENTS as f64 / cfg.agents as f64;
        cfg.agents = CHAOS_AGENTS;
        cfg.budget = Watts(cfg.budget.value() * scale);
        cfg
    }
}

impl Workload for FleetChaos {
    fn setup(&mut self, ctx: &Ctx) {
        let cfg = Self::config(mix(ctx.seed, 0xC0A5));
        if ctx.tally.ok("chaos config", cfg.validate()).is_some() {
            for sc in SCENARIOS {
                ctx.tally
                    .ok("chaos fleet", ChaosFleet::new(cfg.clone(), sc));
            }
        }
    }

    fn round(&mut self, ctx: &Ctx, r: u64) -> Round {
        let cfg = Self::config(mix(ctx.seed, 0xC0A5 + r));
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        ctx.tally.attempt(names.len() as u64);
        let pass = closed_loop(&names, workers(), |i, name| {
            ctx.spans.span("net.chaos.run_scenario", i as u64, || {
                run_scenario(&cfg, name)
            })
        });
        let cards: Vec<ScenarioScore> = pass
            .jobs
            .iter()
            .filter_map(|t| ctx.tally.ok("run_scenario", t.out.as_ref()).cloned())
            .collect();
        for c in &cards {
            ctx.tally.check(checks::chaos_card(c));
        }
        let epochs: u64 = cards.iter().map(|c| c.epochs).sum();
        // Chaos epochs are one virtual second each.
        let round = Round::of(&pass, cards.len() as u64, epochs as f64, epochs);
        if r == 0 {
            self.round0 = cards;
        }
        round
    }

    fn modelled(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ha: Vec<f64> = self
            .round0
            .iter()
            .filter(|c| HA_SCENARIOS.contains(&c.scenario.as_str()))
            .filter_map(|c| c.takeover_epochs.map(|t| t as f64))
            .collect();
        vec![(
            "takeover_epochs",
            ha.iter().sum::<f64>() / ha.len() as f64,
            "epochs",
        )]
    }
}
