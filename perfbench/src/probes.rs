//! Per-layer probes for the traced run.
//!
//! Layers the runner times (`runner.tick_us`, `sample_us`, `control_us`
//! and the resilience counters) are read from telemetry-enabled jobs of
//! the workload they belong to. Layers nothing times are probed by
//! calling their public function with that workload's own shapes: the
//! same apps, journal record size, scenario spec and fleet sizes. The
//! probe set is the same in every traced run, so each metric keeps one
//! meaning whichever workload is traced.

use crate::util::{closed_loop, mix, time_s};
use crate::workloads::{
    Ctx, FleetChaos, PaperGrid, PhaseChurn, APPS, CHAOS_AGENTS, FLEET_POLICIES,
};
use dufp::{Engine, JournalOptions, JournalRecord, RunResult, SocketRegs, SweepJob};
use dufp_cluster::allocator::NodeObservation;
use dufp_cluster::{AllocatorPolicy, DemandBased, StaticSplit};
use dufp_journal::{read_records, FsyncPolicy, JournalWriter};
use dufp_net::chaos::SCENARIOS;
use dufp_net::fleet_journal::{recover, FleetJournal};
use dufp_net::{
    CoordinatorConfig, Dir, FleetCore, Frame, GrantKind, NetFaultInjector, NetFaultPlan,
};
use dufp_scenario::{LoadProfile, ScenarioSpec, EXAMPLE_TOML};
use dufp_sim::{SharedSocketSim, SimConfig};
use dufp_telemetry::Telemetry;
use dufp_types::{Seconds, Watts};
use dufp_workloads::{cache, MaterializeCtx};
use std::hint::black_box;
use std::sync::Arc;

/// One per-layer number with its sample count and what it is a share or
/// rate of.
pub struct Layer {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub count: u64,
    pub base: String,
}

impl Layer {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        count: u64,
        base: impl Into<String>,
    ) -> Self {
        Layer {
            name,
            value,
            unit,
            count,
            base: base.into(),
        }
    }
}

/// Every per-layer metric name, in report order.
pub const NAMES: [&str; 48] = [
    "core.sweep.expand_ms",
    "core.sweep.pool_efficiency",
    "core.runner.sim_share.paper-grid",
    "core.runner.sample_share.paper-grid",
    "core.runner.control_share.paper-grid",
    "core.runner.other_share.paper-grid",
    "sim.event_ns_per_tick",
    "sim.oracle_ns_per_tick",
    "sim.event_speedup",
    "counters.sample_ns",
    "control.on_interval_ns.duf",
    "control.on_interval_ns.dufp",
    "control.on_interval_ns.dufpf",
    "control.on_interval_ns.dnpc",
    "core.runner.sim_share.phase-churn",
    "core.runner.sample_share.phase-churn",
    "core.runner.control_share.phase-churn",
    "core.runner.other_share.phase-churn",
    "control.retries_per_job",
    "control.degradations_per_job",
    "core.watchdog_resets_per_job",
    "core.journal.resume_ms",
    "workloads.materialize_ms",
    "journal.append_ns.never",
    "journal.append_ns.every8",
    "journal.append_ns.always",
    "journal.read_ns_per_record",
    "scenario.spec_parse_us",
    "scenario.run_one_ms.uncapped",
    "scenario.run_one_ms.static-split",
    "scenario.run_one_ms.demand-based",
    "scenario.baseline_share",
    "scenario.arrival_ns",
    "sim.shared.ns_per_step",
    "telemetry.gauge_lookup_ns",
    "cluster.allocate_ns.static-split.3",
    "cluster.allocate_ns.static-split.256",
    "cluster.allocate_ns.demand-based.3",
    "cluster.allocate_ns.demand-based.256",
    "net.core.epoch_ns.3",
    "net.core.epoch_ns.256",
    "net.core.on_report_ns",
    "net.wire.encode_ns",
    "net.wire.decode_ns",
    "net.fleet_journal.recover_events_per_s",
    "net.chaos.frames_delivered_ratio",
    "telemetry.trace_overhead_pct",
    "bench.pool_efficiency",
];

/// Runs every probe. Each records a span named after its layer.
pub fn run(ctx: &Ctx) -> Vec<Layer> {
    let mut out = Vec::new();
    ctx.spans
        .span("probe.paper-grid", 0, || grid(ctx, &mut out));
    ctx.spans
        .span("probe.phase-churn", 0, || churn(ctx, &mut out));
    ctx.spans
        .span("probe.fleet-day", 0, || fleet_day(ctx, &mut out));
    ctx.spans
        .span("probe.fleet-chaos", 0, || fleet_chaos(ctx, &mut out));
    out
}

/// Histogram sums (µs) and counts of the runner's stage timers.
#[derive(Default)]
struct Stages {
    wall_us: f64,
    ticks: f64,
    tick: (f64, u64),
    sample: (f64, u64),
    control: (f64, u64),
    retries: u64,
    degradations: u64,
    watchdog: u64,
    jobs: u64,
}

impl Stages {
    fn add(&mut self, r: &RunResult, wall_s: f64) {
        self.jobs += 1;
        self.wall_us += wall_s * 1e6;
        self.ticks += (r.exec_time.value() * 1e3).round();
        let Some(tel) = &r.telemetry else { return };
        for h in &tel.metrics.histograms {
            let slot = match h.name.as_str() {
                "runner.tick_us" => &mut self.tick,
                "runner.sample_us" => &mut self.sample,
                "runner.control_us" => &mut self.control,
                _ => continue,
            };
            slot.0 += h.sum;
            slot.1 += h.count;
        }
        for c in &tel.metrics.counters {
            match c.name.as_str() {
                "actuation_retries_total" => self.retries += c.value,
                "degradations_total" => self.degradations += c.value,
                "watchdog_resets_total" => self.watchdog += c.value,
                _ => {}
            }
        }
    }

    fn shares(&self, out: &mut Vec<Layer>, names: [&'static str; 4], workload: &str) {
        let base = format!(
            "of the wall time of {} telemetry-enabled {workload} jobs",
            self.jobs
        );
        let other = self.wall_us - self.tick.0 - self.sample.0 - self.control.0;
        for (name, part) in
            names
                .into_iter()
                .zip([self.tick.0, self.sample.0, self.control.0, other])
        {
            out.push(Layer::new(
                name,
                part / self.wall_us,
                "share",
                self.jobs,
                base.clone(),
            ));
        }
    }
}

fn run_timed(ctx: &Ctx, spec: &dufp::ExperimentSpec, seed: u64) -> Option<(RunResult, f64)> {
    ctx.tally.attempt(1);
    let (r, s) = time_s(|| {
        ctx.spans
            .span("core.run_once", seed, || dufp::run_once(spec, seed))
    });
    ctx.tally.ok("probe job", r).map(|r| (r, s))
}

fn grid(ctx: &Ctx, out: &mut Vec<Layer>) {
    let g = PaperGrid::grid(ctx.seed, 0);
    let reps = 20;
    let (_, s) = time_s(|| (0..reps).for_each(|_| drop(black_box(g.expand()))));
    out.push(Layer::new(
        "core.sweep.expand_ms",
        s * 1e3 / reps as f64,
        "ms",
        reps,
        format!("per expansion of the {}-job round-0 grid", g.len()),
    ));

    // run_sweep's pool against the busy time of the same jobs.
    let (r, sweep_s) = time_s(|| dufp::run_sweep(&g, crate::workloads::workers()));
    ctx.tally.attempt(2 * g.len() as u64);
    ctx.tally.ok("probe run_sweep", r);
    let all = g.expand().expect("grid expands");
    let pass = closed_loop(&all, crate::workloads::workers(), |_, j| {
        dufp::run_once(&j.spec, j.seed).map(drop)
    });
    for t in &pass.jobs {
        ctx.tally.ok("probe job", t.out.as_ref());
    }
    let busy: f64 = pass.jobs.iter().map(|t| t.ms / 1e3).sum();
    out.push(Layer::new(
        "core.sweep.pool_efficiency",
        busy / (crate::workloads::workers() as f64 * sweep_s),
        "share",
        g.len() as u64,
        "Σ busy time of the round-0 grid's jobs ÷ (workers × run_sweep wall time)",
    ));

    // One seed of the policies at 10 % and 20 %, under both engines.
    let jobs: Vec<SweepJob> = g
        .expand()
        .expect("grid expands")
        .into_iter()
        .filter(|j| j.seed == g.seeds[0] && (j.slowdown_pct == 10.0 || j.slowdown_pct == 20.0))
        .collect();
    let mut event = Stages::default();
    let mut oracle = Stages::default();
    let mut control: Vec<(&str, f64, u64)> = Vec::new();
    for job in &jobs {
        let mut spec = job.spec.clone();
        spec.telemetry = true;
        if let Some((r, s)) = run_timed(ctx, &spec, job.seed) {
            let before = event.control;
            event.add(&r, s);
            control.push((
                job.policy.as_str(),
                event.control.0 - before.0,
                event.control.1 - before.1,
            ));
        }
        spec.engine = Engine::Tick;
        if let Some((r, s)) = run_timed(ctx, &spec, job.seed) {
            oracle.add(&r, s);
        }
    }
    event.shares(
        out,
        [
            "core.runner.sim_share.paper-grid",
            "core.runner.sample_share.paper-grid",
            "core.runner.control_share.paper-grid",
            "core.runner.other_share.paper-grid",
        ],
        "paper-grid",
    );
    let ev = event.tick.0 * 1e3 / event.ticks;
    let or = oracle.tick.0 * 1e3 / oracle.ticks;
    let ticks = format!(
        "per simulated 1 ms tick over {} jobs ({} ticks)",
        event.jobs, event.ticks
    );
    out.push(Layer::new(
        "sim.event_ns_per_tick",
        ev,
        "ns",
        event.ticks as u64,
        ticks.clone(),
    ));
    out.push(Layer::new(
        "sim.oracle_ns_per_tick",
        or,
        "ns",
        oracle.ticks as u64,
        ticks + " under Engine::Tick",
    ));
    out.push(Layer::new(
        "sim.event_speedup",
        or / ev,
        "x",
        event.jobs,
        "oracle ÷ event ns per tick, same jobs",
    ));
    out.push(Layer::new(
        "counters.sample_ns",
        event.sample.0 * 1e3 / event.sample.1 as f64,
        "ns",
        event.sample.1,
        "per socket sample (runner.sample_us)",
    ));
    for (policy, name) in [
        ("duf", "control.on_interval_ns.duf"),
        ("dufp", "control.on_interval_ns.dufp"),
        ("dufpf", "control.on_interval_ns.dufpf"),
        ("dnpc", "control.on_interval_ns.dnpc"),
    ] {
        let (sum, n) = control
            .iter()
            .filter(|c| c.0 == policy)
            .fold((0.0, 0), |a, c| (a.0 + c.1, a.1 + c.2));
        out.push(Layer::new(
            name,
            sum * 1e3 / n as f64,
            "ns",
            n,
            "per on_interval call (runner.control_us)",
        ));
    }
}

fn churn(ctx: &Ctx, out: &mut Vec<Layer>) {
    let jobs = PhaseChurn::jobs(ctx.seed, 0).expect("grid expands");
    // The bursty and alternating apps under DUFP @ 20 %, run without the
    // crash rule where the workload kills them.
    let pick: Vec<_> = jobs
        .iter()
        .filter(|j| {
            ["LAMMPS", "UA", "CG"].contains(&j.job.app.as_str())
                && j.job.policy == "dufp"
                && j.job.slowdown_pct == 20.0
        })
        .collect();
    let mut stages = Stages::default();
    for (i, cj) in pick.iter().enumerate() {
        let mut spec = cj.job.spec.clone();
        spec.telemetry = true;
        spec.fault_plan = Some(dufp_msr::FaultPlan::parse(&cj.plan).expect("valid plan"));
        let dir = ctx.scratch.join(format!("probe-churn-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        ctx.tally.attempt(1);
        let (r, s) = time_s(|| dufp::run_journaled(&spec, cj.job.seed, &JournalOptions::new(&dir)));
        if let Some(r) = ctx.tally.ok("probe journaled job", r) {
            stages.add(&r, s);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    stages.shares(
        out,
        [
            "core.runner.sim_share.phase-churn",
            "core.runner.sample_share.phase-churn",
            "core.runner.control_share.phase-churn",
            "core.runner.other_share.phase-churn",
        ],
        "phase-churn",
    );
    let per_job = format!(
        "per telemetry-enabled phase-churn job ({} jobs)",
        stages.jobs
    );
    let n = stages.jobs as f64;
    out.push(Layer::new(
        "control.retries_per_job",
        stages.retries as f64 / n,
        "count",
        stages.retries,
        per_job.clone(),
    ));
    out.push(Layer::new(
        "control.degradations_per_job",
        stages.degradations as f64 / n,
        "count",
        stages.degradations,
        per_job.clone(),
    ));
    out.push(Layer::new(
        "core.watchdog_resets_per_job",
        stages.watchdog as f64 / n,
        "count",
        stages.watchdog,
        per_job,
    ));

    // Resume of the same jobs killed six seconds in.
    let mut resume_s = Vec::new();
    for (i, cj) in pick.iter().enumerate() {
        let mut spec = cj.job.spec.clone();
        spec.fault_plan = Some(
            dufp_msr::FaultPlan::parse(&format!("{};crash,at=6000", cj.plan)).expect("valid plan"),
        );
        let dir = ctx.scratch.join(format!("probe-resume-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        ctx.tally.attempt(1);
        if dufp::run_journaled(&spec, cj.job.seed, &JournalOptions::new(&dir)).is_ok() {
            ctx.tally.fail("probe job finished before its crash");
        } else {
            let (r, s) = time_s(|| {
                ctx.spans
                    .span("core.resume", i as u64, || dufp::resume(&dir))
            });
            if ctx.tally.ok("probe resume", r).is_some() {
                resume_s.push(s);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let n = resume_s.len();
    out.push(Layer::new(
        "core.journal.resume_ms",
        resume_s.iter().sum::<f64>() * 1e3 / n as f64,
        "ms",
        n as u64,
        "per resume() of a job killed at tick 6000, past its first checkpoint",
    ));

    let m = MaterializeCtx::from_arch(&SimConfig::yeti(0).arch);
    let reps = 3;
    let (_, s) = time_s(|| {
        for _ in 0..reps {
            cache::clear();
            for app in APPS {
                ctx.tally.ok("materialize", cache::shared_by_name(app, &m));
            }
        }
    });
    out.push(Layer::new(
        "workloads.materialize_ms",
        s * 1e3 / (reps * APPS.len()) as f64,
        "ms",
        (reps * APPS.len()) as u64,
        "per cold shared_by_name (app × YETI socket)",
    ));

    // Journal appends at a 4-socket interval record's size.
    let payload = JournalRecord::Interval {
        index: 1234,
        tick: 1_234_000,
        sockets: vec![
            SocketRegs {
                uncore: 0x1818,
                limit: 0x0038_83E8_0015_83E8,
                perf_ctl: 0x1C00
            };
            4
        ],
    }
    .encode()
    .expect("record encodes");
    let mut never_dir = None;
    for (policy, name, n) in [
        (FsyncPolicy::Never, "journal.append_ns.never", 20_000u64),
        (FsyncPolicy::EveryN(8), "journal.append_ns.every8", 2_000),
        (FsyncPolicy::Always, "journal.append_ns.always", 100),
    ] {
        let dir = ctx.scratch.join(format!("probe-journal-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let Some(mut w) = ctx
            .tally
            .ok("journal create", JournalWriter::create(&dir, policy))
        else {
            continue;
        };
        let (r, s) = time_s(|| (0..n).try_for_each(|_| w.append(black_box(&payload))));
        ctx.tally.ok("journal append", r);
        out.push(Layer::new(
            name,
            s * 1e9 / n as f64,
            "ns",
            n,
            format!(
                "per append of a {}-byte 4-socket interval record",
                payload.len()
            ),
        ));
        if matches!(policy, FsyncPolicy::Never) {
            never_dir = Some(dir);
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    if let Some(dir) = never_dir {
        let (r, s) = time_s(|| read_records(&dir));
        let n = ctx
            .tally
            .ok("journal read", r)
            .map_or(0, |o| o.records.len());
        out.push(Layer::new(
            "journal.read_ns_per_record",
            s * 1e9 / n as f64,
            "ns",
            n as u64,
            "per record of read_records over the never-fsync journal",
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn fleet_day(ctx: &Ctx, out: &mut Vec<Layer>) {
    let reps = 50;
    let (spec, s) = time_s(|| {
        for _ in 1..reps {
            drop(black_box(ScenarioSpec::from_toml(black_box(EXAMPLE_TOML))));
        }
        ScenarioSpec::from_toml(black_box(EXAMPLE_TOML))
    });
    out.push(Layer::new(
        "scenario.spec_parse_us",
        s * 1e6 / reps as f64,
        "us",
        reps,
        "per parse of the built-in example spec",
    ));
    let Some(spec) = ctx.tally.ok("spec", spec) else {
        return;
    };
    let seed = mix(ctx.seed, 0xDA7) >> 16;

    let mut uncapped_s = 0.0;
    let reps = 5;
    for (p, name) in FLEET_POLICIES.into_iter().zip([
        "scenario.run_one_ms.uncapped",
        "scenario.run_one_ms.static-split",
        "scenario.run_one_ms.demand-based",
    ]) {
        ctx.tally.attempt(reps);
        let (_, s) = time_s(|| {
            for _ in 0..reps {
                ctx.tally.ok(
                    "probe run_one",
                    ctx.spans.span("scenario.run_one", 0, || {
                        dufp_scenario::run_one(&spec, seed, p)
                    }),
                );
            }
        });
        let s = s / reps as f64;
        if p == FLEET_POLICIES[0] {
            uncapped_s = s;
        }
        out.push(Layer::new(
            name,
            s * 1e3,
            "ms",
            reps,
            "per run_one of the example spec",
        ));
    }
    ctx.tally.attempt(FLEET_POLICIES.len() as u64);
    let (r, s) = time_s(|| {
        dufp_scenario::run_rows(&spec, seed, &FLEET_POLICIES, crate::workloads::workers())
    });
    ctx.tally.ok("probe run_rows", r);
    out.push(Layer::new(
        "scenario.baseline_share",
        uncapped_s / s,
        "share",
        1,
        "serial uncapped baseline ÷ run_rows wall time",
    ));

    let profile = LoadProfile::new(&spec.arrival, seed, spec.duration_s);
    let n = 200_000u64;
    let (acc, s) = time_s(|| {
        (0..n)
            .map(|i| profile.intensity(black_box(i as f64 * 1e-3), 0.5))
            .sum::<f64>()
    });
    black_box(acc);
    out.push(Layer::new(
        "scenario.arrival_ns",
        s * 1e9 / n as f64,
        "ns",
        n,
        "per LoadProfile::intensity query",
    ));

    // Each node's shared socket stepped through the day as run_one steps it.
    let dt = spec.interval_ms as f64 / 1000.0;
    let intervals = (spec.duration_s / dt).ceil() as u64;
    let mut steps = 0u64;
    let mut step_s = 0.0;
    for (i, node) in spec.nodes.iter().enumerate() {
        let class = spec
            .class_of(node)
            .expect("validated spec resolves machines");
        let weights = ScenarioSpec::weights_of(node);
        let tenants: Vec<_> = node
            .tenants
            .iter()
            .zip(&weights)
            .map(|(app, w)| {
                let table = cache::shared_by_name(app, &class.materialize_ctx())
                    .expect("example tenants resolve");
                (
                    app.clone(),
                    Arc::new(table.scaled(*w).expect("weights are positive")),
                )
            })
            .collect();
        let Some(mut sim) = ctx.tally.ok(
            "shared socket",
            SharedSocketSim::new(class.shared_cfg(), tenants),
        ) else {
            continue;
        };
        for tick in 0..intervals {
            let v = profile.intensity(tick as f64 * dt, i as f64 * spec.arrival.node_stagger_s);
            for j in 0..sim.tenant_count() {
                sim.set_intensity(j, v);
            }
            let (_, s) =
                time_s(|| (0..5).for_each(|_| drop(black_box(sim.step_fast(Seconds(dt / 5.0))))));
            step_s += s;
            steps += 5;
        }
    }
    out.push(Layer::new(
        "sim.shared.ns_per_step",
        step_s * 1e9 / steps as f64,
        "ns",
        steps,
        "per SharedSocketSim::step_fast over the example day",
    ));

    let tel = Telemetry::enabled();
    let n = 20_000u64;
    let (_, s) = time_s(|| {
        for k in 0..n {
            let (i, j) = (k % 3, k % 2);
            tel.gauge(&format!("scenario.node{i}.tenant{j}.backlog_s"))
                .set(k as f64);
        }
    });
    out.push(Layer::new(
        "telemetry.gauge_lookup_ns",
        s * 1e9 / n as f64,
        "ns",
        n,
        "per formatted gauge lookup + set, as run_one does per tenant per interval",
    ));

    for (policy, name3, name256) in [
        (
            "static-split",
            "cluster.allocate_ns.static-split.3",
            "cluster.allocate_ns.static-split.256",
        ),
        (
            "demand-based",
            "cluster.allocate_ns.demand-based.3",
            "cluster.allocate_ns.demand-based.256",
        ),
    ] {
        for (nodes, name, budget) in [
            (3usize, name3, spec.budget_w),
            (CHAOS_AGENTS, name256, FleetChaos::config(0).budget.value()),
        ] {
            let obs: Vec<NodeObservation> = (0..nodes)
                .map(|k| NodeObservation {
                    ceiling: Watts(budget / nodes as f64),
                    consumption: Watts(60.0 + (mix(ctx.seed, k as u64) % 60) as f64),
                    active: k % 7 != 0,
                })
                .collect();
            let mut alloc: Box<dyn AllocatorPolicy> = if policy == "static-split" {
                Box::new(StaticSplit)
            } else {
                Box::new(DemandBased::default())
            };
            let reps = 200_000 / nodes as u64;
            let (_, s) = time_s(|| {
                (0..reps)
                    .for_each(|_| drop(black_box(alloc.allocate(Watts(budget), black_box(&obs)))))
            });
            out.push(Layer::new(
                name,
                s * 1e9 / reps as f64,
                "ns",
                reps,
                format!("per allocate() over {nodes} nodes"),
            ));
        }
    }
}

fn fleet_chaos(ctx: &Ctx, out: &mut Vec<Layer>) {
    let budget = FleetChaos::config(0).budget;
    let mut on_report = (0.0, 0u64);
    for (nodes, name, budget) in [
        (3usize, "net.core.epoch_ns.3", Watts(380.0)),
        (CHAOS_AGENTS, "net.core.epoch_ns.256", budget),
    ] {
        let cfg = CoordinatorConfig::new("probe:virtual", budget);
        let mut core = FleetCore::new(&cfg, Telemetry::disabled());
        for k in 0..nodes {
            ctx.tally.ok(
                "admit",
                core.admit(format!("n{k}"), "CG".into(), Watts(65.0), Watts(125.0), 0),
            );
        }
        let epochs = 40u64;
        let mut epoch_s = 0.0;
        for e in 1..=epochs {
            let now = e * 1000;
            let (_, s) = time_s(|| {
                for k in 0..nodes {
                    let demand = 65.0 + (mix(ctx.seed ^ e, k as u64) % 60) as f64;
                    black_box(core.on_report(k, e, Watts(100.0), Watts(demand), true, now));
                }
            });
            if nodes == CHAOS_AGENTS {
                on_report = (on_report.0 + s, on_report.1 + nodes as u64);
            }
            let (_, s) = time_s(|| drop(black_box(core.epoch_once(now))));
            epoch_s += s;
        }
        out.push(Layer::new(
            name,
            epoch_s * 1e9 / epochs as f64,
            "ns",
            epochs,
            format!("per FleetCore::epoch_once over {nodes} reporting nodes"),
        ));
    }
    out.push(Layer::new(
        "net.core.on_report_ns",
        on_report.0 * 1e9 / on_report.1 as f64,
        "ns",
        on_report.1,
        "per FleetCore::on_report at 256 nodes",
    ));

    let frames = [
        Frame::DemandReport {
            seq: 41,
            ceiling: Watts(98.5),
            consumption: Watts(91.25),
            active: true,
        },
        Frame::BudgetGrant {
            epoch: 17,
            ceiling: Watts(102.0),
            kind: GrantKind::Raise,
            term: 2,
        },
    ];
    let n = 100_000u64;
    let (_, s) = time_s(|| {
        (0..n).for_each(|i| drop(black_box(black_box(&frames[(i % 2) as usize]).encode())))
    });
    out.push(Layer::new(
        "net.wire.encode_ns",
        s * 1e9 / n as f64,
        "ns",
        n,
        "per encode, DemandReport and BudgetGrant alternating",
    ));
    let encoded = [frames[0].encode(), frames[1].encode()];
    let (_, s) = time_s(|| {
        (0..n).for_each(|i| {
            drop(black_box(Frame::decode(black_box(
                &encoded[(i % 2) as usize],
            ))))
        })
    });
    out.push(Layer::new(
        "net.wire.decode_ns",
        s * 1e9 / n as f64,
        "ns",
        n,
        "per decode, DemandReport and BudgetGrant alternating",
    ));
    for (f, b) in frames.iter().zip(&encoded) {
        ctx.tally.attempt(1);
        ctx.tally.check(match Frame::decode(b) {
            Ok(d) if &d == f => Ok(()),
            other => Err(format!("wire round trip broke: {other:?}")),
        });
    }

    // A 256-node journaled core, recovered by full replay.
    let cfg = CoordinatorConfig::new("probe:virtual", budget);
    let dir = ctx.scratch.join("probe-fleet-journal");
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(journal) = ctx.tally.ok("fleet journal", FleetJournal::create(&dir)) {
        let mut core = FleetCore::new(&cfg, Telemetry::disabled());
        core.attach_journal(journal.with_checkpoint_every(u64::MAX));
        for k in 0..CHAOS_AGENTS {
            ctx.tally.ok(
                "admit",
                core.admit(format!("n{k}"), "CG".into(), Watts(65.0), Watts(125.0), 0),
            );
        }
        for e in 1..=10u64 {
            for k in 0..CHAOS_AGENTS {
                core.on_report(
                    k,
                    e,
                    Watts(100.0),
                    Watts(70.0 + (k % 50) as f64),
                    true,
                    e * 1000,
                );
            }
            core.epoch_once(e * 1000);
        }
        let expect = core.snapshot_bytes().ok();
        drop(core);
        ctx.tally.attempt(1);
        let (r, s) = time_s(|| recover(&dir, &cfg, Telemetry::disabled()));
        if let Some(rec) = ctx.tally.ok("fleet recover", r) {
            ctx.tally
                .check(if rec.core.snapshot_bytes().ok() == expect {
                    Ok(())
                } else {
                    Err("recovered core differs".into())
                });
            out.push(Layer::new(
                "net.fleet_journal.recover_events_per_s",
                rec.events_replayed as f64 / s,
                "1/s",
                rec.events_replayed,
                "events replayed per second by recover() of a 256-node, 10-epoch journal",
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Frames the matrix's net-fault plans deliver, of those sent, at 256 agents.
    let (mut sent, mut delivered) = (0u64, 0u64);
    for (k, sc) in SCENARIOS.iter().enumerate() {
        let Some(mut plan) = ctx.tally.ok("net plan", NetFaultPlan::parse(sc.plan)) else {
            continue;
        };
        plan.seed = mix(ctx.seed, k as u64);
        let inj = NetFaultInjector::new(plan);
        for epoch in 0..40 {
            for peer in 0..CHAOS_AGENTS {
                if inj.killed(peer, epoch) {
                    continue;
                }
                for dir in [Dir::Up, Dir::Down] {
                    sent += 1;
                    let fate = inj.fate(peer, dir, epoch);
                    if !(inj.partitioned(peer, dir, epoch) || fate.drop || fate.corrupt) {
                        delivered += 1;
                    }
                }
            }
        }
    }
    out.push(Layer::new(
        "net.chaos.frames_delivered_ratio",
        delivered as f64 / sent as f64,
        "share",
        sent,
        "frames delivered ÷ sent by the ten scenarios' net-fault plans, 256 agents × 40 epochs",
    ));
}
