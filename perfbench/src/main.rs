//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-grid|phase-churn|fleet-day|fleet-chaos> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload runs closed loop on two
//! worker threads in this one process and calls only public functions of
//! the crates. With `--trace 0` it measures the end-to-end metrics for
//! `--seconds`; with `--trace 1` it measures the per-layer metrics
//! instead. Every output is checked; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! The lines before it carry the host fingerprint, the workload's own
//! metrics (modelled ones included) and, when traced, each per-layer
//! metric with its count and base. The same report, with the recorded
//! spans, is written to `.bench_out/`.

mod checks;
mod claims;
mod probes;
mod util;
mod workloads;

use checks::Tally;
use serde_json::Value;
use std::time::Instant;
use util::{median, Spans};
use workloads::{Ctx, Round, Workload};

/// The end-to-end metrics of an untraced run, as BENCHMARK.json lists them.
///
/// Wall-time throughput and latency swing by up to 2x from run to run on
/// a shared 2-core host, as another tenant takes and returns a core, so
/// the gated metrics use CPU time, which does not grow while the core is
/// taken. The wall-time metrics are printed on the `workload_metrics`
/// line.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "cpu_ms_per_job",
    "sim_s_per_cpu_s",
    "job_cpu_ms_p50",
    "job_cpu_ms_tail",
    "peak_rss_mb",
];

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 25;

/// The latency tails are medians, over blocks of consecutive whole rounds
/// holding at least this many jobs, of each block's tail. Whole rounds
/// give every block the same job mix.
const TAIL_JOBS: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn fingerprint(args: &Args) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    obj(vec![
        (
            "nproc",
            int(std::thread::available_parallelism().map_or(0, usize::from) as u64),
        ),
        ("cpu", text(&cpu)),
        ("rustc", text(env!("PERFBENCH_RUSTC"))),
        ("git_rev", text(env!("PERFBENCH_GIT_REV"))),
        ("profile", text(env!("PERFBENCH_PROFILE"))),
        ("seed", int(args.seed)),
        ("workload", text(&args.workload)),
        ("workers", int(workloads::workers() as u64)),
    ])
}

type Map = Vec<(String, Value)>;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

fn metric(value: f64, unit: &str) -> Value {
    obj(vec![("value", Value::Num(value)), ("unit", text(unit))])
}

fn put(m: &mut Map, key: &str, v: Value) {
    m.push((key.to_string(), v));
}

/// Runs set-up `SETUP_REPS` times and returns the median time.
fn setup(w: &mut dyn Workload, ctx: &Ctx) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| util::time_s(|| w.setup(ctx)).1)
        .collect();
    median(&times)
}

/// The untraced run: end-to-end metrics.
fn measure(w: &mut dyn Workload, ctx: &Ctx, args: &Args, report: &mut Map) -> Map {
    let setup_s = setup(w, ctx);
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        rounds.push(w.round(ctx, rounds.len() as u64));
    }
    w.post_checks(ctx);

    // Rates are medians over rounds, so a burst of interference from
    // outside the process moves one round, not the result.
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let cpu_lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.cpu_latencies_ms.iter().copied())
        .collect();
    let round_jobs = rounds[0].latencies_ms.len().max(1);
    let block = TAIL_JOBS.div_ceil(round_jobs) * round_jobs;
    let (cpu_tail, pct, blocks) = util::block_tail(&cpu_lat, block);
    let (tail, ..) = util::block_tail(&lat, block);

    let mut m = Map::new();
    put(&mut m, "setup_s", metric(setup_s, "s"));
    put(
        &mut m,
        "cpu_ms_per_job",
        metric(per_round(&|r| r.cpu_s * 1e3 / r.jobs as f64), "ms"),
    );
    put(
        &mut m,
        "sim_s_per_cpu_s",
        metric(per_round(&|r| r.sim_s / r.cpu_s), "s/s"),
    );
    put(&mut m, "job_cpu_ms_p50", metric(median(&cpu_lat), "ms"));
    put(&mut m, "job_cpu_ms_tail", metric(cpu_tail, "ms"));
    put(&mut m, "peak_rss_mb", metric(util::peak_rss_mb(), "MiB"));
    if m.iter().map(|(k, _)| k.as_str()).ne(END_TO_END) {
        ctx.tally
            .fail("end-to-end metric set differs from END_TO_END");
    }

    let mut own = Map::new();
    put(&mut own, "rounds", int(rounds.len() as u64));
    put(
        &mut own,
        "tail",
        obj(vec![
            ("percentile", Value::Num(pct)),
            ("n", int(lat.len() as u64)),
            ("blocks", int(blocks as u64)),
        ]),
    );
    put(
        &mut own,
        "jobs_per_s",
        metric(per_round(&|r| r.jobs as f64 / r.wall_s), "1/s"),
    );
    put(
        &mut own,
        "sim_s_per_host_s",
        metric(per_round(&|r| r.sim_s / r.wall_s), "s/s"),
    );
    put(&mut own, "job_ms_p50", metric(median(&lat), "ms"));
    put(&mut own, "job_ms_tail", metric(tail, "ms"));
    let batch: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.batch_wall_s.map(|w| r.jobs as f64 / w))
        .collect();
    if !batch.is_empty() {
        put(&mut own, "batch_jobs_per_s", metric(median(&batch), "1/s"));
    }
    if rounds.iter().any(|r| r.epochs > 0) {
        put(
            &mut own,
            "epochs_per_s",
            metric(per_round(&|r| r.epochs as f64 / r.wall_s), "1/s"),
        );
    }
    let attempted = ctx.tally.attempted().max(1);
    put(
        &mut own,
        "failed_share",
        metric(ctx.tally.failed() as f64 / attempted as f64, "share"),
    );
    for (name, value, unit) in w.modelled() {
        put(
            &mut own,
            name,
            obj(vec![
                ("value", Value::Num(value)),
                ("unit", text(unit)),
                ("modelled", Value::Bool(true)),
            ]),
        );
    }
    let claims: Vec<Value> = w
        .claims()
        .iter()
        .map(|c| {
            obj(vec![
                ("id", text(c.id)),
                ("role", text(c.role.label())),
                ("paper", Value::Num(c.paper)),
                ("measured", Value::Num(c.measured)),
            ])
        })
        .collect();
    if !claims.is_empty() {
        put(&mut own, "paper_claims", Value::Array(claims));
    }
    put(report, "workload_metrics", Value::Object(own));
    m
}

/// The traced run: per-layer metrics, each with its count and base.
fn trace(w: &mut dyn Workload, ctx: &mut Ctx, seconds: f64, report: &mut Map) -> Map {
    setup(w, ctx);
    // The same round-0 batch, untraced then traced, after one warm-up
    // round, until the measuring time is spent.
    w.round(ctx, 0);
    let started = Instant::now();
    let (mut untraced, mut traced, mut eff) = (0.0, 0.0, Vec::new());
    while eff.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        ctx.spans.set(false);
        untraced += util::time_s(|| w.round(ctx, 0)).1;
        ctx.spans.set(true);
        let (round, t) = util::time_s(|| w.round(ctx, 0));
        traced += t;
        eff.push(round.pool_efficiency);
    }
    let pairs = eff.len() as u64;
    let mut layers = probes::run(ctx);
    layers.push(probes::Layer::new(
        "telemetry.trace_overhead_pct",
        100.0 * (traced / untraced - 1.0),
        "%",
        pairs,
        "traced ÷ untraced wall time of the round-0 batch, alternating pairs",
    ));
    layers.push(probes::Layer::new(
        "bench.pool_efficiency",
        median(&eff),
        "share",
        eff.len() as u64,
        "Σ job busy ÷ (workers × wall) of the traced closed-loop pass",
    ));
    let mut m = Map::new();
    let mut detail = Map::new();
    for name in probes::NAMES {
        if !layers.iter().any(|l| l.name == name) {
            ctx.tally
                .fail(format!("no value for per-layer metric {name}"));
        }
    }
    for l in &layers {
        put(&mut m, l.name, metric(l.value, l.unit));
        put(
            &mut detail,
            l.name,
            obj(vec![
                ("value", Value::Num(l.value)),
                ("unit", text(l.unit)),
                ("count", int(l.count)),
                ("base", text(&l.base)),
            ]),
        );
    }
    put(report, "per_layer", Value::Object(detail));
    let spans: Vec<Value> = ctx
        .spans
        .take()
        .iter()
        .map(|s| {
            obj(vec![
                ("name", text(s.name)),
                ("job", int(s.job)),
                ("start_us", Value::Num(s.start_us)),
                ("end_us", Value::Num(s.end_us)),
            ])
        })
        .collect();
    put(report, "spans", Value::Array(spans));
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(mut w) = workloads::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (paper-grid, phase-churn, fleet-day, fleet-chaos)",
            args.workload
        );
        std::process::exit(2);
    };
    let out_dir = std::path::PathBuf::from(".bench_out");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        tally: Tally::default(),
        spans: Spans::new(false),
        scratch: scratch.clone(),
    };
    let mut report = Map::new();
    put(&mut report, "fingerprint", fingerprint(&args));
    let metrics = if args.trace {
        trace(w.as_mut(), &mut ctx, args.seconds, &mut report)
    } else {
        measure(w.as_mut(), &ctx, &args, &mut report)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let notes = ctx.tally.notes();
    put(
        &mut report,
        "failures",
        Value::Array(notes.iter().map(|n| text(n)).collect()),
    );

    for (key, v) in &report {
        match (key.as_str(), v) {
            ("per_layer", Value::Object(layers)) => {
                for (name, v) in layers {
                    println!("layer {name} {}", to_json(v));
                }
            }
            ("spans", _) => {}
            _ => println!("{key} {}", to_json(v)),
        }
    }
    let file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, to_json(&Value::Object(report))) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    let failed = ctx.tally.failed();
    let result = obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", int(ctx.tally.attempted().max(1))),
        ("failed", int(failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", to_json(&result));
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("a value tree serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn load(name: &str) -> Value {
        let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn names(list: &Value) -> Vec<String> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|v| v["name"].as_str().unwrap().to_string())
            .collect()
    }

    fn set<'a>(xs: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
        xs.into_iter().map(String::from).collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let b = load("../BENCHMARK.json");
        assert_eq!(names(&b["end_to_end"]), END_TO_END);
        assert_eq!(names(&b["per_layer"]), probes::NAMES);
        for w in names(&b["workloads"]) {
            assert!(
                workloads::by_name(&w).is_some(),
                "{w} has no implementation"
            );
        }
    }

    #[test]
    fn records_describe_every_workload_and_layer() {
        let b = load("../BENCHMARK.json");
        let r = load("records.json");
        let recorded: Vec<String> = r["workloads"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(recorded, names(&b["workloads"]));
        let predicted: Vec<&str> = r["predictions"]
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p["metric"].as_str().unwrap())
            .collect();
        assert_eq!(set(predicted), set(probes::NAMES));
        let printed: Vec<&str> = r["printed_only"]["metrics"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let targets = set(END_TO_END.into_iter().chain(printed));
        for p in r["predictions"].as_array().unwrap() {
            for m in p["moves"].as_array().unwrap() {
                assert!(
                    targets.contains(m.as_str().unwrap()),
                    "{m:?} is no end-to-end metric"
                );
            }
        }
    }

    #[test]
    fn recorded_round_sizes_match_the_code() {
        let r = load("records.json");
        let sizes = [
            ("paper-grid", workloads::PaperGrid::grid(7, 0).len()),
            (
                "phase-churn",
                workloads::PhaseChurn::jobs(7, 0).unwrap().len(),
            ),
            (
                "fleet-day",
                workloads::DAY_SEEDS as usize * workloads::FLEET_POLICIES.len(),
            ),
            ("fleet-chaos", dufp_net::SCENARIOS.len()),
        ];
        for (w, n) in sizes {
            assert_eq!(
                r["workloads"][w]["jobs_per_round"].as_u64(),
                Some(n as u64),
                "{w}"
            );
        }
    }

    #[test]
    fn recorded_claim_coverage_matches_the_workload_rows() {
        let r = load("records.json");
        let shapes = [
            (
                "paper-grid",
                workloads::PaperGrid::grid(7, 0).expand().unwrap(),
            ),
            (
                "phase-churn",
                workloads::PhaseChurn::jobs(7, 0)
                    .unwrap()
                    .into_iter()
                    .map(|c| c.job)
                    .collect(),
            ),
        ];
        for (w, jobs) in shapes {
            // Only the grid's shape decides coverage; the values are placeholders.
            let rows: Vec<dufp::SweepRow> = jobs
                .iter()
                .map(|j| dufp::SweepRow {
                    index: j.index,
                    app: j.app.clone(),
                    policy: j.policy.clone(),
                    label: String::new(),
                    slowdown_pct: j.slowdown_pct,
                    seed: j.seed,
                    exec_time_s: 1.0,
                    avg_pkg_power_w: 1.0,
                    avg_dram_power_w: 1.0,
                    pkg_energy_j: 1.0,
                    dram_energy_j: 1.0,
                })
                .collect();
            let covered: Vec<(String, String)> = claims::covered(&rows)
                .iter()
                .map(|c| {
                    (
                        c.id.to_string(),
                        if c.role == claims::Role::HeldOut {
                            "held-out"
                        } else {
                            "calibration"
                        }
                        .to_string(),
                    )
                })
                .collect();
            let recorded: Vec<(String, String)> = r["workloads"][w]["paper_claims"]
                .as_array()
                .unwrap()
                .iter()
                .map(|c| {
                    (
                        c["id"].as_str().unwrap().to_string(),
                        c["role"].as_str().unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(covered, recorded, "{w}");
        }
    }
}
