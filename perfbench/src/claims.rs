//! Which of the paper's claims a workload's rows determine, and the
//! modelled error against them.
//!
//! The Fig 3 numbers were the targets of the six-round calibration loop
//! (DESIGN.md §8), so their error is fit error. The Fig 4 DRAM numbers
//! were never tuned against: their error is the held-out validation error.

use dufp::SweepRow;

/// Whether a claim was a calibration target or held out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Calibration,
    HeldOut,
}

impl Role {
    pub fn label(self) -> &'static str {
        match self {
            Role::Calibration => "calibration (Fig 3)",
            Role::HeldOut => "held out (Fig 4)",
        }
    }
}

#[derive(Clone, Copy)]
enum Quantity {
    PkgPower,
    DramPower,
    Energy,
}

/// (claim id, app, policy, tolerated slowdown %, quantity saved, role).
const ROW_CLAIMS: [(&str, &str, &str, f64, Quantity, Role); 8] = [
    (
        "fig3b.cg.duf20",
        "CG",
        "duf",
        20.0,
        Quantity::PkgPower,
        Role::Calibration,
    ),
    (
        "fig3b.cg.dufp20",
        "CG",
        "dufp",
        20.0,
        Quantity::PkgPower,
        Role::Calibration,
    ),
    (
        "fig3b.cg.dufp10",
        "CG",
        "dufp",
        10.0,
        Quantity::PkgPower,
        Role::Calibration,
    ),
    (
        "fig3b.bt.duf20",
        "BT",
        "duf",
        20.0,
        Quantity::PkgPower,
        Role::Calibration,
    ),
    (
        "fig3b.bt.dufp20",
        "BT",
        "dufp",
        20.0,
        Quantity::PkgPower,
        Role::Calibration,
    ),
    (
        "fig3c.cg.dufp10.energy",
        "CG",
        "dufp",
        10.0,
        Quantity::Energy,
        Role::Calibration,
    ),
    (
        "fig4.cg.dufp20.dram",
        "CG",
        "dufp",
        20.0,
        Quantity::DramPower,
        Role::HeldOut,
    ),
    (
        "fig4.ua.dufp20.dram",
        "UA",
        "dufp",
        20.0,
        Quantity::DramPower,
        Role::HeldOut,
    ),
];

/// One claim the rows determine.
pub struct Covered {
    pub id: &'static str,
    pub role: Role,
    pub paper: f64,
    pub measured: f64,
}

fn value(r: &SweepRow, q: Quantity) -> f64 {
    match q {
        Quantity::PkgPower => r.avg_pkg_power_w,
        Quantity::DramPower => r.avg_dram_power_w,
        Quantity::Energy => r.pkg_energy_j + r.dram_energy_j,
    }
}

/// Saving (%) of `policy`@`slowdown` against `default` on `app`, over the
/// seeds both ran (paired by seed); `None` when the rows hold no pair.
fn saving(rows: &[SweepRow], app: &str, policy: &str, slowdown: f64, q: Quantity) -> Option<f64> {
    let (mut base, mut var, mut n) = (0.0, 0.0, 0);
    for v in rows
        .iter()
        .filter(|r| r.app == app && r.policy == policy && r.slowdown_pct == slowdown)
    {
        if let Some(d) = rows
            .iter()
            .find(|d| d.app == app && d.policy == "default" && d.seed == v.seed)
        {
            base += value(d, q);
            var += value(v, q);
            n += 1;
        }
    }
    (n > 0).then(|| 100.0 * (1.0 - var / base))
}

/// The claims `rows` determine, with their measured values.
pub fn covered(rows: &[SweepRow]) -> Vec<Covered> {
    let paper = dufp_bench::paper::claims();
    ROW_CLAIMS
        .iter()
        .filter_map(|&(id, app, policy, sd, q, role)| {
            let measured = saving(rows, app, policy, sd, q)?;
            let claim = paper
                .iter()
                .find(|c| c.id == id)
                .expect("claim ids match dufp_bench::paper");
            Some(Covered {
                id,
                role,
                paper: claim.paper,
                measured,
            })
        })
        .collect()
}

/// Mean |measured − paper| in percentage points over the covered claims
/// with `role`; `NaN` when none is covered.
pub fn error_pp(covered: &[Covered], role: Role) -> f64 {
    let errs: Vec<f64> = covered
        .iter()
        .filter(|c| c.role == role)
        .map(|c| (c.measured - c.paper).abs())
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// DUFP's package-power saving against default over every (app,
/// slowdown, seed) pair the rows hold.
pub fn dufp_pkg_saved_pct(rows: &[SweepRow]) -> f64 {
    let (mut base, mut var) = (0.0, 0.0);
    for v in rows.iter().filter(|r| r.policy == "dufp") {
        if let Some(d) = rows
            .iter()
            .find(|d| d.app == v.app && d.policy == "default" && d.seed == v.seed)
        {
            base += d.avg_pkg_power_w;
            var += v.avg_pkg_power_w;
        }
    }
    100.0 * (1.0 - var / base)
}

/// The largest execution-time overhead beyond the tolerated slowdown,
/// over every slowdown-driven row paired with its default run (pp;
/// negative when every run stays inside its tolerance).
pub fn slowdown_excess_pp(rows: &[SweepRow]) -> f64 {
    rows.iter()
        .filter(|r| r.policy != "default")
        .filter_map(|v| {
            let d = rows
                .iter()
                .find(|d| d.app == v.app && d.policy == "default" && d.seed == v.seed)?;
            Some(100.0 * (v.exec_time_s / d.exec_time_s - 1.0) - v.slowdown_pct)
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(app: &str, policy: &str, sd: f64, seed: u64, pkg: f64, t: f64) -> SweepRow {
        SweepRow {
            index: 0,
            app: app.into(),
            policy: policy.into(),
            label: String::new(),
            slowdown_pct: sd,
            seed,
            exec_time_s: t,
            avg_pkg_power_w: pkg,
            avg_dram_power_w: 20.0,
            pkg_energy_j: pkg * t,
            dram_energy_j: 20.0 * t,
        }
    }

    #[test]
    fn savings_pair_by_seed_and_cover_only_present_cells() {
        let rows = vec![
            row("CG", "default", 20.0, 1, 100.0, 10.0),
            row("CG", "default", 20.0, 2, 120.0, 10.0),
            row("CG", "dufp", 20.0, 1, 80.0, 11.5),
            row("CG", "dufp", 20.0, 2, 90.0, 10.5),
        ];
        let s = saving(&rows, "CG", "dufp", 20.0, Quantity::PkgPower).unwrap();
        assert!((s - 100.0 * (1.0 - 170.0 / 220.0)).abs() < 1e-12);
        let ids: Vec<&str> = covered(&rows).iter().map(|c| c.id).collect();
        assert_eq!(ids, ["fig3b.cg.dufp20", "fig4.cg.dufp20.dram"]);
        assert!((slowdown_excess_pp(&rows) - (-5.0)).abs() < 1e-9);
    }
}
