//! Output checks. Every job attempt and every failed check is counted,
//! so a wrong output shows up in `failed`, never as a silent pass.

use dufp_net::ScenarioScore;
use dufp_scenario::ScorecardRow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Attempted jobs, failures and the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Tally {
    /// Counts `n` job attempts.
    pub fn attempt(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one failure (an errored job or a failed output check).
    pub fn fail(&self, why: impl Into<String>) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut notes = self.notes.lock().expect("note list poisoned");
        if notes.len() < 20 {
            notes.push(why.into());
        }
    }

    /// Counts a failure when `check` returns an error; passes `Ok` through.
    pub fn check(&self, check: Result<(), String>) {
        if let Err(why) = check {
            self.fail(why);
        }
    }

    /// Unwraps a job result, counting an error as a failure.
    pub fn ok<T, E: std::fmt::Display>(&self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn notes(&self) -> Vec<String> {
        self.notes.lock().expect("note list poisoned").clone()
    }
}

/// Two serializations of what must be the same result are byte-equal.
pub fn same_bytes(what: &str, a: &[u8], b: &[u8]) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        let at = a
            .iter()
            .zip(b)
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        Err(format!(
            "{what}: outputs differ at byte {at} ({} vs {} bytes)",
            a.len(),
            b.len()
        ))
    }
}

/// A simulated run's physical outputs are finite and positive.
pub fn plausible_run(what: &str, exec_s: f64, pkg_w: f64, dram_w: f64) -> Result<(), String> {
    if exec_s.is_finite()
        && exec_s > 0.0
        && pkg_w.is_finite()
        && pkg_w > 0.0
        && dram_w.is_finite()
        && dram_w > 0.0
    {
        Ok(())
    } else {
        Err(format!(
            "{what}: implausible run ({exec_s} s, {pkg_w} W pkg, {dram_w} W dram)"
        ))
    }
}

/// A scenario scorecard keeps bit-exact per-tenant energy attribution.
pub fn scorecard(rows: &[ScorecardRow]) -> Result<(), String> {
    for r in rows {
        if !r.conservation_ok {
            return Err(format!(
                "scenario {} seed {}: energy attribution broke conservation",
                r.policy, r.seed
            ));
        }
        if !(r.fleet_energy_j.is_finite() && r.fleet_energy_j > 0.0) {
            return Err(format!(
                "scenario {} seed {}: fleet energy {}",
                r.policy, r.seed, r.fleet_energy_j
            ));
        }
    }
    Ok(())
}

/// A chaos scenario keeps every fleet invariant and scores 100.
pub fn chaos_card(c: &ScenarioScore) -> Result<(), String> {
    let broken = if !c.conservation_ok || c.conservation_violations > 0 {
        "sum of grants exceeded the budget"
    } else if !c.floor_ok || c.floor_violations > 0 {
        "an honest floor was broken"
    } else if !c.fenced_ok {
        "a stale primary was not fenced"
    } else if c.score != 100.0 {
        "score below 100"
    } else {
        return Ok(());
    };
    Err(format!(
        "chaos {} seed {}: {broken} (score {})",
        c.scenario, c.seed, c.score
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_card() -> ScenarioScore {
        let cfg = dufp_net::ChaosConfig::new(3);
        dufp_net::chaos::run_scenario(&cfg, "baseline").unwrap()
    }

    #[test]
    fn a_corrupted_row_is_counted_as_a_failure() {
        let row = br#"{"index":0,"exec_time_s":12.5}"#.to_vec();
        let mut bad = row.clone();
        bad[25] ^= 1;
        let tally = Tally::default();
        tally.check(same_bytes("row", &row, &row));
        assert_eq!(tally.failed(), 0);
        tally.check(same_bytes("row", &row, &bad));
        assert_eq!(tally.failed(), 1);
        tally.check(plausible_run("row", f64::NAN, 100.0, 20.0));
        assert_eq!(tally.failed(), 2);
    }

    #[test]
    fn broken_chaos_invariants_are_counted_as_failures() {
        let card = clean_card();
        assert_eq!(chaos_card(&card), Ok(()));
        let breaks: [fn(&mut ScenarioScore); 4] = [
            |c| c.conservation_ok = false,
            |c| c.floor_violations = 1,
            |c| c.fenced_ok = false,
            |c| c.score = 95.0,
        ];
        let tally = Tally::default();
        for brk in breaks {
            let mut c = card.clone();
            brk(&mut c);
            tally.check(chaos_card(&c));
        }
        assert_eq!(tally.failed(), 4);
    }

    #[test]
    fn a_broken_energy_attribution_is_counted_as_a_failure() {
        let spec = dufp_scenario::ScenarioSpec::mini();
        let mut rows =
            dufp_scenario::run_rows(&spec, 1, &[dufp_scenario::PolicyChoice::DemandBased], 1)
                .unwrap();
        assert_eq!(scorecard(&rows), Ok(()));
        rows[0].conservation_ok = false;
        let tally = Tally::default();
        tally.check(scorecard(&rows));
        assert_eq!(tally.failed(), 1);
        let errored: Result<(), String> = Err("boom".into());
        assert!(tally.ok("job", errored).is_none());
        assert_eq!(tally.failed(), 2);
    }
}
