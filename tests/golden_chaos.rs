//! Golden regression for the in-process chaos fleet.
//!
//! Two byte-exact scorecards pin the whole adversarial soak — frame
//! fates, vetting, quarantine, reclaim, failover and scoring:
//!
//! * `chaos_seed42_scorecard.jsonl` — the default 8-agent matrix at seed
//!   42, exactly the bytes `dufp chaos --seed 42 --out FILE` writes,
//! * `chaos_64agents_scorecard.jsonl` — the same matrix over 64 agents
//!   (budget scaled so every floor stays fundable) at seed 7.
//!
//! Replaying a seed twice only proves determinism; these files also
//! catch a change that moves outcomes the same way on every run. To bless
//! new behavior after an intentional change:
//!
//! ```text
//! DUFP_REGEN_GOLDEN=1 cargo test --test golden_chaos
//! ```
//!
//! then review the regenerated files like any other diff.

use dufp_net::chaos::{run_matrix, ChaosConfig, ScenarioScore};
use dufp_types::Watts;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The scorecard as `dufp chaos --out` serializes it: one JSON line per
/// scenario, ranked best-first.
fn scorecard_bytes(cards: &[ScenarioScore]) -> Vec<u8> {
    let mut out = Vec::new();
    for card in cards {
        let line = serde_json::to_string(card).expect("serialize card");
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Compares (or, under DUFP_REGEN_GOLDEN, rewrites) one golden file.
fn check_golden(name: &str, got: &[u8]) {
    let path = golden_dir().join(name);
    if std::env::var_os("DUFP_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with DUFP_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    if got != want {
        let got = String::from_utf8_lossy(got);
        let want = String::from_utf8_lossy(&want);
        let (line, g, w) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| (i + 1, g, w))
            .unwrap_or((got.lines().count().min(want.lines().count()) + 1, "", ""));
        panic!(
            "{name} drifted from tests/golden/ at line {line}:\n  got  {g}\n  want {w}\n\
             if intentional, regenerate with DUFP_REGEN_GOLDEN=1 and review the diff"
        );
    }
}

fn assert_invariants(cards: &[ScenarioScore]) {
    for c in cards {
        assert!(c.conservation_ok && c.floor_ok, "{}: {c:?}", c.scenario);
        assert_eq!(c.safe_cap_violations, 0, "{}", c.scenario);
        assert_eq!(c.byz_quarantined, c.byz_total, "{}: {c:?}", c.scenario);
        assert!(c.fenced_ok, "{}: {c:?}", c.scenario);
        assert_ne!(c.replay_matched, Some(false), "{}: {c:?}", c.scenario);
    }
}

#[test]
fn default_matrix_at_seed_42_matches_golden() {
    let cards = run_matrix(&ChaosConfig::new(42)).expect("matrix runs");
    assert_invariants(&cards);
    check_golden("chaos_seed42_scorecard.jsonl", &scorecard_bytes(&cards));
}

#[test]
fn sixty_four_agent_matrix_matches_golden() {
    let mut cfg = ChaosConfig::new(7);
    let scale = 64.0 / cfg.agents as f64;
    cfg.agents = 64;
    cfg.budget = Watts(cfg.budget.value() * scale);
    let cards = run_matrix(&cfg).expect("matrix runs");
    assert_invariants(&cards);
    check_golden("chaos_64agents_scorecard.jsonl", &scorecard_bytes(&cards));
}
