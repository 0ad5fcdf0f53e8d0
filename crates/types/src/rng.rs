//! SplitMix64: the one small deterministic generator behind every seeded
//! stream outside the simulator's ChaCha8 (fault-plan draws, chaos
//! demand walks, arrival bursts, reconnect jitter). One seed therefore
//! governs a whole adversarial run, and replaying the seed replays it.

/// The SplitMix64 increment (2^64 / φ). Seed derivations also use it to
/// spread nearby seeds apart.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: advances `state` and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step mapped to a uniform draw in `[0, 1)` from the
/// output's top 53 bits.
#[inline]
pub fn next_uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}
