//! Helpers shared by this crate's unit tests.

/// SplitMix64 step: a seeded, reproducible draw in `0..bound`.
pub(crate) fn draw(state: &mut u64, bound: u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % bound
}
