//! Seeded sampling shared by every reservoir in the workspace: the
//! reservoir seed, the SplitMix64 generator and the Algorithm-R offer.
//! The simulator's response-time reservoirs and the
//! [`SpanBuffer`](crate::SpanBuffer) span and event reservoirs all sample
//! through these two functions.

/// Fixed seed of every response and span reservoir's replacement
/// stream: sampling decisions depend only on the order values are
/// offered, keeping sampled output reproducible run to run.
pub const SAMPLE_SEED: u64 = 0x5EED_5A3B_1E5E_4701;

/// One step of the SplitMix64 generator.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Offers `value` to an Algorithm-R reservoir holding at most `capacity`
/// items (`0` = unbounded). `offered` must already count this value;
/// `state` is the SplitMix64 replacement stream. Once the reservoir is
/// full, the `offered`-th value replaces a random slot with probability
/// `capacity / offered`, so the kept subset depends only on the order
/// values are offered.
#[inline]
pub fn reservoir_offer<T>(
    samples: &mut Vec<T>,
    capacity: usize,
    offered: u64,
    state: &mut u64,
    value: T,
) {
    if capacity == 0 || samples.len() < capacity {
        samples.push(value);
        return;
    }
    let slot = (splitmix64(state) % offered) as usize;
    if slot < capacity {
        samples[slot] = value;
    }
}
