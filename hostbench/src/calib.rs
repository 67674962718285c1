//! A fixed piece of host work that measures how fast the host is running
//! right now.
//!
//! A shared host slows every program on it by 20–40% for tens of seconds
//! at a time. Timing this benchmark-local work beside the engine calls
//! tells such a slowdown apart from a change in the engines: the work
//! here never changes with the repository's code. It mixes what the
//! engines spend their host time on: small allocations, ordered maps
//! keyed by strings, and branchy integer code. It reads no large table:
//! a variant that also streamed and randomly read a 2 MiB table followed
//! the engines' speed less closely from run to run (see the README).

use std::collections::BTreeMap;

/// Host seconds [`work`] takes on the reference host: a 2-vCPU Intel
/// Xeon virtual machine, between other tenants' bursts. A host running
/// at this speed has speed 1.0.
pub const NOMINAL_S: f64 = 0.0046;

/// SplitMix64, kept here so that no change to the repository's own
/// generator can change the work.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Runs the fixed work once and returns a checksum of it.
pub fn work() -> u64 {
    let mut rng = Rng(0xB0B);
    let mut names: BTreeMap<String, u64> = BTreeMap::new();
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); 256];
    let mut sum = 0u64;
    for i in 0..20_000u64 {
        let r = rng.next_u64();
        // Small allocations that live a while and then go.
        let l = &mut lists[(r >> 20) as usize & 255];
        l.push(i as u32);
        if l.len() > 24 {
            l.clear();
            l.shrink_to_fit();
        }
        // String keys in an ordered map, like labels and path names.
        if i % 2 == 0 {
            let key = format!(">u{}>f{}", (r >> 32) % 512, (r >> 40) % 16);
            *names.entry(key).or_insert(0) += 1;
        }
        if i % 8 == 0 {
            let key = format!(">u{}>f{}", (r >> 12) % 512, (r >> 24) % 16);
            if let Some(v) = names.remove(&key) {
                sum = sum.wrapping_add(v);
            }
        }
        // Branchy integer code.
        sum = match r % 5 {
            0 => sum.rotate_left(7) ^ r,
            1 => sum.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            2 => sum ^ (r >> 3),
            3 if sum & 1 == 1 => sum.wrapping_sub(r),
            _ => sum.wrapping_add(i),
        };
    }
    sum ^ names.len() as u64
}

/// Host speed from the durations of several runs of [`work`]: the
/// nominal duration over their median. Below 1.0 the host is slower
/// than the reference host.
pub fn speed(durations: &[f64]) -> f64 {
    if durations.is_empty() {
        return 1.0;
    }
    NOMINAL_S / crate::median(&mut durations.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        assert_eq!(work(), work());
    }

    #[test]
    fn speed_is_nominal_over_the_median_duration() {
        assert_eq!(speed(&[]), 1.0);
        let slow = 1.25 * NOMINAL_S;
        assert!((speed(&[NOMINAL_S, slow, slow]) - 0.8).abs() < 1e-12);
        // One sample caught in a burst does not move the median.
        let s = speed(&[NOMINAL_S, NOMINAL_S, 10.0 * NOMINAL_S]);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
