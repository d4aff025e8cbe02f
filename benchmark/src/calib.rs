//! Machine-speed calibration. The sizing box does not have one speed (see
//! README, "Estimator"): it moves between plateaus a factor of two apart
//! that last seconds, and drifts over minutes. A fixed kernel of the
//! benchmark's own — std only, nothing of the program under test — is timed
//! next to every unit of work, and every measured time is scaled by how
//! much slower than the reference the kernel ran just then.

use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds the kernel takes on the sizing box's fastest plateau. A time
/// reported by the benchmark is "seconds on a machine that runs the kernel
/// in this long"; on another machine every value scales by the same factor.
pub const REFERENCE_S: f64 = 400e-6;

const KEYS: usize = 4096;

/// One run of the kernel: ordered-map inserts, vector clones and sorts —
/// the allocation-and-pointer-chasing mix the scheduler itself is made of.
fn kernel() -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut map = BTreeMap::new();
    let mut keys = Vec::with_capacity(KEYS);
    for _ in 0..KEYS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, x);
        keys.push(x >> 20);
    }
    let mut acc = map.values().take(16).fold(0u64, |a, v| a.wrapping_add(*v));
    for _ in 0..4 {
        let mut copy = keys.clone();
        copy.sort_unstable();
        acc = acc.wrapping_add(copy[KEYS / 2]);
    }
    acc
}

/// Tracks the machine's speed across consecutive units of work.
pub struct Speed {
    last_s: f64,
    /// Every kernel time taken, for the report.
    pub samples_s: Vec<f64>,
}

/// The faster of two consecutive kernel runs: the first one after a unit of
/// work runs on whatever cache and core the unit left behind.
fn sample() -> f64 {
    let once = || {
        let started = Instant::now();
        std::hint::black_box(kernel());
        started.elapsed().as_secs_f64()
    };
    once().min(once())
}

impl Speed {
    pub fn new() -> Self {
        let last_s = sample();
        Self {
            last_s,
            samples_s: vec![last_s],
        }
    }

    /// Call right after a unit of work: times the kernel again and returns
    /// the factor that scales the unit's measured times to reference speed —
    /// the reference over the mean of the kernel times on either side of it.
    pub fn factor(&mut self) -> f64 {
        let before = self.last_s;
        self.last_s = sample();
        self.samples_s.push(self.last_s);
        REFERENCE_S / ((before + self.last_s) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_the_same_work_every_time_and_factors_are_sane() {
        assert_eq!(kernel(), kernel());
        let mut speed = Speed::new();
        let f = speed.factor();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(speed.samples_s.len(), 2);
    }
}
