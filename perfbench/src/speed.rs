//! Host-speed gauge: normalises measured times to a fixed reference speed.
//!
//! The benchmark shares its processor with other tenants, and the host's
//! speed drifts by up to 1.7× within seconds, for a plain arithmetic loop
//! as much as for the program, so raw times of one run spread by tens of
//! percent. The gauge samples three small reference kernels that use
//! nothing of the program, every [`INTERVAL_S`] between operations:
//! arithmetic, sorting and tree work on a few KiB ([`compute`]), a copy of
//! a buffer larger than a core's L2 cache ([`copy`]), and allocation churn
//! ([`churn`]). A sample is the geometric mean of the three kernel times.
//! Every timed operation is scaled by `REFERENCE_S / k`, where `k` is the
//! median sample within [`WINDOW_S`] of the operation. A reported time is
//! thus the time the operation would take on a host where a sample takes
//! [`REFERENCE_S`]: it moves with the program's own cost, and much less
//! with the state the host was in.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Time between two samples.
pub const INTERVAL_S: f64 = 0.01;

/// An operation is scaled by the samples taken from this long before it
/// starts until this long after it ends.
pub const WINDOW_S: f64 = 0.025;

/// Runs of [`compute`] and [`churn`] per sample; the fastest counts, as
/// the first run after a large operation finds its caches cold. [`copy`]
/// runs once: its buffer never fits a core's private cache.
pub const BURST: usize = 3;

/// A sample at the reference speed: about the median on an idle 2-vCPU
/// x86-64 host in its fast state.
pub const REFERENCE_S: f64 = 60e-6;

/// Bytes [`copy`] copies.
const COPY_BYTES: usize = 2 << 20;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Sorting, tree building and lookups on a few KiB that stay in cache.
fn compute() {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u64> = (0..512).map(|_| xorshift(&mut x)).collect();
    v.sort_unstable();
    let tree: std::collections::BTreeMap<u64, usize> = v
        .iter()
        .step_by(2)
        .enumerate()
        .map(|(i, &k)| (k, i))
        .collect();
    let hits = v
        .iter()
        .filter(|k| tree.contains_key(k) && v.binary_search(k).is_ok())
        .count();
    black_box(hits);
}

/// A copy of `src` into a fresh buffer.
fn copy(src: &[u8]) {
    let dst = black_box(src).to_vec();
    black_box(&dst);
}

/// Allocation and release of a few hundred small vectors.
fn churn() {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let v: Vec<Vec<u64>> = (0..250)
        .map(|i| vec![i; 1 + (xorshift(&mut x) % 24) as usize])
        .collect();
    black_box(&v);
}

fn fastest(runs: usize, f: impl Fn()) -> f64 {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Samples of one run, by time since the gauge started.
pub struct Gauge {
    on: bool,
    origin: Instant,
    last: f64,
    buffer: Vec<u8>,
    /// (time the sample was taken, sample seconds), in time order.
    samples: Vec<(f64, f64)>,
}

impl Gauge {
    /// A gauge that samples.
    pub fn new() -> Gauge {
        let mut g = Gauge {
            on: true,
            origin: Instant::now(),
            last: f64::NEG_INFINITY,
            buffer: vec![7; COPY_BYTES],
            samples: Vec::new(),
        };
        g.sample();
        g
    }

    /// A gauge that never samples and scales nothing, for the traced pass.
    pub fn off() -> Gauge {
        Gauge {
            on: false,
            origin: Instant::now(),
            last: 0.0,
            buffer: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Seconds from the gauge's start to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Takes a sample now.
    pub fn sample(&mut self) {
        if !self.on {
            return;
        }
        let start = Instant::now();
        let a = fastest(BURST, compute);
        let b = fastest(1, || copy(&self.buffer));
        let c = fastest(BURST, churn);
        let at = self.at(start);
        self.samples.push((at, (a * b * c).cbrt()));
        self.last = at;
    }

    /// Takes a sample if [`INTERVAL_S`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.on && self.at(Instant::now()) - self.last >= INTERVAL_S {
            self.sample();
        }
    }

    /// `secs`, measured from `start`, at the reference speed. Needs a
    /// sample taken after the operation ended (a [`Gauge::tick`] or
    /// [`Gauge::sample`]).
    pub fn scale(&self, start: Instant, secs: f64) -> f64 {
        if !self.on {
            return secs;
        }
        let from = self.at(start);
        let (lo, hi) = (from - WINDOW_S, from + secs + WINDOW_S);
        let a = self.samples.partition_point(|s| s.0 < lo);
        let b = self.samples.partition_point(|s| s.0 <= hi);
        // With no sample in the window, the nearest one on either side.
        let (a, b) = if a < b {
            (a, b)
        } else {
            (a.saturating_sub(1), (a + 1).min(self.samples.len()))
        };
        let near: Vec<f64> = self.samples[a..b].iter().map(|s| s.1).collect();
        secs * REFERENCE_S / median(&near)
    }

    /// The median sample over the whole run.
    pub fn median_sample_s(&self) -> f64 {
        let k: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median(&k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_divides_by_the_median_sample_in_the_window() {
        let mut g = Gauge::off();
        let start = g.origin;
        assert_eq!(g.scale(start, 0.5), 0.5);
        g.on = true;
        let k = REFERENCE_S;
        // Samples at 0, 10 and 20 ms; one far away at 1 s is ignored.
        g.samples = vec![
            (0.0, 2.0 * k),
            (0.01, 4.0 * k),
            (0.02, 2.0 * k),
            (1.0, 8.0 * k),
        ];
        let secs = g.scale(start, 0.004);
        assert!((secs - 0.002).abs() < 1e-12, "{secs}");
        // Past every sample, the last one counts.
        let late = start + std::time::Duration::from_secs(5);
        assert!((g.scale(late, 0.8) - 0.1).abs() < 1e-12);
    }
}
