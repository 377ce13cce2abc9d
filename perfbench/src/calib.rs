//! Host-speed calibration. On a shared host the same binary runs up to
//! 1.6× slower for minutes at a time, in every layer at once. Two fixed
//! kernels that call no regenr code are timed between the measured passes;
//! the end-to-end times are divided by how much slower than
//! [`REFERENCE_S`] the kernels ran, so a slow stretch of the host cancels
//! while a slower program does not.
//!
//! Both kernels work on buffers built once, before any timing, and
//! allocate nothing while timed, so neither the allocator nor any code under
//! test can move them. They run on the calling thread while the program
//! under test is idle.

use crate::util::{percentile, Rng};
use std::time::Instant;

/// A calibration time the 2-vCPU machine the bounds in `BENCHMARK.json`
/// were validated on reached in its fast stretches. A fixed constant: it
/// only sets the scale of the reported figures.
pub const REFERENCE_S: f64 = 0.8e-3;
/// The wall time of one whole sample (three runs of each kernel) that the
/// same machine reached in its fast stretches.
pub const REFERENCE_WALL_S: f64 = 6.4e-3;

/// Rows of the gather kernel; with six entries a row its matrix and
/// vectors take about 1.4 MiB, small beside every workload's peak resident
/// set, which the buffers count in.
const ROWS: usize = 16_384;
const PER_ROW: usize = 6;
/// Keys of the sort-and-hash kernel.
const KEYS: usize = 16_384;

pub struct Calibration {
    cols: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    keys: Vec<u64>,
    scratch: Vec<u64>,
    /// One entry per sample: the geometric mean of both kernels' times.
    samples: Vec<f64>,
    /// One entry per sample: its wall time, every run and preemption
    /// included.
    walls: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut rng = Rng::new(0x00ca_11b4);
        let cols = (0..ROWS * PER_ROW)
            .map(|k| ((k / PER_ROW + rng.below(256)) % ROWS) as u32)
            .collect();
        let vals = (0..ROWS * PER_ROW)
            .map(|k| 1.0 / (k % 7 + 2) as f64)
            .collect();
        let keys = (0..KEYS).map(|_| rng.next_u64()).collect();
        Calibration {
            cols,
            vals,
            x: vec![1.0; ROWS],
            y: vec![0.0; ROWS],
            keys,
            scratch: vec![0; KEYS],
            samples: Vec::new(),
            walls: Vec::new(),
        }
    }

    /// Sparse gather-multiply sweeps, the shape of an SpMV step.
    fn gather(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..16 {
            for r in 0..ROWS {
                let mut acc = 0.0;
                for k in r * PER_ROW..(r + 1) * PER_ROW {
                    acc += self.vals[k] * self.x[self.cols[k] as usize];
                }
                self.y[r] = acc;
            }
            std::mem::swap(&mut self.x, &mut self.y);
        }
        std::hint::black_box(&self.x);
        t0.elapsed().as_secs_f64()
    }

    /// Branchy integer work: sort a copy of the keys, then hash them.
    fn sort_hash(&mut self) -> f64 {
        let t0 = Instant::now();
        self.scratch.copy_from_slice(&self.keys);
        self.scratch.sort_unstable();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &k in &self.scratch {
            for b in k.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        std::hint::black_box(h);
        t0.elapsed().as_secs_f64()
    }

    /// Takes one sample: the best of three runs of each kernel, combined
    /// as a geometric mean.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let gather = (0..3).map(|_| self.gather()).fold(f64::INFINITY, f64::min);
        let sort = (0..3)
            .map(|_| self.sort_hash())
            .fold(f64::INFINITY, f64::min);
        self.samples.push((gather * sort).sqrt());
        self.walls.push(t0.elapsed().as_secs_f64());
    }

    /// Samples until about `seconds` have gone into calibration, at least
    /// once.
    pub fn sample_for(&mut self, seconds: f64) {
        let t0 = Instant::now();
        loop {
            self.sample();
            if t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The calibration time at `p` percent of the samples.
    pub fn seconds(&self, p: f64) -> f64 {
        percentile(&self.samples, p)
    }

    /// How much slower than [`REFERENCE_S`] the host ran, taken at `p`
    /// percent of the samples: a low quantile, like the one `setup_s` and
    /// `solve_s` take of their repeats, so that both see the host's fast
    /// stretches alike.
    pub fn slowdown(&self, p: f64) -> f64 {
        self.seconds(p) / REFERENCE_S
    }

    /// How much slower than [`REFERENCE_S`] the host ran on average over
    /// the samples. A shared host switches between a fast and a slow speed
    /// every second or so; the mean moves in step with the share of slow
    /// stretches, where a median would jump from one speed to the other.
    pub fn mean_slowdown(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64 / REFERENCE_S
    }

    /// How much slower than [`REFERENCE_WALL_S`] whole samples took on
    /// average. Unlike the best-of-three kernel times, a sample's wall time
    /// keeps every preemption of the process, as a served request's latency
    /// does.
    pub fn mean_wall_slowdown(&self) -> f64 {
        self.walls.iter().sum::<f64>() / self.walls.len() as f64 / REFERENCE_WALL_S
    }
}
