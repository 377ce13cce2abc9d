//! Small helpers: a seeded RNG, order statistics, process and machine facts.

/// SplitMix64: a tiny, fully deterministic generator, so the same seed
/// yields the same workload on every machine and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((p / 100.0) * (s.len() - 1) as f64).round() as usize;
    s[idx.min(s.len() - 1)]
}

/// The tail the sample size resolves: the highest order statistic with at
/// least ten samples beyond it, never below the median. Returns
/// `(value, percentile, sample count)`.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let n = xs.len();
    if n == 0 {
        return (f64::NAN, 0.0, 0);
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = n
        .saturating_sub(11)
        .max(((n - 1) as f64 / 2.0).round() as usize);
    let pct = if n > 1 {
        100.0 * idx as f64 / (n - 1) as f64
    } else {
        50.0
    };
    (s[idx], pct, n)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Last-level cache size in bytes, from sysfs (0 when unknown).
pub fn llc_bytes() -> u64 {
    let mut best = 0u64;
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(size) = std::fs::read_to_string(format!("{base}/size")) else {
            continue;
        };
        let size = size.trim();
        let (digits, mult) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1024),
            Some('M') => (&size[..size.len() - 1], 1024 * 1024),
            _ => (size, 1),
        };
        if let Ok(v) = digits.parse::<u64>() {
            best = best.max(v * mult);
        }
    }
    best
}

/// The commit the checkout was made from, read from `.git` without running
/// git (a plain source export has no `.git` and reports `"unknown"`).
pub fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let (v, pct, n) = tail(&xs);
        assert_eq!((v, n), (89.0, 100));
        assert!((pct - 89.0 / 99.0 * 100.0).abs() < 1e-9);
        // Too few samples for a tail: fall back to the median.
        let (v, _, _) = tail(&[3.0, 1.0, 2.0]);
        assert_eq!(v, 2.0);
    }

    #[test]
    fn rng_is_seed_deterministic() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
    }
}
