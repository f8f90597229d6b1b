//! Order statistics over measured samples.

/// Nearest-rank quantile `q ∈ [0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A sample taken while the hypervisor stole more than this share of the
/// guest's CPU time is left out of the figures where enough others were
/// not (see [`Gated`]). Steal only ever lengthens a sample, and at 10–18%
/// steal a closed-loop rate still spread 89% over five seeds with a 15%
/// limit, so the limit is well under the 15% at which a whole run is
/// invalid (`RUN_STEAL_LIMIT`).
pub const STEAL_LIMIT: f64 = 0.05;

/// A run in which the hypervisor stole more than this share of the
/// guest's CPU time is invalid and must be run again. Of ten `train_dist`
/// runs at 1–15% steal, the four above 10% widened the spread of
/// `serve_p50_us` from 6% to 33%; runs at 20–32% moved medians past
/// every bound.
pub const RUN_STEAL_LIMIT: f64 = 0.10;

/// Samples, each with the share of guest CPU time the hypervisor stole
/// while it was taken.
#[derive(Debug, Clone, Default)]
pub struct Gated(Vec<(f64, f64)>);

impl Gated {
    pub fn push(&mut self, x: f64, steal: f64) {
        self.0.push((x, steal));
    }

    pub fn extend(&mut self, o: &Gated) {
        self.0.extend_from_slice(&o.0);
    }

    /// The samples figures are taken from: those with steal at most
    /// `STEAL_LIMIT`, or, when those are fewer than half, the least
    /// stolen half, so a figure always rests on at least half its
    /// samples.
    pub fn timed(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        let clean = v.iter().filter(|s| s.1 <= STEAL_LIMIT).count();
        v.truncate(clean.max(v.len().div_ceil(2)));
        v.into_iter().map(|s| s.0).collect()
    }

    /// `(samples left out, all samples)`.
    pub fn dropped(&self) -> (usize, usize) {
        (self.0.len() - self.timed().len(), self.0.len())
    }
}

fn uses_all(clean: usize, stolen: usize) -> bool {
    clean < stolen
}

/// [`Hist`] counterpart of [`Gated`]: one histogram per window of
/// samples, split by the steal measured over the window.
#[derive(Debug, Clone, Default)]
pub struct GatedHist {
    pub clean: Hist,
    pub stolen: Hist,
    clean_windows: usize,
    stolen_windows: usize,
}

impl GatedHist {
    pub fn push(&mut self, window: &Hist, steal: f64) {
        if steal <= STEAL_LIMIT {
            self.clean.merge(window);
            self.clean_windows += 1;
        } else {
            self.stolen.merge(window);
            self.stolen_windows += 1;
        }
    }

    pub fn extend(&mut self, o: &GatedHist) {
        self.clean.merge(&o.clean);
        self.stolen.merge(&o.stolen);
        self.clean_windows += o.clean_windows;
        self.stolen_windows += o.stolen_windows;
    }

    /// `(windows left out, all windows)`.
    pub fn dropped(&self) -> (usize, usize) {
        let all = self.clean_windows + self.stolen_windows;
        if uses_all(self.clean_windows, self.stolen_windows) {
            (0, all)
        } else {
            (self.stolen_windows, all)
        }
    }

    /// See [`Gated::timed`], by windows.
    pub fn timed(&self) -> Hist {
        let mut h = self.clean.clone();
        if uses_all(self.clean_windows, self.stolen_windows) {
            h.merge(&self.stolen);
        }
        h
    }

    /// Every sample, clean or not.
    pub fn all(&self) -> Hist {
        let mut h = self.clean.clone();
        h.merge(&self.stolen);
        h
    }
}

/// Sub-buckets per power of two: bucket width is at most 1/128 (0.8%)
/// of the value it holds.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^MAX_EXP ns (about 69 s) land in the last bucket.
const MAX_EXP: u32 = 36;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * SUB as usize;

/// Fixed-size log-linear histogram of nanosecond values. Its memory does
/// not depend on how many samples it holds, so a run that serves more
/// requests does not read as a larger `peak_rss_mb`.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
        }
    }
}

/// Bucket of `v`: values below `SUB` have one bucket each; above, each
/// power of two is split into `SUB` equal buckets.
fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = (63 - v.leading_zeros()).min(MAX_EXP);
    if exp == MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    ((exp - SUB_BITS + 1) as usize) * SUB as usize + ((v >> shift) - SUB) as usize
}

/// `[lo, hi)` of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    let (row, col) = ((i as u64) / SUB, (i as u64) % SUB);
    if row == 0 {
        return (col, col + 1);
    }
    let shift = row - 1;
    ((SUB + col) << shift, (SUB + col + 1) << shift)
}

impl Hist {
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Nearest-rank `q`-quantile, placed inside its bucket by linear
    /// interpolation over the bucket's samples, so the figure moves
    /// continuously instead of jumping from bucket edge to bucket edge
    /// (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, hi) = bucket_range(i);
                let within = (rank - seen) as f64 - 0.5;
                return lo as f64 + (hi - lo) as f64 * within / c as f64;
            }
            seen += c;
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut prev_hi = 0;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, prev_hi, "bucket {i}");
            assert!(hi > lo);
            if i + 1 < BUCKETS {
                assert_eq!(bucket(lo), i);
                assert_eq!(bucket(hi - 1), i);
            }
            prev_hi = hi;
        }
    }

    #[test]
    fn quantiles_stay_within_a_bucket_of_exact() {
        let mut h = Hist::default();
        let xs: Vec<f64> = (1..=10_000u64)
            .map(|i| (i * i % 97_331 + 20_000) as f64)
            .collect();
        for &x in &xs {
            h.record(x as u64);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = quantile(&xs, q);
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= exact / 128.0 + 1.0,
                "q {q}: {got} vs {exact}"
            );
        }
    }
}
