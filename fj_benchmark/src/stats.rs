//! Sample statistics: medians, quartiles, percentiles with the ten-beyond
//! rule, and the fixed-width windows every in-run timing is taken over.

use crate::sys;
use std::time::{Duration, Instant};

/// Windows the timed phase is cut into. A rate is a quartile over the
/// windows (see [`upper_quartile`]), not total/elapsed, so a
/// noisy-neighbour burst costs a few windows and not the run.
pub const WINDOWS: usize = 30;

/// Samples a percentile needs beyond it before it is reported
/// (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median with the mean of the two middle samples for an even count.
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples (a layer that saw no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `p` in (0, 100): the smallest sample with at
/// least `p`% of the samples at or below it. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank — the percentile would be
/// set by a handful of outliers.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let beyond = v.len().checked_sub(rank)?;
    (rank >= 1 && beyond >= MIN_BEYOND).then(|| v[rank - 1])
}

/// The highest of `p` and the lower percentiles 90, 75 that has
/// [`MIN_BEYOND`] samples beyond it, falling back to the median — so a
/// short run still reports a number, from the part of the distribution
/// it has actually sampled.
pub fn percentile_or_lower(values: &[f64], p: f64) -> f64 {
    [p, 90.0, 75.0]
        .into_iter()
        .filter(|q| *q <= p)
        .find_map(|q| percentile(values, q))
        .unwrap_or_else(|| median(values))
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(values: &[f64]) -> f64 {
    let m = mean(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / values.len() as f64;
    var.sqrt() / m
}

/// The quartile on the slow side of `values` is set by how much of the
/// run a noisy neighbour covered; the quartile on the fast side by the
/// program. Measured here, same seed, fourteen 15 s runs of
/// `direct_stats`: the median window's rate varies 7.0% between runs
/// (interquartile range over median), the upper-quartile window's 3.7% —
/// interference on this sandbox comes in phases of 5–20 s and only ever
/// slows the program down. So every in-run statistic is the quartile on
/// its good side: the lower one for a time …
pub fn lower_quartile(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartile of no samples");
    v[v.len().div_ceil(4) - 1]
}

/// … and the upper one for a rate.
pub fn upper_quartile(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartile of no samples");
    v[v.len() - v.len().div_ceil(4)]
}

/// One closed window of the timed phase (or one re-estimation pass of a
/// `lifecycle` cycle).
#[derive(Debug, Clone)]
pub struct Window {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub queries: u64,
    pub subplans: u64,
    /// Latency of every op that finished in the window.
    pub latencies_us: Vec<f64>,
}

impl Window {
    pub fn subplans_per_s(&self) -> f64 {
        self.subplans as f64 / self.wall_s
    }

    pub fn cpu_us_per_query(&self) -> f64 {
        self.cpu_s * 1e6 / self.queries as f64
    }
}

/// Cuts a timed phase into [`WINDOWS`] equal windows and collects work,
/// process CPU time and latencies in each.
pub struct WindowClock {
    width: Duration,
    start: Instant,
    cpu_start: f64,
    queries: u64,
    subplans: u64,
    latencies_us: Vec<f64>,
    closed: Vec<Window>,
}

impl WindowClock {
    pub fn start(total: Duration) -> Self {
        WindowClock {
            width: total / WINDOWS as u32,
            start: Instant::now(),
            cpu_start: sys::process_cpu_seconds(),
            queries: 0,
            subplans: 0,
            latencies_us: Vec::new(),
            closed: Vec::with_capacity(WINDOWS + 1),
        }
    }

    /// Counts one op that finished at `now` and closes the window if `now`
    /// is past its end. An op that straddles a boundary counts in the
    /// window that closes with it, and the window's measured width
    /// stretches to match.
    pub fn record(&mut self, now: Instant, latency_us: f64, queries: u64, subplans: u64) {
        self.queries += queries;
        self.subplans += subplans;
        self.latencies_us.push(latency_us);
        if now.duration_since(self.start) >= self.width {
            let cpu = sys::process_cpu_seconds();
            let samples = self.latencies_us.len();
            self.closed.push(Window {
                wall_s: now.duration_since(self.start).as_secs_f64(),
                cpu_s: cpu - self.cpu_start,
                queries: self.queries,
                subplans: self.subplans,
                latencies_us: std::mem::replace(
                    &mut self.latencies_us,
                    Vec::with_capacity(samples + samples / 4),
                ),
            });
            self.start = now;
            self.cpu_start = cpu;
            self.queries = 0;
            self.subplans = 0;
        }
    }

    /// The closed windows; work after the last boundary is dropped.
    pub fn finish(self) -> Vec<Window> {
        self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_ties() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0, 5.0, 5.0, 1.0]), 5.0);
    }

    #[test]
    fn p95_of_a_known_vector() {
        // 1..=1000: nearest rank 950, fifty samples beyond.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(950.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
    }

    #[test]
    fn percentile_with_ties_returns_the_tied_value() {
        let mut v = vec![7.0; 300];
        v.extend([9.0; 12]);
        assert_eq!(percentile(&v, 95.0), Some(7.0));
        assert_eq!(percentile(&v, 96.5), Some(9.0));
    }

    #[test]
    fn fewer_than_ten_beyond_is_refused() {
        // 100 samples: p95 leaves 5 beyond, p90 leaves exactly 10.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), None);
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile_or_lower(&v, 95.0), 90.0);
        // 12 samples: nothing above the median qualifies.
        let small: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile_or_lower(&small, 95.0), median(&small));
        assert_eq!(percentile(&[], 95.0), None);
    }

    #[test]
    fn cv_of_constant_and_spread() {
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
        assert_eq!(cv(&[]), 0.0);
    }

    #[test]
    fn quartiles_sit_on_their_side() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&v), 2.0);
        assert_eq!(upper_quartile(&v), 7.0);
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(upper_quartile(&[5.0]), 5.0);
        // Three slow windows of eight do not move the good quartile.
        let rates = [100.0, 101.0, 99.0, 100.0, 60.0, 55.0, 70.0, 100.0];
        assert_eq!(upper_quartile(&rates), 100.0);
    }

    #[test]
    fn window_clock_closes_on_width() {
        let mut clock = WindowClock::start(Duration::from_millis(30 * WINDOWS as u64));
        let t0 = clock.start;
        clock.record(t0 + Duration::from_millis(10), 10.0, 1, 5);
        clock.record(t0 + Duration::from_millis(31), 21.0, 1, 5);
        clock.record(t0 + Duration::from_millis(40), 9.0, 1, 7);
        let ws = clock.finish();
        assert_eq!(ws.len(), 1);
        assert_eq!((ws[0].queries, ws[0].subplans), (2, 10));
        assert_eq!(ws[0].latencies_us, [10.0, 21.0]);
        assert!((ws[0].wall_s - 0.031).abs() < 1e-9);
        assert!((ws[0].subplans_per_s() - 10.0 / 0.031).abs() < 1e-6);
    }
}
