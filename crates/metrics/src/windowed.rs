//! Fixed-window streaming aggregates with *exact* merges.
//!
//! The live-stats layer (`qoserve-stats`) folds trace events into
//! per-window aggregates and publishes them as delta snapshots whose
//! left-fold merge must reproduce the full snapshot bit-for-bit. That
//! rules out anything order-sensitive per window: these helpers keep only
//! integer counts/sums/extrema per fixed window, so merging two disjoint
//! windows' worth of data is associative and exact regardless of how the
//! stream was cut into deltas.
//!
//! Windows are half-open `[k·w, (k+1)·w)` keyed by index `k`, matching
//! [`RollingSeries`] bucketing; empty windows are
//! omitted.

use std::collections::BTreeMap;

use crate::rolling::RollingSeries;

/// One window's pass/fail tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowCount {
    /// Samples recorded in the window.
    pub total: u64,
    /// Samples recorded with the flag set (e.g. SLO-violating requests).
    pub flagged: u64,
}

qoserve_sim::json_struct!(WindowCount { total, flagged });

/// Pass/fail tallies over fixed windows (SLO attainment, cause counts).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowedCounts {
    /// Window length in microseconds (≥ 1).
    pub window_us: u64,
    /// Non-empty windows keyed by window index.
    pub windows: BTreeMap<u64, WindowCount>,
}

qoserve_sim::json_struct!(WindowedCounts { window_us, windows });

impl WindowedCounts {
    /// An empty tally over `window_us`-wide windows (clamped to ≥ 1 µs).
    pub fn new(window_us: u64) -> WindowedCounts {
        WindowedCounts {
            window_us: window_us.max(1),
            windows: BTreeMap::new(),
        }
    }

    /// Tallies one sample at `time_us`.
    pub fn record(&mut self, time_us: u64, flagged: bool) {
        let w = self
            .windows
            .entry(time_us / self.window_us.max(1))
            .or_default();
        w.total += 1;
        if flagged {
            w.flagged += 1;
        }
    }

    /// Adds `other`'s tallies into `self` (exact: per-window addition).
    /// An empty `self` adopts `other`'s window length.
    pub fn merge(&mut self, other: &WindowedCounts) {
        if self.windows.is_empty() && self.window_us <= 1 {
            self.window_us = other.window_us;
        }
        for (&idx, count) in &other.windows {
            let w = self.windows.entry(idx).or_default();
            w.total += count.total;
            w.flagged += count.flagged;
        }
    }

    /// Total samples across all windows.
    pub fn total(&self) -> u64 {
        self.windows.values().map(|w| w.total).sum()
    }

    /// Flagged samples across all windows.
    pub fn flagged(&self) -> u64 {
        self.windows.values().map(|w| w.flagged).sum()
    }

    /// Per-window attainment (fraction of samples *not* flagged) as a
    /// [`RollingSeries`] point per non-empty window.
    pub fn attainment_series(&self) -> RollingSeries {
        let window_us = self.window_us.max(1);
        RollingSeries {
            window_secs: window_us as f64 / 1e6,
            points: self
                .windows
                .iter()
                .filter(|(_, w)| w.total > 0)
                .map(|(&idx, w)| {
                    let start_secs = (idx * window_us) as f64 / 1e6;
                    let attained = 1.0 - w.flagged as f64 / w.total as f64;
                    (start_secs, attained)
                })
                .collect(),
        }
    }
}

/// One window's integer-sample aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowAgg {
    /// Samples recorded in the window.
    pub count: u64,
    /// Sum of sample values.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

qoserve_sim::json_struct!(WindowAgg {
    count,
    sum,
    min,
    max
});

impl WindowAgg {
    fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    fn merge(&mut self, other: &WindowAgg) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean sample value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// Integer-valued sample aggregates over fixed windows (queue depth,
/// chunk budget, iteration latency).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowedSamples {
    /// Window length in microseconds (≥ 1).
    pub window_us: u64,
    /// Non-empty windows keyed by window index.
    pub windows: BTreeMap<u64, WindowAgg>,
}

qoserve_sim::json_struct!(WindowedSamples { window_us, windows });

impl WindowedSamples {
    /// An empty aggregate over `window_us`-wide windows (clamped to ≥ 1 µs).
    pub fn new(window_us: u64) -> WindowedSamples {
        WindowedSamples {
            window_us: window_us.max(1),
            windows: BTreeMap::new(),
        }
    }

    /// Records one sample at `time_us`.
    pub fn record(&mut self, time_us: u64, value: u64) {
        self.windows
            .entry(time_us / self.window_us.max(1))
            .or_default()
            .record(value);
    }

    /// Adds `other`'s windows into `self` (exact: integer count/sum and
    /// extrema merges). An empty `self` adopts `other`'s window length.
    pub fn merge(&mut self, other: &WindowedSamples) {
        if self.windows.is_empty() && self.window_us <= 1 {
            self.window_us = other.window_us;
        }
        for (&idx, agg) in &other.windows {
            self.windows.entry(idx).or_default().merge(agg);
        }
    }

    /// Total samples across all windows.
    pub fn count(&self) -> u64 {
        self.windows.values().map(|w| w.count).sum()
    }

    /// Largest sample across all windows, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.windows
            .values()
            .filter(|w| w.count > 0)
            .map(|w| w.max)
            .max()
    }

    /// Per-window mean as a [`RollingSeries`] point per non-empty window.
    pub fn mean_series(&self) -> RollingSeries {
        let window_us = self.window_us.max(1);
        RollingSeries {
            window_secs: window_us as f64 / 1e6,
            points: self
                .windows
                .iter()
                .filter_map(|(&idx, w)| w.mean().map(|m| ((idx * window_us) as f64 / 1e6, m)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_sim::json;

    #[test]
    fn counts_bucket_half_open_and_merge_exactly() {
        let mut a = WindowedCounts::new(10);
        a.record(0, false);
        a.record(9, true);
        a.record(10, false); // boundary sample lands in the next window
        let mut b = WindowedCounts::new(10);
        b.record(9, true);
        b.record(25, false);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total(), 5);
        assert_eq!(merged.flagged(), 2);
        assert_eq!(
            merged.windows[&0],
            WindowCount {
                total: 3,
                flagged: 2
            }
        );
        assert_eq!(
            merged.windows[&1],
            WindowCount {
                total: 1,
                flagged: 0
            }
        );
        assert_eq!(
            merged.windows[&2],
            WindowCount {
                total: 1,
                flagged: 0
            }
        );
        // Merge order does not matter.
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(merged, other_way);
    }

    #[test]
    fn attainment_series_matches_window_tallies() {
        let mut c = WindowedCounts::new(1_000_000);
        for i in 0..4 {
            c.record(100, i == 0); // window 0: 4 samples, 1 flagged
        }
        c.record(2_500_000, false); // window 2: all attained
        let series = c.attainment_series();
        assert_eq!(series.window_secs, 1.0);
        assert_eq!(series.points, vec![(0.0, 0.75), (2.0, 1.0)]);
    }

    #[test]
    fn samples_track_extrema_and_merge_exactly() {
        let mut a = WindowedSamples::new(10);
        a.record(1, 5);
        a.record(2, 15);
        let mut b = WindowedSamples::new(10);
        b.record(3, 2);
        b.record(11, 40);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.max(), Some(40));
        assert_eq!(
            merged.windows[&0],
            WindowAgg {
                count: 3,
                sum: 22,
                min: 2,
                max: 15
            }
        );
        let mut other_way = b;
        other_way.merge(&a);
        assert_eq!(merged, other_way);
    }

    #[test]
    fn empty_aggregates_adopt_window_length_on_merge() {
        let mut empty = WindowedCounts::default();
        let mut full = WindowedCounts::new(500);
        full.record(600, true);
        empty.merge(&full);
        assert_eq!(empty, full);
        let mut empty_s = WindowedSamples::default();
        let mut full_s = WindowedSamples::new(500);
        full_s.record(600, 9);
        empty_s.merge(&full_s);
        assert_eq!(empty_s, full_s);
    }

    #[test]
    fn mean_series_omits_empty_windows() {
        let mut s = WindowedSamples::new(1_000_000);
        s.record(0, 10);
        s.record(1, 20);
        s.record(3_000_000, 7);
        let series = s.mean_series();
        assert_eq!(series.points, vec![(0.0, 15.0), (3.0, 7.0)]);
    }

    #[test]
    fn json_round_trips_with_defaults() {
        let mut c = WindowedCounts::new(60_000_000);
        c.record(1, true);
        assert_eq!(json::from_str(&json::to_string(&c)), Ok(c));
        let mut s = WindowedSamples::new(10);
        s.record(3, 9);
        assert_eq!(json::from_str(&json::to_string(&s)), Ok(s));
        // Missing fields default (back-compat with older snapshots).
        let old: WindowedCounts = json::from_str("{}").unwrap();
        assert_eq!(old, WindowedCounts::default());
    }
}
