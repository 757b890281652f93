//! Goodput search: the largest load a deployment sustains while meeting
//! its QoS bar.
//!
//! The paper defines goodput as "the number of requests served per replica
//! per second while meeting the latency targets (p99)", allowing at most
//! 1 % of requests to violate their deadlines (§4.1.2). Finding it means
//! locating the boundary of a monotone pass/fail predicate over QPS, which
//! this module does by coarse ramp-up plus bisection.

/// Rejected search parameters for [`try_max_supported_load`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchRangeError {
    /// `lo > hi` (or a bound was NaN): the interval is empty.
    InvertedRange {
        /// Requested lower bound.
        lo: f64,
        /// Requested upper bound.
        hi: f64,
    },
    /// The bisection target width was zero, negative, or NaN — the search
    /// would never terminate.
    NonPositiveResolution(f64),
}

impl std::fmt::Display for SearchRangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchRangeError::InvertedRange { lo, hi } => {
                write!(f, "lo must be <= hi (lo {lo}, hi {hi})")
            }
            SearchRangeError::NonPositiveResolution(r) => {
                write!(f, "resolution must be positive (got {r})")
            }
        }
    }
}

impl std::error::Error for SearchRangeError {}

/// Finds (approximately) the largest `x` in `[lo, hi]` for which
/// `passes(x)` holds, assuming `passes` is monotone (true below the
/// boundary, false above).
///
/// Each probe typically runs a full simulation, so the routine is frugal:
/// a geometric ramp locates a bracketing interval, then bisection narrows
/// it to `resolution`. Returns `None` when even `lo` fails.
///
/// # Panics
///
/// Panics if `lo > hi`, or `resolution` is not positive; use
/// [`try_max_supported_load`] to handle bad ranges instead.
///
/// # Example
///
/// ```
/// use qoserve_metrics::max_supported_load;
/// // Boundary at 3.7.
/// let got = max_supported_load(0.5, 10.0, 0.1, |qps| qps <= 3.7).unwrap();
/// assert!((got - 3.7).abs() <= 0.1);
/// ```
pub fn max_supported_load<F: FnMut(f64) -> bool>(
    lo: f64,
    hi: f64,
    resolution: f64,
    passes: F,
) -> Option<f64> {
    match try_max_supported_load(lo, hi, resolution, passes) {
        Ok(result) => result,
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` wrapper for statically valid ranges; fallible path is try_max_supported_load"
        )]
        Err(e) => panic!("{e}"),
    }
}

/// [`max_supported_load`] with the parameter validation surfaced as a
/// `Result`: `Err` for an unusable range, `Ok(None)` when even `lo`
/// fails, `Ok(Some(x))` for the located boundary.
pub fn try_max_supported_load<F: FnMut(f64) -> bool>(
    lo: f64,
    hi: f64,
    resolution: f64,
    mut passes: F,
) -> Result<Option<f64>, SearchRangeError> {
    if lo.is_nan() || hi.is_nan() || lo > hi {
        return Err(SearchRangeError::InvertedRange { lo, hi });
    }
    if resolution.is_nan() || resolution <= 0.0 {
        return Err(SearchRangeError::NonPositiveResolution(resolution));
    }

    if !passes(lo) {
        return Ok(None);
    }

    // Geometric ramp from lo to find a failing upper bracket.
    let mut good = lo;
    let mut bad = None;
    let mut probe = (lo * 1.5).max(lo + resolution);
    while probe < hi {
        if passes(probe) {
            good = probe;
            probe *= 1.5;
        } else {
            bad = Some(probe);
            break;
        }
    }
    let mut bad = match bad {
        Some(b) => b,
        None => {
            if passes(hi) {
                return Ok(Some(hi));
            }
            hi
        }
    };

    // Bisection.
    while bad - good > resolution {
        let mid = (good + bad) / 2.0;
        if passes(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Ok(Some(good))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_internal_boundary() {
        let got = max_supported_load(0.5, 20.0, 0.05, |x| x <= 7.3).unwrap();
        assert!((got - 7.3).abs() <= 0.05, "got {got}");
    }

    #[test]
    fn returns_none_when_lo_fails() {
        assert_eq!(max_supported_load(2.0, 10.0, 0.1, |_| false), None);
    }

    #[test]
    fn returns_hi_when_everything_passes() {
        assert_eq!(max_supported_load(1.0, 10.0, 0.1, |_| true), Some(10.0));
    }

    #[test]
    fn boundary_below_first_probe() {
        // Fails immediately above lo.
        let got = max_supported_load(1.0, 100.0, 0.01, |x| x <= 1.004).unwrap();
        assert!((1.0..=1.01).contains(&got), "got {got}");
    }

    #[test]
    fn result_always_passes() {
        let mut probes = Vec::new();
        let boundary = 4.21;
        let got = max_supported_load(0.5, 16.0, 0.02, |x| {
            probes.push(x);
            x <= boundary
        })
        .unwrap();
        assert!(got <= boundary + 1e-12);
        assert!(boundary - got <= 0.02);
    }

    #[test]
    fn probe_count_is_modest() {
        let mut count = 0;
        let _ = max_supported_load(0.5, 64.0, 0.05, |x| {
            count += 1;
            x <= 31.0
        });
        assert!(count < 30, "used {count} probes");
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn rejects_zero_resolution() {
        let _ = max_supported_load(1.0, 2.0, 0.0, |_| true);
    }

    #[test]
    fn try_variant_reports_range_errors_without_probing() {
        let mut probes = 0;
        let err = try_max_supported_load(5.0, 1.0, 0.1, |_| {
            probes += 1;
            true
        })
        .unwrap_err();
        assert_eq!(err, SearchRangeError::InvertedRange { lo: 5.0, hi: 1.0 });
        assert_eq!(probes, 0, "invalid ranges must not run simulations");

        assert_eq!(
            try_max_supported_load(1.0, 2.0, -0.5, |_| true),
            Err(SearchRangeError::NonPositiveResolution(-0.5))
        );
        assert!(try_max_supported_load(f64::NAN, 2.0, 0.1, |_| true).is_err());
        assert!(try_max_supported_load(1.0, 2.0, f64::NAN, |_| true).is_err());

        // The Ok paths mirror the panicking wrapper exactly.
        assert_eq!(try_max_supported_load(2.0, 10.0, 0.1, |_| false), Ok(None));
        let got = try_max_supported_load(0.5, 20.0, 0.05, |x| x <= 7.3)
            .unwrap()
            .unwrap();
        assert!((got - 7.3).abs() <= 0.05, "got {got}");
        assert_eq!(
            try_max_supported_load(1.0, 10.0, 0.1, |_| true),
            Ok(Some(10.0))
        );
    }
}
