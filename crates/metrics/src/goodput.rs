//! Goodput search: the largest load a deployment sustains while meeting
//! its QoS bar.
//!
//! The paper defines goodput as "the number of requests served per replica
//! per second while meeting the latency targets (p99)", allowing at most
//! 1 % of requests to violate their deadlines (§4.1.2). Finding it means
//! locating the boundary of a monotone pass/fail predicate over QPS. The
//! workspace has one such search, [`par_max_passing`]; this module names
//! it for the metrics layer and keeps no walk of its own.

use qoserve_sim::parallel::par_max_passing;

/// Finds (approximately) the largest `x` in `[lo, hi]` for which
/// `passes(x)` holds, assuming `passes` is monotone (true below the
/// boundary, false above). Returns `None` when even `lo` fails.
///
/// This is [`par_max_passing`]: a geometric ramp locates a bracketing
/// interval, then bisection narrows it to `resolution`, with the probes
/// run on the need-ordered search engine. The answer is the serial
/// walk's, bit for bit, at any thread count.
///
/// # Panics
///
/// Panics if `lo > hi`, `hi` is not finite, `resolution` is not positive,
/// or `lo + resolution` is not positive, before any probe runs. A panic in
/// `passes` reaches the caller.
///
/// # Example
///
/// ```
/// use qoserve_metrics::max_supported_load;
/// // Boundary at 3.7.
/// let got = max_supported_load(0.5, 10.0, 0.1, |qps| qps <= 3.7).unwrap();
/// assert!((got - 3.7).abs() <= 0.1);
/// ```
pub fn max_supported_load<F>(lo: f64, hi: f64, resolution: f64, passes: F) -> Option<f64>
where
    F: Fn(f64) -> bool + Sync,
{
    par_max_passing(lo, hi, resolution, passes)
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
    #[should_panic(expected = "resolution must be positive")]
    fn rejects_zero_resolution() {
        let _ = max_supported_load(1.0, 2.0, 0.0, |_| true);
    }
}
