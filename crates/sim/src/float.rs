//! NaN-safe float ordering — the one sanctioned home for raw float
//! comparisons in the workspace.
//!
//! `f64` is only partially ordered: `partial_cmp` returns `None` for NaN
//! and `partial_cmp(..).unwrap()` panics, while `sort_by` with a
//! NaN-swallowing comparator (`unwrap_or(Equal)`) silently violates
//! strict weak ordering and can corrupt the sort. The scheduler's hybrid
//! priority key (Eq. 4/5) and the metrics quantile path both order
//! floats, so a test in this file bans `partial_cmp` calls in every
//! crate's `src/` *except* this file, and everything routes through
//! these helpers instead. (Clippy cannot carry that ban: listing
//! `PartialOrd::partial_cmp` in `disallowed-methods` also fires on every
//! `#[derive(PartialOrd)]`.) `f64::total_cmp` implements the
//! IEEE 754 `totalOrder` predicate: every NaN has a defined place
//! (positive NaN sorts after +∞), so the order is total, deterministic,
//! and panic-free.

use std::cmp::Ordering;

/// Total order on `f64` (IEEE 754 `totalOrder`): `-NaN < -∞ < … < -0.0 <
/// +0.0 < … < +∞ < +NaN`. Use as `xs.sort_by(|a, b| cmp_f64(*a, *b))` or
/// `iter.max_by(|a, b| cmp_f64(**a, **b))`.
#[inline]
pub fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// Sorts a float slice under [`cmp_f64`] — deterministic and panic-free
/// even when NaNs are present (they gather at the ends).
#[inline]
pub fn sort_f64(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// Converts a floating-point priority (µs, smaller = sooner) into the
/// integer heap key used by the job queues.
///
/// Finite values keep the saturating `as i64` semantics the schedulers
/// have always used; NaN — which `as` would silently map to 0, i.e. the
/// *front* of the queue — is pinned to `i64::MAX` so a poisoned priority
/// sorts last and can never starve well-formed jobs.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the saturating f64-to-i64 `as` semantics ARE the documented contract of this helper"
)]
pub fn priority_micros(x: f64) -> i64 {
    if x.is_nan() {
        i64::MAX
    } else {
        x as i64
    }
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::Path;

    use super::*;
    use crate::lexer::code_only;

    /// The float-ordering rule: no `partial_cmp` call in the code of any
    /// crate's `src/` outside `fn partial_cmp(` definitions and this file.
    /// Comments and literals are not code (see `crate::lexer`).
    #[test]
    fn no_partial_cmp_outside_the_float_helpers() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut dirs = vec![];
        for krate in fs::read_dir(&crates).expect("crates/ is readable") {
            dirs.push(krate.expect("crates/ entry").path().join("src"));
        }
        let mut offenders = vec![];
        while let Some(dir) = dirs.pop() {
            let Ok(entries) = fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries {
                let path = entry.expect("src/ entry").path();
                if path.is_dir() {
                    dirs.push(path);
                    continue;
                }
                if path.extension().is_none_or(|e| e != "rs") || path.ends_with("sim/src/float.rs")
                {
                    continue;
                }
                let code = code_only(&fs::read_to_string(&path).expect("source is UTF-8"));
                for (at, _) in code.match_indices("partial_cmp(") {
                    if !code[..at].ends_with("fn ") {
                        let line = code[..at].matches('\n').count() + 1;
                        offenders.push(format!("{}:{line}", path.display()));
                    }
                }
            }
        }
        assert!(
            offenders.is_empty(),
            "`partial_cmp` is not a total order under NaN; use `f64::total_cmp` \
             (see `qoserve_sim::float`): {offenders:?}"
        );
    }

    #[test]
    fn cmp_is_total_under_nan() {
        assert_eq!(cmp_f64(1.0, 2.0), Ordering::Less);
        assert_eq!(cmp_f64(2.0, 1.0), Ordering::Greater);
        assert_eq!(cmp_f64(1.0, 1.0), Ordering::Equal);
        assert_eq!(cmp_f64(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(cmp_f64(f64::INFINITY, f64::NAN), Ordering::Less);
        // Antisymmetry holds where partial_cmp would have returned None.
        assert_eq!(cmp_f64(f64::NAN, 0.0), Ordering::Greater);
        assert_eq!(cmp_f64(0.0, f64::NAN), Ordering::Less);
    }

    #[test]
    fn sort_gathers_nans_at_the_end() {
        let mut xs = vec![3.0, f64::NAN, -1.0, 2.0];
        sort_f64(&mut xs);
        assert_eq!(&xs[..3], &[-1.0, 2.0, 3.0]);
        assert!(xs[3].is_nan());
    }

    #[test]
    fn priority_micros_preserves_finite_semantics() {
        assert_eq!(priority_micros(1234.9), 1234);
        assert_eq!(priority_micros(-7.2), -7);
        assert_eq!(priority_micros(0.0), 0);
        // Saturating cast semantics are kept for overflow.
        assert_eq!(priority_micros(1e300), i64::MAX);
        assert_eq!(priority_micros(-1e300), i64::MIN);
    }

    #[test]
    fn nan_priority_sorts_last_not_first() {
        let keys = [
            priority_micros(f64::NAN),
            priority_micros(10.0),
            priority_micros(5.0),
        ];
        let mut sorted = keys;
        sorted.sort();
        assert_eq!(sorted, [5, 10, i64::MAX]);
        assert_eq!(keys[0], i64::MAX, "NaN must not map to the queue front");
    }
}
