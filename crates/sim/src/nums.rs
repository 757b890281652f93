//! Checked integer conversions — the one sanctioned home for raw integer
//! casts in the workspace.
//!
//! Simulated time is integer microseconds and token budgets are integer
//! counts, so conversion mistakes corrupt results silently: `as` truncates
//! (`u128 as u64`), wraps (`i64 as u64`), or clamps (`f64 as u64`) with no
//! panic to point at the site. The time/token-math crates (sim, engine,
//! sched, cluster, perf) deny clippy's `cast_possible_truncation`,
//! `cast_sign_loss` and `cast_possible_wrap` in library code; this file
//! is the one module-level exception, and everything routes through
//! these helpers instead. Each helper names its policy (clamp, saturate,
//! widen) in its signature, keeps the exact semantics the call sites
//! have always had — replayed traces stay bit-identical — and
//! debug-asserts when a supposedly lossless conversion would actually
//! lose information.

#![expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    reason = "the sanctioned cast helpers: each names its clamp, saturate or widen policy"
)]

/// Rounds a microsecond quantity to the nearest whole tick. Negative and
/// NaN inputs clamp to zero; values beyond `u64::MAX` saturate. (These
/// are the `f64 as u64` semantics the time types have always used, made
/// explicit.)
#[inline]
pub fn f64_round_to_u64(x: f64) -> u64 {
    x.round() as u64
}

/// Truncates a non-negative quantity toward zero (a byte count from a
/// fractional capacity). Negative and NaN inputs clamp to zero; values
/// beyond `u64::MAX` saturate. (The `f64 as u64` semantics, made
/// explicit.)
#[inline]
pub fn f64_trunc_to_u64(x: f64) -> u64 {
    x as u64
}

/// Signed difference `a - b` between two unsigned microsecond counters,
/// as two's-complement arithmetic (never panics; deltas beyond
/// `± i64::MAX` wrap, which simulated timestamps never approach).
#[inline]
pub fn u64_delta_i64(a: u64, b: u64) -> i64 {
    a.wrapping_sub(b) as i64
}

/// Clamps a signed microsecond count to an unsigned one: negatives
/// (expired slack) become zero.
#[inline]
pub fn i64_clamp_u64(x: i64) -> u64 {
    x.max(0) as u64
}

/// Clamps an unsigned microsecond count into the signed range: values
/// above `i64::MAX` saturate.
#[inline]
pub fn u64_clamp_i64(x: u64) -> i64 {
    x.min(i64::MAX as u64) as i64
}

/// Widens a shard index or a length to `u64`. Lossless on every supported
/// target (`usize` is at most 64 bits).
#[inline]
pub const fn usize_to_u64(x: usize) -> u64 {
    x as u64
}

/// Narrows a counter to `usize` for indexing. Lossless on 64-bit
/// targets; debug-asserts on 32-bit ones where a count beyond 4 billion
/// would truncate.
#[inline]
pub fn u64_to_usize(x: u64) -> usize {
    debug_assert!(
        x <= usize::MAX as u64,
        "u64 value {x} does not fit in usize"
    );
    x as usize
}

/// Widens a 32-bit count or index to `usize`. Lossless on every supported
/// target (`usize` is at least 32 bits).
#[inline]
pub const fn u32_to_usize(x: u32) -> usize {
    x as usize
}

/// Narrows a length or index to the 32-bit form used by batch counts.
/// Debug-asserts on real truncation; batches are bounded far below 4
/// billion entries.
#[inline]
pub fn usize_to_u32(x: usize) -> u32 {
    debug_assert!(x <= u32::MAX as usize, "value {x} does not fit in u32");
    x as u32
}

/// Narrows a 64-bit counter to the 32-bit form used by token and batch
/// counts. Debug-asserts on real truncation.
#[inline]
pub fn u64_to_u32(x: u64) -> u32 {
    debug_assert!(x <= u64::from(u32::MAX), "value {x} does not fit in u32");
    x as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_clamps_and_saturates() {
        assert_eq!(f64_round_to_u64(1.4), 1);
        assert_eq!(f64_round_to_u64(1.5), 2);
        assert_eq!(f64_round_to_u64(-3.0), 0);
        assert_eq!(f64_round_to_u64(f64::NAN), 0);
        assert_eq!(f64_round_to_u64(1e300), u64::MAX);
    }

    #[test]
    fn f64_trunc_drops_the_fraction() {
        assert_eq!(f64_trunc_to_u64(1.9), 1);
        assert_eq!(f64_trunc_to_u64(-0.5), 0);
        assert_eq!(f64_trunc_to_u64(f64::NAN), 0);
        assert_eq!(f64_trunc_to_u64(1e300), u64::MAX);
    }

    #[test]
    fn signed_delta_is_exact_for_time_ranges() {
        assert_eq!(u64_delta_i64(5, 2), 3);
        assert_eq!(u64_delta_i64(2, 5), -3);
        assert_eq!(u64_delta_i64(0, 0), 0);
        assert_eq!(u64_delta_i64(0, 1), -1);
    }

    #[test]
    fn clamps_hold_at_the_boundaries() {
        assert_eq!(i64_clamp_u64(-1), 0);
        assert_eq!(i64_clamp_u64(i64::MAX), i64::MAX as u64);
        assert_eq!(u64_clamp_i64(u64::MAX), i64::MAX);
        assert_eq!(u64_clamp_i64(7), 7);
    }

    #[test]
    fn index_widening_round_trips() {
        assert_eq!(usize_to_u64(42), 42);
        assert_eq!(u64_to_usize(42), 42);
        assert_eq!(u32_to_usize(7), 7);
        assert_eq!(usize_to_u32(7), 7);
    }

    #[test]
    #[should_panic(expected = "does not fit in u32")]
    #[cfg(debug_assertions)]
    fn narrowing_truncation_is_caught_in_debug() {
        usize_to_u32(u32::MAX as usize + 1);
    }
}
