//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulator (trace sampling, arrival
//! processes, execution-time noise) draws from a [`SeedStream`], which
//! derives independent ChaCha8 substreams from a root seed and a string
//! label. Deriving by label rather than by call order means adding a new
//! consumer of randomness does not perturb the values seen by existing
//! consumers — runs stay comparable as the simulator evolves.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The generator behind every [`SeedStream`] stream (ChaCha8).
pub type SimRng = ChaCha8Rng;

/// A labelled source of deterministic random substreams.
///
/// # Example
///
/// ```
/// use qoserve_sim::{Rng, SeedStream};
///
/// let stream = SeedStream::new(42);
/// let mut arrivals = stream.derive("arrivals");
/// let mut noise = stream.derive("noise");
/// let a: f64 = arrivals.gen();
/// let n: f64 = noise.gen();
/// // Re-deriving the same label replays the same stream.
/// let mut again = stream.derive("arrivals");
/// assert_eq!(a, again.gen::<f64>());
/// assert_ne!(a, n);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedStream {
    root: u64,
}

impl SeedStream {
    /// Creates a stream family rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedStream { root: seed }
    }

    /// The root seed this family was created with.
    pub fn root_seed(&self) -> u64 {
        self.root
    }

    /// Derives an independent RNG for `label`.
    ///
    /// The same `(seed, label)` pair always yields the same stream; distinct
    /// labels yield streams that are independent for all practical purposes.
    pub fn derive(&self, label: &str) -> SimRng {
        SimRng::seed_from_u64(self.root ^ fnv1a(label.as_bytes()))
    }

    /// Derives an independent RNG for a `(label, index)` pair, for per-entity
    /// streams such as "one stream per replica".
    pub fn derive_indexed(&self, label: &str, index: u64) -> SimRng {
        let mut seed = self.root ^ fnv1a(label.as_bytes());
        seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        SimRng::seed_from_u64(seed)
    }

    /// Derives a child [`SeedStream`], for handing a whole subsystem its own
    /// family of labelled streams.
    pub fn child(&self, label: &str) -> SeedStream {
        SeedStream {
            root: self.root ^ fnv1a(label.as_bytes()).rotate_left(17),
        }
    }
}

/// Checks a property on `cases` seeded inputs: `property` runs once per
/// case on its own stream, derived from `seed` and the case index, and
/// draws its inputs from it. A failing case fails the caller with its
/// index, so the same `(cases, seed)` replays it.
///
/// ```
/// use qoserve_sim::{forall, Rng};
///
/// forall(64, 7, |rng| {
///     let (a, b) = (rng.gen_range(0..1_000u64), rng.gen_range(0..1_000u64));
///     assert_eq!(a + b, b + a);
/// });
/// ```
#[expect(
    clippy::panic,
    reason = "forall is a test helper; a failing case must fail the calling test"
)]
pub fn forall(cases: u64, seed: u64, mut property: impl FnMut(&mut SimRng)) {
    let seeds = SeedStream::new(seed);
    for case in 0..cases {
        let mut rng = seeds.derive_indexed("forall", case);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            panic!("property failed at case {case} of {cases} (seed {seed}): {msg}");
        }
    }
}

/// One seeded corruption of `doc`, for fuzzing a loader of outside bytes
/// under [`forall`]: a truncation at a char boundary, one character
/// replaced by a random ASCII byte, a line duplicated or two swapped, or
/// a number replaced by `1e999999`, `18446744073709551616` or `NaN`. The
/// result stays valid UTF-8, since the loaders take `&str`.
pub fn mutate(doc: &str, rng: &mut SimRng) -> String {
    if doc.is_empty() {
        return String::new();
    }
    let mut out = doc.to_owned();
    match rng.gen_range(0..4) {
        0 => {
            let mut end = rng.gen_range(0..=doc.len());
            while !doc.is_char_boundary(end) {
                end -= 1;
            }
            out.truncate(end);
        }
        1 => {
            let chars: Vec<(usize, char)> = doc.char_indices().collect();
            let (at, c) = chars[rng.gen_range(0..chars.len())];
            let byte = char::from(rng.gen_range(0u8..128));
            out.replace_range(at..at + c.len_utf8(), byte.encode_utf8(&mut [0; 4]));
        }
        2 => {
            let mut lines: Vec<&str> = doc.split_inclusive('\n').collect();
            let (i, j) = (rng.gen_range(0..lines.len()), rng.gen_range(0..lines.len()));
            if rng.gen_bool(0.5) {
                lines.insert(i, lines[i]);
            } else {
                lines.swap(i, j);
            }
            out = lines.concat();
        }
        _ => {
            let b = doc.as_bytes();
            let digits: Vec<usize> = (0..b.len()).filter(|&i| b[i].is_ascii_digit()).collect();
            if !digits.is_empty() {
                let in_number = |i: &usize| b[*i].is_ascii_digit() || b"+-.eE".contains(&b[*i]);
                let pick = digits[rng.gen_range(0..digits.len())];
                let start = (0..pick).rev().take_while(in_number).last().unwrap_or(pick);
                let end = (pick..b.len()).find(|i| !in_number(i)).unwrap_or(b.len());
                let hostile = ["1e999999", "18446744073709551616", "NaN"];
                out.replace_range(start..end, hostile[rng.gen_range(0..hostile.len())]);
            }
        }
    }
    out
}

/// 64-bit FNV-1a hash; tiny, stable, and good enough for seed derivation.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Draws a sample from a log-normal distribution parameterised by its
/// *median* and the ratio `p90 / p50`, clamped to `[min, max]`.
///
/// This is the primitive used to synthesise prompt/decode token counts that
/// match the published per-dataset percentiles (Table 2 of the paper): a
/// log-normal with median `m` has `ln`-mean `ln m`, and its p90/p50 ratio
/// fixes the `ln`-std via `sigma = ln(ratio) / z90` with `z90 ≈ 1.2816`.
pub fn lognormal_from_percentiles<R: Rng + ?Sized>(
    rng: &mut R,
    median: f64,
    p90_over_p50: f64,
    min: f64,
    max: f64,
) -> f64 {
    debug_assert!(median > 0.0 && p90_over_p50 >= 1.0);
    const Z90: f64 = 1.281_551_565_544_9;
    let mu = median.ln();
    let sigma = p90_over_p50.ln() / Z90;
    let z: f64 = sample_standard_normal(rng);
    (mu + sigma * z).exp().clamp(min, max)
}

/// Samples a standard normal via Box–Muller, the one non-uniform
/// distribution the simulator needs beyond the exponential below.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Draws an exponential inter-arrival gap with the given rate (events per
/// second), returned in seconds.
///
/// # Panics
///
/// Panics (debug builds) if `rate_per_sec` is not strictly positive.
pub fn exponential_gap_secs<R: RngCore + ?Sized>(rng: &mut R, rate_per_sec: f64) -> f64 {
    debug_assert!(rate_per_sec > 0.0, "arrival rate must be positive");
    let u: f64 = rand::Rng::gen::<f64>(rng);
    // Guard against ln(0).
    let u = u.max(f64::MIN_POSITIVE);
    -u.ln() / rate_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_replays_stream() {
        let s = SeedStream::new(7);
        let mut r1 = s.derive("x");
        let mut r2 = s.derive("x");
        for _ in 0..16 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let s = SeedStream::new(7);
        let mut r1 = s.derive("x");
        let mut r2 = s.derive("y");
        let same = (0..16).filter(|_| r1.next_u64() == r2.next_u64()).count();
        assert!(same < 2, "streams for distinct labels should diverge");
    }

    #[test]
    fn different_seeds_differ() {
        let mut r1 = SeedStream::new(1).derive("x");
        let mut r2 = SeedStream::new(2).derive("x");
        assert_ne!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn indexed_streams_are_distinct() {
        let s = SeedStream::new(11);
        let mut r0 = s.derive_indexed("replica", 0);
        let mut r1 = s.derive_indexed("replica", 1);
        assert_ne!(r0.next_u64(), r1.next_u64());
    }

    #[test]
    fn child_streams_are_independent_of_parent() {
        let s = SeedStream::new(11);
        let c = s.child("workload");
        let mut pr = s.derive("x");
        let mut cr = c.derive("x");
        assert_ne!(pr.next_u64(), cr.next_u64());
    }

    #[test]
    fn lognormal_hits_requested_percentiles() {
        let s = SeedStream::new(3);
        let mut rng = s.derive("ln");
        let mut samples: Vec<f64> = (0..40_000)
            .map(|_| lognormal_from_percentiles(&mut rng, 1000.0, 3.0, 1.0, 1e9))
            .collect();
        samples.sort_by(f64::total_cmp);
        let p50 = samples[samples.len() / 2];
        let p90 = samples[samples.len() * 9 / 10];
        assert!((p50 / 1000.0 - 1.0).abs() < 0.05, "p50 was {p50}");
        assert!((p90 / 3000.0 - 1.0).abs() < 0.08, "p90 was {p90}");
    }

    #[test]
    fn lognormal_respects_clamp() {
        let s = SeedStream::new(5);
        let mut rng = s.derive("clamp");
        for _ in 0..1000 {
            let v = lognormal_from_percentiles(&mut rng, 100.0, 4.0, 50.0, 150.0);
            assert!((50.0..=150.0).contains(&v));
        }
    }

    #[test]
    fn exponential_gap_mean_matches_rate() {
        let s = SeedStream::new(9);
        let mut rng = s.derive("exp");
        let n = 50_000;
        let total: f64 = (0..n).map(|_| exponential_gap_secs(&mut rng, 4.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean gap was {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let s = SeedStream::new(13);
        let mut rng = s.derive("norm");
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance was {var}");
    }

    #[test]
    fn forall_reports_the_failing_case() {
        let mut seen = Vec::new();
        forall(5, 3, |rng| seen.push(rng.next_u64()));
        assert_eq!(seen.len(), 5);
        let mut again = Vec::new();
        forall(5, 3, |rng| again.push(rng.next_u64()));
        assert_eq!(seen, again, "cases replay from (cases, seed)");
        let failure = std::panic::catch_unwind(|| {
            forall(10, 3, |rng| assert!(rng.next_u64() != seen[2], "boom"));
        })
        .expect_err("case 2 fails");
        let msg = failure
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.starts_with("property failed at case 2 of 10 (seed 3): boom"),
            "{msg}"
        );
    }

    #[test]
    fn streams_usable_with_rand_traits() {
        let s = SeedStream::new(1);
        let mut rng = s.derive("gen");
        let x: f64 = rng.gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&x));
    }
}
