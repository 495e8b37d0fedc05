//! The benchmark's own arithmetic: nearest-rank percentiles, the choice
//! of tail percentile, and failure accounting.

/// A tail needs at least this many samples strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// `samples` sorted ascending with `f64::total_cmp` (NaN-safe, total).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of integer percentile `p` (0..=100) among `n`
/// samples: `ceil(p·n/100)`, clamped to `1..=n`.
pub fn nearest_rank(p: u32, n: usize) -> usize {
    let rank = (p as usize * n).div_ceil(100);
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The median: the middle sample, or the mean of the two middle samples
/// of an even count (a run may hold only one or two cleans, where the
/// nearest-rank p50 would just be the faster one).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The tail latency a run reports, with the percentile it sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Integer percentile the value was taken at.
    pub percentile: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples in the run.
    pub samples: usize,
}

/// The highest integer nearest-rank percentile that still leaves
/// [`MIN_BEYOND`] samples beyond it. Runs with too few samples for any
/// such percentile fall back to the maximum (p100, nothing beyond), so a
/// tail is always reported together with how much it can be trusted.
pub fn tail(sorted: &[f64]) -> Tail {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    let p = (1..=100u32)
        .rev()
        .find(|&p| n - nearest_rank(p, n) >= MIN_BEYOND)
        .unwrap_or(100);
    Tail {
        percentile: p,
        value: percentile(sorted, p),
        beyond: n - nearest_rank(p, n),
        samples: n,
    }
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Status 200 (or a completed in-process call) whose output passed
    /// every check.
    Ok,
    /// The daemon answered with another status: 206, 429, 5xx, ...
    Status(u16),
    /// Transport or library error: no usable answer at all.
    Error,
    /// An answer arrived but failed an output check.
    CheckFailed,
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not end in [`Outcome::Ok`].
    pub failed: u64,
    /// Of `failed`: 429 load-shedding answers.
    pub shed: u64,
    /// Of `failed`: 5xx answers.
    pub server_errors: u64,
    /// Of `failed`: answers that failed an output check.
    pub check_failures: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => return,
            Outcome::Status(429) => self.shed += 1,
            Outcome::Status(s) if s >= 500 => self.server_errors += 1,
            Outcome::CheckFailed => self.check_failures += 1,
            Outcome::Status(_) | Outcome::Error => {}
        }
        self.failed += 1;
    }

    /// A check made after the operations (e.g. the end-of-stream
    /// comparison) failed: it voids one operation that was counted as a
    /// success.
    pub fn fail_completed(&mut self) {
        if self.failed < self.attempted {
            self.failed += 1;
            self.check_failures += 1;
        }
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Fold another tally (e.g. a second client's) into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.server_errors += other.server_errors;
        self.check_failures += other.check_failures;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&s, 0), 1.0);
        assert_eq!(percentile(&s, 20), 1.0);
        assert_eq!(percentile(&s, 21), 2.0);
        assert_eq!(percentile(&s, 50), 3.0);
        assert_eq!(percentile(&s, 100), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sorting_is_total_over_nan_and_signed_zero() {
        let s = sorted(&[f64::NAN, 1.0, -0.0, 0.0, f64::NEG_INFINITY]);
        assert_eq!(s[0], f64::NEG_INFINITY);
        assert!(s[1].is_sign_negative() && s[1] == 0.0);
        assert!(s[2].is_sign_positive() && s[2] == 0.0);
        assert_eq!(s[3], 1.0);
        assert!(s[4].is_nan());
        // NaN sorts last, so it only ever surfaces as the maximum.
        assert_eq!(percentile(&s, 80), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&sorted(&samples));
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90, 90.0, 10, 100)
        );

        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.percentile, t.value, t.beyond), (50, 10.0, 10));

        // 37 samples: p72 is rank 27 (10 beyond); p73 is rank 28 (9).
        let samples: Vec<f64> = (1..=37).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.percentile, t.value, t.beyond), (72, 27.0, 10));
    }

    #[test]
    fn tail_of_a_small_run_falls_back_to_the_maximum() {
        let t = tail(&[3.0]);
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (100, 3.0, 0, 1)
        );
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&samples).percentile, 100);
        // 11 samples: only ranks 1 leave 10 beyond; p9 is the highest.
        let samples: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.percentile, t.value, t.beyond), (9, 1.0, 10));
    }

    #[test]
    fn fail_ratio_counts_shed_server_errors_and_failed_checks() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Status(429),
            Outcome::Status(500),
            Outcome::Status(503),
            Outcome::Status(206),
            Outcome::CheckFailed,
            Outcome::Error,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed, 6);
        assert_eq!((t.shed, t.server_errors, t.check_failures), (1, 2, 1));
        assert!((t.fail_ratio() - 0.75).abs() < 1e-12);

        // A failed end-of-run check voids one success, never more than
        // were attempted.
        t.fail_completed();
        assert_eq!((t.failed, t.check_failures), (7, 2));
        t.fail_completed();
        t.fail_completed();
        assert_eq!(t.failed, 8);
        assert_eq!(t.fail_ratio(), 1.0);

        let mut total = Tally::default();
        assert_eq!(total.fail_ratio(), 0.0);
        total.merge(&t);
        total.record(Outcome::Ok);
        assert_eq!((total.attempted, total.failed), (9, 8));
    }
}
