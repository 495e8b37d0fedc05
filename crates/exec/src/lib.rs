//! # katara-exec — deterministic scoped parallelism
//!
//! A small from-scratch worker pool (no external dependencies, per the
//! workspace's vendored-shim policy) built on [`std::thread::scope`],
//! powering the discovery/repair/eval hot paths.
//!
//! The contract every primitive here upholds is **thread-count
//! invariance**: results are a pure function of the inputs, never of how
//! many workers executed them or how work was interleaved. This is what
//! lets `--threads N` be a pure performance knob — `--threads 1` runs the
//! exact sequential code path, and any `N` produces byte-identical
//! output. It is achieved by construction:
//!
//! * work items are *index ranges*, claimed atomically but **written back
//!   by index**, so the output `Vec` order equals the input order;
//! * a panicking worker aborts the whole map and re-raises the panic at
//!   the call site, so errors cannot be silently dropped.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable overriding [`Threads::auto`]'s worker count.
pub const THREADS_ENV: &str = "KATARA_THREADS";

/// A shared, cooperative cancellation deadline.
///
/// A `Deadline` is checked — never enforced — at the pipeline's
/// cancellation points (phase boundaries, the validation scheduler loop,
/// the annotation row loop, the repair index build's seed loop, repair
/// workers, and the crowd's ask loop).
/// [`Deadline::none`] (the `Default`) never expires and adds no
/// per-check cost beyond a branch, so existing call sites are
/// byte-identical when no deadline is set.
///
/// Clones share state through an [`Arc`]: the pipeline hands one deadline
/// to every stage and the crowd, and the first check that observes expiry
/// latches it for all holders ([`Deadline::triggered`]). Besides the
/// wall-clock mode there is a deterministic *check-budget* mode
/// ([`Deadline::after_checks`]) that expires after a fixed number of
/// [`Deadline::expired`] calls — tests use it to drive expiry into every
/// cancellation point reproducibly — and an external trip switch
/// ([`Deadline::cancel`]) for client disconnects.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    inner: Option<Arc<DeadlineInner>>,
}

#[derive(Debug)]
struct DeadlineInner {
    at: Option<Instant>,
    /// Remaining `expired()` calls before tripping (check-budget mode).
    checks: Option<AtomicI64>,
    /// Latched once any check observes expiry (or `cancel` is called).
    tripped: AtomicBool,
}

impl Deadline {
    /// The inert deadline: never expires, consumes nothing.
    pub fn none() -> Self {
        Deadline { inner: None }
    }

    /// Expires once the wall clock reaches `at`.
    pub fn at(at: Instant) -> Self {
        Deadline {
            inner: Some(Arc::new(DeadlineInner {
                at: Some(at),
                checks: None,
                tripped: AtomicBool::new(false),
            })),
        }
    }

    /// Expires `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Deadline::at(Instant::now() + timeout)
    }

    /// Deterministic mode: the first `n` [`Deadline::expired`] calls
    /// return `false`, every later one `true`. The budget is shared by
    /// all clones, whichever thread checks.
    pub fn after_checks(n: u64) -> Self {
        Deadline {
            inner: Some(Arc::new(DeadlineInner {
                at: None,
                checks: Some(AtomicI64::new(n.min(i64::MAX as u64) as i64)),
                tripped: AtomicBool::new(false),
            })),
        }
    }

    /// True when no expiry condition is configured at all.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// Trip the deadline from outside (e.g. the client disconnected).
    /// No-op on an inert deadline.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.tripped.store(true, Ordering::Relaxed);
        }
    }

    /// Cancellation-point check: has the deadline expired? In
    /// check-budget mode this consumes one check. Once it returns `true`
    /// it returns `true` forever (expiry latches).
    pub fn expired(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.tripped.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(at) = inner.at {
            if Instant::now() >= at {
                inner.tripped.store(true, Ordering::Relaxed);
                return true;
            }
        }
        if let Some(checks) = &inner.checks {
            if checks.fetch_sub(1, Ordering::Relaxed) <= 0 {
                inner.tripped.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Did any check (on any clone) observe expiry? Unlike
    /// [`Deadline::expired`] this never consumes a check — it reports
    /// what cooperative cancellation actually saw, which is what a
    /// degradation report should state.
    pub fn triggered(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.tripped.load(Ordering::Relaxed))
    }

    /// Wall-clock time left, `None` when no wall deadline is set.
    /// Saturates at zero.
    pub fn remaining(&self) -> Option<Duration> {
        let at = self.inner.as_ref()?.at?;
        Some(at.saturating_duration_since(Instant::now()))
    }
}

/// A validated worker-thread count (always ≥ 1).
///
/// `Threads::default()` resolves [`Threads::auto`]: the `KATARA_THREADS`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Threads(usize);

impl Threads {
    /// Exactly `n` workers; `0` is clamped to `1`.
    pub fn fixed(n: usize) -> Self {
        Threads(n.max(1))
    }

    /// The sequential executor (one worker, no thread spawning).
    pub fn single() -> Self {
        Threads(1)
    }

    /// `KATARA_THREADS` if set to a positive integer, otherwise the
    /// machine's available parallelism (1 if that cannot be determined).
    pub fn auto() -> Self {
        if let Ok(v) = std::env::var(THREADS_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return Threads(n);
                }
            }
        }
        Threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::auto()
    }
}

impl std::fmt::Display for Threads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Order-preserving parallel map over `0..n`.
///
/// `f(i)` computes the result for index `i`. Indexes are claimed
/// dynamically (an atomic counter), so uneven item costs balance across
/// workers, but the output `Vec` is always `[f(0), f(1), …, f(n-1)]` in
/// index order — byte-identical for every thread count.
///
/// With one worker (or `n <= 1`) no thread is spawned and items run in
/// index order — the exact sequential loop.
///
/// Panics in `f` are re-raised at the call site once all workers have
/// stopped.
pub fn par_map_indexed<R, F>(threads: Threads, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.get().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => buckets.push(local),
                // Re-raise the worker's panic with its original payload.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    // Deterministic merge: every index was claimed by exactly one worker;
    // placing results by index restores input order regardless of which
    // worker computed what.
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in buckets.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| {
            // invariant: fetch_add hands out each index in 0..n exactly
            // once, and each claimed index pushes exactly one result.
            s.expect("every index in 0..n was claimed exactly once")
        })
        .collect()
}

/// Order-preserving parallel map over a slice.
pub fn par_map<T, R, F>(threads: Threads, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(threads, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_matches_input_order() {
        for t in [1, 2, 3, 8, 33] {
            let out = par_map_indexed(Threads::fixed(t), 100, |i| i * i);
            let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(out, expected, "threads={t}");
        }
    }

    #[test]
    fn slice_map_preserves_order() {
        let items: Vec<String> = (0..50).map(|i| format!("item{i}")).collect();
        let seq = par_map(Threads::single(), &items, |s| s.len());
        let par = par_map(Threads::fixed(4), &items, |s| s.len());
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let out: Vec<usize> = par_map_indexed(Threads::fixed(8), 0, |i| i);
        assert!(out.is_empty());
        let out = par_map_indexed(Threads::fixed(8), 1, |i| i + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map_indexed(Threads::fixed(2), 8, |i| {
                if i == 5 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn fixed_clamps_zero_to_one() {
        assert_eq!(Threads::fixed(0).get(), 1);
        assert_eq!(Threads::fixed(7).get(), 7);
        assert_eq!(Threads::single().get(), 1);
    }

    #[test]
    fn auto_is_at_least_one() {
        assert!(Threads::auto().get() >= 1);
        assert!(Threads::default().get() >= 1);
    }

    #[test]
    fn inert_deadline_never_expires() {
        let d = Deadline::none();
        assert!(d.is_unlimited());
        for _ in 0..1000 {
            assert!(!d.expired());
        }
        assert!(!d.triggered());
        assert_eq!(d.remaining(), None);
        // Default is the inert deadline.
        assert!(Deadline::default().is_unlimited());
    }

    #[test]
    fn check_budget_expires_after_n_checks_and_latches() {
        let d = Deadline::after_checks(3);
        assert!(!d.is_unlimited());
        assert!(!d.expired());
        assert!(!d.expired());
        assert!(!d.expired());
        assert!(!d.triggered(), "triggered is not a consuming check");
        assert!(d.expired());
        assert!(d.triggered());
        assert!(d.expired(), "expiry latches");
        // Zero checks trips on the very first check.
        let d0 = Deadline::after_checks(0);
        assert!(d0.expired());
    }

    #[test]
    fn clones_share_the_check_budget() {
        let d = Deadline::after_checks(2);
        let c = d.clone();
        assert!(!d.expired());
        assert!(!c.expired());
        assert!(d.expired());
        assert!(c.triggered(), "trip is visible through every clone");
    }

    #[test]
    fn wall_deadline_expires_and_reports_remaining() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining().is_some_and(|r| r > Duration::from_secs(1)));
        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn cancel_trips_immediately() {
        let d = Deadline::after(Duration::from_secs(3600));
        d.cancel();
        assert!(d.expired());
        assert!(d.triggered());
        // Cancelling the inert deadline stays a no-op.
        let none = Deadline::none();
        none.cancel();
        assert!(!none.expired());
    }

    #[test]
    fn borrows_non_static_data() {
        // Scoped threads may borrow stack data — the property the hot
        // paths rely on (tables/KBs are borrowed, not Arc'd).
        let data: Vec<usize> = (0..32).collect();
        let sum: usize = par_map(Threads::fixed(3), &data, |&x| x * 2)
            .into_iter()
            .sum();
        assert_eq!(sum, data.iter().sum::<usize>() * 2);
    }
}
