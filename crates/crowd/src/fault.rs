//! Fault injection and budgets for the simulated crowd.
//!
//! The paper's evaluation assumes a reliable expert crowd; real
//! crowdsourcing platforms are not. This module models the common failure
//! modes — workers who silently drop out, workers who abstain from a
//! question, spammers who answer uniformly at random, and per-answer
//! latency — plus a question/answer [`Budget`]. The platform re-issues
//! no-quorum questions at escalated replication.
//!
//! All faults are driven by a dedicated RNG stream seeded from
//! [`FaultPlan::seed`], kept separate from the worker-assignment and
//! worker-error streams. When the plan [is inert](FaultPlan::is_inert)
//! that stream is never consumed, so a crowd with the default plan is
//! byte-for-byte identical to one with no fault layer at all.

use std::fmt;

use crate::question::Answer;

/// Deterministic fault-injection plan for a simulated crowd.
///
/// The default plan injects nothing; see [`FaultPlan::is_inert`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that an assigned worker silently drops out and never
    /// delivers an answer for one replica slot.
    pub dropout_rate: f64,
    /// Probability that an assigned worker explicitly abstains (or times
    /// out) on one replica slot.
    pub abstain_rate: f64,
    /// Fraction of the worker pool that spams: spammers answer uniformly
    /// at random over all option slots, ignoring the question.
    pub spammer_fraction: f64,
    /// Simulated per-answer latency range in milliseconds, inclusive.
    /// `(0, 0)` simulates no latency.
    pub latency_ms: (u64, u64),
    /// Seed for the fault stream. Independent of [`CrowdConfig::seed`]
    /// so fault scenarios can be varied without perturbing worker
    /// behaviour.
    ///
    /// [`CrowdConfig::seed`]: crate::platform::CrowdConfig::seed
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            dropout_rate: 0.0,
            abstain_rate: 0.0,
            spammer_fraction: 0.0,
            latency_ms: (0, 0),
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// True when this plan injects no faults at all. An inert plan never
    /// consumes the fault RNG stream, so the crowd behaves exactly like
    /// one without a fault layer.
    pub fn is_inert(&self) -> bool {
        self.dropout_rate == 0.0
            && self.abstain_rate == 0.0
            && self.spammer_fraction == 0.0
            && self.latency_ms == (0, 0)
    }

    /// Validate rates and ranges.
    pub fn validate(&self) -> Result<(), CrowdError> {
        for (what, value) in [
            ("dropout_rate", self.dropout_rate),
            ("abstain_rate", self.abstain_rate),
            ("spammer_fraction", self.spammer_fraction),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(CrowdError::InvalidRate { what, value });
            }
        }
        let (lo, hi) = self.latency_ms;
        if lo > hi {
            return Err(CrowdError::InvalidLatencyRange { lo, hi });
        }
        Ok(())
    }
}

/// Limits on crowd usage. `None` means unlimited; the default budget is
/// unlimited on both axes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum questions that may be issued (retries count: each
    /// re-issued attempt is a new question on a real platform).
    pub max_questions: Option<usize>,
    /// Maximum worker answers that may be collected.
    pub max_worker_answers: Option<usize>,
}

impl Budget {
    /// An unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget capped at `n` questions.
    pub fn questions(n: usize) -> Self {
        Budget {
            max_questions: Some(n),
            ..Budget::default()
        }
    }

    /// True when neither axis is capped.
    pub fn is_unlimited(&self) -> bool {
        self.max_questions.is_none() && self.max_worker_answers.is_none()
    }
}

/// Live budget accounting, exposed by [`Crowd::budget_state`].
///
/// [`Crowd::budget_state`]: crate::platform::Crowd::budget_state
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetState {
    /// Questions issued so far (including retried attempts).
    pub questions_used: usize,
    /// Worker answers collected so far.
    pub answers_used: usize,
    /// Set once a request has been denied for lack of budget; it never
    /// resets, so callers can use it to stop scheduling work.
    pub exhausted: bool,
}

/// Outcome of [`Crowd::ask`] under the failure model.
///
/// [`Crowd::ask`]: crate::platform::Crowd::ask
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AskOutcome {
    /// A quorum of workers responded; this is the plurality answer.
    Answered(Answer),
    /// No attempt reached a quorum within the retries (or the
    /// budget ran out mid-retry after at least one attempt was issued).
    NoQuorum,
    /// The budget was exhausted before the question could be issued at
    /// all.
    BudgetExhausted,
    /// The crowd's [`Deadline`] expired before the question could be
    /// issued at all (an expiry mid-retry reports [`AskOutcome::NoQuorum`]
    /// instead, like a mid-retry budget death).
    ///
    /// [`Deadline`]: katara_exec::Deadline
    DeadlineExpired,
}

impl AskOutcome {
    /// The answer, if one was reached.
    pub fn answer(self) -> Option<Answer> {
        match self {
            AskOutcome::Answered(a) => Some(a),
            AskOutcome::NoQuorum | AskOutcome::BudgetExhausted | AskOutcome::DeadlineExpired => {
                None
            }
        }
    }
}

/// Errors from constructing or configuring a [`Crowd`].
///
/// [`Crowd`]: crate::platform::Crowd
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CrowdError {
    /// The worker pool is empty.
    NoWorkers,
    /// Replication is zero, so no question could ever be answered.
    NoReplication,
    /// A probability or fraction is outside `[0, 1]`.
    InvalidRate {
        /// Which configuration field is invalid.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A latency range with `lo > hi`.
    InvalidLatencyRange {
        /// Lower bound of the range, in milliseconds.
        lo: u64,
        /// Upper bound of the range, in milliseconds.
        hi: u64,
    },
}

impl fmt::Display for CrowdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrowdError::NoWorkers => write!(f, "crowd needs at least one worker"),
            CrowdError::NoReplication => write!(f, "crowd needs at least one replica per question"),
            CrowdError::InvalidRate { what, value } => {
                write!(f, "{what} must be in [0, 1], got {value}")
            }
            CrowdError::InvalidLatencyRange { lo, hi } => {
                write!(f, "latency range is inverted: {lo}ms > {hi}ms")
            }
        }
    }
}

impl std::error::Error for CrowdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_inert());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn any_fault_knob_breaks_inertness() {
        for plan in [
            FaultPlan {
                dropout_rate: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                abstain_rate: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                spammer_fraction: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                latency_ms: (0, 5),
                ..FaultPlan::default()
            },
        ] {
            assert!(!plan.is_inert(), "{plan:?}");
        }
        // A different seed alone changes nothing observable.
        assert!(FaultPlan {
            seed: 42,
            ..FaultPlan::default()
        }
        .is_inert());
    }

    #[test]
    fn plan_validation_rejects_bad_rates() {
        let plan = FaultPlan {
            dropout_rate: 1.5,
            ..FaultPlan::default()
        };
        assert!(matches!(
            plan.validate(),
            Err(CrowdError::InvalidRate {
                what: "dropout_rate",
                ..
            })
        ));
        let plan = FaultPlan {
            spammer_fraction: -0.1,
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_err());
        let plan = FaultPlan {
            latency_ms: (10, 5),
            ..FaultPlan::default()
        };
        assert!(matches!(
            plan.validate(),
            Err(CrowdError::InvalidLatencyRange { lo: 10, hi: 5 })
        ));
    }

    #[test]
    fn budget_constructors() {
        assert!(Budget::unlimited().is_unlimited());
        let b = Budget::questions(7);
        assert_eq!(b.max_questions, Some(7));
        assert_eq!(b.max_worker_answers, None);
        assert!(!b.is_unlimited());
    }

    #[test]
    fn outcome_answer_projection() {
        assert_eq!(
            AskOutcome::Answered(Answer::Bool(true)).answer(),
            Some(Answer::Bool(true))
        );
        assert_eq!(AskOutcome::NoQuorum.answer(), None);
        assert_eq!(AskOutcome::BudgetExhausted.answer(), None);
        assert_eq!(AskOutcome::DeadlineExpired.answer(), None);
    }

    #[test]
    fn errors_display_and_implement_error() {
        let e: Box<dyn std::error::Error> = Box::new(CrowdError::NoWorkers);
        assert!(e.to_string().contains("worker"));
        assert!(CrowdError::NoReplication.to_string().contains("replica"));
    }
}
