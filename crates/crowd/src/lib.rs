//! # katara-crowd — a simulated crowdsourcing platform
//!
//! KATARA's evaluation uses an *expert crowd* ("10 students" assumed to
//! know the reference KB, §7.2). This crate simulates that setup so the
//! experiments are reproducible: a pool of [`Worker`]s answers
//! [`Question`]s; each worker gives the ground-truth answer (supplied by an
//! [`Oracle`]) with its configured accuracy, and an adversarially-uniform
//! wrong answer otherwise. The [`Crowd`] platform replicates each question
//! (paper: "each question is asked three times, and the majority answer is
//! taken"), aggregates by plurality vote, and accounts every question and
//! worker answer for the cost experiments (Table 4, Figure 7).
//!
//! The crate is deliberately KB-agnostic: questions carry display strings,
//! so the same platform serves pattern validation (§5) and data annotation
//! (§6) and could front a real crowd.
//!
//! Real crowds are unreliable, so the platform also carries a failure
//! model (the [`fault`] module): a deterministic [`FaultPlan`] injects
//! worker dropout, abstention, spam, and latency; a [`Budget`] caps
//! spending; and [`Crowd::ask`] is fallible, returning an [`AskOutcome`]
//! — no-quorum questions are retried at escalated replication (3 → 5
//! → 7 replicas) before the crowd gives up. With the default (inert)
//! plan and an unlimited budget the platform behaves exactly like a
//! reliable crowd.
//!
//! Aggregation is pluggable (the [`aggregate`] module): the default
//! [`AggregationMode::Plurality`] reproduces the paper's majority vote
//! byte for byte, while [`AggregationMode::DawidSkene`] infers a unified
//! per-worker quality score by fixed-iteration EM, stops collecting
//! replicas early once the answer posterior is confident, and escalates
//! disagreements to fresh workers — all charged against the same
//! [`Budget`].

#![warn(missing_docs)]

pub mod aggregate;
pub mod fault;
pub mod oracle;
pub mod platform;
pub mod question;
pub mod worker;

pub use aggregate::{AggregationMode, DawidSkene, DawidSkeneConfig, Posterior};
pub use fault::{AskOutcome, Budget, BudgetState, CrowdError, FaultPlan};
pub use oracle::{FixedOracle, Oracle};
pub use platform::{Crowd, CrowdConfig, CrowdStats};
pub use question::{Answer, Question, QuestionKind};
pub use worker::Worker;
