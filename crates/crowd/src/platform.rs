//! The crowd platform: replication, answer aggregation (plurality or
//! Dawid–Skene EM), cost accounting, fault injection, budgets, and
//! retries.

use std::collections::HashMap;

use katara_exec::Deadline;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::aggregate::{AggregationMode, DawidSkene, DawidSkeneConfig};
use crate::fault::{AskOutcome, Budget, BudgetState, CrowdError, FaultPlan};
use crate::oracle::Oracle;
use crate::question::{Answer, Question, QuestionKind};
use crate::worker::Worker;

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct CrowdConfig {
    /// Size of the worker pool (paper: 10 students).
    pub num_workers: usize,
    /// Replicas per question (paper: "each question is asked three
    /// times, and the majority answer is taken").
    pub replication: usize,
    /// Accuracy of every worker (the paper assumes experts; 0.95 default).
    pub worker_accuracy: f64,
    /// Seed for worker assignment and worker error streams.
    pub seed: u64,
    /// Fault-injection plan; the default injects nothing.
    pub faults: FaultPlan,
    /// Usage limits; the default is unlimited.
    pub budget: Budget,
    /// How replicated answers are aggregated. The default,
    /// [`AggregationMode::Plurality`], is the paper's scheme and is
    /// byte-identical to the pre-aggregation platform — the Dawid–Skene
    /// machinery is never consulted and no extra randomness is drawn.
    pub aggregation: AggregationMode,
    /// Dawid–Skene knobs (EM rounds, confidence threshold, quality
    /// prior). Inert unless `aggregation` selects
    /// [`AggregationMode::DawidSkene`].
    pub quality: DawidSkeneConfig,
}

impl Default for CrowdConfig {
    fn default() -> Self {
        CrowdConfig {
            num_workers: 10,
            replication: 3,
            worker_accuracy: 0.95,
            seed: 0,
            faults: FaultPlan::default(),
            budget: Budget::default(),
            aggregation: AggregationMode::default(),
            quality: DawidSkeneConfig::default(),
        }
    }
}

/// The number of candidates `q`'s voting slots are laid out over (see
/// [`Answer::slot`]).
fn num_candidates(q: &Question) -> usize {
    q.num_options() - usize::from(!matches!(q, Question::Fact { .. }))
}

/// The answer at voting slot `slot` of `q`.
fn slot_answer(q: &Question, slot: usize) -> Answer {
    Answer::from_slot(slot, num_candidates(q), matches!(q, Question::Fact { .. }))
}

/// Attempts per question, including the first.
const MAX_ATTEMPTS: usize = 3;

/// Extra replicas per retry: base replication 3 escalates 3 → 5 → 7.
const ESCALATION_STEP: usize = 2;

/// Cost and degradation accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrowdStats {
    /// Distinct questions issued, by kind (retried attempts of the same
    /// question count once per attempt — each re-issue is a new HIT).
    pub questions_by_kind: HashMap<QuestionKind, usize>,
    /// Total worker answers actually collected (dropouts and abstentions
    /// deliver nothing and are not counted here).
    pub worker_answers: usize,
    /// Attempts beyond the first, across all questions.
    pub questions_retried: usize,
    /// Total extra replicas requested by retry escalation.
    pub escalations: usize,
    /// Replica slots lost to worker dropout.
    pub dropouts: usize,
    /// Replica slots lost to worker abstention.
    pub abstentions: usize,
    /// Answers produced by spammer workers.
    pub spammer_answers: usize,
    /// Questions that exhausted their retries without a quorum.
    pub no_quorum_questions: usize,
    /// Ask attempts denied by the budget.
    pub budget_denied: usize,
    /// Ask attempts denied because the [`Deadline`] had expired.
    pub deadline_denied: usize,
    /// Total simulated answer latency, in milliseconds.
    pub simulated_latency_ms: u64,
    /// EM iterations executed by the Dawid–Skene aggregator (compute
    /// accounting; always zero under plurality).
    pub em_iterations: usize,
    /// Asks settled because posterior confidence cleared the threshold
    /// (Dawid–Skene only).
    pub posterior_confident: usize,
    /// Replica slots adaptive replication never issued because the
    /// posterior was already confident (Dawid–Skene only).
    pub questions_saved: usize,
}

impl CrowdStats {
    /// Total distinct questions issued.
    pub fn questions(&self) -> usize {
        self.questions_by_kind.values().sum()
    }

    /// Counter-wise difference `self - earlier`, for callers that
    /// snapshot stats before a phase and want that phase's cost alone.
    /// Saturates at zero if `earlier` is not actually earlier.
    pub fn since(&self, earlier: &CrowdStats) -> CrowdStats {
        let mut questions_by_kind = self.questions_by_kind.clone();
        for (kind, n) in &earlier.questions_by_kind {
            let e = questions_by_kind.entry(*kind).or_insert(0);
            *e = e.saturating_sub(*n);
        }
        questions_by_kind.retain(|_, n| *n > 0);
        CrowdStats {
            questions_by_kind,
            worker_answers: self.worker_answers.saturating_sub(earlier.worker_answers),
            questions_retried: self
                .questions_retried
                .saturating_sub(earlier.questions_retried),
            escalations: self.escalations.saturating_sub(earlier.escalations),
            dropouts: self.dropouts.saturating_sub(earlier.dropouts),
            abstentions: self.abstentions.saturating_sub(earlier.abstentions),
            spammer_answers: self.spammer_answers.saturating_sub(earlier.spammer_answers),
            no_quorum_questions: self
                .no_quorum_questions
                .saturating_sub(earlier.no_quorum_questions),
            budget_denied: self.budget_denied.saturating_sub(earlier.budget_denied),
            deadline_denied: self.deadline_denied.saturating_sub(earlier.deadline_denied),
            simulated_latency_ms: self
                .simulated_latency_ms
                .saturating_sub(earlier.simulated_latency_ms),
            em_iterations: self.em_iterations.saturating_sub(earlier.em_iterations),
            posterior_confident: self
                .posterior_confident
                .saturating_sub(earlier.posterior_confident),
            questions_saved: self.questions_saved.saturating_sub(earlier.questions_saved),
        }
    }
}

/// A simulated crowdsourcing platform bound to a ground-truth oracle.
///
/// Questions are replicated over randomly-assigned workers and aggregated
/// per the configured [`AggregationMode`]: plurality voting (the default)
/// or Dawid–Skene EM with adaptive replication. Under a non-default
/// [`FaultPlan`] workers may drop out, abstain, or spam; an attempt only
/// counts if a majority of its requested replicas actually respond
/// (quorum), and failed attempts are re-issued at escalated replication
/// (3 attempts, 3 → 5 → 7 replicas at the default replication). A
/// [`Budget`] caps total questions and collected answers.
#[derive(Debug)]
pub struct Crowd<O> {
    oracle: O,
    workers: Vec<Worker>,
    assign_rng: StdRng,
    replication: usize,
    faults: FaultPlan,
    fault_rng: StdRng,
    /// `spammers[i]` marks worker `i` as a spammer.
    spammers: Vec<bool>,
    budget: Budget,
    budget_state: BudgetState,
    /// Cooperative wall-clock cutoff, checked before every ask attempt.
    /// Inert by default; set per run via [`Crowd::set_deadline`].
    deadline: Deadline,
    aggregation: AggregationMode,
    /// Worker-quality state; `Some` exactly in Dawid–Skene mode.
    quality: Option<DawidSkene>,
    /// Distinct Dawid–Skene asks so far — the escalation pacer's clock.
    ds_asks: usize,
    stats: CrowdStats,
}

impl<O: Oracle> Crowd<O> {
    /// Build a platform from a config and oracle.
    ///
    /// Fails with a [`CrowdError`] if the pool is empty, replication is
    /// zero, or the fault plan has out-of-range rates.
    pub fn new(config: CrowdConfig, oracle: O) -> Result<Self, CrowdError> {
        if config.num_workers == 0 {
            return Err(CrowdError::NoWorkers);
        }
        if config.replication == 0 {
            return Err(CrowdError::NoReplication);
        }
        if !(0.0..=1.0).contains(&config.worker_accuracy) {
            return Err(CrowdError::InvalidRate {
                what: "worker_accuracy",
                value: config.worker_accuracy,
            });
        }
        config.faults.validate()?;
        if config.aggregation == AggregationMode::DawidSkene {
            if !(0.0..=1.0).contains(&config.quality.posterior_confident) {
                return Err(CrowdError::InvalidRate {
                    what: "posterior_confident",
                    value: config.quality.posterior_confident,
                });
            }
            if !(0.0..=config.quality.posterior_confident).contains(&config.quality.escalate_below)
            {
                return Err(CrowdError::InvalidRate {
                    what: "escalate_below",
                    value: config.quality.escalate_below,
                });
            }
            if !(config.quality.prior_quality > 0.0 && config.quality.prior_quality < 1.0) {
                return Err(CrowdError::InvalidRate {
                    what: "prior_quality",
                    value: config.quality.prior_quality,
                });
            }
        }
        let quality = match config.aggregation {
            AggregationMode::Plurality => None,
            AggregationMode::DawidSkene => {
                Some(DawidSkene::new(config.quality.clone(), config.num_workers))
            }
        };
        let workers: Vec<Worker> = (0..config.num_workers)
            .map(|i| Worker::new(i, config.worker_accuracy, config.seed))
            .collect();
        let spammers = Self::pick_spammers(&config.faults, config.num_workers);
        Ok(Crowd {
            oracle,
            workers,
            assign_rng: StdRng::seed_from_u64(config.seed.wrapping_add(0xC0FFEE)),
            replication: config.replication,
            fault_rng: StdRng::seed_from_u64(config.faults.seed.wrapping_add(0xFA_117)),
            faults: config.faults,
            spammers,
            budget: config.budget,
            budget_state: BudgetState::default(),
            deadline: Deadline::none(),
            aggregation: config.aggregation,
            quality,
            ds_asks: 0,
            stats: CrowdStats::default(),
        })
    }

    /// Deterministically select `round(fraction × n)` spammer workers
    /// from the fault seed (a dedicated stream, so spammer identity does
    /// not perturb the per-ask fault draws).
    fn pick_spammers(faults: &FaultPlan, n: usize) -> Vec<bool> {
        let mut spammers = vec![false; n];
        let k = ((faults.spammer_fraction * n as f64).round() as usize).min(n);
        if k == 0 {
            return spammers;
        }
        let mut rng = StdRng::seed_from_u64(faults.seed.wrapping_add(0x5EED_5EED));
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: the first k entries are a uniform sample.
        for i in 0..k {
            let j = rng.random_range(i..n);
            idx.swap(i, j);
            spammers[idx[i]] = true;
        }
        spammers
    }

    /// Issue one question.
    ///
    /// Each attempt assigns `replication` (escalated on retries) random
    /// workers; answers surviving dropout/abstention are aggregated per
    /// the configured [`AggregationMode`]. An attempt whose responses
    /// fall below a majority of its requested replicas has no quorum and
    /// is retried at escalated replication. Budget is checked before
    /// every attempt.
    ///
    /// Under plurality, ties break toward the lowest option slot,
    /// deterministically — this path is byte-identical to the
    /// pre-aggregation platform. Under Dawid–Skene the attempt stops
    /// collecting answers early once the posterior is confident
    /// (adaptive replication), and a quorum whose posterior stays below
    /// the confidence bar counts as disagreement: the question is
    /// re-asked with fresh workers at escalated replication, falling
    /// back to the best unconfident answer when attempts, budget, or
    /// deadline run out.
    pub fn ask(&mut self, q: &Question) -> AskOutcome {
        match self.aggregation {
            AggregationMode::Plurality => self.ask_plurality(q),
            AggregationMode::DawidSkene => self.ask_dawid_skene(q),
        }
    }

    /// The plurality ask loop — the byte-equivalence baseline.
    fn ask_plurality(&mut self, q: &Question) -> AskOutcome {
        let base = self.replication;
        for attempt in 0..MAX_ATTEMPTS {
            let replicas = base + attempt * ESCALATION_STEP;
            if let Some(denied) = self.gate(attempt, replicas, replicas - base) {
                if attempt == 0 {
                    return denied;
                }
                break;
            }
            if let Some(a) = self.attempt(q, replicas) {
                return AskOutcome::Answered(a);
            }
        }
        self.stats.no_quorum_questions += 1;
        AskOutcome::NoQuorum
    }

    /// The Dawid–Skene ask loop: same deadline/budget/retry skeleton as
    /// plurality, but a quorumed-yet-unconfident attempt escalates too,
    /// and its answer is kept as a fallback so running out of attempts,
    /// budget, or deadline degrades to the best disagreement answer
    /// instead of a hard no-quorum.
    fn ask_dawid_skene(&mut self, q: &Question) -> AskOutcome {
        self.ds_asks += 1;
        let base = self.replication;
        let quorum = base / 2 + 1;
        let (threshold, escalate_below) = {
            let c = self.quality.as_ref().expect("dawid-skene mode").config();
            (c.posterior_confident, c.escalate_below)
        };
        let correct = self.oracle.answer(q);
        let num_slots = q.num_options();
        // Votes accumulate across escalation attempts: fresh workers are
        // *added* to the pool of evidence; answers already paid for are
        // never discarded (unlike the plurality retry, which re-asks from
        // scratch — EM can weigh a mixed-vintage vote set, a show of
        // hands cannot).
        let mut votes: Vec<(usize, usize)> = Vec::new();
        let mut last: Option<crate::aggregate::Posterior> = None;
        let mut confident = false;
        for attempt in 0..MAX_ATTEMPTS {
            let add = if attempt == 0 { base } else { ESCALATION_STEP };
            if let Some(denied) = self.gate(attempt, add, add) {
                if attempt == 0 {
                    return denied;
                }
                break; // settle on the evidence already collected
            }
            let mut issued = 0usize;
            for _ in 0..add {
                issued += 1;
                let Some(vote) = self.replica(q, correct) else {
                    continue;
                };
                votes.push(vote);
                // Adaptive replication: once a quorum has answered, peek
                // at the posterior and stop paying for replicas a
                // confident answer does not need.
                if votes.len() >= quorum {
                    let post = self
                        .quality
                        .as_ref()
                        .expect("dawid-skene mode")
                        .posterior(num_slots, &votes);
                    self.stats.em_iterations += post.iterations;
                    let is_confident = post.confidence >= threshold;
                    last = Some(post);
                    if is_confident {
                        confident = true;
                        break;
                    }
                }
            }
            // Each attempt is a new HIT, exactly like the plurality path.
            *self.stats.questions_by_kind.entry(q.kind()).or_insert(0) += 1;
            self.budget_state.questions_used += 1;
            if confident {
                self.stats.questions_saved += add - issued;
                break;
            }
            if votes.len() >= quorum {
                let conf = last
                    .as_ref()
                    .expect("quorum implies a posterior evaluation")
                    .confidence;
                if conf >= escalate_below {
                    // Not torn enough to pay for more replicas: the
                    // weighted MAP answer stands.
                    break;
                }
                // Genuine disagreement — escalate to fresh workers,
                // subject to pacing under a capped budget: escalations
                // may spend only replicas that adaptive replication has
                // already saved, so the run never outpaces plurality's
                // base-replication spend and late questions are never
                // starved by early disagreements.
                let paced = match self.budget.max_worker_answers {
                    None => true,
                    Some(_) => {
                        self.budget_state.answers_used + ESCALATION_STEP <= base * self.ds_asks
                    }
                };
                if !paced {
                    break;
                }
            }
            // Below quorum (dropout/abstention): retry, like plurality.
        }
        if votes.len() < quorum {
            self.stats.no_quorum_questions += 1;
            return AskOutcome::NoQuorum;
        }
        let post = last.expect("quorum implies a posterior evaluation");
        self.quality
            .as_mut()
            .expect("dawid-skene mode")
            .commit(q.kind(), &votes, &post);
        if confident {
            self.stats.posterior_confident += 1;
        }
        AskOutcome::Answered(slot_answer(q, post.slot))
    }

    /// True when the budget can fund one more question with `replicas`
    /// collected answers in the worst case.
    fn budget_allows(&self, replicas: usize) -> bool {
        let q_ok = self
            .budget
            .max_questions
            .is_none_or(|m| self.budget_state.questions_used < m);
        let a_ok = self
            .budget
            .max_worker_answers
            .is_none_or(|m| self.budget_state.answers_used + replicas <= m);
        q_ok && a_ok
    }

    /// Gate attempt `attempt` of a question that collects up to
    /// `replicas` answers, `escalation` of them beyond base replication.
    /// The deadline outranks the budget: an expired run must stop
    /// spending money, not report the money as the problem. Returns the
    /// denial, if any; a retry that goes ahead is counted.
    fn gate(&mut self, attempt: usize, replicas: usize, escalation: usize) -> Option<AskOutcome> {
        if self.deadline.expired() {
            self.stats.deadline_denied += 1;
            return Some(AskOutcome::DeadlineExpired);
        }
        if !self.budget_allows(replicas) {
            self.budget_state.exhausted = true;
            self.stats.budget_denied += 1;
            return Some(AskOutcome::BudgetExhausted);
        }
        if attempt > 0 {
            self.stats.questions_retried += 1;
            self.stats.escalations += escalation;
        }
        None
    }

    /// One replica of `q`: a random worker answers, unless the fault plan
    /// drops it out or has it abstain; a spammer answers at random.
    /// Returns the worker and its answer slot, counted as a collected
    /// answer. When the plan is inert the fault stream is never consumed
    /// and every replica responds — exactly the reliable-crowd path.
    fn replica(&mut self, q: &Question, correct: Answer) -> Option<(usize, usize)> {
        let faults_active = !self.faults.is_inert();
        let wi = self.assign_rng.random_range(0..self.workers.len());
        if faults_active {
            if self.faults.dropout_rate > 0.0
                && self.fault_rng.random_bool(self.faults.dropout_rate)
            {
                self.stats.dropouts += 1;
                return None;
            }
            if self.faults.abstain_rate > 0.0
                && self.fault_rng.random_bool(self.faults.abstain_rate)
            {
                self.stats.abstentions += 1;
                return None;
            }
            let (lo, hi) = self.faults.latency_ms;
            if hi > 0 {
                self.stats.simulated_latency_ms += if hi > lo {
                    self.fault_rng.random_range(lo..=hi)
                } else {
                    hi
                };
            }
        }
        let slot = if faults_active && self.spammers[wi] {
            self.stats.spammer_answers += 1;
            self.fault_rng.random_range(0..q.num_options())
        } else {
            self.workers[wi].respond(q, correct).slot(num_candidates(q))
        };
        self.stats.worker_answers += 1;
        self.budget_state.answers_used += 1;
        Some((wi, slot))
    }

    /// One attempt at `replicas` replication. Returns the plurality
    /// answer, or `None` if fewer than a majority of replicas responded.
    fn attempt(&mut self, q: &Question, replicas: usize) -> Option<Answer> {
        let correct = self.oracle.answer(q);
        let mut votes: HashMap<usize, usize> = HashMap::new();
        let mut responses = 0usize;
        for _ in 0..replicas {
            if let Some((_, slot)) = self.replica(q, correct) {
                *votes.entry(slot).or_insert(0) += 1;
                responses += 1;
            }
        }
        *self.stats.questions_by_kind.entry(q.kind()).or_insert(0) += 1;
        self.budget_state.questions_used += 1;
        if responses < replicas / 2 + 1 {
            return None;
        }
        let (&slot, _) = votes
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .expect("quorum implies at least one vote");
        Some(slot_answer(q, slot))
    }

    /// Accumulated cost statistics.
    pub fn stats(&self) -> &CrowdStats {
        &self.stats
    }

    /// Live budget accounting.
    pub fn budget_state(&self) -> &BudgetState {
        &self.budget_state
    }

    /// Questions still allowed by the budget, `None` when the question
    /// budget is unlimited.
    pub fn budget_remaining(&self) -> Option<usize> {
        self.budget
            .max_questions
            .map(|m| m.saturating_sub(self.budget_state.questions_used))
    }

    /// True once any request has been denied for lack of budget.
    pub fn is_budget_exhausted(&self) -> bool {
        self.budget_state.exhausted
    }

    /// The configured aggregation mode.
    pub fn aggregation(&self) -> AggregationMode {
        self.aggregation
    }

    /// The learned unified quality score of `worker` — `None` under
    /// plurality, where no quality state exists.
    pub fn worker_quality(&self, worker: usize) -> Option<f64> {
        self.quality.as_ref().map(|ds| ds.quality(worker))
    }

    /// Install a cooperative deadline: once it expires, every further
    /// [`Crowd::ask`] is denied without contacting a single worker. The
    /// pipeline sets this per run from its own deadline so the crowd and
    /// the phases share one cutoff; pass [`Deadline::none`] to clear.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// The active deadline (inert unless [`Crowd::set_deadline`] was
    /// called).
    pub fn deadline(&self) -> &Deadline {
        &self.deadline
    }

    /// Access the oracle (used by annotation to form enrichment facts).
    pub fn oracle(&self) -> &O {
        &self.oracle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::FixedOracle;

    fn fact_q(obj: &str) -> Question {
        Question::Fact {
            subject: "Italy".into(),
            property: "hasCapital".into(),
            object: obj.into(),
        }
    }

    fn answer(crowd: &mut Crowd<FixedOracle>, q: &Question) -> Answer {
        crowd.ask(q).answer().expect("reliable crowd answers")
    }

    #[test]
    fn majority_of_accurate_workers_is_correct() {
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 0.9,
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        let mut right = 0;
        for i in 0..200 {
            if answer(&mut crowd, &fact_q(&format!("q{i}"))) == Answer::Bool(true) {
                right += 1;
            }
        }
        // With 0.9 workers and 3-way voting, error prob ≈ 2.8%.
        assert!(right >= 185, "only {right}/200 correct");
        assert_eq!(crowd.stats().questions(), 200);
        assert_eq!(crowd.stats().worker_answers, 600);
    }

    #[test]
    fn perfect_workers_never_err() {
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(false)),
        )
        .unwrap();
        for _ in 0..50 {
            assert_eq!(answer(&mut crowd, &fact_q("x")), Answer::Bool(false));
        }
    }

    #[test]
    fn stats_track_kinds() {
        let mut crowd =
            Crowd::new(CrowdConfig::default(), FixedOracle(Answer::Bool(true))).unwrap();
        crowd.ask(&fact_q("a"));
        crowd.ask(&fact_q("b"));
        let by_kind = &crowd.stats().questions_by_kind;
        assert_eq!(by_kind.get(&QuestionKind::Fact), Some(&2));
        assert_eq!(by_kind.get(&QuestionKind::ColumnType), None);
    }

    #[test]
    fn stats_since_diffs_counters() {
        let mut crowd =
            Crowd::new(CrowdConfig::default(), FixedOracle(Answer::Bool(true))).unwrap();
        crowd.ask(&fact_q("a"));
        let snap = crowd.stats().clone();
        crowd.ask(&fact_q("b"));
        crowd.ask(&fact_q("c"));
        let delta = crowd.stats().since(&snap);
        assert_eq!(delta.questions(), 2);
        assert_eq!(delta.worker_answers, 6);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut crowd = Crowd::new(
                CrowdConfig {
                    worker_accuracy: 0.5,
                    seed,
                    ..CrowdConfig::default()
                },
                FixedOracle(Answer::Bool(true)),
            )
            .unwrap();
            (0..50).map(|_| crowd.ask(&fact_q("x"))).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn choice_questions_aggregate() {
        let q = Question::ColumnType {
            table: "t".into(),
            column: 0,
            header: vec!["A".into()],
            sample_rows: vec![],
            candidates: vec!["country".into(), "economy".into(), "state".into()],
        };
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 0.95,
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Choice(1)),
        )
        .unwrap();
        let mut hits = 0;
        for _ in 0..100 {
            if crowd.ask(&q) == AskOutcome::Answered(Answer::Choice(1)) {
                hits += 1;
            }
        }
        assert!(hits >= 95, "{hits}");
    }

    #[test]
    fn zero_workers_is_an_error() {
        let err = Crowd::new(
            CrowdConfig {
                num_workers: 0,
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap_err();
        assert_eq!(err, CrowdError::NoWorkers);
    }

    #[test]
    fn zero_replication_is_an_error() {
        let err = Crowd::new(
            CrowdConfig {
                replication: 0,
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap_err();
        assert_eq!(err, CrowdError::NoReplication);
    }

    #[test]
    fn invalid_accuracy_is_an_error() {
        let err = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.5,
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CrowdError::InvalidRate {
                what: "worker_accuracy",
                ..
            }
        ));
    }

    #[test]
    fn invalid_fault_plan_is_an_error() {
        let err = Crowd::new(
            CrowdConfig {
                faults: FaultPlan {
                    dropout_rate: 2.0,
                    ..FaultPlan::default()
                },
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap_err();
        assert!(matches!(err, CrowdError::InvalidRate { .. }));
    }

    /// The acceptance bar for the fault layer: with every fault knob at
    /// zero and the budget unlimited, the crowd's answer stream is
    /// byte-identical to the default (fault-free) configuration — the
    /// fault RNG is provably never consumed.
    #[test]
    fn inert_fault_plan_is_byte_identical_to_default() {
        let run = |config: CrowdConfig| {
            let mut crowd = Crowd::new(config, FixedOracle(Answer::Bool(true))).unwrap();
            let outcomes = (0..100)
                .map(|i| crowd.ask(&fact_q(&format!("o{i}"))))
                .collect::<Vec<_>>();
            (outcomes, crowd.stats().clone())
        };
        let base = CrowdConfig {
            worker_accuracy: 0.6,
            seed: 11,
            ..CrowdConfig::default()
        };
        // Explicit inert plan with a wild seed, explicit unlimited
        // budget.
        let explicit = CrowdConfig {
            faults: FaultPlan {
                seed: 0xDEAD_BEEF,
                ..FaultPlan::default()
            },
            budget: Budget::unlimited(),
            ..base.clone()
        };
        assert_eq!(run(base), run(explicit));
    }

    #[test]
    fn total_dropout_exhausts_retries_to_no_quorum() {
        let mut crowd = Crowd::new(
            CrowdConfig {
                faults: FaultPlan {
                    dropout_rate: 1.0,
                    ..FaultPlan::default()
                },
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        assert_eq!(crowd.ask(&fact_q("x")), AskOutcome::NoQuorum);
        let s = crowd.stats();
        // 3 attempts at replication 3, 5, 7: all 15 slots dropped.
        assert_eq!(s.dropouts, 15);
        assert_eq!(s.worker_answers, 0);
        assert_eq!(s.questions_retried, 2);
        assert_eq!(s.escalations, 2 + 4);
        assert_eq!(s.no_quorum_questions, 1);
        assert_eq!(s.questions(), 3);
    }

    #[test]
    fn partial_dropout_still_reaches_quorum() {
        // Majority of *requested* replicas must respond: with
        // replication 3 one dropout leaves 2 ≥ 2 = quorum.
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                faults: FaultPlan {
                    dropout_rate: 0.2,
                    ..FaultPlan::default()
                },
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        let mut answered = 0;
        for i in 0..100 {
            if let AskOutcome::Answered(a) = crowd.ask(&fact_q(&format!("{i}"))) {
                assert_eq!(a, Answer::Bool(true));
                answered += 1;
            }
        }
        assert!(answered >= 95, "{answered}");
        assert!(crowd.stats().dropouts > 0);
    }

    #[test]
    fn question_budget_exhausts_cleanly() {
        let mut crowd = Crowd::new(
            CrowdConfig {
                budget: Budget::questions(2),
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        assert!(matches!(crowd.ask(&fact_q("a")), AskOutcome::Answered(_)));
        assert!(matches!(crowd.ask(&fact_q("b")), AskOutcome::Answered(_)));
        assert_eq!(crowd.ask(&fact_q("c")), AskOutcome::BudgetExhausted);
        assert!(crowd.is_budget_exhausted());
        assert_eq!(crowd.budget_state().questions_used, 2);
        assert_eq!(crowd.stats().budget_denied, 1);
        // Denied asks consume nothing.
        assert_eq!(crowd.stats().questions(), 2);
        assert_eq!(crowd.stats().worker_answers, 6);
    }

    #[test]
    fn answer_budget_reserves_worst_case() {
        let mut crowd = Crowd::new(
            CrowdConfig {
                budget: Budget {
                    max_worker_answers: Some(7),
                    ..Budget::default()
                },
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        // Two asks fit (6 answers); a third would need up to 3 more.
        assert!(matches!(crowd.ask(&fact_q("a")), AskOutcome::Answered(_)));
        assert!(matches!(crowd.ask(&fact_q("b")), AskOutcome::Answered(_)));
        assert_eq!(crowd.ask(&fact_q("c")), AskOutcome::BudgetExhausted);
        assert_eq!(crowd.budget_state().answers_used, 6);
    }

    #[test]
    fn spammers_answer_uniformly() {
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                faults: FaultPlan {
                    spammer_fraction: 1.0,
                    ..FaultPlan::default()
                },
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        let mut wrong = 0;
        for i in 0..100 {
            if crowd.ask(&fact_q(&format!("{i}"))) != AskOutcome::Answered(Answer::Bool(true)) {
                wrong += 1;
            }
        }
        // An all-spammer pool is a coin-flipping crowd: despite perfect
        // nominal accuracy, a large share of plurality votes comes out
        // wrong (3 coin flips are wrong-majority half the time).
        assert!(wrong >= 25, "only {wrong}/100 wrong under pure spam");
        assert_eq!(crowd.stats().spammer_answers, crowd.stats().worker_answers);
    }

    #[test]
    fn spammer_fraction_rounds_to_pool_share() {
        let crowd = Crowd::new(
            CrowdConfig {
                faults: FaultPlan {
                    spammer_fraction: 0.3,
                    ..FaultPlan::default()
                },
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        assert_eq!(crowd.spammers.iter().filter(|s| **s).count(), 3);
    }

    #[test]
    fn abstention_and_latency_are_accounted() {
        let mut crowd = Crowd::new(
            CrowdConfig {
                faults: FaultPlan {
                    abstain_rate: 0.3,
                    latency_ms: (1, 5),
                    ..FaultPlan::default()
                },
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        for i in 0..50 {
            crowd.ask(&fact_q(&format!("{i}")));
        }
        let s = crowd.stats();
        assert!(s.abstentions > 0, "{s:?}");
        assert!(s.simulated_latency_ms > 0, "{s:?}");
        // Latency bounds: every collected answer cost 1..=5 ms.
        assert!(s.simulated_latency_ms >= s.worker_answers as u64);
        assert!(s.simulated_latency_ms <= 5 * s.worker_answers as u64);
    }

    /// Same config + fault plan ⇒ identical outcome sequences, retry
    /// counts, and budget trajectories. Different fault seed ⇒ different
    /// fault realisation.
    #[test]
    fn faulty_runs_are_deterministic_per_fault_seed() {
        let run = |fault_seed| {
            let mut crowd = Crowd::new(
                CrowdConfig {
                    worker_accuracy: 0.8,
                    budget: Budget::questions(120),
                    faults: FaultPlan {
                        dropout_rate: 0.35,
                        abstain_rate: 0.15,
                        spammer_fraction: 0.2,
                        latency_ms: (2, 20),
                        seed: fault_seed,
                    },
                    ..CrowdConfig::default()
                },
                FixedOracle(Answer::Bool(true)),
            )
            .unwrap();
            let mut outcomes = Vec::new();
            let mut budgets = Vec::new();
            for i in 0..60 {
                outcomes.push(crowd.ask(&fact_q(&format!("{i}"))));
                budgets.push(crowd.budget_state().clone());
            }
            (outcomes, budgets, crowd.stats().clone())
        };
        assert_eq!(run(7), run(7));
        let (a, _, sa) = run(7);
        let (b, _, sb) = run(8);
        assert!(a != b || sa != sb, "fault seed had no effect");
        // The fault plan actually fired.
        assert!(sa.dropouts > 0 && sa.abstentions > 0 && sa.spammer_answers > 0);
    }

    #[test]
    fn expired_deadline_denies_asks_without_spending() {
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        crowd.set_deadline(Deadline::after_checks(0));
        assert_eq!(crowd.ask(&fact_q("a")), AskOutcome::DeadlineExpired);
        assert_eq!(crowd.ask(&fact_q("b")), AskOutcome::DeadlineExpired);
        assert_eq!(crowd.stats().deadline_denied, 2);
        assert_eq!(crowd.stats().questions(), 0, "no worker was contacted");
        assert_eq!(crowd.budget_state().questions_used, 0);
        assert!(
            !crowd.is_budget_exhausted(),
            "deadline expiry is not budget exhaustion"
        );
    }

    #[test]
    fn deadline_mid_run_stops_further_questions() {
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                ..CrowdConfig::default()
            },
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        // Two asks (one deadline check each) succeed, then expiry.
        crowd.set_deadline(Deadline::after_checks(2));
        assert!(matches!(crowd.ask(&fact_q("a")), AskOutcome::Answered(_)));
        assert!(matches!(crowd.ask(&fact_q("b")), AskOutcome::Answered(_)));
        assert_eq!(crowd.ask(&fact_q("c")), AskOutcome::DeadlineExpired);
        assert_eq!(crowd.stats().questions(), 2);
        assert_eq!(crowd.stats().deadline_denied, 1);
    }

    fn ds_config(overrides: CrowdConfig) -> CrowdConfig {
        CrowdConfig {
            aggregation: AggregationMode::DawidSkene,
            ..overrides
        }
    }

    /// The aggregation analogue of the inert-fault-plan gate: selecting
    /// plurality explicitly — even with wild Dawid–Skene knobs riding
    /// along in the config — must be byte-identical to the default
    /// config. The quality machinery is provably never consulted.
    #[test]
    fn explicit_plurality_is_byte_identical_to_default() {
        let run = |config: CrowdConfig| {
            let mut crowd = Crowd::new(config, FixedOracle(Answer::Bool(true))).unwrap();
            let outcomes = (0..100)
                .map(|i| crowd.ask(&fact_q(&format!("o{i}"))))
                .collect::<Vec<_>>();
            (outcomes, crowd.stats().clone())
        };
        let base = CrowdConfig {
            worker_accuracy: 0.6,
            seed: 23,
            faults: FaultPlan {
                dropout_rate: 0.2,
                spammer_fraction: 0.2,
                seed: 5,
                ..FaultPlan::default()
            },
            ..CrowdConfig::default()
        };
        let explicit = CrowdConfig {
            aggregation: AggregationMode::Plurality,
            quality: DawidSkeneConfig {
                em_iterations: 50,
                posterior_confident: 0.5,
                escalate_below: 0.1,
                prior_quality: 0.31,
                prior_strength: 100.0,
            },
            ..base.clone()
        };
        assert_eq!(run(base), run(explicit));
    }

    #[test]
    fn dawid_skene_reliable_crowd_answers_correctly_and_saves_replicas() {
        let mut crowd = Crowd::new(
            ds_config(CrowdConfig {
                worker_accuracy: 1.0,
                ..CrowdConfig::default()
            }),
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        for i in 0..100 {
            assert_eq!(
                crowd.ask(&fact_q(&format!("{i}"))),
                AskOutcome::Answered(Answer::Bool(true))
            );
        }
        let s = crowd.stats();
        assert_eq!(s.questions(), 100);
        // Adaptive replication: perfect agreeing workers settle at the
        // 2-vote quorum instead of the full 3 replicas.
        assert!(
            s.worker_answers < 300,
            "expected early stops, spent {} answers",
            s.worker_answers
        );
        assert!(s.questions_saved > 0);
        assert!(s.posterior_confident > 0);
        assert!(s.em_iterations > 0);
        assert_eq!(s.worker_answers + s.questions_saved, 300);
    }

    #[test]
    fn dawid_skene_escalates_on_disagreement_but_still_answers() {
        // Coin-flip workers disagree constantly: attempts reach quorum
        // but rarely clear the confidence bar, so the platform escalates
        // to fresh workers and ultimately degrades to the best
        // unconfident answer instead of NoQuorum.
        let mut crowd = Crowd::new(
            ds_config(CrowdConfig {
                worker_accuracy: 0.5,
                ..CrowdConfig::default()
            }),
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        let mut answered = 0;
        for i in 0..50 {
            if matches!(crowd.ask(&fact_q(&format!("{i}"))), AskOutcome::Answered(_)) {
                answered += 1;
            }
        }
        assert_eq!(answered, 50, "disagreement must degrade, not fail");
        let s = crowd.stats();
        assert!(s.escalations > 0, "{s:?}");
        assert!(s.questions_retried > 0);
        assert_eq!(s.no_quorum_questions, 0);
    }

    #[test]
    fn dawid_skene_learns_spammers_and_beats_plurality_under_spam() {
        let config = |aggregation| CrowdConfig {
            worker_accuracy: 0.95,
            faults: FaultPlan {
                spammer_fraction: 0.4,
                seed: 9,
                ..FaultPlan::default()
            },
            aggregation,
            ..CrowdConfig::default()
        };
        let run = |aggregation| {
            let mut crowd =
                Crowd::new(config(aggregation), FixedOracle(Answer::Bool(true))).unwrap();
            let mut right = 0;
            for i in 0..300 {
                if crowd.ask(&fact_q(&format!("{i}"))) == AskOutcome::Answered(Answer::Bool(true)) {
                    right += 1;
                }
            }
            (right, crowd)
        };
        let (plurality_right, _) = run(AggregationMode::Plurality);
        let (ds_right, ds_crowd) = run(AggregationMode::DawidSkene);
        assert!(
            ds_right >= plurality_right,
            "dawid-skene ({ds_right}/300) must not lose to plurality ({plurality_right}/300)"
        );
        // The learned quality separates spammers from honest workers.
        let spammers: Vec<usize> = ds_crowd
            .spammers
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.then_some(i))
            .collect();
        assert_eq!(spammers.len(), 4);
        let honest_min = (0..10)
            .filter(|i| !spammers.contains(i))
            .map(|i| ds_crowd.worker_quality(i).unwrap())
            .fold(
                f64::INFINITY,
                |a, b| if b.total_cmp(&a).is_lt() { b } else { a },
            );
        let spam_max = spammers
            .iter()
            .map(|&i| ds_crowd.worker_quality(i).unwrap())
            .fold(f64::NEG_INFINITY, |a, b| {
                if b.total_cmp(&a).is_gt() {
                    b
                } else {
                    a
                }
            });
        assert!(
            spam_max < honest_min,
            "every spammer ({spam_max:.3}) must rank below every honest worker ({honest_min:.3})"
        );
    }

    #[test]
    fn dawid_skene_is_deterministic_per_seed() {
        let run = |seed| {
            let mut crowd = Crowd::new(
                ds_config(CrowdConfig {
                    worker_accuracy: 0.7,
                    seed,
                    faults: FaultPlan {
                        spammer_fraction: 0.2,
                        dropout_rate: 0.1,
                        seed,
                        ..FaultPlan::default()
                    },
                    ..CrowdConfig::default()
                }),
                FixedOracle(Answer::Bool(true)),
            )
            .unwrap();
            let outcomes: Vec<AskOutcome> = (0..80)
                .map(|i| crowd.ask(&fact_q(&format!("{i}"))))
                .collect();
            let qualities: Vec<u64> = (0..10)
                .map(|w| crowd.worker_quality(w).unwrap().to_bits())
                .collect();
            (outcomes, qualities, crowd.stats().clone())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn dawid_skene_charges_the_budget_and_falls_back_when_it_runs_dry() {
        let mut crowd = Crowd::new(
            ds_config(CrowdConfig {
                worker_accuracy: 1.0,
                budget: Budget {
                    max_worker_answers: Some(7),
                    ..Budget::default()
                },
                ..CrowdConfig::default()
            }),
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        let mut answered = 0;
        let mut denied = 0;
        for i in 0..10 {
            match crowd.ask(&fact_q(&format!("{i}"))) {
                AskOutcome::Answered(_) => answered += 1,
                AskOutcome::BudgetExhausted => denied += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(answered >= 2, "{answered}");
        assert!(denied > 0);
        assert!(crowd.is_budget_exhausted());
        assert!(crowd.budget_state().answers_used <= 7);
    }

    #[test]
    fn dawid_skene_invalid_knobs_are_errors() {
        for quality in [
            DawidSkeneConfig {
                posterior_confident: 1.5,
                ..DawidSkeneConfig::default()
            },
            DawidSkeneConfig {
                prior_quality: 0.0,
                ..DawidSkeneConfig::default()
            },
            DawidSkeneConfig {
                prior_quality: 1.0,
                ..DawidSkeneConfig::default()
            },
        ] {
            let err = Crowd::new(
                ds_config(CrowdConfig {
                    quality: quality.clone(),
                    ..CrowdConfig::default()
                }),
                FixedOracle(Answer::Bool(true)),
            )
            .unwrap_err();
            assert!(matches!(err, CrowdError::InvalidRate { .. }), "{quality:?}");
            // The same knobs are inert — and legal — under plurality.
            assert!(Crowd::new(
                CrowdConfig {
                    quality,
                    ..CrowdConfig::default()
                },
                FixedOracle(Answer::Bool(true)),
            )
            .is_ok());
        }
    }

    #[test]
    fn stats_since_diffs_quality_counters() {
        let mut crowd = Crowd::new(
            ds_config(CrowdConfig {
                worker_accuracy: 1.0,
                ..CrowdConfig::default()
            }),
            FixedOracle(Answer::Bool(true)),
        )
        .unwrap();
        for i in 0..20 {
            crowd.ask(&fact_q(&format!("a{i}")));
        }
        let snap = crowd.stats().clone();
        for i in 0..20 {
            crowd.ask(&fact_q(&format!("b{i}")));
        }
        let delta = crowd.stats().since(&snap);
        assert_eq!(
            delta.em_iterations,
            crowd.stats().em_iterations - snap.em_iterations
        );
        assert_eq!(
            delta.posterior_confident,
            crowd.stats().posterior_confident - snap.posterior_confident
        );
        assert_eq!(
            delta.questions_saved,
            crowd.stats().questions_saved - snap.questions_saved
        );
        assert!(delta.posterior_confident > 0);
    }

    #[test]
    fn inert_deadline_is_byte_identical_to_no_deadline() {
        let run = |with_inert: bool| {
            let mut crowd = Crowd::new(
                CrowdConfig {
                    worker_accuracy: 0.8,
                    faults: FaultPlan {
                        dropout_rate: 0.3,
                        seed: 11,
                        ..FaultPlan::default()
                    },
                    ..CrowdConfig::default()
                },
                FixedOracle(Answer::Bool(true)),
            )
            .unwrap();
            if with_inert {
                crowd.set_deadline(Deadline::none());
            }
            let outcomes: Vec<AskOutcome> = (0..40)
                .map(|i| crowd.ask(&fact_q(&format!("{i}"))))
                .collect();
            (outcomes, crowd.stats().clone())
        };
        assert_eq!(run(false), run(true));
    }
}
