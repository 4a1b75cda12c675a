//! Rate-monotonic schedulability machinery.
//!
//! The priority-driven protocol approximates preemptive rate-monotonic
//! scheduling; its Theorem 4.1 criterion is the Lehoczky–Sha–Ding exact
//! characterization applied to overhead-augmented message costs plus a
//! blocking term. This module implements that machinery generically over
//! `(cost, period)` pairs so it can be unit-tested against the classic CPU
//! scheduling results (e.g. the Liu–Layland bound and the ≈88 % average
//! breakdown utilization of ideal RM) independently of any ring overheads.
//!
//! Two equivalent exact tests are provided:
//!
//! * [`is_schedulable_points`] — the literal scheduling-point form of the
//!   paper's eq. (4): task `i` is schedulable iff there exists a scheduling
//!   point `t = l·P_k` (`k ≤ i`, `1 ≤ l ≤ ⌊P_i/P_k⌋`) with
//!   `Σ_{j≤i} C_j·⌈t/P_j⌉ + B ≤ t`;
//! * [`response_time`] — the response-time fixed-point iteration
//!   `R ← C_i + B + Σ_{j<i} C_j·⌈R/P_j⌉`, which converges to the same
//!   verdict for deadline = period and is much faster in practice.
//!
//! Both assume tasks are indexed in priority order (ascending period).

use ringrt_model::{MessageSet, StreamId, SyncStream};
use ringrt_units::{Bits, Seconds};

use crate::ScalingProbe;

/// Relative tolerance used when taking ceilings/floors of period ratios, so
/// that exact harmonic relationships survive floating-point noise.
const RATIO_EPS: f64 = 1e-9;

/// `⌈t / p⌉` with tolerance for near-integer ratios.
#[must_use]
fn ceil_ratio(t: Seconds, p: Seconds) -> f64 {
    let r = t / p;
    let nearest = r.round();
    if (r - nearest).abs() <= RATIO_EPS * nearest.abs().max(1.0) {
        nearest
    } else {
        r.ceil()
    }
}

/// `⌊t / p⌋` with tolerance for near-integer ratios.
#[must_use]
fn floor_ratio(t: Seconds, p: Seconds) -> f64 {
    let r = t / p;
    let nearest = r.round();
    if (r - nearest).abs() <= RATIO_EPS * nearest.abs().max(1.0) {
        nearest
    } else {
        r.floor()
    }
}

/// One task (or message stream) as seen by the fixed-priority tests:
/// an effective cost, a period, and a relative deadline (= the period in
/// the paper's model; possibly earlier in the constrained-deadline
/// extension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmTask {
    /// Worst-case effective execution/transmission cost, `C'_i`.
    pub cost: Seconds,
    /// Period, `P_i`.
    pub period: Seconds,
    /// Relative deadline, `D_i ≤ P_i`.
    pub deadline: Seconds,
}

impl RmTask {
    /// Convenience constructor for the paper's implicit-deadline model
    /// (`D = P`).
    #[must_use]
    pub fn new(cost: Seconds, period: Seconds) -> Self {
        RmTask {
            cost,
            period,
            deadline: period,
        }
    }

    /// Constructor with an explicit constrained deadline.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < deadline ≤ period`.
    #[must_use]
    pub fn with_deadline(cost: Seconds, period: Seconds, deadline: Seconds) -> Self {
        assert!(
            deadline > Seconds::ZERO && deadline <= period,
            "constrained deadlines require 0 < D ≤ P"
        );
        RmTask {
            cost,
            period,
            deadline,
        }
    }

    /// The task's utilization `C/P`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.cost / self.period
    }
}

/// A cap on the work one analysis may do before it must give a verdict.
///
/// Work is counted in demand terms: one term is one `C_j·⌈R/P_j⌉` product
/// of the response-time iteration. Set-up work that grows with the stream
/// count — the deadline-monotonic sort, building each `C'_i`, Theorem
/// 5.1's single pass — charges a measured number of terms per stream, so
/// one budget bounds the time of the whole test. A caller that must
/// answer quickly (the admission service's event loop) passes a small
/// budget and hands the request elsewhere when it runs out; every other
/// caller passes [`Budget::unlimited`].
///
/// # Examples
///
/// ```
/// use ringrt_core::rm::{Budget, Unfinished};
///
/// let mut budget = Budget::terms(10);
/// assert_eq!(budget.spend(4), Ok(()));
/// assert_eq!(budget.left(), 6);
/// assert_eq!(budget.spend(7), Err(Unfinished));
/// assert_eq!(budget.left(), 0, "a budget that ran out stays spent");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    left: u64,
}

/// The analysis stopped because its [`Budget`] ran out before a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unfinished;

impl core::fmt::Display for Unfinished {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("analysis work budget exhausted before a verdict")
    }
}

impl std::error::Error for Unfinished {}

impl Budget {
    /// No practical cap: `u64::MAX` terms, more than any analysis can
    /// evaluate.
    #[must_use]
    pub const fn unlimited() -> Budget {
        Budget { left: u64::MAX }
    }

    /// A budget of `terms` demand terms.
    #[must_use]
    pub const fn terms(terms: u64) -> Budget {
        Budget { left: terms }
    }

    /// Terms not yet spent.
    #[must_use]
    pub const fn left(self) -> u64 {
        self.left
    }

    /// Takes `terms` from the budget before the work they pay for runs.
    ///
    /// # Errors
    ///
    /// [`Unfinished`] when fewer than `terms` are left. The budget is then
    /// spent out, so any later work charged to it stops too.
    pub fn spend(&mut self, terms: u64) -> Result<(), Unfinished> {
        match self.left.checked_sub(terms) {
            Some(left) => {
                self.left = left;
                Ok(())
            }
            None => {
                self.left = 0;
                Err(Unfinished)
            }
        }
    }
}

/// Asserts (in debug builds) that tasks are sorted by ascending deadline
/// (deadline-monotonic order, which is ascending-period order for
/// implicit-deadline sets).
fn debug_assert_priority_order(tasks: &[RmTask]) {
    debug_assert!(
        tasks.windows(2).all(|w| w[0].deadline <= w[1].deadline),
        "tasks must be in deadline-monotonic (ascending deadline) order"
    );
}

/// The Liu–Layland utilization bound `n(2^{1/n} − 1)`.
///
/// Any task set with total utilization below this bound is schedulable by
/// RM; above it, schedulability must be decided by an exact test.
///
/// # Examples
///
/// ```
/// use ringrt_core::rm::liu_layland_bound;
/// assert_eq!(liu_layland_bound(1), 1.0);
/// assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-4);
/// assert!((liu_layland_bound(1000) - core::f64::consts::LN_2).abs() < 1e-3);
/// ```
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    assert!(n > 0, "the bound is defined for at least one task");
    let nf = n as f64;
    nf * (2f64.powf(1.0 / nf) - 1.0)
}

/// Worst-case response time of task `index` (0-based, priority order) under
/// preemptive RM with a blocking term, or `None` if the fixed point exceeds
/// the deadline (task unschedulable).
///
/// Solves `R = C_i + B + Σ_{j<i} C_j·⌈R/P_j⌉` by fixed-point iteration
/// starting from `C_i + B`.
///
/// # Panics
///
/// Panics if `index` is out of range, and in debug builds if the tasks are
/// not sorted by ascending period.
#[must_use]
pub fn response_time(tasks: &[RmTask], index: usize, blocking: Seconds) -> Option<Seconds> {
    response_time_counted(tasks, index, blocking, &mut Budget::unlimited())
        .expect("an unlimited budget never runs out")
        .0
}

/// Like [`response_time`], but also reports how many demand evaluations
/// (fixed-point iterations over the scheduling-point demand function) the
/// test performed, and stops once `budget` runs out.
///
/// The count is the work metric behind the registry's incremental
/// admission engine: re-testing only the priority levels a change touches
/// must evaluate measurably fewer points than a full recomputation, and
/// this counter is what makes that claim observable.
///
/// Each iteration charges `budget` its `index` demand terms before it
/// runs, so the test never evaluates more terms than the budget held.
///
/// # Errors
///
/// [`Unfinished`] when the budget runs out before the fixed point or the
/// deadline is reached.
///
/// # Panics
///
/// Panics if `index` is out of range, and in debug builds if the tasks are
/// not sorted by ascending deadline.
pub fn response_time_counted(
    tasks: &[RmTask],
    index: usize,
    blocking: Seconds,
    budget: &mut Budget,
) -> Result<(Option<Seconds>, u64), Unfinished> {
    response_time_from(tasks, index, blocking, tasks[index].cost + blocking, budget)
}

/// [`response_time_counted`] with the fixed-point iteration started at
/// `start` instead of `C_i + B`. Any `start` between `C_i + B` and the
/// least fixed point reaches that fixed point, so the verdict is the same;
/// a response time of the same task under costs no larger is such a
/// start.
fn response_time_from(
    tasks: &[RmTask],
    index: usize,
    blocking: Seconds,
    start: Seconds,
    budget: &mut Budget,
) -> Result<(Option<Seconds>, u64), Unfinished> {
    debug_assert_priority_order(tasks);
    let task = &tasks[index];
    let deadline = task.deadline;
    let tol = Seconds::new(RATIO_EPS * deadline.as_secs_f64().max(1e-30));
    let mut r = start;
    let mut evaluations = 0u64;
    // Each iteration increases R until the fixed point; bail out as soon as
    // the deadline is exceeded. A generous iteration cap guards against
    // pathological float non-convergence.
    for _ in 0..10_000 {
        if r > deadline + tol {
            return Ok((None, evaluations));
        }
        budget.spend(index as u64)?;
        let mut next = task.cost + blocking;
        for hp in &tasks[..index] {
            next += hp.cost * ceil_ratio(r, hp.period);
        }
        evaluations += 1;
        if next <= r + tol {
            let verdict = if next <= deadline + tol {
                Some(next)
            } else {
                None
            };
            return Ok((verdict, evaluations));
        }
        r = next;
    }
    // Did not converge within the cap — treat as unschedulable.
    Ok((None, evaluations))
}

/// Verdict of the exact scheduling-point test (paper eq. 4) for task
/// `index`: is there a scheduling point `t ≤ P_i` where the cumulative
/// demand `Σ_{j≤i} C_j⌈t/P_j⌉ + B` fits within `t`?
///
/// # Panics
///
/// Panics if `index` is out of range, and in debug builds if the tasks are
/// not sorted by ascending period.
#[must_use]
pub fn schedulable_at_points(tasks: &[RmTask], index: usize, blocking: Seconds) -> bool {
    debug_assert_priority_order(tasks);
    let d_i = tasks[index].deadline;
    let demand_fits = |t: Seconds| {
        let mut demand = blocking;
        for task in &tasks[..=index] {
            demand += task.cost * ceil_ratio(t, task.period);
        }
        demand <= t + Seconds::new(RATIO_EPS * t.as_secs_f64().max(1e-30))
    };
    // R_i = {(k, l) : 1 ≤ k ≤ i, 1 ≤ l ≤ ⌊D_i/P_k⌋}; points t = l·P_k,
    // plus the deadline itself (needed when D_i < P_i and no period
    // multiple lands on it).
    if demand_fits(d_i) {
        return true;
    }
    for task in &tasks[..=index] {
        let p_k = task.period;
        let l_max = floor_ratio(d_i, p_k) as u64;
        for l in 1..=l_max {
            let t = (p_k * l as f64).min(d_i);
            if demand_fits(t) {
                return true;
            }
        }
    }
    false
}

/// Exact RM schedulability of the whole set via the scheduling-point test.
///
/// `tasks` must be sorted by ascending period (rate-monotonic priority
/// order); `blocking` is added to every task's demand, as in the paper's
/// Theorem 4.1 where `B = 2·max(F, Θ)` bounds priority inversion.
#[must_use]
pub fn is_schedulable_points(tasks: &[RmTask], blocking: Seconds) -> bool {
    (0..tasks.len()).all(|i| schedulable_at_points(tasks, i, blocking))
}

/// Exact RM schedulability of the whole set via response-time analysis.
///
/// Equivalent verdict to [`is_schedulable_points`] (both are exact for
/// deadline = period), typically an order of magnitude faster. This is the
/// workhorse used by the Monte-Carlo breakdown search.
#[must_use]
pub fn is_schedulable_rta(tasks: &[RmTask], blocking: Seconds) -> bool {
    debug_assert_priority_order(tasks);
    !over_utilized(tasks) && (0..tasks.len()).all(|i| response_time(tasks, i, blocking).is_some())
}

/// Quick necessary condition of the response-time test: utilization
/// (ignoring blocking) must not exceed 1, otherwise RTA may take many
/// iterations to diverge.
fn over_utilized(tasks: &[RmTask]) -> bool {
    let u: f64 = tasks.iter().map(RmTask::utilization).sum();
    u > 1.0 + RATIO_EPS
}

/// [`is_schedulable_rta`] of one task set at a sequence of common length
/// factors `α` — the saturation search's probes of Theorem 4.1 and of
/// ideal RM.
///
/// The priority order, periods, deadlines and blocking term do not depend
/// on `α`, so they are fixed once; a probe rebuilds only the costs, since
/// frame counts step with `α`. The rank that failed last is tested first.
/// A rank whose response-time upper bound
/// `(C_i + B + Σ_{j<i} C_j) / (1 − Σ_{j<i} U_j)` meets its deadline needs
/// no iteration; any other starts from its response time at the largest
/// schedulable `α` probed so far, a lower bound at every larger `α` (costs
/// only grow with `α`). The verdict is [`is_schedulable_rta`]'s over the
/// tasks the cost function builds.
pub(crate) struct ScaledRta<F> {
    /// The streams in priority order, at their unscaled lengths.
    streams: Vec<SyncStream>,
    /// This probe's tasks, in the same order.
    tasks: Vec<RmTask>,
    blocking: Seconds,
    /// `C_i` (or `C'_i`) of a message of the given length.
    cost: F,
    /// Each rank's response time at `warm_alpha`.
    warm: Vec<Seconds>,
    /// The largest schedulable factor probed so far (0 before any).
    warm_alpha: f64,
    /// Scratch for a probe's response times.
    response: Vec<Seconds>,
    /// The rank that missed its deadline at the last unschedulable probe.
    failed: Option<usize>,
}

impl<F: Fn(Bits) -> Seconds> ScaledRta<F> {
    /// Probes `order` of `set` (priority order), each stream's cost given
    /// by `cost` of its scaled length, under `blocking`.
    pub(crate) fn new(set: &MessageSet, order: &[usize], blocking: Seconds, cost: F) -> Self {
        let streams: Vec<SyncStream> = order.iter().map(|&i| *set.stream(StreamId(i))).collect();
        let tasks = streams.iter().map(|s| task_of(s, Seconds::ZERO)).collect();
        let n = streams.len();
        ScaledRta {
            streams,
            tasks,
            blocking,
            cost,
            warm: vec![Seconds::ZERO; n],
            warm_alpha: 0.0,
            response: vec![Seconds::ZERO; n],
            failed: None,
        }
    }

    /// The response time of rank `i`, started warm when `alpha` is at
    /// least the last schedulable factor.
    fn rank(&self, i: usize, alpha: f64) -> Option<Seconds> {
        let cold = self.tasks[i].cost + self.blocking;
        let start = if alpha >= self.warm_alpha {
            cold.max(self.warm[i])
        } else {
            cold
        };
        response_time_from(
            &self.tasks,
            i,
            self.blocking,
            start,
            &mut Budget::unlimited(),
        )
        .expect("an unlimited budget never runs out")
        .0
    }
}

/// The task of `stream` at cost `cost`, with the stream's deadline.
fn task_of(stream: &SyncStream, cost: Seconds) -> RmTask {
    RmTask {
        cost,
        period: stream.period(),
        deadline: stream.relative_deadline(),
    }
}

impl<F: Fn(Bits) -> Seconds> ScalingProbe for ScaledRta<F> {
    fn schedulable_at(&mut self, alpha: f64) -> bool {
        for (task, stream) in self.tasks.iter_mut().zip(&self.streams) {
            task.cost = (self.cost)(stream.scaled_length(alpha));
        }
        if over_utilized(&self.tasks) {
            return false;
        }
        // The rank that failed last first: the next probe after a failure
        // usually fails there too.
        let first = self.failed;
        if let Some(k) = first {
            match self.rank(k, alpha) {
                Some(r) => self.response[k] = r,
                None => return false,
            }
        }
        let warm = alpha >= self.warm_alpha;
        let (mut higher_cost, mut higher_u) = (Seconds::ZERO, 0.0);
        for i in 0..self.tasks.len() {
            let task = self.tasks[i];
            if Some(i) != first {
                // R_i ≤ (C_i + B + Σ_{j<i} C_j) / (1 − Σ_{j<i} U_j), from
                // ⌈x⌉ < x + 1: a rank this bound clears needs no iteration.
                let idle = 1.0 - higher_u;
                if idle > 0.0 && (task.cost + self.blocking + higher_cost) / idle <= task.deadline {
                    self.response[i] = if warm { self.warm[i] } else { Seconds::ZERO };
                } else {
                    match self.rank(i, alpha) {
                        Some(r) => self.response[i] = r,
                        None => {
                            self.failed = Some(i);
                            return false;
                        }
                    }
                }
            }
            higher_cost += task.cost;
            higher_u += task.utilization();
        }
        std::mem::swap(&mut self.warm, &mut self.response);
        self.warm_alpha = alpha;
        true
    }
}

/// Per-task response times (`None` marks an unschedulable task), for
/// diagnostic reports.
#[must_use]
pub fn response_times(tasks: &[RmTask], blocking: Seconds) -> Vec<Option<Seconds>> {
    (0..tasks.len())
        .map(|i| response_time(tasks, i, blocking))
        .collect()
}

/// Idealized rate-monotonic "protocol": no frame overheads, no blocking, no
/// token — messages behave like preemptive CPU tasks with cost
/// `C_i = C_i^b / BW`.
///
/// This is the Lehoczky–Sha–Ding baseline the paper cites (§2): its average
/// breakdown utilization is ≈ 88 % for uniformly drawn task sets. It exists
/// to anchor the Monte-Carlo pipeline against a published number.
///
/// # Examples
///
/// ```
/// use ringrt_core::rm::IdealRmAnalyzer;
/// use ringrt_core::SchedulabilityTest;
/// use ringrt_model::{MessageSet, SyncStream};
/// use ringrt_units::{Bandwidth, Bits, Seconds};
///
/// let ideal = IdealRmAnalyzer::new(Bandwidth::from_mbps(100.0));
/// let set = MessageSet::new(vec![
///     SyncStream::new(Seconds::from_millis(10.0), Bits::new(500_000)),
///     SyncStream::new(Seconds::from_millis(20.0), Bits::new(1_000_000)),
/// ])?;
/// // Harmonic set at exactly U = 1.0 is schedulable in the ideal model.
/// assert!(ideal.is_schedulable(&set));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealRmAnalyzer {
    bandwidth: ringrt_units::Bandwidth,
}

impl IdealRmAnalyzer {
    /// Creates the ideal analyzer; `bandwidth` converts message bits into
    /// transmission times.
    #[must_use]
    pub fn new(bandwidth: ringrt_units::Bandwidth) -> Self {
        IdealRmAnalyzer { bandwidth }
    }

    /// The bandwidth used for bit→time conversion.
    #[must_use]
    pub fn bandwidth(&self) -> ringrt_units::Bandwidth {
        self.bandwidth
    }
}

impl crate::SchedulabilityTest for IdealRmAnalyzer {
    fn is_schedulable(&self, set: &ringrt_model::MessageSet) -> bool {
        let order = set.rm_order();
        let tasks: Vec<RmTask> = order
            .iter()
            .map(|&i| {
                let s = set.stream(ringrt_model::StreamId(i));
                RmTask::new(s.transmission_time(self.bandwidth), s.period())
            })
            .collect();
        is_schedulable_rta(&tasks, Seconds::ZERO)
    }

    fn protocol_name(&self) -> &'static str {
        "ideal RM"
    }

    /// Theorem 4.1's probe with `B = 0` and `C_i = C_i^b / BW`, where
    /// every deadline is the period (rate-monotonic order is then
    /// deadline-monotonic order).
    fn scaling_probe<'a>(
        &'a self,
        set: &'a ringrt_model::MessageSet,
    ) -> Box<dyn ScalingProbe + 'a> {
        if !set.iter().all(SyncStream::has_implicit_deadline) {
            return Box::new(crate::protocol::Rescale { test: self, set });
        }
        let bandwidth = self.bandwidth;
        Box::new(ScaledRta::new(
            set,
            &set.rm_order(),
            Seconds::ZERO,
            move |bits| bandwidth.transmission_time(bits),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(cost_ms: f64, period_ms: f64) -> RmTask {
        RmTask::new(
            Seconds::from_millis(cost_ms),
            Seconds::from_millis(period_ms),
        )
    }

    const NO_BLOCKING: Seconds = Seconds::ZERO;

    #[test]
    fn liu_layland_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.828_427).abs() < 1e-6);
        assert!((liu_layland_bound(3) - 0.779_763).abs() < 1e-6);
        // Monotone decreasing towards ln 2.
        for n in 1..50 {
            assert!(liu_layland_bound(n) > liu_layland_bound(n + 1));
            assert!(liu_layland_bound(n + 1) > core::f64::consts::LN_2);
        }
    }

    #[test]
    fn classic_liu_layland_example_schedulable() {
        // C = (20, 40, 100), P = (100, 150, 350): U ≈ 0.753, schedulable.
        let tasks = [t(20.0, 100.0), t(40.0, 150.0), t(100.0, 350.0)];
        assert!(is_schedulable_points(&tasks, NO_BLOCKING));
        assert!(is_schedulable_rta(&tasks, NO_BLOCKING));
        // Known response times: R1 = 20, R2 = 60, and for task 3 the fixed
        // point of 100 + 20⌈R/100⌉ + 40⌈R/150⌉ is R3 = 240.
        let r = response_times(&tasks, NO_BLOCKING);
        assert!((r[0].unwrap().as_millis() - 20.0).abs() < 1e-6);
        assert!((r[1].unwrap().as_millis() - 60.0).abs() < 1e-6);
        assert!((r[2].unwrap().as_millis() - 240.0).abs() < 1e-6);
    }

    #[test]
    fn full_utilization_harmonic_set_schedulable() {
        // Harmonic periods reach U = 1.0 under RM.
        let tasks = [t(10.0, 20.0), t(10.0, 40.0), t(20.0, 80.0)];
        let u: f64 = tasks.iter().map(RmTask::utilization).sum();
        assert!((u - 1.0).abs() < 1e-12);
        assert!(is_schedulable_points(&tasks, NO_BLOCKING));
        assert!(is_schedulable_rta(&tasks, NO_BLOCKING));
    }

    #[test]
    fn over_utilization_unschedulable() {
        let tasks = [t(15.0, 20.0), t(20.0, 40.0)];
        assert!(!is_schedulable_points(&tasks, NO_BLOCKING));
        assert!(!is_schedulable_rta(&tasks, NO_BLOCKING));
    }

    #[test]
    fn boundary_two_task_breakdown() {
        // For P = (1, 2^(1/1)) the two-task LL boundary: C1/P1 = C2/P2 =
        // 2(√2 − 1) ≈ 0.4142 is exactly schedulable.
        let u = 2.0 * (2f64.sqrt() - 1.0) / 2.0;
        let p1 = 1.0;
        let p2 = 2f64.sqrt();
        let tasks = [
            RmTask::new(Seconds::new(u * p1), Seconds::new(p1)),
            RmTask::new(Seconds::new(u * p2), Seconds::new(p2)),
        ];
        assert!(is_schedulable_rta(&tasks, NO_BLOCKING));
        // The tiniest inflation breaks it.
        let inflated = [
            RmTask::new(tasks[0].cost * 1.001, tasks[0].period),
            RmTask::new(tasks[1].cost * 1.001, tasks[1].period),
        ];
        assert!(!is_schedulable_rta(&inflated, NO_BLOCKING));
        assert!(!is_schedulable_points(&inflated, NO_BLOCKING));
    }

    #[test]
    fn blocking_reduces_schedulability() {
        let tasks = [t(8.0, 20.0), t(12.0, 40.0)];
        assert!(is_schedulable_rta(&tasks, NO_BLOCKING));
        // Blocking of 12 ms pushes the first task past its deadline
        // (8 + 12 = 20 = D is fine, but interference on task 2 breaks it).
        assert!(is_schedulable_rta(&tasks, Seconds::from_millis(12.0)));
        assert!(!is_schedulable_rta(&tasks, Seconds::from_millis(12.1)));
        // The point test agrees on both sides of the edge.
        assert!(is_schedulable_points(&tasks, Seconds::from_millis(12.0)));
        assert!(!is_schedulable_points(&tasks, Seconds::from_millis(12.1)));
    }

    #[test]
    fn rta_matches_point_test_on_grid() {
        // Sweep a small deterministic family and insist the two exact tests
        // always agree.
        let mut disagreements = 0;
        for c1 in 1..=10 {
            for c2 in 1..=10 {
                for c3 in 1..=10 {
                    let tasks = [
                        t(c1 as f64, 14.0),
                        t(c2 as f64 * 2.0, 33.0),
                        t(c3 as f64 * 3.0, 101.0),
                    ];
                    let a = is_schedulable_points(&tasks, Seconds::from_millis(1.5));
                    let b = is_schedulable_rta(&tasks, Seconds::from_millis(1.5));
                    if a != b {
                        disagreements += 1;
                    }
                }
            }
        }
        assert_eq!(disagreements, 0);
    }

    #[test]
    fn single_task_edge() {
        let task = [t(10.0, 10.0)];
        assert!(is_schedulable_rta(&task, NO_BLOCKING));
        assert!(is_schedulable_points(&task, NO_BLOCKING));
        assert!(!is_schedulable_rta(&task, Seconds::from_millis(0.1)));
    }

    #[test]
    fn budget_caps_the_demand_terms_evaluated() {
        let tasks = [t(20.0, 100.0), t(40.0, 150.0), t(100.0, 350.0)];
        let mut unlimited = Budget::unlimited();
        let (r, evals) = response_time_counted(&tasks, 2, NO_BLOCKING, &mut unlimited).unwrap();
        let cost = u64::MAX - unlimited.left();
        assert_eq!(
            cost,
            2 * evals,
            "one term per higher-priority task per iteration"
        );
        // Exactly enough finishes with the same answer; one term less stops.
        let mut exact = Budget::terms(cost);
        assert_eq!(
            response_time_counted(&tasks, 2, NO_BLOCKING, &mut exact),
            Ok((r, evals))
        );
        assert_eq!(exact.left(), 0);
        let mut short = Budget::terms(cost - 1);
        assert_eq!(
            response_time_counted(&tasks, 2, NO_BLOCKING, &mut short),
            Err(Unfinished)
        );
        assert_eq!(short.left(), 0);
    }

    #[test]
    fn scaled_probes_agree_with_the_full_test() {
        use ringrt_model::MessageSet;
        use ringrt_units::Bandwidth;
        let streams = [
            (14.0, 9_000),
            (33.0, 30_000),
            (33.0, 5_000),
            (101.0, 80_000),
        ]
        .map(|(p, bits)| SyncStream::new(Seconds::from_millis(p), Bits::new(bits)));
        let mut constrained = streams;
        constrained[3] = constrained[3].with_relative_deadline(Seconds::from_millis(40.0));
        let bw = Bandwidth::from_mbps(4.0);
        let blocking = Seconds::from_millis(0.5);
        for streams in [streams, constrained] {
            let set = MessageSet::new(streams.to_vec()).unwrap();
            let order = set.dm_order();
            let full = |alpha: f64| {
                let scaled = set.with_scaled_lengths(alpha);
                let tasks: Vec<RmTask> = order
                    .iter()
                    .map(|&i| {
                        let s = scaled.stream(StreamId(i));
                        task_of(s, s.transmission_time(bw))
                    })
                    .collect();
                is_schedulable_rta(&tasks, blocking)
            };
            let mut probe =
                ScaledRta::new(&set, &order, blocking, |bits| bw.transmission_time(bits));
            // Up, down past the last schedulable factor, and up again.
            let alphas = [0.5, 1.0, 1.5, 1.2, 0.3, 2.0, 1.1, 1.3, 1.25, 0.9, 1.28];
            let verdicts: Vec<bool> = alphas.iter().map(|&a| full(a)).collect();
            assert!(verdicts.contains(&true) && verdicts.contains(&false));
            for (&alpha, &want) in alphas.iter().zip(&verdicts) {
                assert_eq!(probe.schedulable_at(alpha), want, "α = {alpha}");
            }
        }
    }

    #[test]
    fn response_time_includes_blocking() {
        let tasks = [t(5.0, 100.0)];
        let r = response_time(&tasks, 0, Seconds::from_millis(7.0)).unwrap();
        assert!((r.as_millis() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn ceil_ratio_handles_exact_multiples() {
        // 0.3 / 0.1 is 2.9999999999999996 in f64; must ceil to 3, not 4... and
        // the tolerance must not round 3.4 down.
        assert_eq!(ceil_ratio(Seconds::new(0.3), Seconds::new(0.1)), 3.0);
        assert_eq!(ceil_ratio(Seconds::new(0.34), Seconds::new(0.1)), 4.0);
        assert_eq!(floor_ratio(Seconds::new(0.3), Seconds::new(0.1)), 3.0);
        assert_eq!(floor_ratio(Seconds::new(0.29), Seconds::new(0.1)), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn liu_layland_zero_panics() {
        let _ = liu_layland_bound(0);
    }

    #[test]
    fn constrained_deadline_tightens_the_test() {
        // C = 5, P = 20: trivially fine with D = P, infeasible with D = 4.
        let relaxed = [t(5.0, 20.0)];
        assert!(is_schedulable_rta(&relaxed, NO_BLOCKING));
        let tight = [RmTask::with_deadline(
            Seconds::from_millis(5.0),
            Seconds::from_millis(20.0),
            Seconds::from_millis(4.0),
        )];
        assert!(!is_schedulable_rta(&tight, NO_BLOCKING));
        assert!(!is_schedulable_points(&tight, NO_BLOCKING));
        // Exactly D = C passes.
        let exact = [RmTask::with_deadline(
            Seconds::from_millis(5.0),
            Seconds::from_millis(20.0),
            Seconds::from_millis(5.0),
        )];
        assert!(is_schedulable_rta(&exact, NO_BLOCKING));
        assert!(is_schedulable_points(&exact, NO_BLOCKING));
    }

    #[test]
    fn deadline_monotonic_two_task_example() {
        // Task A: C=2, P=10, D=4 (higher priority under DM).
        // Task B: C=3, P=6 (D=6).
        let a = RmTask::with_deadline(
            Seconds::from_millis(2.0),
            Seconds::from_millis(10.0),
            Seconds::from_millis(4.0),
        );
        let b = t(3.0, 6.0);
        let tasks = [a, b]; // DM order: D=4 before D=6
        assert!(is_schedulable_points(&tasks, NO_BLOCKING));
        assert!(is_schedulable_rta(&tasks, NO_BLOCKING));
        // R_A = 2 ≤ 4; R_B = 3 + 2 = 5 ≤ 6.
        let r = response_times(&tasks, NO_BLOCKING);
        assert!((r[0].unwrap().as_millis() - 2.0).abs() < 1e-9);
        assert!((r[1].unwrap().as_millis() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "0 < D ≤ P")]
    fn deadline_above_period_rejected() {
        let _ = RmTask::with_deadline(
            Seconds::from_millis(1.0),
            Seconds::from_millis(10.0),
            Seconds::from_millis(11.0),
        );
    }
}
