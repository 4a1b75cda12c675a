//! Priority-level quantization (the 8-level reality of IEEE 802.5).
//!
//! The paper's rate-monotonic implementation assumes every stream gets its
//! own priority, but the 802.5 access-control byte carries only **3
//! priority bits — 8 service levels**. With `n > 8` streams, several streams must share
//! a level, and the MAC arbitrates between equals by ring position, not by
//! deadline.
//!
//! This module provides the standard conservative analysis for quantized
//! priorities: a message can be delayed by *every* message of a
//! same-level peer (neither can preempt the other), so same-level streams
//! are charged like higher-priority interference. With one stream per
//! level the analysis reduces exactly to Theorem 4.1.

use ringrt_units::Seconds;

use crate::rm::RmTask;

/// Maps deadline-monotonic ranks `0..n` onto `levels` hardware priority
/// classes (level 0 = highest). Ranks are distributed as evenly as
/// possible, preserving order.
///
/// # Panics
///
/// Panics if `levels` is zero.
///
/// # Examples
///
/// ```
/// use ringrt_core::pdp::quantize_ranks;
///
/// // Six streams onto 3 levels: two per level.
/// assert_eq!(quantize_ranks(6, 3), vec![0, 0, 1, 1, 2, 2]);
/// // More levels than streams: identity.
/// assert_eq!(quantize_ranks(3, 8), vec![0, 1, 2]);
/// ```
#[must_use]
pub fn quantize_ranks(n: usize, levels: usize) -> Vec<usize> {
    assert!(levels > 0, "need at least one priority level");
    (0..n).map(|rank| rank * levels.min(n) / n).collect()
}

/// Exact schedulability of `tasks` (in deadline-monotonic order, paired
/// with their quantized `levels`) under fixed priorities with ties:
/// same-level peers interfere like higher-priority tasks, lower levels
/// contribute only the blocking term.
///
/// With distinct levels this is exactly the Theorem 4.1 test.
pub(crate) fn is_schedulable_quantized(
    tasks: &[RmTask],
    levels: &[usize],
    blocking: Seconds,
) -> bool {
    debug_assert_eq!(tasks.len(), levels.len());
    for i in 0..tasks.len() {
        if quantized_response_time(tasks, levels, i, blocking).is_none() {
            return false;
        }
    }
    true
}

/// Worst-case response time of task `i` under quantized priorities, or
/// `None` if it exceeds the deadline.
pub(crate) fn quantized_response_time(
    tasks: &[RmTask],
    levels: &[usize],
    i: usize,
    blocking: Seconds,
) -> Option<Seconds> {
    let task = &tasks[i];
    let deadline = task.deadline;
    let tol = Seconds::new(1e-9 * deadline.as_secs_f64().max(1e-30));
    // Interference set: strictly higher levels plus same-level peers.
    let interferers: Vec<&RmTask> = tasks
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i && levels[j] <= levels[i])
        .map(|(_, t)| t)
        .collect();
    let mut r = task.cost + blocking;
    for _ in 0..10_000 {
        if r > deadline + tol {
            return None;
        }
        let mut next = task.cost + blocking;
        for t in &interferers {
            let ratio = r / t.period;
            let nearest = ratio.round();
            let ceil = if (ratio - nearest).abs() <= 1e-9 * nearest.abs().max(1.0) {
                nearest
            } else {
                ratio.ceil()
            };
            next += t.cost * ceil;
        }
        if next <= r + tol {
            return if next <= deadline + tol {
                Some(next)
            } else {
                None
            };
        }
        r = next;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringrt_units::Seconds;

    fn t(cost_ms: f64, period_ms: f64) -> RmTask {
        RmTask::new(
            Seconds::from_millis(cost_ms),
            Seconds::from_millis(period_ms),
        )
    }

    #[test]
    fn quantize_distributes_evenly() {
        assert_eq!(quantize_ranks(8, 8), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(quantize_ranks(4, 2), vec![0, 0, 1, 1]);
        assert_eq!(quantize_ranks(5, 2), vec![0, 0, 0, 1, 1]);
        assert_eq!(
            quantize_ranks(100, 8).iter().filter(|&&l| l == 0).count(),
            13
        );
        assert_eq!(quantize_ranks(1, 8), vec![0]);
        // Single level: everyone equal.
        assert!(quantize_ranks(10, 1).iter().all(|&l| l == 0));
    }

    #[test]
    #[should_panic(expected = "at least one priority level")]
    fn zero_levels_rejected() {
        let _ = quantize_ranks(4, 0);
    }

    #[test]
    fn distinct_levels_match_plain_rta() {
        let tasks = [t(5.0, 20.0), t(10.0, 50.0), t(20.0, 100.0)];
        let levels = [0, 1, 2];
        let b = Seconds::from_millis(1.0);
        for i in 0..3 {
            assert_eq!(
                quantized_response_time(&tasks, &levels, i, b),
                crate::rm::response_time(&tasks, i, b),
                "task {i}"
            );
        }
        assert_eq!(
            is_schedulable_quantized(&tasks, &levels, b),
            crate::rm::is_schedulable_rta(&tasks, b)
        );
    }

    #[test]
    fn shared_level_adds_mutual_interference() {
        // Two tasks on one level: each sees the other as interference.
        let tasks = [t(8.0, 20.0), t(8.0, 20.0)];
        let b = Seconds::ZERO;
        assert!(is_schedulable_quantized(&tasks, &[0, 1], b));
        // Same level: R = 8 + 8·⌈R/20⌉ → 16 ≤ 20: still fine.
        assert!(is_schedulable_quantized(&tasks, &[0, 0], b));
        // But 12-ms tasks fit only with distinct levels.
        let tight = [t(12.0, 20.0), t(12.0, 40.0)];
        assert!(is_schedulable_quantized(&tight, &[0, 1], b));
        assert!(!is_schedulable_quantized(&tight, &[0, 0], b));
    }

    #[test]
    fn fewer_levels_never_help() {
        let tasks = [t(3.0, 10.0), t(5.0, 25.0), t(7.0, 60.0), t(10.0, 120.0)];
        let b = Seconds::from_millis(0.5);
        let full: Vec<usize> = (0..4).collect();
        for levels in [4usize, 3, 2, 1] {
            let q = quantize_ranks(4, levels);
            if is_schedulable_quantized(&tasks, &q, b) {
                // Anything schedulable with fewer levels is schedulable
                // with distinct ones.
                assert!(is_schedulable_quantized(&tasks, &full, b));
            }
        }
    }
}
