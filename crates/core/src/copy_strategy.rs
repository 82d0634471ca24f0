//! Adaptive GPU→CPU snapshot copy strategies (§6.1, Figure 5).
//!
//! After merging the intervals a GPU API touched, ValueExpert must bring
//! the touched *values* to the CPU to update the object's shadow snapshot.
//! Three strategies trade per-call overhead against wasted bytes:
//!
//! * **direct** — copy the whole object: one call, possibly many untouched
//!   bytes;
//! * **min–max** — copy `[min(starts), max(ends))`: one call, fewer wasted
//!   bytes when accesses cluster;
//! * **segment** — one call per merged interval: zero wasted bytes, many
//!   calls.
//!
//! [`choose_strategy`] implements the paper's adaptive policy: segment
//! copy when the interval distribution is sparse and the interval count is
//! small; min–max when it is dense or the count is large.

use serde::{Deserialize, Serialize};
use vex_trace::interval::{covered_bytes, Interval};

/// One of the three copy strategies of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CopyStrategy {
    /// Copy the entire object.
    Direct,
    /// Copy the span from the lowest accessed address to the highest.
    MinMax,
    /// Copy each merged interval separately.
    Segment,
}

impl std::fmt::Display for CopyStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CopyStrategy::Direct => "direct",
            CopyStrategy::MinMax => "min-max",
            CopyStrategy::Segment => "segment",
        })
    }
}

/// Cost accounting for one snapshot update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CopyPlan {
    /// Strategy chosen.
    pub strategy: CopyStrategy,
    /// Number of copy API invocations.
    pub calls: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Bytes transferred that no access touched (waste).
    pub wasted_bytes: u64,
}

impl CopyPlan {
    /// Simulated time of this plan: per-call fixed overhead plus PCIe
    /// streaming time.
    pub fn time_us(&self, per_call_us: f64, pcie_gbps: f64) -> f64 {
        self.calls as f64 * per_call_us + self.bytes as f64 / (pcie_gbps * 1e3)
    }
}

/// Per-object tally of the adaptive policy's choices across a session:
/// how many snapshot updates picked each strategy and what the transfers
/// cost. The dominant choice is the object's *recommended* copy strategy
/// — the knob a user would bake into a custom capture config — and the
/// quantity `vex diff` compares across builds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectCopyPlan {
    /// Allocation label of the object.
    pub label: String,
    /// Updates that chose the direct strategy.
    pub direct: u64,
    /// Updates that chose the min–max strategy.
    pub min_max: u64,
    /// Updates that chose the segment strategy.
    pub segment: u64,
    /// Bytes transferred across all updates.
    pub bytes: u64,
    /// Transferred bytes no access touched.
    pub wasted_bytes: u64,
}

impl ObjectCopyPlan {
    /// An empty tally for `label`.
    pub fn new(label: &str) -> Self {
        ObjectCopyPlan { label: label.to_owned(), ..ObjectCopyPlan::default() }
    }

    /// Records one executed plan.
    pub fn tally(&mut self, plan: &CopyPlan) {
        match plan.strategy {
            CopyStrategy::Direct => self.direct += 1,
            CopyStrategy::MinMax => self.min_max += 1,
            CopyStrategy::Segment => self.segment += 1,
        }
        self.bytes += plan.bytes;
        self.wasted_bytes += plan.wasted_bytes;
    }

    /// Total snapshot updates tallied.
    pub fn updates(&self) -> u64 {
        self.direct + self.min_max + self.segment
    }

    /// The dominant strategy. Ties prefer the fewer-calls option, in
    /// `Direct` < `MinMax` < `Segment` order, so the recommendation is
    /// deterministic.
    pub fn recommended(&self) -> CopyStrategy {
        let mut best = (CopyStrategy::Direct, self.direct);
        if self.min_max > best.1 {
            best = (CopyStrategy::MinMax, self.min_max);
        }
        if self.segment > best.1 {
            best = (CopyStrategy::Segment, self.segment);
        }
        best.0
    }
}

/// Tuning knobs of the adaptive policy.
///
/// The policy realizes the paper's rule — "segment copy when the
/// distribution of accessed intervals is sparse and the number of
/// intervals is small; min–max when dense or numerous" — by pricing both
/// candidates with the copy cost model and picking the cheaper one.
/// `max_segments` is a hard cap: beyond it the per-call bookkeeping on
/// the host side becomes the bottleneck regardless of modeled time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptivePolicy {
    /// Hard cap on segment-copy calls.
    pub max_segments: u64,
    /// Fixed cost per copy call, microseconds.
    pub per_call_us: f64,
    /// Interconnect bandwidth, GB/s.
    pub pcie_gbps: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy { max_segments: 4096, per_call_us: 6.0, pcie_gbps: 12.0 }
    }
}

/// Builds the plan for one strategy over disjoint sorted `merged`
/// intervals within an object of `object_bytes`.
///
/// # Panics
///
/// Panics if `merged` is empty — a snapshot update with no touched bytes
/// is a caller bug.
pub fn plan(strategy: CopyStrategy, merged: &[Interval], object_bytes: u64) -> CopyPlan {
    assert!(!merged.is_empty(), "no intervals to copy");
    let touched = covered_bytes(merged);
    match strategy {
        CopyStrategy::Direct => CopyPlan {
            strategy,
            calls: 1,
            bytes: object_bytes,
            wasted_bytes: object_bytes - touched,
        },
        CopyStrategy::MinMax => {
            let span = merged.last().expect("nonempty").end - merged[0].start;
            CopyPlan { strategy, calls: 1, bytes: span, wasted_bytes: span - touched }
        }
        CopyStrategy::Segment => {
            CopyPlan { strategy, calls: merged.len() as u64, bytes: touched, wasted_bytes: 0 }
        }
    }
}

/// The adaptive policy: segment copy when the intervals are sparse and
/// few enough that its per-call overhead beats streaming the gaps;
/// min–max otherwise. (Min–max always dominates direct copy: one call,
/// never more bytes.)
///
/// ```rust
/// use vex_core::copy_strategy::{choose_strategy, AdaptivePolicy, CopyStrategy};
/// use vex_trace::interval::Interval;
/// let policy = AdaptivePolicy::default();
/// // Two touches a megabyte apart: copy the pieces, not the gap.
/// let sparse = [Interval::new(0, 64), Interval::new(1 << 20, (1 << 20) + 64)];
/// assert_eq!(choose_strategy(&sparse, &policy), CopyStrategy::Segment);
/// // Dense coverage: one spanning copy wins.
/// let dense = [Interval::new(0, 4096)];
/// assert_eq!(choose_strategy(&dense, &policy), CopyStrategy::MinMax);
/// ```
pub fn choose_strategy(merged: &[Interval], policy: &AdaptivePolicy) -> CopyStrategy {
    if merged.is_empty() {
        return CopyStrategy::Segment;
    }
    if merged.len() as u64 > policy.max_segments {
        return CopyStrategy::MinMax;
    }
    let touched = covered_bytes(merged);
    let span = merged.last().expect("nonempty").end - merged[0].start;
    let seg_us =
        merged.len() as f64 * policy.per_call_us + touched as f64 / (policy.pcie_gbps * 1e3);
    let mm_us = policy.per_call_us + span as f64 / (policy.pcie_gbps * 1e3);
    if seg_us < mm_us {
        CopyStrategy::Segment
    } else {
        CopyStrategy::MinMax
    }
}

/// Plans a snapshot update with the adaptive policy.
///
/// # Panics
///
/// Panics if `merged` is empty.
pub fn plan_adaptive(
    merged: &[Interval],
    object_bytes: u64,
    policy: &AdaptivePolicy,
) -> CopyPlan {
    plan(choose_strategy(merged, policy), merged, object_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    #[test]
    fn direct_copies_everything() {
        let p = plan(CopyStrategy::Direct, &[iv(10, 20)], 100);
        assert_eq!(p.calls, 1);
        assert_eq!(p.bytes, 100);
        assert_eq!(p.wasted_bytes, 90);
    }

    #[test]
    fn minmax_copies_span() {
        let p = plan(CopyStrategy::MinMax, &[iv(10, 20), iv(80, 90)], 100);
        assert_eq!(p.calls, 1);
        assert_eq!(p.bytes, 80);
        assert_eq!(p.wasted_bytes, 60);
    }

    #[test]
    fn segment_copies_exactly() {
        let p = plan(CopyStrategy::Segment, &[iv(10, 20), iv(80, 90)], 100);
        assert_eq!(p.calls, 2);
        assert_eq!(p.bytes, 20);
        assert_eq!(p.wasted_bytes, 0);
    }

    #[test]
    fn adaptive_prefers_segment_for_sparse_few() {
        // Two touches a megabyte apart: streaming the gap would cost
        // ~85us; two copy calls cost 12us.
        let merged = vec![iv(0, 64), iv(1 << 20, (1 << 20) + 64)];
        assert_eq!(choose_strategy(&merged, &AdaptivePolicy::default()), CopyStrategy::Segment);
    }

    #[test]
    fn adaptive_prefers_minmax_for_dense() {
        // Small gaps: the per-call overhead of segment copy exceeds the
        // few wasted bytes min-max streams.
        let merged = vec![iv(0, 8), iv(1000, 1008)];
        assert_eq!(choose_strategy(&merged, &AdaptivePolicy::default()), CopyStrategy::MinMax);
    }

    #[test]
    fn adaptive_prefers_minmax_for_many_segments() {
        // 10k tiny intervals over a modest span: per-call overheads for
        // segment copy dwarf the streamed gap bytes.
        let merged: Vec<Interval> =
            (0..10_000u64).map(|i| iv(i * 1000, i * 1000 + 4)).collect();
        assert_eq!(choose_strategy(&merged, &AdaptivePolicy::default()), CopyStrategy::MinMax);
    }

    #[test]
    fn adaptive_picks_the_modeled_winner() {
        // The adaptive choice must never be costlier than the alternative
        // under its own cost model.
        let policy = AdaptivePolicy::default();
        for gap_kb in [0u64, 1, 8, 64, 512, 4096] {
            let gap = gap_kb * 1024;
            let merged = vec![iv(0, 256), iv(256 + gap, 512 + gap)];
            let chosen = choose_strategy(&merged, &policy);
            let t = |s| plan(s, &merged, 1 << 30).time_us(policy.per_call_us, policy.pcie_gbps);
            assert!(
                t(chosen) <= t(CopyStrategy::MinMax).min(t(CopyStrategy::Segment)) + 1e-9,
                "gap {gap_kb} KiB: chose {chosen}"
            );
        }
    }

    #[test]
    fn plan_time_tradeoff_is_visible() {
        // Sparse case: segment is cheaper despite two calls.
        let merged = vec![iv(0, 64), iv(1_000_000, 1_000_064)];
        let seg = plan(CopyStrategy::Segment, &merged, 2_000_000).time_us(5.0, 12.0);
        let mm = plan(CopyStrategy::MinMax, &merged, 2_000_000).time_us(5.0, 12.0);
        assert!(seg < mm);
        // Dense case: min-max is cheaper than many segment calls.
        let dense: Vec<Interval> = (0..500u64).map(|i| iv(i * 8, i * 8 + 4)).collect();
        let seg = plan(CopyStrategy::Segment, &dense, 8000).time_us(5.0, 12.0);
        let mm = plan(CopyStrategy::MinMax, &dense, 8000).time_us(5.0, 12.0);
        assert!(mm < seg);
    }

    proptest! {
        #[test]
        fn prop_plans_are_consistent(
            raw in prop::collection::vec((0u64..10_000, 1u64..100), 1..50)
        ) {
            // Build disjoint sorted intervals by merging raw input.
            let ivs: Vec<Interval> =
                raw.iter().map(|&(s, l)| iv(s, s + l)).collect();
            let merged = vex_trace::interval::merge_sequential(&ivs);
            let object_bytes = merged.last().unwrap().end + 128;
            let touched = covered_bytes(&merged);

            let d = plan(CopyStrategy::Direct, &merged, object_bytes);
            let m = plan(CopyStrategy::MinMax, &merged, object_bytes);
            let s = plan(CopyStrategy::Segment, &merged, object_bytes);

            // Bytes ordering: segment <= minmax <= direct.
            prop_assert!(s.bytes <= m.bytes);
            prop_assert!(m.bytes <= d.bytes);
            // Calls ordering: direct == minmax == 1 <= segment.
            prop_assert_eq!(d.calls, 1);
            prop_assert_eq!(m.calls, 1);
            prop_assert!(s.calls >= 1);
            // Waste accounting: bytes = touched + wasted.
            for p in [d, m, s] {
                prop_assert_eq!(p.bytes, touched + p.wasted_bytes);
            }
            // Adaptive never picks Direct and always returns a valid plan.
            let a = plan_adaptive(&merged, object_bytes, &AdaptivePolicy::default());
            prop_assert!(a.strategy != CopyStrategy::Direct);
        }
    }
}
