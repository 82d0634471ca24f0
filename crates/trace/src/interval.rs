//! Interval merging — the paper's §6.1 data-parallel algorithm.
//!
//! During a kernel, every instrumented access contributes one half-open
//! `[start, end)` interval. ValueExpert merges adjacent/overlapping
//! intervals *on the GPU* so that only merged ranges (not raw access
//! streams) cross PCIe. Three implementations live here:
//!
//! 1. [`merge_sequential`] — the classical host-side sort-and-sweep,
//!    `O(N log N)`, the baseline the paper argues against;
//! 2. [`merge_parallel`] — the paper's Figure 4 algorithm: lexicographic
//!    sort of `(address, is_end)` endpoints, ±1 markers, a prefix scan to
//!    find merged-interval boundaries, flag arrays, second scans for
//!    output indices, and a final scatter. Every step is a data-parallel
//!    primitive; [`merge_parallel_threaded`] executes the same steps with
//!    chunked multi-threading via crossbeam to demonstrate real scaling.
//!
//! The §6.1 warp-level compaction, which merges the intervals of one warp
//! before they reach the shared buffer, lives in
//! [`crate::event::KernelIntervals`]; its output per warp is exactly
//! [`merge_sequential`] of the warp's intervals.

use serde::{Deserialize, Serialize};

/// A half-open byte interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// Inclusive start address.
    pub start: u64,
    /// Exclusive end address.
    pub end: u64,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` (empty intervals are not representable).
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start < end, "empty interval [{start}, {end})");
        Interval { start, end }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Intervals are never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `self` and `other` overlap or touch (mergeable).
    pub fn mergeable(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Whether `addr` lies inside the interval.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }
}

impl From<(u64, u64)> for Interval {
    fn from((s, e): (u64, u64)) -> Self {
        Interval::new(s, e)
    }
}

/// Total bytes covered by a set of disjoint intervals.
pub fn covered_bytes(intervals: &[Interval]) -> u64 {
    intervals.iter().map(Interval::len).sum()
}

/// Classical host-side merge: sort by start, sweep once. `O(N log N)`.
///
/// Adjacent intervals (`a.end == b.start`) are coalesced, matching the
/// paper's definition of mergeable intervals.
pub fn merge_sequential(intervals: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::with_capacity(intervals.len() / 2 + 1);
    merge_into(&mut intervals.to_vec(), &mut out);
    out
}

/// [`merge_sequential`] in place: sorts `intervals` and appends the merged
/// set to `out`, allocating nothing beyond `out`'s growth.
pub fn merge_into(intervals: &mut [Interval], out: &mut Vec<Interval>) {
    intervals.sort_unstable_by_key(|iv| (iv.start, iv.end));
    let Some((&first, rest)) = intervals.split_first() else {
        return;
    };
    let mut cur = first;
    for iv in rest {
        if iv.start <= cur.end {
            cur.end = cur.end.max(iv.end);
        } else {
            out.push(cur);
            cur = *iv;
        }
    }
    out.push(cur);
}

/// Endpoints are packed into a single `u64` — `(address << 1) | is_end`
/// — so sorting endpoint lists is a dense integer sort. The packing
/// preserves the required lexicographic order (starts before ends at
/// equal addresses) because `is_end` occupies the lowest bit.
///
/// Addresses must fit 63 bits, which [`Interval::new`] guarantees for the
/// simulator (device memory is far smaller).
#[inline]
fn pack(addr: u64, is_end: bool) -> u64 {
    debug_assert!(addr < 1 << 63, "address exceeds 63 bits");
    (addr << 1) | u64::from(is_end)
}

#[inline]
fn unpack(e: u64) -> (u64, bool) {
    (e >> 1, e & 1 == 1)
}

fn endpoints_of(intervals: &[Interval]) -> Vec<u64> {
    let mut endpoints = Vec::with_capacity(intervals.len() * 2);
    for iv in intervals {
        endpoints.push(pack(iv.start, false));
        endpoints.push(pack(iv.end, true));
    }
    endpoints
}

/// The paper's data-parallel merge (Figure 4), executed faithfully as a
/// sequence of data-parallel primitives on one thread. Steps:
///
/// 1. build and lexicographically sort the endpoint list,
/// 2. build the ±1 `markers` array (start = +1, end = −1),
/// 3. inclusive prefix scan of `markers` (the nesting depth),
/// 4. `start_flags[i] = 1` iff endpoint *i* is a start whose scanned depth
///    is 1 (a merged interval begins),
/// 5. exclusive prefix scan of `start_flags` gives output indices,
/// 6. `end_flags[i] = 1` iff endpoint *i* is an end whose scanned depth is
///    0 (a merged interval closes),
/// 7. exclusive prefix scan of `end_flags`,
/// 8. + 9. scatter starts and ends into the output buffer.
///
/// ```rust
/// use vex_trace::interval::{merge_parallel, Interval};
/// let merged = merge_parallel(&[
///     Interval::new(0, 4),
///     Interval::new(4, 8),   // touching: coalesces
///     Interval::new(16, 20),
/// ]);
/// assert_eq!(merged, vec![Interval::new(0, 8), Interval::new(16, 20)]);
/// ```
pub fn merge_parallel(intervals: &[Interval]) -> Vec<Interval> {
    if intervals.is_empty() {
        return Vec::new();
    }
    // Step 1: endpoint list, lexicographic sort (packed integer sort).
    let mut endpoints = endpoints_of(intervals);
    endpoints.sort_unstable();

    // Steps 2-3: markers and inclusive prefix scan, fused.
    let mut depth = Vec::with_capacity(endpoints.len());
    let mut acc = 0i64;
    for &e in &endpoints {
        acc += if e & 1 == 1 { -1 } else { 1 };
        depth.push(acc);
    }

    // Steps 4-5: start flags and their exclusive scan.
    let start_flags: Vec<u64> =
        endpoints.iter().zip(&depth).map(|(&e, &d)| u64::from(e & 1 == 0 && d == 1)).collect();
    let start_idx = exclusive_scan(&start_flags);

    // Steps 6-7: end flags and their exclusive scan.
    let end_flags: Vec<u64> =
        endpoints.iter().zip(&depth).map(|(&e, &d)| u64::from(e & 1 == 1 && d == 0)).collect();
    let end_idx = exclusive_scan(&end_flags);

    // Steps 8-9: scatter.
    let count = start_flags.iter().sum::<u64>() as usize;
    debug_assert_eq!(count, end_flags.iter().sum::<u64>() as usize);
    let mut starts = vec![0u64; count];
    let mut ends = vec![0u64; count];
    for (i, &e) in endpoints.iter().enumerate() {
        let (addr, _is_end) = unpack(e);
        if start_flags[i] == 1 {
            starts[start_idx[i] as usize] = addr;
        }
        if end_flags[i] == 1 {
            ends[end_idx[i] as usize] = addr;
        }
    }
    starts.into_iter().zip(ends).map(|(s, e)| Interval::new(s, e)).collect()
}

fn exclusive_scan(v: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(v.len());
    let mut acc = 0u64;
    for x in v {
        out.push(acc);
        acc += x;
    }
    out
}

/// Multi-threaded execution of the same data-parallel steps,
/// distributing the endpoint sort (chunk sort + parallel pairwise run
/// merging) and the prefix scan across `threads` workers with crossbeam
/// scoped threads. Demonstrates the scaling the paper obtains from GPU
/// parallelism.
pub fn merge_parallel_threaded(intervals: &[Interval], threads: usize) -> Vec<Interval> {
    if intervals.len() < 4096 || threads <= 1 {
        return merge_parallel(intervals);
    }
    let mut endpoints = endpoints_of(intervals);

    // Parallel sort: sort chunks concurrently, then merge runs pairwise
    // (each round halves the run count; merges of one round run
    // concurrently).
    let chunk = endpoints.len().div_ceil(threads);
    crossbeam::thread::scope(|s| {
        for part in endpoints.chunks_mut(chunk) {
            s.spawn(move |_| part.sort_unstable());
        }
    })
    .expect("worker thread panicked");
    let mut runs: Vec<Vec<u64>> = endpoints.chunks(chunk).map(<[u64]>::to_vec).collect();
    while runs.len() > 1 {
        let mut next: Vec<Vec<u64>> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        let mut pairs = Vec::new();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => pairs.push((a, b)),
                None => next.push(a),
            }
        }
        let mut merged: Vec<Vec<u64>> =
            pairs.iter().map(|(a, b)| Vec::with_capacity(a.len() + b.len())).collect();
        crossbeam::thread::scope(|s| {
            for ((a, b), out) in pairs.iter().zip(merged.iter_mut()) {
                s.spawn(move |_| {
                    let (mut i, mut j) = (0, 0);
                    while i < a.len() && j < b.len() {
                        if a[i] <= b[j] {
                            out.push(a[i]);
                            i += 1;
                        } else {
                            out.push(b[j]);
                            j += 1;
                        }
                    }
                    out.extend_from_slice(&a[i..]);
                    out.extend_from_slice(&b[j..]);
                });
            }
        })
        .expect("worker thread panicked");
        next.extend(merged);
        runs = next;
    }
    let sorted = runs.pop().expect("one run remains");

    // Parallel scan: per-chunk partial sums, then offset fix-up.
    let n = sorted.len();
    let scan_chunk = n.div_ceil(threads);
    let mut depth = vec![0i64; n];
    let partials: Vec<i64> = {
        let mut partial = vec![0i64; threads];
        crossbeam::thread::scope(|s| {
            let mut partial_rest: &mut [i64] = &mut partial;
            for (d_part, e_part) in depth.chunks_mut(scan_chunk).zip(sorted.chunks(scan_chunk))
            {
                let (p, rest) = partial_rest.split_first_mut().expect("one slot per chunk");
                partial_rest = rest;
                s.spawn(move |_| {
                    let mut acc = 0i64;
                    for (d, &e) in d_part.iter_mut().zip(e_part) {
                        acc += if e & 1 == 1 { -1 } else { 1 };
                        *d = acc;
                    }
                    *p = acc;
                });
            }
        })
        .expect("worker thread panicked");
        partial
    };
    let mut offsets = vec![0i64; threads];
    for t in 1..threads {
        offsets[t] = offsets[t - 1] + partials[t - 1];
    }
    crossbeam::thread::scope(|s| {
        for (t, d_part) in depth.chunks_mut(scan_chunk).enumerate() {
            let off = offsets[t];
            s.spawn(move |_| {
                if off != 0 {
                    for d in d_part {
                        *d += off;
                    }
                }
            });
        }
    })
    .expect("worker thread panicked");

    // Flags + scatter (cheap; single pass).
    let mut out = Vec::new();
    let mut open = 0u64;
    for (&e, &d) in sorted.iter().zip(&depth) {
        let (addr, is_end) = unpack(e);
        if !is_end && d == 1 {
            open = addr;
        } else if is_end && d == 0 {
            out.push(Interval::new(open, addr));
        }
    }
    out
}

/// Statistics of one merge, used by benches and the overhead model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeStats {
    /// Intervals before merging.
    pub input: u64,
    /// Intervals after merging.
    pub output: u64,
    /// Bytes covered by the merged set.
    pub bytes: u64,
}

/// Merges and reports compression statistics in one call.
pub fn merge_with_stats(intervals: &[Interval]) -> (Vec<Interval>, MergeStats) {
    let merged = merge_parallel(intervals);
    let stats = MergeStats {
        input: intervals.len() as u64,
        output: merged.len() as u64,
        bytes: covered_bytes(&merged),
    };
    (merged, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    #[test]
    fn sequential_merges_overlap_and_touch() {
        let merged = merge_sequential(&[iv(0, 4), iv(4, 8), iv(10, 12), iv(11, 20)]);
        assert_eq!(merged, vec![iv(0, 8), iv(10, 20)]);
    }

    #[test]
    fn parallel_matches_sequential_on_examples() {
        let cases: Vec<Vec<Interval>> = vec![
            vec![],
            vec![iv(5, 6)],
            vec![iv(0, 4), iv(4, 8)],
            vec![iv(0, 10), iv(2, 3), iv(5, 12), iv(20, 24)],
            vec![iv(0, 1), iv(2, 3), iv(4, 5)],
            vec![iv(0, 100), iv(10, 20), iv(30, 40)],
            // Duplicates
            vec![iv(8, 12), iv(8, 12), iv(8, 12)],
        ];
        for c in cases {
            assert_eq!(merge_parallel(&c), merge_sequential(&c), "case {c:?}");
        }
    }

    #[test]
    fn figure4_style_example() {
        // Mirrors the shape of the paper's Figure 4: several warps of
        // coalesced accesses plus stragglers.
        let mut input = Vec::new();
        for t in 0..32u64 {
            input.push(iv(1000 + t * 4, 1004 + t * 4)); // coalesced warp
        }
        input.push(iv(5000, 5008));
        input.push(iv(5004, 5016)); // overlaps previous
        let merged = merge_parallel(&input);
        assert_eq!(merged, vec![iv(1000, 1128), iv(5000, 5016)]);
        assert_eq!(covered_bytes(&merged), 128 + 16);
    }

    #[test]
    fn threaded_matches_parallel_small_and_large() {
        let mut intervals = Vec::new();
        // Deterministic pseudo-random layout with overlaps.
        let mut x = 123456789u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let start = x % 100_000;
            let len = 1 + (x >> 32) % 64;
            intervals.push(iv(start, start + len));
        }
        let expect = merge_sequential(&intervals);
        assert_eq!(merge_parallel(&intervals), expect);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                merge_parallel_threaded(&intervals, threads),
                expect,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn warp_compact_coalesced_collapses_to_one() {
        let ivs: Vec<Interval> = (0..32u64).map(|t| iv(t * 4, t * 4 + 4)).collect();
        assert_eq!(merge_sequential(&ivs), vec![iv(0, 128)]);
    }

    #[test]
    fn merge_with_stats_reports_compression() {
        let ivs: Vec<Interval> = (0..100u64).map(|t| iv(t * 4, t * 4 + 4)).collect();
        let (merged, stats) = merge_with_stats(&ivs);
        assert_eq!(merged.len(), 1);
        assert_eq!(stats.input, 100);
        assert_eq!(stats.output, 1);
        assert_eq!(stats.bytes, 400);
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn empty_interval_rejected() {
        let _ = iv(4, 4);
    }

    proptest! {
        #[test]
        fn prop_parallel_equals_sequential(
            raw in prop::collection::vec((0u64..1000, 1u64..50), 0..400)
        ) {
            let ivs: Vec<Interval> =
                raw.iter().map(|&(s, l)| iv(s, s + l)).collect();
            prop_assert_eq!(merge_parallel(&ivs), merge_sequential(&ivs));
        }

        #[test]
        fn prop_threaded_equals_sequential(
            raw in prop::collection::vec((0u64..5000, 1u64..40), 0..6000),
            threads in 2usize..6,
        ) {
            let ivs: Vec<Interval> =
                raw.iter().map(|&(s, l)| iv(s, s + l)).collect();
            prop_assert_eq!(
                merge_parallel_threaded(&ivs, threads),
                merge_sequential(&ivs)
            );
        }

        #[test]
        fn prop_merged_is_disjoint_sorted_and_covers(
            raw in prop::collection::vec((0u64..2000, 1u64..30), 1..200)
        ) {
            let ivs: Vec<Interval> =
                raw.iter().map(|&(s, l)| iv(s, s + l)).collect();
            let merged = merge_parallel(&ivs);
            // Sorted and strictly separated (no two mergeable).
            for w in merged.windows(2) {
                prop_assert!(w[0].end < w[1].start);
            }
            // Every input point is covered.
            for orig in &ivs {
                prop_assert!(merged.iter().any(|m|
                    m.start <= orig.start && orig.end <= m.end));
            }
            // Coverage never exceeds the input's address span.
            let total: u64 = covered_bytes(&merged);
            let naive: u64 = ivs.iter().map(Interval::len).sum();
            prop_assert!(total <= naive);
        }
    }
}
