//! Regenerates **Figure 4**'s performance story quickly: real wall-clock
//! of the three interval-merge implementations across sizes and layouts
//! (the Criterion bench `interval_merge` gives the rigorous version).
//!
//! Writes `results/figure4.json`.

use serde::Serialize;
use std::time::Instant;
use vex_bench::write_json;
use vex_trace::interval::{
    covered_bytes, merge_parallel, merge_parallel_threaded, merge_sequential, Interval,
};

#[derive(Serialize)]
struct Row {
    layout: String,
    intervals: usize,
    merged: usize,
    sequential_ms: f64,
    parallel_alg_ms: f64,
    threaded4_ms: f64,
}

fn coalesced(n: usize) -> Vec<Interval> {
    (0..n as u64).map(|i| Interval::new(i * 4, i * 4 + 4)).collect()
}

fn strided(n: usize) -> Vec<Interval> {
    (0..n as u64).map(|i| Interval::new(i * 64, i * 64 + 4)).collect()
}

fn random_overlap(n: usize) -> Vec<Interval> {
    let mut x = 0x9E3779B97F4A7C15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let start = x % (n as u64 * 8);
            Interval::new(start, start + 1 + (x >> 48) % 128)
        })
        .collect()
}

fn time_ms(f: impl Fn() -> Vec<Interval>) -> (f64, Vec<Interval>) {
    // Warm once, then take the best of 3 (stable without Criterion).
    let mut best = f64::INFINITY;
    let mut out = f();
    for _ in 0..3 {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

fn main() {
    println!("Figure 4: interval merging implementations (wall-clock, best of 3)");
    println!(
        "{:<10} {:>10} {:>10} {:>14} {:>14} {:>12}",
        "layout", "intervals", "merged", "sequential ms", "parallel ms", "4-thread ms"
    );
    let mut rows = Vec::new();
    for &n in &[50_000usize, 200_000, 800_000] {
        for (layout, data) in [
            ("coalesced", coalesced(n)),
            ("strided", strided(n)),
            ("random", random_overlap(n)),
        ] {
            let (seq_ms, expect) = time_ms(|| merge_sequential(&data));
            let (par_ms, got_par) = time_ms(|| merge_parallel(&data));
            let (thr_ms, got_thr) = time_ms(|| merge_parallel_threaded(&data, 4));
            assert_eq!(got_par, expect, "parallel algorithm must agree");
            assert_eq!(got_thr, expect, "threaded execution must agree");
            println!(
                "{:<10} {:>10} {:>10} {:>14.2} {:>14.2} {:>12.2}",
                layout,
                n,
                expect.len(),
                seq_ms,
                par_ms,
                thr_ms
            );
            rows.push(Row {
                layout: layout.to_owned(),
                intervals: n,
                merged: expect.len(),
                sequential_ms: seq_ms,
                parallel_alg_ms: par_ms,
                threaded4_ms: thr_ms,
            });
            let _ = covered_bytes(&expect);
        }
    }
    println!(
        "\nthe data-parallel algorithm's win on real GPUs comes from thousands \
         of lanes; here the 4-thread execution shows the scaling trend while \
         the single-thread run of the same steps shows the algorithm's \
         constant-factor cost."
    );
    write_json("figure4", &rows);
}
