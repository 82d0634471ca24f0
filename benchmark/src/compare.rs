//! `vexbench compare A.jsonl B.jsonl`: the two-sided comparison of
//! choosing-metrics §8.
//!
//! Each file holds one result document per line, as `--out` appends
//! them; line `i` of A and line `i` of B form pair `i`, so run the two
//! commits alternately. For every (workload, metric) both sets measured,
//! the table gives each side's median and quartiles, how many pairs B
//! won, and a verdict: `better` or `worse` only when one side wins at
//! least nine pairs in ten (ties count for neither) and the medians
//! differ by more than A's interquartile range; otherwise `unresolved`.
//! Rows of metrics with a bound in `BENCHMARK.json` also say when B's
//! median is worse than A's by more than that bound.

use crate::stats::quartiles;
use crate::{field, number, Catalogue};
use serde_json::Value;
use std::collections::BTreeMap;

/// (workload, metric) → (value, higher is better), for one result
/// document.
type Sample = BTreeMap<(String, String), (f64, bool)>;

fn load(path: &str) -> Result<Vec<Sample>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc =
            serde_json::value_from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let runs = field(&doc, "runs")
            .and_then(Value::as_array)
            .ok_or(format!("{path}:{}: no runs", n + 1))?;
        let mut sample = Sample::new();
        for run in runs {
            let workload = field(run, "workload").and_then(Value::as_str).unwrap_or_default();
            for (name, m) in
                field(run, "metrics").and_then(Value::as_object).unwrap_or_default()
            {
                let higher = field(m, "better").and_then(Value::as_str) == Some("higher");
                if let Some(v) = field(m, "value").and_then(number) {
                    sample.insert((workload.to_owned(), name.clone()), (v, higher));
                }
            }
        }
        out.push(sample);
    }
    Ok(out)
}

/// The §8 verdict for one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B wins ≥ 9/10 of pairs by more than A's spread.
    Better,
    /// A wins ≥ 9/10 of pairs by more than A's spread.
    Worse,
    /// Neither.
    Unresolved,
}

/// Applies the §8 rule to paired values (`a[i]`, `b[i]`).
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool) -> Verdict {
    let n = a.len().min(b.len());
    if n == 0 {
        return Verdict::Unresolved;
    }
    let b_better = |x: f64, y: f64| if lower_is_better { y < x } else { y > x };
    let wins_b = (0..n).filter(|&i| b_better(a[i], b[i])).count();
    let wins_a = (0..n).filter(|&i| b_better(b[i], a[i])).count();
    let (q1, med_a, q3) = quartiles(&a[..n]);
    let (_, med_b, _) = quartiles(&b[..n]);
    let resolved = (med_b - med_a).abs() > q3 - q1;
    if resolved && wins_b * 10 >= 9 * n {
        Verdict::Better
    } else if resolved && wins_a * 10 >= 9 * n {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

/// Runs the subcommand.
pub fn run(args: &[String], catalogue: &Catalogue) -> Result<(), String> {
    let [a, b] = args else { return Err("compare takes two result files".into()) };
    let (a, b) = (load(a)?, load(b)?);
    let n = a.len().min(b.len());
    if n == 0 {
        return Err("both result files need at least one run".into());
    }
    println!("pairs: {n}{}", if n < 10 { " (the rule wants at least 10)" } else { "" });
    println!(
        "{:<14} {:<28} {:>12} {:>25} {:>12} {:>25} {:>7} {:>8}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "B wins",
        "change"
    );
    for (key, &(_, higher)) in a[0].iter().filter(|(k, _)| b[0].contains_key(*k)) {
        let pick = |set: &[Sample]| -> Option<Vec<f64>> {
            set[..n].iter().map(|s| s.get(key).map(|v| v.0)).collect()
        };
        let (Some(va), Some(vb)) = (pick(&a), pick(&b)) else { continue };
        let (a1, am, a3) = quartiles(&va);
        let (b1, bm, b3) = quartiles(&vb);
        let wins =
            (0..n).filter(|&i| if higher { vb[i] > va[i] } else { vb[i] < va[i] }).count();
        let change = if bm == am { 0.0 } else { (bm - am) / am.abs() };
        let worse_by = if higher { -change } else { change };
        let bound = match catalogue.find(&key.1).and_then(|d| d.bound) {
            Some(bound) if worse_by > bound => {
                format!(", beyond the {:.0}% bound", bound * 100.0)
            }
            _ => String::new(),
        };
        println!(
            "{:<14} {:<28} {am:>12.4} {:>25} {bm:>12.4} {:>25} {:>7} {:>+7.1}%  {:?}{bound}",
            key.0,
            key.1,
            format!("[{a1:.4}, {a3:.4}]"),
            format!("[{b1:.4}, {b3:.4}]"),
            format!("{wins}/{n}"),
            change * 100.0,
            verdict(&va, &vb, !higher),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_needs_nine_in_ten_and_a_gap_beyond_the_spread() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = a.iter().map(|x| x - 10.0).collect();
        assert_eq!(verdict(&a, &faster, true), Verdict::Better);
        assert_eq!(verdict(&a, &faster, false), Verdict::Worse);
        // Eight wins in ten is not enough.
        let mut mostly = faster.clone();
        mostly[0] = 200.0;
        mostly[1] = 200.0;
        assert_eq!(verdict(&a, &mostly, true), Verdict::Unresolved);
        // Always ahead, but by less than A's own spread.
        let close: Vec<f64> = a.iter().map(|x| x - 0.1).collect();
        assert_eq!(verdict(&a, &close, true), Verdict::Unresolved);
        assert_eq!(verdict(&a, &a, true), Verdict::Unresolved);
    }
}
