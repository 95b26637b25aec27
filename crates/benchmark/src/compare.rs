//! `compare A.jsonl B.jsonl`: a paired, noise-aware decision rule applied
//! to every metric × workload, A being the parent commit and B the
//! change.
//!
//! The i-th run of a workload in A is paired with the i-th run of the
//! same workload (and trace mode) in B, so the files should come from
//! alternating the two builds. Per pair:
//!
//! * **improved** — B reads better in at least 9/10 of at least 10 pairs
//!   and the medians differ by more than A's interquartile range;
//! * **unresolved** — fewer than 10 pairs, or A's own spread (IQR over
//!   median) is wider than the metric's bound, unless every run of B
//!   reads better than every run of A;
//! * **regressed** — B's median is worse than A's by more than the bound
//!   `BENCHMARK.json` fixes (per-layer metrics have none: for them, A
//!   winning 9/10 pairs by more than its IQR);
//! * **unchanged** — otherwise.

use crate::metrics::Better;
use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs needed before any verdict but "unresolved".
const MIN_PAIRS: usize = 10;

/// Judge B against A on one metric. `bound` is the share of A's median by
/// which B may read worse (`None` for per-layer metrics).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let n = a.len().min(b.len());
    if n < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let (a, b) = (&a[..n], &b[..n]);
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| better.beats(**y, **x))
        .count();
    let losses = a
        .iter()
        .zip(b)
        .filter(|(x, y)| better.beats(**x, **y))
        .count();
    let (ma, mb) = (median(a).expect("n > 0"), median(b).expect("n > 0"));
    let (q1, q3) = quartiles(a).expect("n >= 2");
    let iqr = q3 - q1;
    let gap = (mb - ma).abs();
    if wins * 10 >= 9 * n && gap > iqr && better.beats(mb, ma) {
        return Verdict::Improved;
    }
    match bound {
        Some(bound) => {
            let all_better = b.iter().all(|y| a.iter().all(|x| better.beats(*y, *x)));
            if ma != 0.0 && iqr / ma.abs() > bound && !all_better {
                return Verdict::Unresolved;
            }
            let worse_by = match better {
                Better::Lower => mb - ma,
                Better::Higher => ma - mb,
            };
            if worse_by > bound * ma.abs() {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            }
        }
        None if losses * 10 >= 9 * n && gap > iqr => Verdict::Regressed,
        None => Verdict::Unchanged,
    }
}

/// `(workload, trace) → metric → values in run order`.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn load_runs(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec: Value =
            serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload = rec["workload"].as_str().ok_or("record without workload")?;
        let trace = rec["trace"].as_bool().unwrap_or(false);
        let Value::Map(metrics) = &rec["metrics"] else {
            return Err(format!(
                "{}:{}: record without metrics",
                path.display(),
                i + 1
            ));
        };
        let per = runs.entry((workload.to_string(), trace)).or_default();
        for (name, m) in metrics {
            if let Some(v) = m["value"].as_f64() {
                per.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// The bound of every metric `BENCHMARK.json` lists (`None` for the
/// per-layer metrics, which have none).
fn load_bounds() -> Result<BTreeMap<String, Option<f64>>, String> {
    let path = Path::new(crate::REPO_ROOT).join("BENCHMARK.json");
    let path = path.display();
    let text = std::fs::read_to_string(path.to_string()).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc[key].as_array().into_iter().flatten() {
            let name = m["name"]
                .as_str()
                .ok_or_else(|| format!("{path}: {key} entry without a name"))?;
            out.insert(name.to_string(), m["bound"].as_f64());
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: han-benchmark compare A.jsonl B.jsonl");
        return 2;
    };
    let loaded =
        load_bounds().and_then(|c| Ok((c, load_runs(Path::new(a))?, load_runs(Path::new(b))?)));
    let (bounds, ra, rb) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("han-benchmark compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<12} {:<5} {:<40} {:>5} {:>14} {:>12} {:>14} {:>6}  verdict",
        "workload", "trace", "metric", "pairs", "median A", "IQR A", "median B", "wins"
    );
    let mut regressed = false;
    for ((workload, trace), metrics) in &ra {
        let Some(other) = rb.get(&(workload.clone(), *trace)) else {
            continue;
        };
        for (name, va) in metrics {
            let (Some(vb), Some(m), Some(&bound)) = (
                other.get(name),
                crate::metrics::find(name),
                bounds.get(name),
            ) else {
                continue;
            };
            let better = m.better;
            let v = verdict(va, vb, better, bound);
            regressed |= v == Verdict::Regressed;
            let n = va.len().min(vb.len());
            let iqr = quartiles(&va[..n]).map_or(f64::NAN, |(q1, q3)| q3 - q1);
            let wins = va[..n]
                .iter()
                .zip(&vb[..n])
                .filter(|(x, y)| better.beats(**y, **x))
                .count();
            println!(
                "{workload:<12} {:<5} {name:<40} {n:>5} {:>14.6} {iqr:>12.6} {:>14.6} {wins:>6}  {}",
                trace,
                median(&va[..n]).unwrap_or(f64::NAN),
                median(&vb[..n]).unwrap_or(f64::NAN),
                v.label()
            );
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..12).map(|i| base + step * (i % 4) as f64).collect()
    }

    #[test]
    fn consistent_gain_beyond_the_spread_is_a_win() {
        let a = runs(100.0, 1.0); // 100..103, IQR ≈ 2
        let b = runs(90.0, 1.0);
        assert_eq!(
            verdict(&a, &b, Better::Lower, Some(0.05)),
            Verdict::Improved
        );
        // The same numbers read as a loss when higher is better.
        assert_eq!(
            verdict(&a, &b, Better::Higher, Some(0.05)),
            Verdict::Regressed
        );
    }

    #[test]
    fn worse_by_more_than_the_bound_regresses() {
        let a = runs(100.0, 0.5);
        let b = runs(110.0, 0.5);
        assert_eq!(
            verdict(&a, &b, Better::Lower, Some(0.05)),
            Verdict::Regressed
        );
        // Within a 15% bound it is merely unchanged.
        assert_eq!(
            verdict(&a, &b, Better::Lower, Some(0.15)),
            Verdict::Unchanged
        );
        // Per-layer metrics (no bound) regress when A wins 9/10 pairs.
        assert_eq!(verdict(&a, &b, Better::Lower, None), Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = runs(100.0, 10.0); // IQR/median ≈ 0.2
        let b = runs(101.0, 10.0);
        assert_eq!(
            verdict(&a, &b, Better::Lower, Some(0.05)),
            Verdict::Unresolved
        );
        // Unless every run of B beats every run of A.
        let b = runs(50.0, 1.0);
        assert_eq!(
            verdict(&a, &b, Better::Lower, Some(0.05)),
            Verdict::Improved
        );
        // Too few pairs is never resolved.
        assert_eq!(
            verdict(&a[..9], &b[..9], Better::Lower, Some(0.5)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn identical_runs_are_unchanged() {
        let a = runs(100.0, 1.0);
        assert_eq!(
            verdict(&a, &a, Better::Lower, Some(0.03)),
            Verdict::Unchanged
        );
        let exact = vec![7.0; 10];
        assert_eq!(
            verdict(&exact, &exact, Better::Lower, Some(0.001)),
            Verdict::Unchanged
        );
    }
}
