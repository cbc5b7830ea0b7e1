//! `compare <parent.json> <change.json>`: two result files of the full
//! set (see `main.rs`), metric by metric — parent median, change median,
//! how much worse the change reads, the bound, and a verdict.

use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, Value};
use crate::stats::{median, spread};
use std::fmt::Write as _;

/// What a pair of samples says about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound and the two sides
    /// overlap: neither a regression nor its absence is shown.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of the parent's median by which the change's median is worse
/// (negative: better).
pub fn worse_by(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let (a, b) = (median(parent), median(change));
    if a == 0.0 {
        return if a == b {
            0.0
        } else {
            f64::INFINITY.copysign(b - a)
        };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The rule of the choosing-metrics guide, §6 step 5 and §8.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let delta = worse_by(parent, change, better);
    let wide = spread(parent).max(spread(change)) > bound;
    // A gain must clear the parent's own run-to-run spread; one run
    // shows no spread, so there it must clear the bound instead.
    let noise = if parent.len() < 2 {
        bound
    } else {
        spread(parent)
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let every_pair = |change_wins: bool| {
        change.iter().all(|&b| {
            parent.iter().all(|&a| {
                if change_wins {
                    beats(b, a)
                } else {
                    beats(a, b)
                }
            })
        })
    };
    if wide {
        if every_pair(true) {
            Verdict::Better
        } else if delta > bound && every_pair(false) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if delta > bound {
        Verdict::Worse
    } else if delta < 0.0 && -delta > noise {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn values(doc: &Value, workload: &str, group: &str, metric: &str) -> Option<Vec<f64>> {
    let vals = doc
        .get("workloads")?
        .get(workload)?
        .get(group)?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    let v: Vec<f64> = vals.iter().filter_map(Value::as_f64).collect();
    (!v.is_empty() && v.len() == vals.len()).then_some(v)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some("fpisa-benchmark/v1") => Ok(doc),
        other => Err(format!("{path}: not a result file (schema {other:?})")),
    }
}

/// Render the comparison table. Returns the text and whether any
/// end-to-end metric reads worse.
pub fn compare(parent: &Value, change: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<24} {:<44} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "parent", "change", "worse by", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                values(parent, w.name, "end_to_end", m.name),
                values(change, w.name, "end_to_end", m.name),
            ) else {
                let _ = writeln!(out, "{:<24} {:<44} missing on one side", w.name, m.name);
                continue;
            };
            let v = verdict(&a, &b, m.better, m.bound);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<24} {:<44} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}",
                w.name,
                m.name,
                median(&a),
                median(&b),
                100.0 * worse_by(&a, &b, m.better),
                100.0 * m.bound,
                v.as_str()
            );
        }
        // Per-layer rows carry no bound: they locate a change, they do
        // not judge it.
        for m in PER_LAYER {
            if let (Some(a), Some(b)) = (
                values(parent, w.name, "per_layer", m.name),
                values(change, w.name, "per_layer", m.name),
            ) {
                let _ = writeln!(
                    out,
                    "{:<24} {:<44} {:>14.6} {:>14.6} {:>8.2}% {:>7}  -",
                    w.name,
                    m.name,
                    median(&a),
                    median(&b),
                    100.0 * worse_by(&a, &b, m.better),
                    "-"
                );
            }
        }
    }
    (out, any_worse)
}

/// The `compare` subcommand: exit code 1 when an end-to-end metric is
/// worse by more than its bound.
pub fn main(parent: &str, change: &str) -> Result<bool, String> {
    let (text, any_worse) = compare(&load(parent)?, &load(change)?);
    print!("{text}");
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up = |k: f64| tight.map(|x| x * k);
        // Lower is better, bound 5%.
        assert_eq!(
            verdict(&tight, &up(1.08), Better::Lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&tight, &up(1.02), Better::Lower, 0.05),
            Verdict::Same
        );
        assert_eq!(
            verdict(&tight, &up(0.90), Better::Lower, 0.05),
            Verdict::Better
        );
        // Higher is better: the same data reads the other way round.
        assert_eq!(
            verdict(&tight, &up(0.92), Better::Higher, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&tight, &up(1.10), Better::Higher, 0.05),
            Verdict::Better
        );
        // Spread wider than the bound and overlapping sides: unresolved.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            verdict(&noisy, &noisy.map(|x| x * 1.08), Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every run of the parent.
        assert_eq!(
            verdict(&noisy, &noisy.map(|x| x * 0.5), Better::Lower, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(&noisy, &noisy.map(|x| x * 2.0), Better::Lower, 0.05),
            Verdict::Worse
        );
        // Exact-repeat values: any change is resolved.
        assert_eq!(verdict(&[2.5], &[2.5], Better::Lower, 0.05), Verdict::Same);
        assert_eq!(verdict(&[2.5], &[3.0], Better::Lower, 0.05), Verdict::Worse);
        // One run a side: a gain must clear the bound to count.
        assert_eq!(verdict(&[2.5], &[2.45], Better::Lower, 0.05), Verdict::Same);
        assert_eq!(
            verdict(&[2.5], &[2.0], Better::Lower, 0.05),
            Verdict::Better
        );
    }

    #[test]
    fn compare_reads_result_documents() {
        let doc = |v: f64| {
            Value::obj([(
                "workloads",
                Value::obj(WORKLOADS.iter().map(|w| {
                    (
                        w.name,
                        Value::obj([(
                            "end_to_end",
                            Value::obj(END_TO_END.iter().map(|m| {
                                (
                                    m.name,
                                    Value::obj([("values", Value::Arr(vec![Value::Num(v)]))]),
                                )
                            })),
                        )]),
                    )
                })),
            )])
        };
        let (text, worse) = compare(&doc(10.0), &doc(10.0));
        assert!(!worse);
        assert_eq!(text.lines().count(), 1 + WORKLOADS.len() * END_TO_END.len());
        let (text, worse) = compare(&doc(10.0), &doc(20.0));
        assert!(worse, "lower-is-better metrics doubled");
        assert!(text.contains("worse") && text.contains("better"));
    }
}
