//! Smoke test of the whole benchmark in `--quick` mode: the full set
//! twice with one seed and once with another. No timing is asserted —
//! only that every name `BENCHMARK.json` lists is emitted, that what
//! must repeat exactly does, that what the seed must move moves, and
//! that a corrupted result trips the gates.

use fpisa_benchmark::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use fpisa_benchmark::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_fpisa-benchmark");

/// End-to-end metrics that are a pure function of `--seed`.
const EXACT_END_TO_END: [&str; 2] = ["accuracy_bits_mean", "wire_bytes_per_elem"];

fn full_set(seed: u64, tag: &str) -> Value {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}.json"));
    let status = Command::new(EXE)
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.02",
            "--quick",
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("spawn the benchmark");
    assert!(
        status.success(),
        "full set (seed {seed}) exited with {status}"
    );
    json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap()
}

fn value(doc: &Value, workload: &str, group: &str, metric: &str) -> f64 {
    let entry = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(group))
        .and_then(|g| g.get(metric))
        .unwrap_or_else(|| panic!("{workload}/{group}/{metric} was not emitted"));
    let values = entry.get("values").and_then(Value::as_arr).unwrap();
    assert_eq!(values.len(), 1, "one set, one value");
    values[0].as_f64().unwrap()
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(
        on_disk,
        catalog::benchmark_json(),
        "BENCHMARK.json differs from `fpisa-benchmark describe`"
    );
    let keys: Vec<&str> = on_disk
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn quick_sets_emit_every_name_repeat_exactly_and_follow_the_seed() {
    let a = full_set(7, "a");
    let b = full_set(7, "b");
    let c = full_set(8, "c");

    for w in &WORKLOADS {
        assert!(name_ok(w.name));
        for doc in [&a, &b, &c] {
            let entry = doc.get("workloads").and_then(|x| x.get(w.name)).unwrap();
            assert_eq!(
                entry.get("correct").and_then(Value::as_bool),
                Some(true),
                "{}",
                w.name
            );
            assert_eq!(
                entry.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{}",
                w.name
            );
            assert!(entry.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            // Nothing is emitted that the catalogue does not list.
            for (group, listed) in [
                ("end_to_end", END_TO_END.len()),
                ("per_layer", PER_LAYER.len()),
            ] {
                assert_eq!(entry.get(group).unwrap().as_obj().unwrap().len(), listed);
            }
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name));
            let (va, vb) = (
                value(&a, w.name, "end_to_end", m.name),
                value(&b, w.name, "end_to_end", m.name),
            );
            assert!(
                va.is_finite() && va != 0.0,
                "{}/{} must never read 0",
                w.name,
                m.name
            );
            if EXACT_END_TO_END.contains(&m.name) {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "{}/{} must repeat exactly",
                    w.name,
                    m.name
                );
            }
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name));
            let (va, vb) = (
                value(&a, w.name, "per_layer", m.name),
                value(&b, w.name, "per_layer", m.name),
            );
            assert!(va.is_finite());
            if m.kind.exact_repeat() {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "{}/{} must repeat exactly",
                    w.name,
                    m.name
                );
            }
        }
    }

    // What the seed must move, it moves on at least one workload.
    let moved = |group: &str, metric: &str| {
        WORKLOADS
            .iter()
            .any(|w| value(&a, w.name, group, metric) != value(&c, w.name, group, metric))
    };
    for name in EXACT_END_TO_END {
        assert!(moved("end_to_end", name), "{name} ignores the seed");
    }
    for m in PER_LAYER.iter().filter(|m| m.seed_dependent) {
        assert!(moved("per_layer", m.name), "{} ignores the seed", m.name);
    }

    // The relations the README states between rows.
    for w in &WORKLOADS {
        let is_netsim = w.name.starts_with("netsim");
        let share = value(&a, w.name, "per_layer", "agg.pool.accept_share");
        if is_netsim {
            assert!(share < 1.0 && value(&a, w.name, "per_layer", "agg.pool.duplicates") > 0.0);
            assert_eq!(value(&a, w.name, "end_to_end", "accuracy_bits_mean"), 53.0);
        } else {
            assert_eq!(share, 1.0, "{}: every packet accepted", w.name);
            assert_eq!(value(&a, w.name, "per_layer", "bench.share_sim"), 0.0);
        }
        assert_eq!(value(&a, w.name, "per_layer", "bench.failed_share"), 0.0);
    }
    assert!(
        value(
            &a,
            "allreduce_switchml_pkt",
            "end_to_end",
            "wire_bytes_per_elem"
        ) > value(
            &a,
            "allreduce_fp16_pkt",
            "end_to_end",
            "wire_bytes_per_elem"
        ),
        "FP16 on the wire is narrower than int32"
    );

    // The result files feed `compare`.
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(EXE)
        .arg("compare")
        .arg(tmp.join("smoke-a.json"))
        .arg(tmp.join("smoke-b.json"))
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(
        table.contains("accuracy_bits_mean") && table.contains("same"),
        "{table}"
    );
}

#[test]
fn a_corrupted_result_fails_the_run() {
    for (workload, trace) in [("allreduce_fp16_batch2", "0"), ("netsim_fp16_loss10", "1")] {
        let out = Command::new(EXE)
            .args(["--workload", workload, "--seed", "3", "--seconds", "0.02"])
            .args(["--trace", trace, "--quick", "--inject-fault"])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{workload}: a failed op is a failed run"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let doc = json::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
        if trace == "1" {
            let share = doc
                .get("metrics")
                .and_then(|m| m.get("bench.failed_share"))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap();
            assert!(share > 0.0, "failed_share must rise");
        }
    }
}

#[test]
fn bad_command_lines_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "allreduce_fp16_pkt"][..],
        &["--workload", "nope", "--seed", "1", "--quick"],
        &["--seed", "x"],
        &["--seed", "1", "--seconds", "0"],
        &["--seed", "1", "--trace", "2"],
        &["compare", "only-one.json"],
    ] {
        let out = Command::new(EXE).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
