//! Command line of the repo benchmark.
//!
//! ```text
//! fpisa-benchmark --workload W --seed N --seconds S --trace 0|1   one run (driver contract)
//! fpisa-benchmark --seed N [--seconds S] [--sets K] [--quick]      the full set, every workload
//! fpisa-benchmark compare <parent.json> <change.json>
//! fpisa-benchmark describe                                         print BENCHMARK.json
//! ```
//!
//! `--quick` shrinks every window (names and exact-repeat values only);
//! `--inject-fault` corrupts one op's result to show the gates trip.

use fpisa_benchmark::catalog::{self, Kind, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use fpisa_benchmark::json::{self, Value};
use fpisa_benchmark::run::{self, RunCfg};
use fpisa_benchmark::{compare, stats};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    inject_fault: bool,
    sets: usize,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        inject_fault: false,
        sets: 1,
        out: None,
    };
    let mut seeded = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
                seeded = true;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number in (0, 3600]")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--sets" => {
                args.sets = value()?
                    .parse()
                    .ok()
                    .filter(|k| (1..=100).contains(k))
                    .ok_or("--sets takes a whole number in 1..=100")?;
            }
            "--out" => args.out = Some(value()?.clone()),
            "--quick" => args.quick = true,
            "--inject-fault" => args.inject_fault = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !seeded {
        return Err("--seed is required: the inputs are made from it".into());
    }
    Ok(args)
}

/// One run in this process; the last line of stdout is the result.
fn single(workload: &str, args: &Args) -> Result<bool, String> {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        inject_fault: args.inject_fault,
    };
    let result = run::run(workload, &cfg, args.trace)?;
    if let Some(detail) = &result.detail {
        eprintln!("{workload}: {detail}");
    }
    println!("{}", result.to_json().render());
    Ok(result.correct)
}

/// Run one workload in a child process (so `peak_rss_mib` is the
/// workload's own) and parse the line it prints.
fn child(workload: &str, args: &Args, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: the run printed nothing ({})", output.status))?;
    json::parse(line).map_err(|e| format!("{workload}: {e}"))
}

/// The full set: every workload timed and traced, `--sets` times over,
/// interleaved so slow drift on the host lands on every workload.
fn full_set(args: &Args) -> Result<bool, String> {
    struct Row {
        group: &'static str,
        name: &'static str,
        unit: &'static str,
        kind: &'static str,
        values: Vec<f64>,
    }
    struct Outcome {
        workload: &'static str,
        rows: Vec<Row>,
        attempted: u64,
        failed: u64,
        correct: bool,
    }
    let mut table: Vec<Outcome> = WORKLOADS
        .iter()
        .map(|w| {
            let e2e = END_TO_END.iter().map(|m| Row {
                group: "end_to_end",
                name: m.name,
                unit: m.unit,
                kind: Kind::Measured.as_str(),
                values: vec![],
            });
            let layers = PER_LAYER.iter().map(|m| Row {
                group: "per_layer",
                name: m.name,
                unit: m.unit,
                kind: m.kind.as_str(),
                values: vec![],
            });
            Outcome {
                workload: w.name,
                rows: e2e.chain(layers).collect(),
                attempted: 0,
                failed: 0,
                correct: true,
            }
        })
        .collect();
    for set in 0..args.sets {
        for o in &mut table {
            let workload = o.workload;
            for trace in [false, true] {
                eprintln!(
                    "set {}/{}: {workload} ({})",
                    set + 1,
                    args.sets,
                    if trace { "traced" } else { "timed" }
                );
                let doc = child(workload, args, trace)?;
                o.attempted += doc.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                o.failed += doc.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                o.correct &= doc.get("correct").and_then(Value::as_bool).unwrap_or(false);
                let group = if trace { "per_layer" } else { "end_to_end" };
                for row in o.rows.iter_mut().filter(|r| r.group == group) {
                    let value = doc
                        .get("metrics")
                        .and_then(|m| m.get(row.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{workload}: metric {} missing", row.name))?;
                    row.values.push(value);
                }
            }
        }
    }

    for o in &table {
        println!(
            "\n== {}: attempted {}, failed {}, correct {}",
            o.workload, o.attempted, o.failed, o.correct
        );
        for row in &o.rows {
            println!(
                "{:<44} {:>18.6} {:<7} spread {:>6.2}%  [{}]",
                row.name,
                stats::median(&row.values),
                row.unit,
                100.0 * stats::spread(&row.values),
                row.kind
            );
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Value::obj([
        ("schema", Value::str("fpisa-benchmark/v1")),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("sets", Value::Num(args.sets as f64)),
        ("quick", Value::Bool(args.quick)),
        ("host_cores", Value::Num(cores as f64)),
        ("claim", Value::Null),
        (
            "workloads",
            Value::obj(table.iter().map(|o| {
                let group = |g: &str| {
                    Value::obj(o.rows.iter().filter(|r| r.group == g).map(|r| {
                        (
                            r.name,
                            Value::obj([
                                ("unit", Value::str(r.unit)),
                                ("kind", Value::str(r.kind)),
                                (
                                    "values",
                                    Value::Arr(r.values.iter().map(|&v| Value::Num(v)).collect()),
                                ),
                            ]),
                        )
                    }))
                };
                (
                    o.workload,
                    Value::obj([
                        ("attempted", Value::Num(o.attempted as f64)),
                        ("failed", Value::Num(o.failed as f64)),
                        ("correct", Value::Bool(o.correct)),
                        ("end_to_end", group("end_to_end")),
                        ("per_layer", group("per_layer")),
                    ]),
                )
            })),
        ),
    ]);
    let path = match &args.out {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let dir = run::out_dir();
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            dir.join("result.json")
        }
    };
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(table.iter().all(|o| o.correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [parent, change] => compare::main(parent, change).map(|worse| !worse),
            _ => Err("usage: compare <parent.json> <change.json>".into()),
        },
        Some("describe") => {
            print!("{}", catalog::benchmark_json().render_pretty());
            Ok(true)
        }
        _ => parse_args(&argv).and_then(|args| match &args.workload {
            Some(w) => single(w, &args),
            None => full_set(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fpisa-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
