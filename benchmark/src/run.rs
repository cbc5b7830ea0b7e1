//! One benchmark run: set up a workload from `--seed`, check its
//! outputs, measure for `--seconds`, report.
//!
//! A *timed* run (`--trace 0`) reports the end-to-end metrics with
//! tracing off. A *traced* run (`--trace 1`) reports the per-layer
//! metrics: the selected workload's op re-created layer by layer under
//! spans, alternated with the untraced op (their difference is the
//! tracing overhead), then the workload-independent ledger rungs.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::ledger::{self, ProbeCfg};
use crate::scenario::{Allreduce, Netsim, Scenario, Shape, Verified, SETS};
use crate::spans::Tracer;
use crate::stats::{median, percentile, samples_beyond};
use fpisa_agg::{FpisaAggregator, SwitchMlFixedPoint};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Tiny windows, few set-ups: names and exact-repeat values only,
    /// no timing worth reading.
    pub quick: bool,
    /// Corrupt the first measured op's result before it is checked (test
    /// hook: the run must then report a failed op and `correct: false`).
    pub inject_fault: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints as its last line.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// First oracle disagreement or op failure, for the operator.
    pub detail: Option<String>,
}

impl RunResult {
    /// The driver-contract object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Fresh set-ups timed for `setup_s` (the median is reported). A set-up
/// is 1–4 ms, so many are cheap, and the median of few is jumpy.
const SETUPS: usize = 51;
const SETUPS_QUICK: usize = 3;

/// Equal slices of the window whose median throughput is `elems_per_s`:
/// a burst of host interference lands in one or two slices, not in the
/// reported number.
const SLICES: usize = 10;

/// Op-time samples kept per run. The buffer is written once up front so
/// resident memory does not depend on how many ops the window fits.
const SAMPLE_CAP: usize = 1 << 16;

/// Share of a traced run's window spent alternating traced and untraced
/// ops; the rest is split evenly over the ledger's probes.
const TRACE_WINDOW_SHARE: f64 = 0.3;

/// Ops per block when alternating traced and untraced ops.
const BLOCK_OPS: usize = 2 * SETS;

/// Ops whose spans are written verbatim to the trace file.
const KEEP_OPS: u64 = SETS as u64;

#[derive(Debug, Clone, Copy)]
struct OpSample {
    /// When the op ended, from the start of the window.
    end_ns: u64,
    /// The op timer.
    ns: u64,
    /// The host-speed probe timed right after the op.
    probe_ns: u64,
}

/// The host-speed probe: a fixed, cache-resident integer kernel (xorshift
/// walk over 8 KiB with an unpredictable branch) that has nothing to do
/// with the library. On the shared reference host, op times drift by
/// 10–25% for minutes at a time (a neighbour on the sibling hyperthread);
/// the probe drifts with them, so an op time *divided by the probe timed
/// right after it* (`op_rel_p50`, `op_rel_p90`) holds a three times
/// tighter spread than the op time itself. It is a ruler for comparing two commits on one
/// workload, not a physical quantity: its reading also depends on what
/// the preceding op left in the core, so it does not compare workloads.
pub struct HostProbe {
    state: Vec<u64>,
}

impl HostProbe {
    const WORDS: usize = 1 << 10;
    const WARM_STEPS: usize = 2_000;
    const STEPS: usize = 15_000;

    pub fn new() -> Self {
        HostProbe {
            state: vec![1; Self::WORDS],
        }
    }

    fn walk(&mut self, steps: usize) -> u64 {
        let mask = Self::WORDS - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & mask;
            self.state[j] = self.state[j].wrapping_add(x);
            if x & 3 == 0 {
                acc ^= self.state[(j * 7) & mask];
            } else {
                acc = acc.wrapping_add(self.state[(j + 1) & mask] >> 3);
            }
        }
        acc
    }

    /// Nanoseconds one probe takes right now (≈ 50 µs on the reference
    /// host), after an untimed pass that pulls its state back into L1.
    pub fn read_ns(&mut self) -> u64 {
        std::hint::black_box(self.walk(Self::WARM_STEPS));
        let t = Instant::now();
        std::hint::black_box(self.walk(Self::STEPS));
        (t.elapsed().as_nanos() as u64).max(1)
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// Failure accounting shared by both run kinds.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    detail: Option<String>,
}

impl Tally {
    fn verification(&mut self, v: &Verified) {
        self.attempted += SETS as u64;
        if !v.ok {
            self.failed += SETS as u64;
            self.detail = self.detail.take().or_else(|| v.detail.clone());
        }
    }

    fn op<T>(
        &mut self,
        outcome: Result<(T, u64), String>,
        ok: impl FnOnce(&T) -> bool,
    ) -> Option<u64> {
        self.attempted += 1;
        match outcome {
            Ok((out, ns)) if ok(&out) => return Some(ns),
            Ok(_) => {
                self.failed += 1;
                self.detail
                    .get_or_insert_with(|| "an op's result differs from the verified one".into());
            }
            Err(e) => {
                self.failed += 1;
                self.detail.get_or_insert(e);
            }
        }
        None
    }
}

/// Run one workload.
pub fn run(workload: &str, cfg: &RunCfg, trace: bool) -> Result<RunResult, String> {
    let seed = cfg.seed;
    match workload {
        "allreduce_fp16_pkt" => go(workload, cfg, trace, || {
            Allreduce::<FpisaAggregator>::setup(Shape::PKT8, seed)
        }),
        "allreduce_fp16_batch2" => go(workload, cfg, trace, || {
            Allreduce::<FpisaAggregator>::setup(Shape::BATCH2, seed)
        }),
        "allreduce_switchml_pkt" => go(workload, cfg, trace, || {
            Allreduce::<SwitchMlFixedPoint>::setup(Shape::PKT8, seed)
        }),
        "netsim_fp16_loss10" => go(workload, cfg, trace, || Netsim::setup(seed)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn go<S: Scenario>(
    workload: &str,
    cfg: &RunCfg,
    trace: bool,
    make: impl Fn() -> Result<S, String>,
) -> Result<RunResult, String> {
    if trace {
        traced(workload, cfg, make)
    } else {
        timed(cfg, make)
    }
}

/// `−log2` of a relative error, capped at the 53 bits an exact `f64`
/// reduction carries, so an exact result reads 53 instead of infinity.
pub fn accuracy_bits(rel_err: f64) -> f64 {
    -rel_err.max(2f64.powi(-53)).log2()
}

fn timed<S: Scenario>(
    cfg: &RunCfg,
    make: impl Fn() -> Result<S, String>,
) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut scenario = None;
    for _ in 0..if cfg.quick { SETUPS_QUICK } else { SETUPS } {
        let t = Instant::now();
        let fresh = make()?;
        setup_s.push(t.elapsed().as_secs_f64());
        scenario = Some(fresh); // the previous set-up drops outside the timer
    }
    let mut s = scenario.expect("at least one set-up");
    let mut tally = Tally::default();
    let v = s.verify()?;
    tally.verification(&v);

    let window = Duration::from_secs_f64(cfg.seconds);
    // Let caches and lazy buffers settle: untimed ops for a twentieth of
    // the window (at most a second), at least one per gradient set.
    let warm = window.div_f64(20.0).min(Duration::from_secs(1));
    let start = Instant::now();
    let mut i = 0usize;
    while i < SETS || start.elapsed() < warm {
        s.run_op(i % SETS)?;
        i += 1;
    }

    let mut samples = vec![
        OpSample {
            end_ns: 1,
            ns: 1,
            probe_ns: 1
        };
        SAMPLE_CAP
    ];
    samples.clear();
    let mut probe = HostProbe::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i < SETS || start.elapsed() < window {
        let set = i % SETS;
        let mut outcome = s.run_op(set);
        let end_ns = start.elapsed().as_nanos() as u64;
        if let (true, 0, Ok((out, _))) = (cfg.inject_fault, i, &mut outcome) {
            S::corrupt(out);
        }
        let probe_ns = probe.read_ns();
        if let Some(ns) = tally.op(outcome, |out| s.check(set, out)) {
            if samples.len() < SAMPLE_CAP {
                samples.push(OpSample {
                    end_ns,
                    ns,
                    probe_ns,
                });
            }
        }
        i += 1;
    }
    if samples.is_empty() {
        return Err(tally.detail.unwrap_or_else(|| "no op completed".into()));
    }

    let span_ns = samples.last().map_or(1, |s| s.end_ns).max(1);
    let mut slice_rates = Vec::with_capacity(SLICES);
    for k in 0..SLICES as u64 {
        let (lo, hi) = (
            span_ns * k / SLICES as u64,
            span_ns * (k + 1) / SLICES as u64,
        );
        let in_slice = samples.iter().filter(|s| s.end_ns > lo && s.end_ns <= hi);
        let (ops, ns) = in_slice.fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.ns));
        if ops > 0 {
            slice_rates.push((ops * s.work()) as f64 / (ns as f64 * 1e-9));
        }
    }
    let mut op_ns: Vec<u64> = samples.iter().map(|s| s.ns).collect();
    op_ns.sort_unstable();
    let mut op_rel: Vec<f64> = samples
        .iter()
        .map(|s| s.ns as f64 / s.probe_ns as f64)
        .collect();
    op_rel.sort_by(f64::total_cmp);

    let values = [
        ("setup_s", median(&setup_s)),
        ("elems_per_s", median(&slice_rates)),
        ("op_us_p50", percentile(&op_ns, 0.5) as f64 / 1e3),
        ("op_rel_p50", percentile(&op_rel, 0.5)),
        ("op_rel_p90", percentile(&op_rel, 0.9)),
        ("accuracy_bits_mean", accuracy_bits(v.rel_err_mean)),
        ("peak_rss_mib", peak_rss_mib()?),
        ("wire_bytes_per_elem", v.wire_bytes_per_elem),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("end-to-end metric {} has no measurement", def.name));
            Metric {
                name: def.name,
                value,
                unit: def.unit,
            }
        })
        .collect();
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail: tally.detail,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn traced<S: Scenario>(
    workload: &str,
    cfg: &RunCfg,
    make: impl Fn() -> Result<S, String>,
) -> Result<RunResult, String> {
    let mut s = make()?;
    let mut tally = Tally::default();
    let v = s.verify()?;
    tally.verification(&v);

    // Alternate blocks of untraced and traced ops, so drift on the shared
    // host lands on both sides of the overhead comparison.
    let window = Duration::from_secs_f64(cfg.seconds * TRACE_WINDOW_SHARE);
    let mut tracer = Tracer::new(KEEP_OPS);
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0usize;
    while plain_ns.len() < SETS || start.elapsed() < window {
        for _ in 0..BLOCK_OPS {
            let set = i % SETS;
            let mut outcome = s.run_op(set);
            if let (true, 0, Ok((out, _))) = (cfg.inject_fault, i, &mut outcome) {
                S::corrupt(out);
            }
            plain_ns.extend(tally.op(outcome, |out| s.check(set, out)));
            i += 1;
        }
        for _ in 0..BLOCK_OPS {
            let set = i % SETS;
            let outcome = s.traced_op(set, &mut tracer);
            tracer.finish_op();
            traced_ns.extend(tally.op(outcome, |out| s.check(set, out)));
            i += 1;
        }
    }
    if plain_ns.is_empty() || traced_ns.is_empty() {
        return Err(tally.detail.unwrap_or_else(|| "no op completed".into()));
    }
    plain_ns.sort_unstable();
    traced_ns.sort_unstable();
    let plain_p50 = percentile(&plain_ns, 0.5) as f64;
    let traced_p50 = percentile(&traced_ns, 0.5) as f64;

    let probe_cfg = if cfg.quick {
        ProbeCfg {
            budget: Duration::ZERO,
            passes: 1,
            min_iters: 1,
        }
    } else {
        let ledger_s = cfg.seconds * (1.0 - TRACE_WINDOW_SHARE);
        ProbeCfg {
            budget: Duration::from_secs_f64(ledger_s / f64::from(ledger::PROBES)),
            passes: ledger::PASSES,
            min_iters: 2,
        }
    };
    let (ledger, net) = ledger::measure(cfg.seed, probe_cfg)?;
    tally.verification(&net);
    let shares = s.shares(tracer.totals(), &ledger);

    let pool_seen = v.pool.accepted
        + v.pool.duplicates
        + v.pool.stale
        + v.pool.future
        + v.pool.malformed
        + v.pool.deregistered;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let own = [
        ("agg.pool.accepted", v.pool.accepted as f64),
        ("agg.pool.duplicates", v.pool.duplicates as f64),
        ("agg.pool.stale", v.pool.stale as f64),
        (
            "agg.pool.accept_share",
            v.pool.accepted as f64 / pool_seen.max(1) as f64,
        ),
        ("agg.stats.overwrites", v.stats.add.overwrites as f64),
        ("agg.stats.rounded", v.stats.add.rounded as f64),
        ("agg.stats.clipped", v.stats.clipped as f64),
        ("agg.rel_err_mean", v.rel_err_mean),
        ("agg.rel_err_max", v.rel_err_max),
        ("bench.share_protocol", shares.protocol),
        ("bench.share_pool", shares.pool),
        ("bench.share_backend", shares.backend),
        ("bench.share_sim", shares.sim),
        ("bench.ledger_residual_share", shares.residual),
        (
            "bench.trace_overhead_share",
            (traced_p50 - plain_p50) / plain_p50,
        ),
        ("bench.op_us_p90", percentile(&plain_ns, 0.9) as f64 / 1e3),
        ("bench.op_us_p99", percentile(&plain_ns, 0.99) as f64 / 1e3),
        ("bench.op_samples", plain_ns.len() as f64),
        (
            "bench.failed_share",
            tally.failed as f64 / tally.attempted as f64,
        ),
        ("bench.host_cores", cores as f64),
    ];
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|def| {
            let value = own
                .iter()
                .find(|(name, _)| *name == def.name)
                .map(|(_, v)| *v)
                .or_else(|| ledger.get(def.name))
                .unwrap_or_else(|| panic!("per-layer metric {} has no measurement", def.name));
            Metric {
                name: def.name,
                value,
                unit: def.unit,
            }
        })
        .collect();

    let result = RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail: tally.detail,
    };
    let beyond_p99 = samples_beyond(plain_ns.len(), 0.99);
    write_trace(workload, cfg, &tracer, &result, beyond_p99)?;
    Ok(result)
}

/// Where the benchmark writes its files: `out/` beside its manifest.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

/// Write the spans kept in memory, the per-name totals and the metrics
/// (each labelled measured / modelled / by-subtraction / count) to
/// `out/trace-<workload>.json`.
fn write_trace(
    workload: &str,
    cfg: &RunCfg,
    tracer: &Tracer,
    result: &RunResult,
    samples_beyond_p99: usize,
) -> Result<(), String> {
    let spans = tracer.kept().iter().map(|s| {
        Value::obj([
            ("name", Value::str(s.name)),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
            ),
            ("op", Value::Num(s.op as f64)),
        ])
    });
    let totals = tracer.totals().iter().map(|(name, a)| {
        (
            *name,
            Value::obj([
                ("count", Value::Num(a.count as f64)),
                ("total_ns", Value::Num(a.total_ns as f64)),
                ("self_ns", Value::Num(a.self_ns as f64)),
            ]),
        )
    });
    let metrics = result.metrics.iter().zip(PER_LAYER).map(|(m, def)| {
        (
            m.name,
            Value::obj([
                ("value", Value::Num(m.value)),
                ("unit", Value::str(m.unit)),
                ("kind", Value::str(def.kind.as_str())),
            ]),
        )
    });
    let doc = Value::obj([
        ("schema", Value::str("fpisa-benchmark-trace/v1")),
        ("workload", Value::str(workload)),
        ("seed", Value::Num(cfg.seed as f64)),
        ("seconds", Value::Num(cfg.seconds)),
        ("traced_ops", Value::Num(tracer.ops() as f64)),
        ("samples_beyond_p99", Value::Num(samples_beyond_p99 as f64)),
        (
            "span_note",
            Value::str(
                "spans of the first ops verbatim; `parent` indexes into the same op's spans",
            ),
        ),
        ("spans", Value::Arr(spans.collect())),
        ("totals", Value::obj(totals)),
        ("metrics", Value::obj(metrics)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_bits_is_finite_and_ordered() {
        assert_eq!(accuracy_bits(0.0), 53.0);
        assert_eq!(accuracy_bits(0.25), 2.0);
        assert!(accuracy_bits(1e-3) > accuracy_bits(1e-2));
        assert!(accuracy_bits(2.0) < 0.0);
    }

    #[test]
    fn tally_counts_wrong_results_and_errors_as_failed_ops() {
        let mut t = Tally::default();
        assert_eq!(t.op(Ok((1u8, 50)), |_| true), Some(50));
        assert_eq!(t.op(Ok((1u8, 50)), |_| false), None);
        assert_eq!(t.op::<u8>(Err("boom".into()), |_| true), None);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!(t.detail.is_some());
        t.verification(&Verified {
            ok: false,
            detail: Some("x".into()),
            ..Verified::default()
        });
        assert_eq!((t.attempted, t.failed), (3 + SETS as u64, 2 + SETS as u64));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = RunResult {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
            detail: Some("not printed".into()),
        };
        assert_eq!(
            r.to_json().render(),
            r#"{"correct": true, "attempted": 7, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }
}
