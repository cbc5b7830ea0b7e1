//! # fpisa-bench
//!
//! `std::time`-based micro-benchmark harness for the FPISA hot paths. The
//! build environment has no registry access, so instead of criterion this
//! crate ships a small measured-loop harness: warm-up, N timed batches,
//! median-of-batches reporting, hand-rendered JSON.
//!
//! The `fpisa-bench` binary writes `BENCH_accumulator.json` (schema
//! [`SCHEMA`]) so successive PRs leave a comparable perf trajectory:
//!
//! ```sh
//! cargo run --release -p fpisa-bench
//! ```
//!
//! Benchmarked hot paths:
//!
//! * `FpisaAccumulator::add_f32_quiet` in both modes (plus the traced
//!   `add_f32` for the allocation overhead) — the per-element cost every
//!   host-side experiment pays;
//! * the packet-level pipeline ADD and READ on **both execution engines**
//!   — the interpreted baselines carry an `_interp` suffix, the unsuffixed
//!   names run the compiled fast path — including the FP16/BF16 field
//!   widths of §3.3 and the nearest-even read-out of Appendix A.1;
//! * the batch paths that feed million-packet experiments:
//!   `pipeline/add_batch/*`, `pipeline/read_batch/*` and the raw
//!   `pisa/run_batch` engine loop with no pipeline wrapping;
//! * the in-network aggregation protocol ([`run_agg`], written to
//!   `BENCH_agg.json`): full all-reduce rounds — packetize, slot-pool
//!   fan-in, compiled switch program, read-out, round reset — on the
//!   FPISA FP16 and SwitchML fixed-point backends;
//! * the adversarial network simulator ([`run_netsim`], written to
//!   `BENCH_netsim.json`): whole chaos all-reduces through
//!   `fpisa-netsim`, lossless and at 10% loss, reporting both the
//!   wall-clock cost of simulating and the simulated protocol time.

#![forbid(unsafe_code)]

use fpisa_agg::{
    AggregationSwitch, Aggregator, FpisaAggregator, GradientWorkload, SwitchMlFixedPoint,
};
use fpisa_core::{FpFormat, FpisaAccumulator, FpisaConfig, ReadRounding};
use fpisa_pipeline::{ExecEngine, FpisaPipeline, PipelineSpec, PipelineVariant, OP_ADD};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::Instant;

/// Identifier of the JSON output shape, bumped on breaking changes.
/// (`packets_per_sec` was added as a derived per-bench field, and the
/// `meta` provenance header after it; both additive, so the schema id is
/// unchanged.)
pub const SCHEMA: &str = "fpisa-bench/v1";

/// Provenance of a benchmark recording: enough to judge whether two JSON
/// files are comparable. A shared 2-core container and an idle 8-core
/// host time differently, and a debug-profile run is meaningless — the
/// header makes both visible in the recorded artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchMeta {
    /// Parallelism the harness saw (`std::thread::available_parallelism`);
    /// 0 if the query failed.
    pub host_cores: usize,
    /// Cargo profile the harness was compiled under: `release` or `debug`.
    pub profile: &'static str,
    /// Wall-clock seconds since the Unix epoch when the harness started.
    pub timestamp_unix: u64,
}

impl BenchMeta {
    /// Capture the current host/build provenance.
    pub fn capture() -> Self {
        BenchMeta {
            host_cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            timestamp_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }
}

/// One benchmark's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Operations per timed batch.
    pub batch_ops: u64,
    /// Number of timed batches.
    pub batches: u64,
    /// Median batch wall time in nanoseconds.
    pub median_batch_ns: u64,
    /// Nanoseconds per operation (median batch / batch size).
    pub ns_per_op: f64,
    /// Operations per second (1e9 / `ns_per_op`) — packets per second for
    /// the packet-level benches.
    pub packets_per_sec: f64,
}

/// Time `op` (which must perform `batch_ops` operations per call): one
/// warm-up call, then `batches` timed calls, reporting the median.
pub fn bench(
    name: impl Into<String>,
    batch_ops: u64,
    batches: u64,
    mut op: impl FnMut(),
) -> BenchResult {
    assert!(batch_ops > 0 && batches > 0);
    op(); // warm-up
    let mut times: Vec<u64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    let median_batch_ns = times[times.len() / 2];
    let ns_per_op = median_batch_ns as f64 / batch_ops as f64;
    BenchResult {
        name: name.into(),
        batch_ops,
        batches,
        median_batch_ns,
        ns_per_op,
        packets_per_sec: if ns_per_op > 0.0 {
            1e9 / ns_per_op
        } else {
            0.0
        },
    }
}

/// A deterministic mixed-magnitude input stream (same shape as the
/// differential tests use, so the numbers track the real workload).
pub fn input_stream(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            let mag = 2f32.powi(rng.gen_range(-20..20));
            sign * mag * rng.gen_range(1.0f32..2.0)
        })
        .collect()
}

/// Run the standard benchmark set. `scale` multiplies batch sizes (tests
/// pass a small value; the binary passes 1, or a small value in `--quick`
/// mode).
pub fn run_all(scale: f64) -> Vec<BenchResult> {
    let ops = |n: u64| ((n as f64 * scale) as u64).max(1);
    let mut results = Vec::new();

    let stream = input_stream(4096, 0xBE7C);

    // Accumulator hot path, both modes, through the non-allocating quiet
    // API (the traced API is metered separately below).
    for (name, cfg) in [
        ("core/add_f32/approximate", FpisaConfig::fp32_tofino()),
        ("core/add_f32/full", FpisaConfig::fp32_extended()),
    ] {
        let batch = ops(100_000);
        let mut acc = FpisaAccumulator::new(cfg);
        results.push(bench(name, batch, 15, || {
            for i in 0..batch {
                let x = stream[i as usize % stream.len()];
                let _ = acc.add_f32_quiet(x);
            }
            std::hint::black_box(acc.read_bits());
        }));
    }
    {
        let batch = ops(100_000);
        let mut acc = FpisaAccumulator::new(FpisaConfig::fp32_tofino());
        results.push(bench("core/add_f32/traced", batch, 15, || {
            for i in 0..batch {
                let x = stream[i as usize % stream.len()];
                let _ = acc.add_f32(x);
            }
            std::hint::black_box(acc.read_bits());
        }));
    }

    // Static analysis throughput: the four-pass analyzer over the richest
    // built-in program — the per-program cost the `AnalysisLevel::Deny`
    // default adds to pipeline construction (paid once per compile, not
    // per packet; `ns_per_op` here is ns per *program*).
    {
        let spec = PipelineSpec::new(PipelineVariant::ExtendedFull).slots(64);
        let pipe = FpisaPipeline::from_spec(spec).expect("spec must validate");
        let batch = ops(200);
        results.push(bench("analysis/verify_program", batch, 10, || {
            for _ in 0..batch {
                std::hint::black_box(fpisa_pisa::verify_program(pipe.switch_program()));
            }
        }));
    }

    // Pipeline per-packet ADD, cheapest and richest variants, on both
    // engines: `_interp` is the interpreted baseline, the unsuffixed name
    // is the compiled fast path.
    for (name, variant, engine) in [
        (
            "pipeline/add_packet/tofino_a_interp",
            PipelineVariant::TofinoA,
            ExecEngine::Interpreted,
        ),
        (
            "pipeline/add_packet/extended_full_interp",
            PipelineVariant::ExtendedFull,
            ExecEngine::Interpreted,
        ),
        (
            "pipeline/add_packet/tofino_a",
            PipelineVariant::TofinoA,
            ExecEngine::Compiled,
        ),
        (
            "pipeline/add_packet/extended_full",
            PipelineVariant::ExtendedFull,
            ExecEngine::Compiled,
        ),
    ] {
        let batch = ops(2_000);
        let spec = PipelineSpec::new(variant).slots(64).engine(engine);
        let mut pipe = FpisaPipeline::from_spec(spec).expect("spec must validate");
        results.push(bench(name, batch, 10, || {
            for i in 0..batch {
                let x = stream[i as usize % stream.len()];
                pipe.add_f32((i % 64) as usize, x).expect("finite input");
            }
        }));
    }

    // The batch ADD path: whole packet slices through the reusable PHV
    // buffer — what the million-packet aggregation soaks run on.
    for (name, variant) in [
        ("pipeline/add_batch/tofino_a", PipelineVariant::TofinoA),
        (
            "pipeline/add_batch/extended_full",
            PipelineVariant::ExtendedFull,
        ),
    ] {
        let batch = ops(8_192);
        let spec = PipelineSpec::new(variant).slots(64);
        let mut pipe = FpisaPipeline::from_spec(spec).expect("spec must validate");
        let packets: Vec<(usize, u64)> = (0..batch)
            .map(|i| {
                let x = stream[i as usize % stream.len()];
                ((i % 64) as usize, u64::from(x.to_bits()))
            })
            .collect();
        results.push(bench(name, batch, 10, || {
            pipe.add_batch(&packets).expect("finite input");
        }));
    }

    // The raw engine loop with no pipeline wrapping: pre-built ADD PHVs
    // straight through `CompiledSwitch::run_batch`. The refill clears and
    // rewrites the input fields in place — no allocation inside the timed
    // loop, so the number is the engine, not the harness.
    {
        let batch = ops(8_192);
        let spec = PipelineSpec::new(PipelineVariant::TofinoA).slots(64);
        let (program, fields, _arrays) = spec.build().expect("spec must validate");
        let mut engine = fpisa_pisa::CompiledSwitch::compile(&program).expect("program validates");
        let inputs: Vec<(u64, u64)> = (0..batch)
            .map(|i| {
                (
                    i % 64,
                    u64::from(stream[i as usize % stream.len()].to_bits()),
                )
            })
            .collect();
        let mut phvs: Vec<fpisa_pisa::Phv> = (0..batch).map(|_| engine.phv()).collect();
        results.push(bench("pisa/run_batch/tofino_a", batch, 10, || {
            for (phv, &(slot, bits)) in phvs.iter_mut().zip(&inputs) {
                phv.clear();
                phv.set(fields.op, OP_ADD);
                phv.set(fields.slot, slot);
                phv.set(fields.value, bits);
            }
            std::hint::black_box(engine.run_batch(&mut phvs).expect("run"));
        }));
    }

    // READ path on both engines, plus the batch READ.
    for (name, engine) in [
        (
            "pipeline/read_packet/tofino_a_interp",
            ExecEngine::Interpreted,
        ),
        ("pipeline/read_packet/tofino_a", ExecEngine::Compiled),
    ] {
        let batch = ops(2_000);
        let spec = PipelineSpec::new(PipelineVariant::TofinoA)
            .slots(64)
            .engine(engine);
        let mut pipe = FpisaPipeline::from_spec(spec).expect("spec must validate");
        for (i, &x) in stream.iter().take(256).enumerate() {
            pipe.add_f32(i % 64, x).expect("finite input");
        }
        results.push(bench(name, batch, 10, || {
            for i in 0..batch {
                std::hint::black_box(pipe.read_bits((i % 64) as usize).expect("read"));
            }
        }));
    }
    {
        let batch = ops(8_192);
        let spec = PipelineSpec::new(PipelineVariant::TofinoA).slots(64);
        let mut pipe = FpisaPipeline::from_spec(spec).expect("spec must validate");
        for (i, &x) in stream.iter().take(256).enumerate() {
            pipe.add_f32(i % 64, x).expect("finite input");
        }
        let slots: Vec<usize> = (0..batch as usize).map(|i| i % 64).collect();
        results.push(bench("pipeline/read_batch/tofino_a", batch, 10, || {
            std::hint::black_box(pipe.read_batch(&slots).expect("read"));
        }));
    }

    // Per-format pipeline throughput (§3.3): the same Tofino-profile
    // program with FP16/BF16 field widths — fewer shift-table entries
    // (and, compiled, smaller match maps).
    for (name, format) in [
        ("pipeline/add_packet/tofino_a_fp16", FpFormat::FP16),
        ("pipeline/add_packet/tofino_a_bf16", FpFormat::BF16),
    ] {
        let batch = ops(2_000);
        let spec = PipelineSpec::new(PipelineVariant::TofinoA)
            .format(format)
            .slots(64);
        let mut pipe = FpisaPipeline::from_spec(spec).expect("spec must validate");
        // Drop values that overflow the narrow format (FP16 tops out at
        // 65504): the pipeline's contract is finite inputs only.
        let bits: Vec<u64> = stream
            .iter()
            .map(|&x| format.encode(x as f64))
            .filter(|&b| format.unpack(b).class != fpisa_core::FpClass::Infinity)
            .collect();
        results.push(bench(name, batch, 10, || {
            for i in 0..batch {
                let b = bits[i as usize % bits.len()];
                pipe.add_bits((i % 64) as usize, b).expect("finite input");
            }
        }));
    }

    // The Appendix A.1 nearest-even read-out costs one extra stage; meter
    // the READ path with guard bits + rounding enabled.
    {
        let batch = ops(2_000);
        let spec = PipelineSpec::new(PipelineVariant::TofinoA)
            .guard_bits(2)
            .read_rounding(ReadRounding::NearestEven)
            .slots(64);
        let mut pipe = FpisaPipeline::from_spec(spec).expect("spec must validate");
        for (i, &x) in stream.iter().take(256).enumerate() {
            pipe.add_f32(i % 64, x).expect("finite input");
        }
        results.push(bench(
            "pipeline/read_packet/tofino_a_nearest_even",
            batch,
            10,
            || {
                for i in 0..batch {
                    std::hint::black_box(pipe.read_bits((i % 64) as usize).expect("read"));
                }
            },
        ));
    }

    results
}

/// Run the in-network aggregation benchmark set (`BENCH_agg.json`): one
/// full all-reduce round per op batch — packetized worker gradients
/// ingested through the slot pool into the backend's compiled switch
/// program, then read out and the round finished for slot reuse.
/// `packets_per_sec` counts *element additions* (workers × elements per
/// round), the same unit as the `pipeline/add_batch` benches, so protocol
/// overhead is directly visible against the raw pipeline numbers.
pub fn run_agg(scale: f64) -> Vec<BenchResult> {
    let mut results = Vec::new();

    /// One full-round all-reduce bench: packetize → ingest (scalar or
    /// batched) → read → finish. `batched` routes a whole round through
    /// `ingest_batch` and its one `add_wire_multi` call.
    fn bench_allreduce(
        results: &mut Vec<BenchResult>,
        name: &str,
        workload: &GradientWorkload,
        backend: Box<dyn Aggregator>,
        batched: bool,
        rounds: u64,
    ) {
        let spec = workload.job_spec();
        let gradients = workload.generate();
        let ops_per_round = (spec.workers as u64) * spec.elements as u64;
        let mut sw = AggregationSwitch::new(spec, backend).expect("job fits backend");
        // Pre-encode each worker's wire words once: the timed loop measures
        // the switch-side protocol, not host-side float conversion.
        let words: Vec<Vec<u64>> = gradients
            .iter()
            .map(|g| g.iter().map(|&x| sw.backend_mut().encode(x)).collect())
            .collect();
        let mut round = 0u32;
        results.push(bench(name, rounds * ops_per_round, 10, || {
            for _ in 0..rounds {
                if batched {
                    let pkts: Vec<_> = words
                        .iter()
                        .enumerate()
                        .flat_map(|(worker, w)| spec.packetize(worker as u32, round, w))
                        .collect();
                    let decisions = sw.ingest_batch(&pkts).expect("in-range slots");
                    assert!(decisions.iter().all(|d| d.accepted()));
                } else {
                    for (worker, w) in words.iter().enumerate() {
                        for pkt in spec.packetize(worker as u32, round, w) {
                            let d = sw.ingest(&pkt).expect("in-range slots");
                            assert!(d.accepted());
                        }
                    }
                }
                std::hint::black_box(sw.read_all().expect("read"));
                for chunk in 0..spec.chunks() {
                    sw.finish_round(chunk).expect("reset");
                }
                round += 1;
            }
        }));
    }

    // Rounds per timed batch; at least one full round even in --quick.
    let rounds = ((8.0 * scale) as u64).max(1);
    let workload = GradientWorkload {
        workers: 8,
        elements: 256,
        elements_per_packet: 64,
        ..GradientWorkload::fig10(16)
    };
    let gradients = workload.generate();

    bench_allreduce(
        &mut results,
        "agg/allreduce/fpisa_fp16",
        &workload,
        Box::new(
            FpisaAggregator::fp16_tofino(workload.elements)
                .expect("preset validates")
                .with_shadow_stats(false),
        ),
        false,
        rounds,
    );
    let max_abs = GradientWorkload::max_abs(&gradients);
    bench_allreduce(
        &mut results,
        "agg/allreduce/switchml",
        &workload,
        Box::new(
            SwitchMlFixedPoint::for_workload(workload.elements, max_abs, workload.workers)
                .expect("workload sizes"),
        ),
        false,
        rounds,
    );

    // The shard-scaling curve: a 2048-element gradient (32 chunks of 64,
    // so 8 chunk-aligned shards stay distinct) through the batched ingest
    // path on 1/2/4/8 slot-range shards. Every row runs on one full-space
    // engine, so the curve should be flat: a shard plan is a build-time
    // partition, not a run-time split.
    let big = GradientWorkload {
        workers: 8,
        elements: 2048,
        elements_per_packet: 64,
        ..GradientWorkload::fig10(16)
    };
    let big_rounds = ((2.0 * scale) as u64).max(1);
    for shards in [1usize, 2, 4, 8] {
        let name = format!("agg/allreduce/fpisa_fp16_shards{shards}");
        let spec = PipelineSpec::new(PipelineVariant::TofinoA)
            .format(FpFormat::FP16)
            .slots(big.elements)
            .shards(shards)
            .shard_align(big.elements_per_packet);
        bench_allreduce(
            &mut results,
            &name,
            &big,
            Box::new(
                FpisaAggregator::from_spec(spec)
                    .expect("spec validates")
                    .with_shadow_stats(false),
            ),
            true,
            big_rounds,
        );
    }
    results
}

/// Run the network-simulation benchmark set (`BENCH_netsim.json`): a full
/// chaos all-reduce through `fpisa-netsim` per op batch, lossless and
/// under 10% loss + duplication + reordering. Each scenario reports two
/// rows: the wall-clock cost of simulating it (`netsim/allreduce/...`,
/// ops = element additions, same unit as the `agg/allreduce` benches) and
/// the *simulated* time the protocol needed (`.../simtime`, where
/// `ns_per_op` is simulated nanoseconds per element addition and
/// `packets_per_sec` is the simulated aggregation throughput under the
/// default §5.3 host cost model). The loss run is asserted bit-identical
/// to the lossless run before anything is timed.
pub fn run_netsim(scale: f64) -> Vec<BenchResult> {
    use fpisa_netsim::{run_allreduce, ChaosWorkload, FaultPlan, SimConfig};

    let rounds = ((6.0 * scale) as u32).max(1);
    let workload = ChaosWorkload {
        workers: 8,
        elements: 256,
        elements_per_packet: 64,
        rounds,
        seed: 0xBE7C,
    };
    let spec = workload.spec(1);
    let gradients = workload.gradients();
    let ops = u64::from(workload.workers) * workload.elements as u64 * u64::from(rounds);
    let backend = || FpisaAggregator::fp16_tofino(workload.elements).expect("preset validates");
    let loss10 = || {
        FaultPlan::new(0xBE7C)
            .drop(0.10)
            .duplicate(0.05)
            .reorder(0.05, 40_000)
    };

    // Chaos invariance gate: a benchmark of a broken protocol would be
    // a meaningless number.
    let clean = run_allreduce(
        spec,
        backend(),
        &gradients,
        FaultPlan::lossless(0xBE7C),
        SimConfig::default(),
    )
    .expect("lossless run completes");
    let lossy = run_allreduce(spec, backend(), &gradients, loss10(), SimConfig::default())
        .expect("loss10 run completes");
    assert_eq!(
        clean.results, lossy.results,
        "loss10 diverged from lossless — not benchmarking a broken protocol"
    );

    let mut results = Vec::new();
    for (label, plan, report) in [
        ("lossless", FaultPlan::lossless(0xBE7C), &clean),
        ("loss10", loss10(), &lossy),
    ] {
        results.push(bench(format!("netsim/allreduce/{label}"), ops, 5, || {
            let r = run_allreduce(
                spec,
                backend(),
                &gradients,
                plan.clone(),
                SimConfig::default(),
            )
            .expect("simulation completes");
            std::hint::black_box(r.trace_hash);
        }));
        // Simulated time is a property of the run, not the host: report
        // it as a synthetic single-batch result.
        let sim_ns = report.sim_ns.max(1);
        results.push(BenchResult {
            name: format!("netsim/allreduce/{label}/simtime"),
            batch_ops: ops,
            batches: 1,
            median_batch_ns: sim_ns,
            ns_per_op: sim_ns as f64 / ops as f64,
            packets_per_sec: ops as f64 / sim_ns as f64 * 1e9,
        });
    }
    results
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render results as the `BENCH_accumulator.json` document (hand-formatted
/// JSON; no serde backend in this environment).
pub fn to_json(meta: &BenchMeta, results: &[BenchResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!(
        "  \"meta\": {{\"host_cores\": {}, \"profile\": \"{}\", \"timestamp_unix\": {}}},\n",
        meta.host_cores, meta.profile, meta.timestamp_unix
    ));
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"batch_ops\": {}, \"batches\": {}, \
             \"median_batch_ns\": {}, \"ns_per_op\": {:.3}, \"packets_per_sec\": {:.0}}}{}\n",
            json_escape(&r.name),
            r.batch_ops,
            r.batches,
            r.median_batch_ns,
            r.ns_per_op,
            r.packets_per_sec,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_reports() {
        let mut count = 0u64;
        let r = bench("noop", 10, 5, || count += 10);
        assert_eq!(r.batch_ops, 10);
        assert_eq!(r.batches, 5);
        assert!(r.ns_per_op >= 0.0);
        assert!(r.packets_per_sec >= 0.0);
        assert_eq!(count, 60, "1 warm-up + 5 timed batches");
    }

    #[test]
    fn run_all_covers_core_and_pipeline() {
        let results = run_all(0.01);
        assert_eq!(results.len(), 17);
        assert!(results.iter().any(|r| r.name == "analysis/verify_program"));
        assert!(results.iter().any(|r| r.name.contains("core/add_f32")));
        assert!(results.iter().any(|r| r.name == "core/add_f32/traced"));
        // Both engines: the interpreted baselines and the compiled paths.
        assert!(results
            .iter()
            .any(|r| r.name == "pipeline/add_packet/tofino_a_interp"));
        assert!(results
            .iter()
            .any(|r| r.name == "pipeline/add_packet/tofino_a"));
        // The batch paths the million-packet soaks run on.
        assert!(results
            .iter()
            .any(|r| r.name == "pipeline/add_batch/tofino_a"));
        assert!(results
            .iter()
            .any(|r| r.name == "pipeline/read_batch/tofino_a"));
        assert!(results.iter().any(|r| r.name == "pisa/run_batch/tofino_a"));
        assert!(results.iter().any(|r| r.name.contains("read_packet")));
        assert!(results.iter().any(|r| r.name.contains("fp16")));
        assert!(results.iter().any(|r| r.name.contains("bf16")));
        assert!(results.iter().any(|r| r.name.contains("nearest_even")));
        for r in &results {
            assert!(r.median_batch_ns > 0, "{} measured nothing", r.name);
            assert!(r.packets_per_sec > 0.0, "{} has no rate", r.name);
        }
    }

    #[test]
    fn run_agg_covers_both_backends_and_the_shard_curve() {
        let results = run_agg(0.01);
        assert_eq!(results.len(), 6);
        assert!(results.iter().any(|r| r.name == "agg/allreduce/fpisa_fp16"));
        assert!(results.iter().any(|r| r.name == "agg/allreduce/switchml"));
        for shards in [1, 2, 4, 8] {
            let want = format!("agg/allreduce/fpisa_fp16_shards{shards}");
            assert!(
                results.iter().any(|r| r.name == want),
                "missing shard row {want}"
            );
        }
        for r in &results {
            assert!(r.median_batch_ns > 0, "{} measured nothing", r.name);
            assert!(r.packets_per_sec > 0.0, "{} has no rate", r.name);
        }
    }

    #[test]
    fn run_netsim_covers_both_scenarios_with_sim_and_wall_time() {
        let results = run_netsim(0.2);
        assert_eq!(results.len(), 4);
        for name in [
            "netsim/allreduce/lossless",
            "netsim/allreduce/lossless/simtime",
            "netsim/allreduce/loss10",
            "netsim/allreduce/loss10/simtime",
        ] {
            assert!(
                results.iter().any(|r| r.name == name),
                "missing bench row {name}"
            );
        }
        for r in &results {
            assert!(r.median_batch_ns > 0, "{} measured nothing", r.name);
            assert!(r.packets_per_sec > 0.0, "{} has no rate", r.name);
        }
        // The simulated-time rows are host-independent: loss must cost
        // simulated time relative to lossless.
        let sim = |name: &str| {
            results
                .iter()
                .find(|r| r.name == name)
                .unwrap()
                .median_batch_ns
        };
        assert!(sim("netsim/allreduce/loss10/simtime") > sim("netsim/allreduce/lossless/simtime"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let results = vec![BenchResult {
            name: "x".into(),
            batch_ops: 1,
            batches: 1,
            median_batch_ns: 42,
            ns_per_op: 42.0,
            packets_per_sec: 1e9 / 42.0,
        }];
        let meta = BenchMeta {
            host_cores: 4,
            profile: "release",
            timestamp_unix: 1_700_000_000,
        };
        let j = to_json(&meta, &results);
        assert!(j.starts_with("{\n"));
        assert!(j.contains("\"schema\": \"fpisa-bench/v1\""));
        assert!(j.contains(
            "\"meta\": {\"host_cores\": 4, \"profile\": \"release\", \
             \"timestamp_unix\": 1700000000}"
        ));
        assert!(j.contains("\"ns_per_op\": 42.000"));
        assert!(j.contains("\"packets_per_sec\": 23809524"));
        assert!(j.trim_end().ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn json_names_are_escaped() {
        let results = vec![BenchResult {
            name: "weird \"name\"\\path".into(),
            batch_ops: 1,
            batches: 1,
            median_batch_ns: 1,
            ns_per_op: 1.0,
            packets_per_sec: 1e9,
        }];
        let j = to_json(&BenchMeta::capture(), &results);
        assert!(j.contains(r#"weird \"name\"\\path"#));
        assert_eq!(
            j.matches('"').count() % 2,
            0,
            "unescaped quote broke the JSON"
        );
    }

    #[test]
    fn input_stream_is_deterministic_and_finite() {
        let a = input_stream(64, 1);
        let b = input_stream(64, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|x| x.is_finite() && *x != 0.0));
    }
}
