//! The benchmark's names: every workload and metric, with unit,
//! direction, bound and how the number is obtained. `BENCHMARK.json` at
//! the repo root is rendered from this table (`describe` subcommand) and
//! the smoke test asserts the two agree, so a name exists in one place.

use crate::json::Value;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "allreduce_fp16_pkt",
        why: "FPISA FP16 on Tofino, 8 workers, one ingest per 64-element packet: small divergent ADD batches, where run_lanes is most of the round",
    },
    WorkloadDef {
        name: "allreduce_fp16_batch2",
        why: "same backend, 2 workers, whole round through one ingest_batch: large batches and a read-out+reset share three times higher",
    },
    WorkloadDef {
        name: "allreduce_switchml_pkt",
        why: "one-stage integer program bypasses every FPISA table: shift/selector work must not move it, engine fixed cost moves it most",
    },
    WorkloadDef {
        name: "netsim_fp16_loss10",
        why: "16-round FP16 job through the simulator at 10% loss: frame codecs, CRC, acks, timers, retransmits and the event heap show only here",
    },
];

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEndDef; 8] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "elems_per_s",
        unit: "elem/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "op_us_p50",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "op_rel_p50",
        unit: "ratio",
        better: Lower,
        bound: 0.10,
    },
    EndToEndDef {
        name: "op_rel_p90",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "accuracy_bits_mean",
        unit: "bits",
        better: Higher,
        bound: 0.10,
    },
    EndToEndDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
    EndToEndDef {
        name: "wire_bytes_per_elem",
        unit: "bytes",
        better: Lower,
        bound: 0.10,
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time around calls into the layer (median over iterations).
    Measured,
    /// One measured rung minus the rung below it.
    Subtracted,
    /// Counts × measured unit costs.
    Modelled,
    /// A count the program or the harness made; repeats exactly per seed.
    Count,
    /// Derived from simulated time or counts; repeats exactly per seed.
    Simulated,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Subtracted => "by-subtraction",
            Kind::Modelled => "modelled",
            Kind::Count => "count",
            Kind::Simulated => "simulated-time",
        }
    }

    /// Whether equal seeds must give bit-identical values.
    pub fn exact_repeat(self) -> bool {
        matches!(self, Kind::Count | Kind::Simulated)
    }
}

pub struct PerLayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Whether two different `--seed`s must give different values on at
    /// least one workload (the smoke test holds the benchmark to it).
    pub seed_dependent: bool,
}

const fn row(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better,
        kind,
        seed_dependent: false,
    }
}

/// A count (or a ratio of counts) that the gradients or the fault plan
/// drawn from `--seed` move on at least one workload.
const fn seeded(name: &'static str, unit: &'static str, better: Better) -> PerLayerDef {
    PerLayerDef {
        name,
        unit,
        better,
        kind: Kind::Count,
        seed_dependent: true,
    }
}

use Kind::{Count, Measured, Modelled, Simulated, Subtracted};

pub const PER_LAYER: &[PerLayerDef] = &[
    // fpisa-core
    row("core.encode_ns_per_elem", "ns", Lower, Measured),
    row("core.acc_add_ns_per_elem", "ns", Lower, Measured),
    // fpisa-pisa
    row("pisa.run_lanes_add64_ns_per_lane", "ns", Lower, Measured),
    row("pisa.run_lanes_add8k_ns_per_lane", "ns", Lower, Measured),
    row("pisa.run_lanes_read_ns_per_lane", "ns", Lower, Measured),
    row("pisa.compile_us", "us", Lower, Measured),
    row("pisa.analysis_us", "us", Lower, Measured),
    row("pisa.tape_ops", "count", Lower, Count),
    row("pisa.fused_pairs", "count", Higher, Count),
    row("pisa.selector_tables", "count", Higher, Count),
    row("pisa.shard2_add8k_ns_per_lane", "ns", Lower, Measured),
    // fpisa-pipeline
    row("pipeline.build_us", "us", Lower, Measured),
    row("pipeline.add_batch64_ns_per_elem", "ns", Lower, Measured),
    row("pipeline.add_batch8k_ns_per_elem", "ns", Lower, Measured),
    row(
        "pipeline.lane_fill_self_ns_per_elem",
        "ns",
        Lower,
        Subtracted,
    ),
    row("pipeline.read_range_ns_per_slot", "ns", Lower, Measured),
    row("pipeline.read_self_ns_per_slot", "ns", Lower, Subtracted),
    row("pipeline.clear_range_ns_per_slot", "ns", Lower, Measured),
    row("pipeline.stages", "count", Lower, Count),
    row("pipeline.tables", "count", Lower, Count),
    row("pipeline.shift_entries", "count", Lower, Count),
    // fpisa-agg protocol
    row("agg.protocol.packetize_ns_per_elem", "ns", Lower, Measured),
    row(
        "agg.protocol.encode_frame_ns_per_byte",
        "ns",
        Lower,
        Measured,
    ),
    row(
        "agg.protocol.decode_frame_ns_per_byte",
        "ns",
        Lower,
        Measured,
    ),
    row("agg.protocol.crc32_ns_per_byte", "ns", Lower, Measured),
    row("agg.protocol.ack_codec_ns_per_ack", "ns", Lower, Measured),
    row("agg.protocol.frame_bytes", "count", Lower, Count),
    // fpisa-agg pool
    row("agg.pool.check_ns_per_pkt", "ns", Lower, Measured),
    row("agg.pool.commit_ns_per_pkt", "ns", Lower, Measured),
    row("agg.pool.advance_round_ns_per_chunk", "ns", Lower, Measured),
    row("agg.pool.accepted", "count", Higher, Count),
    seeded("agg.pool.duplicates", "count", Lower),
    row("agg.pool.stale", "count", Lower, Count),
    seeded("agg.pool.accept_share", "ratio", Higher),
    // fpisa-agg backends and switch
    row("agg.fpisa.add_wire_ns_per_elem", "ns", Lower, Measured),
    row(
        "agg.fpisa.add_wire_self_ns_per_elem",
        "ns",
        Lower,
        Subtracted,
    ),
    row(
        "agg.fpisa.add_wire_multi_ns_per_elem",
        "ns",
        Lower,
        Measured,
    ),
    row("agg.fpisa.read_range_ns_per_slot", "ns", Lower, Measured),
    row("agg.fpisa.clear_range_ns_per_slot", "ns", Lower, Measured),
    row("agg.fpisa.shadow_ns_per_elem", "ns", Lower, Subtracted),
    row("agg.switchml.add_wire_ns_per_elem", "ns", Lower, Measured),
    row("agg.switchml.read_range_ns_per_slot", "ns", Lower, Measured),
    row(
        "agg.switchml.clear_range_ns_per_slot",
        "ns",
        Lower,
        Measured,
    ),
    row("agg.switch.ingest_self_ns_per_pkt", "ns", Lower, Subtracted),
    row(
        "agg.switch.ingest_batch_self_ns_per_pkt",
        "ns",
        Lower,
        Subtracted,
    ),
    row("agg.stats.overwrites", "count", Lower, Count),
    seeded("agg.stats.rounded", "count", Lower),
    row("agg.stats.clipped", "count", Lower, Count),
    seeded("agg.rel_err_mean", "ratio", Lower),
    row("agg.rel_err_max", "ratio", Lower, Count),
    // fpisa-netsim
    seeded("netsim.events", "count", Lower),
    seeded("netsim.sent", "count", Lower),
    seeded("netsim.delivered", "count", Lower),
    seeded("netsim.dropped", "count", Lower),
    seeded("netsim.retransmits", "count", Lower),
    seeded("netsim.timeouts", "count", Lower),
    seeded("netsim.acks_sent", "count", Lower),
    seeded("netsim.corrupt_rejected", "count", Lower),
    seeded("netsim.sim_ns", "ns", Lower),
    seeded("netsim.retransmit_share", "ratio", Lower),
    PerLayerDef {
        name: "netsim.sim_elems_per_s",
        unit: "elem/s",
        better: Higher,
        kind: Simulated,
        seed_dependent: true,
    },
    row("netsim.new_us", "us", Lower, Measured),
    row("netsim.job_ns_per_event", "ns", Lower, Measured),
    row("netsim.queue_ns_per_event", "ns", Lower, Measured),
    row("netsim.transmit_ns_per_frame", "ns", Lower, Measured),
    row("netsim.wire_ns_per_elem", "ns", Lower, Modelled),
    row("netsim.switch_ns_per_elem", "ns", Lower, Modelled),
    row("netsim.self_ns_per_elem", "ns", Lower, Subtracted),
    row("netsim.lossless_ns_per_elem", "ns", Lower, Measured),
    row("netsim.loss_overhead_share", "ratio", Lower, Subtracted),
    // harness: the selected workload's traced op
    row("bench.share_protocol", "ratio", Lower, Measured),
    row("bench.share_pool", "ratio", Lower, Measured),
    row("bench.share_backend", "ratio", Lower, Measured),
    row("bench.share_sim", "ratio", Lower, Measured),
    row("bench.ledger_residual_share", "ratio", Lower, Measured),
    row("bench.trace_overhead_share", "ratio", Lower, Measured),
    row("bench.op_us_p90", "us", Lower, Measured),
    row("bench.op_us_p99", "us", Lower, Measured),
    row("bench.op_samples", "count", Higher, Measured),
    row("bench.failed_share", "ratio", Lower, Count),
    row("bench.host_cores", "count", Higher, Count),
];

fn metric_value(name: &str, unit: &str, better: Better) -> Vec<(&'static str, Value)> {
    vec![
        ("name", Value::str(name)),
        ("unit", Value::str(unit)),
        ("better", Value::str(better.as_str())),
    ]
}

/// The document `BENCHMARK.json` must equal.
pub fn benchmark_json() -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Value::str)
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = metric_value(m.name, m.unit, m.better);
                        pairs.push(("bound", Value::Num(m.bound)));
                        Value::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Value::obj(metric_value(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_units_and_bounds_meet_the_driver_contract() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{unit}"
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
        assert!(benchmark_json().render_pretty().len() < 64 * 1024);
    }
}
