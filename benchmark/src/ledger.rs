//! The outside-in cost ledger: one named, repeatable row per layer.
//!
//! Every row is measured from outside the library, around public calls.
//! Rungs are peeled on sibling instances fed the identical `(slot, bits)`
//! stream of one FP16 round (8 workers × 4096 elements × 64 per packet,
//! gradient set 0 of the run's seed): `Aggregator::add_wire` →
//! `FpisaPipeline::add_batch` → `CompiledSwitch::run_lanes` on pre-filled
//! `BatchLanes` (the timer covers `run_lanes` only). A layer's self time
//! is its rung minus the rung below. Rows built from counts × measured
//! unit costs are *modelled*; rows that are a difference of two measured
//! rows are *by subtraction* (see `catalog::Kind`).
//!
//! The shared host slows down by up to 70% for a second or two at a time,
//! so no probe gets its time in one piece: the whole sequence of probes
//! runs [`PASSES`] times, each visit a fifth of the probe's budget, the
//! samples of all visits are pooled, and a row is the **median** of its
//! pool — a slow phase taints one visit of a few rows, not a row.

use crate::scenario::{set_seed, Netsim, Scenario, Shape, SimCounts, Verified, SETS};
use crate::stats::{median, splitmix64};
use fpisa_agg::{
    crc32, decode_ack, decode_packet, encode_ack, encode_packet, AckPacket, AggPacket,
    AggregationSwitch, Aggregator, FpisaAggregator, GradientWorkload, JobSpec, SlotPool,
    SwitchMlFixedPoint,
};
use fpisa_core::{FpFormat, FpisaAccumulator};
use fpisa_netsim::{transmit, Event, EventQueue, Simulator};
use fpisa_pipeline::{FpisaPipeline, PipelineSpec, PipelineVariant, OP_ADD, OP_READ};
use fpisa_pisa::{verify_program, BatchLanes, CompiledSwitch};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each probe runs in total, over how many visits, and how few
/// iterations a visit accepts.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCfg {
    pub budget: Duration,
    pub passes: u32,
    pub min_iters: usize,
}

/// Visits per probe in a full run.
pub const PASSES: u32 = 5;

/// Timed probes per pass (`Ledger::sample` calls) — what a traced run
/// divides its ledger time by.
pub const PROBES: u32 = 38;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn e(err: impl std::fmt::Display) -> String {
    err.to_string()
}

/// The ledger's model of one simulated job, in ns per element-addition.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetsimModel {
    /// Measured host time of the job.
    pub job: f64,
    /// Frame codecs, CRC and the link model (counts × unit costs).
    pub wire: f64,
    /// `SlotPool` admission and round advances (counts × unit costs).
    pub pool: f64,
    /// Backend adds, read-outs and resets (counts × unit costs).
    pub backend: f64,
}

/// The rows: pooled samples while measuring, one value each afterwards.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Nanoseconds per unit, one entry per iteration, over all visits.
    samples: BTreeMap<&'static str, Vec<f64>>,
    rows: BTreeMap<&'static str, f64>,
    netsim_model: NetsimModel,
}

impl Ledger {
    /// One visit of a probe: run `iter` (which returns the nanoseconds it
    /// measured itself, so any preparation stays outside the timer) until
    /// the visit's share of the budget is spent; pool the samples.
    fn sample(
        &mut self,
        name: &'static str,
        cfg: ProbeCfg,
        units: f64,
        mut iter: impl FnMut() -> Result<u64, String>,
    ) -> Result<(), String> {
        // One unrecorded iteration: first-touch allocation, cold caches.
        iter()?;
        let pool = self.samples.entry(name).or_default();
        let visit = cfg.budget / cfg.passes;
        let start = Instant::now();
        let mut n = 0;
        while n < cfg.min_iters || start.elapsed() < visit {
            pool.push(iter()? as f64 / units);
            n += 1;
        }
        Ok(())
    }

    /// A count or a derived row (the same value on every pass).
    fn put(&mut self, name: &'static str, value: f64) -> f64 {
        self.rows.insert(name, value);
        value
    }

    /// Turn every sample pool into its median.
    fn settle(&mut self) {
        debug_assert_eq!(self.samples.len(), PROBES as usize, "PROBES is stale");
        for (name, pool) in std::mem::take(&mut self.samples) {
            self.rows.insert(name, median(&pool));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.get(name).copied()
    }

    fn need(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("ledger row {name} read before it was measured"))
    }

    pub fn netsim_model(&self) -> NetsimModel {
        self.netsim_model
    }
}

/// One FP16 round's inputs, shared by every rung.
struct Round {
    spec: JobSpec,
    gradients: Vec<Vec<f64>>,
    words: Vec<Vec<u64>>,
    /// Worker-major packets of round 0.
    pkts: Vec<AggPacket>,
    /// `pkts` as `(slot, bits)` batches — the stream below `add_wire`.
    batches: Vec<Vec<(usize, u64)>>,
    /// The first two workers' whole gradients as one batch.
    batch8k: Vec<(usize, u64)>,
}

impl Round {
    fn new(seed: u64, agg: &mut FpisaAggregator) -> Self {
        let wl: GradientWorkload = Shape::PKT8.gradient_workload(set_seed(seed, 0));
        let spec = wl.job_spec();
        let gradients = wl.generate();
        let words: Vec<Vec<u64>> = gradients
            .iter()
            .map(|g| g.iter().map(|&x| agg.encode(x)).collect())
            .collect();
        let pkts: Vec<AggPacket> = words
            .iter()
            .enumerate()
            .flat_map(|(w, g)| spec.packetize(w as u32, 0, g))
            .collect();
        let batch_of = |pkt: &AggPacket| -> Vec<(usize, u64)> {
            let start = spec.slot_range(pkt.chunk as usize).0;
            pkt.payload
                .iter()
                .enumerate()
                .map(|(i, &b)| (start + i, b))
                .collect()
        };
        let batches: Vec<Vec<(usize, u64)>> = pkts.iter().map(batch_of).collect();
        let batch8k = pkts
            .iter()
            .filter(|p| p.worker < 2)
            .flat_map(batch_of)
            .collect();
        Round {
            spec,
            gradients,
            words,
            pkts,
            batches,
            batch8k,
        }
    }

    fn elems(&self) -> f64 {
        (self.words.len() * self.spec.elements) as f64
    }
}

/// Measure every row that does not depend on the selected workload.
/// Returns the ledger and the netsim scenario's verification (the
/// `netsim.*` counts come from it).
pub fn measure(seed: u64, cfg: ProbeCfg) -> Result<(Ledger, Verified), String> {
    let mut l = Ledger::default();
    let mut agg = FpisaAggregator::fp16_tofino(Shape::PKT8.elements)
        .map_err(e)?
        .with_shadow_stats(false);
    let round = Round::new(seed, &mut agg);
    let mut net = Netsim::setup(seed)?;
    let verified = net.verify()?;
    let sim = verified.sim.expect("netsim verification reports counters");

    for _ in 0..cfg.passes {
        core_rows(&mut l, cfg, &round, &agg)?;
        pisa_rows(&mut l, cfg, &round, &agg)?;
        pipeline_rows(&mut l, cfg, &round)?;
        protocol_rows(&mut l, cfg, &round)?;
        pool_rows(&mut l, cfg, &round)?;
        fpisa_rows(&mut l, cfg, &round, &mut agg)?;
        switchml_rows(&mut l, cfg, &round)?;
        switch_rows(&mut l, cfg, &round, &agg)?;
        netsim_rows(&mut l, cfg, &mut net)?;
    }
    l.settle();
    derive(&mut l, &net, &sim)?;
    Ok((l, verified))
}

/// Rows by subtraction and the netsim model, from the settled medians.
fn derive(l: &mut Ledger, net: &Netsim, sim: &SimCounts) -> Result<(), String> {
    let add64 = l.need("pipeline.add_batch64_ns_per_elem");
    l.put(
        "pipeline.lane_fill_self_ns_per_elem",
        add64 - l.need("pisa.run_lanes_add64_ns_per_lane"),
    );
    l.put(
        "pipeline.read_self_ns_per_slot",
        l.need("pipeline.read_range_ns_per_slot") - l.need("pisa.run_lanes_read_ns_per_lane"),
    );
    let add_wire = l.need("agg.fpisa.add_wire_ns_per_elem");
    l.put("agg.fpisa.add_wire_self_ns_per_elem", add_wire - add64);
    l.put(
        "agg.fpisa.shadow_ns_per_elem",
        l.need("agg.fpisa.add_wire_shadowed_ns_per_elem") - add_wire,
    );
    l.put(
        "agg.switch.ingest_self_ns_per_pkt",
        l.need("agg.switch.ingest_ns_per_pkt") - l.need("agg.switch.ingest_parts_ns_per_pkt"),
    );
    l.put(
        "agg.switch.ingest_batch_self_ns_per_pkt",
        l.need("agg.switch.ingest_batch_ns_per_pkt")
            - l.need("agg.switch.ingest_batch_parts_ns_per_pkt"),
    );

    l.put("netsim.events", sim.events as f64);
    l.put("netsim.sent", sim.sent as f64);
    l.put("netsim.delivered", sim.delivered as f64);
    l.put("netsim.dropped", sim.dropped as f64);
    l.put("netsim.retransmits", sim.retransmits as f64);
    l.put("netsim.timeouts", sim.timeouts as f64);
    l.put("netsim.acks_sent", sim.acks_sent as f64);
    l.put("netsim.corrupt_rejected", sim.corrupt_rejected as f64);
    l.put("netsim.sim_ns", sim.sim_ns as f64);
    l.put(
        "netsim.retransmit_share",
        sim.retransmits as f64 / sim.sent as f64,
    );
    l.put(
        "netsim.sim_elems_per_s",
        sim.elem_adds as f64 / (sim.sim_ns as f64 * 1e-9),
    );
    let lossy = l.need("netsim.lossy_ns_per_elem");
    l.put(
        "netsim.job_ns_per_event",
        lossy * sim.elem_adds as f64 / sim.events as f64,
    );
    l.put(
        "netsim.loss_overhead_share",
        (lossy - l.need("netsim.lossless_ns_per_elem")) / lossy,
    );

    // Modelled rows: the jobs' counters × the unit costs measured above.
    let per_elem = |ns: f64| ns / sim.elem_adds as f64;
    let data_bytes = net.frame_lengths()?.0 as f64;
    let arrived = (sim.delivered + sim.corrupt_rejected) as f64;
    let wire = sim.sent as f64 * data_bytes * l.need("agg.protocol.encode_frame_ns_per_byte")
        + arrived * data_bytes * l.need("agg.protocol.decode_frame_ns_per_byte")
        + sim.acks_sent as f64 * l.need("agg.protocol.ack_codec_ns_per_ack")
        + (sim.sent + sim.acks_sent) as f64 * l.need("netsim.transmit_ns_per_frame");
    let epp = net.spec().elements_per_packet as f64;
    let completed = sim.completed_chunks as f64;
    let pool = sim.delivered as f64
        * (l.need("agg.pool.check_ns_per_pkt") + l.need("agg.pool.commit_ns_per_pkt"))
        + completed * l.need("agg.pool.advance_round_ns_per_chunk");
    let backend = sim.elem_adds as f64 * add_wire
        + completed
            * epp
            * (l.need("agg.fpisa.read_range_ns_per_slot")
                + l.need("agg.fpisa.clear_range_ns_per_slot"));
    let wire = l.put("netsim.wire_ns_per_elem", per_elem(wire));
    let switch = l.put("netsim.switch_ns_per_elem", per_elem(pool + backend));
    l.put("netsim.self_ns_per_elem", lossy - wire - switch);
    l.netsim_model = NetsimModel {
        job: lossy,
        wire,
        pool: per_elem(pool),
        backend: per_elem(backend),
    };
    Ok(())
}

fn core_rows(
    l: &mut Ledger,
    cfg: ProbeCfg,
    round: &Round,
    agg: &FpisaAggregator,
) -> Result<(), String> {
    let g = &round.gradients[0];
    l.sample("core.encode_ns_per_elem", cfg, g.len() as f64, || {
        let t = Instant::now();
        for &x in g {
            black_box(FpFormat::FP16.encode(black_box(x)));
        }
        Ok(ns_since(t))
    })?;
    let core_cfg = agg.pipeline().core_config();
    let mut accs: Vec<FpisaAccumulator> = (0..round.spec.elements)
        .map(|_| FpisaAccumulator::new(core_cfg))
        .collect();
    l.sample("core.acc_add_ns_per_elem", cfg, round.elems(), || {
        accs.iter_mut().for_each(FpisaAccumulator::reset);
        let t = Instant::now();
        for w in &round.words {
            for (acc, &bits) in accs.iter_mut().zip(w) {
                acc.add_bits_quiet(bits).map_err(e)?;
            }
        }
        Ok(ns_since(t))
    })
}

fn pisa_rows(
    l: &mut Ledger,
    cfg: ProbeCfg,
    round: &Round,
    agg: &FpisaAggregator,
) -> Result<(), String> {
    let program = agg.pipeline().switch_program().clone();
    let fields = agg.pipeline().fields().clone();
    let slots = round.spec.elements;

    l.sample("pisa.compile_us", cfg, 1e3, || {
        let t = Instant::now();
        black_box(CompiledSwitch::compile(&program).map_err(e)?);
        Ok(ns_since(t))
    })?;
    l.sample("pisa.analysis_us", cfg, 1e3, || {
        let t = Instant::now();
        black_box(verify_program(&program));
        Ok(ns_since(t))
    })?;

    let mut cs = CompiledSwitch::compile(&program).map_err(e)?;
    let fusion = cs.fusion_stats();
    l.put("pisa.tape_ops", fusion.tape_ops as f64);
    l.put("pisa.fused_pairs", fusion.fused_pairs as f64);
    l.put("pisa.selector_tables", fusion.selector_tables as f64);

    let empty = cs.register_state().clone();
    let mut lanes = BatchLanes::new(cs.layout(), round.spec.elements_per_packet);
    let mut add64_round = |cs: &mut CompiledSwitch| -> Result<u64, String> {
        cs.set_register_state(empty.clone()).map_err(e)?;
        let mut ns = 0u64;
        for batch in &round.batches {
            lanes.begin(batch.len());
            for (k, &(slot, bits)) in batch.iter().enumerate() {
                lanes.set(fields.op, k, OP_ADD);
                lanes.set(fields.slot, k, slot as u64);
                lanes.set(fields.value, k, bits);
            }
            let t = Instant::now();
            cs.run_lanes(&mut lanes).map_err(e)?;
            ns += ns_since(t);
        }
        Ok(ns)
    };
    l.sample(
        "pisa.run_lanes_add64_ns_per_lane",
        cfg,
        round.elems(),
        || add64_round(&mut cs),
    )?;

    let mut lanes8k = BatchLanes::new(cs.layout(), round.batch8k.len());
    let units = round.batch8k.len() as f64;
    l.sample("pisa.run_lanes_add8k_ns_per_lane", cfg, units, || {
        cs.set_register_state(empty.clone()).map_err(e)?;
        lanes8k.begin(round.batch8k.len());
        for (k, &(slot, bits)) in round.batch8k.iter().enumerate() {
            lanes8k.set(fields.op, k, OP_ADD);
            lanes8k.set(fields.slot, k, slot as u64);
            lanes8k.set(fields.value, k, bits);
        }
        let t = Instant::now();
        cs.run_lanes(&mut lanes8k).map_err(e)?;
        Ok(ns_since(t))
    })?;
    drop(lanes8k);

    add64_round(&mut cs)?; // a full round in the registers, for READ
    let mut lanes_read = BatchLanes::new(cs.layout(), slots);
    l.sample("pisa.run_lanes_read_ns_per_lane", cfg, slots as f64, || {
        lanes_read.begin(slots);
        for k in 0..slots {
            lanes_read.set(fields.op, k, OP_READ);
            lanes_read.set(fields.slot, k, k as u64);
        }
        let t = Instant::now();
        cs.run_lanes(&mut lanes_read).map_err(e)?;
        Ok(ns_since(t))
    })?;

    // Informational: the same 8192-element batch on two shards (one extra
    // thread, joined when the pipeline drops). Read it with
    // `bench.host_cores`.
    let mut sharded = FpisaPipeline::from_spec(
        PipelineSpec::new(PipelineVariant::TofinoA)
            .format(FpFormat::FP16)
            .slots(slots)
            .shards(2)
            .shard_align(round.spec.elements_per_packet),
    )
    .map_err(e)?;
    l.sample("pisa.shard2_add8k_ns_per_lane", cfg, units, || {
        sharded.clear_range(0, slots).map_err(e)?;
        let t = Instant::now();
        sharded.add_batch(&round.batch8k).map_err(e)?;
        Ok(ns_since(t))
    })
}

fn pipeline_rows(l: &mut Ledger, cfg: ProbeCfg, round: &Round) -> Result<(), String> {
    let slots = round.spec.elements;
    let spec = PipelineSpec::new(PipelineVariant::TofinoA)
        .format(FpFormat::FP16)
        .slots(slots);
    l.sample("pipeline.build_us", cfg, 1e3, || {
        let t = Instant::now();
        black_box(spec.build().map_err(e)?);
        Ok(ns_since(t))
    })?;

    let mut pipe = FpisaPipeline::from_spec(spec).map_err(e)?;
    let add64_round = |pipe: &mut FpisaPipeline| -> Result<u64, String> {
        pipe.clear_range(0, slots).map_err(e)?;
        let t = Instant::now();
        for batch in &round.batches {
            pipe.add_batch(batch).map_err(e)?;
        }
        Ok(ns_since(t))
    };
    l.sample(
        "pipeline.add_batch64_ns_per_elem",
        cfg,
        round.elems(),
        || add64_round(&mut pipe),
    )?;
    let units = round.batch8k.len() as f64;
    l.sample("pipeline.add_batch8k_ns_per_elem", cfg, units, || {
        pipe.clear_range(0, slots).map_err(e)?;
        let t = Instant::now();
        pipe.add_batch(&round.batch8k).map_err(e)?;
        Ok(ns_since(t))
    })?;

    add64_round(&mut pipe)?;
    l.sample("pipeline.read_range_ns_per_slot", cfg, slots as f64, || {
        let t = Instant::now();
        black_box(pipe.read_range(0, slots).map_err(e)?);
        Ok(ns_since(t))
    })?;
    l.sample(
        "pipeline.clear_range_ns_per_slot",
        cfg,
        slots as f64,
        || {
            let t = Instant::now();
            pipe.clear_range(0, slots).map_err(e)?;
            Ok(ns_since(t))
        },
    )?;

    let program = pipe.switch_program();
    l.put("pipeline.stages", program.stages.len() as f64);
    l.put(
        "pipeline.tables",
        program.stages.iter().map(|s| s.tables.len()).sum::<usize>() as f64,
    );
    l.put(
        "pipeline.shift_entries",
        fpisa_pipeline::report::shift_table_entries(program) as f64,
    );
    Ok(())
}

fn protocol_rows(l: &mut Ledger, cfg: ProbeCfg, round: &Round) -> Result<(), String> {
    l.sample(
        "agg.protocol.packetize_ns_per_elem",
        cfg,
        round.elems(),
        || {
            let t = Instant::now();
            for (w, g) in round.words.iter().enumerate() {
                black_box(round.spec.packetize(w as u32, 0, g));
            }
            Ok(ns_since(t))
        },
    )?;

    let frames: Vec<Vec<u8>> = round
        .pkts
        .iter()
        .map(|p| encode_packet(p, 2).map_err(e))
        .collect::<Result<_, _>>()?;
    let bytes: f64 = frames.iter().map(|f| f.len() as f64).sum();
    l.sample("agg.protocol.encode_frame_ns_per_byte", cfg, bytes, || {
        let t = Instant::now();
        for pkt in &round.pkts {
            black_box(encode_packet(pkt, 2).map_err(e)?);
        }
        Ok(ns_since(t))
    })?;
    l.sample("agg.protocol.decode_frame_ns_per_byte", cfg, bytes, || {
        let t = Instant::now();
        for frame in &frames {
            black_box(decode_packet(frame).map_err(e)?);
        }
        Ok(ns_since(t))
    })?;
    l.sample("agg.protocol.crc32_ns_per_byte", cfg, bytes, || {
        let t = Instant::now();
        for frame in &frames {
            black_box(crc32(black_box(frame)));
        }
        Ok(ns_since(t))
    })?;
    let acks: Vec<AckPacket> = round
        .pkts
        .iter()
        .map(|p| AckPacket {
            job: p.job,
            worker: p.worker,
            round: p.round,
            chunk: p.chunk,
            contributors: p.worker + 1,
            current_round: p.round,
            recorded: true,
            complete: false,
        })
        .collect();
    let units = acks.len() as f64;
    l.sample("agg.protocol.ack_codec_ns_per_ack", cfg, units, || {
        let t = Instant::now();
        for a in &acks {
            let frame = encode_ack(a).map_err(e)?;
            black_box(decode_ack(&frame).map_err(e)?);
        }
        Ok(ns_since(t))
    })?;
    l.put("agg.protocol.frame_bytes", frames[0].len() as f64);
    Ok(())
}

/// Repeats per timed iteration for bodies of a few nanoseconds per unit,
/// so the two clock reads stay below 1% of the interval.
const TINY_BODY_REPEATS: usize = 16;

fn pool_rows(l: &mut Ledger, cfg: ProbeCfg, round: &Round) -> Result<(), String> {
    let pkts = round.pkts.len() as f64;
    let pool = SlotPool::new(round.spec).map_err(e)?;
    let units = pkts * TINY_BODY_REPEATS as f64;
    l.sample("agg.pool.check_ns_per_pkt", cfg, units, || {
        let t = Instant::now();
        for _ in 0..TINY_BODY_REPEATS {
            for pkt in &round.pkts {
                black_box(pool.check(black_box(pkt)));
            }
        }
        Ok(ns_since(t))
    })?;
    l.sample("agg.pool.commit_ns_per_pkt", cfg, pkts, || {
        let mut pool = SlotPool::new(round.spec).map_err(e)?;
        let t = Instant::now();
        for pkt in &round.pkts {
            black_box(pool.commit(pkt));
        }
        Ok(ns_since(t))
    })?;
    let chunks = round.spec.chunks();
    let mut pool = SlotPool::new(round.spec).map_err(e)?;
    let units = (chunks * TINY_BODY_REPEATS) as f64;
    l.sample("agg.pool.advance_round_ns_per_chunk", cfg, units, || {
        let t = Instant::now();
        for _ in 0..TINY_BODY_REPEATS {
            for chunk in 0..chunks {
                black_box(pool.advance_round(chunk).map_err(e)?);
            }
        }
        Ok(ns_since(t))
    })
}

/// `Aggregator` calls on the FPISA backend, shadows off and on.
fn fpisa_rows(
    l: &mut Ledger,
    cfg: ProbeCfg,
    round: &Round,
    agg: &mut FpisaAggregator,
) -> Result<(), String> {
    let slots = round.spec.elements;
    let add_wire_round = |b: &mut FpisaAggregator| -> Result<u64, String> {
        b.clear_range(0, slots).map_err(e)?;
        let t = Instant::now();
        for pkt in &round.pkts {
            let start = round.spec.slot_range(pkt.chunk as usize).0;
            b.add_wire(start, &pkt.payload).map_err(e)?;
        }
        Ok(ns_since(t))
    };
    l.sample("agg.fpisa.add_wire_ns_per_elem", cfg, round.elems(), || {
        add_wire_round(agg)
    })?;
    let chunks2: Vec<(usize, &[u64])> = round
        .pkts
        .iter()
        .filter(|p| p.worker < 2)
        .map(|p| {
            (
                round.spec.slot_range(p.chunk as usize).0,
                p.payload.as_slice(),
            )
        })
        .collect();
    let units = round.batch8k.len() as f64;
    l.sample("agg.fpisa.add_wire_multi_ns_per_elem", cfg, units, || {
        agg.clear_range(0, slots).map_err(e)?;
        let t = Instant::now();
        agg.add_wire_multi(&chunks2).map_err(e)?;
        Ok(ns_since(t))
    })?;
    add_wire_round(agg)?; // leave a full round in the slots
    l.sample(
        "agg.fpisa.read_range_ns_per_slot",
        cfg,
        slots as f64,
        || {
            let t = Instant::now();
            black_box(agg.read_range(0, slots).map_err(e)?);
            Ok(ns_since(t))
        },
    )?;
    l.sample(
        "agg.fpisa.clear_range_ns_per_slot",
        cfg,
        slots as f64,
        || {
            let t = Instant::now();
            agg.clear_range(0, slots).map_err(e)?;
            Ok(ns_since(t))
        },
    )?;
    let mut shadowed = FpisaAggregator::fp16_tofino(slots).map_err(e)?;
    l.sample(
        "agg.fpisa.add_wire_shadowed_ns_per_elem",
        cfg,
        round.elems(),
        || add_wire_round(&mut shadowed),
    )
}

fn switchml_rows(l: &mut Ledger, cfg: ProbeCfg, round: &Round) -> Result<(), String> {
    let slots = round.spec.elements;
    let max_abs = GradientWorkload::max_abs(&round.gradients);
    let mut sml =
        SwitchMlFixedPoint::for_workload(slots, 2.0 * max_abs, round.spec.workers).map_err(e)?;
    let words: Vec<Vec<u64>> = round
        .gradients
        .iter()
        .map(|g| g.iter().map(|&x| sml.encode(x)).collect())
        .collect();
    let pkts: Vec<AggPacket> = words
        .iter()
        .enumerate()
        .flat_map(|(w, g)| round.spec.packetize(w as u32, 0, g))
        .collect();
    let add_round = |sml: &mut SwitchMlFixedPoint| -> Result<u64, String> {
        sml.clear_range(0, slots).map_err(e)?;
        let t = Instant::now();
        for pkt in &pkts {
            let start = round.spec.slot_range(pkt.chunk as usize).0;
            sml.add_wire(start, &pkt.payload).map_err(e)?;
        }
        Ok(ns_since(t))
    };
    l.sample(
        "agg.switchml.add_wire_ns_per_elem",
        cfg,
        round.elems(),
        || add_round(&mut sml),
    )?;
    add_round(&mut sml)?;
    l.sample(
        "agg.switchml.read_range_ns_per_slot",
        cfg,
        slots as f64,
        || {
            let t = Instant::now();
            black_box(sml.read_range(0, slots).map_err(e)?);
            Ok(ns_since(t))
        },
    )?;
    l.sample(
        "agg.switchml.clear_range_ns_per_slot",
        cfg,
        slots as f64,
        || {
            let t = Instant::now();
            sml.clear_range(0, slots).map_err(e)?;
            Ok(ns_since(t))
        },
    )
}

/// `AggregationSwitch` self time: the front-door call and the layer
/// calls it is made of, on the same packets (`derive` subtracts them).
fn switch_rows(
    l: &mut Ledger,
    cfg: ProbeCfg,
    round: &Round,
    agg: &FpisaAggregator,
) -> Result<(), String> {
    let spec = round.spec;
    let chunks = spec.chunks();
    let slots = spec.elements;
    let mut pkts = round.pkts.clone();
    let restamp = |pkts: &mut [AggPacket], r: u32| pkts.iter_mut().for_each(|p| p.round = r);

    // Scalar ingest, 8 workers.
    let mut sw = AggregationSwitch::new(spec, agg.clone()).map_err(e)?;
    let units = pkts.len() as f64;
    let mut r = 0u32;
    l.sample("agg.switch.ingest_ns_per_pkt", cfg, units, || {
        restamp(&mut pkts, r);
        let t = Instant::now();
        for pkt in &pkts {
            black_box(sw.ingest(pkt).map_err(e)?);
        }
        let ns = ns_since(t);
        for chunk in 0..chunks {
            sw.finish_round(chunk).map_err(e)?;
        }
        r += 1;
        Ok(ns)
    })?;
    let mut pool = SlotPool::new(spec).map_err(e)?;
    let mut backend = agg.clone();
    let mut r = 0u32;
    l.sample("agg.switch.ingest_parts_ns_per_pkt", cfg, units, || {
        restamp(&mut pkts, r);
        let t = Instant::now();
        for pkt in &pkts {
            if pool.check(pkt).accepted() {
                backend
                    .add_wire(spec.slot_range(pkt.chunk as usize).0, &pkt.payload)
                    .map_err(e)?;
            }
            black_box(pool.commit(pkt));
        }
        let ns = ns_since(t);
        backend.clear_range(0, slots).map_err(e)?;
        for chunk in 0..chunks {
            pool.advance_round(chunk).map_err(e)?;
        }
        r += 1;
        Ok(ns)
    })?;

    // Batched ingest, 2 workers.
    let spec2 = JobSpec { workers: 2, ..spec };
    let mut pkts2: Vec<AggPacket> = round
        .pkts
        .iter()
        .filter(|p| p.worker < 2)
        .cloned()
        .collect();
    let mut sw2 = AggregationSwitch::new(spec2, agg.clone()).map_err(e)?;
    let units = pkts2.len() as f64;
    let mut r = 0u32;
    l.sample("agg.switch.ingest_batch_ns_per_pkt", cfg, units, || {
        restamp(&mut pkts2, r);
        let t = Instant::now();
        black_box(sw2.ingest_batch(&pkts2).map_err(e)?);
        let ns = ns_since(t);
        for chunk in 0..chunks {
            sw2.finish_round(chunk).map_err(e)?;
        }
        r += 1;
        Ok(ns)
    })?;
    let mut pool = SlotPool::new(spec2).map_err(e)?;
    let mut r = 0u32;
    l.sample(
        "agg.switch.ingest_batch_parts_ns_per_pkt",
        cfg,
        units,
        || {
            restamp(&mut pkts2, r);
            let t = Instant::now();
            let mut accepted: Vec<(usize, &[u64])> = Vec::with_capacity(pkts2.len());
            for pkt in &pkts2 {
                if pool.check(pkt).accepted() {
                    accepted.push((
                        spec2.slot_range(pkt.chunk as usize).0,
                        pkt.payload.as_slice(),
                    ));
                }
            }
            backend.add_wire_multi(&accepted).map_err(e)?;
            for pkt in &pkts2 {
                black_box(pool.commit(pkt));
            }
            let ns = ns_since(t);
            backend.clear_range(0, slots).map_err(e)?;
            for chunk in 0..chunks {
                pool.advance_round(chunk).map_err(e)?;
            }
            r += 1;
            Ok(ns)
        },
    )
}

fn netsim_rows(l: &mut Ledger, cfg: ProbeCfg, net: &mut Netsim) -> Result<(), String> {
    let spec = net.spec();
    l.sample("netsim.new_us", cfg, 1e3, || {
        let backend = net.backend().clone();
        let plan = net.plan(0).clone();
        let t = Instant::now();
        black_box(Simulator::new(spec, backend, net.gradients(0), plan, net.config()).map_err(e)?);
        Ok(ns_since(t))
    })?;

    // Whole jobs, cycling the sets so the per-job times average the same
    // way the summed counters do.
    let job_elems = net.work() as f64;
    let mut set = 0usize;
    l.sample("netsim.lossy_ns_per_elem", cfg, job_elems, || {
        let (_, ns) = net.run_op(set % SETS)?;
        set += 1;
        Ok(ns)
    })?;
    let mut set = 0usize;
    l.sample("netsim.lossless_ns_per_elem", cfg, job_elems, || {
        let (_, ns) = net.lossless_op(set % SETS)?;
        set += 1;
        Ok(ns)
    })?;

    const QUEUE_EVENTS: usize = 1024;
    l.sample(
        "netsim.queue_ns_per_event",
        cfg,
        QUEUE_EVENTS as f64,
        || {
            let mut q = EventQueue::new();
            let t = Instant::now();
            for i in 0..QUEUE_EVENTS as u64 {
                // Scattered deadlines, like armed retransmission timers.
                q.push(
                    splitmix64(i) % 1_000_000,
                    Event::Timeout {
                        worker: (i % 8) as u32,
                        incarnation: 0,
                        chunk: (i % 16) as u32,
                        round: 0,
                        epoch: i as u32,
                    },
                );
            }
            while let Some(ev) = q.pop() {
                black_box(ev);
            }
            Ok(ns_since(t))
        },
    )?;

    let frame_bits = net.frame_lengths()?.0 * 8;
    let faults = net.plan(0).faults_for(0);
    let mut rng = net.plan(0).rng_for(0);
    const FRAMES: usize = 1024;
    l.sample("netsim.transmit_ns_per_frame", cfg, FRAMES as f64, || {
        let t = Instant::now();
        for _ in 0..FRAMES {
            black_box(transmit(&faults, &mut rng, frame_bits));
        }
        Ok(ns_since(t))
    })
}
