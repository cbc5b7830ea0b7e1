//! The four workloads: how each is set up from `--seed`, what one op
//! does (an all-reduce round, or a simulated job), the same op
//! re-created from the layers' public functions with a span around each
//! call, and the oracles every result is checked against.
//!
//! Only semantic public API is used — no strategy knob (`simd_kernels`,
//! `phase_c_order`, `split_lut_bits`, `parallel_min`, `parallelism`,
//! `engine`) appears anywhere in this package.

use crate::ledger::Ledger;
use crate::spans::{Aggregate, Tracer};
use crate::stats::{hash_values, splitmix64};
use fpisa_agg::{
    aggregate_through_protocol, encode_ack, encode_packet, AckPacket, AggPacket, AggStats,
    AggregationSwitch, Aggregator, ExactF64, FpisaAggregator, GradientWorkload, JobSpec, PoolStats,
    SlotPool, SwitchMlFixedPoint,
};
use fpisa_core::FpisaAccumulator;
use fpisa_netsim::{run_allreduce, ChaosWorkload, FaultPlan, RunReport, SimConfig, Simulator};
use std::collections::BTreeMap;
use std::time::Instant;

/// Gradient sets per run, cycled per op, drawn from `mix(seed) + 0..3`.
pub const SETS: usize = 4;

/// Cross-element magnitude spread of the gradients, in binades (Fig. 10).
pub const DYNAMIC_RANGE_BITS: u32 = 16;

/// The seed of gradient set `set` for a run seeded `seed`.
pub fn set_seed(seed: u64, set: usize) -> u64 {
    splitmix64(seed).wrapping_add(set as u64)
}

/// What the correctness gates and the exact-repeat metrics need from one
/// verification pass over every gradient set.
#[derive(Debug, Clone, Default)]
pub struct Verified {
    /// Every oracle agreed on every set.
    pub ok: bool,
    /// First disagreement, for the operator.
    pub detail: Option<String>,
    /// Per-element relative error of the read-out vs the exact `f64`
    /// reduction (Fig. 10 definition and floor), over all sets.
    pub rel_err_mean: f64,
    pub rel_err_max: f64,
    /// Frame bytes (data + acks) per element-addition completed.
    pub wire_bytes_per_elem: f64,
    /// Numeric accounting of one round per set on a backend with its
    /// accounting mirrors on.
    pub stats: AggStats,
    /// Switch-side pool counters over the verification ops.
    pub pool: PoolStats,
    /// Simulator counters summed over the sets' lossy jobs (netsim only).
    pub sim: Option<SimCounts>,
}

impl Verified {
    fn fail(&mut self, detail: String) {
        self.ok = false;
        self.detail.get_or_insert(detail);
    }
}

/// Exact-repeat simulator counters, summed over the gradient sets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub events: u64,
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub acks_sent: u64,
    pub corrupt_rejected: u64,
    pub sim_ns: u64,
    pub completed_chunks: u64,
    /// Element-additions the jobs completed.
    pub elem_adds: u64,
}

impl SimCounts {
    fn add(&mut self, r: &RunReport, elem_adds: u64) {
        self.events += r.events;
        self.sent += r.sent;
        self.delivered += r.delivered;
        self.dropped += r.dropped;
        self.retransmits += r.retransmits;
        self.timeouts += r.timeouts;
        self.acks_sent += r.acks_sent;
        self.corrupt_rejected += r.corrupt_rejected;
        self.sim_ns += r.sim_ns;
        self.completed_chunks += r.pool.completed_chunks;
        self.elem_adds += elem_adds;
    }
}

fn add_pool(into: &mut PoolStats, s: &PoolStats) {
    into.accepted += s.accepted;
    into.duplicates += s.duplicates;
    into.stale += s.stale;
    into.future += s.future;
    into.malformed += s.malformed;
    into.deregistered += s.deregistered;
    into.completed_chunks += s.completed_chunks;
}

/// Share of a traced op's time per layer (sums to `1 − residual`).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerShares {
    pub protocol: f64,
    pub pool: f64,
    pub backend: f64,
    pub sim: f64,
    pub residual: f64,
}

/// One workload, as the harness drives it.
pub trait Scenario: Sized {
    /// What one op returns for checking.
    type Out;

    /// Element-additions one op completes.
    fn work(&self) -> u64;

    /// One op through the library's front door. Returns the result and
    /// the nanoseconds spent inside library calls (the op timer: harness
    /// buffers, backend cloning and result hashing sit outside it).
    fn run_op(&mut self, set: usize) -> Result<(Self::Out, u64), String>;

    /// The same op re-created from the layers' public functions, with a
    /// span around each call. Returns the result and the root span's
    /// nanoseconds.
    fn traced_op(&mut self, set: usize, t: &mut Tracer) -> Result<(Self::Out, u64), String>;

    /// Run every oracle over every gradient set and remember each set's
    /// verified result hash. Must run before [`Scenario::check`].
    fn verify(&mut self) -> Result<Verified, String>;

    /// Whether an op's result is the verified one (hash comparison; no
    /// packet refused, no chunk degraded).
    fn check(&self, set: usize, out: &Self::Out) -> bool;

    /// Flip one bit of a result, as a fault in the library would — the
    /// hook behind `--inject-fault`, which shows that a wrong result is
    /// counted as a failed op.
    fn corrupt(out: &mut Self::Out);

    /// Where the traced op's time went, by layer, from the span totals
    /// (and, where the op cannot be opened from outside, the ledger's
    /// model of it).
    fn shares(&self, totals: &BTreeMap<&'static str, Aggregate>, ledger: &Ledger) -> LayerShares;
}

/// Total nanoseconds of every span whose name starts with `prefix`.
fn total_ns(totals: &BTreeMap<&'static str, Aggregate>, prefix: &str) -> f64 {
    totals
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, a)| a.total_ns as f64)
        .sum()
}

// ---------------------------------------------------------------------
// All-reduce rounds on an `AggregationSwitch`
// ---------------------------------------------------------------------

/// A switch backend the all-reduce workloads can run on, with its oracle.
pub trait Backend: Aggregator + Clone {
    /// The backend as the timed windows use it (accounting mirrors off
    /// where the backend lets them be turned off).
    fn build(slots: usize, workers: u32, max_abs: f64) -> Result<Self, String>;

    /// The same backend with numeric accounting on (verification only).
    fn accounting(slots: usize, workers: u32, max_abs: f64) -> Result<Self, String>;

    /// The read-out an independent model predicts for one round: `words`
    /// is `[worker][element]`, folded per slot in worker order.
    fn oracle(&self, words: &[Vec<u64>]) -> Result<Vec<f64>, String>;
}

impl Backend for FpisaAggregator {
    fn build(slots: usize, workers: u32, max_abs: f64) -> Result<Self, String> {
        Ok(Self::accounting(slots, workers, max_abs)?.with_shadow_stats(false))
    }

    fn accounting(slots: usize, _workers: u32, _max_abs: f64) -> Result<Self, String> {
        FpisaAggregator::fp16_tofino(slots).map_err(|e| e.to_string())
    }

    /// Per-slot `fpisa_core::FpisaAccumulator`s, configured from the
    /// pipeline, fed the same wire words in the same order.
    fn oracle(&self, words: &[Vec<u64>]) -> Result<Vec<f64>, String> {
        let cfg = self.pipeline().core_config();
        let format = self.pipeline().format();
        let elements = words.first().map_or(0, Vec::len);
        (0..elements)
            .map(|i| {
                let mut acc = FpisaAccumulator::new(cfg);
                for w in words {
                    acc.add_bits_quiet(w[i]).map_err(|e| e.to_string())?;
                }
                Ok(format.decode(acc.read_bits()))
            })
            .collect()
    }
}

impl Backend for SwitchMlFixedPoint {
    fn build(slots: usize, workers: u32, max_abs: f64) -> Result<Self, String> {
        // Twice the workload maximum: headroom so no element clips.
        SwitchMlFixedPoint::for_workload(slots, 2.0 * max_abs, workers).map_err(|e| e.to_string())
    }

    fn accounting(slots: usize, workers: u32, max_abs: f64) -> Result<Self, String> {
        Self::build(slots, workers, max_abs)
    }

    /// The host integer sum of the sign-extended 32-bit words × scale.
    fn oracle(&self, words: &[Vec<u64>]) -> Result<Vec<f64>, String> {
        let elements = words.first().map_or(0, Vec::len);
        Ok((0..elements)
            .map(|i| {
                let sum: i64 = words.iter().map(|w| i64::from(w[i] as u32 as i32)).sum();
                sum as f64 * self.scale()
            })
            .collect())
    }
}

/// Shape of an all-reduce workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub workers: u32,
    pub elements: usize,
    pub elements_per_packet: usize,
    /// Whole round through one `ingest_batch` instead of one `ingest`
    /// per packet.
    pub batched: bool,
}

impl Shape {
    pub const PKT8: Shape = Shape {
        workers: 8,
        elements: 4096,
        elements_per_packet: 64,
        batched: false,
    };
    pub const BATCH2: Shape = Shape {
        workers: 2,
        elements: 4096,
        elements_per_packet: 64,
        batched: true,
    };

    /// The Fig. 10 gradient generator at this shape.
    pub fn gradient_workload(&self, seed: u64) -> GradientWorkload {
        GradientWorkload {
            workers: self.workers,
            elements: self.elements,
            elements_per_packet: self.elements_per_packet,
            seed,
            ..GradientWorkload::fig10(DYNAMIC_RANGE_BITS)
        }
    }
}

/// Result of one all-reduce round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOut {
    pub values: Vec<f64>,
    /// Packets the pool did not accept.
    pub rejected: u64,
}

/// One round through a switch's front door: packetize, ingest, read the
/// whole gradient, finish every chunk's round.
pub fn switch_round<B: Aggregator>(
    sw: &mut AggregationSwitch<B>,
    round: u32,
    words: &[Vec<u64>],
    batched: bool,
) -> Result<RoundOut, String> {
    let spec = *sw.pool().spec();
    let mut rejected = 0u64;
    if batched {
        let mut pkts = Vec::with_capacity(spec.chunks() * words.len());
        for (w, g) in words.iter().enumerate() {
            pkts.extend(spec.packetize(w as u32, round, g));
        }
        let decisions = sw.ingest_batch(&pkts).map_err(|e| e.to_string())?;
        rejected += decisions.iter().filter(|d| !d.accepted()).count() as u64;
    } else {
        for (w, g) in words.iter().enumerate() {
            for pkt in spec.packetize(w as u32, round, g) {
                if !sw.ingest(&pkt).map_err(|e| e.to_string())?.accepted() {
                    rejected += 1;
                }
            }
        }
    }
    let values = sw.read_all().map_err(|e| e.to_string())?;
    for chunk in 0..spec.chunks() {
        sw.finish_round(chunk).map_err(|e| e.to_string())?;
    }
    Ok(RoundOut { values, rejected })
}

/// Per-element relative errors, Fig. 10 style: the denominator is
/// floored at the smallest base magnitude an element can have.
pub fn relative_errors(got: &[f64], exact: &[f64], floor: f64) -> Vec<f64> {
    got.iter()
        .zip(exact)
        .map(|(&g, &e)| (g - e).abs() / e.abs().max(floor))
        .collect()
}

/// First index at which two read-outs differ bit for bit.
pub fn first_mismatch(got: &[f64], want: &[f64]) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
}

/// An all-reduce workload on backend `B`.
pub struct Allreduce<B: Backend> {
    shape: Shape,
    spec: JobSpec,
    generators: Vec<GradientWorkload>,
    /// `[set][worker][element]`
    gradients: Vec<Vec<Vec<f64>>>,
    words: Vec<Vec<Vec<u64>>>,
    max_abs: f64,
    switch: AggregationSwitch<B>,
    round: u32,
    /// The traced sibling: own pool and backend, driven layer by layer.
    traced: Option<(SlotPool, B, u32)>,
    verified: Vec<u64>,
}

impl<B: Backend> Allreduce<B> {
    /// Fresh set-up (this is what `setup_s` times): generate the four
    /// gradient sets, build the backend from its spec, bind it to the
    /// job, encode every gradient to wire words.
    pub fn setup(shape: Shape, seed: u64) -> Result<Self, String> {
        let generators: Vec<GradientWorkload> = (0..SETS)
            .map(|k| shape.gradient_workload(set_seed(seed, k)))
            .collect();
        let gradients: Vec<Vec<Vec<f64>>> = generators.iter().map(|g| g.generate()).collect();
        let max_abs = gradients
            .iter()
            .map(|g| GradientWorkload::max_abs(g))
            .fold(0.0, f64::max);
        let spec = generators[0].job_spec();
        let backend = B::build(shape.elements, shape.workers, max_abs)?;
        let mut switch = AggregationSwitch::new(spec, backend).map_err(|e| e.to_string())?;
        let words = gradients
            .iter()
            .map(|set| {
                set.iter()
                    .map(|g| g.iter().map(|&x| switch.backend_mut().encode(x)).collect())
                    .collect()
            })
            .collect();
        Ok(Allreduce {
            shape,
            spec,
            generators,
            gradients,
            words,
            max_abs,
            switch,
            round: 0,
            traced: None,
            verified: Vec::new(),
        })
    }

    pub fn spec(&self) -> JobSpec {
        self.spec
    }
}

impl<B: Backend> Scenario for Allreduce<B> {
    type Out = RoundOut;

    fn work(&self) -> u64 {
        u64::from(self.shape.workers) * self.shape.elements as u64
    }

    fn run_op(&mut self, set: usize) -> Result<(RoundOut, u64), String> {
        let t = Instant::now();
        let out = switch_round(
            &mut self.switch,
            self.round,
            &self.words[set],
            self.shape.batched,
        );
        let ns = t.elapsed().as_nanos() as u64;
        self.round += 1;
        Ok((out?, ns))
    }

    fn traced_op(&mut self, set: usize, t: &mut Tracer) -> Result<(RoundOut, u64), String> {
        if self.traced.is_none() {
            let backend = B::build(self.shape.elements, self.shape.workers, self.max_abs)?;
            let pool = SlotPool::new(self.spec).map_err(|e| e.to_string())?;
            self.traced = Some((pool, backend, 0));
        }
        let (pool, backend, round) = self.traced.as_mut().expect("just initialised");
        let spec = self.spec;
        let err = |e: fpisa_agg::AggError| e.to_string();
        let mut rejected = 0u64;

        let root = t.enter("op");
        if self.shape.batched {
            let mut pkts: Vec<AggPacket> =
                Vec::with_capacity(spec.chunks() * self.words[set].len());
            for (w, g) in self.words[set].iter().enumerate() {
                let s = t.enter("agg.protocol.packetize");
                pkts.extend(spec.packetize(w as u32, *round, g));
                t.exit(s);
            }
            let mut chunks: Vec<(usize, &[u64])> = Vec::with_capacity(pkts.len());
            for pkt in &pkts {
                let s = t.enter("agg.pool.check");
                let decision = pool.check(pkt);
                t.exit(s);
                if decision.accepted() {
                    chunks.push((
                        spec.slot_range(pkt.chunk as usize).0,
                        pkt.payload.as_slice(),
                    ));
                }
            }
            let s = t.enter("agg.backend.add_wire_multi");
            let folded = backend.add_wire_multi(&chunks);
            t.exit(s);
            folded.map_err(err)?;
            for pkt in &pkts {
                let s = t.enter("agg.pool.commit");
                let decision = pool.commit(pkt);
                t.exit(s);
                rejected += u64::from(!decision.accepted());
            }
        } else {
            for (w, g) in self.words[set].iter().enumerate() {
                let s = t.enter("agg.protocol.packetize");
                let pkts = spec.packetize(w as u32, *round, g);
                t.exit(s);
                for pkt in &pkts {
                    let s = t.enter("agg.pool.check");
                    let decision = pool.check(pkt);
                    t.exit(s);
                    if decision.accepted() {
                        let start = spec.slot_range(pkt.chunk as usize).0;
                        let s = t.enter("agg.backend.add_wire");
                        let folded = backend.add_wire(start, &pkt.payload);
                        t.exit(s);
                        folded.map_err(err)?;
                    }
                    let s = t.enter("agg.pool.commit");
                    let decision = pool.commit(pkt);
                    t.exit(s);
                    rejected += u64::from(!decision.accepted());
                }
            }
        }
        let s = t.enter("agg.backend.read_range");
        let values = backend.read_range(0, spec.elements);
        t.exit(s);
        let values = values.map_err(err)?;
        for chunk in 0..spec.chunks() {
            let (start, len) = spec.slot_range(chunk);
            let s = t.enter("agg.backend.clear_range");
            let cleared = backend.clear_range(start, len);
            t.exit(s);
            cleared.map_err(err)?;
            let s = t.enter("agg.pool.advance_round");
            let advanced = pool.advance_round(chunk);
            t.exit(s);
            advanced.map_err(err)?;
        }
        t.exit(root);
        *round += 1;
        let ns = t.duration_ns(root);
        Ok((RoundOut { values, rejected }, ns))
    }

    fn verify(&mut self) -> Result<Verified, String> {
        let mut v = Verified {
            ok: true,
            ..Verified::default()
        };
        let floor = fpisa_core::format::pow2(-((DYNAMIC_RANGE_BITS / 2) as i32));
        let mut accounted = AggregationSwitch::new(
            self.spec,
            B::accounting(self.shape.elements, self.shape.workers, self.max_abs)?,
        )
        .map_err(|e| e.to_string())?;
        let mut errs: Vec<f64> = Vec::with_capacity(SETS * self.shape.elements);
        let mut wire_bytes = 0u64;
        self.verified.clear();
        for set in 0..SETS {
            let (out, _) = self.run_op(set)?;
            if out.rejected != 0 {
                v.fail(format!("set {set}: {} packets not accepted", out.rejected));
            }
            let want = self.switch.backend().oracle(&self.words[set])?;
            if let Some(i) = first_mismatch(&out.values, &want) {
                v.fail(format!(
                    "set {set}: read-out differs from the oracle at element {i}"
                ));
            }
            // The accounting mirrors change nothing but the statistics.
            let mirrored = switch_round(
                &mut accounted,
                set as u32,
                &self.words[set],
                self.shape.batched,
            )?;
            if let Some(i) = first_mismatch(&mirrored.values, &out.values) {
                v.fail(format!(
                    "set {set}: accounting backend differs at element {i}"
                ));
            }
            let (exact, _) = aggregate_through_protocol(
                &self.generators[set],
                &self.gradients[set],
                ExactF64::new(self.shape.elements),
            )
            .map_err(|e| e.to_string())?;
            errs.extend(relative_errors(&out.values, &exact, floor));
            let word_bytes = self.switch.backend().word_bytes();
            for (w, g) in self.words[set].iter().enumerate() {
                for pkt in self.spec.packetize(w as u32, 0, g) {
                    wire_bytes += encode_packet(&pkt, word_bytes)
                        .map_err(|e| e.to_string())?
                        .len() as u64;
                }
            }
            self.verified.push(hash_values(&out.values));
        }
        v.rel_err_mean = errs.iter().sum::<f64>() / errs.len() as f64;
        v.rel_err_max = errs.iter().fold(0.0, |m, &e| m.max(e));
        v.wire_bytes_per_elem = wire_bytes as f64 / (SETS as u64 * self.work()) as f64;
        v.stats = accounted.backend().stats();
        // Clipping is accounted where the gradients were encoded.
        v.stats.clipped = self.switch.backend().stats().clipped;
        v.pool = *self.switch.pool().stats();
        Ok(v)
    }

    fn check(&self, set: usize, out: &RoundOut) -> bool {
        out.rejected == 0 && self.verified.get(set) == Some(&hash_values(&out.values))
    }

    fn corrupt(out: &mut RoundOut) {
        if let Some(v) = out.values.last_mut() {
            *v = f64::from_bits(v.to_bits() ^ 1);
        }
    }

    fn shares(&self, totals: &BTreeMap<&'static str, Aggregate>, _: &Ledger) -> LayerShares {
        let op = total_ns(totals, "op").max(1.0);
        let protocol = total_ns(totals, "agg.protocol.") / op;
        let pool = total_ns(totals, "agg.pool.") / op;
        let backend = total_ns(totals, "agg.backend.") / op;
        LayerShares {
            protocol,
            pool,
            backend,
            sim: 0.0,
            residual: (1.0 - protocol - pool - backend).abs(),
        }
    }
}

// ---------------------------------------------------------------------
// Simulated jobs through fpisa-netsim
// ---------------------------------------------------------------------

/// The netsim workload's shape (constants of `netsim_fp16_loss10`).
///
/// Fan-in 4, not 8: FPISA-A holds FP16 in 16-bit registers at the
/// exponent of the first arrival, so a slot whose first value has
/// exponent 0 saturates once `|Σ| ≥ 32`. `ChaosWorkload` values reach 7,
/// so six or more workers can (and at 1024 elements × 8 rounds, on most
/// seeds do) saturate a slot — after which the sum is neither exact nor
/// independent of arrival order. With 4 workers `|Σ| ≤ 22.75`: every
/// job is exact on every seed. 16 rounds keep the job at the 65 536
/// element-additions and 1024 first-send frames of an 8 × 8 job.
pub const NETSIM_SHAPE: ChaosWorkload = ChaosWorkload {
    workers: 4,
    elements: 1024,
    elements_per_packet: 64,
    rounds: 16,
    seed: 0,
};

/// The fault plan every job of a set runs under.
pub fn loss10_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drop(0.10)
        .duplicate(0.05)
        .reorder(0.05, 40_000)
        .corrupt(0.01)
}

/// `netsim_fp16_loss10`: a 16-round FP16 job through the simulator.
pub struct Netsim {
    spec: JobSpec,
    /// `[set][round][worker][element]`
    gradients: Vec<Vec<Vec<Vec<f64>>>>,
    plans: Vec<FaultPlan>,
    backend: FpisaAggregator,
    cfg: SimConfig,
    /// Per set: (trace hash, result hash) of the verified lossy job.
    verified: Vec<(u64, u64)>,
}

impl Netsim {
    /// Fresh set-up: generate the four gradient sets, build the backend,
    /// and build (validate + pre-encode) one simulator per set.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let spec = NETSIM_SHAPE.spec(1);
        let cfg = SimConfig::default();
        let backend = FpisaAggregator::fp16_tofino(NETSIM_SHAPE.elements)
            .map_err(|e| e.to_string())?
            .with_shadow_stats(false);
        let mut gradients = Vec::with_capacity(SETS);
        let mut plans = Vec::with_capacity(SETS);
        for set in 0..SETS {
            let s = set_seed(seed, set);
            let grads = ChaosWorkload {
                seed: s,
                ..NETSIM_SHAPE
            }
            .gradients();
            let plan = loss10_plan(s);
            Simulator::new(spec, backend.clone(), &grads, plan.clone(), cfg)
                .map_err(|e| e.to_string())?;
            gradients.push(grads);
            plans.push(plan);
        }
        Ok(Netsim {
            spec,
            gradients,
            plans,
            backend,
            cfg,
            verified: Vec::new(),
        })
    }

    pub fn spec(&self) -> JobSpec {
        self.spec
    }

    pub fn backend(&self) -> &FpisaAggregator {
        &self.backend
    }

    pub fn gradients(&self, set: usize) -> &[Vec<Vec<f64>>] {
        &self.gradients[set]
    }

    pub fn plan(&self, set: usize) -> &FaultPlan {
        &self.plans[set]
    }

    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// One lossless job on a set's gradients (ns inside `run_allreduce`).
    pub fn lossless_op(&self, set: usize) -> Result<(RunReport, u64), String> {
        let backend = self.backend.clone();
        let plan = FaultPlan::lossless(self.plans[set].seed());
        let t = Instant::now();
        let report = run_allreduce(self.spec, backend, &self.gradients[set], plan, self.cfg);
        let ns = t.elapsed().as_nanos() as u64;
        Ok((report.map_err(|e| e.to_string())?, ns))
    }

    /// Bytes of one data frame and one ack frame of this job.
    pub fn frame_lengths(&self) -> Result<(usize, usize), String> {
        let pkt = AggPacket {
            job: self.spec.job,
            worker: 0,
            round: 0,
            chunk: 0,
            payload: vec![0; self.spec.elements_per_packet],
        };
        let data = encode_packet(&pkt, self.backend.word_bytes()).map_err(|e| e.to_string())?;
        let ack = encode_ack(&AckPacket {
            job: self.spec.job,
            worker: 0,
            round: 0,
            chunk: 0,
            contributors: 0,
            current_round: 0,
            recorded: true,
            complete: false,
        })
        .map_err(|e| e.to_string())?;
        Ok((data.len(), ack.len()))
    }
}

/// Flatten a job's per-round results for hashing.
fn job_hash(report: &RunReport) -> u64 {
    crate::stats::fnv1a(report.results.iter().flatten().map(|v| v.to_bits()))
}

impl Scenario for Netsim {
    type Out = RunReport;

    fn work(&self) -> u64 {
        u64::from(NETSIM_SHAPE.workers)
            * NETSIM_SHAPE.elements as u64
            * u64::from(NETSIM_SHAPE.rounds)
    }

    fn run_op(&mut self, set: usize) -> Result<(RunReport, u64), String> {
        let backend = self.backend.clone();
        let plan = self.plans[set].clone();
        let t = Instant::now();
        let report = run_allreduce(self.spec, backend, &self.gradients[set], plan, self.cfg);
        let ns = t.elapsed().as_nanos() as u64;
        Ok((report.map_err(|e| e.to_string())?, ns))
    }

    fn traced_op(&mut self, set: usize, t: &mut Tracer) -> Result<(RunReport, u64), String> {
        let backend = self.backend.clone();
        let plan = self.plans[set].clone();
        let root = t.enter("op");
        let s = t.enter("netsim.new");
        let sim = Simulator::new(self.spec, backend, &self.gradients[set], plan, self.cfg);
        t.exit(s);
        let sim = sim.map_err(|e| e.to_string())?;
        let s = t.enter("netsim.run");
        let report = sim.run();
        t.exit(s);
        t.exit(root);
        Ok((report.map_err(|e| e.to_string())?, t.duration_ns(root)))
    }

    fn verify(&mut self) -> Result<Verified, String> {
        let mut v = Verified {
            ok: true,
            ..Verified::default()
        };
        let (data_len, ack_len) = self.frame_lengths()?;
        let mut sim = SimCounts::default();
        let mut accounted = AggregationSwitch::new(
            self.spec,
            FpisaAggregator::fp16_tofino(self.spec.elements).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        let mut errs = Vec::new();
        self.verified.clear();
        for set in 0..SETS {
            let exact = ChaosWorkload::exact_sums(&self.gradients[set]);
            let (clean, _) = self.lossless_op(set)?;
            let (lossy, _) = self.run_op(set)?;
            for (name, report) in [("lossless", &clean), ("lossy", &lossy)] {
                if !report.clean() {
                    v.fail(format!(
                        "set {set}: {name} job degraded or incomplete ({} / {})",
                        report.degraded_chunks, report.incomplete_chunks
                    ));
                }
                for (r, (got, want)) in report.results.iter().zip(&exact).enumerate() {
                    if let Some(i) = first_mismatch(got, want) {
                        v.fail(format!(
                            "set {set}: {name} job round {r} differs from the exact sums at element {i}"
                        ));
                    }
                }
            }
            for (got, want) in lossy.results.iter().zip(&exact) {
                errs.extend(relative_errors(got, want, 1.0));
            }
            // Numeric accounting of the same rounds, on a mirrored backend.
            for (r, round) in self.gradients[set].iter().enumerate() {
                let words: Vec<Vec<u64>> = round
                    .iter()
                    .map(|g| {
                        g.iter()
                            .map(|&x| accounted.backend_mut().encode(x))
                            .collect()
                    })
                    .collect();
                let round_no = (set * self.gradients[set].len() + r) as u32;
                switch_round(&mut accounted, round_no, &words, false)?;
            }
            sim.add(&lossy, self.work());
            add_pool(&mut v.pool, &lossy.pool);
            self.verified.push((lossy.trace_hash, job_hash(&lossy)));
        }
        v.rel_err_mean = errs.iter().sum::<f64>() / errs.len() as f64;
        v.rel_err_max = errs.iter().fold(0.0, |m, &e| m.max(e));
        v.wire_bytes_per_elem = (sim.sent * data_len as u64 + sim.acks_sent * ack_len as u64)
            as f64
            / sim.elem_adds as f64;
        v.stats = accounted.backend().stats();
        v.sim = Some(sim);
        Ok(v)
    }

    fn check(&self, set: usize, out: &RunReport) -> bool {
        out.clean() && self.verified.get(set) == Some(&(out.trace_hash, job_hash(out)))
    }

    fn corrupt(out: &mut RunReport) {
        if let Some(v) = out.results.last_mut().and_then(|r| r.last_mut()) {
            *v = f64::from_bits(v.to_bits() ^ 1);
        }
    }

    /// The simulator cannot be opened from outside, so the protocol,
    /// pool and backend shares are the ledger's model of the job (counts
    /// × unit costs); the simulator's own share is what is left.
    fn shares(&self, totals: &BTreeMap<&'static str, Aggregate>, ledger: &Ledger) -> LayerShares {
        let op = total_ns(totals, "op").max(1.0);
        let residual = (1.0 - total_ns(totals, "netsim.") / op).abs();
        let m = ledger.netsim_model();
        let (protocol, pool, backend) = (m.wire / m.job, m.pool / m.job, m.backend / m.job);
        LayerShares {
            protocol,
            pool,
            backend,
            sim: 1.0 - protocol - pool - backend - residual,
            residual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        workers: 3,
        elements: 96,
        elements_per_packet: 32,
        batched: false,
    };

    fn corrupt_one_element(out: &RoundOut) -> RoundOut {
        let mut bad = out.clone();
        bad.values[5] = f64::from_bits(bad.values[5].to_bits() ^ 1);
        bad
    }

    #[test]
    fn the_fault_hook_fails_the_check() {
        let mut s = Allreduce::<FpisaAggregator>::setup(TINY, 4).unwrap();
        assert!(s.verify().unwrap().ok);
        let (mut out, _) = s.run_op(0).unwrap();
        Allreduce::<FpisaAggregator>::corrupt(&mut out);
        assert!(!s.check(0, &out));
    }

    #[test]
    fn fpisa_oracle_accepts_the_switch_and_rejects_a_corrupted_result() {
        let mut s = Allreduce::<FpisaAggregator>::setup(TINY, 11).unwrap();
        let v = s.verify().unwrap();
        assert!(v.ok, "{:?}", v.detail);
        assert!(v.rel_err_mean > 0.0 && v.rel_err_max >= v.rel_err_mean);
        let (out, ns) = s.run_op(2).unwrap();
        assert!(ns > 0);
        assert!(s.check(2, &out));
        assert!(!s.check(1, &out), "another set's result has another hash");
        assert!(!s.check(2, &corrupt_one_element(&out)), "one flipped bit");
        let mut refused = out.clone();
        refused.rejected = 1;
        assert!(!s.check(2, &refused), "a refused packet fails the op");
        // The oracle itself: feed it words the switch did not see.
        let mut tampered = Allreduce::<FpisaAggregator>::setup(TINY, 11).unwrap();
        let want = tampered
            .switch
            .backend()
            .oracle(&tampered.words[0])
            .unwrap();
        tampered.words[0][1][7] ^= 0x0400;
        let (got, _) = tampered.run_op(0).unwrap();
        assert_eq!(first_mismatch(&got.values, &want), Some(7));
    }

    #[test]
    fn switchml_oracle_accepts_the_switch_and_rejects_a_corrupted_result() {
        let mut s = Allreduce::<SwitchMlFixedPoint>::setup(TINY, 12).unwrap();
        let v = s.verify().unwrap();
        assert!(v.ok, "{:?}", v.detail);
        assert_eq!(v.stats.clipped, 0, "2× headroom: nothing clips");
        assert!(v.rel_err_mean > 0.0);
        let (out, _) = s.run_op(0).unwrap();
        assert!(s.check(0, &out));
        assert!(!s.check(0, &corrupt_one_element(&out)));
        let want = s.switch.backend().oracle(&s.words[0]).unwrap();
        assert_eq!(first_mismatch(&out.values, &want), None);
        assert_eq!(
            first_mismatch(&corrupt_one_element(&out).values, &want),
            Some(5)
        );
    }

    #[test]
    fn batched_and_traced_rounds_agree_with_the_front_door() {
        let shape = Shape {
            batched: true,
            workers: 2,
            ..TINY
        };
        for shape in [shape, TINY] {
            let mut s = Allreduce::<FpisaAggregator>::setup(shape, 5).unwrap();
            assert!(s.verify().unwrap().ok);
            let mut t = Tracer::new(1);
            for set in 0..SETS {
                let (traced, ns) = s.traced_op(set, &mut t).unwrap();
                t.finish_op();
                assert!(ns > 0);
                assert!(
                    s.check(set, &traced),
                    "traced round must reproduce set {set}"
                );
            }
            let totals = t.totals();
            let chunks = s.spec().chunks() as u64;
            let pkts = chunks * u64::from(shape.workers);
            assert_eq!(totals["op"].count, SETS as u64);
            assert_eq!(totals["agg.pool.check"].count, SETS as u64 * pkts);
            assert_eq!(totals["agg.pool.commit"].count, SETS as u64 * pkts);
            assert_eq!(totals["agg.pool.advance_round"].count, SETS as u64 * chunks);
            let adds = if shape.batched {
                totals["agg.backend.add_wire_multi"].count
            } else {
                totals["agg.backend.add_wire"].count / pkts
            };
            assert_eq!(adds, SETS as u64);
        }
    }

    #[test]
    fn netsim_oracle_accepts_chaos_and_rejects_a_corrupted_report() {
        let mut s = Netsim::setup(3).unwrap();
        let v = s.verify().unwrap();
        assert!(v.ok, "{:?}", v.detail);
        assert_eq!(v.rel_err_max, 0.0, "chaos sums are exact");
        let sim = v.sim.unwrap();
        assert!(sim.retransmits > 0 && sim.dropped > 0);
        assert!(v.pool.duplicates > 0);
        assert!(v.wire_bytes_per_elem > 154.0 / 64.0);
        let (report, _) = s.run_op(1).unwrap();
        assert!(s.check(1, &report), "same seed, same trajectory");
        assert!(!s.check(0, &report));
        let mut bad = report.clone();
        bad.results[3][17] += 0.25;
        assert!(!s.check(1, &bad), "a wrong sum");
        let mut bad = report.clone();
        Netsim::corrupt(&mut bad);
        assert!(!s.check(1, &bad), "the fault hook");
        let mut bad = report.clone();
        bad.trace_hash ^= 1;
        assert!(!s.check(1, &bad), "a different trajectory");
        let mut bad = report.clone();
        bad.degraded_chunks = 1;
        assert!(!s.check(1, &bad), "a degraded chunk-round");
        let mut t = Tracer::new(0);
        let (traced, _) = s.traced_op(1, &mut t).unwrap();
        assert!(s.check(1, &traced));
    }

    #[test]
    fn seeds_select_the_gradients() {
        let a = Allreduce::<FpisaAggregator>::setup(TINY, 1).unwrap();
        let b = Allreduce::<FpisaAggregator>::setup(TINY, 1).unwrap();
        let c = Allreduce::<FpisaAggregator>::setup(TINY, 2).unwrap();
        assert_eq!(a.words, b.words);
        assert_ne!(a.words, c.words);
        assert_ne!(a.words[0], a.words[1], "sets differ within a seed");
    }
}
