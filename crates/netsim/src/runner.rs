//! The simulator proper: workers, links and the switch wired to the
//! event queue, driving the real `fpisa_agg` protocol end to end.
//!
//! Every frame that crosses a link is real encoded bytes
//! ([`fpisa_agg::encode_packet`] / [`fpisa_agg::encode_ack`]) mutated by
//! the link's fault stage and parsed by the production decoders, so
//! corruption, duplication and loss exercise exactly the code paths a
//! deployment would. The switch actor is a real
//! [`fpisa_agg::AggregationSwitch`] over any [`Aggregator`] backend: the
//! sums the simulator reports are computed by the same compiled PISA
//! programs as the cooperative tests.
//!
//! ## Liveness
//!
//! A run can never hang: every send arms a backoff timer, every timer
//! firing either retransmits or — past the retry budget — reports the
//! worker to the control plane, which deregisters it so remaining rounds
//! complete with the surviving contributor set ([`RunReport::shortfall`]).
//! If even that is impossible (every worker dead) the queue drains and
//! the run ends with `incomplete_chunks > 0`. A generous event budget
//! backstops the whole thing against bugs.

use crate::events::{Event, EventQueue, SimTime};
use crate::faults::{transmit, FaultPlan};
use crate::report::{RunReport, Shortfall};
use crate::topology::Topology;
use crate::worker::{ChunkPhase, RetryConfig, WorkerState};
use fpisa_agg::{
    decode_ack, decode_packet, encode_ack, encode_packet, AckPacket, AggError, AggPacket,
    AggregationSwitch, Aggregator, CompletedChunk, FrameError, JobSpec,
};
use rand::rngs::SmallRng;

/// Anything that can abort a simulation (never a hang: see the module
/// docs — protocol-level trouble degrades instead of erroring).
#[derive(Debug)]
pub enum SimError {
    /// The aggregation layer rejected an operation outright.
    Agg(AggError),
    /// A frame failed to encode (malformed job parameters).
    Frame(FrameError),
    /// Inconsistent simulator inputs.
    BadConfig(String),
    /// The event budget was exhausted — a liveness bug, not a timeout.
    EventBudget { events: u64 },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Agg(e) => write!(f, "aggregation error: {e}"),
            SimError::Frame(e) => write!(f, "frame error: {e}"),
            SimError::BadConfig(d) => write!(f, "bad simulator config: {d}"),
            SimError::EventBudget { events } => {
                write!(f, "event budget exhausted after {events} events")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<AggError> for SimError {
    fn from(e: AggError) -> Self {
        SimError::Agg(e)
    }
}
impl From<FrameError> for SimError {
    fn from(e: FrameError) -> Self {
        SimError::Frame(e)
    }
}

/// Simulation knobs independent of the fault scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    pub topo: Topology,
    pub retry: RetryConfig,
    /// Hard cap on processed events (liveness backstop).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            topo: Topology::default(),
            retry: RetryConfig::default(),
            max_events: 10_000_000,
        }
    }
}

/// The assembled world: one switch, `spec.workers` hosts, faulty links.
pub struct Simulator<B: Aggregator> {
    spec: JobSpec,
    rounds: u32,
    cfg: SimConfig,
    plan: FaultPlan,
    switch: AggregationSwitch<B>,
    /// Pre-encoded wire words, `[round][worker][element]` — encoding up
    /// front keeps backend quantization independent of delivery order.
    words: Vec<Vec<Vec<u64>>>,
    word_bytes: u8,
    workers: Vec<WorkerState>,
    rngs: Vec<SmallRng>,
    queue: EventQueue,
    now: SimTime,
    report: RunReport,
    done_chunk_rounds: u64,
    total_chunk_rounds: u64,
}

impl<B: Aggregator> Simulator<B> {
    /// Build a simulator for an all-reduce of `gradients`, indexed
    /// `[round][worker][element]`. The number of rounds is
    /// `gradients.len()`.
    pub fn new(
        spec: JobSpec,
        backend: B,
        gradients: &[Vec<Vec<f64>>],
        plan: FaultPlan,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        spec.validate()?;
        plan.validate()?;
        if gradients.is_empty() {
            return Err(SimError::BadConfig("no rounds to simulate".into()));
        }
        for (r, round) in gradients.iter().enumerate() {
            if round.len() != spec.workers as usize {
                return Err(SimError::BadConfig(format!(
                    "round {r}: {} gradients for {} workers",
                    round.len(),
                    spec.workers
                )));
            }
            for (w, g) in round.iter().enumerate() {
                if g.len() != spec.elements {
                    return Err(SimError::BadConfig(format!(
                        "round {r} worker {w}: {} elements, spec says {}",
                        g.len(),
                        spec.elements
                    )));
                }
            }
        }
        let mut switch = AggregationSwitch::new(spec, backend)?;
        let word_bytes = switch.backend().word_bytes();
        let words: Vec<Vec<Vec<u64>>> = gradients
            .iter()
            .map(|round| {
                round
                    .iter()
                    .map(|g| g.iter().map(|&x| switch.backend_mut().encode(x)).collect())
                    .collect()
            })
            .collect();
        let rounds = gradients.len() as u32;
        let chunks = spec.chunks();
        let workers: Vec<WorkerState> = (0..spec.workers)
            .map(|w| WorkerState::new(w, chunks))
            .collect();
        let rngs: Vec<SmallRng> = (0..spec.workers).map(|w| plan.rng_for(w)).collect();
        let report = RunReport {
            results: vec![vec![0.0; spec.elements]; rounds as usize],
            ..RunReport::default()
        };
        Ok(Simulator {
            spec,
            rounds,
            cfg,
            plan,
            switch,
            words,
            word_bytes,
            workers,
            rngs,
            queue: EventQueue::new(),
            now: 0,
            report,
            done_chunk_rounds: 0,
            total_chunk_rounds: chunks as u64 * rounds as u64,
        })
    }

    /// Run to completion and return the report. Consumes the simulator:
    /// a run is a pure function of its inputs, replay by rebuilding.
    pub fn run(mut self) -> Result<RunReport, SimError> {
        for c in self.plan.crashes().to_vec() {
            self.queue.push(c.at_ns, Event::Crash { worker: c.worker });
            match c.restart_after_ns {
                Some(delay) => self
                    .queue
                    .push(c.at_ns + delay, Event::Restart { worker: c.worker }),
                None => self.queue.push(
                    c.at_ns + self.cfg.topo.link.detect_ns,
                    Event::Deregister { worker: c.worker },
                ),
            }
        }
        for w in 0..self.workers.len() {
            for chunk in 0..self.spec.chunks() {
                self.send_data(w, chunk)?;
            }
        }

        let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        while let Some((t, ev)) = self.queue.pop() {
            self.now = t;
            self.report.events += 1;
            if self.report.events > self.cfg.max_events {
                return Err(SimError::EventBudget {
                    events: self.report.events,
                });
            }
            hash = ev.fold_hash(t, hash);
            match ev {
                Event::DataArrive { from: _, frame } => self.on_data(&frame)?,
                Event::AckArrive { worker, frame } => self.on_ack(worker, &frame)?,
                Event::Timeout {
                    worker,
                    incarnation,
                    chunk,
                    round,
                    epoch,
                } => self.on_timeout(worker, incarnation, chunk, round, epoch)?,
                Event::Crash { worker } => self.on_crash(worker),
                Event::Restart { worker } => self.on_restart(worker)?,
                Event::Deregister { worker } => self.on_deregister(worker)?,
            }
            if self.done_chunk_rounds == self.total_chunk_rounds {
                break;
            }
        }

        self.report.sim_ns = self.now;
        self.report.trace_hash = hash;
        self.report.incomplete_chunks = self.total_chunk_rounds - self.done_chunk_rounds;
        self.report.pool = *self.switch.pool().stats();
        Ok(self.report)
    }

    /// Encode, pay the host cost, push through the faulty link, arm the
    /// retransmission timer.
    fn send_data(&mut self, w: usize, chunk: usize) -> Result<(), SimError> {
        let round = self.workers[w].chunks[chunk].round;
        let (start, len) = self.spec.slot_range(chunk);
        let pkt = AggPacket {
            job: self.spec.job,
            worker: w as u32,
            round,
            chunk: chunk as u32,
            payload: self.words[round as usize][w][start..start + len].to_vec(),
        };
        let frame = encode_packet(&pkt, self.word_bytes)?;
        self.report.sent += 1;

        let host_ns =
            self.cfg.topo.cost.packet_ns(len, frame.len()) + self.plan.straggler_ns(w as u32);
        let host_start = self.now.max(self.workers[w].next_tx_free_ns);
        let tx_done = host_start + host_ns;
        self.workers[w].next_tx_free_ns = tx_done;

        let faults = self.plan.faults_for(w as u32);
        let tx = transmit(&faults, &mut self.rngs[w], frame.len() * 8);
        self.fold_link_counters(&tx);
        for copy in tx.copies {
            let mut bytes = frame.clone();
            if let Some(bit) = copy.corrupt_bit {
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            let arrival = tx_done + self.cfg.topo.link.latency_ns + copy.extra_delay_ns;
            self.queue.push(
                arrival,
                Event::DataArrive {
                    from: w as u32,
                    frame: bytes,
                },
            );
        }
        let rto = self
            .cfg
            .retry
            .rto_for(self.workers[w].chunks[chunk].attempt);
        self.arm_timer(w, chunk, tx_done + rto);
        Ok(())
    }

    /// Push an ACK through the addressed worker's faulty link.
    fn send_ack(&mut self, ack: AckPacket) -> Result<(), SimError> {
        self.report.acks_sent += 1;
        let frame = encode_ack(&ack)?;
        let w = ack.worker as usize;
        let faults = self.plan.faults_for(ack.worker);
        let tx = transmit(&faults, &mut self.rngs[w], frame.len() * 8);
        self.fold_link_counters(&tx);
        for copy in tx.copies {
            let mut bytes = frame.clone();
            if let Some(bit) = copy.corrupt_bit {
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            let arrival = self.now
                + self.cfg.topo.link.switch_ns
                + self.cfg.topo.link.latency_ns
                + copy.extra_delay_ns;
            self.queue.push(
                arrival,
                Event::AckArrive {
                    worker: ack.worker,
                    frame: bytes,
                },
            );
        }
        Ok(())
    }

    fn fold_link_counters(&mut self, tx: &crate::faults::Transmission) {
        self.report.dropped += tx.dropped;
        self.report.duplicated += tx.duplicated;
        self.report.corrupted += tx.corrupted;
    }

    /// Arm (or supersede) the chunk's timer; earlier timers die by epoch.
    fn arm_timer(&mut self, w: usize, chunk: usize, at: SimTime) {
        let incarnation = self.workers[w].incarnation;
        let cp = &mut self.workers[w].chunks[chunk];
        cp.timer_epoch = cp.timer_epoch.wrapping_add(1);
        self.queue.push(
            at,
            Event::Timeout {
                worker: w as u32,
                incarnation,
                chunk: chunk as u32,
                round: cp.round,
                epoch: cp.timer_epoch,
            },
        );
    }

    /// A data frame reaches the switch ingress.
    fn on_data(&mut self, frame: &[u8]) -> Result<(), SimError> {
        let pkt = match decode_packet(frame) {
            Ok(pkt) => pkt,
            Err(_) => {
                self.report.corrupt_rejected += 1;
                return Ok(());
            }
        };
        self.report.delivered += 1;
        let outcome = self.switch.ingest_with_ack(&pkt)?;
        if let Some(ack) = outcome.ack {
            self.send_ack(ack)?;
        }
        if let Some(done) = outcome.completed {
            self.complete_chunk(done, Some(pkt.worker))?;
        }
        Ok(())
    }

    /// Record a completed chunk-round and notify the other workers. The
    /// worker whose packet triggered completion (`direct`) already got
    /// the news in its direct ACK.
    fn complete_chunk(
        &mut self,
        done: CompletedChunk,
        direct: Option<u32>,
    ) -> Result<(), SimError> {
        let (start, len) = self.spec.slot_range(done.chunk);
        self.report.results[done.round as usize][start..start + len].copy_from_slice(&done.values);
        self.done_chunk_rounds += 1;
        self.report.completed_rounds += 1;
        if done.contributors < self.spec.workers {
            self.report.degraded_chunks += 1;
            self.report.shortfall.push(Shortfall {
                round: done.round,
                chunk: done.chunk as u32,
                contributors: done.contributors,
                missing: (0..self.spec.workers)
                    .filter(|&w| done.contributed & (1u64 << w) == 0)
                    .collect(),
            });
        }
        for w in 0..self.spec.workers {
            if Some(w) == direct || self.workers[w as usize].failed {
                continue;
            }
            self.send_ack(AckPacket {
                job: self.spec.job,
                worker: w,
                round: done.round,
                chunk: done.chunk as u32,
                contributors: done.contributors,
                current_round: done.new_round,
                recorded: done.contributed & (1u64 << w) != 0,
                complete: true,
            })?;
        }
        Ok(())
    }

    /// An ACK frame reaches a worker NIC.
    fn on_ack(&mut self, w: u32, frame: &[u8]) -> Result<(), SimError> {
        let wi = w as usize;
        if !self.workers[wi].alive {
            self.report.acks_ignored += 1;
            return Ok(());
        }
        let ack = match decode_ack(frame) {
            Ok(a) => a,
            Err(_) => {
                self.report.corrupt_rejected += 1;
                return Ok(());
            }
        };
        if ack.job != self.spec.job || ack.worker != w {
            return Ok(());
        }
        self.report.acks_delivered += 1;
        let chunk = ack.chunk as usize;
        if chunk >= self.spec.chunks() {
            return Ok(());
        }
        let cp = self.workers[wi].chunks[chunk];
        if cp.phase == ChunkPhase::Done {
            return Ok(());
        }
        if ack.current_round > cp.round {
            // Our round (and possibly later ones) completed at the
            // switch — via our own packet, a completion notice, or a
            // stale-ack answer to a probe. Jump to the live round.
            self.advance_chunk(wi, chunk, ack.current_round)?;
        } else if ack.recorded && ack.round == cp.round && ack.current_round == cp.round {
            // Contribution recorded (first copy or idempotently-dropped
            // duplicate — indistinguishable by design). Hold for the
            // completion notice; keep a probe timer armed in case it is
            // lost.
            let rto = self.cfg.retry.rto_for(cp.attempt);
            self.workers[wi].chunks[chunk].phase = ChunkPhase::AwaitDone;
            self.arm_timer(wi, chunk, self.now + rto);
        }
        Ok(())
    }

    /// Move a chunk to `to_round`, sending immediately if rounds remain.
    fn advance_chunk(&mut self, wi: usize, chunk: usize, to_round: u32) -> Result<(), SimError> {
        let cp = &mut self.workers[wi].chunks[chunk];
        cp.round = to_round;
        cp.attempt = 0;
        cp.timer_epoch = cp.timer_epoch.wrapping_add(1); // kill stale timers
        if to_round >= self.rounds {
            cp.phase = ChunkPhase::Done;
            Ok(())
        } else {
            cp.phase = ChunkPhase::Sending;
            self.send_data(wi, chunk)
        }
    }

    fn on_timeout(
        &mut self,
        w: u32,
        incarnation: u32,
        chunk: u32,
        round: u32,
        epoch: u32,
    ) -> Result<(), SimError> {
        let wi = w as usize;
        let ws = &self.workers[wi];
        if !ws.alive || ws.incarnation != incarnation {
            return Ok(());
        }
        let cp = ws.chunks[chunk as usize];
        if cp.phase == ChunkPhase::Done || cp.round != round || cp.timer_epoch != epoch {
            return Ok(());
        }
        self.report.timeouts += 1;
        if cp.attempt >= self.cfg.retry.max_retries {
            // Retry budget exhausted: the link (or the job) is beyond
            // saving from here. Stop and report to the control plane,
            // which deregisters us so the survivors can finish.
            self.workers[wi].alive = false;
            self.queue.push(
                self.now + self.cfg.topo.link.control_rpc_ns,
                Event::Deregister { worker: w },
            );
            return Ok(());
        }
        self.workers[wi].chunks[chunk as usize].attempt += 1;
        self.report.retransmits += 1;
        // In `Sending` this re-sends the lost contribution; in
        // `AwaitDone` it acts as a completion probe whose duplicate/stale
        // ACK carries the switch's current round.
        self.send_data(wi, chunk as usize)
    }

    fn on_crash(&mut self, w: u32) {
        let ws = &mut self.workers[w as usize];
        if ws.failed || !ws.alive {
            return;
        }
        self.report.crashes += 1;
        ws.alive = false;
        ws.incarnation += 1; // strands every in-flight timer
    }

    /// A crashed worker boots, resyncs against the switch over the
    /// control plane, and rejoins the current round of every chunk.
    fn on_restart(&mut self, w: u32) -> Result<(), SimError> {
        let wi = w as usize;
        if self.workers[wi].failed || self.workers[wi].alive {
            return Ok(());
        }
        self.report.restarts += 1;
        let resync = self.switch.resync_worker(w)?;
        self.workers[wi].alive = true;
        self.workers[wi].next_tx_free_ns = self.now + self.cfg.topo.link.control_rpc_ns;
        for (chunk, cr) in resync.iter().enumerate() {
            {
                let cp = &mut self.workers[wi].chunks[chunk];
                cp.round = cr.round;
                cp.attempt = 0;
                cp.timer_epoch = cp.timer_epoch.wrapping_add(1);
                if cr.round >= self.rounds {
                    cp.phase = ChunkPhase::Done;
                    continue;
                }
            }
            if cr.contributed {
                // Our pre-crash contribution survived in the pool: wait
                // for completion, probing as usual.
                self.workers[wi].chunks[chunk].phase = ChunkPhase::AwaitDone;
                let at = self.now + self.cfg.topo.link.control_rpc_ns + self.cfg.retry.rto_for(0);
                self.arm_timer(wi, chunk, at);
            } else {
                self.workers[wi].chunks[chunk].phase = ChunkPhase::Sending;
                self.send_data(wi, chunk)?;
            }
        }
        Ok(())
    }

    /// The control plane removes a worker from the required set; rounds
    /// only its contribution was blocking complete right now, degraded.
    fn on_deregister(&mut self, w: u32) -> Result<(), SimError> {
        let wi = w as usize;
        if self.workers[wi].failed {
            return Ok(());
        }
        self.workers[wi].failed = true;
        self.workers[wi].alive = false;
        self.report.workers_failed += 1;
        let harvested = self.switch.deregister_worker(w)?;
        for done in harvested {
            self.complete_chunk(done, None)?;
        }
        Ok(())
    }
}

/// Build and run in one call — the common path for tests and examples.
pub fn run_allreduce<B: Aggregator>(
    spec: JobSpec,
    backend: B,
    gradients: &[Vec<Vec<f64>>],
    plan: FaultPlan,
    cfg: SimConfig,
) -> Result<RunReport, SimError> {
    Simulator::new(spec, backend, gradients, plan, cfg)?.run()
}
