//! The switch-side slot pool: worker fan-in, completion counters and
//! slot-reuse semantics.
//!
//! A [`SlotPool`] tracks, per chunk, **which** workers have contributed in
//! the current **round**. The combination gives the protocol its two
//! robustness properties:
//!
//! * **idempotent retransmission** — a duplicate packet (same worker, same
//!   chunk, same round) is detected by the per-chunk worker bitmap and
//!   dropped before it reaches the aggregation state, so a worker may
//!   blindly retransmit on timeout;
//! * **versioned slot reuse** — every chunk carries a round number.
//!   Advancing the round ([`SlotPool::advance_round`]) atomically resets
//!   the fan-in state, and late packets from the previous round are
//!   rejected as stale instead of corrupting the next round's sum.
//!
//! [`AggregationSwitch`] binds a pool to an [`Aggregator`] backend: only
//! packets the pool accepts are folded into the backend, and finishing a
//! round clears the backend's slot range for reuse.

use crate::backend::{AggError, Aggregator};
use crate::protocol::{AckPacket, AggPacket, JobSpec};
use fpisa_pisa::RuntimeError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The error an out-of-bounds chunk index produces — the switch's own
/// index-range error, not a panic and not silent truncation.
fn chunk_error(chunk: usize, chunks: usize) -> AggError {
    AggError::Switch(RuntimeError::IndexOutOfRange {
        detail: format!("chunk {chunk} out of range for job with {chunks} chunks"),
    })
}

/// What the pool decided about one incoming packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IngestDecision {
    /// The contribution was accepted. `chunk_complete` is set when it was
    /// the last missing worker for its chunk this round.
    Accepted {
        /// All workers have now contributed to the chunk.
        chunk_complete: bool,
    },
    /// Same worker already contributed to this chunk this round
    /// (retransmission) — dropped idempotently.
    Duplicate,
    /// The packet's round is older than the chunk's current round.
    StaleRound,
    /// The packet's round is newer than the chunk's current round (the
    /// control plane has not advanced it yet) — rejected, not buffered.
    FutureRound,
    /// The packet names a different job.
    WrongJob,
    /// The worker id is outside the job's fan-in.
    BadWorker,
    /// The worker was deregistered ([`SlotPool::deregister_worker`]) —
    /// the job completes rounds without it, and late contributions from
    /// it are rejected so an already-harvested result cannot be altered.
    Deregistered,
    /// The chunk index is outside the job.
    BadChunk,
    /// The payload length does not match the chunk's slot range.
    BadPayload,
}

impl IngestDecision {
    /// Whether the packet was folded into the aggregation state.
    pub fn accepted(&self) -> bool {
        matches!(self, IngestDecision::Accepted { .. })
    }
}

/// Counters of everything the pool has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Packets accepted and folded in.
    pub accepted: u64,
    /// Duplicate (retransmitted) packets dropped.
    pub duplicates: u64,
    /// Stale-round packets rejected.
    pub stale: u64,
    /// Future-round packets rejected.
    pub future: u64,
    /// Packets rejected for job/worker/chunk/payload mismatches.
    pub malformed: u64,
    /// Packets from deregistered workers rejected.
    pub deregistered: u64,
    /// Chunk-rounds that reached full fan-in (degraded completions via
    /// [`SlotPool::deregister_worker`] included).
    pub completed_chunks: u64,
}

/// Per-chunk fan-in state for one aggregation job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotPool {
    spec: JobSpec,
    /// Current round per chunk.
    rounds: Vec<u32>,
    /// Contribution bitmap per chunk (bit `w` = worker `w` seen this round).
    seen: Vec<u64>,
    /// Bitmap of workers still required for completion. Starts at the
    /// full fan-in; [`SlotPool::deregister_worker`] clears bits so rounds
    /// complete gracefully with the surviving contributor set.
    active: u64,
    stats: PoolStats,
}

/// Per-chunk resync state handed to a restarted worker
/// ([`SlotPool::worker_resync`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkResync {
    /// The chunk's current round.
    pub round: u32,
    /// Whether the worker's contribution to that round is already
    /// recorded (so it must *not* resend, only await completion).
    pub contributed: bool,
}

impl SlotPool {
    /// A pool at round 0 with no contributions.
    pub fn new(spec: JobSpec) -> Result<Self, AggError> {
        spec.validate()?;
        let chunks = spec.chunks();
        Ok(SlotPool {
            spec,
            rounds: vec![0; chunks],
            seen: vec![0; chunks],
            active: full_fan_in(spec.workers),
            stats: PoolStats::default(),
        })
    }

    /// The job this pool serves.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Current round of a chunk.
    pub fn round(&self, chunk: usize) -> u32 {
        self.rounds[chunk]
    }

    /// Number of workers that have contributed to a chunk this round.
    pub fn contributors(&self, chunk: usize) -> u32 {
        self.seen[chunk].count_ones()
    }

    /// Whether a specific worker has contributed to a chunk this round.
    pub fn contributed(&self, chunk: usize, worker: u32) -> bool {
        worker < self.spec.workers && self.seen[chunk] & (1u64 << worker) != 0
    }

    /// Bitmap of workers still required for round completion.
    pub fn active_workers(&self) -> u64 {
        self.active
    }

    /// Number of workers still required for round completion.
    pub fn required_workers(&self) -> u32 {
        self.active.count_ones()
    }

    /// Whether every still-active worker has contributed to a chunk this
    /// round. A pool with no active workers left can never complete.
    pub fn is_complete(&self, chunk: usize) -> bool {
        self.active != 0 && self.seen[chunk] & self.active == self.active
    }

    /// Classify a packet against the current state without mutating it.
    pub fn check(&self, pkt: &AggPacket) -> IngestDecision {
        if pkt.job != self.spec.job {
            return IngestDecision::WrongJob;
        }
        if pkt.worker >= self.spec.workers {
            return IngestDecision::BadWorker;
        }
        if self.active & (1u64 << pkt.worker) == 0 {
            return IngestDecision::Deregistered;
        }
        let chunk = pkt.chunk as usize;
        if chunk >= self.spec.chunks() {
            return IngestDecision::BadChunk;
        }
        if pkt.payload.len() != self.spec.slot_range(chunk).1 {
            return IngestDecision::BadPayload;
        }
        let round = self.rounds[chunk];
        if pkt.round < round {
            return IngestDecision::StaleRound;
        }
        if pkt.round > round {
            return IngestDecision::FutureRound;
        }
        if self.seen[chunk] & (1u64 << pkt.worker) != 0 {
            return IngestDecision::Duplicate;
        }
        let after = self.seen[chunk] | (1u64 << pkt.worker);
        IngestDecision::Accepted {
            chunk_complete: after & self.active == self.active,
        }
    }

    /// Classify a packet and, if accepted, record the contribution.
    ///
    /// The classification happens *inside* this call, against the state
    /// at this instant — a packet that [`SlotPool::check`] would have
    /// accepted before an interleaved [`SlotPool::advance_round`] commits
    /// as [`IngestDecision::StaleRound`], not as a contribution to the
    /// new round. Callers never need to order their own check/commit
    /// pairs around round advances.
    pub fn commit(&mut self, pkt: &AggPacket) -> IngestDecision {
        let decision = self.check(pkt);
        match decision {
            IngestDecision::Accepted { chunk_complete } => {
                self.seen[pkt.chunk as usize] |= 1u64 << pkt.worker;
                self.stats.accepted += 1;
                if chunk_complete {
                    self.stats.completed_chunks += 1;
                }
            }
            IngestDecision::Duplicate => self.stats.duplicates += 1,
            IngestDecision::StaleRound => self.stats.stale += 1,
            IngestDecision::FutureRound => self.stats.future += 1,
            IngestDecision::Deregistered => self.stats.deregistered += 1,
            _ => self.stats.malformed += 1,
        }
        decision
    }

    /// Advance a chunk to the next round, resetting its fan-in state.
    /// Returns the new round number.
    ///
    /// Out-of-bounds chunks are a
    /// [`fpisa_pisa::RuntimeError::IndexOutOfRange`] error (regression:
    /// this used to panic on a bad index).
    pub fn advance_round(&mut self, chunk: usize) -> Result<u32, AggError> {
        if chunk >= self.spec.chunks() {
            return Err(chunk_error(chunk, self.spec.chunks()));
        }
        self.seen[chunk] = 0;
        self.rounds[chunk] += 1;
        Ok(self.rounds[chunk])
    }

    /// Deregister a worker: the job's remaining rounds complete with the
    /// surviving contributor set, and late packets from the worker are
    /// rejected ([`IngestDecision::Deregistered`]) so a harvested result
    /// cannot be altered after the fact. Returns the chunks whose
    /// current round *became* complete through the deregistration — the
    /// control plane must harvest those exactly as if the last packet
    /// had just arrived. Idempotent: deregistering twice returns no new
    /// chunks.
    pub fn deregister_worker(&mut self, worker: u32) -> Result<Vec<usize>, AggError> {
        if worker >= self.spec.workers {
            return Err(AggError::BadSpec {
                detail: format!(
                    "worker {worker} outside the job's fan-in of {}",
                    self.spec.workers
                ),
            });
        }
        let bit = 1u64 << worker;
        if self.active & bit == 0 {
            return Ok(Vec::new());
        }
        let was_complete: Vec<bool> = (0..self.spec.chunks())
            .map(|c| self.is_complete(c))
            .collect();
        self.active &= !bit;
        let newly: Vec<usize> = (0..self.spec.chunks())
            .filter(|&c| !was_complete[c] && self.is_complete(c))
            .collect();
        self.stats.completed_chunks += newly.len() as u64;
        Ok(newly)
    }

    /// The recovery API for a restarted worker: its per-chunk resync
    /// state — current round and whether its contribution to that round
    /// is already recorded. A worker that lost all volatile state rejoins
    /// by resending exactly the chunks with `contributed == false` at the
    /// returned rounds, making restart convergent instead of
    /// double-counting or deadlocking.
    pub fn worker_resync(&self, worker: u32) -> Result<Vec<ChunkResync>, AggError> {
        if worker >= self.spec.workers {
            return Err(AggError::BadSpec {
                detail: format!(
                    "worker {worker} outside the job's fan-in of {}",
                    self.spec.workers
                ),
            });
        }
        Ok((0..self.spec.chunks())
            .map(|c| ChunkResync {
                round: self.rounds[c],
                contributed: self.contributed(c, worker),
            })
            .collect())
    }

    /// Protocol counters so far.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }
}

/// Bitmap with the low `workers` bits set (`workers <= 64`).
fn full_fan_in(workers: u32) -> u64 {
    if workers >= 64 {
        u64::MAX
    } else {
        (1u64 << workers) - 1
    }
}

/// A harvested chunk-round: the aggregated values plus the fan-in
/// provenance a control plane needs to broadcast completion and account
/// degradation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedChunk {
    /// Chunk index.
    pub chunk: usize,
    /// The round that completed.
    pub round: u32,
    /// The round the chunk's slots now serve (`round + 1`).
    pub new_round: u32,
    /// How many workers contributed (fewer than the job's fan-in when
    /// the round completed degraded).
    pub contributors: u32,
    /// Bitmap of the workers whose contributions are in the sum.
    pub contributed: u64,
    /// The aggregated chunk values.
    pub values: Vec<f64>,
}

/// Everything [`AggregationSwitch::ingest_with_ack`] derives from one
/// data packet.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOutcome {
    /// How the pool classified the packet.
    pub decision: IngestDecision,
    /// The acknowledgement the switch answers with (`None`: dropped
    /// silently).
    pub ack: Option<AckPacket>,
    /// The harvested chunk, when this packet completed its round.
    pub completed: Option<CompletedChunk>,
}

/// One aggregation switch: a [`SlotPool`] gating an [`Aggregator`]
/// backend. This is the whole switch-side protocol — packets in,
/// aggregated chunks out, slots reused round after round.
#[derive(Debug, Clone)]
pub struct AggregationSwitch<B: Aggregator> {
    pool: SlotPool,
    backend: B,
}

impl<B: Aggregator> AggregationSwitch<B> {
    /// Bind a backend to a job. The backend must provide at least one slot
    /// per gradient element.
    pub fn new(spec: JobSpec, backend: B) -> Result<Self, AggError> {
        let pool = SlotPool::new(spec)?;
        if backend.slots() < spec.elements {
            return Err(AggError::BadSpec {
                detail: format!(
                    "backend provides {} slots, job needs {}",
                    backend.slots(),
                    spec.elements
                ),
            });
        }
        Ok(AggregationSwitch { pool, backend })
    }

    /// Process one data packet: duplicates, stale rounds and malformed
    /// packets are dropped per [`SlotPool::commit`]; accepted payloads are
    /// folded into the backend's slot range. The contribution is recorded
    /// in the pool only after the backend accepts the payload, so a
    /// rejected batch (e.g. a non-finite wire word) can be corrected and
    /// retransmitted without reading as a duplicate.
    pub fn ingest(&mut self, pkt: &AggPacket) -> Result<IngestDecision, AggError> {
        if self.pool.check(pkt).accepted() {
            let (start, _) = self.pool.spec().slot_range(pkt.chunk as usize);
            self.backend.add_wire(start, &pkt.payload)?;
        }
        Ok(self.pool.commit(pkt))
    }

    /// Ingest a whole batch of data packets at once — the batched
    /// aggregation ingest path. Each packet is classified exactly as
    /// [`AggregationSwitch::ingest`] would in sequence (duplicates within
    /// the batch included), then every accepted payload is folded into
    /// the backend through **one**
    /// [`Aggregator::add_wire_multi`] call.
    ///
    /// [`SlotPool`] bookkeeping is committed only after the backend
    /// accepts the combined batch, and in the packets' original order, so
    /// a rejected batch consumes no contributions (same contract as scalar
    /// ingest). Returns one
    /// decision per packet, in order.
    pub fn ingest_batch(&mut self, pkts: &[AggPacket]) -> Result<Vec<IngestDecision>, AggError> {
        // Phase 1: classify against the pool state plus the contributions
        // accepted earlier in this batch (overlay of per-chunk worker
        // bits; rounds don't move during a batch).
        let mut overlay: HashMap<u32, u64> = HashMap::new();
        let mut accepted: Vec<(usize, &[u64])> = Vec::new();
        for pkt in pkts {
            if self.pool.check(pkt).accepted() {
                let bit = 1u64 << pkt.worker;
                let seen = overlay.entry(pkt.chunk).or_insert(0);
                if *seen & bit == 0 {
                    *seen |= bit;
                    let (start, _) = self.pool.spec().slot_range(pkt.chunk as usize);
                    accepted.push((start, pkt.payload.as_slice()));
                }
            }
        }
        // Phase 2: one backend call for every accepted payload.
        self.backend.add_wire_multi(&accepted)?;
        // Phase 3: commit the pool bookkeeping in original packet order
        // (each commit re-checks against the now-updated state, so
        // within-batch duplicates classify exactly as sequential ingest
        // would).
        Ok(pkts.iter().map(|pkt| self.pool.commit(pkt)).collect())
    }

    /// Validate a chunk index against the job.
    fn check_chunk(&self, chunk: usize) -> Result<(), AggError> {
        let chunks = self.pool.spec().chunks();
        if chunk >= chunks {
            return Err(chunk_error(chunk, chunks));
        }
        Ok(())
    }

    /// Read a completed chunk's aggregated values.
    pub fn read_chunk(&mut self, chunk: usize) -> Result<Vec<f64>, AggError> {
        self.check_chunk(chunk)?;
        let (start, len) = self.pool.spec().slot_range(chunk);
        self.backend.read_range(start, len)
    }

    /// Read the whole gradient (every chunk, in element order).
    pub fn read_all(&mut self) -> Result<Vec<f64>, AggError> {
        let elements = self.pool.spec().elements;
        self.backend.read_range(0, elements)
    }

    /// Finish a chunk's round: clear its slots for reuse and advance the
    /// round so late packets of the finished round are rejected as stale.
    pub fn finish_round(&mut self, chunk: usize) -> Result<u32, AggError> {
        self.check_chunk(chunk)?;
        let (start, len) = self.pool.spec().slot_range(chunk);
        self.backend.clear_range(start, len)?;
        self.pool.advance_round(chunk)
    }

    /// Harvest a complete chunk: capture its aggregated values and fan-in
    /// provenance, then clear the slots and advance the round in one
    /// step. Errors if the chunk's round has not completed.
    pub fn harvest_chunk(&mut self, chunk: usize) -> Result<CompletedChunk, AggError> {
        self.check_chunk(chunk)?;
        if !self.pool.is_complete(chunk) {
            return Err(AggError::BadSpec {
                detail: format!(
                    "harvest of chunk {chunk}: round {} has {} of {} contributions",
                    self.pool.round(chunk),
                    self.pool.contributors(chunk),
                    self.pool.required_workers()
                ),
            });
        }
        let round = self.pool.round(chunk);
        let contributed = self.pool.seen[chunk];
        let contributors = self.pool.contributors(chunk);
        let values = self.read_chunk(chunk)?;
        let new_round = self.finish_round(chunk)?;
        Ok(CompletedChunk {
            chunk,
            round,
            new_round,
            contributors,
            contributed,
            values,
        })
    }

    /// Ingest one data packet and derive the full protocol outcome: the
    /// classification, the [`AckPacket`] the switch answers with (if
    /// any), and — when the packet completed its chunk's round — the
    /// harvested result, with the round already advanced so every later
    /// retransmission of the finished round classifies as stale.
    ///
    /// Ack semantics per decision:
    ///
    /// * `Accepted`/`Duplicate` — `recorded` (to the worker, "my
    ///   contribution is in" looks the same whether this very packet or
    ///   an earlier copy delivered it); `complete` mirrors whether the
    ///   round just finished.
    /// * `StaleRound` — `complete` with `current_round` pointing at the
    ///   live round: the worker's round is over (its result may or may
    ///   not include it), resync and move on.
    /// * Everything else (malformed, future rounds, deregistered
    ///   workers) — dropped silently, like a real switch.
    pub fn ingest_with_ack(&mut self, pkt: &AggPacket) -> Result<IngestOutcome, AggError> {
        let decision = self.ingest(pkt)?;
        let chunk = pkt.chunk as usize;
        let mut completed = None;
        let ack = match decision {
            IngestDecision::Accepted { chunk_complete } => {
                if chunk_complete {
                    completed = Some(self.harvest_chunk(chunk)?);
                }
                Some(self.ack_packet(pkt, true, chunk_complete, completed.as_ref()))
            }
            IngestDecision::Duplicate => Some(self.ack_packet(pkt, true, false, None)),
            IngestDecision::StaleRound => Some(self.ack_packet(pkt, false, true, None)),
            _ => None,
        };
        Ok(IngestOutcome {
            decision,
            ack,
            completed,
        })
    }

    /// Build the ack answering `pkt` from the current pool state (and the
    /// just-harvested chunk, when the packet completed the round).
    fn ack_packet(
        &self,
        pkt: &AggPacket,
        recorded: bool,
        complete: bool,
        completed: Option<&CompletedChunk>,
    ) -> AckPacket {
        let chunk = pkt.chunk as usize;
        AckPacket {
            job: self.pool.spec().job,
            worker: pkt.worker,
            round: pkt.round,
            chunk: pkt.chunk,
            contributors: completed
                .map(|c| c.contributors)
                .unwrap_or_else(|| self.pool.contributors(chunk)),
            current_round: self.pool.round(chunk),
            recorded,
            complete,
        }
    }

    /// Deregister a worker ([`SlotPool::deregister_worker`]) and harvest
    /// every chunk whose round completed through the deregistration.
    /// This is the graceful-degradation path: the job finishes with the
    /// surviving contributor set instead of hanging on a dead worker.
    pub fn deregister_worker(&mut self, worker: u32) -> Result<Vec<CompletedChunk>, AggError> {
        let newly = self.pool.deregister_worker(worker)?;
        newly
            .into_iter()
            .map(|chunk| self.harvest_chunk(chunk))
            .collect()
    }

    /// Per-chunk resync state for a restarted worker
    /// ([`SlotPool::worker_resync`]).
    pub fn resync_worker(&self, worker: u32) -> Result<Vec<ChunkResync>, AggError> {
        self.pool.worker_resync(worker)
    }

    /// The fan-in state.
    pub fn pool(&self) -> &SlotPool {
        &self.pool
    }

    /// The aggregation backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access (host-side encode lives on the backend).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExactF64;

    fn spec() -> JobSpec {
        JobSpec {
            job: 9,
            workers: 3,
            elements: 6,
            elements_per_packet: 4,
        }
    }

    fn pkt(worker: u32, round: u32, chunk: u32, payload: Vec<u64>) -> AggPacket {
        AggPacket {
            job: 9,
            worker,
            round,
            chunk,
            payload,
        }
    }

    fn words(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fan_in_completes_when_every_worker_contributed() {
        let mut pool = SlotPool::new(spec()).unwrap();
        let p0 = pkt(0, 0, 0, vec![0; 4]);
        assert_eq!(
            pool.commit(&p0),
            IngestDecision::Accepted {
                chunk_complete: false
            }
        );
        assert_eq!(pool.contributors(0), 1);
        assert!(!pool.is_complete(0));
        pool.commit(&pkt(2, 0, 0, vec![0; 4]));
        assert_eq!(
            pool.commit(&pkt(1, 0, 0, vec![0; 4])),
            IngestDecision::Accepted {
                chunk_complete: true
            }
        );
        assert!(pool.is_complete(0));
        assert!(!pool.is_complete(1), "other chunk untouched");
        assert_eq!(pool.stats().completed_chunks, 1);
    }

    #[test]
    fn duplicates_are_dropped_idempotently() {
        let mut pool = SlotPool::new(spec()).unwrap();
        let p = pkt(1, 0, 1, vec![0; 2]);
        assert!(pool.commit(&p).accepted());
        assert_eq!(pool.commit(&p), IngestDecision::Duplicate);
        assert_eq!(pool.commit(&p), IngestDecision::Duplicate);
        assert_eq!(pool.contributors(1), 1, "still one contribution");
        assert_eq!(pool.stats().duplicates, 2);
    }

    #[test]
    fn rounds_version_the_slots() {
        let mut pool = SlotPool::new(spec()).unwrap();
        assert!(pool.commit(&pkt(0, 0, 0, vec![0; 4])).accepted());
        // A packet from a round the switch has not opened yet.
        assert_eq!(
            pool.commit(&pkt(1, 1, 0, vec![0; 4])),
            IngestDecision::FutureRound
        );
        assert_eq!(pool.advance_round(0).unwrap(), 1);
        assert_eq!(pool.contributors(0), 0, "fan-in reset");
        // The same worker may contribute again in the new round...
        assert!(pool.commit(&pkt(0, 1, 0, vec![0; 4])).accepted());
        // ...and the old round's late retransmission is now stale.
        assert_eq!(
            pool.commit(&pkt(2, 0, 0, vec![0; 4])),
            IngestDecision::StaleRound
        );
        assert_eq!(pool.stats().stale, 1);
        assert_eq!(pool.stats().future, 1);
    }

    #[test]
    fn malformed_packets_are_classified() {
        let mut pool = SlotPool::new(spec()).unwrap();
        let mut wrong_job = pkt(0, 0, 0, vec![0; 4]);
        wrong_job.job = 8;
        assert_eq!(pool.commit(&wrong_job), IngestDecision::WrongJob);
        assert_eq!(
            pool.commit(&pkt(3, 0, 0, vec![0; 4])),
            IngestDecision::BadWorker
        );
        assert_eq!(
            pool.commit(&pkt(0, 0, 2, vec![0; 4])),
            IngestDecision::BadChunk
        );
        assert_eq!(
            pool.commit(&pkt(0, 0, 1, vec![0; 4])),
            IngestDecision::BadPayload,
            "tail chunk holds 2 elements, not 4"
        );
        assert_eq!(pool.stats().malformed, 4);
        assert_eq!(pool.stats().accepted, 0);
    }

    #[test]
    fn aggregation_switch_folds_accepted_packets_only() {
        let mut sw = AggregationSwitch::new(spec(), ExactF64::new(6)).unwrap();
        let grad = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        for worker in 0..3 {
            let pkts = sw.pool().spec().packetize(worker, 0, &words(&grad));
            for p in &pkts {
                assert!(sw.ingest(p).unwrap().accepted());
            }
            // Retransmit everything: all dropped before the backend.
            for p in &pkts {
                assert_eq!(sw.ingest(p).unwrap(), IngestDecision::Duplicate);
            }
        }
        assert!(sw.pool().is_complete(0) && sw.pool().is_complete(1));
        assert_eq!(
            sw.read_all().unwrap(),
            vec![3.0, 6.0, 9.0, 12.0, 15.0, 18.0],
            "each element summed exactly once per worker"
        );
    }

    #[test]
    fn finish_round_clears_slots_and_rejects_stragglers() {
        let mut sw = AggregationSwitch::new(spec(), ExactF64::new(6)).unwrap();
        let grad = [1.0; 6];
        for worker in 0..3 {
            for p in sw.pool().spec().packetize(worker, 0, &words(&grad)) {
                sw.ingest(&p).unwrap();
            }
        }
        assert_eq!(sw.read_chunk(0).unwrap(), vec![3.0; 4]);
        assert_eq!(sw.finish_round(0).unwrap(), 1);
        assert_eq!(sw.read_chunk(0).unwrap(), vec![0.0; 4], "slots cleared");
        // A straggler from round 0 must not dirty the reused slots.
        let late = sw.pool().spec().packetize(1, 0, &words(&grad));
        assert_eq!(sw.ingest(&late[0]).unwrap(), IngestDecision::StaleRound);
        assert_eq!(sw.read_chunk(0).unwrap(), vec![0.0; 4]);
        // Round 1 proceeds normally on the reused slots.
        for worker in 0..3 {
            for p in sw.pool().spec().packetize(worker, 1, &words(&grad)) {
                let d = sw.ingest(&p).unwrap();
                assert!(d.accepted() || p.chunk == 1, "{d:?}");
            }
        }
        assert_eq!(sw.read_chunk(0).unwrap(), vec![3.0; 4]);
    }

    #[test]
    fn rejected_payload_does_not_consume_the_worker_contribution() {
        // Regression test: `ingest` used to mark the worker's bit before
        // the backend could reject the payload, so a corrected
        // retransmission read as a duplicate and the chunk completed with
        // a missing contribution.
        let mut sw = AggregationSwitch::new(spec(), ExactF64::new(6)).unwrap();
        let bad = pkt(0, 0, 1, vec![f64::INFINITY.to_bits(), 1.0f64.to_bits()]);
        assert!(matches!(
            sw.ingest(&bad),
            Err(AggError::NonFinite { slot: 4 })
        ));
        assert_eq!(sw.pool().contributors(1), 0, "no contribution recorded");
        assert_eq!(sw.pool().stats().accepted, 0);
        // The corrected retransmission goes through normally.
        let good = pkt(0, 0, 1, words(&[2.0, 1.0]));
        assert!(sw.ingest(&good).unwrap().accepted());
        assert_eq!(sw.read_chunk(1).unwrap(), vec![2.0, 1.0]);
    }

    #[test]
    fn bad_chunk_indices_error_instead_of_panicking() {
        // Regression test: `SlotPool::advance_round` used to index the
        // round table directly and panic on an out-of-bounds chunk; now
        // every chunk-index error path — the pool's and the aggregation
        // switch's — surfaces the switch's own IndexOutOfRange error.
        use fpisa_pisa::RuntimeError;
        let oob =
            |e: &AggError| matches!(e, AggError::Switch(RuntimeError::IndexOutOfRange { .. }));
        let mut sw = AggregationSwitch::new(spec(), ExactF64::new(6)).unwrap();
        for chunk in [2usize, 100, usize::MAX] {
            assert!(oob(&sw.read_chunk(chunk).unwrap_err()), "read {chunk}");
            assert!(oob(&sw.finish_round(chunk).unwrap_err()), "finish {chunk}");
        }
        assert_eq!(sw.pool().round(0), 0, "no round advanced");
        let mut pool = SlotPool::new(spec()).unwrap();
        assert!(oob(&pool.advance_round(2).unwrap_err()));
        assert!(oob(&pool.advance_round(usize::MAX).unwrap_err()));
        assert_eq!(pool.advance_round(1).unwrap(), 1, "in-range still works");
    }

    #[test]
    fn ingest_batch_matches_sequential_ingest_decisions() {
        let grad = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        // A batch with in-batch duplicates, a stale round and a malformed
        // packet mixed in.
        let mut pkts: Vec<AggPacket> = Vec::new();
        for worker in 0..3 {
            let sw = AggregationSwitch::new(spec(), ExactF64::new(6)).unwrap();
            pkts.extend(sw.pool().spec().packetize(worker, 0, &words(&grad)));
        }
        pkts.push(pkts[0].clone()); // duplicate of worker 0 chunk 0
        pkts.push(pkt(1, 7, 0, vec![0; 4])); // future round
        pkts.push(pkt(9, 0, 0, vec![0; 4])); // bad worker
        let mut seq = AggregationSwitch::new(spec(), ExactF64::new(6)).unwrap();
        let mut bat = AggregationSwitch::new(spec(), ExactF64::new(6)).unwrap();
        let seq_decisions: Vec<IngestDecision> =
            pkts.iter().map(|p| seq.ingest(p).unwrap()).collect();
        let bat_decisions = bat.ingest_batch(&pkts).unwrap();
        assert_eq!(seq_decisions, bat_decisions);
        assert_eq!(seq.pool().stats(), bat.pool().stats());
        assert_eq!(seq.read_all().unwrap(), bat.read_all().unwrap());
        assert_eq!(
            bat.read_all().unwrap(),
            vec![3.0, 6.0, 9.0, 12.0, 15.0, 18.0]
        );
    }

    #[test]
    fn ingest_batch_rejects_bad_payloads_without_consuming_contributions() {
        let mut sw = AggregationSwitch::new(spec(), ExactF64::new(6)).unwrap();
        let pkts = vec![
            pkt(0, 0, 0, words(&[1.0, 1.0, 1.0, 1.0])),
            pkt(1, 0, 1, vec![f64::INFINITY.to_bits(), 0]),
        ];
        assert!(sw.ingest_batch(&pkts).is_err());
        // All-or-nothing: neither the good packet's payload nor any
        // contribution bit landed.
        assert_eq!(sw.pool().stats().accepted, 0);
        assert_eq!(sw.read_all().unwrap(), vec![0.0; 6]);
        // The corrected batch goes through.
        let good = vec![
            pkt(0, 0, 0, words(&[1.0, 1.0, 1.0, 1.0])),
            pkt(1, 0, 1, words(&[2.0, 2.0])),
        ];
        let decisions = sw.ingest_batch(&good).unwrap();
        assert!(decisions.iter().all(|d| d.accepted()));
    }

    #[test]
    fn backend_too_small_is_rejected() {
        assert!(matches!(
            AggregationSwitch::new(spec(), ExactF64::new(5)),
            Err(AggError::BadSpec { .. })
        ));
    }

    #[test]
    fn commit_interleaved_with_round_advance_classifies_stale() {
        // Regression (robustness): a caller that classified a packet via
        // `check`, then advanced the round (e.g. the control plane
        // finished the chunk mid-batch), must not be able to commit the
        // now-stale packet into the new round — `commit` re-classifies
        // atomically instead of trusting the earlier answer.
        let mut pool = SlotPool::new(spec()).unwrap();
        let p = pkt(0, 0, 0, vec![0; 4]);
        assert!(pool.check(&p).accepted());
        pool.advance_round(0).unwrap();
        assert_eq!(pool.commit(&p), IngestDecision::StaleRound);
        assert_eq!(pool.contributors(0), 0, "no contribution leaked");
        // Interleave the other direction too: a commit, an advance, then
        // the same packet again — stale, not duplicate, and the round-1
        // packet lands cleanly between them.
        let q = pkt(1, 1, 0, vec![0; 4]);
        assert!(pool.commit(&q).accepted());
        pool.advance_round(0).unwrap();
        assert_eq!(pool.commit(&q), IngestDecision::StaleRound);
        assert_eq!(pool.stats().stale, 2);
    }

    #[test]
    fn deregistered_worker_completes_rounds_degraded() {
        let mut pool = SlotPool::new(spec()).unwrap();
        pool.commit(&pkt(0, 0, 0, vec![0; 4]));
        pool.commit(&pkt(1, 0, 0, vec![0; 4]));
        pool.commit(&pkt(1, 0, 1, vec![0; 2]));
        // Worker 2 dies. Chunk 0 (workers 0+1 in) completes through the
        // deregistration; chunk 1 (only worker 1 in) does not.
        let newly = pool.deregister_worker(2).unwrap();
        assert_eq!(newly, vec![0]);
        assert_eq!(pool.required_workers(), 2);
        assert!(pool.is_complete(0));
        assert!(!pool.is_complete(1));
        // Idempotent, and late packets from the dead worker are rejected.
        assert_eq!(pool.deregister_worker(2).unwrap(), Vec::<usize>::new());
        assert_eq!(
            pool.commit(&pkt(2, 0, 1, vec![0; 2])),
            IngestDecision::Deregistered
        );
        assert_eq!(pool.stats().deregistered, 1);
        // The survivors complete chunk 1 on their own.
        assert_eq!(
            pool.commit(&pkt(0, 0, 1, vec![0; 2])),
            IngestDecision::Accepted {
                chunk_complete: true
            }
        );
        // Out-of-range worker ids error.
        assert!(pool.deregister_worker(7).is_err());
    }

    #[test]
    fn worker_resync_reports_rounds_and_contributions() {
        let mut pool = SlotPool::new(spec()).unwrap();
        pool.commit(&pkt(1, 0, 0, vec![0; 4]));
        pool.advance_round(1).unwrap();
        let rs = pool.worker_resync(1).unwrap();
        assert_eq!(
            rs,
            vec![
                ChunkResync {
                    round: 0,
                    contributed: true
                },
                ChunkResync {
                    round: 1,
                    contributed: false
                },
            ]
        );
        assert!(pool.worker_resync(3).is_err());
    }

    #[test]
    fn ingest_with_ack_drives_the_worker_state_machine() {
        let mut sw = AggregationSwitch::new(spec(), ExactF64::new(6)).unwrap();
        let grad: [f64; 6] = [1.0; 6];
        let mk = |w: u32, r: u32| {
            let words: Vec<u64> = grad.iter().map(|x| x.to_bits()).collect();
            JobSpec {
                job: 9,
                workers: 3,
                elements: 6,
                elements_per_packet: 4,
            }
            .packetize(w, r, &words)
        };
        // First contribution: recorded, not complete.
        let out = sw.ingest_with_ack(&mk(0, 0)[0]).unwrap();
        let ack = out.ack.unwrap();
        assert!(ack.recorded && !ack.complete);
        assert_eq!((ack.contributors, ack.current_round), (1, 0));
        assert!(out.completed.is_none());
        // A retransmission of it: the duplicate is *recorded* to the
        // sender — indistinguishable from the first ack, which is the
        // point: "my duplicate was dropped idempotently" ≠ "lost".
        let dup = sw.ingest_with_ack(&mk(0, 0)[0]).unwrap();
        assert_eq!(dup.decision, IngestDecision::Duplicate);
        let dack = dup.ack.unwrap();
        assert!(dack.recorded && !dack.complete);
        // The last contribution completes and auto-harvests the round.
        sw.ingest_with_ack(&mk(1, 0)[0]).unwrap();
        let last = sw.ingest_with_ack(&mk(2, 0)[0]).unwrap();
        let lack = last.ack.unwrap();
        assert!(lack.recorded && lack.complete);
        assert_eq!(lack.current_round, 1, "round already advanced");
        let done = last.completed.unwrap();
        assert_eq!(done.values, vec![3.0; 4]);
        assert_eq!((done.round, done.new_round, done.contributors), (0, 1, 3));
        assert_eq!(done.contributed, 0b111);
        // A straggler of the finished round: stale ack pointing at the
        // live round — the recovery signal for workers that missed the
        // completion broadcast.
        let stale = sw.ingest_with_ack(&mk(1, 0)[0]).unwrap();
        assert_eq!(stale.decision, IngestDecision::StaleRound);
        let sack = stale.ack.unwrap();
        assert!(!sack.recorded && sack.complete);
        assert_eq!((sack.round, sack.current_round), (0, 1));
        // Malformed packets are dropped silently.
        let mut bad = mk(0, 1)[0].clone();
        bad.worker = 9;
        let out = sw.ingest_with_ack(&bad).unwrap();
        assert_eq!(out.decision, IngestDecision::BadWorker);
        assert!(out.ack.is_none());
    }

    #[test]
    fn harvest_requires_completion_and_switch_deregister_harvests() {
        let mut sw = AggregationSwitch::new(spec(), ExactF64::new(6)).unwrap();
        assert!(matches!(sw.harvest_chunk(0), Err(AggError::BadSpec { .. })));
        let grad: [f64; 6] = [2.0; 6];
        let words: Vec<u64> = grad.iter().map(|x| x.to_bits()).collect();
        for w in [0u32, 2] {
            for p in sw.pool().spec().packetize(w, 0, &words) {
                sw.ingest(&p).unwrap();
            }
        }
        // Worker 1 permanently dead: both chunks complete degraded, with
        // the survivors' sums and the shortfall visible in the harvest.
        let done = sw.deregister_worker(1).unwrap();
        assert_eq!(done.len(), 2);
        for c in &done {
            assert_eq!(c.contributors, 2);
            assert_eq!(c.contributed, 0b101);
            assert!(c.values.iter().all(|&v| v == 4.0));
        }
        assert_eq!(sw.pool().round(0), 1, "rounds advanced");
        assert_eq!(sw.read_all().unwrap(), vec![0.0; 6], "slots cleared");
    }
}
