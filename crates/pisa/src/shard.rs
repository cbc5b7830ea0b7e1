//! Multi-core sharded execution: slot-range-partitioned switch state.
//!
//! A single [`CompiledSwitch`] is one core's worth of throughput. The
//! register state it guards, however, is *partitionable*: in every FPISA
//! workload the stateful arrays are indexed by an **aggregation slot**
//! carried in a PHV field, and two packets for different slots never touch
//! the same register entry. [`ShardedSwitch`] exploits exactly that — the
//! software analogue of the paper's observation that line rate comes from
//! parallelism across pipeline resources, and of SwitchML/ATP-style pool
//! partitioning on the aggregation side:
//!
//! * the slot space `0..total` is split into contiguous [`SlotRange`]s
//!   that cover it **exactly once** (checked by
//!   [`crate::register::check_partition`] — no gap, no overlap);
//! * each range is owned by one [`CompiledSwitch`] **shard**, compiled
//!   with register arrays of exactly the range's length (the shard-local
//!   slot space), its state held in a [`RegisterState`] that
//!   [`RegisterState::merged`] can reassemble;
//! * every packet is routed by the caller-supplied **slot field** — the
//!   PHV field carrying the global slot index — to the shard owning that
//!   slot, and the field is rebased to the shard-local index on the way
//!   in;
//! * [`ShardedSwitch::run_ranges`] takes packets as the protocol carries
//!   them — `(start, len, words)` ranges of global slots — clips each
//!   range to each shard's range, rebases the piece, and runs every
//!   shard's pieces on that shard's engine **on the calling thread**
//!   through [`CompiledSwitch::run_ranges`]: lanes filled a column at a
//!   time from the wire words, no PHV built or transposed, no hand-off;
//! * [`ShardedSwitch::run_batch`] — scattered packets in a PHV buffer,
//!   the one path the pool serves — partitions the buffer by shard and
//!   feeds the buckets to a **persistent worker pool** — long-lived
//!   worker threads created once on the first large batch and fed over
//!   channels, with **zero cross-shard locking**: each worker owns its
//!   shard's `&mut CompiledSwitch` and its own packet bucket for the
//!   duration of the batch, so there is nothing to contend on. (Earlier
//!   revisions spawned a fresh `std::thread::scope` per batch; at the
//!   8192-packet batches the pipeline feeds, thread spawn/join overhead
//!   inverted the shard scaling curve.) Each bucket runs through
//!   [`CompiledSwitch::run_batch`], so eligible programs get the SoA
//!   engine per shard.
//!
//! Because routing preserves the relative order of packets that share a
//! slot (indeed, of packets that share a *shard*), the register state and
//! every read-out are **bit-for-bit identical** to running the same packet
//! sequence through a single full-space engine — the invariant the
//! pipeline differential suite enforces for every sharded configuration.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

use crate::analysis::ShardSafetyProof;
use crate::compile::CompiledSwitch;
use crate::phv::{BatchLanes, FieldId, Phv};
use crate::ranges::SlotFields;
use crate::register::{check_partition, RegArrayId, RegisterState, SlotRange};
use crate::switch::RuntimeError;

/// Default for [`ShardedSwitch::with_parallel_min`]: below this many
/// packets a `run_batch` call stays on the calling thread (handing work
/// to pool workers would cost more than it saves); sharded semantics —
/// routing, rebasing, per-shard state — are identical either way.
pub const DEFAULT_PARALLEL_MIN: usize = 128;

/// Split `0..total` into at most `shards` contiguous, non-empty, balanced
/// ranges (fewer when `total < shards`). The result always satisfies
/// [`check_partition`].
pub fn partition_slots(total: usize, shards: usize) -> Vec<SlotRange> {
    partition_slots_aligned(total, shards, 1)
}

/// Like [`partition_slots`], but every range boundary falls on a multiple
/// of `align` (the last range absorbs any remainder). With `align` set to
/// an aggregation protocol's chunk size, whole chunks land on one shard —
/// the chunk→slot-range mapping of `fpisa-agg` never straddles shards.
pub fn partition_slots_aligned(total: usize, shards: usize, align: usize) -> Vec<SlotRange> {
    assert!(total > 0, "cannot partition an empty slot space");
    let align = align.max(1).min(total);
    let blocks = total.div_ceil(align);
    let n = shards.max(1).min(blocks);
    let base = blocks / n;
    let rem = blocks % n;
    let mut out = Vec::with_capacity(n);
    let mut block = 0usize;
    for i in 0..n {
        let nblocks = base + usize::from(i < rem);
        let start = block * align;
        let end = ((block + nblocks) * align).min(total);
        out.push(SlotRange::new(start, end - start));
        block += nblocks;
    }
    out
}

/// Run one shard's bucket through the batch engine (SoA when the program
/// qualifies). The error index is the packet's position *within the
/// bucket*.
fn run_bucket(
    shard: &mut CompiledSwitch,
    bucket: &mut [Phv],
) -> Result<u64, (usize, RuntimeError)> {
    shard.run_batch_indexed(bucket)
}

/// One bucket's outcome: total pass count, or the first fault as
/// (position within the bucket, error).
type BucketResult = Result<u64, (usize, RuntimeError)>;

/// One unit of pool work: a shard engine plus the packet bucket routed to
/// it for the current batch.
///
/// Raw pointers rather than references because the job travels through a
/// `'static` channel while being used strictly *inside* one `run_batch`
/// call: `run_batch` never returns (or unwinds) before every dispatched
/// job's completion has been received, and each job points at a distinct
/// shard and a distinct bucket, so the worker holds the only live access.
struct ShardJob {
    shard_idx: usize,
    shard: *mut CompiledSwitch,
    bucket: *mut Phv,
    len: usize,
}

// SAFETY: see [`ShardJob`] — exclusive disjoint access, bounded by the
// dispatch/drain window inside a single `run_batch` call.
unsafe impl Send for ShardJob {}

enum Done {
    Finished(usize, Result<u64, (usize, RuntimeError)>),
    Panicked,
}

fn worker_loop(jobs: mpsc::Receiver<ShardJob>, done: mpsc::Sender<Done>) {
    while let Ok(job) = jobs.recv() {
        let res = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: `run_batch` guarantees exclusive in-bounds access
            // for the duration of the job (see `ShardJob`).
            let shard = unsafe { &mut *job.shard };
            let bucket = unsafe { std::slice::from_raw_parts_mut(job.bucket, job.len) };
            run_bucket(shard, bucket)
        }));
        let msg = match res {
            Ok(r) => Done::Finished(job.shard_idx, r),
            // A completion is sent even on panic so the dispatcher's
            // drain loop can never deadlock; it re-raises after draining.
            Err(_) => Done::Panicked,
        };
        if done.send(msg).is_err() {
            break;
        }
    }
}

/// Long-lived shard workers, created once and fed one bucket per batch
/// over per-worker channels. Worker `i` serves shard `i + 1` (shard 0
/// always runs inline on the dispatching thread). Dropping the pool
/// closes the job channels, which ends each worker's `recv` loop.
struct WorkerPool {
    job_tx: Vec<mpsc::Sender<ShardJob>>,
    done_rx: mpsc::Receiver<Done>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(workers: usize) -> Self {
        let (done_tx, done_rx) = mpsc::channel();
        let mut job_tx = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<ShardJob>();
            let done = done_tx.clone();
            handles.push(std::thread::spawn(move || worker_loop(rx, done)));
            job_tx.push(tx);
        }
        WorkerPool {
            job_tx,
            done_rx,
            handles,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.job_tx.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

/// N compiled shards behind one switch interface, each owning a slot
/// range. See the [module docs](self) for the execution model.
#[derive(Debug)]
pub struct ShardedSwitch {
    shards: Vec<CompiledSwitch>,
    ranges: Box<[SlotRange]>,
    /// The caller-supplied slot extractor: the PHV field carrying the
    /// global slot index every packet is routed (and rebased) by.
    slot_field: FieldId,
    total_slots: usize,
    /// Batches below this size skip bucketing and run sequentially on the
    /// calling thread ([`Self::with_parallel_min`]).
    parallel_min: usize,
    /// Worker-thread budget override ([`Self::with_parallelism`]); `None`
    /// means ask the OS (`std::thread::available_parallelism`).
    parallelism: Option<usize>,
    /// Lazily spawned persistent workers; stays `None` until the first
    /// batch that actually wants threads.
    pool: Option<WorkerPool>,
    /// Scratch: shard index per packet of the current batch.
    shard_of: Vec<u32>,
    /// Scratch: per-shard packet buckets (packets are *moved*, not
    /// cloned, in and out).
    buckets: Vec<Vec<Phv>>,
    /// Scratch: scatter-back cursors.
    cursors: Vec<usize>,
    /// Set when a shard panicked mid-batch: register and scratch state
    /// may be inconsistent, so further traffic is refused loudly
    /// instead of computing garbage (or hanging on a half-drained
    /// pool).
    poisoned: bool,
    /// Whether a shard-safety proof covers every shard (see
    /// [`Self::attach_safety_proofs`]).
    safety_proven: bool,
}

impl Clone for ShardedSwitch {
    fn clone(&self) -> Self {
        // Worker threads are per-instance; the clone spawns its own on
        // first demand.
        ShardedSwitch {
            shards: self.shards.clone(),
            ranges: self.ranges.clone(),
            slot_field: self.slot_field,
            total_slots: self.total_slots,
            parallel_min: self.parallel_min,
            parallelism: self.parallelism,
            pool: None,
            shard_of: Vec::new(),
            buckets: (0..self.shards.len()).map(|_| Vec::new()).collect(),
            cursors: vec![0; self.shards.len()],
            // Poison travels with the (possibly inconsistent) register
            // state; recovery means building a fresh instance.
            poisoned: self.poisoned,
            safety_proven: self.safety_proven,
        }
    }
}

impl ShardedSwitch {
    /// Assemble a sharded switch from per-shard engines, the slot ranges
    /// they own, and the PHV field carrying the global slot index.
    ///
    /// Validated up front: the ranges must partition `0..total` exactly
    /// once, every register array of shard `i` must have exactly
    /// `ranges[i].len` entries (the shard-local slot space), every shard
    /// must share one PHV layout (one PHV prototype and one lane buffer
    /// serve them all), and the slot field must exist in it.
    pub fn new(
        shards: Vec<CompiledSwitch>,
        ranges: Vec<SlotRange>,
        slot_field: FieldId,
    ) -> Result<Self, RuntimeError> {
        let oob = |detail: String| RuntimeError::IndexOutOfRange { detail };
        if shards.is_empty() || shards.len() != ranges.len() {
            return Err(oob(format!(
                "{} shards for {} slot ranges",
                shards.len(),
                ranges.len()
            )));
        }
        let total_slots = ranges.iter().map(|r| r.len).sum();
        check_partition(total_slots, &ranges)?;
        for (i, (shard, range)) in shards.iter().zip(&ranges).enumerate() {
            if shard.register_state().slot_space() != Some(range.len) {
                return Err(oob(format!(
                    "shard {i} register arrays do not all span its {}-slot range",
                    range.len
                )));
            }
            if shard.layout() != shards[0].layout() {
                return Err(oob(format!(
                    "shard {i}'s PHV layout differs from shard 0's"
                )));
            }
            if usize::from(slot_field.0) >= shard.layout().len() {
                return Err(oob(format!(
                    "slot field id {} outside shard {i}'s PHV layout",
                    slot_field.0
                )));
            }
        }
        let n = shards.len();
        Ok(ShardedSwitch {
            shards,
            ranges: ranges.into_boxed_slice(),
            slot_field,
            total_slots,
            parallel_min: DEFAULT_PARALLEL_MIN,
            parallelism: None,
            pool: None,
            shard_of: Vec::new(),
            buckets: (0..n).map(|_| Vec::new()).collect(),
            cursors: vec![0; n],
            poisoned: false,
            safety_proven: false,
        })
    }

    /// Attach per-shard [`ShardSafetyProof`]s (one per shard, from
    /// [`crate::analysis::prove_shard_safety`] on each shard's program),
    /// upgrading the dispatcher's dynamic bounds pre-scan into a
    /// verified assumption: the pre-scan validates exactly the
    /// hypothesis the proofs are conditioned on (every routing slot in
    /// range), so a proven switch can never surface
    /// [`RuntimeError::IndexOutOfRange`] from *inside* a shard — which
    /// debug builds assert on every fault path.
    ///
    /// Each proof must be conditioned on this switch's slot field and
    /// cover exactly its shard's slot range; mismatched proofs are
    /// rejected.
    pub fn attach_safety_proofs(
        mut self,
        proofs: &[ShardSafetyProof],
    ) -> Result<Self, RuntimeError> {
        let oob = |detail: String| RuntimeError::IndexOutOfRange { detail };
        if proofs.len() != self.shards.len() {
            return Err(oob(format!(
                "{} safety proofs for {} shards",
                proofs.len(),
                self.shards.len()
            )));
        }
        for (i, (proof, range)) in proofs.iter().zip(self.ranges.iter()).enumerate() {
            if proof.slot_field() != self.slot_field {
                return Err(oob(format!(
                    "shard {i} proof is conditioned on field id {}, not the routing \
                     field id {}",
                    proof.slot_field().0,
                    self.slot_field.0
                )));
            }
            if proof.shard_slots() != range.len {
                return Err(oob(format!(
                    "shard {i} proof covers {} slots but the shard owns {}",
                    proof.shard_slots(),
                    range.len
                )));
            }
        }
        self.safety_proven = true;
        Ok(self)
    }

    /// Whether a shard-safety proof covers every shard.
    pub fn slot_safety_proven(&self) -> bool {
        self.safety_proven
    }

    /// Whether an earlier shard panic poisoned this instance.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    fn assert_unpoisoned(&self) {
        assert!(
            !self.poisoned,
            "ShardedSwitch is poisoned: a shard panicked mid-batch and its register \
             state may be inconsistent; build a fresh instance to recover"
        );
    }

    /// Debug-build consult of the shard-safety proof: a proven switch
    /// must never see an out-of-range stateful index surface from a
    /// shard, because the dispatcher validated the routing assumption
    /// before any packet ran.
    fn check_shard_fault(&self, e: &RuntimeError) {
        debug_assert!(
            !(self.safety_proven && matches!(e, RuntimeError::IndexOutOfRange { .. })),
            "shard-safety proof violated: a proven shard raised {e:?}"
        );
    }

    /// Set the batch size below which [`Self::run_batch`] stays strictly
    /// on the calling thread (no bucketing, no workers). Default
    /// [`DEFAULT_PARALLEL_MIN`]. Semantics are identical either way; this
    /// only tunes where the hand-off overhead stops paying for itself.
    #[must_use]
    pub fn with_parallel_min(mut self, packets: usize) -> Self {
        self.parallel_min = packets;
        self
    }

    /// The current single-thread batch threshold.
    pub fn parallel_min(&self) -> usize {
        self.parallel_min
    }

    /// Override the worker-thread budget instead of asking the OS.
    /// `1` forces every bucket to run sequentially on the calling thread
    /// (still through the per-shard batch engine); `>= 2` forces the
    /// persistent pool on even where `available_parallelism` reports a
    /// single core — useful for exercising the pool under test.
    #[must_use]
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = Some(threads.max(1));
        // A budget change flips the pool decision; drop any existing
        // workers so the next batch re-evaluates.
        self.pool = None;
        self
    }

    /// Whether the persistent worker pool has been spawned (it is lazy:
    /// `false` until a batch actually wanted threads).
    pub fn worker_pool_active(&self) -> bool {
        self.pool.is_some()
    }

    fn effective_parallelism(&self) -> usize {
        self.parallelism.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total slots across all shards.
    pub fn total_slots(&self) -> usize {
        self.total_slots
    }

    /// The slot ranges, in shard order (ascending, contiguous).
    pub fn ranges(&self) -> &[SlotRange] {
        &self.ranges
    }

    /// One shard's engine.
    pub fn shard(&self, index: usize) -> &CompiledSwitch {
        &self.shards[index]
    }

    /// Mutable access to one shard's engine (control plane: per-shard
    /// register writes use shard-local slot indices).
    pub fn shard_mut(&mut self, index: usize) -> &mut CompiledSwitch {
        &mut self.shards[index]
    }

    /// The shard owning a global slot.
    pub fn shard_for_slot(&self, slot: usize) -> Result<usize, RuntimeError> {
        if slot >= self.total_slots {
            return Err(RuntimeError::IndexOutOfRange {
                detail: format!(
                    "slot {slot} out of range for sharded switch with {} slots",
                    self.total_slots
                ),
            });
        }
        // Ranges are a contiguous ascending partition: the owner is the
        // last range starting at or before the slot.
        Ok(self.ranges.partition_point(|r| r.end() <= slot))
    }

    /// Control-plane read of a register entry at a **global** slot index,
    /// routed to the owning shard.
    pub fn register(&self, id: RegArrayId, slot: usize) -> i64 {
        let s = self.shard_for_slot(slot).expect("slot out of range");
        self.shards[s].register(id, slot - self.ranges[s].start)
    }

    /// Control-plane write of a register entry at a **global** slot index.
    pub fn set_register(&mut self, id: RegArrayId, slot: usize, value: i64) {
        let s = self.shard_for_slot(slot).expect("slot out of range");
        self.shards[s].set_register(id, slot - self.ranges[s].start, value);
    }

    /// Control-plane write of one value into the **global** slot span
    /// `start..start + len` ([`RegisterState::fill_range`]), each shard
    /// filling the part of the span it owns. Panics on an out-of-range
    /// span, like indexing.
    pub fn fill_registers(&mut self, id: RegArrayId, start: usize, len: usize, value: i64) {
        let end = start.checked_add(len).filter(|&e| e <= self.total_slots);
        let end = end.expect("slot range out of range");
        for (shard, r) in self.shards.iter_mut().zip(&self.ranges) {
            let (lo, hi) = (start.max(r.start), end.min(r.end()));
            if lo < hi {
                shard.fill_registers(id, lo - r.start, hi - lo, value);
            }
        }
    }

    /// Reassemble the full-space register state from the shards — the
    /// inverse of splitting, for snapshots, migration to a single-core
    /// engine, or multi-switch merging.
    pub fn merged_state(&self) -> RegisterState {
        let states: Vec<RegisterState> = self
            .shards
            .iter()
            .map(|s| s.register_state().clone())
            .collect();
        RegisterState::merged(&states, &self.ranges)
            .expect("shard shapes validated at construction")
    }

    /// Install per-shard register states split from a full-space state
    /// (see [`RegisterState::split_ranges`]).
    pub fn set_merged_state(&mut self, state: &RegisterState) -> Result<(), RuntimeError> {
        let parts = state.split_ranges(&self.ranges)?;
        for (shard, part) in self.shards.iter_mut().zip(parts) {
            shard.set_register_state(part)?;
        }
        Ok(())
    }

    /// Route one packet by its slot field, rebase the field to the
    /// shard-local index, and run it on the owning shard.
    ///
    /// After the call the slot field holds the shard-local index (the
    /// shard's program saw a local packet); every other field carries the
    /// same result the full-space engine would produce.
    pub fn run(&mut self, phv: &mut Phv) -> Result<u32, RuntimeError> {
        self.assert_unpoisoned();
        let slot = phv.get(self.slot_field) as usize;
        let s = self.shard_for_slot(slot)?;
        let start = self.ranges[s].start;
        if start != 0 {
            phv.set(self.slot_field, (slot - start) as u64);
        }
        self.shards[s].run(phv).inspect_err(|e| {
            self.check_shard_fault(e);
        })
    }

    /// [`CompiledSwitch::run_ranges`] over **global** slots: one `op`
    /// packet per slot of every `(start, len, words)` range, results
    /// appended to `collect` in packet order.
    ///
    /// Every range is checked against the slot space, and `fields.slot`
    /// against the routing field, **before any packet runs**. Each range
    /// is then clipped to each shard's [`SlotRange`], its slots rebased to
    /// shard-local indices and its words sliced to match. Consecutive
    /// pieces on one shard run as one call on that shard's engine, on the
    /// calling thread. Pieces keep their list order, so results come back
    /// in packet order for any range list (ascending or not, overlapping
    /// or not) and every slot sees its packets in the order a single
    /// full-space engine would. `lanes` serves every shard, which share
    /// one layout.
    pub fn run_ranges<'a>(
        &mut self,
        lanes: &mut BatchLanes,
        fields: SlotFields,
        op: u64,
        ranges: impl Iterator<Item = (usize, usize, Option<&'a [u64]>)> + Clone,
        mut collect: Option<&mut Vec<u64>>,
    ) -> Result<(), RuntimeError> {
        self.assert_unpoisoned();
        let oob = |detail: String| RuntimeError::IndexOutOfRange { detail };
        if fields.slot != self.slot_field {
            return Err(oob(format!(
                "slot column field id {} is not the routing field id {}",
                fields.slot.0, self.slot_field.0
            )));
        }
        for (start, len, _) in ranges.clone() {
            if start
                .checked_add(len)
                .is_none_or(|end| end > self.total_slots)
            {
                return Err(oob(format!(
                    "slot range {start}+{len} out of range for sharded switch with {} slots",
                    self.total_slots
                )));
            }
        }
        // One shard owns `0..total`: nothing to clip or rebase, and the
        // split's iterator chain would cost a one-table program ~13%.
        if self.shards.len() == 1 {
            return self.shards[0]
                .run_ranges(lanes, fields, op, ranges, collect)
                .inspect_err(|e| self.check_shard_fault(e));
        }
        // `(shard, (local start, len, words))` per piece of every range.
        let owned = &self.ranges;
        let pieces = ranges
            .filter(|&(_, len, _)| len > 0)
            .flat_map(|(start, len, words)| {
                let end = start + len;
                let first = owned.partition_point(|r| r.end() <= start);
                owned[first..]
                    .iter()
                    .take_while(move |r| r.start < end)
                    .enumerate()
                    .map(move |(i, r)| {
                        let (lo, hi) = (start.max(r.start), end.min(r.end()));
                        let words = words.map(|w| &w[lo - start..hi - start]);
                        (first + i, (lo - r.start, hi - lo, words))
                    })
            });
        let mut pieces = pieces.peekable();
        while let Some(&(s, _)) = pieces.peek() {
            let run = pieces
                .clone()
                .map_while(move |(t, p)| (t == s).then_some(p));
            self.shards[s]
                .run_ranges(lanes, fields, op, run, collect.as_deref_mut())
                .inspect_err(|e| self.check_shard_fault(e))?;
            while pieces.next_if(|&(t, _)| t == s).is_some() {}
        }
        Ok(())
    }

    /// Process a buffer of packets across all shards, returning the total
    /// pass count.
    ///
    /// Every packet's slot is validated **before any packet runs**. Large
    /// batches are partitioned per shard and fed to the persistent worker
    /// pool — one long-lived worker per shard beyond the first, each with
    /// exclusive access to its shard engine and bucket; no locks, no
    /// shared mutable state. Small batches (below
    /// [`Self::with_parallel_min`]) and single-thread budgets stay on the
    /// calling thread with identical semantics. Packets that share a
    /// shard (in particular, packets that share a slot) execute in their
    /// original relative order, so the result is bit-for-bit what a
    /// single full-space engine produces for the same sequence.
    ///
    /// On a fault the error reported is the one whose packet came
    /// earliest in the buffer; its shard stops there, but other shards
    /// may have completed their packets (unlike the strictly sequential
    /// single-engine batch).
    pub fn run_batch(&mut self, phvs: &mut [Phv]) -> Result<u64, RuntimeError> {
        self.assert_unpoisoned();
        // Single-shard fast path: one range starting at 0, so routing
        // resolves to shard 0 and rebasing is the identity — validate in
        // one pass and hand the whole buffer to the batch engine (SoA
        // when the program qualifies), with none of the multi-shard
        // bookkeeping.
        if self.shards.len() == 1 {
            if let Some(bad) = phvs
                .iter()
                .map(|phv| phv.get(self.slot_field) as usize)
                .find(|&slot| slot >= self.total_slots)
            {
                self.shard_for_slot(bad)?;
            }
            return self.shards[0].run_batch(phvs).inspect_err(|e| {
                self.check_shard_fault(e);
            });
        }
        // Route + validate up front: no packet runs if any slot is bad.
        self.shard_of.clear();
        self.shard_of.reserve(phvs.len());
        for phv in phvs.iter() {
            let slot = phv.get(self.slot_field) as usize;
            self.shard_of.push(self.shard_for_slot(slot)? as u32);
        }
        // Rebase every slot field to the shard-local index.
        for (phv, &s) in phvs.iter_mut().zip(&self.shard_of) {
            let slot = phv.get(self.slot_field) as usize;
            phv.set(
                self.slot_field,
                (slot - self.ranges[s as usize].start) as u64,
            );
        }
        if phvs.len() < self.parallel_min {
            // Sequential fallback: original order, strict first-fault,
            // no bucketing and no workers.
            let mut total = 0u64;
            for (phv, &s) in phvs.iter_mut().zip(&self.shard_of) {
                match self.shards[s as usize].run(phv) {
                    Ok(t) => total += u64::from(t),
                    Err(e) => {
                        self.check_shard_fault(&e);
                        return Err(e);
                    }
                }
            }
            return Ok(total);
        }

        // Gather per-shard buckets (moves, preserving per-shard order).
        for b in &mut self.buckets {
            b.clear();
        }
        for (phv, &s) in phvs.iter_mut().zip(&self.shard_of) {
            self.buckets[s as usize].push(std::mem::take(phv));
        }

        // Tagged with the shard index so faults can be mapped back to
        // buffer positions.
        let mut results: Vec<(usize, BucketResult)> = Vec::with_capacity(self.shards.len());

        if self.effective_parallelism() <= 1 {
            // One hardware thread: run every bucket inline, in shard
            // order. Still bucketed — each bucket goes through the batch
            // engine, so SoA execution applies per shard.
            for (s, (shard, bucket)) in self
                .shards
                .iter_mut()
                .zip(self.buckets.iter_mut())
                .enumerate()
            {
                if !bucket.is_empty() {
                    results.push((s, run_bucket(shard, bucket)));
                }
            }
        } else {
            // Dispatch buckets 1.. to the persistent pool; run bucket 0
            // inline while the workers chew. Both sides derive their
            // access from raw base pointers so no Rust reference into
            // `shards`/`buckets` is live during the window.
            if self.pool.is_none() {
                self.pool = Some(WorkerPool::spawn(self.shards.len() - 1));
            }
            let pool = self.pool.as_ref().expect("just spawned");
            let shards_ptr = self.shards.as_mut_ptr();
            let buckets_ptr = self.buckets.as_mut_ptr();
            let mut dispatched = 0usize;
            for s in 1..self.shards.len() {
                // SAFETY: `s` is in bounds; the bucket reference is
                // transient (dropped before the worker touches the job).
                let bucket = unsafe { &mut *buckets_ptr.add(s) };
                if bucket.is_empty() {
                    continue;
                }
                let job = ShardJob {
                    shard_idx: s,
                    // SAFETY: in-bounds; each shard index is dispatched
                    // at most once, so jobs never alias.
                    shard: unsafe { shards_ptr.add(s) },
                    bucket: bucket.as_mut_ptr(),
                    len: bucket.len(),
                };
                pool.job_tx[s - 1].send(job).expect("pool worker alive");
                dispatched += 1;
            }
            // SAFETY: shard/bucket 0 are never dispatched to a worker.
            let inline = {
                let shard0 = unsafe { &mut *shards_ptr };
                let bucket0 = unsafe { &mut *buckets_ptr };
                (!bucket0.is_empty())
                    .then(|| catch_unwind(AssertUnwindSafe(|| run_bucket(shard0, bucket0))))
            };
            // Drain every dispatched completion BEFORE propagating any
            // inline panic: no job may outlive this call's borrow of the
            // shards and buckets.
            let mut worker_panicked = false;
            for _ in 0..dispatched {
                match pool.done_rx.recv().expect("pool worker alive") {
                    Done::Finished(s, res) => results.push((s, res)),
                    Done::Panicked => worker_panicked = true,
                }
            }
            match inline {
                Some(Ok(res)) => results.push((0, res)),
                Some(Err(payload)) => {
                    self.poisoned = true;
                    resume_unwind(payload);
                }
                None => {}
            }
            if worker_panicked {
                self.poisoned = true;
                panic!("shard worker panicked");
            }
        }

        // Scatter the packets back into their original positions.
        self.cursors.iter_mut().for_each(|c| *c = 0);
        for (phv, &s) in phvs.iter_mut().zip(&self.shard_of) {
            let s = s as usize;
            *phv = std::mem::take(&mut self.buckets[s][self.cursors[s]]);
            self.cursors[s] += 1;
        }

        // Deterministic error selection: the fault whose packet appeared
        // earliest in the caller's buffer wins.
        let mut total = 0u64;
        let mut first_fault: Option<(usize, RuntimeError)> = None;
        for (s, res) in results {
            match res {
                Ok(t) => total += t,
                Err((j, e)) => {
                    let orig = self
                        .shard_of
                        .iter()
                        .enumerate()
                        .filter(|&(_, &sh)| sh as usize == s)
                        .nth(j)
                        .map(|(i, _)| i)
                        .unwrap_or(usize::MAX);
                    if first_fault.as_ref().is_none_or(|&(o, _)| orig < o) {
                        first_fault = Some((orig, e));
                    }
                }
            }
        }
        match first_fault {
            Some((_, e)) => {
                self.check_shard_fault(&e);
                Err(e)
            }
            None => Ok(total),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, AluOp, Operand};
    use crate::phv::PhvLayout;
    use crate::register::{RegisterArraySpec, SaluCond, SaluOutput, SaluUpdate, StatefulCall};
    use crate::stage::Stage;
    use crate::switch::{Switch, SwitchCaps, SwitchProgram};
    use crate::table::Table;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The counter's opcodes: bump (the zero a fresh PHV carries) or read.
    const OP_BUMP: u64 = 0;
    const OP_READ: u64 = 1;

    /// A per-slot saturating counter program over `slots` register
    /// entries: a packet bumps its slot by one plus its `value`, or only
    /// reads it when `op` is set, and the slot's count after the packet is
    /// echoed into the `count` field.
    fn counter_program(slots: usize) -> (SwitchProgram, FieldId, FieldId) {
        let mut layout = PhvLayout::new();
        let slot = layout.field("slot", 16);
        let count = layout.field("count", 32);
        let op = layout.field("op", 1);
        let value = layout.field("value", 16);
        let bump = Action::nop("bump")
            .prim(value, AluOp::Add, Operand::Field(value), Operand::Const(1))
            .call(StatefulCall {
                array: RegArrayId(0),
                index: Operand::Field(slot),
                cond: SaluCond::MetaNonZero(op),
                on_true: SaluUpdate::Keep,
                on_false: SaluUpdate::AddSat(Operand::Field(value)),
                output: Some((count, SaluOutput::New)),
            });
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout,
            stages: vec![Stage::new().table(Table::always("count", bump))],
            arrays: vec![RegisterArraySpec {
                name: "pkt_count".into(),
                width_bits: 32,
                entries: slots,
                stage: 0,
            }],
            recirc_field: None,
        };
        (program, slot, count)
    }

    /// The counter's columns as a range-shaped batch writes and reads them.
    fn counter_fields(program: &SwitchProgram) -> SlotFields {
        let id = |name| program.layout.lookup(name).expect("counter field");
        SlotFields {
            op: id("op"),
            slot: id("slot"),
            value: id("value"),
            result: id("count"),
        }
    }

    fn sharded_counter(total: usize, shards: usize) -> (ShardedSwitch, FieldId, FieldId) {
        let ranges = partition_slots(total, shards);
        let engines: Vec<CompiledSwitch> = ranges
            .iter()
            .map(|r| {
                let (program, _, _) = counter_program(r.len);
                CompiledSwitch::compile(&program).unwrap()
            })
            .collect();
        let (_, slot, count) = counter_program(total);
        let sw = ShardedSwitch::new(engines, ranges, slot).unwrap();
        (sw, slot, count)
    }

    #[test]
    fn partition_is_balanced_and_exact() {
        for (total, shards) in [(16, 4), (17, 4), (1, 8), (64, 1), (7, 7), (100, 3)] {
            let ranges = partition_slots(total, shards);
            check_partition(total, &ranges).unwrap();
            assert!(ranges.len() <= shards && ranges.len() == shards.min(total));
            let max = ranges.iter().map(|r| r.len).max().unwrap();
            let min = ranges.iter().map(|r| r.len).min().unwrap();
            assert!(max - min <= 1, "{total}/{shards}: unbalanced {min}..{max}");
        }
    }

    #[test]
    fn aligned_partition_keeps_chunks_whole() {
        let ranges = partition_slots_aligned(100, 4, 16);
        check_partition(100, &ranges).unwrap();
        for r in &ranges[..ranges.len() - 1] {
            assert_eq!(r.start % 16, 0);
            assert_eq!(r.len % 16, 0);
        }
        // A chunk of 16 starting anywhere on a 16-boundary never straddles.
        for chunk_start in (0..100).step_by(16) {
            let chunk_len = 16.min(100 - chunk_start);
            let owner = ranges.iter().position(|r| r.contains(chunk_start)).unwrap();
            assert!(
                ranges[owner].contains(chunk_start + chunk_len - 1),
                "chunk at {chunk_start} straddles shards"
            );
        }
    }

    #[test]
    fn random_partitions_cover_the_slot_space_exactly_once() {
        // Property test: for random (total, shards, align), every slot is
        // covered by exactly one range.
        let mut rng = SmallRng::seed_from_u64(0x5A4D);
        for _ in 0..200 {
            let total = rng.gen_range(1usize..500);
            let shards = rng.gen_range(1usize..12);
            let align = rng.gen_range(1usize..40);
            let ranges = partition_slots_aligned(total, shards, align);
            check_partition(total, &ranges).unwrap();
            for slot in 0..total {
                let owners = ranges.iter().filter(|r| r.contains(slot)).count();
                assert_eq!(owners, 1, "slot {slot} covered {owners} times");
            }
        }
    }

    #[test]
    fn bad_partitions_are_rejected() {
        // Gap.
        assert!(check_partition(8, &[SlotRange::new(0, 3), SlotRange::new(4, 4)]).is_err());
        // Overlap.
        assert!(check_partition(8, &[SlotRange::new(0, 5), SlotRange::new(4, 4)]).is_err());
        // Short.
        assert!(check_partition(8, &[SlotRange::new(0, 7)]).is_err());
        // Past the end.
        assert!(check_partition(8, &[SlotRange::new(0, 9)]).is_err());
        // Empty range.
        assert!(check_partition(8, &[SlotRange::new(0, 0), SlotRange::new(0, 8)]).is_err());
        // Exact.
        check_partition(8, &[SlotRange::new(0, 3), SlotRange::new(3, 5)]).unwrap();
    }

    #[test]
    fn fill_registers_spans_shards_like_per_slot_writes() {
        let total = 23;
        for shards in [1usize, 2, 3, 8] {
            // Spans inside one shard, across two, across all; empty ones.
            for (start, len) in [(0, 23), (0, 0), (23, 0), (5, 1), (2, 9), (7, 16), (11, 12)] {
                let (mut filled, _, _) = sharded_counter(total, shards);
                for s in 0..total {
                    filled.set_register(RegArrayId(0), s, 100 + s as i64);
                }
                let mut looped = filled.clone();
                filled.fill_registers(RegArrayId(0), start, len, -3);
                for s in start..start + len {
                    looped.set_register(RegArrayId(0), s, -3);
                }
                assert_eq!(
                    filled.merged_state(),
                    looped.merged_state(),
                    "{shards} shards, span {start}+{len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fill_registers_past_the_slot_space_panics() {
        sharded_counter(23, 3)
            .0
            .fill_registers(RegArrayId(0), 20, 4, 0);
    }

    /// One range of a range-shaped call: `(start, len, words)`.
    type Span<'a> = (usize, usize, Option<&'a [u64]>);

    /// Range-shaped calls of `(op, ranges)` over 600 slots: ranges across
    /// every shard and across the 256-lane batches, ranges straddling
    /// shard boundaries (200 and 400 on 3 shards, multiples of 75 on 8),
    /// empty ones, out-of-order and overlapping lists, and a READ whose one
    /// range spans every shard.
    fn range_calls(words: &[u64]) -> Vec<(u64, Vec<Span<'_>>)> {
        let w = |start: usize, len: usize| (start, len, Some(&words[start..start + len]));
        vec![
            (OP_BUMP, vec![w(0, 600)]),
            (OP_BUMP, vec![w(190, 20), w(5, 0), w(399, 2), w(0, 300)]),
            (OP_BUMP, vec![(250, 300, None), (600, 0, None), w(70, 10)]),
            (OP_READ, vec![(0, 600, None)]),
            (
                OP_READ,
                vec![(400, 100, None), (0, 0, None), (10, 290, None)],
            ),
        ]
    }

    #[test]
    fn run_ranges_split_at_shards_match_one_engine_and_the_interpreter() {
        let total = 600;
        let (program, _, _) = counter_program(total);
        let fields = counter_fields(&program);
        let words: Vec<u64> = (0..total as u64).map(|i| i % 7).collect();
        let calls = range_calls(&words);

        // The oracle: every packet as a PHV through the interpreter.
        let mut interp = Switch::new(program.clone()).unwrap();
        let mut want: Vec<Vec<u64>> = Vec::new();
        for (op, ranges) in &calls {
            let mut out = Vec::new();
            for &(start, len, w) in ranges {
                for k in 0..len {
                    let mut p = interp.phv();
                    p.set(fields.op, *op);
                    p.set(fields.slot, (start + k) as u64);
                    p.set(fields.value, w.map_or(0, |w| w[k]));
                    interp.run(&mut p).unwrap();
                    out.push(p.get(fields.result));
                }
            }
            want.push(out);
        }

        let mut single = CompiledSwitch::compile(&program).unwrap();
        let mut lanes = BatchLanes::default();
        for ((op, ranges), want) in calls.iter().zip(&want) {
            let mut out = Vec::new();
            let ranges = ranges.iter().copied();
            single
                .run_ranges(&mut lanes, fields, *op, ranges, Some(&mut out))
                .unwrap();
            assert_eq!(&out, want, "full-space engine");
        }
        assert_eq!(single.register_state(), interp.register_state());

        for shards in [1usize, 2, 3, 8] {
            let (mut sharded, _, _) = sharded_counter(total, shards);
            let mut lanes = BatchLanes::default();
            for (i, ((op, ranges), want)) in calls.iter().zip(&want).enumerate() {
                let mut out = Vec::new();
                let ranges = ranges.iter().copied();
                sharded
                    .run_ranges(&mut lanes, fields, *op, ranges, Some(&mut out))
                    .unwrap();
                assert_eq!(&out, want, "{shards} shards, call {i}");
            }
            assert_eq!(
                &sharded.merged_state(),
                single.register_state(),
                "{shards} shards"
            );
            assert!(!sharded.worker_pool_active(), "ranges never use the pool");
        }
    }

    #[test]
    fn run_ranges_reject_bad_ranges_before_any_register_changes() {
        let (program, _, _) = counter_program(600);
        let fields = counter_fields(&program);
        let words = vec![3u64; 600];
        let (mut sw, _, _) = sharded_counter(600, 3);
        let mut lanes = BatchLanes::default();
        let bump = std::iter::once((0, 600, Some(&words[..])));
        sw.run_ranges(&mut lanes, fields, OP_BUMP, bump, None)
            .unwrap();
        let before = sw.merged_state();
        let bad: [&[Span]; 3] = [
            &[(0, 10, Some(&words[..10])), (595, 10, Some(&words[..10]))],
            &[(10, 5, None), (usize::MAX, 2, None)],
            &[(601, 0, None)],
        ];
        for ranges in bad {
            let res = sw.run_ranges(&mut lanes, fields, OP_BUMP, ranges.iter().copied(), None);
            assert!(
                matches!(res, Err(RuntimeError::IndexOutOfRange { .. })),
                "{ranges:?} must be rejected"
            );
            assert_eq!(sw.merged_state(), before, "{ranges:?} changed registers");
        }
        // The slot column must be the field the shards are routed by.
        let wrong = SlotFields {
            slot: fields.value,
            ..fields
        };
        let res = sw.run_ranges(&mut lanes, wrong, OP_BUMP, [(0, 4, None)].into_iter(), None);
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        assert_eq!(sw.merged_state(), before);

        // One engine: a range past the 16-bit slot field is rejected
        // before any packet runs instead of wrapping to slot 0.
        let mut single = CompiledSwitch::compile(&program).unwrap();
        let wraps = [(10, 5, None), (65_530, 10, None)];
        let res = single.run_ranges(&mut lanes, fields, OP_BUMP, wraps.into_iter(), None);
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        assert!((0..600).all(|s| single.register(RegArrayId(0), s) == 0));
    }

    #[test]
    fn sharded_counters_match_a_single_engine_bit_for_bit() {
        let total = 23;
        let (program, slot, count) = counter_program(total);
        let mut single = CompiledSwitch::compile(&program).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let stream: Vec<usize> = (0..800).map(|_| rng.gen_range(0..total)).collect();
        for shards in [1usize, 2, 3, 8] {
            let (mut sharded, _, _) = sharded_counter(total, shards);
            let mut phvs: Vec<Phv> = stream
                .iter()
                .map(|&s| {
                    let mut p = single.phv();
                    p.set(slot, s as u64);
                    p
                })
                .collect();
            let passes = sharded.run_batch(&mut phvs).unwrap();
            assert_eq!(passes, stream.len() as u64, "{shards} shards");
            // Per-packet outputs match the scalar single-engine run.
            let mut fresh = CompiledSwitch::compile(&program).unwrap();
            for (i, (&s, phv)) in stream.iter().zip(&phvs).enumerate() {
                let mut p = fresh.phv();
                p.set(slot, s as u64);
                fresh.run(&mut p).unwrap();
                assert_eq!(
                    phv.get(count),
                    p.get(count),
                    "{shards} shards, packet {i} (slot {s})"
                );
            }
            // Global register state reassembles to the single engine's.
            if shards == 1 {
                for &s in &stream {
                    let mut p = single.phv();
                    p.set(slot, s as u64);
                    single.run(&mut p).unwrap();
                }
            }
            let merged = sharded.merged_state();
            for s in 0..total {
                assert_eq!(
                    merged.get(RegArrayId(0), s),
                    single.register(RegArrayId(0), s),
                    "{shards} shards, slot {s}"
                );
                assert_eq!(
                    sharded.register(RegArrayId(0), s),
                    single.register(RegArrayId(0), s)
                );
            }
        }
    }

    #[test]
    fn scalar_run_routes_and_rebases() {
        let (mut sw, slot, count) = sharded_counter(10, 3);
        // Slot 7 lands in the last shard; bump it twice.
        for want in 1..=2u64 {
            let mut p = sw.shard(0).phv();
            p.set(slot, 7);
            sw.run(&mut p).unwrap();
            assert_eq!(p.get(count), want);
        }
        assert_eq!(sw.register(RegArrayId(0), 7), 2);
        // Neighboring slots in other shards untouched.
        assert_eq!(sw.register(RegArrayId(0), 6), 0);
        assert_eq!(sw.register(RegArrayId(0), 8), 0);
    }

    #[test]
    fn out_of_range_slots_error_before_anything_runs() {
        let (mut sw, slot, _) = sharded_counter(8, 2);
        let mut phvs: Vec<Phv> = (0..4)
            .map(|i| {
                let mut p = sw.shard(0).phv();
                p.set(slot, if i == 3 { 99 } else { i });
                p
            })
            .collect();
        assert!(matches!(
            sw.run_batch(&mut phvs),
            Err(RuntimeError::IndexOutOfRange { .. })
        ));
        for s in 0..8 {
            assert_eq!(sw.register(RegArrayId(0), s), 0, "nothing ran");
        }
        let mut bad = sw.shard(0).phv();
        bad.set(slot, 8);
        assert!(sw.run(&mut bad).is_err());
    }

    #[test]
    fn split_and_merge_roundtrip_register_state() {
        let (program, _, _) = counter_program(12);
        let mut single = CompiledSwitch::compile(&program).unwrap();
        for s in 0..12 {
            single.set_register(RegArrayId(0), s, (s * 3 + 1) as i64);
        }
        let ranges = partition_slots(12, 5);
        let parts = single.register_state().split_ranges(&ranges).unwrap();
        assert_eq!(parts.len(), 5);
        let merged = RegisterState::merged(&parts, &ranges).unwrap();
        assert_eq!(&merged, single.register_state());
        // Snapshot/restore roundtrip too.
        let snap = merged.snapshot();
        let mut zeroed = RegisterState::new(&program.arrays);
        zeroed.restore(&snap).unwrap();
        assert_eq!(&zeroed, single.register_state());
        // Shape mismatch is an error, not corruption.
        let (other, _, _) = counter_program(7);
        assert!(RegisterState::new(&other.arrays).restore(&snap).is_err());
        // So is merging shards whose register widths disagree: a wider
        // shard's values must not land behind narrower saturation bounds.
        let narrow = crate::register::RegisterArraySpec {
            name: "pkt_count".into(),
            width_bits: 8,
            entries: parts[1].entries(RegArrayId(0)),
            stage: 0,
        };
        let mut mixed: Vec<RegisterState> = parts.clone();
        mixed[1] = RegisterState::new(&[narrow]);
        assert!(RegisterState::merged(&mixed, &ranges).is_err());
    }

    #[test]
    fn tiny_batches_never_spawn_workers() {
        // Regression: below `parallel_min` no pool must ever come up,
        // whatever the claimed thread budget.
        let (mut sw, slot, _) = sharded_counter(16, 4);
        sw = sw.with_parallel_min(64).with_parallelism(8);
        assert_eq!(sw.parallel_min(), 64);
        for _ in 0..10 {
            let mut phvs: Vec<Phv> = (0..63)
                .map(|i| {
                    let mut p = sw.shard(0).phv();
                    p.set(slot, i % 16);
                    p
                })
                .collect();
            sw.run_batch(&mut phvs).unwrap();
            assert!(!sw.worker_pool_active(), "tiny batch spawned workers");
        }
        // One batch at the threshold flips it on.
        let mut phvs: Vec<Phv> = (0..64)
            .map(|i| {
                let mut p = sw.shard(0).phv();
                p.set(slot, i % 16);
                p
            })
            .collect();
        sw.run_batch(&mut phvs).unwrap();
        assert!(sw.worker_pool_active());
        // A single-thread budget never spawns, at any batch size.
        let (mut seq, slot, _) = sharded_counter(16, 4);
        seq = seq.with_parallelism(1).with_parallel_min(1);
        let mut phvs: Vec<Phv> = (0..500)
            .map(|i| {
                let mut p = seq.shard(0).phv();
                p.set(slot, i % 16);
                p
            })
            .collect();
        seq.run_batch(&mut phvs).unwrap();
        assert!(!seq.worker_pool_active());
    }

    #[test]
    fn worker_pool_matches_single_engine_across_batches() {
        // Force the pool on (the CI host may report one core) and check
        // repeated batches through the same persistent workers stay
        // bit-for-bit with a full-space engine; clones start poolless.
        let total = 29;
        let (program, slot, count) = counter_program(total);
        let mut single = CompiledSwitch::compile(&program).unwrap();
        let (sw, _, _) = sharded_counter(total, 4);
        let mut sw = sw.with_parallelism(4).with_parallel_min(8);
        let mut rng = SmallRng::seed_from_u64(99);
        for batch in 0..6 {
            let slots: Vec<usize> = (0..300).map(|_| rng.gen_range(0..total)).collect();
            let mut phvs: Vec<Phv> = slots
                .iter()
                .map(|&s| {
                    let mut p = single.phv();
                    p.set(slot, s as u64);
                    p
                })
                .collect();
            let passes = sw.run_batch(&mut phvs).unwrap();
            assert_eq!(passes, 300, "batch {batch}");
            for (&s, phv) in slots.iter().zip(&phvs) {
                let mut p = single.phv();
                p.set(slot, s as u64);
                single.run(&mut p).unwrap();
                assert_eq!(phv.get(count), p.get(count), "batch {batch} slot {s}");
            }
        }
        assert!(sw.worker_pool_active());
        let clone = sw.clone();
        assert!(!clone.worker_pool_active(), "clones must not share workers");
        let merged = sw.merged_state();
        for s in 0..total {
            assert_eq!(
                merged.get(RegArrayId(0), s),
                single.register(RegArrayId(0), s)
            );
        }
    }

    #[test]
    fn construction_rejects_mismatched_shards() {
        let ranges = partition_slots(8, 2);
        let engines: Vec<CompiledSwitch> = ranges
            .iter()
            .map(|r| {
                let (program, _, _) = counter_program(r.len);
                CompiledSwitch::compile(&program).unwrap()
            })
            .collect();
        let (_, slot, _) = counter_program(8);
        // Wrong range count.
        assert!(ShardedSwitch::new(engines.clone(), vec![SlotRange::new(0, 8)], slot).is_err());
        // Shard arrays don't span the claimed range.
        assert!(ShardedSwitch::new(
            engines.clone(),
            vec![SlotRange::new(0, 5), SlotRange::new(5, 3)],
            slot
        )
        .is_err());
        // Unknown slot field.
        assert!(ShardedSwitch::new(engines.clone(), ranges.clone(), FieldId(99)).is_err());
        // Shards whose PHV layouts differ (one lane buffer serves them all).
        let (mut other, _, _) = counter_program(ranges[1].len);
        other.layout.field("pad", 8);
        let mixed = vec![engines[0].clone(), CompiledSwitch::compile(&other).unwrap()];
        assert!(ShardedSwitch::new(mixed, ranges.clone(), slot).is_err());
        // Valid.
        ShardedSwitch::new(engines, ranges, slot).unwrap();
    }

    /// Extract a panic payload's message for assertions.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".into())
    }

    #[test]
    fn worker_panic_poisons_the_switch_and_a_fresh_instance_recovers() {
        let (sw, slot, _) = sharded_counter(8, 2);
        let mut sw = sw.with_parallelism(2).with_parallel_min(1);
        // A PHV built from a *foreign, smaller* layout: the slot field
        // (id 0) exists, so routing and rebasing succeed, but the shard
        // engine then indexes the missing `count` column and panics —
        // inside a pool worker, because slot 6 belongs to shard 1 and
        // only shard 0 runs inline.
        let mut tiny = PhvLayout::new();
        let tiny_slot = tiny.field("slot", 16);
        assert_eq!(tiny_slot, slot);
        let mut batch = vec![Phv::new(&tiny)];
        batch[0].set(tiny_slot, 6);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let _ = sw.run_batch(&mut batch);
        }))
        .expect_err("worker panic must propagate to the caller");
        assert!(
            panic_message(payload).contains("shard worker panicked"),
            "caller must learn the panic came from a shard worker"
        );
        // The worker died mid-batch: register state is suspect, so the
        // instance is poisoned and every further use fails loudly with
        // an actionable message instead of quietly aggregating on it.
        assert!(sw.poisoned());
        let mut probe = sw.shard(0).phv();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let _ = sw.run(&mut probe);
        }))
        .expect_err("poisoned switch must refuse to run");
        let msg = panic_message(payload);
        assert!(msg.contains("poisoned"), "got: {msg}");
        assert!(msg.contains("fresh instance"), "got: {msg}");
        // Recovery path: a rebuilt switch is healthy and aggregates.
        let (fresh, fslot, fcount) = sharded_counter(8, 2);
        let mut fresh = fresh.with_parallelism(2).with_parallel_min(1);
        let mut phv = fresh.shard(0).phv();
        phv.set(fslot, 6);
        fresh.run(&mut phv).unwrap();
        assert_eq!(phv.get(fcount), 1);
        assert!(!fresh.poisoned());
    }
}
