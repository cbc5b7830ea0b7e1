//! Sharded-aggregation differential suite: a backend whose slot space is
//! partitioned into shards must be **bit-for-bit** indistinguishable from
//! the unpartitioned one, for any packet arrival order.
//!
//! The load-bearing invariant: a partition never reorders the packets
//! that share a slot, so whatever global shuffle the network applies,
//! every slot sees the same addition sequence on 1 shard and on N — and
//! FPISA addition, order-sensitive as it is, produces the same registers
//! and the same read-outs. The shuffled stream is fed to both the scalar
//! `ingest` path and the batched `ingest_batch` path, whose one
//! `add_wire_multi` call carries an out-of-order, overlapping chunk list
//! across shard boundaries.

use fpisa_agg::{
    AggPacket, AggregationSwitch, Aggregator, FpisaAggregator, JobSpec, SwitchMlFixedPoint,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};

const WORKERS: u32 = 6;
const ELEMENTS: usize = 96;
const EPP: usize = 16; // elements per packet (chunk size)

fn job() -> JobSpec {
    JobSpec {
        job: 42,
        workers: WORKERS,
        elements: ELEMENTS,
        elements_per_packet: EPP,
    }
}

/// Wide-dynamic-range gradients (the Fig. 10 regime), one per worker.
fn gradients(rng: &mut SmallRng) -> Vec<Vec<f64>> {
    (0..WORKERS)
        .map(|w| {
            (0..ELEMENTS)
                .map(|e| {
                    let mag = 2f64.powi(rng.gen_range(-12..12));
                    let sign = if (e + w as usize).is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    sign * mag * rng.gen_range(1.0f64..2.0)
                })
                .collect()
        })
        .collect()
}

/// Every worker's packets for one round, plus duplicates, shuffled.
fn shuffled_round(
    rng: &mut SmallRng,
    spec: &JobSpec,
    round: u32,
    words: &[Vec<u64>],
) -> Vec<AggPacket> {
    let mut pkts: Vec<AggPacket> = Vec::new();
    for (worker, w) in words.iter().enumerate() {
        pkts.extend(spec.packetize(worker as u32, round, w));
    }
    // Sprinkle retransmissions (idempotent on every backend).
    for i in 0..4 {
        let dup = pkts[i * 3 % pkts.len()].clone();
        pkts.push(dup);
    }
    // Fisher–Yates shuffle (the vendored rand shim has no SliceRandom).
    for i in (1..pkts.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        pkts.swap(i, j);
    }
    pkts
}

/// Drive one backend through `rounds` shuffled rounds, returning the
/// per-round read-outs. `batched` picks `ingest_batch` over scalar
/// `ingest`.
fn run_rounds<B: Aggregator>(
    backend: B,
    seed: u64,
    rounds: u32,
    batched: bool,
) -> (Vec<Vec<f64>>, fpisa_agg::AggStats) {
    let spec = job();
    let mut rng = SmallRng::seed_from_u64(seed);
    let grads = gradients(&mut rng);
    let mut sw = AggregationSwitch::new(spec, backend).unwrap();
    let words: Vec<Vec<u64>> = grads
        .iter()
        .map(|g| g.iter().map(|&x| sw.backend_mut().encode(x)).collect())
        .collect();
    let mut outs = Vec::new();
    for round in 0..rounds {
        let pkts = shuffled_round(&mut rng, &spec, round, &words);
        if batched {
            let decisions = sw.ingest_batch(&pkts).unwrap();
            assert_eq!(
                decisions.iter().filter(|d| d.accepted()).count(),
                spec.chunks() * WORKERS as usize,
                "round {round}: exactly one accept per (worker, chunk)"
            );
        } else {
            for p in &pkts {
                sw.ingest(p).unwrap();
            }
        }
        for chunk in 0..spec.chunks() {
            assert!(sw.pool().is_complete(chunk), "round {round} chunk {chunk}");
        }
        outs.push(sw.read_all().unwrap());
        for chunk in 0..spec.chunks() {
            sw.finish_round(chunk).unwrap();
        }
    }
    let stats = sw.backend().stats();
    (outs, stats)
}

#[test]
fn sharded_fpisa_is_bit_identical_to_single_core_under_shuffled_order() {
    let (single, single_stats) = run_rounds(
        FpisaAggregator::fp16_tofino(ELEMENTS).unwrap(),
        0xF00D,
        2,
        false,
    );
    for shards in [2usize, 3, 6] {
        for batched in [false, true] {
            let backend = FpisaAggregator::fp16_tofino_sharded(ELEMENTS, shards, EPP).unwrap();
            assert_eq!(backend.pipeline().shards(), shards);
            let (sharded, stats) = run_rounds(backend, 0xF00D, 2, batched);
            // f64 results decoded from the same packed bits: exact
            // equality IS bit-for-bit equality here.
            assert_eq!(
                single, sharded,
                "{shards} shards (batched: {batched}) diverged from single core"
            );
            assert_eq!(
                single_stats, stats,
                "{shards} shards (batched: {batched}): shadow accounting diverged"
            );
        }
    }
}

#[test]
fn sharded_switchml_is_bit_identical_to_single_core_under_shuffled_order() {
    let scale = 2f64.powi(-8);
    let (single, single_stats) = run_rounds(
        SwitchMlFixedPoint::new(ELEMENTS, scale, WORKERS).unwrap(),
        0xBEEF,
        2,
        false,
    );
    // Chunk-aligned shards, and one unaligned geometry: 5 shards of 19–20
    // slots cut 16-slot chunks at shard boundaries, so the range path
    // splits chunks across shards.
    for (shards, align) in [(2usize, EPP), (4, EPP), (5, 1)] {
        for batched in [false, true] {
            let backend = SwitchMlFixedPoint::new(ELEMENTS, scale, WORKERS)
                .unwrap()
                .with_shards(shards, align)
                .unwrap();
            assert_eq!(backend.shards(), shards);
            let (sharded, stats) = run_rounds(backend, 0xBEEF, 2, batched);
            assert_eq!(single, sharded, "{shards} shards (batched: {batched})");
            assert_eq!(single_stats, stats);
        }
    }
}

#[test]
fn chunk_aligned_shards_never_split_a_chunk() {
    let backend = FpisaAggregator::fp16_tofino_sharded(ELEMENTS, 3, EPP).unwrap();
    let spec = job();
    let ranges = backend.pipeline().shard_ranges();
    for chunk in 0..spec.chunks() {
        let (start, len) = spec.slot_range(chunk);
        let owner = ranges.iter().position(|r| r.contains(start)).unwrap();
        assert!(
            ranges[owner].contains(start + len - 1),
            "chunk {chunk} straddles shard boundaries"
        );
    }
}

#[test]
fn sharding_survives_late_and_stale_packets() {
    // Round bookkeeping under out-of-order completion: stale packets from
    // a finished round must be rejected identically on a sharded backend.
    let spec = job();
    let mut sw = AggregationSwitch::new(
        spec,
        FpisaAggregator::fp16_tofino_sharded(ELEMENTS, 4, EPP).unwrap(),
    )
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(1);
    let grads = gradients(&mut rng);
    let words: Vec<Vec<u64>> = grads
        .iter()
        .map(|g| g.iter().map(|&x| sw.backend_mut().encode(x)).collect())
        .collect();
    let round0 = shuffled_round(&mut rng, &spec, 0, &words);
    sw.ingest_batch(&round0).unwrap();
    let before = sw.read_all().unwrap();
    for chunk in 0..spec.chunks() {
        sw.finish_round(chunk).unwrap();
    }
    // Every round-0 packet is now stale; none may dirty the reused slots.
    let decisions = sw.ingest_batch(&round0).unwrap();
    assert!(decisions
        .iter()
        .all(|d| *d == fpisa_agg::IngestDecision::StaleRound));
    assert_eq!(sw.read_all().unwrap(), vec![0.0; ELEMENTS]);
    // Round 1 aggregates cleanly on the reused slots. Replaying the same
    // packet order (FPISA addition is order-sensitive) must reproduce the
    // round-0 sums bit for bit.
    let round1: Vec<AggPacket> = round0
        .iter()
        .map(|p| AggPacket {
            round: 1,
            ..p.clone()
        })
        .collect();
    sw.ingest_batch(&round1).unwrap();
    assert_eq!(sw.read_all().unwrap(), before, "same sequence, same sums");
}
