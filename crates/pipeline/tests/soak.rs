//! Million-packet aggregation soak: the experiment scale the compiled
//! engine exists for. One million ADD packets stream through
//! [`FpisaPipeline::add_batch`] into 256 slots, and the final register
//! state and read-out of every slot is verified bit-for-bit against
//! `fpisa_core::FpisaAccumulator` references fed the same stream. A third
//! soak takes the path the aggregation workloads take: 64-word wire chunks
//! through [`FpisaPipeline::add_ranges`], held in the open batch, with a
//! [`FpisaPipeline::read_range`] read-out after every round.
//!
//! Ignored by default (it is a release-profile workload); run it with
//!
//! ```sh
//! cargo test --release -p fpisa-pipeline --test soak -- --ignored
//! ```

use fpisa_core::{FpFormat, FpisaAccumulator};
use fpisa_pipeline::{FpisaPipeline, PipelineSpec, PipelineVariant};
use rand::{rngs::SmallRng, Rng, SeedableRng};

const PACKETS: usize = 1_000_000;
const SLOTS: usize = 256;
const CHUNK: usize = 8192;

fn soak(variant: PipelineVariant, seed: u64) {
    let spec = PipelineSpec::new(variant).slots(SLOTS);
    let mut pipe = FpisaPipeline::from_spec(spec).expect("spec must validate");
    let cfg = pipe.core_config();
    let mut refs: Vec<FpisaAccumulator> = (0..SLOTS).map(|_| FpisaAccumulator::new(cfg)).collect();

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sent = 0usize;
    let mut chunk: Vec<(usize, u64)> = Vec::with_capacity(CHUNK);
    while sent < PACKETS {
        chunk.clear();
        for _ in 0..CHUNK.min(PACKETS - sent) {
            let slot = rng.gen_range(0usize..SLOTS);
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            let x = sign * 2f32.powi(rng.gen_range(-20..20)) * rng.gen_range(1.0f32..2.0);
            chunk.push((slot, u64::from(x.to_bits())));
        }
        pipe.add_batch(&chunk).expect("finite in-range packets");
        for &(slot, bits) in &chunk {
            refs[slot].add_bits_quiet(bits).expect("finite packets");
        }
        sent += chunk.len();
    }

    // Bit-for-bit verification: register state and read-out per slot.
    let reads = pipe.read_batch(&(0..SLOTS).collect::<Vec<_>>()).unwrap();
    for (slot, reference) in refs.iter().enumerate() {
        assert_eq!(
            pipe.register_state(slot),
            (reference.exponent(), reference.mantissa()),
            "{variant:?}: register state diverged in slot {slot} after 1M packets"
        );
        assert_eq!(
            reads[slot],
            reference.read_bits(),
            "{variant:?}: read-out diverged in slot {slot} after 1M packets"
        );
    }
    let total: u64 = refs.iter().map(|r| r.stats().additions).sum();
    assert_eq!(total as usize, PACKETS);
}

#[test]
#[ignore = "1M-packet soak; run with --release -- --ignored"]
fn million_packet_soak_tofino_a() {
    soak(PipelineVariant::TofinoA, 0x50AC_0001);
}

/// The structure-of-arrays engine at experiment scale with *mixed*
/// traffic: one million ADD packets in SoA chunks, with a batched READ
/// sweep interleaved every 16 chunks so the read-out tape (and the
/// ADD→READ op-column flip that defeats the uniform-key fast paths) is
/// exercised against the reference mid-stream, not only at the end.
#[test]
#[ignore = "1M-packet soak; run with --release -- --ignored"]
fn million_packet_soak_soa_mixed_reads() {
    let spec = PipelineSpec::new(PipelineVariant::TofinoA).slots(SLOTS);
    let mut pipe = FpisaPipeline::from_spec(spec).expect("spec must validate");
    let cfg = pipe.core_config();
    let mut refs: Vec<FpisaAccumulator> = (0..SLOTS).map(|_| FpisaAccumulator::new(cfg)).collect();

    let mut rng = SmallRng::seed_from_u64(0x50AC_0003);
    let mut sent = 0usize;
    let mut chunks = 0usize;
    let mut chunk: Vec<(usize, u64)> = Vec::with_capacity(CHUNK);
    while sent < PACKETS {
        chunk.clear();
        for _ in 0..CHUNK.min(PACKETS - sent) {
            let slot = rng.gen_range(0usize..SLOTS);
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            let x = sign * 2f32.powi(rng.gen_range(-20..20)) * rng.gen_range(1.0f32..2.0);
            chunk.push((slot, u64::from(x.to_bits())));
        }
        pipe.add_batch(&chunk).expect("finite in-range packets");
        for &(slot, bits) in &chunk {
            refs[slot].add_bits_quiet(bits).expect("finite packets");
        }
        sent += chunk.len();
        chunks += 1;
        if chunks.is_multiple_of(16) {
            let slots: Vec<usize> = (0..64).map(|_| rng.gen_range(0usize..SLOTS)).collect();
            let reads = pipe.read_batch(&slots).expect("in-range reads");
            for (&slot, &bits) in slots.iter().zip(&reads) {
                assert_eq!(
                    bits,
                    refs[slot].read_bits(),
                    "mid-stream read-out diverged in slot {slot} after {sent} packets"
                );
            }
        }
    }
    let reads = pipe.read_batch(&(0..SLOTS).collect::<Vec<_>>()).unwrap();
    for (slot, reference) in refs.iter().enumerate() {
        assert_eq!(
            reads[slot],
            reference.read_bits(),
            "read-out diverged in slot {slot} after 1M packets"
        );
    }
}

#[test]
#[ignore = "1M-packet soak; run with --release -- --ignored"]
fn million_packet_soak_extended_full() {
    soak(PipelineVariant::ExtendedFull, 0x50AC_0002);
}

/// The aggregation workloads' path at soak scale: FP16 on Tofino, rounds
/// of 8 workers × 4096 slots sent as 64-word `add_ranges` chunks (the
/// shape of one packet each), so ADDs are held across calls and run as
/// full batches. After every round a `read_range` over all slots is checked
/// against the references, then one 64-slot chunk is cleared for reuse, as
/// an aggregation switch finishes a chunk's round.
#[test]
#[ignore = "1M-packet soak; run with --release -- --ignored"]
fn million_packet_soak_wire_chunks_through_add_ranges() {
    const SLOTS: usize = 4096;
    const WORKERS: usize = 8;
    const WIRE: usize = 64;
    let spec = PipelineSpec::new(PipelineVariant::TofinoA)
        .format(FpFormat::FP16)
        .slots(SLOTS);
    let mut pipe = FpisaPipeline::from_spec(spec).expect("spec must validate");
    let cfg = pipe.core_config();
    let mut refs: Vec<FpisaAccumulator> = (0..SLOTS).map(|_| FpisaAccumulator::new(cfg)).collect();

    let mut rng = SmallRng::seed_from_u64(0x50AC_0004);
    let mut sent = 0usize;
    let mut round = 0usize;
    let mut words = vec![0u64; WIRE];
    while sent < PACKETS {
        for _ in 0..WORKERS {
            for start in (0..SLOTS).step_by(WIRE) {
                for w in &mut words {
                    let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                    let x = sign * 2f64.powi(rng.gen_range(-10..10)) * rng.gen_range(1.0..2.0);
                    *w = FpFormat::FP16.encode(x);
                }
                pipe.add_ranges(&[(start, &words)])
                    .expect("finite in-range packets");
                for (r, &bits) in refs[start..].iter_mut().zip(&words) {
                    r.add_bits_quiet(bits).expect("finite packets");
                }
                sent += WIRE;
            }
        }
        let reads = pipe.read_range(0, SLOTS).expect("in-range reads");
        for (slot, (&bits, r)) in reads.iter().zip(&refs).enumerate() {
            assert_eq!(
                bits,
                r.read_bits(),
                "read-out diverged in slot {slot} after round {round} ({sent} packets)"
            );
        }
        let start = (round * 17 % (SLOTS / WIRE)) * WIRE;
        pipe.clear_range(start, WIRE).expect("in-range clear");
        for r in &mut refs[start..start + WIRE] {
            *r = FpisaAccumulator::new(cfg);
        }
        round += 1;
    }
    for (slot, r) in refs.iter().enumerate() {
        assert_eq!(
            pipe.register_state(slot),
            (r.exponent(), r.mantissa()),
            "register state diverged in slot {slot} after {sent} packets"
        );
    }
}
