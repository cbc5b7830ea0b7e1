//! All-reduce through the **sharded** dataplane: a shard-count sweep of
//! the FPISA FP16 aggregation backend, verified bit-for-bit against the
//! unsharded backend and timed per round.
//!
//! The slot space is partitioned into contiguous, chunk-aligned ranges,
//! as a Tofino splits register state across its pipes. The partition is a
//! build-time `ShardPlan`: every shard's program is analyzed and proved
//! shard-safe, and every packet runs on one full-space `CompiledSwitch`.
//! Each round's packets are ingested through
//! `AggregationSwitch::ingest_batch`, whose one `add_wire_multi` call
//! fills that engine's lanes from the chunks. Every row below is
//! bit-identical to the 1-shard baseline. The per-round times are one
//! short run each, on one engine whatever the shard count: read them as
//! what a round costs, not as a scaling curve.
//!
//! ```sh
//! cargo run --release --example sharded_allreduce
//! ```

use fpisa::agg::{AggregationSwitch, Aggregator, FpisaAggregator, GradientWorkload};
use fpisa::hw::report::render_columns;
use std::time::Instant;

const ROUNDS: u32 = 4;

fn main() {
    let workload = GradientWorkload {
        workers: 8,
        elements: 2048,
        elements_per_packet: 64,
        ..GradientWorkload::fig10(16)
    };
    let spec = workload.job_spec();
    let gradients = workload.generate();
    println!(
        "all-reduce: {} workers x {} elements ({} chunks of {}), {} rounds per shard count\n",
        spec.workers,
        spec.elements,
        spec.chunks(),
        spec.elements_per_packet,
        ROUNDS
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut baseline: Option<Vec<f64>> = None;
    for shards in [1usize, 2, 4, 8] {
        let backend =
            FpisaAggregator::fp16_tofino_sharded(spec.elements, shards, spec.elements_per_packet)
                .expect("preset validates")
                .with_shadow_stats(false);
        let ranges = backend.pipeline().shard_ranges();
        let proven = backend.pipeline().shard_safety_proven();
        let mut sw = AggregationSwitch::new(spec, backend).expect("job fits backend");
        let words: Vec<Vec<u64>> = gradients
            .iter()
            .map(|g| g.iter().map(|&x| sw.backend_mut().encode(x)).collect())
            .collect();

        let start = Instant::now();
        let mut sums = Vec::new();
        for round in 0..ROUNDS {
            let pkts: Vec<_> = words
                .iter()
                .enumerate()
                .flat_map(|(w, g)| spec.packetize(w as u32, round, g))
                .collect();
            let decisions = sw.ingest_batch(&pkts).expect("in-range slots");
            assert!(decisions.iter().all(|d| d.accepted()));
            sums = sw.read_all().expect("read");
            for chunk in 0..spec.chunks() {
                sw.finish_round(chunk).expect("reset");
            }
        }
        let ns_per_round = start.elapsed().as_nanos() as f64 / f64::from(ROUNDS);

        // Every shard count must reproduce the 1-shard sums bit for bit.
        match &baseline {
            None => baseline = Some(sums),
            Some(want) => assert_eq!(&sums, want, "{shards} shards diverged from 1 shard"),
        }
        let slots_per_shard = ranges.iter().map(|r| r.len).max().unwrap_or(0);
        rows.push(vec![
            format!("{shards}"),
            format!("{}", ranges.len()),
            format!("{slots_per_shard}"),
            if proven { "yes" } else { "-" }.to_string(),
            format!("{:.2}", ns_per_round / 1e6),
            format!(
                "{:.1}",
                (spec.workers as f64 * spec.elements as f64) / ns_per_round * 1e3
            ),
            "bit-exact".into(),
        ]);
    }

    println!(
        "{}",
        render_columns(
            &[
                "Shards",
                "Ranges",
                "Slots/shard",
                "Proven",
                "ms/round",
                "Melem/s",
                "vs 1 shard",
            ],
            &rows,
        )
    );
    println!(
        "\n(Every shard count runs on one full-space engine: the sweep verifies \
         correctness and the shard-safety proofs, not scaling.)"
    );
}
