//! All-reduce under an adversarial network: a fault sweep of the FPISA
//! FP16 backend through `fpisa-netsim`, asserting that loss, duplication,
//! reordering, corruption and a worker crash/restart never change the
//! aggregated sums — bit for bit — while a permanent worker death
//! degrades gracefully instead of hanging.
//!
//! Each scenario is a seeded `FaultPlan`; the whole table replays
//! exactly from the seeds below (no wall clock, no global RNG).
//!
//! ```sh
//! cargo run --release --example chaos_allreduce
//! ```

use fpisa::agg::FpisaAggregator;
use fpisa::hw::report::render_columns;
use fpisa::netsim::{run_allreduce, ChaosWorkload, FaultPlan, RunReport, SimConfig};

const SEED: u64 = 0xFA_57;

fn run(plan: FaultPlan, workload: &ChaosWorkload) -> RunReport {
    run_allreduce(
        workload.spec(1),
        FpisaAggregator::fp16_tofino(workload.elements).expect("preset validates"),
        &workload.gradients(),
        plan,
        SimConfig::default(),
    )
    .expect("simulation completes")
}

fn main() {
    let workload = ChaosWorkload {
        workers: ChaosWorkload::MAX_EXACT_FP16_FANIN,
        elements: 96,
        elements_per_packet: 32,
        rounds: 4,
        seed: SEED,
    };
    let spec = workload.spec(1);
    println!(
        "chaos all-reduce: {} workers x {} elements ({} chunks), {} rounds, FPISA FP16\n",
        spec.workers,
        spec.elements,
        spec.chunks(),
        workload.rounds
    );

    let clean = run(FaultPlan::lossless(SEED), &workload);
    assert_eq!(
        clean.results,
        ChaosWorkload::exact_sums(&workload.gradients()),
        "lossless run must equal the exact host sum"
    );
    let mid = clean.sim_ns * 2 / 5;

    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("lossless", FaultPlan::lossless(SEED)),
        ("loss10", FaultPlan::new(SEED).drop(0.10)),
        ("dup10", FaultPlan::new(SEED).duplicate(0.10)),
        ("reorder", FaultPlan::new(SEED).reorder(0.25, 60_000)),
        ("corrupt", FaultPlan::new(SEED).corrupt(0.15)),
        (
            "restart",
            FaultPlan::new(SEED)
                .drop(0.10)
                .crash(2, mid, Some(clean.sim_ns / 2)),
        ),
        (
            "the-works",
            FaultPlan::new(SEED)
                .drop(0.10)
                .duplicate(0.10)
                .reorder(0.10, 50_000)
                .corrupt(0.05)
                .straggler(1, 20_000)
                .crash(2, mid, Some(clean.sim_ns / 2)),
        ),
        ("dead-worker", FaultPlan::new(SEED).crash(4, mid, None)),
    ];

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (label, plan) in scenarios {
        let report = run(plan, &workload);
        assert_eq!(report.incomplete_chunks, 0, "{label}: must never hang");
        if label == "dead-worker" {
            // Graceful degradation: later rounds complete without worker
            // 4 and say so; every other scenario is bit-exact.
            assert!(report.degraded_chunks > 0);
            assert!(report.shortfall.iter().all(|s| s.missing == vec![4]));
        } else {
            assert_eq!(
                report.results, clean.results,
                "{label}: sums must match the lossless run bit for bit"
            );
            assert_eq!(report.degraded_chunks, 0);
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", report.sim_ns as f64 / 1e6),
            report.sent.to_string(),
            report.dropped.to_string(),
            report.duplicated.to_string(),
            report.corrupt_rejected.to_string(),
            report.retransmits.to_string(),
            report.timeouts.to_string(),
            format!("{}+{}", report.crashes, report.restarts),
            report.degraded_chunks.to_string(),
            if label == "dead-worker" {
                format!("degraded(-w4 x{})", report.shortfall.len())
            } else {
                "bit-exact".into()
            },
        ]);
    }

    println!(
        "{}",
        render_columns(
            &[
                "Scenario",
                "sim ms",
                "Sent",
                "Dropped",
                "Dup'd",
                "CRC rej",
                "Rtx",
                "Timeouts",
                "Crash+up",
                "Degraded",
                "vs lossless",
            ],
            &rows,
        )
    );
    println!(
        "\nEvery scenario replays exactly from its (seed, FaultPlan); \
         'bit-exact' is asserted, not observed."
    );
}
