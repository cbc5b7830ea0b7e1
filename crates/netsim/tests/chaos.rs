//! Chaos invariance suite (robustness satellite): the adversarial network
//! must never change the mathematics.
//!
//! For both switch substrates — FPISA FP16 on Tofino (1 and 3 shards)
//! and the SwitchML fixed-point baseline — a seeded run with 10% loss,
//! duplication, reordering and one worker crash/restart must produce
//! per-round sums **bit-for-bit equal** to the lossless run. The
//! workload ([`ChaosWorkload`]) is FP16-exact and order-free, so any
//! difference indicts the protocol (double count, lost contribution,
//! accepted corruption), not float non-commutativity. Permanent failures
//! must degrade gracefully — rounds complete with the surviving
//! contributor set and a reported shortfall — and every run must replay
//! exactly from `(seed, FaultPlan)`.

use fpisa_agg::{Aggregator, FpisaAggregator, SwitchMlFixedPoint};
use fpisa_netsim::{
    run_allreduce, ChaosWorkload, FaultPlan, LinkFaults, RetryConfig, RunReport, SimConfig,
};

const WORKLOAD: ChaosWorkload = ChaosWorkload {
    workers: 4,
    elements: 48,
    elements_per_packet: 16,
    rounds: 3,
    seed: 0xC4A05,
};

/// 10% loss + duplication + reordering on every link, plus worker 1
/// crashing mid-run (at ~40% of the lossless run's duration, so it is
/// guaranteed to interrupt live rounds) and coming back.
fn chaos_plan(seed: u64, clean_ns: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drop(0.10)
        .duplicate(0.10)
        .reorder(0.10, 50_000)
        .straggler(2, 15_000)
        .crash(1, clean_ns * 2 / 5, Some(clean_ns / 2))
}

fn run_with<B: Aggregator>(backend: B, plan: FaultPlan) -> RunReport {
    run_allreduce(
        WORKLOAD.spec(1),
        backend,
        &WORKLOAD.gradients(),
        plan,
        SimConfig::default(),
    )
    .expect("simulation must complete")
}

/// Assert the chaos run matches the lossless run bit for bit, and that
/// the chaos actually happened (otherwise the test proves nothing).
fn assert_invariant<B: Aggregator>(make: impl Fn() -> B, label: &str) {
    let clean = run_with(make(), FaultPlan::lossless(11));
    let chaos = run_with(make(), chaos_plan(11, clean.sim_ns));
    assert_eq!(clean.incomplete_chunks, 0, "{label}: lossless run complete");
    assert_eq!(clean.degraded_chunks, 0, "{label}: lossless run undegraded");
    assert!(
        chaos.dropped > 0 && chaos.duplicated > 0 && chaos.retransmits > 0,
        "{label}: the adversary must actually fire (dropped={}, dup={}, rtx={})",
        chaos.dropped,
        chaos.duplicated,
        chaos.retransmits
    );
    assert_eq!(chaos.crashes, 1, "{label}: crash injected");
    assert_eq!(chaos.restarts, 1, "{label}: worker came back");
    assert_eq!(
        chaos.degraded_chunks, 0,
        "{label}: restart must not degrade any round"
    );
    assert_eq!(chaos.incomplete_chunks, 0, "{label}: chaos run complete");
    let clean_bits: Vec<Vec<u64>> = clean
        .results
        .iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect();
    let chaos_bits: Vec<Vec<u64>> = chaos
        .results
        .iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect();
    assert_eq!(
        clean_bits, chaos_bits,
        "{label}: chaos changed the aggregated bits"
    );
}

#[test]
fn fpisa_fp16_single_shard_is_chaos_invariant() {
    assert_invariant(
        || FpisaAggregator::fp16_tofino(WORKLOAD.elements).unwrap(),
        "fpisa/fp16/1-shard",
    );
}

#[test]
fn fpisa_fp16_three_shards_is_chaos_invariant() {
    assert_invariant(
        || FpisaAggregator::fp16_tofino_sharded(WORKLOAD.elements, 3, 8).unwrap(),
        "fpisa/fp16/3-shard",
    );
}

#[test]
fn switchml_fixed_point_is_chaos_invariant() {
    assert_invariant(
        || SwitchMlFixedPoint::for_workload(WORKLOAD.elements, 8.0, WORKLOAD.workers).unwrap(),
        "switchml/fixed-point",
    );
}

#[test]
fn lossless_fp16_run_matches_the_exact_host_sum() {
    // Guard for the invariance tests: the workload really is exact in
    // FP16, so "chaos == lossless" compares against the true sum, not
    // two equally-wrong runs.
    let grads = WORKLOAD.gradients();
    let clean = run_with(
        FpisaAggregator::fp16_tofino(WORKLOAD.elements).unwrap(),
        FaultPlan::lossless(5),
    );
    assert_eq!(clean.results, ChaosWorkload::exact_sums(&grads));
}

#[test]
fn same_seed_same_trace_same_report() {
    let clean = run_with(
        FpisaAggregator::fp16_tofino(WORKLOAD.elements).unwrap(),
        FaultPlan::lossless(77),
    );
    let a = run_with(
        FpisaAggregator::fp16_tofino(WORKLOAD.elements).unwrap(),
        chaos_plan(77, clean.sim_ns),
    );
    let b = run_with(
        FpisaAggregator::fp16_tofino(WORKLOAD.elements).unwrap(),
        chaos_plan(77, clean.sim_ns),
    );
    assert_eq!(a.trace_hash, b.trace_hash, "event trace must replay");
    assert_eq!(a, b, "the whole report must replay");
    let c = run_with(
        FpisaAggregator::fp16_tofino(WORKLOAD.elements).unwrap(),
        chaos_plan(78, clean.sim_ns),
    );
    assert_ne!(
        a.trace_hash, c.trace_hash,
        "a different seed must take a different trajectory"
    );
}

#[test]
fn permanent_crash_degrades_gracefully() {
    // Worker 3 dies mid-run and never comes back: every remaining
    // chunk-round must still complete — with the surviving three
    // contributors — and the shortfall must name the dead worker.
    let clean = run_with(
        FpisaAggregator::fp16_tofino(WORKLOAD.elements).unwrap(),
        FaultPlan::lossless(13),
    );
    let plan = FaultPlan::new(13)
        .drop(0.05)
        .crash(3, clean.sim_ns * 2 / 5, None);
    let report = run_with(
        FpisaAggregator::fp16_tofino(WORKLOAD.elements).unwrap(),
        plan,
    );
    assert_eq!(report.incomplete_chunks, 0, "no hang, no abandoned rounds");
    assert_eq!(report.crashes, 1);
    assert_eq!(report.workers_failed, 1);
    assert!(report.degraded_chunks > 0, "later rounds lack worker 3");
    assert!(report
        .shortfall
        .iter()
        .all(|s| s.missing == vec![3] && s.contributors == WORKLOAD.workers - 1));
    // Degraded rounds equal the exact sum over the survivors.
    let grads = WORKLOAD.gradients();
    for s in &report.shortfall {
        let (start, len) = WORKLOAD.spec(1).slot_range(s.chunk as usize);
        for i in 0..len {
            let exact: f64 = (0..WORKLOAD.workers as usize)
                .filter(|&w| w != 3)
                .map(|w| grads[s.round as usize][w][start + i])
                .sum();
            assert_eq!(report.results[s.round as usize][start + i], exact);
        }
    }
}

#[test]
fn blackholed_worker_exhausts_its_retry_budget_and_is_deregistered() {
    // Worker 0's link drops everything: it must burn its retry budget,
    // give up, and be removed so the other workers finish degraded —
    // the run must not hang and must not error.
    let plan = FaultPlan::new(21).link_override(
        0,
        LinkFaults {
            drop: 1.0,
            ..LinkFaults::default()
        },
    );
    let cfg = SimConfig {
        retry: RetryConfig {
            max_retries: 4,
            ..RetryConfig::default()
        },
        ..SimConfig::default()
    };
    let report = run_allreduce(
        WORKLOAD.spec(1),
        FpisaAggregator::fp16_tofino(WORKLOAD.elements).unwrap(),
        &WORKLOAD.gradients(),
        plan,
        cfg,
    )
    .expect("budget exhaustion must degrade, not hang or error");
    assert_eq!(report.incomplete_chunks, 0);
    assert_eq!(report.workers_failed, 1);
    assert!(report.timeouts > 0);
    assert!(
        report.degraded_chunks == report.completed_rounds,
        "every round should be missing worker 0"
    );
    assert!(report.shortfall.iter().all(|s| s.missing == vec![0]));
}

#[test]
fn corruption_is_always_caught_never_aggregated() {
    // A heavily corrupting link: every flipped frame must be rejected by
    // the CRC trailer and repaired by retransmission — the sums still
    // match the lossless run bit for bit.
    let plan = FaultPlan::new(31).corrupt(0.25);
    let chaos = run_with(
        FpisaAggregator::fp16_tofino(WORKLOAD.elements).unwrap(),
        plan,
    );
    let clean = run_with(
        FpisaAggregator::fp16_tofino(WORKLOAD.elements).unwrap(),
        FaultPlan::lossless(31),
    );
    assert!(chaos.corrupted > 0);
    // Every corrupted frame that reached a decoder was rejected; the
    // remainder were still in flight (or addressed to a dead worker)
    // when the run finished.
    assert!(chaos.corrupt_rejected > 0);
    assert!(chaos.corrupt_rejected <= chaos.corrupted);
    assert_eq!(chaos.results, clean.results);
}

#[test]
fn pinned_chaos_run_takes_the_recorded_trajectory() {
    // A perf change to the codecs, the queue or the engine may not move a
    // single event. Every literal below was recorded on this exact
    // (workload, plan) with the bit-at-a-time CRC and per-word
    // variable-width codecs the wire format was first shipped with (the
    // PR 19 commit); `trace_hash` folds every processed (time, event,
    // frame bytes) triple, so equal hashes mean the same frames arrived in
    // the same order at the same times. Corruption is 2% because at 1%
    // seed 7 never draws a flip, and the CRC reject path must be part of
    // the pinned trajectory.
    let wl = ChaosWorkload {
        workers: 4,
        elements: 256,
        elements_per_packet: 64,
        rounds: 4,
        seed: 7,
    };
    let plan = FaultPlan::new(7)
        .drop(0.10)
        .duplicate(0.05)
        .reorder(0.05, 40_000)
        .corrupt(0.02);
    let report = run_allreduce(
        wl.spec(1),
        FpisaAggregator::fp16_tofino(wl.elements).unwrap(),
        &wl.gradients(),
        plan,
        SimConfig::default(),
    )
    .expect("simulation must complete");

    assert_eq!(report.trace_hash, 0xd289_31d1_205b_e4a2);
    assert_eq!(report.events, 366);
    assert_eq!(report.sim_ns, 197_624);
    assert_eq!(report.sent, 100);
    assert_eq!(report.delivered, 95);
    assert_eq!(report.dropped, 24);
    assert_eq!(report.duplicated, 15);
    assert_eq!(report.corrupted, 3);
    assert_eq!(report.corrupt_rejected, 3);
    assert_eq!(report.retransmits, 36);
    assert_eq!(report.timeouts, 36);
    assert_eq!(report.acks_sent, 143);
    assert_eq!(report.acks_delivered, 130);
    // FNV-1a over the little-endian bits of every result, round-major.
    let results_fnv = report
        .results
        .iter()
        .flatten()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(results_fnv, 0x971e_51b3_fb9a_2d94);
    assert!(report.clean());
    assert_eq!(report.results, ChaosWorkload::exact_sums(&wl.gradients()));
}
