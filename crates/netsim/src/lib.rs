//! # fpisa-netsim — adversarial network simulation for in-switch aggregation
//!
//! A deterministic discrete-event simulator that drives the real
//! `fpisa_agg` protocol — packetize, send, await ACK, retransmit with
//! exponential backoff — through hostile network conditions: seeded
//! packet loss, duplication, reordering, in-flight corruption (caught by
//! the CRC-32 frame trailer), worker crash/restart, stragglers, and
//! permanent failures that degrade gracefully instead of hanging. The
//! switch actor is a real [`fpisa_agg::AggregationSwitch`] over any
//! [`fpisa_agg::Aggregator`] backend, so chaos runs validate the same
//! compiled PISA programs the cooperative tests do.
//!
//! The paper evaluates FPISA end-to-end over a real network (§5.3,
//! Figs. 7/11) where loss and retransmission are facts of life; SwitchML
//! makes the same point — the hard part of in-network aggregation is
//! tolerating loss and failure without corrupting the reduction. This
//! crate is that adversary, in reproducible form: every run is a pure
//! function of `(seed, [`FaultPlan`])` — no wall clock, no global RNG —
//! so a failing chaos run replays exactly.
//!
//! §5.3's end-host costs (quantization via
//! [`fpisa_core::FpFormat::quantize_f32`], endianness conversion, memcpy
//! per byte) parameterize worker timing through [`HostCostModel`], so the
//! simulator also produces throughput-vs-workers curves.
//!
//! ## Example
//!
//! ```
//! use fpisa_agg::FpisaAggregator;
//! use fpisa_netsim::{run_allreduce, ChaosWorkload, FaultPlan, SimConfig};
//!
//! let wl = ChaosWorkload { workers: 3, elements: 16, elements_per_packet: 8, rounds: 2, seed: 7 };
//! let spec = wl.spec(1);
//! let grads = wl.gradients();
//! let chaos = FaultPlan::new(7).drop(0.10).duplicate(0.05).reorder(0.10, 40_000);
//! let lossy = run_allreduce(
//!     spec, FpisaAggregator::fp16_tofino(16).unwrap(), &grads, chaos, SimConfig::default(),
//! ).unwrap();
//! let clean = run_allreduce(
//!     spec, FpisaAggregator::fp16_tofino(16).unwrap(), &grads,
//!     FaultPlan::lossless(7), SimConfig::default(),
//! ).unwrap();
//! // Loss, duplication and reordering change the trajectory, never the sums.
//! assert_eq!(lossy.results, clean.results);
//! assert!(lossy.retransmits > 0);
//! ```

#![forbid(unsafe_code)]

pub mod events;
pub mod faults;
pub mod report;
pub mod runner;
pub mod topology;
pub mod worker;

pub use events::{Event, EventQueue, SimTime};
pub use faults::{transmit, CrashSpec, FaultPlan, LinkCopy, LinkFaults, Transmission};
pub use report::{render_report, render_sweep, RunReport, Shortfall};
pub use runner::{run_allreduce, SimConfig, SimError, Simulator};
pub use topology::{HostCostModel, LinkConfig, Topology};
pub use worker::{ChunkPhase, ChunkProgress, RetryConfig, WorkerState};

use fpisa_agg::JobSpec;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// A gradient workload built for bit-for-bit chaos comparisons.
///
/// Every value is `±m · 2^e` with `m ∈ {1.0, 1.25, 1.5, 1.75}` and
/// `e ∈ {0, 1, 2}` — exactly representable in FP16 (and every wider
/// format), with partial sums on FP16's exact quarter grid. Floating-point
/// addition over such values is associative and commutative *without
/// rounding*, so reordering or retransmission cannot change the result
/// through float semantics: if a chaos run's sums differ from the lossless
/// run's, the protocol double-counted, dropped, or corrupted a
/// contribution. The workload isolates protocol correctness from float
/// non-commutativity.
///
/// **Fan-in bound on `fp16_tofino`.** FPISA-A keeps a slot's 16-bit
/// register at the exponent of its first arrival, so a slot first written
/// at exponent 0 saturates once `|Σ| ≥ 32` — after which the sum is
/// neither exact nor independent of arrival order. Values reach 7, so the
/// worst slot holds `1.75 + 7·(workers − 1)`: exact up to
/// [`ChaosWorkload::MAX_EXACT_FP16_FANIN`] workers (29.75), saturating
/// from 6 (36.75). Wider registers (FP32 presets, SwitchML sized by
/// `for_workload`) are exact at any fan-in the slot pool allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosWorkload {
    pub workers: u32,
    pub elements: usize,
    pub elements_per_packet: usize,
    pub rounds: u32,
    pub seed: u64,
}

impl ChaosWorkload {
    /// Largest `workers` for which every partial sum is exact on the
    /// `fp16_tofino` backend (see the type-level docs).
    pub const MAX_EXACT_FP16_FANIN: u32 = 5;

    /// The matching job spec.
    pub fn spec(&self, job: u32) -> JobSpec {
        JobSpec {
            job,
            workers: self.workers,
            elements: self.elements,
            elements_per_packet: self.elements_per_packet,
        }
    }

    /// Deterministic gradients, indexed `[round][worker][element]`.
    pub fn gradients(&self) -> Vec<Vec<Vec<f64>>> {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xC4A05FEED);
        (0..self.rounds)
            .map(|_| {
                (0..self.workers)
                    .map(|_| {
                        (0..self.elements)
                            .map(|_| {
                                let m = 1.0 + 0.25 * rng.gen_range(0..4u32) as f64;
                                let e = rng.gen_range(0..3u32);
                                let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
                                sign * m * f64::from(1u32 << e)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Exact per-round sums across workers — the host-side ground truth
    /// every backend must reproduce bit-for-bit on this workload.
    pub fn exact_sums(gradients: &[Vec<Vec<f64>>]) -> Vec<Vec<f64>> {
        gradients
            .iter()
            .map(|round| {
                let elems = round.first().map(|g| g.len()).unwrap_or(0);
                let mut sum = vec![0.0f64; elems];
                for g in round {
                    for (s, &x) in sum.iter_mut().zip(g) {
                        *s += x;
                    }
                }
                sum
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_values_are_fp16_exact_and_replayable() {
        let wl = ChaosWorkload {
            workers: 8,
            elements: 64,
            elements_per_packet: 16,
            rounds: 3,
            seed: 42,
        };
        let a = wl.gradients();
        assert_eq!(a, wl.gradients(), "same seed, same workload");
        for round in &a {
            for g in round {
                for &x in g {
                    // Multiple of 0.25, magnitude in [1, 7]: exact in FP16.
                    assert_eq!(x * 4.0, (x * 4.0).trunc());
                    assert!((1.0..=7.0).contains(&x.abs()));
                }
            }
        }
        let sums = ChaosWorkload::exact_sums(&a);
        assert_eq!(sums.len(), 3);
        assert_eq!(sums[0].len(), 64);
    }

    #[test]
    fn max_exact_fp16_fanin_follows_from_the_value_grid() {
        use fpisa_agg::{Aggregator, FpisaAggregator};
        // The grid `gradients` draws from.
        let grid: Vec<(f64, u32)> = (0..4u32)
            .flat_map(|m| (0..3u32).map(move |e| (1.0 + 0.25 * f64::from(m), e)))
            .collect();
        let max_abs = grid
            .iter()
            .map(|&(m, e)| m * f64::from(1u32 << e))
            .fold(0.0, f64::max);
        // A 16-bit signed register anchored at exponent 0 holds FP16's 10
        // fraction bits below the binary point: |Σ| < 2^15 / 2^10.
        let limit = f64::from(1u32 << 15) / f64::from(1u32 << 10);
        // Worst slot at fan-in n: the largest exponent-0 value arrives
        // first, then n − 1 copies of the largest value overall.
        let first = grid
            .iter()
            .filter(|&&(_, e)| e == 0)
            .map(|&(m, _)| m)
            .fold(0.0, f64::max);
        let worst = |n: u32| first + max_abs * f64::from(n - 1);
        let n = ChaosWorkload::MAX_EXACT_FP16_FANIN;
        assert!(worst(n) < limit, "fan-in {n} must stay below saturation");
        assert!(worst(n + 1) >= limit, "fan-in {} must saturate", n + 1);

        // And the backend agrees: that worst slot is exact at the bound
        // and wrong one worker later.
        let mut agg = FpisaAggregator::fp16_tofino(1).expect("preset validates");
        let big = agg.encode(max_abs);
        let first = agg.encode(first);
        agg.add_wire(0, &[first]).unwrap();
        for _ in 1..n {
            agg.add_wire(0, &[big]).unwrap();
        }
        assert_eq!(agg.read_range(0, 1).unwrap(), vec![worst(n)]);
        agg.add_wire(0, &[big]).unwrap();
        assert_ne!(agg.read_range(0, 1).unwrap(), vec![worst(n + 1)]);
    }
}
