//! Composable, seeded fault injection.
//!
//! A [`FaultPlan`] is a pure description: link-level fault probabilities
//! (globally or per worker), per-worker straggler delays, and scheduled
//! crash/restart events. The simulator derives one [`rand::rngs::SmallRng`]
//! per worker from the plan seed, so the entire chaos run — every drop,
//! duplicate, corrupt bit and reorder delay — replays exactly from
//! `(seed, FaultPlan)`.

use crate::runner::SimError;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::BTreeMap;

/// Per-link fault probabilities. All probabilities are in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability a frame copy is silently dropped.
    pub drop: f64,
    /// Probability a frame is transmitted twice (each copy then subject
    /// to independent drop/corrupt/reorder draws).
    pub duplicate: f64,
    /// Probability a surviving copy has one random bit flipped in flight
    /// (caught by the CRC-32 frame trailer at the receiver).
    pub corrupt: f64,
    /// Probability a surviving copy is reordered, i.e. delayed by a
    /// uniform extra `0..=reorder_max_ns` on top of the link latency.
    pub reorder: f64,
    /// Maximum extra delay for reordered copies.
    pub reorder_max_ns: u64,
}

impl LinkFaults {
    /// The first probability outside `[0, 1]` (NaN included), by field
    /// name.
    fn bad_probability(&self) -> Option<(&'static str, f64)> {
        [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("corrupt", self.corrupt),
            ("reorder", self.reorder),
        ]
        .into_iter()
        .find(|(_, p)| !(0.0..=1.0).contains(p))
    }
}

/// A scheduled worker failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    pub worker: u32,
    /// Absolute simulated time of the crash.
    pub at_ns: u64,
    /// `Some(delay)` — the worker restarts and resyncs `delay` ns after
    /// crashing. `None` — the crash is permanent; the control plane
    /// deregisters the worker after the detection delay and remaining
    /// rounds complete degraded.
    pub restart_after_ns: Option<u64>,
}

/// A complete, seeded adversarial scenario. Built fluently:
///
/// ```
/// use fpisa_netsim::FaultPlan;
/// let plan = FaultPlan::new(42)
///     .drop(0.10)
///     .duplicate(0.05)
///     .reorder(0.10, 40_000)
///     .straggler(2, 15_000)
///     .crash(1, 2_000_000, Some(1_500_000));
/// assert_eq!(plan.seed(), 42);
/// assert!(plan.faults_for(7).drop > 0.09);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default_faults: LinkFaults,
    overrides: BTreeMap<u32, LinkFaults>,
    stragglers: BTreeMap<u32, u64>,
    crashes: Vec<CrashSpec>,
}

impl FaultPlan {
    /// An initially-lossless plan with the given seed; add faults with
    /// the builder methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_faults: LinkFaults::default(),
            overrides: BTreeMap::new(),
            stragglers: BTreeMap::new(),
            crashes: Vec::new(),
        }
    }

    /// Alias for [`FaultPlan::new`] that reads better at call sites that
    /// deliberately inject nothing.
    pub fn lossless(seed: u64) -> Self {
        Self::new(seed)
    }

    pub fn drop(mut self, p: f64) -> Self {
        self.default_faults.drop = p;
        self
    }

    pub fn duplicate(mut self, p: f64) -> Self {
        self.default_faults.duplicate = p;
        self
    }

    pub fn corrupt(mut self, p: f64) -> Self {
        self.default_faults.corrupt = p;
        self
    }

    pub fn reorder(mut self, p: f64, max_extra_ns: u64) -> Self {
        self.default_faults.reorder = p;
        self.default_faults.reorder_max_ns = max_extra_ns;
        self
    }

    /// Replace the fault profile of one worker's link (both directions).
    pub fn link_override(mut self, worker: u32, faults: LinkFaults) -> Self {
        self.overrides.insert(worker, faults);
        self
    }

    /// Add a fixed extra host delay per frame sent by `worker`.
    pub fn straggler(mut self, worker: u32, extra_ns: u64) -> Self {
        self.stragglers.insert(worker, extra_ns);
        self
    }

    /// Schedule a crash (and optional restart) for `worker`.
    pub fn crash(mut self, worker: u32, at_ns: u64, restart_after_ns: Option<u64>) -> Self {
        self.crashes.push(CrashSpec {
            worker,
            at_ns,
            restart_after_ns,
        });
        self
    }

    /// Refuse a plan whose default or per-worker link profile has a
    /// probability outside `[0, 1]` (NaN included), naming the link and
    /// field. The builders store what they are given; [`Simulator::new`]
    /// calls this before building anything.
    ///
    /// [`Simulator::new`]: crate::Simulator::new
    pub fn validate(&self) -> Result<(), SimError> {
        let links = std::iter::once((None, &self.default_faults))
            .chain(self.overrides.iter().map(|(&w, f)| (Some(w), f)));
        for (worker, faults) in links {
            if let Some((field, p)) = faults.bad_probability() {
                let link = worker.map_or("default link".into(), |w| format!("worker {w}'s link"));
                return Err(SimError::BadConfig(format!(
                    "FaultPlan: {link} {field} probability {p} outside [0, 1]"
                )));
            }
        }
        Ok(())
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Effective fault profile for `worker`'s link.
    pub fn faults_for(&self, worker: u32) -> LinkFaults {
        *self.overrides.get(&worker).unwrap_or(&self.default_faults)
    }

    pub fn straggler_ns(&self, worker: u32) -> u64 {
        self.stragglers.get(&worker).copied().unwrap_or(0)
    }

    pub fn crashes(&self) -> &[CrashSpec] {
        &self.crashes
    }

    /// Derive the per-worker link RNG. SplitMix-style mixing keeps the
    /// streams decorrelated even for adjacent worker ids and seeds.
    pub fn rng_for(&self, worker: u32) -> SmallRng {
        let mut z = self
            .seed
            .wrapping_add((worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SmallRng::seed_from_u64(z ^ (z >> 31))
    }
}

/// One physical copy of a frame as it leaves the link's fault stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCopy {
    /// Extra delay beyond the base link latency (0 unless reordered).
    pub extra_delay_ns: u64,
    /// `Some(bit)` — flip this bit index of the frame in flight.
    pub corrupt_bit: Option<usize>,
}

/// Outcome of pushing one frame through a faulty link: zero, one, or two
/// surviving copies plus the counters the run report aggregates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transmission {
    pub copies: Vec<LinkCopy>,
    pub dropped: u64,
    pub duplicated: u64,
    pub corrupted: u64,
    pub reordered: u64,
}

/// Draw the fate of one frame of `frame_bits` bits. The draw order is
/// fixed (duplicate, then per copy: drop, corrupt, reorder) so a given
/// RNG stream always produces the same fault sequence.
pub fn transmit(faults: &LinkFaults, rng: &mut SmallRng, frame_bits: usize) -> Transmission {
    let mut tx = Transmission::default();
    let copies = if faults.duplicate > 0.0 && rng.gen_bool(faults.duplicate) {
        tx.duplicated += 1;
        2
    } else {
        1
    };
    for _ in 0..copies {
        if faults.drop > 0.0 && rng.gen_bool(faults.drop) {
            tx.dropped += 1;
            continue;
        }
        let corrupt_bit = if faults.corrupt > 0.0 && rng.gen_bool(faults.corrupt) {
            tx.corrupted += 1;
            Some(rng.gen_range(0..frame_bits.max(1)))
        } else {
            None
        };
        let extra_delay_ns = if faults.reorder > 0.0 && rng.gen_bool(faults.reorder) {
            tx.reordered += 1;
            rng.gen_range(0..=faults.reorder_max_ns)
        } else {
            0
        };
        tx.copies.push(LinkCopy {
            extra_delay_ns,
            corrupt_bit,
        });
    }
    tx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_link_passes_everything_untouched() {
        let plan = FaultPlan::lossless(1);
        let mut rng = plan.rng_for(0);
        for _ in 0..100 {
            let tx = transmit(&plan.faults_for(0), &mut rng, 512);
            assert_eq!(
                tx.copies,
                vec![LinkCopy {
                    extra_delay_ns: 0,
                    corrupt_bit: None
                }]
            );
            assert_eq!((tx.dropped, tx.duplicated, tx.corrupted), (0, 0, 0));
        }
    }

    #[test]
    fn fault_draws_replay_exactly_from_the_seed() {
        let plan = FaultPlan::new(99)
            .drop(0.3)
            .duplicate(0.2)
            .corrupt(0.1)
            .reorder(0.4, 10_000);
        let run = |w: u32| {
            let mut rng = plan.rng_for(w);
            (0..500)
                .map(|_| transmit(&plan.faults_for(w), &mut rng, 256))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "worker streams must be decorrelated");
    }

    #[test]
    fn overrides_and_stragglers_apply_per_worker() {
        let plan = FaultPlan::new(7)
            .drop(0.5)
            .link_override(
                2,
                LinkFaults {
                    drop: 1.0,
                    ..LinkFaults::default()
                },
            )
            .straggler(1, 30_000);
        assert_eq!(plan.faults_for(0).drop, 0.5);
        assert_eq!(plan.faults_for(2).drop, 1.0);
        assert_eq!(plan.straggler_ns(1), 30_000);
        assert_eq!(plan.straggler_ns(0), 0);
        let mut rng = plan.rng_for(2);
        let tx = transmit(&plan.faults_for(2), &mut rng, 64);
        assert!(tx.copies.is_empty(), "drop=1.0 must black-hole the link");
    }

    #[test]
    fn out_of_range_probability_is_rejected() {
        use crate::{run_allreduce, SimConfig};
        use fpisa_agg::{JobSpec, SwitchMlFixedPoint};
        let bad = [
            (
                FaultPlan::new(0).drop(1.5),
                "default link drop probability 1.5",
            ),
            (
                FaultPlan::new(0).reorder(f64::NAN, 10),
                "default link reorder probability NaN",
            ),
            (
                FaultPlan::new(0).link_override(
                    3,
                    LinkFaults {
                        corrupt: -0.25,
                        ..LinkFaults::default()
                    },
                ),
                "worker 3's link corrupt probability -0.25",
            ),
        ];
        let spec = JobSpec {
            job: 1,
            workers: 2,
            elements: 4,
            elements_per_packet: 4,
        };
        let gradients = vec![vec![vec![1.0; 4]; 2]];
        let detail = |e: Option<SimError>| match e {
            Some(SimError::BadConfig(detail)) => detail,
            other => panic!("expected BadConfig, got {other:?}"),
        };
        for (plan, field) in bad {
            let want = format!("FaultPlan: {field} outside [0, 1]");
            assert_eq!(detail(plan.validate().err()), want);
            let backend = SwitchMlFixedPoint::new(4, 1.0, 2).unwrap();
            let got = run_allreduce(spec, backend, &gradients, plan, SimConfig::default());
            assert_eq!(detail(got.err()), want);
        }
        assert!(FaultPlan::new(0).drop(1.0).corrupt(0.0).validate().is_ok());
    }
}
