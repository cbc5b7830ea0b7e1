//! # fpisa-agg — in-network gradient aggregation (Fig. 10)
//!
//! The paper's headline application: summing distributed-training
//! gradients *inside the switch*. This crate implements the whole
//! aggregation protocol around the two switch substrates the workspace
//! already provides, and reproduces the Fig. 10 accuracy comparison
//! between them:
//!
//! * **Protocol layer** — [`protocol`] frames aggregation jobs into
//!   packets (job id, worker id, round, chunk → slot range, packed wire
//!   words; plus the §3.3 block-floating-point payload layout), and
//!   [`SlotPool`] provides the switch-side fan-in state: per-chunk
//!   completion counters, idempotent handling of retransmitted packets,
//!   and versioned rounds so slots can be reused safely.
//!   [`AggregationSwitch`] binds a pool to a backend.
//!
//! * **Backends** — one [`Aggregator`] trait, three implementations:
//!   [`SwitchMlFixedPoint`] (the SwitchML baseline: host-side global
//!   scaling factor, saturating integer sum in a plain one-stage PISA
//!   program), [`FpisaAggregator`] (FP32/FP16/BF16 on the wire through
//!   the compiled Fig. 2 FPISA pipeline of `fpisa-pipeline`, with
//!   per-element [`fpisa_core::AddStats`] accounting), and [`ExactF64`]
//!   (the host-side ground truth). Both switch backends execute real
//!   compiled `fpisa-pisa` programs — the protocol never sums on the host.
//!
//! * **The Fig. 10 experiment** — [`experiment`] generates synthetic
//!   gradients whose magnitudes spread across a configurable dynamic
//!   range, drives every backend end to end through the packet protocol,
//!   and reports per-element relative error against the exact reference.
//!   Wide dynamic range starves the fixed-point baseline's global scaling
//!   factor while FPISA keeps per-element exponents — the paper's §5.2
//!   argument, reproduced as a rendered table and asserted in tests.
//!
//! ## Example
//!
//! ```
//! use fpisa_agg::{AggregationSwitch, Aggregator, FpisaAggregator, JobSpec};
//!
//! let spec = JobSpec { job: 1, workers: 2, elements: 4, elements_per_packet: 4 };
//! let backend = FpisaAggregator::fp32_extended(4).unwrap();
//! let mut sw = AggregationSwitch::new(spec, backend).unwrap();
//! for worker in 0..2 {
//!     let words: Vec<u64> = [1.0, 2.0, 3.0, 4.0]
//!         .iter()
//!         .map(|&x| sw.backend_mut().encode(x))
//!         .collect();
//!     for pkt in spec.packetize(worker, 0, &words) {
//!         assert!(sw.ingest(&pkt).unwrap().accepted());
//!     }
//! }
//! assert_eq!(sw.read_all().unwrap(), vec![2.0, 4.0, 6.0, 8.0]);
//! ```

// The frame codecs are fast because of table lookups and fixed-width
// copies, not unchecked access; no safe-code rule may be traded for speed
// here.
#![forbid(unsafe_code)]

pub mod backend;
pub mod experiment;
pub mod fpisa;
pub mod pool;
pub mod protocol;
pub mod switchml;

pub use backend::{AggError, AggStats, Aggregator, ExactF64};
pub use experiment::{
    aggregate_through_protocol, find_row, render_fig10, run_fig10, run_fig10_sweep, Fig10Row,
    GradientWorkload,
};
pub use fpisa::FpisaAggregator;
pub use pool::{
    AggregationSwitch, ChunkResync, CompletedChunk, IngestDecision, IngestOutcome, PoolStats,
    SlotPool,
};
pub use protocol::{
    crc32, decode_ack, decode_block_fp, decode_packet, encode_ack, encode_block_fp, encode_packet,
    AckPacket, AggPacket, FrameError, JobSpec, MAX_WORKERS,
};
pub use switchml::SwitchMlFixedPoint;
