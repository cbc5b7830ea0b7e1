//! # fpisa — umbrella crate
//!
//! Re-exports the whole FPISA reproduction workspace behind a single
//! dependency, so examples, integration tests and downstream users can write
//! `use fpisa::core::FpisaAccumulator` without naming the individual crates.
//!
//! The workspace reproduces *"Unlocking the Power of Inline Floating-Point
//! Operations on Programmable Switches"* (NSDI 2022):
//!
//! * [`core`] — the FPISA floating-point representation and arithmetic
//!   (decomposed exponent + signed mantissa, delayed renormalization,
//!   FPISA-A approximation).
//! * [`hw`] — the gate-level cost model behind Table 1 (default ALU vs.
//!   FPISA ALU vs. RAW/RSAW vs. hard FPU).
//! * [`pisa`] — a PISA programmable-switch simulator (parser, match-action
//!   units, tables, register arrays, resource accounting).
//! * [`pipeline`] — the FPISA dataflow of Fig. 2 compiled onto the switch
//!   simulator, plus the Table 3 resource report.
//! * [`netsim`] — a discrete-event host/network simulator with the end-host
//!   cost models (quantization, endianness, memcpy, GPU copies).
//! * [`agg`] — SwitchML-style and FPISA-style in-network gradient
//!   aggregation protocols (numeric and performance engines; Fig. 10).
//!
//! See `README.md` for a tour and `examples/` for runnable entry points.

#![forbid(unsafe_code)]

pub use fpisa_agg as agg;
pub use fpisa_core as core;
pub use fpisa_hw as hw;
pub use fpisa_netsim as netsim;
pub use fpisa_pipeline as pipeline;
pub use fpisa_pisa as pisa;
