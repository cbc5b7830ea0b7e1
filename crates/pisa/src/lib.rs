//! # fpisa-pisa
//!
//! A PISA (Protocol Independent Switch Architecture) programmable-switch
//! simulator: the substrate the FPISA pipeline of Fig. 2 is compiled onto
//! by `fpisa-pipeline`, following the match-action pipeline model of RMT /
//! Banzai ("Packet Transactions", Sivaraman et al.).
//!
//! The model is the one the paper's feasibility argument rests on:
//!
//! * a typed **packet header vector** ([`phv::Phv`]) flows through a fixed
//!   sequence of **match-action stages** ([`stage::Stage`]);
//! * each stage holds **match tables** ([`table::Table`]; exact keys in
//!   SRAM, ternary/range keys in TCAM) selecting **actions** of stateless
//!   integer ALU primitives ([`action::Primitive`]);
//! * all state lives in **register arrays** guarded by **stateful ALUs**
//!   ([`register::StatefulCall`]) that perform exactly one
//!   read-modify-write per packet — the **RAW constraint** that motivates
//!   FPISA-A — with the proposed **RSAW** extension
//!   ([`register::SaluUpdate::ShiftRightAddSat`]) available behind a
//!   capability flag;
//! * packets may **recirculate** for extra passes, bounded by the
//!   capability profile ([`switch::SwitchCaps`]);
//! * every program yields a per-stage **resource report**
//!   ([`resources::ResourceReport`]: tables, SRAM/TCAM bits, stateful
//!   ALUs, action slots, PHV bits) — the machinery behind Table 3.
//!
//! Programs are validated against a [`switch::SwitchCaps`] profile
//! *before* running: [`switch::SwitchCaps::tofino`] models today's
//! hardware (no RSAW, no 2-operand shift), and
//! [`switch::SwitchCaps::fpisa_extended`] adds the paper's proposed
//! extensions. Capability violations are construction-time errors, not
//! silent emulation — that distinction *is* the paper's Table 1/Table 3
//! argument.
//!
//! ## Two execution engines
//!
//! A validated program can run on either of two engines with bit-for-bit
//! identical results:
//!
//! * **the interpreter** ([`switch::Switch`]) walks the program structures
//!   directly — linear entry scans, per-pass bookkeeping allocations. It
//!   is the readable reference implementation and the only engine that can
//!   trace per-table execution ([`switch::Switch::run_traced`]);
//! * **the compiled engine** ([`compile::CompiledSwitch`]) lowers the
//!   program once into pre-resolved dispatch structures — dense
//!   direct-index and hash lookups for exact tables, priority-pre-sorted
//!   scans for ternary/range entries, contiguous op tapes for actions —
//!   and processes packets (or whole batches via
//!   [`compile::CompiledSwitch::run_batch`]) with zero per-packet
//!   allocation, several times faster. At compile time stores
//!   overwritten before anyone reads them are dropped from the tapes
//!   ([`compile::FusionStats`] reports the counts), and programs meeting
//!   a static eligibility test additionally get **data-oriented batch
//!   execution**: the batch is transposed into a structure-of-arrays
//!   [`phv::BatchLanes`] buffer (one flat column per PHV field, in `u32`
//!   lanes when every field fits 32 bits and `u64` lanes otherwise) and
//!   each instruction runs across all packets a cache line of lanes at a
//!   time; a divergent batch runs as shift rows on a shift table, as one
//!   masked sweep per distinct action otherwise, and as per-packet walks
//!   only on a table of more than 64 actions — bit-for-bit identical
//!   every way.
//!
//! Equivalence is enforced by property tests over random programs (PHV,
//! register state, pass counts and errors must agree packet by packet) and
//! by the FPISA pipeline's differential suite.
//!
//! ## Shard plans
//!
//! All switch state lives in one flat [`register::RegisterState`] shared by
//! both engines. Its slot space can be partitioned the way a Tofino splits
//! register state across its pipes: [`shard::partition_slots`] (optionally
//! chunk-aligned) cuts it into contiguous ranges, and a
//! [`shard::ShardPlan`] records those ranges, the slot field a packet is
//! routed by, and whether every shard's program proved shard safety. The
//! plan is checked once, when it is built, and executes nothing: every
//! packet runs on one full-space engine, which is what pipe-by-pipe
//! execution would compute, since routing by slot keeps each slot's
//! packets in order.
//!
//! ## Static analysis
//!
//! [`analysis`] layers a four-pass verifier on top of validation: PHV
//! def-use dataflow, register-hazard checks plus a machine-checkable
//! **shard-partition safety proof** ([`analysis::prove_shard_safety`],
//! recorded by [`shard::ShardPlan::prove`]),
//! value-range interval analysis over every action, and hardware
//! capability lints against a loadable [`analysis::HwProfile`]. The
//! one-call entry point is [`analysis::verify_program`], and
//! [`analysis::AnalysisLevel`] is the knob `fpisa-pipeline`'s
//! `PipelineSpec` gates a build on. Every built-in FPISA pipeline cell and
//! both aggregation backends analyze clean.

#![forbid(unsafe_code)]

pub mod action;
pub mod analysis;
pub mod compile;
pub mod phv;
pub mod ranges;
pub mod register;
pub mod resources;
pub mod shard;
pub mod stage;
pub mod switch;
pub mod table;

pub use action::{Action, AluOp, Operand, Primitive};
pub use analysis::{
    prove_shard_safety, verify_program, AnalysisLevel, AnalysisReport, Analyzer, Diagnostic,
    HwProfile, Loc, ProgramIo, Severity, ShardSafetyProof,
};
pub use compile::{CompiledSwitch, DispatchCounts, FusionStats, SOA_MIN};
pub use phv::{BatchLanes, FieldId, FieldSpec, Phv, PhvLayout};
pub use ranges::{SlotFields, LANE_CHUNK};
pub use register::{
    check_partition, CmpOp, RegArrayId, RegisterArraySpec, RegisterState, SaluCond, SaluOutput,
    SaluUpdate, SlotRange, StatefulCall,
};
pub use resources::{ResourceReport, StageResources};
pub use shard::{partition_slots, partition_slots_aligned, ShardPlan};
pub use stage::Stage;
pub use switch::{
    PacketTrace, ProgramError, RuntimeError, Switch, SwitchCaps, SwitchProgram, TableFault,
    TraceEntry,
};
pub use table::{KeyMatch, MatchKind, Table, TableEntry};
