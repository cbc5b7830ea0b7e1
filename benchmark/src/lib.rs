//! The repo benchmark: four all-reduce workloads measured end to end,
//! and an outside-in cost ledger with one named row per layer. See
//! `README.md` for every definition and `../BENCHMARK.json` for the
//! contract the acceptance driver runs.

pub mod catalog;
pub mod compare;
pub mod json;
pub mod ledger;
pub mod run;
pub mod scenario;
pub mod spans;
pub mod stats;
