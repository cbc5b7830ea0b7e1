//! # fpisa-hw
//!
//! Gate-level hardware cost model reproducing **Table 1** of the FPISA paper:
//! the area, power and minimum critical-path delay of
//!
//! * the **default** PISA stateless ALU,
//! * the **FPISA ALU** (default ALU + the proposed 2-operand shift
//!   instruction, whose shift distance comes from metadata instead of an
//!   immediate),
//! * the stateful **RAW** (read-add-write) unit,
//! * the proposed stateful **RSAW** (read-shift-add-write) unit, and
//! * an **ALU + hard FPU**, the "just add floating point hardware" strawman
//!   the paper argues against.
//!
//! The paper synthesizes Verilog for the Banzai switch architecture with
//! Synopsys Design Compiler against the FreePDK15 standard-cell library.
//! We cannot run a synthesis tool here, so this crate instead builds each
//! unit as an explicit **netlist of standard cells** (adders, barrel
//! shifters, priority encoders, pipeline registers, …) and prices it with a
//! FreePDK15-calibrated cell table ([`cells::CellLibrary`]). The quantity
//! that matters for the paper's argument is the *relative* cost — the FPISA
//! extensions are a ~13–35% adder, while a hard FPU is >5× — and that ratio
//! is determined by datapath structure, which the netlists capture.
//!
//! ```
//! use fpisa_hw::{report::table1, units::SwitchUnit};
//!
//! let rows = table1();
//! let alu = rows.iter().find(|r| r.unit == SwitchUnit::DefaultAlu).unwrap();
//! let fpu = rows.iter().find(|r| r.unit == SwitchUnit::AluPlusFpu).unwrap();
//! assert!(fpu.area_um2 > 4.0 * alu.area_um2);
//! ```

#![forbid(unsafe_code)]

pub mod cells;
pub mod components;
pub mod netlist;
pub mod report;
pub mod units;

pub use cells::{CellKind, CellLibrary, CellParams};
pub use netlist::Netlist;
pub use report::{table1, Table1Row};
pub use units::SwitchUnit;
