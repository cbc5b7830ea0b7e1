//! Static program verification: compile-time proofs of the constraints
//! the runtime otherwise discovers the hard way.
//!
//! A validated [`SwitchProgram`] is *admissible* — it fits the declared
//! [`crate::switch::SwitchCaps`] — but admissibility says nothing about
//! whether the program is *correct*: whether every field it reads was
//! actually produced, whether the RAW restriction can fire at runtime,
//! whether a shift amount can silently zero a container, or whether a
//! stateful index can escape its register array mid-batch. This module is
//! the P4-compiler-shaped analysis layer answering those questions before
//! a packet ever runs, as structured [`Diagnostic`]s rather than
//! [`crate::switch::RuntimeError`]s:
//!
//! * **PHV def-use dataflow** ([`defuse`]) — per-field def/use chains in
//!   execution order across stages (and recirculation), flagging reads of
//!   never-written non-input fields, dead writes, and unused PHV fields.
//! * **Register hazard analysis** ([`hazard`]) — a static proof of the
//!   paper's RAW restriction (one access per register array per packet
//!   pass) and its gated RSAW extension, cross-stage array-binding
//!   aliasing, and the **shard-partition safety proof**
//!   ([`prove_shard_safety`]): evidence that every stateful slot index
//!   stays inside the shard's slot range, which a
//!   [`crate::shard::ShardPlan`] records when every shard's program
//!   proves it.
//! * **Value-range interval analysis** ([`range`]) — conservative
//!   intervals over each action's op tape, seeded from field widths and
//!   refined by table-entry match constraints: shift distances proven
//!   (or not) below the container width, unmatchable table entries,
//!   truncated constants, provably-constant ops surfaced as fusion
//!   candidates.
//! * **Hardware capability lints** ([`hwprofile`]) — the program's
//!   [`crate::resources::ResourceReport`] checked against a loadable
//!   [`HwProfile`] (stages, tables, SALUs, entries, hash/TCAM key bits,
//!   PHV bits — with a Tofino preset matching the paper's Table 3
//!   accounting).
//!
//! The passes run over any structurally well-formed program, *without*
//! requiring [`SwitchProgram::validate`] to have passed — so defect
//! injection (and the mutation test suite) can exercise the analyzer on
//! programs the builder would reject.
//!
//! ```
//! use fpisa_pisa::analysis::{verify_program, Severity};
//! # use fpisa_pisa::{Action, PhvLayout, Stage, SwitchCaps, SwitchProgram, Table};
//! # let mut layout = PhvLayout::new();
//! # let x = layout.field("x", 8);
//! # let program = SwitchProgram {
//! #     caps: SwitchCaps::tofino(),
//! #     layout,
//! #     stages: vec![Stage::new().table(Table::always("t", Action::nop("mark").set(x, fpisa_pisa::Operand::Const(1))))],
//! #     arrays: vec![],
//! #     recirc_field: None,
//! # };
//! let report = verify_program(&program);
//! assert!(report.is_clean(), "{report}");
//! ```

pub mod defuse;
pub mod hazard;
pub mod hwprofile;
pub mod range;

use serde::{Deserialize, Serialize};

use crate::phv::FieldId;
use crate::switch::SwitchProgram;

pub use hazard::{prove_shard_safety, ShardSafetyProof};
pub use hwprofile::HwProfile;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational: inferred facts worth surfacing (packet inputs,
    /// provably-constant ops).
    Info,
    /// Suspicious but not provably wrong, or wasteful: dead writes,
    /// unused fields, bounds the analysis cannot prove.
    Warning,
    /// Provably wrong on this hardware model: the program cannot behave
    /// as written.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where in the program a finding is anchored. Every coordinate is
/// optional: a whole-program finding (say, PHV overflow) has none.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Loc {
    /// Stage index.
    pub stage: Option<usize>,
    /// Table name within the stage.
    pub table: Option<String>,
    /// Action name within the table.
    pub action: Option<String>,
    /// Primitive index within the action's op tape.
    pub op: Option<usize>,
}

impl Loc {
    /// A whole-program location.
    pub fn program() -> Self {
        Loc::default()
    }

    /// A stage-level location.
    pub fn stage(stage: usize) -> Self {
        Loc {
            stage: Some(stage),
            ..Loc::default()
        }
    }

    /// A table-level location.
    pub fn table(stage: usize, table: &str) -> Self {
        Loc {
            stage: Some(stage),
            table: Some(table.to_string()),
            ..Loc::default()
        }
    }

    /// An action-level location.
    pub fn action(stage: usize, table: &str, action: &str) -> Self {
        Loc {
            stage: Some(stage),
            table: Some(table.to_string()),
            action: Some(action.to_string()),
            op: None,
        }
    }

    /// An op-level location.
    pub fn op(stage: usize, table: &str, action: &str, op: usize) -> Self {
        Loc {
            stage: Some(stage),
            table: Some(table.to_string()),
            action: Some(action.to_string()),
            op: Some(op),
        }
    }
}

impl std::fmt::Display for Loc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.stage {
            None => f.write_str("<program>")?,
            Some(s) => write!(f, "stage {s}")?,
        }
        if let Some(t) = &self.table {
            write!(f, "/{t}")?;
        }
        if let Some(a) = &self.action {
            write!(f, "/{a}")?;
        }
        if let Some(op) = self.op {
            write!(f, "/op{op}")?;
        }
        Ok(())
    }
}

/// One analyzer finding: severity, originating pass, a stable machine
/// code, a location, and a human explanation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// The pass that produced it (`"defuse"`, `"hazard"`, `"range"`,
    /// `"hw"`).
    pub pass: &'static str,
    /// Stable machine-readable code (e.g. `"uninitialized-read"`), the
    /// key tests and expected-diagnostic pins match on.
    pub code: &'static str,
    /// Where.
    pub loc: Loc,
    /// Why.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}/{}] {}: {}",
            self.severity, self.pass, self.code, self.loc, self.message
        )
    }
}

/// How much the analyzer is allowed to get in the way at build time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnalysisLevel {
    /// Skip analysis entirely.
    Off,
    /// Run the passes but never fail the build (reports are still
    /// available to whoever asks).
    Warn,
    /// Run the passes and fail the build on any [`Severity::Error`]
    /// finding (warnings ride along). The default: every built-in
    /// program analyzes with zero errors, so denial costs nothing.
    #[default]
    Deny,
}

/// The collected findings of one [`Analyzer::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Every finding, errors first.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// All error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// All warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Count per severity: `(errors, warnings, infos)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Info => c.2 += 1,
            }
        }
        c
    }

    /// Whether the program analyzed with zero errors (warnings and infos
    /// allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Findings matching a machine code.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Whether analyses 2–3 proved that no stateful index can leave its
    /// array and no shift distance can reach the container width: the
    /// precondition under which a clean program cannot raise
    /// [`crate::switch::RuntimeError::IndexOutOfRange`] or execute a
    /// degenerate shift at runtime.
    pub fn bounds_proven(&self) -> bool {
        self.is_clean()
            && !self
                .diagnostics
                .iter()
                .any(|d| matches!(d.code, "index-unproven" | "shift-may-overflow"))
    }

    fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.loc.stage.cmp(&b.loc.stage))
                .then_with(|| a.pass.cmp(b.pass))
                .then_with(|| a.code.cmp(b.code))
        });
    }
}

impl std::fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (e, w, i) = self.counts();
        writeln!(f, "{e} error(s), {w} warning(s), {i} info(s)")?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// The declared packet interface of a program: which PHV fields arrive
/// carrying meaningful data from the wire. When supplied, a read of a
/// never-written field *outside* this set is an error; when absent, the
/// def-use pass infers inputs (any never-written field that is read) and
/// only reports them informationally.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramIo {
    /// Fields populated by the parser/host before the pipeline runs.
    pub inputs: Vec<FieldId>,
}

/// The analysis driver: configure, then [`Analyzer::run`] all four
/// passes over one program.
#[derive(Debug)]
pub struct Analyzer<'a> {
    program: &'a SwitchProgram,
    profile: HwProfile,
    io: Option<ProgramIo>,
}

impl<'a> Analyzer<'a> {
    /// Analyze against a hardware profile derived from the program's own
    /// declared capabilities ([`HwProfile::from_caps`]) — the
    /// self-consistency configuration `verify_program` uses.
    pub fn new(program: &'a SwitchProgram) -> Self {
        Analyzer {
            program,
            profile: HwProfile::from_caps(&program.caps),
            io: None,
        }
    }

    /// Lint against an explicit hardware profile instead (e.g.
    /// [`HwProfile::tofino`] to ask whether an extended-hardware program
    /// would fit the stock chip).
    #[must_use]
    pub fn with_profile(mut self, profile: HwProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Declare the packet interface explicitly (see [`ProgramIo`]).
    #[must_use]
    pub fn with_io(mut self, io: ProgramIo) -> Self {
        self.io = Some(io);
        self
    }

    /// Run all four passes and collect the findings, errors first.
    pub fn run(&self) -> AnalysisReport {
        let mut report = AnalysisReport::default();
        defuse::run(self.program, self.io.as_ref(), &mut report.diagnostics);
        hazard::run(self.program, &mut report.diagnostics);
        range::run(self.program, &mut report.diagnostics);
        hwprofile::run(self.program, &self.profile, &mut report.diagnostics);
        report.sort();
        report
    }
}

/// Analyze a program with the default configuration: hardware profile
/// from the program's own caps, packet inputs inferred. Every built-in
/// pipeline variant and aggregation backend analyzes clean under this
/// entry point.
pub fn verify_program(program: &SwitchProgram) -> AnalysisReport {
    Analyzer::new(program).run()
}
