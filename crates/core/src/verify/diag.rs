//! Structured diagnostics and the admission verdict.
//!
//! Every finding of the abstract interpreter and the syntactic lint pass
//! is a [`Diagnostic`]: a [`Lint`] (the catalogue entry), a [`Severity`],
//! a source position, and a human-readable message. A [`Verdict`] bundles
//! the diagnostics with the certified worst-case step bound; a program is
//! *admitted* iff no diagnostic has [`Severity::Error`].

use crate::analysis::Analysis;
use crate::error::Pos;
use std::fmt;

/// The lint catalogue: every distinct finding the verifier can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// `PUSH` with a provably-`NULL` subflow or packet operand.
    PushNull,
    /// `PUSH` with a possibly-`NULL` operand (graceful no-op at runtime).
    PushMaybeNull,
    /// Property access (or `SENT_ON`/`HAS_WINDOW_FOR`) on a reference that
    /// may be `NULL`; reads of `NULL` yield 0 at runtime.
    NullPropAccess,
    /// Division or modulo with a provably-zero divisor.
    DivByZero,
    /// Division or modulo with a possibly-zero divisor (yields 0).
    DivMaybeZero,
    /// `POP()` from a provably-empty queue view.
    PopEmpty,
    /// `POP()` from a possibly-empty queue view (yields `NULL`).
    PopMaybeEmpty,
    /// A branch that can never execute given the proven value ranges.
    DeadBranch,
    /// A register written by the program but never read by it.
    RegisterNeverRead,
    /// A popped packet that is never `PUSH`ed or `DROP`ped — it is hidden
    /// from every queue view for the rest of the execution without being
    /// scheduled.
    PopWithoutPush,
    /// Scan nesting deeper than the admission threshold.
    ScanDepth,
    /// Bytecode reads a register or stack slot on a path where it was
    /// never written (bytecode verifier).
    UninitRead,
    /// Bytecode that no execution can reach (bytecode verifier).
    UnreachableCode,
    /// A helper call whose argument kinds or result use violate the typed
    /// helper signature (bytecode verifier).
    HelperSignature,
    /// Arithmetic or ordered comparison on a subflow/packet handle
    /// (bytecode verifier).
    HandleArith,
    /// A bytecode loop whose termination the verifier cannot establish
    /// (bytecode verifier).
    UnboundedLoop,
    /// Translation validation failure: the compiled bytecode disagrees
    /// with the HIR admission certificate (step bound or helper audit),
    /// indicating a codegen/regalloc bug.
    Miscompile,
    /// An optimizer pass produced an image the re-run verifier or the
    /// translation validator rejects (or one whose certified step bound
    /// increased); the pass was rolled back (bytecode optimizer).
    Misoptimization,
    /// Work-conservation property: whether every path through the program
    /// reaches a definite `PUSH` when the send queue is non-empty and a
    /// subflow exists (property verifier; see `crate::verify::props`).
    WorkConservation,
    /// Per-subflow starvation property: some subflow identity can never be
    /// the target of any `PUSH` under any environment (property verifier).
    SubflowStarvation,
    /// Redundancy-bound property: the closed-form maximum number of times
    /// one packet can be pushed during a single upcall (property verifier).
    RedundancyBound,
    /// Reinjection-safety property: whether every reinjection-queue `POP`
    /// is guarded by an emptiness check (property verifier).
    ReinjectionSafety,
}

impl Lint {
    /// The stable kebab-case name of the lint (used in JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Lint::PushNull => "push-null",
            Lint::PushMaybeNull => "push-maybe-null",
            Lint::NullPropAccess => "null-prop-access",
            Lint::DivByZero => "div-by-zero",
            Lint::DivMaybeZero => "div-maybe-zero",
            Lint::PopEmpty => "pop-empty",
            Lint::PopMaybeEmpty => "pop-maybe-empty",
            Lint::DeadBranch => "dead-branch",
            Lint::RegisterNeverRead => "register-never-read",
            Lint::PopWithoutPush => "pop-without-push",
            Lint::ScanDepth => "scan-depth",
            Lint::UninitRead => "uninit-read",
            Lint::UnreachableCode => "unreachable-code",
            Lint::HelperSignature => "helper-signature",
            Lint::HandleArith => "handle-arith",
            Lint::UnboundedLoop => "unbounded-loop",
            Lint::Miscompile => "miscompile",
            Lint::Misoptimization => "misoptimization",
            Lint::WorkConservation => "work-conservation",
            Lint::SubflowStarvation => "subflow-starvation",
            Lint::RedundancyBound => "redundancy-bound",
            Lint::ReinjectionSafety => "reinjection-safety",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How serious a diagnostic is. Only [`Severity::Error`] blocks admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: legal and common, but worth knowing.
    Info,
    /// Suspicious: almost certainly a mistake, yet harmless at runtime.
    Warning,
    /// Rejected: the program is not admitted to the transport stack.
    Error,
}

impl Severity {
    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One verifier finding, anchored to a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which catalogue entry this is.
    pub lint: Lint,
    /// How serious it is.
    pub severity: Severity,
    /// Source position of the offending construct.
    pub pos: Pos,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.lint, self.pos, self.message
        )
    }
}

/// The result of verifying one program: the full diagnostic list plus the
/// certified worst-case step bound (valid for every backend under the
/// verifier's environment caps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// All diagnostics, sorted by source position.
    pub diagnostics: Vec<Diagnostic>,
    /// Worst-case steps one execution can take on any backend, assuming
    /// the environment stays within the configured cardinality caps.
    pub certified_step_bound: u64,
    /// The static audit of the program ([`crate::analysis`]) that the
    /// syntactic lints were read off.
    pub analysis: Analysis,
}

impl Verdict {
    /// True iff no diagnostic has [`Severity::Error`]: the program may run.
    pub fn admitted(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Multi-line human-readable report.
    pub fn render_human(&self, name: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{name}: {} (certified step bound: {})\n",
            if self.admitted() {
                "ADMITTED"
            } else {
                "REJECTED"
            },
            self.certified_step_bound,
        ));
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        if self.diagnostics.is_empty() {
            out.push_str("  no findings\n");
        }
        out
    }

    /// Single-object JSON report (hand-rolled; the crate has no serde).
    pub fn render_json(&self, name: &str) -> String {
        let mut out = String::new();
        out.push_str("{\"name\":");
        json_string(&mut out, name);
        out.push_str(&format!(
            ",\"admitted\":{},\"certified_step_bound\":{},\"diagnostics\":[",
            self.admitted(),
            self.certified_step_bound
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"lint\":\"{}\",\"severity\":\"{}\",\"line\":{},\"col\":{},\"message\":",
                d.lint, d.severity, d.pos.line, d.pos.col
            ));
            json_string(&mut out, &d.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Appends `s` as a JSON string literal (quotes, escapes).
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(sev: Severity) -> Diagnostic {
        Diagnostic {
            lint: Lint::PushNull,
            severity: sev,
            pos: Pos { line: 2, col: 5 },
            message: "pushed packet is provably NULL".into(),
        }
    }

    #[test]
    fn admission_requires_no_errors() {
        let v = Verdict {
            diagnostics: vec![diag(Severity::Info), diag(Severity::Warning)],
            certified_step_bound: 100,
            analysis: Analysis::default(),
        };
        assert!(v.admitted());
        let v = Verdict {
            diagnostics: vec![diag(Severity::Error)],
            certified_step_bound: 100,
            analysis: Analysis::default(),
        };
        assert!(!v.admitted());
    }

    #[test]
    fn human_rendering_includes_bound_and_findings() {
        let v = Verdict {
            diagnostics: vec![diag(Severity::Error)],
            certified_step_bound: 4096,
            analysis: Analysis::default(),
        };
        let text = v.render_human("bad");
        assert!(text.contains("bad: REJECTED (certified step bound: 4096)"));
        assert!(text.contains("error[push-null] at 2:5"));
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let v = Verdict {
            diagnostics: vec![Diagnostic {
                lint: Lint::DivMaybeZero,
                severity: Severity::Info,
                pos: Pos { line: 1, col: 9 },
                message: "divisor \"x\" may be 0".into(),
            }],
            certified_step_bound: 64,
            analysis: Analysis::default(),
        };
        let json = v.render_json("t");
        assert!(json.starts_with("{\"name\":\"t\",\"admitted\":true"));
        assert!(json.contains("\"lint\":\"div-maybe-zero\""));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.ends_with("]}"));
    }
}
