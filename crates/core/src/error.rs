//! Error types for scheduler compilation and execution.

use std::fmt;

/// Position of a token or construct in the scheduler source, 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Pos {
    pub(crate) const fn new(line: u32, col: u32) -> Self {
        Pos { line, col }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An error raised while turning scheduler source text into an executable
/// program (lexing, parsing, type checking, or semantic analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Which compilation stage rejected the program.
    pub stage: Stage,
    /// Where in the source the problem was detected.
    pub pos: Pos,
    /// Human-readable description of the problem.
    pub message: String,
}

/// The compilation stage that produced a [`CompileError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Tokenization.
    Lex,
    /// Syntactic analysis.
    Parse,
    /// Type checking and semantic restrictions (single assignment,
    /// side-effect isolation, property resolution).
    Sema,
    /// Bytecode generation or verification.
    Codegen,
    /// Static admission verification (abstract interpretation): a program
    /// was rejected because the verifier reported an error-severity
    /// diagnostic (see [`crate::verify`]).
    Verify,
    /// Bytecode-level verification: the eBPF-style dataflow verifier over
    /// the compiled artifact (see [`crate::verify::vm`]) rejected the
    /// program, or the structural bytecode checks failed.
    VmVerify,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Lex => "lex",
            Stage::Parse => "parse",
            Stage::Sema => "sema",
            Stage::Codegen => "codegen",
            Stage::Verify => "verify",
            Stage::VmVerify => "vm-verify",
        };
        f.write_str(s)
    }
}

impl CompileError {
    pub(crate) fn new(stage: Stage, pos: Pos, message: impl Into<String>) -> Self {
        CompileError {
            stage,
            pos,
            message: message.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error at {}: {}", self.stage, self.pos, self.message)
    }
}

impl std::error::Error for CompileError {}

/// An error raised while executing a scheduler program.
///
/// The programming model is designed so that well-typed programs cannot
/// fail at runtime ("no exceptions by design"); the only runtime errors
/// are resource-budget violations enforced by the verifier/runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The per-execution instruction/step budget was exhausted. This is
    /// the runtime analogue of the eBPF verifier's termination guarantee.
    StepBudgetExhausted {
        /// The budget that was in force.
        budget: u64,
    },
    /// A backend aborted the upcall with a structured trap: a native
    /// scheduler signalled an unrecoverable condition, or an execution
    /// path reached a state the backend cannot continue from. Traps
    /// propagate as values — never panics — so the simulator's
    /// containment supervisor can quarantine the program without
    /// `catch_unwind`.
    Trap {
        /// Backend or component that raised the trap.
        origin: &'static str,
        /// Description of the fault.
        detail: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StepBudgetExhausted { budget } => {
                write!(f, "scheduler execution exceeded step budget of {budget}")
            }
            ExecError::Trap { origin, detail } => {
                write!(f, "scheduler trap in {origin}: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_error_display_includes_stage_and_pos() {
        let e = CompileError::new(Stage::Parse, Pos::new(3, 7), "unexpected token");
        assert_eq!(e.to_string(), "parse error at 3:7: unexpected token");
    }

    #[test]
    fn exec_error_display() {
        let e = ExecError::StepBudgetExhausted { budget: 10 };
        assert!(e.to_string().contains("10"));
        let e = ExecError::Trap {
            origin: "native",
            detail: "induced fault".into(),
        };
        assert!(e.to_string().contains("native"));
        assert!(e.to_string().contains("induced fault"));
    }

    #[test]
    fn stage_display_all_variants() {
        assert_eq!(Stage::Lex.to_string(), "lex");
        assert_eq!(Stage::Parse.to_string(), "parse");
        assert_eq!(Stage::Sema.to_string(), "sema");
        assert_eq!(Stage::Codegen.to_string(), "codegen");
        assert_eq!(Stage::Verify.to_string(), "verify");
        assert_eq!(Stage::VmVerify.to_string(), "vm-verify");
    }
}
