//! # progmp-core
//!
//! The ProgMP scheduler programming model: a Rust reproduction of the
//! language, runtime, and execution backends from *"A Programming Model
//! for Application-defined Multipath TCP Scheduling"* (Frömmgen et al.,
//! Middleware '17).
//!
//! The crate provides:
//!
//! * the **specification language** — lexer, parser, static type system,
//!   and the semantic restrictions (single assignment, side-effect
//!   isolation) that make schedulers safe by construction;
//! * the **environment model** (`Q`/`QU`/`RQ` queues, subflows, registers)
//!   as the [`env::SchedulerEnv`] trait;
//! * three **execution backends**: a tree-walking interpreter, an
//!   ahead-of-time closure compiler, and an eBPF-flavoured bytecode VM
//!   with verifier and linear-scan register allocation;
//! * the **runtime** that buffers side effects and enforces the "no lost
//!   packets" guarantee.
//!
//! ## Quick example
//!
//! ```
//! use progmp_core::{compile, Backend};
//! use progmp_core::testenv::MockEnv;
//! use progmp_core::env::{QueueKind, SubflowProp};
//!
//! // The paper's Fig. 3 scheduler: push on the subflow with minimum RTT.
//! let program = compile(
//!     "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {
//!          SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
//! ).unwrap();
//! let mut instance = program.instantiate(Backend::Interpreter);
//!
//! let mut env = MockEnv::new();
//! env.add_subflow(0);
//! env.set_subflow_prop(0, SubflowProp::Rtt, 10_000);
//! env.add_subflow(1);
//! env.set_subflow_prop(1, SubflowProp::Rtt, 40_000);
//! env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
//!
//! instance.execute(&mut env).unwrap();
//! assert_eq!(env.transmissions.len(), 1);
//! assert_eq!(env.transmissions[0].0.0, 0); // min-RTT subflow
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod env;
pub mod error;
pub mod exec;
pub mod hir;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod program;
pub mod sema;
pub mod testenv;
pub mod token;
pub mod types;

pub mod analysis;
pub mod aot;
pub mod bytecode;
pub mod codegen;
mod flow;
pub mod opt;
pub mod optimizer;
pub mod regalloc;
pub mod verify;
pub mod vm;

pub use error::{CompileError, ExecError};
pub use exec::{ExecCtx, ExecStats, DEFAULT_STEP_BUDGET};
pub use program::{
    compile, compile_named, compile_with_options, Backend, CompileOptions, SchedulerInstance,
    SchedulerProgram,
};
pub use types::Type;
pub use verify::{
    subflow_available, Diagnostic, IdSet, Lint, PropStatus, PropertyCertificate, Severity, Verdict,
    VerifyConfig,
};
