//! # mptcp-sim
//!
//! A deterministic discrete-event Multipath TCP simulator: the substrate
//! on which the ProgMP scheduler programming model (`progmp-core`) is
//! evaluated, substituting for the paper's Linux-kernel implementation
//! and Mininet/real-world testbeds (see DESIGN.md §1 for the substitution
//! argument).
//!
//! The simulator models, per connection:
//!
//! * **subflows** over independent paths (rate, propagation delay, random
//!   loss, bounded egress queue, time-varying profiles for WiFi
//!   fluctuation and handover);
//! * **TCP machinery** per subflow: NewReno or coupled LIA congestion
//!   control, RFC 6298 RTT estimation, fast retransmit on triple-dupack,
//!   retransmission timeouts with backoff, TCP-small-queue throttling;
//! * the **MPTCP meta socket**: sending queue `Q`, in-flight queue `QU`,
//!   reinjection queue `RQ`, data-level sequencing/acking, and the
//!   scheduler hook implementing [`progmp_core::env::SchedulerEnv`];
//! * the **receiver**: per-subflow and meta reordering with both the
//!   stock-Linux (legacy) and the paper's improved delivery (§4.2);
//! * **applications**: bulk and constant-bitrate sources and one-shot
//!   sends, plus register signalling through the extended API.
//!
//! ## Quick example
//!
//! ```
//! use mptcp_sim::{ConnectionConfig, PathConfig, SchedulerSpec, Sim, SubflowConfig};
//! use mptcp_sim::time::{from_millis, SECONDS};
//!
//! let mut sim = Sim::new(1);
//! let conn = sim.add_connection(ConnectionConfig::new(
//!     vec![
//!         SubflowConfig::new(PathConfig::symmetric(from_millis(10), 1_250_000)),
//!         SubflowConfig::new(PathConfig::symmetric(from_millis(40), 1_250_000)),
//!     ],
//!     SchedulerSpec::dsl(
//!         "IF (!Q.EMPTY) {
//!              SUBFLOWS.FILTER(sbf => sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED)
//!                      .MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
//!     ),
//! )).unwrap();
//! sim.app_send_at(conn, 0, 50_000, 0);
//! sim.run_to_completion(10 * SECONDS);
//! assert!(sim.connections[conn].all_acked());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app;
pub mod calendar;
pub mod cc;
pub mod config;
pub mod connection;
pub mod engine;
pub mod faults;
pub mod fleet;
pub mod native;
pub mod oracle;
pub mod packet;
pub mod path;
pub mod pathman;
pub mod receiver;
pub mod rtt;
pub mod stats;
pub mod subflow;
pub mod supervisor;
pub mod time;

pub use calendar::CalendarQueue;
pub use cc::CcAlgo;
pub use config::{ConnectionConfig, SchedulerSpec, SubflowConfig};
pub use connection::Connection;
pub use engine::{ConnId, Sim};
pub use faults::{ChaosRng, FaultClause, FaultPlan, LossModel};
pub use fleet::{
    run_fleet, ConnReport, ConnScenario, FleetConfig, FleetReport, OracleMode, Workload,
};
pub use native::{NativeMinRtt, NativeScheduler, NativeTrapping};
pub use oracle::{InvariantOracle, OracleViolation};
pub use path::{PathConfig, PathProfileEntry};
pub use pathman::{PathManager, PathManagerPolicy, PmAction};
pub use receiver::ReceiverMode;
pub use stats::{ConnStats, SubflowStats};
pub use supervisor::{
    classify_exec_error, fallback_program, ContainAction, ContainState, ContainmentConfig,
    FaultAction, FaultClass, IncidentReport, Supervisor,
};
