//! Runtime containment: scheduler quarantine, safe-default fallback, and
//! deterministic backoff re-admission.
//!
//! The supervisor sits between the engine's upcall path and the scheduler
//! backends. Every upcall runs under a fault boundary that converts
//! backend traps, certified-step-budget exhaustion, oracle invariant
//! violations, and eventual-progress stalls into a structured
//! [`FaultClass`] — propagated as a value, never a panic, never a silent
//! log line, and never `catch_unwind`. On a fault the supervisor
//!
//! 1. **quarantines** the program for that connection: the faulting
//!    scheduler is parked whole (the [`Installed`] value: instance,
//!    property certificate, `RQ` capability flag, and step budget) and a
//!    built-in safe default with minRtt semantics ([`fallback_program`],
//!    compiled once and shared across all quarantined connections) takes
//!    over;
//! 2. schedules **probationary re-admission** after a deterministic
//!    exponential backoff. Backoff jitter is drawn from a per-connection
//!    xorshift stream keyed by `(simulation seed, connection identity)`
//!    ([`ChaosRng::for_path`]), so containment decisions are a pure
//!    function of the connection's own history — fleet digests stay
//!    bit-identical no matter how many workers the fleet is split
//!    across;
//! 3. trips a per-connection **circuit breaker** after
//!    [`ContainmentConfig::max_strikes`] faults, pinning the fallback
//!    permanently; and
//! 4. above a configurable fleet-wide fault rate, trips a **fleet-level
//!    breaker** that flips the remaining connections' invariant oracle
//!    from panic to collect mode. The fleet breaker only changes how
//!    violations are *routed* — never the simulated behaviour — so it
//!    cannot perturb digests.
//!
//! Every transition emits a seed-replayable [`IncidentReport`], rendered
//! in the integer-only replay style of [`crate::faults`]: re-running the
//! same scenario with the same seed reproduces the same incident at the
//! same simulated time.

use crate::connection::Installed;
use crate::faults::ChaosRng;
use crate::time::{SimTime, MILLIS, SECONDS};
use progmp_core::{ExecError, SchedulerProgram};
use std::sync::OnceLock;

/// Domain separation for the supervisor's backoff streams: keeps the
/// jitter draws disjoint from the path chaos streams derived from the
/// same simulation seed.
const SUPERVISOR_SALT: u64 = 0x0C04_17A1_4170_C0DE;

/// The built-in safe default installed on quarantine: the paper's
/// default minRtt scheduler with reinjection priority — the same
/// semantics the engine's baseline tests pin. It provably pops `RQ`, so
/// a quarantined connection can recover loss-suspected segments its
/// original scheduler would have stranded.
pub const FALLBACK_DSL: &str = "
    VAR rqSkb = RQ.TOP;
    VAR avail = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY
        AND sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
    IF (rqSkb != NULL) {
        VAR rtxSbf = avail.FILTER(sbf => !rqSkb.SENT_ON(sbf)).MIN(sbf => sbf.RTT);
        IF (rtxSbf != NULL) {
            rtxSbf.PUSH(RQ.POP());
            RETURN;
        }
    }
    IF (!Q.EMPTY) {
        avail.MIN(sbf => sbf.RTT).PUSH(Q.POP());
    }";

static FALLBACK: OnceLock<SchedulerProgram> = OnceLock::new();

/// The shared fallback program, compiled once per process. Quarantined
/// connections each instantiate it, so the compiled image (and its
/// certificates) is never duplicated.
pub fn fallback_program() -> &'static SchedulerProgram {
    FALLBACK.get_or_init(|| {
        progmp_core::compile(FALLBACK_DSL).expect("built-in fallback scheduler compiles")
    })
}

/// The structured fault a scheduler upcall (or its oracle watchdog)
/// produced. Each variant maps one containment trigger class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultClass {
    /// The execution exhausted its certified per-upcall step budget.
    StepBudget {
        /// The budget that was in force.
        budget: u64,
    },
    /// The VM rejected its own image mid-execution (a codegen bug that
    /// slipped past verification — contained, then reported).
    MalformedBytecode {
        /// Program counter of the fault.
        pc: usize,
        /// Backend description of the fault.
        detail: String,
    },
    /// A backend raised a structured [`ExecError::Trap`].
    BackendTrap {
        /// Component that raised the trap.
        origin: &'static str,
        /// Trap description.
        detail: String,
    },
    /// The runtime invariant oracle caught the scheduler violating one
    /// of its certified properties (catalogue name attached).
    OracleViolation {
        /// Violated invariant, e.g. `property-work-conservation`.
        invariant: &'static str,
    },
    /// The event queue drained with deliverable data stranded: the
    /// scheduler stopped making progress (a starver, or a program with
    /// no reinjection logic sitting on an `RQ` strand).
    ProgressStall,
}

impl FaultClass {
    /// Stable class name used in replay strings and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::StepBudget { .. } => "step-budget",
            FaultClass::MalformedBytecode { .. } => "malformed-bytecode",
            FaultClass::BackendTrap { .. } => "backend-trap",
            FaultClass::OracleViolation { .. } => "oracle-violation",
            FaultClass::ProgressStall => "progress-stall",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultClass::StepBudget { budget } => {
                write!(f, "step budget of {budget} exhausted")
            }
            FaultClass::MalformedBytecode { pc, detail } => {
                write!(f, "malformed bytecode at pc {pc}: {detail}")
            }
            FaultClass::BackendTrap { origin, detail } => {
                write!(f, "trap in {origin}: {detail}")
            }
            FaultClass::OracleViolation { invariant } => {
                write!(f, "oracle invariant `{invariant}` violated")
            }
            FaultClass::ProgressStall => f.write_str("eventual-progress stall at quiescence"),
        }
    }
}

/// Converts an [`ExecError`] escaping an upcall into its fault class.
pub fn classify_exec_error(err: &ExecError) -> FaultClass {
    match err {
        ExecError::StepBudgetExhausted { budget } => FaultClass::StepBudget { budget: *budget },
        ExecError::MalformedBytecode { pc, detail } => FaultClass::MalformedBytecode {
            pc: *pc,
            detail: detail.clone(),
        },
        ExecError::Trap { origin, detail } => FaultClass::BackendTrap {
            origin,
            detail: detail.clone(),
        },
    }
}

/// Containment knobs. The defaults quarantine aggressively and re-admit
/// within a simulated second — tuned for transfers that should survive a
/// misbehaving scheduler without missing their horizon.
#[derive(Debug, Clone)]
pub struct ContainmentConfig {
    /// First-strike backoff before probationary re-admission.
    pub base_backoff: SimTime,
    /// Backoff ceiling (the exponential doubling saturates here).
    pub max_backoff: SimTime,
    /// Faults before the per-connection circuit breaker pins the
    /// fallback permanently. Must be at least 1.
    pub max_strikes: u32,
    /// Percentage of registered connections that must fault before the
    /// fleet-level breaker trips (flipping the oracle from panic to
    /// collect routing). Values above 100 disable the breaker.
    pub fleet_breaker_pct: u32,
    /// The fleet breaker never trips below this many registered
    /// connections (a single faulty connection is not a fleet incident).
    pub fleet_breaker_min_conns: usize,
    /// Period of the per-connection stall watchdog. The watchdog fires a
    /// [`FaultClass::ProgressStall`] when a full period passes with
    /// schedulable work, an available subflow, and zero forward progress.
    /// Check times are multiples of this period from the connection's
    /// own first-data event, so stall detection — like every other
    /// containment decision — is invariant under fleet partitioning.
    pub stall_check_interval: SimTime,
}

impl Default for ContainmentConfig {
    fn default() -> Self {
        ContainmentConfig {
            base_backoff: 200 * MILLIS,
            max_backoff: 30 * SECONDS,
            max_strikes: 3,
            fleet_breaker_pct: 50,
            fleet_breaker_min_conns: 4,
            stall_check_interval: SECONDS,
        }
    }
}

/// Where a connection sits in the containment state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainState {
    /// Original scheduler active, no strikes outstanding.
    Healthy,
    /// Fallback active; a re-admission is scheduled.
    Quarantined,
    /// Original scheduler re-admitted and under watch: the next fault
    /// quarantines again with a doubled backoff.
    Probation,
    /// Per-connection circuit breaker tripped: fallback pinned, no
    /// further re-admission.
    Pinned,
}

/// What the engine must do in response to a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Park the original scheduler, install the fallback, and schedule a
    /// re-admission at `until`.
    Quarantine {
        /// Absolute simulated time of the probationary re-admission.
        until: SimTime,
    },
    /// Park the original scheduler and install the fallback permanently.
    Pin,
    /// The connection is already running the fallback (or pinned); the
    /// incident was recorded and nothing is swapped.
    Recorded,
}

/// State transition an [`IncidentReport`] documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainAction {
    /// Original scheduler quarantined, fallback installed.
    Quarantined,
    /// Per-connection circuit breaker tripped; fallback pinned.
    Pinned,
    /// Original scheduler re-admitted on probation.
    Readmitted,
    /// A fault occurred while the fallback was already active (recorded,
    /// no swap).
    FallbackFault,
    /// The fleet-level breaker tripped (oracle flipped to collect mode).
    FleetBreakerTripped,
}

impl ContainAction {
    /// Stable lower-case name used in replay strings.
    pub fn name(self) -> &'static str {
        match self {
            ContainAction::Quarantined => "quarantined",
            ContainAction::Pinned => "pinned",
            ContainAction::Readmitted => "readmitted",
            ContainAction::FallbackFault => "fallback-fault",
            ContainAction::FleetBreakerTripped => "fleet-breaker",
        }
    }
}

/// One seed-replayable containment transition.
#[derive(Debug, Clone)]
pub struct IncidentReport {
    /// Simulated time of the transition.
    pub at: SimTime,
    /// Global connection identity (fleet index; equals the local id in a
    /// standalone [`crate::Sim`]).
    pub conn: u64,
    /// The fault that triggered the transition ([`ContainAction::Readmitted`]
    /// re-states the fault that caused the quarantine being left).
    pub class: FaultClass,
    /// Spanned program location (`line:col`) where the backend could
    /// attribute the fault to source; `None` otherwise.
    pub location: Option<String>,
    /// Strike count after this transition.
    pub strikes: u32,
    /// What the supervisor did.
    pub action: ContainAction,
    /// Backoff applied (0 unless the action schedules a re-admission).
    pub backoff: SimTime,
    /// Integer-only replay string in the style of
    /// [`crate::faults::FaultPlan::render`]: re-running the scenario with
    /// this seed reproduces the incident bit-identically.
    pub replay: String,
}

impl std::fmt::Display for IncidentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conn {} {} at t={} (strike {}): {}{} [{}]",
            self.conn,
            self.action.name(),
            self.at,
            self.strikes,
            self.class,
            match &self.location {
                Some(loc) => format!(" @ {loc}"),
                None => String::new(),
            },
            self.replay,
        )
    }
}

/// Per-connection containment record.
struct ConnContain {
    state: ContainState,
    strikes: u32,
    rng: ChaosRng,
    identity: u64,
    /// The original scheduler, while the fallback holds the connection.
    parked: Option<Installed>,
    watchdog_armed: bool,
    progress_mark: u64,
}

/// The containment supervisor owned by one [`crate::Sim`].
pub struct Supervisor {
    cfg: ContainmentConfig,
    seed: u64,
    conns: Vec<Option<ConnContain>>,
    /// Every containment transition, in simulated-time order.
    pub incidents: Vec<IncidentReport>,
    /// Distinct connections that have ever faulted.
    faulted: usize,
    /// Registered connections (the fleet-breaker denominator).
    total: usize,
    /// Whether the fleet-level breaker has tripped.
    pub fleet_breaker_tripped: bool,
    breaker_just_tripped: bool,
}

impl Supervisor {
    /// Creates a supervisor for a simulation seeded with `seed`.
    pub fn new(seed: u64, cfg: ContainmentConfig) -> Self {
        Supervisor {
            cfg: ContainmentConfig {
                max_strikes: cfg.max_strikes.max(1),
                ..cfg
            },
            seed,
            conns: Vec::new(),
            incidents: Vec::new(),
            faulted: 0,
            total: 0,
            fleet_breaker_tripped: false,
            breaker_just_tripped: false,
        }
    }

    /// Registers connection `conn` (local index) with its global
    /// `identity`; idempotent.
    pub fn register(&mut self, conn: usize, identity: u64) {
        if self.conns.len() <= conn {
            self.conns.resize_with(conn + 1, || None);
        }
        if self.conns[conn].is_none() {
            self.conns[conn] = Some(ConnContain {
                state: ContainState::Healthy,
                strikes: 0,
                // Jitter draws are a pure function of (seed, identity):
                // independent of sharding and of other connections.
                rng: ChaosRng::for_path(self.seed ^ SUPERVISOR_SALT, identity, 0),
                identity,
                parked: None,
                watchdog_armed: false,
                progress_mark: 0,
            });
            self.total += 1;
        }
    }

    /// Containment state of `conn` (Healthy when never registered).
    pub fn state(&self, conn: usize) -> ContainState {
        self.conns
            .get(conn)
            .and_then(|c| c.as_ref())
            .map(|c| c.state)
            .unwrap_or(ContainState::Healthy)
    }

    /// Whether the connection is currently running the fallback.
    pub fn on_fallback(&self, conn: usize) -> bool {
        matches!(
            self.state(conn),
            ContainState::Quarantined | ContainState::Pinned
        )
    }

    /// Number of quarantine transitions recorded so far.
    pub fn quarantines(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| matches!(i.action, ContainAction::Quarantined | ContainAction::Pinned))
            .count()
    }

    fn replay_string(&self, identity: u64, class: &FaultClass, at: SimTime) -> String {
        format!(
            "seed={} conn={} class={} at={}",
            self.seed,
            identity,
            class.name(),
            at
        )
    }

    /// Handles a fault on `conn` at `now`. Returns what the engine must
    /// do with the scheduler handles; the swap itself happens in the
    /// engine via [`Supervisor::park`] / [`Supervisor::unpark`].
    pub fn on_fault(
        &mut self,
        now: SimTime,
        conn: usize,
        class: FaultClass,
        location: Option<String>,
    ) -> FaultAction {
        let Some(entry) = self.conns.get_mut(conn).and_then(|c| c.as_mut()) else {
            return FaultAction::Recorded;
        };
        let identity = entry.identity;
        match entry.state {
            ContainState::Quarantined | ContainState::Pinned => {
                // The fallback itself faulted (or a stale violation
                // arrived after the swap): record, never double-park.
                let strikes = entry.strikes;
                let replay = self.replay_string(identity, &class, now);
                self.incidents.push(IncidentReport {
                    at: now,
                    conn: identity,
                    class,
                    location,
                    strikes,
                    action: ContainAction::FallbackFault,
                    backoff: 0,
                    replay,
                });
                FaultAction::Recorded
            }
            ContainState::Healthy | ContainState::Probation => {
                let first_fault = entry.strikes == 0;
                entry.strikes += 1;
                let strikes = entry.strikes;
                let pin = strikes >= self.cfg.max_strikes;
                let (action, contain_action, backoff) = if pin {
                    entry.state = ContainState::Pinned;
                    (FaultAction::Pin, ContainAction::Pinned, 0)
                } else {
                    entry.state = ContainState::Quarantined;
                    // Deterministic exponential backoff with jitter from
                    // the per-connection stream: double per strike, cap,
                    // and spread re-admissions so a fleet of identical
                    // faulters does not thunder back in lockstep.
                    let base = self.cfg.base_backoff.max(1);
                    let exp = base.saturating_shl((strikes - 1).min(30));
                    let jitter = entry.rng.below(base / 2 + 1);
                    let backoff = exp.min(self.cfg.max_backoff).saturating_add(jitter);
                    (
                        FaultAction::Quarantine {
                            until: now + backoff,
                        },
                        ContainAction::Quarantined,
                        backoff,
                    )
                };
                let replay = self.replay_string(identity, &class, now);
                self.incidents.push(IncidentReport {
                    at: now,
                    conn: identity,
                    class: class.clone(),
                    location,
                    strikes,
                    action: contain_action,
                    backoff,
                    replay,
                });
                if first_fault {
                    self.faulted += 1;
                    self.maybe_trip_fleet_breaker(now, identity, &class);
                }
                action
            }
        }
    }

    fn maybe_trip_fleet_breaker(&mut self, now: SimTime, identity: u64, class: &FaultClass) {
        if self.fleet_breaker_tripped
            || self.cfg.fleet_breaker_pct > 100
            || self.total < self.cfg.fleet_breaker_min_conns
        {
            return;
        }
        if self.faulted * 100 >= self.total * self.cfg.fleet_breaker_pct as usize {
            self.fleet_breaker_tripped = true;
            self.breaker_just_tripped = true;
            let replay = self.replay_string(identity, class, now);
            self.incidents.push(IncidentReport {
                at: now,
                conn: identity,
                class: class.clone(),
                location: None,
                strikes: 0,
                action: ContainAction::FleetBreakerTripped,
                backoff: 0,
                replay,
            });
        }
    }

    /// Consumes the breaker-trip edge (the engine flips the oracle once).
    pub fn take_breaker_trip(&mut self) -> bool {
        std::mem::take(&mut self.breaker_just_tripped)
    }

    /// The configured stall-watchdog period.
    pub fn stall_check_interval(&self) -> SimTime {
        self.cfg.stall_check_interval
    }

    /// Arms the stall watchdog for `conn`, snapshotting `data_acked` as
    /// the progress mark. Returns `false` when already armed (the engine
    /// schedules a check event only on a fresh arm).
    pub fn arm_watchdog(&mut self, conn: usize, data_acked: u64) -> bool {
        let Some(entry) = self.conns.get_mut(conn).and_then(|c| c.as_mut()) else {
            return false;
        };
        if entry.watchdog_armed {
            return false;
        }
        entry.watchdog_armed = true;
        entry.progress_mark = data_acked;
        true
    }

    /// One watchdog tick: returns `true` if `conn` made forward progress
    /// since the previous tick, and advances the mark either way.
    pub fn watchdog_progressed(&mut self, conn: usize, data_acked: u64) -> bool {
        let Some(entry) = self.conns.get_mut(conn).and_then(|c| c.as_mut()) else {
            return true;
        };
        let progressed = data_acked > entry.progress_mark;
        entry.progress_mark = data_acked;
        progressed
    }

    /// Retires the watchdog (transfer complete); the next data-arrival
    /// event re-arms it.
    pub fn disarm_watchdog(&mut self, conn: usize) {
        if let Some(entry) = self.conns.get_mut(conn).and_then(|c| c.as_mut()) {
            entry.watchdog_armed = false;
        }
    }

    /// Stores `parked` as the scheduler re-admission restores on `conn`:
    /// the original when the fallback takes over, or its replacement
    /// when the application swaps schedulers while the fallback runs.
    pub fn park(&mut self, conn: usize, parked: Installed) {
        if let Some(entry) = self.conns.get_mut(conn).and_then(|c| c.as_mut()) {
            entry.parked = Some(parked);
        }
    }

    /// Handles the re-admission timer for `conn`: in `Quarantined` the
    /// parked scheduler is returned (state moves to `Probation`) and a
    /// `Readmitted` incident is emitted; in any other state (e.g. the
    /// connection was pinned while the timer was in flight) returns
    /// `None`.
    pub fn unpark(&mut self, now: SimTime, conn: usize) -> Option<Installed> {
        let entry = self.conns.get_mut(conn).and_then(|c| c.as_mut())?;
        if entry.state != ContainState::Quarantined {
            return None;
        }
        let parked = entry.parked.take()?;
        entry.state = ContainState::Probation;
        let identity = entry.identity;
        let strikes = entry.strikes;
        let class = self
            .incidents
            .iter()
            .rev()
            .find(|i| i.conn == identity && i.action == ContainAction::Quarantined)
            .map(|i| i.class.clone())
            .unwrap_or(FaultClass::ProgressStall);
        let replay = self.replay_string(identity, &class, now);
        self.incidents.push(IncidentReport {
            at: now,
            conn: identity,
            class,
            location: None,
            strikes,
            action: ContainAction::Readmitted,
            backoff: 0,
            replay,
        });
        Some(parked)
    }
}

/// `u64::checked_shl` with saturation (backoff doubling must not wrap).
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if self == 0 {
            return 0;
        }
        if rhs >= self.leading_zeros() {
            u64::MAX
        } else {
            self << rhs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progmp_core::PropStatus;

    fn sup(cfg: ContainmentConfig) -> Supervisor {
        let mut s = Supervisor::new(42, cfg);
        s.register(0, 0);
        s
    }

    fn budget_fault() -> FaultClass {
        FaultClass::StepBudget { budget: 5 }
    }

    fn native_with_budget(step_budget: u64) -> Installed {
        let native = Box::new(crate::native::NativeMinRtt);
        Installed {
            step_budget,
            ..Installed::new(crate::connection::SchedulerHandle::Native(native))
        }
    }

    #[test]
    fn fallback_compiles_once_and_proves_its_claims() {
        let p = fallback_program();
        assert!(p.ptr_eq(fallback_program()), "compiled once, shared");
        assert!(p.pops_reinjection_queue());
        assert_eq!(
            p.property_certificate().work_conservation.status,
            PropStatus::Proved,
            "the safe default must be provably work-conserving: {}",
            p.property_certificate().work_conservation.detail
        );
    }

    #[test]
    fn classify_covers_every_exec_error() {
        assert_eq!(
            classify_exec_error(&ExecError::StepBudgetExhausted { budget: 9 }),
            FaultClass::StepBudget { budget: 9 }
        );
        assert!(matches!(
            classify_exec_error(&ExecError::MalformedBytecode {
                pc: 3,
                detail: "x".into()
            }),
            FaultClass::MalformedBytecode { pc: 3, .. }
        ));
        assert!(matches!(
            classify_exec_error(&ExecError::Trap {
                origin: "native",
                detail: "y".into()
            }),
            FaultClass::BackendTrap {
                origin: "native",
                ..
            }
        ));
    }

    #[test]
    fn strike_ladder_quarantines_then_pins() {
        let mut s = sup(ContainmentConfig {
            max_strikes: 3,
            ..ContainmentConfig::default()
        });
        assert_eq!(s.state(0), ContainState::Healthy);

        let a1 = s.on_fault(1_000, 0, budget_fault(), None);
        let until1 = match a1 {
            FaultAction::Quarantine { until } => until,
            other => panic!("first fault must quarantine, got {other:?}"),
        };
        assert!(until1 > 1_000);
        assert_eq!(s.state(0), ContainState::Quarantined);

        assert!(s.unpark(until1, 0).is_none(), "nothing parked yet");
        // (engine normally parks before the timer; emulate it)
        s.park(0, native_with_budget(7));
        let parked = s.unpark(until1, 0).expect("re-admitted");
        assert_eq!(parked.step_budget, 7);
        assert_eq!(s.state(0), ContainState::Probation);

        let a2 = s.on_fault(until1 + 5, 0, budget_fault(), None);
        let until2 = match a2 {
            FaultAction::Quarantine { until } => until,
            other => panic!("probation fault must re-quarantine, got {other:?}"),
        };
        // Exponential: the second backoff window is at least the base
        // doubled (jitter only adds).
        assert!(until2 - (until1 + 5) >= 2 * s.cfg.base_backoff);
        s.park(0, native_with_budget(7));
        s.unpark(until2, 0).expect("second probation");

        let a3 = s.on_fault(until2 + 5, 0, budget_fault(), None);
        assert_eq!(a3, FaultAction::Pin, "third strike trips the breaker");
        assert_eq!(s.state(0), ContainState::Pinned);
        assert!(
            s.unpark(until2 + 10_000_000, 0).is_none(),
            "pinned connections are never re-admitted"
        );

        let actions: Vec<ContainAction> = s.incidents.iter().map(|i| i.action).collect();
        assert_eq!(
            actions,
            vec![
                ContainAction::Quarantined,
                ContainAction::Readmitted,
                ContainAction::Quarantined,
                ContainAction::Readmitted,
                ContainAction::Pinned,
            ]
        );
        assert_eq!(s.quarantines(), 3);
    }

    #[test]
    fn fallback_faults_are_recorded_without_double_parking() {
        let mut s = sup(ContainmentConfig::default());
        s.on_fault(0, 0, budget_fault(), None);
        assert_eq!(s.state(0), ContainState::Quarantined);
        let again = s.on_fault(
            10,
            0,
            FaultClass::OracleViolation {
                invariant: "property-work-conservation",
            },
            None,
        );
        assert_eq!(again, FaultAction::Recorded);
        assert_eq!(s.state(0), ContainState::Quarantined, "state unchanged");
        assert_eq!(
            s.incidents.last().unwrap().action,
            ContainAction::FallbackFault
        );
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_identity() {
        let run = |seed: u64, identity: u64| {
            let mut s = Supervisor::new(seed, ContainmentConfig::default());
            s.register(3, identity);
            match s.on_fault(0, 3, budget_fault(), None) {
                FaultAction::Quarantine { until } => until,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(run(1, 9), run(1, 9), "pure function of (seed, identity)");
        assert_ne!(
            run(1, 9),
            run(2, 9),
            "different seeds draw different jitter"
        );
        // Identity — not the local index — keys the stream: the local
        // index differing must not matter.
        let mut a = Supervisor::new(7, ContainmentConfig::default());
        a.register(0, 11);
        let mut b = Supervisor::new(7, ContainmentConfig::default());
        b.register(5, 11);
        assert_eq!(
            a.on_fault(0, 0, budget_fault(), None),
            b.on_fault(0, 5, budget_fault(), None),
            "backoff keyed by identity, invariant under sharding"
        );
    }

    #[test]
    fn fleet_breaker_trips_at_the_configured_rate() {
        let mut s = Supervisor::new(
            5,
            ContainmentConfig {
                fleet_breaker_pct: 50,
                fleet_breaker_min_conns: 4,
                ..ContainmentConfig::default()
            },
        );
        for i in 0..4 {
            s.register(i, i as u64);
        }
        s.on_fault(0, 0, budget_fault(), None);
        assert!(!s.fleet_breaker_tripped, "1/4 < 50%");
        assert!(!s.take_breaker_trip());
        s.on_fault(1, 1, budget_fault(), None);
        assert!(s.fleet_breaker_tripped, "2/4 >= 50%");
        assert!(s.take_breaker_trip(), "edge fires once");
        assert!(!s.take_breaker_trip(), "and only once");
        // Repeated faults on already-faulted connections don't re-count.
        s.on_fault(2, 2, budget_fault(), None);
        assert_eq!(
            s.incidents
                .iter()
                .filter(|i| i.action == ContainAction::FleetBreakerTripped)
                .count(),
            1
        );
    }

    #[test]
    fn breaker_respects_min_conns_and_disable() {
        let mut small = Supervisor::new(5, ContainmentConfig::default());
        small.register(0, 0);
        small.on_fault(0, 0, budget_fault(), None);
        assert!(!small.fleet_breaker_tripped, "below min_conns");

        let mut off = Supervisor::new(
            5,
            ContainmentConfig {
                fleet_breaker_pct: 101,
                fleet_breaker_min_conns: 1,
                ..ContainmentConfig::default()
            },
        );
        for i in 0..8 {
            off.register(i, i as u64);
            off.on_fault(0, i, budget_fault(), None);
        }
        assert!(!off.fleet_breaker_tripped, "pct > 100 disables");
    }

    #[test]
    fn replay_strings_are_integer_only_and_seeded() {
        let mut s = sup(ContainmentConfig::default());
        s.on_fault(123, 0, budget_fault(), None);
        let inc = &s.incidents[0];
        assert_eq!(inc.replay, "seed=42 conn=0 class=step-budget at=123");
        assert!(inc.to_string().contains("quarantined"));
    }

    #[test]
    fn saturating_shl_saturates() {
        assert_eq!(1u64.saturating_shl(3), 8);
        assert_eq!(0u64.saturating_shl(63), 0);
        assert_eq!(u64::MAX.saturating_shl(1), u64::MAX);
        assert_eq!((1u64 << 62).saturating_shl(5), u64::MAX);
    }
}
