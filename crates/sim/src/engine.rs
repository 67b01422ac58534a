//! The discrete-event simulation engine.
//!
//! Owns the virtual clock, the event queue, the connections, and the
//! scheduler round. Every other piece of work belongs to the state it
//! changes: `Sim::dispatch` hands each transport event to the
//! [`Connection`] it names, which schedules its own follow-ups and says
//! whether the scheduler should run; only the scheduler round, the
//! re-admission and the stall watchdog, which need the oracle or the
//! supervisor, stay here.
//!
//! All randomness lives in per-path xorshift64* streams derived from the
//! simulation seed and the `(connection, subflow)` pair (see
//! [`crate::faults`]), so every simulation is deterministic and
//! reproducible per seed — the simulator's substitute for the paper's
//! repeated real-world measurement runs — and one path's loss/jitter
//! trace never depends on how other paths' events interleave.

use crate::app::BulkState;
use crate::calendar::CalendarQueue;
use crate::config::{ConnectionConfig, SchedulerSpec};
use crate::connection::{Connection, Installed};
use crate::faults::{ChaosRng, FaultClause, FaultPlan, LossModel};
use crate::oracle::{
    check_properties, check_quiescent, InvariantOracle, OracleViolation, PropObservation,
};
use crate::path::{Path, PathProfileEntry};
use crate::pathman::{PathManager, PmAction};
use crate::receiver::Receiver;
use crate::subflow::Subflow;
use crate::supervisor::{
    classify_exec_error, ContainmentConfig, FaultAction, FaultClass, IncidentReport, Supervisor,
};
use crate::time::SimTime;
use progmp_core::env::{PacketRef, RegId, SubflowId, Trigger};
use progmp_core::exec::{ExecCtx, ExecScratch};
use progmp_core::{CompileError, ExecStats};
use std::time::Instant;

/// Identifier of a connection within a [`Sim`].
pub type ConnId = usize;

#[derive(Debug, Clone)]
pub(crate) enum EventKind {
    AppData {
        conn: ConnId,
        bytes: u64,
        prop: u32,
    },
    SetRegister {
        conn: ConnId,
        reg: RegId,
        value: i64,
    },
    Arrival {
        conn: ConnId,
        sbf: u32,
        sbf_seq: u64,
        data_seq: u64,
        pkt: PacketRef,
        size: u32,
    },
    Ack {
        conn: ConnId,
        sbf: u32,
        sbf_ack: u64,
        data_ack: u64,
        rwnd: u64,
    },
    Rto {
        conn: ConnId,
        sbf: u32,
        token: u64,
    },
    Tlp {
        conn: ConnId,
        sbf: u32,
        token: u64,
    },
    SubflowUp {
        conn: ConnId,
        sbf: u32,
    },
    SubflowDown {
        conn: ConnId,
        sbf: u32,
    },
    PathChange {
        conn: ConnId,
        sbf: u32,
        entry: PathProfileEntry,
    },
    Refill {
        conn: ConnId,
        source: usize,
    },
    PmTick {
        conn: ConnId,
        manager: usize,
    },
    Trigger {
        conn: ConnId,
        /// The cause, as the replay log prints it (`Debug`); the
        /// scheduler runs the same way for every cause.
        #[allow(dead_code)]
        trigger: Trigger,
    },
    FaultLoss {
        conn: ConnId,
        sbf: u32,
        model: Option<LossModel>,
    },
    FaultJitter {
        conn: ConnId,
        sbf: u32,
        amplitude: Option<SimTime>,
    },
    RwndStall {
        conn: ConnId,
        stalled: bool,
    },
    /// Probationary re-admission of a quarantined scheduler (containment
    /// supervisor backoff timer).
    Readmit {
        conn: ConnId,
    },
    /// Periodic per-connection stall watchdog tick (containment
    /// supervisor eventual-progress boundary).
    StallCheck {
        conn: ConnId,
    },
}

/// The event queue: every follow-up a connection schedules goes here.
pub(crate) type Events = CalendarQueue<EventKind>;

impl EventKind {
    /// The one connection this event can mutate: [`Sim::dispatch`] never
    /// writes to another, which is what lets the oracle re-check only
    /// this one after the event.
    fn conn(&self) -> ConnId {
        match *self {
            EventKind::AppData { conn, .. }
            | EventKind::SetRegister { conn, .. }
            | EventKind::Arrival { conn, .. }
            | EventKind::Ack { conn, .. }
            | EventKind::Rto { conn, .. }
            | EventKind::Tlp { conn, .. }
            | EventKind::SubflowUp { conn, .. }
            | EventKind::SubflowDown { conn, .. }
            | EventKind::PathChange { conn, .. }
            | EventKind::Refill { conn, .. }
            | EventKind::PmTick { conn, .. }
            | EventKind::Trigger { conn, .. }
            | EventKind::FaultLoss { conn, .. }
            | EventKind::FaultJitter { conn, .. }
            | EventKind::RwndStall { conn, .. }
            | EventKind::Readmit { conn }
            | EventKind::StallCheck { conn } => conn,
        }
    }
}

/// The discrete-event MPTCP simulator.
///
/// Every method that takes a [`ConnId`] panics, naming it, unless it is a
/// connection of this simulation.
pub struct Sim {
    /// Current simulation time (ns).
    pub now: SimTime,
    queue: Events,
    seed: u64,
    /// All connections, indexed by [`ConnId`].
    pub connections: Vec<Connection>,
    /// Total events processed (engine health metric).
    pub events_processed: u64,
    oracle: Option<InvariantOracle>,
    supervisor: Option<Supervisor>,
    /// Buffers every scheduler execution of this simulator reuses: one
    /// set per `Sim` (per fleet batch), whichever connection runs, so a
    /// warmed-up round allocates nothing and idle connections hold none.
    exec_scratch: ExecScratch,
    /// Transmissions requested by the round in progress, likewise reused.
    tx_scratch: Vec<(SubflowId, PacketRef)>,
}

impl Sim {
    /// Creates a simulator with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: 0,
            queue: CalendarQueue::new(),
            seed,
            connections: Vec::new(),
            events_processed: 0,
            oracle: None,
            supervisor: None,
            exec_scratch: ExecScratch::default(),
            tx_scratch: Vec::new(),
        }
    }

    /// Attaches the runtime invariant oracle (see [`crate::oracle`]).
    /// With `panic_on_violation` the first violation aborts with `label`
    /// (the replay seed) and the trailing event log; otherwise violations
    /// collect and are readable via [`Sim::oracle_violations`].
    pub fn enable_oracle(&mut self, label: impl Into<String>, panic_on_violation: bool) {
        self.oracle = Some(InvariantOracle::new(label, panic_on_violation));
    }

    /// Attaches the containment supervisor (see [`crate::supervisor`]):
    /// scheduler faults — backend errors, oracle-detected property
    /// violations, progress stalls — quarantine the offending program
    /// behind the built-in fallback instead of failing the run. Call
    /// before the simulation starts, before or after
    /// [`Sim::enable_oracle`]: neither touches the other's state.
    ///
    /// # Panics
    ///
    /// If containment is already enabled: a second supervisor would drop
    /// the first's incident log and re-admit every connection as healthy,
    /// losing for good the scheduler a quarantined one has parked. Also
    /// if `cfg.stall_check_interval` is zero (see [`Supervisor::new`]).
    pub fn enable_containment(&mut self, cfg: ContainmentConfig) {
        assert!(self.supervisor.is_none(), "enable_containment called twice");
        let sup = Supervisor::new(self.seed, cfg);
        for c in &mut self.connections {
            c.contain = Some(sup.admit(c.identity));
        }
        self.supervisor = Some(sup);
    }

    /// The containment supervisor, when attached.
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_ref()
    }

    /// Containment incidents recorded so far (empty without containment).
    pub fn incidents(&self) -> &[IncidentReport] {
        self.supervisor
            .as_ref()
            .map(|s| s.incidents.as_slice())
            .unwrap_or(&[])
    }

    /// Violations collected so far (empty when the oracle is off or
    /// everything held).
    pub fn oracle_violations(&self) -> &[OracleViolation] {
        self.oracle
            .as_ref()
            .map(|o| o.violations.as_slice())
            .unwrap_or(&[])
    }

    /// Mutable access to the attached oracle (e.g. to turn the per-event
    /// replay log off).
    pub fn oracle_mut(&mut self) -> Option<&mut InvariantOracle> {
        self.oracle.as_mut()
    }

    /// Queues `kind` at `time`, or now if `time` has already passed: the
    /// clock never runs backwards, so every public scheduling method
    /// reads a past time as now.
    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.queue.push(time.max(self.now), kind);
    }

    /// Panics, naming `conn`, unless it is a connection of this
    /// simulation: every public method that takes a [`ConnId`] checks it
    /// on entry, so a bad index fails at the call instead of at its
    /// event's time, deep inside a run.
    fn check_conn(&self, conn: ConnId) {
        let n = self.connections.len();
        assert!(
            conn < n,
            "unknown connection {conn}: this simulation has {n}"
        );
    }

    /// Creates a connection from `cfg`. Fails if a DSL scheduler does not
    /// compile; panics as [`Sim::add_connection_with_identity`] does.
    ///
    /// The connection's per-path chaos streams are keyed by its local
    /// [`ConnId`]; use [`Sim::add_connection_with_identity`] when the
    /// connection is one batch's slice of a larger fleet and its random
    /// streams must not depend on how the fleet was partitioned.
    pub fn add_connection(&mut self, cfg: ConnectionConfig) -> Result<ConnId, CompileError> {
        let identity = self.connections.len() as u64;
        self.add_connection_with_identity(cfg, identity)
    }

    /// Creates a connection whose per-path random streams are keyed by
    /// `identity` instead of the local connection index. A fleet batch
    /// passes the *global* connection index here, which makes every
    /// loss/jitter draw a pure function of `(sim seed, identity,
    /// subflow)` — bit-identical however the fleet is split up.
    ///
    /// A subflow start or path-profile time that has already passed takes
    /// effect now.
    ///
    /// # Panics
    ///
    /// If `cfg.mss` is zero: the connection could never split data into
    /// segments, and the first send would allocate without end.
    pub fn add_connection_with_identity(
        &mut self,
        cfg: ConnectionConfig,
        identity: u64,
    ) -> Result<ConnId, CompileError> {
        assert!(cfg.mss > 0, "ConnectionConfig::mss must be positive");
        let id = self.connections.len();
        let scheduler = Installed::resolve(cfg.scheduler, cfg.step_budget)?;
        let mut subflows = Vec::new();
        for (i, sc) in cfg.subflows.iter().enumerate() {
            let mut sbf = Subflow::new(SubflowId(i as u32), Path::new(&sc.path), cfg.mss);
            // Every path gets its own random stream, derived from the
            // simulation seed and its identity — loss/jitter draws never
            // cross paths (chaos-trace reproducibility).
            sbf.path
                .reseed(ChaosRng::for_path(self.seed, identity, i as u64));
            sbf.is_backup = sc.backup;
            sbf.cost = sc.cost;
            sbf.established = sc.start_at == 0;
            // Seed the RTT estimator with the handshake round-trip, as a
            // real stack would from SYN/SYN-ACK timing. Without this,
            // RTT-based scheduling decisions at cold start read 0.
            sbf.rtt.sample(sc.path.fwd_delay + sc.path.rev_delay);
            subflows.push(sbf);
            if sc.start_at > 0 {
                self.schedule(
                    sc.start_at,
                    EventKind::SubflowUp {
                        conn: id,
                        sbf: i as u32,
                    },
                );
            }
            for entry in &sc.path.profile {
                self.schedule(
                    entry.at,
                    EventKind::PathChange {
                        conn: id,
                        sbf: i as u32,
                        entry: *entry,
                    },
                );
            }
        }
        let receiver = Receiver::new(cfg.receiver_mode, subflows.len(), cfg.recv_buf);
        let mut conn = Connection::new(
            id,
            subflows,
            receiver,
            scheduler,
            cfg.cc,
            cfg.mss,
            cfg.recv_buf,
        );
        conn.identity = identity;
        conn.contain = self.supervisor.as_ref().map(|sup| sup.admit(identity));
        conn.max_sched_rounds = cfg.max_sched_rounds;
        conn.record_timelines = cfg.record_timelines;
        self.connections.push(conn);
        Ok(id)
    }

    /// Swaps the scheduler of `conn` between events: the one install
    /// path after connection creation. `spec` binds as at creation, under
    /// the program's certified step bound. While the supervisor holds
    /// `conn` on the fallback (quarantined or pinned), it replaces what
    /// is *parked* — what re-admission will restore — never what is
    /// running, so an application cannot take a connection out of
    /// containment.
    ///
    /// # Errors
    ///
    /// A DSL source that does not compile; nothing changes.
    ///
    /// # Panics
    ///
    /// If `conn` is not a connection of this simulation.
    pub fn set_scheduler(&mut self, conn: ConnId, spec: SchedulerSpec) -> Result<(), CompileError> {
        self.check_conn(conn);
        self.connections[conn].set_scheduler(Installed::resolve(spec, None)?);
        Ok(())
    }

    /// Schedules `bytes` of application data with property `prop` at `at`
    /// (now, if `at` has passed).
    pub fn app_send_at(&mut self, conn: ConnId, at: SimTime, bytes: u64, prop: u32) {
        self.check_conn(conn);
        self.schedule(at, EventKind::AppData { conn, bytes, prop });
    }

    /// Schedules a register write (the extended API's `setRegister`) at
    /// `at` (now, if `at` has passed).
    pub fn set_register_at(&mut self, conn: ConnId, at: SimTime, reg: RegId, value: i64) {
        self.check_conn(conn);
        self.schedule(at, EventKind::SetRegister { conn, reg, value });
    }

    /// Schedules a scheduler trigger (e.g. a timer-driven probe) at `at`
    /// (now, if `at` has passed).
    pub fn trigger_at(&mut self, conn: ConnId, at: SimTime, trigger: Trigger) {
        self.check_conn(conn);
        self.schedule(at, EventKind::Trigger { conn, trigger });
    }

    /// Tears a subflow down at `at` (connection break / handover), or now
    /// if `at` has passed.
    pub fn subflow_down_at(&mut self, conn: ConnId, sbf: u32, at: SimTime) {
        self.check_conn(conn);
        self.schedule(at, EventKind::SubflowDown { conn, sbf });
    }

    /// (Re-)establishes a subflow at `at`, or now if `at` has passed.
    pub fn subflow_up_at(&mut self, conn: ConnId, sbf: u32, at: SimTime) {
        self.check_conn(conn);
        self.schedule(at, EventKind::SubflowUp { conn, sbf });
    }

    /// Expands a [`FaultPlan`] into scheduled events against `conn`:
    /// each clause installs its fault at the window start and restores
    /// the path's baseline behaviour at the window end; a window bound
    /// that has passed means now. Composable — plans and manual event
    /// scheduling mix freely.
    pub fn apply_fault_plan(&mut self, conn: ConnId, plan: &FaultPlan) {
        self.check_conn(conn);
        let loss = |sbf, model| EventKind::FaultLoss { conn, sbf, model };
        let jitter = |sbf, amplitude| EventKind::FaultJitter {
            conn,
            sbf,
            amplitude,
        };
        let stall = |stalled| EventKind::RwndStall { conn, stalled };
        for clause in &plan.clauses {
            let ((from, install), (until, restore)) = match *clause {
                FaultClause::Blackout { sbf, from, until } => {
                    let blackout = Some(LossModel::blackout());
                    ((from, loss(sbf, blackout)), (until, loss(sbf, None)))
                }
                FaultClause::BurstLoss {
                    sbf,
                    from,
                    until,
                    p_enter_bad,
                    p_exit_bad,
                    loss_bad,
                } => {
                    let burst = LossModel::GilbertElliott {
                        p_enter_bad,
                        p_exit_bad,
                        loss_good: 0,
                        loss_bad,
                        bad: false,
                    };
                    ((from, loss(sbf, Some(burst))), (until, loss(sbf, None)))
                }
                FaultClause::DelayJitter {
                    sbf,
                    from,
                    until,
                    amplitude,
                } => (
                    (from, jitter(sbf, Some(amplitude))),
                    (until, jitter(sbf, None)),
                ),
                FaultClause::RwndStall { from, until } => {
                    ((from, stall(true)), (until, stall(false)))
                }
                FaultClause::Churn {
                    sbf,
                    down_at,
                    up_at,
                } => (
                    (down_at, EventKind::SubflowDown { conn, sbf }),
                    (up_at, EventKind::SubflowUp { conn, sbf }),
                ),
            };
            self.schedule(from, install);
            self.schedule(until, restore);
        }
    }

    /// Attaches a path manager to `conn`; its policy is evaluated every
    /// `manager.interval` starting now.
    ///
    /// # Panics
    ///
    /// If `manager.interval` is zero: the tick would re-arm at the
    /// instant it fires, and the run would never advance.
    pub fn attach_path_manager(&mut self, conn: ConnId, manager: PathManager) {
        self.check_conn(conn);
        assert!(
            manager.interval > 0,
            "PathManager::interval must be positive"
        );
        let at = self.now + manager.interval;
        let managers = &mut self.connections[conn].managers;
        let pm_tick = EventKind::PmTick {
            conn,
            manager: managers.len(),
        };
        managers.push(manager);
        self.schedule(at, pm_tick);
    }

    /// Adds a backlogged bulk sender that keeps `Q` topped up (an
    /// iPerf-style source), starting now.
    pub fn add_bulk_source(&mut self, conn: ConnId, total_bytes: u64, prop: u32) {
        self.check_conn(conn);
        let sources = &mut self.connections[conn].sources;
        let refill = EventKind::Refill {
            conn,
            source: sources.len(),
        };
        sources.push(BulkState::new(total_bytes, prop));
        self.schedule(0, refill);
    }

    /// Adds a constant-bitrate source: every `chunk_interval`, enqueues
    /// `rate * chunk_interval` bytes, from `start` until `end`. Chunks
    /// due before now are enqueued now.
    ///
    /// # Panics
    ///
    /// If `chunk_interval` is zero: there would be no end to the chunks.
    pub fn add_cbr_source(
        &mut self,
        conn: ConnId,
        start: SimTime,
        end: SimTime,
        rate_bytes_per_sec: u64,
        chunk_interval: SimTime,
        prop: u32,
    ) {
        self.check_conn(conn);
        assert!(
            chunk_interval > 0,
            "add_cbr_source: chunk_interval must be positive"
        );
        let mut t = start;
        while t < end {
            let bytes = rate_bytes_per_sec.saturating_mul(chunk_interval) / crate::time::SECONDS;
            if bytes > 0 {
                self.app_send_at(conn, t, bytes, prop);
            }
            t += chunk_interval;
        }
    }

    /// Handles one event popped at `time`: stamps the time on the
    /// simulator and on the one connection it names, dispatches it, and
    /// has the oracle re-check that connection. `dispatch` is called from
    /// this one place on purpose: an early return through a second call
    /// for the unarmed case measured 5 % slower on the unarmed
    /// `fleet_bulk` benchmark workload.
    fn step(&mut self, time: SimTime, kind: EventKind) {
        self.now = time;
        self.events_processed += 1;
        let conn = kind.conn();
        self.connections[conn].now = time;
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.log_event(time, &kind);
        }
        self.dispatch(conn, kind);
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.check(time, &self.connections[conn]);
        }
    }

    /// Steps through every event due by `horizon`.
    fn run_events(&mut self, horizon: SimTime) {
        while self.queue.next_time().is_some_and(|t| t <= horizon) {
            let (time, kind) = self.queue.pop().expect("peeked");
            self.step(time, kind);
        }
    }

    /// Re-checks every connection. Runs whenever a run call stops, so
    /// whatever the caller did since the last one through the public
    /// [`Sim::connections`] — where no event names the connection touched
    /// — is still checked.
    fn oracle_sweep(&mut self) {
        if let Some(oracle) = self.oracle.as_mut() {
            for conn in &self.connections {
                oracle.check(self.now, conn);
            }
        }
    }

    /// Runs all events up to and including `until`, then advances the
    /// clock to `until`, never back: events scheduled from [`Sim::now`]
    /// must not land behind ones already handled.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_events(until);
        self.now = self.now.max(until);
        self.oracle_sweep();
    }

    /// Runs until the event queue drains or `max_time` is reached. When
    /// the queue fully drains with the oracle attached, the quiescent
    /// eventual-progress invariant is checked as well; a supervisor
    /// quarantines whoever fails it, and the run goes on for as long as
    /// a fallback has stranded data to drain.
    pub fn run_to_completion(&mut self, max_time: SimTime) {
        loop {
            self.run_events(max_time);
            self.oracle_sweep();
            if !self.queue.is_empty() || self.oracle.is_none() {
                // Horizon reached with events still pending, or nobody
                // watching: quiescent checks do not apply.
                return;
            }
            let mut swapped = false;
            for conn in 0..self.connections.len() {
                if let Some(v) = check_quiescent(self.now, &self.connections[conn]) {
                    let class = FaultClass::OracleViolation {
                        invariant: v.invariant,
                    };
                    if self.scheduler_fault(conn, class, vec![v]) {
                        self.run_scheduler(conn);
                        swapped = true;
                    }
                }
            }
            if !swapped || self.queue.is_empty() {
                return;
            }
        }
    }

    /// Routes the event to the connection it names, which handles it and
    /// says whether the scheduler should run, and runs it when told to.
    /// Two kinds do more around the run: a bulk-source poll re-arms after
    /// it, and a path-manager tick runs it after each subflow it changes
    /// and once after its register writes, then re-arms. The re-admission
    /// and the stall watchdog, which need the supervisor, are handled
    /// here.
    fn dispatch(&mut self, conn: ConnId, kind: EventKind) {
        let c = &mut self.connections[conn];
        let queue = &mut self.queue;
        let run = match kind {
            EventKind::AppData { bytes, prop, .. } => c.on_data(queue, bytes, prop),
            EventKind::SetRegister { reg, value, .. } => {
                c.set_register_direct(reg, value);
                true
            }
            EventKind::Arrival {
                sbf,
                sbf_seq,
                data_seq,
                pkt,
                size,
                ..
            } => c.on_arrival(queue, sbf, sbf_seq, data_seq, pkt, size),
            EventKind::Ack {
                sbf,
                sbf_ack,
                data_ack,
                rwnd,
                ..
            } => c.on_ack(queue, sbf, sbf_ack, data_ack, rwnd),
            EventKind::Rto { sbf, token, .. } => c.on_rto(queue, sbf, token),
            EventKind::Tlp { sbf, token, .. } => c.on_tlp(queue, sbf, token),
            EventKind::SubflowUp { sbf, .. } => c.set_subflow_established(sbf as usize, true),
            EventKind::SubflowDown { sbf, .. } => c.set_subflow_established(sbf as usize, false),
            EventKind::PathChange { sbf, entry, .. } => {
                c.change_path(sbf, |p| p.apply_profile(&entry))
            }
            EventKind::FaultLoss { sbf, model, .. } => {
                c.change_path(sbf, |p| p.set_fault_loss(model))
            }
            EventKind::FaultJitter { sbf, amplitude, .. } => {
                c.change_path(sbf, |p| p.set_jitter(amplitude))
            }
            EventKind::RwndStall { stalled, .. } => c.on_rwnd_stall(stalled),
            EventKind::Trigger { .. } => true,
            EventKind::Refill { source, .. } => {
                if c.on_refill(queue, source) {
                    self.run_scheduler(conn);
                }
                self.connections[conn].rearm_refill(&mut self.queue, source);
                false
            }
            EventKind::PmTick { manager, .. } => {
                let actions = c.managers[manager].tick(&c.subflows);
                let wrote = actions
                    .iter()
                    .any(|a| matches!(a, PmAction::SetRegister(..)));
                for action in actions {
                    if self.connections[conn].apply_pm_action(action) {
                        self.run_scheduler(conn);
                    }
                }
                if wrote {
                    self.run_scheduler(conn);
                }
                self.connections[conn].rearm_pm(&mut self.queue, manager);
                false
            }
            EventKind::Readmit { .. } => {
                let now = self.now;
                self.supervisor
                    .as_mut()
                    .is_some_and(|sup| sup.readmit(now, c))
            }
            EventKind::StallCheck { .. } => {
                self.stall_check(conn);
                false
            }
        };
        if run {
            self.run_scheduler(conn);
        }
    }

    /// Executes the scheduler of `conn` to quiescence (the paper's
    /// compressed-execution driver): rounds until one pushes nothing,
    /// flushing the requested transmissions after each so the next
    /// observes fresh state. A fault ends the turn and is routed once the
    /// scheduler is back in place; if that put the fallback in charge, it
    /// runs at once so the event that found the fault still gets
    /// scheduled (bounded: a fault while quarantined is recorded, never
    /// re-swapped).
    ///
    /// The loop also stops *before* a round that starts where its
    /// program's certified quiescence guard holds, exactly as if that
    /// round had run and pushed nothing: the guard proves no `SET`,
    /// `DROP` or effective `PUSH` is reachable, and it is armed only
    /// under a budget of at least the certified step bound, so the round
    /// cannot fault either. Only the execution and step counters see the
    /// difference. The oracle loses nothing, because a skipped round
    /// could not have violated any certificate property:
    /// work-conservation needs a non-empty `Q` and an available subflow,
    /// and each atom of the guard rules out one of them; starvation and
    /// the redundancy bound need a push; and `null_pops` is armed only
    /// when every pop is guarded. The guard is the program's own, never
    /// the certificate's, so a forged certificate cannot widen the skip.
    fn run_scheduler(&mut self, conn: ConnId) {
        // `run_to_completion`'s quiescence path gets no stamp from `step`.
        self.connections[conn].now = self.now;
        let Some(mut scheduler) = self.connections[conn].installed.take() else {
            return;
        };
        let guard = scheduler.quiescence();
        let mut faults = Vec::new();
        for _ in 0..self.connections[conn].max_sched_rounds {
            if guard.holds(&self.connections[conn]) {
                break;
            }
            let round = self.run_round(conn, &mut scheduler);
            let c = &mut self.connections[conn];
            for (sbf, pkt) in self.tx_scratch.drain(..) {
                c.transmit(&mut self.queue, sbf.0 as usize, pkt, None);
            }
            // An aborted round ends the turn, and so does anything a
            // supervisor may swap the scheduler out for. With only an
            // oracle watching, a round that ran to its end counts like
            // any other: arming the checker must not change the run.
            let ends_turn = round
                .fault
                .as_ref()
                .is_some_and(|fault| fault.violations.is_empty() || self.supervisor.is_some());
            faults.extend(round.fault);
            if ends_turn || round.stats.pushes == 0 {
                break;
            }
        }
        self.connections[conn].installed = Some(scheduler);
        for fault in faults {
            if self.scheduler_fault(conn, fault.class, fault.violations) {
                self.run_scheduler(conn);
            }
        }
    }

    /// One scheduler round, start to finish: samples the state the
    /// property certificate's dynamic checks start from (when an oracle
    /// watches a certified scheduler), executes on the shared scratch,
    /// applies the actions — transmissions go to `tx_scratch` — bumps the
    /// connection's counters, and shows the oracle the finished round.
    fn run_round(&mut self, conn: ConnId, scheduler: &mut Installed) -> Round {
        let c = &mut self.connections[conn];
        // The execution mutates the views, so the pre-state comes first.
        let watched = self.oracle.is_some() && scheduler.cert().is_some();
        let pre = watched.then(|| PropObservation::before(&*c));
        // Host timing stays a pair around the execution until the
        // benchmark stops reading `scheduler_host_ns` (ROADMAP 2a, 7).
        let t0 = Instant::now();
        let scratch = std::mem::take(&mut self.exec_scratch);
        let mut ctx = ExecCtx::with_scratch(&*c, scheduler.step_budget, scratch);
        let result = scheduler.handle.execute_once(&mut ctx);
        let host_ns = t0.elapsed().as_nanos() as u64;
        let (regs, stats, scratch) = ctx.finish_scratch();
        self.exec_scratch = scratch;
        if let Err(err) = &result {
            c.stats.scheduler_errors += 1;
            let fault = Some(Fault {
                class: classify_exec_error(err),
                violations: Vec::new(),
            });
            return Round { stats, fault };
        }
        let actions = self.exec_scratch.actions();
        c.apply_actions(&regs, actions, &mut self.tx_scratch);
        c.stats.scheduler_executions += 1;
        c.stats.scheduler_steps += stats.steps;
        c.stats.scheduler_host_ns += host_ns;
        let violations = match (pre, scheduler.cert()) {
            (Some(pre), Some(cert)) => {
                let identity = c.identity as usize;
                check_properties(self.now, identity, cert, &pre.after(actions, &stats))
            }
            _ => Vec::new(),
        };
        let breached = violations.last().map(|v| v.invariant);
        let fault = breached.map(|invariant| Fault {
            class: FaultClass::OracleViolation { invariant },
            violations,
        });
        Round { stats, fault }
    }

    /// The one route a scheduler fault takes, whichever of its four
    /// sources found it: an aborted execution, a finished round the
    /// oracle found in breach of its certificate, stranded data at
    /// quiescence, or the stall watchdog. `violations` is what the oracle
    /// found, empty for the other two sources.
    ///
    /// With a supervisor the violations go on record and the fault is
    /// contained; returns `true` when that installed the fallback (the
    /// caller should give it an immediate execution). With only an oracle
    /// they are reported, an aborted execution as `step-bound`. With
    /// neither, nothing happens.
    fn scheduler_fault(
        &mut self,
        conn: ConnId,
        class: FaultClass,
        mut violations: Vec<OracleViolation>,
    ) -> bool {
        let now = self.now;
        let Some(sup) = self.supervisor.as_mut() else {
            if let Some(oracle) = self.oracle.as_mut() {
                if violations.is_empty() {
                    violations.push(OracleViolation {
                        at: now,
                        conn: self.connections[conn].identity as usize,
                        invariant: "step-bound",
                        detail: format!(
                            "{} scheduler execution(s) aborted on the certified step budget",
                            self.connections[conn].stats.scheduler_errors
                        ),
                    });
                }
                violations.into_iter().for_each(|v| oracle.report(v));
            }
            return false;
        };
        if let Some(oracle) = self.oracle.as_mut() {
            violations.into_iter().for_each(|v| oracle.store(v));
        }
        // On a strike an instance of the shared fallback has taken over,
        // and what it replaced is parked on the connection.
        match sup.on_fault(now, &mut self.connections[conn], class) {
            FaultAction::Recorded => false,
            FaultAction::Pin => true,
            FaultAction::Quarantine { until } => {
                self.schedule(until, EventKind::Readmit { conn });
                true
            }
        }
    }

    /// One stall-watchdog tick ([`Connection::watchdog_tick`]): a stall
    /// is a [`FaultClass::ProgressStall`] scheduler fault, and the next
    /// check is armed after whatever the fault set off.
    fn stall_check(&mut self, conn: ConnId) {
        let Some((stalled, next)) = self.connections[conn].watchdog_tick() else {
            return;
        };
        if stalled && self.scheduler_fault(conn, FaultClass::ProgressStall, Vec::new()) {
            self.run_scheduler(conn);
        }
        self.schedule(next, EventKind::StallCheck { conn });
    }
}

/// What one scheduler round did: the execution's counters, and the fault
/// found in it, if any.
struct Round {
    stats: ExecStats,
    fault: Option<Fault>,
}

/// A scheduler fault on its way to [`Sim::scheduler_fault`].
struct Fault {
    class: FaultClass,
    /// What the oracle found; empty when the execution aborted.
    violations: Vec<OracleViolation>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{ConnectionConfig, SchedulerSpec, SubflowConfig};
    use crate::path::PathConfig;
    use crate::time::{from_millis, SECONDS};

    /// Default scheduler used across engine tests: reinjections first,
    /// then min-RTT with free cwnd (the paper's default scheduler).
    pub(crate) const MIN_RTT_DSL: &str = "
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

    fn two_path_config(scheduler: SchedulerSpec) -> ConnectionConfig {
        ConnectionConfig::new(
            vec![
                SubflowConfig::new(PathConfig::symmetric(from_millis(10), 1_250_000)),
                SubflowConfig::new(PathConfig::symmetric(from_millis(40), 1_250_000)),
            ],
            scheduler,
        )
        .with_timelines()
    }

    #[test]
    fn bulk_transfer_completes_over_two_subflows() {
        let mut sim = Sim::new(7);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)))
            .unwrap();
        sim.app_send_at(conn, 0, 200_000, 0);
        sim.run_to_completion(20 * SECONDS);
        let c = &sim.connections[conn];
        assert!(c.all_acked(), "all data acknowledged");
        assert_eq!(c.stats.delivered_bytes, 200_000);
        assert_eq!(c.receiver.delivered_total, 200_000);
    }

    #[test]
    fn min_rtt_prefers_fast_path_for_thin_flow() {
        let mut sim = Sim::new(7);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)))
            .unwrap();
        // A thin flow: one packet at a time, fits the fast subflow.
        for i in 0..10 {
            sim.app_send_at(conn, i * from_millis(100), 1400, 0);
        }
        sim.run_to_completion(5 * SECONDS);
        let c = &sim.connections[conn];
        assert!(c.all_acked());
        assert!(
            c.stats.subflows[0].tx_packets >= 9,
            "fast subflow carries (nearly) everything: {:?}",
            c.stats
                .subflows
                .iter()
                .map(|s| s.tx_packets)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn lossy_path_recovers_via_retransmission() {
        let mut sim = Sim::new(42);
        let cfg = ConnectionConfig::new(
            vec![SubflowConfig::new(
                PathConfig::symmetric(from_millis(20), 1_250_000).with_loss(0.05),
            )],
            SchedulerSpec::dsl(MIN_RTT_DSL),
        );
        let conn = sim.add_connection(cfg).unwrap();
        sim.app_send_at(conn, 0, 500_000, 0);
        sim.run_to_completion(60 * SECONDS);
        let c = &sim.connections[conn];
        assert!(c.all_acked(), "lossy transfer still completes");
        assert!(
            c.stats.subflows[0].wire_losses > 0,
            "losses actually happened"
        );
        assert!(
            c.stats.subflows[0].retransmissions > 0 || c.stats.tx_packets > 358,
            "recovery transmitted extra packets"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = Sim::new(seed);
            let cfg = ConnectionConfig::new(
                vec![SubflowConfig::new(
                    PathConfig::symmetric(from_millis(20), 1_250_000).with_loss(0.02),
                )],
                SchedulerSpec::dsl(MIN_RTT_DSL),
            );
            let conn = sim.add_connection(cfg).unwrap();
            sim.app_send_at(conn, 0, 100_000, 0);
            sim.run_to_completion(30 * SECONDS);
            let c = &sim.connections[conn];
            (c.stats.tx_packets, c.stats.subflows[0].wire_losses, sim.now)
        };
        assert_eq!(run(5), run(5), "same seed, same outcome");
        assert_ne!(run(5), run(6), "different seeds diverge");
    }

    #[test]
    fn redundant_scheduler_duplicates_traffic() {
        const REDUNDANT: &str = "
            IF (!Q.EMPTY) {
                VAR skb = Q.POP();
                FOREACH(VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); }
            }";
        let mut sim = Sim::new(7);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(REDUNDANT)))
            .unwrap();
        sim.app_send_at(conn, 0, 14_000, 0);
        sim.run_to_completion(10 * SECONDS);
        let c = &sim.connections[conn];
        assert!(c.all_acked());
        assert!(
            (c.stats.overhead_ratio() - 2.0).abs() < 0.05,
            "full redundancy doubles transmitted bytes: ratio={}",
            c.stats.overhead_ratio()
        );
    }

    #[test]
    fn bulk_source_keeps_queue_fed() {
        let mut sim = Sim::new(9);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)))
            .unwrap();
        sim.add_bulk_source(conn, 2_000_000, 0);
        sim.run_to_completion(30 * SECONDS);
        let c = &sim.connections[conn];
        assert_eq!(c.stats.delivered_bytes, 2_000_000);
        assert!(c.all_acked());
    }

    #[test]
    fn subflow_down_reinjects_and_recovery_uses_other_path() {
        let mut sim = Sim::new(11);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)))
            .unwrap();
        sim.app_send_at(conn, 0, 100_000, 0);
        sim.subflow_down_at(conn, 0, from_millis(30));
        sim.run_to_completion(30 * SECONDS);
        let c = &sim.connections[conn];
        assert!(c.all_acked(), "transfer completes over surviving subflow");
        assert!(c.stats.subflows[1].tx_packets > 0);
    }

    #[test]
    fn cbr_source_paces_data() {
        let mut sim = Sim::new(3);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)))
            .unwrap();
        // 1 MB/s for 2 seconds in 10 ms chunks.
        sim.add_cbr_source(conn, 0, 2 * SECONDS, 1_000_000, from_millis(10), 0);
        sim.run_to_completion(5 * SECONDS);
        let c = &sim.connections[conn];
        assert_eq!(c.enqueued_bytes(), 2_000_000);
        assert!(c.all_acked());
    }

    /// The connection's clock is the time of its latest event, whatever
    /// the event: one that runs no scheduler must stamp it too, or the
    /// next reader (the stall watchdog) sees subflow state as of the
    /// event before.
    #[test]
    fn every_event_stamps_the_connections_clock() {
        let mut sim = Sim::new(7);
        let mut cfg = two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL));
        cfg.subflows[0].path.profile.push(PathProfileEntry {
            at: from_millis(5),
            fwd_delay: None,
            rate: Some(2_500_000),
            loss: None,
        });
        let conn = sim.add_connection(cfg).unwrap();
        sim.run_until(from_millis(10));
        assert_eq!(sim.events_processed, 1, "the path change and nothing else");
        assert_eq!(sim.connections[conn].now, from_millis(5));

        let jitter = FaultClause::DelayJitter {
            sbf: 0,
            from: from_millis(15),
            until: from_millis(40),
            amplitude: from_millis(1),
        };
        let plan = FaultPlan {
            clauses: vec![jitter],
        };
        sim.apply_fault_plan(conn, &plan);
        sim.run_until(from_millis(20));
        assert_eq!(sim.connections[conn].now, from_millis(15));
    }

    /// An event naming a subflow the connection does not have is ignored,
    /// whichever kind it is.
    #[test]
    fn events_for_an_unknown_subflow_are_ignored() {
        let mut sim = Sim::new(7);
        sim.enable_oracle("unknown-subflow", true);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)))
            .unwrap();
        sim.app_send_at(conn, 0, 100_000, 0);
        sim.subflow_down_at(conn, 9, from_millis(20));
        sim.subflow_up_at(conn, 9, from_millis(25));
        let churn = FaultClause::Churn {
            sbf: 9,
            down_at: from_millis(30),
            up_at: from_millis(60),
        };
        let blackout = FaultClause::Blackout {
            sbf: 9,
            from: from_millis(30),
            until: from_millis(60),
        };
        let plan = FaultPlan {
            clauses: vec![churn, blackout],
        };
        sim.apply_fault_plan(conn, &plan);
        sim.run_to_completion(20 * SECONDS);
        let c = &sim.connections[conn];
        assert!(c.all_acked());
        assert_eq!(c.stats.delivered_bytes, 100_000);
    }

    #[test]
    fn scheduler_registers_persist_across_events() {
        const COUNTER: &str =
            "SET(R1, R1 + 1); IF (!Q.EMPTY) { SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP()); }";
        let mut sim = Sim::new(7);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(COUNTER)))
            .unwrap();
        sim.app_send_at(conn, 0, 1400, 0);
        sim.run_to_completion(SECONDS);
        let c = &sim.connections[conn];
        assert!(c.register_direct(RegId::R1) >= 2, "executions accumulated");
        assert!(c.all_acked());
    }

    /// One connection driven through all 17 event kinds: a bulk source,
    /// app sends, a CBR stream, a register write, a path-profile entry, a
    /// fault plan with every clause, a handover path manager, a scheduler
    /// that traps once under containment (quarantined, then re-admitted),
    /// and loss enough for retransmission timeouts and tail-loss probes.
    /// The event count, the stats digest (timelines included) and the
    /// incidents are pinned: a handler that pushes its follow-ups in
    /// another order, or runs the scheduler at another point, moves them.
    #[test]
    fn every_event_kind_fires_and_the_run_is_pinned() {
        use crate::fleet::fnv1a64;
        use crate::native::NativeTrapping;
        use crate::pathman::PathManagerPolicy;
        use std::collections::HashMap;

        let mut sim = Sim::new(26);
        sim.enable_containment(ContainmentConfig::default());
        let profile = PathProfileEntry {
            at: from_millis(700),
            rate: Some(2_500_000),
            loss: None,
            fwd_delay: None,
        };
        let primary = PathConfig::symmetric(from_millis(10), 1_250_000)
            .with_loss(0.02)
            .with_profile_entry(profile);
        let standby = PathConfig::symmetric(from_millis(40), 1_250_000);
        let cfg = ConnectionConfig::new(
            vec![
                SubflowConfig::new(primary),
                SubflowConfig::new(standby).starting_at(3 * SECONDS),
            ],
            SchedulerSpec::Native(Box::new(NativeTrapping::one_shot(40))),
        )
        .with_timelines();
        let conn = sim.add_connection(cfg).unwrap();
        sim.add_bulk_source(conn, 1_500_000, 0);
        sim.app_send_at(conn, from_millis(300), 20_000, 1);
        sim.add_cbr_source(
            conn,
            from_millis(500),
            from_millis(900),
            200_000,
            from_millis(50),
            2,
        );
        sim.set_register_at(conn, from_millis(400), RegId::R1, 7);
        let plan = FaultPlan {
            clauses: vec![
                FaultClause::Blackout {
                    sbf: 0,
                    from: from_millis(600),
                    until: from_millis(1_200),
                },
                FaultClause::BurstLoss {
                    sbf: 1,
                    from: from_millis(800),
                    until: from_millis(1_500),
                    p_enter_bad: 200_000,
                    p_exit_bad: 300_000,
                    loss_bad: 800_000,
                },
                FaultClause::DelayJitter {
                    sbf: 1,
                    from: from_millis(700),
                    until: from_millis(1_400),
                    amplitude: from_millis(5),
                },
                FaultClause::RwndStall {
                    from: from_millis(400),
                    until: from_millis(450),
                },
                FaultClause::Churn {
                    sbf: 1,
                    down_at: from_millis(1_600),
                    up_at: from_millis(1_800),
                },
            ],
        };
        sim.apply_fault_plan(conn, &plan);
        // Brings the standby up long before its configured start.
        let handover = PathManagerPolicy::Handover {
            primary: 0,
            standby: 1,
            rtt_threshold: from_millis(60),
            loss_delta_threshold: 3,
            recovery_ticks: 3,
        };
        sim.attach_path_manager(conn, PathManager::new(handover, from_millis(100)));

        let mut kinds = HashMap::new();
        while sim.queue.next_time().is_some_and(|t| t <= 10 * SECONDS) {
            let (time, kind) = sim.queue.pop().expect("peeked");
            *kinds.entry(std::mem::discriminant(&kind)).or_insert(0u64) += 1;
            sim.step(time, kind);
        }
        assert_eq!(kinds.len(), 17, "every one of the 17 event kinds occurred");
        let c = &sim.connections[conn];
        assert!(c.all_acked());
        assert_eq!(sim.events_processed, 8189);
        let digest = fnv1a64(c.stats.snapshot_text().as_bytes());
        assert_eq!(digest, 0x9fd7_471d_f5a1_f78d);
        let incidents: Vec<String> = sim.incidents().iter().map(|i| i.to_string()).collect();
        assert_eq!(
            incidents,
            [
                "conn 0 quarantined at t=17920000 (strike 1): trap in native-trapping: \
                 deliberate trap on call 41 [seed=26 conn=0 class=backend-trap at=17920000]",
                "conn 0 readmitted at t=268797937 (strike 1): trap in native-trapping: \
                 deliberate trap on call 41 [seed=26 conn=0 class=backend-trap at=268797937]",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "unknown connection 9")]
    fn an_unknown_connection_panics_at_the_call() {
        Sim::new(1).app_send_at(9, 0, 1400, 0);
    }

    #[test]
    #[should_panic(expected = "ConnectionConfig::mss")]
    fn a_zero_mss_is_rejected() {
        let cfg = two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)).with_mss(0);
        Sim::new(3).add_connection(cfg).unwrap();
    }

    #[test]
    fn run_until_never_moves_the_clock_back() {
        let mut sim = Sim::new(7);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)))
            .unwrap();
        sim.app_send_at(conn, 0, 200_000, 0);
        sim.run_to_completion(20 * SECONDS);
        let finished = sim.now;
        assert!(finished > from_millis(100));
        sim.run_until(from_millis(100));
        assert_eq!(sim.now, finished);
        sim.run_until(finished + SECONDS);
        assert_eq!(sim.now, finished + SECONDS);
    }

    /// A bulk source added mid-run, and a send or register write at a time
    /// that has passed, start now: no event moves the clock back.
    #[test]
    fn scheduling_in_the_past_never_moves_the_clock_back() {
        let mut sim = Sim::new(7);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)))
            .unwrap();
        sim.run_until(SECONDS);
        sim.add_bulk_source(conn, 200_000, 0);
        sim.app_send_at(conn, from_millis(500), 1400, 0);
        sim.set_register_at(conn, 0, RegId::R1, 1);
        let mut clock = sim.now;
        while sim.queue.next_time().is_some_and(|t| t <= 30 * SECONDS) {
            let (time, kind) = sim.queue.pop().expect("peeked");
            sim.step(time, kind);
            assert!(sim.now >= clock, "the clock moved back to {time}");
            clock = sim.now;
        }
        let c = &sim.connections[conn];
        assert!(c.all_acked());
        assert_eq!(c.enqueued_bytes(), 201_400);
    }

    #[test]
    #[should_panic(expected = "chunk_interval")]
    fn a_zero_cbr_chunk_interval_is_rejected() {
        let mut sim = Sim::new(3);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)))
            .unwrap();
        sim.add_cbr_source(conn, 0, SECONDS, 1_000_000, 0, 0);
    }

    #[test]
    #[should_panic(expected = "PathManager::interval")]
    fn a_zero_path_manager_interval_is_rejected() {
        use crate::pathman::PathManagerPolicy;
        let mut sim = Sim::new(3);
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)))
            .unwrap();
        sim.attach_path_manager(conn, PathManager::new(PathManagerPolicy::Static, 0));
        sim.run_to_completion(SECONDS);
    }

    /// A second supervisor would re-admit the quarantined connection as
    /// healthy, so the pending re-admission would find nothing parked and
    /// the fallback would run on as if it were the original.
    #[test]
    #[should_panic(expected = "enable_containment called twice")]
    fn enabling_containment_twice_panics_at_the_call() {
        let mut sim = Sim::new(3);
        sim.enable_containment(ContainmentConfig::default());
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::Native(Box::new(
                crate::native::NativeTrapping::new(0),
            ))))
            .unwrap();
        sim.app_send_at(conn, 0, 100_000, 0);
        sim.run_until(from_millis(1));
        assert_eq!(
            sim.connections[conn].contain_state(),
            crate::supervisor::ContainState::Quarantined
        );
        sim.enable_containment(ContainmentConfig::default());
    }

    #[test]
    #[should_panic(expected = "stall_check_interval")]
    fn a_zero_stall_check_interval_is_rejected() {
        let mut sim = Sim::new(3);
        sim.enable_containment(ContainmentConfig {
            stall_check_interval: 0,
            ..ContainmentConfig::default()
        });
        let conn = sim
            .add_connection(two_path_config(SchedulerSpec::dsl(MIN_RTT_DSL)))
            .unwrap();
        sim.app_send_at(conn, 0, 100_000, 0);
        sim.run_to_completion(10 * SECONDS);
    }
}
