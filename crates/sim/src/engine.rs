//! The discrete-event simulation engine.
//!
//! Owns the virtual clock, the event queue, and the connections. All
//! randomness lives in per-path xorshift64* streams derived from the
//! simulation seed and the `(connection, subflow)` pair (see
//! [`crate::faults`]), so every simulation is deterministic and
//! reproducible per seed — the simulator's substitute for the paper's
//! repeated real-world measurement runs — and one path's loss/jitter
//! trace never depends on how other paths' events interleave.

use crate::app::BulkState;
use crate::calendar::CalendarQueue;
use crate::config::{ConnectionConfig, SchedulerSpec};
use crate::connection::{Connection, Installed, SchedulerHandle};
use crate::faults::{ChaosRng, FaultClause, FaultPlan, LossModel};
use crate::oracle::{
    check_properties, check_quiescent, InvariantOracle, OracleViolation, PropObservation,
};
use crate::path::{Path, PathProfileEntry};
use crate::pathman::{PathManager, PmAction};
use crate::receiver::Receiver;
use crate::subflow::{Subflow, Timer};
use crate::supervisor::{
    classify_exec_error, ContainState, ContainmentConfig, FaultAction, FaultClass, IncidentReport,
    Supervisor,
};
use crate::time::SimTime;
use progmp_core::env::{PacketRef, RegId, SchedulerEnv, SubflowId, Trigger};
use progmp_core::exec::{ExecCtx, ExecScratch};
use progmp_core::{compile, subflow_available, CompileError, ExecStats, SchedulerProgram};
use std::collections::hash_map::{Entry, HashMap};
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
pub struct Sim {
    /// Current simulation time (ns).
    pub now: SimTime,
    queue: CalendarQueue<EventKind>,
    seed: u64,
    /// All connections, indexed by [`ConnId`].
    pub connections: Vec<Connection>,
    bulk_sources: Vec<BulkState>,
    path_managers: Vec<PathManager>,
    /// Total events processed (engine health metric).
    pub events_processed: u64,
    oracle: Option<InvariantOracle>,
    supervisor: Option<Supervisor>,
    /// Every distinct [`SchedulerSpec::Dsl`] source this simulator was
    /// handed, compiled once. All of them compile under the default
    /// options, so the source text is the whole key.
    programs: HashMap<String, SchedulerProgram>,
    /// Buffers every scheduler execution of this simulator reuses: one
    /// set per `Sim` (per fleet shard), whichever connection runs, so a
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
            bulk_sources: Vec::new(),
            path_managers: Vec::new(),
            events_processed: 0,
            oracle: None,
            supervisor: None,
            programs: HashMap::new(),
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
    pub fn enable_containment(&mut self, cfg: ContainmentConfig) {
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

    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.queue.push(time, kind);
    }

    /// The program for `source`: compiled on first sight, shared from
    /// then on. A source that fails to compile leaves no entry, so every
    /// attempt reports the error afresh.
    fn load(&mut self, source: String) -> Result<SchedulerProgram, CompileError> {
        Ok(match self.programs.entry(source) {
            Entry::Occupied(e) => e.get().clone(),
            Entry::Vacant(e) => {
                let program = compile(e.key())?;
                e.insert(program).clone()
            }
        })
    }

    /// Number of distinct programs compiled from [`SchedulerSpec::Dsl`]
    /// sources so far.
    pub fn loaded_programs(&self) -> usize {
        self.programs.len()
    }

    /// Creates a connection from `cfg`. Fails if a DSL scheduler does not
    /// compile.
    ///
    /// The connection's per-path chaos streams are keyed by its local
    /// [`ConnId`]; use [`Sim::add_connection_with_identity`] when the
    /// connection is one shard's slice of a larger fleet and its random
    /// streams must not depend on how the fleet was partitioned.
    pub fn add_connection(&mut self, cfg: ConnectionConfig) -> Result<ConnId, CompileError> {
        let identity = self.connections.len() as u64;
        self.add_connection_with_identity(cfg, identity)
    }

    /// Creates a connection whose per-path random streams are keyed by
    /// `identity` instead of the local connection index. A fleet shard
    /// passes the *global* connection index here, which makes every
    /// loss/jitter draw a pure function of `(sim seed, identity,
    /// subflow)` — bit-identical no matter how many shards the fleet is
    /// split into.
    pub fn add_connection_with_identity(
        &mut self,
        cfg: ConnectionConfig,
        identity: u64,
    ) -> Result<ConnId, CompileError> {
        let id = self.connections.len();
        let handle = match cfg.scheduler {
            SchedulerSpec::Dsl { source, backend } => {
                SchedulerHandle::Dsl(self.load(source)?.instantiate(backend))
            }
            SchedulerSpec::Program { program, backend } => {
                SchedulerHandle::Dsl(program.instantiate(backend))
            }
            SchedulerSpec::Native(n) => SchedulerHandle::Native(n),
        };
        // What stays per connection even when the program is shared.
        // Without an explicit budget, the one `Installed::new` picked
        // stands.
        let mut scheduler = Installed::new(handle);
        if let Some(budget) = cfg.step_budget {
            scheduler.step_budget = budget;
        }
        scheduler.cert_override = cfg.cert_override.map(Box::new);
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
    /// path after connection creation. While the supervisor holds `conn`
    /// on the fallback (quarantined or pinned), `scheduler` replaces what
    /// is *parked* — what re-admission will restore — never what is
    /// running, so an application cannot take a connection out of
    /// containment.
    ///
    /// # Panics
    ///
    /// If `conn` is not a connection of this simulation.
    pub fn set_scheduler(&mut self, conn: ConnId, scheduler: Installed) {
        self.connections[conn].set_scheduler(scheduler);
    }

    /// Schedules `bytes` of application data with property `prop` at `at`.
    pub fn app_send_at(&mut self, conn: ConnId, at: SimTime, bytes: u64, prop: u32) {
        self.schedule(at, EventKind::AppData { conn, bytes, prop });
    }

    /// Schedules a register write (the extended API's `setRegister`) at `at`.
    pub fn set_register_at(&mut self, conn: ConnId, at: SimTime, reg: RegId, value: i64) {
        self.schedule(at, EventKind::SetRegister { conn, reg, value });
    }

    /// Schedules a scheduler trigger (e.g. a timer-driven probe) at `at`.
    pub fn trigger_at(&mut self, conn: ConnId, at: SimTime, trigger: Trigger) {
        self.schedule(at, EventKind::Trigger { conn, trigger });
    }

    /// Tears a subflow down at `at` (connection break / handover).
    pub fn subflow_down_at(&mut self, conn: ConnId, sbf: u32, at: SimTime) {
        self.schedule(at, EventKind::SubflowDown { conn, sbf });
    }

    /// (Re-)establishes a subflow at `at`.
    pub fn subflow_up_at(&mut self, conn: ConnId, sbf: u32, at: SimTime) {
        self.schedule(at, EventKind::SubflowUp { conn, sbf });
    }

    /// Expands a [`FaultPlan`] into scheduled events against `conn`:
    /// each clause installs its fault at the window start and restores
    /// the path's baseline behaviour at the window end. Composable —
    /// plans and manual event scheduling mix freely.
    pub fn apply_fault_plan(&mut self, conn: ConnId, plan: &FaultPlan) {
        for clause in &plan.clauses {
            match *clause {
                FaultClause::Blackout { sbf, from, until } => {
                    self.schedule(
                        from,
                        EventKind::FaultLoss {
                            conn,
                            sbf,
                            model: Some(LossModel::blackout()),
                        },
                    );
                    self.schedule(
                        until,
                        EventKind::FaultLoss {
                            conn,
                            sbf,
                            model: None,
                        },
                    );
                }
                FaultClause::BurstLoss {
                    sbf,
                    from,
                    until,
                    p_enter_bad,
                    p_exit_bad,
                    loss_bad,
                } => {
                    self.schedule(
                        from,
                        EventKind::FaultLoss {
                            conn,
                            sbf,
                            model: Some(LossModel::GilbertElliott {
                                p_enter_bad,
                                p_exit_bad,
                                loss_good: 0,
                                loss_bad,
                                bad: false,
                            }),
                        },
                    );
                    self.schedule(
                        until,
                        EventKind::FaultLoss {
                            conn,
                            sbf,
                            model: None,
                        },
                    );
                }
                FaultClause::DelayJitter {
                    sbf,
                    from,
                    until,
                    amplitude,
                } => {
                    self.schedule(
                        from,
                        EventKind::FaultJitter {
                            conn,
                            sbf,
                            amplitude: Some(amplitude),
                        },
                    );
                    self.schedule(
                        until,
                        EventKind::FaultJitter {
                            conn,
                            sbf,
                            amplitude: None,
                        },
                    );
                }
                FaultClause::RwndStall { from, until } => {
                    self.schedule(
                        from,
                        EventKind::RwndStall {
                            conn,
                            stalled: true,
                        },
                    );
                    self.schedule(
                        until,
                        EventKind::RwndStall {
                            conn,
                            stalled: false,
                        },
                    );
                }
                FaultClause::Churn {
                    sbf,
                    down_at,
                    up_at,
                } => {
                    self.subflow_down_at(conn, sbf, down_at);
                    self.subflow_up_at(conn, sbf, up_at);
                }
            }
        }
    }

    /// Attaches a path manager to `conn`; its policy is evaluated every
    /// `manager.interval` starting now. Returns the manager index.
    pub fn attach_path_manager(&mut self, conn: ConnId, manager: PathManager) -> usize {
        let idx = self.path_managers.len();
        let first = self.now + manager.interval;
        self.path_managers.push(manager);
        self.schedule(first, EventKind::PmTick { conn, manager: idx });
        idx
    }

    /// Adds a backlogged bulk sender that keeps `Q` topped up (an
    /// iPerf-style source). Returns the source index.
    pub fn add_bulk_source(&mut self, conn: ConnId, total_bytes: u64, prop: u32) -> usize {
        let idx = self.bulk_sources.len();
        self.bulk_sources.push(BulkState::new(total_bytes, prop));
        self.schedule(0, EventKind::Refill { conn, source: idx });
        idx
    }

    /// Adds a constant-bitrate source: every `chunk_interval`, enqueues
    /// `rate * chunk_interval` bytes, from `start` until `end`.
    pub fn add_cbr_source(
        &mut self,
        conn: ConnId,
        start: SimTime,
        end: SimTime,
        rate_bytes_per_sec: u64,
        chunk_interval: SimTime,
        prop: u32,
    ) {
        let mut t = start;
        while t < end {
            let bytes = rate_bytes_per_sec.saturating_mul(chunk_interval) / crate::time::SECONDS;
            if bytes > 0 {
                self.app_send_at(conn, t, bytes, prop);
            }
            t += chunk_interval;
        }
    }

    /// Pops the next event, stamps its time on the simulator and on the
    /// one connection it names, dispatches it, and has the oracle re-check
    /// that connection. `dispatch` is called from this one place on
    /// purpose: an early return through a second call for the unarmed
    /// case measured 5 % slower on the unarmed `fleet_bulk` benchmark
    /// workload.
    fn step(&mut self) {
        let (time, kind) = self.queue.pop().expect("caller peeked");
        self.now = time;
        self.events_processed += 1;
        let conn = kind.conn();
        self.connections[conn].now = time;
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.log_event(time, &kind);
        }
        self.dispatch(kind);
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.check(time, &self.connections[conn]);
        }
    }

    /// Steps through every event due by `horizon`.
    fn run_events(&mut self, horizon: SimTime) {
        while self.queue.next_time().is_some_and(|t| t <= horizon) {
            self.step();
        }
    }

    /// Re-checks every connection. Runs whenever a run call stops, so
    /// whatever the caller did since the last one through the public
    /// [`Sim::connections`] or [`Sim::run_scheduler`] — where no event
    /// names the connection touched — is still checked.
    fn oracle_sweep(&mut self) {
        if let Some(oracle) = self.oracle.as_mut() {
            for conn in &self.connections {
                oracle.check(self.now, conn);
            }
        }
    }

    /// Runs all events up to and including `until`, then sets the clock
    /// to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_events(until);
        self.now = until;
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
                    if self.scheduler_fault(conn, class, None, vec![v]) {
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

    /// Routes the event to its handler; handles nothing itself.
    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::AppData { conn, bytes, prop } => self.handle_data(conn, bytes, prop),
            EventKind::SetRegister { conn, reg, value } => {
                self.handle_set_register(conn, reg, value)
            }
            EventKind::Arrival {
                conn,
                sbf,
                sbf_seq,
                data_seq,
                pkt,
                size,
            } => self.handle_arrival(conn, sbf, sbf_seq, data_seq, pkt, size),
            EventKind::Ack {
                conn,
                sbf,
                sbf_ack,
                data_ack,
                rwnd,
            } => self.handle_ack(conn, sbf, sbf_ack, data_ack, rwnd),
            EventKind::Rto { conn, sbf, token } => self.handle_rto(conn, sbf, token),
            EventKind::Tlp { conn, sbf, token } => self.handle_tlp(conn, sbf, token),
            EventKind::SubflowUp { conn, sbf } => self.handle_subflow(conn, sbf, true),
            EventKind::SubflowDown { conn, sbf } => self.handle_subflow(conn, sbf, false),
            EventKind::PathChange { conn, sbf, entry } => {
                self.handle_path(conn, sbf, |p| p.apply_profile(&entry))
            }
            EventKind::Refill { conn, source } => self.handle_refill(conn, source),
            EventKind::PmTick { conn, manager } => self.handle_pm_tick(conn, manager),
            EventKind::Trigger { conn, .. } => self.run_scheduler(conn),
            EventKind::FaultLoss { conn, sbf, model } => {
                self.handle_path(conn, sbf, |p| p.set_fault_loss(model))
            }
            EventKind::FaultJitter {
                conn,
                sbf,
                amplitude,
            } => self.handle_path(conn, sbf, |p| p.set_jitter(amplitude)),
            EventKind::RwndStall { conn, stalled } => self.handle_rwnd_stall(conn, stalled),
            EventKind::Readmit { conn } => self.handle_readmit(conn),
            EventKind::StallCheck { conn } => self.handle_stall_check(conn),
        }
    }

    /// New application data: into `Q`, the stall watchdog armed when
    /// containment is on (idempotent while armed), the scheduler run.
    fn handle_data(&mut self, conn: ConnId, bytes: u64, prop: u32) {
        let now = self.now;
        let c = &mut self.connections[conn];
        c.enqueue_data(bytes, prop, now);
        if let (Some(sup), Some(record)) = (&self.supervisor, c.contain.as_mut()) {
            if record.arm_watchdog(c.data_acked) {
                let at = now + sup.stall_check_interval();
                self.schedule(at, EventKind::StallCheck { conn });
            }
        }
        self.run_scheduler(conn);
    }

    fn handle_refill(&mut self, conn: ConnId, source: usize) {
        let s = &mut self.bulk_sources[source];
        if s.remaining == 0 {
            return;
        }
        let q_bytes = self.connections[conn].q_bytes();
        let add = if q_bytes < s.low_watermark {
            (s.low_watermark * 2 - q_bytes).min(s.remaining)
        } else {
            0
        };
        s.remaining -= add;
        let (prop, remaining, interval) = (s.prop, s.remaining, s.interval);
        if add > 0 {
            self.handle_data(conn, add, prop);
        }
        if remaining > 0 {
            self.schedule(self.now + interval, EventKind::Refill { conn, source });
        }
    }

    fn handle_set_register(&mut self, conn: ConnId, reg: RegId, value: i64) {
        self.connections[conn].set_register_direct(reg, value);
        self.run_scheduler(conn);
    }

    /// A subflow comes up or goes down. Like every event that names a
    /// subflow the connection does not have, one for an unknown index is
    /// ignored.
    fn handle_subflow(&mut self, conn: ConnId, sbf: u32, up: bool) {
        if self.connections[conn].set_subflow_established(sbf as usize, up) {
            self.run_scheduler(conn);
        }
    }

    /// A change to the path under a subflow: a profile entry, or a fault
    /// window opening or closing.
    fn handle_path(&mut self, conn: ConnId, sbf: u32, change: impl FnOnce(&mut Path)) {
        if let Some(s) = self.connections[conn].subflows.get_mut(sbf as usize) {
            change(&mut s.path);
        }
    }

    /// The receiving application pauses (or resumes) its reads, as far
    /// as the *sender* sees it: the advertised window collapses to zero
    /// at once (the zero-window advertisement) and reopens with a window
    /// update when the stall clears, at which point the scheduler gets a
    /// chance to resume.
    fn handle_rwnd_stall(&mut self, conn: ConnId, stalled: bool) {
        let c = &mut self.connections[conn];
        c.receiver.set_stalled(stalled);
        c.adv_rwnd = c.receiver.rwnd();
        if !stalled {
            self.run_scheduler(conn);
        }
    }

    fn handle_arrival(
        &mut self,
        conn: ConnId,
        sbf: u32,
        sbf_seq: u64,
        data_seq: u64,
        pkt: PacketRef,
        size: u32,
    ) {
        let now = self.now;
        let c = &mut self.connections[conn];
        let res = c
            .receiver
            .on_arrival(sbf as usize, sbf_seq, data_seq, pkt, size);
        if res.delivered_bytes > 0 {
            c.stats.delivered_bytes += res.delivered_bytes;
            if c.record_timelines {
                c.stats
                    .delivery_timeline
                    .push((now, c.receiver.delivered_total));
            }
        }
        let ack = EventKind::Ack {
            conn,
            sbf,
            sbf_ack: res.sbf_ack,
            data_ack: res.data_ack,
            rwnd: c.receiver.rwnd(),
        };
        let at = now + c.subflows[sbf as usize].path.rev_delay;
        self.schedule(at, ack);
    }

    fn handle_ack(&mut self, conn: ConnId, sbf: u32, sbf_ack: u64, data_ack: u64, rwnd: u64) {
        let now = self.now;
        let out = self.connections[conn].handle_ack(sbf as usize, sbf_ack, data_ack, rwnd, now);
        for &(pkt, seq) in &out.auto_retransmit {
            self.transmit(conn, sbf as usize, pkt, Some(seq));
        }
        let tlp = self.connections[conn].subflows[sbf as usize].rearm_tlp(now);
        self.schedule_timers(conn, sbf, out.rearm_rto, tlp);
        self.run_scheduler(conn);
    }

    fn handle_rto(&mut self, conn: ConnId, sbf: u32, token: u64) {
        let now = self.now;
        let c = &mut self.connections[conn];
        if !c.subflows[sbf as usize].rto_due(token) {
            return;
        }
        let out = c.handle_rto(sbf as usize, now);
        if out.disarm_rto {
            return;
        }
        for &(pkt, seq) in &out.auto_retransmit {
            self.transmit(conn, sbf as usize, pkt, Some(seq));
        }
        self.schedule_timers(conn, sbf, out.rearm_rto, None);
        self.run_scheduler(conn);
    }

    /// The tail-loss probe: retransmits the oldest unacked segment on its
    /// subflow and flags it loss-suspected at the meta level.
    fn handle_tlp(&mut self, conn: ConnId, sbf: u32, token: u64) {
        let now = self.now;
        let Some(((pkt, seq), next)) =
            self.connections[conn].subflows[sbf as usize].fire_tlp(token, now)
        else {
            return;
        };
        let reinjected = self.connections[conn].reinject(pkt);
        self.transmit(conn, sbf as usize, pkt, Some(seq));
        self.schedule_timers(conn, sbf, None, Some(next));
        if reinjected {
            self.run_scheduler(conn);
        }
    }

    fn handle_pm_tick(&mut self, conn: ConnId, manager: usize) {
        let actions = self.path_managers[manager].tick(&self.connections[conn]);
        let mut register_changed = false;
        for action in actions {
            match action {
                PmAction::SubflowUp(i) => self.handle_subflow(conn, i, true),
                PmAction::SubflowDown(i) => self.handle_subflow(conn, i, false),
                PmAction::SetRegister(reg, value) => {
                    self.connections[conn].set_register_direct(reg, value);
                    register_changed = true;
                }
            }
        }
        if register_changed {
            self.run_scheduler(conn);
        }
        let at = self.now + self.path_managers[manager].interval;
        self.schedule(at, EventKind::PmTick { conn, manager });
    }

    /// Executes the scheduler of `conn` to quiescence (the paper's
    /// compressed-execution driver): rounds until one pushes nothing,
    /// flushing the requested transmissions after each so the next
    /// observes fresh state. A fault ends the turn and is routed once the
    /// scheduler is back in place; if that put the fallback in charge, it
    /// runs at once so the event that found the fault still gets
    /// scheduled (bounded: a fault while quarantined is recorded, never
    /// re-swapped).
    pub fn run_scheduler(&mut self, conn: ConnId) {
        // Callers outside the event loop get no stamp from `step`.
        self.connections[conn].now = self.now;
        let Some(mut scheduler) = self.connections[conn].installed.take() else {
            return;
        };
        let mut faults = Vec::new();
        for _ in 0..self.connections[conn].max_sched_rounds {
            let round = self.run_round(conn, &mut scheduler);
            let mut pending = std::mem::take(&mut self.tx_scratch);
            for (sbf, pkt) in pending.drain(..) {
                self.transmit(conn, sbf.0 as usize, pkt, None);
            }
            self.tx_scratch = pending;
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
            if self.scheduler_fault(conn, fault.class, fault.location, fault.violations) {
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
                location: fault_location(&scheduler.handle, err),
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
            location: None,
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
        location: Option<String>,
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
        match sup.on_fault(now, &mut self.connections[conn], class, location) {
            FaultAction::Recorded => false,
            FaultAction::Pin => true,
            FaultAction::Quarantine { until } => {
                self.schedule(until, EventKind::Readmit { conn });
                true
            }
        }
    }

    /// One stall-watchdog tick: faults the scheduler with
    /// [`FaultClass::ProgressStall`] when a full period passed with
    /// schedulable work, an available subflow, an open receive window,
    /// and zero forward progress. All inputs are per-connection state and
    /// the tick times are multiples of the period from the connection's
    /// own first-data event, so the decision is identical no matter how a
    /// fleet is sharded.
    fn handle_stall_check(&mut self, conn: ConnId) {
        use progmp_core::env::QueueKind;
        let c = &mut self.connections[conn];
        let all_acked = c.all_acked();
        let (Some(sup), Some(record)) = (&self.supervisor, c.contain.as_mut()) else {
            return;
        };
        if all_acked {
            record.disarm_watchdog();
            return;
        }
        let progressed = record.watchdog_progressed(c.data_acked);
        let interval = sup.stall_check_interval();
        let state = record.state;
        let c = &self.connections[conn];
        let live = c.subflows.iter().any(|s| s.established);
        // Schedulable work: data reachable through Q or RQ (the fallback
        // pops RQ even when the original program does not).
        let env: &dyn SchedulerEnv = c;
        let work = !env.queue(QueueKind::SendQueue).is_empty()
            || !env.queue(QueueKind::Reinject).is_empty();
        // An execution right now could actually push: the
        // work-conservation availability precondition. Without this, a
        // path blackout or an exhausted congestion window would be blamed
        // on the scheduler.
        let avail = env.subflows().iter().any(|&s| subflow_available(env, s));
        let stalled = !progressed
            && live
            && work
            && avail
            && c.adv_rwnd > 0
            && c.stats.scheduler_drops == 0
            && matches!(state, ContainState::Healthy | ContainState::Probation);
        if stalled && self.scheduler_fault(conn, FaultClass::ProgressStall, None, Vec::new()) {
            self.run_scheduler(conn);
        }
        self.schedule(self.now + interval, EventKind::StallCheck { conn });
    }

    /// Handles the supervisor's re-admission timer: restores the parked
    /// scheduler on probation and gives it an immediate execution.
    fn handle_readmit(&mut self, conn: ConnId) {
        let now = self.now;
        let Some(sup) = self.supervisor.as_mut() else {
            return;
        };
        if sup.readmit(now, &mut self.connections[conn]) {
            self.run_scheduler(conn);
        }
    }

    /// Transmits `pkt` on subflow `sbf_idx` of `conn` and schedules what
    /// follows from it. `reuse_seq` marks a TCP-level retransmission of
    /// an existing subflow sequence number.
    fn transmit(&mut self, conn: ConnId, sbf_idx: usize, pkt: PacketRef, reuse_seq: Option<u64>) {
        let now = self.now;
        let Some(tx) = self.connections[conn].transmit(sbf_idx, pkt, now, reuse_seq) else {
            return;
        };
        let sbf = sbf_idx as u32;
        if let Some((at, sbf_seq, data_seq, size)) = tx.arrival {
            let arrival = EventKind::Arrival {
                conn,
                sbf,
                sbf_seq,
                data_seq,
                pkt,
                size,
            };
            self.schedule(at, arrival);
        }
        self.schedule_timers(conn, sbf, tx.rto, tx.tlp);
        // Re-invoke the scheduler when the egress queue drains (the
        // Linux TSQ tasklet's role): a TSQ-throttled subflow becomes
        // schedulable again at the packet's departure time.
        if let Some(departs) = tx.departs.filter(|&departs| departs > now) {
            let trigger = Trigger::Timer;
            self.schedule(departs, EventKind::Trigger { conn, trigger });
        }
    }

    /// Schedules the timers a subflow armed, the retransmission timer
    /// first.
    fn schedule_timers(&mut self, conn: ConnId, sbf: u32, rto: Option<Timer>, tlp: Option<Timer>) {
        if let Some((at, token)) = rto {
            self.schedule(at, EventKind::Rto { conn, sbf, token });
        }
        if let Some((at, token)) = tlp {
            self.schedule(at, EventKind::Tlp { conn, sbf, token });
        }
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
    location: Option<String>,
    /// What the oracle found; empty when the execution aborted.
    violations: Vec<OracleViolation>,
}

/// Source location (`line:col`) of a backend fault, when attributable:
/// a `MalformedBytecode` fault carries its program counter, which the
/// compiled program's debug table maps back to the DSL span.
fn fault_location(handle: &SchedulerHandle, err: &progmp_core::ExecError) -> Option<String> {
    let SchedulerHandle::Dsl(inst) = handle else {
        return None;
    };
    let progmp_core::ExecError::MalformedBytecode { pc, .. } = err else {
        return None;
    };
    let pos = inst.program().debug_table().pos(*pc);
    (pos.line > 0).then(|| format!("{}:{}", pos.line, pos.col))
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
}
