//! The application-facing ProgMP API, mirroring the paper's Python
//! library (Fig. 8) and extended socket API (§3.2):
//!
//! * **Choosing a scheduler** — load named scheduler specifications once,
//!   reuse them across connections (avoiding recompilation), and bind a
//!   scheduler per connection.
//! * **Setting registers** — signal scheduling intents (target
//!   throughput, end-of-flow, handover) to the in-kernel scheduler.
//! * **Packet properties** — annotate application data for differentiated
//!   per-packet handling.
//!
//! In the paper these operations travel through `sockopts` into the
//! kernel runtime; here they operate on a [`Sim`] connection.

use mptcp_sim::{ConnId, SchedulerSpec, Sim};
use progmp_core::env::{RegId, Trigger};
use progmp_core::{compile_named, Backend, CompileError, SchedulerProgram};
use std::collections::HashMap;
use std::fmt;

/// Errors of the application API.
#[derive(Debug)]
pub enum ApiError {
    /// The scheduler source failed to compile.
    Compile(CompileError),
    /// No scheduler with this name has been loaded.
    UnknownScheduler(String),
    /// The connection id does not exist.
    UnknownConnection(ConnId),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Compile(e) => write!(f, "scheduler loading error: {e}"),
            ApiError::UnknownScheduler(n) => write!(f, "unknown scheduler `{n}`"),
            ApiError::UnknownConnection(c) => write!(f, "unknown connection {c}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<CompileError> for ApiError {
    fn from(e: CompileError) -> Self {
        ApiError::Compile(e)
    }
}

/// A connection's scheduler execution counters, as
/// [`ProgMp::scheduler_stats`] reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Completed executions.
    pub executions: u64,
    /// Total steps across all completed executions.
    pub steps: u64,
    /// Total `DROP` actions applied.
    pub drops: u64,
    /// Executions that ended in an error (their effects were discarded).
    pub errors: u64,
}

/// The ProgMP application library: a registry of loaded schedulers plus
/// per-connection control operations.
#[derive(Default)]
pub struct ProgMp {
    registry: HashMap<String, SchedulerProgram>,
}

impl ProgMp {
    /// Creates an empty API handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads (compiles and verifies) a scheduler specification under
    /// `name`. Reloading the same name replaces the program; running
    /// connections keep their current instance.
    ///
    /// # Errors
    ///
    /// [`ApiError::Compile`] when the specification is rejected by any
    /// compilation stage.
    pub fn load_scheduler(&mut self, name: &str, source: &str) -> Result<(), ApiError> {
        let program = compile_named(Some(name), source)?;
        self.registry.insert(name.to_string(), program);
        Ok(())
    }

    /// Whether `name` is loaded.
    pub fn is_loaded(&self, name: &str) -> bool {
        self.registry.contains_key(name)
    }

    /// Names of loaded schedulers.
    pub fn loaded(&self) -> Vec<&str> {
        self.registry.keys().map(String::as_str).collect()
    }

    /// Total resident bytes of all loaded scheduler programs (the §4.3
    /// memory accounting).
    pub fn loaded_bytes(&self) -> usize {
        self.registry.values().map(|p| p.size_bytes()).sum()
    }

    /// The loaded program `name`, e.g. to bind it at connection creation
    /// through [`mptcp_sim::SchedulerSpec::program`].
    pub fn program(&self, name: &str) -> Option<&SchedulerProgram> {
        self.registry.get(name)
    }

    /// Binds the loaded scheduler `name` to `conn`, instantiated on
    /// `backend`. The paper discourages switching schedulers mid-stream
    /// (§3.2); this API allows it but the new instance starts from the
    /// connection's current register state. The program's property
    /// certificate, `RQ` capability and certified step budget replace the
    /// previous scheduler's along with the instance. On a connection its
    /// containment supervisor holds on the fallback, the swap takes
    /// effect at re-admission ([`Sim::set_scheduler`]).
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownScheduler`] / [`ApiError::UnknownConnection`].
    pub fn set_scheduler(
        &self,
        sim: &mut Sim,
        conn: ConnId,
        name: &str,
        backend: Backend,
    ) -> Result<(), ApiError> {
        let program = self
            .registry
            .get(name)
            .ok_or_else(|| ApiError::UnknownScheduler(name.to_string()))?;
        if conn >= sim.connections.len() {
            return Err(ApiError::UnknownConnection(conn));
        }
        sim.set_scheduler(conn, SchedulerSpec::program(program, backend))?;
        Ok(())
    }

    /// Writes scheduler register `reg` of `conn` and triggers a scheduler
    /// execution (the `RegisterChanged` event of the calling model).
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownConnection`].
    pub fn set_register(
        &self,
        sim: &mut Sim,
        conn: ConnId,
        reg: RegId,
        value: i64,
    ) -> Result<(), ApiError> {
        let connection = sim
            .connections
            .get_mut(conn)
            .ok_or(ApiError::UnknownConnection(conn))?;
        connection.set_register_direct(reg, value);
        let now = sim.now;
        sim.trigger_at(conn, now, Trigger::RegisterChanged);
        Ok(())
    }

    /// Reads scheduler register `reg` of `conn`.
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownConnection`].
    pub fn register(&self, sim: &Sim, conn: ConnId, reg: RegId) -> Result<i64, ApiError> {
        sim.connections
            .get(conn)
            .map(|c| c.register_direct(reg))
            .ok_or(ApiError::UnknownConnection(conn))
    }

    /// Sends application data annotated with packet property `prop`
    /// (per-packet scheduling intents, §3.2) at simulation time `at`.
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownConnection`], with nothing scheduled.
    pub fn send_with_property(
        &self,
        sim: &mut Sim,
        conn: ConnId,
        at: u64,
        bytes: u64,
        prop: u32,
    ) -> Result<(), ApiError> {
        if conn >= sim.connections.len() {
            return Err(ApiError::UnknownConnection(conn));
        }
        sim.app_send_at(conn, at, bytes, prop);
        Ok(())
    }

    /// Proc-style introspection: the scheduler execution counters of
    /// `conn`, read from the connection's [`mptcp_sim::ConnStats`] — their
    /// only owner. They are cumulative per connection: a
    /// [`ProgMp::set_scheduler`] swap or a quarantine and re-admission
    /// replaces the scheduler, not the counters. `None` for an unknown
    /// connection.
    pub fn scheduler_stats(&self, sim: &Sim, conn: ConnId) -> Option<SchedulerStats> {
        let stats = &sim.connections.get(conn)?.stats;
        Some(SchedulerStats {
            executions: stats.scheduler_executions,
            steps: stats.scheduler_steps,
            drops: stats.scheduler_drops,
            errors: stats.scheduler_errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_sim::time::{from_millis, SECONDS};
    use mptcp_sim::{ConnectionConfig, PathConfig, SubflowConfig};

    fn sim_with_conn() -> (Sim, ConnId) {
        sim_with(SchedulerSpec::dsl(progmp_schedulers::DEFAULT_MIN_RTT))
    }

    fn sim_with(scheduler: SchedulerSpec) -> (Sim, ConnId) {
        let mut sim = Sim::new(1);
        let conn = sim
            .add_connection(ConnectionConfig::new(
                vec![
                    SubflowConfig::new(PathConfig::symmetric(from_millis(10), 1_250_000)),
                    SubflowConfig::new(PathConfig::symmetric(from_millis(40), 1_250_000)),
                ],
                scheduler,
            ))
            .unwrap();
        (sim, conn)
    }

    #[test]
    fn load_and_bind_scheduler() {
        let mut api = ProgMp::new();
        api.load_scheduler("minRtt", progmp_schedulers::MIN_RTT_SIMPLE)
            .unwrap();
        assert!(api.is_loaded("minRtt"));
        assert!(api.loaded_bytes() > 0);
        let (mut sim, conn) = sim_with_conn();
        api.set_scheduler(&mut sim, conn, "minRtt", Backend::Vm)
            .unwrap();
        sim.app_send_at(conn, 0, 10_000, 0);
        sim.run_to_completion(5 * SECONDS);
        assert!(sim.connections[conn].all_acked());
        let stats = api.scheduler_stats(&sim, conn).unwrap();
        assert!(stats.executions > 0);
    }

    #[test]
    fn scheduler_stats_are_the_connections_counters() {
        let mut api = ProgMp::new();
        api.load_scheduler("minRtt", progmp_schedulers::DEFAULT_MIN_RTT)
            .unwrap();
        let (mut sim, conn) = sim_with_conn();
        api.set_scheduler(&mut sim, conn, "minRtt", Backend::Vm)
            .unwrap();
        sim.app_send_at(conn, 0, 100_000, 0);
        sim.run_to_completion(5 * SECONDS);
        let c = &sim.connections[conn];
        assert!(c.all_acked());
        let stats = api.scheduler_stats(&sim, conn).unwrap();
        assert_eq!(stats.executions, c.stats.scheduler_executions);
        assert_eq!(stats.steps, c.stats.scheduler_steps);
        assert_eq!(stats.drops, c.stats.scheduler_drops);
        assert_eq!(stats.errors, c.stats.scheduler_errors);
        assert!(stats.executions > 0 && stats.steps > 0, "{stats:?}");
        assert!(api.scheduler_stats(&sim, conn + 1).is_none());
    }

    #[test]
    fn loading_error_is_reported() {
        let mut api = ProgMp::new();
        let err = api.load_scheduler("bad", "VAR x = ;").unwrap_err();
        assert!(matches!(err, ApiError::Compile(_)));
        assert!(err.to_string().contains("scheduler loading error"));
    }

    #[test]
    fn unknown_scheduler_and_connection() {
        let api = ProgMp::new();
        let (mut sim, conn) = sim_with_conn();
        assert!(matches!(
            api.set_scheduler(&mut sim, conn, "nope", Backend::Vm),
            Err(ApiError::UnknownScheduler(_))
        ));
        assert!(matches!(
            api.set_register(&mut sim, 99, RegId::R1, 1),
            Err(ApiError::UnknownConnection(99))
        ));
    }

    #[test]
    fn sending_on_an_unknown_connection_schedules_nothing() {
        let api = ProgMp::new();
        let (mut sim, conn) = sim_with_conn();
        assert!(matches!(
            api.send_with_property(&mut sim, conn + 1, 0, 1400, 1),
            Err(ApiError::UnknownConnection(c)) if c == conn + 1
        ));
        sim.run_to_completion(SECONDS);
        assert_eq!(sim.events_processed, 0);
    }

    #[test]
    fn set_register_triggers_scheduler() {
        let mut api = ProgMp::new();
        api.load_scheduler("counter", "SET(R2, R2 + 1);").unwrap();
        let (mut sim, conn) = sim_with_conn();
        api.set_scheduler(&mut sim, conn, "counter", Backend::Interpreter)
            .unwrap();
        api.set_register(&mut sim, conn, RegId::R1, 5).unwrap();
        sim.run_until(SECONDS);
        assert_eq!(api.register(&sim, conn, RegId::R1).unwrap(), 5);
        assert!(api.register(&sim, conn, RegId::R2).unwrap() >= 1);
    }

    #[test]
    fn scheduler_swap_mid_stream() {
        // The API allows replacing a connection's scheduler (the paper
        // discourages it but supports it); registers survive the swap.
        let mut api = ProgMp::new();
        api.load_scheduler("a", "SET(R1, R1 + 1);").unwrap();
        api.load_scheduler("b", progmp_schedulers::DEFAULT_MIN_RTT)
            .unwrap();
        let (mut sim, conn) = sim_with_conn();
        api.set_scheduler(&mut sim, conn, "a", Backend::Vm).unwrap();
        api.set_register(&mut sim, conn, RegId::R5, 77).unwrap();
        sim.run_until(from_millis(10));
        api.set_scheduler(&mut sim, conn, "b", Backend::Aot)
            .unwrap();
        sim.app_send_at(conn, sim.now, 10_000, 0);
        sim.run_to_completion(5 * SECONDS);
        assert!(sim.connections[conn].all_acked());
        assert_eq!(api.register(&sim, conn, RegId::R5).unwrap(), 77);
    }

    #[test]
    fn swap_rearms_the_new_programs_certificate() {
        // `everyPath` pushes each packet on every subflow in one upcall,
        // which the certificate of `default` (one copy per packet)
        // forbids, and `roundRobin` skips a turn where the certificate of
        // `everyPath` proves a push: had a swap left the previous
        // certificate armed, the oracle would find a breach and the
        // supervisor would quarantine a perfectly good scheduler.
        const EVERY_PATH: &str = "
            IF (!Q.EMPTY) {
                VAR skb = Q.POP();
                FOREACH (VAR sbf IN SUBFLOWS) { sbf.PUSH(skb); }
            }";
        let mut api = ProgMp::new();
        api.load_scheduler("default", progmp_schedulers::DEFAULT_MIN_RTT)
            .unwrap();
        api.load_scheduler("redundant", progmp_schedulers::REDUNDANT)
            .unwrap();
        api.load_scheduler("everyPath", EVERY_PATH).unwrap();
        api.load_scheduler("roundRobin", progmp_schedulers::ROUND_ROBIN)
            .unwrap();
        // The certificate the oracle arms is the running program's own,
        // the very one the registry holds: on creation and on each swap.
        let armed = |c: &mptcp_sim::Connection, name: &str| {
            let program = api.program(name).unwrap();
            let running = c.program().unwrap();
            assert!(running.ptr_eq(program), "{name} runs");
            let cert = running.property_certificate();
            assert!(std::ptr::eq(cert, program.property_certificate()));
            assert_eq!(c.step_budget(), Some(program.certified_step_bound()));
        };
        let default = api.program("default").unwrap();
        let (mut sim, conn) = sim_with(SchedulerSpec::program(default, Backend::Vm));
        armed(&sim.connections[conn], "default");
        sim.enable_containment(mptcp_sim::ContainmentConfig::default());
        sim.enable_oracle("swap", true);
        sim.app_send_at(conn, 0, 100_000, 0);
        sim.run_until(from_millis(30));
        for name in ["redundant", "everyPath", "roundRobin"] {
            api.set_scheduler(&mut sim, conn, name, Backend::Vm)
                .unwrap();
            armed(&sim.connections[conn], name);
            sim.app_send_at(conn, sim.now, 100_000, 0);
            sim.run_until(sim.now + from_millis(30));
        }
        sim.run_to_completion(30 * SECONDS);
        assert!(sim.oracle_violations().is_empty());
        assert!(sim.incidents().is_empty(), "{:?}", sim.incidents());
        assert!(sim.connections[conn].all_acked());
        assert_eq!(sim.connections[conn].stats.delivered_bytes, 400_000);
    }

    #[test]
    fn swap_to_a_costlier_program_raises_the_step_budget() {
        // Scanning a 700-packet send queue takes more steps than the
        // connection's first, trivial program is certified for.
        const QUEUE_SCAN: &str = "
            SET(R2, Q.FILTER(p => p.SIZE > 0).COUNT);
            IF (!Q.EMPTY) {
                SUBFLOWS.FILTER(sbf => sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED)
                    .MIN(sbf => sbf.RTT).PUSH(Q.POP());
            }";
        let mut api = ProgMp::new();
        api.load_scheduler("scan", QUEUE_SCAN).unwrap();
        let mut sim = Sim::new(1);
        let path = PathConfig::symmetric(from_millis(10), 1_250_000);
        let conn = sim
            .add_connection(ConnectionConfig::new(
                vec![SubflowConfig::new(path)],
                SchedulerSpec::dsl("SET(R1, R1 + 1);"),
            ))
            .unwrap();
        let small = sim.connections[conn].step_budget().unwrap();
        api.set_scheduler(&mut sim, conn, "scan", Backend::Vm)
            .unwrap();
        sim.app_send_at(conn, 0, 1_000_000, 0);
        sim.run_to_completion(60 * SECONDS);
        let c = &sim.connections[conn];
        assert_eq!(c.stats.scheduler_errors, 0, "no StepBudgetExhausted");
        assert!(c.all_acked());
        assert!(
            c.stats.scheduler_steps / c.stats.scheduler_executions > small,
            "the scenario must need more than the first program's bound: {} steps in {} runs",
            c.stats.scheduler_steps,
            c.stats.scheduler_executions
        );
    }

    #[test]
    fn reloading_a_scheduler_replaces_it() {
        let mut api = ProgMp::new();
        api.load_scheduler("x", "SET(R1, 1);").unwrap();
        let first = api.loaded_bytes();
        api.load_scheduler("x", progmp_schedulers::TAP).unwrap();
        assert!(api.loaded_bytes() > first, "larger program replaced it");
        assert_eq!(api.loaded().len(), 1);
    }

    #[test]
    fn shared_program_across_connections() {
        let mut api = ProgMp::new();
        api.load_scheduler("shared", progmp_schedulers::DEFAULT_MIN_RTT)
            .unwrap();
        let mut sim = Sim::new(2);
        let mut conns = Vec::new();
        for _ in 0..3 {
            let c = sim
                .add_connection(ConnectionConfig::new(
                    vec![SubflowConfig::new(PathConfig::symmetric(
                        from_millis(10),
                        1_250_000,
                    ))],
                    SchedulerSpec::dsl(progmp_schedulers::MIN_RTT_SIMPLE),
                ))
                .unwrap();
            api.set_scheduler(&mut sim, c, "shared", Backend::Vm)
                .unwrap();
            sim.app_send_at(c, 0, 5_000, 0);
            conns.push(c);
        }
        sim.run_to_completion(5 * SECONDS);
        for c in conns {
            assert!(sim.connections[c].all_acked());
        }
    }
}
