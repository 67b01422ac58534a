//! The per-execution runtime context shared by all backends.
//!
//! [`ExecCtx`] wraps a read-only borrow of a [`SchedulerEnv`] for the
//! duration of one scheduler execution and implements the effect model of
//! the paper's `action_queue` (§4.1):
//!
//! * subflow and packet **properties are immutable** during one execution —
//!   reads go straight to the environment snapshot;
//! * **`POP`/`DROP` are immediately visible** in the queue views of the
//!   same execution (the "augmented queue" of Fig. 6);
//! * **`PUSH` and `DROP` are buffered** as [`Action`]s and applied by the
//!   environment after the execution completes;
//! * **register writes are immediately visible** to subsequent reads in
//!   the same execution (required by the round-robin scheduler of Fig. 5)
//!   and flushed to the environment afterwards;
//! * a packet that was popped but neither pushed nor dropped produces no
//!   action and therefore stays in its queue — *losing packets is
//!   impossible by construction* (§3.3).
//!
//! All values cross this interface as `i64` using the same encoding the
//! bytecode VM uses natively: booleans are `0`/`1`, packet and subflow
//! references are their numeric handles, and `NULL` is [`NULL_HANDLE`].

use crate::env::{
    Action, PacketProp, PacketRef, QueueKind, RegId, SchedulerEnv, SubflowId, SubflowProp,
    NUM_REGISTERS,
};
use crate::error::ExecError;

/// The `i64` encoding of `NULL` for packet and subflow handles.
pub const NULL_HANDLE: i64 = -1;

/// Fallback per-execution step budget. One step is charged per evaluated
/// node / executed bytecode instruction / scanned queue element, so this
/// bounds scheduler executions the way the eBPF verifier bounds program
/// runtime.
///
/// Compiled programs run under the per-program bound certified by the
/// admission verifier instead, charged at the verifier's caps and so
/// above or below this value
/// ([`crate::program::SchedulerProgram::certified_step_bound`]); this
/// blanket value remains the sentinel default for raw
/// [`ExecCtx`]-level execution and for native schedulers.
pub const DEFAULT_STEP_BUDGET: u64 = 1_000_000;

/// Statistics describing one completed scheduler execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Steps charged against the budget.
    pub steps: u64,
    /// Number of `PUSH` actions emitted.
    pub pushes: u32,
    /// Number of `DROP` actions emitted.
    pub drops: u32,
    /// Number of `POP`s performed.
    pub pops: u32,
    /// Number of `POP`s that evaluated on an empty view and yielded
    /// `NULL`. Zero whenever every pop site was guarded by an emptiness
    /// check — the dynamic shadow of the reinjection-safety property
    /// certificate (see `crate::verify::props`).
    pub null_pops: u32,
    /// Number of register writes performed.
    pub reg_writes: u32,
}

/// The heap buffers one execution fills: the popped/dropped set and the
/// action list. A caller that runs many executions hands the set
/// returned by [`ExecCtx::finish_scratch`] to the next
/// [`ExecCtx::with_scratch`], so a warmed-up execution allocates
/// nothing; one set serves any number of environments. The bytecode
/// VM's registers and stack frame are not here: they are fixed arrays on
/// the Rust stack of its run loop, which executes a verified image
/// without re-checking it ([`crate::vm`]).
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Packets removed from queue views this execution (popped or dropped).
    removed: Vec<PacketRef>,
    actions: Vec<Action>,
}

impl ExecScratch {
    /// The ordered action list of the execution that returned this set.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }
}

/// Execution context for a single scheduler run.
pub struct ExecCtx<'e> {
    env: &'e dyn SchedulerEnv,
    regs: [i64; NUM_REGISTERS],
    scratch: ExecScratch,
    steps_left: u64,
    budget: u64,
    stats: ExecStats,
}

impl<'e> ExecCtx<'e> {
    /// Creates a context over `env` with the given step budget.
    pub fn new(env: &'e dyn SchedulerEnv, budget: u64) -> Self {
        Self::with_scratch(env, budget, ExecScratch::default())
    }

    /// Like [`ExecCtx::new`], reusing the buffers of an earlier
    /// execution (whose contents are discarded).
    pub fn with_scratch(env: &'e dyn SchedulerEnv, budget: u64, mut scratch: ExecScratch) -> Self {
        scratch.removed.clear();
        scratch.actions.clear();
        ExecCtx {
            env,
            regs: env.registers(),
            scratch,
            steps_left: budget,
            budget,
            stats: ExecStats::default(),
        }
    }

    /// Charges `n` steps against the budget.
    #[inline]
    pub fn step(&mut self, n: u64) -> Result<(), ExecError> {
        if let Some(rest) = self.steps_left.checked_sub(n) {
            self.steps_left = rest;
            Ok(())
        } else {
            self.steps_left = 0;
            Err(ExecError::StepBudgetExhausted {
                budget: self.budget,
            })
        }
    }

    /// Number of established subflows.
    #[inline]
    pub fn subflow_count(&self) -> i64 {
        self.env.subflows().len() as i64
    }

    /// Handle of the `i`-th subflow, or [`NULL_HANDLE`] out of range.
    #[inline]
    pub fn subflow_at(&self, i: i64) -> i64 {
        if i < 0 {
            return NULL_HANDLE;
        }
        match self.env.subflows().get(i as usize) {
            Some(s) => i64::from(s.0),
            None => NULL_HANDLE,
        }
    }

    /// Property read; `NULL` subflows read as 0 (graceful by design).
    #[inline]
    pub fn subflow_prop(&self, sbf: i64, prop: SubflowProp) -> i64 {
        if sbf < 0 {
            return 0;
        }
        self.env.subflow_prop(SubflowId(sbf as u32), prop)
    }

    /// Raw snapshot length of `queue` (including packets already removed
    /// this execution; use [`ExecCtx::queue_get`] to skip them).
    #[inline]
    pub fn queue_raw_len(&self, queue: QueueKind) -> i64 {
        self.env.queue(queue).len() as i64
    }

    /// Handle of the `i`-th packet of `queue`, or [`NULL_HANDLE`] if the
    /// index is out of range or the packet was popped/dropped earlier in
    /// this execution.
    #[inline]
    pub fn queue_get(&self, queue: QueueKind, i: i64) -> i64 {
        if i < 0 {
            return NULL_HANDLE;
        }
        match self.env.queue(queue).get(i as usize) {
            Some(p) if !self.scratch.removed.contains(p) => p.0 as i64,
            _ => NULL_HANDLE,
        }
    }

    /// Property read; `NULL` packets read as 0.
    #[inline]
    pub fn packet_prop(&self, pkt: i64, prop: PacketProp) -> i64 {
        if pkt < 0 {
            return 0;
        }
        self.env.packet_prop(PacketRef(pkt as u64), prop)
    }

    /// `SENT_ON`; `NULL` operands yield `false`.
    #[inline]
    pub fn sent_on(&self, pkt: i64, sbf: i64) -> i64 {
        if pkt < 0 || sbf < 0 {
            return 0;
        }
        i64::from(
            self.env
                .sent_on(PacketRef(pkt as u64), SubflowId(sbf as u32)),
        )
    }

    /// `HAS_WINDOW_FOR`; `NULL` operands yield `false`.
    #[inline]
    pub fn has_window_for(&self, sbf: i64, pkt: i64) -> i64 {
        if pkt < 0 || sbf < 0 {
            return 0;
        }
        i64::from(
            self.env
                .has_window_for(SubflowId(sbf as u32), PacketRef(pkt as u64)),
        )
    }

    /// Marks `pkt` as popped: it disappears from queue views for the rest
    /// of this execution. A no-op for `NULL`.
    #[inline]
    pub fn pop(&mut self, pkt: i64) {
        if pkt < 0 {
            self.stats.null_pops += 1;
            return;
        }
        let r = PacketRef(pkt as u64);
        if !self.scratch.removed.contains(&r) {
            self.scratch.removed.push(r);
            self.stats.pops += 1;
        }
    }

    /// Emits a `Push` action. A no-op when either operand is `NULL` —
    /// pushing to a vanished subflow fails gracefully and the packet
    /// remains schedulable.
    #[inline]
    pub fn push(&mut self, sbf: i64, pkt: i64) {
        if sbf < 0 || pkt < 0 {
            return;
        }
        self.scratch.actions.push(Action::Push {
            subflow: SubflowId(sbf as u32),
            packet: PacketRef(pkt as u64),
        });
        self.stats.pushes += 1;
    }

    /// Emits a `Drop` action and removes the packet from queue views.
    /// A no-op for `NULL`.
    #[inline]
    pub fn drop_packet(&mut self, pkt: i64) {
        if pkt < 0 {
            return;
        }
        let r = PacketRef(pkt as u64);
        if !self.scratch.removed.contains(&r) {
            self.scratch.removed.push(r);
        }
        self.scratch.actions.push(Action::Drop { packet: r });
        self.stats.drops += 1;
    }

    /// Current value of `reg` (overlay-aware).
    #[inline]
    pub fn get_reg(&self, reg: RegId) -> i64 {
        self.regs[reg.index()]
    }

    /// Writes `reg`; visible to subsequent reads in this execution.
    #[inline]
    pub fn set_reg(&mut self, reg: RegId, value: i64) {
        self.regs[reg.index()] = value;
        self.stats.reg_writes += 1;
    }

    /// Number of actions emitted so far.
    pub fn action_count(&self) -> usize {
        self.scratch.actions.len()
    }

    /// Finishes the execution: returns the final register file, the
    /// ordered action list, and statistics. The caller is responsible for
    /// handing registers and actions to [`SchedulerEnv::apply`].
    pub fn finish(self) -> ([i64; NUM_REGISTERS], Vec<Action>, ExecStats) {
        let (regs, stats, scratch) = self.finish_scratch();
        (regs, scratch.actions, stats)
    }

    /// Like [`ExecCtx::finish`], but returns the whole buffer set — the
    /// actions are [`ExecScratch::actions`] — for the next
    /// [`ExecCtx::with_scratch`].
    pub fn finish_scratch(mut self) -> ([i64; NUM_REGISTERS], ExecStats, ExecScratch) {
        self.stats.steps = self.budget - self.steps_left;
        (self.regs, self.stats, self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testenv::MockEnv;

    #[test]
    fn null_operands_are_graceful() {
        let env = MockEnv::new();
        let mut ctx = ExecCtx::new(&env, 100);
        assert_eq!(ctx.subflow_prop(NULL_HANDLE, SubflowProp::Rtt), 0);
        assert_eq!(ctx.packet_prop(NULL_HANDLE, PacketProp::Size), 0);
        assert_eq!(ctx.sent_on(NULL_HANDLE, 0), 0);
        assert_eq!(ctx.has_window_for(0, NULL_HANDLE), 0);
        ctx.push(NULL_HANDLE, 5);
        ctx.push(5, NULL_HANDLE);
        ctx.drop_packet(NULL_HANDLE);
        ctx.pop(NULL_HANDLE);
        let (_, actions, stats) = ctx.finish();
        assert!(actions.is_empty());
        assert_eq!(stats.pushes, 0);
        assert_eq!(stats.drops, 0);
        assert_eq!(stats.pops, 0);
        assert_eq!(stats.null_pops, 1, "the NULL pop is counted separately");
    }

    #[test]
    fn pop_hides_packet_from_views() {
        let mut env = MockEnv::new();
        env.push_packet(QueueKind::SendQueue, 1000, 7, 1400);
        env.push_packet(QueueKind::SendQueue, 1001, 8, 1400);
        let mut ctx = ExecCtx::new(&env, 100);
        assert_eq!(ctx.queue_get(QueueKind::SendQueue, 0), 1000);
        ctx.pop(1000);
        assert_eq!(ctx.queue_get(QueueKind::SendQueue, 0), NULL_HANDLE);
        assert_eq!(ctx.queue_get(QueueKind::SendQueue, 1), 1001);
    }

    #[test]
    fn budget_exhaustion_reports_error() {
        let env = MockEnv::new();
        let mut ctx = ExecCtx::new(&env, 3);
        assert!(ctx.step(2).is_ok());
        assert!(ctx.step(2).is_err());
    }

    #[test]
    fn register_overlay_reads_back() {
        let mut env = MockEnv::new();
        env.set_register(RegId::R2, 41);
        let mut ctx = ExecCtx::new(&env, 100);
        assert_eq!(ctx.get_reg(RegId::R2), 41);
        ctx.set_reg(RegId::R2, 42);
        assert_eq!(ctx.get_reg(RegId::R2), 42);
        let (regs, _, _) = ctx.finish();
        assert_eq!(regs[RegId::R2.index()], 42);
    }

    #[test]
    fn actions_preserve_emission_order() {
        let mut env = MockEnv::new();
        env.add_subflow(0);
        env.push_packet(QueueKind::SendQueue, 10, 0, 100);
        env.push_packet(QueueKind::SendQueue, 11, 1, 100);
        let mut ctx = ExecCtx::new(&env, 100);
        ctx.push(0, 10);
        ctx.drop_packet(11);
        ctx.push(0, 11);
        let (_, actions, _) = ctx.finish();
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], Action::Push { .. }));
        assert!(matches!(actions[1], Action::Drop { .. }));
    }
}
