//! Native Rust schedulers.
//!
//! The paper compares its runtime environments against the C
//! implementations compiled into the kernel (Fig. 9). A
//! [`NativeScheduler`] is the Rust analogue: it runs against the same
//! [`progmp_core::exec::ExecCtx`] effect model (so semantics and the
//! no-packet-loss guarantee are identical) but with zero interpretation
//! overhead.

use progmp_core::env::{QueueKind, SubflowProp};
use progmp_core::exec::{ExecCtx, NULL_HANDLE};
use progmp_core::ExecError;

/// A scheduler implemented directly in Rust.
pub trait NativeScheduler {
    /// Scheduler name for diagnostics.
    fn name(&self) -> &str;

    /// Performs one scheduler execution against the environment context.
    fn schedule(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), ExecError>;
}

/// Native reimplementation of the Linux default (minimum-RTT) scheduler:
/// reinjections first, then the lowest-RTT subflow with a free congestion
/// window, skipping TSQ-throttled, lossy, and backup subflows (backups are
/// used only when no non-backup subflow exists).
#[derive(Debug, Default, Clone)]
pub struct NativeMinRtt;

/// Selects the minimum-RTT subflow with window space, honoring backup
/// semantics. Returns [`NULL_HANDLE`] when none qualifies.
pub fn pick_min_rtt_subflow(ctx: &ExecCtx<'_>) -> i64 {
    let n = ctx.subflow_count();
    // Kernel backup semantics: backup subflows are eligible only when no
    // non-backup subflow is established at all.
    let mut any_non_backup = false;
    for i in 0..n {
        let s = ctx.subflow_at(i);
        if ctx.subflow_prop(s, SubflowProp::IsBackup) == 0 {
            any_non_backup = true;
            break;
        }
    }
    let mut best = NULL_HANDLE;
    let mut best_rtt = i64::MAX;
    for i in 0..n {
        let s = ctx.subflow_at(i);
        if any_non_backup && ctx.subflow_prop(s, SubflowProp::IsBackup) != 0 {
            continue;
        }
        if ctx.subflow_prop(s, SubflowProp::TsqThrottled) != 0
            || ctx.subflow_prop(s, SubflowProp::Lossy) != 0
        {
            continue;
        }
        let cwnd = ctx.subflow_prop(s, SubflowProp::Cwnd);
        let in_flight = ctx.subflow_prop(s, SubflowProp::SkbsInFlight)
            + ctx.subflow_prop(s, SubflowProp::Queued);
        if cwnd <= in_flight {
            continue;
        }
        let rtt = ctx.subflow_prop(s, SubflowProp::Rtt);
        if best == NULL_HANDLE || rtt < best_rtt {
            best = s;
            best_rtt = rtt;
        }
    }
    best
}

impl NativeScheduler for NativeMinRtt {
    fn name(&self) -> &str {
        "native-minrtt"
    }

    fn schedule(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), ExecError> {
        ctx.step(1)?;
        let sbf = pick_min_rtt_subflow(ctx);
        if sbf == NULL_HANDLE {
            return Ok(());
        }
        // Reinjection queue has priority; skip copies already sent on this
        // subflow when possible.
        let rq_len = ctx.queue_raw_len(QueueKind::Reinject);
        for i in 0..rq_len {
            ctx.step(1)?;
            let pkt = ctx.queue_get(QueueKind::Reinject, i);
            if pkt == NULL_HANDLE {
                continue;
            }
            if ctx.sent_on(pkt, sbf) == 0 {
                ctx.pop(pkt);
                ctx.push(sbf, pkt);
                return Ok(());
            }
        }
        // Fall back to any reinjection, then fresh data.
        let pkt = ctx.queue_get(QueueKind::Reinject, 0);
        if pkt != NULL_HANDLE {
            ctx.pop(pkt);
            ctx.push(sbf, pkt);
            return Ok(());
        }
        let pkt = first_visible(ctx, QueueKind::SendQueue);
        if pkt != NULL_HANDLE {
            ctx.pop(pkt);
            ctx.push(sbf, pkt);
        }
        Ok(())
    }
}

/// First packet of `queue` still visible in this execution.
pub fn first_visible(ctx: &ExecCtx<'_>, queue: QueueKind) -> i64 {
    let len = ctx.queue_raw_len(queue);
    for i in 0..len {
        let pkt = ctx.queue_get(queue, i);
        if pkt != NULL_HANDLE {
            return pkt;
        }
    }
    NULL_HANDLE
}

/// A scheduler that behaves like [`NativeMinRtt`] for its first
/// `trap_after` executions and then raises a structured
/// [`ExecError::Trap`] on every subsequent call. Exercises the
/// containment supervisor's backend-trap boundary: native code has no
/// bytecode verifier in front of it, so a runtime trap is its only
/// structured failure mode.
#[derive(Debug, Clone)]
pub struct NativeTrapping {
    /// Healthy executions before the first trap.
    pub trap_after: u64,
    /// Traps left to raise before behaving again (`u64::MAX` = forever).
    traps_remaining: u64,
    calls: u64,
    inner: NativeMinRtt,
}

impl NativeTrapping {
    /// Schedules like minRtt for `trap_after` calls, then traps forever.
    pub fn new(trap_after: u64) -> Self {
        NativeTrapping {
            trap_after,
            traps_remaining: u64::MAX,
            calls: 0,
            inner: NativeMinRtt,
        }
    }

    /// Schedules like minRtt for `trap_after` calls, traps exactly once,
    /// then behaves forever — a transient fault the containment
    /// supervisor's probationary re-admission should survive.
    pub fn one_shot(trap_after: u64) -> Self {
        NativeTrapping {
            traps_remaining: 1,
            ..NativeTrapping::new(trap_after)
        }
    }
}

impl NativeScheduler for NativeTrapping {
    fn name(&self) -> &str {
        "native-trapping"
    }

    fn schedule(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), ExecError> {
        self.calls += 1;
        if self.calls > self.trap_after && self.traps_remaining > 0 {
            if self.traps_remaining != u64::MAX {
                self.traps_remaining -= 1;
            }
            return Err(ExecError::Trap {
                origin: "native-trapping",
                detail: format!("deliberate trap on call {}", self.calls),
            });
        }
        self.inner.schedule(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progmp_core::env::{RegId, SchedulerEnv, SubflowProp};
    use progmp_core::testenv::MockEnv;

    fn run_native(s: &mut dyn NativeScheduler, env: &mut MockEnv) {
        let mut ctx = ExecCtx::new(env, 100_000);
        s.schedule(&mut ctx).unwrap();
        let (regs, actions, _) = ctx.finish();
        env.apply(&regs, &actions);
        let _ = regs[RegId::R1.index()];
    }

    fn env2() -> MockEnv {
        let mut env = MockEnv::new();
        for (id, rtt) in [(0u32, 10_000i64), (1, 40_000)] {
            env.add_subflow(id);
            env.set_subflow_prop(id, SubflowProp::Rtt, rtt);
            env.set_subflow_prop(id, SubflowProp::Cwnd, 10);
        }
        env
    }

    #[test]
    fn native_min_rtt_prefers_fast_subflow() {
        let mut env = env2();
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run_native(&mut NativeMinRtt, &mut env);
        assert_eq!(env.transmissions[0].0 .0, 0);
    }

    #[test]
    fn native_min_rtt_skips_exhausted_window() {
        let mut env = env2();
        env.set_subflow_prop(0, SubflowProp::SkbsInFlight, 10);
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run_native(&mut NativeMinRtt, &mut env);
        assert_eq!(env.transmissions[0].0 .0, 1, "falls over to higher RTT");
    }

    #[test]
    fn native_min_rtt_prioritizes_reinjections() {
        let mut env = env2();
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        env.push_packet(QueueKind::Reinject, 2, 1, 1400);
        env.push_packet(QueueKind::Unacked, 2, 1, 1400);
        env.mark_sent_on(2, 1);
        run_native(&mut NativeMinRtt, &mut env);
        assert_eq!(env.transmissions[0].1 .0, 2, "reinjection first");
        assert_eq!(env.transmissions[0].0 .0, 0, "on the other subflow");
    }

    #[test]
    fn native_min_rtt_honors_backup_semantics() {
        let mut env = env2();
        env.set_subflow_prop(0, SubflowProp::IsBackup, 1);
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        run_native(&mut NativeMinRtt, &mut env);
        assert_eq!(
            env.transmissions[0].0 .0, 1,
            "higher-RTT non-backup beats low-RTT backup"
        );
    }

    #[test]
    fn native_trapping_schedules_then_traps() {
        let mut env = env2();
        env.push_packet(QueueKind::SendQueue, 1, 0, 1400);
        let mut s = NativeTrapping::new(1);
        run_native(&mut s, &mut env);
        assert_eq!(env.transmissions.len(), 1, "first call behaves like minRtt");
        let mut ctx = ExecCtx::new(&env, 100_000);
        let err = s.schedule(&mut ctx).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Trap {
                origin: "native-trapping",
                ..
            }
        ));
    }
}
