//! Static analysis of compiled scheduler programs.
//!
//! The paper's runtime hosts *tenant-supplied* schedulers inside the
//! shared transport stack (§6: "individual schedulers per application in
//! multi-tenancy and light-weight container environments"). Before
//! admitting a scheduler, an operator can audit what it touches: which
//! subflow/packet properties it reads, which queues it consumes, whether
//! it drops data, which registers form its application interface, and how
//! deeply its scans nest (a static cost proxy complementing the runtime
//! step budget).
//!
//! The analysis is a single HIR walk over [`HProgram::children`];
//! everything it reports is exact (the language has no dynamic property
//! access).

use crate::env::RegId;
use crate::error::Pos;
use crate::hir::{Children, ExprId, HExpr, HProgram, HStmt, StmtId};
use std::collections::BTreeSet;
use std::fmt;

/// Exact static facts about a scheduler program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analysis {
    /// Subflow properties the scheduler reads.
    pub subflow_props: BTreeSet<&'static str>,
    /// Packet properties the scheduler reads.
    pub packet_props: BTreeSet<&'static str>,
    /// Queues the scheduler observes (TOP/COUNT/EMPTY/FILTER/MIN/SUM).
    pub queues_read: BTreeSet<&'static str>,
    /// Queues the scheduler pops packets from.
    pub queues_popped: BTreeSet<&'static str>,
    /// Registers read (the application→scheduler interface).
    pub registers_read: BTreeSet<u8>,
    /// Registers written (scheduler state / scheduler→application).
    pub registers_written: BTreeSet<u8>,
    /// Number of `PUSH` statements.
    pub push_sites: usize,
    /// Number of `DROP` statements.
    pub drop_sites: usize,
    /// Number of `POP` expressions; each compiles to exactly one `Pop`
    /// helper call (side-effect isolation keeps predicates pop-free, so
    /// filter re-expansion never duplicates them).
    pub pop_sites: usize,
    /// Whether `SENT_ON` is used (redundancy/retransmission logic).
    pub uses_sent_on: bool,
    /// Whether `HAS_WINDOW_FOR` is used (receive-window awareness).
    pub uses_window_check: bool,
    /// Maximum static nesting depth of scans with per-element work
    /// (`FILTER`/`MIN`/`MAX`/`SUM`/`FOREACH`): each level multiplies
    /// worst-case cost by the element count. Unfiltered `COUNT`/`GET`
    /// walk their view but nest no work inside it, and `EMPTY`/`TOP`/a
    /// plain `POP` stop at the first live element, so none of them
    /// deepens it; the step-cost model still charges their walks, so a
    /// `COUNT` at the deepest admitted level can saturate the certified
    /// bound. Popping *through* a filter counts via the `FILTER` node.
    pub max_scan_depth: usize,
}

impl Analysis {
    /// True if the scheduler can transmit packets at all.
    pub fn can_transmit(&self) -> bool {
        self.push_sites > 0
    }

    /// True if the scheduler may discard data (`DROP` of send-queue
    /// packets is the one scheduler action that loses payload).
    pub fn can_discard(&self) -> bool {
        self.drop_sites > 0
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let join = |set: &BTreeSet<&'static str>| -> String {
            if set.is_empty() {
                "-".to_string()
            } else {
                set.iter().copied().collect::<Vec<_>>().join(", ")
            }
        };
        let regs = |set: &BTreeSet<u8>| -> String {
            if set.is_empty() {
                "-".to_string()
            } else {
                set.iter()
                    .map(|r| format!("R{r}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        writeln!(f, "subflow properties: {}", join(&self.subflow_props))?;
        writeln!(f, "packet properties:  {}", join(&self.packet_props))?;
        writeln!(f, "queues read:        {}", join(&self.queues_read))?;
        writeln!(f, "queues popped:      {}", join(&self.queues_popped))?;
        writeln!(f, "registers read:     {}", regs(&self.registers_read))?;
        writeln!(f, "registers written:  {}", regs(&self.registers_written))?;
        writeln!(
            f,
            "effects:            {} push site(s), {} drop site(s)",
            self.push_sites, self.drop_sites
        )?;
        writeln!(
            f,
            "features:           sent_on={}, window_check={}",
            self.uses_sent_on, self.uses_window_check
        )?;
        write!(f, "max scan depth:     {}", self.max_scan_depth)
    }
}

/// Analyzes a lowered program.
pub fn analyze(prog: &HProgram) -> Analysis {
    analyze_with_limit(prog, usize::MAX).0
}

/// [`analyze`], plus the position of the first scan nested deeper than
/// `depth_limit` (the anchor of the admission verifier's `scan-depth`
/// diagnostic).
pub(crate) fn analyze_with_limit(prog: &HProgram, depth_limit: usize) -> (Analysis, Option<Pos>) {
    let mut w = Walk {
        prog,
        depth_limit,
        a: Analysis::default(),
        over_limit: None,
    };
    w.block(&prog.body, 0);
    (w.a, w.over_limit)
}

fn reg_index(r: RegId) -> u8 {
    (r.index() + 1) as u8
}

struct Walk<'a> {
    prog: &'a HProgram,
    depth_limit: usize,
    a: Analysis,
    over_limit: Option<Pos>,
}

impl Walk<'_> {
    /// Records a scan at `pos` whose per-element work runs at `depth`.
    fn scan(&mut self, depth: usize, pos: Pos) {
        self.a.max_scan_depth = self.a.max_scan_depth.max(depth);
        if depth > self.depth_limit {
            self.over_limit.get_or_insert(pos);
        }
    }

    fn block(&mut self, body: &[StmtId], depth: usize) {
        for &sid in body {
            let mut depth = depth;
            match self.prog.stmt(sid) {
                HStmt::Foreach { .. } => {
                    depth += 1;
                    self.scan(depth, self.prog.stmt_pos(sid));
                }
                HStmt::SetReg { reg, .. } => {
                    self.a.registers_written.insert(reg_index(*reg));
                }
                HStmt::Push { .. } => self.a.push_sites += 1,
                HStmt::Drop { .. } => self.a.drop_sites += 1,
                _ => {}
            }
            for e in self.prog.stmt_operands(sid).iter() {
                self.expr(e, depth);
            }
            for nested in self.prog.blocks(sid) {
                self.block(nested, depth);
            }
        }
    }

    /// The base queue of the packet view `view`, noted as read.
    fn queue_read(&mut self, view: ExprId) -> Option<&'static str> {
        let name = self.prog.view_chain(view)?.base.queue()?.name();
        self.a.queues_read.insert(name);
        Some(name)
    }

    fn expr(&mut self, eid: ExprId, depth: usize) {
        match self.prog.expr(eid) {
            HExpr::ReadReg(r) => {
                self.a.registers_read.insert(reg_index(*r));
            }
            HExpr::SubflowProp { prop, .. } => {
                self.a.subflow_props.insert(prop.name());
            }
            HExpr::PacketProp { prop, .. } => {
                self.a.packet_props.insert(prop.name());
            }
            HExpr::SentOn { .. } => self.a.uses_sent_on = true,
            HExpr::HasWindowFor { .. } => self.a.uses_window_check = true,
            HExpr::QueueCount(view) | HExpr::QueueEmpty(view) | HExpr::QueueTop(view) => {
                self.queue_read(*view);
            }
            HExpr::QueuePop(view) => {
                self.a.pop_sites += 1;
                if let Some(name) = self.queue_read(*view) {
                    self.a.queues_popped.insert(name);
                }
            }
            _ => {}
        }
        match self.prog.children(eid) {
            Children::Scan { source, body, .. } => {
                self.scan(depth + 1, self.prog.expr_pos(eid));
                self.queue_read(source);
                self.expr(source, depth);
                self.expr(body, depth + 1);
            }
            kids => {
                for e in kids.iter() {
                    self.expr(e, depth);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sema::lower;

    fn analysis_of(src: &str) -> Analysis {
        analyze(&lower(&parse(src).unwrap()).unwrap())
    }

    #[test]
    fn min_rtt_analysis() {
        let a = analysis_of(
            "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }",
        );
        assert!(a.subflow_props.contains("RTT"));
        assert_eq!(a.queues_read.iter().copied().collect::<Vec<_>>(), ["Q"]);
        assert_eq!(a.queues_popped.iter().copied().collect::<Vec<_>>(), ["Q"]);
        assert_eq!(a.push_sites, 1);
        assert_eq!(a.drop_sites, 0);
        assert!(a.can_transmit());
        assert!(!a.can_discard());
        assert!(!a.uses_sent_on);
        assert_eq!(a.max_scan_depth, 1);
    }

    #[test]
    fn register_interface_is_reported() {
        let a = analysis_of("IF (R1 > 0) { SET(R2, R1 + R3); }");
        assert_eq!(a.registers_read.iter().copied().collect::<Vec<_>>(), [1, 3]);
        assert_eq!(a.registers_written.iter().copied().collect::<Vec<_>>(), [2]);
        assert!(!a.can_transmit());
    }

    #[test]
    fn nested_scans_report_depth() {
        let a = analysis_of(
            "FOREACH (VAR s IN SUBFLOWS.FILTER(x => x.RTT > 0)) {
                 VAR p = QU.FILTER(q => !q.SENT_ON(s)).TOP;
                 IF (p != NULL) { s.PUSH(p); }
             }",
        );
        assert!(a.uses_sent_on);
        assert!(a.queues_read.contains("QU"));
        assert!(a.queues_popped.is_empty(), "TOP does not pop");
        assert!(a.max_scan_depth >= 2, "queue scan nested in FOREACH");
    }

    #[test]
    fn drop_and_window_checks_detected() {
        let a = analysis_of(
            "VAR s = SUBFLOWS.GET(0);
             IF (s != NULL AND s.HAS_WINDOW_FOR(Q.TOP)) { s.PUSH(Q.POP()); }
             ELSE { DROP(RQ.POP()); }",
        );
        assert!(a.uses_window_check);
        assert!(a.can_discard());
        assert!(a.queues_popped.contains("Q"));
        assert!(a.queues_popped.contains("RQ"));
    }

    #[test]
    fn aggregate_vars_attribute_to_base_queue() {
        let a = analysis_of(
            "VAR hot = Q.FILTER(p => p.PROP == 1);
             IF (!hot.EMPTY) { SUBFLOWS.GET(0).PUSH(hot.POP()); }",
        );
        assert!(a.queues_popped.contains("Q"), "var-level pop resolves to Q");
        assert!(a.packet_props.contains("PROP"));
    }

    #[test]
    fn display_renders_all_sections() {
        let a = analysis_of("SET(R1, Q.COUNT);");
        let text = a.to_string();
        assert!(text.contains("queues read:        Q"));
        assert!(text.contains("registers written:  R1"));
        assert!(text.contains("max scan depth:     0"));
    }

    #[test]
    fn constant_time_queue_ops_are_not_scans() {
        // COUNT/EMPTY/TOP/GET and a plain POP nest no work: no scan level.
        let a = analysis_of(
            "SET(R1, Q.COUNT);
             IF (!QU.EMPTY AND RQ.TOP != NULL) { SUBFLOWS.GET(0).PUSH(Q.POP()); }",
        );
        assert_eq!(a.max_scan_depth, 0);
        // Popping *through* a filter still scans (the FILTER node counts).
        let b = analysis_of("VAR p = Q.FILTER(x => x.PROP == 1).POP();");
        assert_eq!(b.max_scan_depth, 1);
    }
}
