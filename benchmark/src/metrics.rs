//! The metric and workload registry: every name the benchmark may print,
//! with its unit, direction and (for end-to-end metrics) regression
//! bound. `BENCHMARK.json` is rendered from these tables, and the
//! baseline writer refuses any name that is not in them.

use crate::json::{obj, Json};

/// Seconds one run measures; also the `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

pub const DEFAULT_SEED: u64 = 379_422;

pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "compile_load",
        "21 programs through progmp_core::compile only (18 admitted, 3 rejected at known stages): verifier and compiler work shows here, engine work must not",
    ),
    (
        "upcall_exec",
        "18 programs x 3 MockEnv fixtures through execute_raw on the VM, no simulator: per-decision cost, two of three upcalls push nothing as in the fleets",
    ),
    (
        "fleet_short",
        "1000 connections x 20 KB: per-connection install (compile + instantiate) is over 90 % of wall, so compile-once/share shows here and nowhere else",
    ),
    (
        "fleet_bulk",
        "56 connections x 4 x 1 MB on clean paths: scheduler execution, calendar, dispatch and transport are about 90 % of wall, install under 10 %",
    ),
    (
        "fleet_lossy",
        "168 connections x 1 MB with 1-2 % loss, fault plans and containment: retransmission, RTO, reinjection and quarantine paths that fleet_bulk never touches",
    ),
    (
        "fleet_checked",
        "128 connections x 100 KB with the oracle collecting: the runtime checker is about 80 % of wall, so scoping the check shows here only",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees; every workload reports every one.
/// One "op" is a simulated event on the fleets, a program compiled on
/// `compile_load` and an upcall on `upcall_exec`.
///
/// The time bounds are 0.20, not the tenth a quiet machine would allow:
/// on this shared 2-CPU box whole sets of runs drifted 10 % within the
/// hour and, in one bad episode, 35 % within minutes.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Metrics of single layers (layer = module path), from the traced run.
/// README.md maps each group to the end-to-end metric it should move.
pub const PER_LAYER: [Layer; 72] = [
    // progmp-core compile stages, summed over the 18 shipped programs.
    lower("core.parser.us", "us"),
    lower("core.sema.us", "us"),
    lower("core.optimizer.us", "us"),
    lower("core.verify.admission.us", "us"),
    lower("core.verify.props.us", "us"),
    lower("core.codegen.us", "us"),
    lower("core.regalloc.us", "us"),
    lower("core.vm.verify.us", "us"),
    lower("core.verify.vm.translation.us", "us"),
    lower("core.opt.bytecode.us", "us"),
    lower("core.program.compile_ms.minRttSimple", "ms"),
    lower("core.program.compile_ms.default", "ms"),
    lower("core.program.compile_ms.roundRobin", "ms"),
    lower("core.program.compile_ms.redundant", "ms"),
    lower("core.program.compile_ms.opportunisticRedundant", "ms"),
    lower("core.program.compile_ms.tap", "ms"),
    lower("core.program.compile_ms.targetRtt", "ms"),
    lower("core.program.compile_ms_p95", "ms"),
    lower("core.program.reject_us", "us"),
    lower("core.program.instantiate_us", "us"),
    lower("core.program.image_insns", "count"),
    lower("core.program.size_bytes", "bytes"),
    higher("core.program.stage_sum_ratio", "ratio"),
    lower("api.load_scheduler_us", "us"),
    lower("api.set_scheduler_us", "us"),
    // progmp-core backends, one upcall.
    lower("core.interp.upcall_ns", "ns"),
    lower("core.aot.upcall_ns", "ns"),
    lower("core.vm.upcall_ns", "ns"),
    lower("core.vm.upcall_ns.opt", "ns"),
    lower("core.vm.upcall_ns.send_ready", "ns"),
    lower("core.vm.upcall_ns.cwnd_limited", "ns"),
    lower("core.vm.upcall_ns.idle", "ns"),
    lower("core.vm.upcall_ns.minRttSimple", "ns"),
    lower("core.vm.upcall_ns.default", "ns"),
    lower("core.vm.upcall_ns.roundRobin", "ns"),
    lower("core.vm.upcall_ns.redundant", "ns"),
    lower("core.vm.upcall_ns.opportunisticRedundant", "ns"),
    lower("core.vm.upcall_ns.tap", "ns"),
    lower("core.vm.upcall_ns.targetRtt", "ns"),
    lower("core.vm.upcall_ns_p95", "ns"),
    lower("core.exec.steps_per_upcall", "count"),
    lower("core.vm.insns_per_upcall", "count"),
    lower("sim.native.upcall_ns", "ns"),
    lower("core.vm.vs_native_ratio", "ratio"),
    // mptcp-sim, single-shard traced fleet.
    lower("sim.engine.setup_s", "s"),
    lower("sim.engine.setup_compile_s", "s"),
    lower("sim.engine.run_s", "s"),
    lower("sim.engine.scheduler_exec_s", "s"),
    lower("sim.engine.event_loop_s", "s"),
    lower("sim.engine.event_loop_ns_per_event", "ns"),
    lower("sim.fleet.digest_s", "s"),
    lower("sim.engine.events", "count"),
    lower("sim.engine.tx_packets", "count"),
    lower("sim.engine.retransmissions", "count"),
    lower("sim.engine.timeouts", "count"),
    lower("sim.engine.reinjections", "count"),
    lower("sim.engine.scheduler_executions", "count"),
    lower("sim.engine.scheduler_steps", "count"),
    lower("sim.engine.scheduler_errors", "count"),
    lower("sim.engine.upcalls_per_tx", "ratio"),
    higher("sim.engine.goodput_ratio", "ratio"),
    lower("sim.supervisor.incidents", "count"),
    lower("sim.supervisor.quarantines", "count"),
    lower("sim.fleet.rss_kb_per_conn", "kB"),
    // mptcp-sim probes on fixed fleets.
    lower("sim.oracle.check_s", "s"),
    lower("sim.oracle.ns_per_event", "ns"),
    lower("sim.oracle.violations", "count"),
    lower("sim.supervisor.clean_overhead_ratio", "ratio"),
    higher("sim.fleet.speedup_2w", "ratio"),
    lower("sim.calendar.hold_ns", "ns"),
    // The trace itself.
    higher("trace.coverage_ratio", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The unit of any registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
}

/// A measured value as the result line and the baseline carry it.
pub fn value_json(value: f64, unit: &str) -> Json {
    obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest() -> Json {
    obj([
        (
            "command",
            Json::Arr(vec![Json::from("bash"), Json::from("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| obj([("name", Json::from(name)), ("why", Json::from(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.name())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_meets_the_manifest_limits() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            let ok = unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(ok, "bad unit {unit}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().render_pretty().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_rendered_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest().render_pretty(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }
}
