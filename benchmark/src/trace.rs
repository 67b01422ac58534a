//! The traced run: per-layer numbers from spans recorded in the
//! benchmark's own code around calls into each layer's public functions.
//!
//! Every traced run reports every per-layer metric. The fleet trace
//! (`sim.engine.*`, `sim.fleet.digest_s`, `trace.*`) runs on the
//! workload's own fleet — for the two micro workloads, which have none,
//! on the `fleet_checked` fleet with the oracle off. The probes (compile
//! stages, backends, calendar, oracle, supervisor, two workers) run on
//! fixed inputs whatever the workload, so their values compare across
//! workloads.

use crate::e2e::check_fleet;
use crate::fleets::{scheduler_source, FleetSpec, PAPER_SCHEDULERS};
use crate::json::{obj, Json};
use crate::micro::{self, FIXTURES};
use crate::stats::{median, percentile_sorted, Summary};
use crate::{Checks, RunOptions, RunOutcome};
use mptcp_sim::fleet::{fnv1a64, run_fleet, OracleMode, Workload};
use mptcp_sim::native::{NativeMinRtt, NativeScheduler};
use mptcp_sim::time::from_millis;
use mptcp_sim::{
    CalendarQueue, ChaosRng, ConnectionConfig, ContainAction, PathConfig, SchedulerSpec, Sim,
    SubflowConfig,
};
use progmp::api::ProgMp;
use progmp_core::exec::ExecCtx;
use progmp_core::verify::VerifyConfig;
use progmp_core::{Backend, CompileOptions};
use std::hint::black_box;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that caused it.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: u32,
}

/// Spans stay in memory and are written once, when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub iteration: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - self.spans[id].start_ns) as f64 / 1e9)
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("iteration", Json::from(u64::from(s.iteration))),
                ])
            })
            .collect();
        obj([
            ("workload", Json::from(workload)),
            ("seed", Json::from(seed)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Share of the measuring time each time-sliced probe may use.
const PROBE_SLICE: f64 = 0.12;
/// Share the alternating untraced/traced fleet pairs may use.
const FLEET_SLICE: f64 = 0.45;
/// Upcalls timed as one block per (backend, program, fixture) and round.
const UPCALLS_PER_BLOCK: usize = 100;

pub fn run(opts: &RunOptions) -> (RunOutcome, Tracer) {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new();
    let mut out = Vec::new();

    // The fleet trace goes first: its resident-set growth is only
    // attributable while the process has allocated nothing else.
    let (spec, notes) = traced_fleet_of(opts);
    fleet_trace(&spec, opts, &mut tracer, &mut checks, &mut out);
    oracle_probe(opts, &mut tracer, &mut checks, &spec, &mut out);
    bulk_probe(opts, &mut checks, &mut out);
    let optimized = compile_probe(opts, &mut tracer, &mut checks, &mut out);
    upcall_probe(opts, &optimized, &mut checks, &mut out);
    out.push(("sim.calendar.hold_ns", calendar_hold_ns(opts.seed)));

    let mut outcome = RunOutcome::new(checks);
    outcome.notes = notes;
    outcome.metrics = out;
    (outcome, tracer)
}

fn traced_fleet_of(opts: &RunOptions) -> (FleetSpec, Vec<String>) {
    if let Some(spec) = FleetSpec::of_workload(&opts.workload, opts.smoke) {
        return (spec, Vec::new());
    }
    let spec = FleetSpec::checked(opts.smoke).with_oracle(OracleMode::Off);
    let note = format!(
        "{} has no fleet: sim.engine.*, sim.fleet.* and trace.* are from fleet_checked with the oracle off",
        opts.workload
    );
    (spec, vec![note])
}

/// What one single-shard traced fleet run measured.
struct FleetTrace {
    wall_s: f64,
    setup_s: f64,
    run_s: f64,
    digest_s: f64,
    setup_rss_kb: u64,
    events: u64,
    digest: u64,
    tx_packets: u64,
    tx_bytes: u64,
    delivered_bytes: u64,
    retransmissions: u64,
    timeouts: u64,
    reinjections: u64,
    scheduler_executions: u64,
    scheduler_steps: u64,
    scheduler_errors: u64,
    scheduler_host_ns: u64,
    unfinished: u64,
    violations: u64,
    incidents: u64,
    quarantines: u64,
}

/// Runs [`trace_shard`] on a worker thread, as `run_fleet` runs its
/// shards, so the traced and untraced runs meet the same allocator arena.
fn trace_fleet(spec: &FleetSpec, seed: u64, tracer: &mut Tracer) -> FleetTrace {
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| trace_shard(spec, seed, tracer));
        worker.join().expect("traced shard panicked")
    })
}

/// Drives one `Sim` over the whole fleet the way `fleet::run_shard` does
/// for a single shard, with a span around each phase.
fn trace_shard(spec: &FleetSpec, seed: u64, tracer: &mut Tracer) -> FleetTrace {
    let cfg = spec.config(seed, 1);
    let (mut t, wall_s) = tracer.span("fleet.traced", |tracer| {
        let rss_before = crate::proc_status_kb("VmRSS").unwrap_or(0);
        let (mut sim, setup_s) = tracer.span("sim.engine.setup", |_| {
            let seeds = mptcp_sim::fleet::conn_seeds(seed, spec.connections);
            let mut sim = Sim::new(seed);
            if let Some(contain) = &cfg.containment {
                sim.enable_containment(contain.clone());
            }
            if spec.oracle == OracleMode::Collect {
                sim.enable_oracle(format!("fleet seed={seed} shard=0"), false);
                sim.oracle_mut().expect("oracle enabled").log_events = false;
            }
            for (global, &conn_seed) in seeds.iter().enumerate() {
                let sc = spec.scenario(global, conn_seed);
                let conn = sim
                    .add_connection_with_identity(sc.config, global as u64)
                    .expect("fleet scheduler compiles");
                match sc.workload {
                    Workload::Bulk { bytes, prop } => {
                        sim.add_bulk_source(conn, bytes, prop);
                    }
                    Workload::SendAt(sends) => {
                        for (at, bytes, prop) in sends {
                            sim.app_send_at(conn, at, bytes, prop);
                        }
                    }
                    Workload::Cbr { .. } => unreachable!("no fleet workload uses a CBR source"),
                }
                for (at, reg, value) in sc.registers {
                    sim.set_register_at(conn, at, reg, value);
                }
                if let Some(plan) = &sc.fault_plan {
                    sim.apply_fault_plan(conn, plan);
                }
            }
            sim
        });
        let setup_rss_kb = crate::proc_status_kb("VmRSS")
            .unwrap_or(0)
            .saturating_sub(rss_before);
        let ((), run_s) = tracer.span("sim.engine.run", |_| sim.run_to_completion(cfg.horizon));
        let (digest, digest_s) = tracer.span("sim.fleet.digest", |_| {
            let mut acc = Vec::with_capacity(sim.connections.len() * 8);
            for c in &sim.connections {
                acc.extend_from_slice(&fnv1a64(c.stats.snapshot_text().as_bytes()).to_le_bytes());
            }
            fnv1a64(&acc)
        });
        let mut t = FleetTrace {
            wall_s: 0.0,
            setup_s,
            run_s,
            digest_s,
            setup_rss_kb,
            events: sim.events_processed,
            digest,
            tx_packets: 0,
            tx_bytes: 0,
            delivered_bytes: 0,
            retransmissions: 0,
            timeouts: 0,
            reinjections: 0,
            scheduler_executions: 0,
            scheduler_steps: 0,
            scheduler_errors: 0,
            scheduler_host_ns: 0,
            unfinished: 0,
            violations: sim.oracle_violations().len() as u64,
            incidents: sim.incidents().len() as u64,
            quarantines: sim
                .incidents()
                .iter()
                .filter(|i| matches!(i.action, ContainAction::Quarantined | ContainAction::Pinned))
                .count() as u64,
        };
        for c in &sim.connections {
            let s = &c.stats;
            t.tx_packets += s.tx_packets;
            t.tx_bytes += s.tx_bytes;
            t.delivered_bytes += s.delivered_bytes;
            t.reinjections += s.reinjections;
            t.scheduler_executions += s.scheduler_executions;
            t.scheduler_steps += s.scheduler_steps;
            t.scheduler_errors += s.scheduler_errors;
            t.scheduler_host_ns += s.scheduler_host_ns;
            t.retransmissions += s.subflows.iter().map(|f| f.retransmissions).sum::<u64>();
            t.timeouts += s.subflows.iter().map(|f| f.timeouts).sum::<u64>();
            t.unfinished += u64::from(!c.all_acked());
        }
        t
    });
    t.wall_s = wall_s;
    t
}

fn check_trace(spec: &FleetSpec, t: &FleetTrace, reference: (u64, u64), checks: &mut Checks) {
    checks.count(spec.connections as u64, t.unfinished, || {
        format!("{}: traced connections did not finish", spec.name)
    });
    checks.check(t.violations == 0, || {
        format!("{}: oracle violations in the traced run", spec.name)
    });
    checks.check((t.digest, t.events) == reference, || {
        format!(
            "{}: traced digest/events {:016x}/{} differ from run_fleet's {:016x}/{}",
            spec.name, t.digest, t.events, reference.0, reference.1
        )
    });
}

type Metrics = Vec<(&'static str, f64)>;

/// Alternates untraced `run_fleet` and traced single-shard runs of the
/// same fleet; digests and event counts must repeat.
fn fleet_trace(
    spec: &FleetSpec,
    opts: &RunOptions,
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Metrics,
) {
    let started = Instant::now();
    let mut untraced_s = Vec::new();
    let mut traces: Vec<FleetTrace> = Vec::new();
    let mut reference = None;
    while traces.is_empty() || started.elapsed().as_secs_f64() < FLEET_SLICE * opts.seconds {
        tracer.iteration = traces.len() as u32;
        traces.push(trace_fleet(spec, opts.seed, tracer));
        let (report, _) = tracer.span("fleet.untraced", |_| {
            run_fleet(&spec.config(opts.seed, 1), |g, s| spec.scenario(g, s))
        });
        check_fleet(spec, &report, reference, checks);
        let reference = *reference.get_or_insert((report.digest(), report.events_processed));
        check_trace(spec, traces.last().expect("just pushed"), reference, checks);
        untraced_s.push(report.wall.as_secs_f64());
    }
    tracer.iteration = 0;

    // The same sources compiled again, outside the simulator: the part
    // of set-up that is the compile pipeline.
    let ((), setup_compile_s) = tracer.span("sim.engine.setup_compile", |_| {
        for global in 0..spec.connections {
            let source = scheduler_source(PAPER_SCHEDULERS[global % PAPER_SCHEDULERS.len()]);
            black_box(progmp_core::compile(black_box(source)).expect("paper scheduler compiles"));
        }
    });

    // The fastest traced run and the fastest untraced one, as in the
    // untraced benchmark: interference only ever adds time. All phase
    // times come from that one run, so they sum to its wall time.
    let by_wall = |a: &&FleetTrace, b: &&FleetTrace| a.wall_s.total_cmp(&b.wall_s);
    let best = traces.iter().min_by(by_wall).expect("one traced run");
    let untraced_s = untraced_s.iter().copied().fold(f64::INFINITY, f64::min);
    // Growth of the resident set is only clean the first time round.
    let setup_rss_kb = traces[0].setup_rss_kb;
    out.extend([
        ("sim.engine.setup_s", best.setup_s),
        ("sim.engine.setup_compile_s", setup_compile_s),
        ("sim.engine.run_s", best.run_s),
        (
            "sim.engine.scheduler_exec_s",
            best.scheduler_host_ns as f64 / 1e9,
        ),
        ("sim.fleet.digest_s", best.digest_s),
        ("sim.engine.events", best.events as f64),
        ("sim.engine.tx_packets", best.tx_packets as f64),
        ("sim.engine.retransmissions", best.retransmissions as f64),
        ("sim.engine.timeouts", best.timeouts as f64),
        ("sim.engine.reinjections", best.reinjections as f64),
        (
            "sim.engine.scheduler_executions",
            best.scheduler_executions as f64,
        ),
        ("sim.engine.scheduler_steps", best.scheduler_steps as f64),
        ("sim.engine.scheduler_errors", best.scheduler_errors as f64),
        (
            "sim.engine.upcalls_per_tx",
            best.scheduler_executions as f64 / best.tx_packets as f64,
        ),
        (
            "sim.engine.goodput_ratio",
            best.delivered_bytes as f64 / best.tx_bytes as f64,
        ),
        ("sim.supervisor.incidents", best.incidents as f64),
        ("sim.supervisor.quarantines", best.quarantines as f64),
        (
            "sim.fleet.rss_kb_per_conn",
            setup_rss_kb as f64 / spec.connections as f64,
        ),
        (
            "trace.coverage_ratio",
            (best.setup_s + best.run_s + best.digest_s) / best.wall_s,
        ),
        ("trace.overhead_ratio", best.wall_s / untraced_s),
    ]);
}

/// The `fleet_checked` fleet run with the oracle off and collecting: the
/// difference in `run_s` is the checker's time. Also closes the engine
/// accounting of `traced`: `event_loop_s` is the run time that is neither
/// scheduler execution nor the checker.
fn oracle_probe(
    opts: &RunOptions,
    tracer: &mut Tracer,
    checks: &mut Checks,
    traced: &FleetSpec,
    out: &mut Metrics,
) {
    let armed = FleetSpec::checked(opts.smoke);
    let unarmed = armed.clone().with_oracle(OracleMode::Off);
    // The faster of two runs each way: the difference of two single runs
    // moved the oracle's share between 75 % and 93 %.
    let mut faster_of_two = |name: &'static str, spec: &FleetSpec| {
        let runs = [0, 1].map(|_| tracer.span(name, |t| trace_fleet(spec, opts.seed, t)).0);
        let [a, b] = runs;
        if a.run_s <= b.run_s {
            a
        } else {
            b
        }
    };
    let off = faster_of_two("probe.oracle.off", &unarmed);
    let on = faster_of_two("probe.oracle.collect", &armed);
    checks.check((on.digest, on.events) == (off.digest, off.events), || {
        "arming the oracle changed the simulated result".to_string()
    });
    checks.check(on.violations == 0, || {
        "fleet_checked: oracle violations in the oracle probe".to_string()
    });
    let check_s = on.run_s - off.run_s;
    out.extend([
        ("sim.oracle.check_s", check_s),
        ("sim.oracle.ns_per_event", check_s * 1e9 / on.events as f64),
        ("sim.oracle.violations", on.violations as f64),
    ]);

    let get = |name| {
        let found = out.iter().find(|(n, _)| *n == name);
        found.expect("fleet_trace ran first").1
    };
    // With the oracle armed the engine's own time is what the same fleet
    // takes with it off; subtracting the checker's share from the armed
    // run would difference two nearly equal numbers.
    let event_loop_s = if traced.oracle == OracleMode::Collect {
        off.run_s - off.scheduler_host_ns as f64 / 1e9
    } else {
        get("sim.engine.run_s") - get("sim.engine.scheduler_exec_s")
    };
    let events = get("sim.engine.events");
    out.extend([
        ("sim.engine.event_loop_s", event_loop_s),
        (
            "sim.engine.event_loop_ns_per_event",
            event_loop_s * 1e9 / events,
        ),
    ]);
}

/// The `fleet_bulk` fleet through `run_fleet` three ways: as it is, under
/// the containment supervisor, and on two workers.
fn bulk_probe(opts: &RunOptions, checks: &mut Checks, out: &mut Metrics) {
    let bulk = FleetSpec::bulk(opts.smoke);
    let contained = bulk.clone().with_containment(true);
    let plain = run_fleet(&bulk.config(opts.seed, 1), |g, s| bulk.scenario(g, s));
    let reference = Some((plain.digest(), plain.events_processed));
    check_fleet(&bulk, &plain, None, checks);
    let supervised = run_fleet(&contained.config(opts.seed, 1), |g, s| {
        contained.scenario(g, s)
    });
    // The supervisor's watchdog ticks are events of their own, so only
    // the digest can be compared.
    check_fleet(&contained, &supervised, None, checks);
    let unchanged = supervised.digest() == plain.digest() && supervised.incidents.is_empty();
    checks.check(unchanged, || {
        "fleet_bulk: containment changed a healthy fleet's result".to_string()
    });
    let two = run_fleet(&bulk.config(opts.seed, 2), |g, s| bulk.scenario(g, s));
    check_fleet(&bulk, &two, reference, checks);
    let wall = |r: &mptcp_sim::FleetReport| r.wall.as_secs_f64();
    out.extend([
        (
            "sim.supervisor.clean_overhead_ratio",
            wall(&supervised) / wall(&plain),
        ),
        ("sim.fleet.speedup_2w", wall(&plain) / wall(&two)),
    ]);
}

/// The stages of the default `compile_with_options`, in pipeline order.
const STAGES: [&str; 9] = [
    "core.parser.us",
    "core.sema.us",
    "core.optimizer.us",
    "core.verify.admission.us",
    "core.verify.props.us",
    "core.codegen.us",
    "core.regalloc.us",
    "core.vm.verify.us",
    "core.verify.vm.translation.us",
];

/// Runs stage `idx` inside its span and adds its microseconds to `sums`.
fn staged<T>(tracer: &mut Tracer, sums: &mut [f64], idx: usize, f: impl FnOnce() -> T) -> T {
    let (out, secs) = tracer.span(STAGES[idx], |_| f());
    sums[idx] += secs * 1e6;
    out
}

/// Times each compile stage by calling, in pipeline order, the stage
/// functions `compile_with_options` itself calls, then `compile` as a
/// whole for comparison. Returns every shipped scheduler compiled with
/// the opt-in bytecode optimizer, for the upcall probe.
fn compile_probe(
    opts: &RunOptions,
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Metrics,
) -> micro::Programs {
    let corpus = micro::corpus();
    let (admitted, rejected): (Vec<_>, Vec<_>) = corpus
        .iter()
        .partition(|e| e.expect == micro::Expect::Admit);
    let verify_cfg = VerifyConfig::default();

    let mut stage_us: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut compile_ms: Vec<Vec<f64>> = vec![Vec::new(); admitted.len()];
    let mut round_ms_per_program = Vec::new();
    let mut ratio = Vec::new();
    let mut reject_us = Vec::new();
    let mut instantiate_us = Vec::new();
    let mut load_us = Vec::new();
    let mut bind_us = Vec::new();
    let mut images: Option<(u64, u64)> = None;

    let started = Instant::now();
    while ratio.len() < 2 || started.elapsed().as_secs_f64() < PROBE_SLICE * opts.seconds {
        tracer.iteration = ratio.len() as u32;
        let mut sums = [0.0f64; STAGES.len()];
        let mut whole_s = 0.0;
        let (mut insns, mut bytes) = (0u64, 0u64);
        let mut programs = Vec::with_capacity(admitted.len());
        for (p, entry) in admitted.iter().enumerate() {
            let src = black_box(entry.source);
            let ast = staged(tracer, &mut sums, 0, || progmp_core::parser::parse(src))
                .expect("shipped scheduler parses");
            let mut hir = staged(tracer, &mut sums, 1, || progmp_core::sema::lower(&ast))
                .expect("shipped scheduler type-checks");
            staged(tracer, &mut sums, 2, || {
                progmp_core::optimizer::optimize(&mut hir)
            });
            let verdict = staged(tracer, &mut sums, 3, || {
                progmp_core::verify::verify_with_config(&hir, &verify_cfg)
            });
            staged(tracer, &mut sums, 4, || {
                progmp_core::verify::props::verify_properties_with(&hir, None, true)
            });
            let vcode = staged(tracer, &mut sums, 5, || {
                progmp_core::codegen::generate(&hir)
            })
            .expect("shipped scheduler generates code");
            let (bytecode, debug) = staged(tracer, &mut sums, 6, || {
                progmp_core::regalloc::allocate_with_debug(&vcode)
            })
            .expect("shipped scheduler allocates registers");
            let structural = staged(tracer, &mut sums, 7, || {
                progmp_core::vm::verify_with_debug(&bytecode, Some(&debug))
            });
            let translation = staged(tracer, &mut sums, 8, || {
                progmp_core::verify::vm::validate_translation(
                    &bytecode,
                    &debug,
                    &hir,
                    verdict.certified_step_bound,
                    &verify_cfg,
                )
            });
            let admitted_by_all =
                verdict.admitted() && structural.is_ok() && translation.admitted();
            checks.check(admitted_by_all, || {
                format!("{}: a stage rejected a shipped scheduler", entry.name)
            });

            let (program, secs) =
                tracer.span("core.program.compile", |_| progmp_core::compile(src));
            let program = program.expect("shipped scheduler compiles");
            whole_s += secs;
            compile_ms[p].push(secs * 1e3);
            checks.check(program.bytecode() == &bytecode, || {
                format!("{}: staged and whole compile disagree", entry.name)
            });
            insns += program.bytecode().code.len() as u64;
            bytes += program.size_bytes() as u64;
            programs.push(program);
        }
        checks.check(
            *images.get_or_insert((insns, bytes)) == (insns, bytes),
            || "image size differs between compile rounds".to_string(),
        );
        ratio.push(sums.iter().sum::<f64>() / 1e6 / whole_s);
        round_ms_per_program.push(whole_s * 1e3 / admitted.len() as f64);
        for (samples, sum) in stage_us.iter_mut().zip(sums) {
            samples.push(sum);
        }

        let per = |t0: Instant, n: usize| t0.elapsed().as_secs_f64() * 1e6 / n as f64;
        let t0 = Instant::now();
        for entry in &rejected {
            black_box(progmp_core::compile(black_box(entry.source)).is_err());
        }
        reject_us.push(per(t0, rejected.len()));

        let t0 = Instant::now();
        for program in &programs {
            black_box(program.instantiate(Backend::Vm));
        }
        instantiate_us.push(per(t0, programs.len()));

        // The application API: load every scheduler by name, then bind
        // each to a connection.
        let mut api = ProgMp::new();
        let t0 = Instant::now();
        for entry in &admitted {
            api.load_scheduler(entry.name, entry.source)
                .expect("shipped scheduler loads");
        }
        load_us.push(per(t0, admitted.len()));
        let mut sim = Sim::new(opts.seed);
        let path = PathConfig::symmetric(from_millis(10), 1_250_000);
        let conn = sim
            .add_connection(ConnectionConfig::new(
                vec![SubflowConfig::new(path)],
                SchedulerSpec::dsl(scheduler_source("default")),
            ))
            .expect("default scheduler compiles");
        let t0 = Instant::now();
        for entry in &admitted {
            api.set_scheduler(&mut sim, conn, entry.name, Backend::Vm)
                .expect("loaded scheduler binds");
        }
        bind_us.push(per(t0, admitted.len()));
    }
    tracer.iteration = 0;

    // The opt-in bytecode optimizer costs some sixteen times the default
    // pipeline, so it runs once: its extra cost is that compile's time
    // beyond the default compile of the same programs.
    let with_optimizer = CompileOptions {
        optimize_bytecode: true,
        ..CompileOptions::default()
    };
    let (optimized, optimized_s) = tracer.span("core.opt.bytecode", |_| {
        micro::programs(|source| progmp_core::compile_with_options(None, source, with_optimizer))
    });
    let default_s = median(&round_ms_per_program) * admitted.len() as f64 / 1e3;
    out.push(("core.opt.bytecode.us", (optimized_s - default_s) * 1e6));

    for (name, samples) in STAGES.iter().zip(&stage_us) {
        out.push((name, median(samples)));
    }
    for (entry, samples) in admitted.iter().zip(&compile_ms) {
        if let Some(name) = layer_name("core.program.compile_ms.", entry.name) {
            out.push((name, median(samples)));
        }
    }
    let (insns, bytes) = images.expect("at least one round ran");
    out.extend([
        (
            "core.program.compile_ms_p95",
            Summary::of(&round_ms_per_program).p95,
        ),
        ("core.program.reject_us", median(&reject_us)),
        ("core.program.instantiate_us", median(&instantiate_us)),
        ("core.program.image_insns", insns as f64),
        ("core.program.size_bytes", bytes as f64),
        ("core.program.stage_sum_ratio", median(&ratio)),
        ("api.load_scheduler_us", median(&load_us)),
        ("api.set_scheduler_us", median(&bind_us)),
    ]);
    optimized
}

/// The registered per-layer metric `<prefix><suffix>`, if there is one:
/// only the seven paper schedulers and the three fixtures have their own.
fn layer_name(prefix: &str, suffix: &str) -> Option<&'static str> {
    crate::metrics::per_layer(&format!("{prefix}{suffix}")).map(|m| m.name)
}

/// One upcall on each backend, over every (program, fixture) pair;
/// `optimized` holds the programs behind `core.vm.upcall_ns.opt`.
fn upcall_probe(
    opts: &RunOptions,
    optimized: &micro::Programs,
    checks: &mut Checks,
    out: &mut Metrics,
) {
    let plain = micro::programs(progmp_core::compile);
    let fixtures = micro::fixtures(opts.seed);
    const VM: usize = 2;
    let mut backends = [
        (
            "core.interp.upcall_ns",
            micro::instances(&plain, Backend::Interpreter),
        ),
        ("core.aot.upcall_ns", micro::instances(&plain, Backend::Aot)),
        ("core.vm.upcall_ns", micro::instances(&plain, Backend::Vm)),
        (
            "core.vm.upcall_ns.opt",
            micro::instances(optimized, Backend::Vm),
        ),
    ];
    let n_programs = backends[VM].1.len();
    let n_pairs = n_programs * fixtures.len();

    // Counts first, untimed: steps and retired instructions of one VM
    // upcall per pair; every backend must act as the interpreter does.
    let (mut steps, mut insns) = (0u64, 0u64);
    let mut hits = Vec::new();
    for p in 0..n_programs {
        for (fixture, env) in &fixtures {
            let mut actions = Vec::new();
            for (b, (_, instances)) in backends.iter_mut().enumerate() {
                let (name, budget, inst) = &mut instances[p];
                match micro::upcall_stats(inst, env, *budget) {
                    Ok((n, stats)) => {
                        actions.push(n);
                        if b == VM {
                            steps += stats.steps;
                        }
                    }
                    Err(e) => checks.check(false, || format!("{name}/{fixture}: {e}")),
                }
            }
            checks.check(actions.iter().all(|n| *n == actions[0]), || {
                format!("backends disagree on program {p}/{fixture}: {actions:?} actions")
            });
            let (_, budget, inst) = &backends[VM].1[p];
            let mut ctx = ExecCtx::new(env, *budget);
            hits.clear();
            progmp_core::vm::execute_profiled(inst.program().bytecode(), &mut ctx, &mut hits)
                .expect("shipped scheduler runs on the VM");
            insns += hits.iter().sum::<u64>();
        }
    }

    // Per backend and round: ns per upcall of every (program, fixture).
    let mut rounds: [Vec<Vec<f64>>; 4] = Default::default();
    let mut native_ns = Vec::new();
    let started = Instant::now();
    while native_ns.len() < 2 || started.elapsed().as_secs_f64() < PROBE_SLICE * opts.seconds {
        for (b, (_, instances)) in backends.iter_mut().enumerate() {
            let mut ns = Vec::with_capacity(n_pairs);
            for (_, budget, inst) in instances.iter_mut() {
                for (_, env) in &fixtures {
                    let t0 = Instant::now();
                    for _ in 0..UPCALLS_PER_BLOCK {
                        black_box(micro::upcall(inst, black_box(env), *budget).ok());
                    }
                    ns.push(t0.elapsed().as_nanos() as f64 / UPCALLS_PER_BLOCK as f64);
                }
            }
            rounds[b].push(ns);
        }
        let mut native = NativeMinRtt;
        let t0 = Instant::now();
        for (_, env) in &fixtures {
            for _ in 0..UPCALLS_PER_BLOCK {
                let mut ctx = ExecCtx::new(black_box(env), progmp_core::DEFAULT_STEP_BUDGET);
                native.schedule(&mut ctx).expect("native scheduler runs");
                black_box(ctx.action_count());
            }
        }
        let calls = UPCALLS_PER_BLOCK * fixtures.len();
        native_ns.push(t0.elapsed().as_nanos() as f64 / calls as f64);
    }

    // Per round, the mean over the (program, fixture) pairs `pick` selects.
    let round_means = |b: usize, pick: &dyn Fn(usize, usize) -> bool| -> Vec<f64> {
        rounds[b]
            .iter()
            .map(|ns| {
                let picked: Vec<f64> = (0..n_pairs)
                    .filter(|i| pick(i / fixtures.len(), i % fixtures.len()))
                    .map(|i| ns[i])
                    .collect();
                picked.iter().sum::<f64>() / picked.len() as f64
            })
            .collect()
    };
    for (b, (name, _)) in backends.iter().enumerate() {
        out.push((name, median(&round_means(b, &|_, _| true))));
    }
    for (f, fixture) in FIXTURES.iter().enumerate() {
        let name = layer_name("core.vm.upcall_ns.", fixture).expect("every fixture has a metric");
        out.push((name, median(&round_means(VM, &|_, g| g == f))));
    }
    let mut vm_default_ns = f64::NAN;
    for (p, (program, _, _)) in backends[VM].1.iter().enumerate() {
        if let Some(name) = layer_name("core.vm.upcall_ns.", program) {
            let ns = median(&round_means(VM, &|q, _| q == p));
            if *program == "default" {
                vm_default_ns = ns;
            }
            out.push((name, ns));
        }
    }
    let mut vm_rounds = round_means(VM, &|_, _| true);
    vm_rounds.sort_by(f64::total_cmp);
    let native = median(&native_ns);
    out.extend([
        ("core.vm.upcall_ns_p95", percentile_sorted(&vm_rounds, 95.0)),
        ("core.exec.steps_per_upcall", steps as f64 / n_pairs as f64),
        ("core.vm.insns_per_upcall", insns as f64 / n_pairs as f64),
        ("sim.native.upcall_ns", native),
        ("core.vm.vs_native_ratio", vm_default_ns / native),
    ]);
}

/// The classic hold model on the engine's event queue: with 10 000
/// events pending, pop the earliest and push one a random increment
/// later; nanoseconds per pop + push.
fn calendar_hold_ns(seed: u64) -> f64 {
    const PENDING: usize = 10_000;
    const HOLDS: usize = 200_000;
    let mut rng = ChaosRng::new(seed ^ 0xCA1E_17DA_4B01_D000);
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut queue: CalendarQueue<u32> = CalendarQueue::new();
        for i in 0..PENDING {
            queue.push(rng.below(50_000_000), i as u32);
        }
        let t0 = Instant::now();
        for _ in 0..HOLDS {
            let (at, item) = queue.pop().expect("the queue never drains");
            queue.push(at + 1 + rng.below(50_000_000), item);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / HOLDS as f64);
        black_box(queue.len());
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_span_that_caused_them() {
        let mut tracer = Tracer::new();
        let ((), outer_s) = tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(tracer.spans.len(), 2);
        assert_eq!(tracer.spans[0].parent, None);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert!(tracer.spans[1].start_ns >= tracer.spans[0].start_ns);
        assert!(tracer.spans[1].end_ns <= tracer.spans[0].end_ns);
        assert!(outer_s >= 0.002);
        let doc = tracer.to_json("compile_load", 7);
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn traced_shard_reproduces_run_fleet() {
        let spec = FleetSpec::lossy(true);
        let report = run_fleet(&spec.config(11, 1), |g, s| spec.scenario(g, s));
        let trace = trace_fleet(&spec, 11, &mut Tracer::new());
        assert_eq!(trace.digest, report.digest());
        assert_eq!(trace.events, report.events_processed);
        assert_eq!(trace.incidents as usize, report.incidents.len());
        assert_eq!(trace.unfinished, 0);
    }
}
