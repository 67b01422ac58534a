#!/usr/bin/env bash
# Full local CI: formatting, lints, tests, and a bounded conformance
# sweep. Mirrors what reviewers run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> one flow kernel: jump_target, the widening rule and the worklist are each defined once in crates/core/src, no join-count threshold, no transfer returns whole states"
for def in 'fn jump_target' 'fn widens' 'struct Worklist'; do
  [ "$(grep -rn "$def" crates/core/src | wc -l)" -eq 1 ] || { echo "duplicate or missing definition: $def"; exit 1; }
done
[ -z "$(grep -rlE 'VecDeque|BinaryHeap' crates/core/src)" ] \
  || { echo "a second worklist in crates/core/src (run the analysis on flow::solve)"; exit 1; }
[ "$(grep -rnE 'const [A-Z_]*WIDEN' crates/core/src | cut -d: -f1)" = crates/core/src/verify/dataflow.rs ] \
  || { echo "a join-count widening threshold outside the HIR interpreter (flow::widens widens along back edges only)"; exit 1; }
! grep -rn -A4 'fn transfer' crates/core/src | grep -q -- '-> Vec<' \
  || { echo "a Domain::transfer returns a Vec again (emit edges and their writes into flow::Edges)"; exit 1; }
! grep -rnE 'struct FactState|fn merge_into|Vec<Option<State>>' crates/core/src \
  || { echo "a per-pc whole state or a whole-state join is back (flow::solve keeps one arena and joins sparsely)"; exit 1; }

echo "==> one HIR traversal: view_chain is defined once, aggregate_init is indexed only by it, sema and the stateful refiners, no private resolver survives"
[ "$(grep -rn 'fn view_chain' crates/core/src | wc -l)" -eq 1 ] || { echo "duplicate or missing definition: fn view_chain"; exit 1; }
stray="$(grep -rl 'aggregate_init\[' crates/core/src | grep -vx -e crates/core/src/hir.rs -e crates/core/src/sema.rs -e crates/core/src/verify/dataflow.rs || true)"
[ -z "$stray" ] || { echo "aggregate_init indexed outside hir.rs / sema.rs / verify/dataflow.rs: $stray"; exit 1; }
for gone in 'fn queue_base' 'fn base_fam' 'fn decompose_list' 'fn decompose_queue' 'fn view_info'; do
  ! grep -rq "$gone" crates/core/src || { echo "private view-chain resolver is back: $gone"; exit 1; }
done
! grep -q 'HExpr::QueueSum' crates/core/src/verify/lints.rs crates/core/src/optimizer.rs crates/core/src/verify/props.rs \
  || { echo "a walker spells out every HExpr variant again (use HProgram::children)"; exit 1; }

echo "==> a scheduler instance is a handle: no per-connection image, closure graph or counters in crates/core/src"
for gone in 'fn specialize_subflow_count' 'enum BackendState' 'struct InstanceStats' 'Rc<dyn Fn'; do
  ! grep -rqF "$gone" crates/core/src || { echo "a SchedulerInstance owns compiled state again: $gone"; exit 1; }
done

echo "==> transport cost independent of backlog: no whole-queue scan of Q or of a path's departure FIFO"
! grep -nE 'self\.q\.retain\(|departures\.retain|departures\.iter\(\)\.filter' crates/sim/src/connection.rs crates/sim/src/path.rs \
  || { echo "a linear scan is back on the send/ack path (Q ascends in seq, departures never descend: remove by position)"; exit 1; }

echo "==> one scheduler-fault route, one connection clock: the oracle has no containment mode, Supervisor::on_fault and check_properties each have one call in engine.rs, a connection's clock at most two writes"
! grep -rnE 'contain_scheduler_faults|pending_faults|take_pending_faults|report_scheduler_fault' crates/ \
  || { echo "the oracle knows about containment again (the engine routes, the oracle only observes: Sim::scheduler_fault)"; exit 1; }
for call in '\.on_fault(' 'check_properties('; do
  [ "$(grep -c "$call" crates/sim/src/engine.rs)" -eq 1 ] || { echo "engine.rs must call $call exactly once (Sim::scheduler_fault / Sim::run_round)"; exit 1; }
done
[ "$(grep -cE '(connections\[[^]]*\]|\bc)\.now = ' crates/sim/src/engine.rs)" -le 2 ] \
  || { echo "a connection's clock is written in Sim::step and, for the quiescence path of run_to_completion, in Sim::run_scheduler: nowhere else"; exit 1; }

echo "==> a connection handles its own events: no transport handler, transmit or timer scheduling on Sim, no outcome structs, one dispatch call"
! grep -nE 'fn (handle_|transmit\b|schedule_timers)' crates/sim/src/engine.rs \
  || { echo "a transport handler is back on Sim (it belongs on the Connection, Subflow, bulk source or path manager it mutates)"; exit 1; }
! grep -rnwE 'AckOutcome|Transmitted|bulk_sources|path_managers' crates/ src/ tests/ examples/ \
  || { echo "the engine unpacks a connection's decision again, or keeps per-connection state in a fleet-global table"; exit 1; }
[ "$(grep -c 'self\.dispatch(' crates/sim/src/engine.rs)" -eq 1 ] \
  || { echo "Sim::dispatch must be called from Sim::step only (a second call site measured 5 % slower on fleet_bulk)"; exit 1; }

echo "==> one verifier configuration, no miscompile field: CompileOptions is three choices, the sabotaged passes are unit-test code"
! grep -rnE 'relational_domain|opt_sabotage|prop_weakening|compile_observed_relational|verify_properties_weakened' crates/ src/ tests/ examples/ \
  || { echo "a caller can ask for a weaker verifier, a miscompile or a false certificate again"; exit 1; }
! grep -rn 'Sabotage' crates/conformance crates/core/src/opt/{sccp,cse,licm,peephole,dce}.rs \
  || { echo "a pass takes a sabotage parameter again (swap a pass in the table: crates/core/src/opt/mod.rs tests)"; exit 1; }
[ "$(sed -n '/^pub struct CompileOptions {/,/^}/p' crates/core/src/program.rs | grep -c '^    pub ')" -eq 3 ] \
  || { echo "CompileOptions must declare exactly three pub fields (optimize, enforce_admission, optimize_bytecode)"; exit 1; }

echo "==> a fleet's report does not depend on its shards: no fleet breaker, no incident filter, the containment record on the Connection, ContainmentConfig is four tunables"
! grep -rnE 'fleet_breaker|take_breaker_trip|FleetBreakerTripped|set_panic_on_violation|canonical_incidents|OracleMode::Panic' crates/ src/ tests/ examples/ \
  || { echo "a containment decision or a report depends on how the fleet was sharded again"; exit 1; }
! grep -nE '^ +(pub )?conns:|fn register' crates/sim/src/supervisor.rs \
  || { echo "the supervisor keeps a per-connection table again (the record is Connection::contain)"; exit 1; }
[ "$(sed -n '/^pub struct ContainmentConfig {/,/^}/p' crates/sim/src/supervisor.rs | grep -c '^    pub ')" -eq 4 ] \
  || { echo "ContainmentConfig must declare exactly four pub fields (base_backoff, max_backoff, max_strikes, stall_check_interval)"; exit 1; }

echo "==> a source compiles once per process: one program table behind SchedulerSpec::Dsl, none per Sim, none private, none in the compile pipeline"
! grep -rnE 'loaded_programs|OnceLock<SchedulerProgram>' crates/ src/ tests/ examples/ \
  || { echo "a second program table is back (SchedulerSpec::Dsl resolves through config::load)"; exit 1; }
[ "$(grep -rn 'HashMap<String, SchedulerProgram>' crates/sim/src | wc -l)" -eq 1 ] \
  || { echo "crates/sim/src must declare exactly one HashMap<String, SchedulerProgram> (config::PROGRAMS)"; exit 1; }
! grep -nE '^ *(pub(\([a-z]+\))? )?static ' crates/core/src/program.rs \
  || { echo "crates/core/src/program.rs declares a static: progmp_core::compile, which compile_load times, must stay uncached"; exit 1; }

echo "==> a scheduler is installed one way: SchedulerSpec names it, Installed::resolve builds it, the oracle arms the running program's own certificate"
! grep -rn 'cert_override' crates/ src/ tests/ examples/ \
  || { echo "a certificate override is back (forge a program with SchedulerProgram::with_property_certificate and bind it through SchedulerSpec::Program)"; exit 1; }
! grep -nwE 'Installed|SchedulerHandle' crates/sim/src/lib.rs \
  || { echo "mptcp_sim re-exports Installed or SchedulerHandle again (callers name a scheduler with SchedulerSpec)"; exit 1; }
! grep -rn 'Installed::new' crates/ src/ tests/ examples/ \
  || { echo "Installed::new is back (Installed::resolve builds every install)"; exit 1; }
[ "$(for f in crates/sim/src/*.rs; do awk '/#\[cfg\(test\)\]/{exit} /Installed \{/ && !/(struct|impl) Installed \{/' "$f"; done | wc -l)" -eq 1 ] \
  || { echo "an Installed is built outside Installed::resolve in crates/sim/src"; exit 1; }

echo "==> one step bound: the HIR cost model times one constant, checked against the bytecode model with no slack, no floor, no O(1) loop exemption; VerifyConfig is three caps"
! grep -rnE 'cost_safety_factor|TRANSLATION_SLACK|MIN_BOUND|o1_equivalent' crates/ src/ \
  || { echo "a step-bound fudge factor is back (certified bound = HIR model x K in verify/cost.rs; the bytecode model must stay under it)"; exit 1; }
[ "$(sed -n '/^pub struct VerifyConfig {/,/^}/p' crates/core/src/verify/mod.rs | grep -c '^    pub ')" -eq 3 ] \
  || { echo "VerifyConfig must declare exactly three pub fields (max_subflows, max_queue_len, max_scan_depth)"; exit 1; }

echo "==> a round is skipped only on its program's own guard: Quiescence::holds defined once in crates/core/src, called once in engine.rs, no elision option"
[ "$(grep -rn 'fn holds(&self, env: &dyn SchedulerEnv)' crates/core/src | wc -l)" -eq 1 ] \
  || { echo "Quiescence::holds must be defined exactly once under crates/core/src (the one evaluation of a guard)"; exit 1; }
[ "$(grep -c '\.holds(' crates/sim/src/engine.rs)" -eq 1 ] \
  || { echo "engine.rs must evaluate a quiescence guard in exactly one place (run_scheduler)"; exit 1; }
for spec in 'crates/core/src/program.rs:CompileOptions' 'crates/sim/src/config.rs:ConnectionConfig' 'crates/sim/src/fleet.rs:FleetConfig'; do
  ! sed -n "/^pub struct ${spec#*:} {/,/^}/p" "${spec%%:*}" | grep -iE '^ *pub [a-z_]*(elid|quiescen)' \
    || { echo "${spec#*:} has a field that switches quiescent-round skipping (it is always on)"; exit 1; }
done

echo "==> one abstract domain product: no octagon"
! grep -rnE 'Octagon|struct Oct\b|fn oct_|MAX_OCT_VARS|OctagonDropRelations|fn initial_with' crates/ src/ \
  || { echo "a relational domain is back in the HIR verifier (its state is interval x nullability x emptiness)"; exit 1; }

echo "==> a verified image runs unchecked and unmoved: one VM run loop, no checked register access, no heap frame, loop-aware liveness, a generator that never asks the allocator"
! grep -rn 'reg_mut' crates/core/src \
  || { echo "a checked register accessor is back in the VM (vm::verify establishes the ranges; the run loop masks)"; exit 1; }
[ "$(grep -c 'fn run\b' crates/core/src/vm.rs)" -eq 1 ] \
  || { echo "crates/core/src/vm.rs must define exactly one run loop (generic over its profiler)"; exit 1; }
! sed -n '/^pub struct ExecScratch {/,/^}/p' crates/core/src/exec.rs | grep -q 'frame' \
  || { echo "ExecScratch owns a VM frame again (the frame is a fixed array on the Rust stack)"; exit 1; }
! grep -q 'live anywhere in' crates/core/src/regalloc.rs \
  || { echo "regalloc stretches every vreg touched in a loop to its back edge again (extend only what is live into the head)"; exit 1; }
! awk '/#\[cfg\(test\)\]/{exit} {print}' crates/conformance/src/gen.rs | grep -qE 'Stage::Codegen|compile_observed' \
  || { echo "the generator retries on a compile outcome again (a seed's program must not depend on the register allocator)"; exit 1; }

echo "==> a helper call is one instruction: no argument-register zeroing, no allocatable window, no r1-r5 clobber in an analysis, steps charged per block"
! grep -nF 'regs[1..6]' crates/core/src/vm.rs \
  || { echo "the VM clears argument registers after a call again (a call writes its dst only)"; exit 1; }
! grep -rn 'FIRST_ALLOCATABLE' crates/ src/ \
  || { echo "the allocator has a fixed window of call-preserved registers again (it hands out r0-r9 less SCRATCH)"; exit 1; }
! grep -nF '(1..=5)' crates/core/src/verify/vm.rs crates/core/src/opt/analysis.rs \
  || { echo "an analysis models a call clobbering r1-r5 again (a call writes its dst only)"; exit 1; }
! grep -nF 'ctx.step(1)' crates/core/src/vm.rs \
  || { echo "the VM charges a step per instruction again (charge a run's length on entering it)"; exit 1; }

echo "==> one pass decides each program fact: POP-site emptiness from the admission analyzer, one work-conservation walker, one loop detector, one static audit per compile"
for gone in 'struct ReinjAnalysis' 'fn scan_pops' 'fn all_paths_push' 'fn loop_depths'; do
  ! grep -rn "$gone" crates/core/src \
    || { echo "a second derivation of a program fact is back: $gone (dataflow::Analyzer classifies POP sites, WcAnalysis::walk walks paths, flow.rs finds loops)"; exit 1; }
done
[ "$(grep -cE '\banalyze\(' crates/core/src/verify/vm.rs)" -eq 1 ] \
  && sed -n '/^pub fn validate_translation(/,/^}/p' crates/core/src/verify/vm.rs | grep -qE '\banalyze\(' \
  || { echo "verify/vm.rs audits the HIR outside validate_translation (validate reads the admission verdict's audit)"; exit 1; }

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> cargo test"
cargo test -q --workspace

echo "==> admission lint (examples + all bundled schedulers)"
cargo run -q --release -p progmp --bin progmp-lint -- examples/schedulers/*.progmp
cargo run -q --release -p progmp --bin progmp-lint -- --all

echo "==> bytecode verification lint (all bundled schedulers; output elided)"
cargo run -q --release -p progmp --bin progmp-lint -- --bytecode --all > /dev/null

echo "==> optimizer reports + on-demand listing of the optimized images (all bundled schedulers; output elided)"
cargo run -q --release -p progmp --bin progmp-lint -- --optimize --all > /dev/null

echo "==> property certificates (all bundled schedulers; output elided)"
cargo run -q --release -p progmp --bin progmp-lint -- --properties --all > /dev/null

echo "==> one sweep vocabulary: the sweep loop, report, violation and all_caught are each defined at most once in crates/conformance/src"
for def in 'fn sweep' 'struct .*SweepReport' 'struct .*Violation' 'fn all_caught'; do
  [ "$(grep -rn "$def" crates/conformance/src | wc -l)" -le 1 ] || { echo "a tier grew its own copy of: $def (use tier.rs)"; exit 1; }
done

echo "==> one generated case per seed: three tiers, three check_seeds, one program generator"
[ "$(grep -c '^    Tier {$' crates/conformance/src/tier.rs)" -eq 3 ] \
  || { echo "TIERS must have three rows (program, chaos, fleet-chaos): ask a new per-program question in program.rs"; exit 1; }
[ "$(grep -rn 'fn check_seed' crates/conformance/src | wc -l)" -eq 3 ] \
  || { echo "fn check_seed must be defined exactly three times under crates/conformance/src (one per tier)"; exit 1; }
! grep -rnwE 'GenConfig|with_config' crates/ src/ tests/ examples/ \
  || { echo "the generator grew tunables again (its limits are constants of gen.rs)"; exit 1; }
[ ! -e crates/core/tests/backend_equivalence.rs ] \
  || { echo "a second program generator is back: crates/core/tests/backend_equivalence.rs (the program tier checks its properties)"; exit 1; }

echo "==> the optimizer is checked once and recorded once: a program claim, the optimized_*.snap goldens, one xorshift64*, no strict mode"
! grep -rnE 'opt_soundness|strict_optimize|measure_all|meta_json|NativeRoundRobin|set_step_budget' crates/ src/ tests/ examples/ \
  || { echo "a second check or record of the bytecode optimizer, or dead public code, is back (the check is program.rs, the record optimized_*.snap)"; exit 1; }
! grep -q '"optimizer"' BENCH_scale.json \
  || { echo "BENCH_scale.json records the optimizer again (the scale fleet never runs optimized images)"; exit 1; }
[ "$(grep -rn '0x2545_F491_4F6C_DD1D' crates/ | wc -l)" -eq 1 ] \
  || { echo "xorshift64* must be defined once under crates/ (mptcp_sim::ChaosRng)"; exit 1; }

echo "==> conformance-fuzz: every tier at its CI seed count, seeds sharded over the cores"
cargo build -q --release -p progmp-conformance --bin conformance-fuzz
./target/release/conformance-fuzz

echo "==> containment regression suite (supervisor + end-to-end fault classes)"
cargo test -q --release -p mptcp-sim --test containment

echo "==> one experiment vocabulary: two bench binaries, no per-experiment ok()/smoke switch, every experiment keyed in EXPERIMENTS.md"
[ "$(ls crates/bench/src/bin | xargs)" = "progmp_exp.rs scale_fleet.rs" ] || { echo "crates/bench/src/bin/ holds more than progmp_exp.rs and scale_fleet.rs (add a row to EXPERIMENTS instead)"; exit 1; }
stray="$(grep -rlE 'fn ok\(|smoke\(\)' crates/bench/src | grep -v scale || true)"
[ -z "$stray" ] || { echo "a private ok() or a smoke() switch is back in: $stray (shapes go through Shape, experiments have one size)"; exit 1; }
for name in $(sed -n 's/^        name: "\(.*\)",$/\1/p' crates/bench/src/experiment.rs); do
  grep -q "^#.*\`$name\`" EXPERIMENTS.md || { echo "EXPERIMENTS.md has no section keyed \`$name\`"; exit 1; }
done

echo "==> paper tier: every experiment at full size, deterministic shapes equal to the committed BENCH_paper.json"
cargo build -q --release -p progmp-bench --bins
paper_out="$(mktemp)"
./target/release/progmp-exp --json "$paper_out" --against BENCH_paper.json | tail -n 1
rm -f "$paper_out"

echo "==> scale tier: full scale_fleet sweep, events, digests, executions and steps equal to the committed BENCH_scale.json"
scale_out="$(mktemp)"
./target/release/scale_fleet --json "$scale_out" --against BENCH_scale.json | tail -n 1

echo "==> fleet memory does not grow with fleet size: the 10k x 1 row peaks at no more than twice the 1k x 1 row's RSS"
rss_of() { grep -o "{\"connections\":$1,\"workers\":1,[^}]*" "$scale_out" | grep -o '"peak_rss_bytes":[0-9]*' | cut -d: -f2; }
rss_1k="$(rss_of 1000)"; rss_10k="$(rss_of 10000)"
[ -n "$rss_1k" ] && [ -n "$rss_10k" ] && [ "$rss_10k" -le $((2 * rss_1k)) ] \
  || { echo "peak RSS 10k x 1: ${rss_10k:-?} B, 1k x 1: ${rss_1k:-?} B (a fleet keeps every connection's state until it ends again)"; exit 1; }
rm -f "$scale_out"

echo "==> fleet soak: 1k connections, oracle armed, zero violations"
cargo test -q --release -p progmp-conformance --test fleet_soak -- --ignored

# benchmark/ is a workspace of its own, so nothing above builds it: an
# API change under crates/ or src/ that breaks it would otherwise only
# show when the benchmark is next run.
echo "==> repo benchmark: builds against this tree, unit tests pass"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> repo benchmark: every workload at smoke size, all checks pass"
benchmark/run.sh --smoke | tail -n 1

echo "CI green"
