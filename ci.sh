#!/usr/bin/env bash
# Full local CI: formatting, lints, tests, and a bounded conformance
# sweep. Mirrors what reviewers run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> one flow kernel: jump_target and WIDEN_AFTER are each defined once in crates/core/src"
for def in 'fn jump_target' 'const WIDEN_AFTER'; do
  [ "$(grep -rn "$def" crates/core/src | wc -l)" -eq 1 ] || { echo "duplicate or missing definition: $def"; exit 1; }
done

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

echo "==> conformance sweep (500 seeds, all backends)"
cargo run -q --release -p progmp-conformance --bin conformance-fuzz -- --seeds 500

echo "==> verifier-soundness sweep (500 seeds)"
cargo run -q --release -p progmp-conformance --bin conformance-fuzz -- --soundness --seeds 500

echo "==> verifier-soundness sweep, octagon disabled (500 seeds)"
cargo run -q --release -p progmp-conformance --bin conformance-fuzz -- --soundness --no-octagon --seeds 500

echo "==> bytecode-verifier soundness sweep + codegen-mutation check (500 seeds)"
cargo run -q --release -p progmp-conformance --bin conformance-fuzz -- --vm-soundness --seeds 500

echo "==> optimizer-soundness sweep + per-pass sabotage check (1000 seeds)"
cargo run -q --release -p progmp-conformance --bin conformance-fuzz -- --opt-soundness --seeds 1000

echo "==> property-soundness sweep + analysis-weakening check (500 seeds)"
cargo run -q --release -p progmp-conformance --bin conformance-fuzz -- --prop-soundness --seeds 500

echo "==> property-soundness sweep, octagon disabled (500 seeds)"
cargo run -q --release -p progmp-conformance --bin conformance-fuzz -- --prop-soundness --no-octagon --seeds 500

echo "==> chaos sweep: fault plans x schedulers x backends + oracle mutation check (200 plans)"
cargo run -q --release -p progmp-conformance --bin conformance-fuzz -- --chaos --seeds 200

echo "==> fleet-chaos containment sweep: faulting fleets at 1/2/8 workers (100 fleets of 8)"
cargo run -q --release -p progmp-conformance --bin conformance-fuzz -- --chaos --fleet 8 --seeds 100

echo "==> containment regression suite (supervisor + end-to-end fault classes)"
cargo test -q --release -p mptcp-sim --test containment

echo "==> bench smoke: every experiment binary in --smoke mode"
cargo build -q --release -p progmp-bench --bins
for bin in crates/bench/src/bin/*.rs; do
  name="$(basename "$bin" .rs)"
  echo "    -> $name --smoke"
  "./target/release/$name" --smoke > /dev/null
done

echo "==> scale tier: full scale_fleet sweep, events and digests equal to the committed BENCH_scale.json"
scale_out="$(mktemp)"
./target/release/scale_fleet --json "$scale_out" --against BENCH_scale.json | tail -n 1
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
