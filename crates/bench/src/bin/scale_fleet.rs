//! The scale-benchmark tier: batched fleet sweeps over
//! `{1,10,100,1k,10k,100k}` connections × worker counts × all seven paper
//! schedulers, with the invariant oracle armed in collect mode.
//!
//! Output is the machine-readable `BENCH_scale.json` (validated by
//! `progmp_bench::scale` unit tests and re-checked here after every
//! run); the committed copy at the repo root is the performance
//! trajectory baseline that future engine changes diff against.
//!
//! Flags: `--json PATH` chooses the output file (default
//! `BENCH_scale.json`); `--against PATH` additionally fails the run
//! unless every row's event count, fleet digest, scheduler executions
//! and scheduler steps equal the row with the same key in that
//! (committed) file; `--smoke` runs a reduced sweep
//! that is written only where `--json` says, never over the trajectory.

use progmp_bench::report::Json;
use progmp_bench::scale::{check_against_committed, run_scale, validate_scale_report, ScaleConfig};
use std::path::PathBuf;

/// Whether the binary was invoked with `--smoke`: run the reduced
/// CI-speed sweep instead of the full one.
fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// The path following `flag` on the command line, if given.
fn path_arg(flag: &str) -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next().map(PathBuf::from);
        }
    }
    None
}

fn main() {
    let cfg = if smoke() {
        ScaleConfig::smoke()
    } else {
        ScaleConfig::full()
    };
    println!(
        "=== scale tier: fleet sweep {:?} connections x {:?} workers ({} mode) ===\n",
        cfg.sizes, cfg.workers, cfg.mode,
    );
    let report = run_scale(&cfg, &mut |line| println!("{line}"));

    let text = report.render();
    let doc = Json::parse(&text).expect("own report parses");
    validate_scale_report(&doc).expect("schema-valid scale report");

    let default_path = (!smoke()).then(|| "BENCH_scale.json".into());
    if let Some(path) = path_arg("--json").or(default_path) {
        std::fs::write(&path, &text).expect("write scale report");
        println!("\nwrote {} (schema-valid)", path.display());
    }

    if let Some(path) = path_arg("--against") {
        let committed = std::fs::read_to_string(&path).expect("read the committed scale report");
        let committed = Json::parse(&committed).expect("committed scale report parses");
        validate_scale_report(&committed).expect("schema-valid committed scale report");
        if let Err(e) = check_against_committed(&doc, &committed) {
            eprintln!("behaviour or effort differs from {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "events, digests, executions and steps match {}",
            path.display()
        );
    }
}
