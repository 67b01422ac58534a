//! Driver over the experiments in [`progmp_bench::experiment`].
//!
//! ```text
//! progmp-exp [--exp NAME]... [--json PATH] [--against PATH]
//! ```
//!
//! Runs each named experiment (every experiment when none is named), in
//! table order, at the size EXPERIMENTS.md quotes and prints its tables
//! and shape checks. `--json PATH` writes the run as a `BENCH_paper.json` report;
//! `--against PATH` additionally fails the run unless every
//! deterministic shape's measured value and verdict equal the committed
//! file's. Exits 0 when the report is valid and matches, 1 otherwise, 2
//! on a usage error.

use progmp_bench::experiment::{self, check_against_committed, validate_paper_report, EXPERIMENTS};
use progmp_bench::report::Json;
use std::path::PathBuf;
use std::time::Instant;

fn usage(problem: &str) -> ! {
    eprintln!("progmp-exp: {problem}");
    eprintln!("usage: progmp-exp [--exp NAME]... [--json PATH] [--against PATH]");
    eprintln!("experiments:");
    for e in &EXPERIMENTS {
        eprintln!("  {:<30} {}", e.name, e.paper_ref.unwrap_or("-"));
    }
    std::process::exit(2);
}

fn fail(problem: String) -> ! {
    eprintln!("progmp-exp: {problem}");
    std::process::exit(1);
}

fn main() {
    let mut names: Vec<&'static str> = Vec::new();
    let (mut json_out, mut against) = (None::<PathBuf>, None::<PathBuf>);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--exp" => match experiment::find(&value) {
                Some(e) => names.push(e.name),
                None => usage(&format!("unknown experiment {value:?}")),
            },
            "--json" => json_out = Some(value.into()),
            "--against" => against = Some(value.into()),
            _ => usage(&format!("unknown option {flag}")),
        }
    }

    let began = Instant::now();
    let mut ran = Vec::new();
    for exp in &EXPERIMENTS {
        if !names.is_empty() && !names.contains(&exp.name) {
            continue;
        }
        println!("=== {} ({}) ===", exp.name, exp.paper_ref.unwrap_or("-"));
        println!("{}\n", exp.about);
        let outcome = (exp.run)();
        println!("{outcome}");
        ran.push((exp, outcome));
    }
    let text = experiment::render(&ran).render();
    let doc = Json::parse(&text).expect("own report parses");
    if let Err(e) = validate_paper_report(&doc) {
        fail(format!("this run is not a valid paper report: {e}"));
    }
    println!(
        "{} experiment(s) in {:.1} s",
        ran.len(),
        began.elapsed().as_secs_f64()
    );
    if let Some(path) = json_out {
        std::fs::write(&path, &text)
            .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
        println!("wrote {} (schema-valid)", path.display());
    }
    if let Some(path) = against {
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .and_then(|doc| validate_paper_report(&doc).map(|()| doc))
            .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
        if let Err(e) = check_against_committed(&doc, &committed) {
            fail(format!("differs from {}: {e}", path.display()));
        }
        println!("deterministic shapes match {}", path.display());
    }
}
