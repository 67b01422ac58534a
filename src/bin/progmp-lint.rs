//! Admission-verifier lint driver.
//!
//! ```text
//! progmp-lint [--json] [--inspect] [--bytecode] <file.progmp | scheduler-name>...
//! progmp-lint [--json] [--inspect] [--bytecode] --all
//! ```
//!
//! Each argument is either a path to a scheduler source file or the name
//! of a bundled scheduler (e.g. `minRttSimple`, `tap` — see
//! `progmp_schedulers::sources::ALL`). `--all` lints every bundled
//! scheduler. Programs are compiled in *observe* mode so diagnostics are
//! reported even for programs the enforcing admission gate would reject.
//!
//! * default: human-readable verdicts (severity, lint name, source span,
//!   certified step bound);
//! * `--json`: one JSON object per program, machine-readable;
//! * `--inspect`: additionally print the static audit report
//!   (`progmp_core::analysis`) next to each verdict, ending in the
//!   certified quiescence guard (`quiescent when: Q,RQ empty | no subflow
//!   available`, or `never`; see `progmp_core::verify::props`);
//! * `--bytecode`: additionally print the bytecode verifier's verdict
//!   and annotated register-state listing — each instruction with its
//!   source span and the abstract values (intervals, handle kinds,
//!   nullability) the dataflow verifier inferred on entry. The bytecode
//!   verdict participates in the exit status like the admission verdict.
//! * `--optimize`: run the verified bytecode optimizer and print the
//!   per-pass rewrite counts, instruction count before/after, step bound
//!   before/after, any `misoptimization` rollback diagnostics, and the
//!   annotated disassembly of the *optimized* image. With `--json`, the
//!   report appears as an `"optimizer"` object on each program entry.
//! * `--properties`: additionally derive and print the semantic property
//!   certificate (work-conservation, per-subflow starvation, redundancy
//!   bound, reinjection safety; see `progmp_core::verify::props`). A
//!   *refuted* property counts as a warning-class finding; with `--json`
//!   the certificate appears as a `"properties"` object on each entry.
//! * `--strict-warnings`: exit `2` when the run is otherwise clean but
//!   any program produced warning-severity findings (including refuted
//!   properties under `--properties`) — lets CI gate on warnings without
//!   conflating them with rejects.
//!
//! Exit status: `0` when every program is admitted and (under
//! `--strict-warnings`) warning-free, `1` when any program has
//! error-severity findings or fails to compile, `2` when clean of errors
//! but a warning was reported and `--strict-warnings` is set, `64` on
//! usage errors.

use std::process::ExitCode;

use progmp_core::{compile_with_options, CompileOptions, Severity};

struct Options {
    json: bool,
    inspect: bool,
    bytecode: bool,
    optimize: bool,
    properties: bool,
    strict_warnings: bool,
    targets: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: progmp-lint [--json] [--inspect] [--bytecode] [--optimize] [--properties] [--strict-warnings] <file.progmp | scheduler-name>...\n\
         \x20      progmp-lint [... same flags ...] --all\n\
         \n\
         flags:\n\
         \x20 --json             machine-readable output, one JSON object per program\n\
         \x20 --inspect          also print the static audit report\n\
         \x20 --bytecode         also run and print the bytecode verifier\n\
         \x20 --optimize         run the verified bytecode optimizer and report per-pass counts\n\
         \x20 --properties       derive and print the semantic property certificate\n\
         \x20                    (work-conservation, starvation, redundancy bound, reinjection)\n\
         \x20 --strict-warnings  exit 2 when clean of errors but warnings were reported\n\
         \n\
         exit status: 0 clean; 1 admission/bytecode reject or compile error;\n\
         \x20            2 warnings under --strict-warnings; 64 usage error\n\
         \n\
         bundled scheduler names:"
    );
    for (name, _) in progmp_schedulers::sources::ALL {
        eprintln!("  {name}");
    }
    ExitCode::from(64)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        json: false,
        inspect: false,
        bytecode: false,
        optimize: false,
        properties: false,
        strict_warnings: false,
        targets: Vec::new(),
    };
    let mut all = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--inspect" => opts.inspect = true,
            "--bytecode" => opts.bytecode = true,
            "--optimize" => opts.optimize = true,
            "--properties" => opts.properties = true,
            "--strict-warnings" => opts.strict_warnings = true,
            "--all" => all = true,
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with("--") => return Err(usage()),
            other => opts.targets.push(other.to_string()),
        }
    }
    if all {
        opts.targets.extend(
            progmp_schedulers::sources::ALL
                .iter()
                .map(|(name, _)| name.to_string()),
        );
    }
    if opts.targets.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

/// Resolves a target to `(display name, source text)`: bundled scheduler
/// names take precedence, anything else is read as a file path.
fn resolve(target: &str) -> Result<(String, String), String> {
    if let Some(src) = progmp_schedulers::source(target) {
        return Ok((target.to_string(), src.to_string()));
    }
    match std::fs::read_to_string(target) {
        Ok(src) => Ok((target.to_string(), src)),
        Err(e) => Err(format!(
            "{target}: not a bundled scheduler name and unreadable as a file: {e}"
        )),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    let mut failed = false;
    let mut warned = false;
    let mut first = true;
    if opts.json {
        println!("[");
    }
    for target in &opts.targets {
        if opts.json && !first {
            println!(",");
        }
        first = false;
        let (name, source) = match resolve(target) {
            Ok(pair) => pair,
            Err(msg) => {
                failed = true;
                if opts.json {
                    print!(
                        "{{\"name\":\"{}\",\"error\":\"{}\"}}",
                        json_escape(target),
                        json_escape(&msg)
                    );
                } else {
                    eprintln!("error: {msg}");
                }
                continue;
            }
        };
        let compiled = compile_with_options(
            Some(&name),
            &source,
            CompileOptions {
                enforce_admission: false,
                optimize_bytecode: opts.optimize,
                ..CompileOptions::default()
            },
        );
        match compiled {
            Ok(program) => {
                let verdict = program.verdict();
                if !verdict.admitted() {
                    failed = true;
                }
                if verdict.count(Severity::Warning) > 0 {
                    warned = true;
                }
                if opts.properties {
                    // A refuted property surfaces as a warning-severity
                    // diagnostic: it never gates admission, but it does
                    // trip `--strict-warnings`.
                    let cert = program.property_certificate();
                    if cert
                        .diagnostics()
                        .iter()
                        .any(|d| d.severity == Severity::Warning)
                    {
                        warned = true;
                    }
                }
                if opts.json {
                    let mut obj = verdict.render_json(&name);
                    if let Some(report) = program.opt_report() {
                        // Splice the optimizer report into the verdict
                        // object as an "optimizer" key.
                        let trimmed = obj.trim_end().strip_suffix('}').unwrap().to_string();
                        obj = format!("{trimmed},\"optimizer\":{}}}", report.render_json());
                    }
                    if opts.properties {
                        let trimmed = obj.trim_end().strip_suffix('}').unwrap().to_string();
                        obj = format!(
                            "{trimmed},\"properties\":{}}}",
                            program.property_certificate().render_json()
                        );
                    }
                    print!("{obj}");
                } else {
                    println!("{}", verdict.render_human(&name));
                    if opts.properties {
                        print!("{}", program.property_certificate().render_human(&name));
                        println!();
                    }
                }
                if opts.optimize && !opts.json {
                    if let Some(report) = program.opt_report() {
                        println!("--- optimizer: {name} ---");
                        print!("{}", report.render_human());
                        println!("--- optimized disassembly: {name} ---");
                        println!("{}", program.bytecode_report());
                    }
                }
                if opts.inspect && !opts.json {
                    println!("--- static audit: {name} ---");
                    println!("{}", program.analyze());
                    println!("quiescent when:     {}", program.quiescence().render());
                    println!();
                }
                if opts.bytecode {
                    let bv = program.bytecode_verdict();
                    if !bv.admitted() {
                        failed = true;
                    }
                    if bv.count(Severity::Warning) > 0 {
                        warned = true;
                    }
                    if !opts.json {
                        println!("--- bytecode verification: {name} ---");
                        println!("{}", program.bytecode_report());
                    }
                }
            }
            Err(e) => {
                failed = true;
                if opts.json {
                    print!(
                        "{{\"name\":\"{}\",\"error\":\"{}\"}}",
                        json_escape(&name),
                        json_escape(&e.to_string())
                    );
                } else {
                    eprintln!("{name}: COMPILE ERROR: {e}");
                }
            }
        }
    }
    if opts.json {
        println!("\n]");
    }
    if failed {
        ExitCode::from(1)
    } else if opts.strict_warnings && warned {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
