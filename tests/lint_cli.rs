//! Integration tests for the `progmp-lint` binary: exit-code contract
//! (0 clean / 1 reject / 2 warnings under `--strict-warnings` / 64 usage
//! error) and the `--properties` certificate output in both renderings.

use std::path::PathBuf;
use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_progmp-lint"))
        .args(args)
        .output()
        .expect("failed to spawn progmp-lint")
}

fn example(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/schedulers")
        .join(name);
    path.to_str().expect("utf-8 path").to_string()
}

#[test]
fn clean_scheduler_exits_zero() {
    let out = lint(&["minRttSimple"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("minRttSimple: ADMITTED"));
}

#[test]
fn rejected_program_exits_one() {
    // An unguarded POP whose packet is pushed on a provably-NULL subflow
    // is an admission error even in observe mode.
    let dir = std::env::temp_dir().join("progmp_lint_cli_reject");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.progmp");
    std::fs::write(&path, "NULL.PUSH(Q.POP());\n").unwrap();
    let out = lint(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn usage_error_exits_sixtyfour() {
    let out = lint(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(64));
    // `--strict` qualifies `--optimize`; alone it must not be ignored.
    let out = lint(&["--strict", "minRttSimple"]);
    assert_eq!(out.status.code(), Some(64));
    let out = lint(&["--optimize", "--strict", "minRttSimple"]);
    assert_eq!(out.status.code(), Some(0));
    let out = lint(&[]);
    assert_eq!(out.status.code(), Some(64));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("--strict-warnings"),
        "help must document the flag"
    );
    assert!(
        stderr.contains("exit status"),
        "help must document exit codes"
    );
}

#[test]
fn strict_warnings_escalates_warning_findings_to_exit_two() {
    // `starver` is ADMITTED (exit 0 by default) but its property
    // certificate refutes subflow-starvation, a warning-class finding.
    let starver = example("starver.progmp");
    let out = lint(&["--properties", &starver]);
    assert_eq!(out.status.code(), Some(0), "refutations alone never reject");
    let out = lint(&["--properties", "--strict-warnings", &starver]);
    assert_eq!(out.status.code(), Some(2));
    // Without --properties the certificate is not derived for gating, so
    // the same program stays clean under --strict-warnings.
    let out = lint(&["--strict-warnings", &starver]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn properties_human_output_carries_spanned_witness() {
    let starver = example("starver.progmp");
    let out = lint(&["--properties", &starver]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("property certificate"));
    assert!(
        stdout.contains("subflow-starvation: REFUTED"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("witness at 10:5"),
        "witness must be anchored to the PUSH site: {stdout}"
    );
    assert!(stdout.contains("allowed-ids: {0}"));
}

#[test]
fn properties_json_is_spliced_into_each_entry() {
    let out = lint(&["--properties", "--json", "minRttSimple"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"properties\":{"), "stdout: {stdout}");
    assert!(stdout.contains("\"work_conservation\":{\"status\":\"proved\""));
    assert!(stdout.contains("\"dup_bound\":\"1\""));
    assert!(stdout.contains("\"pops_fully_guarded\":true"));
}
