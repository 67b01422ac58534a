//! Integration tests for the `progmp-exp` binary's argument contract and
//! its `--against` gate: a usage error exits 2 and names the valid
//! experiments; a moved deterministic value exits 1 and names the
//! shape; a moved host-timed value passes.

use progmp_bench::experiment::EXPERIMENTS;
use std::path::PathBuf;
use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_progmp-exp"))
        .args(args)
        .output()
        .expect("failed to spawn progmp-exp")
}

/// A path under the test's own temporary directory.
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn usage_errors_exit_two_and_list_the_experiments() {
    // The per-binary flags are gone, not aliased: there is one size.
    for bad in [
        &["--exp", "nosuch"][..],
        &["--smoke"],
        &["--smoke", "1"],
        &["--exp"],
        &["fig13_tap"],
    ] {
        let out = exp(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?}: nothing may run");
        let stderr = String::from_utf8(out.stderr).unwrap();
        for e in &EXPERIMENTS {
            assert!(stderr.contains(e.name), "{bad:?}: {} missing", e.name);
        }
    }
    let stderr = String::from_utf8(exp(&["--exp", "nosuch"]).stderr).unwrap();
    assert!(stderr.contains("unknown experiment \"nosuch\""), "{stderr}");
}

#[test]
fn against_gates_deterministic_values_only() {
    // One experiment with a host-timed shape and a simulated one, named
    // twice: it runs once.
    let fresh = scratch("abl_runtime_opts.json");
    let run = &["--exp", "abl_runtime_opts", "--exp", "abl_runtime_opts"];
    let out = exp(&[&run[..], &["--json", fresh.to_str().unwrap()]].concat());
    assert_eq!(out.status.code(), Some(0), "{:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.matches("=== abl_runtime_opts").count(),
        1,
        "{stdout}"
    );
    assert!(stdout.contains("[ok] compressed executions keep the pipe full"));
    assert!(stdout.contains("1 experiment(s)"), "{stdout}");
    let text = std::fs::read_to_string(&fresh).unwrap();

    let against = |name: &str, from: &str, to: &str| {
        assert!(text.contains(from), "{from} is not in the report");
        let committed = scratch(name);
        std::fs::write(&committed, text.replacen(from, to, 1)).unwrap();
        exp(&[
            "--exp",
            "abl_runtime_opts",
            "--against",
            committed.to_str().unwrap(),
        ])
    };

    // Only a host-timed measured value differs: the timing of this very
    // rerun differs from the file's as well, and still passes.
    let out = against("timed.json", "% of unoptimized", "% of unoptimised");
    assert_eq!(out.status.code(), Some(0), "{:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.trim_end().ends_with("timed.json"), "{stdout}");

    // A deterministic measured value differs.
    let out = against("moved.json", "2.40 vs 2.38 MB/s", "2.40 vs 2.39 MB/s");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    for part in [
        "abl_runtime_opts",
        "compressed executions keep the pipe full",
        "2.40 vs 2.39 MB/s",
        "2.40 vs 2.38 MB/s",
    ] {
        assert!(stderr.contains(part), "{part}: {stderr}");
    }

    // A committed file that is not a paper report at all.
    let out = against("broken.json", "\"schema\":1", "\"schema\":2");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn committed_file_holds_for_a_deterministic_experiment() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    let out = exp(&["--exp", "fig13_tap", "--against", committed]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out.stderr);
}
