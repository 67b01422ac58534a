//! Golden-file snapshot comparison.
//!
//! Snapshots live in `crates/conformance/snapshots/<name>.snap` and are
//! checked into the repository. A test compares its actual output to the
//! stored file; running with `UPDATE_SNAPSHOTS=1` rewrites the files
//! instead, so intentional behavior changes are reviewed as snapshot
//! diffs.

use std::fs;
use std::path::PathBuf;

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("snapshots")
        .join(format!("{name}.snap"))
}

/// True when the run should rewrite snapshots instead of comparing.
pub fn update_mode() -> bool {
    std::env::var("UPDATE_SNAPSHOTS")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Compares `actual` against the stored snapshot `name`, panicking with a
/// diff-friendly message on mismatch. With `UPDATE_SNAPSHOTS=1` the
/// snapshot is (re)written and the comparison skipped.
pub fn assert_snapshot(name: &str, actual: &str) {
    let path = snapshot_path(name);
    if update_mode() {
        fs::create_dir_all(path.parent().expect("snapshot path has parent"))
            .expect("create snapshots directory");
        fs::write(&path, actual).expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {}: run with UPDATE_SNAPSHOTS=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        let mut msg = format!("snapshot mismatch for {name}\n");
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            if e != a {
                msg.push_str(&format!("line {}: expected `{e}`, got `{a}`\n", i + 1));
            }
        }
        let (el, al) = (expected.lines().count(), actual.lines().count());
        if el != al {
            msg.push_str(&format!("line counts differ: expected {el}, got {al}\n"));
        }
        msg.push_str("rerun with UPDATE_SNAPSHOTS=1 to accept the new output\n");
        panic!("{msg}");
    }
}

/// Stale-golden guard: asserts the committed `<prefix><name>.snap` files
/// are *exactly* `expected` — no more, no fewer. A golden left behind
/// after a scheduler rename (or a test that silently stopped covering a
/// name) would otherwise keep passing while pinning nothing.
pub fn assert_family_covers(prefix: &str, expected: &[&str]) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("snapshots");
    let mut on_disk: Vec<String> = fs::read_dir(&dir)
        .expect("snapshots directory exists")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter_map(|f| {
            f.strip_prefix(prefix)?
                .strip_suffix(".snap")
                .map(str::to_string)
        })
        .collect();
    on_disk.sort();
    let mut want: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(
        on_disk, want,
        "{prefix}*.snap goldens out of sync with the test's scheduler list"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_stable() {
        let p = snapshot_path("x");
        assert!(p.ends_with("snapshots/x.snap"));
    }

    #[test]
    fn family_guard_accepts_the_committed_optimizer_set() {
        assert_family_covers("optimized_", &progmp_schedulers::PAPER);
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn family_guard_rejects_a_missing_golden() {
        assert_family_covers("optimized_", &["minRttSimple", "noSuchScheduler"]);
    }
}
