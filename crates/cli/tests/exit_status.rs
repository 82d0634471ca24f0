//! What the `vex` binary prints to stderr, and the status it exits
//! with, when a command fails: a command line that does not parse gets
//! its message followed by the usage text (exit 2); a command that
//! parsed but failed while running gets its message alone (exit 1).

use std::path::Path;
use std::process::{Command, Output};

fn vex(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vex")).args(args).output().expect("vex runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vex-exit-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

#[test]
fn parse_errors_print_the_usage_and_exit_2() {
    for args in [&["frobnicate"][..], &["replay"], &["replay", "t.vex", "--shards", "x"]] {
        let out = vex(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains("\n\nusage:\n  vex list\n"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let err = stderr(&vex(&["frobnicate"]));
    assert!(err.starts_with("unknown command 'frobnicate'\n\nusage:"), "{err}");
}

#[test]
fn runtime_failures_print_only_the_message_and_exit_1() {
    let dir = temp_dir("runtime");
    let full = dir.join("full.vex");
    let cut = dir.join("cut.vex");
    let missing = dir.join("missing.vex");
    let recorded = vex(&["record", "QMCPACK", "-o", path_str(&full)]);
    assert_eq!(recorded.status.code(), Some(0), "{}", stderr(&recorded));
    let bytes = std::fs::read(&full).expect("recorded trace");
    std::fs::write(&cut, &bytes[..bytes.len() / 2]).expect("write cut trace");

    for args in [
        vec!["replay", path_str(&cut)],
        vec!["diff", path_str(&full), path_str(&cut)],
        vec!["replay", path_str(&missing)],
        vec!["record", "no-such-app", "-o", path_str(&missing)],
    ] {
        let out = vex(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = stderr(&out);
        assert!(!err.contains("usage:"), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let err = stderr(&vex(&["replay", path_str(&cut)]));
    let want = format!("cannot read trace '{}': trace ends mid-frame at byte ", path_str(&cut));
    assert!(err.starts_with(&want), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
