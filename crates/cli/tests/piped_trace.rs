//! A trace read through a pipe (`vex replay /dev/stdin`), which cannot
//! seek, gives the same output, and the same error when cut short, as
//! the same trace read from a file.
#![cfg(target_os = "linux")]

use std::io::Write;
use std::path::Path;
use std::process::{Command, Output, Stdio};

fn vex(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vex")).args(args).output().expect("vex runs")
}

/// Runs `vex` with `input` written to its stdin through a pipe.
fn vex_piped(args: &[&str], input: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vex"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("vex starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let input = input.to_vec();
    // A failed run may stop reading early; the broken pipe is expected.
    let writer = std::thread::spawn(move || drop(stdin.write_all(&input)));
    let out = child.wait_with_output().expect("vex runs");
    writer.join().expect("writer thread");
    out
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

/// What follows the quoted path in a `cannot read trace '<path>': …`
/// message.
fn after_path(err: &str) -> &str {
    err.split_once("': ").map_or(err, |(_, rest)| rest)
}

#[test]
fn piped_traces_read_like_files() {
    let dir = std::env::temp_dir().join(format!("vex-piped-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let full = dir.join("full.vex");
    let cut = dir.join("cut.vex");
    let path = |p: &Path| p.to_str().expect("utf-8 temp path").to_owned();
    let recorded = vex(&["record", "QMCPACK", "--fine", "-o", &path(&full)]);
    assert_eq!(recorded.status.code(), Some(0), "{}", text(&recorded.stderr));
    let bytes = std::fs::read(&full).expect("recorded trace");

    for args in [&["replay"][..], &["replay", "--fine"], &["info", "--format", "json"]] {
        let from_file = vex(&[&args[..1], &[path(&full).as_str()], &args[1..]].concat());
        let piped = vex_piped(&[&args[..1], &["/dev/stdin"], &args[1..]].concat(), &bytes);
        assert_eq!(piped.status.code(), Some(0), "{args:?}: {}", text(&piped.stderr));
        let (file_out, piped_out) = (text(&from_file.stdout), text(&piped.stdout));
        assert_eq!(
            piped_out.replace("/dev/stdin", "<trace>"),
            file_out.replace(&path(&full), "<trace>"),
            "{args:?}"
        );
    }

    // Cuts inside the header, a batch frame and a later frame.
    for len in [100, bytes.len() / 3, bytes.len() - 7] {
        std::fs::write(&cut, &bytes[..len]).expect("write cut trace");
        let from_file = vex(&["replay", &path(&cut)]);
        let piped = vex_piped(&["replay", "/dev/stdin"], &bytes[..len]);
        assert_eq!(from_file.status.code(), Some(1), "cut at {len}");
        assert_eq!(piped.status.code(), Some(1), "cut at {len}");
        let (file_err, piped_err) = (text(&from_file.stderr), text(&piped.stderr));
        assert!(file_err.starts_with("cannot read trace '"), "cut at {len}: {file_err}");
        assert_eq!(after_path(&piped_err), after_path(&file_err), "cut at {len}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
