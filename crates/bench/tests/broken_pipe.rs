//! A reader that closes the pipe early (`txproc-cli trace | head -1`) ends
//! the CLI quietly: exit 0 and nothing on stderr, not a panic.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// Runs `txproc-cli` with `args`, reads one line of its report, closes the
/// pipe, and returns the exit status and what it wrote to stderr. Each
/// report is larger than a pipe buffer, so the CLI is still writing when
/// the pipe closes.
fn read_one_line(args: &[&str]) -> (std::process::ExitStatus, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_txproc-cli"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("txproc-cli starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("one line");
    assert!(!line.is_empty(), "{args:?} wrote nothing");
    drop(stdout);
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("piped stderr");
    pipe.read_to_string(&mut stderr).expect("stderr");
    (child.wait().expect("txproc-cli exits"), stderr)
}

#[test]
fn a_closed_pipe_ends_the_cli_quietly() {
    for args in [
        &["generate", "--arrival-gap", "3", "--processes", "2000"][..],
        &["trace", "--processes", "200"],
    ] {
        let (status, stderr) = read_one_line(args);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(status.success(), "{args:?}: {status}, {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
