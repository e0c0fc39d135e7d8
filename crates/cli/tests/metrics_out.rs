//! `--metrics-out` into a directory that does not exist fails the command
//! before any work, and creates nothing on the way.

use std::process::Command;

#[test]
fn metrics_out_into_a_missing_directory_fails_early() {
    let dir = std::env::temp_dir().join(format!("rumba-cli-missing-{}", std::process::id()));
    let path = dir.join("dir").join("m.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_rumba"))
        .args(["run", "fft", "--metrics-out"])
        .arg(&path)
        .env_remove("RUMBA_METRICS_OUT")
        .output()
        .expect("the rumba binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot open --metrics-out"), "{stderr}");
    assert!(out.stdout.is_empty(), "no run output: {out:?}");
    assert!(!dir.exists(), "no directory may be created");
}
