//! Smoke tests for CLI argument-error reporting: a bad flag value must
//! name **both** the flag and the offending value (exit code 2), not just
//! dump the usage text — that's the difference between "what did I typo"
//! and re-reading the whole synopsis.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lasagne-cli"))
        .args(args)
        .output()
        .expect("spawn lasagne-cli")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_flag_value_names_flag_and_value() {
    let out = run(&["cora", "gcn", "--epochs", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("--epochs: invalid value 'abc'"),
        "stderr must name the flag and value, got:\n{err}"
    );
}

#[test]
fn missing_flag_value_is_reported() {
    let out = run(&["cora", "gcn", "--epochs"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--epochs: missing value"), "got:\n{err}");
}

#[test]
fn unknown_flag_is_reported_by_name() {
    let out = run(&["cora", "gcn", "--florp", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--florp'"), "got:\n{err}");
}

#[test]
fn serve_requires_frozen_path() {
    let out = run(&["serve", "--port", "7878"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("missing required --frozen"), "got:\n{err}");
}

#[test]
fn serve_rejects_bad_port() {
    let out = run(&["serve", "--frozen", "x.json", "--port", "99999"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--port: invalid value '99999'"), "got:\n{err}");
}

#[test]
fn quantization_flags_are_unknown() {
    for (flag, args) in [
        ("--export-quantized", &["cora", "gcn", "--export-quantized", "q.json"][..]),
        ("--quant-mode", &["cora", "gcn", "--quant-mode", "i8"][..]),
        ("--quantized", &["serve", "--quantized", "--frozen", "x.json"][..]),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown flag '{flag}'")), "got:\n{err}");
    }
}
