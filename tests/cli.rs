//! Integration tests for the `codesign` binary: exit codes (0 clean /
//! 1 scenario failure / 2 usage errors), `--json` output parsing for
//! `sweep` and `--all`, the per-scenario error row format, and the
//! `--trace` / `CODESIGN_TRACE` observability outputs, and fault sites
//! armed through `CODESIGN_FAULTS`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn codesign() -> Command {
    Command::new(env!("CARGO_BIN_EXE_codesign"))
}

fn run(args: &[&str]) -> Output {
    codesign().args(args).output().expect("codesign runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A unique temp path per (test, tag) so parallel tests never collide.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("codesign-cli-{}-{tag}", std::process::id()))
}

/// Two clean Silicon-3D scenarios (no interposer routing — the cheapest
/// full studies).
const CLEAN_SWEEP: &str = r#"[
  { "name": "s3d-a", "tech": "silicon3d" },
  { "name": "s3d-b", "tech": "silicon3d" }
]"#;

#[test]
fn bad_invocations_exit_two_without_running_the_flow() {
    for args in [
        &[][..],
        &["--all", "--bogus"][..],
        &["glass3d", "--frobnicate"][..],
        &["glass3d", "extra-positional"][..],
        &["glass3d", "--trace"][..],      // missing path
        &["glass3d", "--sequential"][..], // sweep-only flag
        &["--all", "stray"][..],
        &["sweep"][..], // missing scenario file
        &["sweep", "a.json", "b.json"][..],
        &["no-such-tech"][..],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "args {args:?}: {err}");
    }
}

#[test]
fn clean_sweep_emits_parseable_json_and_a_valid_trace() {
    let scenarios = temp_path("clean.json");
    let trace = temp_path("clean-trace.json");
    std::fs::write(&scenarios, CLEAN_SWEEP).expect("scenario file written");

    let out = run(&[
        "sweep",
        scenarios.to_str().expect("utf-8 path"),
        "--json",
        "--stats",
        "--trace",
        trace.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stdout is exactly one JSON array: one {scenario, study} per entry.
    let doc = serde_json::from_str(&stdout(&out)).expect("sweep --json parses");
    let rows = doc.as_array().expect("array");
    assert_eq!(rows.len(), 2);
    for (row, name) in rows.iter().zip(["s3d-a", "s3d-b"]) {
        assert_eq!(
            row.get("scenario").and_then(serde_json::Value::as_str),
            Some(name)
        );
        let study = row.get("study").expect("study payload");
        assert!(study.get("fullchip").is_some(), "full study serialized");
        assert!(row.get("error").is_none());
    }

    // The trace file is valid Chrome trace-event JSON with spans and
    // counters; the --stats table went to stderr, keeping stdout clean.
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    let trace_doc = serde_json::from_str(&trace_text).expect("trace parses");
    let events = trace_doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents");
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some("X")));
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some("C")));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("counter"),
        "stats table on stderr: {stderr}"
    );

    let _ = std::fs::remove_file(&scenarios);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn failing_scenario_exits_one_with_an_error_row_and_still_traces() {
    let scenarios = temp_path("faulty.json");
    let trace = temp_path("faulty-trace.json");
    std::fs::write(
        &scenarios,
        r#"[
          { "name": "healthy", "tech": "silicon3d" },
          { "name": "split-fails", "tech": "silicon3d", "fault_sites": ["partition.split"] }
        ]"#,
    )
    .expect("scenario file written");

    // Text mode: the error row names the scenario and the typed error,
    // and the exit code is 1. The trace path arrives via CODESIGN_TRACE.
    let out = codesign()
        .args(["sweep", scenarios.to_str().expect("utf-8 path")])
        .env("CODESIGN_TRACE", &trace)
        .output()
        .expect("codesign runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    let error_row = text
        .lines()
        .find(|l| l.starts_with("split-fails"))
        .unwrap_or_else(|| panic!("no row for the failing scenario in:\n{text}"));
    assert!(error_row.contains("error:"), "{error_row}");
    assert!(
        text.lines().any(|l| l.starts_with("healthy")),
        "sibling scenario still reported:\n{text}"
    );
    // The trace was written despite the non-zero exit.
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(serde_json::from_str(&trace_text).is_ok(), "trace parses");

    // JSON mode: the failing row carries "error", the healthy one
    // "study", and the exit code is still 1.
    let out = run(&["sweep", scenarios.to_str().expect("utf-8 path"), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let doc = serde_json::from_str(&stdout(&out)).expect("sweep --json parses");
    let rows = doc.as_array().expect("array");
    assert!(rows[0].get("study").is_some());
    assert!(rows[1]
        .get("error")
        .and_then(serde_json::Value::as_str)
        .is_some());

    let _ = std::fs::remove_file(&scenarios);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn environment_armed_fault_fails_the_run_with_a_typed_error() {
    // One known site and one typo: the known one fails routing, the
    // unknown one draws a warning and is otherwise ignored.
    let out = codesign()
        .arg("glass25d")
        .env("CODESIGN_FAULTS", "router.escape,router.escap")
        .output()
        .expect("codesign runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("net 0 is unroutable"), "{stderr}");
    assert!(
        stderr.contains("unknown fault site \"router.escap\""),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");

    // The channel-extraction site fails with its own typed error.
    let out = codesign()
        .arg("glass25d")
        .env("CODESIGN_FAULTS", "extract.channels")
        .output()
        .expect("codesign runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("channel extraction:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn all_honors_json_and_derives_the_stackless_area() {
    // --json: a JSON array of six full studies (this used to silently
    // print the text table instead).
    let out = run(&["--all", "--json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = serde_json::from_str(&stdout(&out)).expect("--all --json parses");
    let studies = doc.as_array().expect("array");
    assert_eq!(studies.len(), 6);
    for study in studies {
        assert!(study.get("tech").is_some());
        assert!(study.get("fullchip").is_some());
        assert!(study.get("thermal").is_some());
    }

    // The interposer-less Silicon 3D study is the one without routing;
    // its package outline must be derivable from the serialized chiplet
    // footprints (square dies, width in µm).
    let stackless = studies
        .iter()
        .find(|s| matches!(s.get("routing"), None | Some(serde_json::Value::Null)))
        .expect("one stackless study");
    let die_width_um = |part: &str| {
        stackless
            .get(part)
            .and_then(|c| c.get("footprint"))
            .and_then(|f| f.get("width_um"))
            .and_then(serde_json::Value::as_f64)
            .expect("footprint width serialized")
    };
    let expected_mm2 = (die_width_um("logic") / 1e3)
        .powi(2)
        .max((die_width_um("memory") / 1e3).powi(2));
    assert!(expected_mm2 > 0.0);

    // Text mode: the Silicon 3D row prints exactly that derived figure
    // (not a hardcoded literal, not `-`).
    let out = run(&["--all"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let row = text
        .lines()
        .find(|l| l.starts_with("Silicon 3D"))
        .unwrap_or_else(|| panic!("no Silicon 3D row in:\n{text}"));
    let area_cell = row.split_whitespace().nth(2).expect("area column");
    assert_eq!(area_cell, format!("{expected_mm2:.2}"), "{row}");
}
