//! The runner's output checks fire: every deliberate driver fault
//! (`--sabotage`) turns into `"correct": false` and a non-zero exit, and
//! the same runs without the fault pass.

use std::process::Command;

/// Run the built binary; returns (exit ok, last stdout line).
fn gridbench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gridbench"))
        .args(args)
        .output()
        .expect("run gridbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

fn one_slice<'a>(workload: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "7",
        "--slices",
        "1",
        "--trace",
        "0",
    ];
    args.extend_from_slice(extra);
    args
}

fn assert_rejected(workload: &str, sabotage: &str) {
    let (ok, last) = gridbench(&one_slice(workload, &["--sabotage", sabotage]));
    assert!(!ok, "{workload} with {sabotage} must exit non-zero: {last}");
    assert!(last.contains("\"correct\": false"), "{last}");
}

#[test]
fn an_accepted_garbage_hello_is_rejected_by_the_runner() {
    assert_rejected("establish_storm", "accept-garbage-hello");
}

#[test]
fn a_flipped_byte_in_a_transferred_file_is_rejected_by_the_runner() {
    assert_rejected("bulk_xfer", "flip-transfer-byte");
}

#[test]
fn a_served_unauthorised_request_is_rejected_by_the_runner() {
    assert_rejected("ogsa_request", "accept-unauthorised");
}

#[test]
fn a_failed_valid_op_is_rejected_by_the_runner() {
    assert_rejected("vo_flows", "fail-valid-op");
}

#[test]
fn slices_that_disagree_for_one_seed_are_rejected_by_the_runner() {
    assert_rejected("gram_submit", "nondeterministic");
}

#[test]
fn the_same_runs_without_a_fault_pass_and_repeat_their_digest() {
    for workload in gridbench::workloads::NAMES {
        let path = std::env::temp_dir().join(format!("gridbench-check-{workload}.json"));
        let path = path.to_str().expect("utf-8 temp path");
        let digest = || {
            let (ok, last) = gridbench(&one_slice(workload, &["--json-out", path]));
            assert!(ok, "{workload}: {last}");
            assert!(last.contains("\"correct\": true") && last.contains("\"failed\": 0"));
            let json = std::fs::read_to_string(path).expect("json-out written");
            let at = json.find("\"digest\": \"").expect("digest field") + 11;
            json[at..at + 64].to_string()
        };
        assert_eq!(digest(), digest(), "{workload}: same seed, same digest");
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let (ok, last) = gridbench(&[
        "--workload",
        "vo_flows",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(ok, "{last}");
    assert!(last.contains("\"correct\": true"), "{last}");
    for (name, unit) in gridbench::ledger::METRICS {
        let field = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&field)
            .unwrap_or_else(|| panic!("{name} missing"));
        let rest = &last[at + field.len()..];
        assert!(
            rest[..rest.find('}').expect("closed")].ends_with(&format!("\"unit\": \"{unit}\"")),
            "{name} must carry unit {unit}"
        );
    }
}
