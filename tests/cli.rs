//! End-to-end tests of the `egg-sync-cli` binary.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_egg-sync-cli"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("egg_sync_cli_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn generate_then_cluster_roundtrip() {
    let data_path = temp_path("points.csv");
    let labels_path = temp_path("labels.csv");

    let out = cli()
        .args([
            "generate",
            "--n",
            "400",
            "--clusters",
            "3",
            "--std",
            "3.0",
            "--output",
            data_path.to_str().unwrap(),
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args([
            "cluster",
            "--input",
            data_path.to_str().unwrap(),
            "--epsilon",
            "0.05",
            "--output",
            labels_path.to_str().unwrap(),
        ])
        .output()
        .expect("run cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("400 points"), "stdout: {stdout}");
    assert!(stdout.contains("converged"), "stdout: {stdout}");

    // output CSV has the label column appended
    let written = std::fs::read_to_string(&labels_path).expect("labels file");
    let first = written.lines().next().expect("non-empty output");
    assert_eq!(first.split(',').count(), 3); // x, y, label
    assert_eq!(written.lines().count(), 400);
}

#[test]
fn cluster_with_explicit_algorithm() {
    let data_path = temp_path("points_sync.csv");
    cli()
        .args([
            "generate",
            "--n",
            "150",
            "--output",
            data_path.to_str().unwrap(),
        ])
        .output()
        .expect("generate");
    for algo in ["sync", "fsync", "mpsync", "exact"] {
        let out = cli()
            .args([
                "cluster",
                "--input",
                data_path.to_str().unwrap(),
                "--epsilon",
                "0.05",
                "--algorithm",
                algo,
            ])
            .output()
            .expect("run cluster");
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn outliers_subcommand_reports() {
    let data_path = temp_path("points_outliers.csv");
    // two tight groups plus one isolated point
    let mut csv = String::new();
    for i in 0..30 {
        csv.push_str(&format!("0.2,{}\n", 0.2 + i as f64 * 1e-3));
        csv.push_str(&format!("0.8,{}\n", 0.8 + i as f64 * 1e-3));
    }
    csv.push_str("0.5,0.02\n");
    std::fs::write(&data_path, csv).expect("write csv");
    let out = cli()
        .args([
            "outliers",
            "--input",
            data_path.to_str().unwrap(),
            "--epsilon",
            "0.05",
            "--no-normalize",
            "--threshold",
            "0.99",
        ])
        .output()
        .expect("run outliers");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 outliers"), "stdout: {stdout}");
    assert!(stdout.contains("point     60"), "stdout: {stdout}");
}

#[test]
fn missing_arguments_fail_cleanly() {
    let out = cli().args(["cluster"]).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--input"), "stderr: {stderr}");

    let out = cli().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn help_prints_usage() {
    let out = cli().args(["--help"]).output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn bad_csv_is_reported() {
    let data_path = temp_path("bad.csv");
    std::fs::write(&data_path, "1,2\n3,oops\n").expect("write");
    let out = cli()
        .args([
            "cluster",
            "--input",
            data_path.to_str().unwrap(),
            "--epsilon",
            "0.05",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
}

#[test]
fn non_finite_input_is_rejected_with_line_and_column() {
    for (name, csv, needle) in [
        ("nan.csv", "0.1,0.2\n0.3,NaN\n", "line 2, column 2"),
        ("inf.csv", "0.1,0.2\n0.3,0.4\ninf,0.5\n", "line 3, column 1"),
    ] {
        let data_path = temp_path(name);
        std::fs::write(&data_path, csv).expect("write");
        let out = cli()
            .args([
                "cluster",
                "--input",
                data_path.to_str().unwrap(),
                "--epsilon",
                "0.05",
            ])
            .output()
            .expect("run");
        assert!(!out.status.success(), "{name} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{name}: {stderr}");
        assert!(stderr.contains("not a finite number"), "{name}: {stderr}");
    }

    // a non-finite ε is refused before any grid is built
    let data_path = temp_path("finite.csv");
    std::fs::write(&data_path, "0.1,0.2\n0.3,0.4\n").expect("write");
    let out = cli()
        .args([
            "cluster",
            "--input",
            data_path.to_str().unwrap(),
            "--epsilon",
            "NaN",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("positive finite"), "{stderr}");
}

#[test]
fn allow_unconverged_is_accepted_and_documented() {
    // the refusal itself is unit-tested in the binary; here the flag must
    // parse on a run that converges, and appear in the usage text
    let data_path = temp_path("allow_unconverged.csv");
    let labels_path = temp_path("allow_unconverged_labels.csv");
    std::fs::write(&data_path, "0.5,0.5\n0.53,0.5\n0.1,0.9\n").expect("write");
    let out = cli()
        .args([
            "cluster",
            "--input",
            data_path.to_str().unwrap(),
            "--epsilon",
            "0.05",
            "--no-normalize",
            "--allow-unconverged",
            "--output",
            labels_path.to_str().unwrap(),
        ])
        .output()
        .expect("run cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(labels_path.exists());

    let help = cli().arg("--help").output().expect("run help");
    assert!(String::from_utf8_lossy(&help.stdout).contains("--allow-unconverged"));
}
