//! Smoke test of the benchmark itself: every workload runs briefly, each
//! run's result line carries every metric `BENCHMARK.json` names with
//! its unit, and the traced run reports `layers.coverage`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section is a list")];
    body.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

/// The string value of `"key": "..."` in `line`.
fn field(line: &str, key: &str) -> Option<String> {
    let from = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = line[from..].find('"')?;
    Some(line[from..from + len].to_string())
}

fn run(workload: &str, trace: u8) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark binary runs")
}

fn result_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .expect("the benchmark prints a result line")
        .to_string()
}

/// The value of metric `name` if the result line reports it with `unit`.
fn metric(line: &str, name: &str, unit: &str) -> Option<f64> {
    let from = line.find(&format!("\"{name}\": {{\"value\": "))? + name.len() + 14;
    let rest = &line[from..];
    let (value, tail) = rest.split_once(", ")?;
    tail.starts_with(&format!("\"unit\": \"{unit}\"}}"))
        .then(|| value.parse().ok())
        .flatten()
}

fn assert_reports(workload: &str, trace: u8, section: &str) -> String {
    let out = run(workload, trace);
    let line = result_line(&out);
    assert!(
        out.status.success() && line.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload} --trace {trace} failed: {line}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let names = declared(section);
    assert!(!names.is_empty(), "{section} names no metric");
    assert_eq!(
        line.matches("\"value\": ").count(),
        names.len(),
        "{workload}: the metrics are exactly the {section} list: {line}"
    );
    for (name, unit) in names {
        let value = metric(&line, &name, &unit)
            .unwrap_or_else(|| panic!("{workload}: no {name} in {unit}: {line}"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    line
}

#[test]
fn lanes_bare_reports_every_metric() {
    assert_reports("lanes-bare", 0, "end_to_end");
    let traced = assert_reports("lanes-bare", 1, "per_layer");
    let coverage = metric(&traced, "layers.coverage", "ratio").expect("coverage reported");
    assert!(coverage > 0.0, "coverage {coverage}");
}

#[test]
fn lanes_skew_stateful_reports_every_metric() {
    assert_reports("lanes-skew-stateful", 0, "end_to_end");
    let traced = assert_reports("lanes-skew-stateful", 1, "per_layer");
    assert!(metric(&traced, "layers.coverage", "ratio").is_some());
}

/// The storm either passes its audit and reports its own metric set, or
/// fails the victim SLA the way `perfbench/README.md` documents: the
/// breaker's strikes never decay, so background chaos can throttle a
/// heavy victim.
#[test]
fn tenants_storm_reports_or_fails_its_audit() {
    for trace in [0, 1] {
        let out = run("tenants-storm", trace);
        let line = result_line(&out);
        if line.starts_with("{\"correct\": false") {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("tenant audit: tenant-"), "{stderr}");
            assert!(!out.status.success());
            continue;
        }
        assert!(out.status.success(), "{line}");
        let expected: &[(&str, &str)] = if trace == 0 {
            &[
                ("mpps", "Mpps"),
                ("batch_us_p50", "us"),
                ("tick_us_p50", "us"),
                ("tick_us_p90", "us"),
                ("victim_goodput_min_ppm", "ppm"),
                ("fail_ppm", "ppm"),
                ("setup_s", "s"),
                ("rss_mb", "MB"),
            ]
        } else {
            &[
                ("layers.coverage", "ratio"),
                ("runtime.tenant.breaker_opens", "count"),
            ]
        };
        for (name, unit) in expected {
            assert!(metric(&line, name, unit).is_some(), "no {name}: {line}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
