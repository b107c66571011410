//! Smoke runs of every workload on tiny worlds: every phase and every check
//! runs, the result line carries exactly the metrics `BENCHMARK.json`
//! names, and single-threaded allocation counts repeat across two traced
//! runs.
//!
//! Needs the `topple-experiments` binary; it is built here (release) into
//! `$CARGO_TARGET_DIR`, or `target/` at the repository root.

#[path = "../src/oracle.rs"]
#[allow(dead_code)]
mod oracle;

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use oracle::Json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Builds the daemon once and returns its path.
fn daemon() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = repo_root();
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "-q", "-p", "topple-experiments"])
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building topple-experiments failed");
        target.join("release").join("topple-experiments")
    })
    .clone()
}

/// One smoke run; returns the parsed result line.
fn smoke(workload: &str, trace: u8) -> Json {
    let work = std::env::temp_dir().join(format!("perfbench-smoke-{workload}-{trace}-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_topple-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", &trace.to_string(), "--smoke"])
        .arg("--daemon")
        .arg(daemon())
        .arg("--work")
        .arg(&work)
        .env_remove("TOPPLE_WORKERS")
        .env_remove("TOPPLE_EPOCH")
        .env_remove("TOPPLE_GEN_EPOCH")
        .output()
        .expect("benchmark runs");
    let _ = std::fs::remove_dir_all(&work);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() > 0);
    result
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics object"),
    }
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    match Json::parse(&text).expect("BENCHMARK.json parses").get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("a name").to_owned())
            .collect(),
        _ => panic!("BENCHMARK.json has no {key}"),
    }
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for workload in ["paper-study", "live-swap"] {
        let result = smoke(workload, 0);
        assert_eq!(metric_names(&result), want, "{workload}");
        if let Some(Json::Obj(members)) = result.get("metrics") {
            for (name, m) in members {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                assert!(v > 0.0, "{workload}: {name} = {v}");
            }
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_repeat_thread_alloc_counts() {
    let want = declared("per_layer");
    let a = smoke("paper-study", 1);
    let b = smoke("paper-study", 1);
    let names = metric_names(&a);
    let mut sorted = names.clone();
    sorted.sort();
    let mut want_sorted = want.clone();
    want_sorted.sort();
    assert_eq!(sorted, want_sorted);
    // Allocation counts of single-threaded spans are exact; the
    // process-wide ones (`*_process`) also see other threads.
    let allocs: Vec<&String> = names
        .iter()
        .filter(|n| n.contains("allocs") && !n.ends_with("_process"))
        .collect();
    assert!(allocs.len() >= 10, "{allocs:?}");
    let value = |r: &Json, name: &str| r.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value")).cloned();
    let differ: Vec<String> = allocs
        .into_iter()
        .filter(|name| value(&a, name) != value(&b, name))
        .map(|name| format!("{name}: {:?} vs {:?}", value(&a, name), value(&b, name)))
        .collect();
    assert!(differ.is_empty(), "differ between two traced runs:\n  {}", differ.join("\n  "));
}
