//! End-to-end checks of the report emitters and the artifacts a CLI user
//! relies on: Verilog export of a mapped benchmark, dot export, the
//! markdown/CSV/JSON batch emitters over real flow results, and the
//! `simap` binary itself — strict flag handling, `--json` output and the
//! parallel `bench run` driver.

use simap::core::{report_json, to_csv, to_json, to_markdown, FlowReport};
use simap::netlist::to_verilog;
use simap::sg::DotOptions;
use simap::{Batch, Config, Synthesis, Verified};
use std::process::Command;

fn verified(name: &str, limit: usize) -> Verified {
    let config = Config::builder().literal_limit(limit).build().expect("valid limit");
    Synthesis::from_benchmark(name)
        .config(&config)
        .elaborate()
        .expect("elaborates")
        .covers()
        .expect("CSC holds")
        .decompose()
        .expect("decomposes")
        .map()
        .verify()
        .expect("verifies")
}

fn flow(name: &str, limit: usize) -> FlowReport {
    verified(name, limit).into_report()
}

#[test]
fn verilog_of_mapped_benchmark_is_structurally_sound() {
    let verified = verified("hazard", 2);
    let v = to_verilog(verified.circuit(), &verified.report().outcome.sg, "hazard");
    // Ports: inputs a, b; outputs x, y. Inserted x0 must be a wire.
    assert!(v.contains("input a"));
    assert!(v.contains("input b"));
    assert!(v.contains("output x"));
    assert!(v.contains("output y"));
    assert!(v.contains("wire x0"), "{v}");
    assert!(!v.contains("output x0"));
    // One C element for y.
    assert_eq!(v.matches("celement u_c").count(), 1);
    // Balanced module/endmodule ("endmodule" contains "module").
    assert_eq!(v.matches("endmodule").count(), 2);
}

#[test]
fn dot_of_final_graph_contains_inserted_signal() {
    let report = flow("hazard", 2);
    let dot = simap::sg::to_dot(
        &report.outcome.sg,
        &DotOptions { show_codes: true, ..Default::default() },
    );
    assert!(dot.contains("x0+"), "inserted signal's events must label arcs");
}

#[test]
fn emitters_cover_batch_rows() {
    let rows = Batch::over_benchmarks(["half"]).limits([2]).run().expect("batch");
    let md = to_markdown(&[2], &rows);
    assert!(md.contains("| half |"));
    let csv = to_csv(&[2], &rows);
    assert!(csv.lines().count() >= 2);
}

/// Golden test of the hand-rolled JSON emitters: the exact bytes for the
/// `half` benchmark (deterministic flow, deterministic key order).
#[test]
fn json_emitters_match_golden_output() {
    let report = flow("half", 2);
    assert_eq!(
        report_json(&report),
        "{\"name\":\"half\",\"initial_histogram\":[0,2,1],\"implementable\":true,\
         \"inserted\":0,\"inserted_names\":[],\
         \"si_cost\":{\"literals\":4,\"c_elements\":1},\
         \"non_si_cost\":{\"literals\":4,\"c_elements\":1},\"verified\":true,\
         \"reach\":{\"visited\":6,\"interned\":6,\"edges\":6,\"strategy\":\"packed\"}}"
    );

    let rows = Batch::over_benchmarks(["half"]).limits([2]).run().expect("batch");
    assert_eq!(
        to_json(&[2], &rows),
        "{\"limits\":[2],\"circuits\":[{\"name\":\"half\",\"states\":6,\"runs\":[\
         {\"literal_limit\":2,\"report\":{\"name\":\"half\",\
         \"initial_histogram\":[0,2,1],\"implementable\":true,\"inserted\":0,\
         \"inserted_names\":[],\"si_cost\":{\"literals\":4,\"c_elements\":1},\
         \"non_si_cost\":{\"literals\":4,\"c_elements\":1},\"verified\":true,\
         \"reach\":{\"visited\":6,\"interned\":6,\"edges\":6,\"strategy\":\"packed\"}}}]}]}"
    );
}

// ---- the `simap` binary itself ----

fn simap(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simap")).args(args).output().expect("binary runs")
}

#[test]
fn cli_rejects_unknown_flags() {
    let out = simap(&["map", "--bench", "half", "--badflag"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--badflag`"), "{stderr}");
}

#[test]
fn cli_rejects_flags_missing_their_value() {
    for args in [
        vec!["map", "--bench", "half", "--or-limit"],
        vec!["map", "--bench"],
        vec!["bench", "run", "half", "--jobs"],
    ] {
        let out = simap(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("requires a value"), "{args:?}: {stderr}");
    }
}

#[test]
fn cli_rejects_unknown_flags_in_subcommands() {
    for (args, flag) in [
        (vec!["bench", "run", "half", "--nonsense"], "--nonsense"),
        (vec!["check", "--bench", "half", "--reach-jobs", "2"], "--reach-jobs"),
        (vec!["map", "--bench", "half", "--synth-jobs", "2"], "--synth-jobs"),
        (vec!["bench", "run", "half", "--reach-jobs", "2"], "--reach-jobs"),
        (vec!["bench", "run", "half", "--synth-jobs", "2"], "--synth-jobs"),
        (vec!["bench", "run", "half", "--record", "out.json"], "--record"),
        (vec!["check", "--bench", "half", "--materialize-limit", "5"], "--materialize-limit"),
        (vec!["bench", "run", "half", "--verbose"], "--verbose"),
    ] {
        let out = simap(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{args:?}: {stderr}");
    }
}

#[test]
fn cli_help_prints_the_usage_block_and_exits_zero() {
    let mut usage = None;
    for args in [
        vec!["--help"],
        vec!["-h"],
        vec!["check", "--help"],
        vec!["map", "--bench", "half", "-h"],
        vec!["bench", "--help"],
        vec!["bench", "list", "--help"],
        vec!["bench", "run", "half", "-h"],
        vec!["gen", "--help"],
        vec!["serve", "--help"],
    ] {
        let out = simap(&args);
        assert!(out.status.success(), "{args:?} must exit 0");
        assert!(out.stderr.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.starts_with("simap check <spec.g>"), "{args:?}: {stdout}");
        assert!(stdout.contains("serve options:"), "{args:?}: {stdout}");
        let first = usage.get_or_insert_with(|| stdout.clone());
        assert_eq!(*first, stdout, "{args:?}: one usage block everywhere");
    }
}

#[test]
fn cli_rejects_invalid_config_values() {
    for (args, fragment) in [
        (vec!["map", "--bench", "half", "--limit", "1"], "invalid configuration"),
        (
            vec!["check", "--bench", "half", "--strategy", "symbolic"],
            "unknown reachability strategy",
        ),
    ] {
        let out = simap(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(fragment), "{args:?}: {stderr}");
    }
}

#[test]
fn cli_number_parse_errors_name_the_flag() {
    for (args, expected) in [
        (vec!["serve", "--jobs", "x"], "bad --jobs `x`: invalid digit found in string"),
        (vec!["gen", "--seed", "-1"], "bad --seed `-1`: invalid digit found in string"),
        (vec!["check", "--bench", "half", "--shards", "x"], "bad --shards `x`: invalid digit"),
        (vec!["bench", "run", "half", "--jobs", "x"], "bad --jobs `x`: invalid digit"),
        (
            vec!["map", "--bench", "half", "--limit", "99999999999999999999"],
            "bad --limit `99999999999999999999`: number too large",
        ),
    ] {
        let out = simap(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}

#[test]
fn cli_map_json_matches_library_emitter() {
    let out = simap(&["map", "--bench", "half", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim_end(), report_json(&flow("half", 2)));
}

#[test]
fn cli_json_stdout_stays_pure_with_exports() {
    let dir = std::env::temp_dir().join("simap_cli_json_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let verilog = dir.join("half.v");
    let out = simap(&["map", "--bench", "half", "--json", "--verilog", verilog.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.trim_end(),
        report_json(&flow("half", 2)),
        "stdout must be exactly one JSON document"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("wrote"), "confirmation on stderr");
    assert!(verilog.exists());
}

#[test]
fn cli_bench_list_json_matches_shared_registry_listing() {
    let out = simap(&["bench", "list", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let expected = simap::core::benchmarks_json(&simap::Engine::default()).expect("listing");
    assert_eq!(stdout.trim_end(), expected, "CLI and library listing must be byte-identical");
    // And it is machine-readable with the crate's own parser.
    let parsed = simap::core::json::parse(stdout.trim_end()).expect("valid JSON");
    let entries = parsed.get("benchmarks").and_then(simap::core::json::Json::as_array).unwrap();
    assert_eq!(entries.len(), simap::Engine::default().registry().names().len());
}

#[test]
fn cli_bench_run_parallel_output_is_identical_to_sequential() {
    let base = ["bench", "run", "half", "hazard", "dff", "--limits", "2,3", "--no-verify"];
    let sequential = simap(&[&base[..], &["--csv", "--jobs", "1"]].concat());
    let parallel = simap(&[&base[..], &["--csv", "--jobs", "3"]].concat());
    assert!(sequential.status.success() && parallel.status.success());
    assert!(!sequential.stdout.is_empty());
    assert_eq!(sequential.stdout, parallel.stdout, "parallel output must be byte-identical");
}
