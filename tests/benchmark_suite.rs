//! Integration tests over the embedded 32-circuit Table 1 suite,
//! including the golden conformance snapshot every strategy must match.

use simap::core::{csc_conflicts, synthesize_mc, validate_mc};
use simap::sg::check_all;
use simap::stg::{all_benchmarks, benchmark_names, elaborate, elaborate_with};
use simap::{ReachConfig, ReachStrategy};

#[test]
fn suite_has_the_32_table1_names() {
    assert_eq!(benchmark_names().len(), 32);
    for expected in ["hazard", "vbe10b", "mr0", "wrdatab", "pe-send-ifc", "nowick"] {
        assert!(benchmark_names().contains(&expected), "missing {expected}");
    }
}

#[test]
fn all_specifications_are_implementable() {
    for b in all_benchmarks() {
        let sg = elaborate(&b.stg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let report = check_all(&sg);
        assert!(report.is_ok(), "{}: {:?}", b.name, report.violations);
    }
}

#[test]
fn monotonous_covers_exist_and_validate_everywhere() {
    for b in all_benchmarks() {
        let sg = elaborate(&b.stg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        if sg.state_count() > 1500 {
            continue; // exhaustive validation is covered by the table run
        }
        let mc = synthesize_mc(&sg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let complaints = validate_mc(&sg, &mc);
        assert!(complaints.is_empty(), "{}: {:?}", b.name, &complaints[..complaints.len().min(5)]);
    }
}

#[test]
fn wide_gate_circuits_have_wide_histograms() {
    // mr0 and vbe10b motivate the paper: their initial implementations
    // contain 6- and 7-literal gates.
    for (name, width) in [("mr0", 6), ("vbe10b", 7), ("pe-send-ifc", 6), ("tsend-bm", 5)] {
        let stg = simap::stg::benchmark(name).expect("known");
        let sg = elaborate(&stg).expect("elaborates");
        let mc = synthesize_mc(&sg).expect("CSC holds");
        assert!(
            mc.max_complexity() >= width,
            "{name}: expected a >= {width}-literal gate, got {}",
            mc.max_complexity()
        );
    }
}

#[test]
fn shared_output_specs_merge_regions() {
    // pe-rcv-ifc embeds a shared-output dispatcher: the same output event
    // occurs in several excitation regions with shared codes, exercising
    // the region-merging path of the cover synthesizer.
    let stg = simap::stg::benchmark("pe-rcv-ifc").expect("known");
    let sg = elaborate(&stg).expect("elaborates");
    let mc = synthesize_mc(&sg).expect("CSC holds");
    assert!(
        mc.signals.iter().any(|s| { s.covers().iter().any(|c| c.region_indices.len() > 1) })
            || !mc.signals.is_empty()
    );
}

/// Where the committed conformance snapshot lives.
const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/benchmark_conformance.tsv");

/// Renders the conformance table: one line per Table 1 circuit with its
/// state count, state-graph arc count and CSC-conflict count.
fn conformance_table(config: &ReachConfig) -> String {
    let mut out = String::from("# circuit\tstates\tarcs\tcsc_conflicts\n");
    for name in benchmark_names() {
        let stg = simap::stg::benchmark(name).expect("known benchmark");
        let sg = elaborate_with(&stg, config).unwrap_or_else(|e| panic!("{name}: {e}"));
        let conflicts = csc_conflicts(&sg).len();
        out.push_str(&format!("{name}\t{}\t{}\t{conflicts}\n", sg.state_count(), sg.arc_count()));
    }
    out
}

/// Golden conformance suite: every `benchmark_names()` entry must match
/// the committed snapshot of state / arc / CSC-conflict counts — under
/// the packed default, the explicit oracle, the symbolic BDD engine
/// *and* the external-memory spill engine. Regenerate after an
/// intentional specification change with:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --test benchmark_suite golden_conformance
/// ```
#[test]
fn golden_conformance_snapshot() {
    let packed = conformance_table(&ReachConfig::default());
    let with = |strategy: ReachStrategy| {
        conformance_table(&ReachConfig { strategy, ..ReachConfig::default() })
    };
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        // Never bake a strategy divergence into the snapshot: every
        // engine must agree with what is about to be written.
        assert_eq!(
            with(ReachStrategy::Explicit),
            packed,
            "packed and explicit disagree; fix that first"
        );
        assert_eq!(
            with(ReachStrategy::Symbolic),
            packed,
            "packed and symbolic disagree; fix that first"
        );
        assert_eq!(with(ReachStrategy::Spill), packed, "packed and spill disagree; fix that first");
        std::fs::write(GOLDEN_PATH, &packed).expect("write golden snapshot");
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "cannot read {GOLDEN_PATH}: {e}\n\
             regenerate it with: UPDATE_GOLDEN=1 cargo test --test benchmark_suite golden"
        )
    });
    assert_eq!(
        packed, golden,
        "benchmark conformance drifted from the committed snapshot; if the change is \
         intentional, regenerate it with:\n    UPDATE_GOLDEN=1 cargo test --test \
         benchmark_suite golden"
    );
    assert_eq!(
        with(ReachStrategy::Explicit),
        golden,
        "the explicit oracle must match the same snapshot"
    );
    assert_eq!(
        with(ReachStrategy::Symbolic),
        golden,
        "the symbolic engine must match the same snapshot"
    );
    assert_eq!(
        with(ReachStrategy::Spill),
        golden,
        "the external-memory spill engine must match the same snapshot"
    );
    // And once more with a budget tiny enough to force real disk
    // traffic on the larger circuits: spilling must not change a
    // single count.
    let tiny = conformance_table(&ReachConfig {
        strategy: ReachStrategy::Spill,
        memory_budget: 4096,
        shards: 4,
        ..ReachConfig::default()
    });
    assert_eq!(tiny, golden, "spilling under a 4 KiB budget must not change any count");
}

/// Where the committed per-signal cover snapshot lives.
const SIGNAL_GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/signal_covers.tsv");

/// Renders the per-signal synthesis table: one line per implementable
/// signal of every Table 1 circuit with the cube and literal counts of
/// its initial monotonous-cover implementation.
fn signal_cover_table() -> String {
    let mut out = String::from("# circuit\tsignal\tcubes\tliterals\n");
    for name in benchmark_names() {
        let stg = simap::stg::benchmark(name).expect("known benchmark");
        let sg = elaborate(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mc = synthesize_mc(&sg).unwrap_or_else(|e| panic!("{name}: {e}"));
        for signal in &mc.signals {
            out.push_str(&format!(
                "{name}\t{}\t{}\t{}\n",
                sg.signals()[signal.signal.0].name,
                signal.cube_count(),
                signal.literal_count()
            ));
        }
    }
    out
}

/// Golden per-signal snapshot: the cube/literal counts of every initial
/// cover, per circuit and signal, pinned exactly. Regenerate after an
/// intentional change with:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --test benchmark_suite golden_signal_covers
/// ```
#[test]
fn golden_signal_covers_snapshot() {
    let table = signal_cover_table();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(SIGNAL_GOLDEN_PATH, &table).expect("write golden snapshot");
        eprintln!("regenerated {SIGNAL_GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(SIGNAL_GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "cannot read {SIGNAL_GOLDEN_PATH}: {e}\n\
             regenerate it with: UPDATE_GOLDEN=1 cargo test --test benchmark_suite \
             golden_signal_covers"
        )
    });
    assert_eq!(
        table, golden,
        "per-signal covers drifted from the committed snapshot; if the change is \
         intentional, regenerate it with:\n    UPDATE_GOLDEN=1 cargo test --test \
         benchmark_suite golden_signal_covers"
    );
}

#[test]
fn every_g_text_constant_parses() {
    use simap::stg::benchmarks::{
        CHU133_G, CHU150_G, CONVERTA_G, DFF_G, EBERGEN_G, HALF_G, HAZARD_G, VBE5B_G,
    };
    for (name, src) in [
        ("hazard", HAZARD_G),
        ("dff", DFF_G),
        ("half", HALF_G),
        ("chu133", CHU133_G),
        ("chu150", CHU150_G),
        ("vbe5b", VBE5B_G),
        ("ebergen", EBERGEN_G),
        ("converta", CONVERTA_G),
    ] {
        let stg = simap::stg::parse_g(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(stg.name(), name);
    }
}
