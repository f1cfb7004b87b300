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
/// the packed default, the explicit oracle *and* the external-memory
/// spill engine. Regenerate after an
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

/// Where the committed per-region cover snapshot lives.
const REGION_GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/region_covers.tsv");

/// Golden per-region snapshot: for every implementable signal of every
/// circuit its body kind and, per first-level cover, the event, the region
/// indices, the rendered cover (cube order included) and the gate
/// complexity; a combinational body contributes its one next-state cover.
/// Debug builds check the circuits of at most 400 states; release builds
/// check all 32. Regenerate (in release, so every circuit is written)
/// after an intentional change with:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --release --test benchmark_suite golden_region_covers
/// ```
#[test]
fn golden_region_covers_snapshot() {
    use simap::core::SignalBody;
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    assert!(!(update && cfg!(debug_assertions)), "regenerate in release: debug runs skip circuits");
    let mut table = String::from("# circuit\tsignal\tbody\tevent\tregions\tcover\tcomplexity\n");
    let mut checked: Vec<&str> = Vec::new();
    for &name in benchmark_names() {
        let stg = simap::stg::benchmark(name).expect("known benchmark");
        let sg = elaborate(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        if cfg!(debug_assertions) && sg.state_count() > 400 {
            continue;
        }
        let mc = synthesize_mc(&sg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let var = |v: usize| sg.signals()[v].name.clone();
        for signal in &mc.signals {
            let prefix = format!("{name}\t{}", var(signal.signal.0));
            match &signal.body {
                SignalBody::Combinational { cover, complexity } => {
                    let cover = cover.display_with(var);
                    table.push_str(&format!(
                        "{prefix}\tcombinational\t-\t-\t{cover}\t{complexity}\n"
                    ));
                }
                SignalBody::StandardC { set, reset } => {
                    for rc in set.iter().chain(reset) {
                        let regions: Vec<String> =
                            rc.region_indices.iter().map(usize::to_string).collect();
                        table.push_str(&format!(
                            "{prefix}\tstandard-c\t{}\t{}\t{}\t{}\n",
                            sg.event_name(rc.event),
                            regions.join(","),
                            rc.cover.display_with(var),
                            rc.complexity
                        ));
                    }
                }
            }
        }
        checked.push(name);
    }
    if update {
        std::fs::write(REGION_GOLDEN_PATH, &table).expect("write golden snapshot");
        eprintln!("regenerated {REGION_GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(REGION_GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "cannot read {REGION_GOLDEN_PATH}: {e}\n\
             regenerate it with: UPDATE_GOLDEN=1 cargo test --release --test benchmark_suite \
             golden_region_covers"
        )
    });
    let expected: String = golden
        .lines()
        .filter(|line| line.starts_with('#') || checked.contains(&line.split('\t').next().unwrap()))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(
        table, expected,
        "region covers drifted from the committed snapshot; if the change is intentional, \
         regenerate it with:\n    UPDATE_GOLDEN=1 cargo test --release --test benchmark_suite \
         golden_region_covers"
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

/// Where the committed Table 1 snapshot lives.
const TABLE1_GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/table1.tsv");

/// Golden Table 1: per circuit, the signals inserted at i = 2/3/4, the
/// local-acknowledgment baseline's 2-input verdict, the non-SI and SI
/// costs (literals/C elements) and the i = 2 verification verdict, as
/// `table1_row` computes them. Debug builds check the circuits of at most
/// 400 states; release builds check all 32. Regenerate (in release, so
/// every row is written) after an intentional change with:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --release --test benchmark_suite golden_table1
/// ```
#[test]
fn golden_table1_snapshot() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    assert!(!(update && cfg!(debug_assertions)), "regenerate in release: debug runs skip rows");
    let engine = simap::Engine::default();
    let mut table = String::from("# circuit\ti2\ti3\ti4\tlocal_ack_2in\tnon_si\tsi\tverified\n");
    let mut checked: Vec<&str> = Vec::new();
    for &name in benchmark_names() {
        if cfg!(debug_assertions) && simap_bench::benchmark_sg(name).state_count() > 400 {
            continue;
        }
        let row = simap_bench::table1_row(&engine, name, true);
        let inserted = row.inserted.map(simap_bench::format_inserted);
        let verified = match row.verified {
            Some(true) => "yes",
            Some(false) => "no",
            None => "-",
        };
        table.push_str(&format!(
            "{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{verified}\n",
            inserted[0],
            inserted[1],
            inserted[2],
            if row.siegel_two_input { "yes" } else { "no" },
            row.non_si,
            row.si,
        ));
        checked.push(name);
    }
    if update {
        std::fs::write(TABLE1_GOLDEN_PATH, &table).expect("write golden snapshot");
        eprintln!("regenerated {TABLE1_GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(TABLE1_GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "cannot read {TABLE1_GOLDEN_PATH}: {e}\n\
             regenerate it with: UPDATE_GOLDEN=1 cargo test --release --test benchmark_suite \
             golden_table1"
        )
    });
    let expected: String = golden
        .lines()
        .filter(|line| line.starts_with('#') || checked.contains(&line.split('\t').next().unwrap()))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(
        table, expected,
        "Table 1 drifted from the committed snapshot; if the change is intentional, \
         regenerate it with:\n    UPDATE_GOLDEN=1 cargo test --release --test benchmark_suite \
         golden_table1"
    );
}
