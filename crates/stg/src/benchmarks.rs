//! The 32-circuit benchmark suite of the paper's Table 1.
//!
//! The original asynchronous benchmark `.g` files (distributed with
//! SIS/petrify) are not available offline; per DESIGN.md §3 each circuit is
//! *reconstructed* as a deterministic STG with the structure its original
//! is known to embody — handshake sequencers, wide C-element joins
//! (`mr0`, `vbe10b`), fork/join controllers, input-choice dispatchers —
//! sized so the initial monotonous-cover implementation has a comparable
//! gate-complexity profile. Every specification is machine-checked
//! (consistency, determinism, commutativity, output persistency, CSC) by
//! the test-suite.
//!
//! A few small classics (`hazard`, `dff`, `half`, `chu133`, `ebergen`,
//! `vbe5b`, `converta`, `chu150`) are written out as `.g` source text and
//! go through the parser, exercising the full front-end path.

use crate::parse::parse_g;
use crate::patterns::{
    celement, choice, fork_join, parallel, renamed, sequencer, shared_output_choice,
};
use crate::petri::Stg;
use simap_sg::SignalKind;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A named benchmark specification.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Table 1 circuit name.
    pub name: &'static str,
    /// The specification.
    pub stg: Stg,
}

/// The `hazard.g` reconstruction used throughout the paper's running
/// example: two inputs `a`, `b`, two outputs `x`, `y`. After `y+` the
/// three transitions `a-`, `b-`, `x-` are mutually concurrent and all
/// trigger `y-`, so the reset cover of `y` is the 3-literal cube
/// `ā·b̄·x̄` — the single-cube cover whose decomposition into 2-input
/// gates is the paper's Fig. 1 walkthrough.
pub const HAZARD_G: &str = "\
# hazard -- running example of the paper (reconstruction)
.model hazard
.inputs a b
.outputs x y
.graph
a+ x+
x+ b+
b+ y+
y+ a- b- x-
a- y-
b- y-
x- y-
y- a+
.marking { <y-,a+> }
.end
";

/// D-flip-flop-style controller: `q` samples `d` on the rising clock `c`.
pub const DFF_G: &str = "\
.model dff
.inputs d c
.outputs q
.graph
d+ c+
c+ q+
q+ c-
c- d-
d- c+/2
c+/2 q-
q- c-/2
c-/2 d+
.marking { <c-/2,d+> }
.end
";

/// Three-signal toy: one request, two phased responses.
pub const HALF_G: &str = "\
.model half
.inputs a
.outputs b c
.graph
a+ b+
b+ a-
a- c+
c+ b-
b- c-
c- a+
.marking { <c-,a+> }
.end
";

/// Fork/join with one request input and a completion output.
pub const CHU133_G: &str = "\
.model chu133
.inputs a
.outputs b c d
.graph
a+ b+ c+
b+ d+
c+ d+
d+ a-
a- b- c-
b- d-
c- d-
d- a+
.marking { <d-,a+> }
.end
";

/// Asymmetric fork/join (one branch has an extra stage).
pub const CHU150_G: &str = "\
.model chu150
.inputs a
.outputs b c d e
.graph
a+ b+ c+
b+ e+
e+ d+
c+ d+
d+ a-
a- b- c-
b- e-
e- d-
c- d-
d- a+
.marking { <d-,a+> }
.end
";

/// Two concurrent handshakes joined by a completion signal.
pub const VBE5B_G: &str = "\
.model vbe5b
.inputs a b
.outputs x y z
.graph
a+ x+
b+ y+
x+ z+
y+ z+
z+ a- b-
a- x-
b- y-
x- z-
y- z-
z- a+ b+
.marking { <z-,a+> <z-,b+> }
.end
";

/// Handshake distributor: `a` then two phased grants with a shared return.
pub const EBERGEN_G: &str = "\
.model ebergen
.inputs a
.outputs c d e
.graph
a+ c+
c+ d+ e+
d+ a-
e+ a-
a- c-
c- d- e-
d- a+
e- a+
.marking { <d-,a+> <e-,a+> }
.end
";

/// Four-phase protocol converter with an internal state signal.
pub const CONVERTA_G: &str = "\
.model converta
.inputs r
.outputs a b
.internal s
.graph
r+ a+
a+ s+
s+ r-
r- b+
b+ a-
a- s-
s- b-
b- r+
.marking { <b-,r+> }
.end
";

/// Returns the list of benchmark names in Table 1 order.
pub fn benchmark_names() -> &'static [&'static str] {
    &[
        "alloc-outbound",
        "chu133",
        "chu150",
        "converta",
        "dff",
        "ebergen",
        "half",
        "hazard",
        "master-read",
        "mmu",
        "mp-forward-pkt",
        "mr0",
        "mr1",
        "nak-pa",
        "nowick",
        "pe-rcv-ifc",
        "pe-send-ifc",
        "ram-read-sbuf",
        "rcv-setup",
        "rdft",
        "sbuf-ram-write",
        "sbuf-send-ctl",
        "sbuf-send-pkt2",
        "seqmix",
        "seq4",
        "trimos-send",
        "tsend-bm",
        "vbe5b",
        "vbe5c",
        "vbe6a",
        "vbe10b",
        "wrdatab",
    ]
}

/// Builds the benchmark with the given Table 1 name, or `None` for an
/// unknown name.
pub fn benchmark(name: &str) -> Option<Stg> {
    let from_g = |src: &str| parse_g(src).expect("embedded benchmark must parse");
    let stg = match name {
        "alloc-outbound" => {
            renamed(parallel("t", &[choice(2), sequencer(2, None)]), "alloc-outbound")
        }
        "chu133" => from_g(CHU133_G),
        "chu150" => from_g(CHU150_G),
        "converta" => from_g(CONVERTA_G),
        "dff" => from_g(DFF_G),
        "ebergen" => from_g(EBERGEN_G),
        "half" => from_g(HALF_G),
        "hazard" => from_g(HAZARD_G),
        "master-read" => renamed(parallel("t", &[fork_join(2, 2), celement(3)]), "master-read"),
        "mmu" => renamed(parallel("t", &[celement(4), sequencer(3, None)]), "mmu"),
        "mp-forward-pkt" => renamed(fork_join(2, 1), "mp-forward-pkt"),
        "mr0" => renamed(parallel("t", &[celement(6), celement(4)]), "mr0"),
        "mr1" => renamed(parallel("t", &[celement(5), sequencer(3, None)]), "mr1"),
        "nak-pa" => renamed(fork_join(3, 2), "nak-pa"),
        "nowick" => renamed(choice(3), "nowick"),
        "pe-rcv-ifc" => {
            renamed(parallel("t", &[shared_output_choice(2), fork_join(2, 2)]), "pe-rcv-ifc")
        }
        "pe-send-ifc" => renamed(parallel("t", &[celement(6), choice(2)]), "pe-send-ifc"),
        "ram-read-sbuf" => {
            renamed(parallel("t", &[fork_join(2, 1), sequencer(4, None)]), "ram-read-sbuf")
        }
        "rcv-setup" => renamed(choice(2), "rcv-setup"),
        "rdft" => renamed(sequencer(5, None), "rdft"),
        "sbuf-ram-write" => renamed(fork_join(2, 2), "sbuf-ram-write"),
        "sbuf-send-ctl" => {
            renamed(parallel("t", &[celement(3), sequencer(2, None)]), "sbuf-send-ctl")
        }
        "sbuf-send-pkt2" => renamed(parallel("t", &[choice(2), fork_join(2, 1)]), "sbuf-send-pkt2"),
        "seqmix" => renamed(parallel("t", &[sequencer(3, None), choice(2)]), "seqmix"),
        "seq4" => renamed(
            sequencer(
                5,
                Some(vec![
                    SignalKind::Input,
                    SignalKind::Output,
                    SignalKind::Output,
                    SignalKind::Output,
                    SignalKind::Output,
                ]),
            ),
            "seq4",
        ),
        "trimos-send" => renamed(parallel("t", &[celement(4), fork_join(2, 1)]), "trimos-send"),
        "tsend-bm" => renamed(parallel("t", &[celement(5), choice(2)]), "tsend-bm"),
        "vbe5b" => from_g(VBE5B_G),
        "vbe5c" => renamed(
            sequencer(
                5,
                Some(vec![
                    SignalKind::Input,
                    SignalKind::Output,
                    SignalKind::Input,
                    SignalKind::Output,
                    SignalKind::Output,
                ]),
            ),
            "vbe5c",
        ),
        "vbe6a" => renamed(parallel("t", &[sequencer(3, None), sequencer(3, None)]), "vbe6a"),
        "vbe10b" => renamed(parallel("t", &[celement(7), sequencer(2, None)]), "vbe10b"),
        "wrdatab" => {
            renamed(parallel("t", &[celement(4), fork_join(2, 2), sequencer(2, None)]), "wrdatab")
        }
        _ => return None,
    };
    Some(stg)
}

/// A thread-safe handle to the embedded benchmark suite that builds each
/// specification at most once and hands out shared [`Arc<Stg>`]s.
///
/// [`benchmark`] reconstructs the STG from scratch on every call; drivers
/// that synthesize the same circuit repeatedly (batches, caches, parallel
/// workers) share a registry instead:
///
/// ```
/// use simap_stg::BenchmarkRegistry;
/// let registry = BenchmarkRegistry::new();
/// let a = registry.get("hazard").unwrap();
/// let b = registry.get("hazard").unwrap();
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // built once, shared after
/// ```
#[derive(Debug, Default)]
pub struct BenchmarkRegistry {
    cache: Mutex<HashMap<String, Arc<Stg>>>,
}

impl BenchmarkRegistry {
    /// An empty registry; specifications are built lazily on first use.
    pub fn new() -> Self {
        BenchmarkRegistry::default()
    }

    /// The benchmark names this registry resolves, in Table 1 order.
    pub fn names(&self) -> &'static [&'static str] {
        benchmark_names()
    }

    /// Whether `name` is a known benchmark (without building it).
    pub fn contains(&self, name: &str) -> bool {
        benchmark_names().contains(&name)
    }

    /// The named specification, built on first request and shared
    /// afterwards; `None` for an unknown name. The lock is held across
    /// the build so concurrent first requests for one name construct the
    /// STG exactly once (the `Arc::ptr_eq` guarantee holds across
    /// threads).
    pub fn get(&self, name: &str) -> Option<Arc<Stg>> {
        if !self.contains(name) {
            return None;
        }
        let mut cache = self.cache.lock().expect("registry lock");
        let stg = cache
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(benchmark(name).expect("known name")));
        Some(stg.clone())
    }
}

/// Builds every benchmark in Table 1 order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    benchmark_names()
        .iter()
        .map(|&name| Benchmark { name, stg: benchmark(name).expect("known name") })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::elaborate;
    use simap_sg::check_all;

    #[test]
    fn every_benchmark_builds() {
        for name in benchmark_names() {
            assert!(benchmark(name).is_some(), "missing benchmark {name}");
        }
        assert_eq!(benchmark_names().len(), 32);
        assert!(benchmark("no-such-circuit").is_none());
    }

    #[test]
    fn every_benchmark_is_clean() {
        for b in all_benchmarks() {
            let sg = elaborate(&b.stg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let report = check_all(&sg);
            assert!(report.is_ok(), "{}: {:?}", b.name, report.violations);
        }
    }

    #[test]
    fn hazard_matches_paper_shape() {
        let sg = elaborate(&benchmark("hazard").unwrap()).unwrap();
        assert_eq!(sg.signal_count(), 4);
        // 4 rising states plus the 3-dimensional falling cube.
        assert_eq!(sg.state_count(), 12);
        // The concurrent falling phase forms the faces of a 3-cube.
        assert_eq!(simap_sg::diamonds(&sg).len(), 6);
    }

    #[test]
    fn vbe10b_has_wide_join() {
        let sg = elaborate(&benchmark("vbe10b").unwrap()).unwrap();
        assert_eq!(sg.signal_count(), 10);
        // The 7-input C element dominates the state count: 2 * 2^7 * 4.
        assert_eq!(sg.state_count(), 1024);
    }

    #[test]
    fn dff_cycle_length() {
        let sg = elaborate(&benchmark("dff").unwrap()).unwrap();
        assert_eq!(sg.state_count(), 8);
    }

    #[test]
    fn roundtrip_through_g_format() {
        for b in all_benchmarks() {
            let text = crate::write::write_g(&b.stg);
            let again = crate::parse::parse_g(&text)
                .unwrap_or_else(|e| panic!("{} failed roundtrip: {e}", b.name));
            let sg1 = elaborate(&b.stg).unwrap();
            let sg2 = elaborate(&again).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert_eq!(sg1.state_count(), sg2.state_count(), "{}", b.name);
        }
    }
}
