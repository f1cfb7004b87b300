//! Quickstart: map a benchmark specification onto a 2-input gate library
//! while preserving speed-independence, then print the resulting netlist.
//!
//! Describe the run with one validated [`Config`], execute it through an
//! [`Engine`] (which owns the benchmark registry and gate library), and
//! either `.run()` for the classic one-shot report or step through the
//! typed stages to inspect intermediate artifacts (as done here to reuse
//! the mapped netlist without rebuilding it).
//!
//! Run with: `cargo run --release --example quickstart [benchmark] [limit]`

use simap::{Config, Engine};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "hazard".to_string());
    let limit: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(2);

    let engine = Engine::new(Config::builder().literal_limit(limit).build()?);

    // 1. Elaborate the specification (STG → state graph) and sanity-check
    //    the §2.1 properties.
    let elaborated = engine.benchmark(&name).elaborate()?;
    let properties = elaborated.properties();
    println!(
        "{name}: {} signals, {} states, speed-independent: {}, CSC: {}",
        elaborated.state_graph().signal_count(),
        elaborated.state_graph().state_count(),
        properties.is_speed_independent(),
        properties.has_csc()
    );

    // 2. Synthesize monotonous covers and run the decomposition loop.
    let decomposed = elaborated.covers()?.decompose()?;
    match decomposed.implementable() {
        true => println!(
            "implementable with {limit}-literal gates after inserting {} signal(s)",
            decomposed.inserted().len()
        ),
        false => println!("not implementable with {limit}-literal gates (n.i.)"),
    }
    for step in decomposed.steps() {
        println!("  inserted {} = {} (targeting {})", step.signal, step.divisor, step.target);
    }

    // 3. Map onto the standard-C architecture and verify the result.
    let verified = decomposed.map().verify()?;
    println!("\nfinal netlist:");
    print!("{}", verified.circuit().render());
    let report = verified.report();
    println!(
        "\ncost: SI {} vs non-SI baseline {} (literals/C-elements); verified SI: {:?}",
        report.si_cost, report.non_si_cost, report.verified
    );
    Ok(())
}
