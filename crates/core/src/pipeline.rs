//! The staged synthesis pipeline: one coherent entry point for the whole
//! DATE'97 flow, exposed as a typestate-flavored builder.
//!
//! ```text
//! Synthesis ──elaborate()──▶ Elaborated ──covers()──▶ Covers
//!     │                                                  │
//!     │                                            decompose()
//!   run()                                                ▼
//!     │                  Verified ◀──verify()── Mapped ◀──map()── Decomposed
//!     ▼
//! FlowReport
//! ```
//!
//! Every intermediate artifact is a first-class value with accessors — the
//! elaborated state graph, the monotonous-cover implementation, the step
//! trace, the standard-C [`Circuit`], the §4 costs — so callers can
//! inspect, cache or fan out at any stage. All stage artifacts are
//! `Send + 'static`, so they can be moved freely across worker threads.
//!
//! Runs are configured with one validated [`Config`] (see
//! [`Synthesis::config`]). The one-shot [`Synthesis::run`] reproduces the
//! classic [`FlowReport`] end to end, and [`Batch`] drives many
//! specifications through the same configuration — sequentially or on a
//! worker pool ([`Batch::jobs`]) with deterministic, order-preserving
//! results. Construct syntheses through an [`Engine`]
//! ([`Engine::benchmark`], [`Engine::batch`], …) to share benchmark
//! construction across runs.
//!
//! ```
//! use simap_core::pipeline::Synthesis;
//! let report = Synthesis::from_benchmark("hazard").run()?;
//! assert!(report.inserted.is_some());
//! assert_eq!(report.verified, Some(true));
//! # Ok::<(), simap_core::Error>(())
//! ```

use crate::config::Config;
use crate::csc::{csc_conflicts, repair_csc};
use crate::decompose::{decompose_from, DecomposeResult, DecomposeStep};
use crate::engine::Engine;
use crate::error::{Error, Stage};
use crate::flow::{build_circuit_with_or_limit, non_si_cost, si_cost, FlowReport};
use crate::mc::{synthesize_mc, McImpl};
use crate::observer::FlowEvent;
use crate::report::BatchRow;
use simap_netlist::{verify_speed_independence, Circuit, Cost, VerifyError};
use simap_sg::StateGraph;
use simap_stg::{benchmark, elaborate_with_stats, parse_g, ReachStats, Stg};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Where a synthesis run gets its specification from.
enum Source {
    /// A named circuit of the embedded Table 1 suite.
    Benchmark(String),
    /// `.g` source text, parsed at elaboration time.
    Text(String),
    /// An already-built signal transition graph.
    Stg(Box<Stg>),
    /// An already-elaborated state graph (skips reachability).
    StateGraph(Box<StateGraph>),
}

/// Where [`Synthesis::observer`] sends a run's progress events.
type Sink = Box<dyn FnMut(FlowEvent) + Send>;

/// Pipeline state threaded through the typed stages.
struct Ctx {
    config: Config,
    sink: Option<Sink>,
}

impl Ctx {
    /// Sends the event `event` builds; it is built only when a sink is
    /// attached, so an unobserved run allocates nothing for it.
    fn emit(&mut self, event: impl FnOnce() -> FlowEvent) {
        if let Some(sink) = &mut self.sink {
            sink(event());
        }
    }

    fn start(&mut self, stage: Stage, spec: &str) {
        self.emit(|| FlowEvent::StageStart { stage, spec: spec.to_string() });
    }

    fn end(&mut self, stage: Stage) {
        self.emit(|| FlowEvent::StageEnd { stage });
    }
}

/// The synthesis builder: configure a specification source and a
/// [`Config`], then either step through the typed stages (starting with
/// [`Synthesis::elaborate`]) or run the whole flow with
/// [`Synthesis::run`].
pub struct Synthesis {
    source: Source,
    engine: Option<Engine>,
    ctx: Ctx,
}

// The stage artifacts carry a boxed event sink, so Debug is
// implemented by hand over the data that identifies the stage.
macro_rules! stage_debug {
    ($ty:ident { $($field:ident : $expr:expr),* $(,)? }) => {
        impl std::fmt::Debug for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($ty))
                    $(.field(stringify!($field), &$expr(self)))*
                    .finish_non_exhaustive()
            }
        }
    };
}

stage_debug!(Synthesis {
    source: |s: &Synthesis| match &s.source {
        Source::Benchmark(name) => format!("benchmark:{name}"),
        Source::Text(_) => "g-source".to_string(),
        Source::Stg(stg) => format!("stg:{}", stg.name()),
        Source::StateGraph(sg) => format!("sg:{}", sg.name()),
    },
});
stage_debug!(Elaborated {
    name: |s: &Elaborated| s.sg.name().to_string(),
    states: |s: &Elaborated| s.sg.state_count(),
    csc_repaired: |s: &Elaborated| s.repaired.clone(),
});
stage_debug!(Covers {
    name: |s: &Covers| s.sg.name().to_string(),
    max_complexity: |s: &Covers| s.mc.max_complexity(),
});
stage_debug!(Decomposed {
    name: |s: &Decomposed| s.outcome.sg.name().to_string(),
    implementable: |s: &Decomposed| s.outcome.implementable,
    inserted: |s: &Decomposed| s.outcome.inserted.clone(),
});
stage_debug!(Mapped {
    name: |s: &Mapped| s.outcome.sg.name().to_string(),
    si_cost: |s: &Mapped| s.si,
    gates: |s: &Mapped| s.circuit.gates().len(),
});
stage_debug!(Verified {
    name: |s: &Verified| s.report.name.clone(),
    verdict: |s: &Verified| s.report.verified,
});

impl Synthesis {
    fn new(source: Source) -> Self {
        Synthesis { source, engine: None, ctx: Ctx { config: Config::default(), sink: None } }
    }

    /// Synthesizes a circuit of the embedded Table 1 suite. The name is
    /// resolved lazily: an unknown name surfaces as
    /// [`Error::UnknownBenchmark`] from [`Synthesis::elaborate`] /
    /// [`Synthesis::run`].
    pub fn from_benchmark(name: impl Into<String>) -> Self {
        Synthesis::new(Source::Benchmark(name.into()))
    }

    /// Synthesizes a specification given as `.g` source text.
    pub fn from_g_source(source: impl Into<String>) -> Self {
        Synthesis::new(Source::Text(source.into()))
    }

    /// Synthesizes an already-built signal transition graph.
    pub fn from_stg(stg: Stg) -> Self {
        Synthesis::new(Source::Stg(Box::new(stg)))
    }

    /// Synthesizes an already-elaborated state graph (reachability is
    /// skipped).
    pub fn from_state_graph(sg: StateGraph) -> Self {
        Synthesis::new(Source::StateGraph(Box::new(sg)))
    }

    /// Adopts a validated [`Config`] wholesale — the canonical way to
    /// configure a run. Build one with [`Config::builder`].
    pub fn config(mut self, config: &Config) -> Self {
        self.ctx.config = config.clone();
        self
    }

    /// Wires this synthesis to an [`Engine`] so benchmark sources resolve
    /// through the engine's registry. Constructed for you by
    /// [`Engine::benchmark`] and friends.
    pub(crate) fn engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Attaches a progress sink receiving every [`FlowEvent`] of the run
    /// as it happens: stage boundaries, CSC conflicts and repairs,
    /// per-signal covers, decomposition steps and the verdict. The sink
    /// must be `Send` so stage artifacts can cross threads.
    pub fn observer(mut self, sink: impl FnMut(FlowEvent) + Send + 'static) -> Self {
        self.ctx.sink = Some(Box::new(sink));
        self
    }

    /// Resolves the source and elaborates it into a state graph,
    /// repairing CSC first when [`Config::repair_csc`] is on.
    ///
    /// # Errors
    /// [`Error::UnknownBenchmark`], [`Error::Parse`], [`Error::Elaborate`]
    /// on load/reachability problems; [`Error::CscRepairFailed`] (with the
    /// original conflict list) when repair was requested but impossible.
    pub fn elaborate(mut self) -> Result<Elaborated, Error> {
        let reach = self.ctx.config.reach.clone();
        let (sg, reach_stats) = match self.source {
            Source::Benchmark(ref name) => {
                self.ctx.start(Stage::Load, name);
                // Resolve through the engine's registry when available so
                // the STG itself is built at most once per engine family.
                let stg = match &self.engine {
                    Some(engine) => engine.registry().get(name),
                    None => benchmark(name).map(Arc::new),
                }
                .ok_or_else(|| Error::UnknownBenchmark { name: name.clone() })?;
                self.ctx.end(Stage::Load);
                self.ctx.start(Stage::Elaborate, name);
                let (sg, stats) = elaborate_with_stats(&stg, &reach)?;
                (sg, Some(stats))
            }
            Source::Text(ref text) => {
                self.ctx.start(Stage::Load, "<g-source>");
                let stg = parse_g(text)?;
                self.ctx.end(Stage::Load);
                self.ctx.start(Stage::Elaborate, stg.name());
                let (sg, stats) = elaborate_with_stats(&stg, &reach)?;
                (sg, Some(stats))
            }
            Source::Stg(ref stg) => {
                self.ctx.start(Stage::Elaborate, stg.name());
                let (sg, stats) = elaborate_with_stats(stg, &reach)?;
                (sg, Some(stats))
            }
            Source::StateGraph(sg) => {
                self.ctx.start(Stage::Elaborate, sg.name());
                (*sg, None)
            }
        };

        let mut repaired = Vec::new();
        let conflicts = csc_conflicts(&sg);
        let sg = if conflicts.is_empty() {
            sg
        } else {
            self.ctx.emit(|| FlowEvent::CscConflicts { count: conflicts.len() });
            if self.ctx.config.repair_csc {
                match repair_csc(&sg, &self.ctx.config.csc_repair) {
                    Ok((fixed, inserted)) => {
                        for signal in &inserted {
                            self.ctx.emit(|| FlowEvent::CscRepair { signal: signal.clone() });
                        }
                        repaired = inserted;
                        fixed
                    }
                    Err(error) => {
                        return Err(Error::CscRepairFailed { error, conflicts });
                    }
                }
            } else {
                // Repair not requested: the violation surfaces as
                // `Error::CscViolation` when covers are synthesized,
                // but the elaborated graph itself is still usable.
                sg
            }
        };
        self.ctx.end(Stage::Elaborate);
        Ok(Elaborated { ctx: self.ctx, sg: Arc::new(sg), repaired, reach: reach_stats })
    }

    /// Runs the whole flow — elaborate, covers, decompose, map and (unless
    /// disabled) verify — and returns the classic [`FlowReport`].
    ///
    /// A verification *refutation* is reported as `verified == Some(false)` rather than
    /// an error; use the staged [`Mapped::verify`] for a typed verdict.
    ///
    /// # Errors
    /// Everything [`Synthesis::elaborate`] and [`Elaborated::covers`] can
    /// raise.
    pub fn run(self) -> Result<FlowReport, Error> {
        self.elaborate()?.finish()
    }
}

/// Stage artifact: the elaborated (and possibly CSC-repaired) state
/// graph. The graph is behind an [`Arc`], so the later stages and
/// [`Elaborated::state_graph_arc`] share it without copying.
pub struct Elaborated {
    ctx: Ctx,
    sg: Arc<StateGraph>,
    repaired: Vec<String>,
    reach: Option<ReachStats>,
}

impl Elaborated {
    /// The elaborated state graph.
    pub fn state_graph(&self) -> &StateGraph {
        &self.sg
    }

    /// Exploration counters of the reachability run that produced this
    /// graph — markings visited/interned, edges fired, the strategy that
    /// ran. `None` when the synthesis started from an already-elaborated
    /// state graph.
    pub fn reach_stats(&self) -> Option<ReachStats> {
        self.reach
    }

    /// A shared handle to the elaborated state graph (cheap to clone).
    pub fn state_graph_arc(&self) -> Arc<StateGraph> {
        self.sg.clone()
    }

    /// Names of the state signals inserted by CSC repair (empty when the
    /// specification had CSC or repair was off).
    pub fn csc_repaired(&self) -> &[String] {
        &self.repaired
    }

    /// The §2.1 property report of the elaborated graph.
    pub fn properties(&self) -> simap_sg::PropertyReport {
        simap_sg::check_all(&self.sg)
    }

    /// The rest of [`Synthesis::run`]: covers, decompose, map and (unless
    /// disabled) verify.
    fn finish(self) -> Result<FlowReport, Error> {
        let verify = self.ctx.config.verify;
        let mapped = self.covers()?.decompose()?.map();
        let verified = if verify { mapped.verify_compat() } else { mapped.skip_verify() };
        Ok(verified.into_report())
    }

    /// Synthesizes monotonous covers for every implementable signal.
    ///
    /// # Errors
    /// [`Error::CscViolation`] — with the full conflict list — when the
    /// specification lacks Complete State Coding.
    pub fn covers(mut self) -> Result<Covers, Error> {
        self.ctx.start(Stage::Covers, self.sg.name());
        let mc = match synthesize_mc(&self.sg) {
            Ok(mc) => mc,
            Err(crate::mc::McError::CscConflict { signal, code }) => {
                return Err(Error::CscViolation {
                    signal,
                    code,
                    conflicts: csc_conflicts(&self.sg),
                });
            }
        };
        // Per-signal progress events come from the merged result, in
        // signal-index order (all CSC events belong to the Elaborate
        // stage and precede these by construction).
        for signal in &mc.signals {
            self.ctx.emit(|| FlowEvent::SignalSynth {
                signal: self.sg.signals()[signal.signal.0].name.clone(),
                cubes: signal.cube_count(),
                literals: signal.literal_count(),
            });
        }
        let initial_histogram = mc.gate_histogram();
        let non_si = non_si_cost(&mc, self.ctx.config.decompose.literal_limit);
        self.ctx.end(Stage::Covers);
        Ok(Covers {
            ctx: self.ctx,
            sg: self.sg,
            repaired: self.repaired,
            reach: self.reach,
            mc,
            initial_histogram,
            non_si,
        })
    }
}

/// Stage artifact: the initial monotonous-cover implementation.
pub struct Covers {
    ctx: Ctx,
    sg: Arc<StateGraph>,
    repaired: Vec<String>,
    reach: Option<ReachStats>,
    mc: McImpl,
    initial_histogram: Vec<usize>,
    non_si: Cost,
}

impl Covers {
    /// The state graph the covers were synthesized for.
    pub fn state_graph(&self) -> &StateGraph {
        &self.sg
    }

    /// The initial monotonous-cover implementation.
    pub fn mc(&self) -> &McImpl {
        &self.mc
    }

    /// Gate-complexity histogram of the initial implementation.
    pub fn initial_histogram(&self) -> &[usize] {
        &self.initial_histogram
    }

    /// Non-SI `tech_decomp` baseline cost of the initial implementation.
    pub fn non_si_cost(&self) -> Cost {
        self.non_si
    }

    /// Runs the §3 decomposition/resynthesis loop, sending
    /// [`FlowEvent::Step`] as each insertion is committed.
    ///
    /// # Errors
    /// None today: the loop rejects any candidate whose resynthesis fails
    /// and commits only covers it has already built, so a specification
    /// that passed [`Elaborated::covers`] always decomposes.
    pub fn decompose(mut self) -> Result<Decomposed, Error> {
        self.ctx.start(Stage::Decompose, self.sg.name());
        // The loop starts from the covers this stage already holds, on the
        // graph itself when no other handle shares it.
        let sink = &mut self.ctx.sink;
        let outcome = decompose_from(
            Arc::unwrap_or_clone(self.sg),
            self.mc,
            &self.ctx.config.decompose,
            &mut |step| {
                if let Some(sink) = sink {
                    sink(FlowEvent::Step { step: step.clone() });
                }
            },
        );
        self.ctx.end(Stage::Decompose);
        Ok(Decomposed {
            ctx: self.ctx,
            repaired: self.repaired,
            reach: self.reach,
            outcome,
            initial_histogram: self.initial_histogram,
            non_si: self.non_si,
        })
    }
}

/// Stage artifact: the decomposition outcome (final state graph, final
/// covers, step trace).
pub struct Decomposed {
    ctx: Ctx,
    repaired: Vec<String>,
    reach: Option<ReachStats>,
    outcome: DecomposeResult,
    initial_histogram: Vec<usize>,
    non_si: Cost,
}

impl Decomposed {
    /// The final state graph (original plus inserted signals).
    pub fn state_graph(&self) -> &StateGraph {
        &self.outcome.sg
    }

    /// The final monotonous-cover implementation.
    pub fn mc(&self) -> &McImpl {
        &self.outcome.mc
    }

    /// Whether every gate fits the literal limit.
    pub fn implementable(&self) -> bool {
        self.outcome.implementable
    }

    /// Names of the signals the loop inserted, in order.
    pub fn inserted(&self) -> &[String] {
        &self.outcome.inserted
    }

    /// The committed decomposition steps.
    pub fn steps(&self) -> &[DecomposeStep] {
        &self.outcome.steps
    }

    /// Builds the standard-C netlist (honoring the configured
    /// [`Config::or_limit`]) and computes the §4 costs.
    pub fn map(mut self) -> Mapped {
        self.ctx.start(Stage::Map, self.outcome.sg.name());
        let circuit = build_circuit_with_or_limit(
            &self.outcome.sg,
            &self.outcome.mc,
            self.ctx.config.or_limit,
        );
        let si = si_cost(&self.outcome.mc, self.ctx.config.decompose.literal_limit);
        self.ctx.end(Stage::Map);
        Mapped {
            ctx: self.ctx,
            repaired: self.repaired,
            reach: self.reach,
            outcome: self.outcome,
            initial_histogram: self.initial_histogram,
            non_si: self.non_si,
            si,
            circuit,
        }
    }
}

/// Stage artifact: the mapped standard-C netlist with cost accounting.
pub struct Mapped {
    ctx: Ctx,
    repaired: Vec<String>,
    reach: Option<ReachStats>,
    outcome: DecomposeResult,
    initial_histogram: Vec<usize>,
    non_si: Cost,
    si: Cost,
    circuit: Circuit,
}

impl Mapped {
    /// The mapped netlist.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// SI decomposition cost (§4 model).
    pub fn si_cost(&self) -> Cost {
        self.si
    }

    /// Non-SI `tech_decomp` baseline cost of the initial implementation.
    pub fn non_si_cost(&self) -> Cost {
        self.non_si
    }

    /// The final state graph.
    pub fn state_graph(&self) -> &StateGraph {
        &self.outcome.sg
    }

    /// The final monotonous-cover implementation.
    pub fn mc(&self) -> &McImpl {
        &self.outcome.mc
    }

    /// The shared verifier invocation: `Ok(Some(true))` verified,
    /// `Ok(None)` inconclusive (not implementable or state cap hit),
    /// `Err` refuted or structurally unverifiable.
    fn run_verifier(&self) -> Result<Option<bool>, VerifyError> {
        if !self.outcome.implementable {
            return Ok(None);
        }
        match verify_speed_independence(
            &self.circuit,
            &self.outcome.sg,
            &self.ctx.config.verify_config,
        ) {
            Ok(_) => Ok(Some(true)),
            Err(VerifyError::TooManyStates { .. }) => Ok(None),
            Err(error) => Err(error),
        }
    }

    /// Verifies the final netlist against the final state graph.
    ///
    /// Implementations that exceeded the literal limit
    /// (`implementable == false`) and explorations that exceed the
    /// verifier's state cap yield an *inconclusive* verdict (`None`), not
    /// an error.
    ///
    /// # Errors
    /// [`Error::Verify`] when the circuit is refuted (hazard, unexpected
    /// output, deadlock) or structurally unverifiable (missing net,
    /// unstable initial state).
    pub fn verify(mut self) -> Result<Verified, Error> {
        self.ctx.start(Stage::Verify, self.outcome.sg.name());
        let outcome = self.run_verifier();
        let verdict = match &outcome {
            Ok(v) => *v,
            Err(_) => Some(false),
        };
        self.ctx.emit(|| FlowEvent::Verdict { verified: verdict });
        self.ctx.end(Stage::Verify);
        match outcome {
            Ok(v) => Ok(self.into_verified(v)),
            Err(error) => Err(Error::Verify { error }),
        }
    }

    /// Skips verification, producing a report with `verified == None`.
    pub fn skip_verify(mut self) -> Verified {
        self.ctx.start(Stage::Verify, self.outcome.sg.name());
        self.ctx.emit(|| FlowEvent::Verdict { verified: None });
        self.ctx.end(Stage::Verify);
        self.into_verified(None)
    }

    /// Verifies with the one-shot [`Synthesis::run`] verdict mapping: a
    /// refutation becomes `verified == Some(false)` in the report instead
    /// of an [`Error::Verify`] — for drivers (like the CLI) that report
    /// refutation as data rather than aborting.
    pub fn verify_compat(mut self) -> Verified {
        self.ctx.start(Stage::Verify, self.outcome.sg.name());
        let verdict = self.run_verifier().unwrap_or(Some(false));
        self.ctx.emit(|| FlowEvent::Verdict { verified: verdict });
        self.ctx.end(Stage::Verify);
        self.into_verified(verdict)
    }

    fn into_verified(self, verified: Option<bool>) -> Verified {
        let report = FlowReport {
            name: self.outcome.sg.name().to_string(),
            initial_histogram: self.initial_histogram,
            inserted: self.outcome.implementable.then_some(self.outcome.inserted.len()),
            inserted_names: self.outcome.inserted.clone(),
            si_cost: self.si,
            non_si_cost: self.non_si,
            verified,
            reach: self.reach,
            outcome: self.outcome,
        };
        Verified { repaired: self.repaired, circuit: self.circuit, report }
    }
}

/// Terminal stage artifact: the flow report plus the verified netlist.
pub struct Verified {
    repaired: Vec<String>,
    circuit: Circuit,
    report: FlowReport,
}

impl Verified {
    /// The verification verdict (`None` = skipped or inconclusive).
    pub fn verdict(&self) -> Option<bool> {
        self.report.verified
    }

    /// The mapped netlist.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Names of the state signals CSC repair inserted before synthesis.
    pub fn csc_repaired(&self) -> &[String] {
        &self.repaired
    }

    /// The classic flow report.
    pub fn report(&self) -> &FlowReport {
        &self.report
    }

    /// Consumes the stage into the classic flow report.
    pub fn into_report(self) -> FlowReport {
        self.report
    }
}

/// Drives many specifications through one pipeline configuration,
/// yielding the [`BatchRow`]s the report emitters consume.
///
/// A batch runs on an [`Engine`]: each benchmark's STG is built once,
/// and each (specification, literal limit) pair is elaborated and run
/// once. With
/// [`Batch::jobs`] the specifications are distributed over a pool of
/// `std::thread` workers; the resulting rows are **byte-identical** to a
/// sequential run, in the same order (the first error in input order is
/// reported, as sequentially).
pub struct Batch {
    engine: Engine,
    names: Vec<String>,
    limits: Vec<usize>,
    jobs: usize,
}

impl Batch {
    /// A batch over the given benchmark names, on a fresh default
    /// [`Engine`]. Use [`Engine::batch`] to share an existing engine's
    /// registry and configuration.
    pub fn over_benchmarks<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Batch::on_engine(Engine::default(), names)
    }

    /// A batch over the whole embedded 32-circuit Table 1 suite.
    pub fn over_all_benchmarks() -> Self {
        let engine = Engine::default();
        let names: Vec<&str> = engine.registry().names().to_vec();
        Batch::on_engine(engine, names)
    }

    pub(crate) fn on_engine<I, S>(engine: Engine, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Batch {
            engine,
            names: names.into_iter().map(Into::into).collect(),
            limits: vec![2],
            jobs: 1,
        }
    }

    /// Literal limits to run each specification at (default `[2]`); the
    /// resulting [`BatchRow::reports`] align with this slice. An empty
    /// slice or a limit below 2 surfaces as [`Error::InvalidConfig`] from
    /// [`Batch::run`].
    pub fn limits(mut self, limits: impl Into<Vec<usize>>) -> Self {
        self.limits = limits.into();
        self
    }

    /// Number of worker threads (default 1 = sequential). The results are
    /// identical to a sequential run whatever the value.
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = n.max(1);
        self
    }

    /// Replaces the batch's configuration (the engine's registry is kept).
    pub fn config(mut self, config: &Config) -> Self {
        self.engine = self.engine.with_config(config.clone());
        self
    }

    /// Runs every specification at every limit — on `jobs` worker threads
    /// when configured.
    ///
    /// # Errors
    /// The first [`Error`] any run raises, in input order. Unknown names
    /// surface as [`Error::UnknownBenchmark`] before any flow runs, and
    /// invalid limits as [`Error::InvalidConfig`].
    pub fn run(self) -> Result<Vec<BatchRow>, Error> {
        // Validate every name upfront so a typo late in the list does not
        // waste the (potentially minutes-long) flows before it.
        for name in &self.names {
            if !self.engine.registry().contains(name) {
                return Err(Error::UnknownBenchmark { name: name.clone() });
            }
        }
        // One configuration per literal limit. Only the limits themselves
        // are validated here: the base config passed its builder already.
        if self.limits.is_empty() {
            return Err(Error::InvalidConfig {
                message: "a batch needs at least one literal limit".to_string(),
            });
        }
        let configs: Vec<Config> = self
            .limits
            .iter()
            .map(|&limit| {
                if limit < 2 {
                    return Err(Error::InvalidConfig {
                        message: format!("literal limit {limit} is below 2"),
                    });
                }
                let mut config = self.engine.config().clone();
                config.decompose.literal_limit = limit;
                Ok(config)
            })
            .collect::<Result<_, _>>()?;

        let engine = &self.engine;
        let names = &self.names;
        let configs = &configs;
        let jobs = self.jobs.min(names.len()).max(1);
        if jobs == 1 {
            return names.iter().map(|name| run_row(engine, name, configs)).collect();
        }

        // Worker pool: an atomic cursor hands out specifications; each
        // result lands in its input-order slot, so the assembled rows (and
        // the first reported error) are identical to a sequential run.
        // A failure flag cancels the unclaimed suffix — matching the
        // sequential fail-fast contract of not wasting minutes-long flows
        // after an error (rows already claimed still finish).
        let cursor = AtomicUsize::new(0);
        let failed = std::sync::atomic::AtomicBool::new(false);
        let slots: Vec<Mutex<Option<Result<BatchRow, Error>>>> =
            names.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(name) = names.get(i) else { break };
                    let row = run_row(engine, name, configs);
                    if row.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    *slots[i].lock().expect("result slot") = Some(row);
                });
            }
        });
        // Claims are handed out in input order and every claimed slot is
        // filled, so the unclaimed (empty) suffix can only begin after
        // the first error slot: scanning in order finds the same error a
        // sequential run would report.
        let mut rows = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot.into_inner().expect("result slot") {
                Some(Ok(row)) => rows.push(row),
                Some(Err(error)) => return Err(error),
                None => unreachable!("slots are only left empty after an earlier error"),
            }
        }
        Ok(rows)
    }
}

/// One batch row: the full flow at every limit, each on its own
/// elaboration (the limits differ only after elaboration, so every run
/// sees the same state count).
fn run_row(engine: &Engine, name: &str, configs: &[Config]) -> Result<BatchRow, Error> {
    let mut states = 0;
    let mut reports = Vec::with_capacity(configs.len());
    for config in configs {
        let elaborated = engine.with_config(config.clone()).benchmark(name).elaborate()?;
        states = elaborated.state_graph().state_count();
        reports.push(elaborated.finish()?);
    }
    Ok(BatchRow { name: name.to_string(), states, reports })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_at(limit: usize) -> Config {
        Config::builder().literal_limit(limit).build().unwrap()
    }

    #[test]
    fn one_shot_matches_quickstart() {
        let report = Synthesis::from_benchmark("hazard").config(&config_at(2)).run().unwrap();
        assert_eq!(report.inserted, Some(1));
        assert_eq!(report.verified, Some(true));
    }

    #[test]
    fn staged_run_exposes_artifacts() {
        let elaborated = Synthesis::from_benchmark("hazard").elaborate().unwrap();
        assert!(elaborated.properties().is_ok());
        let states = elaborated.state_graph().state_count();
        assert!(states > 0);

        let covers = elaborated.covers().unwrap();
        assert!(covers.mc().max_complexity() >= 3, "hazard has a 3-literal cover");
        assert!(covers.non_si_cost().literals > 0);

        let decomposed = covers.decompose().unwrap();
        assert!(decomposed.implementable());
        assert_eq!(decomposed.inserted().len(), decomposed.steps().len());
        assert!(decomposed.state_graph().state_count() > states);

        let mapped = decomposed.map();
        assert!(!mapped.circuit().gates().is_empty());
        assert!(mapped.si_cost().literals > 0);

        let verified = mapped.verify().unwrap();
        assert_eq!(verified.verdict(), Some(true));
        let report = verified.into_report();
        assert_eq!(report.inserted, Some(1));
    }

    #[test]
    fn staged_equals_one_shot() {
        let staged = Synthesis::from_benchmark("dff")
            .config(&config_at(2))
            .elaborate()
            .unwrap()
            .covers()
            .unwrap()
            .decompose()
            .unwrap()
            .map()
            .verify()
            .unwrap()
            .into_report();
        let one_shot = Synthesis::from_benchmark("dff").config(&config_at(2)).run().unwrap();
        assert_eq!(staged.inserted, one_shot.inserted);
        assert_eq!(staged.si_cost, one_shot.si_cost);
        assert_eq!(staged.non_si_cost, one_shot.non_si_cost);
        assert_eq!(staged.verified, one_shot.verified);
    }

    #[test]
    fn unknown_benchmark_is_a_load_error() {
        let err = Synthesis::from_benchmark("no-such-circuit").run().unwrap_err();
        assert!(matches!(err, Error::UnknownBenchmark { ref name } if name == "no-such-circuit"));
        assert_eq!(err.stage(), Stage::Load);
    }

    #[test]
    fn g_source_parses_and_runs() {
        let report = Synthesis::from_g_source(
            ".model ring\n.inputs a\n.outputs b\n.graph\n\
             a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
        )
        .run()
        .unwrap();
        assert_eq!(report.inserted, Some(0));
        assert_eq!(report.verified, Some(true));
    }

    #[test]
    fn bad_g_source_is_a_parse_error() {
        let err = Synthesis::from_g_source(".graph\nnonsense\n").run().unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
        assert_eq!(err.stage(), Stage::Load);
    }

    #[test]
    fn observer_sees_steps_and_verdict() {
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = events.clone();
        let report = Synthesis::from_benchmark("hazard")
            .observer(move |e| sink.lock().unwrap().push(e))
            .run()
            .unwrap();
        let events = events.lock().unwrap();
        let steps = events.iter().filter(|e| matches!(e, FlowEvent::Step { .. })).count();
        assert_eq!(steps, report.inserted.unwrap());
        let verdicts: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                FlowEvent::Verdict { verified } => Some(*verified),
                _ => None,
            })
            .collect();
        assert_eq!(verdicts, [Some(true)]);
        let stages: Vec<Stage> = events
            .iter()
            .filter_map(|e| match e {
                FlowEvent::StageStart { stage, .. } => Some(*stage),
                _ => None,
            })
            .collect();
        for stage in [Stage::Load, Stage::Elaborate, Stage::Covers, Stage::Decompose, Stage::Map] {
            assert!(stages.contains(&stage), "missing {stage}");
        }
    }

    #[test]
    fn stage_artifacts_are_send() {
        fn is_send<T: Send + 'static>() {}
        is_send::<Synthesis>();
        is_send::<Elaborated>();
        is_send::<Covers>();
        is_send::<Decomposed>();
        is_send::<Mapped>();
        is_send::<Verified>();
        is_send::<Batch>();
        is_send::<Engine>();
        is_send::<Config>();
        is_send::<Error>();
        is_send::<FlowReport>();
    }

    #[test]
    fn batch_yields_aligned_rows() {
        let config = Config::builder().verify(false).build().unwrap();
        let rows = Batch::over_benchmarks(["half", "hazard"])
            .config(&config)
            .limits([2, 3])
            .run()
            .unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.reports.len(), 2);
            assert!(row.states > 0);
            assert!(row.reports.iter().all(|r| r.inserted.is_some()));
        }
        assert!(rows[1].reports[0].inserted >= rows[1].reports[1].inserted);
    }

    #[test]
    fn batch_rejects_unknown_names_fail_fast() {
        let err = Batch::over_benchmarks(["half", "bogus"]).run().unwrap_err();
        assert!(matches!(err, Error::UnknownBenchmark { ref name } if name == "bogus"));
    }

    #[test]
    fn batch_rejects_invalid_limits_before_running() {
        let err = Batch::over_benchmarks(["half"]).limits([1]).run().unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }), "{err}");
        let err = Batch::over_benchmarks(["half"]).limits(Vec::new()).run().unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn parallel_batch_matches_sequential_rows() {
        let engine = Engine::new(Config::builder().verify(false).build().unwrap());
        let names = ["half", "hazard", "dff", "chu133"];
        let sequential = engine.batch(names).limits([2]).jobs(1).run().unwrap();
        let parallel = engine.batch(names).limits([2]).jobs(3).run().unwrap();
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.states, p.states);
            for (sr, pr) in s.reports.iter().zip(&p.reports) {
                assert_eq!(sr.inserted, pr.inserted, "{}", s.name);
                assert_eq!(sr.inserted_names, pr.inserted_names, "{}", s.name);
                assert_eq!(sr.si_cost, pr.si_cost, "{}", s.name);
                assert_eq!(sr.non_si_cost, pr.non_si_cost, "{}", s.name);
            }
        }
    }

    #[test]
    fn parallel_batch_reports_first_error_in_input_order() {
        // "mmu" elaborates to thousands of states; a tiny reachability cap
        // makes every run fail, and the reported error must be the first
        // name in input order, exactly as sequentially.
        let config = Config::builder().reach_max_states(2).verify(false).build().unwrap();
        let engine = Engine::new(config);
        let err = engine.batch(["half", "hazard"]).jobs(2).run().unwrap_err();
        assert!(matches!(err, Error::Elaborate(_)), "{err}");
    }
}
