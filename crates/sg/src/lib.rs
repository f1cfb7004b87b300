//! # simap-sg
//!
//! State Graph (SG) model for speed-independent circuit synthesis: states
//! labeled with binary signal vectors, arcs labeled with signal
//! transitions, the implementability property checks of the DATE'97 paper
//! (§2.1 — consistency, determinism, commutativity, output persistency,
//! Complete State Coding) and the region machinery of §2.2 (excitation,
//! switching and restricted quiescent regions, trigger events, state
//! diamonds). [`PackedSet`] is the visited set of the explicit
//! state-space searches built on top: packed STG reachability and the
//! speed-independence verifier.
//!
//! ```
//! use simap_sg::{Event, Signal, SignalId, SignalKind, StateGraphBuilder};
//!
//! // The simplest handshake: a+ ; b+ ; a- ; b-.
//! let mut builder = StateGraphBuilder::new(
//!     "handshake",
//!     vec![Signal::new("a", SignalKind::Input), Signal::new("b", SignalKind::Output)],
//! )?;
//! let s00 = builder.add_state(0b00);
//! let s01 = builder.add_state(0b01);
//! let s11 = builder.add_state(0b11);
//! let s10 = builder.add_state(0b10);
//! builder.add_arc(s00, Event::rise(SignalId(0)), s01);
//! builder.add_arc(s01, Event::rise(SignalId(1)), s11);
//! builder.add_arc(s11, Event::fall(SignalId(0)), s10);
//! builder.add_arc(s10, Event::fall(SignalId(1)), s00);
//! let sg = builder.build(s00)?;
//! assert!(simap_sg::check_all(&sg).is_ok());
//! # Ok::<(), simap_sg::BuildSgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod graph;
pub mod packed;
pub mod properties;
pub mod regions;
pub mod signal;
pub mod stateset;

pub use export::{to_dot, DotOptions};
pub use graph::{BuildSgError, StateGraph, StateGraphBuilder, StateId};
pub use packed::PackedSet;
pub use properties::{
    check_all, check_commutativity, check_consistency, check_csc, check_determinism,
    check_output_persistency, check_reachability, PropertyReport, PropertyViolation,
};
pub use regions::{connected_components, diamonds, regions_of, signal_regions, Diamond, Region};
pub use signal::{Event, Signal, SignalId, SignalKind};
pub use stateset::StateSet;
