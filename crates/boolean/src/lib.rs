//! # simap-boolean
//!
//! Cube/sum-of-products boolean engine underpinning the speed-independent
//! technology mapper: cube algebra, two-level minimization against explicit
//! ON/OFF minterm lists, algebraic division, kernel extraction, candidate
//! divisor generation and tree factoring.
//!
//! Cube/cover functions are defined over at most [`cube::MAX_VARS`] (= 64)
//! variables, which comfortably covers the asynchronous-benchmark state
//! graphs the mapper targets.
//!
//! ```
//! use simap_boolean::{Cover, Cube, Literal, algebraic_divide};
//!
//! // f = ab + ac + d, divided by (b + c), gives quotient a and remainder d.
//! let f = Cover::from_cubes([
//!     Cube::from_literals([Literal::pos(0), Literal::pos(1)]).ok_or("bad cube")?,
//!     Cube::from_literals([Literal::pos(0), Literal::pos(2)]).ok_or("bad cube")?,
//!     Cube::from_literals([Literal::pos(3)]).ok_or("bad cube")?,
//! ]);
//! let d = Cover::from_cubes([
//!     Cube::from_literals([Literal::pos(1)]).ok_or("bad cube")?,
//!     Cube::from_literals([Literal::pos(2)]).ok_or("bad cube")?,
//! ]);
//! let division = algebraic_divide(&f, &d);
//! assert_eq!(division.quotient.literal_count(), 1);
//! # Ok::<(), &'static str>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cover;
pub mod cube;
pub mod divide;
pub mod divisors;
pub mod factor;
pub mod kernels;
pub mod minimize;

pub use cover::Cover;
pub use cube::{Cube, Literal, MAX_VARS};
pub use divide::{algebraic_divide, divide_by_cube, Division};
pub use divisors::{generate_divisors, DivisorConfig};
pub use factor::{good_factor, two_input_decomposition_cost, Factored};
pub use kernels::{kernels, Kernel};
pub use minimize::{gate_complexity, minimize_onoff, ConflictingMintermError, MinimizeProblem};
