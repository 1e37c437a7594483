//! Shared harness code for the table/figure regeneration binaries.
//!
//! * [`table`] — plain-text table rendering + CSV output,
//! * [`baseline`] — flat-JSON baseline parsing + the drift gate shared by
//!   the bench-regression bins,
//! * [`pingpong`] — the IMB PingPong throughput runner behind Figs. 6–7,
//! * [`sweep`] — parallel parameter sweeps (one simulation per thread),
//! * [`paper`] — the published numbers we compare against,
//! * [`chaos`] — hostile-fabric soak runs asserting protocol liveness.

#![warn(missing_docs)]

pub mod baseline;
pub mod chaos;
pub mod paper;
pub mod pingpong;
pub mod sweep;
pub mod table;

pub use pingpong::{pingpong_throughput, PingPongPoint};
pub use table::Table;
