//! Wall-clock benchmark of the Open-MX simulator.
//!
//! Each workload is a seeded sequence of independent jobs run back to back
//! on one thread. A job builds a fresh [`openmx_core::Cluster`], adds one
//! [`openmx_mpi::ScriptProcess`] per MPI rank, steps the cluster to
//! quiescence with `Cluster::step_until`, and checks the result. The
//! end-to-end metrics are wall-clock and memory measures of the simulator;
//! its virtual-time results serve as correctness checks and as the
//! `model.*` per-layer numbers. See `README.md` in this directory.

pub mod alloc;
pub mod bench;
pub mod calib;
pub mod gen;
pub mod job;
pub mod replay;
pub mod spans;
