//! # baselines — the systems the paper compares against
//!
//! * IntelMPI — a tuned host-progress MPI. It has no type here: it is
//!   the `minimpi` crate's `Mpi` used directly, whose non-blocking
//!   collectives advance only inside MPI calls.
//! * [`BluesMpi`] — staging-based DPU offload of `Ialltoall` / `Ibcast` /
//!   `Iallgather` only, with the cold-start behaviour the paper observed
//!   at application level (§VIII-D).
//!
//! Both are exercised head-to-head with the proposed framework by the
//! `workloads` and `bench-harness` crates.

#![warn(missing_docs)]

mod bluesmpi;

pub use bluesmpi::{bluesmpi_proxy_config, BluesMpi, BluesReq};
