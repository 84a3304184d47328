//! # baselines — the systems the paper compares against
//!
//! * [`IntelMpi`] — a tuned host-progress MPI (the `minimpi` crate used
//!   directly): non-blocking collectives advance only inside MPI calls.
//! * [`BluesMpi`] — staging-based DPU offload of `Ialltoall` / `Ibcast` /
//!   `Iallgather` only, with the cold-start behaviour the paper observed
//!   at application level (§VIII-D).
//!
//! Both are exercised head-to-head with the proposed framework by the
//! `workloads` and `bench-harness` crates.

#![warn(missing_docs)]

mod bluesmpi;
mod intelmpi;

pub use bluesmpi::{bluesmpi_proxy_config, BluesMpi, BluesReq};
pub use intelmpi::IntelMpi;
