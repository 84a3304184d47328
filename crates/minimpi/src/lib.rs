//! # minimpi — a miniature MPI over the simulated RDMA fabric
//!
//! Implements the slice of MPI the paper's evaluation needs, with the
//! *semantics that motivate the paper*:
//!
//! * Non-blocking point-to-point (`isend`/`irecv`/`test`/`wait`) with an
//!   eager protocol for small messages and a rendezvous protocol
//!   (RTS → CTS → RDMA write → FIN) for large ones.
//! * A host-driven progress engine: protocol steps only advance while the
//!   process is inside an MPI call. A rank busy in `compute()` cannot
//!   answer an RTS or fire the next stage of a dependent collective —
//!   paper Fig. 1 / Listing 1.
//! * Blocking and non-blocking collectives implemented as staged p2p
//!   schedules (binomial/ring broadcast, scatter-destination all-to-all,
//!   ring all-gather, dissemination barrier), plus scalar all-reduces for
//!   benchmark bookkeeping.
//! * A classic registration cache for rendezvous buffers.
//!
//! A rank is a future process ([`rdma::ClusterBuilder::run_async`]), so
//! every call that waits (`wait`, `wait_all`, `send`, `recv`, `compute`,
//! `compute_with_test` and the blocking collectives) is an `async fn`.
//!
//! The "IntelMPI" baseline in the `baselines` crate is this library used
//! directly; the offload framework in the `offload` crate replaces its
//! transport with DPU proxies.

#![warn(missing_docs)]

mod collectives;
mod engine;

pub use engine::{Mpi, Req, ANY_SOURCE, ANY_TAG};
