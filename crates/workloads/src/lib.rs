//! # workloads — the paper's micro-benchmarks and application skeletons
//!
//! Every figure in the paper's evaluation maps to a function here (the
//! `bench-harness` crate drives the sweeps):
//!
//! | Paper | Function |
//! |---|---|
//! | Fig. 4 (pingpong, host vs staging; takes a [`Runtime`]) | [`nonblocking_pingpong_us`] |
//! | Figs. 11–12 (3DStencil) | [`stencil3d`] |
//! | Figs. 13–14 (Ialltoall overlap) | [`ialltoall_overlap`] |
//! | Ialltoall overlap on a prepared cluster (BlueField-3, proxy count) | [`ialltoall_overlap_on`] |
//! | Iallgather overlap (extension) | [`iallgather_overlap`] |
//! | Fig. 15 (simple vs group) | [`scatter_dest_time`] |
//! | Fig. 16 (P3DFFT) | [`p3dfft`] |
//! | Fig. 17 (HPL) | [`hpl_runtime_us`] |
//!
//! All benchmarks run under a [`Runtime`] (IntelMPI / BluesMPI /
//! Proposed), built by [`run_workload`]: a rank's [`Harness`] holds host
//! MPI and the runtime's [`Engine`], and every started operation is a
//! [`Pending`] that [`Harness::wait`] finishes.

#![warn(missing_docs)]

mod alltoall;
mod drivers;
mod harness;
mod hpl;
mod observe;
mod overlap;
mod p3dfft;
mod pingpong;
mod scale;
mod stencil;

pub use alltoall::{
    iallgather_overlap, ialltoall_overlap, ialltoall_overlap_on, scatter_dest_time, ScatterImpl,
};
pub use drivers::{
    drive_alltoall, drive_breaker_recovery, drive_brownout, drive_ctrl_undeliverable,
    drive_data_integrity, drive_deadline, drive_flood, drive_group_abandon, drive_group_stencil,
    drive_noisy_neighbor, drive_quota_retry, drive_stencil, drive_tenant_flood,
    drive_verified_stencil, CheckRun,
};
pub use harness::{
    collect, collector, run_workload, take, Collector, Engine, Harness, Pending, Runtime,
};
pub use hpl::{hpl_runtime_us, matrix_order, HplAlgo, MODEL_MEM_PER_NODE, NB};
pub use observe::{fanout, with_metrics, with_observer, Observer};
pub use overlap::{omb_overlap_pct, OverlapResult};
pub use p3dfft::{p3dfft, P3dfftResult, NS_PER_POINT};
pub use pingpong::nonblocking_pingpong_us;
pub use scale::{
    scale_alltoall, scale_alltoall_with, scale_stencil, scale_stencil_with, ScaleObs, ScaleRun,
    ScaleSpec,
};
pub use stencil::{dims3, stencil3d, NS_PER_CELL};
