//! The "IntelMPI" baseline: a well-tuned, host-progress MPI.
//!
//! This is `minimpi` used directly — non-blocking collectives are staged
//! p2p schedules progressed only inside MPI calls, exactly the baseline
//! behaviour the paper compares against (Intel MPI 2021 with
//! `MPI_Test`-driven progress). The thin wrapper exists so benchmark
//! harnesses can name the library and so algorithm choices are pinned in
//! one place.

use minimpi::{Mpi, Req};
use rdma::{ClusterCtx, Inbox, VAddr};
use simnet::ProcessCtx;

/// Host-based MPI baseline for one rank.
pub struct IntelMpi {
    mpi: Mpi,
}

impl IntelMpi {
    /// Attach to the given inbox (coexists with other engines).
    pub fn attach(rank: usize, ctx: ProcessCtx, cluster: ClusterCtx, inbox: &Inbox) -> Self {
        IntelMpi {
            mpi: Mpi::attach(rank, ctx, cluster, inbox),
        }
    }

    /// Standalone instance with a private inbox.
    pub fn new(rank: usize, ctx: ProcessCtx, cluster: ClusterCtx) -> Self {
        IntelMpi {
            mpi: Mpi::new(rank, ctx, cluster),
        }
    }

    /// The underlying MPI (p2p, blocking collectives, reductions).
    pub fn mpi(&self) -> &Mpi {
        &self.mpi
    }

    /// Non-blocking all-to-all: scatter-destination schedule.
    pub fn ialltoall(&self, sendbuf: VAddr, recvbuf: VAddr, block: u64) -> Req {
        self.mpi.ialltoall(sendbuf, recvbuf, block)
    }

    /// Non-blocking broadcast: binomial tree (Intel's strongest Ibcast in
    /// the paper's comparison).
    pub fn ibcast(&self, root: usize, addr: VAddr, len: u64) -> Req {
        self.mpi.ibcast(root, addr, len)
    }

    /// Non-blocking ring broadcast (the HPL-1ring algorithm expressed as a
    /// schedule; still host-progressed).
    pub fn iring_bcast(&self, root: usize, addr: VAddr, len: u64) -> Req {
        self.mpi.iring_bcast(root, addr, len)
    }

    /// Wait on a request.
    pub async fn wait(&self, r: Req) {
        self.mpi.wait(r).await;
    }

    /// Test a request (drives host progress — the Listing 1 pattern).
    pub fn test(&self, r: Req) -> bool {
        self.mpi.test(r)
    }
}
