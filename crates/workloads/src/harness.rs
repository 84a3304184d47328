//! Per-rank runtime bundles and the workload runner.
//!
//! Every benchmark in this crate runs under one of three *runtimes*,
//! matching the paper's comparison set:
//!
//! * [`Runtime::Intel`] — host-progress MPI only;
//! * [`Runtime::Blues`] — host MPI plus BluesMPI staging offload of
//!   specific collectives;
//! * [`Runtime::Proposed`] — host MPI plus the paper's framework (GVMI
//!   data path, all caches).
//!
//! The MPI engine is always present: applications use it for setup,
//! barriers and timing reductions (as real apps do), and intra-node
//! transfers under the proposed runtime keep using host MPI, as the paper
//! notes for its 3DStencil results.
//!
//! This module is the one place that knows which engine a rank's runtime
//! adds: a workload starts an operation as a [`Pending`] and hands it
//! back to [`Harness::wait`], and [`Persistent`] is the one non-blocking
//! all-to-all / allgather set-up (Figs. 13–14 and 16 and the allgather
//! extension share it).

use std::ops::AsyncFn;
use std::sync::Arc;

use parking_lot::Mutex;

use baselines::{bluesmpi_proxy_config, BluesMpi, BluesReq};
use minimpi::Mpi;
use offload::{GroupRequest, Offload, OffloadConfig, OffloadReq};
use rdma::{ClusterSpec, Inbox, VAddr};
use simnet::{Report, SimTime};

/// Which communication runtime a benchmark run uses.
#[derive(Clone, Debug)]
pub enum Runtime {
    /// Host-based MPI (the Intel MPI stand-in).
    Intel,
    /// BluesMPI staging offload (collectives only).
    Blues,
    /// The paper's framework with the given configuration.
    Proposed(OffloadConfig),
}

impl Runtime {
    /// The proposed framework with its default (GVMI + caches) setup.
    pub fn proposed() -> Runtime {
        Runtime::Proposed(OffloadConfig::proposed())
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Runtime::Intel => "IntelMPI",
            Runtime::Blues => "BluesMPI",
            Runtime::Proposed(c) if c.data_path == offload::DataPath::Staging => "Staging",
            Runtime::Proposed(_) => "Proposed",
        }
    }
}

/// The engine a runtime adds beside host MPI, one per [`Runtime`].
pub enum Engine {
    /// IntelMPI: host MPI alone.
    Intel,
    /// BluesMPI's staged collectives.
    Blues(BluesMpi),
    /// The paper's framework.
    Proposed(Offload),
}

/// An operation in flight under any runtime, finished by
/// [`Harness::wait`].
#[derive(Clone, Copy, Debug)]
pub enum Pending {
    /// A host MPI request.
    Mpi(minimpi::Req),
    /// A Basic-primitive offload transfer.
    Off(OffloadReq),
    /// A BluesMPI collective.
    Blues(BluesReq),
    /// A called group of the proposed framework.
    Group(GroupRequest),
    /// Nothing in flight (a one-rank broadcast, say).
    Done,
}

/// Everything one rank has at its disposal during a benchmark.
pub struct Harness {
    /// This rank.
    pub rank: usize,
    /// Host MPI engine (always available).
    pub mpi: Mpi,
    /// The runtime's own engine.
    pub engine: Engine,
}

impl Harness {
    /// World size.
    pub fn size(&self) -> usize {
        self.mpi.size()
    }

    /// Process context.
    pub fn ctx(&self) -> &simnet::ProcessCtx {
        self.mpi.ctx()
    }

    /// The cluster roster.
    pub fn cluster(&self) -> &rdma::ClusterCtx {
        self.mpi.cluster()
    }

    /// Seconds of virtual time since `t0`, agreed by max-reduction across
    /// all ranks (how MPI benchmarks report a step time).
    pub async fn elapsed_max_us(&self, t0: SimTime) -> f64 {
        let local = (self.ctx().now() - t0).as_us_f64();
        self.mpi.allreduce_max_f64(local).await
    }

    /// Start a send of `bytes` from `sbuf` to `peer` and a receive of
    /// `bytes` into `rbuf` from it, tagged `(send, recv)`: a
    /// `send_offload`/`recv_offload` pair under [`Engine::Proposed`] if
    /// `offload` holds, else host `isend`/`irecv`.
    pub fn isendrecv(
        &self,
        (sbuf, rbuf): (rdma::VAddr, rdma::VAddr),
        bytes: u64,
        peer: usize,
        (send, recv): (u64, u64),
        offload: bool,
    ) -> [Pending; 2] {
        match &self.engine {
            Engine::Proposed(off) if offload => [
                Pending::Off(off.send_offload(sbuf, bytes, peer, send)),
                Pending::Off(off.recv_offload(rbuf, bytes, peer, recv)),
            ],
            _ => [
                Pending::Mpi(self.mpi.isend(sbuf, bytes, peer, send)),
                Pending::Mpi(self.mpi.irecv(rbuf, bytes, peer, recv)),
            ],
        }
    }

    /// Wait for `p` to complete on the engine that started it.
    pub async fn wait(&self, p: Pending) {
        match (p, &self.engine) {
            (Pending::Mpi(r), _) => self.mpi.wait(r).await,
            (Pending::Off(r), Engine::Proposed(off)) => off.wait(r).await,
            (Pending::Group(g), Engine::Proposed(off)) => {
                off.group_wait(g).await.expect("group offload failed")
            }
            (Pending::Blues(r), Engine::Blues(blues)) => blues.wait(r).await,
            (Pending::Done, _) => {}
            (p, _) => panic!("{p:?} waited on rank {} of another runtime", self.rank),
        }
    }
}

/// Which collective a [`Persistent`] runs.
#[derive(Clone, Copy)]
pub(crate) enum Collective {
    /// `MPI_Ialltoall` of `size()` blocks from a send into a receive
    /// buffer.
    Alltoall,
    /// `MPI_Iallgather` in one buffer of `size()` blocks, own block
    /// pre-filled.
    Allgather,
}

/// A non-blocking collective on buffers allocated once, started any
/// number of times. The proposed runtime records its group pattern at
/// set-up, so later calls hit the metadata caches (paper §VII-D).
pub(crate) struct Persistent {
    op: Collective,
    sendbuf: VAddr,
    recvbuf: VAddr,
    block: u64,
    group: Option<GroupRequest>,
}

impl Persistent {
    /// Allocate `h`'s buffers for `op` with `block`-byte blocks and record
    /// the group when the runtime is the proposed one.
    pub(crate) fn new(h: &Harness, op: Collective, block: u64) -> Persistent {
        let fab = h.cluster().fabric().clone();
        let ep = h.cluster().host_ep(h.rank);
        let bytes = block * h.size() as u64;
        let sendbuf = fab.alloc(ep, bytes);
        let recvbuf = match op {
            Collective::Alltoall => fab.alloc(ep, bytes),
            Collective::Allgather => sendbuf,
        };
        let group = match (&h.engine, op) {
            (Engine::Proposed(off), Collective::Alltoall) => {
                Some(off.record_alltoall(sendbuf, recvbuf, block))
            }
            (Engine::Proposed(off), Collective::Allgather) => {
                Some(off.record_allgather_ring(sendbuf, block))
            }
            _ => None,
        };
        Persistent {
            op,
            sendbuf,
            recvbuf,
            block,
            group,
        }
    }

    /// Start one call of the collective.
    pub(crate) async fn start(&self, h: &Harness) -> Pending {
        let (sendbuf, recvbuf, block) = (self.sendbuf, self.recvbuf, self.block);
        match (&h.engine, self.op) {
            (Engine::Proposed(off), _) => {
                let g = self.group.expect("recorded at set-up");
                off.group_call(g).await;
                Pending::Group(g)
            }
            (Engine::Blues(blues), Collective::Alltoall) => {
                Pending::Blues(blues.ialltoall(sendbuf, recvbuf, block).await)
            }
            (Engine::Blues(blues), Collective::Allgather) => {
                Pending::Blues(blues.iallgather(sendbuf, block).await)
            }
            (Engine::Intel, Collective::Alltoall) => {
                Pending::Mpi(h.mpi.ialltoall(sendbuf, recvbuf, block))
            }
            (Engine::Intel, Collective::Allgather) => {
                Pending::Mpi(h.mpi.iallgather(sendbuf, block))
            }
        }
    }
}

/// A slot for carrying one value out of the simulation (typically filled
/// by rank 0).
pub type Collector<T> = Arc<Mutex<Option<T>>>;

/// Create an empty collector.
pub fn collector<T>() -> Collector<T> {
    Arc::new(Mutex::new(None))
}

/// Fill a collector.
pub fn collect<T>(c: &Collector<T>, v: T) {
    *c.lock() = Some(v);
}

/// Take a collector's value after the run.
pub fn take<T>(c: &Collector<T>) -> T {
    c.lock().take().expect("collector filled during run")
}

/// Run `body(&harness)` on every rank of a `spec` cluster under `runtime`.
/// Spawns DPU proxies when the runtime needs them and finalizes the
/// offload engines afterwards. Ranks and proxies are future processes,
/// polled on the calling thread.
pub fn run_workload(
    spec: ClusterSpec,
    runtime: Runtime,
    body: impl AsyncFn(&Harness) + Send + Sync + 'static,
) -> Report {
    let builder = crate::observe::builder(spec);
    let label = runtime.label();
    let proxy_cfg = match &runtime {
        Runtime::Intel => None,
        Runtime::Blues => Some(bluesmpi_proxy_config()),
        Runtime::Proposed(ocfg) => Some(ocfg.clone()),
    };
    builder
        .run_async(
            async move |rank, ctx, cluster| {
                let inbox = Inbox::new();
                let engine = match &runtime {
                    Runtime::Intel => Engine::Intel,
                    Runtime::Blues => {
                        let (ctx, cluster) = (ctx.clone(), cluster.clone());
                        Engine::Blues(BluesMpi::attach(rank, ctx, cluster, &inbox))
                    }
                    Runtime::Proposed(cfg) => {
                        let (ctx, cluster) = (ctx.clone(), cluster.clone());
                        Engine::Proposed(Offload::init(rank, ctx, cluster, &inbox, cfg.clone()))
                    }
                };
                let h = Harness {
                    rank,
                    mpi: Mpi::attach(rank, ctx, cluster, &inbox),
                    engine,
                };
                offload::profile::balanced(body(&h)).await;
                match &h.engine {
                    Engine::Intel => {}
                    Engine::Blues(blues) => blues.finalize().await,
                    Engine::Proposed(off) => off.finalize().await,
                }
            },
            proxy_cfg.map(offload::proxy_fn),
        )
        .unwrap_or_else(|e| panic!("{label} run: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDelta;

    #[test]
    fn all_runtimes_bring_up_their_engines() {
        for rt in [Runtime::Intel, Runtime::Blues, Runtime::proposed()] {
            let label = rt.label();
            let c = collector::<(bool, bool)>();
            let c2 = Arc::clone(&c);
            run_workload(ClusterSpec::new(2, 1), rt, async move |h| {
                h.mpi.barrier().await;
                if h.rank == 0 {
                    let has_off = matches!(h.engine, Engine::Proposed(_));
                    collect(&c2, (has_off, matches!(h.engine, Engine::Blues(_))));
                }
            });
            let (has_off, has_blues) = take(&c);
            match label {
                "IntelMPI" => assert!(!has_off && !has_blues),
                "BluesMPI" => assert!(!has_off && has_blues),
                "Proposed" => assert!(has_off && !has_blues),
                other => panic!("unexpected label {other}"),
            }
        }
    }

    #[test]
    fn elapsed_max_agrees_across_ranks() {
        let c = collector::<f64>();
        let c2 = Arc::clone(&c);
        run_workload(ClusterSpec::new(2, 1), Runtime::Intel, async move |h| {
            let t0 = h.ctx().now();
            // Rank 1 computes longer; both must report its time.
            h.ctx()
                .compute_async(SimDelta::from_us(100 * (h.rank as u64 + 1)))
                .await;
            let us = h.elapsed_max_us(t0).await;
            assert!(us >= 200.0, "max time is the slower rank's: {us}");
            if h.rank == 0 {
                collect(&c2, us);
            }
        });
        assert!(take(&c) >= 200.0);
    }
}
