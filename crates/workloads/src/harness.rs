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

use std::ops::AsyncFn;
use std::sync::Arc;

use parking_lot::Mutex;

use baselines::{bluesmpi_proxy_config, BluesMpi};
use minimpi::Mpi;
use offload::{Offload, OffloadConfig};
use rdma::{ClusterSpec, Inbox};
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

/// Everything one rank has at its disposal during a benchmark.
pub struct Harness {
    /// This rank.
    pub rank: usize,
    /// Host MPI engine (always available).
    pub mpi: Mpi,
    /// The proposed framework, when the runtime is `Proposed`.
    pub off: Option<Offload>,
    /// BluesMPI, when the runtime is `Blues`.
    pub blues: Option<BluesMpi>,
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
                let (off, blues) = match &runtime {
                    Runtime::Intel => (None, None),
                    Runtime::Blues => {
                        let (ctx, cluster) = (ctx.clone(), cluster.clone());
                        (None, Some(BluesMpi::attach(rank, ctx, cluster, &inbox)))
                    }
                    Runtime::Proposed(cfg) => {
                        let (ctx, cluster) = (ctx.clone(), cluster.clone());
                        let off = Offload::init(rank, ctx, cluster, &inbox, cfg.clone());
                        (Some(off), None)
                    }
                };
                let h = Harness {
                    rank,
                    mpi: Mpi::attach(rank, ctx, cluster, &inbox),
                    off,
                    blues,
                };
                offload::profile::balanced(body(&h)).await;
                if let Some(blues) = &h.blues {
                    blues.finalize().await;
                }
                if let Some(off) = &h.off {
                    off.finalize().await;
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
                    collect(&c2, (h.off.is_some(), h.blues.is_some()));
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
