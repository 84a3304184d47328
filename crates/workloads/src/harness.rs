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

use std::sync::Arc;

use parking_lot::Mutex;

use baselines::{bluesmpi_proxy_config, BluesConfig, BluesMpi};
use minimpi::{Mpi, MpiConfig};
use offload::{Offload, OffloadConfig};
use rdma::{ClusterBuilder, ClusterSpec, Inbox};
use simnet::{Report, SimTime};

/// Which communication runtime a benchmark run uses.
#[derive(Clone, Debug)]
pub enum Runtime {
    /// Host-based MPI (the Intel MPI stand-in).
    Intel,
    /// BluesMPI staging offload (collectives only).
    Blues(BluesConfig),
    /// The paper's framework with the given configuration.
    Proposed(OffloadConfig),
}

impl Runtime {
    /// The proposed framework with its default (GVMI + caches) setup.
    pub fn proposed() -> Runtime {
        Runtime::Proposed(OffloadConfig::proposed())
    }

    /// BluesMPI with default cold-start parameters.
    pub fn blues() -> Runtime {
        Runtime::Blues(BluesConfig::default())
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Runtime::Intel => "IntelMPI",
            Runtime::Blues(_) => "BluesMPI",
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
    pub fn elapsed_max_us(&self, t0: SimTime) -> f64 {
        let local = (self.ctx().now() - t0).as_us_f64();
        self.mpi.allreduce_max_f64(local)
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
/// offload engines afterwards.
pub fn run_workload(
    spec: ClusterSpec,
    seed: u64,
    runtime: Runtime,
    body: impl Fn(&Harness) + Send + Sync + 'static,
) -> Report {
    let builder = crate::observe::apply(ClusterBuilder::new(spec, seed));
    match runtime {
        Runtime::Intel => builder
            .run_hosts(move |rank, ctx, cluster| {
                let inbox = Inbox::new();
                let h = Harness {
                    rank,
                    mpi: Mpi::attach(rank, ctx, cluster, &inbox, MpiConfig::default()),
                    off: None,
                    blues: None,
                };
                body(&h);
            })
            .expect("intel run"),
        Runtime::Blues(bcfg) => builder
            .run(
                move |rank, ctx, cluster| {
                    let inbox = Inbox::new();
                    let blues =
                        BluesMpi::attach(rank, ctx.clone(), cluster.clone(), &inbox, bcfg.clone());
                    let h = Harness {
                        rank,
                        mpi: Mpi::attach(rank, ctx, cluster, &inbox, MpiConfig::default()),
                        off: None,
                        blues: Some(blues),
                    };
                    body(&h);
                    h.blues.as_ref().expect("blues present").finalize();
                },
                Some(offload::proxy_fn(bluesmpi_proxy_config())),
            )
            .expect("blues run"),
        Runtime::Proposed(ocfg) => {
            let proxy_cfg = ocfg.clone();
            builder
                .run(
                    move |rank, ctx, cluster| {
                        let inbox = Inbox::new();
                        let off =
                            Offload::init(rank, ctx.clone(), cluster.clone(), &inbox, ocfg.clone());
                        let h = Harness {
                            rank,
                            mpi: Mpi::attach(rank, ctx, cluster, &inbox, MpiConfig::default()),
                            off: Some(off),
                            blues: None,
                        };
                        body(&h);
                        let off = h.off.as_ref().expect("offload present");
                        off.ctx().block_on(off.finalize());
                    },
                    Some(offload::proxy_fn(proxy_cfg)),
                )
                .expect("proposed run")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDelta;

    #[test]
    fn all_runtimes_bring_up_their_engines() {
        for rt in [Runtime::Intel, Runtime::blues(), Runtime::proposed()] {
            let label = rt.label();
            let c = collector::<(bool, bool)>();
            let c2 = Arc::clone(&c);
            run_workload(ClusterSpec::new(2, 1), 1, rt, move |h| {
                h.mpi.barrier();
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
        run_workload(ClusterSpec::new(2, 1), 2, Runtime::Intel, move |h| {
            let t0 = h.ctx().now();
            // Rank 1 computes longer; both must report its time.
            h.ctx()
                .compute(SimDelta::from_us(100 * (h.rank as u64 + 1)));
            let us = h.elapsed_max_us(t0);
            assert!(us >= 200.0, "max time is the slower rank's: {us}");
            if h.rank == 0 {
                collect(&c2, us);
            }
        });
        assert!(take(&c) >= 200.0);
    }
}
