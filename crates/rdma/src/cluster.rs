//! Cluster construction helper.
//!
//! Upper layers (MPI, offload framework, workloads) all need the same
//! boilerplate: a [`Simulation`], a [`Fabric`], one host process per rank,
//! and optionally proxy processes on each DPU. [`ClusterBuilder`] wires
//! that up and hands every process a [`ClusterCtx`] with the full roster.
//! Host ranks and proxies are future processes
//! ([`ClusterBuilder::run_async`], see
//! [`simnet::Simulation::spawn_future`]), polled on the thread that runs
//! the cluster: a host rank only ever waits for its next message, and a
//! DPU proxy is a loop on its next message, so neither needs a thread of
//! its own.
//!
//! A cluster runs on simnet's one loop, on the thread that calls
//! `run_async`: the fabric arbitrates same-QP FIFO order, per-endpoint
//! CPU timelines and the payload-fault RNG under one lock.

use std::future::Ready;
use std::ops::AsyncFn;
use std::sync::{Arc, OnceLock};

use simnet::{EventSink, Pid, ProcessCtx, Report, SimDelta, SimError, SimTime, Simulation};

use crate::fabric::Fabric;
use crate::model::{ClusterSpec, DeviceClass};
use crate::types::EpId;

/// Shared roster: who is where. Cheap to clone.
#[derive(Clone)]
pub struct ClusterCtx {
    inner: Arc<Roster>,
}

struct Roster {
    spec: ClusterSpec,
    fabric: Fabric,
    /// `hosts[rank]`: the rank's pid and fabric endpoint.
    hosts: Vec<(Pid, EpId)>,
    /// `proxies[node][idx]`, likewise.
    proxies: Vec<Vec<(Pid, EpId)>>,
}

impl ClusterCtx {
    /// Assemble a roster by hand, for a caller that wires its own
    /// [`Simulation`] and [`Fabric`] instead of going through
    /// [`ClusterBuilder`]: `hosts[rank]` and `proxies[node][idx]` are each
    /// process's pid and fabric endpoint.
    pub fn new(
        spec: ClusterSpec,
        fabric: Fabric,
        hosts: Vec<(Pid, EpId)>,
        proxies: Vec<Vec<(Pid, EpId)>>,
    ) -> ClusterCtx {
        ClusterCtx {
            inner: Arc::new(Roster {
                spec,
                fabric,
                hosts,
                proxies,
            }),
        }
    }

    /// The fabric handle.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// The cluster spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.inner.spec
    }

    /// Number of host ranks.
    pub fn world_size(&self) -> usize {
        self.inner.hosts.len()
    }

    /// Endpoint of host `rank`.
    pub fn host_ep(&self, rank: usize) -> EpId {
        self.inner.hosts[rank].1
    }

    /// Pid of host `rank`.
    pub fn host_pid(&self, rank: usize) -> Pid {
        self.inner.hosts[rank].0
    }

    /// Number of proxies per DPU that were spawned (zero if none).
    pub fn proxies_per_dpu(&self) -> usize {
        self.inner.proxies.first().map_or(0, |v| v.len())
    }

    /// Endpoint of proxy `idx` on `node`.
    pub fn proxy_ep(&self, node: usize, idx: usize) -> EpId {
        self.inner.proxies[node][idx].1
    }

    /// The proxy endpoint serving `rank`, using the paper's mapping
    /// `proxy_local_rank = host_rank % num_proxies_per_dpu` on the rank's
    /// own node.
    pub fn proxy_for_rank(&self, rank: usize) -> EpId {
        let node = self.inner.spec.node_of_rank(rank);
        let idx = rank % self.proxies_per_dpu().max(1);
        self.proxy_ep(node, idx)
    }
}

/// A proxy body that finishes at once: the type of [`NO_PROXIES`].
type NoProxy = fn(usize, usize, ProcessCtx, ClusterCtx) -> Ready<()>;

/// Pass as [`ClusterBuilder::run_async`]'s `proxy_fn` to run host ranks
/// only.
pub const NO_PROXIES: Option<NoProxy> = None;

/// The roster a process reads at its first activation, when `launch` has
/// long since set it.
fn roster_of(roster: &OnceLock<ClusterCtx>) -> ClusterCtx {
    roster.get().expect("roster set before run").clone()
}

/// Builds and runs a simulated cluster.
pub struct ClusterBuilder {
    spec: ClusterSpec,
    seed: u64,
    trace: bool,
    time_limit: Option<SimTime>,
    event_sink: Option<EventSink>,
    delivery_jitter: Option<SimDelta>,
}

impl ClusterBuilder {
    /// A builder for `spec`, seeding the simulation RNG with `seed`.
    pub fn new(spec: ClusterSpec, seed: u64) -> Self {
        ClusterBuilder {
            spec,
            seed,
            trace: false,
            time_limit: None,
            event_sink: None,
            delivery_jitter: None,
        }
    }

    /// Collect a trace during the run.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Abort if virtual time exceeds `limit`.
    pub fn with_time_limit(mut self, limit: SimTime) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Install a structured-event observer (see [`simnet::EventSink`]);
    /// protocol layers publish their events through `ProcessCtx::emit`.
    pub fn with_event_sink(mut self, sink: EventSink) -> Self {
        self.event_sink = Some(sink);
        self
    }

    /// Add uniform `[0, jitter]` delivery-delay jitter to every fabric
    /// transfer (see [`Fabric::set_delivery_jitter`]).
    pub fn with_delivery_jitter(mut self, jitter: SimDelta) -> Self {
        self.delivery_jitter = Some(jitter);
        self
    }

    /// Accepts only `1` and changes nothing: a cluster runs on simnet's
    /// one loop (see the module docs). Kept as a signature because the
    /// benchmark package names it; it goes with that package's re-base.
    pub fn with_threads(self, threads: usize) -> Self {
        assert_eq!(
            threads, 1,
            "ClusterBuilder::with_threads accepts only 1: a simulation runs on one loop, \
             on the thread that calls run, and has no worker threads"
        );
        self
    }

    /// Spawn `nodes × ppn` host ranks and — if `proxy_fn` is given —
    /// `proxies_per_dpu` proxies per node, all future processes polled on
    /// the thread calling `run_async` (no OS thread per process), and run.
    /// `host_fn(rank, ctx, cluster)` is the rank's body and
    /// `proxy_fn(node, idx, ctx, cluster)` the proxy's; a body waits by
    /// awaiting `ctx`'s `*_async` waits. Pass [`NO_PROXIES`] for a
    /// cluster of host ranks only. Returns the simulation report.
    pub fn run_async<H, P>(self, host_fn: H, proxy_fn: Option<P>) -> Result<Report, SimError>
    where
        H: AsyncFn(usize, ProcessCtx, ClusterCtx) + Send + Sync + 'static,
        P: AsyncFn(usize, usize, ProcessCtx, ClusterCtx) + Send + Sync + 'static,
    {
        let host_fn = Arc::new(host_fn);
        self.launch(
            move |sim, rank, roster| {
                let host_fn = Arc::clone(&host_fn);
                sim.spawn_future(format!("rank{rank}"), async move |ctx| {
                    host_fn(rank, ctx, roster_of(&roster)).await
                })
            },
            proxy_fn,
        )
    }

    /// Host ranks only, each a closure on an OS thread of its own that
    /// waits in blocking `ctx` calls. Kept as a signature because the
    /// benchmark package names it (its L1 `rdma_writes` rung); it goes
    /// with that package's re-base. Everything else
    /// runs its ranks as futures with [`run_async`](Self::run_async).
    pub fn run_hosts<H>(self, host_fn: H) -> Result<Report, SimError>
    where
        H: Fn(usize, ProcessCtx, ClusterCtx) + Send + Sync + 'static,
    {
        let host_fn = Arc::new(host_fn);
        self.launch(
            move |sim, rank, roster| {
                let host_fn = Arc::clone(&host_fn);
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    host_fn(rank, ctx, roster_of(&roster));
                })
            },
            NO_PROXIES,
        )
    }

    /// Build the simulation, spawn each host rank with `spawn_host(sim,
    /// rank, roster)` and the proxies from `proxy_fn`, wire the fabric and
    /// the roster, and run.
    fn launch<P>(
        self,
        mut spawn_host: impl FnMut(&mut Simulation, usize, Arc<OnceLock<ClusterCtx>>) -> Pid,
        proxy_fn: Option<P>,
    ) -> Result<Report, SimError>
    where
        P: AsyncFn(usize, usize, ProcessCtx, ClusterCtx) + Send + Sync + 'static,
    {
        let mut sim = Simulation::new(self.seed);
        if self.trace {
            sim.enable_trace();
        }
        if let Some(limit) = self.time_limit {
            sim.set_time_limit(limit);
        }
        if let Some(sink) = self.event_sink {
            sim.set_event_sink(sink);
        }
        let roster: Arc<OnceLock<ClusterCtx>> = Arc::new(OnceLock::new());

        let host_pids: Vec<Pid> = (0..self.spec.world_size())
            .map(|rank| spawn_host(&mut sim, rank, Arc::clone(&roster)))
            .collect();

        let mut proxy_pids = vec![Vec::new(); self.spec.nodes];
        if let Some(proxy_fn) = proxy_fn {
            let proxy_fn = Arc::new(proxy_fn);
            for (node, node_pids) in proxy_pids.iter_mut().enumerate() {
                for idx in 0..self.spec.proxies_per_dpu {
                    let roster2 = Arc::clone(&roster);
                    let proxy_fn2 = Arc::clone(&proxy_fn);
                    let body =
                        async move |ctx| proxy_fn2(node, idx, ctx, roster_of(&roster2)).await;
                    node_pids.push(sim.spawn_future(format!("proxy{node}.{idx}"), body));
                }
            }
        }

        let fabric = Fabric::new(&mut sim, self.spec.clone());
        if let Some(jitter) = self.delivery_jitter {
            fabric.set_delivery_jitter(jitter);
        }
        let hosts = host_pids
            .into_iter()
            .enumerate()
            .map(|(rank, pid)| {
                let node = self.spec.node_of_rank(rank);
                (pid, fabric.add_endpoint(pid, node, DeviceClass::Host))
            })
            .collect();
        let proxies = proxy_pids
            .into_iter()
            .enumerate()
            .map(|(node, pids)| {
                pids.into_iter()
                    .map(|pid| (pid, fabric.add_endpoint(pid, node, DeviceClass::Dpu)))
                    .collect()
            })
            .collect();
        let ctx = ClusterCtx::new(self.spec, fabric, hosts, proxies);
        roster.set(ctx).ok().expect("roster set exactly once");
        sim.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDelta;

    #[test]
    #[allow(
        clippy::disallowed_types,
        reason = "test code: counters shared with the spawned process bodies"
    )]
    fn spawns_ranks_and_proxies() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = ClusterSpec::new(2, 4).with_proxies(2);
        let ranks = Arc::new(AtomicUsize::new(0));
        let proxies = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ranks);
        let p2 = Arc::clone(&proxies);
        ClusterBuilder::new(spec, 1)
            .run_async(
                async move |rank, _ctx, cluster| {
                    assert!(rank < cluster.world_size());
                    r2.fetch_add(1, Ordering::SeqCst);
                },
                Some(async move |_node, _idx, _ctx, _cluster| {
                    p2.fetch_add(1, Ordering::SeqCst);
                }),
            )
            .unwrap();
        assert_eq!(ranks.load(Ordering::SeqCst), 8);
        assert_eq!(proxies.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn proxy_mapping_follows_paper_formula() {
        let spec = ClusterSpec::new(2, 8).with_proxies(4);
        ClusterBuilder::new(spec, 1)
            .run_async(
                async |rank, _ctx, cluster| {
                    let ep = cluster.proxy_for_rank(rank);
                    let node = cluster.spec().node_of_rank(rank);
                    let expected = cluster.proxy_ep(node, rank % 4);
                    assert_eq!(ep, expected);
                },
                Some(async |_n: usize, _i: usize, _c: ProcessCtx, _cl: ClusterCtx| {}),
            )
            .unwrap();
    }

    /// End time, event count and every counter and timer of a 2×2
    /// all-to-all packet exchange, four rounds.
    fn exchange(seed: u64, jitter: Option<SimDelta>) -> (SimTime, u64, String) {
        let mut b = ClusterBuilder::new(ClusterSpec::new(2, 2), seed);
        if let Some(j) = jitter {
            b = b.with_delivery_jitter(j);
        }
        let report = b
            .run_async(
                async |rank, ctx, cluster| {
                    let world = cluster.world_size();
                    for _ in 0..4 {
                        for peer in (0..world).filter(|&p| p != rank) {
                            let (from, to) = (cluster.host_ep(rank), cluster.host_ep(peer));
                            cluster
                                .fabric()
                                .send_packet(&ctx, from, to, 4096, Box::new(()))
                                .unwrap();
                        }
                        for _ in 1..world {
                            ctx.recv_async().await;
                        }
                    }
                },
                NO_PROXIES,
            )
            .unwrap();
        let stats = &report.stats;
        let folded = format!(
            "{:?} {:?}",
            stats.counters().collect::<Vec<_>>(),
            stats.times().collect::<Vec<_>>()
        );
        (report.end_time, report.events, folded)
    }

    /// The simulation RNG is drawn only for delivery jitter, so without
    /// it the seed moves nothing: the figure workloads, which never set
    /// jitter, build every cluster with one fixed seed.
    #[test]
    fn the_seed_moves_a_run_only_through_delivery_jitter() {
        assert_eq!(exchange(1, None), exchange(2, None));
        let jitter = Some(SimDelta::from_us(1));
        assert_ne!(exchange(1, jitter).0, exchange(2, jitter).0);
    }

    #[test]
    #[should_panic(expected = "ClusterBuilder::with_threads accepts only 1")]
    fn more_than_one_worker_thread_is_refused() {
        let _ = ClusterBuilder::new(ClusterSpec::new(2, 1), 1).with_threads(2);
    }

    #[test]
    fn ranks_can_exchange_packets() {
        let spec = ClusterSpec::new(2, 1);
        let report = ClusterBuilder::new(spec, 7)
            .run_async(
                async |rank, ctx, cluster| {
                    let fab = cluster.fabric();
                    if rank == 0 {
                        fab.send_packet(
                            &ctx,
                            cluster.host_ep(0),
                            cluster.host_ep(1),
                            128,
                            Box::new(3u32),
                        )
                        .unwrap();
                    } else {
                        let msg = ctx
                            .recv_async()
                            .await
                            .downcast::<crate::types::NetMsg>()
                            .unwrap();
                        match *msg {
                            crate::types::NetMsg::Packet(p) => {
                                assert_eq!(*p.body.downcast::<u32>().unwrap(), 3)
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                        assert!(ctx.now() > SimTime::ZERO + SimDelta::from_ns(100));
                    }
                },
                NO_PROXIES,
            )
            .unwrap();
        assert!(report.end_time > SimTime::ZERO);
    }
}
