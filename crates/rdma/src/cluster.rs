//! Cluster construction helper.
//!
//! Upper layers (MPI, offload framework, workloads) all need the same
//! boilerplate: a [`Simulation`], a [`Fabric`], one host process per rank,
//! and optionally proxy processes on each DPU. [`ClusterBuilder`] wires
//! that up and hands every process a [`ClusterCtx`] with the full roster.
//! Host ranks are closures on threads; proxies are inline reactors (see
//! [`simnet::Simulation::spawn_reactor`]) — a DPU worker polls and reacts,
//! it never blocks mid-step, so it needs no thread of its own.

use std::sync::{Arc, OnceLock};

use simnet::{
    EventSink, Pid, ProcessCtx, Reactor, Report, SimDelta, SimError, SimTime, Simulation,
};

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

    /// Pid of proxy `idx` on `node`.
    pub fn proxy_pid(&self, node: usize, idx: usize) -> Pid {
        self.inner.proxies[node][idx].0
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

/// Builds and runs a simulated cluster.
pub struct ClusterBuilder {
    spec: ClusterSpec,
    seed: u64,
    trace: bool,
    time_limit: Option<SimTime>,
    stack_size: Option<usize>,
    event_sink: Option<EventSink>,
    delivery_jitter: Option<SimDelta>,
    threads: Option<usize>,
}

impl ClusterBuilder {
    /// A builder for `spec`, seeding the simulation RNG with `seed`.
    pub fn new(spec: ClusterSpec, seed: u64) -> Self {
        ClusterBuilder {
            spec,
            seed,
            trace: false,
            time_limit: None,
            stack_size: None,
            event_sink: None,
            delivery_jitter: None,
            threads: None,
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

    /// Override the per-process stack size.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
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

    /// Worker threads for the simulation engine, overriding the
    /// `SIMNET_THREADS` environment variable (default 1).
    ///
    /// `1` runs the classic single-threaded event loop, byte-for-byte as
    /// before. Anything larger routes the whole cluster through the
    /// sharded conservative-lookahead runtime — pinned to a single
    /// shard, because the fabric arbitrates global state (same-QP FIFO
    /// order, per-endpoint CPU timelines, the payload-fault RNG) under
    /// one lock and reserves receive-side FIFOs from the sender's
    /// context, none of which survives a by-node split. Results are
    /// identical either way; see DESIGN.md §16 for what each engine
    /// does and does not parallelize.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be at least 1");
        self.threads = Some(threads);
        self
    }

    /// Spawn `nodes × ppn` host processes running `host_fn(rank, ctx,
    /// cluster)`, and — if `proxy_fn` is given — `proxies_per_dpu` proxy
    /// reactors per node. `proxy_fn(node, idx, ctx, cluster)` runs at the
    /// proxy's first activation and returns its message handler, called
    /// once per mailbox message until it returns `false` (`None`: the
    /// proxy has nothing to serve and finishes at once). A proxy may not
    /// block: no `sleep`/`compute`/`recv`/`yield_now` on its `ctx`.
    /// Returns the simulation report.
    pub fn run<H, P>(self, host_fn: H, proxy_fn: Option<P>) -> Result<Report, SimError>
    where
        H: Fn(usize, ProcessCtx, ClusterCtx) + Send + Sync + 'static,
        P: Fn(usize, usize, ProcessCtx, ClusterCtx) -> Option<Reactor> + Send + Sync + 'static,
    {
        let threads = self
            .threads
            .or_else(|| {
                std::env::var(simnet::SIMNET_THREADS_ENV)
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
            })
            .filter(|&n| n >= 1)
            .unwrap_or(1);
        let mut sim = Simulation::new(self.seed);
        if self.trace {
            sim.enable_trace();
        }
        if let Some(limit) = self.time_limit {
            sim.set_time_limit(limit);
        }
        if let Some(bytes) = self.stack_size {
            sim.set_stack_size(bytes);
        }
        if let Some(sink) = self.event_sink {
            sim.set_event_sink(sink);
        }
        if threads > 1 {
            sim.set_threads(threads);
        }
        let roster: Arc<OnceLock<ClusterCtx>> = Arc::new(OnceLock::new());
        let host_fn = Arc::new(host_fn);

        // Spawn every process before creating the fabric: the first spawn
        // fixes the engine, and with worker threads the whole cluster
        // lands on shard 0 of the sharded runtime — the fabric's per-node
        // FIFO resources must be created afterwards so they live on the
        // shard every process runs on. Pid and endpoint numbering are
        // independent, so the classic path is unchanged by the reorder.
        let mut host_pids = Vec::new();
        for rank in 0..self.spec.world_size() {
            let roster2 = Arc::clone(&roster);
            let host_fn2 = Arc::clone(&host_fn);
            let body = move |ctx| {
                let cluster = roster2.get().expect("roster set before run").clone();
                host_fn2(rank, ctx, cluster);
            };
            host_pids.push(if threads > 1 {
                sim.spawn_on(0, format!("rank{rank}"), body)
            } else {
                sim.spawn(format!("rank{rank}"), body)
            });
        }

        let mut proxy_pids = vec![Vec::new(); self.spec.nodes];
        if let Some(proxy_fn) = proxy_fn {
            let proxy_fn = Arc::new(proxy_fn);
            for (node, node_pids) in proxy_pids.iter_mut().enumerate() {
                for idx in 0..self.spec.proxies_per_dpu {
                    let roster2 = Arc::clone(&roster);
                    let proxy_fn2 = Arc::clone(&proxy_fn);
                    let init = move |ctx| {
                        let cluster = roster2.get().expect("roster set before run").clone();
                        proxy_fn2(node, idx, ctx, cluster)
                    };
                    node_pids.push(if threads > 1 {
                        sim.spawn_reactor_on(0, format!("proxy{node}.{idx}"), init)
                    } else {
                        sim.spawn_reactor(format!("proxy{node}.{idx}"), init)
                    });
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

    /// Convenience: run with host processes only.
    pub fn run_hosts<H>(self, host_fn: H) -> Result<Report, SimError>
    where
        H: Fn(usize, ProcessCtx, ClusterCtx) + Send + Sync + 'static,
    {
        self.run(
            host_fn,
            None::<fn(usize, usize, ProcessCtx, ClusterCtx) -> Option<Reactor>>,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDelta;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spawns_ranks_and_proxies() {
        let spec = ClusterSpec::new(2, 4).with_proxies(2);
        let ranks = Arc::new(AtomicUsize::new(0));
        let proxies = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ranks);
        let p2 = Arc::clone(&proxies);
        ClusterBuilder::new(spec, 1)
            .run(
                move |rank, _ctx, cluster| {
                    assert!(rank < cluster.world_size());
                    r2.fetch_add(1, Ordering::SeqCst);
                },
                Some(
                    move |_node: usize, _idx: usize, _ctx: ProcessCtx, _cluster: ClusterCtx| {
                        p2.fetch_add(1, Ordering::SeqCst);
                        None
                    },
                ),
            )
            .unwrap();
        assert_eq!(ranks.load(Ordering::SeqCst), 8);
        assert_eq!(proxies.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn proxy_mapping_follows_paper_formula() {
        let spec = ClusterSpec::new(2, 8).with_proxies(4);
        ClusterBuilder::new(spec, 1)
            .run(
                |rank, _ctx, cluster| {
                    let ep = cluster.proxy_for_rank(rank);
                    let node = cluster.spec().node_of_rank(rank);
                    let expected = cluster.proxy_ep(node, rank % 4);
                    assert_eq!(ep, expected);
                },
                Some(|_n: usize, _i: usize, _c: ProcessCtx, _cl: ClusterCtx| None),
            )
            .unwrap();
    }

    #[test]
    fn worker_threads_are_not_observable() {
        // The same cluster at 1 (classic engine) and 4 (sharded runtime)
        // worker threads: end time, event count, trace and every
        // non-engine counter must match exactly.
        let run = |threads| {
            let spec = ClusterSpec::new(2, 2);
            ClusterBuilder::new(spec, 21)
                .with_threads(threads)
                .with_trace()
                .run_hosts(|rank, ctx, cluster| {
                    let fab = cluster.fabric().clone();
                    let ep = cluster.host_ep(rank);
                    let p = cluster.world_size();
                    let peer = (rank + 1) % p;
                    fab.send_packet(&ctx, ep, cluster.host_ep(peer), 256, Box::new(rank))
                        .unwrap();
                    let _ = ctx.recv();
                    ctx.trace(format!("done.{rank}"));
                })
                .unwrap()
        };
        let classic = run(1);
        let sharded = run(4);
        assert_eq!(classic.end_time, sharded.end_time);
        assert_eq!(classic.events, sharded.events);
        assert_eq!(
            classic.trace.as_ref().unwrap().render(),
            sharded.trace.as_ref().unwrap().render()
        );
        let counters = |r: &Report| {
            r.stats
                .counters()
                .filter(|(k, _)| !k.starts_with("simnet.sharded."))
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(counters(&classic), counters(&sharded));
    }

    #[test]
    fn ranks_can_exchange_packets() {
        let spec = ClusterSpec::new(2, 1);
        let report = ClusterBuilder::new(spec, 7)
            .run_hosts(|rank, ctx, cluster| {
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
                    let msg = ctx.recv().downcast::<crate::types::NetMsg>().unwrap();
                    match *msg {
                        crate::types::NetMsg::Packet(p) => {
                            assert_eq!(*p.body.downcast::<u32>().unwrap(), 3)
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                    assert!(ctx.now() > SimTime::ZERO + SimDelta::from_ns(100));
                }
            })
            .unwrap();
        assert!(report.end_time > SimTime::ZERO);
    }
}
