//! Synthetic large-scale workloads: the engine self-benchmark.
//!
//! These are *engine* benchmarks, not protocol benchmarks: thousands of
//! ranks exchanging raw simnet messages, each rank a future process on
//! the simulation's one loop (no OS thread per rank). The offload stack
//! is deliberately absent — at 1k–4k ranks the interesting questions are
//! events/second and whether the engine stays bit-for-bit deterministic,
//! and both are properties of the engine.
//!
//! The model draws its hop jitter from one RNG stream per simulated
//! node, seeded `node_seed(seed, node)`: the streams a per-node sharded
//! engine once kept, which the committed `ext_scale_*` values pin.
//!
//! Every run folds an order-and-timing checksum (`fingerprint`) over the
//! `(sender, round, payload, arrival time)` of every received message.
//! Any scheduling divergence — an event delivered early, late, or in a
//! different order — changes the fingerprint, so comparing fingerprints
//! across engine changes is a whole-run equivalence check.

use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{EventSink, Pid, ProcessCtx, SimDelta, SimRng, Simulation, StatKey};

use crate::stencil::dims3;

/// Nanoseconds for a same-node message hop.
const LOCAL_NS: u64 = 150;
/// Jitter bound added to same-node hops.
const LOCAL_JITTER_NS: u64 = 100;
/// Nanoseconds for a cross-node hop.
const CROSS_NS: u64 = 1_000;
/// Jitter bound added to cross-node hops.
const CROSS_JITTER_NS: u64 = 500;
/// Per-iteration compute time in the stencil sweep.
const STENCIL_COMPUTE_NS: u64 = 5_000;

/// Configuration of one synthetic scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSpec {
    /// Simulated nodes, each with its own RNG stream.
    pub nodes: usize,
    /// Ranks per node.
    pub ppn: usize,
    /// Exchange rounds (alltoall) or sweep iterations (stencil).
    pub iters: u32,
    /// Deterministic seed.
    pub seed: u64,
    /// Accepts only `1`: the ranks run on the simulation's one loop.
    /// Kept as a field because the protocol benchmark sets it, like
    /// `rdma::ClusterBuilder::with_threads`.
    pub threads: usize,
}

impl ScaleSpec {
    /// Total ranks (`nodes * ppn`).
    pub fn ranks(&self) -> usize {
        self.nodes * self.ppn
    }
}

/// Deterministic outcome of a scale run. Everything here is a pure
/// function of the spec (seed included) — two runs of the same spec must
/// compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleRun {
    /// Events the engine processed.
    pub events: u64,
    /// Virtual completion time, nanoseconds.
    pub virtual_ns: u64,
    /// Order-and-timing checksum over every received message.
    pub fingerprint: u64,
    /// Simulated nodes (one RNG stream each). Keeps its old name because
    /// the protocol benchmark reads it.
    pub shards: u64,
    /// Always 0: the run has no synchronization windows. Kept as a field
    /// because the protocol benchmark reads it, like
    /// `rdma::ClusterBuilder::with_threads`.
    pub windows: u64,
    /// Deliveries from a rank on one node to a rank on another.
    pub xshard_events: u64,
}

/// Fold one received message into a rank's running checksum. The mix is
/// SplitMix64-style so single-bit timing differences avalanche; the
/// result is reduced to 32 bits so per-rank sums over 4k ranks cannot
/// overflow the `u64` stats counter they are accumulated into.
fn mix(src: u32, round: u32, data: u64, at_ps: u64) -> u64 {
    let mut x = data
        ^ at_ps.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(src) << 32 | u64::from(round));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x & 0xFFFF_FFFF
}

/// Seed of `node`'s RNG stream. Node 0 gets the raw seed and other nodes
/// a SplitMix-scrambled derivative; the committed `ext_scale_*` artifacts
/// pin both, so neither may change.
fn node_seed(seed: u64, node: u32) -> u64 {
    if node == 0 {
        return seed;
    }
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(node));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Observability hooks for the `_with` run variants. Off by default, in
/// which case a `_with` run is byte-identical to the plain one.
#[derive(Default)]
pub struct ScaleObs {
    /// Event sink to install (e.g. an `obs::TelemetryBus` sink). When
    /// present, every rank additionally emits one cheap
    /// `(rank, round)` tick event per round so the sink sees a
    /// deterministic, virtual-time-stamped stream even though the
    /// scale workloads never touch the offload protocol.
    pub sink: Option<EventSink>,
}

/// The simulation, and one RNG stream per node.
fn build_sim(spec: &ScaleSpec, obs: ScaleObs) -> (Simulation, Arc<[Mutex<SimRng>]>) {
    assert!(spec.nodes >= 1 && spec.ppn >= 1 && spec.iters >= 1);
    assert_eq!(
        spec.threads, 1,
        "ScaleSpec::threads accepts only 1: the ranks run on the simulation's one loop"
    );
    let mut sim = Simulation::new(spec.seed);
    if let Some(sink) = obs.sink {
        sim.set_event_sink(sink);
    }
    let rngs = (0..spec.nodes as u32)
        .map(|node| Mutex::new(SimRng::new(node_seed(spec.seed, node))))
        .collect();
    (sim, rngs)
}

/// Message hop delay, with deterministic per-message jitter drawn from
/// the sender's node stream.
fn hop(rng: &Mutex<SimRng>, same_node: bool) -> SimDelta {
    if same_node {
        SimDelta::from_ns(LOCAL_NS + rng.lock().gen_range(LOCAL_JITTER_NS))
    } else {
        SimDelta::from_ns(CROSS_NS + rng.lock().gen_range(CROSS_JITTER_NS))
    }
}

/// A rank's last act: add its checksum and its cross-node send count to
/// the run's counters.
fn rank_done(ctx: &ProcessCtx, acc: u64, cross: u64) {
    static FINGERPRINT: StatKey = StatKey::new("scale.fingerprint");
    static CROSS_NODE: StatKey = StatKey::new("scale.cross_node");
    ctx.stat_incr(&FINGERPRINT, acc & 0xFFFF_FFFF);
    ctx.stat_incr(&CROSS_NODE, cross);
}

fn finish(spec: &ScaleSpec, report: &simnet::Report) -> ScaleRun {
    ScaleRun {
        events: report.events,
        virtual_ns: report.end_time.as_ps() / 1_000,
        fingerprint: report.stats.counter("scale.fingerprint"),
        shards: spec.nodes as u64,
        windows: 0,
        xshard_events: report.stats.counter("scale.cross_node"),
    }
}

/// Dense alltoall: every rank sends one message to every other rank per
/// round (`iters` rounds), then drains its expected receive count. At
/// 1k ranks that is ~1M deliveries per round — the engine self-benchmark
/// workload.
pub fn scale_alltoall(spec: &ScaleSpec) -> ScaleRun {
    scale_alltoall_with(spec, ScaleObs::default())
}

/// [`scale_alltoall`] with observability hooks. The [`ScaleRun`] is
/// identical to the plain variant's at any hook setting: emitting
/// events never advances virtual time or consumes RNG.
pub fn scale_alltoall_with(spec: &ScaleSpec, obs: ScaleObs) -> ScaleRun {
    let observed = obs.sink.is_some();
    let (mut sim, rngs) = build_sim(spec, obs);
    let n = spec.ranks() as u32;
    let ppn = spec.ppn as u32;
    let iters = spec.iters;
    assert!(n >= 2, "alltoall needs at least two ranks");
    for r in 0..n {
        let node = r / ppn;
        let rngs = Arc::clone(&rngs);
        sim.spawn_future(format!("rank{r}"), async move |ctx| {
            let rng = &rngs[node as usize];
            let (mut acc, mut cross) = (0u64, 0u64);
            for round in 0..iters {
                for off in 1..n {
                    let dest = (r + off) % n;
                    let same_node = dest / ppn == node;
                    cross += u64::from(!same_node);
                    let data = u64::from(r).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ u64::from(round);
                    ctx.deliver(
                        Pid::from_index(dest as usize),
                        hop(rng, same_node),
                        Box::new((r, round, data)),
                    );
                }
                for _ in 1..n {
                    let msg = ctx.recv_async().await;
                    let Ok(body) = msg.downcast::<(u32, u32, u64)>() else {
                        unreachable!("alltoall ranks only exchange (src, round, data)");
                    };
                    let (src, rd, data) = *body;
                    acc = acc.wrapping_add(mix(src, rd, data, ctx.now().as_ps()));
                }
                if observed {
                    ctx.emit(&(r, round));
                }
            }
            rank_done(&ctx, acc, cross);
        });
    }
    let report = sim.run().expect("scale alltoall cannot deadlock");
    finish(spec, &report)
}

/// 3-D halo-exchange stencil: ranks form a periodic `dims3` grid, each
/// iteration sends to its six axis neighbours, drains six halos, then
/// computes. Much lower message density than the alltoall: the "little
/// work per instant" end of the engine envelope.
pub fn scale_stencil(spec: &ScaleSpec) -> ScaleRun {
    scale_stencil_with(spec, ScaleObs::default())
}

/// [`scale_stencil`] with observability hooks — see
/// [`scale_alltoall_with`] for the invariance contract.
pub fn scale_stencil_with(spec: &ScaleSpec, obs: ScaleObs) -> ScaleRun {
    let observed = obs.sink.is_some();
    let (mut sim, rngs) = build_sim(spec, obs);
    let n = spec.ranks() as u32;
    let ppn = spec.ppn as u32;
    let iters = spec.iters;
    let (dx, dy, dz) = dims3(spec.ranks());
    let (dx, dy, dz) = (dx as u32, dy as u32, dz as u32);
    assert_eq!(dx * dy * dz, n, "dims3 must tile the rank count");
    for r in 0..n {
        let node = r / ppn;
        let rngs = Arc::clone(&rngs);
        sim.spawn_future(format!("rank{r}"), async move |ctx| {
            let rng = &rngs[node as usize];
            let (x, y, z) = (r % dx, (r / dx) % dy, r / (dx * dy));
            let at = |x: u32, y: u32, z: u32| z * dx * dy + y * dx + x;
            let neighbours = [
                at((x + 1) % dx, y, z),
                at((x + dx - 1) % dx, y, z),
                at(x, (y + 1) % dy, z),
                at(x, (y + dy - 1) % dy, z),
                at(x, y, (z + 1) % dz),
                at(x, y, (z + dz - 1) % dz),
            ];
            let (mut acc, mut cross) = (0u64, 0u64);
            for round in 0..iters {
                for &dest in &neighbours {
                    let same_node = dest / ppn == node;
                    cross += u64::from(!same_node);
                    let data = u64::from(r) << 32 | u64::from(dest);
                    ctx.deliver(
                        Pid::from_index(dest as usize),
                        hop(rng, same_node),
                        Box::new((r, round, data)),
                    );
                }
                for _ in 0..neighbours.len() {
                    let msg = ctx.recv_async().await;
                    let Ok(body) = msg.downcast::<(u32, u32, u64)>() else {
                        unreachable!("stencil ranks only exchange (src, round, data)");
                    };
                    let (src, rd, data) = *body;
                    acc = acc.wrapping_add(mix(src, rd, data, ctx.now().as_ps()));
                }
                let jitter = rng.lock().gen_range(LOCAL_JITTER_NS);
                ctx.compute_async(SimDelta::from_ns(STENCIL_COMPUTE_NS + jitter))
                    .await;
                if observed {
                    ctx.emit(&(r, round));
                }
            }
            rank_done(&ctx, acc, cross);
        });
    }
    let report = sim.run().expect("scale stencil cannot deadlock");
    finish(spec, &report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: ScaleSpec = ScaleSpec {
        nodes: 8,
        ppn: 8,
        iters: 1,
        seed: 42,
        threads: 1,
    };

    fn pinned(run: ScaleRun) -> (u64, u64, u64, u64) {
        (
            run.fingerprint,
            run.virtual_ns,
            run.events,
            run.xshard_events,
        )
    }

    /// `(fingerprint, virtual_ns, events, cross-node deliveries)` of the
    /// committed `--quick` baselines and of the benchmark's 16x16,
    /// 1-iteration `simnet_scale` shape at seeds 1-3. Any change to the
    /// model or to the engine's event order moves a fingerprint here.
    #[test]
    fn the_model_reproduces_its_pinned_runs() {
        let alltoall = scale_alltoall(&SPEC);
        assert_eq!(pinned(alltoall), (153_652_376_950, 1_499, 4_032, 3_584));
        assert_eq!((alltoall.shards, alltoall.windows), (8, 0));
        let stencil = scale_stencil(&ScaleSpec { iters: 2, ..SPEC });
        assert_eq!(pinned(stencil), (136_869_226_809, 13_120, 896, 384));
        for (seed, fingerprint) in [
            (1, 548_448_501_003),
            (2, 536_344_301_183),
            (3, 569_786_264_948),
        ] {
            let spec = ScaleSpec {
                nodes: 16,
                ppn: 16,
                seed,
                ..SPEC
            };
            let want = (fingerprint, 1_499, 65_280, 61_440);
            assert_eq!(pinned(scale_alltoall(&spec)), want, "seed {seed}");
        }
    }

    #[test]
    fn a_sink_does_not_perturb_the_run() {
        let spec = ScaleSpec { iters: 2, ..SPEC };
        type Workload = fn(&ScaleSpec, ScaleObs) -> ScaleRun;
        let workloads: [(&str, Workload); 2] = [
            ("stencil", scale_stencil_with),
            ("alltoall", scale_alltoall_with),
        ];
        for (name, run) in workloads {
            let sink: EventSink = Arc::new(|_| {});
            let observed = run(&spec, ScaleObs { sink: Some(sink) });
            assert_eq!(observed, run(&spec, ScaleObs::default()), "{name}");
        }
    }

    #[test]
    fn node_zero_keeps_the_raw_seed() {
        assert_eq!(node_seed(42, 0), 42);
        assert_ne!(node_seed(42, 1), node_seed(42, 2));
        assert_ne!(node_seed(42, 1), node_seed(43, 1));
    }

    #[test]
    fn different_seeds_give_different_fingerprints() {
        let a = scale_alltoall(&SPEC);
        let b = scale_alltoall(&ScaleSpec { seed: 8, ..SPEC });
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    #[should_panic(expected = "ScaleSpec::threads accepts only 1")]
    fn more_than_one_thread_is_refused() {
        scale_alltoall(&ScaleSpec { threads: 2, ..SPEC });
    }
}
