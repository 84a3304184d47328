//! Synthetic large-scale workloads for the sharded simnet engine.
//!
//! These are *engine* benchmarks, not protocol benchmarks: thousands of
//! ranks exchanging raw simnet messages, one shard per simulated node,
//! so the conservative-lookahead scheduler is the thing under test. The
//! offload stack is deliberately absent — at 1k–4k ranks the interesting
//! questions are events/second and whether the parallel engine stays
//! bit-for-bit deterministic, and both are properties of the engine.
//!
//! Every run folds an order-and-timing checksum (`fingerprint`) over the
//! `(sender, round, payload, arrival time)` of every received message.
//! Any scheduling divergence — an event delivered early, late, or in a
//! different order — changes the fingerprint, so comparing fingerprints
//! across worker thread counts is a whole-run equivalence check.

use simnet::{EngineProfile, EventSink, Pid, SimDelta, Simulation, StatKey};

use crate::stencil::dims3;

/// Nanoseconds for a same-node (intra-shard) message hop.
const LOCAL_NS: u64 = 150;
/// Jitter bound added to same-node hops.
const LOCAL_JITTER_NS: u64 = 100;
/// Nanoseconds for a cross-node hop; also the engine lookahead, so every
/// cross-shard delivery satisfies `delay >= lookahead` by construction.
const CROSS_NS: u64 = 1_000;
/// Jitter bound added to cross-node hops.
const CROSS_JITTER_NS: u64 = 500;
/// Per-iteration compute time in the stencil sweep.
const STENCIL_COMPUTE_NS: u64 = 5_000;

/// Configuration of one synthetic scale run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSpec {
    /// Simulated nodes. The sharded engine maps one shard per node.
    pub nodes: usize,
    /// Ranks per node.
    pub ppn: usize,
    /// Exchange rounds (alltoall) or sweep iterations (stencil).
    pub iters: u32,
    /// Deterministic seed.
    pub seed: u64,
    /// Worker threads for the sharded engine. A pure speed knob: results
    /// are identical at every value (that invariance is what
    /// [`ScaleRun::fingerprint`] verifies).
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
/// compare equal regardless of worker thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleRun {
    /// Events the engine processed.
    pub events: u64,
    /// Virtual completion time, nanoseconds.
    pub virtual_ns: u64,
    /// Order-and-timing checksum over every received message.
    pub fingerprint: u64,
    /// Shards the run used (one per node).
    pub shards: u64,
    /// Synchronization windows the coordinator ran.
    pub windows: u64,
    /// Cross-shard deliveries.
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

/// Observability hooks for the `_with` run variants. Both default to
/// off, in which case a `_with` run is byte-identical to the plain one.
#[derive(Default)]
pub struct ScaleObs {
    /// Event sink to install (e.g. an `obs::TelemetryBus` sink). When
    /// present, every rank additionally emits one cheap
    /// `(rank, round)` tick event per round so the sink sees a
    /// deterministic, virtual-time-stamped stream even though the
    /// scale workloads never touch the offload protocol.
    pub sink: Option<EventSink>,
    /// Arm the sharded engine's per-shard time accounting
    /// (`Report::profile`).
    pub profile: bool,
}

fn build_sim(spec: &ScaleSpec, obs: &mut ScaleObs) -> Simulation {
    assert!(spec.nodes >= 1 && spec.ppn >= 1 && spec.iters >= 1);
    let mut sim = Simulation::new(spec.seed);
    sim.set_threads(spec.threads.max(1));
    sim.set_lookahead(SimDelta::from_ns(CROSS_NS));
    // Thousands of rank threads; the closures below need little stack.
    sim.set_stack_size(256 * 1024);
    if let Some(sink) = obs.sink.take() {
        sim.set_event_sink(sink);
    }
    sim.set_profile(obs.profile);
    sim
}

/// Message hop delay from `src` rank to `dest` rank, with deterministic
/// per-message jitter drawn from the sender's shard RNG stream.
fn hop(ctx: &simnet::ProcessCtx, same_node: bool) -> SimDelta {
    if same_node {
        SimDelta::from_ns(LOCAL_NS + ctx.gen_range(LOCAL_JITTER_NS))
    } else {
        SimDelta::from_ns(CROSS_NS + ctx.gen_range(CROSS_JITTER_NS))
    }
}

fn finish(report: &simnet::Report) -> ScaleRun {
    ScaleRun {
        events: report.events,
        virtual_ns: report.end_time.as_ps() / 1_000,
        fingerprint: report.stats.counter("scale.fingerprint"),
        shards: report.stats.counter("simnet.sharded.shards"),
        windows: report.stats.counter("simnet.sharded.windows"),
        xshard_events: report.stats.counter("simnet.sharded.xshard_events"),
    }
}

/// Dense alltoall: every rank sends one message to every other rank per
/// round (`iters` rounds), then drains its expected receive count. At
/// 1k ranks that is ~1M deliveries per round — the engine self-benchmark
/// workload.
pub fn scale_alltoall(spec: &ScaleSpec) -> ScaleRun {
    scale_alltoall_with(spec, ScaleObs::default()).0
}

/// [`scale_alltoall`] with observability hooks. The [`ScaleRun`] is
/// identical to the plain variant's at any hook setting (emitting
/// events never advances virtual time or consumes RNG), which is how
/// the benches assert that profiling cannot perturb results.
pub fn scale_alltoall_with(
    spec: &ScaleSpec,
    mut obs: ScaleObs,
) -> (ScaleRun, Option<EngineProfile>) {
    let observed = obs.sink.is_some();
    let mut sim = build_sim(spec, &mut obs);
    let n = spec.ranks() as u32;
    let ppn = spec.ppn as u32;
    let iters = spec.iters;
    assert!(n >= 2, "alltoall needs at least two ranks");
    for r in 0..n {
        let node = r / ppn;
        sim.spawn_on(node as usize, format!("rank{r}"), move |ctx| {
            let mut acc: u64 = 0;
            for round in 0..iters {
                for off in 1..n {
                    let dest = (r + off) % n;
                    let delay = hop(&ctx, dest / ppn == node);
                    let data = u64::from(r).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ u64::from(round);
                    ctx.deliver(
                        Pid::from_index(dest as usize),
                        delay,
                        Box::new((r, round, data)),
                    );
                }
                for _ in 1..n {
                    let msg = ctx.recv();
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
            static FINGERPRINT: StatKey = StatKey::new("scale.fingerprint");
            ctx.stat_incr(&FINGERPRINT, acc & 0xFFFF_FFFF);
        });
    }
    let report = sim.run().expect("scale alltoall cannot deadlock");
    (finish(&report), report.profile)
}

/// 3-D halo-exchange stencil: ranks form a periodic `dims3` grid, each
/// iteration sends to its six axis neighbours, drains six halos, then
/// computes. Much lower message density than the alltoall — this is the
/// "many windows, little work per window" end of the engine envelope.
pub fn scale_stencil(spec: &ScaleSpec) -> ScaleRun {
    scale_stencil_with(spec, ScaleObs::default()).0
}

/// [`scale_stencil`] with observability hooks — see
/// [`scale_alltoall_with`] for the invariance contract.
pub fn scale_stencil_with(
    spec: &ScaleSpec,
    mut obs: ScaleObs,
) -> (ScaleRun, Option<EngineProfile>) {
    let observed = obs.sink.is_some();
    let mut sim = build_sim(spec, &mut obs);
    let n = spec.ranks() as u32;
    let ppn = spec.ppn as u32;
    let iters = spec.iters;
    let (dx, dy, dz) = dims3(spec.ranks());
    let (dx, dy, dz) = (dx as u32, dy as u32, dz as u32);
    assert_eq!(dx * dy * dz, n, "dims3 must tile the rank count");
    for r in 0..n {
        let node = r / ppn;
        sim.spawn_on(node as usize, format!("rank{r}"), move |ctx| {
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
            let mut acc: u64 = 0;
            for round in 0..iters {
                for &dest in &neighbours {
                    let delay = hop(&ctx, dest / ppn == node);
                    let data = u64::from(r) << 32 | u64::from(dest);
                    ctx.deliver(
                        Pid::from_index(dest as usize),
                        delay,
                        Box::new((r, round, data)),
                    );
                }
                for _ in 0..neighbours.len() {
                    let msg = ctx.recv();
                    let Ok(body) = msg.downcast::<(u32, u32, u64)>() else {
                        unreachable!("stencil ranks only exchange (src, round, data)");
                    };
                    let (src, rd, data) = *body;
                    acc = acc.wrapping_add(mix(src, rd, data, ctx.now().as_ps()));
                }
                ctx.compute(SimDelta::from_ns(
                    STENCIL_COMPUTE_NS + ctx.gen_range(LOCAL_JITTER_NS),
                ));
                if observed {
                    ctx.emit(&(r, round));
                }
            }
            static FINGERPRINT: StatKey = StatKey::new("scale.fingerprint");
            ctx.stat_incr(&FINGERPRINT, acc & 0xFFFF_FFFF);
        });
    }
    let report = sim.run().expect("scale stencil cannot deadlock");
    (finish(&report), report.profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: ScaleSpec = ScaleSpec {
        nodes: 4,
        ppn: 4,
        iters: 2,
        seed: 7,
        threads: 1,
    };

    #[test]
    fn alltoall_is_thread_count_invariant() {
        let base = scale_alltoall(&SPEC);
        assert!(base.fingerprint != 0);
        assert!(base.xshard_events > 0);
        assert_eq!(base.shards, 4);
        for threads in [2usize, 4] {
            let run = scale_alltoall(&ScaleSpec { threads, ..SPEC });
            assert_eq!(base, run, "alltoall diverged at {threads} threads");
        }
    }

    #[test]
    fn stencil_is_thread_count_invariant() {
        let base = scale_stencil(&SPEC);
        assert!(base.fingerprint != 0);
        assert!(base.windows > 0);
        for threads in [2usize, 4] {
            let run = scale_stencil(&ScaleSpec { threads, ..SPEC });
            assert_eq!(base, run, "stencil diverged at {threads} threads");
        }
    }

    #[test]
    fn different_seeds_give_different_fingerprints() {
        let a = scale_alltoall(&SPEC);
        let b = scale_alltoall(&ScaleSpec { seed: 8, ..SPEC });
        assert_ne!(a.fingerprint, b.fingerprint);
    }
}
