//! The workload-independent half of a traced run: micro-benchmarks of
//! single public functions of each layer, the standalone observer replay,
//! and the layer ladder. Every call into a layer is timed from outside
//! and wrapped in a harness span.

use std::hint::black_box;
use std::time::Instant;

use checker::{Conformance, ConformanceConfig};
use obs::{LifecycleRecorder, TelemetryBus};
use offload::{parse_flight_dump, replay_into, FlightRecorder, Metrics, RankAddrCache};
use rdma::{AddressSpace, ClusterBuilder, ClusterSpec, NetMsg};
use simnet::{EventSink, Pid, SimDelta, Simulation};
use workloads::fanout;

use crate::child::MetricSet;
use crate::run::run_sample;
use crate::spec::{find, Workload};
use crate::trace::Tracer;

/// Repetitions of each micro-benchmark, replay and ladder rung; the
/// reported figure is the fastest, as for the samples of a run.
const REPS: usize = 3;

/// Fastest of `REPS` timed calls of `f`, in seconds; each call is a span.
fn timed(tr: &mut Tracer, name: &str, layer: &'static str, mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            tr.span(name, layer, |_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
        })
        .fold(f64::INFINITY, f64::min)
}

/// `procs` bare simnet processes in a ring, each sending one raw delivery
/// to its neighbour and receiving one per round: every event is a baton
/// hand-off between two OS threads and nothing else. Returns the event
/// count. Two processes give `simnet.handoff_ns`; as many as `basic_short`
/// has ranks and proxies give ladder rung L0.
fn ring(seed: u64, procs: usize, rounds: u64) -> u64 {
    let mut sim = Simulation::new(seed);
    for i in 0..procs {
        sim.spawn(format!("p{i}"), move |ctx| {
            for r in 0..rounds {
                ctx.deliver(
                    Pid::from_index((i + 1) % procs),
                    SimDelta::from_us(1),
                    Box::new(r),
                );
                black_box(ctx.recv());
            }
        });
    }
    sim.run().expect("ring cannot deadlock").events
}

/// Ladder L1: the `basic_short` ranks on the `rdma` fabric with no
/// `core`: each posts `writes` signalled RDMA writes to its right
/// neighbour, waiting for every CQE. Returns `(events, writes posted)`.
fn rdma_writes(seed: u64, w: &Workload, writes: u64) -> (u64, u64) {
    let bytes = w.bytes;
    let report = ClusterBuilder::new(ClusterSpec::new(w.nodes, w.ppn), seed)
        .with_threads(1)
        .run_hosts(move |rank, ctx, cluster| {
            let fab = cluster.fabric();
            let p = cluster.world_size();
            let me = cluster.host_ep(rank);
            let (left, right) = ((rank + p - 1) % p, (rank + 1) % p);
            let src = fab.alloc(me, bytes);
            let dst = fab.alloc(me, bytes);
            let lkey = fab.reg_mr(&ctx, me, src, bytes).expect("register source");
            let rkey = fab.reg_mr(&ctx, me, dst, bytes).expect("register sink");
            // Tell the left neighbour where it may write; learn the same from the right.
            fab.send_packet(&ctx, me, cluster.host_ep(left), 64, Box::new((dst, rkey)))
                .expect("ship rkey");
            let Ok(msg) = ctx.recv().downcast::<NetMsg>() else {
                unreachable!("the fabric only delivers NetMsg");
            };
            let NetMsg::Packet(pkt) = *msg else {
                unreachable!("no write is posted before the key exchange");
            };
            let Ok(remote) = pkt.body.downcast::<(rdma::VAddr, rdma::MrKey)>() else {
                unreachable!("ranks only exchange (addr, rkey)");
            };
            let (raddr, rrkey) = *remote;
            for wrid in 0..writes {
                fab.rdma_write(
                    &ctx,
                    me,
                    (me, src, lkey),
                    (cluster.host_ep(right), raddr, rrkey),
                    bytes,
                    Some(wrid),
                    None,
                )
                .expect("post write");
                black_box(ctx.recv());
            }
        })
        .expect("rdma rung cannot deadlock");
    (report.events, report.stats.counter("rdma.write.count"))
}

fn mib_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / (1 << 20) as f64 / secs
}

fn micros(tr: &mut Tracer, seed: u64, quick: bool, m: &mut MetricSet) {
    let div = if quick { 10 } else { 1 };

    let mut events = 0;
    let wall = timed(tr, "simnet.handoff", "simnet", || {
        events = ring(seed, 2, 10_000 / div)
    });
    m.put("simnet.handoff_ns", "ns", wall * 1e9 / events as f64);

    let procs = 64;
    let wall = timed(tr, "simnet.spawn_join", "simnet", || {
        let mut sim = Simulation::new(seed);
        for i in 0..procs {
            sim.spawn(format!("idle{i}"), |_ctx| {});
        }
        sim.run().expect("idle processes finish");
    });
    m.put("simnet.spawn_us_per_proc", "us", wall * 1e6 / procs as f64);

    let len: u64 = (4 << 20) / div;
    let buf: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
    let wall = timed(tr, "rdma.crc32", "rdma", || {
        black_box(rdma::crc32(black_box(&buf)));
    });
    m.put("rdma.crc32_mib_per_s", "MiB/s", mib_per_s(len, wall));

    let mut space = AddressSpace::new();
    let (a, b) = (space.alloc(len), space.alloc(len));
    let wall = timed(tr, "rdma.mem_copy", "rdma", || {
        let data = space.read(a, len).expect("read source");
        space.write(b, &data).expect("write sink");
    });
    m.put("rdma.mem_copy_mib_per_s", "MiB/s", mib_per_s(len, wall));
    let wall = timed(tr, "rdma.pattern", "rdma", || {
        space.fill_pattern(a, len, seed).expect("fill");
        assert!(space.verify_pattern(a, len, seed).expect("verify"));
    });
    m.put("rdma.pattern_mib_per_s", "MiB/s", mib_per_s(2 * len, wall));

    // Far more entries than a run registers (8 on basic_short), so the
    // tree depth, not the call overhead, is what a change would move.
    let entries = 4096 / div;
    let key = |i: u64| ((i % 4) as usize, i * 4096, 256);
    let mut cache = RankAddrCache::<u64>::new(4);
    let wall = timed(tr, "core.reg_cache.miss_insert", "core", || {
        cache = RankAddrCache::new(4);
        for i in 0..entries {
            let (rank, addr, size) = key(i);
            if cache.get(rank, addr, size).is_none() {
                cache.insert(rank, addr, size, i);
            }
        }
    });
    m.put(
        "core.reg_cache.miss_insert_ns",
        "ns",
        wall * 1e9 / entries as f64,
    );
    let wall = timed(tr, "core.reg_cache.hit", "core", || {
        for i in 0..entries {
            let (rank, addr, size) = key(i);
            black_box(cache.get(rank, addr, size));
        }
    });
    m.put("core.reg_cache.hit_ns", "ns", wall * 1e9 / entries as f64);
}

/// Capture one `basic_short` event stream and replay it into each sink
/// on its own: the observer path without the run under it.
fn replay(
    tr: &mut Tracer,
    seed: u64,
    basic: &Workload,
    rounds: u64,
    m: &mut MetricSet,
) -> Result<(), String> {
    let flight = FlightRecorder::with_capacity(usize::MAX);
    let mut run = basic.check_run(seed);
    run.sink = Some(fanout(vec![flight.sink()]));
    tr.span("capture", "core", |_| {
        workloads::drive_stencil(&run, basic.bytes, rounds)
    })
    .map_err(|e| format!("replay capture aborted: {e}"))?;
    let records = flight.records();
    let n = records.len() as f64;
    m.put("obs.events_per_msg", "count", n / basic.msgs(rounds) as f64);

    // A fresh sink per repetition, as a run would attach.
    let mut each = |name: &str, layer: &'static str, fresh: &dyn Fn() -> EventSink| {
        let wall = timed(tr, name, layer, || replay_into(&records, &fresh()));
        m.put(&format!("{name}.ns_per_event"), "ns", wall * 1e9 / n);
    };
    each("core.metrics", "core", &|| Metrics::new().sink());
    each("obs.lifecycle", "obs", &|| LifecycleRecorder::new().sink());
    each("core.flight", "core", &|| FlightRecorder::new().sink());
    each("checker.conformance", "checker", &|| {
        Conformance::new(ConformanceConfig::default()).sink()
    });
    // 100 us of simulated time per telemetry window.
    each("obs.telemetry", "obs", &|| {
        TelemetryBus::new(100_000_000).sink()
    });

    let mut dump = String::new();
    let wall = timed(tr, "core.flight.dump", "core", || dump = flight.dump());
    m.put("core.flight.dump_ns_per_event", "ns", wall * 1e9 / n);
    let mut parsed = 0;
    let wall = timed(tr, "core.flight.parse", "core", || {
        parsed = parse_flight_dump(&dump).map_or(0, |r| r.len());
    });
    if parsed != records.len() {
        return Err(format!(
            "flight dump round-trip lost events: {parsed} of {}",
            records.len()
        ));
    }
    m.put("core.flight.parse_ns_per_event", "ns", wall * 1e9 / n);
    Ok(())
}

/// The ladder on the `basic_short` shape: host nanoseconds per simulated
/// event at each depth of the stack. Each rung divides by its own event
/// count; successive differences are what each layer adds.
fn ladder(
    tr: &mut Tracer,
    seed: u64,
    basic: &Workload,
    rounds: u64,
    m: &mut MetricSet,
) -> Result<(), String> {
    let observed = find("observed").expect("observed is a pinned workload");
    // Rates just above zero: the reliable link's envelopes and dedup and
    // the CRC run on every message, while almost no fault lands.
    let armed = Workload {
        name: "basic_short+armed",
        plan: "delay=1:1,flip=1",
        ..*basic
    };

    let procs = basic.nodes * (basic.ppn + basic.proxies);
    let target_events = 11 * basic.msgs(rounds) / 2;
    let mut events = 0;
    let wall = timed(tr, "ladder.simnet", "simnet", || {
        events = ring(seed, procs, target_events / procs as u64)
    });
    m.put(
        "ladder.simnet_ns_per_event",
        "ns",
        wall * 1e9 / events as f64,
    );

    let mut counts = (0, 0);
    let wall = timed(tr, "ladder.rdma", "rdma", || {
        counts = rdma_writes(seed, basic, 2 * rounds)
    });
    m.put(
        "ladder.rdma_ns_per_event",
        "ns",
        wall * 1e9 / counts.0 as f64,
    );
    m.put("rdma.write_post_ns", "ns", wall * 1e9 / counts.1 as f64);

    // `core`, `core` armed, `core` observed, and `core` under the traced
    // run's own instrumentation (for `trace.overhead_pct`).
    let mut rung = |name: &str, w: &Workload, traced: bool| -> Result<(f64, u64, u64), String> {
        let mut wall = f64::INFINITY;
        let mut last = None;
        for _ in 0..REPS {
            let s = tr.span(name, "core", |_| run_sample(w, seed, rounds, false, traced))?;
            wall = wall.min(s.wall_s);
            last = Some(s.outcome);
        }
        let o = last.expect("REPS > 0");
        let faults =
            o.counter("offload.reliable.injected_delays") + o.counter("rdma.fault.payload");
        Ok((wall, o.events, faults))
    };
    let (core_wall, core_events, _) = rung("ladder.core", basic, false)?;
    m.put(
        "ladder.core_ns_per_event",
        "ns",
        core_wall * 1e9 / core_events as f64,
    );
    let (wall, events, faults) = rung("ladder.armed", &armed, false)?;
    m.put(
        "ladder.armed_ns_per_event",
        "ns",
        wall * 1e9 / events as f64,
    );
    m.put("ladder.armed_injected_faults", "count", faults as f64);
    let (wall, events, _) = rung("ladder.observed", observed, false)?;
    m.put(
        "ladder.observed_ns_per_event",
        "ns",
        wall * 1e9 / events as f64,
    );
    offload::profile::set_enabled(true);
    let traced = rung("ladder.core_traced", basic, true);
    offload::profile::set_enabled(false);
    drop(offload::profile::take_report());
    m.put(
        "trace.overhead_pct",
        "%",
        (traced?.0 / core_wall - 1.0) * 100.0,
    );
    Ok(())
}

/// Everything above, in one pass.
pub fn fixed(tr: &mut Tracer, seed: u64, quick: bool, m: &mut MetricSet) -> Result<(), String> {
    let basic = find("basic_short").expect("basic_short is a pinned workload");
    let rounds = if quick {
        basic.rounds / 10
    } else {
        basic.rounds
    };
    tr.span("micros", "harness", |tr| micros(tr, seed, quick, m));
    tr.span("replay", "harness", |tr| replay(tr, seed, basic, rounds, m))?;
    tr.span("ladder", "harness", |tr| ladder(tr, seed, basic, rounds, m))
}
