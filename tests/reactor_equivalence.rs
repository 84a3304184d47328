//! Inline-reactor proxies vs the same proxies on OS threads.
//!
//! `ClusterBuilder` runs every DPU proxy as an inline reactor: the
//! simulation kernel calls `offload::proxy_fn`'s handler once per message
//! and no thread exists for it. Taking a process off its thread must not
//! be observable. This test wires the same cluster by hand twice — once
//! with the proxies spawned as reactors, once with each handler wrapped in
//! a thread body (`while handler(ctx.recv()) {}`, defined here and nowhere
//! else) — and byte-compares everything a run can tell the outside world.

use std::sync::{Arc, OnceLock};

use bluefield_offload::apps::fanout;
use bluefield_offload::dpu::{
    proxy_fn, FaultPlan, FlightRecorder, Metrics, Offload, OffloadConfig,
};
use bluefield_offload::net::{ClusterCtx, ClusterSpec, DeviceClass, Fabric, Inbox};
use bluefield_offload::sim::{ProcessCtx, Simulation};

#[derive(Clone, Copy)]
enum ProxyKind {
    /// What `ClusterBuilder` does: the kernel calls the handler.
    Inline,
    /// The handler on a thread of its own, fed by blocking `recv`.
    Thread,
}

/// Everything a run can tell the outside world.
struct Artifacts {
    end_time: String,
    events: u64,
    counters: Vec<(String, u64)>,
    times: Vec<(String, String)>,
    procs: Vec<(String, String)>,
    trace: String,
    metrics: String,
    flight_dump: String,
}

/// A halo exchange over the Basic primitives (fresh tags every round)
/// followed by a cached Group alltoall, with real byte movement.
fn host_body(off: &Offload) {
    const FACE: u64 = 2048;
    const BLOCK: u64 = 1024;
    let p = off.size();
    let me = off.rank();
    let fab = off.cluster().fabric().clone();
    let ep = off.cluster().host_ep(me);
    let (right, left) = ((me + 1) % p, (me + p - 1) % p);
    let sbuf = fab.alloc(ep, FACE);
    let rbuf = fab.alloc(ep, FACE);
    for round in 0..6u64 {
        fab.fill_pattern(ep, sbuf, FACE, me as u64 * 100 + round)
            .unwrap();
        let reqs = [
            off.send_offload(sbuf, FACE, right, round),
            off.recv_offload(rbuf, FACE, left, round),
        ];
        off.wait_all(&reqs);
        assert!(fab
            .verify_pattern(ep, rbuf, FACE, left as u64 * 100 + round)
            .unwrap());
    }
    let a2a_send = fab.alloc(ep, BLOCK * p as u64);
    let a2a_recv = fab.alloc(ep, BLOCK * p as u64);
    let g = off.record_alltoall(a2a_send, a2a_recv, BLOCK);
    for _ in 0..3 {
        off.group_call(g);
        off.group_wait(g).expect("group alltoall");
    }
}

fn run(kind: ProxyKind, proxies_per_dpu: usize, seed: u64, fault: FaultPlan) -> Artifacts {
    let spec = ClusterSpec::new(2, 2).with_proxies(proxies_per_dpu);
    let cfg = OffloadConfig::proposed().with_fault(fault);
    let metrics = Metrics::new();
    let recorder = FlightRecorder::new();
    let mut sim = Simulation::new(seed);
    sim.enable_trace();
    sim.set_event_sink(fanout(vec![metrics.sink(), recorder.sink()]));
    let roster: Arc<OnceLock<ClusterCtx>> = Arc::new(OnceLock::new());

    // The order `ClusterBuilder::run` uses: hosts, proxies, fabric,
    // host endpoints, proxy endpoints.
    let mut hosts = Vec::new();
    for rank in 0..spec.world_size() {
        let (roster, cfg) = (Arc::clone(&roster), cfg.clone());
        hosts.push(sim.spawn(format!("rank{rank}"), move |ctx| {
            let cluster = roster.get().expect("roster set before run").clone();
            let inbox = Inbox::new();
            let off = Offload::init(rank, ctx, cluster, &inbox, cfg);
            host_body(&off);
            off.finalize();
        }));
    }
    let build = Arc::new(proxy_fn(cfg));
    let mut proxies = vec![Vec::new(); spec.nodes];
    for (node, pids) in proxies.iter_mut().enumerate() {
        for idx in 0..proxies_per_dpu {
            let (roster, build) = (Arc::clone(&roster), Arc::clone(&build));
            let init = move |ctx: ProcessCtx| {
                let cluster = roster.get().expect("roster set before run").clone();
                build(node, idx, ctx, cluster)
            };
            let name = format!("proxy{node}.{idx}");
            pids.push(match kind {
                ProxyKind::Inline => sim.spawn_reactor(name, init),
                ProxyKind::Thread => sim.spawn(name, move |ctx| {
                    if let Some(mut handler) = init(ctx.clone()) {
                        while handler(ctx.recv()) {}
                    }
                }),
            });
        }
    }
    let fabric = Fabric::new(&mut sim, spec.clone());
    let hosts = hosts
        .into_iter()
        .enumerate()
        .map(|(rank, pid)| {
            let node = spec.node_of_rank(rank);
            (pid, fabric.add_endpoint(pid, node, DeviceClass::Host))
        })
        .collect();
    let proxies = proxies
        .into_iter()
        .enumerate()
        .map(|(node, pids)| {
            pids.into_iter()
                .map(|pid| (pid, fabric.add_endpoint(pid, node, DeviceClass::Dpu)))
                .collect()
        })
        .collect();
    roster
        .set(ClusterCtx::new(spec, fabric, hosts, proxies))
        .ok()
        .expect("roster set exactly once");

    let report = sim.run().expect("run completes");
    Artifacts {
        end_time: format!("{:?}", report.end_time),
        events: report.events,
        counters: report
            .stats
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        times: report
            .stats
            .times()
            .map(|(k, v)| (k.to_string(), format!("{v:?}")))
            .collect(),
        procs: report
            .procs
            .iter()
            .map(|p| (p.name.clone(), format!("{:?}", p.finished_at)))
            .collect(),
        trace: report.trace.expect("trace enabled").render(),
        metrics: metrics.report().to_json("reactor-equivalence"),
        flight_dump: recorder.dump(),
    }
}

fn assert_equivalent(proxies_per_dpu: usize, seed: u64, fault: FaultPlan) {
    let inline = run(ProxyKind::Inline, proxies_per_dpu, seed, fault);
    let threaded = run(ProxyKind::Thread, proxies_per_dpu, seed, fault);
    assert!(inline.events > 0 && !inline.flight_dump.is_empty());
    let restarts = inline
        .counters
        .iter()
        .find(|(k, _)| k == "offload.reliable.proxy_restarts")
        .map_or(0, |(_, v)| *v);
    assert_eq!(
        restarts > 0,
        fault.crash_at_step > 0,
        "the plan's crash must fire (and only then): {restarts} restarts"
    );
    // Field by field, so a failure names what diverged.
    let label = format!("p{proxies_per_dpu} seed {seed}");
    assert_eq!(inline.end_time, threaded.end_time, "{label}: end time");
    assert_eq!(inline.events, threaded.events, "{label}: event count");
    assert_eq!(inline.counters, threaded.counters, "{label}: counters");
    assert_eq!(inline.times, threaded.times, "{label}: time stats");
    assert_eq!(inline.procs, threaded.procs, "{label}: process reports");
    assert_eq!(inline.trace, threaded.trace, "{label}: trace");
    assert_eq!(inline.metrics, threaded.metrics, "{label}: metrics JSON");
    assert_eq!(
        inline.flight_dump, threaded.flight_dump,
        "{label}: flight dump"
    );
}

#[test]
fn clean_runs_do_not_show_where_the_proxy_executes() {
    // One proxy serving both ranks of a node; then four, so two of them
    // have no rank mapped and finish before their first message.
    for proxies_per_dpu in [1, 4] {
        for seed in [3, 19] {
            assert_equivalent(proxies_per_dpu, seed, FaultPlan::none());
        }
    }
}

#[test]
fn armed_runs_with_a_proxy_crash_do_not_show_it_either() {
    // Lossy ctrl plane plus one crash-restart per proxy: retransmission
    // timers (self-deliveries), the dedup window, the restart notice and
    // the hosts' replay all run through the handler.
    let fault = FaultPlan {
        drop_pm: 40,
        dup_pm: 20,
        delay_pm: 30,
        delay_ns: 2_000,
        crash_at_step: 12,
        seed: 99,
        ..FaultPlan::none()
    };
    for proxies_per_dpu in [1, 2] {
        assert_equivalent(proxies_per_dpu, 13, fault);
    }
}
