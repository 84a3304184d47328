//! A workload runs every rank and proxy on the thread that calls
//! `run_workload`, under every runtime: host MPI, BluesMPI and the
//! framework.
//!
//! One test, alone in its binary: it counts the OS threads of the whole
//! process, which a neighbouring test would disturb.

mod common;

use std::sync::Arc;
use std::thread::{self, ThreadId};

use bluefield_offload::apps::{run_workload, with_observer, Engine, Harness, Observer, Runtime};
use bluefield_offload::net::ClusterSpec;
use bluefield_offload::sim::{Emitted, EventSink, Pid};
use common::{all_ran_on_the_caller, note, os_threads, Seen};

#[test]
#[allow(
    clippy::disallowed_types,
    reason = "test code: the sink records the thread each event came from"
)]
fn a_workload_runs_every_rank_and_proxy_on_the_caller_under_every_runtime() {
    // An all-to-all on a 2x2 cluster through each runtime's own engine:
    // host MPI, BluesMPI's staged group, the framework's group. Ranks note
    // themselves; proxies are seen through the events they emit. A sink
    // batch is delivered on the thread of the body whose emit filled it
    // (or, for the last one, of run()'s caller).
    const BLOCK: u64 = 4096;
    for runtime in [Runtime::Intel, Runtime::Blues, Runtime::proposed()] {
        let label = runtime.label();
        let seen: Seen = Arc::default();
        let ranks_seen = Arc::clone(&seen);
        let emitted: Arc<std::sync::Mutex<Vec<(Pid, ThreadId, usize)>>> = Arc::default();
        let sink_seen = Arc::clone(&emitted);
        let sink: EventSink = Arc::new(move |batch: &[Emitted]| {
            let (thread, threads) = (thread::current().id(), os_threads());
            let mut sink_seen = sink_seen.lock().unwrap();
            sink_seen.extend(batch.iter().map(|e| (e.pid, thread, threads)));
        });
        let observer = Observer {
            sink: Some(sink),
            trace: false,
        };
        let before = os_threads();
        let report = with_observer(observer, || {
            let spec = ClusterSpec::new(2, 2).without_byte_movement();
            run_workload(spec, runtime, async move |h: &Harness| {
                note(&ranks_seen, format!("rank{}", h.rank));
                h.mpi.barrier().await;
                let fab = h.cluster().fabric().clone();
                let ep = h.cluster().host_ep(h.rank);
                let p = h.size() as u64;
                let (sendbuf, recvbuf) = (fab.alloc(ep, BLOCK * p), fab.alloc(ep, BLOCK * p));
                match &h.engine {
                    Engine::Proposed(off) => {
                        let g = off.record_alltoall(sendbuf, recvbuf, BLOCK);
                        off.group_call(g).await;
                        off.group_wait(g).await.expect("group offload failed");
                    }
                    Engine::Blues(blues) => {
                        let r = blues.ialltoall(sendbuf, recvbuf, BLOCK).await;
                        blues.wait(r).await;
                    }
                    Engine::Intel => h.mpi.alltoall(sendbuf, recvbuf, BLOCK).await,
                }
                note(&ranks_seen, format!("rank{}", h.rank));
            })
        });
        for (pid, thread, threads) in emitted.lock().unwrap().iter() {
            let name = report.proc_name(*pid).expect("a pid of this run");
            if name.starts_with("proxy") {
                seen.lock()
                    .unwrap()
                    .push((name.to_string(), *thread, *threads));
            }
        }
        let mut who = vec!["rank0", "rank1", "rank2", "rank3"];
        if !matches!(label, "IntelMPI") {
            who.extend(["proxy0.0", "proxy1.0"]);
        }
        all_ran_on_the_caller(&seen, &who, before, label);
    }
}
