//! An offload cluster runs on the thread that calls `run()`: future ranks
//! are polled and proxy reactors called there, so the protocol path makes
//! no thread hand-off at all.
//!
//! One test, alone in its binary: it counts the OS threads of the whole
//! process, which a neighbouring test would disturb.

use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use bluefield_offload::dpu::{proxy_fn, Offload, OffloadConfig};
use bluefield_offload::net::{ClusterBuilder, ClusterSpec, Inbox};
use bluefield_offload::sim::{ProcessCtx, Reactor, SimDelta};

/// OS threads of this process right now.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// Where each body ran: `(who, thread, OS threads in the process then)`.
type Seen = Arc<Mutex<Vec<(String, ThreadId, usize)>>>;

fn note(seen: &Seen, who: String) {
    seen.lock()
        .unwrap()
        .push((who, thread::current().id(), os_threads()));
}

#[test]
fn a_basic_short_stencil_runs_every_rank_and_proxy_on_the_caller() {
    // `basic_short`'s shape: 2x2 ranks, one proxy per DPU, 256 B faces
    // to both ring neighbours per round (fewer rounds).
    const FACE: u64 = 256;
    const ROUNDS: u64 = 50;
    let cfg = OffloadConfig::proposed();
    let seen: Seen = Arc::default();
    let (ranks_seen, proxies_seen) = (Arc::clone(&seen), Arc::clone(&seen));
    let proxy = proxy_fn(cfg.clone());
    let spec = ClusterSpec::new(2, 2).without_byte_movement();
    let before = os_threads();
    ClusterBuilder::new(spec, 1)
        .run_async(
            move |rank, ctx, cluster| {
                let (cfg, seen) = (cfg.clone(), Arc::clone(&ranks_seen));
                async move {
                    let inbox = Inbox::new();
                    let off = Offload::init(rank, ctx, cluster, &inbox, cfg);
                    let fab = off.cluster().fabric().clone();
                    let ep = off.cluster().host_ep(rank);
                    let p = off.size();
                    let (right, left) = ((rank + 1) % p, (rank + p - 1) % p);
                    let bufs: Vec<_> = (0..4).map(|_| fab.alloc(ep, FACE)).collect();
                    for round in 0..ROUNDS {
                        let reqs = [
                            off.send_offload(bufs[0], FACE, right, round * 4),
                            off.send_offload(bufs[1], FACE, left, round * 4 + 1),
                            off.recv_offload(bufs[2], FACE, left, round * 4),
                            off.recv_offload(bufs[3], FACE, right, round * 4 + 1),
                        ];
                        off.ctx().compute_async(SimDelta::from_us(5)).await;
                        off.wait_all(&reqs).await;
                        note(&seen, format!("rank{rank}"));
                    }
                    off.finalize().await;
                }
            },
            Some(
                move |node: usize, idx: usize, ctx: ProcessCtx, cluster| -> Option<Reactor> {
                    let seen = Arc::clone(&proxies_seen);
                    let mut inner = proxy(node, idx, ctx, cluster)?;
                    Some(Box::new(move |msg| {
                        note(&seen, format!("proxy{node}.{idx}"));
                        inner(msg)
                    }))
                },
            ),
        )
        .expect("clean run");
    let me = thread::current().id();
    let seen = seen.lock().unwrap();
    for who in ["rank0", "rank1", "rank2", "rank3", "proxy0.0", "proxy1.0"] {
        let mine: Vec<_> = seen.iter().filter(|(w, ..)| w == who).collect();
        assert!(!mine.is_empty(), "{who} never ran");
        for (_, thread, threads) in mine {
            assert_eq!(*thread, me, "{who} ran off the caller's thread");
            assert_eq!(
                *threads, before,
                "{who} ran while the run had spawned a thread"
            );
        }
    }
    assert_eq!(
        seen.iter().filter(|(w, ..)| w == "rank0").count(),
        ROUNDS as usize
    );
}
