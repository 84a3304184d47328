//! An offload cluster runs on the thread that calls `run()`: ranks and
//! proxies are future processes polled there, so the protocol path makes
//! no thread hand-off at all.
//!
//! One test, alone in its binary: it counts the OS threads of the whole
//! process, which a neighbouring test would disturb.

mod common;

use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::Arc;

use bluefield_offload::dpu::{proxy_fn, Offload, OffloadConfig};
use bluefield_offload::net::{ClusterBuilder, ClusterSpec, Inbox};
use bluefield_offload::sim::{ProcessCtx, SimDelta};
use common::{all_ran_on_the_caller, note, os_threads, Seen};

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
            async move |rank, ctx, cluster| {
                let inbox = Inbox::new();
                let off = Offload::init(rank, ctx, cluster, &inbox, cfg.clone());
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
                    note(&ranks_seen, format!("rank{rank}"));
                }
                off.finalize().await;
            },
            Some(async move |node, idx, ctx: ProcessCtx, cluster| {
                // The proxy's own body, noted at every poll.
                let mut body = pin!(proxy(node, idx, ctx, cluster));
                poll_fn(|cx| {
                    note(&proxies_seen, format!("proxy{node}.{idx}"));
                    body.as_mut().poll(cx)
                })
                .await
            }),
        )
        .expect("clean run");
    let who = ["rank0", "rank1", "rank2", "rank3", "proxy0.0", "proxy1.0"];
    all_ran_on_the_caller(&seen, &who, before, "basic_short");
    assert_eq!(
        seen.lock()
            .unwrap()
            .iter()
            .filter(|(w, ..)| w == "rank0")
            .count(),
        ROUNDS as usize
    );
}
