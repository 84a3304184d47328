//! Property-based tests: arbitrary communication graphs executed through
//! the Group primitives (on both data paths) deliver exactly the payloads
//! a reference interpretation predicts, and the metrics layer's
//! conservation laws hold on every run — bytes delivered equal bytes
//! requested, cache lookups decompose into hits + misses + stale, and
//! FIN counts equal matched-pair counts.

use bluefield_offload::dpu::{DataPath, Metrics, MetricsReport, Offload, OffloadConfig};
use bluefield_offload::net::{ClusterBuilder, ClusterSpec, Inbox};
use proptest::prelude::*;
use std::sync::Arc;

/// One randomly generated edge of a communication graph.
#[derive(Clone, Debug)]
struct Edge {
    src: usize,
    dst: usize,
    len: u64,
}

fn edges_strategy(ranks: usize, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..ranks, 0..ranks, 64u64..32_768), 1..=max_edges)
        .prop_map(|v| {
            v.into_iter()
                .filter(|(s, d, _)| s != d)
                .map(|(src, dst, len)| Edge { src, dst, len })
                .collect::<Vec<Edge>>()
        })
        .prop_filter("need at least one edge", |v| !v.is_empty())
}

/// Like [`edges_strategy`] but lengths include zero and odd, unaligned
/// sizes — the engine must move (or skip) them without misaccounting.
fn edges_strategy_with_zero(ranks: usize, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..ranks, 0..ranks, 0u64..8192), 1..=max_edges)
        .prop_map(|v| {
            v.into_iter()
                .filter(|(s, d, _)| s != d)
                .map(|(src, dst, len)| Edge { src, dst, len })
                .collect::<Vec<Edge>>()
        })
        .prop_filter("need at least one edge", |v| !v.is_empty())
}

/// Conservation laws every observed run must satisfy, whatever the
/// pattern: registration-cache lookups decompose exactly, registrations
/// performed equal lookups not served from cache, and posted work all
/// completes.
fn assert_conservation(r: &MetricsReport) {
    for (name, c) in [
        ("host_gvmi", r.host_gvmi_cache),
        ("host_ib", r.host_ib_cache),
        ("dpu_cross", r.dpu_cross_cache),
    ] {
        assert_eq!(
            c.lookups(),
            c.hits + c.misses + c.stale,
            "{name}: lookups must decompose into hits+misses+stale"
        );
    }
    assert_eq!(
        r.cross_regs,
        r.dpu_cross_cache.misses + r.dpu_cross_cache.stale,
        "a cross-registration happens exactly when the cache cannot serve"
    );
    assert_eq!(
        r.writes_posted, r.writes_completed,
        "every posted work request must complete"
    );
}

/// Execute `edges` as one group request per rank; every edge uses its own
/// buffers and a unique tag, so the graph needs no barriers. Verify every
/// payload lands intact and the byte counters balance.
fn execute_graph(edges: Vec<Edge>, ranks: usize, path: DataPath) {
    let cfg = match path {
        DataPath::Gvmi => OffloadConfig::proposed(),
        DataPath::Staging => OffloadConfig::staging(),
    };
    let proxy_cfg = cfg.clone();
    let total_bytes: u64 = edges.iter().map(|e| e.len).sum();
    let participants = (0..ranks)
        .filter(|&r| edges.iter().any(|e| e.src == r || e.dst == r))
        .count() as u64;
    let metrics = Metrics::new();
    let edges = Arc::new(edges);
    let spec = ClusterSpec::new(2, ranks.div_ceil(2));
    ClusterBuilder::new(spec, 1234)
        .with_event_sink(metrics.sink())
        .run_async(
            async move |rank, ctx, cluster| {
                let inbox = Inbox::new();
                let off = Offload::init(rank, ctx, cluster.clone(), &inbox, cfg.clone());
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                // Rank indices above `ranks` idle (world is padded to fill
                // nodes evenly).
                let mut sends = Vec::new();
                let mut recvs = Vec::new();
                for (tag, e) in edges.iter().enumerate() {
                    if e.src == rank {
                        let buf = fab.alloc(ep, e.len);
                        fab.fill_pattern(ep, buf, e.len, tag as u64 * 31 + 7)
                            .unwrap();
                        sends.push((tag as u64, buf, e.len, e.dst));
                    }
                    if e.dst == rank {
                        let buf = fab.alloc(ep, e.len);
                        recvs.push((tag as u64, buf, e.len, e.src));
                    }
                }
                if !sends.is_empty() || !recvs.is_empty() {
                    let g = off.group_start();
                    for &(tag, buf, len, dst) in &sends {
                        off.group_send(g, buf, len, dst, tag);
                    }
                    for &(tag, buf, len, src) in &recvs {
                        off.group_recv(g, buf, len, src, tag);
                    }
                    off.group_end(g);
                    off.group_call(g).await;
                    off.group_wait(g).await.expect("group offload failed");
                }
                for &(tag, buf, len, _src) in &recvs {
                    assert!(
                        fab.verify_pattern(ep, buf, len, tag * 31 + 7).unwrap(),
                        "edge {tag} payload corrupt at rank {rank} ({path:?})"
                    );
                }
                off.finalize().await;
            },
            Some(offload::proxy_fn(proxy_cfg)),
        )
        .unwrap();
    let r = metrics.report();
    assert_conservation(&r);
    assert_eq!(
        r.delivered_bytes(),
        total_bytes,
        "bytes received must equal bytes sent across the whole graph"
    );
    match path {
        DataPath::Gvmi => assert_eq!(r.bytes_staging_hop1 + r.bytes_staging_hop2, 0),
        DataPath::Staging => {
            assert_eq!(r.bytes_cross_gvmi, 0);
            assert_eq!(
                r.bytes_staging_hop1, r.bytes_staging_hop2,
                "staged bytes in must equal staged bytes forwarded"
            );
        }
    }
    // One GroupFin closes each participating rank's single call.
    assert_eq!(r.fin_group, participants);
    assert_eq!(r.finalized_ranks as usize, ranks.div_ceil(2) * 2);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_graphs_deliver_correctly_gvmi(edges in edges_strategy(4, 10)) {
        execute_graph(edges, 4, DataPath::Gvmi);
    }

    #[test]
    fn random_graphs_deliver_correctly_staging(edges in edges_strategy(4, 8)) {
        execute_graph(edges, 4, DataPath::Staging);
    }

    #[test]
    fn basic_transfers_conserve_fin_and_bytes(edges in edges_strategy_with_zero(4, 8)) {
        // The same graphs through the Basic primitives: every transfer is
        // an individually FIN-notified RTS/RTR pair, so FIN counts must
        // equal the matched-pair count exactly.
        let n = edges.len() as u64;
        let total: u64 = edges.iter().map(|e| e.len).sum();
        let metrics = Metrics::new();
        let edges = Arc::new(edges);
        ClusterBuilder::new(ClusterSpec::new(2, 2), 777)
            .with_event_sink(metrics.sink())
            .run_async(
                async move |rank, ctx, cluster| {
                    let inbox = Inbox::new();
                    let off = Offload::init(
                        rank, ctx, cluster.clone(), &inbox, OffloadConfig::proposed(),
                    );
                    let fab = cluster.fabric().clone();
                    let ep = cluster.host_ep(rank);
                    let mut reqs = Vec::new();
                    for (tag, e) in edges.iter().enumerate() {
                        if e.src == rank {
                            let buf = fab.alloc(ep, e.len);
                            reqs.push(off.send_offload(buf, e.len, e.dst, tag as u64));
                        }
                        if e.dst == rank {
                            let buf = fab.alloc(ep, e.len);
                            reqs.push(off.recv_offload(buf, e.len, e.src, tag as u64));
                        }
                    }
                    off.wait_all(&reqs).await;
                    off.finalize().await;
                },
                Some(offload::proxy_fn(OffloadConfig::proposed())),
            )
            .unwrap();
        let r = metrics.report();
        assert_conservation(&r);
        assert_eq!(r.rts, n);
        assert_eq!(r.rtr, n);
        assert_eq!(r.pairs_matched, n, "every RTS must meet its RTR");
        assert_eq!(r.fin_send, n, "one FinSend per matched pair");
        assert_eq!(r.fin_recv, n, "one FinRecv per matched pair");
        assert_eq!(r.delivered_bytes(), total);
    }

    #[test]
    fn random_forwarding_chains_respect_barriers(
        chain in prop::collection::vec(0..4usize, 2..5),
        len in 1024u64..16_384,
    ) {
        // Deduplicate consecutive repeats to get a valid path.
        let mut path_ranks = vec![chain[0]];
        for &r in &chain[1..] {
            if r != *path_ranks.last().expect("nonempty") {
                path_ranks.push(r);
            }
        }
        if path_ranks.len() < 2 {
            return Ok(());
        }
        // Forward one buffer along the path with Local_barrier ordering;
        // the last rank must see the origin's pattern.
        let path = Arc::new(path_ranks);
        let spec = ClusterSpec::new(2, 2);
        ClusterBuilder::new(spec, 9)
            .run_async(
                async move |rank, ctx, cluster| {
                    let inbox = Inbox::new();
                    let off = Offload::init(
                        rank, ctx, cluster.clone(), &inbox, OffloadConfig::proposed(),
                    );
                    let fab = cluster.fabric().clone();
                    let ep = cluster.host_ep(rank);
                    let buf = fab.alloc(ep, len);
                    if rank == path[0] {
                        fab.fill_pattern(ep, buf, len, 555).unwrap();
                    } else {
                        fab.fill_pattern(ep, buf, len, 66).unwrap(); // stale bytes
                    }
                    let g = off.group_start();
                    let mut used = false;
                    for w in path.windows(2) {
                        let (s, d) = (w[0], w[1]);
                        let tag = 900 + used as u64; // distinct per hop pair below
                        let _ = tag;
                        if rank == d {
                            off.group_recv(g, buf, len, s, 900);
                            off.group_barrier(g);
                            used = true;
                        }
                        if rank == s {
                            off.group_send(g, buf, len, d, 900);
                            used = true;
                        }
                    }
                    off.group_end(g);
                    if used {
                        off.group_call(g).await;
                        off.group_wait(g).await.expect("group offload failed");
                        if rank == *path.last().expect("nonempty") {
                            assert!(
                                fab.verify_pattern(ep, buf, len, 555).unwrap(),
                                "chain end must hold the origin's data"
                            );
                        }
                    }
                    off.finalize().await;
                },
                Some(offload::proxy_fn(OffloadConfig::proposed())),
            )
            .unwrap();
    }
}
