//! Under-tested configurations, checked through the metrics layer:
//! proxy fan-out (`num_proxies_per_dpu` 1/2/4), zero-byte and unaligned
//! message sizes, and repeated group generations (the §VII-D once-only
//! metadata-exchange claim).

use bluefield_offload::apps::{drive_group_stencil, drive_stencil, CheckRun};
use bluefield_offload::dpu::Metrics;

fn observed(run: &mut CheckRun) -> Metrics {
    let m = Metrics::new();
    run.sink = Some(m.sink());
    m
}

#[test]
fn proxy_fanout_conserves_traffic() {
    let mut delivered = Vec::new();
    for proxies in [1usize, 2, 4] {
        let mut run = CheckRun::baseline(41);
        run.proxies_per_dpu = proxies;
        let m = observed(&mut run);
        drive_stencil(&run, 4096, 2).expect("clean run");
        let r = m.report();
        assert_eq!(r.finalized_ranks, 4, "{proxies} proxies");
        assert_eq!(
            r.writes_posted, r.writes_completed,
            "{proxies} proxies: every posted WR must complete"
        );
        assert_eq!(r.rts, r.rtr, "symmetric exchange");
        assert_eq!(r.pairs_matched, r.rts, "every RTS finds its RTR");
        assert_eq!(r.fin_send, r.pairs_matched);
        assert_eq!(r.fin_recv, r.pairs_matched);
        let active = r.proxies.iter().filter(|p| p.rts + p.rtr > 0).count();
        assert!(
            active >= proxies.min(2),
            "rank->proxy mapping must spread load over {proxies} proxies, \
             only {active} active"
        );
        delivered.push(r.delivered_bytes());
    }
    assert!(
        delivered.iter().all(|&b| b == delivered[0]),
        "payload volume is invariant under proxy fan-out: {delivered:?}"
    );
}

#[test]
fn zero_byte_and_unaligned_sizes_complete() {
    for size in [0u64, 1, 3, 1023, 4097] {
        let mut run = CheckRun::baseline(42);
        let m = observed(&mut run);
        drive_stencil(&run, size, 1).expect("clean run");
        let r = m.report();
        assert_eq!(r.finalized_ranks, 4, "size {size}");
        assert_eq!(r.writes_posted, r.writes_completed, "size {size}");
        assert_eq!(
            r.delivered_bytes(),
            r.pairs_matched * size,
            "size {size}: each matched pair moves exactly its length"
        );
        // 4 ranks x 2 sends each, all matched even at zero length.
        assert_eq!(r.pairs_matched, 8, "size {size}");

        let mut run = CheckRun::baseline(43);
        let m = observed(&mut run);
        drive_group_stencil(&run, size, 2).expect("clean group run");
        let r = m.report();
        assert_eq!(r.finalized_ranks, 4, "group size {size}");
        assert_eq!(r.writes_posted, r.writes_completed, "group size {size}");
        assert_eq!(r.warm_window_interventions, 0, "group size {size}");
    }
}

#[test]
fn repeated_generations_exchange_metadata_once() {
    let mut run = CheckRun::baseline(44);
    let m = observed(&mut run);
    drive_group_stencil(&run, 2048, 5).expect("clean run");
    let r = m.report();
    assert!(r.recv_meta_total > 0, "the cold call must gather RecvMeta");
    assert_eq!(
        r.recv_meta_max_per_pair, 1,
        "metadata for a (request, rank) pair is exchanged exactly once \
         across 5 generations (§VII-D): {:?}",
        r.recv_meta
    );
    assert_eq!(
        r.group_packets_max_per_req, 1,
        "the full GroupPacket ships only on the cold call"
    );
    // 5 calls per rank: 1 cold install + 4 warm doorbells.
    assert_eq!(r.group_packets_total, 4);
    assert_eq!(r.group_execs, 4 * 4);
}
