//! Quickstart: the ping-pong of paper Listing 3, written with the Basic
//! offload primitives on a two-node simulated cluster.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Each rank offloads a send and a receive to its DPU proxy, computes
//! while the DPU moves the data, and then waits. The printout shows that
//! the transfer finished during the compute phase (the waits are free).

use bluefield_offload::dpu::{Offload, OffloadConfig};
use bluefield_offload::net::{ClusterBuilder, ClusterSpec, Inbox};
use bluefield_offload::sim::SimDelta;

fn main() {
    let spec = ClusterSpec::new(2, 1); // two nodes, one rank each
    let report = ClusterBuilder::new(spec, 42)
        .run_async(
            async |rank, ctx, cluster| {
                // Init_Offload()
                let inbox = Inbox::new();
                let off = Offload::init(rank, ctx, cluster, &inbox, OffloadConfig::proposed());
                let fab = off.cluster().fabric().clone();
                let ep = off.cluster().host_ep(rank);

                // void *sbuf, *rbuf; size_t size = 1024;
                let size = 1024;
                let sbuf = fab.alloc(ep, size);
                let rbuf = fab.alloc(ep, size);
                fab.fill_pattern(ep, sbuf, size, 100 + rank as u64).unwrap();

                let peer = 1 - rank;
                // Send_Offload(sbuf, size, &req, peer, tag);
                let sreq = off.send_offload(sbuf, size, peer, 3);
                // Recv_Offload(rbuf, size, &req, peer, tag);
                let rreq = off.recv_offload(rbuf, size, peer, 3);

                // Overlap: the DPU progresses the exchange while we compute.
                off.ctx().compute_async(SimDelta::from_us(500)).await;

                // Wait(&req);
                let t0 = off.ctx().now();
                off.wait(sreq).await;
                off.wait(rreq).await;
                let wait_us = (off.ctx().now() - t0).as_us_f64();

                assert!(
                    fab.verify_pattern(ep, rbuf, size, 100 + peer as u64).unwrap(),
                    "payload must match the peer's pattern"
                );
                println!(
                    "rank {rank}: exchange complete at t={:.1}us; time spent in Wait: {wait_us:.3}us",
                    off.ctx().now().as_us_f64()
                );

                // Finalize_Offload();
                off.finalize().await;
            },
            Some(bluefield_offload::dpu::proxy_fn(OffloadConfig::proposed())),
        )
        .expect("simulation completes");

    println!(
        "\nsimulated time: {:.1}us over {} events; GVMI writes by proxies: {}",
        report.end_time.as_us_f64(),
        report.events,
        report.stats.counter("offload.proxy.gvmi_writes"),
    );
    println!("The waits are ~0us: the DPU finished the exchange during compute.");
}
