//! The ring broadcast of paper Listings 1 & 5, three ways — reproducing
//! the Fig. 1 timeline comparison:
//!
//! 1. **MPI non-blocking p2p** (Listing 1): each dependent ring step needs
//!    the CPU, which is busy computing — steps start late.
//! 2. **Staging offload with the Group primitives**: the DPU progresses
//!    the ring, but every hop pays the extra staging copy.
//! 3. **Proposed (cross-GVMI) offload with the Group primitives**
//!    (Listing 5): the DPU progresses the ring at host-transfer speed.
//!
//! ```bash
//! cargo run --release --example ring_broadcast
//! ```

#![allow(
    clippy::disallowed_types,
    reason = "the example's ranks hand their arrival times out of the run"
)]

use bluefield_offload::dpu::{DataPath, Offload, OffloadConfig};
use bluefield_offload::mpi::Mpi;
use bluefield_offload::net::{ClusterBuilder, ClusterSpec, Inbox, NO_PROXIES};
use bluefield_offload::sim::SimDelta;
use std::sync::{Arc, Mutex};

const RANKS: usize = 4;
const LEN: u64 = 256 * 1024;
const COMPUTE_MS: u64 = 5;

/// Returns (per-rank data-arrival times in µs, total time µs).
fn run_mpi_listing1() -> (Vec<f64>, f64) {
    let arrivals = Arc::new(Mutex::new(vec![0.0f64; RANKS]));
    let a2 = Arc::clone(&arrivals);
    let report = ClusterBuilder::new(ClusterSpec::new(RANKS, 1), 7)
        .run_async(
            async move |rank, ctx, cluster| {
                let mpi = Mpi::new(rank, ctx.clone(), cluster.clone());
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                let buf = fab.alloc(ep, LEN);
                if rank == 0 {
                    fab.fill_pattern(ep, buf, LEN, 9).unwrap();
                }
                let right = (rank + 1) % RANKS;
                // Listing 1: each rank drives its step with MPI_Test between
                // compute slices.
                if rank == 0 {
                    let s = mpi.isend(buf, LEN, right, 4);
                    mpi.compute_with_test(SimDelta::from_ms(COMPUTE_MS), SimDelta::from_us(250), s)
                        .await;
                    mpi.wait(s).await;
                } else {
                    let r = mpi.irecv(buf, LEN, rank - 1, 4);
                    mpi.compute_with_test(SimDelta::from_ms(COMPUTE_MS), SimDelta::from_us(250), r)
                        .await;
                    mpi.wait(r).await;
                    a2.lock().unwrap()[rank] = mpi.ctx().now().as_us_f64();
                    if right != 0 {
                        let s = mpi.isend(buf, LEN, right, 4);
                        mpi.wait(s).await;
                    }
                }
                assert!(fab.verify_pattern(ep, buf, LEN, 9).unwrap());
            },
            NO_PROXIES,
        )
        .unwrap();
    let a = arrivals.lock().unwrap().clone();
    (a, report.end_time.as_us_f64())
}

fn run_offload(path: DataPath) -> (Vec<f64>, f64) {
    let cfg = match path {
        DataPath::Gvmi => OffloadConfig::proposed(),
        DataPath::Staging => OffloadConfig::staging(),
    };
    let proxy_cfg = cfg.clone();
    let arrivals = Arc::new(Mutex::new(vec![0.0f64; RANKS]));
    let a2 = Arc::clone(&arrivals);
    let report = ClusterBuilder::new(ClusterSpec::new(RANKS, 1), 7)
        .run_async(
            async move |rank, ctx, cluster| {
                let inbox = Inbox::new();
                let off = Offload::init(rank, ctx, cluster, &inbox, cfg.clone());
                let fab = off.cluster().fabric().clone();
                let ep = off.cluster().host_ep(rank);
                let buf = fab.alloc(ep, LEN);
                if rank == 0 {
                    fab.fill_pattern(ep, buf, LEN, 9).unwrap();
                }
                let left = (rank + RANKS - 1) % RANKS;
                let right = (rank + 1) % RANKS;
                // Listing 5: record the whole pattern, then offload it.
                let g = off.group_start();
                if rank == 0 {
                    off.group_send(g, buf, LEN, right, 4);
                } else {
                    off.group_recv(g, buf, LEN, left, 4);
                    off.group_barrier(g);
                    if right != 0 {
                        off.group_send(g, buf, LEN, right, 4);
                    }
                }
                off.group_end(g);
                off.group_call(g).await;
                // Overlap with compute — zero CPU intervention needed.
                off.ctx().compute_async(SimDelta::from_ms(COMPUTE_MS)).await;
                off.group_wait(g).await.expect("group offload failed");
                if rank != 0 {
                    a2.lock().unwrap()[rank] = off.ctx().now().as_us_f64();
                }
                assert!(fab.verify_pattern(ep, buf, LEN, 9).unwrap());
                off.finalize().await;
            },
            Some(bluefield_offload::dpu::proxy_fn(proxy_cfg)),
        )
        .unwrap();
    let a = arrivals.lock().unwrap().clone();
    (a, report.end_time.as_us_f64())
}

fn main() {
    println!("Ring broadcast of {LEN} B over {RANKS} ranks, {COMPUTE_MS} ms compute per rank\n");
    let (mpi_arr, mpi_total) = run_mpi_listing1();
    let (stg_arr, stg_total) = run_offload(DataPath::Staging);
    let (gvmi_arr, gvmi_total) = run_offload(DataPath::Gvmi);
    println!("completion per rank (us into the run):");
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "rank", "MPI (case 1)", "Staging (2)", "GVMI (3)"
    );
    for r in 1..RANKS {
        println!(
            "{:>6} {:>14.1} {:>14.1} {:>14.1}",
            r, mpi_arr[r], stg_arr[r], gvmi_arr[r]
        );
    }
    println!("\ntotal: MPI {mpi_total:.1}us | staging {stg_total:.1}us | GVMI {gvmi_total:.1}us");
    println!("\nFig. 1's story: with MPI p2p the dependent steps wait for the CPU to poll;");
    println!("both offloads progress during compute, and GVMI completes each hop earlier");
    println!("than staging (no store-and-forward copy into DPU memory).");
}
