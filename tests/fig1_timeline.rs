//! The paper's Fig. 1 story, asserted end-to-end: for a dependent ring
//! pattern overlapped with computation,
//!
//! 1. host-MPI progression is gated by the CPU's polling granularity,
//! 2. the staging offload progresses without the CPU but pays the extra
//!    hop,
//! 3. the proposed GVMI offload progresses without the CPU at host-level
//!    transfer speed.

#![allow(
    clippy::disallowed_types,
    reason = "test code: ranks hand their arrival times out of the run"
)]

use bluefield_offload::dpu::{DataPath, Offload, OffloadConfig};
use bluefield_offload::mpi::Mpi;
use bluefield_offload::net::{ClusterBuilder, ClusterSpec, Inbox, NO_PROXIES};
use bluefield_offload::sim::SimDelta;
use std::sync::{Arc, Mutex};

const RANKS: usize = 4;
const LEN: u64 = 512 * 1024;
const COMPUTE: SimDelta = SimDelta::from_ms(8);
/// Coarse polling, as in an application that rarely calls MPI_Test.
const POLL: SimDelta = SimDelta::from_ms(1);

/// Ring data-arrival time at the last rank (µs) for the MPI case, written
/// exactly like paper Listing 1: poll with `MPI_Test` between compute
/// slices, forward as soon as the receive completes, keep computing.
fn mpi_ring_completion() -> f64 {
    let last_arrival = Arc::new(Mutex::new(0.0f64));
    let la = Arc::clone(&last_arrival);
    ClusterBuilder::new(ClusterSpec::new(RANKS, 1), 2)
        .run_async(
            async move |rank, ctx, cluster| {
                let mpi = Mpi::new(rank, ctx.clone(), cluster.clone());
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                let buf = fab.alloc(ep, LEN);
                let mut remaining = COMPUTE;
                // Listing-1 poll loop: compute a slice, test, repeat.
                let mut poll_until = async |mpi: &Mpi, r: bluefield_offload::mpi::Req| {
                    while !mpi.test(r) && remaining > simnet::SimDelta::ZERO {
                        let slice = remaining.min(POLL);
                        ctx.compute_async(slice).await;
                        remaining = remaining.saturating_sub(slice);
                    }
                    mpi.wait(r).await;
                };
                if rank == 0 {
                    fab.fill_pattern(ep, buf, LEN, 1).unwrap();
                    let s = mpi.isend(buf, LEN, 1, 0);
                    poll_until(&mpi, s).await;
                } else {
                    let r = mpi.irecv(buf, LEN, rank - 1, 0);
                    poll_until(&mpi, r).await;
                    if rank == RANKS - 1 {
                        *la.lock().unwrap() = ctx.now().as_us_f64();
                    } else {
                        let s = mpi.isend(buf, LEN, rank + 1, 0);
                        poll_until(&mpi, s).await;
                    }
                }
                if remaining > simnet::SimDelta::ZERO {
                    ctx.compute_async(remaining).await;
                }
                assert!(fab.verify_pattern(ep, buf, LEN, 1).unwrap());
            },
            NO_PROXIES,
        )
        .unwrap();
    let v = *last_arrival.lock().unwrap();
    v
}

/// Ring completion time for an offloaded group ring.
fn offload_ring_completion(path: DataPath) -> f64 {
    let cfg = match path {
        DataPath::Gvmi => OffloadConfig::proposed(),
        DataPath::Staging => OffloadConfig::staging(),
    };
    let proxy_cfg = cfg.clone();
    let last_arrival = Arc::new(Mutex::new(0.0f64));
    let la = Arc::clone(&last_arrival);
    ClusterBuilder::new(ClusterSpec::new(RANKS, 1), 2)
        .run_async(
            async move |rank, ctx, cluster| {
                let inbox = Inbox::new();
                let off = Offload::init(rank, ctx, cluster.clone(), &inbox, cfg.clone());
                let fab = cluster.fabric().clone();
                let ep = cluster.host_ep(rank);
                let buf = fab.alloc(ep, LEN);
                if rank == 0 {
                    fab.fill_pattern(ep, buf, LEN, 1).unwrap();
                }
                let g = off.group_start();
                if rank == 0 {
                    off.group_send(g, buf, LEN, 1, 0);
                } else {
                    off.group_recv(g, buf, LEN, rank - 1, 0);
                    if rank != RANKS - 1 {
                        off.group_barrier(g);
                        off.group_send(g, buf, LEN, rank + 1, 0);
                    }
                }
                off.group_end(g);
                off.group_call(g).await;
                // Observe completion with fine-grained polling so the
                // arrival time is visible (the DPU needs none of this).
                let mut remaining = COMPUTE;
                while !off.group_test(g) && remaining > SimDelta::ZERO {
                    let slice = remaining.min(SimDelta::from_us(20));
                    off.ctx().compute_async(slice).await;
                    remaining = remaining.saturating_sub(slice);
                }
                off.group_wait(g).await.expect("group offload failed");
                if rank == RANKS - 1 {
                    *la.lock().unwrap() = off.ctx().now().as_us_f64();
                }
                if remaining > SimDelta::ZERO {
                    off.ctx().compute_async(remaining).await;
                }
                assert!(fab.verify_pattern(ep, buf, LEN, 1).unwrap());
                off.finalize().await;
            },
            Some(offload::proxy_fn(proxy_cfg)),
        )
        .unwrap();
    let v = *last_arrival.lock().unwrap();
    v
}

#[test]
fn fig1_ordering_holds() {
    let mpi = mpi_ring_completion();
    let staging = offload_ring_completion(DataPath::Staging);
    let gvmi = offload_ring_completion(DataPath::Gvmi);
    // Case 1: every dependent hop stalls for up to one CPU polling slice
    // (1 ms here), so the last arrival accumulates multiple slices.
    assert!(
        mpi > 2_000.0,
        "MPI ring should accumulate polling delays, got {mpi}us"
    );
    // Cases 2/3: the DPU progresses the ring without the CPU; the last
    // rank observes completion after just the transfer chain.
    assert!(
        gvmi < mpi / 4.0,
        "GVMI ring ({gvmi}us) should complete far earlier than MPI ({mpi}us)"
    );
    assert!(
        staging < mpi / 2.0,
        "staging ring ({staging}us) should also beat CPU-driven MPI ({mpi}us)"
    );
    // Case 3 beats case 2: no store-and-forward hop.
    assert!(
        gvmi < staging,
        "GVMI ({gvmi}us) should beat staging ({staging}us)"
    );
}
