//! Paper Fig. 2 — RDMA-Write latency: Host-to-Host versus Host-to-DPU.
//!
//! Verbs-level measurement on two nodes: a host endpoint posts writes into
//! a remote host's memory vs. a remote DPU's memory. The paper observes
//! the latencies are close (the DPU's extra per-message handling is small
//! against the wire latency).

use bench_harness::{bytes, print_table, us, Args};
use rdma::{ClusterSpec, DeviceClass, Fabric, NetMsg};
use simnet::Simulation;
use std::sync::{Arc, Mutex};

fn one_way_latency_us(dst_is_dpu: bool, size: u64, iters: u32) -> f64 {
    let mut sim = Simulation::new(2);
    let fabric = Fabric::new(&mut sim, ClusterSpec::new(2, 1));
    let out = Arc::new(Mutex::new(0.0f64));
    let out2 = Arc::clone(&out);
    let fab = fabric.clone();
    sim.spawn_future("driver", async move |ctx| {
        let src = fab.add_endpoint(ctx.pid(), 0, DeviceClass::Host);
        let dst = fab.add_endpoint(
            ctx.pid(),
            1,
            if dst_is_dpu {
                DeviceClass::Dpu
            } else {
                DeviceClass::Host
            },
        );
        let sbuf = fab.alloc(src, size);
        let dbuf = fab.alloc(dst, size);
        let lkey = fab.reg_mr(&ctx, src, sbuf, size).unwrap();
        let rkey = fab.reg_mr(&ctx, dst, dbuf, size).unwrap();
        let mut total = 0.0;
        for i in 0..iters {
            let t0 = ctx.now();
            fab.rdma_write(
                &ctx,
                src,
                (src, sbuf, lkey),
                (dst, dbuf, rkey),
                size,
                Some(i as u64),
                None,
            )
            .unwrap();
            // Wait for the completion, then count only the one-way part.
            loop {
                if matches!(
                    *ctx.recv_async().await.downcast::<NetMsg>().unwrap(),
                    NetMsg::Cqe(_)
                ) {
                    break;
                }
            }
            let rtt = (ctx.now() - t0).as_us_f64();
            let ack = fab.spec().model.ack_latency.as_us_f64();
            total += rtt - ack;
        }
        *out2.lock().unwrap() = total / iters as f64;
    });
    sim.run().unwrap();
    let v = *out.lock().unwrap();
    v
}

fn run(args: Args) {
    let iters = args.pick_iters(50, 5);
    let sizes: Vec<u64> = (0..=12).map(|p| 1u64 << p).collect();
    let mut rows = Vec::new();
    for &size in &sizes {
        let hh = one_way_latency_us(false, size, iters);
        let hd = one_way_latency_us(true, size, iters);
        rows.push(vec![
            bytes(size),
            us(hh),
            us(hd),
            format!("{:.2}x", hd / hh),
        ]);
    }
    print_table(
        "Fig. 2 — RDMA-Write latency, Host-to-Host vs Host-to-DPU (one-way)",
        &["size", "host-host", "host-DPU", "ratio"],
        &rows,
    );
    println!("\nPaper shape: host-DPU latency close to host-host (small constant ratio).");
}

fn main() {
    bench_harness::run_with_observability("fig02_rdma_latency", Args::parse(), run);
}
