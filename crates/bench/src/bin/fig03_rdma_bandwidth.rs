//! Paper Fig. 3 — RDMA-Write bandwidth: Host-to-Host versus Host-to-DPU,
//! normalized to Host-to-Host (higher is better).
//!
//! Streaming measurement (window of back-to-back writes). The paper found
//! host-to-DPU reaches roughly *half* the host-to-host bandwidth for
//! smaller messages — the DPU's ARM cores limit its per-message handling
//! rate — converging for large messages.

use bench_harness::{bytes, print_table, Args};
use rdma::{ClusterSpec, DeviceClass, Fabric, NetMsg};
use simnet::Simulation;
use std::sync::{Arc, Mutex};

const WINDOW: u32 = 64;

fn bandwidth_gbs(dst_is_dpu: bool, size: u64, windows: u32) -> f64 {
    let mut sim = Simulation::new(3);
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
        let t0 = ctx.now();
        let mut sent = 0u64;
        for _ in 0..windows {
            for i in 0..WINDOW {
                let signal = if i == WINDOW - 1 {
                    Some(i as u64)
                } else {
                    None
                };
                fab.rdma_write(
                    &ctx,
                    src,
                    (src, sbuf, lkey),
                    (dst, dbuf, rkey),
                    size,
                    signal,
                    None,
                )
                .unwrap();
                sent += size;
            }
            loop {
                if matches!(
                    *ctx.recv_async().await.downcast::<NetMsg>().unwrap(),
                    NetMsg::Cqe(_)
                ) {
                    break;
                }
            }
        }
        let secs = (ctx.now() - t0).as_secs_f64();
        *out2.lock().unwrap() = sent as f64 / secs / 1e9;
    });
    sim.run().unwrap();
    let v = *out.lock().unwrap();
    v
}

fn run(args: Args) {
    let windows = args.pick_iters(10, 2);
    let sizes: Vec<u64> = (6..=17).map(|p| 1u64 << p).collect();
    let mut rows = Vec::new();
    for &size in &sizes {
        let hh = bandwidth_gbs(false, size, windows);
        let hd = bandwidth_gbs(true, size, windows);
        rows.push(vec![
            bytes(size),
            format!("{hh:.2}"),
            format!("{hd:.2}"),
            format!("{:.2}", hd / hh),
        ]);
    }
    print_table(
        "Fig. 3 — RDMA-Write bandwidth (GB/s), Host-to-Host vs Host-to-DPU",
        &["size", "host-host", "host-DPU", "normalized"],
        &rows,
    );
    println!("\nPaper shape: host-DPU ≈ 0.5x for small messages, converging toward 1x for large.");
}

fn main() {
    bench_harness::run_with_observability("fig03_rdma_bandwidth", Args::parse(), run);
}
