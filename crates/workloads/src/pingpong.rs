//! Non-blocking ping-pong (paper Fig. 4): concurrent two-way
//! isend/irecv pairs followed by a wait-all, between one rank on each of
//! two nodes. Compares host MPI against the staging and GVMI offload
//! engines.

use std::sync::Arc;

use rdma::ClusterSpec;

use crate::harness::{collect, collector, run_workload, take, Runtime};

/// Average one-way latency (µs) of a concurrent two-way non-blocking
/// exchange of `size` bytes, measured over `iters` iterations after
/// `warmup` warm-up iterations. The payload rides the framework's Basic
/// primitives under [`Runtime::Proposed`] (the paper's "Staging" bars
/// with [`offload::OffloadConfig::staging`], GVMI with
/// [`Runtime::proposed`]) and host MPI otherwise (the "Host" bars).
pub fn nonblocking_pingpong_us(size: u64, iters: u32, warmup: u32, runtime: Runtime) -> f64 {
    let out = collector::<f64>();
    let out2 = Arc::clone(&out);
    run_workload(ClusterSpec::new(2, 1), runtime, async move |h| {
        let fab = h.cluster().fabric().clone();
        let ep = h.cluster().host_ep(h.rank);
        let sbuf = fab.alloc(ep, size);
        let rbuf = fab.alloc(ep, size);
        let peer = 1 - h.rank;
        let mut total_us = 0.0;
        for i in 0..(warmup + iters) {
            h.mpi.barrier().await;
            let t0 = h.ctx().now();
            let tag = 2 * i as u64;
            for r in h.isendrecv((sbuf, rbuf), size, peer, (tag, tag), true) {
                h.wait(r).await;
            }
            let us = (h.ctx().now() - t0).as_us_f64();
            if i >= warmup {
                total_us += us;
            }
        }
        if h.rank == 0 {
            collect(&out2, total_us / iters as f64);
        }
    });
    take(&out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_is_slowest_for_large_messages() {
        let host = nonblocking_pingpong_us(256 * 1024, 3, 2, Runtime::Intel);
        let gvmi = nonblocking_pingpong_us(256 * 1024, 3, 2, Runtime::proposed());
        let staging = nonblocking_pingpong_us(
            256 * 1024,
            3,
            2,
            Runtime::Proposed(offload::OffloadConfig::staging()),
        );
        assert!(
            staging > host * 1.3,
            "staging {staging}us should clearly exceed host {host}us (paper Fig. 4)"
        );
        assert!(
            staging > gvmi * 1.2,
            "staging {staging}us should clearly exceed GVMI {gvmi}us"
        );
    }

    #[test]
    fn latencies_are_positive_and_ordered_by_size() {
        let small = nonblocking_pingpong_us(1024, 3, 1, Runtime::Intel);
        let large = nonblocking_pingpong_us(1 << 20, 3, 1, Runtime::Intel);
        assert!(small > 0.0 && large > small);
    }
}
