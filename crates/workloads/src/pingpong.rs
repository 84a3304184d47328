//! Non-blocking ping-pong (paper Fig. 4): concurrent two-way
//! isend/irecv pairs followed by a wait-all, between one rank on each of
//! two nodes. Compares host MPI against the staging and GVMI offload
//! engines.

use std::sync::Arc;

use minimpi::{Mpi, MpiConfig};
use offload::{Offload, OffloadConfig};
use rdma::{ClusterBuilder, ClusterSpec, Inbox};

use crate::harness::{collect, collector, take};

/// Which engine carries the ping-pong payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum P2pEngine {
    /// Host MPI (eager/rendezvous; paper's "Host" bars).
    Host,
    /// Offload framework, staging data path (paper's "Staging" bars).
    Staging,
    /// Offload framework, cross-GVMI data path (the proposed mechanism).
    Gvmi,
}

impl P2pEngine {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            P2pEngine::Host => "Host",
            P2pEngine::Staging => "Staging",
            P2pEngine::Gvmi => "GVMI",
        }
    }
}

/// Average one-way latency (µs) of a concurrent two-way non-blocking
/// exchange of `size` bytes, measured over `iters` iterations after
/// `warmup` warm-up iterations.
pub fn nonblocking_pingpong_us(
    size: u64,
    iters: u32,
    warmup: u32,
    engine: P2pEngine,
    seed: u64,
) -> f64 {
    let spec = ClusterSpec::new(2, 1);
    let out = collector::<f64>();
    let out2 = Arc::clone(&out);
    let builder = crate::observe::apply(ClusterBuilder::new(spec, seed));

    let body = move |rank: usize,
                     ctx: simnet::ProcessCtx,
                     cluster: rdma::ClusterCtx,
                     engine: P2pEngine| {
        let inbox = Inbox::new();
        let fab = cluster.fabric().clone();
        let ep = cluster.host_ep(rank);
        let sbuf = fab.alloc(ep, size);
        let rbuf = fab.alloc(ep, size);
        let peer = 1 - rank;
        let mpi = Mpi::attach(
            rank,
            ctx.clone(),
            cluster.clone(),
            &inbox,
            MpiConfig::default(),
        );
        let off = match engine {
            P2pEngine::Host => None,
            P2pEngine::Staging => Some(Offload::init(
                rank,
                ctx.clone(),
                cluster.clone(),
                &inbox,
                OffloadConfig::staging(),
            )),
            P2pEngine::Gvmi => Some(Offload::init(
                rank,
                ctx.clone(),
                cluster.clone(),
                &inbox,
                OffloadConfig::proposed(),
            )),
        };
        let mut total_us = 0.0;
        for i in 0..(warmup + iters) {
            mpi.barrier();
            let t0 = ctx.now();
            let tag = 2 * i as u64;
            match &off {
                None => {
                    let s = mpi.isend(sbuf, size, peer, tag);
                    let r = mpi.irecv(rbuf, size, peer, tag);
                    mpi.wait_all(&[s, r]);
                }
                Some(off) => {
                    let s = off.send_offload(sbuf, size, peer, tag);
                    let r = off.recv_offload(rbuf, size, peer, tag);
                    off.ctx().block_on(off.wait_all(&[s, r]));
                }
            }
            let us = (ctx.now() - t0).as_us_f64();
            if i >= warmup {
                total_us += us;
            }
        }
        if let Some(off) = &off {
            // Quiesce before finalize: every request already waited.
            off.ctx().block_on(off.finalize());
        }
        if rank == 0 {
            collect(&out2, total_us / iters as f64);
        }
    };

    let report = match engine {
        P2pEngine::Host => {
            builder.run_hosts(move |rank, ctx, cluster| body(rank, ctx, cluster, P2pEngine::Host))
        }
        P2pEngine::Staging => builder.run(
            move |rank, ctx, cluster| body(rank, ctx, cluster, P2pEngine::Staging),
            Some(offload::proxy_fn(OffloadConfig::staging())),
        ),
        P2pEngine::Gvmi => builder.run(
            move |rank, ctx, cluster| body(rank, ctx, cluster, P2pEngine::Gvmi),
            Some(offload::proxy_fn(OffloadConfig::proposed())),
        ),
    };
    report.expect("pingpong run");
    take(&out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_is_slowest_for_large_messages() {
        let host = nonblocking_pingpong_us(256 * 1024, 3, 2, P2pEngine::Host, 5);
        let gvmi = nonblocking_pingpong_us(256 * 1024, 3, 2, P2pEngine::Gvmi, 5);
        let staging = nonblocking_pingpong_us(256 * 1024, 3, 2, P2pEngine::Staging, 5);
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
        let small = nonblocking_pingpong_us(1024, 3, 1, P2pEngine::Host, 6);
        let large = nonblocking_pingpong_us(1 << 20, 3, 1, P2pEngine::Host, 6);
        assert!(small > 0.0 && large > small);
    }
}
