//! P3DFFT application skeleton (paper §VIII-D, Fig. 16).
//!
//! The paper profiled P3DFFT's compute loop: each transform phase
//! *"initiates two `MPI_Ialltoall` calls with different buffers ...
//! performs some computation, waits for one call to complete ... further
//! computation before waiting for another"*, with **no warm-up
//! iterations** — which is exactly where BluesMPI's cold-start showed up.
//! We reproduce that loop over a pencil-decomposed `x × y × z` grid:
//! forward and backward transforms per iteration, two persistent
//! all-to-all buffer pairs, FFT compute modelled as
//! `cells/rank × log₂(max dim) × NS_PER_POINT`.

use std::sync::Arc;

use rdma::{ClusterSpec, VAddr};
use simnet::SimDelta;

use crate::harness::{collect, collector, run_workload, take, Harness, Runtime};

/// Modelled FFT compute cost per grid point per transform phase.
pub const NS_PER_POINT: f64 = 4.0;

/// Complex-double element size.
const ELEM: u64 = 16;

/// Result of one P3DFFT run (times in µs, agreed across ranks).
#[derive(Debug, Clone, Copy)]
pub struct P3dfftResult {
    /// Whole-run wall time.
    pub total_us: f64,
    /// Profile of the first forward phase (paper Fig. 16c): compute part.
    pub phase_compute_us: f64,
    /// Profile of the first forward phase: time spent inside MPI
    /// (call + wait).
    pub phase_mpi_us: f64,
}

enum A2a {
    Intel(minimpi::Req),
    Blues(baselines::BluesReq),
    Prop(offload::GroupRequest),
}

struct TransposeSet {
    sendbuf: VAddr,
    recvbuf: VAddr,
    block: u64,
    group: Option<offload::GroupRequest>,
}

impl TransposeSet {
    fn new(h: &Harness, block: u64) -> Self {
        let fab = h.cluster().fabric().clone();
        let ep = h.cluster().host_ep(h.rank);
        let p = h.size() as u64;
        let sendbuf = fab.alloc(ep, block * p);
        let recvbuf = fab.alloc(ep, block * p);
        let group = h
            .off
            .as_ref()
            .map(|off| off.record_alltoall(sendbuf, recvbuf, block));
        TransposeSet {
            sendbuf,
            recvbuf,
            block,
            group,
        }
    }

    fn start(&self, h: &Harness) -> A2a {
        if let Some(off) = &h.off {
            let g = self.group.expect("recorded");
            off.ctx().block_on(off.group_call(g));
            A2a::Prop(g)
        } else if let Some(blues) = &h.blues {
            A2a::Blues(blues.ialltoall(self.sendbuf, self.recvbuf, self.block))
        } else {
            A2a::Intel(h.mpi.ialltoall(self.sendbuf, self.recvbuf, self.block))
        }
    }

    fn wait(&self, h: &Harness, r: A2a) {
        match r {
            A2a::Intel(r) => h.mpi.wait(r),
            A2a::Blues(r) => h.blues.as_ref().expect("blues").wait(r),
            A2a::Prop(g) => {
                let off = h.off.as_ref().expect("off");
                off.ctx()
                    .block_on(off.group_wait(g))
                    .expect("group offload failed")
            }
        }
    }
}

/// Run the P3DFFT skeleton (`iters` forward+backward iterations, no
/// warm-up) and report run time plus the first-forward-phase profile.
pub fn p3dfft(
    nodes: usize,
    ppn: usize,
    grid: (u64, u64, u64),
    iters: u32,
    runtime: Runtime,
    seed: u64,
) -> P3dfftResult {
    let spec = ClusterSpec::new(nodes, ppn).without_byte_movement();
    let out = collector::<P3dfftResult>();
    let out2 = Arc::clone(&out);
    run_workload(spec, seed, runtime, move |h| {
        let p = h.size() as u64;
        let (x, y, z) = grid;
        let cells = x * y * z;
        let block = (cells * ELEM / (p * p)).max(1024);
        let set_a = TransposeSet::new(h, block);
        let set_b = TransposeSet::new(h, block);
        let max_dim = x.max(y).max(z) as f64;
        let phase_compute =
            SimDelta::from_us_f64((cells / p) as f64 * NS_PER_POINT * max_dim.log2() / 1000.0);
        let half = phase_compute.scale(0.5);

        let mut phase_profile: Option<(f64, f64)> = None;
        h.mpi.barrier();
        let t_run = h.ctx().now();
        for iter in 0..iters {
            // Forward and backward transform phases share the loop shape.
            for dirn in 0..2 {
                let t_phase = h.ctx().now();
                let mut mpi_us = 0.0;
                let mut timed = |f: &mut dyn FnMut()| {
                    let t0 = h.ctx().now();
                    f();
                    mpi_us += (h.ctx().now() - t0).as_us_f64();
                };
                let mut r1 = None;
                let mut r2 = None;
                timed(&mut || r1 = Some(set_a.start(h)));
                timed(&mut || r2 = Some(set_b.start(h)));
                h.ctx().compute(half);
                timed(&mut || set_a.wait(h, r1.take().expect("started")));
                h.ctx().compute(half);
                timed(&mut || set_b.wait(h, r2.take().expect("started")));
                if iter == 0 && dirn == 0 {
                    let total = (h.ctx().now() - t_phase).as_us_f64();
                    let mpi_max = h.mpi.allreduce_max_f64(mpi_us);
                    phase_profile = Some((total - mpi_us, mpi_max));
                    let _ = total;
                }
            }
        }
        let total_us = h.elapsed_max_us(t_run);
        if h.rank == 0 {
            let (pc, pm) = phase_profile.expect("first phase profiled");
            collect(
                &out2,
                P3dfftResult {
                    total_us,
                    phase_compute_us: pc,
                    phase_mpi_us: pm,
                },
            );
        }
    });
    take(&out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_beats_blues_without_warmup() {
        // Paper Fig. 16: without warm-up, BluesMPI's cold start makes it
        // the slowest; the proposed framework beats both.
        let intel = p3dfft(2, 2, (64, 64, 128), 2, Runtime::Intel, 21);
        let blues = p3dfft(2, 2, (64, 64, 128), 2, Runtime::blues(), 21);
        let prop = p3dfft(2, 2, (64, 64, 128), 2, Runtime::proposed(), 21);
        assert!(
            prop.total_us < intel.total_us,
            "proposed {} vs intel {}",
            prop.total_us,
            intel.total_us
        );
        assert!(
            blues.total_us > prop.total_us,
            "blues {} should trail proposed {}",
            blues.total_us,
            prop.total_us
        );
        // Fig. 16c shape: BluesMPI spends the most time in MPI in the
        // unwarmed first phase.
        assert!(
            blues.phase_mpi_us > prop.phase_mpi_us,
            "blues phase mpi {} vs proposed {}",
            blues.phase_mpi_us,
            prop.phase_mpi_us
        );
    }
}
