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

use rdma::ClusterSpec;
use simnet::{SimDelta, SimTime};

use crate::harness::{collect, collector, run_workload, take, Collective, Persistent, Runtime};

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

/// Run the P3DFFT skeleton (`iters` forward+backward iterations, no
/// warm-up) and report run time plus the first-forward-phase profile.
pub fn p3dfft(
    nodes: usize,
    ppn: usize,
    grid: (u64, u64, u64),
    iters: u32,
    runtime: Runtime,
) -> P3dfftResult {
    let spec = ClusterSpec::new(nodes, ppn).without_byte_movement();
    let out = collector::<P3dfftResult>();
    let out2 = Arc::clone(&out);
    run_workload(spec, runtime, async move |h| {
        let p = h.size() as u64;
        let (x, y, z) = grid;
        let cells = x * y * z;
        let block = (cells * ELEM / (p * p)).max(1024);
        let set_a = Persistent::new(h, Collective::Alltoall, block);
        let set_b = Persistent::new(h, Collective::Alltoall, block);
        let max_dim = x.max(y).max(z) as f64;
        let phase_compute =
            SimDelta::from_us_f64((cells / p) as f64 * NS_PER_POINT * max_dim.log2() / 1000.0);
        let half = phase_compute.scale(0.5);

        let mut phase_profile: Option<(f64, f64)> = None;
        h.mpi.barrier().await;
        let t_run = h.ctx().now();
        for iter in 0..iters {
            // Forward and backward transform phases share the loop shape.
            for dirn in 0..2 {
                let t_phase = h.ctx().now();
                let since = |t0: SimTime| (h.ctx().now() - t0).as_us_f64();
                let mut mpi_us = 0.0;
                let t0 = h.ctx().now();
                let r1 = set_a.start(h).await;
                mpi_us += since(t0);
                let t0 = h.ctx().now();
                let r2 = set_b.start(h).await;
                mpi_us += since(t0);
                h.ctx().compute_async(half).await;
                let t0 = h.ctx().now();
                h.wait(r1).await;
                mpi_us += since(t0);
                h.ctx().compute_async(half).await;
                let t0 = h.ctx().now();
                h.wait(r2).await;
                mpi_us += since(t0);
                if iter == 0 && dirn == 0 {
                    let total = (h.ctx().now() - t_phase).as_us_f64();
                    let mpi_max = h.mpi.allreduce_max_f64(mpi_us).await;
                    phase_profile = Some((total - mpi_us, mpi_max));
                }
            }
        }
        let total_us = h.elapsed_max_us(t_run).await;
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
        let intel = p3dfft(2, 2, (64, 64, 128), 2, Runtime::Intel);
        let blues = p3dfft(2, 2, (64, 64, 128), 2, Runtime::Blues);
        let prop = p3dfft(2, 2, (64, 64, 128), 2, Runtime::proposed());
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
