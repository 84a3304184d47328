//! The pinned workloads and the metric name lists.
//!
//! Shapes never depend on the seed: `--seed` feeds `CheckRun.seed`,
//! `FaultPlan.seed` and `ScaleSpec.seed` only, so the work done per
//! sample is the same across seeds and runs compare.

use offload::{FaultPlan, HealthConfig, TenantSpec};
use workloads::{CheckRun, ScaleSpec};

/// What a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `drive_stencil` over the Basic primitives (gate: the verified twin).
    Stencil,
    /// `drive_verified_stencil`: the same exchange with pattern fill/verify.
    VerifiedStencil,
    /// `drive_alltoall` over the Group primitives.
    Alltoall,
    /// `workloads::scale_alltoall`: bare simnet, no `rdma`, no `core`.
    Scale,
}

/// One pinned workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    pub nodes: usize,
    pub ppn: usize,
    pub proxies: usize,
    /// Face bytes (stencil) or block bytes (alltoall); unused by `Scale`.
    pub bytes: u64,
    /// Rounds (stencil), calls (alltoall) or iterations (scale) of a full-size sample.
    pub rounds: u64,
    /// `FaultPlan::parse` text; empty = clean.
    pub plan: &'static str,
    /// Health engine armed, `queue_cap = 8`, two tenants.
    pub armed: bool,
    /// Metrics, lifecycle, flight and conformance sinks fanned out on every sample.
    pub observed: bool,
}

const BASIC_SHORT: Workload = Workload {
    name: "basic_short",
    why: "2x2 ranks, 256 B faces, 500 rounds: per-message constant cost of the ctrl plane plus baton hand-offs",
    kind: Kind::Stencil,
    nodes: 2,
    ppn: 2,
    proxies: 1,
    bytes: 256,
    rounds: 500,
    plan: "",
    armed: false,
    observed: false,
};

pub const WORKLOADS: [Workload; 7] = [
    BASIC_SHORT,
    Workload {
        name: "basic_long",
        why: "same shape, 2000 rounds (8000 requests per rank): shows state that grows or is rescanned per request",
        rounds: 2000,
        ..BASIC_SHORT
    },
    Workload {
        name: "bulk_crc",
        why: "1 MiB faces, 4 rounds, flip_pm=5 arms CRC: bytes not messages, so crc32, copies and pattern fill/verify do the work",
        kind: Kind::VerifiedStencil,
        bytes: 1 << 20,
        rounds: 4,
        plan: "flip=5",
        ..BASIC_SHORT
    },
    Workload {
        name: "group_a2a",
        why: "4x4 ranks, 2 proxies/DPU, 4 KiB blocks, 40 calls: group cache replay with the host asleep; proxies and fabric do the work",
        kind: Kind::Alltoall,
        nodes: 4,
        ppn: 4,
        proxies: 2,
        bytes: 4096,
        rounds: 40,
        ..BASIC_SHORT
    },
    Workload {
        name: "chaos_armed",
        why: "4 KiB faces, 300 rounds, every fault class, health engine, queue_cap=8, two tenants: every off-by-default branch on",
        kind: Kind::VerifiedStencil,
        proxies: 2,
        bytes: 4096,
        rounds: 300,
        plan: "drop=30,dup=20,delay=20:5000,xreg=50,flip=5,torn=5,ddrop=3",
        armed: true,
        ..BASIC_SHORT
    },
    Workload {
        name: "observed",
        why: "basic_short with metrics, lifecycle, flight and conformance sinks fanned out: the observer path as a layer",
        observed: true,
        ..BASIC_SHORT
    },
    Workload {
        name: "simnet_scale",
        why: "scale_alltoall 16x16 ranks, 1 iteration, bare simnet: bypass workload for every protocol optimisation",
        kind: Kind::Scale,
        nodes: 16,
        ppn: 16,
        proxies: 0,
        bytes: 0,
        rounds: 1,
        ..BASIC_SHORT
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn ranks(&self) -> u64 {
        (self.nodes * self.ppn) as u64
    }

    /// Application transfers a sample of `rounds` completes, from the
    /// shape alone (no ctrl messages, acks or retransmits).
    pub fn msgs(&self, rounds: u64) -> u64 {
        let p = self.ranks();
        match self.kind {
            // Each rank sends one face right and one left per round.
            Kind::Stencil | Kind::VerifiedStencil => p * 2 * rounds,
            // One alltoall plus one ring allgather per call, p-1 blocks per rank each.
            Kind::Alltoall => p * (p - 1) * 2 * rounds,
            Kind::Scale => p * (p - 1) * rounds,
        }
    }

    /// The deepest layer a sample enters (the `layer` of its harness span).
    pub fn layer(&self) -> &'static str {
        match self.kind {
            Kind::Scale => "simnet",
            _ => "core",
        }
    }

    /// Whether the fault plan is empty, so `rdma.write.count` must equal
    /// [`Workload::msgs`] and no armed-path counter may move.
    pub fn clean(&self) -> bool {
        self.plan.is_empty() && !self.armed
    }

    pub fn fault_plan(&self, seed: u64) -> FaultPlan {
        FaultPlan::parse(self.plan)
            .expect("workload fault plans are literals")
            .with_seed(seed)
    }

    /// The `CheckRun` of a protocol workload (everything but `Scale`).
    pub fn check_run(&self, seed: u64) -> CheckRun {
        let mut run = CheckRun::baseline(seed);
        run.nodes = self.nodes;
        run.ppn = self.ppn;
        run.proxies_per_dpu = self.proxies;
        run.move_bytes = true;
        run.threads = Some(1);
        run.cfg = run.cfg.with_fault(self.fault_plan(seed));
        if self.armed {
            run.cfg = run
                .cfg
                .with_health(HealthConfig::armed())
                .with_queue_cap(8)
                .with_tenants(vec![TenantSpec::inherit(), TenantSpec::inherit()]);
        }
        run
    }

    pub fn scale_spec(&self, seed: u64, iters: u64) -> ScaleSpec {
        ScaleSpec {
            nodes: self.nodes,
            ppn: self.ppn,
            iters: iters as u32,
            seed,
            threads: 1,
        }
    }
}

/// End-to-end metrics of an untraced run as `(name, unit)`, in table
/// order. The first [`GATED`] are the `end_to_end` list of
/// `BENCHMARK.json`. The others cannot be gated under the driver's
/// contract: the simulated-time ones read the same on every run of a
/// seed, and `fail_share` is 0 on a healthy tree.
pub const E2E: [(&str, &str); 6] = [
    ("msgs_per_sec", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("virt_us_per_round", "sim_us"),
    ("host_interventions_per_msg", "count"),
    ("fail_share", "share"),
];
pub const GATED: usize = 3;

/// Armed-path counters: `(metric, stats counter)`. All zero on a clean workload.
pub const ARMED: [(&str, &str); 8] = [
    ("core.reliable.retransmits", "offload.reliable.retransmits"),
    (
        "core.reliable.dups_dropped",
        "offload.reliable.dups_dropped",
    ),
    ("core.integrity.corrupt", "offload.integrity.corrupt"),
    (
        "core.integrity.retransmits",
        "offload.integrity.retransmits",
    ),
    ("core.fallback_staging", "offload.fallback.staging"),
    ("core.credit_deferrals", "offload.credit.deferrals"),
    ("core.health.breaker_trips", "offload.health.breaker_trips"),
    ("core.health.fastpaths", "offload.health.fastpaths"),
];
