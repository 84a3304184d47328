//! Performance model of the simulated cluster.
//!
//! All knobs live in [`NicModel`]; [`ClusterSpec`] adds the shape of the
//! cluster (nodes, processes per node, proxies per DPU). The defaults are
//! calibrated so that the *relative* effects the paper measures appear with
//! roughly the paper's magnitudes:
//!
//! - DPU ARM cores post and handle messages ~2.2× slower than host cores
//!   (paper Fig. 2/3: near-equal latency, ≈½ small-message bandwidth).
//! - Staging adds a PCIe store-and-forward hop (paper Figs. 4 and 6).
//! - Memory registration costs grow with buffer size (paper Fig. 5).

use simnet::SimDelta;

use crate::mem::{AddressSpace, VAddr};

/// Whether an endpoint runs on the host CPU or on the DPU's ARM cores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceClass {
    /// Host Xeon core, served by the node's ConnectX HCA.
    Host,
    /// BlueField ARM core, served by the DPU's own port.
    Dpu,
}

/// Tunable performance parameters. Times are virtual; bandwidths are in
/// bytes per second of virtual time.
#[derive(Clone, Debug)]
pub struct NicModel {
    /// CPU time for a host core to post one work request.
    pub host_post: SimDelta,
    /// CPU time for a DPU ARM core to post one work request.
    pub dpu_post: SimDelta,
    /// Per-message receive-side handling charged on the host NIC.
    pub host_rx_overhead: SimDelta,
    /// Per-message receive-side handling charged on the DPU NIC (ARM-driven,
    /// hence larger: this halves small-message bandwidth into the DPU).
    pub dpu_rx_overhead: SimDelta,
    /// One-way wire + switch latency between any two nodes.
    pub wire_latency: SimDelta,
    /// Network port bandwidth (HDR-class).
    pub net_bandwidth: u64,
    /// Extra latency when the NIC must DMA the payload across PCIe (GVMI
    /// reads of host memory, staging writes into DPU memory).
    pub pcie_latency: SimDelta,
    /// PCIe bandwidth between host memory and the DPU.
    pub pcie_bandwidth: u64,
    /// Bandwidth of the DPU's own DRAM (BlueField-2's DDR4 is far slower
    /// than host memory). Any transfer whose payload is read from or
    /// written into DPU memory — i.e. both hops of the staging path — is
    /// clamped to this; cross-GVMI transfers source host memory and are
    /// not.
    pub dpu_mem_bandwidth: u64,
    /// Latency of an intra-node host-to-host (shared memory) transfer.
    pub shm_latency: SimDelta,
    /// Bandwidth of intra-node host-to-host copies.
    pub shm_bandwidth: u64,
    /// Fixed cost of an `ibv_reg_mr`-style registration on the host.
    pub reg_base: SimDelta,
    /// Additional registration cost per 4 KiB page on the host.
    pub reg_per_page: SimDelta,
    /// Fixed cost of a cross-GVMI registration on the DPU.
    pub cross_reg_base: SimDelta,
    /// Additional cross-registration cost per 4 KiB page on the DPU.
    pub cross_reg_per_page: SimDelta,
    /// Completion (ack) latency back to the poster after delivery.
    pub ack_latency: SimDelta,
}

impl NicModel {
    /// Calibration for the paper's testbed class: ConnectX-6 HCA +
    /// BlueField-2 DPU per node, HDR InfiniBand.
    pub fn bluefield2() -> Self {
        NicModel {
            host_post: SimDelta::from_ns(150),
            dpu_post: SimDelta::from_ns(330),
            host_rx_overhead: SimDelta::from_ns(30),
            dpu_rx_overhead: SimDelta::from_ns(230),
            wire_latency: SimDelta::from_ns(800),
            net_bandwidth: 24_000_000_000,
            pcie_latency: SimDelta::from_ns(500),
            pcie_bandwidth: 22_000_000_000,
            dpu_mem_bandwidth: 14_000_000_000,
            shm_latency: SimDelta::from_ns(250),
            shm_bandwidth: 38_000_000_000,
            reg_base: SimDelta::from_ns(1_500),
            reg_per_page: SimDelta::from_ns(30),
            cross_reg_base: SimDelta::from_ns(2_100),
            cross_reg_per_page: SimDelta::from_ns(40),
            ack_latency: SimDelta::from_ns(800),
        }
    }

    /// Projection for the paper's stated future work: BlueField-3 with
    /// NDR InfiniBand. Roughly 2× faster ARM cores (Cortex-A78 vs A72),
    /// 400 Gb/s ports, PCIe Gen5 and DDR5 on the DPU.
    pub fn bluefield3() -> Self {
        NicModel {
            host_post: SimDelta::from_ns(150),
            dpu_post: SimDelta::from_ns(180),
            host_rx_overhead: SimDelta::from_ns(30),
            dpu_rx_overhead: SimDelta::from_ns(110),
            wire_latency: SimDelta::from_ns(700),
            net_bandwidth: 48_000_000_000,
            pcie_latency: SimDelta::from_ns(450),
            pcie_bandwidth: 50_000_000_000,
            dpu_mem_bandwidth: 34_000_000_000,
            shm_latency: SimDelta::from_ns(250),
            shm_bandwidth: 38_000_000_000,
            reg_base: SimDelta::from_ns(1_300),
            reg_per_page: SimDelta::from_ns(25),
            cross_reg_base: SimDelta::from_ns(1_600),
            cross_reg_per_page: SimDelta::from_ns(28),
            ack_latency: SimDelta::from_ns(700),
        }
    }

    /// Posting overhead for a device class.
    pub fn post_overhead(&self, class: DeviceClass) -> SimDelta {
        match class {
            DeviceClass::Host => self.host_post,
            DeviceClass::Dpu => self.dpu_post,
        }
    }

    /// Receive-side per-message overhead for a device class.
    pub fn rx_overhead(&self, class: DeviceClass) -> SimDelta {
        match class {
            DeviceClass::Host => self.host_rx_overhead,
            DeviceClass::Dpu => self.dpu_rx_overhead,
        }
    }

    /// Host registration cost for a buffer.
    pub fn reg_cost(&self, addr: VAddr, len: u64) -> SimDelta {
        self.reg_base + self.reg_per_page * AddressSpace::pages_spanned(addr, len)
    }

    /// DPU cross-registration cost for a buffer.
    pub fn cross_reg_cost(&self, addr: VAddr, len: u64) -> SimDelta {
        self.cross_reg_base + self.cross_reg_per_page * AddressSpace::pages_spanned(addr, len)
    }
}

impl Default for NicModel {
    fn default() -> Self {
        NicModel::bluefield2()
    }
}

/// Shape of the simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Host processes (MPI ranks) per node.
    pub ppn: usize,
    /// Proxy/worker processes per DPU.
    pub proxies_per_dpu: usize,
    /// Performance parameters.
    pub model: NicModel,
    /// Whether transfers move actual bytes between address spaces.
    /// Integrity tests keep this on (the default); large-scale benchmark
    /// runs turn it off to avoid gigabytes of host-side memcpy while the
    /// timing model stays identical.
    pub move_bytes: bool,
}

impl ClusterSpec {
    /// A cluster of `nodes` × `ppn` ranks with the default model and one
    /// proxy per DPU for every 8 host ranks (minimum 1).
    pub fn new(nodes: usize, ppn: usize) -> Self {
        assert!(nodes > 0 && ppn > 0, "cluster must have at least one rank");
        ClusterSpec {
            nodes,
            ppn,
            proxies_per_dpu: (ppn / 8).max(1),
            model: NicModel::default(),
            move_bytes: true,
        }
    }

    /// Disable actual byte movement (timing-only runs).
    pub fn without_byte_movement(mut self) -> Self {
        self.move_bytes = false;
        self
    }

    /// Override the number of proxies per DPU.
    pub fn with_proxies(mut self, proxies: usize) -> Self {
        assert!(proxies > 0, "need at least one proxy per DPU");
        self.proxies_per_dpu = proxies;
        self
    }

    /// Override the performance model.
    pub fn with_model(mut self, model: NicModel) -> Self {
        self.model = model;
        self
    }

    /// Total number of host ranks.
    pub fn world_size(&self) -> usize {
        self.nodes * self.ppn
    }

    /// Node that hosts `rank`.
    pub fn node_of_rank(&self, rank: usize) -> usize {
        rank / self.ppn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let m = NicModel::default();
        assert!(m.dpu_post > m.host_post, "ARM posts slower than host");
        assert!(m.dpu_rx_overhead > m.host_rx_overhead);
        assert!(m.net_bandwidth > 0 && m.pcie_bandwidth > 0);
    }

    #[test]
    fn reg_cost_grows_with_size() {
        let m = NicModel::default();
        let small = m.reg_cost(VAddr(0), 4096);
        let large = m.reg_cost(VAddr(0), 1 << 20);
        assert!(large > small);
        // 1 MiB = 256 pages.
        assert_eq!(large, m.reg_base + m.reg_per_page * 256);
    }

    #[test]
    fn cross_reg_is_costlier_than_host_reg() {
        let m = NicModel::default();
        assert!(m.cross_reg_cost(VAddr(0), 65536) > m.reg_cost(VAddr(0), 65536));
    }

    #[test]
    fn cluster_rank_mapping() {
        let spec = ClusterSpec::new(4, 8);
        assert_eq!(spec.world_size(), 32);
        assert_eq!(spec.node_of_rank(0), 0);
        assert_eq!(spec.node_of_rank(7), 0);
        assert_eq!(spec.node_of_rank(8), 1);
        assert_eq!(spec.proxies_per_dpu, 1);
        assert_eq!(ClusterSpec::new(2, 32).proxies_per_dpu, 4);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_nodes_rejected() {
        let _ = ClusterSpec::new(0, 4);
    }
}
