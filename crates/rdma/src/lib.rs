//! # rdma — a verbs-like layer over the simulated cluster
//!
//! This crate models what the paper's framework gets from InfiniBand verbs
//! and the BlueField DOCA stack:
//!
//! * **Memory**: per-endpoint [`AddressSpace`]s with real byte storage, so
//!   transfers are verifiable end-to-end.
//! * **Registration**: `ibv_reg_mr`-style keys ([`Fabric::reg_mr`]), GVMI
//!   `mkey`s ([`Fabric::reg_mr_gvmi`]) and DPU cross-registered `mkey2`s
//!   ([`Fabric::cross_reg`]) with the same validity rules the paper's
//!   mechanism relies on (paper §V).
//! * **Data movement**: RDMA WRITE/READ and two-sided packets routed over a
//!   performance model of host HCAs, DPU ports, PCIe and the switch fabric
//!   ([`NicModel`]).
//! * **Cluster construction**: [`ClusterBuilder`] spawns one process per
//!   rank plus optional DPU proxies and hands everyone the roster.
//!
//! The calibration in [`NicModel::bluefield2`] reproduces the first-order
//! effects of the paper's testbed: DPU ARM cores inject messages at roughly
//! half the host rate (paper Figs. 2–3), staging costs an extra PCIe
//! store-and-forward hop (Figs. 4, 6), and registration cost grows with
//! buffer size (Fig. 5).

#![warn(missing_docs)]

mod cluster;
mod fabric;
mod inbox;
mod mem;
mod model;
mod types;

pub use cluster::{ClusterBuilder, ClusterCtx, NO_PROXIES};
pub use fabric::{Fabric, PayloadFaultPlan};
pub use inbox::{Channel, Inbox};
pub use mem::{crc32, AddressSpace, MemError, VAddr, PAGE_SIZE};
pub use model::{ClusterSpec, DeviceClass, NicModel};
pub use types::{Cqe, EpId, GvmiId, MrKey, NetMsg, Packet, RdmaError};
