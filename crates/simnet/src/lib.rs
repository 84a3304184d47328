//! # simnet — deterministic discrete-event simulation engine
//!
//! `simnet` is the substrate under the whole repository: a sequential,
//! bit-for-bit reproducible discrete-event simulator with a virtual clock
//! in integer picoseconds, run by one loop on the thread that calls
//! [`Simulation::run`]. Every "process" is a future the scheduler polls
//! on that thread. Its body is an `async` block
//! ([`Simulation::spawn_future`]), which is what every process of a
//! simulated cluster and every rank of the scale workloads is, or an
//! ordinary Rust closure on a dedicated OS thread ([`Simulation::spawn`]):
//! a poll wakes that thread and parks the scheduler's thread until the
//! closure blocks or ends, so at most one thread executes at a time and
//! simulated code can use natural blocking control flow (the engine's own
//! kernel tests and the thread-hand-off rungs of the protocol benchmark).
//!
//! The crates above this one model an HPC cluster: `rdma` adds verbs-style
//! NICs, memory registration and GVMI keys; `minimpi` adds an MPI-like
//! library; the `offload` crate implements the paper's DPU offload
//! framework.
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Simulation, SimDelta};
//!
//! let mut sim = Simulation::new(1);
//! let rx = sim.spawn_future("receiver", async |ctx| {
//!     let msg = ctx.recv_async().await;
//!     assert_eq!(*msg.downcast::<&str>().unwrap(), "ping");
//! });
//! sim.spawn_future("sender", async move |ctx| {
//!     ctx.compute_async(SimDelta::from_us(2)).await;
//!     ctx.deliver(rx, SimDelta::from_ns(900), Box::new("ping"));
//! });
//! let report = sim.run().unwrap();
//! assert_eq!(report.end_time.as_ns_f64(), 2_900.0);
//! ```

#![warn(missing_docs)]

mod emit;
mod event;
mod process;
mod resource;
mod rng;
mod sim;
mod stats;
mod time;
mod trace;

pub use emit::{deliver_batched, Emitted, EventSink, EMIT_BATCH};
pub use process::{BlockReason, Payload, Pid, ProcStatus};
pub use resource::ResourceId;
pub use rng::SimRng;
pub use sim::{OpenSpan, ProcReport, ProcessCtx, Report, SimError, Simulation, SIMNET_THREADS_ENV};
pub use stats::{StatKey, Stats};
pub use time::{SimDelta, SimTime};
pub use trace::{SpanRecord, Trace, TraceRecord};
