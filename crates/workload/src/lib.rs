//! Workload substrate for the QoServe reproduction.
//!
//! The paper evaluates on ShareGPT and two Azure production traces with
//! Poisson arrivals, split into three QoS tiers (Tables 2 and 3). The real
//! traces are not redistributable, so this crate synthesises statistically
//! equivalent workloads: per-dataset prompt/decode token distributions are
//! log-normals fitted to the published p50/p90 values, arrivals come from
//! Poisson or diurnal square-wave processes, and tier/priority tagging
//! follows the paper's composition rules.
//!
//! * [`qos`] — QoS classes, SLOs, tiers, and the deadline equations
//!   (Eq. 1–3 of §3.2).
//! * [`request`] — [`RequestSpec`], one request of a trace.
//! * [`dataset`] — token-length samplers for ShareGPT / Azure-Conv /
//!   Azure-Code plus custom datasets.
//! * [`arrivals`] — Poisson, diurnal square-wave (Fig. 12), and fixed-rate
//!   arrival processes.
//! * [`trace`] — [`TraceBuilder`]: dataset × arrivals × tier mix × priority
//!   tagging → a reproducible [`Trace`].
//!
//! # Example
//!
//! ```
//! use qoserve_sim::SeedStream;
//! use qoserve_workload::{ArrivalProcess, Dataset, TraceBuilder};
//!
//! let trace = TraceBuilder::new(Dataset::azure_code())
//!     .arrivals(ArrivalProcess::poisson(3.0))
//!     .num_requests(100)
//!     .paper_tier_mix()
//!     .build(&SeedStream::new(7));
//! assert_eq!(trace.len(), 100);
//! ```

// Library code returns errors and data; the bins own panics and the
// console.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro,
    )
)]

pub mod arrivals;
pub mod dataset;
pub mod qos;
pub mod request;
pub mod trace;

pub use arrivals::ArrivalProcess;
pub use dataset::{Dataset, LengthProfile};
pub use qos::{Priority, QosClass, QosTier, Slo, TierId};
pub use request::{RequestId, RequestSpec};
pub use trace::{TierMix, Trace, TraceBuilder};
