//! `qoserve-trace` — deterministic iteration-level decision tracing.
//!
//! The QoServe reproduction's headline claims are *decision* claims:
//! dynamic chunking grows the prefill chunk into decode slack, hybrid
//! EDF↔SRPF prioritization reorders the queue, eager relegation demotes
//! about-to-miss requests, and the resilience layer rejects, diverts, and
//! re-dispatches work. Aggregate reports (`qoserve-metrics`) say *what*
//! happened; this crate records *why*: a closed [`TraceEvent`] enum over
//! the decision surface, stamped with simulated time and replica/request
//! ids, captured through a [`Tracer`] handle threaded into the scheduler,
//! engine, chunk-budget search, admission gate, circuit breakers, and the
//! recovery orchestrator.
//!
//! # Determinism contract
//!
//! Traces inherit the repo-wide replay contract:
//!
//! * events are stamped with [`SimTime`](qoserve_sim::SimTime) only —
//!   never wall clock (the `nondeterministic-time` lint applies here);
//! * every record carries a per-replica sequence number assigned in
//!   program order, and exports emit records in the canonical
//!   `(time_us, replica, seq)` order, so the serialized trace is
//!   byte-identical regardless of how replica threads interleave;
//! * the bounded [`RingSink`] keeps an *independent* ring per replica,
//!   so which events are evicted under overflow is a pure function of the
//!   per-replica event streams, not of thread scheduling.
//!
//! # Overhead model
//!
//! A disabled [`Tracer`] is a `None` check per call site: no lock, no
//! allocation, no formatting — instrumented hot paths cost one branch.
//! An enabled tracer takes its replica's own lane lock per event (no
//! other thread touches that lane between barriers) and appends the
//! stamped record to the lane's buffer; the sink lock is taken once per
//! delivery of a full lane, a [`Tracer::flush`] or a read, and a full
//! lane that finds the sink busy keeps buffering rather than wait.
//! [`RingSink`] pre-allocates each replica's ring on that replica's first
//! record and never allocates per record afterwards (records are `Copy`);
//! each lane allocates its buffer once, when it is created.

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

pub mod event;
pub mod export;
pub mod observe;
pub mod sink;
pub mod tracer;

pub use event::{
    canonical_sort, BreakerPhase, FaultKind, RelegationReason, ScaleDirection, TraceEvent,
    TraceRecord, RELEGATED_TIER,
};
pub use export::{from_jsonl, to_chrome_trace, to_jsonl, ParsedTrace};
pub use observe::ControlObserver;
pub use sink::{NullSink, RingSink, TraceSink, VecSink};
pub use tracer::Tracer;
