//! # btr-serve — the multi-session inference service
//!
//! The scale-out layer over the batched pipelined driver: a pool of
//! independent accelerator sessions (one mesh + one
//! [`btr_accel::InferenceSession`] each) drains a bounded MPMC request
//! queue, coalescing up to `batch_size` queued requests into each
//! dispatch. The per-inference reproduction measures bit transitions per
//! inference; this crate measures them per *fleet* under sustained
//! concurrent load — aggregate inferences/sec, per-session and
//! fleet-wide transitions, codec/index overhead totals, and queue-depth
//! / latency histograms.
//!
//! Structure:
//!
//! * [`queue`] — the bounded MPMC queue with batch-coalescing pop and a
//!   bounded-wait flush (tail latency capped in dispatch-loop poll
//!   cycles, not an open-ended wall-clock timer).
//! * [`service`] — the session pool: worker threads, dispatch loop,
//!   aggregate [`ServeReport`].
//! * [`load`] — the deterministic synthetic client.
//! * [`metrics`] — log-linear [`Histogram`]s.
//!
//! The `btr-serve` binary and the `bench_serve` harness (both in
//! `crates/experiments`) are thin front-ends over [`serve`]; the
//! serve-vs-sequential output parity is pinned by `tests/serve_parity.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod metrics;
pub mod queue;
pub mod service;

pub use load::{synthetic_requests, Request};
pub use metrics::Histogram;
pub use queue::BoundedQueue;
pub use service::{serve, ServeConfig, ServeError, ServeReport, SessionReport};
