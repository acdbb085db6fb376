//! The mutator/collector engine: a live store behind a session API.
//!
//! Historically the only way to drive the store + collector + rate-policy
//! combination was [`Simulator::replay`] in `odbgc-sim`: a closed loop
//! that consumed a recorded trace. This crate extracts that loop's core
//! into a [`StoreEngine`] that owns the store, the collector, the policy,
//! and the live I/O counters, and exposes a *mutator-facing* operation
//! API — [`Session::create`] / [`Session::access`] /
//! [`Session::overwrite`] / [`Session::add_root`] /
//! [`Session::remove_root`] — so replay becomes one client among many:
//!
//! * the simulator feeds trace events through [`Session::apply_event`]
//!   and stays byte-identical to the pre-split replay loop;
//! * live clients issue typed operations, and GC triggering is driven by
//!   the same [`odbgc_core::RatePolicy`] observations — sourced from the
//!   engine's live counters rather than a replayed trace;
//! * the [`serve`](mod@serve) module runs N sessions against a store sharded by
//!   partition group, each shard collecting inline between turns, under
//!   a seeded deterministic scheduler.
//!
//! The engine does not know about telemetry documents; it reports
//! decisions through the [`EngineObserver`] trait, which the simulator's
//! telemetry sink and the serve mode's [`DecisionLog`] both implement.
//!
//! [`Simulator::replay`]: https://docs.rs/odbgc-sim

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod metrics;
pub mod observer;
pub mod result;
pub mod series;
pub mod serve;
pub mod session;

pub use config::EngineConfig;
pub use engine::{CollectMode, EventReport, StoreEngine};
pub use metrics::RunMetrics;
pub use observer::{CounterSnapshot, DecisionLog, DecisionRecord, EngineObserver};
pub use result::RunResult;
pub use series::CollectionRecord;
pub use serve::{
    apply_ops, serve, serve_replay, GcFault, ObjRef, ServeConfig, ServeError, ServeErrorKind,
    ServeOutcome, ServeReplayError, SessionObjects, SessionOp, SessionWorkload, Shard,
    ShardOutcome, TurnApplied, TurnError, TurnErrorKind, WorkloadParams,
};
pub use session::{
    Accessed, Created, OpError, Overwrote, RootAdded, RootRemoved, Session, SessionId,
};
