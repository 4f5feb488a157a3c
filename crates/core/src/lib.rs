//! # scan-platform — the SCAN platform
//!
//! The integration crate: Data Broker + Scheduler + Workers (Fig. 2/3)
//! wired onto the discrete-event kernel, driving the simulated hybrid
//! cloud through full evaluation sessions.
//!
//! * [`config`] — Table III's fixed parameters, Table I's variable
//!   parameters, and the full parameter grid.
//! * [`broker`] — the Data Broker: knowledge-base bootstrap from profiling
//!   traces, learned pipeline models, chunk advice and dataset/shard
//!   registration against the shared store.
//! * [`platform`] — the event-driven world: arrivals → admission →
//!   per-class queues → scaling decisions → worker execution → stage
//!   advancement → reward, exactly the loop of §III-A.2.
//! * [`metrics`] — per-session metrics (profit per run, reward-to-cost,
//!   latency, utilisation) and replicated mean ± σ aggregates.
//! * [`observers`] — domain-level trace observers: the [`DecisionStats`]
//!   counting observer folding scaling decisions, queue depths and tier
//!   settlements into per-cell statistics.
//! * [`session`] — one seeded simulation run with an observer attached;
//!   [`sweep`] — rayon-parallel replication and parameter grids, with
//!   per-session observers built through the `Send`-capable factory
//!   bridge.
//! * [`fleet`] — multi-tenant fleets: M platforms on one shared provider
//!   pool (finite private capacity, contention-surged public pricing,
//!   fair-share admission), multiplexed deterministically over a single
//!   tenant-tagged calendar, with whole-fleet replications sharded
//!   across cores.
//! * [`instrument`] — the default series window for sessions with a
//!   [`scan_metrics`] registry attached.
//!
//! # Running
//!
//! One driver per run shape:
//!
//! | shape                | driver                                          |
//! |----------------------|-------------------------------------------------|
//! | one session          | [`Platform::new`] → [`Platform::add_observer`] / [`Platform::set_metrics`] → [`Platform::run`] |
//! | one observed session | [`run_session_with`]                            |
//! | mean ± σ of a config | [`run_replicated`] (one cell of [`sweep_grid_with`]) |
//! | many sessions        | [`sweep_grid_with`]                             |
//! | one fleet            | [`run_fleet_with`]                              |
//! | replicated fleets    | [`run_fleet_replicated_with`]                   |
//!
//! The observed drivers take an [`ObserverFactory`](scan_sim::ObserverFactory);
//! pass [`NullObserverFactory`](scan_sim::NullObserverFactory) for none.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod config;
pub mod fleet;
pub mod instrument;
pub mod metrics;
pub mod observers;
pub mod platform;
pub mod session;
pub mod sweep;

pub use broker::DataBroker;
pub use config::{FixedParams, ParameterGrid, ScanConfig, VariableParams};
pub use fleet::{run_fleet_replicated_with, run_fleet_with, FleetConfig, FleetMetrics};
pub use metrics::{ReplicatedMetrics, SessionMetrics};
pub use observers::{DecisionStats, DecisionStatsFactory};
pub use platform::Platform;
pub use session::run_session_with;
pub use sweep::{run_replicated, sweep_grid_with, ObservedCell};
