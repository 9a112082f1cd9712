//! # summa-serve — a multi-tenant reasoning service
//!
//! Serves the `summa_dl` / `summa_core` reasoning surface over a
//! length-prefixed, versioned binary TCP protocol: `ping`, `subsumes`,
//! `classify`, `realize`, `admit`, `critique` and `load_snapshot`
//! (snapshot hot-swap), plus `stats` and `telemetry` scrapes. Every
//! response carries the request's deterministic
//! [`summa_guard::Spend`] and a trace handle.
//!
//! The service is built from four layers:
//!
//! * [`wire`] — the protocol: framing, request/response codecs, typed
//!   protocol errors, typed overload rejections.
//! * [`snapshot`] — epoch-versioned ontology snapshots; hot-swap never
//!   blocks in-flight queries (old generations stay alive via `Arc`).
//! * the queue workers — `threads` persistent threads, each popping one
//!   admitted request off the bounded queue and running it to its
//!   answer, so a long request holds one worker, not the server. Each
//!   request runs under its own private budget, tableau, and cache
//!   ([`ops::execute`]), so a served answer is byte-identical to a
//!   direct library call whichever worker runs it.
//! * [`server`] — one admission path for every request but a scrape,
//!   snapshot loads included (bounded queue, per-tenant in-flight caps
//!   and step quotas, kept on one record per tenant; overload is a
//!   *typed response*, never a disconnect), and graceful drain with
//!   exact accounting (`accepted == completed`, always).
//!
//! A fifth, passive layer — [`telemetry`] — holds every server count
//! in its registry (so [`server::ServeStats`] and a scrape read the
//! same counters), decomposes every served request into phase
//! histograms (queue-wait / pick-up / execute / serialize) keyed by
//! op and tenant, samples the queue-depth and in-flight gauges into
//! time-series rings, and tail-samples slow or errored requests into
//! a bounded slow-query log. It is scraped over the wire via the versioned
//! `Telemetry` op (Prometheus-style text or a Chrome-trace dump of the
//! slow log) and never alters response bytes; disabled, its recording
//! costs one relaxed atomic load per request.
//!
//! Chaos coverage rides through the existing `summa_guard` fault
//! plane: the server exposes `serve.accept` (per connection) and
//! `serve.batch` (per admitted request, snapshot loads included, at a
//! worker's pick-up) fault sites on its pool budget, and each request
//! budget can arm a deterministic per-request plan (used by the
//! conformance suite).
//!
//! No dependencies beyond the workspace.

pub mod client;
pub mod ops;
pub mod server;
pub mod snapshot;
pub mod telemetry;
pub mod wire;

pub(crate) mod worker;

pub mod prelude {
    pub use crate::client::Client;
    pub use crate::server::{ServeStats, Server, ServerConfig};
    pub use crate::snapshot::{parse_tbox, Snapshot, SnapshotStore};
    pub use crate::telemetry::{SlowTrigger, TelemetryConfig, TelemetryPlane};
    pub use crate::wire::{
        Envelope, OkBody, Op, Overload, Payload, ProtoError, Request, Response, OUTCOME_CANCELLED,
        OUTCOME_COMPLETED, OUTCOME_EXHAUSTED, STATUS_ENGINE_ERROR, STATUS_OK, STATUS_OVERLOADED,
        STATUS_PROTOCOL_ERROR, TELEMETRY_FORMAT_CHROME_SLOWLOG, TELEMETRY_FORMAT_PROMETHEUS,
    };
}
