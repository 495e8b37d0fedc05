//! `katara-serve`: a fault-tolerant, long-lived cleaning daemon.
//!
//! The batch pipeline in `katara-core` assumes a patient caller: it
//! loads a KB, resolves a table, and runs to completion however long
//! that takes. This crate wraps the same pipeline in a service that
//! assumes the opposite — impatient callers, hostile input, and a
//! process that must stay up:
//!
//! * **HTTP over `std::net`** — a hand-rolled HTTP/1.1 server
//!   ([`http`]) with hard caps on request-line, header, and body sizes,
//!   read timeouts, and a slowloris wall-clock cutoff. Zero
//!   dependencies, like the rest of the workspace.
//! * **Deadlines** ([`katara_exec::Deadline`], re-exported through
//!   `katara_core::prelude`) — each request can carry `deadline_ms`;
//!   the pipeline cancels cooperatively at phase boundaries and returns
//!   a partial, honestly-labelled `206` instead of hanging.
//! * **Admission control** ([`server`]) — a bounded in-flight counter;
//!   excess requests shed immediately with `429` + `Retry-After`.
//! * **Graceful degradation** — malformed input is quarantined with
//!   `400`, budget/deadline exhaustion yields partial reports, and
//!   SIGTERM drains in-flight work before exit.
//! * **Warm state** — the KB loads once; `TableResolution` snapshots
//!   are cached across requests keyed by the request body and the KB
//!   version, and `/delta` sessions by a key the daemon assigns.
//! * **Durable enrichment** ([`Server::bind_durable`]) — with a journal
//!   directory, crowd-confirmed enrichment is appended to a
//!   write-ahead journal (`katara_kb::Journal`) and fsynced *before*
//!   the response acknowledges it, then folded into the shared KB. A
//!   restarted daemon replays the journal and resumes byte-identically;
//!   an unwritable journal degrades responses to `206`
//!   (`enrichment_dropped`) instead of lying or crashing.
//! * **Fault injection** ([`fault`]) — a seeded [`ServerFaultPlan`]
//!   drives misbehaving test clients (slowloris, truncated bodies,
//!   mid-request disconnects), mirroring `katara_crowd::FaultPlan`.
//!
//! See DESIGN.md §5g for the status-code contract and the failure
//! model.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod http;
pub mod server;

pub use error::ServeError;
pub use fault::{ClientFault, ServerFaultPlan};
pub use http::{ParseLimits, Request};
pub use server::{
    termination_signal, termination_signalled, trap_termination_signals, ServePolicy, Server,
    ServerConfig, ServerHandle,
};
