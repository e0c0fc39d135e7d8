//! Multi-tenant serving layer for the Rumba online quality manager.
//!
//! `rumba-serve` turns the single-stream [`rumba_core::runtime::RumbaSystem`]
//! into a long-running request-serving runtime that multiplexes many
//! concurrent client *sessions* — each with its own kernel, checker, tuning
//! mode, fault plan and quality state — over the shared NPU + CPU-recovery
//! pipeline.
//!
//! The layer is built from three pieces:
//!
//! * [`session::Session`] — one tenant. Wraps a fully calibrated
//!   `RumbaSystem` (tuner, checker, degradation ladder isolated per
//!   session), a bounded request queue with shed-or-block admission
//!   control, and an online measured-error oracle so the per-session run
//!   summary is honest.
//! * [`registry::ServeRuntime`] — the session registry and deterministic
//!   batch scheduler. `drain_all` fans the *pure* accelerator compute of
//!   every session's pending batch across the worker pool, then replays
//!   the stateful decision path serially in session-open order, so merged
//!   outputs are bit-identical to running each session alone at any
//!   thread count.
//! * [`protocol`] — a newline-delimited JSON request/response dialect
//!   (std-only; stdin/stdout or a Unix socket) plus the seeded
//!   multi-tenant workload replay behind `rumba bench-serve`
//!   ([`bench`]). [`Client`] is the one line client for the socket and
//!   TCP transports: it owns the rule for where a response group ends.

pub mod bench;
pub mod client;
pub mod protocol;
pub mod registry;
pub mod session;
pub mod shard;
pub mod snapshot;
pub mod transport;

pub use client::Client;
pub use registry::{ServeRuntime, Submit};
pub use session::{
    AdmissionPolicy, CheckerKind, Session, SessionConfig, SessionResult, SessionStats,
};

use std::fmt;

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The requested kernel is not a registered benchmark.
    UnknownKernel(String),
    /// No open session has this name.
    UnknownSession(String),
    /// A session with this name is already open.
    DuplicateSession(String),
    /// A session configuration field is out of range or unparsable.
    InvalidConfig(String),
    /// A request payload does not match the session's kernel.
    InvalidInput(String),
    /// An underlying pipeline component failed.
    Runtime(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownKernel(name) => write!(f, "unknown kernel {name:?}"),
            Self::UnknownSession(name) => write!(f, "no open session named {name:?}"),
            Self::DuplicateSession(name) => write!(f, "session {name:?} is already open"),
            Self::InvalidConfig(msg) => write!(f, "invalid session config: {msg}"),
            Self::InvalidInput(msg) => write!(f, "invalid request: {msg}"),
            Self::Runtime(msg) => write!(f, "serving runtime error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<rumba_core::RumbaError> for ServeError {
    fn from(err: rumba_core::RumbaError) -> Self {
        Self::Runtime(err.to_string())
    }
}

impl From<rumba_nn::NnError> for ServeError {
    fn from(err: rumba_nn::NnError) -> Self {
        Self::Runtime(err.to_string())
    }
}

impl From<rumba_predict::PredictError> for ServeError {
    fn from(err: rumba_predict::PredictError) -> Self {
        Self::Runtime(err.to_string())
    }
}
