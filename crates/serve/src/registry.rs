//! Session registry and the deterministic multi-tenant batch scheduler.

use rumba_accel::Npu;
use rumba_core::runtime::approximate;
use rumba_core::zoo::ModelZoo;
use rumba_nn::{Matrix, NnError, Scratch};

use crate::session::{Admit, PendingBatch, Session, SessionConfig, SessionResult, SessionStats};
use crate::ServeError;

/// Outcome of [`ServeRuntime::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// Queued. `depth` is the queue depth after admission; `blocked` is
    /// true when the block policy forced a drain first.
    Accepted {
        /// Queue depth after admission.
        depth: usize,
        /// Whether admission required a blocking drain.
        blocked: bool,
    },
    /// Rejected under the shed policy (503-style).
    Shed,
}

/// The serving runtime: open sessions in open order, plus the scheduler
/// that multiplexes their batches over the shared accelerator.
///
/// # Determinism contract
///
/// For every session, the merged outputs, fixes and final threshold are
/// bit-identical to running that session's request stream alone, at any
/// worker count. Two properties make this hold:
///
/// 1. **Offset batch equivalence** — the pure compute phase uses
///    [`Npu::invoke_batch_at`], whose row `i` reproduces
///    `invoke_at(base + i)` bitwise, so batch boundaries (and therefore
///    drain timing) cannot change any accelerator output or injected
///    fault.
/// 2. **Serial replay** — the stateful decision path (checker, threshold,
///    recovery, tuning, telemetry) runs serially in session-open order
///    via the same [`rumba_core::runtime::RumbaSystem::replay`] step a
///    solo stream uses. Threads only ever touch the pure phase.
#[derive(Debug, Default)]
pub struct ServeRuntime {
    sessions: Vec<Session>,
}

impl ServeRuntime {
    /// An empty runtime.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a named session; returns its calibrated firing threshold.
    ///
    /// # Errors
    ///
    /// Rejects empty or duplicate names and invalid configurations.
    pub fn open(&mut self, name: &str, config: SessionConfig) -> Result<f64, ServeError> {
        if name.is_empty() {
            return Err(ServeError::InvalidConfig("session name must be non-empty".into()));
        }
        if self.index(name).is_ok() {
            return Err(ServeError::DuplicateSession(name.to_owned()));
        }
        let session = Session::open(name, config)?;
        let threshold = session.threshold();
        self.sessions.push(session);
        Ok(threshold)
    }

    /// Restores a session from a [`Session::snapshot`] line under `name`,
    /// continuing its stream bit-for-bit; returns the restored firing
    /// threshold. The name is free — restoring under a new name is how a
    /// snapshot migrates between shards.
    ///
    /// # Errors
    ///
    /// Rejects empty or duplicate names and malformed snapshots.
    pub fn restore(&mut self, name: &str, state: &str) -> Result<f64, ServeError> {
        if name.is_empty() {
            return Err(ServeError::InvalidConfig("session name must be non-empty".into()));
        }
        if self.index(name).is_ok() {
            return Err(ServeError::DuplicateSession(name.to_owned()));
        }
        let session = Session::restore(name, state)?;
        let threshold = session.threshold();
        self.sessions.push(session);
        Ok(threshold)
    }

    fn index(&self, name: &str) -> Result<usize, ServeError> {
        self.sessions
            .iter()
            .position(|s| s.name() == name)
            .ok_or_else(|| ServeError::UnknownSession(name.to_owned()))
    }

    /// The named session, if open.
    #[must_use]
    pub fn session(&self, name: &str) -> Option<&Session> {
        self.sessions.iter().find(|s| s.name() == name)
    }

    /// Open session names, in open order.
    #[must_use]
    pub fn session_names(&self) -> Vec<String> {
        self.sessions.iter().map(|s| s.name().to_owned()).collect()
    }

    /// Number of open sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session is open.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Submits one request to the named session, applying its admission
    /// policy. Under `Block` with a full queue, the session is drained
    /// first and the request then admitted — the queue bound is never
    /// exceeded.
    ///
    /// # Errors
    ///
    /// Unknown sessions, payload-width mismatches, pipeline failures.
    pub fn submit(&mut self, name: &str, input: &[f64]) -> Result<Submit, ServeError> {
        let i = self.index(name)?;
        match self.sessions[i].try_submit(input)? {
            Admit::Accepted(depth) => Ok(Submit::Accepted { depth, blocked: false }),
            Admit::Shed => Ok(Submit::Shed),
            Admit::MustDrain => {
                self.sessions[i].note_blocked();
                self.sessions[i].drain()?;
                match self.sessions[i].try_submit(input)? {
                    Admit::Accepted(depth) => Ok(Submit::Accepted { depth, blocked: true }),
                    // A freshly drained queue admits at least one request
                    // (effective capacity never drops below 1).
                    Admit::Shed | Admit::MustDrain => Err(ServeError::Runtime(
                        "admission retry failed after blocking drain".into(),
                    )),
                }
            }
        }
    }

    /// Drains one session and collects its completed results.
    ///
    /// # Errors
    ///
    /// Unknown sessions, pipeline failures.
    pub fn drain(&mut self, name: &str) -> Result<Vec<SessionResult>, ServeError> {
        let i = self.index(name)?;
        self.sessions[i].drain()?;
        Ok(self.sessions[i].take_results())
    }

    /// Drains every session's queue through one multiplexed scheduling
    /// round: the pure accelerator compute of all pending batches fans out
    /// across the worker pool, then each batch is replayed serially in
    /// session-open order. Results stay with their sessions (collect with
    /// [`ServeRuntime::drain`] or [`Session::take_results`] via close).
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn drain_all(&mut self) -> Result<(), ServeError> {
        // Phase 1: detach pending batches (open order).
        let mut jobs: Vec<(usize, PendingBatch)> = Vec::new();
        for (i, session) in self.sessions.iter_mut().enumerate() {
            if let Some(batch) = session.take_pending() {
                jobs.push((i, batch));
            }
        }
        if jobs.is_empty() {
            return Ok(());
        }

        // Phase 2: pure accelerator compute, one worker task per session
        // batch. Only `&Npu` / `&ModelZoo` (plain immutable data) cross
        // threads; routed batches carry their per-row tier decisions from
        // phase 1, so workers never make a routing choice.
        let outputs: Vec<Result<Matrix, NnError>> = {
            let metas: Vec<(&Npu, Option<&ModelZoo>, usize)> = jobs
                .iter()
                .map(|(i, _)| {
                    let s = &self.sessions[*i];
                    (s.npu(), s.zoo(), s.input_dim())
                })
                .collect();
            rumba_parallel::par_map_indexed(&jobs, |j, (_, batch)| {
                let (npu, zoo, input_dim) = metas[j];
                let mut scratch = Scratch::new();
                let mut out = Matrix::default();
                let (base, inputs, routes) = (batch.base, batch.view(input_dim), &batch.routes);
                approximate(npu, zoo, base, inputs, routes.as_deref(), &mut scratch, &mut out)
                    .map(|()| out)
            })
        };

        // Phase 3: serial stateful replay, in session-open order.
        for ((i, batch), out) in jobs.into_iter().zip(outputs) {
            self.sessions[i].absorb(batch, out?);
        }
        Ok(())
    }

    /// Collects completed results from every session that has any, in
    /// open order.
    pub fn take_all_results(&mut self) -> Vec<(String, Vec<SessionResult>)> {
        self.sessions
            .iter_mut()
            .filter(|s| s.results_ready() > 0)
            .map(|s| (s.name().to_owned(), s.take_results()))
            .collect()
    }

    /// Closes the named session, removing it from the registry.
    ///
    /// # Errors
    ///
    /// Unknown sessions, pipeline failures during the final drain.
    pub fn close(&mut self, name: &str) -> Result<(SessionStats, Vec<SessionResult>), ServeError> {
        let i = self.index(name)?;
        self.sessions.remove(i).finish()
    }

    /// Closes every session in open order, returning `(name, stats,
    /// results)` per session.
    ///
    /// # Errors
    ///
    /// Stops at the first pipeline failure.
    #[allow(clippy::type_complexity)]
    pub fn close_all(
        &mut self,
    ) -> Result<Vec<(String, SessionStats, Vec<SessionResult>)>, ServeError> {
        let mut closed = Vec::with_capacity(self.sessions.len());
        for session in self.sessions.drain(..) {
            let name = session.name().to_owned();
            let (stats, results) = session.finish()?;
            closed.push((name, stats, results));
        }
        Ok(closed)
    }
}
