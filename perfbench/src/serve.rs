//! The three serving workloads: `serve-inproc`, `serve-tcp` and
//! `session-churn`.

use std::io;
use std::time::Instant;

use rumba_serve::transport::NetServer;

use crate::engine::{InProc, LoadGen, Tcp, Transport};
use crate::gen::{
    all_pools, churn_unit, inproc_tenants, pools, tcp_tenants, tenant_round, DrainPlan, Op, Pool,
    Tenant, INPROC_KERNELS, TCP_KERNELS,
};
use crate::report::{end_to_end, Report};
use crate::stats::secs;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Rounds whose outputs are scored for `quality_error` / `fix_share`: a
/// fixed prefix, so the figures depend on the seed, not on speed.
pub const QUALITY_ROUNDS: u64 = 384;
/// `session-churn` units scored for quality (the same fixed-prefix rule).
pub const QUALITY_UNITS: u64 = 3;
/// Shards of the `serve-tcp` server.
pub const SHARDS: usize = 2;

/// Opens `tenants` through `tr`, failing on anything but an ack.
fn open_all(tr: &mut dyn Transport, tenants: &[Tenant]) -> io::Result<Vec<String>> {
    let mut acks = Vec::new();
    for t in tenants {
        let reply = tr.request(&t.spec.line(&t.name), "open")?;
        match reply.first() {
            Some(line) if line.starts_with("{\"type\":\"ack\"") => acks.push(line.clone()),
            other => {
                return Err(io::Error::other(format!("open {} failed: {other:?}", t.name)));
            }
        }
    }
    Ok(acks)
}

/// The long-lived-tenant round plan of each serve workload.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Global and per-session drains alternate.
    InProc,
    /// Per-session drains; every fourth round drains globally.
    Tcp,
}

impl Shape {
    fn plan(self, round: u64) -> DrainPlan {
        match self {
            Self::InProc if round.is_multiple_of(2) => DrainPlan::Global,
            Self::Tcp if round % 4 == 3 => DrainPlan::Global,
            _ => DrainPlan::PerSession,
        }
    }
}

/// The seeded op stream of a long-lived-tenant workload, round by round.
pub struct Rounds<'a> {
    seed: u64,
    shape: Shape,
    tenants: &'a [Tenant],
    counters: Vec<u64>,
    pub round: u64,
}

impl<'a> Rounds<'a> {
    #[must_use]
    pub fn new(seed: u64, shape: Shape, tenants: &'a [Tenant]) -> Self {
        Self { seed, shape, tenants, counters: vec![0; tenants.len()], round: 0 }
    }

    /// The next round's ops.
    pub fn next_round(&mut self, pools: &[Pool]) -> Vec<Op> {
        let plan = self.shape.plan(self.round);
        let ops =
            tenant_round(self.seed, self.round, self.tenants, pools, &mut self.counters, plan);
        self.round += 1;
        ops
    }
}

/// Shuts a transport's server side down and checks that every session
/// closed with nothing left to drain.
fn shutdown(tr: &mut dyn Transport, sessions: usize, report: &mut Report) -> io::Result<()> {
    let reply = tr.request("{\"op\":\"shutdown\"}", "shutdown")?;
    let closed = reply.iter().filter(|l| l.starts_with("{\"type\":\"closed\"")).count();
    let stray = reply.iter().filter(|l| l.starts_with("{\"type\":\"result\"")).count();
    report.require(closed == sessions, format!("shutdown closed {closed} of {sessions} sessions"));
    report.require(stray == 0, format!("{stray} results were still queued at shutdown"));
    Ok(())
}

/// Runs rounds until `seconds` have passed (and at least the quality
/// prefix has run). Returns the number of rounds.
fn timed_rounds(
    loadgen: &mut LoadGen,
    tr: &mut dyn Transport,
    rounds: &mut Rounds<'_>,
    pools: &[Pool],
    seconds: f64,
) -> io::Result<u64> {
    let start = Instant::now();
    while rounds.round < QUALITY_ROUNDS || secs(start) < seconds {
        let quality = rounds.round < QUALITY_ROUNDS;
        let ops = rounds.next_round(pools);
        loadgen.run_unit(tr, &ops, pools, quality)?;
    }
    Ok(rounds.round)
}

fn final_checks(report: &mut Report, loadgen: &LoadGen) {
    let t = &loadgen.tally;
    report.require(
        t.identity_holds(),
        format!(
            "accounting: {} results + {} shed + {} errors != {} invokes",
            t.results, t.shed, t.invoke_errors, t.attempted
        ),
    );
    report.require(loadgen.settled(), "a session's results do not match its invokes one for one");
    report.require(t.other_errors == 0, format!("{} error responses", t.other_errors));
    report.require(t.failed() == 0, format!("{} invokes failed", t.failed()));
}

/// `serve-inproc`: four long-lived tenants on one in-process runtime.
///
/// # Errors
///
/// Setup failures.
pub fn serve_inproc(seed: u64, seconds: f64) -> io::Result<Report> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let t = Instant::now();
        let pools = pools(seed, &INPROC_KERNELS);
        let tenants = inproc_tenants(seed, &pools);
        let mut tr = InProc::default();
        open_all(&mut tr, &tenants)?;
        setups.push(secs(t));
        ready = Some((pools, tenants, tr));
    }
    let (pools, tenants, mut tr) = ready.expect("at least one set-up");
    let mut loadgen = LoadGen::new();
    let mut rounds = Rounds::new(seed, Shape::InProc, &tenants);
    timed_rounds(&mut loadgen, &mut tr, &mut rounds, &pools, seconds)?;

    let mut report = Report::default();
    shutdown(&mut tr, tenants.len(), &mut report)?;
    final_checks(&mut report, &loadgen);
    end_to_end(&mut report, &loadgen.tally, &setups, false);
    Ok(report)
}

/// A loopback server with one lockstep client connection.
pub struct Loopback {
    pub server: NetServer,
    pub client: Tcp,
    pub acks: Vec<String>,
}

impl Loopback {
    /// Binds a `SHARDS`-shard server on an ephemeral port, connects, and
    /// opens `tenants`.
    ///
    /// # Errors
    ///
    /// Socket or open failures.
    pub fn start(tenants: &[Tenant]) -> io::Result<Self> {
        let server = NetServer::bind_tcp("127.0.0.1:0", SHARDS)?;
        let mut client = Tcp::connect(server.addr())?;
        let acks = open_all(&mut client, tenants)?;
        Ok(Self { server, client, acks })
    }

    /// Shuts the server down and waits for every server thread.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn stop(mut self, sessions: usize, report: &mut Report) -> io::Result<()> {
        shutdown(&mut self.client, sessions, report)?;
        drop(self.client);
        self.server.join()?;
        Ok(())
    }
}

/// `serve-tcp`: one lockstep connection to a 2-shard loopback server.
///
/// # Errors
///
/// Socket or setup failures.
pub fn serve_tcp(seed: u64, seconds: f64) -> io::Result<Report> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut ready: Option<(Vec<Pool>, Loopback)> = None;
    let tenants = tcp_tenants(SHARDS);
    for _ in 0..SETUP_REPS {
        if let Some((_, old)) = ready.take() {
            old.stop(tenants.len(), &mut report)?;
        }
        let t = Instant::now();
        let pools = pools(seed, &TCP_KERNELS);
        let net = Loopback::start(&tenants)?;
        setups.push(secs(t));
        ready = Some((pools, net));
    }
    let (pools, mut net) = ready.expect("at least one set-up");
    let mut loadgen = LoadGen::new();
    let mut rounds = Rounds::new(seed, Shape::Tcp, &tenants);
    let n = timed_rounds(&mut loadgen, &mut net.client, &mut rounds, &pools, seconds)?;
    let acks = std::mem::take(&mut net.acks);
    net.stop(tenants.len(), &mut report)?;

    // The same request stream through `handle_line` in process must give
    // the same response lines: the sharded transport's determinism
    // contract.
    let mut solo = InProc::default();
    let solo_acks = open_all(&mut solo, &tenants)?;
    let mut replay = LoadGen::new();
    let mut again = Rounds::new(seed, Shape::Tcp, &tenants);
    for _ in 0..n {
        let ops = again.next_round(&pools);
        replay.run_unit(&mut solo, &ops, &pools, false)?;
    }
    report.require(acks == solo_acks, "TCP open acks differ from the in-process replay");
    report.require(
        replay.tally.hash == loadgen.tally.hash,
        format!("TCP responses differ from the in-process replay over {n} rounds"),
    );

    final_checks(&mut report, &loadgen);
    end_to_end(&mut report, &loadgen.tally, &setups, false);
    Ok(report)
}

/// `session-churn`: sessions opened, run, snapshotted, closed, restored
/// under a new name, run again and closed, cycling through every kernel
/// with the zoo or the re-fit switched on.
///
/// # Errors
///
/// Setup failures.
pub fn session_churn(seed: u64, seconds: f64) -> io::Result<Report> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let t = Instant::now();
        let pools = all_pools(seed);
        let tr = InProc::default();
        setups.push(secs(t));
        ready = Some((pools, tr));
    }
    let (pools, mut tr) = ready.expect("at least one set-up");
    let mut loadgen = LoadGen::new();
    let start = Instant::now();
    let mut unit = 0u64;
    // Whole units only, so every run has the same lifecycle mix.
    while unit < QUALITY_UNITS || secs(start) < seconds {
        let ops = churn_unit(seed, unit, &pools);
        loadgen.run_unit(&mut tr, &ops, &pools, unit < QUALITY_UNITS)?;
        unit += 1;
    }
    let mut report = Report::default();
    report.require(tr.rt.is_empty(), "sessions left open after churn");
    final_checks(&mut report, &loadgen);
    end_to_end(&mut report, &loadgen.tally, &setups, true);
    Ok(report)
}
