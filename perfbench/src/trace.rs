//! The traced run (`--trace 1`): a per-layer breakdown timed from
//! outside.
//!
//! No program code is instrumented. Each workload first runs untraced for
//! half the run length (its end-to-end time is the reference), then the
//! same units run again while every request is also replayed against the
//! layers' public functions:
//!
//! - `protocol.*`: `parse_object` on the request line, and `handle_line`
//!   minus the same op sent straight to a second `ServeRuntime`.
//! - `registry.*`, `parallel.fanout_us`: the direct drains, and the same
//!   drains on a third runtime under `set_thread_override(Some(1))`.
//! - `exact`, `npu`, `checker`, `zoo`: the drained rows through
//!   `Kernel::compute`, `Npu::invoke_batch`, `ErrorEstimator::estimate`
//!   and `ModelZoo::route` with the session's own models, at one worker
//!   thread (the threading cost is `parallel.fanout_us`).
//! - `router.*`, `transport.self_us`: the TCP lines through a second
//!   server's `Router::route` in process.
//! - `trainer`, `session`, `snapshot`, `restore`: warm `train_app`, the
//!   direct `open` / `restore` minus it, and `Session::snapshot`.
//!
//! Every layer metric is reported on every workload; a layer a workload
//! never reaches reads 0. `unattributed_share` is 1 minus the summed
//! self times of the disjoint layers over the traced pass's end-to-end
//! time (summed request times; summed call times for `offline`).
//! `trace.e2e_s` is the untraced pass's end-to-end time and
//! `trace.overhead_s` what tracing added to the same work.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::time::Instant;

use rumba_apps::Split;
use rumba_core::trainer::{invocation_errors, train_app, OfflineConfig, TrainedApp};
use rumba_core::zoo::{train_zoo, ModelZoo};
use rumba_nn::{Matrix, MatrixView, Scratch};
use rumba_obs::json::{parse_object, ObjectExt};
use rumba_predict::{EmaDetector, ErrorEstimator};
use rumba_serve::protocol::handle_line;
use rumba_serve::transport::NetServer;
use rumba_serve::ServeRuntime;

use crate::engine::{InProc, LoadGen, Transport};
use crate::gen::{
    all_pools, churn_unit, inproc_tenants, pools, render, restore_line, tcp_tenants, Op, Pool,
    Tenant, INPROC_KERNELS, MODEL_SEED, TCP_KERNELS,
};
use crate::offline::{self, Call, Rig, CALLS};
use crate::report::Report;
use crate::serve::{Loopback, Rounds, Shape, SHARDS};
use crate::stats::secs;

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const LAYERS: [(&str, &str); 21] = [
    ("protocol.parse_ns", "ns"),
    ("protocol.self_ns", "ns"),
    ("registry.drain_us", "us"),
    ("registry.drain_rows", "count"),
    ("parallel.fanout_us", "us"),
    ("exact.compute_ns", "ns"),
    ("npu.forward_ns_per_row", "ns"),
    ("checker.estimate_ns", "ns"),
    ("zoo.route_ns", "ns"),
    ("runtime.replay_ns_per_row", "ns"),
    ("router.route_us", "us"),
    ("router.hop_us", "us"),
    ("transport.self_us", "us"),
    ("trainer.load_ms", "ms"),
    ("session.open_self_ms", "ms"),
    ("snapshot.encode_us", "us"),
    ("snapshot.words", "count"),
    ("restore.self_ms", "ms"),
    ("unattributed_share", "share"),
    ("trace.e2e_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Layers whose self times are disjoint slices of a request's time; their
/// sum is what `unattributed_share` compares with the end-to-end time.
const DISJOINT: [&str; 13] = [
    "protocol.self",
    "parallel.fanout",
    "exact.compute",
    "npu.forward",
    "checker.estimate",
    "zoo.route",
    "runtime.replay",
    "router.hop",
    "transport.self",
    "trainer.load",
    "session.open_self",
    "restore.self",
    "snapshot.encode",
];

/// Per-layer accumulators: total seconds and the count each mean is over.
#[derive(Debug, Default)]
struct Layers {
    acc: HashMap<&'static str, (f64, f64)>,
    /// The row-level layers again, per kernel (record only).
    per_kernel: BTreeMap<(&'static str, &'static str), (f64, f64)>,
}

impl Layers {
    fn add(&mut self, layer: &'static str, secs: f64, count: f64) {
        let e = self.acc.entry(layer).or_default();
        e.0 += secs;
        e.1 += count;
    }

    fn add_kernel(&mut self, layer: &'static str, kernel: &'static str, secs: f64, count: f64) {
        self.add(layer, secs, count);
        let e = self.per_kernel.entry((layer, kernel)).or_default();
        e.0 += secs;
        e.1 += count;
    }

    fn total(&self, layer: &str) -> f64 {
        self.acc.get(layer).map_or(0.0, |e| e.0)
    }

    fn mean(&self, layer: &str) -> f64 {
        self.acc.get(layer).map_or(0.0, |e| if e.1 > 0.0 { e.0 / e.1 } else { 0.0 })
    }

    fn disjoint_total(&self) -> f64 {
        DISJOINT.iter().map(|l| self.total(l)).sum()
    }

    /// The report, with the three run-level figures.
    fn report(&self, attributed: f64, untraced: f64, traced: f64) -> Report {
        let mut r = Report::default();
        for (name, unit) in LAYERS {
            let v = match name {
                "protocol.parse_ns" => self.mean("protocol.parse") * 1e9,
                "protocol.self_ns" => self.mean("protocol.self") * 1e9,
                "registry.drain_us" => self.mean("registry.drain") * 1e6,
                "registry.drain_rows" => self.mean("registry.drain_rows"),
                "parallel.fanout_us" => self.mean("parallel.fanout") * 1e6,
                "exact.compute_ns" => self.mean("exact.compute") * 1e9,
                "npu.forward_ns_per_row" => self.mean("npu.forward") * 1e9,
                "checker.estimate_ns" => self.mean("checker.estimate") * 1e9,
                "zoo.route_ns" => self.mean("zoo.route") * 1e9,
                "runtime.replay_ns_per_row" => self.mean("runtime.replay") * 1e9,
                "router.route_us" => self.mean("router.route") * 1e6,
                "router.hop_us" => self.mean("router.hop") * 1e6,
                "transport.self_us" => self.mean("transport.self") * 1e6,
                "trainer.load_ms" => self.mean("trainer.load") * 1e3,
                "session.open_self_ms" => self.mean("session.open_self") * 1e3,
                "snapshot.encode_us" => self.mean("snapshot.encode") * 1e6,
                "snapshot.words" => self.mean("snapshot.words"),
                "restore.self_ms" => self.mean("restore.self") * 1e3,
                "unattributed_share" => 1.0 - attributed / traced.max(1e-12),
                "trace.e2e_s" => untraced,
                _ => traced - untraced,
            };
            r.push(name, unit, v);
        }
        for ((layer, kernel), (secs, count)) in &self.per_kernel {
            if *count > 0.0 {
                r.push_extra(format!("{layer}_ns.{kernel}"), "ns", secs / count * 1e9);
            }
        }
        r
    }
}

/// Runs `workload` traced.
///
/// # Errors
///
/// Setup, socket or pipeline failures.
pub fn traced(workload: &str, seed: u64, seconds: f64) -> io::Result<Report> {
    let half = seconds / 2.0;
    match workload {
        "serve-inproc" => trace_serve(seed, half, false),
        "serve-tcp" => trace_serve(seed, half, true),
        "offline" => trace_offline(seed, half),
        _ => trace_churn(seed, half),
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// The models a session runs, rebuilt outside the server for the row
/// probes.
struct Kit {
    pool: usize,
    label: String,
    app: TrainedApp,
    checker: Box<dyn ErrorEstimator>,
    zoo: Option<(ModelZoo, f64)>,
}

impl Kit {
    fn new(pool: usize, pools: &[Pool], checker: &str, zoo: usize) -> io::Result<Self> {
        let kernel = pools[pool].kernel.as_ref();
        let cfg = OfflineConfig { seed: MODEL_SEED, ..OfflineConfig::default() };
        let app = train_app(kernel, &cfg).map_err(io::Error::other)?;
        let estimator: Box<dyn ErrorEstimator> = match checker {
            "linear" => Box::new(app.linear.clone()),
            "ema" => Box::new(
                EmaDetector::new(app.ema_window, kernel.output_dim()).map_err(io::Error::other)?,
            ),
            _ => Box::new(app.tree.clone()),
        };
        let zoo = if zoo > 0 {
            let ladder = train_zoo(kernel, &app, &cfg, zoo).map_err(io::Error::other)?;
            let train = kernel.generate(Split::Train, MODEL_SEED);
            let rows: Vec<&[f64]> = (0..train.len()).map(|i| train.input(i)).collect();
            let errors: Vec<Vec<f64>> = ladder
                .tiers()
                .iter()
                .map(|t| invocation_errors(kernel, &t.npu, &train))
                .collect::<Result<_, _>>()
                .map_err(io::Error::other)?;
            let bar = ladder.calibrate_bar(&rows, &errors, 0.9 * 0.1);
            Some((ladder, bar))
        } else {
            None
        };
        Ok(Self { pool, label: checker.to_owned(), app, checker: estimator, zoo })
    }
}

/// The in-process mirror: runtime A answers the request lines through
/// `handle_line`; runtime B takes the same ops directly; runtime C takes
/// them directly at one worker thread. Drained rows are replayed through
/// the row-level layers.
struct Mirror {
    a: InProc,
    b: ServeRuntime,
    c: ServeRuntime,
    kits: Vec<Kit>,
    kit_of: HashMap<String, usize>,
    pending: HashMap<String, Vec<usize>>,
    snapshots: HashMap<String, String>,
    layers: Layers,
    /// Sum of `handle_line` times (the traced in-process end-to-end).
    line_secs: f64,
    scratch: Scratch,
    out: Matrix,
}

impl Mirror {
    fn new() -> Self {
        Self {
            a: InProc::default(),
            b: ServeRuntime::new(),
            c: ServeRuntime::new(),
            kits: Vec::new(),
            kit_of: HashMap::new(),
            pending: HashMap::new(),
            snapshots: HashMap::new(),
            layers: Layers::default(),
            line_secs: 0.0,
            scratch: Scratch::new(),
            out: Matrix::default(),
        }
    }

    fn kit(
        &mut self,
        session: &str,
        pool: usize,
        pools: &[Pool],
        checker: &str,
        zoo: usize,
    ) -> io::Result<()> {
        let found = self
            .kits
            .iter()
            .position(|k| k.pool == pool && k.zoo.is_some() == (zoo > 0) && k.label == checker);
        let idx = match found {
            Some(i) => i,
            None => {
                self.kits.push(Kit::new(pool, pools, checker, zoo)?);
                self.kits.len() - 1
            }
        };
        self.kit_of.insert(session.to_owned(), idx);
        Ok(())
    }

    /// Times the warm model load behind an open or restore.
    fn load(&mut self, pools: &[Pool], pool: usize) -> io::Result<f64> {
        let cfg = OfflineConfig { seed: MODEL_SEED, ..OfflineConfig::default() };
        let (app, dt) = timed(|| train_app(pools[pool].kernel.as_ref(), &cfg));
        app.map_err(io::Error::other)?;
        self.layers.add("trainer.load", dt, 1.0);
        Ok(dt)
    }

    /// Sends `op` (rendered as `line`) through A, the same op straight to
    /// B and C, and the drained rows through the row probes. Returns A's
    /// response lines and the `handle_line` time.
    fn op(&mut self, op: &Op, line: &str, pools: &[Pool]) -> io::Result<(Vec<String>, f64)> {
        let (reply, t_line) = timed(|| handle_line(&mut self.a.rt, line).0);
        self.line_secs += t_line;
        let (_, dt) = timed(|| parse_object(line));
        self.layers.add("protocol.parse", dt, 1.0);
        let err = |e: rumba_serve::ServeError| io::Error::other(e.to_string());
        let t_direct = match op {
            Op::Open { session, spec } => {
                let load = self.load(pools, pool_of(pools, spec.kernel))?;
                let (r, dt) = timed(|| self.b.open(session, spec.config()));
                r.map_err(err)?;
                self.c.open(session, spec.config()).map_err(err)?;
                self.layers.add("session.open_self", dt - load, 1.0);
                self.kit(session, pool_of(pools, spec.kernel), pools, spec.checker, spec.zoo)?;
                dt
            }
            Op::Invoke { session, pool, row } => {
                let input = pools[*pool].data.input(*row);
                let (r, dt) = timed(|| self.b.submit(session, input));
                r.map_err(err)?;
                self.c.submit(session, input).map_err(err)?;
                self.pending.entry(session.clone()).or_default().push(*row);
                dt
            }
            Op::Drain { session } => {
                let names: Vec<String> = match session {
                    Some(s) => vec![s.clone()],
                    None => self.b.session_names(),
                };
                let drain = |rt: &mut ServeRuntime| -> Result<Vec<(String, Vec<bool>)>, rumba_serve::ServeError> {
                    Ok(match session {
                        Some(s) => vec![(s.clone(), rt.drain(s)?.iter().map(|r| r.fired).collect())],
                        None => {
                            rt.drain_all()?;
                            rt.take_all_results()
                                .into_iter()
                                .map(|(n, rs)| (n, rs.iter().map(|r| r.fired).collect()))
                                .collect()
                        }
                    })
                };
                let (fired, dt) = timed(|| drain(&mut self.b));
                let fired = fired.map_err(err)?;
                rumba_parallel::set_thread_override(Some(1));
                let (one, dt_one) = timed(|| drain(&mut self.c));
                rumba_parallel::set_thread_override(None);
                one.map_err(err)?;
                let rows: usize = fired.iter().map(|(_, f)| f.len()).sum();
                self.layers.add("registry.drain", dt, 1.0);
                self.layers.add("registry.drain_rows", rows as f64, 1.0);
                self.layers.add("parallel.fanout", dt - dt_one, 1.0);
                for name in names {
                    let fires = fired
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0, |(_, f)| f.iter().filter(|&&x| x).count());
                    let rows = self.pending.remove(&name).unwrap_or_default();
                    // One worker thread: the fan-out is booked above.
                    rumba_parallel::set_thread_override(Some(1));
                    let probed = self.probe_rows(&name, &rows, fires, pools);
                    rumba_parallel::set_thread_override(None);
                    probed?;
                }
                dt
            }
            Op::Snapshot { session } => {
                let s = self.b.session(session).ok_or_else(|| io::Error::other("no session"))?;
                let (state, dt) = timed(|| s.snapshot());
                self.layers.add("snapshot.encode", dt, 1.0);
                self.layers.add("snapshot.words", state.split_whitespace().count() as f64, 1.0);
                self.snapshots.insert(session.clone(), state);
                dt
            }
            Op::Restore { session, from } => {
                let state = self.snapshots.remove(from).unwrap_or_default();
                let kit = self.kit_of.get(from).copied().unwrap_or(0);
                let load = self.load(pools, self.kits[kit].pool)?;
                let (r, dt) = timed(|| self.b.restore(session, &state));
                r.map_err(err)?;
                self.c.restore(session, &state).map_err(err)?;
                self.layers.add("restore.self", dt - load, 1.0);
                self.kit_of.insert(session.clone(), kit);
                dt
            }
            Op::Close { session } => {
                let (r, dt) = timed(|| self.b.close(session));
                r.map_err(err)?;
                self.c.close(session).map_err(err)?;
                dt
            }
        };
        self.layers.add("protocol.self", t_line - t_direct, 1.0);
        Ok((reply, t_line))
    }

    /// Replays drained rows through the row-level layers with the
    /// session's own models.
    fn probe_rows(
        &mut self,
        session: &str,
        rows: &[usize],
        fires: usize,
        pools: &[Pool],
    ) -> io::Result<()> {
        let Some(&k) = self.kit_of.get(session) else { return Ok(()) };
        if rows.is_empty() {
            return Ok(());
        }
        let kit = &mut self.kits[k];
        let pool = &pools[kit.pool];
        let name = pool.kernel.name();
        let dim = pool.kernel.input_dim();
        let inputs: Vec<f64> = rows.iter().flat_map(|&r| pool.data.input(r).to_vec()).collect();
        let n = rows.len() as f64;

        let view = MatrixView::new(&inputs, rows.len(), dim);
        let (r, dt) =
            timed(|| kit.app.rumba_npu.invoke_batch(view, &mut self.scratch, &mut self.out));
        r.map_err(io::Error::other)?;
        self.layers.add_kernel("npu.forward", name, dt, n);

        let out = &self.out;
        let ((), dt) = timed(|| {
            for (i, x) in inputs.chunks(dim).enumerate() {
                std::hint::black_box(kit.checker.estimate(x, out.row(i)));
            }
        });
        self.layers.add_kernel("checker.estimate", name, dt, n);

        if let Some((zoo, bar)) = &kit.zoo {
            let ((), dt) = timed(|| {
                for x in inputs.chunks(dim) {
                    std::hint::black_box(zoo.route(x, *bar));
                }
            });
            self.layers.add_kernel("zoo.route", name, dt, n);
        }

        // The oracle computes every served row once, and each fire
        // re-executes one more.
        let mut exact = vec![0.0; pool.kernel.output_dim()];
        let ((), dt) = timed(|| {
            for x in inputs.chunks(dim) {
                pool.kernel.compute(x, &mut exact);
                std::hint::black_box(&exact);
            }
        });
        let per_row = dt / n;
        self.layers.add_kernel(
            "exact.compute",
            name,
            dt + per_row * fires as f64,
            n + fires as f64,
        );
        Ok(())
    }

    /// Runs `ops` through [`Mirror::op`], calling `each` first with every
    /// rendered line (restores render from A's snapshots).
    fn unit(
        &mut self,
        ops: &[Op],
        pools: &[Pool],
        mut each: impl FnMut(&Op, &str, &mut Self) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut states: HashMap<String, String> = HashMap::new();
        for op in ops {
            let line = match render(op, pools) {
                Some(line) => line,
                None => {
                    let Op::Restore { session, from } = op else { unreachable!() };
                    restore_line(session, states.get(from).map_or("", String::as_str))
                }
            };
            each(op, &line, self)?;
            let (reply, _) = self.op(op, &line, pools)?;
            if let Op::Snapshot { session } = op {
                let state = reply
                    .first()
                    .and_then(|l| parse_object(l).ok())
                    .and_then(|o| o.string("state").map(str::to_owned))
                    .unwrap_or_default();
                states.insert(session.clone(), state);
            }
        }
        Ok(())
    }
}

fn pool_of(pools: &[Pool], kernel: &str) -> usize {
    pools.iter().position(|p| p.kernel.name() == kernel).expect("a pool for every kernel")
}

/// `serve-inproc` or `serve-tcp`, traced.
fn trace_serve(seed: u64, seconds: f64, tcp: bool) -> io::Result<Report> {
    let pools = pools(seed, if tcp { &TCP_KERNELS } else { &INPROC_KERNELS });
    let tenants: Vec<Tenant> = if tcp { tcp_tenants(SHARDS) } else { inproc_tenants(seed, &pools) };
    let shape = if tcp { Shape::Tcp } else { Shape::InProc };

    // Untraced reference: rounds for `seconds`.
    let mut loadgen = LoadGen::new();
    let mut rounds = Rounds::new(seed, shape, &tenants);
    let start = Instant::now();
    let mut sink = Report::default();
    if tcp {
        let mut net = Loopback::start(&tenants)?;
        while rounds.round < 1 || secs(start) < seconds {
            let ops = rounds.next_round(&pools);
            loadgen.run_unit(&mut net.client, &ops, &pools, false)?;
        }
        net.stop(tenants.len(), &mut sink)?;
    } else {
        let mut tr = InProc::default();
        for t in &tenants {
            tr.request(&t.spec.line(&t.name), "open")?;
        }
        while rounds.round < 1 || secs(start) < seconds {
            let ops = rounds.next_round(&pools);
            loadgen.run_unit(&mut tr, &ops, &pools, false)?;
        }
    }
    let n = rounds.round;
    let untraced = loadgen.tally.op_secs;

    // Traced: the same rounds again, each op also replayed in process.
    let mut mirror = Mirror::new();
    let mut net = if tcp { Some(Loopback::start(&tenants)?) } else { None };
    let probe = if tcp { Some(NetServer::bind_tcp("127.0.0.1:0", SHARDS)?) } else { None };
    for t in &tenants {
        let op = Op::Open { session: t.name.clone(), spec: t.spec.clone() };
        mirror.op(&op, &t.spec.line(&t.name), &pools)?;
        if let Some(probe) = &probe {
            probe.router().route(&t.spec.line(&t.name));
        }
    }
    // The opens are set-up: keep their load and open figures, but not
    // their protocol timings in the per-request means.
    mirror.layers.acc.remove("protocol.parse");
    mirror.layers.acc.remove("protocol.self");
    let before = mirror.layers.disjoint_total();
    let line_before = mirror.line_secs;
    let mut client_secs = 0.0;
    let mut again = Rounds::new(seed, shape, &tenants);
    for _ in 0..n {
        let ops = again.next_round(&pools);
        mirror.unit(&ops, &pools, |op, line, m| {
            let (Some(net), Some(probe)) = (net.as_mut(), probe.as_ref()) else { return Ok(()) };
            let (reply, t_client) = timed(|| net.client.request(line, op.kind()));
            reply?;
            let (_, t_route) = timed(|| probe.router().route(line));
            client_secs += t_client;
            m.layers.add("router.route", t_route, 1.0);
            m.layers.add("transport.self", t_client - t_route, 1.0);
            Ok(())
        })?;
    }
    if let (Some(net), Some(probe)) = (net.take(), probe) {
        net.stop(tenants.len(), &mut sink)?;
        probe.router().route("{\"op\":\"shutdown\"}");
        probe.join()?;
    }
    let line_secs = mirror.line_secs - line_before;
    if tcp {
        // The router hop: in-process `route` minus the `handle_line` work
        // behind it.
        let route = mirror.layers.total("router.route");
        let count = mirror.layers.acc.get("router.route").map_or(0.0, |e| e.1);
        mirror.layers.add("router.hop", route - line_secs, count);
    }
    let attributed = mirror.layers.disjoint_total() - before;
    let traced = if tcp { client_secs } else { line_secs };
    let mut report = mirror.layers.report(attributed, untraced, traced);
    report.problems = sink.problems;
    report.attempted = loadgen.tally.attempted;
    report.samples.push(("rounds", n as usize));
    Ok(report)
}

/// `session-churn`, traced.
fn trace_churn(seed: u64, seconds: f64) -> io::Result<Report> {
    let pools = all_pools(seed);
    let mut loadgen = LoadGen::new();
    let mut tr = InProc::default();
    let start = Instant::now();
    let mut units = 0u64;
    while units < 1 || secs(start) < seconds {
        loadgen.run_unit(&mut tr, &churn_unit(seed, units, &pools), &pools, false)?;
        units += 1;
    }
    let untraced = loadgen.tally.op_secs;

    let mut mirror = Mirror::new();
    for u in 0..units {
        mirror.unit(&churn_unit(seed, u, &pools), &pools, |_, _, _| Ok(()))?;
    }
    let attributed = mirror.layers.disjoint_total();
    let mut report = mirror.layers.report(attributed, untraced, mirror.line_secs);
    report.attempted = loadgen.tally.attempted;
    report.samples.push(("units", units as usize));
    Ok(report)
}

/// `offline`, traced: each call timed at the default thread count and at
/// one thread, its batch forward and checker pass re-run through the
/// public layer functions; the replay is the call minus its forward.
fn trace_offline(seed: u64, seconds: f64) -> io::Result<Report> {
    let mut layers = Layers::default();
    let mut rigs = Vec::new();
    let cfg = OfflineConfig { seed: MODEL_SEED, ..OfflineConfig::default() };
    for pool in all_pools(seed) {
        let (app, load) = timed(|| train_app(pool.kernel.as_ref(), &cfg));
        app.map_err(io::Error::other)?;
        let (rig, dt) = timed(|| Rig::new(pool, seed));
        layers.add("trainer.load", load, 1.0);
        layers.add("session.open_self", dt - load, 1.0);
        rigs.push(rig?);
    }

    let mut untraced = 0.0;
    let start = Instant::now();
    let mut units = 0u64;
    while units < 1 || secs(start) < seconds {
        for rig in &rigs {
            for which in CALLS {
                untraced += offline::call(rig, which)?.secs;
            }
        }
        units += 1;
    }

    let mut traced = 0.0;
    let mut scratch = Scratch::new();
    let mut out = Matrix::default();
    for _ in 0..units {
        for rig in &rigs {
            let kernel = rig.pool.kernel.as_ref();
            let data = &rig.pool.data;
            for which in CALLS {
                let call = offline::call(rig, which)?;
                rumba_parallel::set_thread_override(Some(1));
                let one = offline::call(rig, which);
                rumba_parallel::set_thread_override(None);
                traced += call.secs;
                let rows = call.rows as f64;
                layers.add("parallel.fanout", call.secs - one?.secs, 1.0);
                let forward = match which {
                    Call::Run => {
                        let (r, dt) = timed(|| {
                            rig.app.rumba_npu.invoke_batch(
                                data.inputs_view(),
                                &mut scratch,
                                &mut out,
                            )
                        });
                        r.map_err(io::Error::other)?;
                        let mut checker = rig.app.tree.clone();
                        let ((), dc) = timed(|| {
                            for i in 0..data.len() {
                                std::hint::black_box(checker.estimate(data.input(i), out.row(i)));
                            }
                        });
                        layers.add("checker.estimate", dc, rows);
                        dt
                    }
                    Call::RunZoo => {
                        let (routes, dr) = timed(|| {
                            (0..data.len())
                                .map(|i| rig.zoo.route(data.input(i), rig.bar))
                                .collect::<Vec<_>>()
                        });
                        layers.add("zoo.route", dr, rows);
                        let mut dt = 0.0;
                        for t in 0..rig.zoo.len() {
                            let picked: Vec<f64> = (0..data.len())
                                .filter(|&i| routes[i] == t)
                                .flat_map(|i| data.input(i).to_vec())
                                .collect();
                            let count = picked.len() / kernel.input_dim();
                            if count == 0 {
                                continue;
                            }
                            let view = MatrixView::new(&picked, count, kernel.input_dim());
                            let (r, d) = timed(|| {
                                rig.zoo.tier(t).npu.invoke_batch(view, &mut scratch, &mut out)
                            });
                            r.map_err(io::Error::other)?;
                            dt += d;
                        }
                        dt
                    }
                    Call::Stream => {
                        let mut npu = rig.app.rumba_npu.clone();
                        npu.set_fault_plan(rig.stream_plan.clone());
                        let ((), dt) = timed(|| {
                            for (i, x) in rig.stream_inputs.iter().enumerate() {
                                std::hint::black_box(npu.invoke_at(i, x).ok());
                            }
                        });
                        dt
                    }
                };
                layers.add("npu.forward", forward, rows);
                layers.add("runtime.replay", call.secs - forward, rows);
                let fires = call.fired.iter().filter(|&&f| f).count();
                if fires > 0 {
                    let mut exact = vec![0.0; kernel.output_dim()];
                    let inputs: Vec<&[f64]> = match which {
                        Call::Stream => rig.stream_inputs.iter().map(Vec::as_slice).collect(),
                        _ => (0..data.len()).map(|i| data.input(i)).collect(),
                    };
                    let ((), dt) = timed(|| {
                        for (x, _) in inputs.iter().zip(&call.fired).filter(|(_, &f)| f) {
                            kernel.compute(x, &mut exact);
                            std::hint::black_box(&exact);
                        }
                    });
                    layers.add("exact.compute", dt, fires as f64);
                }
            }
        }
    }
    // Forward and replay split each call between them; the checker, zoo
    // and exact probes are breakdowns inside those, not extra time.
    let attributed = layers.total("npu.forward") + layers.total("runtime.replay");
    let mut report = layers.report(attributed, untraced, traced);
    report.attempted = units
        * rigs.iter().map(|r| (2 * r.pool.data.len() + offline::STREAM_ROWS) as u64).sum::<u64>();
    report.samples.push(("units", units as usize));
    Ok(report)
}
