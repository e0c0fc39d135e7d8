//! Hand-rolled argument parsing for the `rumba` driver (no external
//! dependencies; the grammar is small enough that explicitness beats a
//! parser framework).

use std::fmt;

use rumba_nn::SimdMode;

/// Which checker the `run` subcommand attaches to the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckerChoice {
    /// Linear error model (§3.2.1).
    Linear,
    /// Decision tree (§3.2.2) — the paper's best performer and the default.
    #[default]
    Tree,
    /// Exponential moving average (§3.2.3).
    Ema,
    /// Errors by value prediction (rejected by §3.2, kept for comparison).
    Evp,
    /// Extension: hashed lookup table.
    Table,
    /// Extension: tree + EMA max-ensemble.
    Ensemble,
}

impl CheckerChoice {
    fn parse(text: &str) -> Result<Self, ParseError> {
        match text {
            "linear" => Ok(Self::Linear),
            "tree" => Ok(Self::Tree),
            "ema" => Ok(Self::Ema),
            "evp" => Ok(Self::Evp),
            "table" => Ok(Self::Table),
            "ensemble" => Ok(Self::Ensemble),
            other => Err(bad("--checker", other, "linear|tree|ema|evp|table|ensemble")),
        }
    }
}

/// Which §3.4 tuning mode the `run` subcommand uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModeChoice {
    /// Target output quality (default 0.9).
    Toq(f64),
    /// Per-window re-execution budget.
    Energy(usize),
    /// Best-effort quality bounded by CPU overlap capacity.
    Quality,
}

impl Default for ModeChoice {
    fn default() -> Self {
        ModeChoice::Toq(0.9)
    }
}

/// A parsed command line: what to compute. How the process runs it
/// (threads, SIMD, telemetry) is in the [`Overrides`] parsed beside it.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `rumba list` — print the benchmark registry.
    List,
    /// `rumba train <kernel>` — offline training summary.
    Train {
        /// Benchmark name.
        kernel: String,
        /// Master seed.
        seed: u64,
    },
    /// `rumba run <kernel> [flags]` — online managed execution.
    Run {
        /// Benchmark name.
        kernel: String,
        /// Master seed.
        seed: u64,
        /// Checker to deploy.
        checker: CheckerChoice,
        /// Tuning mode.
        mode: ModeChoice,
        /// Tuning-window length.
        window: usize,
    },
    /// `rumba faults [flags]` — fault-injection sweep: per-checker
    /// detection-coverage table plus a managed NaN-injection run.
    Faults {
        /// Benchmarks to sweep (default gaussian + fft).
        kernels: Vec<String>,
        /// Master seed (training *and* fault-plan seed).
        seed: u64,
        /// Per-element injection rate for the rate-based fault models.
        rate: f64,
        /// Tuning-window length for the managed run.
        window: usize,
    },
    /// `rumba compensate [flags]` — predict-and-compensate sweep: per
    /// kernel and checker, the re-execution-only fix count that meets the
    /// TOQ versus the mixed recovery (worst offenders re-executed, the
    /// mildly wrong band compensated in place), with energy per fix.
    Compensate {
        /// Benchmarks to sweep (default gaussian + fft + inversek2j).
        kernels: Vec<String>,
        /// Master seed.
        seed: u64,
        /// Target output quality the sweep holds both recovery mixes to.
        toq: f64,
    },
    /// `rumba zoo [flags]` — invocation-driven model-zoo sweep: per
    /// kernel, train a quality/energy ladder of approximators, route each
    /// invocation to the cheapest tier predicted to meet the TOQ (exact
    /// CPU as the last resort), and report the modeled energy saved at
    /// equal quality versus the single-model baseline.
    Zoo {
        /// Benchmarks to sweep (default gaussian + fft + inversek2j).
        kernels: Vec<String>,
        /// Master seed.
        seed: u64,
        /// Target output quality both the baseline and the zoo hold.
        toq: f64,
        /// Ladder size (model tiers per kernel, exact CPU not counted).
        tiers: usize,
    },
    /// `rumba drift [flags]` — open-world drift sweep: per kernel ×
    /// generative scenario (steady, drifting inputs, diurnal load,
    /// correlated bursts), compare the detection coverage of the
    /// clean-stream baseline, the reset-only watchdog (refit off), and
    /// the online checker re-fit (refit on) under a ramped `InputDrift`
    /// plan.
    Drift {
        /// Benchmarks to sweep (default gaussian + fft).
        kernels: Vec<String>,
        /// Master seed (training, scenario and fault-plan seed).
        seed: u64,
        /// Tuning-window length (the refit commit boundary).
        window: usize,
    },
    /// `rumba report <path.jsonl>` — summarize a telemetry stream.
    Report {
        /// Path to a JSONL file written via `--metrics-out`.
        path: String,
    },
    /// `rumba purity <kernel>` — §2.2 re-execution safety check.
    Purity {
        /// Benchmark name.
        kernel: String,
    },
    /// `rumba serve` — multi-tenant NDJSON serving loop over
    /// stdin/stdout, a Unix socket, or a sharded TCP listener.
    Serve {
        /// Unix socket path (`None` and no `--tcp` serves stdin/stdout).
        socket: Option<String>,
        /// TCP listen address (`host:port`); sharded multi-client serving.
        tcp: Option<String>,
        /// Shard-thread count for the socket/TCP transports. Session
        /// placement is a pure hash of the session name, so responses are
        /// bit-identical at any shard count.
        shards: usize,
    },
    /// `rumba bench-serve` — replay the seeded multi-tenant workload
    /// trace (the serving conformance artifact).
    BenchServe {
        /// Workload seed.
        seed: u64,
        /// Tenant count.
        tenants: usize,
        /// Requests per tenant.
        requests: usize,
        /// When set, replay the workload over real TCP through this many
        /// shards (one lockstep connection per tenant) and print the
        /// multi-client trace instead of the in-process one.
        shards: Option<usize>,
    },
    /// `rumba help` or no arguments.
    Help,
}

/// How a command runs: the process-wide settings its flags override. A
/// command's output is bit-identical at every setting; `main` applies
/// them once, before dispatch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Overrides {
    /// Worker-thread count (`--threads`; `None` leaves `RUMBA_THREADS`/auto
    /// in charge).
    pub threads: Option<usize>,
    /// SIMD dispatch (`--simd 0|1|auto`; `None` leaves the `RUMBA_SIMD`
    /// environment variable in charge).
    pub simd: Option<SimdMode>,
    /// JSONL telemetry destination (`--metrics-out`; `None` leaves the
    /// `RUMBA_METRICS_OUT` environment variable in charge).
    pub metrics_out: Option<String>,
}

/// Why a command line failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The first word was not a known subcommand.
    UnknownCommand(String),
    /// A flag that needs a value reached the end of the arguments.
    MissingValue(&'static str),
    /// A flag value failed validation.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// The offending text.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// A positional argument (the kernel name) is missing.
    MissingKernel,
    /// An argument was not recognized in this position.
    UnknownFlag(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnknownCommand(c) => write!(f, "unknown command '{c}' (try 'rumba help')"),
            ParseError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ParseError::BadValue { flag, value, expected } => {
                write!(f, "{flag} got '{value}', expected {expected}")
            }
            ParseError::MissingKernel => write!(f, "missing benchmark name (try 'rumba list')"),
            ParseError::UnknownFlag(a) => write!(f, "unrecognized argument '{a}'"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses the arguments after the program name into the command and the
/// overrides it runs under.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem found.
///
/// # Examples
///
/// ```
/// use rumba_cli::args::{parse, Command, Overrides};
///
/// let (cmd, overrides) = parse(&["list".to_owned()]).unwrap();
/// assert_eq!(cmd, Command::List);
/// assert_eq!(overrides, Overrides::default());
/// ```
pub fn parse(args: &[String]) -> Result<(Command, Overrides), ParseError> {
    let (name, rest) = match args.split_first() {
        Some((name, rest)) => (name.as_str(), rest),
        None => ("help", args),
    };
    let mut f = Flags::default();
    let command = match name {
        "help" | "--help" | "-h" => Command::Help,
        "list" => {
            f.walk(rest, &[])?;
            Command::List
        }
        "purity" => {
            let (kernel, rest) = operand(rest, ParseError::MissingKernel)?;
            f.walk(rest, &[])?;
            Command::Purity { kernel }
        }
        "report" => {
            let (path, rest) = operand(rest, ParseError::MissingValue("report <path.jsonl>"))?;
            f.walk(rest, &[])?;
            Command::Report { path }
        }
        "train" => {
            let (kernel, rest) = operand(rest, ParseError::MissingKernel)?;
            f.walk(rest, &["--seed", "--threads", "--simd", "--metrics-out"])?;
            Command::Train { kernel, seed: f.seed.unwrap_or(42) }
        }
        "run" => {
            let (kernel, rest) = operand(rest, ParseError::MissingKernel)?;
            f.walk(
                rest,
                &[
                    "--seed",
                    "--checker",
                    "--toq",
                    "--budget",
                    "--quality-mode",
                    "--window",
                    "--threads",
                    "--simd",
                    "--metrics-out",
                ],
            )?;
            Command::Run {
                kernel,
                seed: f.seed.unwrap_or(42),
                checker: f.checker,
                mode: f.mode.unwrap_or_default(),
                window: f.window.unwrap_or(256),
            }
        }
        "faults" => {
            f.walk(
                rest,
                &[
                    "--kernels",
                    "--seed",
                    "--rate",
                    "--window",
                    "--threads",
                    "--simd",
                    "--metrics-out",
                ],
            )?;
            Command::Faults {
                kernels: std::mem::take(&mut f.kernels),
                seed: f.seed.unwrap_or(42),
                rate: f.rate.unwrap_or(1e-3),
                window: f.window.unwrap_or(128),
            }
        }
        "compensate" => {
            f.walk(
                rest,
                &["--kernels", "--seed", "--toq", "--threads", "--simd", "--metrics-out"],
            )?;
            Command::Compensate {
                kernels: std::mem::take(&mut f.kernels),
                seed: f.seed.unwrap_or(42),
                toq: f.toq(0.9),
            }
        }
        "zoo" => {
            f.walk(
                rest,
                &[
                    "--kernels",
                    "--seed",
                    "--toq",
                    "--tiers",
                    "--threads",
                    "--simd",
                    "--metrics-out",
                ],
            )?;
            Command::Zoo {
                kernels: std::mem::take(&mut f.kernels),
                seed: f.seed.unwrap_or(42),
                toq: f.toq(0.95),
                tiers: f.tiers.unwrap_or(3),
            }
        }
        "drift" => {
            f.walk(
                rest,
                &["--kernels", "--seed", "--window", "--threads", "--simd", "--metrics-out"],
            )?;
            Command::Drift {
                kernels: std::mem::take(&mut f.kernels),
                seed: f.seed.unwrap_or(42),
                window: f.window.unwrap_or(128),
            }
        }
        "serve" => {
            f.walk(rest, &["--socket", "--tcp", "--shards", "--threads", "--simd"])?;
            Command::Serve {
                socket: f.socket.take(),
                tcp: f.tcp.take(),
                shards: f.shards.unwrap_or(1),
            }
        }
        "bench-serve" => {
            f.walk(
                rest,
                &["--seed", "--tenants", "--requests", "--shards", "--threads", "--simd"],
            )?;
            Command::BenchServe {
                seed: f.seed.unwrap_or(7),
                tenants: f.tenants.unwrap_or(3),
                requests: f.requests.unwrap_or(40),
                shards: f.shards,
            }
        }
        other => return Err(ParseError::UnknownCommand(other.to_owned())),
    };
    Ok((command, f.overrides))
}

/// Splits the operand a subcommand takes before its flags off `rest`.
fn operand(rest: &[String], missing: ParseError) -> Result<(String, &[String]), ParseError> {
    let (first, tail) = rest.split_first().ok_or(missing)?;
    Ok((first.clone(), tail))
}

/// Every flag value, as the walker found it: `None` (or empty, or the
/// default checker) for a flag that was not given, so each subcommand
/// applies its own defaults.
#[derive(Default)]
struct Flags {
    seed: Option<u64>,
    kernels: Vec<String>,
    /// `--toq`, `--budget` and `--quality-mode`: the last one given wins.
    mode: Option<ModeChoice>,
    window: Option<usize>,
    tiers: Option<usize>,
    rate: Option<f64>,
    shards: Option<usize>,
    tenants: Option<usize>,
    requests: Option<usize>,
    checker: CheckerChoice,
    socket: Option<String>,
    tcp: Option<String>,
    overrides: Overrides,
}

impl Flags {
    /// Walks `args` in order, keeping the last value of each flag, and
    /// stops at the first argument that is not in `accepted`, lacks its
    /// value or fails validation. Every flag is parsed here and nowhere
    /// else.
    fn walk(&mut self, args: &[String], accepted: &[&'static str]) -> Result<(), ParseError> {
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            let Some(&flag) = accepted.iter().find(|&&f| f == arg) else {
                return Err(ParseError::UnknownFlag(arg.to_owned()));
            };
            if flag == "--quality-mode" {
                self.mode = Some(ModeChoice::Quality);
                continue;
            }
            let value = args.next().ok_or(ParseError::MissingValue(flag))?;
            // A count in `1..=max`; out of range reports the parsed number.
            let count = |max: u64, expected| -> Result<usize, ParseError> {
                let v = parse_u64(value, flag)?;
                if (1..=max).contains(&v) {
                    Ok(v as usize)
                } else {
                    Err(bad(flag, v, expected))
                }
            };
            match flag {
                "--seed" => self.seed = Some(parse_u64(value, flag)?),
                "--kernels" => {
                    self.kernels =
                        value.split(',').filter(|s| !s.is_empty()).map(str::to_owned).collect();
                    if self.kernels.is_empty() {
                        return Err(bad(flag, value, "a comma-separated benchmark list"));
                    }
                }
                "--toq" => {
                    self.mode =
                        Some(ModeChoice::Toq(parse_unit(value, flag, "a quality in (0, 1]")?));
                }
                "--budget" => {
                    self.mode = Some(ModeChoice::Energy(parse_u64(value, flag)? as usize))
                }
                "--window" => self.window = Some(count(u64::MAX, "a positive window length")?),
                "--tiers" => self.tiers = Some(count(8, "a ladder size in 1..=8")?),
                "--rate" => {
                    self.rate = Some(parse_unit(value, flag, "an injection rate in (0, 1]")?)
                }
                "--shards" => self.shards = Some(count(u64::MAX, "a positive shard count")?),
                "--tenants" => self.tenants = Some(count(u64::MAX, "a positive tenant count")?),
                "--requests" => self.requests = Some(count(u64::MAX, "a positive request count")?),
                "--checker" => self.checker = CheckerChoice::parse(value)?,
                "--socket" => self.socket = Some(parse_path(value, flag)?),
                "--tcp" => self.tcp = Some(parse_path(value, flag)?),
                "--threads" => {
                    self.overrides.threads =
                        Some(count(u64::MAX, "a positive worker-thread count")?);
                }
                "--simd" => {
                    let simd =
                        SimdMode::parse(value).ok_or_else(|| bad(flag, value, "0|1|auto"))?;
                    self.overrides.simd = Some(simd);
                }
                "--metrics-out" => self.overrides.metrics_out = Some(parse_path(value, flag)?),
                _ => unreachable!("{flag} is accepted but has no parse arm"),
            }
        }
        Ok(())
    }

    /// The `--toq` value, or `default` when none was given.
    fn toq(&self, default: f64) -> f64 {
        match self.mode {
            Some(ModeChoice::Toq(q)) => q,
            _ => default,
        }
    }
}

fn bad(flag: &'static str, value: impl ToString, expected: &'static str) -> ParseError {
    ParseError::BadValue { flag, value: value.to_string(), expected }
}

fn parse_u64(value: &str, flag: &'static str) -> Result<u64, ParseError> {
    value.parse().map_err(|_| bad(flag, value, "an unsigned integer"))
}

/// A number in `(0, 1]`; out of range reports the parsed number.
fn parse_unit(value: &str, flag: &'static str, expected: &'static str) -> Result<f64, ParseError> {
    let v: f64 = value.parse().map_err(|_| bad(flag, value, "a number"))?;
    if v > 0.0 && v <= 1.0 {
        Ok(v)
    } else {
        Err(bad(flag, v, expected))
    }
}

fn parse_path(value: &str, flag: &'static str) -> Result<String, ParseError> {
    if value.trim().is_empty() {
        return Err(bad(flag, value, "a file path"));
    }
    Ok(value.to_owned())
}

/// The help text `rumba help` prints.
pub const HELP: &str = "\
rumba — online quality management for approximate accelerators

USAGE:
    rumba list
    rumba train <kernel> [--seed N] [--threads N] [--simd M]
                         [--metrics-out PATH]
    rumba run <kernel> [--checker linear|tree|ema|evp|table|ensemble]
                       [--toq Q | --budget N | --quality-mode]
                       [--window N] [--seed N] [--threads N] [--simd M]
                       [--metrics-out PATH]
    rumba faults [--kernels a,b,...] [--seed N] [--rate R] [--window N]
                 [--threads N] [--simd M] [--metrics-out PATH]
    rumba compensate [--kernels a,b,...] [--seed N] [--toq Q]
                     [--threads N] [--simd M] [--metrics-out PATH]
    rumba zoo [--kernels a,b,...] [--seed N] [--toq Q] [--tiers N]
              [--threads N] [--simd M] [--metrics-out PATH]
    rumba drift [--kernels a,b,...] [--seed N] [--window N]
                [--threads N] [--simd M] [--metrics-out PATH]
    rumba report <path.jsonl>
    rumba purity <kernel>
    rumba serve [--socket PATH | --tcp HOST:PORT] [--shards N]
                [--threads N] [--simd M]
    rumba bench-serve [--seed N] [--tenants N] [--requests N]
                      [--shards N] [--threads N] [--simd M]
    rumba help

THREADS:
    --threads N sets the worker-thread count for training and batch
    evaluation, overriding the RUMBA_THREADS environment variable (the
    default is the machine's available parallelism). Output is
    bit-identical at every thread count; --threads 1 runs fully serial.

SIMD:
    --simd 0|1|auto selects the neural-network batch kernels, overriding
    the RUMBA_SIMD environment variable: 0 forces the scalar path, 1
    requests the vector path (AVX2 on x86_64, NEON on aarch64), auto (the
    default) picks the best ISA the CPU supports. The vector kernels keep
    the scalar reduction order exactly, so output is bit-identical at
    every setting; on hardware without AVX2/NEON, --simd 1 silently falls
    back to scalar. The dispatched ISA is recorded in the 'pool'
    telemetry event ('rumba report' prints it).

TELEMETRY:
    --metrics-out PATH streams control-loop telemetry (per-window
    threshold/quality/fire-rate events, cache probes, pool usage) to PATH
    as JSON lines, overriding the RUMBA_METRICS_OUT environment variable.
    Telemetry is purely observational: command output is byte-identical
    with it on or off. 'rumba report <path.jsonl>' summarizes a stream.

FAULTS:
    rumba faults injects seed-deterministic transient faults (datapath
    bit-flips, NaN/Inf corruption, stuck-at outputs, input drift) into the
    accelerator and reports a detection-coverage table per checker, then
    runs the managed loop under NaN injection at --rate (default 1e-3) to
    demonstrate quarantine + watchdog degradation: merged outputs must
    stay finite or the command fails. --kernels defaults to gaussian,fft.

COMPENSATION:
    rumba compensate analyses the predict-and-compensate recovery mix:
    checkers emit signed error estimates, so flagged invocations whose
    predicted error is small can be repaired in place (approx minus
    predicted error) instead of re-executed on the CPU. Per kernel and
    checker the sweep reports how many CPU re-executions the
    re-execution-only policy needs to meet --toq (default 0.9), the
    mixed policy's split (worst offenders re-executed, the mildly wrong
    band compensated), the residual error of both at equal quality, and
    the energy per repaired invocation. Online, the same mechanism is
    the Compensate fix scheme: 'rumba serve' sessions opt in with
    fix=compensate plus a band, and the tuner co-adapts the band with
    the firing threshold.

MODEL ZOO:
    rumba zoo trains, per kernel, a ladder of --tiers approximators at
    distinct quality/energy points (smaller hidden layers, fewer
    fixed-point fraction bits) on top of the full Rumba accelerator, plus
    a cheap per-tier linear router that predicts each tier's invocation
    error from the input features. Online, every invocation is routed to
    the cheapest tier predicted to meet --toq (default 0.95), with exact
    CPU execution as the last resort; the checker/recovery loop still
    guards every model-tier invocation, so the TOQ holds. The sweep
    reports the modeled energy of the routed zoo against the single-model
    baseline at equal quality, plus the tier mix. 'rumba serve' sessions
    opt in with zoo=N; under queue pressure a serving session degrades to
    cheaper tiers before shedding requests. Trained ladders persist in
    the model cache, so figure binaries reload instead of retraining.

DRIFT:
    rumba drift streams seeded open-world workloads at each kernel —
    steady replay, drifting input distributions, a diurnal load curve,
    correlated multi-tenant bursts — every sample a pure hash of (seed,
    scenario, invocation), so the sweep is bit-identical at any thread
    count, SIMD path or shard layout. The drift scenario additionally
    ramps an input_drift fault plan inside the accelerator: the checker
    sees pristine inputs, so a checker fit offline goes blind. Per kernel
    x scenario the sweep reports the detection coverage (share of
    truly-bad invocations the checker fires on) of the clean-stream
    baseline, of the reset-only watchdog (refit off), and of the online
    checker re-fit (refit on), which audits every Nth invocation against
    the exact kernel, accumulates (input, exact, approx) rows in a
    bounded deterministic reservoir, and re-fits + re-calibrates the
    checker at the Recalibrated rung of the watchdog ladder, committing
    the swap serially at a --window boundary. 'rumba serve' sessions opt
    in with refit=true; the reservoir and refit epoch travel in session
    snapshots, so mid-refit migration is bit-for-bit.

SERVING:
    rumba serve runs a long-lived multi-tenant serving loop: clients open
    named sessions (each with its own kernel, checker, tuning mode, fault
    plan and quality state), submit requests, and drain results over a
    newline-delimited JSON protocol on stdin/stdout, --socket PATH (a
    Unix domain socket) or --tcp HOST:PORT. The socket and TCP transports
    accept many concurrent connections and fan them into --shards N shard
    threads (default 1); each shard owns the sessions that hash to it, so
    placement is reproducible and responses are bit-identical at any
    shard count. The snapshot op serializes a session's live state as one
    plain-text line; restore rebuilds it bit-for-bit (under any name, so
    sessions migrate between shards and survive crashes). shutdown drains
    every shard, removes the socket file and flushes telemetry before the
    ack. Per-session bounded queues apply shed (503-style rejection) or
    block admission when full. One tenant's faults never move another
    tenant's threshold. rumba bench-serve replays a seeded interleaved
    workload and prints the canonical response trace; the trace is
    byte-identical at every thread count (ci/serve_trace.golden gates
    this). With --shards N the same workload runs over real TCP, one
    lockstep connection per tenant (ci/serve_net.golden gates this at
    shards 1 and 2).

EXAMPLES:
    rumba run inversek2j --checker tree --toq 0.9
    rumba compensate --kernels gaussian,fft --toq 0.9
    rumba zoo --kernels gaussian,inversek2j --tiers 3 --toq 0.95
    rumba drift --kernels gaussian --seed 7
    rumba run blackscholes --budget 16 --window 256
    rumba run fft --checker ensemble --quality-mode
    rumba train kmeans --threads 4
    rumba run gaussian --toq 0.95 --metrics-out run.jsonl
    rumba report run.jsonl
";

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<(Command, Overrides), ParseError> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&args)
    }

    fn p(line: &str) -> Result<Command, ParseError> {
        parsed(line).map(|(command, _)| command)
    }

    fn overrides(line: &str) -> Overrides {
        parsed(line).unwrap().1
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(p("list").unwrap(), Command::List);
        assert_eq!(p("help").unwrap(), Command::Help);
        assert_eq!(p("").unwrap(), Command::Help);
        assert_eq!(p("purity sobel").unwrap(), Command::Purity { kernel: "sobel".into() });
    }

    #[test]
    fn parses_run_with_defaults() {
        assert_eq!(
            parsed("run fft").unwrap(),
            (
                Command::Run {
                    kernel: "fft".into(),
                    seed: 42,
                    checker: CheckerChoice::Tree,
                    mode: ModeChoice::Toq(0.9),
                    window: 256,
                },
                Overrides::default()
            )
        );
    }

    #[test]
    fn parses_run_with_all_flags() {
        let got = parsed("run jmeint --checker ema --toq 0.95 --window 128 --seed 7 --threads 4 --simd 1 --metrics-out m.jsonl")
            .unwrap();
        assert_eq!(
            got,
            (
                Command::Run {
                    kernel: "jmeint".into(),
                    seed: 7,
                    checker: CheckerChoice::Ema,
                    mode: ModeChoice::Toq(0.95),
                    window: 128,
                },
                Overrides {
                    threads: Some(4),
                    simd: Some(SimdMode::On),
                    metrics_out: Some("m.jsonl".into()),
                }
            )
        );
    }

    #[test]
    fn parses_threads_on_train_and_rejects_zero() {
        assert_eq!(
            parsed("train kmeans --threads 8").unwrap(),
            (
                Command::Train { kernel: "kmeans".into(), seed: 42 },
                Overrides { threads: Some(8), ..Overrides::default() }
            )
        );
        assert_eq!(
            parsed("train kmeans").unwrap(),
            (Command::Train { kernel: "kmeans".into(), seed: 42 }, Overrides::default())
        );
        assert!(matches!(p("run fft --threads 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("train fft --threads"), Err(ParseError::MissingValue("--threads"))));
        assert!(matches!(p("run fft --threads two"), Err(ParseError::BadValue { .. })));
    }

    #[test]
    fn help_documents_threads_flag() {
        assert!(HELP.contains("--threads N"));
        assert!(HELP.contains("RUMBA_THREADS"));
    }

    #[test]
    fn parses_simd_spellings_and_rejects_garbage() {
        assert_eq!(overrides("run fft --simd 0").simd, Some(SimdMode::Off));
        assert_eq!(overrides("run fft --simd on").simd, Some(SimdMode::On));
        assert_eq!(overrides("train fft --simd auto").simd, Some(SimdMode::Auto));
        assert_eq!(overrides("serve --simd scalar").simd, Some(SimdMode::Off));
        assert!(matches!(p("run fft --simd"), Err(ParseError::MissingValue("--simd"))));
        assert!(matches!(p("run fft --simd avx512"), Err(ParseError::BadValue { .. })));
    }

    #[test]
    fn help_documents_simd_flag() {
        assert!(HELP.contains("--simd 0|1|auto"));
        assert!(HELP.contains("RUMBA_SIMD"));
        assert!(HELP.contains("AVX2"));
        assert!(HELP.contains("NEON"));
    }

    #[test]
    fn parses_report_and_metrics_out() {
        assert_eq!(p("report m.jsonl").unwrap(), Command::Report { path: "m.jsonl".into() });
        assert!(matches!(p("report"), Err(ParseError::MissingValue(_))));
        assert!(matches!(p("report a.jsonl extra"), Err(ParseError::UnknownFlag(_))));
        assert_eq!(
            overrides("train fft --metrics-out out.jsonl").metrics_out.as_deref(),
            Some("out.jsonl")
        );
        assert!(matches!(
            p("run fft --metrics-out"),
            Err(ParseError::MissingValue("--metrics-out"))
        ));
    }

    #[test]
    fn help_documents_telemetry() {
        assert!(HELP.contains("--metrics-out"));
        assert!(HELP.contains("RUMBA_METRICS_OUT"));
        assert!(HELP.contains("rumba report"));
    }

    #[test]
    fn budget_and_quality_modes() {
        assert!(matches!(
            p("run fft --budget 16").unwrap(),
            Command::Run { mode: ModeChoice::Energy(16), .. }
        ));
        assert!(matches!(
            p("run fft --quality-mode").unwrap(),
            Command::Run { mode: ModeChoice::Quality, .. }
        ));
    }

    #[test]
    fn parses_faults_with_defaults_and_flags() {
        assert_eq!(
            parsed("faults").unwrap(),
            (
                Command::Faults { kernels: vec![], seed: 42, rate: 1e-3, window: 128 },
                Overrides::default()
            )
        );
        assert_eq!(
            parsed("faults --kernels gaussian,fft --seed 7 --rate 0.01 --window 64 --threads 2 --simd 0 --metrics-out f.jsonl")
                .unwrap(),
            (
                Command::Faults {
                    kernels: vec!["gaussian".into(), "fft".into()],
                    seed: 7,
                    rate: 0.01,
                    window: 64,
                },
                Overrides {
                    threads: Some(2),
                    simd: Some(SimdMode::Off),
                    metrics_out: Some("f.jsonl".into()),
                }
            )
        );
        assert!(matches!(p("faults --rate 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("faults --rate 1.5"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("faults --kernels"), Err(ParseError::MissingValue("--kernels"))));
        assert!(matches!(p("faults --kernels ,"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("faults --wat"), Err(ParseError::UnknownFlag(_))));
    }

    #[test]
    fn parses_compensate_with_defaults_and_flags() {
        assert_eq!(
            parsed("compensate").unwrap(),
            (Command::Compensate { kernels: vec![], seed: 42, toq: 0.9 }, Overrides::default())
        );
        assert_eq!(
            parsed("compensate --kernels gaussian,fft --seed 9 --toq 0.95 --threads 2 --simd 1 --metrics-out c.jsonl")
                .unwrap(),
            (
                Command::Compensate {
                    kernels: vec!["gaussian".into(), "fft".into()],
                    seed: 9,
                    toq: 0.95,
                },
                Overrides {
                    threads: Some(2),
                    simd: Some(SimdMode::On),
                    metrics_out: Some("c.jsonl".into()),
                }
            )
        );
        assert!(matches!(p("compensate --toq 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("compensate --toq 1.5"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("compensate --kernels ,"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("compensate --wat"), Err(ParseError::UnknownFlag(_))));
    }

    #[test]
    fn help_documents_compensation() {
        assert!(HELP.contains("rumba compensate"));
        assert!(HELP.contains("signed error estimates"));
        assert!(HELP.contains("fix=compensate"));
    }

    #[test]
    fn parses_zoo_with_defaults_and_flags() {
        assert_eq!(
            parsed("zoo").unwrap(),
            (Command::Zoo { kernels: vec![], seed: 42, toq: 0.95, tiers: 3 }, Overrides::default())
        );
        assert_eq!(
            parsed("zoo --kernels gaussian,fft --seed 9 --toq 0.9 --tiers 4 --threads 2 --simd 1 --metrics-out z.jsonl")
                .unwrap(),
            (
                Command::Zoo {
                    kernels: vec!["gaussian".into(), "fft".into()],
                    seed: 9,
                    toq: 0.9,
                    tiers: 4,
                },
                Overrides {
                    threads: Some(2),
                    simd: Some(SimdMode::On),
                    metrics_out: Some("z.jsonl".into()),
                }
            )
        );
        assert!(matches!(p("zoo --toq 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("zoo --tiers 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("zoo --tiers 9"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("zoo --wat"), Err(ParseError::UnknownFlag(_))));
    }

    #[test]
    fn parses_drift_with_defaults_and_flags() {
        assert_eq!(
            parsed("drift").unwrap(),
            (Command::Drift { kernels: vec![], seed: 42, window: 128 }, Overrides::default())
        );
        assert_eq!(
            parsed("drift --kernels gaussian --seed 7 --window 64 --threads 4 --simd 0 --metrics-out d.jsonl")
                .unwrap(),
            (
                Command::Drift { kernels: vec!["gaussian".into()], seed: 7, window: 64 },
                Overrides {
                    threads: Some(4),
                    simd: Some(SimdMode::Off),
                    metrics_out: Some("d.jsonl".into()),
                }
            )
        );
        assert!(matches!(p("drift --window 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("drift --kernels"), Err(ParseError::MissingValue("--kernels"))));
        assert!(matches!(p("drift --wat"), Err(ParseError::UnknownFlag(_))));
    }

    #[test]
    fn help_documents_drift() {
        assert!(HELP.contains("rumba drift"));
        assert!(HELP.contains("detection coverage"));
        assert!(HELP.contains("refit=true"));
        assert!(HELP.contains("Recalibrated rung"));
    }

    #[test]
    fn help_documents_the_model_zoo() {
        assert!(HELP.contains("rumba zoo"));
        assert!(HELP.contains("--tiers"));
        assert!(HELP.contains("zoo=N"));
        assert!(HELP.contains("cheaper tiers before shedding"));
    }

    #[test]
    fn help_documents_faults() {
        assert!(HELP.contains("rumba faults"));
        assert!(HELP.contains("--rate"));
        assert!(HELP.contains("detection-coverage"));
    }

    #[test]
    fn parses_serve_and_bench_serve() {
        assert_eq!(
            parsed("serve").unwrap(),
            (Command::Serve { socket: None, tcp: None, shards: 1 }, Overrides::default())
        );
        assert_eq!(
            parsed("serve --socket /tmp/rumba.sock --threads 2 --simd auto").unwrap(),
            (
                Command::Serve { socket: Some("/tmp/rumba.sock".into()), tcp: None, shards: 1 },
                Overrides { threads: Some(2), simd: Some(SimdMode::Auto), metrics_out: None }
            )
        );
        assert_eq!(
            p("serve --tcp 127.0.0.1:7077 --shards 4").unwrap(),
            Command::Serve { socket: None, tcp: Some("127.0.0.1:7077".into()), shards: 4 }
        );
        assert_eq!(
            parsed("bench-serve").unwrap(),
            (
                Command::BenchServe { seed: 7, tenants: 3, requests: 40, shards: None },
                Overrides::default()
            )
        );
        assert_eq!(
            parsed(
                "bench-serve --seed 9 --tenants 2 --requests 12 --shards 2 --threads 4 --simd 1"
            )
            .unwrap(),
            (
                Command::BenchServe { seed: 9, tenants: 2, requests: 12, shards: Some(2) },
                Overrides { threads: Some(4), simd: Some(SimdMode::On), metrics_out: None }
            )
        );
        assert!(matches!(p("serve --socket"), Err(ParseError::MissingValue("--socket"))));
        assert!(matches!(p("serve --shards 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("bench-serve --shards 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("bench-serve --tenants 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("bench-serve --requests 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("serve --wat"), Err(ParseError::UnknownFlag(_))));
    }

    #[test]
    fn help_documents_serving() {
        assert!(HELP.contains("rumba serve"));
        assert!(HELP.contains("rumba bench-serve"));
        assert!(HELP.contains("serve_trace.golden"));
        assert!(HELP.contains("serve_net.golden"));
        assert!(HELP.contains("--shards"));
        assert!(HELP.contains("snapshot"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(p("frobnicate"), Err(ParseError::UnknownCommand(_))));
        assert!(matches!(p("run"), Err(ParseError::MissingKernel)));
        assert!(matches!(p("run fft --seed"), Err(ParseError::MissingValue("--seed"))));
        assert!(matches!(p("run fft --toq 1.5"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("run fft --toq abc"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("run fft --window 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("run fft --wat"), Err(ParseError::UnknownFlag(_))));
        assert!(matches!(p("run fft --checker magic"), Err(ParseError::BadValue { .. })));
    }

    #[test]
    fn errors_display_helpfully() {
        let e = p("run fft --checker magic").unwrap_err();
        assert!(e.to_string().contains("--checker"));
        assert!(e.to_string().contains("magic"));
    }

    // The flag grammar as a table: every subcommand against the union of
    // all flags.

    /// Every subcommand but `help`, with the operand it needs first.
    const SUBCOMMANDS: [&str; 11] = [
        "list",
        "purity sobel",
        "report m.jsonl",
        "train fft",
        "run fft",
        "faults",
        "compensate",
        "zoo",
        "drift",
        "serve",
        "bench-serve",
    ];

    /// Every flag with a valid sample value (`None` for a switch).
    const FLAGS: [(&str, Option<&str>); 17] = [
        ("--seed", Some("3")),
        ("--kernels", Some("fft,sobel")),
        ("--toq", Some("0.5")),
        ("--budget", Some("4")),
        ("--quality-mode", None),
        ("--window", Some("8")),
        ("--tiers", Some("2")),
        ("--rate", Some("0.5")),
        ("--shards", Some("2")),
        ("--tenants", Some("2")),
        ("--requests", Some("5")),
        ("--checker", Some("ema")),
        ("--socket", Some("r.sock")),
        ("--tcp", Some("127.0.0.1:7077")),
        ("--threads", Some("2")),
        ("--simd", Some("1")),
        ("--metrics-out", Some("m.jsonl")),
    ];

    /// The flags `cmd` accepts; any other flag is an `UnknownFlag`.
    fn accepts(cmd: &str) -> &'static [&'static str] {
        match cmd.split(' ').next().unwrap() {
            "list" | "purity" | "report" => &[],
            "train" => &["--seed", "--threads", "--simd", "--metrics-out"],
            "run" => &[
                "--seed",
                "--checker",
                "--toq",
                "--budget",
                "--quality-mode",
                "--window",
                "--threads",
                "--simd",
                "--metrics-out",
            ],
            "faults" => &[
                "--kernels",
                "--seed",
                "--rate",
                "--window",
                "--threads",
                "--simd",
                "--metrics-out",
            ],
            "compensate" => {
                &["--kernels", "--seed", "--toq", "--threads", "--simd", "--metrics-out"]
            }
            "zoo" => {
                &["--kernels", "--seed", "--toq", "--tiers", "--threads", "--simd", "--metrics-out"]
            }
            "drift" => &["--kernels", "--seed", "--window", "--threads", "--simd", "--metrics-out"],
            "serve" => &["--socket", "--tcp", "--shards", "--threads", "--simd"],
            "bench-serve" => {
                &["--seed", "--tenants", "--requests", "--shards", "--threads", "--simd"]
            }
            other => panic!("no spec row for {other}"),
        }
    }

    /// Parses `cmd` (split on spaces) followed by `tail` (taken verbatim,
    /// so a value may be blank).
    fn with(cmd: &str, tail: &[&str]) -> Result<Command, ParseError> {
        let args: Vec<String> =
            cmd.split_whitespace().chain(tail.iter().copied()).map(str::to_owned).collect();
        parse(&args).map(|(command, _)| command)
    }

    #[test]
    fn spec_every_subcommand_accepts_exactly_its_flags() {
        for cmd in SUBCOMMANDS {
            for (flag, sample) in FLAGS {
                let tail: Vec<&str> = std::iter::once(flag).chain(sample).collect();
                let got = with(cmd, &tail);
                if accepts(cmd).contains(&flag) {
                    assert!(got.is_ok(), "{cmd} {tail:?}: {got:?}");
                } else {
                    assert_eq!(got, Err(ParseError::UnknownFlag(flag.into())), "{cmd} {tail:?}");
                }
            }
        }
    }

    #[test]
    fn spec_a_value_flag_ending_the_line_is_missing_its_value() {
        for cmd in SUBCOMMANDS {
            for (flag, sample) in FLAGS {
                let got = with(cmd, &[flag]);
                let want = if !accepts(cmd).contains(&flag) {
                    Err(ParseError::UnknownFlag(flag.into()))
                } else if sample.is_some() {
                    Err(ParseError::MissingValue(flag))
                } else {
                    continue; // a switch needs no value
                };
                assert_eq!(got.map(|_| ()), want, "{cmd} {flag}");
            }
        }
    }

    #[test]
    fn spec_bad_values_display_exactly() {
        let quality = "expected a quality in (0, 1]";
        let cases: [(&str, &str, String); 30] = [
            ("--toq", "1.5", format!("--toq got '1.5', {quality}")),
            ("--toq", "1.50", format!("--toq got '1.5', {quality}")),
            ("--toq", "0", format!("--toq got '0', {quality}")),
            ("--toq", "NaN", format!("--toq got 'NaN', {quality}")),
            ("--toq", "abc", "--toq got 'abc', expected a number".into()),
            ("--rate", "0", "--rate got '0', expected an injection rate in (0, 1]".into()),
            ("--rate", "2e0", "--rate got '2', expected an injection rate in (0, 1]".into()),
            ("--rate", "x", "--rate got 'x', expected a number".into()),
            ("--window", "0", "--window got '0', expected a positive window length".into()),
            ("--window", "00", "--window got '0', expected a positive window length".into()),
            ("--window", "-1", "--window got '-1', expected an unsigned integer".into()),
            ("--tiers", "9", "--tiers got '9', expected a ladder size in 1..=8".into()),
            ("--tiers", "09", "--tiers got '9', expected a ladder size in 1..=8".into()),
            ("--tiers", "0", "--tiers got '0', expected a ladder size in 1..=8".into()),
            ("--shards", "0", "--shards got '0', expected a positive shard count".into()),
            ("--shards", "00", "--shards got '0', expected a positive shard count".into()),
            ("--threads", "0", "--threads got '0', expected a positive worker-thread count".into()),
            ("--threads", "two", "--threads got 'two', expected an unsigned integer".into()),
            ("--tenants", "0", "--tenants got '0', expected a positive tenant count".into()),
            ("--requests", "0", "--requests got '0', expected a positive request count".into()),
            ("--seed", "x", "--seed got 'x', expected an unsigned integer".into()),
            ("--budget", "-3", "--budget got '-3', expected an unsigned integer".into()),
            ("--simd", "x", "--simd got 'x', expected 0|1|auto".into()),
            (
                "--checker",
                "magic",
                "--checker got 'magic', expected linear|tree|ema|evp|table|ensemble".into(),
            ),
            ("--metrics-out", " ", "--metrics-out got ' ', expected a file path".into()),
            ("--socket", " ", "--socket got ' ', expected a file path".into()),
            ("--tcp", "", "--tcp got '', expected a file path".into()),
            (
                "--kernels",
                ",",
                "--kernels got ',', expected a comma-separated benchmark list".into(),
            ),
            (
                "--kernels",
                ",,",
                "--kernels got ',,', expected a comma-separated benchmark list".into(),
            ),
            ("--seed", "--toq", "--seed got '--toq', expected an unsigned integer".into()),
        ];
        for (flag, value, want) in &cases {
            let takers: Vec<&str> =
                SUBCOMMANDS.into_iter().filter(|cmd| accepts(cmd).contains(flag)).collect();
            assert!(!takers.is_empty(), "{flag} is accepted nowhere");
            for cmd in takers {
                let got = with(cmd, &[flag, value]).unwrap_err();
                assert!(matches!(got, ParseError::BadValue { .. }), "{cmd} {flag} {value:?}");
                assert_eq!(got.to_string(), *want, "{cmd} {flag} {value:?}");
            }
        }
    }

    /// The seed a parsed command runs at, if it takes one.
    fn seed_of(cmd: &Command) -> Option<u64> {
        match cmd {
            Command::Train { seed, .. }
            | Command::Run { seed, .. }
            | Command::Faults { seed, .. }
            | Command::Compensate { seed, .. }
            | Command::Zoo { seed, .. }
            | Command::Drift { seed, .. }
            | Command::BenchServe { seed, .. } => Some(*seed),
            _ => None,
        }
    }

    #[test]
    fn spec_a_repeated_flag_keeps_its_last_value() {
        for cmd in SUBCOMMANDS.into_iter().filter(|cmd| accepts(cmd).contains(&"--seed")) {
            let got = with(cmd, &["--seed", "3", "--seed", "11"]).unwrap();
            assert_eq!(seed_of(&got), Some(11), "{cmd}");
        }
        let mode = |tail: &str| match p(&format!("run fft {tail}")).unwrap() {
            Command::Run { mode, .. } => mode,
            other => panic!("{other:?}"),
        };
        assert_eq!(mode("--toq 0.5 --budget 3 --quality-mode"), ModeChoice::Quality);
        assert_eq!(mode("--quality-mode --toq 0.5 --budget 3"), ModeChoice::Energy(3));
        assert_eq!(mode("--budget 3 --quality-mode --toq 0.5"), ModeChoice::Toq(0.5));
        assert_eq!(mode("--toq 0.5 --toq 0.7"), ModeChoice::Toq(0.7));
        assert!(matches!(
            p("zoo --toq 0.5 --toq 0.7 --kernels fft --kernels sobel,jpeg").unwrap(),
            Command::Zoo { toq, kernels, .. } if toq == 0.7 && kernels == ["sobel", "jpeg"]
        ));
    }

    #[test]
    fn spec_the_first_error_in_argument_order_wins() {
        let err = |line: &str| p(line).unwrap_err().to_string();
        assert_eq!(err("run fft --toq 2 --wat"), "--toq got '2', expected a quality in (0, 1]");
        assert_eq!(err("run fft --wat --toq 2"), "unrecognized argument '--wat'");
        assert_eq!(
            err("serve --metrics-out m --shards 0"),
            "unrecognized argument '--metrics-out'"
        );
        assert_eq!(err("zoo --tiers 0 --seed"), "--tiers got '0', expected a ladder size in 1..=8");
        assert_eq!(err("bench-serve --tenants 2 --seed"), "--seed needs a value");
        // The operand comes before any flag, so a flag in its place is
        // taken as the operand.
        assert_eq!(err("train --seed 3"), "unrecognized argument '3'");
        assert_eq!(err("run"), "missing benchmark name (try 'rumba list')");
        assert_eq!(err("report"), "report <path.jsonl> needs a value");
        assert_eq!(err("report a b"), "unrecognized argument 'b'");
        assert_eq!(err("purity sobel extra"), "unrecognized argument 'extra'");
        assert_eq!(err("list --bogus"), "unrecognized argument '--bogus'");
        assert_eq!(err("frobnicate --seed 3"), "unknown command 'frobnicate' (try 'rumba help')");
        // A value is taken verbatim, even when it looks like a flag.
        assert!(p("run fft --metrics-out --threads").is_ok());
        // Help stays lenient.
        assert_eq!(p("help --wat").unwrap(), Command::Help);
        assert_eq!(p("-h me").unwrap(), Command::Help);
    }
}
