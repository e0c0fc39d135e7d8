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
            other => Err(ParseError::BadValue {
                flag: "--checker",
                value: other.to_owned(),
                expected: "linear|tree|ema|evp|table|ensemble",
            }),
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

/// A parsed command line.
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
        /// Worker-thread override (`None` leaves `RUMBA_THREADS`/auto in
        /// charge). Results are identical at any setting.
        threads: Option<usize>,
        /// SIMD dispatch override (`--simd 0|1|auto`; `None` leaves the
        /// `RUMBA_SIMD` environment variable in charge). Results are
        /// bit-identical at any setting.
        simd: Option<SimdMode>,
        /// JSONL telemetry destination (`--metrics-out`); `None` leaves the
        /// `RUMBA_METRICS_OUT` environment variable in charge.
        metrics_out: Option<String>,
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
        /// Worker-thread override (`None` leaves `RUMBA_THREADS`/auto in
        /// charge). Results are identical at any setting.
        threads: Option<usize>,
        /// SIMD dispatch override (`--simd 0|1|auto`; `None` leaves the
        /// `RUMBA_SIMD` environment variable in charge). Results are
        /// bit-identical at any setting.
        simd: Option<SimdMode>,
        /// JSONL telemetry destination (`--metrics-out`); `None` leaves the
        /// `RUMBA_METRICS_OUT` environment variable in charge.
        metrics_out: Option<String>,
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
        /// Worker-thread override (`None` leaves `RUMBA_THREADS`/auto in
        /// charge). Results are identical at any setting.
        threads: Option<usize>,
        /// SIMD dispatch override (`--simd 0|1|auto`; `None` leaves the
        /// `RUMBA_SIMD` environment variable in charge). Results are
        /// bit-identical at any setting.
        simd: Option<SimdMode>,
        /// JSONL telemetry destination (`--metrics-out`); `None` leaves the
        /// `RUMBA_METRICS_OUT` environment variable in charge.
        metrics_out: Option<String>,
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
        /// Worker-thread override (`None` leaves `RUMBA_THREADS`/auto in
        /// charge). Results are identical at any setting.
        threads: Option<usize>,
        /// SIMD dispatch override (`--simd 0|1|auto`; `None` leaves the
        /// `RUMBA_SIMD` environment variable in charge). Results are
        /// bit-identical at any setting.
        simd: Option<SimdMode>,
        /// JSONL telemetry destination (`--metrics-out`); `None` leaves the
        /// `RUMBA_METRICS_OUT` environment variable in charge.
        metrics_out: Option<String>,
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
        /// Worker-thread override (`None` leaves `RUMBA_THREADS`/auto in
        /// charge). Results are identical at any setting.
        threads: Option<usize>,
        /// SIMD dispatch override (`--simd 0|1|auto`; `None` leaves the
        /// `RUMBA_SIMD` environment variable in charge). Results are
        /// bit-identical at any setting.
        simd: Option<SimdMode>,
        /// JSONL telemetry destination (`--metrics-out`); `None` leaves the
        /// `RUMBA_METRICS_OUT` environment variable in charge.
        metrics_out: Option<String>,
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
        /// Worker-thread override (`None` leaves `RUMBA_THREADS`/auto in
        /// charge). Results are identical at any setting.
        threads: Option<usize>,
        /// SIMD dispatch override (`--simd 0|1|auto`; `None` leaves the
        /// `RUMBA_SIMD` environment variable in charge). Results are
        /// bit-identical at any setting.
        simd: Option<SimdMode>,
        /// JSONL telemetry destination (`--metrics-out`); `None` leaves the
        /// `RUMBA_METRICS_OUT` environment variable in charge.
        metrics_out: Option<String>,
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
        /// Worker-thread override (`None` leaves `RUMBA_THREADS`/auto in
        /// charge). Results are identical at any setting.
        threads: Option<usize>,
        /// SIMD dispatch override (`--simd 0|1|auto`; `None` leaves the
        /// `RUMBA_SIMD` environment variable in charge). Results are
        /// bit-identical at any setting.
        simd: Option<SimdMode>,
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
        /// Worker-thread override (`None` leaves `RUMBA_THREADS`/auto in
        /// charge). The trace is identical at any setting.
        threads: Option<usize>,
        /// SIMD dispatch override (`--simd 0|1|auto`; `None` leaves the
        /// `RUMBA_SIMD` environment variable in charge). The trace is
        /// bit-identical at any setting.
        simd: Option<SimdMode>,
    },
    /// `rumba help` or no arguments.
    Help,
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

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem found.
///
/// # Examples
///
/// ```
/// use rumba_cli::args::{parse, Command};
///
/// let cmd = parse(&["list".to_owned()]).unwrap();
/// assert_eq!(cmd, Command::List);
/// ```
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help" | "--help" | "-h") => Ok(Command::Help),
        Some("list") => Ok(Command::List),
        Some("purity") => {
            let kernel = it.next().ok_or(ParseError::MissingKernel)?.to_owned();
            Ok(Command::Purity { kernel })
        }
        Some("report") => {
            let path = it.next().ok_or(ParseError::MissingValue("report <path.jsonl>"))?.to_owned();
            if let Some(extra) = it.next() {
                return Err(ParseError::UnknownFlag(extra.to_owned()));
            }
            Ok(Command::Report { path })
        }
        Some("train") => {
            let kernel = it.next().ok_or(ParseError::MissingKernel)?.to_owned();
            let mut seed = 42u64;
            let mut threads = None;
            let mut simd = None;
            let mut metrics_out = None;
            let rest: Vec<&str> = it.collect();
            let mut k = 0;
            while k < rest.len() {
                match rest[k] {
                    "--seed" => {
                        seed = parse_u64(rest.get(k + 1).copied(), "--seed")?;
                        k += 2;
                    }
                    "--threads" => {
                        threads = Some(parse_threads(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--simd" => {
                        simd = Some(parse_simd(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--metrics-out" => {
                        metrics_out = Some(parse_path(rest.get(k + 1).copied(), "--metrics-out")?);
                        k += 2;
                    }
                    other => return Err(ParseError::UnknownFlag(other.to_owned())),
                }
            }
            Ok(Command::Train { kernel, seed, threads, simd, metrics_out })
        }
        Some("faults") => {
            let mut kernels = Vec::new();
            let mut seed = 42u64;
            let mut rate = 1e-3;
            let mut window = 128usize;
            let mut threads = None;
            let mut simd = None;
            let mut metrics_out = None;
            let rest: Vec<&str> = it.collect();
            let mut k = 0;
            while k < rest.len() {
                match rest[k] {
                    "--kernels" => {
                        let v = rest.get(k + 1).ok_or(ParseError::MissingValue("--kernels"))?;
                        kernels =
                            v.split(',').filter(|s| !s.is_empty()).map(str::to_owned).collect();
                        if kernels.is_empty() {
                            return Err(ParseError::BadValue {
                                flag: "--kernels",
                                value: (*v).to_owned(),
                                expected: "a comma-separated benchmark list",
                            });
                        }
                        k += 2;
                    }
                    "--seed" => {
                        seed = parse_u64(rest.get(k + 1).copied(), "--seed")?;
                        k += 2;
                    }
                    "--rate" => {
                        let v = parse_f64(rest.get(k + 1).copied(), "--rate")?;
                        if !(v > 0.0 && v <= 1.0) {
                            return Err(ParseError::BadValue {
                                flag: "--rate",
                                value: v.to_string(),
                                expected: "an injection rate in (0, 1]",
                            });
                        }
                        rate = v;
                        k += 2;
                    }
                    "--window" => {
                        let v = parse_u64(rest.get(k + 1).copied(), "--window")?;
                        if v == 0 {
                            return Err(ParseError::BadValue {
                                flag: "--window",
                                value: "0".into(),
                                expected: "a positive window length",
                            });
                        }
                        window = v as usize;
                        k += 2;
                    }
                    "--threads" => {
                        threads = Some(parse_threads(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--simd" => {
                        simd = Some(parse_simd(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--metrics-out" => {
                        metrics_out = Some(parse_path(rest.get(k + 1).copied(), "--metrics-out")?);
                        k += 2;
                    }
                    other => return Err(ParseError::UnknownFlag(other.to_owned())),
                }
            }
            Ok(Command::Faults { kernels, seed, rate, window, threads, simd, metrics_out })
        }
        Some("compensate") => {
            let mut kernels = Vec::new();
            let mut seed = 42u64;
            let mut toq = 0.9f64;
            let mut threads = None;
            let mut simd = None;
            let mut metrics_out = None;
            let rest: Vec<&str> = it.collect();
            let mut k = 0;
            while k < rest.len() {
                match rest[k] {
                    "--kernels" => {
                        let v = rest.get(k + 1).ok_or(ParseError::MissingValue("--kernels"))?;
                        kernels =
                            v.split(',').filter(|s| !s.is_empty()).map(str::to_owned).collect();
                        if kernels.is_empty() {
                            return Err(ParseError::BadValue {
                                flag: "--kernels",
                                value: (*v).to_owned(),
                                expected: "a comma-separated benchmark list",
                            });
                        }
                        k += 2;
                    }
                    "--seed" => {
                        seed = parse_u64(rest.get(k + 1).copied(), "--seed")?;
                        k += 2;
                    }
                    "--toq" => {
                        let v = parse_f64(rest.get(k + 1).copied(), "--toq")?;
                        if !(0.0 < v && v <= 1.0) {
                            return Err(ParseError::BadValue {
                                flag: "--toq",
                                value: v.to_string(),
                                expected: "a quality in (0, 1]",
                            });
                        }
                        toq = v;
                        k += 2;
                    }
                    "--threads" => {
                        threads = Some(parse_threads(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--simd" => {
                        simd = Some(parse_simd(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--metrics-out" => {
                        metrics_out = Some(parse_path(rest.get(k + 1).copied(), "--metrics-out")?);
                        k += 2;
                    }
                    other => return Err(ParseError::UnknownFlag(other.to_owned())),
                }
            }
            Ok(Command::Compensate { kernels, seed, toq, threads, simd, metrics_out })
        }
        Some("zoo") => {
            let mut kernels = Vec::new();
            let mut seed = 42u64;
            let mut toq = 0.95f64;
            let mut tiers = 3usize;
            let mut threads = None;
            let mut simd = None;
            let mut metrics_out = None;
            let rest: Vec<&str> = it.collect();
            let mut k = 0;
            while k < rest.len() {
                match rest[k] {
                    "--kernels" => {
                        let v = rest.get(k + 1).ok_or(ParseError::MissingValue("--kernels"))?;
                        kernels =
                            v.split(',').filter(|s| !s.is_empty()).map(str::to_owned).collect();
                        if kernels.is_empty() {
                            return Err(ParseError::BadValue {
                                flag: "--kernels",
                                value: (*v).to_owned(),
                                expected: "a comma-separated benchmark list",
                            });
                        }
                        k += 2;
                    }
                    "--seed" => {
                        seed = parse_u64(rest.get(k + 1).copied(), "--seed")?;
                        k += 2;
                    }
                    "--toq" => {
                        let v = parse_f64(rest.get(k + 1).copied(), "--toq")?;
                        if !(0.0 < v && v <= 1.0) {
                            return Err(ParseError::BadValue {
                                flag: "--toq",
                                value: v.to_string(),
                                expected: "a quality in (0, 1]",
                            });
                        }
                        toq = v;
                        k += 2;
                    }
                    "--tiers" => {
                        let v = parse_u64(rest.get(k + 1).copied(), "--tiers")?;
                        if !(1..=8).contains(&v) {
                            return Err(ParseError::BadValue {
                                flag: "--tiers",
                                value: v.to_string(),
                                expected: "a ladder size in 1..=8",
                            });
                        }
                        tiers = v as usize;
                        k += 2;
                    }
                    "--threads" => {
                        threads = Some(parse_threads(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--simd" => {
                        simd = Some(parse_simd(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--metrics-out" => {
                        metrics_out = Some(parse_path(rest.get(k + 1).copied(), "--metrics-out")?);
                        k += 2;
                    }
                    other => return Err(ParseError::UnknownFlag(other.to_owned())),
                }
            }
            Ok(Command::Zoo { kernels, seed, toq, tiers, threads, simd, metrics_out })
        }
        Some("drift") => {
            let mut kernels = Vec::new();
            let mut seed = 42u64;
            let mut window = 128usize;
            let mut threads = None;
            let mut simd = None;
            let mut metrics_out = None;
            let rest: Vec<&str> = it.collect();
            let mut k = 0;
            while k < rest.len() {
                match rest[k] {
                    "--kernels" => {
                        let v = rest.get(k + 1).ok_or(ParseError::MissingValue("--kernels"))?;
                        kernels =
                            v.split(',').filter(|s| !s.is_empty()).map(str::to_owned).collect();
                        if kernels.is_empty() {
                            return Err(ParseError::BadValue {
                                flag: "--kernels",
                                value: (*v).to_owned(),
                                expected: "a comma-separated benchmark list",
                            });
                        }
                        k += 2;
                    }
                    "--seed" => {
                        seed = parse_u64(rest.get(k + 1).copied(), "--seed")?;
                        k += 2;
                    }
                    "--window" => {
                        let v = parse_u64(rest.get(k + 1).copied(), "--window")?;
                        if v == 0 {
                            return Err(ParseError::BadValue {
                                flag: "--window",
                                value: "0".into(),
                                expected: "a positive window length",
                            });
                        }
                        window = v as usize;
                        k += 2;
                    }
                    "--threads" => {
                        threads = Some(parse_threads(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--simd" => {
                        simd = Some(parse_simd(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--metrics-out" => {
                        metrics_out = Some(parse_path(rest.get(k + 1).copied(), "--metrics-out")?);
                        k += 2;
                    }
                    other => return Err(ParseError::UnknownFlag(other.to_owned())),
                }
            }
            Ok(Command::Drift { kernels, seed, window, threads, simd, metrics_out })
        }
        Some("serve") => {
            let mut socket = None;
            let mut tcp = None;
            let mut shards = 1usize;
            let mut threads = None;
            let mut simd = None;
            let rest: Vec<&str> = it.collect();
            let mut k = 0;
            while k < rest.len() {
                match rest[k] {
                    "--socket" => {
                        socket = Some(parse_path(rest.get(k + 1).copied(), "--socket")?);
                        k += 2;
                    }
                    "--tcp" => {
                        tcp = Some(parse_path(rest.get(k + 1).copied(), "--tcp")?);
                        k += 2;
                    }
                    "--shards" => {
                        shards = parse_shards(rest.get(k + 1).copied())?;
                        k += 2;
                    }
                    "--threads" => {
                        threads = Some(parse_threads(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--simd" => {
                        simd = Some(parse_simd(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    other => return Err(ParseError::UnknownFlag(other.to_owned())),
                }
            }
            Ok(Command::Serve { socket, tcp, shards, threads, simd })
        }
        Some("bench-serve") => {
            let mut seed = 7u64;
            let mut tenants = 3usize;
            let mut requests = 40usize;
            let mut shards = None;
            let mut threads = None;
            let mut simd = None;
            let rest: Vec<&str> = it.collect();
            let mut k = 0;
            while k < rest.len() {
                match rest[k] {
                    "--seed" => {
                        seed = parse_u64(rest.get(k + 1).copied(), "--seed")?;
                        k += 2;
                    }
                    "--shards" => {
                        shards = Some(parse_shards(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--tenants" => {
                        let v = parse_u64(rest.get(k + 1).copied(), "--tenants")?;
                        if v == 0 {
                            return Err(ParseError::BadValue {
                                flag: "--tenants",
                                value: "0".into(),
                                expected: "a positive tenant count",
                            });
                        }
                        tenants = v as usize;
                        k += 2;
                    }
                    "--requests" => {
                        let v = parse_u64(rest.get(k + 1).copied(), "--requests")?;
                        if v == 0 {
                            return Err(ParseError::BadValue {
                                flag: "--requests",
                                value: "0".into(),
                                expected: "a positive request count",
                            });
                        }
                        requests = v as usize;
                        k += 2;
                    }
                    "--threads" => {
                        threads = Some(parse_threads(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--simd" => {
                        simd = Some(parse_simd(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    other => return Err(ParseError::UnknownFlag(other.to_owned())),
                }
            }
            Ok(Command::BenchServe { seed, tenants, requests, shards, threads, simd })
        }
        Some("run") => {
            let kernel = it.next().ok_or(ParseError::MissingKernel)?.to_owned();
            let mut seed = 42u64;
            let mut checker = CheckerChoice::default();
            let mut mode = ModeChoice::default();
            let mut window = 256usize;
            let mut threads = None;
            let mut simd = None;
            let mut metrics_out = None;
            let rest: Vec<&str> = it.collect();
            let mut k = 0;
            while k < rest.len() {
                match rest[k] {
                    "--seed" => {
                        seed = parse_u64(rest.get(k + 1).copied(), "--seed")?;
                        k += 2;
                    }
                    "--checker" => {
                        let v = rest.get(k + 1).ok_or(ParseError::MissingValue("--checker"))?;
                        checker = CheckerChoice::parse(v)?;
                        k += 2;
                    }
                    "--toq" => {
                        let v = parse_f64(rest.get(k + 1).copied(), "--toq")?;
                        if !(0.0 < v && v <= 1.0) {
                            return Err(ParseError::BadValue {
                                flag: "--toq",
                                value: v.to_string(),
                                expected: "a quality in (0, 1]",
                            });
                        }
                        mode = ModeChoice::Toq(v);
                        k += 2;
                    }
                    "--budget" => {
                        let v = parse_u64(rest.get(k + 1).copied(), "--budget")?;
                        mode = ModeChoice::Energy(v as usize);
                        k += 2;
                    }
                    "--quality-mode" => {
                        mode = ModeChoice::Quality;
                        k += 1;
                    }
                    "--window" => {
                        let v = parse_u64(rest.get(k + 1).copied(), "--window")?;
                        if v == 0 {
                            return Err(ParseError::BadValue {
                                flag: "--window",
                                value: "0".into(),
                                expected: "a positive window length",
                            });
                        }
                        window = v as usize;
                        k += 2;
                    }
                    "--threads" => {
                        threads = Some(parse_threads(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--simd" => {
                        simd = Some(parse_simd(rest.get(k + 1).copied())?);
                        k += 2;
                    }
                    "--metrics-out" => {
                        metrics_out = Some(parse_path(rest.get(k + 1).copied(), "--metrics-out")?);
                        k += 2;
                    }
                    other => return Err(ParseError::UnknownFlag(other.to_owned())),
                }
            }
            Ok(Command::Run { kernel, seed, checker, mode, window, threads, simd, metrics_out })
        }
        Some(other) => Err(ParseError::UnknownCommand(other.to_owned())),
    }
}

fn parse_u64(value: Option<&str>, flag: &'static str) -> Result<u64, ParseError> {
    let text = value.ok_or(ParseError::MissingValue(flag))?;
    text.parse().map_err(|_| ParseError::BadValue {
        flag,
        value: text.to_owned(),
        expected: "an unsigned integer",
    })
}

fn parse_shards(value: Option<&str>) -> Result<usize, ParseError> {
    let v = parse_u64(value, "--shards")?;
    if v == 0 {
        return Err(ParseError::BadValue {
            flag: "--shards",
            value: "0".into(),
            expected: "a positive shard count",
        });
    }
    Ok(v as usize)
}

fn parse_threads(value: Option<&str>) -> Result<usize, ParseError> {
    let v = parse_u64(value, "--threads")?;
    if v == 0 {
        return Err(ParseError::BadValue {
            flag: "--threads",
            value: "0".into(),
            expected: "a positive worker-thread count",
        });
    }
    Ok(v as usize)
}

fn parse_simd(value: Option<&str>) -> Result<SimdMode, ParseError> {
    let text = value.ok_or(ParseError::MissingValue("--simd"))?;
    SimdMode::parse(text).ok_or_else(|| ParseError::BadValue {
        flag: "--simd",
        value: text.to_owned(),
        expected: "0|1|auto",
    })
}

fn parse_path(value: Option<&str>, flag: &'static str) -> Result<String, ParseError> {
    let text = value.ok_or(ParseError::MissingValue(flag))?;
    if text.trim().is_empty() {
        return Err(ParseError::BadValue { flag, value: text.to_owned(), expected: "a file path" });
    }
    Ok(text.to_owned())
}

fn parse_f64(value: Option<&str>, flag: &'static str) -> Result<f64, ParseError> {
    let text = value.ok_or(ParseError::MissingValue(flag))?;
    text.parse().map_err(|_| ParseError::BadValue {
        flag,
        value: text.to_owned(),
        expected: "a number",
    })
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

    fn p(line: &str) -> Result<Command, ParseError> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&args)
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
        let cmd = p("run fft").unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                kernel: "fft".into(),
                seed: 42,
                checker: CheckerChoice::Tree,
                mode: ModeChoice::Toq(0.9),
                window: 256,
                threads: None,
                simd: None,
                metrics_out: None,
            }
        );
    }

    #[test]
    fn parses_run_with_all_flags() {
        let cmd = p("run jmeint --checker ema --toq 0.95 --window 128 --seed 7 --threads 4 --simd 1 --metrics-out m.jsonl")
            .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                kernel: "jmeint".into(),
                seed: 7,
                checker: CheckerChoice::Ema,
                mode: ModeChoice::Toq(0.95),
                window: 128,
                threads: Some(4),
                simd: Some(SimdMode::On),
                metrics_out: Some("m.jsonl".into()),
            }
        );
    }

    #[test]
    fn parses_threads_on_train_and_rejects_zero() {
        assert_eq!(
            p("train kmeans --threads 8").unwrap(),
            Command::Train {
                kernel: "kmeans".into(),
                seed: 42,
                threads: Some(8),
                simd: None,
                metrics_out: None
            }
        );
        assert_eq!(
            p("train kmeans").unwrap(),
            Command::Train {
                kernel: "kmeans".into(),
                seed: 42,
                threads: None,
                simd: None,
                metrics_out: None
            }
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
        assert!(matches!(
            p("run fft --simd 0").unwrap(),
            Command::Run { simd: Some(SimdMode::Off), .. }
        ));
        assert!(matches!(
            p("run fft --simd on").unwrap(),
            Command::Run { simd: Some(SimdMode::On), .. }
        ));
        assert!(matches!(
            p("train fft --simd auto").unwrap(),
            Command::Train { simd: Some(SimdMode::Auto), .. }
        ));
        assert!(matches!(
            p("serve --simd scalar").unwrap(),
            Command::Serve { simd: Some(SimdMode::Off), .. }
        ));
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
        assert!(matches!(
            p("train fft --metrics-out out.jsonl").unwrap(),
            Command::Train { metrics_out: Some(_), .. }
        ));
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
            p("faults").unwrap(),
            Command::Faults {
                kernels: vec![],
                seed: 42,
                rate: 1e-3,
                window: 128,
                threads: None,
                simd: None,
                metrics_out: None,
            }
        );
        assert_eq!(
            p("faults --kernels gaussian,fft --seed 7 --rate 0.01 --window 64 --threads 2 --simd 0 --metrics-out f.jsonl")
                .unwrap(),
            Command::Faults {
                kernels: vec!["gaussian".into(), "fft".into()],
                seed: 7,
                rate: 0.01,
                window: 64,
                threads: Some(2),
                simd: Some(SimdMode::Off),
                metrics_out: Some("f.jsonl".into()),
            }
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
            p("compensate").unwrap(),
            Command::Compensate {
                kernels: vec![],
                seed: 42,
                toq: 0.9,
                threads: None,
                simd: None,
                metrics_out: None,
            }
        );
        assert_eq!(
            p("compensate --kernels gaussian,fft --seed 9 --toq 0.95 --threads 2 --simd 1 --metrics-out c.jsonl")
                .unwrap(),
            Command::Compensate {
                kernels: vec!["gaussian".into(), "fft".into()],
                seed: 9,
                toq: 0.95,
                threads: Some(2),
                simd: Some(SimdMode::On),
                metrics_out: Some("c.jsonl".into()),
            }
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
            p("zoo").unwrap(),
            Command::Zoo {
                kernels: vec![],
                seed: 42,
                toq: 0.95,
                tiers: 3,
                threads: None,
                simd: None,
                metrics_out: None,
            }
        );
        assert_eq!(
            p("zoo --kernels gaussian,fft --seed 9 --toq 0.9 --tiers 4 --threads 2 --simd 1 --metrics-out z.jsonl")
                .unwrap(),
            Command::Zoo {
                kernels: vec!["gaussian".into(), "fft".into()],
                seed: 9,
                toq: 0.9,
                tiers: 4,
                threads: Some(2),
                simd: Some(SimdMode::On),
                metrics_out: Some("z.jsonl".into()),
            }
        );
        assert!(matches!(p("zoo --toq 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("zoo --tiers 0"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("zoo --tiers 9"), Err(ParseError::BadValue { .. })));
        assert!(matches!(p("zoo --wat"), Err(ParseError::UnknownFlag(_))));
    }

    #[test]
    fn parses_drift_with_defaults_and_flags() {
        assert_eq!(
            p("drift").unwrap(),
            Command::Drift {
                kernels: vec![],
                seed: 42,
                window: 128,
                threads: None,
                simd: None,
                metrics_out: None,
            }
        );
        assert_eq!(
            p("drift --kernels gaussian --seed 7 --window 64 --threads 4 --simd 0 --metrics-out d.jsonl")
                .unwrap(),
            Command::Drift {
                kernels: vec!["gaussian".into()],
                seed: 7,
                window: 64,
                threads: Some(4),
                simd: Some(SimdMode::Off),
                metrics_out: Some("d.jsonl".into()),
            }
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
            p("serve").unwrap(),
            Command::Serve { socket: None, tcp: None, shards: 1, threads: None, simd: None }
        );
        assert_eq!(
            p("serve --socket /tmp/rumba.sock --threads 2 --simd auto").unwrap(),
            Command::Serve {
                socket: Some("/tmp/rumba.sock".into()),
                tcp: None,
                shards: 1,
                threads: Some(2),
                simd: Some(SimdMode::Auto),
            }
        );
        assert_eq!(
            p("serve --tcp 127.0.0.1:7077 --shards 4").unwrap(),
            Command::Serve {
                socket: None,
                tcp: Some("127.0.0.1:7077".into()),
                shards: 4,
                threads: None,
                simd: None,
            }
        );
        assert_eq!(
            p("bench-serve").unwrap(),
            Command::BenchServe {
                seed: 7,
                tenants: 3,
                requests: 40,
                shards: None,
                threads: None,
                simd: None,
            }
        );
        assert_eq!(
            p("bench-serve --seed 9 --tenants 2 --requests 12 --shards 2 --threads 4 --simd 1")
                .unwrap(),
            Command::BenchServe {
                seed: 9,
                tenants: 2,
                requests: 12,
                shards: Some(2),
                threads: Some(4),
                simd: Some(SimdMode::On),
            }
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
}
