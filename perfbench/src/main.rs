//! The Rumba benchmark: one command, four workloads, end-to-end metrics
//! (`--trace 0`) or a per-layer breakdown (`--trace 1`).
//!
//! ```text
//! rumba-perfbench --workload serve-inproc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a run record (machine, settings, every metric, sample counts)
//! and then, as the last line, the result object. Exits non-zero when an
//! output check fails. See `README.md` in this directory.

mod engine;
mod gen;
mod offline;
mod report;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use report::{json_number, Report};

/// Worker threads of the measured runs. The default count is what users
/// get, but on a small shared machine a drain that fans out waits on
/// whichever core is busiest, so the default count made the figures
/// swing with the neighbours' load; its cost is measured instead by the
/// traced run (`parallel.fanout_us`, at the default count) and checked
/// for output equality by `offline`.
pub const MEASURED_THREADS: usize = 1;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["serve-inproc", "serve-tcp", "offline", "session-churn"];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    source_digest: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        commit: "unknown".to_owned(),
        source_digest: "unknown".to_owned(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--commit" => args.commit.clone_from(value),
            "--source-digest" => args.source_digest.clone_from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Fills the trained-model cache (untimed): every kernel's app and its
/// zoo, at the model seed every session and offline system uses. A warm
/// cache makes this a few file loads.
///
/// # Errors
///
/// Training failures.
fn warm_cache() -> std::io::Result<()> {
    let cfg = rumba_core::trainer::OfflineConfig {
        seed: gen::MODEL_SEED,
        ..rumba_core::trainer::OfflineConfig::default()
    };
    for name in gen::KERNELS {
        let kernel = rumba_apps::kernel_by_name(name).expect("known kernel");
        let app =
            rumba_core::trainer::train_app(kernel.as_ref(), &cfg).map_err(std::io::Error::other)?;
        rumba_core::zoo::train_zoo(kernel.as_ref(), &app, &cfg, offline::TIERS)
            .map_err(std::io::Error::other)?;
    }
    Ok(())
}

/// Runs one workload, measured or traced.
///
/// # Errors
///
/// Setup, socket or pipeline failures (not output mismatches, which land
/// in the report).
fn run(args: &Args) -> std::io::Result<Report> {
    let (seed, seconds) = (args.seed, args.seconds);
    warm_cache()?;
    if args.trace {
        rumba_parallel::set_thread_override(None);
        return trace::traced(&args.workload, seed, seconds);
    }
    rumba_parallel::set_thread_override(Some(MEASURED_THREADS));
    match args.workload.as_str() {
        "serve-inproc" => serve::serve_inproc(seed, seconds),
        "serve-tcp" => serve::serve_tcp(seed, seconds),
        "offline" => offline::offline(seed, seconds),
        _ => serve::session_churn(seed, seconds),
    }
}

/// CPUs the machine has (`nproc` counts only those this process may use).
fn machine_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map_or(0, |s| s.lines().filter(|l| l.starts_with("processor")).count())
}

/// The CPUs this process may run on (`Cpus_allowed_list`), or `unknown`.
fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:").map(|v| v.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The run record: machine, settings, every metric and its sample count.
/// `default_threads` is the pool size without the thread override.
fn record(args: &Args, report: &Report, default_threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"machine_cpus\": {}, \"isa\": \"{}\", \"max_threads\": {}, \
         \"default_threads\": {default_threads}, \"cpus_allowed\": \"{}\", \"simd_mode\": \"{:?}\", \
         \"malloc_mmap_threshold\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{}\", \
         \"correct\": {}, \"problems\": [",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        machine_cpus(),
        rumba_nn::active_isa().name(),
        rumba_parallel::max_threads(),
        cpus_allowed(),
        rumba_nn::simd_mode(),
        std::env::var("MALLOC_MMAP_THRESHOLD_").unwrap_or_else(|_| "default".to_owned()),
        args.commit,
        args.source_digest,
        report.correct(),
    );
    for (i, p) in report.problems.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{:?}", p);
    }
    out.push_str("], \"metrics\": {");
    for (i, m) in report.metrics.iter().chain(&report.extra).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\": [{}, \"{}\"]", m.name, json_number(m.value), m.unit);
    }
    out.push_str("}, \"samples\": {");
    for (i, (name, n)) in report.samples.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {n}");
    }
    out.push_str("}}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if std::env::var_os("RUMBA_CACHE_DIR").is_none() {
        // The benchmark owns its model cache; single-threaded here.
        std::env::set_var("RUMBA_CACHE_DIR", ".perfbench-cache");
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("rumba-perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let default_threads = rumba_parallel::max_threads();
    match run(&args) {
        Ok(report) => {
            println!("{}", record(&args, &report, default_threads));
            println!("{}", report.result_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                for p in &report.problems {
                    eprintln!("rumba-perfbench: check failed: {p}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rumba-perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    /// A short run of every workload, measured and traced, completes with
    /// every output check passing and every metric reported.
    #[test]
    fn every_workload_completes_a_short_run() {
        if std::env::var_os("RUMBA_CACHE_DIR").is_none() {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../.perfbench-cache");
            std::env::set_var("RUMBA_CACHE_DIR", dir);
        }
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_owned(),
                    seed: 3,
                    seconds: 0.05,
                    trace,
                    commit: "test".to_owned(),
                    source_digest: "test".to_owned(),
                };
                let report = run(&args).unwrap();
                assert!(report.correct(), "{workload} trace={trace}: {:?}", report.problems);
                assert!(report.attempted > 0, "{workload}");
                let want = if trace { trace::LAYERS.len() } else { 7 };
                assert_eq!(report.metrics.len(), want, "{workload} trace={trace}");
                assert!(
                    report.metrics.iter().all(|m| m.value.is_finite()),
                    "{workload} trace={trace}: {:?}",
                    report.metrics
                );
                if !trace {
                    assert!(report.metrics.iter().all(|m| m.value > 0.0), "{workload}");
                    assert!(record(&args, &report, 2).contains("\"nproc\""));
                }
            }
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics the command prints.
    #[test]
    fn benchmark_json_names_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let mut report = Report::default();
        report::end_to_end(&mut report, &engine::Tally::default(), &[1.0], false);
        let e2e = report.metrics.iter().map(|m| (m.name.as_str(), m.unit));
        for (name, unit) in e2e.chain(trace::LAYERS) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"name\":").count(), 7 + trace::LAYERS.len() + WORKLOADS.len());
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload offline --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("offline", 7, 10.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload offline --seconds")).is_err());
    }
}
