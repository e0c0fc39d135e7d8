//! The `rumba` command-line driver. See `rumba help`.

use std::process::ExitCode;

use rumba_cli::args::{parse, Command, HELP};
use rumba_cli::commands;

/// Points the global telemetry sink at `path`, failing the command early
/// when the file cannot be created.
fn install_metrics_sink(path: &str) -> Result<(), ExitCode> {
    match rumba_obs::JsonlSink::create(path) {
        Ok(sink) => {
            rumba_obs::set_global_sink(std::sync::Arc::new(sink));
            Ok(())
        }
        Err(e) => {
            eprintln!("error: cannot open --metrics-out {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    // Initializes telemetry from RUMBA_METRICS_OUT and flushes the final
    // pool-usage event when main returns.
    let _obs = rumba_obs::guard();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, overrides) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    rumba_parallel::set_thread_override(overrides.threads);
    rumba_nn::set_simd_override(overrides.simd);
    if let Some(path) = overrides.metrics_out {
        if let Err(code) = install_metrics_sink(&path) {
            return code;
        }
    }

    let result = match command {
        Command::Help => Ok(HELP.to_owned()),
        Command::List => Ok(commands::list()),
        Command::Train { kernel, seed } => commands::train(&kernel, seed),
        Command::Run { kernel, seed, checker, mode, window } => {
            commands::run(&kernel, seed, checker, mode, window)
        }
        Command::Faults { kernels, seed, rate, window } => {
            commands::faults(&kernels, seed, rate, window)
        }
        Command::Compensate { kernels, seed, toq } => commands::compensate(&kernels, seed, toq),
        Command::Zoo { kernels, seed, toq, tiers } => commands::zoo(&kernels, seed, toq, tiers),
        Command::Drift { kernels, seed, window } => commands::drift(&kernels, seed, window),
        Command::Report { path } => commands::report(&path),
        Command::Purity { kernel } => commands::purity(&kernel),
        Command::Serve { socket, tcp, shards } => {
            commands::serve(socket.as_deref(), tcp.as_deref(), shards)
        }
        Command::BenchServe { seed, tenants, requests, shards } => {
            commands::bench_serve(seed, tenants, requests, shards)
        }
    };

    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
