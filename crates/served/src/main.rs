//! The `served` binary: a thin mode switch over [`served::Server`].

use served::{parse_args, run_smoke, Mode, Server, USAGE};
use std::net::TcpListener;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(message) => {
            if message == "help" {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match cli.mode {
        Mode::Stdin => serve_stdin(cli.config),
        Mode::Listen(addr) => serve_tcp(cli.config, &addr),
        Mode::Smoke { min_throughput, bench_out } => smoke(&cli.config, min_throughput, &bench_out),
    }
}

/// Answers requests from stdin until EOF.
fn serve_stdin(config: served::ServeConfig) -> ExitCode {
    let server = Server::start(config);
    let stdin = std::io::stdin();
    // `StdoutLock` is not `Send`; the owned handle is, and it line-buffers
    // the same way.
    let outcome = server.serve_connection(stdin.lock(), std::io::stdout());
    server.shutdown();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: stdin stream failed: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Accepts TCP connections, one protocol stream per connection.
fn serve_tcp(config: served::ServeConfig, addr: &str) -> ExitCode {
    let listener = match TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(error) => {
            eprintln!("error: cannot listen on {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("served: listening on {addr}");
    Server::start(config).serve_listener(&listener);
    ExitCode::SUCCESS
}

/// Runs the smoke burst, writes the artifact, then gates the throughput
/// floor (artifact first, so a failed gate still leaves the evidence).
fn smoke(config: &served::ServeConfig, min_throughput: f64, bench_out: &str) -> ExitCode {
    let summary = match run_smoke(config) {
        Ok(summary) => summary,
        Err(message) => {
            eprintln!("error: smoke failed: {message}");
            return ExitCode::FAILURE;
        }
    };
    // xlint: allow(blocking-io) -- one-shot artifact write at exit
    if let Err(error) = std::fs::write(bench_out, format!("{}\n", summary.bench_json)) {
        eprintln!("error: cannot write {bench_out}: {error}");
        return ExitCode::FAILURE;
    }
    println!(
        "smoke: {} requests answered ok ({:.1} req/s), {} system builds, {} cache hits -> {}",
        summary.ok, summary.throughput_rps, summary.cache.builds, summary.cache.hits, bench_out
    );
    if summary.throughput_rps < min_throughput {
        eprintln!(
            "error: sustained throughput {:.1} req/s is below the floor {min_throughput:.1}",
            summary.throughput_rps
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
