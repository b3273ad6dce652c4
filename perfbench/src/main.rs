//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replan|mixed|sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the workload untraced and then traced, and
//! prints the per-layer metrics plus the tracing overhead. Every answer is
//! checked against the engine's reference path; the last line of standard
//! output is one JSON object, and any mismatch or invalid run exits 1.

mod check;
mod client;
mod gen;
mod layers;
mod service;
mod stats;
mod workloads;

use engine::json::JsonValue;
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{Config, Metric, Outcome, Workload};

/// Batch searches the traced run probes in-process.
const SEARCH_PROBES: usize = 20;
/// Seconds of served traffic behind the sweep's served-layer metrics.
const SERVED_PROBE_SECONDS: f64 = 2.0;

/// The per-layer metrics a traced run reports, in `BENCHMARK.json` order.
const LAYER_METRICS: [&str; 24] = [
    "served.client_overhead_us",
    "served.queue_wait_p50_us",
    "served.queue_wait_p99_us",
    "served.parse_us",
    "served.render_us",
    "engine.lookup_us",
    "engine.exec_us",
    "engine.cache_hit_ratio",
    "engine.sim_share",
    "workload.profile_us",
    "core.discretize_us",
    "core.simulate_us",
    "dkibam.cell_steps_per_s",
    "rv.cell_steps_per_s",
    "search.probe_ms",
    "search.find_ms",
    "search.replay_ms",
    "search.nodes",
    "search.nodes_per_s",
    "search.memo_hit_ratio",
    "search.prunes.charge",
    "search.prunes.availability",
    "search.prunes.relax",
    "trace.overhead_pct",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace,
    })
}

/// A traced run: the workload untraced, the workload traced, then the
/// in-process layer probes. Layer metrics read off the workload's own traced
/// traffic take precedence over the probes'.
fn traced_run(args: &Args, config: &Config) -> Result<(Vec<Outcome>, Vec<Metric>), String> {
    let untraced = workloads::run(args.workload, config, false)?;
    let traced = workloads::run(args.workload, config, true)?;
    let mut layers: BTreeMap<String, Metric> = BTreeMap::new();
    let mut put = |metrics: Vec<Metric>| {
        for metric in metrics {
            layers.insert(metric.name.clone(), metric);
        }
    };
    put(layers::request_path(&traced.probe_inputs)?);
    let batches: Vec<_> = workloads::batch_lines(config.seed, SEARCH_PROBES)
        .into_iter()
        .map(|line| line.scenario)
        .collect();
    put(layers::search(&batches)?);
    if args.workload == Workload::Sweep {
        put(workloads::served_probe(config, SERVED_PROBE_SECONDS)?);
    }
    put(traced.layers.clone());
    let short = |o: &Outcome| o.metric("short_p50_us").unwrap_or(f64::NAN);
    put(vec![Metric::new(
        "trace.overhead_pct",
        (short(&traced) - short(&untraced)) / short(&untraced) * 100.0,
        "%",
    )]);
    let metrics = LAYER_METRICS
        .iter()
        .map(|name| layers.remove(*name).ok_or_else(|| format!("layer metric {name} is missing")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((vec![untraced, traced], metrics))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = JsonValue::Object(
        metrics
            .iter()
            .map(|m| {
                let value = JsonValue::object(vec![
                    ("value", JsonValue::Number(m.value)),
                    ("unit", JsonValue::String(m.unit.to_owned())),
                ]);
                (m.name.clone(), value)
            })
            .collect(),
    );
    // The counts are written by hand: the engine's renderer prints every
    // number as a float (`1.0`), and the counts must read as integers.
    let metrics = metrics.render().expect("every metric is finite");
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\
         \"metrics\":{metrics}}}"
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let config = Config { seed: args.seed, seconds: args.seconds, threads };
    let result = if args.trace {
        traced_run(&args, &config)
    } else {
        workloads::run(args.workload, &config, false).map(|o| {
            let metrics = o.end_to_end.clone();
            (vec![o], metrics)
        })
    };
    let (outcomes, metrics) = match result {
        Ok(done) => done,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut problems: Vec<&String> = outcomes.iter().flat_map(|o| &o.problems).collect();
    let not_finite =
        metrics.iter().filter(|m| !m.value.is_finite()).map(|m| m.name.clone()).collect::<Vec<_>>();
    let not_finite = not_finite.join(", ");
    if !not_finite.is_empty() {
        problems.push(&not_finite);
    }
    println!(
        "# {} seed {} seconds {} trace {} threads {threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, outcome) in outcomes.iter().enumerate() {
        let phase = if !args.trace {
            ""
        } else if k == 0 {
            "[untraced] "
        } else {
            "[traced] "
        };
        for line in &outcome.report {
            println!("{phase}{line}");
        }
    }
    for metric in &metrics {
        println!("{:<28} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    for problem in &problems {
        eprintln!("problem: {problem}");
    }
    let correct = problems.is_empty();
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    let metrics: Vec<Metric> = metrics.into_iter().filter(|m| m.value.is_finite()).collect();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_reads_counts_as_integers() {
        let line = result_line(true, 20400, 3, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":20400,\"failed\":3,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        assert!(JsonValue::parse(&line).is_ok());
    }
}
