//! The three workloads and the end-to-end metrics each one reports.
//!
//! Every workload reports the same end-to-end metrics, read on its own
//! request classes (see the README for the table):
//!
//! | metric | `replan` | `mixed` | `sweep` |
//! |---|---|---|---|
//! | `short_*` | interactive, open loop | interactive, open loop | 32-cell sweep |
//! | `long_*` | pipelined saturation | batch optimal search | 256-cell sweep |
//! | `throughput_per_s` | saturation answers/s | achieved answers/s | cells/s |

use crate::check::{self, Answer};
use crate::client::{self, Log, Pace, Phase, Plan};
use crate::gen::{self, Line, Stream};
use crate::layers::SimTally;
use crate::service::{self, Served};
use crate::stats::{self, Sample};
use engine::{
    run_scenario, BatterySpec, DiscSpec, FleetDef, GridRun, RequestClass, Scenario, ScenarioResult,
    SharedSystemCache,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop rate of the interactive stream, requests/s.
pub const INTERACTIVE_RATE: f64 = 1000.0;
/// Open-loop rate of the batch stream (`mixed`), requests/s.
pub const BATCH_RATE: f64 = 20.0;
/// In-flight requests of the pipelined saturation phase (`replan`).
pub const WINDOW: usize = 256;
/// Share of a `replan` run spent in the open-loop phase; the rest is the
/// saturation phase.
pub const OPEN_SHARE: f64 = 0.3;
/// Cold starts per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;
/// Distinct interactive requests per run (cycled by the saturation phase).
pub const POOL: usize = 16_384;
/// The run is invalid when the open-loop generator sends its median
/// request later than this after it was due: it is not offering the rate.
/// Occasional late sends are charged to latency (it is timed from the due
/// time), so the p99 limit only catches a generator that stalls outright; on
/// a shared 2-core box whose hypervisor steals CPU the p99 reached 14 ms.
pub const LATE_P50_LIMIT_US: f64 = 500.0;
pub const LATE_P99_LIMIT_US: f64 = 100_000.0;
/// Window of the saturation phase's per-window rate and latency.
const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Loads per small and per large sweep request (32 cells per load).
pub const SMALL_SWEEP_LOADS: usize = 1;
pub const LARGE_SWEEP_LOADS: usize = 8;
/// Small sweeps per large sweep in each round of the sweep workload.
pub const SMALL_PER_ROUND: usize = 5;
/// Sweep rows re-run through `engine::run_scenario` per run.
pub const SWEEP_CHECKS: usize = 64;
/// Worker threads of `served` at its default flags.
const SERVED_WORKERS: f64 = 2.0;
/// How long a phase waits for answers after its last send.
const DRAIN: Duration = Duration::from_secs(10);
/// Mismatch messages kept per run (the count is always reported).
const MAX_PROBLEMS: usize = 10;

/// One named, unit-tagged measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self { name: name.to_owned(), value, unit }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Replan,
    Mixed,
    Sweep,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "replan" => Some(Self::Replan),
            "mixed" => Some(Self::Mixed),
            "sweep" => Some(Self::Sweep),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Replan => "replan",
            Self::Mixed => "mixed",
            Self::Sweep => "sweep",
        }
    }
}

/// The run's settings from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// The box's core count: sweep worker threads and reference-check
    /// threads.
    pub threads: usize,
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    /// Layer metrics read off a traced run's own traffic.
    pub layers: Vec<Metric>,
    /// Human-readable lines: the metrics under the names of the workload's
    /// request classes, with sample counts.
    pub report: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Mismatches against the reference path and reasons the run is invalid.
    pub problems: Vec<String>,
    /// The workload's short-request inputs, for the in-process probes.
    pub probe_inputs: Vec<Scenario>,
}

impl Outcome {
    fn problem(&mut self, message: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(message);
        }
    }

    fn line(&mut self, workload: Workload, text: String) {
        self.report.push(format!("{:<7} {text}", workload.name()));
    }

    /// The value of an end-to-end metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

pub fn run(workload: Workload, config: &Config, traced: bool) -> Result<Outcome, String> {
    match workload {
        Workload::Replan | Workload::Mixed => served_workload(workload, config, traced),
        Workload::Sweep => sweep(config, traced),
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The interactive request pool of a run.
fn interactive_pool(seed: u64) -> Vec<Line> {
    let mut rng = gen::rng(seed, Stream::Interactive);
    gen::lines(&mut rng, POOL, RequestClass::Interactive, gen::interactive)
}

/// The batch requests of a run of `seconds`.
pub fn batch_lines(seed: u64, count: usize) -> Vec<Line> {
    gen::lines(&mut gen::rng(seed, Stream::Batch), count, RequestClass::Batch, gen::batch)
}

/// `SETUP_REPEATS` cold starts of `served`; the last server stays up.
fn cold_starts(binary: &PathBuf, warmups: &[Line]) -> Result<(Served, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        drop(server.take());
        let (started, seconds) = service::cold_start(binary, warmups)?;
        times.push(seconds);
        server = Some(started);
    }
    Ok((server.expect("SETUP_REPEATS is positive"), times))
}

/// Per stream, every answer in order (`None` for an unparseable line), with
/// error answers and missing answers counted.
struct Checked {
    answers: Vec<Option<Answer>>,
    errors: u64,
    missing: u64,
}

/// Checks every answer of every stream against the reference path. Streams
/// over the same line pool share their reference rows.
fn verify(streams: &[(&Log, &[Line])], threads: usize, out: &mut Outcome) -> Vec<Checked> {
    let key = |lines: &[Line], id: usize| (lines.as_ptr() as usize, id % lines.len());
    let mut wanted: BTreeMap<(usize, usize), &Scenario> = BTreeMap::new();
    for (log, lines) in streams {
        for id in log.first..log.first + log.received() {
            wanted.entry(key(lines, id)).or_insert(&lines[id % lines.len()].scenario);
        }
    }
    let scenarios: Vec<&Scenario> = wanted.values().copied().collect();
    let reference: BTreeMap<_, _> =
        wanted.keys().copied().zip(check::reference_rows(&scenarios, threads)).collect();
    let mut mismatches = 0u64;
    let checked = streams
        .iter()
        .map(|(log, lines)| {
            let mut checked = Checked {
                answers: Vec::new(),
                errors: 0,
                missing: (log.sent() - log.received()) as u64,
            };
            for (k, answer) in log.answers.iter().cloned().enumerate() {
                let id = log.first + k;
                let answer = match answer {
                    Ok(answer) => answer,
                    Err(message) => {
                        out.problem(format!("request {id}: {message}"));
                        mismatches += 1;
                        checked.errors += 1;
                        checked.answers.push(None);
                        continue;
                    }
                };
                if answer.id != Some(id as u64) {
                    out.problem(format!("answer {k} carries id {:?}, expected {id}", answer.id));
                    mismatches += 1;
                }
                match (&answer.outcome, &reference[&key(lines, id)]) {
                    (Ok(row), Ok(expected)) => {
                        if let Err(message) = check::compare(expected, row) {
                            out.problem(format!("request {id}: {message}"));
                            mismatches += 1;
                        }
                    }
                    (Ok(_), Err(message)) => {
                        out.problem(format!("request {id}: the reference failed: {message}"));
                        mismatches += 1;
                    }
                    (Err(_), _) => checked.errors += 1,
                }
                checked.answers.push(Some(answer));
            }
            checked
        })
        .collect();
    if mismatches > 0 {
        out.problem(format!("{mismatches} answers failed the output check"));
    }
    checked
}

/// Latency of each answered request in µs, timed from `from_ns` (the due
/// or the send times).
fn latencies_us(log: &Log, from_ns: &[u64]) -> Vec<f64> {
    (0..log.received()).map(|k| us(log.recv_ns[k] - from_ns[k])).collect()
}

/// Answers read within the sending window, per second.
fn achieved_rate(log: &Log, window: Duration) -> f64 {
    let end = window.as_nanos() as u64;
    log.recv_ns.iter().filter(|&&t| t <= end).count() as f64 / window.as_secs_f64()
}

/// Reports how late the open-loop generator sent and marks the run invalid
/// past the limits.
fn lateness(workload: Workload, log: &Log, stream: &str, out: &mut Outcome) {
    let late = Sample::new((0..log.sent()).map(|k| us(log.sent_ns[k] - log.due_ns[k])).collect());
    let (p50, p99) = (late.median().unwrap_or(0.0), late.percentile(99.0).unwrap_or(0.0));
    let max = late.percentile(100.0).unwrap_or(0.0);
    out.line(
        workload,
        format!(
            "{stream}_generator_late_us p50 {p50:.1} p99 {p99:.1} max {max:.1} (n={})",
            late.len()
        ),
    );
    if p50 > LATE_P50_LIMIT_US || p99 > LATE_P99_LIMIT_US {
        out.problem(format!(
            "invalid run: the {stream} generator ran late (p50 {p50:.0} µs, p99 {p99:.0} µs; \
             limits {LATE_P50_LIMIT_US} and {LATE_P99_LIMIT_US} µs)"
        ));
    }
}

/// A statistic the run must be able to report; a missing one (too few
/// samples) makes the run invalid.
fn required(value: Option<f64>, what: &str, out: &mut Outcome) -> f64 {
    value.unwrap_or_else(|| {
        out.problem(format!("invalid run: too few samples for {what}"));
        0.0
    })
}

/// A nearest-rank percentile the sample must support.
fn supported(sample: &Sample, p: f64, what: &str, out: &mut Outcome) -> f64 {
    required(sample.supported(p, what).ok(), what, out)
}

/// The median over windows of each window's percentile `p`.
fn windowed(windows: &[Vec<f64>], p: f64, what: &str, out: &mut Outcome) -> f64 {
    required(stats::median_over(windows, |s| s.supported(p, what).ok()), what, out)
}

/// The headline numbers every workload reports.
struct Headline {
    setup_s: f64,
    short_p50_us: f64,
    long_p50_ms: f64,
    long_p95_ms: f64,
    throughput_per_s: f64,
    peak_rss_mb: f64,
}

fn end_to_end(out: &mut Outcome, h: &Headline) {
    let ok_ratio = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
    out.end_to_end = vec![
        Metric::new("setup_s", h.setup_s, "s"),
        Metric::new("short_p50_us", h.short_p50_us, "us"),
        Metric::new("long_p50_ms", h.long_p50_ms, "ms"),
        Metric::new("long_p95_ms", h.long_p95_ms, "ms"),
        Metric::new("throughput_per_s", h.throughput_per_s, "1/s"),
        Metric::new("peak_rss_mb", h.peak_rss_mb, "MB"),
        Metric::new("ok_ratio", ok_ratio, "share"),
    ];
}

/// Layer metrics read off served traffic: client overhead and queue wait of
/// the interactive answers, and the share of worker time spent simulating.
fn served_layers(
    open: &Phase,
    interactive: &Checked,
    all: &[&Checked],
    lines: &[Line],
) -> Vec<Metric> {
    let log = &open.logs[0];
    let (mut overhead, mut queue_wait) = (Vec::new(), Vec::new());
    let mut tally = SimTally::default();
    for (k, answer) in interactive.answers.iter().enumerate() {
        let Some(answer) = answer else { continue };
        let (Some(latency), Some(wall)) = (answer.latency_micros, answer.wall_micros) else {
            continue;
        };
        overhead.push(us(log.recv_ns[k] - log.sent_ns[k]) - latency as f64);
        queue_wait.push(latency.saturating_sub(wall) as f64);
        if let Ok(row) = &answer.outcome {
            let scenario = &lines[(log.first + k) % lines.len()].scenario;
            tally.add(scenario, row.lifetime_minutes(), wall);
        }
    }
    let busy: u64 =
        all.iter().flat_map(|c| c.answers.iter().flatten()).filter_map(|a| a.wall_micros).sum();
    let queue_wait = Sample::new(queue_wait);
    let mut metrics = vec![
        Metric::new(
            "served.client_overhead_us",
            Sample::new(overhead).median().unwrap_or(0.0),
            "us",
        ),
        Metric::new("served.queue_wait_p50_us", queue_wait.median().unwrap_or(0.0), "us"),
        Metric::new("served.queue_wait_p99_us", queue_wait.percentile(99.0).unwrap_or(0.0), "us"),
        Metric::new(
            "engine.sim_share",
            busy as f64 / (SERVED_WORKERS * open.duration.as_secs_f64() * 1e6),
            "share",
        ),
    ];
    metrics.extend(tally.metrics());
    metrics
}

/// `replan` and `mixed`: the real `served` binary over TCP.
fn served_workload(workload: Workload, config: &Config, traced: bool) -> Result<Outcome, String> {
    let mixed = workload == Workload::Mixed;
    let binary = service::build()?;
    let pool = interactive_pool(config.seed);
    let batches = if mixed {
        batch_lines(config.seed, (config.seconds * BATCH_RATE).ceil() as usize + 1)
    } else {
        Vec::new()
    };
    let mut warm = gen::warmups(&gen::replan_fleets(), DiscSpec::paper());
    if mixed {
        warm.extend(gen::warmups(&[FleetDef::uniform(BatterySpec::b1(), 2)], DiscSpec::coarse()));
    }
    let warm: Vec<Line> =
        warm.into_iter().map(|s| Line::new(s, RequestClass::Interactive)).collect();

    let (server, setup) = cold_starts(&binary, &warm)?;
    let open_seconds = if mixed { config.seconds } else { config.seconds * OPEN_SHARE };
    let mut interactive = server.connect()?;
    let mut batch = if mixed { Some(server.connect()?) } else { None };
    let open = {
        let mut plans = vec![Plan {
            stream: &mut interactive,
            lines: &pool,
            first: 0,
            pace: Pace::Open { rate: INTERACTIVE_RATE },
        }];
        if let Some(stream) = batch.as_mut() {
            plans.push(Plan {
                stream,
                lines: &batches,
                first: 0,
                pace: Pace::Open { rate: BATCH_RATE },
            });
        }
        client::drive(&mut plans, Duration::from_secs_f64(open_seconds), DRAIN)?
    };
    let saturation = if mixed {
        None
    } else {
        let mut plans = [Plan {
            stream: &mut interactive,
            lines: &pool,
            first: open.logs[0].sent(),
            pace: Pace::Window { depth: WINDOW },
        }];
        let seconds = config.seconds - open_seconds;
        Some(client::drive(&mut plans, Duration::from_secs_f64(seconds), DRAIN)?)
    };
    let peak_rss_mb = server.peak_rss_mb()?;
    drop((interactive, batch, server));

    let mut out = Outcome {
        probe_inputs: pool.iter().map(|l| l.scenario.clone()).collect(),
        ..Outcome::default()
    };
    let mut streams: Vec<(&Log, &[Line])> = vec![(&open.logs[0], &pool)];
    if mixed {
        streams.push((&open.logs[1], &batches));
    }
    if let Some(phase) = &saturation {
        streams.push((&phase.logs[0], &pool));
    }
    let checked = verify(&streams, config.threads, &mut out);
    for ((log, _), c) in streams.iter().zip(&checked) {
        out.attempted += log.sent() as u64;
        out.failed += c.errors + c.missing;
    }

    let log = &open.logs[0];
    let short = Sample::new(latencies_us(log, &log.due_ns));
    let short_p50_us = supported(&short, 50.0, "interactive p50", &mut out);
    let short_p90_us = supported(&short, 90.0, "interactive p90", &mut out);
    let short_p95_us = supported(&short, 95.0, "interactive p95", &mut out);
    let short_p99_us = supported(&short, 99.0, "interactive p99", &mut out);
    out.line(
        workload,
        format!("setup_s {:.5} s (median of {} cold starts)", stats::median(&setup), setup.len()),
    );
    out.line(
        workload,
        format!(
            "interactive offered {INTERACTIVE_RATE:.0} req/s achieved {:.1} req/s (n={})",
            achieved_rate(log, open.duration),
            log.sent()
        ),
    );
    lateness(workload, log, "interactive", &mut out);
    out.line(
        workload,
        format!(
            "interactive_p50_us {short_p50_us:.1} p90 {short_p90_us:.1} \
             interactive_p95_us {short_p95_us:.1} interactive_p99_us {short_p99_us:.1} (n={})",
            short.len()
        ),
    );
    let (long_p50_ms, long_p95_ms, throughput_per_s) = if let Some(phase) = &saturation {
        let log = &phase.logs[0];
        let width = RATE_WINDOW.as_nanos() as u64;
        let end = phase.duration.as_nanos() as u64;
        let counts = stats::windows(log.recv_ns.iter().map(|&t| (t, 1.0)), width, end);
        let rate = required(
            Sample::new(
                counts.iter().map(|w| w.len() as f64 / RATE_WINDOW.as_secs_f64()).collect(),
            )
            .median(),
            "saturation rate",
            &mut out,
        );
        let latency = latencies_us(log, &log.sent_ns);
        let latency = stats::windows(
            latency.iter().enumerate().map(|(k, &v)| (log.recv_ns[k], v / 1e3)),
            width,
            end,
        );
        let p50 = windowed(&latency, 50.0, "pipelined p50", &mut out);
        let p95 = windowed(&latency, 95.0, "pipelined p95", &mut out);
        out.line(
            workload,
            format!(
            "saturation_rps {rate:.1} (window {WINDOW}, median of {} {} ms windows, {} answers); \
             pipelined latency p50 {p50:.3} ms p95 {p95:.3} ms",
            counts.len(),
            RATE_WINDOW.as_millis(),
            log.received()
        ),
        );
        (p50, p95, rate)
    } else {
        let log = &open.logs[1];
        lateness(workload, log, "batch", &mut out);
        let long = Sample::new(latencies_us(log, &log.due_ns).iter().map(|v| v / 1e3).collect());
        let p50 = supported(&long, 50.0, "batch p50", &mut out);
        let p95 = supported(&long, 95.0, "batch p95", &mut out);
        out.line(
            workload,
            format!(
                "batch offered {BATCH_RATE:.0} req/s achieved {:.1} req/s; \
             batch_p50_ms {p50:.3} batch_p95_ms {p95:.3} (n={})",
                achieved_rate(log, open.duration),
                long.len()
            ),
        );
        // The engine's own timing fields on the batch answers: how much of
        // each optimal cell the root-bound probe takes.
        let answers = checked[1].answers.iter().flatten();
        let (bound, wall, nodes) = answers.fold((0, 0, 0), |(b, w, n), a| {
            (
                b + a.bound_micros.unwrap_or(0),
                w + a.wall_micros.unwrap_or(0),
                n + a.nodes_explored.unwrap_or(0),
            )
        });
        out.line(
            workload,
            format!(
                "batch root-bound probe {:.1} % of optimal cell time (bound_micros / wall_micros); \
                 {nodes} nodes explored",
                100.0 * bound as f64 / wall.max(1) as f64
            ),
        );
        let rate = open.logs.iter().map(|log| achieved_rate(log, open.duration)).sum();
        (p50, p95, rate)
    };
    out.line(
        workload,
        format!(
            "failed_ratio {:.6} ({} of {} attempted); peak_rss_mb {peak_rss_mb:.2}",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ),
    );
    let headline = Headline {
        setup_s: stats::median(&setup),
        short_p50_us,
        long_p50_ms,
        long_p95_ms,
        throughput_per_s,
        peak_rss_mb,
    };
    end_to_end(&mut out, &headline);
    if traced {
        let all: Vec<&Checked> = checked.iter().take(if mixed { 2 } else { 1 }).collect();
        out.layers = served_layers(&open, &checked[0], &all, &pool);
    }
    Ok(out)
}

/// Served-layer metrics for a workload that does not touch `served` (the
/// sweep's traced run): a short open-loop interactive stream.
pub fn served_probe(config: &Config, seconds: f64) -> Result<Vec<Metric>, String> {
    let binary = service::build()?;
    let pool = interactive_pool(config.seed);
    let warm: Vec<Line> = gen::warmups(&gen::replan_fleets(), DiscSpec::paper())
        .into_iter()
        .map(|s| Line::new(s, RequestClass::Interactive))
        .collect();
    let (server, _) = service::cold_start(&binary, &warm)?;
    let mut stream = server.connect()?;
    let mut plans = [Plan {
        stream: &mut stream,
        lines: &pool,
        first: 0,
        pace: Pace::Open { rate: INTERACTIVE_RATE },
    }];
    let open = client::drive(&mut plans, Duration::from_secs_f64(seconds), DRAIN)?;
    drop((stream, server));
    let mut out = Outcome::default();
    let checked = verify(&[(&open.logs[0], &pool)], config.threads, &mut out);
    if let Some(problem) = out.problems.first() {
        return Err(format!("served probe: {problem}"));
    }
    Ok(served_layers(&open, &checked[0], &[&checked[0]], &pool)
        .into_iter()
        .filter(|m| m.name.starts_with("served."))
        .collect())
}

/// `sweep`: in-process `GridRun`s over a shared system cache.
fn sweep(config: &Config, traced: bool) -> Result<Outcome, String> {
    let warm = gen::sweep_warmup();
    let mut setup = Vec::new();
    let mut cache = Arc::new(SharedSystemCache::new());
    for _ in 0..SETUP_REPEATS {
        cache = Arc::new(SharedSystemCache::new());
        let start = Instant::now();
        GridRun::new(&warm)
            .threads(config.threads)
            .shared_cache(Arc::clone(&cache))
            .collect()
            .map_err(|e| format!("sweep set-up failed: {e}"))?;
        setup.push(start.elapsed().as_secs_f64());
    }

    let mut rng = gen::rng(config.seed, Stream::Sweep);
    let mut pick = gen::rng(config.seed, Stream::Sample);
    let (mut small, mut large, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cells, mut wall) = (0u64, 0u64);
    let mut sample: Vec<ScenarioResult> = Vec::new();
    let mut tally = SimTally::default();
    let mut out = Outcome::default();
    let start = Instant::now();
    let plan: Vec<usize> =
        [vec![SMALL_SWEEP_LOADS; SMALL_PER_ROUND], vec![LARGE_SWEEP_LOADS]].concat();
    while start.elapsed().as_secs_f64() < config.seconds {
        let (mut round_cells, mut round_s) = (0usize, 0.0);
        for &loads in &plan {
            let spec = gen::sweep_spec(&mut rng, loads);
            if out.probe_inputs.is_empty() {
                out.probe_inputs = spec.expand();
            }
            let t = Instant::now();
            let results = GridRun::new(&spec)
                .threads(config.threads)
                .shared_cache(Arc::clone(&cache))
                .collect()
                .map_err(|e| format!("sweep failed: {e}"))?;
            let elapsed = t.elapsed().as_secs_f64();
            if loads == LARGE_SWEEP_LOADS {
                large.push(elapsed * 1e3)
            } else {
                small.push(elapsed * 1e6)
            }
            round_s += elapsed;
            round_cells += results.len();
            if traced {
                for result in &results {
                    tally.add(&result.scenario, result.lifetime_minutes, result.wall_micros);
                    wall += result.wall_micros;
                }
            }
            for result in results {
                cells += 1;
                // Reservoir sampling: every row is equally likely to be checked.
                if sample.len() < SWEEP_CHECKS {
                    sample.push(result);
                } else if let Some(slot) = sample.get_mut((pick.next_u64() % cells) as usize) {
                    *slot = result;
                }
            }
        }
        rounds.push((round_cells, round_s));
    }
    let peak_rss_mb = service::peak_rss_mb("/proc/self/status")?;

    out.attempted = cells;
    let mut mismatches = 0;
    for result in &sample {
        match run_scenario(&result.scenario) {
            Ok(expected) => {
                if let Err(message) =
                    check::compare(&check::Row::of(&expected), &check::Row::of(result))
                {
                    out.problem(format!("sweep row {:?}: {message}", result.scenario));
                    mismatches += 1;
                }
            }
            Err(e) => {
                out.problem(format!("reference run failed: {e}"));
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        out.problem(format!("{mismatches} sweep rows failed the output check"));
    }

    let small = Sample::new(small);
    let large = Sample::new(large);
    let busy: f64 = rounds.iter().map(|r| r.1).sum();
    let headline = Headline {
        setup_s: stats::median(&setup),
        short_p50_us: supported(&small, 50.0, "small sweep p50", &mut out),
        long_p50_ms: supported(&large, 50.0, "large sweep p50", &mut out),
        long_p95_ms: supported(&large, 95.0, "large sweep p95", &mut out),
        throughput_per_s: required(
            Sample::new(rounds.iter().map(|&(c, s)| c as f64 / s).collect()).median(),
            "sweep rounds",
            &mut out,
        ),
        peak_rss_mb,
    };
    out.line(
        Workload::Sweep,
        format!("setup_s {:.6} s (median of {} cold builds)", headline.setup_s, setup.len()),
    );
    out.line(Workload::Sweep, format!(
        "cells_per_s {:.1} (median of {} rounds; {cells} cells in {busy:.2} s, {} threads); {} rows checked",
        headline.throughput_per_s,
        rounds.len(),
        config.threads,
        sample.len()
    ));
    out.line(
        Workload::Sweep,
        format!(
            "small sweep ({} cells) p50 {:.1} us p95 {:.1} us p99 {:.1} us (n={}); \
         large sweep ({} cells) p50 {:.3} ms p95 {:.3} ms (n={})",
            32 * SMALL_SWEEP_LOADS,
            headline.short_p50_us,
            small.percentile(95.0).unwrap_or(0.0),
            small.percentile(99.0).unwrap_or(0.0),
            small.len(),
            32 * LARGE_SWEEP_LOADS,
            headline.long_p50_ms,
            headline.long_p95_ms,
            large.len()
        ),
    );
    out.line(
        Workload::Sweep,
        format!("failed_ratio 0 (0 of {cells}); peak_rss_mb {peak_rss_mb:.2}"),
    );
    end_to_end(&mut out, &headline);
    if traced {
        let stats = cache.stats();
        out.layers = vec![
            Metric::new(
                "engine.cache_hit_ratio",
                stats.hits as f64 / (stats.hits + stats.builds).max(1) as f64,
                "share",
            ),
            Metric::new(
                "engine.sim_share",
                wall as f64 / (config.threads as f64 * busy * 1e6),
                "share",
            ),
        ];
        out.layers.extend(tally.metrics());
    }
    Ok(out)
}
