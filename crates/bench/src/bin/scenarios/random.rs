//! The random-load study: a seed sweep streamed to disk, and `--analyze`,
//! its summary plus an optimal sub-grid — the seed of the Section 7
//! random-workload outlook.

use crate::{documents, grids, Error};
use engine::json::JsonValue;
use engine::{BackendKind, DiscSpec, GridRun, LoadSpec, PolicyKind, ScenarioSpec};
use std::time::Instant;

/// Jobs per random load.
const RANDOM_JOBS: usize = 50;

/// Leading seeds of the streamed grid that `--analyze` re-runs with the
/// optimal search on the coarse grid.
const ANALYZE_SEEDS: usize = 8;

/// A random-load seed sweep of about `cells` cells (every deterministic
/// policy on each seed), or one `shard` of it, streamed to `out` while it
/// runs: a 10⁴–10⁵-cell sweep never holds its results in memory.
pub fn stream(cells: usize, shard: Option<(usize, usize)>, out: &str) -> Result<(), Error> {
    let policies = PolicyKind::deterministic().to_vec();
    let seeds = cells.div_ceil(policies.len()).max(1);
    let spec = grids::two_b1(
        DiscSpec::paper(),
        (0..seeds as u64).map(|seed| LoadSpec::random_paper_levels(seed, RANDOM_JOBS)).collect(),
        policies,
        vec![BackendKind::Discretized],
    );
    let shard_note = shard.map(|(index, count)| format!(", shard {index}/{count}"));
    println!(
        "random grid: {} scenarios ({seeds} seeds x {} policies, {RANDOM_JOBS} jobs each){}, \
         streaming to {out}",
        spec.scenario_count(),
        spec.policies.len(),
        shard_note.unwrap_or_default(),
    );
    let file = std::fs::File::create(out)
        .map_err(|error| Error::Failed(format!("cannot create {out}: {error}")))?;
    let start = Instant::now();
    let mut run = GridRun::new(&spec);
    if let Some((index, count)) = shard {
        run = run.shard(index, count);
    }
    let summary = run
        .stream(std::io::BufWriter::new(file))
        .map_err(|error| Error::Failed(format!("random grid failed: {error}")))?;
    let wall = start.elapsed();
    #[allow(clippy::cast_precision_loss)]
    let per_cell = wall.as_secs_f64() * 1e6 / summary.written.max(1) as f64;
    println!("streamed {} results in {wall:.2?} ({per_cell:.0} us/cell)", summary.written);
    Ok(())
}

/// Per-load lifetimes of the streamed random grid, keyed by policy name.
fn lifetimes_by_policy(rows: &[JsonValue]) -> Vec<(String, Vec<(String, f64)>)> {
    let mut policies: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for row in rows {
        let (Some(load), Some(policy), Some(lifetime)) = (
            row.get("load").and_then(JsonValue::as_str),
            row.get("policy").and_then(JsonValue::as_str),
            row.get("lifetime_minutes").and_then(JsonValue::as_f64),
        ) else {
            continue;
        };
        match policies.iter_mut().find(|(name, _)| name == policy) {
            Some((_, cells)) => cells.push((load.to_owned(), lifetime)),
            None => policies.push((policy.to_owned(), vec![(load.to_owned(), lifetime)])),
        }
    }
    policies
}

/// The gap-percentage histogram buckets of the analyze summary.
const GAP_BUCKETS: [(&str, f64, f64); 6] = [
    ("0%", 0.0, 0.0),
    ("(0,1]%", 0.0, 1.0),
    ("(1,2]%", 1.0, 2.0),
    ("(2,5]%", 2.0, 5.0),
    ("(5,10]%", 5.0, 10.0),
    (">10%", 10.0, f64::INFINITY),
];

/// Counts `gaps` (relative gains, in percent) into the [`GAP_BUCKETS`]
/// histogram and renders it as a JSON array.
fn gap_histogram(gaps: &[f64]) -> JsonValue {
    JsonValue::Array(
        GAP_BUCKETS
            .iter()
            .map(|&(label, low, high)| {
                #[allow(clippy::cast_precision_loss)]
                let count = gaps
                    .iter()
                    .filter(|&&gap| {
                        if low == 0.0 && high == 0.0 {
                            gap <= 0.0
                        } else {
                            gap > low && gap <= high
                        }
                    })
                    .count() as f64;
                JsonValue::object(vec![
                    ("bucket", JsonValue::String(label.to_owned())),
                    ("count", JsonValue::Number(count)),
                ])
            })
            .collect(),
    )
}

/// A relative gain in percent, with float noise clamped to zero.
fn gain_percent(better: f64, base: f64) -> f64 {
    let gap = (better - base) / base * 100.0;
    if gap > 1e-7 {
        gap
    } else {
        0.0
    }
}

/// Summarizes the streamed random grid at `path`: per-policy mean
/// lifetimes, best-of-two-vs-round-robin gap histograms, and an
/// optimal-vs-best-of-two comparison on a coarse sub-grid of the first
/// [`ANALYZE_SEEDS`] seeds (`BENCH_analyze.json`).
pub fn analyze(path: &str) -> Result<JsonValue, Error> {
    let (spec, rows) = documents::read_results(path)?;
    let policies = lifetimes_by_policy(&rows);
    println!("analyze: {} result rows from {path}", rows.len());
    let mut policy_rows = Vec::new();
    for (policy, cells) in &policies {
        #[allow(clippy::cast_precision_loss)]
        let mean = cells.iter().map(|(_, m)| m).sum::<f64>() / cells.len().max(1) as f64;
        println!("  {policy:<14} {:>6} cells, mean lifetime {mean:.2} min", cells.len());
        #[allow(clippy::cast_precision_loss)]
        policy_rows.push(JsonValue::object(vec![
            ("policy", JsonValue::String(policy.clone())),
            ("cells", JsonValue::Number(cells.len() as f64)),
            ("mean_lifetime_minutes", JsonValue::Number(mean)),
        ]));
    }
    #[allow(clippy::cast_precision_loss)]
    let mut document = vec![
        ("rows", JsonValue::Number(rows.len() as f64)),
        ("policies", JsonValue::Array(policy_rows)),
    ];

    // Best-of-two vs round-robin, matched per load, with a gap histogram.
    let find = |name: &str| policies.iter().find(|(p, _)| p == name).map(|(_, c)| c);
    if let (Some(rr), Some(best)) = (find("round-robin"), find("best-of-two")) {
        let gaps: Vec<f64> = best
            .iter()
            .filter_map(|(load, best_lifetime)| {
                let (_, rr_lifetime) = rr.iter().find(|(l, _)| l == load)?;
                Some(gain_percent(*best_lifetime, *rr_lifetime))
            })
            .collect();
        let better = gaps.iter().filter(|&&g| g > 0.0).count();
        let max_gain = gaps.iter().copied().fold(0.0f64, f64::max);
        println!(
            "  best-of-two beats round-robin on {better}/{} random loads \
             (max gain {max_gain:.1}%)",
            gaps.len(),
        );
        #[allow(clippy::cast_precision_loss)]
        document.push((
            "best_vs_round_robin",
            JsonValue::object(vec![
                ("matched", JsonValue::Number(gaps.len() as f64)),
                ("better", JsonValue::Number(better as f64)),
                ("max_gain_percent", JsonValue::Number(max_gain)),
                ("gap_histogram", gap_histogram(&gaps)),
            ]),
        ));
    }

    // Optimal-vs-best-of-two on a coarse sub-grid of the same seeds: the
    // paper grid is too fine for exhaustive search, so the sub-grid answers
    // the qualitative question (how often does the best deterministic
    // policy already achieve the optimum on random loads?).
    let sub_loads: Vec<LoadSpec> = spec.loads.iter().take(ANALYZE_SEEDS).cloned().collect();
    if sub_loads.is_empty() {
        println!("  (no random loads in the document; skipping the optimal sub-grid)");
        return Ok(JsonValue::object(document));
    }
    let sub_spec = ScenarioSpec {
        discretizations: vec![DiscSpec::coarse()],
        loads: sub_loads,
        policies: vec![PolicyKind::BestOfTwo, PolicyKind::optimal()],
        backends: vec![BackendKind::Discretized],
        ..spec
    };
    let results = grids::run(&sub_spec, "optimal sub-grid")?;
    let gap_list: Vec<f64> = results
        .chunks(2)
        .filter_map(|pair| match pair {
            [best, optimal] => {
                Some(gain_percent(optimal.lifetime_minutes?, best.lifetime_minutes?))
            }
            _ => None,
        })
        .collect();
    let seeds = gap_list.len();
    let gaps = gap_list.iter().filter(|&&g| g > 0.0).count();
    let max_gap = gap_list.iter().copied().fold(0.0f64, f64::max);
    println!(
        "  coarse sub-grid ({seeds} seeds): optimal beats best-of-two on {gaps}/{seeds} loads \
         (max gap {max_gap:.1}%)"
    );
    #[allow(clippy::cast_precision_loss)]
    document.push((
        "optimal_sub_grid",
        JsonValue::object(vec![
            ("seeds", JsonValue::Number(seeds as f64)),
            ("optimal_better", JsonValue::Number(gaps as f64)),
            ("max_gap_percent", JsonValue::Number(max_gap)),
            ("gap_histogram", gap_histogram(&gap_list)),
        ]),
    ));
    Ok(JsonValue::object(document))
}
