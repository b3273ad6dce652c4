//! Scenario-grid benchmarks through the parallel scenario engine.
//!
//! Every committed result document of the reproduction comes from here,
//! one module per mode:
//!
//! * [`grids`] — the **paper grid** (always: the Table 5 experiment, 60
//!   scenarios, `BENCH_scenarios.json`); the **optimal grid**
//!   (`--optimal`: optimal-vs-policy on the coarse grid with node counts,
//!   the 3×B1 frontier rows and the `frontier_root_bounds` section,
//!   `BENCH_optimal.json`); the **fleet grid** (`--fleet B1+B2` /
//!   `--fleet 2xB1+B2`, `BENCH_fleet.json`); the **cross-model grid**
//!   (`--crossmodel`: every paper load × deterministic policy × backend,
//!   per-load rankings and the RV-vs-KiBaM verdict, plus optimal
//!   cross-model cells, `BENCH_crossmodel.json`).
//! * [`random`] — the **random grid** (`--random-cells N`: a seed sweep
//!   streamed to `BENCH_random_grid.json`, optionally one `--shard I/N`
//!   of it) and **analyze** (`--analyze`: policy means, gap histograms and
//!   an optimal sub-grid over the first 8 seeds, `BENCH_analyze.json`).
//! * [`gates`] — the one `publish` step every gated grid (optimal, fleet,
//!   cross-model) goes through: read the committed copy of the output as
//!   the baseline, write the fresh document, apply the `--max-nodes`
//!   ceiling, then (with `--baseline`) gate every optimal cell against the
//!   committed copy — a dropped cell fails too.
//! * [`documents`] — reading and writing documents, `--merge` (shards of
//!   one grid into one document) and `--compare` (two documents section by
//!   section, result rows with their timing fields stripped).
//!
//! Exit status: 0 on success, 2 for usage errors and failed gates, 1 for
//! I/O, engine errors and documents that differ.
//!
//! ```text
//! scenarios [OUT] [--optimal] [--optimal-out PATH] [--max-nodes N]
//!           [--baseline]
//!           [--fleet SPEC] [--fleet-out PATH]
//!           [--crossmodel] [--crossmodel-out PATH]
//!           [--random-cells N] [--random-out PATH] [--shard I/N]
//!           [--analyze] [--analyze-out PATH]
//! scenarios --merge OUT IN...   # concatenate shard documents into OUT
//! scenarios --compare A B       # whole-document equality (timing ignored)
//! ```

mod documents;
mod gates;
mod grids;
mod random;

use engine::{BatterySpec, FleetDef};
use std::fmt;

/// Why a run failed; [`Error::exit_code`] maps it to the process status.
#[derive(Debug)]
pub enum Error {
    /// A malformed command line (exit 2).
    Usage(String),
    /// A benchmark gate failed (exit 2).
    Gate(String),
    /// I/O, an engine error or differing documents (exit 1).
    Failed(String),
}

impl Error {
    fn exit_code(&self) -> i32 {
        match self {
            Error::Usage(_) | Error::Gate(_) => 2,
            Error::Failed(_) => 1,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(message) | Error::Gate(message) | Error::Failed(message) => {
                f.write_str(message)
            }
        }
    }
}

/// Engine, search and I/O errors without more context fail the run.
impl<E: std::error::Error> From<E> for Error {
    fn from(error: E) -> Self {
        Error::Failed(error.to_string())
    }
}

struct Options {
    out: String,
    shard: Option<(usize, usize)>,
    optimal: bool,
    optimal_out: String,
    max_nodes: Option<u64>,
    baseline: bool,
    fleet: Option<FleetDef>,
    fleet_out: String,
    crossmodel: bool,
    crossmodel_out: String,
    random_cells: Option<usize>,
    random_out: String,
    analyze: bool,
    analyze_out: String,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, Error> {
        let mut options = Options {
            out: "BENCH_scenarios.json".to_owned(),
            shard: None,
            optimal: false,
            optimal_out: "BENCH_optimal.json".to_owned(),
            max_nodes: None,
            baseline: false,
            fleet: None,
            fleet_out: "BENCH_fleet.json".to_owned(),
            crossmodel: false,
            crossmodel_out: "BENCH_crossmodel.json".to_owned(),
            random_cells: None,
            random_out: "BENCH_random_grid.json".to_owned(),
            analyze: false,
            analyze_out: "BENCH_analyze.json".to_owned(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value =
                || args.next().cloned().ok_or_else(|| Error::Usage(format!("{arg} needs a value")));
            match arg.as_str() {
                "--shard" => options.shard = Some(parse_shard(&value()?)?),
                "--optimal" => options.optimal = true,
                "--optimal-out" => options.optimal_out = value()?,
                "--max-nodes" => options.max_nodes = Some(parse(&value()?)?),
                "--baseline" => options.baseline = true,
                "--fleet" => options.fleet = Some(parse_fleet(&value()?)?),
                "--fleet-out" => options.fleet_out = value()?,
                "--crossmodel" => options.crossmodel = true,
                "--crossmodel-out" => options.crossmodel_out = value()?,
                "--random-cells" => options.random_cells = Some(parse(&value()?)?),
                "--random-out" => options.random_out = value()?,
                "--analyze" => options.analyze = true,
                "--analyze-out" => options.analyze_out = value()?,
                other if !other.starts_with("--") => options.out = other.to_owned(),
                other => return Err(Error::Usage(format!("unknown flag '{other}'"))),
            }
        }
        Ok(options)
    }
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, Error> {
    text.parse().map_err(|_| Error::Usage(format!("cannot parse '{text}'")))
}

/// Parses a `--shard` spec like `2/3` (shard index 2 of 3) into
/// `(index, count)`.
fn parse_shard(text: &str) -> Result<(usize, usize), Error> {
    let Some((index, count)) = text.split_once('/') else {
        return Err(Error::Usage(format!("--shard expects I/N (e.g. 0/3), got '{text}'")));
    };
    let (index, count) = (parse::<usize>(index)?, parse::<usize>(count)?);
    if count == 0 || index >= count {
        return Err(Error::Usage(format!("--shard {index}/{count} is out of range")));
    }
    Ok((index, count))
}

/// Parses a `--fleet` spec like `B1+B2`, `B1+B1+B2` or `2xB1+B2` into a
/// [`FleetDef`]: `+`-separated terms, each a battery name (`B1`/`B2`)
/// optionally prefixed with a positive `Nx` multiplier.
fn parse_fleet(text: &str) -> Result<FleetDef, Error> {
    let mut batteries = Vec::new();
    for term in text.split('+') {
        let (count, name) = match term.split_once('x') {
            Some((count, name)) => (parse::<usize>(count)?, name),
            None => (1, term),
        };
        let battery = match name {
            "B1" => BatterySpec::b1(),
            "B2" => BatterySpec::b2(),
            other => {
                return Err(Error::Usage(format!(
                    "unknown battery '{other}' in --fleet (expected B1 or B2)"
                )))
            }
        };
        if count == 0 {
            return Err(Error::Usage(format!("--fleet multiplier must be positive in '{term}'")));
        }
        batteries.extend(vec![battery; count]);
    }
    Ok(FleetDef::mixed(batteries))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(error) = run(&args) {
        eprintln!("{error}");
        std::process::exit(error.exit_code());
    }
}

fn run(args: &[String]) -> Result<(), Error> {
    // Merge and compare are standalone utility modes (they run no grids),
    // selected by their flag in first position.
    match args.first().map(String::as_str) {
        Some("--merge") => return documents::merge(&args[1..]),
        Some("--compare") => return documents::compare(&args[1..]),
        _ => {}
    }
    let options = Options::parse(args)?;
    documents::write(&options.out, &grids::paper()?)?;
    let publish = |out: &str, grid| gates::publish(out, &grid, options.max_nodes, options.baseline);
    if options.optimal {
        publish(&options.optimal_out, grids::optimal()?)?;
        grids::print_seed_vs_memoized()?;
    }
    if let Some(fleet) = &options.fleet {
        publish(&options.fleet_out, grids::fleet(fleet.clone())?)?;
    }
    if options.crossmodel {
        publish(&options.crossmodel_out, grids::crossmodel()?)?;
    }
    if let Some(cells) = options.random_cells {
        random::stream(cells, options.shard, &options.random_out)?;
    }
    if options.analyze {
        documents::write(&options.analyze_out, &random::analyze(&options.random_out)?)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_specs_parse_multipliers_and_reject_unknown_terms() {
        let fleet = parse_fleet("2xB1+B2").unwrap();
        let names: Vec<&str> = fleet.batteries.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["B1", "B1", "B2"]);
        for bad in ["0xB1", "B3"] {
            assert!(matches!(parse_fleet(bad), Err(Error::Usage(_))), "{bad} must be refused");
        }
    }

    #[test]
    fn shard_specs_must_name_an_index_below_a_positive_count() {
        assert_eq!(parse_shard("0/3").unwrap(), (0, 3));
        for bad in ["3/3", "1/0", "2", "a/3"] {
            assert!(matches!(parse_shard(bad), Err(Error::Usage(_))), "{bad} must be refused");
        }
    }

    #[test]
    fn baseline_is_a_switch() {
        let args: Vec<String> = ["--optimal", "--baseline", "out.json"].map(String::from).to_vec();
        let options = Options::parse(&args).unwrap();
        assert!(options.baseline && options.optimal);
        assert_eq!(options.out, "out.json");
        let removed = ["--threads".to_owned(), "2".to_owned()];
        assert!(matches!(Options::parse(&removed), Err(Error::Usage(_))));
    }
}
