//! The gates of the optimal, fleet and cross-model grids — the
//! `--max-nodes` node ceiling and the committed-baseline gate — and the
//! one [`publish`] step that writes a gated grid and runs them.

use crate::{documents, grids, Error};
use engine::json::JsonValue;
use engine::ScenarioResult;
use std::collections::{BTreeMap, BTreeSet};

/// A gated grid's fresh output, ready for [`publish`].
pub struct GatedGrid {
    /// The whole document to write.
    pub document: JsonValue,
    /// The optimal-search rows: printed as the node table and held to the
    /// committed baseline.
    pub gated: Vec<ScenarioResult>,
    /// How many leading `gated` rows the `--max-nodes` ceiling covers (the
    /// rows beyond it are frontier cells, gated by the baseline alone).
    pub ceiling_rows: usize,
}

/// The node-count tolerance of the baseline gate: a cell may explore up to
/// 10 % more nodes than the committed baseline records before the gate
/// fails. Bound and search-order changes legitimately wobble node counts by
/// a few percent; anything past a tenth is a real regression. Lifetimes get
/// no tolerance — a solved cell must reproduce its optimum bit-identically.
const BASELINE_NODE_TOLERANCE_PERCENT: u64 = 10;

/// Writes `grid` to `out` and runs its gates, in the one order that keeps
/// both the baseline and the artifact honest:
///
/// 1. with `baseline`, the committed copy of `out` is read first — it is
///    the baseline. A missing copy skips the baseline gate with a note: the
///    bootstrap path of a newly gated grid, whose first run must be able to
///    produce the document it will be gated against;
/// 2. the fresh document is written, so a failing gate still leaves it
///    behind for baseline regeneration;
/// 3. the `max_nodes` ceiling applies to the ceiling rows;
/// 4. the baseline gate holds every optimal cell to the committed copy.
pub fn publish(
    out: &str,
    grid: &GatedGrid,
    max_nodes: Option<u64>,
    baseline: bool,
) -> Result<(), Error> {
    let committed = match baseline {
        true if std::path::Path::new(out).exists() => Some(read_baseline(out)?),
        true => {
            println!(
                "baseline note: no committed {out} yet — baseline gate skipped \
                 (commit this run's document to arm it)"
            );
            None
        }
        false => None,
    };
    documents::write(out, &grid.document)?;
    print_node_table(&grid.gated);
    if let Some(ceiling) = max_nodes {
        check_node_ceiling(&grid.gated[..grid.ceiling_rows], ceiling)?;
    }
    if let Some(committed) = committed {
        let fresh: Vec<JsonValue> = grid.gated.iter().map(ScenarioResult::to_json_value).collect();
        let checked = check_baseline(&committed, &gate_cells(&fresh))?;
        println!("baseline gate ok: {checked} optimal cells at or below the baseline\n");
    }
    Ok(())
}

/// Prints the lifetime and the search counters of every row.
fn print_node_table(results: &[ScenarioResult]) {
    println!(
        "{:<32} {:>10} {:>12} {:>9} {:>7} {:>9} {:>9} {:>9}",
        "scenario", "lifetime", "nodes", "memo", "dom", "charge", "avail", "relax"
    );
    for result in results {
        let stats = result.search;
        let fmt = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_default();
        println!(
            "{:<32} {:>10} {:>12} {:>9} {:>7} {:>9} {:>9} {:>9}",
            result.scenario.label(),
            grids::lifetime_label(result),
            fmt(stats.map(|s| s.nodes_explored)),
            fmt(stats.map(|s| s.memo_hits)),
            fmt(stats.map(|s| s.dominance_prunes)),
            fmt(stats.map(|s| s.charge_bound_prunes)),
            fmt(stats.map(|s| s.availability_bound_prunes)),
            fmt(stats.map(|s| s.relax_bound_prunes)),
        );
    }
}

/// Fails if any search in `results` explored more than `ceiling` nodes.
fn check_node_ceiling(results: &[ScenarioResult], ceiling: u64) -> Result<(), Error> {
    let worst = results.iter().filter_map(|r| r.search).map(|s| s.nodes_explored).max();
    let worst = worst.unwrap_or(0);
    if worst > ceiling {
        return Err(Error::Gate(format!(
            "node-count regression: worst optimal search explored {worst} nodes, \
             ceiling is {ceiling}"
        )));
    }
    println!("node gate ok: worst search {worst} <= ceiling {ceiling}\n");
    Ok(())
}

/// One gated cell: the node count the search recorded and the lifetime it
/// proved.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    nodes: u64,
    lifetime_minutes: Option<f64>,
}

/// The optimal cells of result rows, labelled `fleet load policy backend`
/// (the [`engine::Scenario::label`] format). Rows without a node count are
/// policy rows and carry no gate.
fn gate_cells(rows: &[JsonValue]) -> Vec<(String, Cell)> {
    rows.iter()
        .filter_map(|row| {
            let field = |key| row.get(key).and_then(JsonValue::as_str);
            let label = format!(
                "{} {} {} {}",
                field("fleet")?,
                field("load")?,
                field("policy")?,
                field("backend")?
            );
            let nodes = row.get("nodes_explored").and_then(JsonValue::as_u64)?;
            let lifetime_minutes = row.get("lifetime_minutes").and_then(JsonValue::as_f64);
            Some((label, Cell { nodes, lifetime_minutes }))
        })
        .collect()
}

/// Reads the gated cells of the committed document at `path`.
fn read_baseline(path: &str) -> Result<BTreeMap<String, Cell>, Error> {
    let (_, rows) = documents::read_results(path)?;
    let baseline: BTreeMap<String, Cell> = gate_cells(&rows).into_iter().collect();
    if baseline.is_empty() {
        return Err(Error::Failed(format!(
            "baseline {path} holds no optimal cells — refusing to gate against nothing"
        )));
    }
    Ok(baseline)
}

/// Fails if a fresh cell explores more nodes than its baseline cell plus
/// the [`BASELINE_NODE_TOLERANCE_PERCENT`] tolerance, if its proven
/// lifetime differs from the baseline's at all, or if a baseline cell is no
/// longer produced (a silently dropped scenario must not pass as "nothing
/// regressed"). Fresh cells without a baseline entry are new and noted, not
/// gated. Returns the number of cells checked.
fn check_baseline(
    baseline: &BTreeMap<String, Cell>,
    fresh: &[(String, Cell)],
) -> Result<usize, Error> {
    let mut seen = BTreeSet::new();
    for (label, cell) in fresh {
        let Some(base) = baseline.get(label) else {
            println!("baseline note: no entry for '{label}' (new cell)");
            continue;
        };
        let ceiling = base.nodes.saturating_add(base.nodes * BASELINE_NODE_TOLERANCE_PERCENT / 100);
        if cell.nodes > ceiling {
            return Err(Error::Gate(format!(
                "baseline regression: {label} explored {} nodes, baseline {} \
                 (+{BASELINE_NODE_TOLERANCE_PERCENT}% ceiling {ceiling})",
                cell.nodes, base.nodes
            )));
        }
        if cell.lifetime_minutes != base.lifetime_minutes {
            return Err(Error::Gate(format!(
                "baseline regression: {label} proved lifetime {:?}, baseline {:?} \
                 (solved cells must reproduce their optimum bit-identically)",
                cell.lifetime_minutes, base.lifetime_minutes
            )));
        }
        seen.insert(label.as_str());
    }
    let dropped: Vec<&str> =
        baseline.keys().map(String::as_str).filter(|label| !seen.contains(label)).collect();
    if !dropped.is_empty() {
        return Err(Error::Gate(format!(
            "baseline cells not produced by this run: '{}' — a dropped cell silently \
             removes its regression gate",
            dropped.join("', '")
        )));
    }
    Ok(seen.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(nodes: u64, lifetime: f64) -> Cell {
        Cell { nodes, lifetime_minutes: Some(lifetime) }
    }

    fn baseline() -> BTreeMap<String, Cell> {
        [("2xB1 ILs alt optimal discretized", cell(100, 12.5))]
            .map(|(label, cell)| (label.to_owned(), cell))
            .into()
    }

    fn fresh(cells: &[(&str, Cell)]) -> Vec<(String, Cell)> {
        cells.iter().map(|&(label, cell)| (label.to_owned(), cell)).collect()
    }

    const LABEL: &str = "2xB1 ILs alt optimal discretized";

    #[test]
    fn baseline_gate_tolerates_ten_percent_more_nodes() {
        assert_eq!(check_baseline(&baseline(), &fresh(&[(LABEL, cell(110, 12.5))])).unwrap(), 1);
        let over = check_baseline(&baseline(), &fresh(&[(LABEL, cell(111, 12.5))]));
        assert!(matches!(over, Err(Error::Gate(m)) if m.contains("explored 111 nodes")));
    }

    #[test]
    fn baseline_gate_fails_a_changed_lifetime() {
        let changed = check_baseline(&baseline(), &fresh(&[(LABEL, cell(90, 12.49))]));
        assert!(matches!(changed, Err(Error::Gate(m)) if m.contains("proved lifetime")));
    }

    #[test]
    fn baseline_gate_fails_a_dropped_cell_and_notes_a_new_one() {
        let new = "3xB1 ILs alt optimal discretized";
        let dropped = check_baseline(&baseline(), &fresh(&[(new, cell(5, 1.0))]));
        assert!(matches!(dropped, Err(Error::Gate(m)) if m.contains(LABEL)));
        let both = fresh(&[(LABEL, cell(100, 12.5)), (new, cell(5, 1.0))]);
        assert_eq!(check_baseline(&baseline(), &both).unwrap(), 1);
    }

    #[test]
    fn gate_cells_label_optimal_rows_only() {
        let rows = JsonValue::parse(
            r#"[{"fleet": "2xB1", "load": "ILs alt", "policy": "optimal", "backend": "discretized",
                 "lifetime_minutes": 12.5, "nodes_explored": 100},
                {"fleet": "2xB1", "load": "ILs alt", "policy": "round-robin",
                 "backend": "discretized", "lifetime_minutes": 9.0}]"#,
        )
        .unwrap();
        let cells = gate_cells(rows.as_array().unwrap());
        assert_eq!(cells, fresh(&[(LABEL, cell(100, 12.5))]));
    }
}
