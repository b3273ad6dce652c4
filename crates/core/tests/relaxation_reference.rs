//! A max-flow reference for the search's relaxation bound.
//!
//! The relaxation bound of the optimal search (`relax_bound` in
//! `core::optimal`) couples exact per-battery service columns
//! ([`dkibam::ColumnBuilder`]) through the load's shared demand: battery
//! `i` may serve at most `columns[i][e]` charge units among job epochs
//! `0..=e`, and the fleet must cover every epoch's draws. Because the
//! columns are cumulative, the max flow of that prefix-capacity
//! transportation network has a closed-form (laminar) min cut, and the
//! search walks it epoch by epoch instead of solving a flow. This suite
//! solves the same network with an actual max-flow solver, which shares no
//! code with the walk, and holds the root bound to it:
//!
//! * the flow's first-shortfall death step, computed with the walk's draw
//!   arithmetic, is at least the root `relaxation` bound, and
//! * the two are equal wherever the walk's serialization cut (whole job
//!   epochs against [`ServiceColumn::full_epochs`]) does not bind; where it
//!   binds, the bound is the cut's death step.
//!
//! The cases cover the ten paper loads on coarse 2×B1, 3×B1 and B1+B2,
//! seeded random loads, a load that ends in idle time, and the continuous
//! backend (which provides no columns).

use battery_sched::model::BatteryModel;
use battery_sched::optimal::OptimalScheduler;
use battery_sched::system::SystemConfig;
use dkibam::{ColumnBuilder, DiscreteEpoch, Discretization, ServiceColumn};
use kibam::{BatteryParams, FleetSpec};
use std::collections::VecDeque;
use workload::builder::LoadProfileBuilder;
use workload::paper_loads::TestLoad;
use workload::random::RandomLoadSpec;
use workload::LoadProfile;

/// A small dense max-flow solver: shortest augmenting paths found by
/// breadth-first search (Edmonds–Karp). Arc order is insertion order, so
/// identical inputs produce identical flows.
#[derive(Debug, Clone, Default)]
struct MaxFlow {
    /// Arc ids leaving each node (forward and residual arcs).
    adjacency: Vec<Vec<usize>>,
    to: Vec<usize>,
    cap: Vec<u64>,
}

impl MaxFlow {
    fn new(nodes: usize) -> Self {
        Self { adjacency: vec![Vec::new(); nodes], to: Vec::new(), cap: Vec::new() }
    }

    /// Adds a directed arc `from → to` with capacity `cap` and returns its
    /// id (for [`MaxFlow::flow_on`]). Out-of-range endpoints make the arc
    /// inert (capacity zero on node 0).
    fn add_arc(&mut self, from: usize, to: usize, cap: u64) -> usize {
        let id = self.to.len();
        let (from, to, cap) = if from < self.adjacency.len() && to < self.adjacency.len() {
            (from, to, cap)
        } else {
            (0, 0, 0)
        };
        // Forward arc (even id) and residual arc (odd id).
        self.to.extend([to, from]);
        self.cap.extend([cap, 0]);
        self.adjacency[from].push(id);
        self.adjacency[to].push(id + 1);
        id
    }

    /// Pushes as much flow as possible from `source` to `sink` and returns
    /// the total.
    fn solve(&mut self, source: usize, sink: usize) -> u64 {
        let nodes = self.adjacency.len();
        if source >= nodes || sink >= nodes || source == sink {
            return 0;
        }
        let mut total = 0u64;
        let mut parent = vec![usize::MAX; nodes];
        loop {
            parent.fill(usize::MAX);
            let mut queue = VecDeque::from([source]);
            while let Some(node) = queue.pop_front() {
                for &arc in &self.adjacency[node] {
                    let next = self.to[arc];
                    if self.cap[arc] > 0 && next != source && parent[next] == usize::MAX {
                        parent[next] = arc;
                        queue.push_back(next);
                    }
                }
            }
            if parent[sink] == usize::MAX {
                return total;
            }
            let mut bottleneck = u64::MAX;
            let mut node = sink;
            while node != source {
                let arc = parent[node];
                bottleneck = bottleneck.min(self.cap[arc]);
                node = self.to[arc ^ 1];
            }
            let mut node = sink;
            while node != source {
                let arc = parent[node];
                self.cap[arc] -= bottleneck;
                self.cap[arc ^ 1] += bottleneck;
                node = self.to[arc ^ 1];
            }
            total += bottleneck;
        }
    }

    /// The flow carried by an arc returned from [`MaxFlow::add_arc`] (the
    /// residual capacity of its reverse arc).
    fn flow_on(&self, arc: usize) -> u64 {
        self.cap.get(arc | 1).copied().unwrap_or(0)
    }
}

/// The maximum coverage and a concrete assignment achieving it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Coverage {
    /// Total units covered over all epochs.
    total: u64,
    /// `assignment[i][e]` = units battery `i` serves in epoch `e`.
    assignment: Vec<Vec<u64>>,
}

/// The shortest of `demands` and every column: the consistent epoch count.
fn epoch_count<C: AsRef<[u64]>>(columns: &[C], demands: &[u64]) -> usize {
    columns.iter().map(|column| column.as_ref().len()).fold(demands.len(), usize::min)
}

/// Solves the prefix-capacity transportation network as a max flow:
/// source → epoch `e` (capacity `demands[e]`) → battery `i`'s chain node at
/// `e` (unbounded), and battery `i`'s chain `e → e + 1 → … → sink` carrying
/// its cumulative service through epoch `e` (capacity `columns[i][e]`).
fn flow_coverage<C: AsRef<[u64]>>(columns: &[C], demands: &[u64]) -> Coverage {
    let epochs = epoch_count(columns, demands);
    let batteries = columns.len();
    let mut assignment = vec![vec![0u64; epochs]; batteries];
    if epochs == 0 || batteries == 0 {
        return Coverage { total: 0, assignment };
    }
    let source = 0;
    let epoch_node = |e: usize| 1 + e;
    let chain_node = |i: usize, e: usize| 1 + epochs + i * epochs + e;
    let sink = 1 + epochs + batteries * epochs;
    let mut network = MaxFlow::new(sink + 1);
    for (e, &demand) in demands.iter().enumerate().take(epochs) {
        network.add_arc(source, epoch_node(e), demand);
    }
    let mut epoch_arcs = vec![vec![0; epochs]; batteries];
    for (i, column) in columns.iter().enumerate() {
        let column = column.as_ref();
        for e in 0..epochs {
            epoch_arcs[i][e] = network.add_arc(epoch_node(e), chain_node(i, e), u64::MAX / 4);
            let next = if e + 1 < epochs { chain_node(i, e + 1) } else { sink };
            network.add_arc(chain_node(i, e), next, column[e]);
        }
    }
    let total = network.solve(source, sink);
    for (i, arcs) in epoch_arcs.iter().enumerate() {
        for (e, &arc) in arcs.iter().enumerate() {
            assignment[i][e] = network.flow_on(arc);
        }
    }
    Coverage { total, assignment }
}

/// The laminar min cut of [`flow_coverage`]'s network in closed form: every
/// battery chain cut at one common epoch threshold `t`, every later demand
/// arc cut (`t = -1` cuts every demand arc).
fn coverage_bound<C: AsRef<[u64]>>(columns: &[C], demands: &[u64]) -> u64 {
    let epochs = epoch_count(columns, demands);
    let mut suffix: u64 = demands[..epochs].iter().sum();
    let mut best = suffix;
    for (e, &demand) in demands[..epochs].iter().enumerate() {
        suffix -= demand;
        let chains: u64 = columns.iter().map(|column| column.as_ref()[e]).sum();
        best = best.min(chains + suffix);
    }
    best
}

/// The first epoch whose cumulative demand exceeds the summed cumulative
/// capacities, or `None` if every epoch is coverable.
fn first_shortfall<C: AsRef<[u64]>>(columns: &[C], demands: &[u64]) -> Option<usize> {
    let mut cumulative = 0u64;
    (0..epoch_count(columns, demands)).find(|&e| {
        cumulative += demands[e];
        cumulative > columns.iter().map(|column| column.as_ref()[e]).sum::<u64>()
    })
}

/// The fresh fleet's service columns over the whole timeline, built with
/// the search's default front cap.
fn fresh_columns(config: &SystemConfig, epochs: &[DiscreteEpoch]) -> Vec<ServiceColumn> {
    let model = config.discretized_model();
    let mut builder = ColumnBuilder::default();
    (0..config.battery_count())
        .map(|battery| {
            let (state, params, recovery) =
                model.column_inputs(battery).expect("discretized batteries have column inputs");
            let mut column = ServiceColumn::default();
            builder.build(state, params, recovery, epochs, &mut column);
            column
        })
        .collect()
}

/// The death step of the flow relaxation: the first job epoch whose prefix
/// network the max flow cannot cover, and within it one draw interval past
/// the last whole draw the flow still covers (or the first draw, if none).
/// The full timeline's step count when every epoch is covered.
fn flow_death_step(columns: &[ServiceColumn], epochs: &[DiscreteEpoch]) -> u64 {
    let mut demands = Vec::new();
    let mut covered_before = 0u64;
    let mut steps = 0u64;
    for epoch in epochs {
        if epoch.is_idle() {
            steps += epoch.duration_steps();
            continue;
        }
        let interval = u64::from(epoch.draw_interval_steps());
        let units = u64::from(epoch.units_per_draw());
        let draws_possible = epoch.duration_steps() / interval;
        demands.push(draws_possible * units);
        let prefix: Vec<&[u64]> =
            columns.iter().map(|column| &column.units[..demands.len()]).collect();
        let covered = flow_coverage(&prefix, &demands).total;
        if covered < covered_before + draws_possible * units {
            let draws_served = (covered - covered_before) / units;
            return steps + (draws_served + 1).min(draws_possible) * interval;
        }
        covered_before = covered;
        steps += epoch.duration_steps();
    }
    steps
}

/// The death step of the serialization cut on a fresh fleet, if it binds:
/// the last draw of the first job epoch by which more whole epochs have
/// passed than the fleet can serve whole plus one handoff per battery.
fn cut_death_step(columns: &[ServiceColumn], epochs: &[DiscreteEpoch]) -> Option<u64> {
    let alive = columns.len() as u64;
    let mut whole_epochs = 0u64;
    let mut job_epoch = 0;
    let mut steps = 0u64;
    for epoch in epochs {
        if !epoch.is_idle() {
            if epoch.total_units() > 0 {
                whole_epochs += 1;
                let full_serves: u64 =
                    columns.iter().map(|column| column.full_epochs[job_epoch]).sum();
                if whole_epochs.saturating_sub(alive) > full_serves {
                    let interval = u64::from(epoch.draw_interval_steps());
                    return Some(steps + epoch.draws_in_epoch() * interval);
                }
            }
            job_epoch += 1;
        }
        steps += epoch.duration_steps();
    }
    None
}

/// What one instance showed: the root bound and the flow's death step.
struct Checked {
    relaxation: u64,
    flow: u64,
    total_steps: u64,
}

/// Holds the root relaxation bound to the flow reference on one instance:
/// never above the flow's death step, and equal to it unless the
/// serialization cut binds first.
fn check(config: &SystemConfig, profile: &LoadProfile, label: &str) -> Checked {
    let load = config.discretize(profile).unwrap();
    let mut model = config.discretized_model();
    let relaxation =
        OptimalScheduler::probe_root_bounds(config, &load, &mut model).unwrap().relaxation;
    let columns = fresh_columns(config, load.epochs());
    let flow = flow_death_step(&columns, load.epochs());
    let expected = cut_death_step(&columns, load.epochs()).map_or(flow, |cut| cut.min(flow));
    assert!(relaxation <= flow, "{label}: walk {relaxation} claims more than the flow {flow}");
    assert_eq!(relaxation, expected, "{label}: walk vs flow {flow} and serialization cut");
    Checked { relaxation, flow, total_steps: load.total_steps() }
}

fn coarse_uniform(count: usize) -> SystemConfig {
    SystemConfig::new(BatteryParams::itsy_b1(), Discretization::coarse(), count).unwrap()
}

fn coarse_mixed() -> SystemConfig {
    SystemConfig::from_fleet(
        FleetSpec::new(vec![BatteryParams::itsy_b1(), BatteryParams::itsy_b2()]).unwrap(),
        Discretization::coarse(),
    )
}

fn coarse_fleets() -> [(&'static str, SystemConfig); 3] {
    [("2xB1", coarse_uniform(2)), ("3xB1", coarse_uniform(3)), ("B1+B2", coarse_mixed())]
}

#[test]
fn walk_matches_the_flow_on_the_paper_loads() {
    let mut strict = Vec::new();
    let mut flow_deaths = 0;
    for (fleet, config) in coarse_fleets() {
        for load in TestLoad::all() {
            let label = format!("{fleet} {load}");
            let checked = check(&config, &load.profile(), &label);
            if checked.relaxation < checked.flow {
                strict.push(label);
            } else if checked.flow < checked.total_steps {
                flow_deaths += 1;
            }
        }
    }
    // The serialization cut binds on 13 cells; the flow's death step
    // decides the other 17, so the walk's draw arithmetic is held to the
    // flow there.
    assert_eq!(flow_deaths, 17, "bounds decided by the flow's death step");
    assert_eq!(
        strict,
        [
            "2xB1 ILs 250",
            "2xB1 IL` 250",
            "2xB1 IL` 500",
            "3xB1 CL 250",
            "3xB1 ILs 250",
            "3xB1 ILs 500",
            "3xB1 IL` 250",
            "3xB1 IL` 500",
            "B1+B2 CL 250",
            "B1+B2 ILs 250",
            "B1+B2 ILs r2",
            "B1+B2 IL` 250",
            "B1+B2 IL` 500",
        ],
        "where the serialization cut binds"
    );
}

#[test]
fn serialization_cut_binds_on_two_b1_ils_250() {
    let config = coarse_uniform(2);
    let checked = check(&config, &TestLoad::Ils250.profile(), "2xB1 ILs 250");
    assert_eq!(checked.relaxation, 1140);
    assert_eq!(checked.flow, 1220);
}

#[test]
fn walk_matches_the_flow_on_random_loads() {
    let spec = RandomLoadSpec::new(vec![0.25, 0.5], 1.0, 0.5, 40).unwrap();
    for (fleet, config) in coarse_fleets() {
        for seed in 1..=6 {
            let profile = spec.generate(seed).unwrap();
            check(&config, &profile, &format!("{fleet} random seed {seed}"));
        }
    }
}

#[test]
fn walk_matches_the_flow_past_trailing_idle_time() {
    // A load both batteries survive, ending in idle time: the bound is the
    // whole timeline, trailing idle included.
    let trailing_idle = LoadProfileBuilder::new()
        .job(0.5, 1.0)
        .idle(1.0)
        .job(0.25, 2.0)
        .idle(3.0)
        .build_finite()
        .unwrap();
    let checked = check(&coarse_uniform(2), &trailing_idle, "2xB1 trailing idle");
    assert_eq!(checked.relaxation, checked.total_steps);
    check(&coarse_mixed(), &TestLoad::Ils250.profile(), "B1+B2 ILs 250");
}

#[test]
fn continuous_backend_makes_no_relaxation_claim() {
    let config = coarse_uniform(2);
    let load = config.discretize(&TestLoad::IlsAlt.profile()).unwrap();
    let mut model = config.continuous_model();
    let bounds = OptimalScheduler::probe_root_bounds(&config, &load, &mut model).unwrap();
    assert_eq!(bounds.relaxation, u64::MAX, "no column inputs, no relaxation bound");
}

/// Deterministic pseudo-random u64 stream (xorshift).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Random monotone columns and demands.
fn random_instance(seed: u64, batteries: usize, epochs: usize) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut rng = Rng(seed | 1);
    let columns = (0..batteries)
        .map(|_| {
            let mut level = 0;
            (0..epochs)
                .map(|_| {
                    level += rng.below(7);
                    level
                })
                .collect()
        })
        .collect();
    let demands = (0..epochs).map(|_| rng.below(9)).collect();
    (columns, demands)
}

#[test]
fn flow_matches_the_laminar_cut_closed_form() {
    for seed in 1..40u64 {
        let (columns, demands) = random_instance(seed, 1 + (seed % 4) as usize, 12);
        let cut = coverage_bound(&columns, &demands);
        assert_eq!(flow_coverage(&columns, &demands).total, cut, "seed {seed}: flow vs cut");
    }
}

#[test]
fn feasibility_walk_agrees_with_full_coverage() {
    for seed in 1..40u64 {
        let (columns, demands) = random_instance(seed, 2, 10);
        let total: u64 = demands.iter().sum();
        assert_eq!(
            first_shortfall(&columns, &demands).is_none(),
            flow_coverage(&columns, &demands).total == total,
            "seed {seed}: shortfall iff coverage < demand"
        );
    }
}

#[test]
fn assignments_respect_prefix_capacities_and_demands() {
    for seed in 1..25u64 {
        let (columns, demands) = random_instance(seed, 3, 8);
        let coverage = flow_coverage(&columns, &demands);
        let mut served_total = 0;
        for (e, &demand) in demands.iter().enumerate() {
            let epoch_total: u64 = coverage.assignment.iter().map(|a| a[e]).sum();
            assert!(epoch_total <= demand, "seed {seed}: epoch {e} over-served");
            served_total += epoch_total;
        }
        assert_eq!(served_total, coverage.total);
        for (i, column) in columns.iter().enumerate() {
            let mut cumulative = 0;
            for (e, &cap) in column.iter().enumerate() {
                cumulative += coverage.assignment[i][e];
                assert!(cumulative <= cap, "seed {seed}: battery {i} breaks its cap at {e}");
            }
        }
    }
}

#[test]
fn solver_is_deterministic() {
    let (columns, demands) = random_instance(97, 4, 16);
    assert_eq!(flow_coverage(&columns, &demands), flow_coverage(&columns, &demands));
}

#[test]
fn degenerate_inputs_are_harmless() {
    let no_columns: &[Vec<u64>] = &[];
    assert_eq!(coverage_bound(no_columns, &[]), 0);
    assert_eq!(first_shortfall(no_columns, &[1]), Some(0));
    assert_eq!(flow_coverage(no_columns, &[3, 3]).total, 0);
    // Mismatched column lengths truncate to the shortest.
    let ragged = [vec![2, 2, 2], vec![1]];
    assert_eq!(flow_coverage(&ragged, &[1, 1, 1]).total, coverage_bound(&ragged, &[1, 1, 1]));
    // An out-of-range arc is inert rather than a panic.
    let mut network = MaxFlow::new(2);
    let arc = network.add_arc(0, 7, 10);
    assert_eq!(network.solve(0, 1), 0);
    assert_eq!(network.solve(0, 0), 0);
    assert_eq!(network.flow_on(arc), 0);
    assert_eq!(network.flow_on(999), 0);
}

#[test]
fn straight_line_network_saturates() {
    let mut network = MaxFlow::new(3);
    let a = network.add_arc(0, 1, 5);
    let b = network.add_arc(1, 2, 3);
    assert_eq!(network.solve(0, 2), 3);
    assert_eq!(network.flow_on(a), 3);
    assert_eq!(network.flow_on(b), 3);
}
