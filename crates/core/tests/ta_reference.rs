//! The paper's own method as an exact reference for the optimal search.
//!
//! The paper computes optimal schedules by minimum-cost reachability on a
//! network of priced timed automata, the TA-KiBaM of Figure 5 (Section 4).
//! This suite encodes that network on the `pta` engine and asserts that its
//! optimum equals the branch-and-bound `lifetime_steps` of
//! [`OptimalScheduler`] exactly, over a corpus of tiny instances (one to
//! three batteries, uniform and mixed fleets) and small coarse-grid 2×B1
//! paper loads. The encoding shares no search code with the branch and
//! bound; it reads only the discretized load and the battery model's
//! tables (recovery times and the Eq. 8 frontier).
//!
//! The network has five automaton types:
//!
//! * a **total charge** automaton per battery (Figure 5(a));
//! * a **height difference** automaton per battery (Figure 5(b));
//! * the **load** automaton stepping through the epochs (Figure 5(c));
//! * the **scheduler**, whose nondeterministic `go_on` choice *is* the
//!   schedule being sought (Figure 5(d));
//! * the **maximum finder**, which converts the charge left behind into a
//!   cost once all batteries are empty (Figure 5(e)).
//!
//! Every draw takes place at the same instants under every schedule (a
//! battery that dies mid-job dies at a draw instant, and its successor
//! draws one interval later), so the charge drawn by any instant is fixed
//! by the load. The schedule with the least residual charge is therefore
//! the one whose last battery dies latest (Section 4.3).
//!
//! Four details of the encoding make its runs those of the discrete
//! simulator (`MultiBatteryState::advance_job`), and each is needed for
//! equality:
//!
//! 1. the scheduler's `choose` location is committed, so no time passes
//!    with a job running and no battery on;
//! 2. Eq. 8 is evaluated on the state *after* a draw, on the draw edge
//!    itself, and a job's end cannot switch a battery off in place of a
//!    draw due at the same instant;
//! 3. the recovery clock restarts at a draw from a height difference of at
//!    most one unit, where `RecoveryTable::skip` holds it at zero;
//! 4. Eq. 8 is read from the simulator's own frontier,
//!    `ServiceRateTable::service_threshold`, so exact decimal ties fall
//!    the way its `f64` test decides them.

use battery_sched::optimal::OptimalScheduler;
use battery_sched::policy::{DecisionContext, SchedulingPolicy, Sequential};
use battery_sched::system::{simulate_policy_on, SystemConfig};
use battery_sched::SchedError;
use dkibam::{DiscreteBattery, Discretization, DiscretizedLoad, RecoveryTable, ServiceRateTable};
use kibam::{BatteryParams, FleetSpec, KibamError};
use pta::automaton::{Automaton, Edge, Location, LocationId};
use pta::expr::{BoolExpr, CmpOp, IntExpr};
use pta::mincost::min_cost_reachability;
use pta::network::{AutomatonId, ChannelKind, Network};
use pta::PtaError;
use workload::builder::LoadProfileBuilder;
use workload::paper_loads::TestLoad;
use workload::random::RandomLoadSpec;
use workload::LoadProfile;

/// The most states a single reference search may store. The largest
/// instance of the corpus stores about 31k settled states, so an encoding
/// fault that blows the state space up fails fast instead of stalling.
const STATE_LIMIT: usize = 200_000;

/// The TA-KiBaM network of one system and load.
#[derive(Debug)]
struct TaKibam {
    network: Network,
    max_finder: AutomatonId,
    done: LocationId,
}

/// The optimum found by minimum-cost reachability on the TA-KiBaM.
#[derive(Debug, Clone, Copy)]
struct TaOptimal {
    /// System lifetime in time steps: the instant the last battery was
    /// observed empty.
    lifetime_steps: u64,
    /// The number of states settled by the search.
    states_explored: usize,
}

impl TaKibam {
    /// Runs minimum-cost reachability of the maximum finder's `done`
    /// location. The cost is the charge left behind, which the maximum
    /// finder converts at one unit per time step after the last battery
    /// died; the lifetime is the goal's time less that cost.
    fn optimal_lifetime(&self) -> Result<Option<TaOptimal>, PtaError> {
        let (max_finder, done) = (self.max_finder, self.done);
        let result =
            min_cost_reachability(&self.network, |s| s.location(max_finder) == done, STATE_LIMIT)?;
        Ok(result.map(|r| TaOptimal {
            lifetime_steps: r.goal_state.time() - r.cost,
            states_explored: r.states_explored,
        }))
    }
}

fn to_i64(value: u64) -> i64 {
    i64::try_from(value).expect("model constants fit in i64")
}

/// One battery type's Eq. 8 frontier as a constant table shifted by
/// `shift`: entry `n + shift` is the largest non-empty height difference at
/// `n` charge units, and −1 (empty at any height) for `n < 0`.
fn frontier_values(service: &ServiceRateTable, capacity: u32, shift: i64) -> Vec<i64> {
    (-shift..=i64::from(capacity))
        .map(|n| u32::try_from(n).map_or(-1, |n| i64::from(service.service_threshold(n))))
        .collect()
}

/// Builds the TA-KiBaM for a (possibly heterogeneous) fleet and a
/// discretized load. Each battery's automata use its own type's capacity,
/// recovery table and Eq. 8 frontier.
fn build_ta_kibam(
    fleet: &FleetSpec,
    disc: &Discretization,
    load: &DiscretizedLoad,
) -> Result<TaKibam, PtaError> {
    let battery_count = fleet.len();
    let mut network = Network::new();
    let capacity_units: Vec<i64> =
        fleet.params().iter().map(|p| i64::from(disc.charge_units(p.capacity()))).collect();

    // ---- constant tables -------------------------------------------------
    let epochs = load.epochs();
    let epoch_count = i64::try_from(epochs.len()).expect("epoch count fits in i64");
    // A value larger than any time the model can reach, used as "never".
    let never = to_i64(load.total_steps()) + capacity_units.iter().sum::<i64>() + 16;

    let mut load_time_values: Vec<i64> = load.load_time().into_iter().map(to_i64).collect();
    let mut cur_times_values: Vec<i64> =
        epochs.iter().map(|e| i64::from(e.draw_interval_steps().max(1))).collect();
    let mut cur_values: Vec<i64> = epochs.iter().map(|e| i64::from(e.units_per_draw())).collect();
    // Sentinel entries so that expressions indexed by `j` stay in bounds
    // after the final epoch.
    load_time_values.push(never);
    cur_times_values.push(1);
    cur_values.push(0);

    // The largest single draw: the frontier tables are shifted by it, so
    // that a draw overshooting the remaining charge indexes an "empty"
    // entry instead of a negative one.
    let max_draw = epochs.iter().map(|e| e.units_per_draw()).max().unwrap_or(1);
    let shift = i64::from(max_draw);
    // Per battery *type* (identical batteries share them): the recovery
    // times, sized so that `recov_time[m + cur[j]]` stays in bounds when a
    // full battery takes a draw, and the Eq. 8 frontier
    // `frontier[n + shift]` = the largest non-empty height difference at
    // `n` charge units (−1, i.e. empty at any height, for `n < 0`).
    let (recov_time_by_type, frontier_by_type): (Vec<_>, Vec<_>) = (0..fleet.type_count())
        .map(|t| {
            let params = fleet.type_params(t);
            let capacity = disc.charge_units(params.capacity());
            let recovery = RecoveryTable::new(params, disc, capacity + max_draw);
            let recov_values: Vec<i64> = (0..=recovery.max_units())
                .map(|m| recovery.steps(m).map(to_i64).unwrap_or(never))
                .collect();
            let service = ServiceRateTable::from_recovery(params, disc, &recovery);
            (
                network.add_const_array(format!("recov_time_{t}"), recov_values),
                network.add_const_array(
                    format!("frontier_{t}"),
                    frontier_values(&service, capacity, shift),
                ),
            )
        })
        .unzip();

    let load_time = network.add_const_array("load_time", load_time_values);
    let cur_times = network.add_const_array("cur_times", cur_times_values);
    let cur = network.add_const_array("cur", cur_values);

    // ---- shared variables, clocks, channels --------------------------------
    let j = network.add_var("j", 0);
    let empty_count = network.add_var("empty_count", 0);
    let charge_left = network.add_var("charge_left", 0);
    let n_gamma: Vec<_> = (0..battery_count)
        .map(|i| network.add_var(format!("n_gamma_{i}"), capacity_units[i]))
        .collect();
    let m_delta: Vec<_> =
        (0..battery_count).map(|i| network.add_var(format!("m_delta_{i}"), 0)).collect();

    let t_clock = network.add_clock("t");
    let c_cost = network.add_clock("c_cost");
    let c_disch: Vec<_> =
        (0..battery_count).map(|i| network.add_clock(format!("c_disch_{i}"))).collect();
    let c_recov: Vec<_> =
        (0..battery_count).map(|i| network.add_clock(format!("c_recov_{i}"))).collect();

    let new_job = network.add_channel("new_job", ChannelKind::Binary);
    let go_on = network.add_channel("go_on", ChannelKind::Binary);
    let go_off = network.add_channel("go_off", ChannelKind::Binary);
    let emptied = network.add_channel("emptied", ChannelKind::Binary);
    let all_empty = network.add_channel("all_empty", ChannelKind::Broadcast);
    let use_charge: Vec<_> = (0..battery_count)
        .map(|i| network.add_channel(format!("use_charge_{i}"), ChannelKind::Binary))
        .collect();

    // Helper expressions.
    let cur_j = || IntExpr::elem(cur, IntExpr::var(j));
    let cur_times_j = || IntExpr::elem(cur_times, IntExpr::var(j));
    let load_time_j = || IntExpr::elem(load_time, IntExpr::var(j));
    // Eq. 8 on battery `i` at `(n − drawn, m + drawn)`: non-empty iff the
    // height difference stays on the frontier of the remaining charge.
    let eq8 = |i: usize, drawn: IntExpr, op: CmpOp| {
        let frontier = frontier_by_type[fleet.type_of(i)];
        BoolExpr::cmp(
            IntExpr::var(m_delta[i]).add(drawn.clone()),
            op,
            IntExpr::elem(
                frontier,
                IntExpr::var(n_gamma[i]).sub(drawn).add(IntExpr::constant(shift)),
            ),
        )
    };

    // ---- total charge automata (Figure 5(a)) -------------------------------
    for i in 0..battery_count {
        let mut automaton = Automaton::new(format!("total_charge_{i}"));
        let idle = automaton.add_location(Location::new("idle"));
        let on = automaton.add_location(
            Location::new("on").with_invariant(BoolExpr::clock_le(c_disch[i], cur_times_j())),
        );
        let drained = automaton.add_location(Location::new("drained").committed());
        let empty_signal = automaton.add_location(Location::new("empty_signal").committed());
        let empty = automaton.add_location(Location::new("empty"));

        automaton.add_edge(
            Edge::new(idle, on)
                .with_receive(go_on)
                .with_guard(eq8(i, IntExpr::constant(0), CmpOp::Le))
                .with_reset(c_disch[i]),
        )?;
        // A draw, split on Eq. 8 after it: the battery stays on, or it is
        // observed empty at this very instant.
        let draw_due = || BoolExpr::clock_ge(c_disch[i], cur_times_j());
        for (op, target) in [(CmpOp::Le, on), (CmpOp::Gt, drained)] {
            automaton.add_edge(
                Edge::new(on, target)
                    .with_guard(draw_due().and(eq8(i, cur_j(), op)))
                    .with_send(use_charge[i])
                    .with_update(n_gamma[i], IntExpr::var(n_gamma[i]).sub(cur_j()))
                    .with_reset(c_disch[i]),
            )?;
        }
        automaton.add_edge(Edge::new(drained, empty_signal).with_send(emptied))?;
        automaton.add_edge(Edge::new(empty_signal, empty).with_send(new_job))?;
        // A job's end switches the battery off only after a draw due at
        // the same instant.
        automaton.add_edge(
            Edge::new(on, idle)
                .with_receive(go_off)
                .with_guard(BoolExpr::clock_lt(c_disch[i], cur_times_j())),
        )?;
        automaton.set_initial(idle)?;
        network.add_automaton(automaton)?;
    }

    // ---- height difference automata (Figure 5(b)) ---------------------------
    //
    // The `track` location carries the invariant `c_recov <= recov_time[m]`
    // so that recovery is taken as soon as it is due (the entries for
    // `m <= 1` are "never", so the invariant is vacuous there).
    for i in 0..battery_count {
        let recov_time = recov_time_by_type[fleet.type_of(i)];
        let mut automaton = Automaton::new(format!("height_difference_{i}"));
        let track = automaton.add_location(Location::new("track").with_invariant(
            BoolExpr::clock_le(c_recov[i], IntExpr::elem(recov_time, IntExpr::var(m_delta[i]))),
        ));
        let off = automaton.add_location(Location::new("off"));
        let raised = || IntExpr::var(m_delta[i]).add(cur_j());
        let recov_after_draw = IntExpr::elem(recov_time, raised());
        let recovering = || BoolExpr::cmp(m_delta[i], CmpOp::Ge, 2);
        // Draw at a height difference of at most one unit: no recovery was
        // under way, so the clock starts from the draw.
        automaton.add_edge(
            Edge::new(track, track)
                .with_receive(use_charge[i])
                .with_guard(BoolExpr::cmp(m_delta[i], CmpOp::Le, 1))
                .with_update(m_delta[i], raised())
                .with_reset(c_recov[i]),
        )?;
        // Draw during recovery, without pending catch-up.
        automaton.add_edge(
            Edge::new(track, track)
                .with_receive(use_charge[i])
                .with_guard(
                    recovering().and(BoolExpr::clock_lt(c_recov[i], recov_after_draw.clone())),
                )
                .with_update(m_delta[i], raised()),
        )?;
        // Draw whose new height difference is already due for recovery:
        // the simulator credits that unit at the next step, so it is
        // applied together with the draw.
        automaton.add_edge(
            Edge::new(track, track)
                .with_receive(use_charge[i])
                .with_guard(recovering().and(BoolExpr::clock_ge(c_recov[i], recov_after_draw)))
                .with_update(m_delta[i], raised().sub(IntExpr::constant(1)))
                .with_reset(c_recov[i]),
        )?;
        // Ordinary recovery of one height unit.
        automaton.add_edge(
            Edge::new(track, track)
                .with_guard(recovering().and(BoolExpr::clock_ge(
                    c_recov[i],
                    IntExpr::elem(recov_time, IntExpr::var(m_delta[i])),
                )))
                .with_update(m_delta[i], IntExpr::var(m_delta[i]).sub(IntExpr::constant(1)))
                .with_reset(c_recov[i]),
        )?;
        automaton.add_edge(Edge::new(track, off).with_receive(all_empty))?;
        automaton.set_initial(track)?;
        network.add_automaton(automaton)?;
    }

    // ---- load automaton (Figure 5(c)) ---------------------------------------
    {
        let mut automaton = Automaton::new("load");
        let start = automaton.add_location(Location::new("start").committed());
        let load_on = automaton.add_location(
            Location::new("load_on").with_invariant(BoolExpr::clock_le(t_clock, load_time_j())),
        );
        let dispatch = automaton.add_location(Location::new("dispatch").committed());
        let finished = automaton.add_location(Location::new("finished"));
        let off = automaton.add_location(Location::new("off"));

        let first_is_job = BoolExpr::cmp(IntExpr::elem(cur, IntExpr::constant(0)), CmpOp::Gt, 0);
        let first_is_idle = BoolExpr::cmp(IntExpr::elem(cur, IntExpr::constant(0)), CmpOp::Eq, 0);
        automaton
            .add_edge(Edge::new(start, load_on).with_guard(first_is_job).with_send(new_job))?;
        automaton.add_edge(Edge::new(start, load_on).with_guard(first_is_idle))?;

        let epoch_over = BoolExpr::clock_ge(t_clock, load_time_j());
        let job_epoch = BoolExpr::cmp(cur_j(), CmpOp::Gt, 0);
        let idle_epoch = BoolExpr::cmp(cur_j(), CmpOp::Eq, 0);
        automaton.add_edge(
            Edge::new(load_on, dispatch)
                .with_guard(epoch_over.clone().and(job_epoch.clone()))
                .with_send(go_off)
                .with_update(j, IntExpr::var(j).add(IntExpr::constant(1))),
        )?;
        automaton.add_edge(
            Edge::new(load_on, dispatch)
                .with_guard(epoch_over.and(idle_epoch.clone()))
                .with_update(j, IntExpr::var(j).add(IntExpr::constant(1))),
        )?;
        let more_epochs = BoolExpr::cmp(j, CmpOp::Lt, IntExpr::constant(epoch_count));
        automaton.add_edge(
            Edge::new(dispatch, load_on)
                .with_guard(more_epochs.clone().and(job_epoch))
                .with_send(new_job),
        )?;
        automaton.add_edge(Edge::new(dispatch, load_on).with_guard(more_epochs.and(idle_epoch)))?;
        automaton.add_edge(Edge::new(dispatch, finished).with_guard(BoolExpr::cmp(
            j,
            CmpOp::Ge,
            IntExpr::constant(epoch_count),
        )))?;
        automaton.add_edge(Edge::new(load_on, off).with_receive(all_empty))?;
        automaton.add_edge(Edge::new(dispatch, off).with_receive(all_empty))?;
        automaton.set_initial(start)?;
        network.add_automaton(automaton)?;
    }

    // ---- scheduler automaton (Figure 5(d)) -----------------------------------
    {
        let mut automaton = Automaton::new("scheduler");
        let wait = automaton.add_location(Location::new("wait"));
        let choose = automaton.add_location(Location::new("choose").committed());
        let off = automaton.add_location(Location::new("off"));
        automaton.add_edge(Edge::new(wait, choose).with_receive(new_job))?;
        automaton.add_edge(Edge::new(choose, wait).with_send(go_on))?;
        automaton.add_edge(Edge::new(wait, off).with_receive(all_empty))?;
        automaton.add_edge(Edge::new(choose, off).with_receive(all_empty))?;
        automaton.set_initial(wait)?;
        network.add_automaton(automaton)?;
    }

    // ---- maximum finder automaton (Figure 5(e)) ------------------------------
    let last = i64::try_from(battery_count).expect("battery count fits in i64") - 1;
    let mut automaton = Automaton::new("maximum_finder");
    let counting = automaton.add_location(Location::new("counting"));
    let announce = automaton.add_location(Location::new("announce").committed());
    let converting = automaton.add_location(
        Location::new("converting")
            .with_invariant(BoolExpr::clock_le(c_cost, IntExpr::var(charge_left)))
            .with_cost_rate(IntExpr::constant(1)),
    );
    let done = automaton.add_location(Location::new("done"));
    automaton.add_edge(
        Edge::new(counting, counting)
            .with_receive(emptied)
            .with_guard(BoolExpr::cmp(empty_count, CmpOp::Lt, IntExpr::constant(last)))
            .with_update(empty_count, IntExpr::var(empty_count).add(IntExpr::constant(1))),
    )?;
    let sum_gamma =
        n_gamma.iter().skip(1).fold(IntExpr::var(n_gamma[0]), |acc, &v| acc.add(IntExpr::var(v)));
    automaton.add_edge(
        Edge::new(counting, announce)
            .with_receive(emptied)
            .with_guard(BoolExpr::cmp(empty_count, CmpOp::Ge, IntExpr::constant(last)))
            .with_update(charge_left, sum_gamma),
    )?;
    automaton.add_edge(Edge::new(announce, converting).with_send(all_empty).with_reset(c_cost))?;
    automaton.add_edge(
        Edge::new(converting, done)
            .with_guard(BoolExpr::clock_ge(c_cost, IntExpr::var(charge_left))),
    )?;
    automaton.set_initial(counting)?;
    let max_finder = network.add_automaton(automaton)?;

    Ok(TaKibam { network, max_finder, done })
}

/// The tiny discretization: Γ = 0.01 A·min, T = 0.05 min.
fn tiny_disc() -> Discretization {
    Discretization::new(0.05, 0.01).unwrap()
}

fn battery(capacity: f64, c: f64, k_prime: f64) -> BatteryParams {
    BatteryParams::new(capacity, c, k_prime).unwrap()
}

/// The tiny fleets: uniform ones of one to three batteries, mixed
/// capacities, mixed well fractions and rate constants, `c = 0.4` (whose
/// Eq. 8 has exact decimal ties), and B1's `c = 0.166` and `k'`.
fn tiny_fleets() -> Vec<(&'static str, FleetSpec)> {
    let small = battery(0.04, 0.5, 2.0);
    let slow = battery(0.05, 0.3, 0.5);
    let tie = battery(0.12, 0.4, 1.0);
    let b1_like = battery(0.10, 0.166, 0.122);
    vec![
        ("1x small", FleetSpec::uniform(small, 1).unwrap()),
        ("2x small", FleetSpec::uniform(small, 2).unwrap()),
        ("3x small", FleetSpec::uniform(small, 3).unwrap()),
        ("small+big", FleetSpec::new(vec![small, battery(0.06, 0.5, 2.0)]).unwrap()),
        ("2x slow", FleetSpec::uniform(slow, 2).unwrap()),
        ("small+slow", FleetSpec::new(vec![small, slow]).unwrap()),
        ("2x tie", FleetSpec::uniform(tie, 2).unwrap()),
        ("small+tie", FleetSpec::new(vec![small, tie]).unwrap()),
        ("2x b1-like", FleetSpec::uniform(b1_like, 2).unwrap()),
    ]
}

/// The tiny loads: four cyclic ones (intermittent, heavy, continuous and
/// alternating) and a seeded random one long enough to outlast every tiny
/// fleet.
fn tiny_loads() -> Vec<(&'static str, LoadProfile)> {
    let cyclic = |builder: LoadProfileBuilder| builder.build_cyclic().unwrap();
    vec![
        ("intermittent", cyclic(LoadProfileBuilder::new().job(0.1, 0.2).idle(0.2))),
        ("heavy", cyclic(LoadProfileBuilder::new().job(0.2, 0.2).idle(0.1))),
        ("continuous", cyclic(LoadProfileBuilder::new().job(0.1, 0.25))),
        (
            "alternating",
            cyclic(LoadProfileBuilder::new().job(0.2, 0.1).idle(0.1).job(0.1, 0.15).idle(0.05)),
        ),
        (
            "random",
            RandomLoadSpec::new(vec![0.1, 0.2, 0.3], 0.1, 0.05, 60).unwrap().generate(7).unwrap(),
        ),
    ]
}

/// The TA-KiBaM optimum of one instance, in time steps.
fn ta_lifetime(fleet: &FleetSpec, disc: Discretization, load: &DiscretizedLoad) -> u64 {
    build_ta_kibam(fleet, &disc, load)
        .unwrap()
        .optimal_lifetime()
        .unwrap()
        .expect("every corpus load outlasts its fleet")
        .lifetime_steps
}

/// Solves one instance both ways; `None` when the lifetimes agree,
/// otherwise a description of the disagreement.
fn disagreement(fleet: &FleetSpec, disc: Discretization, profile: &LoadProfile) -> Option<String> {
    let config = SystemConfig::from_fleet(fleet.clone(), disc);
    let load = config.discretize(profile).unwrap();
    let direct = OptimalScheduler::new().find_optimal_on(&config, &load).unwrap().lifetime_steps;
    match build_ta_kibam(fleet, &disc, &load).unwrap().optimal_lifetime() {
        Ok(Some(ta)) if ta.lifetime_steps == direct => None,
        Ok(Some(ta)) => Some(format!(
            "TA {} vs B&B {direct} ({} states)",
            ta.lifetime_steps, ta.states_explored
        )),
        Ok(None) => Some(format!("TA never reaches `done` vs B&B {direct}")),
        Err(e) => Some(format!("TA failed ({e}) vs B&B {direct}")),
    }
}

/// Runs every instance and fails with the full list of disagreements.
fn assert_all_agree(instances: Vec<(String, FleetSpec, Discretization, LoadProfile)>) {
    let count = instances.len();
    let disagreements: Vec<String> = instances
        .into_iter()
        .filter_map(|(label, fleet, disc, profile)| {
            disagreement(&fleet, disc, &profile).map(|what| format!("{label}: {what}"))
        })
        .collect();
    assert!(
        disagreements.is_empty(),
        "{} of {count} instances disagree:\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

#[test]
fn tiny_corpus_optimum_equals_branch_and_bound() {
    let mut instances = Vec::new();
    for (fleet_name, fleet) in tiny_fleets() {
        for (load_name, profile) in tiny_loads() {
            instances.push((
                format!("{fleet_name} / {load_name}"),
                fleet.clone(),
                tiny_disc(),
                profile,
            ));
        }
    }
    assert_eq!(instances.len(), 45);
    assert_all_agree(instances);
}

/// 2×B1 on the coarse grid (Γ = T = 0.05), on every paper load whose TA
/// state space stays small (4k–31k settled states). `CL 250` (132k
/// states), `ILs 250` (1.5M) and `IL' 250` (more than 4M) are left out
/// only to keep the suite fast; they are not known to disagree.
#[test]
fn coarse_paper_loads_optimum_equals_branch_and_bound() {
    let fleet = FleetSpec::uniform(BatteryParams::itsy_b1(), 2).unwrap();
    let loads = [
        TestLoad::Cl500,
        TestLoad::ClAlt,
        TestLoad::Ils500,
        TestLoad::IlsAlt,
        TestLoad::IlsR1,
        TestLoad::IlsR2,
        TestLoad::Ill500,
    ];
    let instances = loads
        .iter()
        .map(|load| {
            (
                format!("2xB1 coarse / {load:?}"),
                fleet.clone(),
                Discretization::coarse(),
                load.profile(),
            )
        })
        .collect();
    assert_all_agree(instances);
}

#[test]
fn network_has_the_five_automaton_types() {
    let fleet = FleetSpec::new(vec![battery(0.04, 0.5, 2.0), battery(0.06, 0.5, 2.0)]).unwrap();
    let config = SystemConfig::from_fleet(fleet.clone(), tiny_disc());
    let (_, profile) = &tiny_loads()[0];
    let load = config.discretize(profile).unwrap();
    let model = build_ta_kibam(&fleet, &tiny_disc(), &load).unwrap();
    // 2 total-charge + 2 height-difference + load + scheduler + max finder.
    assert_eq!(model.network.automata().len(), 7);
    assert!(model.network.validate().is_ok());
}

/// The reference and the search are built from the same `FleetSpec`,
/// which cannot be empty: a zero-battery system is rejected before either
/// runs.
#[test]
fn zero_batteries_are_rejected_before_either_search() {
    let params = battery(0.04, 0.5, 2.0);
    assert!(matches!(FleetSpec::uniform(params, 0), Err(KibamError::EmptyFleet)));
    assert!(matches!(SystemConfig::new(params, tiny_disc(), 0), Err(SchedError::NoBatteries)));
}

/// With one battery there is no choice to make, so the optimum is the
/// simulated lifetime of any policy: an oracle that shares no code with
/// either search.
#[test]
fn one_battery_optimum_equals_the_simulated_lifetime() {
    let mut instances: Vec<(String, BatteryParams, Discretization, LoadProfile)> = Vec::new();
    let tiny_types = [
        ("small", battery(0.04, 0.5, 2.0)),
        ("slow", battery(0.05, 0.3, 0.5)),
        ("tie", battery(0.12, 0.4, 1.0)),
        ("b1-like", battery(0.10, 0.166, 0.122)),
    ];
    for (type_name, params) in tiny_types {
        for (load_name, profile) in tiny_loads() {
            instances.push((format!("1x {type_name} / {load_name}"), params, tiny_disc(), profile));
        }
    }
    for (type_name, params) in [("B1", BatteryParams::itsy_b1()), ("B2", BatteryParams::itsy_b2())]
    {
        for load in [TestLoad::Cl500, TestLoad::ClAlt, TestLoad::Ils500, TestLoad::IlsAlt] {
            let label = format!("1x{type_name} coarse / {load:?}");
            instances.push((label, params, Discretization::coarse(), load.profile()));
        }
    }
    let disagreements: Vec<String> = instances
        .iter()
        .filter_map(|(label, params, disc, profile)| {
            let fleet = FleetSpec::uniform(*params, 1).unwrap();
            let config = SystemConfig::from_fleet(fleet.clone(), *disc);
            let load = config.discretize(profile).unwrap();
            let simulated = simulate_policy_on(&config, &load, &mut Sequential::new())
                .unwrap()
                .lifetime_steps()
                .expect("every corpus load outlasts its fleet");
            let ta = ta_lifetime(&fleet, *disc, &load);
            (ta != simulated).then(|| format!("{label}: TA {ta} vs simulated {simulated}"))
        })
        .collect();
    assert!(disagreements.is_empty(), "{}", disagreements.join("\n"));
}

/// Replays a prefix of decisions, then takes the lowest available battery,
/// recording which batteries were available at the first scheduling point
/// past the prefix.
#[derive(Debug, Default)]
struct Replay {
    prefix: Vec<usize>,
    cursor: usize,
    next_choices: Option<Vec<usize>>,
}

impl SchedulingPolicy for Replay {
    fn name(&self) -> &str {
        "replay"
    }

    fn choose(&mut self, ctx: &DecisionContext<'_>) -> Option<usize> {
        let point = self.cursor;
        self.cursor += 1;
        if let Some(&battery) = self.prefix.get(point) {
            return Some(battery);
        }
        if point == self.prefix.len() {
            self.next_choices = Some(ctx.available.to_vec());
        }
        ctx.available.iter().min().copied()
    }

    fn reset(&mut self) {
        self.cursor = 0;
        self.next_choices = None;
    }
}

/// The longest simulated lifetime over every schedule, found by enumerating
/// the decision tree depth first, and the number of schedules enumerated.
fn best_enumerated_lifetime(config: &SystemConfig, load: &DiscretizedLoad) -> (u64, usize) {
    let (mut best, mut schedules) = (0, 0);
    let mut prefixes = vec![Vec::new()];
    while let Some(prefix) = prefixes.pop() {
        let mut replay = Replay { prefix, ..Replay::default() };
        let outcome = simulate_policy_on(config, load, &mut replay).unwrap();
        match replay.next_choices.take() {
            Some(choices) => prefixes.extend(choices.into_iter().map(|battery| {
                let mut longer = replay.prefix.clone();
                longer.push(battery);
                longer
            })),
            None => {
                schedules += 1;
                let lifetime =
                    outcome.lifetime_steps().expect("every corpus load outlasts its fleet");
                best = best.max(lifetime);
            }
        }
    }
    (best, schedules)
}

/// On the multi-battery tiny fleets, the optimum is the longest lifetime
/// the simulator reaches over every schedule: a brute-force oracle that
/// shares no code with either search.
#[test]
fn tiny_optimum_equals_the_best_enumerated_schedule() {
    let disagreements: Vec<String> = tiny_fleets()
        .into_iter()
        .filter(|(_, fleet)| fleet.len() > 1)
        .flat_map(|(fleet_name, fleet)| {
            tiny_loads().into_iter().filter_map(move |(load_name, profile)| {
                let config = SystemConfig::from_fleet(fleet.clone(), tiny_disc());
                let load = config.discretize(&profile).unwrap();
                let (best, schedules) = best_enumerated_lifetime(&config, &load);
                assert!(schedules > 1, "{fleet_name} / {load_name}: nothing to choose");
                let ta = ta_lifetime(&fleet, tiny_disc(), &load);
                (ta != best).then(|| {
                    format!("{fleet_name} / {load_name}: TA {ta} vs best of {schedules} {best}")
                })
            })
        })
        .collect();
    assert!(disagreements.is_empty(), "{}", disagreements.join("\n"));
}

/// The TA's frontier table decides Eq. 8 exactly as the simulator's `f64`
/// test does, at every reachable charge and height, and reads a charge
/// below zero as empty.
#[test]
fn frontier_table_decides_eq8_as_the_simulator_does() {
    let shift: u32 = 3;
    let tie = battery(0.12, 0.4, 1.0);
    let types = [
        (battery(0.04, 0.5, 2.0), tiny_disc()),
        (battery(0.05, 0.3, 0.5), tiny_disc()),
        (tie, tiny_disc()),
        (battery(0.10, 0.166, 0.122), tiny_disc()),
        (BatteryParams::itsy_b1(), Discretization::coarse()),
        (BatteryParams::itsy_b2(), Discretization::coarse()),
    ];
    for (params, disc) in types {
        let capacity = disc.charge_units(params.capacity());
        let recovery = RecoveryTable::new(&params, &disc, capacity + shift);
        let service = ServiceRateTable::from_recovery(&params, &disc, &recovery);
        let frontier = frontier_values(&service, capacity, i64::from(shift));
        let ta_non_empty = |n: i64, m: u32| {
            let index = usize::try_from(n + i64::from(shift)).unwrap();
            i64::from(m) <= frontier[index]
        };
        for m in 0..=capacity + shift {
            for n in -i64::from(shift)..0 {
                assert!(!ta_non_empty(n, m), "{params:?}: n = {n} reads as non-empty");
            }
            // `(0, 0)` is left out: the table reports it non-empty and the
            // `f64` test empty, but a draw always leaves `m >= 1`.
            for n in u32::from(m == 0)..=capacity {
                let simulated = !DiscreteBattery::from_units(n, m).is_empty(&params);
                assert_eq!(ta_non_empty(i64::from(n), m), simulated, "{params:?} at ({n}, {m})");
            }
        }
        // The exact decimal tie of `c = 0.4`, which a decimal reading of
        // Eq. 8 calls empty: the simulator, and so the table, call it
        // non-empty.
        if params == tie {
            assert!(ta_non_empty(6, 4));
        }
    }
}

/// Swapping the two batteries of a mixed fleet builds a different network
/// (automata, tables and type ids in the other order) with the same
/// optimum.
#[test]
fn optimum_does_not_depend_on_battery_order() {
    let small = battery(0.04, 0.5, 2.0);
    let pairs = [
        ("small+big", small, battery(0.06, 0.5, 2.0)),
        ("small+slow", small, battery(0.05, 0.3, 0.5)),
        ("small+tie", small, battery(0.12, 0.4, 1.0)),
    ];
    for (fleet_name, first, second) in pairs {
        let forward = FleetSpec::new(vec![first, second]).unwrap();
        let backward = FleetSpec::new(vec![second, first]).unwrap();
        for (load_name, profile) in tiny_loads() {
            let lifetime = |fleet: &FleetSpec| {
                let config = SystemConfig::from_fleet(fleet.clone(), tiny_disc());
                ta_lifetime(fleet, tiny_disc(), &config.discretize(&profile).unwrap())
            };
            assert_eq!(lifetime(&forward), lifetime(&backward), "{fleet_name} / {load_name}");
        }
    }
}
