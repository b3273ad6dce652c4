//! Minimum-cost reachability — the core service Uppaal Cora provides to the
//! paper.
//!
//! Given a network whose locations carry cost rates and whose edges carry
//! cost updates, [`min_cost_reachability`] finds a goal state with the least
//! accumulated cost. For the TA-KiBaM, the goal is "all batteries empty" and
//! the cost is the charge left behind in the batteries, so the cheapest
//! goal state ends the longest-lived schedule (Section 4.3 of the paper).
//!
//! The search is a uniform-cost (Dijkstra) search over the discrete state
//! space: costs are non-negative by construction (negative costs are
//! rejected during successor computation), so the first time a goal state is
//! popped from the frontier its cost is optimal.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::network::Network;
use crate::semantics::Semantics;
use crate::state::{State, StateKey};
use crate::PtaError;

/// The outcome of a successful minimum-cost reachability query.
#[derive(Debug, Clone)]
pub struct MinCostResult {
    /// The minimal accumulated cost over all paths to a goal state.
    pub cost: u64,
    /// The goal state that realises the minimal cost.
    pub goal_state: State,
    /// The number of distinct states settled during the search.
    pub states_explored: usize,
}

/// Finds the least accumulated cost of a path from the initial state to a
/// state satisfying `goal`, storing at most `state_limit` distinct states.
///
/// Returns `Ok(None)` if no goal state is reachable.
///
/// # Errors
///
/// Returns [`PtaError::StateLimitExceeded`] if the limit is exceeded, and
/// propagates model validation/evaluation errors.
pub fn min_cost_reachability<G>(
    network: &Network,
    goal: G,
    state_limit: usize,
) -> Result<Option<MinCostResult>, PtaError>
where
    G: Fn(&State) -> bool,
{
    let semantics = Semantics::new(network)?;
    let initial = semantics.initial_state()?;

    // Best known cost per state identity.
    let mut best: BTreeMap<StateKey, u64> = BTreeMap::new();
    best.insert(initial.key(), 0);
    // Frontier ordered by (cost, push order) — the order breaks ties
    // deterministically. Each pushed state is taken out of `pending` once.
    let mut pending: Vec<Option<State>> = vec![Some(initial)];
    let mut frontier: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    frontier.push(Reverse((0, 0)));
    let mut settled = 0usize;

    while let Some(Reverse((cost, index))) = frontier.pop() {
        let Some(state) = pending[index].take() else { continue };
        // Skip stale frontier entries.
        if best.get(&state.key()).copied().unwrap_or(u64::MAX) < cost {
            continue;
        }
        settled += 1;
        if goal(&state) {
            return Ok(Some(MinCostResult { cost, goal_state: state, states_explored: settled }));
        }
        for (_, successor) in semantics.successors(&state)? {
            let key = successor.key();
            let successor_cost = successor.cost();
            if best.get(&key).is_some_and(|&known| successor_cost >= known) {
                continue;
            }
            best.insert(key, successor_cost);
            if best.len() > state_limit {
                return Err(PtaError::StateLimitExceeded { limit: state_limit });
            }
            frontier.push(Reverse((successor_cost, pending.len())));
            pending.push(Some(successor));
        }
    }

    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Automaton, Edge, Location};
    use crate::expr::{BoolExpr, CmpOp, IntExpr};

    /// A chooser automaton with two ways to reach `done`: an expensive
    /// immediate edge (cost 10) and a cheap one (cost 1) that only opens
    /// after waiting 3 time steps in a location with cost rate 2.
    /// Cheapest path: wait 3 (cost 6) + cheap edge (1) = 7 < 10.
    fn chooser() -> (Network, crate::network::AutomatonId, crate::automaton::LocationId) {
        let mut network = Network::new();
        let x = network.add_clock("x");
        let mut automaton = Automaton::new("chooser");
        let start =
            automaton.add_location(Location::new("start").with_cost_rate(IntExpr::constant(2)));
        let done = automaton.add_location(Location::new("done"));
        automaton.add_edge(Edge::new(start, done).with_cost(IntExpr::constant(10))).unwrap();
        automaton
            .add_edge(
                Edge::new(start, done)
                    .with_guard(BoolExpr::clock_ge(x, IntExpr::constant(3)))
                    .with_cost(IntExpr::constant(1)),
            )
            .unwrap();
        automaton.set_initial(start).unwrap();
        let id = network.add_automaton(automaton).unwrap();
        (network, id, done)
    }

    #[test]
    fn picks_the_cheaper_of_two_strategies() {
        let (network, id, done) = chooser();
        let result =
            min_cost_reachability(&network, |s| s.location(id) == done, 100_000).unwrap().unwrap();
        assert_eq!(result.cost, 7);
        // Three delays before the cheap edge.
        assert_eq!(result.goal_state.time(), 3);
    }

    #[test]
    fn expensive_edge_wins_when_waiting_is_pricier() {
        // Same model but with a much higher cost rate: waiting 3 steps would
        // cost 30, so the immediate edge (10) is optimal.
        let mut network = Network::new();
        let x = network.add_clock("x");
        let mut automaton = Automaton::new("chooser");
        let start =
            automaton.add_location(Location::new("start").with_cost_rate(IntExpr::constant(10)));
        let done = automaton.add_location(Location::new("done"));
        automaton.add_edge(Edge::new(start, done).with_cost(IntExpr::constant(10))).unwrap();
        automaton
            .add_edge(
                Edge::new(start, done)
                    .with_guard(BoolExpr::clock_ge(x, IntExpr::constant(3)))
                    .with_cost(IntExpr::constant(1)),
            )
            .unwrap();
        let id = network.add_automaton(automaton).unwrap();
        let result =
            min_cost_reachability(&network, |s| s.location(id) == done, 100_000).unwrap().unwrap();
        assert_eq!(result.cost, 10);
        assert_eq!(result.goal_state.time(), 0);
    }

    #[test]
    fn unreachable_goal_returns_none() {
        // A clock-free automaton whose second location has no incoming edge:
        // the state space is finite and the goal is unreachable.
        let mut network = Network::new();
        let mut automaton = Automaton::new("stuck");
        let start = automaton.add_location(Location::new("start"));
        let unreachable = automaton.add_location(Location::new("unreachable"));
        automaton.add_edge(Edge::new(start, start)).unwrap();
        let id = network.add_automaton(automaton).unwrap();
        let result =
            min_cost_reachability(&network, |s| s.location(id) == unreachable, 10_000).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn unreachable_goal_with_a_running_clock_terminates() {
        // Time passes forever in `start`, but clocks are capped just above
        // the largest constant they are compared with, so the state space
        // stays finite and the search reports the goal unreachable instead
        // of running into its state limit.
        let mut network = Network::new();
        let x = network.add_clock("x");
        let mut automaton = Automaton::new("ticker");
        let start =
            automaton.add_location(Location::new("start").with_cost_rate(IntExpr::constant(1)));
        let unreachable = automaton.add_location(Location::new("unreachable"));
        automaton
            .add_edge(
                Edge::new(start, start)
                    .with_guard(BoolExpr::clock_ge(x, IntExpr::constant(5)))
                    .with_reset(x),
            )
            .unwrap();
        let id = network.add_automaton(automaton).unwrap();
        let result =
            min_cost_reachability(&network, |s| s.location(id) == unreachable, 100).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn a_cheaper_path_found_later_replaces_the_first() {
        // `target` is first reached directly at cost 10, then through `via`
        // at cost 2. The search settles it at 2 and skips the stale entry at
        // 10, which would otherwise be counted as a fifth settled state.
        let mut network = Network::new();
        let mut automaton = Automaton::new("diamond");
        let start = automaton.add_location(Location::new("start"));
        let via = automaton.add_location(Location::new("via"));
        let target = automaton.add_location(Location::new("target"));
        let done = automaton.add_location(Location::new("done"));
        for (from, to, cost) in
            [(start, target, 10), (start, via, 1), (via, target, 1), (target, done, 20)]
        {
            automaton.add_edge(Edge::new(from, to).with_cost(IntExpr::constant(cost))).unwrap();
        }
        let id = network.add_automaton(automaton).unwrap();
        let result =
            min_cost_reachability(&network, |s| s.location(id) == done, 100).unwrap().unwrap();
        assert_eq!(result.cost, 22);
        assert_eq!(result.states_explored, 4);
    }

    #[test]
    fn equal_cost_goals_are_decided_in_discovery_order() {
        // Two goal locations at the same cost: the one whose edge is
        // declared first is pushed first and returned, whichever it is.
        for left_first in [true, false] {
            let mut network = Network::new();
            let mut automaton = Automaton::new("fork");
            let start = automaton.add_location(Location::new("start"));
            let left = automaton.add_location(Location::new("left"));
            let right = automaton.add_location(Location::new("right"));
            let order = if left_first { [left, right] } else { [right, left] };
            for to in order {
                automaton.add_edge(Edge::new(start, to).with_cost(IntExpr::constant(5))).unwrap();
            }
            let id = network.add_automaton(automaton).unwrap();
            let result =
                min_cost_reachability(&network, |s| s.location(id) != start, 100).unwrap().unwrap();
            assert_eq!(result.cost, 5);
            assert_eq!(result.goal_state.location(id), order[0]);
        }
    }

    #[test]
    fn state_limit_is_enforced() {
        let (network, id, done) = chooser();
        let result = min_cost_reachability(&network, |s| s.location(id) == done, 1);
        assert!(matches!(result, Err(PtaError::StateLimitExceeded { limit: 1 })));
    }

    #[test]
    fn goal_in_initial_state_costs_nothing() {
        let (network, id, _) = chooser();
        let start = crate::automaton::LocationId(0);
        let result =
            min_cost_reachability(&network, |s| s.location(id) == start, 10).unwrap().unwrap();
        assert_eq!(result.cost, 0);
        assert_eq!(result.states_explored, 1);
    }

    #[test]
    fn cost_rate_depends_on_variables() {
        // The cost rate references a variable that an edge can lower before
        // waiting; the optimal strategy lowers it first.
        let mut network = Network::new();
        let x = network.add_clock("x");
        let rate = network.add_var("rate", 5);
        let mut automaton = Automaton::new("saver");
        let start = automaton.add_location(
            Location::new("start")
                .with_cost_rate(IntExpr::var(rate))
                .with_invariant(BoolExpr::clock_le(x, IntExpr::constant(4))),
        );
        let done = automaton.add_location(Location::new("done"));
        // Lower the rate (can be taken immediately, costs nothing).
        automaton
            .add_edge(
                Edge::new(start, start)
                    .with_guard(BoolExpr::cmp(rate, CmpOp::Eq, 5))
                    .with_update(rate, IntExpr::constant(1)),
            )
            .unwrap();
        // Leave after 4 time steps.
        automaton
            .add_edge(
                Edge::new(start, done).with_guard(BoolExpr::clock_ge(x, IntExpr::constant(4))),
            )
            .unwrap();
        let id = network.add_automaton(automaton).unwrap();
        let result =
            min_cost_reachability(&network, |s| s.location(id) == done, 100_000).unwrap().unwrap();
        // Optimal: drop the rate to 1 immediately, then wait 4 steps -> 4.
        assert_eq!(result.cost, 4);
    }
}
