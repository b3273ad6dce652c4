//! Seeded input generators. The benchmark's seed is the only source of
//! randomness: the same seed yields the same request lines, loads and grid
//! specs, and `served` receives nothing but these generated lines.

use engine::json::JsonValue;
use engine::{
    BackendKind, BatterySpec, DiscSpec, FleetDef, LoadSpec, PolicyKind, Request, RequestClass,
    Scenario, ScenarioSpec,
};
use workload::random::SplitMix64;

/// Jobs in an interactive re-plan load (the short horizon a client
/// re-plans over).
pub const INTERACTIVE_JOBS: usize = 20;
/// Jobs in a batch optimal-search load.
pub const BATCH_JOBS: usize = 20;
/// Jobs in a sweep load: long enough that every sweep fleet runs empty.
pub const SWEEP_JOBS: usize = 400;
/// Node budget of a batch search: far above the 26–600 nodes these searches
/// take, far below the batch class cap.
pub const BATCH_BUDGET: usize = 100_000;
/// Share of interactive requests on the RV backend, in percent.
pub const RV_PERCENT: usize = 20;

/// Independent generator streams drawn from one run seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Interactive = 1,
    Batch = 2,
    Sweep = 3,
    Sample = 4,
}

/// A seeded generator for one stream of a run.
pub fn rng(seed: u64, stream: Stream) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (stream as u64).rotate_left(32))
}

/// A load seed that round-trips through JSON numbers exactly (< 2^53).
fn load_seed(rng: &mut SplitMix64) -> u64 {
    rng.next_u64() >> 11
}

fn b1() -> BatterySpec {
    BatterySpec::b1()
}

/// The fleets interactive clients re-plan: 2xB1, 4xB1, B1+B2 and 2xB2.
pub fn replan_fleets() -> Vec<FleetDef> {
    vec![
        FleetDef::uniform(b1(), 2),
        FleetDef::uniform(b1(), 4),
        FleetDef::mixed(vec![b1(), BatterySpec::b2()]),
        FleetDef::uniform(BatterySpec::b2(), 2),
    ]
}

/// The fleets a sweep covers: 2xB1, 4xB1, 8xB1 and B1+B2.
pub fn sweep_fleets() -> Vec<FleetDef> {
    vec![
        FleetDef::uniform(b1(), 2),
        FleetDef::uniform(b1(), 4),
        FleetDef::uniform(b1(), 8),
        FleetDef::mixed(vec![b1(), BatterySpec::b2()]),
    ]
}

/// One interactive re-plan: a repeated fleet on the paper grid, a fresh
/// random load, one of the four deterministic policies, 80 % discretized
/// and 20 % RV.
pub fn interactive(rng: &mut SplitMix64) -> Scenario {
    let fleets = replan_fleets();
    let fleet = fleets[rng.next_index(fleets.len())].clone();
    let policies = PolicyKind::deterministic();
    let policy = policies[rng.next_index(policies.len())];
    let backend =
        if rng.next_index(100) < RV_PERCENT { BackendKind::Rv } else { BackendKind::Discretized };
    let load = LoadSpec::random_paper_levels(load_seed(rng), INTERACTIVE_JOBS);
    Scenario { fleet, disc: DiscSpec::paper(), load, policy, backend }
}

/// One batch request: an optimal search on 2xB1 at the coarse grid over a
/// fresh 20-job random load.
pub fn batch(rng: &mut SplitMix64) -> Scenario {
    Scenario {
        fleet: FleetDef::uniform(b1(), 2),
        disc: DiscSpec::coarse(),
        load: LoadSpec::random_paper_levels(load_seed(rng), BATCH_JOBS),
        policy: PolicyKind::Optimal { budget: BATCH_BUDGET },
        backend: BackendKind::Discretized,
    }
}

/// One sweep request: every sweep fleet × the four deterministic policies ×
/// the discretized and RV backends × `loads` fresh 400-job random loads.
pub fn sweep_spec(rng: &mut SplitMix64, loads: usize) -> ScenarioSpec {
    ScenarioSpec {
        batteries: vec![],
        battery_counts: vec![],
        fleets: sweep_fleets(),
        discretizations: vec![DiscSpec::paper()],
        loads: (0..loads)
            .map(|_| LoadSpec::random_paper_levels(load_seed(rng), SWEEP_JOBS))
            .collect(),
        policies: PolicyKind::deterministic().to_vec(),
        backends: vec![BackendKind::Discretized, BackendKind::Rv],
    }
}

/// A cheap request per system the given fleets use, on `disc`: answering
/// these builds every system table a workload needs (the cold-cache set-up).
pub fn warmups(fleets: &[FleetDef], disc: DiscSpec) -> Vec<Scenario> {
    fleets
        .iter()
        .map(|fleet| Scenario {
            fleet: fleet.clone(),
            disc,
            load: LoadSpec::random_paper_levels(0, 2),
            policy: PolicyKind::RoundRobin,
            backend: BackendKind::Discretized,
        })
        .collect()
}

/// The sweep's cold-start grid: one cheap cell per sweep fleet, so running
/// it builds every system table the sweep needs.
pub fn sweep_warmup() -> ScenarioSpec {
    let mut spec = sweep_spec(&mut rng(0, Stream::Sweep), 1);
    spec.loads = vec![LoadSpec::random_paper_levels(0, 2)];
    spec.policies = vec![PolicyKind::RoundRobin];
    spec.backends = vec![BackendKind::Discretized];
    spec
}

/// A request line with its id left open: the canonical request JSON is
/// rendered once, and each send splices in a fresh id.
#[derive(Debug, Clone)]
pub struct Line {
    pub scenario: Scenario,
    /// The canonical JSON after the leading `{"id":null,`.
    tail: String,
}

const ID_PREFIX: &str = "{\"id\":null,";

impl Line {
    pub fn new(scenario: Scenario, class: RequestClass) -> Self {
        let request = Request { id: JsonValue::Null, class, scenario };
        let rendered = request.to_json_value().render().expect("generated requests are finite");
        let tail = rendered
            .strip_prefix(ID_PREFIX)
            .expect("canonical request JSON starts with the id")
            .to_owned();
        Self { scenario: request.scenario, tail }
    }

    /// Appends the request line with id `id`, newline-terminated.
    pub fn write_to(&self, id: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"id\":");
        out.extend_from_slice(id.to_string().as_bytes());
        out.push(b',');
        out.extend_from_slice(self.tail.as_bytes());
        out.push(b'\n');
    }

    pub fn text(&self, id: u64) -> String {
        let mut out = Vec::new();
        self.write_to(id, &mut out);
        out.pop();
        String::from_utf8(out).expect("request lines are UTF-8")
    }
}

/// `count` lines drawn from `make` on `rng`.
pub fn lines(
    rng: &mut SplitMix64,
    count: usize,
    class: RequestClass,
    make: fn(&mut SplitMix64) -> Scenario,
) -> Vec<Line> {
    (0..count).map(|_| Line::new(make(rng), class)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generator_is_seed_deterministic() {
        let draw = |seed| {
            let mut r = rng(seed, Stream::Interactive);
            let a: Vec<String> = (0..50)
                .map(|i| Line::new(interactive(&mut r), RequestClass::Interactive).text(i))
                .collect();
            let mut r = rng(seed, Stream::Batch);
            let b: Vec<String> =
                (0..20).map(|i| Line::new(batch(&mut r), RequestClass::Batch).text(i)).collect();
            let mut r = rng(seed, Stream::Sweep);
            let s = sweep_spec(&mut r, 3).to_json().unwrap();
            (a, b, s)
        };
        assert_eq!(draw(7), draw(7));
        let (a7, b7, s7) = draw(7);
        let (a8, b8, s8) = draw(8);
        assert_ne!(a7, a8);
        assert_ne!(b7, b8);
        assert_ne!(s7, s8);
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        let mut a = rng(5, Stream::Interactive);
        let mut b = rng(5, Stream::Batch);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn lines_parse_back_to_their_requests() {
        let mut r = rng(3, Stream::Interactive);
        for id in 0..200 {
            let line = Line::new(interactive(&mut r), RequestClass::Interactive);
            let request = Request::from_line(&line.text(id)).unwrap();
            assert_eq!(request.id, JsonValue::Number(id as f64));
            assert_eq!(request.scenario, line.scenario);
        }
        let mut r = rng(3, Stream::Batch);
        let line = Line::new(batch(&mut r), RequestClass::Batch);
        let request = Request::from_line(&line.text(9)).unwrap();
        assert_eq!(request.class, RequestClass::Batch);
        assert_eq!(request.scenario, line.scenario);
    }

    #[test]
    fn the_interactive_mix_covers_every_fleet_policy_and_backend() {
        let mut r = rng(11, Stream::Interactive);
        let scenarios: Vec<Scenario> = (0..2000).map(|_| interactive(&mut r)).collect();
        for fleet in replan_fleets() {
            assert!(scenarios.iter().any(|s| s.fleet == fleet), "{}", fleet.name);
        }
        for policy in PolicyKind::deterministic() {
            assert!(scenarios.iter().any(|s| s.policy == policy));
        }
        let rv = scenarios.iter().filter(|s| s.backend == BackendKind::Rv).count();
        assert!((300..500).contains(&rv), "{rv} of 2000 on RV, expected about 20 %");
    }
}
