//! Executes expanded scenario grids, in parallel, with streaming output.
//!
//! The calling thread and `threads − 1` scoped helper threads claim
//! **guided ranges** of grid indices from one atomic cursor: each claim
//! takes half an even share of the unclaimed cells, at most 16, so claims
//! shrink as the grid drains and the last ranges balance out between
//! workers. Every worker runs its ranges against one cache of system
//! configurations shared by the run (battery tables are built once per
//! system, not once per cell) and keeps the discretized loads it prepared
//! for the whole run. Helpers send finished ranges back over a channel;
//! the calling thread, between its own ranges, re-assembles grid order and
//! feeds the sink. A grid error poisons the cursor so workers stop
//! claiming, and the first error **in grid order** is reported.
//!
//! Results can be collected ([`run_grid`]) or **streamed** as JSON while the
//! grid is still running ([`GridRun::stream`]): each result is written as
//! one line the moment its grid-order turn arrives, so a 10⁵-cell sweep
//! never materializes all results in memory. The streamed document is the
//! same format [`results_to_json`] produces (modulo insignificant
//! whitespace), so [`results_from_json`] parses both.

use crate::api::GridRun;
use crate::json::JsonValue;
use crate::spec::{BackendKind, LoadSpec, PolicyKind, Scenario, ScenarioSpec};
use crate::EngineError;
use battery_sched::optimal::{OptimalScheduler, RootBounds};
use battery_sched::policy::FixedSchedule;
use battery_sched::system::{simulate_policy_with, SystemConfig, SystemOutcome};
use battery_sched::BatteryModel;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, PoisonError, RwLock};
use std::time::Instant;

/// The most grid cells one claim takes. Claims shrink as the grid drains
/// (see [`claim_size`]); the cap keeps the streaming reorder window shallow
/// on huge grids.
const MAX_CLAIM: usize = 16;

/// Discretized loads one worker keeps for reuse, oldest evicted first.
const LOAD_MEMO: usize = 16;

/// Search statistics of an optimal-schedule scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Decision nodes explored by the branch-and-bound search.
    pub nodes_explored: u64,
    /// Nodes pruned by the transposition table.
    pub memo_hits: u64,
    /// Nodes pruned by state dominance.
    pub dominance_prunes: u64,
    /// Nodes cut by the usable-charge upper bound.
    pub charge_bound_prunes: u64,
    /// Nodes cut by the availability-aware (recovery-coupled) upper bound.
    pub availability_bound_prunes: u64,
}

/// The measured outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// System lifetime in minutes, or `None` if the load ended before the
    /// batteries died (finite loads only; the optimal policy reports the
    /// full load duration in that case, because the search proves the
    /// system survives the whole load).
    pub lifetime_minutes: Option<f64>,
    /// Charge left in the batteries when the run stopped, in A·min.
    pub residual_charge: f64,
    /// Number of battery switches in the executed schedule.
    pub switches: u64,
    /// Number of scheduling decisions taken.
    pub decisions: u64,
    /// Wall-clock time of the simulation in microseconds.
    pub wall_micros: u64,
    /// Branch-and-bound statistics, for [`PolicyKind::Optimal`] scenarios.
    pub search: Option<SearchStats>,
    /// The deterministic policy that seeded the search's warm-start
    /// incumbent, for [`PolicyKind::Optimal`] scenarios.
    pub seeded_by: Option<String>,
    /// The search's upper bounds evaluated at the root position, for
    /// [`PolicyKind::Optimal`] scenarios (the per-bound tightness record
    /// the bench artifacts archive).
    pub root_bounds: Option<RootBounds>,
    /// Wall-clock cost of constructing and evaluating the root bounds in
    /// microseconds, for [`PolicyKind::Optimal`] scenarios. Measurement
    /// noise like `wall_micros`: excluded from artifact comparison.
    pub bound_micros: Option<u64>,
}

/// The fields of a [`ScenarioResult::to_json_value`] row that measure wall
/// time rather than the simulation: every other field is deterministic, so
/// result documents are compared with exactly these fields stripped.
pub const TIMING_FIELDS: [&str; 2] = ["wall_micros", "bound_micros"];

impl ScenarioResult {
    /// The result as a JSON document model (scenario descriptor inlined, so
    /// a result set is self-describing). Uniform fleets keep the classic
    /// `battery`/`battery_count` fields; every row also carries the fleet
    /// name (`"2xB1"`, `"B1+B2"`, ...).
    #[must_use]
    pub fn to_json_value(&self) -> JsonValue {
        let battery_label = if self.scenario.fleet.is_uniform() {
            self.scenario.fleet.batteries[0].name.clone()
        } else {
            self.scenario.fleet.name.clone()
        };
        #[allow(clippy::cast_precision_loss)]
        let mut fields = vec![
            ("fleet", JsonValue::String(self.scenario.fleet.name.clone())),
            ("battery", JsonValue::String(battery_label)),
            ("battery_count", JsonValue::Number(self.scenario.fleet.battery_count() as f64)),
            ("time_step", JsonValue::Number(self.scenario.disc.time_step)),
            ("charge_unit", JsonValue::Number(self.scenario.disc.charge_unit)),
            ("load", JsonValue::String(self.scenario.load.name())),
            ("policy", JsonValue::String(self.scenario.policy.name().to_owned())),
            ("backend", JsonValue::String(self.scenario.backend.name().to_owned())),
            ("lifetime_minutes", self.lifetime_minutes.map_or(JsonValue::Null, JsonValue::Number)),
            ("residual_charge", JsonValue::Number(self.residual_charge)),
            ("switches", JsonValue::Number(self.switches as f64)),
            ("decisions", JsonValue::Number(self.decisions as f64)),
            ("wall_micros", JsonValue::Number(self.wall_micros as f64)),
        ];
        if let Some(stats) = self.search {
            #[allow(clippy::cast_precision_loss)]
            fields.extend([
                ("nodes_explored", JsonValue::Number(stats.nodes_explored as f64)),
                ("memo_hits", JsonValue::Number(stats.memo_hits as f64)),
                ("dominance_prunes", JsonValue::Number(stats.dominance_prunes as f64)),
                ("charge_bound_prunes", JsonValue::Number(stats.charge_bound_prunes as f64)),
                (
                    "availability_bound_prunes",
                    JsonValue::Number(stats.availability_bound_prunes as f64),
                ),
            ]);
        }
        if let Some(seeded_by) = &self.seeded_by {
            fields.push(("seeded_by", JsonValue::String(seeded_by.clone())));
        }
        if let Some(bounds) = self.root_bounds {
            fields.push(("root_bounds", root_bounds_to_json(bounds)));
        }
        #[allow(clippy::cast_precision_loss)]
        if let Some(micros) = self.bound_micros {
            fields.push(("bound_micros", JsonValue::Number(micros as f64)));
        }
        JsonValue::object(fields)
    }
}

/// Renders [`RootBounds`] as a JSON object. A bound of `u64::MAX` means
/// "the backend cannot evaluate this bound" (the availability bound needs
/// service envelopes, which only the discretized backend provides) and is
/// rendered as `null`, not as a number.
fn root_bounds_to_json(bounds: RootBounds) -> JsonValue {
    #[allow(clippy::cast_precision_loss)]
    let steps = |value: u64| {
        if value == u64::MAX {
            JsonValue::Null
        } else {
            JsonValue::Number(value as f64)
        }
    };
    JsonValue::object(vec![
        ("charge", steps(bounds.charge)),
        ("availability", steps(bounds.availability)),
        ("warm_start", steps(bounds.warm_start)),
    ])
}

/// Renders a full result set (spec + per-scenario results) as a JSON
/// document. This is the format of `BENCH_scenarios.json`.
///
/// # Errors
///
/// Returns [`EngineError::Json`] if a number is non-finite.
pub fn results_to_json(
    spec: &ScenarioSpec,
    results: &[ScenarioResult],
) -> Result<String, EngineError> {
    let document = JsonValue::object(vec![
        ("spec", spec.to_json_value()),
        ("results", JsonValue::Array(results.iter().map(ScenarioResult::to_json_value).collect())),
    ]);
    Ok(document.render()?)
}

/// Parses the `results` half of a document produced by [`results_to_json`]
/// or [`GridRun::stream`] back into summary rows. Scenario descriptors in
/// results are denormalized (name strings), so the parse returns the raw
/// JSON objects for callers that want specific fields.
///
/// # Errors
///
/// Returns [`EngineError::Json`] / [`EngineError::InvalidSpec`] on
/// malformed documents.
pub fn results_from_json(text: &str) -> Result<(ScenarioSpec, Vec<JsonValue>), EngineError> {
    let document = JsonValue::parse(text)?;
    let spec = ScenarioSpec::from_json_value(
        document.get("spec").ok_or_else(|| EngineError::InvalidSpec("missing 'spec'".into()))?,
    )?;
    let results = document
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| EngineError::InvalidSpec("missing 'results'".into()))?
        .to_vec();
    Ok((spec, results))
}

/// Key of a cached system configuration: the per-battery parameters of the
/// fleet plus the discretization, all by exact bit pattern (hence `Ord`:
/// the cache shards are `BTreeMap`s, so lookups are order-deterministic).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct SystemKey {
    batteries: Vec<(u64, u64, u64)>,
    time_step: u64,
    charge_unit: u64,
}

impl SystemKey {
    pub(crate) fn of(scenario: &Scenario) -> Self {
        Self {
            batteries: scenario
                .fleet
                .batteries
                .iter()
                .map(|b| (b.capacity.to_bits(), b.c.to_bits(), b.k_prime.to_bits()))
                .collect(),
            time_step: scenario.disc.time_step.to_bits(),
            charge_unit: scenario.disc.charge_unit.to_bits(),
        }
    }
}

/// A validated system configuration with ready-built backends. The tables
/// are the expensive part (the recovery table alone is `O(N)` log
/// evaluations); the discretized and RV backends hold theirs behind an
/// `Arc`, so every cell runs on a clone of the backend it needs — its own
/// battery state over the prototype's tables, read in place.
#[derive(Debug)]
struct CachedSystem {
    config: SystemConfig,
    discretized: battery_sched::backends::DiscretizedKibam,
    continuous: battery_sched::backends::ContinuousKibam,
    rv: battery_sched::backends::RvDiffusion,
    ideal: battery_sched::backends::IdealBattery,
}

/// Builds a fresh validated system (parameters, discretization and all four
/// backends, including the expensive recovery/service/RV step tables).
fn build_system(scenario: &Scenario) -> Result<CachedSystem, EngineError> {
    let fleet = scenario.fleet.to_fleet_spec()?;
    let disc = scenario.disc.to_discretization()?;
    let config = SystemConfig::from_fleet(fleet, disc);
    let discretized = config.discretized_model();
    let continuous = config.continuous_model();
    let rv = config.rv_model();
    let ideal = config.ideal_model();
    Ok(CachedSystem { config, discretized, continuous, rv, ideal })
}

/// Lock shards of the process-wide cache. Eight shards keep write contention
/// on distinct systems negligible for any realistic worker count while the
/// per-shard map stays a deterministic `BTreeMap`.
const CACHE_SHARDS: usize = 8;

/// Point-in-time counters of a [`SharedSystemCache`], for service telemetry
/// (`BENCH_serve.json` exposes them so a repeated request provably reuses
/// the tables built by the first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Distinct systems currently cached.
    pub systems: usize,
    /// Lookups answered from the cache (tables *not* rebuilt).
    pub hits: u64,
    /// Lookups that had to build the tables (at most one per distinct
    /// system, ever).
    pub builds: u64,
}

/// A process-wide concurrent cache of validated systems, sharded by the
/// fleet/discretization bit-pattern key.
///
/// Every [`WorkerCache`] is a handle on one of these, and each cell looks
/// its system up here once, so recovery tables, service-rate tables and RV
/// step tables are computed **once per `(fleet, discretization)` across all
/// requests ever**, no matter how many workers or connections ask. Readers
/// share an `RwLock` per shard; a miss builds under the shard's write lock,
/// which is what guarantees the once-ever property the hit/build counters
/// advertise.
#[derive(Debug)]
pub struct SharedSystemCache {
    shards: Vec<RwLock<BTreeMap<SystemKey, Arc<CachedSystem>>>>,
    hits: AtomicU64,
    builds: AtomicU64,
}

impl SharedSystemCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: (0..CACHE_SHARDS).map(|_| RwLock::new(BTreeMap::new())).collect(),
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    /// The shard a key lives in: a deterministic fold of the key's bit
    /// patterns (no hasher involved, so the mapping is stable across runs).
    fn shard_of(key: &SystemKey) -> usize {
        let mut acc = key.time_step ^ key.charge_unit.rotate_left(17);
        for &(capacity, c, k_prime) in &key.batteries {
            acc = acc.rotate_left(7) ^ capacity ^ c.rotate_left(23) ^ k_prime.rotate_left(41);
        }
        usize::try_from(acc % CACHE_SHARDS as u64).unwrap_or(0)
    }

    /// Returns the cached system of `scenario`, building it (once, under
    /// the shard write lock) on the first request.
    fn get_or_build(&self, scenario: &Scenario) -> Result<Arc<CachedSystem>, EngineError> {
        let key = SystemKey::of(scenario);
        let shard = &self.shards[Self::shard_of(&key)];
        {
            let guard = shard.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(system) = guard.get(&key) {
                // ordering: Relaxed — statistics counter, not a synchronization edge.
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(system));
            }
        }
        let mut guard = shard.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(system) = guard.get(&key) {
            // Another worker built it between our read and write locks.
            // ordering: Relaxed — statistics counter, not a synchronization edge.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(system));
        }
        let system = Arc::new(build_system(scenario)?);
        // ordering: Relaxed — statistics counter, not a synchronization edge.
        self.builds.fetch_add(1, Ordering::Relaxed);
        guard.insert(key, Arc::clone(&system));
        Ok(system)
    }

    /// Current hit/build counters and the number of cached systems.
    #[must_use]
    pub fn stats(&self) -> SharedCacheStats {
        let systems = self
            .shards
            .iter()
            .map(|shard| shard.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum();
        SharedCacheStats {
            systems,
            // ordering: Relaxed — statistics counter, not a synchronization edge.
            hits: self.hits.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics counter, not a synchronization edge.
            builds: self.builds.load(Ordering::Relaxed),
        }
    }
}

impl Default for SharedSystemCache {
    fn default() -> Self {
        Self::new()
    }
}

/// A handle on the [`SharedSystemCache`] a worker's cells look their
/// systems up in.
///
/// [`run_scenario`] rebuilds battery parameters, discretization and —
/// costliest — the recovery table for every cell; cells run through a
/// cache pay table construction once per distinct system instead.
/// [`WorkerCache::new`] owns a private shared cache; a grid run without a
/// [`GridRun::shared_cache`] shares one such cache between its workers, and
/// [`WorkerCache::with_shared`] attaches to a process-wide one, so
/// construction happens once per system across every worker and request.
#[derive(Debug, Default)]
pub struct WorkerCache {
    shared: Arc<SharedSystemCache>,
}

impl WorkerCache {
    /// Creates a handle on a new, private cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a handle on a process-wide shared cache.
    #[must_use]
    pub fn with_shared(shared: Arc<SharedSystemCache>) -> Self {
        Self { shared }
    }

    /// The cached system of `scenario`, built on the cache's first request.
    fn system(&self, scenario: &Scenario) -> Result<Arc<CachedSystem>, EngineError> {
        self.shared.get_or_build(scenario)
    }
}

/// Runs a single scenario with a fresh cache (see
/// [`run_scenario_with_cache`] for the reusing variant workers use).
///
/// # Errors
///
/// Propagates spec-validation, simulation and search-budget errors.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioResult, EngineError> {
    run_scenario_with_cache(scenario, &WorkerCache::new())
}

/// Runs a single scenario on the cached system of `cache` (the cell steps
/// its own copy of the backend, so reuse cannot leak state between cells).
///
/// # Errors
///
/// Same as [`run_scenario`].
pub fn run_scenario_with_cache(
    scenario: &Scenario,
    cache: &WorkerCache,
) -> Result<ScenarioResult, EngineError> {
    let profile = scenario.load.profile()?;
    let system = cache.system(scenario)?;
    let load = system.config.discretize(&profile)?;
    execute(scenario, &system, &load)
}

/// Runs one prepared scenario on a copy of the cached system's backend: the
/// copy owns its battery state and shares the prototype's tables.
fn execute(
    scenario: &Scenario,
    system: &CachedSystem,
    load: &dkibam::DiscretizedLoad,
) -> Result<ScenarioResult, EngineError> {
    let config = &system.config;
    match scenario.backend {
        BackendKind::Discretized => run_on(scenario, config, load, system.discretized.clone()),
        BackendKind::Continuous => run_on(scenario, config, load, system.continuous.clone()),
        BackendKind::Rv => run_on(scenario, config, load, system.rv.clone()),
        BackendKind::Ideal => run_on(scenario, config, load, system.ideal.clone()),
    }
}

/// Runs one scenario's policy — or its optimal search, timing the root
/// phase (warm start and root bounds) apart from the exploration — on
/// `model`.
fn run_on<M: BatteryModel>(
    scenario: &Scenario,
    config: &SystemConfig,
    load: &dkibam::DiscretizedLoad,
    mut model: M,
) -> Result<ScenarioResult, EngineError> {
    // xlint: allow(clock) -- wall_micros is measurement-only, excluded from --compare
    let start = Instant::now();
    let PolicyKind::Optimal { budget } = scenario.policy else {
        let mut policy =
            // xlint: allow(panic) -- every non-optimal PolicyKind constructs infallibly
            scenario.policy.build().expect("non-optimal policies always instantiate");
        let outcome = simulate_policy_with(config, load, policy.as_mut(), &mut model)?;
        return Ok(result_row(scenario, &outcome, outcome.lifetime_minutes(), start));
    };
    let scheduler = OptimalScheduler::with_budget(budget);
    // xlint: allow(clock) -- bound_micros is measurement-only, excluded from --compare
    let root_start = Instant::now();
    let root = scheduler.root_phase(config, load, &mut model)?;
    let bound_micros = u64::try_from(root_start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let bounds = root.bounds();
    let optimal = root.explore()?;
    // Replay the optimal decision sequence to recover the residual charge
    // and switch counts the deterministic cells report.
    let mut replay = FixedSchedule::new(optimal.decisions.clone());
    let outcome = simulate_policy_with(config, load, &mut replay, &mut model)?;
    let stats = SearchStats {
        nodes_explored: optimal.nodes_explored as u64,
        memo_hits: optimal.memo_hits as u64,
        dominance_prunes: optimal.dominance_prunes as u64,
        charge_bound_prunes: optimal.charge_bound_prunes as u64,
        availability_bound_prunes: optimal.availability_bound_prunes as u64,
    };
    Ok(ScenarioResult {
        search: Some(stats),
        seeded_by: optimal.seeded_by.map(str::to_owned),
        root_bounds: Some(bounds),
        bound_micros: Some(bound_micros),
        ..result_row(scenario, &outcome, Some(optimal.lifetime_minutes(config)), start)
    })
}

/// The result row of a finished simulation, without search fields;
/// `wall_micros` runs from `start` to now.
fn result_row(
    scenario: &Scenario,
    outcome: &SystemOutcome,
    lifetime_minutes: Option<f64>,
    start: Instant,
) -> ScenarioResult {
    ScenarioResult {
        scenario: scenario.clone(),
        lifetime_minutes,
        residual_charge: outcome.residual_charge(),
        switches: outcome.schedule().switches() as u64,
        decisions: outcome.schedule().assignments.len() as u64,
        wall_micros: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
        search: None,
        seeded_by: None,
        root_bounds: None,
        bound_micros: None,
    }
}

/// A discretized load a worker prepared, kept for every later cell with an
/// equal load spec and discretization. `horizon` is the charge horizon a
/// cyclic load was truncated at; a finite load discretizes the same under
/// every fleet's horizon, so it keeps `None` and serves them all.
struct PreparedLoad<'a> {
    spec: &'a LoadSpec,
    time_step: u64,
    charge_unit: u64,
    horizon: Option<u64>,
    load: dkibam::DiscretizedLoad,
}

/// The last [`LOAD_MEMO`] loads a worker prepared, oldest first.
#[derive(Default)]
struct LoadMemo<'a> {
    loads: VecDeque<PreparedLoad<'a>>,
}

impl<'a> LoadMemo<'a> {
    /// Prepares one cell: looks its system up (building and caching the
    /// tables on the cache's first request) and returns it with the cell's
    /// discretized load, discretizing only when no remembered load matches.
    /// The profile is built ahead of the system lookup unless an equal spec
    /// already proved it valid, so a failing cell reports the same error as
    /// a fresh [`run_scenario`].
    fn prepare_cell(
        &mut self,
        scenario: &'a Scenario,
        cache: &WorkerCache,
    ) -> Result<(Arc<CachedSystem>, &dkibam::DiscretizedLoad), EngineError> {
        let known = self.loads.iter().any(|prepared| *prepared.spec == scenario.load);
        let profile = if known { None } else { Some(scenario.load.profile()?) };
        let system = cache.system(scenario)?;
        let horizon = system.config.charge_horizon().to_bits();
        let time_step = scenario.disc.time_step.to_bits();
        let charge_unit = scenario.disc.charge_unit.to_bits();
        let hit = self.loads.iter().position(|prepared| {
            prepared.time_step == time_step
                && prepared.charge_unit == charge_unit
                && prepared.horizon.unwrap_or(horizon) == horizon
                && *prepared.spec == scenario.load
        });
        if let Some(index) = hit {
            return Ok((system, &self.loads[index].load));
        }
        let profile = profile.map_or_else(|| scenario.load.profile(), Ok)?;
        let load = system.config.discretize(&profile)?;
        if self.loads.len() == LOAD_MEMO {
            self.loads.pop_front();
        }
        let horizon = profile.is_cyclic().then_some(horizon);
        let spec = &scenario.load;
        self.loads.push_back(PreparedLoad { spec, time_step, charge_unit, horizon, load });
        Ok((system, &self.loads[self.loads.len() - 1].load))
    }
}

/// Runs every scenario of a slice against the worker's cache, each cell
/// **independently**: one failing cell does not stop its siblings. This is
/// the request path ([`crate::api`], where every request deserves its own
/// answer); grid ranges stop at their first error instead (see [`work`]).
///
/// Each cell looks its system up once and runs on a copy of the cached
/// backend; cells with an equal load spec and discretization share **one
/// discretized load** (per charge horizon, for cyclic loads), and a load
/// that fails to prepare is that cell's own error. Results come back in
/// slice order, one per scenario.
pub(crate) fn run_cells(
    scenarios: &[&Scenario],
    cache: &WorkerCache,
) -> Vec<Result<ScenarioResult, EngineError>> {
    let mut loads = LoadMemo::default();
    scenarios
        .iter()
        .map(|scenario| {
            let (system, load) = loads.prepare_cell(scenario, cache)?;
            execute(scenario, &system, load)
        })
        .collect()
}

/// One executed range of grid cells: results in grid order up to the first
/// error, and that error.
struct RangeOutput {
    range: Range<usize>,
    results: Vec<ScenarioResult>,
    error: Option<EngineError>,
}

/// Cells the next claim takes while `remaining` cells are unclaimed: half
/// an even share per worker, so claims shrink as the grid drains and the
/// last ranges balance out, within `1..=MAX_CLAIM`.
fn claim_size(remaining: usize, workers: usize) -> usize {
    (remaining / (2 * workers)).clamp(1, MAX_CLAIM)
}

/// The claim cursor of one grid run, shared by all of its workers.
#[derive(Default)]
pub(crate) struct Claims {
    len: usize,
    workers: usize,
    cursor: AtomicUsize,
    poisoned: AtomicBool,
}

impl Claims {
    /// Claims the next range of cells, or `None` once the grid is drained
    /// or poisoned.
    fn next(&self) -> Option<Range<usize>> {
        // ordering: Acquire pairs with the Release store in `poison`.
        if self.poisoned.load(Ordering::Acquire) {
            return None;
        }
        let (len, workers) = (self.len, self.workers);
        let advance =
            |start: usize| (start < len).then(|| start + claim_size(len - start, workers));
        // ordering: Relaxed — a pure claim ticket; results synchronize via mpsc.
        let start = self.cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, advance).ok()?;
        advance(start).map(|end| start..end)
    }

    /// Stops every worker's claims: ranges in flight finish, no new one
    /// starts.
    fn poison(&self) {
        // ordering: Release pairs with the Acquire load in `next`.
        self.poisoned.store(true, Ordering::Release);
    }
}

/// The claim loop every worker runs, the calling thread included: run each
/// range `next` claims with **grid semantics** (cells in grid order,
/// stopping at the first error, which poisons the claims) and hand it to
/// `deliver`, until the grid is drained or poisoned. One load memo serves
/// all of the worker's ranges, so a small tail claim does not discretize
/// its loads again.
fn work(
    scenarios: &[Scenario],
    claims: &Claims,
    cache: &WorkerCache,
    mut next: impl FnMut() -> Option<Range<usize>>,
    mut deliver: impl FnMut(RangeOutput),
) {
    let mut loads = LoadMemo::default();
    while let Some(range) = next() {
        let mut results = Vec::with_capacity(range.len());
        let mut error = None;
        for scenario in &scenarios[range.clone()] {
            let prepared = loads.prepare_cell(scenario, cache);
            match prepared.and_then(|(system, load)| execute(scenario, &system, load)) {
                Ok(result) => results.push(result),
                Err(e) => {
                    claims.poison();
                    error = Some(e);
                    break;
                }
            }
        }
        deliver(RangeOutput { range, results, error });
    }
}

/// Outcome of a grid execution, assembled in grid order on the calling
/// thread: executed ranges arrive keyed by their start, and the in-order
/// prefix goes to the sink as soon as it is complete.
#[derive(Default)]
pub(crate) struct ClaimedOutcome {
    /// How many scenarios actually executed (including the failing one).
    /// With the poison flag, this stays far below the grid size when an
    /// early cell fails. Asserted by tests; not part of the public API.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) executed: usize,
    /// The first error in grid order, if any.
    pub(crate) error: Option<EngineError>,
    /// Executed ranges waiting for their grid-order turn, by start.
    pending: BTreeMap<usize, RangeOutput>,
    /// Where the next range due in grid order starts.
    next_start: usize,
    /// Whether the sink refused a result.
    sink_closed: bool,
}

impl ClaimedOutcome {
    fn accept(
        &mut self,
        output: RangeOutput,
        sink: &mut impl FnMut(ScenarioResult) -> bool,
        claims: &Claims,
    ) {
        self.executed += output.results.len() + usize::from(output.error.is_some());
        self.pending.insert(output.range.start, output);
        while let Some(output) = self.pending.remove(&self.next_start) {
            self.next_start = output.range.end;
            if self.error.is_some() || self.sink_closed {
                continue;
            }
            for result in output.results {
                if !sink(result) {
                    // The consumer died (e.g. a stream-write failure): stop
                    // claiming instead of computing results nobody receives.
                    self.sink_closed = true;
                    claims.poison();
                    break;
                }
            }
            self.error = output.error;
        }
    }
}

/// Runs `scenarios` on `threads` workers — the calling thread and
/// `threads − 1` helpers — feeding completed results to `sink` **in grid
/// order** as soon as their turn arrives. Workers claim guided ranges from
/// one cursor; the calling thread claims the first range before any helper
/// starts, and between its own ranges it drains the helpers' channel into
/// the sink. A grid of at most one full claim spawns no helper. The sink
/// returns whether to keep going: a `false` (e.g. the output stream died)
/// poisons the claims exactly like a scenario error does. On poison,
/// in-flight ranges finish, no new range starts, and the sink stops
/// receiving. Every worker looks its systems up in `cache`. Each helper
/// calls `gate` before each of its claims: a no-op in a real run, tests
/// hold helpers back with it until the grid is poisoned.
pub(crate) fn run_claimed(
    scenarios: &[Scenario],
    threads: usize,
    cache: &WorkerCache,
    mut sink: impl FnMut(ScenarioResult) -> bool,
    gate: impl Fn(&Claims) + Sync,
) -> ClaimedOutcome {
    let helpers =
        if scenarios.len() <= MAX_CLAIM { 0 } else { threads.clamp(1, scenarios.len()) - 1 };
    let claims = Claims { len: scenarios.len(), workers: helpers + 1, ..Claims::default() };
    let mut first = claims.next();
    let mut outcome = ClaimedOutcome::default();
    let (sender, receiver) = mpsc::channel::<RangeOutput>();
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            let sender = sender.clone();
            let (claims, gate) = (&claims, &gate);
            scope.spawn(move || {
                let next = || {
                    gate(claims);
                    claims.next()
                };
                // A send only fails once the receiver is gone, which cannot
                // happen before the scope joins this helper.
                work(scenarios, claims, cache, next, |output| {
                    let _ = sender.send(output);
                });
            });
        }
        drop(sender);
        work(
            scenarios,
            &claims,
            cache,
            || first.take().or_else(|| claims.next()),
            |output| {
                outcome.accept(output, &mut sink, &claims);
                for output in receiver.try_iter() {
                    outcome.accept(output, &mut sink, &claims);
                }
            },
        );
        for output in receiver {
            outcome.accept(output, &mut sink, &claims);
        }
    });
    outcome
}

/// Runs every scenario of the grid in parallel and returns the results in
/// grid order. Uses one worker per available CPU (capped by the number of
/// scenarios).
///
/// # Errors
///
/// Returns the first scenario error encountered (in grid order).
pub fn run_grid(spec: &ScenarioSpec) -> Result<Vec<ScenarioResult>, EngineError> {
    GridRun::new(spec).collect()
}

/// Summary of a streamed grid run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Number of results written to the stream.
    pub written: usize,
}

/// An incremental writer for the [`results_to_json`] document format: the
/// spec is written up front, then each result is appended as one line, and
/// [`finish`](StreamingResultWriter::finish) closes the document. The output
/// parses with [`results_from_json`] and never holds more than one result in
/// memory.
#[derive(Debug)]
pub struct StreamingResultWriter<W: Write> {
    out: W,
    written: usize,
}

impl<W: Write> StreamingResultWriter<W> {
    /// Writes the document header (the spec and the opening of the result
    /// array).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Json`] for non-finite spec numbers and
    /// [`EngineError::Io`] on write failure.
    pub fn new(mut out: W, spec: &ScenarioSpec) -> Result<Self, EngineError> {
        let spec_json = spec.to_json_value().render()?;
        write!(out, "{{\"spec\":{spec_json},\"results\":[")?;
        Ok(Self { out, written: 0 })
    }

    /// Appends one result as a single line.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Json`] for non-finite numbers and
    /// [`EngineError::Io`] on write failure.
    pub fn push(&mut self, result: &ScenarioResult) -> Result<(), EngineError> {
        let line = result.to_json_value().render()?;
        if self.written > 0 {
            self.out.write_all(b",")?;
        }
        self.out.write_all(b"\n")?;
        self.out.write_all(line.as_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// The number of results written so far.
    #[must_use]
    pub fn written(&self) -> usize {
        self.written
    }

    /// Closes the document and returns the inner writer (flushed).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] on write failure.
    pub fn finish(mut self) -> Result<W, EngineError> {
        self.out.write_all(b"\n]}")?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// The default worker count of a grid run: one per available CPU.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BatterySpec, DiscSpec, FleetDef, LoadSpec, PolicyKind};
    use workload::paper_loads::TestLoad;

    fn small_grid() -> ScenarioSpec {
        ScenarioSpec {
            batteries: vec![BatterySpec::b1()],
            battery_counts: vec![2],
            fleets: vec![],
            discretizations: vec![DiscSpec::paper()],
            loads: vec![
                LoadSpec::Paper(TestLoad::Cl500),
                LoadSpec::Paper(TestLoad::Ils500),
                LoadSpec::Paper(TestLoad::IlsAlt),
                LoadSpec::Paper(TestLoad::Ill250),
            ],
            policies: vec![PolicyKind::RoundRobin, PolicyKind::BestOfTwo],
            backends: vec![BackendKind::Discretized],
        }
    }

    #[test]
    fn unevaluable_root_bounds_render_as_null() {
        let render = |bounds: RootBounds| root_bounds_to_json(bounds).render().unwrap();
        assert_eq!(
            render(RootBounds { charge: 1140, availability: 650, warm_start: 328 }),
            r#"{"charge":1140.0,"availability":650.0,"warm_start":328.0}"#
        );
        assert_eq!(
            render(RootBounds { charge: 1140, availability: u64::MAX, warm_start: 328 }),
            r#"{"charge":1140.0,"availability":null,"warm_start":328.0}"#
        );
        assert_eq!(
            render(RootBounds { charge: u64::MAX, availability: u64::MAX, warm_start: 0 }),
            r#"{"charge":null,"availability":null,"warm_start":0.0}"#
        );
    }

    #[test]
    fn grid_runs_in_parallel_and_matches_serial_execution() {
        let spec = small_grid();
        let serial = GridRun::new(&spec).threads(1).collect().unwrap();
        let parallel = GridRun::new(&spec).threads(4).collect().unwrap();
        assert_eq!(serial.len(), 8);
        assert_eq!(parallel.len(), 8);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.scenario, b.scenario, "results must come back in grid order");
            assert_eq!(a.lifetime_minutes, b.lifetime_minutes);
            assert_eq!(a.switches, b.switches);
        }
    }

    #[test]
    fn results_match_the_paper_through_the_engine() {
        let spec = small_grid();
        let results = run_grid(&spec).unwrap();
        let rr_ils500 = results
            .iter()
            .find(|r| {
                r.scenario.load.name() == "ILs 500" && r.scenario.policy == PolicyKind::RoundRobin
            })
            .unwrap();
        let lifetime = rr_ils500.lifetime_minutes.unwrap();
        assert!((lifetime - 10.48).abs() < 0.15, "Table 5 ILs 500 round robin: {lifetime}");
    }

    #[test]
    fn result_set_round_trips_through_json() {
        let spec = small_grid();
        let results = run_grid(&spec).unwrap();
        let json = results_to_json(&spec, &results).unwrap();
        let (spec_back, raw_results) = results_from_json(&json).unwrap();
        assert_eq!(spec_back, spec);
        assert_eq!(raw_results.len(), results.len());
        for (raw, result) in raw_results.iter().zip(&results) {
            assert_eq!(raw.get("load").unwrap().as_str().unwrap(), result.scenario.load.name());
            assert_eq!(
                raw.get("lifetime_minutes").unwrap().as_f64(),
                result.lifetime_minutes,
                "lifetimes survive the JSON round-trip bit-exactly"
            );
            assert_eq!(raw.get("switches").unwrap().as_u64(), Some(result.switches));
        }
    }

    #[test]
    fn continuous_backend_runs_through_the_engine() {
        let mut spec = small_grid();
        spec.backends = vec![BackendKind::Continuous];
        spec.loads.truncate(2);
        let results = run_grid(&spec).unwrap();
        assert_eq!(results.len(), 4);
        for result in &results {
            assert!(result.lifetime_minutes.unwrap() > 1.0);
        }
    }

    #[test]
    fn invalid_scenarios_surface_errors() {
        let mut spec = small_grid();
        spec.batteries =
            vec![BatterySpec { name: "bad".into(), capacity: -5.0, c: 0.2, k_prime: 0.1 }];
        assert!(run_grid(&spec).is_err());
    }

    #[test]
    fn optimal_policy_runs_through_the_engine() {
        let mut spec = small_grid();
        spec.discretizations = vec![DiscSpec::coarse()];
        spec.loads = vec![LoadSpec::Paper(TestLoad::IlsAlt)];
        spec.policies = vec![PolicyKind::BestOfTwo, PolicyKind::optimal()];
        let results = run_grid(&spec).unwrap();
        assert_eq!(results.len(), 2);
        let best = &results[0];
        let optimal = &results[1];
        assert!(best.search.is_none());
        let stats = optimal.search.expect("optimal cells report search stats");
        assert!(stats.nodes_explored > 0);
        // Table 5 shape: the optimal schedule clearly beats best-of-two on
        // the alternating load.
        assert!(optimal.lifetime_minutes.unwrap() >= best.lifetime_minutes.unwrap());
        // The replayed schedule agrees with the search lifetime, so the
        // residual charge is the optimal schedule's residual.
        assert!(optimal.residual_charge > 0.0);
        // And the JSON row carries the stats.
        let json = optimal.to_json_value().render().unwrap();
        assert!(json.contains("\"nodes_explored\""));
    }

    #[test]
    fn ideal_backend_runs_through_the_engine() {
        let mut spec = small_grid();
        spec.loads = vec![LoadSpec::Paper(TestLoad::Cl500)];
        spec.policies = vec![PolicyKind::RoundRobin];
        spec.backends = vec![BackendKind::Discretized, BackendKind::Ideal];
        let results = run_grid(&spec).unwrap();
        assert_eq!(results.len(), 2);
        let kibam = results[0].lifetime_minutes.unwrap();
        let ideal = results[1].lifetime_minutes.unwrap();
        // Two ideal 5.5 A·min batteries under 500 mA last exactly 22 min;
        // the KiBaM pair strands most of its charge (Table 5: 4.53 min).
        assert!((ideal - 22.0).abs() < 0.05, "ideal lifetime {ideal}");
        assert!(ideal > 4.0 * kibam, "the ideal baseline dwarfs the KiBaM lifetime");
        let json = results[1].to_json_value().render().unwrap();
        assert!(json.contains("\"ideal\""));
    }

    #[test]
    fn rv_backend_runs_through_the_engine() {
        let mut spec = small_grid();
        spec.loads = vec![LoadSpec::Paper(TestLoad::Cl500), LoadSpec::Paper(TestLoad::IlsAlt)];
        spec.policies = vec![PolicyKind::RoundRobin, PolicyKind::BestOfTwo];
        spec.backends = vec![BackendKind::Discretized, BackendKind::Rv];
        let results = run_grid(&spec).unwrap();
        assert_eq!(results.len(), 8);
        for pair in results.chunks(2) {
            let (kibam, rv) = (&pair[0], &pair[1]);
            assert_eq!(rv.scenario.backend, BackendKind::Rv);
            let kibam_life = kibam.lifetime_minutes.unwrap();
            let rv_life = rv.lifetime_minutes.unwrap();
            // Both models share capacity and steady-state recovery gain, so
            // lifetimes land in the same range without being equal.
            assert!(
                rv_life > 0.5 * kibam_life && rv_life < 1.5 * kibam_life,
                "{}: kibam {kibam_life} vs rv {rv_life}",
                rv.scenario.label()
            );
        }
        let json = results.last().unwrap().to_json_value().render().unwrap();
        assert!(json.contains("\"rv\""));
    }

    #[test]
    fn rv_optimal_search_runs_through_the_engine() {
        let mut spec = small_grid();
        spec.discretizations = vec![DiscSpec::coarse()];
        spec.loads = vec![LoadSpec::Paper(TestLoad::IlsAlt)];
        spec.policies = vec![PolicyKind::BestOfTwo, PolicyKind::optimal()];
        spec.backends = vec![BackendKind::Rv];
        let results = run_grid(&spec).unwrap();
        let best = &results[0];
        let optimal = &results[1];
        let stats = optimal.search.expect("optimal cells report search stats");
        assert!(stats.nodes_explored > 0);
        assert!(optimal.lifetime_minutes.unwrap() >= best.lifetime_minutes.unwrap());
    }

    #[test]
    fn mixed_fleet_runs_end_to_end_with_the_optimal_policy() {
        // The acceptance scenario: a 1xB1 + 1xB2 fleet through ScenarioSpec
        // JSON -> engine -> PolicyKind::Optimal.
        let spec = ScenarioSpec {
            batteries: vec![],
            battery_counts: vec![],
            fleets: vec![FleetDef::mixed(vec![BatterySpec::b1(), BatterySpec::b2()])],
            discretizations: vec![DiscSpec::coarse()],
            loads: vec![LoadSpec::Paper(TestLoad::IlsAlt)],
            policies: vec![PolicyKind::BestOfTwo, PolicyKind::optimal()],
            backends: vec![BackendKind::Discretized],
        };
        // Round-trip the grid through JSON first, as a driver script would.
        let spec = ScenarioSpec::from_json(&spec.to_json().unwrap()).unwrap();
        let results = run_grid(&spec).unwrap();
        assert_eq!(results.len(), 2);
        let best = &results[0];
        let optimal = &results[1];
        assert_eq!(optimal.scenario.fleet.name, "B1+B2");
        let stats = optimal.search.expect("optimal cells report search stats");
        assert!(stats.nodes_explored > 0);
        assert!(optimal.lifetime_minutes.unwrap() >= best.lifetime_minutes.unwrap());
        // The mixed pair (16.5 A·min) outlives the paper's 2xB1 optimum.
        assert!(optimal.lifetime_minutes.unwrap() > 15.0);
        let json = optimal.to_json_value().render().unwrap();
        assert!(json.contains("\"fleet\":\"B1+B2\""));
    }

    #[test]
    fn optimal_budget_errors_poison_the_grid() {
        let mut spec = small_grid();
        spec.discretizations = vec![DiscSpec::coarse()];
        spec.policies = vec![PolicyKind::Optimal { budget: 1 }];
        let error = run_grid(&spec).unwrap_err();
        assert!(error.to_string().contains("budget"), "{error}");
    }

    #[test]
    fn worker_cache_reuses_systems_without_changing_results() {
        let spec = small_grid();
        let scenarios = spec.expand();
        let cache = WorkerCache::new();
        for scenario in &scenarios {
            let cached = run_scenario_with_cache(scenario, &cache).unwrap();
            let fresh = run_scenario(scenario).unwrap();
            assert_eq!(cached.lifetime_minutes, fresh.lifetime_minutes);
            assert_eq!(cached.switches, fresh.switches);
        }
        // All cells share one battery/disc/count triple: one build, and
        // every later cell's single lookup is a hit.
        let hits = scenarios.len() as u64 - 1;
        assert_eq!(cache.shared.stats(), SharedCacheStats { systems: 1, hits, builds: 1 });
    }

    #[test]
    fn optimal_and_continuous_cells_read_the_cached_tables_in_place() {
        use crate::api::{run_requests, Request};
        let cell = |load: LoadSpec, policy, backend| Scenario {
            fleet: FleetDef::uniform(BatterySpec::b1(), 2),
            disc: DiscSpec::paper(),
            load,
            policy,
            backend,
        };
        let cells = [
            cell(
                LoadSpec::random_paper_levels(3, 4),
                PolicyKind::optimal(),
                BackendKind::Discretized,
            ),
            cell(
                LoadSpec::Paper(TestLoad::IlsAlt),
                PolicyKind::RoundRobin,
                BackendKind::Continuous,
            ),
        ];
        let shared = Arc::new(SharedSystemCache::new());
        let prototype = shared.get_or_build(&cells[0]).expect("the system builds");
        let worker = WorkerCache::with_shared(Arc::clone(&shared));
        let requests: Vec<Request> = cells.iter().cloned().map(Request::of_scenario).collect();
        let responses = run_requests(&requests, &worker);
        assert_eq!(
            shared.stats(),
            SharedCacheStats { systems: 1, hits: 2, builds: 1 },
            "each cell looks the prototype up once and never rebuilds it"
        );
        for (scenario, response) in cells.iter().zip(&responses) {
            let row = response.outcome.as_ref().expect("both cells succeed");
            let expected = run_scenario(scenario).unwrap();
            assert_eq!(
                row.lifetime_minutes.map(f64::to_bits),
                expected.lifetime_minutes.map(f64::to_bits),
                "{}",
                scenario.label()
            );
            assert_eq!(row.residual_charge.to_bits(), expected.residual_charge.to_bits());
            assert_eq!((row.switches, row.decisions), (expected.switches, expected.decisions));
            // The system a cell runs on is the prototype itself, and the
            // backend copy it steps shares the prototype's tables.
            let system = worker.system(scenario).unwrap();
            assert!(Arc::ptr_eq(&system, &prototype), "{}", scenario.label());
            let stepped = system.discretized.clone();
            assert!(Arc::ptr_eq(stepped.fleet(), prototype.discretized.fleet()));
            let stepped = system.rv.clone();
            assert!(Arc::ptr_eq(stepped.fleet(), prototype.rv.fleet()));
        }
    }

    /// `small_grid` on three fleet sizes with five seeded random loads
    /// added: 54 cells, several claims, so a run on several threads spawns
    /// helpers.
    fn multi_claim_grid() -> ScenarioSpec {
        let mut spec = small_grid();
        spec.battery_counts = vec![2, 3, 4];
        spec.loads.extend((0..5).map(|seed| LoadSpec::random_paper_levels(seed, 20)));
        spec
    }

    #[test]
    fn streamed_grid_matches_collected_grid() {
        let spec = multi_claim_grid();
        let collected = GridRun::new(&spec).threads(1).collect().unwrap();
        assert_eq!(collected.len(), 54);
        for threads in 1..=4 {
            let mut buffer = Vec::new();
            let summary = GridRun::new(&spec).threads(threads).stream(&mut buffer).unwrap();
            assert_eq!(summary.written, collected.len());
            let text = String::from_utf8(buffer).unwrap();
            let (spec_back, raw_results) = results_from_json(&text).unwrap();
            assert_eq!(spec_back, spec);
            assert_eq!(raw_results.len(), collected.len());
            for (raw, result) in raw_results.iter().zip(&collected) {
                let context = format!("{threads} threads: {}", result.scenario.label());
                assert_eq!(raw.get("fleet").unwrap().as_str().unwrap(), result.scenario.fleet.name);
                assert_eq!(raw.get("load").unwrap().as_str().unwrap(), result.scenario.load.name());
                let lifetime = raw.get("lifetime_minutes").unwrap().as_f64();
                assert_eq!(lifetime, result.lifetime_minutes, "{context}");
            }
        }
    }

    #[test]
    fn shards_partition_the_grid_exactly() {
        let spec = multi_claim_grid();
        let unsharded = GridRun::new(&spec).threads(1).collect().unwrap();
        // Three shards over 54 scenarios: 18 each, more than one claim.
        for threads in [1, 3] {
            let mut rows = Vec::new();
            for index in 0..3 {
                let mut buffer = Vec::new();
                let summary = GridRun::new(&spec)
                    .threads(threads)
                    .shard(index, 3)
                    .stream(&mut buffer)
                    .unwrap();
                let text = String::from_utf8(buffer).unwrap();
                let (spec_back, shard_rows) = results_from_json(&text).unwrap();
                assert_eq!(spec_back, spec, "every shard carries the full grid spec");
                assert_eq!(summary.written, 18);
                assert_eq!(summary.written, shard_rows.len());
                rows.extend(shard_rows);
            }
            assert_eq!(rows.len(), unsharded.len());
            for (row, result) in rows.iter().zip(&unsharded) {
                assert_eq!(row.get("fleet").unwrap().as_str().unwrap(), result.scenario.fleet.name);
                assert_eq!(row.get("load").unwrap().as_str().unwrap(), result.scenario.load.name());
                let policy = row.get("policy").unwrap().as_str().unwrap();
                assert_eq!(policy, result.scenario.policy.name());
                assert_eq!(
                    row.get("lifetime_minutes").unwrap().as_f64(),
                    result.lifetime_minutes,
                    "shard rows are bit-identical to the unsharded grid ({threads} threads)"
                );
            }
        }
        // Out-of-range shards are rejected up front.
        let error = GridRun::new(&spec).threads(1).shard(3, 3).stream(Vec::new()).unwrap_err();
        assert!(error.to_string().contains("out of range"), "{error}");
        let error = GridRun::new(&spec).threads(1).shard(0, 0).stream(Vec::new()).unwrap_err();
        assert!(error.to_string().contains("out of range"), "{error}");
    }

    #[test]
    fn claims_cover_the_grid_once_and_never_grow() {
        for workers in 1..=4 {
            for len in 0..200 {
                let claims = Claims { len, workers, ..Claims::default() };
                let (mut covered, mut last) = (0, MAX_CLAIM);
                while let Some(range) = claims.next() {
                    let context = format!("{len} cells, {workers} workers: {range:?}");
                    assert_eq!(range.start, covered, "{context} leaves a gap or overlaps");
                    assert!((1..=last).contains(&range.len()), "{context} after a claim of {last}");
                    (covered, last) = (range.end, range.len());
                }
                assert_eq!(covered, len, "{len} cells, {workers} workers: grid not covered");
            }
        }
        let claims = Claims { len: 100, workers: 2, ..Claims::default() };
        assert_eq!(claims.next(), Some(0..16), "claims start at the cap on big grids");
        claims.poison();
        assert_eq!(claims.next(), None, "a poisoned grid hands out no more claims");
    }

    #[test]
    fn prepare_cell_shares_finite_loads_across_horizons() {
        // A finite load discretizes the same under every fleet's charge
        // horizon, so 2xB1 and 4xB1 share one; the cyclic `CL 250` is
        // truncated at each fleet's own horizon and prepares once per fleet.
        let cell = |count, load| Scenario {
            fleet: FleetDef::uniform(BatterySpec::b1(), count),
            disc: DiscSpec::paper(),
            load,
            policy: PolicyKind::RoundRobin,
            backend: BackendKind::Discretized,
        };
        let finite = LoadSpec::random_paper_levels(5, 12);
        let cyclic = LoadSpec::Paper(TestLoad::Cl250);
        assert!(!finite.profile().unwrap().is_cyclic() && cyclic.profile().unwrap().is_cyclic());
        let cells = [
            cell(2, finite.clone()),
            cell(4, finite.clone()),
            cell(2, cyclic.clone()),
            cell(4, cyclic.clone()),
            cell(2, finite),
            cell(2, cyclic),
        ];
        let cache = WorkerCache::new();
        let mut memo = LoadMemo::default();
        let mut prepared = Vec::new();
        for scenario in &cells {
            let (system, load) = memo.prepare_cell(scenario, &cache).unwrap();
            let own = system.config.discretize(&scenario.load.profile().unwrap()).unwrap();
            assert_eq!(*load, own, "{}: the shared load is the cell's own", scenario.label());
            prepared.push(memo.loads.len());
        }
        assert_eq!(prepared, [1, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn load_memo_evicts_its_oldest_load() {
        let cell = |seed| Scenario {
            fleet: FleetDef::uniform(BatterySpec::b1(), 2),
            disc: DiscSpec::paper(),
            load: LoadSpec::random_paper_levels(seed, 4),
            policy: PolicyKind::RoundRobin,
            backend: BackendKind::Discretized,
        };
        let cells: Vec<Scenario> = (0..=LOAD_MEMO as u64).map(cell).collect();
        let cache = WorkerCache::new();
        let mut memo = LoadMemo::default();
        for scenario in &cells {
            memo.prepare_cell(scenario, &cache).unwrap();
        }
        assert_eq!(memo.loads.len(), LOAD_MEMO);
        assert_eq!(*memo.loads[0].spec, cells[1].load, "the first load was evicted");
    }

    /// A helper gate that holds every helper back until the grid is
    /// poisoned, so only the calling thread's first range can run before.
    /// A grid that is never poisoned releases them once it is fully
    /// claimed, so a broken poison fails the test instead of hanging it.
    fn until_poisoned(claims: &Claims) {
        // ordering: Acquire pairs with the Release store in `Claims::poison`.
        while !claims.poisoned.load(Ordering::Acquire)
            // ordering: Relaxed — only read to stop waiting, publishes nothing.
            && claims.cursor.load(Ordering::Relaxed) < claims.len
        {
            std::thread::yield_now();
        }
    }

    #[test]
    fn poisoned_grid_stops_claiming_work() {
        // A huge grid whose every cell fails. The calling thread claims the
        // first range before any helper starts; its first cell fails, so the
        // range stops there and the grid is poisoned before any second claim.
        let mut spec = small_grid();
        spec.batteries =
            vec![BatterySpec { name: "bad".into(), capacity: -5.0, c: 0.2, k_prime: 0.1 }];
        spec.loads = (0..500).map(|seed| LoadSpec::random_paper_levels(seed, 5)).collect();
        let scenarios = spec.expand();
        assert_eq!(scenarios.len(), 1000);
        for threads in [1, 4] {
            // Helpers held back until the poison claim nothing at all.
            let outcome =
                run_claimed(&scenarios, threads, &WorkerCache::new(), |_| true, until_poisoned);
            assert!(outcome.error.is_some());
            assert_eq!(outcome.executed, 1, "{threads} threads");
            // Free helpers may each start one range, whose first cell fails
            // and poisons the grid for that helper's next claim: never more
            // than one cell per worker.
            let outcome = run_claimed(&scenarios, threads, &WorkerCache::new(), |_| true, |_| {});
            assert!(outcome.error.is_some());
            assert!(
                (1..=threads).contains(&outcome.executed),
                "{threads} threads executed {}",
                outcome.executed
            );
        }
    }

    #[test]
    fn dead_sink_poisons_the_grid() {
        // A sink that refuses results (e.g. the output stream died) must
        // stop the sweep instead of running the whole grid for nothing.
        let mut spec = small_grid();
        spec.loads = (0..1000).map(|seed| LoadSpec::random_paper_levels(seed, 20)).collect();
        let scenarios = spec.expand();
        for threads in [1, 4] {
            // The calling thread runs its first range, offers its first
            // result, and poisons the grid on the refusal before claiming
            // again; helpers held back until the poison claim nothing.
            let mut offered = 0;
            let sink = |_| {
                offered += 1;
                false
            };
            let outcome =
                run_claimed(&scenarios, threads, &WorkerCache::new(), sink, until_poisoned);
            assert!(outcome.error.is_none());
            assert_eq!(offered, 1, "{threads} threads: the sink hears nothing after refusing");
            let first_claim = claim_size(scenarios.len(), threads);
            assert_eq!(outcome.executed, first_claim, "{threads} threads: only the first range");
            // Free helpers may finish ranges in flight, but the refusing
            // sink is never offered another result.
            let mut offered = 0;
            let sink = |_| {
                offered += 1;
                false
            };
            let outcome = run_claimed(&scenarios, threads, &WorkerCache::new(), sink, |_| {});
            assert!(outcome.error.is_none());
            assert_eq!(offered, 1, "{threads} threads: the sink hears nothing after refusing");
            assert!(outcome.executed >= first_claim);
        }
    }

    #[test]
    fn first_error_in_grid_order_is_reported() {
        // A good fleet, then two bad batteries with distinct capacities:
        // whichever worker hits an error first, the reported one must be the
        // first in grid order (capacity -5, not -7). 54 cells: several
        // claims, so every thread count past one spawns helpers, and the
        // failing cells lie past the calling thread's first range.
        let mut spec = multi_claim_grid();
        spec.battery_counts = vec![2];
        spec.batteries = vec![
            BatterySpec::b1(),
            BatterySpec { name: "bad-a".into(), capacity: -5.0, c: 0.2, k_prime: 0.1 },
            BatterySpec { name: "bad-b".into(), capacity: -7.0, c: 0.2, k_prime: 0.1 },
        ];
        assert_eq!(spec.scenario_count(), 54);
        for threads in 1..=4 {
            let error = GridRun::new(&spec).threads(threads).collect().unwrap_err();
            assert!(error.to_string().contains("-5"), "{threads} threads, got: {error}");
        }
    }
}
