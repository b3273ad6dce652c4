//! The engine's first-class request API.
//!
//! Everything the engine can do is expressible as answering **requests**:
//! one [`Request`] is one grid cell (a fleet + discretization + load +
//! policy + backend), a grid is a batch of requests, and a long-running
//! service is an endless stream of them. This module is the single front
//! door over the runner:
//!
//! - [`GridRun`] is the options builder for grid runs — collected,
//!   streamed, sharded and shared-cache runs all route through one code
//!   path, and [`run_grid`](crate::run_grid) is its one-line default;
//! - [`Request`]/[`Response`] are the line-protocol units the `served`
//!   binary speaks: a request parses from one JSON object, and the response
//!   carries either the same result row the batch engine emits or a typed
//!   [`ServeError`];
//! - [`run_requests`] answers a batch of requests **independently** (one
//!   failing request does not poison its neighbors), preparing each
//!   distinct load once per batch exactly like a grid worker does for the
//!   ranges it claims.

use crate::json::JsonValue;
use crate::runner::{
    self, run_claimed, ScenarioResult, SharedSystemCache, StreamSummary, StreamingResultWriter,
    WorkerCache,
};
use crate::spec::{
    missing, BackendKind, BatterySpec, DiscSpec, FleetDef, LoadSpec, PolicyKind, Scenario,
    ScenarioSpec,
};
use crate::EngineError;
use std::io::Write;
use std::sync::Arc;
use workload::paper_loads::TestLoad;

/// An options builder for grid execution: worker count, shard and shared
/// cache, then [`collect`](GridRun::collect) or
/// [`stream`](GridRun::stream). [`run_grid`] is `GridRun::new(spec).collect()`.
///
/// [`run_grid`]: crate::run_grid
///
/// # Example
///
/// ```
/// use engine::{GridRun, ScenarioSpec};
///
/// # fn main() -> Result<(), engine::EngineError> {
/// let spec = ScenarioSpec::paper_table5();
/// let results = GridRun::new(&spec).threads(2).collect()?;
/// assert_eq!(results.len(), spec.scenario_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GridRun<'a> {
    spec: &'a ScenarioSpec,
    threads: Option<usize>,
    shard: Option<(usize, usize)>,
    cache: WorkerCache,
}

impl<'a> GridRun<'a> {
    /// Starts a run over `spec` with default options: one worker per
    /// available CPU, no shard restriction and a system cache private to
    /// the run.
    #[must_use]
    pub fn new(spec: &'a ScenarioSpec) -> Self {
        Self { spec, threads: None, shard: None, cache: WorkerCache::new() }
    }

    /// Sets the worker count: the calling thread works, plus `threads − 1`
    /// helper threads (`1` runs inline on the calling thread). Workers
    /// claim ranges of cells that shrink as the grid drains, so every
    /// worker stays busy until the last cell.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Restricts the run to one shard of the expanded grid: the contiguous
    /// index range `[index·len/count, (index+1)·len/count)`, so `count`
    /// processes partition a grid with no coordination.
    #[must_use]
    pub fn shard(mut self, index: usize, count: usize) -> Self {
        self.shard = Some((index, count));
        self
    }

    /// Attaches a process-wide system cache: workers look systems up in it
    /// instead of building recovery/service/RV step tables for this run
    /// alone (every cell reads the cached tables in place), so repeated runs
    /// over the same systems build tables exactly once per process.
    #[must_use]
    pub fn shared_cache(mut self, cache: Arc<SharedSystemCache>) -> Self {
        self.cache = WorkerCache::with_shared(cache);
        self
    }

    /// Expands the grid and slices the configured shard out of it.
    fn scenarios(&self) -> Result<Vec<Scenario>, EngineError> {
        let mut scenarios = self.spec.expand();
        if let Some((index, count)) = self.shard {
            if count == 0 || index >= count {
                return Err(EngineError::InvalidSpec(format!(
                    "shard {index}/{count} is out of range"
                )));
            }
            let len = scenarios.len() as u128;
            let at = |i: usize| usize::try_from(len * i as u128 / count as u128).unwrap_or(0);
            scenarios.truncate(at(index + 1));
            scenarios.drain(..at(index));
        }
        Ok(scenarios)
    }

    /// Runs `scenarios` on the configured workers, feeding `sink` in grid
    /// order; the error is the first scenario error in grid order.
    fn run(
        &self,
        scenarios: &[Scenario],
        sink: impl FnMut(ScenarioResult) -> bool,
    ) -> Result<(), EngineError> {
        let threads = self.threads.unwrap_or_else(runner::default_threads);
        run_claimed(scenarios, threads, &self.cache, sink, |_| {}).error.map_or(Ok(()), Err)
    }

    /// Runs the grid and returns the results in grid order.
    ///
    /// # Errors
    ///
    /// Returns the first scenario error encountered (in grid order), or
    /// [`EngineError::InvalidSpec`] for an out-of-range shard.
    pub fn collect(self) -> Result<Vec<ScenarioResult>, EngineError> {
        let scenarios = self.scenarios()?;
        let mut results = Vec::with_capacity(scenarios.len());
        self.run(&scenarios, |result| {
            results.push(result);
            true
        })?;
        Ok(results)
    }

    /// Runs the grid and streams results to `out` in grid order as they
    /// complete, in the [`crate::results_to_json`] document format.
    ///
    /// # Errors
    ///
    /// Returns the first scenario error in grid order (the stream then
    /// holds a truncated, unterminated document), [`EngineError::Io`] if
    /// writing fails, or [`EngineError::InvalidSpec`] for an out-of-range
    /// shard.
    pub fn stream<W: Write>(self, out: W) -> Result<StreamSummary, EngineError> {
        let scenarios = self.scenarios()?;
        let mut writer = StreamingResultWriter::new(out, self.spec)?;
        let mut io_error: Option<EngineError> = None;
        self.run(&scenarios, |result| match writer.push(&result) {
            Ok(()) => true,
            Err(error) => {
                // Returning `false` poisons the grid, so a dead output
                // stream aborts the sweep instead of running it out.
                io_error = Some(error);
                false
            }
        })?;
        if let Some(error) = io_error {
            return Err(error);
        }
        let written = writer.written();
        writer.finish()?;
        Ok(StreamSummary { written })
    }
}

/// The admission class of a request: which slice of the service's compute
/// budget it competes for. Interactive requests get small optimal-search
/// node budgets and fast answers; batch requests may carry deep searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequestClass {
    /// Latency-sensitive traffic (the default class).
    #[default]
    Interactive,
    /// Throughput traffic that tolerates deep optimal searches.
    Batch,
}

impl RequestClass {
    /// The stable name used in the request protocol.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Interactive => "interactive",
            RequestClass::Batch => "batch",
        }
    }

    /// Parses a class name.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] for unknown names.
    pub fn from_name(name: &str) -> Result<Self, EngineError> {
        match name {
            "interactive" => Ok(RequestClass::Interactive),
            "batch" => Ok(RequestClass::Batch),
            other => Err(EngineError::InvalidSpec(format!("unknown request class '{other}'"))),
        }
    }
}

/// The top-level request fields the protocol accepts; anything else is a
/// typo the parser rejects instead of silently ignoring.
const REQUEST_FIELDS: [&str; 9] =
    ["id", "class", "fleet", "battery", "count", "disc", "load", "policy", "backend"];

/// One scheduling request: ask "given this fleet, this load, this policy or
/// optimal budget — what lifetime, what schedule?". Exactly one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed verbatim in the response (any
    /// JSON value; `null` when absent).
    pub id: JsonValue,
    /// The admission class (defaults to interactive).
    pub class: RequestClass,
    /// The scenario to run.
    pub scenario: Scenario,
}

impl Request {
    /// Wraps a scenario as an interactive request with a `null` id.
    #[must_use]
    pub fn of_scenario(scenario: Scenario) -> Self {
        Self { id: JsonValue::Null, class: RequestClass::Interactive, scenario }
    }

    /// Parses a request from one JSON text line.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Json`] (with a byte offset) for malformed
    /// JSON and [`EngineError::InvalidSpec`] for well-formed JSON that is
    /// not a request.
    pub fn from_line(text: &str) -> Result<Self, EngineError> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// Parses a request from an already-parsed JSON document.
    ///
    /// The fleet is given either as a full `"fleet"` object (name +
    /// batteries) or with the `"battery"`/`"count"` sugar (`"B1"`, `"B2"`
    /// or a custom battery object). `"disc"` accepts the shorthand names
    /// `"paper"` and `"coarse"` and defaults to the paper grid; `"load"`
    /// accepts a paper-load name as a shorthand for the full load object;
    /// `"backend"` defaults to `"discretized"`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] for unknown fields, missing
    /// fields or invalid values.
    pub fn from_json_value(value: &JsonValue) -> Result<Self, EngineError> {
        let JsonValue::Object(fields) = value else {
            return Err(EngineError::InvalidSpec("a request must be a JSON object".into()));
        };
        for (key, _) in fields {
            if !REQUEST_FIELDS.contains(&key.as_str()) {
                return Err(EngineError::InvalidSpec(format!("unknown request field '{key}'")));
            }
        }
        let id = value.get("id").cloned().unwrap_or(JsonValue::Null);
        let class = match value.get("class") {
            None => RequestClass::Interactive,
            Some(class) => {
                RequestClass::from_name(class.as_str().ok_or_else(|| missing("class"))?)?
            }
        };
        let fleet = Self::fleet_from_json(value)?;
        let disc = match value.get("disc") {
            None => DiscSpec::paper(),
            Some(disc) => match disc.as_str() {
                Some("paper") => DiscSpec::paper(),
                Some("coarse") => DiscSpec::coarse(),
                Some(other) => {
                    return Err(EngineError::InvalidSpec(format!(
                        "unknown discretization '{other}' (use \"paper\", \"coarse\" or an object)"
                    )))
                }
                None => DiscSpec::from_json(disc)?,
            },
        };
        let load = match value.get("load") {
            None => return Err(missing("load")),
            // A bare string is the paper-load shorthand: "ILs 500", ...
            Some(load) => match load.as_str() {
                Some(name) => LoadSpec::Paper(
                    TestLoad::all().into_iter().find(|l| l.name() == name).ok_or_else(|| {
                        EngineError::InvalidSpec(format!("unknown paper load '{name}'"))
                    })?,
                ),
                None => LoadSpec::from_json(load)?,
            },
        };
        let policy = PolicyKind::from_json(value.get("policy").ok_or_else(|| missing("policy"))?)?;
        let backend = match value.get("backend") {
            None => BackendKind::Discretized,
            Some(backend) => {
                BackendKind::from_name(backend.as_str().ok_or_else(|| missing("backend"))?)?
            }
        };
        Ok(Self { id, class, scenario: Scenario { fleet, disc, load, policy, backend } })
    }

    /// Parses the fleet half of a request: `"fleet"` object or
    /// `"battery"`/`"count"` sugar, but not both.
    fn fleet_from_json(value: &JsonValue) -> Result<FleetDef, EngineError> {
        match (value.get("fleet"), value.get("battery")) {
            (Some(_), Some(_)) => {
                Err(EngineError::InvalidSpec("give either 'fleet' or 'battery', not both".into()))
            }
            (Some(fleet), None) => {
                if value.get("count").is_some() {
                    return Err(EngineError::InvalidSpec(
                        "'count' only applies to the 'battery' shorthand".into(),
                    ));
                }
                FleetDef::from_json(fleet)
            }
            (None, Some(battery)) => {
                let battery = match battery.as_str() {
                    Some("B1") => BatterySpec::b1(),
                    Some("B2") => BatterySpec::b2(),
                    Some(other) => {
                        return Err(EngineError::InvalidSpec(format!(
                            "unknown battery '{other}' (use \"B1\", \"B2\" or an object)"
                        )))
                    }
                    None => BatterySpec::from_json(battery)?,
                };
                let count = match value.get("count") {
                    None => 1,
                    Some(count) => {
                        let count = count.as_u64().ok_or_else(|| missing("count"))?;
                        usize::try_from(count).unwrap_or(usize::MAX)
                    }
                };
                if count == 0 {
                    return Err(EngineError::InvalidSpec("'count' must be at least 1".into()));
                }
                Ok(FleetDef::uniform(battery, count))
            }
            (None, None) => {
                Err(EngineError::InvalidSpec("a request needs a 'fleet' or a 'battery'".into()))
            }
        }
    }

    /// The request in canonical JSON form (full fleet object, explicit
    /// class/disc/backend) — what [`Request::from_json_value`] parses back.
    #[must_use]
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("id", self.id.clone()),
            ("class", JsonValue::String(self.class.name().to_owned())),
            ("fleet", self.scenario.fleet.to_json()),
            ("disc", self.scenario.disc.to_json()),
            ("load", self.scenario.load.to_json()),
            ("policy", self.scenario.policy.to_json()),
            ("backend", JsonValue::String(self.scenario.backend.name().to_owned())),
        ])
    }
}

/// A machine-readable failure category of the request protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line is not valid JSON (the message carries the byte
    /// offset of the first error in the line).
    Parse,
    /// The request line exceeds the connection's line-length limit.
    Oversized,
    /// Well-formed JSON that is not a valid request, or a scenario that
    /// fails validation (bad battery parameters, unknown load, ...).
    BadRequest,
    /// The request asked for more search budget than its class admits.
    Admission,
    /// The server's request queue is full (or shutting down); retry later.
    Overloaded,
    /// An optimal search ran out of its node budget before proving
    /// optimality.
    Budget,
    /// An internal failure (e.g. an I/O error inside the engine).
    Internal,
}

impl ErrorCode {
    /// The stable name used in error responses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Admission => "admission",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Budget => "budget",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A typed protocol error: the code, a human-readable message and — for
/// parse errors — the byte offset of the failure within the request line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// The failure category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Byte offset of the failure within the request line, for
    /// [`ErrorCode::Parse`] errors.
    pub offset: Option<usize>,
}

impl ServeError {
    /// Builds a protocol error with no byte offset.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self { code, message: message.into(), offset: None }
    }

    /// Classifies an engine error into a protocol error, keeping the byte
    /// offset of JSON parse errors.
    #[must_use]
    pub fn from_engine(error: &EngineError) -> Self {
        match error {
            EngineError::Json(e) => {
                Self { code: ErrorCode::Parse, message: error.to_string(), offset: Some(e.offset) }
            }
            EngineError::Sched(battery_sched::SchedError::SearchBudgetExceeded { .. }) => {
                Self::new(ErrorCode::Budget, error.to_string())
            }
            EngineError::InvalidSpec(_)
            | EngineError::Kibam(_)
            | EngineError::Workload(_)
            | EngineError::Sched(_) => Self::new(ErrorCode::BadRequest, error.to_string()),
            EngineError::Io(_) => Self::new(ErrorCode::Internal, error.to_string()),
        }
    }
}

/// The answer to one [`Request`]: the same result row the batch engine
/// emits, or a typed error — plus the service-side latency once the server
/// stamps it.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id, echoed verbatim.
    pub id: JsonValue,
    /// The result row, or the error that replaced it.
    pub outcome: Result<ScenarioResult, ServeError>,
    /// Queue-to-answer latency in microseconds, stamped by the server
    /// (measurement-only; `None` outside a serving context).
    pub latency_micros: Option<u64>,
}

impl Response {
    /// A successful response.
    #[must_use]
    pub fn ok(id: JsonValue, result: ScenarioResult) -> Self {
        Self { id, outcome: Ok(result), latency_micros: None }
    }

    /// An error response.
    #[must_use]
    pub fn failure(id: JsonValue, error: ServeError) -> Self {
        Self { id, outcome: Err(error), latency_micros: None }
    }

    /// Whether the response carries a result row.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// The response as a JSON document model:
    /// `{"id":…,"status":"ok","result":{…}}` or
    /// `{"id":…,"status":"error","code":…,"message":…[,"offset":…]}`,
    /// plus `latency_micros` when stamped.
    #[must_use]
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![("id", self.id.clone())];
        match &self.outcome {
            Ok(result) => {
                fields.push(("status", JsonValue::String("ok".to_owned())));
                fields.push(("result", result.to_json_value()));
            }
            Err(error) => {
                fields.push(("status", JsonValue::String("error".to_owned())));
                fields.push(("code", JsonValue::String(error.code.name().to_owned())));
                fields.push(("message", JsonValue::String(error.message.clone())));
                #[allow(clippy::cast_precision_loss)]
                if let Some(offset) = error.offset {
                    fields.push(("offset", JsonValue::Number(offset as f64)));
                }
            }
        }
        #[allow(clippy::cast_precision_loss)]
        if let Some(micros) = self.latency_micros {
            fields.push(("latency_micros", JsonValue::Number(micros as f64)));
        }
        JsonValue::object(fields)
    }
}

/// Answers a batch of requests against a worker cache, each request
/// **independently** — a failing request yields an error response instead
/// of poisoning the batch. Every request looks its system up once and runs
/// on a copy of the cached backend that reads the cached tables in place;
/// requests with an equal load share one load preparation, exactly like
/// the cells a grid worker runs. This is the micro-batching a serving loop
/// gets for free by draining its queue into one call.
#[must_use]
pub fn run_requests(requests: &[Request], cache: &WorkerCache) -> Vec<Response> {
    let scenarios: Vec<&Scenario> = requests.iter().map(|r| &r.scenario).collect();
    runner::run_cells(&scenarios, cache)
        .into_iter()
        .zip(requests)
        .map(|(outcome, request)| match outcome {
            Ok(result) => Response::ok(request.id.clone(), result),
            Err(error) => Response::failure(request.id.clone(), ServeError::from_engine(&error)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario;

    fn request_line(load: &str, policy: &str) -> String {
        format!(
            "{{\"id\":1,\"battery\":\"B1\",\"count\":2,\"load\":\"{load}\",\
             \"policy\":\"{policy}\"}}"
        )
    }

    #[test]
    fn request_parses_with_sugar_and_defaults() {
        let request = Request::from_line(&request_line("ILs 500", "round-robin")).unwrap();
        assert_eq!(request.id, JsonValue::Number(1.0));
        assert_eq!(request.class, RequestClass::Interactive);
        assert_eq!(request.scenario.fleet.name, "2xB1");
        assert_eq!(request.scenario.disc, DiscSpec::paper());
        assert_eq!(request.scenario.load.name(), "ILs 500");
        assert_eq!(request.scenario.policy, PolicyKind::RoundRobin);
        assert_eq!(request.scenario.backend, BackendKind::Discretized);
    }

    #[test]
    fn request_round_trips_through_canonical_json() {
        let line = "{\"id\":\"r-1\",\"class\":\"batch\",\"battery\":\"B2\",\"count\":3,\
                    \"disc\":\"coarse\",\"load\":\"CL 250\",\
                    \"policy\":{\"kind\":\"optimal\",\"budget\":5000},\"backend\":\"rv\"}";
        let request = Request::from_line(line).unwrap();
        assert_eq!(request.class, RequestClass::Batch);
        assert_eq!(request.scenario.policy, PolicyKind::Optimal { budget: 5000 });
        assert_eq!(request.scenario.backend, BackendKind::Rv);
        let canonical = request.to_json_value();
        let back = Request::from_json_value(&canonical).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn request_rejects_unknown_fields_and_bad_shapes() {
        let unknown = "{\"battery\":\"B1\",\"load\":\"CL 500\",\"policy\":\"sequential\",\
                       \"budgett\":3}";
        let error = Request::from_line(unknown).unwrap_err();
        assert!(error.to_string().contains("budgett"), "{error}");

        let both = "{\"battery\":\"B1\",\"fleet\":{\"name\":\"x\",\"batteries\":[]},\
                    \"load\":\"CL 500\",\"policy\":\"sequential\"}";
        assert!(Request::from_line(both).is_err());

        let no_fleet = "{\"load\":\"CL 500\",\"policy\":\"sequential\"}";
        let error = Request::from_line(no_fleet).unwrap_err();
        assert!(error.to_string().contains("fleet"), "{error}");

        let zero_count =
            "{\"battery\":\"B1\",\"count\":0,\"load\":\"CL 500\",\"policy\":\"sequential\"}";
        assert!(Request::from_line(zero_count).is_err());

        let not_object = "[1,2,3]";
        assert!(Request::from_line(not_object).is_err());

        let bad_class = "{\"class\":\"vip\",\"battery\":\"B1\",\"load\":\"CL 500\",\
                         \"policy\":\"sequential\"}";
        assert!(Request::from_line(bad_class).is_err());
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        let error = Request::from_line("{\"battery\":}").unwrap_err();
        let serve = ServeError::from_engine(&error);
        assert_eq!(serve.code, ErrorCode::Parse);
        assert_eq!(serve.offset, Some(11));
    }

    #[test]
    fn run_requests_answers_each_request_independently() {
        let good = Request::from_line(&request_line("ILs 500", "round-robin")).unwrap();
        let bad = Request {
            id: JsonValue::String("bad".to_owned()),
            class: RequestClass::Interactive,
            scenario: Scenario {
                fleet: FleetDef::uniform(
                    BatterySpec { name: "bad".into(), capacity: -5.0, c: 0.2, k_prime: 0.1 },
                    2,
                ),
                disc: DiscSpec::paper(),
                load: LoadSpec::Paper(TestLoad::Cl500),
                policy: PolicyKind::RoundRobin,
                backend: BackendKind::Discretized,
            },
        };
        let good2 = Request::from_line(&request_line("CL 500", "best-of-two")).unwrap();
        let cache = WorkerCache::new();
        let responses = run_requests(&[good.clone(), bad, good2.clone()], &cache);
        assert_eq!(responses.len(), 3);
        assert!(responses[0].is_ok(), "a bad sibling must not poison request 0");
        assert!(responses[2].is_ok(), "a bad sibling must not poison request 2");
        let error = responses[1].outcome.as_ref().unwrap_err();
        assert_eq!(error.code, ErrorCode::BadRequest);

        // Bit-identical to the one-off scalar path.
        let reference = run_scenario(&good.scenario).unwrap();
        let served = responses[0].outcome.as_ref().unwrap();
        assert_eq!(served.lifetime_minutes, reference.lifetime_minutes);
        assert_eq!(served.residual_charge.to_bits(), reference.residual_charge.to_bits());
        assert_eq!(served.switches, reference.switches);
    }

    #[test]
    fn budget_exhaustion_is_a_typed_budget_error() {
        let line = "{\"battery\":\"B1\",\"count\":2,\"disc\":\"coarse\",\"load\":\"ILs alt\",\
                    \"policy\":{\"kind\":\"optimal\",\"budget\":1}}";
        let request = Request::from_line(line).unwrap();
        let cache = WorkerCache::new();
        let responses = run_requests(&[request], &cache);
        let error = responses[0].outcome.as_ref().unwrap_err();
        assert_eq!(error.code, ErrorCode::Budget);
    }

    #[test]
    fn response_json_carries_result_or_typed_error() {
        let request = Request::from_line(&request_line("ILs 500", "round-robin")).unwrap();
        let cache = WorkerCache::new();
        let mut responses = run_requests(&[request], &cache);
        let mut response = responses.remove(0);
        response.latency_micros = Some(42);
        let json = response.to_json_value().render().unwrap();
        assert!(json.contains("\"status\":\"ok\""));
        assert!(json.contains("\"lifetime_minutes\""));
        assert!(json.contains("\"latency_micros\":42"));

        let error = Response::failure(
            JsonValue::Number(7.0),
            ServeError { code: ErrorCode::Parse, message: "bad".into(), offset: Some(3) },
        );
        let json = error.to_json_value().render().unwrap();
        assert!(json.contains("\"status\":\"error\""));
        assert!(json.contains("\"code\":\"parse\""));
        assert!(json.contains("\"offset\":3"));
    }

    #[test]
    fn shared_cache_builds_each_system_once_across_workers() {
        let request = Request::from_line(&request_line("ILs 500", "round-robin")).unwrap();
        let shared = Arc::new(SharedSystemCache::new());
        let first = WorkerCache::with_shared(Arc::clone(&shared));
        let second = WorkerCache::with_shared(Arc::clone(&shared));
        let a = run_requests(std::slice::from_ref(&request), &first);
        let b = run_requests(std::slice::from_ref(&request), &second);
        let stats = shared.stats();
        assert_eq!(stats.builds, 1, "tables are built once per process, not once per worker");
        assert_eq!(stats.hits, 1, "the second worker's lookup is a shared hit");
        assert_eq!(stats.systems, 1);
        let (a, b) = (a[0].outcome.as_ref().unwrap(), b[0].outcome.as_ref().unwrap());
        assert_eq!(a.lifetime_minutes, b.lifetime_minutes);
        assert_eq!(a.residual_charge.to_bits(), b.residual_charge.to_bits());
    }

    #[test]
    fn grid_run_with_shared_cache_matches_plain_grid() {
        let spec = ScenarioSpec::paper_table5();
        let plain = GridRun::new(&spec).threads(2).collect().unwrap();
        let shared = Arc::new(SharedSystemCache::new());
        let cached =
            GridRun::new(&spec).threads(2).shared_cache(Arc::clone(&shared)).collect().unwrap();
        assert_eq!(plain.len(), cached.len());
        for (a, b) in plain.iter().zip(&cached) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.lifetime_minutes, b.lifetime_minutes);
            assert_eq!(a.residual_charge.to_bits(), b.residual_charge.to_bits());
        }
        let stats = shared.stats();
        assert_eq!(stats.builds, 1, "one system in the paper grid");
        // A second run over the same spec reuses the cached prototype.
        let again =
            GridRun::new(&spec).threads(2).shared_cache(Arc::clone(&shared)).collect().unwrap();
        assert_eq!(again.len(), plain.len());
        assert_eq!(shared.stats().builds, 1);
        assert!(shared.stats().hits > stats.hits);
    }
}
