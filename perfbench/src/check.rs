//! The output check: every answer the benchmark times is compared against an
//! independent in-process run of the engine's scalar reference path
//! (`engine::run_scenario`, or its cache-reusing form for long request
//! lists). Lifetime, residual charge (bit for bit), switches and decisions
//! must match.

use engine::json::JsonValue;
use engine::{run_scenario_with_cache, Scenario, ScenarioResult, WorkerCache};

/// The result fields an answer must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    lifetime_bits: Option<u64>,
    residual_bits: u64,
    switches: u64,
    decisions: u64,
}

impl Row {
    pub fn of(result: &ScenarioResult) -> Self {
        Self {
            lifetime_bits: result.lifetime_minutes.map(f64::to_bits),
            residual_bits: result.residual_charge.to_bits(),
            switches: result.switches,
            decisions: result.decisions,
        }
    }

    /// Reads the row out of a result object as `served` renders it.
    pub fn from_json(result: &JsonValue) -> Result<Self, String> {
        let number = |key: &str| {
            result.get(key).and_then(JsonValue::as_f64).ok_or_else(|| format!("result lacks {key}"))
        };
        let count = |key: &str| {
            result.get(key).and_then(JsonValue::as_u64).ok_or_else(|| format!("result lacks {key}"))
        };
        let lifetime_bits = match result.get("lifetime_minutes") {
            Some(JsonValue::Null) => None,
            Some(value) => {
                Some(value.as_f64().ok_or("lifetime_minutes is not a number")?.to_bits())
            }
            None => return Err("result lacks lifetime_minutes".into()),
        };
        Ok(Self {
            lifetime_bits,
            residual_bits: number("residual_charge")?.to_bits(),
            switches: count("switches")?,
            decisions: count("decisions")?,
        })
    }

    /// Lifetime in minutes, if the fleet ran empty before the load ended.
    pub fn lifetime_minutes(&self) -> Option<f64> {
        self.lifetime_bits.map(f64::from_bits)
    }
}

/// Compares an answered row with the reference row.
pub fn compare(expected: &Row, got: &Row) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("answer {got:?} differs from the reference {expected:?}"))
    }
}

/// One parsed response line.
#[derive(Debug, Clone)]
pub struct Answer {
    pub id: Option<u64>,
    /// The row, or the error code the server answered with.
    pub outcome: Result<Row, String>,
    pub latency_micros: Option<u64>,
    pub wall_micros: Option<u64>,
    /// Root-bound probe time and nodes explored, for optimal answers.
    pub bound_micros: Option<u64>,
    pub nodes_explored: Option<u64>,
}

/// Parses one `served` response line.
pub fn parse_answer(line: &str) -> Result<Answer, String> {
    let value = JsonValue::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    let id = value.get("id").and_then(JsonValue::as_u64);
    let latency_micros = value.get("latency_micros").and_then(JsonValue::as_u64);
    match value.get("status").and_then(JsonValue::as_str) {
        Some("ok") => {
            let result = value.get("result").ok_or("ok response without a result")?;
            let field = |key: &str| result.get(key).and_then(JsonValue::as_u64);
            Ok(Answer {
                id,
                outcome: Ok(Row::from_json(result)?),
                latency_micros,
                wall_micros: field("wall_micros"),
                bound_micros: field("bound_micros"),
                nodes_explored: field("nodes_explored"),
            })
        }
        Some("error") => {
            let code = value.get("code").and_then(JsonValue::as_str).unwrap_or("unknown");
            Ok(Answer {
                id,
                outcome: Err(code.to_owned()),
                latency_micros,
                wall_micros: None,
                bound_micros: None,
                nodes_explored: None,
            })
        }
        _ => Err(format!("response without a status: {line}")),
    }
}

/// Reference rows for `scenarios`, computed on `threads` threads with the
/// engine's scalar reference path (`run_scenario` with a reused cache, so
/// system tables are built once per thread rather than once per row).
pub fn reference_rows(scenarios: &[&Scenario], threads: usize) -> Vec<Result<Row, String>> {
    let threads = threads.clamp(1, scenarios.len().max(1));
    let per = scenarios.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = scenarios
            .chunks(per)
            .map(|part| {
                scope.spawn(move || {
                    let mut cache = WorkerCache::new();
                    part.iter()
                        .map(|scenario| {
                            run_scenario_with_cache(scenario, &mut cache)
                                .map(|result| Row::of(&result))
                                .map_err(|e| e.to_string())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("a reference thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use engine::{run_scenario, Response};

    fn served_line(result: &ScenarioResult) -> String {
        let mut response = Response::ok(JsonValue::Number(3.0), result.clone());
        response.latency_micros = Some(17);
        response.to_json_value().render().unwrap()
    }

    fn sample_result() -> ScenarioResult {
        let mut rng = gen::rng(1, gen::Stream::Interactive);
        run_scenario(&gen::interactive(&mut rng)).unwrap()
    }

    #[test]
    fn an_honest_answer_passes() {
        let result = sample_result();
        let answer = parse_answer(&served_line(&result)).unwrap();
        assert_eq!(answer.id, Some(3));
        assert_eq!(answer.latency_micros, Some(17));
        assert_eq!(answer.wall_micros, Some(result.wall_micros));
        compare(&Row::of(&result), &answer.outcome.unwrap()).unwrap();
    }

    #[test]
    fn the_checker_rejects_a_corrupted_row() {
        let result = sample_result();
        let reference = Row::of(&result);

        let mut off_by_an_ulp = result.clone();
        off_by_an_ulp.residual_charge = f64::from_bits(result.residual_charge.to_bits() + 1);
        let answer = parse_answer(&served_line(&off_by_an_ulp)).unwrap();
        assert!(compare(&reference, &answer.outcome.unwrap()).is_err());

        let mut extra_switch = result.clone();
        extra_switch.switches += 1;
        let answer = parse_answer(&served_line(&extra_switch)).unwrap();
        assert!(compare(&reference, &answer.outcome.unwrap()).is_err());

        let mut lost_decision = result.clone();
        lost_decision.decisions -= 1;
        let answer = parse_answer(&served_line(&lost_decision)).unwrap();
        assert!(compare(&reference, &answer.outcome.unwrap()).is_err());

        let mut other_lifetime = result.clone();
        other_lifetime.lifetime_minutes =
            Some(other_lifetime.lifetime_minutes.unwrap_or(1.0) + 0.01);
        let answer = parse_answer(&served_line(&other_lifetime)).unwrap();
        assert!(compare(&reference, &answer.outcome.unwrap()).is_err());
    }

    #[test]
    fn error_answers_and_garbage_are_not_rows() {
        let answer = parse_answer(
            "{\"id\":4,\"status\":\"error\",\"code\":\"overloaded\",\"message\":\"full\"}",
        )
        .unwrap();
        assert_eq!(answer.outcome, Err("overloaded".to_owned()));
        assert!(parse_answer("{\"id\":4}").is_err());
        assert!(parse_answer("not json").is_err());
    }

    #[test]
    fn reference_rows_match_the_fresh_reference_path() {
        let mut rng = gen::rng(2, gen::Stream::Interactive);
        let scenarios: Vec<Scenario> = (0..12).map(|_| gen::interactive(&mut rng)).collect();
        let refs: Vec<&Scenario> = scenarios.iter().collect();
        for (scenario, row) in scenarios.iter().zip(reference_rows(&refs, 2)) {
            assert_eq!(row.unwrap(), Row::of(&run_scenario(scenario).unwrap()));
        }
    }
}
