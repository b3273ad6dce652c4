//! Protocol robustness for the serving loop.
//!
//! A connection is a hostile place: lines can be malformed, oversized,
//! duplicated-key JSON, or valid JSON that is not a request. Every such
//! line must get exactly one error response — with the parser's byte
//! offset where one exists — and the server must keep answering the lines
//! after it. Concurrent clients must each get their own responses, in
//! their own request order, bit-identical to the batch engine — over
//! in-memory streams and over real loopback sockets.

use engine::json::JsonValue;
use engine::{
    run_grid, BackendKind, BatterySpec, DiscSpec, FleetDef, LoadSpec, PolicyKind, Scenario,
    ScenarioResult, ScenarioSpec,
};
use served::{split_connection, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use workload::paper_loads::TestLoad;

/// Drives one in-memory connection and returns the response lines.
fn converse(server: &Server, input: &str) -> Vec<JsonValue> {
    let mut output = Vec::new();
    server.serve_connection(input.as_bytes(), &mut output).expect("in-memory I/O cannot fail");
    let text = String::from_utf8(output).expect("responses are UTF-8");
    text.lines().map(|line| JsonValue::parse(line).expect("every response line parses")).collect()
}

fn status(response: &JsonValue) -> &str {
    response.get("status").and_then(JsonValue::as_str).expect("responses carry a status")
}

fn code(response: &JsonValue) -> &str {
    response.get("code").and_then(JsonValue::as_str).expect("error responses carry a code")
}

fn offset(response: &JsonValue) -> Option<u64> {
    response.get("offset").and_then(JsonValue::as_u64)
}

#[test]
fn malformed_lines_get_offset_errors_and_do_not_kill_the_connection() {
    let server = Server::start(ServeConfig::default());
    // The json_malformed.rs corpus cases, interleaved with a valid request
    // that must still be answered after every piece of garbage.
    let valid = r#"{"battery":"B1","count":2,"load":"CL 500","policy":"round-robin"}"#;
    let garbage: [(&str, u64); 7] = [
        (r#"{"a": 1"#, 7),           // truncated object
        (r#"{"a":1,"a":2}"#, 7),     // duplicate key, reported at the second key
        ("\"\\x\"", 2),              // bad string escape
        ("1e999", 0),                // overflows the finite f64 range
        ("{} x", 3),                 // trailing garbage
        ("tru", 0),                  // truncated keyword
        (r#"{"steps": 1e999}"#, 10), // nested overflow
    ];
    let mut input = String::new();
    for (line, _) in &garbage {
        input.push_str(line);
        input.push('\n');
        input.push_str(valid);
        input.push('\n');
    }
    let responses = converse(&server, &input);
    assert_eq!(responses.len(), 2 * garbage.len());
    for (index, (line, expected_offset)) in garbage.iter().enumerate() {
        let error = &responses[2 * index];
        assert_eq!(status(error), "error", "for {line:?}");
        assert_eq!(code(error), "parse", "for {line:?}");
        assert_eq!(offset(error), Some(*expected_offset), "for {line:?}");
        let ok = &responses[2 * index + 1];
        assert_eq!(status(ok), "ok", "the valid request after {line:?} must still be answered");
    }
    server.shutdown();
}

#[test]
fn non_request_json_oversized_lines_and_admission_refusals_are_typed() {
    let config =
        ServeConfig { max_line_bytes: 256, interactive_budget: 1000, ..Default::default() };
    let server = Server::start(config);

    let valid = r#"{"battery":"B1","count":2,"load":"CL 500","policy":"round-robin"}"#;
    let not_a_request = r#"{"battery":"B1","load":"CL 500","policy":"round-robin","frob":1}"#;
    let oversized = format!("{{\"battery\":\"B1\",\"junk\":\"{}\"}}", "x".repeat(400));
    let over_budget = r#"{"id":9,"battery":"B1","count":2,"disc":"coarse","load":"CL 500","policy":{"kind":"optimal","budget":999999}}"#;
    let input = format!("{not_a_request}\n{oversized}\n{over_budget}\n{valid}\n");

    let responses = converse(&server, &input);
    assert_eq!(responses.len(), 4);
    assert_eq!(status(&responses[0]), "error");
    assert_eq!(code(&responses[0]), "bad_request");
    assert_eq!(status(&responses[1]), "error");
    assert_eq!(code(&responses[1]), "oversized");
    assert_eq!(status(&responses[2]), "error");
    assert_eq!(code(&responses[2]), "admission");
    // Admission errors echo the id the request carried.
    assert_eq!(responses[2].get("id").and_then(JsonValue::as_u64), Some(9));
    assert_eq!(status(&responses[3]), "ok");
    server.shutdown();
}

#[test]
fn budget_exhaustion_is_answered_not_fatal() {
    let server = Server::start(ServeConfig::default());
    let input = concat!(
        r#"{"class":"batch","battery":"B1","count":2,"disc":"coarse","load":"ILs alt","policy":{"kind":"optimal","budget":1}}"#,
        "\n",
        r#"{"battery":"B1","count":2,"load":"CL 500","policy":"round-robin"}"#,
        "\n",
    );
    let responses = converse(&server, input);
    assert_eq!(responses.len(), 2);
    assert_eq!(status(&responses[0]), "error");
    assert_eq!(code(&responses[0]), "budget");
    assert_eq!(status(&responses[1]), "ok");
    server.shutdown();
}

/// The loads and policies the concurrent-client tests request on 2 × B1.
const LOADS: [TestLoad; 4] = [TestLoad::Cl500, TestLoad::Ils500, TestLoad::IlsAlt, TestLoad::Cl250];
const POLICIES: [PolicyKind; 3] =
    [PolicyKind::Sequential, PolicyKind::RoundRobin, PolicyKind::BestOfTwo];
const CLIENTS: usize = 4;

/// The reference: a batch grid over loads × policies on 2 × B1.
fn reference_grid() -> Vec<ScenarioResult> {
    let spec = ScenarioSpec {
        batteries: vec![BatterySpec::b1()],
        battery_counts: vec![2],
        fleets: vec![],
        discretizations: vec![DiscSpec::paper()],
        loads: LOADS.iter().map(|l| LoadSpec::Paper(*l)).collect(),
        policies: POLICIES.to_vec(),
        backends: vec![BackendKind::Discretized],
    };
    run_grid(&spec).expect("the reference grid runs")
}

/// Client `client`'s request stream: one request per load, ids are the
/// line index, policies rotated per client.
fn client_input(client: usize) -> String {
    let mut input = String::new();
    for (index, load) in LOADS.iter().enumerate() {
        let policy = POLICIES[(index + client) % POLICIES.len()];
        input.push_str(&format!(
            "{{\"id\":{index},\"battery\":\"B1\",\"count\":2,\"load\":\"{}\",\
             \"policy\":\"{}\"}}\n",
            load.name(),
            policy.name(),
        ));
    }
    input
}

/// Checks that `text` answers [`client_input`] in request order with rows
/// bit-identical to the batch engine's.
fn check_client_answers(client: usize, text: &str, reference: &[ScenarioResult]) {
    let responses: Vec<JsonValue> =
        text.lines().map(|l| JsonValue::parse(l).expect("response parses")).collect();
    assert_eq!(responses.len(), LOADS.len());
    for (index, response) in responses.iter().enumerate() {
        // Responses come back in request order: ids are the line index.
        assert_eq!(
            response.get("id").and_then(JsonValue::as_u64),
            Some(index as u64),
            "client {client} got responses out of order"
        );
        assert_eq!(status(response), "ok");
        let scenario = Scenario {
            fleet: FleetDef::uniform(BatterySpec::b1(), 2),
            disc: DiscSpec::paper(),
            load: LoadSpec::Paper(LOADS[index]),
            policy: POLICIES[(index + client) % POLICIES.len()],
            backend: BackendKind::Discretized,
        };
        let expected = reference
            .iter()
            .find(|r| r.scenario == scenario)
            .expect("every served cell exists in the reference grid");
        let result = response.get("result").expect("ok responses carry a result row");
        // Bit-identical: compare the exact JSON number encodings of the
        // result row against the batch engine's rendering.
        let expected_json = expected.to_json_value();
        for field in ["lifetime_minutes", "residual_charge", "switches", "decisions"] {
            assert_eq!(
                result.get(field).map(|v| v.render().unwrap()),
                expected_json.get(field).map(|v| v.render().unwrap()),
                "client {client} request {index}: field {field} diverges from the batch engine"
            );
        }
    }
}

#[test]
fn concurrent_clients_get_their_own_answers_bit_identical_to_the_batch_engine() {
    let reference = reference_grid();
    let server = Arc::new(Server::start(ServeConfig::default()));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut output = Vec::new();
                server
                    .serve_connection(client_input(client).as_bytes(), &mut output)
                    .expect("in-memory I/O cannot fail");
                String::from_utf8(output).expect("responses are UTF-8")
            })
        })
        .collect();
    for (client, handle) in clients.into_iter().enumerate() {
        let text = handle.join().expect("client threads do not panic");
        check_client_answers(client, &text, &reference);
    }
    server.shutdown();
}

#[test]
fn accepted_streams_send_without_delay() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port is free");
    let client = TcpStream::connect(listener.local_addr().unwrap()).expect("loopback connects");
    let (accepted, _) = listener.accept().expect("the connection is accepted");
    let (reader, writer) = split_connection(accepted).expect("the socket handle clones");
    assert!(writer.nodelay().unwrap(), "the writer half must set TCP_NODELAY");
    assert!(reader.get_ref().nodelay().unwrap(), "both halves share the socket option");
    drop(client);
}

#[test]
fn concurrent_tcp_clients_get_their_own_answers_bit_identical_to_the_batch_engine() {
    let reference = reference_grid();
    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port is free");
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::start(ServeConfig::default()));
    let listening = Arc::clone(&server);
    // The accept loop runs for the rest of the test process.
    std::thread::spawn(move || listening.serve_listener(&listener));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("loopback connects");
                stream.write_all(client_input(client).as_bytes()).expect("requests are sent");
                // End of requests: the server answers them all, then closes.
                stream.shutdown(Shutdown::Write).expect("the write half closes");
                let mut text = String::new();
                stream.read_to_string(&mut text).expect("answers are UTF-8");
                text
            })
        })
        .collect();
    for (client, handle) in clients.into_iter().enumerate() {
        let text = handle.join().expect("client threads do not panic");
        check_client_answers(client, &text, &reference);
    }
    server.shutdown();
}

#[test]
fn a_line_nested_to_the_line_limit_gets_a_parse_error_over_tcp_and_serving_continues() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port is free");
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig::default();
    // As deep as a line under the length limit can nest.
    let depth = (config.max_line_bytes - 2) / 2;
    let server = Arc::new(Server::start(config));
    let listening = Arc::clone(&server);
    // The accept loop runs for the rest of the test process.
    std::thread::spawn(move || listening.serve_listener(&listener));

    let valid = r#"{"battery":"B1","count":2,"load":"CL 500","policy":"round-robin"}"#;
    let converse_tcp = |input: String| {
        let mut stream = TcpStream::connect(addr).expect("loopback connects");
        stream.write_all(input.as_bytes()).expect("requests are sent");
        stream.shutdown(Shutdown::Write).expect("the write half closes");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("answers are UTF-8");
        text.lines().map(|line| JsonValue::parse(line).expect("answers parse")).collect::<Vec<_>>()
    };
    let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let responses = converse_tcp(format!("{deep}\n{valid}\n"));
    assert_eq!(responses.len(), 2);
    assert_eq!(code(&responses[0]), "parse");
    assert_eq!(offset(&responses[0]), Some(engine::json::MAX_DEPTH as u64));
    assert_eq!(status(&responses[1]), "ok", "the same connection keeps answering");

    // The process survived: a new connection is served too.
    let responses = converse_tcp(format!("{valid}\n"));
    assert_eq!(status(&responses[0]), "ok");
    server.shutdown();
}
