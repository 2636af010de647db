//! Integration: the solver service end to end — a mixed-class request
//! trace through the in-process client (accounting, deadline safety,
//! worker-count determinism) and a loopback TCP round-trip through the
//! line-delimited JSON protocol.

use rcr::codec::json::{self, JsonValue};
use rcr::qos::QosClass;
use rcr::serve::{
    wire, LanePolicy, Outcome, Payload, QueuePolicy, ReuseConfig, ScenarioSpec, Service,
    ServiceConfig, SolveRequest, SolverKind, TcpFrontend, Ticket,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A fixed 200-request trace across the three classes. Requests whose
/// `id % 10 == 7` carry an already-expired (zero) deadline; everything
/// else gets a generous one so outcomes are machine-independent.
fn trace() -> Vec<SolveRequest> {
    (0..200u64)
        .map(|id| {
            let class = QosClass::ALL[(id % 3) as usize];
            let deadline = if id % 10 == 7 {
                Duration::ZERO
            } else {
                Duration::from_secs(60)
            };
            SolveRequest {
                id,
                class,
                deadline,
                solver: SolverKind::Greedy,
                payload: Payload::Scenario(ScenarioSpec {
                    users: 3,
                    resource_blocks: 6,
                    seed: id * 13 + 1,
                }),
            }
        })
        .collect()
}

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        // Deep lanes so the 200-request burst is never rejected: this
        // test pins accounting, not backpressure (unit tests cover it).
        queue: QueuePolicy {
            urllc: LanePolicy {
                capacity: 512,
                max_batch: 1,
                max_age: Duration::ZERO,
            },
            embb: LanePolicy {
                capacity: 512,
                max_batch: 16,
                max_age: Duration::from_millis(1),
            },
            mmtc: LanePolicy {
                capacity: 512,
                max_batch: 32,
                max_age: Duration::from_millis(2),
            },
            ..QueuePolicy::default()
        },
        ..ServiceConfig::default()
    }
}

/// Runs the trace through an in-process client; returns
/// `(id, class, outcome-tag, solved owners, solved rate bits)` per
/// request, in id order.
fn run_trace(workers: usize) -> Vec<(u64, QosClass, &'static str, Vec<usize>, u64)> {
    run_trace_with(config(workers))
}

fn run_trace_with(config: ServiceConfig) -> Vec<(u64, QosClass, &'static str, Vec<usize>, u64)> {
    let service = Service::spawn(config).expect("valid policy");
    let client = service.client();
    let tickets: Vec<(u64, QosClass, Ticket)> = trace()
        .into_iter()
        .map(|r| (r.id, r.class, client.submit(r)))
        .collect();
    let mut rows: Vec<(u64, QosClass, &'static str, Vec<usize>, u64)> = tickets
        .into_iter()
        .map(|(id, class, ticket)| {
            let resp = ticket.wait().expect("every request gets a response");
            assert_eq!(resp.id, id);
            assert_eq!(resp.class, class);
            let (owners, bits) = match &resp.outcome {
                Outcome::Solved(s) => (
                    s.solution.owners.clone(),
                    s.solution.total_rate_bps.to_bits(),
                ),
                _ => (Vec::new(), 0),
            };
            (id, class, resp.outcome.tag(), owners, bits)
        })
        .collect();
    rows.sort_by_key(|r| r.0);
    let snapshot = service.shutdown();
    assert_eq!(
        snapshot.total_responses(),
        200,
        "every request accounted for exactly once"
    );
    rows
}

#[test]
fn duration_max_deadline_is_clamped_not_panicked() {
    // `now + Duration::MAX` overflows `Instant`; submit_with must clamp
    // the deadline to "effectively never" and still solve the request.
    let service = Service::spawn(config(1)).expect("valid policy");
    let client = service.client();
    let ticket = client.submit(SolveRequest {
        id: 1,
        class: QosClass::Embb,
        deadline: Duration::MAX,
        solver: SolverKind::Greedy,
        payload: Payload::Scenario(ScenarioSpec {
            users: 3,
            resource_blocks: 6,
            seed: 11,
        }),
    });
    let resp = ticket.wait().expect("a response arrives");
    assert_eq!(resp.outcome.tag(), "solved", "{:?}", resp.outcome);
    service.shutdown();
}

#[test]
fn mixed_trace_accounts_for_every_request() {
    let rows = run_trace(2);
    assert_eq!(rows.len(), 200);
    let mut solved = 0;
    let mut expired = 0;
    for (id, _, tag, _, _) in &rows {
        match *tag {
            "solved" => {
                assert_ne!(id % 10, 7, "request {id} was solved after its deadline");
                solved += 1;
            }
            // Zero-deadline requests must expire — and nothing may be
            // "solved after deadline": an expired-at-enqueue id can
            // never come back solved.
            "expired" => {
                assert_eq!(id % 10, 7, "request {id} expired unexpectedly");
                expired += 1;
            }
            other => panic!("request {id}: unexpected outcome {other}"),
        }
    }
    assert_eq!(expired, 20);
    assert_eq!(solved, 180);
}

#[test]
fn solved_responses_always_meet_their_deadline() {
    let service = Service::spawn(config(4)).expect("valid policy");
    let client = service.client();
    let deadline = Duration::from_secs(60);
    let tickets: Vec<Ticket> = trace()
        .into_iter()
        .filter(|r| r.deadline > Duration::ZERO)
        .map(|r| client.submit(r))
        .collect();
    for ticket in tickets {
        let resp = ticket.wait().unwrap();
        if matches!(resp.outcome, Outcome::Solved(_)) {
            assert!(
                resp.queue_time + resp.solve_time <= deadline,
                "solved response exceeded its deadline budget"
            );
        }
    }
    service.shutdown();
}

#[test]
fn fixed_trace_solver_outputs_bit_identical_across_worker_counts() {
    let serial = run_trace(1);
    let parallel = run_trace(4);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.2, b.2, "request {}: outcome differs", a.0);
        assert_eq!(a.3, b.3, "request {}: owners differ", a.0);
        assert_eq!(a.4, b.4, "request {}: rate bits differ", a.0);
    }
}

#[test]
fn reuse_cache_preserves_bit_identity_across_worker_counts() {
    // The exact-match reuse cache must be invisible to outputs: the
    // same fixed trace, serial and 4-way parallel, with the cache on,
    // produces responses bit-identical to the cache-off runs above.
    let with_reuse = |workers: usize| ServiceConfig {
        reuse: ReuseConfig {
            enabled: true,
            capacity: 128,
        },
        ..config(workers)
    };
    let baseline = run_trace(1);
    let serial = run_trace_with(with_reuse(1));
    let parallel = run_trace_with(with_reuse(4));
    for run in [&serial, &parallel] {
        assert_eq!(baseline.len(), run.len());
        for (a, b) in baseline.iter().zip(run.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.2, b.2, "request {}: outcome differs under reuse", a.0);
            assert_eq!(a.3, b.3, "request {}: owners differ under reuse", a.0);
            assert_eq!(a.4, b.4, "request {}: rate bits differ under reuse", a.0);
        }
    }
}

#[test]
fn loopback_tcp_round_trip() {
    let service = Service::spawn(config(2)).expect("valid policy");
    let frontend = TcpFrontend::bind("127.0.0.1:0", service.client()).expect("bind loopback");
    let addr = frontend.local_addr();

    let stream = TcpStream::connect(addr).expect("connect loopback");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    // Pipeline a small mixed trace, then read the responses back.
    let requests: Vec<SolveRequest> = trace().into_iter().take(30).collect();
    for request in &requests {
        let line = wire::encode_request(request).expect("encodable");
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();

    let mut seen = Vec::new();
    for _ in 0..requests.len() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response line");
        let resp = wire::parse_response(line.trim_end()).expect("parseable response");
        match (&resp.outcome, resp.id % 10 == 7) {
            (Outcome::Solved(s), false) => {
                assert!(!s.solution.owners.is_empty());
                assert!(s.solution.total_rate_bps > 0.0);
            }
            (Outcome::Expired(_), true) => {}
            (outcome, _) => panic!("request {}: unexpected {outcome:?}", resp.id),
        }
        seen.push(resp.id);
    }
    seen.sort_unstable();
    let expected: Vec<u64> = (0..30).collect();
    assert_eq!(seen, expected, "every pipelined request answered once");

    // The metrics op answers over the same connection.
    writer.write_all(b"{\"op\":\"metrics\"}\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let value = json::parse(line.trim_end()).expect("metrics is valid JSON");
    assert_eq!(
        value.get("outcome").and_then(JsonValue::as_str),
        Some("metrics")
    );
    // Per-class blocks carry the new lane high water + latency summary.
    let urllc = value
        .get("URLLC")
        .and_then(JsonValue::as_object)
        .expect("URLLC block");
    assert!(urllc.get_u64("solved").unwrap_or(0) > 0);
    assert!(urllc.get_u64("lane_depth_high_water").is_some());
    let lat = urllc
        .get("response_latency")
        .and_then(JsonValue::as_object)
        .expect("per-class latency block");
    assert_eq!(
        lat.get_u64("count"),
        Some(urllc.get_u64("solved").unwrap()),
        "URLLC latency samples == solved responses for this trace"
    );

    drop(writer);
    drop(reader);
    drop(frontend);
    let snapshot = service.shutdown();
    assert_eq!(snapshot.total_responses(), 30);
    assert!(snapshot.class(QosClass::Urllc).solved > 0);
}

#[test]
fn wire_rejects_malformed_lines_without_dropping_the_connection() {
    let service = Service::spawn(ServiceConfig::default()).expect("valid policy");
    let frontend = TcpFrontend::bind("127.0.0.1:0", service.client()).expect("bind loopback");
    let stream = TcpStream::connect(frontend.local_addr()).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    writer.write_all(b"this is not json\n").unwrap();
    writer
        .write_all(b"{\"id\":1,\"class\":\"URLLC\",\"deadline_us\":60000000}\n")
        .unwrap();
    writer.flush().unwrap();

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"error\""), "got {line:?}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    let resp = wire::parse_response(line.trim_end()).unwrap();
    assert_eq!(resp.id, 1);
    assert!(matches!(resp.outcome, Outcome::Solved(_)));
}

#[test]
fn megabyte_string_gets_its_error_reply_and_the_connection_keeps_serving() {
    // The reader has no line cap, so decoding must stay linear in the
    // line length: a quadratic string decoder pins this connection's
    // thread for tens of seconds on one 1 MiB line.
    let service = Service::spawn(ServiceConfig::default()).expect("valid policy");
    let frontend = TcpFrontend::bind("127.0.0.1:0", service.client()).expect("bind loopback");
    let stream = TcpStream::connect(frontend.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let request = |id: u64, extra: &str| {
        format!("{{\"id\":{id},\"class\":\"URLLC\",\"deadline_us\":60000000{extra}}}\n")
    };
    let long_seed = format!(",\"seed\":\"{}\"", "9".repeat(1 << 20));
    writer.write_all(request(1, &long_seed).as_bytes()).unwrap();
    writer.write_all(request(2, "").as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error reply in time");
    assert!(
        reply.contains("\"error\"") && reply.contains("seed"),
        "got {reply:?}"
    );
    reply.clear();
    reader.read_line(&mut reply).expect("next reply in time");
    let resp = wire::parse_response(reply.trim_end()).unwrap();
    assert_eq!(resp.id, 2);
    assert!(matches!(resp.outcome, Outcome::Solved(_)));
}

#[test]
fn wire_seeds_round_trip_exactly_or_are_refused() {
    let service = Service::spawn(config(1)).expect("valid policy");
    let client = service.client();
    let frontend = TcpFrontend::bind("127.0.0.1:0", service.client()).expect("bind loopback");
    let stream = TcpStream::connect(frontend.local_addr()).expect("connect loopback");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: &str| -> String {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read response line");
        reply
    };

    // Full 64-bit seeds reach the solver unchanged: the TCP answer is
    // bit-identical to the in-process one for the same spec, and differs
    // from the answer for a seed silently replaced by the request id.
    let solved = |resp: &rcr::serve::SolveResponse| match &resp.outcome {
        Outcome::Solved(s) => (
            s.solution.owners.clone(),
            s.solution.total_rate_bps.to_bits(),
        ),
        other => panic!("request {}: unexpected {other:?}", resp.id),
    };
    let request = |id: u64, seed: u64| SolveRequest {
        id,
        class: QosClass::Embb,
        deadline: Duration::from_secs(60),
        solver: SolverKind::Greedy,
        payload: Payload::Scenario(ScenarioSpec {
            users: 3,
            resource_blocks: 6,
            seed,
        }),
    };
    for (id, seed) in [(1, u64::MAX), (2, (1 << 53) + 1)] {
        let line = wire::encode_request(&request(id, seed)).expect("encodable");
        let over_tcp = wire::parse_response(exchange(&line).trim_end()).expect("response");
        assert_eq!(over_tcp.id, id);
        let in_process = client.submit(request(id, seed)).wait().expect("response");
        let by_id = client.submit(request(id, id)).wait().expect("response");
        assert_eq!(solved(&over_tcp), solved(&in_process), "seed {seed}");
        assert_ne!(solved(&over_tcp), solved(&by_id), "seed {seed}");
    }

    // A seed that is present but not an exact u64 is a malformed line,
    // and the connection keeps serving afterwards.
    for seed in ["18446744073709551615", "9007199254740993", "-4", "6.5"] {
        let line = format!(r#"{{"id":9,"class":"eMBB","deadline_us":60000000,"seed":{seed}}}"#);
        let reply = exchange(&line);
        assert!(
            reply.contains("\"outcome\":\"error\"") && reply.contains("seed"),
            "seed {seed}: {reply:?}"
        );
    }
    let reply = exchange(r#"{"id":9,"class":"eMBB","deadline_us":60000000,"seed":"6"}"#);
    let resp = wire::parse_response(reply.trim_end()).expect("response");
    assert!(matches!(resp.outcome, Outcome::Solved(_)), "{reply:?}");

    drop(writer);
    drop(reader);
    drop(frontend);
    service.shutdown();
}
