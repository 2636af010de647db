//! Line-delimited JSON protocol over TCP (`std::net`, hand-rolled codec
//! like the rest of the workspace — no serde).
//!
//! One request per line, one response per line, answered in request
//! order per connection; responses echo the request `id` so callers can
//! correlate. The codec ([`encode_request`], [`parse_request`],
//! [`encode_response`], [`parse_response`]) is public so clients, tests,
//! and the example share one implementation.
//!
//! ```text
//! → {"id":1,"class":"URLLC","deadline_us":5000,"users":3,"rbs":6,"seed":42,"solver":"greedy"}
//! ← {"id":1,"class":"URLLC","outcome":"solved","owners":[0,2,1,0,2,1],
//!    "total_rate_bps":12345678.9,"spectral_efficiency":11.4,"qos_satisfied":true,
//!    "queue_us":12,"solve_us":345,"batch_size":1}
//! → {"op":"metrics"}
//! ← {"outcome":"metrics", ...per-class counters and latency summaries...}
//! ```
//!
//! `seed` defaults to the request `id` when absent. It is a JSON number
//! below 2^53 or, for any `u64`, a decimal string (`"seed":"18446744073709551615"`);
//! [`encode_request`] writes seeds from 2^53 up as strings. A `seed` that
//! is present but neither is a malformed request, never a substitution.
//!
//! Floats are emitted with Rust's shortest-round-trip formatting, so a
//! rate crossing the wire parses back to the identical `f64` bits —
//! which is what lets the loopback integration test assert bit-equal
//! solver outputs through the protocol.

use crate::request::{
    DeadlineMissed, ExpiryPhase, Outcome, Payload, RejectReason, ScenarioSpec, SolveRequest,
    SolveResponse, Solved, SolverKind,
};
use crate::service::Client;
use crate::MetricsSnapshot;
use rcr_codec::json::{self, JsonValue};
use rcr_qos::QosClass;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Encodes a request as one JSON line (no trailing newline).
///
/// Only [`Payload::Scenario`] requests are wire-encodable; a
/// [`Payload::Problem`] carries a full channel matrix and stays
/// in-process.
pub fn encode_request(request: &SolveRequest) -> Result<String, String> {
    let Payload::Scenario(spec) = &request.payload else {
        return Err("only scenario payloads are wire-encodable".into());
    };
    // A JSON number is an f64, exact only below 2^53; larger seeds
    // travel as decimal strings so every u64 round-trips.
    let seed = if spec.seed < 1 << 53 {
        spec.seed.to_string()
    } else {
        json::encode_str(&spec.seed.to_string())
    };
    Ok(format!(
        "{{\"id\":{},\"class\":{},\"deadline_us\":{},\"users\":{},\"rbs\":{},\"seed\":{},\"solver\":{}}}",
        request.id,
        json::encode_str(request.class.name()),
        request.deadline.as_micros(),
        spec.users,
        spec.resource_blocks,
        seed,
        json::encode_str(request.solver.name()),
    ))
}

/// What one parsed inbound line asks for.
#[derive(Debug)]
pub enum WireCommand {
    /// Solve a request.
    Solve(SolveRequest),
    /// Return a metrics snapshot.
    Metrics,
}

/// Parses one inbound line into a [`WireCommand`].
///
/// # Errors
/// A human-readable message describing the malformed field.
pub fn parse_request(line: &str) -> Result<WireCommand, String> {
    let value = json::parse(line)?;
    let obj = value.as_object().ok_or("request is not a JSON object")?;
    if let Some(op) = obj.get("op").and_then(JsonValue::as_str) {
        return match op {
            "metrics" => Ok(WireCommand::Metrics),
            other => Err(format!("unknown op {other:?}")),
        };
    }
    let id = obj.get_u64("id").ok_or("missing or non-integer \"id\"")?;
    let class_name = obj
        .get("class")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"class\"")?;
    let class =
        QosClass::from_name(class_name).ok_or_else(|| format!("unknown class {class_name:?}"))?;
    let deadline_us = obj
        .get_u64("deadline_us")
        .ok_or("missing or non-integer \"deadline_us\"")?;
    let solver = match obj.get("solver").and_then(JsonValue::as_str) {
        None => SolverKind::Greedy,
        Some(name) => {
            SolverKind::from_name(name).ok_or_else(|| format!("unknown solver {name:?}"))?
        }
    };
    let users = obj.get_u64("users").unwrap_or(3) as usize;
    let resource_blocks = obj.get_u64("rbs").unwrap_or(6) as usize;
    let seed = match obj.get("seed") {
        None => Some(id),
        Some(JsonValue::String(text)) => text.parse().ok(),
        Some(_) => obj.get_u64("seed"),
    }
    .ok_or("\"seed\" must be an integer below 2^53 or a decimal u64 string")?;
    Ok(WireCommand::Solve(SolveRequest {
        id,
        class,
        deadline: Duration::from_micros(deadline_us),
        solver,
        payload: Payload::Scenario(ScenarioSpec {
            users,
            resource_blocks,
            seed,
        }),
    }))
}

/// Encodes a response as one JSON line (no trailing newline).
pub fn encode_response(response: &SolveResponse) -> String {
    let mut out = format!(
        "{{\"id\":{},\"class\":{},\"outcome\":{}",
        response.id,
        json::encode_str(response.class.name()),
        json::encode_str(response.outcome.tag()),
    );
    match &response.outcome {
        Outcome::Solved(s) => {
            out.push_str(",\"owners\":[");
            for (i, o) in s.solution.owners.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&o.to_string());
            }
            out.push_str(&format!(
                "],\"total_rate_bps\":{},\"spectral_efficiency\":{},\"qos_satisfied\":{},\"batch_size\":{}",
                json::encode_f64(s.solution.total_rate_bps),
                json::encode_f64(s.solution.spectral_efficiency),
                s.solution.qos_satisfied,
                s.batch_size,
            ));
        }
        Outcome::Rejected(RejectReason::QueueFull { depth, capacity }) => {
            out.push_str(&format!(
                ",\"reason\":\"queue_full\",\"depth\":{depth},\"capacity\":{capacity}"
            ));
        }
        Outcome::Rejected(RejectReason::ShuttingDown) => {
            out.push_str(",\"reason\":\"shutting_down\"");
        }
        Outcome::Expired(missed) => {
            let phase = match missed.phase {
                ExpiryPhase::AtEnqueue => "enqueue",
                ExpiryPhase::InQueue => "queue",
                ExpiryPhase::AfterSolve => "solve",
            };
            out.push_str(&format!(
                ",\"reason\":\"deadline_missed\",\"phase\":{},\"late_by_us\":{}",
                json::encode_str(phase),
                missed.late_by.as_micros(),
            ));
        }
        Outcome::Failed(message) => {
            out.push_str(&format!(",\"error\":{}", json::encode_str(message)));
        }
    }
    out.push_str(&format!(
        ",\"queue_us\":{},\"solve_us\":{}}}",
        response.queue_time.as_micros(),
        response.solve_time.as_micros(),
    ));
    out
}

/// Parses one response line back into a [`SolveResponse`].
///
/// The solved variant reconstructs owners, rates, and flags exactly
/// (floats round-trip bit-identically); the `power` breakdown is not
/// carried on the wire, so the embedded [`rcr_qos::rra::RraSolution`] has
/// an empty power allocation.
///
/// # Errors
/// A human-readable message describing the malformed field.
pub fn parse_response(line: &str) -> Result<SolveResponse, String> {
    let value = json::parse(line)?;
    let obj = value.as_object().ok_or("response is not a JSON object")?;
    let id = obj.get_u64("id").ok_or("missing \"id\"")?;
    let class_name = obj
        .get("class")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"class\"")?;
    let class =
        QosClass::from_name(class_name).ok_or_else(|| format!("unknown class {class_name:?}"))?;
    let tag = obj
        .get("outcome")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"outcome\"")?;
    let queue_time = Duration::from_micros(obj.get_u64("queue_us").unwrap_or(0));
    let solve_time = Duration::from_micros(obj.get_u64("solve_us").unwrap_or(0));
    let outcome = match tag {
        "solved" => {
            let owners = obj
                .get("owners")
                .and_then(JsonValue::as_array)
                .ok_or("solved response missing \"owners\"")?
                .iter()
                .map(|v| v.as_f64().map(|f| f as usize))
                .collect::<Option<Vec<usize>>>()
                .ok_or("non-numeric owner")?;
            let total_rate_bps = obj
                .get("total_rate_bps")
                .and_then(JsonValue::as_f64)
                .ok_or("missing \"total_rate_bps\"")?;
            let spectral_efficiency = obj
                .get("spectral_efficiency")
                .and_then(JsonValue::as_f64)
                .ok_or("missing \"spectral_efficiency\"")?;
            let qos_satisfied = obj
                .get("qos_satisfied")
                .and_then(JsonValue::as_bool)
                .ok_or("missing \"qos_satisfied\"")?;
            let batch_size = obj.get_u64("batch_size").unwrap_or(1) as usize;
            Outcome::Solved(Solved {
                solution: rcr_qos::rra::RraSolution {
                    owners,
                    power: rcr_qos::power::PowerSolution::empty(),
                    total_rate_bps,
                    spectral_efficiency,
                    qos_satisfied,
                },
                batch_size,
            })
        }
        "rejected" => match obj.get("reason").and_then(JsonValue::as_str) {
            Some("queue_full") => Outcome::Rejected(RejectReason::QueueFull {
                depth: obj.get_u64("depth").unwrap_or(0) as usize,
                capacity: obj.get_u64("capacity").unwrap_or(0) as usize,
            }),
            Some("shutting_down") => Outcome::Rejected(RejectReason::ShuttingDown),
            other => return Err(format!("unknown reject reason {other:?}")),
        },
        "expired" => {
            let phase = match obj.get("phase").and_then(JsonValue::as_str) {
                Some("enqueue") => ExpiryPhase::AtEnqueue,
                Some("queue") => ExpiryPhase::InQueue,
                Some("solve") => ExpiryPhase::AfterSolve,
                other => return Err(format!("unknown expiry phase {other:?}")),
            };
            Outcome::Expired(DeadlineMissed {
                phase,
                late_by: Duration::from_micros(obj.get_u64("late_by_us").unwrap_or(0)),
            })
        }
        "failed" => Outcome::Failed(
            obj.get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown error")
                .to_string(),
        ),
        other => return Err(format!("unknown outcome {other:?}")),
    };
    Ok(SolveResponse {
        id,
        class,
        outcome,
        queue_time,
        solve_time,
    })
}

/// Encodes a metrics snapshot as one JSON line.
pub fn encode_metrics(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"outcome\":\"metrics\"");
    for class in QosClass::ALL {
        let c = snapshot.class(class);
        let lat = snapshot.class_response_latency(class);
        out.push_str(&format!(
            ",{}:{{\"admitted\":{},\"rejected\":{},\"expired\":{},\"solved\":{},\"failed\":{},\
             \"lane_depth_high_water\":{},\"response_latency\":{{\"count\":{},\"p50_us\":{},\
             \"p99_us\":{},\"max_us\":{}}}}}",
            json::encode_str(class.name()),
            c.admitted,
            c.rejected,
            c.expired,
            c.solved,
            c.failed,
            snapshot.lane_high_water(class),
            lat.count,
            lat.p50.as_micros(),
            lat.p99.as_micros(),
            lat.max.as_micros(),
        ));
    }
    let lat = |name: &str, s: &crate::metrics::LatencySummary| {
        format!(
            ",{}:{{\"count\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            json::encode_str(name),
            s.count,
            s.p50.as_micros(),
            s.p99.as_micros(),
            s.max.as_micros()
        )
    };
    out.push_str(&lat("queue_latency", &snapshot.queue_latency));
    out.push_str(&lat("solve_latency", &snapshot.solve_latency));
    out.push_str(&lat("response_latency", &snapshot.response_latency));
    out.push_str(&format!(
        ",\"reuse\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}}",
        snapshot.reuse.hits, snapshot.reuse.misses, snapshot.reuse.evictions
    ));
    out.push_str(&format!(
        ",\"queue_depth_high_water\":{},\"batches\":{}}}",
        snapshot.queue_depth_high_water, snapshot.batches
    ));
    out
}

/// The TCP frontend: accepts connections and bridges lines to a
/// [`Client`]. Dropping the frontend stops the accept loop; established
/// connections close when their peer disconnects.
#[derive(Debug)]
pub struct TcpFrontend {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl TcpFrontend {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting.
    ///
    /// # Errors
    /// [`std::io::Error`] from bind/configuration.
    pub fn bind(addr: impl ToSocketAddrs, client: Client) -> std::io::Result<TcpFrontend> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("rcr-serve-accept".into())
                .spawn(move || accept_loop(&listener, &client, &stop))
                // rcr-lint: allow(no-unwrap-in-lib, reason = "spawn fails only on OS resource exhaustion at frontend startup; failing fast beats serving without an acceptor")
                .expect("serve: failed to spawn accept thread")
        };
        Ok(TcpFrontend {
            local_addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for TcpFrontend {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, client: &Client, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let client = client.clone();
                let _ = std::thread::Builder::new()
                    .name("rcr-serve-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &client);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Reads request lines, submits them without waiting (so batches can
/// form across a pipelined connection), and writes responses back in
/// request order from a dedicated writer thread.
fn handle_connection(stream: TcpStream, client: &Client) -> std::io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let (ticket_tx, ticket_rx) = mpsc::channel::<WireReply>();
    let writer_handle = {
        let mut stream = stream;
        std::thread::Builder::new()
            .name("rcr-serve-write".into())
            .spawn(move || -> std::io::Result<()> {
                for reply in ticket_rx {
                    let line = match reply {
                        WireReply::Pending(rx) => match rx.recv() {
                            Ok(response) => encode_response(&response),
                            Err(_) => break, // service gone
                        },
                        WireReply::Immediate(line) => line,
                    };
                    stream.write_all(line.as_bytes())?;
                    stream.write_all(b"\n")?;
                    stream.flush()?;
                }
                Ok(())
            })
            // rcr-lint: allow(no-unwrap-in-lib, reason = "spawn fails only on OS resource exhaustion; a connection without its writer half is unusable anyway")
            .expect("serve: failed to spawn writer thread")
    };

    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = match parse_request(&line) {
            Ok(WireCommand::Solve(request)) => {
                let (tx, rx) = mpsc::channel();
                client.submit_with(request, tx);
                WireReply::Pending(rx)
            }
            Ok(WireCommand::Metrics) => WireReply::Immediate(encode_metrics(&client.metrics())),
            Err(message) => WireReply::Immediate(format!(
                "{{\"outcome\":\"error\",\"error\":{}}}",
                json::encode_str(&message)
            )),
        };
        if ticket_tx.send(reply).is_err() {
            break;
        }
    }
    drop(ticket_tx); // writer drains outstanding replies, then exits
    let _ = writer_handle.join();
    Ok(())
}

enum WireReply {
    Pending(mpsc::Receiver<SolveResponse>),
    Immediate(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64) -> SolveRequest {
        SolveRequest {
            id,
            class: QosClass::Urllc,
            deadline: Duration::from_micros(5000),
            solver: SolverKind::Greedy,
            payload: Payload::Scenario(ScenarioSpec {
                users: 3,
                resource_blocks: 6,
                seed: 42,
            }),
        }
    }

    #[test]
    fn request_round_trips() {
        let line = encode_request(&request(7)).unwrap();
        match parse_request(&line).unwrap() {
            WireCommand::Solve(parsed) => {
                assert_eq!(parsed.id, 7);
                assert_eq!(parsed.class, QosClass::Urllc);
                assert_eq!(parsed.deadline, Duration::from_micros(5000));
                assert_eq!(parsed.solver, SolverKind::Greedy);
                match parsed.payload {
                    Payload::Scenario(spec) => {
                        assert_eq!(
                            spec,
                            ScenarioSpec {
                                users: 3,
                                resource_blocks: 6,
                                seed: 42
                            }
                        );
                    }
                    other => panic!("unexpected payload {other:?}"),
                }
            }
            WireCommand::Metrics => panic!("parsed as metrics"),
        }
    }

    #[test]
    fn request_defaults_apply() {
        match parse_request(r#"{"id":3,"class":"embb","deadline_us":100}"#).unwrap() {
            WireCommand::Solve(parsed) => {
                assert_eq!(parsed.solver, SolverKind::Greedy);
                match parsed.payload {
                    Payload::Scenario(spec) => {
                        assert_eq!(spec.users, 3);
                        assert_eq!(spec.resource_blocks, 6);
                        assert_eq!(spec.seed, 3, "seed defaults to the id");
                    }
                    other => panic!("unexpected payload {other:?}"),
                }
            }
            WireCommand::Metrics => panic!("parsed as metrics"),
        }
    }

    fn parsed_seed(line: &str) -> Result<u64, String> {
        match parse_request(line)? {
            WireCommand::Solve(SolveRequest {
                payload: Payload::Scenario(spec),
                ..
            }) => Ok(spec.seed),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_range_seeds_round_trip_exactly() {
        for seed in [0, 42, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut req = request(5);
            req.payload = Payload::Scenario(ScenarioSpec {
                users: 3,
                resource_blocks: 6,
                seed,
            });
            let line = encode_request(&req).unwrap();
            assert_eq!(
                line.contains(&format!("\"{seed}\"")),
                seed >= 1 << 53,
                "{line}"
            );
            assert_eq!(parsed_seed(&line), Ok(seed), "{line}");
        }
    }

    #[test]
    fn inexact_seeds_are_malformed_not_substituted() {
        let line =
            |seed: &str| format!(r#"{{"id":3,"class":"embb","deadline_us":100,"seed":{seed}}}"#);
        assert_eq!(parsed_seed(&line("7")), Ok(7));
        assert_eq!(parsed_seed(&line(r#""7""#)), Ok(7));
        for bad in [
            "18446744073709551615",
            "9007199254740993",
            "9007199254740992",
            "-1",
            "2.5",
            "null",
            "true",
            r#""18446744073709551616""#,
            r#""-1""#,
            r#"" 1""#,
            r#""1.0""#,
            r#""""#,
        ] {
            let err = parsed_seed(&line(bad)).unwrap_err();
            assert!(err.contains("seed"), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"class":"embb","deadline_us":1}"#)
            .unwrap_err()
            .contains("id"));
        assert!(parse_request(r#"{"id":1,"class":"gold","deadline_us":1}"#)
            .unwrap_err()
            .contains("gold"));
        assert!(parse_request(r#"{"id":1,"class":"embb"}"#)
            .unwrap_err()
            .contains("deadline_us"));
        assert!(parse_request(r#"{"op":"reboot"}"#).is_err());
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            WireCommand::Metrics
        ));
    }

    #[test]
    fn solved_response_round_trips_bit_identically() {
        let solution = rcr_qos::rra::RraSolution {
            owners: vec![0, 2, 1],
            power: rcr_qos::power::PowerSolution::empty(),
            total_rate_bps: 12_345_678.901_234_5,
            spectral_efficiency: 0.1 + 0.2, // deliberately non-terminating
            qos_satisfied: true,
        };
        let response = SolveResponse {
            id: 11,
            class: QosClass::Embb,
            outcome: Outcome::Solved(Solved {
                solution: solution.clone(),
                batch_size: 4,
            }),
            queue_time: Duration::from_micros(12),
            solve_time: Duration::from_micros(345),
        };
        let parsed = parse_response(&encode_response(&response)).unwrap();
        assert_eq!(parsed.id, 11);
        assert_eq!(parsed.class, QosClass::Embb);
        assert_eq!(parsed.queue_time, Duration::from_micros(12));
        assert_eq!(parsed.solve_time, Duration::from_micros(345));
        match parsed.outcome {
            Outcome::Solved(s) => {
                assert_eq!(s.batch_size, 4);
                assert_eq!(s.solution.owners, solution.owners);
                assert_eq!(
                    s.solution.total_rate_bps.to_bits(),
                    solution.total_rate_bps.to_bits()
                );
                assert_eq!(
                    s.solution.spectral_efficiency.to_bits(),
                    solution.spectral_efficiency.to_bits()
                );
                assert!(s.solution.qos_satisfied);
            }
            other => panic!("expected Solved, got {other:?}"),
        }
    }

    #[test]
    fn terminal_outcomes_round_trip() {
        let cases = vec![
            Outcome::Rejected(RejectReason::QueueFull {
                depth: 9,
                capacity: 9,
            }),
            Outcome::Rejected(RejectReason::ShuttingDown),
            Outcome::Expired(DeadlineMissed {
                phase: ExpiryPhase::InQueue,
                late_by: Duration::from_micros(77),
            }),
            Outcome::Expired(DeadlineMissed {
                phase: ExpiryPhase::AfterSolve,
                late_by: Duration::ZERO,
            }),
            Outcome::Failed("water-filling diverged \"badly\"\n".into()),
        ];
        for outcome in cases {
            let response = SolveResponse {
                id: 1,
                class: QosClass::Mmtc,
                outcome,
                queue_time: Duration::ZERO,
                solve_time: Duration::ZERO,
            };
            let line = encode_response(&response);
            let parsed = parse_response(&line).unwrap();
            match (&response.outcome, &parsed.outcome) {
                (Outcome::Rejected(a), Outcome::Rejected(b)) => assert_eq!(a, b),
                (Outcome::Expired(a), Outcome::Expired(b)) => assert_eq!(a, b),
                (Outcome::Failed(a), Outcome::Failed(b)) => assert_eq!(a, b),
                (a, b) => panic!("variant mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn metrics_encode_is_valid_json() {
        let mut snapshot = MetricsSnapshot::default();
        snapshot.per_class[0].solved = 5;
        snapshot.lane_depth_high_water = [3, 0, 7];
        snapshot.per_class_response_latency[0] = crate::metrics::LatencySummary {
            count: 5,
            p50: Duration::from_micros(64),
            p99: Duration::from_micros(256),
            max: Duration::from_micros(300),
        };
        let line = encode_metrics(&snapshot);
        let value = json::parse(&line).unwrap();
        let obj = value.as_object().unwrap();
        assert_eq!(
            obj.get("outcome").and_then(JsonValue::as_str),
            Some("metrics")
        );
        assert_eq!(obj.get_u64("batches"), Some(0));
        let urllc = obj
            .get("URLLC")
            .and_then(JsonValue::as_object)
            .expect("URLLC block");
        assert_eq!(urllc.get_u64("solved"), Some(5));
        assert_eq!(urllc.get_u64("lane_depth_high_water"), Some(3));
        let lat = urllc
            .get("response_latency")
            .and_then(JsonValue::as_object)
            .expect("per-class latency block");
        assert_eq!(lat.get_u64("count"), Some(5));
        assert_eq!(lat.get_u64("p50_us"), Some(64));
        assert_eq!(lat.get_u64("p99_us"), Some(256));
        assert_eq!(lat.get_u64("max_us"), Some(300));
        let mmtc = obj
            .get("mMTC")
            .and_then(JsonValue::as_object)
            .expect("mMTC block");
        assert_eq!(mmtc.get_u64("lane_depth_high_water"), Some(7));
    }
}
