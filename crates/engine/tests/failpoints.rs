//! Fault-injection tests — compiled only with `--features failpoints`.
//!
//! The failpoint registry is process-global, so every test here serializes
//! on [`REGISTRY`] and clears the registry on entry and exit; this file is
//! its own integration binary, so the unarmed engine/serve suites never see
//! an armed registry.

#![cfg(feature = "failpoints")]

use regenr_engine::serve::http::http_request;
use regenr_engine::{Engine, Json, Method, ServeConfig, Server, SweepSpec};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static REGISTRY: Mutex<()> = Mutex::new(());

/// Serializes the process-global registry and guarantees a clean slate on
/// entry and (via `Drop`) on exit, even when the test panics.
fn armed(spec: &str) -> MutexGuard<'static, ()> {
    let guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    regenr_failpoint::clear();
    regenr_failpoint::configure(spec).expect("failpoint spec parses");
    guard
}

struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        regenr_failpoint::clear();
    }
}

fn sweep(spec_body: &str) -> regenr_engine::SweepReport {
    let spec = SweepSpec::parse(spec_body).expect("spec parses");
    Engine::new().sweep(&spec.requests)
}

/// An injected NaN fails the health check and the supervisor walks the
/// fallback chain: RRL's corrupted inversion recovers on RR, annotated on
/// the cell and counted in the sweep's robustness aggregate.
#[test]
fn injected_nan_recovers_via_the_fallback_chain() {
    let _lock = armed("rrl-nan=nan,count=1");
    let _clean = Disarm;
    let report = sweep(
        r#"{"horizons":[10000],"method":"rrl",
            "models":[{"kind":"raid","g":8,"absorbing":true}],"epsilon":1e-10}"#,
    );
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let cell = &report.reports[0];
    assert_eq!(cell.method, Method::Rr, "RRL's first fallback is RR");
    assert_eq!(cell.recovered_via, Some(Method::Rr));
    assert_eq!(cell.attempts, 2);
    assert!(cell.value.is_finite() && cell.value >= 0.0);
    assert_eq!(report.robustness.health_failures, 1);
    assert_eq!(report.robustness.fallbacks, 1);
    assert_eq!(report.robustness.recovered_cells, 1);
}

/// A chunk panic mid-SpMV is caught by the supervisor, the worker's arenas
/// are discarded, and the *same* method is retried under the request's
/// `max_retries` budget — no fallback, so `recovered_via` stays `None`.
#[test]
fn chunk_panic_retries_the_same_method() {
    let _lock = armed("pool-chunk=panic,count=1");
    let _clean = Disarm;
    let report = sweep(
        r#"{"horizons":[10000],"max_retries":2,
            "models":[{"kind":"raid","g":20}],"epsilon":1e-10}"#,
    );
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let cell = &report.reports[0];
    assert_eq!(cell.attempts, 2, "one panic, one clean retry");
    assert_eq!(cell.recovered_via, None, "same method, not a fallback");
    assert!(report.robustness.retries >= 1);
    assert_eq!(report.robustness.recovered_cells, 1);
}

/// When every retry and fallback is exhausted the failure surfaces as
/// *infrastructure* (the serve layer's 5xx basis) — never as a model error.
#[test]
fn exhausted_recovery_is_an_infrastructure_failure() {
    // `every=1`: the fault re-fires on the retry and on every fallback.
    let _lock = armed("sr-nan=nan,every=1");
    let _clean = Disarm;
    let report = sweep(
        r#"{"horizons":[1],"method":"sr","max_retries":1,
            "models":[{"kind":"cyclic","n":4}],"epsilon":1e-10}"#,
    );
    assert!(report.reports.is_empty());
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert!(
        failure.infrastructure,
        "an injected fault must never masquerade as a model error: {}",
        failure.error
    );
    assert!(failure.error.contains("health"), "{}", failure.error);
    assert!(report.robustness.health_failures >= 2, "retry also failed");
}

/// Two SR requests over one generator (TRR and MRR of the same model)
/// sweep as one blocked unit. An injected NaN lands in block column 0
/// only: that member fails its health check and re-solves alone
/// (`attempts == 2`), while its groupmate keeps the blocked result —
/// one attempt, bitwise equal to an unarmed sweep, and the only cells
/// counted in `blocked_cells`.
#[test]
fn blocked_member_recovers_alone() {
    let spec = r#"{"horizons":[1,10],"method":"sr","measures":["trr","mrr"],
                   "models":[{"kind":"raid","g":4}],"epsilon":1e-10}"#;
    let _lock = armed("");
    let _clean = Disarm;
    let clean = sweep(spec);
    assert!(clean.failures.is_empty(), "{:?}", clean.failures);
    assert_eq!(clean.exec.blocked_cells, 4, "both requests share one block");

    regenr_failpoint::configure("sr-nan=nan,count=1").expect("failpoint spec parses");
    let report = sweep(spec);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(regenr_failpoint::fired_count("sr-nan"), 1);
    assert_eq!(report.reports.len(), clean.reports.len());
    for (got, want) in report.reports.iter().zip(&clean.reports) {
        assert_eq!((got.measure, got.t), (want.measure, want.t));
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "t={}", got.t);
        let poisoned = got.measure == clean.reports[0].measure;
        assert_eq!(got.attempts, if poisoned { 2 } else { 1 }, "{got:?}");
        assert_eq!(got.recovered_via, None, "same method, not a fallback");
    }
    assert_eq!(report.exec.blocked_cells, 2, "only the groupmate's cells");
    assert_eq!(report.robustness.health_failures, 1);
    assert_eq!(report.robustness.recovered_cells, 2);
}

/// `Engine::solve` runs under the same supervisor as a sweep: an injected
/// NaN is caught by the health check and the request's same-method retry
/// returns the healthy value instead of the corrupted one.
#[test]
fn engine_solve_is_supervised() {
    let spec = r#"{"horizons":[1,10],"method":"sr","max_retries":1,
                   "models":[{"kind":"raid","g":4}],"epsilon":1e-10}"#;
    let req = &SweepSpec::parse(spec).expect("spec parses").requests[0];
    let _lock = armed("");
    let _clean = Disarm;
    let clean = Engine::new().solve(req).expect("unarmed solve");

    regenr_failpoint::configure("sr-nan=nan,count=1").expect("failpoint spec parses");
    let reports = Engine::new().solve(req).expect("supervised solve recovers");
    assert_eq!(regenr_failpoint::fired_count("sr-nan"), 1);
    for (got, want) in reports.iter().zip(&clean) {
        assert!(got.value.is_finite(), "{got:?}");
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "t={}", got.t);
        assert_eq!(got.attempts, 2);
    }
}

/// Satellite (d): a request whose deadline expires while its leader is
/// killed. The promoted follower must come back with a *clean* status
/// (`deadline` or `ok`, depending on who wins the race) — it must never
/// hang and never see a malformed stream.
#[test]
fn deadline_expiry_racing_leader_death_stays_clean() {
    let _lock = armed("serve-leader=panic,count=1");
    let _clean = Disarm;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let runner = Arc::clone(&server);
    let run_handle = std::thread::spawn(move || runner.run().expect("accept loop"));

    // The stall lets followers subscribe before the injected death; the
    // deadline (measured from each compute attempt) expires mid-stall, so
    // the promoted recompute races deadline expiry by construction.
    let spec = r#"{"horizons":[1,10,100,1000],"models":[{"kind":"cyclic","n":6}],
                   "epsilon":1e-10,"debug_stall_ms":300,"deadline_ms":100}"#;
    let (tx, rx) = std::sync::mpsc::channel();
    for _ in 0..4 {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let (status, body) = http_request(addr, "POST", "/sweep", spec).expect("request");
            let _ = tx.send((status, String::from_utf8_lossy(&body).into_owned()));
        });
    }
    drop(tx);
    for i in 0..4 {
        let (status, body) = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("client {i} hung: a follower was stranded"));
        assert_eq!(status, 200, "{body}");
        let summary = body.lines().last().expect("stream ends with a summary");
        let doc = Json::parse(summary).expect("summary is valid JSON");
        assert_eq!(doc.get("record").and_then(|s| s.as_str()), Some("summary"));
        let status = doc.get("status").and_then(|s| s.as_str()).unwrap();
        assert!(
            status == "deadline" || status == "ok",
            "clean terminal status required, got {status:?}: {summary}"
        );
        for line in body.lines().filter(|l| *l != summary) {
            let cell = Json::parse(line).expect("cell line is valid JSON");
            assert_eq!(cell.get("record").and_then(|s| s.as_str()), Some("cell"));
        }
    }
    assert!(
        server.stats().promotions >= 1,
        "the dying leader must have promoted a follower"
    );

    // The server survived the race: the same spec, unarmed and undeadlined,
    // completes fully.
    let clean = r#"{"horizons":[1,10],"models":[{"kind":"cyclic","n":6}],"epsilon":1e-10}"#;
    let (status, body) = http_request(addr, "POST", "/sweep/report", clean).expect("request");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

    let (status, _) = http_request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    run_handle.join().expect("drain");
}

/// A leader that dies with nobody to promote (no followers) and no budget
/// left reports `503 infrastructure` on `/sweep/report` — the spec was
/// fine, the infrastructure was not, and the client may simply retry.
#[test]
fn lone_leader_death_is_a_503_not_a_model_error() {
    // `every=1` keeps killing the leader through its entire retry budget.
    let _lock = armed("serve-leader=panic,every=1");
    let _clean = Disarm;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        leader_retries: 0,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let runner = Arc::clone(&server);
    let run_handle = std::thread::spawn(move || runner.run().expect("accept loop"));

    let spec = r#"{"horizons":[1],"models":[{"kind":"cyclic","n":4}],"epsilon":1e-10}"#;
    let (status, body) = http_request(addr, "POST", "/sweep/report", spec).expect("request");
    let body = String::from_utf8_lossy(&body);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("infrastructure"), "{body}");
    assert!(server.stats().handler_panics >= 1);

    // Disarmed, the identical request succeeds — proof the 503 described
    // the infrastructure, not the spec.
    regenr_failpoint::clear();
    let (status, _) = http_request(addr, "POST", "/sweep/report", spec).expect("request");
    assert_eq!(status, 200);

    let (status, _) = http_request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    run_handle.join().expect("drain");
}
