//! `serve_mix`: an in-process `Server` on `127.0.0.1:0`, driven by a
//! single-process open-loop generator with at most `nproc` connections
//! open. Every request is timed from its due time, so a generator that falls
//! behind shows up as latency, never as a silently lower rate.

use crate::calib::Calibration;
use crate::check::{cell_key, Reference};
use crate::workloads::{Planned, SERVE_EPSILON};
use regenr_engine::{CacheConfig, Json, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server's long-lived cache: capped below the number of distinct models
/// the mix draws, so eviction is part of the workload.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache: CacheConfig::with_max_entries(64),
        ..ServeConfig::default()
    }
}

pub struct Running {
    pub server: Arc<Server>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Running {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Graceful shutdown; waits for the accept loop to drain.
    pub fn stop(self) -> Result<(), String> {
        self.server.shutdown();
        match self.handle.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Binds a server and measures bind → first `/healthz` answer. The probe
/// connects before the accept loop starts, so the answer never waits on the
/// loop's idle poll.
pub fn start_timed() -> Result<(Running, f64), String> {
    let t0 = Instant::now();
    let server = Server::bind(serve_config()).map_err(|e| e.to_string())?;
    let mut probe = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let runner = Arc::clone(&server);
    let handle = std::thread::spawn(move || runner.run());
    let mut reply = Vec::new();
    probe.read_to_end(&mut reply).map_err(|e| e.to_string())?;
    let setup = t0.elapsed().as_secs_f64();
    let running = Running { server, handle };
    if !reply.starts_with(b"HTTP/1.1 200") {
        let _ = running.stop();
        return Err("healthz did not answer 200".into());
    }
    Ok((running, setup))
}

/// What one request observed, times in seconds after its due time.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// How late the generator started the request.
    pub late: f64,
    pub connect: f64,
    pub head: f64,
    pub first_record: f64,
    pub last_record: f64,
    pub status: u16,
    pub ok: bool,
    pub cells: u64,
    pub cells_failed: u64,
    /// Server-side sweep wall from the summary record.
    pub sweep_wall: f64,
    pub coalesced: bool,
    /// Method of each streamed cell.
    pub methods: Vec<String>,
    /// `(cell key, value)` of each streamed cell.
    pub values: Vec<(String, f64)>,
}

/// Reads one CRLF-terminated line.
fn read_line(r: &mut impl BufRead) -> std::io::Result<String> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    Ok(line.trim_end().to_string())
}

/// Sends one `POST /sweep` and reads the NDJSON stream record by record.
fn request(
    addr: SocketAddr,
    spec: &str,
    due: Instant,
    expect_cells: u64,
    reference: &Reference,
) -> Outcome {
    let mut o = Outcome {
        late: due.elapsed().as_secs_f64(),
        cells: expect_cells,
        cells_failed: expect_cells,
        ..Outcome::default()
    };
    let since = |t: Instant| (t - due).as_secs_f64();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return o;
    };
    o.connect = since(Instant::now());
    let _ = stream.set_nodelay(true);
    // A hung server fails the request instead of hanging the benchmark.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let head = format!(
        "POST /sweep HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{spec}",
        spec.len()
    );
    if stream.write_all(head.as_bytes()).is_err() {
        return o;
    }
    let mut r = BufReader::new(stream);
    let Ok(status_line) = read_line(&mut r) else {
        return o;
    };
    o.status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut chunked = false;
    loop {
        match read_line(&mut r) {
            Ok(l) if l.is_empty() => break,
            Ok(l) => chunked |= l.eq_ignore_ascii_case("transfer-encoding: chunked"),
            Err(_) => return o,
        }
    }
    o.head = since(Instant::now());
    if o.status != 200 || !chunked {
        return o;
    }
    let mut passed = 0u64;
    let mut summary_ok = false;
    loop {
        let Ok(size_line) = read_line(&mut r) else {
            return o;
        };
        let Ok(size) = usize::from_str_radix(&size_line, 16) else {
            return o;
        };
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size + 2];
        if r.read_exact(&mut chunk).is_err() {
            return o;
        }
        let now = since(Instant::now());
        if o.first_record == 0.0 {
            o.first_record = now;
        }
        let Ok(doc) = Json::parse(String::from_utf8_lossy(&chunk[..size]).trim()) else {
            return o;
        };
        match doc.get("record").and_then(Json::as_str) {
            Some("cell") => {
                let field = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("");
                let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                let (model, measure, t, value) =
                    (field("model"), field("measure"), num("t"), num("value"));
                if reference.cell_ok(model, measure, t, value, SERVE_EPSILON) {
                    passed += 1;
                }
                o.methods.push(field("method").to_string());
                o.values.push((cell_key(model, measure, t), value));
            }
            Some("summary") => {
                o.last_record = now;
                summary_ok = doc.get("status").and_then(Json::as_str) == Some("ok")
                    && doc
                        .get("failures")
                        .and_then(Json::as_arr)
                        .is_some_and(|f| f.is_empty());
                o.sweep_wall = doc
                    .get("wall_seconds")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                o.coalesced = doc
                    .get("coalesced")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
            }
            _ => return o,
        }
    }
    o.cells_failed = expect_cells.saturating_sub(passed);
    o.ok = summary_ok && o.cells_failed == 0 && passed == expect_cells;
    o
}

/// Where in the gap between two due times [`drive`] takes a calibration
/// sample. A sample takes a few milliseconds, so at the 50 ms gaps of the
/// latency phase it ends well before the next request is due.
const CAL_AT: f64 = 0.6;
/// Gaps shorter than this get no calibration sample.
const MIN_CAL_GAP_S: f64 = 0.03;

/// Drives `plan` open-loop from `start` with `conns` connection slots: each
/// slot claims the next request in due order, waits for its due time, and
/// runs it; a request whose slot frees up late starts late, and that wait
/// counts in its latency. With `cal`, one host calibration sample is also
/// taken in each gap between due times, at [`CAL_AT`] of the gap and only
/// while no request is in flight: the samples see the same stretches of a
/// shared host as the requests do, and never compete with one.
pub fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    conns: usize,
    reference: &Reference,
    cal: Option<&mut Calibration>,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let inflight = &AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let mut outcomes: Vec<(usize, Outcome)> = std::thread::scope(|s| {
        if let Some(cal) = cal {
            s.spawn(move || {
                for w in plan.windows(2) {
                    let gap = w[1].due_s - w[0].due_s;
                    if gap < MIN_CAL_GAP_S {
                        continue;
                    }
                    let at = start + Duration::from_secs_f64(w[0].due_s + CAL_AT * gap);
                    // A sample that would start late could meet the next
                    // request: skip it.
                    let Some(wait) = at.checked_duration_since(Instant::now()) else {
                        continue;
                    };
                    std::thread::sleep(wait);
                    if inflight.load(Ordering::SeqCst) == 0 {
                        cal.sample();
                    }
                }
            });
        }
        let workers: Vec<_> = (0..conns.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = plan.get(i) else { break };
                        let due = start + Duration::from_secs_f64(p.due_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        inflight.fetch_add(1, Ordering::SeqCst);
                        mine.push((i, request(addr, &p.spec, due, p.cells, reference)));
                        inflight.fetch_sub(1, Ordering::SeqCst);
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread"))
            .collect()
    });
    outcomes.sort_by_key(|(i, _)| *i);
    outcomes.into_iter().map(|(_, o)| o).collect()
}
