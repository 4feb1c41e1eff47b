#![warn(missing_docs)]

//! # tf-serve — a TCP/JSON-lines front-end for the analysis pipeline
//!
//! A deliberately small network layer over the workspace's three
//! heavyweight entry points: empirical ratio estimation
//! ([`tf_harness::ratio`]), Theorem 1 dual-fitting certification
//! ([`tf_core::verify_theorem1_at_speed`]), and the invariant catalogue
//! ([`tf_audit::audit_trace`]). One request per line, one JSON response
//! per line, over plain `std::net` blocking sockets served by a fixed
//! thread pool — no async runtime, matching the workspace's
//! no-external-dependency rule.
//!
//! ## Protocol
//!
//! Requests are JSON objects, one per line:
//!
//! ```json
//! {"id": 1, "kind": "certify", "trace": [[0.0, 2.0], [0.0, 1.0]],
//!  "m": 1, "k": 2, "eps": 0.05}
//! ```
//!
//! | field | meaning | default |
//! |---|---|---|
//! | `id` | echoed back, pairs responses to requests | required |
//! | `kind` | `ratio` \| `certify` \| `audit` \| `shutdown` | required |
//! | `trace` | `[arrival, size]` pairs | required except `shutdown` |
//! | `policy` | policy name for `ratio` (`rr`, `srpt`, `laps:0.25`, …) | `rr` |
//! | `m` | machine count | `1` |
//! | `speed` | policy speed | `2k(1+10ε)` for ratio/certify, `1` for audit |
//! | `k` | norm exponent | `2` |
//! | `eps` | Theorem 1 epsilon | `0.05` |
//!
//! Responses are `{"id": …, "ok": true, "result": …}` or
//! `{"id": …, "ok": false, "error": "…"}`. A `shutdown` request is
//! answered, then the server drains and [`serve`] returns. Each request
//! runs under a `serve/request` tracing span on its worker's track, so a
//! `TF_TRACE=jsonl` run yields one timed span per request.
//!
//! ## Framing
//!
//! Every reply leaves the server as one `write` of the JSON line and its
//! `'\n'`, on a socket with `TCP_NODELAY` set. A reply
//! split into two writes would let Nagle's algorithm hold the second
//! one until the client's delayed ACK fires (about 40 ms on Linux), so
//! each request would cost that much on top of its compute. Clients
//! should likewise send each request line, newline included, in one
//! write. Measured on a 2-vCPU VM over loopback, the `serve` benchmark
//! workload's median `certify` round trip fell from 44 ms to about 2 ms
//! when replies became one write, and its throughput rose from about 36
//! to about 170 requests/s.
//!
//! ## Limits
//!
//! Every limit is a constant, not a setting. Each refusal is an
//! `ok:false` reply with the error shown:
//!
//! | limit | error |
//! |---|---|
//! | a line holds at most [`MAX_LINE_BYTES`] bytes | `line too long: …` (then the connection closes) |
//! | a trace holds at most [`MAX_JOBS`] jobs | `too many jobs: …` |
//! | `1 ≤ m ≤` [`MAX_MACHINES`] | `bad m: …` |
//! | `shutdown` only from a loopback peer | `shutdown refused: …` |
//!
//! A request that still panics inside a handler gets an
//! `internal error: …` reply; the worker thread lives on.
//!
//! See docs/DISTRIBUTED.md for the full protocol description and a
//! worked client example.

use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tf_harness::campaign::CampaignScope;
use tf_harness::ratio::{default_baselines, empirical_ratio_scoped};
use tf_policies::Policy;
use tf_simcore::Trace;

/// Longest request line the server reads, in bytes, newline excluded.
/// A 5000-job trace written with full-precision floats fits about four
/// times over.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most jobs one request's trace may hold: the largest n at which the
/// exact §3.1 bound is certified in seconds (docs/SOLVER.md).
pub const MAX_JOBS: usize = 5000;

/// Largest machine count a request may ask for. The audit allocates
/// per-machine state, so an unbounded `m` could abort the process on a
/// failed allocation.
pub const MAX_MACHINES: usize = 1024;

/// Why the server refused a request without running it. The `Display`
/// text is the reply's `error` field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Rejection {
    /// The line outgrew [`MAX_LINE_BYTES`] before its newline; the
    /// server replies and closes the connection.
    LineTooLong,
    /// The trace holds more than [`MAX_JOBS`] jobs.
    TooManyJobs(usize),
    /// `m` is outside `1..=MAX_MACHINES`.
    BadMachines(usize),
    /// A `shutdown` from a peer that is not loopback.
    ShutdownRefused,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::LineTooLong => write!(
                f,
                "line too long: a request line holds at most {MAX_LINE_BYTES} bytes"
            ),
            Rejection::TooManyJobs(n) => {
                write!(f, "too many jobs: {n} (at most {MAX_JOBS} per request)")
            }
            Rejection::BadMachines(m) => write!(f, "bad m: {m} (want 1 <= m <= {MAX_MACHINES})"),
            Rejection::ShutdownRefused => {
                f.write_str("shutdown refused: only a loopback peer may shut the server down")
            }
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeCfg {
    /// Worker threads (= concurrently served connections).
    pub threads: usize,
    /// Per-request lower-bound solve budget (`ratio` requests degrade
    /// to the closed-form bound when it expires).
    pub task_timeout: Option<Duration>,
}

impl Default for ServeCfg {
    fn default() -> Self {
        ServeCfg {
            threads: 8,
            task_timeout: None,
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// `ratio` | `certify` | `audit` | `shutdown`.
    pub kind: String,
    /// `[arrival, size]` pairs.
    pub trace: Vec<(f64, f64)>,
    /// Policy name for `ratio` requests.
    pub policy: String,
    /// Machine count.
    pub m: usize,
    /// Machine speed; `None` = the kind's default.
    pub speed: Option<f64>,
    /// Norm exponent.
    pub k: u32,
    /// Theorem 1 epsilon.
    pub eps: f64,
}

/// Hand-written (the vendored derive has no `#[serde(default)]`): every
/// field except `id` and `kind` is optional with a documented default.
impl serde::Deserialize for Request {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("map for struct Request", v))?;
        let opt = |f: &'static str| serde::map_get(m, f);
        let req = |f: &'static str| opt(f).ok_or_else(|| serde::Error::missing_field(f));
        Ok(Request {
            id: serde::Deserialize::from_value(req("id")?)?,
            kind: serde::Deserialize::from_value(req("kind")?)?,
            trace: match opt("trace") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => Vec::new(),
            },
            policy: match opt("policy") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => "rr".to_string(),
            },
            m: match opt("m") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => 1,
            },
            speed: match opt("speed") {
                Some(v) => Some(serde::Deserialize::from_value(v)?),
                None => None,
            },
            k: match opt("k") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => 2,
            },
            eps: match opt("eps") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => 0.05,
            },
        })
    }
}

/// Check a request against the job and machine limits.
pub(crate) fn validate_request(req: &Request) -> Result<(), Rejection> {
    if req.trace.len() > MAX_JOBS {
        return Err(Rejection::TooManyJobs(req.trace.len()));
    }
    if !(1..=MAX_MACHINES).contains(&req.m) {
        return Err(Rejection::BadMachines(req.m));
    }
    Ok(())
}

/// Evaluate one non-`shutdown` request, after checking it against
/// [`MAX_JOBS`] and [`MAX_MACHINES`]. Public so the handlers are
/// testable without sockets.
pub fn handle_request(
    req: &Request,
    task_timeout: Option<Duration>,
) -> Result<serde::Value, String> {
    validate_request(req).map_err(|r| r.to_string())?;
    let trace =
        Trace::from_pairs(req.trace.iter().copied()).map_err(|e| format!("bad trace: {e}"))?;
    match req.kind.as_str() {
        "ratio" => {
            let policy: Policy = req
                .policy
                .parse()
                .map_err(|e| format!("bad policy {:?}: {e}", req.policy))?;
            let speed = req.speed.unwrap_or_else(|| tf_core::eta(req.k, req.eps));
            let scope = match task_timeout {
                Some(t) => CampaignScope::with_timeout(t),
                None => CampaignScope::none(),
            };
            let est = empirical_ratio_scoped(
                &scope,
                &trace,
                policy,
                req.m,
                speed,
                req.k,
                &default_baselines(),
            );
            serde_json::to_value(&est).map_err(|e| e.to_string())
        }
        "certify" => {
            let speed = req.speed.unwrap_or_else(|| tf_core::eta(req.k, req.eps));
            let cert = tf_core::verify_theorem1_at_speed(&trace, req.m, req.k, req.eps, speed)
                .map_err(|e| format!("simulation failed: {e}"))?;
            let mut out = vec![(
                "certified".to_string(),
                serde::Value::Bool(cert.certified()),
            )];
            out.push((
                "certificate".to_string(),
                serde_json::to_value(&cert).map_err(|e| e.to_string())?,
            ));
            Ok(serde::Value::Map(out))
        }
        "audit" => {
            let cfg = tf_audit::AuditConfig {
                k: req.k,
                eps: req.eps,
                ..tf_audit::AuditConfig::default()
            };
            let rep = tf_audit::audit_trace(
                &trace,
                req.m,
                req.speed.unwrap_or(1.0),
                &Policy::all(),
                &cfg,
            );
            let violations: Vec<serde::Value> = rep
                .violations
                .iter()
                .map(|v| {
                    serde::Value::Map(vec![
                        ("check".into(), serde::Value::Str(v.check.to_string())),
                        (
                            "policy".into(),
                            match &v.policy {
                                Some(p) => serde::Value::Str(p.clone()),
                                None => serde::Value::Null,
                            },
                        ),
                        ("detail".into(), serde::Value::Str(v.detail.clone())),
                    ])
                })
                .collect();
            Ok(serde::Value::Map(vec![
                ("ok".into(), serde::Value::Bool(rep.ok())),
                (
                    "checks_run".into(),
                    serde::Value::UInt(rep.checks_run as u64),
                ),
                ("violations".into(), serde::Value::Seq(violations)),
            ]))
        }
        other => Err(format!(
            "unknown kind {other:?} (want ratio, certify, audit, or shutdown)"
        )),
    }
}

/// Render one response line (no trailing newline).
pub fn response_line(id: u64, outcome: Result<serde::Value, String>) -> String {
    let body = match outcome {
        Ok(result) => serde::Value::Map(vec![
            ("id".into(), serde::Value::UInt(id)),
            ("ok".into(), serde::Value::Bool(true)),
            ("result".into(), result),
        ]),
        Err(error) => serde::Value::Map(vec![
            ("id".into(), serde::Value::UInt(id)),
            ("ok".into(), serde::Value::Bool(false)),
            ("error".into(), serde::Value::Str(error)),
        ]),
    };
    serde_json::to_string(&body).expect("response serializes")
}

struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    stop: AtomicBool,
}

/// Serve connections from `listener` until a `shutdown` request
/// arrives; returns after the worker pool drains. Connections are
/// handled whole-connection-per-worker: `cfg.threads` workers bound the
/// number of concurrently served clients, excess connections queue.
pub fn serve(listener: TcpListener, cfg: &ServeCfg) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        stop: AtomicBool::new(false),
    });

    let workers: Vec<_> = (0..cfg.threads.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let timeout = cfg.task_timeout;
            std::thread::spawn(move || worker_loop(i, &shared, timeout, local))
        })
        .collect();

    loop {
        let (conn, _) = listener.accept()?;
        if shared.stop.load(Ordering::SeqCst) {
            // The unblocking self-connection (or a straggler): drop it.
            break;
        }
        let mut q = shared.queue.lock().unwrap();
        q.push_back(conn);
        drop(q);
        shared.ready.notify_one();
    }

    shared.ready.notify_all();
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

fn worker_loop(
    index: usize,
    shared: &Shared,
    task_timeout: Option<Duration>,
    local: std::net::SocketAddr,
) {
    // Give each worker its own trace track so concurrent request spans
    // render side by side instead of nested.
    let _track = tf_obs::set_track(index as u32 + 1);
    loop {
        let conn = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(c) = q.pop_front() {
                    break c;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.ready.wait(q).unwrap();
            }
        };
        if handle_connection(conn, shared, task_timeout) {
            // Shutdown seen: wake everyone and unblock the acceptor.
            shared.stop.store(true, Ordering::SeqCst);
            shared.ready.notify_all();
            let _ = TcpStream::connect(local);
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Whether a peer may send `shutdown`: only a loopback address may, so
/// a server bound to a public interface cannot be stopped remotely.
/// An IPv4-mapped IPv6 peer (a dual-stack listener) counts by its IPv4
/// address.
pub(crate) fn shutdown_allowed(peer: SocketAddr) -> bool {
    peer.ip().to_canonical().is_loopback()
}

/// Send one reply: render the line and its `'\n'` into `buf` (reused
/// across the connection's replies) and hand it to `w` in one
/// `write_all`, so the reply is never split across TCP segments by
/// the framing itself.
pub(crate) fn write_reply(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    id: u64,
    outcome: Result<serde::Value, String>,
) -> std::io::Result<()> {
    buf.clear();
    buf.extend_from_slice(response_line(id, outcome).as_bytes());
    buf.push(b'\n');
    w.write_all(buf)
}

/// The reply to one request line: `(id, outcome, shutdown requested)`.
fn answer(
    line: &str,
    may_shutdown: bool,
    task_timeout: Option<Duration>,
) -> (u64, Result<serde::Value, String>, bool) {
    match serde_json::from_str::<Request>(line) {
        Err(e) => (0, Err(format!("bad request: {e}")), false),
        Ok(req) if req.kind == "shutdown" => {
            if may_shutdown {
                (req.id, Ok(serde::Value::Str("shutting down".into())), true)
            } else {
                (req.id, Err(Rejection::ShutdownRefused.to_string()), false)
            }
        }
        Ok(req) => {
            let mut span = tf_obs::span!("serve", "request");
            span.arg("id", req.id as f64);
            // A handler panic must not kill the worker: with one worker
            // that would hang every later request, `shutdown` included.
            let outcome =
                panic::catch_unwind(AssertUnwindSafe(|| handle_request(&req, task_timeout)))
                    .unwrap_or_else(|payload| {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .copied()
                            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                            .unwrap_or("handler panicked");
                        Err(format!("internal error: {msg}"))
                    });
            (req.id, outcome, false)
        }
    }
}

/// What [`read_line_capped`] found.
#[derive(Debug, PartialEq, Eq)]
enum LineRead {
    /// End of stream with nothing buffered.
    Eof,
    /// A whole line (or the stream's unterminated last line) is in the
    /// buffer.
    Line,
    /// The line outgrew the cap before its newline.
    TooLong,
}

/// `read_until(b'\n')` that stops once the line, newline excluded,
/// would exceed `cap` bytes. As with `read_until`, bytes read before an
/// error (a read timeout) stay in `buf`, and the next call continues the
/// same line.
fn read_line_capped(
    r: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    loop {
        let avail = match r.fill_buf() {
            Ok(a) => a,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if avail.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        let newline = avail.iter().position(|&b| b == b'\n');
        let take = newline.map_or(avail.len(), |i| i + 1);
        if buf.len() + take - usize::from(newline.is_some()) > cap {
            return Ok(LineRead::TooLong);
        }
        buf.extend_from_slice(&avail[..take]);
        r.consume(take);
        if newline.is_some() {
            return Ok(LineRead::Line);
        }
    }
}

/// How long a closing connection keeps discarding client input.
const LINGER: Duration = Duration::from_secs(1);

/// Close after a final reply without resetting the connection: send
/// FIN, then discard whatever the client is still sending until it goes
/// quiet for one read timeout, closes, or [`LINGER`] passes. Closing
/// with unread input would send RST, which can destroy the reply before
/// the client reads it.
fn close_gracefully(conn: &mut TcpStream) {
    let _ = conn.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 8192];
    while Instant::now() < deadline {
        match conn.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Serve one connection to completion. Returns true iff a `shutdown`
/// request was received.
///
/// Reads run under a short timeout so a worker parked on an idle (but
/// still open) connection notices `stop` and lets [`serve`] drain —
/// otherwise one lingering client would block shutdown forever.
fn handle_connection(conn: TcpStream, shared: &Shared, task_timeout: Option<Duration>) -> bool {
    let mut writer = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = conn.set_nodelay(true);
    let may_shutdown = conn.peer_addr().is_ok_and(shutdown_allowed);
    let mut reader = BufReader::new(conn);
    let mut raw: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    loop {
        // A timed-out read leaves any partial line in `raw`; the next
        // iteration keeps appending to it.
        match read_line_capped(&mut reader, &mut raw, MAX_LINE_BYTES) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLong) => {
                let error = Err(Rejection::LineTooLong.to_string());
                if write_reply(&mut writer, &mut out, 0, error).is_ok() {
                    close_gracefully(reader.get_mut());
                }
                break;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let line = String::from_utf8_lossy(&raw).into_owned();
        raw.clear();
        if line.trim().is_empty() {
            continue;
        }
        let (id, outcome, shutdown) = answer(&line, may_shutdown, task_timeout);
        if write_reply(&mut writer, &mut out, id, outcome).is_err() {
            break;
        }
        if shutdown {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Vec<(f64, f64)> {
        vec![(0.0, 2.0), (0.0, 1.0), (1.0, 1.0)]
    }

    #[test]
    fn request_defaults_fill_in() {
        let r: Request =
            serde_json::from_str(r#"{"id": 7, "kind": "ratio", "trace": [[0.0, 1.0]]}"#).unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(r.policy, "rr");
        assert_eq!((r.m, r.k), (1, 2));
        assert_eq!(r.speed, None);
        assert!((r.eps - 0.05).abs() < 1e-12);
    }

    #[test]
    fn ratio_request_returns_an_estimate() {
        let req = Request {
            id: 1,
            kind: "ratio".into(),
            trace: tiny_trace(),
            policy: "rr".into(),
            m: 1,
            speed: Some(4.4),
            k: 2,
            eps: 0.05,
        };
        let v = handle_request(&req, None).unwrap();
        let ratio = v.get("ratio_vs_best").expect("estimate field");
        assert!(matches!(ratio, serde::Value::Float(x) if x.is_finite()));
    }

    #[test]
    fn certify_request_certifies_at_prescribed_speed() {
        let req = Request {
            id: 2,
            kind: "certify".into(),
            trace: tiny_trace(),
            policy: "rr".into(),
            m: 1,
            speed: None, // defaults to eta(k, eps) = 2k(1+10eps)
            k: 2,
            eps: 0.05,
        };
        let v = handle_request(&req, None).unwrap();
        assert_eq!(v.get("certified"), Some(&serde::Value::Bool(true)));
        assert!(v.get("certificate").is_some());
    }

    #[test]
    fn audit_request_reports_clean_verdict() {
        let req = Request {
            id: 3,
            kind: "audit".into(),
            trace: tiny_trace(),
            policy: "rr".into(),
            m: 1,
            speed: None,
            k: 2,
            eps: 0.05,
        };
        let v = handle_request(&req, None).unwrap();
        assert_eq!(v.get("ok"), Some(&serde::Value::Bool(true)));
        assert!(matches!(v.get("checks_run"), Some(serde::Value::UInt(n)) if *n > 0));
    }

    #[test]
    fn bad_kind_and_bad_policy_are_errors_not_panics() {
        let mut req = Request {
            id: 4,
            kind: "bogus".into(),
            trace: tiny_trace(),
            policy: "rr".into(),
            m: 1,
            speed: None,
            k: 2,
            eps: 0.05,
        };
        assert!(handle_request(&req, None)
            .unwrap_err()
            .contains("unknown kind"));
        req.kind = "ratio".into();
        req.policy = "not-a-policy".into();
        assert!(handle_request(&req, None)
            .unwrap_err()
            .contains("bad policy"));
    }

    fn request(kind: &str, m: usize, jobs: usize) -> Request {
        Request {
            id: 5,
            kind: kind.into(),
            trace: vec![(0.0, 1.0); jobs],
            policy: "rr".into(),
            m,
            speed: None,
            k: 2,
            eps: 0.05,
        }
    }

    #[test]
    fn machine_count_is_validated_before_dispatch() {
        assert_eq!(validate_request(&request("ratio", 1, 3)), Ok(()));
        assert_eq!(validate_request(&request("ratio", MAX_MACHINES, 3)), Ok(()));
        assert_eq!(
            validate_request(&request("ratio", 0, 3)),
            Err(Rejection::BadMachines(0))
        );
        assert_eq!(
            validate_request(&request("audit", MAX_MACHINES + 1, 3)),
            Err(Rejection::BadMachines(MAX_MACHINES + 1))
        );
        assert_eq!(
            validate_request(&request("audit", usize::MAX, 3)),
            Err(Rejection::BadMachines(usize::MAX))
        );
        // m = 0 used to panic the simulation inside `ratio`.
        for kind in ["ratio", "certify", "audit"] {
            let err = handle_request(&request(kind, 0, 3), None).unwrap_err();
            assert!(err.starts_with("bad m: 0"), "{kind}: {err}");
        }
    }

    #[test]
    fn job_count_is_capped() {
        assert_eq!(validate_request(&request("certify", 1, MAX_JOBS)), Ok(()));
        let err = handle_request(&request("certify", 1, MAX_JOBS + 1), None).unwrap_err();
        assert_eq!(err, Rejection::TooManyJobs(MAX_JOBS + 1).to_string());
        assert!(err.starts_with("too many jobs: "), "{err}");
    }

    #[test]
    fn only_loopback_peers_may_shut_down() {
        let allowed = |a: &str| shutdown_allowed(a.parse().unwrap());
        assert!(allowed("127.0.0.1:9000"));
        assert!(allowed("127.8.9.10:9000"));
        assert!(allowed("[::1]:9000"));
        assert!(allowed("[::ffff:127.0.0.1]:9000"));
        assert!(!allowed("192.0.2.7:9000"));
        assert!(!allowed("0.0.0.0:9000"));
        assert!(!allowed("[2001:db8::1]:9000"));
        assert!(!allowed("[::ffff:192.0.2.7]:9000"));

        let line = r#"{"id": 3, "kind": "shutdown"}"#;
        let (id, outcome, stop) = answer(line, false, None);
        assert_eq!((id, stop), (3, false));
        assert_eq!(outcome, Err(Rejection::ShutdownRefused.to_string()));
        let (_, outcome, stop) = answer(line, true, None);
        assert!(stop && outcome.is_ok());
    }

    /// Counts `write` calls; accepts every byte offered.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_reply_is_one_write_ending_in_newline() {
        let mut buf = Vec::new();
        let outcomes = [
            Ok(serde::Value::Str("shutting down".into())),
            Err("bad request: nope".to_string()),
            handle_request(&request("certify", 1, 3), None),
        ];
        for (id, outcome) in outcomes.into_iter().enumerate() {
            let mut w = CountingWriter::default();
            let want = response_line(id as u64, outcome.clone());
            write_reply(&mut w, &mut buf, id as u64, outcome).unwrap();
            assert_eq!(w.writes, 1, "reply {id} took {} writes", w.writes);
            assert_eq!(w.bytes, format!("{want}\n").into_bytes());
        }
    }

    #[test]
    fn handler_panics_become_error_replies() {
        // `ratio` expects its simulation to succeed, so a non-positive
        // speed panics inside the handler; the caller still gets a reply.
        let line = r#"{"id": 8, "kind": "ratio", "trace": [[0, 1]], "speed": -1.0}"#;
        let (id, outcome, stop) = answer(line, true, None);
        assert_eq!((id, stop), (8, false));
        let err = outcome.unwrap_err();
        assert!(err.contains("BadSpeed"), "{err}");
    }

    #[test]
    fn capped_reader_frames_lines_and_stops_at_the_cap() {
        let mut r = BufReader::with_capacity(4, &b"ab\ncdef\n\nxyz"[..]);
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        loop {
            match read_line_capped(&mut r, &mut buf, 4).unwrap() {
                LineRead::Eof => break,
                LineRead::Line => lines.push(String::from_utf8(std::mem::take(&mut buf)).unwrap()),
                LineRead::TooLong => panic!("no line is over the cap"),
            }
        }
        assert_eq!(lines, ["ab\n", "cdef\n", "\n", "xyz"]);

        let mut r = BufReader::with_capacity(2, &b"abcde\n"[..]);
        let mut buf = Vec::new();
        assert_eq!(
            read_line_capped(&mut r, &mut buf, 4).unwrap(),
            LineRead::TooLong
        );
    }

    #[test]
    fn response_lines_echo_id_and_status() {
        let ok = response_line(9, Ok(serde::Value::Bool(true)));
        assert!(ok.contains("\"id\":9") || ok.contains("\"id\": 9"), "{ok}");
        assert!(ok.contains("true"), "{ok}");
        let err = response_line(9, Err("nope".into()));
        assert!(err.contains("nope"), "{err}");
    }
}
