//! `serve`: a closed loop of `nproc` client connections against
//! `tf_serve::serve` running in-process on a loopback listener. Each
//! client sends its next request only after the reply to its last one
//! arrived, the way `tf-serve` callers use it.
//!
//! Requests come in blocks of eight: 3× `ratio` (n = 48, m = 1), 1× `ratio`
//! (n = 96, m = 2, above the n ≤ 80 SSP crossover), 2× `certify`
//! (n = 256, m = 2), 1× `certify` (n = 64, m = 1) and 1× `audit` (n = 16,
//! m = 1), each on its own seeded integral Poisson trace. This is the only
//! workload that reaches the TCP/JSON layer, the LP/MCMF lower bound, the
//! Theorem 1 certificate and the audit catalogue.
//!
//! Every reply must equal, up to its wall-clock `alloc_ns` fields, the
//! in-process `handle_request` result for the same line, computed outside
//! the timed window. The traced run replays each line through the layers
//! in-process, call by call, and reports client latency minus handler
//! time as `serve.wire_ms`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use tf_audit::{audit_trace, AuditConfig};
use tf_harness::corpus::integral_poisson;
use tf_harness::ratio::{default_baselines, empirical_ratio};
use tf_lowerbound::{last_solve_stats, lk_lower_bound};
use tf_policies::Policy;
use tf_serve::{handle_request, response_line, Request, ServeCfg};
use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
use tf_workload::SizeDist;

use crate::report::{median, peak_rss_mb, quantile, splitmix64, timed_setup, Outcome};
use crate::spans::{ns_since, SpanTree};
use crate::{nproc, Args};

/// `(kind, n, m)` of each request in a block of eight.
const BLOCK: [(&str, usize, usize); 8] = [
    ("ratio", 48, 1),
    ("certify", 256, 2),
    ("ratio", 48, 1),
    ("audit", 16, 1),
    ("ratio", 48, 1),
    ("certify", 256, 2),
    ("ratio", 96, 2),
    ("certify", 64, 1),
];
/// Distinct request lines: the pool the clients cycle through. One pass
/// over the pool is one measured block.
const POOL_BLOCKS: usize = 8;
const K: u32 = 2;
const EPS: f64 = 0.05;
/// Utilization of the request traces, as in the experiments' corpus.
const RHO: f64 = 0.9;

struct Line {
    kind: &'static str,
    text: String,
}

/// The seeded request pool.
fn request_pool(seed: u64) -> Vec<Line> {
    (0..POOL_BLOCKS * BLOCK.len())
        .map(|i| {
            let (kind, n, m) = BLOCK[i % BLOCK.len()];
            let trace = integral_poisson(
                n,
                RHO,
                m,
                SizeDist::Exponential { mean: 4.0 },
                splitmix64(seed ^ 0x5345_5256 ^ ((i as u64) << 24)),
            );
            let pairs: Vec<String> = trace
                .jobs()
                .iter()
                .map(|j| format!("[{:.1},{:.1}]", j.arrival, j.size))
                .collect();
            Line {
                kind,
                text: format!(
                    "{{\"id\":{i},\"kind\":\"{kind}\",\"trace\":[{}],\"m\":{m},\"k\":{K},\"eps\":{EPS}}}",
                    pairs.join(",")
                ),
            }
        })
        .collect()
}

/// One client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            buf: Vec::new(),
        })
    }

    /// Send one request line in a single write and wait for its reply.
    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer.write_all(&self.buf)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(reply)
    }
}

/// The in-process server with its connected clients. Dropping it shuts
/// the server down and joins its thread.
struct Server {
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    clients: Vec<Client>,
}

impl Server {
    fn start(clients: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let cfg = ServeCfg {
            threads: nproc(),
            task_timeout: None,
        };
        let thread = std::thread::spawn(move || tf_serve::serve(listener, &cfg));
        let mut server = Server {
            addr,
            thread: Some(thread),
            clients: Vec::new(),
        };
        for _ in 0..clients {
            server.clients.push(Client::connect(addr)?);
        }
        Ok(server)
    }

    /// Close the clients, send `shutdown` on a fresh connection and wait
    /// for the server thread to end.
    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.clients.clear();
        let ack = Client::connect(self.addr)
            .and_then(|mut c| c.call("{\"id\":0,\"kind\":\"shutdown\"}"))
            .map_err(|e| format!("shutdown request: {e}"));
        let joined = match thread.join() {
            Ok(r) => r.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        };
        ack.and(joined)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("perfbench: {e}");
        }
    }
}

/// One reply as the clients saw it.
struct Sent {
    line: usize,
    latency_ns: u64,
    reply: String,
}

/// One pass over the pool: clients take the next line from a shared
/// counter, so the load stays closed-loop with one request in flight per
/// client. Returns the replies and the pass's wall time.
fn pass(clients: &mut [Client], pool: &[Line]) -> Result<(Vec<Sent>, u64), String> {
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let sent = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let next = &next;
                s.spawn(move || -> std::io::Result<Vec<Sent>> {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = pool.get(i) else {
                            return Ok(got);
                        };
                        let t = Instant::now();
                        let reply = c.call(&line.text)?;
                        got.push(Sent {
                            line: i,
                            latency_ns: ns_since(t),
                            reply,
                        });
                    }
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            match w.join() {
                Ok(Ok(got)) => all.extend(got),
                Ok(Err(e)) => return Err(format!("client: {e}")),
                Err(_) => return Err("client thread panicked".to_string()),
            }
        }
        Ok(all)
    })?;
    Ok((sent, ns_since(t)))
}

/// A reply with its wall-clock `alloc_ns` fields blanked, re-serialized,
/// so two replies compare equal iff everything else is equal.
fn normalized(reply: &str) -> Result<String, String> {
    fn mask(v: &mut serde::Value) {
        match v {
            serde::Value::Map(entries) => {
                for (k, x) in entries.iter_mut() {
                    if k == "alloc_ns" {
                        *x = serde::Value::Null;
                    } else {
                        mask(x);
                    }
                }
            }
            serde::Value::Seq(xs) => xs.iter_mut().for_each(mask),
            _ => {}
        }
    }
    let mut v: serde::Value = serde_json::from_str(reply.trim_end()).map_err(|e| e.to_string())?;
    mask(&mut v);
    serde_json::to_string(&v).map_err(|e| e.to_string())
}

/// The expected reply to each pool line, from `handle_request` in
/// process, normalized; errors if one is not `ok`, a certificate is not
/// certified, or an audit found a violation.
fn expected_replies(pool: &[Line]) -> Result<Vec<String>, String> {
    pool.iter()
        .map(|line| {
            let req: Request = serde_json::from_str(&line.text).map_err(|e| e.to_string())?;
            let result = handle_request(&req, None)
                .map_err(|e| format!("line {} ({}): {e}", req.id, line.kind))?;
            let verdict = match line.kind {
                "certify" => result.get("certified") == Some(&serde::Value::Bool(true)),
                "audit" => result
                    .get("violations")
                    .and_then(serde::Value::as_seq)
                    .is_some_and(<[serde::Value]>::is_empty),
                _ => true,
            };
            if !verdict {
                return Err(format!("line {} ({}) is not clean", req.id, line.kind));
            }
            normalized(&response_line(req.id, Ok(result)))
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let clients = nproc();

    // Set-up: generate the pool, start the server, connect the clients
    // and send the pool's first block of eight through them, which reaches
    // every handler.
    let (setup_s, ready) = timed_setup(|| -> Result<(Vec<Line>, Server), String> {
        let pool = request_pool(args.seed);
        let mut server = Server::start(clients).map_err(|e| format!("start: {e}"))?;
        pass(&mut server.clients, &pool[..BLOCK.len()]).map_err(|e| format!("warm-up: {e}"))?;
        Ok((pool, server))
    });
    out.set("setup_s", setup_s);
    let (pool, mut server) = match ready {
        Ok(r) => r,
        Err(e) => {
            out.op(false, || e);
            return out;
        }
    };
    let expected = match expected_replies(&pool) {
        Ok(e) => e,
        Err(e) => {
            out.op(false, || e);
            return out;
        }
    };

    let mut latencies: Vec<(usize, u64)> = Vec::new();
    let mut rates = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds {
        let (sent, ns) = match pass(&mut server.clients, &pool) {
            Ok(r) => r,
            Err(e) => {
                out.op(false, || e);
                break;
            }
        };
        for s in &sent {
            let got = normalized(&s.reply);
            let ok = got.as_deref() == Ok(expected[s.line].as_str());
            out.op(ok, || {
                format!(
                    "line {}: reply {:.200} differs from the in-process result",
                    s.line, s.reply
                )
            });
            latencies.push((s.line, s.latency_ns));
        }
        rates.push(sent.len() as f64 / (ns as f64 / 1e9));
    }
    if let Err(e) = server.stop() {
        out.check(false, || e);
    }

    let ms_of = |kind: &str| -> Vec<f64> {
        latencies
            .iter()
            .filter(|(l, _)| kind.is_empty() || pool[*l].kind == kind)
            .map(|(_, ns)| *ns as f64 / 1e6)
            .collect()
    };
    out.set("ops_per_s", median(&rates));
    out.set("part1_ms", median(&ms_of("ratio")));
    out.set("part2_ms", median(&ms_of("certify")));
    out.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        // The served requests are the same in both modes: the layer
        // numbers come from the in-process replay after the loop, so the
        // loop carries no tracing overhead.
        out.set("bench.trace_overhead_pct", 0.0);
        let all = ms_of("");
        out.set("serve.client_p50_ms", median(&all));
        out.set("serve.client_p90_ms", quantile(&all, 0.9));
        out.set("serve.audit_p50_ms", median(&ms_of("audit")));
        let handler_ns = replay(&pool, &mut out);
        let wire: Vec<f64> = latencies
            .iter()
            .map(|(l, ns)| (*ns as f64 - handler_ns[*l]) / 1e6)
            .collect();
        out.set("serve.wire_ms", median(&wire));
    }
    out
}

/// Replay every pool line through the layers in process, timing each
/// call: parse, handle and render (which together are the server's work
/// for the line), then the lower bound, simulations, certificate and
/// audit on their own. Returns the parse + handle + render nanoseconds of
/// each line.
fn replay(pool: &[Line], out: &mut Outcome) -> Vec<f64> {
    let mut tree = SpanTree::default();
    let parse = tree.node("serve.parse", None);
    let render = tree.node("serve.render", None);
    let ratio_span = tree.node("harness.empirical_ratio", None);
    let lp = tree.node("lowerbound.lk_lower_bound", Some(ratio_span));
    let sim = tree.node("simcore.simulate", Some(ratio_span));
    let mut handle_ms: [Vec<f64>; 3] = Default::default();
    let (mut lp_ms, mut ratio_self_ms, mut certify_ms, mut audit_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut phases, mut pops, mut arcs, mut checks) = (0u64, 0u64, 0u64, 0u64);
    let misses_before = tf_harness::lbcache::stats().1;
    let mut per_line = Vec::with_capacity(pool.len());

    for line in pool {
        let t = Instant::now();
        let req: Request = match serde_json::from_str(&line.text) {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("replay parse: {e}"));
                per_line.push(0.0);
                continue;
            }
        };
        let parse_ns = ns_since(t);
        tree.add(parse, 1, parse_ns);
        let t = Instant::now();
        let result = handle_request(&req, None);
        let handle_ns = ns_since(t);
        let t = Instant::now();
        std::hint::black_box(response_line(req.id, result));
        let render_ns = ns_since(t);
        tree.add(render, 1, render_ns);
        per_line.push((parse_ns + handle_ns + render_ns) as f64);

        let trace = Trace::from_pairs(req.trace.iter().copied()).expect("pool traces are valid");
        let (m, speed) = (req.m, tf_core::eta(req.k, req.eps));
        match line.kind {
            "ratio" => {
                handle_ms[0].push(handle_ns as f64 / 1e6);
                let (lp0, sim0) = (tree.total_ns(lp), tree.total_ns(sim));
                let t = Instant::now();
                std::hint::black_box(lk_lower_bound(&trace, m, req.k));
                tree.add(lp, 1, ns_since(t));
                let s = last_solve_stats();
                (phases, pops, arcs) =
                    (phases + s.phases, pops + s.heap_pops, arcs + s.arcs_scanned);
                let runs = std::iter::once((Policy::Rr, speed, SimOptions::default().timed()))
                    .chain(
                        default_baselines()
                            .into_iter()
                            .map(|p| (p, 1.0, SimOptions::default())),
                    );
                for (policy, speed, opts) in runs {
                    let mut alloc = policy.make();
                    let t = Instant::now();
                    let s = simulate(
                        &trace,
                        alloc.as_mut(),
                        MachineConfig::with_speed(m, speed),
                        opts,
                    );
                    tree.add(sim, 1, ns_since(t));
                    out.check(s.is_ok(), || format!("{policy} failed on line {}", req.id));
                }
                let t = Instant::now();
                std::hint::black_box(empirical_ratio(
                    &trace,
                    Policy::Rr,
                    m,
                    speed,
                    req.k,
                    &default_baselines(),
                ));
                let whole = ns_since(t);
                tree.add(ratio_span, 1, whole);
                let parts = (tree.total_ns(lp) - lp0) + (tree.total_ns(sim) - sim0);
                lp_ms.push((tree.total_ns(lp) - lp0) as f64 / 1e6);
                ratio_self_ms.push((whole as f64 - parts as f64) / 1e6);
            }
            "certify" => {
                handle_ms[1].push(handle_ns as f64 / 1e6);
                let t = Instant::now();
                let cert = tf_core::verify_theorem1_at_speed(&trace, m, req.k, req.eps, speed);
                certify_ms.push(ns_since(t) as f64 / 1e6);
                out.check(cert.is_ok_and(|c| c.certified()), || {
                    format!("line {} does not certify in replay", req.id)
                });
            }
            _ => {
                handle_ms[2].push(handle_ns as f64 / 1e6);
                let cfg = AuditConfig {
                    k: req.k,
                    eps: req.eps,
                    ..AuditConfig::default()
                };
                let t = Instant::now();
                let rep = audit_trace(&trace, m, 1.0, &Policy::all(), &cfg);
                audit_ms.push(ns_since(t) as f64 / 1e6);
                checks += rep.checks_run as u64;
                out.check(rep.ok(), || {
                    format!("line {} fails its audit in replay", req.id)
                });
            }
        }
    }

    out.set("serve.parse_us", tree.mean_ns(parse) / 1e3);
    out.set("serve.render_us", tree.mean_ns(render) / 1e3);
    out.set("serve.handle_ratio_ms", median(&handle_ms[0]));
    out.set("serve.handle_certify_ms", median(&handle_ms[1]));
    out.set("serve.handle_audit_ms", median(&handle_ms[2]));
    out.set("lowerbound.lp_ms", median(&lp_ms));
    out.set("lowerbound.mcmf_phases", phases as f64);
    out.set("lowerbound.mcmf_heap_pops", pops as f64);
    out.set("lowerbound.mcmf_arcs_scanned", arcs as f64);
    out.set("simcore.simulate_ns", tree.mean_ns(sim));
    out.set("harness.ratio_self_ms", median(&ratio_self_ms));
    out.set("core.certify_ms", median(&certify_ms));
    out.set("audit.audit_ms", median(&audit_ms));
    out.set("audit.checks_run", checks as f64);
    out.set(
        "harness.lbcache_misses",
        (tf_harness::lbcache::stats().1 - misses_before) as f64,
    );
    per_line
}
