//! Workload generator for `ntr-serve`.
//!
//! Spawns the server as a child process speaking the stdio protocol,
//! drives it with randomly generated nets (a configurable fraction are
//! repeats, to exercise the result cache), and reports throughput,
//! client-side latency percentiles, and cache hit rate.
//!
//! ```text
//! ntr-loadgen --stdio --smoke            # CI gate: 50 requests, no errors, valid /metrics
//! ntr-loadgen --stdio --chaos [--smoke]  # fault-injection gate: degrade, never fail
//! ntr-loadgen --stdio --sessions [--smoke]  # incremental-rerouting session gate
//! ntr-loadgen --stdio [--nets N] [--size K] [--repeat F] [--workers N]
//!             [--rate R] [--seed S] [--serve-bin PATH]
//! ```
//!
//! `--chaos` spawns the server under an `NTR_FAULTS` plan that fails
//! **every** transient-fidelity oracle call and randomly stalls workers,
//! then sends v2 requests asking for the `transient-fast` oracle under a
//! tight deadline. The gate asserts the resilience contract: zero hard
//! failures (every request answers `ok`), every response degraded below
//! transient fidelity, and the degradation/retry counters present in the
//! Prometheus exposition. `--chaos --smoke` is the small-N CI variant.
//! A second act drives a deterministic SLO alert cycle against a fresh
//! server: hard failures under the fault plan must make the
//! availability burn-rate alert fire exactly once, and retiring the
//! plan must clear it exactly once.
//!
//! `--sessions` drives the incremental-rerouting protocol: session
//! create → mutate → reroute → close cycles where every delta reroute
//! must answer `ok` via the refactor rung of the decision ladder, the
//! session counters must balance at the end (created == closed, zero
//! active), every session op must land in the flight recorder, and an
//! unknown-handle probe must answer the structured `session` error and
//! be retained as a flagged journal exemplar. `--sessions --smoke` is
//! the small-N CI variant.
//!
//! The generator enforces a client-side in-flight window smaller than
//! the server's queue, so a healthy run never trips backpressure; an
//! `overloaded` response therefore counts as an error here.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ntr_geom::Layout;
use ntr_obs::prometheus::check_exposition;
use ntr_server::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: ntr-loadgen --stdio [--smoke | --chaos [--smoke] | --sessions [--smoke]]\n\
         \x20                [--nets N]      requests to send (default 150)\n\
         \x20                [--size K]      pins per net (default 20)\n\
         \x20                [--repeat F]    fraction of repeated nets 0..1 (default 0.2)\n\
         \x20                [--workers N]   server workers for a plain run (default 4)\n\
         \x20                [--rate R]      target requests/sec (default: unpaced)\n\
         \x20                [--seed S]      workload seed (default 1994)\n\
         \x20                [--serve-bin P] path to ntr-serve (default: sibling binary)\n\
         \n\
         --chaos runs the fault-injection gate (with --smoke: the small CI variant):\n\
         the server is spawned under a 100%-transient-fault NTR_FAULTS plan and every\n\
         request must still answer ok at a degraded fidelity.\n\
         \n\
         --sessions runs the incremental-rerouting gate (with --smoke: the small CI\n\
         variant): create -> mutate -> reroute -> close cycles must all answer ok,\n\
         delta reroutes must reuse the cached factorization, the session counters\n\
         must balance in /metrics, and every op must be journaled."
    );
    std::process::exit(2);
}

/// SplitMix64: deterministic repeat/pick decisions without a rand dep.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Clone, Copy)]
struct Workload {
    nets: usize,
    size: usize,
    repeat: f64,
    seed: u64,
}

/// Pre-renders the request lines: a mixed LDRG/H1 stream where a
/// `repeat` fraction re-sends an earlier net (same pins, same options →
/// same cache key).
fn generate_requests(w: Workload) -> Vec<String> {
    let layout = Layout::date94();
    let mut rng = SplitMix64(w.seed ^ 0x6e74_722d_6c67); // "ntr-lg"
    let mut gen = ntr_geom::NetGenerator::new(layout, w.seed);
    let mut nets: Vec<(String, &'static str)> = Vec::with_capacity(w.nets);
    let mut lines = Vec::with_capacity(w.nets);
    for i in 0..w.nets {
        let (pins_json, algorithm) = if !nets.is_empty() && rng.unit() < w.repeat {
            nets[(rng.next() as usize) % nets.len()].clone()
        } else {
            let net = gen
                .random_net(w.size)
                .expect("layout admits nets of this size");
            let pins = Json::Arr(
                net.pins()
                    .iter()
                    .map(|p| Json::Arr(vec![Json::Num(p.x), Json::Num(p.y)]))
                    .collect(),
            );
            let algorithm = if nets.len().is_multiple_of(2) {
                "ldrg"
            } else {
                "h1"
            };
            let fresh = (pins.to_line(), algorithm);
            nets.push(fresh.clone());
            fresh
        };
        lines.push(format!(
            r#"{{"op":"route","id":{i},"algorithm":"{algorithm}","oracle":"moment","pins":{pins_json}}}"#
        ));
    }
    lines
}

#[derive(Default)]
struct Progress {
    pending: HashMap<u64, Instant>,
    latencies_us: Vec<u64>,
    ok: usize,
    errors: usize,
    cached: usize,
    /// ok responses by their `fidelity` field (absent → "unknown").
    fidelities: HashMap<String, usize>,
    /// Trace ids of ok responses that reported `degraded: true` — the
    /// chaos gate checks each one against the journal's exemplars.
    degraded_traces: Vec<u64>,
    stats: Option<Json>,
    metrics: Option<Json>,
    journal: Option<Json>,
    reader_done: bool,
}

struct RunResult {
    ok: usize,
    errors: usize,
    cached: usize,
    fidelities: HashMap<String, usize>,
    wall: Duration,
    latencies_us: Vec<u64>,
    degraded_traces: Vec<u64>,
    server_stats: Option<Json>,
    metrics_body: Option<String>,
    journal: Option<Json>,
}

impl RunResult {
    fn nets_per_sec(&self) -> f64 {
        self.ok as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    fn cache_hit_rate(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.cached as f64 / self.ok as f64
        }
    }
}

fn locate_serve_bin(explicit: Option<&str>) -> PathBuf {
    if let Some(path) = explicit {
        return PathBuf::from(path);
    }
    let mut path = std::env::current_exe().expect("current_exe is readable");
    path.set_file_name("ntr-serve");
    path
}

fn spawn_server(
    serve_bin: &PathBuf,
    workers: usize,
    queue: usize,
    faults: Option<&str>,
    slos: Option<&str>,
) -> std::io::Result<Child> {
    let mut command = Command::new(serve_bin);
    command
        .args([
            "--stdio",
            "--workers",
            &workers.to_string(),
            "--queue",
            &queue.to_string(),
        ])
        // Never inherit a fault plan or SLO list from the invoking shell.
        .env_remove("NTR_FAULTS")
        .env_remove("NTR_SLOS")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(plan) = faults {
        command.env("NTR_FAULTS", plan);
    }
    if let Some(list) = slos {
        command.env("NTR_SLOS", list);
    }
    command.spawn()
}

const QUEUE_DEPTH: usize = 64;
const WINDOW: usize = 32; // in-flight cap, deliberately below QUEUE_DEPTH
const RUN_TIMEOUT: Duration = Duration::from_secs(600);

fn run_against_server(
    serve_bin: &PathBuf,
    workers: usize,
    requests: &[String],
    rate: Option<f64>,
    faults: Option<&str>,
) -> Result<RunResult, String> {
    let mut child = spawn_server(serve_bin, workers, QUEUE_DEPTH, faults, None)
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = child.stdout.take().expect("stdout piped");

    let shared = Arc::new((Mutex::new(Progress::default()), Condvar::new()));
    let reader = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let Ok(doc) = Json::parse(&line) else {
                    continue;
                };
                let (state, changed) = &*shared;
                let mut s = state.lock().expect("progress mutex poisoned");
                if doc.get("op").and_then(Json::as_str) == Some("stats") {
                    s.stats = Some(doc);
                } else if doc.get("op").and_then(Json::as_str) == Some("metrics") {
                    s.metrics = Some(doc);
                } else if doc.get("op").and_then(Json::as_str) == Some("journal") {
                    s.journal = Some(doc);
                } else if doc.get("op").and_then(Json::as_str) == Some("shutdown") {
                    // ack only
                } else {
                    let id = doc.get("id").and_then(Json::as_f64).map(|v| v as u64);
                    let sent = id.and_then(|id| s.pending.remove(&id));
                    if doc.get("ok").and_then(Json::as_bool) == Some(true) {
                        s.ok += 1;
                        let fidelity = doc
                            .get("fidelity")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_owned();
                        *s.fidelities.entry(fidelity).or_insert(0) += 1;
                        if doc.get("degraded").and_then(Json::as_bool) == Some(true) {
                            if let Some(t) = doc.get("trace").and_then(Json::as_f64) {
                                s.degraded_traces.push(t as u64);
                            }
                        }
                        if doc.get("cached").and_then(Json::as_bool) == Some(true) {
                            s.cached += 1;
                        } else if let Some(sent) = sent {
                            s.latencies_us.push(sent.elapsed().as_micros() as u64);
                        }
                    } else {
                        s.errors += 1;
                        let code = doc.get("error").and_then(Json::as_str).unwrap_or("?");
                        let detail = doc.get("detail").and_then(Json::as_str).unwrap_or("");
                        eprintln!("ntr-loadgen: error response {code}: {detail}");
                    }
                }
                changed.notify_all();
            }
            let (state, changed) = &*shared;
            state.lock().expect("progress mutex poisoned").reader_done = true;
            changed.notify_all();
        })
    };

    let start = Instant::now();
    let (state, changed) = &*shared;
    for (i, line) in requests.iter().enumerate() {
        if let Some(rate) = rate {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        {
            let mut s = state.lock().expect("progress mutex poisoned");
            while s.pending.len() >= WINDOW && !s.reader_done {
                let (next, timeout) = changed
                    .wait_timeout(s, Duration::from_secs(5))
                    .expect("progress mutex poisoned");
                s = next;
                if timeout.timed_out() && start.elapsed() > RUN_TIMEOUT {
                    return Err("timed out waiting for the in-flight window".to_owned());
                }
            }
            if s.reader_done {
                return Err("server exited before the run completed".to_owned());
            }
            s.pending.insert(i as u64, Instant::now());
        }
        writeln!(stdin, "{line}").map_err(|e| format!("write: {e}"))?;
    }
    // Drain all in-flight responses.
    {
        let mut s = state.lock().expect("progress mutex poisoned");
        while !s.pending.is_empty() && !s.reader_done {
            let (next, timeout) = changed
                .wait_timeout(s, Duration::from_secs(5))
                .expect("progress mutex poisoned");
            s = next;
            if timeout.timed_out() && start.elapsed() > RUN_TIMEOUT {
                return Err("timed out draining responses".to_owned());
            }
        }
    }
    let wall = start.elapsed();

    // Collect server-side counters, the Prometheus exposition, and the
    // flight-recorder snapshot, then shut down and reap.
    writeln!(stdin, r#"{{"op":"stats"}}"#).map_err(|e| format!("write: {e}"))?;
    writeln!(stdin, r#"{{"op":"metrics"}}"#).map_err(|e| format!("write: {e}"))?;
    writeln!(stdin, r#"{{"op":"journal"}}"#).map_err(|e| format!("write: {e}"))?;
    {
        let mut s = state.lock().expect("progress mutex poisoned");
        while (s.stats.is_none() || s.metrics.is_none() || s.journal.is_none()) && !s.reader_done {
            let (next, timeout) = changed
                .wait_timeout(s, Duration::from_secs(5))
                .expect("progress mutex poisoned");
            s = next;
            if timeout.timed_out() {
                break;
            }
        }
    }
    let _ = writeln!(stdin, r#"{{"op":"shutdown"}}"#);
    drop(stdin);
    let _ = reader.join();
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("server exited with {status}"));
    }

    let s = state.lock().expect("progress mutex poisoned");
    Ok(RunResult {
        ok: s.ok,
        errors: s.errors,
        cached: s.cached,
        fidelities: s.fidelities.clone(),
        wall,
        latencies_us: s.latencies_us.clone(),
        degraded_traces: s.degraded_traces.clone(),
        server_stats: s.stats.clone(),
        metrics_body: s
            .metrics
            .as_ref()
            .and_then(|m| m.get("body").and_then(Json::as_str))
            .map(str::to_owned),
        journal: s.journal.clone(),
    })
}

fn print_summary(label: &str, r: &RunResult) {
    println!(
        "{label}: {} ok, {} errors, {} cached ({:.0}% hit), {:.1} nets/s, \
         latency p50 {} us / p90 {} us / p99 {} us",
        r.ok,
        r.errors,
        r.cached,
        r.cache_hit_rate() * 100.0,
        r.nets_per_sec(),
        r.percentile_us(50.0),
        r.percentile_us(90.0),
        r.percentile_us(99.0),
    );
    if let Some(stats) = &r.server_stats {
        let field = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  server: {} completed, {} cache hits / {} misses, {} deadline, {} overloaded",
            field("completed"),
            field("cache_hits"),
            field("cache_misses"),
            field("deadline_expired"),
            field("overloaded"),
        );
    }
    print_journal_report(r);
}

/// Reads a numeric wide-event field, defaulting missing/NaN to 0.
fn event_num(event: &Json, key: &str) -> u64 {
    event.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// End-of-run flight-recorder report: counts from the server's
/// `{"op":"journal"}` snapshot, then the top-5 slowest journaled
/// requests with their wide-event fields.
fn print_journal_report(r: &RunResult) {
    let Some(journal) = &r.journal else {
        println!("  journal: no snapshot from the server");
        return;
    };
    println!(
        "  journal: {} requests / {} iterations / {} exemplars retained \
         ({} recorded, {} dropped)",
        event_num(journal, "requests"),
        event_num(journal, "iterations"),
        event_num(journal, "exemplars"),
        event_num(journal, "requests_recorded"),
        event_num(journal, "requests_dropped"),
    );
    let Some(events) = journal.get("request_events").and_then(Json::as_arr) else {
        return;
    };
    let mut slowest: Vec<&Json> = events.iter().collect();
    slowest.sort_by_key(|e| std::cmp::Reverse(event_num(e, "total_us")));
    for event in slowest.iter().take(5) {
        let text = |k: &str| event.get(k).and_then(Json::as_str).unwrap_or("?");
        println!(
            "    trace {} {} {} {}->{} total {} us (queue {} / route {}) \
             degraded {} retries {} faults {}{}",
            event_num(event, "trace"),
            text("algorithm"),
            text("outcome"),
            text("fidelity_requested"),
            text("fidelity_served"),
            event_num(event, "total_us"),
            event_num(event, "queue_us"),
            event_num(event, "route_us"),
            event_num(event, "degradation_steps"),
            event_num(event, "retries"),
            event_num(event, "injected_faults"),
            if event.get("cache_hit").and_then(Json::as_bool) == Some(true) {
                " (cache hit)"
            } else {
                ""
            },
        );
    }
}

fn smoke(serve_bin: &PathBuf, seed: u64) -> i32 {
    let requests = generate_requests(Workload {
        nets: 50,
        size: 6,
        repeat: 0.3,
        seed,
    });
    match run_against_server(serve_bin, 2, &requests, None, None) {
        Ok(r) => {
            print_summary("smoke", &r);
            if r.errors > 0 {
                eprintln!("smoke FAILED: {} error responses", r.errors);
                return 1;
            }
            if r.ok != requests.len() {
                eprintln!("smoke FAILED: {}/{} answered", r.ok, requests.len());
                return 1;
            }
            if r.cached == 0 {
                eprintln!("smoke FAILED: no cache hits on a 30%-repeat workload");
                return 1;
            }
            // The scrape surface is part of the gate: the exposition must
            // pass the in-repo checker and carry the request counters.
            let Some(body) = &r.metrics_body else {
                eprintln!("smoke FAILED: no metrics exposition from the server");
                return 1;
            };
            if let Err(e) = check_exposition(body) {
                eprintln!("smoke FAILED: invalid Prometheus exposition: {e}");
                return 1;
            }
            let expected = format!("ntr_requests_received_total {}", requests.len());
            if !body.contains(&expected) {
                eprintln!("smoke FAILED: exposition missing {expected:?}");
                return 1;
            }
            println!("smoke OK ({} metrics bytes validated)", body.len());
            0
        }
        Err(e) => {
            eprintln!("smoke FAILED: {e}");
            1
        }
    }
}

/// The chaos plan: every transient-fidelity oracle call fails, workers
/// randomly stall for 2 ms. Deterministic across runs via its seed.
const CHAOS_PLAN: &str = "seed=1994;fail=transient:1.0;stall=0.05:2";

/// Chaos requests use the v2 grouped layout: `transient-fast` oracle,
/// caching off so every request exercises the degradation path itself.
/// The stream alternates the two pressure modes: even ids carry a 50 ms
/// deadline the cost model preempts (descend before the oracle runs),
/// odd ids carry no deadline so the injected faults actually fire and
/// the retry budget is spent before the ladder descends.
fn generate_chaos_requests(w: Workload) -> Vec<String> {
    let mut gen = ntr_geom::NetGenerator::new(Layout::date94(), w.seed);
    (0..w.nets)
        .map(|i| {
            let net = gen
                .random_net(w.size)
                .expect("layout admits nets of this size");
            let pins = Json::Arr(
                net.pins()
                    .iter()
                    .map(|p| Json::Arr(vec![Json::Num(p.x), Json::Num(p.y)]))
                    .collect(),
            )
            .to_line();
            let budget = if i.is_multiple_of(2) {
                r#"{"deadline_ms":50,"retries":2,"degrade":true}"#
            } else {
                r#"{"retries":2,"degrade":true}"#
            };
            format!(
                r#"{{"op":"route","id":{i},"algorithm":"ldrg","params":{{"oracle":"transient-fast","cache":false}},"budget":{budget},"pins":{pins}}}"#
            )
        })
        .collect()
}

/// The resilience gate: under 100% transient-fault injection and worker
/// stalls, every request must still answer `ok` at a degraded fidelity,
/// with bounded tail latency and the new counters visible in `/metrics`.
fn chaos(serve_bin: &PathBuf, seed: u64, smoke_variant: bool) -> i32 {
    let requests = generate_chaos_requests(Workload {
        nets: if smoke_variant { 40 } else { 150 },
        size: if smoke_variant { 6 } else { 12 },
        repeat: 0.0,
        seed,
    });
    let label = if smoke_variant {
        "chaos-smoke"
    } else {
        "chaos"
    };
    let r = match run_against_server(serve_bin, 2, &requests, None, Some(CHAOS_PLAN)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{label} FAILED: {e}");
            return 1;
        }
    };
    print_summary(label, &r);
    let mut fidelities: Vec<_> = r.fidelities.iter().collect();
    fidelities.sort();
    for (fidelity, count) in fidelities {
        println!("  fidelity {fidelity}: {count}");
    }
    let mut failures = Vec::new();
    if r.errors > 0 {
        failures.push(format!("{} hard failures (want 0)", r.errors));
    }
    if r.ok != requests.len() {
        failures.push(format!("{}/{} answered ok", r.ok, requests.len()));
    }
    let at = |f: &str| r.fidelities.get(f).copied().unwrap_or(0);
    // The plan fails every transient-rung call, so nothing may be
    // served at transient fidelity — and with retries exhausted, every
    // request must land on the moment rung (or the tree floor if the
    // deadline also collapsed).
    if at("transient") + at("transient-fast") > 0 {
        failures.push(format!(
            "{} responses served at transient fidelity under a 100% fault plan",
            at("transient") + at("transient-fast")
        ));
    }
    if at("moment") == 0 {
        failures.push("no responses degraded to the moment rung".to_owned());
    }
    if at("unknown") > 0 {
        failures.push(format!(
            "{} responses missing a fidelity field",
            at("unknown")
        ));
    }
    let p99 = r.percentile_us(99.0);
    if p99 > 500_000 {
        failures.push(format!("p99 {p99} us exceeds the 500 ms bound"));
    }
    match &r.metrics_body {
        None => failures.push("no metrics exposition from the server".to_owned()),
        Some(body) => {
            if let Err(e) = check_exposition(body) {
                failures.push(format!("invalid Prometheus exposition: {e}"));
            }
            for metric in [
                "ntr_requests_degraded_total",
                "ntr_retries_total",
                "ntr_faults_injected_total",
            ] {
                // Present with a nonzero value: the fault plan fired and
                // the resilience layer absorbed it.
                if !body.lines().any(|l| {
                    l.starts_with(metric) && l.split_whitespace().nth(1).is_some_and(|v| v != "0")
                }) {
                    failures.push(format!("exposition missing a nonzero {metric}"));
                }
            }
        }
    }
    // Flight-recorder gate: every degraded response must be retained as
    // a full exemplar in the journal. The flagged-exemplar store (256)
    // is larger than the chaos workload, so nothing may be evicted.
    match &r.journal {
        None => failures.push("no flight-recorder snapshot from the server".to_owned()),
        Some(journal) => {
            let exemplar_traces: HashSet<u64> = journal
                .get("exemplar_events")
                .and_then(Json::as_arr)
                .map(|events| events.iter().map(|e| event_num(e, "trace")).collect())
                .unwrap_or_default();
            if r.degraded_traces.is_empty() {
                failures.push("no degraded responses to check against the journal".to_owned());
            }
            let missing = r
                .degraded_traces
                .iter()
                .filter(|t| !exemplar_traces.contains(t))
                .count();
            if missing > 0 {
                failures.push(format!(
                    "{missing}/{} degraded responses have no journal exemplar",
                    r.degraded_traces.len()
                ));
            }
        }
    }
    // Second act: the burn-rate alert cycle — the availability SLO must
    // fire under the fault plan and clear after it is retired, each
    // exactly once.
    if chaos_alert_cycle(serve_bin, seed) != 0 {
        failures.push("the SLO alert-cycle gate failed".to_owned());
    }
    if failures.is_empty() {
        println!("{label} OK: all {} requests degraded gracefully", r.ok);
        0
    } else {
        for f in &failures {
            eprintln!("{label} FAILED: {f}");
        }
        1
    }
}

/// The SLO driven by the alert-cycle gate: a 99% availability objective
/// over a 60 s window with 2 s fast / 8 s slow burn windows, so the
/// whole fire-and-clear cycle completes in seconds rather than hours.
const ALERT_SLO: &str = "chaos-gate=availability:99:60s:2s:8s";
const ALERT_SLO_NAME: &str = "chaos-gate";

/// Pulls the gate's alert out of an `{"op":"alerts"}` response.
fn find_alert<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("alerts")?
        .as_arr()?
        .iter()
        .find(|a| a.get("name").and_then(Json::as_str) == Some(name))
}

/// Receives parsed response lines until `pred` accepts one, discarding
/// the rest. `None` on timeout or a closed pipe.
fn await_doc(
    rx: &mpsc::Receiver<Json>,
    mut pred: impl FnMut(&Json) -> bool,
    timeout: Duration,
) -> Option<Json> {
    let deadline = Instant::now() + timeout;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        match rx.recv_timeout(deadline - now) {
            Ok(doc) if pred(&doc) => return Some(doc),
            Ok(_) => {}
            Err(_) => return None,
        }
    }
}

/// The burn-rate alert-cycle gate: under a 100% transient-fault plan,
/// zero-retry no-degradation requests fail hard and burn the
/// availability error budget, so the SLO's multi-window alert must
/// *fire*; retiring the fault plan and sending healthy traffic must
/// *clear* it. The transition counters are asserted exactly — one fire,
/// one clear — because the error phase is a single contiguous burst.
fn chaos_alert_cycle(serve_bin: &PathBuf, seed: u64) -> i32 {
    let label = "chaos-alerts";
    let fail = |why: &str| {
        eprintln!("{label} FAILED: {why}");
        1
    };
    let mut child = match spawn_server(serve_bin, 2, QUEUE_DEPTH, Some(CHAOS_PLAN), Some(ALERT_SLO))
    {
        Ok(child) => child,
        Err(e) => return fail(&format!("spawn: {e}")),
    };
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = child.stdout.take().expect("stdout piped");
    let (tx, rx) = mpsc::channel::<Json>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if let Ok(doc) = Json::parse(&line) {
                if tx.send(doc).is_err() {
                    break;
                }
            }
        }
    });

    let mut gen = ntr_geom::NetGenerator::new(Layout::date94(), seed);
    let mut next_id = 0u64;
    let mut pins_line = move || {
        let net = gen.random_net(6).expect("layout admits nets of this size");
        Json::Arr(
            net.pins()
                .iter()
                .map(|p| Json::Arr(vec![Json::Num(p.x), Json::Num(p.y)]))
                .collect(),
        )
        .to_line()
    };
    let response_timeout = Duration::from_secs(20);

    // Phase 1 — burn the error budget. Every request asks for the
    // transient-fast rung the plan fails 100% of the time, with retries
    // and degradation off, so each one is a hard `route_error`.
    let phase_deadline = Instant::now() + Duration::from_secs(30);
    let mut snapshot: Option<Json> = None;
    while Instant::now() < phase_deadline {
        for _ in 0..4 {
            let id = next_id;
            next_id += 1;
            let pins = pins_line();
            if writeln!(
                stdin,
                r#"{{"op":"route","id":{id},"algorithm":"ldrg","params":{{"oracle":"transient-fast","cache":false}},"budget":{{"retries":0,"degrade":false}},"pins":{pins}}}"#
            )
            .is_err()
            {
                return fail("server stdin closed during the burn phase");
            }
            if await_doc(&rx, |d| d.get("id").is_some(), response_timeout).is_none() {
                return fail("no response to a burn-phase request");
            }
        }
        let _ = writeln!(stdin, r#"{{"op":"alerts"}}"#);
        let Some(doc) = await_doc(
            &rx,
            |d| d.get("op").and_then(Json::as_str) == Some("alerts"),
            response_timeout,
        ) else {
            return fail("no alerts response during the burn phase");
        };
        let firing = find_alert(&doc, ALERT_SLO_NAME)
            .is_some_and(|a| a.get("firing").and_then(Json::as_bool) == Some(true));
        if firing {
            snapshot = Some(doc);
            break;
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    let Some(doc) = snapshot else {
        return fail("the availability alert never fired under a 100% fault plan");
    };
    let counter = |doc: &Json, key: &str| {
        find_alert(doc, ALERT_SLO_NAME)
            .and_then(|a| a.get(key).and_then(Json::as_f64))
            .unwrap_or(-1.0) as i64
    };
    println!(
        "{label}: alert fired (fast {:.1}x) after {} hard failures",
        find_alert(&doc, ALERT_SLO_NAME)
            .and_then(|a| a.get("fast_burn").and_then(Json::as_f64))
            .unwrap_or(0.0),
        next_id
    );

    // Phase 2 — retire the fault plan, then keep healthy traffic
    // flowing until the bad seconds age out of the slow window and the
    // alert clears.
    let _ = writeln!(stdin, r#"{{"op":"faults","plan":""}}"#);
    if await_doc(
        &rx,
        |d| d.get("op").and_then(Json::as_str) == Some("faults"),
        response_timeout,
    )
    .is_none()
    {
        return fail("no response to retiring the fault plan");
    }
    let phase_deadline = Instant::now() + Duration::from_secs(30);
    let mut cleared: Option<Json> = None;
    while Instant::now() < phase_deadline {
        for _ in 0..2 {
            let id = next_id;
            next_id += 1;
            let pins = pins_line();
            if writeln!(
                stdin,
                r#"{{"op":"route","id":{id},"algorithm":"ldrg","params":{{"oracle":"moment","cache":false}},"pins":{pins}}}"#
            )
            .is_err()
            {
                return fail("server stdin closed during the recovery phase");
            }
            if await_doc(&rx, |d| d.get("id").is_some(), response_timeout).is_none() {
                return fail("no response to a recovery-phase request");
            }
        }
        let _ = writeln!(stdin, r#"{{"op":"alerts"}}"#);
        let Some(doc) = await_doc(
            &rx,
            |d| d.get("op").and_then(Json::as_str) == Some("alerts"),
            response_timeout,
        ) else {
            return fail("no alerts response during the recovery phase");
        };
        let done = find_alert(&doc, ALERT_SLO_NAME).is_some_and(|a| {
            a.get("firing").and_then(Json::as_bool) == Some(false)
                && a.get("cleared_total").and_then(Json::as_f64) == Some(1.0)
        });
        if done {
            cleared = Some(doc);
            break;
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    let _ = writeln!(stdin, r#"{{"op":"shutdown"}}"#);
    drop(stdin);
    let _ = reader.join();
    let _ = child.wait();

    let Some(doc) = cleared else {
        return fail("the alert never cleared after the fault plan was retired");
    };
    // Exactly one transition each way: the burst fired it once, the
    // recovery cleared it once, and nothing flapped in between.
    let (fired, cleared) = (counter(&doc, "fired_total"), counter(&doc, "cleared_total"));
    if (fired, cleared) != (1, 1) {
        return fail(&format!(
            "expected exactly one fire and one clear, got fired_total={fired} cleared_total={cleared}"
        ));
    }
    println!("{label} OK: alert fired once and cleared once");
    0
}

/// The incremental-rerouting gate: drives create → mutate → reroute →
/// close session cycles against a live server and asserts the session
/// contract end to end — every op answers `ok`, single move-pin deltas
/// reroute down the refactor rung (same topology, refreshed
/// factorization) rather than from scratch, the session counters
/// balance in the stats and `/metrics` expositions, every session op
/// lands in the flight recorder as a wide event, and an unknown-handle
/// probe answers the structured `session` error *and* is retained as a
/// flagged journal exemplar.
#[allow(clippy::too_many_lines)]
fn sessions_gate(serve_bin: &PathBuf, seed: u64, smoke_variant: bool) -> i32 {
    let label = if smoke_variant {
        "sessions-smoke"
    } else {
        "sessions"
    };
    let fail = |why: &str| {
        eprintln!("{label} FAILED: {why}");
        1
    };
    let (cycles, reroutes_per) = if smoke_variant { (6, 4) } else { (24, 6) };
    let size = 8usize;
    let mut child = match spawn_server(serve_bin, 2, QUEUE_DEPTH, None, None) {
        Ok(child) => child,
        Err(e) => return fail(&format!("spawn: {e}")),
    };
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = child.stdout.take().expect("stdout piped");
    let (tx, rx) = mpsc::channel::<Json>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if let Ok(doc) = Json::parse(&line) {
                if tx.send(doc).is_err() {
                    break;
                }
            }
        }
    });
    let response_timeout = Duration::from_secs(20);
    let await_id = |want: u64| {
        await_doc(
            &rx,
            |d| d.get("id").and_then(Json::as_f64) == Some(want as f64),
            response_timeout,
        )
    };

    let mut gen = ntr_geom::NetGenerator::new(Layout::date94(), seed);
    let mut next_id = 0u64;
    let mut path_counts: HashMap<String, usize> = HashMap::new();
    let mut reroute_us: Vec<u64> = Vec::new();
    let mut session_ops = 0usize;
    let started = Instant::now();

    for cycle in 0..cycles {
        let net = gen
            .random_net(size)
            .expect("layout admits nets of this size");
        let mut pins: Vec<(f64, f64)> = net.pins().iter().map(|p| (p.x, p.y)).collect();
        let pins_json = Json::Arr(
            pins.iter()
                .map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)]))
                .collect(),
        )
        .to_line();

        next_id += 1;
        let id = next_id;
        if writeln!(
            stdin,
            r#"{{"op":"session.create","id":{id},"algorithm":"ldrg","params":{{"oracle":"moment"}},"pins":{pins_json}}}"#
        )
        .is_err()
        {
            return fail("server stdin closed on session.create");
        }
        session_ops += 1;
        let Some(created) = await_id(id) else {
            return fail("no response to session.create");
        };
        if created.get("ok") != Some(&Json::Bool(true)) {
            return fail(&format!("session.create answered {created}"));
        }
        let Some(handle) = created.get("session").and_then(Json::as_f64) else {
            return fail(&format!("session.create response has no handle: {created}"));
        };
        let handle = handle as u64;

        for r in 0..reroutes_per {
            // Bounce a sink back and forth so the pin set never drifts
            // far from the layout the net was generated on; pin 0 (the
            // source) is never moved.
            let pin = 1 + (cycle + r) % (size - 1);
            let dx = if (cycle + r) % 2 == 0 { 35.0 } else { -35.0 };
            let to = (pins[pin].0 + dx, pins[pin].1);
            pins[pin] = to;
            next_id += 1;
            let id = next_id;
            if writeln!(
                stdin,
                r#"{{"op":"session.mutate","id":{id},"session":{handle},"ops":[{{"op":"move_pin","pin":{pin},"to":[{},{}]}}]}}"#,
                to.0, to.1
            )
            .is_err()
            {
                return fail("server stdin closed on session.mutate");
            }
            session_ops += 1;
            let Some(mutated) = await_id(id) else {
                return fail("no response to session.mutate");
            };
            if mutated.get("ok") != Some(&Json::Bool(true))
                || mutated.get("applied").and_then(Json::as_f64) != Some(1.0)
            {
                return fail(&format!("session.mutate answered {mutated}"));
            }

            next_id += 1;
            let id = next_id;
            let sent = Instant::now();
            if writeln!(
                stdin,
                r#"{{"op":"session.reroute","id":{id},"session":{handle}}}"#
            )
            .is_err()
            {
                return fail("server stdin closed on session.reroute");
            }
            session_ops += 1;
            let Some(rerouted) = await_id(id) else {
                return fail("no response to session.reroute");
            };
            reroute_us.push(sent.elapsed().as_micros() as u64);
            if rerouted.get("ok") != Some(&Json::Bool(true)) {
                return fail(&format!("session.reroute answered {rerouted}"));
            }
            let Some(path) = rerouted.get("path").and_then(Json::as_str) else {
                return fail(&format!("session.reroute response has no path: {rerouted}"));
            };
            *path_counts.entry(path.to_owned()).or_insert(0) += 1;
        }

        next_id += 1;
        let id = next_id;
        if writeln!(
            stdin,
            r#"{{"op":"session.close","id":{id},"session":{handle}}}"#
        )
        .is_err()
        {
            return fail("server stdin closed on session.close");
        }
        session_ops += 1;
        let Some(closed) = await_id(id) else {
            return fail("no response to session.close");
        };
        let closed_n = |key: &str| closed.get(key).and_then(Json::as_f64).unwrap_or(-1.0) as i64;
        if closed.get("ok") != Some(&Json::Bool(true))
            || closed_n("mutations") != reroutes_per as i64
            || closed_n("reroutes") != reroutes_per as i64
        {
            return fail(&format!(
                "session.close final stats are off (want {reroutes_per} mutations and reroutes): {closed}"
            ));
        }
    }

    // The structured-error probe: an unknown handle must answer the
    // `session` error code, not a crash or a silent drop.
    next_id += 1;
    let probe_id = next_id;
    if writeln!(
        stdin,
        r#"{{"op":"session.reroute","id":{probe_id},"session":999983}}"#
    )
    .is_err()
    {
        return fail("server stdin closed on the unknown-session probe");
    }
    session_ops += 1;
    let Some(probe) = await_id(probe_id) else {
        return fail("no response to the unknown-session probe");
    };
    if probe.get("error").and_then(Json::as_str) != Some("session") {
        return fail(&format!(
            "unknown-session probe wanted the structured \"session\" error, got {probe}"
        ));
    }

    // End-of-run server-side introspection: stats, metrics, journal.
    let _ = writeln!(stdin, r#"{{"op":"stats"}}"#);
    let stats = await_doc(
        &rx,
        |d| d.get("op").and_then(Json::as_str) == Some("stats"),
        response_timeout,
    );
    let _ = writeln!(stdin, r#"{{"op":"metrics"}}"#);
    let metrics = await_doc(
        &rx,
        |d| d.get("op").and_then(Json::as_str) == Some("metrics"),
        response_timeout,
    );
    let _ = writeln!(stdin, r#"{{"op":"journal"}}"#);
    let journal = await_doc(
        &rx,
        |d| d.get("op").and_then(Json::as_str) == Some("journal"),
        response_timeout,
    );
    let _ = writeln!(stdin, r#"{{"op":"shutdown"}}"#);
    drop(stdin);
    let _ = reader.join();
    let _ = child.wait();

    let elapsed = started.elapsed().as_secs_f64();
    reroute_us.sort_unstable();
    let p50 = reroute_us[reroute_us.len() / 2];
    println!(
        "{label}: {cycles} sessions x {reroutes_per} reroutes in {elapsed:.2}s, reroute p50 {p50} us"
    );
    let mut paths: Vec<_> = path_counts.iter().collect();
    paths.sort();
    for (path, count) in paths {
        println!("  path {path}: {count}");
    }

    let mut failures = Vec::new();
    // Single move-pin deltas keep the topology pattern, so the refactor
    // rung (not scratch) must answer the overwhelming majority.
    let total_reroutes = cycles * reroutes_per;
    let refactors = path_counts.get("refactor").copied().unwrap_or(0);
    if refactors * 2 < total_reroutes {
        failures.push(format!(
            "only {refactors}/{total_reroutes} reroutes took the refactor rung"
        ));
    }
    match &stats {
        None => failures.push("no stats response from the server".to_owned()),
        Some(stats) => {
            let session_stat = |key: &str| {
                stats
                    .get("sessions")
                    .and_then(|s| s.get(key))
                    .and_then(Json::as_f64)
                    .unwrap_or(-1.0) as i64
            };
            for (key, want) in [
                ("active", 0),
                ("created", cycles as i64),
                ("closed", cycles as i64),
                ("errors", 1),
                ("mutations", total_reroutes as i64),
            ] {
                if session_stat(key) != want {
                    failures.push(format!(
                        "stats sessions.{key} = {}, want {want}",
                        session_stat(key)
                    ));
                }
            }
        }
    }
    match &metrics {
        None => failures.push("no metrics exposition from the server".to_owned()),
        Some(doc) => match doc.get("body").and_then(Json::as_str) {
            None => failures.push("metrics response has no body".to_owned()),
            Some(body) => {
                if let Err(e) = check_exposition(body) {
                    failures.push(format!("invalid Prometheus exposition: {e}"));
                }
                let gauge_value = |metric: &str| {
                    body.lines()
                        .find(|l| l.starts_with(metric) && !l.starts_with('#'))
                        .and_then(|l| l.split_whitespace().nth(1))
                        .map(ToOwned::to_owned)
                };
                for (metric, want) in [
                    ("ntr_sessions_active ", "0"),
                    ("ntr_sessions_created_total ", &cycles.to_string()),
                    ("ntr_session_errors_total ", "1"),
                    (
                        "ntr_session_reroutes_refactor_total ",
                        &refactors.to_string(),
                    ),
                ] {
                    match gauge_value(metric) {
                        Some(v) if v == want => {}
                        got => failures.push(format!(
                            "exposition {} = {got:?}, want {want:?}",
                            metric.trim_end()
                        )),
                    }
                }
            }
        },
    }
    match &journal {
        None => failures.push("no flight-recorder snapshot from the server".to_owned()),
        Some(journal) => {
            let session_events =
                journal
                    .get("request_events")
                    .and_then(Json::as_arr)
                    .map_or(0, |events| {
                        events
                            .iter()
                            .filter(|e| {
                                e.get("algorithm")
                                    .and_then(Json::as_str)
                                    .is_some_and(|a| a.starts_with("session."))
                            })
                            .count()
                    });
            if session_events != session_ops {
                failures.push(format!(
                    "journal holds {session_events} session wide events, want {session_ops}"
                ));
            }
            // The probe's error is flagged, so it must be retained as a
            // full exemplar (trace + spans) for post-mortem replay.
            let probe_exemplars = journal
                .get("exemplar_events")
                .and_then(Json::as_arr)
                .map(|exemplars| {
                    exemplars
                        .iter()
                        .filter(|e| {
                            e.get("outcome").and_then(Json::as_str) == Some("session_error")
                        })
                        .count()
                })
                .unwrap_or(0);
            if probe_exemplars == 0 {
                failures
                    .push("the unknown-session error left no flagged journal exemplar".to_owned());
            }
        }
    }
    if failures.is_empty() {
        println!("{label} OK: {session_ops} session ops, counters balanced, all journaled");
        0
    } else {
        for f in &failures {
            eprintln!("{label} FAILED: {f}");
        }
        1
    }
}

fn main() -> std::process::ExitCode {
    let mut stdio = false;
    let mut smoke_mode = false;
    let mut chaos_mode = false;
    let mut sessions_mode = false;
    let mut workload = Workload {
        nets: 150,
        size: 20,
        repeat: 0.2,
        seed: 1994,
    };
    let mut workers = 4usize;
    let mut rate: Option<f64> = None;
    let mut serve_bin_arg: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--smoke" => smoke_mode = true,
            "--chaos" => chaos_mode = true,
            "--sessions" => sessions_mode = true,
            "--nets" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => workload.nets = n,
                _ => usage(),
            },
            "--size" => match args.next().and_then(|v| v.parse().ok()) {
                Some(k) if k >= 2 => workload.size = k,
                _ => usage(),
            },
            "--repeat" => match args.next().and_then(|v| v.parse().ok()) {
                Some(f) if (0.0..=1.0).contains(&f) => workload.repeat = f,
                _ => usage(),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => usage(),
            },
            "--rate" => match args.next().and_then(|v| v.parse().ok()) {
                Some(r) if r > 0.0 => rate = Some(r),
                _ => usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => workload.seed = s,
                None => usage(),
            },
            "--serve-bin" => serve_bin_arg = args.next().or_else(|| usage()),
            _ => usage(),
        }
    }
    if !stdio {
        // Only the spawned-child stdio harness exists; require the flag so
        // a future TCP client mode stays backward compatible.
        usage();
    }
    let serve_bin = locate_serve_bin(serve_bin_arg.as_deref());
    if !serve_bin.exists() {
        eprintln!(
            "ntr-loadgen: server binary not found at {}",
            serve_bin.display()
        );
        return std::process::ExitCode::FAILURE;
    }

    let code = if chaos_mode {
        chaos(&serve_bin, workload.seed, smoke_mode)
    } else if sessions_mode {
        sessions_gate(&serve_bin, workload.seed, smoke_mode)
    } else if smoke_mode {
        smoke(&serve_bin, workload.seed)
    } else {
        let requests = generate_requests(workload);
        match run_against_server(&serve_bin, workers, &requests, rate, None) {
            Ok(r) => {
                print_summary("run", &r);
                i32::from(r.errors > 0)
            }
            Err(e) => {
                eprintln!("run FAILED: {e}");
                1
            }
        }
    };
    if code == 0 {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
