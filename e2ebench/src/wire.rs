//! The wire workload: `ntr-serve --listen` in its own process, driven
//! over loopback TCP by this process with two threads and at most two
//! connections.
//!
//! - Connection 1 is an open loop: stateless `route` requests sent on a
//!   seeded Poisson schedule at each rate of [`RATES`] in turn. Latency
//!   is timed from each request's *due* time, so a late sender cannot
//!   hide queueing.
//! - Connection 2 is a closed loop of ECO session episodes: connect,
//!   `session.create` on a 20-pin net, [`ROUNDS`] × (`session.mutate`
//!   with one `move_pin`, then `session.reroute`), `session.close`,
//!   disconnect.
//!
//! The load takes the middle third of `--seconds`. Every route answer is
//! checked against an in-process `route_one` of the same net, algorithm
//! and fidelity, which is also timed, in passes over every distinct job
//! in the third before the load and the third after it.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ntr_circuit::Technology;
use ntr_core::{route_one, Algorithm, Budget};
use ntr_ert::{elmore_routing_tree, ErtOptions};
use ntr_geom::{Layout, Net, NetGenerator, Point};
use ntr_graph::prim_mst;
use ntr_server::Json;

use crate::stats::{cpu_now, mean, median, ms, quantile, ratio, us, SplitMix64};
use crate::{Args, Report};

/// The open loop's fixed rates (requests/s), each held for an equal
/// share of the run, lowest first.
pub const RATES: [f64; 3] = [50.0, 100.0, 200.0];
/// A rate is sustained when the p99 route latency of its phase (from due
/// time) stays at or below this and the backlog does not grow.
pub const P99_LIMIT_MS: f64 = 100.0;
/// The algorithms fresh routes cycle through: in every 20, 17 cheap
/// 10-pin `mst`/`h2`/`h3` routes and 3 heavy 20-pin `ldrg`/`ert-ldrg`
/// ones, so the mix has the same make-up on every seed.
const MIX: [&str; 20] = [
    "mst", "h2", "h3", "mst", "h2", "h3", "ldrg", "mst", "h2", "h3", "mst", "h2", "h3", "ert-ldrg",
    "mst", "h2", "h3", "mst", "h2", "ldrg",
];
/// Share of routes that repeat an earlier net and algorithm.
const REPEAT_FRAC: f64 = 0.2;
/// `move_pin` + `reroute` rounds per session episode.
const ROUNDS: usize = 4;
/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` the load runs for. The rest goes to timing
/// passes of the output check, half before the load and half after.
const LOAD_SHARE: f64 = 1.0 / 3.0;
/// How long the open loop waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(20);
/// Longest blocking read on any connection before the run gives up.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// A cheap route for the first reply after start-up.
const PROBE: &str =
    r#"{"op":"route","id":0,"algorithm":"mst","cache":false,"pins":[[0,0],[3000,0],[0,4000]]}"#;

/// Waits until `fd` is readable or `timeout` passes (`ppoll(2)`: a
/// microsecond timeout, so the open loop sends on time).
fn readable(fd: i32, timeout: Duration) -> bool {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd, a valid timespec, and no signal mask.
    unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) > 0 }
}

/// Runs in the forked child before `exec`: the server gets SIGKILL if
/// this process dies first, so a killed run leaves no server behind.
fn die_with_parent() -> std::io::Result<()> {
    extern "C" {
        fn prctl(option: i32, arg2: std::ffi::c_ulong, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: std::ffi::c_ulong = 9;
    // SAFETY: PR_SET_PDEATHSIG takes one integer signal number.
    if unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// A JSON-lines client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            chunk: vec![0; 1 << 16],
        })
    }

    /// Sends one request line in a single write.
    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads once (blocking) and returns the lines it completed.
    fn read_lines(&mut self) -> Result<Vec<String>, String> {
        let n = self
            .stream
            .read(&mut self.chunk)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        // Only the new bytes can end a line: long replies stay linear.
        let mut scan = self.buf.len();
        self.buf.extend_from_slice(&self.chunk[..n]);
        let mut lines = Vec::new();
        while let Some(pos) = self.buf[scan..].iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=scan + pos).collect();
            lines.push(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
            scan = 0;
        }
        Ok(lines)
    }

    /// Sends a request and waits for its one-line reply.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        loop {
            if let Some(reply) = self.read_lines()?.into_iter().next() {
                return Json::parse(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"));
            }
        }
    }
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

fn num(reply: &Json, key: &str) -> f64 {
    reply.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The server child process.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns `ntr-serve --listen ADDR --workers 2` and waits for the
    /// answer to a first request; returns the server and the time from
    /// spawn to that answer.
    fn start(bin: &Path) -> Result<(Server, Duration), String> {
        let mut last = String::new();
        for _ in 0..3 {
            let addr = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("pick a port: {e}"))?;
            let started = Instant::now();
            let mut command = Command::new(bin);
            command
                .args(["--listen", &addr.to_string(), "--workers", "2"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            // SAFETY: the hook only makes one async-signal-safe syscall.
            unsafe { command.pre_exec(die_with_parent) };
            let child = command
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let mut server = Server { child, addr };
            match server.first_reply(started) {
                Ok(()) => return Ok((server, started.elapsed())),
                Err(e) => last = e,
            }
        }
        Err(format!("server never answered: {last}"))
    }

    fn first_reply(&mut self, started: Instant) -> Result<(), String> {
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server exited with {status}"));
            }
            match TcpStream::connect(self.addr) {
                Ok(_) => break,
                Err(e) if started.elapsed() > Duration::from_secs(20) => {
                    return Err(format!("connect {}: {e}", self.addr))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        let reply = Conn::open(self.addr)?.call(PROBE)?;
        if is_ok(&reply) {
            Ok(())
        } else {
            Err(format!("probe answered {reply}"))
        }
    }

    /// Peak RSS of the server process, MiB.
    fn rss_mb(&self) -> f64 {
        crate::stats::peak_rss_mb(self.child.id())
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = Conn::open(self.addr).and_then(|mut c| c.call(r#"{"op":"shutdown"}"#));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("server did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn pins_json(pins: &[Point]) -> String {
    let items: Vec<String> = pins.iter().map(|p| format!("[{},{}]", p.x, p.y)).collect();
    format!("[{}]", items.join(","))
}

/// A distinct net + algorithm the open loop routes (possibly repeatedly).
struct Job {
    net: Net,
    algorithm: &'static str,
}

/// One scheduled request of the open loop.
struct Planned {
    due: Duration,
    phase: usize,
    job: usize,
    line: String,
}

/// The seeded open-loop schedule: Poisson arrivals at each rate of
/// [`RATES`] for an equal share of `window`. Each phase gets exactly
/// rate × length arrivals, placed uniformly at random (a Poisson process
/// given its count), so the seed moves when requests come but not how
/// many each rate contributes to the pooled latency quantiles.
fn plan(seed: u64, window: Duration) -> (Vec<Planned>, Vec<Job>) {
    let mut rng = SplitMix64(seed ^ 0x7769_7265_5f6d_6978);
    let mut gen = NetGenerator::new(Layout::date94(), seed ^ 0x726f_7574_655f_6e65);
    let phase_len = window.as_secs_f64() / RATES.len() as f64;
    let (mut planned, mut jobs) = (Vec::new(), Vec::<Job>::new());
    for (phase, rate) in RATES.iter().enumerate() {
        let begin = phase as f64 * phase_len;
        let count = (rate * phase_len).round() as usize;
        let mut times: Vec<f64> = (0..count).map(|_| begin + rng.unit() * phase_len).collect();
        times.sort_by(f64::total_cmp);
        for t in times {
            let job = if !jobs.is_empty() && rng.unit() < REPEAT_FRAC {
                rng.below(jobs.len())
            } else {
                let algorithm = MIX[jobs.len() % MIX.len()];
                let size = if algorithm.ends_with("ldrg") { 20 } else { 10 };
                let net = gen.random_net(size).expect("the layout admits 20-pin nets");
                jobs.push(Job { net, algorithm });
                jobs.len() - 1
            };
            let id = planned.len();
            let Job { net, algorithm } = &jobs[job];
            let pins = pins_json(net.pins());
            // Half the requests use the v1 flat layout, half the v2 groups.
            let line = if rng.unit() < 0.5 {
                format!(
                    r#"{{"op":"route","id":{id},"algorithm":"{algorithm}","oracle":"moment","pins":{pins}}}"#
                )
            } else {
                format!(
                    r#"{{"op":"route","id":{id},"algorithm":"{algorithm}","params":{{"oracle":"moment"}},"budget":{{"retries":2}},"pins":{pins}}}"#
                )
            };
            planned.push(Planned {
                due: Duration::from_secs_f64(t),
                phase,
                job,
                line,
            });
        }
    }
    (planned, jobs)
}

/// What the open loop saw per request: when it was sent, and when and
/// what came back.
struct Exchange {
    sent: Option<Instant>,
    reply: Option<(Instant, String)>,
}

/// Sends `planned` on schedule over `conn` and collects the replies.
fn open_loop(mut conn: Conn, planned: &[Planned], start: Instant) -> Result<Vec<Exchange>, String> {
    let mut sent: Vec<Option<Instant>> = vec![None; planned.len()];
    let mut replies = Vec::with_capacity(planned.len());
    let fd = conn.stream.as_raw_fd();
    let mut next = 0;
    let mut drain_until = None;
    while replies.len() < planned.len() {
        let now = Instant::now();
        while next < planned.len() && start + planned[next].due <= now {
            conn.send(&planned[next].line)?;
            sent[next] = Some(Instant::now());
            next += 1;
        }
        let wake = if next < planned.len() {
            start + planned[next].due
        } else {
            *drain_until.get_or_insert(now + DRAIN)
        };
        let now = Instant::now();
        if now >= wake {
            if next == planned.len() {
                break; // stragglers never came: counted as failures
            }
            continue;
        }
        if readable(fd, wake - now) {
            let lines = conn.read_lines()?;
            let at = Instant::now();
            replies.extend(lines.into_iter().map(|l| (at, l)));
        }
    }
    // Replies arrive in any order: match them to requests by id.
    let mut exchanges: Vec<Exchange> = sent
        .into_iter()
        .map(|sent| Exchange { sent, reply: None })
        .collect();
    for (at, line) in replies {
        let id = Json::parse(&line)
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_f64))
            .map(|id| id as usize);
        match id.and_then(|id| exchanges.get_mut(id)) {
            Some(ex) => ex.reply = Some((at, line)),
            None => return Err(format!("reply with unknown id: {line}")),
        }
    }
    Ok(exchanges)
}

/// What the session episodes measured.
#[derive(Default)]
struct Episodes {
    /// Connect → `session.create` answer, ms.
    accept_ms: Vec<f64>,
    /// `session.mutate` round trips, ms.
    mutate_ms: Vec<f64>,
    /// `session.reroute` round trips, ms.
    reroute_ms: Vec<f64>,
    /// One mutate + reroute pair, ms.
    pair_ms: Vec<f64>,
    /// Per-rung totals from the `session.close` answers.
    reroutes: f64,
    refactor: f64,
    scratch: f64,
    /// Every request line sent, for the protocol timings.
    lines: Vec<String>,
}

/// The closed loop of ECO session episodes, until `until`.
fn episodes(
    addr: SocketAddr,
    seed: u64,
    until: Instant,
    report: &mut Report,
) -> Result<Episodes, String> {
    let mut rng = SplitMix64(seed ^ 0x7365_7373_696f_6e73);
    let mut gen = NetGenerator::new(Layout::date94(), seed ^ 0x6563_6f5f_6e65_7473);
    let mut ep = Episodes::default();
    let mut id = 0u64;
    while Instant::now() < until {
        let net = gen.random_net(20).expect("the layout admits 20-pin nets");
        let mut pins = net.pins().to_vec();
        let create = format!(
            r#"{{"op":"session.create","id":{id},"algorithm":"ldrg","pins":{}}}"#,
            pins_json(&pins)
        );
        id += 1;
        let t = Instant::now();
        let mut conn = Conn::open(addr)?;
        let reply = conn.call(&create)?;
        ep.accept_ms.push(ms(t.elapsed()));
        ep.lines.push(create);
        let handle = reply.get("session").and_then(Json::as_f64);
        report.check(match handle {
            Some(_) if is_ok(&reply) => Ok(()),
            _ => Err(format!("session.create answered {reply}")),
        });
        let Some(handle) = handle else { continue };
        for _ in 0..ROUNDS {
            let (k, to) = crate::batch::eco_move(&pins, &mut rng);
            pins[k] = to;
            let mutate = format!(
                r#"{{"op":"session.mutate","id":{id},"session":{handle},"ops":[{{"op":"move_pin","pin":{k},"to":[{},{}]}}]}}"#,
                to.x, to.y
            );
            let reroute = format!(
                r#"{{"op":"session.reroute","id":{},"session":{handle}}}"#,
                id + 1
            );
            id += 2;
            let t = Instant::now();
            let reply = conn.call(&mutate)?;
            let mutated = Instant::now();
            report.check(if is_ok(&reply) && num(&reply, "applied") == 1.0 {
                Ok(())
            } else {
                Err(format!("session.mutate answered {reply}"))
            });
            let reply = conn.call(&reroute)?;
            let done = Instant::now();
            let path = reply.get("path").and_then(Json::as_str).unwrap_or("");
            report.check(if is_ok(&reply) && matches!(path, "refactor" | "scratch") {
                Ok(())
            } else {
                Err(format!("session.reroute answered {reply}"))
            });
            ep.mutate_ms.push(ms(mutated - t));
            ep.reroute_ms.push(ms(done - mutated));
            ep.pair_ms.push(ms(done - t));
            ep.lines.push(mutate);
            ep.lines.push(reroute);
        }
        let close = format!(r#"{{"op":"session.close","id":{id},"session":{handle}}}"#);
        id += 1;
        let reply = conn.call(&close)?;
        report.check(if is_ok(&reply) {
            Ok(())
        } else {
            Err(format!("session.close answered {reply}"))
        });
        ep.reroutes += num(&reply, "reroutes");
        ep.refactor += num(&reply, "refactor");
        ep.scratch += num(&reply, "scratch");
        ep.lines.push(close);
    }
    Ok(ep)
}

/// The `request_events` of a `{"op":"journal"}` reply, each parsed on
/// its own: `Json::parse` re-validates the rest of its input for every
/// string character, so one parse of the whole (megabyte) reply would
/// take seconds.
fn request_events(journal: &str) -> Result<Vec<Json>, String> {
    const KEY: &str = r#""request_events":["#;
    let at = journal
        .find(KEY)
        .ok_or("journal reply without request_events")?;
    let bytes = journal.as_bytes();
    let mut events = Vec::new();
    let (mut i, mut depth, mut start, mut in_str) = (at + KEY.len(), 0usize, 0, false);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'{' if !in_str => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    let text = &journal[start..=i];
                    events.push(Json::parse(text).map_err(|e| format!("journal event: {e}"))?);
                }
            }
            b']' if !in_str && depth == 0 => return Ok(events),
            _ => {}
        }
        i += 1;
    }
    Err("truncated journal reply".into())
}

/// The output check's in-process routes of every distinct job, and what
/// they cost. Each pass routes every job once; `best` keeps each job's
/// least CPU time, which is the mix's routing cost per net (`net_*`).
/// Passes run before and after the load, so a slow spell of the shared
/// host has to last the whole run to move a job's figure.
struct Timing {
    /// `route_one` delay (ns) of each job; NaN if a pass disagreed.
    want: Vec<f64>,
    /// The same net's `mst` delay (ns), for `delay_ratio`.
    mst: Vec<f64>,
    /// Least `route_one` CPU time (ms) of each job over the passes.
    best: Vec<f64>,
}

fn delay_ns(net: &Net, algorithm: &str, budget: &Budget) -> f64 {
    let algorithm = Algorithm::parse(algorithm).expect("planned algorithms parse");
    route_one(net, algorithm, budget).map_or(f64::NAN, |o| o.final_delay * 1e9)
}

impl Timing {
    fn new(jobs: &[Job], budget: &Budget) -> Timing {
        Timing {
            want: jobs
                .iter()
                .map(|j| delay_ns(&j.net, j.algorithm, budget))
                .collect(),
            mst: jobs
                .iter()
                .map(|j| delay_ns(&j.net, "mst", budget))
                .collect(),
            best: vec![f64::INFINITY; jobs.len()],
        }
    }

    /// Timed passes over every job until `until`, at least one.
    fn passes(&mut self, jobs: &[Job], budget: &Budget, until: Instant) {
        loop {
            for ((job, best), want) in jobs.iter().zip(&mut self.best).zip(&mut self.want) {
                let at = cpu_now();
                let got = delay_ns(&job.net, job.algorithm, budget);
                *best = best.min(ms(cpu_now() - at));
                if got.to_bits() != want.to_bits() {
                    *want = f64::NAN;
                }
            }
            if Instant::now() >= until {
                return;
            }
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let bin = args
        .server
        .as_deref()
        .ok_or("wire_mix needs --server PATH/TO/ntr-serve")?;
    let mut report = Report::default();
    let load = args.seconds.mul_f64(LOAD_SHARE);
    let passes = (args.seconds - load) / 2;
    let (planned, jobs) = plan(args.seed, load);
    // Sequential sweeps, as the server's workers route: the same delays,
    // and CPU time that counts the routing work without the spin and
    // hand-off of a thread pool on a shared host.
    let budget = Budget {
        parallelism: 1,
        ..Budget::new(Technology::date94())
    };
    let mut timing = Timing::new(&jobs, &budget);
    timing.passes(&jobs, &budget, Instant::now() + passes);

    // Set-up: spawn → first reply, several times; the last server stays.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (s, took) = Server::start(bin)?;
        setups.push(took.as_secs_f64());
        if rep + 1 < SETUP_REPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr;

    // The load: open loop on a second thread, sessions on this one.
    let conn = Conn::open(addr)?;
    let start = Instant::now();
    let (exchanges, ep) = std::thread::scope(|scope| {
        let open = scope.spawn(|| open_loop(conn, &planned, start));
        let ep = episodes(addr, args.seed, start + load, &mut report);
        let exchanges = open.join().map_err(|_| "open loop panicked".to_string());
        (exchanges, ep)
    });
    let (exchanges, ep) = (exchanges??, ep?);
    let window = start.elapsed();

    // Traced: join the client's timings with the server journal.
    let mut joined = Vec::new();
    let mut journal_cost = Duration::ZERO;
    let mut cache_hit_ratio = 0.0;
    if args.trace {
        let t = Instant::now();
        let mut conn = Conn::open(addr)?;
        let stats = conn.call(r#"{"op":"stats"}"#)?;
        let hits = num(&stats, "cache_hits");
        cache_hit_ratio = ratio(hits, hits + num(&stats, "cache_misses"));
        conn.send(r#"{"op":"journal"}"#)?;
        let journal = loop {
            if let Some(line) = conn.read_lines()?.into_iter().next() {
                break line;
            }
        };
        let mut events = HashMap::new();
        for e in request_events(&journal)? {
            events.insert(num(&e, "trace") as u64, e);
        }
        for ex in &exchanges {
            let (Some(sent), Some((at, line))) = (ex.sent, &ex.reply) else {
                continue;
            };
            let Ok(reply) = Json::parse(line) else {
                continue;
            };
            if let Some(e) = events.get(&(num(&reply, "trace") as u64)) {
                joined.push((
                    num(&reply, "id") as u64,
                    num(&reply, "trace") as u64,
                    us(*at - sent),
                    num(e, "queue_us"),
                    num(e, "route_us"),
                    num(e, "total_us"),
                ));
            }
        }
        journal_cost = t.elapsed();
    }
    let rss_mb = server.rss_mb();
    server.stop()?;

    // Checks: every route answered ok, with the delay an in-process
    // route_one of the same net, algorithm and fidelity computes.
    timing.passes(&jobs, &budget, Instant::now() + passes);
    let Timing {
        want,
        mst,
        best: net_ms,
    } = timing;
    let mut ratios = BTreeMap::new();
    let (mut route_ms, mut late_ms) = (Vec::new(), Vec::new());
    let mut parsed = Vec::new();
    for (p, ex) in planned.iter().zip(&exchanges) {
        let due = start + p.due;
        if let Some(sent) = ex.sent {
            late_ms.push(ms(sent - due));
        }
        let reply = ex.reply.as_ref().and_then(|(at, line)| {
            route_ms.push(ms(*at - due));
            Json::parse(line).ok()
        });
        let (want, mst) = (want[p.job], mst[p.job]);
        report.check(match &reply {
            None => Err(format!("route {} never answered", p.line)),
            Some(r) if !is_ok(r) => Err(format!("route answered {r}")),
            Some(r) if num(r, "delay_ns") != want => Err(format!(
                "route {} answered delay_ns {} but route_one gives {want}",
                p.line,
                num(r, "delay_ns")
            )),
            Some(_) => Ok(()),
        });
        if let Some(r) = reply {
            ratios.insert(p.job, num(&r, "delay_ns") / mst);
            parsed.push(r);
        }
    }

    // Per phase: p99 from due time, and whether the backlog grew (more
    // requests outstanding at the phase's end than the rate × limit).
    let phase_len = load.as_secs_f64() / RATES.len() as f64;
    let mut sustained = 0.0;
    let mut backlog_grew = 0;
    for (phase, rate) in RATES.iter().enumerate() {
        let end = start + Duration::from_secs_f64((phase + 1) as f64 * phase_len);
        let lat: Vec<f64> = planned
            .iter()
            .zip(&exchanges)
            .filter(|(p, _)| p.phase == phase)
            .map(|(p, ex)| {
                ex.reply
                    .as_ref()
                    .map_or(f64::INFINITY, |(at, _)| ms(*at - (start + p.due)))
            })
            .collect();
        let outstanding = exchanges
            .iter()
            .filter(|ex| ex.sent.is_some_and(|s| s <= end))
            .filter(|ex| ex.reply.as_ref().is_none_or(|(at, _)| *at > end))
            .count();
        let grew = outstanding as f64 > rate * P99_LIMIT_MS / 1e3 + 1.0;
        backlog_grew += usize::from(grew);
        if !grew && quantile(&lat, 0.99) <= P99_LIMIT_MS {
            sustained = *rate;
        }
    }

    if !args.trace {
        let ratios: Vec<f64> = ratios.into_values().collect();
        let routed = exchanges.iter().filter(|ex| ex.reply.is_some()).count() + ep.pair_ms.len();
        report.metric("setup_s", median(&setups));
        report.metric("nets_per_s", routed as f64 / window.as_secs_f64());
        report.metric("net_p50_ms", quantile(&net_ms, 0.5));
        report.metric("net_p99_ms", quantile(&net_ms, 0.99));
        report.metric("delay_ratio", mean(&ratios));
        report.metric("route_p50_ms", quantile(&route_ms, 0.5));
        report.metric("route_p99_ms", quantile(&route_ms, 0.99));
        report.metric("reroute_p50_ms", quantile(&ep.pair_ms, 0.5));
        report.metric("reroute_p99_ms", quantile(&ep.pair_ms, 0.99));
        report.metric("sustained_rps", sustained);
        report.metric("ok_frac", report.ok_frac());
        report.metric("rss_mb", rss_mb);
        return Ok(report);
    }

    // Per-layer: the server's stages from the journal join.
    let col = |i: usize| -> Vec<f64> {
        joined
            .iter()
            .map(|j| [j.2, j.3, j.4, j.5][i - 2] / 1e3)
            .collect()
    };
    let (rtt, queue, route, total) = (col(2), col(3), col(4), col(5));
    let wire: Vec<f64> = rtt.iter().zip(&total).map(|(r, t)| r - t).collect();
    let overhead: Vec<f64> = total
        .iter()
        .zip(queue.iter().zip(&route))
        .map(|(t, (q, r))| t - q - r)
        .collect();
    report.metric("server.rtt_ms", mean(&rtt));
    report.metric("server.wire_ms", mean(&wire));
    report.metric("server.queue_ms", mean(&queue));
    report.metric("server.route_ms", mean(&route));
    report.metric("server.overhead_ms", mean(&overhead));
    report.metric("server.cache_hit_ratio", cache_hit_ratio);
    report.metric("server.accept_ms", mean(&ep.accept_ms));

    // The protocol layer, timed in this process on the workload's lines.
    let lines: Vec<&str> = planned
        .iter()
        .map(|p| p.line.as_str())
        .chain(ep.lines.iter().map(String::as_str))
        .collect();
    let t = cpu_now();
    for line in &lines {
        let doc = Json::parse(line).map_err(|e| format!("{line}: {e}"))?;
        ntr_server::proto::parse_request(&doc).map_err(|e| format!("{line}: {e}"))?;
    }
    report.metric(
        "proto.parse_us",
        us(cpu_now() - t) / lines.len().max(1) as f64,
    );
    let t = cpu_now();
    let rendered: usize = parsed.iter().map(|r| r.to_line().len()).sum();
    let render_us = us(cpu_now() - t) / parsed.len().max(1) as f64;
    std::hint::black_box(rendered);
    report.metric("proto.render_us", render_us);

    report.metric("session.mutate_ms", mean(&ep.mutate_ms));
    report.metric("session.reroute_ms", mean(&ep.reroute_ms));
    report.metric(
        "session.rung_refactor_frac",
        ratio(ep.refactor, ep.reroutes),
    );
    report.metric("session.rung_scratch_frac", ratio(ep.scratch, ep.reroutes));

    // Base-routing layers on the workload's own nets.
    let tech = Technology::date94();
    let (mut mst_us, mut ert_us) = (Vec::new(), Vec::new());
    for job in &jobs {
        let t = cpu_now();
        std::hint::black_box(prim_mst(&job.net));
        mst_us.push(us(cpu_now() - t));
        let t = cpu_now();
        elmore_routing_tree(&job.net, &tech, &ErtOptions::default()).map_err(|e| e.to_string())?;
        ert_us.push(us(cpu_now() - t));
    }
    report.metric("graph.mst_us", mean(&mst_us));
    report.metric("ert.build_us", mean(&ert_us));

    report.metric("loadgen.late_ms", mean(&late_ms));
    report.metric("loadgen.late_p99_ms", quantile(&late_ms, 0.99));
    report.metric("loadgen.backlog_grew", backlog_grew as f64);
    report.metric(
        "trace.coverage",
        ratio(joined.len() as f64, parsed.len() as f64),
    );
    report.metric(
        "trace.overhead_frac",
        journal_cost.as_secs_f64() / window.as_secs_f64(),
    );
    report.metric("failed_frac", 1.0 - report.ok_frac());

    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("wire_mix-seed{}.jsonl", args.seed));
        let text: String = joined
            .iter()
            .map(|(id, trace, rtt, q, r, t)| {
                format!(
                    "{{\"id\":{id},\"trace\":{trace},\"rtt_us\":{rtt},\"queue_us\":{q},\"route_us\":{r},\"total_us\":{t}}}\n"
                )
            })
            .collect();
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(report)
}
