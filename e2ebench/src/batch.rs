//! The library workloads: one caller thread, `route_one` in a closed loop.
//!
//! Times here are process CPU time ([`cpu_now`]): on a shared host it
//! excludes the time other tenants take, which wall time does not. The
//! untraced run measures the loop as a library user sees it. The
//! traced run routes a prefix of the same nets through `route_one`, then
//! replays each net's LDRG loop through the public calls
//! (`CandidateGenerator::generate` → `sweep_candidates` → `best_below` →
//! `RoutingGraph::add_edge` → `CandidateOracle::prepare`), timing each
//! call as a span, and checks the replay commits what `route_one` did.

use std::io::Write as _;
use std::time::{Duration, Instant};

use ntr_circuit::{extract, ExtractOptions, Technology};
use ntr_core::{
    best_below, candidate_oracle_for, route_one, sweep_candidates, Algorithm, Budget, Candidate,
    CandidateGen, CandidateGenerator, DelayOracle, Fidelity, LdrgOptions, MomentOracle, Objective,
    OracleStats, RoutingOutcome, TransientOracle,
};
use ntr_ert::{elmore_routing_tree, ErtOptions};
use ntr_geom::{Layout, Net, NetGenerator, Point};
use ntr_graph::{prim_mst, NodeId, RoutingGraph};

use crate::stats::{cpu_now, mean, median, ms, quantile, ratio, us, SplitMix64};
use crate::{Args, Report};

/// Which library workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `batch_moment`: 10/20/30-pin nets in equal thirds, moment fidelity.
    Moment,
    /// `batch_transient`: 10-pin nets, transient fidelity.
    Transient,
}

impl Kind {
    fn sizes(self) -> &'static [usize] {
        match self {
            Kind::Moment => &[10, 20, 30],
            Kind::Transient => &[10],
        }
    }

    fn fidelity(self) -> Fidelity {
        match self {
            Kind::Moment => Fidelity::Moment,
            Kind::Transient => Fidelity::Transient,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Moment => "batch_moment",
            Kind::Transient => "batch_transient",
        }
    }
}

/// Nets generated per set-up: more than one run routes, so the loop does
/// not wrap at today's speed (it may wrap harmlessly on a faster build).
const POOL: usize = 8192;
/// Every `ECO_EVERY`-th net is followed by an ECO: one sink moves a short
/// way and the caller reroutes the moved net from scratch.
const ECO_EVERY: usize = 2;
/// Set-ups per run; `setup_s` is their median. Each routes a different
/// net, and one net's cost varies several-fold with its shape, so the
/// median needs many of them to hold from seed to seed.
const SETUP_REPS: usize = 41;

fn make_nets(kind: Kind, seed: u64) -> Vec<Net> {
    let mut gen = NetGenerator::new(Layout::date94(), seed ^ 0x6261_7463_685f_6e65);
    let sizes = kind.sizes();
    (0..POOL)
        .map(|i| {
            gen.random_net(sizes[i % sizes.len()])
                .expect("the layout admits nets of the paper's sizes")
        })
        .collect()
}

/// How far an ECO moves a pin, at most, in x and in y (µm).
const ECO_REACH_UM: f64 = 250.0;

/// An ECO move: picks a sink of `pins` and a free spot within
/// [`ECO_REACH_UM`] of it (inside the layout) to move it to.
pub fn eco_move(pins: &[Point], rng: &mut SplitMix64) -> (usize, Point) {
    let layout = Layout::date94();
    let k = 1 + rng.below(pins.len() - 1);
    let mut step = |at: f64, max: f64| {
        (at + (rng.unit() * 2.0 - 1.0) * ECO_REACH_UM)
            .round()
            .clamp(0.0, max)
    };
    loop {
        let to = Point::new(
            step(pins[k].x, layout.width_um()),
            step(pins[k].y, layout.height_um()),
        );
        if !pins.contains(&to) {
            return (k, to);
        }
    }
}

/// `net` after one ECO move.
fn eco(net: &Net, rng: &mut SplitMix64) -> Net {
    let mut pins = net.pins().to_vec();
    let (k, to) = eco_move(&pins, rng);
    pins[k] = to;
    Net::from_points(pins).expect("moving a sink to a free spot keeps the net valid")
}

fn budget(kind: Kind) -> Budget {
    Budget::new(Technology::date94()).with_fidelity(kind.fidelity())
}

/// The output check every batch outcome must pass.
fn check(net: usize, out: &Result<RoutingOutcome, ntr_core::RouteError>) -> Result<(), String> {
    let out = out
        .as_ref()
        .map_err(|e| format!("net {net}: route_one failed: {e}"))?;
    if !out.graph.is_connected() {
        return Err(format!("net {net}: routing graph is not connected"));
    }
    if out.final_delay > out.initial_delay {
        return Err(format!(
            "net {net}: final delay {} exceeds initial delay {}",
            out.final_delay, out.initial_delay
        ));
    }
    if out.degraded() {
        return Err(format!("net {net}: served degraded at {}", out.fidelity));
    }
    Ok(())
}

/// Per-call timings of the untraced loop, in CPU ms.
#[derive(Default)]
struct Timed {
    net_ms: Vec<f64>,
    route_ms: Vec<f64>,
    reroute_ms: Vec<f64>,
    ratios: Vec<f64>,
}

impl Timed {
    /// Routes `net` once and checks the outcome. Returns its `route_one`
    /// CPU time and its closed-loop latency: CPU time since the call was
    /// due, which is when the previous call (and its check) ended.
    fn route(
        &mut self,
        i: usize,
        net: &Net,
        budget: &Budget,
        due: &mut Duration,
        report: &mut Report,
    ) -> (f64, f64) {
        let t = cpu_now();
        let out = route_one(net, Algorithm::Ldrg, budget);
        let took = ms(cpu_now() - t);
        if let Ok(out) = &out {
            self.ratios.push(out.final_delay / out.initial_delay);
        }
        report.check(check(i, &out));
        let done = cpu_now();
        let waited = ms(done - *due);
        *due = done;
        (took, waited)
    }
}

pub fn run(kind: Kind, args: &Args) -> Result<Report, String> {
    if args.trace {
        traced(kind, args)
    } else {
        untraced(kind, args)
    }
}

fn untraced(kind: Kind, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let budget = budget(kind);

    // Set-up: generate the nets and route a first one, several times,
    // each time a different net so one net's cost does not decide it.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut nets = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = cpu_now();
        nets = make_nets(kind, args.seed);
        let out = route_one(&nets[rep], Algorithm::Ldrg, &budget);
        setups.push((cpu_now() - t).as_secs_f64());
        report.check(check(rep, &out));
    }

    let mut rng = SplitMix64(args.seed ^ 0x6563_6f5f_6d6f_7665);
    let mut timed = Timed::default();
    let start = Instant::now();
    let cpu_start = cpu_now();
    let mut due = cpu_start;
    let mut i = 0;
    while start.elapsed() < args.seconds {
        let net = &nets[i % nets.len()];
        let (net_ms, route_ms) = timed.route(i, net, &budget, &mut due, &mut report);
        timed.net_ms.push(net_ms);
        timed.route_ms.push(route_ms);
        if i % ECO_EVERY == ECO_EVERY - 1 {
            let moved = eco(net, &mut rng);
            let (net_ms, _) = timed.route(i, &moved, &budget, &mut due, &mut report);
            timed.net_ms.push(net_ms);
            timed.reroute_ms.push(net_ms);
        }
        i += 1;
    }
    let rate = timed.net_ms.len() as f64 / (cpu_now() - cpu_start).as_secs_f64();
    let Timed {
        net_ms,
        route_ms,
        reroute_ms,
        ratios,
    } = timed;

    report.metric("setup_s", median(&setups));
    report.metric("nets_per_s", rate);
    report.metric("net_p50_ms", quantile(&net_ms, 0.5));
    report.metric("net_p99_ms", quantile(&net_ms, 0.99));
    report.metric("delay_ratio", mean(&ratios));
    report.metric("route_p50_ms", quantile(&route_ms, 0.5));
    report.metric("route_p99_ms", quantile(&route_ms, 0.99));
    report.metric("reroute_p50_ms", quantile(&reroute_ms, 0.5));
    report.metric("reroute_p99_ms", quantile(&reroute_ms, 0.99));
    // One closed-loop caller: the rate it sustains is its completion rate.
    report.metric("sustained_rps", rate);
    report.metric("ok_frac", report.ok_frac());
    report.metric("rss_mb", crate::stats::peak_rss_mb(std::process::id()));
    Ok(report)
}

/// One timed public call of the replay.
struct Span {
    net: usize,
    name: &'static str,
    start: Duration,
    dur: Duration,
}

/// Records spans in memory, on the process CPU clock; written out when
/// the run ends.
struct Spans {
    epoch: Duration,
    net: usize,
    spans: Vec<Span>,
}

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = cpu_now();
        let out = f();
        self.spans.push(Span {
            net: self.net,
            name,
            start: t - self.epoch,
            dur: cpu_now() - t,
        });
        out
    }
}

/// What one replayed net committed and counted.
struct Replayed {
    added: Vec<(NodeId, NodeId)>,
    final_delay: f64,
    stats: OracleStats,
    /// The committed graphs: the MST, then one per accepted edge.
    graphs: Vec<RoutingGraph>,
}

fn oracle_for(kind: Kind, tech: Technology) -> Box<dyn DelayOracle> {
    match kind {
        Kind::Moment => Box::new(MomentOracle::new(tech)),
        Kind::Transient => Box::new(TransientOracle::new(tech)),
    }
}

/// `ldrg_with` under `route_one`'s defaults, one public call at a time.
fn replay(kind: Kind, net: &Net, spans: &mut Spans) -> Result<Replayed, String> {
    let oracle = oracle_for(kind, Technology::date94());
    let objective = Objective::MaxDelay;
    let min_improvement = LdrgOptions::default().min_improvement;
    let mut graph = spans.time("graph.mst", || prim_mst(net));
    let mut graphs = vec![graph.clone()];
    let mut engine = candidate_oracle_for(oracle.as_ref());
    let report = spans
        .time("sweep.prepare", || engine.prepare(&graph))
        .map_err(|e| e.to_string())?;
    let mut current = objective.score(&report);
    let mut generator = CandidateGenerator::new(CandidateGen::Exhaustive);
    let mut added = Vec::new();
    let mut scored = 0u64;
    loop {
        spans.time("candidates.generate", || {
            generator.generate(&graph);
        });
        let scores = spans
            .time("sweep.score", || {
                sweep_candidates(engine.as_ref(), generator.candidates(), &objective, 0, None)
            })
            .map_err(|e| e.to_string())?;
        scored += scores.len() as u64;
        let best = spans.time("sweep.best_below", || best_below(&scores, current));
        let Some(i) = best.filter(|&i| scores[i] < current * (1.0 - min_improvement)) else {
            break;
        };
        let Candidate::AddEdge(a, b) = generator.candidates()[i] else {
            return Err("LDRG sweeps edge candidates only".into());
        };
        spans
            .time("graph.add_edge", || graph.add_edge(a, b))
            .map_err(|e| e.to_string())?;
        current = scores[i];
        added.push((a, b));
        graphs.push(graph.clone());
        spans
            .time("sweep.prepare", || engine.prepare(&graph))
            .map_err(|e| e.to_string())?;
    }
    let mut stats = engine.stats().merged(generator.stats());
    stats.candidates_scored += scored;
    Ok(Replayed {
        added,
        final_delay: current,
        stats,
        graphs,
    })
}

/// What the untraced half of a traced run kept per net.
struct Routed {
    cpu: Duration,
    added: Vec<(NodeId, NodeId)>,
    final_bits: u64,
}

fn traced(kind: Kind, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let budget = budget(kind);
    let nets = make_nets(kind, args.seed);
    let window = args.seconds.mul_f64(0.4);

    // Base: the untraced loop, keeping what each net committed (after
    // one untimed call, so pool threads and workspaces are warm).
    report.check(check(0, &route_one(&nets[0], Algorithm::Ldrg, &budget)));
    let mut routed = Vec::new();
    let start = Instant::now();
    let cpu_start = cpu_now();
    while start.elapsed() < window && routed.len() < nets.len() {
        let i = routed.len();
        let t = cpu_now();
        let out = route_one(&nets[i], Algorithm::Ldrg, &budget);
        let cpu = cpu_now() - t;
        let verdict = check(i, &out);
        report.check(verdict);
        let out = out.map_err(|e| e.to_string())?;
        routed.push(Routed {
            cpu,
            added: out.iterations.iter().map(|it| it.added).collect(),
            final_bits: out.final_delay.to_bits(),
        });
    }
    let base_cpu = cpu_now() - cpu_start;

    // Traced: replay the same nets through the public calls.
    let mut spans = Spans {
        epoch: cpu_now(),
        net: 0,
        spans: Vec::new(),
    };
    let mut replayed = Vec::new();
    let start = Instant::now();
    let cpu_start = cpu_now();
    while start.elapsed() < window && replayed.len() < routed.len() {
        let i = replayed.len();
        spans.net = i;
        let r = replay(kind, &nets[i], &mut spans)?;
        let same = r.added == routed[i].added && r.final_delay.to_bits() == routed[i].final_bits;
        report.check(if same {
            Ok(())
        } else {
            Err(format!(
                "net {i}: replay committed {:?} (final {}), route_one {:?} (final {})",
                r.added,
                r.final_delay,
                routed[i].added,
                f64::from_bits(routed[i].final_bits)
            ))
        });
        replayed.push(r);
    }
    let traced_cpu = cpu_now() - cpu_start;
    let n = replayed.len().max(1) as f64;

    let per_net_us = |name: &str| {
        spans
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.dur))
            .sum::<f64>()
            / n
    };
    let covered: Duration = spans.spans.iter().map(|s| s.dur).sum();
    let route_cpu: Duration = routed[..replayed.len()].iter().map(|r| r.cpu).sum();
    let base_rate = routed.len() as f64 / base_cpu.as_secs_f64();
    let traced_rate = replayed.len() as f64 / traced_cpu.as_secs_f64();

    // The remaining layers, timed on the same graphs the replay committed.
    let tech = Technology::date94();
    let transient = TransientOracle::new(tech);
    let (mut extract_us, mut moments_us, mut tran_us, mut ert_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for (i, r) in replayed.iter().enumerate() {
        if i > 0 && start.elapsed() > args.seconds.mul_f64(0.2) {
            break;
        }
        let (mut ex, mut mo, mut tr) = (0.0, 0.0, 0.0);
        for g in &r.graphs {
            let t = cpu_now();
            let extracted =
                extract(g, &tech, &ExtractOptions::default()).map_err(|e| e.to_string())?;
            ex += us(cpu_now() - t);
            let t = cpu_now();
            ntr_spice::elmore_delays(&extracted).map_err(|e| e.to_string())?;
            mo += us(cpu_now() - t);
            let t = cpu_now();
            transient.evaluate(g).map_err(|e| e.to_string())?;
            tr += us(cpu_now() - t);
        }
        let t = cpu_now();
        elmore_routing_tree(&nets[i], &tech, &ErtOptions::default()).map_err(|e| e.to_string())?;
        ert_us.push(us(cpu_now() - t));
        extract_us.push(ex);
        moments_us.push(mo);
        tran_us.push(tr);
    }

    let total = replayed
        .iter()
        .fold(OracleStats::default(), |acc, r| acc.merged(r.stats));
    let accepted: usize = replayed.iter().map(|r| r.added.len()).sum();
    report.metric("sweep.score_us", per_net_us("sweep.score"));
    report.metric("sweep.scored_per_net", total.candidates_scored as f64 / n);
    report.metric("sweep.rank1_per_net", total.rank1_solves as f64 / n);
    report.metric(
        "sweep.useful_ratio",
        ratio(accepted as f64, total.candidates_scored as f64),
    );
    report.metric("sweep.prepare_us", per_net_us("sweep.prepare"));
    report.metric(
        "sweep.factorizations_per_net",
        total.factorizations as f64 / n,
    );
    report.metric("candidates.generate_us", per_net_us("candidates.generate"));
    report.metric("candidates.per_net", total.candidates_generated as f64 / n);
    report.metric("circuit.extract_us", mean(&extract_us));
    report.metric("spice.moments_us", mean(&moments_us));
    report.metric("spice.tran_us", mean(&tran_us));
    report.metric("graph.mst_us", per_net_us("graph.mst"));
    report.metric("ert.build_us", mean(&ert_us));
    report.metric(
        "trace.coverage",
        ratio(covered.as_secs_f64(), route_cpu.as_secs_f64()),
    );
    report.metric("trace.overhead_frac", ratio(base_rate, traced_rate) - 1.0);
    report.metric("trace.base_nets_per_s", base_rate);
    report.metric("trace.traced_nets_per_s", traced_rate);
    report.metric("failed_frac", 1.0 - report.ok_frac());

    if let Some(dir) = &args.trace_dir {
        write_spans(dir, kind, args.seed, &spans.spans)?;
    }
    Ok(report)
}

/// Writes the replay's spans as JSON lines, one span per line.
fn write_spans(dir: &std::path::Path, kind: Kind, seed: u64, spans: &[Span]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.jsonl", kind.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            out,
            r#"{{"net":{},"name":"{}","start_us":{},"dur_us":{}}}"#,
            s.net,
            s.name,
            us(s.start),
            us(s.dur)
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}
