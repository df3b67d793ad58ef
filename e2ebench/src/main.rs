//! End-to-end routing benchmark.
//!
//! One command, three workloads:
//!
//! - `batch_moment`: one caller thread runs `ntr_core::route_one` (LDRG,
//!   moment fidelity, exhaustive candidates) over seeded 10/20/30-pin nets;
//! - `batch_transient`: the same loop on 10-pin nets at transient fidelity;
//! - `wire_mix`: `ntr-serve --listen` in its own process, driven over
//!   loopback TCP by an open-loop route stream and a closed loop of ECO
//!   session episodes.
//!
//! ```text
//! ntr-e2e --workload NAME --seed N --seconds S --trace 0|1 \
//!         [--server PATH/TO/ntr-serve] [--trace-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer ones by timing calls into each layer's public functions from
//! outside (batch: a replay of the LDRG loop; wire: the client's timings
//! joined with the server journal by trace id). Either way the last line
//! of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! `METRICS.md` next to this crate defines every metric.

mod batch;
mod stats;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub server: Option<PathBuf>,
    pub trace_dir: Option<PathBuf>,
}

/// The end-to-end metrics (`--trace 0`), with units, in print order.
/// Every workload reports every one of them; `METRICS.md` says what each
/// means on each workload.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("nets_per_s", "1/s"),
    ("net_p50_ms", "ms"),
    ("net_p99_ms", "ms"),
    ("delay_ratio", "ratio"),
    ("route_p50_ms", "ms"),
    ("route_p99_ms", "ms"),
    ("reroute_p50_ms", "ms"),
    ("reroute_p99_ms", "ms"),
    ("sustained_rps", "1/s"),
    ("ok_frac", "ratio"),
    ("rss_mb", "MiB"),
];

/// The per-layer metrics (`--trace 1`), with units, in print order. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sweep.score_us", "us/net"),
    ("sweep.scored_per_net", "count"),
    ("sweep.rank1_per_net", "count"),
    ("sweep.useful_ratio", "ratio"),
    ("sweep.prepare_us", "us/net"),
    ("sweep.factorizations_per_net", "count"),
    ("candidates.generate_us", "us/net"),
    ("candidates.per_net", "count"),
    ("circuit.extract_us", "us/net"),
    ("spice.moments_us", "us/net"),
    ("spice.tran_us", "us/net"),
    ("graph.mst_us", "us/net"),
    ("ert.build_us", "us/net"),
    ("server.rtt_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.queue_ms", "ms"),
    ("server.route_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.accept_ms", "ms"),
    ("proto.parse_us", "us"),
    ("proto.render_us", "us"),
    ("session.mutate_ms", "ms"),
    ("session.reroute_ms", "ms"),
    ("session.rung_refactor_frac", "ratio"),
    ("session.rung_scratch_frac", "ratio"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_grew", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.base_nets_per_s", "1/s"),
    ("trace.traced_nets_per_s", "1/s"),
    ("failed_frac", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (routes, reroutes, session ops).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Measured metrics by name (see [`END_TO_END`] and [`PER_LAYER`]).
    pub metrics: Vec<(&'static str, f64)>,
    /// First few check failures, for standard error.
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.push((name, value));
    }

    /// Counts one attempted operation; `Err` counts it failed too.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// The fraction of attempted operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }

    /// The result line: every metric of the run's set, in list order.
    fn to_line(&self, trace: bool) -> String {
        let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .rev()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                let value = if value.is_finite() { value } else { 0.0 };
                format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["batch_moment", "batch_transient", "wire_mix"];

fn usage() -> ! {
    eprintln!(
        "usage: ntr-e2e --workload {{{}}} --seed N --seconds S --trace 0|1 \
         [--server PATH] [--trace-dir DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut server, mut trace_dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--server" => server = Some(PathBuf::from(value)),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let workload = workload
        .filter(|w| WORKLOADS.contains(&w.as_str()))
        .unwrap_or_else(|| usage());
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage()),
        seconds: Duration::from_secs_f64(seconds.unwrap_or_else(|| usage())),
        trace: trace.unwrap_or_else(|| usage()),
        server,
        trace_dir,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let report = match args.workload.as_str() {
        "batch_moment" => batch::run(batch::Kind::Moment, &args),
        "batch_transient" => batch::run(batch::Kind::Transient, &args),
        _ => wire::run(&args),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ntr-e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    for why in &report.failures {
        eprintln!("check failed: {why}");
    }
    println!("{}", report.to_line(args.trace));
    ExitCode::SUCCESS
}
