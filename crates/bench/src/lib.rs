//! The `ntr-bench` performance observatory: the repository's one
//! registry of kernel- and service-level benchmarks, the artifacts it
//! writes, and the regression gate CI runs against `ci/bench-baseline/`.
//!
//! The `ntr-bench` binary in `src/bin/` is built from:
//!
//! - [`workloads`] — the registry of named deterministic workloads,
//! - [`stats`] — median / MAD / bootstrap-CI summaries,
//! - [`artifact`] — `BENCH_<workload>.json` and trajectory-file I/O,
//! - [`compare`] — the baseline regression detector behind `--gate`,
//!   built on the shared [`ntr_obs::compare`] verdict rule.
//!
//! The paper's tables and figures come from the `repro` binary, and the
//! end-to-end routing benchmark lives in `e2ebench/`.

use ntr_geom::{Layout, Net, NetGenerator};

pub mod artifact;
pub mod compare;
pub mod stats;
pub mod workloads;

/// A deterministic random net for the registry workloads.
#[must_use]
pub fn bench_net(size: usize) -> Net {
    NetGenerator::new(Layout::date94(), 0xBEEF)
        .random_net(size)
        .expect("benchmark sizes are >= 2")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_deterministic() {
        assert_eq!(bench_net(10), bench_net(10));
    }
}
