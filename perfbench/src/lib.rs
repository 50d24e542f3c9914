//! Outside-in benchmark of the leakctl simulator.
//!
//! Three fixed simulation workloads are driven through the public API
//! of the library crates: [`sched`] (a 3072-server scheduled room),
//! [`building`] (four supervised rooms on one chilled-water plant) and
//! [`paper`] (the paper's single-server Table I pipeline). Every
//! workload definition — geometry, job stream, controller recipes,
//! plant sizing — is frozen in this package's own files, so editing a
//! repro harness elsewhere in the repository cannot change what is
//! measured. See `README.md` beside this package for the workload
//! rationale and the layer → metric → workload map.

pub mod building;
pub mod clock;
pub mod drive;
pub mod json;
pub mod paper;
pub mod report;
pub mod sched;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

use report::Metric;

/// The end-to-end metrics every untraced run prints (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("server_steps_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("energy_kwh", "kWh"),
    ("peak_die_c", "C"),
];

/// The per-layer metrics every traced run prints (name, unit). A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("step.plain_ms", "ms"),
    ("step.poll_extra_ms", "ms"),
    ("step.decision_extra_ms", "ms"),
    ("step.max_ms", "ms"),
    ("step.mean_ms", "ms"),
    ("step.unattributed_ms", "ms"),
    ("step.decision_unattributed_ms", "ms"),
    ("fleet.step_ns_per_server", "ns"),
    ("room.coupling_ns_per_server", "ns"),
    ("telemetry.retained_mb_per_sim_h", "MB/h"),
    ("room.observe_us", "us"),
    ("room.observe_ns_per_server", "ns"),
    ("schedule.place_us", "us"),
    ("schedule.calls", "count"),
    ("schedule.share", "ratio"),
    ("schedule.reject_ratio", "ratio"),
    ("control.decide_us", "us"),
    ("control.decisions", "count"),
    ("control.applied_ratio", "ratio"),
    ("air.preview_us", "us"),
    ("air.previews_per_decision", "ratio"),
    ("shard.speedup_2t", "ratio"),
    ("supervise.sheds", "count"),
    ("supervise.escalations", "count"),
    ("supervise.invariant_trips", "count"),
    ("paper.characterize_s", "s"),
    ("paper.fit_s", "s"),
    ("paper.lut_s", "s"),
    ("paper.table1_s", "s"),
    ("paper.model_err_pct", "%"),
    ("server.step_ns", "ns"),
    ("setup.build_s", "s"),
    ("setup.profile_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.steps_per_s", "1/s"),
    ("error_rate", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sched-3072", "building-256", "paper-table1"];

/// Arguments of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload input seed.
    pub seed: u64,
    /// Host time the measured loop runs for.
    pub seconds: Duration,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

/// Operation and output-check accounting of one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (driven steps, experiments, output checks).
    pub attempted: u64,
    /// Operations that returned an error or checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Counts `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one output check; a failed one is reported on stderr.
    pub fn check(&mut self, pass: bool, what: &str) {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
            eprintln!("output check failed: {what}");
        }
    }

    /// Counts one failed operation and reports its error.
    pub fn error(&mut self, what: &str, err: &dyn std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("operation failed: {what}: {err}");
    }

    /// Failed over attempted.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What a workload run measured: named values plus free-form report
/// lines.
#[derive(Debug, Default)]
pub struct Measured {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Measured {
    /// Records one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds one report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metrics of `catalog`, in catalog order. With `fill_zero`, a
    /// metric the workload did not measure reads 0; otherwise it is
    /// reported as missing.
    #[must_use]
    pub fn select(&self, catalog: &[(&'static str, &'static str)], fill_zero: bool) -> Selected {
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for &(name, unit) in catalog {
            match self.values.get(name) {
                Some(&value) => metrics.push(Metric { name, value, unit }),
                None if fill_zero => metrics.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                }),
                None => missing.push(name),
            }
        }
        Selected { metrics, missing }
    }
}

/// Metrics chosen from a catalog, and the names that had no value.
#[derive(Debug)]
pub struct Selected {
    /// Catalog-ordered metrics.
    pub metrics: Vec<Metric>,
    /// Catalog names the workload did not measure.
    pub missing: Vec<&'static str>,
}

/// Derives the `i`-th independent 64-bit seed from a benchmark seed
/// (SplitMix64 finalizer), so neighbouring benchmark seeds give
/// unrelated inputs.
#[must_use]
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Checks::default();
        c.ok(8);
        c.check(true, "fine");
        c.check(false, "broken on purpose");
        assert_eq!((c.attempted, c.failed), (10, 1));
        assert!((c.error_rate() - 0.1).abs() < 1e-12);
        assert_eq!(Checks::default().error_rate(), 0.0);
    }

    #[test]
    fn selection_follows_the_catalog() {
        let mut m = Measured::default();
        m.set("setup_s", 1.5);
        let sel = m.select(&END_TO_END, false);
        assert_eq!(sel.metrics.len(), 1);
        assert_eq!(sel.missing.len(), END_TO_END.len() - 1);
        let filled = m.select(&PER_LAYER, true);
        assert_eq!(filled.metrics.len(), PER_LAYER.len());
        assert!(filled.missing.is_empty());
    }

    #[test]
    fn derived_seeds_differ_and_repeat() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
