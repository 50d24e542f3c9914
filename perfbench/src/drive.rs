//! The run loop shared by every workload: repeat a fixed unit of
//! simulated work for the requested host time, check that every unit
//! reproduces the same simulated outputs, and reduce the timings to the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run).

use std::time::Instant;

use crate::clock::{calibrate, REFERENCE_MS};
use crate::report::{peak_rss_mb, Digest};
use crate::stats::{median, quantile, quartiles};
use crate::trace::{LayerTimes, StepClass, StepLog};
use crate::{Checks, Measured, RunArgs};

/// Set-ups timed per run at the least, so `setup_s` is a median even
/// when few units fit in the measured time.
pub const MIN_SETUPS: usize = 7;

/// Worker threads of every measured run. Timings are read from the
/// measuring thread's CPU clock (see [`crate::clock`]), which sees all
/// of the work only when that thread does all of it. Sharded workloads
/// are also run on [`OTHER_PLAN`] in the traced run.
pub const PLAN: usize = 1;

/// The thread plan the traced run compares against (`nproc` of the
/// 2-core reference machine).
pub const OTHER_PLAN: usize = 2;

/// One unit of simulated work: a fresh set-up driven through the
/// workload's whole script.
#[derive(Debug, Default)]
pub struct Unit {
    /// Digest of every simulated output the unit produced.
    pub digest: Digest,
    /// Host time of each driven step (for the paper pipeline: host
    /// time per simulated step of each seed's Table I).
    pub log: StepLog,
    /// Host seconds spent stepping (set-up excluded).
    pub stepping_s: f64,
    /// Servers × simulated steps driven, warm-up included.
    pub server_steps: u64,
    /// Set-up: construction of rooms, buildings, streams and options.
    pub build_s: f64,
    /// Set-up: offline profiling (controller bands, greedy die rise,
    /// plant sizing, the paper's characterization, fit and LUT).
    pub profile_s: f64,
    /// Modelled energy over the measured phase, kWh.
    pub energy_kwh: f64,
    /// Modelled hottest die over the measured phase, °C.
    pub peak_die_c: f64,
    /// What the wrappers measured (traced units only).
    pub layers: LayerTimes,
    /// Reference-kernel timings taken between steps (see
    /// [`crate::clock::calibrate`]).
    pub refs: Vec<f64>,
    /// Workload-specific per-layer values (traced units only, except
    /// counters every unit reports).
    pub extra: Vec<(&'static str, f64)>,
}

impl Unit {
    /// Set-up time (build plus profiling).
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.profile_s
    }
}

/// A benchmark workload.
pub trait Workload {
    /// `true` when the workload's stepping can shard across threads
    /// (the traced run then also checks and times [`OTHER_PLAN`]).
    fn sharded(&self) -> bool {
        true
    }

    /// `Room::observe_into` calls the drive loop makes per decision
    /// step (for attributing the decision-step cost).
    fn observes_per_decision(&self) -> f64;

    /// Runs one unit on `plan` threads, traced or not. `None` after a
    /// failed operation (already counted in `checks`).
    fn unit(&self, plan: usize, traced: bool, checks: &mut Checks) -> Option<Unit>;

    /// Times one set-up alone; returns (build, profile) seconds.
    fn setup_only(&self, checks: &mut Checks) -> Option<(f64, f64)>;

    /// Output checks run once per benchmark run (pinned references).
    fn pinned_checks(&self, _checks: &mut Checks, _m: &mut Measured) {}
}

/// Runs `workload` for `args` and reduces the result.
pub fn run(workload: &dyn Workload, args: &RunArgs) -> (Checks, Measured) {
    let mut checks = Checks::default();
    let mut m = Measured::default();
    workload.pinned_checks(&mut checks, &mut m);
    let start = Instant::now();
    let mut units = Vec::new();
    let mut refs = Vec::new();
    calibrate(&mut refs);
    loop {
        let Some(unit) = workload.unit(PLAN, args.trace, &mut checks) else {
            return (checks, m);
        };
        refs.extend_from_slice(&unit.refs);
        units.push(unit);
        calibrate(&mut refs);
        if start.elapsed() >= args.seconds {
            break;
        }
    }
    // How much slower than the reference machine this run's core ran
    // while stepping; stepping times are reported at reference speed.
    // Set-up is not scaled: the calibrations run beside the stepping,
    // and in paired runs scaling widened the spread of `setup_s`.
    let slowdown = median(&refs).unwrap_or(REFERENCE_MS) / REFERENCE_MS;
    m.note(format!(
        "# reference kernel: median {:?} ms over {} passes; slowdown {slowdown:?}",
        median(&refs).unwrap_or(0.0),
        refs.len()
    ));
    let reference = units[0].digest;
    checks.check(
        units.iter().all(|u| u.digest == reference),
        "every repeated unit reproduces the first unit's outputs bit for bit",
    );
    m.note(format!(
        "# outputs: digest={} units={} energy_kwh={:?} peak_die_c={:?}",
        reference.hex(),
        units.len(),
        units[0].energy_kwh,
        units[0].peak_die_c
    ));

    let mut setups: Vec<f64> = units.iter().map(Unit::setup_s).collect();
    let mut builds: Vec<f64> = units.iter().map(|u| u.build_s).collect();
    let mut profiles: Vec<f64> = units.iter().map(|u| u.profile_s).collect();
    while setups.len() < MIN_SETUPS {
        let Some((build, profile)) = workload.setup_only(&mut checks) else {
            return (checks, m);
        };
        setups.push(build + profile);
        builds.push(build);
        profiles.push(profile);
    }

    if args.trace {
        traced_metrics(workload, &units, &mut checks, &mut m);
        m.set("setup.build_s", median(&builds).unwrap_or(0.0));
        m.set("setup.profile_s", median(&profiles).unwrap_or(0.0));
    } else {
        let mut log = StepLog::default();
        for u in &units {
            log.extend(&u.log);
        }
        let sps = server_steps_per_s(&units);
        m.set("server_steps_per_s", sps * slowdown);
        m.note(format!("# server_steps_per_s before scaling: {sps:?}"));
        m.set("step_ms_p50", log.p50_all() / slowdown);
        let [q1, q2, q3] = quartiles(&log.ms).unwrap_or_default();
        m.note(format!(
            "# step_ms over {} samples before scaling: quartiles {q1:?} {q2:?} {q3:?}, p99 {:?}",
            log.len(),
            quantile(&log.ms, 0.99).unwrap_or(0.0)
        ));
        m.set("setup_s", median(&setups).unwrap_or(0.0));
        let samples: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
        m.note(format!(
            "# setup_s: median of set-ups {}",
            samples.join(" ")
        ));
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("energy_kwh", units[0].energy_kwh);
        m.set("peak_die_c", units[0].peak_die_c);
        for (name, value) in &units[0].extra {
            m.note(format!("# {name} = {value:?}"));
        }
    }
    m.set("error_rate", checks.error_rate());
    (checks, m)
}

/// Every server-step the units drove over all their stepping host time.
fn server_steps_per_s(units: &[Unit]) -> f64 {
    let steps: u64 = units.iter().map(|u| u.server_steps).sum();
    let secs: f64 = units.iter().map(|u| u.stepping_s).sum();
    steps as f64 / secs.max(1e-12)
}

/// Per-layer reduction of the traced units, plus the untraced and
/// plan-2 check units the traced outputs must match.
fn traced_metrics(workload: &dyn Workload, traced: &[Unit], checks: &mut Checks, m: &mut Measured) {
    let reference = traced[0].digest;
    let Some(untraced) = workload.unit(PLAN, false, checks) else {
        return;
    };
    checks.check(
        untraced.digest == reference,
        "traced and untraced runs produce bit-identical outputs",
    );
    let other = if workload.sharded() {
        let Some(unit) = workload.unit(OTHER_PLAN, false, checks) else {
            return;
        };
        checks.check(
            unit.digest == reference,
            "plan-1 and plan-2 runs produce bit-identical outputs",
        );
        Some(unit)
    } else {
        None
    };

    let mut log = StepLog::default();
    let mut layers = LayerTimes::default();
    let mut secs = 0.0f64;
    for u in traced {
        log.extend(&u.log);
        secs += u.stepping_s;
        let l = &u.layers;
        for (acc, add) in [
            (&mut layers.place, l.place),
            (&mut layers.decide, l.decide),
            (&mut layers.preview, l.preview),
            (&mut layers.observe, l.observe),
        ] {
            acc.calls += add.calls;
            acc.total += add.total;
        }
        layers.applied += l.applied;
    }
    let traced_sps = server_steps_per_s(traced);
    m.set("trace.steps_per_s", traced_sps);
    m.set(
        "trace.overhead_ratio",
        server_steps_per_s(std::slice::from_ref(&untraced)) / traced_sps,
    );

    if !log.is_empty() && log.count(StepClass::Decision) > 0 {
        let plain = log.p50(StepClass::Plain);
        let poll = log.p50(StepClass::Poll);
        let decision = log.p50(StepClass::Decision);
        let mean = log.mean();
        m.set("step.plain_ms", plain);
        m.set("step.poll_extra_ms", poll - plain);
        m.set("step.decision_extra_ms", decision - plain);
        m.set("step.max_ms", log.max());
        m.set("step.mean_ms", mean);
        m.set("step.unattributed_ms", mean - log.attributed_mean());

        let decisions = log.count(StepClass::Decision) as f64;
        let per_decision_ms = |total: std::time::Duration| total.as_secs_f64() * 1e3 / decisions;
        let observe_ms = layers.observe.mean_us() / 1e3 * workload.observes_per_decision();
        let place_ms = per_decision_ms(layers.place.total);
        let decide_ms = per_decision_ms(layers.decide.total);
        m.set(
            "step.decision_unattributed_ms",
            decision - plain - observe_ms - place_ms - decide_ms,
        );
        let n = log.len() as f64;
        m.note(format!(
            "# step breakdown (ms): mean {mean:.4} = plain {plain:.4} + poll {:.4} x {:.3} \
             + decision {:.4} x {:.3} + unattributed {:.4}",
            poll - plain,
            log.count(StepClass::Poll) as f64 / n,
            decision - plain,
            decisions / n,
            mean - log.attributed_mean(),
        ));
        m.note(format!(
            "# decision step extra (ms): observe {observe_ms:.4} + place {place_ms:.4} \
             + decide {decide_ms:.4} (preview {:.4}) + unattributed {:.4}",
            per_decision_ms(layers.preview.total),
            decision - plain - observe_ms - place_ms - decide_ms,
        ));
        if let Some(other) = &other {
            // Wall time: on plan 2 the measuring thread waits for its
            // workers, so its CPU clock would miss their work.
            let two = other.log.p50_wall(StepClass::Plain);
            if two > 0.0 {
                m.set(
                    "shard.speedup_2t",
                    untraced.log.p50_wall(StepClass::Plain) / two,
                );
            }
        }
    }
    if layers.observe.calls > 0 {
        m.set("room.observe_us", layers.observe.mean_us());
    }
    if layers.place.calls > 0 {
        m.set("schedule.place_us", layers.place.mean_us());
        m.set(
            "schedule.share",
            layers.place.total.as_secs_f64() / secs.max(1e-12),
        );
    }
    if layers.decide.calls > 0 {
        m.set("control.decide_us", layers.decide.mean_us());
        m.set(
            "control.applied_ratio",
            layers.applied as f64 / layers.decide.calls as f64,
        );
        m.set(
            "air.previews_per_decision",
            layers.preview.calls as f64 / layers.decide.calls as f64,
        );
    }
    if layers.preview.calls > 0 {
        m.set("air.preview_us", layers.preview.mean_us());
    }
    // Counters are per unit (the first traced unit); timings are the
    // median across traced units.
    let units = traced.len() as f64;
    m.set("schedule.calls", layers.place.calls as f64 / units);
    m.set("control.decisions", layers.decide.calls as f64 / units);
    let names: Vec<&'static str> = traced[0].extra.iter().map(|(k, _)| *k).collect();
    for name in names {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|u| u.extra.iter().find(|(k, _)| *k == name).map(|(_, v)| *v))
            .collect();
        m.set(name, median(&values).unwrap_or(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_all_steps_over_all_stepping_time() {
        let unit = |server_steps, stepping_s| Unit {
            server_steps,
            stepping_s,
            ..Unit::default()
        };
        // A unit with one rare heavy stall still counts in full.
        let units = [unit(1_000, 1.0), unit(1_000, 3.0)];
        assert!((server_steps_per_s(&units) - 500.0).abs() < 1e-9);
    }
}
