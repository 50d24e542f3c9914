//! `paper-table1`: the paper's single-server pipeline.
//!
//! For each seed of a fixed list derived from the benchmark seed:
//! characterize the server on the paper's utilization × fan-speed grid,
//! fit the power models, build the fan-speed LUT, and reproduce Table I
//! (four 80-minute tests × Default / Bang / LUT). Characterization,
//! fitting and the LUT are the paper's offline controller profiling, so
//! they are this workload's set-up; the Table I runs are its stepping.
//! This is the scalar
//! `Server` path, where telemetry is written and read back; it covers
//! the fan controllers and the power fitting, with no room, fleet or
//! sharding. It is the only workload with a reference to be accurate
//! against (`leakctl::paper::TABLE1`).

use leakctl::paper::TABLE1;
use leakctl::{
    build_lut_from_characterization, characterize, fit_models, generate_table1, run_experiment,
    CharacterizeOptions, CoreError, RunOptions, Table1, Table1Options,
};
use leakctl_control::{FixedSpeedController, LookupTable};
use leakctl_platform::{Server, ServerConfig};
use leakctl_units::{SimDuration, Utilization};
use leakctl_workload::suite;

use crate::clock::Stopwatch;
use crate::drive::{Unit, Workload};
use crate::report::Digest;
use crate::stats::median;
use crate::trace::{StepClass, StepLog};
use crate::{derive_seed, Checks, Measured};

/// Pipelines per unit (one per derived seed).
pub const SEEDS: u64 = 3;
/// The Test-3 Default energy at seed 42, pinned by the integration
/// suite as the "physics unchanged" canary.
pub const PINNED_TEST3_KWH: &str = "0.724237241408";

/// Simulated one-second server steps of one seed's Table I: the 35-min
/// idle-power probe and twelve runs (10 + 5 + 80 + 10 min).
pub const STEPS_PER_SEED: u64 = 2_100 + 12 * 6_300;

/// The `paper-table1` workload for one benchmark seed.
#[derive(Debug, Clone, Copy)]
pub struct Paper {
    /// Benchmark seed the pipeline seeds derive from.
    pub seed: u64,
}

/// Host nanoseconds per `Server::step` of a standalone server at
/// 75 % utilization (after a short settle).
#[must_use]
pub fn server_step_ns(seed: u64) -> f64 {
    const SETTLE: u32 = 200;
    const STEPS: u32 = 2_000;
    let Ok(mut server) = Server::new(ServerConfig::default(), seed) else {
        return f64::NAN;
    };
    let dt = SimDuration::from_secs(1);
    let load = Utilization::saturating_from_fraction(0.75);
    for _ in 0..SETTLE {
        if server.step(dt, load).is_err() {
            return f64::NAN;
        }
    }
    let t = Stopwatch::start();
    for _ in 0..STEPS {
        if server.step(dt, load).is_err() {
            return f64::NAN;
        }
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(STEPS)
}

/// Mean relative error (percent) of the reproduced Table I energies
/// against the paper's; `None` when a paper row has no counterpart.
#[must_use]
pub fn model_err_pct(table: &Table1) -> Option<f64> {
    let mut sum = 0.0;
    for paper in &TABLE1 {
        let row = table.row(&format!("Test-{}", paper.test), paper.scheme)?;
        sum += (row.energy.value() - paper.energy_kwh).abs() / paper.energy_kwh;
    }
    Some(sum / TABLE1.len() as f64 * 100.0)
}

/// Digest of every simulated output of one Table I.
fn table_digest(table: &Table1) -> Digest {
    let mut digest = Digest::default().f64(table.idle_power.value());
    for r in &table.rows {
        digest = digest
            .bytes(r.test.as_bytes())
            .bytes(r.scheme.as_bytes())
            .f64(r.energy.value())
            .f64(r.net_savings_pct.unwrap_or(f64::NAN))
            .f64(r.peak_power.value())
            .f64(r.max_temp_c)
            .u64(r.fan_changes)
            .f64(r.avg_rpm.value());
    }
    digest
}

/// Per-stage host seconds of one seed's pipeline.
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    characterize: f64,
    fit: f64,
    lut: f64,
    table1: f64,
}

/// One seed's controller profile: the LUT Table I evaluates.
struct Profiled {
    seed: u64,
    lut: LookupTable,
    digest: Digest,
    stages: Stages,
}

/// Everything built before the first Table I step.
struct Setup {
    profiled: Vec<Profiled>,
    build_s: f64,
    profile_s: f64,
}

impl Paper {
    /// Builds the protocol options, then profiles every seed:
    /// characterize, fit the power models, build the LUT.
    fn setup(&self) -> Result<Setup, CoreError> {
        let start = Stopwatch::start();
        let options = CharacterizeOptions::paper();
        let seeds: Vec<u64> = (0..SEEDS).map(|i| derive_seed(self.seed, i)).collect();
        let build_s = start.elapsed().as_secs_f64();

        let start = Stopwatch::start();
        let mut profiled = Vec::with_capacity(seeds.len());
        for seed in seeds {
            let watch = Stopwatch::start();
            let data = characterize(&options, seed)?;
            let t1 = watch.elapsed();
            let fitted = fit_models(&data)?;
            let t2 = watch.elapsed();
            let lut = build_lut_from_characterization(&data, &fitted)?;
            let t3 = watch.elapsed();
            let mut digest = Digest::default()
                .u64(seed)
                .f64(fitted.k1)
                .f64(fitted.k2)
                .f64(fitted.k3);
            for (u, rpm) in lut.entries() {
                digest = digest.f64(u.as_fraction()).f64(rpm.value());
            }
            let stages = Stages {
                characterize: t1.as_secs_f64(),
                fit: (t2 - t1).as_secs_f64(),
                lut: (t3 - t2).as_secs_f64(),
                table1: 0.0,
            };
            profiled.push(Profiled {
                seed,
                lut,
                digest,
                stages,
            });
        }
        Ok(Setup {
            profiled,
            build_s,
            profile_s: start.elapsed().as_secs_f64(),
        })
    }
}

impl Workload for Paper {
    fn sharded(&self) -> bool {
        false
    }

    fn observes_per_decision(&self) -> f64 {
        0.0
    }

    fn setup_only(&self, checks: &mut Checks) -> Option<(f64, f64)> {
        match self.setup() {
            Ok(s) => Some((s.build_s, s.profile_s)),
            Err(e) => {
                checks.error("paper profiling", &e);
                None
            }
        }
    }

    fn pinned_checks(&self, checks: &mut Checks, m: &mut Measured) {
        let Some((_, profile)) = suite::all(42).into_iter().find(|(n, _)| *n == "Test-3") else {
            checks.check(false, "paper: the workload suite has a Test-3");
            return;
        };
        let mut controller = FixedSpeedController::paper_default();
        match run_experiment(&RunOptions::default(), profile, &mut controller, 42) {
            Ok(outcome) => {
                let kwh = outcome.metrics.total_energy.as_kwh().value();
                checks.check(
                    format!("{kwh:.12}") == PINNED_TEST3_KWH,
                    "paper: Test-3 Default energy at seed 42 reproduces 0.724237241408 kWh",
                );
                m.note(format!("# pinned Test-3 Default energy: {kwh:.12} kWh"));
            }
            Err(e) => checks.error("paper: pinned Test-3 run", &e),
        }
    }

    fn unit(&self, _plan: usize, traced: bool, checks: &mut Checks) -> Option<Unit> {
        let Setup {
            profiled,
            build_s,
            profile_s,
        } = match self.setup() {
            Ok(s) => s,
            Err(e) => {
                checks.error("paper profiling", &e);
                return None;
            }
        };
        let mut log = StepLog::default();
        let mut stages = Vec::new();
        let mut digest = Digest::default();
        let (mut energy, mut peak, mut err, mut stepping_s) = (0.0, f64::NEG_INFINITY, 0.0, 0.0);
        let seeds = profiled.len();
        for p in profiled {
            let t = Stopwatch::start();
            let table = match generate_table1(&Table1Options {
                run: RunOptions::default(),
                seed: p.seed,
                lut: p.lut,
            }) {
                Ok(table) => table,
                Err(e) => {
                    checks.error("paper Table I", &e);
                    return None;
                }
            };
            let (cpu, wall) = (t.elapsed(), t.wall());
            let steps = STEPS_PER_SEED as u32;
            log.push(cpu / steps, wall / steps, StepClass::Plain);
            stepping_s += cpu.as_secs_f64();
            stages.push(Stages {
                table1: cpu.as_secs_f64(),
                ..p.stages
            });
            digest = digest
                .bytes(p.digest.hex().as_bytes())
                .bytes(table_digest(&table).hex().as_bytes());
            checks.ok(1 + table.rows.len() as u64);
            let lut_rows: Vec<_> = table.rows.iter().filter(|r| r.scheme == "LUT").collect();
            checks.check(
                table.rows.len() == TABLE1.len() && lut_rows.len() == 4,
                "paper: Table I has twelve rows, four of them LUT",
            );
            energy += lut_rows.iter().map(|r| r.energy.value()).sum::<f64>();
            peak = lut_rows.iter().map(|r| r.max_temp_c).fold(peak, f64::max);
            match model_err_pct(&table) {
                Some(e) => err += e,
                None => checks.check(false, "paper: every paper row is reproduced"),
            }
        }
        let n = seeds as f64;
        let mut unit = Unit {
            digest,
            log,
            stepping_s,
            server_steps: STEPS_PER_SEED * seeds as u64,
            build_s,
            profile_s,
            energy_kwh: energy / n,
            peak_die_c: peak,
            ..Unit::default()
        };
        unit.extra.push(("paper.model_err_pct", err / n));
        if traced {
            let med = |f: fn(&Stages) -> f64| {
                median(&stages.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
            };
            unit.extra
                .push(("paper.characterize_s", med(|s| s.characterize)));
            unit.extra.push(("paper.fit_s", med(|s| s.fit)));
            unit.extra.push(("paper.lut_s", med(|s| s.lut)));
            unit.extra.push(("paper.table1_s", med(|s| s.table1)));
            unit.extra
                .push(("server.step_ns", server_step_ns(self.seed)));
        }
        Some(unit)
    }
}
