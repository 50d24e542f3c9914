//! Thermal-aware scheduling comparison: the harness behind the
//! `repro-sched` figure.
//!
//! The set-point sweep ([`crate::setpoint`]) showed that *cooling*
//! adapts to the load; this harness shows that *placement* is a second,
//! independent lever. The room's tile-flow split is geometric — racks
//! far from the CRAH wall are inlet-starved — so a thermally blind
//! scheduler (round-robin) pushes as much work into the starved corners
//! as into the well-fed front row. The hottest rack then pins two costs
//! at once: its dies run up the exponential leakage curve, and its
//! inlet lift forces the supply set-point colder for the whole room
//! (worse CRAH COP). A thermal-aware policy places work where the
//! marginal leakage is lowest, flattening the hot spot, which the LUT
//! controller converts into a warmer supply and a cheaper bill.
//!
//! [`run_sched_comparison`] drives the three `leakctl::schedule`
//! policies — round-robin, thermal-greedy, and the local-search
//! metaheuristic — through identical rooms, job streams and LUT
//! cooling controllers, and reports total energy and peak die
//! temperature per policy. The `repro-sched` binary renders the result
//! into `BENCH_perf.json` and exits nonzero unless *both* thermal-aware
//! policies strictly beat round-robin on energy at equal-or-lower peak
//! die temperature — the CI acceptance gate.

use std::time::Instant;

use leakctl::control::{ControlAction, LutEntry, LutSetPointController};
use leakctl::prelude::{Server, ServerConfig};
use leakctl::room::{Room, RoomConfig};
use leakctl::schedule::{
    JobStream, JobStreamConfig, LocalSearchScheduler, RoomScheduler, RoundRobinScheduler,
    ScheduledLoop, ThermalGreedyConfig, ThermalGreedyScheduler,
};
use leakctl_units::{Celsius, Rpm, SimDuration, Utilization, Watts};

use crate::perf::PerfResult;
use crate::REPRO_SEED;

/// Scenario for one scheduling comparison: floor geometry, the job
/// stream, the shared LUT cooling controller, and the feasibility cap.
#[derive(Debug, Clone)]
pub struct SchedScenario {
    /// Rack rows on the floor (rows far from the CRAH wall are
    /// inlet-starved — the heterogeneity the schedulers compete on).
    pub rows: usize,
    /// Racks per row.
    pub racks_per_row: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// Hot-aisle recirculation fraction β.
    pub recirculation: f64,
    /// Simulation step.
    pub dt: SimDuration,
    /// Settling steps before accounting starts (the floor fills to its
    /// steady occupancy and the controller reaches its operating
    /// point).
    pub warmup_steps: u64,
    /// Measured steps (the energies compared cover exactly these).
    pub steps: u64,
    /// Mean job arrival rate, jobs per simulated second.
    pub arrival_rate: f64,
    /// Mean job duration.
    pub mean_duration: SimDuration,
    /// Shortest possible job.
    pub min_duration: SimDuration,
    /// Per-job utilization range (uniform).
    pub utilization_lo: f64,
    /// Upper utilization bound.
    pub utilization_hi: f64,
    /// Scheduler decision period.
    pub sched_period: SimDuration,
    /// Hot-spot cap (°C): a run whose hottest die ever exceeds this
    /// during the measured phase is infeasible.
    pub die_limit: f64,
    /// Room-wide fan speed, pinned identically for every policy so the
    /// comparison isolates placement.
    pub fan_floor: f64,
    /// Per-rack power budget handed to the thermal-aware policies
    /// (watts per server; the greedy feasibility check multiplies by
    /// the rack's server count).
    pub budget_per_server: f64,
    /// Job-stream and profiling-twin seed.
    pub seed: u64,
}

impl SchedScenario {
    /// The full acceptance scenario: an 8 × 8 × 48 floor
    /// (3072 servers), one simulated hour measured after a ten-minute
    /// fill phase, with Poisson arrivals sized for ~60 % steady slot
    /// occupancy (`λ · mean_duration ≈ 1800 resident jobs`).
    #[must_use]
    pub fn full() -> Self {
        Self {
            rows: 8,
            racks_per_row: 8,
            servers_per_rack: 48,
            recirculation: 0.15,
            dt: SimDuration::from_secs(1),
            warmup_steps: 600,
            steps: 3_600,
            arrival_rate: 3.0,
            mean_duration: SimDuration::from_mins(10),
            min_duration: SimDuration::from_mins(1),
            utilization_lo: 0.5,
            utilization_hi: 1.0,
            sched_period: SimDuration::from_secs(15),
            die_limit: 85.0,
            fan_floor: 1_800.0,
            budget_per_server: 600.0,
            seed: REPRO_SEED,
        }
    }

    /// A reduced scenario for smoke tests and the debug-mode tier-1
    /// suite: a 2 × 2 × 4 floor (16 servers — row 1 still sits off the
    /// CRAH wall, so the heterogeneity the policies compete on
    /// survives), shorter phases, the same physics.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            rows: 2,
            racks_per_row: 2,
            servers_per_rack: 4,
            recirculation: 0.15,
            dt: SimDuration::from_secs(1),
            warmup_steps: 300,
            steps: 1_800,
            arrival_rate: 0.04,
            mean_duration: SimDuration::from_mins(5),
            min_duration: SimDuration::from_secs(30),
            utilization_lo: 0.5,
            utilization_hi: 1.0,
            sched_period: SimDuration::from_secs(15),
            die_limit: 85.0,
            fan_floor: 1_800.0,
            budget_per_server: 600.0,
            seed: REPRO_SEED,
        }
    }

    /// Total server count.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.rows * self.racks_per_row * self.servers_per_rack
    }

    /// The job-stream generator config every policy replays (same
    /// seed → bit-identical trace per policy).
    #[must_use]
    pub fn stream_config(&self) -> JobStreamConfig {
        JobStreamConfig {
            arrival_rate: self.arrival_rate,
            mean_duration: self.mean_duration,
            min_duration: self.min_duration,
            utilization_lo: self.utilization_lo,
            utilization_hi: self.utilization_hi,
            seed: self.seed,
        }
    }

    /// The shared thermal-policy tuning: the projected die rise per
    /// unit of rack utilization is the twin-profiled idle→full die
    /// *swing* at the scenario fan floor (the marginal response —
    /// rise-over-inlet would fold the inlet itself into every
    /// projection and make the policy refuse feasible racks), and each
    /// rack's power budget is
    /// [`budget_per_server`](Self::budget_per_server) × servers.
    #[must_use]
    pub fn greedy_config(&self) -> ThermalGreedyConfig {
        let mut cfg = ThermalGreedyConfig::paper_default();
        cfg.period = self.sched_period;
        cfg.die_rise =
            self.characterized_rise(Utilization::FULL) - self.characterized_rise(Utilization::IDLE);
        cfg.power_budget = Some(Watts::new(
            self.budget_per_server * self.servers_per_rack as f64,
        ));
        cfg
    }

    /// The LUT cooling controller every policy runs under, built like
    /// the set-point sweep's: per load band, aim the cold aisles at the
    /// cap minus a safety margin, minus the twin-profiled die rise,
    /// minus a headroom reserve that shrinks as the band approaches
    /// full load (job churn can raise a rack's load between decisions).
    #[must_use]
    pub fn lut_controller(&self) -> LutSetPointController {
        let margin = 2.0;
        let step_headroom = 6.0;
        let entries = [0.35, 0.75, 1.0]
            .into_iter()
            .map(|band| {
                let load = Utilization::saturating_from_fraction(band);
                let rise = self.characterized_rise(load);
                let reserve = step_headroom * (1.0 - band);
                LutEntry {
                    max_load: load,
                    cold_aisle_target: Celsius::new(self.die_limit - margin - rise - reserve),
                }
            })
            .collect();
        LutSetPointController::new(entries)
            .with_supply_range(Celsius::new(14.0), Celsius::new(32.0))
            .with_period(SimDuration::from_secs(15))
    }

    /// Offline profiling: the steady die rise over the inlet when the
    /// server twin holds `load` at the scenario fan floor — the
    /// first-order thermal response both the LUT bands and the greedy
    /// cost model plan with.
    fn characterized_rise(&self, load: Utilization) -> f64 {
        let config = ServerConfig::default();
        let ambient = config.ambient.degrees();
        let mut twin = Server::new(config, self.seed).expect("profiling twin builds");
        twin.command_fan_speed(Rpm::new(self.fan_floor));
        let mut rise = 0.0f64;
        for step in 0..self.warmup_steps + self.steps {
            twin.step(self.dt, load).expect("profiling twin steps");
            if step >= self.warmup_steps {
                rise = rise.max(twin.max_die_temperature().degrees() - ambient);
            }
        }
        rise
    }

    /// Runs one policy: identical room, fan floor, job stream and LUT
    /// controller; fill during warm-up, then reset accounting and peak
    /// tracking and measure.
    fn run_policy(&self, scheduler: &mut dyn RoomScheduler, name: &str) -> SchedRun {
        let mut config = RoomConfig::new(self.rows, self.racks_per_row, self.servers_per_rack);
        config.recirculation_fraction = self.recirculation;
        config.die_limit = Celsius::new(self.die_limit);
        let mut room = Room::new(config).expect("scenario room builds");
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(self.fan_floor)))
            .expect("fan floor applies");
        let mut controller = self.lut_controller();
        scheduler.reset();

        let stream = JobStream::generate(self.stream_config()).expect("stream config is valid");
        let mut the_loop = ScheduledLoop::new(stream);
        the_loop
            .run(
                &mut room,
                scheduler,
                &mut controller,
                self.dt,
                self.warmup_steps,
            )
            .expect("warm-up runs");
        room.reset_accounting();
        the_loop.reset_peaks();
        let start = Instant::now();
        let stats = the_loop
            .run(&mut room, scheduler, &mut controller, self.dt, self.steps)
            .expect("measured phase runs");
        let wall_s = start.elapsed().as_secs_f64();

        let max_die_c = stats.peak_die.degrees();
        SchedRun {
            name: name.to_owned(),
            total_kwh: room.total_energy().as_kwh().value(),
            it_kwh: room.it_energy().as_kwh().value(),
            cooling_kwh: room.cooling_energy().as_kwh().value(),
            max_die_c,
            feasible: max_die_c <= self.die_limit,
            placed: stats.placed,
            completed: stats.completed,
            rejected: stats.rejected,
            peak_pending: stats.peak_pending,
            wall_s,
            server_steps: self.steps * self.servers() as u64,
        }
    }
}

/// Outcome of one scheduled run under one policy.
#[derive(Debug, Clone)]
pub struct SchedRun {
    /// Policy label (`round-robin`, `thermal-greedy`, `local-search`).
    pub name: String,
    /// Total (IT + cooling) energy over the measured phase, kWh.
    pub total_kwh: f64,
    /// IT (server + fan) energy, kWh.
    pub it_kwh: f64,
    /// CRAH cooling energy, kWh.
    pub cooling_kwh: f64,
    /// Hottest die seen during the measured phase, °C.
    pub max_die_c: f64,
    /// `true` when the hot spot stayed under the scenario cap.
    pub feasible: bool,
    /// Jobs placed over the whole run (fill + measured).
    pub placed: u64,
    /// Jobs completed over the whole run.
    pub completed: u64,
    /// Infeasible assignments rejected by the loop.
    pub rejected: u64,
    /// Deepest pending queue during the measured phase.
    pub peak_pending: usize,
    /// Wall-clock seconds of the measured phase.
    pub wall_s: f64,
    /// Server-steps executed in the measured phase.
    pub server_steps: u64,
}

/// The three policies on identical rooms and job streams.
#[derive(Debug, Clone)]
pub struct SchedComparison {
    /// The thermally blind baseline.
    pub round_robin: SchedRun,
    /// Coldest-first marginal-leakage placement.
    pub greedy: SchedRun,
    /// Local-search refinement of the greedy seed.
    pub local_search: SchedRun,
}

impl SchedComparison {
    /// Percent energy saved by `run` against round-robin (negative
    /// when it loses).
    #[must_use]
    pub fn savings_pct(&self, run: &SchedRun) -> f64 {
        (1.0 - run.total_kwh / self.round_robin.total_kwh) * 100.0
    }

    /// The worst (smallest) saving across both thermal-aware policies
    /// — the single number the CI gate pins.
    #[must_use]
    pub fn min_savings_pct(&self) -> f64 {
        self.savings_pct(&self.greedy)
            .min(self.savings_pct(&self.local_search))
    }

    /// The worst (largest) peak-die delta of the thermal-aware
    /// policies against round-robin, °C; the gate requires ≤ 0.
    #[must_use]
    pub fn peak_die_delta(&self) -> f64 {
        (self.greedy.max_die_c - self.round_robin.max_die_c)
            .max(self.local_search.max_die_c - self.round_robin.max_die_c)
    }

    /// The acceptance criterion: both thermal-aware policies feasible,
    /// strictly cheaper than round-robin, at equal-or-lower peak die
    /// temperature.
    #[must_use]
    pub fn strictly_wins(&self) -> bool {
        self.greedy.feasible
            && self.local_search.feasible
            && self.greedy.total_kwh < self.round_robin.total_kwh
            && self.local_search.total_kwh < self.round_robin.total_kwh
            && self.peak_die_delta() <= 0.0
    }

    /// Renders the comparison as one `leakctl-perf/v1` measurement:
    /// scheduled-loop server-steps/sec across all three policies, with
    /// the savings, the peak-die delta and the per-policy energies as
    /// extras.
    #[must_use]
    pub fn to_perf_result(&self) -> PerfResult {
        let runs = [&self.round_robin, &self.greedy, &self.local_search];
        let steps: u64 = runs.iter().map(|r| r.server_steps).sum();
        let wall: f64 = runs.iter().map(|r| r.wall_s).sum();
        let per_policy: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"policy\": \"{}\", \"total_kwh\": {:.6}, \"it_kwh\": {:.6}, \
                     \"cooling_kwh\": {:.6}, \"max_die_c\": {:.3}, \"placed\": {}, \
                     \"completed\": {}, \"peak_pending\": {}}}",
                    r.name,
                    r.total_kwh,
                    r.it_kwh,
                    r.cooling_kwh,
                    r.max_die_c,
                    r.placed,
                    r.completed,
                    r.peak_pending,
                )
            })
            .collect();
        PerfResult {
            name: "sched_servers_per_sec",
            steps,
            wall_s: wall.max(1e-12),
            extra: vec![
                (
                    "sched_savings_pct",
                    format!("{:.4}", self.min_savings_pct()),
                ),
                (
                    "sched_peak_die_delta",
                    format!("{:.4}", self.peak_die_delta()),
                ),
                ("sched_strict_win", format!("{}", self.strictly_wins())),
                ("per_policy", format!("[{}]", per_policy.join(", "))),
            ],
        }
    }
}

/// Runs the whole comparison: round-robin, thermal-greedy and the
/// local-search metaheuristic on identical rooms, fan floors, job
/// streams and LUT cooling controllers.
#[must_use]
pub fn run_sched_comparison(scenario: &SchedScenario) -> SchedComparison {
    let mut rr = RoundRobinScheduler::new(scenario.sched_period);
    let round_robin = scenario.run_policy(&mut rr, "round-robin");
    let cfg = scenario.greedy_config();
    let mut greedy = ThermalGreedyScheduler::new(cfg.clone());
    let greedy = scenario.run_policy(&mut greedy, "thermal-greedy");
    let mut meta = LocalSearchScheduler::new(cfg);
    let local_search = scenario.run_policy(&mut meta, "local-search");
    SchedComparison {
        round_robin,
        greedy,
        local_search,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str, total_kwh: f64, max_die_c: f64, feasible: bool) -> SchedRun {
        SchedRun {
            name: name.to_owned(),
            total_kwh,
            it_kwh: total_kwh * 0.8,
            cooling_kwh: total_kwh * 0.2,
            max_die_c,
            feasible,
            placed: 100,
            completed: 90,
            rejected: 0,
            peak_pending: 3,
            wall_s: 0.1,
            server_steps: 1_000,
        }
    }

    fn comparison(greedy: SchedRun, local_search: SchedRun) -> SchedComparison {
        SchedComparison {
            round_robin: run("round-robin", 10.0, 80.0, true),
            greedy,
            local_search,
        }
    }

    #[test]
    fn savings_and_deltas_are_measured_against_round_robin() {
        let c = comparison(
            run("thermal-greedy", 9.5, 78.0, true),
            run("local-search", 9.4, 77.0, true),
        );
        assert!((c.savings_pct(&c.greedy) - 5.0).abs() < 1e-9);
        assert!((c.min_savings_pct() - 5.0).abs() < 1e-9);
        assert!((c.peak_die_delta() - (-2.0)).abs() < 1e-9);
        assert!(c.strictly_wins());
    }

    #[test]
    fn strict_win_requires_energy_and_temperature() {
        // Cheaper but hotter: no win.
        let hotter = comparison(
            run("thermal-greedy", 9.5, 81.0, true),
            run("local-search", 9.4, 77.0, true),
        );
        assert!(!hotter.strictly_wins());
        // Cooler but not cheaper: no win.
        let tie = comparison(
            run("thermal-greedy", 10.0, 78.0, true),
            run("local-search", 9.4, 77.0, true),
        );
        assert!(!tie.strictly_wins());
        // Infeasible: no win.
        let infeasible = comparison(
            run("thermal-greedy", 9.5, 86.0, false),
            run("local-search", 9.4, 77.0, true),
        );
        assert!(!infeasible.strictly_wins());
    }

    #[test]
    fn comparison_renders_the_gate_extras() {
        let c = comparison(
            run("thermal-greedy", 9.5, 78.0, true),
            run("local-search", 9.4, 77.0, true),
        );
        let result = c.to_perf_result();
        assert_eq!(result.name, "sched_servers_per_sec");
        assert_eq!(result.steps, 3_000);
        let extras: Vec<&str> = result.extra.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            extras,
            [
                "sched_savings_pct",
                "sched_peak_die_delta",
                "sched_strict_win",
                "per_policy"
            ]
        );
        assert!(result.extra[3].1.contains("\"policy\": \"round-robin\""));
    }

    #[test]
    fn quick_scenario_is_well_formed() {
        let s = SchedScenario::quick();
        assert_eq!(s.servers(), 16);
        assert!(JobStream::generate(s.stream_config()).is_ok());
        let lut = s.lut_controller();
        let light = lut.target_for(Utilization::saturating_from_fraction(0.2));
        let full = lut.target_for(Utilization::FULL);
        assert!(
            light.degrees() > full.degrees(),
            "targets must cool as load rises: {light:?} / {full:?}"
        );
    }

    #[test]
    fn tiny_comparison_runs_end_to_end() {
        // A miniature floor just to exercise the full run path; the
        // acceptance gate itself runs on the repro scenario.
        let mut s = SchedScenario::quick();
        s.warmup_steps = 60;
        s.steps = 240;
        let c = run_sched_comparison(&s);
        for r in [&c.round_robin, &c.greedy, &c.local_search] {
            assert!(r.total_kwh > 0.0, "{} accounted energy", r.name);
            assert!(r.placed > 0, "{} placed jobs", r.name);
            assert!(r.max_die_c > 20.0, "{} tracked a peak", r.name);
        }
    }
}
