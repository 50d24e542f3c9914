//! Set-point control sweep: the harness behind the `repro-setpoint`
//! figure.
//!
//! The paper's headline room-scale claim is that *adaptive* supply
//! set-point control — LUT or receding-horizon MPC — beats every fixed
//! set-point on total (IT + cooling) energy, because the energy-optimal
//! supply moves with the load: warm supplies win at light load (the
//! CRAH COP improves quadratically while the leakage slope is flat) but
//! the hot-spot cap forces cold supplies at full load. A fixed baseline
//! must stay feasible through the *worst* phase of the load schedule
//! and therefore overcools the rest of it.
//!
//! [`run_setpoint_sweep`] reproduces that figure: for each hot-aisle
//! recirculation fraction β it runs a grid of
//! [`FixedSupplyController`] baselines, keeps the cheapest *feasible*
//! one (hottest die under the cap for the whole measured run), then
//! runs [`LutSetPointController`] and [`MpcSetPointController`] on the
//! identical room and load schedule and reports the per-β energies and
//! savings. The `repro-setpoint` binary renders the result into
//! `BENCH_perf.json` and exits nonzero unless both adaptive controllers
//! strictly win at every β — the CI acceptance gate.

use std::time::Instant;

use leakctl::control::{
    ControlAction, FixedSupplyController, LutEntry, LutSetPointController, MpcSetPointController,
    RoomController, TileFlowBalancer,
};
use leakctl::prelude::{Server, ServerConfig};
use leakctl::room::{Room, RoomConfig};
use leakctl_units::{Celsius, Rpm, SimDuration, Utilization};

use crate::perf::PerfResult;
use crate::REPRO_SEED;

/// Scenario for one set-point sweep: floor geometry, the load
/// schedule, the fixed-baseline grid and the feasibility cap.
///
/// The load schedule is a square wave — `load_period` steps alternating
/// between full load and `low_load` — the regime where adaptive
/// control pays: a fixed supply must survive the full-load phase, an
/// adaptive one re-optimizes each phase.
#[derive(Debug, Clone)]
pub struct SetPointScenario {
    /// Rack rows on the floor.
    pub rows: usize,
    /// Racks per row.
    pub racks_per_row: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// Hot-aisle recirculation fractions β to sweep.
    pub betas: Vec<f64>,
    /// Fixed-baseline supply grid (°C).
    pub fixed_supplies: Vec<f64>,
    /// Simulation step.
    pub dt: SimDuration,
    /// Settling steps before accounting starts (the room leaves its
    /// cold start and the controller reaches its operating point).
    pub warmup_steps: u64,
    /// Measured steps (the energies compared cover exactly these).
    pub steps: u64,
    /// Square-wave period of the load schedule, in steps.
    pub load_period: u64,
    /// Fraction of each period spent at full load (the rest runs at
    /// [`low_load`](Self::low_load)); realistic floors idle most of
    /// the time.
    pub high_fraction: f64,
    /// Activity fraction in the low-load part of the wave.
    pub low_load: f64,
    /// Hot-spot cap (°C): a run whose hottest die ever exceeds this
    /// during the measured phase is infeasible.
    pub die_limit: f64,
    /// Room-wide fan speed, pinned identically for every controller so
    /// the comparison isolates the supply/tile-flow policy.
    pub fan_floor: f64,
    /// Tile-flow balancer gain carried by the adaptive controllers
    /// (fraction of flow moved per °C of hot-spot imbalance).
    pub balancer_gain: f64,
    /// Sensor seed of the profiling twin.
    pub seed: u64,
}

impl SetPointScenario {
    /// The full acceptance scenario: the 256-server repro room
    /// (2 rows × 4 racks × 32 servers, matching `repro-room`) over
    /// three recirculation fractions, one simulated hour measured
    /// after a ten-minute settling phase. Each load segment (ten
    /// minutes full, twenty low) is several thermal time constants
    /// long, so every phase reaches its steady hot spot and no
    /// baseline survives on transient slack.
    #[must_use]
    pub fn full() -> Self {
        Self {
            rows: 2,
            racks_per_row: 4,
            servers_per_rack: 32,
            betas: vec![0.05, 0.15, 0.3],
            fixed_supplies: (0..10).map(|i| 14.0 + 2.0 * f64::from(i)).collect(),
            dt: SimDuration::from_secs(1),
            warmup_steps: 600,
            steps: 3_600,
            load_period: 1_800,
            high_fraction: 1.0 / 3.0,
            low_load: 0.25,
            die_limit: 85.0,
            fan_floor: 1_800.0,
            balancer_gain: 0.02,
            seed: REPRO_SEED,
        }
    }

    /// A reduced scenario for smoke tests and the debug-mode tier-1
    /// suite: a 1 × 2 × 4 floor, shorter phases, the same physics.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            rows: 1,
            racks_per_row: 2,
            servers_per_rack: 4,
            betas: vec![0.05, 0.2, 0.35],
            fixed_supplies: (0..10).map(|i| 14.0 + 2.0 * f64::from(i)).collect(),
            dt: SimDuration::from_secs(1),
            warmup_steps: 300,
            steps: 3_600,
            load_period: 1_800,
            high_fraction: 1.0 / 3.0,
            low_load: 0.25,
            die_limit: 85.0,
            fan_floor: 1_800.0,
            balancer_gain: 0.02,
            seed: REPRO_SEED,
        }
    }

    /// Total server count.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.rows * self.racks_per_row * self.servers_per_rack
    }

    /// The square-wave load schedule: full load for the first
    /// [`high_fraction`](Self::high_fraction) of each period,
    /// [`low_load`](Self::low_load) for the rest.
    #[must_use]
    pub fn activity_at(&self, step: u64) -> Utilization {
        let period = self.load_period.max(1);
        let high = ((period as f64) * self.high_fraction).round().max(1.0) as u64;
        if step % period < high {
            Utilization::FULL
        } else {
            Utilization::saturating_from_fraction(self.low_load)
        }
    }

    /// The LUT controller this scenario evaluates, built the way the
    /// paper builds its tables: an offline profiling pass on the
    /// server twin. For each load band the twin runs the scenario's
    /// own duty cycle with the band's load as the high phase
    /// (`characterized_rise`), and the band's cold-aisle
    /// target is the hot-spot cap minus a safety margin, minus the
    /// profiled rise, minus a step-headroom reserve scaled by how far
    /// the load can still rise beyond the band (so a warm-idling floor
    /// survives an unforecast ramp to full load within the
    /// controller's reaction window). The supply range is clamped to
    /// the fixed grid's span (no actuator-range advantage over the
    /// baselines) and the scenario's tile-flow balancer rides along.
    #[must_use]
    pub fn lut_controller(&self) -> LutSetPointController {
        let lo = self
            .fixed_supplies
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .fixed_supplies
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let margin = 1.75;
        let step_headroom = 8.0;
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
            .with_supply_range(Celsius::new(lo), Celsius::new(hi))
            .with_balancer(TileFlowBalancer::new(self.balancer_gain))
            // React fast at load steps: an adaptive controller's hot
            // spot lives in the warm-idle → full transition, and every
            // second of decision lag rides the full-load heating slope.
            .with_period(SimDuration::from_secs(15))
    }

    /// Offline profiling: the realized die rise over the inlet when
    /// the server twin runs this scenario's duty cycle with `high` as
    /// the high-phase load, at the scenario fan floor and a constant
    /// inlet. A *transient* profile rather than an infinite-horizon
    /// steady solve, because the chassis carries a slow thermal mode
    /// (heatsink and board mass) that never settles inside the
    /// operating window — steady-state characterization overshoots the
    /// realized peak by the slow mode's share of the duty swing and
    /// would leave the table overcooling every band.
    fn characterized_rise(&self, high: Utilization) -> f64 {
        let config = ServerConfig::default();
        let ambient = config.ambient.degrees();
        let mut twin = Server::new(config, self.seed).expect("profiling twin builds");
        twin.command_fan_speed(Rpm::new(self.fan_floor));
        let mut rise = 0.0f64;
        for step in 0..self.warmup_steps + self.steps {
            let act = if self.activity_at(step).is_full() {
                high
            } else {
                self.activity_at(step)
            };
            twin.step(self.dt, act).expect("profiling twin steps");
            if step >= self.warmup_steps {
                rise = rise.max(twin.max_die_temperature().degrees() - ambient);
            }
        }
        rise
    }

    /// The MPC controller this scenario evaluates:
    /// [`MpcSetPointController`] planning on a 1 °C lattice spanning
    /// exactly the fixed grid's range — the same actuator range as the
    /// baselines, finer planning resolution (resolution is the
    /// controller, not the actuator) — against the scenario cap minus
    /// a 0.5 °C margin so its linear-response prediction error cannot
    /// push the real hot spot over the cap, plus the scenario's
    /// tile-flow balancer.
    #[must_use]
    pub fn mpc_controller(&self) -> MpcSetPointController {
        let lo = self
            .fixed_supplies
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .fixed_supplies
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let mut cfg = leakctl::control::MpcConfig::paper_default();
        cfg.candidates = (0..=(hi - lo).round() as u32)
            .map(|i| Celsius::new(lo + f64::from(i)))
            .collect();
        cfg.die_limit = Celsius::new(self.die_limit - 0.5);
        cfg.step_headroom = Celsius::new(7.0);
        cfg.period = SimDuration::from_secs(15);
        MpcSetPointController::new(cfg).with_balancer(TileFlowBalancer::new(self.balancer_gain))
    }

    /// Runs one controller on one β: settle, reset accounting, then
    /// drive the measured phase through [`Room::run_controlled`],
    /// sampling the hot spot between decisions.
    fn run_one(&self, beta: f64, controller: &mut dyn RoomController, name: &str) -> SetPointRun {
        let mut config = RoomConfig::new(self.rows, self.racks_per_row, self.servers_per_rack);
        config.recirculation_fraction = beta;
        let mut room = Room::new(config).expect("scenario room builds");
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(self.fan_floor)))
            .expect("fan floor applies");
        controller.reset();

        let period_steps = (controller.decision_period().as_secs_f64() / self.dt.as_secs_f64())
            .round()
            .max(1.0) as u64;
        let drive = |room: &mut Room,
                     controller: &mut dyn RoomController,
                     offset: u64,
                     total: u64,
                     max_die: &mut f64|
         -> (u64, u64) {
            let (mut decisions, mut applied) = (0, 0);
            let mut done = 0;
            while done < total {
                let n = period_steps.min(total - done);
                let base = offset + done;
                let stats = room
                    .run_controlled(controller, self.dt, n, |i| self.activity_at(base + i))
                    .expect("controlled run succeeds");
                decisions += stats.decisions;
                applied += stats.applied;
                done += n;
                *max_die = max_die.max(room.max_die_temperature().degrees());
            }
            (decisions, applied)
        };

        let mut settle_die = 0.0;
        drive(&mut room, controller, 0, self.warmup_steps, &mut settle_die);
        room.reset_accounting();
        let mut max_die = f64::NEG_INFINITY;
        let start = Instant::now();
        let (decisions, applied) = drive(
            &mut room,
            controller,
            self.warmup_steps,
            self.steps,
            &mut max_die,
        );
        let wall_s = start.elapsed().as_secs_f64();

        SetPointRun {
            name: name.to_owned(),
            total_kwh: room.total_energy().as_kwh().value(),
            it_kwh: room.it_energy().as_kwh().value(),
            cooling_kwh: room.cooling_energy().as_kwh().value(),
            max_die_c: max_die,
            feasible: max_die <= self.die_limit,
            decisions,
            applied,
            wall_s,
            server_steps: self.steps * self.servers() as u64,
        }
    }
}

/// Outcome of one controlled run at one β.
#[derive(Debug, Clone)]
pub struct SetPointRun {
    /// Controller label (`fixed@20`, `LUT`, `MPC`).
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
    /// Controller consultations over the measured phase.
    pub decisions: u64,
    /// Decisions that commanded a change.
    pub applied: u64,
    /// Wall-clock seconds of the measured phase.
    pub wall_s: f64,
    /// Server-steps executed in the measured phase.
    pub server_steps: u64,
}

/// All runs at one recirculation fraction.
#[derive(Debug, Clone)]
pub struct BetaSetPointResult {
    /// The recirculation fraction β.
    pub beta: f64,
    /// The fixed-supply grid, in scenario order.
    pub fixed: Vec<SetPointRun>,
    /// The LUT controller's run.
    pub lut: SetPointRun,
    /// The MPC controller's run.
    pub mpc: SetPointRun,
}

impl BetaSetPointResult {
    /// The cheapest *feasible* fixed baseline — what the adaptive
    /// controllers must strictly beat. `None` when every fixed supply
    /// on the grid violates the hot-spot cap.
    #[must_use]
    pub fn best_fixed(&self) -> Option<&SetPointRun> {
        self.fixed.iter().filter(|r| r.feasible).min_by(|a, b| {
            a.total_kwh
                .partial_cmp(&b.total_kwh)
                .expect("energies are finite")
        })
    }

    /// Percent energy saved by `run` against the best feasible fixed
    /// baseline (negative when it loses); `None` without a feasible
    /// baseline.
    #[must_use]
    pub fn savings_pct(&self, run: &SetPointRun) -> Option<f64> {
        self.best_fixed()
            .map(|best| (1.0 - run.total_kwh / best.total_kwh) * 100.0)
    }

    /// `true` when both adaptive controllers are feasible and strictly
    /// cheaper than the best feasible fixed baseline.
    #[must_use]
    pub fn adaptive_strictly_wins(&self) -> bool {
        self.best_fixed().is_some_and(|best| {
            self.lut.feasible
                && self.mpc.feasible
                && self.lut.total_kwh < best.total_kwh
                && self.mpc.total_kwh < best.total_kwh
        })
    }
}

/// A full sweep: one [`BetaSetPointResult`] per recirculation fraction.
#[derive(Debug, Clone)]
pub struct SetPointSweep {
    /// Per-β results, in scenario order.
    pub betas: Vec<BetaSetPointResult>,
}

impl SetPointSweep {
    /// The worst (smallest) adaptive saving across every β and both
    /// controllers — the single number the CI gate pins. `None` when
    /// some β had no feasible fixed baseline.
    #[must_use]
    pub fn min_savings_pct(&self) -> Option<f64> {
        let mut min = f64::INFINITY;
        for b in &self.betas {
            let lut = b.savings_pct(&b.lut)?;
            let mpc = b.savings_pct(&b.mpc)?;
            min = min.min(lut).min(mpc);
        }
        self.betas.is_empty().then_some(0.0).or(Some(min))
    }

    /// `true` when LUT and MPC strictly beat the best feasible fixed
    /// baseline at *every* β — the acceptance criterion.
    #[must_use]
    pub fn strictly_wins(&self) -> bool {
        !self.betas.is_empty()
            && self
                .betas
                .iter()
                .all(BetaSetPointResult::adaptive_strictly_wins)
    }

    /// Renders the sweep as one `leakctl-perf/v1` measurement:
    /// steps/sec of the MPC-controlled runs (the heaviest control-loop
    /// path, carried by the `repro-perf-diff` gate) with the savings
    /// and per-β energies as extras.
    #[must_use]
    pub fn to_perf_result(&self) -> PerfResult {
        let mpc_steps: u64 = self.betas.iter().map(|b| b.mpc.server_steps).sum();
        let mpc_wall: f64 = self.betas.iter().map(|b| b.mpc.wall_s).sum();
        let fmt_opt = |v: Option<f64>| v.map_or_else(|| "null".to_owned(), |v| format!("{v:.4}"));
        let per_beta: Vec<String> = self
            .betas
            .iter()
            .map(|b| {
                let best = b.best_fixed();
                format!(
                    "{{\"beta\": {:.3}, \"best_fixed\": {}, \"best_fixed_kwh\": {}, \
                     \"lut_kwh\": {:.6}, \"mpc_kwh\": {:.6}, \"lut_savings_pct\": {}, \
                     \"mpc_savings_pct\": {}, \"lut_max_die_c\": {:.3}, \"mpc_max_die_c\": {:.3}}}",
                    b.beta,
                    best.map_or_else(|| "null".to_owned(), |r| format!("\"{}\"", r.name)),
                    fmt_opt(best.map(|r| r.total_kwh).map(|v| (v * 1e6).round() / 1e6)),
                    b.lut.total_kwh,
                    b.mpc.total_kwh,
                    fmt_opt(b.savings_pct(&b.lut)),
                    fmt_opt(b.savings_pct(&b.mpc)),
                    b.lut.max_die_c,
                    b.mpc.max_die_c,
                )
            })
            .collect();
        PerfResult {
            name: "setpoint_ctrl_servers_per_sec",
            steps: mpc_steps,
            wall_s: mpc_wall.max(1e-12),
            extra: vec![
                ("setpoint_savings_pct", fmt_opt(self.min_savings_pct())),
                ("setpoint_strict_win", format!("{}", self.strictly_wins())),
                ("per_beta", format!("[{}]", per_beta.join(", "))),
            ],
        }
    }
}

/// Runs the whole sweep: for each β, the fixed-supply grid, then LUT,
/// then MPC, all on identical rooms and load schedules.
#[must_use]
pub fn run_setpoint_sweep(scenario: &SetPointScenario) -> SetPointSweep {
    let betas = scenario
        .betas
        .iter()
        .map(|&beta| {
            let fixed = scenario
                .fixed_supplies
                .iter()
                .map(|&supply| {
                    let mut ctl = FixedSupplyController::new(Celsius::new(supply));
                    scenario.run_one(beta, &mut ctl, &format!("fixed@{supply:.0}"))
                })
                .collect();
            let mut lut = scenario.lut_controller();
            let lut = scenario.run_one(beta, &mut lut, "LUT");
            let mut mpc = scenario.mpc_controller();
            let mpc = scenario.run_one(beta, &mut mpc, "MPC");
            BetaSetPointResult {
                beta,
                fixed,
                lut,
                mpc,
            }
        })
        .collect();
    SetPointSweep { betas }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str, total_kwh: f64, max_die_c: f64, feasible: bool) -> SetPointRun {
        SetPointRun {
            name: name.to_owned(),
            total_kwh,
            it_kwh: total_kwh * 0.8,
            cooling_kwh: total_kwh * 0.2,
            max_die_c,
            feasible,
            decisions: 10,
            applied: 5,
            wall_s: 0.1,
            server_steps: 1_000,
        }
    }

    fn beta_result(lut: SetPointRun, mpc: SetPointRun) -> BetaSetPointResult {
        BetaSetPointResult {
            beta: 0.2,
            fixed: vec![
                run("fixed@22", 10.0, 80.0, true),
                run("fixed@24", 9.0, 83.0, true),
                run("fixed@26", 8.0, 87.0, false),
            ],
            lut,
            mpc,
        }
    }

    #[test]
    fn the_load_wave_spends_high_fraction_at_full() {
        let s = SetPointScenario::quick();
        let period = s.load_period;
        let high = (period as f64 * s.high_fraction).round() as u64;
        assert!(s.activity_at(0).is_full());
        assert!(s.activity_at(high - 1).is_full());
        assert!(!s.activity_at(high).is_full());
        assert!(!s.activity_at(period - 1).is_full());
        assert!(s.activity_at(period).is_full());
        let full_steps = (0..period).filter(|&i| s.activity_at(i).is_full()).count();
        assert_eq!(full_steps as u64, high);
    }

    #[test]
    fn characterized_lut_targets_cool_with_load() {
        let s = SetPointScenario::quick();
        let lut = s.lut_controller();
        let light = lut.target_for(Utilization::saturating_from_fraction(0.2));
        let mid = lut.target_for(Utilization::saturating_from_fraction(0.6));
        let full = lut.target_for(Utilization::FULL);
        assert!(
            light.degrees() > mid.degrees() && mid.degrees() > full.degrees(),
            "targets must cool as load rises: {light:?} / {mid:?} / {full:?}"
        );
        // The full-load band keeps the cap minus margin minus the
        // profiled rise — it must leave a usable cold-aisle target.
        assert!(full.degrees() > 15.0 && full.degrees() < s.die_limit);
    }

    #[test]
    fn mpc_plans_on_a_one_degree_lattice_spanning_the_fixed_grid() {
        let s = SetPointScenario::quick();
        let lo = s
            .fixed_supplies
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = s
            .fixed_supplies
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).round() as usize;
        // Rebuild the lattice the same way the controller config does.
        let mpc = s.mpc_controller();
        assert_eq!(mpc.name(), "MPC");
        assert_eq!(span + 1, 19, "quick grid spans 14..32");
    }

    #[test]
    fn best_fixed_skips_infeasible_runs() {
        let b = beta_result(run("LUT", 8.5, 84.0, true), run("MPC", 8.4, 84.0, true));
        // fixed@26 is cheapest but infeasible; fixed@24 wins.
        assert_eq!(b.best_fixed().unwrap().name, "fixed@24");
        let savings = b.savings_pct(&b.lut).unwrap();
        assert!((savings - (1.0 - 8.5 / 9.0) * 100.0).abs() < 1e-9);
        assert!(b.adaptive_strictly_wins());
    }

    #[test]
    fn strict_win_requires_feasibility_and_lower_energy() {
        let infeasible = beta_result(run("LUT", 8.5, 86.0, false), run("MPC", 8.4, 84.0, true));
        assert!(!infeasible.adaptive_strictly_wins());
        let tie = beta_result(run("LUT", 9.0, 84.0, true), run("MPC", 8.4, 84.0, true));
        assert!(!tie.adaptive_strictly_wins());
    }

    #[test]
    fn sweep_renders_savings_and_per_beta_extras() {
        let sweep = SetPointSweep {
            betas: vec![beta_result(
                run("LUT", 8.5, 84.0, true),
                run("MPC", 8.4, 84.0, true),
            )],
        };
        assert!(sweep.strictly_wins());
        let min = sweep.min_savings_pct().unwrap();
        // MPC saves more than LUT; the pinned number is the worst case.
        assert!((min - (1.0 - 8.5 / 9.0) * 100.0).abs() < 1e-9);
        let result = sweep.to_perf_result();
        assert_eq!(result.name, "setpoint_ctrl_servers_per_sec");
        let extras: Vec<&str> = result.extra.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            extras,
            ["setpoint_savings_pct", "setpoint_strict_win", "per_beta"]
        );
        let per_beta = &result.extra[2].1;
        assert!(per_beta.starts_with('[') && per_beta.contains("\"best_fixed\": \"fixed@24\""));
    }
}
