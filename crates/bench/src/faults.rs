//! Fault-ride-through sweep: the harness behind the `repro-faults`
//! acceptance gate.
//!
//! The scenario harness in [`leakctl::scenario`] scripts plant faults —
//! CRAH derating and outage, blocked tiles, degraded server fans — and
//! load spikes against a closed control loop. This module turns that
//! into a CI gate on the 256-server repro room: every script runs under
//! a fixed-supply baseline, the LUT set-point controller and the
//! receding-horizon MPC, and the *adaptive* controllers must **contain**
//! each fault — the hottest die may cross the 85 °C cap only for a
//! bounded, documented transient
//! ([`FaultsScenario::transient_budget`]) while the controller detects
//! the fault and swings the plant toward max cooling, and must end the
//! run back under the cap. The fixed baseline is reported but never
//! gated: riding out faults is exactly what the adaptive layer is for.
//!
//! The sweep also pins the robustness substrate underneath the gate: a
//! mid-fault [`ScenarioRunner::checkpoint`] restored into a fresh room
//! and controller must finish **bit-identically** to the uninterrupted
//! run. The `repro-faults` binary renders everything into
//! `BENCH_perf.json` and exits nonzero unless both properties hold.

use std::time::Instant;

use leakctl::control::{ControlAction, FixedSupplyController, RoomController};
use leakctl::prelude::FanFault;
use leakctl::room::{Room, RoomConfig};
use leakctl::scenario::{Scenario, ScenarioEvent, ScenarioOutcome, ScenarioRunner};
use leakctl_units::{Celsius, Rpm, SimDuration, Utilization};

use crate::perf::PerfResult;
use crate::setpoint::SetPointScenario;

/// One scripted fault case: the faulted script the controllers are
/// judged on and its fault-free twin (same load timeline, no plant
/// faults) used to account the energy overhead of riding the fault out.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// The faulted script.
    pub script: Scenario,
    /// The same timeline with every fault event stripped; `None` when
    /// the script carries no faults (then the overhead is zero by
    /// construction).
    pub fault_free: Option<Scenario>,
}

/// Configuration of one fault-ride-through sweep: the floor geometry
/// and controller recipes (borrowed from [`SetPointScenario`] so the
/// controllers under fault are the exact ones the set-point figure
/// evaluates), plus the fault-specific knobs.
#[derive(Debug, Clone)]
pub struct FaultsScenario {
    /// Geometry, cap, fan floor and the LUT/MPC recipes.
    pub base: SetPointScenario,
    /// Hot-aisle recirculation fraction for every run.
    pub beta: f64,
    /// The fixed baseline's supply (°C) — a warm, energy-optimal
    /// choice that is feasible on a healthy plant at the scripts' load
    /// levels, so any violation it shows is attributable to the fault.
    pub fixed_supply: f64,
    /// Settling steps under the controller before each measured script.
    pub warmup_steps: u64,
    /// Longest cap excursion an adaptive controller may ride per
    /// script and still count as containing the fault.
    pub transient_budget: SimDuration,
}

impl FaultsScenario {
    /// The acceptance configuration: the 256-server repro room
    /// (matching `repro-setpoint`'s full geometry) at β = 0.15.
    #[must_use]
    pub fn full() -> Self {
        Self {
            base: SetPointScenario::full(),
            beta: 0.15,
            fixed_supply: 24.0,
            warmup_steps: 600,
            transient_budget: SimDuration::from_secs(300),
        }
    }

    /// A reduced smoke configuration on the 8-server quick floor: the
    /// same scripts and gates over much slower small-room thermal
    /// dynamics.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            base: SetPointScenario::quick(),
            beta: 0.2,
            fixed_supply: 24.0,
            warmup_steps: 300,
            transient_budget: SimDuration::from_secs(300),
        }
    }

    /// Total server count.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.base.servers()
    }

    /// The three scripted cases the gate runs, all judged against the
    /// scenario cap:
    ///
    /// 1. `crah-failure`: the CRAH plant loses half its capacity at
    ///    t = 300 s under a 65 % load and is repaired twenty minutes
    ///    later.
    /// 2. `fan-degradation`: a quarter of the first rack's servers
    ///    drop to 55 % fan flow at t = 300 s (a shared fan-tray
    ///    failure) and are swapped at t = 1500 s.
    /// 3. `load-spike`: a square-wave load swing (25 % ⇄ 100 %) whose
    ///    first full-load segment rides a mild 90 %-capacity derate —
    ///    no outage, but the controller must re-target through every
    ///    edge.
    #[must_use]
    pub fn cases(&self) -> Vec<FaultCase> {
        let dt = self.base.dt;
        let dur = SimDuration::from_secs(2_400);
        let load = |f: f64| Utilization::saturating_from_fraction(f);

        let crah = Scenario::new("crah-failure", dur, dt)
            .with_die_cap(Celsius::new(self.base.die_limit))
            .with_initial_load(load(0.65))
            .at(
                SimDuration::from_secs(300),
                ScenarioEvent::CrahCapacity(0.5),
            )
            .at(
                SimDuration::from_secs(1_500),
                ScenarioEvent::CrahCapacity(1.0),
            );
        let crah_free = Scenario::new("crah-failure", dur, dt)
            .with_die_cap(Celsius::new(self.base.die_limit))
            .with_initial_load(load(0.65));

        let mut fans = Scenario::new("fan-degradation", dur, dt)
            .with_die_cap(Celsius::new(self.base.die_limit))
            .with_initial_load(load(0.65));
        for server in 0..self.base.servers_per_rack.div_ceil(4) {
            fans = fans
                .at(
                    SimDuration::from_secs(300),
                    ScenarioEvent::FanFault {
                        rack: 0,
                        server,
                        fault: FanFault::Degraded { flow_scale: 0.55 },
                    },
                )
                .at(
                    SimDuration::from_secs(1_500),
                    ScenarioEvent::FanFault {
                        rack: 0,
                        server,
                        fault: FanFault::None,
                    },
                );
        }
        let fans_free = Scenario::new("fan-degradation", dur, dt)
            .with_die_cap(Celsius::new(self.base.die_limit))
            .with_initial_load(load(0.65));

        let spike = Scenario::new("load-spike", dur, dt)
            .with_die_cap(Celsius::new(self.base.die_limit))
            .with_initial_load(load(0.25))
            .at(
                SimDuration::from_secs(200),
                ScenarioEvent::CrahCapacity(0.9),
            )
            .at(
                SimDuration::from_secs(300),
                ScenarioEvent::Load(Utilization::FULL),
            )
            .at(
                SimDuration::from_secs(1_100),
                ScenarioEvent::CrahCapacity(1.0),
            )
            .at(
                SimDuration::from_secs(1_200),
                ScenarioEvent::Load(load(0.25)),
            )
            .at(
                SimDuration::from_secs(1_800),
                ScenarioEvent::Load(Utilization::FULL),
            );
        let spike_free = Scenario::new("load-spike", dur, dt)
            .with_die_cap(Celsius::new(self.base.die_limit))
            .with_initial_load(load(0.25))
            .at(
                SimDuration::from_secs(300),
                ScenarioEvent::Load(Utilization::FULL),
            )
            .at(
                SimDuration::from_secs(1_200),
                ScenarioEvent::Load(load(0.25)),
            )
            .at(
                SimDuration::from_secs(1_800),
                ScenarioEvent::Load(Utilization::FULL),
            );

        vec![
            FaultCase {
                script: crah,
                fault_free: Some(crah_free),
            },
            FaultCase {
                script: fans,
                fault_free: Some(fans_free),
            },
            FaultCase {
                script: spike,
                fault_free: Some(spike_free),
            },
        ]
    }

    fn fresh_room(&self) -> Room {
        let mut config = RoomConfig::new(
            self.base.rows,
            self.base.racks_per_row,
            self.base.servers_per_rack,
        );
        config.recirculation_fraction = self.beta;
        let mut room = Room::new(config).expect("fault-sweep room builds");
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(self.base.fan_floor)))
            .expect("fan floor applies");
        room
    }

    /// Settles a fresh room at the script's initial load *under the
    /// controller* (so both reach their joint operating point), resets
    /// accounting, then drives the script through a [`ScenarioRunner`].
    fn run_script(
        &self,
        script: &Scenario,
        controller: &mut dyn RoomController,
    ) -> ScenarioOutcome {
        let mut room = self.fresh_room();
        controller.reset();
        let load = script.initial_load();
        room.run_controlled(controller, script.dt(), self.warmup_steps, |_| load)
            .expect("warmup runs");
        room.reset_accounting();
        ScenarioRunner::new(script.clone())
            .run(&mut room, controller)
            .expect("scripted run succeeds")
    }

    /// Runs one controller through one case: the faulted script, then
    /// (when the case has one) the fault-free twin for the energy
    /// overhead.
    fn run_one(
        &self,
        case: &FaultCase,
        controller: &mut dyn RoomController,
        name: &str,
    ) -> FaultRun {
        let start = Instant::now();
        let mut outcome = self.run_script(&case.script, controller);
        if let Some(twin) = &case.fault_free {
            let reference = self.run_script(twin, controller);
            outcome.set_energy_overhead_vs(&reference);
        }
        let wall_s = start.elapsed().as_secs_f64();
        let contained = outcome.stats.cap_violation_time <= self.transient_budget
            && outcome.final_max_die.degrees() <= self.base.die_limit;
        FaultRun {
            scenario: case.script.name().to_owned(),
            controller: name.to_owned(),
            outcome,
            contained,
            wall_s,
            server_steps: case.script.steps() * self.servers() as u64,
        }
    }

    /// Verifies the robustness substrate: drive the first case under
    /// the LUT controller, checkpoint mid-fault (halfway through the
    /// script, inside the derate window), restore into a fresh room and
    /// controller, and require the resumed run to finish bit-identically
    /// to an uninterrupted one.
    #[must_use]
    pub fn checkpoint_round_trip(&self) -> bool {
        let case = &self.cases()[0];
        let fingerprint = |room: &Room, outcome: &ScenarioOutcome| {
            (
                outcome.total_energy.value().to_bits(),
                outcome.final_max_die.degrees().to_bits(),
                outcome.stats.cap_violation_time,
                outcome.stats.decisions,
                (0..room.racks())
                    .map(|r| room.cold_aisle_temperature(r).degrees().to_bits())
                    .collect::<Vec<u64>>(),
            )
        };

        let mut room = self.fresh_room();
        let mut ctl = self.base.lut_controller();
        let mut runner = ScenarioRunner::new(case.script.clone());
        let reference = runner.run(&mut room, &mut ctl).expect("reference run");
        let reference = fingerprint(&room, &reference);

        let mid = case.script.steps() / 2;
        let mut room = self.fresh_room();
        let mut ctl = self.base.lut_controller();
        let mut runner = ScenarioRunner::new(case.script.clone());
        runner
            .run_steps(&mut room, &mut ctl, mid)
            .expect("pre-checkpoint run");
        let snap = runner.checkpoint(&mut room, &ctl);

        let mut resumed_room = self.fresh_room();
        let mut resumed_ctl = self.base.lut_controller();
        let mut resumed_runner = ScenarioRunner::new(case.script.clone());
        resumed_runner
            .restore(&mut resumed_room, &mut resumed_ctl, &snap)
            .expect("restore succeeds");
        let outcome = resumed_runner
            .run(&mut resumed_room, &mut resumed_ctl)
            .expect("resumed run");
        fingerprint(&resumed_room, &outcome) == reference
    }
}

/// One controller's ride through one scripted fault case.
#[derive(Debug, Clone)]
pub struct FaultRun {
    /// The script's name.
    pub scenario: String,
    /// Controller label (`fixed@24`, `LUT`, `MPC`).
    pub controller: String,
    /// The full scenario outcome (peak die, violation/recovery times,
    /// energies, energy overhead vs the fault-free twin).
    pub outcome: ScenarioOutcome,
    /// `true` when the excursion stayed within the transient budget
    /// and the run ended back under the cap.
    pub contained: bool,
    /// Wall-clock seconds (faulted script + fault-free twin).
    pub wall_s: f64,
    /// Server-steps of the faulted script.
    pub server_steps: u64,
}

impl FaultRun {
    /// `true` for the adaptive (gated) controllers.
    #[must_use]
    pub fn is_adaptive(&self) -> bool {
        !self.controller.starts_with("fixed")
    }
}

/// A full fault sweep: every case × controller, plus the checkpoint
/// bit-identity verdict.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// Per-(case, controller) rides, in sweep order.
    pub runs: Vec<FaultRun>,
    /// Whether the mid-fault checkpoint/restore finished bit-identical
    /// to the uninterrupted run.
    pub checkpoint_bit_identical: bool,
    /// The transient budget the rides were judged against.
    pub transient_budget: SimDuration,
}

impl FaultSweep {
    /// `true` when LUT and MPC contained every fault (the fixed
    /// baseline is exempt).
    #[must_use]
    pub fn adaptives_contained(&self) -> bool {
        !self.runs.is_empty()
            && self
                .runs
                .iter()
                .filter(|r| r.is_adaptive())
                .all(|r| r.contained)
    }

    /// The acceptance verdict: adaptive containment *and* checkpoint
    /// bit-identity.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.adaptives_contained() && self.checkpoint_bit_identical
    }

    /// Renders the sweep as one `leakctl-perf/v1` measurement —
    /// servers-stepped/sec of the MPC rides (the heaviest path) with
    /// the per-ride verdicts as extras.
    #[must_use]
    pub fn to_perf_result(&self) -> PerfResult {
        let mpc_steps: u64 = self
            .runs
            .iter()
            .filter(|r| r.controller == "MPC")
            .map(|r| r.server_steps)
            .sum();
        let mpc_wall: f64 = self
            .runs
            .iter()
            .filter(|r| r.controller == "MPC")
            .map(|r| r.wall_s)
            .sum();
        let fmt_dur = |d: Option<SimDuration>| {
            d.map_or_else(|| "null".to_owned(), |d| format!("{:.1}", d.as_secs_f64()))
        };
        let per_run: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"scenario\": \"{}\", \"controller\": \"{}\", \"peak_die_c\": {:.3}, \
                     \"final_die_c\": {:.3}, \"cap_violation_s\": {:.1}, \"recovery_s\": {}, \
                     \"energy_overhead_kwh\": {}, \"contained\": {}}}",
                    r.scenario,
                    r.controller,
                    r.outcome.stats.peak_die.degrees(),
                    r.outcome.final_max_die.degrees(),
                    r.outcome.stats.cap_violation_time.as_secs_f64(),
                    fmt_dur(r.outcome.stats.recovery_time),
                    r.outcome.stats.energy_overhead.map_or_else(
                        || "null".to_owned(),
                        |j| format!("{:.6}", j.as_kwh().value())
                    ),
                    r.contained,
                )
            })
            .collect();
        PerfResult {
            name: "faults_ctrl_servers_per_sec",
            steps: mpc_steps,
            wall_s: mpc_wall.max(1e-12),
            extra: vec![
                (
                    "faults_contained",
                    format!("{}", self.adaptives_contained()),
                ),
                (
                    "checkpoint_bit_identical",
                    format!("{}", self.checkpoint_bit_identical),
                ),
                (
                    "transient_budget_s",
                    format!("{:.0}", self.transient_budget.as_secs_f64()),
                ),
                ("per_run", format!("[{}]", per_run.join(", "))),
            ],
        }
    }
}

/// Runs the whole sweep: every case under the fixed baseline, LUT and
/// MPC (identical rooms, loads and seeds), then the checkpoint
/// round-trip.
#[must_use]
pub fn run_fault_sweep(spec: &FaultsScenario) -> FaultSweep {
    let mut runs = Vec::new();
    for case in &spec.cases() {
        let mut fixed = FixedSupplyController::new(Celsius::new(spec.fixed_supply));
        runs.push(spec.run_one(case, &mut fixed, &format!("fixed@{:.0}", spec.fixed_supply)));
        let mut lut = spec.base.lut_controller();
        runs.push(spec.run_one(case, &mut lut, "LUT"));
        let mut mpc = spec.base.mpc_controller();
        runs.push(spec.run_one(case, &mut mpc, "MPC"));
    }
    FaultSweep {
        runs,
        checkpoint_bit_identical: spec.checkpoint_round_trip(),
        transient_budget: spec.transient_budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakctl_units::Joules;

    fn ride(controller: &str, violation_s: u64, final_die: f64, contained: bool) -> FaultRun {
        let mut outcome = {
            // A synthetic outcome shaped only for verdict plumbing.
            let spec = FaultsScenario::quick();
            let case = &spec.cases()[2];
            let mut ctl = FixedSupplyController::new(Celsius::new(18.0));
            let mut room = spec.fresh_room();
            let mut runner = ScenarioRunner::new(case.script.clone());
            runner.run_steps(&mut room, &mut ctl, 1).unwrap();
            runner.outcome(&room)
        };
        outcome.stats.cap_violation_time = SimDuration::from_secs(violation_s);
        outcome.final_max_die = Celsius::new(final_die);
        outcome.stats.energy_overhead = Some(Joules::new(3.6e6));
        FaultRun {
            scenario: "crah-failure".to_owned(),
            controller: controller.to_owned(),
            outcome,
            contained,
            wall_s: 0.1,
            server_steps: 1_000,
        }
    }

    #[test]
    fn scripts_are_well_formed() {
        for spec in [FaultsScenario::quick(), FaultsScenario::full()] {
            let cases = spec.cases();
            assert_eq!(cases.len(), 3);
            for case in &cases {
                assert!(case.script.steps() > 0);
                assert!(case.script.events() > 0, "{}", case.script.name());
                let twin = case.fault_free.as_ref().unwrap();
                assert_eq!(twin.name(), case.script.name());
                assert_eq!(twin.steps(), case.script.steps());
                assert!(twin.events() < case.script.events());
            }
            // The fan case degrades a quarter of the first rack.
            assert_eq!(
                cases[1].script.events(),
                2 * spec.base.servers_per_rack.div_ceil(4)
            );
        }
    }

    #[test]
    fn gate_exempts_the_fixed_baseline() {
        let sweep = FaultSweep {
            runs: vec![
                ride("fixed@24", 900, 88.0, false),
                ride("LUT", 30, 70.0, true),
                ride("MPC", 0, 69.0, true),
            ],
            checkpoint_bit_identical: true,
            transient_budget: SimDuration::from_secs(300),
        };
        assert!(sweep.adaptives_contained());
        assert!(sweep.accepted());

        let mut failed = sweep.clone();
        failed.runs[1].contained = false;
        assert!(!failed.adaptives_contained());
        assert!(!failed.accepted());

        let mut broken = sweep;
        broken.checkpoint_bit_identical = false;
        assert!(!broken.accepted());
    }

    #[test]
    fn sweep_renders_verdicts_and_per_run_extras() {
        let sweep = FaultSweep {
            runs: vec![ride("LUT", 30, 70.0, true), ride("MPC", 0, 69.0, true)],
            checkpoint_bit_identical: true,
            transient_budget: SimDuration::from_secs(300),
        };
        let result = sweep.to_perf_result();
        assert_eq!(result.name, "faults_ctrl_servers_per_sec");
        let extras: Vec<&str> = result.extra.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            extras,
            [
                "faults_contained",
                "checkpoint_bit_identical",
                "transient_budget_s",
                "per_run"
            ]
        );
        assert_eq!(result.extra[0].1, "true");
        let per_run = &result.extra[3].1;
        assert!(per_run.starts_with('['));
        assert!(per_run.contains("\"controller\": \"MPC\""));
        assert!(per_run.contains("\"energy_overhead_kwh\": 1.000000"));
        // Only MPC rides feed the throughput number.
        assert_eq!(result.steps, 1_000);
    }

    #[test]
    fn quick_sweep_contains_and_round_trips() {
        // The full acceptance run lives in the repro-faults binary; the
        // quick floor's slow thermals make this a fast smoke check of
        // the same plumbing end to end.
        let mut spec = FaultsScenario::quick();
        spec.warmup_steps = 60;
        let sweep = run_fault_sweep(&spec);
        assert_eq!(sweep.runs.len(), 9);
        assert!(sweep.checkpoint_bit_identical);
        assert!(sweep.adaptives_contained());
        for run in &sweep.runs {
            assert!(run.outcome.stats.decisions > 0);
            assert!(run.outcome.stats.peak_die.degrees() > 30.0);
            assert!(run.outcome.stats.energy_overhead.is_some());
        }
    }
}
