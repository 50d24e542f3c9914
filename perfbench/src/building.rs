//! `building-256`: four supervised rooms on one chilled-water plant.
//!
//! Four 64-server rooms (2 × 2 racks of 16, β = 0.15) share a plant
//! sized 1.15× the measured full-load demand. Supervised MPC runs in
//! every room while three fault scripts — a chiller failure, a heat
//! wave and a correlated load surge — run back to back, each on a fresh
//! building after its own warm-up. Small rooms make fixed per-step
//! costs dominate; MPC previews exercise the air solve; the plant, the
//! supervisor and scenario events run; the scheduler is bypassed.

use std::cell::RefCell;
use std::rc::Rc;

use leakctl::building::{Building, BuildingConfig};
use leakctl::control::{
    ControlAction, MpcConfig, MpcSetPointController, RoomController, RoomObservation,
    TileFlowBalancer,
};
use leakctl::room::{Room, RoomConfig};
use leakctl::scenario::{BuildingEvent, BuildingScenario, BuildingScenarioRunner};
use leakctl::supervise::{Supervisor, SupervisorConfig};
use leakctl::CoreError;
use leakctl_telemetry::CSTH_POLL_PERIOD;
use leakctl_thermal::{ChilledWaterSpec, ShardPlan};
use leakctl_units::{Celsius, Rpm, SimDuration, Utilization, Watts};

use crate::clock::{calibrate, Stopwatch};
use crate::drive::{Unit, Workload, PLAN};
use crate::report::Digest;
use crate::trace::{fleet_probe, Cadence, LayerTimes, StepClass, StepLog, TracedController};
use crate::{derive_seed, Checks};

const ROOMS: usize = 4;
const ROWS: usize = 2;
const RACKS_PER_ROW: usize = 2;
const SERVERS_PER_RACK: usize = 16;
const BETA: f64 = 0.15;
const CAPACITY_MARGIN: f64 = 1.15;
const AIR_APPROACH: f64 = 5.0;
const DT: SimDuration = SimDuration::from_secs(1);
/// Settling steps under the controllers before each script.
pub const WARMUP_STEPS: u64 = 600;
/// Length of each fault script.
const SCRIPT: SimDuration = SimDuration::from_secs(2_400);
const DIE_LIMIT: f64 = 85.0;
const FAN_FLOOR: f64 = 1_800.0;
const SUPPLY_RANGE: (f64, f64) = (14.0, 32.0);
const PERIOD: SimDuration = SimDuration::from_secs(15);
const BALANCER_GAIN: f64 = 0.02;
/// Steps between reference-kernel calibrations (about 0.5 s).
const CALIBRATE_EVERY: u64 = 1_500;

/// The `building-256` workload for one seed.
#[derive(Debug, Clone, Copy)]
pub struct BuildingWorkload {
    /// Room sensor seed.
    pub seed: u64,
}

/// Everything built before the first simulated step: one fresh
/// building per script, the controllers and the supervisor.
struct Setup {
    buildings: Vec<Building>,
    controllers: Vec<Box<dyn RoomController>>,
    supervisor: Supervisor,
    build_s: f64,
    profile_s: f64,
}

fn servers_per_room() -> usize {
    ROWS * RACKS_PER_ROW * SERVERS_PER_RACK
}

fn load(f: f64) -> Utilization {
    Utilization::saturating_from_fraction(f)
}

/// A uniform draw in `[-1, 1]`, the `i`-th of `seed`'s stream.
fn jitter(seed: u64, i: u64) -> f64 {
    (derive_seed(seed, i) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// The three fault scripts, judged against the die cap. The seed moves
/// every event by up to ±60 s and every load level by up to ±0.05
/// around the reference script; the shape of each fault stays fixed.
fn scripts(seed: u64) -> Vec<BuildingScenario> {
    let cap = Celsius::new(DIE_LIMIT);
    let at = |base: u64, i: u64| {
        SimDuration::from_secs((base as f64 + 60.0 * jitter(seed, i)).round() as u64)
    };
    let level = |base: f64, i: u64| load(base + 0.05 * jitter(seed, i));
    let chiller = BuildingScenario::new("chiller-failure", SCRIPT, DT)
        .with_die_cap(cap)
        .with_initial_load(level(0.65, 0))
        .at(at(300, 1), BuildingEvent::Chiller(0.45))
        .at(at(1_500, 2), BuildingEvent::Chiller(1.0));
    let wave = at(700, 5);
    let wave_breaks = at(1_600, 6);
    let heat_wave = BuildingScenario::new("heat-wave", SCRIPT, DT)
        .with_die_cap(cap)
        .with_initial_load(level(0.6, 3))
        .at(SimDuration::ZERO, BuildingEvent::Outdoor(Celsius::new(8.0)))
        .at(at(400, 4), BuildingEvent::Outdoor(Celsius::new(24.0)))
        .at(wave, BuildingEvent::Outdoor(Celsius::new(38.0)))
        .at(wave, BuildingEvent::ChwExcursion(6.0))
        .at(wave_breaks, BuildingEvent::Outdoor(Celsius::new(20.0)))
        .at(wave_breaks, BuildingEvent::ChwExcursion(0.0));
    let surge = BuildingScenario::new("correlated-surge", SCRIPT, DT)
        .with_die_cap(cap)
        .with_initial_load(level(0.25, 7))
        .at(at(250, 8), BuildingEvent::Chiller(0.75))
        .at(at(300, 9), BuildingEvent::LoadSurge(Utilization::FULL))
        .at(at(1_400, 10), BuildingEvent::Chiller(1.0))
        .at(at(1_800, 11), BuildingEvent::LoadSurge(level(0.4, 12)));
    vec![chiller, heat_wave, surge]
}

impl BuildingWorkload {
    fn room_config(&self) -> RoomConfig {
        let mut config = RoomConfig::new(ROWS, RACKS_PER_ROW, SERVERS_PER_RACK);
        config.recirculation_fraction = BETA;
        config.seed = self.seed;
        config
    }

    fn servers() -> usize {
        ROOMS * servers_per_room()
    }

    /// Sizes the plant against the measured full-load demand: one room
    /// settled at full load, its IT power scaled by the room count and
    /// the capacity margin. The sizing room runs on [`PLAN`] threads
    /// like the measured buildings, so the measuring thread's CPU clock
    /// sees all of its work whatever `LEAKCTL_THREADS` says.
    fn plant_spec(&self) -> Result<ChilledWaterSpec, CoreError> {
        let mut room = Room::with_plan(self.room_config(), ShardPlan::new(PLAN))?;
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(FAN_FLOOR)))?;
        for _ in 0..WARMUP_STEPS {
            room.step(DT, Utilization::FULL)?;
        }
        let demand = room.total_power().value() * ROOMS as f64;
        Ok(ChilledWaterSpec {
            capacity: Watts::new(demand * CAPACITY_MARGIN),
            ..ChilledWaterSpec::default()
        })
    }

    fn mpc_controller() -> MpcSetPointController {
        let (lo, hi) = SUPPLY_RANGE;
        let mut cfg = MpcConfig::paper_default();
        cfg.candidates = (0..=(hi - lo).round() as u32)
            .map(|i| Celsius::new(lo + f64::from(i)))
            .collect();
        cfg.die_limit = Celsius::new(DIE_LIMIT - 0.5);
        cfg.step_headroom = Celsius::new(7.0);
        cfg.period = PERIOD;
        MpcSetPointController::new(cfg).with_balancer(TileFlowBalancer::new(BALANCER_GAIN))
    }

    fn setup(&self, plan: usize) -> Result<Setup, CoreError> {
        let start = Stopwatch::start();
        let plant = self.plant_spec()?;
        let profile_s = start.elapsed().as_secs_f64();

        let start = Stopwatch::start();
        let mut config = BuildingConfig::uniform(ROOMS, &self.room_config(), plant);
        config.air_approach = AIR_APPROACH;
        let mut buildings = Vec::new();
        for _ in 0..scripts(self.seed).len() {
            let mut building = Building::with_plan(&config, ShardPlan::new(plan))?;
            for room in 0..ROOMS {
                building.apply(
                    room,
                    &ControlAction::hold().with_fan_floor(Rpm::new(FAN_FLOOR)),
                )?;
            }
            buildings.push(building);
        }
        let controllers = (0..ROOMS)
            .map(|_| Box::new(Self::mpc_controller()) as Box<dyn RoomController>)
            .collect();
        let supervisor = Supervisor::new(ROOMS, SupervisorConfig::for_cap(Celsius::new(DIE_LIMIT)));
        let build_s = start.elapsed().as_secs_f64();
        Ok(Setup {
            buildings,
            controllers,
            supervisor,
            build_s,
            profile_s,
        })
    }
}

impl Workload for BuildingWorkload {
    fn observes_per_decision(&self) -> f64 {
        // One `Building::decide` observation per room.
        ROOMS as f64
    }

    fn setup_only(&self, checks: &mut Checks) -> Option<(f64, f64)> {
        match self.setup(PLAN) {
            Ok(s) => Some((s.build_s, s.profile_s)),
            Err(e) => {
                checks.error("building set-up", &e);
                None
            }
        }
    }

    fn unit(&self, plan: usize, traced: bool, checks: &mut Checks) -> Option<Unit> {
        let Setup {
            buildings,
            controllers,
            mut supervisor,
            build_s,
            profile_s,
        } = match self.setup(plan) {
            Ok(s) => s,
            Err(e) => {
                checks.error("building set-up", &e);
                return None;
            }
        };
        let layers = Rc::new(RefCell::new(LayerTimes::default()));
        let mut controllers: Vec<Box<dyn RoomController>> = if traced {
            controllers
                .into_iter()
                .map(|c| {
                    Box::new(TracedController::new(c, Rc::clone(&layers)))
                        as Box<dyn RoomController>
                })
                .collect()
        } else {
            controllers
        };
        let cadence = Cadence {
            dt: DT,
            poll: CSTH_POLL_PERIOD,
            decision: PERIOD,
        };
        let mut log = StepLog::default();
        let mut obs = RoomObservation::new();
        let mut digest = Digest::default();
        let (mut energy_kwh, mut peak_die, mut steps) = (0.0, f64::NEG_INFINITY, 0u64);
        let (mut sheds, mut escalations, mut trips) = (0u64, 0u64, 0u64);
        let mut last = None;
        let mut refs = Vec::new();
        for (script, mut building) in scripts(self.seed).into_iter().zip(buildings) {
            for c in &mut controllers {
                c.reset();
            }
            supervisor.reset();
            let warmup = BuildingScenario::new("warmup", DT * WARMUP_STEPS, DT)
                .with_die_cap(script.die_cap())
                .with_initial_load(script.initial_load());
            let mut clock = 0u64;
            for (phase, scenario) in [warmup, script.clone()].into_iter().enumerate() {
                if phase == 1 {
                    building.reset_accounting();
                    supervisor.reset();
                }
                let mut runner = BuildingScenarioRunner::new(scenario, ROOMS);
                for k in 0..runner.scenario().steps() {
                    let class = cadence.classify(clock, k);
                    if traced && class == StepClass::Decision {
                        let t = Stopwatch::start();
                        for r in 0..ROOMS {
                            if let Ok(room) = building.room(r) {
                                room.observe_into(&mut obs);
                            }
                        }
                        let per_room = t.elapsed() / ROOMS as u32;
                        let mut l = layers.borrow_mut();
                        for _ in 0..ROOMS {
                            l.observe.add(per_room);
                        }
                    }
                    let t = Stopwatch::start();
                    let result =
                        runner.run_steps(&mut building, &mut controllers, &mut supervisor, 1);
                    log.push(t.elapsed(), t.wall(), class);
                    if let Err(e) = result {
                        checks.error("building step", &e);
                        return None;
                    }
                    clock += 1;
                    if (steps + k + 1) % CALIBRATE_EVERY == 0 {
                        calibrate(&mut refs);
                    }
                }
                steps += runner.scenario().steps();
                if phase == 1 {
                    let outcome = runner.outcome(&building, &supervisor);
                    checks.check(
                        outcome.total_energy.value().to_bits()
                            == (outcome.it_energy + outcome.plant_energy).value().to_bits(),
                        "building: total energy equals IT plus plant",
                    );
                    checks.check(
                        outcome.trips.invariant() == 0,
                        "building: no invariant monitor tripped",
                    );
                    energy_kwh += outcome.total_energy.as_kwh().value();
                    peak_die = peak_die.max(outcome.stats.peak_die.degrees());
                    sheds += outcome.sheds;
                    escalations += outcome.escalations;
                    trips += outcome.trips.invariant();
                    digest = digest
                        .f64(outcome.total_energy.value())
                        .f64(outcome.it_energy.value())
                        .f64(outcome.plant_energy.value())
                        .f64(outcome.stats.peak_die.degrees())
                        .f64(outcome.final_max_die.degrees())
                        .u64(outcome.stats.decisions)
                        .u64(outcome.stats.applied)
                        .u64(outcome.stats.cap_violation_time.as_millis())
                        .u64(outcome.events_applied as u64)
                        .u64(outcome.trips.nan)
                        .u64(outcome.trips.conservation)
                        .u64(outcome.trips.runaway)
                        .u64(outcome.sheds)
                        .u64(outcome.escalations)
                        .u64(outcome.shed_time.as_millis());
                }
            }
            last = Some(building);
        }
        checks.ok(steps);
        let stepping_s = log.ms.iter().sum::<f64>() / 1e3;

        let mut unit = Unit {
            digest,
            log,
            stepping_s,
            server_steps: steps * Self::servers() as u64,
            build_s,
            profile_s,
            energy_kwh,
            peak_die_c: peak_die,
            refs,
            ..Unit::default()
        };
        if traced {
            unit.extra.push(("supervise.sheds", sheds as f64));
            unit.extra
                .push(("supervise.escalations", escalations as f64));
            unit.extra.push(("supervise.invariant_trips", trips as f64));
            let observe = layers.borrow().observe;
            unit.extra.push((
                "room.observe_ns_per_server",
                observe.mean_us() * 1e3 / servers_per_room() as f64,
            ));
            // Fleet-only stepping on the last building's warmed fleets
            // (every output above was recorded), at 40 % load.
            let mut building = last?;
            let mut fleet_ns = 0.0;
            for r in 0..ROOMS {
                let probe = building
                    .room_mut(r)
                    .map_err(CoreError::from)
                    .and_then(|room| fleet_probe(room, DT, |_| load(0.4)));
                match probe {
                    Ok(ns) => fleet_ns += ns / ROOMS as f64,
                    Err(e) => {
                        checks.error("fleet probe", &e);
                        return None;
                    }
                }
            }
            let plain_ns = unit.log.p50(StepClass::Plain) * 1e6 / Self::servers() as f64;
            unit.extra.push(("fleet.step_ns_per_server", fleet_ns));
            unit.extra
                .push(("room.coupling_ns_per_server", plain_ns - fleet_ns));
            unit.extra
                .push(("server.step_ns", crate::paper::server_step_ns(self.seed)));
            unit.layers = *layers.borrow();
        }
        Some(unit)
    }
}
