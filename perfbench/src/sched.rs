//! `sched-3072`: the scheduled 3072-server floor.
//!
//! An 8 × 8 floor of 48-server racks (β = 0.15) runs a seeded Poisson
//! job stream under the local-search placement policy and the LUT
//! set-point controller. A fill phase brings the floor to its steady
//! occupancy; the measured phase follows. This is where the large
//! working set lives: fleet stepping is memory-bound, every decision
//! observes the whole room twice, and every server retains its CSTH
//! telemetry.

use std::cell::RefCell;
use std::rc::Rc;

use leakctl::control::{
    ControlAction, LutEntry, LutSetPointController, RoomController, RoomObservation,
};
use leakctl::room::{Room, RoomConfig};
use leakctl::schedule::{
    JobStream, JobStreamConfig, LocalSearchScheduler, RoomScheduler, ScheduledLoop,
    ThermalGreedyConfig,
};
use leakctl::CoreError;
use leakctl_platform::{Server, ServerConfig};
use leakctl_telemetry::CSTH_POLL_PERIOD;
use leakctl_thermal::ShardPlan;
use leakctl_units::{Celsius, Rpm, SimDuration, Utilization, Watts};

use crate::clock::{calibrate, Stopwatch};
use crate::drive::{Unit, Workload, PLAN};
use crate::report::{rss_mb, Digest};
use crate::trace::{
    fleet_probe, Cadence, LayerTimes, StepClass, StepLog, TracedController, TracedScheduler,
};
use crate::Checks;

const ROWS: usize = 8;
const RACKS_PER_ROW: usize = 8;
const SERVERS_PER_RACK: usize = 48;
const RECIRCULATION: f64 = 0.15;
const DT: SimDuration = SimDuration::from_secs(1);
/// Steps before accounting starts (the floor fills to steady occupancy).
pub const FILL_STEPS: u64 = 600;
/// Steps measured after the fill.
pub const MEASURED_STEPS: u64 = 300;
const ARRIVAL_RATE: f64 = 3.0;
const MEAN_DURATION: SimDuration = SimDuration::from_mins(10);
const MIN_DURATION: SimDuration = SimDuration::from_mins(1);
const UTILIZATION: (f64, f64) = (0.5, 1.0);
const PERIOD: SimDuration = SimDuration::from_secs(15);
const DIE_LIMIT: f64 = 85.0;
const FAN_FLOOR: f64 = 1_800.0;
const BUDGET_PER_SERVER: f64 = 600.0;
/// Steps of the offline twin profile (settle, then track the peak).
const PROFILE_SETTLE: u64 = 600;
const PROFILE_STEPS: u64 = 3_600;
/// Load bands of the LUT controller.
const LUT_BANDS: [f64; 3] = [0.35, 0.75, 1.0];
const LUT_MARGIN: f64 = 2.0;
const LUT_HEADROOM: f64 = 6.0;
const SUPPLY_RANGE: (f64, f64) = (14.0, 32.0);
/// Steps between reference-kernel calibrations (about 1.5 s).
const CALIBRATE_EVERY: u64 = 150;

/// The `sched-3072` workload for one seed.
#[derive(Debug, Clone, Copy)]
pub struct Sched {
    /// Room sensor seed and job-stream seed.
    pub seed: u64,
}

/// Everything built before the first simulated step.
struct Setup {
    room: Room,
    controller: LutSetPointController,
    scheduler: LocalSearchScheduler,
    the_loop: ScheduledLoop,
    build_s: f64,
    profile_s: f64,
}

impl Sched {
    fn servers() -> usize {
        ROWS * RACKS_PER_ROW * SERVERS_PER_RACK
    }

    /// The steady die rise over the inlet of the server twin holding
    /// `load` at the fan floor — the first-order thermal response the
    /// LUT bands and the greedy cost model plan with.
    fn characterized_rise(&self, load: Utilization) -> Result<f64, CoreError> {
        let config = ServerConfig::default();
        let ambient = config.ambient.degrees();
        let mut twin = Server::new(config, self.seed)?;
        twin.command_fan_speed(Rpm::new(FAN_FLOOR));
        let mut rise = 0.0f64;
        for step in 0..PROFILE_SETTLE + PROFILE_STEPS {
            twin.step(DT, load)?;
            if step >= PROFILE_SETTLE {
                rise = rise.max(twin.max_die_temperature().degrees() - ambient);
            }
        }
        Ok(rise)
    }

    fn lut_controller(&self) -> Result<LutSetPointController, CoreError> {
        let mut entries = Vec::with_capacity(LUT_BANDS.len());
        for band in LUT_BANDS {
            let load = Utilization::saturating_from_fraction(band);
            let rise = self.characterized_rise(load)?;
            let reserve = LUT_HEADROOM * (1.0 - band);
            entries.push(LutEntry {
                max_load: load,
                cold_aisle_target: Celsius::new(DIE_LIMIT - LUT_MARGIN - rise - reserve),
            });
        }
        Ok(LutSetPointController::new(entries)
            .with_supply_range(Celsius::new(SUPPLY_RANGE.0), Celsius::new(SUPPLY_RANGE.1))
            .with_period(PERIOD))
    }

    fn greedy_config(&self) -> Result<ThermalGreedyConfig, CoreError> {
        let mut cfg = ThermalGreedyConfig::paper_default();
        cfg.period = PERIOD;
        cfg.die_rise = self.characterized_rise(Utilization::FULL)?
            - self.characterized_rise(Utilization::IDLE)?;
        cfg.power_budget = Some(Watts::new(BUDGET_PER_SERVER * SERVERS_PER_RACK as f64));
        Ok(cfg)
    }

    fn setup(&self, plan: usize) -> Result<Setup, CoreError> {
        let start = Stopwatch::start();
        let mut config = RoomConfig::new(ROWS, RACKS_PER_ROW, SERVERS_PER_RACK);
        config.recirculation_fraction = RECIRCULATION;
        config.die_limit = Celsius::new(DIE_LIMIT);
        config.seed = self.seed;
        let mut room = Room::with_plan(config, ShardPlan::new(plan))?;
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(FAN_FLOOR)))?;
        let stream = JobStream::generate(JobStreamConfig {
            arrival_rate: ARRIVAL_RATE,
            mean_duration: MEAN_DURATION,
            min_duration: MIN_DURATION,
            utilization_lo: UTILIZATION.0,
            utilization_hi: UTILIZATION.1,
            seed: self.seed,
        })?;
        let the_loop = ScheduledLoop::new(stream);
        let build_s = start.elapsed().as_secs_f64();

        let start = Stopwatch::start();
        let controller = self.lut_controller()?;
        let scheduler = LocalSearchScheduler::new(self.greedy_config()?);
        let profile_s = start.elapsed().as_secs_f64();
        Ok(Setup {
            room,
            controller,
            scheduler,
            the_loop,
            build_s,
            profile_s,
        })
    }
}

impl Workload for Sched {
    fn observes_per_decision(&self) -> f64 {
        // One observation for the scheduler, one inside `Room::decide`.
        2.0
    }

    fn setup_only(&self, checks: &mut Checks) -> Option<(f64, f64)> {
        match self.setup(PLAN) {
            Ok(s) => Some((s.build_s, s.profile_s)),
            Err(e) => {
                checks.error("sched set-up", &e);
                None
            }
        }
    }

    fn unit(&self, plan: usize, traced: bool, checks: &mut Checks) -> Option<Unit> {
        let setup = match self.setup(plan) {
            Ok(s) => s,
            Err(e) => {
                checks.error("sched set-up", &e);
                return None;
            }
        };
        let Setup {
            mut room,
            controller,
            mut scheduler,
            mut the_loop,
            build_s,
            profile_s,
        } = setup;
        let layers = Rc::new(RefCell::new(LayerTimes::default()));
        let mut traced_scheduler;
        let scheduler: &mut dyn RoomScheduler = if traced {
            traced_scheduler = TracedScheduler::new(&mut scheduler, Rc::clone(&layers));
            &mut traced_scheduler
        } else {
            &mut scheduler
        };
        let mut controller: Box<dyn RoomController> = Box::new(controller);
        if traced {
            controller = Box::new(TracedController::new(controller, Rc::clone(&layers)));
        }

        let cadence = Cadence {
            dt: DT,
            poll: CSTH_POLL_PERIOD,
            decision: PERIOD,
        };
        let total = FILL_STEPS + MEASURED_STEPS;
        let mut log = StepLog::default();
        let mut obs = RoomObservation::new();
        let mut classes_agree = true;
        let mut rss_start = 0.0;
        let mut refs = Vec::new();
        for k in 0..total {
            let class = cadence.classify(k, k);
            if traced && class == StepClass::Decision {
                let t = Stopwatch::start();
                room.observe_into(&mut obs);
                layers.borrow_mut().observe.add(t.elapsed());
            }
            let decisions = the_loop.stats().sched_decisions;
            let t = Stopwatch::start();
            let result = the_loop.run(&mut room, scheduler, controller.as_mut(), DT, 1);
            log.push(t.elapsed(), t.wall(), class);
            if let Err(e) = result {
                checks.error("scheduled step", &e);
                return None;
            }
            let decided = the_loop.stats().sched_decisions > decisions;
            classes_agree &= decided == (class == StepClass::Decision);
            if (k + 1) % CALIBRATE_EVERY == 0 {
                calibrate(&mut refs);
            }
            if k + 1 == FILL_STEPS {
                room.reset_accounting();
                the_loop.reset_peaks();
                rss_start = rss_mb();
            }
        }
        let stepping_s = log.ms.iter().sum::<f64>() / 1e3;
        checks.ok(total);
        checks.check(
            classes_agree,
            "sched: decision steps fall where the step classifier puts them",
        );

        let stats = *the_loop.stats();
        let total_j = room.total_energy();
        let it = room.it_energy();
        let cooling = room.cooling_energy();
        checks.check(
            total_j.value().to_bits() == (it + cooling).value().to_bits(),
            "sched: total energy equals IT plus cooling",
        );
        checks.check(
            stats.placed > 0 && stats.ctrl_decisions > 0,
            "sched: jobs were placed and the controller decided",
        );
        let digest = Digest::default()
            .f64(total_j.value())
            .f64(it.value())
            .f64(cooling.value())
            .f64(stats.peak_die.degrees())
            .f64(room.max_die_temperature().degrees())
            .u64(stats.submitted)
            .u64(stats.placed)
            .u64(stats.rejected)
            .u64(stats.sched_assignments)
            .u64(stats.completed)
            .u64(stats.sched_decisions)
            .u64(stats.ctrl_decisions)
            .u64(stats.ctrl_applied)
            .u64(stats.peak_pending as u64)
            .u64(the_loop.running_jobs() as u64)
            .u64(the_loop.pending_jobs() as u64);

        let mut unit = Unit {
            digest,
            log,
            stepping_s,
            server_steps: total * Self::servers() as u64,
            build_s,
            profile_s,
            energy_kwh: total_j.as_kwh().value(),
            peak_die_c: stats.peak_die.degrees(),
            refs,
            ..Unit::default()
        };
        if traced {
            let sim_h = (DT * MEASURED_STEPS).as_hours_f64();
            unit.extra.push((
                "telemetry.retained_mb_per_sim_h",
                (rss_mb() - rss_start) / sim_h,
            ));
            unit.extra.push((
                "schedule.reject_ratio",
                stats.rejected as f64 / stats.sched_assignments.max(1) as f64,
            ));
            let observe = layers.borrow().observe;
            unit.extra.push((
                "room.observe_ns_per_server",
                observe.mean_us() * 1e3 / Self::servers() as f64,
            ));
            // Fleet-only stepping on the warmed room's own fleets, after
            // every output above was recorded.
            let placement = room.placement().to_vec();
            let fleet_ns = match fleet_probe(&mut room, DT, |rack| placement[rack]) {
                Ok(ns) => ns,
                Err(e) => {
                    checks.error("fleet probe", &e);
                    return None;
                }
            };
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
