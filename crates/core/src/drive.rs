//! The one closed-loop driver: every controlled run in the crate —
//! [`Room::run_controlled`], the scripted
//! [`ScenarioRunner`](crate::scenario::ScenarioRunner) and
//! [`BuildingScenarioRunner`](crate::scenario::BuildingScenarioRunner),
//! and the scheduler's [`ScheduledLoop`](crate::schedule::ScheduledLoop)
//! — advances through the same staged step loop, with different stages
//! present.
//!
//! # Stage order
//!
//! Each step runs, in this fixed order, whichever stages the run has:
//!
//! 1. **Script events** due at the step's start time fire, in time
//!    order (ties in insertion order), so an event at a decision
//!    instant is visible to that very decision.
//! 2. **Jobs** (when a scheduler is present): finished jobs retire,
//!    arrivals join the queue, the scheduler places them on its
//!    cadence, and the room's resident placement is refreshed.
//! 3. **Controllers**: each room's controller observes and decides on
//!    its cadence, in room index order; a non-hold action is applied
//!    atomically.
//! 4. **Supervisor** on its cadence — after the controllers, so
//!    watchdog actions win.
//! 5. **Plant**: one step of the room or building — on the resident
//!    placement when the job stage is present, otherwise at one load
//!    per room (the script's, moved by load events, or a per-step load
//!    closure's).
//! 6. **Judge**: the hottest die is sampled for the peak and, when a
//!    script sets a cap, for cap-violation time and recovery.
//!
//! Every stage runs in the serial section between plant steps, so
//! trajectories are bit-identical for any thread plan.
//!
//! # Cadence
//!
//! A controller, scheduler or supervisor fires at the first step the
//! driver runs, then whenever its period has elapsed since it last
//! fired (`since >= period`). The phase belongs to the driver, so it
//! carries across chunked calls of one runner — a scripted run or a
//! [`ScheduledLoop`](crate::schedule::ScheduledLoop) advanced one step
//! per call decides exactly when a single long call would — and across
//! [`Checkpoint`] restores. [`Room::run_controlled`] builds a fresh
//! driver per call, so each call starts a fresh cadence: `n` one-step
//! calls make `n` decisions.

use std::ops::{Deref, DerefMut};

use leakctl_units::{Celsius, SimDuration, Utilization};

use crate::building::{Building, BuildingCheckpoint};
use crate::control::{ControlAction, RoomController, RoomObservation};
use crate::error::{BuildingError, CoreError, RoomError};
use crate::room::{ControlStats, Room, RoomCheckpoint};
use crate::scenario::{BuildingEvent, ScenarioEvent, Script};
use crate::supervise::Supervisor;

/// What differs between the two plants the driver steps — a lone
/// [`Room`] and a [`Building`] — so the loop itself never branches on
/// which one it holds.
pub(crate) trait Plant {
    /// The script vocabulary this plant understands.
    type Event;
    /// The plant's full-state snapshot.
    type Snapshot;
    /// Why a snapshot does not fit this plant.
    type RestoreError;

    /// Rooms, each with its own controller.
    fn rooms(&self) -> usize;
    /// `true` for events that change fault state (load moves are
    /// workload, not faults) — the events recovery is measured from.
    fn is_fault(event: &Self::Event) -> bool;
    /// Applies a script event; load moves write `loads` (one per room).
    fn apply_event(
        &mut self,
        event: &Self::Event,
        loads: &mut [Utilization],
    ) -> Result<(), CoreError>;
    /// Observes room `room` and consults its controller.
    fn decide(
        &mut self,
        room: usize,
        controller: &mut dyn RoomController,
        obs: &mut RoomObservation,
    ) -> Result<ControlAction, CoreError>;
    /// Validates and applies a control action to room `room`.
    fn apply(&mut self, room: usize, action: &ControlAction) -> Result<(), CoreError>;
    /// Advances by `dt` at one activity level per room, or on the
    /// resident placement when `loads` is `None`.
    fn step(&mut self, dt: SimDuration, loads: Option<&[Utilization]>) -> Result<(), CoreError>;
    /// The hottest die anywhere in the plant.
    fn max_die(&self) -> Celsius;
    /// Snapshots the plant.
    fn checkpoint(&mut self) -> Self::Snapshot;
    /// Restores a snapshot, all or nothing.
    fn restore(&mut self, snapshot: &Self::Snapshot) -> Result<(), Self::RestoreError>;
}

impl Plant for Room {
    type Event = ScenarioEvent;
    type Snapshot = RoomCheckpoint;
    type RestoreError = RoomError;

    fn rooms(&self) -> usize {
        1
    }

    fn is_fault(event: &ScenarioEvent) -> bool {
        !matches!(event, ScenarioEvent::Load(_))
    }

    fn apply_event(
        &mut self,
        event: &ScenarioEvent,
        loads: &mut [Utilization],
    ) -> Result<(), CoreError> {
        match *event {
            ScenarioEvent::CrahCapacity(capacity) => self.set_crah_capacity(capacity)?,
            ScenarioEvent::TileBlockage { rack, blockage } => {
                self.set_tile_blockage(rack, blockage)?;
            }
            ScenarioEvent::FanFault {
                rack,
                server,
                fault,
            } => self.inject_fan_fault(rack, server, fault)?,
            ScenarioEvent::Load(load) => loads.fill(load),
        }
        Ok(())
    }

    fn decide(
        &mut self,
        _room: usize,
        controller: &mut dyn RoomController,
        obs: &mut RoomObservation,
    ) -> Result<ControlAction, CoreError> {
        Ok(Room::decide(self, controller, obs))
    }

    fn apply(&mut self, _room: usize, action: &ControlAction) -> Result<(), CoreError> {
        Room::apply(self, action)
    }

    fn step(&mut self, dt: SimDuration, loads: Option<&[Utilization]>) -> Result<(), CoreError> {
        match loads {
            Some(loads) => Room::step(self, dt, loads[0]),
            None => self.step_placed(dt),
        }
    }

    fn max_die(&self) -> Celsius {
        self.max_die_temperature()
    }

    fn checkpoint(&mut self) -> RoomCheckpoint {
        Room::checkpoint(self)
    }

    fn restore(&mut self, snapshot: &RoomCheckpoint) -> Result<(), RoomError> {
        Room::restore(self, snapshot)
    }
}

impl Plant for Building {
    type Event = BuildingEvent;
    type Snapshot = BuildingCheckpoint;
    type RestoreError = BuildingError;

    fn rooms(&self) -> usize {
        Building::rooms(self)
    }

    fn is_fault(event: &BuildingEvent) -> bool {
        match event {
            BuildingEvent::RoomLoad { .. } | BuildingEvent::LoadSurge(_) => false,
            BuildingEvent::Room { event, .. } => Room::is_fault(event),
            _ => true,
        }
    }

    fn apply_event(
        &mut self,
        event: &BuildingEvent,
        loads: &mut [Utilization],
    ) -> Result<(), CoreError> {
        let in_room = |room: usize, source| BuildingError::Room { room, source };
        match *event {
            BuildingEvent::Chiller(fraction) => self.set_chiller_availability(fraction)?,
            BuildingEvent::ChwExcursion(excursion) => self.set_chw_excursion(excursion)?,
            BuildingEvent::Outdoor(outdoor) => self.set_outdoor(outdoor)?,
            BuildingEvent::RoomLoad { room, load }
            | BuildingEvent::Room {
                room,
                event: ScenarioEvent::Load(load),
            } => {
                let rooms = loads.len();
                *loads
                    .get_mut(room)
                    .ok_or(BuildingError::RoomOutOfRange { room, rooms })? = load;
            }
            BuildingEvent::LoadSurge(load) => loads.fill(load),
            BuildingEvent::Room {
                room,
                event: ScenarioEvent::CrahCapacity(health),
            } => self.set_room_crah_health(room, health)?,
            BuildingEvent::Room {
                room,
                event: ScenarioEvent::TileBlockage { rack, blockage },
            } => self
                .room_mut(room)?
                .set_tile_blockage(rack, blockage)
                .map_err(|source| in_room(room, source))?,
            BuildingEvent::Room {
                room,
                event:
                    ScenarioEvent::FanFault {
                        rack,
                        server,
                        fault,
                    },
            } => self
                .room_mut(room)?
                .inject_fan_fault(rack, server, fault)
                .map_err(|source| in_room(room, source))?,
        }
        Ok(())
    }

    fn decide(
        &mut self,
        room: usize,
        controller: &mut dyn RoomController,
        obs: &mut RoomObservation,
    ) -> Result<ControlAction, CoreError> {
        Ok(Building::decide(self, room, controller, obs)?)
    }

    fn apply(&mut self, room: usize, action: &ControlAction) -> Result<(), CoreError> {
        Building::apply(self, room, action)
    }

    fn step(&mut self, dt: SimDuration, loads: Option<&[Utilization]>) -> Result<(), CoreError> {
        match loads {
            Some(loads) => Building::step(self, dt, loads),
            None => self.step_placed(dt),
        }
    }

    fn max_die(&self) -> Celsius {
        self.max_die_temperature()
    }

    fn checkpoint(&mut self) -> BuildingCheckpoint {
        Building::checkpoint(self)
    }

    fn restore(&mut self, snapshot: &BuildingCheckpoint) -> Result<(), BuildingError> {
        Building::restore(self, snapshot)
    }
}

/// The job stage: called every step with the clock and whether the
/// scheduler's cadence is due.
pub(crate) type JobStage<'a, P> =
    &'a mut dyn FnMut(&mut P, SimDuration, bool) -> Result<(), CoreError>;

/// The supervisor stage: one supervision tick.
pub(crate) type SuperviseStage<'a, P> = &'a mut dyn FnMut(&mut P) -> Result<(), CoreError>;

/// The stages one [`Driver::run`] call drives; absent stages are
/// `None`.
pub(crate) struct Stages<'a, P: Plant, C> {
    /// The step size.
    pub(crate) dt: SimDuration,
    /// Timed events, the cap the judge applies, and the run's length.
    pub(crate) script: Option<&'a Script<P::Event>>,
    /// The job stage and the scheduler's decision period. When present,
    /// the plant runs the resident placement this stage keeps
    /// refreshed; otherwise it runs the per-room loads.
    pub(crate) jobs: Option<(SimDuration, JobStage<'a, P>)>,
    /// One controller per room.
    pub(crate) controllers: &'a mut [C],
    /// The supervisor stage and its period.
    pub(crate) supervisor: Option<(SimDuration, SuperviseStage<'a, P>)>,
    /// Sets every room's load from the step index, each step.
    pub(crate) load: Option<&'a mut dyn FnMut(u64) -> Utilization>,
}

impl<'a, P: Plant, C> Stages<'a, P, C> {
    /// Just the controller and plant stages.
    pub(crate) fn new(dt: SimDuration, controllers: &'a mut [C]) -> Self {
        Self {
            dt,
            script: None,
            jobs: None,
            controllers,
            supervisor: None,
            load: None,
        }
    }
}

/// A decision cadence, kept as the time it last fired: due at the
/// first step, then whenever `period` has elapsed since then.
fn due(fired: &mut Option<SimDuration>, now: SimDuration, period: SimDuration) -> bool {
    let due = fired.is_none_or(|at| now - at >= period);
    if due {
        *fired = Some(now);
    }
    due
}

/// The driver's progress — everything outside the plant, controllers
/// and supervisor — captured verbatim in a [`Checkpoint`].
#[derive(Debug, Clone)]
struct Cursor {
    step: u64,
    now: SimDuration,
    /// Script events fired so far (the index of the next one).
    events: usize,
    loads: Vec<Utilization>,
    /// When the scheduler, each controller and the supervisor last
    /// fired (see [`due`]).
    scheduled: Option<SimDuration>,
    controlled: Vec<Option<SimDuration>>,
    supervised: Option<SimDuration>,
    stats: ControlStats,
    last_fault: Option<SimDuration>,
    violated_since_fault: bool,
    recovered_at: Option<SimDuration>,
}

/// The staged step loop and its progress (see the module docs).
#[derive(Debug)]
pub(crate) struct Driver {
    cursor: Cursor,
    obs: RoomObservation,
}

impl Driver {
    /// A driver at step zero for `rooms` rooms, each starting at
    /// `load`.
    pub(crate) fn new(rooms: usize, load: Utilization) -> Self {
        Self {
            cursor: Cursor {
                step: 0,
                now: SimDuration::ZERO,
                events: 0,
                loads: vec![load; rooms],
                scheduled: None,
                controlled: vec![None; rooms],
                supervised: None,
                stats: ControlStats::default(),
                last_fault: None,
                violated_since_fault: false,
                recovered_at: None,
            },
            obs: RoomObservation::new(),
        }
    }

    /// Steps completed so far.
    pub(crate) fn step(&self) -> u64 {
        self.cursor.step
    }

    /// Simulated time driven so far.
    pub(crate) fn now(&self) -> SimDuration {
        self.cursor.now
    }

    /// Script events fired so far.
    pub(crate) fn events_applied(&self) -> usize {
        self.cursor.events
    }

    /// Loop counters and cap accounting so far. Recovery time runs from
    /// the last fault-state event to the end of the first cap excursion
    /// after it.
    pub(crate) fn stats(&self) -> ControlStats {
        let c = &self.cursor;
        let mut stats = c.stats;
        stats.recovery_time = match (c.last_fault, c.recovered_at) {
            (Some(fault), Some(recovered)) if recovered > fault => Some(recovered - fault),
            _ => None,
        };
        stats
    }

    /// Restarts peak-die tracking.
    pub(crate) fn reset_peak_die(&mut self) {
        self.cursor.stats.peak_die = Celsius::new(f64::NEG_INFINITY);
    }

    /// Runs up to `steps` further steps (stopping at the script's end).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for a zero step and
    /// [`BuildingError::InvalidFault`] when the plant or the controllers
    /// do not match the driver's room count; propagates stage failures.
    pub(crate) fn run<'c, P, C>(
        &mut self,
        plant: &mut P,
        mut stages: Stages<'_, P, C>,
        steps: u64,
    ) -> Result<(), CoreError>
    where
        P: Plant,
        C: DerefMut<Target = dyn RoomController + 'c>,
    {
        let c = &mut self.cursor;
        let dt = stages.dt;
        if dt.is_zero() {
            return Err(CoreError::Invalid {
                what: "driven runs need a positive step".to_owned(),
            });
        }
        if plant.rooms() != c.controlled.len() || stages.controllers.len() != c.controlled.len() {
            return Err(BuildingError::InvalidFault {
                what:
                    "one controller per room required (runner/building/controller count mismatch)",
            }
            .into());
        }
        let mut end = c.step.saturating_add(steps);
        let mut cap = Celsius::new(f64::INFINITY);
        if let Some(script) = stages.script {
            end = end.min(script.steps());
            cap = script.die_cap();
        }
        while c.step < end {
            // ---- 1. due script events.
            if let Some(script) = stages.script {
                for (_, event) in script.due(c.events, c.now) {
                    if P::is_fault(event) {
                        c.last_fault = Some(c.now);
                        c.violated_since_fault = false;
                        c.recovered_at = None;
                    }
                    plant.apply_event(event, &mut c.loads)?;
                    c.events += 1;
                }
            }
            // ---- 2. jobs.
            if let Some((period, jobs)) = &mut stages.jobs {
                let schedule = due(&mut c.scheduled, c.now, *period);
                jobs(plant, c.now, schedule)?;
            }
            // ---- 3. controllers, room index order.
            for (r, (controller, fired)) in stages
                .controllers
                .iter_mut()
                .zip(&mut c.controlled)
                .enumerate()
            {
                if due(fired, c.now, controller.decision_period()) {
                    let action = plant.decide(r, &mut **controller, &mut self.obs)?;
                    c.stats.decisions += 1;
                    if !action.is_hold() {
                        c.stats.applied += 1;
                        plant.apply(r, &action)?;
                    }
                }
            }
            // ---- 4. supervisor.
            if let Some((period, supervise)) = &mut stages.supervisor {
                if due(&mut c.supervised, c.now, *period) {
                    supervise(plant)?;
                }
            }
            // ---- 5. plant.
            if let Some(load) = &mut stages.load {
                c.loads.fill(load(c.step));
            }
            plant.step(dt, stages.jobs.is_none().then_some(&c.loads[..]))?;
            c.step += 1;
            c.now += dt;
            // ---- 6. judge.
            let die = plant.max_die();
            c.stats.peak_die = c.stats.peak_die.max(die);
            if die > cap {
                c.stats.cap_violation_time += dt;
                c.violated_since_fault = true;
                c.recovered_at = None;
            } else if c.violated_since_fault && c.recovered_at.is_none() {
                c.recovered_at = Some(c.now);
            }
        }
        Ok(())
    }

    /// Captures the plant, every controller, the supervisor and the
    /// driver's cursor at the current step boundary.
    pub(crate) fn checkpoint<'c, P, C>(
        &self,
        plant: &mut P,
        controllers: &[C],
        supervisor: Option<&Supervisor>,
    ) -> Checkpoint<P::Snapshot>
    where
        P: Plant,
        C: Deref<Target = dyn RoomController + 'c>,
    {
        Checkpoint {
            plant: plant.checkpoint(),
            controllers: controllers.iter().map(|c| c.checkpoint_state()).collect(),
            supervisor: supervisor.map(Supervisor::checkpoint_state),
            cursor: self.cursor.clone(),
        }
    }

    /// Restores a [`Driver::checkpoint`]. The plant restore is all or
    /// nothing and happens before anything else is touched.
    pub(crate) fn restore<'c, P, C>(
        &mut self,
        plant: &mut P,
        controllers: &mut [C],
        supervisor: Option<&mut Supervisor>,
        checkpoint: &Checkpoint<P::Snapshot>,
    ) -> Result<(), P::RestoreError>
    where
        P: Plant,
        C: DerefMut<Target = dyn RoomController + 'c>,
    {
        plant.restore(&checkpoint.plant)?;
        for (controller, state) in controllers.iter_mut().zip(&checkpoint.controllers) {
            controller.reset();
            controller.restore_state(state);
        }
        if let (Some(supervisor), Some(state)) = (supervisor, &checkpoint.supervisor) {
            supervisor.reset();
            supervisor.restore_state(state);
        }
        self.cursor = checkpoint.cursor.clone();
        Ok(())
    }
}

/// Everything needed to resume a driven run mid-flight: the plant
/// snapshot `S` (a [`RoomCheckpoint`] or a [`BuildingCheckpoint`]),
/// every controller's opaque state, the supervisor's state, and the
/// driver's cursor (step, event index, cadence phases, loads,
/// accumulated stats). Restoring resumes the trajectory bit-identically
/// to an uninterrupted run, for any thread plan.
#[derive(Debug, Clone)]
pub struct Checkpoint<S> {
    plant: S,
    pub(crate) controllers: Vec<Vec<f64>>,
    supervisor: Option<Vec<f64>>,
    cursor: Cursor,
}

impl<S> Checkpoint<S> {
    /// The step the run was captured at.
    #[must_use]
    pub fn step(&self) -> u64 {
        self.cursor.step
    }
}
