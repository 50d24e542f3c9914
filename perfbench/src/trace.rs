//! Outside-in tracing: step classification, per-step host timings, and
//! timing wrappers around the trait objects the drive loops accept.
//!
//! Nothing here reaches inside the library. A drive loop is advanced
//! one step at a time (`ScheduledLoop::run(.., 1)`,
//! `BuildingScenarioRunner::run_steps(.., 1)`), each step is timed from
//! outside and classified by the cadences the library publishes
//! ([`CSTH_POLL_PERIOD`] and the decision periods), and the scheduler,
//! controllers and their supply previews are wrapped so every call
//! into them is timed where it is made.
//!
//! [`CSTH_POLL_PERIOD`]: leakctl_telemetry::CSTH_POLL_PERIOD

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use leakctl::control::{ControlAction, RoomController, RoomObservation, SupplyPreview};
use leakctl::room::Room;
use leakctl::schedule::{Job, RackLoads, RoomScheduler};
use leakctl::CoreError;
use leakctl_units::{Celsius, SimDuration, Utilization};

use crate::clock::Stopwatch;
use crate::stats;

/// What a simulated step does besides advancing the physics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// Neither a telemetry poll nor a decision.
    Plain,
    /// Every server records its CSTH telemetry sample at the end of
    /// this step.
    Poll,
    /// The scheduler, controllers or supervisor decide before this step
    /// advances (takes precedence over [`StepClass::Poll`]).
    Decision,
}

/// Step cadences of one drive loop.
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    /// Simulated step.
    pub dt: SimDuration,
    /// Telemetry poll period of every server's clock.
    pub poll: SimDuration,
    /// Decision period of the loop (every decider of the workloads
    /// shares one period).
    pub decision: SimDuration,
}

impl Cadence {
    /// Classifies a step. `clock_step` counts steps since the servers
    /// were built (their telemetry clocks start at zero and poll at
    /// every multiple of the poll period); `loop_step` counts steps
    /// since the current drive loop started (it decides at its first
    /// step and then whenever a full decision period has elapsed).
    #[must_use]
    pub fn classify(&self, clock_step: u64, loop_step: u64) -> StepClass {
        let dt = self.dt.as_millis().max(1);
        let period_steps = self.decision.as_millis().div_ceil(dt).max(1);
        if loop_step.is_multiple_of(period_steps) {
            return StepClass::Decision;
        }
        let poll = self.poll.as_millis().max(1);
        if (clock_step + 1) * dt / poll > clock_step * dt / poll {
            StepClass::Poll
        } else {
            StepClass::Plain
        }
    }
}

/// Host time of every driven step, with its class.
#[derive(Debug, Default, Clone)]
pub struct StepLog {
    /// Thread CPU milliseconds per step, in drive order.
    pub ms: Vec<f64>,
    /// Wall milliseconds per step.
    pub wall_ms: Vec<f64>,
    /// Class of each step.
    pub class: Vec<StepClass>,
}

impl StepLog {
    /// Records one step's CPU and wall time.
    pub fn push(&mut self, cpu: Duration, wall: Duration, class: StepClass) {
        self.ms.push(cpu.as_secs_f64() * 1e3);
        self.wall_ms.push(wall.as_secs_f64() * 1e3);
        self.class.push(class);
    }

    /// Appends another log.
    pub fn extend(&mut self, other: &StepLog) {
        self.ms.extend_from_slice(&other.ms);
        self.wall_ms.extend_from_slice(&other.wall_ms);
        self.class.extend_from_slice(&other.class);
    }

    /// Steps recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// Median of `values` (one per step) over the steps of one class
    /// (0 when the class never ran).
    fn class_p50(&self, values: &[f64], class: StepClass) -> f64 {
        let picked: Vec<f64> = values
            .iter()
            .zip(&self.class)
            .filter(|(_, c)| **c == class)
            .map(|(v, _)| *v)
            .collect();
        stats::median(&picked).unwrap_or(0.0)
    }

    /// Median step time of one class (0 when the class never ran).
    #[must_use]
    pub fn p50(&self, class: StepClass) -> f64 {
        self.class_p50(&self.ms, class)
    }

    /// Median wall time of one class (0 when the class never ran).
    #[must_use]
    pub fn p50_wall(&self, class: StepClass) -> f64 {
        self.class_p50(&self.wall_ms, class)
    }

    /// Median over every step.
    #[must_use]
    pub fn p50_all(&self) -> f64 {
        stats::median(&self.ms).unwrap_or(0.0)
    }

    /// Mean over every step.
    #[must_use]
    pub fn mean(&self) -> f64 {
        stats::mean(&self.ms).unwrap_or(0.0)
    }

    /// Slowest step.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.ms.iter().copied().fold(0.0, f64::max)
    }

    /// Steps of one class.
    #[must_use]
    pub fn count(&self, class: StepClass) -> usize {
        self.class.iter().filter(|c| **c == class).count()
    }

    /// The mean step time the class medians account for:
    /// `Σ_class count · p50 / steps`. The remainder against
    /// [`mean`](Self::mean) is the unattributed part (slow outliers
    /// within a class).
    #[must_use]
    pub fn attributed_mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let total: f64 = [StepClass::Plain, StepClass::Poll, StepClass::Decision]
            .into_iter()
            .map(|c| self.count(c) as f64 * self.p50(c))
            .sum();
        total / self.len() as f64
    }
}

/// Accumulated host time and call count of one wrapped entry point.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTimer {
    /// Calls made.
    pub calls: u64,
    /// Host time spent inside them.
    pub total: Duration,
}

impl CallTimer {
    /// Records one call.
    pub fn add(&mut self, elapsed: Duration) {
        self.calls += 1;
        self.total += elapsed;
    }

    /// Mean microseconds per call (0 without calls).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// What the wrappers of one traced run measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    /// `RoomScheduler::place` calls.
    pub place: CallTimer,
    /// `RoomController::observe` calls (previews included).
    pub decide: CallTimer,
    /// `SupplyPreview::preview_supply` calls made by the controllers.
    pub preview: CallTimer,
    /// Controller decisions that commanded a change.
    pub applied: u64,
    /// Direct `Room::observe_into` calls made by the benchmark at each
    /// decision.
    pub observe: CallTimer,
}

/// Shared handle the wrappers write into.
pub type SharedLayers = Rc<RefCell<LayerTimes>>;

/// A [`RoomScheduler`] that times every `place` call of the one it
/// wraps.
pub struct TracedScheduler<'a> {
    inner: &'a mut dyn RoomScheduler,
    layers: SharedLayers,
}

impl<'a> TracedScheduler<'a> {
    /// Wraps `inner`, recording into `layers`.
    pub fn new(inner: &'a mut dyn RoomScheduler, layers: SharedLayers) -> Self {
        Self { inner, layers }
    }
}

impl RoomScheduler for TracedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decision_period(&self) -> SimDuration {
        self.inner.decision_period()
    }

    fn place(
        &mut self,
        obs: &RoomObservation,
        pending: &[Job],
        loads: &RackLoads,
    ) -> Vec<Option<usize>> {
        let start = Stopwatch::start();
        let out = self.inner.place(obs, pending, loads);
        self.layers.borrow_mut().place.add(start.elapsed());
        out
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A [`RoomController`] that times every decision of the one it wraps,
/// and every supply preview that decision makes.
pub struct TracedController {
    inner: Box<dyn RoomController>,
    layers: SharedLayers,
}

impl TracedController {
    /// Wraps `inner`, recording into `layers`.
    #[must_use]
    pub fn new(inner: Box<dyn RoomController>, layers: SharedLayers) -> Self {
        Self { inner, layers }
    }
}

impl RoomController for TracedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decision_period(&self) -> SimDuration {
        self.inner.decision_period()
    }

    fn observe(&mut self, obs: &RoomObservation, preview: &mut dyn SupplyPreview) -> ControlAction {
        let mut traced = TracedPreview {
            inner: preview,
            timer: CallTimer::default(),
        };
        let start = Stopwatch::start();
        let action = self.inner.observe(obs, &mut traced);
        let elapsed = start.elapsed();
        let mut layers = self.layers.borrow_mut();
        layers.decide.add(elapsed);
        layers.preview.calls += traced.timer.calls;
        layers.preview.total += traced.timer.total;
        if !action.is_hold() {
            layers.applied += 1;
        }
        action
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn checkpoint_state(&self) -> Vec<f64> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &[f64]) {
        self.inner.restore_state(state);
    }
}

/// Times each what-if solve a controller asks of the live room.
struct TracedPreview<'a> {
    inner: &'a mut dyn SupplyPreview,
    timer: CallTimer,
}

impl SupplyPreview for TracedPreview<'_> {
    fn preview_supply(
        &mut self,
        supply: Celsius,
        cold_aisles: &mut Vec<Celsius>,
    ) -> Result<Celsius, CoreError> {
        let start = Stopwatch::start();
        let out = self.inner.preview_supply(supply, cold_aisles);
        self.timer.add(start.elapsed());
        out
    }
}

/// Timed rounds of [`fleet_probe`]; with its warm-up round the probe
/// advances each server's clock by nine steps, so a probe that starts on
/// a telemetry-poll boundary never polls.
const FLEET_PROBE_ROUNDS: u32 = 8;

/// Times `Fleet::step_with_inlet` on each rack's own fleet of a warmed
/// `room`, fed its current cold-aisle temperature and `activity(rack)`:
/// one untimed warm-up round, then [`FLEET_PROBE_ROUNDS`] timed rounds.
/// Returns host nanoseconds per server-step. Advances the room's
/// servers, so call it only after every output has been recorded.
///
/// # Errors
///
/// Propagates fleet step failures.
pub fn fleet_probe(
    room: &mut Room,
    dt: SimDuration,
    activity: impl Fn(usize) -> Utilization,
) -> Result<f64, CoreError> {
    let round = |room: &mut Room| -> Result<(), CoreError> {
        for rack in 0..room.racks() {
            let inlet = room.cold_aisle_temperature(rack);
            room.fleet_mut(rack)
                .step_with_inlet(dt, activity(rack), inlet)?;
        }
        Ok(())
    };
    round(room)?;
    let t = Stopwatch::start();
    for _ in 0..FLEET_PROBE_ROUNDS {
        round(room)?;
    }
    Ok(t.elapsed().as_secs_f64() * 1e9 / f64::from(FLEET_PROBE_ROUNDS) / room.servers() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t: u64) -> Duration {
        Duration::from_millis(t)
    }

    fn cadence() -> Cadence {
        Cadence {
            dt: SimDuration::from_secs(1),
            poll: leakctl_telemetry::CSTH_POLL_PERIOD,
            decision: SimDuration::from_secs(15),
        }
    }

    #[test]
    fn decisions_fall_on_the_loop_cadence() {
        let c = cadence();
        for k in [0, 15, 30, 600, 615] {
            assert_eq!(c.classify(k + 3, k), StepClass::Decision, "loop step {k}");
        }
        assert_ne!(c.classify(1, 1), StepClass::Decision);
        assert_ne!(c.classify(14, 14), StepClass::Decision);
    }

    #[test]
    fn polls_fall_where_the_server_clock_crosses_the_period() {
        let c = cadence();
        // The step from t = 9 s to t = 10 s polls; so does 19 → 20.
        assert_eq!(c.classify(9, 1), StepClass::Poll);
        assert_eq!(c.classify(19, 1), StepClass::Poll);
        assert_eq!(c.classify(10, 1), StepClass::Plain);
        assert_eq!(c.classify(8, 1), StepClass::Plain);
        // Decisions win a tie.
        assert_eq!(c.classify(9, 15), StepClass::Decision);
    }

    #[test]
    fn coarse_steps_poll_every_crossing_and_round_decision_periods_up() {
        let c = Cadence {
            dt: SimDuration::from_secs(4),
            ..cadence()
        };
        // 15 s at 4-s steps: a decision every 4th step.
        assert_eq!(c.classify(1, 4), StepClass::Decision);
        assert_eq!(c.classify(1, 3), StepClass::Plain);
        // The step ending at t = 12 s crosses t = 10 s.
        assert_eq!(c.classify(2, 2), StepClass::Poll);
    }

    #[test]
    fn one_second_steps_never_poll_and_decide_together() {
        let c = cadence();
        let mut log = StepLog::default();
        for k in 0..3_000 {
            log.push(ms(1), ms(1), c.classify(k, k));
        }
        assert_eq!(log.count(StepClass::Decision), 200);
        assert_eq!(log.count(StepClass::Poll), 300);
        assert_eq!(log.count(StepClass::Plain), 2_500);
    }

    #[test]
    fn class_medians_attribute_the_mean() {
        let mut log = StepLog::default();
        for _ in 0..8 {
            log.push(ms(2), ms(2), StepClass::Plain);
        }
        log.push(ms(12), ms(12), StepClass::Poll);
        log.push(ms(22), ms(30), StepClass::Decision);
        assert!((log.p50(StepClass::Plain) - 2.0).abs() < 1e-9);
        assert!((log.mean() - 5.0).abs() < 1e-9);
        assert!((log.attributed_mean() - 5.0).abs() < 1e-9);
        assert!((log.max() - 22.0).abs() < 1e-9);
        assert_eq!(log.p50(StepClass::Poll), 12.0);
        assert_eq!(log.p50_wall(StepClass::Decision), 30.0);
        assert_eq!(StepLog::default().p50(StepClass::Poll), 0.0);
    }

    #[test]
    fn call_timer_means() {
        let mut t = CallTimer::default();
        assert_eq!(t.mean_us(), 0.0);
        t.add(Duration::from_micros(10));
        t.add(Duration::from_micros(30));
        assert!((t.mean_us() - 20.0).abs() < 1e-9);
    }
}
