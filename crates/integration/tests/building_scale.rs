//! Building-scale properties: supervised multi-room trajectories are
//! bit-identical for any thread plan and any chunking of the run,
//! building checkpoints resume exactly (including mid-fault, across
//! plans), same-instant scenario events fire in stable script order,
//! and controller state restore is junk-tolerant.

use leakctl::building::{Building, BuildingConfig};
use leakctl::control::{
    ControlAction, FixedSupplyController, LutSetPointController, MpcConfig, MpcSetPointController,
    RoomController, RoomObservation, TileFlowBalancer,
};
use leakctl::room::{Room, RoomConfig};
use leakctl::scenario::{
    BuildingEvent, BuildingOutcome, BuildingScenario, BuildingScenarioRunner, Scenario,
    ScenarioEvent, ScenarioRunner,
};
use leakctl::supervise::{Supervisor, SupervisorConfig};
use leakctl::BuildingError;
use leakctl_thermal::{ChilledWaterSpec, ShardPlan};
use leakctl_units::{Celsius, Rpm, SimDuration, Utilization, Watts};
use proptest::any;
use proptest::prelude::*;

const DIE_CAP: f64 = 85.0;

/// A tight plant spec for a tiny test building: capacity pinned just
/// above the building's settled full-load demand so chiller faults
/// genuinely oversubscribe it.
fn tight_plant(room_config: &RoomConfig, rooms: usize) -> ChilledWaterSpec {
    let mut probe = Room::new(room_config.clone()).unwrap();
    for _ in 0..50 {
        probe
            .step(SimDuration::from_secs(1), Utilization::FULL)
            .unwrap();
    }
    ChilledWaterSpec {
        capacity: Watts::new(probe.total_power().value() * rooms as f64 * 1.1),
        ..ChilledWaterSpec::default()
    }
}

fn small_building(plan: ShardPlan, rooms: usize, seed: u64) -> Building {
    let mut room = RoomConfig::new(1, 2, 2);
    room.recirculation_fraction = 0.2;
    room.seed = seed;
    let plant = tight_plant(&room, rooms);
    let config = BuildingConfig::uniform(rooms, &room, plant);
    let mut building = Building::with_plan(&config, plan).unwrap();
    for r in 0..rooms {
        building
            .apply(r, &ControlAction::hold().with_fan_floor(Rpm::new(3_000.0)))
            .unwrap();
    }
    building
}

fn controller(kind: u8) -> Box<dyn RoomController> {
    match kind % 3 {
        0 => Box::new(FixedSupplyController::new(Celsius::new(20.0))),
        1 => Box::new(
            LutSetPointController::paper_default()
                .with_balancer(TileFlowBalancer::new(0.02))
                .with_period(SimDuration::from_secs(20)),
        ),
        _ => {
            let mut cfg = MpcConfig::paper_default();
            cfg.candidates = vec![Celsius::new(16.0), Celsius::new(20.0), Celsius::new(24.0)];
            cfg.period = SimDuration::from_secs(20);
            Box::new(MpcSetPointController::new(cfg).with_balancer(TileFlowBalancer::new(0.02)))
        }
    }
}

fn fleet(kind: u8, rooms: usize) -> Vec<Box<dyn RoomController>> {
    // Mixed fleet: room index rotates the controller kind so per-room
    // decision paths differ (a stronger plan-invariance pin than an
    // identical fleet).
    (0..rooms)
        .map(|r| controller(kind.wrapping_add(r as u8)))
        .collect()
}

fn supervisor(rooms: usize) -> Supervisor {
    Supervisor::new(rooms, SupervisorConfig::for_cap(Celsius::new(DIE_CAP)))
}

/// A script that keeps the building mid-fault for most of its span:
/// a deep chiller derate, a per-room CRAH derate, a correlated surge,
/// then repairs.
fn building_script(steps: u64) -> BuildingScenario {
    let dt = SimDuration::from_secs(1);
    BuildingScenario::new("prop", dt * steps, dt)
        .with_die_cap(Celsius::new(DIE_CAP))
        .with_initial_load(Utilization::saturating_from_fraction(0.6))
        .at(dt * (steps / 5), BuildingEvent::Chiller(0.4))
        .at(
            dt * (steps / 4),
            BuildingEvent::Room {
                room: 0,
                event: ScenarioEvent::CrahCapacity(0.7),
            },
        )
        .at(
            dt * (steps / 2),
            BuildingEvent::LoadSurge(Utilization::FULL),
        )
        .at(dt * (2 * steps / 3), BuildingEvent::Chiller(1.0))
        .at(
            dt * (2 * steps / 3),
            BuildingEvent::Room {
                room: 0,
                event: ScenarioEvent::CrahCapacity(1.0),
            },
        )
}

/// Fingerprint of a building trajectory, exact to the bit.
#[allow(clippy::type_complexity)]
fn fingerprint(building: &Building, supervisor: &Supervisor) -> (u64, u64, Vec<u64>, u64, u64) {
    let mut aisles = Vec::new();
    for r in 0..building.rooms() {
        let room = building.room(r).unwrap();
        for rack in 0..room.racks() {
            aisles.push(room.cold_aisle_temperature(rack).degrees().to_bits());
        }
        aisles.push(room.total_energy().value().to_bits());
    }
    (
        building.total_energy().value().to_bits(),
        building.max_die_temperature().degrees().to_bits(),
        aisles,
        supervisor.sheds(),
        supervisor.counts().invariant(),
    )
}

/// Every counter and figure of a building outcome, exact to the bit.
fn outcome_print(outcome: &BuildingOutcome) -> Vec<u64> {
    let stats = &outcome.stats;
    vec![
        outcome.total_energy.value().to_bits(),
        outcome.it_energy.value().to_bits(),
        outcome.plant_energy.value().to_bits(),
        outcome.final_max_die.degrees().to_bits(),
        outcome.events_applied as u64,
        stats.decisions,
        stats.applied,
        stats.peak_die.degrees().to_bits(),
        stats.cap_violation_time.as_millis(),
        stats.recovery_time.map_or(u64::MAX, |t| t.as_millis()),
        outcome.trips.nan,
        outcome.trips.conservation,
        outcome.trips.runaway,
        outcome.sheds,
        outcome.escalations,
        outcome.shed_time.as_millis(),
    ]
}

/// A supervised scripted run is bit-identical on thread plans {1, 2, 8}
/// — rooms are the unit of parallelism and couple only through the
/// serial plant phase.
#[test]
fn building_trajectory_is_plan_invariant() {
    let rooms = 3;
    let script = building_script(120);
    let mut reference = None;
    for plan in [1usize, 2, 8] {
        let mut building = small_building(ShardPlan::new(plan), rooms, 7);
        let mut controllers = fleet(0, rooms);
        let mut sup = supervisor(rooms);
        let mut runner = BuildingScenarioRunner::new(script.clone(), rooms);
        let outcome = runner
            .run(&mut building, &mut controllers, &mut sup)
            .unwrap();
        assert_eq!(
            outcome.trips.invariant(),
            0,
            "plan {plan} tripped a monitor"
        );
        let print = fingerprint(&building, &sup);
        match &reference {
            None => reference = Some(print),
            Some(expected) => assert_eq!(&print, expected, "plan {plan} diverged"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Interrupting a supervised building run mid-fault at any point
    /// and restoring into a fresh building on a *different* thread plan
    /// resumes the exact trajectory of an uninterrupted plan-1 run.
    #[test]
    fn building_checkpoint_resumes_bit_identically(
        rooms in 2usize..4,
        steps in 80u64..140,
        at in 0.15..0.85f64,
        seed in 0u64..1_000,
        kind in 0u8..3,
        split in prop::collection::vec(1u64..40, 1..6),
    ) {
        let script = building_script(steps);

        let mut building = small_building(ShardPlan::new(1), rooms, seed);
        let mut controllers = fleet(kind, rooms);
        let mut sup = supervisor(rooms);
        let mut runner = BuildingScenarioRunner::new(script.clone(), rooms);
        let outcome = runner.run(&mut building, &mut controllers, &mut sup).unwrap();
        let reference = fingerprint(&building, &sup);
        let reference_outcome = outcome_print(&outcome);

        // The same run chunked — one step per call, then a random split
        // on another thread plan — agrees bit-for-bit.
        for (plan, chunks) in [(1usize, vec![1u64]), (2, split.clone())] {
            let mut building = small_building(ShardPlan::new(plan), rooms, seed);
            let mut controllers = fleet(kind, rooms);
            let mut sup = supervisor(rooms);
            let mut runner = BuildingScenarioRunner::new(script.clone(), rooms);
            for &chunk in chunks.iter().cycle() {
                if runner.finished() {
                    break;
                }
                runner.run_steps(&mut building, &mut controllers, &mut sup, chunk).unwrap();
            }
            let outcome = runner.outcome(&building, &sup);
            prop_assert_eq!(fingerprint(&building, &sup), reference.clone(), "chunks {:?}", &chunks);
            prop_assert_eq!(outcome_print(&outcome), reference_outcome.clone(), "chunks {:?}", &chunks);
        }

        let mid = ((steps as f64 * at) as u64).clamp(1, steps - 1);
        let mut building = small_building(ShardPlan::new(1), rooms, seed);
        let mut controllers = fleet(kind, rooms);
        let mut sup = supervisor(rooms);
        let mut runner = BuildingScenarioRunner::new(script.clone(), rooms);
        runner.run_steps(&mut building, &mut controllers, &mut sup, mid).unwrap();
        let snap = runner.checkpoint(&mut building, &controllers, &sup);
        prop_assert_eq!(snap.step(), mid);

        for plan in [1usize, 2, 8] {
            let mut resumed = small_building(ShardPlan::new(plan), rooms, seed);
            let mut resumed_ctl = fleet(kind, rooms);
            let mut resumed_sup = supervisor(rooms);
            let mut resumed_runner = BuildingScenarioRunner::new(script.clone(), rooms);
            resumed_runner
                .restore(&mut resumed, &mut resumed_ctl, &mut resumed_sup, &snap)
                .unwrap();
            resumed_runner
                .run(&mut resumed, &mut resumed_ctl, &mut resumed_sup)
                .unwrap();
            prop_assert_eq!(
                fingerprint(&resumed, &resumed_sup),
                reference.clone(),
                "resumed on plan {}",
                plan
            );
        }
    }

    /// Events sharing a timestamp fire in stable script (insertion)
    /// order, regardless of where unrelated events were inserted in the
    /// build sequence: the trajectory depends only on the per-instant
    /// insertion subsequence, and the last same-instant write wins.
    #[test]
    fn same_instant_events_fire_in_stable_script_order(
        caps in prop::collection::vec(0.3..=0.9f64, 2..5),
        steps in 40u64..80,
        t_frac in 0.3..0.7f64,
        seed in 0u64..1_000,
    ) {
        let dt = SimDuration::from_secs(1);
        let t_dup = dt * ((steps as f64 * t_frac) as u64).clamp(1, steps - 2);
        let t_load = dt * (steps / 5);
        let base = || Scenario::new("order", dt * steps, dt)
            .with_die_cap(Celsius::new(DIE_CAP))
            .with_initial_load(Utilization::saturating_from_fraction(0.5));

        // A: unrelated load event inserted *between* the same-instant
        // capacity writes. B: load event inserted first. The
        // same-instant subsequence (caps in order) is identical, so the
        // trajectories must be too.
        let mut a = base().at(t_dup, ScenarioEvent::CrahCapacity(caps[0]));
        a = a.at(t_load, ScenarioEvent::Load(Utilization::FULL));
        for &c in &caps[1..] {
            a = a.at(t_dup, ScenarioEvent::CrahCapacity(c));
        }
        let mut b = base().at(t_load, ScenarioEvent::Load(Utilization::FULL));
        for &c in &caps {
            b = b.at(t_dup, ScenarioEvent::CrahCapacity(c));
        }
        // C: the same-instant writes reversed — a *different* script
        // whose last write is caps[0].
        let mut c = base().at(t_load, ScenarioEvent::Load(Utilization::FULL));
        for &cap in caps.iter().rev() {
            c = c.at(t_dup, ScenarioEvent::CrahCapacity(cap));
        }

        let run = |scenario: Scenario| {
            let mut config = RoomConfig::new(1, 2, 2);
            config.seed = seed;
            let mut room = Room::new(config).unwrap();
            let mut ctl = FixedSupplyController::new(Celsius::new(20.0));
            let outcome = ScenarioRunner::new(scenario).run(&mut room, &mut ctl).unwrap();
            (
                room.crah_capacity(),
                room.total_energy().value().to_bits(),
                room.max_die_temperature().degrees().to_bits(),
                outcome.events_applied,
            )
        };

        let ra = run(a);
        let rb = run(b);
        let rc = run(c);
        // Insertion order of *other-instant* events is irrelevant.
        prop_assert_eq!(&ra, &rb);
        // The last same-instant write in script order is the one that
        // sticks.
        prop_assert_eq!(ra.0, *caps.last().unwrap());
        prop_assert_eq!(rc.0, caps[0]);
        prop_assert_eq!(ra.3, caps.len() + 1);
    }

    /// `RoomController::restore_state` fed truncated or garbage state
    /// (including NaN/∞ bit patterns) never panics and leaves the
    /// controller usable: it still produces decisions a room accepts,
    /// and a subsequent genuine checkpoint round-trips.
    #[test]
    fn controller_restore_survives_garbage_state(
        bits in prop::collection::vec(any::<u64>(), 0..32),
        truncate in 0usize..24,
        kind in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let garbage: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();

        // A genuine mid-run checkpoint, then truncated.
        let mut config = RoomConfig::new(1, 2, 2);
        config.seed = seed;
        let mut room = Room::new(config).unwrap();
        let mut ctl = controller(kind);
        let mut obs = RoomObservation::new();
        for _ in 0..3 {
            let action = room.decide(ctl.as_mut(), &mut obs);
            room.apply(&action).unwrap();
            for _ in 0..20 {
                room.step(SimDuration::from_secs(1), Utilization::FULL).unwrap();
            }
        }
        let genuine = ctl.checkpoint_state();
        let truncated = &genuine[..truncate.min(genuine.len())];

        for state in [garbage.as_slice(), truncated] {
            let mut restored = controller(kind);
            restored.restore_state(state);
            // Usable: decides without panicking, the room accepts the
            // action, and checkpointing still works.
            let action = room.decide(restored.as_mut(), &mut obs);
            room.apply(&action).unwrap();
            room.step(SimDuration::from_secs(1), Utilization::FULL).unwrap();
            let after = restored.checkpoint_state();
            let mut again = controller(kind);
            again.restore_state(&after);
            prop_assert_eq!(again.checkpoint_state(), after);
        }
    }
}

/// A building checkpoint refuses a building with a different room
/// count, and the refusal mutates nothing.
#[test]
fn building_restore_rejects_mismatched_shape_without_mutating() {
    let rooms = 2;
    let script = building_script(60);
    let mut building = small_building(ShardPlan::new(1), rooms, 3);
    let mut controllers = fleet(0, rooms);
    let mut sup = supervisor(rooms);
    let mut runner = BuildingScenarioRunner::new(script.clone(), rooms);
    runner
        .run_steps(&mut building, &mut controllers, &mut sup, 30)
        .unwrap();
    let snap = runner.checkpoint(&mut building, &controllers, &sup);

    let other_rooms = 3;
    let mut other = small_building(ShardPlan::new(1), other_rooms, 3);
    let mut other_ctl = fleet(0, other_rooms);
    let mut other_sup = supervisor(other_rooms);
    let mut other_runner = BuildingScenarioRunner::new(building_script(60), other_rooms);
    other_runner
        .run_steps(&mut other, &mut other_ctl, &mut other_sup, 10)
        .unwrap();
    let before = fingerprint(&other, &other_sup);

    let err = other_runner
        .restore(&mut other, &mut other_ctl, &mut other_sup, &snap)
        .unwrap_err();
    assert!(matches!(err, BuildingError::CheckpointMismatch { .. }));
    assert_eq!(fingerprint(&other, &other_sup), before);
    other_runner
        .run(&mut other, &mut other_ctl, &mut other_sup)
        .unwrap();
    assert!(other_runner.finished());
}
