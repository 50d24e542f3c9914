//! The deterministic work partition behind the parallel runtime.
//!
//! The simulator parallelizes only across independent units of work —
//! the racks of a room, the rooms of a building — which interact solely
//! through a serial phase between parallel ones. [`ShardPlan`] decides
//! how many workers there are and which contiguous run of units each
//! one takes; the workers themselves are spawned by the one spawn site
//! in `leakctl-core`. This crate spawns no threads: within a rack, a
//! hash group of servers steps as one packed block through
//! [`BatchSolver::step_packed`](crate::BatchSolver::step_packed) on the
//! calling thread.
//!
//! The partition is a pure function of the plan and the unit count, and
//! units never share state inside a parallel phase, so trajectories are
//! bit-identical for any thread count.

use std::ops::Range;
use std::thread;

/// Environment variable overriding the worker thread count used by
/// [`ShardPlan::from_env`]. `LEAKCTL_THREADS=1` forces fully inline
/// (spawn-free) stepping; results are bit-identical either way.
pub const THREADS_ENV: &str = "LEAKCTL_THREADS";

/// Hard ceiling on worker threads (a plan never exceeds it).
const MAX_THREADS: usize = 64;

/// Deterministic work partition: how many worker threads to use and
/// which contiguous run of units (racks, rooms) each one takes.
///
/// The partition for a given unit count is a pure function of the plan
/// — contiguous ranges, sizes differing by at most one — and the
/// stepped results are bit-identical for *any* plan, so the plan is
/// purely a performance knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    threads: usize,
}

impl ShardPlan {
    /// A plan over `threads` workers (clamped to `1..=64`).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// The plan the environment asks for: `LEAKCTL_THREADS` when set,
    /// else the machine's available parallelism. An unparsable value
    /// (a typo in a deployment manifest) also falls back to the
    /// machine's parallelism — a misconfiguration must not silently
    /// force the engine single-threaded.
    #[must_use]
    pub fn from_env() -> Self {
        let machine = || thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let threads = match std::env::var(THREADS_ENV) {
            Ok(v) => v.trim().parse::<usize>().unwrap_or_else(|_| machine()),
            Err(_) => machine(),
        };
        Self::new(threads)
    }

    /// The worker thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of shards `units` split into: one per worker, and never
    /// more shards than units.
    #[must_use]
    pub fn shard_count(&self, units: usize) -> usize {
        self.threads.min(units)
    }

    /// The deterministic contiguous unit ranges of each shard: sizes
    /// differ by at most one, earlier shards take the remainder.
    #[must_use]
    pub fn ranges(&self, units: usize) -> Vec<Range<usize>> {
        let shards = self.shard_count(units);
        let mut out = Vec::with_capacity(shards);
        if shards == 0 {
            return out;
        }
        let (base, rem) = (units / shards, units % shards);
        let mut start = 0;
        for i in 0..shards {
            let size = base + usize::from(i < rem);
            out.push(start..start + size);
            start += size;
        }
        out
    }
}

impl Default for ShardPlan {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchSolver, PackedLanes};
    use crate::error::ThermalError;
    use crate::network::{Coupling, FlowChannelId, ThermalNetwork, ThermalNetworkBuilder};
    use leakctl_units::{
        AirFlow, Celsius, SimDuration, ThermalCapacitance, ThermalConductance, Watts,
    };

    #[test]
    fn plan_partition_is_deterministic_and_covers() {
        let plan = ShardPlan::new(4);
        let ranges = plan.ranges(10);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..3);
        assert_eq!(ranges[1], 3..6);
        assert_eq!(ranges[2], 6..8);
        assert_eq!(ranges[3], 8..10);
        assert_eq!(plan.ranges(10), ranges, "pure function of the plan");
        // Never more shards than units; nothing to split, no shards.
        assert_eq!(ShardPlan::new(8).shard_count(3), 3);
        assert_eq!(ShardPlan::new(8).ranges(3), vec![0..1, 1..2, 2..3]);
        assert_eq!(ShardPlan::new(2).shard_count(64), 2);
        assert!(ShardPlan::new(2).ranges(0).is_empty());
        assert_eq!(ShardPlan::new(0).threads(), 1, "clamped");
    }

    fn server_like(power: f64) -> (ThermalNetwork, FlowChannelId) {
        let mut b = ThermalNetworkBuilder::new();
        let die = b.add_node("die", ThermalCapacitance::new(80.0));
        let sink = b.add_node("sink", ThermalCapacitance::new(400.0));
        let amb = b.add_boundary("ambient", Celsius::new(24.0));
        b.connect(
            die,
            sink,
            Coupling::Conductance(ThermalConductance::new(10.0)),
        )
        .unwrap();
        let ch = b.add_flow_channel("chassis");
        let model = crate::ConvectionModel::turbulent(
            ThermalConductance::new(3.4),
            AirFlow::from_cfm(300.0),
        );
        b.connect(sink, amb, Coupling::Convective { channel: ch, model })
            .unwrap();
        let mut net = b.build().unwrap();
        net.set_flow(ch, AirFlow::from_cfm(250.0)).unwrap();
        net.set_power(die, Watts::new(power)).unwrap();
        (net, ch)
    }

    #[test]
    fn mixed_flows_rejected_then_recoverable() {
        // Six servers split over two shards, each shard one packed
        // block with its own solver. A flow diverging inside one shard
        // rejects that shard's step (its block untouched) without
        // touching the other; once flows re-converge every shard
        // steps again, bit-identical to one unsharded block.
        let (mut nets, chs): (Vec<_>, Vec<_>) = (0..6)
            .map(|i| server_like(40.0 + 3.0 * f64::from(i)))
            .unzip();
        let states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let ranges = ShardPlan::new(2).ranges(nets.len());
        let mut shards: Vec<_> = ranges
            .iter()
            .map(|r| {
                (
                    BatchSolver::new(&nets[0]),
                    PackedLanes::pack(&states[r.clone()]),
                )
            })
            .collect();
        let mut whole_solver = BatchSolver::new(&nets[0]);
        let mut whole = PackedLanes::pack(&states);
        let dt = SimDuration::from_secs(1);
        let step_shards = |nets: &[ThermalNetwork],
                           shards: &mut [(BatchSolver, PackedLanes)]|
         -> Vec<Result<(), ThermalError>> {
            ranges
                .iter()
                .zip(shards.iter_mut())
                .map(|(r, (solver, packed))| {
                    solver.step_packed(|lane| &nets[r.start + lane], packed, dt)
                })
                .collect()
        };
        assert!(step_shards(&nets, &mut shards).iter().all(Result::is_ok));
        whole_solver
            .step_packed(|lane| &nets[lane], &mut whole, dt)
            .unwrap();

        // Diverge one lane's flow in the second shard: the
        // shared-factorization contract breaks there only.
        nets[3].set_flow(chs[3], AirFlow::from_cfm(500.0)).unwrap();
        let before = shards[1].1.clone();
        let results = step_shards(&nets, &mut shards);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(ThermalError::MixedBatchSignatures));
        for lane in 0..before.batch() {
            for slot in 0..before.dimension() {
                assert_eq!(
                    shards[1].1.lane_temperature(lane, slot).to_bits(),
                    before.lane_temperature(lane, slot).to_bits(),
                    "rejected step is a no-op"
                );
            }
        }

        // Re-converge: stepping resumes in every shard. Reset to a
        // common state so the sharded blocks and the whole block start
        // the recovery leg level.
        nets[3].set_flow(chs[3], AirFlow::from_cfm(250.0)).unwrap();
        for (r, (_, packed)) in ranges.iter().zip(shards.iter_mut()) {
            *packed = PackedLanes::pack(&states[r.clone()]);
        }
        whole = PackedLanes::pack(&states);
        for _ in 0..40 {
            assert!(step_shards(&nets, &mut shards).iter().all(Result::is_ok));
            whole_solver
                .step_packed(|lane| &nets[lane], &mut whole, dt)
                .unwrap();
        }
        for (r, (_, packed)) in ranges.iter().zip(&shards) {
            for (offset, lane) in r.clone().enumerate() {
                for slot in 0..whole.dimension() {
                    assert_eq!(
                        packed.lane_temperature(offset, slot).to_bits(),
                        whole.lane_temperature(lane, slot).to_bits(),
                        "lane {lane} slot {slot}"
                    );
                }
            }
        }
        assert!(whole.max_temperature() > 24.0);
    }
}
