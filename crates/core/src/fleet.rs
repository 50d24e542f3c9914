//! A rack-scale fleet of digital-twin servers stepped through the
//! shared-factorization batch engine.
//!
//! [`Fleet`] supersedes the original scalar `Rack` (which stepped each
//! server's thermal network through its own per-server solve) while
//! preserving its public API. Members are headless
//! [`ServerCore`]s: fan dynamics, failsafe, power models and accounting
//! run through the core's own phase protocol, exactly as inside
//! `Server::step`; only the thermal integration is hoisted out and
//! solved for all servers at once. A fleet carries no CSTH telemetry or
//! event trace: nothing at rack or room scale reads them (controllers,
//! schedulers and the supervisor take die maxima from
//! [`Fleet::die_temps_view`]), sensors never fed back into the physics,
//! and without a per-server history a fleet's memory does not grow
//! with simulated time. The trajectory stays bit-identical to a scalar
//! `Server::step` loop.
//!
//! The stepping engine works in two layers:
//!
//! - **Hash groups.** Servers are partitioned by their thermal
//!   network's [`structure_hash`](leakctl_thermal::ThermalNetwork::structure_hash)
//!   (mixed-SKU fleets via [`Fleet::from_configs`]); each group batches
//!   through its own shared `(dt, flow)` factorization instead of
//!   falling back to scalar stepping.
//! - **Resident packed state.** While a group's fan flows agree
//!   (the common fleet regime), its thermal state lives in one
//!   slot-major [`PackedLanes`] block *between* steps, stepped through
//!   [`BatchSolver::step_packed`]: no per-step gather/scatter. Each
//!   step syncs only the CPU-die slots back into the servers (the
//!   slots per-server dynamics read); a lane is fully unpacked only
//!   when [`Fleet::server`]/[`Fleet::server_mut`] is called. When flows
//!   diverge (per-server fan commands), the group transparently falls
//!   back to the per-lane [`BatchSolver::step`] and re-packs once flows
//!   re-converge.
//!
//! A fleet steps on the calling thread. Parallelism lives one level
//! up: a [`Room`](crate::room::Room) steps its racks' fleets
//! concurrently, and a [`Building`](crate::building::Building) its
//! rooms.
//!
//! Inlet coupling follows the original model: all servers share one
//! inlet whose temperature drifts with the rack's total heat (exhaust
//! recirculation) — the "real-life data center" setting the paper's
//! conclusion points toward.

use std::ops::Range;

use leakctl_platform::{FanFault, PlatformError, ServerConfig, ServerCore};
use leakctl_thermal::{
    BatchLane, BatchSolver, Integrator, PackedLanes, ThermalError, ThermalState,
};
use leakctl_units::{Celsius, Joules, Rpm, SimDuration, TempDelta, Utilization, Watts};

use crate::error::CoreError;

/// One structure-hash group: a contiguous run of (storage-ordered)
/// servers sharing a topology, batched through one solver.
#[derive(Debug)]
struct FleetGroup {
    /// Contiguous storage range of this group's servers.
    range: Range<usize>,
    solver: BatchSolver,
    /// Packed thermal state — authoritative while `Some` (flows
    /// homogeneous); `None` while the group steps through the per-lane
    /// fallback (diverged fans) or before the first step.
    lanes: Option<PackedLanes>,
    /// State slots of the CPU die nodes (identical across the group's
    /// topology): the only slots synced back every step.
    die_slots: Vec<usize>,
}

/// A rack of servers with inlet-temperature coupling:
///
/// ```text
/// T_inlet = T_room + r · P_rack
/// ```
///
/// where `r` (K/W) models how much of the rack's exhaust heat
/// recirculates to the inlet (0 for perfect containment; a few mK/W for
/// a poorly sealed aisle).
///
/// With the default backward-Euler integrator, every step batches each
/// hash group's thermal solves through shared factorizations on the
/// packed engine; other integrators fall back to per-server stepping
/// (there is no factorization to share).
///
/// # Example
///
/// ```
/// use leakctl::fleet::Fleet;
/// use leakctl_platform::ServerConfig;
/// use leakctl_units::{Rpm, SimDuration, Utilization};
///
/// # fn main() -> Result<(), leakctl::CoreError> {
/// let mut fleet = Fleet::new(ServerConfig::default(), 4, 0.004)?;
/// fleet.command_all(Rpm::new(2400.0));
/// for _ in 0..60 {
///     fleet.step(SimDuration::from_secs(1), Utilization::FULL)?;
/// }
/// assert!(fleet.inlet_temperature().degrees() > 24.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Fleet {
    /// Servers in storage order: hash groups first (each contiguous),
    /// then scalar-integrated servers.
    servers: Vec<ServerCore>,
    /// `index_map[original] = storage` — public indices are original
    /// construction order.
    index_map: Vec<usize>,
    room: Celsius,
    recirculation_k_per_w: f64,
    groups: Vec<FleetGroup>,
    /// Storage indices stepped per-server (non-backward-Euler
    /// integrators: no factorization to share).
    scalar_members: Range<usize>,
}

impl Fleet {
    /// Builds a fleet of `count` servers from a shared config.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for an empty fleet or negative
    /// recirculation, and propagates server-construction failures.
    pub fn new(
        config: ServerConfig,
        count: usize,
        recirculation_k_per_w: f64,
    ) -> Result<Self, CoreError> {
        Self::from_configs(&vec![config; count], recirculation_k_per_w)
    }

    /// Builds a heterogeneous (mixed-SKU) fleet: server `i` is built
    /// from `configs[i]`. Servers are grouped by thermal-topology hash,
    /// and each group batches through its own shared factorizations —
    /// a room of several SKUs still steps batched within each SKU. The room temperature is taken from the
    /// first config's ambient.
    ///
    /// # Errors
    ///
    /// As [`Fleet::new`].
    pub fn from_configs(
        configs: &[ServerConfig],
        recirculation_k_per_w: f64,
    ) -> Result<Self, CoreError> {
        if configs.is_empty() {
            return Err(CoreError::Invalid {
                what: "fleet needs at least one server".to_owned(),
            });
        }
        if !(recirculation_k_per_w >= 0.0 && recirculation_k_per_w.is_finite()) {
            return Err(CoreError::Invalid {
                what: "recirculation coefficient must be non-negative".to_owned(),
            });
        }
        let built = configs
            .iter()
            .map(|config| ServerCore::new(config.clone()))
            .collect::<Result<Vec<ServerCore>, PlatformError>>()?;
        let room = configs[0].ambient;

        // Partition original indices: batched servers by first-seen
        // structure hash, explicit-integrator servers to the scalar
        // tail. Storage order = concatenated groups, then scalars, so
        // every group is one contiguous server run.
        let (batched_list, scalar_list): (Vec<usize>, Vec<usize>) = (0..built.len())
            .partition(|&i| built[i].config().integrator == Integrator::BackwardEuler);
        let member_lists: Vec<Vec<usize>> = group_by_structure_hash(
            batched_list
                .iter()
                .map(|&i| built[i].thermal_network().structure_hash()),
        )
        .into_iter()
        .map(|positions| positions.into_iter().map(|p| batched_list[p]).collect())
        .collect();
        let mut index_map = vec![0usize; built.len()];
        let mut order: Vec<usize> = Vec::with_capacity(built.len());
        let mut groups = Vec::with_capacity(member_lists.len());
        for members in &member_lists {
            let start = order.len();
            order.extend_from_slice(members);
            groups.push((start..order.len(), members[0]));
        }
        let scalar_start = order.len();
        order.extend_from_slice(&scalar_list);
        for (storage, &original) in order.iter().enumerate() {
            index_map[original] = storage;
        }
        let mut by_storage: Vec<Option<ServerCore>> = built.into_iter().map(Some).collect();
        let mut servers: Vec<ServerCore> = Vec::with_capacity(order.len());
        for &original in &order {
            let Some(server) = by_storage[original].take() else {
                return Err(CoreError::Invalid {
                    what: "internal: server storage permutation is not a bijection".to_owned(),
                });
            };
            servers.push(server);
        }
        let groups = groups
            .into_iter()
            .map(|(range, template_original)| {
                let template = &servers[index_map[template_original]];
                FleetGroup {
                    range,
                    solver: BatchSolver::new(template.thermal_network()),
                    lanes: None,
                    die_slots: template.die_state_slots(),
                }
            })
            .collect();
        Ok(Self {
            servers,
            index_map,
            room,
            recirculation_k_per_w,
            groups,
            scalar_members: scalar_start..order.len(),
        })
    }

    /// Number of servers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// `true` when the fleet is empty (construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Number of structure-hash groups batching through shared
    /// factorizations (1 for a homogeneous fleet).
    #[must_use]
    pub fn hash_group_count(&self) -> usize {
        self.groups.len()
    }

    /// Commands every server's fans.
    pub fn command_all(&mut self, rpm: Rpm) {
        for server in &mut self.servers {
            server.command_fan_speed(rpm);
        }
    }

    /// Access to an individual server's headless core (ground-truth
    /// temperatures, powers, energy, fans). Takes `&mut self` because
    /// the fleet's thermal state lives packed in the batch engine
    /// between steps: this lazily syncs the server's full state first.
    #[must_use]
    pub fn server(&mut self, index: usize) -> Option<&ServerCore> {
        if index >= self.servers.len() {
            return None;
        }
        let storage = self.index_map[index];
        self.sync_server_state(storage);
        Some(&self.servers[storage])
    }

    /// Mutable access to an individual server (e.g. to attach
    /// per-server controllers). Syncs the server's full state and drops
    /// the owning group's packed residency (the caller may mutate state
    /// the packed copy would shadow); the group re-packs on the next
    /// step.
    #[must_use]
    pub fn server_mut(&mut self, index: usize) -> Option<&mut ServerCore> {
        if index >= self.servers.len() {
            return None;
        }
        let storage = self.index_map[index];
        if let Some(g) = self.group_of(storage) {
            let range = self.groups[g].range.clone();
            Self::evict_group(&mut self.groups[g], &mut self.servers[range]);
        }
        Some(&mut self.servers[storage])
    }

    /// Unpacks every resident group's packed temperatures back into
    /// the per-server states (residency is kept; reads stay cheap until
    /// the next divergence).
    pub fn sync_states(&mut self) {
        for group in &mut self.groups {
            if let Some(lanes) = group.lanes.as_ref() {
                for (offset, server) in self.servers[group.range.clone()].iter_mut().enumerate() {
                    let (_, state) = server.split_thermal();
                    lanes.unpack_lane_into(offset, state);
                }
            }
        }
    }

    /// The hash group owning a storage index, if any.
    fn group_of(&self, storage: usize) -> Option<usize> {
        self.groups.iter().position(|g| g.range.contains(&storage))
    }

    /// Syncs one server's full thermal state from its group's packed
    /// block (no-op when the group is not resident).
    fn sync_server_state(&mut self, storage: usize) {
        if let Some(g) = self.group_of(storage) {
            let group = &self.groups[g];
            if let Some(lanes) = group.lanes.as_ref() {
                let offset = storage - group.range.start;
                let (_, state) = self.servers[storage].split_thermal();
                lanes.unpack_lane_into(offset, state);
            }
        }
    }

    /// Unpacks a group's packed state into its servers and drops
    /// residency. `members` is exactly the group's server run
    /// (`servers[group.range]` in storage coordinates — callers that
    /// hold the full vector slice it first).
    fn evict_group(group: &mut FleetGroup, members: &mut [ServerCore]) {
        if let Some(lanes) = group.lanes.take() {
            assert_eq!(members.len(), group.range.len(), "group member slice");
            for (offset, server) in members.iter_mut().enumerate() {
                let (_, state) = server.split_thermal();
                lanes.unpack_lane_into(offset, state);
            }
        }
    }

    /// Number of shared factorizations currently live across the batch
    /// engines (1 while a homogeneous fleet runs one `(dt, flow)`
    /// operating point; one per distinct per-server fan speed — and
    /// per SKU — otherwise).
    #[must_use]
    pub fn batch_group_count(&self) -> usize {
        self.groups.iter().map(|g| g.solver.group_count()).sum()
    }

    /// Injects (or clears, with [`FanFault::None`]) a fan-bank fault
    /// on server `index`. Routed through [`Fleet::server_mut`], so the
    /// owning group's packed residency is dropped; from the next step
    /// the faulted server's chassis flow diverges from its neighbours,
    /// its group transparently falls back to per-lane stepping, and
    /// every cached factorization invalidates through the ordinary
    /// flow-generation counters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for an out-of-range server or a
    /// [`FanFault::Degraded`] flow scale outside `[0, 1]`.
    pub fn inject_fan_fault(&mut self, index: usize, fault: FanFault) -> Result<(), CoreError> {
        if let FanFault::Degraded { flow_scale } = fault {
            if !(flow_scale.is_finite() && (0.0..=1.0).contains(&flow_scale)) {
                return Err(CoreError::Invalid {
                    what: "degraded fan flow scale must be in [0, 1]".to_owned(),
                });
            }
        }
        self.server_mut(index)
            .ok_or_else(|| CoreError::Invalid {
                what: format!("server index {index} out of range"),
            })?
            .inject_fan_fault(fault);
        Ok(())
    }

    /// Server `index`'s currently injected fan fault (`None` for an
    /// out-of-range index). Reads non-thermal state, so no lane sync
    /// or residency eviction.
    #[must_use]
    pub fn fan_fault(&self, index: usize) -> Option<FanFault> {
        let &storage = self.index_map.get(index)?;
        Some(self.servers[storage].fan_fault())
    }

    /// Snapshots the full fleet — every server's thermal state, fan
    /// bank (faults included), service processor, clock and accounting
    /// — in original index order. Packed blocks are synced into the
    /// servers first, so the snapshot is exact regardless of residency.
    pub fn checkpoint(&mut self) -> FleetCheckpoint {
        self.sync_states();
        FleetCheckpoint {
            servers: self
                .index_map
                .iter()
                .map(|&storage| self.servers[storage].clone())
                .collect(),
        }
    }

    /// Restores a [`Fleet::checkpoint`] — into this fleet or any fleet
    /// built from the same configs. Packed residency is dropped, so
    /// the next step re-packs the restored states verbatim and
    /// re-derives factorizations from them: the resumed trajectory is
    /// bit-identical to the uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] when the checkpoint's server
    /// count or thermal topologies do not match this fleet.
    pub fn restore(&mut self, checkpoint: &FleetCheckpoint) -> Result<(), CoreError> {
        self.can_restore(checkpoint)?;
        for (original, snap) in checkpoint.servers.iter().enumerate() {
            self.servers[self.index_map[original]] = snap.clone();
        }
        for group in &mut self.groups {
            group.lanes = None;
        }
        Ok(())
    }

    /// Checks that `checkpoint` could be restored into this fleet
    /// without doing it — the validation half of [`Fleet::restore`],
    /// exposed so multi-fleet owners (a [`Room`](crate::room::Room))
    /// can validate every rack before mutating any of them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] when the checkpoint's server
    /// count or thermal topologies do not match this fleet.
    pub fn can_restore(&self, checkpoint: &FleetCheckpoint) -> Result<(), CoreError> {
        if checkpoint.servers.len() != self.servers.len() {
            return Err(CoreError::Invalid {
                what: format!(
                    "checkpoint holds {} servers, fleet has {}",
                    checkpoint.servers.len(),
                    self.servers.len()
                ),
            });
        }
        for (original, snap) in checkpoint.servers.iter().enumerate() {
            let storage = self.index_map[original];
            if snap.thermal_network().structure_hash()
                != self.servers[storage].thermal_network().structure_hash()
            {
                return Err(CoreError::Invalid {
                    what: format!("checkpoint server {original} has a different thermal topology"),
                });
            }
        }
        Ok(())
    }

    /// Advances every server by `dt` at the same activity level, then
    /// updates the shared inlet temperature from the fleet's total heat.
    ///
    /// # Errors
    ///
    /// Propagates platform failures.
    pub fn step(&mut self, dt: SimDuration, activity: Utilization) -> Result<(), CoreError> {
        let inlet = self.inlet_temperature();
        self.step_with_inlet(dt, activity, inlet)
    }

    /// Advances every server by `dt` with an *externally supplied*
    /// inlet temperature — the room-scale coupling point: a
    /// [`Room`](crate::room::Room) reads each rack's cold-aisle air
    /// volume from the room network and feeds it here, replacing the
    /// scalar `T_room + r·P` drift that [`Fleet::step`] applies.
    ///
    /// # Errors
    ///
    /// Propagates platform failures.
    pub fn step_with_inlet(
        &mut self,
        dt: SimDuration,
        activity: Utilization,
        inlet: Celsius,
    ) -> Result<(), CoreError> {
        // Explicit integrators have no factorization to share.
        for server in &mut self.servers[self.scalar_members.clone()] {
            server.set_ambient(inlet)?;
            server.step(dt, activity)?;
        }
        for g in 0..self.groups.len() {
            self.step_group(g, dt, activity, inlet)?;
        }
        Ok(())
    }

    /// One hash group's step: per-server dynamics (fans, failsafe,
    /// powers, accounting), then one packed solve while the group's
    /// fans agree — or the per-lane fallback while they disagree.
    fn step_group(
        &mut self,
        g: usize,
        dt: SimDuration,
        activity: Utilization,
        inlet: Celsius,
    ) -> Result<(), CoreError> {
        let group = &mut self.groups[g];
        let servers = &mut self.servers[group.range.clone()];
        for server in servers.iter_mut() {
            server.begin_step_with_inlet(dt, activity, inlet)?;
        }
        if dt.is_zero() {
            return Ok(());
        }
        if group.lanes.is_none()
            && group
                .solver
                .flows_homogeneous(|i| servers[i].thermal_network(), servers.len())
        {
            // Flows (re-)converged: state becomes packed-resident.
            let states: Vec<ThermalState> =
                servers.iter().map(|s| s.thermal_state().clone()).collect();
            group.lanes = Some(PackedLanes::pack(&states));
        }
        if let Some(lanes) = group.lanes.as_mut() {
            let stepped = group
                .solver
                .step_packed(|i| servers[i].thermal_network(), lanes, dt);
            match stepped {
                Ok(()) => {
                    for (i, server) in servers.iter_mut().enumerate() {
                        let (_, state) = server.split_thermal();
                        lanes.copy_lane_slots_into(i, &group.die_slots, state);
                        server.finish_step(dt);
                    }
                    return Ok(());
                }
                // Per-server fan commands diverged: state returns to
                // the servers until flows re-converge.
                Err(ThermalError::MixedBatchSignatures) => Self::evict_group(group, servers),
                Err(other) => return Err(PlatformError::from(other).into()),
            }
        }
        // Per-lane fallback: the mixed-signature engine, sharing the
        // packed path's factorization cache.
        let mut lanes: Vec<BatchLane<'_>> = servers
            .iter_mut()
            .map(|server| {
                let (net, state) = server.split_thermal();
                BatchLane { net, state }
            })
            .collect();
        group
            .solver
            .step(&mut lanes, dt)
            .map_err(PlatformError::from)?;
        for server in servers.iter_mut() {
            server.finish_step(dt);
        }
        Ok(())
    }

    /// The current shared inlet temperature.
    #[must_use]
    pub fn inlet_temperature(&self) -> Celsius {
        let drift = TempDelta::new(self.recirculation_k_per_w * self.total_power().value());
        self.room + drift
    }

    /// Total fleet power (system + fans across all servers), summed in
    /// *original* server order: storage order groups servers by hash,
    /// and float addition is order-sensitive, so summing storage-order
    /// would bitwise-diverge a mixed-SKU fleet from the scalar
    /// reference loop the bit-identity tests compare against.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.index_map
            .iter()
            .map(|&storage| self.servers[storage].total_power())
            .sum()
    }

    /// Total fleet energy since construction (original server order,
    /// see [`Fleet::total_power`]).
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.index_map
            .iter()
            .map(|&storage| self.servers[storage].total_energy())
            .sum()
    }

    /// Resets every server's energy, peak-power and timing
    /// accumulators (e.g. after a warm-up phase). Thermal state and
    /// packed residency are untouched.
    pub fn reset_accounting(&mut self) {
        for server in &mut self.servers {
            server.reset_accounting();
        }
    }

    /// The hottest die anywhere in the fleet.
    #[must_use]
    pub fn max_die_temperature(&self) -> Celsius {
        (0..self.servers.len())
            .map(|storage| self.die_temp_at_storage(storage))
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// Every server's hottest die temperature, in original index
    /// order, appended into `out` (cleared first).
    ///
    /// Reads straight from the packed blocks while a group is
    /// resident — no full-state unpack (which [`Fleet::server`] forces)
    /// and no residency eviction (which [`Fleet::server_mut`] costs) —
    /// so rack- and room-level controller loops can poll die
    /// temperatures every decision period for free.
    pub fn die_temps_view(&self, out: &mut Vec<Celsius>) {
        out.clear();
        out.extend(
            self.index_map
                .iter()
                .map(|&storage| self.die_temp_at_storage(storage)),
        );
    }

    /// One server's hottest die, from its group's packed block when
    /// resident (authoritative between steps) or its own state
    /// otherwise.
    fn die_temp_at_storage(&self, storage: usize) -> Celsius {
        if let Some(g) = self.group_of(storage) {
            let group = &self.groups[g];
            if let Some(lanes) = group.lanes.as_ref() {
                let offset = storage - group.range.start;
                let t = group
                    .die_slots
                    .iter()
                    .map(|&slot| lanes.lane_temperature(offset, slot))
                    .fold(f64::NEG_INFINITY, f64::max);
                return Celsius::new(t);
            }
        }
        self.servers[storage].max_die_temperature()
    }
}

/// A full fleet snapshot, produced by [`Fleet::checkpoint`]: core
/// clones (thermal state, fans, faults, accounting) in original index
/// order, restorable into any fleet built from the same configs for a
/// bit-identical resume.
#[derive(Debug, Clone)]
pub struct FleetCheckpoint {
    servers: Vec<ServerCore>,
}

impl FleetCheckpoint {
    /// Number of servers captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// `true` when the checkpoint is empty (never, for a real fleet).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }
}

/// Partitions items by structure hash in first-seen order: returns the
/// member lists of input *positions*, one list per distinct hash.
fn group_by_structure_hash(hashes: impl Iterator<Item = u64>) -> Vec<Vec<usize>> {
    let mut seen: Vec<u64> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (position, hash) in hashes.enumerate() {
        match seen.iter().position(|&h| h == hash) {
            Some(g) => groups[g].push(position),
            None => {
                seen.push(hash);
                groups.push(vec![position]);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use leakctl_platform::Server;

    use super::*;

    #[test]
    fn construction_validated() {
        assert!(matches!(
            Fleet::new(ServerConfig::default(), 0, 0.0),
            Err(CoreError::Invalid { .. })
        ));
        assert!(matches!(
            Fleet::new(ServerConfig::default(), 2, -1.0),
            Err(CoreError::Invalid { .. })
        ));
        let mut fleet = Fleet::new(ServerConfig::default(), 3, 0.001).unwrap();
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
        assert_eq!(fleet.hash_group_count(), 1, "homogeneous fleet, one SKU");
        assert!(fleet.server(0).is_some());
        assert!(fleet.server(3).is_none());
        assert!(fleet.server_mut(3).is_none());
    }

    #[test]
    fn recirculation_raises_inlet_and_dies() {
        let run = |k: f64| {
            let mut fleet = Fleet::new(ServerConfig::default(), 4, k).unwrap();
            fleet.command_all(Rpm::new(2400.0));
            for _ in 0..1_800 {
                fleet
                    .step(SimDuration::from_secs(1), Utilization::FULL)
                    .unwrap();
            }
            (fleet.inlet_temperature(), fleet.max_die_temperature())
        };
        let (inlet_sealed, die_sealed) = run(0.0);
        let (inlet_leaky, die_leaky) = run(0.004);
        assert!((inlet_sealed.degrees() - 24.0).abs() < 1e-9);
        assert!(
            inlet_leaky.degrees() > 30.0,
            "4 servers × ~500 W × 4 mK/W ≈ +8 °C, got {inlet_leaky}"
        );
        assert!(die_leaky > die_sealed);
    }

    #[test]
    fn fleet_energy_is_sum_of_servers() {
        let mut fleet = Fleet::new(ServerConfig::default(), 2, 0.0).unwrap();
        fleet.command_all(Rpm::new(3000.0));
        for _ in 0..300 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        let sum: f64 = (0..2)
            .map(|i| fleet.server(i).unwrap().total_energy().value())
            .sum();
        assert!((fleet.total_energy().value() - sum).abs() < 1e-9);
    }

    #[test]
    fn per_server_control_through_mut_access() {
        let mut fleet = Fleet::new(ServerConfig::default(), 2, 0.0).unwrap();
        fleet
            .server_mut(0)
            .unwrap()
            .command_fan_speed(Rpm::new(1800.0));
        fleet
            .server_mut(1)
            .unwrap()
            .command_fan_speed(Rpm::new(4200.0));
        for _ in 0..1_200 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        // Diverged fan speeds split the batch into (at least) two
        // factorization groups — transient slew signatures may linger
        // in the cache — and still solve correctly.
        assert!(fleet.batch_group_count() >= 2);
        let hot = fleet.server(0).unwrap().max_die_temperature();
        let cold = fleet.server(1).unwrap().max_die_temperature();
        assert!(hot.degrees() - cold.degrees() > 15.0);
    }

    #[test]
    fn batched_fleet_bit_identical_to_scalar_server_loop() {
        // The batch engine must not change the physics: a fleet stepped
        // through resident packed storage and shared factorizations
        // reproduces a scalar Server::step loop bit for bit — energy and
        // every ground-truth temperature alike.
        let count = 3;
        let k = 0.002;
        let mut fleet = Fleet::new(ServerConfig::default(), count, k).unwrap();
        fleet.command_all(Rpm::new(2700.0));

        let config = ServerConfig::default();
        let mut reference: Vec<Server> = (0..count)
            .map(|i| Server::new(config.clone(), 11 + i as u64).unwrap())
            .collect();
        for server in &mut reference {
            server.command_fan_speed(Rpm::new(2700.0));
        }
        let room = config.ambient;

        let dt = SimDuration::from_secs(1);
        for step in 0..600 {
            let act = if step % 120 < 60 {
                Utilization::FULL
            } else {
                Utilization::IDLE
            };
            fleet.step(dt, act).unwrap();
            // Scalar reference: same inlet model, per-server stepping.
            let total: Watts = reference.iter().map(Server::total_power).sum();
            let inlet = room + TempDelta::new(k * total.value());
            for server in &mut reference {
                server.set_ambient(inlet).unwrap();
                server.step(dt, act).unwrap();
            }
        }
        assert_eq!(fleet.batch_group_count(), 1, "one shared factorization");
        for (i, b) in reference.iter().enumerate() {
            let a = fleet.server(i).unwrap();
            assert_eq!(
                a.max_die_temperature(),
                b.max_die_temperature(),
                "server {i} die temperature"
            );
            assert_eq!(a.total_energy(), b.total_energy(), "server {i} energy");
            // Full ground-truth state (air/sink nodes included) syncs
            // lazily through the accessor.
            for socket in 0..2 {
                assert_eq!(
                    fleet.server(i).unwrap().sink_temperature(socket).unwrap(),
                    b.sink_temperature(socket).unwrap(),
                    "server {i} socket {socket} sink"
                );
                assert_eq!(
                    fleet.server(i).unwrap().air_temperature(socket).unwrap(),
                    b.air_temperature(socket).unwrap(),
                    "server {i} socket {socket} air"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_fleet_batches_within_hash_groups() {
        // A mixed-SKU rack: single-socket and dual-socket servers.
        // Each SKU batches through its own shared factorization and the
        // trajectories stay bit-identical to a scalar loop.
        let one_socket = ServerConfig {
            sockets: 1,
            process_sigma: vec![1.0],
            ..ServerConfig::default()
        };
        let two_socket = ServerConfig::default();
        let configs: Vec<ServerConfig> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    one_socket.clone()
                } else {
                    two_socket.clone()
                }
            })
            .collect();
        let k = 0.001;
        let mut fleet = Fleet::from_configs(&configs, k).unwrap();
        assert_eq!(fleet.hash_group_count(), 2, "two SKUs, two hash groups");
        fleet.command_all(Rpm::new(3000.0));

        let mut reference: Vec<Server> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| Server::new(c.clone(), 31 + i as u64).unwrap())
            .collect();
        for server in &mut reference {
            server.command_fan_speed(Rpm::new(3000.0));
        }
        let room = configs[0].ambient;
        let dt = SimDuration::from_secs(1);
        for _ in 0..400 {
            fleet.step(dt, Utilization::FULL).unwrap();
            let total: Watts = reference.iter().map(Server::total_power).sum();
            let inlet = room + TempDelta::new(k * total.value());
            for server in &mut reference {
                server.set_ambient(inlet).unwrap();
                server.step(dt, Utilization::FULL).unwrap();
            }
        }
        assert_eq!(
            fleet.batch_group_count(),
            2,
            "one shared factorization per SKU"
        );
        for (i, b) in reference.iter().enumerate() {
            let a = fleet.server(i).unwrap();
            assert_eq!(
                a.max_die_temperature(),
                b.max_die_temperature(),
                "server {i} die temperature"
            );
            assert_eq!(a.total_energy(), b.total_energy(), "server {i} energy");
        }
    }

    #[test]
    fn hetero_group_fan_divergence_falls_back_and_recovers() {
        // Regression: a *non-first* hash group whose fans diverge while
        // packed-resident must evict cleanly (sub-slice coordinates),
        // keep stepping bit-identically through the per-lane fallback,
        // and re-pack bit-identically once the fans agree again.
        let one_socket = ServerConfig {
            sockets: 1,
            process_sigma: vec![1.0],
            ..ServerConfig::default()
        };
        let two_socket = ServerConfig::default();
        let configs: Vec<ServerConfig> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    one_socket.clone()
                } else {
                    two_socket.clone()
                }
            })
            .collect();
        let mut fleet = Fleet::from_configs(&configs, 0.0).unwrap();
        assert_eq!(fleet.hash_group_count(), 2);
        fleet.command_all(Rpm::new(3000.0));
        let dt = SimDuration::from_secs(1);
        // Let both groups go packed-resident.
        for _ in 0..120 {
            fleet.step(dt, Utilization::FULL).unwrap();
        }
        // Diverge fans inside the *second* storage group (the 2-socket
        // SKU sits after the 1-socket run): one hot, one cold.
        fleet
            .server_mut(1)
            .unwrap()
            .command_fan_speed(Rpm::new(1800.0));
        fleet
            .server_mut(3)
            .unwrap()
            .command_fan_speed(Rpm::new(4200.0));
        for _ in 0..600 {
            fleet.step(dt, Utilization::FULL).unwrap();
        }
        // Scalar reference run, same seeds and command schedule.
        let mut reference: Vec<Server> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| Server::new(c.clone(), 17 + i as u64).unwrap())
            .collect();
        for server in &mut reference {
            server.command_fan_speed(Rpm::new(3000.0));
        }
        let room = configs[0].ambient;
        for _ in 0..120 {
            for server in &mut reference {
                server.set_ambient(room).unwrap();
                server.step(dt, Utilization::FULL).unwrap();
            }
        }
        reference[1].command_fan_speed(Rpm::new(1800.0));
        reference[3].command_fan_speed(Rpm::new(4200.0));
        for _ in 0..600 {
            for server in &mut reference {
                server.set_ambient(room).unwrap();
                server.step(dt, Utilization::FULL).unwrap();
            }
        }
        let assert_tracks = |fleet: &mut Fleet, reference: &[Server], leg: &str| {
            for (i, b) in reference.iter().enumerate() {
                let a = fleet.server(i).unwrap();
                assert_eq!(
                    a.max_die_temperature(),
                    b.max_die_temperature(),
                    "{leg}: server {i} die temperature"
                );
                assert_eq!(
                    a.total_energy(),
                    b.total_energy(),
                    "{leg}: server {i} energy"
                );
            }
        };
        assert_tracks(&mut fleet, &reference, "diverged");
        let hot = fleet.server(1).unwrap().max_die_temperature();
        let cold = fleet.server(3).unwrap().max_die_temperature();
        assert!(hot.degrees() - cold.degrees() > 10.0, "fans diverged");

        // Bring every fan back to 3000 RPM: the group re-packs once the
        // flows agree, and stays bit-identical to the scalar loop.
        fleet.command_all(Rpm::new(3000.0));
        for server in &mut reference {
            server.command_fan_speed(Rpm::new(3000.0));
        }
        for _ in 0..600 {
            fleet.step(dt, Utilization::FULL).unwrap();
            for server in &mut reference {
                server.set_ambient(room).unwrap();
                server.step(dt, Utilization::FULL).unwrap();
            }
        }
        assert_tracks(&mut fleet, &reference, "re-converged");
        assert!(
            fleet.groups.iter().all(|g| g.lanes.is_some()),
            "both groups packed-resident again"
        );
    }

    #[test]
    fn explicit_integrator_falls_back_to_scalar_path() {
        let config = ServerConfig {
            integrator: Integrator::ExponentialEuler,
            ..ServerConfig::default()
        };
        let mut fleet = Fleet::new(config, 2, 0.0).unwrap();
        for _ in 0..120 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        assert_eq!(fleet.batch_group_count(), 0, "batch engine unused");
        assert_eq!(fleet.hash_group_count(), 0, "no batched groups");
        assert!(fleet.max_die_temperature().degrees() > 25.0);
    }

    #[test]
    fn die_temps_view_reads_packed_blocks_without_eviction() {
        let mut fleet = Fleet::new(ServerConfig::default(), 5, 0.001).unwrap();
        for _ in 0..200 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        // The view (read from packed residency) must agree with the
        // full per-server accessor (which forces a lane sync)…
        let mut view = Vec::new();
        fleet.die_temps_view(&mut view);
        assert_eq!(view.len(), 5);
        for (i, &t) in view.iter().enumerate() {
            assert_eq!(
                t,
                fleet.server(i).unwrap().max_die_temperature(),
                "server {i}"
            );
        }
        // …and reading it must not have perturbed anything.
        let mut again = Vec::new();
        fleet.die_temps_view(&mut again);
        assert_eq!(view, again);
        assert_eq!(
            fleet.max_die_temperature(),
            view.iter()
                .copied()
                .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
        );
    }

    #[test]
    fn degraded_fan_fault_heats_the_faulted_server() {
        let mut fleet = Fleet::new(ServerConfig::default(), 3, 0.0).unwrap();
        fleet.command_all(Rpm::new(3000.0));
        for _ in 0..300 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        fleet
            .inject_fan_fault(1, FanFault::Degraded { flow_scale: 0.3 })
            .unwrap();
        assert_eq!(
            fleet.fan_fault(1),
            Some(FanFault::Degraded { flow_scale: 0.3 })
        );
        assert_eq!(fleet.fan_fault(0), Some(FanFault::None));
        for _ in 0..900 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        let faulted = fleet.server(1).unwrap().max_die_temperature();
        let healthy = fleet.server(0).unwrap().max_die_temperature();
        assert!(
            faulted.degrees() > healthy.degrees() + 5.0,
            "30% airflow must run visibly hotter: {faulted} vs {healthy}"
        );
        // Clearing the fault lets the server cool back toward its
        // neighbours. The excursion tripped the thermal failsafe
        // (fans forced to max, commands dropped while engaged), so
        // keep re-commanding the fleet speed as it cools.
        fleet.inject_fan_fault(1, FanFault::None).unwrap();
        for i in 0..1_500 {
            if i % 100 == 0 {
                fleet.command_all(Rpm::new(3000.0));
            }
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        let recovered = fleet.server(1).unwrap().max_die_temperature();
        let healthy = fleet.server(0).unwrap().max_die_temperature();
        assert!(
            (recovered.degrees() - healthy.degrees()).abs() < 1.0,
            "cleared fault must converge back: {recovered} vs {healthy}"
        );
        // Validation.
        assert!(fleet.inject_fan_fault(9, FanFault::Stuck).is_err());
        assert!(fleet
            .inject_fan_fault(0, FanFault::Degraded { flow_scale: 2.0 })
            .is_err());
        assert_eq!(fleet.fan_fault(9), None);
    }

    #[test]
    fn stuck_fans_ignore_fleet_commands() {
        let mut fleet = Fleet::new(ServerConfig::default(), 2, 0.0).unwrap();
        fleet.command_all(Rpm::new(1800.0));
        for _ in 0..60 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::IDLE)
                .unwrap();
        }
        fleet.inject_fan_fault(0, FanFault::Stuck).unwrap();
        fleet.command_all(Rpm::new(4200.0));
        for _ in 0..60 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::IDLE)
                .unwrap();
        }
        let stuck = fleet.server(0).unwrap().actual_rpm();
        let healthy = fleet.server(1).unwrap().actual_rpm();
        assert_eq!(stuck, Rpm::new(1800.0), "stuck bank holds speed");
        assert_eq!(healthy, Rpm::new(4200.0));
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let fingerprint = |fleet: &mut Fleet| {
            let temps: Vec<u64> = (0..fleet.len())
                .map(|i| {
                    fleet
                        .server(i)
                        .unwrap()
                        .max_die_temperature()
                        .degrees()
                        .to_bits()
                })
                .collect();
            (fleet.total_energy().value().to_bits(), temps)
        };
        let schedule = |step: u64| {
            if step % 60 < 30 {
                Utilization::FULL
            } else {
                Utilization::saturating_from_fraction(0.3)
            }
        };
        let dt = SimDuration::from_secs(1);
        let configs = vec![ServerConfig::default(); 5];

        // Uninterrupted reference.
        let mut reference = Fleet::from_configs(&configs, 0.001).unwrap();
        reference.command_all(Rpm::new(2400.0));
        for step in 0..200 {
            reference.step(dt, schedule(step)).unwrap();
        }
        let want = fingerprint(&mut reference);

        // Checkpoint mid-run, restore into a *fresh* fleet, continue.
        let mut live = Fleet::from_configs(&configs, 0.001).unwrap();
        live.command_all(Rpm::new(2400.0));
        for step in 0..100 {
            live.step(dt, schedule(step)).unwrap();
        }
        let snap = live.checkpoint();
        assert_eq!(snap.len(), 5);
        assert!(!snap.is_empty());
        // Taking the checkpoint must not perturb the live run.
        for step in 100..200 {
            live.step(dt, schedule(step)).unwrap();
        }
        assert_eq!(fingerprint(&mut live), want, "checkpoint perturbed the run");

        let mut restored = Fleet::from_configs(&configs, 0.001).unwrap();
        restored.restore(&snap).unwrap();
        for step in 100..200 {
            restored.step(dt, schedule(step)).unwrap();
        }
        assert_eq!(fingerprint(&mut restored), want, "restored run diverged");

        // Mismatched fleets are rejected.
        let mut small = Fleet::from_configs(&configs[..2], 0.001).unwrap();
        assert!(small.restore(&snap).is_err());
    }

    #[test]
    fn sync_states_exposes_packed_temperatures() {
        let mut fleet = Fleet::new(ServerConfig::default(), 2, 0.0).unwrap();
        for _ in 0..120 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        fleet.sync_states();
        // After an explicit sync the servers' full states are current:
        // air nodes must have warmed above ambient.
        let air = fleet.server(0).unwrap().air_temperature(0).unwrap();
        assert!(air.degrees() > 24.0, "air node stale at {air}");
    }
}
