//! Rack-scale batching report: servers-stepped/sec through the
//! shared-factorization [`BatchSolver`](leakctl_thermal::BatchSolver)
//! versus independent full `Server::step` calls, merged into the
//! `BENCH_perf.json` perf artifact (appending to an existing report
//! from `repro-perf`, or writing a fresh one).
//!
//! Four measurements at the default 128-server rack size:
//!
//! - `rack128_server_loop` — 128 independent `Server::step` calls per
//!   simulated second: the full scalar machine including telemetry,
//!   power models and the per-server cached thermal solve.
//! - `rack128_batch_thermal` — the same 128 server-topology thermal
//!   networks advanced through one shared `(dt, flow)` factorization
//!   with a blocked multi-RHS substitution over packed slot-major
//!   states, inputs held constant (the counterpart of
//!   `server_step_1s_constant`). This is the batch stepping engine the
//!   `Fleet` integrates through.
//! - `rack128_batch_dynamic` — the same, with every lane's die powers
//!   perturbed every step (as leakage feedback does in a live fleet),
//!   so per-lane source refresh is part of the measurement.
//! - `rack128_fleet_step` — the full `Fleet::step` (batched thermal
//!   solve *plus* per-server fan, failsafe and power dynamics on
//!   headless `ServerCore`s; a fleet keeps no telemetry), for context
//!   on end-to-end rack throughput.
//!
//! Every measurement runs on one thread: a rack steps as one packed
//! block, and the simulator parallelizes only across racks and rooms.
//!
//! The headline `batch_speedup_x` extra on `rack128_batch_thermal` is
//! its ratio to `rack128_server_loop` in servers-stepped/sec;
//! `rack128_batch_dynamic` carries its own ratio (also exported as
//! `dynamic_speedup_x`).
//!
//! ```text
//! cargo run --release -p leakctl-bench --bin repro-rack [-- --quick] [--out PATH]
//! ```

use std::time::Instant;

use leakctl::fleet::Fleet;
use leakctl::prelude::*;
use leakctl_bench::perf::{best_of, merge_into_json, render_json, PerfResult};
use leakctl_bench::RackKernel;

/// Rack size for the headline measurements.
const RACK: usize = 128;

/// Full scalar baseline: `RACK` independent servers, each stepped
/// through `Server::step`.
fn bench_server_loop(steps: u64) -> PerfResult {
    let mut servers: Vec<Server> = (0..RACK)
        .map(|i| Server::new(ServerConfig::default(), i as u64).expect("server builds"))
        .collect();
    // Warm up: let fans settle so flows stop changing step-to-step.
    for server in &mut servers {
        for _ in 0..120 {
            server
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .expect("warmup step succeeds");
        }
    }
    let start = Instant::now();
    for _ in 0..steps {
        for server in &mut servers {
            server
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .expect("step succeeds");
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let max_t = servers
        .iter()
        .map(|s| s.max_die_temperature().degrees())
        .fold(f64::NEG_INFINITY, f64::max);
    PerfResult {
        name: "rack128_server_loop",
        steps: steps * RACK as u64,
        wall_s,
        extra: vec![("max_die_temp_c", format!("{max_t:.6}"))],
    }
}

/// Batched thermal stepping: `RACK` identical server-topology networks
/// through one shared factorization (constant inputs).
fn bench_batch_thermal(steps: u64) -> PerfResult {
    let mut kernel = RackKernel::new(RACK);
    // Warm-up step so the shared factorization and lane caches exist.
    kernel.step_batched(1);
    let start = Instant::now();
    kernel.step_batched(steps);
    let wall_s = start.elapsed().as_secs_f64();
    PerfResult {
        name: "rack128_batch_thermal",
        steps: steps * RACK as u64,
        wall_s,
        extra: vec![(
            "max_temp_c",
            format!("{:.6}", kernel.max_temperature().degrees()),
        )],
    }
}

/// Batched thermal stepping with per-step per-lane power updates.
fn bench_batch_dynamic(steps: u64) -> PerfResult {
    let mut kernel = RackKernel::new(RACK);
    kernel.step_batched_dynamic(1);
    let start = Instant::now();
    kernel.step_batched_dynamic(steps);
    let wall_s = start.elapsed().as_secs_f64();
    PerfResult {
        name: "rack128_batch_dynamic",
        steps: steps * RACK as u64,
        wall_s,
        extra: vec![(
            "max_temp_c",
            format!("{:.6}", kernel.max_temperature().degrees()),
        )],
    }
}

/// End-to-end `Fleet::step` (batched thermal solve + per-server
/// dynamics on headless cores) at rack scale.
fn bench_fleet_step(steps: u64) -> PerfResult {
    let mut fleet = Fleet::new(ServerConfig::default(), RACK, 0.0002).expect("fleet builds");
    for _ in 0..120 {
        fleet
            .step(SimDuration::from_secs(1), Utilization::FULL)
            .expect("warmup step succeeds");
    }
    let start = Instant::now();
    for _ in 0..steps {
        fleet
            .step(SimDuration::from_secs(1), Utilization::FULL)
            .expect("step succeeds");
    }
    let wall_s = start.elapsed().as_secs_f64();
    PerfResult {
        name: "rack128_fleet_step",
        steps: steps * RACK as u64,
        wall_s,
        extra: vec![
            (
                "max_die_temp_c",
                format!("{:.6}", fleet.max_die_temperature().degrees()),
            ),
            (
                "inlet_temp_c",
                format!("{:.6}", fleet.inlet_temperature().degrees()),
            ),
        ],
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_owned());

    println!("== leakctl rack-scale batching report ({RACK} servers) ==");
    let steps = if quick { 300 } else { 2_000 };
    let reps = if quick { 2 } else { 3 };
    // The batch kernels are fast enough that short runs sit inside
    // shared-runner timer noise; give them 20× the steps so the timed
    // region is tens of milliseconds and the CI regression gate stays
    // meaningful.
    let scalar = best_of(reps, || bench_server_loop(steps));
    let mut batched = best_of(reps, || bench_batch_thermal(steps * 20));
    let mut dynamic = best_of(reps, || bench_batch_dynamic(steps * 20));
    let fleet = best_of(reps, || bench_fleet_step(steps));

    let speedup = batched.steps_per_sec() / scalar.steps_per_sec();
    batched
        .extra
        .push(("batch_speedup_x", format!("{speedup:.2}")));
    let dyn_speedup = dynamic.steps_per_sec() / scalar.steps_per_sec();
    dynamic
        .extra
        .push(("batch_speedup_x", format!("{dyn_speedup:.2}")));
    dynamic
        .extra
        .push(("dynamic_speedup_x", format!("{dyn_speedup:.2}")));

    let results = vec![scalar, batched, dynamic, fleet];
    for r in &results {
        println!(
            "{:<24} {:>10} server-steps in {:>8.3} s -> {:>12.0} servers-stepped/s",
            r.name,
            r.steps,
            r.wall_s,
            r.steps_per_sec()
        );
        for (k, v) in &r.extra {
            println!("    {k} = {v}");
        }
    }
    println!("\nbatch vs independent Server::step: {speedup:.1}x");
    println!("dynamic-input batch vs Server::step: {dyn_speedup:.1}x");

    let json = match std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|existing| merge_into_json(&existing, &results, quick))
    {
        Some(merged) => merged,
        None => render_json(&results, quick),
    };
    std::fs::write(&out_path, &json).expect("perf JSON written");
    println!("wrote {out_path}");
}
