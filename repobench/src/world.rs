//! Seeded mesh worlds shared by `mesh-round` and `fleet-resolve`: a
//! `Cluster::mesh_testbed`, its raw and route-deflated fleets, and a
//! synthetic task set.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use tatim::core::objective::deflated_fleet;
use tatim::core::processor::ProcessorFleet;
use tatim::core::task::{EdgeTask, TaskId};
use tatim::edgesim::cluster::{Cluster, MeshSpec};
use tatim::edgesim::run::SimTask;

/// Seed of the mesh topology, the task sizes and the initial importances.
/// It is fixed, so that every workload seed measures the same world: it is
/// the reproduction's default seed (`0xDC7A`) mixed as its mesh-allocation
/// study mixes it. The workload seed draws the importance drift.
pub const WORLD_SEED: u64 = 0xDC7A ^ 0xA110C;

/// Share of the per-worker reference workload each processor may take
/// (the pipeline's default `time_limit_fraction`).
pub const TIME_LIMIT_FRACTION: f64 = 0.5;

/// One seeded mesh world.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshWorld {
    /// The simulated cluster.
    pub cluster: Cluster,
    /// Raw fleet (processor columns → cluster nodes).
    pub fleet: ProcessorFleet,
    /// The fleet with route-deflated time limits.
    pub deflated: ProcessorFleet,
    /// Tasks, importance included.
    pub tasks: Vec<EdgeTask>,
    /// The same tasks as the simulator sees them.
    pub sim_tasks: Vec<SimTask>,
}

impl MeshWorld {
    /// Builds the world from [`WORLD_SEED`]: `nodes` mesh nodes and
    /// `tasks_per_worker` tasks per worker with input sizes in 0.2–4 Mbit
    /// and uniform importances.
    /// Spans: `edgesim.mesh_build`, `edgesim.route_costs` (traced runs
    /// only: `deflated_fleet` queries the route costs itself) and
    /// `objective.deflate`.
    ///
    /// # Errors
    ///
    /// Propagates cluster, task and fleet construction failures.
    pub fn build(
        tr: &mut Tracer,
        nodes: usize,
        tasks_per_worker: usize,
    ) -> Result<Self, Box<dyn Error>> {
        let cluster = tr.span("edgesim.mesh_build", 0, |_| {
            Cluster::mesh_testbed(MeshSpec::new(nodes, WORLD_SEED))
        })?;
        let n = tasks_per_worker * cluster.num_workers();
        let mut rng = StdRng::seed_from_u64(WORLD_SEED ^ 0x7A5C);
        let mut tasks = Vec::with_capacity(n);
        let mut sim_tasks = Vec::with_capacity(n);
        for i in 0..n {
            let bits = rng.gen_range(2e5..4e6);
            let importance = rng.gen_range(0.0..1.0);
            tasks.push(EdgeTask::new(TaskId(i), format!("t{i}"), bits, 1.0, importance)?);
            sim_tasks.push(SimTask::new(bits, bits * 0.01, 1.0)?);
        }
        let total: f64 = tasks.iter().map(EdgeTask::reference_time_s).sum();
        let limit = TIME_LIMIT_FRACTION * total / cluster.num_workers() as f64;
        let fleet = ProcessorFleet::from_cluster(&cluster, limit)?;
        if tr.enabled() {
            tr.span("edgesim.route_costs", 0, |_| cluster.route_costs());
        }
        let deflated = tr.span("objective.deflate", 0, |_| deflated_fleet(&cluster, &fleet))?;
        Ok(Self { cluster, fleet, deflated, tasks, sim_tasks })
    }

    /// The tasks' importances.
    pub fn importances(&self) -> Vec<f64> {
        self.tasks.iter().map(EdgeTask::importance).collect()
    }
}

/// One drift step: every importance moves by a uniform relative step of at
/// most `step` and stays in `[0, 1]`.
pub fn drift(importances: &mut [f64], step: f64, rng: &mut StdRng) {
    for x in importances.iter_mut() {
        let r: f64 = rng.gen_range(-1.0..1.0);
        *x = (*x * (1.0 + step * r)).clamp(0.0, 1.0);
    }
}
