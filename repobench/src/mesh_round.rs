//! `mesh-round`: a seeded 1000-node mesh world, about 4 tasks per worker,
//! importances drifting each round; every round prices the instance,
//! solves route-aware greedy over the deflated fleet and replays the
//! allocation through the mesh fluid simulator.

use crate::check::{self, Contract};
use crate::report::{self, Ops, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::world::{self, MeshWorld};
use crate::{repeat_setup, resample_setup, Params, SETUPS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::time::Instant;
use tatim::core::tatim::{SolverKind, TatimInstance};
use tatim::edgesim::run::{simulate, SimConfig};
use tatim::knapsack::bounds::surrogate_bound;

/// Sizes of one `mesh-round` run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sizes {
    /// Mesh nodes, controller included.
    nodes: usize,
    /// Tasks per worker.
    tasks_per_worker: usize,
    /// Relative importance drift per round.
    drift: f64,
    /// Rounds the deterministic metrics average over (always run).
    scored_rounds: usize,
}

impl Sizes {
    /// The benchmark's sizes, or small ones for smoke tests.
    fn for_params(p: &Params) -> Self {
        if p.smoke {
            Self { nodes: 60, tasks_per_worker: 4, drift: 0.1, scored_rounds: 3 }
        } else {
            Self { nodes: 1000, tasks_per_worker: 4, drift: 0.1, scored_rounds: 6 }
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// World construction, solver or simulator errors (a failed run).
pub fn run(p: &Params, tr: &mut Tracer, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let sizes = Sizes::for_params(p);
    // The whole run keeps the `parallel` layer at one thread: the mesh
    // engine is serial, and extra threads only add allocator noise.
    tatim::parallel::set_max_threads(1);
    out.prov("parallel_thread_cap_setup", 1);
    out.prov("parallel_thread_cap_timed", 1);
    let (world, mut setup_s) =
        repeat_setup(SETUPS, out, || MeshWorld::build(tr, sizes.nodes, sizes.tasks_per_worker))?;
    out.prov("mesh_nodes", sizes.nodes);
    out.prov("workers", world.cluster.num_workers());
    out.prov("tasks", world.tasks.len());
    out.prov("drift_per_round", sizes.drift);

    let base = TatimInstance::new(world.tasks.clone(), world.deflated.clone());
    let mut importances = world.importances();
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0xD41F7);
    let mut round_ms = Vec::new();
    let mut solve_ms = Vec::new();
    let mut sim_ms = Vec::new();
    let (mut simulated_tasks, mut captured, mut per_sim_s, mut gaps) =
        (0usize, vec![], vec![], vec![]);
    let mut ops = Ops::default();
    let started = Instant::now();
    let mut round = 0usize;
    while round < sizes.scored_rounds || started.elapsed().as_secs_f64() < p.seconds {
        world::drift(&mut importances, sizes.drift, &mut rng);
        let op = round as u64;
        let t0 = Instant::now();
        let (inst, solved, sim, t_solve, t_sim) = tr.span("mesh.round", op, |tr| {
            let inst = base.with_importances(&importances);
            let ts = Instant::now();
            let solved = tr.span("tatim.greedy", op, |_| inst.solve(&SolverKind::Greedy));
            let t_solve = ts.elapsed().as_secs_f64() * 1e3;
            let solved = solved?;
            let assignment = solved.allocation.to_node_assignment(&world.fleet);
            let ts = Instant::now();
            let sim = tr.span("edgesim.mesh_sim", op, |_| {
                simulate(&world.cluster, &world.sim_tasks, &assignment, SimConfig::default())
            });
            let t_sim = ts.elapsed().as_secs_f64() * 1e3;
            Ok::<_, Box<dyn Error>>((inst, solved, sim?, t_solve, t_sim))
        })?;
        round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        solve_ms.push(t_solve);
        sim_ms.push(t_sim);

        // Checks, outside the timed span.
        let mut ok = out
            .expect_ok(
                "mesh-round allocation",
                check::check_allocation(
                    &solved.allocation,
                    inst.tasks(),
                    &world.deflated,
                    Contract::Tatim,
                ),
            )
            .is_some();
        let got = check::captured(&solved.allocation, &importances);
        if (got - solved.objective).abs() > 1e-9 * got.max(1.0) {
            out.fail(format!(
                "round {round}: solver objective {} != captured importance {got}",
                solved.objective
            ));
            ok = false;
        }
        let scheduled = solved.allocation.scheduled_count();
        let timelines = sim.timelines.iter().filter(|t| t.is_some()).count();
        if timelines != scheduled || !(sim.processing_time.is_finite() && sim.processing_time > 0.0)
        {
            out.fail(format!(
                "round {round}: simulator delivered {timelines} of {scheduled} tasks in {}s",
                sim.processing_time
            ));
            ok = false;
        }
        ops.record(ok);
        simulated_tasks += scheduled;
        if round < sizes.scored_rounds {
            captured.push(got);
            per_sim_s.push(got / sim.processing_time);
            let bound = surrogate_bound(&inst.to_knapsack()?);
            gaps.push((bound - got).max(0.0) / bound.max(1e-12));
        }
        // Memory is read once the scored rounds are done: later rounds
        // repeat the same work, and what they add to the high-water mark is
        // heap fragmentation that varies with how many rounds fit the run.
        // Set-up repetitions fill the rounds after that.
        if round + 1 == sizes.scored_rounds {
            out.peak_rss_mb = report::peak_rss_mb();
        } else if round >= sizes.scored_rounds {
            resample_setup(&world, &mut setup_s, out, || {
                MeshWorld::build(tr, sizes.nodes, sizes.tasks_per_worker)
            })?;
        }
        round += 1;
    }
    out.phases.push(("rounds", ops));
    out.prov("rounds", round);

    let e = &mut out.end_to_end;
    e.put("setup_s", stats::median(&setup_s), "s");
    e.put("req_p50_ms", stats::median(&round_ms), "ms");
    e.put("round_s", stats::median(&round_ms) / 1e3, "s");
    e.put("solve_ms", stats::median(&solve_ms), "ms");
    let n = &mut out.notes;
    n.put("rounds.p99_ms", stats::percentile(&round_ms, 99.0), "ms");
    n.put("rounds.per_s", round_ms.len() as f64 / (round_ms.iter().sum::<f64>() / 1e3), "1/s");
    let d = &mut out.deterministic;
    d.put("served_importance", stats::mean(&captured), "importance");
    d.put("solve_importance", stats::mean(&captured), "importance");
    d.put("mesh_importance_per_s", stats::mean(&per_sim_s), "importance/sim-s");
    d.put("solve_gap", stats::mean(&gaps), "fraction");

    out.per_layer.put(
        "edgesim.mesh_tasks_per_s",
        simulated_tasks as f64 / (sim_ms.iter().sum::<f64>() / 1e3),
        "tasks/s",
    );
    Ok(())
}
