//! `fleet-resolve`: the route-deflated fleet of a seeded 300-node mesh
//! world with about 2 tasks per worker, re-solved day after day with the
//! anytime portfolio while importances drift by a few percent.

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
use tatim::knapsack::portfolio::SolveBudget;

/// Sizes of one `fleet-resolve` run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sizes {
    /// Mesh nodes, controller included.
    nodes: usize,
    /// Tasks per worker.
    tasks_per_worker: usize,
    /// Relative importance drift per day.
    drift: f64,
    /// Days the deterministic metrics average over (always run).
    scored_days: usize,
}

impl Sizes {
    /// The benchmark's sizes, or small ones for smoke tests.
    fn for_params(p: &Params) -> Self {
        if p.smoke {
            Self { nodes: 40, tasks_per_worker: 2, drift: 0.03, scored_days: 3 }
        } else {
            Self { nodes: 300, tasks_per_worker: 2, drift: 0.03, scored_days: 6 }
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// World construction or solver errors (a failed run).
pub fn run(p: &Params, tr: &mut Tracer, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let sizes = Sizes::for_params(p);
    // The portfolio's parallel branch-and-bound is part of what this
    // workload measures: the `parallel` layer keeps one thread per core.
    out.prov("parallel_thread_cap_setup", "nproc");
    out.prov("parallel_thread_cap_timed", "nproc");
    let setup = |tr: &mut Tracer| -> Result<TatimInstance, Box<dyn Error>> {
        let world = MeshWorld::build(tr, sizes.nodes, sizes.tasks_per_worker)?;
        Ok(TatimInstance::new(world.tasks, world.deflated))
    };
    let (instance, mut setup_s) = repeat_setup(SETUPS, out, || setup(tr))?;
    out.prov("mesh_nodes", sizes.nodes);
    out.prov("processors", instance.fleet().len());
    out.prov("tasks", instance.num_tasks());
    out.prov("drift_per_day", sizes.drift);

    let kind = SolverKind::Portfolio(SolveBudget::Anytime);
    let mut importances: Vec<f64> = instance.tasks().iter().map(|t| t.importance()).collect();
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0xDA7);
    let mut solve_ms = Vec::new();
    let (mut objectives, mut gaps, mut per_model_s, mut nodes, mut proved) =
        (vec![], vec![], vec![], vec![], 0usize);
    let mut ops = Ops::default();
    let started = Instant::now();
    let mut day = 0usize;
    while day < sizes.scored_days || started.elapsed().as_secs_f64() < p.seconds {
        world::drift(&mut importances, sizes.drift, &mut rng);
        let op = day as u64;
        let t0 = Instant::now();
        let (priced, solved) = tr.span("fleet.day", op, |tr| {
            let priced = instance.with_importances(&importances);
            let solved = tr.span("tatim.portfolio", op, |_| priced.solve(&kind));
            (priced, solved)
        });
        solve_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let solved = solved?;

        let mut ok = out
            .expect_ok(
                "fleet-resolve allocation",
                check::check_allocation(
                    &solved.allocation,
                    priced.tasks(),
                    priced.fleet(),
                    Contract::Tatim,
                ),
            )
            .is_some();
        let got = check::captured(&solved.allocation, &importances);
        let cert = solved.certificate;
        match cert {
            Some(c)
                if (got - solved.objective).abs() <= 1e-9 * got.max(1.0)
                    && c.upper_bound >= got * (1.0 - 1e-9)
                    && c.gap >= 0.0
                    && (!c.proved_optimal || c.gap == 0.0) => {}
            _ => {
                out.fail(format!(
                    "day {day}: objective {} (captured {got}) inconsistent with certificate {cert:?}",
                    solved.objective
                ));
                ok = false;
            }
        }
        ops.record(ok);
        if let (Some(c), true) = (cert, day < sizes.scored_days) {
            objectives.push(got);
            gaps.push(c.gap);
            nodes.push(c.nodes as f64);
            proved += usize::from(c.proved_optimal);
            let makespan =
                check::model_makespan(&solved.allocation, priced.tasks(), priced.fleet().len());
            per_model_s.push(got / makespan.max(1e-12));
        }
        // As in `mesh-round`: memory after the scored days, set-up
        // repetitions between the days after them.
        if day + 1 == sizes.scored_days {
            out.peak_rss_mb = report::peak_rss_mb();
        } else if day >= sizes.scored_days {
            resample_setup(&instance, &mut setup_s, out, || setup(tr))?;
        }
        day += 1;
    }
    out.phases.push(("solves", ops));
    out.prov("days", day);

    let e = &mut out.end_to_end;
    e.put("setup_s", stats::median(&setup_s), "s");
    e.put("req_p50_ms", stats::median(&solve_ms), "ms");
    e.put("round_s", stats::median(&solve_ms) / 1e3, "s");
    e.put("solve_ms", stats::median(&solve_ms), "ms");
    let n = &mut out.notes;
    n.put("solves.p99_ms", stats::percentile(&solve_ms, 99.0), "ms");
    n.put("solves.per_s", solve_ms.len() as f64 / (solve_ms.iter().sum::<f64>() / 1e3), "1/s");
    let d = &mut out.deterministic;
    d.put("served_importance", stats::mean(&objectives), "importance");
    d.put("solve_importance", stats::mean(&objectives), "importance");
    d.put("mesh_importance_per_s", stats::mean(&per_model_s), "importance/sim-s");
    d.put("solve_gap", stats::mean(&gaps), "fraction");
    d.put("tatim.nodes", stats::mean(&nodes), "count");

    out.per_layer.put("tatim.proved_frac", proved as f64 / sizes.scored_days as f64, "fraction");
    Ok(())
}
