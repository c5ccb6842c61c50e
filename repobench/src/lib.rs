//! End-to-end and per-layer benchmark of the TATIM/DCTA workspace.
//!
//! Three workloads drive the library from outside through its public API
//! (see `README.md` for why each exists and which layer metric should move
//! which end-to-end metric). An untraced run reports the end-to-end
//! metrics; a traced run records a span around every call into a layer and
//! reports per-layer metrics. Both check every output they produce.

pub mod affinity;
pub mod check;
pub mod fleet_resolve;
pub mod mesh_round;
pub mod paper_serve;
pub mod report;
pub mod stats;
pub mod trace;
pub mod world;

use report::{Metrics, Outcome};
use std::error::Error;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions before the measured phase (`setup_s` is a median).
pub const SETUPS: usize = 3;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper-serve", "mesh-round", "fleet-resolve"];

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ms", "ms"),
    ("served_importance", "importance"),
    ("round_s", "s"),
    ("mesh_importance_per_s", "importance/sim-s"),
    ("solve_ms", "ms"),
    ("solve_gap", "fraction"),
    ("solve_importance", "importance"),
];

/// Per-layer metrics every traced run reports, with units. A `ms` metric
/// the workload does not set itself is the median duration of the spans
/// named like it without `_ms` (0 when the workload never calls that layer).
pub const PER_LAYER: [(&str, &str); 48] = [
    ("buildings.generate_ms", "ms"),
    ("learn.cop_train_ms", "ms"),
    ("importance.matrix_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.into_core_ms", "ms"),
    ("rl.warm_ms", "ms"),
    ("rl.agents_trained", "count"),
    ("importance.cache_hits", "count"),
    ("importance.cache_misses", "count"),
    ("importance.cache_hit_rate", "fraction"),
    ("core.allocate_ms.dcta", "ms"),
    ("core.allocate_ms.crl", "ms"),
    ("core.allocate_ms.dml", "ms"),
    ("core.allocate_ms.exact", "ms"),
    ("core.execute_ms", "ms"),
    ("core.run_faulted_ms.proactive", "ms"),
    ("core.run_faulted_ms.resolve", "ms"),
    ("rl.qvalues_ms", "ms"),
    ("rl.batch_mean", "states/batch"),
    ("rl.deadline_flush_frac", "fraction"),
    ("edgesim.star_sim_ms", "ms"),
    ("edgesim.fault_sim_ms", "ms"),
    ("recovery.replan_ms", "ms"),
    ("recovery.replan_proactive_ms", "ms"),
    ("serve.handle_ms.run_dcta", "ms"),
    ("serve.handle_ms.run_exact", "ms"),
    ("serve.handle_ms.run_faulted", "ms"),
    ("serve.handle_ms.decision", "ms"),
    ("serve.handle_ms.qvalues", "ms"),
    ("serve.open_loop_p99_ms", "ms"),
    ("serve.closed_loop_req_per_s", "req/s"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.backlog_end", "count"),
    ("gen.lag_ms.p50", "ms"),
    ("gen.lag_ms.p99", "ms"),
    ("edgesim.mesh_build_ms", "ms"),
    ("edgesim.route_costs_ms", "ms"),
    ("objective.deflate_ms", "ms"),
    ("edgesim.mesh_sim_ms", "ms"),
    ("edgesim.mesh_tasks_per_s", "tasks/s"),
    ("tatim.greedy_ms", "ms"),
    ("tatim.portfolio_ms", "ms"),
    ("tatim.nodes", "count"),
    ("tatim.proved_frac", "fraction"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Shrink every input to smoke-test size.
    pub smoke: bool,
}

/// Runs `setup` `n` times (at least once), checks that every repetition
/// builds what the first built, and returns the first result with each
/// duration in seconds.
///
/// # Errors
///
/// The first set-up error.
pub fn repeat_setup<T: PartialEq>(
    n: usize,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, Box<dyn Error>>,
) -> Result<(T, Vec<f64>), Box<dyn Error>> {
    let t0 = Instant::now();
    let first = setup()?;
    let mut times = vec![t0.elapsed().as_secs_f64()];
    for _ in 1..n {
        resample_setup(&first, &mut times, out, &mut setup)?;
    }
    Ok((first, times))
}

/// One more set-up repetition between measured operations, checked to
/// rebuild `reference`. A set-up of a few milliseconds run back to back
/// takes the host's speed of one instant; spread over the run, its median
/// sees the same host as the other metrics.
///
/// # Errors
///
/// The set-up's error.
pub fn resample_setup<T: PartialEq>(
    reference: &T,
    setup_s: &mut Vec<f64>,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, Box<dyn Error>>,
) -> Result<(), Box<dyn Error>> {
    let t0 = Instant::now();
    let built = setup()?;
    setup_s.push(t0.elapsed().as_secs_f64());
    if built != *reference {
        out.fail("set-up is not deterministic: a repetition built different inputs");
    }
    Ok(())
}

/// Runs one workload and assembles its outcome. Errors from the library
/// become failed checks: the run still reports, with `correct: false`.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    out.prov("workload", &p.workload);
    out.prov("seed", p.seed);
    out.prov("seconds", p.seconds);
    out.prov("traced", p.trace);
    out.prov("nproc", nproc);
    out.prov("commit", report::commit());
    out.prov("smoke", p.smoke);
    let mut tr = Tracer::new(p.trace);
    let wall = Instant::now();
    let result = match p.workload.as_str() {
        "paper-serve" => paper_serve::run(p, &mut tr, &mut out),
        "mesh-round" => mesh_round::run(p, &mut tr, &mut out),
        "fleet-resolve" => fleet_resolve::run(p, &mut tr, &mut out),
        other => Err(format!("unknown workload {other:?}").into()),
    };
    let wall_s = wall.elapsed().as_secs_f64();
    if let Err(e) = result {
        out.fail(format!("run aborted: {e}"));
    }
    tatim::parallel::set_max_threads(0);

    let rss = out.peak_rss_mb.or_else(report::peak_rss_mb).unwrap_or(f64::NAN);
    out.end_to_end.put("peak_rss_mb", rss, "MB");
    let deterministic = out.deterministic.clone();
    for m in deterministic.0 {
        if END_TO_END.iter().any(|(n, _)| *n == m.name) {
            out.end_to_end.0.push(m);
        } else {
            out.per_layer.0.push(m);
        }
    }
    if p.trace {
        let spans = tr.spans().len();
        let cost = Tracer::cost_per_span_ms(100_000);
        out.per_layer.put("trace.spans", spans as f64, "count");
        out.per_layer.put("trace.overhead_pct", 100.0 * cost * spans as f64 / (wall_s * 1e3), "%");
        for (name, unit) in PER_LAYER {
            if out.per_layer.get(name).is_none() {
                let value =
                    if unit == "ms" { tr.median_ms(&name.replacen("_ms", "", 1)) } else { 0.0 };
                out.per_layer.put(name, value, unit);
            }
        }
    }
    write_records(p, &tr, &mut out);
    out
}

/// Writes the trace and the deterministic-metric record under
/// `.bench_out/`, and checks the record against earlier runs.
fn write_records(p: &Params, tr: &Tracer, out: &mut Outcome) {
    let dir = report::out_dir();
    let key =
        format!("{}-{}-{}s{}", p.workload, p.seed, p.seconds, if p.smoke { "-smoke" } else { "" });
    let build = report::build_id();
    if let Err(e) = report::check_repeat(&dir, &format!("{key}-{build}"), &out.deterministic) {
        out.fail(e);
    }
    if p.trace {
        let layers = tr.layer_times();
        let mut text = format!("{{\"provenance\": {}}}\n", report::fields_json(&out.provenance));
        for (name, t) in &layers {
            text.push_str(&format!(
                "{{\"layer\":\"{name}\",\"calls\":{},\"total_ms\":{},\"self_ms\":{},\"p50_ms\":{}}}\n",
                t.calls,
                report::num(t.total_ms),
                report::num(t.self_ms),
                report::num(t.p50_ms)
            ));
        }
        text.push_str(&tr.spans_json());
        for (name, t) in layers {
            out.notes.put(format!("self_ms.{name}"), t.self_ms, "ms");
        }
        let path = dir.join(format!("trace-{key}.jsonl"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text)) {
            out.fail(format!("could not write {}: {e}", path.display()));
        }
    }
}

/// Keeps only the metrics named in `table`, in its order.
pub fn select(metrics: &Metrics, table: &[(&str, &'static str)]) -> Metrics {
    let mut picked = Metrics::default();
    for (name, unit) in table {
        let value = metrics.get(name).unwrap_or(f64::NAN);
        picked.put(*name, value, unit);
    }
    picked
}
