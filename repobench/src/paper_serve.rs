//! `paper-serve`: the paper's 9-worker star testbed and 50-task chiller
//! scenario, frozen into one tenant of an `AllocatorService` and served
//! through a `ServicePool`.
//!
//! After set-up, every distinct request is answered solo on the calling
//! thread (the reference answers and the solo `handle` times). A one-worker
//! pool then serves a seeded request list in an open loop at a fixed rate,
//! and a pool of one worker per core the same list in a closed loop with
//! one client per core. Every pool answer must equal its solo reference
//! bit for bit, except the wall-clock fields. A traced run also replays the
//! open-loop list through the layer functions on the calling thread, one
//! span per call.

use crate::affinity;
use crate::check::{self, Contract};
use crate::report::{Ops, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::{repeat_setup, Params, SETUPS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::error::Error;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tatim::buildings::scenario::{Scenario, ScenarioConfig};
use tatim::core::availability::proactive_draw_seed;
use tatim::core::importance::{CopModels, ImportanceEvaluator};
use tatim::core::objective::AllocQuery;
use tatim::core::pipeline::{Method, Pipeline, PipelineConfig, RunReport, RunSpec};
use tatim::core::recovery::{self, RecoveryMode};
use tatim::core::shared::PreparedCore;
use tatim::edgesim::cluster::Cluster;
use tatim::edgesim::faults::FaultSchedule;
use tatim::edgesim::node::NodeId;
use tatim::edgesim::run::{simulate, simulate_with_faults, RetryPolicy, SimTask};
use tatim::rl::alloc_env::{AllocEnv, AllocSpec};
use tatim::rl::crl::CrlConfig;
use tatim::rl::dqn::DqnConfig;
use tatim::rl::mdp::Environment;
use tatim::serve::pool::ServicePool;
use tatim::serve::{AllocRequest, AllocResponse, AllocatorService, Query};

/// Tenant name the benchmark registers.
const TENANT: &str = "paper";

/// Seed of the scenario and pipeline: the reproduction's default seed, so
/// every workload seed serves the canonical paper scenario. The workload
/// seed draws the request list and the crash schedules.
const SCENARIO_SEED: u64 = 0xDC7A;

/// Open-loop arrival rate, requests per second: about a fifth of what the
/// open loop's one worker can serve (0.5 ms a request on average on a
/// 2-vCPU host), so that requests rarely wait for one another and the
/// latency follows the handling time, not a queue's non-linear growth.
const OPEN_LOOP_RATE: f64 = 400.0;

/// How long before each due time the open-loop caller stops sleeping and
/// spins: longer than an idle CPU takes to wake.
const SPIN: Duration = Duration::from_millis(1);

/// Share of each segment spent in the open loop; the closed loop gets
/// what the solo timings leave.
const OPEN_SHARE: f64 = 0.7;

/// Requests each closed-loop client keeps outstanding. With one, the pool's
/// workers idled through every hand-off between threads, and the measured
/// rate halved whenever the host was slow to wake a virtual CPU.
const CLIENT_WINDOW: usize = 2;

/// Solo answers per distinct request (the references must all agree).
const SOLO_REPEATS: usize = 3;

/// Segments the measured phase is split into.
const SEGMENTS: usize = 8;

/// Share of each segment spent on solo timings (`round_s`, `solve_ms`).
const SOLO_SHARE: f64 = 0.1;

/// Per-worker crash probability of a faulted request's schedule.
const CRASH_RATE: f64 = 0.3;

/// Crash schedules per evaluation day; each runs under both recovery modes.
const SCHEDULES_PER_DAY: usize = 2;

/// Request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A healthy DCTA day run.
    RunDcta,
    /// A healthy ExactOracle day run (small exact solve).
    RunExact,
    /// A DCTA run under a seeded crash schedule.
    RunFaulted(RecoveryMode),
    /// A bare DML allocation decision.
    Decision,
    /// Q-values of the day's CRL context, through the batcher.
    QValues,
}

impl Kind {
    /// Label used in metric and span names.
    fn label(self) -> &'static str {
        match self {
            Kind::RunDcta => "run_dcta",
            Kind::RunExact => "run_exact",
            Kind::RunFaulted(_) => "run_faulted",
            Kind::Decision => "decision",
            Kind::QValues => "qvalues",
        }
    }
}

/// Catalogue slots per day: DCTA run, DML decision, Q-values, exact run,
/// then the faulted runs (schedules × {proactive, resolve}).
const SLOTS: usize = 4 + 2 * SCHEDULES_PER_DAY;

/// One distinct request with its solo reference answer.
#[derive(Debug)]
struct Entry {
    /// Request kind.
    kind: Kind,
    /// Evaluation day.
    day: usize,
    /// The request.
    request: AllocRequest,
    /// Solo answer (set by the solo pass).
    reference: Option<AllocResponse>,
    /// Solo `handle` times, ms.
    solo_ms: Vec<f64>,
}

/// The served tenant after set-up.
#[derive(Debug)]
struct ServeWorld {
    service: Arc<AllocatorService>,
    cluster: Cluster,
    days: Vec<usize>,
    agents: usize,
    /// True importances per evaluation day: what set-up repetitions must agree on.
    fingerprint: Vec<Vec<f64>>,
}

impl PartialEq for ServeWorld {
    fn eq(&self, other: &Self) -> bool {
        self.cluster == other.cluster
            && self.days == other.days
            && self.fingerprint == other.fingerprint
    }
}

fn scenario_config(p: &Params) -> ScenarioConfig {
    let base = ScenarioConfig { seed: SCENARIO_SEED, ..ScenarioConfig::default() };
    if p.smoke {
        ScenarioConfig {
            num_buildings: 2,
            chillers_per_building: 2,
            bands_per_chiller: 4,
            num_tasks: 10,
            history_days: 40,
            eval_days: 7,
            mean_input_mbit: 40.0,
            ..base
        }
    } else {
        // The reproduction's quick scale: 50 tasks, 90 history days.
        ScenarioConfig { history_days: 90, eval_days: 10, ..base }
    }
}

fn pipeline_config(p: &Params) -> PipelineConfig {
    PipelineConfig {
        env_history_days: 4,
        crl: CrlConfig {
            episodes: if p.smoke { 10 } else { 30 },
            dqn: DqnConfig { hidden: vec![48], ..DqnConfig::default() },
            seed: SCENARIO_SEED ^ 0x17,
            ..CrlConfig::default()
        },
        // Answers must be pure functions of the request for the
        // bit-for-bit pool-vs-solo check.
        include_allocation_overhead: false,
        seed: SCENARIO_SEED,
        ..PipelineConfig::default()
    }
}

/// Scenario, pipeline preparation, freeze, registration and warm-up.
fn build(p: &Params, tr: &mut Tracer) -> Result<ServeWorld, Box<dyn Error>> {
    let scenario = tr.span("buildings.generate", 0, |_| Scenario::generate(scenario_config(p)))?;
    let config = pipeline_config(p);
    if tr.enabled() {
        // Stand-alone calls of the two stages `prepare` runs first, so the
        // trace can split them out.
        let models = tr.span("learn.cop_train", 0, |_| CopModels::train(&scenario, config.mtl))?;
        tr.span("importance.matrix", 0, |_| {
            ImportanceEvaluator::new(&scenario, &models).importance_matrix()
        })?;
    }
    let prepared = tr.span("core.prepare", 0, |_| Pipeline::builder(config).prepare(&scenario))?;
    let cluster = prepared.cluster().clone();
    let core = tr.span("core.into_core", 0, |_| prepared.into_core())?;
    let days: Vec<usize> = core.test_days().collect();
    let fingerprint = days.iter().map(|&d| core.true_importances(d).to_vec()).collect();
    let service = Arc::new(AllocatorService::new());
    service.register(TENANT, core)?;
    let agents = tr.span("rl.warm", 0, |_| service.warm(TENANT))?;
    Ok(ServeWorld { service, cluster, days, agents, fingerprint })
}

fn request(query: Query) -> AllocRequest {
    AllocRequest { tenant: TENANT.to_string(), query }
}

/// Equality of two answers up to their wall-clock fields (the DML
/// decision's allocator time, a faulted run's re-plan latency and the
/// processing time that includes it).
fn same_answer(a: &AllocResponse, b: &AllocResponse) -> bool {
    match (a, b) {
        (
            AllocResponse::Decision { allocation: x, .. },
            AllocResponse::Decision { allocation: y, .. },
        ) => x == y,
        (AllocResponse::Run(RunReport::Faulted(x)), AllocResponse::Run(RunReport::Faulted(y))) => {
            let strip = |r: &tatim::core::pipeline::FaultRunReport| {
                let mut r = r.clone();
                r.processing_time_s = 0.0;
                r.reallocation_latency_s = 0.0;
                r
            };
            strip(x) == strip(y)
        }
        _ => a == b,
    }
}

/// Checks a reference answer's allocation and internal consistency.
fn check_reference(core: &PreparedCore, e: &Entry) -> Result<(), String> {
    let answer = e.reference.as_ref().ok_or("no reference answer")?;
    let instance = core.instance_for_day(e.day).map_err(|x| x.to_string())?;
    let (tasks, fleet) = (instance.tasks(), core.fleet());
    let truth = core.true_importances(e.day);
    match answer {
        AllocResponse::Run(RunReport::Healthy(r)) => {
            check::check_allocation(&r.allocation, tasks, fleet, Contract::Tatim)?;
            let got = check::captured(&r.allocation, truth);
            if (got - r.captured_importance).abs() > 1e-9 * got.max(1.0)
                || r.scheduled != r.allocation.scheduled_count()
            {
                return Err(format!(
                    "day {}: report captured {} vs {got}",
                    e.day, r.captured_importance
                ));
            }
            if !(r.processing_time_s.is_finite() && r.processing_time_s > 0.0) {
                return Err(format!("day {}: processing time {}", e.day, r.processing_time_s));
            }
            if e.kind == Kind::RunExact {
                let c = r.solver.ok_or("exact run without a certificate")?;
                if c.upper_bound < got * (1.0 - 1e-9) || (c.proved_optimal && c.gap != 0.0) {
                    return Err(format!("day {}: certificate {c:?} vs objective {got}", e.day));
                }
            }
            Ok(())
        }
        AllocResponse::Run(RunReport::Faulted(r)) => {
            check::check_allocation(&r.allocation, tasks, fleet, Contract::Tatim)?;
            let scheduled = r.allocation.scheduled_count();
            if r.delivered > scheduled || !(0.0..=1.0 + 1e-9).contains(&r.retained_fraction) {
                return Err(format!(
                    "day {}: delivered {} of {scheduled}, retained {}",
                    e.day, r.delivered, r.retained_fraction
                ));
            }
            Ok(())
        }
        AllocResponse::Decision { allocation, .. } => {
            check::check_allocation(allocation, tasks, fleet, Contract::ScheduleAll)
        }
        AllocResponse::QValues { q, .. } => {
            if q.is_empty() || q.iter().any(|v| !v.is_finite()) {
                return Err(format!("day {}: q-values {q:?}", e.day));
            }
            Ok(())
        }
    }
}

/// The distinct requests, day by day in slot order, each answered solo
/// `SOLO_REPEATS` times. A faulted request's crash schedule spans the
/// processing time of its day's healthy DCTA run, so that run is answered
/// first.
fn catalogue(
    w: &ServeWorld,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Vec<Entry>, Box<dyn Error>> {
    let workers: Vec<NodeId> = w.cluster.workers().map(|n| n.id()).collect();
    let mut entries: Vec<Entry> = Vec::with_capacity(w.days.len() * SLOTS);
    let mut ops = Ops::default();
    let mut add = |entries: &mut Vec<Entry>, kind: Kind, day: usize, query: Query| {
        let mut e = Entry { kind, day, request: request(query), reference: None, solo_ms: vec![] };
        answer_solo(&w.service, &mut e, entries.len(), tr, &mut ops, out);
        entries.push(e);
    };
    for (d, &day) in w.days.iter().enumerate() {
        add(&mut entries, Kind::RunDcta, day, Query::Run(RunSpec::new(Method::Dcta, day)));
        add(&mut entries, Kind::Decision, day, Query::Decision { method: Method::Dml, day });
        add(&mut entries, Kind::QValues, day, Query::QValues { day, state: None });
        add(&mut entries, Kind::RunExact, day, Query::Run(RunSpec::new(Method::ExactOracle, day)));
        let horizon = match &entries[d * SLOTS].reference {
            Some(AllocResponse::Run(r)) => r.processing_time_s(),
            _ => 1.0,
        };
        for k in 0..SCHEDULES_PER_DAY {
            let schedule_seed =
                seed ^ 0xFA17 ^ ((d * SCHEDULES_PER_DAY + k) as u64).wrapping_mul(0x9E37_79B9);
            let schedule =
                FaultSchedule::seeded(schedule_seed, &workers, CRASH_RATE, 0.5 * horizon, horizon)?;
            for mode in [RecoveryMode::Proactive, RecoveryMode::Resolve] {
                let spec = RunSpec::new(Method::Dcta, day).with_faults(schedule.clone(), mode);
                add(&mut entries, Kind::RunFaulted(mode), day, Query::Run(spec));
            }
        }
    }
    out.phases.push(("solo", ops));
    Ok(entries)
}

/// Answers `e` solo `SOLO_REPEATS` times, keeping the first answer as its
/// reference; every repeat must agree with it.
fn answer_solo(
    service: &AllocatorService,
    e: &mut Entry,
    index: usize,
    tr: &mut Tracer,
    ops: &mut Ops,
    out: &mut Outcome,
) {
    let name = format!("serve.handle.{}", e.kind.label());
    for _ in 0..SOLO_REPEATS {
        let t0 = Instant::now();
        let answer = tr.span(&name, index as u64, |_| service.handle(&e.request));
        e.solo_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match (answer, &e.reference) {
            (Ok(a), None) => {
                e.reference = Some(a);
                ops.record(true);
            }
            (Ok(a), Some(r)) => {
                let same = same_answer(&a, r);
                if !same {
                    out.fail(format!("solo answers to request {index} differ between repeats"));
                }
                ops.record(same);
            }
            (Err(err), _) => {
                out.fail(format!("solo request {index} failed: {err}"));
                ops.record(false);
            }
        }
    }
}

/// The seeded request list: indices into the catalogue. Every block of 40
/// requests holds exactly 9 of each healthy kind and 4 faulted runs (22.5 %
/// and 10 %) in seeded order, each on a seeded day. The median request
/// sits where the quick kinds (decisions, Q-values) end and the runs
/// begin, so with a drawn mix the quick kinds' share would move
/// `req_p50_ms` from seed to seed.
fn request_list(days: usize, seed: u64, n: usize) -> Vec<usize> {
    const BLOCK: [usize; 5] = [9, 9, 9, 9, 4];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11E57);
    let mut list = Vec::with_capacity(n + 40);
    while list.len() < n {
        let mut block: Vec<usize> =
            (0..BLOCK.len()).flat_map(|slot| std::iter::repeat_n(slot, BLOCK[slot])).collect();
        block.shuffle(&mut rng);
        for slot in block {
            let day = rng.gen_range(0..days);
            let slot = if slot < 4 { slot } else { 4 + rng.gen_range(0..2 * SCHEDULES_PER_DAY) };
            list.push(day * SLOTS + slot);
        }
    }
    list.truncate(n);
    list
}

/// What the open loop measured.
#[derive(Default)]
struct OpenLoop {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    backlog_max: u64,
    backlog_end: u64,
    ops: Ops,
}

impl OpenLoop {
    /// Appends another segment's measurements.
    fn absorb(&mut self, other: OpenLoop) {
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.backlog_end = other.backlog_end;
        self.ops.add(other.ops);
    }
}

/// Serves `list` at `rate` requests per second through a one-worker
/// `ServicePool`, each request timed from its due time.
///
/// One worker answers in submission order, so the calling thread plays
/// both generator and collector: it submits each request at its due time
/// (or, if the previous answer came later, as soon as it comes) and waits
/// for the answer. A request due while its predecessor is still served
/// could not have started before it anyway, so timing from the due time
/// gives the latency a separate generator thread would measure, queueing
/// included. The calling thread and the worker share one CPU for the
/// loop: every hand-off is then a switch between two threads, not the
/// wake-up of an idle virtual CPU, whose cost varies with the host's load
/// by several times the handling time of most requests.
fn open_loop(
    service: &Arc<AllocatorService>,
    entries: &[Entry],
    list: &[usize],
    rate: f64,
    out: &mut Outcome,
) -> OpenLoop {
    let pinned = affinity::pin_to_current_cpu();
    let pool = ServicePool::new(Arc::clone(service), 1);
    let mut got = OpenLoop { latency_ms: vec![f64::INFINITY; list.len()], ..OpenLoop::default() };
    let start = Instant::now() + Duration::from_millis(5);
    let mut ready = start;
    for (i, &e) in list.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        // Sleep to just short of the due time, then spin, so that the CPU
        // is awake when the request is due.
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        // The generator's own lateness: past the due time, or past the
        // previous answer when that came later.
        let submitted = Instant::now();
        got.lag_ms.push(submitted.saturating_duration_since(due.max(ready)).as_secs_f64() * 1e3);
        let due_by_now =
            (submitted.saturating_duration_since(start).as_secs_f64() * rate) as u64 + 1;
        got.backlog_end = due_by_now.saturating_sub(i as u64).max(1);
        got.backlog_max = got.backlog_max.max(got.backlog_end);
        let answer = pool.submit(entries[e].request.clone()).wait();
        ready = Instant::now();
        let elapsed = ready.saturating_duration_since(due).as_secs_f64() * 1e3;
        let reference = entries[e].reference.as_ref();
        let ok = matches!((&answer, reference), (Ok(a), Some(r)) if same_answer(a, r));
        match (ok, answer) {
            (true, _) => got.latency_ms[i] = elapsed,
            (false, Err(err)) => out.fail(format!("open-loop request {i} failed: {err}")),
            (false, Ok(_)) => {
                out.fail(format!("open-loop request {i} differs from its solo answer"))
            }
        }
        got.ops.record(ok);
    }
    drop(pool);
    if let Some(mask) = pinned {
        affinity::restore(&mask);
    }
    got
}

/// `clients` callers each keep `CLIENT_WINDOW` requests outstanding: each
/// waits for its oldest answer, then submits the next entry of `list`,
/// until `seconds` pass. Returns requests answered per second, and the
/// operation counts.
fn closed_loop(
    pool: &ServicePool,
    entries: &[Entry],
    list: &[usize],
    clients: usize,
    seconds: f64,
    out: &mut Outcome,
) -> (f64, Ops) {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let answers: Vec<Vec<(usize, bool)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    let mut outstanding = VecDeque::with_capacity(CLIENT_WINDOW);
                    loop {
                        while outstanding.len() < CLIENT_WINDOW && Instant::now() < deadline {
                            let k = next.fetch_add(1, Ordering::Relaxed) % list.len();
                            let ticket = pool.submit(entries[list[k]].request.clone());
                            outstanding.push_back((k, ticket));
                        }
                        let Some((k, ticket)) = outstanding.pop_front() else { break };
                        let answer = ticket.wait();
                        let reference = &entries[list[k]].reference;
                        let ok =
                            matches!((&answer, reference), (Ok(a), Some(r)) if same_answer(a, r));
                        got.push((k, ok));
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut ops = Ops::default();
    for (k, ok) in answers.into_iter().flatten() {
        if !ok {
            out.fail(format!(
                "closed-loop answer to list entry {k} differs from its solo reference"
            ));
        }
        ops.record(ok);
    }
    (ops.succeeded as f64 / elapsed, ops)
}

/// Solo timings for `round_s` and `solve_ms`, for `seconds` (at least one
/// pass over the days): a healthy DCTA run through `handle`, and an
/// ExactOracle allocation, day by day.
#[allow(clippy::too_many_arguments)]
fn solo_slice(
    service: &AllocatorService,
    core: &PreparedCore,
    days: &[usize],
    entries: &[Entry],
    seconds: f64,
    (round_ms, solve_ms): (&mut Vec<f64>, &mut Vec<f64>),
    out: &mut Outcome,
) {
    let started = Instant::now();
    let mut k = 0usize;
    while k < days.len() || started.elapsed().as_secs_f64() < seconds {
        let (d, day) = (k % days.len(), days[k % days.len()]);
        let entry = &entries[d * SLOTS];
        let t0 = Instant::now();
        let run = service.handle(&entry.request);
        round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let alloc = core.allocate(&AllocQuery::new(Method::ExactOracle, day));
        solve_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if !matches!((&run, &entry.reference), (Ok(a), Some(r)) if same_answer(a, r)) {
            out.fail(format!("solo DCTA run of day {day} changed between repeats"));
        }
        if !matches!(alloc, Ok(ref a) if a.certificate.is_some()) {
            out.fail(format!("exact allocation of day {day} failed or has no certificate"));
        }
        k += 1;
    }
}

/// Replays `list` through the layer functions on the calling thread, one
/// span per call, and checks each result against the entry's reference.
/// Simulator and recovery calls a run makes internally are re-issued on
/// their own (`edgesim.star_sim`, `edgesim.fault_sim`, `recovery.*`), and
/// CRL, which the mix only reaches inside DCTA, is allocated once per day.
fn layer_pass(
    core: &PreparedCore,
    cluster: &Cluster,
    entries: &[Entry],
    list: &[usize],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), Box<dyn Error>> {
    let config = core.config();
    let blind = core.blind_instance();
    let sim_tasks: Vec<SimTask> = blind
        .tasks()
        .iter()
        .map(|t| SimTask::new(t.input_bits(), config.result_bits, t.resource_demand()))
        .collect::<Result<_, _>>()?;
    let mut days: Vec<usize> = list.iter().map(|&e| entries[e].day).collect();
    days.sort_unstable();
    days.dedup();
    for &day in &days {
        let crl = tr.span("core.allocate.crl", day as u64, |_| {
            core.allocate(&AllocQuery::new(Method::Crl, day))
        })?;
        out.expect_ok(
            "crl allocation",
            check::check_allocation(&crl.allocation, blind.tasks(), core.fleet(), Contract::Tatim),
        );
    }
    for (i, &idx) in list.iter().enumerate() {
        let e = &entries[idx];
        let (op, day) = (i as u64, e.day);
        let answer = match e.kind {
            Kind::RunDcta | Kind::RunExact => {
                let (method, name) = if e.kind == Kind::RunDcta {
                    (Method::Dcta, "core.allocate.dcta")
                } else {
                    (Method::ExactOracle, "core.allocate.exact")
                };
                let alloc = tr.span(name, op, |_| core.allocate(&AllocQuery::new(method, day)))?;
                let assignment = alloc.allocation.to_node_assignment(core.fleet());
                let mut report = tr.span("core.execute", op, |_| {
                    core.execute(method, day, alloc.allocation, alloc.overhead_s)
                })?;
                report.solver = alloc.certificate;
                tr.span("edgesim.star_sim", op, |_| {
                    simulate(cluster, &sim_tasks, &assignment, config.sim)
                })?;
                AllocResponse::Run(RunReport::Healthy(report))
            }
            Kind::Decision => {
                let alloc = tr.span("core.allocate.dml", op, |_| {
                    core.allocate(&AllocQuery::new(Method::Dml, day))
                })?;
                AllocResponse::Decision {
                    allocation: alloc.allocation,
                    allocator_seconds: alloc.overhead_s,
                }
            }
            Kind::QValues => {
                let shared = core.crl().shared();
                let (key, blend) = shared.define_environment(core.signature_of_day(day)?)?;
                let agent = shared.agent(key)?;
                let state =
                    AllocEnv::new(AllocSpec { importances: blend, ..blind.to_alloc_spec() })?
                        .reset();
                let q = tr.span("rl.qvalues", op, |_| agent.q_values(&state))?;
                AllocResponse::QValues { key, q }
            }
            Kind::RunFaulted(mode) => {
                let Query::Run(spec) = &e.request.query else {
                    unreachable!("faulted entries are runs")
                };
                let name = format!("core.run_faulted.{mode}");
                let report = tr.span(&name, op, |_| core.run(spec))?;
                let (schedule, _) = spec.faults().expect("faulted spec");
                let allocation = report.allocation().clone();
                let assignment = allocation.to_node_assignment(core.fleet());
                let mut sim_cfg = config.sim;
                sim_cfg.retry = RetryPolicy::no_retry();
                let faulted = tr.span("edgesim.fault_sim", op, |_| {
                    simulate_with_faults(cluster, &sim_tasks, &assignment, sim_cfg, schedule)
                })?;
                let survivors: Vec<NodeId> = core
                    .fleet()
                    .processors()
                    .iter()
                    .map(|p| p.node)
                    .filter(|n| !faulted.down_at_end.contains(n))
                    .collect();
                if !faulted.failed_tasks().is_empty() && !survivors.is_empty() {
                    let finished: Vec<bool> = (0..blind.num_tasks())
                        .map(|j| allocation.processor_of(j).is_none() || faulted.completed[j])
                        .collect();
                    let instance = core.instance_for_day(day)?;
                    let budget = config.recovery_budget_fraction;
                    if mode == RecoveryMode::Proactive {
                        let draw =
                            proactive_draw_seed(config.proactive.seed ^ config.seed, day as u64);
                        tr.span("recovery.replan_proactive", op, |_| {
                            recovery::replan_proactive(
                                &instance,
                                &finished,
                                &survivors,
                                budget,
                                core.availability(),
                                &config.proactive,
                                draw,
                            )
                        })?;
                    } else {
                        tr.span("recovery.replan", op, |_| {
                            recovery::replan(&instance, &finished, &survivors, budget)
                        })?;
                    }
                }
                AllocResponse::Run(report)
            }
        };
        if !e.reference.as_ref().is_some_and(|r| same_answer(&answer, r)) {
            out.fail(format!(
                "layer pass: request {i} ({}) differs from its solo answer",
                e.kind.label()
            ));
        }
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up or serving errors that stop the run.
pub fn run(p: &Params, tr: &mut Tracer, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let (w, setup_s) = repeat_setup(SETUPS, out, || build(p, tr))?;
    let scfg = scenario_config(p);
    out.prov("tasks", scfg.num_tasks);
    out.prov("history_days", scfg.history_days);
    out.prov("eval_days", w.days.len());
    out.prov("star_workers", w.cluster.num_workers());
    out.prov("open_loop_rate", OPEN_LOOP_RATE);
    let workers = nproc;
    out.prov("pool_workers.open_loop", 1);
    out.prov("pool_workers.closed_loop", workers);
    out.prov("closed_loop_clients", nproc);

    // Everything after set-up runs with the intra-request parallel layer
    // pinned to one thread: pool workers are the only concurrency.
    tatim::parallel::set_max_threads(1);
    out.prov("parallel_thread_cap_setup", "nproc");
    out.prov("parallel_thread_cap_timed", 1);
    let result = serve(p, &w, workers, nproc, tr, out);
    let e = &mut out.end_to_end;
    e.put("setup_s", stats::median(&setup_s), "s");
    out.per_layer.put("rl.agents_trained", w.agents as f64, "count");
    result
}

fn serve(
    p: &Params,
    w: &ServeWorld,
    workers: usize,
    nproc: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), Box<dyn Error>> {
    let entries = catalogue(w, p.seed, tr, out)?;
    w.service.with_core(TENANT, |core| {
        for e in &entries {
            if let Err(err) = check_reference(core, e) {
                out.fail(format!("{} day {}: {err}", e.kind.label(), e.day));
            }
        }
    })?;
    let open_n = ((OPEN_LOOP_RATE * OPEN_SHARE * p.seconds).round() as usize).max(SEGMENTS);
    let list = request_list(w.days.len(), p.seed, open_n);
    out.prov("open_loop_requests", open_n);
    for kind in ["run_dcta", "run_exact", "run_faulted", "decision", "qvalues"] {
        let n = list.iter().filter(|&&e| entries[e].kind.label() == kind).count();
        out.prov(&format!("open_loop_requests.{kind}"), n);
    }
    out.prov("segments", SEGMENTS);
    // The optimum bound of each day, from its exact run's certificate.
    let bound: Vec<f64> = (0..w.days.len())
        .map(|d| match &entries[d * SLOTS + 3].reference {
            Some(AllocResponse::Run(RunReport::Healthy(r))) => {
                r.solver.map_or(f64::NAN, |c| c.upper_bound)
            }
            _ => f64::NAN,
        })
        .collect();

    // The measured phase runs in segments, each a solo slice, an open-loop
    // slice and a closed-loop slice, so that slow drift in the host's speed
    // reaches every metric alike; latencies and rates are medians over
    // segments.
    let segment_s = p.seconds / SEGMENTS as f64;
    let before = w.service.stats(TENANT)?;
    let pool = ServicePool::new(Arc::clone(&w.service), workers);
    let (mut round_ms, mut solve_ms) = (Vec::new(), Vec::new());
    let (mut p50, mut p99, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut open = OpenLoop::default();
    let mut closed_ops = Ops::default();
    for seg in 0..SEGMENTS {
        w.service.with_core(TENANT, |core| {
            solo_slice(
                &w.service,
                core,
                &w.days,
                &entries,
                SOLO_SHARE * segment_s,
                (&mut round_ms, &mut solve_ms),
                out,
            )
        })?;
        let part = &list[seg * open_n / SEGMENTS..(seg + 1) * open_n / SEGMENTS];
        let got = open_loop(&w.service, &entries, part, OPEN_LOOP_RATE, out);
        p50.push(stats::median(&got.latency_ms));
        p99.push(stats::percentile(&got.latency_ms, 99.0));
        open.absorb(got);
        let closed_s = (1.0 - SOLO_SHARE - OPEN_SHARE) * segment_s;
        let (rate, ops) = closed_loop(&pool, &entries, &list, nproc, closed_s, out);
        rates.push(rate);
        closed_ops.add(ops);
    }
    out.phases.push(("closed_loop", closed_ops));
    drop(pool);
    let after = w.service.stats(TENANT)?;
    out.phases.push(("open_loop", open.ops));

    if tr.enabled() {
        w.service
            .with_core(TENANT, |core| layer_pass(core, &w.cluster, &entries, &list, tr, out))??;
    }

    // Deterministic quality over the open-loop list's answers.
    let (mut served, mut per_sim_s, mut gaps, mut exact) = (vec![], vec![], vec![], vec![]);
    for &idx in &list {
        let e = &entries[idx];
        let Some(AllocResponse::Run(RunReport::Healthy(r))) = &e.reference else { continue };
        if e.kind == Kind::RunDcta {
            served.push(r.captured_importance);
            per_sim_s.push(r.captured_importance / r.processing_time_s);
            let ub = bound[e.day - w.days[0]];
            gaps.push((ub - r.captured_importance).max(0.0) / ub.max(1e-12));
        } else if e.kind == Kind::RunExact {
            exact.push(r.captured_importance);
        }
    }

    let solo = |kind: &str| -> f64 {
        let xs: Vec<f64> = entries
            .iter()
            .filter(|e| e.kind.label() == kind)
            .flat_map(|e| e.solo_ms.clone())
            .collect();
        stats::median(&xs)
    };
    let queue_wait: Vec<f64> = list
        .iter()
        .zip(&open.latency_ms)
        .map(|(&idx, &lat)| lat - solo(entries[idx].kind.label()))
        .collect();

    let e = &mut out.end_to_end;
    e.put("req_p50_ms", stats::median(&p50), "ms");
    e.put("round_s", stats::median(&round_ms) / 1e3, "s");
    e.put("solve_ms", stats::median(&solve_ms), "ms");
    let d = &mut out.deterministic;
    d.put("served_importance", stats::mean(&served), "importance");
    d.put("mesh_importance_per_s", stats::mean(&per_sim_s), "importance/sim-s");
    d.put("solve_gap", stats::mean(&gaps), "fraction");
    d.put("solve_importance", stats::mean(&exact), "importance");

    let n = open.latency_ms.len();
    let notes = &mut out.notes;
    notes.put("open_loop.samples", n as f64, "count");
    for kind in ["run_dcta", "run_exact", "run_faulted", "decision", "qvalues"] {
        let of_kind: Vec<f64> = list
            .iter()
            .zip(&open.latency_ms)
            .filter(|(&idx, _)| entries[idx].kind.label() == kind)
            .map(|(_, &lat)| lat)
            .collect();
        notes.put(format!("open_loop.p50_ms.{kind}"), stats::median(&of_kind), "ms");
    }
    if let Some(hi) = stats::highest_supported_percentile(n) {
        notes.put(format!("open_loop.p{hi}_ms"), stats::percentile(&open.latency_ms, hi), "ms");
    }

    let l = &mut out.per_layer;
    let (hits, misses) =
        (after.cache.hits - before.cache.hits, after.cache.misses - before.cache.misses);
    l.put("importance.cache_hits", hits as f64, "count");
    l.put("importance.cache_misses", misses as f64, "count");
    l.put("importance.cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64, "fraction");
    let batches = after.batcher.batches - before.batcher.batches;
    let states = after.batcher.batched_states - before.batcher.batched_states;
    let deadline = after.batcher.deadline_flushes - before.batcher.deadline_flushes;
    l.put("rl.batch_mean", states as f64 / batches.max(1) as f64, "states/batch");
    l.put("rl.deadline_flush_frac", deadline as f64 / batches.max(1) as f64, "fraction");
    for kind in ["run_dcta", "run_exact", "run_faulted", "decision", "qvalues"] {
        l.put(format!("serve.handle_ms.{kind}"), solo(kind), "ms");
    }
    l.put("serve.open_loop_p99_ms", stats::median(&p99), "ms");
    l.put("serve.closed_loop_req_per_s", stats::median(&rates), "req/s");
    l.put("serve.queue_wait_ms.p50", stats::median(&queue_wait), "ms");
    l.put("serve.queue_wait_ms.p99", stats::percentile(&queue_wait, 99.0), "ms");
    l.put("serve.backlog_max", open.backlog_max as f64, "count");
    l.put("serve.backlog_end", open.backlog_end as f64, "count");
    l.put("gen.lag_ms.p50", stats::median(&open.lag_ms), "ms");
    l.put("gen.lag_ms.p99", stats::percentile(&open.lag_ms, 99.0), "ms");
    Ok(())
}
