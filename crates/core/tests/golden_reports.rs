//! Golden digests of every deterministic report field, on both prepared
//! forms of the pipeline.
//!
//! Each method runs healthy and under a fixed crash schedule with every
//! [`RecoveryMode`], under the blank objective and under route cost. The
//! digest is FNV-1a over the exact bit patterns of each report field, so any
//! change to allocation, simulation, scoring or recovery shows up as a
//! changed digest. Only measured wall-clock is excluded: the faulted
//! report's `reallocation_latency_s` and the `processing_time_s` that
//! includes it.
//!
//! `PreparedPipeline` runs in one fixed call order, so the digests also pin
//! its sequential RandomMapping stream and the availability posterior that
//! Proactive runs absorb. `PreparedCore` runs the same sequence from its
//! frozen state.

use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::allocation::Allocation;
use dcta_core::objective::Objective;
use dcta_core::pipeline::{
    DayReport, FaultRunReport, Method, Pipeline, PipelineConfig, RunReport, RunSpec,
};
use dcta_core::recovery::RecoveryMode;
use edgesim::faults::FaultSchedule;
use rl::crl::CrlConfig;
use rl::dqn::DqnConfig;

const METHODS: [Method; 6] = [
    Method::RandomMapping,
    Method::Dml,
    Method::Crl,
    Method::Dcta,
    Method::GreedyOracle,
    Method::ExactOracle,
];

const MODES: [RecoveryMode; 4] =
    [RecoveryMode::None, RecoveryMode::Resolve, RecoveryMode::RandomShed, RecoveryMode::Proactive];

/// Expected digests, one per method in [`METHODS`] order, for the batch
/// pipeline and then for the frozen core.
const PIPELINE_DIGESTS: [u64; 6] = [
    0xca4b_dec8_de50_0b17,
    0x9839_6478_3d2a_322b,
    0x0883_ac8d_959d_66cf,
    0x962c_ff61_aeda_f313,
    0xd804_660c_b740_f44d,
    0xd3a2_307c_0773_1c6d,
];
const CORE_DIGESTS: [u64; 6] = [
    0x2b93_a100_7c45_b3b1,
    0xc807_d5e2_b8a3_4095,
    0x40e7_662b_f1d9_dff9,
    0x79e9_16c4_aeee_5b2b,
    0x72eb_98cb_e72a_6e21,
    0x120e_1e77_dcbb_1f0b,
];
/// Digest of the batch pipeline's availability posterior after the whole
/// sequence (the frozen core's must stay at its initial text).
const PIPELINE_POSTERIOR_DIGEST: u64 = 0x01b8_0422_428a_7bf2;

fn small_scenario() -> Scenario {
    Scenario::generate(ScenarioConfig {
        num_buildings: 2,
        chillers_per_building: 2,
        bands_per_chiller: 4,
        num_tasks: 12,
        history_days: 50,
        eval_days: 8,
        mean_input_mbit: 40.0,
        ..ScenarioConfig::default()
    })
    .unwrap()
}

fn quick_config() -> PipelineConfig {
    PipelineConfig {
        workers: 4,
        env_history_days: 5,
        crl: CrlConfig {
            episodes: 12,
            dqn: DqnConfig { hidden: vec![24], ..DqnConfig::default() },
            ..CrlConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn indices(&mut self, v: &[usize]) {
        self.usize(v.len());
        v.iter().for_each(|&x| self.usize(x));
    }

    fn allocation(&mut self, a: &Allocation) {
        self.usize(a.len());
        for p in a.placement() {
            self.u64(p.map_or(u64::MAX, |p| p as u64));
        }
    }
}

fn digest_healthy(h: &mut Fnv, r: &DayReport) {
    h.str(&r.method.to_string());
    h.usize(r.day);
    h.allocation(&r.allocation);
    h.f64(r.processing_time_s);
    h.f64(r.decision_performance);
    h.usize(r.scheduled);
    h.f64(r.captured_importance);
    match &r.solver {
        None => h.u64(0),
        Some(c) => {
            h.u64(1);
            h.u64(u64::from(c.proved_optimal));
            h.f64(c.gap);
            h.f64(c.upper_bound);
            h.u64(c.nodes);
        }
    }
}

fn digest_faulted(h: &mut Fnv, r: &FaultRunReport) {
    h.str(&r.method.to_string());
    h.usize(r.day);
    h.str(&format!("{:?}", r.mode));
    h.allocation(&r.allocation);
    h.f64(r.healthy_processing_time_s);
    h.f64(r.healthy_importance);
    h.f64(r.healthy_decision_performance);
    h.f64(r.simulated_processing_time_s);
    h.usize(r.delivered);
    h.f64(r.delivered_importance);
    h.f64(r.retained_fraction);
    h.f64(r.decision_performance);
    h.indices(&r.shed);
    h.indices(&r.lost);
    h.usize(r.failures.len());
    for rec in &r.failures {
        h.f64(rec.time);
        h.str(&format!("{:?}", rec.kind));
    }
    h.indices(&r.down_at_end.iter().map(|n| n.0).collect::<Vec<_>>());
}

fn digest(h: &mut Fnv, report: &RunReport) {
    match report {
        RunReport::Healthy(r) => digest_healthy(h, r),
        RunReport::Faulted(r) => digest_faulted(h, r),
    }
}

/// The fixed sequence of specs run for `method`: healthy, then every
/// recovery mode under a two-crash schedule, under the blank objective and
/// then under route cost.
fn specs(method: Method, day: usize, schedule: &FaultSchedule) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for objective in [Objective::new(), Objective::new().with_route_cost(true)] {
        specs.push(RunSpec::new(method, day).with_objective(objective.clone()));
        for mode in MODES {
            specs.push(
                RunSpec::new(method, day)
                    .with_objective(objective.clone())
                    .with_faults(schedule.clone(), mode),
            );
        }
    }
    specs
}

fn crash_schedule(nodes: [edgesim::node::NodeId; 2]) -> FaultSchedule {
    FaultSchedule::new().with_crash(nodes[0], 0.2).unwrap().with_crash(nodes[1], 1.0).unwrap()
}

fn hex(v: &[u64]) -> Vec<String> {
    v.iter().map(|d| format!("0x{d:016x}")).collect()
}

#[test]
fn prepared_pipeline_reports_match_golden_digests() {
    let s = small_scenario();
    let mut prepared = Pipeline::builder(quick_config()).prepare(&s).unwrap();
    let day = prepared.test_days().start;
    let schedule = crash_schedule([prepared.fleet().node_of(0), prepared.fleet().node_of(1)]);
    let initial = prepared.availability().to_text();
    let mut got = Vec::new();
    let mut orphaned = false;
    for method in METHODS {
        let mut h = Fnv::new();
        for spec in specs(method, day, &schedule) {
            let report = prepared.run(&spec).unwrap();
            orphaned |= report.as_faulted().is_some_and(|r| !r.lost.is_empty());
            digest(&mut h, &report);
        }
        got.push(h.0);
    }
    // The schedule must bite, or the faulted digests pin nothing.
    assert!(orphaned, "the crash schedule orphaned no task");
    assert_ne!(prepared.availability().to_text(), initial, "Proactive runs learned nothing");
    let mut posterior = Fnv::new();
    posterior.str(&prepared.availability().to_text());
    assert_eq!(
        (hex(&got), format!("0x{:016x}", posterior.0)),
        (hex(&PIPELINE_DIGESTS), format!("0x{PIPELINE_POSTERIOR_DIGEST:016x}")),
        "PreparedPipeline digests (per method in {METHODS:?} order, then the posterior)"
    );
}

#[test]
fn prepared_core_reports_match_golden_digests() {
    let s = small_scenario();
    let core = Pipeline::builder(quick_config()).prepare(&s).unwrap().into_core().unwrap();
    let day = core.test_days().start;
    let schedule = crash_schedule([core.fleet().node_of(0), core.fleet().node_of(1)]);
    let initial = core.availability().to_text();
    let mut got = Vec::new();
    for method in METHODS {
        let mut h = Fnv::new();
        for spec in specs(method, day, &schedule) {
            digest(&mut h, &core.run(&spec).unwrap());
        }
        got.push(h.0);
    }
    assert_eq!(
        hex(&got),
        hex(&CORE_DIGESTS),
        "PreparedCore digests (per method in {METHODS:?} order)"
    );
    assert_eq!(core.availability().to_text(), initial, "the frozen posterior moved");
}
