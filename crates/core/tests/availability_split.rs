//! The one behavioural fork between the two prepared forms: a
//! `PreparedPipeline` learns availability from its Proactive faulted runs,
//! a `PreparedCore` only reads its frozen posterior.

use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::availability::AvailabilityModel;
use dcta_core::pipeline::{FaultRunReport, Method, Pipeline, PipelineConfig, RunSpec};
use dcta_core::recovery::RecoveryMode;
use edgesim::faults::FaultSchedule;
use rl::crl::CrlConfig;
use rl::dqn::DqnConfig;

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

/// A Proactive run of the greedy oracle on `day` with two early crashes.
fn proactive_spec(day: usize, fleet: &dcta_core::processor::ProcessorFleet) -> RunSpec {
    let schedule = FaultSchedule::new()
        .with_crash(fleet.node_of(0), 0.2)
        .unwrap()
        .with_crash(fleet.node_of(1), 1.0)
        .unwrap();
    RunSpec::new(Method::GreedyOracle, day).with_faults(schedule, RecoveryMode::Proactive)
}

/// The report without its measured wall-clock fields.
fn deterministic(mut r: FaultRunReport) -> FaultRunReport {
    r.reallocation_latency_s = 0.0;
    r.processing_time_s = 0.0;
    r
}

#[test]
fn pipeline_learns_availability_and_core_does_not() {
    let s = small_scenario();

    // The batch pipeline: a Proactive run moves the posterior, and the
    // repeat allocates from the moved posterior — exactly as a fresh
    // pipeline seeded with that posterior does.
    let mut pipeline = Pipeline::builder(quick_config()).prepare(&s).unwrap();
    let day = pipeline.test_days().start;
    let spec = proactive_spec(day, pipeline.fleet());
    let initial = pipeline.availability().to_text();
    let first = deterministic(pipeline.run(&spec).unwrap().into_faulted().unwrap());
    let learned = pipeline.availability().to_text();
    assert_ne!(learned, initial, "a Proactive run left the pipeline's posterior unchanged");
    let second = deterministic(pipeline.run(&spec).unwrap().into_faulted().unwrap());
    assert_ne!(first.allocation, second.allocation, "the learned posterior moved no task");

    let seeded_model = AvailabilityModel::new(quick_config().availability);
    seeded_model.load_text(&learned).unwrap();
    let mut seeded =
        Pipeline::builder(quick_config()).availability(seeded_model).prepare(&s).unwrap();
    let replay = deterministic(seeded.run(&spec).unwrap().into_faulted().unwrap());
    assert_eq!(second, replay, "the repeat did not allocate from the learned posterior");

    // The frozen core: the same two runs leave the posterior byte-identical
    // and return the same report, which is the pipeline's first one.
    let core = Pipeline::builder(quick_config()).prepare(&s).unwrap().into_core().unwrap();
    let frozen = core.availability().to_text();
    assert_eq!(frozen, initial);
    let a = deterministic(core.run(&spec).unwrap().into_faulted().unwrap());
    let b = deterministic(core.run(&spec).unwrap().into_faulted().unwrap());
    assert_eq!(core.availability().to_text(), frozen, "the core's posterior moved");
    assert_eq!(a, b, "repeat runs on the core diverged");
    assert_eq!(a, first, "the core's run diverged from the pipeline's first");
}
