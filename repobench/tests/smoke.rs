//! Smoke-size runs of every workload, traced and untraced, and the output
//! checker's rejection of hand-built infeasible allocations.
//!
//! Run with `cargo test --release --manifest-path repobench/Cargo.toml`.

use repobench::check::{check_pairs, Contract};
use repobench::{run, Params, END_TO_END, PER_LAYER, WORKLOADS};
use std::sync::Mutex;
use tatim::core::processor::{Processor, ProcessorFleet};
use tatim::core::task::{EdgeTask, TaskId};
use tatim::edgesim::node::NodeId;

/// The workloads set the process-wide `parallel` thread cap; runs in one
/// test binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: &str, trace: bool) -> repobench::report::Outcome {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    run(&Params { workload: workload.to_string(), seed: 7, seconds: 0.4, trace, smoke: true })
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for workload in WORKLOADS {
        let untraced = smoke(workload, false);
        assert!(untraced.check_failures.is_empty(), "{workload}: {:?}", untraced.check_failures);
        let ops = untraced.ops();
        assert!(ops.attempted > 0 && ops.failed == 0, "{workload}: {ops:?}");
        for (name, _) in END_TO_END {
            let v = untraced
                .end_to_end
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
        }

        // The traced run checks its deterministic metrics against the
        // record the untraced run left.
        let traced = smoke(workload, true);
        assert!(traced.check_failures.is_empty(), "{workload} traced: {:?}", traced.check_failures);
        assert_eq!(traced.deterministic, untraced.deterministic, "{workload}");
        for (name, _) in PER_LAYER {
            let v =
                traced.per_layer.get(name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert!(v.is_finite() && v >= 0.0, "{workload}: {name} = {v}");
        }
        assert!(traced.per_layer.get("trace.spans").unwrap() > 0.0, "{workload}: no spans");
    }
}

fn instance() -> (Vec<EdgeTask>, ProcessorFleet) {
    // Three 1 Mbit tasks; each takes 1e6 reference seconds-per-bit units.
    let tasks: Vec<EdgeTask> =
        (0..3).map(|i| EdgeTask::new(TaskId(i), format!("t{i}"), 1e6, 1.0, 0.5).unwrap()).collect();
    let t = tasks[0].reference_time_s();
    let processor = |n| Processor { node: NodeId(n), capacity: 10.0, seconds_per_bit: 2.4e-7 };
    // Each processor may take two tasks' worth of reference time.
    let fleet = ProcessorFleet::new(vec![processor(1), processor(2)], 2.0 * t).unwrap();
    (tasks, fleet)
}

#[test]
fn checker_accepts_a_feasible_allocation() {
    let (tasks, fleet) = instance();
    assert_eq!(check_pairs(&[(0, 0), (1, 0), (2, 1)], &tasks, &fleet, Contract::Tatim), Ok(()));
}

#[test]
fn checker_rejects_an_over_budget_processor() {
    let (tasks, fleet) = instance();
    let err = check_pairs(&[(0, 0), (1, 0), (2, 0)], &tasks, &fleet, Contract::Tatim).unwrap_err();
    assert!(err.contains("exceeds budget"), "{err}");
}

#[test]
fn checker_rejects_a_task_assigned_twice() {
    let (tasks, fleet) = instance();
    let err = check_pairs(&[(0, 0), (1, 1), (0, 1)], &tasks, &fleet, Contract::Tatim).unwrap_err();
    assert!(err.contains("more than once"), "{err}");
    let err = check_pairs(&[(0, 0), (0, 0), (1, 1), (2, 1)], &tasks, &fleet, Contract::ScheduleAll)
        .unwrap_err();
    assert!(err.contains("more than once"), "{err}");
}

#[test]
fn checker_rejects_a_schedule_all_baseline_that_drops_a_task() {
    let (tasks, fleet) = instance();
    let err = check_pairs(&[(0, 0), (1, 1)], &tasks, &fleet, Contract::ScheduleAll).unwrap_err();
    assert!(err.contains("unscheduled"), "{err}");
}
