//! Output checks: an allocation checker written independently of the
//! library's own `Allocation::check`, so a library bug cannot vouch for
//! itself.

use tatim::core::allocation::Allocation;
use tatim::core::processor::ProcessorFleet;
use tatim::core::task::EdgeTask;

/// Relative slack granted to budget sums (float summation order).
const REL_EPS: f64 = 1e-9;

/// What an allocation promises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contract {
    /// A TATIM solution: every processor within its (possibly deflated)
    /// Eq.-3 time budget and its Eq.-4 capacity.
    Tatim,
    /// An importance-blind baseline (DML): every task placed exactly once.
    /// Such a baseline executes all tasks by definition, so neither time
    /// budgets nor capacities bind.
    ScheduleAll,
}

/// Checks `(task, processor column)` pairs against `tasks` and `fleet`.
///
/// Every task index must exist and appear at most once, every column must
/// exist. Under [`Contract::Tatim`] each processor's summed reference time
/// must fit its time limit and its summed demand its capacity; under
/// [`Contract::ScheduleAll`] every task must be placed.
///
/// # Errors
///
/// A description of the first violation found.
pub fn check_pairs(
    pairs: &[(usize, usize)],
    tasks: &[EdgeTask],
    fleet: &ProcessorFleet,
    contract: Contract,
) -> Result<(), String> {
    let (n, m) = (tasks.len(), fleet.len());
    let mut seen = vec![false; n];
    let mut time = vec![0.0f64; m];
    let mut demand = vec![0.0f64; m];
    for &(j, p) in pairs {
        if j >= n {
            return Err(format!("task {j} does not exist ({n} tasks)"));
        }
        if p >= m {
            return Err(format!("task {j} placed on processor {p}, fleet has {m}"));
        }
        if std::mem::replace(&mut seen[j], true) {
            return Err(format!("task {j} is assigned more than once"));
        }
        time[p] += tasks[j].reference_time_s();
        demand[p] += tasks[j].resource_demand();
    }
    match contract {
        Contract::Tatim => {
            for p in 0..m {
                let limit = fleet.time_limit_of(p);
                if time[p] > limit * (1.0 + REL_EPS) {
                    return Err(format!("processor {p} time {}s exceeds budget {limit}s", time[p]));
                }
                let capacity = fleet.processors()[p].capacity;
                if demand[p] > capacity * (1.0 + REL_EPS) {
                    return Err(format!(
                        "processor {p} demand {} exceeds capacity {capacity}",
                        demand[p]
                    ));
                }
            }
        }
        Contract::ScheduleAll => {
            if let Some(j) = seen.iter().position(|s| !s) {
                return Err(format!("task {j} left unscheduled by a schedule-all baseline"));
            }
        }
    }
    Ok(())
}

/// The `(task, column)` pairs of an allocation.
pub fn pairs_of(allocation: &Allocation) -> Vec<(usize, usize)> {
    allocation.placement().iter().enumerate().filter_map(|(j, p)| p.map(|p| (j, p))).collect()
}

/// [`check_pairs`] over an [`Allocation`], which must also cover exactly
/// the instance's tasks.
///
/// # Errors
///
/// A description of the first violation found.
pub fn check_allocation(
    allocation: &Allocation,
    tasks: &[EdgeTask],
    fleet: &ProcessorFleet,
    contract: Contract,
) -> Result<(), String> {
    if allocation.len() != tasks.len() {
        return Err(format!(
            "allocation covers {} tasks, instance has {}",
            allocation.len(),
            tasks.len()
        ));
    }
    check_pairs(&pairs_of(allocation), tasks, fleet, contract)
}

/// Captured importance of an allocation.
pub fn captured(allocation: &Allocation, importances: &[f64]) -> f64 {
    allocation
        .placement()
        .iter()
        .zip(importances)
        .filter(|(p, _)| p.is_some())
        .map(|(_, i)| i)
        .sum()
}

/// The allocation's modelled makespan: the largest summed reference time
/// any processor carries under the TATIM time model.
pub fn model_makespan(allocation: &Allocation, tasks: &[EdgeTask], processors: usize) -> f64 {
    let mut time = vec![0.0f64; processors];
    for (j, p) in pairs_of(allocation) {
        time[p] += tasks[j].reference_time_s();
    }
    time.into_iter().fold(0.0, f64::max)
}
