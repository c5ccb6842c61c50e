//! `local_search` verbatim as it stood before the pruned search replaced
//! it: the regression oracle for exact output equality. Compiled only into
//! the crate's unit tests and, through a `#[path]` module, into
//! `tests/properties.rs`; the including module must have `Problem` and
//! `Solution` in scope.

use super::{Problem, Solution};

/// Plain-scan hill climbing: first-fit inserts, then first-found swaps.
pub fn local_search_original(problem: &Problem, initial: Solution, max_rounds: usize) -> Solution {
    let mut packing = initial.packing;
    for _ in 0..max_rounds {
        let mut residual = packing.residual_capacities(problem);
        let mut improved = false;

        // Insert moves.
        for i in 0..problem.num_items() {
            if packing.sack_of(i).is_some() {
                continue;
            }
            let item = problem.items()[i];
            if item.profit <= 0.0 {
                continue;
            }
            if let Some(s) = (0..problem.num_sacks()).find(|&s| {
                item.weight <= residual[s].0 + 1e-12 && item.volume <= residual[s].1 + 1e-12
            }) {
                packing.assign(i, Some(s));
                residual[s].0 -= item.weight;
                residual[s].1 -= item.volume;
                improved = true;
            }
        }

        // Swap moves: out-item j (packed) replaced by in-item i (unpacked).
        'swap: for i in 0..problem.num_items() {
            if packing.sack_of(i).is_some() {
                continue;
            }
            let inc = problem.items()[i];
            for j in 0..problem.num_items() {
                let Some(s) = packing.sack_of(j) else { continue };
                let out = problem.items()[j];
                if inc.profit <= out.profit + 1e-12 {
                    continue;
                }
                let rw = residual[s].0 + out.weight;
                let rv = residual[s].1 + out.volume;
                if inc.weight <= rw + 1e-12 && inc.volume <= rv + 1e-12 {
                    packing.assign(j, None);
                    packing.assign(i, Some(s));
                    residual[s].0 = rw - inc.weight;
                    residual[s].1 = rv - inc.volume;
                    improved = true;
                    continue 'swap;
                }
            }
        }

        if !improved {
            break;
        }
    }
    let profit = packing.profit(problem);
    Solution { packing, profit }
}
