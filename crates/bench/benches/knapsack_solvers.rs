//! Theorem-1 bench: the MCMK solver stack on TATIM-shaped instances.
//!
//! Quantifies the paper's motivating cost asymmetry: the exact solver's
//! latency grows combinatorially with the task count while the greedy
//! heuristic (and, in the full system, the learned allocators) stay cheap —
//! which is why re-solving "repeatedly under varying contexts" demands the
//! data-driven path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use knapsack::dp::single_sack_2d_dp;
use knapsack::exact::{BranchAndBound, SolverOptions};
use knapsack::generator::{generate, GeneratorConfig};
use knapsack::greedy::{greedy, greedy_with_local_search};
use knapsack::problem::{Item, Problem, Sack};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn instance(n: usize, m: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    generate(GeneratorConfig { num_items: n, num_sacks: m, ..Default::default() }, &mut rng)
}

/// A mesh-round-shaped instance: four unit-volume items per sack and time
/// budgets so tight (half the sacks route-deflated to the floor) that
/// about three quarters of the items stay out. The generated sizes above
/// never reach the regime where local search scans every unpacked item
/// against every packed one.
fn mesh_instance(sacks: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let items = (0..4 * sacks)
        .map(|_| Item::new(rng.gen_range(0.1..1.9), 1.0, rng.gen_range(0.0..1.0)).expect("valid"))
        .collect();
    let sacks = (0..sacks)
        .map(|_| {
            let time = if rng.gen_bool(0.5) { 0.27 } else { rng.gen_range(0.27..1.5) };
            Sack::new(time, 4.0).expect("valid")
        })
        .collect();
    Problem::new(items, sacks).expect("sacks non-empty")
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("knapsack_solvers");
    group.sample_size(20);
    for &(n, m) in &[(10usize, 3usize), (20, 5), (50, 9)] {
        let p = instance(n, m, 42);
        group.bench_with_input(BenchmarkId::new("greedy", format!("{n}x{m}")), &p, |b, p| {
            b.iter(|| black_box(greedy(p)))
        });
        group.bench_with_input(
            BenchmarkId::new("greedy_local_search", format!("{n}x{m}")),
            &p,
            |b, p| b.iter(|| black_box(greedy_with_local_search(p))),
        );
        // Exact with a node cap so the 50x9 case stays measurable.
        group.bench_with_input(
            BenchmarkId::new("branch_and_bound_100k", format!("{n}x{m}")),
            &p,
            |b, p| {
                b.iter(|| {
                    black_box(
                        BranchAndBound::with_options(SolverOptions::new().node_limit(100_000))
                            .solve(p),
                    )
                })
            },
        );
    }
    let mesh = mesh_instance(1000, 42);
    group.bench_with_input(
        BenchmarkId::new("greedy_local_search", "mesh_4000x1000"),
        &mesh,
        |b, p| b.iter(|| black_box(greedy_with_local_search(p))),
    );
    group.finish();
}

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("knapsack_dp");
    group.sample_size(20);
    for &n in &[10usize, 20, 40] {
        let base = instance(n, 1, 7);
        // Rescale to one sack with integer-friendly capacities.
        let p = Problem::new(base.items().to_vec(), vec![Sack::new(25.0, 25.0).unwrap()])
            .expect("one sack");
        group.bench_with_input(BenchmarkId::new("single_sack_2d", n), &p, |b, p| {
            b.iter(|| black_box(single_sack_2d_dp(p, 0.5, 1 << 26).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_dp);
criterion_main!(benches);
