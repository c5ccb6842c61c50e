//! A `Send + Sync` prepared pipeline for concurrent serving.
//!
//! [`crate::pipeline::PreparedPipeline`] is a batch artefact: it borrows its
//! scenario, takes `&mut self` everywhere (a shared RNG, lazily-trained CRL
//! agents, accumulating stores), and therefore serves exactly one caller.
//! [`PreparedCore`] is its frozen counterpart for a serving layer: it owns
//! its scenario, every method takes `&self`, and all interior state is
//! thread-safe — the sharded [`crate::cache::ImportanceCache`], the per-key
//! `OnceLock` agent slots inside the frozen CRL allocators, and per-request
//! seeded RNG for the one stochastic baseline. Both are forms of one
//! [`Prepared`] type and run the same online algorithm; only their
//! [`FrozenLearners`] and what they let a caller mutate differ.
//!
//! ## Determinism contract
//!
//! For every method except [`crate::pipeline::Method::RandomMapping`], a `PreparedCore` run
//! is bit-identical to the same [`RunSpec`] on a `PreparedPipeline` built
//! with `.pretrain(true)` — frozen agents are trained with the `pretrain`
//! per-key seed formula, so neither request order, nor request interleaving,
//! nor the number of serving threads can change a single answer bit.
//! `RandomMapping` draws from a fresh RNG seeded by `(config.seed, day)`
//! instead of the batch pipeline's sequential shared stream: still fully
//! deterministic and interleaving-invariant, but its draws differ from the
//! mutable pipeline's (which depend on how many allocations preceded them —
//! a history no concurrent server can meaningfully reproduce).
//!
//! The frozen core deliberately has no `observe_day`, and its Proactive runs
//! only read the availability posterior, never absorb into it: the
//! accumulating stores are batch facilities. Re-prepare and re-freeze to
//! fold new days or failure history in.

use crate::allocation::Allocation;
use crate::baselines::random_mapping;
use crate::crl_alloc::{CrlOutcome, SharedCrlAllocator};
use crate::dcta::{DctaOutcome, SharedDcta};
use crate::objective::{AllocOutcome, AllocQuery};
use crate::pipeline::{Learners, PipelineError, Prepared, RunReport, RunSpec};
use crate::tatim::TatimInstance;
use buildings::scenario::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The frozen form of [`Prepared`], for concurrent `&self` serving (see the
/// module docs for the determinism contract). Built by
/// [`crate::pipeline::PreparedPipeline::into_core`].
pub type PreparedCore = Prepared<Scenario, FrozenLearners>;

/// The learned allocators of a [`PreparedCore`]: frozen CRL and DCTA whose
/// per-key agents train race-free on first touch, and a RandomMapping that
/// draws from a fresh RNG per `(seed, day)`.
#[derive(Debug)]
pub struct FrozenLearners {
    pub(crate) crl: SharedCrlAllocator,
    pub(crate) dcta: SharedDcta,
}

impl Learners for &FrozenLearners {
    const LEARNS_AVAILABILITY: bool = false;

    fn crl(
        &mut self,
        blind: &TatimInstance,
        signature: &[f64],
    ) -> Result<CrlOutcome, PipelineError> {
        Ok(self.crl.allocate(blind, signature)?)
    }

    fn dcta(
        &mut self,
        blind: &TatimInstance,
        signature: &[f64],
        local_rows: &[Vec<f64>],
    ) -> Result<DctaOutcome, PipelineError> {
        Ok(self.dcta.allocate(blind, signature, local_rows)?)
    }

    fn random_mapping(&mut self, blind: &TatimInstance, seed: u64, day: usize) -> Allocation {
        // Keyed by (seed, day): deterministic and interleaving-invariant,
        // unlike the batch pipeline's sequential shared stream.
        let mut rng = StdRng::seed_from_u64(
            seed ^ 0x51AB ^ (day as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        random_mapping(blind, &mut rng)
    }
}

impl PreparedCore {
    /// The scenario under evaluation (owned by the core).
    pub fn scenario(&self) -> &Scenario {
        self.frame.scenario()
    }

    /// The frozen general process (per-key agents for Q-value serving).
    pub fn crl(&self) -> &SharedCrlAllocator {
        &self.learners.crl
    }

    /// The frozen cooperative allocator.
    pub fn dcta(&self) -> &SharedDcta {
        &self.learners.dcta
    }

    /// Produces the allocation described by `query` — the `&self`
    /// counterpart of [`crate::pipeline::PreparedPipeline::allocate`],
    /// with the same typed [`crate::objective::Objective`] semantics.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn allocate(&self, query: &AllocQuery) -> Result<AllocOutcome, PipelineError> {
        self.frame.allocate(&mut &self.learners, query)
    }

    /// Executes one evaluation run described by `spec` — the `&self`
    /// counterpart of [`crate::pipeline::PreparedPipeline::run`].
    ///
    /// `spec`'s thread override is ignored: the ambient thread count is a
    /// process-global knob, and scoping it per request from concurrent
    /// serving threads would race. Results are thread-count invariant
    /// anyway (§8.1); a serving layer's concurrency comes from its own
    /// worker pool.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn run(&self, spec: &RunSpec) -> Result<RunReport, PipelineError> {
        self.frame.run(&mut &self.learners, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DayReport, Method, Pipeline, PipelineConfig};
    use crate::recovery::RecoveryMode;
    use buildings::scenario::ScenarioConfig;
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

    #[test]
    fn core_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedCore>();
    }

    #[test]
    fn core_reports_match_pretrained_pipeline_bitwise() {
        let s = small_scenario();
        let mut reference = Pipeline::builder(quick_config()).pretrain(true).prepare(&s).unwrap();
        let core = Pipeline::builder(quick_config())
            .pretrain(false)
            .prepare(&s)
            .unwrap()
            .into_core()
            .unwrap();
        let day = core.test_days().start;
        // Every deterministic method: bit-identical PT and H.
        for method in
            [Method::Dml, Method::GreedyOracle, Method::ExactOracle, Method::Crl, Method::Dcta]
        {
            let want = reference.run(&RunSpec::new(method, day)).unwrap().into_healthy().unwrap();
            let got = core.run(&RunSpec::new(method, day)).unwrap().into_healthy().unwrap();
            assert_eq!(
                got.processing_time_s.to_bits(),
                want.processing_time_s.to_bits(),
                "{method} PT"
            );
            assert_eq!(
                got.decision_performance.to_bits(),
                want.decision_performance.to_bits(),
                "{method} H"
            );
            assert_eq!(got.allocation, want.allocation, "{method} allocation");
        }
    }

    #[test]
    fn concurrent_runs_are_interleaving_invariant() {
        let s = small_scenario();
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap().into_core().unwrap();
        let days: Vec<usize> = core.test_days().take(3).collect();
        let solo: Vec<DayReport> = days
            .iter()
            .map(|&d| core.run(&RunSpec::new(Method::Dcta, d)).unwrap().into_healthy().unwrap())
            .collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let core = &core;
                let solo = &solo;
                let days = &days;
                scope.spawn(move || {
                    let mut order: Vec<usize> = (0..days.len()).collect();
                    if t % 2 == 1 {
                        order.reverse();
                    }
                    for i in order {
                        let got = core
                            .run(&RunSpec::new(Method::Dcta, days[i]))
                            .unwrap()
                            .into_healthy()
                            .unwrap();
                        assert_eq!(got, solo[i], "thread {t} day {}", days[i]);
                    }
                });
            }
        });
    }

    #[test]
    fn faulted_runs_work_through_the_core() {
        let s = small_scenario();
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap().into_core().unwrap();
        let day = core.test_days().start;
        let victim = core.fleet().node_of(0);
        let schedule = FaultSchedule::new().with_crash(victim, 0.2).unwrap();
        let spec = RunSpec::new(Method::Dml, day).with_faults(schedule, RecoveryMode::Resolve);
        let report = core.run(&spec).unwrap().into_faulted().unwrap();
        assert_eq!(report.day, day);
        assert!(report.retained_fraction >= 0.0);
        // Same spec twice: the simulated outcome is bit-identical (the core
        // is stateless per run). `reallocation_latency_s` is measured
        // wall-clock, so `processing_time_s` is excluded by design.
        let again = core.run(&spec).unwrap().into_faulted().unwrap();
        assert_eq!(report.allocation, again.allocation);
        assert_eq!(
            report.simulated_processing_time_s.to_bits(),
            again.simulated_processing_time_s.to_bits()
        );
        assert_eq!(report.decision_performance.to_bits(), again.decision_performance.to_bits());
        assert_eq!(report.delivered_importance.to_bits(), again.delivered_importance.to_bits());
        assert_eq!(report.shed, again.shed);
        assert_eq!(report.lost, again.lost);
        assert_eq!(report.failures, again.failures);
    }

    #[test]
    fn random_mapping_is_deterministic_per_day() {
        let s = small_scenario();
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap().into_core().unwrap();
        let day = core.test_days().start;
        let a = core.allocate(&AllocQuery::new(Method::RandomMapping, day)).unwrap().allocation;
        let b = core.allocate(&AllocQuery::new(Method::RandomMapping, day)).unwrap().allocation;
        assert_eq!(a, b, "same (seed, day) must draw the same mapping");
        let c = core.allocate(&AllocQuery::new(Method::RandomMapping, day + 1)).unwrap().allocation;
        assert_ne!(a, c, "different days draw different mappings");
    }

    #[test]
    fn bad_day_rejected() {
        let s = small_scenario();
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap().into_core().unwrap();
        assert!(matches!(
            core.run(&RunSpec::new(Method::Dml, 0)),
            Err(PipelineError::BadDay { .. })
        ));
        assert!(matches!(core.signature_of_day(999), Err(PipelineError::BadDay { .. })));
    }
}
