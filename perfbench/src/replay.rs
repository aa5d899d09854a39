//! The model-building pipeline replayed stage by stage through public calls,
//! so a traced run can split its time between `core`, `annlib` and
//! `xeon-sim` without instrumenting the library.
//!
//! [`loo_evaluations`] performs the same calls, in the same order and with
//! the same random draws, as `actor_core::evaluate_benchmarks`; its output
//! is therefore identical to the library's, which the benchmark checks by
//! comparing output digests of traced and untraced runs.

use annlib::CrossValEnsemble;
use npb_workloads::BenchmarkProfile;
use rand::Rng;
use xeon_sim::{Configuration, Machine};

use actor_core::{
    sample_phase, select_configuration, ActorConfig, ActorError, BenchmarkEvaluation,
    PhaseEvaluation, SamplingPlan, TrainingCorpus,
};

use crate::trace::Tracer;

/// Work counts of one replay, for the per-layer rates.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageCounts {
    /// Cross-validation ensembles trained.
    pub trainings: usize,
    /// Networks trained across those ensembles (one per fold).
    pub folds: usize,
    /// Feature rows passed through a prediction.
    pub predicted_rows: usize,
    /// Ladder pre-simulations (`simulate_config_ladder` calls).
    pub presim_calls: usize,
}

/// Leave-one-out evaluation of `benchmarks`, one span per library call:
/// `core.corpus`, `core.dataset`, `annlib.train`, `core.sample`,
/// `annlib.predict` and `xeon-sim.simulate`.
pub fn loo_evaluations<R: Rng + ?Sized>(
    t: &mut Tracer,
    counts: &mut StageCounts,
    machine: &Machine,
    config: &ActorConfig,
    benchmarks: &[BenchmarkProfile],
    rng: &mut R,
) -> Result<Vec<BenchmarkEvaluation>, ActorError> {
    config.predictor.validate()?;
    let plans: Vec<SamplingPlan> = benchmarks
        .iter()
        .map(|b| SamplingPlan::for_benchmark(b, config))
        .collect::<Result<_, _>>()?;

    let mut corpora: Vec<(SamplingPlan, TrainingCorpus)> = Vec::new();
    for plan in &plans {
        if corpora.iter().any(|(p, _)| p.event_set == plan.event_set) {
            continue;
        }
        let corpus = t.span("core.corpus", |_| {
            TrainingCorpus::build(
                machine,
                benchmarks,
                &plan.event_set,
                config.corpus_replicas,
                config.corpus_noise,
                rng,
            )
        })?;
        corpora.push((plan.clone(), corpus));
    }

    let ensemble_config = config.predictor.ensemble();
    let mut evaluations = Vec::with_capacity(benchmarks.len());
    for (bench, plan) in benchmarks.iter().zip(&plans) {
        let corpus = &corpora
            .iter()
            .find(|(p, _)| p.event_set == plan.event_set)
            .expect("a corpus was built for every event set")
            .1;
        let training = t.span("core.dataset", |_| corpus.excluding(bench.id));
        if training.is_empty() {
            return Err(ActorError::EmptyCorpus {
                reason: format!("no training data remains after excluding {}", bench.id),
            });
        }
        let mut models: Vec<(Configuration, CrossValEnsemble)> = Vec::new();
        for &target in &Configuration::TARGETS {
            let dataset = t.span("core.dataset", |_| training.dataset_for_target(target))?;
            let ensemble = t.span("annlib.train", |_| {
                CrossValEnsemble::train(&dataset, &ensemble_config, rng)
            })?;
            counts.trainings += 1;
            counts.folds += ensemble.num_members();
            models.push((target, ensemble));
        }

        let sampled = t.span("core.sample", |_| {
            bench
                .phases
                .iter()
                .map(|phase| sample_phase(machine, phase, plan, config.measurement_noise, rng))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let features: Vec<Vec<f64>> = sampled.iter().map(|r| r.features()).collect();
        let predictions = t.span("annlib.predict", |_| -> Result<_, ActorError> {
            let mut rows: Vec<Vec<(Configuration, f64)>> = vec![Vec::new(); features.len()];
            for (target, model) in &models {
                for (row, out) in rows.iter_mut().zip(model.predict_batch(&features)?) {
                    // The predictor clamps negative IPC artefacts to zero.
                    row.push((*target, out[0].max(0.0)));
                }
            }
            Ok(rows)
        })?;
        counts.predicted_rows += features.len();

        let observed: Vec<Vec<(Configuration, f64)>> = t.span("xeon-sim.simulate", |_| {
            bench
                .phases
                .iter()
                .map(|phase| {
                    Configuration::ALL
                        .iter()
                        .map(|&c| (c, machine.simulate_config(phase, c).aggregate_ipc))
                        .collect()
                })
                .collect()
        });

        let phases = bench
            .phases
            .iter()
            .zip(&sampled)
            .zip(predictions.iter().zip(observed))
            .map(|((phase, rates), (predicted, observed_ipc))| PhaseEvaluation {
                phase_name: phase.name.clone(),
                features: rates.features(),
                decision: select_configuration(rates.ipc(), predicted),
                observed_ipc,
            })
            .collect();
        let holdout = models.iter().map(|(_, m)| m.mean_holdout_relative_error()).sum::<f64>()
            / models.len() as f64;
        evaluations.push(BenchmarkEvaluation {
            id: bench.id,
            plan: plan.clone(),
            model_holdout_error: holdout,
            phases,
        });
    }
    Ok(evaluations)
}

/// The ladder pre-simulation a cluster workload model performs: every
/// phase on every configuration across the frequency ladder, in one
/// `xeon-sim.presim` span.
pub fn ladder_presim(
    t: &mut Tracer,
    counts: &mut StageCounts,
    machine: &Machine,
    benchmarks: &[BenchmarkProfile],
) -> usize {
    t.span("xeon-sim.presim", |_| {
        let mut executions = 0;
        for phase in benchmarks.iter().flat_map(|b| &b.phases) {
            for &c in &Configuration::ALL {
                executions += std::hint::black_box(machine.simulate_config_ladder(phase, c)).len();
                counts.presim_calls += 1;
            }
        }
        executions
    })
}
