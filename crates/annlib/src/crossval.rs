//! n-fold cross-validation ensembles.
//!
//! Section IV-A: "we use an ensemble method called cross validation ...
//! splitting the training set into n equal-sized folds. Taking n=10, for
//! example, we use folds 1-8 for training, fold 9 for early stopping to avoid
//! overfitting, and fold 10 to estimate performance of the trained model. We
//! train a second model on folds 2-9, use fold 10 for early stopping, and
//! estimate performance on fold 1, and so on. This generates 10 ANNs, and we
//! average their outputs for the final prediction."
//!
//! [`CrossValEnsemble::train`] implements exactly that rotation, wrapping the
//! member networks together with the feature/target scalers fitted on the
//! full training set so that the ensemble is a self-contained predictor.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::error::AnnError;
use crate::metrics;
use crate::network::Mlp;
use crate::scaler::StandardScaler;
use crate::train::{TrainConfig, Trainer, Workspace};

/// Configuration of an ensemble training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleConfig {
    /// Number of folds (and therefore member networks); the paper uses 10.
    pub folds: usize,
    /// Hidden layer sizes of each member network.
    pub hidden: Vec<usize>,
    /// Trainer hyper-parameters shared by all members.
    pub train: TrainConfig,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        Self { folds: 10, hidden: vec![16], train: TrainConfig::default() }
    }
}

impl EnsembleConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), AnnError> {
        if self.folds < 3 {
            return Err(AnnError::InvalidConfig {
                reason: format!(
                    "cross validation needs at least 3 folds (train/stop/test), got {}",
                    self.folds
                ),
            });
        }
        if self.hidden.contains(&0) {
            return Err(AnnError::InvalidConfig {
                reason: "hidden layer sizes must be non-zero".into(),
            });
        }
        self.train.validate()
    }
}

/// Held-out performance of one ensemble member.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoldReport {
    /// Index of the member (0-based).
    pub member: usize,
    /// Index of the fold used for early stopping.
    pub stop_fold: usize,
    /// Index of the fold used to estimate held-out performance.
    pub test_fold: usize,
    /// Mean squared error on the test fold (in scaled target space).
    pub test_mse: f64,
    /// Mean absolute relative error on the test fold (in original target
    /// units).
    pub test_relative_error: f64,
    /// Number of epochs the member trained for.
    pub epochs_run: usize,
}

/// Reusable buffers for [`CrossValEnsemble::predict_batch_into`]: scaled
/// inputs, per-member outputs, running sums and the network ping/pong
/// scratch. All buffers grow to the batch high-water mark and stay there.
#[derive(Debug, Default, Clone)]
pub struct EnsembleScratch {
    scaled: Vec<f64>,
    member_out: Vec<f64>,
    sums: Vec<f64>,
    batch: crate::matrix::BatchScratch,
}

/// A trained cross-validation ensemble: the averaged predictor used by ACTOR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossValEnsemble {
    members: Vec<Mlp>,
    feature_scaler: StandardScaler,
    target_scaler: StandardScaler,
    fold_reports: Vec<FoldReport>,
    output_dim: usize,
}

impl CrossValEnsemble {
    /// Trains an ensemble on `data` using fold rotation: member *i* trains on
    /// all folds except folds *i* (test) and *i+1 mod n* (early stopping).
    pub fn train<R: Rng + ?Sized>(
        data: &Dataset,
        config: &EnsembleConfig,
        rng: &mut R,
    ) -> Result<Self, AnnError> {
        config.validate()?;
        if data.len() < config.folds * 2 {
            return Err(AnnError::InsufficientData {
                requirement: format!(
                    "need at least {} samples for {}-fold cross validation, have {}",
                    config.folds * 2,
                    config.folds,
                    data.len()
                ),
            });
        }

        let feature_scaler = StandardScaler::fit(data.features())?;
        let target_scaler = StandardScaler::fit(data.targets())?;
        let scaled = Dataset::new(
            feature_scaler.transform_all(data.features())?,
            target_scaler.transform_all(data.targets())?,
        )?;

        let folds = scaled.k_folds(config.folds, rng)?;
        let trainer = Trainer::new(config.train.clone())?;
        let mut members = Vec::with_capacity(config.folds);
        let mut fold_reports = Vec::with_capacity(config.folds);
        // One set of kernel buffers trains and scores every member.
        let mut ws = Workspace::default();
        let out_dim = scaled.output_dim();
        let (mut y_orig, mut t_orig) = (vec![0.0; out_dim], vec![0.0; out_dim]);
        let (mut preds, mut obs) = (Vec::new(), Vec::new());

        for member in 0..config.folds {
            let test_fold = member;
            let stop_fold = (member + 1) % config.folds;
            let train_indices: Vec<usize> = (0..config.folds)
                .filter(|&f| f != test_fold && f != stop_fold)
                .flat_map(|f| folds[f].iter().copied())
                .collect();

            let train_set = scaled.subset(&train_indices)?;
            let stop_set = scaled.subset(&folds[stop_fold])?;
            let test_set = scaled.subset(&folds[test_fold])?;

            let mut net = Mlp::sigmoid_regressor(scaled.input_dim(), &config.hidden, out_dim, rng)?;
            let report = trainer.train_in(&mut ws, &mut net, &train_set, &stop_set, rng)?;

            // Held-out error estimates for this member.
            let test_mse = ws.mse(&net, &test_set)?;
            preds.clear();
            obs.clear();
            for i in 0..test_set.len() {
                let (x, t) = test_set.sample(i);
                target_scaler.inverse_into(ws.forward(&net, x)?, &mut y_orig)?;
                target_scaler.inverse_into(t, &mut t_orig)?;
                preds.push(y_orig[0]);
                obs.push(t_orig[0]);
            }
            let rel = metrics::relative_errors(&preds, &obs);
            let test_relative_error =
                if rel.is_empty() { 0.0 } else { rel.iter().sum::<f64>() / rel.len() as f64 };

            fold_reports.push(FoldReport {
                member,
                stop_fold,
                test_fold,
                test_mse,
                test_relative_error,
                epochs_run: report.epochs_run,
            });
            members.push(net);
        }

        Ok(Self {
            members,
            feature_scaler,
            target_scaler,
            fold_reports,
            output_dim: data.output_dim(),
        })
    }

    /// Predicts by averaging the member networks' outputs (in original target
    /// units).
    pub fn predict(&self, features: &[f64]) -> Result<Vec<f64>, AnnError> {
        let x = self.feature_scaler.transform(features)?;
        let mut sum = vec![0.0; self.output_dim];
        for m in &self.members {
            let y = m.predict(&x)?;
            for (s, yi) in sum.iter_mut().zip(&y) {
                *s += yi;
            }
        }
        for s in &mut sum {
            *s /= self.members.len() as f64;
        }
        self.target_scaler.inverse(&sum)
    }

    /// Batched [`CrossValEnsemble::predict`]: predicts every row of `rows`
    /// through every member in member-major batched passes, reusing
    /// `scratch` across calls so steady-state prediction is allocation-free.
    /// Output rows land row-major (`rows.len() × output_dim`) in `outputs`
    /// and are bit-identical to per-row [`CrossValEnsemble::predict`]: the
    /// per-sample member accumulation order, the averaging divide and the
    /// inverse scaling are unchanged.
    pub fn predict_batch_into(
        &self,
        rows: &[Vec<f64>],
        scratch: &mut EnsembleScratch,
        outputs: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        let n = rows.len();
        let in_dim = self.input_dim();
        let out_dim = self.output_dim;
        scratch.scaled.resize(n * in_dim, 0.0);
        for (row, dst) in rows.iter().zip(scratch.scaled.chunks_exact_mut(in_dim)) {
            self.feature_scaler.transform_into(row, dst)?;
        }
        scratch.sums.clear();
        scratch.sums.resize(n * out_dim, 0.0);
        for m in &self.members {
            m.forward_batch_into(
                &scratch.scaled[..n * in_dim],
                n,
                &mut scratch.batch,
                &mut scratch.member_out,
            )?;
            for (s, y) in scratch.sums.iter_mut().zip(&scratch.member_out) {
                *s += y;
            }
        }
        let members = self.members.len() as f64;
        for s in &mut scratch.sums {
            *s /= members;
        }
        outputs.clear();
        outputs.resize(n * out_dim, 0.0);
        for (sum, dst) in scratch.sums.chunks_exact(out_dim).zip(outputs.chunks_exact_mut(out_dim))
        {
            self.target_scaler.inverse_into(sum, dst)?;
        }
        Ok(())
    }

    /// Convenience wrapper over [`CrossValEnsemble::predict_batch_into`]
    /// returning one prediction row per input row.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, AnnError> {
        let mut scratch = EnsembleScratch::default();
        let mut flat = Vec::new();
        self.predict_batch_into(rows, &mut scratch, &mut flat)?;
        Ok(flat.chunks_exact(self.output_dim).map(<[f64]>::to_vec).collect())
    }

    /// Number of member networks.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Per-member held-out reports.
    pub fn fold_reports(&self) -> &[FoldReport] {
        &self.fold_reports
    }

    /// Mean of the members' held-out relative errors — a cheap generalisation
    /// estimate produced as a by-product of cross validation.
    pub fn mean_holdout_relative_error(&self) -> f64 {
        if self.fold_reports.is_empty() {
            return 0.0;
        }
        self.fold_reports.iter().map(|r| r.test_relative_error).sum::<f64>()
            / self.fold_reports.len() as f64
    }

    /// Input dimensionality expected by [`CrossValEnsemble::predict`].
    pub fn input_dim(&self) -> usize {
        self.feature_scaler.dim()
    }

    /// Serialises the ensemble to JSON.
    pub fn to_json(&self) -> Result<String, AnnError> {
        serde_json::to_string(self)
            .map_err(|e| AnnError::InvalidConfig { reason: format!("serialisation failed: {e}") })
    }

    /// Restores an ensemble from JSON produced by [`CrossValEnsemble::to_json`].
    pub fn from_json(json: &str) -> Result<Self, AnnError> {
        serde_json::from_str(json)
            .map_err(|e| AnnError::InvalidConfig { reason: format!("deserialisation failed: {e}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn quadratic_dataset(n: usize, seed: u64) -> Dataset {
        quadratic_dataset_from(n, &mut StdRng::seed_from_u64(seed))
    }

    fn quadratic_dataset_from(n: usize, rng: &mut StdRng) -> Dataset {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]
            })
            .collect();
        let ys: Vec<Vec<f64>> =
            xs.iter().map(|x| vec![1.5 + 2.0 * x[0] - x[1] * x[1] + 0.5 * x[2] * x[0]]).collect();
        Dataset::new(xs, ys).unwrap()
    }

    fn fast_config(folds: usize) -> EnsembleConfig {
        EnsembleConfig {
            folds,
            hidden: vec![10],
            train: TrainConfig { max_epochs: 120, patience: 12, ..Default::default() },
        }
    }

    #[test]
    fn config_validation() {
        assert!(EnsembleConfig::default().validate().is_ok());
        assert!(EnsembleConfig { folds: 2, ..Default::default() }.validate().is_err());
        assert!(EnsembleConfig { hidden: vec![0], ..Default::default() }.validate().is_err());
    }

    #[test]
    fn rejects_too_small_datasets() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = quadratic_dataset(8, 2);
        assert!(CrossValEnsemble::train(&data, &fast_config(10), &mut rng).is_err());
    }

    #[test]
    fn ensemble_learns_and_generalises() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = quadratic_dataset(300, 3);
        let ensemble = CrossValEnsemble::train(&data, &fast_config(5), &mut rng).unwrap();
        assert_eq!(ensemble.num_members(), 5);
        assert_eq!(ensemble.input_dim(), 3);
        assert_eq!(ensemble.fold_reports().len(), 5);

        // Fresh points from the same generator family.
        let probe = quadratic_dataset(50, 99);
        let mut preds = Vec::new();
        let mut obs = Vec::new();
        for i in 0..probe.len() {
            let (x, t) = probe.sample(i);
            preds.push(ensemble.predict(x).unwrap()[0]);
            obs.push(t[0]);
        }
        let rel = metrics::relative_errors(&preds, &obs);
        let mean_rel = rel.iter().sum::<f64>() / rel.len() as f64;
        // 0.30 rather than 0.25: the vendored PRNG (xoshiro256++) draws a
        // slightly harder train/probe split for this seed than upstream
        // rand's ChaCha did; the ensemble still generalises.
        assert!(mean_rel < 0.30, "ensemble mean relative error too high: {mean_rel}");
        assert!(ensemble.mean_holdout_relative_error() < 0.5);
    }

    #[test]
    fn fold_rotation_uses_distinct_stop_and_test_folds() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = quadratic_dataset(120, 5);
        let ensemble = CrossValEnsemble::train(&data, &fast_config(4), &mut rng).unwrap();
        for r in ensemble.fold_reports() {
            assert_ne!(r.stop_fold, r.test_fold);
            assert!(r.stop_fold < 4 && r.test_fold < 4);
            assert!(r.epochs_run >= 1);
        }
        // Every fold serves as the test fold exactly once.
        let mut test_folds: Vec<usize> =
            ensemble.fold_reports().iter().map(|r| r.test_fold).collect();
        test_folds.sort_unstable();
        assert_eq!(test_folds, vec![0, 1, 2, 3]);
    }

    #[test]
    fn predict_validates_dimension() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = quadratic_dataset(80, 7);
        let ensemble = CrossValEnsemble::train(&data, &fast_config(4), &mut rng).unwrap();
        assert!(ensemble.predict(&[1.0]).is_err());
        assert!(ensemble.predict(&[0.0, 0.0, 0.0]).is_ok());
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(8);
        let data = quadratic_dataset(100, 9);
        let ensemble = CrossValEnsemble::train(&data, &fast_config(4), &mut rng).unwrap();
        let json = ensemble.to_json().unwrap();
        let restored = CrossValEnsemble::from_json(&json).unwrap();
        let x = [0.2, -0.4, 0.6];
        assert_eq!(ensemble.predict(&x).unwrap(), restored.predict(&x).unwrap());
        assert!(CrossValEnsemble::from_json("{not json").is_err());
    }

    #[test]
    fn predict_batch_is_bitwise_predict() {
        let mut rng = StdRng::seed_from_u64(12);
        let data = quadratic_dataset(100, 13);
        let ensemble = CrossValEnsemble::train(&data, &fast_config(4), &mut rng).unwrap();
        let probes: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![0.3 * i as f64 - 1.2, 0.1 * i as f64, 1.0 - 0.2 * i as f64])
            .collect();
        let batched = ensemble.predict_batch(&probes).unwrap();
        for (row, out) in probes.iter().zip(&batched) {
            let single = ensemble.predict(row).unwrap();
            for (a, b) in out.iter().zip(&single) {
                assert_eq!(a.to_bits(), b.to_bits(), "batched ensemble prediction diverged");
            }
        }
        // Scratch reuse across batch sizes keeps the identity.
        let mut scratch = EnsembleScratch::default();
        let mut flat = Vec::new();
        ensemble.predict_batch_into(&probes, &mut scratch, &mut flat).unwrap();
        ensemble.predict_batch_into(&probes[..2], &mut scratch, &mut flat).unwrap();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat[0].to_bits(), ensemble.predict(&probes[0]).unwrap()[0].to_bits());
        assert!(ensemble.predict_batch(&[vec![1.0]]).is_err());
    }

    /// Pins the bits of a two-hidden-layer ensemble (weight decay on, mixed
    /// early-stopped and full-length members), so any change to the
    /// training arithmetic or to the random draws shows up here.
    #[test]
    fn golden_ensemble_bits_are_pinned() {
        let mut rng = StdRng::seed_from_u64(2007);
        let data = quadratic_dataset_from(90, &mut rng);
        let config = EnsembleConfig {
            folds: 5,
            hidden: vec![6, 4],
            train: TrainConfig { max_epochs: 60, patience: 8, ..Default::default() },
        };
        let ensemble = CrossValEnsemble::train(&data, &config, &mut rng).unwrap();
        let pred = ensemble.predict(&[0.25, -0.5, 0.75]).unwrap()[0];
        assert_eq!(pred.to_bits(), 0x3ff9_ba12_5983_ceac, "prediction {pred}");
        let epochs: Vec<usize> = ensemble.fold_reports().iter().map(|r| r.epochs_run).collect();
        assert_eq!(epochs, [60, 60, 9, 59, 17]);
        let test_mse: Vec<u64> =
            ensemble.fold_reports().iter().map(|r| r.test_mse.to_bits()).collect();
        assert_eq!(
            test_mse,
            [
                0x3fb2_f511_10fa_56c9,
                0x3fc0_8b25_7ae8_7734,
                0x3ff1_2f52_65be_f6b9,
                0x3fbd_9478_d13c_8164,
                0x3ff3_c71e_a00a_3a24
            ]
        );
        assert_eq!(rng.gen::<u64>(), 0xc5c1_40cb_5316_ef20, "the draw count moved");
    }

    #[test]
    fn ensemble_is_deterministic_for_a_seed() {
        let data = quadratic_dataset(120, 10);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let e = CrossValEnsemble::train(&data, &fast_config(4), &mut rng).unwrap();
            e.predict(&[0.1, 0.1, 0.1]).unwrap()[0]
        };
        assert_eq!(run(42), run(42));
    }
}
