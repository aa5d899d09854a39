//! Backpropagation training with early stopping.
//!
//! Implements the paper's training procedure (Section IV-A): iterative
//! presentation of training samples, gradient descent on the squared error
//! via the backpropagation update rule (Equation 1), and *early stopping*
//! against a validation set "where we keep aside a validation set from the
//! training data and halt training as accuracy begins to decrease on this
//! set", restoring the best weights seen.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::error::AnnError;
use crate::matrix::Matrix;
use crate::network::Mlp;

/// Hyper-parameters of the backpropagation trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate η of the weight update rule.
    pub learning_rate: f64,
    /// Momentum coefficient applied to the previous update.
    pub momentum: f64,
    /// Maximum number of passes over the training set.
    pub max_epochs: usize,
    /// Early stopping patience: number of consecutive epochs without
    /// validation improvement tolerated before halting.
    pub patience: usize,
    /// Minimum relative improvement of the validation MSE that counts as
    /// progress.
    pub min_delta: f64,
    /// Optional L2 weight decay.
    pub weight_decay: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            momentum: 0.6,
            max_epochs: 400,
            patience: 20,
            min_delta: 1e-5,
            weight_decay: 1e-5,
        }
    }
}

impl TrainConfig {
    /// Validates the hyper-parameters.
    pub fn validate(&self) -> Result<(), AnnError> {
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(AnnError::InvalidConfig {
                reason: format!("learning_rate must be positive, got {}", self.learning_rate),
            });
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(AnnError::InvalidConfig {
                reason: format!("momentum must be in [0,1), got {}", self.momentum),
            });
        }
        if self.max_epochs == 0 {
            return Err(AnnError::InvalidConfig { reason: "max_epochs must be >= 1".into() });
        }
        if self.weight_decay < 0.0 || !self.weight_decay.is_finite() {
            return Err(AnnError::InvalidConfig {
                reason: format!("weight_decay must be non-negative, got {}", self.weight_decay),
            });
        }
        // A NaN or >= 1 threshold means no epoch ever improves, so training
        // would silently return the initial weights.
        if !(0.0..1.0).contains(&self.min_delta) {
            return Err(AnnError::InvalidConfig {
                reason: format!("min_delta must be in [0,1), got {}", self.min_delta),
            });
        }
        Ok(())
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Number of epochs actually executed.
    pub epochs_run: usize,
    /// Whether early stopping triggered before `max_epochs`.
    pub early_stopped: bool,
    /// Training MSE at the final (restored) weights.
    pub final_train_mse: f64,
    /// Best validation MSE observed (the restored weights achieve it).
    pub best_val_mse: f64,
    /// Validation MSE per epoch (useful for plotting learning curves).
    pub val_mse_history: Vec<f64>,
}

/// Backpropagation trainer.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given hyper-parameters.
    pub fn new(config: TrainConfig) -> Result<Self, AnnError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` in place on `train`, early-stopping on `val`.
    ///
    /// The network, training set and validation set must agree on input and
    /// output dimensionality.
    pub fn train<R: Rng + ?Sized>(
        &self,
        net: &mut Mlp,
        train: &Dataset,
        val: &Dataset,
        rng: &mut R,
    ) -> Result<TrainReport, AnnError> {
        self.train_in(&mut Workspace::default(), net, train, val, rng)
    }

    /// [`Trainer::train`] through a caller-owned [`Workspace`], so several
    /// trainings of same-shaped networks share one set of buffers. After
    /// the per-call setup (velocities, the best-weights snapshot, the sample
    /// order) an epoch allocates only when `val_mse_history` grows.
    pub(crate) fn train_in<R: Rng + ?Sized>(
        &self,
        ws: &mut Workspace,
        net: &mut Mlp,
        train: &Dataset,
        val: &Dataset,
        rng: &mut R,
    ) -> Result<TrainReport, AnnError> {
        self.check_dims(net, train)?;
        self.check_dims(net, val)?;

        let mut velocities: Vec<(Matrix, Vec<f64>)> = net
            .layers()
            .iter()
            .map(|l| (Matrix::zeros(l.weights.rows(), l.weights.cols()), vec![0.0; l.biases.len()]))
            .collect();

        let mut best = net.clone();
        let mut best_val = ws.mse(net, val)?;
        let mut since_improvement = 0usize;
        let mut history = Vec::new();
        let mut epochs_run = 0usize;
        let mut early_stopped = false;

        let mut order: Vec<usize> = (0..train.len()).collect();

        for _epoch in 0..self.config.max_epochs {
            epochs_run += 1;
            order.shuffle(rng);
            for &idx in &order {
                let (x, t) = train.sample(idx);
                self.sgd_step(ws, net, x, t, &mut velocities)?;
            }
            if !net.is_finite() {
                return Err(AnnError::NumericalInstability);
            }

            let val_mse = ws.mse(net, val)?;
            history.push(val_mse);
            if val_mse < best_val * (1.0 - self.config.min_delta) {
                best_val = val_mse;
                best.copy_params_from(net);
                since_improvement = 0;
            } else {
                since_improvement += 1;
                if since_improvement > self.config.patience {
                    early_stopped = true;
                    break;
                }
            }
        }

        // Restore the best weights seen on the validation set.
        *net = best;
        let final_train_mse = ws.mse(net, train)?;
        Ok(TrainReport {
            epochs_run,
            early_stopped,
            final_train_mse,
            best_val_mse: best_val,
            val_mse_history: history,
        })
    }

    fn check_dims(&self, net: &Mlp, data: &Dataset) -> Result<(), AnnError> {
        if data.input_dim() != net.input_dim() {
            return Err(AnnError::DimensionMismatch {
                expected: net.input_dim(),
                actual: data.input_dim(),
            });
        }
        if data.output_dim() != net.output_dim() {
            return Err(AnnError::DimensionMismatch {
                expected: net.output_dim(),
                actual: data.output_dim(),
            });
        }
        Ok(())
    }

    /// One stochastic gradient step on a single sample (the iterative
    /// per-sample presentation described in the paper), through `ws`.
    ///
    /// Walking the layers backwards, one fused pass over each weight matrix
    /// propagates the delta to the layer below (from the weights before
    /// this step's update) and applies, per element and in this order,
    /// `v *= momentum; v += (-lr·δ_r)·a_c; v += (-lr·decay)·w; w += 1.0·v`.
    fn sgd_step(
        &self,
        ws: &mut Workspace,
        net: &mut Mlp,
        input: &[f64],
        target: &[f64],
        velocities: &mut [(Matrix, Vec<f64>)],
    ) -> Result<(), AnnError> {
        ws.forward(net, input)?;
        let Workspace { outputs, delta: delta_buf, next_delta: next_buf } = ws;
        let num_layers = net.layers().len();

        // Output-layer delta: dE/dnet = (o - t) * f'(o) for squared error.
        let output = &outputs[num_layers - 1];
        let act = net.layers()[num_layers - 1].activation;
        for ((d, o), t) in delta_buf.iter_mut().zip(output).zip(target) {
            *d = (o - t) * act.derivative_from_output(*o);
        }

        let lr = self.config.learning_rate;
        let momentum = self.config.momentum;
        let decay = self.config.weight_decay;
        let decay_step = -lr * decay;

        for layer_idx in (0..num_layers).rev() {
            let below = if layer_idx == 0 { input } else { &outputs[layer_idx - 1] };
            let propagate = layer_idx > 0;
            let layer = &mut net.layers_mut()[layer_idx];
            let (rows, cols) = (layer.outputs(), layer.inputs());
            let delta = &delta_buf[..rows];
            let next = &mut next_buf[..cols];
            next.fill(0.0);
            let (vel_w, vel_b) = &mut velocities[layer_idx];

            let weight_rows = layer.weights.as_mut_slice().chunks_exact_mut(cols);
            let vel_rows = vel_w.as_mut_slice().chunks_exact_mut(cols);
            for ((w_row, v_row), &d) in weight_rows.zip(vel_rows).zip(delta) {
                let grad_step = -lr * d;
                for (((w, v), a), n) in
                    w_row.iter_mut().zip(v_row.iter_mut()).zip(below).zip(next.iter_mut())
                {
                    if propagate {
                        *n += *w * d;
                    }
                    *v *= momentum;
                    *v += grad_step * a;
                    if decay > 0.0 {
                        *v += decay_step * *w;
                    }
                    *w += 1.0 * *v;
                }
            }

            for ((vb, b), d) in vel_b.iter_mut().zip(layer.biases.iter_mut()).zip(delta) {
                *vb = momentum * *vb - lr * d;
                *b += *vb;
            }

            if propagate {
                let act = net.layers()[layer_idx - 1].activation;
                for (n, y) in next.iter_mut().zip(below) {
                    *n *= act.derivative_from_output(*y);
                }
                std::mem::swap(delta_buf, next_buf);
            }
        }
        Ok(())
    }
}

/// Reusable buffers of the training kernel: the activated output of every
/// layer, plus a delta and a next-delta buffer as wide as the widest layer.
/// They are sized to the network on each forward pass, which allocates only
/// when the shape grows, so a training and the scoring of its held-out data
/// run on one set of buffers.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// `outputs[i]` is the activated output of layer `i`.
    outputs: Vec<Vec<f64>>,
    delta: Vec<f64>,
    next_delta: Vec<f64>,
}

impl Workspace {
    /// Forward pass of `net` on `input`; returns the network output.
    pub(crate) fn forward(&mut self, net: &Mlp, input: &[f64]) -> Result<&[f64], AnnError> {
        self.fit(net);
        for (i, layer) in net.layers().iter().enumerate() {
            let (done, rest) = self.outputs.split_at_mut(i);
            layer.forward_into(done.last().map_or(input, Vec::as_slice), &mut rest[0])?;
        }
        Ok(&self.outputs[net.layers().len() - 1])
    }

    /// Mean squared error of `net` over `data`.
    pub(crate) fn mse(&mut self, net: &Mlp, data: &Dataset) -> Result<f64, AnnError> {
        let mut total = 0.0;
        let mut count = 0usize;
        for i in 0..data.len() {
            let (x, t) = data.sample(i);
            for (yi, ti) in self.forward(net, x)?.iter().zip(t) {
                let d = yi - ti;
                total += d * d;
                count += 1;
            }
        }
        Ok(total / count.max(1) as f64)
    }

    /// Sizes the buffers to `net`'s layers.
    fn fit(&mut self, net: &Mlp) {
        let layers = net.layers();
        self.outputs.resize_with(layers.len(), Vec::new);
        for (buf, layer) in self.outputs.iter_mut().zip(layers) {
            buf.resize(layer.outputs(), 0.0);
        }
        let widest = layers.iter().map(|l| l.outputs().max(l.inputs())).max().unwrap_or(0);
        self.delta.resize(widest, 0.0);
        self.next_delta.resize(widest, 0.0);
    }
}

/// Mean squared error of a network over a dataset.
pub fn mse(net: &Mlp, data: &Dataset) -> Result<f64, AnnError> {
    Workspace::default().mse(net, data)
}

/// The textbook form of the trainer: a per-sample forward trace, separate
/// scale / rank-1 / decay / update passes over a cloned weight matrix, and
/// `Vec`-returning predictions. The fused kernel must match it bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn train<R: Rng + ?Sized>(
        config: &TrainConfig,
        net: &mut Mlp,
        train: &Dataset,
        val: &Dataset,
        rng: &mut R,
    ) -> Result<TrainReport, AnnError> {
        let mut velocities: Vec<(Matrix, Vec<f64>)> = net
            .layers()
            .iter()
            .map(|l| (Matrix::zeros(l.weights.rows(), l.weights.cols()), vec![0.0; l.biases.len()]))
            .collect();
        let mut best = net.clone();
        let mut best_val = mse(net, val)?;
        let mut since_improvement = 0usize;
        let mut history = Vec::new();
        let mut epochs_run = 0usize;
        let mut early_stopped = false;
        let mut order: Vec<usize> = (0..train.len()).collect();
        for _epoch in 0..config.max_epochs {
            epochs_run += 1;
            order.shuffle(rng);
            for &idx in &order {
                let (x, t) = train.sample(idx);
                sgd_step(config, net, x, t, &mut velocities)?;
            }
            if !net.is_finite() {
                return Err(AnnError::NumericalInstability);
            }
            let val_mse = mse(net, val)?;
            history.push(val_mse);
            if val_mse < best_val * (1.0 - config.min_delta) {
                best_val = val_mse;
                best = net.clone();
                since_improvement = 0;
            } else {
                since_improvement += 1;
                if since_improvement > config.patience {
                    early_stopped = true;
                    break;
                }
            }
        }
        *net = best;
        let final_train_mse = mse(net, train)?;
        Ok(TrainReport {
            epochs_run,
            early_stopped,
            final_train_mse,
            best_val_mse: best_val,
            val_mse_history: history,
        })
    }

    fn sgd_step(
        config: &TrainConfig,
        net: &mut Mlp,
        input: &[f64],
        target: &[f64],
        velocities: &mut [(Matrix, Vec<f64>)],
    ) -> Result<(), AnnError> {
        let activations = forward_trace(net, input)?;
        let num_layers = net.layers().len();
        let output = &activations[num_layers];
        let out_act = net.layers()[num_layers - 1].activation;
        let mut delta: Vec<f64> = output
            .iter()
            .zip(target)
            .zip(output.iter().map(|&y| out_act.derivative_from_output(y)))
            .map(|((o, t), d)| (o - t) * d)
            .collect();
        let lr = config.learning_rate;
        let momentum = config.momentum;
        let decay = config.weight_decay;
        for layer_idx in (0..num_layers).rev() {
            let prev_activation = activations[layer_idx].clone();
            let next_delta: Option<Vec<f64>> = if layer_idx > 0 {
                let propagated = matvec_transposed(&net.layers()[layer_idx].weights, &delta);
                let act = net.layers()[layer_idx - 1].activation;
                Some(
                    propagated
                        .iter()
                        .zip(&activations[layer_idx])
                        .map(|(p, y)| p * act.derivative_from_output(*y))
                        .collect(),
                )
            } else {
                None
            };
            {
                let layer = &mut net.layers_mut()[layer_idx];
                let (vel_w, vel_b) = &mut velocities[layer_idx];
                scale(vel_w, momentum);
                rank1_update(vel_w, -lr, &delta, &prev_activation);
                if decay > 0.0 {
                    axpy(vel_w, -lr * decay, &layer.weights.clone());
                }
                axpy(&mut layer.weights, 1.0, vel_w);
                for ((vb, b), d) in vel_b.iter_mut().zip(layer.biases.iter_mut()).zip(&delta) {
                    *vb = momentum * *vb - lr * d;
                    *b += *vb;
                }
            }
            if let Some(nd) = next_delta {
                delta = nd;
            }
        }
        Ok(())
    }

    pub(super) fn mse(net: &Mlp, data: &Dataset) -> Result<f64, AnnError> {
        let mut total = 0.0;
        let mut count = 0usize;
        for i in 0..data.len() {
            let (x, t) = data.sample(i);
            let y = forward_trace(net, x)?.pop().expect("trace ends with the output");
            for (yi, ti) in y.iter().zip(t) {
                let d = yi - ti;
                total += d * d;
                count += 1;
            }
        }
        Ok(total / count.max(1) as f64)
    }

    /// `activations[0]` is the input; `activations[i+1]` the output of layer `i`.
    pub(super) fn forward_trace(net: &Mlp, input: &[f64]) -> Result<Vec<Vec<f64>>, AnnError> {
        if input.len() != net.input_dim() {
            return Err(AnnError::DimensionMismatch {
                expected: net.input_dim(),
                actual: input.len(),
            });
        }
        let mut activations = vec![input.to_vec()];
        for layer in net.layers() {
            let x = activations.last().expect("non-empty");
            let mut out = vec![0.0; layer.outputs()];
            for (r, o) in out.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (w, xi) in layer.weights.row(r).iter().zip(x) {
                    acc += w * xi;
                }
                *o = acc;
            }
            for (o, b) in out.iter_mut().zip(&layer.biases) {
                *o += b;
                *o = layer.activation.apply(*o);
            }
            activations.push(out);
        }
        Ok(activations)
    }

    fn matvec_transposed(m: &Matrix, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m.cols()];
        for (r, xr) in x.iter().enumerate() {
            for (o, w) in out.iter_mut().zip(m.row(r)) {
                *o += w * xr;
            }
        }
        out
    }

    fn scale(m: &mut Matrix, factor: f64) {
        for v in m.as_mut_slice() {
            *v *= factor;
        }
    }

    fn rank1_update(m: &mut Matrix, alpha: f64, col: &[f64], row: &[f64]) {
        let cols = m.cols();
        for (r, c) in col.iter().enumerate() {
            let a = alpha * c;
            for (d, x) in m.as_mut_slice()[r * cols..(r + 1) * cols].iter_mut().zip(row) {
                *d += a * x;
            }
        }
    }

    fn axpy(m: &mut Matrix, alpha: f64, other: &Matrix) {
        for (a, b) in m.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linear_dataset(n: usize, noise: f64, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![0.7 * x[0] - 0.3 * x[1] + 0.1 + noise * rng.gen_range(-1.0..1.0)])
            .collect();
        Dataset::new(xs, ys).unwrap()
    }

    fn nonlinear_dataset(n: usize, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        let ys: Vec<Vec<f64>> =
            xs.iter().map(|x| vec![2.0 * x[0] * x[1] + x[0] * x[0] - 0.5]).collect();
        Dataset::new(xs, ys).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(TrainConfig::default().validate().is_ok());
        assert!(Trainer::new(TrainConfig { learning_rate: -1.0, ..Default::default() }).is_err());
        assert!(Trainer::new(TrainConfig { momentum: 1.5, ..Default::default() }).is_err());
        assert!(Trainer::new(TrainConfig { max_epochs: 0, ..Default::default() }).is_err());
        assert!(Trainer::new(TrainConfig { weight_decay: -0.1, ..Default::default() }).is_err());
        for min_delta in [f64::NAN, f64::INFINITY, -1e-3, 1.0, 2.0] {
            let err = Trainer::new(TrainConfig { min_delta, ..Default::default() }).unwrap_err();
            assert!(matches!(err, AnnError::InvalidConfig { .. }), "min_delta {min_delta}");
        }
        assert!(Trainer::new(TrainConfig { min_delta: 0.0, ..Default::default() }).is_ok());
        assert!(Trainer::new(TrainConfig { min_delta: 0.5, ..Default::default() }).is_ok());
    }

    #[test]
    fn learns_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = linear_dataset(300, 0.0, 10);
        let (train, val) = data.train_val_split(0.2, &mut rng).unwrap();
        let mut net = Mlp::sigmoid_regressor(2, &[8], 1, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig::default()).unwrap();
        let before = mse(&net, &val).unwrap();
        let report = trainer.train(&mut net, &train, &val, &mut rng).unwrap();
        assert!(report.best_val_mse < before * 0.2, "training should cut validation error");
        assert!(report.final_train_mse < 0.02);
        let y = net.predict(&[0.5, -0.5]).unwrap()[0];
        let expected = 0.7 * 0.5 + 0.3 * 0.5 + 0.1;
        assert!((y - expected).abs() < 0.15, "prediction {y} vs {expected}");
    }

    #[test]
    fn learns_a_nonlinear_function_better_than_a_linear_model() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = nonlinear_dataset(400, 21);
        let (train, val) = data.train_val_split(0.2, &mut rng).unwrap();

        // Linear model = MLP without hidden layers.
        let mut linear =
            Mlp::new(&[2, 1], Activation::Linear, Activation::Linear, &mut rng).unwrap();
        let mut nonlinear = Mlp::sigmoid_regressor(2, &[16], 1, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 800,
            patience: 60,
            learning_rate: 0.1,
            ..Default::default()
        })
        .unwrap();
        trainer.train(&mut linear, &train, &val, &mut rng).unwrap();
        trainer.train(&mut nonlinear, &train, &val, &mut rng).unwrap();
        let lin_mse = mse(&linear, &val).unwrap();
        let non_mse = mse(&nonlinear, &val).unwrap();
        assert!(
            non_mse < lin_mse * 0.8,
            "the ANN ({non_mse}) should beat a linear model ({lin_mse}) on a nonlinear target"
        );
    }

    #[test]
    fn early_stopping_triggers_and_restores_best_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        // Tiny training set + long epoch budget => certain overfitting signal.
        let train = linear_dataset(12, 0.3, 31);
        let val = linear_dataset(60, 0.0, 32);
        let mut net = Mlp::sigmoid_regressor(2, &[16], 1, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 2000,
            patience: 10,
            learning_rate: 0.1,
            ..Default::default()
        })
        .unwrap();
        let report = trainer.train(&mut net, &train, &val, &mut rng).unwrap();
        assert!(report.early_stopped, "expected early stopping on a noisy tiny dataset");
        assert!(report.epochs_run < 2000);
        // The restored network achieves the reported best validation MSE.
        let actual = mse(&net, &val).unwrap();
        assert!((actual - report.best_val_mse).abs() < 1e-9);
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = linear_dataset(20, 0.0, 1);
        let (train, val) = data.train_val_split(0.25, &mut rng).unwrap();
        let mut wrong_inputs = Mlp::sigmoid_regressor(3, &[4], 1, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig::default()).unwrap();
        assert!(trainer.train(&mut wrong_inputs, &train, &val, &mut rng).is_err());
        let mut wrong_outputs = Mlp::sigmoid_regressor(2, &[4], 3, &mut rng).unwrap();
        assert!(trainer.train(&mut wrong_outputs, &train, &val, &mut rng).is_err());
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let data = linear_dataset(100, 0.05, 77);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (train, val) = data.train_val_split(0.2, &mut rng).unwrap();
            let mut net = Mlp::sigmoid_regressor(2, &[6], 1, &mut rng).unwrap();
            let trainer =
                Trainer::new(TrainConfig { max_epochs: 50, ..Default::default() }).unwrap();
            trainer.train(&mut net, &train, &val, &mut rng).unwrap();
            net.predict(&[0.3, 0.3]).unwrap()[0]
        };
        assert_eq!(run(123), run(123));
    }

    mod bit_identity {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        const ACTIVATIONS: [Activation; 4] =
            [Activation::Sigmoid, Activation::Tanh, Activation::Relu, Activation::Linear];

        fn random_dataset(rng: &mut StdRng, n: usize, inputs: usize, outputs: usize) -> Dataset {
            let row = |rng: &mut StdRng, d: usize| -> Vec<f64> {
                (0..d).map(|_| rng.gen_range(-1.5..1.5)).collect()
            };
            let xs = (0..n).map(|_| row(rng, inputs)).collect();
            let ys = (0..n).map(|_| row(rng, outputs)).collect();
            Dataset::new(xs, ys).unwrap()
        }

        fn bits(net: &Mlp) -> Vec<u64> {
            net.layers()
                .iter()
                .flat_map(|l| l.weights.as_slice().iter().chain(&l.biases))
                .map(|v| v.to_bits())
                .collect()
        }

        fn report_bits(r: &TrainReport) -> (usize, bool, u64, u64, Vec<u64>) {
            (
                r.epochs_run,
                r.early_stopped,
                r.final_train_mse.to_bits(),
                r.best_val_mse.to_bits(),
                r.val_mse_history.iter().map(|v| v.to_bits()).collect(),
            )
        }

        proptest! {
            // The fused kernel must reproduce the reference trainer to the
            // bit: weights, report and the RNG position afterwards.
            #[test]
            fn fused_kernel_matches_the_reference_trainer(
                seed in 0u64..10_000,
                inputs in 1usize..5,
                hidden in collection::vec(1usize..7, 1..3),
                outputs in 1usize..3,
                hidden_act in 0usize..4,
                output_act in 0usize..4,
                decay_on in 0usize..2,
                decay in 1e-6f64..1e-2,
                learning_rate in 0.01f64..0.3,
                momentum in 0.0f64..0.9,
                max_epochs in 1usize..12,
                patience in 0usize..4,
                n_train in 1usize..25,
                n_val in 1usize..8,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let train = random_dataset(&mut rng, n_train, inputs, outputs);
                let val = random_dataset(&mut rng, n_val, inputs, outputs);
                let mut sizes = vec![inputs];
                sizes.extend(&hidden);
                sizes.push(outputs);
                let (hidden_act, output_act) = (ACTIVATIONS[hidden_act], ACTIVATIONS[output_act]);
                let mut net = Mlp::new(&sizes, hidden_act, output_act, &mut rng).unwrap();
                let mut ref_net = net.clone();
                let mut ref_rng = rng.clone();
                let config = TrainConfig {
                    learning_rate,
                    momentum,
                    max_epochs,
                    patience,
                    weight_decay: if decay_on == 1 { decay } else { 0.0 },
                    ..Default::default()
                };

                let trainer = Trainer::new(config.clone()).unwrap();
                let got = trainer.train(&mut net, &train, &val, &mut rng);
                let want = reference::train(&config, &mut ref_net, &train, &val, &mut ref_rng);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        prop_assert_eq!(report_bits(&got), report_bits(&want));
                        prop_assert_eq!(bits(&net), bits(&ref_net));
                    }
                    (got, want) => prop_assert_eq!(got.err(), want.err()),
                }
                prop_assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>());
                for i in 0..val.len() {
                    let (x, _) = val.sample(i);
                    let y: Vec<u64> = net.predict(x).unwrap().iter().map(|v| v.to_bits()).collect();
                    let trace = reference::forward_trace(&net, x).unwrap();
                    let y_ref: Vec<u64> =
                        trace[trace.len() - 1].iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(y, y_ref);
                }
                prop_assert_eq!(
                    mse(&net, &val).unwrap().to_bits(),
                    reference::mse(&net, &val).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn mse_helper() {
        let mut rng = StdRng::seed_from_u64(8);
        let net = Mlp::new(&[1, 1], Activation::Linear, Activation::Linear, &mut rng).unwrap();
        let data = Dataset::new(vec![vec![0.0], vec![0.0]], vec![vec![1.0], vec![3.0]]).unwrap();
        // With near-zero weights the prediction is ~bias≈0, so MSE ≈ (1+9)/2 = 5.
        let e = mse(&net, &data).unwrap();
        assert!((e - 5.0).abs() < 0.5);
    }
}
