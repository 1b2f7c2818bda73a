//! LSTM seq2seq detectors for multivariate data
//! (LSTM-seq2seq-IoT / LSTM-seq2seq-Edge / BiLSTM-seq2seq-Cloud).
//!
//! §II-A2: the IoT model is a plain LSTM encoder–decoder; the edge model has
//! *double the number of LSTM units*; the cloud model uses a *bidirectional*
//! encoder. Scoring follows §II-A3: per-timestep reconstruction-error vectors
//! are modelled with a Gaussian `N(µ, Σ)` and scored by logPD.

use hec_data::LabeledWindow;
use hec_nn::{RmsProp, Seq2Seq, Seq2SeqConfig};
use hec_tensor::Matrix;

use crate::detector::{validate_training_set, AnomalyDetector, Detection, FitError, FitReport};
use crate::scorer::{ConfidenceRule, LogPdScorer, ThresholdRule};

/// A seq2seq anomaly detector over multichannel windows.
///
/// # Example
///
/// ```rust
/// use hec_anomaly::{AnomalyDetector, Seq2SeqDetector};
/// use hec_data::LabeledWindow;
/// use hec_nn::Seq2SeqConfig;
/// use hec_tensor::Matrix;
///
/// let config = Seq2SeqConfig { input_dim: 2, encoder_hidden: 8, dropout: 0.0, ..Default::default() };
/// let mut det = Seq2SeqDetector::new("demo", config);
/// // Normal: low-frequency sine windows.
/// let train: Vec<LabeledWindow> = (0..12)
///     .map(|i| {
///         let data: Vec<f32> = (0..10)
///             .flat_map(|t| {
///                 let w = t as f32 * 0.4 + i as f32 * 0.05;
///                 [w.sin(), w.cos()]
///             })
///             .collect();
///         LabeledWindow::new(Matrix::from_vec(10, 2, data), false)
///     })
///     .collect();
/// det.fit(&train, 25)?;
/// assert!(det.param_count() > 0);
/// # Ok::<(), hec_anomaly::FitError>(())
/// ```
pub struct Seq2SeqDetector {
    name: String,
    model: Seq2Seq,
    scorer: Option<LogPdScorer>,
    confidence: ConfidenceRule,
    threshold_rule: ThresholdRule,
    flag_fraction: f32,
    learning_rate: f32,
    quantization_bits: Option<u8>,
    input_bits: Option<u8>,
}

impl Seq2SeqDetector {
    /// Builds a detector from a [`Seq2SeqConfig`].
    pub fn new(name: &str, config: Seq2SeqConfig) -> Self {
        Self {
            name: name.to_owned(),
            model: Seq2Seq::new(config),
            scorer: None,
            confidence: ConfidenceRule::default(),
            threshold_rule: ThresholdRule::default(),
            flag_fraction: 0.0,
            learning_rate: 1e-3,
            quantization_bits: None,
            input_bits: None,
        }
    }

    /// The IoT-layer model: LSTM encoder/decoder with `hidden` units.
    pub fn iot(input_dim: usize, hidden: usize, seed: u64) -> Self {
        Self::new(
            "LSTM-seq2seq-IoT",
            Seq2SeqConfig {
                input_dim,
                encoder_hidden: hidden,
                bidirectional: false,
                seed,
                ..Default::default()
            },
        )
    }

    /// The edge-layer model: *double* the LSTM units (§II-A2).
    pub fn edge(input_dim: usize, hidden: usize, seed: u64) -> Self {
        Self::new(
            "LSTM-seq2seq-Edge",
            Seq2SeqConfig {
                input_dim,
                encoder_hidden: hidden * 2,
                bidirectional: false,
                seed,
                ..Default::default()
            },
        )
    }

    /// The cloud-layer model: bidirectional encoder (§II-A2).
    pub fn cloud(input_dim: usize, hidden: usize, seed: u64) -> Self {
        Self::new(
            "BiLSTM-seq2seq-Cloud",
            Seq2SeqConfig {
                input_dim,
                encoder_hidden: hidden * 2,
                bidirectional: true,
                seed,
                ..Default::default()
            },
        )
    }

    /// Replaces the confidence rule.
    pub fn set_confidence_rule(&mut self, rule: ConfidenceRule) {
        self.confidence = rule;
    }

    /// Replaces the threshold rule. Takes effect at the next `fit`.
    pub fn set_threshold_rule(&mut self, rule: ThresholdRule) {
        self.threshold_rule = rule;
    }

    /// Enables post-training weight quantization to `bits` bits, emulating
    /// the deployment compression the paper applies to the IoT and edge
    /// models (§III-B). Applied (and the scorer recalibrated) during `fit`.
    pub fn set_quantization_bits(&mut self, bits: Option<u8>) {
        self.quantization_bits = bits;
    }

    /// The configured deployment quantization, if any.
    pub fn quantization_bits(&self) -> Option<u8> {
        self.quantization_bits
    }

    /// Restricts the on-device input fidelity to `bits` bits per sample
    /// (standardised range ±4 clamped and uniformly quantized). Models
    /// deployed low in the hierarchy read compressed sensor buffers, while
    /// offloaded windows travel at full fidelity — a fidelity/compute
    /// tradeoff that strictly degrades detectability (data-processing
    /// inequality), so the capability ladder cannot invert (README, *Datasets*).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 12`.
    pub fn set_input_bits(&mut self, bits: Option<u8>) {
        if let Some(b) = bits {
            assert!((2..=12).contains(&b), "input bits must be in 2..=12");
        }
        self.input_bits = bits;
    }

    /// Applies the deployment input quantization to a window's timesteps.
    fn deployed_steps(&self, window: &LabeledWindow) -> Vec<Matrix> {
        let mut steps = window.timesteps();
        if let Some(bits) = self.input_bits {
            let levels = ((1u32 << bits) - 1) as f32;
            let delta = 8.0 / levels;
            for m in &mut steps {
                m.map_inplace(|x| {
                    let clamped = x.clamp(-4.0, 4.0);
                    ((clamped + 4.0) / delta).round() * delta - 4.0
                });
            }
        }
        steps
    }

    /// Sets the window-flagging fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction ∉ [0, 1)`.
    pub fn set_flag_fraction(&mut self, fraction: f32) {
        assert!((0.0..1.0).contains(&fraction), "flag fraction must be in [0, 1)");
        self.flag_fraction = fraction;
    }

    /// The calibrated scorer, if fitted.
    pub fn scorer(&self) -> Option<&LogPdScorer> {
        self.scorer.as_ref()
    }

    /// Encoded state of a window — the policy network's multivariate context
    /// (§III-B: "we use the encoded states of the LSTM-encoder").
    pub fn encode_context(&mut self, window: &LabeledWindow) -> Vec<f32> {
        let steps = self.deployed_steps(window);
        let state = self.model.encode(&steps);
        state.h.as_slice().to_vec()
    }

    fn window_errors(&mut self, window: &LabeledWindow) -> Vec<Vec<f32>> {
        let steps = self.deployed_steps(window);
        self.model.reconstruction_errors(&steps)
    }

    /// Fits the logPD scorer (and threshold) on `calibration`'s
    /// reconstruction errors through the current weights — shared by
    /// `fit` and `recalibrate`.
    fn calibrate_scorer(&mut self, calibration: &[LabeledWindow]) -> Result<f32, FitError> {
        let per_window: Vec<Vec<Vec<f32>>> =
            calibration.iter().map(|w| self.window_errors(w)).collect();
        let all_errors: Vec<Vec<f32>> = per_window.iter().flatten().cloned().collect();
        let mut scorer = LogPdScorer::fit_with_rule(&all_errors, 1e-4, self.threshold_rule)
            .map_err(|e| match e {
                crate::scorer::ScorerError::Gaussian(g) => FitError::Scoring(g),
                crate::scorer::ScorerError::EmptyCalibrationSet => {
                    FitError::InvalidTrainingSet { reason: "no calibration errors produced".into() }
                }
            })?;
        if let ThresholdRule::WindowFpr(_) = self.threshold_rule {
            let minima: Vec<f32> = per_window
                .iter()
                .map(|errs| errs.iter().map(|e| scorer.log_pd(e)).fold(f32::INFINITY, f32::min))
                .collect();
            scorer.set_threshold(self.threshold_rule.threshold(&minima));
        }
        let threshold = scorer.threshold();
        self.scorer = Some(scorer);
        Ok(threshold)
    }
}

impl AnomalyDetector for Seq2SeqDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        self.model.param_count()
    }

    fn fit(&mut self, train: &[LabeledWindow], epochs: usize) -> Result<FitReport, FitError> {
        validate_training_set(train)?;
        let dim = self.model.config().input_dim;
        for (i, w) in train.iter().enumerate() {
            if w.channels() != dim {
                return Err(FitError::InvalidTrainingSet {
                    reason: format!(
                        "window {i} has {} channels, model expects {dim}",
                        w.channels()
                    ),
                });
            }
        }

        let mut opt = RmsProp::new(self.learning_rate);
        let mut final_loss = 0.0f32;
        for _ in 0..epochs {
            let mut epoch_loss = 0.0f32;
            for w in train {
                let steps: Vec<Matrix> = self.deployed_steps(w);
                epoch_loss += self.model.train_batch(&steps, &mut opt);
            }
            final_loss = epoch_loss / train.len() as f32;
        }

        if let Some(bits) = self.quantization_bits {
            self.model.visit_params(&mut |param, _| {
                hec_tensor::quantize::quantize_inplace(param, bits);
            });
        }

        let threshold = self.calibrate_scorer(train)?;
        Ok(FitReport { epochs, final_loss, threshold })
    }

    fn detect(&mut self, window: &LabeledWindow) -> Detection {
        let errors = self.window_errors(window);
        let scorer = self.scorer.as_ref().expect("detect called before fit");
        let (min_log_pd, anomalous_fraction) = scorer.score_window(&errors);
        let anomalous = anomalous_fraction > self.flag_fraction;
        let confident = self.confidence.is_confident(
            min_log_pd,
            anomalous_fraction,
            scorer.threshold(),
            anomalous,
        );
        Detection { anomalous, confident, min_log_pd, anomalous_fraction }
    }

    fn context_features(&mut self, window: &LabeledWindow) -> Option<Vec<f32>> {
        // Encoder state (paper §III-B) augmented with per-channel mean/std —
        // both computable on the IoT device in one pass; the summary stats
        // compensate for the reduced fidelity of the on-device encoder input
        // (README, *Datasets*).
        let mut ctx = self.encode_context(window);
        let n = window.data.rows() as f32;
        for c in 0..window.channels() {
            // Strided column iteration (no per-channel Vec); same summation
            // order as `vecops::{mean, std_dev}` over a copied column.
            let mean = window.data.col_iter(c).sum::<f32>() / n;
            let var = window.data.col_iter(c).map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
            ctx.push(mean);
            ctx.push(var.sqrt());
        }
        Some(ctx)
    }

    fn threshold(&self) -> Option<f32> {
        self.scorer.as_ref().map(|s| s.threshold())
    }

    /// Re-fits the scorer (and threshold) on `calibration` through the
    /// current weights — one encoder/decoder pass per window, no
    /// retraining. The same code path `fit` calibrates through.
    fn recalibrate(&mut self, calibration: &[LabeledWindow]) -> Result<f32, FitError> {
        validate_training_set(calibration)?;
        if self.scorer.is_none() {
            return Err(FitError::InvalidTrainingSet {
                reason: "recalibrate requires a fitted detector".into(),
            });
        }
        self.calibrate_scorer(calibration)
    }
}

impl std::fmt::Debug for Seq2SeqDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Seq2SeqDetector({}, params={})", self.name, self.param_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_window(freq: f32, phase: f32, steps: usize) -> LabeledWindow {
        let data: Vec<f32> = (0..steps)
            .flat_map(|t| {
                let w = t as f32 * freq + phase;
                [w.sin(), 0.5 * w.cos()]
            })
            .collect();
        LabeledWindow::new(Matrix::from_vec(steps, 2, data), false)
    }

    fn train_set() -> Vec<LabeledWindow> {
        (0..15).map(|i| sine_window(0.4, i as f32 * 0.07, 12)).collect()
    }

    fn small(name: &str, bi: bool, hidden: usize) -> Seq2SeqDetector {
        Seq2SeqDetector::new(
            name,
            Seq2SeqConfig {
                input_dim: 2,
                encoder_hidden: hidden,
                bidirectional: bi,
                dropout: 0.0,
                l2_lambda: 1e-4,
                seed: 3,
            },
        )
    }

    #[test]
    fn param_ladder_iot_edge_cloud() {
        let iot = Seq2SeqDetector::iot(18, 32, 0);
        let edge = Seq2SeqDetector::edge(18, 32, 0);
        let cloud = Seq2SeqDetector::cloud(18, 32, 0);
        assert!(iot.param_count() < edge.param_count());
        assert!(edge.param_count() < cloud.param_count());
        assert_eq!(iot.name(), "LSTM-seq2seq-IoT");
        assert_eq!(edge.name(), "LSTM-seq2seq-Edge");
        assert_eq!(cloud.name(), "BiLSTM-seq2seq-Cloud");
    }

    #[test]
    fn fit_then_detect_separates() {
        let mut det = small("s2s", false, 12);
        let report = det.fit(&train_set(), 60).unwrap();
        assert!(report.threshold.is_finite());

        let normal = sine_window(0.4, 0.03, 12);
        // High-frequency jagged window should be anomalous.
        let weird_data: Vec<f32> =
            (0..12).flat_map(|t| if t % 2 == 0 { [2.0, -2.0] } else { [-2.0, 2.0] }).collect();
        let weird = LabeledWindow::new(Matrix::from_vec(12, 2, weird_data), true);

        let dn = det.detect(&normal);
        let dw = det.detect(&weird);
        assert!(dw.min_log_pd < dn.min_log_pd, "weird window not scored lower");
        assert!(dw.anomalous, "weird window not flagged");
    }

    #[test]
    fn context_vector_has_hidden_width() {
        let mut det = small("s2s", false, 12);
        let ctx = det.encode_context(&sine_window(0.4, 0.0, 12));
        assert_eq!(ctx.len(), 12);
        let mut det_bi = small("s2s-bi", true, 12);
        let ctx_bi = det_bi.encode_context(&sine_window(0.4, 0.0, 12));
        assert_eq!(ctx_bi.len(), 24);
    }

    #[test]
    fn recalibrate_refits_scorer_without_touching_weights() {
        let mut det = small("s2s", false, 12);
        det.fit(&train_set(), 60).unwrap();
        let t0 = det.threshold().unwrap();
        let params_before = det.param_count();

        // Level-shift the regime; recalibrating on it must move the
        // threshold while leaving the model untouched.
        let shifted: Vec<LabeledWindow> = train_set()
            .iter()
            .map(|w| {
                let v: Vec<f32> = w.data.as_slice().iter().map(|x| x + 1.5).collect();
                LabeledWindow::new(Matrix::from_vec(w.data.rows(), w.data.cols(), v), false)
            })
            .collect();
        let t1 = det.recalibrate(&shifted).unwrap();
        assert_ne!(t0, t1);
        assert_eq!(det.threshold(), Some(t1));
        assert_eq!(det.param_count(), params_before);
        assert!(!det.detect(&shifted[0]).anomalous, "recalibrated regime must pass");

        // Unfitted detectors refuse.
        let mut fresh = small("s2s2", false, 12);
        assert!(matches!(
            fresh.recalibrate(&train_set()),
            Err(FitError::InvalidTrainingSet { .. })
        ));
    }

    #[test]
    fn fit_rejects_wrong_channels() {
        let mut det = small("s2s", false, 8);
        let bad = vec![LabeledWindow::new(Matrix::zeros(10, 3), false)];
        assert!(matches!(det.fit(&bad, 1), Err(FitError::InvalidTrainingSet { .. })));
    }

    #[test]
    #[should_panic(expected = "detect called before fit")]
    fn detect_before_fit_panics() {
        let mut det = small("s2s", false, 8);
        let _ = det.detect(&sine_window(0.4, 0.0, 12));
    }
}
