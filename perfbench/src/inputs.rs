//! Workload inputs, generated from `--seed` with the program's own
//! generators and written to bytes (CSV / NDJSON) before any timing
//! starts. The timed passes see only these bytes; the generated windows
//! are kept beside them so the gate can check what the parsers return.

use std::fmt::Write as _;

use hec_bandit::TrainConfig;
use hec_core::{DatasetConfig, ExperimentConfig};
use hec_data::mhealth::MhealthConfig;
use hec_data::power::{PowerConfig, PowerGenerator};
use hec_data::window::sliding_windows;
use hec_data::{
    amplify_corpus, Activity, DatasetSource, DriftKind, DriftSchedule, LabeledCorpus,
    LabeledWindow, MhealthGenerator, OnlineStandardizer, PerturbConfig,
};

/// Readings per power-demand day window.
pub const POWER_SPD: usize = 24;

/// One batch of input bytes plus the windows they encode.
pub struct Batch {
    pub bytes: Vec<u8>,
    pub windows: Vec<LabeledWindow>,
}

/// Derives an independent generator seed from the workload seed.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of the training corpus and the model initialisation. Fixed, so
/// every workload seed scores its inputs with the same trained
/// pipeline: the seed varies what the program processes, not the
/// model, and the quality guards (`f1`, `reward_x100`) move only when
/// the program's verdicts or simulated delays do.
const TRAIN_SEED: u64 = 42;

/// The univariate pipeline configuration (the quick reproduction
/// profile: 150 training days of 24 readings, 60 AE epochs).
pub fn univariate_config() -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetConfig::Univariate(PowerConfig {
            days: 150,
            samples_per_day: POWER_SPD,
            anomaly_rate: 0.15,
            noise_std: 0.03,
            seed: derive(TRAIN_SEED, 1),
        }),
        ad_epochs: 60,
        policy: TrainConfig { epochs: 20, learning_rate: 2e-3, ..Default::default() },
        seq2seq_hidden: 8,
        policy_hidden: 32,
        seed: TRAIN_SEED,
    }
}

/// The multivariate pipeline configuration (the quick reproduction
/// profile: 2 subjects, 32-step windows, 8 seq2seq epochs).
pub fn multivariate_config() -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetConfig::Multivariate(mhealth_config(2)),
        ad_epochs: 8,
        policy: TrainConfig { epochs: 15, learning_rate: 2e-3, ..Default::default() },
        seq2seq_hidden: 8,
        policy_hidden: 32,
        seed: TRAIN_SEED,
    }
}

fn mhealth_config(subjects: usize) -> MhealthConfig {
    MhealthConfig {
        subjects,
        window: 32,
        stride: 32,
        session_len: 128,
        normal_session_multiplier: 4,
        noise_std: 0.12,
        // The activity signatures derive from this seed, so the input
        // stream shares it with the training corpus.
        seed: derive(TRAIN_SEED, 2),
    }
}

/// The corpus a pipeline is trained on (generated, not parsed: corpus
/// synthesis is not part of the program's set-up).
pub fn training_corpus(config: &ExperimentConfig) -> LabeledCorpus {
    match &config.dataset {
        DatasetConfig::Univariate(c) => PowerGenerator::new(c.clone()).load(),
        DatasetConfig::Multivariate(c) => MhealthGenerator::new(c.clone()).load(),
    }
    .expect("synthetic sources are infallible")
}

/// A raw power corpus of `days × factor` windows: `days` generated days
/// amplified `factor`× with the label-preserving perturbation.
fn power_corpus(seed: u64, stream: u64, days: usize, factor: usize) -> LabeledCorpus {
    let base = PowerGenerator::new(PowerConfig {
        days,
        samples_per_day: POWER_SPD,
        anomaly_rate: 0.15,
        noise_std: 0.03,
        seed: derive(seed, stream),
    })
    .load()
    .expect("synthetic sources are infallible");
    let perturb = PerturbConfig { seed: derive(seed, stream + 1), ..PerturbConfig::default() };
    amplify_corpus(&base, factor, &perturb)
}

/// Power-demand CSV (`demand,label`, one reading per line; label 0 =
/// normal, `k + 1` = anomaly class `k`, constant over a day).
fn power_csv(corpus: &LabeledCorpus) -> Batch {
    let mut text = String::with_capacity(corpus.len() * POWER_SPD * 14 + 16);
    text.push_str("demand,label\n");
    for (w, class) in corpus.windows.iter().zip(&corpus.classes) {
        let label = match (w.anomalous, class) {
            (false, _) => 0,
            (true, Some(c)) => c + 1,
            (true, None) => 1,
        };
        for v in w.data.as_slice() {
            writeln!(text, "{v},{label}").expect("writing to a String");
        }
    }
    Batch { bytes: text.into_bytes(), windows: corpus.windows.clone() }
}

/// `count` power batches of `days × factor` windows each.
pub fn power_batches(seed: u64, count: usize, days: usize, factor: usize) -> Vec<Batch> {
    (0..count).map(|b| power_csv(&power_corpus(seed, 10 + 2 * b as u64, days, factor))).collect()
}

/// Size of the subject-id space of the MHEALTH streams. Streams draw
/// subjects from `2..MHEALTH_SUBJECTS / 2` (the training corpus has
/// subjects 0 and 1), which keeps the generator's per-subject amplitude
/// scale inside the training corpus' range.
const MHEALTH_SUBJECTS: usize = 1 << 16;

/// `count` MHEALTH NDJSON batches of two seed-chosen subjects each: one
/// session per activity, `session_len` steps each (4× for the normal
/// activity), windowed by the training configuration's window/stride.
pub fn mhealth_batches(seed: u64, count: usize, session_len: usize) -> Vec<Batch> {
    let config = mhealth_config(MHEALTH_SUBJECTS);
    let (window, stride) = (config.window, config.stride);
    let generator = MhealthGenerator::new(config);
    (0..count)
        .map(|b| {
            let mut text = String::new();
            let mut windows = Vec::new();
            let pick = |k: u64| {
                let span = (MHEALTH_SUBJECTS / 2 - 2) as u64;
                2 + (derive(seed, 200 + 2 * b as u64 + k) % span) as usize
            };
            for subject in [pick(0), pick(1)] {
                for (a, activity) in Activity::ALL.into_iter().enumerate() {
                    let steps = session_len * if activity.is_normal() { 4 } else { 1 };
                    let session = generator.session(subject, activity, steps);
                    for t in 0..steps {
                        text.push_str("{\"ch\": [");
                        for (c, v) in session.row(t).iter().enumerate() {
                            let sep = if c == 0 { "" } else { ", " };
                            write!(text, "{sep}{v}").expect("writing to a String");
                        }
                        writeln!(text, "], \"activity\": {a}, \"subject\": {subject}}}")
                            .expect("writing to a String");
                    }
                    let anomalous = !activity.is_normal();
                    windows.extend(
                        sliding_windows(&session, window, stride)
                            .into_iter()
                            .map(|m| LabeledWindow::new(m, anomalous)),
                    );
                }
            }
            Batch { bytes: text.into_bytes(), windows }
        })
        .collect()
}

/// Drift stream `k`: `days × factor` raw windows with a step drift at
/// the midpoint (level +1.5σ of the raw stream, scale +20%), as CSV.
pub fn drift_stream(seed: u64, k: u64, days: usize, factor: usize) -> Batch {
    let amplified = power_corpus(seed, 100 + 2 * k, days, factor);
    let mut moments = OnlineStandardizer::new(1);
    for w in &amplified.windows {
        moments.update(&w.data);
    }
    let sigma = moments.freeze().std()[0];
    let drift = DriftSchedule {
        kind: DriftKind::Step,
        onset: amplified.len() / 2,
        level: 1.5 * sigma,
        scale: 0.2,
    };
    power_csv(&drift.apply(&amplified))
}
