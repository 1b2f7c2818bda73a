//! Calibration probe: detection rate per model as a function of the
//! walking-similarity blend — used to place each activity's hardness
//! between the capacity tiers (README, *Datasets*: tier calibration).
//!
//! ```text
//! cargo run --release -p hec-bench --bin probe_hardness
//! ```

use hec_anomaly::{AnomalyDetector, ModelCatalog};
use hec_data::mhealth::{Activity, MhealthConfig, MhealthGenerator};
use hec_data::window::sliding_windows;
use hec_data::{LabeledWindow, Standardizer};

fn main() {
    let config = MhealthConfig {
        subjects: 2,
        window: 64,
        stride: 32,
        session_len: 256,
        normal_session_multiplier: 8,
        noise_std: 0.20,
        seed: 5,
    };
    let gen = MhealthGenerator::new(config.clone());

    // Train on walking only.
    let mut walking: Vec<LabeledWindow> = Vec::new();
    let mut raw = Vec::new();
    for subject in 0..config.subjects {
        let session = gen.session(
            subject,
            Activity::Walking,
            config.session_len * config.normal_session_multiplier,
        );
        raw.push(session);
    }
    let mut stacked = raw[0].clone();
    for m in &raw[1..] {
        stacked = stacked.vconcat(m);
    }
    let std = Standardizer::fit(&stacked);
    for session in &raw {
        for w in sliding_windows(&std.transform(session), config.window, config.stride) {
            walking.push(LabeledWindow::new(w, false));
        }
    }
    println!("walking windows: {}", walking.len());

    let mut catalog = ModelCatalog::multivariate(18, 12, 5);
    for det in catalog.detectors_mut() {
        let r = det.fit(&walking, 8).expect("fit");
        println!("{:<22} loss={:.4} thr={:.1}", det.name(), r.final_loss, r.threshold);
    }

    // Quantization sweep on a copy of the IoT model: how many bits does it
    // take to degrade sensitivity?
    use hec_anomaly::Seq2SeqDetector;
    for bits in [8u8, 7, 6, 5, 4] {
        let mut det = Seq2SeqDetector::iot(18, 12, 5);
        det.set_quantization_bits(Some(bits));
        let r = det.fit(&walking, 8).expect("fit");
        let mut caught = 0usize;
        let mut total = 0usize;
        for subject in 0..config.subjects {
            let session =
                gen.session_with_similarity(subject, Activity::Jogging, config.session_len, 0.85);
            for w in sliding_windows(&std.transform(&session), config.window, config.stride) {
                total += 1;
                if det.detect(&LabeledWindow::new(w, true)).anomalous {
                    caught += 1;
                }
            }
        }
        println!(
            "IoT @ {bits} bits: loss={:.4} thr={:.1} jogging(0.85) detection={:.1}%",
            r.final_loss,
            r.threshold,
            100.0 * caught as f64 / total.max(1) as f64
        );
    }

    // Sweep the blend for a few representative activities.
    for activity in [Activity::Jogging, Activity::Cycling, Activity::Running] {
        println!("\n{activity:?}: detection % (IoT/Edge/Cloud) vs blend");
        for blend in [0.70f32, 0.80, 0.85, 0.90, 0.94, 0.97] {
            let mut caught = [0usize; 3];
            let mut total = 0usize;
            for subject in 0..config.subjects {
                let session =
                    gen.session_with_similarity(subject, activity, config.session_len, blend);
                for w in sliding_windows(&std.transform(&session), config.window, config.stride) {
                    total += 1;
                    let lw = LabeledWindow::new(w, true);
                    for (k, det) in catalog.detectors_mut().iter_mut().enumerate() {
                        if det.detect(&lw).anomalous {
                            caught[k] += 1;
                        }
                    }
                }
            }
            let pct = |c: usize| 100.0 * c as f64 / total.max(1) as f64;
            println!(
                "  blend {blend:.2}: {:>5.1}% / {:>5.1}% / {:>5.1}%",
                pct(caught[0]),
                pct(caught[1]),
                pct(caught[2])
            );
        }
    }
}
