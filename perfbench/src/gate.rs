//! The correctness gate every timed pass goes through: parsed windows
//! must be the generated ones, the fleet must conserve windows, and the
//! pass's result must equal the serial (`HEC_THREADS=1`, serial-parser)
//! reference pass exactly.

use std::fmt::Debug;

use hec_core::stream::FleetStreamResult;
use hec_core::AdaptReport;
use hec_data::{LabeledCorpus, LabeledWindow};

pub type Check = Result<(), String>;

/// Window count and labels of a parsed corpus equal the generated ones.
pub fn parsed_labels(corpus: &LabeledCorpus, generated: &[LabeledWindow]) -> Check {
    if corpus.len() != generated.len() {
        return Err(format!("parsed {} windows, generated {}", corpus.len(), generated.len()));
    }
    match corpus.windows.iter().zip(generated).position(|(p, g)| p.anomalous != g.anomalous) {
        Some(i) => Err(format!("parsed window {i} has the wrong label")),
        None => Ok(()),
    }
}

/// As [`parsed_labels`], and every sample equals the generated value bit
/// for bit (the reference pass checks this once per input).
pub fn parsed_exactly(corpus: &LabeledCorpus, generated: &[LabeledWindow]) -> Check {
    parsed_labels(corpus, generated)?;
    for (i, (p, g)) in corpus.windows.iter().zip(generated).enumerate() {
        let same = p.data.shape() == g.data.shape()
            && p.data
                .as_slice()
                .iter()
                .zip(g.data.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!("parsed window {i} differs from the generated samples"));
        }
    }
    Ok(())
}

/// Window conservation of one replayed stream: every emitted window was
/// served or dropped, and every one was scored or counted as missed.
pub fn conserved(r: &FleetStreamResult) -> Check {
    let f = &r.fleet;
    if f.served + f.dropped != f.emitted {
        return Err(format!(
            "{}: served {} + dropped {} != emitted {}",
            f.scenario, f.served, f.dropped, f.emitted
        ));
    }
    let scored = r.confusion.total() as u64 + r.missed;
    if scored != f.emitted {
        return Err(format!("{}: scored {scored} != emitted {}", f.scenario, f.emitted));
    }
    Ok(())
}

/// An adaptation report covers the whole stream.
pub fn adapt_covers(report: &AdaptReport, windows: usize) -> Check {
    let chunked: usize = report.chunks.iter().map(|c| c.windows).sum();
    if report.total_windows != windows || chunked != windows {
        return Err(format!(
            "adaptation covered {} windows ({chunked} in chunks) of {windows}",
            report.total_windows
        ));
    }
    Ok(())
}

/// `got` equals the reference `want`.
pub fn equal<T: PartialEq + Debug>(what: &str, got: &T, want: &T) -> Check {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} differs from the serial reference"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_core::replay::{replay_scenario, replay_trace_sharded};
    use hec_core::{Oracle, SchemeKind, WindowOutcome};
    use hec_sim::DatasetKind;

    fn oracle(n: usize) -> Oracle {
        let outcomes = (0..n)
            .map(|i| WindowOutcome {
                truth: i % 4 == 0,
                min_log_pd: [-5.0, -5.0, -5.0],
                anomalous_fraction: [0.0, 0.0, if i % 4 == 0 { 0.5 } else { 0.0 }],
                context: vec![i as f32],
            })
            .collect();
        Oracle {
            outcomes,
            thresholds: [-10.0; 3],
            flag_fraction: 0.0,
            confidence: hec_anomaly::ConfidenceRule::default(),
        }
    }

    fn replay(o: &Oracle) -> FleetStreamResult {
        let sc = replay_scenario(DatasetKind::Univariate, 96, o.len() as u64);
        let reward = hec_bandit::RewardModel::new(0.0005);
        replay_trace_sharded(&sc, o, SchemeKind::Cloud, None, None, &reward, 2)
    }

    #[test]
    fn identical_pass_passes() {
        let o = oracle(200);
        let (a, b) = (replay(&o), replay(&o));
        assert!(conserved(&a).is_ok());
        assert!(equal("replay", &a, &b).is_ok());
    }

    /// A pass whose verdicts were corrupted (one window flipped from
    /// anomalous to normal before scoring) must fail the gate.
    #[test]
    fn corrupted_verdict_fails_the_gate() {
        let o = oracle(200);
        let reference = replay(&o);
        let mut corrupted = o.clone();
        corrupted.outcomes[0].anomalous_fraction[2] = 0.0;
        let pass = replay(&corrupted);
        assert!(conserved(&pass).is_ok(), "corruption keeps conservation");
        assert!(equal("replay", &pass, &reference).is_err());
    }

    #[test]
    fn broken_conservation_fails_the_gate() {
        let mut r = replay(&oracle(100));
        r.missed += 1;
        assert!(conserved(&r).is_err());
        let mut r = replay(&oracle(100));
        r.fleet.dropped += 1;
        assert!(conserved(&r).is_err());
    }

    #[test]
    fn wrong_parse_fails_the_gate() {
        let m = hec_tensor::Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let generated = vec![LabeledWindow::new(m.clone(), false), LabeledWindow::new(m, true)];
        let good = LabeledCorpus::new(generated.clone(), vec![None, Some(0)]);
        assert!(parsed_exactly(&good, &generated).is_ok());
        let mut flipped = good.clone();
        flipped.windows[1].anomalous = false;
        assert!(parsed_labels(&flipped, &generated).is_err());
        let mut shifted = good.clone();
        shifted.windows[0] =
            LabeledWindow::new(hec_tensor::Matrix::from_vec(2, 1, vec![1.0, 2.5]), false);
        assert!(parsed_labels(&shifted, &generated).is_ok());
        assert!(parsed_exactly(&shifted, &generated).is_err());
        let short = LabeledCorpus::new(generated[..1].to_vec(), vec![None]);
        assert!(parsed_labels(&short, &generated).is_err());
    }
}
