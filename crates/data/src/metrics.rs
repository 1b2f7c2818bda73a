//! Binary classification metrics: confusion matrix, accuracy, F1.

/// A binary confusion matrix where "positive" = anomalous.
///
/// # Example
///
/// ```rust
/// use hec_data::BinaryConfusion;
///
/// let preds = [true, true, false, false];
/// let truth = [true, false, false, true];
/// let c = BinaryConfusion::from_predictions(
///     preds.iter().copied().zip(truth.iter().copied()),
/// );
/// assert_eq!(c.accuracy(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinaryConfusion {
    /// True positives: predicted anomalous, actually anomalous.
    pub tp: usize,
    /// False positives: predicted anomalous, actually normal.
    pub fp: usize,
    /// True negatives: predicted normal, actually normal.
    pub tn: usize,
    /// False negatives: predicted normal, actually anomalous.
    pub fn_: usize,
}

impl BinaryConfusion {
    /// Empty confusion matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a confusion matrix from `(prediction, truth)` pairs.
    pub fn from_predictions(pairs: impl IntoIterator<Item = (bool, bool)>) -> Self {
        let mut c = Self::new();
        for (pred, truth) in pairs {
            c.record(pred, truth);
        }
        c
    }

    /// Records one `(prediction, truth)` observation.
    pub fn record(&mut self, predicted_anomalous: bool, actually_anomalous: bool) {
        match (predicted_anomalous, actually_anomalous) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Merges another confusion matrix into this one.
    pub fn merge(&mut self, other: &BinaryConfusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Fraction of correct predictions. Returns 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / total as f64
    }

    /// Precision `tp / (tp + fp)`. Returns 0 when the denominator is 0.
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            return 0.0;
        }
        self.tp as f64 / denom as f64
    }

    /// Recall `tp / (tp + fn)`. Returns 0 when the denominator is 0.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            return 0.0;
        }
        self.tp as f64 / denom as f64
    }

    /// F1 score — the harmonic mean of precision and recall. Returns 0 when
    /// precision + recall is 0.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }
}

impl std::fmt::Display for BinaryConfusion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tp={} fp={} tn={} fn={} acc={:.4} f1={:.4}",
            self.tp,
            self.fp,
            self.tn,
            self.fn_,
            self.accuracy(),
            self.f1()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let c = BinaryConfusion::from_predictions([(true, true), (false, false)]);
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.f1(), 1.0);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
    }

    #[test]
    fn always_negative_has_zero_f1() {
        let c = BinaryConfusion::from_predictions([(false, true), (false, false)]);
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.accuracy(), 0.5);
    }

    #[test]
    fn known_values() {
        // tp=2 fp=1 tn=3 fn=2
        let mut c = BinaryConfusion::new();
        for _ in 0..2 {
            c.record(true, true);
        }
        c.record(true, false);
        for _ in 0..3 {
            c.record(false, false);
        }
        for _ in 0..2 {
            c.record(false, true);
        }
        assert_eq!(c.total(), 8);
        assert!((c.accuracy() - 5.0 / 8.0).abs() < 1e-12);
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 0.5).abs() < 1e-12);
        let p = 2.0 / 3.0;
        let r = 0.5;
        assert!((c.f1() - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    fn empty_is_all_zero() {
        let c = BinaryConfusion::new();
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let a = BinaryConfusion::from_predictions([(true, true)]);
        let mut b = BinaryConfusion::from_predictions([(false, false)]);
        b.merge(&a);
        assert_eq!(b.tp, 1);
        assert_eq!(b.tn, 1);
        assert_eq!(b.total(), 2);
    }

    #[test]
    fn display_mentions_counts() {
        let c = BinaryConfusion::from_predictions([(true, true)]);
        let s = c.to_string();
        assert!(s.contains("tp=1"));
    }
}
