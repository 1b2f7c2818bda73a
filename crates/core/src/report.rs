//! Table rows and ASCII rendering for the reproduction harness.

use hec_anomaly::HecLayer;

use crate::scheme::SchemeKind;

/// One row of Table I (per-model comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Model name (AE-IoT, …, BiLSTM-seq2seq-Cloud).
    pub model: String,
    /// HEC layer the model is deployed at.
    pub layer: HecLayer,
    /// Trainable parameter count.
    pub params: usize,
    /// Detection accuracy on the AD test split, percent.
    pub accuracy_pct: f64,
    /// F1-score on the AD test split.
    pub f1: f64,
    /// Execution time at this layer, ms.
    pub exec_ms: f64,
}

/// One row of Table II (per-scheme comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The model-selection scheme.
    pub scheme: SchemeKind,
    /// F1-score over the evaluation corpus.
    pub f1: f64,
    /// Accuracy over the evaluation corpus, percent.
    pub accuracy_pct: f64,
    /// Mean end-to-end detection delay, ms.
    pub delay_ms: f64,
    /// `100 × mean(accuracy − cost)`; `None` = the paper's "N/A".
    pub reward: Option<f64>,
}

/// Renders Table I in the paper's layout.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE I: Comparison among AD models\n");
    out.push_str(&format!(
        "{:<22} {:>6} {:>12} {:>12} {:>9} {:>14}\n",
        "Model", "Layer", "#Parameters", "Accuracy(%)", "F1-score", "Exec time (ms)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>6} {:>12} {:>12.2} {:>9.3} {:>14.1}\n",
            r.model,
            r.layer.to_string(),
            r.params,
            r.accuracy_pct,
            r.f1,
            r.exec_ms
        ));
    }
    out
}

/// Renders Table II in the paper's layout.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE II: Comparison among AD model detection schemes\n");
    out.push_str(&format!(
        "{:<12} {:>8} {:>12} {:>11} {:>9}\n",
        "Scheme", "F1", "Accuracy(%)", "Delay(ms)", "Reward"
    ));
    for r in rows {
        let reward = match r.reward {
            Some(v) => format!("{v:.2}"),
            None => "N/A".to_owned(),
        };
        out.push_str(&format!(
            "{:<12} {:>8.3} {:>12.2} {:>11.2} {:>9}\n",
            r.scheme.to_string(),
            r.f1,
            r.accuracy_pct,
            r.delay_ms,
            reward
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t1() -> Vec<Table1Row> {
        vec![Table1Row {
            model: "AE-IoT".into(),
            layer: HecLayer::IoT,
            params: 12448,
            accuracy_pct: 78.09,
            f1: 0.465,
            exec_ms: 12.4,
        }]
    }

    fn t2() -> Vec<Table2Row> {
        vec![
            Table2Row {
                scheme: SchemeKind::IoTDevice,
                f1: 0.465,
                accuracy_pct: 93.68,
                delay_ms: 12.4,
                reward: Some(48.39),
            },
            Table2Row {
                scheme: SchemeKind::Successive,
                f1: 0.769,
                accuracy_pct: 98.35,
                delay_ms: 105.27,
                reward: None,
            },
        ]
    }

    #[test]
    fn table1_contains_headers_and_values() {
        let s = format_table1(&t1());
        assert!(s.contains("#Parameters"));
        assert!(s.contains("AE-IoT"));
        assert!(s.contains("12448"));
        assert!(s.contains("12.4"));
    }

    #[test]
    fn table2_renders_na_for_successive() {
        let s = format_table2(&t2());
        assert!(s.contains("N/A"));
        assert!(s.contains("48.39"));
        assert!(s.contains("IoT Device"));
    }

    #[test]
    fn tables_have_one_line_per_row_plus_header() {
        assert_eq!(format_table1(&t1()).lines().count(), 3);
        assert_eq!(format_table2(&t2()).lines().count(), 4);
    }
}
