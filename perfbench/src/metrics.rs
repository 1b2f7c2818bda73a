//! Metric definitions and the JSON the benchmark prints: a result record
//! (host facts, raw per-pass samples) and the summary line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host::HostFacts;
use crate::trace::Totals;
use crate::workloads::{DesStats, ADAPT_CALLS, TIERS};
use crate::ReplicaCounts;

pub const WORKLOADS: [&str; 4] =
    ["power_stream", "mhealth_stream", "drift_adapt", "fleet_congested"];

/// A reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end numbers of one untraced run.
pub struct Sample {
    /// Windows per wall second over all timed passes. A total, not a
    /// median of per-pass rates: the host alternates between a fast and
    /// a slow speed for seconds at a time, and a median jumps between the
    /// two where a total moves with the share of time spent in each.
    pub windows_per_s: f64,
    /// Process CPU (user + sys, all threads) per window over all passes.
    pub cpu_us_per_window: f64,
    /// Median set-up seconds.
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub success_rate: f64,
    pub f1: f64,
    pub reward_x100: f64,
}

impl Sample {
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            ("windows_per_s", self.windows_per_s, "1/s"),
            ("cpu_us_per_window", self.cpu_us_per_window, "us"),
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
            ("success_rate", self.success_rate, "ratio"),
            ("f1", self.f1, "score"),
            ("reward_x100", self.reward_x100, "x100"),
        ]
    }
}

/// Per-layer numbers of a traced run, reduced from the spans and the
/// replica counters. Times are per traced pass unless named per window.
pub struct Layers {
    per_layer: Vec<Metric>,
    extra: Vec<Metric>,
}

impl Layers {
    pub fn from_trace(
        totals: &BTreeMap<&'static str, Totals>,
        des: &DesStats,
        counts: &ReplicaCounts,
        passes: u64,
        traced_wall_s: f64,
        untraced_wall_s: f64,
    ) -> Self {
        let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ms);
        let n = passes as f64;
        let per_pass = |name: &str| total(name) / n;
        let us_per = |ms: f64, windows: u64| ms * 1e3 / windows.max(1) as f64;
        let tiers: f64 = TIERS.iter().map(|t| total(t)).sum();
        let observe_ms = des.observe_ns as f64 / 1e6;
        let des_ms = total("sim.run") - observe_ms;
        let parse_s = total("data.parse") / 1e3;
        let per_layer = vec![
            ("data.parse_ms", per_pass("data.parse"), "ms"),
            ("data.parse_mb_per_s", counts.parse_bytes as f64 / 1e6 / parse_s, "MB/s"),
            ("data.windows", counts.parsed_windows as f64 / n, "count"),
            ("data.standardize_ms", per_pass("data.standardize"), "ms"),
            ("anomaly.iot_us_per_window", us_per(total(TIERS[0]), counts.tier_windows), "us"),
            ("anomaly.edge_us_per_window", us_per(total(TIERS[1]), counts.tier_windows), "us"),
            ("anomaly.cloud_us_per_window", us_per(total(TIERS[2]), counts.tier_windows), "us"),
            ("bandit.action_table_ms", per_pass("bandit.action_table"), "ms"),
            (
                "bandit.greedy_us_per_window",
                us_per(total("bandit.greedy"), counts.greedy_windows),
                "us",
            ),
            ("sim.plan_ms", per_pass("sim.plan"), "ms"),
            ("sim.run_ms", des_ms / n, "ms"),
            ("sim.run_1t_ms", per_pass("sim.run_1t"), "ms"),
            ("sim.events", des.events as f64 / n, "count"),
            ("sim.events_per_s", des.events as f64 / (des_ms / 1e3), "1/s"),
            ("sim.barriers", des.barriers as f64 / n, "count"),
            ("sim.stall_ratio", des.stall_visits as f64 / des.shard_visits.max(1) as f64, "ratio"),
            ("sim.shard_skew", des.skew_sum / des.runs.max(1) as f64, "ratio"),
            ("sim.advance_ms", des.advance_ns as f64 / 1e6 / n, "ms"),
            ("sim.merge_ms", des.merge_ns as f64 / 1e6 / n, "ms"),
            ("sim.barrier_wait_ms", des.wait_ns / 1e6 / n, "ms"),
            ("core.oracle_self_ms", (total("core.oracle") - tiers) / n, "ms"),
            (
                "core.replay_self_ms",
                (total("core.replay") - total("bandit.action_table") - total("sim.plan") - des_ms)
                    / n,
                "ms",
            ),
            ("trace.overhead_pct", (traced_wall_s / untraced_wall_s - 1.0) * 100.0, "%"),
        ];
        // Drift-only calls and counts: reported in the record, not as
        // metrics, since the other workloads never make them.
        let adapt_calls: f64 = ADAPT_CALLS.iter().map(|c| total(c)).sum();
        let extra = if totals.contains_key("core.adapt") {
            vec![
                ("anomaly.recalibrate_ms", per_pass("anomaly.recalibrate"), "ms"),
                ("anomaly.recalibrations", counts.recalibrations as f64 / n, "count"),
                ("anomaly.drift_ms", per_pass("anomaly.drift"), "ms"),
                ("bandit.refresh_ms", per_pass("bandit.refresh"), "ms"),
                ("bandit.policy_updates", counts.policy_updates as f64 / n, "count"),
                ("core.adapt_ms", per_pass("core.adapt"), "ms"),
                ("core.adapt_residual_ms", (total("core.adapt") - adapt_calls) / n, "ms"),
            ]
        } else {
            Vec::new()
        };
        Self { per_layer, extra }
    }

    pub fn per_layer(&self) -> Vec<Metric> {
        self.per_layer.clone()
    }

    /// Per-layer metrics plus the workload-specific extras.
    pub fn with_extras(&self) -> Vec<Metric> {
        self.per_layer.iter().chain(&self.extra).copied().collect()
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// non-finite values (which JSON cannot carry) become `null`.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn array(xs: impl Iterator<Item = String>) -> String {
    format!("[{}]", xs.collect::<Vec<_>>().join(", "))
}

fn metric_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(n), number(*v), quote(u))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The summary line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn summary_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metric_object(metrics)
    )
}

/// The result record: workload, seed, host facts, the raw per-pass
/// and set-up samples a same-host comparison needs, and the reference
/// outcome in brief.
pub struct Record<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub facts: &'a HostFacts,
    /// `(windows, wall seconds, CPU seconds)` of every untraced pass.
    pub passes: Vec<(u64, f64, f64)>,
    pub setups: &'a [f64],
    pub outcome: Vec<(String, String)>,
    pub failures: &'a [String],
    pub metrics: Vec<Metric>,
    /// Per span name: count, total and self milliseconds (traced run).
    pub spans: BTreeMap<&'static str, Totals>,
    pub run_s: f64,
}

impl Record<'_> {
    pub fn to_json(&self) -> String {
        let f = self.facts;
        let outcome: Vec<String> =
            self.outcome.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(name, t)| {
                format!(
                    "{}: {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                    quote(name),
                    t.count,
                    number(t.total_ms),
                    number(t.self_ms)
                )
            })
            .collect();
        format!(
            "{{\"record\": \"hec-perfbench/1\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
             \"trace\": {}, \"nproc\": {}, \"hec_threads\": {}, \"cpu_model\": {}, \
             \"cpu_flags\": {}, \"rustc\": {}, \"git_commit\": {}, \"run_s\": {}, \
             \"pass_windows\": {}, \"pass_wall_s\": {}, \"pass_cpu_s\": {}, \"setup_s\": {}, \
             \"outcome\": {{{}}}, \"failures\": {}, \"metrics\": {}, \"spans\": {{{}}}}}",
            quote(self.workload),
            self.seed,
            number(self.seconds),
            self.trace,
            f.nproc,
            f.hec_threads,
            quote(&f.cpu_model),
            quote(&f.cpu_flags),
            quote(&f.rustc),
            quote(&f.git_commit),
            number(self.run_s),
            array(self.passes.iter().map(|p| p.0.to_string())),
            array(self.passes.iter().map(|p| number(p.1))),
            array(self.passes.iter().map(|p| number(p.2))),
            array(self.setups.iter().map(|s| number(*s))),
            outcome.join(", "),
            array(self.failures.iter().map(|f| quote(f))),
            metric_object(&self.metrics),
            spans.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_has_the_four_keys_in_order() {
        let line = summary_json(true, 12, 0, &[("windows_per_s", 1234.5, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"windows_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_every_digit_and_never_emit_nan() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
