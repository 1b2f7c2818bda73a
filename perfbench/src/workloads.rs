//! The program calls each workload times, and the traced replicas that
//! split a monolithic call (`replay_trace_sharded`, `run_plan`,
//! `oracle_over`, `run_adaptive_stream`) into the same public calls on
//! the same inputs, so each layer gets its own time.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hec_anomaly::ModelCatalog;
use hec_anomaly::{PageHinkley, SlidingReservoir};
use hec_bandit::{
    ContextScaler, DelaySource, PolicyNetwork, PolicyTrainer, RewardModel, TrainConfig,
};
use hec_core::parallel::{parallel_for_each_mut, thread_count, with_thread_count};
use hec_core::replay::{replay_scenario, replay_trace_sharded};
use hec_core::stream::{scheme_action_table, DropBreakdown, FleetStreamResult};
use hec_core::{
    run_adaptive_stream, run_plan, AdaptConfig, AdaptReport, ChunkStats, DatasetConfig, Experiment,
    ExperimentConfig, Oracle, SchemeKind,
};
use hec_data::ingest::{MhealthNdjsonSource, MissingValuePolicy, PowerCsvSource};
use hec_data::{BinaryConfusion, LabeledCorpus, LabeledWindow, OnlineStandardizer};
use hec_sim::fleet::{
    DropReason, FleetReport, FleetScenario, JobEvent, LatencyHist, RouteCtx, ShardPlan,
    ShardedFleetEngine,
};

use crate::gate::{self, Check};
use crate::inputs::{Batch, POWER_SPD};
use crate::trace::Tracer;

/// Fleet shards of every replay (part of the simulated physics).
pub const SHARDS: usize = 2;
/// Windows per adaptation chunk (the `repro_drift` quick sizing).
pub const DRIFT_CHUNK: usize = 25;
/// Span names of the three tier passes, bottom-up.
pub const TIERS: [&str; 3] = ["anomaly.iot", "anomaly.edge", "anomaly.cloud"];

/// The ingest parser matching an experiment's dataset.
pub enum Source {
    Power(PowerCsvSource),
    Mhealth(MhealthNdjsonSource),
}

impl Source {
    pub fn for_config(config: &ExperimentConfig) -> Self {
        match &config.dataset {
            DatasetConfig::Univariate(_) => Self::Power(PowerCsvSource::new(
                "stream.csv",
                POWER_SPD,
                MissingValuePolicy::Reject,
            )),
            DatasetConfig::Multivariate(c) => Self::Mhealth(MhealthNdjsonSource::new(
                "stream.ndjson",
                c.window,
                c.stride,
                MissingValuePolicy::Reject,
            )),
        }
    }

    /// The chunked parallel parser (one chunk per worker, at least
    /// 64 KiB), or with `serial` the single-pass reader.
    pub fn parse(&self, bytes: &[u8], serial: bool) -> Result<LabeledCorpus, String> {
        let chunk = bytes.len().div_ceil(thread_count()).max(64 * 1024);
        match (self, serial) {
            (Self::Power(s), false) => s.parse_chunked(bytes, chunk),
            (Self::Power(s), true) => s.parse(bytes),
            (Self::Mhealth(s), false) => s.parse_chunked(bytes, chunk),
            (Self::Mhealth(s), true) => s.parse(bytes),
        }
        .map_err(|e| format!("ingest failed: {e}"))
    }
}

/// A trained detection pipeline: detectors, policy and its scaler.
pub struct Pipeline {
    pub exp: Experiment,
    pub policy: PolicyNetwork,
    pub scaler: ContextScaler,
    pub reward: RewardModel,
}

/// The program's set-up: prepare + train detectors + policy oracle +
/// train policy.
pub fn setup(config: &ExperimentConfig, corpus: &LabeledCorpus) -> Pipeline {
    let mut exp = Experiment::prepare_with_corpus(config.clone(), corpus.clone());
    exp.train_detectors();
    let policy_corpus = exp.split.policy_train.clone();
    let policy_oracle = exp.oracle_over(&policy_corpus);
    let (policy, scaler, _curve) = exp.train_policy(&policy_oracle);
    let reward = RewardModel::new(exp.config().dataset.kind().paper_alpha());
    Pipeline { exp, policy, scaler, reward }
}

/// A second copy of the experiment's detectors, fitted the way
/// `Experiment::train_detectors` fits its own, so the traced run can
/// time each tier's `detect_batch` on its own.
pub fn replica_catalog(config: &ExperimentConfig, exp: &Experiment) -> ModelCatalog {
    let mut catalog = match &config.dataset {
        DatasetConfig::Univariate(c) => ModelCatalog::univariate(c.samples_per_day, config.seed),
        DatasetConfig::Multivariate(_) => {
            ModelCatalog::multivariate(18, config.seq2seq_hidden, config.seed)
        }
    };
    for det in catalog.detectors_mut() {
        det.fit(&exp.split.ad_train, config.ad_epochs).expect("replica detector fits");
    }
    catalog
}

/// Which fleet a batch is replayed through, under which scheme.
pub enum Fleet {
    /// The light-load replay fleet sized to the batch (`replay_scenario`),
    /// routed by the adaptive policy.
    LightLoad,
    /// Fixed named scenarios, each replayed in turn under its scheme.
    Named(Vec<(FleetScenario, SchemeKind)>),
}

impl Fleet {
    fn scenarios(&self, exp: &Experiment, windows: usize) -> Vec<(FleetScenario, SchemeKind)> {
        match self {
            Self::LightLoad => {
                let kind = exp.config().dataset.kind();
                let sc = replay_scenario(kind, exp.config().payload_bytes(), windows as u64);
                vec![(sc, SchemeKind::Adaptive)]
            }
            Self::Named(list) => list.clone(),
        }
    }
}

/// What one batch pass produced.
pub struct BatchOut {
    /// Windows carried from input to a scored result (emitted windows).
    pub windows: u64,
    pub standardized: Vec<LabeledWindow>,
    pub oracle: Oracle,
    pub results: Vec<FleetStreamResult>,
}

/// One batch: parse → standardise → oracle (3 tiers) → sharded replay
/// through each fleet scenario under the adaptive policy. `corrupt`
/// flips the first window's verdict at every tier before the replay.
pub fn batch_pass(
    p: &mut Pipeline,
    source: &Source,
    fleet: &Fleet,
    batch: &Batch,
    serial: bool,
    tr: &mut Tracer,
    corrupt: bool,
) -> Result<BatchOut, String> {
    let corpus = tr.time("data.parse", || source.parse(&batch.bytes, serial))?;
    if serial {
        gate::parsed_exactly(&corpus, &batch.windows)?;
    } else {
        gate::parsed_labels(&corpus, &batch.windows)?;
    }
    let standardized = tr.time("data.standardize", || p.exp.standardize_windows(&corpus.windows));
    let mut oracle = tr.time("core.oracle", || p.exp.oracle_over(&standardized));
    if corrupt {
        for f in &mut oracle.outcomes[0].anomalous_fraction {
            *f = if *f > oracle.flag_fraction { oracle.flag_fraction } else { 1.0 };
        }
    }
    let mut results = Vec::new();
    for (sc, scheme) in fleet.scenarios(&p.exp, oracle.len()) {
        let r = tr.time("core.replay", || {
            replay_trace_sharded(
                &sc,
                &oracle,
                scheme,
                Some(&mut p.policy),
                Some(&p.scaler),
                &p.reward,
                SHARDS,
            )
        });
        gate::conserved(&r)?;
        results.push(r);
    }
    let windows = results.iter().map(|r| r.fleet.emitted).sum();
    Ok(BatchOut { windows, standardized, oracle, results })
}

/// Times each tier's `detect_batch` on the replica catalog.
fn time_tiers(catalog: &mut ModelCatalog, windows: &[LabeledWindow], tr: &mut Tracer) {
    for (det, name) in catalog.detectors_mut().iter_mut().zip(TIERS) {
        black_box(tr.time(name, || det.detect_batch(windows)));
    }
}

/// Times the policy's batched greedy forward on the oracle's contexts.
fn time_greedy(policy: &mut PolicyNetwork, scaler: &ContextScaler, o: &Oracle, tr: &mut Tracer) {
    let scaled = scaler.transform_all(&o.contexts());
    black_box(tr.time("bandit.greedy", || policy.greedy_batch(&scaled)));
}

/// The traced replica of one batch pass: per-tier detection, the greedy
/// forward, and every replay split into action table, plan and DES.
/// With `check_oracle` the replica catalog's oracle must equal the
/// pass's.
pub fn batch_replica(
    p: &mut Pipeline,
    catalog: &mut ModelCatalog,
    fleet: &Fleet,
    out: &BatchOut,
    check_oracle: bool,
    tr: &mut Tracer,
    des: &mut DesStats,
) -> Check {
    time_tiers(catalog, &out.standardized, tr);
    if check_oracle {
        let o = Oracle::precompute_with_thresholds(catalog, &out.standardized, p.exp.thresholds());
        gate::equal("replica oracle", &o, &out.oracle)?;
    }
    time_greedy(&mut p.policy, &p.scaler, &out.oracle, tr);
    let scenarios = fleet.scenarios(&p.exp, out.oracle.len());
    for ((sc, scheme), mono) in scenarios.iter().zip(&out.results) {
        let (policy, scaler) = (&mut p.policy, &p.scaler);
        let r = replay_replica(sc, *scheme, &out.oracle, policy, scaler, &p.reward, tr, des)?;
        gate::equal("replay replica", &r, mono)?;
    }
    Ok(())
}

/// DES counters the traced replica gathers (the engine's own barrier and
/// stall counters only count with telemetry compiled in).
#[derive(Debug, Default, Clone)]
pub struct DesStats {
    pub runs: u64,
    pub barriers: u64,
    pub shard_visits: u64,
    pub stall_visits: u64,
    pub events: u64,
    pub skew_sum: f64,
    pub advance_ns: u64,
    pub merge_ns: u64,
    pub observe_ns: u64,
    pub wait_ns: f64,
}

/// `run_plan`'s parallel barrier loop, issued through the same public
/// engine calls (`next_barrier`, `advance_to` on `HEC_THREADS` workers,
/// `merge_window`, `pop_ready`), with each phase timed.
pub fn des_replica(
    plan: &ShardPlan,
    router: &(dyn Fn(&RouteCtx) -> usize + Sync),
    observer: &mut dyn FnMut(&JobEvent),
    stats: &mut DesStats,
) -> FleetReport {
    let mut engine = ShardedFleetEngine::new(plan);
    let shards = engine.num_shards();
    assert!(shards > 1, "the replica mirrors run_plan's multi-shard path");
    // Written by workers, read after `parallel_for_each_mut` joins them
    // (the join orders the accesses), so relaxed ordering suffices.
    let busy_ns: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
    let mut before = vec![0u64; shards];
    let mut shard_events = vec![0u64; shards];
    while let Some(barrier) = engine.next_barrier() {
        for (b, shard) in before.iter_mut().zip(engine.shards_mut().iter()) {
            *b = shard.events();
        }
        let t0 = Instant::now();
        parallel_for_each_mut(engine.shards_mut(), |s, shard| {
            let t = Instant::now();
            let mut shim = |ctx: &RouteCtx| router(ctx);
            shard.advance_to(barrier, &mut shim);
            busy_ns[s].store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
        let t1 = Instant::now();
        engine.merge_window();
        let t2 = Instant::now();
        while let Some(ev) = engine.pop_ready() {
            observer(&ev);
        }
        stats.observe_ns += t2.elapsed().as_nanos() as u64;
        stats.merge_ns += (t2 - t1).as_nanos() as u64;
        stats.advance_ns += (t1 - t0).as_nanos() as u64;

        let busy: Vec<u64> = busy_ns.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let max = *busy.iter().max().expect("at least two shards");
        stats.wait_ns += max as f64 - busy.iter().sum::<u64>() as f64 / shards as f64;
        for (s, shard) in engine.shards_mut().iter().enumerate() {
            let processed = shard.events() - before[s];
            shard_events[s] += processed;
            stats.stall_visits += u64::from(processed == 0);
        }
        stats.barriers += 1;
        stats.shard_visits += shards as u64;
    }
    let total: u64 = shard_events.iter().sum();
    let max = *shard_events.iter().max().expect("at least two shards");
    stats.events += total;
    stats.skew_sum += if total == 0 { 1.0 } else { max as f64 * shards as f64 / total as f64 };
    stats.runs += 1;
    engine.report()
}

/// `replay_trace_sharded` split into its public calls: the action table,
/// the shard plan, the DES (replica, then the same plan once more at
/// one thread) and the same served/dropped accounting.
#[allow(clippy::too_many_arguments)]
pub fn replay_replica(
    sc: &FleetScenario,
    scheme: SchemeKind,
    oracle: &Oracle,
    policy: &mut PolicyNetwork,
    scaler: &ContextScaler,
    reward: &RewardModel,
    tr: &mut Tracer,
    des: &mut DesStats,
) -> Result<FleetStreamResult, String> {
    let n = oracle.len() as u64;
    let actions = tr.time("bandit.action_table", || {
        scheme_action_table(sc, oracle, scheme, Some(policy), Some(scaler))
    });
    let plan = tr.time("sim.plan", || ShardPlan::new(sc, SHARDS));
    let router = |ctx: &RouteCtx| actions[(ctx.seq % n) as usize];

    let mut confusion = BinaryConfusion::new();
    let (mut missed, mut routed, mut reward_sum) = (0u64, 0u64, 0.0f64);
    let mut latency = LatencyHist::new();
    let mut drops = vec![[0u64; 2]; sc.topology().num_layers()];
    let mut observe = |ev: &JobEvent| match *ev {
        JobEvent::Served { seq, layer, latency_ms, .. } => {
            let i = (seq % n) as usize;
            confusion.record(oracle.verdict(i, layer), oracle.outcomes[i].truth);
            reward_sum += reward.reward_outcome(oracle.correct(i, layer), Some(latency_ms));
            latency.record(latency_ms);
            routed += 1;
        }
        JobEvent::Dropped { layer, reason, .. } => {
            drops[layer][usize::from(reason == DropReason::LinkSaturated)] += 1;
            missed += 1;
            reward_sum += reward.reward_dropped();
            routed += 1;
        }
    };
    let span = tr.begin("sim.run");
    let report = des_replica(&plan, &router, &mut observe, des);
    tr.end(span);
    let serial =
        tr.time("sim.run_1t", || with_thread_count(1, || run_plan(&plan, &router, &mut |_| {})));
    gate::equal("one-thread DES report", &serial.report, &report)?;

    Ok(FleetStreamResult {
        scheme,
        fleet: report,
        confusion,
        missed,
        drops: drops
            .iter()
            .enumerate()
            .map(|(layer, c)| DropBreakdown { layer, queue: c[0], link: c[1] })
            .collect(),
        mean_reward_x100: 100.0 * reward_sum / routed.max(1) as f64,
        routed_mean_ms: latency.mean(),
        routed_p99_ms: latency.quantile(0.99),
    })
}

/// Drift adaptation state: everything `run_adaptive_stream` mutates.
pub struct DriftState {
    pub exp: Experiment,
    pub trainer: PolicyTrainer,
    pub scaler: ContextScaler,
}

/// A fresh adaptation state (the `repro_drift` continual-trainer
/// settings).
pub fn drift_setup(config: &ExperimentConfig, corpus: &LabeledCorpus) -> DriftState {
    let p = setup(config, corpus);
    let trainer = PolicyTrainer::new(
        p.policy,
        TrainConfig { learning_rate: 5e-3, entropy_beta: 0.02, ..Default::default() },
    );
    DriftState { exp: p.exp, trainer, scaler: p.scaler }
}

pub fn adapt_config() -> AdaptConfig {
    AdaptConfig::adaptive(DRIFT_CHUNK, SHARDS)
}

/// Parses the drift stream and checks it against the generated windows
/// (bit for bit with the serial parser). `corrupt` flips the first
/// parsed window's label, which the check must catch.
pub fn drift_parse(
    source: &Source,
    stream: &Batch,
    serial: bool,
    tr: &mut Tracer,
    corrupt: bool,
) -> Result<Vec<LabeledWindow>, String> {
    let mut corpus = tr.time("data.parse", || source.parse(&stream.bytes, serial))?;
    if corrupt {
        corpus.windows[0].anomalous = !corpus.windows[0].anomalous;
    }
    if serial {
        gate::parsed_exactly(&corpus, &stream.windows)?;
    } else {
        gate::parsed_labels(&corpus, &stream.windows)?;
    }
    Ok(corpus.windows)
}

/// One drift pass: parse the stream, then `run_adaptive_stream`.
pub fn drift_pass(
    st: &mut DriftState,
    source: &Source,
    stream: &Batch,
    tr: &mut Tracer,
    corrupt: bool,
) -> Result<(Vec<LabeledWindow>, AdaptReport), String> {
    let windows = drift_parse(source, stream, false, tr, corrupt)?;
    let report = tr.time("core.adapt", || {
        run_adaptive_stream(&mut st.exp, &mut st.trainer, &st.scaler, &windows, &adapt_config())
    });
    gate::adapt_covers(&report, windows.len())?;
    Ok((windows, report))
}

/// Spans of the calls `run_adaptive_stream` itself makes; the replica's
/// extra splits (tiers, replay replica, greedy forward) are not among
/// them, so the adaptation residual is the monolithic call's wall time
/// minus these.
pub const ADAPT_CALLS: [&str; 9] = [
    "core.reservoir",
    "data.standardize",
    "core.oracle",
    "core.scenario",
    "core.replay",
    "anomaly.drift",
    "data.online_std",
    "anomaly.recalibrate",
    "bandit.refresh",
];

/// The replica's extra splits, beyond the calls `run_adaptive_stream`
/// makes: per-tier detection on a replica catalog, the replay split
/// into action table, plan and DES, and the greedy forward; plus the
/// count of successful `Experiment::recalibrate_detectors` calls.
pub struct Splits<'a> {
    pub catalog: &'a mut ModelCatalog,
    pub des: &'a mut DesStats,
    pub recalibrations: &'a mut u64,
}

/// `run_adaptive_stream`'s chunk loop issued call by call, each call in
/// its own span (with `splits`, the replay and the oracle are further
/// split as in [`batch_replica`]). Must reproduce the monolithic report
/// exactly. Also returns the detection confusion pooled over every
/// chunk's served windows.
pub fn adapt_replica(
    st: &mut DriftState,
    stream: &[LabeledWindow],
    tr: &mut Tracer,
    mut splits: Option<Splits<'_>>,
) -> Result<(AdaptReport, BinaryConfusion), String> {
    let config = adapt_config();
    let DriftState { exp, trainer, scaler } = st;
    let kind = exp.config().dataset.kind();
    let payload = exp.config().payload_bytes();
    let reward = RewardModel::new(kind.paper_alpha());
    let delays = exp.static_delays();
    let mut ph = PageHinkley::new(config.drift);
    let mut reservoir: SlidingReservoir<LabeledWindow> = SlidingReservoir::new(config.reservoir);
    let (mut chunks, mut detections, mut refreshes) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_refresh: Option<usize> = None;
    let mut pooled = BinaryConfusion::new();

    for (index, raw) in stream.chunks(config.chunk).enumerate() {
        tr.time("core.reservoir", || raw.iter().for_each(|w| reservoir.push(w.clone())));
        let standardized = tr.time("data.standardize", || exp.standardize_windows(raw));
        let oracle = tr.time("core.oracle", || exp.oracle_over(&standardized));
        if let Some(sp) = splits.as_mut() {
            time_tiers(sp.catalog, &standardized, tr);
        }
        let scenario =
            tr.time("core.scenario", || replay_scenario(kind, payload, raw.len() as u64));
        let result = tr.time("core.replay", || {
            replay_trace_sharded(
                &scenario,
                &oracle,
                SchemeKind::Adaptive,
                Some(trainer.policy_mut()),
                Some(scaler),
                &reward,
                config.shards,
            )
        });
        if let Some(sp) = splits.as_mut() {
            let policy = trainer.policy_mut();
            let adaptive = SchemeKind::Adaptive;
            let split =
                replay_replica(&scenario, adaptive, &oracle, policy, scaler, &reward, tr, sp.des)?;
            gate::equal("replay replica", &split, &result)?;
            time_greedy(policy, scaler, &oracle, tr);
        }
        pooled.merge(&result.confusion);

        let drift_alarm = tr.time("anomaly.drift", || {
            let mut alarm = false;
            for outcome in &oracle.outcomes {
                alarm |= ph.observe(outcome.anomalous_fraction[0]);
            }
            alarm
        });
        if drift_alarm {
            detections.push(index);
        }
        let gap_ok = last_refresh.is_none_or(|c| index - c >= config.min_refresh_gap);
        let mut refreshed = false;
        if drift_alarm && gap_ok && (config.refresh_standardizer || config.recalibrate_detectors) {
            if config.refresh_standardizer {
                tr.time("data.online_std", || {
                    let mut online = OnlineStandardizer::new(exp.standardizer().channels());
                    for w in reservoir.iter() {
                        online.update(&w.data);
                    }
                    exp.set_standardizer(online.freeze());
                });
                refreshed = true;
            }
            if config.recalibrate_detectors {
                let recalibrated = tr.time("anomaly.recalibrate", || {
                    let raw_reservoir: Vec<LabeledWindow> = reservoir.iter().cloned().collect();
                    let std_reservoir = exp.standardize_windows(&raw_reservoir);
                    let reservoir_oracle = exp.oracle_over(&std_reservoir);
                    let normals: Vec<LabeledWindow> = std_reservoir
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !reservoir_oracle.verdict(*i, 2))
                        .map(|(_, w)| LabeledWindow::new(w.data.clone(), false))
                        .collect();
                    !normals.is_empty() && exp.recalibrate_detectors(&normals).is_ok()
                });
                if let (true, Some(sp)) = (recalibrated, splits.as_mut()) {
                    *sp.recalibrations += 1;
                }
                refreshed |= recalibrated;
            }
            if refreshed {
                ph.reset();
                last_refresh = Some(index);
                refreshes.push(index);
            }
        }
        let policy_updates = tr.time("bandit.refresh", || {
            if !config.refresh_policy {
                return 0;
            }
            for (i, outcome) in oracle.outcomes.iter().enumerate() {
                let context = scaler.transform(&outcome.context);
                let action = trainer.sample_action(&context);
                let delay = delays.delay_ms(i, action).expect("static delays never drop");
                let r = reward.reward(oracle.correct(i, action), delay) as f32;
                trainer.buffer(context, action, r);
            }
            trainer.refresh()
        });
        chunks.push(ChunkStats {
            index,
            windows: raw.len(),
            f1: result.f1(),
            accuracy: result.accuracy(),
            mean_reward_x100: result.mean_reward_x100,
            drift_statistic: ph.statistic(),
            drift_alarm,
            refreshed,
            policy_updates,
            threshold_iot: exp.thresholds()[0],
        });
    }
    let report = AdaptReport {
        label: config.label.clone(),
        chunks,
        detections,
        refreshes,
        total_windows: stream.len(),
    };
    Ok((report, pooled))
}
