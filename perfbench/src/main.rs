//! The hec-ad repository benchmark.
//!
//! ```text
//! hec-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--inject-fault]
//! ```
//!
//! Generates the workload's inputs from the seed (and the quality
//! inputs from [`QUALITY_SEED`]), sets the program up several times,
//! runs one untimed serial reference pass (one thread, serial parsers)
//! over both, then repeats gated passes for `--seconds`. Prints a result
//! record (host facts, per-pass samples) and, as the last line, the
//! summary object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of the traced run (`--trace 1`, which also writes
//! every span to `perfbench/out/spans-<workload>-<seed>.tsv`). Exits
//! non-zero when any pass fails the correctness gate. See `README.md`.

mod gate;
mod host;
mod inputs;
mod metrics;
mod trace;
mod workloads;

use std::sync::Barrier;
use std::time::Instant;

use hec_anomaly::ModelCatalog;
use hec_core::parallel::{parallel_map, thread_count, with_thread_count};
use hec_core::stream::FleetStreamResult;
use hec_core::{AdaptReport, ExperimentConfig, SchemeKind};
use hec_data::{BinaryConfusion, LabeledCorpus, LabeledWindow};
use hec_sim::fleet::{FleetScale, FleetScenario};

use gate::Check;
use inputs::Batch;
use metrics::{Layers, Sample};
use trace::Tracer;
use workloads::{BatchOut, DesStats, Fleet, Pipeline, Source};

/// Share of the timed phase the batch workloads spend on set-up rounds
/// ([`setup_round`]), taken between passes so the samples span the whole
/// run rather than one moment of the host's load. The drift workload
/// sets up a pipeline per stream before each pass and reports those.
const SETUP_SHARE: f64 = 0.15;

/// Independent drift streams per `drift_adapt` pass. A pass runs them
/// side by side on the worker threads, each stream serial inside, so
/// that like the other workloads it keeps every worker busy. Serial
/// work run one piece at a time sits on one vCPU for seconds at a time,
/// and the build host's two vCPUs differ in speed by 1.6×, so such run
/// times come out bimodal; set-up samples are taken on every worker at
/// once for the same reason.
const DRIFT_STREAMS: u64 = 8;

/// Timed passes per run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Seed of the inputs the quality guards (`f1`, `reward_x100`) are
/// scored on, whatever `--seed` is. Quality is a fixed function of the
/// program on fixed inputs, so its bound can be tight: any verdict or
/// simulated-delay change that lowers it shows against the parent,
/// rather than hiding among the differences between seeds' inputs.
const QUALITY_SEED: u64 = 1;

/// The congested named scenarios of `fleet_congested`, each replayed
/// under a Table II scheme that loads its bottleneck: Successive
/// escalation fills the saturated edge queue, always-Cloud saturates the
/// constrained cloud link, and the adaptive policy meets the flash
/// crowd. (The adaptive policy alone keeps off the edge and the cloud
/// link, so neither admission path would drop a window.)
const CONGESTED: [(&str, SchemeKind); 3] = [
    ("edge_saturated", SchemeKind::Successive),
    ("cloud_link_constrained", SchemeKind::Cloud),
    ("flash_crowd", SchemeKind::Adaptive),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_fault: bool,
}

fn usage(detail: &str) -> ! {
    eprintln!(
        "usage: hec-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--inject-fault]\n{detail}",
        metrics::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, inject_fault: false };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--inject-fault" {
            args.inject_fault = true;
            continue;
        }
        let value = argv.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                args.seconds =
                    value.parse().ok().filter(|s: &f64| *s > 0.0).unwrap_or_else(|| bad())
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// One timed, gated pass.
struct Pass {
    windows: u64,
    wall_s: f64,
    cpu_s: f64,
    check: Check,
}

/// What the traced replica work adds on top of the spans.
#[derive(Default)]
struct ReplicaCounts {
    parse_bytes: u64,
    parsed_windows: u64,
    tier_windows: u64,
    greedy_windows: u64,
    /// Successful `recalibrate_detectors` calls (`drift_adapt` only).
    recalibrations: u64,
    /// Policy updates applied at chunk boundaries (`drift_adapt` only).
    policy_updates: u64,
}

/// A workload: set-up, a serial reference, gated passes, and the traced
/// replica of a pass.
trait Workload {
    /// Every set-up sample taken so far, in seconds.
    fn setup_samples(&self) -> &[f64];
    /// The untimed serial reference pass (`HEC_THREADS=1`, serial
    /// parsers) over the timed inputs and the quality inputs; also
    /// checks the parsed samples bit for bit.
    fn reference(&mut self) -> Check;
    /// Pass `i`, gated against the reference; with an enabled tracer the
    /// pass records its spans. `corrupt` flips one verdict (or label)
    /// before scoring, to show the gate catching it.
    fn pass(&mut self, i: usize, tr: &mut Tracer, corrupt: bool) -> Pass;
    /// Called between untraced passes with the timed phase's elapsed
    /// seconds; may take another set-up sample.
    fn between_passes(&mut self, _elapsed_s: f64) {}
    /// The replica of the last pass, split into per-layer calls.
    fn replica(&mut self, tr: &mut Tracer, des: &mut DesStats, counts: &mut ReplicaCounts)
        -> Check;
    /// F1 of the detection confusion pooled over the quality inputs'
    /// reference, and its reward ×100 weighted by windows.
    fn quality(&self) -> (f64, f64);
    /// The reference outcome in brief, for the result record.
    fn outcome(&self) -> Vec<(String, String)>;
}

/// One set-up sample: a pipeline set up on every worker thread at once,
/// each serial inside, and dropped there (the program's pipelines cannot
/// move between threads). Returns the round's wall seconds and the
/// sample, the wall seconds per pipeline.
fn setup_round(config: &ExperimentConfig, corpus: &LabeledCorpus) -> (f64, f64) {
    let workers = vec![(); thread_count()];
    let t0 = Instant::now();
    parallel_map(&workers, |_, ()| drop(workloads::setup(config, corpus)));
    let wall = t0.elapsed().as_secs_f64();
    (wall, wall / workers.len() as f64)
}

/// Times `f`'s wall and process CPU seconds.
fn measured<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (c0, t0) = (host::cpu_seconds(), Instant::now());
    let out = f();
    (out, t0.elapsed().as_secs_f64(), host::cpu_seconds() - c0)
}

/// F1 of the detection confusion pooled over `results`, and their
/// reward ×100 weighted by emitted windows.
fn pooled_quality<'a>(results: impl Iterator<Item = &'a FleetStreamResult>) -> (f64, f64) {
    let mut pooled = BinaryConfusion::new();
    let (mut reward, mut windows) = (0.0, 0.0);
    for r in results {
        pooled.merge(&r.confusion);
        reward += r.mean_reward_x100 * r.fleet.emitted as f64;
        windows += r.fleet.emitted as f64;
    }
    (pooled.f1(), reward / windows)
}

/// `power_stream`, `mhealth_stream` and `fleet_congested`: batches of
/// bytes through parse → standardise → oracle → sharded replay.
struct Batches {
    config: ExperimentConfig,
    corpus: LabeledCorpus,
    source: Source,
    fleet: Fleet,
    batches: Vec<Batch>,
    /// The quality inputs, dropped once their reference has run.
    quality_inputs: Vec<Batch>,
    pipe: Pipeline,
    setups: Vec<f64>,
    /// Wall seconds spent in set-up rounds.
    setup_wall_s: f64,
    reference: Vec<Vec<FleetStreamResult>>,
    quality: Vec<FleetStreamResult>,
    last: Option<(usize, BatchOut)>,
    catalog: Option<ModelCatalog>,
}

impl Batches {
    /// A batch workload on `make(seed)`, quality scored on
    /// `make(QUALITY_SEED)`.
    fn new(
        config: ExperimentConfig,
        fleet: Fleet,
        seed: u64,
        make: impl Fn(u64) -> Vec<Batch>,
    ) -> Self {
        let (batches, quality_inputs) = (make(seed), make(QUALITY_SEED));
        let corpus = inputs::training_corpus(&config);
        let pipe = workloads::setup(&config, &corpus);
        let source = Source::for_config(&config);
        Self {
            config,
            corpus,
            source,
            fleet,
            batches,
            quality_inputs,
            pipe,
            setups: Vec::new(),
            setup_wall_s: 0.0,
            reference: Vec::new(),
            quality: Vec::new(),
            last: None,
            catalog: None,
        }
    }
}

impl Workload for Batches {
    fn setup_samples(&self) -> &[f64] {
        &self.setups
    }

    fn reference(&mut self) -> Check {
        let mut tr = Tracer::disabled();
        let mut serial = |batch: &Batch| {
            with_thread_count(1, || {
                workloads::batch_pass(
                    &mut self.pipe,
                    &self.source,
                    &self.fleet,
                    batch,
                    true,
                    &mut tr,
                    false,
                )
            })
            .map(|out| out.results)
        };
        for batch in &self.batches {
            self.reference.push(serial(batch)?);
        }
        for batch in std::mem::take(&mut self.quality_inputs) {
            self.quality.extend(serial(&batch)?);
        }
        Ok(())
    }

    fn pass(&mut self, i: usize, tr: &mut Tracer, corrupt: bool) -> Pass {
        let b = i % self.batches.len();
        tr.set_batch(b as u32);
        let span = tr.begin("pass");
        let (out, wall_s, cpu_s) = measured(|| {
            workloads::batch_pass(
                &mut self.pipe,
                &self.source,
                &self.fleet,
                &self.batches[b],
                false,
                tr,
                corrupt,
            )
        });
        tr.end(span);
        let (windows, check) = match out {
            Ok(out) => {
                let check = gate::equal("replayed results", &out.results, &self.reference[b]);
                let windows = out.windows;
                self.last = Some((b, out));
                (windows, check)
            }
            Err(e) => (0, Err(e)),
        };
        Pass { windows, wall_s, cpu_s, check }
    }

    fn between_passes(&mut self, elapsed_s: f64) {
        if self.setup_wall_s < SETUP_SHARE * elapsed_s {
            let (wall, sample) = setup_round(&self.config, &self.corpus);
            self.setup_wall_s += wall;
            self.setups.push(sample);
        }
    }

    fn replica(
        &mut self,
        tr: &mut Tracer,
        des: &mut DesStats,
        counts: &mut ReplicaCounts,
    ) -> Check {
        let (b, out) = self.last.take().ok_or("no pass to replicate")?;
        let first = self.catalog.is_none();
        let catalog = self
            .catalog
            .get_or_insert_with(|| workloads::replica_catalog(&self.config, &self.pipe.exp));
        tr.set_batch(b as u32);
        let span = tr.begin("replica");
        let check =
            workloads::batch_replica(&mut self.pipe, catalog, &self.fleet, &out, first, tr, des);
        tr.end(span);
        counts.parse_bytes += self.batches[b].bytes.len() as u64;
        counts.parsed_windows += out.standardized.len() as u64;
        counts.tier_windows += out.standardized.len() as u64;
        counts.greedy_windows += out.oracle.len() as u64;
        check
    }

    fn quality(&self) -> (f64, f64) {
        pooled_quality(self.quality.iter())
    }

    fn outcome(&self) -> Vec<(String, String)> {
        self.reference
            .iter()
            .flatten()
            .enumerate()
            .map(|(i, r)| {
                let f = &r.fleet;
                let drops: Vec<String> = r
                    .drops
                    .iter()
                    .map(|d| format!("L{}:{}q/{}l", d.layer, d.queue, d.link))
                    .collect();
                let detail = format!(
                    "scheme={} emitted={} served={} dropped={} [{}] f1={:.4} reward_x100={:.2}",
                    r.scheme,
                    f.emitted,
                    f.served,
                    f.dropped,
                    drops.join(" "),
                    r.f1(),
                    r.mean_reward_x100
                );
                (format!("{i}:{}", f.scenario), detail)
            })
            .collect()
    }
}

/// `drift_adapt`: drift streams through `run_adaptive_stream`, each from
/// a fresh pipeline (adaptation mutates it). A pass runs every stream;
/// several independent drift episodes per pass keep the pooled quality
/// guards from hinging on one episode's recovery.
struct Drift {
    config: ExperimentConfig,
    corpus: LabeledCorpus,
    source: Source,
    streams: Vec<Batch>,
    /// The quality streams, dropped once their reference has run.
    quality_streams: Vec<Batch>,
    setups: Vec<f64>,
    reference: Vec<(AdaptReport, BinaryConfusion)>,
    quality: Vec<(AdaptReport, BinaryConfusion)>,
    last: Vec<Vec<LabeledWindow>>,
    catalog: Option<ModelCatalog>,
}

impl Drift {
    fn replica_streams(
        &mut self,
        tr: &mut Tracer,
        des: &mut DesStats,
        counts: &mut ReplicaCounts,
    ) -> Check {
        if self.last.len() != self.streams.len() {
            return Err("no complete pass to replicate".into());
        }
        for (k, windows) in std::mem::take(&mut self.last).into_iter().enumerate() {
            let mut state = workloads::drift_setup(&self.config, &self.corpus);
            let catalog = self
                .catalog
                .get_or_insert_with(|| workloads::replica_catalog(&self.config, &state.exp));
            tr.set_batch(k as u32);
            let span = tr.begin("replica");
            let splits = workloads::Splits {
                catalog,
                des: &mut *des,
                recalibrations: &mut counts.recalibrations,
            };
            let replica = workloads::adapt_replica(&mut state, &windows, tr, Some(splits));
            tr.end(span);
            let (report, _) = replica?;
            gate::equal("adaptation replica", &report, &self.reference[k].0)?;
            counts.parse_bytes += self.streams[k].bytes.len() as u64;
            counts.parsed_windows += windows.len() as u64;
            counts.tier_windows += windows.len() as u64;
            counts.greedy_windows += windows.len() as u64;
            counts.policy_updates +=
                report.chunks.iter().map(|c| c.policy_updates as u64).sum::<u64>();
        }
        Ok(())
    }
}

impl Workload for Drift {
    fn setup_samples(&self) -> &[f64] {
        &self.setups
    }

    /// The reference is the replica of `run_adaptive_stream` (the same
    /// public calls, one by one) at one thread: the timed passes'
    /// monolithic reports must equal it, and it yields the detection
    /// confusion pooled over all chunks, which the report lacks.
    fn reference(&mut self) -> Check {
        let mut tr = Tracer::disabled();
        let mut serial = |stream: &Batch| {
            with_thread_count(1, || {
                let windows = workloads::drift_parse(&self.source, stream, true, &mut tr, false)?;
                let mut state = workloads::drift_setup(&self.config, &self.corpus);
                let (report, pooled) =
                    workloads::adapt_replica(&mut state, &windows, &mut tr, None)?;
                gate::adapt_covers(&report, windows.len())?;
                Ok::<_, String>((report, pooled))
            })
        };
        for stream in &self.streams {
            self.reference.push(serial(stream)?);
        }
        for stream in std::mem::take(&mut self.quality_streams) {
            self.quality.push(serial(&stream)?);
        }
        Ok(())
    }

    /// Sets up one pipeline per stream, then runs the streams: each
    /// worker thread sets up the pipelines of its share of the streams
    /// (the program's pipelines cannot move between threads), all meet
    /// at a barrier, then each runs its streams one after another at one
    /// thread. The set-up sample is the set-up wall time per pipeline.
    fn pass(&mut self, _i: usize, tr: &mut Tracer, corrupt: bool) -> Pass {
        let workers = thread_count().min(self.streams.len());
        let share = self.streams.len().div_ceil(workers);
        let barrier = Barrier::new(workers + 1);
        let (config, corpus, source) = (&self.config, &self.corpus, &self.source);
        let t0 = Instant::now();
        let (runs, setup_s, wall_s, cpu_s) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .chunks(share)
                .enumerate()
                .map(|(w, chunk)| {
                    let (barrier, first) = (&barrier, w * share);
                    let mut tracers: Vec<Tracer> =
                        (first..first + chunk.len()).map(|k| tr.fork(k as u32)).collect();
                    scope.spawn(move || {
                        with_thread_count(1, || {
                            let mut states: Vec<_> = chunk
                                .iter()
                                .map(|_| workloads::drift_setup(config, corpus))
                                .collect();
                            barrier.wait();
                            let mut outs = Vec::with_capacity(chunk.len());
                            for (j, (stream, state)) in chunk.iter().zip(&mut states).enumerate() {
                                let tracer = &mut tracers[j];
                                let span = tracer.begin("pass");
                                let k = first + j;
                                let corrupt = corrupt && k == 0;
                                outs.push(workloads::drift_pass(
                                    state, source, stream, tracer, corrupt,
                                ));
                                tracer.end(span);
                            }
                            outs.into_iter().zip(tracers).collect::<Vec<_>>()
                        })
                    })
                })
                .collect();
            barrier.wait();
            let (t1, c1) = (Instant::now(), host::cpu_seconds());
            let runs: Vec<_> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("a drift worker panicked"))
                .collect();
            let setup_s = (t1 - t0).as_secs_f64() / self.streams.len() as f64;
            (runs, setup_s, t1.elapsed().as_secs_f64(), host::cpu_seconds() - c1)
        });
        self.setups.push(setup_s);
        let mut pass = Pass { windows: 0, wall_s, cpu_s, check: Ok(()) };
        self.last.clear();
        for (k, (out, tracer)) in runs.into_iter().enumerate() {
            tr.absorb(tracer);
            match out {
                Ok((windows, report)) => {
                    pass.windows += windows.len() as u64;
                    self.last.push(windows);
                    let check = gate::equal("adaptation report", &report, &self.reference[k].0);
                    pass.check = pass.check.and(check);
                }
                Err(e) => pass.check = pass.check.and(Err(e)),
            }
        }
        pass
    }

    /// Replicates the streams one at a time at one thread, as each
    /// stream runs inside a pass.
    fn replica(
        &mut self,
        tr: &mut Tracer,
        des: &mut DesStats,
        counts: &mut ReplicaCounts,
    ) -> Check {
        with_thread_count(1, || self.replica_streams(tr, des, counts))
    }

    fn outcome(&self) -> Vec<(String, String)> {
        self.reference
            .iter()
            .enumerate()
            .map(|(k, (r, pooled))| {
                let detail = format!(
                    "chunks={} detections={:?} refreshes={:?} f1={:.4}",
                    r.chunks.len(),
                    r.detections,
                    r.refreshes,
                    pooled.f1()
                );
                (format!("stream{k}"), detail)
            })
            .collect()
    }

    fn quality(&self) -> (f64, f64) {
        let mut pooled = BinaryConfusion::new();
        let (mut reward, mut windows) = (0.0, 0.0);
        for (report, confusion) in &self.quality {
            pooled.merge(confusion);
            for c in &report.chunks {
                reward += c.mean_reward_x100 * c.windows as f64;
                windows += c.windows as f64;
            }
        }
        (pooled.f1(), reward / windows)
    }
}

/// Builds a workload: inputs first, then the program's set-up.
fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "power_stream" => {
            Box::new(Batches::new(inputs::univariate_config(), Fleet::LightLoad, seed, |s| {
                inputs::power_batches(s, 4, 2500, 4)
            }))
        }
        "mhealth_stream" => {
            Box::new(Batches::new(inputs::multivariate_config(), Fleet::LightLoad, seed, |s| {
                inputs::mhealth_batches(s, 2, 512)
            }))
        }
        "fleet_congested" => Box::new(Batches::new(
            inputs::univariate_config(),
            Fleet::Named(
                CONGESTED
                    .iter()
                    .map(|&(name, scheme)| {
                        let sc =
                            FleetScenario::by_name(name, FleetScale::Full).expect("named scenario");
                        (sc, scheme)
                    })
                    .collect(),
            ),
            seed,
            |s| inputs::power_batches(s, 2, 1250, 4),
        )),
        "drift_adapt" => {
            let config = inputs::univariate_config();
            let corpus = inputs::training_corpus(&config);
            let source = Source::for_config(&config);
            let make = |s| (0..DRIFT_STREAMS).map(|k| inputs::drift_stream(s, k, 375, 2)).collect();
            Box::new(Drift {
                config,
                corpus,
                source,
                streams: make(seed),
                quality_streams: make(QUALITY_SEED),
                setups: Vec::new(),
                reference: Vec::new(),
                quality: Vec::new(),
                last: Vec::new(),
                catalog: None,
            })
        }
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn main() {
    let args = parse_args();
    if hec_telemetry::ENABLED {
        eprintln!(
            "hec-perfbench: telemetry recording is compiled in (hec-telemetry/enabled); it would \
             record counters and wall spans inside timed passes. Build without it."
        );
        std::process::exit(3);
    }
    if !run(&args) {
        std::process::exit(1);
    }
}

/// Runs the workload and prints the record and the summary; returns
/// whether every pass passed the gate.
fn run(args: &Args) -> bool {
    let facts = host::HostFacts::collect(thread_count());
    let started = Instant::now();
    let mut bench = build(&args.workload, args.seed);
    let mut failures: Vec<String> = Vec::new();
    if let Err(e) = bench.reference() {
        failures.push(format!("reference: {e}"));
    }

    // Timed passes, untraced; in the traced run each untraced pass is
    // followed by a traced pass and the replica of that pass.
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut traced_checks: Vec<Check> = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut des = DesStats::default();
    let mut counts = ReplicaCounts::default();
    // Iterations run while the next one, as long as the slowest so far,
    // still ends within `--seconds`.
    let timed = Instant::now();
    let mut slowest = 0.0f64;
    while failures.is_empty()
        && (timed.elapsed().as_secs_f64() + slowest <= args.seconds || passes.len() < MIN_PASSES)
    {
        let iteration = Instant::now();
        let corrupt = args.inject_fault && passes.is_empty();
        passes.push(bench.pass(passes.len(), &mut Tracer::disabled(), corrupt));
        bench.between_passes(timed.elapsed().as_secs_f64());
        if args.trace {
            // The traced pass runs the untraced pass's batch, so the
            // overhead compares the same inputs.
            let p = bench.pass(passes.len() - 1, &mut tracer, false);
            traced_walls.push(p.wall_s);
            let replica = match &p.check {
                Ok(()) => bench.replica(&mut tracer, &mut des, &mut counts),
                Err(_) => Err("skipped: the traced pass failed".into()),
            };
            traced_checks.push(p.check);
            traced_checks.push(replica);
        }
        slowest = slowest.max(iteration.elapsed().as_secs_f64());
    }
    let checks = passes.iter().map(|p| &p.check).chain(&traced_checks);
    for (i, check) in checks.enumerate() {
        if let Err(e) = check {
            failures.push(format!("pass {i}: {e}"));
        }
    }
    let attempted = (passes.len() + traced_checks.len()).max(1) as u64;
    let failed = (failures.len() as u64).min(attempted);
    let correct = failures.is_empty();

    let untraced_walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let windows: u64 = passes.iter().map(|p| p.windows).sum();
    let cpu: f64 = passes.iter().map(|p| p.cpu_s).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let (f1, reward_x100) = if correct { bench.quality() } else { (0.0, 0.0) };
    let sample = Sample {
        windows_per_s: windows as f64 / wall,
        cpu_us_per_window: cpu * 1e6 / windows.max(1) as f64,
        setup_s: median(bench.setup_samples()),
        peak_rss_mb: host::peak_rss_mb(),
        success_rate: (attempted - failed) as f64 / attempted as f64,
        f1,
        reward_x100,
    };
    let totals = tracer.totals();
    let layers = args.trace.then(|| {
        Layers::from_trace(
            &totals,
            &des,
            &counts,
            traced_walls.len().max(1) as u64,
            median(&traced_walls),
            median(&untraced_walls),
        )
    });
    if args.trace {
        let path = format!("perfbench/out/spans-{}-{}.tsv", args.workload, args.seed);
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, tracer.to_tsv()));
        if let Err(e) = written {
            eprintln!("hec-perfbench: could not write spans to {path}: {e}");
        }
    }

    let record = metrics::Record {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        facts: &facts,
        passes: passes.iter().map(|p| (p.windows, p.wall_s, p.cpu_s)).collect(),
        setups: bench.setup_samples(),
        outcome: if correct { bench.outcome() } else { Vec::new() },
        failures: &failures,
        metrics: match &layers {
            Some(l) => l.with_extras(),
            None => sample.end_to_end(),
        },
        spans: totals,
        run_s: started.elapsed().as_secs_f64(),
    };
    println!("{}", record.to_json());
    for f in &failures {
        eprintln!("hec-perfbench: FAILED {f}");
    }
    let reported = match &layers {
        Some(l) => l.per_layer(),
        None => sample.end_to_end(),
    };
    println!("{}", metrics::summary_json(correct, attempted, failed, &reported));
    correct
}
