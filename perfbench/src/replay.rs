//! `oo7_replay`: the paper's evaluation. An OO7 Small trace is generated
//! and written to a tracefile in set-up, then replayed single-threaded
//! from disk under SAIO and under SAGA.
//!
//! Untraced repetitions go through the public batched replay
//! (`open_batches` + `Simulator::replay_batched`); the only stamp is one
//! clock read per decoded block, which gives the turn latency. The
//! traced pass is the same loop spelled out over `StoreEngine`, with the
//! decode, apply and collection calls timed separately; its `RunResult`
//! must equal the batched replay's.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use odbgc_core::{ClampHit, PolicySpec};
use odbgc_engine::{CollectMode, DecisionRecord, EngineObserver, RunResult, StoreEngine};
use odbgc_oo7::{Oo7App, Oo7Params};
use odbgc_sim::simulator::{BatchSource, ReplayOptions};
use odbgc_sim::Simulator;
use odbgc_store::buffer::BufferStats;
use odbgc_trace::Event;
use odbgc_tracefile::{open_batches, DecodeError, FileBatches};

use crate::stats::{self, us, Report};
use crate::{engine_config, garbage_err_pp, io_share_err_pp, sub_seeds, Args};

/// OO7 atomic-part connectivity (the paper's densest setting).
const CONNECTIVITY: u32 = 9;
/// Traces per run, each generated from its own seed and each its own
/// set-up; repetitions cycle through them. Averaging the controllers'
/// tracking errors and pooling turn latencies over several traces keeps
/// one trace's quirks from deciding a run's figures.
const TRACES: u64 = 20;
/// The SAIO pass's policy and requested GC share of I/O, percent.
const SAIO: (&str, f64) = ("saio:10%", 10.0);
/// The SAGA pass's policy and requested garbage share, percent.
const SAGA: (&str, f64) = ("saga:10%:fgs-hb", 10.0);
/// Events per replay turn (at least; a turn ends at a tracefile block
/// boundary, and a block holds ~6k events, so a turn is ~4 blocks). A turn
/// must hold many collections: collections cost ~3 ms and come in bursts,
/// so with one or two blocks per turn the turn times split into modes by
/// how many collections a turn holds, and the median jumped between them
/// from run to run. At 24k events a run still has ~1500 turns, so its
/// p99 has more than ten turns beyond it.
const TURN_EVENTS: usize = 24_000;
/// Every how many collections the traced pass times a heap-wide
/// reachability computation to estimate `gc.reach_share`.
const REACH_SAMPLE_EVERY: u64 = 8;

/// A block source that stamps the clock between blocks and cuts the
/// replay into turns of at least `TURN_EVENTS` events, each ending at a
/// block boundary; a turn's time is the decode and apply time of its
/// blocks, collections included. A tail shorter than a turn is dropped.
struct StampedBatches<'s> {
    inner: FileBatches,
    /// Start of the current turn and the events lent in it so far.
    turn: Option<(Instant, usize)>,
    turn_us: &'s mut Vec<f64>,
}

impl BatchSource for StampedBatches<'_> {
    type Error = DecodeError;

    fn phase_names(&self) -> Vec<String> {
        self.inner.phase_names().to_vec()
    }

    fn next_batch(&mut self) -> Result<Option<&[Event]>, DecodeError> {
        let now = Instant::now();
        match self.turn {
            Some((start, events)) if events >= TURN_EVENTS => {
                self.turn_us.push(us(now - start));
                self.turn = Some((now, 0));
            }
            None => self.turn = Some((now, 0)),
            Some(_) => {}
        }
        let batch = self.inner.next_batch()?;
        if let (Some(batch), Some((_, events))) = (&batch, &mut self.turn) {
            *events += batch.len();
        }
        Ok(batch)
    }
}

/// One untraced batched replay of the tracefile under `spec`.
fn batched_pass(
    path: &Path,
    spec: &PolicySpec,
    turn_us: &mut Vec<f64>,
) -> Result<(RunResult, Duration), String> {
    let mut policy = spec.build();
    let start = Instant::now();
    let source = StampedBatches {
        inner: open_batches(path).map_err(|e| format!("open {}: {e}", path.display()))?,
        turn: None,
        turn_us,
    };
    let result = Simulator::new(engine_config())
        .replay_batched(source, &mut *policy, ReplayOptions::new())
        .map_err(|e| format!("replay under {spec}: {e}"))?;
    Ok((result, start.elapsed()))
}

/// Policy decisions seen by the traced pass.
#[derive(Default)]
struct DecisionTap {
    decisions: u64,
    clamp_hits: u64,
    est_err_abs_bytes: Vec<f64>,
}

impl EngineObserver for DecisionTap {
    fn note_decision(&mut self, record: &DecisionRecord) {
        self.decisions += 1;
        if record.clamp != ClampHit::None {
            self.clamp_hits += 1;
        }
        if let Some(err) = record.estimate_error() {
            self.est_err_abs_bytes.push(err.abs());
        }
    }
}

/// Per-layer totals of the traced passes.
#[derive(Default)]
struct Layers {
    passes: u64,
    events: u64,
    wall: Duration,
    decode: Duration,
    collect: Duration,
    /// Duration of each `collect_if_due` call that collected, µs.
    collect_us: Vec<f64>,
    /// Sampled reachability time over its collection's time.
    reach_share: Vec<f64>,
    reclaimed: u64,
    bytes_after: u64,
    gc_io: u64,
    app_io: u64,
    sched_busy_ns: u64,
    buffer: BufferStats,
    tap: DecisionTap,
}

/// One traced replay: the loop of `replay_batched`, with the engine in
/// deferred mode so each due collection is a separately timed call. The
/// engine runs exactly the per-event sequence of the inline mode (apply,
/// then collect if due), so the result is the same.
fn traced_pass(path: &Path, spec: &PolicySpec, layers: &mut Layers) -> Result<RunResult, String> {
    let policy = spec.build();
    let start = Instant::now();
    let mut reader = open_batches(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let phase_names = reader.phase_names().to_vec();
    let mut engine = StoreEngine::new(engine_config(), policy);
    engine.set_collect_mode(CollectMode::Deferred);
    let mut phases = Vec::new();
    let mut base = 0u64;
    let mut decode = Duration::ZERO;
    let mut collect = Duration::ZERO;
    let mut excluded = Duration::ZERO;
    loop {
        let t = Instant::now();
        let batch = reader
            .next_batch()
            .map_err(|e| format!("decode at event {base}: {e}"))?;
        decode += t.elapsed();
        let Some(batch) = batch else { break };
        for (i, ev) in batch.iter().enumerate() {
            let index = base + i as u64;
            if let Event::Phase { id } = ev {
                let name = phase_names
                    .get(id.index())
                    .map_or("<unknown>", String::as_str)
                    .to_owned();
                phases.push((name, index, engine.collection_count()));
            }
            engine
                .apply_event(ev, Some(&mut layers.tap))
                .map_err(|e| format!("event {index} under {spec}: {e}"))?;
            if !engine.collection_due() {
                continue;
            }
            let t = Instant::now();
            let collected = engine.collect_if_due(Some(&mut layers.tap));
            let took = t.elapsed();
            collect += took;
            let Some(applied) = collected else { continue };
            layers.collect_us.push(us(took));
            layers.reclaimed += applied.bytes_reclaimed;
            layers.bytes_after += applied.bytes_after;
            layers.gc_io += applied.gc_io();
            if engine.collection_count().is_multiple_of(REACH_SAMPLE_EVERY) {
                let t = Instant::now();
                std::hint::black_box(engine.store().compute_reachable());
                let reach = t.elapsed();
                excluded += reach;
                layers
                    .reach_share
                    .push(reach.as_secs_f64() / took.as_secs_f64());
            }
        }
        base += batch.len() as u64;
    }
    layers.wall += start.elapsed() - excluded;
    layers.decode += decode;
    layers.collect += collect;
    layers.events += engine.events_applied();
    layers.sched_busy_ns += engine.sched_totals().busy_ns;
    let buffer = engine.store().buffer_stats();
    layers.buffer.app_hits += buffer.app_hits;
    layers.buffer.app_misses += buffer.app_misses;
    let result = engine.into_result(phases);
    layers.app_io += result.app_io_total;
    Ok(result)
}

/// Generates the OO7 Small trace for `seed` and writes it to `path`;
/// returns its event count. Runs in a child process, see [`setup`].
pub fn generate(seed: u64, path: &Path) -> Result<u64, String> {
    let (trace, _) = Oo7App::standard(Oo7Params::small(CONNECTIVITY), seed).generate();
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    odbgc_tracefile::write_trace(BufWriter::new(file), &trace)
        .and_then(|w| w.into_inner().map_err(|e| e.into_error()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(trace.len() as u64)
}

/// Sets one trace up: a child process generates and writes it, so the
/// in-memory trace does not count in this process's peak RSS, which is
/// then the replay's; the file is then opened for replay. Returns the
/// trace's event count.
fn setup(seed: u64, path: &Path) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .arg("--generate-trace")
        .arg(seed.to_string())
        .arg(path)
        .output()
        .map_err(|e| format!("spawn trace generator: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "trace generator failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let events = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("trace generator output: {e}"))?;
    let reader = open_batches(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    std::hint::black_box(reader.phase_names());
    Ok(events)
}

/// One set-up trace.
struct Input {
    path: PathBuf,
    events: u64,
    /// Both policies' batched-replay results, from the first repetition
    /// on this trace; every later replay of it must equal them.
    reference: Option<[RunResult; 2]>,
}

/// Replays `input` under both policies, untraced; returns the time taken.
fn batched_rep(
    input: &mut Input,
    specs: &[PolicySpec; 2],
    turn_us: &mut Vec<f64>,
    report: &mut Report,
) -> Result<Duration, String> {
    let (saio, t0) = batched_pass(&input.path, &specs[0], turn_us)?;
    let (saga, t1) = batched_pass(&input.path, &specs[1], turn_us)?;
    let results = [saio, saga];
    match &input.reference {
        None => input.reference = Some(results),
        Some(r) => report.check(*r == results, || {
            format!(
                "{}: batched replay results differ between repetitions",
                input.path.display()
            )
        }),
    }
    Ok(t0 + t1)
}

/// Replays `input` under both policies with the traced loop, checks the
/// results against the batched replay's, and returns the time taken.
fn traced_rep(
    input: &Input,
    specs: &[PolicySpec; 2],
    layers: &mut Layers,
    report: &mut Report,
) -> Result<Duration, String> {
    let start = Instant::now();
    let saio = traced_pass(&input.path, &specs[0], layers)?;
    let saga = traced_pass(&input.path, &specs[1], layers)?;
    let took = start.elapsed();
    layers.passes += 2;
    report.check(input.reference.as_ref() == Some(&[saio, saga]), || {
        format!(
            "{}: traced replay result differs from replay_batched",
            input.path.display()
        )
    });
    Ok(took)
}

/// Runs the `oo7_replay` workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let specs = [SAIO.0, SAGA.0].map(|s| s.parse::<PolicySpec>().expect("valid policy spec"));
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;

    let mut report = Report::default();
    report.notes.push(format!(
        "workload oo7_replay: {TRACES} OO7 Small traces (conn {CONNECTIVITY}) from seed {}, \
         each replayed under {} then {}",
        args.seed, specs[0], specs[1]
    ));
    report
        .notes
        .push(format!("engine config: {:?}", engine_config()));
    report.notes.push(format!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));

    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for seed in sub_seeds(args.seed, TRACES) {
        let path = args
            .work_dir
            .join(format!("oo7-small-c{CONNECTIVITY}-{seed}.otbf"));
        let t = Instant::now();
        let events = setup(seed, &path)?;
        setup_s.push(t.elapsed().as_secs_f64());
        inputs.push(Input {
            path,
            events,
            reference: None,
        });
    }

    let mut turn_us = Vec::new();
    let mut rates = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layers = Layers::default();
    let mut peak_rss_mib = None;
    let window = Instant::now();
    while untraced_s.len() < inputs.len() || window.elapsed() < args.seconds {
        let input = &mut inputs[untraced_s.len() % TRACES as usize];
        let took = batched_rep(input, &specs, &mut turn_us, &mut report)?;
        rates.push(2.0 * input.events as f64 / took.as_secs_f64());
        untraced_s.push(took.as_secs_f64());
        report.attempted += 2 * input.events;
        if args.traced {
            traced_s.push(traced_rep(input, &specs, &mut layers, &mut report)?.as_secs_f64());
        }
        if untraced_s.len() == inputs.len() {
            peak_rss_mib = Some(stats::peak_rss_mib()?);
        }
    }
    if !args.traced {
        // The output check needs a traced replay; without tracing it runs
        // once, on the first trace, after the measured window.
        traced_rep(&inputs[0], &specs, &mut layers, &mut report)?;
    }
    let mut saio_err = Vec::new();
    let mut saga_err = Vec::new();
    for input in &inputs {
        let _ = std::fs::remove_file(&input.path);
        let [saio, saga] = input.reference.as_ref().expect("every trace was replayed");
        for r in [saio, saga] {
            report.check(r.events_replayed == input.events, || {
                format!("replayed {} of {} events", r.events_replayed, input.events)
            });
            report.check(
                r.total_garbage_generated == r.total_garbage_collected + r.final_garbage_bytes,
                || "garbage generated != collected + remaining".into(),
            );
            report.check(
                r.collection_count() > engine_config().preamble_collections,
                || format!("only {} collections", r.collection_count()),
            );
        }
        saio_err.push(io_share_err_pp(&saio.collections, SAIO.1));
        saga_err.push(garbage_err_pp(&saga.collections, SAGA.1));
        report.notes.push(format!(
            "{}: {} events; collections {} / {}; windowed GC-I/O {:.3}% / {:.3}%; \
             mean garbage {:.3}% / {:.3}%",
            input.path.display(),
            input.events,
            saio.collection_count(),
            saga.collection_count(),
            saio.gc_io_pct.unwrap_or(f64::NAN),
            saga.gc_io_pct.unwrap_or(f64::NAN),
            saio.garbage_pct_mean.unwrap_or(f64::NAN),
            saga.garbage_pct_mean.unwrap_or(f64::NAN),
        ));
    }

    report.e2e("setup_s", stats::median(&setup_s), "s", setup_s.len());
    report.e2e("ops_per_s", stats::median(&rates), "1/s", rates.len());
    report.e2e(
        "turn_p50_us",
        stats::quantile(&turn_us, 0.5),
        "us",
        turn_us.len(),
    );
    report.e2e(
        "turn_p99_us",
        stats::quantile(&turn_us, 0.99),
        "us",
        turn_us.len(),
    );
    let peak_rss_mib = peak_rss_mib.expect("the window covers every trace");
    report.e2e("peak_rss_mib", peak_rss_mib, "MiB", inputs.len());
    report.e2e(
        "io_share_err_pp",
        stats::mean(&saio_err),
        "pp",
        saio_err.len(),
    );
    report.e2e(
        "garbage_err_pp",
        stats::mean(&saga_err),
        "pp",
        saga_err.len(),
    );
    layer_metrics(&mut report, &layers, &untraced_s, &traced_s);
    Ok(report)
}

fn layer_metrics(report: &mut Report, l: &Layers, untraced_s: &[f64], traced_s: &[f64]) {
    let passes = l.passes.max(1) as f64;
    let events = l.events.max(1) as f64;
    let n = l.events as usize;
    let ns = |d: Duration| d.as_secs_f64() * 1e9;
    let apply = l.wall.saturating_sub(l.decode + l.collect);
    let collections = l.collect_us.len();
    report.notes.push(format!(
        "traced wall {:.3} s = decode {:.3} s + apply {:.3} s + collect {:.3} s",
        l.wall.as_secs_f64(),
        l.decode.as_secs_f64(),
        apply.as_secs_f64(),
        l.collect.as_secs_f64()
    ));
    report.layer(
        "tracefile.decode_ns_per_event",
        ns(l.decode) / events,
        "ns",
        n,
    );
    report.layer("store.apply_ns_per_event", ns(apply) / events, "ns", n);
    report.layer(
        "store.app_io_per_kevent",
        1e3 * l.app_io as f64 / events,
        "count",
        n,
    );
    report.layer("store.app_hit_rate", l.buffer.app_hit_rate(), "ratio", n);
    report.layer(
        "gc.collections",
        collections as f64 / passes,
        "count",
        l.passes as usize,
    );
    report.layer(
        "gc.collect_us_p50",
        stats::quantile(&l.collect_us, 0.5),
        "us",
        collections,
    );
    report.layer(
        "gc.collect_us_p99",
        stats::quantile(&l.collect_us, 0.99),
        "us",
        collections,
    );
    report.layer(
        "gc.sched_busy_ms",
        l.sched_busy_ns as f64 / 1e6 / passes,
        "ms",
        l.passes as usize,
    );
    report.layer(
        "gc.reach_share",
        stats::mean(&l.reach_share),
        "ratio",
        l.reach_share.len(),
    );
    report.layer(
        "gc.io_per_collection",
        l.gc_io as f64 / collections.max(1) as f64,
        "pages",
        collections,
    );
    report.layer(
        "gc.reclaim_ratio",
        l.reclaimed as f64 / (l.reclaimed + l.bytes_after).max(1) as f64,
        "ratio",
        collections,
    );
    report.layer(
        "core.clamp_hits",
        l.tap.clamp_hits as f64 / passes,
        "count",
        l.tap.decisions as usize,
    );
    report.layer(
        "core.est_err_kib_mean",
        stats::mean(&l.tap.est_err_abs_bytes) / 1024.0,
        "KiB",
        l.tap.est_err_abs_bytes.len(),
    );
    for (name, unit) in crate::wire::NET_LAYERS {
        report.layer(name, 0.0, unit, 0);
    }
    report.layer(
        "trace_overhead_ratio",
        stats::median(traced_s) / stats::median(untraced_s),
        "ratio",
        traced_s.len(),
    );
}
