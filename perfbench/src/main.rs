//! End-to-end benchmark for odbgc.
//!
//! ```text
//! odbgc-perfbench --workload <oo7_replay|wire_closed>
//!     --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Each run sets its workload up several times, then repeats fixed-size
//! repetitions of it until `--seconds` have passed, checks every output,
//! and prints its metrics, the last line being one JSON object. With
//! `--trace 1` the run alternates untraced and traced repetitions and
//! reports the per-layer metrics instead of the end-to-end ones. See
//! `README.md` for the workloads and metrics.

mod replay;
mod stats;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use odbgc_core::spec::parse_estimator;
use odbgc_engine::{CollectionRecord, EngineConfig};
use odbgc_gc::SelectorKind;
use odbgc_store::StoreConfig;

use crate::stats::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    /// Where set-up may write files (the OO7 tracefile).
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} is missing its value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// The engine configuration every workload runs, with every setting the
/// environment could otherwise change pinned: paper store geometry,
/// one collector worker (`ODBGC_GC_WORKERS` is not consulted), and an
/// FGS/HB shadow estimator so decisions carry an estimate to score.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        store: StoreConfig::default(),
        selector: SelectorKind::UpdatedPointer,
        selector_seed: 0,
        preamble_collections: 10,
        exact_oracle_recompute: true,
        deep_checks: false,
        shadow_estimator: Some(parse_estimator("fgs-hb").expect("fgs-hb is a valid estimator")),
        gc_workers: Some(1),
    }
}

/// Mean absolute per-collection tracking error of SAIO, in percentage
/// points: each measured collection interval's GC share of I/O against
/// the requested share. Collections inside the preamble are skipped, as
/// in the run's own windowed figures.
pub fn io_share_err_pp(records: &[CollectionRecord], requested_pct: f64) -> f64 {
    let errs: Vec<f64> = measured(records)
        .map(|r| {
            let total = r.gc_io + r.app_io_since_prev;
            let share = if total == 0 {
                0.0
            } else {
                100.0 * r.gc_io as f64 / total as f64
            };
            (share - requested_pct).abs()
        })
        .collect();
    stats::mean(&errs)
}

/// Mean absolute per-collection tracking error of SAGA, in percentage
/// points: the garbage share of the database at each measured collection
/// against the requested share.
pub fn garbage_err_pp(records: &[CollectionRecord], requested_pct: f64) -> f64 {
    let errs: Vec<f64> = measured(records)
        .filter(|r| r.db_size > 0)
        .map(|r| (100.0 * r.actual_garbage as f64 / r.db_size as f64 - requested_pct).abs())
        .collect();
    stats::mean(&errs)
}

/// The `count` input seeds a run with seed `seed` uses: distinct for
/// distinct run seeds, and the same for the same seed.
pub fn sub_seeds(seed: u64, count: u64) -> impl Iterator<Item = u64> {
    (0..count).map(move |j| seed.wrapping_mul(count).wrapping_add(j))
}

fn measured(records: &[CollectionRecord]) -> impl Iterator<Item = &CollectionRecord> {
    let preamble = engine_config().preamble_collections as usize;
    records.iter().skip(preamble)
}

fn main() -> ExitCode {
    // Set-up's child process: `--generate-trace <seed> <path>`.
    let argv: Vec<String> = std::env::args().collect();
    if let [_, mode, seed, path] = argv.as_slice() {
        if mode == "--generate-trace" {
            let generated = seed
                .parse()
                .map_err(|e| format!("seed: {e}"))
                .and_then(|seed| replay::generate(seed, std::path::Path::new(path)));
            return match generated {
                Ok(events) => {
                    println!("{events}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome: Result<Report, String> = match args.workload.as_str() {
        "oo7_replay" => replay::run(&args),
        "wire_closed" => wire::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (oo7_replay | wire_closed)"
        )),
    };
    match outcome {
        Ok(report) => {
            report.print(args.traced);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
