//! `wire_closed`: an in-process `NetServer` on loopback, two shards with
//! one session each, driven in a closed loop by one client thread per
//! connection, so every turn is timed to the read of its own response.
//!
//! The two shards run different policies, SAIO on one and SAGA on the
//! other, so the workload scores both controllers. SAGA's requested
//! garbage share is low enough that its shard collects about as often as
//! the SAIO shard: the default session workload makes little garbage,
//! and at 10% SAGA would hardly collect at all.

use std::thread;
use std::time::{Duration, Instant};

use odbgc_core::{ClampHit, PolicySpec};
use odbgc_engine::{SessionWorkload, ShardOutcome, WorkloadParams};
use odbgc_net::{Conn, NetConfig, NetOutcome, NetServer, Request, Response};

use crate::stats::{self, us, Report};
use crate::{engine_config, garbage_err_pp, io_share_err_pp, sub_seeds, Args};

/// Policy spec and requested share (percent) of shard 0 and shard 1.
const POLICIES: [(&str, f64); 2] = [("saio:10%", 10.0), ("saga:0.5%:fgs-hb", 0.5)];
/// Workload seeds per run; repetitions cycle through them, so the
/// controllers' tracking errors are averaged over several op streams.
const SEEDS: u64 = 8;
/// Operations each session submits per repetition.
const OPS_PER_SESSION: u64 = 50_000;
/// Operations per turn.
const TURN_OPS: u64 = 8;
/// Sessions, one per shard.
const SESSIONS: u32 = 2;
/// In-flight window each session requests (it keeps one turn in flight).
const WINDOW: u32 = 4;
/// Repetitions during which the host stole more than this share of CPU
/// time are left out of the timings, as long as at least `MIN_CLEAN`
/// repetitions stayed under it. On a virtual machine whose host is busy,
/// the neighbours rather than the program set the pace of those
/// repetitions; a run extends its window up to twice `--seconds` to
/// collect enough clean repetitions, and otherwise reports the
/// `MIN_CLEAN` repetitions with the least stolen time.
const STEAL_MAX: f64 = 0.05;
const MIN_CLEAN: usize = 8;
/// How long a client read may block before the run fails.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The per-layer metrics only the wire workload measures, with units.
pub const NET_LAYERS: [(&str, &str); 10] = [
    ("engine.gc_stall_us_p99", "us"),
    ("engine.gc_stall_ms_total", "ms"),
    ("net.send_us_p50", "us"),
    ("net.wait_us_p50", "us"),
    ("net.wait_us_p99", "us"),
    ("net.ack_us_p50", "us"),
    ("net.wakeups_per_turn", "count"),
    ("net.bytes_per_op", "bytes"),
    ("net.partial_io", "count"),
    ("net.max_queue_depth", "count"),
];

/// The per-layer metrics only `oo7_replay` measures: they need the
/// engine's store or timed collection calls, which the server keeps on
/// its own threads.
const REPLAY_LAYERS: [(&str, &str); 7] = [
    ("tracefile.decode_ns_per_event", "ns"),
    ("store.apply_ns_per_event", "ns"),
    ("store.app_hit_rate", "ratio"),
    ("gc.collect_us_p50", "us"),
    ("gc.collect_us_p99", "us"),
    ("gc.reach_share", "ratio"),
    ("gc.reclaim_ratio", "ratio"),
];

/// The server configuration, every setting pinned (`ODBGC_NET_THREADS`
/// is not consulted).
fn net_config() -> NetConfig {
    NetConfig {
        engine: engine_config(),
        shards: SESSIONS,
        window_max: 64,
        idle_timeout: Duration::from_secs(30),
        poll_interval: Duration::from_millis(25),
        net_threads: 1,
        gc_fault: None,
    }
}

/// What one session's client thread saw.
#[derive(Default)]
struct SessionLog {
    applied: u64,
    turn_us: Vec<f64>,
    stall_ns: Vec<f64>,
    send_us: Vec<f64>,
    wait_us: Vec<f64>,
    ack_us: Vec<f64>,
}

/// Drives one session: each turn is sent, its response read, and its
/// credit returned with an Ack before the next turn. A turn's latency
/// runs from just before its send to the read of its response.
fn drive(conn: &mut Conn, session: u32, seed: u64, traced: bool) -> Result<SessionLog, String> {
    let params = WorkloadParams {
        seed,
        ..WorkloadParams::default()
    };
    let mut workload = SessionWorkload::new(session, params, OPS_PER_SESSION);
    let mut log = SessionLog::default();
    for turn in 0u64.. {
        let ops = workload.next_turn(TURN_OPS);
        if ops.is_empty() {
            break;
        }
        let n = ops.len() as u64;
        let t0 = Instant::now();
        conn.send(&Request::Ops { ops })
            .map_err(|e| format!("session {session}: send: {e}"))?;
        let t1 = traced.then(Instant::now);
        let response = conn
            .read_response_raw()
            .map_err(|e| format!("session {session}: read: {e}"))?;
        let done = Instant::now();
        let Response::OpsOk {
            applied,
            gc_stall_ns,
            ..
        } = response
        else {
            return Err(format!(
                "session {session}: turn {turn} refused: {response:?}"
            ));
        };
        if applied != n {
            return Err(format!(
                "session {session}: turn {turn} applied {applied} of {n} ops"
            ));
        }
        log.applied += applied;
        log.turn_us.push(us(done - t0));
        log.stall_ns.push(gc_stall_ns as f64);
        let ack = conn
            .request(&Request::Ack { n: 1 })
            .map_err(|e| format!("session {session}: ack: {e}"))?;
        if !matches!(ack, Response::AckOk { .. }) {
            return Err(format!("session {session}: want AckOk, got {ack:?}"));
        }
        if let Some(t1) = t1 {
            log.send_us.push(us(t1 - t0));
            log.wait_us.push(us(done - t1));
            log.ack_us.push(us(done.elapsed()));
        }
    }
    Ok(log)
}

/// Connects and greets every session, drives them all, then says goodbye
/// and asks the server to drain. Returns the set-up time (from `start`,
/// so it includes the bind), the load's wall time and the session logs.
fn load(
    addr: &str,
    seed: u64,
    traced: bool,
    start: Instant,
) -> Result<(Duration, Duration, Vec<SessionLog>), String> {
    let mut conns = Vec::new();
    for session in 0..SESSIONS {
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("set timeout: {e}"))?;
        let hello = conn
            .request(&Request::Hello {
                session,
                window: WINDOW,
            })
            .map_err(|e| format!("hello: {e}"))?;
        if !matches!(hello, Response::HelloOk { .. }) {
            return Err(format!("session {session}: want HelloOk, got {hello:?}"));
        }
        conns.push(conn);
    }
    let setup = start.elapsed();

    let go = Instant::now();
    let logs: Vec<Result<SessionLog, String>> = thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(0..)
            .map(|(conn, session)| s.spawn(move || drive(conn, session, seed, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = go.elapsed();
    let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Every session but the first says Bye; the first then asks for the
    // drain, which must come last because it drops still-open peers.
    for conn in conns.iter_mut().skip(1) {
        let bye = conn
            .request(&Request::Bye)
            .map_err(|e| format!("bye: {e}"))?;
        if bye != Response::ByeOk {
            return Err(format!("want ByeOk, got {bye:?}"));
        }
    }
    let shutdown = conns[0]
        .request(&Request::Shutdown)
        .map_err(|e| format!("shutdown: {e}"))?;
    if shutdown != Response::ShutdownOk {
        return Err(format!("want ShutdownOk, got {shutdown:?}"));
    }
    Ok((setup, wall, logs))
}

/// One repetition: a fresh server, the load, and the drained outcome.
struct Rep {
    setup: Duration,
    wall: Duration,
    logs: Vec<SessionLog>,
    outcome: NetOutcome,
}

fn rep(specs: &[PolicySpec; 2], seed: u64, traced: bool) -> Result<Rep, String> {
    let start = Instant::now();
    let server = NetServer::bind("127.0.0.1:0", net_config(), |shard| {
        specs[shard as usize].build()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let server_thread = thread::spawn(move || server.run());
    let loaded = load(&addr, seed, traced, start);
    if loaded.is_err() {
        // Drain the server so its threads end before the error is
        // reported; it may already be draining, which is fine.
        let _ = Conn::connect(&addr).and_then(|mut c| c.request(&Request::Shutdown));
    }
    let outcome = server_thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    let (setup, wall, logs) = loaded?;
    Ok(Rep {
        setup,
        wall,
        logs,
        outcome,
    })
}

/// The end-to-end figures of one untraced repetition. Latency quantiles
/// are taken per repetition and the run reports their medians, so one
/// repetition disturbed by the host cannot move them; only the summary is
/// kept, so the run's memory does not grow with its length.
struct Summary {
    /// Share of CPU time the host stole during the repetition.
    steal: f64,
    setup_s: f64,
    wall_s: f64,
    ops_per_s: f64,
    turn_p50_us: f64,
    turn_p99_us: f64,
}

impl Summary {
    fn of(rep: &Rep, steal: f64) -> Summary {
        let turns: Vec<f64> = rep
            .logs
            .iter()
            .flat_map(|l| l.turn_us.iter().copied())
            .collect();
        let applied: u64 = rep.logs.iter().map(|l| l.applied).sum();
        Summary {
            steal,
            setup_s: rep.setup.as_secs_f64(),
            wall_s: rep.wall.as_secs_f64(),
            ops_per_s: applied as f64 / rep.wall.as_secs_f64(),
            turn_p50_us: stats::quantile(&turns, 0.5),
            turn_p99_us: stats::quantile(&turns, 0.99),
        }
    }
}

/// The per-shard counters that must repeat exactly for one seed: events
/// applied, collections, application and collector I/O.
fn shard_counters(outcome: &NetOutcome) -> Vec<[u64; 4]> {
    outcome
        .shards
        .iter()
        .map(|s| {
            [
                s.result.events_replayed,
                s.result.collection_count(),
                s.result.app_io_total,
                s.result.gc_io_total,
            ]
        })
        .collect()
}

fn check_rep(report: &mut Report, rep: &Rep, reference: &[[u64; 4]]) {
    for (session, log) in rep.logs.iter().enumerate() {
        report.check(log.applied == OPS_PER_SESSION, || {
            format!(
                "session {session} applied {} of {OPS_PER_SESSION} ops",
                log.applied
            )
        });
    }
    for c in &rep.outcome.clients {
        report.check(c.ops == OPS_PER_SESSION && c.busy_rejections == 0, || {
            format!(
                "server saw session {}: {} ops, {} busy",
                c.session, c.ops, c.busy_rejections
            )
        });
    }
    for (i, s) in rep.outcome.shards.iter().enumerate() {
        report.check(s.failed.is_none(), || {
            format!("shard {i} failed: {:?}", s.failed)
        });
    }
    report.check(shard_counters(&rep.outcome) == reference, || {
        format!(
            "shard counters {:?} differ from the first repetition's {reference:?}",
            shard_counters(&rep.outcome)
        )
    });
}

/// Runs the `wire_closed` workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let specs = POLICIES.map(|(s, _)| s.parse::<PolicySpec>().expect("valid policy spec"));
    let mut report = Report::default();
    report.notes.push(format!(
        "workload wire_closed: seed {}, {SESSIONS} sessions x {OPS_PER_SESSION} ops in \
         {TURN_OPS}-op turns, closed loop, shard policies {} / {}",
        args.seed, specs[0], specs[1],
    ));
    report.notes.push(format!("net config: {:?}", net_config()));
    report.notes.push(format!(
        "available parallelism: {}",
        thread::available_parallelism().map_or(1, |n| n.get())
    ));

    let seeds: Vec<u64> = sub_seeds(args.seed, SEEDS).collect();
    let mut untraced: Vec<Summary> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut references: Vec<Option<Vec<[u64; 4]>>> = vec![None; seeds.len()];
    let mut saio_err = Vec::new();
    let mut saga_err = Vec::new();
    let clean = |reps: &[Summary]| reps.iter().filter(|r| r.steal <= STEAL_MAX).count();
    let mut peak_rss_mib = None;
    let window = Instant::now();
    while untraced.len() < seeds.len()
        || window.elapsed() < args.seconds
        || (clean(&untraced) < MIN_CLEAN && window.elapsed() < 2 * args.seconds)
    {
        let j = untraced.len() % seeds.len();
        let cpu_before = stats::cpu_times()?;
        let plain = rep(&specs, seeds[j], false)?;
        let steal = stats::cpu_times()?.steal_share_since(&cpu_before);
        if references[j].is_none() {
            let shards = &plain.outcome.shards;
            saio_err.push(io_share_err_pp(
                &shards[0].result.collections,
                POLICIES[0].1,
            ));
            saga_err.push(garbage_err_pp(&shards[1].result.collections, POLICIES[1].1));
            for (i, s) in shards.iter().enumerate() {
                report.notes.push(format!(
                    "seed {} shard {i} ({}): {} events, {} collections, GC-I/O {:.3}% of total",
                    seeds[j],
                    s.policy,
                    s.result.events_replayed,
                    s.result.collection_count(),
                    s.result.gc_io_pct_whole_run()
                ));
            }
        }
        let reference = references[j].get_or_insert_with(|| shard_counters(&plain.outcome));
        check_rep(&mut report, &plain, reference);
        untraced.push(Summary::of(&plain, steal));
        report.attempted += SESSIONS as u64 * OPS_PER_SESSION;
        if args.traced {
            let stamped = rep(&specs, seeds[j], true)?;
            check_rep(&mut report, &stamped, reference);
            traced.push(stamped);
        }
        if untraced.len() == seeds.len() {
            peak_rss_mib = Some(stats::peak_rss_mib()?);
        }
    }

    let mut by_steal: Vec<&Summary> = untraced.iter().collect();
    by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let measured = &by_steal[..clean(&untraced).max(MIN_CLEAN.min(by_steal.len()))];
    report.notes.push(format!(
        "{} of {} untraced repetitions had at most {:.0}% of CPU time stolen by the host; \
         timings come from the {} least stolen (at most {:.1}% stolen)",
        clean(&untraced),
        untraced.len(),
        100.0 * STEAL_MAX,
        measured.len(),
        100.0 * measured.last().map_or(0.0, |r| r.steal),
    ));
    let setup_s: Vec<f64> = measured.iter().map(|r| r.setup_s).collect();
    let rates: Vec<f64> = measured.iter().map(|r| r.ops_per_s).collect();
    let p50: Vec<f64> = measured.iter().map(|r| r.turn_p50_us).collect();
    let p99: Vec<f64> = measured.iter().map(|r| r.turn_p99_us).collect();
    let turns = measured.len() * (SESSIONS as u64 * OPS_PER_SESSION / TURN_OPS) as usize;
    report.e2e("setup_s", stats::median(&setup_s), "s", setup_s.len());
    report.e2e("ops_per_s", stats::median(&rates), "1/s", rates.len());
    report.e2e("turn_p50_us", stats::median(&p50), "us", turns);
    report.e2e("turn_p99_us", stats::median(&p99), "us", turns);
    let peak_rss_mib = peak_rss_mib.expect("the window covers every seed");
    report.e2e("peak_rss_mib", peak_rss_mib, "MiB", seeds.len());
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

    layer_metrics(&mut report, &untraced, &traced);
    Ok(report)
}

/// Per-layer metrics from the traced repetitions: medians over
/// repetitions for per-repetition values, pooled samples for quantiles.
fn layer_metrics(report: &mut Report, untraced: &[Summary], traced: &[Rep]) {
    let n = traced.len();
    let pooled = |pick: fn(&SessionLog) -> &Vec<f64>| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|r| r.logs.iter().flat_map(move |l| pick(l).iter().copied()))
            .collect()
    };
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> f64 {
        let values: Vec<f64> = traced.iter().map(f).collect();
        stats::median(&values)
    };
    let sum_shards =
        |r: &Rep, f: &dyn Fn(&ShardOutcome) -> u64| -> u64 { r.outcome.shards.iter().map(f).sum() };

    for (name, unit) in REPLAY_LAYERS {
        report.layer(name, 0.0, unit, 0);
    }
    report.layer(
        "store.app_io_per_kevent",
        per_rep(&|r| {
            1e3 * sum_shards(r, &|s| s.result.app_io_total) as f64
                / sum_shards(r, &|s| s.result.events_replayed).max(1) as f64
        }),
        "count",
        n,
    );
    report.layer(
        "gc.collections",
        per_rep(&|r| sum_shards(r, &|s| s.result.collection_count()) as f64),
        "count",
        n,
    );
    report.layer(
        "gc.sched_busy_ms",
        per_rep(&|r| sum_shards(r, &|s| s.sched.busy_ns) as f64 / 1e6),
        "ms",
        n,
    );
    report.layer(
        "gc.io_per_collection",
        per_rep(&|r| {
            sum_shards(r, &|s| s.result.gc_io_total) as f64
                / sum_shards(r, &|s| s.result.collection_count()).max(1) as f64
        }),
        "pages",
        n,
    );
    report.layer(
        "core.clamp_hits",
        per_rep(&|r| {
            sum_shards(r, &|s| {
                s.decisions
                    .iter()
                    .filter(|d| d.clamp != ClampHit::None)
                    .count() as u64
            }) as f64
        }),
        "count",
        n,
    );
    let est_err: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.outcome.shards.iter())
        .flat_map(|s| s.decisions.iter().filter_map(|d| d.estimate_error()))
        .map(f64::abs)
        .collect();
    report.layer(
        "core.est_err_kib_mean",
        stats::mean(&est_err) / 1024.0,
        "KiB",
        est_err.len(),
    );

    let stall_us: Vec<f64> = pooled(|l| &l.stall_ns).iter().map(|ns| ns / 1e3).collect();
    let send = pooled(|l| &l.send_us);
    let wait = pooled(|l| &l.wait_us);
    let ack = pooled(|l| &l.ack_us);
    let turns = |r: &Rep| {
        r.outcome
            .clients
            .iter()
            .map(|c| c.turns)
            .sum::<u64>()
            .max(1) as f64
    };
    let values = [
        stats::quantile(&stall_us, 0.99),
        per_rep(&|r| r.logs.iter().flat_map(|l| l.stall_ns.iter()).sum::<f64>() / 1e6),
        stats::quantile(&send, 0.5),
        stats::quantile(&wait, 0.5),
        stats::quantile(&wait, 0.99),
        stats::quantile(&ack, 0.5),
        per_rep(&|r| r.outcome.loops.iter().map(|l| l.wakeups).sum::<u64>() as f64 / turns(r)),
        per_rep(&|r| {
            r.outcome
                .clients
                .iter()
                .map(|c| c.bytes_in + c.bytes_out)
                .sum::<u64>() as f64
                / r.outcome.clients.iter().map(|c| c.ops).sum::<u64>().max(1) as f64
        }),
        per_rep(&|r| {
            r.outcome
                .loops
                .iter()
                .map(|l| l.partial_reads + l.partial_writes)
                .sum::<u64>() as f64
        }),
        per_rep(&|r| {
            r.outcome
                .loops
                .iter()
                .map(|l| l.max_queue_depth)
                .max()
                .unwrap_or(0) as f64
        }),
    ];
    let samples = [
        stall_us.len(),
        n,
        send.len(),
        wait.len(),
        wait.len(),
        ack.len(),
        n,
        n,
        n,
        n,
    ];
    for (((name, unit), value), samples) in NET_LAYERS.into_iter().zip(values).zip(samples) {
        report.layer(name, value, unit, samples);
    }

    let traced_s: Vec<f64> = traced.iter().map(|r| r.wall.as_secs_f64()).collect();
    let untraced_s: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    report.layer(
        "trace_overhead_ratio",
        stats::median(&traced_s) / stats::median(&untraced_s),
        "ratio",
        n,
    );
}
