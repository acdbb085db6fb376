//! The serve front-end: a readiness-driven event loop multiplexing
//! client connections onto engine [`Shard`]s over a fixed thread pool.
//!
//! Threading is fixed at bind time and independent of connection count:
//!
//! * **Net loop threads** (`NetConfig::net_threads`, default
//!   `min(4, cores)`) each run a `poll(2)` loop over their share of the
//!   non-blocking connections. Loop 0 also polls the listener, so
//!   accepting is readiness-driven too — an idle server sleeps in
//!   `poll` indefinitely instead of tick-polling `accept`. Accepted
//!   connections are dealt round-robin across the loops.
//! * **Shard owner threads** (one per shard) each own their [`Shard`]
//!   outright and run its jobs in arrival order: a turn is applied
//!   ([`Shard::apply`] → [`apply_ops`]), its completion is posted, and
//!   then any due collection is drained ([`Shard::collect`]) before the
//!   next job starts. A collection therefore delays only the jobs queued
//!   behind it, never a loop thread. Completions return to the owning
//!   loop through a queue plus a self-wake descriptor registered in its
//!   poll set. Owners publish each shard's collection count and failure
//!   notice through an atomic and a write-once cell, which is all
//!   `Stats` reads.
//!
//! The lifecycle guarantees of the blocking server carry over exactly —
//! the `serve_net` acceptance tests run unmodified:
//!
//! * **Backpressure is explicit and deterministic.** A connection's
//!   frames are decoded strictly in order, and decoding *pauses* while
//!   a turn is queued on a shard owner, so the credit-window
//!   arithmetic sees the same frame sequence the client sent — whether
//!   a turn gets `Busy` depends only on that sequence, never on loop
//!   scheduling.
//! * **Idle connections are reaped.** Poll timeouts are computed from
//!   the earliest idle deadline; a silent connection is closed after
//!   `idle_timeout` (unclean), without any periodic tick when nobody is
//!   due.
//! * **Drain is graceful.** `Shutdown` wakes every loop; queued turns
//!   still complete (each was accepted before the drain), responses are
//!   flushed, and every acknowledged operation is in the shard results
//!   when [`NetServer::run`] returns.
//!
//! Per-loop counters (wakeups, frames, partial reads/writes, shard
//! queue depth) are reported in [`NetOutcome::loops`] and published by
//! the CLI under the volatile `net_loops` telemetry key.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use odbgc_core::RatePolicy;
use odbgc_engine::{
    apply_ops, EngineConfig, GcFault, SessionId, SessionObjects, SessionOp, Shard, ShardOutcome,
    TurnApplied, TurnError,
};

use crate::conn::{ConnPhase, Connection};
use crate::poll::{poll, Fd, PollFd, WakePipe, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::proto::{
    frame_into, ClientCounters, ErrorCode, Request, Response, ShardStats, StatsSnapshot,
    FRAME_OVERHEAD,
};

/// Configuration of a network serve instance.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-shard engine configuration.
    pub engine: EngineConfig,
    /// Number of engine shards; session `s` maps to shard `s % shards`.
    pub shards: u32,
    /// Hard cap on the per-connection in-flight window a Hello may
    /// request.
    pub window_max: u32,
    /// Close a connection after this much silence.
    pub idle_timeout: Duration,
    /// Event-loop tick used only by the emulated poll on targets
    /// without `poll(2)`; on Unix the loops are purely event-driven and
    /// never tick.
    pub poll_interval: Duration,
    /// Net loop threads. `0` means `min(4, available cores)`. Thread
    /// count is fixed at bind and independent of connection count.
    pub net_threads: usize,
    /// Optional kill-one-shard fault injection (robustness tests).
    pub gc_fault: Option<GcFault>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            engine: EngineConfig::default(),
            shards: 2,
            window_max: 64,
            idle_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(25),
            net_threads: 0,
            gc_fault: None,
        }
    }
}

/// One net loop thread's lifetime counters, reported in
/// [`NetOutcome::loops`]. All timing- and scheduling-dependent, hence
/// published only under the volatile `net_loops` telemetry key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Poll returns with at least one ready descriptor.
    pub wakeups: u64,
    /// Poll returns with nothing ready (an idle-deadline timer tick —
    /// zero on an idle server, which is the point of the event loop).
    pub timeouts: u64,
    /// Connections this loop adopted.
    pub accepted: u64,
    /// Complete request frames decoded.
    pub frames_in: u64,
    /// Response frames queued.
    pub frames_out: u64,
    /// Read bursts that ended with a partial frame left buffered.
    pub partial_reads: u64,
    /// Flushes that could not drain the whole write buffer.
    pub partial_writes: u64,
    /// Shard-owner completions applied.
    pub completions: u64,
    /// Deepest shard-owner queue observed when enqueuing a job.
    pub max_queue_depth: u64,
}

/// What a network serve run did, returned by [`NetServer::run`] after a
/// graceful drain.
#[derive(Debug)]
pub struct NetOutcome {
    /// Per-shard summaries — the same [`ShardOutcome`] the in-process
    /// serve mode produces, so telemetry built from either is
    /// comparable key for key.
    pub shards: Vec<ShardOutcome>,
    /// Per-connection counters, in close order.
    pub clients: Vec<ClientCounters>,
    /// Per-net-loop counters, indexed by loop.
    pub loops: Vec<LoopStats>,
}

struct Shared {
    shard_count: u32,
    window_max: u32,
    idle_timeout: Duration,
    poll_interval: Duration,
    draining: AtomicBool,
    clients: Mutex<Vec<ClientCounters>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Loop ↔ shard owner plumbing
// ---------------------------------------------------------------------

/// One net loop's cross-thread mailboxes: freshly accepted streams from
/// the acceptor, completions from shard owners, and the wake
/// descriptor that makes either poll-visible.
struct LoopShared {
    wake: WakePipe,
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
}

/// A shard owner's mailbox and what it publishes: the job queue loops
/// push onto, and the shard's progress, which `Stats` reads without
/// involving the owner.
#[derive(Default)]
struct ShardExec {
    state: Mutex<ExecState>,
    cv: Condvar,
    /// Collections the shard has completed.
    collections: AtomicU64,
    /// The shard's failure notice, set once when it stops serving.
    failed: OnceLock<String>,
}

#[derive(Default)]
struct ExecState {
    /// Jobs in arrival order, each stamped when it was enqueued.
    jobs: VecDeque<(Instant, Job)>,
    stop: bool,
}

enum Job {
    /// One decoded `Ops` turn; `objects` travels with it and returns in
    /// the completion.
    Turn {
        loop_id: usize,
        conn: usize,
        session: u32,
        ops: Vec<SessionOp>,
        objects: SessionObjects,
    },
    /// One shard's leg of an admin `Collect` fan-out.
    Collect { fan: Arc<CollectFan> },
}

/// Join-counter for a `Collect` fanned across every shard owner; the
/// owner that finishes last posts the single completion.
struct CollectFan {
    loop_id: usize,
    conn: usize,
    remaining: AtomicUsize,
    kicked: AtomicU64,
}

enum Completion {
    Turn {
        conn: usize,
        objects: SessionObjects,
        outcome: Result<(TurnApplied, u64), TurnFail>,
    },
    Collect {
        conn: usize,
        kicked: u64,
    },
}

enum TurnFail {
    /// The turn itself failed (store rejection or unknown ref).
    Turn(TurnError),
    /// The shard has stopped serving (a panic in a turn or collection).
    Shard(String),
}

/// Queues `job` on a shard owner, stamped under the queue lock so stamps
/// rise in queue order. Returns the queue depth after the push.
fn enqueue(exec: &ShardExec, job: Job) -> usize {
    let depth = {
        let mut st = lock(&exec.state);
        st.jobs.push_back((Instant::now(), job));
        st.jobs.len()
    };
    exec.cv.notify_one();
    depth
}

fn complete(loops: &[LoopShared], loop_id: usize, completion: Completion) {
    lock(&loops[loop_id].completions).push(completion);
    loops[loop_id].wake.wake();
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A bound, not-yet-serving network front-end.
pub struct NetServer {
    listener: TcpListener,
    shared: Arc<Shared>,
    loops: Arc<Vec<LoopShared>>,
    execs: Arc<Vec<ShardExec>>,
    shards: Vec<Shard>,
    net_threads: usize,
}

impl NetServer {
    /// Builds the shards, resolves the loop-thread count, and binds
    /// the listener. `addr` is anything `TcpListener::bind` accepts;
    /// `"127.0.0.1:0"` picks a free port (read it back with
    /// [`NetServer::local_addr`]).
    pub fn bind(
        addr: &str,
        config: NetConfig,
        mut make_policy: impl FnMut(u32) -> Box<dyn RatePolicy + Send>,
    ) -> Result<NetServer, BindError> {
        let shard_count = config.shards.max(1);
        let shards: Vec<Shard> = (0..shard_count)
            .map(|i| Shard::new(i as usize, &config.engine, make_policy(i), config.gc_fault))
            .collect();
        let net_threads = if config.net_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4)
        } else {
            config.net_threads
        };
        let loops: Vec<LoopShared> = (0..net_threads)
            .map(|_| {
                Ok(LoopShared {
                    wake: WakePipe::new().map_err(BindError::Io)?,
                    inbox: Mutex::new(Vec::new()),
                    completions: Mutex::new(Vec::new()),
                })
            })
            .collect::<Result<_, BindError>>()?;
        let execs: Vec<ShardExec> = (0..shard_count).map(|_| ShardExec::default()).collect();
        let listener = TcpListener::bind(addr).map_err(BindError::Io)?;
        listener.set_nonblocking(true).map_err(BindError::Io)?;
        Ok(NetServer {
            listener,
            shared: Arc::new(Shared {
                shard_count,
                window_max: config.window_max.max(1),
                idle_timeout: config.idle_timeout,
                poll_interval: config.poll_interval.max(Duration::from_millis(1)),
                draining: AtomicBool::new(false),
                clients: Mutex::new(Vec::new()),
            }),
            loops: Arc::new(loops),
            execs: Arc::new(execs),
            shards,
            net_threads,
        })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client requests a graceful drain, then joins the
    /// loop and shard owner threads and returns the outcome.
    pub fn run(self) -> NetOutcome {
        let NetServer {
            listener,
            shared,
            loops,
            execs,
            shards,
            net_threads,
        } = self;

        let owners: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                let loops = Arc::clone(&loops);
                let execs = Arc::clone(&execs);
                std::thread::Builder::new()
                    .name(format!("odbgc-net-shard-{}", shard.index()))
                    .spawn(move || {
                        let exec = &execs[shard.index()];
                        shard_owner(shard, exec, &loops)
                    })
                    .expect("spawn shard owner")
            })
            .collect();

        let mut listener = Some(listener);
        let mut loop_handles = Vec::with_capacity(net_threads);
        for loop_id in 0..net_threads {
            let listener = if loop_id == 0 { listener.take() } else { None };
            let shared = Arc::clone(&shared);
            let loops = Arc::clone(&loops);
            let execs = Arc::clone(&execs);
            let handle = std::thread::Builder::new()
                .name(format!("odbgc-net-loop-{loop_id}"))
                .spawn(move || {
                    NetLoop {
                        loop_id,
                        shared: &shared,
                        loops: &loops,
                        execs: &execs,
                        conns: Vec::new(),
                        free: Vec::new(),
                        stats: LoopStats::default(),
                        scratch: Vec::new(),
                        read_buf: vec![0u8; 64 * 1024],
                        rr: 0,
                    }
                    .run(listener)
                })
                .expect("spawn net loop");
            loop_handles.push(handle);
        }

        let loop_stats: Vec<LoopStats> = loop_handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();

        // Every loop has exited, so no job can still be enqueued; tell
        // the owners to stop once their queues run dry and join them.
        for exec in execs.iter() {
            lock(&exec.state).stop = true;
            exec.cv.notify_all();
        }
        let shards = owners
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("a shard owner catches its shard's panics")
                    .into_outcome(Vec::new())
            })
            .collect();
        let clients = std::mem::take(&mut *lock(&shared.clients));
        NetOutcome {
            shards,
            clients,
            loops: loop_stats,
        }
    }
}

/// Why [`NetServer::bind`] failed.
#[derive(Debug)]
pub enum BindError {
    /// The listener or a loop's wake descriptor could not be created.
    Io(std::io::Error),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::Io(e) => write!(f, "bind: {e}"),
        }
    }
}

impl std::error::Error for BindError {}

// ---------------------------------------------------------------------
// Shard owner
// ---------------------------------------------------------------------

/// A shard's owner thread: runs the shard's jobs in arrival order and
/// returns the shard once its queue is stopped and empty. A turn's
/// completion is posted before the turn's collection drain, so a client
/// never waits for a collection its own turn made due; the jobs queued
/// behind that drain wait instead, and their replies report the overlap
/// as GC stall.
fn shard_owner(mut shard: Shard, exec: &ShardExec, loops: &[LoopShared]) -> Shard {
    // Drains that may still overlap a queued job's wait, oldest first.
    let mut drains: VecDeque<(Instant, Instant)> = VecDeque::new();
    while let Some((enqueued, job)) = next_job(exec) {
        let started = Instant::now();
        while drains.front().is_some_and(|&(_, end)| end <= enqueued) {
            drains.pop_front();
        }
        match job {
            Job::Turn {
                loop_id,
                conn,
                session,
                ops,
                mut objects,
            } => {
                let gc_stall_ns = gc_stall_ns(enqueued, started, &drains);
                let outcome = match shard.apply(SessionId::new(session), |sess| {
                    apply_ops(sess, &mut objects, &ops)
                }) {
                    Ok(Ok(applied)) => Ok((applied, gc_stall_ns)),
                    Ok(Err(e)) => Err(TurnFail::Turn(e)),
                    Err(e) => Err(TurnFail::Shard(e.to_string())),
                };
                // A panicking turn stops the shard: publish that before
                // the client can see its `ShardFailed`.
                publish(&shard, exec);
                complete(
                    loops,
                    loop_id,
                    Completion::Turn {
                        conn,
                        objects,
                        outcome,
                    },
                );
                drain(&mut shard, exec, &mut drains);
            }
            Job::Collect { fan } => {
                if drain(&mut shard, exec, &mut drains) {
                    fan.kicked.fetch_add(1, Ordering::SeqCst);
                }
                if fan.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                    complete(
                        loops,
                        fan.loop_id,
                        Completion::Collect {
                            conn: fan.conn,
                            kicked: fan.kicked.load(Ordering::SeqCst),
                        },
                    );
                }
            }
        }
    }
    shard
}

/// Blocks for the next job; `None` once the queue is stopped and empty.
fn next_job(exec: &ShardExec) -> Option<(Instant, Job)> {
    let mut st = lock(&exec.state);
    loop {
        if let Some(job) = st.jobs.pop_front() {
            return Some(job);
        }
        if st.stop {
            return None;
        }
        st = exec
            .cv
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// Drains the shard's due collection, if any, records when it ran, and
/// publishes the shard's progress. Returns whether a collection was due.
fn drain(shard: &mut Shard, exec: &ShardExec, drains: &mut VecDeque<(Instant, Instant)>) -> bool {
    let start = Instant::now();
    let due = shard.collect();
    if due {
        drains.push_back((start, Instant::now()));
    }
    publish(shard, exec);
    due
}

/// Publishes the shard's progress for `Stats`. The count is a statistic
/// that guards no other data, hence `Relaxed`.
fn publish(shard: &Shard, exec: &ShardExec) {
    exec.collections
        .store(shard.collection_count(), Ordering::Relaxed);
    if let Some(notice) = shard.failure() {
        exec.failed.get_or_init(|| notice.to_owned());
    }
}

/// The part of a job's queue wait, `[enqueued, started]`, that
/// overlapped the shard's collection drains: what `OpsOk.gc_stall_ns`
/// reports.
fn gc_stall_ns<'a>(
    enqueued: Instant,
    started: Instant,
    drains: impl IntoIterator<Item = &'a (Instant, Instant)>,
) -> u64 {
    drains
        .into_iter()
        .map(|&(from, to)| {
            let overlap = to
                .min(started)
                .saturating_duration_since(from.max(enqueued));
            overlap.as_nanos() as u64
        })
        .sum()
}

// ---------------------------------------------------------------------
// Net loop
// ---------------------------------------------------------------------

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> Fd {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_t: &T) -> Fd {
    // The emulated poll never dereferences descriptors.
    -1
}

/// What to do with a connection after an event was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Keep,
    /// Close now: record counters, free the slot.
    Close,
    /// The socket failed while a shard job is in flight; keep the slot
    /// (the completion owns state to return) but stop polling the fd.
    Dead,
}

enum FdKind {
    Wake,
    Listener,
    Conn(usize),
}

struct NetLoop<'a> {
    loop_id: usize,
    shared: &'a Shared,
    loops: &'a [LoopShared],
    execs: &'a [ShardExec],
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    stats: LoopStats,
    /// Response-body scratch, reused across every response this loop
    /// encodes.
    scratch: Vec<u8>,
    /// Socket read scratch.
    read_buf: Vec<u8>,
    /// Round-robin cursor for dealing accepted connections (loop 0).
    rr: usize,
}

impl NetLoop<'_> {
    fn run(mut self, mut listener: Option<TcpListener>) -> LoopStats {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut kinds: Vec<FdKind> = Vec::new();
        loop {
            self.adopt_inbox();
            for completion in std::mem::take(&mut *lock(&self.loops[self.loop_id].completions)) {
                self.apply_completion(completion);
            }
            let draining = self.shared.draining.load(Ordering::SeqCst);
            if draining {
                listener = None; // stop accepting; refuse new connects
                self.drain_pass();
                if self.is_quiescent() {
                    break;
                }
            } else {
                self.reap_idle();
            }

            fds.clear();
            kinds.clear();
            fds.push(PollFd::new(self.loops[self.loop_id].wake.fd(), POLLIN));
            kinds.push(FdKind::Wake);
            if let Some(l) = &listener {
                fds.push(PollFd::new(raw_fd(l), POLLIN));
                kinds.push(FdKind::Listener);
            }
            for (idx, slot) in self.conns.iter().enumerate() {
                let Some(conn) = slot else { continue };
                if conn.dead {
                    continue;
                }
                let mut events = 0i16;
                if conn.phase == ConnPhase::Ready && !conn.close_after_flush {
                    events |= POLLIN;
                }
                if conn.out_pending() > 0 {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd::new(raw_fd(&conn.stream), events));
                    kinds.push(FdKind::Conn(idx));
                }
            }

            let timeout_ms = self.poll_timeout_ms();
            let ready = match poll(&mut fds, timeout_ms, self.shared.poll_interval) {
                Ok(n) => n,
                Err(_) => {
                    // A failing poll would spin; back off one emulation
                    // tick and retry (never observed on the Unix path).
                    std::thread::sleep(self.shared.poll_interval);
                    continue;
                }
            };
            if ready == 0 {
                if timeout_ms >= 0 {
                    self.stats.timeouts += 1;
                }
                continue;
            }
            self.stats.wakeups += 1;

            for i in 0..fds.len() {
                if fds[i].revents == 0 {
                    continue;
                }
                match kinds[i] {
                    FdKind::Wake => self.loops[self.loop_id].wake.drain(),
                    FdKind::Listener => self.accept_burst(&listener),
                    FdKind::Conn(idx) => self.conn_event(idx, fds[i].revents),
                }
            }
        }
        self.stats
    }

    /// Next poll timeout: the soonest idle deadline among reapable
    /// connections, or block indefinitely when nothing is due — every
    /// other transition arrives as descriptor readiness.
    fn poll_timeout_ms(&self) -> i32 {
        let now = Instant::now();
        let mut timeout: Option<Duration> = None;
        for conn in self.conns.iter().flatten() {
            if conn.dead || conn.phase == ConnPhase::AwaitShard {
                continue;
            }
            let deadline = conn.last_activity + self.shared.idle_timeout;
            let remaining = deadline.saturating_duration_since(now);
            timeout = Some(match timeout {
                Some(t) => t.min(remaining),
                None => remaining,
            });
        }
        match timeout {
            // +1ms so the deadline has passed when the timeout fires.
            Some(t) => (t.as_millis() + 1).min(i32::MAX as u128) as i32,
            None => -1,
        }
    }

    fn adopt_inbox(&mut self) {
        let streams = std::mem::take(&mut *lock(&self.loops[self.loop_id].inbox));
        let draining = self.shared.draining.load(Ordering::SeqCst);
        for stream in streams {
            if draining {
                // Dropped: the client sees a closed socket, the
                // documented refusal during drain.
                continue;
            }
            self.adopt(stream);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let conn = Connection::new(stream, Instant::now());
        self.stats.accepted += 1;
        match self.free.pop() {
            Some(idx) => self.conns[idx] = Some(conn),
            None => self.conns.push(Some(conn)),
        }
    }

    fn accept_burst(&mut self, listener: &Option<TcpListener>) {
        let Some(listener) = listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let target = self.rr % self.loops.len();
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.loop_id {
                        self.adopt(stream);
                    } else {
                        lock(&self.loops[target].inbox).push(stream);
                        self.loops[target].wake.wake();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Transient accept failures (EMFILE, aborted handshake):
                // drop the burst; the listener stays registered and poll
                // re-reports readiness.
                Err(_) => break,
            }
        }
    }

    /// True when this loop has nothing left to do under an active drain.
    fn is_quiescent(&self) -> bool {
        self.conns.iter().all(Option::is_none)
            && lock(&self.loops[self.loop_id].inbox).is_empty()
            && lock(&self.loops[self.loop_id].completions).is_empty()
    }

    /// Drain: close every connection with no shard job in flight. Each
    /// applied turn was acknowledged synchronously, so closing here
    /// loses nothing.
    fn drain_pass(&mut self) {
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if conn.dead || conn.phase == ConnPhase::AwaitShard {
                continue;
            }
            if !conn.close_after_flush {
                conn.counters.clean_close = true;
                conn.close_after_flush = true;
            }
            if conn.out_pending() == 0 {
                self.retire(idx, Verdict::Close);
            }
            // else: POLLOUT flushes the tail, then the close completes.
        }
    }

    fn reap_idle(&mut self) {
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            if conn.dead || conn.phase == ConnPhase::AwaitShard {
                continue;
            }
            if now.saturating_duration_since(conn.last_activity) >= self.shared.idle_timeout {
                // Reaped: unclean close, counters still recorded.
                self.retire(idx, Verdict::Close);
            }
        }
    }

    fn retire(&mut self, idx: usize, verdict: Verdict) {
        match verdict {
            Verdict::Keep => {}
            Verdict::Dead => {
                if let Some(conn) = self.conns[idx].as_mut() {
                    conn.dead = true;
                }
            }
            Verdict::Close => {
                if let Some(conn) = self.conns[idx].take() {
                    lock(&self.shared.clients).push(conn.counters);
                    self.free.push(idx);
                }
            }
        }
    }

    fn conn_event(&mut self, idx: usize, revents: i16) {
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        let mut verdict = Verdict::Keep;
        if revents & POLLNVAL != 0 {
            verdict = Verdict::Close;
        }
        if verdict == Verdict::Keep
            && conn.phase == ConnPhase::Ready
            && !conn.close_after_flush
            && revents & (POLLIN | POLLHUP | POLLERR) != 0
        {
            verdict = self.read_burst(idx, &mut conn);
        }
        if verdict == Verdict::Keep && conn.out_pending() > 0 {
            verdict = self.flush(&mut conn);
        }
        self.conns[idx] = Some(conn);
        self.retire(idx, verdict);
    }

    /// Reads until the kernel runs dry, the connection stops accepting
    /// frames (turn in flight / closing), or the stream ends.
    fn read_burst(&mut self, idx: usize, conn: &mut Connection) -> Verdict {
        loop {
            if conn.phase != ConnPhase::Ready || conn.close_after_flush {
                break;
            }
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => return Verdict::Close, // EOF
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    // Borrow dance: move the chunk through a split
                    // borrow of the scratch so the assembler can ingest
                    // while `self` stays usable afterwards.
                    let chunk_len = n;
                    conn.assembler.extend(&self.read_buf[..chunk_len]);
                    let verdict = self.process_frames(idx, conn);
                    if verdict != Verdict::Keep {
                        return verdict;
                    }
                    if n < self.read_buf.len() {
                        // Short read: the kernel buffer is (almost
                        // certainly) dry; poll is level-triggered, so
                        // guessing wrong only costs one extra wakeup.
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
        if conn.assembler.pending() > 0 {
            self.stats.partial_reads += 1;
        }
        Verdict::Keep
    }

    /// Decodes and handles every complete buffered frame, stopping when
    /// the connection enters `AwaitShard` (strict request/response:
    /// later frames wait for the turn's completion) or starts closing.
    fn process_frames(&mut self, idx: usize, conn: &mut Connection) -> Verdict {
        loop {
            if conn.phase != ConnPhase::Ready || conn.close_after_flush {
                return Verdict::Keep;
            }
            let body = match conn.assembler.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => return Verdict::Keep,
                // Corrupt framing: the stream is out of sync; close
                // without a response, as the blocking reader did.
                Err(_) => return Verdict::Close,
            };
            conn.counters.bytes_in += body.len() as u64 + FRAME_OVERHEAD;
            self.stats.frames_in += 1;
            match Request::decode(body) {
                Ok(req) => self.handle_request(idx, conn, req),
                Err(e) => {
                    self.queue_response(
                        conn,
                        &Response::Error {
                            code: ErrorCode::Protocol,
                            message: e.to_string(),
                        },
                    );
                    conn.close_after_flush = true;
                }
            }
        }
    }

    fn handle_request(&mut self, idx: usize, conn: &mut Connection, req: Request) {
        match req {
            Request::Hello { .. } if conn.session.is_some() => {
                // Rebinding would carry this session's object map and
                // credits into another session's shard.
                self.queue_response(
                    conn,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: "Hello on a bound connection".into(),
                    },
                );
                conn.close_after_flush = true;
            }
            Request::Hello { session, window } => {
                let window = window.clamp(1, self.shared.window_max);
                conn.session = Some(session);
                conn.shard = session % self.shared.shard_count;
                conn.window = window as u64;
                conn.counters.session = session;
                self.queue_response(
                    conn,
                    &Response::HelloOk {
                        session,
                        shard: conn.shard,
                        window,
                    },
                );
            }
            Request::Ops { ops } => {
                let Some(session) = conn.session else {
                    self.queue_response(
                        conn,
                        &Response::Error {
                            code: ErrorCode::Protocol,
                            message: "Ops before Hello".into(),
                        },
                    );
                    return;
                };
                if self.shared.draining.load(Ordering::SeqCst) {
                    self.queue_response(
                        conn,
                        &Response::Error {
                            code: ErrorCode::Draining,
                            message: "server is draining; no new turns".into(),
                        },
                    );
                    return;
                }
                if conn.in_flight >= conn.window {
                    conn.counters.busy_rejections += 1;
                    self.queue_response(
                        conn,
                        &Response::Busy {
                            in_flight: conn.in_flight,
                            window: conn.window,
                        },
                    );
                    return;
                }
                let objects = conn.objects.take().unwrap_or_default();
                conn.phase = ConnPhase::AwaitShard;
                let depth = enqueue(
                    &self.execs[conn.shard as usize],
                    Job::Turn {
                        loop_id: self.loop_id,
                        conn: idx,
                        session,
                        ops,
                        objects,
                    },
                );
                self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth as u64);
            }
            Request::Ack { n } => {
                conn.in_flight = conn.in_flight.saturating_sub(n);
                self.queue_response(
                    conn,
                    &Response::AckOk {
                        in_flight: conn.in_flight,
                    },
                );
            }
            Request::Stats => {
                let resp = self.stats_snapshot();
                self.queue_response(conn, &resp);
            }
            Request::Collect => {
                let fan = Arc::new(CollectFan {
                    loop_id: self.loop_id,
                    conn: idx,
                    remaining: AtomicUsize::new(self.execs.len()),
                    kicked: AtomicU64::new(0),
                });
                conn.phase = ConnPhase::AwaitShard;
                for exec in self.execs.iter() {
                    let depth = enqueue(
                        exec,
                        Job::Collect {
                            fan: Arc::clone(&fan),
                        },
                    );
                    self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth as u64);
                }
            }
            Request::Shutdown => {
                self.shared.draining.store(true, Ordering::SeqCst);
                conn.counters.clean_close = true;
                self.queue_response(conn, &Response::ShutdownOk);
                conn.close_after_flush = true;
                for other in self.loops.iter() {
                    other.wake.wake();
                }
            }
            Request::Bye => {
                conn.counters.clean_close = true;
                self.queue_response(conn, &Response::ByeOk);
                conn.close_after_flush = true;
            }
        }
    }

    fn stats_snapshot(&self) -> Response {
        let shards = self
            .execs
            .iter()
            .enumerate()
            .map(|(i, exec)| ShardStats {
                shard: i as u32,
                collections: exec.collections.load(Ordering::Relaxed),
                failed: exec.failed.get().cloned(),
            })
            .collect();
        let clients = lock(&self.shared.clients).clone();
        Response::StatsOk(StatsSnapshot { shards, clients })
    }

    fn queue_response(&mut self, conn: &mut Connection, resp: &Response) {
        resp.encode_into(&mut self.scratch);
        conn.counters.bytes_out += self.scratch.len() as u64 + FRAME_OVERHEAD;
        self.stats.frames_out += 1;
        frame_into(&mut conn.out, &self.scratch);
    }

    fn flush(&mut self, conn: &mut Connection) -> Verdict {
        match conn.flush_out() {
            Ok(true) => {
                if conn.close_after_flush {
                    Verdict::Close
                } else {
                    Verdict::Keep
                }
            }
            Ok(false) => {
                self.stats.partial_writes += 1;
                Verdict::Keep
            }
            Err(_) => {
                if conn.phase == ConnPhase::AwaitShard {
                    Verdict::Dead
                } else {
                    Verdict::Close
                }
            }
        }
    }

    fn apply_completion(&mut self, completion: Completion) {
        self.stats.completions += 1;
        match completion {
            Completion::Turn {
                conn: idx,
                objects,
                outcome,
            } => {
                let Some(mut conn) = self.conns[idx].take() else {
                    return;
                };
                conn.objects = Some(objects);
                conn.phase = ConnPhase::Ready;
                conn.last_activity = Instant::now();
                let resp = match outcome {
                    Ok((applied, gc_stall_ns)) => {
                        conn.in_flight += 1;
                        conn.counters.turns += 1;
                        conn.counters.ops += applied.applied;
                        conn.counters.gc_stall_ns += gc_stall_ns;
                        Response::OpsOk {
                            applied: applied.applied,
                            created: applied.created,
                            garbage_created: applied.garbage_created,
                            in_flight: conn.in_flight,
                            gc_stall_ns,
                        }
                    }
                    Err(TurnFail::Turn(e)) => Response::Error {
                        code: match e.kind {
                            odbgc_engine::TurnErrorKind::Op(_) => ErrorCode::Op,
                            odbgc_engine::TurnErrorKind::UnknownRef { .. } => ErrorCode::Protocol,
                        },
                        message: e.to_string(),
                    },
                    Err(TurnFail::Shard(message)) => Response::Error {
                        code: ErrorCode::ShardFailed,
                        message,
                    },
                };
                self.resume(idx, conn, resp);
            }
            Completion::Collect { conn: idx, kicked } => {
                let Some(mut conn) = self.conns[idx].take() else {
                    return;
                };
                conn.phase = ConnPhase::Ready;
                conn.last_activity = Instant::now();
                self.resume(idx, conn, Response::CollectOk { kicked });
            }
        }
    }

    /// Flushes a completion's response and resumes decoding any frames
    /// the client pipelined while the turn was in flight.
    fn resume(&mut self, idx: usize, mut conn: Connection, resp: Response) {
        if conn.dead {
            // The socket died mid-turn; the turn still counted (it was
            // applied), but there is nobody to respond to.
            lock(&self.shared.clients).push(conn.counters);
            self.free.push(idx);
            return;
        }
        self.queue_response(&mut conn, &resp);
        let mut verdict = self.process_frames(idx, &mut conn);
        if verdict == Verdict::Keep && conn.out_pending() > 0 {
            verdict = self.flush(&mut conn);
        }
        self.conns[idx] = Some(conn);
        self.retire(idx, verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_stall_is_the_queue_wait_that_overlapped_a_drain() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let ns = |ms: u64| ms * 1_000_000;
        // Drains ran over [10, 20] and [30, 35].
        let drains = [(at(10), at(20)), (at(30), at(35))];
        let stall = |enqueued, started| gc_stall_ns(at(enqueued), at(started), &drains);

        // Queued before the first drain, started after the second:
        // both drains count in full.
        assert_eq!(stall(5, 40), ns(15));
        // Queued mid-drain: only the rest of that drain counts.
        assert_eq!(stall(14, 20), ns(6));
        // Queued and started between drains, or after both: no stall.
        assert_eq!(stall(22, 28), 0);
        assert_eq!(stall(36, 50), 0);
        // Started mid-drain cannot happen on one owner, but the overlap
        // still clips to the wait.
        assert_eq!(stall(12, 15), ns(3));
        // A job that never waited.
        assert_eq!(stall(40, 40), 0);
    }
}
