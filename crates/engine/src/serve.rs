//! In-process multi-session serve mode, and the shard the network
//! front-end (`odbgc-net`) serves turns on.
//!
//! N sessions submit operations against a set of engine shards, each a
//! [`Shard`]: one store, collector, and policy, owned by exactly one
//! thread. A turn applies a batch of operations ([`Shard::apply`]) and
//! then drains any due collection inline ([`Shard::collect`]), so
//! collections land at deterministic points in each shard's operation
//! stream. [`serve`] and [`serve_replay`] drive their shards on the
//! calling thread, with no threads and no locks; `odbgc-net` gives each
//! shard one owner thread.
//!
//! Operations are plain data ([`SessionOp`]) that name objects by
//! *creation index* within the issuing session ([`ObjRef`]), not by raw
//! [`ObjectId`]. That makes an operation stream a pure function of its
//! seed — generators never need to see engine-assigned ids — and is what
//! lets the same [`SessionWorkload`] drive the in-process scheduler here
//! and the wire protocol in `odbgc-net` with identical semantics.
//!
//! Failure is typed, never a panic cascade: a panic in a turn or a
//! collection is caught (`catch_unwind`), its payload captured, and its
//! shard marked failed — later turns there return a [`ServeError`]
//! naming the panic while every other shard keeps serving and drains
//! cleanly.
//!
//! [`serve_replay`] is the degenerate configuration — one shard, one
//! session, batch size one — used to prove the serve path is faithful:
//! it produces a [`RunResult`] byte-identical to the simulator's inline
//! replay of the same trace.

use std::panic::{catch_unwind, AssertUnwindSafe};

use odbgc_core::RatePolicy;
use odbgc_trace::{Event, ObjectId, SlotIdx, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::EngineConfig;
use crate::engine::{CollectMode, StoreEngine};
use crate::observer::{DecisionLog, DecisionRecord};
use crate::result::RunResult;
use crate::session::{OpError, Session, SessionId};

// ---------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------

/// Parameters of the synthetic mutator workload each session runs.
///
/// Sessions build small object graphs: rooted *anchor* objects whose
/// pointer slots are linked to freshly created children, relinked
/// (overwriting the old pointer, creating garbage), cleared, and
/// navigated. Session `i` draws from an RNG seeded `seed + i`, so the
/// whole workload is a pure function of the configuration.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadParams {
    /// Size of each rooted anchor object, bytes.
    pub anchor_size: u32,
    /// Pointer slots per anchor.
    pub anchor_slots: u32,
    /// Size of each linked child object, bytes.
    pub child_size: u32,
    /// Base RNG seed; session `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            anchor_size: 64,
            anchor_slots: 4,
            child_size: 48,
            seed: 0xD15EA5E,
        }
    }
}

/// A session-local object name: the index of the object in the order the
/// session created it (0 = the session's first `Create`).
///
/// Operation streams address objects by creation index rather than by
/// engine-assigned [`ObjectId`], so a stream can be generated — or sent
/// over a wire — without waiting for any response. The applier resolves
/// indices through the session's [`SessionObjects`] map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjRef(pub u64);

/// One mutator operation, as plain data.
///
/// This is the unit the serve scheduler, the network protocol, and the
/// workload generator all share. Applying a `SessionOp` through
/// [`apply_ops`] funnels into the same typed [`Session`] methods a
/// direct client would call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOp {
    /// Create a fresh object (`size` bytes, `slots` null pointer slots).
    /// The object becomes addressable as the session's next [`ObjRef`].
    Create {
        /// Object size in bytes.
        size: u32,
        /// Number of pointer slots.
        slots: u32,
    },
    /// Read an object (navigation; charges application I/O).
    Access {
        /// The object to read.
        obj: ObjRef,
    },
    /// Store a pointer: `obj.slots[slot] = target` (`None` clears).
    Overwrite {
        /// The object whose slot is written.
        obj: ObjRef,
        /// The slot index.
        slot: u32,
        /// The new pointee, or `None` to clear.
        target: Option<ObjRef>,
    },
    /// Add an object to the persistent root set.
    AddRoot {
        /// The object to pin.
        obj: ObjRef,
    },
    /// Remove an object from the persistent root set.
    RemoveRoot {
        /// The object to unpin.
        obj: ObjRef,
    },
}

/// One session's creation-index → [`ObjectId`] map, maintained by
/// [`apply_ops`] as `Create` operations execute.
#[derive(Debug, Default)]
pub struct SessionObjects {
    created: Vec<ObjectId>,
}

impl SessionObjects {
    /// An empty map for a fresh session.
    pub fn new() -> Self {
        SessionObjects::default()
    }

    /// Objects this session has created so far.
    pub fn created_count(&self) -> u64 {
        self.created.len() as u64
    }

    fn resolve(&self, r: ObjRef) -> Option<ObjectId> {
        self.created.get(r.0 as usize).copied()
    }
}

/// What applying one turn of operations did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TurnApplied {
    /// Operations applied.
    pub applied: u64,
    /// Objects created by this turn.
    pub created: u64,
    /// Bytes that became garbage as a direct consequence of this turn's
    /// overwrites and root removals.
    pub garbage_created: u64,
}

/// A turn failed at `op_index` (operations before it were applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurnError {
    /// Index of the failing operation within the submitted turn.
    pub op_index: usize,
    /// What went wrong.
    pub kind: TurnErrorKind,
}

/// Why an operation in a turn failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TurnErrorKind {
    /// The store rejected the operation.
    Op(OpError),
    /// The operation named a creation index the session has not reached
    /// (a malformed stream; on the wire path, a protocol error).
    UnknownRef {
        /// The out-of-range creation index.
        obj: u64,
        /// How many objects the session has actually created.
        created: u64,
    },
}

impl std::fmt::Display for TurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            TurnErrorKind::Op(e) => write!(f, "op {}: {e}", self.op_index),
            TurnErrorKind::UnknownRef { obj, created } => write!(
                f,
                "op {}: unknown object ref {obj} (session created {created})",
                self.op_index
            ),
        }
    }
}

impl std::error::Error for TurnError {}

/// Applies one turn of operations through a session, resolving
/// [`ObjRef`]s via `objects` (and extending it at every `Create`).
///
/// On failure the error carries the index of the offending operation;
/// everything before it has been applied and `objects` reflects the
/// applied prefix.
pub fn apply_ops<P: RatePolicy>(
    sess: &mut Session<'_, P>,
    objects: &mut SessionObjects,
    ops: &[SessionOp],
) -> Result<TurnApplied, TurnError> {
    let mut out = TurnApplied::default();
    for (op_index, op) in ops.iter().enumerate() {
        let fail = |kind| TurnError { op_index, kind };
        let resolve = |r: ObjRef| {
            objects.resolve(r).ok_or(TurnError {
                op_index,
                kind: TurnErrorKind::UnknownRef {
                    obj: r.0,
                    created: objects.created_count(),
                },
            })
        };
        match *op {
            SessionOp::Create { size, slots } => {
                let created = sess
                    .create(size, slots)
                    .map_err(|e| fail(TurnErrorKind::Op(e)))?;
                objects.created.push(created.id);
                out.created += 1;
            }
            SessionOp::Access { obj } => {
                let id = resolve(obj)?;
                sess.access(id).map_err(|e| fail(TurnErrorKind::Op(e)))?;
            }
            SessionOp::Overwrite { obj, slot, target } => {
                let id = resolve(obj)?;
                let new = match target {
                    Some(t) => Some(resolve(t)?),
                    None => None,
                };
                let w = sess
                    .overwrite(id, SlotIdx::new(slot), new)
                    .map_err(|e| fail(TurnErrorKind::Op(e)))?;
                out.garbage_created += w.garbage_created;
            }
            SessionOp::AddRoot { obj } => {
                let id = resolve(obj)?;
                sess.add_root(id).map_err(|e| fail(TurnErrorKind::Op(e)))?;
            }
            SessionOp::RemoveRoot { obj } => {
                let id = resolve(obj)?;
                let r = sess
                    .remove_root(id)
                    .map_err(|e| fail(TurnErrorKind::Op(e)))?;
                out.garbage_created += r.garbage_created;
            }
        }
        out.applied += 1;
    }
    Ok(out)
}

/// One session's workload generator: a pure function of
/// `(params.seed + session, ops)` that yields operations in whole-action
/// turns.
///
/// Every action is safe under deferred collection *between* turns:
/// composite actions (create a child, then link it reachable) are never
/// split across a turn boundary, so the collector never observes the
/// momentarily-unreachable child — and a turn never exceeds the
/// session's remaining operation budget, however the budget and the
/// batch size line up (the PR 6 batch-accounting guarantee, preserved
/// here for streams that cross a network backpressure boundary).
#[derive(Debug)]
pub struct SessionWorkload {
    rng: StdRng,
    /// Rooted anchors this session created: `(creation index, slots)`.
    anchors: Vec<(ObjRef, u32)>,
    /// Objects generated so far (the next `Create`'s [`ObjRef`]).
    generated: u64,
    remaining: u64,
    params: WorkloadParams,
}

impl SessionWorkload {
    /// The generator for session `session` with an `ops` total budget.
    pub fn new(session: u32, params: WorkloadParams, ops: u64) -> Self {
        SessionWorkload {
            rng: StdRng::seed_from_u64(params.seed.wrapping_add(session as u64)),
            anchors: Vec::new(),
            generated: 0,
            remaining: ops,
            params,
        }
    }

    /// Operations left in this session's budget.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// The workload parameters this generator draws from.
    pub fn params(&self) -> WorkloadParams {
        self.params
    }

    /// Generates the next turn: whole actions only, at most
    /// `batch` operations, never more than the remaining budget.
    /// Returns an empty vec when the budget is exhausted.
    pub fn next_turn(&mut self, batch: u64) -> Vec<SessionOp> {
        let mut ops = Vec::new();
        while (ops.len() as u64) < batch && self.remaining > 0 {
            let room = (batch - ops.len() as u64).min(self.remaining);
            let n = self.push_action(&mut ops, room);
            self.remaining -= n.min(self.remaining);
        }
        ops
    }

    /// Appends one action (1 or 2 operations, never more than `room`)
    /// and returns the number of operations appended.
    fn push_action(&mut self, ops: &mut Vec<SessionOp>, room: u64) -> u64 {
        let params = self.params;
        let roll = self.rng.random_range(0u32..100);
        // Composite actions need room for both halves in this turn.
        if room >= 2 && (self.anchors.is_empty() || roll < 10) {
            // New rooted anchor.
            let a = ObjRef(self.generated);
            self.generated += 1;
            ops.push(SessionOp::Create {
                size: params.anchor_size,
                slots: params.anchor_slots,
            });
            ops.push(SessionOp::AddRoot { obj: a });
            self.anchors.push((a, params.anchor_slots));
            return 2;
        }
        if self.anchors.is_empty() {
            // No anchors and no room for the composite: burn one op on
            // an unrooted create (immediate garbage — the collector's
            // job is exactly to find it).
            self.generated += 1;
            ops.push(SessionOp::Create {
                size: params.child_size,
                slots: 0,
            });
            return 1;
        }
        let (anchor, slots) = self.anchors[self.rng.random_range(0..self.anchors.len())];
        if room >= 2 && roll < 45 {
            // Create a child and link it into a random anchor slot,
            // atomically within this turn. Overwriting an existing
            // pointer orphans the old child — garbage, by design.
            let c = ObjRef(self.generated);
            self.generated += 1;
            ops.push(SessionOp::Create {
                size: params.child_size,
                slots: 0,
            });
            ops.push(SessionOp::Overwrite {
                obj: anchor,
                slot: self.rng.random_range(0..slots),
                target: Some(c),
            });
            return 2;
        }
        if roll < 60 {
            // Clear a random slot (may orphan a child).
            ops.push(SessionOp::Overwrite {
                obj: anchor,
                slot: self.rng.random_range(0..slots),
                target: None,
            });
            return 1;
        }
        // Navigate: read a rooted anchor.
        ops.push(SessionOp::Access { obj: anchor });
        1
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A serve-mode failure, always typed — a panicking shard is caught and
/// reported through this, never re-thrown.
#[derive(Debug)]
pub struct ServeError {
    /// The shard the failure occurred on.
    pub shard: usize,
    /// What went wrong.
    pub kind: ServeErrorKind,
}

/// The ways a serve run can fail.
#[derive(Debug)]
pub enum ServeErrorKind {
    /// A session operation failed (the store's complaint, typed).
    Op(OpError),
    /// An operation stream named an unknown creation index.
    Turn(TurnError),
    /// The shard panicked — in a collection or while applying a turn —
    /// and stopped serving, while other shards continue. The notice
    /// (as [`Shard::failure`] reports it) says where and carries the
    /// panic payload.
    Failed(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ServeErrorKind::Op(op) => write!(f, "shard {}: {op}", self.shard),
            ServeErrorKind::Turn(t) => write!(f, "shard {}: {t}", self.shard),
            ServeErrorKind::Failed(notice) => write!(f, "shard {}: {notice}", self.shard),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            ServeErrorKind::Op(op) => Some(op),
            ServeErrorKind::Turn(t) => Some(t),
            ServeErrorKind::Failed(_) => None,
        }
    }
}

/// A trace event failed during [`serve_replay`].
#[derive(Debug)]
pub struct ServeReplayError {
    /// Index of the failing event in the trace (for shard-level
    /// failures: the index of the event whose turn hit the failure).
    pub event_index: u64,
    /// The failing operation or shard failure.
    pub cause: ServeError,
}

impl std::fmt::Display for ServeReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {}: {}", self.event_index, self.cause)
    }
}

impl std::error::Error for ServeReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// Renders a caught panic payload (mirrors the runner's job-panic
/// rendering: `&str` and `String` payloads verbatim, anything else
/// summarized).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

// ---------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------

/// Kill-one-shard fault injection: the named shard's collection panics
/// when one comes due after the shard has completed `after_collections`
/// collections. For robustness tests — proves a panicking collection
/// surfaces as a typed [`ServeError`] while other shards drain cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcFault {
    /// The shard whose collection panics.
    pub shard: u32,
    /// Collections the shard completes before the fault fires.
    pub after_collections: u64,
}

/// One engine shard, owned by exactly one thread at a time: a store
/// engine in [`CollectMode::Deferred`], its decision log, and a failure
/// latch.
///
/// A turn is [`Shard::apply`] followed by [`Shard::collect`]. Operations
/// never collect inline, and `collect` drains any due collection before
/// the next turn can start, so collections land at deterministic points
/// in the shard's operation stream whichever thread owns the shard.
/// Both steps run under `catch_unwind`: a panic latches the shard as
/// failed, and every later turn is refused with a typed [`ServeError`].
/// Session `i` conventionally maps to shard `i % shard_count`.
pub struct Shard {
    index: usize,
    engine: StoreEngine,
    log: DecisionLog,
    /// Collections after which the injected fault fires, if it targets
    /// this shard.
    fault_after: Option<u64>,
    /// Why the shard stopped serving, once it has.
    failed: Option<String>,
}

impl Shard {
    /// Builds shard `index` from its engine configuration and policy.
    /// `fault` applies only if it names this shard.
    pub fn new(
        index: usize,
        engine: &EngineConfig,
        policy: Box<dyn RatePolicy + Send>,
        fault: Option<GcFault>,
    ) -> Shard {
        let mut eng = StoreEngine::new(engine.clone(), policy);
        eng.set_collect_mode(CollectMode::Deferred);
        Shard {
            index,
            engine: eng,
            log: DecisionLog::default(),
            fault_after: fault
                .filter(|f| f.shard as usize == index)
                .map(|f| f.after_collections),
            failed: None,
        }
    }

    /// The shard index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Collections the shard has completed.
    pub fn collection_count(&self) -> u64 {
        self.engine.collection_count()
    }

    /// The shard's failure notice, if it has stopped serving.
    pub fn failure(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// Applies one turn: `f` runs against a session on this shard whose
    /// decisions feed the shard's log. Fails — without running `f` —
    /// once the shard has stopped serving; a panic inside `f` stops it.
    pub fn apply<R>(
        &mut self,
        session: SessionId,
        f: impl FnOnce(&mut Session<'_>) -> R,
    ) -> Result<R, ServeError> {
        self.check()?;
        let (engine, log) = (&mut self.engine, &mut self.log);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            f(&mut engine.session_with(session, Some(log)))
        }));
        outcome.map_err(|payload| self.fail("turn", payload))
    }

    /// Collects if the shard's trigger is due: drains until the re-armed
    /// trigger is satisfied. Returns whether a collection was due. A
    /// panic in the drain (including the injected [`GcFault`]) stops the
    /// shard; a stopped shard never collects.
    pub fn collect(&mut self) -> bool {
        if self.failed.is_some() || !self.engine.collection_due() {
            return false;
        }
        let fault_due = self
            .fault_after
            .is_some_and(|after| self.engine.collection_count() >= after);
        let (engine, log, index) = (&mut self.engine, &mut self.log, self.index);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if fault_due {
                panic!("injected GC worker fault on shard {index}");
            }
            // Policies clamp triggers to ≥ 1 elapsed unit, so this runs
            // at most one real collection plus possible no-partition
            // re-arms.
            while engine.collect_if_due(Some(log)).is_some() {}
        }));
        if let Err(payload) = outcome {
            self.fail("collection", payload);
        }
        true
    }

    /// The latched failure as a typed error, if the shard has stopped.
    fn check(&self) -> Result<(), ServeError> {
        match &self.failed {
            Some(notice) => Err(self.error(notice.clone())),
            None => Ok(()),
        }
    }

    /// Latches a caught panic from `what` and returns it as an error.
    fn fail(&mut self, what: &str, payload: Box<dyn std::any::Any + Send>) -> ServeError {
        let notice = format!("{what} panicked: {}", panic_message(payload));
        self.failed = Some(notice.clone());
        self.error(notice)
    }

    fn error(&self, notice: String) -> ServeError {
        ServeError {
            shard: self.index,
            kind: ServeErrorKind::Failed(notice),
        }
    }

    /// Consumes the shard into its outcome, with trace phase markers for
    /// the [`RunResult`] (replay drivers record these; live workloads
    /// have none).
    pub fn into_outcome(self, phases: Vec<(String, u64, u64)>) -> ShardOutcome {
        ShardOutcome {
            policy: self.engine.policy_name(),
            gc_workers: self.engine.gc_workers(),
            sched: self.engine.sched_totals(),
            result: self.engine.into_result(phases),
            decisions: self.log.decisions,
            failed: self.failed,
        }
    }
}

// ---------------------------------------------------------------------
// Serve
// ---------------------------------------------------------------------

/// Configuration of one serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-shard engine configuration.
    pub engine: EngineConfig,
    /// Number of client sessions.
    pub sessions: u32,
    /// Number of engine shards. Session `i` maps to shard
    /// `i % shards`.
    pub shards: u32,
    /// Operations each session submits over its lifetime.
    pub ops_per_session: u64,
    /// Maximum operations one scheduled turn applies (clamped to ≥ 2 so
    /// composite create-and-link actions stay atomic within a turn).
    pub batch: u64,
    /// Seed of the scheduler's session-picking RNG.
    pub scheduler_seed: u64,
    /// The synthetic workload sessions run.
    pub workload: WorkloadParams,
    /// Optional kill-one-shard fault injection (robustness tests).
    pub gc_fault: Option<GcFault>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: EngineConfig::default(),
            sessions: 4,
            shards: 2,
            ops_per_session: 2_000,
            batch: 8,
            scheduler_seed: 42,
            workload: WorkloadParams::default(),
            gc_fault: None,
        }
    }
}

/// What one shard did over a serve run.
#[derive(Debug)]
pub struct ShardOutcome {
    /// The shard's policy name.
    pub policy: String,
    /// The shard engine's run summary (phases empty: live runs have no
    /// trace phase markers).
    pub result: RunResult,
    /// Every trigger decision the shard's policy made, from live
    /// counters.
    pub decisions: Vec<DecisionRecord>,
    /// Collector-worker pool size the shard's collector ran with.
    pub gc_workers: usize,
    /// Scheduler totals across the shard's collections. The packet and
    /// collection counts are deterministic; busy times and steal counts
    /// are volatile.
    pub sched: odbgc_gc::SchedTotals,
    /// Why the shard stopped serving early, if it did (the failure
    /// notice of [`Shard::failure`]).
    pub failed: Option<String>,
}

/// What a serve run did.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Operations each session applied (indexed by session id).
    pub per_session_ops: Vec<u64>,
    /// The scheduler's turn order: session id per scheduled turn.
    /// Deterministic under a fixed [`ServeConfig::scheduler_seed`].
    pub schedule: Vec<u32>,
    /// Per-shard summaries (indexed by shard).
    pub shards: Vec<ShardOutcome>,
    /// Shard-level failures observed while serving (one per failed
    /// shard; the sessions mapped there stop, every other shard drains
    /// cleanly to completion).
    pub failures: Vec<ServeError>,
}

/// Runs a multi-session serve workload to completion on the calling
/// thread.
///
/// `make_policy` is called once per shard with the shard index. The
/// scheduler picks among sessions with remaining work using an RNG
/// seeded from [`ServeConfig::scheduler_seed`], applies one batch of
/// that session's operations against its shard, and then lets the shard
/// collect if its trigger is due — so collections land at deterministic
/// points in each shard's operation stream.
///
/// A failing session *operation* aborts the run with that error. A
/// failing *shard* (a panic in a collection or a turn) does not: its
/// sessions stop, the failure is recorded in [`ServeOutcome::failures`],
/// and every other shard drains cleanly.
pub fn serve(
    config: ServeConfig,
    mut make_policy: impl FnMut(u32) -> Box<dyn RatePolicy + Send>,
) -> Result<ServeOutcome, ServeError> {
    let sessions = config.sessions.max(1) as usize;
    let shard_count = (config.shards.max(1) as usize).min(sessions);
    let batch = config.batch.max(2);

    let mut shards: Vec<Shard> = (0..shard_count)
        .map(|i| Shard::new(i, &config.engine, make_policy(i as u32), config.gc_fault))
        .collect();
    let mut workloads: Vec<SessionWorkload> = (0..sessions)
        .map(|i| SessionWorkload::new(i as u32, config.workload, config.ops_per_session))
        .collect();
    let mut objects: Vec<SessionObjects> = (0..sessions).map(|_| SessionObjects::new()).collect();
    let mut per_session_ops = vec![0u64; sessions];
    let mut schedule: Vec<u32> = Vec::new();
    let mut failures: Vec<ServeError> = Vec::new();

    let mut rng = StdRng::seed_from_u64(config.scheduler_seed);
    let mut active: Vec<usize> = (0..sessions).collect();
    while !active.is_empty() {
        let k = rng.random_range(0..active.len());
        let si = active[k];
        let shard = &mut shards[si % shard_count];
        let (workload, objects) = (&mut workloads[si], &mut objects[si]);
        let turn = shard.apply(SessionId::new(si as u32), |sess| {
            apply_ops(sess, objects, &workload.next_turn(batch))
        });
        match turn {
            Ok(Ok(applied)) => {
                per_session_ops[si] += applied.applied;
                schedule.push(si as u32);
            }
            // A session op the store rejects is fatal to the run.
            Ok(Err(err)) => {
                return Err(ServeError {
                    shard: shard.index(),
                    kind: match err.kind.clone() {
                        TurnErrorKind::Op(op) => ServeErrorKind::Op(op),
                        TurnErrorKind::UnknownRef { .. } => ServeErrorKind::Turn(err),
                    },
                });
            }
            // The shard has stopped serving: record the typed failure
            // once and retire every session mapped to it; other shards
            // keep draining.
            Err(err) => {
                let failed = err.shard;
                failures.push(err);
                active.retain(|&s| s % shard_count != failed);
                continue;
            }
        }
        shard.collect();
        if workloads[si].remaining() == 0 {
            active.swap_remove(k);
        }
    }

    Ok(ServeOutcome {
        per_session_ops,
        schedule,
        shards: shards
            .into_iter()
            .map(|s| s.into_outcome(Vec::new()))
            .collect(),
        failures,
    })
}

/// Replays a trace through the serve path on the calling thread: one
/// shard, one session, one event per turn.
///
/// Produces a [`RunResult`] byte-identical to the simulator's inline
/// replay of the same trace under the same configuration and policy:
/// each turn applies exactly one event and then drains any due
/// collection, so collections fall between the same pair of events as in
/// the inline loop, and the drain degenerates to the inline single check
/// (fresh triggers are clamped to ≥ 1 elapsed unit, so a second
/// iteration never fires a real collection).
pub fn serve_replay<P: RatePolicy + Send + 'static>(
    config: EngineConfig,
    trace: &Trace,
    policy: P,
) -> Result<RunResult, ServeReplayError> {
    let mut shard = Shard::new(0, &config, Box::new(policy), None);
    let mut phases: Vec<(String, u64, u64)> = Vec::new();
    for (i, ev) in trace.iter().enumerate() {
        let fail = |kind| ServeReplayError {
            event_index: i as u64,
            cause: ServeError { shard: 0, kind },
        };
        if let Event::Phase { id } = ev {
            let name = trace.phase_name(*id).unwrap_or("<unknown>").to_owned();
            phases.push((name, i as u64, shard.collection_count()));
        }
        match shard.apply(SessionId::new(0), |sess| sess.apply_event(ev)) {
            Ok(Ok(_)) => {}
            Ok(Err(op)) => return Err(fail(ServeErrorKind::Op(op))),
            Err(cause) => return Err(fail(cause.kind)),
        }
        shard.collect();
    }
    let shard = shard.into_outcome(phases);
    match shard.failed {
        Some(notice) => Err(ServeReplayError {
            event_index: trace.len() as u64,
            cause: ServeError {
                shard: 0,
                kind: ServeErrorKind::Failed(notice),
            },
        }),
        None => Ok(shard.result),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_core::FixedRatePolicy;

    fn tiny_serve(seed: u64) -> ServeConfig {
        ServeConfig {
            engine: EngineConfig::tiny(),
            sessions: 3,
            shards: 2,
            ops_per_session: 300,
            batch: 4,
            scheduler_seed: seed,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_completes_all_ops_and_collects() {
        let out = serve(tiny_serve(7), |_| Box::new(FixedRatePolicy::new(20))).expect("serve run");
        assert_eq!(out.per_session_ops, vec![300, 300, 300]);
        assert_eq!(out.shards.len(), 2);
        assert!(out.failures.is_empty());
        let total_collections: u64 = out.shards.iter().map(|s| s.result.collection_count()).sum();
        assert!(total_collections > 0, "rate-20 policy must collect");
        for shard in &out.shards {
            assert_eq!(
                shard.decisions.len() as u64,
                shard.result.collection_count(),
                "one decision per collection, logged from live counters"
            );
            assert_eq!(shard.policy, "fixed(20)");
            assert!(shard.failed.is_none());
        }
    }

    #[test]
    fn serve_schedule_is_deterministic_per_seed() {
        let a = serve(tiny_serve(9), |_| Box::new(FixedRatePolicy::new(25))).expect("run a");
        let b = serve(tiny_serve(9), |_| Box::new(FixedRatePolicy::new(25))).expect("run b");
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.per_session_ops, b.per_session_ops);
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(sa.result, sb.result);
        }
        let c = serve(tiny_serve(10), |_| Box::new(FixedRatePolicy::new(25))).expect("run c");
        assert_ne!(
            a.schedule, c.schedule,
            "different scheduler seeds interleave differently"
        );
    }

    #[test]
    fn workload_turns_respect_batch_and_budget() {
        // Whole-action turns: never exceed the batch, never exceed the
        // remaining budget, never split a composite across a boundary —
        // whatever the batch/budget alignment.
        for (ops, batch) in [(301u64, 4u64), (7, 2), (100, 3), (17, 8), (1, 8)] {
            let mut w = SessionWorkload::new(0, WorkloadParams::default(), ops);
            let mut total = 0u64;
            loop {
                let turn = w.next_turn(batch);
                if turn.is_empty() {
                    break;
                }
                assert!(turn.len() as u64 <= batch, "turn exceeds batch");
                // A Create followed by AddRoot/Overwrite-link is a
                // composite; both halves must be in this turn. Verify no
                // turn *starts* with the second half of a composite:
                // every Overwrite { target: Some(c) } and AddRoot names
                // an object created in this or an earlier turn — and a
                // linking op's child is created in the same turn.
                for (i, op) in turn.iter().enumerate() {
                    if let SessionOp::Overwrite {
                        target: Some(c), ..
                    } = op
                    {
                        // The linked child must be this turn's preceding op.
                        assert!(
                            matches!(turn[i - 1], SessionOp::Create { .. }),
                            "link's create half fell outside the turn"
                        );
                        let _ = c;
                    }
                }
                total += turn.len() as u64;
                assert!(total <= ops, "budget overshoot: {total} > {ops}");
            }
            assert_eq!(total, ops, "budget must be spent exactly");
            assert_eq!(w.remaining(), 0);
        }
    }

    #[test]
    fn workload_stream_is_a_pure_function_of_its_seed() {
        let params = WorkloadParams::default();
        let mut a = SessionWorkload::new(2, params, 200);
        let mut b = SessionWorkload::new(2, params, 200);
        loop {
            let ta = a.next_turn(8);
            let tb = b.next_turn(8);
            assert_eq!(ta, tb);
            if ta.is_empty() {
                break;
            }
        }
        // Different sessions draw different streams.
        let mut c = SessionWorkload::new(3, params, 200);
        let t2 = SessionWorkload::new(2, params, 200).next_turn(8);
        assert_ne!(c.next_turn(8), t2);
    }

    #[test]
    fn collection_fault_is_typed_and_other_shards_drain() {
        // Shard 0's first collection panics. Sessions 0 and 2 (mapped to
        // shard 0) stop; session 1 (shard 1) must complete every
        // operation, and the failure must surface as a typed ServeError,
        // not a panic.
        let config = ServeConfig {
            gc_fault: Some(GcFault {
                shard: 0,
                after_collections: 0,
            }),
            ..tiny_serve(7)
        };
        let out = serve(config, |_| Box::new(FixedRatePolicy::new(20))).expect("serve survives");
        assert_eq!(out.failures.len(), 1, "exactly one shard failed");
        let failure = &out.failures[0];
        assert_eq!(failure.shard, 0);
        match &failure.kind {
            ServeErrorKind::Failed(notice) => {
                assert!(notice.contains("injected GC worker fault"), "{notice}");
                assert_eq!(Some(notice), out.shards[0].failed.as_ref());
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // Shard 1's only session (session 1) drained cleanly.
        assert_eq!(out.per_session_ops[1], 300);
        assert!(out.shards[1].failed.is_none());
        // And the failure is printable without touching the panic path.
        assert!(failure.to_string().contains("collection panicked"));
    }

    /// Drives one shard with `ops` of session 0's workload until the
    /// workload ends or the shard refuses a turn.
    fn drive(shard: &mut Shard, ops: u64) -> Result<(), ServeError> {
        let mut workload = SessionWorkload::new(0, WorkloadParams::default(), ops);
        let mut objects = SessionObjects::new();
        loop {
            let turn = workload.next_turn(8);
            if turn.is_empty() {
                return Ok(());
            }
            shard
                .apply(SessionId::new(0), |sess| {
                    apply_ops(sess, &mut objects, &turn)
                })?
                .expect("turn applies");
            shard.collect();
        }
    }

    #[test]
    fn shard_latches_a_collection_panic_and_refuses_later_turns() {
        let mut shard = Shard::new(
            0,
            &EngineConfig::tiny(),
            Box::new(FixedRatePolicy::new(20)),
            Some(GcFault {
                shard: 0,
                after_collections: 1,
            }),
        );
        // Rate 20 on 2000 ops comes due more than once, so the fault
        // fires at the second collection and a later turn is refused.
        let err = drive(&mut shard, 2_000).expect_err("the fault stops the shard");
        assert_eq!(shard.collection_count(), 1, "the first collection ran");
        let notice = shard.failure().expect("failure latched").to_owned();
        assert!(notice.starts_with("collection panicked: "), "{notice}");
        assert!(notice.contains("injected GC worker fault on shard 0"));
        assert!(matches!(&err.kind, ServeErrorKind::Failed(n) if *n == notice));
        // A stopped shard neither applies nor collects.
        let mut ran = false;
        assert!(shard.apply(SessionId::new(0), |_| ran = true).is_err());
        assert!(!ran);
        assert!(!shard.collect());
        // The outcome reports the notice byte-for-byte.
        assert_eq!(shard.into_outcome(Vec::new()).failed, Some(notice));
    }

    #[test]
    fn shard_latches_a_turn_panic() {
        let mut shard = Shard::new(
            1,
            &EngineConfig::tiny(),
            Box::new(FixedRatePolicy::new(20)),
            // A fault aimed at another shard never fires here.
            Some(GcFault {
                shard: 0,
                after_collections: 0,
            }),
        );
        drive(&mut shard, 500).expect("healthy shard serves");
        assert!(shard.collection_count() > 0);
        let err = shard
            .apply(SessionId::new(0), |_| panic!("boom"))
            .expect_err("a panicking turn is caught");
        assert_eq!(err.shard, 1);
        assert_eq!(shard.failure(), Some("turn panicked: boom"));
        assert_eq!(err.to_string(), "shard 1: turn panicked: boom");
    }

    #[test]
    fn unknown_ref_is_a_typed_turn_error() {
        let mut engine: StoreEngine = StoreEngine::new(
            EngineConfig::tiny(),
            Box::new(FixedRatePolicy::new(1_000_000)),
        );
        let mut objects = SessionObjects::new();
        let mut sess = engine.session(SessionId::new(0));
        let err = apply_ops(
            &mut sess,
            &mut objects,
            &[SessionOp::Access { obj: ObjRef(5) }],
        )
        .unwrap_err();
        assert_eq!(err.op_index, 0);
        assert!(matches!(
            err.kind,
            TurnErrorKind::UnknownRef { obj: 5, created: 0 }
        ));
        assert!(err.to_string().contains("unknown object ref 5"));
    }
}
