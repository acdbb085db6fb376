//! The mutator-facing operation API.
//!
//! A [`Session`] is a client's handle onto a [`StoreEngine`]: it issues
//! typed operations — create, access, overwrite, root add/remove — and
//! gets typed results back, including whatever collection the operation
//! triggered inline. Replay drives the same API through
//! [`Session::apply_event`], which is how the simulator stays one client
//! among many rather than a privileged code path.

use odbgc_store::{PartitionId, StoreError};
use odbgc_trace::{Event, ObjectId, SlotIdx};

use crate::engine::{EventReport, StoreEngine};
use crate::observer::EngineObserver;
use odbgc_store::CollectionApplied;

/// Identifier of one client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u32);

impl SessionId {
    /// Wraps a raw session id.
    pub const fn new(raw: u32) -> Self {
        SessionId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session {}", self.0)
    }
}

/// A failed session operation: which session, and the store's complaint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpError {
    /// The session whose operation failed.
    pub session: SessionId,
    /// The store's complaint.
    pub cause: StoreError,
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.session, self.cause)
    }
}

impl std::error::Error for OpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// Result of [`Session::create`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Created {
    /// The new object's id.
    pub id: ObjectId,
    /// The partition the object was placed in.
    pub partition: PartitionId,
    /// Inline collection the operation triggered, if any.
    pub collected: Option<CollectionApplied>,
}

/// Result of [`Session::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accessed {
    /// The object read.
    pub id: ObjectId,
    /// Inline collection the operation triggered, if any.
    pub collected: Option<CollectionApplied>,
}

/// Result of [`Session::overwrite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overwrote {
    /// The object whose slot was written.
    pub src: ObjectId,
    /// The slot written.
    pub slot: SlotIdx,
    /// Did the write overwrite a non-null pointer (the paper's unit of
    /// collection-rate time)?
    pub counted_overwrite: bool,
    /// Bytes that became garbage as a direct consequence.
    pub garbage_created: u64,
    /// Inline collection the operation triggered, if any.
    pub collected: Option<CollectionApplied>,
}

/// Result of [`Session::add_root`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootAdded {
    /// The object pinned as a root.
    pub id: ObjectId,
    /// Inline collection the operation triggered, if any.
    pub collected: Option<CollectionApplied>,
}

/// Result of [`Session::remove_root`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootRemoved {
    /// The object unpinned.
    pub id: ObjectId,
    /// Bytes that became garbage as a direct consequence.
    pub garbage_created: u64,
    /// Inline collection the operation triggered, if any.
    pub collected: Option<CollectionApplied>,
}

/// A client's handle onto an engine.
///
/// Holds the engine mutably for its lifetime: one session operates at a
/// time per engine, which is exactly the serialization the serve mode's
/// per-shard locks provide.
pub struct Session<'e, P: odbgc_core::RatePolicy = Box<dyn odbgc_core::RatePolicy + Send>> {
    id: SessionId,
    engine: &'e mut StoreEngine<P>,
    observer: Option<&'e mut dyn EngineObserver>,
}

impl<'e, P: odbgc_core::RatePolicy> Session<'e, P> {
    pub(crate) fn new(
        id: SessionId,
        engine: &'e mut StoreEngine<P>,
        observer: Option<&'e mut dyn EngineObserver>,
    ) -> Self {
        Session {
            id,
            engine,
            observer,
        }
    }

    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Creates a fresh object of `size` bytes with `slots` null pointer
    /// slots. The id is allocated by the engine.
    pub fn create(&mut self, size: u32, slots: u32) -> Result<Created, OpError> {
        let id = self.engine.fresh_object_id();
        let ev = Event::Create {
            id,
            size,
            slots: vec![None; slots as usize].into_boxed_slice(),
        };
        let report = self.apply(&ev)?;
        let partition = self
            .engine
            .store()
            .partition_of(id)
            .map_err(|cause| self.err(cause))?;
        Ok(Created {
            id,
            partition,
            collected: report.collected,
        })
    }

    /// Reads an object (navigation), charging application I/O.
    pub fn access(&mut self, id: ObjectId) -> Result<Accessed, OpError> {
        let report = self.apply(&Event::Access { id })?;
        Ok(Accessed {
            id,
            collected: report.collected,
        })
    }

    /// Stores a pointer: `src.slots[slot] = new`. Overwriting a non-null
    /// pointer advances the overwrite clock and may create garbage.
    pub fn overwrite(
        &mut self,
        src: ObjectId,
        slot: SlotIdx,
        new: Option<ObjectId>,
    ) -> Result<Overwrote, OpError> {
        let report = self.apply(&Event::SlotWrite { src, slot, new })?;
        Ok(Overwrote {
            src,
            slot,
            counted_overwrite: report.outcome.overwrites > 0,
            garbage_created: report.outcome.garbage_created,
            collected: report.collected,
        })
    }

    /// Adds an object to the persistent root set.
    pub fn add_root(&mut self, id: ObjectId) -> Result<RootAdded, OpError> {
        let report = self.apply(&Event::RootAdd { id })?;
        Ok(RootAdded {
            id,
            collected: report.collected,
        })
    }

    /// Removes an object from the persistent root set.
    pub fn remove_root(&mut self, id: ObjectId) -> Result<RootRemoved, OpError> {
        let report = self.apply(&Event::RootRemove { id })?;
        Ok(RootRemoved {
            id,
            garbage_created: report.outcome.garbage_created,
            collected: report.collected,
        })
    }

    /// Applies a raw trace event through this session — the replay
    /// entry point. Typed operations all funnel through here too.
    pub fn apply_event(&mut self, ev: &Event) -> Result<EventReport, OpError> {
        self.apply(ev)
    }

    fn apply(&mut self, ev: &Event) -> Result<EventReport, OpError> {
        let id = self.id;
        self.engine
            .apply_event(ev, self.observer.as_deref_mut())
            .map_err(|cause| OpError { session: id, cause })
    }

    fn err(&self, cause: StoreError) -> OpError {
        OpError {
            session: self.id,
            cause,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use odbgc_core::FixedRatePolicy;

    fn engine(rate: u64) -> StoreEngine {
        StoreEngine::new(EngineConfig::tiny(), Box::new(FixedRatePolicy::new(rate)))
    }

    #[test]
    fn typed_ops_round_trip() {
        let mut e = engine(1_000_000);
        let mut s = e.session(SessionId::new(3));
        let anchor = s.create(40, 2).expect("create");
        s.add_root(anchor.id).expect("root");
        let child = s.create(64, 0).expect("create");
        let w = s
            .overwrite(anchor.id, SlotIdx::new(0), Some(child.id))
            .expect("link");
        assert!(!w.counted_overwrite, "initial store of a null slot");
        assert_eq!(w.garbage_created, 0);
        let a = s.access(child.id).expect("access");
        assert_eq!(a.id, child.id);
        let w = s
            .overwrite(anchor.id, SlotIdx::new(0), None)
            .expect("clear");
        assert!(w.counted_overwrite);
        assert_eq!(w.garbage_created, 64, "child died");
        let r = s.remove_root(anchor.id).expect("unroot");
        assert_eq!(r.garbage_created, 40, "anchor died");
        let _ = s;
        assert_eq!(e.store().garbage_bytes(), 104);
        assert_eq!(e.events_applied(), 7);
    }

    #[test]
    fn op_errors_name_the_session() {
        let mut e = engine(1_000_000);
        let mut s = e.session(SessionId::new(9));
        let err = s.access(ObjectId::new(12345)).unwrap_err();
        assert_eq!(err.session, SessionId::new(9));
        assert!(err.to_string().contains("session 9"));
    }

    #[test]
    fn apply_batch_matches_per_event_loop() {
        // A workload long enough to cross an inline collection trigger,
        // so the batch path's amortized loop is exercised across a
        // collection boundary, not just plain applies.
        let mut events = Vec::new();
        let mut ids = Vec::new();
        for i in 0..40u32 {
            let id = ObjectId::new(u64::from(i) + 1);
            ids.push(id);
            events.push(Event::Create {
                id,
                size: 32 + i,
                slots: vec![None; 2].into_boxed_slice(),
            });
        }
        for &id in &ids[..8] {
            events.push(Event::RootAdd { id });
        }
        for (i, &id) in ids[..8].iter().enumerate() {
            events.push(Event::SlotWrite {
                src: id,
                slot: SlotIdx::new(0),
                new: Some(ids[8 + i]),
            });
        }
        for &id in &ids[..8] {
            events.push(Event::SlotWrite {
                src: id,
                slot: SlotIdx::new(0),
                new: None,
            });
        }
        events.push(Event::Access { id: ids[0] });
        events.push(Event::RootRemove { id: ids[0] });

        let mut by_event = engine(4);
        {
            let mut s = by_event.session(SessionId::new(1));
            for ev in &events {
                s.apply_event(ev).expect("per-event apply");
            }
        }
        let mut by_batch = engine(4);
        by_batch.apply_batch(&events, None).expect("batched apply");

        assert_eq!(by_event.counters(), by_batch.counters());
        assert_eq!(by_event.events_applied(), by_batch.events_applied());
        assert_eq!(by_event.collection_count(), by_batch.collection_count());
        assert_eq!(
            by_event.store().garbage_bytes(),
            by_batch.store().garbage_bytes()
        );
    }

    #[test]
    fn inline_mode_collects_from_live_counters() {
        let mut e = engine(1);
        let mut s = e.session(SessionId::new(0));
        let anchor = s.create(40, 1).expect("create");
        s.add_root(anchor.id).expect("root");
        let child = s.create(50, 0).expect("create");
        s.overwrite(anchor.id, SlotIdx::new(0), Some(child.id))
            .expect("link");
        // The clear is the first counted overwrite; with rate 1 the
        // trigger fires inside this very operation.
        let w = s
            .overwrite(anchor.id, SlotIdx::new(0), None)
            .expect("clear");
        let collected = w.collected.expect("inline collection ran");
        assert_eq!(collected.bytes_reclaimed, 50);
        let _ = s;
        assert_eq!(e.collection_count(), 1);
    }
}
