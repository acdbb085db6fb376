//! On-disk binary trace corpus: compact tracefile format, zero-copy
//! batched reading, and a persistent cross-process trace cache.
//!
//! The text codec in `odbgc-trace` is the diffable, human-readable
//! interchange form; this crate is the *storage* form. A tracefile is a
//! versioned binary container designed for three properties the text
//! format cannot give:
//!
//! * **Compactness.** Events are varint/delta-encoded against the
//!   previously seen object id, so the dense, locality-heavy id streams
//!   produced by OO7 generation shrink to a fraction of their text size.
//! * **Block-at-a-time.** [`TraceWriter`] encodes events as they arrive,
//!   so writing never holds a whole trace in memory. [`open_batches`]
//!   maps a file (or reads it whole where mapping is unavailable) and a
//!   [`BatchReader`] decodes it one block at a time into a reused arena,
//!   so decoded events never take more than one block (~32 KiB of
//!   encoding) of heap, not O(trace).
//! * **Verifiability.** Every block is length-prefixed and CRC32-
//!   checksummed; truncation, bit flips, foreign files, and
//!   future-version files are all detected and reported as distinct
//!   typed [`DecodeError`]s, never panics.
//!
//! ## Wire format (version 1)
//!
//! ```text
//! file    := magic version flags block*
//! magic   := "OTBF"                     (4 bytes)
//! version := u16 LE                     (currently 1)
//! flags   := u16 LE                     (reserved, 0)
//! block   := kind:u8 len:u32-LE payload[len] crc:u32-LE
//! ```
//!
//! The CRC is IEEE CRC32 over the payload bytes. Block kinds: `1` — the
//! phase table (exactly one, always first: varint count, then
//! varint-length-prefixed UTF-8 names); `2` — an event block (varint
//! event count, then events); `3` — the end block (varint total event
//! count, exactly one, always last). A file whose byte stream ends
//! before the end block is *truncated*, even if it ends on a block
//! boundary.
//!
//! Within an event block, object ids are encoded as zigzag varints of
//! the wrapping difference from the previously encoded id; the delta
//! state resets at each block boundary so blocks decode independently.
//! See [`writer`] for the per-event layouts.
//!
//! Every tracefile this workspace writes goes through [`replace_file`]:
//! a temp file in the target's directory, `rename(2)`d into place, so a
//! tracefile is never truncated in place while a reader (or a mapping)
//! holds it. On top of the format, [`TraceCorpus`] is a directory of
//! tracefiles keyed by (workload, seed): a persistent, cross-process
//! second cache tier behind the in-memory per-plan trace cache.

#![warn(missing_docs)]

pub mod batch;
pub mod corpus;
pub mod crc32;
pub mod error;
pub mod mmap;
pub mod varint;
pub mod writer;

pub use batch::{BatchReader, SliceBlocks};
pub use corpus::{CorpusKey, CorpusStats, TraceCorpus};
pub use error::DecodeError;
pub use mmap::TraceData;
pub use writer::{write_trace, TraceWriter};

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use odbgc_trace::Trace;

/// The four magic bytes opening every tracefile.
pub const MAGIC: [u8; 4] = *b"OTBF";

/// The current (and only) format version this crate writes.
pub const FORMAT_VERSION: u16 = 1;

/// Block kind: the phase-name table (exactly one, first).
pub(crate) const BLOCK_PHASES: u8 = 1;
/// Block kind: a run of events.
pub(crate) const BLOCK_EVENTS: u8 = 2;
/// Block kind: the end marker carrying the total event count.
pub(crate) const BLOCK_END: u8 = 3;

/// Target payload size at which the writer seals an event block.
pub(crate) const BLOCK_TARGET_BYTES: usize = 32 * 1024;

/// Upper bound on a declared block length; a corrupted length field must
/// not provoke an absurd allocation.
pub(crate) const MAX_BLOCK_LEN: u32 = 16 * 1024 * 1024;

/// True when `prefix` starts with the tracefile magic — used to sniff
/// binary vs. text trace files.
pub fn is_binary(prefix: &[u8]) -> bool {
    prefix.len() >= MAGIC.len() && prefix[..MAGIC.len()] == MAGIC
}

/// Encodes a whole trace to an in-memory tracefile.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(trace.len() * 4 + 64);
    write_trace(&mut out, trace).expect("writing to a Vec cannot fail");
    out
}

/// Decodes an in-memory tracefile into a fully materialized trace.
///
/// This is the zero-copy path: blocks are CRC-verified and decoded
/// straight out of `bytes` with no intermediate payload copies.
pub fn decode(bytes: &[u8]) -> Result<Trace, DecodeError> {
    BatchReader::new(SliceBlocks::new(bytes)?)?.read_to_trace()
}

/// A batched reader over a whole-file backing ([`TraceData`]: mmap when
/// possible, owned bytes otherwise).
pub type FileBatches = BatchReader<TraceData>;

/// Opens a tracefile on disk for zero-copy batched reading, preferring
/// a read-only memory map and falling back to reading the whole file
/// into memory (see [`mmap`] for when).
pub fn open_batches(path: &Path) -> Result<FileBatches, DecodeError> {
    let data = TraceData::open(path)?;
    BatchReader::new(SliceBlocks::new(data)?)
}

/// Writes `path` without ever truncating it in place: `fill` writes a
/// fresh temp file in the same directory, which is synced and then
/// `rename(2)`d over `path`.
///
/// Readers that still hold the old file — an open handle or a mapping,
/// possibly of the very input being rewritten — keep seeing the old
/// bytes, and concurrent writers of the same path never expose a torn
/// file: the last rename wins. If `fill` or any I/O step fails, the
/// temp file is removed and `path` is left as it was.
pub fn replace_file<T, E: From<io::Error>>(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> Result<T, E>,
) -> Result<T, E> {
    static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(
        ".{name}.tmp-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let result: Result<T, E> = (|| {
        let mut out = BufWriter::new(File::create(&tmp)?);
        let value = fill(&mut out)?;
        let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
        // Closed before the rename: some platforms refuse to rename an
        // open file.
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(value)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use odbgc_trace::{ObjectId, SlotIdx, TraceBuilder};
    use std::io::Write;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.phase("GenDB");
        let a = b.create_unlinked(128, 3);
        let c = b.create(64, vec![Some(a), None]);
        b.root_add(a);
        b.access(c);
        b.slot_write(c, SlotIdx::new(1), Some(a));
        b.slot_clear(c, SlotIdx::new(0));
        b.phase("Reorg1");
        b.root_remove(a);
        b.finish()
    }

    #[test]
    fn round_trip() {
        let t = sample_trace();
        let bytes = encode(&t);
        assert!(is_binary(&bytes));
        assert_eq!(decode(&bytes).expect("decode"), t);
    }

    #[test]
    fn round_trip_empty() {
        let t = Trace::default();
        assert_eq!(decode(&encode(&t)).expect("decode"), t);
    }

    #[test]
    fn extreme_ids_round_trip() {
        // Wrapping deltas must survive ids at both ends of u64.
        let mut b = TraceBuilder::new();
        b.access(ObjectId::new(u64::MAX));
        b.access(ObjectId::new(0));
        b.access(ObjectId::new(u64::MAX / 2));
        b.slot_write(
            ObjectId::new(u64::MAX),
            SlotIdx::new(u32::MAX),
            Some(ObjectId::new(1)),
        );
        let t = b.finish();
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn replace_file_swaps_whole_files_and_keeps_the_old_one_on_failure() {
        let dir = std::env::temp_dir().join(format!("odbgc-replace-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.otb");
        std::fs::write(&path, b"old").unwrap();
        let kept = std::fs::File::open(&path).unwrap();

        replace_file(&path, |w| w.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        // A handle opened before the swap still reads the old bytes.
        let mut old = Vec::new();
        io::Read::read_to_end(&mut &kept, &mut old).unwrap();
        assert_eq!(old, b"old");

        let failed = replace_file(&path, |w| {
            w.write_all(b"partial")?;
            Err::<(), _>(io::Error::other("fill failed"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(entries, 1, "the failed fill's temp file is removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn text_is_not_binary() {
        assert!(!is_binary(b"odbgc-trace v1\n"));
        assert!(!is_binary(b""));
        assert!(!is_binary(b"OTB"));
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let t = sample_trace();
        let binary = encode(&t).len();
        let text = odbgc_trace::codec::encode(&t).len();
        assert!(
            binary < text,
            "binary {binary} B should beat text {text} B even on a toy trace"
        );
    }
}
