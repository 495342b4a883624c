#![warn(missing_docs)]

//! Crash-consistent persistence for wear-leveling metadata.
//!
//! Wear-leveling correctness hinges on metadata — gap pointers, round
//! counters, key schedules — that in a real PCM DIMM must survive power
//! failure, or every line written since the last durable point is lost to a
//! stale mapping. This crate adds that durability story to the whole scheme
//! zoo (Start-Gap, RBSG, Security Refresh, multi-way SR, Security RBSG):
//!
//! * [`MetadataState`] — checksummed full-state snapshots, implemented by
//!   every scheme next to its private fields;
//! * [`Record`]/[`parse_journal`] — a sequence-numbered write-ahead journal
//!   of remap steps with before-images and an explicit torn-tail crash
//!   model;
//! * [`Persistor`]/[`CrashPlan`] — the record → apply → commit protocol
//!   with deterministic power-failure injection at every protocol point;
//! * [`Journaled`] — the drop-in [`srbsg_pcm::WearLeveler`] wrapper, whose
//!   [`Journaled::recover`] truncates torn records, replays the journal
//!   onto the last snapshot, redoes an uncommitted trailing step from
//!   before-images, and re-derives the live mapping;
//! * [`Journaled::recover_rekeyed`] — recovery that re-randomizes key
//!   material so power cycling cannot freeze the mapping (the
//!   RTA-across-power-cycles defence);
//! * [`CheckpointPolicy`] — automatic journal compaction through a
//!   crash-safe dual-slot snapshot protocol (write the inactive slot, flip
//!   the active marker, truncate the journal), bounding how many steps any
//!   recovery replays — the recovery-time SLO. [`CrashMode`] covers the
//!   three checkpoint phases too, so a power cut *inside* a checkpoint
//!   provably falls back to the surviving slot plus the full journal.
//! * [`Media`]/[`FaultyMedia`] — a pluggable storage backend (in-memory,
//!   real directory, deterministic fault injector) with a typed
//!   [`MediaError`], so the layer above (the server's disk shelf, which
//!   scrubs and heals on load) can prove it survives short writes,
//!   transient EIO, persistent ENOSPC, lying fsyncs, failed renames, and
//!   at-rest bit rot.
//!
//! The crash-equivalence contract, verified by this crate's tests: for
//! every injected crash point, recovering and continuing a workload is
//! indistinguishable — on all acknowledged writes and on the mapping's
//! bijectivity — from never having crashed.

mod codec;
mod journal;
mod journaled;
mod media;
mod persistor;
mod state;

pub use codec::{crc64, Dec, Enc, PersistError};
pub use journal::{encode_record, parse_journal, LoggedOp, ParsedJournal, Record};
pub use journaled::{
    write_crashable, write_verified_crashable, CheckpointPolicy, Journaled, JournaledScheme,
    RecoveryReport, MAX_STEPS_PER_WRITE,
};
pub use media::{
    DirMedia, FaultKind, FaultPlan, FaultStats, FaultyMedia, Media, MediaError, MediaOp, MemMedia,
    SharedMedia,
};
pub use persistor::{
    decode_marker, encode_marker, CrashMode, CrashPlan, Persistor, Store, MARKER_MAGIC,
};
pub use state::{
    decode_line_data, decode_snapshot, encode_line_data, encode_snapshot, expect_tag, tags,
    MetadataState, SNAPSHOT_MAGIC,
};
