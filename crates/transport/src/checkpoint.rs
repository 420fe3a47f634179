//! Durable round state checkpointing.
//!
//! A [`CheckpointStore`] persists each server's serialized round state
//! (one snapshot per completed protocol [`Step`]) so a supervisor can
//! restore the latest consistent S1/S2 snapshot pair after a crash and
//! resume the round instead of restarting it. The store is deliberately
//! dumb: it moves opaque, already-wire-encoded payloads and knows nothing
//! about their contents.
//!
//! Two implementations ship here:
//!
//! * [`MemoryCheckpointStore`] — a mutex-guarded map, for tests and for
//!   supervisors that only need crash recovery within one process;
//! * [`FileCheckpointStore`] — an append-only journal file with
//!   checksummed records. Appends are atomic at record granularity: a
//!   crash mid-append leaves a torn trailing record, which replay detects
//!   and discards, so every record that was fully flushed survives a
//!   process restart.
//!
//! Checkpoints hold live protocol secrets (aggregated shares, permuted
//! sequences), so callers must [`CheckpointStore::clear_round`] as soon
//! as a round completes — see DESIGN.md §"Recovery model" for what is
//! deliberately never checkpointed in the first place.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::journal::{AppendJournal, TOMBSTONE};
use crate::metrics::Step;
use crate::network::PartyId;

/// Errors surfaced by a [`CheckpointStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// An underlying I/O operation failed.
    Io(String),
    /// The journal contained a structurally impossible record (not a torn
    /// tail, which is tolerated silently).
    CorruptJournal(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::CorruptJournal(what) => {
                write!(f, "corrupt checkpoint journal: {what}")
            }
        }
    }
}

impl Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// One stored snapshot: the step it completed and the wire-encoded state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The protocol step the snapshot was taken *after*.
    pub step: Step,
    /// The wire-encoded round state.
    pub payload: Vec<u8>,
}

/// A pluggable sink for per-(round, party, step) state snapshots.
pub trait CheckpointStore: Send + Sync {
    /// Persists `payload` as `party`'s snapshot after `step` of `round`,
    /// replacing any previous snapshot at the same coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] if the snapshot cannot be persisted.
    fn save(
        &self,
        round: u64,
        party: PartyId,
        step: Step,
        payload: &[u8],
    ) -> Result<(), CheckpointError>;

    /// The snapshot with the highest step recorded for `(round, party)`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] if the store cannot be read.
    fn load_latest(
        &self,
        round: u64,
        party: PartyId,
    ) -> Result<Option<Checkpoint>, CheckpointError>;

    /// The snapshot recorded for `(round, party)` at exactly `step`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] if the store cannot be read.
    fn load_at(
        &self,
        round: u64,
        party: PartyId,
        step: Step,
    ) -> Result<Option<Checkpoint>, CheckpointError>;

    /// Discards every snapshot of `round` (all parties), so round secrets
    /// do not outlive the round.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] if the discard cannot be persisted.
    fn clear_round(&self, round: u64) -> Result<(), CheckpointError>;
}

/// Stable numeric key for a party in store indexes and journal records.
fn party_key(p: PartyId) -> u64 {
    match p {
        PartyId::Server1 => 1,
        PartyId::Server2 => 2,
        PartyId::User(u) => 3 + u as u64,
    }
}

type RoundIndex = BTreeMap<(u64, u64), BTreeMap<u8, Vec<u8>>>;

fn index_latest(index: &RoundIndex, round: u64, party: PartyId) -> Option<Checkpoint> {
    index.get(&(round, party_key(party))).and_then(|steps| {
        steps.last_key_value().map(|(&ord, payload)| Checkpoint {
            step: Step::from_ordinal(ord).expect("index holds valid ordinals"),
            payload: payload.clone(),
        })
    })
}

fn index_at(index: &RoundIndex, round: u64, party: PartyId, step: Step) -> Option<Checkpoint> {
    index
        .get(&(round, party_key(party)))
        .and_then(|steps| steps.get(&step.ordinal()))
        .map(|payload| Checkpoint { step, payload: payload.clone() })
}

fn index_clear_round(index: &mut RoundIndex, round: u64) {
    index.retain(|&(r, _), _| r != round);
}

/// In-memory [`CheckpointStore`] — crash recovery within one process.
#[derive(Debug, Default)]
pub struct MemoryCheckpointStore {
    index: Mutex<RoundIndex>,
}

impl MemoryCheckpointStore {
    /// Creates an empty store.
    pub fn new() -> MemoryCheckpointStore {
        MemoryCheckpointStore::default()
    }

    /// Number of snapshots currently held (all rounds and parties).
    pub fn len(&self) -> usize {
        self.index.lock().expect("checkpoint lock").values().map(BTreeMap::len).sum()
    }

    /// True if no snapshot is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(
        &self,
        round: u64,
        party: PartyId,
        step: Step,
        payload: &[u8],
    ) -> Result<(), CheckpointError> {
        let mut index = self.index.lock().expect("checkpoint lock");
        index
            .entry((round, party_key(party)))
            .or_default()
            .insert(step.ordinal(), payload.to_vec());
        Ok(())
    }

    fn load_latest(
        &self,
        round: u64,
        party: PartyId,
    ) -> Result<Option<Checkpoint>, CheckpointError> {
        Ok(index_latest(&self.index.lock().expect("checkpoint lock"), round, party))
    }

    fn load_at(
        &self,
        round: u64,
        party: PartyId,
        step: Step,
    ) -> Result<Option<Checkpoint>, CheckpointError> {
        Ok(index_at(&self.index.lock().expect("checkpoint lock"), round, party, step))
    }

    fn clear_round(&self, round: u64) -> Result<(), CheckpointError> {
        index_clear_round(&mut self.index.lock().expect("checkpoint lock"), round);
        Ok(())
    }
}

struct FileStoreInner {
    journal: AppendJournal,
    index: RoundIndex,
}

/// File-backed [`CheckpointStore`]: an append-only, checksummed journal
/// that survives process restarts. The framing and crash discipline live
/// in [`crate::journal`]; this type layers the snapshot index and
/// tombstone semantics on top.
///
/// Every [`CheckpointStore::save`] and [`CheckpointStore::clear_round`]
/// appends one *fsynced* record (a `kill -9` immediately after a save
/// cannot lose it); [`FileCheckpointStore::open`] replays the journal to
/// rebuild the in-memory index, discarding a torn trailing record if the
/// previous process died mid-append.
pub struct FileCheckpointStore {
    path: PathBuf,
    inner: Mutex<FileStoreInner>,
}

impl fmt::Debug for FileCheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FileCheckpointStore({})", self.path.display())
    }
}

impl FileCheckpointStore {
    /// Opens (or creates) the journal at `dir/journal.ckpt`, creating the
    /// directory first and replaying any existing records. A torn
    /// trailing record — the signature of a crash mid-append — is
    /// truncated away; fully-persisted records all survive.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the directory or journal cannot
    /// be created or read, and [`CheckpointError::CorruptJournal`] if a
    /// fully-checksummed record carries an impossible step ordinal.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileCheckpointStore, CheckpointError> {
        let (journal, records) = AppendJournal::open(dir, "journal.ckpt")?;
        let mut index = RoundIndex::new();
        for rec in records {
            if rec.step == TOMBSTONE {
                index_clear_round(&mut index, rec.round);
            } else if Step::from_ordinal(rec.step).is_some() {
                index.entry((rec.round, rec.party)).or_default().insert(rec.step, rec.payload);
            } else {
                return Err(CheckpointError::CorruptJournal("unknown step ordinal"));
            }
        }
        let path = journal.path().to_path_buf();
        Ok(FileCheckpointStore { path, inner: Mutex::new(FileStoreInner { journal, index }) })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn save(
        &self,
        round: u64,
        party: PartyId,
        step: Step,
        payload: &[u8],
    ) -> Result<(), CheckpointError> {
        let mut inner = self.inner.lock().expect("checkpoint lock");
        inner.journal.append(round, party_key(party), step.ordinal(), payload)?;
        inner
            .index
            .entry((round, party_key(party)))
            .or_default()
            .insert(step.ordinal(), payload.to_vec());
        Ok(())
    }

    fn load_latest(
        &self,
        round: u64,
        party: PartyId,
    ) -> Result<Option<Checkpoint>, CheckpointError> {
        Ok(index_latest(&self.inner.lock().expect("checkpoint lock").index, round, party))
    }

    fn load_at(
        &self,
        round: u64,
        party: PartyId,
        step: Step,
    ) -> Result<Option<Checkpoint>, CheckpointError> {
        Ok(index_at(&self.inner.lock().expect("checkpoint lock").index, round, party, step))
    }

    fn clear_round(&self, round: u64) -> Result<(), CheckpointError> {
        let mut inner = self.inner.lock().expect("checkpoint lock");
        inner.journal.append(round, 0, TOMBSTONE, &[])?;
        index_clear_round(&mut inner.index, round);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::encode_record;
    use std::fs::{self, OpenOptions};
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A unique per-test scratch directory under the system tempdir,
    /// removed on drop so CI leaves no artifacts.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("ckpt-test-{}-{tag}-{n}", std::process::id()));
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn store_roundtrip(store: &dyn CheckpointStore) {
        store.save(7, PartyId::Server1, Step::SecureSumVotes, b"s1@2").unwrap();
        store.save(7, PartyId::Server1, Step::BlindPermute1, b"s1@3").unwrap();
        store.save(7, PartyId::Server2, Step::SecureSumVotes, b"s2@2").unwrap();
        store.save(8, PartyId::Server1, Step::SecureSumVotes, b"other-round").unwrap();

        let latest = store.load_latest(7, PartyId::Server1).unwrap().unwrap();
        assert_eq!(latest.step, Step::BlindPermute1);
        assert_eq!(latest.payload, b"s1@3");
        let at = store.load_at(7, PartyId::Server1, Step::SecureSumVotes).unwrap().unwrap();
        assert_eq!(at.payload, b"s1@2");
        assert_eq!(store.load_at(7, PartyId::Server1, Step::Restoration).unwrap(), None);
        assert_eq!(store.load_latest(7, PartyId::User(0)).unwrap(), None);

        // Re-saving the same coordinates replaces the payload.
        store.save(7, PartyId::Server2, Step::SecureSumVotes, b"s2@2-v2").unwrap();
        let replaced = store.load_latest(7, PartyId::Server2).unwrap().unwrap();
        assert_eq!(replaced.payload, b"s2@2-v2");

        store.clear_round(7).unwrap();
        assert_eq!(store.load_latest(7, PartyId::Server1).unwrap(), None);
        assert_eq!(store.load_latest(7, PartyId::Server2).unwrap(), None);
        // Other rounds are untouched.
        assert!(store.load_latest(8, PartyId::Server1).unwrap().is_some());
    }

    #[test]
    fn memory_store_roundtrip() {
        let store = MemoryCheckpointStore::new();
        assert!(store.is_empty());
        store_roundtrip(&store);
        assert_eq!(store.len(), 1); // round 8's lone snapshot remains
    }

    #[test]
    fn file_store_roundtrip() {
        let tmp = TempDir::new("roundtrip");
        let store = FileCheckpointStore::open(&tmp.0).unwrap();
        store_roundtrip(&store);
    }

    #[test]
    fn file_store_survives_reopen() {
        let tmp = TempDir::new("reopen");
        {
            let store = FileCheckpointStore::open(&tmp.0).unwrap();
            store.save(1, PartyId::Server1, Step::CompareRank, b"alpha").unwrap();
            store.save(1, PartyId::Server2, Step::BlindPermute1, b"beta").unwrap();
            store.save(2, PartyId::Server1, Step::Setup, b"gamma").unwrap();
            store.clear_round(2).unwrap();
        }
        let store = FileCheckpointStore::open(&tmp.0).unwrap();
        let s1 = store.load_latest(1, PartyId::Server1).unwrap().unwrap();
        assert_eq!((s1.step, s1.payload.as_slice()), (Step::CompareRank, b"alpha".as_slice()));
        let s2 = store.load_latest(1, PartyId::Server2).unwrap().unwrap();
        assert_eq!(s2.payload, b"beta");
        // Tombstones replay too: round 2 stays cleared across reopen.
        assert_eq!(store.load_latest(2, PartyId::Server1).unwrap(), None);
    }

    #[test]
    fn torn_tail_is_discarded_and_journal_stays_appendable() {
        let tmp = TempDir::new("torn");
        {
            let store = FileCheckpointStore::open(&tmp.0).unwrap();
            store.save(3, PartyId::Server1, Step::SecureSumVotes, b"whole").unwrap();
        }
        let path = tmp.0.join("journal.ckpt");
        // Simulate a crash mid-append: half a record at the tail.
        let half = encode_record(3, 1, Step::BlindPermute1.ordinal(), b"torn-away");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&half[..half.len() / 2]).unwrap();
        drop(f);

        let store = FileCheckpointStore::open(&tmp.0).unwrap();
        let latest = store.load_latest(3, PartyId::Server1).unwrap().unwrap();
        assert_eq!(
            (latest.step, latest.payload.as_slice()),
            (Step::SecureSumVotes, b"whole".as_slice())
        );
        // New appends after recovery land on the valid prefix and replay.
        store.save(3, PartyId::Server1, Step::CompareRank, b"after").unwrap();
        drop(store);
        let store = FileCheckpointStore::open(&tmp.0).unwrap();
        assert_eq!(
            store.load_latest(3, PartyId::Server1).unwrap().unwrap().step,
            Step::CompareRank
        );
    }

    #[test]
    fn corrupted_record_body_truncates_from_there() {
        let tmp = TempDir::new("bitrot");
        {
            let store = FileCheckpointStore::open(&tmp.0).unwrap();
            store.save(4, PartyId::Server1, Step::SecureSumVotes, b"keep").unwrap();
            store.save(4, PartyId::Server1, Step::BlindPermute1, b"rot").unwrap();
        }
        let path = tmp.0.join("journal.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40; // flip a bit inside the second record
        fs::write(&path, &bytes).unwrap();

        let store = FileCheckpointStore::open(&tmp.0).unwrap();
        let latest = store.load_latest(4, PartyId::Server1).unwrap().unwrap();
        assert_eq!(
            (latest.step, latest.payload.as_slice()),
            (Step::SecureSumVotes, b"keep".as_slice())
        );
    }

    /// Durability regression: `save` must fsync, so a process killed the
    /// instant after a save returns (simulated here by never running the
    /// store's teardown) cannot lose the record — even when the kill
    /// leaves a torn half-record behind it.
    #[test]
    fn synced_append_survives_simulated_kill_with_torn_tail() {
        let tmp = TempDir::new("fsync");
        let store = FileCheckpointStore::open(&tmp.0).unwrap();
        store.save(9, PartyId::Server1, Step::SecureSumVotes, b"charged").unwrap();
        // The record must already be fully on disk, not sitting in a
        // userspace buffer waiting for a flush that a kill -9 skips.
        let bytes = fs::read(tmp.0.join("journal.ckpt")).unwrap();
        let (rec, _) = crate::journal::decode_record(&bytes, 0).expect("record fully persisted");
        assert_eq!(rec.payload, b"charged");
        // A torn half-record written after the kill point must not take
        // the synced record with it on replay.
        let half = encode_record(9, 1, Step::BlindPermute1.ordinal(), b"lost");
        let mut f = OpenOptions::new().append(true).open(tmp.0.join("journal.ckpt")).unwrap();
        f.write_all(&half[..half.len() / 3]).unwrap();
        drop(f);
        std::mem::forget(store); // the "killed" process never runs Drop
        let store = FileCheckpointStore::open(&tmp.0).unwrap();
        let latest = store.load_latest(9, PartyId::Server1).unwrap().unwrap();
        assert_eq!(latest.payload, b"charged");
    }

    #[test]
    fn stores_are_sharable_trait_objects() {
        let stores: Vec<Arc<dyn CheckpointStore>> = vec![Arc::new(MemoryCheckpointStore::new())];
        for store in stores {
            store.save(0, PartyId::Server1, Step::Setup, b"x").unwrap();
            assert!(store.load_latest(0, PartyId::Server1).unwrap().is_some());
        }
    }
}
