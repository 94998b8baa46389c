//! `gcco-store` — the workspace's persistence tier: a std-only,
//! disk-backed, content-addressed result store.
//!
//! The sweep engine's warm-context LRU dies with the process; this crate
//! is the tier underneath it. A [`Store`] is a directory holding one
//! **append-only journal** of `(key → value)` records, where the key is a
//! canonical content string (the `gcco-api` layer uses
//! `EvalRequest::cache_key`, the `ModelSpec::cache_key` canonicalization
//! extended to full requests) and the value is opaque bytes (the wire
//! encoding of the response, which round-trips bit-exactly).
//!
//! # Journal format
//!
//! ```text
//! magic   "gcco-store v1\n"                             (14 bytes)
//! record  key_len:u32le  val_len:u32le  checksum:u64le  (16-byte header)
//!         key bytes (UTF-8)  value bytes
//! ```
//!
//! `checksum` is [`fnv1a_64`] over the key bytes followed by the value
//! bytes. Records are framed purely by their lengths, so the journal needs
//! no escaping and appends are a single `write_all`.
//!
//! # Recovery contract
//!
//! [`Store::open`] scans the journal front to back. Every record whose
//! frame fits and whose checksum verifies is kept; at the **first** record
//! that is short or corrupt, the file is truncated right there and
//! everything from that offset on is dropped (the torn tail a crash or
//! kill mid-append can leave). Recovery therefore keeps an intact prefix
//! and never resurrects partial data — `tests/recovery.rs` asserts this
//! for a truncation at every byte offset of the final record.
//!
//! Duplicate keys are legal; the **last** record for a key wins (which is
//! what makes both re-appending and [`Store::compact`] safe).
//!
//! Recovery is not the only check: [`Store::get`] and [`Store::compact`]
//! read each record back whole and verify it against its checksum, so a
//! value that rots on disk after open fails with `InvalidData` instead of
//! being served, or re-checksummed into the compacted journal.
//!
//! # Durability
//!
//! The exact guarantee depends on the configured [`SyncPolicy`]:
//!
//! * [`SyncPolicy::Os`] (the default, and the only pre-v1.1 behavior) —
//!   every append hands its bytes to the operating system before
//!   returning (`write_all` on an unbuffered `File`; the subsequent
//!   `flush` is a no-op). This is **process-kill-safe**: a `kill -9`
//!   cannot lose an acknowledged append, because the bytes already left
//!   the process. It is **not power-loss-safe**: an OS crash or power cut
//!   can drop any appends still sitting in the page cache.
//! * [`SyncPolicy::Append`] — additionally `sync_data`s the journal after
//!   every append, so an acknowledged append survives power loss. This is
//!   the strongest (and slowest) policy: one fsync per append.
//! * [`SyncPolicy::Close`] — like [`SyncPolicy::Os`] per append, plus a
//!   best-effort `sync_data` when the store is dropped and after every
//!   [`Store::compact`]; the power-loss exposure window is bounded by the
//!   store's lifetime instead of being unbounded.
//!
//! Under every policy, [`Store::compact`] syncs the compacted file *and*
//! fsyncs the parent directory after the rename (on Unix), so a completed
//! compaction cannot be un-renamed by a power cut. Recovery makes all
//! three policies consistent after the fact: whatever prefix of the
//! journal reached the disk is kept, the torn remainder is dropped.
//!
//! # Fault injection
//!
//! A [`FaultInjector`] passed via [`StoreConfig::faults`] is consulted
//! before every open / get / append / compact and can fail the operation,
//! cut an append short (partial write + error), or tear it (partial write
//! reported as success — the lie a dying page cache tells). This is how
//! the chaos suite exercises recovery and the engine's degradation paths
//! *in-process* instead of only via `kill -9` in CI; the `gcco-faults`
//! crate provides deterministic seeded and scripted injectors. A store
//! without an injector pays one branch per operation.
//!
//! # Concurrency
//!
//! A `Store` is `Sync`: one internal mutex serializes index lookups,
//! reads, and appends, so any number of engine workers can share one
//! store behind an `Arc`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The journal's leading magic: names the crate and pins the format
/// version (bump the suffix on any incompatible layout change).
pub const MAGIC: &[u8] = b"gcco-store v1\n";

/// Journal file name inside the store directory.
pub const JOURNAL_NAME: &str = "journal.gccostore";

/// Per-record header bytes: `key_len:u32le`, `val_len:u32le`,
/// `checksum:u64le`.
const HEADER_LEN: usize = 16;

/// Sanity bound on key length (a canonical request key is ≲ 1 KiB).
const MAX_KEY_LEN: u32 = 1 << 20;

/// Sanity bound on value length (responses are line-JSON; 256 MiB is far
/// beyond any real payload and mostly guards recovery against garbage
/// lengths in a torn header).
const MAX_VAL_LEN: u32 = 1 << 28;

/// 64-bit FNV-1a over `bytes` — the journal's record checksum, also used
/// by tests to pin known-answer hashes of canonical keys.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues a 64-bit FNV-1a `hash` over `bytes`.
fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A record's checksum: FNV-1a over the key bytes, then the value bytes.
fn record_checksum(key: &[u8], value: &[u8]) -> u64 {
    fnv1a_extend(fnv1a_64(key), value)
}

/// The journal bytes of one `(key, value)` record: header, key, value.
fn encode_record(key: &str, value: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(HEADER_LEN + key.len() + value.len());
    record.extend_from_slice(&(key.len() as u32).to_le_bytes());
    record.extend_from_slice(&(value.len() as u32).to_le_bytes());
    record.extend_from_slice(&record_checksum(key.as_bytes(), value).to_le_bytes());
    record.extend_from_slice(key.as_bytes());
    record.extend_from_slice(value);
    record
}

/// When journal bytes are forced out of the page cache onto the disk.
/// See the crate-level *Durability* section for the exact guarantee each
/// policy buys.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Hand bytes to the OS per append, never fsync: process-kill-safe,
    /// not power-loss-safe. The default (and the historical behavior).
    #[default]
    Os,
    /// `sync_data` after every append: acknowledged appends survive power
    /// loss, at one fsync of latency each.
    Append,
    /// `sync_data` once when the store is dropped (best-effort) and after
    /// every compaction: bounds the power-loss window to the store's
    /// lifetime.
    Close,
}

/// Which store operation a [`FaultInjector`] is being consulted about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOp {
    /// [`Store::open_with`] (consulted once, before touching the journal).
    Open,
    /// A [`Store::get`] that found its key and is about to read the value.
    Get,
    /// A [`Store::append`] about to write its record.
    Append,
    /// A [`Store::compact`] about to rewrite the journal.
    Compact,
}

/// What an injected fault layer tells one store operation to do.
///
/// `ShortWrite` and `TornWrite` are meaningful only for
/// [`StoreOp::Append`]; for any other operation they act like
/// [`FaultAction::Fail`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: perform the operation normally.
    Proceed,
    /// Fail the operation with an injected `io::Error` before any bytes
    /// move.
    Fail,
    /// Write only the first `keep` bytes of the record, then fail the
    /// append — a partial write surfaced as an error (ENOSPC, a torn
    /// pipe). The store rolls the journal back to the pre-append length
    /// so in-process state stays consistent.
    ShortWrite {
        /// Bytes of the record that reach the journal (clamped to the
        /// record length).
        keep: usize,
    },
    /// Write only the first `keep` bytes of the record but **report
    /// success** — simulating a power cut after an acknowledged append:
    /// the in-process index believes the record exists (as a page cache
    /// would), while the on-disk tail is torn. A same-process `get` of
    /// the key fails with an I/O error; the next [`Store::open`] recovery
    /// scan drops the torn record.
    TornWrite {
        /// Bytes of the record that reach the journal (clamped to the
        /// record length).
        keep: usize,
    },
}

/// A deterministic fault schedule threaded through the store's I/O paths.
///
/// `seq` counts consultations **per operation kind** (the third `Append`
/// ever consulted has `seq == 2`), and `len` is the record length for
/// appends (0 otherwise), so an injector can target "the Nth append" or
/// "tear the header off". Implementations live in `gcco-faults`; the
/// trait lives here so the store needs no dependency on them.
pub trait FaultInjector: Send {
    /// Decides what the store operation identified by `(op, seq)` does.
    fn decide(&mut self, op: StoreOp, seq: u64, len: usize) -> FaultAction;
}

/// Tuning for [`Store::open_with`]: durability policy plus an optional
/// fault-injection layer. `Default` is a faultless [`SyncPolicy::Os`]
/// store — exactly what [`Store::open`] builds.
#[derive(Default)]
pub struct StoreConfig {
    /// When journal bytes are fsynced. See [`SyncPolicy`].
    pub sync: SyncPolicy,
    /// Deterministic fault schedule consulted on every open / get /
    /// append / compact; `None` injects nothing.
    pub faults: Option<Box<dyn FaultInjector>>,
}

impl StoreConfig {
    /// A faultless config with the given durability policy.
    #[must_use]
    pub fn with_sync(sync: SyncPolicy) -> StoreConfig {
        StoreConfig { sync, faults: None }
    }

    /// Installs a fault injector.
    #[must_use]
    pub fn with_faults(mut self, faults: Box<dyn FaultInjector>) -> StoreConfig {
        self.faults = Some(faults);
        self
    }
}

/// The `io::Error` every injected fault surfaces as, tagged so tests and
/// operators can tell an injected failure from a real one.
fn injected_error(op: StoreOp, seq: u64) -> io::Error {
    io::Error::other(format!("injected fault: {op:?} #{seq}"))
}

/// What [`Store::open`] found (and repaired) in the journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact records recovered from the journal (including superseded
    /// duplicates).
    pub intact_records: u64,
    /// Bytes of torn tail truncated away (0 for a clean journal).
    pub torn_bytes: u64,
}

/// Where a live value sits in the journal.
#[derive(Clone, Copy, Debug)]
struct ValueLoc {
    /// Byte offset of the value (past header and key).
    offset: u64,
    /// Value length in bytes.
    len: u32,
}

struct Inner {
    /// Open read/append handle on the journal.
    file: File,
    /// Live index: key → location of its latest value.
    index: HashMap<String, ValueLoc>,
    /// Total intact records ever appended to the current journal file
    /// (superseded duplicates included).
    records: u64,
    /// Current journal length in bytes (the append offset).
    tail: u64,
    /// Injected fault schedule (None for a production store).
    faults: Option<Box<dyn FaultInjector>>,
    /// Per-operation consultation counters for the injector:
    /// `[get, append, compact]`.
    fault_seq: [u64; 3],
}

impl Inner {
    /// Consults the fault injector (if any) for one operation.
    fn fault(&mut self, op: StoreOp, len: usize) -> (FaultAction, u64) {
        let Some(injector) = self.faults.as_mut() else {
            return (FaultAction::Proceed, 0);
        };
        let slot = match op {
            StoreOp::Get => 0,
            StoreOp::Append => 1,
            StoreOp::Compact => 2,
            StoreOp::Open => unreachable!("open faults are decided before Inner exists"),
        };
        let seq = self.fault_seq[slot];
        self.fault_seq[slot] += 1;
        (injector.decide(op, seq, len), seq)
    }

    /// Reads `key`'s live record at `loc` back from the journal and
    /// returns its value, after checking that the bytes on disk are still
    /// exactly the record that was appended — header, key, value and
    /// checksum. Leaves the file position anywhere.
    ///
    /// # Errors
    ///
    /// Any I/O failure, plus `InvalidData` when the record has rotted
    /// since it was written (or recovered).
    fn read_value(&mut self, key: &str, loc: ValueLoc) -> io::Result<Vec<u8>> {
        let value_at = HEADER_LEN + key.len();
        let mut record = vec![0u8; value_at + loc.len as usize];
        self.file
            .seek(SeekFrom::Start(loc.offset - value_at as u64))?;
        self.file.read_exact(&mut record)?;
        let value = record[value_at..].to_vec();
        if record != encode_record(key, &value) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("the journal record for key {key:?} fails its checksum"),
            ));
        }
        Ok(value)
    }
}

/// A persistent content-addressed key/value store backed by one
/// append-only journal file. See the crate docs for format and recovery
/// semantics.
///
/// # Examples
///
/// ```
/// let dir = std::env::temp_dir().join(format!("gcco-store-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let store = gcco_store::Store::open(&dir).unwrap();
/// store.append("key-a", b"{\"value\":1.0}").unwrap();
/// assert_eq!(store.get("key-a").unwrap().as_deref(), Some(&b"{\"value\":1.0}"[..]));
///
/// // A reopened store serves the same bytes from disk.
/// drop(store);
/// let store = gcco_store::Store::open(&dir).unwrap();
/// assert_eq!(store.get("key-a").unwrap().as_deref(), Some(&b"{\"value\":1.0}"[..]));
/// assert_eq!(store.recovery().intact_records, 1);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct Store {
    inner: Mutex<Inner>,
    journal_path: PathBuf,
    recovery: RecoveryReport,
    sync: SyncPolicy,
}

impl Store {
    /// Opens (creating if needed) the store at directory `dir`, running
    /// crash recovery on its journal: intact records are indexed, a torn
    /// tail is truncated away. Equivalent to [`Store::open_with`] under
    /// [`StoreConfig::default`] (no fsync per append, no faults).
    ///
    /// # Errors
    ///
    /// Any I/O failure, plus `InvalidData` when the file exists but does
    /// not begin with the [`MAGIC`] of a version-1 journal (foreign files
    /// are refused rather than clobbered).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        Store::open_with(dir, StoreConfig::default())
    }

    /// [`Store::open`] with an explicit durability policy and (for the
    /// chaos suite) an injected fault schedule.
    ///
    /// # Errors
    ///
    /// As [`Store::open`], plus whatever the fault injector decides.
    pub fn open_with(dir: impl AsRef<Path>, mut config: StoreConfig) -> io::Result<Store> {
        if let Some(injector) = config.faults.as_mut() {
            if injector.decide(StoreOp::Open, 0, 0) != FaultAction::Proceed {
                return Err(injected_error(StoreOp::Open, 0));
            }
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let journal_path = dir.join(JOURNAL_NAME);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&journal_path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.is_empty() {
            file.write_all(MAGIC)?;
            file.flush()?;
        } else if bytes.len() < MAGIC.len() {
            // Torn before the magic finished: only a fresh journal can be
            // this short, so rewriting the magic loses nothing.
            if !MAGIC.starts_with(&bytes[..]) {
                return Err(foreign_file_error(&journal_path));
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.flush()?;
            bytes.clear();
        } else if &bytes[..MAGIC.len()] != MAGIC {
            return Err(foreign_file_error(&journal_path));
        }

        // Scan records; stop (and truncate) at the first torn/corrupt one.
        let mut index = HashMap::new();
        let mut records = 0u64;
        let mut good = MAGIC.len().min(bytes.len());
        while let Some((key, loc, next)) = read_record(&bytes, good) {
            index.insert(key, loc);
            records += 1;
            good = next;
        }
        let torn = (bytes.len() - good) as u64;
        if torn > 0 {
            file.set_len(good as u64)?;
        }
        let tail = good.max(MAGIC.len()) as u64;
        file.seek(SeekFrom::Start(tail))?;
        if config.sync == SyncPolicy::Append {
            // A power cut must not lose the journal file itself: persist
            // the directory entry up front, so every later `sync_data`
            // has a durable file to land in.
            file.sync_all()?;
            sync_dir(dir)?;
        }
        Ok(Store {
            inner: Mutex::new(Inner {
                file,
                index,
                records,
                tail,
                faults: config.faults,
                fault_seq: [0; 3],
            }),
            journal_path,
            recovery: RecoveryReport {
                intact_records: records,
                torn_bytes: torn,
            },
            sync: config.sync,
        })
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Path of the journal file.
    pub fn journal_path(&self) -> &Path {
        &self.journal_path
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Whether the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total intact records in the current journal, superseded duplicates
    /// included (`records() - len()` is the compactable overhead).
    pub fn records(&self) -> u64 {
        self.lock().records
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.lock().index.contains_key(key)
    }

    /// The latest value stored under `key`, read back from the journal
    /// and verified against its record checksum.
    ///
    /// # Errors
    ///
    /// Any I/O failure reading the journal, plus `InvalidData` when the
    /// record's bytes on disk no longer match its checksum.
    pub fn get(&self, key: &str) -> io::Result<Option<Vec<u8>>> {
        let mut inner = self.lock();
        let Some(loc) = inner.index.get(key).copied() else {
            return Ok(None);
        };
        if let (
            FaultAction::Fail | FaultAction::ShortWrite { .. } | FaultAction::TornWrite { .. },
            seq,
        ) = inner.fault(StoreOp::Get, loc.len as usize)
        {
            return Err(injected_error(StoreOp::Get, seq));
        }
        let value = inner.read_value(key, loc)?;
        let tail = inner.tail;
        inner.file.seek(SeekFrom::Start(tail))?;
        Ok(Some(value))
    }

    /// Appends one `(key, value)` record; the key's previous value (if
    /// any) is superseded. The record is written with a single `write_all`
    /// (plus an fsync when [`SyncPolicy::Append`] asks for one), so a
    /// killed process can tear at most the final record — which recovery
    /// then drops. On a partial write the journal is rolled back to its
    /// pre-append length, so in-process state never diverges from disk;
    /// if even the rollback fails, the torn tail is left for the next
    /// open's recovery scan to drop.
    ///
    /// # Errors
    ///
    /// Any I/O failure, plus `InvalidInput` when key or value exceed the
    /// format's length bounds.
    pub fn append(&self, key: &str, value: &[u8]) -> io::Result<()> {
        if key.len() as u64 > u64::from(MAX_KEY_LEN) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("key of {} bytes exceeds the format bound", key.len()),
            ));
        }
        if value.len() as u64 > u64::from(MAX_VAL_LEN) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("value of {} bytes exceeds the format bound", value.len()),
            ));
        }
        let record = encode_record(key, value);
        let mut inner = self.lock();
        let tail = inner.tail;
        let (action, seq) = inner.fault(StoreOp::Append, record.len());
        let (written, report_ok) = match action {
            FaultAction::Proceed => (record.len(), true),
            FaultAction::Fail => return Err(injected_error(StoreOp::Append, seq)),
            FaultAction::ShortWrite { keep } => (keep.min(record.len()), false),
            FaultAction::TornWrite { keep } => (keep.min(record.len()), true),
        };
        inner.file.seek(SeekFrom::Start(tail))?;
        inner.file.write_all(&record[..written])?;
        if self.sync == SyncPolicy::Append {
            inner.file.sync_data()?;
        }
        if !report_ok {
            // A partial write surfaced as an error: roll the journal back
            // to the pre-append length so disk matches the (unchanged)
            // in-memory state. A failed rollback leaves a torn tail that
            // the next open's recovery drops — either way no index entry
            // points at the partial record.
            let _ = inner.file.set_len(tail);
            let _ = inner.file.seek(SeekFrom::Start(tail));
            return Err(injected_error(StoreOp::Append, seq));
        }
        let value_offset = inner.tail + (HEADER_LEN + key.len()) as u64;
        inner.tail += record.len() as u64;
        inner.records += 1;
        inner.index.insert(
            key.to_string(),
            ValueLoc {
                offset: value_offset,
                len: value.len() as u32,
            },
        );
        Ok(())
    }

    /// Rewrites the journal keeping only the latest record per key (in
    /// stable journal order), atomically: the compacted file is written
    /// beside the journal, synced, renamed over it, and the parent
    /// directory is fsynced (on Unix) so the rename itself survives a
    /// power cut. Every live record is verified against its checksum
    /// on the way, so compaction never launders a rotted value into a
    /// freshly checksummed record. Returns the bytes reclaimed.
    ///
    /// # Errors
    ///
    /// Any I/O failure, plus `InvalidData` when a live record no longer
    /// matches its checksum; on error the original journal is untouched.
    pub fn compact(&self) -> io::Result<u64> {
        let mut inner = self.lock();
        if let (
            FaultAction::Fail | FaultAction::ShortWrite { .. } | FaultAction::TornWrite { .. },
            seq,
        ) = inner.fault(StoreOp::Compact, 0)
        {
            return Err(injected_error(StoreOp::Compact, seq));
        }
        let before = inner.tail;

        // Live records in journal order, so compaction is deterministic.
        let mut live: Vec<(String, ValueLoc)> =
            inner.index.iter().map(|(k, v)| (k.clone(), *v)).collect();
        live.sort_by_key(|(_, loc)| loc.offset);

        let tmp_path = self.journal_path.with_extension("compacting");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(MAGIC)?;
        let mut new_index = HashMap::with_capacity(live.len());
        let mut tail = MAGIC.len() as u64;
        for (key, loc) in &live {
            let record = encode_record(key, &inner.read_value(key, *loc)?);
            tmp.write_all(&record)?;
            new_index.insert(
                key.clone(),
                ValueLoc {
                    offset: tail + (HEADER_LEN + key.len()) as u64,
                    len: loc.len,
                },
            );
            tail += record.len() as u64;
        }
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.journal_path)?;
        if let Some(parent) = self.journal_path.parent() {
            // The rename is only durable once the directory entry is: an
            // un-fsynced rename can roll back to the tmp name on power
            // loss, which recovery would refuse as a missing journal.
            sync_dir(parent)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.journal_path)?;
        file.seek(SeekFrom::Start(tail))?;
        inner.file = file;
        inner.records = new_index.len() as u64;
        inner.index = new_index;
        inner.tail = tail;
        Ok(before.saturating_sub(tail))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("store lock poisoned")
    }
}

impl Drop for Store {
    /// [`SyncPolicy::Close`] promises a sync at end of life; it is
    /// best-effort (Drop cannot report failure), which is why the policy's
    /// documented guarantee is a bounded loss window, not zero loss.
    fn drop(&mut self) {
        if self.sync == SyncPolicy::Close {
            if let Ok(inner) = self.inner.get_mut() {
                let _ = inner.file.sync_data();
            }
        }
    }
}

/// Fsyncs a directory so a rename/create inside it is durable. On
/// non-Unix platforms directories cannot be opened for syncing; the call
/// is a documented no-op there (the rename is still atomic, just not
/// power-cut-durable).
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

fn foreign_file_error(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{} exists but is not a gcco-store v1 journal (refusing to clobber it)",
            path.display()
        ),
    )
}

/// Tries to read one intact record at byte offset `at` of `bytes`.
/// Returns `(key, value location, next offset)`, or `None` when the
/// record is short, over-long, non-UTF-8-keyed, or checksum-corrupt —
/// i.e. where recovery must truncate.
fn read_record(bytes: &[u8], at: usize) -> Option<(String, ValueLoc, usize)> {
    let header = bytes.get(at..at + HEADER_LEN)?;
    let key_len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let val_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let checksum = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    if key_len > MAX_KEY_LEN || val_len > MAX_VAL_LEN {
        return None;
    }
    let key_start = at + HEADER_LEN;
    let val_start = key_start + key_len as usize;
    let end = val_start + val_len as usize;
    let key_bytes = bytes.get(key_start..val_start)?;
    let val_bytes = bytes.get(val_start..end)?;
    if record_checksum(key_bytes, val_bytes) != checksum {
        return None;
    }
    let key = String::from_utf8(key_bytes.to_vec()).ok()?;
    Some((
        key,
        ValueLoc {
            offset: val_start as u64,
            len: val_len,
        },
        end,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gcco-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn round_trip_and_reopen() {
        let dir = tmp_dir("roundtrip");
        let store = Store::open(&dir).unwrap();
        assert!(store.is_empty());
        store.append("alpha", b"one").unwrap();
        store.append("beta", b"two").unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("alpha").unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(store.get("missing").unwrap(), None);
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(
            store.recovery(),
            RecoveryReport {
                intact_records: 2,
                torn_bytes: 0
            }
        );
        assert_eq!(store.get("beta").unwrap().as_deref(), Some(&b"two"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn last_writer_wins_and_compaction_reclaims() {
        let dir = tmp_dir("lww");
        let store = Store::open(&dir).unwrap();
        store.append("k", b"old-value").unwrap();
        store.append("other", b"kept").unwrap();
        store.append("k", b"new").unwrap();
        assert_eq!(store.get("k").unwrap().as_deref(), Some(&b"new"[..]));
        assert_eq!(store.records(), 3);
        assert_eq!(store.len(), 2);
        let reclaimed = store.compact().unwrap();
        assert!(reclaimed > 0, "superseded record must be reclaimed");
        assert_eq!(store.records(), 2);
        assert_eq!(store.get("k").unwrap().as_deref(), Some(&b"new"[..]));
        assert_eq!(store.get("other").unwrap().as_deref(), Some(&b"kept"[..]));
        // Appends after compaction land correctly and survive reopen.
        store.append("post", b"compact").unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().torn_bytes, 0);
        assert_eq!(store.get("post").unwrap().as_deref(), Some(&b"compact"[..]));
        assert_eq!(store.get("k").unwrap().as_deref(), Some(&b"new"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotted_values_fail_reads_and_compaction() {
        let dir = tmp_dir("rot");
        let store = Store::open(&dir).unwrap();
        store.append("k", b"{\"value\":1.5}").unwrap();
        store.append("other", b"kept").unwrap();
        // Rot one value byte through a second handle, after open; the
        // value still decodes, so only the checksum can tell.
        let journal = store.journal_path().to_path_buf();
        let at = std::fs::read(&journal)
            .unwrap()
            .windows(3)
            .position(|w| w == b"1.5")
            .unwrap();
        let mut rot = OpenOptions::new().write(true).open(&journal).unwrap();
        rot.seek(SeekFrom::Start(at as u64)).unwrap();
        rot.write_all(b"2").unwrap();
        drop(rot);
        let rotted = std::fs::read(&journal).unwrap();

        assert_eq!(
            store.get("k").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(store.get("other").unwrap().as_deref(), Some(&b"kept"[..]));
        assert_eq!(
            store.compact().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            std::fs::read(&journal).unwrap(),
            rotted,
            "a failed compaction must leave the journal untouched"
        );
        // Re-appending supersedes the rotted record; compaction then
        // drops it.
        store.append("k", b"{\"value\":1.5}").unwrap();
        store.compact().unwrap();
        assert_eq!(
            store.get("k").unwrap().as_deref(),
            Some(&b"{\"value\":1.5}"[..])
        );
        assert_eq!(store.records(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_are_refused() {
        let dir = tmp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_NAME), b"definitely not a journal").unwrap();
        let err = match Store::open(&dir) {
            Ok(_) => panic!("foreign file must be refused"),
            Err(err) => err,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_keys_and_values_are_rejected() {
        let dir = tmp_dir("bounds");
        let store = Store::open(&dir).unwrap();
        let long_key = "k".repeat(MAX_KEY_LEN as usize + 1);
        assert_eq!(
            store.append(&long_key, b"v").unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_value_and_unicode_key_round_trip() {
        let dir = tmp_dir("edge");
        let store = Store::open(&dir).unwrap();
        store.append("clé-ε", b"").unwrap();
        assert_eq!(store.get("clé-ε").unwrap().as_deref(), Some(&b""[..]));
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get("clé-ε").unwrap().as_deref(), Some(&b""[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
