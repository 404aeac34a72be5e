//! The write-ahead log: durable, checksummed, sequenced mutation records
//! with group-commit batching and deterministic crash injection
//! (DESIGN.md §13).
//!
//! Every committed mutation (`CREATE TABLE`, `CREATE INDEX`, `INSERT`,
//! `UPDATE`, `DELETE`) appends one logical record — the SQL text plus
//! its positional parameters — to `wal.log` inside the durability
//! directory. Records are framed as
//!
//! ```text
//! [len: u32 LE]  [crc: u32 LE]  [payload: len bytes]
//! payload = [seq: u64 LE] [kind: u8] [sql_len: u32 LE] [sql]
//!           [nparams: u16 LE] ( [plen: u32 LE] [value] )*
//! ```
//!
//! where `crc` is CRC-32 (IEEE) over the payload and `seq` increases by
//! exactly one per record. Recovery scans the log and stops cleanly at
//! the first torn or corrupt tail frame (short header, impossible
//! length, CRC mismatch, unparseable payload, or non-monotonic
//! sequence), truncating the file back to the last valid record.
//!
//! Group commit: appends happen under the WAL lock in table-lock order;
//! the fsync that makes them durable is batched. The first committer to
//! find no sync in flight becomes the *leader*, syncs once for every
//! record written so far, and wakes the *followers* whose records the
//! batch covered. Under the `always` policy a statement is acknowledged
//! only after its record is synced; `interval(ms)` acknowledges
//! immediately and syncs from a background flusher (bounded data loss);
//! `off` never syncs (the OS page cache still survives process death,
//! just not power loss).
//!
//! Any append/fsync failure — real or injected by a [`CrashPlan`] —
//! *poisons* the WAL: every later mutation fails with
//! [`DbError::Durability`] until the database is reopened. This is what
//! keeps apply-then-log sound: once a mutation can no longer be logged,
//! no subsequent mutation is allowed to build on the divergent
//! in-memory state.

use crate::error::DbError;
use crate::snapshot;
use crate::value::DbValue;
use staged_sync::{Condvar, OrderedMutex, Rank};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rank of the WAL state lock — innermost of the whole `db.*` family
/// (DESIGN.md §10): an append happens while the mutated table's data
/// lock (rank 270) is held, so the log order equals the apply order.
pub(crate) const WAL_RANK: Rank = Rank::new(280);

/// Record kind tag: a logical SQL mutation. The only kind today; the
/// byte exists so a physical/compaction record can join the format
/// without a version bump.
const KIND_SQL: u8 = 1;

/// Frames larger than this are treated as corruption by the recovery
/// scanner — no legitimate statement comes close.
const MAX_FRAME: u32 = 1 << 30;

/// When to force WAL bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every commit waits for an fsync covering its record (group
    /// commit batches concurrent committers into one sync).
    Always,
    /// A background flusher syncs on this period; commits are
    /// acknowledged immediately, so a crash can lose up to one
    /// interval of acknowledged writes.
    Interval(Duration),
    /// Never fsync. Appends still reach the OS page cache, so process
    /// death loses nothing; power loss may.
    Off,
}

impl FsyncPolicy {
    /// Short label for metrics/health output: `always`, `interval`,
    /// `off`.
    pub fn label(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Interval(_) => "interval",
            FsyncPolicy::Off => "off",
        }
    }
}

/// How a [`Database`](crate::Database) persists itself.
///
/// # Examples
///
/// ```no_run
/// use staged_db::{Database, DurabilityConfig, FsyncPolicy};
/// use std::time::Duration;
///
/// let config = DurabilityConfig::new("target/tmp/mydb")
///     .fsync(FsyncPolicy::Interval(Duration::from_millis(10)))
///     .checkpoint_on_shutdown(true);
/// let db = Database::open(config).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and `checkpoint.db` (created on
    /// open).
    pub dir: PathBuf,
    /// Fsync policy for the WAL.
    pub fsync: FsyncPolicy,
    /// Whether a clean [`ServerHandle::shutdown`] checkpoints the
    /// database so the next open replays nothing. Read by the server
    /// crates; the database itself never checkpoints on drop.
    ///
    /// [`ServerHandle::shutdown`]: ../staged_core/struct.ServerHandle.html#method.shutdown
    pub checkpoint_on_shutdown: bool,
    /// Deterministic crash injection for recovery tests.
    pub crash: Option<CrashPlan>,
}

impl DurabilityConfig {
    /// Durability in `dir` with the safe defaults: fsync `always`,
    /// checkpoint on clean shutdown (and whenever
    /// [`Database::checkpoint`](crate::Database::checkpoint) is called),
    /// no crash injection.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_on_shutdown: true,
            crash: None,
        }
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Whether a clean server shutdown writes a final checkpoint.
    pub fn checkpoint_on_shutdown(mut self, yes: bool) -> Self {
        self.checkpoint_on_shutdown = yes;
        self
    }

    /// Installs a crash-injection plan.
    pub fn crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash = Some(plan);
        self
    }
}

/// Which phase of a checkpoint a [`CrashPlan`] kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPhase {
    /// Mid-snapshot: the temporary checkpoint file is left half
    /// written and never renamed into place. Recovery must ignore it
    /// and replay the intact WAL against the previous checkpoint.
    DuringSnapshot,
    /// After the atomic rename, before the WAL truncation: the new
    /// checkpoint and the full WAL coexist. Recovery must skip every
    /// record at or below the checkpoint watermark.
    BeforeTruncate,
}

/// A reproducible kill schedule for the durability write path — the
/// crash-recovery sibling of [`FaultPlan`](crate::FaultPlan). All
/// decisions are pure functions of the configured offsets, so a crash
/// run replays identically.
///
/// A triggered kill writes the partial byte prefix the "process" would
/// have gotten out before dying, then poisons the WAL (the in-process
/// stand-in for the process being gone). Reopening the directory then
/// exercises the real recovery path.
///
/// # Examples
///
/// ```
/// use staged_db::CrashPlan;
///
/// let plan = CrashPlan::seeded(42).kill_at_byte(177);
/// assert!(plan.injects_something());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Seed carried for harness-side decisions (bit-flip positions,
    /// torn-tail lengths); the kill points themselves are explicit.
    pub seed: u64,
    /// Die once the cumulative appended WAL byte count would exceed
    /// this offset, leaving exactly `kill_at_byte` bytes of the final
    /// frame's prefix on disk.
    pub kill_at_byte: Option<u64>,
    /// Die in place of the `n`-th fsync (1-based). The record bytes
    /// are already in the file; only the sync acknowledgement is lost.
    pub kill_at_fsync: Option<u64>,
    /// Die inside the next checkpoint, at the given phase.
    pub kill_in_checkpoint: Option<CheckpointPhase>,
}

impl CrashPlan {
    /// A plan that kills nothing.
    pub fn none() -> Self {
        CrashPlan {
            seed: 0,
            kill_at_byte: None,
            kill_at_fsync: None,
            kill_in_checkpoint: None,
        }
    }

    /// A no-kill plan carrying a seed, ready for builder-style tuning.
    pub fn seeded(seed: u64) -> Self {
        CrashPlan {
            seed,
            ..CrashPlan::none()
        }
    }

    /// Kill once cumulative appended bytes would pass `offset`.
    pub fn kill_at_byte(mut self, offset: u64) -> Self {
        self.kill_at_byte = Some(offset);
        self
    }

    /// Kill the `n`-th fsync (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn kill_at_fsync(mut self, n: u64) -> Self {
        assert!(n > 0, "fsync kill points are 1-based");
        self.kill_at_fsync = Some(n);
        self
    }

    /// Kill the next checkpoint at `phase`.
    pub fn kill_in_checkpoint(mut self, phase: CheckpointPhase) -> Self {
        self.kill_in_checkpoint = Some(phase);
        self
    }

    /// Whether any kill point is armed.
    pub fn injects_something(&self) -> bool {
        self.kill_at_byte.is_some()
            || self.kill_at_fsync.is_some()
            || self.kill_in_checkpoint.is_some()
    }

    /// Whether the `n`-th fsync (1-based) dies.
    pub fn kills_fsync(&self, n: u64) -> bool {
        self.kill_at_fsync == Some(n)
    }

    /// Whether a checkpoint dies at `phase`.
    pub fn kills_checkpoint(&self, phase: CheckpointPhase) -> bool {
        self.kill_in_checkpoint == Some(phase)
    }
}

/// Counters for the WAL's lifetime within this process, surfaced as
/// `wal_*` metric families by the servers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub appends: u64,
    /// Bytes appended since open (cumulative, unaffected by checkpoint
    /// truncation).
    pub bytes: u64,
    /// Fsyncs issued since open.
    pub fsyncs: u64,
    /// Highest sequence number written to the file.
    pub written_seq: u64,
    /// Highest sequence number known durable.
    pub synced_seq: u64,
}

/// A point-in-time description of a database's durability, for
/// `/healthz` and the metrics registry.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityStatus {
    /// Fsync policy label: `always`, `interval`, `off`.
    pub mode: &'static str,
    /// Time since the last completed checkpoint (time since open if
    /// none has completed yet).
    pub last_checkpoint_age: Duration,
    /// Records replayed from the WAL when this database was opened.
    pub replay_count: u64,
    /// Checkpoints completed since open.
    pub checkpoints: u64,
    /// WAL counters since open.
    pub wal: WalStats,
    /// Whether a clean server shutdown should checkpoint.
    pub checkpoint_on_shutdown: bool,
    /// The poison message, if durability has been lost.
    pub poisoned: Option<String>,
}

/// Mutable WAL state, all behind one rank-280 mutex.
struct WalState {
    /// `None` once poisoned — the file handle is dropped so nothing
    /// can write past the simulated crash point.
    file: Option<Arc<File>>,
    /// Sequence number the next append will carry.
    next_seq: u64,
    /// Highest sequence written to the file.
    written_seq: u64,
    /// Highest sequence known durable (advanced by fsync batches and
    /// checkpoint truncation).
    synced_seq: u64,
    /// Whether a group-commit leader currently has a sync in flight.
    syncing: bool,
    /// Fsyncs issued so far (also the 1-based id of the next one).
    fsyncs: u64,
    /// Records appended since open.
    appends: u64,
    /// Bytes appended since open (monotonic across truncations).
    bytes: u64,
    /// Why the WAL is dead, if it is.
    dead: Option<String>,
    /// Fsync latency observer (the servers hook the
    /// `wal_fsync_seconds` histogram in here).
    observer: Option<Arc<dyn Fn(Duration) + Send + Sync>>,
}

/// The write-ahead log attached to a durable [`Database`](crate::Database).
pub(crate) struct Wal {
    state: OrderedMutex<WalState>,
    /// Wakes group-commit followers when `synced_seq` advances or the
    /// WAL dies.
    synced: Condvar,
    policy: FsyncPolicy,
    crash: Option<CrashPlan>,
}

impl Wal {
    /// Opens (appending) or creates the log file and wraps it with
    /// in-memory state primed from recovery: `next_seq` follows the
    /// last valid record, `synced_seq` assumes everything already on
    /// disk is durable.
    pub(crate) fn create(
        path: PathBuf,
        policy: FsyncPolicy,
        crash: Option<CrashPlan>,
        last_seq: u64,
    ) -> Result<Arc<Wal>, DbError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| DbError::durability(format!("open {}: {e}", path.display())))?;
        Ok(Arc::new(Wal {
            state: OrderedMutex::new(
                WAL_RANK,
                "db.wal",
                WalState {
                    file: Some(Arc::new(file)),
                    next_seq: last_seq + 1,
                    written_seq: last_seq,
                    synced_seq: last_seq,
                    syncing: false,
                    fsyncs: 0,
                    appends: 0,
                    bytes: 0,
                    dead: None,
                    observer: None,
                },
            ),
            synced: Condvar::new(),
            policy,
            crash,
        }))
    }

    /// Appends one mutation record, returning its sequence number. The
    /// caller holds the mutated table's lock, so append order equals
    /// apply order. Durability is *not* guaranteed until
    /// [`Wal::commit`] returns for this sequence.
    pub(crate) fn append(&self, sql: &str, params: &[DbValue]) -> Result<u64, DbError> {
        let mut st = self.state.lock();
        if let Some(why) = &st.dead {
            return Err(DbError::durability(why.clone()));
        }
        let Some(file) = st.file.clone() else {
            return Err(DbError::durability("wal detached"));
        };
        let seq = st.next_seq;
        let frame = encode_record(seq, sql, params);
        // Injected crash: write the prefix the dying process would have
        // flushed, then poison.
        if let Some(kill) = self.crash.and_then(|c| c.kill_at_byte) {
            let end = st.bytes + frame.len() as u64;
            if end > kill {
                let keep = kill.saturating_sub(st.bytes) as usize;
                let _ = (&*file).write_all(&frame[..keep]);
                let _ = file.sync_data();
                st.bytes = kill;
                return Err(self.poison(&mut st, format!("injected crash at wal byte {kill}")));
            }
        }
        if let Err(e) = (&*file).write_all(&frame) {
            return Err(self.poison(&mut st, format!("wal append failed: {e}")));
        }
        st.next_seq += 1;
        st.written_seq = seq;
        st.appends += 1;
        st.bytes += frame.len() as u64;
        Ok(seq)
    }

    /// Waits (under `always`) until record `seq` is durable, driving
    /// the group-commit protocol: whoever finds no sync in flight
    /// becomes leader and syncs once for every record written so far.
    /// `interval`/`off` acknowledge immediately.
    pub(crate) fn commit(&self, seq: u64) -> Result<(), DbError> {
        match self.policy {
            FsyncPolicy::Off | FsyncPolicy::Interval(_) => Ok(()),
            FsyncPolicy::Always => {
                let mut st = self.state.lock();
                loop {
                    if st.synced_seq >= seq {
                        return Ok(());
                    }
                    if let Some(why) = &st.dead {
                        return Err(DbError::durability(why.clone()));
                    }
                    if st.syncing {
                        self.synced.wait(&mut st);
                    } else {
                        st = self.lead_sync(st)?;
                    }
                }
            }
        }
    }

    /// Syncs everything written so far (used by the interval flusher
    /// and checkpointing). No-op when already durable.
    pub(crate) fn sync(&self) -> Result<(), DbError> {
        let mut st = self.state.lock();
        loop {
            if st.synced_seq >= st.written_seq {
                return Ok(());
            }
            if let Some(why) = &st.dead {
                return Err(DbError::durability(why.clone()));
            }
            if st.syncing {
                self.synced.wait(&mut st);
            } else {
                st = self.lead_sync(st)?;
            }
        }
    }

    /// One leader round: release the lock, fsync, reacquire, publish.
    /// Returns the reacquired guard so callers loop without re-locking.
    fn lead_sync<'a>(
        &'a self,
        mut st: staged_sync::OrderedMutexGuard<'a, WalState>,
    ) -> Result<staged_sync::OrderedMutexGuard<'a, WalState>, DbError> {
        let Some(file) = st.file.clone() else {
            return Err(DbError::durability("wal detached"));
        };
        let target = st.written_seq;
        let observer = st.observer.clone();
        let fsync_no = st.fsyncs + 1;
        let injected = self.crash.as_ref().is_some_and(|c| c.kills_fsync(fsync_no));
        st.syncing = true;
        drop(st);

        let begin = Instant::now();
        let result = if injected {
            Err(format!("injected crash at fsync {fsync_no}"))
        } else {
            file.sync_data()
                .map_err(|e| format!("wal fsync failed: {e}"))
        };
        let elapsed = begin.elapsed();

        let mut st = self.state.lock();
        st.syncing = false;
        match result {
            Ok(()) => {
                st.fsyncs += 1;
                if target > st.synced_seq {
                    st.synced_seq = target;
                }
                staged_sync::mutant!("wal_skip_notify" => {
                    // broken: leader publishes durability but never
                    // wakes the parked followers
                } else {
                    self.synced.notify_all();
                });
                if let Some(obs) = observer {
                    drop(st);
                    obs(elapsed);
                    st = self.state.lock();
                }
                Ok(st)
            }
            Err(why) => Err(self.poison(&mut st, why)),
        }
    }

    /// After a checkpoint covering everything up to `seq` has been
    /// atomically installed: empty the log and mark all of it durable.
    pub(crate) fn truncate_after_checkpoint(&self, seq: u64) -> Result<(), DbError> {
        let mut st = self.state.lock();
        if let Some(why) = &st.dead {
            return Err(DbError::durability(why.clone()));
        }
        let Some(file) = st.file.clone() else {
            return Err(DbError::durability("wal detached"));
        };
        if let Err(e) = file.set_len(0).and_then(|()| file.sync_data()) {
            return Err(self.poison(&mut st, format!("wal truncate failed: {e}")));
        }
        debug_assert!(seq >= st.written_seq, "checkpoint watermark behind wal");
        if seq > st.synced_seq {
            st.synced_seq = seq;
        }
        // Followers whose records became durable via the checkpoint.
        self.synced.notify_all();
        Ok(())
    }

    /// Marks the WAL permanently failed and wakes every waiter. Returns
    /// the error for the caller to propagate.
    fn poison(
        &self,
        st: &mut staged_sync::OrderedMutexGuard<'_, WalState>,
        why: impl Into<String>,
    ) -> DbError {
        let why = why.into();
        if st.dead.is_none() {
            st.dead = Some(why.clone());
        }
        st.file = None;
        staged_sync::mutant!("wal_poison_silent" => {
            // broken: the WAL dies quietly, stranding followers that
            // are parked waiting for their records to become durable
        } else {
            self.synced.notify_all();
        });
        DbError::durability(why)
    }

    /// Fails fast when the WAL is already dead, *before* a mutation is
    /// applied in memory — keeping memory and log from diverging any
    /// further than the poisoning failure itself.
    pub(crate) fn check_alive(&self) -> Result<(), DbError> {
        match &self.state.lock().dead {
            Some(why) => Err(DbError::durability(why.clone())),
            None => Ok(()),
        }
    }

    pub(crate) fn stats(&self) -> WalStats {
        let st = self.state.lock();
        WalStats {
            appends: st.appends,
            bytes: st.bytes,
            fsyncs: st.fsyncs,
            written_seq: st.written_seq,
            synced_seq: st.synced_seq,
        }
    }

    pub(crate) fn poison_message(&self) -> Option<String> {
        self.state.lock().dead.clone()
    }

    /// Poisons from outside the append path (partial statement
    /// failure, checkpoint kill).
    pub(crate) fn poison_external(&self, why: impl Into<String>) {
        let mut st = self.state.lock();
        let _ = self.poison(&mut st, why);
    }

    pub(crate) fn set_observer(&self, f: Arc<dyn Fn(Duration) + Send + Sync>) {
        self.state.lock().observer = Some(f);
    }

    pub(crate) fn written_seq(&self) -> u64 {
        self.state.lock().written_seq
    }

    pub(crate) fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Spawns the interval flusher for [`FsyncPolicy::Interval`]. Holds
    /// only a weak reference: the thread exits on its next tick after
    /// the database (and thus the WAL) is dropped.
    pub(crate) fn spawn_flusher(wal: &Arc<Wal>) {
        let FsyncPolicy::Interval(period) = wal.policy else {
            return;
        };
        let weak = Arc::downgrade(wal);
        std::thread::Builder::new()
            .name("wal-flusher".to_string())
            .spawn(move || loop {
                std::thread::sleep(period);
                let Some(wal) = weak.upgrade() else { return };
                if wal.sync().is_err() {
                    return; // poisoned: nothing left to flush, ever
                }
            })
            .map(|_| ())
            .unwrap_or(()); // spawn failure: fall back to unsynced appends
    }
}

/// Encodes one record frame (header + payload).
pub(crate) fn encode_record(seq: u64, sql: &str, params: &[DbValue]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + sql.len() + params.len() * 8);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.push(KIND_SQL);
    payload.extend_from_slice(&(sql.len() as u32).to_le_bytes());
    payload.extend_from_slice(sql.as_bytes());
    payload.extend_from_slice(&(params.len() as u16).to_le_bytes());
    for p in params {
        let encoded = snapshot::encode_value(p);
        payload.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
        payload.extend_from_slice(encoded.as_bytes());
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WalRecord {
    pub seq: u64,
    pub sql: String,
    pub params: Vec<DbValue>,
}

/// The recovery scanner's verdict on a log file.
#[derive(Debug)]
pub(crate) struct ScanOutcome {
    /// Every valid record, in sequence order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix; everything past it is torn or
    /// corrupt tail to be truncated away.
    pub valid_len: u64,
}

/// Scans raw log bytes, stopping cleanly at the first torn or corrupt
/// frame. Never panics on arbitrary input — this is the surface the
/// fuzz tests hammer.
pub(crate) fn scan_records(bytes: &[u8], after_seq: u64) -> ScanOutcome {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut last_seq = after_seq;
    loop {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            break; // torn header
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_FRAME || (len as usize) > rest.len() - 8 {
            break; // impossible or torn payload
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            break; // corrupt payload
        }
        let Some(record) = decode_payload(payload) else {
            break; // checksum ok but structure invalid: treat as tail
        };
        if record.seq != last_seq + 1 {
            break; // non-monotonic sequence: stale or corrupt tail
        }
        last_seq = record.seq;
        records.push(record);
        offset += 8 + len as usize;
    }
    ScanOutcome {
        records,
        valid_len: offset as u64,
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        let slice = payload.get(*at..*at + n)?;
        *at += n;
        Some(slice)
    };
    let seq = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?);
    let kind = take(&mut at, 1)?[0];
    if kind != KIND_SQL {
        return None;
    }
    let sql_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?) as usize;
    let sql = std::str::from_utf8(take(&mut at, sql_len)?)
        .ok()?
        .to_string();
    let nparams = u16::from_le_bytes(take(&mut at, 2)?.try_into().ok()?) as usize;
    let mut params = Vec::with_capacity(nparams);
    for _ in 0..nparams {
        let plen = u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?) as usize;
        let text = std::str::from_utf8(take(&mut at, plen)?).ok()?;
        params.push(snapshot::decode_value(text).ok()?);
    }
    if at != payload.len() {
        return None; // trailing bytes: structurally invalid
    }
    Some(WalRecord { seq, sql, params })
}

/// CRC-32 (IEEE 802.3, reflected), table-driven. Hand-rolled — the
/// workspace builds offline with no checksum dependency.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_round_trips() {
        let params = vec![
            DbValue::Null,
            DbValue::Int(-42),
            DbValue::Float(0.1 + 0.2),
            DbValue::from("tab\tand\nnewline"),
        ];
        let frame = encode_record(7, "INSERT INTO t (a) VALUES (?)", &params);
        let out = scan_records(&frame, 6);
        assert_eq!(out.valid_len, frame.len() as u64);
        assert_eq!(out.records.len(), 1);
        let rec = &out.records[0];
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.sql, "INSERT INTO t (a) VALUES (?)");
        assert_eq!(rec.params.len(), 4);
        assert_eq!(rec.params[1], DbValue::Int(-42));
        match rec.params[2] {
            DbValue::Float(f) => assert_eq!(f.to_bits(), (0.1f64 + 0.2).to_bits()),
            ref other => panic!("expected float, got {other:?}"),
        }
        assert_eq!(rec.params[3], DbValue::from("tab\tand\nnewline"));
    }

    #[test]
    fn scanner_stops_at_every_torn_prefix() {
        let mut log = Vec::new();
        for seq in 1..=3u64 {
            log.extend_from_slice(&encode_record(
                seq,
                "INSERT INTO t (a) VALUES (?)",
                &[DbValue::Int(seq as i64)],
            ));
        }
        let full = scan_records(&log, 0);
        assert_eq!(full.records.len(), 3);
        for cut in 0..log.len() {
            let out = scan_records(&log[..cut], 0);
            assert!(out.records.len() <= 3);
            assert!(out.valid_len <= cut as u64);
            // The valid prefix must itself rescan identically.
            let again = scan_records(&log[..out.valid_len as usize], 0);
            assert_eq!(again.records.len(), out.records.len());
        }
    }

    #[test]
    fn scanner_rejects_crc_mismatch_and_bad_seq() {
        let mut log = encode_record(1, "DELETE FROM t", &[]);
        log.extend_from_slice(&encode_record(2, "DELETE FROM t", &[]));
        let len0 = encode_record(1, "DELETE FROM t", &[]).len();
        // Flip one payload byte of the second record.
        let mut flipped = log.clone();
        flipped[len0 + 10] ^= 0x40;
        let out = scan_records(&flipped, 0);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.valid_len, len0 as u64);
        // A stale sequence (already checkpointed) stops the scan too.
        let out = scan_records(&log, 1);
        assert_eq!(out.records.len(), 0, "seq 1 after watermark 1 is stale");
    }

    #[test]
    fn scanner_survives_garbage() {
        // Pure garbage of every small length: never panics, no records.
        let mut x = 0xdead_beefu64;
        for n in 0..200usize {
            let mut garbage = Vec::with_capacity(n);
            for _ in 0..n {
                x = crate::fault::splitmix64(x);
                garbage.push(x as u8);
            }
            let out = scan_records(&garbage, 0);
            assert!(out.valid_len as usize <= n);
            let _ = out.records;
        }
    }

    #[test]
    fn crash_plan_builder() {
        let plan = CrashPlan::none();
        assert!(!plan.injects_something());
        assert!(!plan.kills_fsync(1));
        let plan = CrashPlan::seeded(9)
            .kill_at_byte(100)
            .kill_at_fsync(3)
            .kill_in_checkpoint(CheckpointPhase::BeforeTruncate);
        assert!(plan.injects_something());
        assert!(plan.kills_fsync(3));
        assert!(!plan.kills_fsync(2));
        assert!(plan.kills_checkpoint(CheckpointPhase::BeforeTruncate));
        assert!(!plan.kills_checkpoint(CheckpointPhase::DuringSnapshot));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_fsync_kill_rejected() {
        let _ = CrashPlan::seeded(0).kill_at_fsync(0);
    }

    #[test]
    fn fsync_policy_labels() {
        assert_eq!(FsyncPolicy::Always.label(), "always");
        assert_eq!(
            FsyncPolicy::Interval(Duration::from_millis(5)).label(),
            "interval"
        );
        assert_eq!(FsyncPolicy::Off.label(), "off");
    }
}
