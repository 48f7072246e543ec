//! [`SiteStore`]: one site's durable state — a checkpoint slot plus an
//! append-only WAL — over an in-memory or on-disk backend.
//!
//! The in-memory backend models a durable medium for the deterministic
//! simulator: when `ggd-sim` crashes a site it drops the volatile
//! `SiteRuntime` state but keeps the [`SiteStore`] value, exactly as a
//! machine reboot keeps its disk. The on-disk backend writes the same
//! bytes under a caller-supplied directory (`site-<n>.wal` /
//! `site-<n>.ckpt`), with checkpoints installed via write-to-temp +
//! fsync + rename and guarded by epochs so an install interrupted between
//! the rename and the WAL truncation never double-replays (see
//! [`SiteStore::install_checkpoint`]).
//!
//! Durability granularity: WAL appends are flushed to the OS per record
//! but not fsynced — the disk backend targets *process*-crash durability
//! (the granularity the simulator models). Power-failure durability would
//! need an fsync per append; checkpoints, being rare, are fsynced.

use std::collections::VecDeque;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

use ggd_heap::HeapImage;
use ggd_types::SiteId;

use crate::codec::{encode_to_vec, CodecError, Decode, Encode, Reader};
use crate::record::WalRecord;
use crate::wal::{
    append_frame_with, open_checkpoint, scan_wal, seal_checkpoint, wal_header, StoreError,
};

/// Where a cluster's durable state lives.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// No durability: sites are volatile, crash faults are not survivable.
    #[default]
    Off,
    /// Durable state kept in memory (the simulated "disk" of deterministic
    /// runs: it survives a site crash but not the process).
    Memory,
    /// Durable state written under this directory, one WAL + checkpoint
    /// file per site.
    Disk(PathBuf),
}

/// Durability configuration carried by `ClusterConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Backend selection.
    pub mode: DurabilityMode,
    /// WAL records between checkpoints (for collectors that can checkpoint;
    /// others replay their full log). `0` means the default of 64.
    pub checkpoint_every: u32,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            mode: DurabilityMode::Off,
            checkpoint_every: 0,
        }
    }
}

impl DurabilityConfig {
    /// Durability disabled (the default).
    pub fn off() -> Self {
        DurabilityConfig::default()
    }

    /// The in-memory durable medium.
    pub fn memory() -> Self {
        DurabilityConfig {
            mode: DurabilityMode::Memory,
            checkpoint_every: 0,
        }
    }

    /// The on-disk durable medium under `dir`.
    pub fn disk(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            mode: DurabilityMode::Disk(dir.into()),
            checkpoint_every: 0,
        }
    }

    /// Overrides the checkpoint cadence.
    pub fn with_checkpoint_every(mut self, every: u32) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// True when durability is enabled.
    pub fn is_on(&self) -> bool {
        self.mode != DurabilityMode::Off
    }

    /// The effective checkpoint cadence.
    pub fn effective_checkpoint_every(&self) -> u32 {
        if self.checkpoint_every == 0 {
            64
        } else {
            self.checkpoint_every
        }
    }
}

/// What a checkpoint stores: the heap image plus the collector's opaque
/// state blob (produced by the collector's own encoder).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointImage {
    /// The heap's durable state.
    pub heap: HeapImage,
    /// The collector's encoded state.
    pub collector: Vec<u8>,
}

impl Encode for CheckpointImage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.heap.encode(out);
        self.collector.encode(out);
    }
}

impl Decode for CheckpointImage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CheckpointImage {
            heap: HeapImage::decode(r)?,
            collector: Vec::decode(r)?,
        })
    }
}

/// Counters a store accumulates, read by the drivers' `store_stats` and the
/// repo benchmark's `store.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// WAL records appended over the store's lifetime.
    pub records_appended: u64,
    /// Payload + framing bytes appended to the WAL.
    pub wal_bytes_appended: u64,
    /// Checkpoints installed (each truncates the WAL).
    pub checkpoints_installed: u64,
    /// Records replayed by recoveries from this store.
    pub records_replayed: u64,
}

#[derive(Debug)]
enum Backend {
    Memory {
        wal: Vec<u8>,
        checkpoint: Option<Vec<u8>>,
    },
    Disk {
        wal_path: PathBuf,
        ckpt_path: PathBuf,
        wal: fs::File,
    },
}

/// One site's durable store: checkpoint slot + WAL.
#[derive(Debug)]
pub struct SiteStore<M> {
    site: SiteId,
    backend: Backend,
    records_since_checkpoint: u32,
    checkpoint_every: u32,
    /// Current checkpoint generation: bumped by every
    /// [`SiteStore::install_checkpoint`], stamped into the checkpoint blob
    /// and the truncated WAL's header. A WAL stamped with an *older* epoch
    /// than the checkpoint is entirely covered by it (a crash landed
    /// between the checkpoint rename and the WAL truncation) and is
    /// discarded on load instead of being replayed twice.
    epoch: u64,
    stats: StoreStats,
    _msg: std::marker::PhantomData<fn() -> M>,
}

impl<M> SiteStore<M> {
    /// Opens (or creates) the store for `site` under `config`. Returns
    /// `None` when durability is off.
    ///
    /// # Panics
    ///
    /// Panics when the on-disk backend cannot create its directory or
    /// files — a durable medium that cannot be written is a deployment
    /// error, not a recoverable condition.
    pub fn open(site: SiteId, config: &DurabilityConfig) -> Option<Self> {
        let backend = match &config.mode {
            DurabilityMode::Off => return None,
            DurabilityMode::Memory => Backend::Memory {
                wal: wal_header(0),
                checkpoint: None,
            },
            DurabilityMode::Disk(dir) => {
                fs::create_dir_all(dir).expect("durable directory is creatable");
                let wal_path = dir.join(format!("site-{}.wal", site.index()));
                let ckpt_path = dir.join(format!("site-{}.ckpt", site.index()));
                let fresh = !wal_path.exists();
                let mut wal = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&wal_path)
                    .expect("WAL file is creatable");
                if fresh {
                    wal.write_all(&wal_header(0)).expect("WAL header written");
                    wal.flush().expect("WAL header flushed");
                }
                Backend::Disk {
                    wal_path,
                    ckpt_path,
                    wal,
                }
            }
        };
        let mut store = SiteStore {
            site,
            backend,
            records_since_checkpoint: 0,
            checkpoint_every: config.effective_checkpoint_every(),
            epoch: 0,
            stats: StoreStats::default(),
            _msg: std::marker::PhantomData,
        };
        // A reopened disk store resumes its epoch from the existing
        // checkpoint (the authority — the WAL header may be one behind
        // after an interrupted install).
        if let Backend::Disk { ckpt_path, .. } = &store.backend {
            if let Ok(blob) = fs::read(ckpt_path) {
                if let Ok((epoch, _)) = open_checkpoint(&blob) {
                    store.epoch = epoch;
                }
            }
        }
        Some(store)
    }

    /// The site this store belongs to.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The store's accumulated counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// True when enough records accumulated since the last checkpoint.
    pub fn wants_checkpoint(&self) -> bool {
        self.records_since_checkpoint >= self.checkpoint_every
    }

    /// Appends one record to the WAL (write-ahead: call *before* applying
    /// the event to volatile state).
    pub fn append(&mut self, record: &WalRecord<M>)
    where
        M: Encode,
    {
        let framed_len = match &mut self.backend {
            Backend::Memory { wal, .. } => {
                let before = wal.len();
                append_frame_with(wal, |out| record.encode(out));
                wal.len() - before
            }
            Backend::Disk { wal, .. } => {
                let mut frame = Vec::new();
                append_frame_with(&mut frame, |out| record.encode(out));
                wal.write_all(&frame).expect("WAL append");
                wal.flush().expect("WAL flush");
                frame.len()
            }
        };
        self.records_since_checkpoint += 1;
        self.stats.records_appended += 1;
        self.stats.wal_bytes_appended += framed_len as u64;
    }

    /// Installs a checkpoint and truncates the WAL: every event the image
    /// covers leaves the log.
    ///
    /// On disk the installation is crash-safe by ordering + epochs: the
    /// checkpoint (stamped with the new epoch) is fsynced and renamed into
    /// place *before* the WAL is truncated. A crash in between leaves the
    /// new checkpoint next to a WAL still stamped with the old epoch;
    /// [`SiteStore::load`] sees the stale stamp and discards that log
    /// (every record in it is covered by the checkpoint) instead of
    /// replaying it a second time.
    pub fn install_checkpoint(&mut self, image: &CheckpointImage) {
        let epoch = self.epoch + 1;
        let blob = seal_checkpoint(&encode_to_vec(image), epoch);
        match &mut self.backend {
            Backend::Memory { wal, checkpoint } => {
                *checkpoint = Some(blob);
                *wal = wal_header(epoch);
            }
            Backend::Disk {
                wal_path,
                ckpt_path,
                wal,
            } => {
                let tmp = ckpt_path.with_extension("ckpt.tmp");
                {
                    let mut file = fs::File::create(&tmp).expect("checkpoint written");
                    file.write_all(&blob).expect("checkpoint written");
                    file.sync_all().expect("checkpoint synced");
                }
                fs::rename(&tmp, &ckpt_path).expect("checkpoint installed");
                *wal = fs::File::create(wal_path.as_path()).expect("WAL truncated");
                wal.write_all(&wal_header(epoch))
                    .expect("WAL header written");
                wal.flush().expect("WAL header flushed");
            }
        }
        self.epoch = epoch;
        self.records_since_checkpoint = 0;
        self.stats.checkpoints_installed += 1;
    }

    /// Reads the durable state back: the latest checkpoint (if any) and
    /// every WAL record appended after it, in order. A torn final record —
    /// the signature of a crash mid-append — is dropped; checksum
    /// mismatches and undecodable records fail the load.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the checkpoint or a WAL frame is
    /// corrupt (bad magic/version/checksum) or fails to decode.
    pub fn load(&mut self) -> Result<(Option<CheckpointImage>, Vec<WalRecord<M>>), StoreError>
    where
        M: Decode,
    {
        let (ckpt_bytes, wal_bytes) = match &mut self.backend {
            Backend::Memory { wal, checkpoint } => (checkpoint.clone(), wal.clone()),
            Backend::Disk {
                wal_path,
                ckpt_path,
                ..
            } => {
                let ckpt = match fs::read(ckpt_path.as_path()) {
                    Ok(bytes) => Some(bytes),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                    Err(e) => return Err(e.into()),
                };
                (ckpt, fs::read(wal_path.as_path())?)
            }
        };

        let (ckpt_epoch, checkpoint) = match ckpt_bytes {
            Some(blob) => {
                let (epoch, payload) = open_checkpoint(&blob)?;
                (
                    epoch,
                    Some(crate::codec::decode_from_slice::<CheckpointImage>(payload)?),
                )
            }
            None => (0, None),
        };

        let mut records: VecDeque<WalRecord<M>> = VecDeque::new();
        let mut first_error = None;
        let (wal_epoch, _tail) = scan_wal(&wal_bytes, |payload| {
            match crate::codec::decode_from_slice::<WalRecord<M>>(payload) {
                Ok(record) => records.push_back(record),
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
            Ok(())
        })?;
        if let Some(e) = first_error {
            return Err(e.into());
        }
        if wal_epoch < ckpt_epoch {
            // A crash interrupted a checkpoint install between the rename
            // and the WAL truncation: every record in this log is already
            // covered by the checkpoint. Discard them and finish the
            // truncation the crash interrupted.
            records.clear();
            match &mut self.backend {
                Backend::Memory { wal, .. } => *wal = wal_header(ckpt_epoch),
                Backend::Disk { wal_path, wal, .. } => {
                    *wal = fs::File::create(wal_path.as_path()).expect("WAL truncated");
                    wal.write_all(&wal_header(ckpt_epoch))
                        .expect("WAL header written");
                    wal.flush().expect("WAL header flushed");
                }
            }
        }
        self.epoch = ckpt_epoch.max(wal_epoch);

        let records: Vec<WalRecord<M>> = records.into();
        // Recovery replays everything after the checkpoint, so the cadence
        // counter resumes exactly where the pre-crash run's did — future
        // checkpoints land on the same record counts as an uncrashed run.
        self.records_since_checkpoint = records.len() as u32;
        self.stats.records_replayed += records.len() as u64;
        Ok((checkpoint, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggd_heap::SiteHeap;

    fn record(n: u64) -> WalRecord<u64> {
        WalRecord::Control {
            from: SiteId::new(0),
            msg: n,
        }
    }

    fn image() -> CheckpointImage {
        let mut heap = SiteHeap::new(SiteId::new(1));
        heap.alloc_local_root();
        CheckpointImage {
            heap: heap.image(),
            collector: vec![1, 2, 3],
        }
    }

    #[test]
    fn off_mode_yields_no_store() {
        assert!(SiteStore::<u64>::open(SiteId::new(0), &DurabilityConfig::off()).is_none());
        assert!(!DurabilityConfig::off().is_on());
        assert!(DurabilityConfig::memory().is_on());
    }

    #[test]
    fn memory_store_round_trips_records_and_checkpoints() {
        let mut store =
            SiteStore::<u64>::open(SiteId::new(1), &DurabilityConfig::memory()).unwrap();
        store.append(&record(1));
        store.append(&record(2));
        let (ckpt, records) = store.load().unwrap();
        assert!(ckpt.is_none());
        assert_eq!(records, vec![record(1), record(2)]);

        store.install_checkpoint(&image());
        store.append(&record(3));
        let (ckpt, records) = store.load().unwrap();
        assert_eq!(ckpt.unwrap(), image());
        assert_eq!(records, vec![record(3)]);
        assert_eq!(store.stats().records_appended, 3);
        assert_eq!(store.stats().checkpoints_installed, 1);
    }

    #[test]
    fn checkpoint_cadence_counts_records() {
        let config = DurabilityConfig::memory().with_checkpoint_every(2);
        let mut store = SiteStore::<u64>::open(SiteId::new(1), &config).unwrap();
        assert!(!store.wants_checkpoint());
        store.append(&record(1));
        assert!(!store.wants_checkpoint());
        store.append(&record(2));
        assert!(store.wants_checkpoint());
        store.install_checkpoint(&image());
        assert!(!store.wants_checkpoint());
        // After a load the cadence resumes from the replayed count.
        store.append(&record(3));
        let _ = store.load().unwrap();
        store.append(&record(4));
        assert!(store.wants_checkpoint());
    }

    #[test]
    fn disk_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "ggd-store-test-{}-{}",
            std::process::id(),
            "disk_reopen"
        ));
        let _ = fs::remove_dir_all(&dir);
        let config = DurabilityConfig::disk(&dir);
        {
            let mut store = SiteStore::<u64>::open(SiteId::new(2), &config).unwrap();
            store.install_checkpoint(&image());
            store.append(&record(7));
        }
        // A fresh handle (the "rebooted machine") sees the same state.
        let mut store = SiteStore::<u64>::open(SiteId::new(2), &config).unwrap();
        let (ckpt, records) = store.load().unwrap();
        assert_eq!(ckpt.unwrap(), image());
        assert_eq!(records, vec![record(7)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_disk_tail_is_dropped() {
        let dir = std::env::temp_dir().join(format!(
            "ggd-store-test-{}-{}",
            std::process::id(),
            "torn_tail"
        ));
        let _ = fs::remove_dir_all(&dir);
        let config = DurabilityConfig::disk(&dir);
        {
            let mut store = SiteStore::<u64>::open(SiteId::new(3), &config).unwrap();
            store.append(&record(1));
            store.append(&record(2));
        }
        // Tear the last record: drop the final 3 bytes of the WAL file.
        let wal_path = dir.join("site-3.wal");
        let bytes = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

        let mut store = SiteStore::<u64>::open(SiteId::new(3), &config).unwrap();
        let (_, records) = store.load().unwrap();
        assert_eq!(records, vec![record(1)], "torn record must not replay");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_checkpoint_install_never_double_replays() {
        // Simulate a crash between the checkpoint rename and the WAL
        // truncation: the new checkpoint (epoch n+1) sits next to the old
        // WAL (epoch n) whose records the checkpoint already covers.
        let dir = std::env::temp_dir().join(format!(
            "ggd-store-test-{}-{}",
            std::process::id(),
            "interrupted_install"
        ));
        let _ = fs::remove_dir_all(&dir);
        let config = DurabilityConfig::disk(&dir);
        {
            let mut store = SiteStore::<u64>::open(SiteId::new(4), &config).unwrap();
            store.append(&record(1));
            store.append(&record(2));
            // Install the checkpoint by hand, "crashing" before truncation:
            // write the sealed blob but leave the old WAL in place.
            let blob = crate::wal::seal_checkpoint(&encode_to_vec(&image()), 1);
            fs::write(dir.join("site-4.ckpt"), blob).unwrap();
        }
        let mut store = SiteStore::<u64>::open(SiteId::new(4), &config).unwrap();
        let (ckpt, records) = store.load().unwrap();
        assert_eq!(ckpt.unwrap(), image());
        assert!(
            records.is_empty(),
            "records covered by the checkpoint must not replay: {records:?}"
        );
        // The interrupted truncation was finished: appends after the load
        // land in the new epoch and replay normally.
        store.append(&record(9));
        let (_, records) = store.load().unwrap();
        assert_eq!(records, vec![record(9)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_fails_the_load() {
        let mut store =
            SiteStore::<u64>::open(SiteId::new(1), &DurabilityConfig::memory()).unwrap();
        store.append(&record(1));
        if let Backend::Memory { wal, .. } = &mut store.backend {
            let last = wal.len() - 1;
            wal[last] ^= 0x20;
        }
        assert!(matches!(
            store.load(),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }
}
