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

use std::fs;
use std::io::Write;
use std::path::PathBuf;

use ggd_heap::{HeapImage, HeapImageSink, HeapImageSource, SiteHeap};
use ggd_types::{write_varint, SiteId};

use crate::codec::{CodecError, Decode, Encode, Reader};
use crate::record::{encode_control, WalRecord};
use crate::wal::{
    append_frame_with, open_checkpoint, scan_wal, seal_checkpoint_with, wal_header, StoreError,
};
use crate::wire::{read_heap_image, write_heap_image};

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
        write_checkpoint_payload(out, &self.heap, &self.collector);
    }
}

/// Writes a checkpoint payload: the heap image, then the collector's state
/// as the codec writes a byte vector. The one place the payload's layout
/// is spelled out.
fn write_checkpoint_payload(out: &mut Vec<u8>, heap: &impl HeapImageSource, collector: &[u8]) {
    write_heap_image(out, heap);
    write_varint(out, collector.len() as u64);
    out.extend_from_slice(collector);
}

/// Appends to `out` the sealed checkpoint blob of `heap` and the
/// collector's encoded `state` under `epoch`, writing the heap image straight
/// from the heap into the frame. The bytes are those of
/// `seal_checkpoint(&encode_to_vec(&CheckpointImage { heap: heap.image(),
/// collector: state }), epoch)`, without the image, the payload buffer or
/// the copy.
pub fn write_checkpoint(out: &mut Vec<u8>, heap: &SiteHeap, state: &[u8], epoch: u64) {
    seal_checkpoint_with(out, epoch, |out| write_checkpoint_payload(out, heap, state));
}

/// Reads a checkpoint payload as [`write_checkpoint_payload`] lays it out:
/// the heap image into `H`, then the collector's state, borrowed from the
/// payload.
fn read_checkpoint_payload<'a, H: HeapImageSink>(
    r: &mut Reader<'a>,
) -> Result<(H, &'a [u8]), CodecError> {
    let heap = read_heap_image(r)?;
    let len = r.len()?;
    Ok((heap, r.bytes(len)?))
}

impl Decode for CheckpointImage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (heap, collector) = read_checkpoint_payload(r)?;
        Ok(CheckpointImage {
            heap,
            collector: collector.to_vec(),
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
    /// the event to volatile state), its addresses on this store's site
    /// written as their object alone ([`WalRecord::encode_at`]).
    pub fn append(&mut self, record: &WalRecord<M>)
    where
        M: Encode,
    {
        let site = self.site;
        self.append_with(|out| record.encode_at(site, out));
    }

    /// Appends a [`WalRecord::Control`] record from a borrowed message: the
    /// bytes of `append(&WalRecord::Control { from, msg })`, without a
    /// clone of the message to own the record.
    pub fn append_control(&mut self, from: SiteId, msg: &M)
    where
        M: Encode,
    {
        self.append_with(|out| encode_control(out, from, msg));
    }

    /// Appends one frame whose payload `encode` writes.
    fn append_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let framed_len = match &mut self.backend {
            Backend::Memory { wal, .. } => {
                let before = wal.len();
                append_frame_with(wal, encode);
                wal.len() - before
            }
            Backend::Disk { wal, .. } => {
                let mut frame = Vec::new();
                append_frame_with(&mut frame, encode);
                wal.write_all(&frame).expect("WAL append");
                wal.flush().expect("WAL flush");
                frame.len()
            }
        };
        self.records_since_checkpoint += 1;
        self.stats.records_appended += 1;
        self.stats.wal_bytes_appended += framed_len as u64;
    }

    /// Installs a checkpoint of `heap` and the collector's encoded `state`,
    /// and truncates the WAL: every event the image covers leaves the log.
    ///
    /// The sealed blob is written straight from the heap
    /// ([`write_checkpoint`]); the memory backend writes it into its
    /// previous checkpoint's buffer. The WAL starts a fresh buffer: one
    /// kept at its last segment's size in every site's store would raise
    /// the footprint of a many-site run more than regrowing it costs.
    ///
    /// On disk the installation is crash-safe by ordering + epochs: the
    /// checkpoint (stamped with the new epoch) is fsynced and renamed into
    /// place *before* the WAL is truncated. A crash in between leaves the
    /// new checkpoint next to a WAL still stamped with the old epoch;
    /// [`SiteStore::load`] sees the stale stamp and discards that log
    /// (every record in it is covered by the checkpoint) instead of
    /// replaying it a second time.
    pub fn install_checkpoint(&mut self, heap: &SiteHeap, state: &[u8]) {
        let epoch = self.epoch + 1;
        match &mut self.backend {
            Backend::Memory { wal, checkpoint } => {
                let blob = checkpoint.get_or_insert_with(Vec::new);
                blob.clear();
                write_checkpoint(blob, heap, state, epoch);
                // Slack kept past the blob would sit in every site's store
                // until its next checkpoint.
                blob.shrink_to_fit();
                *wal = wal_header(epoch);
            }
            Backend::Disk {
                wal_path,
                ckpt_path,
                wal,
            } => {
                let mut blob = Vec::new();
                write_checkpoint(&mut blob, heap, state, epoch);
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

    /// WAL records appended since the last checkpoint — right after a
    /// [`SiteStore::load`], the ones it returned.
    pub fn records_since_checkpoint(&self) -> u32 {
        self.records_since_checkpoint
    }

    /// Reads the durable state back: the latest checkpoint (if any) and
    /// every WAL record appended after it, in order. A torn final record —
    /// the signature of a crash mid-append — is dropped; checksum
    /// mismatches and undecodable records fail the load.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the checkpoint or a WAL frame is
    /// corrupt (bad magic/version/checksum) or fails to decode, or when
    /// the on-disk backend cannot read its files or finish an interrupted
    /// checkpoint install.
    pub fn load(&mut self) -> Result<(Option<CheckpointImage>, Vec<WalRecord<M>>), StoreError>
    where
        M: Decode,
    {
        self.load_with(|heap, collector| CheckpointImage {
            heap,
            collector: collector.to_vec(),
        })
    }

    /// [`SiteStore::load`], reading the checkpoint's heap image straight
    /// into `H` and handing it to `restore` with the collector's state
    /// borrowed from the checkpoint: recovery reads into a [`SiteHeap`],
    /// building no [`HeapImage`] and copying no collector bytes. `restore`
    /// runs once the checkpoint and every WAL record have decoded, so a
    /// malformed store fails the load before anything runs on it; its
    /// result stands in for the checkpoint.
    ///
    /// # Errors
    ///
    /// As [`SiteStore::load`].
    pub fn load_with<H: HeapImageSink, R>(
        &mut self,
        restore: impl FnOnce(H, &[u8]) -> R,
    ) -> Result<(Option<R>, Vec<WalRecord<M>>), StoreError>
    where
        M: Decode,
    {
        // The memory backend is read in place; the disk backend reads its
        // two files once.
        let durable = match &self.backend {
            Backend::Memory { wal, checkpoint } => {
                read_durable(self.site, checkpoint.as_deref(), wal, restore)?
            }
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
                read_durable(
                    self.site,
                    ckpt.as_deref(),
                    &fs::read(wal_path.as_path())?,
                    restore,
                )?
            }
        };
        let Durable {
            ckpt_epoch,
            checkpoint,
            wal_epoch,
            mut records,
        } = durable;
        if wal_epoch < ckpt_epoch {
            // A crash interrupted a checkpoint install between the rename
            // and the WAL truncation: every record in this log is already
            // covered by the checkpoint. Discard them and finish the
            // truncation the crash interrupted.
            records.clear();
            match &mut self.backend {
                Backend::Memory { wal, .. } => *wal = wal_header(ckpt_epoch),
                Backend::Disk { wal_path, wal, .. } => {
                    *wal = fs::File::create(wal_path.as_path())?;
                    wal.write_all(&wal_header(ckpt_epoch))?;
                    wal.flush()?;
                }
            }
        }
        self.epoch = ckpt_epoch.max(wal_epoch);

        // Recovery replays everything after the checkpoint, so the cadence
        // counter resumes exactly where the pre-crash run's did — future
        // checkpoints land on the same record counts as an uncrashed run.
        self.records_since_checkpoint = records.len() as u32;
        self.stats.records_replayed += records.len() as u64;
        Ok((checkpoint, records))
    }
}

/// What [`read_durable`] found: the checkpoint, as its `restore` made it,
/// with its epoch, and the WAL's records with the WAL's epoch.
struct Durable<M, R> {
    ckpt_epoch: u64,
    checkpoint: Option<R>,
    wal_epoch: u64,
    records: Vec<WalRecord<M>>,
}

/// Opens a checkpoint blob (if any) and scans a WAL, both borrowed: the
/// checkpoint is verified before anything is decoded, its heap image is
/// read into `H`, then every complete WAL frame is decoded in order as a
/// record of `site`'s log. A torn final frame is dropped. Once everything
/// has decoded, `restore` gets the heap and the collector's state.
fn read_durable<M: Decode, H: HeapImageSink, R>(
    site: SiteId,
    ckpt: Option<&[u8]>,
    wal: &[u8],
    restore: impl FnOnce(H, &[u8]) -> R,
) -> Result<Durable<M, R>, StoreError> {
    let (ckpt_epoch, checkpoint) = match ckpt {
        Some(blob) => {
            let (epoch, payload) = open_checkpoint(blob)?;
            let mut r = Reader::new(payload);
            let parts = read_checkpoint_payload::<H>(&mut r)?;
            if !r.is_empty() {
                return Err(CodecError::Invalid("trailing bytes after value").into());
            }
            (epoch, Some(parts))
        }
        None => (0, None),
    };

    let mut records = Vec::new();
    let mut first_error = None;
    let (wal_epoch, _tail) = scan_wal(wal, |payload| {
        match WalRecord::decode_at(site, payload) {
            Ok(record) => records.push(record),
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
    Ok(Durable {
        ckpt_epoch,
        checkpoint: checkpoint.map(|(heap, state)| restore(heap, state)),
        wal_epoch,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_to_vec;
    use crate::wal::seal_checkpoint;
    use ggd_types::{GlobalAddr, ObjectId};

    fn record(n: u64) -> WalRecord<u64> {
        WalRecord::Control {
            from: SiteId::new(0),
            msg: n,
        }
    }

    fn heap() -> SiteHeap {
        let mut heap = SiteHeap::new(SiteId::new(1));
        heap.alloc_local_root();
        heap
    }

    const STATE: &[u8] = &[1, 2, 3];

    /// What a checkpoint of [`heap`] and [`STATE`] loads back as.
    fn image() -> CheckpointImage {
        CheckpointImage {
            heap: heap().image(),
            collector: STATE.to_vec(),
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

        store.install_checkpoint(&heap(), STATE);
        store.append(&record(3));
        let (ckpt, records) = store.load().unwrap();
        assert_eq!(ckpt.unwrap(), image());
        assert_eq!(records, vec![record(3)]);
        assert_eq!(store.stats().records_appended, 3);
        assert_eq!(store.stats().checkpoints_installed, 1);
    }

    #[test]
    fn memory_installs_write_the_bytes_of_a_freshly_sealed_image() {
        // Each install writes into the previous blob's buffer; the bytes
        // must be those of a freshly sealed image, whatever the buffer
        // held before, next to a fresh WAL header.
        let mut store =
            SiteStore::<u64>::open(SiteId::new(1), &DurabilityConfig::memory()).unwrap();
        let mut heap = heap();
        for epoch in 1..=3u64 {
            for n in 0..epoch * 5 {
                store.append(&record(n));
            }
            heap.alloc();
            let state = vec![epoch as u8; epoch as usize * 40];
            store.install_checkpoint(&heap, &state);
            let Backend::Memory { wal, checkpoint } = &store.backend else {
                unreachable!("a memory store");
            };
            let image = CheckpointImage {
                heap: heap.image(),
                collector: state,
            };
            assert_eq!(
                checkpoint.as_deref(),
                Some(&seal_checkpoint(&encode_to_vec(&image), epoch)[..])
            );
            assert_eq!(wal, &wal_header(epoch));
            let mut fresh = Vec::new();
            write_checkpoint(&mut fresh, &heap, &image.collector, epoch);
            assert_eq!(checkpoint.as_deref(), Some(&fresh[..]));
        }
    }

    #[test]
    fn control_records_from_a_borrow_equal_owned_ones() {
        let config = DurabilityConfig::memory();
        let mut owned = SiteStore::<u64>::open(SiteId::new(1), &config).unwrap();
        let mut borrowed = SiteStore::<u64>::open(SiteId::new(1), &config).unwrap();
        for n in [0u64, 7, 1 << 40] {
            owned.append(&WalRecord::Control {
                from: SiteId::new(3),
                msg: n,
            });
            borrowed.append_control(SiteId::new(3), &n);
        }
        let (Backend::Memory { wal: a, .. }, Backend::Memory { wal: b, .. }) =
            (&owned.backend, &borrowed.backend)
        else {
            unreachable!("memory stores");
        };
        assert_eq!(a, b);
        assert_eq!(owned.stats(), borrowed.stats());
    }

    #[test]
    fn records_of_local_objects_cost_their_ids_and_five_bytes_of_frame() {
        let mut store =
            SiteStore::<u64>::open(SiteId::new(200), &DurabilityConfig::memory()).unwrap();
        let sizes = [
            (WalRecord::Alloc { local_root: true }, 1),
            (
                WalRecord::LinkLocal {
                    from: GlobalAddr::new(200, 1),
                    to: GlobalAddr::new(200, 127),
                },
                3,
            ),
            (WalRecord::Collect, 1),
        ];
        let mut total = 0;
        for (record, payload) in &sizes {
            store.append(record);
            total += payload + 5;
            assert_eq!(store.stats().wal_bytes_appended, total, "{record:?}");
        }
        let (_, records) = store.load().unwrap();
        let appended: Vec<_> = sizes.into_iter().map(|(record, _)| record).collect();
        assert_eq!(records, appended);
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
        store.install_checkpoint(&heap(), STATE);
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
            store.install_checkpoint(&heap(), STATE);
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
    fn disk_state_in_the_previous_format_fails_the_load() {
        let dir = std::env::temp_dir().join(format!(
            "ggd-store-test-{}-{}",
            std::process::id(),
            "previous_format"
        ));
        // Each file in turn carries version 3 in its header.
        for file in ["site-5.ckpt", "site-5.wal"] {
            let _ = fs::remove_dir_all(&dir);
            let config = DurabilityConfig::disk(&dir);
            {
                let mut store = SiteStore::<u64>::open(SiteId::new(5), &config).unwrap();
                store.install_checkpoint(&heap(), STATE);
                store.append(&record(1));
            }
            let path = dir.join(file);
            let mut bytes = fs::read(&path).unwrap();
            bytes[4] = 3;
            fs::write(&path, bytes).unwrap();
            let mut store = SiteStore::<u64>::open(SiteId::new(5), &config).unwrap();
            assert!(
                matches!(store.load(), Err(StoreError::VersionMismatch { found: 3 })),
                "{file}"
            );
        }
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
            let blob = seal_checkpoint(&encode_to_vec(&image()), 1);
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
    fn recovery_reads_the_heap_and_borrows_the_state_it_loads() {
        let mut store =
            SiteStore::<u64>::open(SiteId::new(1), &DurabilityConfig::memory()).unwrap();
        let (restored, _) = store.load_with(|heap: SiteHeap, _| heap).unwrap();
        assert!(restored.is_none(), "no checkpoint yet");
        store.install_checkpoint(&heap(), STATE);
        store.append(&record(3));
        let (restored, records) = store
            .load_with(|heap: SiteHeap, state| (heap, state.to_vec()))
            .unwrap();
        let (restored, state) = restored.unwrap();
        assert_eq!(restored, SiteHeap::from_image(&image().heap));
        assert!(restored.tracker_is_consistent());
        assert_eq!(state, STATE);
        assert_eq!(records, vec![record(3)]);
        assert_eq!(store.records_since_checkpoint(), 1);
    }

    #[test]
    fn repeated_or_descending_identities_fail_the_load() {
        // Hand-sealed checkpoints the writer never produces: a repeated
        // identity and a descending pair. Both the owned load and the
        // recovery read into a heap must fail with a typed error.
        for ids in [[2u64, 2], [3, 2]] {
            let mut image = image();
            image.heap.next_object = 5;
            image.heap.objects = ids
                .iter()
                .map(|&id| (ObjectId::new(id), Vec::new()))
                .collect();
            let mut store =
                SiteStore::<u64>::open(SiteId::new(1), &DurabilityConfig::memory()).unwrap();
            let Backend::Memory { checkpoint, .. } = &mut store.backend else {
                unreachable!("a memory store");
            };
            *checkpoint = Some(seal_checkpoint(&encode_to_vec(&image), 1));
            assert!(
                matches!(store.load(), Err(StoreError::Codec(CodecError::Invalid(_)))),
                "{ids:?}: load"
            );
            assert!(
                matches!(
                    store.load_with(|heap: SiteHeap, _| heap),
                    Err(StoreError::Codec(CodecError::Invalid(_)))
                ),
                "{ids:?}: recovery read"
            );
        }
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
