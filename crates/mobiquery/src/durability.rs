//! Durable write path: group-committed WAL, checkpoints, crash recovery.
//!
//! The serving write path applies one insert batch per frame, which gives
//! durability a natural group-commit unit: the writer appends each
//! frame's whole batch as **one** checksummed [`storage::Wal`] record
//! *before* any tree page is written, and periodically installs a
//! checkpoint, truncating the WAL at it. Recovery is always *last
//! checkpoint + replay of every complete WAL record*, stopping cleanly
//! at a torn, truncated, or checksum-failing tail — so a crash at any
//! instant loses at most the frames whose records never became durable,
//! and a frame whose record IS durable survives even if the crash hit
//! between the WAL append and the tree write.
//!
//! The *ordering* between commit and apply is statement order in the
//! region writers: a serve has one commit cursor, and each writer's
//! frame `k` begins by committing the log through `k` under it —
//! whichever writer gets there first commits, each batch once and in
//! frame order — before it routes, let alone applies, its slice. Append
//! happens-before apply, per frame, with no global barrier and no clock
//! rule.
//!
//! There is one checkpoint shape, [`LogicalCheckpoint`]: a record set,
//! not page images. One WAL is shared by however many region trees the
//! grid has, so there is no single page image to persist; a record set
//! survives a recut; and it can be extended from the log alone, where a
//! page image costs a scan of the index every time. Recovery rebuilds
//! the regions through [`crate::PartitionedDqServer::build`] under any
//! grid — result-equivalent to the crashed server, not page-identical.
//!
//! A logical checkpoint is built from the trees exactly once: the
//! initial one, which captures whatever was preloaded before the log
//! saw a commit ([`DurableLog::checkpoint_logical`], which a log that
//! has committed refuses). Every later one is a *fold* of the log into
//! it ([`DurableLog::fold_checkpoint`]).
//! The index is insert-only (`RTree` has no delete), so the record set after
//! commit `n` is the record set at the previous watermark plus the
//! batches of the WAL records past it:
//! *checkpoint N+1 = checkpoint N ∪ WAL tail*. The fold appends the
//! tail's record bytes to the installed checkpoint, advances its
//! watermark and truncates the WAL — work proportional to what was
//! committed since the last checkpoint, not to the index. It never
//! reads a tree, so it needs no quiescent frame boundary and holds back
//! no writer; and it persists what was *committed*, not what some tree
//! absorbed, so a region writer that failed mid-run costs it nothing.
//!
//! [`DurableLog::commit_frame`], every checkpoint install and
//! [`DurableLog::durable_image`] serialize on one state lock, so a
//! captured image is always (checkpoint at watermark `w`, WAL holding
//! exactly the commits past `w`): no record is lost between an append
//! and a fold, none appears on both sides of the watermark.
//!
//! Checkpoint failure is *safe*: the WAL is only truncated after the new
//! checkpoint is installed, so a fold that finds the live log damaged
//! leaves the previous checkpoint plus the full (longer) WAL: still a
//! complete recovery story, just a slower one.
//! The failure is counted in [`DurableStats::checkpoint_failures`].

use parking_lot::Mutex;
use rtree::{NsiSegmentRecord, Record};
use std::sync::Arc;
use std::time::Instant;
use storage::{scan_wal, Wal, WalError, WalStats, WalTail};

/// What a checkpoint persists: the record set as of the watermark — the
/// preloaded records (seam replicas collapsed, in id order) followed by
/// every committed batch folded in since, in commit order — encoded with
/// the codec a WAL batch carries behind its frame number.
#[derive(Clone, Debug)]
pub struct LogicalCheckpoint {
    /// `count u32 ‖ [record bytes]*` — records only, which is all
    /// [`crate::PartitionedDqServer::build`] rebuilds from.
    pub records: Vec<u8>,
    /// Records in `records`.
    pub count: u32,
    /// Last WAL sequence number the record set covers.
    pub wal_seq: u64,
}

/// Everything recovery needs, captured as of one instant: the installed
/// checkpoint (if any) and the WAL byte image. Crash harnesses snapshot
/// this at arbitrary points — including between a WAL append and the
/// corresponding tree write — then mutilate the WAL tail and recover.
#[derive(Clone, Debug)]
pub struct DurableImage {
    /// The last installed checkpoint.
    pub checkpoint: Option<LogicalCheckpoint>,
    /// The WAL image ([`storage::Wal::image`]) as of the capture.
    pub wal: Vec<u8>,
}

/// Lifetime counters of one [`DurableLog`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DurableStats {
    /// The underlying WAL's counters.
    pub wal: WalStats,
    /// Checkpoints successfully installed.
    pub checkpoints: u64,
    /// Checkpoints that failed (WAL kept, previous checkpoint retained).
    pub checkpoint_failures: u64,
    /// Records persisted by logical checkpoints: the initial record set
    /// plus every delta folded out of the WAL since.
    pub checkpoint_records: u64,
}

struct LogState {
    checkpoint: Option<LogicalCheckpoint>,
    commits_since_checkpoint: u64,
    checkpoints: u64,
    checkpoint_failures: u64,
    checkpoint_records: u64,
    /// [`DurableLog::commit_frame`]'s encode buffer, reused across frames.
    payload: Vec<u8>,
    metrics: Option<CheckpointMetrics>,
}

struct CheckpointMetrics {
    checkpoint_ns: Arc<obs::Histogram>,
    checkpoint_records: Arc<obs::Counter>,
}

impl LogState {
    /// Bookkeeping of a checkpoint just installed (the caller, holding
    /// the state lock, has replaced `self.checkpoint` and truncated the
    /// WAL): `records` is what it adds to
    /// [`DurableStats::checkpoint_records`].
    fn installed(&mut self, records: u64, started: Instant) {
        self.commits_since_checkpoint = 0;
        self.checkpoints += 1;
        self.checkpoint_records += records;
        if let Some(m) = &self.metrics {
            m.checkpoint_ns.record(started.elapsed().as_nanos() as u64);
            m.checkpoint_records.add(records);
        }
    }
}

/// The write path's durability state: one WAL plus the last checkpoint.
///
/// Shared (via `Arc`) between the serving writer — which group-commits
/// each frame's batch before applying it — and whoever captures
/// [`Self::durable_image`] for recovery.
pub struct DurableLog {
    wal: Wal,
    checkpoint_every: u64,
    state: Mutex<LogState>,
}

impl DurableLog {
    /// A log that becomes [due](Self::due_for_checkpoint) for a
    /// checkpoint after every `checkpoint_every` group commits
    /// (`0` = never due; only the initial checkpoint is taken).
    pub fn new(checkpoint_every: u64) -> Self {
        DurableLog {
            wal: Wal::new(),
            checkpoint_every,
            state: Mutex::new(LogState {
                checkpoint: None,
                commits_since_checkpoint: 0,
                checkpoints: 0,
                checkpoint_failures: 0,
                checkpoint_records: 0,
                payload: Vec::new(),
                metrics: None,
            }),
        }
    }

    /// Mirror the log's counters into `registry`: the WAL's
    /// `wal.appends` / `wal.group_commit_ns`, plus per installed
    /// checkpoint its wall time in the `wal.checkpoint_ns` histogram and
    /// the records it persisted in `wal.checkpoint_records` — a
    /// checkpoint stall shows in the registry without a traced run.
    pub fn attach_metrics(&self, registry: &obs::MetricsRegistry) {
        self.wal.attach_metrics(registry);
        self.state.lock().metrics = Some(CheckpointMetrics {
            checkpoint_ns: registry.histogram("wal.checkpoint_ns"),
            checkpoint_records: registry.counter("wal.checkpoint_records"),
        });
    }

    /// Group-commit one frame's batch as a single WAL record, *before*
    /// any page of the tree is written: `frame u64 ‖` the batch's record
    /// set. Returns the record's sequence number. Each pair's `f64` is
    /// read by nothing; the signature keeps it for
    /// `benchmarks/dqbench`.
    pub fn commit_frame<const D: usize>(
        &self,
        frame: u64,
        batch: &[(NsiSegmentRecord<D>, f64)],
    ) -> u64 {
        // Under the state lock, so an append never lands between a
        // checkpoint's read of the log and its truncation.
        let mut st = self.state.lock();
        st.payload.clear();
        st.payload.extend_from_slice(&frame.to_le_bytes());
        encode_records(batch.iter().map(|(rec, _)| *rec), &mut st.payload);
        let seq = self.wal.commit(&st.payload);
        st.commits_since_checkpoint += 1;
        seq
    }

    /// True once any checkpoint has been installed (the writer takes an
    /// initial one before its first frame, so recovery never has to
    /// reconstruct preloaded state from nothing).
    pub fn has_checkpoint(&self) -> bool {
        self.state.lock().checkpoint.is_some()
    }

    /// True when enough commits have accumulated since the last
    /// checkpoint for the writer to take the next one.
    pub fn due_for_checkpoint(&self) -> bool {
        self.checkpoint_every > 0
            && self.state.lock().commits_since_checkpoint >= self.checkpoint_every
    }

    /// Install `records` as the logical checkpoint — the base every
    /// later [`Self::fold_checkpoint`] extends — and truncate the WAL.
    /// Returns whether it was installed. The partitioned server calls
    /// this once, for the preloaded state, before its first commit.
    /// Once the log has committed any frame it is refused and counted
    /// as a checkpoint failure, nothing installed and nothing truncated:
    /// a record set read off the trees cannot vouch for a batch that was
    /// committed but never applied, and truncating would lose it.
    pub fn checkpoint_logical<const D: usize>(&self, records: &[NsiSegmentRecord<D>]) -> bool {
        let started = Instant::now();
        let mut buf = Vec::new();
        encode_records(records.iter().copied(), &mut buf);
        let count = records.len() as u32;
        let mut st = self.state.lock();
        if self.wal.stats().appends > 0 {
            st.checkpoint_failures += 1;
            return false;
        }
        let wal_seq = self.wal.truncate_for_checkpoint();
        st.checkpoint = Some(LogicalCheckpoint {
            records: buf,
            count,
            wal_seq,
        });
        st.installed(u64::from(count), started);
        true
    }

    /// Checkpoint by folding the log into the installed logical
    /// checkpoint: append the records of every WAL frame past its
    /// watermark, advance the watermark, truncate the WAL. Returns the
    /// records folded. Costs what was committed since the last
    /// checkpoint, reads no tree, and is atomic with respect to
    /// [`Self::commit_frame`] and [`Self::durable_image`].
    ///
    /// Sound because durable serving only ever *adds*
    /// records (see the module doc); the log is verified exactly as
    /// recovery would verify it, and on any error — no
    /// checkpoint to extend, or a live log that does not scan clean —
    /// nothing is installed and nothing truncated.
    pub fn fold_checkpoint<const D: usize>(&self) -> Result<u64, RecoverError> {
        let started = Instant::now();
        let mut st = self.state.lock();
        let folded = st
            .checkpoint
            .as_mut()
            .ok_or(RecoverError::NoCheckpoint)
            .and_then(|cp| self.wal.with_image(|wal| fold_tail::<D>(cp, wal)));
        match folded {
            Ok(records) => {
                self.wal.truncate_for_checkpoint();
                st.installed(records, started);
                Ok(records)
            }
            Err(e) => {
                st.checkpoint_failures += 1;
                Err(e)
            }
        }
    }

    /// Count a checkpoint that could not be taken: the base checkpoint's
    /// tree scan met a page it cannot trust. Nothing is installed and the
    /// WAL is kept.
    pub(crate) fn checkpoint_failed(&self) {
        self.state.lock().checkpoint_failures += 1;
    }

    /// Capture the durable state as of now (what a crash at this instant
    /// would leave on disk).
    pub fn durable_image(&self) -> DurableImage {
        let st = self.state.lock();
        DurableImage {
            checkpoint: st.checkpoint.clone(),
            wal: self.wal.image(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DurableStats {
        let st = self.state.lock();
        DurableStats {
            wal: self.wal.stats(),
            checkpoints: st.checkpoints,
            checkpoint_failures: st.checkpoint_failures,
            checkpoint_records: st.checkpoint_records,
        }
    }
}

/// What recovery did: how much WAL it replayed and how the log ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete committed frames replayed on top of the checkpoint.
    pub replayed_frames: u64,
    /// Records applied during replay.
    pub replayed_records: u64,
    /// How the WAL image ended ([`WalTail::Clean`] iff no damage).
    pub tail: WalTail,
}

impl RecoveryReport {
    /// Record `wal.replayed_records` into `registry`.
    pub fn publish(&self, registry: &obs::MetricsRegistry) {
        registry
            .counter("wal.replayed_records")
            .add(self.replayed_records);
    }
}

/// Why recovery could not produce a record set — or, for
/// [`DurableLog::fold_checkpoint`], which replays the same log early, why
/// no checkpoint was installed. A damaged WAL *tail* is not an error for
/// recovery (replay stops at the last complete record and reports it in
/// [`RecoveryReport::tail`]); these are the states with no recovery story
/// at all.
#[derive(Debug)]
pub enum RecoverError {
    /// No checkpoint was ever installed: there is no base state to replay
    /// onto (the writer takes an initial checkpoint before its first
    /// frame precisely to rule this out).
    NoCheckpoint,
    /// The WAL header itself is unusable.
    Wal(WalError),
    /// A checksum-valid WAL record decoded to a malformed batch (a logic
    /// bug, surfaced as a typed error rather than a panic).
    Codec(String),
    /// The *live* log did not scan clean to its end. Folding it would
    /// seal the damage into the checkpoint and truncate the evidence, so
    /// the fold refuses.
    DamagedLog(WalTail),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::NoCheckpoint => write!(f, "no checkpoint to recover from"),
            RecoverError::Wal(e) => write!(f, "unusable WAL image: {e}"),
            RecoverError::Codec(msg) => write!(f, "malformed WAL batch payload: {msg}"),
            RecoverError::DamagedLog(tail) => write!(f, "live WAL is damaged: {tail:?}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl DurableImage {
    /// Recover the durable state: the checkpoint's
    /// record set plus every complete committed frame past the
    /// watermark, in commit order. The caller rebuilds region trees
    /// from the base set (via [`crate::PartitionedDqServer::build`]) and
    /// re-applies the frames through routing. A frame's records come
    /// paired with their segment start, which nothing reads: the pairs
    /// are what `benchmarks/dqbench` destructures.
    #[allow(clippy::type_complexity)]
    pub fn recover_records<const D: usize>(
        &self,
    ) -> Result<
        (
            Vec<NsiSegmentRecord<D>>,
            Vec<(u64, Vec<(NsiSegmentRecord<D>, f64)>)>,
            RecoveryReport,
        ),
        RecoverError,
    > {
        let cp = self.checkpoint.as_ref().ok_or(RecoverError::NoCheckpoint)?;
        let base = decode_records::<D>(&cp.records).map_err(RecoverError::Codec)?;
        let mut frames = Vec::new();
        let mut malformed = None;
        let tail = scan_wal(&self.wal, |seq, payload| {
            // A capture racing a checkpoint can hold records the
            // checkpoint already covers; the watermark filter keeps
            // replay exactly-once.
            if seq <= cp.wal_seq || malformed.is_some() {
                return;
            }
            let batch = batch_records(payload)
                .and_then(|(frame, set)| Ok((frame, decode_records::<D>(set)?)));
            match batch {
                Ok((frame, recs)) => {
                    let batch: Vec<_> = recs.into_iter().map(|rec| (rec, rec.seg.t.lo)).collect();
                    frames.push((frame, batch));
                }
                Err(msg) => malformed = Some(msg),
            }
        })
        .map_err(RecoverError::Wal)?;
        if let Some(msg) = malformed {
            return Err(RecoverError::Codec(msg));
        }
        let report = RecoveryReport {
            replayed_frames: frames.len() as u64,
            replayed_records: frames.iter().map(|(_, batch)| batch.len() as u64).sum(),
            tail,
        };
        Ok((base, frames, report))
    }
}

/// Bytes of one encoded record.
const fn rec_len<const D: usize>() -> usize {
    <NsiSegmentRecord<D> as Record>::ENCODED_LEN
}

/// Append the one record-set codec, `count u32 ‖ [record bytes]*`, to
/// `buf`: a checkpoint's body, and a WAL batch's payload behind its
/// frame number.
fn encode_records<const D: usize>(
    records: impl ExactSizeIterator<Item = NsiSegmentRecord<D>>,
    buf: &mut Vec<u8>,
) {
    buf.reserve(4 + records.len() * rec_len::<D>());
    buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for rec in records {
        rec.encode(buf);
    }
}

/// Check a record set's framing; returns its `count` records' bytes.
fn record_bytes<const D: usize>(buf: &[u8]) -> Result<&[u8], String> {
    let (count, records) = buf
        .split_first_chunk::<4>()
        .ok_or_else(|| format!("record set too short: {} bytes", buf.len()))?;
    let count = u32::from_le_bytes(*count) as usize;
    if records.len() != count * rec_len::<D>() {
        return Err(format!(
            "record set length {} does not match {count} records",
            buf.len()
        ));
    }
    Ok(records)
}

fn decode_records<const D: usize>(buf: &[u8]) -> Result<Vec<NsiSegmentRecord<D>>, String> {
    let records = record_bytes::<D>(buf)?;
    Ok(records
        .chunks_exact(rec_len::<D>())
        .map(<NsiSegmentRecord<D> as Record>::decode)
        .collect())
}

/// Split a WAL batch payload, `frame u64 ‖ record set`, into its parts.
fn batch_records(payload: &[u8]) -> Result<(u64, &[u8]), String> {
    let (frame, set) = payload
        .split_first_chunk::<8>()
        .ok_or_else(|| format!("batch payload too short: {} bytes", payload.len()))?;
    Ok((u64::from_le_bytes(*frame), set))
}

/// The body of [`DurableLog::fold_checkpoint`]: append to `cp` the record
/// bytes of every batch in `wal` past `cp.wal_seq`, fix up its count and
/// advance its watermark to the last record folded. All or nothing — on
/// any error `cp` is left as it was.
fn fold_tail<const D: usize>(cp: &mut LogicalCheckpoint, wal: &[u8]) -> Result<u64, RecoverError> {
    let rec_len = rec_len::<D>();
    let base_len = cp.records.len();
    if base_len != 4 + cp.count as usize * rec_len {
        return Err(RecoverError::Codec(format!(
            "record set length {base_len} does not match {} records",
            cp.count
        )));
    }
    let (mut watermark, records) = (cp.wal_seq, &mut cp.records);
    let mut malformed = None;
    let scanned = scan_wal(wal, |seq, payload| {
        // Same exactly-once filter recovery applies.
        if seq <= watermark || malformed.is_some() {
            return;
        }
        match batch_records(payload).and_then(|(_, set)| record_bytes::<D>(set)) {
            Ok(batch) => {
                records.extend_from_slice(batch);
                watermark = seq;
            }
            Err(msg) => malformed = Some(msg),
        }
    });
    let folded = ((records.len() - base_len) / rec_len) as u64;
    let count = match (scanned, malformed) {
        (Err(e), _) => Err(RecoverError::Wal(e)),
        (Ok(_), Some(msg)) => Err(RecoverError::Codec(msg)),
        (Ok(tail), None) if !tail.is_clean() => Err(RecoverError::DamagedLog(tail)),
        (Ok(_), None) => u32::try_from(u64::from(cp.count) + folded).map_err(|_| {
            RecoverError::Codec(format!(
                "{folded} more records overflow a record set of {}",
                cp.count
            ))
        }),
    };
    match count {
        Ok(count) => {
            cp.count = count;
            cp.records[..4].copy_from_slice(&count.to_le_bytes());
            cp.wal_seq = watermark;
            Ok(folded)
        }
        Err(e) => {
            cp.records.truncate(base_len);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stkit::Interval;

    type R = NsiSegmentRecord<2>;

    fn rec(oid: u32, x: f64, t: f64) -> R {
        R::new(oid, 0, Interval::new(t, 100.0), [x, 0.5], [x, 0.5])
    }

    /// A frame's batch as recovery hands it back, from a WAL image.
    fn recover_batch(wal: &[u8]) -> Result<(u64, Vec<(R, f64)>), RecoverError> {
        let image = DurableImage {
            checkpoint: Some(LogicalCheckpoint {
                records: 0u32.to_le_bytes().to_vec(),
                count: 0,
                wal_seq: 0,
            }),
            wal: wal.to_vec(),
        };
        let (_, mut frames, _) = image.recover_records::<2>()?;
        Ok(frames.pop().expect("one committed frame"))
    }

    #[test]
    fn batch_codec_roundtrip() {
        let recs: Vec<R> = (0..5).map(|i| rec(i, f64::from(i), 0.25)).collect();
        let log = DurableLog::new(0);
        log.commit_frame(7, &recs.iter().map(|&r| (r, -1.0)).collect::<Vec<_>>());
        // The `f64` a commit is handed is not stored: recovery pairs each
        // record with its segment start.
        let paired: Vec<(R, f64)> = recs.iter().map(|&r| (r, 0.25)).collect();
        assert_eq!(recover_batch(&log.durable_image().wal).unwrap(), (7, paired));
        // Empty batches are legal group commits.
        let log = DurableLog::new(0);
        log.commit_frame::<2>(9, &[]);
        assert_eq!(recover_batch(&log.durable_image().wal).unwrap(), (9, Vec::new()));
        // Truncated and padded payloads are typed errors, not panics.
        let mut payload = 3u64.to_le_bytes().to_vec();
        encode_records(recs.iter().copied(), &mut payload);
        for bad in [&payload[..payload.len() - 1], &payload[..11], &payload[..7]] {
            let wal = Wal::new();
            wal.commit(bad);
            assert!(matches!(recover_batch(&wal.image()), Err(RecoverError::Codec(_))));
        }
    }

    #[test]
    fn a_batch_with_an_f64_behind_each_record_is_a_codec_error() {
        // The payload an older build committed: `frame ‖ count ‖ [record
        // bytes ‖ now f64]*`. Recovery refuses it with a typed error, and
        // so does a fold of a live log holding it.
        let mut payload = 5u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&2u32.to_le_bytes());
        for i in 0..2 {
            rec(i, 1.0, 0.0).encode(&mut payload);
            payload.extend_from_slice(&0.5f64.to_le_bytes());
        }
        let wal = Wal::new();
        wal.commit(&payload);
        assert!(matches!(recover_batch(&wal.image()), Err(RecoverError::Codec(_))));
        let mut cp = LogicalCheckpoint {
            records: 0u32.to_le_bytes().to_vec(),
            count: 0,
            wal_seq: 0,
        };
        assert!(matches!(fold_tail::<2>(&mut cp, &wal.image()), Err(RecoverError::Codec(_))));
        assert_eq!((cp.records.len(), cp.count), (4, 0));
    }

    #[test]
    fn recover_without_checkpoint_is_a_typed_error() {
        let log = DurableLog::new(4);
        log.commit_frame(0, &[(rec(1, 1.0, 0.0), 0.0)]);
        let image = log.durable_image();
        assert!(matches!(
            image.recover_records::<2>(),
            Err(RecoverError::NoCheckpoint)
        ));
    }

    #[test]
    fn logical_checkpoint_roundtrips_records_and_frames() {
        let base: Vec<R> = (0..12).map(|i| rec(i, f64::from(i), 0.0)).collect();
        let log = DurableLog::new(0);
        log.checkpoint_logical(&base);
        let batch = vec![(rec(500, 3.25, 1.0), 1.0), (rec(501, 7.25, 1.0), 1.0)];
        log.commit_frame(4, &batch);
        let (got_base, frames, report) = log.durable_image().recover_records::<2>().unwrap();
        assert_eq!(got_base, base);
        assert_eq!(frames, vec![(4, batch)]);
        assert_eq!(report.replayed_frames, 1);
        assert_eq!(report.replayed_records, 2);
        assert!(report.tail.is_clean());
    }

    /// Every record recovery would hand back — base then replayed
    /// frames — by oid.
    fn recovered_oids(image: &DurableImage) -> (Vec<u32>, RecoveryReport) {
        let (base, frames, report) = image.recover_records::<2>().unwrap();
        let replayed = frames
            .iter()
            .flat_map(|(_, b)| b.iter().map(|(r, _)| r.oid));
        (base.iter().map(|r| r.oid).chain(replayed).collect(), report)
    }

    #[test]
    fn fold_moves_the_wal_tail_into_the_checkpoint() {
        let base: Vec<R> = (0..6).map(|i| rec(i, f64::from(i), 0.0)).collect();
        let log = DurableLog::new(2);
        let registry = obs::MetricsRegistry::new();
        log.attach_metrics(&registry);
        log.checkpoint_logical(&base);
        for k in 0..2u32 {
            let batch: Vec<(R, f64)> = (0..3)
                .map(|j| (rec(100 + k * 3 + j, 0.5, 1.0), 1.0))
                .collect();
            log.commit_frame(u64::from(k), &batch);
        }
        let before = log.durable_image();
        assert!(log.due_for_checkpoint());
        assert_eq!(log.fold_checkpoint::<2>().unwrap(), 6);
        assert!(!log.due_for_checkpoint());

        // Same records in the same order; they only changed sides.
        let after = log.durable_image();
        let (want, replayed_before) = recovered_oids(&before);
        let (got, replayed_after) = recovered_oids(&after);
        assert_eq!(got, want);
        assert_eq!(replayed_before.replayed_records, 6);
        assert_eq!(replayed_after.replayed_records, 0);
        let cp = after.checkpoint.as_ref().expect("fold keeps the checkpoint");
        assert_eq!((cp.count, cp.wal_seq), (12, 2));
        assert_eq!(after.wal.len(), 8, "WAL truncated to its header");

        // An empty tail folds to the same checkpoint; the next commit
        // replays alone (seq continuity across the fold).
        assert_eq!(log.fold_checkpoint::<2>().unwrap(), 0);
        log.commit_frame(2, &[(rec(200, 0.5, 2.0), 2.0)]);
        let (got, report) = recovered_oids(&log.durable_image());
        assert_eq!(got.len(), 13);
        assert_eq!(report.replayed_records, 1);

        let stats = log.stats();
        assert_eq!(stats.checkpoints, 3);
        assert_eq!(stats.checkpoint_records, 12);
        assert_eq!(stats.wal.truncations, 3);
        assert_eq!(registry.counter_value("wal.checkpoint_records"), 12);
        assert_eq!(registry.histogram("wal.checkpoint_ns").count(), 3);
    }

    #[test]
    fn fold_without_a_base_is_refused_and_counted() {
        let log = DurableLog::new(0);
        log.commit_frame(0, &[(rec(1, 1.0, 0.0), 0.0)]);
        assert!(matches!(
            log.fold_checkpoint::<2>(),
            Err(RecoverError::NoCheckpoint)
        ));
        let stats = log.stats();
        assert_eq!((stats.checkpoints, stats.checkpoint_failures), (0, 1));
        // The refused fold truncated nothing, and a base offered after a
        // commit is refused too: it cannot vouch for that batch.
        assert!(!log.checkpoint_logical::<2>(&[]));
        assert_eq!(log.stats().checkpoint_failures, 2);
        let image = log.durable_image();
        assert!(matches!(image.recover_records::<2>(), Err(RecoverError::NoCheckpoint)));
        assert_eq!(recover_batch(&image.wal).unwrap(), (0, vec![(rec(1, 1.0, 0.0), 0.0)]));
    }

    #[test]
    fn fold_of_a_damaged_log_leaves_the_checkpoint_untouched() {
        let log = DurableLog::new(0);
        log.checkpoint_logical(&[rec(0, 0.5, 0.0)]);
        log.commit_frame(0, &[(rec(1, 1.5, 0.0), 0.0)]);
        log.commit_frame(1, &[(rec(2, 2.5, 0.0), 0.0)]);
        let image = log.durable_image();
        let cp = image.checkpoint.expect("checkpoint installed above");
        // Torn inside, and bit-flipped inside, the last record: the first
        // record scans fine and must still not be folded.
        let mut torn = image.wal.clone();
        torn.truncate(torn.len() - 3);
        let mut flipped = image.wal.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        for wal in [torn, flipped] {
            let mut copy = cp.clone();
            assert!(matches!(
                fold_tail::<2>(&mut copy, &wal),
                Err(RecoverError::DamagedLog(_))
            ));
            assert_eq!((copy.records.len(), copy.count), (cp.records.len(), 1));
        }
        let mut copy = cp.clone();
        assert_eq!(fold_tail::<2>(&mut copy, &image.wal).unwrap(), 2);
        assert_eq!(decode_records::<2>(&copy.records).unwrap().len(), 3);
        assert_eq!((copy.count, copy.wal_seq), (3, 2));
        // Folding the same image again is a no-op: the watermark filters.
        assert_eq!(fold_tail::<2>(&mut copy, &image.wal).unwrap(), 0);
        assert_eq!((copy.count, copy.wal_seq), (3, 2));
    }

    /// A committer, a folder and a capturer share one log with no
    /// ordering between them: every captured image must recover exactly
    /// a prefix of the commit sequence, in order — nothing lost between a
    /// WAL append and a fold, nothing on both sides of the watermark.
    #[test]
    fn concurrent_commit_fold_and_capture_always_recover_a_prefix() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const COMMITS: u32 = 20_000;
        let log = DurableLog::new(0);
        log.checkpoint_logical::<2>(&[]);
        // Records `image` recovers, having checked they are commits
        // 0..m whole and in order.
        let prefix_len = |image: DurableImage| {
            let (oids, report) = recovered_oids(&image);
            assert!(report.tail.is_clean());
            assert_eq!(oids.len() % 2, 0, "a commit is all or nothing");
            assert!(
                oids.iter().copied().eq(0..oids.len() as u32),
                "image is not a prefix of the commits: {oids:?}"
            );
            oids.len()
        };
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);
        let (captures, folds) = std::thread::scope(|scope| {
            let folder = scope.spawn(|| {
                start.wait();
                let mut folds = 0u64;
                while !done.load(Ordering::Acquire) {
                    log.fold_checkpoint::<2>().unwrap();
                    folds += 1;
                }
                folds
            });
            let capturer = scope.spawn(|| {
                start.wait();
                let (mut captures, mut longest) = (0u64, 0);
                while !done.load(Ordering::Acquire) {
                    let len = prefix_len(log.durable_image());
                    assert!(len >= longest, "a later image recovered less");
                    longest = len;
                    captures += 1;
                }
                captures
            });
            // Two records per commit, oids counting up across commits.
            start.wait();
            for k in 0..COMMITS {
                let batch = [(rec(2 * k, 0.5, 0.0), 0.0), (rec(2 * k + 1, 0.5, 0.0), 0.0)];
                log.commit_frame(u64::from(k), &batch);
            }
            done.store(true, Ordering::Release);
            (capturer.join().unwrap(), folder.join().unwrap())
        });
        assert!(folds > 0 && captures > 0);
        assert_eq!(prefix_len(log.durable_image()), 2 * COMMITS as usize);
    }

    /// A checkpoint costs the delta, not the index: the same 128-record
    /// delta committed over a base of N and of 4N records grows the
    /// checkpoint by exactly those records, and `checkpoint_now` moves no
    /// region tree's level counters — it never reads a node.
    #[test]
    fn checkpoint_now_folds_the_delta_and_reads_no_tree() {
        use crate::{PartitionedDqServer, RegionGrid};
        use rtree::{RTree, RTreeConfig};
        for base in [2_000u32, 8_000] {
            let preload: Vec<R> = (0..base)
                .map(|oid| rec(oid, f64::from(oid % 997) * 0.1, 0.0))
                .collect();
            let log = Arc::new(DurableLog::new(0));
            let server = PartitionedDqServer::build(
                RegionGrid::from_cuts(0, vec![25.0, 50.0, 75.0]),
                &preload,
                |_| RTree::new(storage::Pager::new(), RTreeConfig::default()),
            )
            .with_durability(Arc::clone(&log));
            assert!(server.checkpoint_now(), "the base checkpoint, the one tree scan");
            let levels = || {
                (0..4)
                    .map(|r| server.with_region_tree(r, |t| t.level_counters().snapshot()))
                    .collect::<Vec<_>>()
            };
            let (records, read) = (log.stats().checkpoint_records, levels());
            for frame in 0..8u32 {
                let batch: Vec<(R, f64)> = (0..16)
                    .map(|j| (rec(base + frame * 16 + j, 50.0, 1.0), 1.0))
                    .collect();
                log.commit_frame(u64::from(frame), &batch);
            }
            assert!(server.checkpoint_now());
            assert_eq!(log.stats().checkpoint_records, records + 128, "base {base}");
            assert_eq!(levels(), read, "base {base}: the checkpoint read a tree");
        }
    }
}
