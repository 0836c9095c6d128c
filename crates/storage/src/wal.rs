//! Write-ahead log with group commit for the durable write path.
//!
//! The serving write path applies one batch of motion segments per frame.
//! Durability therefore has a natural group-commit unit: each frame's
//! whole batch is appended as **one** length-prefixed, checksummed WAL
//! record *before* any page of the tree is written, and one simulated
//! `fsync` covers the group. A crash at any instant loses at most the
//! frames whose records never became durable; recovery is the last
//! checkpoint plus replay of every complete record, stopping cleanly at
//! the first torn, truncated, or checksum-failing byte.
//!
//! ## Record format
//!
//! ```text
//! file:   magic "DQWL" ‖ version u32
//! record: payload_len u32 ‖ seq u64 ‖ fnv1a u64 ‖ payload bytes
//! ```
//!
//! `seq` increases by one per record and survives truncation at
//! checkpoint, so replay can verify it resumes exactly where the
//! checkpoint left off. The checksum (the same FNV-1a as
//! [`page_checksum`](crate::fault::page_checksum)) covers `seq` and the
//! payload, so a bit flip anywhere in a record surfaces as a
//! [`WalTail::Corrupt`] stop, never as garbage replay.
//!
//! ## Crash model
//!
//! The log lives in memory like the rest of the simulated disk, but its
//! byte image — [`Wal::image`] — *is* the durable medium: crash tests
//! snapshot it at arbitrary points, truncate or flip its tail, and
//! recover from what remains. [`scan`] is total: any byte stream in,
//! typed verdict out, no panics.

use crate::fault::{checksum_extend, page_checksum};
use parking_lot::Mutex;
use std::time::Instant;

const MAGIC: &[u8; 4] = b"DQWL";
const VERSION: u32 = 1;
/// Per-record fixed header: payload_len u32 ‖ seq u64 ‖ fnv1a u64.
const RECORD_HEADER: usize = 4 + 8 + 8;
/// Bytes a record occupies beyond its payload (the fixed record header)
/// — lets callers report exact appended sizes without knowing the format.
pub const WAL_RECORD_OVERHEAD: usize = RECORD_HEADER;
/// Largest believable record payload: [`scan`] reads a longer length
/// prefix as corruption, not as a torn tail.
const MAX_WAL_RECORD: usize = 1 << 26;

/// Append-only write-ahead log over an in-memory durable image.
pub struct Wal {
    state: Mutex<WalState>,
    metrics: Mutex<Option<WalMetrics>>,
}

struct WalState {
    buf: Vec<u8>,
    next_seq: u64,
    stats: WalStats,
}

struct WalMetrics {
    appends: std::sync::Arc<obs::Counter>,
    commit_ns: std::sync::Arc<obs::Histogram>,
}

/// Counters for the log's lifetime (survive checkpoint truncation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Group-committed records appended.
    pub appends: u64,
    /// Payload + header bytes made durable (including truncated-away).
    pub appended_bytes: u64,
    /// Checkpoint truncations performed.
    pub truncations: u64,
    /// Total nanoseconds spent in group commits.
    pub commit_ns: u64,
}

impl Wal {
    /// An empty log (header only), sequence numbers starting at 1.
    pub fn new() -> Wal {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        Wal {
            state: Mutex::new(WalState {
                buf,
                next_seq: 1,
                stats: WalStats::default(),
            }),
            metrics: Mutex::new(None),
        }
    }

    /// Mirror commit counters into `registry` as `wal.appends` and the
    /// `wal.group_commit_ns` histogram (push-model, updated per commit).
    pub fn attach_metrics(&self, registry: &obs::MetricsRegistry) {
        *self.metrics.lock() = Some(WalMetrics {
            appends: registry.counter("wal.appends"),
            commit_ns: registry.histogram("wal.group_commit_ns"),
        });
    }

    /// Group-commit one record: append `payload` length-prefixed and
    /// checksummed, then make it durable (one simulated fsync for the
    /// whole group). Returns the record's sequence number.
    pub fn commit(&self, payload: &[u8]) -> u64 {
        assert!(payload.len() <= MAX_WAL_RECORD, "WAL record too large");
        let started = Instant::now();
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.buf.reserve(RECORD_HEADER + payload.len());
        st.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        st.buf.extend_from_slice(&seq.to_le_bytes());
        st.buf
            .extend_from_slice(&record_checksum(seq, payload).to_le_bytes());
        st.buf.extend_from_slice(payload);
        let ns = started.elapsed().as_nanos() as u64;
        st.stats.appends += 1;
        st.stats.appended_bytes += (RECORD_HEADER + payload.len()) as u64;
        st.stats.commit_ns += ns;
        drop(st);
        if let Some(m) = &*self.metrics.lock() {
            m.appends.add(1);
            m.commit_ns.record(ns);
        }
        seq
    }

    /// Truncate the log at a checkpoint: every record is now covered by
    /// the checkpoint snapshot, so the image resets to header-only.
    /// Sequence numbers keep counting — the next commit's `seq` is
    /// returned watermark + 1 — so replay can prove it resumes exactly at
    /// the checkpoint. Returns the last committed sequence number (0 when
    /// nothing was ever committed).
    pub fn truncate_for_checkpoint(&self) -> u64 {
        let mut st = self.state.lock();
        st.buf.truncate(MAGIC.len() + 4);
        st.stats.truncations += 1;
        st.next_seq - 1
    }

    /// The durable byte image: header plus every committed record. Crash
    /// harnesses snapshot this, mutilate the tail, and hand it back to
    /// [`scan`].
    pub fn image(&self) -> Vec<u8> {
        self.state.lock().buf.clone()
    }

    /// Run `f` over the durable byte image in place — what
    /// [`Self::image`] would clone. Commits block while `f` runs.
    pub fn with_image<T>(&self, f: impl FnOnce(&[u8]) -> T) -> T {
        f(&self.state.lock().buf)
    }

    /// Lifetime counters (not reset by checkpoint truncation).
    pub fn stats(&self) -> WalStats {
        self.state.lock().stats
    }
}

impl Default for Wal {
    fn default() -> Wal {
        Wal::new()
    }
}

/// [`page_checksum`] of `seq_le ++ payload`, without building it.
fn record_checksum(seq: u64, payload: &[u8]) -> u64 {
    checksum_extend(page_checksum(&seq.to_le_bytes()), payload)
}

/// Where and why [`scan`] stopped reading.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// The image ended exactly at a record boundary.
    Clean,
    /// The image ended mid-record (torn group commit): the bytes from
    /// `offset` on do not form a complete record.
    Torn {
        /// Byte offset of the first incomplete record.
        offset: usize,
    },
    /// A complete-looking record at `offset` failed validation (checksum
    /// mismatch, implausible length, or a sequence break).
    Corrupt {
        /// Byte offset of the failing record.
        offset: usize,
        /// Human-readable reason, for logs.
        reason: String,
    },
}

impl WalTail {
    /// Whether the scan consumed the whole image.
    pub fn is_clean(&self) -> bool {
        matches!(self, WalTail::Clean)
    }
}

/// Errors that make a WAL image unusable *as a whole* (as opposed to a
/// damaged tail, which [`scan`] reports via [`WalTail`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// The image is shorter than the file header.
    TruncatedHeader,
    /// The image does not start with the WAL magic.
    BadMagic,
    /// The image's version is not one this build can replay.
    UnsupportedVersion(u32),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::TruncatedHeader => write!(f, "WAL image shorter than its header"),
            WalError::BadMagic => write!(f, "bad WAL magic"),
            WalError::UnsupportedVersion(v) => write!(f, "unsupported WAL version {v}"),
        }
    }
}

impl std::error::Error for WalError {}

/// Scan a durable WAL image: hand each complete, checksum-valid record's
/// `(seq, payload)` to `visit` in commit order, payloads borrowed from
/// `image`, and stop — never panicking — at the first torn, truncated,
/// or corrupt byte, returning where and why. A record whose `seq` does
/// not follow its predecessor's also stops the scan: replaying past a
/// hole would apply frames out of order. The one WAL parser: recovery
/// and the checkpoint fold both read through it.
pub fn scan(image: &[u8], mut visit: impl FnMut(u64, &[u8])) -> Result<WalTail, WalError> {
    let header = MAGIC.len() + 4;
    if image.len() < header {
        return Err(WalError::TruncatedHeader);
    }
    if &image[..MAGIC.len()] != MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = u32::from_le_bytes(image[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(WalError::UnsupportedVersion(version));
    }

    let mut off = header;
    let mut prev_seq: Option<u64> = None;
    loop {
        if off == image.len() {
            return Ok(WalTail::Clean);
        }
        if image.len() - off < RECORD_HEADER {
            return Ok(WalTail::Torn { offset: off });
        }
        let len = u32::from_le_bytes(image[off..off + 4].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(image[off + 4..off + 12].try_into().unwrap());
        let sum = u64::from_le_bytes(image[off + 12..off + 20].try_into().unwrap());
        if len > MAX_WAL_RECORD {
            return Ok(WalTail::Corrupt {
                offset: off,
                reason: format!("implausible record length {len}"),
            });
        }
        if image.len() - off - RECORD_HEADER < len {
            return Ok(WalTail::Torn { offset: off });
        }
        let payload = &image[off + RECORD_HEADER..off + RECORD_HEADER + len];
        if record_checksum(seq, payload) != sum {
            return Ok(WalTail::Corrupt {
                offset: off,
                reason: format!("checksum mismatch in record seq {seq}"),
            });
        }
        if let Some(prev) = prev_seq {
            if seq != prev + 1 {
                return Ok(WalTail::Corrupt {
                    offset: off,
                    reason: format!("sequence break: {seq} after {prev}"),
                });
            }
        }
        prev_seq = Some(seq);
        visit(seq, payload);
        off += RECORD_HEADER + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(seq, payload)` per record, in commit order.
    type Records = Vec<(u64, Vec<u8>)>;

    /// Every record `scan` hands over, copied, with its verdict.
    fn replay(image: &[u8]) -> Result<(Records, WalTail), WalError> {
        let mut records = Vec::new();
        let tail = scan(image, |seq, payload| records.push((seq, payload.to_vec())))?;
        Ok((records, tail))
    }

    #[test]
    fn commit_then_replay_roundtrip() {
        let wal = Wal::new();
        assert_eq!(wal.commit(b"frame-1"), 1);
        assert_eq!(wal.commit(b"frame-2 with more bytes"), 2);
        assert_eq!(wal.commit(b""), 3); // empty groups are legal
        let (records, tail) = replay(&wal.image()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].1, b"frame-1");
        assert_eq!(records[1].0, 2);
        assert_eq!(records[2].1, b"");
        let stats = wal.stats();
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.truncations, 0);
    }

    #[test]
    fn record_checksum_is_the_page_checksum_of_the_framed_record() {
        let payload = b"frame-7 payload";
        let mut framed = 7u64.to_le_bytes().to_vec();
        framed.extend_from_slice(payload);
        assert_eq!(record_checksum(7, payload), page_checksum(&framed));
        assert_eq!(record_checksum(7, b""), page_checksum(&7u64.to_le_bytes()));
    }

    #[test]
    fn truncation_keeps_sequence_counting() {
        let wal = Wal::new();
        wal.commit(b"a");
        wal.commit(b"b");
        assert_eq!(wal.truncate_for_checkpoint(), 2);
        assert_eq!(wal.commit(b"c"), 3);
        let (records, tail) = replay(&wal.image()).unwrap();
        assert_eq!(records.len(), 1, "checkpointed records are gone");
        assert_eq!(records[0].0, 3);
        assert!(tail.is_clean());
        assert_eq!(wal.stats().truncations, 1);
    }

    #[test]
    fn empty_log_replays_clean() {
        let wal = Wal::new();
        let (records, tail) = replay(&wal.image()).unwrap();
        assert!(records.is_empty());
        assert!(tail.is_clean());
        assert_eq!(wal.truncate_for_checkpoint(), 0, "nothing committed yet");
    }

    #[test]
    fn every_truncation_point_stops_at_last_complete_record() {
        let wal = Wal::new();
        wal.commit(b"first record");
        wal.commit(b"second record");
        let image = wal.image();
        let header = 8;
        let second_start = image.len() - (RECORD_HEADER + b"second record".len());
        for cut in header..=image.len() {
            let (records, tail) = replay(&image[..cut]).unwrap();
            if cut == header {
                assert_eq!((records.len(), tail.is_clean()), (0, true));
            } else if cut < second_start {
                assert_eq!(records.len(), 0, "cut {cut} inside record 1");
                assert_eq!(tail, WalTail::Torn { offset: header });
            } else if cut == second_start {
                assert_eq!((records.len(), tail.is_clean()), (1, true));
            } else if cut < image.len() {
                assert_eq!(records.len(), 1, "cut {cut} inside record 2");
                assert_eq!(
                    tail,
                    WalTail::Torn {
                        offset: second_start
                    }
                );
            } else {
                assert_eq!((records.len(), tail.is_clean()), (2, true));
            }
        }
        // Header-only truncations are header errors, not tails.
        for cut in 0..header {
            assert!(matches!(
                replay(&image[..cut]),
                Err(WalError::TruncatedHeader)
            ));
        }
    }

    #[test]
    fn bit_flip_anywhere_in_record_is_corrupt_stop() {
        let wal = Wal::new();
        wal.commit(b"good");
        wal.commit(b"bad half");
        let image = wal.image();
        let second_start = image.len() - (RECORD_HEADER + b"bad half".len());
        for pos in second_start..image.len() {
            let mut copy = image.clone();
            copy[pos] ^= 0x01;
            let (records, tail) = replay(&copy).unwrap();
            assert_eq!(records.len(), 1, "flip at {pos} must drop record 2");
            assert_eq!(records[0].1, b"good");
            assert!(!tail.is_clean(), "flip at {pos} must mark the tail");
        }
    }

    #[test]
    fn sequence_break_stops_replay() {
        // Graft a valid seq-3 record directly after a seq-1 record: both
        // checksums pass, but replaying across the hole would apply
        // frames out of order, so the scan must stop at the graft.
        let a = Wal::new();
        a.commit(b"one");
        let mut image = a.image();
        let c = Wal::new();
        c.commit(b"skip");
        c.commit(b"skip");
        c.commit(b"tail");
        let c_img = c.image();
        let third_start = c_img.len() - (RECORD_HEADER + b"tail".len());
        image.extend_from_slice(&c_img[third_start..]); // seq 3 after seq 1
        let (records, tail) = replay(&image).unwrap();
        assert_eq!(records.len(), 1);
        assert!(
            matches!(&tail, WalTail::Corrupt { reason, .. } if reason.contains("sequence")),
            "{tail:?}"
        );
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        assert!(matches!(replay(b"NOPE\x01\0\0\0"), Err(WalError::BadMagic)));
        let mut img = Wal::new().image();
        img[4] = 9;
        assert!(matches!(
            replay(&img),
            Err(WalError::UnsupportedVersion(9))
        ));
    }
}
