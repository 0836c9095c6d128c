//! Measuring from outside: a timing [`PageStore`] wrapper for the traced
//! run, a uniform view of a pool's counters, the process's own CPU time
//! and peak memory, and what steadies a run on a shared host: confining
//! it to one CPU and sampling the host's speed.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use storage::{
    CacheStats, IoSnapshot, PageId, PageRef, PageStore, ShardedBufferPool, StorageError,
};

/// What the correctness identities and the storage metrics read off one
/// region's pool, whatever stack sits around it.
pub trait PoolProbe: Send + Sync {
    fn cache_stats(&self) -> CacheStats;
    /// Counters of the device below the pool.
    fn device_io(&self) -> IoSnapshot;
}

impl<S: PageStore + Send + Sync> PoolProbe for ShardedBufferPool<S> {
    fn cache_stats(&self) -> CacheStats {
        ShardedBufferPool::cache_stats(self)
    }
    fn device_io(&self) -> IoSnapshot {
        self.io()
    }
}

impl<P: PoolProbe> PoolProbe for Timed<P> {
    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }
    fn device_io(&self) -> IoSnapshot {
        self.inner.device_io()
    }
}

/// Reads and the time they took, as seen at one layer boundary, split
/// by the class of the calling thread.
#[derive(Default)]
pub struct LayerTally {
    pub reader_reads: AtomicU64,
    pub reader_ns: AtomicU64,
    pub writer_reads: AtomicU64,
    pub writer_ns: AtomicU64,
}

/// Which boundary a [`Timed`] wrapper sits at; selects the thread-local
/// running total the frame sink reads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    AbovePool,
    BelowPool,
}

thread_local! {
    /// A thread that has issued a `write` is a region writer from then on.
    static IS_WRITER: Cell<bool> = const { Cell::new(false) };
    /// This thread's cumulative read time above / below the pool.
    static POOL_NS: Cell<u64> = const { Cell::new(0) };
    static DEVICE_NS: Cell<u64> = const { Cell::new(0) };
}

/// `(pool ns, device ns)` this thread has spent in timed reads so far.
/// The frame sink diffs it between frames: same-thread time only.
pub fn thread_read_ns() -> (u64, u64) {
    (POOL_NS.with(Cell::get), DEVICE_NS.with(Cell::get))
}

/// A [`PageStore`] that times every read passing through it.
pub struct Timed<S> {
    inner: S,
    at: Boundary,
    tally: Arc<LayerTally>,
}

impl<S> Timed<S> {
    pub fn new(inner: S, at: Boundary, tally: Arc<LayerTally>) -> Self {
        Timed { inner, at, tally }
    }
}

impl<S: PageStore> PageStore for Timed<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn try_read_page(&self, id: PageId) -> Result<PageRef, StorageError> {
        let started = Instant::now();
        let page = self.inner.try_read_page(id);
        let ns = started.elapsed().as_nanos() as u64;
        let local = match self.at {
            Boundary::AbovePool => &POOL_NS,
            Boundary::BelowPool => &DEVICE_NS,
        };
        local.with(|c| c.set(c.get() + ns));
        let (reads, time) = if IS_WRITER.with(Cell::get) {
            (&self.tally.writer_reads, &self.tally.writer_ns)
        } else {
            (&self.tally.reader_reads, &self.tally.reader_ns)
        };
        reads.fetch_add(1, Ordering::Relaxed);
        time.fetch_add(ns, Ordering::Relaxed);
        page
    }

    fn write(&self, id: PageId, data: &[u8]) {
        IS_WRITER.with(|w| w.set(true));
        self.inner.write(id, data)
    }

    fn try_alloc(&self) -> Result<PageId, StorageError> {
        self.inner.try_alloc()
    }

    fn free(&self, id: PageId) {
        self.inner.free(id)
    }

    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, spec: *mut i64) -> i32;
}

/// Confine this process, and every thread it starts from here on, to
/// the lowest-numbered CPU it is allowed on. Returns that CPU, or
/// `None` where the kernel refuses (the run then goes on unconfined).
///
/// A workload runs 7 to 9 threads in lock step (sessions, region
/// writers, pumps, clients). On the 2 CPUs of a shared host, where they
/// land and which CPU the neighbours take at that moment decided the
/// number: repeats of one seed spread by 12-15 %. On one CPU the
/// hand-offs are the same every time, throughput on `ingest` is within
/// 5 % of two CPUs, and ten different seeds spread by 5 %. What this
/// gives up: the benchmark scores CPU work and hand-off cost per frame,
/// not how the core scales across CPUs.
pub fn confine_to_one_cpu() -> Option<usize> {
    // 1024 CPUs, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and outlives both calls; pid 0 is
    // the calling thread, which at this point is the only one.
    unsafe {
        if sched_getaffinity(0, bytes, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let word = mask.iter().position(|w| *w != 0)?;
        let bit = mask[word].trailing_zeros() as usize;
        mask = [0u64; 16];
        mask[word] = 1 << bit;
        (sched_setaffinity(0, bytes, mask.as_ptr()) == 0).then_some(word * 64 + bit)
    }
}

/// The reference work: window queries over a fixed table of rectangles,
/// 64 to a 2 KB page, each query scanning one pseudo-randomly chosen
/// page for overlaps. It has the branch, arithmetic and memory mix of an
/// R-tree node visit, belongs to the benchmark, and never changes with
/// the program. The table is 1 MB, half a core's L2: a neighbour that
/// thrashes the shared caches slows it as it slows the program. (A
/// 16 KB table followed the fast ups and downs as well but felt the
/// host's slow phases less than the program did, and left 15 % of them
/// in; an 8 MB one mostly measured what the program's own index build
/// had just done to the caches.)
const REFERENCE_FANOUT: usize = 64;
const REFERENCE_PAGES: usize = 512;
/// Queries in one slice of reference work.
const SLICE_QUERIES: usize = 1_500;
/// CPU seconds a slice takes on an undisturbed CPU of the host the
/// workloads were sized on: the fastest 1 % of a run's slices in the
/// host's better phases.
const QUIET_SLICE_S: f64 = 480e-6;
/// A slice every this often: about 3 % of the one CPU.
const SLICE_EVERY: Duration = Duration::from_millis(20);

/// The host's speed, sampled all through a run. A shared host slows
/// the same code down by up to a half for seconds or minutes at a time
/// (CPU time per frame rises with it, so it is not time off the CPU),
/// which no fold over one run's episodes can remove. So a thread on the
/// run's own CPU does one slice of the reference work every
/// [`SLICE_EVERY`] and records how much CPU time it took.
pub struct HostSpeed {
    /// `(process clock, CPU seconds the slice took)`, in time order.
    slices: Arc<Mutex<Vec<(f64, f64)>>>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl HostSpeed {
    pub fn start() -> HostSpeed {
        let slices = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (slices, stop) = (Arc::clone(&slices), Arc::clone(&stop));
            std::thread::spawn(move || {
                let table = reference_table();
                let mut state = 2;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(SLICE_EVERY);
                    let before = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
                    reference_slice(&table, &mut state);
                    let took = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - before;
                    slices.lock().expect("sampler lock").push((now_s(), took));
                }
            })
        };
        HostSpeed {
            slices,
            stop,
            sampler: Some(sampler),
        }
    }

    /// The share of its undisturbed speed the host ran at between two
    /// readings of [`now_s`]: [`QUIET_SLICE_S`] over the median slice of
    /// the window, or over the nearest slice when the window holds none.
    /// Time spent computing in the window, times this, is what the same
    /// work takes on the undisturbed host.
    pub fn share_of_quiet(&self, from_s: f64, to_s: f64) -> f64 {
        let slices = self.slices.lock().expect("sampler lock");
        let mut inside: Vec<f64> = slices
            .iter()
            .filter(|(at, _)| (from_s..=to_s).contains(at))
            .map(|(_, took)| *took)
            .collect();
        inside.sort_by(f64::total_cmp);
        let mid = (from_s + to_s) / 2.0;
        let typical = inside.get(inside.len() / 2).copied().or_else(|| {
            slices
                .iter()
                .min_by(|a, b| (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs()))
                .map(|(_, took)| *took)
        });
        typical.map_or(1.0, |slice_s| QUIET_SLICE_S / slice_s)
    }

    /// `(median, fastest 1 %)` of every slice so far, in CPU seconds:
    /// what to set [`QUIET_SLICE_S`] from on another host.
    pub fn slices_s(&self) -> (f64, f64) {
        let mut took: Vec<f64> = self
            .slices
            .lock()
            .expect("sampler lock")
            .iter()
            .map(|s| s.1)
            .collect();
        took.sort_by(f64::total_cmp);
        let at = |share: usize| {
            took.get(took.len() * share / 100)
                .copied()
                .unwrap_or(f64::NAN)
        };
        (at(50), at(1))
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            sampler.join().expect("sampler thread");
        }
    }
}

/// Coordinates in [0, 1) from a 64-bit LCG.
fn coordinate(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

fn reference_table() -> Vec<[f64; 4]> {
    let mut state = 1;
    let mut next = || coordinate(&mut state);
    (0..REFERENCE_PAGES * REFERENCE_FANOUT)
        .map(|_| {
            let (x0, y0) = (next(), next());
            [x0, y0, x0 + 0.1 * next(), y0 + 0.1 * next()]
        })
        .collect()
}

fn reference_slice(table: &[[f64; 4]], state: &mut u64) {
    let mut overlaps = 0usize;
    for _ in 0..SLICE_QUERIES {
        let (qx, qy) = (coordinate(state), coordinate(state));
        // The next page depends on what this one held, as a descent's does.
        let page = ((*state >> 33) as usize).wrapping_add(overlaps) % REFERENCE_PAGES;
        let rects = &table[page * REFERENCE_FANOUT..(page + 1) * REFERENCE_FANOUT];
        overlaps += rects
            .iter()
            .filter(|r| r[0] <= qx + 0.1 && r[2] >= qx && r[1] <= qy + 0.1 && r[3] >= qy)
            .count();
    }
    std::hint::black_box(overlaps);
}

/// Seconds since this process first asked: the clock [`HostSpeed`]
/// windows are given on.
pub fn now_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    // `struct timespec` of every 64-bit Linux target: seconds, nanoseconds.
    let mut spec = [0i64; 2];
    // SAFETY: `spec` is the two machine words the call fills in.
    let failed = unsafe { clock_gettime(clock, spec.as_mut_ptr()) };
    assert_eq!(failed, 0, "the CPU-time clocks are readable");
    spec[0] as f64 + spec[1] as f64 / 1e9
}

/// CPU seconds this process has consumed, user and system, exited
/// threads included (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::Pager;

    #[test]
    fn timed_store_counts_reads_and_classes_writers() {
        let tally = Arc::new(LayerTally::default());
        let store = Timed::new(Pager::new(), Boundary::AbovePool, Arc::clone(&tally));
        let id = store.alloc();
        // A fresh thread reads only: a reader.
        std::thread::scope(|s| {
            s.spawn(|| {
                let before = thread_read_ns().0;
                store.read_page(id);
                assert!(thread_read_ns().0 >= before);
            });
        });
        assert_eq!(tally.reader_reads.load(Ordering::Relaxed), 1);
        // A thread that writes is a writer for its later reads.
        std::thread::scope(|s| {
            s.spawn(|| {
                store.write(id, &[1, 2, 3]);
                store.read_page(id);
            });
        });
        assert_eq!(tally.writer_reads.load(Ordering::Relaxed), 1);
        assert_eq!(tally.reader_reads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn host_speed_is_the_median_slice_of_the_window_or_the_nearest() {
        let slices = [(1.0, 2.0), (2.0, 1.0), (3.0, 4.0), (9.0, 0.5)]
            .map(|(at, quiet_slices)| (at, quiet_slices * QUIET_SLICE_S));
        let host = HostSpeed {
            slices: Arc::new(Mutex::new(slices.to_vec())),
            stop: Arc::default(),
            sampler: None,
        };
        // Slices of 2, 1 and 4 quiet ones: the median is 2, half speed.
        assert!((host.share_of_quiet(0.5, 3.5) - 0.5).abs() < 1e-12);
        assert!((host.share_of_quiet(1.5, 2.5) - 1.0).abs() < 1e-12);
        // No slice inside: the one nearest the middle of the window.
        assert!((host.share_of_quiet(7.0, 8.0) - 2.0).abs() < 1e-12);
        assert!((host.share_of_quiet(3.2, 3.4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn the_sampler_takes_slices_and_stops() {
        let host = HostSpeed::start();
        let from = now_s();
        std::thread::sleep(4 * SLICE_EVERY);
        let share = host.share_of_quiet(from, now_s());
        assert!(share > 0.05 && share < 20.0, "{share}");
        drop(host);
    }

    #[test]
    fn process_counters_are_readable() {
        let before = process_cpu_s();
        std::hint::black_box((0..2_000_000u64).sum::<u64>());
        assert!(process_cpu_s() > before && before >= 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
