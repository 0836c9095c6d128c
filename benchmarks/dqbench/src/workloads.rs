//! The four named workloads. Every count is a fixed constant (never
//! derived from `nproc`), so numbers compare across hosts.

use crate::gen::Shape;

/// Which public surface a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Surface {
    /// `PartitionedDqServer::serve_plans_streamed` from one calling thread.
    InProcess,
    /// Loopback `NetServer` + one `NetClient` thread per session.
    Wire,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub surface: Surface,
    /// Attach `DurableLog::new(CHECKPOINT_EVERY)` and end with crash + recovery.
    pub durable: bool,
    /// Buffer-pool pages per region.
    pub pool_pages: usize,
    /// Wall seconds one episode of `shape.frames` takes, set-up and
    /// checks included, on one CPU of the host the workloads were sized
    /// on; a run of `--seconds S` makes `round(S / episode_s)` episodes.
    pub episode_s: f64,
    pub shape: Shape,
}

pub const REGIONS: usize = 2;
pub const POOL_SHARDS: usize = 4;
/// Group commits between logical checkpoints on the `durable` workload.
pub const CHECKPOINT_EVERY: u64 = 64;
/// Initial credit and outbox-independent window of every wire client.
pub const WIRE_CREDIT: u32 = 8;

const INGEST_SHAPE: Shape = Shape {
    objects: 5_000,
    t0: 20.0,
    dt: 0.04,
    frames: 600,
    report_frac: 1.0,
    window: 8.0,
    overlap: 0.9,
    sessions: 4,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest",
        why: "write-heavy at the paper's update rate: RTree::insert, region writers, mailbox broadcast and PDQ notify do the work, engines almost none",
        surface: Surface::InProcess,
        durable: false,
        pool_pages: 16_384,
        episode_s: 2.4,
        shape: INGEST_SHAPE,
    },
    Workload {
        name: "query",
        why: "read-heavy over an index 25x the pool: descent, overlap kernel, pool misses and the per-frame clock handshake dominate, writer nearly idle",
        surface: Surface::InProcess,
        durable: false,
        pool_pages: 64,
        episode_s: 4.8,
        shape: Shape {
            objects: 20_000,
            t0: 10.0,
            dt: 0.005,
            frames: 3_000,
            report_frac: 0.01,
            window: 30.0,
            overlap: 0.8,
            sessions: 4,
        },
    },
    Workload {
        name: "wire",
        why: "light frames over loopback TCP: codec, outbox, credit, pump poll and socket are the per-frame cost; flat under core-only changes",
        surface: Surface::Wire,
        durable: false,
        pool_pages: 256,
        episode_s: 3.0,
        shape: Shape {
            dt: 0.01,
            frames: 1_400,
            report_frac: 0.1,
            sessions: 2,
            ..INGEST_SHAPE
        },
    },
    Workload {
        name: "durable",
        why: "ingest's exact inputs behind WAL group commit and logical checkpoints, ending in crash and recovery: commit or checkpoint cost shows as fps and p99",
        surface: Surface::InProcess,
        durable: true,
        pool_pages: 16_384,
        episode_s: 4.4,
        shape: INGEST_SHAPE,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
