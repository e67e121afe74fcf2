//! One program execution against a prepared partition, timed from
//! outside, and the per-pass tally of what the layers reported.

use dirgl_apps::{Bfs, Cc, KCore, PageRank, Sssp};
use dirgl_core::{ExecutionReport, PreparedPartition, RunError, RunOutput, Runtime, VertexProgram};

use crate::trace::{process_cpu_s, RoundClock, RoundTimes, Spans};

/// The programs the workloads run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum App {
    /// Breadth-first search from a source.
    Bfs,
    /// Single-source shortest paths.
    Sssp,
    /// Connected components (undirected view).
    Cc,
    /// k-core membership (undirected view).
    KCore(u32),
    /// Residual pagerank.
    PageRank,
}

impl App {
    /// Program name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            App::Bfs => "bfs",
            App::Sssp => "sssp",
            App::Cc => "cc",
            App::KCore(_) => "kcore",
            App::PageRank => "pagerank",
        }
    }

    /// True when the program runs on the undirected view.
    pub fn symmetric(self) -> bool {
        matches!(self, App::Cc | App::KCore(_))
    }
}

/// What one pass's calls reported, summed over the pass.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Host seconds in `Partition::build`.
    pub build_s: f64,
    /// Host seconds in `PreparedPartition::from_partition`.
    pub plan_s: f64,
    /// Partitions built, and their summed replication factors.
    pub partitions: (u32, f64),
    /// Host seconds in `Runner::execute`.
    pub execute_s: f64,
    /// Process CPU seconds during execute (traced passes only).
    pub execute_cpu_s: f64,
    /// Host milliseconds of each execute call, in order.
    pub exec_ms: Vec<f64>,
    /// Round host times (traced passes only).
    pub rounds: RoundTimes,
    /// Simulated seconds (`ExecutionReport::total_time`).
    pub sim_s: f64,
    /// Simulated communication volume, GB.
    pub comm_gb: f64,
    /// Messages sent.
    pub messages: u64,
    /// Simulated work items (edges processed, redundant work included).
    pub work_items: u64,
    /// Max compute, min wait and device comm, simulated seconds.
    pub max_compute_s: f64,
    /// See [`Tally::max_compute_s`].
    pub min_wait_s: f64,
    /// See [`Tally::max_compute_s`].
    pub device_comm_s: f64,
    /// Largest per-device peak memory of any run, MB (paper-equivalent).
    pub peak_device_mb: f64,
}

impl Tally {
    /// Folds one report in.
    pub fn add_report(&mut self, r: &ExecutionReport) {
        self.sim_s += r.total_time.as_secs_f64();
        self.comm_gb += r.comm_gb();
        self.messages += r.messages;
        self.work_items += r.work_items;
        self.max_compute_s += r.max_compute().as_secs_f64();
        self.min_wait_s += r.min_wait().as_secs_f64();
        self.device_comm_s += r.device_comm().as_secs_f64();
        self.peak_device_mb = self.peak_device_mb.max(r.max_memory() as f64 / 1e6);
    }
}

fn go<P: VertexProgram>(
    rt: &Runtime,
    prep: &PreparedPartition,
    prog: &P,
    clock: Option<&mut RoundClock>,
) -> Result<RunOutput, RunError> {
    let runner = rt.job(prep, prog);
    match clock {
        Some(c) => runner.trace(c).execute(),
        None => runner.execute(),
    }
}

/// Runs `app` (from `source` for the traversals) on `prep` under `rt`,
/// timing the call as an `execute` span of `pass`. With tracing on, every
/// round is stamped with the host clock and the call's CPU time is read.
pub fn execute(
    rt: &Runtime,
    prep: &PreparedPartition,
    app: App,
    source: u32,
    tally: &mut Tally,
    spans: &mut Spans,
    pass: usize,
) -> Result<Vec<f64>, RunError> {
    let traced = spans.enabled();
    let mut clock = traced.then(|| RoundClock::new(prep.num_vertices(), rt.platform.num_devices()));
    let cpu0 = if traced { process_cpu_s() } else { 0.0 };
    let (out, secs) = spans.time("execute", Some(pass), || {
        let c = clock.as_mut();
        match app {
            App::Bfs => go(rt, prep, &Bfs::new(source), c),
            App::Sssp => go(rt, prep, &Sssp::new(source), c),
            App::Cc => go(rt, prep, &Cc, c),
            App::KCore(k) => go(rt, prep, &KCore::new(k), c),
            App::PageRank => go(rt, prep, &PageRank::new(), c),
        }
    });
    if traced {
        tally.execute_cpu_s += process_cpu_s() - cpu0;
    }
    if let Some(c) = clock {
        tally.rounds.add(&c.times());
    }
    tally.execute_s += secs;
    tally.exec_ms.push(secs * 1e3);
    let out = out?;
    tally.add_report(&out.report);
    Ok(out.values)
}
