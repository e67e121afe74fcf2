//! The dirgl benchmark: runs one named workload in this process, checks
//! every output, and prints its metrics by name and unit as the last line
//! of standard output.
//!
//! ```sh
//! perfbench --workload <study|deep-traversal|serve-mixed> --seed N \
//!     --seconds S --trace <0|1> [--spans-out PATH]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (from a traced run that also repeats the untraced measurement, so
//! it can report the tracing overhead). See `perfbench/README.md`.

mod check;
mod closed;
mod deep;
mod exec;
mod rng;
mod serve;
mod stats;
mod study;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use dirgl_bench::alloc::{peak_bytes, TrackingAlloc};
use dirgl_graph::weights::{randomize_weights, DEFAULT_MAX_WEIGHT};
use dirgl_graph::{Dataset, DatasetId};

use crate::stats::median;
use crate::trace::Spans;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Times set-up is repeated per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("sim_s", "sim_s"),
    ("sim_comm_gb", "GB"),
    ("peak_heap_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("max_rate_jobs_s", "1/s"),
];

/// Per-layer metrics, printed with `--trace 1`. A workload that never
/// calls a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 26] = [
    ("graph.generate_s", "s"),
    ("graph.undirected_s", "s"),
    ("partition.build_s", "s"),
    ("partition.replication", "proxies/vertex"),
    ("comm.plan_s", "s"),
    ("comm.messages", "count"),
    ("core.execute_s", "s"),
    ("core.rounds", "count"),
    ("core.round_us_sparse", "us"),
    ("core.round_us_dense", "us"),
    ("core.ns_per_edge", "ns"),
    ("core.cpu_per_wall", "ratio"),
    ("core.work_items", "count"),
    ("gpusim.max_compute_s", "sim_s"),
    ("gpusim.min_wait_s", "sim_s"),
    ("gpusim.device_comm_s", "sim_s"),
    ("gpusim.peak_device_mb", "MB"),
    ("serve.submit_us", "us"),
    ("serve.cache_hits", "count"),
    ("serve.invalidated", "count"),
    ("serve.coalesced", "count"),
    ("serve.lanes_per_launch", "lanes"),
    ("serve.degraded", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("bench.trace_overhead_s", "s"),
];

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets metric `name`, which must be in one of the tables above.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the metric tables"
        );
        self.0.insert(name, value);
    }

    /// The JSON object of `table`'s metrics (0 for any not set).
    fn json(&self, table: &[(&str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.0.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What a workload hands back.
pub struct RunResult {
    /// Operations attempted and failed.
    pub attempted: u64,
    /// See [`RunResult::attempted`].
    pub failed: u64,
    /// Every metric it measured.
    pub metrics: Metrics,
}

/// Generates `id`'s analogue at the catalog scale with edge weights drawn
/// from `seed`: the topology is the catalog's, the weights (and so every
/// sssp distance) follow the run's seed.
pub fn generate(id: DatasetId, seed: u64) -> Dataset {
    let ds = id.load_scaled(1);
    let graph = randomize_weights(&ds.graph, DEFAULT_MAX_WEIGHT, seed ^ 0x5745_1647);
    Dataset { graph, ..ds }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload <study|deep-traversal|serve-mixed> --seed N \
                     --seconds S --trace <0|1> [--spans-out PATH]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans-out" => a.spans_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// `model name` of the first CPU in `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn fingerprint(a: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} pool_threads={} \
         cpu=\"{}\" rustc=\"{}\" rev={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rayon::current_num_threads(),
        cpu_model(),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_REV"),
    )
}

/// Runs a closed-loop workload: set-up `SETUP_REPS` times (keeping the
/// last), then passes.
fn closed_loop<W: closed::ClosedLoop>(
    a: &Args,
    spans: &mut Spans,
    mut setup: impl FnMut(&mut Spans) -> W,
) -> Result<RunResult, String> {
    let mut times = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first so reps do not stack in memory.
        drop(w.take());
        let t0 = std::time::Instant::now();
        w = Some(setup(spans));
        times.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let setup_peak = peak_bytes();
    let mut r = closed::run(&mut w, a.seconds, a.trace, spans)?;
    r.peak_heap = r.peak_heap.max(setup_peak);
    let mut metrics = Metrics::default();
    closed::end_to_end(&mut metrics, &r, median(&times));
    if a.trace {
        closed::per_layer(&mut metrics, &r);
    }
    Ok(RunResult {
        attempted: r.attempted,
        failed: r.failed,
        metrics,
    })
}

fn run(a: &Args, spans: &mut Spans) -> Result<RunResult, String> {
    match a.workload.as_str() {
        "study" => {
            let mut gen = Vec::new();
            let mut und = Vec::new();
            let mut r = closed_loop(a, spans, |spans| {
                let (inputs, g, u) = study::setup(a.seed, spans);
                gen.push(g);
                und.push(u);
                study::Study::new(inputs)
            })?;
            if a.trace {
                r.metrics.put("graph.generate_s", median(&gen));
                r.metrics.put("graph.undirected_s", median(&und));
            }
            Ok(r)
        }
        "deep-traversal" => {
            let mut setups = Vec::new();
            let mut r = closed_loop(a, spans, |spans| {
                let (deep, t) = deep::Deep::setup(a.seed, spans);
                setups.push(t);
                deep
            })?;
            if a.trace {
                let med = |f: fn(&deep::SetupTimes) -> f64| {
                    median(&setups.iter().map(f).collect::<Vec<_>>())
                };
                r.metrics.put("graph.generate_s", med(|t| t.generate_s));
                r.metrics.put("partition.build_s", med(|t| t.build_s));
                r.metrics.put("comm.plan_s", med(|t| t.plan_s));
                r.metrics
                    .put("partition.replication", med(|t| t.replication));
            }
            Ok(r)
        }
        "serve-mixed" => serve::run(a.seed, a.seconds, a.trace, spans),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", fingerprint(&a));
    let mut spans = Spans::new(a.trace);
    let result = run(&a, &mut spans);
    if let (Some(path), true) = (&a.spans_out, a.trace) {
        if let Err(e) = spans.write(std::path::Path::new(path)) {
            eprintln!("error: writing spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    match result {
        Ok(r) => {
            let table: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                r.attempted,
                r.failed,
                r.metrics.json(table)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
