//! The closed-loop driver shared by `study` and `deep-traversal`: repeat a
//! fixed job list in whole passes until the run's measuring time is used,
//! checking every result off the clock between passes.

use std::time::Instant;

use dirgl_bench::alloc::{peak_bytes, reset_peak};
use dirgl_core::RunError;

use crate::check::Check;
use crate::exec::{App, Tally};
use crate::stats::{median, tail};
use crate::trace::Spans;
use crate::Metrics;

/// How far a traced pass's layer spans may fall short of its wall time
/// (the rest is loop bookkeeping and the graph copies handed to
/// `from_partition`).
pub const RECONCILE_TOLERANCE: f64 = 0.02;

/// One job's result within a pass.
pub struct Outcome {
    /// Configuration label (`IEC/Var3`, ...).
    pub config: String,
    /// Program run.
    pub app: App,
    /// Traversal source (ignored by the others).
    pub source: u32,
    /// Output vector, or why the run failed.
    pub values: Result<Vec<f64>, RunError>,
}

/// A workload made of identical passes.
pub trait ClosedLoop {
    /// Runs pass `pass`, recording spans into `spans` when it is enabled.
    fn pass(&mut self, pass: usize, spans: &mut Spans) -> (Vec<Outcome>, Tally);
    /// Checks one pass's results against the references and properties.
    fn check(&mut self, outcomes: &[Outcome]) -> Check;
    /// The span names whose sum must reconcile with a pass's wall time.
    fn layer_spans(&self) -> &'static [&'static str];
}

/// One timed pass.
pub struct Pass {
    /// Host wall seconds.
    pub wall_s: f64,
    /// Everything the pass's calls reported.
    pub tally: Tally,
}

/// What a closed-loop run measured.
pub struct ClosedRun {
    /// Untraced passes.
    pub plain: Vec<Pass>,
    /// Traced passes (trace mode only).
    pub traced: Vec<Pass>,
    /// Jobs attempted and failed.
    pub attempted: u64,
    /// See [`ClosedRun::attempted`].
    pub failed: u64,
    /// Heap high-water over all passes, bytes.
    pub peak_heap: u64,
}

/// Runs passes until their summed wall time reaches `seconds` (at least
/// one), first untraced and then, when `trace` is set, as many traced.
pub fn run(
    w: &mut impl ClosedLoop,
    seconds: f64,
    trace: bool,
    spans: &mut Spans,
) -> Result<ClosedRun, String> {
    let mut r = ClosedRun {
        plain: Vec::new(),
        traced: Vec::new(),
        attempted: 0,
        failed: 0,
        peak_heap: 0,
    };
    let mut reference: Option<(f64, f64)> = None;
    for traced in [false, true] {
        if traced && !trace {
            break;
        }
        spans.set_enabled(traced);
        let mut measured = 0.0;
        while measured < seconds {
            let idx = r.plain.len() + r.traced.len();
            reset_peak();
            let t0 = Instant::now();
            let (outcomes, tally) = w.pass(idx, spans);
            let wall_s = t0.elapsed().as_secs_f64();
            r.peak_heap = r.peak_heap.max(peak_bytes());
            measured += wall_s;

            r.attempted += outcomes.len() as u64;
            r.failed += outcomes.iter().filter(|o| o.values.is_err()).count() as u64;
            for o in outcomes.iter().filter(|o| o.values.is_err()) {
                eprintln!(
                    "failed: {} {}: {:?}",
                    o.config,
                    o.app.name(),
                    o.values.as_ref().err()
                );
            }
            w.check(&outcomes)?;
            // Simulated quantities are deterministic: every pass of the
            // same job list must report them bit for bit.
            let sim = (tally.sim_s, tally.comm_gb);
            match reference {
                None => reference = Some(sim),
                Some(first) if first != sim => {
                    return Err(format!(
                        "pass {idx}: simulated totals {sim:?} differ from {first:?}"
                    ))
                }
                Some(_) => {}
            }
            if traced {
                let layers = spans.sum(idx, w.layer_spans());
                let gap = (wall_s - layers) / wall_s;
                eprintln!(
                    "pass {idx}: wall {wall_s:.3}s, layer spans {layers:.3}s, gap {:.2}%",
                    gap * 100.0
                );
                if !(0.0..=RECONCILE_TOLERANCE).contains(&gap) {
                    return Err(format!(
                        "pass {idx}: layer spans {layers:.4}s do not reconcile with wall {wall_s:.4}s"
                    ));
                }
            }
            let pass = Pass { wall_s, tally };
            if traced {
                r.traced.push(pass);
            } else {
                r.plain.push(pass);
            }
        }
    }
    spans.set_enabled(trace);
    Ok(r)
}

/// End-to-end metrics of a closed loop. A job is one program execution:
/// its latency is the host time of its `execute` call, and the loop's
/// rate is jobs per second of pass time.
pub fn end_to_end(m: &mut Metrics, r: &ClosedRun, setup_s: f64) {
    let passes = &r.plain;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let jobs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.tally.exec_ms.iter().copied())
        .collect();
    let first = &passes[0].tally;
    let pass_s = median(&walls);
    m.put("setup_s", setup_s);
    m.put("pass_s", pass_s);
    m.put("sim_s", first.sim_s);
    m.put("sim_comm_gb", first.comm_gb);
    m.put("peak_heap_mb", r.peak_heap as f64 / 1e6);
    m.put("job_p50_ms", median(&jobs));
    m.put("job_tail_ms", tail(&jobs));
    m.put("max_rate_jobs_s", first.exec_ms.len() as f64 / pass_s);
}

/// Per-layer metrics of a closed loop, as means over the traced passes.
pub fn per_layer(m: &mut Metrics, r: &ClosedRun) {
    let n = r.traced.len() as f64;
    let mean = |f: &dyn Fn(&Tally) -> f64| r.traced.iter().map(|p| f(&p.tally)).sum::<f64>() / n;
    let mut rounds = crate::trace::RoundTimes::default();
    for p in &r.traced {
        rounds.add(&p.tally.rounds);
    }
    let t = &r.traced[0].tally;
    m.put("partition.build_s", mean(&|t| t.build_s));
    let (parts, repl) = t.partitions;
    m.put(
        "partition.replication",
        if parts == 0 { 0.0 } else { repl / parts as f64 },
    );
    m.put("comm.plan_s", mean(&|t| t.plan_s));
    m.put("comm.messages", t.messages as f64);
    m.put("core.execute_s", mean(&|t| t.execute_s));
    m.put("core.rounds", rounds.rounds as f64 / n);
    m.put(
        "core.round_us_dense",
        crate::trace::RoundTimes::mean_us(rounds.dense),
    );
    m.put(
        "core.round_us_sparse",
        crate::trace::RoundTimes::mean_us(rounds.sparse),
    );
    m.put(
        "core.ns_per_edge",
        mean(&|t| t.execute_s * 1e9 / t.work_items.max(1) as f64),
    );
    m.put(
        "core.cpu_per_wall",
        mean(&|t| t.execute_cpu_s / t.execute_s),
    );
    m.put("core.work_items", t.work_items as f64);
    m.put("gpusim.max_compute_s", t.max_compute_s);
    m.put("gpusim.min_wait_s", t.min_wait_s);
    m.put("gpusim.device_comm_s", t.device_comm_s);
    m.put("gpusim.peak_device_mb", t.peak_device_mb);
    let plain = median(&r.plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced = median(&r.traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    m.put("bench.trace_overhead_s", traced - plain);
}
