//! `serve-mixed`: an open loop against one resident [`JobServer`].
//!
//! The server holds the twitter50 analogue on 4 simulated GPUs under
//! CVC/Var4 with 2 executor workers. One generator thread submits the
//! traffic: single-source bfs and sssp from Zipf-skewed sources,
//! few-source "landmark" bfs and sssp that always run as one batched
//! launch, parameterless cc and pagerank, and a `bump_epoch` write every
//! 20 submissions that invalidates the result cache.
//!
//! The traffic is a two-rung ladder. The reference step submits whole
//! cycles of a fixed mix at seeded Poisson times; its latencies run from
//! each job's due time to the first poll that finds it done. The
//! saturation step submits a burst to a paused server, which then serves
//! the whole backlog at once; its service rate is the highest rate the
//! server sustains.

use std::sync::Arc;
use std::thread::sleep;
use std::time::{Duration, Instant};

use dirgl_bench::alloc::{peak_bytes, reset_peak};
use dirgl_core::{PreparedPartition, RunConfig};
use dirgl_gpusim::Platform;
use dirgl_graph::{Csr, DatasetId};
use dirgl_partition::{Partition, Policy};
use dirgl_serve::{JobHandle, JobOutcome, JobServer, JobSpec, ServeConfig, ServerStats};

use crate::check::Oracle;
use crate::exec::{App, Tally};
use crate::rng::{poisson_arrivals, Rng, Zipf};
use crate::stats::{median, tail};
use crate::trace::Spans;
use crate::{Metrics, RunResult, SETUP_REPS};

/// Simulated GPUs: at 4, the governor's device-memory cap bounds the lane
/// width of coalesced sssp, so backlogs cannot grow the heap without bound.
const GPUS: u32 = 4;
/// Executor workers: one per core of a 2-core host.
const WORKERS: usize = 2;
/// Larger than any step's arrivals, so overload shows as latency rather
/// than as refusals.
const QUEUE_CAPACITY: usize = 4096;
/// Result-cache entries (the server's default).
const CACHE_CAPACITY: usize = 128;
/// Zipf exponent of single-source picks.
const ZIPF_S: f64 = 1.0;
/// Sources Zipf ranks range over: the highest-out-degree vertices, rank 0
/// the highest.
const HOT_SOURCES: usize = 256;
/// Landmark queries run from this many top-degree vertices.
const LANDMARK_SOURCES: usize = 4;
/// Submissions between two `bump_epoch` writes.
const EPOCH_EVERY: usize = 20;
/// Generator poll interval while waiting for the next arrival.
const POLL: Duration = Duration::from_micros(250);

/// Offered rate of the reference step, jobs per second: each worker is
/// about a fifth busy, so latency is mostly service time.
pub const REFERENCE_RATE: f64 = 8.0;
/// Marks the saturation step: its jobs are all submitted to a paused
/// server, which then serves the whole backlog at once.
const BURST_RATE: f64 = f64::INFINITY;
/// Latency limit on the reference step's tail percentile.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;

/// One kind of job.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Bfs,
    Sssp,
    LandmarkBfs,
    LandmarkSssp,
    Cc,
    PageRank,
}

/// The reference mix: every cycle submits exactly these, in a seeded
/// order, and the reference step runs whole cycles. Besides the
/// interactive single-source bfs it holds one long job, the landmark sssp;
/// the bfs that arrive while it runs share the host with it, and those
/// slower runs are where the tail percentile falls.
const CYCLE: [(Kind, usize); 2] = [(Kind::Bfs, 159), (Kind::LandmarkSssp, 1)];

/// The saturation burst, in submission order: single-source queries the
/// coalescer merges into one batched launch per kind, and the analytics
/// jobs that run beside them. Its sssp outnumber the ten samples the tail
/// percentile leaves beyond it, so the run's tail is the coalesced sssp
/// launch.
const BURST: [(Kind, usize); 5] = [
    (Kind::Sssp, BURST_HELD),
    (Kind::Bfs, 24),
    (Kind::LandmarkBfs, 1),
    (Kind::Cc, 1),
    (Kind::PageRank, 1),
];

/// The burst's first jobs, queued on the paused server so they coalesce
/// into one launch that is admitted while nothing else is in flight (the
/// governor then grants the same lane width on every run); the rest follow
/// once that launch has left the queue.
const BURST_HELD: usize = 12;

fn count(mix: &[(Kind, usize)]) -> usize {
    mix.iter().map(|(_, n)| n).sum()
}

/// One scheduled submission.
struct Planned {
    /// Offset from the step start, seconds.
    due: f64,
    spec: JobSpec,
    /// Bump the epoch just before submitting.
    bump: bool,
}

/// Draws a step's schedule: `rounds` copies of `mix`, each in a seeded
/// order, at Poisson arrival times with `rate` jobs per second on average.
/// An infinite rate is a burst: everything at once, in mix order.
fn schedule(
    rng: &mut Rng,
    picks: &SourcePicks,
    mix: &[(Kind, usize)],
    rounds: usize,
    rate: f64,
) -> Vec<Planned> {
    let n = rounds * count(mix);
    let burst = !rate.is_finite();
    let times = if burst {
        vec![0.0; n]
    } else {
        poisson_arrivals(rng, n, n as f64 / rate)
    };
    let mut specs = Vec::with_capacity(n);
    for _ in 0..rounds {
        let mut round: Vec<JobSpec> = mix
            .iter()
            .flat_map(|&(kind, k)| picks.specs(kind, k))
            .collect();
        for i in (1..round.len()).rev().filter(|_| !burst) {
            round.swap(i, rng.below(i + 1));
        }
        specs.extend(round);
    }
    specs
        .into_iter()
        .zip(times)
        .enumerate()
        .map(|(i, (spec, due))| Planned {
            due,
            spec,
            bump: i % EPOCH_EVERY == 0,
        })
        .collect()
}

/// Source populations: Zipf-skewed picks among the hottest vertices, and
/// one fixed landmark set. Popularity follows out-degree.
struct SourcePicks {
    hot: Vec<u32>,
    zipf: Zipf,
    landmarks: Vec<u32>,
}

impl SourcePicks {
    fn new(g: &Csr) -> SourcePicks {
        let mut by_degree: Vec<u32> = (0..g.num_vertices()).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
        let hot = by_degree[..HOT_SOURCES.min(by_degree.len())].to_vec();
        SourcePicks {
            zipf: Zipf::new(hot.len(), ZIPF_S),
            landmarks: hot[..LANDMARK_SOURCES.min(hot.len())].to_vec(),
            hot,
        }
    }

    /// `k` jobs of `kind`. Single-source jobs take their sources at the
    /// Zipf quantiles `(i + 1/2) / k` (stratified sampling), so every
    /// round of a mix asks the same questions and the seed decides their
    /// order and timing.
    fn specs(&self, kind: Kind, k: usize) -> Vec<JobSpec> {
        let hot = |i: usize| self.hot[self.zipf.quantile((i as f64 + 0.5) / k as f64)];
        (0..k)
            .map(|i| match kind {
                Kind::Bfs => JobSpec::bfs(hot(i)),
                Kind::Sssp => JobSpec::sssp(hot(i)),
                Kind::LandmarkBfs => JobSpec::Bfs {
                    sources: self.landmarks.clone(),
                },
                Kind::LandmarkSssp => JobSpec::Sssp {
                    sources: self.landmarks.clone(),
                },
                Kind::Cc => JobSpec::Cc,
                Kind::PageRank => JobSpec::Pagerank,
            })
            .collect()
    }
}

/// One job as the generator saw it.
struct Done {
    spec: JobSpec,
    /// Due time, seconds from the step start.
    due: f64,
    /// Seconds from due time to completion.
    latency: f64,
    /// Seconds the generator submitted after the due time.
    lag: f64,
    /// Microseconds in `JobServer::submit`.
    submit_us: f64,
    /// Result, whether the cache served it, and its granted lane width.
    outcome: Result<(Arc<JobOutcome>, bool, usize), String>,
}

/// What one step measured.
struct Step {
    jobs: Vec<Done>,
    /// Step start to last completion, seconds.
    wall_s: f64,
    queue_max: usize,
    stats: (ServerStats, ServerStats),
}

impl Step {
    fn latencies_ms(&self) -> Vec<f64> {
        self.jobs.iter().map(|d| d.latency * 1e3).collect()
    }

    /// Jobs completed per second, from the first arrival to the last
    /// completion.
    fn throughput(&self) -> f64 {
        let first = self.jobs.first().map_or(0.0, |d| d.due);
        self.jobs.len() as f64 / (self.wall_s - first)
    }
}

/// Submits `plan` on schedule from this thread, detecting completions by
/// polling `JobHandle::is_done` so a slow job is never charged to the
/// jobs behind it, then waits for the last one. With `hold` > 0 the
/// server was paused for a burst: it resumes once the first `hold` jobs
/// are queued (their due time), and each later job is due when submitted,
/// after the queue has emptied.
fn drive(
    server: &JobServer,
    plan: Vec<Planned>,
    spans: &mut Spans,
    pass: usize,
    hold: usize,
) -> Step {
    let before = server.stats();
    let origin = Instant::now();
    let step_start = spans.now();
    let mut queue_max = 0;
    let mut pending: Vec<(usize, JobHandle)> = Vec::new();
    let mut done: Vec<Done> = Vec::with_capacity(plan.len());
    let poll = |pending: &mut Vec<(usize, JobHandle)>, done: &mut [Done], spans: &mut Spans| {
        let now = origin.elapsed().as_secs_f64();
        pending.retain(|(i, h)| {
            if !h.is_done() {
                return true;
            }
            let d = &mut done[*i];
            d.latency = now - d.due;
            d.outcome = match h.wait() {
                Ok(r) => Ok((r.outcome, r.from_cache, r.resilience.granted_width)),
                Err(e) => Err(e.to_string()),
            };
            spans.push("job", Some(pass), step_start + d.due, step_start + now);
            false
        });
    };
    for (n, mut p) in plan.into_iter().enumerate() {
        if hold > 0 && n == hold {
            let at = origin.elapsed().as_secs_f64();
            for d in &mut done {
                d.due = at;
            }
            server.resume();
            while server.stats().queued > 0 {
                sleep(POLL);
            }
        }
        if hold > 0 && n >= hold {
            p.due = origin.elapsed().as_secs_f64();
        }
        while origin.elapsed().as_secs_f64() < p.due {
            poll(&mut pending, &mut done, spans);
            let left = p.due - origin.elapsed().as_secs_f64();
            if left > 0.0 {
                sleep(POLL.min(Duration::from_secs_f64(left)));
            }
        }
        if p.bump {
            server.bump_epoch();
        }
        let lag = origin.elapsed().as_secs_f64() - p.due;
        let t = Instant::now();
        let submitted = server.submit_spec(p.spec.clone());
        let submit_us = t.elapsed().as_secs_f64() * 1e6;
        queue_max = queue_max.max(server.status().queued);
        done.push(Done {
            spec: p.spec,
            due: p.due,
            latency: 0.0,
            lag,
            submit_us,
            outcome: Err("not completed".into()),
        });
        let i = done.len() - 1;
        match submitted {
            Ok(h) => pending.push((i, h)),
            Err(e) => {
                done[i].latency = origin.elapsed().as_secs_f64() - p.due;
                done[i].outcome = Err(format!("refused: {e}"));
            }
        }
        poll(&mut pending, &mut done, spans);
    }
    while !pending.is_empty() {
        sleep(POLL);
        poll(&mut pending, &mut done, spans);
    }
    let wall_s = origin.elapsed().as_secs_f64();
    Step {
        jobs: done,
        wall_s,
        queue_max,
        stats: (before, server.stats()),
    }
}

/// Checks every delivered result — cache hits and every landmark lane
/// included — against the references.
fn check_step(step: &Step, oracle: &mut Oracle, g: &Csr, sym: &Csr) -> Result<(), String> {
    for d in &step.jobs {
        let Ok((outcome, _, _)) = &d.outcome else {
            continue;
        };
        let (app, sources): (App, Vec<u32>) = match &d.spec {
            JobSpec::Bfs { sources } => (App::Bfs, canonical(sources)),
            JobSpec::Sssp { sources } => (App::Sssp, canonical(sources)),
            JobSpec::Cc => (App::Cc, vec![0]),
            JobSpec::Pagerank => (App::PageRank, vec![0]),
            other => return Err(format!("unexpected spec {other:?}")),
        };
        if outcome.per_source.len() != sources.len() {
            return Err(format!(
                "{}: {} value vectors for {} sources",
                d.spec.name(),
                outcome.per_source.len(),
                sources.len()
            ));
        }
        for (values, &src) in outcome.per_source.iter().zip(&sources) {
            oracle
                .check(g, sym, app, src, values)
                .map_err(|e| format!("{} from {src}: {e}", d.spec.name()))?;
        }
    }
    Ok(())
}

/// The server's canonical source order (sorted, deduplicated).
fn canonical(sources: &[u32]) -> Vec<u32> {
    let mut s = sources.to_vec();
    s.sort_unstable();
    s.dedup();
    s
}

fn load(g: &Csr, divisor: u64) -> Result<JobServer, String> {
    JobServer::load(
        g,
        Platform::bridges(GPUS),
        RunConfig::var4(Policy::Cvc).scale(divisor),
        ServeConfig {
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            cache_capacity: CACHE_CAPACITY,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("JobServer::load: {e}"))
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, spans: &mut Spans) -> Result<RunResult, String> {
    // Set-up: generate and load, SETUP_REPS times; keep the last server.
    let mut setup_times = Vec::new();
    let mut gen_times = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        if let Some((s, _)) = served.take() {
            JobServer::shutdown(s);
        }
        let t0 = Instant::now();
        let (ds, gen_s) = spans.time("generate", None, || {
            crate::generate(DatasetId::Twitter50, seed)
        });
        let (server, _) = spans.time("load", None, || load(&ds.graph, ds.divisor));
        setup_times.push(t0.elapsed().as_secs_f64());
        gen_times.push(gen_s);
        served = Some((server?, ds));
    }
    let (server, ds) = served.expect("at least one set-up");
    let setup_peak = peak_bytes();
    let g = &ds.graph;
    let sym = g.symmetrize();
    let mut oracle = Oracle::default();

    let picks = SourcePicks::new(g);
    let mut rng = Rng::new(seed);
    let cycles = ((REFERENCE_RATE * seconds / count(&CYCLE) as f64).round() as usize).max(1);
    let reference = (&CYCLE[..], cycles, REFERENCE_RATE);
    let saturation = (&BURST[..], 1, BURST_RATE);
    // (mix, rounds, rate, traced). A traced run repeats the reference
    // step with spans on; the difference is the tracing overhead.
    let mut steps = vec![(reference, false)];
    if trace {
        steps.push((reference, true));
    }
    steps.push((saturation, trace));

    let mut results = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut peak = setup_peak;
    for (i, &((mix, rounds, rate), traced)) in steps.iter().enumerate() {
        let plan = schedule(&mut rng, &picks, mix, rounds, rate);
        spans.set_enabled(traced);
        reset_peak();
        let hold = if rate.is_finite() { 0 } else { BURST_HELD };
        if hold > 0 {
            server.pause();
        }
        let step = drive(&server, plan, spans, i, hold);
        peak = peak.max(peak_bytes());
        attempted += step.jobs.len() as u64;
        for d in &step.jobs {
            if let Err(e) = &d.outcome {
                failed += 1;
                eprintln!("failed: {:?}: {e}", d.spec);
            }
        }
        check_step(&step, &mut oracle, g, &sym)?;
        let lat = step.latencies_ms();
        eprintln!(
            "step {i}: {rate} jobs/s offered, {} jobs, wall {:.2}s, p50 {:.1}ms, tail {:.1}ms, \
             {:.2} jobs/s served, queue max {}",
            step.jobs.len(),
            step.wall_s,
            median(&lat),
            tail(&lat),
            step.throughput(),
            step.queue_max,
        );
        results.push(step);
    }
    spans.set_enabled(trace);
    server.shutdown();

    let mut m = Metrics::default();
    let (reference, saturated) = (&results[0], results.last().expect("saturation step"));
    if tail(&reference.latencies_ms()) > LATENCY_LIMIT_MS {
        eprintln!("warning: the reference step misses its {LATENCY_LIMIT_MS}ms tail limit");
    }
    if !trace {
        let lat = reference.latencies_ms();
        let every: Vec<f64> = results.iter().flat_map(Step::latencies_ms).collect();
        let tally = reports(reference);
        m.put("setup_s", median(&setup_times));
        m.put("pass_s", reference.wall_s);
        m.put("sim_s", tally.sim_s);
        m.put("sim_comm_gb", tally.comm_gb);
        m.put("peak_heap_mb", peak as f64 / 1e6);
        m.put("job_p50_ms", median(&lat));
        m.put("job_tail_ms", tail(&every));
        m.put("max_rate_jobs_s", saturated.throughput());
    } else {
        let traced = [&results[1], saturated];
        layer_metrics(&mut m, &traced, &reports(traced[0]), median(&gen_times));
        m.put(
            "bench.trace_overhead_s",
            traced[0].wall_s - reference.wall_s,
        );
        // The partitions JobServer::load prepares, rebuilt outside the
        // server so the build and plan layers can be timed.
        let mut t = Tally::default();
        for graph in [g.clone(), sym.clone(), g.transpose()] {
            let (part, b) = spans.time("build", None, || {
                Partition::build(&graph, Policy::Cvc, GPUS, 0)
            });
            t.build_s += b;
            t.partitions.0 += 1;
            t.partitions.1 += part.replication_factor();
            let (_, p) = spans.time("plan", None, || {
                PreparedPartition::from_partition(graph, part)
            });
            t.plan_s += p;
        }
        m.put("partition.build_s", t.build_s);
        m.put(
            "partition.replication",
            t.partitions.1 / f64::from(t.partitions.0),
        );
        m.put("comm.plan_s", t.plan_s);
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics: m,
    })
}

/// The simulated reports of every result a step delivered, cache hits
/// included (a hit returns the report of the run that filled the cache).
fn reports(step: &Step) -> Tally {
    let mut t = Tally::default();
    for (o, _, _) in step.jobs.iter().filter_map(|d| d.outcome.as_ref().ok()) {
        t.add_report(o.report());
    }
    t
}

/// Serve-layer metrics over the traced steps; simulated-layer metrics
/// from the traced reference step's reports.
fn layer_metrics(m: &mut Metrics, steps: &[&Step], tally: &Tally, generate_s: f64) {
    let jobs = || steps.iter().flat_map(|s| s.jobs.iter());
    let delta = |f: fn(&ServerStats) -> u64| -> f64 {
        steps
            .iter()
            .map(|s| (f(&s.stats.1) - f(&s.stats.0)) as f64)
            .sum()
    };
    let submit: Vec<f64> = jobs().map(|d| d.submit_us).collect();
    // Lane width of each executed traversal launch member.
    let widths: Vec<f64> = jobs()
        .filter_map(|d| match &d.outcome {
            Ok((_, false, w)) if d.spec.sources().is_some() => Some(*w as f64),
            _ => None,
        })
        .collect();
    m.put("graph.generate_s", generate_s);
    m.put("comm.messages", tally.messages as f64);
    m.put("core.work_items", tally.work_items as f64);
    m.put("gpusim.max_compute_s", tally.max_compute_s);
    m.put("gpusim.min_wait_s", tally.min_wait_s);
    m.put("gpusim.device_comm_s", tally.device_comm_s);
    m.put("gpusim.peak_device_mb", tally.peak_device_mb);
    m.put("serve.submit_us", median(&submit));
    m.put("serve.cache_hits", delta(|s| s.cache_hits));
    m.put("serve.invalidated", delta(|s| s.invalidated));
    m.put("serve.coalesced", delta(|s| s.coalesced));
    m.put(
        "serve.lanes_per_launch",
        widths.iter().sum::<f64>() / widths.len().max(1) as f64,
    );
    m.put("serve.degraded", delta(|s| s.degraded));
    m.put(
        "serve.queue_depth_max",
        steps.iter().map(|s| s.queue_max).max().unwrap_or(0) as f64,
    );
    m.put(
        "serve.generator_lag_ms",
        jobs().map(|d| d.lag).fold(0.0, f64::max) * 1e3,
    );
}
