//! `study`: one pass is the paper's Fig. 4 ∪ Fig. 8 matrix on the
//! twitter50 analogue at 32 simulated Bridges GPUs — IEC under Var1–Var4
//! plus OEC, HVC and CVC under Var4, each running bfs, sssp, cc,
//! kcore-100 and pagerank. Every policy builds its directed and symmetric
//! partitions (and their sync plans) inside the pass.

use dirgl_core::{PreparedPartition, RunConfig, Runtime, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::{Csr, DatasetId};
use dirgl_partition::{Partition, Policy};

use crate::check::{same_fixed_point, Check, Oracle};
use crate::closed::{ClosedLoop, Outcome};
use crate::exec::{execute, App, Tally};
use crate::trace::Spans;

/// Simulated GPUs (Figs. 4 and 8).
const GPUS: u32 = 32;
/// kcore threshold used throughout the harness.
const KCORE_K: u32 = dirgl_bench::KCORE_K;
/// Partitioner seed of the figure binaries.
const PART_SEED: u64 = 0x5EED;
/// The programs of every configuration, in paper order.
const APPS: [App; 5] = [
    App::Bfs,
    App::Sssp,
    App::Cc,
    App::KCore(KCORE_K),
    App::PageRank,
];

/// The inputs, generated in set-up.
pub struct Inputs {
    /// Directed analogue with seeded weights.
    pub directed: Csr,
    /// Undirected view for cc and kcore.
    pub sym: Csr,
    /// Paper-equivalence divisor.
    pub divisor: u64,
}

/// Generates the inputs, timing each call as a set-up span. Returns the
/// inputs and the `generate` and `undirected` seconds.
pub fn setup(seed: u64, spans: &mut Spans) -> (Inputs, f64, f64) {
    let (ds, gen_s) = spans.time("generate", None, || {
        crate::generate(DatasetId::Twitter50, seed)
    });
    let (sym, und_s) = spans.time("undirected", None, || {
        DatasetId::Twitter50.load_undirected_scaled(1).graph
    });
    let inputs = Inputs {
        divisor: ds.divisor,
        directed: ds.graph,
        sym,
    };
    (inputs, gen_s, und_s)
}

/// The study workload over generated inputs.
pub struct Study {
    inputs: Inputs,
    oracle: Oracle,
    source: u32,
    platform: Platform,
}

impl Study {
    /// Prepares the workload; bfs and sssp start from the max-out-degree
    /// vertex, the paper's convention.
    pub fn new(inputs: Inputs) -> Study {
        let source = inputs.directed.max_out_degree_vertex();
        Study {
            inputs,
            oracle: Oracle::default(),
            source,
            platform: Platform::bridges(GPUS),
        }
    }

    /// Builds and prepares `graph` under `policy`, as `build` and `plan`
    /// spans of `pass`.
    fn prepare(
        &self,
        graph: &Csr,
        policy: Policy,
        tally: &mut Tally,
        spans: &mut Spans,
        pass: usize,
    ) -> PreparedPartition {
        let (part, b) = spans.time("build", Some(pass), || {
            Partition::build(graph, policy, GPUS, PART_SEED)
        });
        tally.build_s += b;
        tally.partitions.0 += 1;
        tally.partitions.1 += part.replication_factor();
        let (prep, p) = spans.time("plan", Some(pass), || {
            PreparedPartition::from_partition(graph.clone(), part)
        });
        tally.plan_s += p;
        prep
    }
}

/// (policy, variants run under it).
fn matrix() -> Vec<(Policy, Vec<Variant>)> {
    vec![
        (Policy::Iec, Variant::all().to_vec()),
        (Policy::Oec, vec![Variant::var4()]),
        (Policy::Hvc, vec![Variant::var4()]),
        (Policy::Cvc, vec![Variant::var4()]),
    ]
}

impl ClosedLoop for Study {
    fn pass(&mut self, pass: usize, spans: &mut Spans) -> (Vec<Outcome>, Tally) {
        let mut tally = Tally::default();
        let mut out = Vec::new();
        for (policy, variants) in matrix() {
            let directed = self.prepare(&self.inputs.directed, policy, &mut tally, spans, pass);
            let sym = self.prepare(&self.inputs.sym, policy, &mut tally, spans, pass);
            for variant in variants {
                let rt = Runtime::new(
                    self.platform.clone(),
                    RunConfig::new(policy, variant).scale(self.inputs.divisor),
                );
                for app in APPS {
                    let prep = if app.symmetric() { &sym } else { &directed };
                    let values = execute(&rt, prep, app, self.source, &mut tally, spans, pass);
                    out.push(Outcome {
                        config: format!("{}/{}", policy.name(), variant.label()),
                        app,
                        source: self.source,
                        values,
                    });
                }
            }
        }
        (out, tally)
    }

    fn check(&mut self, outcomes: &[Outcome]) -> Check {
        let (d, s) = (&self.inputs.directed, &self.inputs.sym);
        for o in outcomes {
            if let Ok(v) = &o.values {
                self.oracle
                    .check(d, s, o.app, o.source, v)
                    .map_err(|e| format!("{} {}: {e}", o.config, o.app.name()))?;
            }
        }
        // IEC runs both engines on one partition: BSP (Var3) and BASP
        // (Var4) must agree.
        for app in APPS {
            let find = |cfg: &str| {
                outcomes
                    .iter()
                    .find(|o| o.app == app && o.config == cfg)
                    .and_then(|o| o.values.as_ref().ok())
            };
            if let (Some(bsp), Some(basp)) = (find("IEC/Var3"), find("IEC/Var4")) {
                same_fixed_point(app, bsp, basp)
                    .map_err(|e| format!("IEC {} BSP vs BASP: {e}", app.name()))?;
            }
        }
        Ok(())
    }

    fn layer_spans(&self) -> &'static [&'static str] {
        &["build", "plan", "execute"]
    }
}
