//! `deep-traversal`: the uk14 analogue (diameter 2498) on 64 simulated
//! GPUs under CVC, prepared once in set-up. One pass runs bfs and sssp
//! from the max-out-degree source under Var3 (BSP) and Var4 (BASP):
//! thousands of rounds with tiny frontiers, so host time sits on the
//! per-round path.

use dirgl_core::{PreparedPartition, RunConfig, Runtime, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::{Partition, Policy};

use crate::check::{same_fixed_point, Check, Oracle};
use crate::closed::{ClosedLoop, Outcome};
use crate::exec::{execute, App, Tally};
use crate::trace::Spans;

/// Simulated GPUs (Figs. 6 and 9).
const GPUS: u32 = 64;
/// Partitioner seed of the figure binaries.
const PART_SEED: u64 = 0x5EED;
const POLICY: Policy = Policy::Cvc;
const APPS: [App; 2] = [App::Bfs, App::Sssp];

/// Set-up seconds by layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `DatasetId::load_scaled` plus seeded weights.
    pub generate_s: f64,
    /// `Partition::build`.
    pub build_s: f64,
    /// `PreparedPartition::from_partition`.
    pub plan_s: f64,
    /// Proxies per vertex of the partition.
    pub replication: f64,
}

/// The deep-traversal workload over its prepared partition.
pub struct Deep {
    prep: PreparedPartition,
    divisor: u64,
    source: u32,
    oracle: Oracle,
}

impl Deep {
    /// Generates and prepares the input, timing each call as a set-up span.
    pub fn setup(seed: u64, spans: &mut Spans) -> (Deep, SetupTimes) {
        let (ds, generate_s) =
            spans.time("generate", None, || crate::generate(DatasetId::Uk14, seed));
        let (part, build_s) = spans.time("build", None, || {
            Partition::build(&ds.graph, POLICY, GPUS, PART_SEED)
        });
        let replication = part.replication_factor();
        let source = ds.graph.max_out_degree_vertex();
        let divisor = ds.divisor;
        let (prep, plan_s) = spans.time("plan", None, || {
            PreparedPartition::from_partition(ds.graph, part)
        });
        let deep = Deep {
            prep,
            divisor,
            source,
            oracle: Oracle::default(),
        };
        (
            deep,
            SetupTimes {
                generate_s,
                build_s,
                plan_s,
                replication,
            },
        )
    }
}

impl ClosedLoop for Deep {
    fn pass(&mut self, pass: usize, spans: &mut Spans) -> (Vec<Outcome>, Tally) {
        let mut tally = Tally::default();
        let mut out = Vec::new();
        for variant in [Variant::var3(), Variant::var4()] {
            let rt = Runtime::new(
                Platform::bridges(GPUS),
                RunConfig::new(POLICY, variant).scale(self.divisor),
            );
            for app in APPS {
                let values = execute(&rt, &self.prep, app, self.source, &mut tally, spans, pass);
                out.push(Outcome {
                    config: variant.label(),
                    app,
                    source: self.source,
                    values,
                });
            }
        }
        (out, tally)
    }

    fn check(&mut self, outcomes: &[Outcome]) -> Check {
        let g = self.prep.graph();
        for o in outcomes {
            if let Ok(v) = &o.values {
                self.oracle
                    .check(g, g, o.app, o.source, v)
                    .map_err(|e| format!("{} {}: {e}", o.config, o.app.name()))?;
            }
        }
        for app in APPS {
            let find = |cfg: &str| {
                outcomes
                    .iter()
                    .find(|o| o.app == app && o.config == cfg)
                    .and_then(|o| o.values.as_ref().ok())
            };
            if let (Some(bsp), Some(basp)) = (find("Var3"), find("Var4")) {
                same_fixed_point(app, bsp, basp)
                    .map_err(|e| format!("{} BSP vs BASP: {e}", app.name()))?;
            }
        }
        Ok(())
    }

    fn layer_spans(&self) -> &'static [&'static str] {
        &["execute"]
    }
}
