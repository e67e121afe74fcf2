//! Independent checks of every result, run off the clock.
//!
//! Each result is compared with the sequential computation in
//! `dirgl_apps::reference`: bfs, sssp, cc and kcore exactly, pagerank
//! within the program's tolerance. Each result must also satisfy
//! properties that need no reference at all: no edge relaxes a bfs level
//! or an sssp distance, every reached vertex other than the source has a
//! tight in-edge, and cc labels agree across every edge.

use std::collections::HashMap;

use dirgl_apps::{reference, UNREACHED};
use dirgl_graph::Csr;

use crate::exec::App;

/// One failed check, as a message naming what disagreed and where.
pub type Check = Result<(), String>;

/// Pagerank tolerance: the worst error relative to `max(reference, 0.15)`
/// the program's own convergence tests accept.
pub const PR_TOLERANCE: f64 = 0.02;

/// Alpha, residual tolerance and round cap of the pagerank program
/// (`dirgl_apps::PageRank::new`), repeated for the reference.
const PR_ALPHA: f64 = 0.85;
const PR_RESIDUAL: f64 = 1e-4;
const PR_MAX_ROUNDS: u32 = 1000;

/// Converts an output vector of integral values (levels, distances,
/// labels) to `u32`, refusing anything that is not one.
pub fn ints(values: &[f64]) -> Result<Vec<u32>, String> {
    values
        .iter()
        .enumerate()
        .map(|(v, &x)| {
            if x.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&x) {
                Ok(x as u32)
            } else {
                Err(format!("vertex {v}: {x} is not an integral label"))
            }
        })
        .collect()
}

/// Exact agreement with a reference vector.
pub fn exact(got: &[u32], want: &[u32]) -> Check {
    if got.len() != want.len() {
        return Err(format!(
            "{} values, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(v) => Err(format!("vertex {v}: got {}, reference {}", got[v], want[v])),
    }
}

/// Shortest-path properties of `dist` from `src` over `g`, with unit
/// edge lengths for bfs and the graph's weights (floored at 1, as the
/// engine reads them) for sssp: the source is at 0, no edge relaxes a
/// distance, and every other reached vertex has a tight in-edge.
pub fn path_props(g: &Csr, src: u32, dist: &[u32], weighted: bool) -> Check {
    if dist.len() != g.num_vertices() as usize {
        return Err(format!(
            "{} values for {} vertices",
            dist.len(),
            g.num_vertices()
        ));
    }
    if dist[src as usize] != 0 {
        return Err(format!("source {src} at distance {}", dist[src as usize]));
    }
    let mut tight = vec![false; dist.len()];
    for u in 0..g.num_vertices() {
        let du = dist[u as usize];
        if du == UNREACHED {
            continue;
        }
        for (v, w) in g.edges(u) {
            let len = if weighted { w.max(1) } else { 1 };
            let nd = du.saturating_add(len);
            let dv = dist[v as usize];
            if nd < dv {
                return Err(format!("edge {u}->{v} relaxes {dv} to {nd}"));
            }
            if nd == dv {
                tight[v as usize] = true;
            }
        }
    }
    match (0..dist.len()).find(|&v| v != src as usize && dist[v] != UNREACHED && !tight[v]) {
        None => Ok(()),
        Some(v) => Err(format!("vertex {v} at {} has no tight in-edge", dist[v])),
    }
}

/// Component-label properties over a symmetric graph: labels agree across
/// every edge and each label is the smallest id of its component, so it
/// names a vertex that carries it.
pub fn cc_props(sym: &Csr, labels: &[u32]) -> Check {
    for u in 0..sym.num_vertices() {
        for &v in sym.neighbors(u) {
            if labels[u as usize] != labels[v as usize] {
                return Err(format!(
                    "edge {u}-{v} joins labels {} and {}",
                    labels[u as usize], labels[v as usize]
                ));
            }
        }
    }
    match labels
        .iter()
        .enumerate()
        .find(|&(v, &l)| l as usize > v || labels.get(l as usize) != Some(&l))
    {
        None => Ok(()),
        Some((v, &l)) => Err(format!(
            "vertex {v} has label {l}, not its component minimum"
        )),
    }
}

/// Pagerank agreement: worst error relative to `max(reference, 0.15)`
/// within [`PR_TOLERANCE`], and every rank finite and non-negative.
pub fn pagerank_close(got: &[f64], want: &[f64]) -> Check {
    if got.len() != want.len() {
        return Err(format!("{} ranks, reference has {}", got.len(), want.len()));
    }
    if let Some(v) = got.iter().position(|g| !g.is_finite() || *g < 0.0) {
        return Err(format!("vertex {v}: rank {}", got[v]));
    }
    let err = worst_pr_error(got, want);
    if err < PR_TOLERANCE {
        Ok(())
    } else {
        Err(format!("relative error {err:.4} exceeds {PR_TOLERANCE}"))
    }
}

/// Worst error of `got` relative to `max(want, 0.15)`.
fn worst_pr_error(got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / w.max(0.15))
        .fold(0.0, f64::max)
}

/// Reference results for one input, computed on first use and kept: every
/// result a run produces is checked against them. One oracle serves one
/// pair of graphs.
#[derive(Default)]
pub struct Oracle {
    bfs: HashMap<u32, Vec<u32>>,
    sssp: HashMap<u32, Vec<u32>>,
    cc: Option<Vec<u32>>,
    kcore: HashMap<u32, Vec<u32>>,
    pagerank: Option<Vec<f64>>,
}

impl Oracle {
    /// Checks one result of `app` (from `source` for bfs and sssp): bfs,
    /// sssp and pagerank run on `d`, cc and kcore on its undirected view
    /// `s`.
    pub fn check(&mut self, d: &Csr, s: &Csr, app: App, source: u32, values: &[f64]) -> Check {
        match app {
            App::Bfs => {
                let got = ints(values)?;
                path_props(d, source, &got, false)?;
                exact(
                    &got,
                    self.bfs
                        .entry(source)
                        .or_insert_with(|| reference::bfs(d, source)),
                )
            }
            App::Sssp => {
                let got = ints(values)?;
                path_props(d, source, &got, true)?;
                exact(
                    &got,
                    self.sssp
                        .entry(source)
                        .or_insert_with(|| reference::sssp(d, source)),
                )
            }
            App::Cc => {
                let got = ints(values)?;
                cc_props(s, &got)?;
                exact(&got, self.cc.get_or_insert_with(|| reference::cc(s)))
            }
            App::KCore(k) => {
                let got = ints(values)?;
                let want = self
                    .kcore
                    .entry(k)
                    .or_insert_with(|| reference::kcore(s, k).into_iter().map(u32::from).collect());
                exact(&got, want)
            }
            App::PageRank => pagerank_close(
                values,
                self.pagerank.get_or_insert_with(|| {
                    reference::pagerank(d, PR_ALPHA, PR_RESIDUAL, PR_MAX_ROUNDS)
                }),
            ),
        }
    }
}

/// BSP and BASP runs of the same program on the same partition must reach
/// the same fixed point: bit-identical integral outputs, and pagerank
/// ranks that agree within the tolerance.
pub fn same_fixed_point(app: App, bsp: &[f64], basp: &[f64]) -> Check {
    match app {
        // Each is within PR_TOLERANCE of the reference, so they agree
        // within twice that.
        App::PageRank => {
            let err = worst_pr_error(basp, bsp);
            if err < 2.0 * PR_TOLERANCE {
                Ok(())
            } else {
                Err(format!("ranks differ by {err:.4}"))
            }
        }
        _ => match bsp.iter().zip(basp).position(|(a, b)| a != b) {
            None if bsp.len() == basp.len() => Ok(()),
            None => Err(format!("{} BSP values, {} BASP", bsp.len(), basp.len())),
            Some(v) => Err(format!("vertex {v}: BSP {} vs BASP {}", bsp[v], basp[v])),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_graph::CsrBuilder;

    /// 0->1 (4), 0->2 (1), 2->1 (1), 1->3 (2), 4 isolated.
    fn graph() -> Csr {
        let mut b = CsrBuilder::new(5);
        b.add_weighted(0, 1, 4);
        b.add_weighted(0, 2, 1);
        b.add_weighted(2, 1, 1);
        b.add_weighted(1, 3, 2);
        b.build()
    }

    fn as_f64(v: &[u32]) -> Vec<f64> {
        v.iter().map(|&x| x as f64).collect()
    }

    #[test]
    fn correct_results_pass() {
        let g = graph();
        let sym = g.symmetrize();
        let mut o = Oracle::default();
        let bfs = reference::bfs(&g, 0);
        let sssp = reference::sssp(&g, 0);
        assert_eq!(sssp, vec![0, 2, 1, 4, UNREACHED]);
        o.check(&g, &sym, App::Bfs, 0, &as_f64(&bfs)).unwrap();
        o.check(&g, &sym, App::Sssp, 0, &as_f64(&sssp)).unwrap();
        o.check(&g, &sym, App::Cc, 0, &as_f64(&reference::cc(&sym)))
            .unwrap();
        let pr = reference::pagerank(&g, PR_ALPHA, PR_RESIDUAL, PR_MAX_ROUNDS);
        o.check(&g, &sym, App::PageRank, 0, &pr).unwrap();
    }

    #[test]
    fn corrupted_vectors_fail() {
        let g = graph();
        let sym = g.symmetrize();
        let mut o = Oracle::default();

        // A distance one too high: the edge into it relaxes it.
        let mut sssp = reference::sssp(&g, 0);
        sssp[3] += 1;
        let err = o.check(&g, &sym, App::Sssp, 0, &as_f64(&sssp)).unwrap_err();
        assert!(err.contains("relaxes"), "{err}");

        // A distance one too low: consistent along out-edges but with no
        // tight in-edge.
        let mut sssp = reference::sssp(&g, 0);
        sssp[3] -= 1;
        let err = path_props(&g, 0, &sssp, true).unwrap_err();
        assert!(err.contains("tight"), "{err}");

        // A non-integral level.
        let mut bfs = as_f64(&reference::bfs(&g, 0));
        bfs[1] = 1.5;
        assert!(o.check(&g, &sym, App::Bfs, 0, &bfs).is_err());

        // A split component.
        let mut cc = reference::cc(&sym);
        cc[3] = 3;
        let err = o.check(&g, &sym, App::Cc, 0, &as_f64(&cc)).unwrap_err();
        assert!(err.contains("joins labels"), "{err}");

        // A pagerank off by 10%.
        let mut pr = reference::pagerank(&g, PR_ALPHA, PR_RESIDUAL, PR_MAX_ROUNDS);
        pr[1] *= 1.1;
        assert!(o.check(&g, &sym, App::PageRank, 0, &pr).is_err());

        // BSP and BASP disagreeing on one level.
        let bfs = as_f64(&reference::bfs(&g, 0));
        let mut other = bfs.clone();
        other[2] = 7.0;
        assert!(same_fixed_point(App::Bfs, &bfs, &other).is_err());
        same_fixed_point(App::Bfs, &bfs, &bfs).unwrap();
    }
}
