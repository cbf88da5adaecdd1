//! Parallel evaluation runner: the full (trace-point × configuration)
//! matrix, one simulation per cell, fanned out over worker threads.
//!
//! Since the batch refactor this is a thin shim over
//! [`crate::batch::EvalDriver`]: the matrix becomes a row-major job list,
//! the driver drains it with per-worker reusable sessions, and the results
//! land in disjoint slots — deterministic regardless of scheduling, now
//! without a fresh machine allocation per cell.

use virtclust_sim::SimStats;
use virtclust_uarch::MachineConfig;
use virtclust_workloads::TracePoint;

use crate::batch::{EvalDriver, EvalJob};
use crate::experiment::Configuration;

/// Results of a full evaluation matrix.
#[derive(Debug, Clone)]
pub struct EvalMatrix {
    /// Machine the matrix ran on.
    pub machine: MachineConfig,
    /// Configurations, column order.
    pub configs: Vec<Configuration>,
    /// Trace points, row order.
    pub points: Vec<TracePoint>,
    /// `stats[point][config]`.
    pub stats: Vec<Vec<SimStats>>,
    /// Micro-op budget per cell.
    pub uops: u64,
}

impl EvalMatrix {
    /// Stats cell for (point row, config column).
    pub fn cell(&self, point: usize, config: usize) -> &SimStats {
        &self.stats[point][config]
    }

    /// Column index of `config`.
    pub fn config_index(&self, config: &Configuration) -> Option<usize> {
        self.configs.iter().position(|c| c == config)
    }
}

/// Run all (point × config) cells, using up to `threads` worker threads
/// (0 = one per available CPU). Each cell is bit-identical to a standalone
/// [`run_point`](crate::run_point) call; the cells execute on the batch
/// engine's reusable per-worker sessions.
pub fn run_matrix(
    machine: &MachineConfig,
    configs: &[Configuration],
    points: &[TracePoint],
    uops: u64,
    threads: usize,
) -> EvalMatrix {
    // Row-major: cell i = (point i / |configs|, config i % |configs|).
    let jobs: Vec<EvalJob> = points
        .iter()
        .flat_map(|point| {
            configs.iter().map(move |config| EvalJob::Point {
                point: point.clone(),
                config: *config,
                uops,
            })
        })
        .collect();
    let outcomes = EvalDriver::new(machine).threads(threads).run(&jobs);

    let mut stats = Vec::with_capacity(points.len());
    let mut it = outcomes.into_iter();
    for _ in 0..points.len() {
        let row: Vec<SimStats> = it
            .by_ref()
            .take(configs.len())
            .map(|o| o.stats.expect("point jobs cannot fail"))
            .collect();
        stats.push(row);
    }

    EvalMatrix {
        machine: machine.clone(),
        configs: configs.to_vec(),
        points: points.to_vec(),
        stats,
        uops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtclust_workloads::spec2000_points;

    fn small_points(n: usize) -> Vec<TracePoint> {
        spec2000_points().into_iter().take(n).collect()
    }

    #[test]
    fn matrix_has_all_cells_in_order() {
        let points = small_points(3);
        let configs = vec![Configuration::Op, Configuration::OneCluster];
        let m = run_matrix(
            &MachineConfig::paper_2cluster(),
            &configs,
            &points,
            1_000,
            2,
        );
        assert_eq!(m.stats.len(), 3);
        for row in &m.stats {
            assert_eq!(row.len(), 2);
            for cell in row {
                assert_eq!(cell.committed_uops, 1_000);
            }
        }
        assert_eq!(m.config_index(&Configuration::OneCluster), Some(1));
        assert_eq!(m.config_index(&Configuration::Rhop), None);
    }

    #[test]
    fn parallel_and_serial_results_agree() {
        let points = small_points(2);
        let configs = vec![Configuration::Op, Configuration::Vc { num_vcs: 2 }];
        let a = run_matrix(&MachineConfig::paper_2cluster(), &configs, &points, 800, 1);
        let b = run_matrix(&MachineConfig::paper_2cluster(), &configs, &points, 800, 4);
        assert_eq!(a.stats, b.stats, "thread count must not affect results");
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = run_matrix(&MachineConfig::paper_2cluster(), &[], &[], 100, 2);
        assert!(m.stats.is_empty());
    }
}
