//! MapReduce over the shared space — the paper's future-work extension
//! ("we will also explore supporting other programming models such as
//! Partitioned Global Address Space (PGAS) and MapReduce", §VII).
//!
//! The classic fit for CoDS is the *partial-aggregation* shape: map tasks
//! scan their region of a coupled field and emit fixed-width partials
//! (here: value histograms); reducers pull the partials they are
//! responsible for directly from where they were produced — the same
//! one-sided, locality-accounted transfers as any other coupling — and
//! publish the reduced result back into the space.
//!
//! Layout: partials live in a 1-D domain of `map_tasks * bins` cells;
//! map task `m` owns `[m*bins, (m+1)*bins)`. Reducer `r` owns the bin
//! range `[r*bins/R, (r+1)*bins/R)` of the *result* domain `[0, bins)`
//! and gathers that slice from every map partial.

use crate::threaded::fill_field;
use insitu_cods::{var_id, CodsConfig, CodsSpace, Dht};
use insitu_dart::DartRuntime;
use insitu_domain::{BoundingBox, Decomposition};
use insitu_fabric::{ClientId, LedgerSnapshot, MachineSpec, Placement, TransferLedger};
use insitu_sfc::HilbertCurve;
use std::sync::Arc;

/// Configuration of a histogram MapReduce job.
#[derive(Clone, Debug)]
pub struct HistogramJob {
    /// Decomposition of the input field (one map task per rank).
    pub input: Decomposition,
    /// Number of histogram bins over the field's `[0, 1)` value range.
    pub bins: u64,
    /// Number of reduce tasks (must divide `bins`).
    pub reduce_tasks: u64,
    /// Cores per node of the simulated machine.
    pub cores_per_node: u32,
}

/// Result of a MapReduce run.
#[derive(Clone, Debug)]
pub struct HistogramOutcome {
    /// The final histogram (counts per bin).
    pub histogram: Vec<u64>,
    /// Transfer ledger of the whole job.
    pub ledger: LedgerSnapshot,
}

/// The serial reference: histogram of `field_value(var, 0, p)` over the
/// input domain.
pub fn serial_histogram(input: &Decomposition, var: &str, bins: u64) -> Vec<u64> {
    let vid = var_id(var);
    let mut hist = vec![0u64; bins as usize];
    for v in fill_field(vid, 0, input.domain()) {
        let bin = ((v * bins as f64) as u64).min(bins - 1);
        hist[bin as usize] += 1;
    }
    hist
}

/// Run the histogram job with one thread per map task and per reduce
/// task, all data flowing through the shared space.
///
/// # Panics
/// Panics if `reduce_tasks` or `bins` is zero, if `reduce_tasks` does not
/// divide `bins`, or if the machine is too small.
pub fn run_histogram(job: &HistogramJob, var: &str) -> HistogramOutcome {
    assert!(job.reduce_tasks > 0, "reduce_tasks must be positive");
    assert!(job.bins > 0, "bins must be positive");
    assert!(
        job.bins.is_multiple_of(job.reduce_tasks),
        "reduce_tasks must divide bins"
    );
    let m = job.input.num_ranks();
    let r = job.reduce_tasks;
    let total_clients = (m + r) as u32;
    let machine = MachineSpec::new(
        total_clients.div_ceil(job.cores_per_node),
        job.cores_per_node,
    );
    let placement = Arc::new(Placement::pack_sequential(machine, total_clients));
    let ledger = Arc::new(TransferLedger::new());
    let dart = DartRuntime::new(placement, Arc::clone(&ledger));
    // 1-D curve covering the partials domain.
    let partial_cells = m * job.bins;
    let order = 64 - (partial_cells - 1).leading_zeros();
    let dht_clients: Vec<ClientId> = (0..machine.nodes).map(|n| machine.core(n, 0)).collect();
    let dht = Dht::new(Box::new(HilbertCurve::new(1, order.max(1))), dht_clients);
    let space = CodsSpace::new(Arc::clone(&dart), dht, CodsConfig::default());

    let partial_var = format!("{var}.partials");
    let vid = var_id(var);
    let mut handles = Vec::new();

    // Map tasks: client ids [0, m).
    for task in 0..m {
        let space = Arc::clone(&space);
        let input = job.input;
        let bins = job.bins;
        let partial_var = partial_var.clone();
        handles.push(std::thread::spawn(move || {
            let mut hist = vec![0.0f64; bins as usize];
            for piece in input.rank_region(task) {
                for v in fill_field(vid, 0, &piece) {
                    let bin = ((v * bins as f64) as u64).min(bins - 1);
                    hist[bin as usize] += 1.0;
                }
            }
            // Publish the partial at [task*bins, (task+1)*bins).
            let bbox = BoundingBox::new(&[task * bins], &[(task + 1) * bins - 1]);
            space
                .put_cont(task as ClientId, 1, &partial_var, 0, 0, &bbox, hist)
                .expect("partial put failed");
        }));
    }

    // Reduce tasks: client ids [m, m + r). Partials form their own 1-D
    // blocked decomposition (one rank per map task), which the reducers
    // use for direct concurrent-coupling pulls.
    let partials_dec = Decomposition::new(
        BoundingBox::from_sizes(&[partial_cells]),
        insitu_domain::ProcessGrid::new(&[m]),
        insitu_domain::Distribution::Blocked,
    );
    let map_clients: Vec<ClientId> = (0..m as u32).collect();
    let slice = job.bins / r;
    let mut reduce_handles = Vec::new();
    for task in 0..r {
        let space = Arc::clone(&space);
        let bins = job.bins;
        let partial_var = partial_var.clone();
        let maps = m;
        let map_clients = map_clients.clone();
        reduce_handles.push(std::thread::spawn(move || {
            let client = (maps + task) as ClientId;
            let lo = task * slice;
            let hi = (task + 1) * slice - 1;
            let mut acc = vec![0u64; slice as usize];
            for map_task in 0..maps {
                // Pull this reducer's bin range of map_task's partial.
                let q = BoundingBox::new(&[map_task * bins + lo], &[map_task * bins + hi]);
                let (vals, _) = space
                    .get_cont(client, 2, &partial_var, 0, &q, &partials_dec, &map_clients)
                    .expect("partial get failed");
                for (i, v) in vals.iter().enumerate() {
                    acc[i] += *v as u64;
                }
            }
            (task, acc)
        }));
    }

    for h in handles {
        h.join().expect("map task panicked");
    }
    let mut histogram = vec![0u64; job.bins as usize];
    for h in reduce_handles {
        let (task, acc) = h.join().expect("reduce task panicked");
        let base = (task * slice) as usize;
        histogram[base..base + acc.len()].copy_from_slice(&acc);
    }
    HistogramOutcome {
        histogram,
        ledger: ledger.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_domain::{Distribution, ProcessGrid};
    use insitu_fabric::TrafficClass;

    fn input() -> Decomposition {
        Decomposition::new(
            BoundingBox::from_sizes(&[16, 16]),
            ProcessGrid::new(&[2, 2]),
            Distribution::Blocked,
        )
    }

    #[test]
    fn histogram_matches_serial_reference() {
        let job = HistogramJob {
            input: input(),
            bins: 8,
            reduce_tasks: 4,
            cores_per_node: 4,
        };
        let out = run_histogram(&job, "field");
        assert_eq!(out.histogram, serial_histogram(&input(), "field", 8));
        // All cells binned exactly once.
        assert_eq!(out.histogram.iter().sum::<u64>(), 256);
    }

    #[test]
    #[should_panic(expected = "reduce_tasks must be positive")]
    fn zero_reduce_tasks_is_refused_by_name() {
        let job = HistogramJob {
            input: input(),
            bins: 0,
            reduce_tasks: 0,
            cores_per_node: 4,
        };
        run_histogram(&job, "f0");
    }

    #[test]
    #[should_panic(expected = "bins must be positive")]
    fn zero_bins_is_refused_by_name() {
        let job = HistogramJob {
            input: input(),
            bins: 0,
            reduce_tasks: 2,
            cores_per_node: 4,
        };
        run_histogram(&job, "f0");
    }

    #[test]
    fn single_reducer() {
        let job = HistogramJob {
            input: input(),
            bins: 4,
            reduce_tasks: 1,
            cores_per_node: 4,
        };
        let out = run_histogram(&job, "f2");
        assert_eq!(out.histogram.iter().sum::<u64>(), 256);
        assert_eq!(out.histogram, serial_histogram(&input(), "f2", 4));
    }

    #[test]
    fn shuffle_traffic_is_accounted() {
        let job = HistogramJob {
            input: input(),
            bins: 8,
            reduce_tasks: 2,
            cores_per_node: 2,
        };
        let out = run_histogram(&job, "f3");
        // 4 maps x 8 bins x 8 bytes of partials, each bin pulled once.
        assert_eq!(out.ledger.total_bytes(TrafficClass::InterApp), 4 * 8 * 8);
    }

    #[test]
    fn cyclic_input_distribution_works() {
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[8, 8]),
            ProcessGrid::new(&[2, 2]),
            Distribution::Cyclic,
        );
        let job = HistogramJob {
            input: dec,
            bins: 4,
            reduce_tasks: 2,
            cores_per_node: 4,
        };
        let out = run_histogram(&job, "f4");
        assert_eq!(out.histogram, serial_histogram(&dec, "f4", 4));
    }

    #[test]
    #[should_panic(expected = "reduce_tasks must divide bins")]
    fn rejects_indivisible_reducers() {
        let job = HistogramJob {
            input: input(),
            bins: 7,
            reduce_tasks: 2,
            cores_per_node: 4,
        };
        run_histogram(&job, "f5");
    }
}
