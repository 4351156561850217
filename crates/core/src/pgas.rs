//! A PGAS-style view over the shared space — the other half of the
//! paper's §VII future work ("supporting other programming models such as
//! Partitioned Global Address Space (PGAS) and MapReduce").
//!
//! [`GlobalArray`] presents one coupled variable as a partitioned global
//! array: every client reads or writes arbitrary rectangular sections by
//! global coordinates, without naming owners, pieces or schedules. Reads
//! of remote sections become receiver-driven pulls (locality-accounted
//! like every CoDS transfer); writes are legal only within the caller's
//! own partition (the "partitioned" in PGAS — remote writes would race).

use insitu_cods::{CodsError, CodsSpace, FieldData, GetReport};
use insitu_domain::{layout, BoundingBox, Decomposition};
use insitu_fabric::ClientId;
use std::sync::Arc;

/// A handle on one globally addressable array, owned cooperatively by the
/// ranks of `decomposition` (rank `r` runs on `clients[r]`).
#[derive(Clone)]
pub struct GlobalArray {
    space: Arc<CodsSpace>,
    name: String,
    app: u32,
    decomposition: Decomposition,
    clients: Vec<ClientId>,
    version: u64,
}

impl GlobalArray {
    /// Create the handle (all ranks construct it identically).
    ///
    /// # Panics
    /// Panics if `clients` does not list one client per rank.
    pub fn new(
        space: Arc<CodsSpace>,
        name: impl Into<String>,
        app: u32,
        decomposition: Decomposition,
        clients: Vec<ClientId>,
        version: u64,
    ) -> Self {
        assert_eq!(
            clients.len() as u64,
            decomposition.num_ranks(),
            "one client per rank required"
        );
        GlobalArray {
            space,
            name: name.into(),
            app,
            decomposition,
            clients,
            version,
        }
    }

    /// The array's global bounds.
    pub fn bounds(&self) -> &BoundingBox {
        self.decomposition.domain()
    }

    /// The region owned by `rank` (its writable partition).
    pub fn partition_of(&self, rank: u64) -> Vec<BoundingBox> {
        self.decomposition.rank_region(rank)
    }

    /// Publish `rank`'s partition contents. `fill` is evaluated at every
    /// owned cell. This is the PGAS "local write": only the owner writes
    /// its partition.
    pub fn write_local(
        &self,
        rank: u64,
        mut fill: impl FnMut(&[u64]) -> f64,
    ) -> Result<(), CodsError> {
        let client = self.clients[rank as usize];
        for (pi, piece) in self.decomposition.rank_region(rank).into_iter().enumerate() {
            let data = layout::fill_with(&piece, |p| fill(&p[..piece.ndim()]));
            self.space.put_cont(
                client,
                self.app,
                &self.name,
                self.version,
                pi as u64,
                &piece,
                data,
            )?;
        }
        Ok(())
    }

    /// Read an arbitrary global section from `reader` (any client). Local
    /// parts come from shared memory, remote parts are pulled over the
    /// (simulated) network; the report says which. When the section falls
    /// entirely inside one stored piece the result is a zero-copy view of
    /// the staged buffer.
    pub fn read(
        &self,
        reader: ClientId,
        section: &BoundingBox,
    ) -> Result<(FieldData, GetReport), CodsError> {
        self.space.get_cont(
            reader,
            self.app,
            &self.name,
            self.version,
            section,
            &self.decomposition,
            &self.clients,
        )
    }

    /// Read a single element by global coordinates.
    pub fn read_at(&self, reader: ClientId, p: &[u64]) -> Result<f64, CodsError> {
        let cell = BoundingBox::new(p, p);
        Ok(self.read(reader, &cell)?.0[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_cods::{CodsConfig, Dht};
    use insitu_dart::DartRuntime;
    use insitu_domain::{Distribution, ProcessGrid};
    use insitu_fabric::{MachineSpec, Placement, TransferLedger};
    use insitu_sfc::HilbertCurve;

    fn array() -> GlobalArray {
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let dht = Dht::new(Box::new(HilbertCurve::new(2, 4)), vec![0, 2]);
        let space = CodsSpace::new(dart, dht, CodsConfig::default());
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[16, 16]),
            ProcessGrid::new(&[2, 2]),
            Distribution::Blocked,
        );
        GlobalArray::new(space, "ga", 1, dec, vec![0, 1, 2, 3], 0)
    }

    fn value(p: &[u64]) -> f64 {
        (p[0] * 31 + p[1]) as f64
    }

    #[test]
    fn global_reads_see_all_partitions() {
        let ga = array();
        for r in 0..4 {
            ga.write_local(r, value).unwrap();
        }
        // A section spanning all four partitions, read by client 3.
        let section = BoundingBox::new(&[4, 4], &[11, 11]);
        let (data, report) = ga.read(3, &section).unwrap();
        for p in section.iter_points() {
            assert_eq!(
                data[layout::linear_index(&section, &p[..2])],
                value(&p[..2])
            );
        }
        assert!(report.ops >= 4);
        // Mixed locality: some shared memory, some network.
        assert!(report.shm_bytes > 0 && report.net_bytes > 0);
    }

    #[test]
    fn read_at_single_elements() {
        let ga = array();
        for r in 0..4 {
            ga.write_local(r, value).unwrap();
        }
        assert_eq!(ga.read_at(0, &[0, 0]).unwrap(), 0.0);
        assert_eq!(ga.read_at(0, &[15, 15]).unwrap(), value(&[15, 15]));
        assert_eq!(ga.read_at(2, &[7, 9]).unwrap(), value(&[7, 9]));
    }

    #[test]
    fn partitions_tile_bounds() {
        let ga = array();
        let total: u128 = (0..4)
            .flat_map(|r| ga.partition_of(r))
            .map(|b| b.num_cells())
            .sum();
        assert_eq!(total, ga.bounds().num_cells());
    }

    #[test]
    fn read_blocks_until_owner_writes() {
        let ga = array();
        ga.write_local(0, value).unwrap();
        // Partition 3 not yet written: a reader thread blocks, then the
        // owner writes, then the read completes.
        let ga2 = ga.clone();
        let reader = std::thread::spawn(move || {
            let section = BoundingBox::new(&[12, 12], &[15, 15]);
            ga2.read(0, &section).unwrap().0
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        ga.write_local(3, value).unwrap();
        let data = reader.join().unwrap();
        assert_eq!(data[0], value(&[12, 12]));
    }

    #[test]
    fn cyclic_partitions_supported() {
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let dht = Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 2]);
        let space = CodsSpace::new(dart, dht, CodsConfig::default());
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[8, 8]),
            ProcessGrid::new(&[2, 2]),
            Distribution::Cyclic,
        );
        let ga = GlobalArray::new(space, "cy", 1, dec, vec![0, 1, 2, 3], 0);
        for r in 0..4 {
            ga.write_local(r, value).unwrap();
        }
        let section = BoundingBox::new(&[1, 1], &[6, 6]);
        let (data, _) = ga.read(1, &section).unwrap();
        for p in section.iter_points() {
            assert_eq!(
                data[layout::linear_index(&section, &p[..2])],
                value(&p[..2])
            );
        }
    }

    #[test]
    #[should_panic(expected = "one client per rank")]
    fn rejects_wrong_client_count() {
        let ga = array();
        let _ = GlobalArray::new(
            Arc::clone(&ga.space),
            "bad",
            1,
            ga.decomposition,
            vec![0, 1],
            0,
        );
    }
}
