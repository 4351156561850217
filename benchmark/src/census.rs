//! The op census: what one coupled iteration of a workload moves.
//!
//! Derived from the compiled scenario with the program's public
//! functions only (`map_scenario`, `schedule_from_decomposition`,
//! `schedule_from_entries`): every get of an iteration with the
//! transfers that fulfil it — producer box, consumer box, overlap,
//! bytes, link class — and every standing-query push. The traced pass
//! replays exactly this census through each layer, and checks it
//! against an end-to-end run before trusting it.

use insitu::{MappedScenario, Scenario};
use insitu_cods::{schedule_from_decomposition, schedule_from_entries, LocationEntry, TransferOp};
use insitu_domain::BoundingBox;
use insitu_fabric::ClientId;

/// Bytes per field element (the threaded executor stores `f64`).
pub const ELEM: u64 = 8;

/// One get of an iteration.
#[derive(Clone, Debug)]
pub struct Get {
    /// Variable name.
    pub var: String,
    /// Concurrent (`get_cont`) or sequential (`get_seq`) coupling.
    pub concurrent: bool,
    /// Producing application.
    pub producer_app: u32,
    /// Client of every producer rank, indexed by rank.
    pub producer_clients: Vec<ClientId>,
    /// Consuming application.
    pub app: u32,
    /// Consuming client.
    pub client: ClientId,
    /// The retrieved box.
    pub query: BoundingBox,
    /// The transfers that fulfil it, as the program schedules them.
    pub ops: Vec<TransferOp>,
    /// Issued on one version in `every_k` (1 for coupling gets; a
    /// subscription's stride for its verify gets).
    pub every_k: u64,
}

/// One standing-query fragment pushed by a put.
#[derive(Clone, Debug)]
pub struct Push {
    /// Variable name.
    pub var: String,
    /// Producing client.
    pub src: ClientId,
    /// Subscribing client.
    pub dst: ClientId,
    /// The producer piece the fragment is cut from.
    pub piece_box: BoundingBox,
    /// The subscriber's whole region (its sink's assembly box).
    pub region: BoundingBox,
    /// The fragment: piece ∩ region.
    pub fragment: BoundingBox,
    /// Pushed on one version in `every_k`.
    pub every_k: u64,
}

/// One producer piece put per iteration.
#[derive(Clone, Debug)]
pub struct Piece {
    /// Variable name.
    pub var: String,
    /// Indexed in the DHT (`put_seq`) or not (`put_cont`).
    pub concurrent: bool,
    /// Producing application.
    pub app: u32,
    /// Producing client.
    pub client: ClientId,
    /// Piece index within the producer's put sequence.
    pub piece: u64,
    /// The piece's box.
    pub bbox: BoundingBox,
}

/// Everything one iteration moves.
#[derive(Clone, Debug, Default)]
pub struct Census {
    /// Producer pieces, in put order.
    pub pieces: Vec<Piece>,
    /// Gets, in consumer order.
    pub gets: Vec<Get>,
    /// Standing-query pushes.
    pub pushes: Vec<Push>,
    /// Cores per node of the mapped machine (link classification).
    pub cores_per_node: u32,
}

fn cells_bytes(b: &BoundingBox) -> u64 {
    b.num_cells() as u64 * ELEM
}

/// Versions in `0..k` on stride `every_k`.
fn on_stride(k: u64, every_k: u64) -> u64 {
    k.div_ceil(every_k)
}

impl Census {
    /// Derive the census of `scenario` under `mapped`.
    pub fn of(scenario: &Scenario, mapped: &MappedScenario) -> Census {
        let mut c = Census {
            cores_per_node: mapped.machine.cores_per_node,
            ..Census::default()
        };
        let clients_of = |app: u32| -> Vec<ClientId> {
            (0..scenario.decomposition(app).num_ranks())
                .map(|r| mapped.core_of_task(app, r))
                .collect()
        };
        for coupling in &scenario.couplings {
            let pdec = scenario.decomposition(coupling.producer_app);
            let pclients = clients_of(coupling.producer_app);
            for (rank, &client) in pclients.iter().enumerate() {
                for (pi, bbox) in pdec.rank_region(rank as u64).into_iter().enumerate() {
                    c.pieces.push(Piece {
                        var: coupling.var.clone(),
                        concurrent: coupling.concurrent,
                        app: coupling.producer_app,
                        client,
                        piece: pi as u64,
                        bbox,
                    });
                }
            }
            let entries = c.entries_of(&coupling.var);
            let schedule = |query: &BoundingBox| -> Vec<TransferOp> {
                if coupling.concurrent {
                    schedule_from_decomposition(pdec, &pclients, query).ops
                } else {
                    schedule_from_entries(&entries, query).ops
                }
            };
            let region = coupling.region.unwrap_or(*pdec.domain());
            for &capp in &coupling.consumer_apps {
                let cdec = scenario.decomposition(capp);
                for rank in 0..cdec.num_ranks() {
                    let client = mapped.core_of_task(capp, rank);
                    for query in cdec
                        .rank_region(rank)
                        .into_iter()
                        .filter_map(|p| p.intersect(&region))
                    {
                        c.gets.push(Get {
                            var: coupling.var.clone(),
                            concurrent: coupling.concurrent,
                            producer_app: coupling.producer_app,
                            producer_clients: pclients.clone(),
                            app: capp,
                            client,
                            query,
                            ops: schedule(&query),
                            every_k: 1,
                        });
                    }
                }
            }
            // Standing queries riding this coupling: each on-stride put
            // pushes piece ∩ region, and the subscriber re-reads its
            // region with an ordinary get.
            for sub in scenario
                .subscriptions
                .iter()
                .filter(|s| s.var == coupling.var && s.producer_app == coupling.producer_app)
            {
                let sdec = scenario.decomposition(sub.subscriber_app);
                let sub_region = sub.region.unwrap_or(*pdec.domain());
                for rank in 0..sdec.num_ranks() {
                    let client = mapped.core_of_task(sub.subscriber_app, rank);
                    for region in sdec
                        .rank_region(rank)
                        .into_iter()
                        .filter_map(|p| p.intersect(&sub_region))
                    {
                        for piece in c.pieces.iter().filter(|p| p.var == sub.var) {
                            if let Some(fragment) = piece.bbox.intersect(&region) {
                                c.pushes.push(Push {
                                    var: sub.var.clone(),
                                    src: piece.client,
                                    dst: client,
                                    piece_box: piece.bbox,
                                    region,
                                    fragment,
                                    every_k: sub.every_k,
                                });
                            }
                        }
                        c.gets.push(Get {
                            var: sub.var.clone(),
                            concurrent: coupling.concurrent,
                            producer_app: coupling.producer_app,
                            producer_clients: pclients.clone(),
                            app: sub.subscriber_app,
                            client,
                            query: region,
                            ops: schedule(&region),
                            every_k: sub.every_k,
                        });
                    }
                }
            }
        }
        c
    }

    /// What the DHT holds for `var` once every producer has put: one
    /// location entry per piece.
    pub fn entries_of(&self, var: &str) -> Vec<LocationEntry> {
        self.pieces
            .iter()
            .filter(|p| p.var == var)
            .map(|p| LocationEntry {
                bbox: p.bbox,
                owner: p.client,
                piece: p.piece,
            })
            .collect()
    }

    /// Whether a transfer between two clients crosses nodes.
    pub fn crosses_nodes(&self, a: ClientId, b: ClientId) -> bool {
        a / self.cores_per_node != b / self.cores_per_node
    }

    /// Inter-application bytes `k` iterations account in the ledger:
    /// every get's transfers plus every push.
    pub fn inter_app_bytes(&self, k: u64) -> u64 {
        let gets: u64 = self
            .gets
            .iter()
            .map(|g| {
                on_stride(k, g.every_k) * g.ops.iter().map(|o| cells_bytes(&o.region)).sum::<u64>()
            })
            .sum();
        let pushes: u64 = self
            .pushes
            .iter()
            .map(|p| on_stride(k, p.every_k) * cells_bytes(&p.fragment))
            .sum();
        gets + pushes
    }

    /// Transfers (`GetReport.ops`) `k` iterations execute.
    pub fn get_ops(&self, k: u64) -> u64 {
        self.gets
            .iter()
            .map(|g| on_stride(k, g.every_k) * g.ops.len() as u64)
            .sum()
    }

    /// Gets `k` iterations complete.
    pub fn get_count(&self, k: u64) -> u64 {
        self.gets.iter().map(|g| on_stride(k, g.every_k)).sum()
    }
}

/// Bytes of a box of `f64` cells.
pub fn box_bytes(b: &BoundingBox) -> u64 {
    cells_bytes(b)
}
