//! The modeled executor: same placements, same schedules, same byte
//! arithmetic as the threaded executor — evaluated analytically, with no
//! threads and no data buffers — so the paper's 512- to 9216-core
//! configurations run in milliseconds. An integration test pins its ledger
//! to the threaded executor's on identical scenarios.

use crate::mapping::{map_scenario, MappedScenario, MappingStrategy};
use crate::scenario::Scenario;
use insitu_cods::var_id;
use insitu_domain::stencil::halo_exchanges;
use insitu_fabric::{
    estimate_retrieves, ClientRetrieve, LedgerSnapshot, LinkFaults, Locality, MachineSpec,
    NetworkModel, NodeId, RetrieveBreakdown, TorusTopology, TrafficClass, Transfer, TransferLedger,
    TransferSlot,
};
use insitu_obs::{Event, EventKind, FlightRecorder, LinkClass};
use insitu_telemetry::Recorder;
use insitu_workflow::pairwise_overlaps_region;
use std::collections::{BTreeMap, HashMap};

/// Results of one modeled scenario run.
#[derive(Clone, Debug)]
pub struct ModeledOutcome {
    /// Strategy the scenario ran under.
    pub strategy: MappingStrategy,
    /// Byte ledger (the Figs. 8/9/12-15 quantities).
    pub ledger: LedgerSnapshot,
    /// Per consumer app: estimated retrieve time in ms, the per-app
    /// maximum over its tasks (the Figs. 11/16 quantity).
    pub retrieve_ms: BTreeMap<u32, f64>,
    /// Per consumer app: mean retrieve time over its tasks.
    pub retrieve_ms_mean: BTreeMap<u32, f64>,
    /// The placements used.
    pub mapped: MappedScenario,
}

/// Estimated DHT span queries a consumer task issues for a region of
/// `region_cells` cells: the number of DHT-core intervals its index spans
/// touch, approximated by volume (one core per `domain/nodes` indices),
/// clamped to the core count. Cached schedules skip these entirely; we
/// model the first (cold) iteration.
fn dht_queries_estimate(region_cells: u128, domain_cells: u128, dht_cores: u32) -> u32 {
    let interval = domain_cells.div_ceil(dht_cores as u128).max(1);
    (region_cells.div_ceil(interval) as u32 + 1).min(dht_cores)
}

/// Execution knobs of the modeled executor.
#[derive(Clone, Debug, Default)]
pub struct ModeledConfig {
    /// Torus-link bandwidth degradations to model (healthy by default);
    /// the modeled analogue of the chaos harness's `link-slow` faults.
    pub link_faults: LinkFaults,
    /// Flight recorder receiving synthetic causal events mirroring the
    /// model's `query + max(shm, net)` time decomposition (disabled by
    /// default), so `insitu profile` reads modeled and threaded runs
    /// identically.
    pub flight: FlightRecorder,
}

/// Run `scenario` under `strategy` analytically.
pub fn run_modeled(scenario: &Scenario, strategy: MappingStrategy) -> ModeledOutcome {
    run_modeled_configured(
        scenario,
        strategy,
        &Recorder::disabled(),
        &ModeledConfig::default(),
    )
}

/// [`run_modeled`], mirroring the ledger into `recorder`'s metrics,
/// under explicit execution knobs: injected torus-link slowdowns and a
/// flight recorder for synthetic causal events. Pass
/// `&ModeledConfig::default()` for none.
pub fn run_modeled_configured(
    scenario: &Scenario,
    strategy: MappingStrategy,
    recorder: &Recorder,
    cfg: &ModeledConfig,
) -> ModeledOutcome {
    let mapped = recorder
        .histogram("workflow.map_us")
        .time(|| map_scenario(scenario, strategy));
    let ledger = TransferLedger::with_recorder(recorder);
    let topo = TorusTopology::cubic_for(mapped.machine.nodes);
    let mut retrieves: BTreeMap<u32, Vec<ClientRetrieve>> = BTreeMap::new();
    // `(var, concurrent, consumer rank)` tags for each retrieve, pushed in
    // the same order as `retrieves` so the flattened vectors align.
    let mut metas: BTreeMap<u32, Vec<(u64, bool, u64)>> = BTreeMap::new();

    // Inter-application coupling traffic + per-consumer retrieve flows.
    for coupling in &scenario.couplings {
        let pdec = scenario.decomposition(coupling.producer_app);
        let coupled_region = coupling.region.unwrap_or(*pdec.domain());
        for &capp in &coupling.consumer_apps {
            let cdec = scenario.decomposition(capp);
            let ntasks = scenario.workflow.app(capp).unwrap().ntasks as usize;
            let mut per_rank: Vec<HashMap<NodeId, u64>> = vec![HashMap::new(); ntasks];
            for (pr, cr, cells) in pairwise_overlaps_region(pdec, cdec, &coupled_region) {
                let bytes = cells as u64 * scenario.elem_bytes;
                let src = mapped.node_of_task(coupling.producer_app, pr);
                let dst = mapped.node_of_task(capp, cr);
                let loc = if src == dst {
                    Locality::SharedMemory
                } else {
                    Locality::Network
                };
                // The coupling repeats every iteration with the same
                // schedule: one transfer per (producer rank, consumer
                // rank) pair per iteration, exactly as the threaded
                // executor accounts its per-version pulls. Flows below
                // stay per-iteration (retrieve time is a per-version
                // quantity).
                ledger.record_repeated(
                    capp,
                    TrafficClass::InterApp,
                    loc,
                    bytes,
                    scenario.iterations,
                );
                *per_rank[cr as usize].entry(src).or_insert(0) += bytes;
            }
            let domain_cells = pdec.domain().num_cells();
            let app_retrieves = retrieves.entry(capp).or_default();
            for (rank, sources) in per_rank.into_iter().enumerate() {
                let dst_node = mapped.node_of_task(capp, rank as u64);
                let transfers: Vec<Transfer> = sources
                    .into_iter()
                    .map(|(src_node, bytes)| Transfer::new(src_node, bytes))
                    .collect();
                let dht_queries = if coupling.concurrent {
                    0
                } else {
                    dht_queries_estimate(
                        cdec.rank_cells(rank as u64),
                        domain_cells,
                        mapped.machine.nodes,
                    )
                };
                app_retrieves.push(ClientRetrieve {
                    dst_node,
                    transfers,
                    dht_queries,
                });
                metas.entry(capp).or_default().push((
                    var_id(&coupling.var),
                    coupling.concurrent,
                    rank as u64,
                ));
            }
        }
    }

    // Standing-query traffic: each on-stride version moves every
    // producer-piece × subscriber-piece overlap twice — once as the push
    // fragment (charged to the producer app, exactly as `push_to_subs`
    // accounts it at put time) and once as the subscriber's verify/resync
    // get (charged to the subscriber app, like any consumer retrieve).
    for sub in &scenario.subscriptions {
        let pdec = scenario.decomposition(sub.producer_app);
        let sdec = scenario.decomposition(sub.subscriber_app);
        let region = sub.region.unwrap_or(*pdec.domain());
        let on_stride = scenario.iterations.div_ceil(sub.every_k);
        for (pr, sr, cells) in pairwise_overlaps_region(pdec, sdec, &region) {
            let bytes = cells as u64 * scenario.elem_bytes;
            let src = mapped.node_of_task(sub.producer_app, pr);
            let dst = mapped.node_of_task(sub.subscriber_app, sr);
            let loc = if src == dst {
                Locality::SharedMemory
            } else {
                Locality::Network
            };
            ledger.record_repeated(
                sub.producer_app,
                TrafficClass::InterApp,
                loc,
                bytes,
                on_stride,
            );
            ledger.record_repeated(
                sub.subscriber_app,
                TrafficClass::InterApp,
                loc,
                bytes,
                on_stride,
            );
        }
    }

    // Intra-application stencil traffic.
    for app in &scenario.workflow.apps {
        let Some(dec) = &app.decomposition else {
            continue;
        };
        for ex in halo_exchanges(dec, scenario.halo) {
            let bytes = ex.cells as u64 * scenario.elem_bytes;
            let na = mapped.node_of_task(app.id, ex.rank_a);
            let nb = mapped.node_of_task(app.id, ex.rank_b);
            let loc = if na == nb {
                Locality::SharedMemory
            } else {
                Locality::Network
            };
            // Both directions of the exchange, once per iteration — two
            // transfers of `bytes` each, matching the threaded executor's
            // two mailbox sends per exchange pair.
            ledger.record_repeated(
                app.id,
                TrafficClass::IntraApp,
                loc,
                bytes,
                2 * scenario.iterations,
            );
        }
    }

    // Retrieve-time estimates. Consumers of the same coupling wave pull
    // simultaneously (SAP2 and SAP3 contend with each other), so all
    // retrieves share one contention domain.
    let mut retrieve_ms = BTreeMap::new();
    let mut retrieve_ms_mean = BTreeMap::new();
    let all: Vec<(u32, usize)> = retrieves
        .iter()
        .flat_map(|(&app, v)| (0..v.len()).map(move |i| (app, i)))
        .collect();
    let flat: Vec<ClientRetrieve> = retrieves.values().flat_map(|v| v.iter().cloned()).collect();
    let meta_flat: Vec<(u64, bool, u64)> = metas.values().flatten().copied().collect();
    if !flat.is_empty() {
        let with_slots =
            estimate_retrieves(&NetworkModel::jaguar(), &topo, &flat, &cfg.link_faults);
        let breakdowns: Vec<RetrieveBreakdown> = with_slots.iter().map(|(b, _)| *b).collect();
        if cfg.flight.is_enabled() {
            // Lay each version's events in its own time slot so the
            // chrome trace reads as consecutive iterations.
            let slot = breakdowns
                .iter()
                .map(|b| (b.total_ms * 1000.0).round() as u64)
                .max()
                .unwrap_or(0)
                + 1;
            for version in 0..scenario.iterations {
                for (i, ((b, slots), r)) in with_slots.iter().zip(&flat).enumerate() {
                    let (vid, concurrent, rank) = meta_flat[i];
                    let client = mapped.core_of_task(all[i].0, rank);
                    emit_retrieve_events(
                        &cfg.flight,
                        &mapped.machine,
                        b,
                        slots,
                        r,
                        all[i].0,
                        vid,
                        concurrent,
                        client,
                        version,
                        version * slot,
                    );
                }
            }
        }
        let times: Vec<f64> = breakdowns.iter().map(|b| b.total_ms).collect();
        let mut sums: BTreeMap<u32, (f64, u64)> = BTreeMap::new();
        for ((app, _), t) in all.into_iter().zip(times) {
            let e = retrieve_ms.entry(app).or_insert(0.0f64);
            if t > *e {
                *e = t;
            }
            let s = sums.entry(app).or_insert((0.0, 0));
            s.0 += t;
            s.1 += 1;
        }
        for (app, (sum, n)) in sums {
            retrieve_ms_mean.insert(app, sum / n as f64);
        }
    }

    ModeledOutcome {
        strategy,
        ledger: ledger.snapshot(),
        retrieve_ms,
        retrieve_ms_mean,
        mapped,
    }
}

/// Mirror one modeled retrieve into synthetic flight events for `version`,
/// laid out so the critical-path profiler's interval sweep reproduces the
/// model's `query + max(shm, net)` decomposition exactly: the schedule
/// child spans the DHT query (cold iteration only — later versions replay
/// the cached schedule, as the threaded executor does), and each pull
/// takes its window and `wait_us` from the model's [`TransferSlot`]
/// timeline — overlapped issue at the branch start, busy copy beginning
/// after the slot's wait.
#[allow(clippy::too_many_arguments)] // event tags mirror the cods_* operator signatures
fn emit_retrieve_events(
    flight: &FlightRecorder,
    machine: &MachineSpec,
    b: &RetrieveBreakdown,
    slots: &[TransferSlot],
    r: &ClientRetrieve,
    app: u32,
    vid: u64,
    concurrent: bool,
    client: u32,
    version: u64,
    offset: u64,
) {
    let query_us = if version == 0 {
        (b.query_ms * 1000.0).round() as u64
    } else {
        0
    };
    let gseq = flight.next_seq();
    flight.record(
        Event::new(flight.next_seq(), EventKind::Schedule { hit: version > 0 })
            .parent(gseq)
            .app(app)
            .var(vid)
            .version(version)
            .dst(client)
            .window(offset, query_us),
    );
    if version == 0 && r.dht_queries > 0 {
        flight.record(
            Event::new(
                flight.next_seq(),
                EventKind::DhtLookup {
                    cores: r.dht_queries,
                },
            )
            .parent(gseq)
            .app(app)
            .var(vid)
            .version(version)
            .dst(client)
            .window(offset, 0),
        );
    }
    let shm_us = (b.shm_ms * 1000.0).round() as u64;
    let net_us = (b.net_ms * 1000.0).round() as u64;
    let tstart = offset + query_us;
    // The slot whose end defines each branch absorbs µs rounding, so the
    // event union hits the branch envelope exactly.
    let last_of = |shm: bool| {
        slots
            .iter()
            .enumerate()
            .filter(|&(i, s)| s.shm == shm && r.transfers[i].bytes > 0)
            .max_by(|a, b| a.1.end_us().total_cmp(&b.1.end_us()))
            .map(|(i, _)| i)
    };
    let (shm_last, net_last) = (last_of(true), last_of(false));
    // Every pull is issued at the branch start; its event spans issue to
    // completion, with the slot's idle prefix carried in `wait_us` so the
    // profiler charges only the busy tail to the link.
    for (i, (t, s)) in r.transfers.iter().zip(slots).enumerate() {
        if t.bytes == 0 {
            continue;
        }
        let branch = if s.shm { shm_us } else { net_us };
        let last = if s.shm { shm_last } else { net_last };
        let end = if last == Some(i) {
            branch
        } else {
            (s.end_us().round() as u64).min(branch)
        };
        let wait = (s.wait_us.round() as u64).min(end);
        flight.record(
            Event::new(flight.next_seq(), EventKind::Pull { wait_us: wait })
                .parent(gseq)
                .app(app)
                .var(vid)
                .version(version)
                .src(machine.core(t.src_node, 0))
                .dst(client)
                .link(if s.shm {
                    LinkClass::Shm
                } else {
                    LinkClass::Rdma
                })
                .bytes(t.bytes)
                .window(tstart, end),
        );
    }
    let total_us = query_us + shm_us.max(net_us);
    flight.record(
        Event::new(gseq, EventKind::Get { cont: concurrent })
            .app(app)
            .var(vid)
            .version(version)
            .dst(client)
            .bytes(r.transfers.iter().map(|t| t.bytes).sum())
            .window(offset, total_us),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{concurrent_scenario, pattern_pairs, sequential_scenario, PatternPair};

    fn small(pair: PatternPair) -> Scenario {
        let mut s = concurrent_scenario(16, 8, 8, pair);
        s.cores_per_node = 4;
        s
    }

    #[test]
    fn coupling_bytes_conserved_across_strategies() {
        // Total (shm + net) inter-app bytes equal the full coupled volume
        // regardless of mapping.
        let s = small(pattern_pairs(&[4, 4, 4])[0]);
        let volume = s.decomposition(1).domain().num_cells() as u64 * 8;
        for strat in [MappingStrategy::RoundRobin, MappingStrategy::DataCentric] {
            let o = run_modeled(&s, strat);
            assert_eq!(
                o.ledger.total_bytes(TrafficClass::InterApp),
                volume,
                "{strat:?}"
            );
        }
    }

    #[test]
    fn data_centric_cuts_network_coupling_matched_patterns() {
        let s = small(pattern_pairs(&[4, 4, 4])[0]); // blocked/blocked
        let rr = run_modeled(&s, MappingStrategy::RoundRobin);
        let dc = run_modeled(&s, MappingStrategy::DataCentric);
        let rr_net = rr.ledger.network_bytes(TrafficClass::InterApp);
        let dc_net = dc.ledger.network_bytes(TrafficClass::InterApp);
        assert!(
            (dc_net as f64) < 0.5 * rr_net as f64,
            "dc {dc_net} not well below rr {rr_net}"
        );
    }

    #[test]
    fn mismatched_patterns_defeat_data_centric() {
        // blocked/cyclic: fan-out makes co-location impossible; the gain
        // must be much smaller than in the matched case.
        let matched = small(pattern_pairs(&[4, 4, 4])[0]);
        let mismatched = small(pattern_pairs(&[4, 4, 4])[4]);
        let gain = |s: &Scenario| {
            let rr = run_modeled(s, MappingStrategy::RoundRobin)
                .ledger
                .network_bytes(TrafficClass::InterApp) as f64;
            let dc = run_modeled(s, MappingStrategy::DataCentric)
                .ledger
                .network_bytes(TrafficClass::InterApp) as f64;
            1.0 - dc / rr
        };
        assert!(gain(&matched) > gain(&mismatched) + 0.2);
    }

    #[test]
    fn sequential_scenario_retrieve_times_present() {
        let mut s = sequential_scenario(16, 8, 8, 8, pattern_pairs(&[4, 4, 4])[0]);
        s.cores_per_node = 4;
        let o = run_modeled(&s, MappingStrategy::DataCentric);
        assert!(o.retrieve_ms.contains_key(&2));
        assert!(o.retrieve_ms.contains_key(&3));
        assert!(o.retrieve_ms.values().all(|&t| t > 0.0));
    }

    #[test]
    fn data_centric_speeds_up_retrieves() {
        let s = small(pattern_pairs(&[4, 4, 4])[0]);
        let rr = run_modeled(&s, MappingStrategy::RoundRobin);
        let dc = run_modeled(&s, MappingStrategy::DataCentric);
        assert!(
            dc.retrieve_ms[&2] < rr.retrieve_ms[&2],
            "dc {} vs rr {}",
            dc.retrieve_ms[&2],
            rr.retrieve_ms[&2]
        );
    }

    #[test]
    fn stencil_bytes_recorded_per_app() {
        let s = small(pattern_pairs(&[4, 4, 4])[0]);
        let o = run_modeled(&s, MappingStrategy::RoundRobin);
        for app in [1u32, 2] {
            let total = o
                .ledger
                .app_bytes(app, TrafficClass::IntraApp, Locality::SharedMemory)
                + o.ledger
                    .app_bytes(app, TrafficClass::IntraApp, Locality::Network);
            assert!(total > 0, "app {app} has no stencil traffic");
        }
    }

    #[test]
    fn smaller_app_stencil_grows_under_data_centric() {
        // The Fig. 12 effect: the small consumer app's tasks scatter to
        // follow data, so its own halo exchanges cross more node
        // boundaries than under the packed baseline.
        let s = small(pattern_pairs(&[4, 4, 4])[0]);
        let rr = run_modeled(&s, MappingStrategy::RoundRobin);
        let dc = run_modeled(&s, MappingStrategy::DataCentric);
        let rr_net = rr
            .ledger
            .app_bytes(2, TrafficClass::IntraApp, Locality::Network);
        let dc_net = dc
            .ledger
            .app_bytes(2, TrafficClass::IntraApp, Locality::Network);
        assert!(dc_net >= rr_net, "dc {dc_net} < rr {rr_net}");
    }

    #[test]
    fn telemetry_mirrors_ledger_and_flight_carries_the_retrieves() {
        let mut s = sequential_scenario(16, 8, 8, 8, pattern_pairs(&[4, 4, 4])[0]);
        s.cores_per_node = 4;
        let rec = Recorder::enabled();
        let cfg = ModeledConfig {
            flight: FlightRecorder::enabled(),
            ..Default::default()
        };
        let o = run_modeled_configured(&s, MappingStrategy::DataCentric, &rec, &cfg);
        let snap = rec.metrics_snapshot();
        for class in [TrafficClass::InterApp, TrafficClass::IntraApp] {
            let mirrored: u64 = Locality::ALL
                .iter()
                .map(|l| snap.counter(&format!("fabric.bytes.{}.{}", class.slug(), l.slug())))
                .sum();
            assert_eq!(mirrored, o.ledger.total_bytes(class), "{class:?}");
        }
        assert_eq!(snap.histograms["workflow.map_us"].count, 1);
        // The synthetic timeline is the flight recording: one modeled
        // get per consumer rank of each consuming app.
        let events = cfg.flight.snapshot();
        for app in [2, 3] {
            let gets = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Get { .. }) && e.app == app);
            assert_eq!(gets.count(), 8, "app {app}");
        }
    }

    #[test]
    fn dht_query_estimate_monotone_and_clamped() {
        assert_eq!(dht_queries_estimate(0, 1000, 10), 1);
        assert!(dht_queries_estimate(500, 1000, 10) <= 10);
        assert!(dht_queries_estimate(100, 1000, 10) <= dht_queries_estimate(900, 1000, 10));
        assert_eq!(dht_queries_estimate(1000, 1000, 4), 4);
    }
}
