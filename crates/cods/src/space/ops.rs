//! `put` and `get`: the operators of the paper's Table I and the
//! receiver-driven schedule execution behind every `get`.

use super::{buf_key, CodsError, CodsSpace, GetReport};
use crate::codec::{f64s_of_bytes, FieldData, ELEM_BYTES};
use crate::dht::{var_id, LocationEntry, DHT_RECORD_BYTES};
use crate::schedule::{schedule_from_decomposition, schedule_from_entries, CommSchedule};
use insitu_dart::{BufKey, BufferHandle};
use insitu_domain::layout::copy_region;
use insitu_domain::{BoundingBox, Decomposition};
use insitu_fabric::{ClientId, FaultKind, Locality, TrafficClass};
use insitu_obs::{Event, EventKind, LinkClass};
use insitu_util::Recycled;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

impl CodsSpace {
    #[allow(clippy::too_many_arguments)] // mirrors the paper's cods_* operator signatures
    fn put_impl(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        version: u64,
        piece: u64,
        bbox: &BoundingBox,
        data: FieldData,
        index_in_dht: bool,
    ) -> Result<(), CodsError> {
        if data.len() as u128 != bbox.num_cells() {
            return Err(CodsError::SizeMismatch {
                expected: bbox.num_cells(),
                got: data.len(),
            });
        }
        let vid = var_id(var);
        let bytes = data.len() as u64 * ELEM_BYTES as u64;
        let node = self.dart.placement().node_of(client);
        let flight = self.dart.flight();
        let put_start = flight.now_us();
        let injector = self.dart.injector();
        if injector.staging_exhausted(node) {
            let used = self.staging_bytes(node);
            self.record_fault(FaultKind::StageFull, app, vid, version, client, piece);
            return Err(CodsError::StagingFull {
                node,
                used,
                limit: used,
            });
        }
        // An injected dead producer crashes between its DHT insert and its
        // buffer registration: the location is advertised below, but no
        // payload ever lands in staging.
        let dead = injector.dead_producer(vid, version, client, piece);
        if dead {
            self.record_fault(FaultKind::DeadProducer, app, vid, version, client, piece);
        }
        if !dead {
            let mut staging = self.staging.lock().unwrap();
            let used = staging.entry(node).or_insert(0);
            if let Some(limit) = self.cfg.staging_limit_per_node {
                if *used + bytes > limit {
                    self.record_fault(FaultKind::StageFull, app, vid, version, client, piece);
                    return Err(CodsError::StagingFull {
                        node,
                        used: *used,
                        limit,
                    });
                }
            }
            *used += bytes;
            let peak = staging.values().copied().max().unwrap_or(0);
            self.staging_peak.fetch_max(peak, Ordering::Relaxed);
            self.staging_gauge.set(peak);
        }
        self.put_count.inc();
        // The staged bytes are the producer's own array, adopted; a push
        // to another process sends them.
        let staged = (!dead).then(|| data.into_bytes());
        if let Some(staged) = &staged {
            let key = buf_key(vid, version, client, piece);
            self.dart.register_buffer(key, client, staged.clone());
        }
        if index_in_dht {
            let entry = LocationEntry {
                bbox: *bbox,
                owner: client,
                piece,
            };
            let cores = self.dht.insert(vid, version, entry);
            let nd = bbox.ndim();
            let (lbs, ubs) = (&bbox.lower()[..nd], &bbox.upper()[..nd]);
            self.dart
                .wire()
                .dht_insert(vid, version, client, piece, lbs, ubs);
            for c in cores {
                self.dart.account(
                    app,
                    TrafficClass::Dht,
                    client,
                    self.dht.core_client(c),
                    DHT_RECORD_BYTES,
                );
            }
        }
        // The Put's sequence number is allocated before the push fan-out
        // so every SubPush it spawns can name it as parent.
        let put_seq = flight.next_seq();
        if let Some(staged) = staged {
            self.push_to_subs(client, app, vid, version, piece, bbox, staged, put_seq);
        }
        if flight.is_enabled() {
            let now = flight.now_us();
            flight.record(
                Event::new(
                    put_seq,
                    EventKind::Put {
                        indexed: index_in_dht,
                    },
                )
                .app(app)
                .var(vid)
                .version(version)
                .bbox(*bbox)
                .src(client)
                .piece(piece)
                .bytes(bytes)
                .window(put_start, now.saturating_sub(put_start)),
            );
        }
        Ok(())
    }

    /// `cods_put_seq`: store a piece into the space and index it in the
    /// DHT for later (sequentially coupled) consumers. A `Vec<f64>` is
    /// staged as is; a borrowed array is copied once.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's cods_* operator signatures
    pub fn put_seq(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        version: u64,
        piece: u64,
        bbox: &BoundingBox,
        data: impl Into<FieldData>,
    ) -> Result<(), CodsError> {
        self.put_impl(client, app, var, version, piece, bbox, data.into(), true)
    }

    /// `cods_put_cont`: expose a piece for direct pull by a concurrently
    /// running consumer (no DHT indexing — the consumer derives locations
    /// from the producer's declared decomposition).
    #[allow(clippy::too_many_arguments)] // mirrors the paper's cods_* operator signatures
    pub fn put_cont(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        version: u64,
        piece: u64,
        bbox: &BoundingBox,
        data: impl Into<FieldData>,
    ) -> Result<(), CodsError> {
        self.put_impl(client, app, var, version, piece, bbox, data.into(), false)
    }

    /// `cods_get_seq`: retrieve `query` of `(var, version)` using the DHT
    /// location service (or a cached schedule).
    pub fn get_seq(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        version: u64,
        query: &BoundingBox,
    ) -> Result<(FieldData, GetReport), CodsError> {
        let vid = var_id(var);
        self.get_with(client, app, vid, version, query, false, |report, gseq| {
            let flight = self.dart.flight();
            let dht_start = flight.now_us();
            let injector = self.dart.injector();
            let (entries, cores) = self
                .dht
                .query_filtered(vid, version, query, &|c| !injector.dht_core_down(c));
            report.dht_cores_queried = cores.len() as u32;
            // One query record out to each consulted core; the reply
            // carries the matching location records (at least one
            // record's worth of header per core).
            let reply_records = 1 + entries.len().div_ceil(cores.len().max(1)) as u64;
            for c in &cores {
                let peer = self.dht.core_client(*c);
                self.dart
                    .account(app, TrafficClass::Dht, client, peer, DHT_RECORD_BYTES);
                self.dart.account(
                    app,
                    TrafficClass::Dht,
                    peer,
                    client,
                    DHT_RECORD_BYTES * reply_records,
                );
            }
            if flight.is_enabled() {
                flight.record(
                    Event::new(
                        flight.next_seq(),
                        EventKind::DhtLookup {
                            cores: report.dht_cores_queried,
                        },
                    )
                    .parent(gseq)
                    .app(app)
                    .var(vid)
                    .version(version)
                    .dst(client)
                    .window(dht_start, flight.now_us().saturating_sub(dht_start)),
                );
            }
            let sched_start = flight.now_us();
            (sched_start, schedule_from_entries(&entries, query))
        })
    }

    /// `cods_get_cont`: retrieve `query` directly from a concurrently
    /// running producer, whose data decomposition is declared up front.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's cods_* operator signatures
    pub fn get_cont(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        version: u64,
        query: &BoundingBox,
        producer: &Decomposition,
        producer_clients: &[ClientId],
    ) -> Result<(FieldData, GetReport), CodsError> {
        let vid = var_id(var);
        self.get_with(client, app, vid, version, query, true, |_, _| {
            let sched_start = self.dart.flight().now_us();
            (
                sched_start,
                schedule_from_decomposition(producer, producer_clients, query),
            )
        })
    }

    /// The one `get` body behind both operators: replay the cached
    /// schedule or `build` one (handed the report and the get's event
    /// sequence number; returns when schedule computation proper began,
    /// so a location lookup before it stays outside the `Schedule`
    /// window), execute it, and close with the `Get` flight event.
    #[allow(clippy::too_many_arguments)] // event tags mirror the cods_* operator signatures
    fn get_with(
        &self,
        client: ClientId,
        app: u32,
        vid: u64,
        version: u64,
        query: &BoundingBox,
        cont: bool,
        build: impl FnOnce(&mut GetReport, u64) -> (u64, CommSchedule),
    ) -> Result<(FieldData, GetReport), CodsError> {
        self.get_count.inc();
        let flight = self.dart.flight();
        let gstart = flight.now_us();
        let gseq = flight.next_seq();
        let mut report = GetReport::default();
        let schedule = match self.cache.lookup(vid, query) {
            Some(s) => {
                report.cache_hit = true;
                self.record_schedule(gseq, gstart, true, app, vid, version, client);
                s
            }
            None => {
                let (sched_start, s) = build(&mut report, gseq);
                self.record_schedule(gseq, sched_start, false, app, vid, version, client);
                // Never cache a schedule that does not cover the query
                // (e.g. a DHT snapshot taken before every producer had
                // indexed its piece, or pieces that overlap): replays
                // would keep failing even once the data exists.
                s.check_cover(query)?;
                let s = Arc::new(s);
                self.cache.insert(vid, query, Arc::clone(&s));
                s
            }
        };
        let data = self.execute(
            &schedule,
            client,
            app,
            vid,
            version,
            query,
            gseq,
            &mut report,
        )?;
        if flight.is_enabled() {
            flight.record(
                Event::new(gseq, EventKind::Get { cont })
                    .app(app)
                    .var(vid)
                    .version(version)
                    .bbox(*query)
                    .dst(client)
                    .bytes(data.len() as u64 * ELEM_BYTES as u64)
                    .window(gstart, flight.now_us().saturating_sub(gstart)),
            );
        }
        Ok((data, report))
    }

    /// Log a schedule-computation child event under `parent` (a get's
    /// pre-allocated sequence number).
    #[allow(clippy::too_many_arguments)] // event tags mirror the cods_* operator signatures
    fn record_schedule(
        &self,
        parent: u64,
        start_us: u64,
        hit: bool,
        app: u32,
        vid: u64,
        version: u64,
        client: ClientId,
    ) {
        let flight = self.dart.flight();
        if !flight.is_enabled() {
            return;
        }
        flight.record(
            Event::new(flight.next_seq(), EventKind::Schedule { hit })
                .parent(parent)
                .app(app)
                .var(vid)
                .version(version)
                .dst(client)
                .window(start_us, flight.now_us().saturating_sub(start_us)),
        );
    }

    /// Receiver-driven pull: issue every scheduled piece at once and
    /// assemble the dense row-major array of `query` out of order as
    /// pieces arrive, so the get blocks for the slowest producer instead
    /// of the sum of all producer waits. Each piece is copied exactly
    /// once, straight from the staged buffer into the result; when a
    /// single piece exactly covers the query the result is a zero-copy
    /// view of the staged buffer itself. `schedule` covers `query` (it
    /// passed [`CommSchedule::check_cover`] before it was cached). A
    /// landed buffer that is not the aligned cells of its piece's box
    /// fails the get with [`CodsError::MalformedPiece`].
    #[allow(clippy::too_many_arguments)] // mirrors the paper's cods_* operator signatures
    fn execute(
        &self,
        schedule: &CommSchedule,
        client: ClientId,
        app: u32,
        vid: u64,
        version: u64,
        query: &BoundingBox,
        parent: u64,
        report: &mut GetReport,
    ) -> Result<FieldData, CodsError> {
        let flight = self.dart.flight();
        let cells = query.num_cells() as usize;
        let keys: Vec<BufKey> = schedule
            .ops
            .iter()
            .map(|op| buf_key(vid, version, op.src_client, op.piece))
            .collect();
        let zero_copy = schedule.ops.len() == 1 && schedule.ops[0].piece_box == *query;
        // The schedule covers the query, so the copies write every cell:
        // a recycled buffer is not zeroed first.
        let mut out = if zero_copy {
            Recycled::default()
        } else {
            Recycled::for_overwrite(cells)
        };
        let mut view: Option<insitu_util::Bytes> = None;
        let mut malformed: Option<CodsError> = None;
        let issue_us = flight.now_us();
        let mut complete = |i: usize, handle: BufferHandle, wait: Duration| {
            let op = &schedule.ops[i];
            // A piece is the cells of its box, aligned: anything else —
            // a peer's wrong-length `PullData` included — ends the get by
            // name, never in `copy_region`'s length assert.
            let piece_cells = usize::try_from(op.piece_box.num_cells()).unwrap_or(usize::MAX);
            let expected = piece_cells.saturating_mul(ELEM_BYTES);
            let src = match f64s_of_bytes(&handle.data) {
                Some(src) if handle.data.len() == expected => src,
                _ => {
                    malformed.get_or_insert(CodsError::MalformedPiece {
                        var: vid,
                        version,
                        region: op.region,
                        owner: op.src_client,
                        got: handle.data.len(),
                        expected,
                    });
                    return;
                }
            };
            if zero_copy {
                view = Some(handle.data.clone());
            } else {
                copy_region(src, &op.piece_box, &mut out, query, &op.region);
            }
            let bytes = op.region.num_cells() as u64 * ELEM_BYTES as u64;
            let loc = self
                .dart
                .account(app, TrafficClass::InterApp, handle.owner, client, bytes);
            match loc {
                Locality::SharedMemory => report.shm_bytes += bytes,
                Locality::Network => report.net_bytes += bytes,
            }
            report.ops += 1;
            if flight.is_enabled() {
                flight.record(
                    Event::new(
                        flight.next_seq(),
                        EventKind::Pull {
                            wait_us: wait.as_micros() as u64,
                        },
                    )
                    .parent(parent)
                    .app(app)
                    .var(vid)
                    .version(version)
                    .bbox(op.region)
                    .src(handle.owner)
                    .dst(client)
                    .link(LinkClass::from_locality(loc))
                    .piece(op.piece)
                    .bytes(bytes)
                    .window(issue_us, flight.now_us().saturating_sub(issue_us)),
                );
            }
        };
        let result = self
            .dart
            .pull_many(&keys, self.cfg.get_timeout, &mut complete);
        if let Some(err) = malformed {
            return Err(err);
        }
        if let Err(i) = result {
            let op = &schedule.ops[i];
            return Err(CodsError::Timeout {
                var: vid,
                version,
                region: op.region,
                owner: op.src_client,
            });
        }
        self.note_get_complete(vid, version);
        Ok(match view {
            Some(bytes) => {
                self.view_count.inc();
                FieldData::View(bytes)
            }
            None => FieldData::Owned(out),
        })
    }
}
