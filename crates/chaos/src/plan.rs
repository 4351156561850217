//! Fault specifications and the deterministic fault plan.
//!
//! A [`FaultSpec`] names per-kind injection rates; a [`FaultPlan`] turns a
//! spec plus a seed into a [`FaultHooks`] implementation whose every
//! decision is a *pure function of the fault site's identity* (variable,
//! version, piece, node, core, link — never wall-clock time or call
//! order). Two runs with the same seed therefore inject exactly the same
//! faults, even though the threaded executor's threads interleave
//! differently, and the set of *triggered sites* per kind is itself a
//! deterministic quantity the harness can assert on.

use insitu_fabric::{
    ClientId, FaultAction, FaultHooks, FaultKind, LinkFaults, Locality, NetOp, NodeId, TrafficClass,
};
use insitu_util::rng::SplitMix64;
use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use std::time::Duration;

/// Per-kind injection rates in `[0, 1]`, parsed from a `--faults` spec.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    rates: [f64; FaultKind::ALL.len()],
}

impl FaultSpec {
    /// No faults at all — every hook proceeds.
    pub fn none() -> Self {
        FaultSpec {
            rates: [0.0; FaultKind::ALL.len()],
        }
    }

    /// The default chaos mix: a little of everything.
    pub fn standard() -> Self {
        FaultSpec::none()
            .with_rate(FaultKind::DeadProducer, 0.05)
            .with_rate(FaultKind::DropPull, 0.05)
            .with_rate(FaultKind::DelayPull, 0.10)
            .with_rate(FaultKind::DhtBlackout, 0.06)
            .with_rate(FaultKind::StageFull, 0.04)
            .with_rate(FaultKind::LinkSlow, 0.30)
            .with_rate(FaultKind::SubPush, 0.08)
    }

    /// The rate of one kind.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind.idx()]
    }

    /// Builder-style rate override.
    ///
    /// # Panics
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        self.rates[kind.idx()] = rate;
        self
    }

    /// `true` when every rate is zero.
    pub(crate) fn is_inert(&self) -> bool {
        self.rates.iter().all(|&r| r == 0.0)
    }

    /// Parse a `--faults` spec: `none`, `standard`, or a comma-separated
    /// list of `kind:rate` entries (unlisted kinds get rate 0), e.g.
    /// `dead-producer:1,drop-pull:0.1`.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let s = s.trim();
        match s {
            "none" => return Ok(FaultSpec::none()),
            "standard" => return Ok(FaultSpec::standard()),
            _ => {}
        }
        let mut spec = FaultSpec::none();
        for entry in s.split(',') {
            let entry = entry.trim();
            let (name, rate) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault entry '{entry}' is not 'kind:rate'"))?;
            let kind = FaultKind::from_slug(name.trim()).ok_or_else(|| {
                format!(
                    "unknown fault kind '{}' (expected one of {})",
                    name.trim(),
                    FaultKind::ALL.map(FaultKind::slug).join(", ")
                )
            })?;
            let rate: f64 = rate
                .trim()
                .parse()
                .map_err(|_| format!("bad rate in '{entry}'"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate {rate} outside [0, 1] in '{entry}'"));
            }
            spec.rates[kind.idx()] = rate;
        }
        Ok(spec)
    }

    /// Render the spec back into its canonical `--faults` string, such
    /// that `parse(canonical()) == self`.
    pub(crate) fn canonical(&self) -> String {
        if self.is_inert() {
            return "none".into();
        }
        FaultKind::ALL
            .iter()
            .filter(|&&k| self.rate(k) > 0.0)
            .map(|&k| format!("{}:{}", k.slug(), self.rate(k)))
            .collect::<Vec<_>>()
            .join(",")
    }
}

// Per-hook salts so the same ids under different hooks roll differently.
const SALT_DEAD: u64 = 0x1dea_dbee_f000_0001;
const SALT_PULL: u64 = 0x1dea_dbee_f000_0002;
const SALT_DHT: u64 = 0x1dea_dbee_f000_0003;
const SALT_STAGE: u64 = 0x1dea_dbee_f000_0004;
const SALT_LINK: u64 = 0x1dea_dbee_f000_0005;
const SALT_NET_CONNECT: u64 = 0x1dea_dbee_f000_0006;
const SALT_NET_SEND: u64 = 0x1dea_dbee_f000_0007;
const SALT_NET_RECV: u64 = 0x1dea_dbee_f000_0008;
const SALT_NET_TELEMETRY: u64 = 0x1dea_dbee_f000_0009;
const SALT_SHM_ATTACH: u64 = 0x1dea_dbee_f000_000a;
const SALT_SUB_PUSH: u64 = 0x1dea_dbee_f000_000b;

/// A seeded, replayable [`FaultHooks`] implementation.
///
/// Also doubles as the harness's observer: it tallies the distinct fault
/// sites it triggered (deterministic under thread interleaving, because a
/// site either always or never triggers for a given seed) and the bytes
/// the [`insitu_fabric::TransferLedger`] reported through
/// [`FaultHooks::on_transfer`].
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    sites: Mutex<[HashSet<u64>; FaultKind::ALL.len()]>,
    transfers: Mutex<BTreeMap<(TrafficClass, Locality), u64>>,
}

impl FaultPlan {
    /// A plan rolling `spec`'s rates from `seed`.
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan {
            seed,
            spec,
            sites: Mutex::new(std::array::from_fn(|_| HashSet::new())),
            transfers: Mutex::new(BTreeMap::new()),
        }
    }

    /// Hash a fault site's identity into a 64-bit label.
    fn site(&self, salt: u64, ids: &[u64]) -> u64 {
        let mut h = self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &id in ids {
            h = (h ^ id.wrapping_add(0x5851_f42d_4c95_7f2d)).wrapping_mul(0x0000_0100_0000_01b3);
            h ^= h >> 29;
        }
        h
    }

    /// The uniform roll of a site (same site, same value — always).
    fn value_of(site: u64) -> f64 {
        SplitMix64::new(site).f64()
    }

    /// Roll a site against `kind`'s rate; record it when it triggers.
    fn hit(&self, kind: FaultKind, salt: u64, ids: &[u64]) -> bool {
        let rate = self.spec.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        let site = self.site(salt, ids);
        if Self::value_of(site) < rate {
            self.sites.lock().unwrap()[kind.idx()].insert(site);
            true
        } else {
            false
        }
    }

    /// Number of *distinct sites* each kind triggered at, in
    /// [`FaultKind::ALL`] order. Calling the same site twice counts once,
    /// which is what makes the counts replay-stable.
    pub(crate) fn injected(&self) -> [u64; FaultKind::ALL.len()] {
        let sites = self.sites.lock().unwrap();
        std::array::from_fn(|i| sites[i].len() as u64)
    }

    /// Bytes observed through [`FaultHooks::on_transfer`] for one
    /// class/locality cell.
    pub(crate) fn observed_bytes(&self, class: TrafficClass, locality: Locality) -> u64 {
        *self
            .transfers
            .lock()
            .unwrap()
            .get(&(class, locality))
            .unwrap_or(&0)
    }

    /// Build the torus-link degradations this plan assigns to an
    /// `nodes`-node machine (factor 2–8 on each slowed link). Sites are
    /// recorded under [`FaultKind::LinkSlow`] as a side effect.
    pub fn link_faults(&self, nodes: u32) -> LinkFaults {
        let mut faults = LinkFaults::default();
        for node in 0..nodes {
            for dim in 0..3u8 {
                for plus in [false, true] {
                    let ids = [node as u64, dim as u64, plus as u64];
                    if self.hit(FaultKind::LinkSlow, SALT_LINK, &ids) {
                        let site = self.site(SALT_LINK, &ids);
                        let factor = 2.0 + 6.0 * Self::value_of(site ^ 0xf00d);
                        faults.slow_link(node, dim, plus, factor);
                    }
                }
            }
        }
        faults
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("spec", &self.spec)
            .finish()
    }
}

impl FaultHooks for FaultPlan {
    fn dead_producer(&self, var: u64, version: u64, owner: ClientId, piece: u64) -> bool {
        self.hit(
            FaultKind::DeadProducer,
            SALT_DEAD,
            &[var, version, owner as u64, piece],
        )
    }

    fn on_pull(&self, name: u64, version: u64, piece: u64) -> FaultAction {
        let drop_rate = self.spec.rate(FaultKind::DropPull);
        let delay_rate = self.spec.rate(FaultKind::DelayPull);
        if drop_rate <= 0.0 && delay_rate <= 0.0 {
            return FaultAction::Proceed;
        }
        // One roll decides both outcomes so a site's fate is stable no
        // matter how many times (or from how many threads) it is pulled.
        let site = self.site(SALT_PULL, &[name, version, piece]);
        let v = Self::value_of(site);
        if v < drop_rate {
            self.sites.lock().unwrap()[FaultKind::DropPull.idx()].insert(site);
            FaultAction::Drop
        } else if v < drop_rate + delay_rate {
            self.sites.lock().unwrap()[FaultKind::DelayPull.idx()].insert(site);
            FaultAction::Delay(Duration::from_millis(1 + site % 4))
        } else {
            FaultAction::Proceed
        }
    }

    fn dht_core_down(&self, core: usize) -> bool {
        self.hit(FaultKind::DhtBlackout, SALT_DHT, &[core as u64])
    }

    fn staging_exhausted(&self, node: NodeId) -> bool {
        self.hit(FaultKind::StageFull, SALT_STAGE, &[node as u64])
    }

    fn on_transfer(&self, class: TrafficClass, locality: Locality, bytes: u64) {
        *self
            .transfers
            .lock()
            .unwrap()
            .entry((class, locality))
            .or_insert(0) += bytes;
    }

    fn on_net(&self, op: NetOp, kind: u8, a: u64, b: u64) -> FaultAction {
        // The wire transport offers data-plane frames (pull-data) to the
        // send/recv sites; the frame kind participates in the site hash
        // so distinct protocol revisions reroll.
        let (fault, salt) = match op {
            NetOp::Connect => (FaultKind::NetConnect, SALT_NET_CONNECT),
            NetOp::Send => (FaultKind::NetSend, SALT_NET_SEND),
            NetOp::Recv => (FaultKind::NetRecv, SALT_NET_RECV),
        };
        if self.hit(fault, salt, &[kind as u64, a, b]) {
            return FaultAction::Drop;
        }
        // A slow torus link, felt on the real wire: the pull-data send
        // is held 15-50 ms before it is written. Same kind (and salt)
        // as the time model's link degradation, rolled per logical
        // frame so a degraded path stays degraded across retries —
        // this is the signal the service watchdog's stall detector
        // reacts to.
        if op == NetOp::Send {
            let site = self.site(SALT_LINK, &[kind as u64, a, b]);
            if self.hit(FaultKind::LinkSlow, SALT_LINK, &[kind as u64, a, b]) {
                return FaultAction::Delay(Duration::from_millis(15 + site % 36));
            }
        }
        FaultAction::Proceed
    }

    fn shm_attach_fails(&self, node: NodeId, segment: u64) -> bool {
        // Op-independent like telemetry batches: the producer consults
        // its plan at segment creation, the consumer at attach, and the
        // (node, segment) site hashes identically on both ends — a
        // doomed pair degrades to TCP consistently instead of leaving
        // one side waiting on a ring the other abandoned.
        self.hit(
            FaultKind::ShmAttach,
            SALT_SHM_ATTACH,
            &[node as u64, segment],
        )
    }

    fn telemetry_lost(&self, node: NodeId, batch: u32) -> bool {
        self.hit(
            FaultKind::NetTelemetry,
            SALT_NET_TELEMETRY,
            &[node as u64, batch as u64],
        )
    }

    fn on_sub_push(&self, var: u64, version: u64, subscriber: ClientId, piece: u64) -> FaultAction {
        if self.hit(
            FaultKind::SubPush,
            SALT_SUB_PUSH,
            &[var, version, subscriber as u64, piece],
        ) {
            FaultAction::Drop
        } else {
            FaultAction::Proceed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_presets_and_lists() {
        assert!(FaultSpec::parse("none").unwrap().is_inert());
        assert_eq!(FaultSpec::parse("standard").unwrap(), FaultSpec::standard());
        let s = FaultSpec::parse("dead-producer:1, drop-pull:0.25").unwrap();
        assert_eq!(s.rate(FaultKind::DeadProducer), 1.0);
        assert_eq!(s.rate(FaultKind::DropPull), 0.25);
        assert_eq!(s.rate(FaultKind::DhtBlackout), 0.0);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FaultSpec::parse("frogs:0.5")
            .unwrap_err()
            .contains("unknown"));
        assert!(FaultSpec::parse("dead-producer")
            .unwrap_err()
            .contains("kind:rate"));
        assert!(FaultSpec::parse("dead-producer:2")
            .unwrap_err()
            .contains("outside"));
        assert!(FaultSpec::parse("dead-producer:x")
            .unwrap_err()
            .contains("bad rate"));
    }

    #[test]
    fn canonical_round_trips() {
        for spec in [
            FaultSpec::none(),
            FaultSpec::standard(),
            FaultSpec::none().with_rate(FaultKind::LinkSlow, 0.125),
        ] {
            assert_eq!(FaultSpec::parse(&spec.canonical()).unwrap(), spec);
        }
    }

    #[test]
    fn same_site_same_fate() {
        let plan = FaultPlan::new(7, FaultSpec::standard());
        let first = plan.on_pull(3, 1, 9);
        for _ in 0..10 {
            assert_eq!(plan.on_pull(3, 1, 9), first);
        }
        // Re-rolling an already-triggered site never double counts.
        let c1 = plan.injected();
        plan.on_pull(3, 1, 9);
        assert_eq!(plan.injected(), c1);
    }

    #[test]
    fn plans_replay_identically() {
        let a = FaultPlan::new(42, FaultSpec::standard());
        let b = FaultPlan::new(42, FaultSpec::standard());
        for core in 0..64 {
            assert_eq!(a.dht_core_down(core), b.dht_core_down(core));
        }
        for piece in 0..64 {
            assert_eq!(
                a.dead_producer(1, 0, 2, piece),
                b.dead_producer(1, 0, 2, piece)
            );
        }
        for piece in 0..64 {
            assert_eq!(a.on_sub_push(1, 0, 2, piece), b.on_sub_push(1, 0, 2, piece));
        }
        assert_eq!(a.injected(), b.injected());
        assert_eq!(a.link_faults(27), b.link_faults(27));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1, FaultSpec::standard());
        let b = FaultPlan::new(2, FaultSpec::standard());
        let hits_a: Vec<bool> = (0..256).map(|c| a.dht_core_down(c)).collect();
        let hits_b: Vec<bool> = (0..256).map(|c| b.dht_core_down(c)).collect();
        assert_ne!(hits_a, hits_b);
    }

    #[test]
    fn inert_spec_never_fires() {
        let plan = FaultPlan::new(99, FaultSpec::none());
        for i in 0..32u32 {
            assert!(!plan.dead_producer(i as u64, 0, 0, 0));
            assert!(matches!(plan.on_pull(i as u64, 0, 0), FaultAction::Proceed));
            assert!(!plan.dht_core_down(i as usize));
            assert!(!plan.staging_exhausted(i));
        }
        assert!(plan.link_faults(64).is_empty());
        assert_eq!(plan.injected().iter().sum::<u64>(), 0);
    }

    #[test]
    fn net_sites_are_deterministic_and_per_op() {
        let spec = FaultSpec::none()
            .with_rate(FaultKind::NetRecv, 1.0)
            .with_rate(FaultKind::NetConnect, 0.5);
        let a = FaultPlan::new(11, spec);
        let b = FaultPlan::new(11, spec);
        // Full-rate recv drops every frame; sends were not requested.
        assert_eq!(a.on_net(NetOp::Recv, 7, 3, 9), FaultAction::Drop);
        assert_eq!(a.on_net(NetOp::Send, 7, 3, 9), FaultAction::Proceed);
        // Connect fate per peer replays across plans and retries.
        for node in 0..32u64 {
            let first = a.on_net(NetOp::Connect, 0, node, 0);
            assert_eq!(first, a.on_net(NetOp::Connect, 0, node, 0));
            assert_eq!(first, b.on_net(NetOp::Connect, 0, node, 0));
        }
        assert_eq!(
            a.injected()[FaultKind::NetConnect.idx()],
            b.injected()[FaultKind::NetConnect.idx()]
        );
        assert_eq!(a.injected()[FaultKind::NetRecv.idx()], 1);
        assert_eq!(a.injected()[FaultKind::NetSend.idx()], 0);
    }

    #[test]
    fn net_slugs_parse() {
        let s = FaultSpec::parse("net-connect:1,net-send:0.5,net-recv:0.25").unwrap();
        assert_eq!(s.rate(FaultKind::NetConnect), 1.0);
        assert_eq!(s.rate(FaultKind::NetSend), 0.5);
        assert_eq!(s.rate(FaultKind::NetRecv), 0.25);
        assert_eq!(FaultSpec::parse(&s.canonical()).unwrap(), s);
        let t = FaultSpec::parse("net-telemetry:0.5").unwrap();
        assert_eq!(t.rate(FaultKind::NetTelemetry), 0.5);
        assert_eq!(FaultSpec::parse(&t.canonical()).unwrap(), t);
        let u = FaultSpec::parse("shm-attach:0.75").unwrap();
        assert_eq!(u.rate(FaultKind::ShmAttach), 0.75);
        assert_eq!(FaultSpec::parse(&u.canonical()).unwrap(), u);
        let v = FaultSpec::parse("sub-push:0.3").unwrap();
        assert_eq!(v.rate(FaultKind::SubPush), 0.3);
        assert_eq!(FaultSpec::parse(&v.canonical()).unwrap(), v);
    }

    #[test]
    fn shm_attach_rolls_op_independently_on_both_ends() {
        let spec = FaultSpec::none().with_rate(FaultKind::ShmAttach, 0.5);
        let producer = FaultPlan::new(21, spec);
        let consumer = FaultPlan::new(21, spec);
        // Producer (at create) and consumer (at attach) consult separate
        // plan instances; a shared seed makes every pair's fate agree.
        for node in 0..4u32 {
            for segment in 0..16u64 {
                assert_eq!(
                    producer.shm_attach_fails(node, segment),
                    consumer.shm_attach_fails(node, segment),
                );
            }
        }
        assert_eq!(
            producer.injected()[FaultKind::ShmAttach.idx()],
            consumer.injected()[FaultKind::ShmAttach.idx()]
        );
        // The half-rate spec both hits and spares some of the 64 pairs.
        let hits = producer.injected()[FaultKind::ShmAttach.idx()];
        assert!(hits > 0 && hits < 64, "half-rate spec hit {hits} of 64");
        // An inert plan never fails an attach.
        assert!(!FaultPlan::new(21, FaultSpec::none()).shm_attach_fails(0, 1));
    }

    #[test]
    fn telemetry_batches_roll_their_own_kind_op_independently() {
        let spec = FaultSpec::none().with_rate(FaultKind::NetTelemetry, 1.0);
        let plan = FaultPlan::new(5, spec);
        // Every telemetry batch drops; data-plane frames are untouched
        // even at the same (a, b) identity, because only the telemetry
        // kind was rated.
        assert!(plan.telemetry_lost(0, 0));
        assert_eq!(plan.on_net(NetOp::Send, 6, 0, 0), FaultAction::Proceed);
        // The shipper's and the hub's plans (same seed) agree on a
        // batch's fate: one roll per (node, batch), not per op.
        let sender = FaultPlan::new(9, FaultSpec::none().with_rate(FaultKind::NetTelemetry, 0.5));
        let receiver = FaultPlan::new(9, FaultSpec::none().with_rate(FaultKind::NetTelemetry, 0.5));
        for node in 0..4u32 {
            for batch in 0..16u32 {
                assert_eq!(
                    sender.telemetry_lost(node, batch),
                    receiver.telemetry_lost(node, batch),
                );
            }
        }
        // And a rated mix actually drops something *and* spares something.
        let hits = sender.injected()[FaultKind::NetTelemetry.idx()];
        assert!(hits > 0 && hits < 64, "half-rate spec hit {hits} of 64");
    }

    #[test]
    fn sub_push_drops_replay_and_spare_some_sites() {
        let spec = FaultSpec::none().with_rate(FaultKind::SubPush, 0.5);
        let a = FaultPlan::new(42, spec);
        let b = FaultPlan::new(42, spec);
        for version in 0..8u64 {
            for piece in 0..8u64 {
                assert_eq!(
                    a.on_sub_push(7, version, 3, piece),
                    b.on_sub_push(7, version, 3, piece),
                );
            }
        }
        let hits = a.injected()[FaultKind::SubPush.idx()];
        assert!(hits > 0 && hits < 64, "half-rate spec hit {hits} of 64");
        assert_eq!(hits, b.injected()[FaultKind::SubPush.idx()]);
        // An inert plan never drops a push.
        assert_eq!(
            FaultPlan::new(42, FaultSpec::none()).on_sub_push(7, 0, 3, 0),
            FaultAction::Proceed
        );
    }

    #[test]
    fn transfers_accumulate_per_cell() {
        let plan = FaultPlan::new(0, FaultSpec::none());
        plan.on_transfer(TrafficClass::InterApp, Locality::Network, 100);
        plan.on_transfer(TrafficClass::InterApp, Locality::Network, 20);
        plan.on_transfer(TrafficClass::IntraApp, Locality::SharedMemory, 7);
        assert_eq!(
            plan.observed_bytes(TrafficClass::InterApp, Locality::Network),
            120
        );
        assert_eq!(
            plan.observed_bytes(TrafficClass::IntraApp, Locality::SharedMemory),
            7
        );
        assert_eq!(plan.observed_bytes(TrafficClass::Dht, Locality::Network), 0);
    }
}
