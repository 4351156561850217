//! The seven workloads: which template, which fixed parameters, how
//! the run is driven, and how the seed becomes template overrides.
//!
//! The program never sees the seed. It sees only the DAG and
//! configuration text `compile_workflow` produces from a template in
//! `benchmark/workflows/` and the overrides generated here.

use insitu::Scenario;
use insitu_util::rng::SplitMix64;

/// How a workload's runs are driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `insitu::run_threaded` in the benchmark process.
    Threaded,
    /// `insitu::serve` in the benchmark process plus one real
    /// `insitu join` child process per node.
    Distrib {
        /// `ServeOptions::p2p` (and nothing on the joiners).
        p2p: bool,
        /// `ServeOptions::shm`; off also passes `--no-shm` to joiners.
        shm: bool,
    },
    /// The shipped `insitu serve` service as a child process, driven by
    /// a closed loop of `RpcClient`s.
    Service,
}

/// One workload's definition.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Template file under `benchmark/workflows/`.
    pub template: &'static str,
    /// Overrides that define the workload (sizes, machine shape).
    pub fixed: &'static [(&'static str, &'static str)],
    /// Override keys the seeded box corner is written to (`lb`, `ub`).
    pub seeded_box: (&'static str, &'static str),
    /// Domain side length.
    pub n: u64,
    /// Extent of the seeded box along each dimension.
    pub box_extent: u64,
    /// The seeded corner is `step * (0..=corner_steps)` per dimension.
    pub corner_step: u64,
    /// See `corner_step`.
    pub corner_steps: u64,
    /// Iterations of a full run (`K`).
    pub k: u64,
    /// How runs are driven.
    pub mode: Mode,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
}

/// Closed-loop clients of the service workload.
pub const SERVICE_CLIENTS: usize = 2;
/// `insitu serve` flags of the service workload.
pub const SERVICE_ARGS: &[&str] = &["--max-runs", "2", "--pool-nodes", "4"];
/// Sim grids the service workload's submissions cycle through, with
/// their admission priorities: a fixed multiset the seed shuffles.
pub const SERVICE_MIX: &[(&str, u32)] = &[
    ("[2, 2, 1]", 0),
    ("[2, 2, 1]", 0),
    ("[2, 2, 1]", 1),
    ("[2, 2, 1]", 1),
    ("[4, 1, 1]", 0),
    ("[4, 1, 1]", 0),
    ("[4, 1, 1]", 1),
    ("[4, 1, 1]", 1),
];

const COUPLED3_BOX: (&str, &str) = ("t_lb", "t_ub");

/// All workloads, in reporting order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "insitu_node",
        template: "coupled3.toml",
        fixed: &[("n", "128"), ("cpn", "12")],
        seeded_box: COUPLED3_BOX,
        n: 128,
        box_extent: 120,
        corner_step: 1,
        corner_steps: 8,
        k: 10,
        mode: Mode::Threaded,
        why: "coupled codes sharing one node: few large strided pieces, copy_region and memory bandwidth do the work, net and svc none",
    },
    Workload {
        name: "insitu_blockcyclic",
        template: "blockcyclic.toml",
        fixed: &[],
        seeded_box: COUPLED3_BOX,
        n: 64,
        box_extent: 56,
        corner_step: 8,
        corner_steps: 1,
        k: 15,
        mode: Mode::Threaded,
        why: "same in-process layers with thousands of 4 KiB gets: schedule cache, registry rendezvous and per-get bookkeeping dominate, copy bandwidth does not",
    },
    Workload {
        name: "wire_star",
        template: "coupled3.toml",
        fixed: &[("n", "96"), ("cpn", "4")],
        seeded_box: COUPLED3_BOX,
        n: 96,
        box_extent: 88,
        corner_step: 1,
        corner_steps: 8,
        k: 20,
        mode: Mode::Distrib {
            p2p: false,
            shm: false,
        },
        why: "every PullData is encoded, relayed by the hub and decoded over the thread-per-peer transport: net frame, hub and conn do the work",
    },
    Workload {
        name: "wire_p2p",
        template: "coupled3.toml",
        fixed: &[("n", "96"), ("cpn", "4")],
        seeded_box: COUPLED3_BOX,
        n: 96,
        box_extent: 88,
        corner_step: 1,
        corner_steps: 8,
        k: 20,
        mode: Mode::Distrib {
            p2p: true,
            shm: false,
        },
        why: "one hop over the reactor: isolates net reactor, frame and the poller from the hub relay",
    },
    Workload {
        name: "wire_shm",
        template: "coupled3.toml",
        fixed: &[("n", "96"), ("cpn", "4")],
        seeded_box: COUPLED3_BOX,
        n: 96,
        box_extent: 88,
        corner_step: 1,
        corner_steps: 8,
        k: 20,
        mode: Mode::Distrib {
            p2p: false,
            shm: true,
        },
        why: "the default launch on one host: payloads ride the /dev/shm ring, so util shm and the link's offer, doorbell and ring-full fallback path do the work",
    },
    Workload {
        name: "push_monitor",
        template: "monitor.toml",
        fixed: &[],
        seeded_box: ("s_lb", "s_ub"),
        n: 64,
        box_extent: 56,
        corner_step: 1,
        corner_steps: 8,
        k: 40,
        mode: Mode::Distrib {
            p2p: false,
            shm: false,
        },
        why: "the write-driven path: every put pushes fragments through sub, copy_region and the codec across the wire, and a verify get pulls them again",
    },
    Workload {
        name: "svc_churn",
        template: "coupled3.toml",
        fixed: &[("n", "16"), ("cpn", "4")],
        seeded_box: COUPLED3_BOX,
        n: 16,
        box_extent: 8,
        // One box for every seed: where the box lies decides how many
        // ranks of the `[2, 2, 1]` grid it meets and which nodes the
        // pieces cross, and at this size that is the run (seeded corners
        // read 12 % apart in run time and 10 % in peak memory). The seed
        // shuffles the submission order instead (`service_order`).
        corner_step: 0,
        corner_steps: 0,
        k: 24,
        mode: Mode::Service,
        why: "tiny runs submitted to the shipped service in a closed loop: almost no data moves, so admission, polling, per-run hub wiring, compile, mapping and cold schedules are the run",
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn template_source(template: &str) -> Result<String, String> {
    // The templates sit beside the package manifest; the binary is
    // always run from the repository root (run.sh does), so resolve
    // relative to it and fall back to the build-time location.
    let candidates = [
        std::path::PathBuf::from("benchmark/workflows").join(template),
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("workflows")
            .join(template),
    ];
    for path in &candidates {
        if let Ok(text) = std::fs::read_to_string(path) {
            return Ok(text);
        }
    }
    Err(format!("cannot read workflow template {template}"))
}

fn render_triple(v: [u64; 3]) -> String {
    format!("[{}, {}, {}]", v[0], v[1], v[2])
}

/// One compiled input of a workload: the text the program receives and
/// the scenario it describes.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// Listing-1 DAG text.
    pub dag: String,
    /// Workload configuration text.
    pub config: String,
    /// The scenario both describe.
    pub scenario: Scenario,
}

impl Workload {
    /// The seeded overrides: the lower corner of the fixed-extent box.
    fn seeded_overrides(&self, seed: u64) -> Vec<(String, String)> {
        let mut rng = SplitMix64::new(seed ^ 0x696e_7369_7475); // "insitu"
        let mut lb = [0u64; 3];
        for c in &mut lb {
            *c = self.corner_step * rng.range_u64(0, self.corner_steps + 1);
        }
        let ub = lb.map(|c| c + self.box_extent - 1);
        assert!(
            ub.iter().all(|&u| u < self.n),
            "seeded box leaves the domain"
        );
        vec![
            (self.seeded_box.0.to_string(), render_triple(lb)),
            (self.seeded_box.1.to_string(), render_triple(ub)),
        ]
    }

    /// The template's text and the overrides that make it this
    /// workload's input for `seed` with `iterations`, plus any `extra`
    /// overrides (the service workload's sim grid).
    pub fn template_input(
        &self,
        seed: u64,
        iterations: u64,
        extra: &[(&str, &str)],
    ) -> Result<(String, Vec<(String, String)>), String> {
        let source = template_source(self.template)?;
        let mut overrides: Vec<(String, String)> = self
            .fixed
            .iter()
            .chain(extra)
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        overrides.push(("iters".into(), iterations.to_string()));
        overrides.extend(self.seeded_overrides(seed));
        Ok((source, overrides))
    }

    /// Compile [`Workload::template_input`] into what the program is
    /// given.
    pub fn compile(
        &self,
        seed: u64,
        iterations: u64,
        extra: &[(&str, &str)],
    ) -> Result<Compiled, String> {
        let (source, overrides) = self.template_input(seed, iterations, extra)?;
        let authored = insitu_workflow::compile_workflow(&source, &overrides)
            .map_err(|e| format!("{}: {e}", self.template))?;
        let scenario = insitu_cli::build_scenario(&authored.dag, &authored.config)
            .map_err(|e| format!("{}: {e}", self.template))?;
        Ok(Compiled {
            dag: authored.dag,
            config: authored.config,
            scenario,
        })
    }

    /// The service workload's submission order: `SERVICE_MIX` shuffled
    /// by the seed (Fisher-Yates). Other workloads have one input.
    pub fn service_order(&self, seed: u64) -> Vec<(&'static str, u32)> {
        let mut mix = SERVICE_MIX.to_vec();
        let mut rng = SplitMix64::new(seed ^ 0x0073_7663); // "svc"
        for i in (1..mix.len()).rev() {
            mix.swap(i, rng.range_usize(0, i + 1));
        }
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_domain::BoundingBox;

    /// Bytes one iteration couples: every coupling's (region ∩ domain)
    /// once per consumer app, plus each subscription's region twice
    /// (push and verify get).
    fn coupled_bytes(s: &Scenario) -> u128 {
        let whole = |app: u32| -> BoundingBox { *s.decomposition(app).domain() };
        let mut cells = 0u128;
        for c in &s.couplings {
            let region = c.region.unwrap_or(whole(c.producer_app));
            cells += region.num_cells() * c.consumer_apps.len() as u128;
        }
        for sub in &s.subscriptions {
            cells += 2 * sub.region.unwrap_or(whole(sub.producer_app)).num_cells();
        }
        cells * s.elem_bytes as u128
    }

    #[test]
    fn same_seed_same_text_and_every_seed_same_volume() {
        for w in WORKLOADS {
            let a = w.compile(7, w.k, &[]).unwrap();
            let b = w.compile(7, w.k, &[]).unwrap();
            assert_eq!(a.dag, b.dag, "{}", w.name);
            assert_eq!(a.config, b.config, "{}", w.name);
            let volume = coupled_bytes(&a.scenario);
            let mut distinct = std::collections::BTreeSet::new();
            for seed in 0..32 {
                let c = w.compile(seed, w.k, &[]).unwrap();
                assert_eq!(coupled_bytes(&c.scenario), volume, "{} seed {seed}", w.name);
                distinct.insert(c.config);
            }
            // The service workload's seed is its submission order.
            let seeded = w.mode != Mode::Service;
            assert_eq!(distinct.len() > 1, seeded, "{}: seeded inputs", w.name);
        }
    }

    #[test]
    fn service_order_is_a_seeded_permutation() {
        let w = find("svc_churn").unwrap();
        let a = w.service_order(3);
        assert_eq!(a, w.service_order(3));
        let mut sorted = a.clone();
        sorted.sort();
        let mut mix = SERVICE_MIX.to_vec();
        mix.sort();
        assert_eq!(sorted, mix);
        assert!((0..16).any(|s| w.service_order(s) != a));
    }
}
