//! Workload configuration file parsing.

use insitu::{CouplingSpec, SubscriptionSpec};
use insitu_domain::Distribution;

/// Per-application workload settings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppConfig {
    /// Application id (must match an `APP_ID` of the DAG file).
    pub id: u32,
    /// Process grid over the shared domain.
    pub grid: Vec<u64>,
    /// Data distribution.
    pub dist: Distribution,
}

/// A parsed workload configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Cores per compute node.
    pub cores_per_node: u32,
    /// Shared data domain sizes.
    pub domain: Vec<u64>,
    /// Stencil halo width.
    pub halo: u64,
    /// Coupling iterations.
    pub iterations: u64,
    /// Per-app settings.
    pub apps: Vec<AppConfig>,
    /// Couplings.
    pub couplings: Vec<CouplingSpec>,
    /// Standing queries layered over the couplings.
    pub subscriptions: Vec<SubscriptionSpec>,
}

/// A configuration parse failure with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn parse_u64s(toks: &[&str], line: usize) -> Result<Vec<u64>, ConfigError> {
    toks.iter()
        .map(|t| {
            t.parse::<u64>().map_err(|_| ConfigError {
                line,
                message: format!("invalid number '{t}'"),
            })
        })
        .collect()
}

/// `counts`, or the error naming the first zero among them: a domain,
/// process grid or block with no extent in some dimension.
fn positive(counts: Vec<u64>, what: &str, line: usize) -> Result<Vec<u64>, ConfigError> {
    match counts.iter().position(|&c| c == 0) {
        Some(d) => Err(ConfigError {
            line,
            message: format!("{what} in dimension {d} is 0; each must be at least 1"),
        }),
        None => Ok(counts),
    }
}

/// The `REGION lb.. UB ub..` box of a directive whose `REGION` is
/// `toks[rp]`; the upper bounds end at `stop` when it follows `UB`.
fn parse_region(
    toks: &[&str],
    rp: usize,
    stop: Option<usize>,
    line: usize,
) -> Result<insitu_domain::BoundingBox, ConfigError> {
    let err = |m: String| ConfigError { line, message: m };
    let ub_pos = toks
        .iter()
        .position(|&t| t == "UB")
        .ok_or_else(|| err("REGION needs a matching UB".into()))?;
    if ub_pos < rp {
        return Err(err("REGION must precede UB".into()));
    }
    let ub_end = stop.filter(|&q| q > ub_pos).unwrap_or(toks.len());
    let lb = parse_u64s(&toks[rp + 1..ub_pos], line)?;
    let ub = parse_u64s(&toks[ub_pos + 1..ub_end], line)?;
    if lb.is_empty() || lb.len() != ub.len() {
        return Err(err("REGION lb/ub rank mismatch".into()));
    }
    if let Some(d) = (0..lb.len()).find(|&d| lb[d] > ub[d]) {
        return Err(err(format!(
            "REGION is inverted in dimension {d}: lower bound {} exceeds upper bound {}",
            lb[d], ub[d]
        )));
    }
    Ok(insitu_domain::BoundingBox::new(&lb, &ub))
}

/// The `VAR <name> PRODUCER <id>` operands COUPLING and SUBSCRIBE both
/// open with, read from the `directive` line `toks`.
fn var_and_producer(
    toks: &[&str],
    directive: &str,
    line: usize,
) -> Result<(String, u32), ConfigError> {
    let err = |m: String| ConfigError { line, message: m };
    let find = |key: &str| {
        toks.iter()
            .position(|&t| t == key)
            .ok_or_else(|| err(format!("{directive} needs {key}")))
    };
    let (var_pos, prod_pos) = (find("VAR")?, find("PRODUCER")?);
    let var = toks
        .get(var_pos + 1)
        .ok_or_else(|| err("VAR needs a name".into()))?
        .to_string();
    let producer_app = toks
        .get(prod_pos + 1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err("PRODUCER needs an id".into()))?;
    Ok((var, producer_app))
}

/// Parse a workload configuration file.
pub(crate) fn parse_config(input: &str) -> Result<WorkloadConfig, ConfigError> {
    let mut cores_per_node = 12u32;
    let mut domain: Option<Vec<u64>> = None;
    let mut halo = 1u64;
    let mut iterations = 1u64;
    let mut apps: Vec<AppConfig> = Vec::new();
    let mut couplings: Vec<CouplingSpec> = Vec::new();
    // Each subscription keeps its source line so the cross-reference
    // checks after the loop can still point at the offending directive.
    let mut subscriptions: Vec<(usize, SubscriptionSpec)> = Vec::new();

    for (idx, raw) in input.lines().enumerate() {
        let line = idx + 1;
        let err = |m: String| ConfigError { line, message: m };
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let toks: Vec<&str> = text.split_whitespace().collect();
        match toks[0] {
            "CORES_PER_NODE" => {
                cores_per_node = toks
                    .get(1)
                    .and_then(|t| t.parse().ok())
                    .filter(|&c| c >= 1)
                    .ok_or_else(|| err("CORES_PER_NODE needs a positive integer".into()))?;
            }
            "DOMAIN" => {
                let sizes = positive(parse_u64s(&toks[1..], line)?, "DOMAIN size", line)?;
                if sizes.is_empty() || sizes.len() > 4 {
                    return Err(err("DOMAIN needs 1-4 sizes".into()));
                }
                domain = Some(sizes);
            }
            "HALO" => {
                halo = parse_u64s(&toks[1..], line)?
                    .first()
                    .copied()
                    .ok_or_else(|| err("HALO needs a width".into()))?;
            }
            "ITERATIONS" => {
                iterations = parse_u64s(&toks[1..], line)?
                    .first()
                    .copied()
                    .filter(|&i| i >= 1)
                    .ok_or_else(|| err("ITERATIONS needs a positive count".into()))?;
            }
            "APP" => {
                // APP <id> GRID g1.. DIST <blocked|cyclic|block-cyclic [b..]>
                let id = toks
                    .get(1)
                    .and_then(|t| t.parse::<u32>().ok())
                    .ok_or_else(|| err("APP needs an id".into()))?;
                let grid_pos = toks
                    .iter()
                    .position(|&t| t == "GRID")
                    .ok_or_else(|| err("APP needs GRID".into()))?;
                let dist_pos = toks
                    .iter()
                    .position(|&t| t == "DIST")
                    .ok_or_else(|| err("APP needs DIST".into()))?;
                if dist_pos < grid_pos {
                    return Err(err("GRID must precede DIST".into()));
                }
                let grid = positive(
                    parse_u64s(&toks[grid_pos + 1..dist_pos], line)?,
                    "GRID process count",
                    line,
                )?;
                if grid.is_empty() {
                    return Err(err("GRID needs at least one dimension".into()));
                }
                let dist = match toks.get(dist_pos + 1) {
                    Some(&"blocked") => Distribution::Blocked,
                    Some(&"cyclic") => Distribution::Cyclic,
                    Some(&"block-cyclic") => {
                        let blocks = positive(
                            parse_u64s(&toks[dist_pos + 2..], line)?,
                            "block-cyclic block size",
                            line,
                        )?;
                        if blocks.len() != grid.len() {
                            return Err(err(
                                "block-cyclic needs one block size per dimension".into()
                            ));
                        }
                        Distribution::block_cyclic(&blocks)
                    }
                    other => {
                        return Err(err(format!("unknown distribution {other:?}")));
                    }
                };
                if apps.iter().any(|a| a.id == id) {
                    return Err(err(format!("app {id} configured twice")));
                }
                apps.push(AppConfig { id, grid, dist });
            }
            "COUPLING" => {
                // COUPLING VAR <name> PRODUCER <id> CONSUMERS <id..>
                //          MODE <concurrent|sequential>
                //          [REGION lb.. UB ub..]
                let find = |key: &str| toks.iter().position(|&t| t == key);
                let (var, producer_app) = var_and_producer(&toks, "COUPLING", line)?;
                let cons_pos =
                    find("CONSUMERS").ok_or_else(|| err("COUPLING needs CONSUMERS".into()))?;
                let mode_pos = find("MODE").ok_or_else(|| err("COUPLING needs MODE".into()))?;
                if mode_pos < cons_pos {
                    return Err(err("CONSUMERS must precede MODE".into()));
                }
                let consumer_apps: Vec<u32> = toks[cons_pos + 1..mode_pos]
                    .iter()
                    .map(|t| {
                        t.parse::<u32>()
                            .map_err(|_| err(format!("invalid consumer id '{t}'")))
                    })
                    .collect::<Result<_, _>>()?;
                if consumer_apps.is_empty() {
                    return Err(err("CONSUMERS needs at least one id".into()));
                }
                let concurrent = match toks.get(mode_pos + 1) {
                    Some(&"concurrent") => true,
                    Some(&"sequential") => false,
                    other => return Err(err(format!("unknown MODE {other:?}"))),
                };
                let region = find("REGION")
                    .map(|rp| parse_region(&toks, rp, None, line))
                    .transpose()?;
                couplings.push(CouplingSpec {
                    var,
                    producer_app,
                    consumer_apps,
                    concurrent,
                    region,
                });
            }
            "SUBSCRIBE" => {
                // SUBSCRIBE VAR <name> PRODUCER <id> SUBSCRIBER <id>
                //           EVERY <k> [REGION lb.. UB ub..] [QUEUE <cap>]
                let find = |key: &str| toks.iter().position(|&t| t == key);
                let (var, producer_app) = var_and_producer(&toks, "SUBSCRIBE", line)?;
                let sub_pos =
                    find("SUBSCRIBER").ok_or_else(|| err("SUBSCRIBE needs SUBSCRIBER".into()))?;
                let every_pos = find("EVERY").ok_or_else(|| err("SUBSCRIBE needs EVERY".into()))?;
                let subscriber_app = toks
                    .get(sub_pos + 1)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("SUBSCRIBER needs an id".into()))?;
                let every_k: u64 = toks
                    .get(every_pos + 1)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("EVERY needs a version stride".into()))?;
                if every_k == 0 {
                    return Err(err(
                        "EVERY must be at least 1: a stride of 0 would match no version".into(),
                    ));
                }
                let queue_pos = find("QUEUE");
                let region = find("REGION")
                    .map(|rp| parse_region(&toks, rp, queue_pos, line))
                    .transpose()?;
                let queue_cap = match queue_pos {
                    None => insitu::sub::DEFAULT_QUEUE_CAP,
                    Some(qp) => toks
                        .get(qp + 1)
                        .and_then(|t| t.parse::<usize>().ok())
                        .filter(|&c| c >= 1)
                        .ok_or_else(|| err("QUEUE needs a positive depth".into()))?,
                };
                subscriptions.push((
                    line,
                    SubscriptionSpec {
                        var,
                        producer_app,
                        subscriber_app,
                        every_k,
                        region,
                        queue_cap,
                    },
                ));
            }
            other => {
                return Err(ConfigError {
                    line,
                    message: format!("unknown directive '{other}'"),
                })
            }
        }
    }

    let domain = domain.ok_or(ConfigError {
        line: 0,
        message: "missing DOMAIN".into(),
    })?;
    for a in &apps {
        if a.grid.len() != domain.len() {
            return Err(ConfigError {
                line: 0,
                message: format!("app {} grid rank differs from DOMAIN", a.id),
            });
        }
    }
    // A subscription is a push overlay on an existing coupling: the
    // producer must already publish the variable or no put would ever
    // match the standing query.
    for (line, s) in &subscriptions {
        if !couplings
            .iter()
            .any(|c| c.var == s.var && c.producer_app == s.producer_app)
        {
            return Err(ConfigError {
                line: *line,
                message: format!(
                    "SUBSCRIBE references unknown variable '{}' from producer {}: no COUPLING declares it",
                    s.var, s.producer_app
                ),
            });
        }
    }
    Ok(WorkloadConfig {
        cores_per_node,
        domain,
        halo,
        iterations,
        apps,
        couplings,
        subscriptions: subscriptions.into_iter().map(|(_, s)| s).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# demo
CORES_PER_NODE 4
DOMAIN 16 16 16
HALO 2
ITERATIONS 3
APP 1 GRID 2 2 2 DIST blocked
APP 2 GRID 4 1 1 DIST block-cyclic 4 8 8
COUPLING VAR temperature PRODUCER 1 CONSUMERS 2 MODE concurrent
";

    #[test]
    fn parses_sample() {
        let c = parse_config(SAMPLE).unwrap();
        assert_eq!(c.cores_per_node, 4);
        assert_eq!(c.domain, vec![16, 16, 16]);
        assert_eq!(c.halo, 2);
        assert_eq!(c.iterations, 3);
        assert_eq!(c.apps.len(), 2);
        assert_eq!(c.apps[0].dist, Distribution::Blocked);
        assert!(matches!(c.apps[1].dist, Distribution::BlockCyclic(_)));
        assert_eq!(c.couplings.len(), 1);
        assert!(c.couplings[0].concurrent);
        assert_eq!(c.couplings[0].consumer_apps, vec![2]);
    }

    #[test]
    fn coupling_region_parsed() {
        let c = parse_config(
            "DOMAIN 16 16\nAPP 1 GRID 2 2 DIST blocked\nAPP 2 GRID 2 2 DIST blocked\nCOUPLING VAR f PRODUCER 1 CONSUMERS 2 MODE concurrent REGION 0 0 UB 15 1\n",
        )
        .unwrap();
        let r = c.couplings[0].region.unwrap();
        assert_eq!(r, insitu_domain::BoundingBox::new(&[0, 0], &[15, 1]));
    }

    #[test]
    fn coupling_region_requires_ub() {
        let err = parse_config(
            "DOMAIN 16 16\nAPP 1 GRID 2 2 DIST blocked\nCOUPLING VAR f PRODUCER 1 CONSUMERS 1 MODE concurrent REGION 0 0\n",
        )
        .unwrap_err();
        assert!(err.message.contains("UB"));
    }

    #[test]
    fn sequential_mode_and_multiple_consumers() {
        let c = parse_config(
            "DOMAIN 8 8\nAPP 1 GRID 2 2 DIST blocked\nAPP 2 GRID 2 1 DIST cyclic\nAPP 3 GRID 1 2 DIST cyclic\nCOUPLING VAR v PRODUCER 1 CONSUMERS 2 3 MODE sequential\n",
        )
        .unwrap();
        assert!(!c.couplings[0].concurrent);
        assert_eq!(c.couplings[0].consumer_apps, vec![2, 3]);
    }

    #[test]
    fn defaults_apply() {
        let c = parse_config("DOMAIN 8 8\n").unwrap();
        assert_eq!(c.cores_per_node, 12);
        assert_eq!(c.halo, 1);
        assert_eq!(c.iterations, 1);
    }

    #[test]
    fn missing_domain_rejected() {
        let err = parse_config("CORES_PER_NODE 4\n").unwrap_err();
        assert!(err.message.contains("DOMAIN"));
    }

    #[test]
    fn grid_rank_mismatch_rejected() {
        let err = parse_config("DOMAIN 8 8\nAPP 1 GRID 2 2 2 DIST blocked\n").unwrap_err();
        assert!(err.message.contains("grid rank"));
    }

    #[test]
    fn duplicate_app_rejected() {
        let err =
            parse_config("DOMAIN 8 8\nAPP 1 GRID 2 2 DIST blocked\nAPP 1 GRID 2 2 DIST blocked\n")
                .unwrap_err();
        assert!(err.message.contains("twice"));
    }

    #[test]
    fn bad_distribution_rejected() {
        let err = parse_config("DOMAIN 8 8\nAPP 1 GRID 2 2 DIST wavy\n").unwrap_err();
        assert!(err.message.contains("unknown distribution"));
    }

    #[test]
    fn block_cyclic_needs_blocks_per_dim() {
        let err = parse_config("DOMAIN 8 8\nAPP 1 GRID 2 2 DIST block-cyclic 4\n").unwrap_err();
        assert!(err.message.contains("one block size per dimension"));
    }

    #[test]
    fn zero_cores_per_node_rejected() {
        let err = parse_config("DOMAIN 8 8\nCORES_PER_NODE 0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.message.contains("CORES_PER_NODE needs a positive"),
            "{err}"
        );
    }

    #[test]
    fn zero_domain_size_rejected() {
        let err = parse_config("DOMAIN 8 0\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(
            err.message.contains("DOMAIN size in dimension 1 is 0"),
            "{err}"
        );
    }

    #[test]
    fn zero_grid_count_rejected() {
        let err = parse_config("DOMAIN 8 8\nAPP 1 GRID 0 2 DIST blocked\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.message
                .contains("GRID process count in dimension 0 is 0"),
            "{err}"
        );
    }

    #[test]
    fn zero_block_size_rejected() {
        let err = parse_config("DOMAIN 8 8\nAPP 1 GRID 2 2 DIST block-cyclic 4 0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.message
                .contains("block-cyclic block size in dimension 1 is 0"),
            "{err}"
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_config("DOMAIN 8 8\nNONSENSE\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    const SUB_BASE: &str = "\
DOMAIN 8 8
APP 1 GRID 2 2 DIST blocked
APP 2 GRID 2 1 DIST blocked
APP 3 GRID 1 1 DIST blocked
COUPLING VAR t PRODUCER 1 CONSUMERS 2 MODE concurrent
";

    #[test]
    fn subscribe_parsed_with_defaults() {
        let c = parse_config(&format!(
            "{SUB_BASE}SUBSCRIBE VAR t PRODUCER 1 SUBSCRIBER 3 EVERY 2\n"
        ))
        .unwrap();
        assert_eq!(c.subscriptions.len(), 1);
        let s = &c.subscriptions[0];
        assert_eq!(s.var, "t");
        assert_eq!((s.producer_app, s.subscriber_app), (1, 3));
        assert_eq!(s.every_k, 2);
        assert_eq!(s.region, None);
        assert_eq!(s.queue_cap, insitu::sub::DEFAULT_QUEUE_CAP);
    }

    #[test]
    fn subscribe_region_and_queue_parsed() {
        let c = parse_config(&format!(
            "{SUB_BASE}SUBSCRIBE VAR t PRODUCER 1 SUBSCRIBER 3 EVERY 1 REGION 0 0 UB 3 7 QUEUE 2\n"
        ))
        .unwrap();
        let s = &c.subscriptions[0];
        assert_eq!(
            s.region,
            Some(insitu_domain::BoundingBox::new(&[0, 0], &[3, 7]))
        );
        assert_eq!(s.queue_cap, 2);
    }

    #[test]
    fn subscribe_every_zero_rejected() {
        let err = parse_config(&format!(
            "{SUB_BASE}SUBSCRIBE VAR t PRODUCER 1 SUBSCRIBER 3 EVERY 0\n"
        ))
        .unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.message.contains("EVERY must be at least 1"), "{err}");
    }

    #[test]
    fn subscribe_inverted_region_rejected() {
        let err = parse_config(&format!(
            "{SUB_BASE}SUBSCRIBE VAR t PRODUCER 1 SUBSCRIBER 3 EVERY 1 REGION 5 0 UB 3 7\n"
        ))
        .unwrap_err();
        assert_eq!(err.line, 6);
        assert!(
            err.message.contains("inverted in dimension 0")
                && err.message.contains("lower bound 5 exceeds upper bound 3"),
            "{err}"
        );
    }

    #[test]
    fn subscribe_unknown_variable_rejected() {
        let err = parse_config(&format!(
            "{SUB_BASE}SUBSCRIBE VAR pressure PRODUCER 1 SUBSCRIBER 3 EVERY 1\n"
        ))
        .unwrap_err();
        assert_eq!(err.line, 6);
        assert!(
            err.message.contains("unknown variable 'pressure'")
                && err.message.contains("no COUPLING declares it"),
            "{err}"
        );
        // Same variable from the wrong producer is just as unknown.
        let err = parse_config(&format!(
            "{SUB_BASE}SUBSCRIBE VAR t PRODUCER 2 SUBSCRIBER 3 EVERY 1\n"
        ))
        .unwrap_err();
        assert!(err.message.contains("producer 2"), "{err}");
    }

    #[test]
    fn coupling_inverted_region_rejected() {
        let err = parse_config(
            "DOMAIN 8 8\nAPP 1 GRID 2 2 DIST blocked\nCOUPLING VAR f PRODUCER 1 CONSUMERS 1 MODE concurrent REGION 9 0 UB 3 7\n",
        )
        .unwrap_err();
        assert!(err.message.contains("inverted"), "{err}");
    }

    /// Keywords out of order are a line-numbered error, never a slice
    /// panic: each row is a directive whose operands the parser slices
    /// between two keywords given the wrong way round.
    #[test]
    fn keyword_order_errors_name_their_line() {
        let rows = [
            (
                "COUPLING VAR t PRODUCER 1 MODE concurrent CONSUMERS 2",
                "CONSUMERS must precede MODE",
            ),
            (
                "COUPLING VAR t PRODUCER 1 CONSUMERS 2 MODE concurrent UB 3 3 REGION 0 0",
                "REGION must precede UB",
            ),
            (
                "SUBSCRIBE VAR t PRODUCER 1 SUBSCRIBER 3 EVERY 1 UB 3 3 REGION 0 0",
                "REGION must precede UB",
            ),
        ];
        for (directive, why) in rows {
            let err = parse_config(&format!("{SUB_BASE}{directive}\n")).unwrap_err();
            assert_eq!(err.line, 6, "{directive}");
            assert!(err.message.contains(why), "{directive}: {err}");
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let c = parse_config("# hi\n\nDOMAIN 4 4  # inline\n").unwrap();
        assert_eq!(c.domain, vec![4, 4]);
    }
}
