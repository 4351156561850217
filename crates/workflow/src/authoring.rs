//! The `workflow.toml` authoring format: a parameterized front-end that
//! compiles down to the Listing-1 DAG text and the workload
//! configuration text the existing parsers consume.
//!
//! The format is a deliberately small TOML subset (hand-rolled — the
//! workspace is hermetic): single tables `[workflow]`, `[machine]` and
//! `[params]`, array tables `[[app]]`, `[[coupling]]`, `[[subscribe]]`,
//! `[[bundle]]` and `[[edge]]`, and three value shapes — quoted strings,
//! unsigned integers and flat arrays thereof.
//!
//! ```toml
//! [workflow]
//! name = "heat-coupling"
//! iterations = ${iters}
//!
//! [params]          # defaults; override with --set key=value
//! iters = 2
//! grid = [2, 2, 1]
//!
//! [machine]
//! cores_per_node = 4
//! domain = [8, 8, 8]
//! halo = 1
//!
//! [[app]]
//! id = 1
//! grid = ${grid}
//! dist = "blocked"
//!
//! [[coupling]]
//! var = "temperature"
//! producer = 1
//! consumers = [2]
//! mode = "concurrent"
//! ```
//!
//! Every `${key}` anywhere in the file is textually replaced by the
//! value of `key` from `[params]` (after overrides) before the full
//! parse, so grid sizes, iteration counts and whole coupling patterns
//! can be template variables. Apps without an explicit `[[bundle]]`
//! membership each get their own bundle, in id order.

use std::collections::BTreeMap;

/// An authoring failure with its 1-based line (0 for file-level
/// problems such as a missing section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthorError {
    /// Line the error occurred on (0 = whole file).
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for AuthorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "workflow.toml: {}", self.message)
        } else {
            write!(f, "workflow.toml line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for AuthorError {}

/// A compiled workflow: the two text documents the rest of the system
/// already understands, plus the display name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthoredWorkflow {
    /// Display name from `[workflow] name`, or `"workflow"`.
    pub name: String,
    /// Listing-1 DAG text (`APP_ID`/`PARENT_APPID`/`BUNDLE` lines).
    pub dag: String,
    /// Workload configuration text (`DOMAIN`/`APP`/`COUPLING` lines).
    pub config: String,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Str(String),
    Int(u64),
    Arr(Vec<Value>),
}

impl Value {
    /// Render the value as the TOML fragment it was parsed from, so a
    /// `${param}` substitution re-parses to the same value.
    fn render_toml(&self) -> String {
        match self {
            Value::Str(s) => format!("\"{s}\""),
            Value::Int(n) => n.to_string(),
            Value::Arr(items) => format!(
                "[{}]",
                items
                    .iter()
                    .map(Value::render_toml)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

type Table = Vec<(String, Value, usize)>;

fn err(line: usize, message: impl Into<String>) -> AuthorError {
    AuthorError {
        line,
        message: message.into(),
    }
}

fn parse_value(s: &str, line: usize) -> Result<Value, AuthorError> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('"') {
        return match rest.strip_suffix('"') {
            Some(inner) if !inner.contains('"') => Ok(Value::Str(inner.to_string())),
            _ => Err(err(line, format!("malformed string {s}"))),
        };
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| err(line, "unterminated array"))?;
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // tolerate trailing commas
            }
            match parse_value(part, line)? {
                Value::Arr(_) => return Err(err(line, "nested arrays are not supported")),
                v => items.push(v),
            }
        }
        return Ok(Value::Arr(items));
    }
    s.parse::<u64>().map(Value::Int).map_err(|_| {
        err(
            line,
            format!("expected a string, integer or array, got '{s}'"),
        )
    })
}

/// The lines of `source` that say something, numbered from 1: each
/// with its `#` comment cut off and trimmed, blank ones skipped.
fn content_lines(source: &str) -> impl Iterator<Item = (usize, &str)> {
    source.lines().enumerate().filter_map(|(idx, raw)| {
        let text = raw.split('#').next().unwrap_or("").trim();
        (!text.is_empty()).then_some((idx + 1, text))
    })
}

/// One logical document: named single tables plus ordered array tables.
#[derive(Default)]
struct Doc {
    tables: BTreeMap<String, Table>,
    arrays: BTreeMap<String, Vec<Table>>,
}

impl Doc {
    fn parse(source: &str) -> Result<Doc, AuthorError> {
        const SINGLE: [&str; 3] = ["workflow", "machine", "params"];
        const ARRAY: [&str; 5] = ["app", "coupling", "subscribe", "bundle", "edge"];
        let mut doc = Doc::default();
        let mut current: Option<&mut Table> = None;
        for (line, text) in content_lines(source) {
            if let Some(h) = text.strip_prefix("[[") {
                let name = h
                    .strip_suffix("]]")
                    .map(str::trim)
                    .ok_or_else(|| err(line, "malformed [[section]] header"))?;
                if !ARRAY.contains(&name) {
                    return Err(err(line, format!("unknown section [[{name}]]")));
                }
                let entries = doc.arrays.entry(name.to_string()).or_default();
                entries.push(Table::new());
                current = Some(entries.last_mut().unwrap());
            } else if let Some(h) = text.strip_prefix('[') {
                let name = h
                    .strip_suffix(']')
                    .map(str::trim)
                    .ok_or_else(|| err(line, "malformed [section] header"))?;
                if !SINGLE.contains(&name) {
                    let hint = if ARRAY.contains(&name) {
                        format!(" (did you mean [[{name}]]?)")
                    } else {
                        String::new()
                    };
                    return Err(err(line, format!("unknown section [{name}]{hint}")));
                }
                if doc.tables.contains_key(name) {
                    return Err(err(line, format!("section [{name}] appears twice")));
                }
                current = Some(doc.tables.entry(name.to_string()).or_default());
            } else if let Some((key, value)) = text.split_once('=') {
                let key = key.trim();
                if key.is_empty() {
                    return Err(err(line, "missing key before '='"));
                }
                let table = current
                    .as_deref_mut()
                    .ok_or_else(|| err(line, format!("'{key}' appears before any section")))?;
                if table.iter().any(|(k, _, _)| k == key) {
                    return Err(err(line, format!("key '{key}' set twice in this section")));
                }
                table.push((key.to_string(), parse_value(value, line)?, line));
            } else {
                return Err(err(line, format!("expected 'key = value', got '{text}'")));
            }
        }
        Ok(doc)
    }
}

/// Extract `[params]` defaults, merge `overrides` on top (every
/// override must name a declared parameter) and return the source with
/// all `${key}` references substituted.
fn substitute(source: &str, overrides: &[(String, String)]) -> Result<String, AuthorError> {
    // First pass parses *only* section headers and `[params]` lines, so
    // `${...}` references elsewhere never reach the value parser early.
    let mut params: BTreeMap<String, String> = BTreeMap::new();
    let mut in_params = false;
    for (line, text) in content_lines(source) {
        if text.starts_with('[') {
            in_params = text == "[params]";
            continue;
        }
        if !in_params {
            continue;
        }
        let (key, value) = text
            .split_once('=')
            .ok_or_else(|| err(line, "expected 'key = value' in [params]"))?;
        params.insert(
            key.trim().to_string(),
            parse_value(value, line)?.render_toml(),
        );
    }
    for (key, value) in overrides {
        if !params.contains_key(key) {
            return Err(err(
                0,
                format!("--set {key}: no such parameter in [params]"),
            ));
        }
        params.insert(key.clone(), override_value(value).render_toml());
    }

    let mut out = String::with_capacity(source.len());
    let mut rest = source;
    while let Some(start) = rest.find("${") {
        out.push_str(&rest[..start]);
        let tail = &rest[start + 2..];
        let end = tail
            .find('}')
            .ok_or_else(|| err(0, "unterminated ${...} reference"))?;
        let key = tail[..end].trim();
        let value = params
            .get(key)
            .ok_or_else(|| err(0, format!("${{{key}}}: no such parameter in [params]")))?;
        out.push_str(value);
        rest = &tail[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Interpret a `--set key=value` value leniently: TOML syntax if it
/// parses ("[2, 2, 1]", "\"name\"", "5"), space-separated integers as
/// an array ("2 2 1"), anything else as a bare string.
fn override_value(raw: &str) -> Value {
    if let Ok(v) = parse_value(raw, 0) {
        return v;
    }
    let ints: Option<Vec<u64>> = raw
        .split_whitespace()
        .map(|t| t.parse::<u64>().ok())
        .collect();
    match ints {
        Some(ns) if !ns.is_empty() => Value::Arr(ns.into_iter().map(Value::Int).collect()),
        _ => Value::Str(raw.to_string()),
    }
}

fn get<'t>(table: &'t Table, key: &str) -> Option<&'t Value> {
    table.iter().find(|(k, _, _)| k == key).map(|(_, v, _)| v)
}

fn require<'t>(table: &'t Table, key: &str, section: &str) -> Result<&'t Value, AuthorError> {
    get(table, key).ok_or_else(|| {
        let line = table.first().map(|(_, _, l)| *l).unwrap_or(0);
        err(line, format!("[{section}] is missing '{key}'"))
    })
}

fn as_int(v: &Value, what: &str) -> Result<u64, AuthorError> {
    match v {
        Value::Int(n) => Ok(*n),
        _ => Err(err(0, format!("{what} must be an integer"))),
    }
}

fn as_str<'v>(v: &'v Value, what: &str) -> Result<&'v str, AuthorError> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(err(0, format!("{what} must be a string"))),
    }
}

fn as_ints(v: &Value, what: &str) -> Result<Vec<u64>, AuthorError> {
    match v {
        Value::Arr(items) if !items.is_empty() => items
            .iter()
            .map(|i| as_int(i, what))
            .collect::<Result<Vec<_>, _>>(),
        Value::Int(n) => Ok(vec![*n]),
        _ => Err(err(0, format!("{what} must be a non-empty integer array"))),
    }
}

fn render_ints(ns: &[u64]) -> String {
    ns.iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Compile a `workflow.toml` source into the DAG and configuration
/// texts, after substituting `[params]` (with `overrides` applied).
pub fn compile_workflow(
    source: &str,
    overrides: &[(String, String)],
) -> Result<AuthoredWorkflow, AuthorError> {
    let substituted = substitute(source, overrides)?;
    let doc = Doc::parse(&substituted)?;
    let empty = Table::new();
    let workflow = doc.tables.get("workflow").unwrap_or(&empty);
    let machine = doc.tables.get("machine").ok_or_else(|| {
        err(
            0,
            "missing [machine] section (cores_per_node, domain, halo)",
        )
    })?;
    let apps = doc
        .arrays
        .get("app")
        .filter(|a| !a.is_empty())
        .ok_or_else(|| err(0, "at least one [[app]] section is required"))?;

    let name = match get(workflow, "name") {
        Some(v) => as_str(v, "[workflow] name")?.to_string(),
        None => "workflow".to_string(),
    };

    // ---- the DAG document -------------------------------------------
    let mut dag = format!("# {name} — generated from workflow.toml\n");
    let mut app_ids = Vec::new();
    for app in apps {
        let id = as_int(require(app, "id", "app")?, "[[app]] id")?;
        if app_ids.contains(&id) {
            return Err(err(0, format!("app {id} declared twice")));
        }
        app_ids.push(id);
        dag.push_str(&format!("APP_ID {id}\n"));
    }
    for edge in doc.arrays.get("edge").map(Vec::as_slice).unwrap_or(&[]) {
        let parent = as_int(require(edge, "parent", "edge")?, "[[edge]] parent")?;
        let child = as_int(require(edge, "child", "edge")?, "[[edge]] child")?;
        dag.push_str(&format!("PARENT_APPID {parent} CHILD_APPID {child}\n"));
    }
    match doc.arrays.get("bundle").filter(|b| !b.is_empty()) {
        Some(bundles) => {
            for bundle in bundles {
                let ids = as_ints(require(bundle, "apps", "bundle")?, "[[bundle]] apps")?;
                dag.push_str(&format!("BUNDLE {}\n", render_ints(&ids)));
            }
        }
        // Default: every app in its own bundle, in declaration order.
        None => {
            for id in &app_ids {
                dag.push_str(&format!("BUNDLE {id}\n"));
            }
        }
    }

    // ---- the configuration document ---------------------------------
    let mut config = format!("# {name} — generated from workflow.toml\n");
    if let Some(v) = get(machine, "cores_per_node") {
        config.push_str(&format!(
            "CORES_PER_NODE {}\n",
            as_int(v, "[machine] cores_per_node")?
        ));
    }
    let domain = as_ints(require(machine, "domain", "machine")?, "[machine] domain")?;
    config.push_str(&format!("DOMAIN {}\n", render_ints(&domain)));
    if let Some(v) = get(machine, "halo") {
        config.push_str(&format!("HALO {}\n", as_int(v, "[machine] halo")?));
    }
    if let Some(v) = get(workflow, "iterations") {
        config.push_str(&format!(
            "ITERATIONS {}\n",
            as_int(v, "[workflow] iterations")?
        ));
    }
    for app in apps {
        let id = as_int(require(app, "id", "app")?, "[[app]] id")?;
        let grid = as_ints(require(app, "grid", "app")?, "[[app]] grid")?;
        let dist = match get(app, "dist") {
            Some(v) => as_str(v, "[[app]] dist")?,
            None => "blocked",
        };
        let mut line = format!("APP {id} GRID {} DIST {dist}", render_ints(&grid));
        if dist == "block-cyclic" {
            let blocks = as_ints(
                require(app, "blocks", "app")?,
                "[[app]] blocks (required by block-cyclic)",
            )?;
            line.push_str(&format!(" {}", render_ints(&blocks)));
        }
        config.push_str(&line);
        config.push('\n');
    }
    for c in doc.arrays.get("coupling").map(Vec::as_slice).unwrap_or(&[]) {
        let var = as_str(require(c, "var", "coupling")?, "[[coupling]] var")?;
        let producer = as_int(require(c, "producer", "coupling")?, "[[coupling]] producer")?;
        let consumers = as_ints(
            require(c, "consumers", "coupling")?,
            "[[coupling]] consumers",
        )?;
        let mode = match get(c, "mode") {
            Some(v) => as_str(v, "[[coupling]] mode")?,
            None => "concurrent",
        };
        let mut line = format!(
            "COUPLING VAR {var} PRODUCER {producer} CONSUMERS {} MODE {mode}",
            render_ints(&consumers)
        );
        match (get(c, "region_lb"), get(c, "region_ub")) {
            (Some(lb), Some(ub)) => {
                line.push_str(&format!(
                    " REGION {} UB {}",
                    render_ints(&as_ints(lb, "[[coupling]] region_lb")?),
                    render_ints(&as_ints(ub, "[[coupling]] region_ub")?)
                ));
            }
            (None, None) => {}
            _ => {
                return Err(err(
                    0,
                    "region_lb and region_ub must be given together".to_string(),
                ))
            }
        }
        config.push_str(&line);
        config.push('\n');
    }
    for s in doc
        .arrays
        .get("subscribe")
        .map(Vec::as_slice)
        .unwrap_or(&[])
    {
        let at = s.first().map(|(_, _, l)| *l).unwrap_or(0);
        let var = as_str(require(s, "var", "subscribe")?, "[[subscribe]] var")?;
        let producer = as_int(
            require(s, "producer", "subscribe")?,
            "[[subscribe]] producer",
        )?;
        let subscriber = as_int(
            require(s, "subscriber", "subscribe")?,
            "[[subscribe]] subscriber",
        )?;
        let every = match get(s, "every") {
            Some(v) => as_int(v, "[[subscribe]] every")?,
            None => 1,
        };
        // The three classic authoring mistakes get pointed errors here,
        // at the TOML layer, instead of line numbers into generated text.
        if every == 0 {
            return Err(err(
                at,
                "[[subscribe]] every must be at least 1: a stride of 0 would match no version",
            ));
        }
        if !doc
            .arrays
            .get("coupling")
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .any(|c| {
                get(c, "var").and_then(|v| as_str(v, "").ok()) == Some(var)
                    && get(c, "producer").and_then(|v| as_int(v, "").ok()) == Some(producer)
            })
        {
            return Err(err(
                at,
                format!(
                    "[[subscribe]] references unknown variable '{var}' from producer {producer}: no [[coupling]] declares it"
                ),
            ));
        }
        let mut line = format!(
            "SUBSCRIBE VAR {var} PRODUCER {producer} SUBSCRIBER {subscriber} EVERY {every}"
        );
        match (get(s, "region_lb"), get(s, "region_ub")) {
            (Some(lb), Some(ub)) => {
                let lb = as_ints(lb, "[[subscribe]] region_lb")?;
                let ub = as_ints(ub, "[[subscribe]] region_ub")?;
                if let Some(d) = (0..lb.len().min(ub.len())).find(|&d| lb[d] > ub[d]) {
                    return Err(err(
                        at,
                        format!(
                            "[[subscribe]] region is inverted in dimension {d}: lower bound {} exceeds upper bound {}",
                            lb[d], ub[d]
                        ),
                    ));
                }
                line.push_str(&format!(
                    " REGION {} UB {}",
                    render_ints(&lb),
                    render_ints(&ub)
                ));
            }
            (None, None) => {}
            _ => {
                return Err(err(
                    at,
                    "region_lb and region_ub must be given together".to_string(),
                ))
            }
        }
        if let Some(v) = get(s, "queue") {
            line.push_str(&format!(" QUEUE {}", as_int(v, "[[subscribe]] queue")?));
        }
        config.push_str(&line);
        config.push('\n');
    }

    Ok(AuthoredWorkflow { name, dag, config })
}

/// Parse one `key=value` CLI override (the `--set` argument syntax).
pub fn parse_override(arg: &str) -> Result<(String, String), AuthorError> {
    match arg.split_once('=') {
        Some((k, v)) if !k.trim().is_empty() => Ok((k.trim().to_string(), v.trim().to_string())),
        _ => Err(err(0, format!("--set needs key=value, got '{arg}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dag;

    const SAMPLE: &str = r#"
# A miniature of the distrib smoke workflow, parameterized.
[workflow]
name = "distrib-smoke"
iterations = ${iters}

[params]
iters = 2
sim_grid = [2, 2, 1]
halo = 1

[machine]
cores_per_node = 4
domain = [8, 8, 8]
halo = ${halo}

[[app]]
id = 1
grid = ${sim_grid}

[[app]]
id = 2
grid = [2, 1, 2]
dist = "blocked"

[[app]]
id = 3
grid = [1, 2, 2]

[[coupling]]
var = "temperature"
producer = 1
consumers = [2]
mode = "concurrent"

[[coupling]]
var = "pressure"
producer = 1
consumers = [3]
mode = "sequential"

[[bundle]]
apps = [1, 2]

[[bundle]]
apps = [3]

[[edge]]
parent = 1
child = 3
"#;

    #[test]
    fn compiles_to_parseable_dag_and_config() {
        let w = compile_workflow(SAMPLE, &[]).unwrap();
        assert_eq!(w.name, "distrib-smoke");
        let spec = parse_dag(&w.dag).unwrap();
        assert_eq!(spec.apps.len(), 3);
        assert_eq!(spec.bundles, vec![vec![1, 2], vec![3]]);
        assert!(w.dag.contains("PARENT_APPID 1 CHILD_APPID 3"));
        assert!(w.config.contains("CORES_PER_NODE 4"));
        assert!(w.config.contains("DOMAIN 8 8 8"));
        assert!(w.config.contains("HALO 1"));
        assert!(w.config.contains("ITERATIONS 2"));
        assert!(w.config.contains("APP 1 GRID 2 2 1 DIST blocked"));
        assert!(w
            .config
            .contains("COUPLING VAR pressure PRODUCER 1 CONSUMERS 3 MODE sequential"));
    }

    #[test]
    fn overrides_replace_parameter_defaults() {
        let overrides = [
            ("iters".to_string(), "5".to_string()),
            ("sim_grid".to_string(), "4 1 1".to_string()),
        ];
        let w = compile_workflow(SAMPLE, &overrides).unwrap();
        assert!(w.config.contains("ITERATIONS 5"));
        assert!(w.config.contains("APP 1 GRID 4 1 1 DIST blocked"));
    }

    #[test]
    fn unknown_override_and_reference_are_rejected() {
        let e = compile_workflow(SAMPLE, &[("nope".into(), "1".into())]).unwrap_err();
        assert!(e.message.contains("no such parameter"), "{e}");
        let e = compile_workflow("[machine]\ndomain = ${ghost}\n", &[]).unwrap_err();
        assert!(e.message.contains("ghost"), "{e}");
    }

    #[test]
    fn bundles_default_to_one_per_app() {
        let w = compile_workflow(
            "[machine]\ndomain = [4, 4]\n[[app]]\nid = 7\ngrid = [2, 2]\n",
            &[],
        )
        .unwrap();
        assert!(w.dag.contains("BUNDLE 7"));
        assert_eq!(w.name, "workflow");
    }

    #[test]
    fn block_cyclic_renders_its_blocks() {
        let w = compile_workflow(
            "[machine]\ndomain = [8, 8]\n[[app]]\nid = 1\ngrid = [2, 2]\ndist = \"block-cyclic\"\nblocks = [4, 4]\n",
            &[],
        )
        .unwrap();
        assert!(w.config.contains("APP 1 GRID 2 2 DIST block-cyclic 4 4"));
    }

    #[test]
    fn structural_errors_name_the_problem() {
        let e = compile_workflow("[[app]]\nid = 1\ngrid = [2]\n", &[]).unwrap_err();
        assert!(e.message.contains("[machine]"), "{e}");
        let e = compile_workflow("[machine]\ndomain = [4]\n", &[]).unwrap_err();
        assert!(e.message.contains("[[app]]"), "{e}");
        let e = compile_workflow("[app]\nid = 1\n", &[]).unwrap_err();
        assert!(e.message.contains("[[app]]"), "{e}");
        let e = compile_workflow("id = 1\n", &[]).unwrap_err();
        assert!(e.message.contains("before any section"), "{e}");
        let e = compile_workflow(
            "[machine]\ndomain = [4]\n[[app]]\nid = 1\ngrid = [4]\n[[coupling]]\nvar = \"v\"\nproducer = 1\nconsumers = [1]\nregion_lb = [0]\n",
            &[],
        )
        .unwrap_err();
        assert!(e.message.contains("region_lb and region_ub"), "{e}");
    }

    /// A valid base with one coupling, to which [[subscribe]] blocks are
    /// appended by the golden tests below.
    const SUB_BASE: &str = "\
[machine]
domain = [8, 8]
[[app]]
id = 1
grid = [2, 2]
[[app]]
id = 2
grid = [1, 1]
[[coupling]]
var = \"t\"
producer = 1
consumers = [2]
";

    #[test]
    fn subscribe_compiles_to_a_subscribe_line() {
        let w = compile_workflow(
            &format!(
                "{SUB_BASE}[[subscribe]]\nvar = \"t\"\nproducer = 1\nsubscriber = 2\nevery = 3\nqueue = 4\n"
            ),
            &[],
        )
        .unwrap();
        assert!(
            w.config
                .contains("SUBSCRIBE VAR t PRODUCER 1 SUBSCRIBER 2 EVERY 3 QUEUE 4"),
            "{}",
            w.config
        );
    }

    #[test]
    fn subscribe_every_defaults_to_one_and_region_renders() {
        let w = compile_workflow(
            &format!(
                "{SUB_BASE}[[subscribe]]\nvar = \"t\"\nproducer = 1\nsubscriber = 2\nregion_lb = [0, 0]\nregion_ub = [3, 7]\n"
            ),
            &[],
        )
        .unwrap();
        assert!(
            w.config
                .contains("SUBSCRIBE VAR t PRODUCER 1 SUBSCRIBER 2 EVERY 1 REGION 0 0 UB 3 7"),
            "{}",
            w.config
        );
    }

    #[test]
    fn subscribe_every_zero_rejected_with_pointed_error() {
        let e = compile_workflow(
            &format!(
                "{SUB_BASE}[[subscribe]]\nvar = \"t\"\nproducer = 1\nsubscriber = 2\nevery = 0\n"
            ),
            &[],
        )
        .unwrap_err();
        assert!(e.line > 0, "error must point at the block: {e}");
        assert!(e.message.contains("every must be at least 1"), "{e}");
    }

    #[test]
    fn subscribe_inverted_region_rejected_with_pointed_error() {
        let e = compile_workflow(
            &format!(
                "{SUB_BASE}[[subscribe]]\nvar = \"t\"\nproducer = 1\nsubscriber = 2\nregion_lb = [5, 0]\nregion_ub = [3, 7]\n"
            ),
            &[],
        )
        .unwrap_err();
        assert!(e.line > 0, "error must point at the block: {e}");
        assert!(
            e.message.contains("inverted in dimension 0")
                && e.message.contains("lower bound 5 exceeds upper bound 3"),
            "{e}"
        );
    }

    #[test]
    fn subscribe_unknown_variable_rejected_with_pointed_error() {
        let e = compile_workflow(
            &format!("{SUB_BASE}[[subscribe]]\nvar = \"pressure\"\nproducer = 1\nsubscriber = 2\n"),
            &[],
        )
        .unwrap_err();
        assert!(e.line > 0, "error must point at the block: {e}");
        assert!(
            e.message.contains("unknown variable 'pressure'")
                && e.message.contains("no [[coupling]] declares it"),
            "{e}"
        );
    }

    #[test]
    fn parse_override_splits_on_first_equals() {
        assert_eq!(
            parse_override("grid=2 2 1").unwrap(),
            ("grid".to_string(), "2 2 1".to_string())
        );
        assert!(parse_override("nonsense").is_err());
        assert!(parse_override("=x").is_err());
    }
}
