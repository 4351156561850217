//! A minimal JSON value model, writer and parser.
//!
//! The workspace is hermetic (no serde), so metrics snapshots, chrome
//! traces and the bench harness's `BENCH_figNN.json` files are rendered
//! through this module. Output is deterministic: object keys keep
//! insertion order and floats are printed with enough precision to
//! round-trip. [`Json::parse`] reads the same dialect back (used by
//! `insitu status --json` to embed a run's artifact documents and by
//! trace round-trip tests); numbers parse into `U64`/`I64` when they are
//! exact integers and `F64` otherwise.

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (the workspace's counters are u64).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point; non-finite values render as `null` (JSON has no
    /// NaN/Infinity).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert a field (object values only).
    ///
    /// # Panics
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parse a JSON document.
    ///
    /// Accepts standard JSON (the writer's output plus insignificant
    /// whitespace). Numbers become [`Json::U64`] when non-negative
    /// integers, [`Json::I64`] when negative integers, and
    /// [`Json::F64`] otherwise. Errors carry a byte offset. Linear in
    /// the input; arrays and objects may nest `MAX_DEPTH` deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Look up a field of an object; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (`U64`/`I64`/`F64` all convert); `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned integer view; `None` for anything that is not an exact u64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` prints round-trippable floats ("1.5", "0.1").
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses per level, so hostile input must not choose the stack depth.
pub(crate) const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                fields.push((key, parse_value(text, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogates (emitted only for astral chars, which the
                        // writer never escapes) fall back to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the plain run up to the next quote or escape. Both
                // are ASCII, so the run ends on a char boundary of `text`
                // and nothing is re-validated.
                let rest = &bytes[*pos..];
                let run = rest.iter().position(|b| matches!(b, b'"' | b'\\'));
                let end = *pos + run.unwrap_or(rest.len());
                out.push_str(&text[*pos..end]);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() {
        return Err(format!("expected value at byte {start}"));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(7).render(), "7");
        assert_eq!(Json::I64(-3).render(), "-3");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn nested_structures() {
        let j = Json::obj()
            .field("name", "fig08")
            .field("rows", Json::Arr(vec![Json::U64(1), Json::U64(2)]));
        assert_eq!(j.render(), r#"{"name":"fig08","rows":[1,2]}"#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::obj()
            .field("name", "fig08")
            .field("neg", Json::I64(-3))
            .field("pi", 3.25)
            .field("flag", true)
            .field("none", Json::Null)
            .field("text", "a\"b\\c\nd\u{1}")
            .field("rows", Json::Arr(vec![Json::U64(1), Json::U64(2)]));
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn parse_accepts_whitespace_and_nesting() {
        let parsed = Json::parse(" { \"a\" : [ 1 , { \"b\" : -2.5 } ] }\n").unwrap();
        assert_eq!(
            parsed,
            Json::obj().field(
                "a",
                Json::Arr(vec![Json::U64(1), Json::obj().field("b", Json::F64(-2.5))])
            )
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nope").is_err());
    }

    /// A flat object of about `bytes` bytes of counter-style fields.
    fn flat_document(bytes: usize) -> String {
        let mut text = String::from("{");
        for i in 0.. {
            if text.len() >= bytes {
                break;
            }
            text.push_str(&format!("\"fabric.bytes.inter_app.network.{i}\":{i},"));
        }
        text.pop();
        text + "}"
    }

    #[test]
    fn parse_time_is_linear_in_document_size() {
        let best_of = |text: &str| {
            (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    assert!(Json::parse(text).is_ok());
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        let (small, large) = (flat_document(64 << 10), flat_document(1 << 20));
        let ratio = best_of(&large).as_secs_f64() / best_of(&small).as_secs_f64();
        // 16x the bytes: ~16x when linear, ~256x when each character
        // re-validates the rest of the input. The bound sits 3x from
        // both, so a noisy neighbour cannot fail a linear parser.
        assert!(ratio <= 48.0, "64 KiB -> 1 MiB took {ratio:.1}x");
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("{\"k\":[", "]}", MAX_DEPTH / 2)).is_ok());
        let err = Json::parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        assert!(Json::parse(&nested("{\"k\":[", "]}", MAX_DEPTH / 2 + 1)).is_err());
        // Hostile input picks no stack depth: an error, not an abort.
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
        // A scalar at the deepest level is a value, not another level.
        let full = "[".repeat(MAX_DEPTH) + "1" + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&full).is_ok());
    }

    #[test]
    fn render_parse_round_trips_non_ascii_strings() {
        const ALPHABET: &[char] = &[
            'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', 'ß',
            'Ω', '中', '語', '€', '\u{fffd}', '🚀', '𝄞',
        ];
        insitu_util::check::forall(200, |rng| {
            let word = |rng: &mut insitu_util::rng::SplitMix64| -> String {
                (0..rng.range_usize(0, 24))
                    .map(|_| *rng.choose(ALPHABET))
                    .collect()
            };
            let doc = Json::obj()
                .field(&word(rng), word(rng))
                .field("list", vec![Json::Str(word(rng)), Json::Str(word(rng))]);
            assert_eq!(Json::parse(&doc.render()), Ok(doc));
        });
    }

    #[test]
    fn accessors() {
        let j = Json::obj().field("n", 4u64).field("s", "x");
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(j.get("n").and_then(Json::as_f64), Some(4.0));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert!(j.get("missing").is_none());
        assert!(j.as_arr().is_none());
    }
}
