//! A minimal JSON value model shared by every report-writing harness.
//!
//! The container has no serde; the committed artifacts
//! (`BENCH_native.json`, `BENCH_service.json`, …) were historically
//! assembled with `format!`, which made their schemas impossible to test.
//! This module gives the harnesses one [`Json`] tree type, one renderer
//! ([`Json::render`]), one document header ([`sweep_json`]: every
//! committed report is its header fields plus a `runs` array) and one file
//! writer ([`write_json_file`]) — plus a small parser ([`Json::parse`]) so
//! a test can compare a committed report with one the current writer
//! generates, key by key and kind by kind, instead of by its formatting.
//!
//! Rendering is deterministic: object keys keep insertion order, an object
//! or array whose compact form fits in one line stays on one line, and
//! anything longer breaks across indented lines.  Non-finite floats render
//! as `null` (JSON has no NaN).

use std::io::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (all the harness counters are `u64`).
    Int(u64),
    /// A float; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// Width at which [`Json::render`] breaks a container across lines.
const WRAP: usize = 100;

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// A float rounded to `digits` decimal places (reports don't need 17
    /// significant digits of wall-clock noise).
    pub fn float(value: f64, digits: usize) -> Json {
        if value.is_finite() {
            let scale = 10f64.powi(digits as i32);
            Json::Float((value * scale).round() / scale)
        } else {
            Json::Null
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn compact(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Int(v) => v.to_string(),
            Json::Float(v) if v.is_finite() => {
                // Keep a decimal point so the parser round-trips the type.
                let s = format!("{v}");
                if s.contains('.') || s.contains('e') {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            Json::Float(_) => "null".to_string(),
            Json::Str(s) => escape(s),
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(Json::compact).collect();
                format!("[{}]", inner.join(", "))
            }
            Json::Obj(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}: {}", escape(k), v.compact()))
                    .collect();
                format!("{{{}}}", inner.join(", "))
            }
        }
    }

    fn pretty(&self, level: usize, out: &mut String) {
        let compact = self.compact();
        if compact.len() <= WRAP || !matches!(self, Json::Arr(_) | Json::Obj(_)) {
            out.push_str(&compact);
            return;
        }
        let pad = "  ".repeat(level + 1);
        match self {
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.pretty(level + 1, out);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(level));
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&escape(k));
                    out.push_str(": ");
                    v.pretty(level + 1, out);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(level));
                out.push('}');
            }
            _ => unreachable!("scalars returned above"),
        }
    }

    /// Renders the value (line-wrapped, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.pretty(0, &mut out);
        out.push('\n');
        out
    }

    /// Parses a JSON document (strict enough for the harnesses' own
    /// output; numbers become [`Json::Int`] when they are plain
    /// non-negative integers, [`Json::Float`] otherwise).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
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
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, "\"")?;
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = std::str::from_utf8(&bytes[*pos + 1..*pos + 5])
                            .map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input came from a &str).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

/// The one top-level document of every committed report
/// (`BENCH_native.json`, `BENCH_workloads.json`, `BENCH_service.json`,
/// `BENCH_chaos.json`): the writer, its seed, the machine's thread count,
/// the host's cores, the sweep's own `header` entries (none for a
/// `service_report` sweep), whether every run passed, and the run entries.
pub fn sweep_json(
    generated_by: &str,
    seed: u64,
    threads: usize,
    header: Vec<(&str, Json)>,
    all_valid: bool,
    runs: Vec<Json>,
) -> Json {
    let mut fields = vec![
        ("generated_by", Json::str(generated_by)),
        ("seed", Json::Int(seed)),
        ("threads", Json::Int(threads as u64)),
        ("host_cores", Json::Int(rayon::current_num_threads() as u64)),
    ];
    fields.extend(header);
    fields.extend([
        ("all_valid", Json::Bool(all_valid)),
        ("runs", Json::Arr(runs)),
    ]);
    Json::obj(fields)
}

/// Writes a rendered [`Json`] document to `path` (the one writer shared by
/// `perf_report` and `service_report`).
pub fn write_json_file(path: &str, json: &Json) {
    let mut file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    file.write_all(json.render().as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj(vec![
            ("name", Json::str("bench")),
            ("count", Json::Int(42)),
            ("ratio", Json::float(1.23456, 3)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "runs",
                Json::Arr(vec![
                    Json::obj(vec![("n", Json::Int(1)), ("ms", Json::float(0.5, 3))]),
                    Json::obj(vec![("n", Json::Int(2)), ("ms", Json::Null)]),
                ]),
            ),
        ])
    }

    #[test]
    fn render_parse_round_trips() {
        let doc = sample();
        let text = doc.render();
        let back = Json::parse(&text).expect("rendered JSON must parse");
        assert_eq!(back, doc);
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let doc = sample();
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("bench"));
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(doc.get("ratio").and_then(Json::as_f64), Some(1.235));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("n").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::float(f64::NAN, 2), Json::Null);
        assert_eq!(Json::float(f64::INFINITY, 2), Json::Null);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let doc = Json::str("a \"quoted\" line\nwith a tab\t\\");
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }
}
