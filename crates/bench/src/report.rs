//! Shared machine-readable reporting for the two bench binaries.
//!
//! * [`Report`] — a name + metadata + rows document rendered as JSON
//!   ([`Json`]) with a hand-rolled renderer/parser (the workspace takes
//!   no serde dependency), so `BENCH_scale.json` and `BENCH_paper.json`
//!   are diffable across commits and parseable by the validation tests;
//! * [`peak_rss_bytes`] — peak resident set size from
//!   `/proc/self/status` for the memory columns of the scale tier.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` off Linux or on parse failure.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A JSON value. Object keys keep insertion order so rendered reports
/// are stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (rendered without trailing `.0` for integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
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

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict enough for round-tripping our own
    /// reports; rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number at offset {start}"))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        out.push(char::from_u32(hex).ok_or("bad \\u codepoint")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// A named experiment report: metadata plus uniform rows, rendered as
/// one JSON document.
#[derive(Debug, Clone)]
pub struct Report {
    name: String,
    meta: Vec<(String, Json)>,
    rows: Vec<Json>,
}

impl Report {
    /// An empty report called `name`.
    pub fn new(name: &str) -> Report {
        Report {
            name: name.to_string(),
            meta: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Attaches a metadata entry (sweep parameters, environment).
    pub fn meta(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.meta.push((key.to_string(), value.into()));
        self
    }

    /// Appends one result row.
    pub fn row(&mut self, pairs: Vec<(&str, Json)>) -> &mut Self {
        self.rows.push(Json::obj(pairs));
        self
    }

    /// The whole report as a JSON value:
    /// `{"name", "schema": 1, "meta": {...}, "rows": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("schema", Json::Num(1.0)),
            ("meta", Json::Obj(self.meta.clone())),
            ("rows", Json::Arr(self.rows.clone())),
        ])
    }

    /// Renders the report as compact JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut s = self.to_json().render();
        s.push('\n');
        s
    }
}

/// Validates the common report envelope: `name`/`schema`/`meta`/`rows`
/// present, every row an object, and every row carrying at least the
/// columns of the first row (uniform tables).
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("missing string field 'name'")?;
    if name.is_empty() {
        return Err("empty report name".into());
    }
    doc.get("schema")
        .and_then(Json::as_f64)
        .filter(|v| *v == 1.0)
        .ok_or("missing or unknown 'schema'")?;
    match doc.get("meta") {
        Some(Json::Obj(_)) => {}
        _ => return Err("missing object field 'meta'".into()),
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'rows'")?;
    let mut first_cols: Option<BTreeMap<&str, ()>> = None;
    for (i, row) in rows.iter().enumerate() {
        let Json::Obj(pairs) = row else {
            return Err(format!("row {i} is not an object"));
        };
        let cols: BTreeMap<&str, ()> = pairs.iter().map(|(k, _)| (k.as_str(), ())).collect();
        match &first_cols {
            None => first_cols = Some(cols),
            Some(first) => {
                for k in first.keys() {
                    if !cols.contains_key(k) {
                        return Err(format!("row {i} is missing column {k:?}"));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let doc = Json::obj(vec![
            ("s", Json::from("a \"quoted\"\nline")),
            ("n", Json::from(12.5)),
            ("i", Json::from(42u64)),
            ("b", Json::from(true)),
            ("z", Json::Null),
            ("a", Json::Arr(vec![Json::from(1u64), Json::from("x")])),
            ("o", Json::obj(vec![("k", Json::from(7u64))])),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(text, Json::parse(&text).unwrap().render());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(10_000u64).render(), "10000");
        assert_eq!(Json::from(1.25).render(), "1.25");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn report_envelope_validates() {
        let mut r = Report::new("demo");
        r.meta("seed", 1u64);
        r.row(vec![("x", Json::from(1u64)), ("y", Json::from(2u64))]);
        r.row(vec![("x", Json::from(3u64)), ("y", Json::from(4u64))]);
        let doc = Json::parse(&r.render()).unwrap();
        validate_report(&doc).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 2);

        let mut bad = Report::new("demo");
        bad.row(vec![("x", Json::from(1u64))]);
        bad.row(vec![("y", Json::from(2u64))]);
        let doc = Json::parse(&bad.render()).unwrap();
        assert!(validate_report(&doc).is_err(), "non-uniform rows rejected");
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }
}
