//! Minimal TOML-subset parser for scenario configs.
//!
//! crates.io is unreachable in the build environment, so instead of the
//! `toml` crate the scenario runner parses the subset it needs:
//! top-level `key = value` pairs, `[[array]]` array-of-tables sections,
//! comments, and scalar/array values (integers, floats, booleans,
//! `"strings"`, `[a, b, c]`). That covers every scenario file in
//! `crates/engine/scenarios/`; anything else (`[table]` sections, a key
//! repeated within one table, dotted keys, inline tables, multiline
//! strings) is rejected with a line-numbered error rather than
//! misparsed.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// Double-quoted string.
    Str(String),
    /// Homogeneous or heterogeneous array of scalars.
    Array(Vec<Value>),
}

impl Value {
    /// Integer view (floats with zero fraction inside `i64`'s range
    /// coerce; nothing saturates).
    pub fn as_int(&self) -> Option<i64> {
        // `i64::MIN` is -2^63 exactly, so this range holds exactly the
        // floats whose integer part fits an `i64`.
        const RANGE: std::ops::Range<f64> = i64::MIN as f64..-(i64::MIN as f64);
        match *self {
            Value::Int(x) => Some(x),
            Value::Float(f) if f.fract() == 0.0 && RANGE.contains(&f) => Some(f as i64),
            _ => None,
        }
    }

    /// Float view (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(x) => Some(x as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(xs) => Some(xs),
            _ => None,
        }
    }
}

/// A flat `key → value` table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    entries: BTreeMap<String, Value>,
}

impl Table {
    /// Raw value lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    /// Every key, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// `key` seen through `view`: `None` when absent, and an error
    /// naming the key when present as something `view` rejects (`what`
    /// describes the expected type).
    pub fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        view: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => view(v)
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be {what}, got {v:?}")),
        }
    }

    /// Integer, `default` when absent.
    pub fn int_or(&self, key: &str, default: i64) -> Result<i64, String> {
        Ok(self
            .typed(key, "an integer", Value::as_int)?
            .unwrap_or(default))
    }

    /// Number, `default` when absent.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        Ok(self
            .typed(key, "a number", Value::as_f64)?
            .unwrap_or(default))
    }

    /// Bool, `default` when absent.
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, String> {
        Ok(self
            .typed(key, "a boolean", Value::as_bool)?
            .unwrap_or(default))
    }

    /// String, `default` when absent.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> Result<&'a str, String> {
        Ok(self
            .typed(key, "a string", Value::as_str)?
            .unwrap_or(default))
    }

    /// Integer array, empty when absent.
    pub fn ints(&self, key: &str) -> Result<Vec<i64>, String> {
        let all = |xs: &[Value]| xs.iter().map(Value::as_int).collect();
        let xs = self.typed(key, "a list of integers", |v| v.as_array().and_then(all))?;
        Ok(xs.unwrap_or_default())
    }

    /// String array, empty when absent.
    pub fn strs(&self, key: &str) -> Result<Vec<String>, String> {
        let all = |xs: &[Value]| xs.iter().map(|x| x.as_str().map(str::to_owned)).collect();
        let xs = self.typed(key, "a list of strings", |v| v.as_array().and_then(all))?;
        Ok(xs.unwrap_or_default())
    }
}

/// A parsed document: the root table and the arrays of tables.
#[derive(Debug, Clone, Default)]
pub struct Document {
    /// Keys above the first section header.
    pub root: Table,
    /// `[[name]]` sections, in file order.
    pub table_arrays: BTreeMap<String, Vec<Table>>,
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "config parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a TOML-subset document.
///
/// # Errors
/// Returns a line-numbered [`ParseError`] on any construct outside the
/// supported subset.
pub fn parse(input: &str) -> Result<Document, ParseError> {
    let mut doc = Document::default();
    // The `[[name]]` array whose last element receives keys; `None` is
    // the root table.
    let mut target: Option<String> = None;

    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            let name = name.trim();
            if name.is_empty() {
                return Err(err(lineno, "empty [[section]] name"));
            }
            doc.table_arrays
                .entry(name.to_owned())
                .or_default()
                .push(Table::default());
            target = Some(name.to_owned());
        } else if line.starts_with('[') {
            return Err(err(
                lineno,
                format!("unsupported section `{line}` (only [[name]] arrays of tables)"),
            ));
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            if key.is_empty() || key.contains(['[', ']', '"', '.']) {
                return Err(err(lineno, format!("unsupported key `{key}`")));
            }
            let value = parse_value(value.trim(), lineno)?;
            let table = match &target {
                None => &mut doc.root,
                Some(name) => doc
                    .table_arrays
                    .get_mut(name)
                    .and_then(|v| v.last_mut())
                    .expect("created above"),
            };
            if table.entries.insert(key.to_owned(), value).is_some() {
                return Err(err(lineno, format!("duplicate key `{key}`")));
            }
        } else {
            return Err(err(
                lineno,
                format!("expected `key = value` or a section header, got `{line}`"),
            ));
        }
    }
    Ok(doc)
}

/// Strips a trailing comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, ParseError> {
    if text.is_empty() {
        return Err(err(lineno, "missing value"));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| err(lineno, "unterminated array (must close on the same line)"))?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let v = parse_value(part, lineno)?;
            if matches!(v, Value::Array(_)) {
                return Err(err(lineno, "nested arrays are not supported"));
            }
            items.push(v);
        }
        return Ok(Value::Array(items));
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| err(lineno, "unterminated string"))?;
        if inner.contains('"') {
            return Err(err(lineno, "embedded quotes are not supported"));
        }
        return Ok(Value::Str(inner.to_owned()));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let normalized = text.replace('_', "");
    if let Ok(x) = normalized.parse::<i64>() {
        return Ok(Value::Int(x));
    }
    if let Ok(f) = normalized.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(err(lineno, format!("unsupported value `{text}`")))
}

/// Splits an array body on commas (strings in this subset cannot
/// contain commas-in-quotes beyond what `strip_comment` handled, but be
/// conservative anyway).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# global settings
seed = 42
threads = 2          # worker threads
label = "smoke"
verbose = true
ratio = 0.75

[[run]]
family = "erdos-renyi"
sizes = [100, 1000]
algorithms = ["bfs", "mst"]

[[run]]
family = "grid"
sizes = [400]
eps = 0.5
"#;

    #[test]
    fn parses_the_scenario_shape() {
        let doc = parse(SAMPLE).unwrap();
        assert_eq!(doc.root.int_or("seed", 0), Ok(42));
        assert_eq!(doc.root.int_or("threads", 9), Ok(2));
        assert_eq!(doc.root.str_or("label", ""), Ok("smoke"));
        assert_eq!(doc.root.bool_or("verbose", false), Ok(true));
        assert_eq!(doc.root.f64_or("ratio", 0.0), Ok(0.75));
        let runs = &doc.table_arrays["run"];
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].str_or("family", ""), Ok("erdos-renyi"));
        assert_eq!(runs[0].ints("sizes"), Ok(vec![100, 1000]));
        assert_eq!(runs[0].strs("algorithms").unwrap(), ["bfs", "mst"]);
        assert_eq!(runs[1].f64_or("eps", 0.0), Ok(0.5));
        assert_eq!(runs[1].strs("algorithms"), Ok(vec![]));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let doc = parse("x = 1").unwrap();
        assert_eq!(doc.root.int_or("y", 7), Ok(7));
        assert_eq!(doc.root.str_or("name", "fallback"), Ok("fallback"));
        assert_eq!(doc.root.ints("zs"), Ok(vec![]));
    }

    #[test]
    fn comments_inside_strings_survive() {
        let doc = parse(r##"tag = "a # b""##).unwrap();
        assert_eq!(doc.root.str_or("tag", ""), Ok("a # b"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nbroken").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("x = [1, 2").unwrap_err();
        assert!(e.message.contains("unterminated array"));
        let e = parse("x = @nope").unwrap_err();
        assert!(e.message.contains("unsupported value"));
    }

    #[test]
    fn repeated_keys_and_table_sections_are_errors() {
        let e = parse("threads = 1\nthreads = 3").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("`threads`"), "{e}");
        let e = parse("[[run]]\nk = 1\nk = 2").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("`k`"), "{e}");
        // Each `[[run]]` element is a table of its own.
        assert!(parse("k = 1\n[[run]]\nk = 2\n[[run]]\nk = 3").is_ok());
        assert_eq!(parse("x = 1\n[limits]\nmax = 2").unwrap_err().line, 2);
    }

    #[test]
    fn float_and_int_coercions() {
        let doc = parse("a = 3.0\nb = 4").unwrap();
        assert_eq!(doc.root.get("a").unwrap().as_int(), Some(3));
        assert_eq!(doc.root.get("b").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            parse("c = 3.5").unwrap().root.get("c").unwrap().as_int(),
            None
        );
        // Out-of-range floats are not integers, rather than saturating.
        assert_eq!(Value::Float(1e30).as_int(), None);
        assert_eq!(Value::Float(-1e30).as_int(), None);
        assert_eq!(Value::Float(9_223_372_036_854_775_808.0).as_int(), None);
        assert_eq!(Value::Float(i64::MIN as f64).as_int(), Some(i64::MIN));
    }
}
