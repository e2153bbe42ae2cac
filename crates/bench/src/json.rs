//! Minimal JSON writing.
//!
//! The bench binaries emit their `results/BENCH_*.json` artifacts through
//! this module; before it each call site hand-rolled `format!` strings,
//! which drifted in style and was easy to get syntactically wrong. This is
//! the smallest value type + pretty printer that covers those producers —
//! output only, no parsing, no external dependency (the build environment
//! is offline).

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite numbers render as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float, rendered with Rust's shortest round-trip formatting.
    /// Non-finite values render as `null` (JSON has no NaN/Inf).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    ///
    /// ```
    /// use ink_bench::json::Json;
    ///
    /// let j = Json::obj([
    ///     ("bench", Json::from("serve")),
    ///     ("clients", Json::from(4u64)),
    ///     ("p50_us", Json::from(12.5)),
    /// ]);
    /// assert!(j.pretty().contains("\"clients\": 4"));
    /// ```
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Appends a field to an object.
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(fields) => fields.push((key.into(), value)),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the house style of the `results/BENCH_*.json` artifacts.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
            leaf => leaf.write_inline(out),
        }
    }

    /// Renders a leaf or an empty container.
    fn write_inline(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            // `write` lays out non-empty containers itself.
            Json::Arr(_) => out.push_str("[]"),
            Json::Obj(_) => out.push_str("{}"),
        }
    }
}

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Rounds to `digits` decimal places — benches report microseconds where
/// sub-nano noise is meaningless and bloats the artifact.
pub fn rounded(x: f64, digits: u32) -> Json {
    if !x.is_finite() {
        return Json::Null;
    }
    let scale = 10f64.powi(digits as i32);
    Json::Num((x * scale).round() / scale)
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

impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::Num(v as f64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_render_on_one_line() {
        assert_eq!(Json::Null.pretty(), "null\n");
        assert_eq!(Json::from(true).pretty(), "true\n");
        assert_eq!(Json::from(-3i64).pretty(), "-3\n");
        assert_eq!(Json::from(1.5f64).pretty(), "1.5\n");
        assert_eq!(Json::from(f64::NAN).pretty(), "null\n");
        assert_eq!(Json::from(f64::INFINITY).pretty(), "null\n");
        assert_eq!(Json::from("a\"b\n").pretty(), "\"a\\\"b\\n\"\n");
    }

    #[test]
    fn pretty_nests_with_two_space_indent() {
        let j = Json::obj([
            ("name", Json::from("x")),
            ("rows", Json::Arr(vec![Json::obj([("v", Json::from(1u64))])])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj::<String>([])),
        ]);
        let s = j.pretty();
        assert_eq!(
            s,
            "{\n  \"name\": \"x\",\n  \"rows\": [\n    {\n      \"v\": 1\n    }\n  ],\n  \
             \"empty_arr\": [],\n  \"empty_obj\": {}\n}\n"
        );
    }

    #[test]
    fn rounded_truncates_noise() {
        assert_eq!(rounded(1.23456, 3), Json::Num(1.235));
        assert_eq!(rounded(f64::NAN, 3), Json::Null);
    }

    #[test]
    fn push_extends_objects() {
        let mut j = Json::obj([("a", Json::from(1u64))]);
        j.push("b", Json::from(2u64));
        assert_eq!(j.pretty(), "{\n  \"a\": 1,\n  \"b\": 2\n}\n");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn push_on_array_panics() {
        Json::Arr(vec![]).push("a", Json::Null);
    }
}
