//! Percentiles over latency samples and a minimal JSON writer.

use std::fmt::Write as _;

pub use sdbms_testkit::percentile;

/// Median of an unsorted sample of floats; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of a nanosecond sample, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    median(&v)
}

/// The percentiles a timing may be reported at.
const NAMED: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest named percentile with at least ten samples beyond it,
/// if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    NAMED
        .into_iter()
        .rev()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-6)
}

/// "p50 X us, p99.9 Y us (n=N)" for a nanosecond sample.
pub fn describe_us(sorted: &[u64]) -> String {
    let mut s = format!("p50 {:.1} us", percentile(sorted, 50.0) as f64 / 1e3);
    if let Some(p) = highest_supported(sorted.len()).filter(|&p| p > 50.0) {
        let _ = write!(s, ", p{p} {:.1} us", percentile(sorted, p) as f64 / 1e3);
    }
    let _ = write!(s, " (n={})", sorted.len());
    s
}

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number; non-finite values print as 0.
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("0"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::Str(k.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn json_escapes_and_keeps_every_digit() {
        let j = Json::obj([
            ("a\"b", Json::Num(1.234_567_890_123)),
            ("n", Json::Int(3)),
            ("nan", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a\"b": 1.234567890123, "n": 3, "nan": 0}"#
        );
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
