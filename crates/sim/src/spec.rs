//! The one `key=value` grammar behind every textual spec in the
//! workspace: FaultPlane campaigns ([`CampaignSpec`]), ServePlane
//! workloads (`ecoscale_runtime::serve::ServeSpec`) and fuzz points
//! (`ecoscale_bench::fuzz::FuzzConfig`).
//!
//! A spec is comma-separated `key=value` pairs. Each pair, its key and
//! its value are trimmed, and empty pairs are skipped. [`pairs`] hands
//! every pair to the caller's match over its keys; the typed readers on
//! [`Pair`] check the value; and every refusal is one [`SpecError`]
//! naming the spec kind and the offending pair. Durations take
//! `ns`/`us`/`ms`/`s` suffixes ([`parse_duration`]) and print back in the
//! largest integral unit ([`fmt_duration`]).
//!
//! # Example
//!
//! ```
//! use ecoscale_sim::spec;
//!
//! const KEYS: &[&str] = &["seed", "cap"];
//! let (mut seed, mut cap) = (0, 1);
//! spec::pairs("demo spec", " seed = 3 ,, cap=4", |p| {
//!     match p.key {
//!         "seed" => seed = p.u64()?,
//!         "cap" => cap = p.count(1)?,
//!         _ => return Err(p.unknown(KEYS)),
//!     }
//!     Ok(())
//! })
//! .unwrap();
//! assert_eq!((seed, cap), (3, 4));
//!
//! let err = spec::pairs("demo spec", "cap=0", |p| p.count(1).map(drop)).unwrap_err();
//! assert_eq!(err.to_string(), "bad demo spec pair `cap=0`: want a count >= 1");
//! ```
//!
//! [`CampaignSpec`]: crate::fault::CampaignSpec

use core::fmt;
use core::ops::RangeBounds;

use crate::time::Duration;

/// A refused spec string: which grammar refused it, the offending pair,
/// and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The spec kind (`"fault spec"`, `"serve spec"`, `"fuzz config"`).
    pub kind: &'static str,
    /// The offending `key=value` pair, trimmed.
    pub pair: String,
    /// What was expected.
    pub reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad {} pair `{}`: {}", self.kind, self.pair, self.reason)
    }
}

impl std::error::Error for SpecError {}

/// One trimmed `key=value` pair of a spec string, with the typed readers
/// its value goes through.
#[derive(Debug, Clone, Copy)]
pub struct Pair<'a> {
    kind: &'static str,
    text: &'a str,
    /// The key.
    pub key: &'a str,
    /// The value.
    pub value: &'a str,
}

impl Pair<'_> {
    /// Refuses this pair for `reason`.
    pub fn err(&self, reason: impl Into<String>) -> SpecError {
        SpecError {
            kind: self.kind,
            pair: self.text.to_owned(),
            reason: reason.into(),
        }
    }

    /// Refuses this pair's key; `keys` lists the grammar's keys.
    pub fn unknown(&self, keys: &[&str]) -> SpecError {
        self.err(format!(
            "unknown key `{}` (want {})",
            self.key,
            keys.join(", ")
        ))
    }

    /// The value as a `u64`.
    ///
    /// # Errors
    ///
    /// Anything but a `u64`.
    pub fn u64(&self) -> Result<u64, SpecError> {
        self.value.parse().map_err(|_| self.err("want a u64"))
    }

    /// The value as a count of at least `floor`.
    ///
    /// # Errors
    ///
    /// Anything but a `usize` of at least `floor`.
    pub fn count(&self, floor: usize) -> Result<usize, SpecError> {
        (self.value.parse().ok())
            .filter(|&n| n >= floor)
            .ok_or_else(|| self.err(format!("want a count >= {floor}")))
    }

    /// The value as a duration ([`parse_duration`]).
    ///
    /// # Errors
    ///
    /// Anything [`parse_duration`] refuses.
    pub fn duration(&self) -> Result<Duration, SpecError> {
        parse_duration(self.value).ok_or_else(|| self.err("want a duration like 300us"))
    }

    /// The value as a non-zero duration.
    ///
    /// # Errors
    ///
    /// As [`Pair::duration`], and a zero duration.
    pub fn nonzero_duration(&self) -> Result<Duration, SpecError> {
        (parse_duration(self.value))
            .filter(|d| !d.is_zero())
            .ok_or_else(|| self.err("want a duration > 0 like 300us"))
    }

    /// The value as a finite float inside `range`; `want` describes the
    /// range in the refusal (`"a probability in [0,1]"`).
    ///
    /// # Errors
    ///
    /// Anything but a finite float inside `range`.
    pub fn float(&self, range: impl RangeBounds<f64>, want: &str) -> Result<f64, SpecError> {
        (self.value.parse().ok())
            .filter(|v: &f64| v.is_finite() && range.contains(v))
            .ok_or_else(|| self.err(format!("want {want}")))
    }

    /// The member of `set` whose `name` is the value.
    ///
    /// # Errors
    ///
    /// A value that names no member; the refusal lists every name.
    pub fn one_of<T: Copy>(&self, set: &[T], name: fn(T) -> &'static str) -> Result<T, SpecError> {
        set.iter()
            .copied()
            .find(|&t| name(t) == self.value)
            .ok_or_else(|| {
                let names: Vec<&str> = set.iter().map(|&t| name(t)).collect();
                self.err(format!("want {}", names.join("|")))
            })
    }
}

/// Splits `s` into its trimmed `key=value` pairs, skipping empty ones,
/// and hands each to `each` in order. `kind` names the grammar in every
/// [`SpecError`].
///
/// # Errors
///
/// A pair without `=`, or the first error `each` returns.
pub fn pairs<'a>(
    kind: &'static str,
    s: &'a str,
    mut each: impl FnMut(Pair<'a>) -> Result<(), SpecError>,
) -> Result<(), SpecError> {
    for text in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let Some((key, value)) = text.split_once('=') else {
            return Err(SpecError {
                kind,
                pair: text.to_owned(),
                reason: "expected key=value".to_owned(),
            });
        };
        each(Pair {
            kind,
            text,
            key: key.trim(),
            value: value.trim(),
        })?;
    }
    Ok(())
}

/// Parses a duration with an `ns`/`us`/`ms`/`s` suffix (`"300us"`,
/// `"1.5ms"`).
pub fn parse_duration(s: &str) -> Option<Duration> {
    let s = s.trim();
    let (num, unit) = s.split_at(s.find(|c: char| c.is_ascii_alphabetic())?);
    let v: f64 = num.parse().ok()?;
    if !v.is_finite() || v < 0.0 {
        return None;
    }
    let ns = match unit {
        "ns" => v,
        "us" => v * 1e3,
        "ms" => v * 1e6,
        "s" => v * 1e9,
        _ => return None,
    };
    Some(Duration::from_ns_f64(ns))
}

/// Renders a duration in the largest unit that keeps it integral, so
/// `Display` output re-parses to the same value. The inverse of
/// [`parse_duration`].
pub fn fmt_duration(d: Duration) -> String {
    if !d.as_ps().is_multiple_of(1_000) {
        return format!("{}ns", d.as_ns_f64());
    }
    let ns = d.as_ns();
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first refusal of `s` when every pair goes through `read`.
    fn refusal(s: &str, read: fn(&Pair<'_>) -> Result<(), SpecError>) -> SpecError {
        pairs("test spec", s, |p| read(&p)).unwrap_err()
    }

    #[test]
    fn pairs_trims_and_skips_empty_pairs() {
        let mut seen = Vec::new();
        pairs("test spec", " a = 1 ,, b=2 , ", |p| {
            seen.push((p.key, p.value));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, [("a", "1"), ("b", "2")]);
        let e = refusal(" a=1 , nokey ", |_| Ok(()));
        assert_eq!(
            (e.kind, e.pair.as_str(), e.reason.as_str()),
            ("test spec", "nokey", "expected key=value")
        );
    }

    #[test]
    fn readers_check_their_values() {
        let e = refusal("n=-3", |p| p.u64().map(drop));
        assert_eq!(e.to_string(), "bad test spec pair `n=-3`: want a u64");
        assert_eq!(
            refusal("n=1", |p| p.count(2).map(drop)).reason,
            "want a count >= 2"
        );
        let e = refusal("d=0ms", |p| p.nonzero_duration().map(drop));
        assert_eq!(e.reason, "want a duration > 0 like 300us");
        let e = refusal("p=inf", |p| p.float(0.0.., "x >= 0").map(drop));
        assert_eq!(e.reason, "want x >= 0");
        let e = refusal("k=c", |p| {
            p.one_of(&[1u8, 2], |n| ["a", "b"][n as usize - 1])
                .map(drop)
        });
        assert_eq!(e.reason, "want a|b");
        let e = refusal("zz=1", |p| Err(p.unknown(&["a", "b"])));
        assert_eq!(e.reason, "unknown key `zz` (want a, b)");
    }

    #[test]
    fn durations_round_trip_through_their_format() {
        for text in ["0ns", "7ns", "300us", "2ms", "3s", "1.5ns"] {
            let d = parse_duration(text).unwrap();
            assert_eq!(parse_duration(&fmt_duration(d)), Some(d), "{text}");
        }
        assert_eq!(fmt_duration(Duration::from_us(1500)), "1500us");
        for bad in ["", "5", "-1ms", "1h", "fast"] {
            assert_eq!(parse_duration(bad), None, "{bad}");
        }
    }
}
