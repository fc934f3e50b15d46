//! Sample summaries: medians, supported tail percentiles, least-squares
//! slopes, and the small JSON writer the result line is printed with.

use std::fmt::Write as _;

/// Fewest samples a reported tail percentile must have beyond it.
pub const TAIL_MARGIN: usize = 10;

/// The highest tail percentile a sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in `(0, 100]`.
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// Median of `samples` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile, capped at `cap` (e.g. 99), that has at least
/// [`TAIL_MARGIN`] samples beyond it, with the sample count.  Samples too
/// few to leave ten beyond any rank report their maximum (at 100 %), so
/// the caller can see from `pct` and `n` how little the tail says.
pub fn tail(samples: &[f64], cap: f64) -> Option<Tail> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return None;
    }
    // Nearest-rank index of the capped percentile, pulled down until ten
    // samples lie strictly beyond it.
    let capped = ((cap / 100.0) * n as f64).ceil().max(1.0) as usize - 1;
    let idx = if n > TAIL_MARGIN {
        capped.min(n - 1 - TAIL_MARGIN)
    } else {
        n - 1
    };
    Some(Tail {
        value: s[idx],
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        n,
    })
}

/// Least-squares slope of `y` against `x`; `None` with fewer than two
/// distinct `x`.
pub fn slope(points: &[(f64, f64)]) -> Option<f64> {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    (points.len() >= 2 && sxx > 0.0).then(|| sxy / sxx)
}

/// A JSON value, just rich enough for the result and context lines.
#[derive(Debug, Clone)]
pub enum J {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // Non-finite values are not JSON; they never reach a result
            // (metrics are filtered first), but the writer stays total.
            J::Num(x) if !x.is_finite() => out.push_str("null"),
            J::Num(x) if x.fract() == 0.0 && x.abs() < 1e15 => {
                let _ = write!(out, "{x:.1}");
            }
            J::Num(x) => {
                let _ = write!(out, "{x}");
            }
            J::Int(x) => {
                let _ = write!(out, "{x}");
            }
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    J::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_and_reports_the_count() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has only one beyond it; the highest rank with
        // ten beyond is the 90th value.
        let t = tail(&samples, 99.0).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(samples.iter().filter(|&&x| x > t.value).count(), 10);

        // With enough samples the cap itself is supported.
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&many, 99.0).unwrap();
        assert_eq!(t.value, 4950.0);
        assert_eq!(t.pct, 99.0);
        assert!(many.iter().filter(|&&x| x > t.value).count() >= TAIL_MARGIN);

        // Too few samples: the maximum, flagged as the 100th percentile.
        let few = [3.0, 1.0, 2.0];
        assert_eq!(
            tail(&few, 99.0),
            Some(Tail {
                value: 3.0,
                pct: 100.0,
                n: 3
            })
        );
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut samples: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let a = tail(&samples, 99.0);
        samples.sort_by(f64::total_cmp);
        assert_eq!(a, tail(&samples, 99.0));
    }

    #[test]
    fn median_and_slope() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let line: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&line).unwrap() - 3.0).abs() < 1e-9);
        assert_eq!(slope(&[(1.0, 2.0), (1.0, 3.0)]), None);
    }

    #[test]
    fn json_keeps_every_digit() {
        let j = J::obj([
            ("a", J::Num(1.2034567891)),
            ("b", J::Int(7)),
            ("c", J::Num(2.0)),
            ("d", J::str("x\"y")),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a": 1.2034567891, "b": 7, "c": 2.0, "d": "x\"y"}"#
        );
    }
}
