//! Result lines: named metrics with units, the run record, and the
//! order statistics every metric is reduced with.

use std::fmt::Write as _;

use rbs_core::histogram::LogHistogram;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics, printed in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// The names of non-finite values (JSON cannot carry them).
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` on f64 prints the shortest string that reads back to the
        // same value: every digit as measured.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A flat JSON object built field by field (values are already JSON).
#[derive(Default)]
pub struct JsonObject(Vec<(String, String)>);

impl JsonObject {
    pub fn num(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let escaped: String = value
            .chars()
            .filter(|c| !c.is_control())
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                _ => vec![c],
            })
            .collect();
        self.0.push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    pub fn list(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        self.0
            .push((key.to_string(), format!("[{}]", items.join(", "))));
        self
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of a log histogram, interpolated linearly inside the
/// bucket that holds it. The histogram's own quantile answers with a
/// bucket bound, which repeats exactly from run to run whenever the
/// quantile stays inside one ~3%-wide bucket.
pub fn histogram_quantile(hist: &LogHistogram, q: f64) -> f64 {
    let total = hist.count();
    if total == 0 {
        return f64::NAN;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for (lo, hi, count) in hist.nonempty_buckets() {
        let next = seen + count as f64;
        if next >= target {
            let frac = (target - seen) / count as f64;
            return lo as f64 + (hi.saturating_sub(lo)) as f64 * frac;
        }
        seen = next;
    }
    hist.max().map_or(f64::NAN, |m| m as f64)
}

/// Nanoseconds per item; `0` when nothing was counted.
pub fn per(ns: f64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        ns / items as f64
    }
}

/// `num / den`; `0` when the denominator is zero.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn histogram_quantile_stays_inside_the_bucket() {
        let mut h = LogHistogram::new(32);
        for v in 1000..2000u64 {
            h.record(v);
        }
        let p50 = histogram_quantile(&h, 0.5);
        assert!((1400.0..1600.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.push("mpps", 1.25, "Mpps");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"mpps\": {\"value\": 1.25, \"unit\": \"Mpps\"}}}"
        );
    }
}
