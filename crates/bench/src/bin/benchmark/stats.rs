//! Order statistics and the result line of the benchmark.

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported: below this the percentile is one or two outliers, not a tail.
const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The `q`-quantile (`0 < q < 1`) of `values` by linear interpolation
/// between order statistics, or `None` when fewer than [`TAIL_SAMPLES`]
/// samples lie beyond it (`n·(1 − q) < 10`): a p95 needs 200 samples.
pub fn tail_quantile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if (n as f64) * (1.0 - q) < TAIL_SAMPLES as f64 - 1e-9 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    Some(v[lo] + (pos - lo as f64) * (v[hi] - v[lo]))
}

/// `num / den`, or 0 when nothing was counted (e.g. cache hit ratio of an
/// engine whose coordinator owns no caches).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured, printed with all its digits.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Name, unit and better direction of a declared metric.
pub type Declared = (&'static str, &'static str, &'static str);

/// The metric `name` of `table` with `value`.
///
/// # Panics
///
/// Panics when `name` is not declared: the tables mirror `BENCHMARK.json`,
/// so an undeclared name is a bug in this program.
pub fn declared(table: &[Declared], name: &str, value: f64) -> Metric {
    let (name, unit, _) = table
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"));
    Metric {
        name: (*name).to_owned(),
        value,
        unit,
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// A non-finite value is printed as `null`; the caller treats it as a
/// failed run.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_owned()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(&m.name),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(
            tail_quantile(&samples, 0.95),
            None,
            "199 samples: 9.95 beyond"
        );
        let samples: Vec<f64> = (0..200).map(f64::from).collect();
        let p95 = tail_quantile(&samples, 0.95).expect("200 samples: 10 beyond");
        assert!((p95 - 189.05).abs() < 1e-9, "p95 = {p95}");
        // p50 of 20 samples has 10 beyond it.
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_quantile(&samples, 0.5), Some(10.5));
        assert_eq!(tail_quantile(&samples[..19], 0.5), None);
    }

    #[test]
    fn median_pass_is_the_middle_wall_time() {
        // Odd pass counts pick the middle pass, whatever the order.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[9.0, 1.5, 1.0, 1.2, 1.1]), 1.2);
        // Even counts average the middle two; one slow pass cannot move it.
        assert_eq!(median(&[1.0, 4.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[1.0, 1.0, 100.0, 1.0]), 1.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("l1\nl2\t\r"), "\"l1\\nl2\\t\\r\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("µs"), "\"µs\"");
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric {
                    name: "latency_ms".into(),
                    value: 1.25,
                    unit: "ms",
                },
                Metric {
                    name: "bad".into(),
                    value: f64::NAN,
                    unit: "s",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_name_rule() {
        assert!(valid_metric_name("engine.correct.us_per_iter"));
        assert!(valid_metric_name("9-lives_ok"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/no"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }
}
