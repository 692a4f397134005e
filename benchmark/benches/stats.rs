//! Sample statistics, the process's peak memory, and the tiny JSON writer
//! the result line needs (the workspace's serde is a stub).

use std::fmt::Write as _;

/// The median of `values` (which must not be empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here are the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    (quantile(values, 0.25), quantile(values, 0.75))
}

fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    // Position on the 1-based scale of n + 1 points, clamped to the data.
    let position = (q * (n + 1) as f64).clamp(1.0, n as f64);
    let below = position.floor() as usize;
    let fraction = position - below as f64;
    let above = (below + 1).min(n);
    sorted[below - 1] + fraction * (sorted[above - 1] - sorted[below - 1])
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares under `section`
/// (`end_to_end` or `per_layer`), in its order.  The file is the one list of
/// metrics; a run reports exactly what it declares.
///
/// A scan, not a parser: it relies on the section being an array of flat
/// objects whose strings hold no brace, bracket or escaped quote, which the
/// benchmark contract's limits on names and units guarantee.
pub fn declared(benchmark_json: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let key = format!("\"{section}\"");
    let after_key = benchmark_json
        .find(&key)
        .map(|at| &benchmark_json[at + key.len()..])
        .ok_or(format!("BENCHMARK.json has no {key}"))?;
    let array = after_key
        .find('[')
        .zip(after_key.find(']'))
        .filter(|(open, close)| open < close)
        .map(|(open, close)| &after_key[open + 1..close])
        .ok_or(format!("BENCHMARK.json: {key} is not an array"))?;
    let field = |object: &str, name: &str| -> Option<String> {
        let rest = &object[object.find(&format!("\"{name}\""))? + name.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    array
        .split('}')
        .filter(|object| object.contains('{'))
        .map(|object| {
            field(object, "name")
                .zip(field(object, "unit"))
                .ok_or(format!(
                    "BENCHMARK.json: a {section} metric lacks name or unit"
                ))
        })
        .collect()
}

/// The result line of the benchmark contract: one JSON object with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        // Rust prints an `f64` with the shortest digits that round-trip, so
        // a measured value keeps all of its digits; non-finite values have
        // no JSON spelling and would mean a bug upstream.
        assert!(metric.value.is_finite(), "{} is not finite", metric.name);
        write!(
            line,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        )
        .expect("writing to a String");
    }
    line.push_str("}}");
    line
}
