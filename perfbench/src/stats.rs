//! Order statistics, process memory and the result line.

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linearly interpolated percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One reported metric. `raw` is shown beside normalized times in the
/// human-readable table and never enters the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub raw: Option<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            raw: None,
        }
    }

    /// A host-normalized time with its raw wall-clock counterpart.
    pub fn timed(name: impl Into<String>, value: f64, raw: f64, unit: &'static str) -> Self {
        Self {
            raw: Some(raw),
            ..Self::new(name, value, unit)
        }
    }
}

/// Prints the metric table, then the result line (the last line of
/// standard output).
pub fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    println!(
        "{:<34} {:>18} {:<8} {:>18}",
        "metric", "value", "unit", "raw wall"
    );
    for m in metrics {
        let raw = m.raw.map_or(String::new(), |r| format!("{r:.4}"));
        println!("{:<34} {:>18.4} {:<8} {:>18}", m.name, m.value, m.unit, raw);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// A JSON number with every digit of the measurement (non-finite values
/// cannot be written and read as 0, which no metric may be).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}
