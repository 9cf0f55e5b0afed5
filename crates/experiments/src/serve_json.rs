//! The `btr-serve-v2` result schema: one JSON document per service run,
//! written by the `btr-serve` binary and consumed alongside the sweep
//! and bench trajectories (see EXPERIMENTS.md).
//!
//! The `per_session` rows are scheduling-dependent: pool workers race
//! for dispatches, so which session serves which batch (and therefore
//! each row's dispatches, inferences, transitions, cycles and busy time)
//! can differ between identical runs. Fleet totals repeat when every
//! batching window fills (`tests/serve_parity.rs` pins that); compare
//! runs or builds on those, never on the per-session rows.

use crate::json::Json;
use btr_serve::{Histogram, ServeConfig, ServeReport};

/// The serve result schema version.
pub const SERVE_SCHEMA: &str = "btr-serve-v2";

/// Serializes a histogram as summary stats plus its non-empty log-linear
/// buckets (`[lo, hi, count]` rows, `hi` inclusive).
#[must_use]
pub fn histogram_json(h: &Histogram) -> Json {
    Json::obj(vec![
        ("count", Json::U64(h.count())),
        ("min", Json::U64(h.min())),
        ("max", Json::U64(h.max())),
        ("mean", Json::F64(h.mean())),
        ("p50", Json::U64(h.percentile(0.5))),
        ("p90", Json::U64(h.percentile(0.9))),
        ("p99", Json::U64(h.percentile(0.99))),
        (
            "buckets",
            Json::Arr(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(lo, hi, n)| Json::Arr(vec![Json::U64(lo), Json::U64(hi), Json::U64(n)]))
                    .collect(),
            ),
        ),
    ])
}

/// Serializes one service run to the `btr-serve-v2` schema.
#[must_use]
pub fn report_json(workload: &str, config: &ServeConfig, report: &ServeReport) -> Json {
    let per_session: Vec<Json> = report
        .per_session
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("session", Json::U64(s.session as u64)),
                ("dispatches", Json::U64(s.dispatches)),
                ("inferences", Json::U64(s.inferences)),
                ("transitions", Json::U64(s.transitions)),
                ("cycles", Json::U64(s.cycles)),
                ("index_overhead_bits", Json::U64(s.index_overhead_bits)),
                ("codec_overhead_bits", Json::U64(s.codec_overhead_bits)),
                ("edc_overhead_bits", Json::U64(s.edc_overhead_bits)),
                ("retransmitted_flits", Json::U64(s.retransmitted_flits)),
                ("retried_packets", Json::U64(s.retried_packets)),
                ("failed", Json::U64(s.failed)),
                ("busy_ms", Json::U64(s.busy_ms)),
                ("batch_fill", histogram_json(&s.batch_fill)),
                ("retries", histogram_json(&s.retries)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::str(SERVE_SCHEMA)),
        ("workload", Json::str(workload)),
        (
            "mesh",
            Json::str(format!(
                "{}x{} MC{}",
                config.accel.noc.width,
                config.accel.noc.height,
                config.accel.noc.mc_nodes.len()
            )),
        ),
        ("format", Json::str(config.accel.format.name())),
        ("ordering", Json::str(config.accel.ordering.label())),
        ("codec", Json::str(config.accel.codec.label())),
        ("codec_scope", Json::str(config.accel.codec_scope.label())),
        ("driver", Json::str(config.accel.driver.label())),
        ("engine", Json::str(config.accel.engine.label())),
        ("edc", Json::str(config.accel.edc.label())),
        (
            "ber",
            Json::F64(
                config
                    .accel
                    .noc
                    .fault
                    .as_ref()
                    .map_or(0.0, |f| f.errors.ber.as_f64()),
            ),
        ),
        (
            "resync",
            Json::str(
                config
                    .accel
                    .noc
                    .fault
                    .as_ref()
                    .map_or("none", |f| f.resync.label()),
            ),
        ),
        ("sessions", Json::U64(config.sessions as u64)),
        ("batch_window", Json::U64(config.accel.batch_size as u64)),
        ("queue_capacity", Json::U64(config.queue_capacity as u64)),
        ("flush_polls", Json::U64(u64::from(config.flush_polls))),
        ("completed", Json::U64(report.completed)),
        ("failed", Json::U64(report.failed)),
        ("wall_ms", Json::U64(report.wall_ms)),
        ("inferences_per_sec", Json::F64(report.inferences_per_sec)),
        ("transitions", Json::U64(report.transitions)),
        ("index_overhead_bits", Json::U64(report.index_overhead_bits)),
        ("codec_overhead_bits", Json::U64(report.codec_overhead_bits)),
        ("edc_overhead_bits", Json::U64(report.edc_overhead_bits)),
        ("retransmitted_flits", Json::U64(report.retransmitted_flits)),
        ("retried_packets", Json::U64(report.retried_packets)),
        ("queue_depth", histogram_json(&report.queue_depth)),
        ("latency_us", histogram_json(&report.latency_us)),
        ("batch_fill", histogram_json(&report.batch_fill)),
        ("retries", histogram_json(&report.retries)),
        ("per_session", Json::Arr(per_session)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_serializes_summary_and_buckets() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(100);
        let json = histogram_json(&h);
        let text = json.to_string_compact();
        assert!(text.contains("\"count\":2"), "{text}");
        assert!(text.contains("\"max\":100"), "{text}");
        assert!(text.contains("\"buckets\":[[3,3,1],[100,103,1]]"), "{text}");
        // The writer output parses back.
        assert!(Json::parse(&text).is_ok());
    }
}
